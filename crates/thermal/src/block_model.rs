//! The paper's simplified per-block thermal model (Figure 3C / Eq. 5).
//!
//! Each functional block `i` is a single RC node: capacitance `C_i`,
//! resistance `R_i` to a heatsink node held at constant temperature (its
//! time constant is orders of magnitude longer than the blocks', so it is
//! effectively a temperature source over the horizons simulated here).
//!
//! The paper integrates with the forward-Euler difference equation (Eq. 5):
//!
//! ```text
//! T[i] += dt/C[i] * ( P[i] - (T[i] - T_heatsink)/R[i] )
//! ```
//!
//! [`BlockModel::step`] instead uses the *exact* update for a constant
//! power over the step,
//!
//! ```text
//! T[i] = T_ss + (T[i] - T_ss)·e^{-dt/R·C},   T_ss = T_heatsink + P·R
//! ```
//!
//! whose decay factor is precomputed once per block (the step `dt` — one
//! clock cycle — is fixed). At `dt/τ ≈ 667ps/84µs ≈ 8e-6` the two stay
//! within microkelvins over tens of thousands of steps (see tests), so this
//! is a free accuracy upgrade at coarse steps; Euler
//! stepping remains available as [`BlockModel::step_euler`] for the
//! fidelity ablation.

use crate::silicon::SiliconProperties;
use crate::{Celsius, Watts};

/// Thermal parameters of one functional block.
#[derive(Clone, PartialEq, Debug)]
pub struct BlockParams {
    /// Block name (reporting only).
    pub name: String,
    /// Block area in m² (reporting only; R and C are what the model uses).
    pub area: f64,
    /// Normal thermal resistance to the heatsink node, K/W.
    pub r: f64,
    /// Block thermal capacitance, J/K.
    pub c: f64,
}

impl BlockParams {
    /// Derives parameters for a block of `area` m² from material
    /// properties (Section 4.3 formulas).
    pub fn from_area(name: impl Into<String>, area: f64, si: &SiliconProperties) -> BlockParams {
        BlockParams {
            name: name.into(),
            area,
            r: si.r_normal(area).0,
            c: si.c_block(area).0,
        }
    }

    /// The block's RC time constant in seconds.
    pub fn time_constant(&self) -> f64 {
        self.r * self.c
    }
}

/// The simplified localized thermal model: independent RC blocks over a
/// constant-temperature heatsink.
#[derive(Clone, Debug)]
pub struct BlockModel {
    params: Vec<BlockParams>,
    temps: Vec<f64>,
    heatsink: Celsius,
    dt: f64,
    /// Precomputed `e^{-dt/RC}` per block for the exact step.
    decay: Vec<f64>,
}

impl BlockModel {
    /// Creates a model with every block initialized to the heatsink
    /// temperature and a fixed integration step `dt` (seconds) — one clock
    /// cycle in the paper's usage.
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty, `dt` is not positive, or any block has
    /// non-positive R or C.
    pub fn new(params: Vec<BlockParams>, heatsink: Celsius, dt: f64) -> BlockModel {
        assert!(!params.is_empty(), "need at least one block");
        assert!(dt > 0.0, "dt must be positive");
        for p in &params {
            assert!(p.r > 0.0 && p.c > 0.0, "block {} must have positive R and C", p.name);
        }
        let temps = vec![heatsink; params.len()];
        let decay = params.iter().map(|p| (-dt / (p.r * p.c)).exp()).collect();
        BlockModel { params, temps, heatsink, dt, decay }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the model has no blocks (never true for a constructed model).
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The block parameters.
    pub fn params(&self) -> &[BlockParams] {
        &self.params
    }

    /// Current block temperatures, in block order.
    pub fn temperatures(&self) -> &[Celsius] {
        &self.temps
    }

    /// The heatsink temperature.
    pub fn heatsink(&self) -> Celsius {
        self.heatsink
    }

    /// Integration step in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Changes the heatsink temperature (e.g. to model long-term drift
    /// between experiments).
    pub fn set_heatsink(&mut self, heatsink: Celsius) {
        self.heatsink = heatsink;
    }

    /// Changes the integration step (e.g. when frequency scaling changes
    /// the cycle time), preserving temperatures.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn set_dt(&mut self, dt: f64) {
        assert!(dt > 0.0, "dt must be positive");
        self.dt = dt;
        self.decay = self.params.iter().map(|p| (-dt / (p.r * p.c)).exp()).collect();
    }

    /// Initializes every block to its steady-state temperature under the
    /// given powers (a warmed-up starting condition).
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` differs from the number of blocks.
    pub fn warm_start(&mut self, powers: &[Watts]) {
        assert_eq!(powers.len(), self.params.len(), "one power per block");
        for (temp, (&power, p)) in self.temps.iter_mut().zip(powers.iter().zip(&self.params)) {
            *temp = self.heatsink + power * p.r;
        }
    }

    /// Overrides a block temperature (initial conditions in tests).
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn set_temperature(&mut self, block: usize, temp: Celsius) {
        self.temps[block] = temp;
    }

    /// Advances one step with the exact constant-power update.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` differs from the number of blocks.
    pub fn step(&mut self, powers: &[Watts]) {
        assert_eq!(powers.len(), self.params.len(), "one power per block");
        for ((temp, &power), (p, &decay)) in self
            .temps
            .iter_mut()
            .zip(powers)
            .zip(self.params.iter().zip(&self.decay))
        {
            let t_ss = self.heatsink + power * p.r;
            *temp = t_ss + (*temp - t_ss) * decay;
        }
    }

    /// Advances one step with the exact constant-power update through a
    /// fixed-arity kernel: the block count is a compile-time constant, so
    /// the loop unrolls with no bounds checks. Bit-identical to
    /// [`step`](BlockModel::step) (pinned by property tests).
    ///
    /// # Panics
    ///
    /// Panics if the model does not have exactly `N` blocks.
    pub fn step_fixed<const N: usize>(&mut self, powers: &[Watts; N]) {
        let BlockModel { params, temps, heatsink, decay, .. } = self;
        let temps: &mut [f64; N] = temps.as_mut_slice().try_into().expect("one power per block");
        let decay: &[f64; N] = decay.as_slice().try_into().expect("one decay per block");
        let params: &[BlockParams] = params;
        assert_eq!(params.len(), N, "one power per block");
        for i in 0..N {
            let t_ss = *heatsink + powers[i] * params[i].r;
            temps[i] = t_ss + (temps[i] - t_ss) * decay[i];
        }
    }

    /// Fused V/f-scale + exact-decay pass: multiplies each block power by
    /// `scale` (writing the effective watts back into `powers`) and
    /// advances the temperatures one exact step, in a single loop over the
    /// blocks. Bit-identical to scaling `powers` first and then calling
    /// [`step`](BlockModel::step): each block's update reads only its own
    /// power and temperature, so per-block fusion does not reorder any
    /// floating-point operation.
    ///
    /// # Panics
    ///
    /// Panics if the model does not have exactly `N` blocks.
    pub fn step_scaled<const N: usize>(&mut self, powers: &mut [Watts; N], scale: f64) {
        let BlockModel { params, temps, heatsink, decay, .. } = self;
        let temps: &mut [f64; N] = temps.as_mut_slice().try_into().expect("one power per block");
        let decay: &[f64; N] = decay.as_slice().try_into().expect("one decay per block");
        assert_eq!(params.len(), N, "one power per block");
        for i in 0..N {
            let p = powers[i] * scale;
            powers[i] = p;
            let t_ss = *heatsink + p * params[i].r;
            temps[i] = t_ss + (temps[i] - t_ss) * decay[i];
        }
    }

    /// Fused V/f-scale + extra-power + exact-decay pass, the leakage
    /// variant of [`step_scaled`](BlockModel::step_scaled): block `i`'s
    /// power becomes `powers[i] * scale + extra(i, T_i)` where `T_i` is
    /// the block's temperature *before* the step (the leakage feedback
    /// convention), each extra watt is also accumulated into `total`, and
    /// the effective per-block watts are written back into `powers`.
    /// Bit-identical to the three-pass reference (scale loop, leakage
    /// loop, [`step`](BlockModel::step)) as long as the caller's reference
    /// accumulates `total` in block order, because per-block fusion
    /// reorders no floating-point operation.
    ///
    /// # Panics
    ///
    /// Panics if the model does not have exactly `N` blocks.
    pub fn step_fused<const N: usize>(
        &mut self,
        powers: &mut [Watts; N],
        scale: f64,
        total: &mut f64,
        mut extra: impl FnMut(usize, Celsius) -> Watts,
    ) {
        let BlockModel { params, temps, heatsink, decay, .. } = self;
        let temps: &mut [f64; N] = temps.as_mut_slice().try_into().expect("one power per block");
        let decay: &[f64; N] = decay.as_slice().try_into().expect("one decay per block");
        assert_eq!(params.len(), N, "one power per block");
        for i in 0..N {
            let mut p = powers[i] * scale;
            let lp = extra(i, temps[i]);
            p += lp;
            *total += lp;
            powers[i] = p;
            let t_ss = *heatsink + p * params[i].r;
            temps[i] = t_ss + (temps[i] - t_ss) * decay[i];
        }
    }

    /// Advances `cycles` steps under constant per-block powers.
    ///
    /// Bit-identical to calling [`step_fixed`](BlockModel::step_fixed)
    /// `cycles` times with the same `powers` (pinned by property tests):
    /// the steady states `T_ss = T_heatsink + P·R` are hoisted out of the
    /// cycle loop, which is safe because `step_fixed` recomputes them from
    /// the same operand bits every cycle, and the per-cycle recurrence
    /// `T ← T_ss + (T − T_ss)·d` is kept in the one-step arithmetic
    /// order. This is the gap-fold kernel behind idle-window skipping:
    /// power is constant across a provably-idle gap, so the thermal state
    /// advances without any pipeline or power-model work.
    ///
    /// # Panics
    ///
    /// Panics if the model does not have exactly `N` blocks.
    pub fn step_gap_fixed<const N: usize>(&mut self, powers: &[Watts; N], cycles: u64) {
        let BlockModel { params, temps, heatsink, decay, .. } = self;
        let temps: &mut [f64; N] = temps.as_mut_slice().try_into().expect("one power per block");
        let decay: &[f64; N] = decay.as_slice().try_into().expect("one decay per block");
        assert_eq!(params.len(), N, "one power per block");
        let mut t_ss = [0.0f64; N];
        for i in 0..N {
            t_ss[i] = *heatsink + powers[i] * params[i].r;
        }
        for _ in 0..cycles {
            for i in 0..N {
                temps[i] = t_ss[i] + (temps[i] - t_ss[i]) * decay[i];
            }
        }
    }

    /// Like [`step_gap_fixed`](BlockModel::step_gap_fixed), but calls
    /// `observe` with the post-step temperatures after every cycle of the
    /// gap — the counted-gap kernel: a caller folding an idle window
    /// inside a measured region still records every cycle's temperatures
    /// into its accumulators, so reports stay byte-identical with the
    /// cycle-by-cycle loop.
    ///
    /// # Panics
    ///
    /// Panics if the model does not have exactly `N` blocks.
    pub fn step_gap_observed<const N: usize>(
        &mut self,
        powers: &[Watts; N],
        cycles: u64,
        mut observe: impl FnMut(&[Celsius; N]),
    ) {
        let BlockModel { params, temps, heatsink, decay, .. } = self;
        let temps: &mut [f64; N] = temps.as_mut_slice().try_into().expect("one power per block");
        let decay: &[f64; N] = decay.as_slice().try_into().expect("one decay per block");
        assert_eq!(params.len(), N, "one power per block");
        let mut t_ss = [0.0f64; N];
        for i in 0..N {
            t_ss[i] = *heatsink + powers[i] * params[i].r;
        }
        for _ in 0..cycles {
            for i in 0..N {
                temps[i] = t_ss[i] + (temps[i] - t_ss[i]) * decay[i];
            }
            observe(temps);
        }
    }

    /// Current block temperatures as a fixed-arity array reference.
    ///
    /// # Panics
    ///
    /// Panics if the model does not have exactly `N` blocks.
    pub fn temperatures_fixed<const N: usize>(&self) -> &[Celsius; N] {
        self.temps.as_slice().try_into().expect("fixed-arity temperature read")
    }

    /// Advances one step with the paper's forward-Euler difference
    /// equation (Eq. 5). Kept for the integration-fidelity ablation.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` differs from the number of blocks.
    pub fn step_euler(&mut self, powers: &[Watts]) {
        assert_eq!(powers.len(), self.params.len(), "one power per block");
        for ((temp, &power), p) in self.temps.iter_mut().zip(powers).zip(&self.params) {
            *temp += self.dt / p.c * (power - (*temp - self.heatsink) / p.r);
        }
    }

    /// The index and temperature of the hottest block.
    pub fn hottest(&self) -> (usize, Celsius) {
        let mut best = (0, self.temps[0]);
        for (i, &t) in self.temps.iter().enumerate() {
            if t > best.1 {
                best = (i, t);
            }
        }
        best
    }

    /// Steady-state temperature a block would reach under constant power.
    pub fn steady_state(&self, block: usize, power: Watts) -> Celsius {
        self.heatsink + power * self.params[block].r
    }

    /// Whether any block exceeds `threshold`.
    pub fn any_above(&self, threshold: Celsius) -> bool {
        self.temps.iter().any(|&t| t > threshold)
    }
}

/// Builds the paper's Table 3 block set (LSQ, instruction window, register
/// file, branch predictor, D-cache, integer and FP execution units) with
/// parameters derived from the default effective silicon properties.
pub fn table3_blocks() -> Vec<BlockParams> {
    let si = SiliconProperties::effective();
    crate::silicon::TABLE3_AREAS
        .iter()
        .map(|&(name, area)| BlockParams::from_area(name, area, &si))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: f64 = 1.0 / 1.5e9; // one 1.5 GHz cycle

    fn two_block_model() -> BlockModel {
        let si = SiliconProperties::effective();
        BlockModel::new(
            vec![
                BlockParams::from_area("a", 5.0e-6, &si),
                BlockParams::from_area("b", 2.5e-6, &si),
            ],
            100.0,
            DT,
        )
    }

    #[test]
    fn starts_at_heatsink_temperature() {
        let m = two_block_model();
        assert!(m.temperatures().iter().all(|&t| t == 100.0));
    }

    #[test]
    fn converges_to_steady_state() {
        let mut m = two_block_model();
        let powers = [6.0, 3.0];
        // Run ~10 time constants at a coarser step for speed.
        let tau = m.params()[0].time_constant();
        let mut coarse = BlockModel::new(m.params().to_vec(), 100.0, tau / 100.0);
        for _ in 0..1000 {
            coarse.step(&powers);
        }
        for (i, &p) in powers.iter().enumerate() {
            let expect = m.steady_state(i, p);
            assert!(
                (coarse.temperatures()[i] - expect).abs() < 1e-3,
                "block {i}: {} vs {expect}",
                coarse.temperatures()[i]
            );
        }
        m.step(&powers); // the fine-step model at least moves the right way
        assert!(m.temperatures()[0] > 100.0);
    }

    #[test]
    fn exact_and_euler_agree_at_cycle_granularity() {
        let mut exact = two_block_model();
        let mut euler = two_block_model();
        let powers = [7.0, 2.0];
        for _ in 0..10_000 {
            exact.step(&powers);
            euler.step_euler(&powers);
        }
        for i in 0..2 {
            let d = (exact.temperatures()[i] - euler.temperatures()[i]).abs();
            assert!(d < 1e-4, "divergence {d} too large");
        }
    }

    #[test]
    fn exact_step_is_exact_against_closed_form() {
        let si = SiliconProperties::effective();
        let p = BlockParams::from_area("x", 5.0e-6, &si);
        let (r, c) = (p.r, p.c);
        let tau = r * c;
        let big_dt = tau / 3.0; // far too coarse for Euler, fine for exact
        let mut m = BlockModel::new(vec![p], 100.0, big_dt);
        let power = 5.0;
        for k in 1..=30 {
            m.step(&[power]);
            let t = k as f64 * big_dt;
            let expect = 100.0 + power * r * (1.0 - (-t / tau).exp());
            assert!(
                (m.temperatures()[0] - expect).abs() < 1e-9,
                "k={k}: {} vs {expect}",
                m.temperatures()[0]
            );
        }
    }

    #[test]
    fn cooling_decays_toward_heatsink() {
        let mut m = two_block_model();
        m.set_temperature(0, 112.0);
        let tau = m.params()[0].time_constant();
        let mut coarse = BlockModel::new(m.params().to_vec(), 100.0, tau);
        coarse.set_temperature(0, 112.0);
        coarse.step(&[0.0, 0.0]);
        // After one tau, the excess should have decayed by e.
        let excess = coarse.temperatures()[0] - 100.0;
        assert!((excess - 12.0 / std::f64::consts::E).abs() < 1e-9);
    }

    #[test]
    fn hottest_block_reported() {
        let mut m = two_block_model();
        m.set_temperature(1, 108.0);
        assert_eq!(m.hottest(), (1, 108.0));
    }

    #[test]
    fn localized_heating_is_much_faster_than_chip_wide() {
        // Core claim of Section 4: block taus are orders of magnitude
        // below the chip+heatsink tau.
        let blocks = table3_blocks();
        let chip_tau = 0.34 * 180.0; // chip-wide R=0.34 K/W, C≈180 J/K → ~1 min
        for b in &blocks {
            assert!(
                chip_tau / b.time_constant() > 1e4,
                "{}: block tau {} not << chip tau {chip_tau}",
                b.name,
                b.time_constant()
            );
        }
    }

    #[test]
    fn table3_has_seven_blocks() {
        let blocks = table3_blocks();
        assert_eq!(blocks.len(), 7);
        assert!(blocks.iter().any(|b| b.name == "bpred"));
    }

    #[test]
    #[should_panic(expected = "one power per block")]
    fn power_vector_length_checked() {
        let mut m = two_block_model();
        m.step(&[1.0]);
    }

    #[test]
    fn set_dt_recomputes_the_precomputed_decay() {
        // Regression guard for the V/f-scaling path: `step` uses a decay
        // factor precomputed from dt, so a `set_dt` that forgot to refresh
        // it would silently keep integrating at the old cycle time. A
        // model re-timed via `set_dt` must step bit-identically to one
        // constructed at the new dt.
        let powers = [6.0, 3.0];
        let slow_dt = 2.5 * DT; // e.g. frequency scaled down to 0.4x
        let mut retimed = two_block_model();
        for _ in 0..100 {
            retimed.step(&powers);
        }
        let mut fresh = BlockModel::new(retimed.params().to_vec(), 100.0, slow_dt);
        for (i, &t) in retimed.temperatures().to_vec().iter().enumerate() {
            fresh.set_temperature(i, t);
        }
        retimed.set_dt(slow_dt);
        assert_eq!(retimed.dt(), slow_dt);
        for _ in 0..100 {
            retimed.step(&powers);
            fresh.step(&powers);
        }
        assert_eq!(retimed.temperatures(), fresh.temperatures());
        // And the re-timed trajectory actually differs from never
        // re-timing (i.e. the test would catch a stale decay factor).
        let mut stale = two_block_model();
        for _ in 0..200 {
            stale.step(&powers);
        }
        assert!(
            (stale.temperatures()[0] - retimed.temperatures()[0]).abs() > 1e-9,
            "coarser dt must change the trajectory"
        );
    }

    /// A randomized 7-block model with random R/C/temperature state, for
    /// the kernel-equivalence property tests.
    fn random_model(rng: &mut tdtm_prng::Rng) -> BlockModel {
        let params: Vec<BlockParams> = (0..7)
            .map(|i| BlockParams {
                name: format!("b{i}"),
                area: 1e-6,
                r: 0.1 + rng.next_f64() * 30.0,
                c: 1e-8 + rng.next_f64() * 1e-4,
            })
            .collect();
        let heatsink = 20.0 + rng.next_f64() * 90.0;
        // Spread dt so decay ranges from ~1 (cycle steps) to ~0 (coarse).
        let dt = 10f64.powf(rng.next_f64() * 8.0 - 10.0);
        let mut m = BlockModel::new(params, heatsink, dt);
        for i in 0..7 {
            m.set_temperature(i, heatsink - 5.0 + rng.next_f64() * 60.0);
        }
        m
    }

    fn random_powers(rng: &mut tdtm_prng::Rng) -> [f64; 7] {
        std::array::from_fn(|_| rng.next_f64() * 40.0)
    }

    #[test]
    fn property_step_fixed_matches_step_bitwise() {
        let mut rng = tdtm_prng::Rng::new(0x51EF_F00D);
        for _ in 0..200 {
            let mut a = random_model(&mut rng);
            let mut b = a.clone();
            for _ in 0..20 {
                let powers = random_powers(&mut rng);
                a.step(&powers);
                b.step_fixed(&powers);
                assert_eq!(a.temperatures(), b.temperatures());
            }
        }
    }

    #[test]
    fn property_step_scaled_matches_scale_then_step_bitwise() {
        let mut rng = tdtm_prng::Rng::new(0xCAFE_0002);
        for _ in 0..200 {
            let mut a = random_model(&mut rng);
            let mut b = a.clone();
            for _ in 0..20 {
                let powers = random_powers(&mut rng);
                let scale = 0.2 + rng.next_f64() * 1.3;
                // Reference: separate scale pass, then step.
                let mut scaled = powers;
                for p in &mut scaled {
                    *p *= scale;
                }
                a.step(&scaled);
                // Fused pass; also pins the written-back effective watts.
                let mut fused = powers;
                b.step_scaled(&mut fused, scale);
                assert_eq!(a.temperatures(), b.temperatures());
                assert_eq!(scaled, fused);
            }
        }
    }

    #[test]
    fn property_step_fused_matches_three_pass_reference_bitwise() {
        let mut rng = tdtm_prng::Rng::new(0xBEEF_0003);
        for _ in 0..200 {
            let mut a = random_model(&mut rng);
            let mut b = a.clone();
            // A synthetic temperature-dependent "leakage": any per-block
            // function of the pre-step temperature must fuse exactly.
            let coeff: [f64; 7] = std::array::from_fn(|_| rng.next_f64() * 0.05);
            for _ in 0..20 {
                let powers = random_powers(&mut rng);
                let scale = 0.2 + rng.next_f64() * 1.3;
                let base_total = rng.next_f64() * 100.0;

                // Three-pass reference: scale loop, extra loop (reading
                // pre-step temperatures, accumulating total in block
                // order), then step.
                let mut ref_powers = powers;
                for p in &mut ref_powers {
                    *p *= scale;
                }
                let mut ref_total = base_total;
                for i in 0..7 {
                    let lp = coeff[i] * (a.temperatures()[i] - 15.0);
                    ref_powers[i] += lp;
                    ref_total += lp;
                }
                a.step(&ref_powers);

                let mut fused_powers = powers;
                let mut fused_total = base_total;
                b.step_fused(&mut fused_powers, scale, &mut fused_total, |i, t| {
                    coeff[i] * (t - 15.0)
                });
                assert_eq!(a.temperatures(), b.temperatures());
                assert_eq!(ref_powers, fused_powers);
                assert_eq!(ref_total.to_bits(), fused_total.to_bits());
            }
        }
    }

    #[test]
    fn property_step_gap_fixed_matches_iterated_step_fixed_bitwise() {
        let mut rng = tdtm_prng::Rng::new(0x6A9_0004);
        for _ in 0..200 {
            let mut a = random_model(&mut rng);
            let mut b = a.clone();
            let powers = random_powers(&mut rng);
            let cycles = (rng.next_f64() * 60.0) as u64; // includes 0
            for _ in 0..cycles {
                a.step_fixed(&powers);
            }
            b.step_gap_fixed(&powers, cycles);
            assert_eq!(a.temperatures(), b.temperatures(), "k={cycles}");
        }
    }

    #[test]
    fn property_step_gap_observed_matches_iterated_snapshots_bitwise() {
        let mut rng = tdtm_prng::Rng::new(0x6A9_0005);
        for _ in 0..100 {
            let mut a = random_model(&mut rng);
            let mut b = a.clone();
            let powers = random_powers(&mut rng);
            let cycles = 1 + (rng.next_f64() * 40.0) as u64;
            let mut reference = Vec::new();
            for _ in 0..cycles {
                a.step_fixed(&powers);
                reference.push(*a.temperatures_fixed::<7>());
            }
            let mut observed = Vec::new();
            b.step_gap_observed(&powers, cycles, |temps: &[f64; 7]| observed.push(*temps));
            assert_eq!(reference, observed);
            assert_eq!(a.temperatures(), b.temperatures());
        }
    }

    #[test]
    fn temperatures_fixed_views_the_same_state() {
        let mut m = two_block_model();
        m.step(&[5.0, 2.0]);
        let fixed: &[f64; 2] = m.temperatures_fixed();
        assert_eq!(&fixed[..], m.temperatures());
    }

    #[test]
    #[should_panic(expected = "one power per block")]
    fn step_fixed_checks_arity() {
        let mut m = two_block_model();
        m.step_fixed(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn set_heatsink_needs_no_decay_refresh() {
        // The decay factor e^{-dt/RC} does not involve the heatsink
        // temperature, so `set_heatsink` only shifts the steady state: a
        // model whose heatsink moved mid-run must step bit-identically to
        // one constructed at the new heatsink from the same temperatures.
        let powers = [4.0, 7.0];
        let mut moved = two_block_model();
        for _ in 0..50 {
            moved.step(&powers);
        }
        moved.set_heatsink(108.0);
        assert_eq!(moved.heatsink(), 108.0);
        let mut fresh = BlockModel::new(moved.params().to_vec(), 108.0, DT);
        for (i, &t) in moved.temperatures().to_vec().iter().enumerate() {
            fresh.set_temperature(i, t);
        }
        for _ in 0..50 {
            moved.step(&powers);
            fresh.step(&powers);
        }
        assert_eq!(moved.temperatures(), fresh.temperatures());
        assert_eq!(moved.steady_state(0, 4.0), 108.0 + 4.0 * moved.params()[0].r);
    }
}
