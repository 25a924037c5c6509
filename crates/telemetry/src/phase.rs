//! Phase timers: where does the pipeline's host wall-clock time go?
//!
//! A [`PhaseProfile`] accumulates nanoseconds and call counts per
//! [`Phase`], one per pipeline stage; the pipeline times its stages
//! itself and the profile receives the totals via [`PhaseProfile::add`].
//! Phase timings are host-side observations only — they never feed back
//! into the simulation, and they are intentionally excluded from
//! determinism comparisons.

/// The instrumented phases of a run: the six pipeline stages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Phase {
    /// Pipeline commit stage.
    Commit,
    /// Pipeline writeback stage.
    Writeback,
    /// Pipeline issue stage.
    Issue,
    /// Pipeline dispatch stage.
    Dispatch,
    /// Pipeline decode stage.
    Decode,
    /// Pipeline fetch stage.
    Fetch,
}

impl Phase {
    /// All phases, in display order.
    pub const ALL: [Phase; 6] = [
        Phase::Commit,
        Phase::Writeback,
        Phase::Issue,
        Phase::Dispatch,
        Phase::Decode,
        Phase::Fetch,
    ];

    /// Human-readable name.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Commit => "commit",
            Phase::Writeback => "writeback",
            Phase::Issue => "issue",
            Phase::Dispatch => "dispatch",
            Phase::Decode => "decode",
            Phase::Fetch => "fetch",
        }
    }
}

/// Accumulated host time and call counts per [`Phase`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PhaseProfile {
    nanos: [u64; 6],
    calls: [u64; 6],
}

impl PhaseProfile {
    /// An empty profile.
    pub fn new() -> PhaseProfile {
        PhaseProfile::default()
    }

    /// Deposits pre-measured time: `nanos` spent across `calls`
    /// invocations of `phase`.
    pub fn add(&mut self, phase: Phase, nanos: u64, calls: u64) {
        self.nanos[phase as usize] += nanos;
        self.calls[phase as usize] += calls;
    }

    /// Total nanoseconds recorded for `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase as usize]
    }

    /// Invocations recorded for `phase`.
    pub fn calls(&self, phase: Phase) -> u64 {
        self.calls[phase as usize]
    }

    /// Sum of all phase nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Renders a fixed-width table of the non-empty phases:
    /// label, total ms, calls, and mean ns/call.
    pub fn render_table(&self) -> String {
        let mut out = String::from("phase         total_ms      calls     ns/call\n");
        for phase in Phase::ALL {
            let (n, c) = (self.nanos(phase), self.calls(phase));
            if c == 0 && n == 0 {
                continue;
            }
            let per = if c > 0 { n as f64 / c as f64 } else { 0.0 };
            out.push_str(&format!(
                "{:<12} {:>10.3} {:>10} {:>11.1}\n",
                phase.label(),
                n as f64 / 1e6,
                c,
                per
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_deposits_batched_time() {
        let mut p = PhaseProfile::new();
        p.add(Phase::Fetch, 1_000, 10);
        p.add(Phase::Fetch, 500, 5);
        assert_eq!(p.nanos(Phase::Fetch), 1_500);
        assert_eq!(p.calls(Phase::Fetch), 15);
        assert_eq!(p.total_nanos(), 1_500);
    }

    #[test]
    fn render_table_skips_empty_phases() {
        let mut p = PhaseProfile::new();
        p.add(Phase::Issue, 2_000_000, 1_000);
        let table = p.render_table();
        assert!(table.contains("issue"));
        assert!(!table.contains("fetch"));
        assert!(table.lines().count() == 2);
    }
}
