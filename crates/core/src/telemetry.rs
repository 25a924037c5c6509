//! The simulator's telemetry: the schema every run populates, the
//! per-core collector the cycle loop drives, and the collected
//! [`ChipTelemetry`].
//!
//! The collectors themselves live in `tdtm-telemetry`; this module pins
//! down the *schema* the simulator populates — the counter and histogram
//! names every run reports — so the experiment engine can merge snapshots
//! from different cells without guessing at their shape.

use crate::simulator::RunAccum;
use tdtm_control::pid::PidSample;
use tdtm_telemetry::{
    ControllerSample, Event, EventTrace, MetricsRegistry, Phase, PhaseProfile, RegistrySnapshot,
    Telemetry, TelemetryConfig, ThresholdKind,
};
use tdtm_uarch::Core;

/// Counter names the simulator populates, in registration order. Every
/// run registers all of them, so every snapshot shares one schema and
/// single-core and multicore snapshots merge; `supervisor_caps` stays
/// zero without a supervisor, and `core_parks` counts one park per core
/// that reached its stop condition.
pub const SIM_COUNTERS: [&str; 11] = [
    "cycles",
    "thermal_steps",
    "dtm_samples",
    "duty_changes",
    "emergency_entries",
    "stress_entries",
    "sensor_reads",
    "events_recorded",
    "events_dropped",
    "supervisor_caps",
    "core_parks",
];

/// Histogram of the per-cycle hottest block temperature (°C).
pub const HIST_HOTTEST_TEMP: &str = "hottest_temp_c";

/// Histogram of the commanded fetch duty per DTM sample (one bin per
/// actuator level).
pub const HIST_FETCH_DUTY: &str = "fetch_duty";

/// Builds the registry every simulator run populates. All runs share this
/// schema, so their snapshots merge.
pub fn sim_metrics_registry() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    for name in SIM_COUNTERS {
        reg = reg.with_counter(name);
    }
    reg.with_histogram(HIST_HOTTEST_TEMP, 80.0, 120.0, 80)
        .with_histogram(HIST_FETCH_DUTY, 0.0, 1.0, 8)
}

/// The collected telemetry of one run, on either face of the
/// [`Machine`](crate::Machine): one per-core [`Telemetry`] (events tagged
/// with the core id, one metrics registry per core, the pipeline-stage
/// phase timers) plus a chip-level event ring for the hierarchy's own
/// decisions ([`Event::SupervisorCap`], [`Event::Park`]). A single-core
/// run has one entry in `cores`.
#[derive(Debug, Default)]
pub struct ChipTelemetry {
    /// Per-core collections, in core order.
    pub cores: Vec<Telemetry>,
    /// Supervisor cap decisions and park transitions, chip-wide, if the
    /// event trace was enabled.
    pub chip_events: Option<EventTrace>,
}

impl ChipTelemetry {
    /// Merges the per-core metric snapshots in core order (all cores
    /// share the simulator schema, so the merge is well-defined). `None`
    /// when metrics collection was off.
    pub fn merged_metrics(&self) -> Option<RegistrySnapshot> {
        let mut merged: Option<RegistrySnapshot> = None;
        for t in &self.cores {
            let snap = t.metrics.as_ref()?.snapshot();
            match &mut merged {
                None => merged = Some(snap),
                Some(m) => m.merge_from(&snap),
            }
        }
        merged
    }
}

/// In-flight telemetry collection for one core: the collectors plus the
/// cheap local accumulators and edge-detection state the cycle loop
/// updates, flushed into the registry when the run ends. Every event it
/// records is tagged with `core_id`.
#[derive(Default)]
pub(crate) struct TelemetryState {
    events: Option<EventTrace>,
    registry: Option<MetricsRegistry>,
    /// Cached histogram indices for the hot per-cycle/per-sample records.
    temp_idx: usize,
    duty_idx: usize,
    phases: bool,
    /// The core every event is tagged with.
    core_id: usize,
    /// Per-block "currently above" the emergency (0) and stress (1)
    /// thresholds, for entry/exit edges.
    above: [[bool; crate::replay::NUM_THERMAL]; 2],
    /// Plain local counters (flushed to the registry at run end — the run
    /// loop is single-threaded, so per-event atomics would be overhead).
    duty_changes: u64,
    /// Emergency (0) and stress (1) threshold entries.
    entries: [u64; 2],
    sensor_reads: u64,
    thermal_steps: u64,
    /// Supervisor duty caps imposed on this core and its park
    /// transitions (their events go to the chip-level ring).
    pub(crate) supervisor_caps: u64,
    pub(crate) park_transitions: u64,
    /// The core's stage timers and cycle count when collection began.
    stage_nanos_start: [u64; 6],
    core_cycles_start: u64,
}

impl TelemetryState {
    /// A collector for `core`, whose events are tagged with `core_id`.
    pub(crate) fn with_core(cfg: &TelemetryConfig, core_id: usize, core: &Core) -> TelemetryState {
        let registry = cfg.metrics.then(sim_metrics_registry);
        let (temp_idx, duty_idx) = registry.as_ref().map_or((0, 0), |reg| {
            (
                reg.histogram_index(HIST_HOTTEST_TEMP),
                reg.histogram_index(HIST_FETCH_DUTY),
            )
        });
        TelemetryState {
            events: cfg.events.map(|e| EventTrace::new(e.capacity, e.stride)),
            registry,
            temp_idx,
            duty_idx,
            phases: cfg.phases,
            core_id,
            stage_nanos_start: core.stage_nanos(),
            core_cycles_start: core.stats().cycles,
            ..TelemetryState::default()
        }
    }

    /// Per-cycle thermal step count, threshold edge detection, and
    /// hottest-block histogram.
    pub(crate) fn observe_cycle(&mut self, cycle: u64, temps: &[f64], emergency: f64) {
        self.thermal_steps += 1;
        let thresholds = [
            (ThresholdKind::Emergency, emergency),
            (ThresholdKind::Stress, emergency - 1.0),
        ];
        for (block, &t) in temps.iter().enumerate() {
            for (i, (threshold, level)) in thresholds.into_iter().enumerate() {
                let entered = t > level;
                if entered == self.above[i][block] {
                    continue;
                }
                self.above[i][block] = entered;
                self.entries[i] += u64::from(entered);
                if let Some(trace) = &mut self.events {
                    trace.record(Event::ThermalEdge {
                        cycle,
                        core: self.core_id,
                        block,
                        threshold,
                        entered,
                    });
                }
            }
        }
        if let Some(reg) = &self.registry {
            let hottest = temps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            reg.histogram_at(self.temp_idx).record(hottest);
        }
    }

    /// Whether dense per-sample events (sensor reads, controller samples)
    /// are due on the `index`-th DTM sample. `false` when the event ring
    /// is disabled.
    pub(crate) fn sample_due(&self, index: u64) -> bool {
        self.events
            .as_ref()
            .is_some_and(|trace| trace.sample_due(index))
    }

    /// Records one [`Event::SensorRead`] per block (call only when
    /// [`sample_due`](TelemetryState::sample_due)).
    pub(crate) fn record_sensor_reads(&mut self, cycle: u64, sensed: &[f64]) {
        self.sensor_reads += sensed.len() as u64;
        if let Some(trace) = &mut self.events {
            for (block, &reading) in sensed.iter().enumerate() {
                trace.record(Event::SensorRead {
                    cycle,
                    core: self.core_id,
                    block,
                    reading,
                });
            }
        }
    }

    /// Records one controller-internals event (call only when
    /// [`sample_due`](TelemetryState::sample_due)).
    pub(crate) fn record_controller(&mut self, cycle: u64, block: usize, s: &PidSample) {
        if let Some(trace) = &mut self.events {
            trace.record(Event::Controller {
                cycle,
                core: self.core_id,
                sample: ControllerSample {
                    block,
                    error: s.error,
                    p_term: s.p_term,
                    i_term: s.i_term,
                    d_term: s.d_term,
                    integral_pre_clamp: s.integral_pre_clamp,
                    integral: s.integral,
                    output: s.output,
                    saturated: s.saturated,
                },
            });
        }
    }

    /// Records the commanded fetch duty into its histogram (every DTM
    /// sample, not strided).
    pub(crate) fn record_duty_hist(&mut self, duty: f64) {
        if let Some(reg) = &self.registry {
            reg.histogram_at(self.duty_idx).record(duty);
        }
    }

    /// Records an applied duty-level change.
    pub(crate) fn record_duty_change(&mut self, cycle: u64, from: f64, to: f64) {
        self.duty_changes += 1;
        if let Some(trace) = &mut self.events {
            trace.record(Event::DutyChange {
                cycle,
                core: self.core_id,
                from,
                to,
            });
        }
    }

    /// Converts the in-flight state into the final [`Telemetry`]: flushes
    /// the local counters into the registry and assembles the phase
    /// profile from the core's pipeline-stage timers.
    pub(crate) fn flush(self, core: &Core, acc: &RunAccum) -> Telemetry {
        if let Some(reg) = &self.registry {
            reg.counter("cycles").add(acc.cycle);
            reg.counter("thermal_steps").add(self.thermal_steps);
            reg.counter("dtm_samples").add(acc.samples);
            reg.counter("duty_changes").add(self.duty_changes);
            reg.counter("emergency_entries").add(self.entries[0]);
            reg.counter("stress_entries").add(self.entries[1]);
            reg.counter("sensor_reads").add(self.sensor_reads);
            reg.counter("supervisor_caps").add(self.supervisor_caps);
            reg.counter("core_parks").add(self.park_transitions);
            if let Some(trace) = &self.events {
                reg.counter("events_recorded").add(trace.recorded());
                reg.counter("events_dropped").add(trace.dropped());
            }
        }
        let phases = self.phases.then(|| {
            let stage = core.stage_nanos();
            let core_cycles = core.stats().cycles - self.core_cycles_start;
            let mut profile = PhaseProfile::new();
            for (i, phase) in Phase::ALL.into_iter().enumerate() {
                profile.add(phase, stage[i] - self.stage_nanos_start[i], core_cycles);
            }
            profile
        });
        Telemetry {
            events: self.events,
            metrics: self.registry,
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_is_self_consistent() {
        let reg = sim_metrics_registry();
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), SIM_COUNTERS.len());
        assert_eq!(snap.histograms.len(), 2);
        // Two independently built registries merge (same schema).
        let mut a = sim_metrics_registry().snapshot();
        a.merge_from(&snap);
    }
}
