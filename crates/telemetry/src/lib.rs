//! # tdtm-telemetry — in-run observability for the simulator stack
//!
//! The paper's analysis lives in *inside-the-run* signals: controller
//! error and integral terms, duty-cycle transitions, per-block emergency
//! entry and exit. End-of-run aggregates (`RunReport`) cannot answer "why
//! did the controller saturate at cycle 41 000?" — this crate can. It is
//! std-only and has three independent pieces, bundled by [`Telemetry`]:
//!
//! * [`event`] — a bounded ring-buffer [`EventTrace`] of typed [`Event`]s
//!   (controller samples with P/I/D decomposition, duty-level changes,
//!   per-block emergency/stress edges, sensor reads), with JSONL and CSV
//!   export;
//! * [`registry`] — a [`MetricsRegistry`] of atomic [`Counter`]s and
//!   fixed-bin [`Histogram`]s with plain-data [`RegistrySnapshot`]s that
//!   merge deterministically (the experiment engine merges per-cell
//!   snapshots in cell order, so N-thread grids report byte-identical
//!   telemetry to 1-thread grids);
//! * [`phase`] — a [`PhaseProfile`] of host-time timers per pipeline
//!   stage, for attributing wall-clock cost;
//! * [`stream`] — incremental fleet observability: [`CellRecord`]s of
//!   completed experiment-grid cells fed to a [`StreamSink`] (JSONL file
//!   or in-memory) with monotone completion stamps, so a live consumer
//!   sees progress as it happens and an N-thread stream sorts back to the
//!   deterministic 1-thread replay.
//!
//! Everything here *observes* — nothing feeds back into the simulation.
//! Consumers keep instrumentation behind `Option`s so a disabled run pays
//! one branch, and an enabled run produces byte-identical simulation
//! results (only host-side timing differs).
//!
//! # Examples
//!
//! ```
//! use tdtm_telemetry::{Event, EventTrace, ThresholdKind};
//!
//! let mut trace = EventTrace::new(4, 1);
//! trace.record(Event::DutyChange { cycle: 999, core: 0, from: 1.0, to: 0.5 });
//! trace.record(Event::ThermalEdge {
//!     cycle: 1_500,
//!     core: 0,
//!     block: 3,
//!     threshold: ThresholdKind::Stress,
//!     entered: true,
//! });
//! assert_eq!(trace.len(), 2);
//! assert!(trace.to_jsonl().lines().count() == 2);
//! ```

pub mod event;
pub mod phase;
pub mod registry;
pub mod stream;

pub use event::{ControllerSample, Event, EventTrace, ThresholdKind};
pub use phase::{Phase, PhaseProfile};
pub use registry::{Counter, Histogram, HistogramSnapshot, MetricsRegistry, RegistrySnapshot};
pub use stream::{CellRecord, JsonlSink, MemorySink, StampedSink, StreamSink};

/// What to collect during a run. Everything defaults to off; a default
/// config produces a [`Telemetry`] that records nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TelemetryConfig {
    /// Event-trace ring capacity and stride; `None` disables the trace.
    pub events: Option<EventTraceConfig>,
    /// Collect the counter/histogram metrics registry.
    pub metrics: bool,
    /// Collect the pipeline-stage phase timers (host wall-clock
    /// attribution).
    pub phases: bool,
}

impl TelemetryConfig {
    /// Everything on, with the given event-ring capacity and stride.
    pub fn full(capacity: usize, stride: u64) -> TelemetryConfig {
        TelemetryConfig {
            events: Some(EventTraceConfig { capacity, stride }),
            metrics: true,
            phases: true,
        }
    }

    /// Metrics and phases only (no event ring) — the cheap configuration
    /// for grid runs.
    pub fn metrics_and_phases() -> TelemetryConfig {
        TelemetryConfig { events: None, metrics: true, phases: true }
    }
}

/// Geometry of the event-trace ring buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EventTraceConfig {
    /// Maximum retained events; the oldest are dropped past this.
    pub capacity: usize,
    /// Record dense per-sample events (controller samples, sensor reads)
    /// only on every `stride`-th DTM sample. Sparse edge events (duty
    /// changes, threshold crossings) are always recorded.
    pub stride: u64,
}

/// The collected telemetry of one run: whichever of the three collectors
/// the [`TelemetryConfig`] enabled.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// The typed event trace, if enabled.
    pub events: Option<EventTrace>,
    /// The metrics registry, if enabled.
    pub metrics: Option<MetricsRegistry>,
    /// The phase-timer profile, if enabled.
    pub phases: Option<PhaseProfile>,
}
