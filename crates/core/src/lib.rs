//! # tdtm-core — simulator orchestration, metrics, and experiment drivers
//!
//! Wires the whole stack together, cycle by cycle, exactly as the paper's
//! methodology describes: "first the SimpleScalar pipeline model determines
//! the activity of each structure; then Wattch computes power dissipation
//! for each of them; and finally our thermal model computes temperature
//! based on R, C, and the power dissipation in the past clock cycle" —
//! with the DTM policy sampling the (idealized) sensors every 1000 cycles
//! and driving the fetch-toggling actuator.
//!
//! * [`SimConfig`] / [`Simulator`] — one benchmark run;
//! * [`multicore`] — the N-core chip: [`MulticoreSim`] runs replicated
//!   cores in lockstep over the coupled thermal kernel, with per-core DTM
//!   under an optional chip-level supervisor;
//! * [`metrics`] — the paper's success metrics (% cycles in thermal
//!   emergency, % of non-DTM IPC, per-structure temperatures);
//! * [`experiments`] — drivers that regenerate each of the paper's tables
//!   and result figures (see `DESIGN.md` for the index);
//! * [`engine`] — the parallel experiment engine: [`ExperimentGrid`]
//!   shards (workload × policy × variant) cells across a given number of
//!   scoped threads with deterministic, cell-ordered results;
//! * [`report`] — plain-text table formatting shared by the `tdtm-bench`
//!   binaries.
//!
//! The library reads no environment variables: scale, worker count,
//! result cache and idle-gap skipping are arguments or setters. The
//! `tdtm-bench` binaries read the `TDTM_*` variables once and pass the
//! values in.
//!
//! # Examples
//!
//! ```
//! use tdtm_core::{SimConfig, Simulator};
//! use tdtm_dtm::PolicyKind;
//!
//! let mut config = SimConfig::default();
//! config.max_insts = 30_000;
//! config.thermal_warmup_cycles = 1_000;
//! config.dtm.policy = PolicyKind::Pid;
//! let workload = tdtm_workloads::by_name("gcc").expect("known workload");
//! let mut sim = Simulator::for_workload(config, &workload);
//! let report = sim.run();
//! assert!(report.committed >= 30_000);
//! ```

pub mod cache;
pub mod config;
mod cycle;
pub mod engine;
pub mod experiments;
pub mod metrics;
pub mod multicore;
pub mod replay;
pub mod report;
pub mod simulator;
pub mod telemetry;

pub use cache::{CacheStats, CellArtifact, Fingerprint, ResultCache};
pub use config::{ChipConfig, SimConfig};
pub use engine::{ExperimentGrid, GridResults, RunResult};
pub use metrics::{BlockMetrics, RunReport};
pub use multicore::{ChipReport, ChipTelemetry, MulticoreSim};
pub use simulator::{Simulator, SkipReason, SkipWindow};
