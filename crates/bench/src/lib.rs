//! # tdtm-bench — benchmark harness and table/figure regeneration
//!
//! One binary per table/figure of the paper (see `DESIGN.md` §3 for the
//! index), plus std-only bench targets on [`microbench`]: ungated micro
//! rows backing the "computationally efficient" claims, and `gates`, the
//! tier-1 performance gates (in-process A/B ratios against fixed bounds):
//!
//! ```text
//! cargo run -p tdtm-bench --release --bin table04_benchmarks
//! TDTM_INSTS=4000000 cargo run -p tdtm-bench --release --bin fig_dtm_performance
//! cargo bench -p tdtm-bench --bench gates
//! ```
//!
//! The binaries are the only code in the workspace that reads the
//! environment. Each calls [`from_env`] once, which parses the five
//! `TDTM_*` variables and hands explicit values to the library:
//!
//! * `TDTM_INSTS` — the per-benchmark instruction budget
//!   ([`Env::scale`], default 1,000,000), for every binary that reads a
//!   scale;
//! * `TDTM_THREADS` — engine workers ([`Env::threads`]), for every binary
//!   that runs an engine grid apart from `obs_report` (`--threads`);
//! * `TDTM_CACHE` and `TDTM_CACHE_DIR` — the result cache
//!   ([`Env::cache`]: `TDTM_CACHE=0` or `off` runs uncached, a
//!   `TDTM_CACHE_DIR` adds the disk tier), for every binary that runs a
//!   cached grid;
//! * `TDTM_SKIP` — idle-gap skipping ([`Env::skip`], `0` or `off` turns
//!   it off), for `trace_run`.

pub mod microbench;

use std::path::PathBuf;
use std::sync::OnceLock;

use tdtm_core::experiments::ExperimentScale;
use tdtm_core::{ExperimentGrid, GridResults, ResultCache};

/// The variable that rescales the per-benchmark instruction budget.
pub const INSTS_VAR: &str = "TDTM_INSTS";

/// What the `TDTM_*` environment variables ask of a run, read once by
/// [`from_env`].
pub struct Env {
    /// `TDTM_INSTS=N`: `N` committed instructions per run after
    /// `min(N / 10, 200000)` warmup cycles; [`ExperimentScale::standard`]
    /// when unset or not a number.
    pub scale: ExperimentScale,
    /// `TDTM_THREADS`: engine workers, when a positive integer; else the
    /// machine's available parallelism.
    pub threads: usize,
    /// `TDTM_SKIP`: idle-gap skipping, on unless `0` or `off`.
    pub skip: bool,
    cache: Cache,
}

/// `TDTM_CACHE` and `TDTM_CACHE_DIR`.
enum Cache {
    Off,
    Memory,
    /// The disk-backed cache is built on first use, so a binary that runs
    /// no cached grid never touches the directory.
    Disk(PathBuf, OnceLock<ResultCache>),
}

/// Reads the five `TDTM_*` environment variables.
pub fn from_env() -> Env {
    parse(|name| std::env::var(name).ok())
}

/// [`from_env`] over an arbitrary variable lookup.
fn parse(lookup: impl Fn(&str) -> Option<String>) -> Env {
    let var = |name: &str| lookup(name).map(|v| v.trim().to_string());
    let off = |name: &str| matches!(var(name).as_deref(), Some("0" | "off"));

    let mut scale = ExperimentScale::standard();
    if let Some(n) = var(INSTS_VAR).and_then(|v| v.parse::<u64>().ok()) {
        scale.insts = n.max(1);
        scale.warmup_cycles = (n / 10).min(200_000);
    }
    let threads = var("TDTM_THREADS")
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let cache = match var("TDTM_CACHE_DIR") {
        _ if off("TDTM_CACHE") => Cache::Off,
        Some(dir) if !dir.is_empty() => Cache::Disk(dir.into(), OnceLock::new()),
        _ => Cache::Memory,
    };
    Env { scale, threads, skip: !off("TDTM_SKIP"), cache }
}

impl Env {
    /// The result cache for this process's grids: `None` under
    /// `TDTM_CACHE=0`, a disk-backed cache under `TDTM_CACHE_DIR`, else
    /// the library's process-wide in-memory cache.
    pub fn cache(&self) -> Option<&ResultCache> {
        match &self.cache {
            Cache::Off => None,
            Cache::Memory => Some(ResultCache::global()),
            Cache::Disk(dir, cache) => Some(cache.get_or_init(|| ResultCache::with_disk(dir))),
        }
    }

    /// Runs `grid` on [`threads`](Env::threads) workers through
    /// [`cache`](Env::cache).
    pub fn run(&self, grid: &ExperimentGrid) -> GridResults {
        grid.run_threads_cached(self.threads, self.cache())
    }
}

/// Prints the standard header used by all regeneration binaries.
pub fn banner(title: &str, scale: ExperimentScale) {
    println!("== {title} ==");
    println!(
        "(per-benchmark budget: {} committed instructions after {}-cycle warmup; set {INSTS_VAR} to rescale)",
        scale.insts, scale.warmup_cycles
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_pairs(pairs: &[(&str, &str)]) -> Env {
        parse(|name| pairs.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string()))
    }

    #[test]
    fn banner_prints() {
        banner("smoke", ExperimentScale::quick());
    }

    #[test]
    fn unset_variables_take_the_defaults() {
        let env = parse_pairs(&[]);
        assert_eq!(env.scale, ExperimentScale::standard());
        assert!(env.threads >= 1);
        assert!(env.skip);
        assert!(std::ptr::eq(env.cache().expect("cache on"), ResultCache::global()));
    }

    #[test]
    fn each_variable_is_parsed() {
        let env = parse_pairs(&[
            ("TDTM_INSTS", " 12345 "),
            ("TDTM_THREADS", "3"),
            ("TDTM_SKIP", "off"),
            ("TDTM_CACHE", "0"),
        ]);
        assert_eq!(env.scale, ExperimentScale { insts: 12345, warmup_cycles: 1234 });
        assert_eq!(env.threads, 3);
        assert!(!env.skip);
        assert!(env.cache().is_none());

        let big = parse_pairs(&[("TDTM_INSTS", "9000000")]).scale;
        assert_eq!(big, ExperimentScale { insts: 9_000_000, warmup_cycles: 200_000 });
        assert_eq!(parse_pairs(&[("TDTM_INSTS", "0")]).scale.insts, 1);
    }

    #[test]
    fn unusable_values_fall_back() {
        let env = parse_pairs(&[
            ("TDTM_INSTS", "lots"),
            ("TDTM_THREADS", "0"),
            ("TDTM_SKIP", "1"),
            ("TDTM_CACHE", "yes"),
            ("TDTM_CACHE_DIR", "  "),
        ]);
        assert_eq!(env.scale, ExperimentScale::standard());
        assert_eq!(env.threads, parse_pairs(&[("TDTM_THREADS", "")]).threads);
        assert!(env.skip);
        assert!(std::ptr::eq(env.cache().expect("cache on"), ResultCache::global()));
    }

    #[test]
    fn a_cache_dir_builds_its_disk_tier_once_on_first_use() {
        let dir = std::env::temp_dir().join(format!("tdtm_bench_env_{}", std::process::id()));
        let env = parse_pairs(&[("TDTM_CACHE_DIR", dir.to_str().expect("utf-8 temp dir"))]);
        assert!(!dir.exists(), "the directory is made on first use, not on parse");
        let cache = env.cache().expect("cache on");
        assert!(cache.has_disk_tier());
        assert!(std::ptr::eq(cache, env.cache().expect("cache on")));
        // TDTM_CACHE=0 wins over a directory.
        let off = parse_pairs(&[("TDTM_CACHE", "off"), ("TDTM_CACHE_DIR", "/nonexistent")]);
        assert!(off.cache().is_none());
        std::fs::remove_dir_all(&dir).expect("remove the test cache dir");
    }
}
