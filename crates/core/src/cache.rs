//! Content-addressed result cache: cross-run memoization for grid cells.
//!
//! Repeat and overlapping grids should be near-free. The cacheable
//! artifacts are exact — [`RunReport`]s are byte-identical across thread
//! counts and idle-gap skipping — so memoization can be *exact*, not
//! approximate: a cache hit replays the identical bytes a fresh
//! simulation would produce.
//!
//! ## Keys are content; invalidation is never
//!
//! A cell's [`Fingerprint`] is a deterministic FNV-1a-128 hash
//! ([`tdtm_prng::Fnv128`]) over a canonical encoding of *everything the
//! simulation result depends on*: the assembled program (encoded
//! instruction words, data segments, name), the workload identity, and
//! the full [`SimConfig`](crate::config::SimConfig) — core, power, DTM,
//! floorplan blocks, heatsink, chip topology, leakage, scale limits.
//! Floats enter the hash canonicalized: every NaN collapses to one key
//! (payloads cannot split keys) while `-0.0` stays distinct from `0.0`
//! (sign cannot alias keys). Because the key *is* the content, entries
//! are immutable and never invalidated — a changed spec is a different
//! key, and a colliding spec is the same simulation.
//!
//! ## Two tiers
//!
//! The in-memory tier is a mutex-guarded map shared across the worker
//! pool under [`shard_map`](crate::engine::shard_map). The optional disk
//! tier ([`ResultCache::with_disk`]) holds one JSON file per fingerprint
//! so caches survive across processes; corrupt, truncated, or
//! schema-drifted files are treated as misses (recompute and overwrite),
//! never a panic, and an unusable directory degrades to memory-only with
//! a single warning.
//!
//! ## In-flight dedup
//!
//! [`ResultCache::claim`] gives exactly one caller the right to compute
//! each fingerprint; concurrent claimers block on a condvar until the
//! owner [`publish`](ResultCache::publish)es (or releases on panic) and
//! then share the artifact.
//!
//! The engine claims every cell of a grid up front, on the calling
//! thread and in fingerprint order, before any cell simulates: each cell
//! is a hit, a follower of an identical cell earlier in the same grid
//! (it never claims; it replays its leader's result once the leader has
//! run), or a claimed miss that a worker simulates and publishes. So
//! identical cells within one grid simulate once, workers never block,
//! and two grids sharing a cache cannot wait on each other in a cycle.
//!
//! The library reads no environment. [`ResultCache::global`] is the
//! in-memory cache of the engine's default entry points; a run with no
//! cache or with a disk tier passes that choice explicitly
//! (`run_threads_cached(threads, None)` simulates every cell and stores
//! nothing). The `tdtm-bench` binaries map `TDTM_CACHE` and
//! `TDTM_CACHE_DIR` onto that argument.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::engine::GridCell;
use crate::metrics::{BlockMetrics, RunReport};
use tdtm_isa::Program;
use tdtm_prng::Fnv128;
use tdtm_telemetry::stream::{json, json_f64, json_str};
use tdtm_telemetry::{CellRecord, TelemetryConfig};

/// A 128-bit content address. Two equal fingerprints name the same
/// simulation; the cache treats them as identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// 32 lowercase hex digits (the on-disk entry name).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Hashes a program by content: name, encoded instruction words (the
/// ISA's canonical byte encoding), and data segments. Two programs that
/// assemble to the same image hash equal regardless of how they were
/// built.
pub fn program_fingerprint(program: &Program) -> u128 {
    let mut h = Fnv128::new();
    h.write(b"tdtm/program/v1\0");
    h.write(program.name.as_bytes());
    h.write(&[0]);
    h.write_u64(program.insts.len() as u64);
    for inst in &program.insts {
        let encoded = tdtm_isa::encoding::encode(inst);
        h.write_u32(encoded.word);
        match encoded.ext {
            Some(ext) => {
                h.write(&[1]);
                h.write_u32(ext);
            }
            None => h.write(&[0]),
        }
    }
    h.write_u64(program.data.len() as u64);
    for seg in &program.data {
        h.write_u64(seg.base);
        h.write_u64(seg.bytes.len() as u64);
        h.write(&seg.bytes);
    }
    h.finish()
}

/// The canonical fingerprint of one grid cell: program content plus the
/// workload identity plus the cell's *resolved* configuration (scale,
/// policy, and variant patch already applied — `SimConfig` + power/core
/// model + floorplan + `ChipConfig`).
///
/// The configuration enters the hash through its `Debug` rendering,
/// which for `f64` is Rust's shortest round-trip formatting: injective
/// on finite values (no two bit patterns share a rendering), `NaN` for
/// every NaN payload, and sign-preserving for `-0.0` — exactly the
/// canonicalized-bits contract. The golden-fingerprint test pins this
/// encoding so accidental drift fails loudly.
pub fn cell_fingerprint(cell: &GridCell) -> Fingerprint {
    cell_fingerprint_with(cell, program_fingerprint(cell.workload.program()))
}

fn cell_fingerprint_with(cell: &GridCell, program_fp: u128) -> Fingerprint {
    let mut h = Fnv128::new();
    h.write(b"tdtm/cell/v1\0");
    h.write_u128(program_fp);
    h.write(cell.workload.name.as_bytes());
    h.write(&[0]);
    let _ = write!(h, "{:?}", cell.workload.category);
    h.write_u64(cell.workload.warmup_insts);
    let cfg = cell.config();
    let _ = write!(h, "{cfg:?}");
    Fingerprint(h.finish())
}

/// Fingerprints for every cell of a grid, with the program hash memoized
/// per shared [`Program`] allocation — an 18 × 5 grid hashes 18
/// programs, not 90.
pub fn cell_fingerprints(cells: &[GridCell]) -> Vec<Fingerprint> {
    let mut by_program: HashMap<*const Program, u128> = HashMap::new();
    cells
        .iter()
        .map(|cell| {
            let program = cell.workload.program_shared();
            let fp = *by_program
                .entry(Arc::as_ptr(&program))
                .or_insert_with(|| program_fingerprint(&program));
            cell_fingerprint_with(cell, fp)
        })
        .collect()
}

/// The fingerprint of a *streamed* cell: the cell key plus the telemetry
/// configuration (streamed records embed a metric snapshot, so the same
/// cell under different telemetry is a different artifact), under its
/// own domain tag so plain-run and streamed artifacts can never alias.
pub fn stream_fingerprint(cell: Fingerprint, cfg: &TelemetryConfig) -> Fingerprint {
    let mut h = Fnv128::new();
    h.write(b"tdtm/stream/v1\0");
    h.write_u128(cell.0);
    let _ = write!(h, "{cfg:?}");
    Fingerprint(h.finish())
}

/// Content key for a power model: the (power config, core config) pair
/// that fully determines [`tdtm_power::PowerModel::new`]'s tables. Used
/// by grid assembly to dedupe model construction in O(1) per cell.
pub fn power_fingerprint(power: &tdtm_power::PowerConfig, core: &tdtm_uarch::CoreConfig) -> u128 {
    let mut h = Fnv128::new();
    h.write(b"tdtm/power/v1\0");
    let _ = write!(h, "{power:?}\0{core:?}");
    h.finish()
}

/// The immutable artifact stored per fingerprint: the deterministic
/// report, plus the normalized [`CellRecord`] for streamed cells
/// (`None` for plain runs — the two use different fingerprint domains).
#[derive(Clone, PartialEq, Debug)]
pub struct CellArtifact {
    /// The deterministic simulation report, byte-identical to what a
    /// fresh run of the same fingerprint would produce.
    pub report: RunReport,
    /// For streamed cells: the emitted record with host-side fields
    /// normalized (`seq` 0, wall/elapsed 0, `cached` unset) so the
    /// stored bytes are a pure function of the fingerprint.
    pub record: Option<CellRecord>,
}

impl CellArtifact {
    /// One JSON object (the on-disk entry format, version 1).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\"v\":1,\"report\":");
        s.push_str(&report_to_json(&self.report));
        s.push_str(",\"record\":");
        match &self.record {
            Some(record) => s.push_str(&record.to_json()),
            None => s.push_str("null"),
        }
        s.push('}');
        s
    }

    /// Parses a version-1 entry. Any malformation — truncation, a wrong
    /// version, a missing or mistyped field — is an `Err`, which the
    /// cache treats as a miss (recompute and overwrite), never a panic.
    pub fn from_json(text: &str) -> Result<CellArtifact, String> {
        let value = json::parse(text)?;
        let obj = value.as_object().ok_or("entry is not an object")?;
        let version = field(obj, "v")?.as_u64().ok_or("v: not a u64")?;
        if version != 1 {
            return Err(format!("unsupported entry version {version}"));
        }
        let report = report_from_value(field(obj, "report")?)?;
        let record = match field(obj, "record")? {
            json::Value::Null => None,
            v => Some(CellRecord::from_value(v)?),
        };
        Ok(CellArtifact { report, record })
    }
}

fn field<'a>(obj: &'a [(String, json::Value)], key: &str) -> Result<&'a json::Value, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {key}"))
}

fn get_u64(obj: &[(String, json::Value)], key: &str) -> Result<u64, String> {
    field(obj, key)?.as_u64().ok_or_else(|| format!("{key}: not a u64"))
}

fn get_f64(obj: &[(String, json::Value)], key: &str) -> Result<f64, String> {
    field(obj, key)?.as_f64().ok_or_else(|| format!("{key}: not a number"))
}

fn get_str(obj: &[(String, json::Value)], key: &str) -> Result<String, String> {
    Ok(field(obj, key)?.as_str().ok_or_else(|| format!("{key}: not a string"))?.to_string())
}

/// Serializes a [`RunReport`] losslessly: floats use shortest
/// round-trip rendering (finite values come back bit-exact; non-finite
/// become `null` and read back as NaN, the stream-format convention).
pub fn report_to_json(r: &RunReport) -> String {
    let mut s = String::with_capacity(512);
    let _ = write!(
        s,
        "{{\"name\":{},\"policy\":{},\"cycles\":{},\"total_cycles\":{},\"committed\":{},\
         \"wall_time\":{},\"ipc\":{},\"avg_power\":{},\"max_power\":{},\"avg_chip_temp\":{},\
         \"emergency_cycles\":{},\"stress_cycles\":{},\"samples\":{},\"engaged_samples\":{},\
         \"recoveries\":{},\"bpred_accuracy\":{},\"gated_cycles\":{},\"blocks\":[",
        json_str(&r.name),
        json_str(&r.policy),
        r.cycles,
        r.total_cycles,
        r.committed,
        json_f64(r.wall_time),
        json_f64(r.ipc),
        json_f64(r.avg_power),
        json_f64(r.max_power),
        json_f64(r.avg_chip_temp),
        r.emergency_cycles,
        r.stress_cycles,
        r.samples,
        r.engaged_samples,
        r.recoveries,
        json_f64(r.bpred_accuracy),
        r.gated_cycles,
    );
    for (i, b) in r.blocks.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":{},\"avg_temp\":{},\"max_temp\":{},\"emergency_cycles\":{},\
             \"stress_cycles\":{},\"avg_power\":{},\"max_power\":{}}}",
            json_str(&b.name),
            json_f64(b.avg_temp),
            json_f64(b.max_temp),
            b.emergency_cycles,
            b.stress_cycles,
            json_f64(b.avg_power),
            json_f64(b.max_power),
        );
    }
    s.push_str("]}");
    s
}

/// Parses a [`RunReport`] written by [`report_to_json`]. Every known
/// field is required (schema drift must read as a miss, not as a report
/// with silently defaulted values); unknown fields are ignored.
pub fn report_from_value(value: &json::Value) -> Result<RunReport, String> {
    let obj = value.as_object().ok_or("report is not an object")?;
    let blocks = field(obj, "blocks")?
        .as_array()
        .ok_or("blocks: not an array")?
        .iter()
        .map(block_from_value)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RunReport {
        name: get_str(obj, "name")?,
        policy: get_str(obj, "policy")?,
        cycles: get_u64(obj, "cycles")?,
        total_cycles: get_u64(obj, "total_cycles")?,
        committed: get_u64(obj, "committed")?,
        wall_time: get_f64(obj, "wall_time")?,
        ipc: get_f64(obj, "ipc")?,
        avg_power: get_f64(obj, "avg_power")?,
        max_power: get_f64(obj, "max_power")?,
        avg_chip_temp: get_f64(obj, "avg_chip_temp")?,
        emergency_cycles: get_u64(obj, "emergency_cycles")?,
        stress_cycles: get_u64(obj, "stress_cycles")?,
        blocks,
        samples: get_u64(obj, "samples")?,
        engaged_samples: get_u64(obj, "engaged_samples")?,
        recoveries: get_u64(obj, "recoveries")?,
        bpred_accuracy: get_f64(obj, "bpred_accuracy")?,
        gated_cycles: get_u64(obj, "gated_cycles")?,
    })
}

fn block_from_value(value: &json::Value) -> Result<BlockMetrics, String> {
    let obj = value.as_object().ok_or("block is not an object")?;
    Ok(BlockMetrics {
        name: get_str(obj, "name")?,
        avg_temp: get_f64(obj, "avg_temp")?,
        max_temp: get_f64(obj, "max_temp")?,
        emergency_cycles: get_u64(obj, "emergency_cycles")?,
        stress_cycles: get_u64(obj, "stress_cycles")?,
        avg_power: get_f64(obj, "avg_power")?,
        max_power: get_f64(obj, "max_power")?,
    })
}

/// Per-grid cache tallies, surfaced on
/// [`GridResults`](crate::engine::GridResults). `hits + misses` equals
/// the cell count; `inflight_waits` counts the hits that were deduped
/// against a computation still in flight (within the grid or in another
/// worker/process sharing the cache).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Cells served from the cache (memory, disk, or an in-flight
    /// leader) without simulating.
    pub cache_hits: u64,
    /// Cells that simulated and published their artifact.
    pub cache_misses: u64,
    /// Of the hits, how many waited on (or were deduped against) an
    /// identical computation in flight.
    pub cache_inflight_waits: u64,
}

impl CacheStats {
    /// Hit fraction in [0, 1], or `None` for an empty grid.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / total as f64)
        }
    }
}

struct CacheState {
    mem: HashMap<u128, Arc<CellArtifact>>,
    inflight: HashSet<u128>,
}

/// The two-tier content-addressed cache. See the module docs for the
/// key/tier/dedup contract.
pub struct ResultCache {
    state: Mutex<CacheState>,
    ready: Condvar,
    disk: Option<PathBuf>,
    disk_failed: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    inflight_waits: AtomicU64,
}

/// The outcome of [`ResultCache::claim`].
pub enum Claim<'a> {
    /// The artifact was already available (memory tier, disk tier, or a
    /// concurrent computation that finished while we waited).
    Hit {
        /// The cached artifact.
        artifact: Arc<CellArtifact>,
        /// Whether this claim blocked on an in-flight computation.
        waited: bool,
    },
    /// This caller owns computing the fingerprint: run the simulation
    /// and [`complete`](ClaimGuard::complete) the guard. Dropping the
    /// guard without completing (e.g. on panic) releases the claim so
    /// waiters can re-claim and compute themselves.
    Miss(ClaimGuard<'a>),
}

/// Ownership of an in-flight computation; see [`Claim::Miss`].
pub struct ClaimGuard<'a> {
    cache: &'a ResultCache,
    fp: Fingerprint,
}

impl ClaimGuard<'_> {
    /// The claimed fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fp
    }

    /// Publishes the computed artifact and wakes all waiters.
    pub fn complete(self, artifact: CellArtifact) -> Arc<CellArtifact> {
        self.cache.publish(self.fp, artifact)
        // The Drop impl then finds the fingerprint already cleared from
        // the in-flight set and does nothing.
    }
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.cache.state.lock().expect("result cache lock poisoned");
        if st.inflight.remove(&self.fp.0) {
            self.cache.ready.notify_all();
        }
    }
}

impl ResultCache {
    /// A memory-only cache (entries live as long as the value).
    pub fn in_memory() -> ResultCache {
        ResultCache {
            state: Mutex::new(CacheState { mem: HashMap::new(), inflight: HashSet::new() }),
            ready: Condvar::new(),
            disk: None,
            disk_failed: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inflight_waits: AtomicU64::new(0),
        }
    }

    /// A cache backed by `dir` (created if missing). If the directory
    /// cannot be created or written, prints one warning and degrades to
    /// memory-only — an unusable cache dir must never fail a run.
    pub fn with_disk(dir: impl Into<PathBuf>) -> ResultCache {
        let dir = dir.into();
        let probe = (|| -> std::io::Result<()> {
            std::fs::create_dir_all(&dir)?;
            let p = dir.join(format!(".probe.{}", std::process::id()));
            std::fs::write(&p, b"ok")?;
            std::fs::remove_file(&p)
        })();
        match probe {
            Ok(()) => {
                let mut cache = ResultCache::in_memory();
                cache.disk = Some(dir);
                cache
            }
            Err(e) => {
                eprintln!(
                    "result cache: cache dir {} is unusable ({e}); continuing in-memory only",
                    dir.display()
                );
                ResultCache::in_memory()
            }
        }
    }

    /// The process-wide in-memory cache behind
    /// [`run_threads`](crate::engine::ExperimentGrid::run_threads) and
    /// [`run_streaming`](crate::engine::ExperimentGrid::run_streaming).
    /// Always on; a caller that wants no cache, or a disk tier, passes
    /// its own choice to the `*_cached` entry points instead.
    pub fn global() -> &'static ResultCache {
        static GLOBAL: OnceLock<ResultCache> = OnceLock::new();
        GLOBAL.get_or_init(ResultCache::in_memory)
    }

    /// Whether the disk tier is active.
    pub fn has_disk_tier(&self) -> bool {
        self.disk.is_some() && !self.disk_failed.load(Ordering::Relaxed)
    }

    /// Entries in the memory tier.
    pub fn len(&self) -> usize {
        self.state.lock().expect("result cache lock poisoned").mem.len()
    }

    /// Whether the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative claim tallies since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            cache_inflight_waits: self.inflight_waits.load(Ordering::Relaxed),
        }
    }

    /// Resolves a fingerprint to either a cached artifact or ownership
    /// of the computation. Blocks while an identical computation is in
    /// flight (in-flight dedup: identical cells simulate once).
    pub fn claim(&self, fp: Fingerprint) -> Claim<'_> {
        let mut st = self.state.lock().expect("result cache lock poisoned");
        let mut waited = false;
        loop {
            if let Some(artifact) = st.mem.get(&fp.0) {
                let artifact = Arc::clone(artifact);
                drop(st);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Claim::Hit { artifact, waited };
            }
            if !st.inflight.contains(&fp.0) {
                if let Some(artifact) = self.disk_lookup(fp) {
                    st.mem.insert(fp.0, Arc::clone(&artifact));
                    drop(st);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Claim::Hit { artifact, waited };
                }
                st.inflight.insert(fp.0);
                drop(st);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Claim::Miss(ClaimGuard { cache: self, fp });
            }
            if !waited {
                waited = true;
                self.inflight_waits.fetch_add(1, Ordering::Relaxed);
            }
            st = self.ready.wait(st).expect("result cache lock poisoned");
        }
    }

    /// Stores an artifact under `fp` (memory, and disk when active),
    /// clears any in-flight claim for it, and wakes all waiters.
    /// Idempotent: re-publishing a fingerprint overwrites with identical
    /// content (keys are content).
    pub fn publish(&self, fp: Fingerprint, artifact: CellArtifact) -> Arc<CellArtifact> {
        let artifact = Arc::new(artifact);
        self.disk_store(fp, &artifact);
        let mut st = self.state.lock().expect("result cache lock poisoned");
        st.mem.insert(fp.0, Arc::clone(&artifact));
        st.inflight.remove(&fp.0);
        drop(st);
        self.ready.notify_all();
        artifact
    }

    fn entry_path(&self, fp: Fingerprint) -> Option<PathBuf> {
        Some(self.disk.as_ref()?.join(format!("{}.json", fp.hex())))
    }

    fn disk_lookup(&self, fp: Fingerprint) -> Option<Arc<CellArtifact>> {
        let text = std::fs::read_to_string(self.entry_path(fp)?).ok()?;
        CellArtifact::from_json(&text).ok().map(Arc::new)
    }

    fn disk_store(&self, fp: Fingerprint, artifact: &CellArtifact) {
        let Some(path) = self.entry_path(fp) else { return };
        if self.disk_failed.load(Ordering::Relaxed) {
            return;
        }
        // Write-then-rename so a concurrent reader (another process on
        // the same cache directory) never sees a truncated entry.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let result = std::fs::write(&tmp, artifact.to_json())
            .and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = result {
            let _ = std::fs::remove_file(&tmp);
            if !self.disk_failed.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "result cache: disk tier write failed ({e}); continuing in-memory only"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExperimentGrid;
    use crate::experiments::ExperimentScale;
    use tdtm_dtm::PolicyKind;
    use tdtm_workloads::by_name;

    fn quick_cells(variant: Option<(&'static str, crate::engine::ConfigPatch)>) -> Vec<GridCell> {
        let mut grid = ExperimentGrid::new(ExperimentScale::quick())
            .workload(by_name("gcc").expect("suite workload"))
            .policies(&[PolicyKind::None, PolicyKind::Pid]);
        if let Some((name, patch)) = variant {
            grid = grid.variant(name, patch);
        }
        grid.cells()
    }

    fn sample_report() -> RunReport {
        RunReport {
            name: "gcc".into(),
            policy: "PID".into(),
            cycles: 120_000,
            total_cycles: 147_692,
            committed: 97_531,
            wall_time: 8.2e-5,
            ipc: 0.8127441,
            avg_power: 42.125,
            max_power: 83.0625,
            avg_chip_temp: 41.3225,
            emergency_cycles: 40,
            stress_cycles: 380,
            blocks: vec![
                BlockMetrics {
                    name: "IntReg".into(),
                    avg_temp: 104.03125,
                    max_temp: 112.625,
                    emergency_cycles: 40,
                    stress_cycles: 380,
                    avg_power: 3.1875,
                    max_power: 5.625,
                },
                BlockMetrics {
                    name: "Bpred".into(),
                    avg_temp: 99.5,
                    max_temp: 101.75,
                    emergency_cycles: 0,
                    stress_cycles: 12,
                    avg_power: 2.0,
                    max_power: 3.25,
                },
            ],
            samples: 147,
            engaged_samples: 31,
            recoveries: 1204,
            bpred_accuracy: 0.94330357,
            gated_cycles: 7936,
        }
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tdtm_cache_{}_{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn equal_specs_hash_equal_across_builds_and_threads() {
        let a = cell_fingerprints(&quick_cells(None));
        let b = cell_fingerprints(&quick_cells(None));
        assert_eq!(a, b, "re-enumerated grid must fingerprint identically");
        let cells = quick_cells(None);
        let from_threads: Vec<Vec<Fingerprint>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| scope.spawn(|| cell_fingerprints(&cells)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("fingerprint thread"))
                .collect()
        });
        for fps in from_threads {
            assert_eq!(fps, a, "fingerprints must not depend on the hashing thread");
        }
        // Single-cell and batch enumeration agree.
        for (cell, fp) in cells.iter().zip(&a) {
            assert_eq!(cell_fingerprint(cell), *fp);
        }
    }

    #[test]
    fn any_field_perturbation_changes_the_key() {
        let base = cell_fingerprints(&quick_cells(None));
        let perturbations: Vec<(&str, crate::engine::ConfigPatch)> = vec![
            ("heatsink", |cfg| cfg.heatsink_temp += 0.5),
            ("insts", |cfg| cfg.max_insts += 1),
            ("warmup", |cfg| cfg.thermal_warmup_cycles += 1),
            ("cores", |cfg| cfg.chip.cores = 2),
            ("coupling", |cfg| cfg.chip.coupling += 1e-9),
            ("dtm", |cfg| cfg.dtm.emergency += 0.25),
        ];
        let mut seen: Vec<Fingerprint> = base.clone();
        for (name, patch) in perturbations {
            let fps = cell_fingerprints(&quick_cells(Some((name, patch))));
            for fp in &fps {
                assert!(!seen.contains(fp), "perturbation {name} did not change the key");
            }
            seen.extend(fps);
        }
        // Different policies and workloads already separate within a grid.
        assert_ne!(base[0], base[1], "policy must separate keys");
    }

    #[test]
    fn nan_cannot_split_and_negative_zero_cannot_alias() {
        // Two differently-written NaN sensor ranges are the same
        // specification...
        let nan_a = cell_fingerprints(&quick_cells(Some(("nan", |cfg| {
            cfg.dtm.sensor_range = f64::NAN;
        }))));
        let nan_b = cell_fingerprints(&quick_cells(Some(("nan", |cfg| {
            cfg.dtm.sensor_range = f64::from_bits(0x7ff8_0000_0000_beef);
        }))));
        assert_eq!(nan_a, nan_b, "NaN payloads must not split keys");
        // ...but NaN is not 0.0, and a -0.0 coupling is not 0.0.
        let zero = cell_fingerprints(&quick_cells(Some(("z", |cfg| {
            cfg.dtm.sensor_range = 0.0;
        }))));
        assert_ne!(nan_a, zero, "NaN vs 0.0 must separate");
        let cpl_zero = cell_fingerprints(&quick_cells(Some(("cz", |cfg| {
            cfg.chip.coupling = 0.0;
        }))));
        let cpl_neg = cell_fingerprints(&quick_cells(Some(("cnz", |cfg| {
            cfg.chip.coupling = -0.0;
        }))));
        assert_ne!(cpl_zero, cpl_neg, "-0.0 coupling must not alias 0.0");
    }

    #[test]
    fn golden_fingerprint_pins_the_canonical_encoding() {
        // gcc/none/base at quick scale. If this changes, the canonical
        // encoding changed and every existing on-disk cache silently
        // invalidates — bump the domain-tag version string deliberately
        // instead of letting it drift.
        let cells = quick_cells(None);
        assert_eq!(cells[0].label(), "gcc/none");
        assert_eq!(
            cell_fingerprint(&cells[0]).hex(),
            "5d37ca4024ddb46c03609ffa790e869b",
        );
    }

    #[test]
    fn artifact_json_roundtrip_is_byte_identical() {
        let artifact = CellArtifact { report: sample_report(), record: None };
        let parsed = CellArtifact::from_json(&artifact.to_json()).expect("round trip");
        assert_eq!(parsed, artifact);
        assert_eq!(
            format!("{parsed:?}"),
            format!("{artifact:?}"),
            "debug repr (bit-level floats) must survive the disk tier"
        );
        // And with a stream record attached.
        let mut record = CellRecord { index: 3, label: "gcc/PID".into(), ..CellRecord::default() };
        record.ipc = 0.8127441;
        let artifact = CellArtifact { report: sample_report(), record: Some(record) };
        let parsed = CellArtifact::from_json(&artifact.to_json()).expect("round trip");
        assert_eq!(parsed, artifact);
    }

    #[test]
    fn non_finite_report_fields_survive_as_nan() {
        let mut report = sample_report();
        report.ipc = f64::NAN;
        let artifact = CellArtifact { report, record: None };
        let parsed = CellArtifact::from_json(&artifact.to_json()).expect("round trip");
        assert!(parsed.report.ipc.is_nan());
    }

    #[test]
    fn claim_publish_and_memory_hits() {
        let cache = ResultCache::in_memory();
        let fp = Fingerprint(42);
        let artifact = CellArtifact { report: sample_report(), record: None };
        match cache.claim(fp) {
            Claim::Miss(guard) => {
                assert_eq!(guard.fingerprint(), fp);
                guard.complete(artifact.clone());
            }
            Claim::Hit { .. } => panic!("empty cache cannot hit"),
        }
        match cache.claim(fp) {
            Claim::Hit { artifact: got, waited } => {
                assert_eq!(*got, artifact);
                assert!(!waited);
            }
            Claim::Miss(_) => panic!("published fingerprint must hit"),
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.cache_hits, stats.cache_misses, stats.cache_inflight_waits),
            (1, 1, 0)
        );
        assert!((stats.hit_rate().expect("nonempty") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dropped_claim_releases_so_waiters_recompute() {
        let cache = ResultCache::in_memory();
        let fp = Fingerprint(7);
        let Claim::Miss(guard) = cache.claim(fp) else { panic!("first claim misses") };
        drop(guard); // abandoned (e.g. worker panic)
        match cache.claim(fp) {
            Claim::Miss(guard) => guard.complete(CellArtifact {
                report: sample_report(),
                record: None,
            }),
            Claim::Hit { .. } => panic!("abandoned claim must not look cached"),
        };
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn inflight_dedup_blocks_then_shares() {
        let cache = ResultCache::in_memory();
        let fp = Fingerprint(99);
        let Claim::Miss(guard) = cache.claim(fp) else { panic!("first claim misses") };
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| match cache.claim(fp) {
                Claim::Hit { artifact, waited } => {
                    assert!(waited, "second claim must observe the in-flight computation");
                    artifact.report.committed
                }
                Claim::Miss(_) => panic!("in-flight fingerprint must not be re-claimed"),
            });
            // Give the waiter time to block, then publish.
            std::thread::sleep(std::time::Duration::from_millis(20));
            guard.complete(CellArtifact { report: sample_report(), record: None });
            assert_eq!(waiter.join().expect("waiter"), sample_report().committed);
        });
        let stats = cache.stats();
        assert_eq!(stats.cache_inflight_waits, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn disk_tier_survives_across_cache_instances() {
        let dir = test_dir("roundtrip");
        let fp = Fingerprint(0xabcdef);
        let artifact = CellArtifact { report: sample_report(), record: None };
        {
            let cache = ResultCache::with_disk(&dir);
            assert!(cache.has_disk_tier());
            cache.publish(fp, artifact.clone());
        }
        // A fresh instance (fresh process, conceptually) hits from disk.
        let cache = ResultCache::with_disk(&dir);
        assert!(cache.is_empty(), "memory tier starts cold");
        match cache.claim(fp) {
            Claim::Hit { artifact: got, .. } => assert_eq!(*got, artifact),
            Claim::Miss(_) => panic!("disk entry must hit"),
        }
        assert_eq!(cache.len(), 1, "disk hits promote to memory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_truncated_empty_and_drifted_entries_are_misses() {
        let dir = test_dir("corrupt");
        std::fs::create_dir_all(&dir).expect("test dir");
        let fp = Fingerprint(0x1234);
        let good = CellArtifact { report: sample_report(), record: None };
        let entry = dir.join(format!("{}.json", fp.hex()));
        let valid = good.to_json();
        let drifted = valid.replace("\"committed\"", "\"renamed_committed\"");
        assert_ne!(drifted, valid);
        let cases: Vec<(&str, String)> = vec![
            ("binary garbage", "\u{1}\u{2}not json at all".to_string()),
            ("truncated", valid[..valid.len() / 2].to_string()),
            ("empty", String::new()),
            ("wrong version", valid.replace("{\"v\":1,", "{\"v\":99,")),
            ("schema drift", drifted),
            ("wrong shape", "[1,2,3]".to_string()),
        ];
        for (name, contents) in cases {
            std::fs::write(&entry, &contents).expect("write corrupt entry");
            let cache = ResultCache::with_disk(&dir);
            match cache.claim(fp) {
                Claim::Miss(guard) => {
                    // Recompute-and-overwrite: publishing repairs the entry.
                    guard.complete(good.clone());
                }
                Claim::Hit { .. } => panic!("{name}: corrupt entry served as a hit"),
            }
            let repaired = std::fs::read_to_string(&entry).expect("entry rewritten");
            assert_eq!(repaired, valid, "{name}: entry not overwritten with valid bytes");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_cache_dir_degrades_to_memory_only() {
        let blocker = std::env::temp_dir().join(format!("tdtm_cache_file_{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").expect("blocker file");
        // A path *under a file* cannot be created, even running as root.
        let cache = ResultCache::with_disk(blocker.join("sub"));
        assert!(!cache.has_disk_tier(), "must degrade to memory-only");
        let fp = Fingerprint(5);
        let Claim::Miss(guard) = cache.claim(fp) else { panic!("cold claim misses") };
        guard.complete(CellArtifact { report: sample_report(), record: None });
        assert!(matches!(cache.claim(fp), Claim::Hit { .. }), "memory tier still works");
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn stream_fingerprint_is_domain_separated_and_config_sensitive() {
        let cell = cell_fingerprint(&quick_cells(None)[0]);
        let metrics = stream_fingerprint(cell, &TelemetryConfig::metrics_and_phases());
        assert_ne!(metrics.0, cell.0, "stream artifacts must not alias plain-run artifacts");
        let full = stream_fingerprint(cell, &TelemetryConfig::full(4096, 1));
        assert_ne!(metrics, full, "telemetry config is part of the stream key");
        assert_eq!(metrics, stream_fingerprint(cell, &TelemetryConfig::metrics_and_phases()));
    }

    #[test]
    fn power_fingerprint_separates_configs() {
        let cfg = crate::config::SimConfig::quick_test();
        let base = power_fingerprint(&cfg.power, &cfg.core);
        assert_eq!(base, power_fingerprint(&cfg.power, &cfg.core));
        let mut hot = cfg.power;
        hot.idle_fraction += 0.01;
        assert_ne!(base, power_fingerprint(&hot, &cfg.core));
    }
}
