//! Output checks: every op's report is hashed (FNV-1a over its `Debug`
//! rendering, which prints every float in shortest round-trip form, so
//! any bit of drift changes the digest) and compared with the committed
//! digest for that cell.
//!
//! The tables under `golden/` cover the whole cell space of each
//! workload, so every seed — seeds 1 and 2 included — is checked op by
//! op. `benchmark golden --out <dir>` regenerates them; that is the one
//! step a change which alters simulation output on purpose must take.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::measure::FLEET_THREADS;
use crate::ops::{cell_space, fleet_grid, Kind, Scale};
use tdtm_core::{MulticoreSim, Simulator};
use tdtm_workloads::Workload;

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub fn digest<T: std::fmt::Debug>(value: &T) -> u64 {
    fnv1a64(format!("{value:?}").as_bytes())
}

fn committed(kind: Kind) -> &'static str {
    match kind {
        Kind::SuiteBusy => include_str!("golden/suite_busy.txt"),
        Kind::ThrottledHot => include_str!("golden/throttled_hot.txt"),
        Kind::Chip4Coupled => include_str!("golden/chip4_coupled.txt"),
        Kind::GridFleet => include_str!("golden/grid_fleet.txt"),
    }
}

/// A cell-key → digest table.
pub struct Golden {
    table: Option<HashMap<String, u64>>,
}

impl Golden {
    /// The committed table of `kind`, or a table that checks nothing when
    /// the scale has no goldens.
    pub fn load(kind: Kind, scale: &Scale) -> Golden {
        Golden {
            table: scale.golden.then(|| parse(committed(kind))),
        }
    }

    /// A table that checks nothing.
    pub fn none() -> Golden {
        Golden { table: None }
    }

    #[cfg(test)]
    pub fn from_pairs(pairs: &[(&str, u64)]) -> Golden {
        Golden {
            table: Some(pairs.iter().map(|&(k, d)| (k.to_string(), d)).collect()),
        }
    }

    #[cfg(test)]
    pub fn contains(&self, key: &str) -> bool {
        self.table.as_ref().is_some_and(|t| t.contains_key(key))
    }

    pub fn check(&self, key: &str, digest: u64) -> Result<(), String> {
        let Some(table) = &self.table else {
            return Ok(());
        };
        match table.get(key) {
            Some(&want) if want == digest => Ok(()),
            Some(&want) => Err(format!("{key}: digest {digest:016x}, golden {want:016x}")),
            None => Err(format!("{key}: no golden digest")),
        }
    }
}

fn parse(text: &str) -> HashMap<String, u64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let (key, hex) = line.rsplit_once(' ').expect("golden line is `key digest`");
            let digest = u64::from_str_radix(hex, 16).expect("golden digest is 16 hex digits");
            (key.to_string(), digest)
        })
        .collect()
}

/// Runs every cell of every workload at full scale and writes the four
/// tables into `dir`.
pub fn regenerate(dir: &Path, suite: &[Workload]) -> std::io::Result<()> {
    let scale = Scale::FULL;
    std::fs::create_dir_all(dir)?;
    for kind in Kind::ALL {
        let mut rows: Vec<(String, u64)> = if kind == Kind::GridFleet {
            let results = fleet_grid(suite, &scale).run_threads(FLEET_THREADS);
            results
                .runs
                .iter()
                .map(|r| (r.label(), digest(&r.report)))
                .collect()
        } else {
            let cells = cell_space(kind, suite, &scale);
            let digests = tdtm_core::engine::shard_map(&cells, 2, |_, op| {
                let cfg = op.config(&scale);
                let w = &suite[op.bench];
                if op.shape.is_chip() {
                    digest(&MulticoreSim::for_workload(cfg, w).run())
                } else {
                    digest(&Simulator::for_workload(cfg, w).run())
                }
            });
            cells.iter().map(|op| op.key(suite)).zip(digests).collect()
        };
        rows.sort();
        let mut text = format!(
            "# {}: FNV-1a 64 of each cell's report Debug rendering.\n\
             # Regenerate with `benchmark golden --out <this directory>`.\n",
            kind.name()
        );
        for (key, d) in rows {
            let _ = writeln!(text, "{key} {d:016x}");
        }
        std::fs::write(dir.join(format!("{}.txt", kind.name())), text)?;
        eprintln!("golden: wrote {}", kind.name());
    }
    Ok(())
}
