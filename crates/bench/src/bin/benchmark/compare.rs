//! `benchmark compare <parent.json> <change.json>`: the claim and
//! no-regression rules over two sets of untraced runs.
//!
//! Each file holds one run record per line (the per-run files the `run`
//! command writes, concatenated, or `run --append` output). Runs pair up
//! in file order per workload — record them alternating parent and
//! change, on the same seeds.
//!
//! * Claim: at least [`MIN_PAIRS`] pairs, the change better in at least
//!   nine tenths of them (ties count for neither), and the medians apart
//!   by more than the parent's interquartile range.
//! * No regression: the change's median no worse than the parent's by
//!   more than the metric's bound; where the parent's own spread is wider
//!   than the bound the verdict is `unresolved`, unless every change run
//!   beats every parent run.

use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, quartiles};
use tdtm_telemetry::stream::json;

const MIN_PAIRS: usize = 10;

/// One untraced run: workload name and metric values.
struct Run {
    workload: String,
    metrics: Vec<(String, f64)>,
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let err = |e: String| format!("{path}:{}: {e}", n + 1);
        let value = json::parse(line).map_err(err)?;
        let obj = value
            .as_object()
            .ok_or_else(|| err("not an object".into()))?;
        let field = |k: &str| obj.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        if field("trace").and_then(json::Value::as_bool) != Some(false) {
            continue;
        }
        let workload = field("workload")
            .and_then(json::Value::as_str)
            .ok_or_else(|| err("no workload".into()))?;
        let metrics = field("metrics")
            .and_then(json::Value::as_object)
            .ok_or_else(|| err("no metrics".into()))?
            .iter()
            .filter_map(|(name, m)| {
                let value = m
                    .as_object()?
                    .iter()
                    .find(|(k, _)| k == "value")?
                    .1
                    .as_f64()?;
                Some((name.clone(), value))
            })
            .collect();
        runs.push(Run {
            workload: workload.to_string(),
            metrics,
        });
    }
    Ok(runs)
}

fn values(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|&(_, v)| v))
        .collect()
}

/// The verdict for one (workload, metric).
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Gain,
    Unchanged,
    Regression,
    Unresolved,
}

/// Applies both rules to `parent` and `change` values (in pair order).
pub fn judge(m: &MetricSpec, parent: &[f64], change: &[f64]) -> (Verdict, String) {
    let better = |a: f64, b: f64| if m.lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let iqr = q3 - q1;
    let worse = if m.lower_is_better {
        (cm - pm) / pm
    } else {
        (pm - cm) / pm
    };
    let bound = m.bound.unwrap_or(0.0);
    let detail = format!(
        "parent {pm:.6} [{q1:.6}, {q3:.6}]  change {cm:.6}  worse by {:+.2}%  wins {wins}/{pairs}",
        100.0 * worse
    );
    let verdict = if pairs >= MIN_PAIRS
        && wins * 10 >= 9 * pairs
        && better(cm, pm)
        && (cm - pm).abs() > iqr
    {
        Verdict::Gain
    } else if iqr / pm.abs() > bound {
        let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
        if all_better {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Unchanged
    };
    (verdict, detail)
}

/// Prints a verdict per workload and end-to-end metric; exits 1 on any
/// regression.
pub fn main(args: &[String]) -> i32 {
    let [parent, change] = args else {
        eprintln!("usage: benchmark compare <parent.json> <change.json>");
        return 2;
    };
    let (parent, change) = match (load(parent), load(change)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let spec = Spec::load();
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut regressions = 0;
    for w in workloads {
        println!("== {w} ==");
        for m in &spec.end_to_end {
            let (p, c) = (values(&parent, w, &m.name), values(&change, w, &m.name));
            if p.is_empty() || c.is_empty() {
                println!("  {:<22} missing", m.name);
                continue;
            }
            let (verdict, detail) = judge(m, &p, &c);
            if verdict == Verdict::Regression {
                regressions += 1;
            }
            let label = match verdict {
                Verdict::Gain => "gain",
                Verdict::Unchanged => "no regression",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
            };
            let direction = if m.lower_is_better { "lower" } else { "higher" };
            let bound = 100.0 * m.bound.unwrap_or(0.0);
            println!(
                "  {:<22} {label:<14} {detail}  ({}, {direction} is better, bound {bound:.0}%)",
                m.name, m.unit
            );
        }
    }
    i32::from(regressions > 0)
}
