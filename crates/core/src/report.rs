//! Plain-text table formatting shared by the table-regeneration binaries.

/// A simple fixed-width text table.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> TextTable {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut TextTable {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i].saturating_sub(cells[i].len());
                if i == 0 {
                    line.push_str(&cells[i]);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(&cells[i]);
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(fraction: f64) -> String {
    format!("{:.2}%", fraction * 100.0)
}

/// Renders run reports as CSV (header + one row per report), for feeding
/// external plotting tools.
pub fn reports_to_csv(reports: &[crate::RunReport]) -> String {
    let mut out = String::from(
        "benchmark,policy,cycles,committed,ipc,avg_power_w,max_power_w,avg_chip_temp_c,\
         emergency_fraction,stress_fraction,samples,engaged_samples,recoveries,bpred_accuracy",
    );
    if let Some(first) = reports.first() {
        for b in &first.blocks {
            let slug = b.name.replace([' ', '.'], "_");
            out.push_str(&format!(",{slug}_avg_t,{slug}_max_t"));
        }
    }
    out.push('\n');
    for r in reports {
        out.push_str(&format!(
            "{},{},{},{},{:.4},{:.2},{:.2},{:.2},{:.6},{:.6},{},{},{},{:.4}",
            r.name,
            r.policy,
            r.cycles,
            r.committed,
            r.ipc,
            r.avg_power,
            r.max_power,
            r.avg_chip_temp,
            r.emergency_fraction(),
            r.stress_fraction(),
            r.samples,
            r.engaged_samples,
            r.recoveries,
            r.bpred_accuracy,
        ));
        for b in &r.blocks {
            out.push_str(&format!(",{:.3},{:.3}", b.avg_temp, b.max_temp));
        }
        out.push('\n');
    }
    out
}

/// Formats a float with the given number of decimals.
pub fn f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Renders the engine's per-grid observability summary: one row per cell
/// with host wall-clock, simulated-cycle throughput, and work counters,
/// plus an aggregate footer. Timing varies run to run; everything else is
/// deterministic.
pub fn grid_summary<R>(results: &crate::engine::GridResults<R>) -> String {
    let mut t = TextTable::new([
        "cell",
        "wall (s)",
        "Mcycles/s",
        "insts retired",
        "thermal steps",
        "ctrl invocations",
    ]);
    for run in &results.runs {
        t.row([
            run.label(),
            format!("{:.3}", run.obs.wall_seconds),
            format!("{:.2}", run.obs.cycles_per_second() / 1e6),
            run.obs.committed.to_string(),
            run.obs.thermal_steps.to_string(),
            run.obs.dtm_samples.to_string(),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "{} cells on {} thread(s): {:.2} s wall, {} thermal steps, aggregate {:.2} Mcycles/s\n",
        results.runs.len(),
        results.threads,
        results.wall_seconds,
        results.total_thermal_steps(),
        results.aggregate_cycles_per_second() / 1e6,
    ));
    out
}

/// Renders a markdown dashboard over one or two completed-cell streams
/// (the `obs_report` bin's output). With one stream: per-cell wall time,
/// throughput, emergency/stress counts, and the hottest-block
/// distribution. With a baseline stream: an A-vs-B section with per-cell
/// wall-time speedups and emergency/peak-temperature deltas, matched by
/// cell label.
///
/// Records are presented in cell-index order regardless of the stream's
/// completion order, so a dashboard over an N-thread stream reads the
/// same as over a 1-thread stream (wall columns aside).
pub fn obs_dashboard(
    a: &[tdtm_telemetry::CellRecord],
    b: Option<&[tdtm_telemetry::CellRecord]>,
) -> String {
    let mut out = String::from("# Grid observability dashboard\n");
    out.push_str(&obs_run_section(
        if b.is_some() { "Run A" } else { "Run" },
        a,
    ));
    if let Some(b) = b {
        out.push_str(&obs_run_section("Run B (baseline)", b));
        out.push_str(&obs_delta_section(a, b));
    }
    out
}

fn obs_sorted(records: &[tdtm_telemetry::CellRecord]) -> Vec<&tdtm_telemetry::CellRecord> {
    let mut sorted: Vec<_> = records.iter().collect();
    sorted.sort_by_key(|r| r.index);
    sorted
}

/// `cells / seconds` formatted for the dashboard header, or `n/a` when
/// the denominator is zero, negative, or non-finite — a stream whose
/// timing fields are absent (legacy), zeroed, or corrupt has no
/// throughput to report, and printing `inf` or a fake `0.00` misreads
/// as a measurement.
fn obs_rate(cells: usize, seconds: f64) -> String {
    if seconds > 0.0 && seconds.is_finite() {
        format!("{:.2}", cells as f64 / seconds)
    } else {
        "n/a".to_string()
    }
}

fn obs_run_section(title: &str, records: &[tdtm_telemetry::CellRecord]) -> String {
    let sorted = obs_sorted(records);
    let cell_seconds: f64 = sorted.iter().map(|r| r.wall_seconds).sum();
    let cells_per_sec = obs_rate(sorted.len(), cell_seconds);
    // Grid wall time: the stream's last emission stamp. Older streams
    // (pre-`elapsed_seconds`) carry 0.0 there, so fall back to the
    // cell-seconds sum, which is exact for 1-worker runs.
    let wall = sorted
        .iter()
        .map(|r| r.elapsed_seconds)
        .fold(0.0_f64, f64::max);
    let wall = if wall > 0.0 && wall.is_finite() { wall } else { cell_seconds };
    let agg_cells_per_sec = obs_rate(sorted.len(), wall);
    let emergency: u64 = sorted.iter().map(|r| r.emergency_cycles).sum();
    let stress: u64 = sorted.iter().map(|r| r.stress_cycles).sum();

    let mut out = format!("\n## {title} — {} cells\n\n", sorted.len());
    out.push_str(&format!(
        "- {wall:.3} s grid wall time ({agg_cells_per_sec} cells/s aggregate)\n"
    ));
    out.push_str(&format!(
        "- {cell_seconds:.3} cell-seconds total ({cells_per_sec} cells/s per worker)\n"
    ));
    out.push_str(&format!(
        "- emergency cycles: {emergency}, stress cycles: {stress}\n"
    ));

    // Cache hit rate: cells served from the content-addressed result
    // cache vs. simulated fresh. Legacy streams (pre-cache) carry no
    // `cached` field at all, so the rate is unknowable — say `n/a`,
    // never a fake 0%.
    let stamped = sorted.iter().filter(|r| r.cached.is_some()).count();
    if stamped > 0 {
        let hits = sorted.iter().filter(|r| r.cached == Some(true)).count();
        out.push_str(&format!(
            "- cache hit rate: {:.1}% ({hits}/{stamped} cells cached)\n",
            100.0 * hits as f64 / stamped as f64
        ));
    } else {
        out.push_str("- cache hit rate: n/a\n");
    }

    // Hottest-block distribution: count of cells peaking in each block,
    // most frequent first (name breaks ties, for determinism).
    let mut dist: Vec<(&str, usize)> = Vec::new();
    for r in &sorted {
        if r.hottest_block.is_empty() {
            continue;
        }
        match dist.iter_mut().find(|(name, _)| *name == r.hottest_block) {
            Some((_, n)) => *n += 1,
            None => dist.push((&r.hottest_block, 1)),
        }
    }
    dist.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    if !dist.is_empty() {
        let list: Vec<String> = dist
            .iter()
            .map(|(name, n)| format!("{name} ×{n}"))
            .collect();
        out.push_str(&format!("- hottest blocks: {}\n", list.join(", ")));
    }

    out.push_str("\n| cell | wall (s) | Mcyc/s | IPC | emerg | stress | hottest | peak °C |\n");
    out.push_str("|---|---:|---:|---:|---:|---:|---|---:|\n");
    for r in &sorted {
        let mcps = if r.wall_seconds > 0.0 {
            r.thermal_steps as f64 / r.wall_seconds / 1e6
        } else {
            0.0
        };
        out.push_str(&format!(
            "| {} | {:.3} | {:.2} | {:.3} | {} | {} | {} | {:.2} |\n",
            r.label,
            r.wall_seconds,
            mcps,
            r.ipc,
            r.emergency_cycles,
            r.stress_cycles,
            r.hottest_block,
            r.hottest_temp_c,
        ));
    }
    out
}

fn obs_delta_section(a: &[tdtm_telemetry::CellRecord], b: &[tdtm_telemetry::CellRecord]) -> String {
    let mut out = String::from(
        "\n## A vs B (matched by cell label)\n\n\
         | cell | wall A (s) | wall B (s) | speedup | emerg A | emerg B | Δemerg | Δpeak °C |\n\
         |---|---:|---:|---:|---:|---:|---:|---:|\n",
    );
    let mut unmatched = Vec::new();
    for ra in obs_sorted(a) {
        let Some(rb) = b.iter().find(|r| r.label == ra.label) else {
            unmatched.push(ra.label.clone());
            continue;
        };
        let speedup = if ra.wall_seconds > 0.0 {
            rb.wall_seconds / ra.wall_seconds
        } else {
            0.0
        };
        out.push_str(&format!(
            "| {} | {:.3} | {:.3} | {:.2}x | {} | {} | {:+} | {:+.2} |\n",
            ra.label,
            ra.wall_seconds,
            rb.wall_seconds,
            speedup,
            ra.emergency_cycles,
            rb.emergency_cycles,
            ra.emergency_cycles as i64 - rb.emergency_cycles as i64,
            ra.hottest_temp_c - rb.hottest_temp_c,
        ));
    }
    if !unmatched.is_empty() {
        out.push_str(&format!("\nNot in B: {}\n", unmatched.join(", ")));
    }
    out
}

/// CSV form of [`obs_dashboard`]: one row per cell in A (paired with its
/// B match when a baseline is given; B-only columns stay empty for
/// unmatched cells).
pub fn obs_dashboard_csv(
    a: &[tdtm_telemetry::CellRecord],
    b: Option<&[tdtm_telemetry::CellRecord]>,
) -> String {
    let mut out = String::from(
        "cell,bench,policy,variant,wall_seconds,thermal_steps,ipc,emergency_cycles,\
         stress_cycles,hottest_block,hottest_temp_c",
    );
    if b.is_some() {
        out.push_str(",wall_seconds_b,emergency_cycles_b,hottest_temp_c_b");
    }
    out.push('\n');
    for r in obs_sorted(a) {
        out.push_str(&format!(
            "{},{},{},{},{:.6},{},{:.4},{},{},{},{:.3}",
            r.label,
            r.bench,
            r.policy,
            r.variant,
            r.wall_seconds,
            r.thermal_steps,
            r.ipc,
            r.emergency_cycles,
            r.stress_cycles,
            r.hottest_block,
            r.hottest_temp_c,
        ));
        if let Some(b) = b {
            match b.iter().find(|rb| rb.label == r.label) {
                Some(rb) => out.push_str(&format!(
                    ",{:.6},{},{:.3}",
                    rb.wall_seconds, rb.emergency_cycles, rb.hottest_temp_c
                )),
                None => out.push_str(",,,"),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["bench", "IPC", "emerg"]);
        t.row(["gzip", "2.31", "0.00%"]);
        t.row(["a-longer-name", "0.40", "12.34%"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("bench"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Right-aligned numeric columns line up at the end.
        assert!(lines[2].ends_with("0.00%"));
        assert!(lines[3].ends_with("12.34%"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(f(1.23456, 2), "1.23");
    }

    #[test]
    fn csv_has_header_and_block_columns() {
        use crate::metrics::{BlockMetrics, RunReport};
        let r = RunReport {
            name: "gcc".into(),
            policy: "PID".into(),
            cycles: 100,
            total_cycles: 150,
            committed: 300,
            wall_time: 100.0 / 1.5e9,
            ipc: 3.0,
            avg_power: 50.0,
            max_power: 70.0,
            avg_chip_temp: 44.0,
            emergency_cycles: 0,
            stress_cycles: 10,
            blocks: vec![BlockMetrics {
                name: "int exec. unit".into(),
                avg_temp: 108.0,
                max_temp: 110.0,
                emergency_cycles: 0,
                stress_cycles: 10,
                avg_power: 5.0,
                max_power: 8.0,
            }],
            samples: 1,
            engaged_samples: 0,
            recoveries: 2,
            bpred_accuracy: 0.99,
            gated_cycles: 0,
        };
        let csv = reports_to_csv(&[r]);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let row = lines.next().unwrap();
        assert!(header.contains("int_exec__unit_avg_t"));
        assert_eq!(header.split(',').count(), row.split(',').count());
        assert!(row.starts_with("gcc,PID,100,300,3.0000,"));
        assert!(lines.next().is_none());
    }

    fn obs_record(index: usize, label: &str, emerg: u64) -> tdtm_telemetry::CellRecord {
        tdtm_telemetry::CellRecord {
            seq: index as u64,
            index,
            label: label.to_string(),
            bench: label.split('/').next().unwrap_or("").to_string(),
            policy: "PID".to_string(),
            variant: "base".to_string(),
            wall_seconds: 0.5,
            elapsed_seconds: 0.0,
            thermal_steps: 1_000_000,
            committed: 120_000,
            dtm_samples: 1_000,
            ipc: 0.9,
            emergency_cycles: emerg,
            stress_cycles: emerg * 10,
            hottest_block: "int reg. file".to_string(),
            hottest_temp_c: 111.5,
            cached: None,
            metrics: Vec::new(),
        }
    }

    #[test]
    fn obs_dashboard_single_run_lists_cells_and_distribution() {
        // Records arrive in completion order; the dashboard re-sorts.
        let records = vec![obs_record(1, "art/PID", 7), obs_record(0, "gcc/PID", 40)];
        let s = obs_dashboard(&records, None);
        assert!(s.contains("# Grid observability dashboard"));
        assert!(s.contains("2 cells"), "dashboard:\n{s}");
        assert!(s.contains("emergency cycles: 47"));
        assert!(s.contains("hottest blocks: int reg. file ×2"));
        let gcc = s.find("| gcc/PID |").expect("gcc row");
        let art = s.find("| art/PID |").expect("art row");
        assert!(
            gcc < art,
            "rows are in cell-index order, not completion order"
        );
        assert!(
            !s.contains("Run B"),
            "no baseline section without a baseline"
        );
    }

    #[test]
    fn obs_dashboard_reports_na_hit_rate_for_legacy_streams() {
        // Pre-cache streams carry no `cached` field: the dashboard must
        // say the rate is unknowable, not claim 0%.
        let records = vec![obs_record(0, "gcc/PID", 40), obs_record(1, "art/PID", 7)];
        let s = obs_dashboard(&records, None);
        assert!(s.contains("- cache hit rate: n/a"), "got:\n{s}");
        assert!(!s.contains("cells cached"), "got:\n{s}");
    }

    #[test]
    fn obs_dashboard_reports_cache_hit_rate_when_records_are_stamped() {
        let mut records = vec![
            obs_record(0, "gcc/PID", 40),
            obs_record(1, "art/PID", 7),
            obs_record(2, "mcf/PID", 3),
            obs_record(3, "eqk/PID", 1),
        ];
        records[0].cached = Some(true);
        records[1].cached = Some(true);
        records[2].cached = Some(true);
        records[3].cached = Some(false);
        let s = obs_dashboard(&records, None);
        assert!(
            s.contains("- cache hit rate: 75.0% (3/4 cells cached)"),
            "got:\n{s}"
        );
    }

    #[test]
    fn obs_dashboard_header_reports_grid_wall_and_aggregate_throughput() {
        // A 2-worker fixture stream: both cells took 0.5 s of worker time
        // but overlapped, so the last emission stamp (grid wall) is 0.6 s.
        let mut records = vec![obs_record(0, "gcc/PID", 40), obs_record(1, "art/PID", 7)];
        records[0].elapsed_seconds = 0.5;
        records[1].elapsed_seconds = 0.6;
        let s = obs_dashboard(&records, None);
        assert!(
            s.contains("- 0.600 s grid wall time (3.33 cells/s aggregate)"),
            "got:\n{s}"
        );
        assert!(
            s.contains("- 1.000 cell-seconds total (2.00 cells/s per worker)"),
            "got:\n{s}"
        );

        // Legacy streams predate `elapsed_seconds` (all 0.0): the header
        // falls back to the cell-seconds sum for the wall estimate.
        let legacy = vec![obs_record(0, "gcc/PID", 40), obs_record(1, "art/PID", 7)];
        let s = obs_dashboard(&legacy, None);
        assert!(
            s.contains("- 1.000 s grid wall time (2.00 cells/s aggregate)"),
            "got:\n{s}"
        );
    }

    #[test]
    fn obs_dashboard_header_prints_na_without_timing_data() {
        // A stream with no usable timing at all (elapsed_seconds absent
        // AND wall_seconds zeroed) has no throughput to report: the
        // header must say `n/a`, never `inf`, `NaN`, or a fake `0.00`.
        let mut records = vec![obs_record(0, "gcc/PID", 40), obs_record(1, "art/PID", 7)];
        for r in &mut records {
            r.wall_seconds = 0.0;
        }
        let s = obs_dashboard(&records, None);
        assert!(
            s.contains("- 0.000 s grid wall time (n/a cells/s aggregate)"),
            "got:\n{s}"
        );
        assert!(
            s.contains("- 0.000 cell-seconds total (n/a cells/s per worker)"),
            "got:\n{s}"
        );

        // A corrupt stamp (e.g. a hand-edited fixture) must not leak
        // `inf` into the aggregate either: the wall estimate falls back
        // to the cell-seconds sum.
        let mut corrupt = vec![obs_record(0, "gcc/PID", 40), obs_record(1, "art/PID", 7)];
        corrupt[1].elapsed_seconds = f64::INFINITY;
        let s = obs_dashboard(&corrupt, None);
        assert!(
            s.contains("- 1.000 s grid wall time (2.00 cells/s aggregate)"),
            "got:\n{s}"
        );
        assert!(!s.contains("inf"), "got:\n{s}");
    }

    #[test]
    fn obs_dashboard_renders_committed_stream_fixtures() {
        // The committed demo streams are legacy fixtures (no
        // `elapsed_seconds` field): parsing them and rendering the
        // dashboard must keep working, with real throughput numbers from
        // the wall_seconds fallback and no `inf`/`NaN` anywhere.
        for fixture in ["quick_nominal.jsonl", "quick_hot.jsonl"] {
            let path = format!(
                "{}/../../results/streams/{fixture}",
                env!("CARGO_MANIFEST_DIR")
            );
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read fixture {path}: {e}"));
            let records =
                tdtm_telemetry::CellRecord::parse_jsonl(&text).expect("fixture parses");
            assert!(!records.is_empty(), "{fixture}: empty fixture");
            assert!(
                records.iter().all(|r| r.elapsed_seconds == 0.0),
                "{fixture}: no longer a legacy stream; update this test"
            );
            let s = obs_dashboard(&records, None);
            assert!(
                s.contains("cells/s aggregate") && !s.contains("(n/a cells/s aggregate)"),
                "{fixture}: wall_seconds fallback should yield a real rate:\n{s}"
            );
            assert!(!s.contains("inf") && !s.contains("NaN"), "{fixture}:\n{s}");
        }
    }

    #[test]
    fn obs_dashboard_pairs_runs_by_label() {
        let a = vec![obs_record(0, "gcc/PID", 40), obs_record(1, "art/PID", 7)];
        let mut b = vec![obs_record(0, "gcc/PID", 55)];
        b[0].wall_seconds = 1.0;
        let s = obs_dashboard(&a, Some(&b));
        assert!(s.contains("Run B (baseline)"));
        assert!(s.contains("A vs B"));
        // 1.0s baseline over 0.5s current = 2.00x speedup; 40 - 55 = -15.
        assert!(
            s.contains("| gcc/PID | 0.500 | 1.000 | 2.00x | 40 | 55 | -15 |"),
            "got:\n{s}"
        );
        assert!(s.contains("Not in B: art/PID"));
    }

    #[test]
    fn obs_dashboard_csv_widths_match() {
        let a = vec![obs_record(0, "gcc/PID", 40), obs_record(1, "art/PID", 7)];
        let b = vec![obs_record(0, "gcc/PID", 55)];
        let csv = obs_dashboard_csv(&a, Some(&b));
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let w = header.split(',').count();
        for row in lines {
            assert_eq!(row.split(',').count(), w, "row: {row}");
        }
        let csv_single = obs_dashboard_csv(&a, None);
        assert!(!csv_single.contains("wall_seconds_b"));
    }

    #[test]
    fn grid_summary_renders_counters_and_footer() {
        use crate::engine::ExperimentGrid;
        use crate::experiments::ExperimentScale;
        let grid = ExperimentGrid::new(ExperimentScale::quick())
            .workload(tdtm_workloads::by_name("gcc").expect("known workload"));
        let results = grid.run_threads(1);
        let s = grid_summary(&results);
        assert!(s.contains("gcc/none"), "summary:\n{s}");
        assert!(s.contains("thermal steps"));
        assert!(s.contains("1 cells on 1 thread(s)"));
    }
}
