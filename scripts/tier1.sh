#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): build, full test suite, and strict lints
# on the whole workspace. Run from anywhere; the script cd's to the repo
# root.
set -euo pipefail
cd "$(dirname "$0")/.."
# The tdtm-bench binaries read these at run time (the libraries and the
# tests read none). An exported value in the caller's shell (a
# TDTM_CACHE_DIR, TDTM_SKIP=0) would turn the binary smokes below into
# disk replays or non-skipping runs; the smokes that need one set it per
# command.
unset TDTM_SKIP TDTM_CACHE TDTM_CACHE_DIR TDTM_THREADS TDTM_INSTS

echo "== tier 1: library crates read no environment =="
# Only the binaries read TDTM_* (through tdtm_bench::from_env); a library
# result must be a function of its arguments alone.
LIB_SRC=""
for CRATE in isa frontend uarch power thermal control dtm workloads core telemetry prng; do
  LIB_SRC="$LIB_SRC crates/$CRATE/src"
done
# shellcheck disable=SC2086
if grep -rnE 'env::(var|vars|var_os|set_var|remove_var)' $LIB_SRC; then
  echo "a library crate reads or writes the environment (above)"; exit 1
fi

echo "== tier 1: release build =="
cargo build --release --workspace

echo "== tier 1: tests =="
cargo test -q --workspace

echo "== tier 1: clippy (whole workspace, all targets) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier 1: docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tier 1: trace_run smoke =="
cargo run -q --release -p tdtm-bench --bin trace_run -- gcc pid --stride 1000 --insts 60000 > /dev/null
# The chip path: per-core rings + the chip supervisor ring.
cargo run -q --release -p tdtm-bench --bin trace_run -- gcc pid --cores 2 --supervisor --stride 1000 --insts 8000 > /dev/null

echo "== tier 1: obs_report smoke (streaming grid -> JSONL -> dashboard) =="
# End-to-end through the observability stack: run a 2x2 grid with
# streaming, then assert the JSONL parses and the dashboard renders. This
# smoke and the cache smoke below run on one worker (TDTM_THREADS=1), so
# each stream's record order is the cell order and the diffs are stable.
OBS_STREAM="$(mktemp /tmp/tier1_obs.XXXXXX.jsonl)"
CACHE_DIR="$(mktemp -d /tmp/tier1_cache.XXXXXX)"
trap 'rm -f "$OBS_STREAM" "$OBS_STREAM".s1 "$OBS_STREAM".s2 "$OBS_STREAM".s3; rm -rf "$CACHE_DIR"' EXIT
OBS_OUT="$(TDTM_THREADS=1 cargo run -q --release -p tdtm-bench --bin obs_report -- --demo-grid "$OBS_STREAM" 2> /dev/null)"
test "$(wc -l < "$OBS_STREAM")" -eq 4 || { echo "obs stream: expected 4 JSONL records"; exit 1; }
grep -q '"label":"gcc/PID"' "$OBS_STREAM" || { echo "obs stream: missing cell record"; exit 1; }
echo "$OBS_OUT" | grep -q '^# Grid observability dashboard' || { echo "obs_report: dashboard did not render"; exit 1; }
echo "$OBS_OUT" | grep -q '| art/stability |' || { echo "obs_report: missing per-cell row"; exit 1; }

echo "== tier 1: result cache smoke (cold -> warm -> TDTM_CACHE=0) =="
# The same 2x2 streaming grid three ways through fresh processes sharing
# one TDTM_CACHE_DIR: the cold pass populates the disk tier, the warm
# pass must replay every cell ("cached":true) with a 100% dashboard hit
# rate, and the TDTM_CACHE=0 pass must reproduce pre-cache behavior
# exactly (no "cached" field at all). Up to host-side stamps/timing and
# cache provenance, all three streams are identical.
S1_OUT="$(TDTM_THREADS=1 TDTM_CACHE_DIR="$CACHE_DIR" cargo run -q --release -p tdtm-bench --bin obs_report -- --demo-grid "$OBS_STREAM".s1 2> /dev/null)"
S2_OUT="$(TDTM_THREADS=1 TDTM_CACHE_DIR="$CACHE_DIR" cargo run -q --release -p tdtm-bench --bin obs_report -- --demo-grid "$OBS_STREAM".s2 2> /dev/null)"
TDTM_THREADS=1 TDTM_CACHE=0 TDTM_CACHE_DIR="$CACHE_DIR" cargo run -q --release -p tdtm-bench --bin obs_report -- --demo-grid "$OBS_STREAM".s3 > /dev/null 2>&1
test "$(grep -c '"cached":false' "$OBS_STREAM".s1)" -eq 4 || { echo "cache smoke: cold pass must stream 4 fresh records"; exit 1; }
test "$(grep -c '"cached":true' "$OBS_STREAM".s2)" -eq 4 || { echo "cache smoke: warm pass must replay all 4 records"; exit 1; }
grep -q '"cached"' "$OBS_STREAM".s3 && { echo "cache smoke: TDTM_CACHE=0 must not stamp cache provenance"; exit 1; }
echo "$S1_OUT" | grep -q 'cache hit rate: 0.0% (0/4 cells cached)' || { echo "cache smoke: cold dashboard hit rate wrong"; exit 1; }
echo "$S2_OUT" | grep -q 'cache hit rate: 100.0% (4/4 cells cached)' || { echo "cache smoke: warm dashboard hit rate wrong"; exit 1; }
# Strip stamps, timing, and provenance; the remaining bytes must agree.
obs_norm() { sed -E 's/"seq":[0-9]+/"seq":0/g; s/"(wall_seconds|elapsed_seconds)":[0-9.eE+-]+/"\1":0/g; s/"cached":(true|false),//g' "$1"; }
diff <(obs_norm "$OBS_STREAM".s1) <(obs_norm "$OBS_STREAM".s2) || { echo "cache smoke: warm replay diverged from cold stream"; exit 1; }
diff <(obs_norm "$OBS_STREAM".s1) <(obs_norm "$OBS_STREAM".s3) || { echo "cache smoke: TDTM_CACHE=0 diverged from cold stream"; exit 1; }
test "$(ls "$CACHE_DIR" | wc -l)" -ge 4 || { echo "cache smoke: disk tier holds no entries"; exit 1; }

echo "== tier 1: multicore interference smoke (TDTM_THREADS=1 vs 2) =="
# The cross-core figure end-to-end at a tiny budget: coupled chips, the
# supervisor, and both retrieved-literature policies through the engine.
# Run on one and on two workers: stdout (host timings go to stderr) must
# match byte for byte, and stderr must show TDTM_THREADS reached the
# engine.
MC1="$(TDTM_INSTS=8000 TDTM_THREADS=1 cargo run -q --release -p tdtm-bench --bin fig_multicore_interference 2> /dev/null)"
MC2_ERR="$(mktemp /tmp/tier1_mc2.XXXXXX)"
MC2="$(TDTM_INSTS=8000 TDTM_THREADS=2 cargo run -q --release -p tdtm-bench --bin fig_multicore_interference 2> "$MC2_ERR")"
test -n "$MC1" || { echo "interference smoke: no output captured"; exit 1; }
diff <(echo "$MC1") <(echo "$MC2") || { echo "interference smoke: stdout depends on the worker count"; exit 1; }
grep -q 'on 2 thread(s)' "$MC2_ERR" || { echo "interference smoke: TDTM_THREADS=2 did not reach the engine"; exit 1; }
rm -f "$MC2_ERR"

echo "== tier 1: idle-gap skip identity smoke (TDTM_SKIP=0 vs default) =="
# One toggle-policy cell both ways through the env-var opt-out, on a single
# core and on a 2-core chip, each under full telemetry. Observed runs take
# the same skipping cycle loop as plain runs, so the per-core and chip
# summaries (cycles, IPC, power, emergency/stress, DTM samples, peak
# temperature), the event-ring tallies and every deterministic metric line
# must match to the last printed digit, and the default run must actually
# have skipped.
REPORT='^(core [0-9]|chip: [0-9]|        hottest|  [a-z_]+ +[0-9n])'
for CELL in "" "--cores 2"; do
  ON_ERR="$(TDTM_INSTS=20000 cargo run -q --release -p tdtm-bench --bin trace_run -- gcc toggle1 $CELL --stride 1000 2>&1 > /dev/null)"
  OFF_ERR="$(TDTM_INSTS=20000 TDTM_SKIP=0 cargo run -q --release -p tdtm-bench --bin trace_run -- gcc toggle1 $CELL --stride 1000 2>&1 > /dev/null)"
  SKIP_ON="$(echo "$ON_ERR" | grep -E "$REPORT")"
  SKIP_OFF="$(echo "$OFF_ERR" | grep -E "$REPORT")"
  test -n "$SKIP_ON" || { echo "idle-gap skip smoke ($CELL): no report lines captured"; exit 1; }
  echo "$ON_ERR" | grep -E '^skipped idle windows .* [1-9][0-9]* windows' > /dev/null \
    || { echo "idle-gap skip smoke ($CELL): default run skipped no windows (vacuous)"; exit 1; }
  diff <(echo "$SKIP_ON") <(echo "$SKIP_OFF") || { echo "idle-gap skipping perturbed the run ($CELL)"; exit 1; }
done

echo "== tier 1: performance gates (cargo bench --bench gates) =="
# Each gate times an A/B pair alternately in one process and fails on
# the median B/A ratio: four cells and the cold 18x5 grid over a std-only
# reference kernel, idle-gap skipping, the warm memory and disk cache
# replays, and the telemetry overhead. The bounds and the ratios they
# were set from are consts in crates/bench/benches/gates.rs.
cargo bench -p tdtm-bench --bench gates

echo "tier 1: OK"
