//! Hostile-input fuzzing for the hand-rolled JSON readers.
//!
//! The JSONL stream (`CellRecord::from_json`) and the result cache's disk
//! entries (`CellArtifact::from_json`) are read back from files that can
//! be truncated or corrupted. The rule: any input is `Ok` or `Err`, never
//! a panic or an abort, and a record that parses re-serializes to a
//! fixed point. Inputs are seeded random bytes (biased toward JSON
//! syntax) and random mutations of valid records and entries.

use tdtm::core::{CellArtifact, SimConfig, Simulator};
use tdtm::telemetry::stream::json;
use tdtm::telemetry::CellRecord;
use tdtm::workloads::by_name;
use tdtm_prng::Rng;

/// Characters that steer random input into the parser's deeper states.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', 'u', '0', '1', '9', '-', '+', '.', 'e', 'E', 't', 'r',
    'n', 'f', 'l', 'a', ' ', '\n', 'é', '€', '😀', '\u{0}',
];

fn random_char(rng: &mut Rng) -> char {
    if rng.next_f64() < 0.8 {
        *rng.choose(ALPHABET)
    } else {
        char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('?')
    }
}

fn random_text(rng: &mut Rng, max_len: u64) -> String {
    (0..rng.below(max_len + 1))
        .map(|_| random_char(rng))
        .collect()
}

/// One random edit: delete, insert, replace, duplicate a span, or
/// truncate. Works on chars so the result stays a valid `&str`.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..=rng.below(3) {
        let len = chars.len();
        let at = rng.index(len + 1);
        match rng.below(5) {
            0 if at < len => {
                let end = (at + 1 + rng.index(8)).min(len);
                chars.drain(at..end);
            }
            1 => chars.insert(at, random_char(rng)),
            2 if at < len => chars[at] = random_char(rng),
            3 if at < len => {
                let end = (at + 1 + rng.index(16)).min(len);
                let span: Vec<char> = chars[at..end].to_vec();
                chars.splice(at..at, span);
            }
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

fn random_record(rng: &mut Rng) -> CellRecord {
    // Counters span the whole u64 range: integer literals parse exactly,
    // past f64's 2^53 exact-integer limit.
    let mut count = || rng.next_u64();
    CellRecord {
        seq: count(),
        index: count() as usize,
        thermal_steps: count(),
        committed: count(),
        dtm_samples: count(),
        emergency_cycles: count(),
        stress_cycles: count(),
        label: random_text(rng, 12),
        bench: random_text(rng, 6),
        policy: random_text(rng, 6),
        variant: random_text(rng, 6),
        wall_seconds: rng.range_f64(0.0, 1e3),
        elapsed_seconds: f64::from_bits(rng.next_u64()),
        ipc: rng.range_f64(-1e-300, 4.0),
        hottest_block: random_text(rng, 8),
        hottest_temp_c: f64::from_bits(rng.next_u64()),
        metrics: (0..rng.below(4))
            .map(|_| (random_text(rng, 6), rng.next_u64()))
            .collect(),
        cached: *rng.choose(&[None, Some(false), Some(true)]),
    }
}

/// Parses `text` with every reader; a record that parses must
/// re-serialize to a fixed point.
fn feed(text: &str) {
    let _ = json::parse(text);
    let _ = CellArtifact::from_json(text);
    let _ = CellRecord::parse_jsonl(text);
    if let Ok(record) = CellRecord::from_json(text) {
        let line = record.to_json();
        let again = CellRecord::from_json(&line).expect("a serialized record parses");
        assert_eq!(again.to_json(), line, "record round trip from {text:?}");
    }
}

#[test]
fn random_bytes_never_panic() {
    tdtm_prng::cases(2_000, 0xF022_B17E, |rng| {
        let bytes: Vec<u8> = (0..rng.below(96))
            .map(|_| {
                if rng.next_f64() < 0.7 {
                    *rng.choose(b"{}[]\":,\\u019-+.eEtrnfl \n")
                } else {
                    rng.below(256) as u8
                }
            })
            .collect();
        feed(&String::from_utf8_lossy(&bytes));
        feed(&random_text(rng, 96));
    });
}

#[test]
fn valid_records_round_trip_and_survive_mutation() {
    tdtm_prng::cases(500, 0x02EC_02D5, |rng| {
        let record = random_record(rng);
        let line = record.to_json();
        let parsed = CellRecord::from_json(&line).expect("a serialized record parses");
        assert_eq!(parsed.to_json(), line, "round trip");
        assert!(
            parsed.deterministic_eq(&record),
            "deterministic fields survive"
        );
        for _ in 0..8 {
            feed(&mutate(rng, &line));
        }
    });
}

#[test]
fn counters_past_two_to_the_53_round_trip_exactly() {
    // 2^53 + 1 is the first integer an f64 cannot hold: read through a
    // float it would come back as 2^53, silently.
    let big = (1u64 << 53) + 1;
    let record = CellRecord {
        committed: big,
        thermal_steps: u64::MAX,
        metrics: vec![("cycles".to_string(), big)],
        ..CellRecord::default()
    };
    let line = record.to_json();
    assert!(line.contains("\"committed\":9007199254740993"), "{line}");
    let parsed = CellRecord::from_json(&line).expect("a serialized record parses");
    assert_eq!(parsed, record);

    let mut cfg = SimConfig::quick_test();
    cfg.max_insts = 2_000;
    cfg.thermal_warmup_cycles = 100;
    let mut report = Simulator::for_workload(cfg, &by_name("gcc").expect("suite workload")).run();
    report.committed = big;
    let artifact = CellArtifact { report, record: Some(record) };
    let parsed = CellArtifact::from_json(&artifact.to_json()).expect("a serialized entry parses");
    assert_eq!(parsed, artifact);

    // One past u64::MAX is an error, not a rounded count.
    let past = line.replace("18446744073709551615", "18446744073709551616");
    assert!(CellRecord::from_json(&past).is_err());
}

#[test]
fn mutated_cache_entries_never_panic() {
    let mut cfg = SimConfig::quick_test();
    cfg.max_insts = 2_000;
    cfg.thermal_warmup_cycles = 100;
    let report = Simulator::for_workload(cfg, &by_name("gcc").expect("suite workload")).run();
    tdtm_prng::cases(300, 0xCAC4_E0F5, |rng| {
        let record = (rng.next_f64() < 0.5).then(|| random_record(rng));
        let artifact = CellArtifact {
            report: report.clone(),
            record,
        };
        let entry = artifact.to_json();
        let parsed = CellArtifact::from_json(&entry).expect("a serialized entry parses");
        assert_eq!(parsed.to_json(), entry, "entry round trip");
        for _ in 0..8 {
            feed(&mutate(rng, &entry));
        }
    });
}

#[test]
fn nesting_bombs_are_errors() {
    for bomb in [
        "[".repeat(200_000),
        "{\"k\":".repeat(100_000),
        "[{\"a\":".repeat(50_000),
    ] {
        assert!(json::parse(&bomb).is_err());
        assert!(CellRecord::from_json(&bomb).is_err());
        assert!(CellArtifact::from_json(&bomb).is_err());
        assert!(CellRecord::parse_jsonl(&bomb).is_err());
    }
}
