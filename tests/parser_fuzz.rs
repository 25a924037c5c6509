//! Hostile-input fuzzing for the hand-rolled parsers.
//!
//! The JSONL stream (`CellRecord::from_json`) and the result cache's disk
//! entries (`CellArtifact::from_json`) are read back from files that can
//! be truncated or corrupted; the assembler (`asm::assemble`) and the
//! instruction decoder (`encoding::decode`) take arbitrary text and
//! words. The rule: any input is `Ok` or `Err`, never a panic or an
//! abort. A record that parses re-serializes to a fixed point; an
//! instruction that decodes encodes back to itself, and its `Display`
//! assembles back to the same instruction. Inputs are seeded random
//! bytes, tokens and words (biased toward each parser's syntax) and
//! random mutations of valid records, entries and kernel sources.

use tdtm::core::{CellArtifact, SimConfig, Simulator};
use tdtm::isa::{asm, encoding, Inst, Op};
use tdtm::telemetry::stream::json;
use tdtm::telemetry::CellRecord;
use tdtm::workloads::{by_name, kernels};
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

/// Operands that steer random assembler input into the number, register,
/// memory-operand and label paths, hostile literals included.
const ASM_OPERANDS: &[&str] = &[
    "X7", "0", "7", "-1", "+8", "1023", "-1024",
    "2147483647", "-2147483648", "2147483648", "9223372036854775807", "-9223372036854775808",
    "0x10", "0X7ff", "-0x10", "0x-5", "0x+5", "-0x-8000000000000000", "-0x8000000000000000",
    "0x7fffffffffffffff", "8(x2)", "-0x10(x3)", "(x1)", "4(x1", "4(f1)", "loop", "buf", "1bad",
    "2.5", "nan", "-inf", "",
];

/// Mnemonics, pseudo-instructions and directives (and a few that are
/// none of these).
const ASM_HEADS: &[&str] = &[
    "li", "la", "mv", "j", "call", "ret", "bgt", "ble", "fmvi", "lw", "sw", "flw", "fsw", "beq",
    "jal", "jalr", "lui", "fcvt.d.w", "out", "halt", "bogus", ".data", ".text", ".word",
    ".double", ".zero", ".space", ".bogus",
];

fn random_asm_line(rng: &mut Rng) -> String {
    match rng.below(8) {
        0 => format!("{}:", rng.choose(&["loop", "buf", "a.b", "1bad", "x", ""])),
        1 => random_text(rng, 24),
        _ => {
            let head = if rng.next_f64() < 0.7 {
                rng.choose(Op::all()).mnemonic()
            } else {
                rng.choose(ASM_HEADS)
            };
            let operands: Vec<String> = (0..rng.below(4))
                .map(|_| match rng.below(4) {
                    0 => format!("x{}", rng.below(33)),
                    1 => format!("f{}", rng.below(33)),
                    _ => rng.choose(ASM_OPERANDS).to_string(),
                })
                .collect();
            format!("{head} {}", operands.join(", "))
        }
    }
}

/// Whether `source` asks for a `.zero`/`.space` block over 1 MiB. Any size
/// that fits below the stack is legal, so such a block assembles; the
/// fuzz skips it only to keep its own memory small.
fn allocates_a_lot(source: &str) -> bool {
    source.lines().any(|line| {
        ["zero", "space"].iter().any(|d| {
            line.split_once(d).is_some_and(|(_, size)| {
                size.chars().filter(char::is_ascii_hexdigit).count() > 5
            })
        })
    })
}

/// Assembles `source`; whatever assembles must encode, decode and print
/// back to itself.
fn feed_asm(source: &str) {
    if allocates_a_lot(source) {
        return;
    }
    if let Ok(program) = asm::assemble(source) {
        for inst in &program.insts {
            assert_round_trips(inst);
        }
    }
}

/// `decode(encode(i)) == i`, and the `Display` of `i` assembles to one
/// instruction that prints the same: every operand field the syntax
/// shows survives (fields an opcode ignores have no syntax and assemble
/// as zero).
fn assert_round_trips(inst: &Inst) {
    let e = encoding::encode(inst);
    assert_eq!(encoding::decode(e.word, e.ext), Ok(*inst), "encode/decode of {inst}");
    let text = inst.to_string();
    let program = asm::assemble(&text).unwrap_or_else(|e| panic!("`{text}` does not assemble: {e}"));
    assert_eq!(program.insts.len(), 1, "`{text}`");
    assert_eq!(program.insts[0].to_string(), text, "`{text}` assembles to another instruction");
}

/// A second sign after `0x`, a negated `i64::MIN`, and data segments that
/// would run into the stack (2146430976 bytes above the data base).
const HOSTILE_SOURCES: &[&str] = &[
    "li x1, -0x-8000000000000000\nhalt",
    ".data\n.word -0x-8000000000000000",
    "li x1, 0x-5\nhalt",
    ".data\n.word 0x-5",
    ".data\n.zero 0x7fffffffffffffff",
    ".data\n.space 4294967296",
    ".data\n.word 1\n.zero 2146430969",
];

#[test]
fn hostile_assembler_inputs_are_errors() {
    for source in HOSTILE_SOURCES {
        assert!(asm::assemble(source).is_err(), "{source:?} must be rejected");
    }
}

#[test]
fn random_assembler_sources_never_panic() {
    tdtm_prng::cases(2_000, 0xA55E_B1E5, |rng| {
        let source: Vec<String> = (0..rng.below(10)).map(|_| random_asm_line(rng)).collect();
        let source = source.join("\n");
        feed_asm(&source);
        for _ in 0..4 {
            feed_asm(&mutate(rng, &source));
        }
    });
}

#[test]
fn mutated_kernel_and_hostile_sources_never_panic() {
    let kernels = [
        kernels::int_dense(4),
        kernels::fp_dense(4, 2),
        kernels::load_bound(256, 4, true),
        kernels::pointer_chase(8, 3),
        kernels::branchy(3, 2),
        kernels::call_heavy(2),
        kernels::matmul(2),
    ];
    for source in &kernels {
        let program = asm::assemble(source).expect("kernel sources assemble");
        for inst in &program.insts {
            assert_round_trips(inst);
        }
    }
    let seeds: Vec<&str> =
        kernels.iter().map(String::as_str).chain(HOSTILE_SOURCES.iter().copied()).collect();
    for source in &seeds {
        feed_asm(source);
    }
    tdtm_prng::cases(400, 0x6E27_E1A5, |rng| {
        let source = rng.choose(&seeds);
        for _ in 0..4 {
            feed_asm(&mutate(rng, source));
        }
    });
}

#[test]
fn random_words_decode_to_instructions_that_round_trip() {
    tdtm_prng::cases(20_000, 0xDEC0_DE5E, |rng| {
        let word = rng.next_u64() as u32;
        let ext = (rng.next_f64() < 0.7).then(|| rng.next_u64() as u32);
        if let Ok(inst) = encoding::decode(word, ext) {
            assert_round_trips(&inst);
        }
    });
}
