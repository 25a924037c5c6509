//! Committed report digests: the simulator's output pinned across changes.
//!
//! The identity tests elsewhere compare two execution paths of the *same*
//! build with each other, so a change that moves both paths the same way
//! passes them all. This test compares against digests recorded once and
//! committed: a fixed set of cells is run at [`SimConfig::quick_test`]
//! with the heatsink raised so the DTM policies engage — ALU-bound `gcc`,
//! mispredicting `crafty` and bursty FP `art`, each under no DTM, toggle1
//! and PID, plus the cold-miss pointer chase `vpr` (too cool for DTM to
//! engage) under no DTM. Each `RunReport`'s `Debug` rendering (every `f64`
//! in shortest-roundtrip form, so every bit pattern short of NaN) is
//! hashed with the workspace's FNV-1a, and the hash must equal the table
//! below.
//!
//! A deliberate change to the model's output changes these digests; the
//! failure message prints the new table so it can be reviewed and
//! re-recorded. A performance change must leave them untouched.

use std::fmt::Write as _;
use tdtm::core::{SimConfig, Simulator};
use tdtm::dtm::PolicyKind;
use tdtm::workloads::by_name;
use tdtm_prng::Fnv128;

/// `(workload, policy, FNV-1a 128 of format!("{report:?}"))`.
const GOLDEN: [(&str, PolicyKind, u128); 10] = [
    ("gcc", PolicyKind::None, 0x4d0295e5b80ec1c424d6b98bc05fa4c1),
    ("gcc", PolicyKind::Toggle1, 0x07e6548e03a60be2aab1224fa02a441c),
    ("gcc", PolicyKind::Pid, 0x16402074d82a8fb7ec9991a8ca745690),
    ("crafty", PolicyKind::None, 0x00aeaed98d3ab5f813b62bd8e7546a04),
    ("crafty", PolicyKind::Toggle1, 0x521751e37c9ace3a7d486aa5b0020241),
    ("crafty", PolicyKind::Pid, 0x0d15a2a6e8017106322cb3f101f84d06),
    ("art", PolicyKind::None, 0x909de00fc54d941eac0760bb188d3b49),
    ("art", PolicyKind::Toggle1, 0x6bc176c8899d6033634223e3ce390376),
    ("art", PolicyKind::Pid, 0x80a04f57759cd998989551793f404c47),
    ("vpr", PolicyKind::None, 0x7f341eaf32fc53e02e45e743273a3c12),
];

fn report_digest(bench: &str, policy: PolicyKind) -> (u128, u64) {
    let w = by_name(bench).expect("suite workload");
    let mut cfg = SimConfig::quick_test();
    cfg.heatsink_temp = 107.0;
    cfg.dtm.policy = policy;
    let report = Simulator::for_workload(cfg, &w).run();
    let mut h = Fnv128::new();
    write!(h, "{report:?}").expect("hashing never fails");
    (h.finish(), report.engaged_samples)
}

#[test]
fn reports_match_committed_digests() {
    let mut table = String::new();
    let mut mismatches = 0;
    for (bench, policy, want) in GOLDEN {
        let (got, engaged) = report_digest(bench, policy);
        assert!(
            policy == PolicyKind::None || engaged > 0,
            "{bench}/{policy:?}: the policy never engaged, so the cell pins nothing of it"
        );
        if got != want {
            mismatches += 1;
        }
        writeln!(table, "    ({bench:?}, PolicyKind::{policy:?}, {got:#034x}),").unwrap();
    }
    assert_eq!(mismatches, 0, "{mismatches} report digest(s) changed; current table:\n{table}");
}
