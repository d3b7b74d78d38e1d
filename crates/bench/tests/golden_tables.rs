//! Golden regression tests: the `table1`–`table5` binaries and
//! `amdahl_bc` (the one paper binary that goes through `llp::Advisor`)
//! must reproduce the checked-in `paper_output/` files byte for byte. These
//! outputs are analytic (no wall-clock content), so any diff is a real
//! behavior change — regenerate deliberately with
//! `./regenerate_paper.sh` and review the diff.

use std::process::Command;

fn golden(bin_path: &str, name: &str) {
    let out = Command::new(bin_path)
        .output()
        .unwrap_or_else(|e| panic!("run {name}: {e}"));
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../paper_output");
    let expected = std::fs::read_to_string(format!("{golden_path}/{name}.txt"))
        .unwrap_or_else(|e| panic!("read golden {name}.txt: {e}"));
    assert_eq!(
        stdout, expected,
        "{name} stdout drifted from paper_output/{name}.txt — if \
         intentional, regenerate with ./regenerate_paper.sh"
    );
}

#[test]
fn table1_matches_golden() {
    golden(env!("CARGO_BIN_EXE_table1"), "table1");
}

#[test]
fn table2_matches_golden() {
    golden(env!("CARGO_BIN_EXE_table2"), "table2");
}

#[test]
fn table3_matches_golden() {
    golden(env!("CARGO_BIN_EXE_table3"), "table3");
}

#[test]
fn table4_matches_golden() {
    golden(env!("CARGO_BIN_EXE_table4"), "table4");
}

#[test]
fn table5_matches_golden() {
    golden(env!("CARGO_BIN_EXE_table5"), "table5");
}

#[test]
fn amdahl_bc_matches_golden() {
    golden(env!("CARGO_BIN_EXE_amdahl_bc"), "amdahl_bc");
}
