//! Golden regression tests: every paper binary must reproduce its
//! checked-in `paper_output/` file byte for byte. These outputs are
//! analytic, so any diff is a real behavior change — regenerate
//! deliberately with `./regenerate_paper.sh` and review the diff. The
//! one exception is `serial_tuning`'s host wall-clock line, the only
//! line that differs between runs: it is compared up to its label.

use std::process::Command;

fn golden(bin_path: &str, name: &str) {
    golden_masked(bin_path, name, None);
}

/// Like [`golden`], but a line starting with `volatile` is compared
/// only up to that prefix.
fn golden_masked(bin_path: &str, name: &str, volatile: Option<&str>) {
    let out = Command::new(bin_path)
        .output()
        .unwrap_or_else(|e| panic!("run {name}: {e}"));
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../paper_output");
    let expected = std::fs::read_to_string(format!("{golden_path}/{name}.txt"))
        .unwrap_or_else(|e| panic!("read golden {name}.txt: {e}"));
    let mask = |text: &str| -> String {
        let Some(prefix) = volatile else {
            return text.to_string();
        };
        text.split_inclusive('\n')
            .map(|line| {
                if line.starts_with(prefix) {
                    prefix
                } else {
                    line
                }
            })
            .collect()
    };
    assert_eq!(
        mask(&stdout),
        mask(&expected),
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

#[test]
fn ablation_fusion_matches_golden() {
    golden(env!("CARGO_BIN_EXE_ablation_fusion"), "ablation_fusion");
}

#[test]
fn ablation_mlp_matches_golden() {
    golden(env!("CARGO_BIN_EXE_ablation_mlp"), "ablation_mlp");
}

#[test]
fn ablation_scheduling_matches_golden() {
    golden(
        env!("CARGO_BIN_EXE_ablation_scheduling"),
        "ablation_scheduling",
    );
}

#[test]
fn example4_matches_golden() {
    golden(env!("CARGO_BIN_EXE_example4"), "example4");
}

#[test]
fn fig1_matches_golden() {
    golden(env!("CARGO_BIN_EXE_fig1"), "fig1");
}

#[test]
fn fig2_matches_golden() {
    golden(env!("CARGO_BIN_EXE_fig2"), "fig2");
}

#[test]
fn fig3_matches_golden() {
    golden(env!("CARGO_BIN_EXE_fig3"), "fig3");
}

#[test]
fn perfex_matches_golden() {
    golden(env!("CARGO_BIN_EXE_perfex"), "perfex");
}

#[test]
fn related_work_matches_golden() {
    golden(env!("CARGO_BIN_EXE_related_work"), "related_work");
}

#[test]
fn traffic_matches_golden() {
    golden(env!("CARGO_BIN_EXE_traffic"), "traffic");
}

#[test]
fn serial_tuning_matches_golden_but_its_wall_clock() {
    golden_masked(
        env!("CARGO_BIN_EXE_serial_tuning"),
        "serial_tuning",
        Some("Host wall clock"),
    );
}
