//! Golden regression tests: for every row of `bench::paper::TABLES`,
//! `paper NAME` must reproduce the checked-in `paper_output/NAME.txt`
//! byte for byte. These outputs are analytic, so any diff is a real
//! behavior change — regenerate deliberately with `./regenerate_paper.sh`
//! and review the diff. The one exception is `serial_tuning`'s host
//! wall-clock line, the only line that differs between runs: it is
//! compared up to its label.

use bench::paper::TABLES;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../paper_output");

/// The label of the one line that differs between runs.
const VOLATILE: &str = "Host wall clock";

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run paper {args:?}: {e}"))
}

fn golden(name: &str) {
    let out = paper(&[name]);
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let expected = std::fs::read_to_string(format!("{GOLDEN_DIR}/{name}.txt"))
        .unwrap_or_else(|e| panic!("read golden {name}.txt: {e}"));
    let mask = |text: &str| -> String {
        text.split_inclusive('\n')
            .map(|line| {
                if line.starts_with(VOLATILE) {
                    VOLATILE
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
fn every_table_matches_its_golden() {
    let mut goldens: Vec<String> = std::fs::read_dir(GOLDEN_DIR)
        .expect("read paper_output/")
        .map(|entry| entry.expect("paper_output/ entry").file_name())
        .filter_map(|file| file.to_str()?.strip_suffix(".txt").map(String::from))
        .collect();
    goldens.sort();
    let mut names = TABLES.map(|(name, _)| name);
    names.sort_unstable();
    assert_eq!(
        goldens, names,
        "paper_output/*.txt must be exactly the tables bench::paper::TABLES lists"
    );

    // At most one `paper` process per CPU: each thread runs the next
    // row until none is left.
    let next = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    std::thread::scope(|s| {
        for _ in 0..threads.min(TABLES.len()) {
            s.spawn(|| {
                while let Some(&(name, _)) = TABLES.get(next.fetch_add(1, Ordering::Relaxed)) {
                    golden(name);
                }
            });
        }
    });
}

#[test]
fn paper_alone_lists_every_table_in_order() {
    let out = paper(&[]);
    assert!(out.status.success(), "paper exited with {}", out.status);
    let listed = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(
        listed.lines().collect::<Vec<_>>(),
        TABLES.map(|(name, _)| name)
    );
}

#[test]
fn an_unknown_table_exits_non_zero_naming_it() {
    let out = paper(&["table1", "nosuch"]);
    assert!(!out.status.success(), "paper nosuch exited with success");
    assert!(out.stdout.is_empty(), "paper printed before it failed");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 output");
    assert!(stderr.contains("`nosuch`"), "{stderr}");
}
