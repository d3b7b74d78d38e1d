//! Prints the paper's tables and figures. `paper` alone lists their
//! names, one a line; `paper NAME…` prints those tables in the order
//! given, and an unknown name prints nothing and exits non-zero.

use bench::paper::TABLES;
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        TABLES.iter().for_each(|(name, _)| println!("{name}"));
    }
    let mut prints = Vec::new();
    for name in &names {
        let Some(&(_, print)) = TABLES.iter().find(|(table, _)| table == name) else {
            eprintln!("paper: no table named `{name}` (run `paper` alone to list them)");
            return ExitCode::FAILURE;
        };
        prints.push(print);
    }
    prints.iter().for_each(|print| print());
    ExitCode::SUCCESS
}
