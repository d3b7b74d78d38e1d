//! The repository's layered benchmark. See README.md beside the
//! manifest and BENCHMARK.json at the repository root.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, one result line
//! benchmark run [--seed N] [--seconds S] [--runs K] [--workload NAME] [--out PATH]
//! benchmark compare A.json B.json
//! benchmark spec                                               print BENCHMARK.json
//! benchmark glossary                                           print README.md's metric tables
//! ```

mod compare;
mod host;
mod metrics;
mod probes;
mod report;
mod rng;
mod run;
mod serving;
mod solvers;
mod spans;
mod stats;
mod suite;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// `--key value` pairs after the subcommand, and what is left over.
fn options(args: &[String]) -> Result<(BTreeMap<String, String>, Vec<String>), String> {
    let mut pairs = BTreeMap::new();
    let mut rest = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.strip_prefix("--") {
            Some(key) => {
                let value = args
                    .next()
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                pairs.insert(key.to_string(), value.clone());
            }
            None => rest.push(arg.clone()),
        }
    }
    Ok((pairs, rest))
}

fn take<T: std::str::FromStr>(
    pairs: &mut BTreeMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match pairs.remove(key) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("--{key}: cannot read `{text}`")),
        None => default.ok_or_else(|| format!("--{key} is required")),
    }
}

fn no_more(pairs: &BTreeMap<String, String>) -> Result<(), String> {
    match pairs.keys().next() {
        Some(key) => Err(format!("unknown option --{key}")),
        None => Ok(()),
    }
}

fn dispatch(args: &[String], cleared: &[&str]) -> Result<bool, String> {
    let subcommand = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str);
    let (mut pairs, rest) = options(&args[usize::from(subcommand.is_some())..])?;
    match subcommand {
        None => {
            let seconds: f64 = take(&mut pairs, "seconds", None)?;
            let trace: u8 = take(&mut pairs, "trace", None)?;
            let args = run::RunArgs {
                workload: take(&mut pairs, "workload", None)?,
                seed: take(&mut pairs, "seed", None)?,
                seconds,
                trace: trace != 0,
            };
            no_more(&pairs)?;
            if !(seconds > 0.0 && seconds <= 3600.0) || trace > 1 || !rest.is_empty() {
                return Err(
                    "--seconds must be in (0, 3600], --trace 0 or 1, and nothing else".to_string(),
                );
            }
            run::single(&args)
        }
        Some("run") => {
            let seed = take(&mut pairs, "seed", Some(1))?;
            let args = suite::SuiteArgs {
                seed,
                seconds: take(&mut pairs, "seconds", Some(metrics::RUN_SECONDS as f64))?,
                runs: take(&mut pairs, "runs", Some(1))?,
                workload: pairs.remove("workload"),
                out: take(
                    &mut pairs,
                    "out",
                    Some(
                        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                            .join(format!("results/run-seed{seed}.json")),
                    ),
                )?,
            };
            no_more(&pairs)?;
            if args.runs == 0 || !rest.is_empty() {
                return Err("run takes --runs >= 1 and no positional argument".to_string());
            }
            suite::run(&args, cleared)
        }
        Some("compare") => match rest.as_slice() {
            [a, b] if pairs.is_empty() => compare::compare(a, b),
            _ => Err("compare takes exactly two result files".to_string()),
        },
        Some("spec") => {
            print!("{}", metrics::benchmark_json().to_pretty_string());
            Ok(true)
        }
        Some("glossary") => {
            print!("{}", metrics::glossary());
            Ok(true)
        }
        Some(other) => Err(format!(
            "unknown subcommand `{other}` (run, compare, spec, glossary)"
        )),
    }
}

fn main() -> ExitCode {
    // Before any thread exists: `llp` and `serve` read these once.
    let cleared = host::prepare_environment();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, &cleared) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
