//! `run`: every workload in a child process of its own (clean `VmHWM`,
//! no cache state carried from one workload to the next), untraced runs
//! first, then one traced run, gathered into one result file.

use crate::host;
use crate::metrics::{self, END_TO_END, WORKLOADS};
use crate::stats;
use llp::obs::json::Json;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Untraced runs per workload, on seeds `seed`, `seed + 1`, …
    pub runs: u64,
    pub workload: Option<String>,
    pub out: PathBuf,
}

/// Start this program again for one run, echo what it prints, and
/// return its result line and whether it exited with code 0.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut process = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = process.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read child: {e}"))?;
        if !line.starts_with('{') {
            println!("    {line}");
        }
        last = line;
    }
    let status = process.wait().map_err(|e| format!("wait: {e}"))?;
    let result = Json::parse(&last)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {status}"))?;
    Ok((result, status.success()))
}

/// `{"name": value, …}` from a result line's `metrics`.
fn values_of(result: &Json) -> Vec<(String, Json)> {
    result
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| (name.clone(), m.get("value").cloned().unwrap_or(Json::Null)))
        .collect()
}

/// Time a build of this package. An up-to-date tree reads as a
/// fraction of a second; a cold one as the real compile time.
fn build_seconds() -> Option<f64> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let start = Instant::now();
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(manifest)
        .status()
        .ok()?;
    status.success().then(|| start.elapsed().as_secs_f64())
}

/// Run the suite; `Ok(false)` when any run was wrong or incomplete.
pub fn run(args: &SuiteArgs, cleared: &[&str]) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![
            WORKLOADS
                .iter()
                .find(|w| w.name == name)
                .ok_or_else(|| format!("unknown workload `{name}`"))?
                .name,
        ],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let build_s = build_seconds();
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in names {
        println!("== {name}");
        let mut runs = Vec::new();
        for seed in args.seed..args.seed + args.runs {
            println!("  -- untraced, seed {seed}");
            let (result, exited_ok) = child(name, seed, args.seconds, false)?;
            all_correct &= exited_ok && result.get("correct").and_then(Json::as_bool) == Some(true);
            let field = |key: &str| result.get(key).cloned().unwrap_or(Json::Null);
            runs.push(Json::object(vec![
                ("seed", Json::from_u64(seed)),
                ("correct", field("correct")),
                ("attempted", field("attempted")),
                ("failed", field("failed")),
                ("metrics", Json::Object(values_of(&result))),
            ]));
        }
        println!("  -- traced, seed {}", args.seed);
        let (traced, exited_ok) = child(name, args.seed, args.seconds, true)?;
        all_correct &= exited_ok && traced.get("correct").and_then(Json::as_bool) == Some(true);

        println!("  -- {name}: end to end over {} run(s)", args.runs);
        let mut summary = Vec::new();
        for metric in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(metric.name)?.as_f64())
                .collect();
            let median = stats::median_of(&values);
            let (q1, q3) = stats::quartiles(&values).unwrap_or((median, median));
            println!(
                "  {:<16} {median:>16.4} {:<6} [q1 {q1:.4}, q3 {q3:.4}]  bound {}",
                metric.name, metric.unit, metric.bound
            );
            summary.push((
                metric.name.to_string(),
                Json::object(vec![
                    ("median", Json::Num(median)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("unit", Json::str(metric.unit)),
                ]),
            ));
        }
        workloads.push((
            name.to_string(),
            Json::object(vec![
                ("runs", Json::Array(runs)),
                ("end_to_end", Json::Object(summary)),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    let document = Json::object(vec![
        ("host", host::host_block(args.seed, cleared, build_s)),
        ("seconds", Json::Num(args.seconds)),
        (
            "run_seconds_of_contract",
            Json::from_u64(metrics::RUN_SECONDS),
        ),
        ("workloads", Json::Object(workloads)),
    ]);
    if let Some(dir) = args.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&args.out, document.to_pretty_string())
        .map_err(|e| format!("{}: {e}", args.out.display()))?;
    println!("results written to {}", args.out.display());
    Ok(all_correct)
}
