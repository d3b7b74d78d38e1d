//! The host a result was measured on, and the process environment the
//! measurement needs.

use llp::obs::json::Json;
use std::process::Command;

/// Variables that change how the program under test sizes or records
/// itself. They are removed before anything runs, and the names that
/// were set are recorded with the result.
pub const CLEARED: &[&str] = &[
    "LLP_WORKERS",
    "LLP_FLIGHT",
    "LLPD_SHARDS",
    "LLPD_MEM_BUDGET",
    "LLPD_TUNE_DB",
];

/// Clear [`CLEARED`] and silence the server's access log: at the
/// default `info` level it writes one stderr line per request, which
/// would make the log sink part of the measurement. Call before any
/// thread starts — `llp` and `serve` read these once per process.
pub fn prepare_environment() -> Vec<&'static str> {
    let was_set: Vec<&'static str> = CLEARED
        .iter()
        .copied()
        .filter(|name| std::env::var_os(name).is_some())
        .collect();
    for name in CLEARED {
        std::env::remove_var(name);
    }
    std::env::set_var("LLPD_LOG", "error");
    was_set
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The worker and client count every workload runs at.
pub fn parallelism() -> usize {
    nproc().min(4)
}

/// Peak resident set of this process in MiB (`VmHWM`), NaN where
/// `/proc` does not say.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host block a result file carries.
pub fn host_block(seed: u64, cleared: &[&str], build_s: Option<f64>) -> Json {
    Json::object(vec![
        ("nproc", Json::from_usize(nproc())),
        ("parallelism", Json::from_usize(parallelism())),
        ("cpu_model", Json::Str(cpu_model())),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::from_u64(seed)),
        (
            "cleared_env",
            Json::Array(cleared.iter().map(|name| Json::str(name)).collect()),
        ),
        ("build_s", build_s.map_or(Json::Null, Json::Num)),
    ])
}
