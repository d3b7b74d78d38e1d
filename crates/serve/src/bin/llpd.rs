//! `llpd` — the llpserve daemon.
//!
//! ```text
//! llpd [--addr 127.0.0.1:8080] [--workers N] [--queue N]
//!      [--deadline-secs N] [--cache-capacity N] [--tune-db PATH]
//!      [--memory-budget BYTES] [--telemetry-window-ms N]
//!      [--telemetry-out PATH]
//! ```
//!
//! `--workers` sizes the one worker team and the executor count: up to
//! that many solves run at once, sharing the team region by region; a
//! lone solve gets all of it.
//!
//! `--cache-capacity` bounds the content-addressed solve-result cache
//! (entries; 0 disables caching — identical in-flight solves still
//! coalesce).
//!
//! `--memory-budget` (or the `LLPD_MEM_BUDGET` environment variable)
//! caps the estimated per-solve memory footprint in bytes; over-budget
//! solves are rejected with 413 before any pool work. Unset admits
//! everything. The cap is per solve, and up to `--workers` solves run
//! at once.
//!
//! `--tune-db` (or the `LLPD_TUNE_DB` environment variable) names a
//! tune database to load at startup; `"schedule": "auto"` solves and
//! `/v1/advise` resolve against it. A database that fails to load is
//! warned about and skipped — the server still starts.
//!
//! `--telemetry-window-ms` sets the width of the continuous-telemetry
//! windows (`/v1/stats`); 0 disables the windows (`/metrics` counts
//! the same either way).
//! `--telemetry-out` names a file the final drain snapshot is written
//! to on shutdown; without it the snapshot goes to stderr.
//!
//! The NDJSON access log on stderr is gated by `LLPD_LOG`
//! (`error` or `info`; anything else, `debug` included, means `info`).
//!
//! Runs until SIGINT/SIGTERM, then drains in-flight work, emits the
//! telemetry drain snapshot, and exits.

use serve::{signal, Server, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;

/// Paths parsed alongside the [`ServerConfig`]: the tune database to
/// load and where to write the drain telemetry snapshot.
#[derive(Debug, Default, PartialEq, Eq)]
struct Paths {
    tune_db: Option<PathBuf>,
    telemetry_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<(ServerConfig, Paths), String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:8080".to_string(),
        ..ServerConfig::default()
    };
    let mut paths = Paths::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be a positive integer".to_string())?;
                if config.workers == 0 {
                    return Err("--workers must be a positive integer".to_string());
                }
            }
            "--queue" => {
                config.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|_| "--queue must be an integer".to_string())?;
            }
            "--deadline-secs" => {
                let secs: u64 = value("--deadline-secs")?
                    .parse()
                    .map_err(|_| "--deadline-secs must be an integer".to_string())?;
                config.deadline = Duration::from_secs(secs);
            }
            "--cache-capacity" => {
                config.cache_capacity = value("--cache-capacity")?
                    .parse()
                    .map_err(|_| "--cache-capacity must be an integer (0 disables)".to_string())?;
            }
            "--telemetry-window-ms" => {
                config.telemetry_window_ms = value("--telemetry-window-ms")?.parse().map_err(
                    |_| "--telemetry-window-ms must be an integer (0 disables)".to_string(),
                )?;
            }
            "--telemetry-out" => {
                paths.telemetry_out = Some(PathBuf::from(value("--telemetry-out")?));
            }
            "--tune-db" => paths.tune_db = Some(PathBuf::from(value("--tune-db")?)),
            "--memory-budget" => {
                let bytes: u64 = value("--memory-budget")?
                    .parse()
                    .map_err(|_| "--memory-budget must be a positive byte count".to_string())?;
                if bytes == 0 {
                    return Err("--memory-budget must be a positive byte count".to_string());
                }
                config.memory_budget = Some(bytes);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: llpd [--addr HOST:PORT] [--workers N] [--queue N] [--deadline-secs N] [--cache-capacity N] [--tune-db PATH] [--memory-budget BYTES] [--telemetry-window-ms N] [--telemetry-out PATH]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok((config, paths))
}

/// Load the startup tune database: the `--tune-db` flag wins, else
/// `LLPD_TUNE_DB`. Load failures warn and fall back to serving
/// untuned — a stale path must not keep the daemon down.
fn load_tune_db(flag: Option<PathBuf>) -> Option<tune::TuneDb> {
    let path = flag.or_else(|| llp::env::path("LLPD_TUNE_DB"))?;
    match tune::TuneDb::load(&path) {
        Ok(db) => {
            eprintln!(
                "llpd: loaded tune db {} ({} kernels, pool width {})",
                path.display(),
                db.entries.len(),
                db.pool_width
            );
            Some(db)
        }
        Err(msg) => {
            eprintln!("llpd: warning: {msg}; serving without a tune db");
            None
        }
    }
}

/// Deliver the drain snapshot: to `--telemetry-out` when given (errors
/// fall back to stderr — a full disk must not eat the final windows),
/// else to stderr.
fn write_drain_snapshot(snapshot: &llp::obs::json::Json, out: Option<&PathBuf>) {
    let text = snapshot.to_pretty_string();
    if let Some(path) = out {
        match std::fs::write(path, &text) {
            Ok(()) => {
                eprintln!("llpd: drain telemetry written to {}", path.display());
                return;
            }
            Err(e) => eprintln!("llpd: warning: cannot write {}: {e}", path.display()),
        }
    }
    eprintln!("{}", snapshot);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut config, paths) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    config.tune_db = load_tune_db(paths.tune_db);
    if config.memory_budget.is_none() {
        config.memory_budget = llp::env::positive_usize("LLPD_MEM_BUDGET").map(|v| v as u64);
    }
    let workers = config.workers;
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("llpd: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "llpd listening on http://{} ({workers} workers, one executor each, one team)",
        server.addr()
    );
    signal::install();
    while !signal::requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("llpd: shutdown requested, draining");
    let snapshot = server.shutdown_with_telemetry();
    write_drain_snapshot(&snapshot, paths.telemetry_out.as_ref());
    println!("llpd: drained, exiting");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags() {
        let args: Vec<String> = [
            "--addr",
            "0.0.0.0:9999",
            "--workers",
            "4",
            "--queue",
            "3",
            "--cache-capacity",
            "5",
            "--telemetry-window-ms",
            "250",
            "--memory-budget",
            "1048576",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let (config, paths) = parse_args(&args).unwrap();
        assert_eq!(config.addr, "0.0.0.0:9999");
        assert_eq!(config.workers, 4);
        assert_eq!(config.queue_capacity, 3);
        assert_eq!(config.cache_capacity, 5);
        assert_eq!(config.telemetry_window_ms, 250);
        assert_eq!(config.memory_budget, Some(1_048_576));
        assert_eq!(paths, Paths::default());
        assert!(parse_args(&["--cache-capacity".to_string(), "x".to_string()]).is_err());
        assert!(parse_args(&["--memory-budget".to_string(), "0".to_string()]).is_err());
        assert!(parse_args(&["--memory-budget".to_string(), "x".to_string()]).is_err());
        // The executor partition is gone, and so is its flag.
        assert!(parse_args(&["--shards".to_string(), "2".to_string()]).is_err());
        assert!(parse_args(&["--workers".to_string(), "0".to_string()]).is_err());
        assert!(parse_args(&["--telemetry-window-ms".to_string(), "x".to_string()]).is_err());
        assert!(parse_args(&["--bogus".to_string()]).is_err());
        assert!(parse_args(&["--workers".to_string()]).is_err());
    }

    #[test]
    fn telemetry_flags_parse_and_default_off_path() {
        let args: Vec<String> = ["--telemetry-out", "/tmp/drain.json"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let (config, paths) = parse_args(&args).unwrap();
        assert_eq!(paths.telemetry_out, Some(PathBuf::from("/tmp/drain.json")));
        // The window default comes from the library, not the flag.
        assert_eq!(
            config.telemetry_window_ms,
            serve::telemetry::DEFAULT_WINDOW_MS
        );
        assert!(parse_args(&["--telemetry-out".to_string()]).is_err());
    }

    #[test]
    fn tune_db_flag_parses_and_bad_paths_fall_back() {
        let args: Vec<String> = ["--tune-db", "/tmp/db.json"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let (_, paths) = parse_args(&args).unwrap();
        assert_eq!(paths.tune_db, Some(PathBuf::from("/tmp/db.json")));
        assert!(parse_args(&["--tune-db".to_string()]).is_err());
        // A missing file warns and serves untuned instead of dying.
        assert!(load_tune_db(Some(PathBuf::from("/nonexistent/tune.json"))).is_none());
        assert!(load_tune_db(None).is_none());
    }
}
