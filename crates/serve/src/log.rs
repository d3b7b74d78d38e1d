//! Structured access logging for `llpd`.
//!
//! Every finished request emits one NDJSON line on stderr — a single
//! JSON object per line, so `jq`, `grep`, and log shippers can consume
//! the stream without a parser of their own. The line is built with the
//! same [`Json`] serializer the API uses, which guarantees correct
//! string escaping for hostile request paths.
//!
//! Verbosity is controlled by the `LLPD_LOG` environment variable,
//! read once per process:
//!
//! * `error` — only failed requests (status ≥ 500);
//! * `info` (default) — every completed request.
//!
//! Any other value falls back to `info`. Each line is written with a
//! single locked `writeln!`, so concurrent connection threads never
//! interleave partial lines.

use llp::obs::json::Json;
use std::io::Write;
use std::sync::OnceLock;

/// Log verbosity, parsed from `LLPD_LOG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Only server-side failures (status ≥ 500).
    Error,
    /// Every completed request (the default).
    Info,
}

impl LogLevel {
    /// Parse a `LLPD_LOG` value; anything unrecognized means `Info`.
    #[must_use]
    pub fn parse(value: &str) -> Self {
        match value.trim().to_ascii_lowercase().as_str() {
            "error" => Self::Error,
            _ => Self::Info,
        }
    }
}

static LEVEL: OnceLock<LogLevel> = OnceLock::new();

/// The process-wide log level: `LLPD_LOG` parsed once, `Info` when
/// unset.
pub fn level() -> LogLevel {
    *LEVEL.get_or_init(|| {
        std::env::var("LLPD_LOG")
            .map(|v| LogLevel::parse(&v))
            .unwrap_or(LogLevel::Info)
    })
}

/// Whether an access line for `status` should be emitted at `level`.
#[must_use]
pub fn logs_status(level: LogLevel, status: u16) -> bool {
    match level {
        LogLevel::Error => status >= 500,
        LogLevel::Info => true,
    }
}

/// Build one NDJSON access-log line (without the trailing newline).
///
/// Field order is fixed so the stream is diffable: `ts_ms`, `req`,
/// `method`, `path`, `status`, `ms`, `trace_id` (null when the request
/// produced no trace).
#[must_use]
pub fn access_line(
    ts_ms: u64,
    req_id: u64,
    method: &str,
    path: &str,
    status: u16,
    latency_ms: f64,
    trace_id: Option<u64>,
) -> String {
    Json::object(vec![
        ("ts_ms", Json::from_u64(ts_ms)),
        ("req", Json::from_u64(req_id)),
        ("method", Json::str(method)),
        ("path", Json::str(path)),
        ("status", Json::Num(f64::from(status))),
        ("ms", Json::Num((latency_ms * 1000.0).round() / 1000.0)),
        ("trace_id", trace_id.map_or(Json::Null, Json::from_u64)),
    ])
    .to_string()
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
#[must_use]
pub fn epoch_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// Emit one access line for a finished request, honoring the
/// process-wide level. One locked write per line: concurrent callers
/// never interleave.
pub fn access(req_id: u64, method: &str, path: &str, status: u16, ms: f64, trace_id: Option<u64>) {
    if !logs_status(level(), status) {
        return;
    }
    let line = access_line(epoch_ms(), req_id, method, path, status, ms, trace_id);
    let stderr = std::io::stderr();
    let mut handle = stderr.lock();
    let _ = writeln!(handle, "{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_levels_with_an_info_fallback() {
        assert_eq!(LogLevel::parse("error"), LogLevel::Error);
        assert_eq!(LogLevel::parse(" ERROR "), LogLevel::Error);
        assert_eq!(LogLevel::parse("debug"), LogLevel::Info);
        assert_eq!(LogLevel::parse("info"), LogLevel::Info);
        assert_eq!(LogLevel::parse("verbose?"), LogLevel::Info);
        assert_eq!(LogLevel::parse(""), LogLevel::Info);
    }

    #[test]
    fn error_level_only_logs_failures() {
        assert!(!logs_status(LogLevel::Error, 200));
        assert!(!logs_status(LogLevel::Error, 429));
        assert!(logs_status(LogLevel::Error, 500));
        assert!(logs_status(LogLevel::Info, 200));
        assert!(logs_status(LogLevel::Info, 404));
    }

    #[test]
    fn access_lines_are_valid_json_with_fixed_fields() {
        let line = access_line(
            1_700_000_000_123,
            7,
            "GET",
            "/v1/solve",
            200,
            12.3456,
            Some(42),
        );
        let parsed = Json::parse(&line).expect("line parses");
        assert_eq!(
            parsed.get("ts_ms").and_then(Json::as_u64),
            Some(1_700_000_000_123)
        );
        assert_eq!(parsed.get("req").and_then(Json::as_u64), Some(7));
        assert_eq!(parsed.get("method").and_then(Json::as_str), Some("GET"));
        assert_eq!(parsed.get("path").and_then(Json::as_str), Some("/v1/solve"));
        assert_eq!(parsed.get("status").and_then(Json::as_u64), Some(200));
        assert_eq!(parsed.get("ms").and_then(Json::as_f64), Some(12.346));
        assert_eq!(parsed.get("trace_id").and_then(Json::as_u64), Some(42));
        assert!(!line.contains('\n'), "one line per record");
    }

    #[test]
    fn missing_trace_ids_serialize_as_null() {
        let line = access_line(1, 2, "GET", "/metrics", 200, 0.5, None);
        let parsed = Json::parse(&line).expect("line parses");
        assert!(matches!(parsed.get("trace_id"), Some(Json::Null)));
    }

    #[test]
    fn hostile_paths_are_escaped() {
        let line = access_line(1, 2, "GET", "/a\"b\\c\n", 404, 0.1, None);
        let parsed = Json::parse(&line).expect("escaped line parses");
        assert_eq!(
            parsed.get("path").and_then(Json::as_str),
            Some("/a\"b\\c\n")
        );
    }
}
