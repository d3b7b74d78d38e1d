//! End-to-end tests for `llpd`: real sockets, real threads, one shared
//! pool.
//!
//! Timing-sensitive behavior (back-pressure, graceful shutdown,
//! deadlines) is made deterministic with the server's `job_gate` test
//! hook: holding the gate pins the executor between popping a job and
//! computing it, so tests can fill the queue and observe 429/503/drain
//! behavior without sleeping and hoping.

use llp::advisor::Advisor;
use llp::obs::json::Json;
use llp::obs::KernelSummary;
use llp::Policy;
use perfmodel::overhead::OverheadBound;
use serve::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tune::{TuneDb, TuneEntry, TUNE_SCHEMA_VERSION};

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn json(&self) -> Json {
        Json::parse(&self.body).expect("response body is JSON")
    }
}

fn send_raw(addr: SocketAddr, raw: &str) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("response has a blank line");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    Reply {
        status,
        headers,
        body: body.to_string(),
    }
}

fn get(addr: SocketAddr, target: &str) -> Reply {
    // `Connection: close` because this helper reads to EOF; keep-alive
    // behavior gets its own tests below.
    send_raw(
        addr,
        &format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, target: &str, body: &str) -> Reply {
    send_raw(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn wait_until(what: &str, mut condition: impl FnMut() -> bool) {
    let start = Instant::now();
    while !condition() {
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A JSON object's member names, in document order.
fn member_names(doc: &Json) -> Vec<&str> {
    let members = doc.as_object().expect("a JSON object");
    members.iter().map(|(k, _)| k.as_str()).collect()
}

fn metric(addr: SocketAddr, key: &str) -> u64 {
    get(addr, "/metrics?format=json")
        .json()
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("/metrics has no `{key}`"))
}

fn small_server() -> Server {
    Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind")
}

/// A keep-alive client: one connection, many requests, each response
/// framed by its `Content-Length` (never by EOF).
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Self {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, raw: &str) {
        self.stream
            .write_all(raw.as_bytes())
            .expect("write request");
    }

    /// Read exactly one response off the connection, leaving any
    /// pipelined follow-up bytes buffered.
    fn read_reply(&mut self) -> Reply {
        loop {
            if let Some(head_end) = self
                .buf
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map(|p| p + 4)
            {
                let head = String::from_utf8(self.buf[..head_end - 4].to_vec()).expect("head");
                let mut lines = head.lines();
                let status: u16 = lines
                    .next()
                    .and_then(|l| l.split(' ').nth(1))
                    .and_then(|s| s.parse().ok())
                    .expect("status line");
                let headers: Vec<(String, String)> = lines
                    .filter_map(|l| l.split_once(':'))
                    .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                    .collect();
                let length: usize = headers
                    .iter()
                    .find(|(k, _)| k.eq_ignore_ascii_case("Content-Length"))
                    .and_then(|(_, v)| v.parse().ok())
                    .expect("response declares Content-Length");
                if self.buf.len() >= head_end + length {
                    let body = String::from_utf8(self.buf[head_end..head_end + length].to_vec())
                        .expect("body");
                    self.buf.drain(..head_end + length);
                    return Reply {
                        status,
                        headers,
                        body,
                    };
                }
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read response");
            assert!(n > 0, "connection closed mid-response");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    fn get(&mut self, target: &str) -> Reply {
        self.send(&format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n"));
        self.read_reply()
    }

    fn post(&mut self, target: &str, body: &str) -> Reply {
        self.send(&format!(
            "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
        self.read_reply()
    }
}

/// A nested `cache` counter from `/metrics`.
fn cache_metric(addr: SocketAddr, key: &str) -> u64 {
    get(addr, "/metrics?format=json")
        .json()
        .get("cache")
        .expect("/metrics has a `cache` block")
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("cache block has no `{key}`"))
}

/// A solve response body with its `trace_id` value blanked, for
/// byte-equality checks across a coalesced fan-out (each waiter gets
/// its own trace id; everything else must match exactly).
fn mask_trace_id(body: &str) -> String {
    let Some(start) = body.find("\"trace_id\":") else {
        panic!("solve body has no trace_id: {body}");
    };
    let value_start = start + "\"trace_id\":".len();
    let rest = &body[value_start..];
    let value_len = rest
        .find([',', '}'])
        .expect("trace_id value is followed by , or }");
    format!("{}<id>{}", &body[..value_start], &rest[value_len..])
}

/// Parse a `Retry-After` header, asserting it exists and is at least 1.
fn retry_after(reply: &Reply) -> u64 {
    let value: u64 = reply
        .header("Retry-After")
        .expect("rejection carries Retry-After")
        .parse()
        .expect("Retry-After is an integer");
    assert!(value >= 1);
    value
}

const ADVISE_BODY: &str = r#"{
    "clock_hz": 300e6,
    "sync_cost_cycles": 10000,
    "processors": 32,
    "loops": [
        {"name": "rhs", "invocations": 10, "total_seconds": 90.0, "parallelism": 320},
        {"name": "bc", "invocations": 1000, "total_seconds": 10.0, "parallelism": 75}
    ]
}"#;

#[test]
fn solve_matches_direct_invocation_exactly() {
    let server = small_server();
    let case = f3d::service::ServiceCase {
        zones: 2,
        steps: 3,
        workers: 2,
        schedule: Policy::Static,
        zone_schedule: f3d::service::ZoneSchedule::Sequential,
        vector_width: 1,
    };
    let reply = post(
        server.addr(),
        "/v1/solve",
        r#"{"zones": 2, "steps": 3, "workers": 2}"#,
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    let served = reply.json();

    let pool = llp::Workers::recorded(2);
    let run = f3d::service::run(&case, &pool).unwrap();
    let direct = &run.output;

    // The service case is deterministic, and the JSON layer formats
    // f64 round-trip exactly — so equality here is exact, not
    // tolerance-based.
    let residuals: Vec<f64> = served
        .get("residuals")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|r| r.as_f64().unwrap())
        .collect();
    assert_eq!(residuals, direct.residuals);

    let forces = served.get("forces").unwrap();
    assert_eq!(forces.get("drag").unwrap().as_f64(), Some(direct.drag));
    assert_eq!(forces.get("lift").unwrap().as_f64(), Some(direct.lift));

    let checksums = served.get("checksums").and_then(Json::as_array).unwrap();
    assert_eq!(checksums.len(), direct.checksums.len());
    for (served_zone, (name, direct_sum)) in checksums
        .iter()
        .zip(direct.zone_names.iter().zip(&direct.checksums))
    {
        assert_eq!(
            served_zone.get("zone").unwrap().as_str(),
            Some(name.as_str())
        );
        let field = |key: &str| -> Vec<f64> {
            served_zone
                .get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap())
                .collect()
        };
        assert_eq!(field("sum"), direct_sum.sum.to_vec());
        assert_eq!(field("sum_sq"), direct_sum.sum_sq.to_vec());
        assert_eq!(field("min"), direct_sum.min.to_vec());
        assert_eq!(field("max"), direct_sum.max.to_vec());
    }

    assert_eq!(
        served.get("sync_events").unwrap().as_u64(),
        Some(run.sync_events)
    );
    // The span report is the service's own observability schema.
    let report = served.get("report").unwrap();
    assert_eq!(report.get("case").unwrap().as_str(), Some("service/z2s3w2"));
    server.shutdown();
}

#[test]
fn zone_scheduled_solve_matches_sequential_and_reports_the_split() {
    let server = small_server();
    // Sequential reference (bypass so both runs really execute).
    let reply = post(
        server.addr(),
        "/v1/solve",
        r#"{"zones": 4, "steps": 2, "workers": 2, "cache": "bypass"}"#,
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    let sequential = reply.json();
    assert_eq!(sequential.get("zone_level"), Some(&Json::Null));
    assert_eq!(
        sequential
            .get("case")
            .unwrap()
            .get("zone_schedule")
            .and_then(Json::as_str),
        Some("sequential")
    );

    let reply = post(
        server.addr(),
        "/v1/solve",
        r#"{"zones": 4, "steps": 2, "workers": 2, "zone_schedule": 2, "cache": "bypass"}"#,
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    let zoned = reply.json();
    // Bit-exact answers: the zone schedule is a performance knob.
    assert_eq!(zoned.get("residuals"), sequential.get("residuals"));
    assert_eq!(zoned.get("checksums"), sequential.get("checksums"));
    assert_eq!(zoned.get("forces"), sequential.get("forces"));
    // The response names the split and the step-DAG shape.
    assert_eq!(
        zoned
            .get("case")
            .unwrap()
            .get("zone_schedule")
            .and_then(Json::as_u64),
        Some(2)
    );
    let zone_level = zoned.get("zone_level").unwrap();
    assert_eq!(zone_level.get("shards").and_then(Json::as_u64), Some(2));
    assert_eq!(zone_level.get("zone_tasks").and_then(Json::as_u64), Some(4));
    assert_eq!(
        zone_level.get("exchange_tasks").and_then(Json::as_u64),
        Some(3)
    );
    assert!(zone_level.get("loop_workers").and_then(Json::as_u64) >= Some(1));
    // The zone gauges moved.
    let metrics = get(server.addr(), "/metrics?format=json").json();
    let zones = metrics.get("zones").unwrap();
    assert_eq!(zones.get("jobs").and_then(Json::as_u64), Some(1));
    assert_eq!(zones.get("tasks").and_then(Json::as_u64), Some(8));
    assert_eq!(zones.get("shards_last").and_then(Json::as_u64), Some(2));
    server.shutdown();
}

#[test]
fn advise_zone_level_block_reports_the_two_level_law() {
    let server = small_server();
    let body = r#"{
        "clock_hz": 300e6,
        "sync_cost_cycles": 10000,
        "processors": 8,
        "zones": 4,
        "loops": [
            {"name": "rhs", "invocations": 10, "total_seconds": 90.0, "parallelism": 320}
        ]
    }"#;
    let reply = post(server.addr(), "/v1/advise", body);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let served = reply.json();
    let zone = served.get("zone_level").unwrap();
    assert_eq!(zone.get("zones").and_then(Json::as_u64), Some(4));
    let splits = zone.get("splits").and_then(Json::as_array).unwrap();
    assert_eq!(splits.len(), 3, "plateau edges of 4 zones on 8 workers");
    // Loop advice is still the single-level document it always was.
    assert!(served.get("loops").and_then(Json::as_array).is_some());
    // Without zones, the block is null.
    let reply = post(server.addr(), "/v1/advise", ADVISE_BODY);
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.json().get("zone_level"), Some(&Json::Null));
    server.shutdown();
}

#[test]
fn advise_matches_the_advisor_exactly() {
    let server = small_server();
    let reply = post(server.addr(), "/v1/advise", ADVISE_BODY);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let served = reply.json();

    let advisor = Advisor::new(
        300e6,
        OverheadBound {
            sync_cost_cycles: 10_000,
            max_overhead_fraction: perfmodel::overhead::PAPER_OVERHEAD_FRACTION,
        },
        32,
    );
    let row = |name: &str, invocations, seconds, parallelism| KernelSummary {
        invocations,
        seconds,
        parallelism,
        ..KernelSummary::named(name)
    };
    let reports = vec![row("rhs", 10, 90.0, 320), row("bc", 1000, 10.0, 75)];
    let expected = advisor.advise(&reports);

    assert_eq!(
        served.get("serial_fraction").unwrap().as_f64(),
        Some(expected.serial_fraction)
    );
    assert_eq!(
        served.get("predicted_speedup").unwrap().as_f64(),
        Some(expected.predicted_speedup)
    );
    let loops = served.get("loops").and_then(Json::as_array).unwrap();
    assert_eq!(loops.len(), expected.loops.len());
    for (served_loop, expected_loop) in loops.iter().zip(&expected.loops) {
        assert_eq!(
            served_loop.get("name").unwrap().as_str(),
            Some(expected_loop.name.as_str())
        );
        assert_eq!(
            served_loop.get("fraction_of_total").unwrap().as_f64(),
            Some(expected_loop.fraction_of_total)
        );
        let kind = served_loop
            .get("decision")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str()
            .unwrap();
        let expected_kind = match expected_loop.decision {
            llp::advisor::LoopDecision::Parallelize { .. } => "parallelize",
            llp::advisor::LoopDecision::TooLittleWork { .. } => "too_little_work",
            llp::advisor::LoopDecision::NoParallelism => "no_parallelism",
        };
        assert_eq!(kind, expected_kind);
    }
    server.shutdown();
}

/// With no tune db loaded the `/v1/advise` document is a pure function
/// of the body (no timing content), so three responses are pinned byte
/// for byte: `ADVISE_BODY`, the same body with `"zones": 4`, and the
/// body CI's smoke job posts.
#[test]
fn advise_responses_match_goldens() {
    let server = small_server();
    let with_zones = ADVISE_BODY.replacen("\"loops\"", "\"zones\": 4,\n    \"loops\"", 1);
    assert_ne!(with_zones, ADVISE_BODY);
    let smoke = r#"{"clock_hz": 300e6, "sync_cost_cycles": 10000, "processors": 32, "loops": [{"name": "rhs", "invocations": 10, "total_seconds": 90.0, "parallelism": 320}]}"#;
    for (name, body, golden) in [
        ("advise", ADVISE_BODY, include_str!("golden/advise.json")),
        (
            "advise_zones4",
            with_zones.as_str(),
            include_str!("golden/advise_zones4.json"),
        ),
        (
            "advise_smoke",
            smoke,
            include_str!("golden/advise_smoke.json"),
        ),
    ] {
        let reply = post(server.addr(), "/v1/advise", body);
        assert_eq!(reply.status, 200, "{name}: {}", reply.body);
        assert_eq!(reply.body, golden, "{name} drifted from its golden");
    }
    server.shutdown();
}

/// One advise body cannot hold the executor: the zone-level plateau scan
/// stops at `P = zones` however wide the submitted machine, and a zone
/// count past the batch cap is a 400 naming the cap.
#[test]
fn advise_zone_level_work_is_bounded() {
    let server = small_server();
    let addr = server.addr();
    let body = |zones: u64, processors: u64| {
        ADVISE_BODY
            .replacen("32", &processors.to_string(), 1)
            .replacen(
                "\"loops\"",
                &format!("\"zones\": {zones},\n    \"loops\""),
                1,
            )
    };
    let started = Instant::now();
    let reply = post(addr, "/v1/advise", &body(2, 4_294_967_295));
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "took {:?}",
        started.elapsed()
    );
    let splits = reply.json();
    let splits = splits.get("zone_level").unwrap().get("splits").unwrap();
    assert_eq!(splits.as_array().map(<[Json]>::len), Some(2));

    let rejected = post(addr, "/v1/advise", &body(4097, 32));
    assert_eq!(rejected.status, 400);
    assert_eq!(
        rejected.json().get("error").and_then(Json::as_str),
        Some("`zones` 4097 exceeds limit 4096")
    );
    assert_eq!(post(addr, "/v1/advise", &body(4096, 32)).status, 200);
    server.shutdown();
}

#[test]
fn model_endpoints_answer_the_paper_tables() {
    let server = small_server();
    let addr = server.addr();

    let stairstep = get(addr, "/v1/model/stairstep?units=15&processors=1,4,8,15");
    assert_eq!(stairstep.status, 200);
    let speedups: Vec<f64> = stairstep
        .json()
        .get("points")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|p| p.get("speedup").unwrap().as_f64().unwrap())
        .collect();
    assert_eq!(speedups, vec![1.0, 3.75, 7.5, 15.0]);

    let overhead = get(addr, "/v1/model/overhead?sync_cost=100000&processors=2,128");
    assert_eq!(overhead.status, 200);
    let cycles: Vec<u64> = overhead
        .json()
        .get("points")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|p| p.get("min_work_cycles").unwrap().as_u64().unwrap())
        .collect();
    assert_eq!(cycles, vec![20_000_000, 1_280_000_000]);

    let wps = get(
        addr,
        "/v1/model/work_per_sync?dims=100,100,100&work_per_point=10&levels=outer",
    );
    assert_eq!(wps.status, 200);
    let points = wps.json();
    let points = points.get("points").and_then(Json::as_array).unwrap();
    assert_eq!(points[0].get("cycles").unwrap().as_u64(), Some(10_000_000));

    // Malformed queries come back 400 with an error body, never 500.
    for bad in [
        "/v1/model/galaxy?x=1",
        "/v1/model/stairstep?units=0&processors=1",
        "/v1/model/stairstep?units=15&processors=1&junk=2",
        "/v1/model/overhead?sync_cost=1&fraction=nope&processors=1",
        // A bound past u64 is a 400, not a saturated 200.
        "/v1/model/overhead?sync_cost=10000&processors=2&fraction=1e-320",
        "/v1/model/work_per_sync?dims=0&work_per_point=1",
    ] {
        let reply = get(addr, bad);
        assert_eq!(reply.status, 400, "{bad}");
        assert!(reply.json().get("error").is_some(), "{bad}");
    }
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_429_and_recovers() {
    let gate = Arc::new(Mutex::new(()));
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        job_gate: Some(Arc::clone(&gate)),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    let held = gate.lock().unwrap();

    // First job: popped by the executor, which then blocks on the gate.
    let first = std::thread::spawn(move || post(addr, "/v1/advise", ADVISE_BODY));
    wait_until("executor busy", || metric(addr, "executor_busy") == 1);

    // Second job: sits in the queue (capacity 1).
    let second = std::thread::spawn(move || post(addr, "/v1/advise", ADVISE_BODY));
    wait_until("queued job", || metric(addr, "queue_depth") == 1);

    // Third: over capacity — back-pressure, not queueing.
    let rejected = post(addr, "/v1/advise", ADVISE_BODY);
    assert_eq!(rejected.status, 429);
    retry_after(&rejected);
    assert_eq!(
        rejected.json().get("error").unwrap().as_str(),
        Some("queue full")
    );
    assert_eq!(server.rejected_total(), 1);

    drop(held);
    assert_eq!(first.join().unwrap().status, 200);
    assert_eq!(second.join().unwrap().status, 200);
    assert_eq!(metric(addr, "rejected_total"), 1);
    assert_eq!(metric(addr, "jobs_total"), 2);
    server.shutdown();
}

#[test]
fn deadline_expires_queued_requests_with_503() {
    let gate = Arc::new(Mutex::new(()));
    let server = Server::start(ServerConfig {
        workers: 1,
        deadline: Duration::from_millis(100),
        job_gate: Some(Arc::clone(&gate)),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    let held = gate.lock().unwrap();
    let reply = post(addr, "/v1/advise", ADVISE_BODY);
    assert_eq!(reply.status, 503);
    retry_after(&reply);
    assert_eq!(metric(addr, "timeouts_total"), 1);

    drop(held);
    server.shutdown();
}

#[test]
fn graceful_shutdown_completes_in_flight_work() {
    let gate = Arc::new(Mutex::new(()));
    let server = Server::start(ServerConfig {
        workers: 2,
        job_gate: Some(Arc::clone(&gate)),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    let held = gate.lock().unwrap();
    let in_flight =
        std::thread::spawn(move || post(addr, "/v1/solve", r#"{"zones": 1, "steps": 1}"#));
    wait_until("executor busy", || metric(addr, "executor_busy") == 1);

    // Shutdown starts draining while the job is pinned at the gate...
    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(50));
    drop(held);

    // ...and still delivers the complete response before exiting.
    let reply = in_flight.join().unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(reply.json().get("checksums").is_some());
    shutdown.join().unwrap();

    // The listener is gone: new connections are refused.
    assert!(TcpStream::connect(addr).is_err());
}

#[test]
fn metrics_totals_agree_with_span_reports_and_pool_counters() {
    // Two executors over a two-worker pool, solving at once: both share
    // the one team and the pool's counters, so concurrency must not
    // perturb any total.
    let server = small_server();
    let addr = server.addr();
    assert_eq!(
        metric(addr, "executor_shards"),
        2,
        "one executor per worker"
    );

    let solves: Vec<_> = [(1, 2, 1), (2, 3, 2), (3, 1, 2)]
        .into_iter()
        .map(|(zones, steps, workers)| {
            let body = format!(r#"{{"zones": {zones}, "steps": {steps}, "workers": {workers}}}"#);
            std::thread::spawn(move || post(addr, "/v1/solve", &body))
        })
        .collect();
    let mut reported_sync_events = 0;
    for solve in solves {
        let reply = solve.join().unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
        let served = reply.json();
        let sync_events = served.get("sync_events").unwrap().as_u64().unwrap();
        assert!(sync_events > 0);
        // The top-level counter and the span report agree per response.
        assert_eq!(
            served
                .get("report")
                .unwrap()
                .get("sync_events")
                .and_then(Json::as_u64),
            Some(sync_events)
        );
        reported_sync_events += sync_events;
    }
    let advise = post(addr, "/v1/advise", ADVISE_BODY);
    assert_eq!(advise.status, 200);

    // All pool work flowed through sized views of the one shared pool,
    // so the pool's counter, the accumulated span reports, and the sum
    // of per-response counters are all the same number.
    let metrics = get(addr, "/metrics?format=json").json();
    assert_eq!(
        metrics.get("obs_sync_events_total").and_then(Json::as_u64),
        Some(reported_sync_events)
    );
    assert_eq!(
        metrics.get("pool_sync_events_total").and_then(Json::as_u64),
        Some(reported_sync_events)
    );
    assert_eq!(metrics.get("jobs_total").and_then(Json::as_u64), Some(4));
    assert_eq!(
        metrics.get("obs_reports_total").and_then(Json::as_u64),
        Some(3)
    );
    assert_eq!(
        metrics
            .get("endpoints")
            .unwrap()
            .get("solve")
            .and_then(Json::as_u64),
        Some(3)
    );
    server.shutdown();
}

#[test]
fn http_robustness() {
    let server = Server::start(ServerConfig {
        workers: 1,
        max_body_bytes: 1024,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    assert_eq!(get(addr, "/nope").status, 404);
    assert_eq!(get(addr, "/v1/solve").status, 405);
    assert_eq!(
        send_raw(
            addr,
            "POST /metrics HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
        )
        .status,
        405
    );
    assert_eq!(post(addr, "/v1/solve", "{not json").status, 400);
    assert_eq!(post(addr, "/v1/solve", r#"{"zones": 99}"#).status, 400);
    assert_eq!(post(addr, "/v1/advise", "[]").status, 400);
    // Declared oversized body: rejected before it is read.
    assert_eq!(
        send_raw(
            addr,
            "POST /v1/solve HTTP/1.1\r\nContent-Length: 999999\r\n\r\n"
        )
        .status,
        413
    );
    assert_eq!(send_raw(addr, "nonsense\r\n\r\n").status, 400);
    // Framing this server cannot delimit is refused and the connection
    // closed: the bytes behind it (here a smuggled second request) are
    // never answered. `send_raw` reads to EOF, so one reply is all.
    for (framing, status) in [
        ("Transfer-Encoding: chunked", 501),
        ("Content-Length: 0\r\nContent-Length: 27", 400),
        ("Content-Length: +0", 400),
    ] {
        let reply = send_raw(
            addr,
            &format!("POST /v1/solve HTTP/1.1\r\n{framing}\r\n\r\nGET /smuggled HTTP/1.1\r\n\r\n"),
        );
        assert_eq!(reply.status, status, "{framing}");
        assert_eq!(reply.header("Connection"), Some("close"), "{framing}");
        assert!(
            !reply.body.contains("HTTP/1.1"),
            "{framing}: {}",
            reply.body
        );
    }
    // Every error body is parseable JSON with an `error` key.
    assert!(get(addr, "/nope").json().get("error").is_some());
    // Malformed schedule selections are 400s, never 500s.
    assert_eq!(
        post(addr, "/v1/solve", r#"{"schedule": "fifo"}"#).status,
        400
    );
    assert_eq!(
        post(addr, "/v1/solve", r#"{"schedule": "static", "chunk": 4}"#).status,
        400
    );
    assert_eq!(
        post(addr, "/v1/solve", r#"{"schedule": "dynamic", "chunk": 0}"#).status,
        400
    );
    server.shutdown();
}

#[test]
fn concurrent_executors_execute_jobs_in_parallel() {
    let gate = Arc::new(Mutex::new(()));
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 4,
        job_gate: Some(Arc::clone(&gate)),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    assert_eq!(metric(addr, "executor_shards"), 2);

    let held = gate.lock().unwrap();
    let first = std::thread::spawn(move || post(addr, "/v1/advise", ADVISE_BODY));
    let second = std::thread::spawn(move || post(addr, "/v1/advise", ADVISE_BODY));
    // Both executors pop a job and pin at the gate — two jobs in flight
    // at once on a two-worker pool, with nothing partitioning its team.
    wait_until("both executors busy", || metric(addr, "executor_busy") == 2);
    assert_eq!(metric(addr, "queue_depth"), 0);

    drop(held);
    assert_eq!(first.join().unwrap().status, 200);
    assert_eq!(second.join().unwrap().status, 200);
    assert_eq!(metric(addr, "jobs_total"), 2);
    server.shutdown();
}

#[test]
fn solve_is_bit_exact_across_pool_widths_and_policies() {
    let case = f3d::service::ServiceCase {
        zones: 2,
        steps: 2,
        workers: 2,
        schedule: Policy::Static,
        zone_schedule: f3d::service::ZoneSchedule::Sequential,
        vector_width: 1,
    };
    let direct = f3d::service::run(&case, &llp::Workers::recorded(2))
        .unwrap()
        .output;

    for pool in [1, 2] {
        let server = Server::start(ServerConfig {
            workers: pool,
            ..ServerConfig::default()
        })
        .expect("bind");
        for body in [
            r#"{"zones": 2, "steps": 2, "workers": 2}"#,
            r#"{"zones": 2, "steps": 2, "workers": 2, "schedule": "dynamic", "chunk": 2}"#,
            r#"{"zones": 2, "steps": 2, "workers": 2, "schedule": "guided"}"#,
        ] {
            let reply = post(server.addr(), "/v1/solve", body);
            assert_eq!(reply.status, 200, "pool={pool} {body}: {}", reply.body);
            let served = reply.json();
            let residuals: Vec<f64> = served
                .get("residuals")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|r| r.as_f64().unwrap())
                .collect();
            assert_eq!(residuals, direct.residuals, "pool={pool} {body}");
            let forces = served.get("forces").unwrap();
            assert_eq!(forces.get("drag").unwrap().as_f64(), Some(direct.drag));
            assert_eq!(forces.get("lift").unwrap().as_f64(), Some(direct.lift));
            let checksums = served.get("checksums").and_then(Json::as_array).unwrap();
            for (served_zone, direct_sum) in checksums.iter().zip(&direct.checksums) {
                let sums: Vec<f64> = served_zone
                    .get("sum")
                    .and_then(Json::as_array)
                    .unwrap()
                    .iter()
                    .map(|v| v.as_f64().unwrap())
                    .collect();
                assert_eq!(sums, direct_sum.sum.to_vec(), "pool={pool} {body}");
            }
            // The response echoes which schedule actually ran.
            let schedule = served.get("case").unwrap().get("schedule").unwrap();
            assert!(schedule.as_str().is_some());
        }
        server.shutdown();
    }
}

/// A hand-built tune database with deliberately varied
/// configurations: the f3d stepper's three parallel kernels, plus an
/// `rhs` entry — the loop name the advise bodies use, and a kernel the
/// stepper ran before its residual and J and K factors were fused.
fn sample_tune_db() -> TuneDb {
    let entry = |kernel: &str, workers, schedule| TuneEntry {
        kernel: kernel.to_string(),
        workers,
        schedule,
        iterations: 10,
        candidates_tried: 5,
        measured_cost_ns: 80_000,
        default_cost_ns: 95_000,
        modeled_cost_ns: 78_000,
        model_agrees: true,
    };
    TuneDb {
        schema_version: TUNE_SCHEMA_VERSION,
        solver: "f3d".to_string(),
        pool_width: 2,
        zones: 1,
        steps: 1,
        trials: 1,
        sync_cost_ns: 900,
        entries: vec![
            entry("l_factor_solve", 2, Policy::Dynamic { chunk: 1 }),
            entry("rhs", 1, Policy::Static),
            entry("rhs_jk", 1, Policy::Static),
            entry("update", 2, Policy::Guided { min_chunk: 1 }),
        ],
    }
}

#[test]
fn auto_solve_resolves_tuned_configs_and_stays_bit_exact() {
    let case = f3d::service::ServiceCase {
        zones: 2,
        steps: 2,
        workers: 2,
        schedule: Policy::Static,
        zone_schedule: f3d::service::ZoneSchedule::Sequential,
        vector_width: 1,
    };
    let direct = f3d::service::run(&case, &llp::Workers::recorded(2))
        .unwrap()
        .output;
    let body = r#"{"zones": 2, "steps": 2, "workers": 2, "schedule": "auto"}"#;

    // With a loaded db, "auto" applies the per-kernel overrides — and
    // the answers are still bit-exact with the untuned direct run.
    let server = Server::start(ServerConfig {
        workers: 2,
        tune_db: Some(sample_tune_db()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let reply = post(server.addr(), "/v1/solve", body);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let served = reply.json();
    let residuals: Vec<f64> = served
        .get("residuals")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|r| r.as_f64().unwrap())
        .collect();
    assert_eq!(residuals, direct.residuals);
    let forces = served.get("forces").unwrap();
    assert_eq!(forces.get("drag").unwrap().as_f64(), Some(direct.drag));
    assert_eq!(forces.get("lift").unwrap().as_f64(), Some(direct.lift));
    for (served_zone, direct_sum) in served
        .get("checksums")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .zip(&direct.checksums)
    {
        let sums: Vec<f64> = served_zone
            .get("sum")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(sums, direct_sum.sum.to_vec());
    }
    // The response names exactly the configurations that ran.
    let tuned = served.get("tuned").expect("auto solve reports `tuned`");
    assert_eq!(tuned.get("source").and_then(Json::as_str), Some("tune-db"));
    let kernels = tuned.get("kernels").and_then(Json::as_array).unwrap();
    assert_eq!(kernels.len(), 4);
    let fused = kernels
        .iter()
        .find(|k| k.get("kernel").and_then(Json::as_str) == Some("rhs_jk"))
        .expect("rhs_jk resolved");
    assert_eq!(fused.get("workers").and_then(Json::as_u64), Some(1));
    assert_eq!(fused.get("schedule").and_then(Json::as_str), Some("static"));
    server.shutdown();

    // Without a db, "auto" falls back to the defaults and says so.
    let server = small_server();
    let reply = post(server.addr(), "/v1/solve", body);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let served = reply.json();
    let residuals: Vec<f64> = served
        .get("residuals")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|r| r.as_f64().unwrap())
        .collect();
    assert_eq!(residuals, direct.residuals);
    let tuned = served.get("tuned").unwrap();
    assert_eq!(tuned.get("source").and_then(Json::as_str), Some("default"));
    // An explicit (non-auto) solve carries a null `tuned`.
    let reply = post(
        server.addr(),
        "/v1/solve",
        r#"{"zones": 1, "steps": 1, "workers": 2}"#,
    );
    assert_eq!(reply.status, 200);
    assert!(matches!(reply.json().get("tuned"), Some(Json::Null)));
    server.shutdown();
}

/// An f3d calibration file as calibrations wrote it while the L factor
/// still ran a second, scatter region, the residual and the J and K
/// factors ran one region each, and entries carried a `vector_width`:
/// one entry per parallel kernel of that stepper, `rhs` (raced to
/// width 4), `j_factor`, `k_factor` and `l_factor_scatter` among them.
const TUNE_DB_WITH_RETIRED_KERNEL: &str = r#"{
  "schema_version": 4, "solver": "f3d", "pool_width": 2, "zones": 2,
  "steps": 2, "trials": 3, "sync_cost_ns": 850,
  "entries": [
    {"kernel": "j_factor", "workers": 1, "schedule": "static", "vector_width": 1, "iterations": 14, "candidates_tried": 5, "measured_cost_ns": 910000, "default_cost_ns": 940000, "modeled_cost_ns": 470000, "model_agrees": false},
    {"kernel": "k_factor", "workers": 2, "schedule": "dynamic", "chunk": 1, "vector_width": 1, "iterations": 14, "candidates_tried": 5, "measured_cost_ns": 800000, "default_cost_ns": 820000, "modeled_cost_ns": 430000, "model_agrees": false},
    {"kernel": "l_factor_scatter", "workers": 1, "schedule": "guided", "chunk": 1, "vector_width": 1, "iterations": 14, "candidates_tried": 5, "measured_cost_ns": 30000, "default_cost_ns": 41000, "modeled_cost_ns": 25000, "model_agrees": true},
    {"kernel": "l_factor_solve", "workers": 2, "schedule": "dynamic", "chunk": 2, "vector_width": 1, "iterations": 10, "candidates_tried": 5, "measured_cost_ns": 700000, "default_cost_ns": 760000, "modeled_cost_ns": 390000, "model_agrees": false},
    {"kernel": "rhs", "workers": 2, "schedule": "static", "vector_width": 4, "iterations": 14, "candidates_tried": 20, "measured_cost_ns": 600000, "default_cost_ns": 790000, "modeled_cost_ns": 410000, "model_agrees": true},
    {"kernel": "update", "workers": 1, "schedule": "static", "vector_width": 1, "iterations": 14, "candidates_tried": 5, "measured_cost_ns": 20000, "default_cost_ns": 26000, "modeled_cost_ns": 18000, "model_agrees": true}
  ]
}"#;

#[test]
fn tune_db_naming_a_retired_kernel_loads_and_selects_nothing_for_it() {
    // Kernels the solver no longer has — the scatter region, and the
    // three regions the fused `rhs_jk` replaced — and a retired width
    // column: the file still loads, those entries select nothing, the
    // widths are ignored, and "auto" answers what a default solve
    // answers.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tune_db_retired.json");
    std::fs::write(&path, TUNE_DB_WITH_RETIRED_KERNEL).unwrap();
    let db = TuneDb::load(&path).expect("an old calibration file loads");
    let kernels: Vec<&str> = db.entries.iter().map(|e| e.kernel.as_str()).collect();
    assert_eq!(kernels.len(), 6);
    for retired in ["j_factor", "k_factor", "l_factor_scatter", "rhs"] {
        assert!(kernels.contains(&retired), "{kernels:?}");
        assert!(!<f3d::service::F3dSolver as solver::Solver>::KERNELS.contains(&retired));
    }

    let server = Server::start(ServerConfig {
        workers: 2,
        tune_db: Some(db),
        ..ServerConfig::default()
    })
    .expect("bind");
    let solve = |body: &str| {
        let reply = post(server.addr(), "/v1/solve", body);
        assert_eq!(reply.status, 200, "{}", reply.body);
        reply.json()
    };
    let default = solve(r#"{"zones": 2, "steps": 2, "workers": 2}"#);
    let auto = solve(r#"{"zones": 2, "steps": 2, "workers": 2, "schedule": "auto"}"#);
    let tuned = auto.get("tuned").unwrap();
    assert_eq!(tuned.get("source").and_then(Json::as_str), Some("tune-db"));
    let tuned_kernels = tuned.get("kernels").and_then(Json::as_array).unwrap();
    assert_eq!(tuned_kernels.len(), 6);
    assert!(tuned_kernels
        .iter()
        .all(|k| k.get("vector_width").is_none()));
    for field in ["checksums", "residuals", "forces", "sync_events"] {
        assert_eq!(
            auto.get(field).map(Json::to_string),
            default.get(field).map(Json::to_string),
            "{field}"
        );
    }
    server.shutdown();
}

#[test]
fn advise_prefers_measured_entries_and_reports_disagreement() {
    let server = Server::start(ServerConfig {
        workers: 2,
        tune_db: Some(sample_tune_db()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let reply = post(server.addr(), "/v1/advise", ADVISE_BODY);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let served = reply.json();
    let loops = served.get("loops").unwrap().as_array().unwrap();

    // `rhs` is covered by the db: the measured block appears and the
    // preferred schedule is the measured one.
    let rhs = &loops[0];
    assert_eq!(rhs.get("name").and_then(Json::as_str), Some("rhs"));
    let measured = rhs.get("measured").expect("rhs carries measured advice");
    assert_eq!(measured.get("workers").and_then(Json::as_u64), Some(1));
    assert_eq!(
        measured.get("schedule").and_then(Json::as_str),
        Some("static")
    );
    assert_eq!(
        measured.get("measured_cost_ns").and_then(Json::as_u64),
        Some(80_000)
    );
    assert!(measured.get("agrees_with_analytic").is_some());
    assert_eq!(
        rhs.get("preferred_schedule").and_then(Json::as_str),
        Some("static")
    );

    // `bc` has no db entry: analytic advice only, no measured block.
    let bc = &loops[1];
    assert_eq!(bc.get("name").and_then(Json::as_str), Some("bc"));
    assert!(bc.get("measured").is_none());
    assert!(bc.get("preferred_schedule").is_none());
    server.shutdown();
}

#[test]
fn tune_calibration_runs_in_the_background_and_rejects_concurrency() {
    let gate = Arc::new(Mutex::new(()));
    let server = Server::start(ServerConfig {
        workers: 2,
        job_gate: Some(Arc::clone(&gate)),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Nothing has been calibrated or loaded yet.
    let reply = get(addr, "/v1/tune");
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.json().get("status").and_then(Json::as_str),
        Some("idle")
    );
    assert!(matches!(reply.json().get("db"), Some(Json::Null)));
    assert_eq!(member_names(&reply.json()), ["solver", "status", "db"]);

    // Malformed specs are rejected before anything starts.
    assert_eq!(post(addr, "/v1/tune", r#"{"zones": 99}"#).status, 400);
    assert_eq!(post(addr, "/v1/tune", r#"{"surprise": 1}"#).status, 400);
    // There is one way winners are selected; no request field picks another.
    assert_eq!(
        post(addr, "/v1/tune", r#"{"deterministic": true}"#).status,
        400
    );
    assert_eq!(
        get(addr, "/v1/tune")
            .json()
            .get("status")
            .and_then(Json::as_str),
        Some("idle")
    );

    // Pin the calibration at the gate: its status is observable and a
    // second request is deterministically rejected with 429.
    let held = gate.lock().unwrap();
    let reply = post(addr, "/v1/tune", r#"{"zones": 1, "steps": 1, "trials": 1}"#);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let ack = reply.json();
    assert_eq!(
        ack.get("status").and_then(Json::as_str),
        Some("calibrating")
    );
    // The job-gate hook only pins the calibration; the ack names the
    // solver and the case, nothing about a selection mode.
    assert_eq!(
        member_names(&ack),
        ["status", "solver", "zones", "steps", "trials"]
    );
    let rejected = post(addr, "/v1/tune", "");
    assert_eq!(rejected.status, 429, "{}", rejected.body);
    retry_after(&rejected);
    assert_eq!(
        get(addr, "/v1/tune")
            .json()
            .get("status")
            .and_then(Json::as_str),
        Some("calibrating")
    );
    // Only the solver being calibrated reads `calibrating`: a client
    // polling another solver's slot sees that slot's own state.
    let other = get(addr, "/v1/tune?solver=fdtd").json();
    assert_eq!(other.get("solver").and_then(Json::as_str), Some("fdtd"));
    assert_eq!(other.get("status").and_then(Json::as_str), Some("idle"));
    drop(held);

    // The background calibration finishes and publishes its database.
    wait_until("calibration ready", || {
        get(addr, "/v1/tune")
            .json()
            .get("status")
            .and_then(Json::as_str)
            == Some("ready")
    });
    let doc = get(addr, "/v1/tune").json();
    let db = TuneDb::from_json(doc.get("db").unwrap()).expect("published db parses");
    assert_eq!(db.pool_width, 2);
    assert!(!db.entries.is_empty());
    for e in &db.entries {
        assert!((1..=2).contains(&e.workers), "{e:?}");
        assert!(e.iterations > 0 && e.candidates_tried >= 2, "{e:?}");
        // Gated or not, winners are selected by measurement.
        assert!(e.measured_cost_ns <= e.default_cost_ns, "{e:?}");
    }

    // The freshly calibrated db now resolves "auto" solves.
    let reply = post(
        addr,
        "/v1/solve",
        r#"{"zones": 1, "steps": 1, "schedule": "auto"}"#,
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(
        reply
            .json()
            .get("tuned")
            .unwrap()
            .get("source")
            .and_then(Json::as_str),
        Some("tune-db")
    );
    server.shutdown();
}

#[test]
fn malformed_schedule_bodies_name_the_offender() {
    let server = small_server();
    let addr = server.addr();
    // The 400 bodies carry Policy::parse's diagnostics: the offending
    // token and the accepted set, not just "bad request".
    let error = |body: &str| {
        let reply = post(addr, "/v1/solve", body);
        assert_eq!(reply.status, 400, "{body}");
        reply
            .json()
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    };
    let msg = error(r#"{"schedule": "fifo"}"#);
    assert!(msg.contains("\"fifo\""), "{msg}");
    assert!(
        msg.contains("static") && msg.contains("dynamic") && msg.contains("guided"),
        "{msg}"
    );
    let msg = error(r#"{"schedule": "static", "chunk": 4}"#);
    assert!(msg.contains("chunk 4"), "{msg}");
    let msg = error(r#"{"schedule": "dynamic", "chunk": 0}"#);
    assert!(msg.contains("chunk 0") && msg.contains("positive"), "{msg}");
    let msg = error(r#"{"schedule": "auto", "chunk": 2}"#);
    assert!(msg.contains("auto") && msg.contains("chunk 2"), "{msg}");
    server.shutdown();
}

#[test]
fn panicking_job_gets_500_and_the_executors_recover() {
    let fault = Arc::new(AtomicBool::new(false));
    let server = Server::start(ServerConfig {
        workers: 2,
        job_fault: Some(Arc::clone(&fault)),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    // Bypass, so every solve below really executes.
    let body = r#"{"zones": 1, "steps": 2, "workers": 2, "cache": "bypass"}"#;
    let reply = post(addr, "/v1/solve", body);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let reference = reply.json();

    fault.store(true, Ordering::SeqCst);
    let reply = post(addr, "/v1/solve", body);
    assert_eq!(reply.status, 500, "{}", reply.body);
    assert!(
        reply
            .json()
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("panicked"),
        "{}",
        reply.body
    );
    assert_eq!(metric(addr, "executor_panics_total"), 1);

    // The executors keep serving on the same worker team, and the one
    // that panicked reset its recorders: every next report covers
    // exactly its own run, at full width, and the answer is bit-exact.
    fault.store(false, Ordering::SeqCst);
    for _ in 0..4 {
        let reply = post(addr, "/v1/solve", body);
        assert_eq!(reply.status, 200, "{}", reply.body);
        let served = reply.json();
        for field in ["residuals", "checksums", "forces", "sync_events"] {
            assert_eq!(served.get(field), reference.get(field), "{field}");
        }
        let sync_events = served.get("sync_events").unwrap().as_u64().unwrap();
        let report = served.get("report").unwrap();
        assert_eq!(
            report.get("sync_events").and_then(Json::as_u64),
            Some(sync_events)
        );
        assert_eq!(report.get("workers").and_then(Json::as_u64), Some(2));
    }
    assert_eq!(metric(addr, "executor_busy"), 0);
    server.shutdown();
}

#[test]
fn oversubscribed_solve_reports_the_worker_clamp() {
    // A one-worker pool: a request for 2 workers is clamped to the
    // pool's width, and the report says so.
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let reply = post(
        server.addr(),
        "/v1/solve",
        r#"{"zones": 1, "steps": 1, "workers": 2}"#,
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    let report = reply.json().get("report").unwrap().clone();
    assert_eq!(report.get("workers").and_then(Json::as_u64), Some(1));
    assert_eq!(
        report.get("requested_workers").and_then(Json::as_u64),
        Some(2)
    );
    server.shutdown();

    // On a two-worker pool the same request is not clamped and the
    // report stays silent about it.
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let reply = post(
        server.addr(),
        "/v1/solve",
        r#"{"zones": 1, "steps": 1, "workers": 2}"#,
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    let report = reply.json().get("report").unwrap().clone();
    assert_eq!(report.get("workers").and_then(Json::as_u64), Some(2));
    assert!(report.get("requested_workers").is_none());
    server.shutdown();
}

#[test]
fn retry_after_grows_while_the_executor_is_stalled() {
    let gate = Arc::new(Mutex::new(()));
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        job_gate: Some(Arc::clone(&gate)),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    let held = gate.lock().unwrap();
    let first = std::thread::spawn(move || post(addr, "/v1/advise", ADVISE_BODY));
    wait_until("executor busy", || metric(addr, "executor_busy") == 1);
    let second = std::thread::spawn(move || post(addr, "/v1/advise", ADVISE_BODY));
    wait_until("queued job", || metric(addr, "queue_depth") == 1);

    // Nothing has completed since startup, so the drain estimate is
    // stall-driven: successive rejections never promise a shorter wait,
    // and letting the stall age past a second must raise the estimate
    // above the old hard-coded floor of 1.
    let early = retry_after(&post(addr, "/v1/advise", ADVISE_BODY));
    std::thread::sleep(Duration::from_millis(1200));
    let late = retry_after(&post(addr, "/v1/advise", ADVISE_BODY));
    assert!(late >= early, "Retry-After shrank during a stall");
    assert!(late >= 2, "stalled estimate should exceed one second");

    drop(held);
    assert_eq!(first.join().unwrap().status, 200);
    assert_eq!(second.join().unwrap().status, 200);
    server.shutdown();
}

/// Fetch a solve's trace id, asserting the solve succeeded.
fn solve_trace_id(addr: SocketAddr, body: &str) -> u64 {
    let reply = post(addr, "/v1/solve", body);
    assert_eq!(reply.status, 200, "{}", reply.body);
    reply
        .json()
        .get("trace_id")
        .and_then(Json::as_u64)
        .expect("flight-instrumented solve advertises a trace_id")
}

/// Both documents of a retained trace, `(attribution, chrome)`, as
/// served.
fn trace_documents(addr: SocketAddr, id: u64) -> (String, String) {
    let attribution = get(addr, &format!("/v1/trace/{id}"));
    let chrome = get(addr, &format!("/v1/trace/{id}?trace=chrome"));
    assert_eq!((attribution.status, chrome.status), (200, 200));
    (attribution.body, chrome.body)
}

#[test]
fn solve_trace_attribution_agrees_with_the_model() {
    let server = small_server();
    let addr = server.addr();

    // Wall-clock waits on a loaded single-CPU host can skew any one
    // run arbitrarily, so the Table-1 agreement check gets a few
    // solves; the structural assertions must hold on every one.
    let mut agreed = false;
    let mut last_doc = Json::Null;
    for _ in 0..3 {
        // Bypass the solve cache: each attempt must really execute to
        // produce a fresh flight trace.
        let id = solve_trace_id(
            addr,
            r#"{"zones": 2, "steps": 3, "workers": 2, "cache": "bypass"}"#,
        );

        let reply = get(addr, &format!("/v1/trace/{id}"));
        assert_eq!(reply.status, 200, "{}", reply.body);
        let doc = reply.json();
        assert_eq!(doc.get("trace_id").and_then(Json::as_u64), Some(id));
        assert_eq!(
            doc.get("case").and_then(Json::as_str),
            Some("service/z2s3w2")
        );

        // The attribution fractions cover the busy time exactly.
        let attr = doc.get("attribution").expect("attribution document");
        let fraction = |key: &str| attr.get(key).and_then(Json::as_f64).unwrap();
        let total = fraction("compute_fraction")
            + fraction("barrier_fraction")
            + fraction("claim_fraction");
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
        assert!(fraction("compute_fraction") > 0.0);

        // The measured-vs-modeled check ran: the model plugs the
        // measured mean sync cost into perfmodel's Table 1 machinery.
        let check = attr.get("model_check").expect("model check present");
        let measured = check
            .get("measured_fraction")
            .and_then(Json::as_f64)
            .unwrap();
        let modeled = check
            .get("modeled_fraction")
            .and_then(Json::as_f64)
            .unwrap();
        assert!(measured > 0.0 && measured.is_finite());
        assert!(modeled > 0.0 && modeled.is_finite());

        // Per-kernel: at least one kernel's measured overhead agrees
        // with the modeled overhead within the documented factor-of-3
        // tolerance (the acceptance check tying the flight recorder to
        // Table 1).
        let kernels = doc.get("kernels").and_then(Json::as_array).unwrap();
        assert!(!kernels.is_empty(), "run must attribute to kernels");
        agreed = kernels.iter().any(|k| {
            let m = k
                .get("overhead_measured")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let p = k
                .get("overhead_modeled")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            m > 0.0 && p > 0.0 && m / p <= 3.0 && p / m <= 3.0
        });
        last_doc = doc;
        if agreed {
            break;
        }
    }
    assert!(
        agreed,
        "no kernel within the documented 3x tolerance in any run: {}",
        last_doc.to_pretty_string()
    );
    server.shutdown();
}

#[test]
fn solve_trace_chrome_download_is_valid_and_monotone() {
    let server = small_server();
    let addr = server.addr();
    let id = solve_trace_id(
        addr,
        r#"{"zones": 2, "steps": 2, "workers": 2, "schedule": "dynamic", "chunk": 2}"#,
    );

    let reply = get(addr, &format!("/v1/trace/{id}?trace=chrome"));
    assert_eq!(reply.status, 200, "{}", reply.body);
    let doc = reply.json();
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    assert!(events.len() > 4, "trace should carry real slices");
    // `ts` is monotone per worker track — what chrome://tracing needs.
    let mut last: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) == Some("M") {
            continue;
        }
        let tid = e.get("tid").and_then(Json::as_u64).unwrap();
        let ts = e.get("ts").and_then(Json::as_f64).unwrap();
        if let Some(&prev) = last.get(&tid) {
            assert!(ts >= prev, "tid {tid}: ts {ts} < {prev}");
        }
        last.insert(tid, ts);
    }
    // The summary block makes the download self-describing.
    assert!(doc.get("summary").is_some());
    server.shutdown();
}

#[test]
fn trace_endpoint_rejects_unknowns_cleanly() {
    let server = small_server();
    let addr = server.addr();

    assert_eq!(get(addr, "/v1/trace/999999").status, 404);
    assert_eq!(get(addr, "/v1/trace/abc").status, 400);
    assert_eq!(
        send_raw(
            addr,
            "POST /v1/trace/1 HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
        )
        .status,
        405
    );
    let id = solve_trace_id(addr, r#"{"zones": 1, "steps": 1, "cache": "bypass"}"#);
    assert_eq!(get(addr, &format!("/v1/trace/{id}?trace=svg")).status, 400);
    // Every error body is JSON with an `error` key.
    assert!(get(addr, "/v1/trace/999999").json().get("error").is_some());

    // Trace ids are unique across solves (bypass: a cache hit would
    // serve the stored body, which carries no fresh trace).
    let other = solve_trace_id(addr, r#"{"zones": 1, "steps": 1, "cache": "bypass"}"#);
    assert_ne!(id, other);
    // The trace endpoint has its own request counter.
    let metrics = get(addr, "/metrics?format=json").json();
    let traces = metrics
        .get("endpoints")
        .unwrap()
        .get("trace")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(traces >= 4);
    server.shutdown();
}

#[test]
fn trace_documents_repeat_until_the_seventeenth_trace_evicts_them() {
    let server = small_server();
    let addr = server.addr();
    const TINY: &str = r#"{"zones": 1, "steps": 1, "cache": "bypass"}"#;

    let first = solve_trace_id(
        addr,
        r#"{"solver": "fdtd", "size": 32, "steps": 4, "schedule": "dynamic", "chunk": 1}"#,
    );
    // The documents are rendered per request from the retained run, so
    // asking twice must give the same bytes.
    let documents = trace_documents(addr, first);
    assert!(
        documents.1.contains("\"claim\""),
        "a dynamic run has claims"
    );
    assert_eq!(trace_documents(addr, first), documents);

    // The store retains 16: fifteen more solves leave the first in
    // place, the seventeenth trace evicts it — and only it.
    let second = solve_trace_id(addr, TINY);
    for _ in 0..14 {
        solve_trace_id(addr, TINY);
    }
    assert_eq!(trace_documents(addr, first), documents);
    let seventeenth = solve_trace_id(addr, TINY);
    for query in ["", "?trace=chrome"] {
        let gone = get(addr, &format!("/v1/trace/{first}{query}"));
        assert_eq!(gone.status, 404);
        assert_eq!(
            gone.json().get("error").and_then(Json::as_str),
            Some(format!("no trace {first} (evicted or never existed)").as_str())
        );
    }
    assert_eq!(get(addr, &format!("/v1/trace/{second}")).status, 200);
    assert_eq!(get(addr, &format!("/v1/trace/{seventeenth}")).status, 200);
    server.shutdown();
}

#[test]
fn metrics_histograms_fill_under_traffic() {
    let server = small_server();
    let addr = server.addr();
    let reply = post(addr, "/v1/solve", r#"{"zones": 1, "steps": 1}"#);
    assert_eq!(reply.status, 200);
    let _ = get(addr, "/metrics");

    let metrics = get(addr, "/metrics?format=json").json();
    let latency = metrics.get("latency_ms").expect("latency histogram");
    assert!(latency.get("count").and_then(Json::as_u64).unwrap() >= 2);
    assert!(latency.get("p50").unwrap().as_f64().is_some());
    let buckets = latency.get("buckets").and_then(Json::as_array).unwrap();
    assert_eq!(
        buckets.last().unwrap().get("le").and_then(Json::as_str),
        Some("+Inf")
    );
    // Cumulative counts are non-decreasing.
    let counts: Vec<u64> = buckets
        .iter()
        .map(|b| b.get("count").and_then(Json::as_u64).unwrap())
        .collect();
    assert!(counts.windows(2).all(|w| w[0] <= w[1]));

    let depths = metrics.get("queue_depths").expect("queue-depth histogram");
    assert!(depths.get("count").and_then(Json::as_u64).unwrap() >= 1);
    server.shutdown();
}

#[test]
fn stress_shared_team_under_concurrent_load() {
    // A repeat-run stress smoke: many small mixed requests against two
    // executors sharing one two-worker team, asserting every reply is
    // well-formed and the exact-counter invariant survives the churn.
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    let clients: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut ok = 0u64;
                for i in 0..5 {
                    let reply = if (t + i) % 2 == 0 {
                        post(
                            addr,
                            "/v1/solve",
                            r#"{"zones": 1, "steps": 1, "workers": 2, "schedule": "dynamic", "cache": "bypass"}"#,
                        )
                    } else {
                        post(addr, "/v1/advise", ADVISE_BODY)
                    };
                    assert!(
                        matches!(reply.status, 200 | 429 | 503),
                        "unexpected status {}: {}",
                        reply.status,
                        reply.body
                    );
                    if reply.status == 200 {
                        ok += 1;
                    }
                }
                ok
            })
        })
        .collect();
    let ok: u64 = clients.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(ok > 0, "no request survived the stress run");

    wait_until("queue drained", || {
        metric(addr, "queue_depth") == 0 && metric(addr, "executor_busy") == 0
    });
    // Executors may finish jobs whose clients already timed out, so
    // jobs_total can exceed the 200s — but never the submissions.
    let jobs = metric(addr, "jobs_total");
    assert!(jobs >= ok && jobs <= 20, "jobs_total = {jobs}, ok = {ok}");
    // Solve work flowed through both executors concurrently, yet the
    // pool counter and the folded span reports agree exactly.
    assert_eq!(
        metric(addr, "pool_sync_events_total"),
        metric(addr, "obs_sync_events_total")
    );
    assert_eq!(metric(addr, "executor_panics_total"), 0);
    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = small_server();
    let addr = server.addr();
    let mut client = Client::connect(addr);

    // Mixed traffic — inline queries and pool-backed jobs — all on the
    // same socket, each response marked keep-alive.
    for _ in 0..3 {
        let reply = client.get("/metrics");
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("Connection"), Some("keep-alive"));
    }
    let solve = client.post("/v1/solve", r#"{"zones": 1, "steps": 2}"#);
    assert_eq!(solve.status, 200, "{}", solve.body);
    assert_eq!(solve.header("Connection"), Some("keep-alive"));
    let advise = client.post("/v1/advise", ADVISE_BODY);
    assert_eq!(advise.status, 200, "{}", advise.body);

    // Even error responses keep a framed connection alive...
    let missing = client.get("/nope");
    assert_eq!(missing.status, 404);
    assert_eq!(missing.header("Connection"), Some("keep-alive"));
    let after = client.get("/metrics");
    assert_eq!(after.status, 200);

    // ...and the whole exchange used exactly one connection (plus the
    // one-shot /metrics probe below).
    assert_eq!(metric(addr, "open_connections"), 2);

    // `Connection: close` is honored: the response says close and the
    // server hangs up.
    client.send("GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let last = client.read_reply();
    assert_eq!(last.status, 200);
    assert_eq!(last.header("Connection"), Some("close"));
    let mut rest = Vec::new();
    client.stream.read_to_end(&mut rest).expect("read EOF");
    assert!(rest.is_empty(), "no bytes may follow a close response");
    server.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let server = small_server();
    let addr = server.addr();
    let mut client = Client::connect(addr);

    // Three requests written back-to-back before reading anything; the
    // responses come back in order, one per request.
    client.send(concat!(
        "GET /metrics?format=json HTTP/1.1\r\nHost: t\r\n\r\n",
        "GET /v1/model/stairstep?units=15&processors=4 HTTP/1.1\r\nHost: t\r\n\r\n",
        "POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: 24\r\n\r\n{\"zones\": 1, \"steps\": 1}",
    ));
    let metrics = client.read_reply();
    assert_eq!(metrics.status, 200);
    assert!(metrics.json().get("jobs_total").is_some());
    let model = client.read_reply();
    assert_eq!(model.status, 200);
    assert!(model.json().get("points").is_some());
    let solve = client.read_reply();
    assert_eq!(solve.status, 200, "{}", solve.body);
    assert!(solve.json().get("checksums").is_some());
    server.shutdown();
}

#[test]
fn identical_concurrent_solves_coalesce_into_one_execution() {
    let gate = Arc::new(Mutex::new(()));
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 4,
        job_gate: Some(Arc::clone(&gate)),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    const BODY: &str = r#"{"zones": 2, "steps": 2, "workers": 2}"#;
    const N: usize = 4;

    // Pin the executor at the gate so all N identical solves are in
    // flight together: the first is admitted as the miss, the rest
    // coalesce onto its in-flight entry.
    let held = gate.lock().unwrap();
    let clients: Vec<_> = (0..N)
        .map(|_| std::thread::spawn(move || post(addr, "/v1/solve", BODY)))
        .collect();
    wait_until("executor busy", || metric(addr, "executor_busy") == 1);
    wait_until("waiters coalesced", || {
        cache_metric(addr, "coalesced") == (N - 1) as u64
    });
    assert_eq!(cache_metric(addr, "misses"), 1);
    drop(held);

    let replies: Vec<Reply> = clients.into_iter().map(|h| h.join().unwrap()).collect();
    // Exactly ONE execution served all N requesters...
    assert_eq!(metric(addr, "jobs_total"), 1);
    // ...and every response is byte-identical modulo its trace_id.
    let mut masked: Vec<String> = Vec::new();
    let mut trace_ids: Vec<u64> = Vec::new();
    for reply in &replies {
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(
            reply.json().get("cache").and_then(Json::as_str),
            Some("miss")
        );
        trace_ids.push(
            reply
                .json()
                .get("trace_id")
                .and_then(Json::as_u64)
                .expect("each waiter gets its own trace"),
        );
        masked.push(mask_trace_id(&reply.body));
    }
    assert!(masked.windows(2).all(|w| w[0] == w[1]), "fan-out diverged");
    trace_ids.sort_unstable();
    trace_ids.dedup();
    assert_eq!(trace_ids.len(), N, "trace ids must be distinct per waiter");
    // Each waiter's own id resolves to the documents of the one shared
    // execution: the same bytes modulo the id the attribution echoes.
    let documents: Vec<(String, String)> = trace_ids
        .iter()
        .map(|&id| {
            let (attribution, chrome) = trace_documents(addr, id);
            assert!(attribution.starts_with(&format!("{{\"trace_id\":{id},")));
            (mask_trace_id(&attribution), chrome)
        })
        .collect();
    assert!(
        documents.windows(2).all(|w| w[0] == w[1]),
        "waiters' traces diverged"
    );

    // A later identical solve is a pure cache hit: no execution, no
    // fresh trace, marked "hit".
    let hit = post(addr, "/v1/solve", BODY);
    assert_eq!(hit.status, 200, "{}", hit.body);
    assert_eq!(hit.json().get("cache").and_then(Json::as_str), Some("hit"));
    assert!(matches!(hit.json().get("trace_id"), Some(Json::Null)));
    assert_eq!(metric(addr, "jobs_total"), 1, "a hit must not execute");
    assert_eq!(cache_metric(addr, "hits"), 1);
    assert_eq!(cache_metric(addr, "entries"), 1);

    // And the cached body is bit-exact with a forced re-execution:
    // every numeric field of the hit equals the bypass run's.
    let bypass = post(
        addr,
        "/v1/solve",
        r#"{"zones": 2, "steps": 2, "workers": 2, "cache": "bypass"}"#,
    );
    assert_eq!(bypass.status, 200, "{}", bypass.body);
    assert_eq!(
        bypass.json().get("cache").and_then(Json::as_str),
        Some("bypass")
    );
    assert_eq!(metric(addr, "jobs_total"), 2, "bypass must execute");
    assert_eq!(cache_metric(addr, "bypass"), 1);
    let hit_json = hit.json();
    let bypass_json = bypass.json();
    for field in ["residuals", "forces", "checksums", "sync_events"] {
        assert_eq!(
            hit_json.get(field).unwrap().to_string(),
            bypass_json.get(field).unwrap().to_string(),
            "cached `{field}` diverged from a fresh execution"
        );
    }
    server.shutdown();
}

#[test]
fn retry_after_is_monotone_on_a_kept_alive_connection() {
    // Satellite regression: Retry-After used to assume one queued
    // connection per blocked thread; with keep-alive one connection can
    // observe many successive rejections, and those must never promise
    // a shorter wait while the executor is stalled.
    let gate = Arc::new(Mutex::new(()));
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        job_gate: Some(Arc::clone(&gate)),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    let held = gate.lock().unwrap();
    let first = std::thread::spawn(move || post(addr, "/v1/advise", ADVISE_BODY));
    wait_until("executor busy", || metric(addr, "executor_busy") == 1);
    let second = std::thread::spawn(move || post(addr, "/v1/advise", ADVISE_BODY));
    wait_until("queued job", || metric(addr, "queue_depth") == 1);

    let mut client = Client::connect(addr);
    let mut estimates = Vec::new();
    for _ in 0..3 {
        let reply = client.post("/v1/advise", ADVISE_BODY);
        assert_eq!(reply.status, 429, "{}", reply.body);
        assert_eq!(
            reply.header("Connection"),
            Some("keep-alive"),
            "rejections must not cost the client its connection"
        );
        estimates.push(retry_after(&reply));
        std::thread::sleep(Duration::from_millis(600));
    }
    assert!(
        estimates.windows(2).all(|w| w[0] <= w[1]),
        "Retry-After shrank during a stall: {estimates:?}"
    );
    assert!(
        *estimates.last().unwrap() >= 2,
        "a stall past one second must raise the estimate: {estimates:?}"
    );

    drop(held);
    assert_eq!(first.join().unwrap().status, 200);
    assert_eq!(second.join().unwrap().status, 200);
    server.shutdown();
}

// ------------------------------------------------------------ telemetry

/// Extract one unlabeled sample value from a Prometheus exposition
/// body. `series` may include a label set (`name{label="v"}`); the
/// value is whatever follows the single space after it.
fn prom_value(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(series)
                .and_then(|rest| rest.strip_prefix(' '))
        })
        .unwrap_or_else(|| panic!("exposition has no `{series}`"))
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("`{series}` value is not a number"))
}

/// Sum the per-status response counters out of an exposition body.
fn prom_status_sum(text: &str) -> f64 {
    serve::metrics::TRACKED_STATUSES
        .iter()
        .map(|s| prom_value(text, &format!("llpd_responses_total{{status=\"{s}\"}}")))
        .sum()
}

#[test]
fn metrics_defaults_to_prometheus_and_negotiates_json() {
    let server = small_server();
    let addr = server.addr();
    assert_eq!(
        post(addr, "/v1/solve", r#"{"zones": 1, "steps": 1}"#).status,
        200
    );

    // Default: the text exposition format, with typed families, labeled
    // series, and cumulative histogram buckets ending at +Inf.
    let prom = get(addr, "/metrics");
    assert_eq!(prom.status, 200);
    assert!(
        prom.header("Content-Type")
            .unwrap()
            .starts_with("text/plain; version=0.0.4"),
        "{:?}",
        prom.header("Content-Type")
    );
    assert!(prom.body.contains("# TYPE llpd_requests_total counter"));
    assert!(prom
        .body
        .contains("# TYPE llpd_request_latency_ms histogram"));
    assert!(prom
        .body
        .contains("llpd_request_latency_ms_bucket{le=\"+Inf\"}"));
    assert!(prom.body.contains("llpd_responses_total{status=\"200\"}"));
    assert!(prom
        .body
        .contains("llpd_solves_by_schedule_total{schedule=\"static\"}"));
    assert!(prom
        .body
        .contains("llpd_kernel_seconds_total{kernel=\"rhs_jk\"}"));
    assert_eq!(prom_value(&prom.body, "llpd_jobs_total"), 1.0);

    // An Accept: application/json header selects the JSON body on the
    // bare path — existing JSON consumers keep working.
    let via_accept = send_raw(
        addr,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nAccept: application/json\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(via_accept.status, 200);
    assert_eq!(via_accept.header("Content-Type"), Some("application/json"));
    assert!(via_accept.json().get("jobs_total").is_some());

    // ?format=json needs no header; ?format=prometheus wins over the
    // Accept header; unknown formats are a clean 400.
    let json = get(addr, "/metrics?format=json");
    assert_eq!(json.header("Content-Type"), Some("application/json"));
    assert!(json.json().get("jobs_total").is_some());
    let forced = send_raw(
        addr,
        "GET /metrics?format=prometheus HTTP/1.1\r\nHost: t\r\nAccept: application/json\r\nConnection: close\r\n\r\n",
    );
    assert!(forced.body.contains("# TYPE llpd_requests_total counter"));
    assert_eq!(get(addr, "/metrics?format=xml").status, 400);
    server.shutdown();
}

#[test]
fn health_and_stats_expose_the_telemetry_windows() {
    let server = Server::start(ServerConfig {
        workers: 2,
        telemetry_window_ms: 50,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    assert_eq!(
        post(addr, "/v1/solve", r#"{"zones": 1, "steps": 1}"#).status,
        200
    );

    let health = get(addr, "/v1/health").json();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("telemetry"), Some(&Json::Bool(true)));
    assert_eq!(
        member_names(&health),
        ["status", "telemetry", "windows_sealed"]
    );

    // Windows seal on the event-loop poll tick.
    wait_until("a telemetry window sealed", || {
        get(addr, "/v1/health")
            .json()
            .get("windows_sealed")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    });
    let stats = get(addr, "/v1/stats?windows=4").json();
    assert_eq!(
        stats.get("telemetry").and_then(Json::as_str),
        Some("enabled")
    );
    let series = stats.get("series").expect("series block");
    assert_eq!(series.get("schema_version").and_then(Json::as_u64), Some(2));
    assert_eq!(series.get("window_ms").and_then(Json::as_u64), Some(50));
    let windows = series.get("windows").and_then(Json::as_array).unwrap();
    assert!(!windows.is_empty() && windows.len() <= 4);
    // A window is its place in time, the `/metrics` document over it,
    // and the pooled sync fraction of the solves it attributed.
    let metrics = get(addr, "/metrics?format=json").json();
    let mut keys = vec!["index", "start_ms", "end_ms"];
    keys.extend(member_names(&metrics));
    keys.push("sync_fraction");
    for w in windows {
        assert_eq!(member_names(w), keys);
        let busy = w.get("obs_busy_ns_total").and_then(Json::as_u64).unwrap();
        let sync = w.get("obs_sync_ns_total").and_then(Json::as_u64).unwrap();
        let pooled = (busy > 0).then(|| Json::Num(sync as f64 / busy as f64));
        assert_eq!(w.get("sync_fraction"), Some(&pooled.unwrap_or(Json::Null)));
    }

    // Query and method validation.
    assert_eq!(get(addr, "/v1/stats?windows=0").status, 400);
    assert_eq!(get(addr, "/v1/stats?bogus=1").status, 400);
    for path in ["/v1/stats", "/v1/health"] {
        let reply = send_raw(
            addr,
            &format!("POST {path} HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"),
        );
        assert_eq!(reply.status, 405, "{path}");
    }
    server.shutdown();
}

#[test]
fn disabled_telemetry_reports_itself_cleanly() {
    let server = Server::start(ServerConfig {
        workers: 1,
        telemetry_window_ms: 0,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    assert_eq!(
        post(addr, "/v1/solve", r#"{"zones": 1, "steps": 1}"#).status,
        200
    );
    let stats = get(addr, "/v1/stats").json();
    assert_eq!(
        stats.get("telemetry").and_then(Json::as_str),
        Some("disabled")
    );
    assert!(matches!(stats.get("series"), Some(Json::Null)));
    let health = get(addr, "/v1/health").json();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("telemetry"), Some(&Json::Bool(false)));
    assert_eq!(health.get("windows_sealed").and_then(Json::as_u64), Some(0));

    // Without windows `/metrics` still counts everything, the per-kernel
    // seconds of both physics included.
    let fdtd = r#"{"solver": "fdtd", "size": 16, "steps": 2}"#;
    assert_eq!(post(addr, "/v1/solve", fdtd).status, 200);
    let prom = get(addr, "/metrics").body;
    for kernel in ["rhs_jk", "update_e"] {
        let seconds = prom_value(
            &prom,
            &format!("llpd_kernel_seconds_total{{kernel=\"{kernel}\"}}"),
        );
        assert!(
            seconds > 0.0,
            "kernel_seconds_total for {kernel} did not move"
        );
    }
    assert!(prom_value(&prom, "llpd_obs_busy_ns_total") > 0.0);
    server.shutdown();
}

#[test]
fn drain_snapshot_keeps_requests_served_moments_before_shutdown() {
    // A window far longer than the test guarantees nothing seals while
    // serving: the drain's force-seal is the only way these requests
    // become visible. This is the regression the satellite fixed —
    // telemetry from the final partial window used to vanish.
    let server = Server::start(ServerConfig {
        workers: 2,
        telemetry_window_ms: 60_000,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    assert_eq!(
        post(addr, "/v1/solve", r#"{"zones": 1, "steps": 1}"#).status,
        200
    );
    assert_eq!(get(addr, "/metrics").status, 200);

    let snapshot = server.shutdown_with_telemetry();
    assert_eq!(
        snapshot.get("event").and_then(Json::as_str),
        Some("llpd.drain")
    );
    let series = snapshot.get("series").expect("series");
    assert_eq!(series.get("schema_version").and_then(Json::as_u64), Some(2));
    let windows = series.get("windows").and_then(Json::as_array).unwrap();
    let total = |path: &[&str]| -> u64 {
        windows
            .iter()
            .map(|w| {
                let value = path.iter().try_fold(w, |j, key| j.get(key));
                value.and_then(Json::as_u64).unwrap()
            })
            .sum()
    };
    let requests = total(&["requests_total"]);
    assert!(requests >= 2, "drain snapshot dropped requests: {requests}");
    assert_eq!(total(&["solves_by_solver", "f3d"]), 1);
    assert!(
        windows
            .iter()
            .any(|w| w.get("sync_fraction").and_then(Json::as_f64).is_some()),
        "the solve's window carries its pooled sync fraction"
    );
    assert_eq!(member_names(&snapshot), ["event", "series"]);
}

#[test]
fn prometheus_counters_stay_consistent_under_concurrent_scrapes() {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    // A background client keeps solves in flight while the main thread
    // scrapes; bypass defeats the cache so executions overlap scrapes.
    let stop = Arc::new(AtomicBool::new(false));
    let replies = Arc::new(AtomicU64::new(0));
    let load = {
        let stop = Arc::clone(&stop);
        let replies = Arc::clone(&replies);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let reply = post(
                    addr,
                    "/v1/solve",
                    r#"{"zones": 1, "steps": 1, "cache": "bypass"}"#,
                );
                assert!(
                    matches!(reply.status, 200 | 429 | 503),
                    "unexpected status {}: {}",
                    reply.status,
                    reply.body
                );
                replies.fetch_add(1, Ordering::SeqCst);
            }
        })
    };

    // At least 15 scrapes, and as many more as it takes for the load
    // thread to have counted a reply: on two vCPUs fifteen scrapes can
    // finish before the first solve does, and then no load overlapped
    // them.
    let mut last_requests = 0.0;
    let mut last_sum = 0.0;
    let started = Instant::now();
    let mut scrapes = 0;
    while scrapes < 15 || replies.load(Ordering::SeqCst) == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "no load flowed during {scrapes} scrapes"
        );
        let prom = get(addr, "/metrics");
        assert_eq!(prom.status, 200);
        let requests = prom_value(&prom.body, "llpd_requests_total");
        let sum = prom_status_sum(&prom.body);
        // Counters are monotone across scrapes...
        assert!(requests >= last_requests, "{requests} < {last_requests}");
        assert!(sum >= last_sum, "{sum} < {last_sum}");
        // ...and a request is counted at routing, its response at
        // completion, so mid-flight the routed count only ever leads.
        assert!(
            requests >= sum,
            "responses outran requests: {requests} < {sum}"
        );
        (last_requests, last_sum) = (requests, sum);
        scrapes += 1;
    }
    stop.store(true, Ordering::SeqCst);
    load.join().expect("the load thread's own assertions held");

    wait_until("queue drained", || {
        metric(addr, "queue_depth") == 0 && metric(addr, "executor_busy") == 0
    });
    // Quiescent: every routed request has recorded its response except
    // the final scrape itself, counted at route time but rendered
    // before its own response exists.
    let prom = get(addr, "/metrics");
    let requests = prom_value(&prom.body, "llpd_requests_total");
    let sum = prom_status_sum(&prom.body);
    assert!(
        (requests - (sum + 1.0)).abs() < f64::EPSILON,
        "quiescent mismatch: requests_total={requests}, sum over statuses={sum}"
    );
    server.shutdown();
}

#[test]
fn shutdown_closes_idle_keep_alive_connections() {
    let server = small_server();
    let addr = server.addr();

    // An idle keep-alive connection must not hold up a drain.
    let mut client = Client::connect(addr);
    assert_eq!(client.get("/metrics").status, 200);
    let start = Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "drain hung on an idle keep-alive connection"
    );
    // The server hung up on the idle connection during the drain.
    let mut rest = Vec::new();
    client.stream.read_to_end(&mut rest).expect("read EOF");
    assert!(rest.is_empty());
}

// ------------------------------------------------------- multi-physics

#[test]
fn fdtd_solve_round_trips_and_caches() {
    let case = fdtd::FdtdCase {
        size: 16,
        steps: 4,
        workers: 2,
        schedule: Policy::Static,
        vector_width: 1,
    };
    let direct = fdtd::service::run(&case, &llp::Workers::recorded(2))
        .unwrap()
        .output;

    let server = Server::start(ServerConfig {
        workers: 2,
        telemetry_window_ms: 50,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let body = r#"{"solver": "fdtd", "size": 16, "steps": 4, "workers": 2}"#;

    let reply = post(addr, "/v1/solve", body);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let served = reply.json();
    assert_eq!(served.get("solver").and_then(Json::as_str), Some("fdtd"));
    assert_eq!(served.get("cache").and_then(Json::as_str), Some("miss"));
    let energy: Vec<f64> = served
        .get("energy")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|e| e.as_f64().unwrap())
        .collect();
    assert_eq!(energy, direct.energy, "served energy history is bit-exact");
    let checksums = served.get("checksums").and_then(Json::as_array).unwrap();
    assert_eq!(checksums.len(), direct.checksums.len());
    for (served_field, direct_field) in checksums.iter().zip(&direct.checksums) {
        assert_eq!(
            served_field.get("field").and_then(Json::as_str),
            Some(direct_field.field.as_str())
        );
        assert_eq!(
            served_field.get("sum").and_then(Json::as_f64),
            Some(direct_field.sum)
        );
    }
    assert!(served.get("sync_events").and_then(Json::as_u64).unwrap() > 0);

    // An identical request is a cache hit — no re-execution.
    let repeat = post(addr, "/v1/solve", body);
    assert_eq!(repeat.status, 200);
    assert_eq!(
        repeat.json().get("cache").and_then(Json::as_str),
        Some("hit")
    );
    let hits = get(addr, "/metrics?format=json")
        .json()
        .get("cache")
        .and_then(|c| c.get("hits").and_then(Json::as_u64));
    assert_eq!(hits, Some(1));

    // Both physics tick their own per-solver counter series.
    assert_eq!(
        post(addr, "/v1/solve", r#"{"zones": 1, "steps": 1}"#).status,
        200
    );
    let by_solver = get(addr, "/metrics?format=json")
        .json()
        .get("solves_by_solver")
        .cloned()
        .expect("/metrics has `solves_by_solver`");
    assert_eq!(by_solver.get("fdtd").and_then(Json::as_u64), Some(1));
    assert_eq!(by_solver.get("f3d").and_then(Json::as_u64), Some(1));
    let prom = get(addr, "/metrics").body;
    assert_eq!(
        prom_value(&prom, "llpd_solves_by_solver_total{solver=\"fdtd\"}"),
        1.0
    );
    assert_eq!(
        prom_value(&prom, "llpd_solves_by_solver_total{solver=\"f3d\"}"),
        1.0
    );

    // The telemetry windows count solves per solver, as /metrics does.
    wait_until("an fdtd solve in a /v1/stats window", || {
        let stats = get(addr, "/v1/stats?windows=120").json();
        let windows = stats.get("series").and_then(|s| s.get("windows"));
        windows.and_then(Json::as_array).unwrap().iter().any(|w| {
            let fdtd = w.get("solves_by_solver").and_then(|s| s.get("fdtd"));
            fdtd.and_then(Json::as_u64) == Some(1)
        })
    });
    server.shutdown();
}

#[test]
fn fdtd_tune_calibrates_and_auto_solves_bit_exact() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Querying an unregistered solver's tune slot is a 400, in the
    // query grammar every other endpoint speaks.
    for (query, message) in [
        (
            "solver=mhd",
            "unknown solver `mhd`; known solvers: f3d, fdtd",
        ),
        ("bogus=1", "unknown query parameter `bogus`"),
        (
            "solver=fdtd&solver=f3d",
            "duplicate query parameter `solver`",
        ),
    ] {
        let reply = get(addr, &format!("/v1/tune?{query}"));
        assert_eq!(reply.status, 400, "{query}");
        assert_eq!(
            reply.json().get("error").and_then(Json::as_str),
            Some(message)
        );
    }
    // The fdtd slot starts untuned even after f3d would be seeded.
    let idle = get(addr, "/v1/tune?solver=fdtd").json();
    assert_eq!(idle.get("solver").and_then(Json::as_str), Some("fdtd"));
    assert_eq!(idle.get("status").and_then(Json::as_str), Some("idle"));

    let started = post(
        addr,
        "/v1/tune",
        r#"{"solver": "fdtd", "zones": 1, "steps": 1, "trials": 1}"#,
    );
    assert_eq!(started.status, 200, "{}", started.body);
    assert_eq!(
        started.json().get("solver").and_then(Json::as_str),
        Some("fdtd")
    );
    wait_until("fdtd calibration to finish", || {
        get(addr, "/v1/tune?solver=fdtd")
            .json()
            .get("status")
            .and_then(Json::as_str)
            == Some("ready")
    });
    let status = get(addr, "/v1/tune?solver=fdtd").json();
    let db = status.get("db").expect("ready status carries the db");
    assert_eq!(db.get("solver").and_then(Json::as_str), Some("fdtd"));
    let kernels: Vec<&str> = db
        .get("entries")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|e| e.get("kernel").and_then(Json::as_str))
        .collect();
    assert!(kernels.contains(&"update_e") && kernels.contains(&"update_h"));
    // The f3d slot is untouched by an fdtd calibration.
    assert_eq!(
        get(addr, "/v1/tune")
            .json()
            .get("solver")
            .and_then(Json::as_str),
        Some("f3d")
    );

    // An auto fdtd solve resolves the fresh entries and stays bit-exact.
    let case = fdtd::FdtdCase {
        size: 16,
        steps: 3,
        workers: 2,
        schedule: Policy::Static,
        vector_width: 1,
    };
    let direct = fdtd::service::run(&case, &llp::Workers::recorded(2))
        .unwrap()
        .output;
    let reply = post(
        addr,
        "/v1/solve",
        r#"{"solver": "fdtd", "size": 16, "steps": 3, "workers": 2, "schedule": "auto"}"#,
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    let served = reply.json();
    let energy: Vec<f64> = served
        .get("energy")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|e| e.as_f64().unwrap())
        .collect();
    assert_eq!(energy, direct.energy, "tuned fdtd solve is bit-exact");
    let tuned = served.get("tuned").expect("auto solve reports `tuned`");
    assert_eq!(tuned.get("source").and_then(Json::as_str), Some("tune-db"));
    server.shutdown();
}

#[test]
fn memory_budget_rejects_oversized_solves_with_413() {
    // Budget exactly at the size-16 fdtd estimate: that case is
    // admitted, the size-32 one is not.
    let in_budget = (16u64 * 16 * 3 * 8) + 2 * 4096;
    let over = (32u64 * 32 * 3 * 8) + 2 * 4096;
    let server = Server::start(ServerConfig {
        workers: 2,
        memory_budget: Some(in_budget),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    let ok = post(
        addr,
        "/v1/solve",
        r#"{"solver": "fdtd", "size": 16, "steps": 2, "workers": 2}"#,
    );
    assert_eq!(ok.status, 200, "at-budget solve must run: {}", ok.body);

    let rejected = post(
        addr,
        "/v1/solve",
        r#"{"solver": "fdtd", "size": 32, "steps": 2, "workers": 2}"#,
    );
    assert_eq!(rejected.status, 413, "{}", rejected.body);
    let body = rejected.json();
    assert_eq!(
        body.get("estimated_bytes").and_then(Json::as_u64),
        Some(over)
    );
    assert_eq!(
        body.get("budget_bytes").and_then(Json::as_u64),
        Some(in_budget)
    );

    // Bypass is not a loophole: the budget gates pool work itself.
    let bypassed = post(
        addr,
        "/v1/solve",
        r#"{"solver": "fdtd", "size": 32, "steps": 2, "workers": 2, "cache": "bypass"}"#,
    );
    assert_eq!(bypassed.status, 413);
    // f3d estimates run through the same gate (a large case blows the
    // small fdtd-scaled budget).
    assert_eq!(
        post(addr, "/v1/solve", r#"{"zones": 4, "steps": 2}"#).status,
        413
    );

    assert_eq!(metric(addr, "solves_rejected_memory_total"), 3);
    let prom = get(addr, "/metrics").body;
    assert_eq!(prom_value(&prom, "llpd_solves_rejected_memory_total"), 3.0);
    // Rejections never consumed an executor.
    assert_eq!(metric(addr, "jobs_total"), 1);
    server.shutdown();
}

#[test]
fn unknown_solver_answers_400_naming_the_registry() {
    let server = small_server();
    let addr = server.addr();
    let reply = post(addr, "/v1/solve", r#"{"solver": "mhd", "size": 16}"#);
    assert_eq!(reply.status, 400);
    assert!(
        reply.body.contains("unknown solver `mhd`")
            && reply.body.contains("f3d")
            && reply.body.contains("fdtd"),
        "error must name the registry: {}",
        reply.body
    );
    // A tune request for an unknown solver is refused the same way.
    let tune = post(addr, "/v1/tune", r#"{"solver": "mhd"}"#);
    assert_eq!(tune.status, 400);
    assert!(tune.body.contains("unknown solver"), "{}", tune.body);
    server.shutdown();
}
