//! What concurrency may and may not change on a server whose executors
//! share one worker team.
//!
//! Every executor runs its jobs on all of the team's lanes, and a
//! region takes whichever helpers are free, so how wide a region really
//! ran depends on the load. The answers must not: a solve's `checksums`
//! and `sync_events` (one per region, whatever its width) are those of
//! the same request alone, and its `checksums` those of a one-worker
//! run. What may change is only visible in the trace — and once the
//! load is gone, a lone solve has the whole team again.

use llp::obs::json::Json;
use llp::Workers;
use serve::{api, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// f3d static, f3d self-scheduled, FDTD self-scheduled; every one asks
/// for more workers than any server below has, and bypasses the cache
/// so that every request executes.
const BODIES: [&str; 3] = [
    r#"{"zones": 2, "steps": 2, "workers": 4, "cache": "bypass"}"#,
    r#"{"zones": 2, "steps": 2, "workers": 4, "schedule": "dynamic", "chunk": 2, "cache": "bypass"}"#,
    r#"{"solver": "fdtd", "size": 32, "steps": 4, "workers": 4, "schedule": "dynamic", "chunk": 3, "cache": "bypass"}"#,
];

/// One request on its own connection: status and JSON body.
fn send(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, Json) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read");
    let (head, body) = text.split_once("\r\n\r\n").expect("a blank line");
    let status = head.split(' ').nth(1).and_then(|s| s.parse().ok());
    let json = Json::parse(body).expect("a JSON body");
    (status.expect("a status line"), json)
}

/// What may not change under load: the checksums and the sync events.
fn answer(reply: &Json) -> (Json, u64) {
    let checksums = reply.get("checksums").expect("checksums").clone();
    let sync_events = reply.get("sync_events").and_then(Json::as_u64);
    (checksums, sync_events.expect("sync_events"))
}

fn solve(addr: SocketAddr, body: &str) -> Json {
    let (status, reply) = send(addr, "POST", "/v1/solve", body);
    assert_eq!(status, 200, "{body}: {reply}");
    reply
}

/// The body's checksums from a direct run on a one-worker pool.
fn direct_checksums(body: &str) -> Json {
    let request = api::parse_solve_body(body, 1).expect("a valid body");
    let run = request.case.run(&Workers::new(1), None).unwrap();
    let rendered = api::SolveBody::new(&*run).finish(None, Json::Null, "bypass");
    let reply = Json::parse(&rendered).unwrap();
    reply.get("checksums").unwrap().clone()
}

#[test]
fn concurrent_solves_answer_what_a_lone_solve_answers() {
    let direct: Vec<Json> = BODIES.iter().map(|body| direct_checksums(body)).collect();
    for workers in [1, 2, 4] {
        let server = Server::start(ServerConfig {
            workers,
            queue_capacity: 16,
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        let alone: Vec<(Json, u64)> = BODIES
            .iter()
            .map(|body| answer(&solve(addr, body)))
            .collect();
        for (i, (checksums, _)) in alone.iter().enumerate() {
            assert_eq!(checksums, &direct[i], "workers={workers} {}", BODIES[i]);
        }

        for clients in [2, 4] {
            let load: Vec<_> = (0..clients)
                .map(|client| {
                    std::thread::spawn(move || {
                        (0..6)
                            .map(|i| {
                                let which = (client + i) % BODIES.len();
                                (which, answer(&solve(addr, BODIES[which])))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for replies in load {
                for (which, got) in replies.join().unwrap() {
                    let context = format!("workers={workers} clients={clients} {}", BODIES[which]);
                    assert_eq!(got, alone[which], "{context}");
                }
            }
        }

        // The load is gone: a lone solve runs on the whole pool again —
        // its report and every region name the pool's width, with one
        // lane per worker. (How many lanes a region really got is the
        // host's business: a helper that has no CPU in time leaves its
        // chunks to the caller, and the region's `lanes` says so.)
        let reply = solve(addr, BODIES[0]);
        let report_width = reply.get("report").and_then(|r| r.get("workers"));
        assert_eq!(report_width.and_then(Json::as_u64), Some(workers as u64));
        let id = reply
            .get("trace_id")
            .and_then(Json::as_u64)
            .expect("traced");
        let (status, trace) = send(addr, "GET", &format!("/v1/trace/{id}"), "");
        assert_eq!(status, 200);
        let attribution = trace.get("attribution").unwrap();
        let lanes = attribution.get("workers").and_then(Json::as_array).unwrap();
        assert_eq!(lanes.len(), workers, "one lane per worker");
        let regions = attribution.get("regions").and_then(Json::as_array).unwrap();
        assert!(!regions.is_empty());
        for region in regions {
            let width = region.get("workers").and_then(Json::as_u64);
            assert_eq!(width, Some(workers as u64), "workers={workers}");
            let lanes = region.get("lanes").and_then(Json::as_u64).unwrap();
            assert!((1..=workers as u64).contains(&lanes), "workers={workers}");
        }
        server.shutdown();
    }
}
