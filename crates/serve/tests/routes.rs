//! The route table's byte witness (`golden/routes.tsv`): every route
//! row plus one unknown path, each under `GET`, `POST` and `PUT`,
//! through a live server. A row records the status, the
//! `requests_by_endpoint_total` label the request is counted under and,
//! for every non-200, the exact body. On a mismatch the actual table is
//! left under `CARGO_TARGET_TMPDIR` next to the panic message.

use llp::obs::json::Json;
use serve::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One target per route row (a prefix row with a tail), then a path no
/// row matches.
const TARGETS: [&str; 9] = [
    "/v1/solve",
    "/v1/advise",
    "/v1/model/stairstep?units=15&processors=1,4",
    "/metrics",
    "/v1/trace/1",
    "/v1/tune",
    "/v1/health",
    "/v1/stats",
    "/nope",
];

/// One request on its own connection: the status code and the body. A
/// `POST` or `PUT` carries `[]`, which no handler accepts, so no row
/// starts work (an empty `POST /v1/tune` would start a calibration).
fn send(addr: SocketAddr, method: &str, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let body = if method == "GET" { "" } else { "[]" };
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let (head, body) = text.split_once("\r\n\r\n").expect("a blank line");
    let status = head.split(' ').nth(1).and_then(|s| s.parse().ok());
    (status.expect("a status line"), body.to_string())
}

/// `requests_by_endpoint_total` as `(label, count)` in exposition order.
fn endpoints(addr: SocketAddr) -> Vec<(String, u64)> {
    let (_, body) = send(addr, "GET", "/metrics?format=json");
    let doc = Json::parse(&body).expect("JSON metrics");
    let family = doc.get("endpoints").and_then(Json::as_object).unwrap();
    family
        .iter()
        .map(|(label, n)| (label.clone(), n.as_u64().unwrap()))
        .collect()
}

#[test]
fn every_route_keeps_its_status_label_and_error_text() {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let mut actual = String::from("# method\ttarget\tstatus\tendpoint label\tbody if not 200\n");
    for target in TARGETS {
        for method in ["GET", "POST", "PUT"] {
            let before = endpoints(addr);
            let (status, body) = send(addr, method, target);
            let after = endpoints(addr);
            // The second scrape counts itself under `metrics`.
            let moved: Vec<(&str, u64)> = before
                .iter()
                .zip(&after)
                .map(|((_, b), (label, a))| (label.as_str(), a - b - u64::from(label == "metrics")))
                .filter(|&(_, n)| n > 0)
                .collect();
            assert!(
                matches!(moved[..], [(_, 1)]),
                "{method} {target} counted under {moved:?}"
            );
            let body = if status == 200 { "-" } else { &body };
            actual += &format!("{method}\t{target}\t{status}\t{}\t{body}\n", moved[0].0);
        }
    }
    server.shutdown();
    if actual != include_str!("golden/routes.tsv") {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("routes.tsv");
        std::fs::write(&dump, &actual).expect("write the actual table");
        panic!(
            "routes.tsv drifted from its golden; actual: {}",
            dump.display()
        );
    }
}
