//! A server's threads, counted from outside through `/proc/self/task`:
//! the event loop, one executor per worker, and the one team's helpers
//! — however many requests run at once, and for as long as it serves.
//! One test function on purpose: a test binary runs its tests on
//! parallel threads, and a second test would move the count.

use serve::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Threads of this process, or `None` where `/proc` is not mounted.
fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(Iterator::count)
}

fn solve(addr: SocketAddr, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "POST /v1/solve HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read");
    reply
}

/// 200 solves from `clients` threads at once, every one answered 200.
fn load(addr: SocketAddr, clients: usize) {
    let bodies = [
        r#"{"zones": 1, "steps": 1, "workers": 4, "cache": "bypass"}"#,
        r#"{"solver": "fdtd", "size": 16, "steps": 2, "workers": 4, "schedule": "dynamic", "cache": "bypass"}"#,
    ];
    let per_client = 200 / clients;
    let senders: Vec<_> = (0..clients)
        .map(|client| {
            std::thread::spawn(move || {
                for i in 0..per_client {
                    let reply = solve(addr, bodies[(client + i) % bodies.len()]);
                    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
                }
            })
        })
        .collect();
    for sender in senders {
        sender.join().unwrap();
    }
}

#[test]
fn a_server_is_its_event_loop_its_executors_and_one_team() {
    let Some(before) = threads() else { return };
    for workers in [1, 2, 4] {
        let server = Server::start(ServerConfig {
            workers,
            queue_capacity: 64,
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        // Helpers are spawned on a team's first wide region.
        assert_eq!(threads(), Some(before + 1 + workers), "workers={workers}");
        let serving = before + 1 + workers + (workers - 1);
        load(addr, 4);
        assert_eq!(threads(), Some(serving), "workers={workers}");
        // ...and never again, however long it serves.
        load(addr, 4);
        assert_eq!(threads(), Some(serving), "workers={workers}");
        server.shutdown();
        assert_eq!(
            threads(),
            Some(before),
            "workers={workers}: a thread outlived the server"
        );
    }
}
