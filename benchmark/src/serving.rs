//! The serve workloads: an in-process `serve::Server` driven over
//! loopback by closed-loop keep-alive clients.
//!
//! Closed loop is deliberate: callers of `llpd` each wait for their
//! reply, the client count equals P, and the queue capacity (8) is at
//! least P, so the baseline sees no 429. The load generator is this
//! process and shares the host's cores with the server.

use crate::rng::Rng;
use crate::spans::{SpanId, Tracer};
use crate::workload::{us, Block, Failures, Mode, Workload};
use f3d::service::{ServiceCase, ZoneSchedule};
use fdtd::service::FdtdCase;
use llp::obs::json::Json;
use llp::{Policy, Workers};
use serve::{Server, ServerConfig};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---------------------------------------------------------- requests

/// What a correct reply to a catalog entry looks like.
enum Expect {
    /// 200, and the body carries exactly these rendered `checksums`.
    /// `offset` caches where they were last found (0 = not yet), so the
    /// usual check is one slice comparison, not a search.
    Checksums { needle: String, offset: AtomicUsize },
    /// 200 is all there is to check.
    Ok,
}

struct Entry {
    raw: String,
    expect: Expect,
}

fn get(target: &str) -> String {
    format!("GET {target} HTTP/1.1\r\nHost: benchmark\r\n\r\n")
}

fn post(target: &str, body: &str) -> String {
    format!(
        "POST {target} HTTP/1.1\r\nHost: benchmark\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn solve(body: &str, needle: &str) -> Entry {
    Entry {
        raw: post("/v1/solve", body),
        expect: Expect::Checksums {
            needle: needle.to_string(),
            offset: AtomicUsize::new(0),
        },
    }
}

fn plain(raw: String) -> Entry {
    Entry {
        raw,
        expect: Expect::Ok,
    }
}

/// The `"checksums":[…]` member exactly as the server renders it.
fn needle_of(response: &Json) -> String {
    let sums = response
        .get("checksums")
        .expect("solve responses carry checksums")
        .clone();
    let doc = Json::object(vec![("checksums", sums)]).to_string();
    doc[1..doc.len() - 1].to_string()
}

/// Checksums of an F3D case from a direct `f3d::service::run` — the
/// oracle every served reply of that case is held against. Schedule,
/// chunk and worker count never change them (bit-exactness is the
/// serving contract), so one run covers every spelling of the case.
pub fn f3d_needle(zones: usize, steps: usize, p: usize) -> String {
    let case = f3d_case(zones, steps, p, ZoneSchedule::Sequential);
    let run = f3d::service::run(&case, &Workers::new(p)).expect("a valid f3d case");
    needle_of(&serve::api::solve_response(&run, None, Json::Null, "miss"))
}

pub fn f3d_case(zones: usize, steps: usize, p: usize, zone_schedule: ZoneSchedule) -> ServiceCase {
    ServiceCase {
        zones,
        steps,
        workers: p,
        schedule: Policy::Static,
        zone_schedule,
        vector_width: 1,
    }
}

pub fn fdtd_case(size: usize, steps: usize, p: usize) -> FdtdCase {
    FdtdCase {
        size,
        steps,
        workers: p,
        schedule: Policy::Static,
        vector_width: 1,
    }
}

fn fdtd_needle(size: usize, steps: usize, p: usize) -> String {
    let run = fdtd::service::run(&fdtd_case(size, steps, p), &Workers::new(p))
        .expect("a valid fdtd case");
    needle_of(&serve::api::fdtd_solve_response(
        &run,
        None,
        Json::Null,
        "miss",
    ))
}

const ADVISE_BODY: &str = r#"{"clock_hz": 300e6, "sync_cost_cycles": 10000, "processors": 32,
    "loops": [{"name": "rhs", "invocations": 10, "total_seconds": 90.0, "parallelism": 320}]}"#;
const STAIRSTEP_QUERY: &str = "/v1/model/stairstep?units=15&processors=1,2,4,8";

/// Solve bodies of the hot working set: 16 F3D and 16 FDTD cases, all
/// resident in the 128-entry cache after the warm-up.
pub const HOT_BODIES: usize = 32;
/// Distinct cache keys per solver the cold stream rotates through:
/// `workers` 2..=64 (clamped to the pool, so identical execution) x
/// `"schedule":"dynamic","chunk":1..=3`.
pub const COLD_KEYS: usize = 63 * 3;
/// The cold case of each solver.
pub const COLD_F3D: (usize, usize) = (2, 4);
pub const COLD_FDTD: (usize, usize) = (128, 32);

/// Catalog entries the layer panel singles out: of the hot catalog a
/// cached solve, the stairstep query and the Prometheus scrape; of the
/// cold catalog the bypass solve.
pub const CACHED_SOLVE: usize = 0;
pub const STAIRSTEP: usize = HOT_BODIES;
pub const METRICS: usize = HOT_BODIES + 2;
pub const BYPASS: usize = 0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Traffic {
    Hot,
    Cold,
}

/// The request bodies of one traffic mix. Hot: entries `0..32` are the
/// working set, then stairstep, advise, metrics. Cold: entry 0 is the
/// bypass solve, then 189 F3D keys, then 189 FDTD keys.
fn catalog(traffic: Traffic, p: usize) -> Vec<Entry> {
    match traffic {
        Traffic::Hot => {
            let mut entries = Vec::new();
            for zones in 1..=4 {
                for steps in 1..=4 {
                    let body = format!(r#"{{"zones":{zones},"steps":{steps}}}"#);
                    entries.push(solve(&body, &f3d_needle(zones, steps, p)));
                }
            }
            for size in [16, 32, 64, 128] {
                for steps in [8, 16, 32, 64] {
                    let body = format!(r#"{{"solver":"fdtd","size":{size},"steps":{steps}}}"#);
                    entries.push(solve(&body, &fdtd_needle(size, steps, p)));
                }
            }
            entries.push(plain(get(STAIRSTEP_QUERY)));
            entries.push(plain(post("/v1/advise", ADVISE_BODY)));
            entries.push(plain(get("/metrics")));
            entries
        }
        Traffic::Cold => {
            let f3d = f3d_needle(COLD_F3D.0, COLD_F3D.1, p);
            let fdtd = fdtd_needle(COLD_FDTD.0, COLD_FDTD.1, p);
            let (zones, steps) = COLD_F3D;
            let mut entries = vec![solve(
                &format!(r#"{{"zones":{zones},"steps":{steps},"cache":"bypass"}}"#),
                &f3d,
            )];
            let keys = || (2..=64).flat_map(|workers| (1..=3).map(move |chunk| (workers, chunk)));
            for (workers, chunk) in keys() {
                let body = format!(
                    r#"{{"zones":{zones},"steps":{steps},"workers":{workers},"schedule":"dynamic","chunk":{chunk}}}"#
                );
                entries.push(solve(&body, &f3d));
            }
            let (size, steps) = COLD_FDTD;
            for (workers, chunk) in keys() {
                let body = format!(
                    r#"{{"solver":"fdtd","size":{size},"steps":{steps},"workers":{workers},"schedule":"dynamic","chunk":{chunk}}}"#
                );
                entries.push(solve(&body, &fdtd));
            }
            entries
        }
    }
}

/// The seeded request sequence: draw `n` is a function of the seed and
/// of `n` alone, whichever client happens to send it.
#[derive(Clone, Debug)]
pub struct Stream {
    traffic: Traffic,
    rng: Rng,
    /// Position in the cold key rotation. The warm-up used key 0 of
    /// each solver, so the rotation starts at 1.
    rotation: usize,
    drawn: u64,
}

impl Stream {
    pub fn new(traffic: Traffic, seed: u64) -> Self {
        Stream {
            traffic,
            rng: Rng::new(seed),
            rotation: 1,
            drawn: 0,
        }
    }

    /// `(sequence number, catalog entry)` of the next request.
    pub fn next(&mut self) -> (u64, usize) {
        let roll = self.rng.below(100);
        let entry = match self.traffic {
            // 5% each stairstep, advise, metrics; the rest cached solves.
            Traffic::Hot => match roll {
                0..=4 => HOT_BODIES,
                5..=9 => HOT_BODIES + 1,
                10..=14 => HOT_BODIES + 2,
                _ => self.rng.below(HOT_BODIES as u64) as usize,
            },
            // 40% bypass, 30% unique-key f3d, 30% unique-key fdtd. One
            // rotation counter serves both solvers, so any 189
            // consecutive unique-key requests insert 189 distinct
            // entries and a key comes round only after the 128-entry
            // LRU has dropped it.
            Traffic::Cold => {
                if roll < 40 {
                    0
                } else {
                    let key = self.rotation % COLD_KEYS;
                    self.rotation += 1;
                    1 + key + if roll < 70 { 0 } else { COLD_KEYS }
                }
            }
        };
        self.drawn += 1;
        (self.drawn - 1, entry)
    }
}

/// The POST body of a cold catalog entry, for the cache-rotation test.
#[cfg(test)]
fn body_of(entry: &Entry) -> &str {
    entry
        .raw
        .split_once("\r\n\r\n")
        .expect("a framed request")
        .1
}

// ------------------------------------------------------------ client

/// One keep-alive connection. Replies are framed by `Content-Length`.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Timestamps of one round trip; the body stays in the client's buffer.
pub struct Reply {
    pub status: u16,
    pub sent: Instant,
    pub written: Instant,
    pub first_byte: Instant,
    pub done: Instant,
    body_at: usize,
}

fn bad_reply(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    pub fn roundtrip(&mut self, raw: &str) -> io::Result<Reply> {
        self.buf.clear();
        let sent = Instant::now();
        self.stream.write_all(raw.as_bytes())?;
        let written = Instant::now();
        let mut first_byte = None;
        // (end of head, total length) once the head has arrived.
        let mut frame: Option<(usize, usize)> = None;
        loop {
            if let Some((_, total)) = frame {
                if self.buf.len() >= total {
                    break;
                }
            }
            let filled = self.buf.len();
            self.buf.resize(filled + 16 * 1024, 0);
            let n = self.stream.read(&mut self.buf[filled..])?;
            self.buf.truncate(filled + n);
            if n == 0 {
                return Err(bad_reply("server closed a kept-alive connection mid-reply"));
            }
            first_byte.get_or_insert_with(Instant::now);
            if frame.is_none() {
                if let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    let head = std::str::from_utf8(&self.buf[..head_end])
                        .map_err(|_| bad_reply("head is not UTF-8"))?;
                    let length: usize = head
                        .lines()
                        .find_map(|l| l.strip_prefix("Content-Length: "))
                        .and_then(|v| v.trim().parse().ok())
                        .ok_or_else(|| bad_reply("no Content-Length"))?;
                    frame = Some((head_end + 4, head_end + 4 + length));
                }
            }
        }
        let done = Instant::now();
        let status = std::str::from_utf8(self.buf.get(9..12).unwrap_or_default())
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_reply("no status line"))?;
        Ok(Reply {
            status,
            sent,
            written,
            first_byte: first_byte.unwrap_or(done),
            done,
            body_at: frame.map_or(0, |f| f.0),
        })
    }

    pub fn body(&self, reply: &Reply) -> &[u8] {
        &self.buf[reply.body_at..]
    }
}

/// Is `reply` a correct answer to `entry`?
fn verify(entry: &Entry, reply: &Reply, body: &[u8]) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!("status {}", reply.status));
    }
    let Expect::Checksums { needle, offset } = &entry.expect else {
        return Ok(());
    };
    let at = offset.load(Ordering::Relaxed);
    if at != 0 && body.get(at..at + needle.len()) == Some(needle.as_bytes()) {
        return Ok(());
    }
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    match text.find(needle.as_str()) {
        Some(found) => {
            offset.store(found, Ordering::Relaxed);
            Ok(())
        }
        None => Err("checksums differ from the direct service run".to_string()),
    }
}

// ---------------------------------------------------------- workload

/// Counters of `/metrics?format=json` the benchmark takes deltas of.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counts {
    pub solve_requests: f64,
    pub hits: f64,
    pub coalesced: f64,
    pub rejected: f64,
    pub jobs: f64,
    pub sync_events: f64,
}

impl Counts {
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            solve_requests: self.solve_requests - earlier.solve_requests,
            hits: self.hits - earlier.hits,
            coalesced: self.coalesced - earlier.coalesced,
            rejected: self.rejected - earlier.rejected,
            jobs: self.jobs - earlier.jobs,
            sync_events: self.sync_events - earlier.sync_events,
        }
    }

    /// Cache hits as a share of solve requests.
    pub fn hit_share(self) -> f64 {
        self.hits / self.solve_requests
    }
}

pub struct Serve {
    name: &'static str,
    traffic: Traffic,
    server: Option<Server>,
    addr: SocketAddr,
    clients: Vec<Client>,
    entries: Vec<Entry>,
    stream: Mutex<Stream>,
    main_block: Duration,
    base_block: Duration,
    /// Counters after the warm-up, before the first timed request.
    baseline: Counts,
}

impl Serve {
    pub fn set_up(
        name: &'static str,
        traffic: Traffic,
        seed: u64,
        p: usize,
        failures: &mut Failures,
    ) -> io::Result<Self> {
        let server = Server::start(ServerConfig {
            workers: p,
            ..ServerConfig::default()
        })?;
        let addr = server.addr();
        let entries = catalog(traffic, p);
        let clients = (0..p)
            .map(|_| Client::connect(addr))
            .collect::<io::Result<Vec<_>>>()?;
        let (main_block, base_block) = match traffic {
            Traffic::Hot => (Duration::from_millis(400), Duration::from_millis(200)),
            Traffic::Cold => (Duration::from_millis(1000), Duration::from_millis(500)),
        };
        let mut serve = Serve {
            name,
            traffic,
            server: Some(server),
            addr,
            clients,
            entries,
            stream: Mutex::new(Stream::new(traffic, seed)),
            main_block,
            base_block,
            baseline: Counts::default(),
        };
        // Untimed warm-up: fill the cache with the hot working set, or
        // run each cold path once (key 0 of both solvers; the rotation
        // starts at key 1).
        let warm: Vec<usize> = match traffic {
            Traffic::Hot => (0..serve.entries.len()).collect(),
            Traffic::Cold => vec![0, 0, 1, 1 + COLD_KEYS],
        };
        for entry in warm {
            if let Err(what) = serve.one(entry) {
                failures.push(1, format!("{name}: warm-up request {entry}: {what}"));
            }
        }
        serve.baseline = serve.counts()?;
        Ok(serve)
    }

    /// Send catalog entry `entry` on the first client and check the reply.
    fn one(&mut self, entry: usize) -> Result<f64, String> {
        let client = &mut self.clients[0];
        let reply = client
            .roundtrip(&self.entries[entry].raw)
            .map_err(|e| e.to_string())?;
        verify(&self.entries[entry], &reply, client.body(&reply))?;
        Ok(us(reply.sent, reply.done))
    }

    /// One client sending catalog entry `entry` back to back for
    /// `duration`: round-trip times in microseconds.
    pub fn rtt_probe(
        &mut self,
        entry: usize,
        duration: Duration,
        failures: &mut Failures,
    ) -> Vec<f64> {
        let deadline = Instant::now() + duration;
        let mut samples = Vec::new();
        while Instant::now() < deadline {
            match self.one(entry) {
                Ok(us) => samples.push(us),
                Err(what) => {
                    failures.push(1, format!("{}: probe of entry {entry}: {what}", self.name));
                    break;
                }
            }
        }
        samples
    }

    /// Scrape `/metrics?format=json` on a connection of its own.
    pub fn counts(&self) -> io::Result<Counts> {
        let mut client = Client::connect(self.addr)?;
        let reply = client.roundtrip(&get("/metrics?format=json"))?;
        let text = std::str::from_utf8(client.body(&reply))
            .map_err(|_| bad_reply("metrics are not UTF-8"))?;
        let doc = Json::parse(text).map_err(|e| bad_reply(&e))?;
        let number = |path: &[&str]| {
            path.iter()
                .try_fold(&doc, |at, key| at.get(key))
                .and_then(Json::as_f64)
                .ok_or_else(|| bad_reply(&format!("metrics lack {}", path.join("."))))
        };
        Ok(Counts {
            solve_requests: number(&["endpoints", "solve"])?,
            hits: number(&["cache", "hits"])?,
            coalesced: number(&["cache", "coalesced"])?,
            rejected: number(&["rejected_total"])?,
            jobs: number(&["jobs_total"])?,
            sync_events: number(&["pool_sync_events_total"])?,
        })
    }

    /// Counter deltas since the end of the warm-up.
    pub fn counts_since_warm_up(&self) -> io::Result<Counts> {
        Ok(self.counts()?.since(self.baseline))
    }
}

/// One closed-loop client until `deadline`.
fn drive(
    name: &str,
    client: &mut Client,
    addr: SocketAddr,
    entries: &[Entry],
    stream: &Mutex<Stream>,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
) -> (Block, Failures) {
    let mut block = Block::default();
    let mut failures = Failures::default();
    while Instant::now() < deadline {
        let (seq, index) = stream
            .lock()
            .expect("no client panics holding the stream")
            .next();
        let entry = &entries[index];
        let outcome = match client.roundtrip(&entry.raw) {
            Ok(reply) => {
                block.samples_us.push(us(reply.sent, reply.done));
                if let Some(tracer) = tracer.as_deref_mut() {
                    let request = tracer.record("request", None, seq, reply.sent, reply.done);
                    tracer.record("send", Some(request), seq, reply.sent, reply.written);
                    tracer.record(
                        "first_byte",
                        Some(request),
                        seq,
                        reply.written,
                        reply.first_byte,
                    );
                    tracer.record(
                        "last_byte",
                        Some(request),
                        seq,
                        reply.first_byte,
                        reply.done,
                    );
                }
                verify(entry, &reply, client.body(&reply))
            }
            Err(e) => {
                // The connection is in an unknown state: replace it, or
                // give the block up if the server is gone.
                match Client::connect(addr) {
                    Ok(fresh) => *client = fresh,
                    Err(_) => {
                        failures.push(1, format!("{name}: request {seq}: {e}; reconnect failed"));
                        block.failed += 1;
                        break;
                    }
                }
                Err(e.to_string())
            }
        };
        match outcome {
            Ok(()) => block.ok += 1,
            Err(what) => {
                block.failed += 1;
                failures.push(1, format!("{name}: request {seq} (entry {index}): {what}"));
            }
        }
    }
    (block, failures)
}

impl Workload for Serve {
    fn block(
        &mut self,
        mode: Mode,
        tracer: &mut Tracer,
        root: SpanId,
        failures: &mut Failures,
    ) -> Block {
        let (clients, duration) = match mode {
            Mode::Main | Mode::Traced => (self.clients.len(), self.main_block),
            Mode::Base => (1, self.base_block),
        };
        let (name, addr, entries, stream) = (self.name, self.addr, &self.entries, &self.stream);
        let start = Instant::now();
        let deadline = start + duration;
        let forks: Vec<Option<Tracer>> = (0..clients)
            .map(|c| (mode == Mode::Traced).then(|| tracer.fork(c as u32 + 1, root)))
            .collect();
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = self.clients[..clients]
                .iter_mut()
                .zip(forks)
                .map(|(client, mut fork)| {
                    scope.spawn(move || {
                        let out =
                            drive(name, client, addr, entries, stream, deadline, fork.as_mut());
                        (out, fork)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut block = Block::default();
        for ((part, part_failures), fork) in results {
            block.absorb(part);
            failures.absorb(part_failures);
            if let Some(fork) = fork {
                tracer.absorb(fork);
            }
        }
        // Clients ran side by side: the block took its wall time once.
        block.wall_s = wall_s;
        block
    }

    fn notes(&mut self) -> Vec<String> {
        let Ok(delta) = self.counts_since_warm_up() else {
            return vec!["counts: /metrics?format=json could not be scraped".to_string()];
        };
        let (verdict, threshold) = match self.traffic {
            Traffic::Hot => (delta.hit_share() > 0.99, "> 0.99"),
            Traffic::Cold => (delta.hit_share() == 0.0, "== 0"),
        };
        vec![
            format!(
                "regime: serve.cache.hit_share = {:.4} (threshold {threshold}): {}",
                delta.hit_share(),
                if verdict { "ok" } else { "NOT MET" }
            ),
            format!(
                "counts: solve requests {}, cache hits {}, jobs executed (solve + advise) {}, pool sync events {}, coalesced {}, rejected {}",
                delta.solve_requests, delta.hits, delta.jobs, delta.sync_events, delta.coalesced, delta.rejected
            ),
        ]
    }

    fn finish(mut self: Box<Self>) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serve::cache::{ContentKey, SolveCache, DEFAULT_CACHE_CAPACITY};
    use std::sync::Arc;

    fn draws(traffic: Traffic, seed: u64, n: usize) -> Vec<usize> {
        let mut stream = Stream::new(traffic, seed);
        (0..n).map(|_| stream.next().1).collect()
    }

    #[test]
    fn same_seed_same_requests_and_another_seed_differs() {
        for traffic in [Traffic::Hot, Traffic::Cold] {
            assert_eq!(draws(traffic, 7, 2000), draws(traffic, 7, 2000));
            assert_ne!(draws(traffic, 7, 2000), draws(traffic, 8, 2000));
        }
        let (seq, _) = Stream::new(Traffic::Hot, 1).next();
        assert_eq!(seq, 0);
    }

    #[test]
    fn the_hot_mix_is_85_percent_working_set() {
        let picks = draws(Traffic::Hot, 3, 20_000);
        let solves = picks.iter().filter(|&&e| e < HOT_BODIES).count() as f64 / 20_000.0;
        assert!((solves - 0.85).abs() < 0.02, "solve share {solves}");
        for other in HOT_BODIES..HOT_BODIES + 3 {
            assert!(picks.contains(&other));
        }
        assert!((0..HOT_BODIES).all(|e| picks.contains(&e)));
    }

    /// The cold rotation never finds its key in a 128-entry LRU: run
    /// the stream's keyed requests through the server's own cache and
    /// key types, warm-up included.
    #[test]
    fn the_cold_rotation_never_hits_the_cache() {
        assert_eq!(DEFAULT_CACHE_CAPACITY, 128);
        let entries = catalog(Traffic::Cold, 2);
        assert_eq!(entries.len(), 1 + 2 * COLD_KEYS);
        let cache = SolveCache::new(DEFAULT_CACHE_CAPACITY);
        let key_of = |entry: usize| {
            let request =
                serve::api::parse_solve_body(body_of(&entries[entry]), 2).expect("a valid body");
            assert!(!request.bypass);
            ContentKey::for_case(&request.case, request.auto, 0)
        };
        for warm in [1, 1 + COLD_KEYS] {
            cache.insert(&key_of(warm), Arc::new(String::new()));
        }
        let mut stream = Stream::new(Traffic::Cold, 11);
        let mut keyed = 0;
        for _ in 0..5000 {
            let (_, entry) = stream.next();
            if entry == 0 {
                let bypass = serve::api::parse_solve_body(body_of(&entries[0]), 2).unwrap();
                assert!(bypass.bypass);
                continue;
            }
            let key = key_of(entry);
            assert!(cache.get(&key).is_none(), "entry {entry} was still cached");
            cache.insert(&key, Arc::new(String::new()));
            keyed += 1;
        }
        assert!(keyed > 2 * COLD_KEYS, "the rotation wrapped several times");
    }
}
