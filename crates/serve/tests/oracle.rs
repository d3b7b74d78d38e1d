//! The one bit-exactness oracle. A solve's answer is a function of its
//! case alone: whatever the worker count, the chunk schedule, the zone
//! split, the per-kernel overrides, the recorder, the request's lane
//! width, the run path or the load beside it, every payload member and
//! the sync-event count equal those of the case's *reference* run — one
//! worker, static, sequential zones, no overrides, recorder off, the
//! bare `create_instance` / `step` / `finish` loop.
//!
//! The tuples are one generated cross product per solver, generic over
//! [`Solver`]: the axes are the lists below, each with its plain value
//! first. A case's tuples run fewest-deviations first, so the first
//! failure — the test stops there — is a smallest one, and its message
//! names every axis value, the path, and the first payload member that
//! differs. A new scheduling mode, run path or solver is one more value
//! in one list here, not one more test.
//!
//! What stays elsewhere, and why: the SIMD tier (kernel-level tier and
//! lane oracles; choosing a tier end to end would need a knob), the
//! stepper-level pins on other dims (a served case's dims are fixed),
//! and the goldens, which pin the reference itself.

use f3d::service::F3dSolver;
use fdtd::service::FdtdSolver;
use llp::obs::json::Json;
use llp::obs::timeline::DEFAULT_EVENT_CAPACITY;
use llp::{FlightRecorder, Policy, ScheduleMap, Workers};
use serve::{api, Server, ServerConfig};
use solver::wire::SolveFields;
use solver::{Solver, SolverInstance, SolverOutput, SolverSpec, WidthMap, ZoneDispatch};
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One solver's cases and the axis only it has.
struct Cases {
    /// Values of the solver's size field (its first `OWN_FIELDS`
    /// entry), smallest first.
    sizes: &'static [usize],
    steps: usize,
    /// `None` is sequential zones, `Some(s)` asks for `s` zone shards.
    /// A solver with a zone level is sized in zones.
    zone_schedules: &'static [Option<usize>],
}

const F3D: Cases = Cases {
    sizes: &[1, 2, 3, 4],
    steps: 2,
    zone_schedules: &[None, Some(1), Some(2), Some(3), Some(4)],
};

/// 14 steps: past the source's peak (t0 = 10), so the fields are well
/// mixed.
const FDTD: Cases = Cases {
    sizes: &[8, 17, 19, 33, 128],
    steps: 14,
    zone_schedules: &[None],
};

const WORKERS: [usize; 4] = [1, 2, 3, 4];
const SCHEDULES: [Policy; 4] = [
    Policy::Static,
    Policy::Dynamic { chunk: 1 },
    Policy::Dynamic { chunk: 3 },
    Policy::Guided { min_chunk: 2 },
];
/// Ring slots per lane; `None` is the recorder off.
const RECORDERS: [Option<usize>; 3] = [None, Some(8), Some(DEFAULT_EVENT_CAPACITY)];
const VECTOR_WIDTHS: [usize; 2] = [1, 8];

/// One point of the cross product.
#[derive(Debug, Clone, Copy)]
struct Tuple {
    kind: &'static str,
    size_field: &'static str,
    size: usize,
    steps: usize,
    workers: usize,
    schedule: Policy,
    zone_schedule: Option<usize>,
    overrides: bool,
    recorder: Option<usize>,
    vector_width: usize,
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let zone_schedule = self
            .zone_schedule
            .map_or("sequential".into(), |s| s.to_string());
        let overrides = if self.overrides { "per-kernel" } else { "none" };
        let recorder = self
            .recorder
            .map_or("off".into(), |slots| format!("{slots} slots"));
        write!(
            f,
            "{} {}={} steps={} | P={} schedule={} zone_schedule={zone_schedule} \
             overrides={overrides} recorder={recorder} vector_width={}",
            self.kind,
            self.size_field,
            self.size,
            self.steps,
            self.workers,
            self.schedule.canonical(),
            self.vector_width
        )
    }
}

impl Tuple {
    /// Every tuple of `S`'s case `size`, fewest deviations from the
    /// plain values first (the reference's own tuple leads), in axis
    /// order within a count.
    fn all<S: Solver>(size: usize, cases: &Cases) -> Vec<Self> {
        let lens = [
            WORKERS.len(),
            SCHEDULES.len(),
            cases.zone_schedules.len(),
            2,
            RECORDERS.len(),
            VECTOR_WIDTHS.len(),
        ];
        let mut picks: Vec<[usize; 6]> = (0..lens.iter().product())
            .map(|mut n: usize| {
                let mut pick = [0; 6];
                for (i, len) in pick.iter_mut().zip(lens).rev() {
                    (*i, n) = (n % len, n / len);
                }
                pick
            })
            .collect();
        picks.sort_by_key(|pick| pick.iter().filter(|&&i| i > 0).count());
        let tuple = |[p, s, z, o, r, w]: [usize; 6]| Self {
            kind: S::KIND,
            size_field: S::OWN_FIELDS[0],
            size,
            steps: cases.steps,
            workers: WORKERS[p],
            schedule: SCHEDULES[s],
            zone_schedule: cases.zone_schedules[z],
            overrides: o == 1,
            recorder: RECORDERS[r],
            vector_width: VECTOR_WIDTHS[w],
        };
        picks.into_iter().map(tuple).collect()
    }

    /// The case this tuple asks for, read the way a request is.
    fn config<S: Solver>(&self) -> S::Config {
        let num = Json::from_usize;
        let mut body = vec![
            (self.size_field, num(self.size)),
            ("steps", num(self.steps)),
            ("workers", num(self.workers)),
            ("vector_width", num(self.vector_width)),
        ];
        if let Some(shards) = self.zone_schedule {
            body.push(("zone_schedule", num(shards)));
        }
        let body = Json::object(body);
        let config = S::Config::from_request(&SolveFields {
            body: &body,
            schedule: self.schedule,
            default_workers: self.workers,
        })
        .unwrap();
        config.validate().unwrap();
        config
    }

    /// A `P`-wide view of `pool` with this tuple's recorder.
    fn view(&self, pool: &Workers) -> Workers {
        let mut view = pool.sized_view(self.workers);
        view.set_flight(match self.recorder {
            None => FlightRecorder::disabled(),
            Some(slots) => FlightRecorder::enabled(self.workers, slots),
        });
        view
    }

    /// What this tuple must answer on a view `processors` wide: the
    /// reference's members, with a zoned case's `zone_level` and
    /// dispatch totals at their closed form — for `n` zones and `s`
    /// shards asked, `min(s, n)` shards of `max(1, P / shards)` loop
    /// workers, `n` zone tasks, all ready at once, and `n − 1`
    /// exchanges in as many waves.
    fn expected(&self, reference: &Answer, processors: usize) -> Answer {
        let mut want = reference.clone();
        if let Some(asked) = self.zone_schedule {
            let (n, shards, num) = (self.size, asked.min(self.size), Json::from_usize);
            let level = Json::object(vec![
                ("shards", num(shards)),
                ("loop_workers", num((processors / shards).max(1))),
                ("zone_tasks", num(n)),
                ("exchange_tasks", num(n - 1)),
                ("exchange_waves", num(n - 1)),
                ("peak_ready", num(n)),
            ]);
            let dispatch = Some(ZoneDispatch {
                shards: shards as u64,
                zone_tasks: (n * self.steps) as u64,
                peak_ready: n as u64,
            });
            for (name, text) in &mut want {
                match name.as_str() {
                    "zone_level" => *text = level.to_string(),
                    ZONE_DISPATCH => *text = format!("{dispatch:?}"),
                    _ => {}
                }
            }
        }
        want
    }

    /// `Err` naming the tuple, the path and the first member of `got`
    /// that is not `want`'s.
    fn check(&self, path: &str, got: &Answer, want: &Answer) -> Result<(), String> {
        match got.iter().zip(want).find(|(got, want)| got != want) {
            None if got.len() == want.len() => Ok(()),
            None => Err(format!("{self} via {path}: members {got:?}, want {want:?}")),
            Some((got, want)) => Err(format!(
                "{self} via {path}: `{}` differs from the reference\n  want {}\n  got  `{}` {}",
                want.0, want.1, got.0, got.1
            )),
        }
    }

    /// Both run paths, first one after the other on one thread, then at
    /// once on this thread and a second one — each on its own view of
    /// `team`, each view with its own recorder.
    fn every_path<S: Solver>(
        &self,
        team: &Workers,
        reference: &Answer,
        map: &ScheduleMap,
    ) -> Result<(), String>
    where
        S::Config: Sync,
    {
        type Path<S> = fn(&<S as Solver>::Config, &Workers, Option<&ScheduleMap>) -> Answer;
        let paths: [(&str, Path<S>); 2] = [
            ("the instance loop", direct::<S>),
            ("run_instrumented", instrumented::<S>),
        ];
        let config = self.config::<S>();
        let schedules = self.overrides.then_some(map);
        let want = self.expected(reference, self.workers);
        for (path, run) in paths {
            let got = run(&config, &self.view(team), schedules);
            self.check(&format!("{path} on one thread"), &got, &want)?;
        }
        let [(_, first), (_, second)] = paths;
        let views = [self.view(team), self.view(team)];
        let together = std::thread::scope(|threads| {
            let other = threads.spawn(|| second(&config, &views[1], schedules));
            [first(&config, &views[0], schedules), other.join().unwrap()]
        });
        for ((path, _), got) in paths.iter().zip(&together) {
            self.check(&format!("{path} on two threads"), got, &want)?;
        }
        Ok(())
    }
}

/// Every kernel of `S` on its own width and policy. The chunks leave
/// a partial last chunk with interior points in it on f3d's 12 K-groups
/// (`l_factor_solve`) and 10 L-planes (`rhs_jk`), where `dynamic 3`'s
/// last chunk is a boundary plane that does no work.
fn overrides<S: Solver>() -> ScheduleMap {
    let policies = [
        Policy::Dynamic { chunk: 5 },
        Policy::Dynamic { chunk: 4 },
        Policy::Guided { min_chunk: 1 },
    ];
    assert!(S::KERNELS.len() <= policies.len(), "one policy per kernel");
    let mut map = ScheduleMap::new();
    for (i, (kernel, policy)) in S::KERNELS.iter().zip(policies).enumerate() {
        map.set(kernel, i + 2, policy);
    }
    map
}

/// The last member of an [`Answer`], which no response carries.
const ZONE_DISPATCH: &str = "zone dispatch";

/// What a run answers, as named texts: its payload members as rendered
/// JSON, then `sync_events`, then its zone dispatch totals.
type Answer = Vec<(String, String)>;

fn answer(output: &dyn SolverOutput, sync_events: u64) -> Answer {
    let payload = output.payload().into_iter();
    let mut members: Answer = payload.map(|(k, v)| (k.into(), v.to_string())).collect();
    members.push((
        "sync_events".into(),
        Json::from_u64(sync_events).to_string(),
    ));
    members.push((
        ZONE_DISPATCH.into(),
        format!("{:?}", output.zone_dispatch()),
    ));
    members
}

/// The bare instance loop on a policy view of `pool`.
fn direct<S: Solver>(
    config: &S::Config,
    pool: &Workers,
    schedules: Option<&ScheduleMap>,
) -> Answer {
    let pool = pool.with_policy(config.schedule());
    let mut instance = S::create_instance(config, &WidthMap);
    for step in 0..config.steps() {
        instance.step(&pool, step, schedules);
    }
    answer(&instance.finish(), pool.local_sync_event_count())
}

/// The one run driver every served solve takes.
fn instrumented<S: Solver>(
    config: &S::Config,
    pool: &Workers,
    schedules: Option<&ScheduleMap>,
) -> Answer {
    let run = solver::run_instrumented::<S>(config, pool, schedules).unwrap();
    answer(&run.output, run.sync_events)
}

/// Every tuple of `S`'s cases in order, each beside its case's
/// reference answer.
fn enumerate<S: Solver>(cases: &Cases) -> Vec<(Tuple, Answer)> {
    let mut out = Vec::new();
    for &size in cases.sizes {
        let tuples = Tuple::all::<S>(size, cases);
        let plain = &tuples[0];
        let reference = direct::<S>(&plain.config::<S>(), &plain.view(&Workers::new(1)), None);
        out.extend(tuples.into_iter().map(|t| (t, reference.clone())));
    }
    out
}

/// Every tuple of `S` through every run path. Two workers, each on its
/// own four-wide team, take alternate tuples (one alone takes ≈ 1.2×
/// as long on two CPUs) and each stops at its first failure, so the
/// earlier of their failures is the first one of the enumeration.
fn every_run_path<S: Solver>(cases: &Cases)
where
    S::Config: Sync,
{
    let (tuples, map) = (enumerate::<S>(cases), overrides::<S>());
    let failures = std::thread::scope(|workers| {
        let shares = [0, 1].map(|first| {
            let (tuples, map) = (&tuples, &map);
            workers.spawn(move || {
                let team = Workers::new(4);
                let mut share = tuples.iter().enumerate().skip(first).step_by(2);
                share.find_map(|(i, (t, reference))| {
                    let failure = t.every_path::<S>(&team, reference, map).err();
                    failure.map(|failure| (i, failure))
                })
            })
        });
        shares.map(|share| share.join().unwrap())
    });
    if let Some((_, failure)) = failures.into_iter().flatten().min_by_key(|(i, _)| *i) {
        panic!("{failure}");
    }
}

#[test]
fn every_run_path_answers_the_reference() {
    every_run_path::<F3dSolver>(&F3D);
    every_run_path::<FdtdSolver>(&FDTD);
}

/// One served request: the tuple, its body, and the reference of its
/// case.
struct Served {
    tuple: Tuple,
    body: String,
    reference: Answer,
}

/// Each case × schedule × zone schedule of `S` as a request body: the
/// spec's own `case` echo plus `solver` and `"cache": "bypass"` (so
/// every request executes), asking for four workers — the whole pool
/// of every server below.
fn served<S: Solver>(cases: &Cases) -> Vec<Served> {
    let tuples = enumerate::<S>(cases).into_iter().filter(|(t, _)| {
        t.workers == 1 && !t.overrides && t.recorder.is_none() && t.vector_width == 1
    });
    let request = |(t, reference): (Tuple, Answer)| {
        let tuple = Tuple { workers: 4, ..t };
        let spec = tuple.config::<S>();
        let Json::Object(mut members) = spec.echo() else {
            panic!("{tuple}: the echo is an object")
        };
        members.insert(0, ("solver".into(), Json::str(S::KIND)));
        members.push(("cache".into(), Json::str("bypass")));
        let body = Json::Object(members).to_string();
        let parsed = api::parse_solve_body(&body, 1).unwrap().case;
        assert_eq!(parsed.spec().canonical_string(), spec.canonical_string());
        Served {
            tuple,
            body,
            reference,
        }
    };
    tuples.map(request).collect()
}

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

fn solve(addr: SocketAddr, body: &str) -> Json {
    let (status, reply) = send(addr, "POST", "/v1/solve", body);
    assert_eq!(status, 200, "{body}: {reply}");
    reply
}

impl Served {
    /// Send the request and hold its reply to the reference, on a
    /// server `width` wide: every member but the zone dispatch totals,
    /// which no response carries.
    fn check(&self, addr: SocketAddr, width: usize, clients: usize) {
        let reply = solve(addr, &self.body);
        let mut want = self.tuple.expected(&self.reference, width);
        want.retain(|(name, _)| name != ZONE_DISPATCH);
        let got = want.iter().map(|(name, _)| {
            let text = reply.get(name).map_or("(absent)".into(), Json::to_string);
            (name.clone(), text)
        });
        let path = format!("a {width}-wide server under {clients} client(s)");
        let checked = self.tuple.check(&path, &got.collect(), &want);
        checked.unwrap_or_else(|failure| panic!("{failure}"));
    }
}

/// Once the load is gone, a lone solve runs on the whole pool again:
/// its report and every region name the pool's width, with one
/// attribution lane per worker. (How many lanes a region really got is
/// the host's business: a helper that has no CPU in time leaves its
/// chunks to the caller, and the region's `lanes` says so.)
fn lone_solve_has_the_whole_pool(addr: SocketAddr, width: usize, body: &str) {
    let reply = solve(addr, body);
    let report_width = reply.get("report").and_then(|r| r.get("workers"));
    assert_eq!(report_width.and_then(Json::as_u64), Some(width as u64));
    let id = reply
        .get("trace_id")
        .and_then(Json::as_u64)
        .expect("traced");
    let (status, trace) = send(addr, "GET", &format!("/v1/trace/{id}"), "");
    assert_eq!(status, 200);
    let attribution = trace.get("attribution").unwrap();
    let lanes = attribution.get("workers").and_then(Json::as_array).unwrap();
    assert_eq!(lanes.len(), width, "one lane per worker");
    let regions = attribution.get("regions").and_then(Json::as_array).unwrap();
    assert!(!regions.is_empty());
    for region in regions {
        let workers = region.get("workers").and_then(Json::as_u64);
        assert_eq!(workers, Some(width as u64), "width {width}");
        let lanes = region.get("lanes").and_then(Json::as_u64).unwrap();
        assert!((1..=width as u64).contains(&lanes), "width {width}");
    }
}

/// Every served tuple on servers 1, 2 and 4 wide, whose executors share
/// one team: first from one client, then from four at once, each
/// sending its own quarter of the list so different cases and solvers
/// overlap.
#[test]
fn served_solves_answer_the_reference() {
    let mut requests = served::<F3dSolver>(&F3D);
    requests.extend(served::<FdtdSolver>(&FDTD));
    let n = requests.len();
    for width in [1, 2, 4] {
        let server = Server::start(ServerConfig {
            workers: width,
            queue_capacity: 16,
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        for clients in [1, 4] {
            std::thread::scope(|threads| {
                for client in 0..clients {
                    let requests = &requests;
                    threads.spawn(move || {
                        let share = client * n / clients..(client + 1) * n / clients;
                        for request in &requests[share] {
                            request.check(addr, width, clients);
                        }
                    });
                }
            });
            lone_solve_has_the_whole_pool(addr, width, &requests[0].body);
        }
        server.shutdown();
    }
}
