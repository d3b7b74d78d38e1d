//! The layer panel: every per-layer metric, measured from outside by
//! timing public functions of `llp`, `fdtd`, `f3d`, `solver` and
//! `serve`.
//!
//! The whole panel runs in every traced run, whichever workload was
//! asked for: the result line must carry every per-layer metric, and a
//! layer's cost does not depend on which workload is being looked at.
//! README.md attaches each probe to the workload where its layer does
//! most of the work.

use crate::report::Report;
use crate::serving::{self, Serve, Traffic};
use crate::solvers::{self, recorded_workers, F3dAboveBound, FdtdSyncBound};
use crate::spans::Tracer;
use crate::stats;
use crate::workload::{Block, Failures, KernelSplit, Mode, Workload};
use f3d::blocktri::{identity, scale, solve_block_tridiagonal_w, BlockTriScratch};
use f3d::service::{F3dSolver, ZoneSchedule};
use f3d::solver::PencilScratch;
use f3d::state::FlowState;
use fdtd::service::FdtdSolver;
use fdtd::{Boundary, TezGrid};
use llp::{doacross, ChunkClaimer, Policy, Workers};
use serve::cache::{ContentKey, SolveCache, DEFAULT_CACHE_CAPACITY};
use solver::{Solver, SolverInstance, SolverSpec, WidthMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches per probe; the reported value is their median.
const BATCHES: usize = 15;

/// Residual share above which a reconciliation is flagged.
const RESIDUAL_FLAG: f64 = 0.15;

/// Time `f` in `BATCHES` batches of at least `batch` each and return
/// the median and MAD of the nanoseconds per call.
fn probe(batch: Duration, mut f: impl FnMut()) -> (f64, f64) {
    f();
    let mut calls: u64 = 1;
    let calls = loop {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        let took = start.elapsed();
        if took >= batch / 4 || calls >= 1 << 30 {
            break ((calls as f64 * batch.as_secs_f64() / took.as_secs_f64().max(1e-9)).ceil()
                as u64)
                .max(1);
        }
        calls *= 4;
    };
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    (stats::median_of(&per_call), stats::mad(&per_call))
}

struct Panel<'a> {
    p: usize,
    batch: Duration,
    /// Run length relative to the benchmark's 20 s, scaling the
    /// loopback sessions.
    scale: f64,
    out: &'a mut Report,
    failures: &'a mut Failures,
}

impl Panel<'_> {
    /// Probe `f` and emit nanoseconds per `per` units of work.
    fn time(&mut self, name: &str, per: usize, f: impl FnMut()) -> f64 {
        let (median, mad) = probe(self.batch, f);
        let value = median / per as f64;
        self.out
            .emit_with(name, value, &format!("MAD {:.3}", mad / per as f64));
        value
    }

    fn session(&self, millis: f64) -> Duration {
        Duration::from_secs_f64(millis * self.scale / 1e3)
    }
}

/// Run the panel. `seconds` is the run length it may spend about half
/// of.
pub fn panel(p: usize, seed: u64, seconds: f64, out: &mut Report, failures: &mut Failures) {
    let mut panel = Panel {
        p,
        batch: Duration::from_secs_f64((seconds * 0.4e-3).clamp(1e-3, 50e-3)),
        scale: seconds / 20.0,
        out,
        failures,
    };
    let region_ns = llp_probes(&mut panel);
    fdtd_probes(&mut panel, region_ns);
    f3d_probes(&mut panel, seed, region_ns);
    let parts_ns = serve_read_probes(&mut panel);
    serve_hot_session(&mut panel, seed, parts_ns);
    serve_execute_probes(&mut panel);
    serve_cold_session(&mut panel, seed);
}

// -------------------------------------------------------------- llp

/// Returns S, the cost of one empty region at P workers, in ns.
fn llp_probes(panel: &mut Panel) -> f64 {
    println!("layer llp (Table 1's S and the scheduling paths)");
    let p = panel.p;
    let serial = Workers::new(1);
    panel.time("llp.pool.region_ns.p1", 1, || doacross(&serial, 1, |_| {}));
    let team = Workers::new(p);
    let region_ns = panel.time("llp.pool.region_ns.pN", 1, || doacross(&team, p, |_| {}));
    panel.out.emit(
        "llp.pool.table1_bound_us",
        100.0 * p as f64 * region_ns / 1e3,
    );

    const ITERATIONS: usize = 4096;
    for (name, policy) in [
        ("llp.doacross.iter_ns.static", Policy::Static),
        ("llp.doacross.iter_ns.dynamic", Policy::Dynamic { chunk: 4 }),
        (
            "llp.doacross.iter_ns.guided",
            Policy::Guided { min_chunk: 4 },
        ),
    ] {
        let team = team.with_policy(policy);
        panel.time(name, ITERATIONS, || {
            doacross(&team, ITERATIONS, |i| {
                black_box(i);
            });
        });
    }
    let claimer = ChunkClaimer::new(usize::MAX);
    panel.time("llp.schedule.claim_ns", 1, || {
        black_box(claimer.claim());
    });

    let recorded = recorded_workers(p);
    let mut since_drain = 0;
    panel.time("llp.obs.recorded_region_ns.pN", 1, || {
        doacross(&recorded, p, |_| {});
        since_drain += 1;
        if since_drain == 256 {
            // Keep the span list bounded; the drain is part of what
            // recording costs a long-lived pool.
            recorded.recorder().reset();
            drop(recorded.flight().take_timeline());
            since_drain = 0;
        }
    });
    region_ns
}

// ------------------------------------------------------------- fdtd

fn fdtd_grid(n: usize) -> TezGrid {
    let mut grid = TezGrid::new(n, n, Boundary::PecBox, fdtd::service::SERVICE_COURANT);
    let serial = Workers::new(1);
    // A few real steps so the kernels see a spread pulse, not zeros.
    for step in 0..12 {
        grid.inject_soft_source(step);
        fdtd::kernels::update_h(&serial, &mut grid, 1);
        fdtd::kernels::update_e(&serial, &mut grid, 1);
    }
    grid
}

/// What the recorded steps explain of a measured step: chunk-max
/// compute of every region, the serial kernels, `extra_us` the spans do
/// not cover, and one S per region.
fn residual_share(
    split: &KernelSplit,
    sync_events: f64,
    region_ns: f64,
    extra_us: f64,
    step_us: f64,
) -> f64 {
    let compute_us = split.compute_seconds() * 1e6 / split.steps as f64;
    let sync_us = sync_events * region_ns / 1e3;
    let explained = compute_us + extra_us + sync_us;
    println!(
        "  reconcile: step {step_us:.2} us ~ compute {compute_us:.2} + unspanned {extra_us:.2} + sync {sync_us:.2} \
         = {explained:.2} us"
    );
    1.0 - explained / step_us
}

fn flag_residual(name: &str, residual: f64) -> String {
    if residual.abs() > RESIDUAL_FLAG {
        format!("FLAG: {name} is beyond {RESIDUAL_FLAG}")
    } else {
        format!("within {RESIDUAL_FLAG}")
    }
}

/// A (Main, Base) and a (Main, Traced) pair of blocks of a solver
/// workload, each pair cross-checked: the Main and the Base samples.
fn solver_blocks(workload: &mut dyn Workload, failures: &mut Failures) -> (Block, Block) {
    // The spans of these blocks are not kept: the panel wants the
    // timings and the program's own kernel split.
    let mut scrap = Tracer::new();
    let root = scrap.begin("panel", None, 0);
    let (mut main, mut base) = (Block::default(), Block::default());
    for other in [Mode::Base, Mode::Traced] {
        let a = workload.block(Mode::Main, &mut scrap, root, failures);
        let b = workload.block(other, &mut scrap, root, failures);
        workload.cross_check(a.ok + b.ok, failures);
        main.absorb(a);
        if other == Mode::Base {
            base.absorb(b);
        }
    }
    (main, base)
}

fn fdtd_probes(panel: &mut Panel, region_ns: f64) {
    println!("layer fdtd (kernels, serial, and the step they make)");
    let serial = Workers::new(1);
    let n = solvers::FDTD_SIZE;
    let mut grid = fdtd_grid(n);
    let mut energy_ns = 0.0;
    for width in [1, 4] {
        panel.time(
            &format!("fdtd.update_h.ns_per_point.w{width}"),
            n * n,
            || {
                fdtd::kernels::update_h(&serial, &mut grid, width);
            },
        );
        panel.time(
            &format!("fdtd.update_e.ns_per_point.w{width}"),
            n * n,
            || {
                fdtd::kernels::update_e(&serial, &mut grid, width);
            },
        );
        if width == 1 {
            energy_ns = panel.time("fdtd.energy.ns_per_point", n * n, || {
                black_box(grid.energy());
            });
            // Repeating one half-step grows its field linearly; start
            // the wide variants from a fresh pulse.
            grid = fdtd_grid(n);
        }
    }
    let big = 1024;
    let mut grid = fdtd_grid(big);
    panel.time("fdtd.update_h.ns_per_point.n1024", big * big, || {
        fdtd::kernels::update_h(&serial, &mut grid, 1);
    });
    panel.time("fdtd.update_e.ns_per_point.n1024", big * big, || {
        fdtd::kernels::update_e(&serial, &mut grid, 1);
    });

    let instances = ((24.0 * panel.scale).ceil() as usize).max(4);
    let mut session = FdtdSyncBound::set_up(
        "fdtd_sync_bound",
        Policy::Static,
        panel.p,
        instances,
        panel.failures,
    );
    let (main, base) = solver_blocks(&mut session, panel.failures);
    let (main, base) = (
        stats::sorted(&main.samples_us),
        stats::sorted(&base.samples_us),
    );
    let step_us = stats::median(&main);
    let sync_events = session.sync_events_per_step;
    let out = &mut *panel.out;
    out.emit("fdtd.step.sync_events", sync_events);
    out.emit_with(
        "fdtd.step.speedup_vs_1",
        stats::median(&base) / step_us,
        "regime: < 1",
    );
    out.emit_with(
        "fdtd.step.sync_share",
        sync_events * region_ns / 1e3 / step_us,
        "regime: > 0.2",
    );
    out.emit_with(
        "fdtd.step_us_p95",
        stats::percentile(&main, 95.0),
        &format!("{} steps", main.len()),
    );
    let energy_us = energy_ns * (n * n) as f64 / 1e3;
    let residual = residual_share(&session.split, sync_events, region_ns, energy_us, step_us);
    out.emit_with(
        "fdtd.reconcile.residual_share",
        residual,
        &flag_residual("fdtd.reconcile.residual_share", residual),
    );
}

// -------------------------------------------------------------- f3d

/// State bytes one step moves per grid point, from the array sizes:
/// `rhs` reads Q and writes the residual (2 fields), each of the three
/// factor solves and `update` read two fields and write one (3), and
/// the L scatter writes one back from pencil order (2) — fields of five
/// `f64`. Computed, not measured: cache misses are not in it.
fn f3d_bytes_per_point() -> f64 {
    let field = (mesh::NCONS * std::mem::size_of::<f64>()) as f64;
    let traversals = 2 + 3 + 3 + 3 + 2 + 3;
    f64::from(traversals) * field
}

fn f3d_probes(panel: &mut Panel, seed: u64, region_ns: f64) {
    println!("layer f3d (kernels of the recorded steps, then isolated pieces)");
    let points = F3dAboveBound::points();
    let mut session = F3dAboveBound::set_up(seed, panel.p, 4, panel.failures);
    let (main, base) = solver_blocks(&mut session, panel.failures);
    let step_us = stats::median_of(&main.samples_us);
    let split = &session.split;
    let out = &mut *panel.out;
    let point_steps = (points as u64 * split.steps) as f64;
    for kernel in [
        "rhs",
        "j_factor",
        "k_factor",
        "l_factor_scatter",
        "l_factor_solve",
        "update",
        "bc",
    ] {
        out.emit(
            &format!("f3d.kernel.{kernel}.ns_per_point"),
            split.wall_of(kernel) * 1e9 / point_steps,
        );
    }
    out.emit(
        "f3d.step.serial_share",
        (split.wall_of("bc") + split.wall_of("inject")) / split.wall_seconds(),
    );
    let sync_events = session.sync_events_per_step;
    out.emit("f3d.step.sync_events", sync_events);
    out.emit(
        "f3d.step.speedup_vs_1",
        stats::median_of(&base.samples_us) / step_us,
    );
    out.emit_with(
        "f3d.step.sync_share",
        sync_events * region_ns / 1e3 / step_us,
        "regime: < 0.02",
    );
    out.emit("f3d.step.imbalance_max", split.max_imbalance);
    let residual = residual_share(split, sync_events, region_ns, 0.0, step_us);
    out.emit_with(
        "f3d.reconcile.residual_share",
        residual,
        &flag_residual("f3d.reconcile.residual_share", residual),
    );
    out.emit_with(
        "f3d.bytes_per_point_computed",
        f3d_bytes_per_point(),
        "computed from array sizes",
    );

    const N: usize = 64;
    let lower = vec![scale(&identity(), -0.3); N];
    let diag = vec![scale(&identity(), 2.0); N];
    let upper = vec![scale(&identity(), -0.3); N];
    let mut tri = BlockTriScratch::new(N);
    for width in [1, 4] {
        panel.time(
            &format!("f3d.blocktri.solve_ns_per_point.w{width}"),
            N,
            || {
                let mut rhs = [[1.0f64; mesh::NCONS]; N];
                solve_block_tridiagonal_w(&lower, &diag, &upper, &mut rhs, &mut tri, width);
                black_box(rhs[N / 2][0]);
            },
        );
    }
    let q = FlowState::freestream(0.5, 0.0).conserved();
    let normal = [1.0, 0.25, 0.0];
    panel.time("f3d.flux.steger_warming_ns", 1, || {
        black_box(f3d::flux::steger_warming(black_box(&q), normal, true));
    });
    panel.time("f3d.flux.jacobian_ns", 1, || {
        black_box(f3d::flux::flux_jacobian(black_box(&q), normal));
    });

    // One pencil of a gently varying subsonic state.
    let mut scratch = PencilScratch::new(N);
    for i in 0..N {
        let mut qi = q;
        qi[0] *= 1.0 + 0.01 * (i as f64).sin();
        scratch.q_line[i] = qi;
        scratch.n_line[i] = normal;
        scratch.dt_line[i] = 0.05;
    }
    let rhs0 = vec![[1e-3f64; mesh::NCONS]; N];
    for width in [1, 4] {
        panel.time(&format!("f3d.rhs_pencil.ns_per_point.w{width}"), N, || {
            // The kernel accumulates; restart from the same residual so
            // every call does the same arithmetic.
            scratch.rhs_line.copy_from_slice(&rhs0);
            f3d::solver::rhs_upwind_pencil_w(&mut scratch, N, width);
        });
    }
    panel.time("f3d.implicit_pencil.ns_per_point.w1", N, || {
        // Solved in place: without the reset repeated solves shrink the
        // right-hand side into denormals.
        scratch.rhs_line.copy_from_slice(&rhs0);
        f3d::solver::implicit_upwind_pencil_w(&mut scratch, N, 1);
    });
}

// ------------------------------------------------------------ serve

/// Returns the summed cost of the read path's parts, in ns.
fn serve_read_probes(panel: &mut Panel) -> f64 {
    println!("layer serve, read path (what a cached solve costs inside the server)");
    let p = panel.p;
    let body = r#"{"zones":1,"steps":1}"#;
    let raw = format!(
        "POST /v1/solve HTTP/1.1\r\nHost: benchmark\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut parts = panel.time("serve.http.parse_ns", 1, || {
        black_box(serve::http::parse_request_bytes(black_box(raw.as_bytes()), 64 * 1024).is_ok());
    });
    parts += panel.time("serve.api.parse_solve_ns", 1, || {
        black_box(serve::api::parse_solve_body(black_box(body), p).is_ok());
    });
    let case = serve::api::parse_solve_body(body, p)
        .expect("a valid body")
        .case;
    parts += panel.time("serve.cache.key_ns", 1, || {
        black_box(ContentKey::for_case(black_box(&case), false, 0).digest());
    });
    let (cache, keys) = full_cache();
    let resident = &keys[keys.len() - 1];
    parts += panel.time("serve.cache.get_hit_ns", 1, || {
        black_box(cache.get(resident).is_some());
    });
    let response = serve::http::Response::ok("x".repeat(10 * 1024));
    parts += panel.time("serve.http.render_ns", 1, || {
        black_box(serve::http::render_response(black_box(&response), true));
    });
    parts
}

/// A cache at capacity, and 4096 distinct keys of which the last 128
/// inserted are the resident ones.
fn full_cache() -> (SolveCache, Vec<ContentKey>) {
    let cache = SolveCache::new(DEFAULT_CACHE_CAPACITY);
    let keys: Vec<ContentKey> = (0..4096u64)
        .map(|generation| {
            let case =
                serve::solvers::AnyCase::F3d(serving::f3d_case(1, 1, 1, ZoneSchedule::Sequential));
            // `auto` keys embed the tune generation: 4096 distinct keys
            // of one case.
            ContentKey::for_case(&case, true, generation)
        })
        .collect();
    for key in &keys {
        cache.insert(key, Arc::new(String::new()));
    }
    (cache, keys)
}

fn serve_hot_session(panel: &mut Panel, seed: u64, parts_ns: f64) {
    let mut hot = match Serve::set_up("serve_hot", Traffic::Hot, seed, panel.p, panel.failures) {
        Ok(hot) => hot,
        Err(e) => {
            return panel
                .failures
                .push(1, format!("panel: serve_hot session: {e}"))
        }
    };
    let mut rtt = |entry: usize, millis: f64, panel: &mut Panel| {
        let samples = hot.rtt_probe(entry, panel.session(millis), panel.failures);
        (stats::median_of(&samples), samples.len())
    };
    let (hit_us, n) = rtt(serving::CACHED_SOLVE, 400.0, panel);
    panel.out.emit_with(
        "serve.server.hit_rtt_us",
        hit_us,
        &format!("{n} requests, 1 client"),
    );
    let (inline_us, n) = rtt(serving::STAIRSTEP, 150.0, panel);
    panel.out.emit_with(
        "serve.server.inline_rtt_us",
        inline_us,
        &format!("{n} requests"),
    );
    let (scrape_us, n) = rtt(serving::METRICS, 150.0, panel);
    panel.out.emit_with(
        "serve.metrics.scrape_us",
        scrape_us,
        &format!("{n} requests"),
    );

    let mut scrap = Tracer::new();
    let root = scrap.begin("panel", None, 0);
    hot.block(Mode::Base, &mut scrap, root, panel.failures);
    match hot.counts_since_warm_up() {
        Ok(delta) => panel.out.emit_with(
            "serve.cache.hit_share.hot",
            delta.hit_share(),
            "regime: > 0.99",
        ),
        Err(e) => panel
            .failures
            .push(1, format!("panel: serve_hot counts: {e}")),
    }
    Box::new(hot).finish();

    let residual_us = hit_us - parts_ns / 1e3;
    println!(
        "  reconcile: hit RTT {hit_us:.2} us ~ parse + body parse + key + get + render {:.2} us + residual {residual_us:.2} us",
        parts_ns / 1e3
    );
    panel.out.emit("serve.evloop.residual_us", residual_us);
    let share = residual_us / hit_us;
    panel.out.emit_with(
        "serve.reconcile.residual_share",
        share,
        &flag_residual("serve.reconcile.residual_share", share),
    );
}

/// What `solver::run_instrumented` adds around its step loop:
/// `create_instance` (allocation, initial condition) and `finish` (the
/// reduction to checksums and observables), timed directly around an
/// untimed step loop. Timing the whole driver and subtracting the steps
/// would bury these ~100 us under the run-to-run noise of 8 ms of
/// steps; the driver's remaining parts (validate, the policy view, the
/// drains of an unrecorded pool) are below timer resolution.
fn run_overhead_us<S: Solver>(config: &S::Config, pool: &Workers, reps: usize) -> f64 {
    let view = pool.with_policy(config.schedule());
    let mut widths = WidthMap::default();
    widths.set_default(config.vector_width());
    let around: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let mut instance = S::create_instance(config, &widths);
            let created = start.elapsed();
            for step in 0..config.steps() {
                instance.step(&view, step, None);
            }
            let start = Instant::now();
            drop(black_box(instance.finish()));
            (created + start.elapsed()).as_secs_f64() * 1e6
        })
        .collect();
    stats::median_of(&around)
}

fn serve_execute_probes(panel: &mut Panel) {
    println!("layer serve, execute path (what an executed solve adds to its steps)");
    let p = panel.p;
    let (cache, keys) = full_cache();
    let absent = &keys[0];
    panel.time("serve.cache.get_miss_ns", 1, || {
        black_box(cache.get(absent).is_none());
    });
    let body = Arc::new(String::new());
    let mut next = 0;
    panel.time("serve.cache.insert_evict_ns", 1, || {
        // Every key here was evicted at least 3968 inserts ago, so each
        // insert is fresh and evicts the least recently used entry.
        black_box(cache.insert(&keys[next % keys.len()], Arc::clone(&body)));
        next += 1;
    });

    let (zones, steps) = serving::COLD_F3D;
    let f3d_case = serving::f3d_case(zones, steps, p, ZoneSchedule::Sequential);
    let run = f3d::service::run(&f3d_case, &recorded_workers(p)).expect("a valid case");
    let (median, mad) = probe(panel.batch, || {
        black_box(
            serve::api::solve_response(&run, Some(1), llp::obs::json::Json::Null, "miss")
                .to_string(),
        );
    });
    panel.out.emit_with(
        "serve.api.render_solve_us",
        median / 1e3,
        &format!("MAD {:.3}", mad / 1e3),
    );

    let pool = Workers::new(p);
    let reps = ((15.0 * panel.scale).ceil() as usize).max(5);
    let overhead = run_overhead_us::<F3dSolver>(&f3d_case, &pool, reps);
    panel.out.emit("solver.run_overhead_us.f3d", overhead);
    let (size, steps) = serving::COLD_FDTD;
    let overhead = run_overhead_us::<FdtdSolver>(&serving::fdtd_case(size, steps, p), &pool, reps);
    panel.out.emit("solver.run_overhead_us.fdtd", overhead);

    // Zone level: the same four-zone case stepped zone after zone, and
    // with its zones dispatched over two shards of the pool.
    let (mut sequential, mut sharded) = (Vec::new(), Vec::new());
    let steps = 4;
    for _ in 0..reps {
        for (schedule, samples) in [
            (ZoneSchedule::Sequential, &mut sequential),
            (ZoneSchedule::Zones(2), &mut sharded),
        ] {
            let case = serving::f3d_case(4, steps, p, schedule);
            let start = Instant::now();
            black_box(f3d::service::run(&case, &pool).is_ok());
            samples.push(start.elapsed().as_secs_f64() * 1e6 / steps as f64);
        }
    }
    panel
        .out
        .emit("zones.sequential_step_us", stats::median_of(&sequential));
    panel
        .out
        .emit("zones.sharded_step_us", stats::median_of(&sharded));
}

fn serve_cold_session(panel: &mut Panel, seed: u64) {
    let mut cold = match Serve::set_up("serve_cold", Traffic::Cold, seed, panel.p, panel.failures) {
        Ok(cold) => cold,
        Err(e) => {
            return panel
                .failures
                .push(1, format!("panel: serve_cold session: {e}"))
        }
    };
    let mut scrap = Tracer::new();
    let root = scrap.begin("panel", None, 0);
    let mut stream = Block::default();
    for _ in 0..((2.0 * panel.scale).ceil() as usize).max(1) {
        stream.absorb(cold.block(Mode::Base, &mut scrap, root, panel.failures));
    }
    panel.out.emit_with(
        "serve.server.cold_rtt_c1_ms",
        stats::median_of(&stream.samples_us) / 1e3,
        &format!("{} requests, 1 client", stream.samples_us.len()),
    );
    match cold.counts_since_warm_up() {
        Ok(delta) => {
            let out = &mut *panel.out;
            out.emit_with(
                "serve.cache.hit_share.cold",
                delta.hit_share(),
                "regime: == 0",
            );
            out.emit(
                "serve.server.solves_executed_share",
                delta.jobs / delta.solve_requests,
            );
            out.emit(
                "serve.server.sync_events_per_solve",
                delta.sync_events / delta.jobs,
            );
            out.emit("serve.server.coalesced", delta.coalesced);
            out.emit("serve.server.rejected", delta.rejected);
        }
        Err(e) => panel
            .failures
            .push(1, format!("panel: serve_cold counts: {e}")),
    }

    let bypass = cold.rtt_probe(serving::BYPASS, panel.session(500.0), panel.failures);
    Box::new(cold).finish();
    let (zones, steps) = serving::COLD_F3D;
    let case = serving::f3d_case(zones, steps, panel.p, ZoneSchedule::Sequential);
    let pool = Workers::new(panel.p);
    let direct: Vec<f64> = (0..bypass.len().max(5))
        .map(|_| {
            let start = Instant::now();
            black_box(f3d::service::run(&case, &pool).is_ok());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let (rtt, run) = (stats::median_of(&bypass), stats::median_of(&direct));
    panel.out.emit_with(
        "serve.server.cold_overhead_us",
        rtt - run,
        &format!("bypass RTT {rtt:.1} us - direct run {run:.1} us"),
    );
}
