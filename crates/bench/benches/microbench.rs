//! Microbenchmarks: real wall-clock measurements of the suite's hot
//! paths on the host CPU, using a small self-contained harness
//! (`harness = false`; the environment has no criterion).
//!
//! These complement the simulated-machine tables: the simulator
//! reproduces the paper's 1999-hardware shapes, while these benches
//! verify the *code* itself behaves as the paper predicts on any
//! cache-based machine — the tuned implementation beats the vector one
//! serially, fused loops beat unfused ones, and the synchronization
//! overhead of a doacross region is measurable.
//!
//! Run with `cargo bench -p bench`; pass a substring argument to run a
//! subset (e.g. `cargo bench -p bench -- fusion`).

use f3d::bc::ZoneBcs;
use f3d::blocktri::{identity, scale, solve_block_tridiagonal, BlockTriScratch};
use f3d::risc_impl::RiscStepper;
use f3d::solver::SolverConfig;
use f3d::vector_impl::VectorStepper;
use llp::{doacross, FusedRegion, Workers};
use mesh::{Dims, Metrics};
use std::hint::black_box;
use std::time::Instant;

/// Time `f` over enough iterations to fill ~200 ms (after one warmup
/// call), printing mean time per iteration.
fn bench(filter: &str, name: &str, mut f: impl FnMut()) {
    if !name.contains(filter) {
        return;
    }
    f(); // warmup
    let probe = Instant::now();
    f();
    let per_iter = probe.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.2 / per_iter) as u64).clamp(1, 1_000_000);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let mean = start.elapsed().as_secs_f64() / iters as f64;
    println!("{name:<40} {:>12} iters  {}", iters, format_time(mean));
}

fn format_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:10.4} s ")
    } else if seconds >= 1e-3 {
        format!("{:10.4} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:10.4} us", seconds * 1e6)
    } else {
        format!("{:10.4} ns", seconds * 1e9)
    }
}

fn bench_f3d_serial(filter: &str) {
    let d = Dims::new(20, 18, 16);
    let metrics = Metrics::cartesian(d, (0.25, 0.25, 0.25));
    let config = SolverConfig::supersonic();
    let bcs = ZoneBcs::projectile();

    {
        let (mut zone, mut stepper) = VectorStepper::new_zone(config, metrics.clone());
        bench(filter, "f3d_step_serial/vector_impl", || {
            stepper.step(black_box(&mut zone), &bcs);
        });
    }
    {
        let (mut zone, mut stepper) = RiscStepper::new_zone(config, metrics.clone());
        let workers = Workers::serial();
        bench(filter, "f3d_step_serial/risc_impl_1worker", || {
            stepper.step(black_box(&mut zone), &bcs, &workers, None);
        });
    }
}

fn bench_blocktri(filter: &str) {
    for n in [16usize, 64, 256] {
        let lower = vec![scale(&identity(), -0.3); n];
        let diag = vec![scale(&identity(), 2.0); n];
        let upper = vec![scale(&identity(), -0.3); n];
        let mut scratch = BlockTriScratch::new(n);
        bench(filter, &format!("block_tridiagonal/{n}"), || {
            let mut rhs = vec![[1.0f64; 5]; n];
            solve_block_tridiagonal(&lower, &diag, &upper, &mut rhs, &mut scratch);
            black_box(rhs[n / 2][0]);
        });
    }
}

fn bench_llp_overhead(filter: &str) {
    // The measured cost of one synchronization event (empty doacross):
    // the Table 1 input for the host machine.
    let workers = Workers::new(2);
    bench(filter, "doacross_sync_overhead", || {
        doacross(&workers, black_box(2), |_| {});
    });
}

fn bench_obs_overhead(filter: &str) {
    // The disabled-recorder branch must not change the cost of an
    // instrumented region (the `obs_overhead` integration test asserts
    // zero allocations; this shows the wall-clock side).
    let disabled = Workers::new(2);
    let recorded = Workers::recorded(2);
    bench(filter, "obs/region_recorder_disabled", || {
        doacross(&disabled, black_box(64), |i| {
            black_box(i);
        });
    });
    bench(filter, "obs/region_recorder_enabled", || {
        doacross(&recorded, black_box(64), |i| {
            black_box(i);
        });
        let _ = recorded.recorder().take_report("bench", 2);
        let _ = recorded.flight().take_timeline();
    });
}

fn bench_fusion(filter: &str) {
    let workers = Workers::new(2);
    let n = 64usize;
    let work = |i: usize| {
        let mut acc = i as f64;
        for k in 0..200 {
            acc = (acc + k as f64).sqrt() + 1.0;
        }
        black_box(acc);
    };
    bench(filter, "loop_fusion/fused_3_bodies", || {
        FusedRegion::over(n)
            .then(work)
            .then(work)
            .then(work)
            .run(&workers);
    });
    bench(filter, "loop_fusion/unfused_3_bodies", || {
        FusedRegion::over(n)
            .then(work)
            .then(work)
            .then(work)
            .run_unfused(&workers);
    });
}

fn bench_cachesim(filter: &str) {
    use cachesim::patterns::GridTraversal;
    use cachesim::presets::origin2000_r12k;
    let dims = Dims::new(48, 40, 32);
    bench(filter, "cachesim_sweep/example4a", || {
        let mut h = origin2000_r12k().hierarchy();
        h.run_loads(GridTraversal::example4a(dims).addresses());
        black_box(h.counters().l1_misses);
    });
}

fn bench_smpsim_exec(filter: &str) {
    use f3d::trace::risc_step_trace;
    use mesh::MultiZoneGrid;
    let sgi = smpsim::presets::origin2000_r12k_128();
    let trace = risc_step_trace(&MultiZoneGrid::paper_one_million(), &sgi.memory);
    let exec = sgi.executor();
    bench(filter, "smpsim_execute_1m_trace", || {
        black_box(exec.execute(&trace, black_box(64)).seconds);
    });
}

fn main() {
    // `cargo bench -- <substring>` filters; `--bench` is passed by cargo.
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_default();
    bench_f3d_serial(&filter);
    bench_blocktri(&filter);
    bench_llp_overhead(&filter);
    bench_obs_overhead(&filter);
    bench_fusion(&filter);
    bench_cachesim(&filter);
    bench_smpsim_exec(&filter);
}
