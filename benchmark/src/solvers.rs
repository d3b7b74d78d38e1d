//! The solver workloads: `f3d_above_bound`, `fdtd_sync_bound`,
//! `fdtd_sync_dynamic`. Layers are driven from outside, through
//! `f3d::multizone` and the public `solver` traits.

use crate::rng::Rng;
use crate::spans::{SpanId, Tracer};
use crate::workload::{check_golden, digest, us, Block, Failures, KernelSplit, Mode, Workload};
use f3d::multizone::MultiZoneSolver;
use f3d::validation::FieldChecksum;
use f3d::SolverConfig;
use fdtd::service::{FdtdCase, FdtdSolver};
use llp::obs::timeline::DEFAULT_EVENT_CAPACITY;
use llp::{FlightRecorder, Policy, Workers};
use mesh::{Dims, MultiZoneGrid};
use solver::{Solver, SolverInstance, WidthMap};
use std::time::Instant;

/// P workers with the program's own switches on: span recording and
/// the per-worker flight recorder.
pub fn recorded_workers(p: usize) -> Workers {
    let mut w = Workers::recorded(p);
    w.set_flight(FlightRecorder::enabled(p, DEFAULT_EVENT_CAPACITY));
    w
}

// ------------------------------------------------------------- f3d

/// The grid every region of which carries ~10 ms of work.
pub const F3D_DIMS: Dims = Dims {
    j: 64,
    k: 40,
    l: 32,
};
const F3D_ZONES: usize = 2;
const F3D_SPACING: f64 = 0.3;
const F3D_GOLDEN_CASE: &str = "f3d_64x40x32_z2_subsonic_1step";

/// A perturbed freestream: without the perturbation every field stays
/// exactly freestream and the checksums test nothing.
fn f3d_state(amplitude: f64, phase: f64) -> MultiZoneSolver {
    let grid = MultiZoneGrid::split_j(F3D_DIMS, F3D_ZONES);
    let mut solver = MultiZoneSolver::from_grid(&grid, SolverConfig::subsonic(), F3D_SPACING);
    for zi in 0..solver.zone_count() {
        let zone = solver.zone_mut(zi);
        for p in zone.dims().iter_jkl() {
            let mut q = zone.q.get(p);
            q[0] *= 1.0 + amplitude * (phase + (p.j + 2 * p.k + 3 * p.l + zi) as f64).sin();
            zone.q.set(p, q);
        }
    }
    solver
}

fn f3d_checksums(solver: &MultiZoneSolver) -> Vec<FieldChecksum> {
    (0..solver.zone_count())
        .map(|zi| FieldChecksum::of(&solver.zone(zi).q))
        .collect()
}

fn f3d_values(sum: &FieldChecksum) -> Vec<f64> {
    [sum.sum, sum.sum_sq, sum.min, sum.max].concat()
}

pub struct F3dAboveBound {
    /// Two copies of one state, advanced in lockstep: `[0]` by the
    /// `Main` blocks, `[1]` by the `Base` or `Traced` blocks.
    states: [MultiZoneSolver; 2],
    main: Workers,
    base: Workers,
    traced: Workers,
    steps_per_block: usize,
    pub split: KernelSplit,
    /// Parallel regions per step, counted over the last `Main` block.
    pub sync_events_per_step: f64,
    next_run: u64,
}

impl F3dAboveBound {
    pub fn set_up(seed: u64, p: usize, steps_per_block: usize, failures: &mut Failures) -> Self {
        // Pinned digests: one step from the canonical perturbation, on
        // one worker (bit-exact with any other count; a one-thread step
        // keeps `setup_s` out of the P-worker weather).
        let mut canonical = f3d_state(0.01, 0.0);
        let base = Workers::new(1);
        canonical.step_loop_level(&base, None);
        let got: Vec<_> = f3d_checksums(&canonical)
            .iter()
            .enumerate()
            .map(|(zi, sum)| (format!("zone{zi}.q"), digest(&f3d_values(sum))))
            .collect();
        check_golden(
            crate::metrics::F3D_ABOVE_BOUND,
            F3D_GOLDEN_CASE,
            &got,
            failures,
        );

        let mut rng = Rng::new(seed);
        let amplitude = 0.005 + 0.01 * rng.unit();
        let phase = std::f64::consts::TAU * rng.unit();
        F3dAboveBound {
            states: [f3d_state(amplitude, phase), f3d_state(amplitude, phase)],
            main: Workers::new(p),
            base,
            traced: recorded_workers(p),
            steps_per_block,
            split: KernelSplit::default(),
            sync_events_per_step: 0.0,
            next_run: 0,
        }
    }

    pub fn points() -> usize {
        MultiZoneGrid::split_j(F3D_DIMS, F3D_ZONES).total_points()
    }
}

impl Workload for F3dAboveBound {
    fn block(
        &mut self,
        mode: Mode,
        tracer: &mut Tracer,
        root: SpanId,
        _failures: &mut Failures,
    ) -> Block {
        let (state, workers) = match mode {
            Mode::Main => (&mut self.states[0], &self.main),
            Mode::Base => (&mut self.states[1], &self.base),
            Mode::Traced => (&mut self.states[1], &self.traced),
        };
        let traced = mode == Mode::Traced;
        let run = self.next_run;
        self.next_run += 1;
        let mut block = Block::default();
        let syncs_before = workers.sync_event_count();
        let block_start = Instant::now();
        let run_span = traced.then(|| tracer.begin("run", Some(root), run));
        for _ in 0..self.steps_per_block {
            let start = Instant::now();
            state.step_loop_level(workers, None);
            let end = Instant::now();
            block.samples_us.push(us(start, end));
            if let Some(run_span) = run_span {
                tracer.record("step", Some(run_span), run, start, end);
            }
        }
        if let Some(run_span) = run_span {
            let start = Instant::now();
            let report = workers
                .recorder()
                .take_report("f3d_above_bound", workers.processors());
            drop(workers.flight().take_timeline());
            self.split.absorb(&report, self.steps_per_block as u64);
            tracer.record("finish", Some(run_span), run, start, Instant::now());
            tracer.end(run_span);
        }
        block.wall_s = block_start.elapsed().as_secs_f64();
        block.ok = self.steps_per_block as u64;
        if mode == Mode::Main {
            self.sync_events_per_step =
                (workers.sync_event_count() - syncs_before) as f64 / self.steps_per_block as f64;
        }
        block
    }

    fn cross_check(&mut self, operations: u64, failures: &mut Failures) {
        let (a, b) = (
            f3d_checksums(&self.states[0]),
            f3d_checksums(&self.states[1]),
        );
        for (zi, (a, b)) in a.iter().zip(&b).enumerate() {
            let (a, b) = (f3d_values(a), f3d_values(b));
            if a.iter().any(|v| !v.is_finite()) {
                failures.push(
                    operations,
                    format!("f3d_above_bound: zone {zi} left the finite range"),
                );
            } else if digest(&a) != digest(&b) {
                failures.push(
                    operations,
                    format!("f3d_above_bound: zone {zi} checksums differ between the P-worker and the other state"),
                );
            }
        }
    }
}

// ------------------------------------------------------------ fdtd

/// The served maximum: the largest grid and step count `llpd` admits.
pub const FDTD_SIZE: usize = 128;
pub const FDTD_STEPS: usize = 64;
const FDTD_GOLDEN_CASE: &str = "fdtd_128_64steps";

pub struct FdtdSyncBound {
    name: &'static str,
    case: FdtdCase,
    main: Workers,
    base: Workers,
    traced: Workers,
    instances_per_block: usize,
    /// Per-field digests of the 1-worker reference run's final state.
    expected: Vec<(String, String)>,
    pub split: KernelSplit,
    /// Parallel regions per step, counted over the last `Main` block.
    pub sync_events_per_step: f64,
    next_run: u64,
}

/// `(field, digest)` per field: equal lists certify bit-identical
/// checksums.
pub fn fdtd_digests(sums: &[fdtd::FieldChecksum]) -> Vec<(String, String)> {
    sums.iter()
        .map(|s| (s.field.clone(), digest(&[s.sum, s.sum_sq, s.min, s.max])))
        .collect()
}

impl FdtdSyncBound {
    pub fn set_up(
        name: &'static str,
        policy: Policy,
        p: usize,
        instances_per_block: usize,
        failures: &mut Failures,
    ) -> Self {
        let case = FdtdCase {
            size: FDTD_SIZE,
            steps: FDTD_STEPS,
            workers: p,
            schedule: policy,
            vector_width: 1,
        };
        let base = Workers::new(1);
        let mut reference = FdtdSolver::create_instance(&case, &WidthMap::default());
        for step in 0..FDTD_STEPS {
            reference.step(&base, step, None);
        }
        let expected = fdtd_digests(&reference.finish().checksums);
        check_golden(name, FDTD_GOLDEN_CASE, &expected, failures);
        FdtdSyncBound {
            name,
            case,
            main: Workers::new(p).with_policy(policy),
            base,
            traced: recorded_workers(p).with_policy(policy),
            instances_per_block,
            expected,
            split: KernelSplit::default(),
            sync_events_per_step: 0.0,
            next_run: 0,
        }
    }
}

impl Workload for FdtdSyncBound {
    fn block(
        &mut self,
        mode: Mode,
        tracer: &mut Tracer,
        root: SpanId,
        failures: &mut Failures,
    ) -> Block {
        let workers = match mode {
            Mode::Main => &self.main,
            Mode::Base => &self.base,
            Mode::Traced => &self.traced,
        };
        let traced = mode == Mode::Traced;
        let widths = WidthMap::default();
        let mut block = Block::default();
        let syncs_before = workers.sync_event_count();
        let block_start = Instant::now();
        for _ in 0..self.instances_per_block {
            let run = self.next_run;
            self.next_run += 1;
            let run_span = traced.then(|| tracer.begin("run", Some(root), run));
            let created = Instant::now();
            let mut instance = FdtdSolver::create_instance(&self.case, &widths);
            let mut start = Instant::now();
            if let Some(run_span) = run_span {
                tracer.record("create_instance", Some(run_span), run, created, start);
            }
            for step in 0..FDTD_STEPS {
                instance.step(workers, step, None);
                let end = Instant::now();
                block.samples_us.push(us(start, end));
                if let Some(run_span) = run_span {
                    tracer.record("step", Some(run_span), run, start, end);
                }
                start = end;
            }
            let output = instance.finish();
            if let Some(run_span) = run_span {
                let report = workers
                    .recorder()
                    .take_report(self.name, workers.processors());
                drop(workers.flight().take_timeline());
                self.split.absorb(&report, FDTD_STEPS as u64);
                tracer.record("finish", Some(run_span), run, start, Instant::now());
                tracer.end(run_span);
            }
            if fdtd_digests(&output.checksums) == self.expected {
                block.ok += FDTD_STEPS as u64;
            } else {
                block.failed += FDTD_STEPS as u64;
                failures.push(
                    FDTD_STEPS as u64,
                    format!(
                        "{}: {mode:?} checksums differ from the 1-worker reference run",
                        self.name
                    ),
                );
            }
        }
        block.wall_s = block_start.elapsed().as_secs_f64();
        if mode == Mode::Main {
            let steps = (self.instances_per_block * FDTD_STEPS) as f64;
            self.sync_events_per_step = (workers.sync_event_count() - syncs_before) as f64 / steps;
        }
        block
    }
}
