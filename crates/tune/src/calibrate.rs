//! The deterministic measurement loop: run the candidate
//! configurations through an instrumented pool view, confront measured
//! cost with modeled cost, and pick each kernel's winner.
//!
//! Measurement protocol:
//!
//! 1. **Seed pass** — one run of the calibration case at the default
//!    configuration with the flight recorder enabled yields, per
//!    kernel, the stair-step `U` (mean iterations per region) and the
//!    empirical work `W` (mean compute nanoseconds per region), plus
//!    the timeline-wide mean sync cost `S` — the inputs the paper's
//!    models need.
//! 2. **Search** — [`crate::space::candidates`] enumerates each
//!    kernel's pruned space. Candidates are measured in rounds: round
//!    `r` assigns every kernel its `r mod len`-th candidate (kernels
//!    are measured independently, so one run prices one candidate per
//!    kernel), and each round is repeated `trials` times. A kernel's
//!    cost for a candidate is the **median** of its measurements —
//!    summed region wall nanoseconds from the flight recorder's
//!    attribution.
//! 3. **Selection** — the winner minimizes the median measured cost;
//!    since the default configuration is always a candidate, the
//!    winner's cost never exceeds the default's. Ties and near-ties
//!    break deterministically (modeled cost, then fewer workers, then
//!    policy order, then smaller chunk, then smaller vector width).
//!    The analytic model ranks the
//!    same candidates by predicted cost `W/speedup(U,P) +
//!    S·events(U,P)`; the db records whether it agrees.
//!
//! **Deterministic mode** ([`CalibrationSpec::deterministic`], used
//! under the serve layer's job-gate test hook): selection ignores the
//! wall clock entirely and scores candidates with a *structural* cost
//! — ideal makespan and scheduling-event counts over a synthetic
//! work/sync ratio — and skips the measured-work Table 1 pruning, so
//! two calibrations of the same case produce databases with
//! [`crate::TuneDb::same_decisions`] equality. Timing fields are still
//! measured and recorded; they are just not load-bearing.

use crate::db::{TuneDb, TuneEntry, TUNE_SCHEMA_VERSION};
use crate::space::{candidates, Candidate};
use f3d::service::{F3dSolver, ServiceCase, MAX_STEPS, MAX_WORKERS, MAX_ZONES};
use fdtd::service::FdtdSolver;
use llp::obs::attr::{kernel_overheads, AttributionReport};
use llp::obs::timeline::DEFAULT_EVENT_CAPACITY;
use llp::{FlightRecorder, Policy, Recorder, ScheduleMap, Workers};
use perfmodel::OverheadBound;
use solver::{Solver, WidthMap};

/// What to calibrate and how hard to try.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalibrationSpec {
    /// Zones of the calibration case (1..=[`MAX_ZONES`]).
    pub zones: usize,
    /// Steps of the calibration case (1..=[`MAX_STEPS`]).
    pub steps: usize,
    /// Trials per candidate — the K of median-of-K (1..=9, odd
    /// recommended).
    pub trials: usize,
    /// Select winners by the structural model instead of the wall
    /// clock, making the calibration bit-reproducible (the job-gate
    /// test mode; see the module docs).
    pub deterministic: bool,
}

impl Default for CalibrationSpec {
    fn default() -> Self {
        Self {
            zones: 2,
            steps: 2,
            trials: 3,
            deterministic: false,
        }
    }
}

impl CalibrationSpec {
    /// Check the spec against the service caps.
    ///
    /// # Errors
    /// Returns a message naming the offending field and its bound.
    pub fn validate(&self) -> Result<(), String> {
        let check = |name: &str, v: usize, max: usize| {
            if (1..=max).contains(&v) {
                Ok(())
            } else {
                Err(format!("{name} must be in 1..={max}, got {v}"))
            }
        };
        check("zones", self.zones, MAX_ZONES)?;
        check("steps", self.steps, MAX_STEPS)?;
        check("trials", self.trials, 9)
    }

    fn case(&self, workers: usize) -> ServiceCase {
        ServiceCase {
            zones: self.zones,
            steps: self.steps,
            workers,
            schedule: Policy::Static,
            zone_schedule: f3d::service::ZoneSchedule::Sequential,
            vector_width: 1,
        }
    }
}

/// Structural cost constants for deterministic mode: a synthetic
/// work/sync ratio (iteration work in "units", one scheduling event's
/// cost in the same units). The absolute values are arbitrary; only
/// the ranking they induce matters, and it must not depend on any
/// measurement.
const STRUCTURAL_WORK_PER_ITERATION: u64 = 1_000;
const STRUCTURAL_SYNC_COST: u64 = 50;

/// One kernel's seed-pass profile.
struct KernelSeed {
    kernel: String,
    /// Mean iterations per region (stair-step `U`).
    units: u64,
    /// Mean compute nanoseconds per region (empirical `W`).
    work_ns: u64,
    candidates: Vec<Candidate>,
}

/// Run a full calibration of the F3D service kernels on a view of
/// `pool` and return the winning per-kernel configurations.
///
/// The measurement runs on a `pool.sized_view` of the pool's own width
/// with a *private* span recorder and flight recorder, so concurrent
/// users of the pool keep their observability streams; shared
/// sync-event totals still accumulate on the pool, as for any view.
///
/// # Errors
/// Invalid specs, service failures, and a seed pass that yields no
/// flight data are reported as a message.
pub fn calibrate(pool: &Workers, spec: &CalibrationSpec) -> Result<TuneDb, String> {
    calibrate_solver::<F3dSolver, _>(pool, spec, |workers| spec.case(workers))
}

/// [`calibrate`] for the FDTD Maxwell workload: the identical
/// measurement protocol over the `update_e` / `update_h` sweeps. The
/// spec's `zones` knob sets the calibration grid scale (edge
/// `16 × zones` points), so the same `/v1/tune` vocabulary drives both
/// solvers.
///
/// # Errors
/// As [`calibrate`].
pub fn calibrate_fdtd(pool: &Workers, spec: &CalibrationSpec) -> Result<TuneDb, String> {
    calibrate_solver::<FdtdSolver, _>(pool, spec, |workers| fdtd::service::FdtdCase {
        size: 16 * spec.zones,
        steps: spec.steps,
        workers,
        schedule: Policy::Static,
        vector_width: 1,
    })
}

/// The solver-generic calibration core both entry points share: seed
/// pass, candidate search, and selection run through
/// [`solver::run_instrumented`], so any workload implementing the
/// [`Solver`] trait calibrates with the same protocol and lands in the
/// same versioned database (keyed by [`Solver::kind`]).
///
/// # Errors
/// Invalid specs, solver failures, and a seed pass that yields no
/// flight data are reported as a message.
pub fn calibrate_solver<S, F>(
    pool: &Workers,
    spec: &CalibrationSpec,
    case_for: F,
) -> Result<TuneDb, String>
where
    S: Solver,
    F: Fn(usize) -> S::Config,
{
    spec.validate()?;
    let width = pool.processors().min(MAX_WORKERS);
    let mut view = pool.sized_view(width);
    view.set_recorder(Recorder::enabled());
    view.set_flight(FlightRecorder::enabled(width, DEFAULT_EVENT_CAPACITY));
    let case = case_for(width);

    // --- Seed pass: measure U, W and S at the default config. ---
    let seed_run = solver::run_instrumented::<S>(&case, &view, None, None)?;
    let seed_attr = AttributionReport::from_timeline(&seed_run.timeline);
    let seed_rows = kernel_overheads(&seed_run.report, &seed_attr);
    if seed_rows.is_empty() || seed_attr.regions.is_empty() {
        return Err("calibration seed pass produced no flight data".to_string());
    }
    let sync_cost_ns = seed_attr
        .model_check()
        .map_or(0.0, |c| c.sync_cost_ns)
        .round() as u64;
    let bound = OverheadBound::paper_default(sync_cost_ns);

    let seeds: Vec<KernelSeed> = seed_rows
        .iter()
        .filter(|row| row.regions > 0)
        .map(|row| {
            let units = row.iterations / row.regions;
            let work_ns = row.compute_ns / row.regions;
            // Deterministic mode must not let measured work steer the
            // candidate set (Table 1 pruning), only the structural
            // stair-step law.
            let prune = if spec.deterministic {
                None
            } else {
                Some((&bound, work_ns))
            };
            KernelSeed {
                kernel: row.kernel.clone(),
                units,
                work_ns,
                candidates: candidates(units, width, prune),
            }
        })
        .collect();

    // --- Search: measure every candidate of every kernel. ---
    let rounds = seeds.iter().map(|s| s.candidates.len()).max().unwrap_or(0);
    // costs[kernel][candidate] = all wall-ns measurements.
    let mut costs: Vec<Vec<Vec<u64>>> = seeds
        .iter()
        .map(|s| vec![Vec::new(); s.candidates.len()])
        .collect();
    for round in 0..rounds {
        let mut map = ScheduleMap::new();
        let mut widths = WidthMap::new();
        for seed in &seeds {
            let cand = seed.candidates[round % seed.candidates.len()];
            map.set(&seed.kernel, cand.workers, cand.policy);
            widths.set(&seed.kernel, cand.vector_width);
        }
        for _ in 0..spec.trials {
            let run = solver::run_instrumented::<S>(&case, &view, Some(&map), Some(&widths))?;
            let attr = AttributionReport::from_timeline(&run.timeline);
            let rows = kernel_overheads(&run.report, &attr);
            for (si, seed) in seeds.iter().enumerate() {
                if let Some(row) = rows.iter().find(|r| r.kernel == seed.kernel) {
                    let ci = round % seed.candidates.len();
                    costs[si][ci].push(row.wall_ns);
                }
            }
        }
    }

    // --- Selection. ---
    let mut entries = Vec::with_capacity(seeds.len());
    for (si, seed) in seeds.iter().enumerate() {
        let default = Candidate::default_config(width);
        let default_ci = seed
            .candidates
            .iter()
            .position(|c| *c == default)
            .ok_or_else(|| format!("default config missing from {} search", seed.kernel))?;
        let measured: Vec<u64> = costs[si].iter().map(|m| median(m)).collect();
        let modeled: Vec<u64> = seed
            .candidates
            .iter()
            .map(|c| modeled_cost_ns(seed, c, sync_cost_ns))
            .collect();
        let structural: Vec<u64> = seed
            .candidates
            .iter()
            .map(|c| structural_cost(seed.units, c))
            .collect();
        let primary = if spec.deterministic {
            &structural
        } else {
            &measured
        };
        let mut win = select(&seed.candidates, primary, &modeled);
        // The near-tie band in `select` lets the modeled cost promote a
        // candidate that measured slightly worse than the default.
        // Never publish such a winner: the default is the
        // no-regression floor (`TuneEntry::default_cost_ns` docs).
        // Deterministic mode keeps the structural pick — its contract
        // is reproducibility, not measured cost.
        if !spec.deterministic && measured[win] > measured[default_ci] {
            win = default_ci;
        }
        let model_win = select(&seed.candidates, &modeled, &structural);
        entries.push(TuneEntry {
            kernel: seed.kernel.clone(),
            workers: seed.candidates[win].workers,
            schedule: seed.candidates[win].policy,
            vector_width: seed.candidates[win].vector_width,
            iterations: seed.units,
            candidates_tried: seed.candidates.len(),
            measured_cost_ns: measured[win],
            default_cost_ns: measured[default_ci],
            modeled_cost_ns: modeled[win],
            model_agrees: seed.candidates[model_win] == seed.candidates[win],
            stale: false,
        });
    }
    entries.sort_by(|a, b| a.kernel.cmp(&b.kernel));

    Ok(TuneDb {
        schema_version: TUNE_SCHEMA_VERSION,
        solver: S::kind().to_string(),
        pool_width: width,
        zones: spec.zones,
        steps: spec.steps,
        trials: spec.trials,
        sync_cost_ns,
        entries,
    })
}

/// The analytic prediction for one candidate: parallel work per the
/// policy's ideal speedup under the stair-step law, plus one measured
/// sync cost per scheduling event, scaled by the kernel's region count
/// — everything in nanoseconds so it is directly comparable with the
/// measured wall cost.
///
/// The model is deliberately **width-agnostic**: the paper's laws
/// price loop-level parallelism (workers, chunks, sync events) and
/// have no superword term, so candidates differing only in
/// `vector_width` are modeled identically and the *measured* cost is
/// what separates them. The width-1 bias in [`select`]'s tie key keeps
/// the ranking total anyway.
fn modeled_cost_ns(seed: &KernelSeed, cand: &Candidate, sync_cost_ns: u64) -> u64 {
    let u = usize::try_from(seed.units).unwrap_or(usize::MAX);
    let speedup = cand.policy.ideal_speedup(u, cand.workers);
    let events = cand.policy.scheduling_events(u, cand.workers) as u64;
    let work = (seed.work_ns as f64 / speedup).round() as u64;
    work.saturating_add(events.saturating_mul(sync_cost_ns))
}

/// Purely structural cost (deterministic mode): the same shape as
/// [`modeled_cost_ns`] with a fixed synthetic work/sync ratio instead
/// of measurements.
fn structural_cost(units: u64, cand: &Candidate) -> u64 {
    let u = usize::try_from(units).unwrap_or(usize::MAX);
    let makespan = cand.policy.ideal_makespan(u, cand.workers) as u64;
    let events = cand.policy.scheduling_events(u, cand.workers) as u64;
    makespan
        .saturating_mul(STRUCTURAL_WORK_PER_ITERATION)
        .saturating_add(events.saturating_mul(STRUCTURAL_SYNC_COST))
}

/// Pick the winning candidate index: minimum primary cost, near-ties
/// (within 2 %) broken by secondary cost, then fewer workers, then
/// policy order (static < dynamic < guided), then smaller chunk, then
/// smaller vector width — a total, deterministic order. The width
/// tiebreak means a wide variant only wins when it *measures* better:
/// both cost models are width-agnostic, so without it the order would
/// not be total and deterministic mode could not reproduce decisions.
fn select(cands: &[Candidate], primary: &[u64], secondary: &[u64]) -> usize {
    let rank = |c: &Candidate| match c.policy {
        Policy::Static => (0usize, 0usize),
        Policy::Dynamic { chunk } => (1, chunk),
        Policy::Guided { min_chunk } => (2, min_chunk),
    };
    let mut best = 0;
    for i in 1..cands.len() {
        let (lo, hi) = (primary[i].min(primary[best]), primary[i].max(primary[best]));
        let near_tie = hi.saturating_sub(lo) * 50 <= hi; // within 2%
        let better = if near_tie {
            let key = |j: usize| {
                (
                    secondary[j],
                    cands[j].workers,
                    rank(&cands[j]),
                    cands[j].vector_width,
                )
            };
            key(i) < key(best)
        } else {
            primary[i] < primary[best]
        };
        if better {
            best = i;
        }
    }
    best
}

/// Median of a measurement set (upper median for even counts; 0 when
/// empty — an unmeasured candidate never wins because the default is
/// always measured... except it would with cost 0, so map empty to
/// `u64::MAX`).
fn median(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return u64::MAX;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation_names_the_field() {
        assert!(CalibrationSpec::default().validate().is_ok());
        let bad = CalibrationSpec {
            trials: 10,
            ..CalibrationSpec::default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("trials"), "{err}");
        assert!(CalibrationSpec {
            zones: 0,
            ..CalibrationSpec::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn median_is_robust_and_total() {
        assert_eq!(median(&[]), u64::MAX);
        assert_eq!(median(&[7]), 7);
        assert_eq!(median(&[1, 100, 3]), 3);
        assert_eq!(median(&[1, 2, 3, 1000]), 3);
    }

    #[test]
    fn selection_is_deterministic_and_prefers_cheap_simple_configs() {
        let cands = [
            Candidate {
                workers: 4,
                policy: Policy::Static,
                vector_width: 1,
            },
            Candidate {
                workers: 2,
                policy: Policy::Static,
                vector_width: 1,
            },
            Candidate {
                workers: 4,
                policy: Policy::Dynamic { chunk: 1 },
                vector_width: 1,
            },
        ];
        // Clear winner by primary cost.
        assert_eq!(select(&cands, &[100, 50, 90], &[0, 0, 0]), 1);
        // Near-tie: secondary cost decides.
        assert_eq!(select(&cands, &[100, 100, 100], &[5, 9, 1]), 2);
        // Full tie: fewer workers, then simpler policy.
        assert_eq!(select(&cands, &[100, 100, 100], &[5, 5, 5]), 1);
    }

    #[test]
    fn width_ties_break_toward_scalar() {
        // Same (workers, policy) at two widths with identical costs —
        // the width-agnostic models guarantee this shape — must pick
        // the scalar variant, never the wide one.
        let cands = [
            Candidate {
                workers: 2,
                policy: Policy::Static,
                vector_width: 4,
            },
            Candidate {
                workers: 2,
                policy: Policy::Static,
                vector_width: 1,
            },
        ];
        assert_eq!(select(&cands, &[100, 100], &[5, 5]), 1);
        // But a measured win at a wide width takes it.
        assert_eq!(select(&cands, &[80, 100], &[5, 5]), 0);
        // Width never changes the width-agnostic structural cost.
        assert_eq!(
            structural_cost(10, &cands[0]),
            structural_cost(10, &cands[1])
        );
    }

    #[test]
    fn structural_cost_rewards_plateau_edges() {
        // U = 10: P=5 halves the makespan of P=2 under static.
        let c2 = Candidate {
            workers: 2,
            policy: Policy::Static,
            vector_width: 1,
        };
        let c5 = Candidate {
            workers: 5,
            policy: Policy::Static,
            vector_width: 1,
        };
        assert!(structural_cost(10, &c5) < structural_cost(10, &c2));
        // Dynamic unit chunks pay for their hand-outs.
        let d5 = Candidate {
            workers: 5,
            policy: Policy::Dynamic { chunk: 1 },
            vector_width: 1,
        };
        assert!(structural_cost(10, &d5) > structural_cost(10, &c5));
    }

    #[test]
    fn calibration_runs_and_selected_configs_never_lose_to_default() {
        let spec = CalibrationSpec {
            zones: 1,
            steps: 1,
            trials: 1,
            deterministic: false,
        };
        for width in [1, 2, 4, 8] {
            let pool = Workers::new(width);
            let db = calibrate(&pool, &spec).unwrap();
            assert_eq!(db.schema_version, TUNE_SCHEMA_VERSION);
            assert_eq!(db.solver, "f3d");
            assert_eq!(db.pool_width, width);
            // The six parallel kernels, sorted; serial bc/inject excluded.
            let names: Vec<&str> = db.entries.iter().map(|e| e.kernel.as_str()).collect();
            assert_eq!(
                names,
                [
                    "j_factor",
                    "k_factor",
                    "l_factor_scatter",
                    "l_factor_solve",
                    "rhs",
                    "update"
                ]
            );
            for e in &db.entries {
                assert!(e.workers >= 1 && e.workers <= width, "{}", e.kernel);
                assert!(e.candidates_tried >= 2);
                assert!(e.iterations > 0);
                assert!(
                    f3d::kernels::SUPPORTED_WIDTHS.contains(&e.vector_width),
                    "{}: width {}",
                    e.kernel,
                    e.vector_width
                );
                // Measured selection: the winner never loses to the default.
                assert!(
                    e.measured_cost_ns <= e.default_cost_ns,
                    "{} at pool width {width}: {} > {}",
                    e.kernel,
                    e.measured_cost_ns,
                    e.default_cost_ns
                );
            }
        }
    }

    #[test]
    fn fdtd_calibration_covers_both_sweeps() {
        let pool = Workers::new(2);
        let spec = CalibrationSpec {
            zones: 1,
            steps: 2,
            trials: 1,
            deterministic: true,
        };
        let db = calibrate_fdtd(&pool, &spec).unwrap();
        assert_eq!(db.solver, "fdtd");
        assert_eq!(db.zones, 1, "the calibration scale is recorded");
        // The two parallel sweeps, sorted; the serial source excluded.
        let names: Vec<&str> = db.entries.iter().map(|e| e.kernel.as_str()).collect();
        assert_eq!(names, ["update_e", "update_h"]);
        for e in &db.entries {
            assert!(e.iterations > 0);
            assert!(e.candidates_tried >= 2);
        }
        // Deterministic mode reproduces FDTD decisions too.
        let again = calibrate_fdtd(&pool, &spec).unwrap();
        assert!(db.same_decisions(&again));
        // And the two solvers' databases are never decision-equal.
        let f3d_db = calibrate(
            &pool,
            &CalibrationSpec {
                zones: 1,
                steps: 1,
                trials: 1,
                deterministic: true,
            },
        )
        .unwrap();
        assert!(!db.same_decisions(&f3d_db));
        // Measured mode: same two sweeps, and neither winner loses to
        // the default configuration.
        let measured = calibrate_fdtd(
            &pool,
            &CalibrationSpec {
                deterministic: false,
                ..spec
            },
        )
        .unwrap();
        let names: Vec<&str> = measured.entries.iter().map(|e| e.kernel.as_str()).collect();
        assert_eq!(names, ["update_e", "update_h"]);
        for e in &measured.entries {
            assert!(
                e.measured_cost_ns <= e.default_cost_ns,
                "{}: {} > {}",
                e.kernel,
                e.measured_cost_ns,
                e.default_cost_ns
            );
        }
    }

    #[test]
    fn deterministic_mode_reproduces_decisions() {
        let pool = Workers::new(2);
        let spec = CalibrationSpec {
            zones: 1,
            steps: 1,
            trials: 1,
            deterministic: true,
        };
        let a = calibrate(&pool, &spec).unwrap();
        let b = calibrate(&pool, &spec).unwrap();
        assert!(a.same_decisions(&b));
        // And the decisions survive a JSON round trip.
        let text = a.to_json().to_pretty_string();
        let back: TuneDb = text.parse().unwrap();
        assert!(a.same_decisions(&back));
    }
}
