//! The measurement loop: run the candidate configurations through an
//! instrumented pool view and pick each kernel's winner **by measured
//! cost**. The paper's laws prune what is measured and are reported
//! next to every winner; they never select.
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
//!    kernel's space, pruned by the stair-step plateau edges and the
//!    Table 1 bound at the measured `W` and `S`. Candidates are
//!    measured in rounds: round `r` assigns every kernel its
//!    `r mod len`-th candidate (kernels are measured independently, so
//!    one run prices one candidate per kernel), and each round is
//!    repeated `trials` times. A kernel's cost for a candidate is the
//!    **median** of its measurements — summed region wall nanoseconds
//!    from the flight recorder's attribution.
//! 3. **Selection** — `select` on the measured medians: the
//!    structurally simplest candidate within 2 % of the cheapest. The
//!    default configuration is always a candidate and is the
//!    no-regression floor: a winner that measured worse than it
//!    (possible only inside the band) is replaced by it, so the
//!    published `measured_cost_ns` never exceeds `default_cost_ns`.
//! 4. **Report** — [`crate::model::predicted_cost_ns`] prices the same
//!    candidates; the db records the winner's predicted cost and
//!    whether ranking by prediction would have picked the same
//!    candidate (`model_agrees`). That column is the standing
//!    validation of the paper's model, not an input to step 3.

use crate::db::{TuneDb, TuneEntry, TUNE_SCHEMA_VERSION};
use crate::model::predicted_cost_ns;
use crate::space::{candidates, Candidate};
use llp::obs::attr::{kernel_overheads, AttributionReport, KernelOverhead};
use llp::obs::timeline::DEFAULT_EVENT_CAPACITY;
use llp::{FlightRecorder, Policy, ScheduleMap, Workers};
use perfmodel::OverheadBound;
use solver::{check_range, Solver, SolverSpec};

/// Largest `zones` a calibration case may ask for.
pub const MAX_ZONES: usize = 4;
/// Largest `steps` a calibration case may ask for.
pub const MAX_STEPS: usize = 32;
/// Largest `trials` (the K of median-of-K).
pub const MAX_TRIALS: usize = 9;
/// Widest pool view a calibration measures on; wider pools calibrate
/// on their first `MAX_WORKERS` lanes.
pub const MAX_WORKERS: usize = 64;

/// What to calibrate and how hard to try.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalibrationSpec {
    /// Size knob of the calibration case (1..=[`MAX_ZONES`]): zones for
    /// F3D, the grid-edge scale for FDTD — the solver's calibration
    /// constructor says what it means.
    pub zones: usize,
    /// Steps of the calibration case (1..=[`MAX_STEPS`]).
    pub steps: usize,
    /// Trials per candidate — the K of median-of-K
    /// (1..=[`MAX_TRIALS`], odd recommended).
    pub trials: usize,
}

impl Default for CalibrationSpec {
    fn default() -> Self {
        Self {
            zones: 2,
            steps: 2,
            trials: 3,
        }
    }
}

impl CalibrationSpec {
    /// Check the spec against the calibration caps.
    ///
    /// # Errors
    /// Returns a message naming the offending field and its bound.
    pub fn validate(&self) -> Result<(), String> {
        check_range("zones", self.zones, MAX_ZONES)?;
        check_range("steps", self.steps, MAX_STEPS)?;
        check_range("trials", self.trials, MAX_TRIALS)
    }
}

/// One kernel's seed-pass profile and search space.
struct KernelSeed {
    /// The seed run's row: kernel name, regions, iterations, compute.
    row: KernelOverhead,
    /// Mean iterations per region (stair-step `U`).
    units: u64,
    candidates: Vec<Candidate>,
}

/// Calibrate solver `S` on a view of `pool`: seed pass, candidate
/// search and selection all run through [`solver::run_instrumented`],
/// so any workload implementing the [`Solver`] trait calibrates with
/// the same protocol and lands in the same versioned database (keyed
/// by [`Solver::KIND`]). The case measured is the solver's own
/// [`SolverSpec::calibration`] at `spec.zones` × `spec.steps` and the
/// view's width, so this crate names no physics.
///
/// The measurement runs on a `pool.sized_view` of the pool's own width
/// with a *private* recorder, so concurrent users of the pool keep
/// their observability streams; shared
/// sync-event totals still accumulate on the pool, as for any view.
///
/// # Errors
/// Invalid specs, solver failures, and a seed pass that yields no
/// flight data are reported as a message.
pub fn calibrate_solver<S: Solver>(
    pool: &Workers,
    spec: &CalibrationSpec,
) -> Result<TuneDb, String> {
    spec.validate()?;
    let width = pool.processors().min(MAX_WORKERS);
    let mut view = pool.sized_view(width);
    view.set_flight(FlightRecorder::enabled(width, DEFAULT_EVENT_CAPACITY));
    let case = S::Config::calibration(spec.zones, spec.steps, width);

    // --- Seed pass: measure U, W and S at the default config. ---
    let seed_run = solver::run_instrumented::<S>(&case, &view, None)?;
    let seed_attr = AttributionReport::from_timeline(&seed_run.timeline);
    let seed_rows = kernel_overheads(&seed_attr);
    if seed_rows.is_empty() || seed_attr.regions.is_empty() {
        return Err("calibration seed pass produced no flight data".to_string());
    }
    let sync_cost_ns = seed_attr
        .model_check()
        .map_or(0.0, |c| c.sync_cost_ns)
        .round() as u64;
    let bound = OverheadBound::paper_default(sync_cost_ns);

    let seeds: Vec<KernelSeed> = seed_rows
        .into_iter()
        .filter(|row| row.regions > 0)
        .map(|row| {
            let units = row.iterations / row.regions;
            let work_ns = row.compute_ns / row.regions;
            KernelSeed {
                candidates: candidates(units, width, Some((&bound, work_ns))),
                units,
                row,
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
        for seed in &seeds {
            let cand = seed.candidates[round % seed.candidates.len()];
            map.set(&seed.row.kernel, cand.workers, cand.policy);
        }
        for _ in 0..spec.trials {
            let run = solver::run_instrumented::<S>(&case, &view, Some(&map))?;
            let attr = AttributionReport::from_timeline(&run.timeline);
            let rows = kernel_overheads(&attr);
            for (si, seed) in seeds.iter().enumerate() {
                if let Some(row) = rows.iter().find(|r| r.kernel == seed.row.kernel) {
                    let ci = round % seed.candidates.len();
                    costs[si][ci].push(row.wall_ns);
                }
            }
        }
    }

    // --- Selection (measured) and report (modeled). ---
    let mut entries = Vec::with_capacity(seeds.len());
    for (seed, costs) in seeds.iter().zip(&costs) {
        let kernel = &seed.row.kernel;
        let default = Candidate::default_config(width);
        let default_ci = seed
            .candidates
            .iter()
            .position(|c| *c == default)
            .ok_or_else(|| format!("default config missing from {kernel} search"))?;
        let measured: Vec<u64> = costs.iter().map(|m| median(m)).collect();
        let modeled: Vec<u64> = seed
            .candidates
            .iter()
            .map(|c| {
                predicted_cost_ns(
                    seed.row.compute_ns as f64,
                    seed.units,
                    c.policy,
                    c.workers,
                    seed.row.regions,
                    sync_cost_ns,
                )
                .round() as u64
            })
            .collect();
        let mut win = select(&seed.candidates, &measured);
        // The near-tie band lets a simpler candidate that measured up
        // to 2 % worse than the default win. Never publish such a
        // winner: the default is the no-regression floor
        // (`TuneEntry::default_cost_ns` docs).
        if measured[win] > measured[default_ci] {
            win = default_ci;
        }
        let model_win = select(&seed.candidates, &modeled);
        entries.push(TuneEntry {
            kernel: kernel.clone(),
            workers: seed.candidates[win].workers,
            schedule: seed.candidates[win].policy,
            iterations: seed.units,
            candidates_tried: seed.candidates.len(),
            measured_cost_ns: measured[win],
            default_cost_ns: measured[default_ci],
            modeled_cost_ns: modeled[win],
            model_agrees: seed.candidates[model_win] == seed.candidates[win],
        });
    }
    entries.sort_by(|a, b| a.kernel.cmp(&b.kernel));

    Ok(TuneDb {
        schema_version: TUNE_SCHEMA_VERSION,
        solver: S::KIND.to_string(),
        pool_width: width,
        zones: spec.zones,
        steps: spec.steps,
        trials: spec.trials,
        sync_cost_ns,
        entries,
    })
}

/// The one selection rule: among the candidates whose cost is within
/// 2 % of the cheapest, the structurally simplest wins — fewer workers,
/// then policy order (static < dynamic < guided), then smaller chunk,
/// then (for identical configurations only) lower cost. The band is anchored at the minimum, which is a
/// property of the candidate *set*, so the winner does not depend on
/// the order the candidates are listed in. Costs are whatever the
/// caller ranks: measured medians to select, predicted costs to ask
/// what the model would have picked. The slice is never empty — the
/// default configuration is always a candidate.
fn select(cands: &[Candidate], cost: &[u64]) -> usize {
    let cheapest = *cost.iter().min().expect("at least the default candidate");
    let key = |i: usize| {
        let c = &cands[i];
        let policy = match c.policy {
            Policy::Static => (0usize, 0usize),
            Policy::Dynamic { chunk } => (1, chunk),
            Policy::Guided { min_chunk } => (2, min_chunk),
        };
        (c.workers, policy, cost[i])
    };
    (0..cands.len())
        // Within 2 %: `(c − min)·50 ≤ c`, divided so `u64::MAX` (an
        // unmeasured candidate) cannot overflow into the band.
        .filter(|&i| cost[i] - cheapest <= cost[i] / 50)
        .min_by_key(|&i| key(i))
        .expect("the cheapest candidate is in its own band")
}

/// Median of a measurement set (upper median for even counts). An
/// empty set maps to `u64::MAX`, so a candidate that was never
/// measured never wins.
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
    use f3d::service::F3dSolver;
    use fdtd::FdtdSolver;

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

    fn cand(workers: usize, policy: Policy) -> Candidate {
        Candidate { workers, policy }
    }

    #[test]
    fn selection_is_deterministic_and_prefers_cheap_simple_configs() {
        let cands = [
            cand(4, Policy::Static),
            cand(2, Policy::Static),
            cand(4, Policy::Dynamic { chunk: 1 }),
        ];
        // Clear winner by measured cost.
        assert_eq!(select(&cands, &[100, 50, 90]), 1);
        assert_eq!(select(&cands, &[100, 90, 50]), 2);
        // Near-tie: fewer workers, then simpler policy.
        assert_eq!(select(&cands, &[100, 100, 100]), 1);
        assert_eq!(select(&cands, &[99, 200, 100]), 0);
        // Just outside the 2 % band the cheaper candidate wins.
        assert_eq!(select(&cands, &[100, 103, 200]), 0);
        // An unmeasured candidate (`median(&[])`) is never a near-tie:
        // `(u64::MAX − 100)·50` overflowed here — a debug-build panic,
        // and a wrapped "within 2 %" verdict in release.
        assert_eq!(select(&cands[..2], &[u64::MAX, 100]), 1);
        assert_eq!(select(&cands[..2], &[u64::MAX, u64::MAX]), 1);
    }

    #[test]
    fn selection_does_not_depend_on_candidate_order() {
        // Costs chosen so pairwise "within 2 %" is not transitive
        // (100 ~ 101.5 ~ 103, but 100 !~ 103): a pairwise tournament
        // would crown a different winner per listing order.
        let listed = [
            (cand(4, Policy::Guided { min_chunk: 1 }), 1000),
            (cand(4, Policy::Static), 1015),
            (cand(2, Policy::Dynamic { chunk: 3 }), 1030),
            (cand(2, Policy::Dynamic { chunk: 1 }), 1016),
            (cand(1, Policy::Static), 1500),
            (cand(3, Policy::Static), 1019),
        ];
        // 1030 is outside the band anchored at the minimum (1000), so
        // the simplest in-band candidate is the 2-worker dynamic one.
        let expected = listed[3].0;
        let mut order: Vec<usize> = (0..listed.len()).collect();
        // Every rotation of every pairwise swap: enough orders to put
        // each candidate first, last, and next to every other.
        for a in 0..listed.len() {
            for b in a..listed.len() {
                order.swap(a, b);
                for _ in 0..listed.len() {
                    order.rotate_left(1);
                    let cands: Vec<Candidate> = order.iter().map(|&i| listed[i].0).collect();
                    let cost: Vec<u64> = order.iter().map(|&i| listed[i].1).collect();
                    assert_eq!(cands[select(&cands, &cost)], expected, "{order:?}");
                }
                order.swap(a, b);
            }
        }
    }

    /// Calibrate `S` through the one entry point at `width` and check
    /// what every calibration must hold: the solver's kernel
    /// vocabulary, sane entries, and the no-regression floor.
    fn calibrated<S: Solver>(width: usize, spec: &CalibrationSpec) -> TuneDb {
        let db = calibrate_solver::<S>(&Workers::new(width), spec).unwrap();
        assert_eq!(db.schema_version, TUNE_SCHEMA_VERSION);
        assert_eq!(db.solver, S::KIND);
        assert_eq!(db.pool_width, width);
        assert_eq!(
            (db.zones, db.steps, db.trials),
            (spec.zones, spec.steps, spec.trials),
            "the calibration case is recorded"
        );
        // The parallel kernels, sorted; serial phases excluded.
        let names: Vec<&str> = db.entries.iter().map(|e| e.kernel.as_str()).collect();
        assert_eq!(names, S::KERNELS);
        for e in &db.entries {
            let kernel = &e.kernel;
            assert!(e.workers >= 1 && e.workers <= width, "{kernel}");
            // A one-wide pool leaves a kernel its default alone.
            let floor = if width > 1 { 2 } else { 1 };
            assert!(e.candidates_tried >= floor, "{kernel}");
            assert!(e.iterations > 0, "{kernel}");
            // Measured selection: the winner never loses to the default.
            assert!(
                e.measured_cost_ns <= e.default_cost_ns,
                "{kernel} ({}) at pool width {width}: {} > {}",
                db.solver,
                e.measured_cost_ns,
                e.default_cost_ns
            );
        }
        db
    }

    #[test]
    fn calibration_runs_and_selected_configs_never_lose_to_default() {
        let spec = CalibrationSpec {
            zones: 1,
            steps: 1,
            trials: 1,
        };
        for width in [1, 2, 4, 8] {
            let db = calibrated::<F3dSolver>(width, &spec);
            assert_eq!(db.entries.len(), 3);
            let db = calibrated::<FdtdSolver>(width, &spec);
            assert_eq!(db.entries.len(), 2);
        }
    }

    #[test]
    fn fdtd_calibration_covers_both_sweeps() {
        let spec = CalibrationSpec {
            zones: 1,
            steps: 2,
            trials: 1,
        };
        let db = calibrated::<FdtdSolver>(2, &spec);
        assert_eq!(db.solver, "fdtd");
        // The two parallel sweeps, sorted; the serial source excluded.
        let names: Vec<&str> = db.entries.iter().map(|e| e.kernel.as_str()).collect();
        assert_eq!(names, ["update_e", "update_h"]);
        // 16 × 1 rows per sweep, and the reported prediction is a cost
        // for the whole case, comparable with the measured one.
        for e in &db.entries {
            assert_eq!(e.iterations, 16, "{}", e.kernel);
            assert!(e.modeled_cost_ns > 0, "{}", e.kernel);
            // Serial + four policies at P = 2.
            assert!(
                e.candidates_tried <= 5,
                "{}: {}",
                e.kernel,
                e.candidates_tried
            );
        }
    }
}
