//! Determinism of the observability layer: at a fixed worker count,
//! two identical solver runs must produce identical span trees
//! (timings excluded) and identical sync-event counts. This is what
//! makes the report schema diffable across runs and against the
//! machine model.

use f3d::multizone::MultiZoneSolver;
use f3d::solver::SolverConfig;
use llp::Workers;
use mesh::MultiZoneGrid;

fn recorded_run(workers: usize, steps: usize) -> llp::ObsReport {
    let grid = MultiZoneGrid::small_test_case();
    let mut solver = MultiZoneSolver::from_grid(&grid, SolverConfig::supersonic(), 0.3);
    let w = Workers::recorded(workers);
    for _ in 0..steps {
        solver.step_loop_level(&w, None);
    }
    w.recorder().take_report("determinism", workers)
}

#[test]
fn two_runs_emit_identical_structure() {
    for workers in [1, 3] {
        let a = recorded_run(workers, 3);
        let b = recorded_run(workers, 3);
        assert_eq!(a.sync_events(), b.sync_events());
        // The full span trees agree once wall times are zeroed.
        assert_eq!(a.without_timings(), b.without_timings());
        // And so does the serialized schema.
        assert_eq!(
            a.without_timings().to_json_string(),
            b.without_timings().to_json_string()
        );
    }
}

#[test]
fn sync_events_are_worker_count_invariant() {
    // The paper's sync-event accounting (one per doacross region) does
    // not depend on how many workers execute the region.
    let counts: Vec<u64> = [1, 2, 4]
        .iter()
        .map(|&p| recorded_run(p, 2).sync_events())
        .collect();
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[1], counts[2]);
    // 3 regions per zone per step (rhs_jk, l_factor_solve, update),
    // 3 zones, 2 steps.
    assert_eq!(counts[0], 18);
}
