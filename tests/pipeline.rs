//! Integration tests across the tooling stack: llp ↔ perfmodel
//! consistency, cachesim ↔ smpsim contention inputs, span report ↔
//! advisor on a real solver run.

use f3d::bc::ZoneBcs;
use f3d::risc_impl::RiscStepper;
use f3d::solver::SolverConfig;
use llp::{Advisor, LoopDecision, Policy, Workers};
use mesh::{Axis, Dims, Layout, Metrics};
use perfmodel::overhead::OverheadBound;

#[test]
fn llp_schedule_matches_perfmodel_everywhere() {
    // The scheduler IS the stair-step model: exhaustive agreement over
    // a broad (n, p) grid.
    for n in 1..=200usize {
        for p in 1..=64usize {
            let speedup = Policy::Static.ideal_speedup(n, p);
            let model = perfmodel::ideal_speedup(n as u64, p as u32);
            assert!((speedup - model).abs() < 1e-12, "n={n} p={p}");
            let max_chunk = Policy::Static.chunks(n, p).iter().map(|c| c.len()).max();
            assert_eq!(
                max_chunk.map(|c| c as u64),
                Some(perfmodel::max_units_per_processor(n as u64, p as u32))
            );
        }
    }
}

#[test]
fn cachesim_sharing_feeds_smpsim_contention_consistently() {
    // Slab-parallel patterns must produce near-zero contention inputs;
    // strided-parallel patterns must not.
    // Large enough that pages ≫ chunk boundaries (the paper's zones are
    // far larger still); with tiny arrays even slab-parallel loops
    // share pages at the chunk seams.
    let dims = Dims::new(64, 64, 64);
    let slab = cachesim::page_sharing(dims, Layout::jkl(), Axis::L, 8, 16 << 10);
    let strided = cachesim::page_sharing(dims, Layout::jkl(), Axis::J, 8, 16 << 10);
    assert!(slab.shared_fraction() < 0.2);
    assert!(strided.shared_fraction() > 0.95);
    let coeff = 0.5;
    let m_slab = smpsim::contention_multiplier(slab.shared_fraction(), 64, coeff);
    let m_strided = smpsim::contention_multiplier(strided.shared_fraction(), 64, coeff);
    assert!(m_slab < 8.0, "{m_slab}");
    assert!(m_strided > 20.0, "{m_strided}");
}

#[test]
fn profiled_solver_run_drives_the_advisor() {
    // End-to-end Section 4 workflow on the real solver: profile a run,
    // feed the advisor, and get the paper's decisions back — main
    // sweeps worth parallelizing on a small SMP, BCs never.
    // Large enough that each sweep invocation clears the Table-1
    // minimum-work bound below with ~2x headroom on a fast host; at
    // 16x14x12 the per-invocation J-factor work sat within noise of
    // the 800k-cycle threshold, and since the factors run in pencil
    // bundles (roughly half the time per point) so would 20x18x16.
    let d = Dims::new(24, 22, 20);
    let (mut zone, mut stepper) = RiscStepper::new_zone(
        SolverConfig::supersonic(),
        Metrics::cartesian(d, (0.2, 0.2, 0.2)),
    );
    let workers = Workers::recorded(2);
    for _ in 0..3 {
        stepper.step(&mut zone, &ZoneBcs::projectile(), &workers, None);
    }
    let report = workers
        .recorder()
        .take_report("pipeline", 2)
        .kernel_summaries();
    // The three parallel regions (the residual and the J and K
    // factors fused in `rhs_jk`) and `bc`.
    assert_eq!(report.len(), 4);

    // Judge for a small cheap-sync SMP (host-scale work is tiny, so the
    // bound must be scaled to the host too: 1 GHz, 2k-cycle sync, 4p).
    let advisor = Advisor::new(1e9, OverheadBound::paper_default(2_000), 4);
    let advice = advisor.advise(&report);
    let advice_of = |name: &str| {
        advice
            .loops
            .iter()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("loop {name} missing"))
    };
    let decision_of = |name: &str| advice_of(name).decision.clone();
    // The sweeps dominate the profile; BC is a sliver.
    let bc_share = advice_of("bc").fraction_of_total;
    assert!(bc_share < 0.1, "{bc_share}");
    assert!(
        matches!(decision_of("rhs_jk"), LoopDecision::Parallelize { .. }),
        "{:?}",
        decision_of("rhs_jk")
    );
    // BC: too little work even on the friendliest machine here.
    assert!(
        !matches!(decision_of("bc"), LoopDecision::Parallelize { .. }),
        "{:?}",
        decision_of("bc")
    );
    assert!(advice.predicted_speedup > 1.5);
}

#[test]
fn sync_events_measured_equal_trace_prediction() {
    // The llp pool's measured synchronization events per step match the
    // analytic trace's sync_events() for the same single-zone schedule,
    // less the two the stepper saves by running the model's rhs, J and
    // K loops as one fused region.
    let d = Dims::new(8, 9, 10);
    let (mut zone, mut stepper) = RiscStepper::new_zone(
        SolverConfig::subsonic(),
        Metrics::cartesian(d, (0.3, 0.3, 0.3)),
    );
    let workers = Workers::new(2);
    workers.reset_counters();
    stepper.step(&mut zone, &ZoneBcs::all_freestream(), &workers, None);
    let measured = workers.sync_event_count();

    let grid = mesh::MultiZoneGrid::chained(vec![mesh::ZoneSpec {
        name: "z".into(),
        dims: d,
    }]);
    let trace = f3d::trace::risc_step_trace(&grid, &cachesim::presets::origin2000_r12k());
    assert_eq!(measured, trace.sync_events() - 2);
}

#[test]
fn fusion_reduces_sync_events_in_practice() {
    let workers = Workers::new(3);
    workers.reset_counters();
    llp::FusedRegion::over(50)
        .then(|_| {})
        .then(|_| {})
        .then(|_| {})
        .then(|_| {})
        .run(&workers);
    assert_eq!(workers.sync_event_count(), 1);
    workers.reset_counters();
    llp::FusedRegion::over(50)
        .then(|_| {})
        .then(|_| {})
        .then(|_| {})
        .then(|_| {})
        .run_unfused(&workers);
    assert_eq!(workers.sync_event_count(), 4);
}

#[test]
fn umbrella_crate_reexports_everything() {
    // llp_suite is the single-dependency entry point.
    let _ = llp_suite::perfmodel::ideal_speedup(15, 4);
    let _ = llp_suite::mesh::Dims::new(2, 2, 2);
    let _ = llp_suite::llp::Workers::serial();
    let _ = llp_suite::cachesim::presets::origin2000_r12k();
    let _ = llp_suite::smpsim::presets::origin2000_r12k_128();
    let _ = llp_suite::f3d::solver::SolverConfig::supersonic();
}
