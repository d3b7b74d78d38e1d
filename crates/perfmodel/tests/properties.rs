//! Property-based tests for the analytic models.

use perfmodel::overhead::{max_efficient_processors, min_work_for_overhead};
use perfmodel::stairstep::{
    ideal_speedup, max_units_per_processor, partition_processors, plateau_edges,
};
use perfmodel::work_per_sync::{GridNest, LoopLevel};
use perfmodel::{amdahl_speedup, serial_fraction_limit};
use proptest::prelude::*;

proptest! {
    /// The stair-step law never exceeds either bound: min(P, U).
    #[test]
    fn stairstep_bounded(units in 1u64..10_000, p in 1u32..1024) {
        let s = ideal_speedup(units, p);
        prop_assert!(s <= f64::from(p) + 1e-9);
        prop_assert!(s <= units as f64 + 1e-9);
        prop_assert!(s >= 1.0 - 1e-9);
    }

    /// Static assignment covers all units: P * ceil(U/P) >= U, and no
    /// over-assignment beyond one extra chunk per processor.
    #[test]
    fn stairstep_assignment_covers(units in 1u64..10_000, p in 1u32..1024) {
        let m = max_units_per_processor(units, p);
        prop_assert!(m * u64::from(p) >= units);
        // Removing a full round would under-cover.
        prop_assert!((m - 1) * u64::from(p) < units);
    }

    /// Speedup is monotone non-decreasing in the processor count.
    #[test]
    fn stairstep_monotone(units in 1u64..5_000, p in 1u32..512) {
        prop_assert!(ideal_speedup(units, p + 1) >= ideal_speedup(units, p) - 1e-12);
    }

    /// Plateau edges always start at P=1, are strictly increasing, and
    /// are exactly what a scan over every `P` up to `pmax` finds (the
    /// function stops its own scan at `P = units`).
    #[test]
    fn plateau_edges_strictly_increasing(units in 1u64..2_000, pmax in 1u32..4_096) {
        let edges = plateau_edges(units, pmax);
        prop_assert_eq!(edges[0], 1);
        for w in edges.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        let mut uncapped = Vec::new();
        for p in 1..=pmax {
            let m = max_units_per_processor(units, p);
            if uncapped.last().is_none_or(|&q| max_units_per_processor(units, q) != m) {
                uncapped.push(p);
            }
        }
        prop_assert_eq!(edges, uncapped);
    }

    /// The overhead bound is exactly the break-even point.
    #[test]
    fn overhead_bound_tight(sync in 1u64..10_000_000, p in 1u32..1024) {
        let w = min_work_for_overhead(sync, p, 0.01);
        // At the bound, overhead = sync / (w / p) <= 1%.
        let frac = sync as f64 / (w as f64 / f64::from(p));
        prop_assert!(frac <= 0.01 + 1e-12);
        // One cycle less violates the bound (when the division is exact).
        if w > 1 {
            let frac_less = sync as f64 / ((w - 1) as f64 / f64::from(p));
            prop_assert!(frac_less > 0.01 - 1e-9);
        }
    }

    /// max_efficient_processors is consistent with min_work_for_overhead.
    #[test]
    fn overhead_inverse_consistent(sync in 1u64..1_000_000, p in 1u32..512) {
        let w = min_work_for_overhead(sync, p, 0.01);
        let back = max_efficient_processors(w, sync, 0.01);
        prop_assert!(back >= p);
    }

    /// Amdahl speedup is bounded by both P and 1/s.
    #[test]
    fn amdahl_bounded(s in 0.0f64..=1.0, p in 1u32..1024) {
        let sp = amdahl_speedup(s, p);
        prop_assert!(sp <= f64::from(p) + 1e-9);
        if s > 0.0 {
            prop_assert!(sp <= 1.0 / s + 1e-9);
        }
        prop_assert!(sp >= 1.0 - 1e-9);
    }

    /// serial_fraction_limit round-trips through amdahl_speedup.
    #[test]
    fn amdahl_limit_roundtrip(target in 1.0f64..100.0, p in 2u32..512) {
        prop_assume!(target <= f64::from(p));
        let s = serial_fraction_limit(target, p).unwrap();
        let achieved = amdahl_speedup(s, p);
        prop_assert!((achieved - target).abs() < 1e-6,
            "target {} p {} s {} achieved {}", target, p, s, achieved);
    }

    /// Work-per-sync never exceeds the whole-nest work and the outer
    /// level always attains it.
    #[test]
    fn work_per_sync_bounds(
        outer in 1u64..200, middle in 1u64..200, inner in 1u64..200, w in 1u64..1000
    ) {
        let nest = GridNest::ThreeD { outer, middle, inner };
        let total = nest.points() * w;
        for lv in [LoopLevel::Inner, LoopLevel::Middle, LoopLevel::Outer,
                   LoopLevel::BoundaryInner, LoopLevel::BoundaryOuter] {
            if let Some(pps) = nest.points_per_sync(lv) {
                prop_assert!(pps * w <= total);
            }
        }
        prop_assert_eq!(nest.points_per_sync(LoopLevel::Outer), Some(nest.points()));
    }

    /// Available parallelism at each level equals the loop extent.
    #[test]
    fn available_parallelism_extent(
        outer in 1u64..300, middle in 1u64..300, inner in 1u64..300
    ) {
        let nest = GridNest::ThreeD { outer, middle, inner };
        prop_assert_eq!(nest.available_parallelism(LoopLevel::Outer), Some(outer));
        prop_assert_eq!(nest.available_parallelism(LoopLevel::Middle), Some(middle));
        prop_assert_eq!(nest.available_parallelism(LoopLevel::Inner), Some(inner));
    }

    /// Team partitioning sums to the total with each team >= 1, and is
    /// monotone in the weights (a heavier team never gets fewer).
    #[test]
    fn partition_properties(
        total_extra in 0usize..200,
        w in prop::collection::vec(1.0f64..1000.0, 1..8)
    ) {
        let total = w.len() + total_extra;
        let alloc = partition_processors(total, &w);
        prop_assert_eq!(alloc.iter().sum::<usize>(), total);
        prop_assert!(alloc.iter().all(|&a| a >= 1));
        // Weak monotonicity up to largest-remainder rounding (±1).
        for i in 0..w.len() {
            for j in 0..w.len() {
                if w[i] >= w[j] {
                    prop_assert!(alloc[i] + 1 >= alloc[j], "{:?} {:?}", w, alloc);
                }
            }
        }
    }
}
