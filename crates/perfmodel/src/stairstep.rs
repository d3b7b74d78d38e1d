//! The stair-step speedup law (paper Section 4, Table 3, Figure 1).
//!
//! Loop-level parallelism frequently parallelizes loops with between 10
//! and 1,000 iterations — the "available parallelism" `U`. Under static
//! scheduling, some processor must execute `ceil(U / P)` of those units,
//! so the ideal speedup of the loop on `P` processors is
//!
//! ```text
//! speedup(P; U) = U / ceil(U / P)
//! ```
//!
//! When `P` is within roughly a factor of 10 of `U` this curve is not
//! linear but a distinct stair step: it is flat wherever increasing `P`
//! does not decrease `ceil(U / P)`, and jumps at `P = ceil(U / n)` for
//! integer `n` — i.e. near `U/5, U/4, U/3, U/2, U` as the paper notes in
//! Section 5.

/// The number of units of parallelism used in Table 3.
pub const TABLE3_UNITS: u32 = 15;

/// The unit counts plotted in Figure 1.
pub const FIG1_UNIT_COUNTS: [u32; 5] = [5, 15, 25, 35, 45];

/// The maximum processor count plotted in Figure 1.
pub const FIG1_MAX_PROCESSORS: u32 = 50;

/// The largest number of parallelism units statically assigned to any
/// single processor: `ceil(units / processors)`.
///
/// # Panics
/// Panics if `processors == 0` or `units == 0`.
#[must_use]
pub fn max_units_per_processor(units: u64, processors: u32) -> u64 {
    assert!(processors > 0, "processor count must be positive");
    assert!(units > 0, "unit count must be positive");
    units.div_ceil(u64::from(processors))
}

/// The one region price: the critical path's share of a loop's `work`
/// (cycles, seconds or bytes), `work · makespan / units`. `makespan` is
/// the most units any one worker runs — [`max_units_per_processor`]
/// under static scheduling, which gives the paper's `W · ceil(U/P) / U`.
/// The `llp` advisor, the `tune` model and both `smpsim` machines call
/// it; a region costs this plus its synchronization.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn critical_path(work: f64, units: u64, makespan: u64) -> f64 {
    work * makespan as f64 / units as f64
}

/// Ideal (overhead-free) speedup of a loop with `units` units of
/// parallelism on `processors` processors under static scheduling:
/// `units / ceil(units / processors)`.
///
/// For `units = 15` this reproduces Table 3 of the paper:
///
/// ```
/// use perfmodel::ideal_speedup;
/// assert_eq!(ideal_speedup(15, 4), 3.75);
/// assert_eq!(ideal_speedup(15, 8), 7.5);
/// // ...and the plateau: 8 through 14 processors all give 7.5.
/// assert_eq!(ideal_speedup(15, 14), 7.5);
/// assert_eq!(ideal_speedup(15, 15), 15.0);
/// ```
#[must_use]
pub fn ideal_speedup(units: u64, processors: u32) -> f64 {
    units as f64 / max_units_per_processor(units, processors) as f64
}

/// The speedup curve for `processors = 1..=max_processors`, as used to
/// draw Figure 1.
#[must_use]
pub fn speedup_curve(units: u64, max_processors: u32) -> Vec<f64> {
    (1..=max_processors)
        .map(|p| ideal_speedup(units, p))
        .collect()
}

/// The processor counts at which the stair-step curve jumps (the left
/// edge of each plateau): the smallest `P` for each distinct value of
/// `ceil(units / P)`, in increasing order of `P`.
///
/// For `units = 70` this includes 35 (ceil = 2) and 70 (ceil = 1) —
/// explaining the paper's observed flat performance between 48 and 64
/// processors for the 1-million-point case.
///
/// The scan stops at `P = units`: past it `ceil(units / P)` stays 1, so
/// no edge exists there and the cost is O(min(units, max_processors)).
#[must_use]
pub fn plateau_edges(units: u64, max_processors: u32) -> Vec<u32> {
    let mut edges = Vec::new();
    let mut last = None;
    let scan = max_processors.min(u32::try_from(units.max(1)).unwrap_or(u32::MAX));
    for p in 1..=scan {
        let m = max_units_per_processor(units, p);
        if last != Some(m) {
            edges.push(p);
            last = Some(m);
        }
    }
    edges
}

/// Generate Table 3: for each processor count 1..=15, the maximum units
/// assigned to a single processor and the predicted speedup, with a loop
/// of [`TABLE3_UNITS`] units.
#[must_use]
pub fn table3() -> Vec<(u32, u64, f64)> {
    (1..=TABLE3_UNITS)
        .map(|p| {
            let m = max_units_per_processor(u64::from(TABLE3_UNITS), p);
            (p, m, ideal_speedup(u64::from(TABLE3_UNITS), p))
        })
        .collect()
}

/// Multi-level parallelism (paper Section 8, Taft's OVERFLOW-MLP)
/// lifts the stair-step ceiling — the per-zone loop extent — by
/// running zones concurrently on processor teams, at the price of
/// zone-level load imbalance. This is the apportionment the MLP model
/// and its ablation share; the runtime for it is `llp::zones`.
///
/// Partition `total` processors across `weights.len()` teams,
/// proportional to the weights, each team receiving at least one
/// processor (largest-remainder apportionment).
///
/// # Panics
/// Panics if `weights` is empty, any weight is non-positive, or
/// `total < weights.len()`.
#[must_use]
pub fn partition_processors(total: usize, weights: &[f64]) -> Vec<usize> {
    assert!(!weights.is_empty(), "need at least one team");
    assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
    assert!(
        total >= weights.len(),
        "need at least one processor per team ({} teams, {total} processors)",
        weights.len()
    );
    let sum: f64 = weights.iter().sum();
    let spare = total - weights.len(); // one guaranteed to each team
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * spare as f64).collect();
    let mut alloc: Vec<usize> = exact.iter().map(|&e| e.floor() as usize).collect();
    let mut remaining = spare - alloc.iter().sum::<usize>();
    // Hand the remainder to the largest fractional parts.
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.partial_cmp(&fa).expect("finite").then(a.cmp(&b))
    });
    for &i in &order {
        if remaining == 0 {
            break;
        }
        alloc[i] += 1;
        remaining -= 1;
    }
    for a in &mut alloc {
        *a += 1;
    }
    debug_assert_eq!(alloc.iter().sum::<usize>(), total);
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the curve is flat (no speedup change) over the closed
    /// processor-count interval `[lo, hi]`: the plateaus of Table 4.
    fn is_plateau(units: u64, lo: u32, hi: u32) -> bool {
        assert!(lo <= hi, "interval must be ordered");
        max_units_per_processor(units, lo) == max_units_per_processor(units, hi)
    }

    #[test]
    fn table3_matches_paper() {
        // Paper Table 3 (units = 15): rows grouped by plateau.
        let expect = [
            (1u32, 15u64, 1.0f64),
            (2, 8, 15.0 / 8.0),
            (3, 5, 3.0),
            (4, 4, 3.75),
            (5, 3, 5.0),
            (6, 3, 5.0),
            (7, 3, 5.0),
            (8, 2, 7.5),
            (14, 2, 7.5),
            (15, 1, 15.0),
        ];
        for (p, m, s) in expect {
            assert_eq!(max_units_per_processor(15, p), m, "P={p}");
            let got = ideal_speedup(15, p);
            assert!((got - s).abs() < 1e-12, "P={p}: got {got}, want {s}");
        }
    }

    #[test]
    fn speedup_is_monotone_nondecreasing() {
        for units in [5u64, 15, 25, 35, 45, 70, 350, 1000] {
            let curve = speedup_curve(units, 130);
            for w in curve.windows(2) {
                assert!(w[1] >= w[0] - 1e-12, "units={units}: {w:?}");
            }
        }
    }

    #[test]
    fn speedup_bounded_by_processors_and_units() {
        for units in [5u64, 15, 45, 350] {
            for p in 1..=60u32 {
                let s = ideal_speedup(units, p);
                assert!(s <= f64::from(p) + 1e-12);
                assert!(s <= units as f64 + 1e-12);
                assert!(s >= 1.0 - 1e-12);
            }
        }
    }

    #[test]
    fn full_parallelism_reaches_unit_count() {
        for units in [1u64, 5, 15, 70, 350] {
            let s = ideal_speedup(units, u32::try_from(units).unwrap());
            assert!((s - units as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_plateau_1m_case() {
        // 1-million-point case: limiting loop dimension ~70 (L of the
        // 15/87/89 x 75 x 70 zones): flat between 48 and 64 processors.
        assert!(is_plateau(70, 48, 64));
        assert!(!is_plateau(70, 64, 70));
    }

    #[test]
    fn paper_plateau_59m_case() {
        // 59-million-point case: limiting dimension ~350: flat between
        // 88 and 104 processors (ceil(350/88)=4=ceil(350/104)).
        assert!(is_plateau(350, 88, 104));
        // ...and rises again by 117 (ceil=3).
        assert!(!is_plateau(350, 104, 117));
    }

    #[test]
    fn plateau_edges_are_jump_points() {
        let edges = plateau_edges(15, 15);
        assert_eq!(edges, vec![1, 2, 3, 4, 5, 8, 15]);
    }

    #[test]
    fn plateau_edges_near_u_over_n() {
        // Jumps occur at P = ceil(U/n): for U=70 expect ... 14(=70/5),
        // 18(=ceil(70/4)), 24, 35, 70 among the edges.
        let edges = plateau_edges(70, 70);
        for e in [14u32, 18, 24, 35, 70] {
            assert!(edges.contains(&e), "edge {e} missing from {edges:?}");
        }
    }

    #[test]
    fn critical_path_is_the_stair_steps_share() {
        // 15 units on 4 processors: one processor runs 4 of them.
        assert_eq!(critical_path(15.0, 15, max_units_per_processor(15, 4)), 4.0);
        for (units, p) in [(15u64, 8u32), (70, 48), (350, 104)] {
            let share = critical_path(1.0, units, max_units_per_processor(units, p));
            assert!((share - 1.0 / ideal_speedup(units, p)).abs() < 1e-15);
        }
    }

    #[test]
    fn curve_length_matches() {
        assert_eq!(speedup_curve(45, 50).len(), 50);
    }

    #[test]
    #[should_panic(expected = "processor count must be positive")]
    fn zero_processors_panics() {
        let _ = ideal_speedup(15, 0);
    }

    #[test]
    #[should_panic(expected = "unit count must be positive")]
    fn zero_units_panics() {
        let _ = ideal_speedup(0, 1);
    }

    #[test]
    fn partition_sums_to_total_with_min_one() {
        // The paper's 1M case weights.
        let weights = [78_750.0, 456_750.0, 467_250.0];
        for total in [3usize, 8, 64, 124] {
            let p = partition_processors(total, &weights);
            assert_eq!(p.iter().sum::<usize>(), total, "total {total}");
            assert!(p.iter().all(|&x| x >= 1));
        }
        // Proportionality at 124: zone1 ~ 10, zones 2/3 ~ 57 each.
        let p = partition_processors(124, &weights);
        assert!(p[0] >= 8 && p[0] <= 12, "{p:?}");
        assert!(p[1] >= 54 && p[2] >= 54, "{p:?}");
    }

    #[test]
    fn partition_equal_weights_is_even() {
        assert_eq!(partition_processors(12, &[1.0, 1.0, 1.0]), vec![4, 4, 4]);
        assert_eq!(
            partition_processors(13, &[1.0, 1.0, 1.0])
                .iter()
                .sum::<usize>(),
            13
        );
    }

    #[test]
    #[should_panic(expected = "at least one processor per team")]
    fn too_few_processors_panics() {
        let _ = partition_processors(2, &[1.0, 1.0, 1.0]);
    }
}
