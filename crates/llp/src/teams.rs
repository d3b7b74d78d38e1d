//! Multi-level parallelism (MLP): apportioning processors to zones.
//!
//! Section 8 of the paper discusses James Taft's OVERFLOW-MLP approach
//! at NASA Ames: a coarse level of parallelism across zones, each zone
//! internally parallelized with loop-level parallelism. "Straight
//! loop-level parallelism and MLP appear to be complementary
//! techniques" — MLP lifts the stair-step ceiling (the per-zone loop
//! extent) by multiplying it across concurrently running zones, at the
//! price of zone-level load imbalance.
//!
//! The runtime for it is the `zones` crate (zone shards as views of
//! the one shared pool); what lives here is the pure apportionment the
//! MLP model and its ablation share.

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
