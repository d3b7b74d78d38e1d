//! Candidate enumeration: the configuration space one kernel's search
//! covers, pruned by the paper's two laws before anything is measured.
//!
//! * **Stair-step pruning** (Table 3): under static-style chunking the
//!   parallel runtime is proportional to `ceil(U/P)`, so two worker
//!   counts with the same ceiling are the same configuration wearing
//!   different price tags. Only the *plateau edges* — the smallest `P`
//!   achieving each distinct `ceil(U/P)` — are worth proposing
//!   ([`perfmodel::plateau_edges`]).
//! * **Minimum-work pruning** (Table 1): a worker count whose
//!   synchronization bill `P·S` exceeds the overhead budget `f·W`
//!   cannot win; [`perfmodel::overhead::OverheadBound::max_processors`]
//!   caps the proposals.
//!
//! The surviving worker counts are crossed with the schedule policies
//! (static, dynamic, guided — small chunk vocabularies, since the
//! service caps loop extents): the paper's loop-level axis. Lane counts
//! are not searched — they are kernel constants (see
//! [`solver::widths`]), fixed the way the paper fixes the inner loop's
//! shape, by serial tuning before any parallel run.

use llp::Policy;
use perfmodel::stairstep::plateau_edges;
use perfmodel::OverheadBound;

/// One point of the search space: a worker count and a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Worker count.
    pub workers: usize,
    /// Chunk-scheduling policy.
    pub policy: Policy,
}

impl Candidate {
    /// The default configuration the search must always include and
    /// compare against: every pool worker, static block scheduling.
    #[must_use]
    pub fn default_config(pool_width: usize) -> Self {
        Self {
            workers: pool_width.max(1),
            policy: Policy::Static,
        }
    }
}

/// Worker counts worth proposing for a loop of `units` iterations on a
/// pool of `pool_width` workers: the stair-step plateau edges — never
/// a `P` where `ceil(units/P)` equals the previous edge's — capped by
/// the Table 1 budget when `bound` is given (`P = 1` always survives;
/// so does `pool_width`, the default config, which the calibration
/// must measure even when the model dislikes it).
///
/// Degenerate inputs never panic: `units == 0` proposes only the
/// serial count `[1]` (there is nothing to split), and `pool_width ==
/// 0` is treated as a 1-wide pool. [`plateau_edges`] stops its scan at
/// `P = units`, so an absurd `pool_width` (untrusted input, or a wrapped
/// conversion upstream) costs O(units), not O(pool_width).
#[must_use]
pub fn worker_counts(
    units: u64,
    pool_width: usize,
    bound: Option<(&OverheadBound, u64)>,
) -> Vec<usize> {
    let width = pool_width.max(1);
    if units == 0 {
        return vec![1];
    }
    // A pool width beyond u32::MAX clamps instead of wrapping.
    let mut counts: Vec<usize> = plateau_edges(units, u32::try_from(width).unwrap_or(u32::MAX))
        .into_iter()
        .map(|p| usize::try_from(p).unwrap_or(usize::MAX))
        .collect();
    if let Some((bound, work_cycles)) = bound {
        let cap = usize::try_from(bound.max_processors(work_cycles).max(1)).unwrap_or(usize::MAX);
        counts.retain(|&p| p <= cap);
    }
    if !counts.contains(&1) {
        counts.insert(0, 1);
    }
    if !counts.contains(&width) {
        counts.push(width);
    }
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Enumerate the candidates for one kernel: the pruned worker counts
/// crossed with the policy vocabulary. Serial (`P = 1`) gets only
/// [`Policy::Static`] — scheduling is meaningless without concurrency.
/// Parallel counts get static, unit and coarse dynamic chunks, and
/// guided hand-outs. The default configuration is always present.
#[must_use]
pub fn candidates(
    units: u64,
    pool_width: usize,
    bound: Option<(&OverheadBound, u64)>,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    for p in worker_counts(units, pool_width, bound) {
        let policies = if p <= 1 {
            vec![Policy::Static]
        } else {
            let mut policies = vec![Policy::Static, Policy::Dynamic { chunk: 1 }];
            // A coarse dynamic chunk: ~2 hand-outs per worker. The
            // unit count saturates into usize and the divisor guards
            // against overflow, so absurd inputs degrade to chunk 1
            // instead of wrapping.
            let coarse = usize::try_from(units)
                .unwrap_or(usize::MAX)
                .div_ceil(p.saturating_mul(2))
                .max(1);
            if coarse > 1 {
                policies.push(Policy::Dynamic { chunk: coarse });
            }
            policies.push(Policy::Guided { min_chunk: 1 });
            policies
        };
        for policy in policies {
            out.push(Candidate {
                workers: p.max(1),
                policy,
            });
        }
    }
    let default = Candidate::default_config(pool_width);
    if !out.contains(&default) {
        out.push(default);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plateau_pruning_skips_redundant_worker_counts() {
        // U = 10 on an 8-wide pool: ceil(10/P) for P=1..8 is
        // 10,5,4,3,2,2,2,2 — P=6,7,8 duplicate P=5's plateau, so the
        // naive sweep's 8 counts shrink to the 5 edges.
        assert_eq!(worker_counts(10, 8, None), vec![1, 2, 3, 4, 5, 8]);
        // (8 survives only because the default config is kept.)
        let c = candidates(10, 8, None);
        assert!(!c.iter().any(|c| c.workers == 6 || c.workers == 7));
    }

    #[test]
    fn table1_bound_caps_worker_counts() {
        // W = 300k cycles at S = 1k, f = 1%: P·S ≤ f·W caps P at 3.
        let bound = OverheadBound::paper_default(1_000);
        let counts = worker_counts(10, 8, Some((&bound, 300_000)));
        assert!(counts.iter().all(|&p| p <= 3 || p == 8), "{counts:?}");
        // Tiny work: only serial survives (plus the kept default).
        let tiny = worker_counts(10, 8, Some((&bound, 10)));
        assert_eq!(tiny, vec![1, 8]);
    }

    #[test]
    fn serial_gets_static_only_and_default_is_always_present() {
        let c = candidates(0, 4, None);
        assert!(c.contains(&Candidate::default_config(4)));
        for cand in &c {
            if cand.workers == 1 {
                assert_eq!(cand.policy, Policy::Static);
            }
        }
        // Parallel counts carry the full policy vocabulary.
        let c = candidates(12, 4, None);
        assert!(c
            .iter()
            .any(|c| c.workers == 4 && c.policy == Policy::Dynamic { chunk: 1 }));
        assert!(c
            .iter()
            .any(|c| c.workers == 4 && c.policy == Policy::Guided { min_chunk: 1 }));
        // No duplicates.
        for (i, a) in c.iter().enumerate() {
            assert!(!c[i + 1..].contains(a), "duplicate {a:?}");
        }
    }

    #[test]
    fn degenerate_pools_and_overflow_boundaries_never_panic_or_hang() {
        // pool_width == 0: treated as a 1-wide pool, serial only.
        assert_eq!(worker_counts(10, 0, None), vec![1]);
        assert_eq!(worker_counts(0, 0, None), vec![1]);
        let c = candidates(10, 0, None);
        assert!(c.contains(&Candidate::default_config(0)));
        assert!(c.iter().all(|c| c.workers == 1));

        // Saturating narrowing: unit counts and pool widths past
        // u32::MAX clamp instead of wrapping, and the plateau scan is
        // bounded by units, so an absurd pool width returns quickly.
        let counts = worker_counts(u64::MAX, 4, None);
        assert!(counts.contains(&1) && counts.contains(&4));
        let counts = worker_counts(3, usize::MAX, None);
        assert!(counts.contains(&1) && counts.contains(&usize::MAX));
        assert!(counts.iter().all(|&p| p == usize::MAX || p <= 3));
        // The coarse-chunk divisor saturates rather than overflowing.
        let c = candidates(u64::MAX, 2, None);
        assert!(c.iter().all(|c| match c.policy {
            Policy::Dynamic { chunk } => chunk >= 1,
            _ => true,
        }));
    }
}
