//! Property-based tests for the loop-level parallelism runtime.

use llp::schedule::Policy;
use llp::{chunk_bounds, doacross, doacross_slabs, doacross_slabs_zip, Workers};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// The parallel map under test: `out[i] = body(i)` over one-element
/// slabs.
fn doacross_into(w: &Workers, out: &mut [u64], body: impl Fn(usize) -> u64 + Sync) {
    doacross_slabs(w, out, 1, |i, slot| slot[0] = body(i));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Static chunks tile the range exactly, in order, non-empty.
    #[test]
    fn chunks_tile(n in 0usize..5_000, p in 1usize..256) {
        let chunks = chunk_bounds(n, p);
        let mut expect = 0;
        for c in &chunks {
            prop_assert_eq!(c.start, expect);
            prop_assert!(c.end > c.start);
            expect = c.end;
        }
        prop_assert_eq!(expect, n);
        prop_assert!(chunks.len() <= p);
    }

    /// The largest static chunk is exactly ceil(n/p).
    #[test]
    fn max_chunk_is_ceil(n in 1usize..5_000, p in 1usize..256) {
        let max = chunk_bounds(n, p).iter().map(|c| c.len()).max().unwrap();
        prop_assert_eq!(max, n.div_ceil(p));
    }

    /// `Policy::Static` covers `0..n` disjointly, its largest chunk
    /// is exactly `ceil(n/p)`, and its ideal speedup follows from it,
    /// never exceeding `min(n, p)`.
    #[test]
    fn static_schedule_invariants(n in 0usize..5_000, p in 1usize..256) {
        let chunks = Policy::Static.chunks(n, p);
        let mut covered = 0;
        for c in &chunks {
            prop_assert_eq!(c.start, covered, "chunks must be disjoint and in order");
            prop_assert!(c.end > c.start);
            covered = c.end;
        }
        prop_assert_eq!(covered, n);
        let max_chunk = chunks.iter().map(std::ops::Range::len).max().unwrap_or(0);
        prop_assert_eq!(max_chunk, if n == 0 { 0 } else { n.div_ceil(p) });
        let speedup = Policy::Static.ideal_speedup(n, p);
        if n > 0 {
            let ideal = n as f64 / max_chunk as f64;
            prop_assert!((speedup - ideal).abs() < 1e-12);
            prop_assert!(speedup <= n.min(p) as f64 + 1e-12);
        }
    }

    /// Degenerate inputs (`p = 0`, `n = 0`, `p > n`) are total: no
    /// panic, no zero-length chunks, and the non-degenerate invariants
    /// still hold on whatever is returned.
    #[test]
    fn degenerate_inputs_never_emit_empty_chunks(n in 0usize..5_000, p in 0usize..512) {
        let chunks = chunk_bounds(n, p);
        prop_assert!(chunks.iter().all(|c| c.end > c.start));
        if n == 0 || p == 0 {
            prop_assert!(chunks.is_empty());
        } else {
            // p > n yields exactly n unit chunks, never padding.
            prop_assert_eq!(chunks.len(), n.min(p));
        }
        prop_assert_eq!(&Policy::Static.chunks(n, p), &chunks);
        prop_assert!(Policy::Static.ideal_speedup(n, p) >= 1.0 - 1e-12);
        for policy in [
            Policy::Static,
            Policy::Dynamic { chunk: 0 },
            Policy::Guided { min_chunk: 0 },
        ] {
            let pc = policy.chunks(n, p);
            prop_assert!(pc.iter().all(|c| c.end > c.start), "{:?}", policy);
            let covered: usize = pc.iter().map(std::ops::Range::len).sum();
            prop_assert_eq!(covered, if p == 0 { 0 } else { n }, "{:?}", policy);
        }
    }

    /// Every scheduling policy tiles the range.
    #[test]
    fn policies_tile(n in 0usize..2_000, p in 1usize..64, chunk in 1usize..50) {
        for policy in [
            Policy::Static,
            Policy::Dynamic { chunk },
            Policy::Guided { min_chunk: chunk },
        ] {
            let chunks = policy.chunks(n, p);
            let mut expect = 0;
            for c in &chunks {
                prop_assert_eq!(c.start, expect, "{:?}", policy);
                expect = c.end;
            }
            prop_assert_eq!(expect, n, "{:?}", policy);
        }
    }

    /// No policy's makespan beats the perfect split or exceeds serial.
    #[test]
    fn makespan_bounds(n in 1usize..2_000, p in 1usize..64, chunk in 1usize..50) {
        for policy in [
            Policy::Static,
            Policy::Dynamic { chunk },
            Policy::Guided { min_chunk: chunk },
        ] {
            let m = policy.ideal_makespan(n, p);
            prop_assert!(m >= n.div_ceil(p), "{:?}", policy);
            prop_assert!(m <= n, "{:?}", policy);
        }
    }

    /// Guided chunks shrink: each hand-out is no larger than the one
    /// before it (the remaining/p rule is monotone in the remaining
    /// work), and no chunk undercuts the `min_chunk` floor except the
    /// final remainder.
    #[test]
    fn guided_chunks_never_grow(n in 1usize..5_000, p in 1usize..64, min_chunk in 1usize..50) {
        let policy = Policy::Guided { min_chunk };
        let chunks = policy.chunks(n, p);
        for pair in chunks.windows(2) {
            prop_assert!(
                pair[1].len() <= pair[0].len(),
                "guided chunk grew: {:?} then {:?} (n={}, p={}, min={})",
                pair[0], pair[1], n, p, min_chunk
            );
        }
        // Every chunk honors the floor; only the last may be the
        // smaller remainder.
        for (i, c) in chunks.iter().enumerate() {
            if i + 1 < chunks.len() {
                prop_assert!(c.len() >= min_chunk, "{:?} under floor {}", c, min_chunk);
            }
        }
    }

    /// Guided scheduling covers every iteration exactly once, in
    /// order — the coverage contract a self-scheduled doacross region
    /// relies on.
    #[test]
    fn guided_chunks_cover_exactly_once(n in 0usize..5_000, p in 1usize..64, min_chunk in 1usize..50) {
        let chunks = Policy::Guided { min_chunk }.chunks(n, p);
        let mut expect = 0;
        for c in &chunks {
            prop_assert_eq!(c.start, expect, "gap or overlap before {:?}", c);
            prop_assert!(c.end > c.start, "empty chunk {:?}", c);
            expect = c.end;
        }
        prop_assert_eq!(expect, n, "iterations uncovered");
        // The hand-out count is what `scheduling_events` charges for.
        prop_assert_eq!(chunks.len(), Policy::Guided { min_chunk }.scheduling_events(n, p));
    }

    /// Guided degenerate inputs are total: `p = 0` and `n = 0` yield
    /// no chunks (no work, no hand-outs), and `p > n` still tiles
    /// without padding or empty chunks.
    #[test]
    fn guided_degenerate_inputs(n in 0usize..300, min_chunk in 0usize..8) {
        let policy = Policy::Guided { min_chunk };
        prop_assert!(policy.chunks(n, 0).is_empty());
        prop_assert!(policy.chunks(0, 7).is_empty());
        prop_assert_eq!(policy.ideal_makespan(n, 0), n);
        // p far beyond n: coverage still exact, chunks never empty.
        let oversubscribed = policy.chunks(n, n + 64);
        prop_assert!(oversubscribed.iter().all(|c| c.end > c.start));
        let covered: usize = oversubscribed.iter().map(std::ops::Range::len).sum();
        prop_assert_eq!(covered, n);
    }
}

proptest! {
    // Thread-spawning cases are more expensive; fewer of them.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// doacross visits every index exactly once for arbitrary sizes and
    /// worker counts.
    #[test]
    fn doacross_visits_once(n in 0usize..400, p in 1usize..6) {
        let w = Workers::new(p);
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        doacross(&w, n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// doacross_into equals the serial map.
    #[test]
    fn doacross_into_equals_serial(n in 0usize..400, p in 1usize..6, seed in 0u64..1000) {
        let w = Workers::new(p);
        let f = |i: usize| (i as u64).wrapping_mul(seed ^ 0x9E37).wrapping_add(7);
        let serial: Vec<u64> = (0..n).map(f).collect();
        let mut par = vec![0u64; n];
        doacross_into(&w, &mut par, f);
        prop_assert_eq!(serial, par);
    }

    /// doacross_slabs writes each slab with its own index, disjointly.
    #[test]
    fn slabs_disjoint(slabs in 1usize..40, slab_len in 1usize..16, p in 1usize..6) {
        let w = Workers::new(p);
        let mut data = vec![u32::MAX; slabs * slab_len];
        doacross_slabs(&w, &mut data, slab_len, |s, slab| {
            for v in slab.iter_mut() {
                *v = s as u32;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            prop_assert_eq!(v as usize, i / slab_len);
        }
    }

    /// Self-scheduled execution equals the serial map for arbitrary
    /// sizes, worker counts, and chunk parameters, at one sync event.
    #[test]
    fn dynamic_policies_equal_serial(
        n in 0usize..400,
        p in 1usize..6,
        chunk in 1usize..20,
        guided in 0usize..2,
        seed in 0u64..1000,
    ) {
        let w = Workers::new(p).with_policy(if guided == 1 {
            Policy::Guided { min_chunk: chunk }
        } else {
            Policy::Dynamic { chunk }
        });
        let f = |i: usize| (i as u64).wrapping_mul(seed ^ 0x51ED).wrapping_add(3);
        let serial: Vec<u64> = (0..n).map(f).collect();
        let mut par = vec![0u64; n];
        doacross_into(&w, &mut par, f);
        prop_assert_eq!(serial, par);
        prop_assert_eq!(w.sync_event_count(), u64::from(n > 0));
    }

    /// `doacross_slabs_zip` hands each chunk's whole run to one call:
    /// the runs are the policy's chunks, so they cover `0..n` exactly
    /// once, and each holds its slabs of both arrays contiguous and in
    /// order from its first slab.
    #[test]
    fn zip_runs_cover_once_in_order(
        n in 0usize..200,
        p in 1usize..5,
        kind in 0usize..3,
        chunk in 1usize..9,
        a_len in 1usize..4,
    ) {
        let policy = match kind {
            0 => Policy::Static,
            1 => Policy::Dynamic { chunk },
            _ => Policy::Guided { min_chunk: chunk },
        };
        let w = Workers::new(p).with_policy(policy);
        // Every element holds its own index, so a run shows where it
        // was cut from.
        let mut a: Vec<usize> = (0..n * a_len).collect();
        let mut b: Vec<usize> = (0..n).collect();
        let runs = Mutex::new(Vec::new());
        doacross_slabs_zip(&w, &mut a, a_len, &mut b, 1, |first, a_run, b_run| {
            let in_order = a_run.len() == a_len * b_run.len()
                && a_run.iter().enumerate().all(|(k, &v)| v == first * a_len + k)
                && b_run.iter().enumerate().all(|(k, &v)| v == first + k);
            runs.lock().unwrap().push((first..first + b_run.len(), in_order));
        });
        let mut runs = runs.into_inner().unwrap();
        runs.sort_by_key(|(run, _)| run.start);
        prop_assert!(runs.iter().all(|(_, in_order)| *in_order), "{:?} p={}", policy, p);
        let runs: Vec<_> = runs.into_iter().map(|(run, _)| run).collect();
        prop_assert_eq!(runs, policy.chunks(n, p), "{:?} p={}", policy, p);
        prop_assert_eq!(w.sync_event_count(), u64::from(n > 0));
    }
}
