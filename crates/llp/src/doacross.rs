//! Doacross parallel regions (paper Example 1).
//!
//! ```fortran
//! C$doacross local (L,J,K)
//!       DO 10 L=1,LMAX
//! ```
//! becomes [`doacross`]`(&workers, lmax, |l| …)`. Iterations are cut
//! into chunks by the team's scheduling [`Policy`] — static block
//! scheduling by default, so the measured behaviour matches the paper's
//! stair-step analysis — and each call records exactly one
//! synchronization event on the pool regardless of policy.
//!
//! Under [`Policy::Static`] a region has one task per chunk. Under
//! [`Policy::Dynamic`] or [`Policy::Guided`] the chunk list is still
//! computed up front, but chunks are *claimed* at runtime through the
//! pool's atomic [`ChunkClaimer`]: `min(P, chunks)` claimant tasks each
//! loop `while let Some(i) = claimer.claim_as(t)`. Claimant `t` starts
//! on the chunks of its own static share of `0..n` and steals from the
//! other claimants' shares only once its own is empty, so an idle
//! worker still takes the tail instead of waiting on the largest static
//! block, while a balanced loop keeps every iteration on the worker
//! that ran it in the previous region. A claimant is a task, not a
//! thread: on a busy or oversubscribed team one worker may run several
//! claimants one after another, the later ones finding the chunk list
//! already empty.
//!
//! Either way every chunk is executed exactly once, and its payload —
//! the mutable data pre-split along chunk boundaries before the region
//! starts — waits in one parked slot per chunk, taken by whichever task
//! runs the chunk. Both policies take payloads from the same store, and
//! the handoff needs no `unsafe` here (the crate's only `unsafe` is the
//! worker team's job dispatch, [`crate::pool`]'s `team` module).
//!
//! When the team's [`crate::obs::FlightRecorder`] is enabled, every
//! entry point opens a flight session for its region: each lane stamps
//! its chunk starts and ends and its claims, and the coordinator logs
//! the region's mark — loop extent, chunk count, policy — after the
//! barrier. The span report's region nodes are read from those marks
//! and timed from those stamps; no other clock is read. With the
//! recorder disabled (the default) there is no session: one branch per
//! region.

use crate::pool::{ChunkClaimer, Workers};
use crate::schedule::Policy;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// Execute `chunks` (the policy's cut of `0..n`) with one payload per
/// chunk as a single parallel region under the team's policy.
/// `work(chunk_index, payload, scratch)` runs once per chunk;
/// `make_scratch` runs once per executing task (chunk for static,
/// claimant for dynamic), preserving the paper's Example 3
/// per-worker-scratch semantics.
fn run_chunks<T: Send, S>(
    workers: &Workers,
    chunks: &[Range<usize>],
    payloads: impl Iterator<Item = T>,
    make_scratch: impl Fn() -> S + Sync,
    work: impl Fn(usize, T, &mut S) + Sync,
) {
    let Some(n) = chunks.last().map(|c| c.end) else {
        return;
    };
    // Whichever task runs chunk `ci` takes its payload out of slot `ci`,
    // so ownership moves to it without `unsafe`, exactly once.
    let parked: Vec<Mutex<Option<T>>> = payloads.map(|p| Mutex::new(Some(p))).collect();
    debug_assert_eq!(chunks.len(), parked.len());
    let flight = workers.flight().begin_region(
        workers.processors(),
        n as u64,
        chunks.len(),
        workers.policy().name(),
    );
    // The bodies below capture by value — the slot slice, the session
    // and references to the closures — so a helper starting a task
    // reads one closure, not a chain of the caller's stack slots.
    let (slots, session, work, make_scratch) = (&parked[..], flight.as_ref(), &work, &make_scratch);
    let run = move |ci: usize, scratch: &mut S| {
        let payload = slots[ci]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = payload {
            work(ci, payload, scratch);
        }
    };
    match workers.policy() {
        // One task per chunk, bound at region entry: the vendor
        // `C$doacross` behaviour the stair-step model assumes.
        Policy::Static => workers.region(chunks.len(), move |ci, lane| {
            if let Some(f) = session {
                f.chunk_start(lane);
            }
            run(ci, &mut make_scratch());
            if let Some(f) = session {
                f.chunk_end(lane, ci);
            }
        }),
        Policy::Dynamic { .. } | Policy::Guided { .. } => {
            // Self-scheduling: claimant tasks pull chunk indices from
            // the shared atomic counter until the list is exhausted.
            let claimants = workers.processors().min(chunks.len());
            let claimer = &ChunkClaimer::blocked(chunks, claimants);
            workers.region(claimants, move |ti, lane| {
                let mut scratch = make_scratch();
                // With the flight recorder on, every claim attempt is
                // timed on two clock reads per chunk: one when the claim
                // returns (the end of the claim wait *is* the chunk's
                // start; the final, losing attempt marks the lane's
                // claim miss instead) and one when the work does, where
                // the next claim starts.
                let mut claim_from = session.map_or(0, |f| f.now_ns());
                loop {
                    let ci = claimer.claim_as(ti);
                    if let Some(f) = session {
                        f.claimed(lane, claim_from, ci);
                    }
                    let Some(ci) = ci else { break };
                    run(ci, &mut scratch);
                    if let Some(f) = session {
                        claim_from = f.chunk_end(lane, ci);
                    }
                }
            });
        }
    }
    if let Some(f) = flight {
        f.finish();
    }
}

/// Split `data` along the chunk boundaries (in iteration units times
/// `stride` elements): piece `i` is chunk `i`'s share. Lazy, so the
/// pieces go straight into the region's parked payload slots.
fn split_chunks<'a, T>(
    chunks: &'a [Range<usize>],
    data: &'a mut [T],
    stride: usize,
) -> impl Iterator<Item = &'a mut [T]> {
    let mut rest = data;
    chunks.iter().map(move |chunk| {
        let (mine, tail) = std::mem::take(&mut rest).split_at_mut(chunk.len() * stride);
        rest = tail;
        mine
    })
}

/// Slab count of `data` cut into length-`slab_len` slabs.
///
/// # Panics
/// Panics if `slab_len == 0` or does not divide `data.len()`.
fn slab_count<T>(data: &[T], slab_len: usize) -> usize {
    assert!(slab_len > 0, "slab length must be positive");
    assert!(
        data.len().is_multiple_of(slab_len),
        "data length {} is not a multiple of slab length {}",
        data.len(),
        slab_len
    );
    data.len() / slab_len
}

/// Execute `body(i)` for every `i` in `0..n` as one parallel region
/// under the team's scheduling policy (static chunks by default): a
/// one-body [`FusedRegion::over`](crate::FusedRegion::over).
///
/// Exactly one synchronization event is recorded regardless of `n` —
/// outer-loop parallelization of a nest covers the whole nest per sync,
/// the crux of the paper's Table 2.
///
/// ```
/// use llp::{doacross, Workers};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let workers = Workers::new(4);
/// let sum = AtomicU64::new(0);
/// doacross(&workers, 100, |i| {
///     sum.fetch_add(i as u64, Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 4950);
/// assert_eq!(workers.sync_event_count(), 1);
/// ```
pub fn doacross(workers: &Workers, n: usize, body: impl Fn(usize) + Sync) {
    crate::FusedRegion::over(n).then(body).run(workers);
}

/// Execute `body(s, slab)` for every length-`slab_len` slab of `data`,
/// as one parallel region: a one-body, scratch-free
/// [`FusedRegion::slabs`](crate::FusedRegion::slabs).
///
/// This is the idiom for parallelizing the outer (L) loop of a field
/// update: with an L-slowest storage layout, each L-plane is one
/// contiguous slab, and the parallel loop hands disjoint planes to
/// disjoint workers. `data.len()` must be a multiple of `slab_len`.
///
/// # Panics
/// Panics if `slab_len == 0` or does not divide `data.len()`.
pub fn doacross_slabs<T: Send + Sync>(
    workers: &Workers,
    data: &mut [T],
    slab_len: usize,
    body: impl Fn(usize, &mut [T]) + Sync,
) {
    crate::FusedRegion::slabs(data, slab_len, || ())
        .body(|s, slab, ()| body(s, slab))
        .run(workers);
}

/// [`doacross_slabs`] with per-worker scratch: each executing task
/// creates its scratch once (paper Example 3) and reuses it across the
/// slabs it runs — per chunk under static scheduling, per claimant
/// under the dynamic policies.
///
/// # Panics
/// Panics if `slab_len == 0` or does not divide `data.len()`.
pub fn doacross_slabs_scratch<T: Send + Sync, S>(
    workers: &Workers,
    data: &mut [T],
    slab_len: usize,
    make_scratch: impl Fn() -> S + Sync,
    body: impl Fn(usize, &mut [T], &mut S) + Sync,
) {
    let n = slab_count(data, slab_len);
    let chunks = workers.policy().chunks(n, workers.processors());
    run_chunks(
        workers,
        &chunks,
        split_chunks(&chunks, data, slab_len),
        make_scratch,
        |ci, mine, scratch| {
            for (s, slab) in mine.chunks_mut(slab_len).enumerate() {
                body(chunks[ci].start + s, slab, scratch);
            }
        },
    );
}

/// [`doacross_slabs`] over two arrays at once, a chunk's whole run
/// per call: `body(first, a_run, b_run)` once per chunk, where the
/// chunk is slabs `first..first + k`, `a` is cut into
/// length-`a_slab_len` slabs and `b` into length-`b_slab_len` slabs
/// along the *same* chunk boundaries, and `a_run`/`b_run` are the
/// chunk's `k` slabs of each, contiguous — all as one parallel region
/// (one synchronization event).
///
/// This is the owner-computes idiom: whichever worker updates slabs of
/// `a` also produces the same slabs of `b` — per-row partials of a
/// reduction, say — while the rows are still in its cache, so no later
/// pass has to pull the whole of `a` back to one core; and because the
/// body sees the run, not one slab, it can work on several slabs side
/// by side. Folding the `b` slabs in index order afterwards gives a
/// reduction whose value does not depend on worker count or policy,
/// even for floating-point sums, as long as each `b` slab depends on
/// its own slab index alone.
///
/// # Panics
/// Panics if either slab length is zero or does not divide its array,
/// or if the two arrays hold different numbers of slabs.
pub fn doacross_slabs_zip<A: Send + Sync, B: Send + Sync>(
    workers: &Workers,
    a: &mut [A],
    a_slab_len: usize,
    b: &mut [B],
    b_slab_len: usize,
    body: impl Fn(usize, &mut [A], &mut [B]) + Sync,
) {
    let n = slab_count(a, a_slab_len);
    assert_eq!(
        n,
        slab_count(b, b_slab_len),
        "zipped arrays must hold the same number of slabs"
    );
    let chunks = workers.policy().chunks(n, workers.processors());
    run_chunks(
        workers,
        &chunks,
        split_chunks(&chunks, a, a_slab_len).zip(split_chunks(&chunks, b, b_slab_len)),
        || (),
        |ci, (a_run, b_run), (): &mut ()| body(chunks[ci].start, a_run, b_run),
    );
}

/// [`doacross_slabs`] over one-element slabs, storing `body(i)` in
/// `out[i]`: the tests' parallel map, checked against the serial one.
#[cfg(test)]
pub(crate) fn doacross_into<T: Send + Sync>(
    workers: &Workers,
    out: &mut [T],
    body: impl Fn(usize) -> T + Sync,
) {
    doacross_slabs(workers, out, 1, |i, slot| slot[0] = body(i));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::SpanKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn doacross_visits_every_index_once() {
        let w = Workers::new(4);
        let hits: Vec<AtomicUsize> = (0..103).map(|_| AtomicUsize::new(0)).collect();
        doacross(&w, hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn doacross_is_one_sync_event() {
        let w = Workers::new(4);
        doacross(&w, 1000, |_| {});
        assert_eq!(w.sync_event_count(), 1);
        doacross(&w, 0, |_| {}); // empty loop: no region at all
        assert_eq!(w.sync_event_count(), 1);
    }

    #[test]
    fn doacross_into_writes_results() {
        let w = Workers::new(3);
        let mut out = vec![0usize; 57];
        doacross_into(&w, &mut out, |i| i * i);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn doacross_into_empty_is_noop() {
        let w = Workers::new(2);
        let mut out: Vec<usize> = Vec::new();
        doacross_into(&w, &mut out, |i| i);
        assert_eq!(w.sync_event_count(), 0);
    }

    #[test]
    fn slabs_partition_data() {
        let w = Workers::new(4);
        let mut data = vec![0u32; 12 * 5];
        doacross_slabs(&w, &mut data, 5, |s, slab| {
            assert_eq!(slab.len(), 5);
            for v in slab.iter_mut() {
                *v = s as u32;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v as usize, i / 5);
        }
        assert_eq!(w.sync_event_count(), 1);
    }

    #[test]
    fn slabs_with_more_workers_than_slabs() {
        let w = Workers::new(8);
        let mut data = vec![1.0f64; 3 * 7];
        doacross_slabs(&w, &mut data, 7, |_, slab| {
            for v in slab.iter_mut() {
                *v *= 2.0;
            }
        });
        assert!(data.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn matches_serial_execution() {
        // The parallel result equals the serial result for a
        // dependency-free body — "if your code compiles, it typically
        // does the same thing it did before."
        let serial: Vec<f64> = (0..200).map(|i| (i as f64).sqrt().sin()).collect();
        let w = Workers::new(4);
        let mut par = vec![0.0f64; 200];
        doacross_into(&w, &mut par, |i| (i as f64).sqrt().sin());
        assert_eq!(serial, par);
    }

    #[test]
    fn slabs_scratch_reuses_per_chunk() {
        let w = Workers::new(4);
        let mut data = vec![0u64; 16 * 3];
        let creations = AtomicUsize::new(0);
        doacross_slabs_scratch(
            &w,
            &mut data,
            3,
            || {
                creations.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |s, slab, seen| {
                *seen += 1;
                for v in slab.iter_mut() {
                    *v = s as u64 * 100 + *seen;
                }
            },
        );
        assert_eq!(creations.load(Ordering::Relaxed), 4);
        // 16 slabs over 4 workers -> each chunk sees 4 slabs; the
        // scratch counts up within a chunk, proving reuse.
        assert_eq!(data[0], 1); // slab 0: first slab of chunk 1
        assert_eq!(data[3 * 3], 304); // slab 3: fourth slab of chunk 1
        assert_eq!(data[4 * 3], 401); // slab 4: first slab of chunk 2
        assert_eq!(w.sync_event_count(), 1);
    }

    #[test]
    fn recorded_doacross_captures_chunk_stats() {
        let w = Workers::recorded(4);
        doacross(&w, 103, |i| {
            std::hint::black_box((i as f64).sqrt());
        });
        let report = w.recorder().take_report("doacross", 4);
        assert_eq!(report.spans.len(), 1);
        let region = &report.spans[0];
        assert_eq!(region.kind, SpanKind::Region);
        assert_eq!(region.iterations, 103);
        assert_eq!(region.chunk_count, 4);
        assert!(region.chunk_max_seconds >= region.chunk_mean_seconds);
        assert_eq!(report.sync_events(), 1);
    }

    #[test]
    fn recorded_doacross_and_slabs_annotate_extent() {
        let w = Workers::recorded(3);
        doacross(&w, 30, |_| {});
        let mut data = vec![0u8; 5 * 4];
        doacross_slabs(&w, &mut data, 4, |_, _| {});
        let report = w.recorder().take_report("mixed", 3);
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.spans[0].iterations, 30);
        assert_eq!(report.spans[1].iterations, 5); // slab count, not bytes
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn slab_mismatch_panics() {
        let w = Workers::new(2);
        let mut data = vec![0u8; 10];
        doacross_slabs(&w, &mut data, 3, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "slab length must be positive")]
    fn zero_slab_panics() {
        let w = Workers::new(2);
        let mut data = vec![0u8; 10];
        doacross_slabs(&w, &mut data, 0, |_, _| {});
    }

    /// A team of `p` workers running under `policy`.
    fn team(p: usize, policy: Policy) -> Workers {
        Workers::new(p).with_policy(policy)
    }

    const POLICIES: [Policy; 4] = [
        Policy::Static,
        Policy::Dynamic { chunk: 1 },
        Policy::Dynamic { chunk: 7 },
        Policy::Guided { min_chunk: 2 },
    ];

    #[test]
    fn every_policy_visits_every_index_once() {
        for policy in POLICIES {
            for p in [1usize, 3, 4] {
                let w = team(p, policy);
                let hits: Vec<AtomicUsize> = (0..103).map(|_| AtomicUsize::new(0)).collect();
                doacross(&w, hits.len(), |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "{policy:?} p={p}"
                );
                // Self-scheduling still costs exactly one sync event.
                assert_eq!(w.sync_event_count(), 1, "{policy:?} p={p}");
            }
        }
    }

    #[test]
    fn every_policy_matches_serial_results_exactly() {
        let body = |i: usize| (i as f64).sqrt().sin() * (i as f64 + 0.5).cos();
        let serial: Vec<f64> = (0..211).map(body).collect();
        for policy in POLICIES {
            for p in [1usize, 2, 4] {
                let w = team(p, policy);
                let mut par = vec![0.0f64; 211];
                doacross_into(&w, &mut par, body);
                assert_eq!(serial, par, "{policy:?} p={p}");
            }
        }
    }

    #[test]
    fn every_policy_partitions_slabs_disjointly() {
        for policy in POLICIES {
            let w = team(4, policy);
            let mut data = vec![0u32; 17 * 3];
            doacross_slabs(&w, &mut data, 3, |s, slab| {
                for v in slab.iter_mut() {
                    *v += 1 + s as u32;
                }
            });
            for (i, &v) in data.iter().enumerate() {
                // Each element written exactly once by its slab index.
                assert_eq!(v as usize, 1 + i / 3, "{policy:?}");
            }
        }
    }

    #[test]
    fn zip_visits_every_slab_pair_once_with_matching_index() {
        // n not divisible by P, n < P and n = 0, at two slab lengths.
        for policy in POLICIES {
            for (n, p) in [(17usize, 4usize), (103, 3), (3, 8), (1, 2), (0, 4)] {
                let w = team(p, policy);
                let mut a = vec![0u32; n * 5];
                let mut b = vec![0u64; n * 2];
                doacross_slabs_zip(&w, &mut a, 5, &mut b, 2, |first, a_run, b_run| {
                    assert_eq!(a_run.len() / 5, b_run.len() / 2);
                    for (s, a_slab) in (first..).zip(a_run.chunks_exact_mut(5)) {
                        for v in a_slab.iter_mut() {
                            *v += 1 + s as u32;
                        }
                    }
                    for (s, b_slab) in (first..).zip(b_run.chunks_exact_mut(2)) {
                        for v in b_slab.iter_mut() {
                            *v += 1000 + s as u64;
                        }
                    }
                });
                // `+=` from zero: a slab visited twice, or under the
                // wrong index, cannot produce these values.
                for (i, &v) in a.iter().enumerate() {
                    assert_eq!(v as usize, 1 + i / 5, "{policy:?} n={n} p={p}");
                }
                for (i, &v) in b.iter().enumerate() {
                    assert_eq!(v as usize, 1000 + i / 2, "{policy:?} n={n} p={p}");
                }
                // One region, one sync event; none for an empty loop.
                assert_eq!(w.sync_event_count(), u64::from(n > 0), "{policy:?} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "same number of slabs")]
    fn zip_length_mismatch_panics() {
        let w = Workers::new(2);
        let (mut a, mut b) = (vec![0u8; 12], vec![0u8; 5]);
        doacross_slabs_zip(&w, &mut a, 3, &mut b, 1, |_, _, _| {});
    }

    #[test]
    fn dynamic_scratch_is_per_claimant() {
        // 20 slabs, chunk=1 → 20 chunks, but only min(p, chunks) = 4
        // claimants, so at most 4 scratch creations (fewer if a fast
        // claimant drains the queue first) — never one per chunk.
        let w = team(4, Policy::Dynamic { chunk: 1 });
        let mut data = vec![0u64; 20 * 2];
        let creations = AtomicUsize::new(0);
        doacross_slabs_scratch(
            &w,
            &mut data,
            2,
            || {
                creations.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |_, slab, count| {
                *count += 1;
                for v in slab.iter_mut() {
                    *v += 1;
                }
            },
        );
        let made = creations.load(Ordering::Relaxed);
        assert!((1..=4).contains(&made), "scratch creations: {made}");
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn dynamic_recorded_regions_time_claimants() {
        let w = Workers::recorded(3).with_policy(Policy::Dynamic { chunk: 5 });
        doacross(&w, 60, |i| {
            std::hint::black_box((i as f64).sqrt());
        });
        let report = w.recorder().take_report("dyn", 3);
        let region = &report.spans[0];
        assert_eq!(region.iterations, 60);
        // 12 chunks but only 3 claimants: the count is of claimants.
        assert_eq!(region.chunk_count, 3);
        assert_eq!(report.sync_events(), 1);
    }
}
