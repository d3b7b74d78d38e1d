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
//! Under [`Policy::Dynamic`] or [`Policy::Guided`] the chunk list is
//! still computed up front, but chunks are *claimed* at runtime through
//! the pool's atomic [`ChunkClaimer`]: `min(P, chunks)` claimant tasks
//! each loop `while let Some(i) = claimer.claim_as(t)`. Claimant `t`
//! starts on the chunks of its own static share of `0..n` and steals
//! from the other claimants' shares only once its own is empty, so an
//! idle worker still takes the tail instead of waiting on the largest
//! static block, while a balanced loop keeps every iteration on the
//! worker that ran it in the previous region. Every
//! chunk is still executed exactly once, and mutable data is pre-split
//! along chunk boundaries before the region starts, so the handoff
//! needs no `unsafe` here (the crate's only `unsafe` is the worker
//! team's job dispatch, [`crate::pool`]'s `team` module). A claimant is
//! a task, not a thread: on a busy or oversubscribed team one worker
//! may run several claimants one after another, the later ones finding
//! the chunk list already empty.
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
    payloads: Vec<T>,
    make_scratch: impl Fn() -> S + Sync,
    work: impl Fn(usize, T, &mut S) + Sync,
) {
    debug_assert_eq!(chunks.len(), payloads.len());
    let Some(n) = chunks.last().map(|c| c.end) else {
        return;
    };
    let flight = workers.flight().begin_region(
        workers.processors(),
        n as u64,
        payloads.len(),
        workers.policy().name(),
    );
    let session = &flight;
    match workers.policy() {
        Policy::Static => {
            // One task per chunk, bound at region entry: the vendor
            // `C$doacross` behaviour the stair-step model assumes.
            workers.region(|scope| {
                let work = &work;
                let make_scratch = &make_scratch;
                for (ci, payload) in payloads.into_iter().enumerate() {
                    scope.spawn_on_lane(move |lane| {
                        if let Some(f) = session {
                            f.chunk_start(lane, ci);
                        }
                        let mut scratch = make_scratch();
                        work(ci, payload, &mut scratch);
                        if let Some(f) = session {
                            f.chunk_end(lane, ci);
                        }
                    });
                }
            });
        }
        Policy::Dynamic { .. } | Policy::Guided { .. } => {
            // Self-scheduling: claimant tasks pull chunk indices from
            // the shared atomic counter until the list is exhausted.
            // Payloads are parked in per-chunk slots so ownership moves
            // to whichever claimant wins the index — no `unsafe`, and
            // each chunk is taken exactly once.
            let claimants = workers.processors().min(payloads.len());
            let claimer = ChunkClaimer::blocked(chunks, claimants);
            let parked: Vec<Mutex<Option<T>>> =
                payloads.into_iter().map(|p| Mutex::new(Some(p))).collect();
            workers.region(|scope| {
                let work = &work;
                let make_scratch = &make_scratch;
                let claimer = &claimer;
                let parked = &parked;
                for ti in 0..claimants {
                    scope.spawn_on_lane(move |lane| {
                        let mut scratch = make_scratch();
                        // With the flight recorder on, every claim attempt
                        // is timed on two clock reads per chunk: one when
                        // the claim returns (the end of the claim wait
                        // *is* the chunk's start; the final, losing
                        // attempt marks the lane's claim miss instead)
                        // and one when the work does, where the next
                        // claim starts.
                        let mut claim_from = session.as_ref().map_or(0, |f| f.now_ns());
                        loop {
                            let ci = claimer.claim_as(ti);
                            if let Some(f) = session {
                                f.claimed(lane, claim_from, ci);
                            }
                            let Some(ci) = ci else { break };
                            let payload = parked[ci]
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .take();
                            if let Some(payload) = payload {
                                work(ci, payload, &mut scratch);
                            }
                            if let Some(f) = session {
                                claim_from = f.chunk_end(lane, ci);
                            }
                        }
                    });
                }
            });
        }
    }
    if let Some(f) = flight {
        f.finish();
    }
}

/// Split `data` along the chunk boundaries (in iteration units times
/// `stride` elements): piece `i` is chunk `i`'s share. Lazy, so a
/// caller zipping two splits collects one payload list, not three.
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
/// under the team's scheduling policy (static chunks by default).
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
    let chunks = workers.policy().chunks(n, workers.processors());
    run_chunks(
        workers,
        &chunks,
        vec![(); chunks.len()],
        || (),
        |ci, (), (): &mut ()| {
            for i in chunks[ci].clone() {
                body(i);
            }
        },
    );
}

/// Execute `body(i)` for every `i` in `0..out.len()`, storing the result
/// in `out[i]`, as one parallel region.
///
/// The output slice is partitioned along the chunk boundaries so every
/// worker writes a disjoint contiguous range — the shared-memory
/// analogue of `C$doacross` writing an array indexed by the parallel
/// loop variable. This holds under every scheduling policy: dynamic
/// claimants receive disjoint pre-split pieces.
pub fn doacross_into<T: Send>(workers: &Workers, out: &mut [T], body: impl Fn(usize) -> T + Sync) {
    let chunks = workers.policy().chunks(out.len(), workers.processors());
    let payloads = split_chunks(&chunks, out, 1).collect();
    run_chunks(
        workers,
        &chunks,
        payloads,
        || (),
        |ci, mine, (): &mut ()| {
            for (off, out_slot) in mine.iter_mut().enumerate() {
                *out_slot = body(chunks[ci].start + off);
            }
        },
    );
}

/// Execute `body(s, slab)` for every length-`slab_len` slab of `data`,
/// as one parallel region.
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
    doacross_slabs_scratch(
        workers,
        data,
        slab_len,
        || (),
        |s, slab, (): &mut ()| {
            body(s, slab);
        },
    );
}

/// A doacross with a reduction: `map(i)` is evaluated for every `i` in
/// `0..n` and the results combined with `combine`, seeded per chunk
/// with `identity`. One parallel region, one synchronization event.
///
/// Per-chunk partials are folded in chunk-index order after the
/// barrier, so for a given `n` and team the result is deterministic
/// under every scheduling policy. `combine` must still be associative
/// and commutative with `identity` as its neutral element — chunk
/// shapes differ across worker counts and policies, so floating-point
/// sums can differ by round-off between configurations. When bitwise
/// reproducibility across worker counts is required, use a max/min
/// style reduction (as the solver's residual monitors do), or make the
/// partials independent of the chunking: one per iteration, written by
/// [`doacross_slabs_zip`] or [`doacross_into`] and folded in index
/// order afterwards (as the FDTD energy history does).
///
/// ```
/// use llp::{doacross_reduce, Workers};
/// let workers = Workers::new(4);
/// let max = doacross_reduce(&workers, 1000, f64::NEG_INFINITY,
///     |i| (i as f64 * 0.37).sin(),
///     f64::max);
/// assert!(max <= 1.0 && max > 0.99);
/// ```
pub fn doacross_reduce<T: Send + Clone>(
    workers: &Workers,
    n: usize,
    identity: T,
    map: impl Fn(usize) -> T + Sync,
    combine: impl Fn(T, T) -> T + Sync,
) -> T {
    if n == 0 {
        return identity;
    }
    let chunks = workers.policy().chunks(n, workers.processors());
    let partials: Vec<Mutex<Option<T>>> = (0..chunks.len()).map(|_| Mutex::new(None)).collect();
    run_chunks(
        workers,
        &chunks,
        // Seeds ride in the payloads so the tasks never share `identity`.
        vec![identity.clone(); chunks.len()],
        || (),
        |ci, seed, (): &mut ()| {
            let mut acc = seed;
            for i in chunks[ci].clone() {
                acc = combine(acc, map(i));
            }
            *partials[ci].lock().unwrap_or_else(PoisonError::into_inner) = Some(acc);
        },
    );
    partials
        .into_iter()
        .map(|p| {
            p.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every chunk ran")
        })
        .fold(identity, combine)
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
    let payloads = split_chunks(&chunks, data, slab_len).collect();
    run_chunks(
        workers,
        &chunks,
        payloads,
        make_scratch,
        |ci, mine, scratch| {
            for (s, slab) in mine.chunks_mut(slab_len).enumerate() {
                body(chunks[ci].start + s, slab, scratch);
            }
        },
    );
}

/// [`doacross_slabs`] over two arrays at once: `body(s, a_slab, b_slab)`
/// for every slab index `s`, with `a` cut into length-`a_slab_len` slabs
/// and `b` into length-`b_slab_len` slabs along the *same* chunk
/// boundaries, as one parallel region (one synchronization event).
///
/// This is the owner-computes idiom: whichever worker updates slab `s`
/// of `a` also produces slab `s` of `b` — a per-row partial of a
/// reduction, say — while the row is still in its cache, so no later
/// pass has to pull the whole of `a` back to one core. Folding the `b`
/// slabs in index order afterwards gives a reduction whose value does
/// not depend on worker count or policy (what [`doacross_reduce`] cannot
/// promise for floating-point sums).
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
    let payloads = split_chunks(&chunks, a, a_slab_len)
        .zip(split_chunks(&chunks, b, b_slab_len))
        .collect();
    run_chunks(
        workers,
        &chunks,
        payloads,
        || (),
        |ci, (mine_a, mine_b), (): &mut ()| {
            let slabs = mine_a
                .chunks_mut(a_slab_len)
                .zip(mine_b.chunks_mut(b_slab_len));
            for (s, (a_slab, b_slab)) in slabs.enumerate() {
                body(chunks[ci].start + s, a_slab, b_slab);
            }
        },
    );
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
    fn reduce_sums_and_maxes() {
        let w = Workers::new(4);
        let sum = doacross_reduce(&w, 101, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(sum, 5050);
        let max = doacross_reduce(&w, 57, i32::MIN, |i| -(i as i32 - 30).abs(), i32::max);
        assert_eq!(max, 0); // i = 30
        assert_eq!(w.sync_event_count(), 2);
    }

    #[test]
    fn reduce_empty_is_identity() {
        let w = Workers::new(3);
        assert_eq!(doacross_reduce(&w, 0, 42u32, |_| 7, |a, b| a + b), 42);
        assert_eq!(w.sync_event_count(), 0);
    }

    #[test]
    fn reduce_max_is_worker_count_independent() {
        // max-style reductions are bitwise reproducible across teams.
        let f = |i: usize| ((i * 2654435761) % 1000) as f64 / 7.0;
        let results: Vec<f64> = [1usize, 2, 3, 5]
            .iter()
            .map(|&p| {
                let w = Workers::new(p);
                doacross_reduce(&w, 500, f64::NEG_INFINITY, f, f64::max)
            })
            .collect();
        assert!(results.windows(2).all(|x| x[0] == x[1]));
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
    fn recorded_reduce_and_slabs_annotate_extent() {
        let w = Workers::recorded(3);
        let _ = doacross_reduce(&w, 30, 0u64, |i| i as u64, |a, b| a + b);
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
                doacross_slabs_zip(&w, &mut a, 5, &mut b, 2, |s, a_slab, b_slab| {
                    assert_eq!((a_slab.len(), b_slab.len()), (5, 2));
                    for v in a_slab.iter_mut() {
                        *v += 1 + s as u32;
                    }
                    for v in b_slab.iter_mut() {
                        *v += 1000 + s as u64;
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
    fn reduce_is_deterministic_under_dynamic_policies() {
        // Partials fold in chunk-index order, so repeated runs of the
        // same configuration agree bitwise even though chunk-to-worker
        // assignment is racy.
        let map = |i: usize| ((i * 2654435761) % 1000) as f64 / 7.0;
        for policy in POLICIES {
            let w = team(4, policy);
            let first = doacross_reduce(&w, 500, f64::NEG_INFINITY, map, f64::max);
            for _ in 0..5 {
                let again = doacross_reduce(&w, 500, f64::NEG_INFINITY, map, f64::max);
                assert_eq!(first, again, "{policy:?}");
            }
            // And max-reductions agree across policies too.
            let st = team(4, Policy::Static);
            assert_eq!(
                first,
                doacross_reduce(&st, 500, f64::NEG_INFINITY, map, f64::max)
            );
        }
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
