//! The zone level above the loop level: one step's zones as one region
//! of the worker team.
//!
//! The paper parallelizes *inner* loops precisely because its zone
//! counts were too small to feed 30–128 processors (Section 2). When
//! the zone count is *not* small, a second level of parallelism opens
//! up: within a time step the zones are independent, so they can run
//! concurrently, each still running its inner doacross loops on the
//! team. Taft's MLP work (paper Section 8) multiplies usable
//! parallelism to `U_zones × U_loops`; [`run_sharded`] realizes the
//! product. Whatever the zones exchange after a step is the caller's:
//! this module knows nothing of how they are connected.

use crate::{FlightRecorder, Workers};
use std::sync::{Mutex, PoisonError};

/// Run one step's zones across `shards` zone shards of `pool`, and
/// return the clamped shard count.
///
/// The zones are one region of `pool`'s worker team, `shards` lanes
/// wide (at most the pool's width): one task per block, claimed by the
/// team in index order, so up to `shards` zones run at once; each block
/// is parked behind a lock, like a doacross chunk's payload. Each
/// zone's own loops run on a view of the whole pool that shares its
/// local counter — the caller's synchronization-event bill covers every
/// loop region the zones ran — and enlists whichever helpers no other
/// zone is using, so the team is shared between the two levels region
/// by region (`U_zones × U_loops`) rather than split into fixed slices.
/// The zone region's own barrier is the step barrier; it bills the
/// pool-wide counter only. It is a bare region, so it logs no region
/// mark, and inside the zones the recorder is off (its log assumes one
/// coordinator thread); instead, every zone records one zone interval
/// on the **pool's** recorder, on the team lane that ran it, with
/// `step` as its region, so a drained timeline shows zone occupancy per
/// thread.
///
/// `shards` is clamped to `1..=blocks.len()`.
///
/// # Panics
/// Panics if `blocks` is empty. A panicking zone is re-raised with its
/// own payload — when the region is wider than one worker, only after
/// every other block has run.
pub fn run_sharded<Z, C>(
    pool: &Workers,
    shards: usize,
    step: u64,
    blocks: &mut [Z],
    compute: C,
) -> usize
where
    Z: Send,
    C: Fn(usize, &Workers, &mut Z) + Sync,
{
    assert!(!blocks.is_empty(), "a zone step needs at least one zone");
    let shards = shards.clamp(1, blocks.len());
    let flight = pool.flight();
    let zone_level = pool.sized_view(shards);
    let mut loops = pool.kernel_view(pool.processors(), pool.policy());
    loops.set_flight(FlightRecorder::disabled());
    let parked: Vec<Mutex<&mut Z>> = blocks.iter_mut().map(Mutex::new).collect();
    zone_level.region(parked.len(), |b, lane| {
        flight.zone(lane, b as u64, step, || {
            let mut block = parked[b].lock().unwrap_or_else(PoisonError::into_inner);
            compute(b, &loops, &mut block);
        });
    });
    shards
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately non-commutative update over integer blocks: an
    /// exchange out of chain order, or one applied before its zones
    /// stepped, changes the result.
    fn mix(state: &mut u64, with: u64) {
        *state = state
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17)
            .wrapping_add(with);
    }

    /// A J-chain's exchanges in order, `0→1`, `1→2`, …, as a caller
    /// applies them after the zone region's barrier.
    fn chain_exchanges(blocks: &mut [u64]) {
        for i in 1..blocks.len() {
            let down = blocks[i];
            mix(&mut blocks[i - 1], down ^ (i - 1) as u64);
            let up = blocks[i - 1];
            mix(&mut blocks[i], up);
        }
    }

    /// The sequential sweep: every zone in order, then the chain.
    fn reference(n: usize) -> Vec<u64> {
        let mut blocks: Vec<u64> = (0..n as u64).map(|b| b + 1).collect();
        for (b, z) in blocks.iter_mut().enumerate() {
            mix(z, b as u64);
        }
        chain_exchanges(&mut blocks);
        blocks
    }

    #[test]
    fn sequential_and_sharded_agree_for_every_shard_count() {
        let pool = Workers::new(2);
        for blocks_n in 1..=6 {
            let want = reference(blocks_n);
            for shards in 1..=blocks_n + 2 {
                let mut blocks: Vec<u64> = (0..blocks_n as u64).map(|b| b + 1).collect();
                let clamped =
                    run_sharded(&pool, shards, 0, &mut blocks, |b, _w, z| mix(z, b as u64));
                chain_exchanges(&mut blocks);
                assert_eq!(blocks, want, "blocks={blocks_n} shards={shards}");
                assert_eq!(
                    clamped,
                    shards.clamp(1, blocks_n),
                    "blocks={blocks_n} shards={shards}"
                );
            }
        }
    }

    #[test]
    fn sharded_splits_the_pool_between_levels() {
        let pool = Workers::new(4);
        let mut blocks = vec![0u64; 4];
        let shards = run_sharded(&pool, 2, 0, &mut blocks, |_, w, z| {
            *z = w.processors() as u64;
        });
        assert_eq!(shards, 2);
        // The zones' loops see the whole pool and share its helpers
        // region by region.
        assert_eq!(blocks, vec![4, 4, 4, 4]);
    }

    #[test]
    fn a_panicking_zone_is_reraised_after_the_others_ran() {
        let pool = Workers::new(2);
        let step = |blocks: &mut Vec<u64>, faulty: Option<usize>| {
            run_sharded(&pool, 2, 0, blocks, |b, _, z| {
                assert!(Some(b) != faulty, "zone one fails");
                mix(z, b as u64);
            });
            chain_exchanges(blocks);
        };
        let start: Vec<u64> = (1..=4).collect();
        let mut blocks = start.clone();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            step(&mut blocks, Some(1));
        }));
        // The block's own payload, not a generic "a thread panicked"...
        let payload = outcome.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"zone one fails"));
        // ...raised only after every other block had run (and before
        // the caller's exchanges)...
        for b in [0, 2, 3] {
            let mut want = start[b];
            mix(&mut want, b as u64);
            assert_eq!(blocks[b], want, "block {b}");
        }
        assert_eq!(blocks[1], start[1]);
        // ...and the next step on the same pool is exact.
        let mut blocks = start;
        step(&mut blocks, None);
        assert_eq!(blocks, reference(4));
    }

    #[test]
    fn sharded_bills_sync_events_on_the_pool() {
        let pool = Workers::new(2);
        let before = pool.local_sync_event_count();
        let mut blocks = vec![0u64; 3];
        run_sharded(&pool, 3, 0, &mut blocks, |_, w, z| {
            w.region(1, |_, _| {});
            *z = 1;
        });
        assert_eq!(pool.local_sync_event_count() - before, 3);
    }

    #[test]
    fn sharded_records_zone_events_per_team_lane() {
        let mut pool = Workers::new(2);
        pool.set_flight(FlightRecorder::enabled(2, 64));
        let mut blocks = vec![0u64; 3];
        run_sharded(&pool, 2, 7, &mut blocks, |_, _, z| *z += 1);
        let timeline = pool.flight().take_timeline();
        let zones: Vec<_> = timeline.lanes.iter().flat_map(|l| &l.events).collect();
        // One interval per zone task, carrying the step index.
        let mut blocks: Vec<u64> = zones.iter().map(|e| e.arg).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, [0, 1, 2], "one interval per block");
        for e in zones {
            assert_eq!(e.kind(), crate::obs::EventKind::Zone);
            assert_eq!(e.region(), 7, "zone intervals carry the step index");
        }
    }
}
