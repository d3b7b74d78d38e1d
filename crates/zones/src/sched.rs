//! The sharded zone step: one region of an [`llp::Workers`] team over
//! the zones of a J-chain, then the chain's exchanges in order.

use llp::{FlightRecorder, Workers};
use std::sync::{Mutex, PoisonError};

/// What one sharded step did — deterministic, derived from the zone
/// count and the shard count alone, so it can ride on cached solve
/// responses without breaking content-addressed reuse. On a chain of
/// `n` zones every zone is ready at once (`peak_ready` = `n`), and the
/// `n − 1` exchanges each wait for the one before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepStats {
    /// Zone shards the step dispatched over (after clamping).
    pub shards: usize,
    /// Each zone's even share of the pool's workers,
    /// `processors / shards` (at least 1). Zones do not own their
    /// share: a zone's loops run on the whole pool and take whichever
    /// helpers the other zones leave free.
    pub loop_workers: usize,
    /// Compute tasks executed (one per zone).
    pub zone_tasks: u64,
    /// Exchange tasks executed (one per adjacent pair).
    pub exchange_tasks: u64,
    /// Waves in the serialized exchange tail (one per exchange).
    pub exchange_waves: u64,
    /// Peak simultaneously-ready tasks — the step's `U_zones`.
    pub peak_ready: u64,
}

/// Dispatch one step's zones across `shards` zone shards, then apply
/// the chain's exchanges with [`exchange_chain`].
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
/// coordinator thread); instead, every compute task brackets itself
/// with zone start/end events on the **pool's** recorder, on the team
/// lane that ran it, so a drained timeline shows zone occupancy per
/// thread. After the barrier, the exchanges run on the calling thread
/// in chain order, so the result is bit-identical to the sequential
/// sweep for every shard count.
///
/// `shards` is clamped to `1..=blocks.len()`; the clamped value is
/// reported in the returned [`StepStats`], whose `loop_workers` is each
/// zone's even share of the pool, `pool.processors() / shards`.
///
/// # Panics
/// Panics if `blocks` is empty. A panicking compute task is re-raised
/// with its own payload — when the region is wider than one worker,
/// only after every other block has run — and no exchange is applied.
pub fn run_sharded<Z, C, X>(
    pool: &Workers,
    shards: usize,
    step: u64,
    blocks: &mut [Z],
    compute: C,
    exchange: X,
) -> StepStats
where
    Z: Send,
    C: Fn(usize, &Workers, &mut Z) + Sync,
    X: FnMut(usize, &mut Z, &mut Z),
{
    assert!(!blocks.is_empty(), "a zone chain needs at least one zone");
    let shards = shards.clamp(1, blocks.len());
    let loop_workers = (pool.processors() / shards).max(1);
    let flight = pool.flight();
    let zone_level = pool.sized_view(shards);
    let mut loops = pool.kernel_view(pool.processors(), pool.policy());
    loops.set_flight(FlightRecorder::disabled());
    let parked: Vec<Mutex<&mut Z>> = blocks.iter_mut().map(Mutex::new).collect();
    zone_level.region(parked.len(), |b, lane| {
        flight.zone_start(lane, b as u64, step);
        let mut block = parked[b].lock().unwrap_or_else(PoisonError::into_inner);
        compute(b, &loops, &mut block);
        flight.zone_end(lane, b as u64, step);
    });
    exchange_chain(blocks, exchange);
    let zones = blocks.len() as u64;
    StepStats {
        shards,
        loop_workers,
        zone_tasks: zones,
        exchange_tasks: zones - 1,
        exchange_waves: zones - 1,
        peak_ready: zones,
    }
}

/// The chain's exchanges in order: `exchange(i, &mut blocks[i], &mut
/// blocks[i + 1])` for `i` in `0..blocks.len() - 1`. Each exchange
/// shares a zone with the next, so this is the one order there is.
pub fn exchange_chain<Z>(blocks: &mut [Z], mut exchange: impl FnMut(usize, &mut Z, &mut Z)) {
    for i in 1..blocks.len() {
        let (up, down) = blocks.split_at_mut(i);
        exchange(i - 1, &mut up[i - 1], &mut down[0]);
    }
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

    /// The sequential sweep, written out: every zone in order, then
    /// every adjacent pair in chain order.
    fn reference(n: usize) -> Vec<u64> {
        let mut blocks: Vec<u64> = (0..n as u64).map(|b| b + 1).collect();
        for (b, z) in blocks.iter_mut().enumerate() {
            mix(z, b as u64);
        }
        for i in 0..n - 1 {
            let down = blocks[i + 1];
            mix(&mut blocks[i], down ^ i as u64);
            let up = blocks[i];
            mix(&mut blocks[i + 1], up);
        }
        blocks
    }

    #[test]
    fn sequential_and_sharded_agree_for_every_shard_count() {
        let pool = Workers::new(2);
        for blocks_n in 1..=6 {
            let want = reference(blocks_n);
            for shards in 1..=blocks_n + 2 {
                let mut blocks: Vec<u64> = (0..blocks_n as u64).map(|b| b + 1).collect();
                let stats = run_sharded(
                    &pool,
                    shards,
                    0,
                    &mut blocks,
                    |b, _w, z| mix(z, b as u64),
                    |i, a, b| {
                        mix(a, *b ^ i as u64);
                        mix(b, *a);
                    },
                );
                assert_eq!(blocks, want, "blocks={blocks_n} shards={shards}");
                let n = blocks_n as u64;
                assert_eq!(
                    stats,
                    StepStats {
                        shards: shards.clamp(1, blocks_n),
                        loop_workers: (2 / shards.clamp(1, blocks_n)).max(1),
                        zone_tasks: n,
                        exchange_tasks: n - 1,
                        exchange_waves: n - 1,
                        peak_ready: n,
                    },
                    "blocks={blocks_n} shards={shards}"
                );
            }
        }
    }

    #[test]
    fn sharded_splits_the_pool_between_levels() {
        let pool = Workers::new(4);
        let mut blocks = vec![0u64; 4];
        let stats = run_sharded(
            &pool,
            2,
            0,
            &mut blocks,
            |_, w, z| *z = w.processors() as u64,
            |_, _, _| {},
        );
        assert_eq!(stats.shards, 2);
        // The even share is reported; the zones' loops see the whole
        // pool and share its helpers region by region.
        assert_eq!(stats.loop_workers, 2);
        assert_eq!(blocks, vec![4, 4, 4, 4]);
        assert_eq!(stats.peak_ready, 4);
        assert_eq!(stats.exchange_waves, 3);
    }

    #[test]
    fn a_panicking_zone_is_reraised_after_the_others_ran() {
        let pool = Workers::new(2);
        let step = |blocks: &mut Vec<u64>, faulty: Option<usize>| {
            run_sharded(
                &pool,
                2,
                0,
                blocks,
                |b, _, z| {
                    assert!(Some(b) != faulty, "zone one fails");
                    mix(z, b as u64);
                },
                |i, a, b| {
                    mix(a, *b ^ i as u64);
                    mix(b, *a);
                },
            )
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
        // any exchange)...
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
        run_sharded(
            &pool,
            3,
            0,
            &mut blocks,
            |_, w, z| {
                w.region(1, |_, _| {});
                *z = 1;
            },
            |_, _, _| {},
        );
        assert_eq!(pool.local_sync_event_count() - before, 3);
    }

    #[test]
    fn sharded_records_zone_events_per_team_lane() {
        let mut pool = Workers::new(2);
        pool.set_flight(FlightRecorder::enabled(2, 64));
        let mut blocks = vec![0u64; 3];
        run_sharded(&pool, 2, 7, &mut blocks, |_, _, z| *z += 1, |_, _, _| {});
        let timeline = pool.flight().take_timeline();
        let mut starts = 0;
        let mut ends = 0;
        for lane in &timeline.lanes {
            for e in &lane.events {
                match e.kind {
                    llp::obs::EventKind::ZoneStart => {
                        starts += 1;
                        assert_eq!(e.region, 7, "zone events carry the step index");
                    }
                    llp::obs::EventKind::ZoneEnd => ends += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(starts, 3, "one start per block");
        assert_eq!(ends, 3, "one end per block");
    }
}
