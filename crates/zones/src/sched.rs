//! Executing a step DAG: sequential sweep, explicit-order replay, and
//! sharded dispatch as one region of an [`llp::Workers`] team.

use llp::{FlightRecorder, Workers};

use crate::dag::{StepDag, Task};
use crate::topology::Topology;

/// What one sharded step did — deterministic, derived from the
/// topology and the shard count alone, so it can ride on cached solve
/// responses without breaking content-addressed reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepStats {
    /// Zone shards the step dispatched over (after clamping).
    pub shards: usize,
    /// Each zone's even share of the pool's workers,
    /// `processors / shards` (at least 1). Zones do not own their
    /// share: a zone's loops run on the whole pool and take whichever
    /// helpers the other zones leave free.
    pub loop_workers: usize,
    /// Compute tasks executed (one per block).
    pub zone_tasks: u64,
    /// Exchange tasks executed (one per interface).
    pub exchange_tasks: u64,
    /// Waves in the serialized exchange tail.
    pub exchange_waves: u64,
    /// Peak simultaneously-ready tasks — the step's `U_zones`.
    pub peak_ready: u64,
}

impl StepStats {
    fn new(topo: &Topology, shards: usize, loop_workers: usize) -> Self {
        let dag = StepDag::build(topo);
        Self {
            shards,
            loop_workers,
            zone_tasks: topo.blocks() as u64,
            exchange_tasks: topo.interfaces().len() as u64,
            exchange_waves: dag.exchange_waves() as u64,
            peak_ready: dag.peak_ready() as u64,
        }
    }
}

/// The canonical sequential sweep: computes in block order, then
/// exchanges in interface order — the order every zonal solver has
/// always used, and always a topological order of the step DAG.
///
/// # Panics
/// Panics if `blocks.len() != topo.blocks()`.
pub fn run_sequential<Z>(
    blocks: &mut [Z],
    topo: &Topology,
    mut compute: impl FnMut(usize, &mut Z),
    mut exchange: impl FnMut(usize, &mut Z, &mut Z),
) {
    assert_eq!(blocks.len(), topo.blocks(), "one block per topology node");
    for (b, block) in blocks.iter_mut().enumerate() {
        compute(b, block);
    }
    apply_exchanges(blocks, topo, &mut exchange);
}

/// Replay a step in an explicit task order — the determinism harness
/// behind the exchange-ordering-invariance property: any topological
/// order must leave `blocks` bit-identical to [`run_sequential`].
///
/// # Errors
/// Rejects an order that is not a topological order of the step DAG.
///
/// # Panics
/// Panics if `blocks.len() != topo.blocks()`.
pub fn run_in_order<Z>(
    blocks: &mut [Z],
    topo: &Topology,
    order: &[Task],
    mut compute: impl FnMut(usize, &mut Z),
    mut exchange: impl FnMut(usize, &mut Z, &mut Z),
) -> Result<(), String> {
    assert_eq!(blocks.len(), topo.blocks(), "one block per topology node");
    let dag = StepDag::build(topo);
    if !dag.is_topological(order) {
        return Err("order is not a topological order of the step DAG".to_string());
    }
    for &task in order {
        match task {
            Task::Compute(b) => compute(b, &mut blocks[b]),
            Task::Exchange(i) => {
                let (a, b) = topo.interfaces()[i];
                let (lo, hi) = blocks.split_at_mut(b);
                exchange(i, &mut lo[a], &mut hi[0]);
            }
        }
    }
    Ok(())
}

/// Dispatch one step's compute tasks across `shards` zone shards, then
/// apply the exchanges in canonical order.
///
/// The compute tasks are one region of `pool`'s worker team, `shards`
/// lanes wide (at most the pool's width): one task per block, claimed
/// by the team in index order, so up to `shards` zones run at once.
/// Each zone's own loops run on a view of the whole pool that shares
/// its local counter — the caller's synchronization-event bill covers
/// every loop region the zones ran — and enlists whichever helpers no
/// other zone is using, so the team is shared between the two levels
/// region by region (`U_zones × U_loops`) rather than split into fixed
/// slices. The zone region's own barrier is the step barrier; it bills
/// the pool-wide counter only. It is a bare region, so it logs no
/// region mark, and inside the zones the recorder is off (its log
/// assumes one coordinator thread); instead, every compute task
/// brackets itself with zone start/end events on the **pool's**
/// recorder, on the team lane that ran it, so a drained timeline shows
/// zone occupancy per thread. After the
/// barrier, exchanges run on the calling thread in canonical interface
/// order — a topological order of the step DAG, so the result is
/// bit-identical to [`run_sequential`] for every shard count.
///
/// `shards` is clamped to `1..=blocks.len()`; the clamped value is
/// reported in the returned [`StepStats`], whose `loop_workers` is each
/// zone's even share of the pool, `pool.processors() / shards`.
///
/// # Panics
/// Panics if `blocks.len() != topo.blocks()`. A panicking compute task
/// is re-raised with its own payload — when the region is wider than
/// one worker, only after every other block has run — and no exchange
/// is applied.
pub fn run_sharded<Z, C, X>(
    pool: &Workers,
    shards: usize,
    step: u64,
    blocks: &mut [Z],
    topo: &Topology,
    compute: C,
    mut exchange: X,
) -> StepStats
where
    Z: Send,
    C: Fn(usize, &Workers, &mut Z) + Sync,
    X: FnMut(usize, &mut Z, &mut Z),
{
    assert_eq!(blocks.len(), topo.blocks(), "one block per topology node");
    let shards = shards.clamp(1, blocks.len());
    let loop_workers = (pool.processors() / shards).max(1);
    let flight = pool.flight();
    let zone_level = pool.sized_view(shards);
    let mut loops = pool.kernel_view(pool.processors(), pool.policy());
    loops.set_flight(FlightRecorder::disabled());
    let (compute, loops) = (&compute, &loops);
    zone_level.region(|scope| {
        for (b, block) in blocks.iter_mut().enumerate() {
            scope.spawn_on_lane(move |lane| {
                flight.zone_start(lane, b as u64, step);
                compute(b, loops, block);
                flight.zone_end(lane, b as u64, step);
            });
        }
    });
    apply_exchanges(blocks, topo, &mut exchange);
    StepStats::new(topo, shards, loop_workers)
}

/// Exchanges in canonical interface order (endpoints are `a < b`, so
/// `split_at_mut(b)` hands out both blocks safely).
fn apply_exchanges<Z>(
    blocks: &mut [Z],
    topo: &Topology,
    exchange: &mut impl FnMut(usize, &mut Z, &mut Z),
) {
    for (i, &(a, b)) in topo.interfaces().iter().enumerate() {
        let (lo, hi) = blocks.split_at_mut(b);
        exchange(i, &mut lo[a], &mut hi[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately non-commutative exchange over integer blocks:
    /// ordering mistakes between conflicting exchanges change the
    /// result, ordering between disjoint exchanges cannot.
    fn mix(state: &mut u64, with: u64) {
        *state = state
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17)
            .wrapping_add(with);
    }

    fn reference(topo: &Topology) -> Vec<u64> {
        let mut blocks: Vec<u64> = (0..topo.blocks() as u64).map(|b| b + 1).collect();
        run_sequential(
            &mut blocks,
            topo,
            |b, z| mix(z, b as u64),
            |i, a, b| {
                mix(a, *b ^ i as u64);
                mix(b, *a);
            },
        );
        blocks
    }

    #[test]
    fn sequential_and_sharded_agree_for_every_shard_count() {
        let pool = Workers::new(2);
        for blocks_n in 1..=4 {
            let topo = Topology::chain(blocks_n);
            let want = reference(&topo);
            for shards in 1..=blocks_n + 2 {
                let mut blocks: Vec<u64> = (0..blocks_n as u64).map(|b| b + 1).collect();
                let stats = run_sharded(
                    &pool,
                    shards,
                    0,
                    &mut blocks,
                    &topo,
                    |b, _w, z| mix(z, b as u64),
                    |i, a, b| {
                        mix(a, *b ^ i as u64);
                        mix(b, *a);
                    },
                );
                assert_eq!(blocks, want, "blocks={blocks_n} shards={shards}");
                assert_eq!(stats.shards, shards.clamp(1, blocks_n));
                assert_eq!(stats.zone_tasks, blocks_n as u64);
                assert_eq!(stats.exchange_tasks, blocks_n as u64 - 1);
                assert!(stats.loop_workers >= 1);
            }
        }
    }

    #[test]
    fn sharded_splits_the_pool_between_levels() {
        let pool = Workers::new(4);
        let topo = Topology::chain(4);
        let mut blocks = vec![0u64; 4];
        let stats = run_sharded(
            &pool,
            2,
            0,
            &mut blocks,
            &topo,
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
        let topo = Topology::chain(4);
        let step = |blocks: &mut Vec<u64>, faulty: Option<usize>| {
            run_sharded(
                &pool,
                2,
                0,
                blocks,
                &topo,
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
        assert_eq!(blocks, reference(&topo));
    }

    #[test]
    fn sharded_bills_sync_events_on_the_pool() {
        let pool = Workers::new(2);
        let topo = Topology::new(3, Vec::new()).unwrap();
        let before = pool.local_sync_event_count();
        let mut blocks = vec![0u64; 3];
        run_sharded(
            &pool,
            3,
            0,
            &mut blocks,
            &topo,
            |_, w, z| {
                w.region(|scope| {
                    scope.spawn(|| {});
                });
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
        let topo = Topology::chain(3);
        let mut blocks = vec![0u64; 3];
        run_sharded(
            &pool,
            2,
            7,
            &mut blocks,
            &topo,
            |_, _, z| *z += 1,
            |_, _, _| {},
        );
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

    #[test]
    fn in_order_replay_matches_sequential_for_any_topological_order() {
        let topo = Topology::new(4, vec![(0, 1), (2, 3), (1, 2)]).unwrap();
        let want = reference(&topo);
        let dag = StepDag::build(&topo);
        // Reversed-wave order: still topological, different interleaving.
        let mut order: Vec<Task> = Vec::new();
        for wave in dag.waves() {
            order.extend(wave.into_iter().rev());
        }
        assert!(dag.is_topological(&order));
        let mut blocks: Vec<u64> = (0..topo.blocks() as u64).map(|b| b + 1).collect();
        run_in_order(
            &mut blocks,
            &topo,
            &order,
            |b, z| mix(z, b as u64),
            |i, a, b| {
                mix(a, *b ^ i as u64);
                mix(b, *a);
            },
        )
        .unwrap();
        assert_eq!(blocks, want);
        // A non-topological order is rejected before touching state.
        let bad = vec![Task::Exchange(0); order.len()];
        let mut untouched = vec![1u64; 4];
        assert!(run_in_order(&mut untouched, &topo, &bad, |_, _| {}, |_, _, _| {}).is_err());
        assert_eq!(untouched, vec![1; 4]);
    }
}
