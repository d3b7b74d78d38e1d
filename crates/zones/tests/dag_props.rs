//! Property suite for the zone-step DAG: no deadlock on random
//! zonal-BC topologies, exchange-ordering invariance (any topological
//! execution order leaves the state bit-identical to the canonical
//! sequential sweep), and the degenerate shapes (one zone, fully
//! disconnected zones).

use proptest::prelude::*;
use zones::{run_in_order, run_sequential, run_sharded, StepDag, Task, Topology};

const MAX_BLOCKS: usize = 6;

/// A random valid topology: up to `MAX_BLOCKS` blocks, random
/// interface pairs normalized to `a < b` with duplicates dropped.
fn topology() -> impl Strategy<Value = Topology> {
    (
        1..=MAX_BLOCKS,
        prop::collection::vec((0..MAX_BLOCKS, 0..MAX_BLOCKS), 0..10),
    )
        .prop_map(|(blocks, raw)| {
            let mut interfaces: Vec<(usize, usize)> = Vec::new();
            for (x, y) in raw {
                let (a, b) = (x % blocks, y % blocks);
                let pair = (a.min(b), a.max(b));
                if pair.0 != pair.1 && !interfaces.contains(&pair) {
                    interfaces.push(pair);
                }
            }
            Topology::new(blocks, interfaces).expect("normalized interfaces are valid")
        })
}

/// A deliberately non-commutative state transition: if two conflicting
/// exchanges ever swap order, the final state moves.
fn mix(state: &mut u64, with: u64) {
    *state = state
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(17)
        .wrapping_add(with);
}

fn compute(b: usize, z: &mut u64) {
    mix(z, b as u64 + 101);
}

fn exchange(i: usize, a: &mut u64, b: &mut u64) {
    mix(a, *b ^ (i as u64 + 7));
    mix(b, *a);
}

fn initial(topo: &Topology) -> Vec<u64> {
    (0..topo.blocks() as u64)
        .map(|b| b.wrapping_mul(31) + 1)
        .collect()
}

fn canonical_result(topo: &Topology) -> Vec<u64> {
    let mut blocks = initial(topo);
    run_sequential(&mut blocks, topo, compute, exchange);
    blocks
}

/// Build a topological order by repeatedly picking among the ready
/// tasks with the `picks` stream — every topological order is reachable
/// for some stream, so the property quantifies over execution orders.
fn picked_order(dag: &StepDag, picks: &[usize]) -> Vec<Task> {
    let n = dag.task_count();
    let mut done = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for k in 0..n {
        let ready: Vec<usize> = (0..n)
            .filter(|&id| !done[id] && dag.preds(id).iter().all(|&p| done[p]))
            .collect();
        assert!(!ready.is_empty(), "acyclic DAG always has a ready task");
        let pick = ready[picks[k % picks.len().max(1)] % ready.len()];
        done[pick] = true;
        order.push(dag.task(pick));
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// No deadlock: on any topology the wave decomposition schedules
    /// every task exactly once, and its concatenation is topological.
    #[test]
    fn random_topologies_never_deadlock(topo in topology()) {
        let dag = StepDag::build(&topo);
        let waves = dag.waves();
        let scheduled: usize = waves.iter().map(Vec::len).sum();
        prop_assert_eq!(scheduled, dag.task_count());
        let flat: Vec<Task> = waves.concat();
        prop_assert!(dag.is_topological(&flat));
        prop_assert!(dag.peak_ready() >= 1);
        prop_assert!(waves.iter().all(|w| !w.is_empty()));
    }

    /// Exchange-ordering invariance: every topological execution order
    /// yields state bit-identical to the canonical sequential sweep.
    #[test]
    fn any_topological_order_is_bit_exact(
        topo in topology(),
        picks in prop::collection::vec(0..64usize, 32),
    ) {
        let want = canonical_result(&topo);
        let dag = StepDag::build(&topo);
        let order = picked_order(&dag, &picks);
        prop_assert!(dag.is_topological(&order));
        let mut blocks = initial(&topo);
        run_in_order(&mut blocks, &topo, &order, compute, exchange).unwrap();
        prop_assert_eq!(blocks, want);
    }

    /// The sharded runtime agrees with the sequential sweep for every
    /// shard count on any topology.
    #[test]
    fn sharded_execution_is_bit_exact(topo in topology(), extra in 0..3usize) {
        let want = canonical_result(&topo);
        let pool = llp::Workers::new(2);
        for shards in 1..=topo.blocks() + extra {
            let mut blocks = initial(&topo);
            let stats = run_sharded(
                &pool, shards, 0, &mut blocks, &topo,
                |b, _w, z| compute(b, z),
                exchange,
            );
            prop_assert_eq!(&blocks, &want, "shards={}", shards);
            prop_assert_eq!(stats.zone_tasks as usize, topo.blocks());
            prop_assert_eq!(stats.exchange_tasks as usize, topo.interfaces().len());
        }
    }
}

#[test]
fn degenerate_single_zone() {
    let topo = Topology::chain(1);
    let dag = StepDag::build(&topo);
    assert_eq!(dag.task_count(), 1);
    assert_eq!(dag.waves(), vec![vec![Task::Compute(0)]]);
    assert_eq!(dag.exchange_waves(), 0);
    let mut blocks = initial(&topo);
    let stats = run_sharded(
        &llp::Workers::new(2),
        4,
        0,
        &mut blocks,
        &topo,
        |b, _w, z| compute(b, z),
        exchange,
    );
    assert_eq!(stats.shards, 1, "shards clamp to the block count");
    assert_eq!(blocks, canonical_result(&topo));
}

#[test]
fn degenerate_disconnected_zones() {
    let topo = Topology::new(5, Vec::new()).unwrap();
    let dag = StepDag::build(&topo);
    // Fully independent: one wave, all five computes ready at once.
    assert_eq!(dag.waves().len(), 1);
    assert_eq!(dag.peak_ready(), 5);
    let want = canonical_result(&topo);
    for shards in 1..=5 {
        let mut blocks = initial(&topo);
        run_sharded(
            &llp::Workers::new(2),
            shards,
            0,
            &mut blocks,
            &topo,
            |b, _w, z| compute(b, z),
            exchange,
        );
        assert_eq!(blocks, want, "shards={shards}");
    }
}
