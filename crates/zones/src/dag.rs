//! The per-step dependency DAG derived from a zonal-BC topology.
//!
//! One time step decomposes into **compute** tasks (one per block —
//! independent, because zonal coupling happens only at step boundaries)
//! and **exchange** tasks (one per interface). Edges:
//!
//! * `Compute(a) → Exchange(i)` and `Compute(b) → Exchange(i)` for
//!   every interface `i = (a, b)`: an exchange reads and writes both
//!   endpoint blocks, so it waits for both computes;
//! * `Exchange(i) → Exchange(j)` for `i < j` sharing an endpoint:
//!   exchanges touching a common block do not commute in general (the
//!   second reads planes the first may have written), so conflicting
//!   exchanges keep the canonical interface order.
//!
//! Every edge goes from a lower task id to a higher one, so the DAG is
//! acyclic **by construction** — the canonical order (computes by block
//! index, then exchanges by interface index) is always a topological
//! order, and [`StepDag::waves`] assigns every task a level. That is
//! the no-deadlock argument the property suite exercises on random
//! topologies. Exchanges on disjoint block pairs touch disjoint state
//! and commute, so *any* topological order yields bit-identical state.

use crate::topology::Topology;

/// One schedulable unit of a time step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Step the block with this index.
    Compute(usize),
    /// Apply the zonal exchange for the interface with this index.
    Exchange(usize),
}

/// The dependency DAG for one time step of a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepDag {
    blocks: usize,
    interfaces: usize,
    /// Predecessor task ids, indexed by task id.
    preds: Vec<Vec<usize>>,
}

impl StepDag {
    /// Derive the step DAG from a topology.
    #[must_use]
    pub fn build(topo: &Topology) -> Self {
        let blocks = topo.blocks();
        let interfaces = topo.interfaces().len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); blocks + interfaces];
        for (i, &(a, b)) in topo.interfaces().iter().enumerate() {
            let ex = blocks + i;
            preds[ex].push(a);
            preds[ex].push(b);
            for (j, &(c, d)) in topo.interfaces().iter().enumerate().take(i) {
                if a == c || a == d || b == c || b == d {
                    preds[ex].push(blocks + j);
                }
            }
        }
        Self {
            blocks,
            interfaces,
            preds,
        }
    }

    /// Total task count: one compute per block plus one exchange per
    /// interface.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.blocks + self.interfaces
    }

    /// The task with id `id` (computes occupy `0..blocks`, exchanges
    /// follow).
    ///
    /// # Panics
    /// Panics if `id >= task_count()`.
    #[must_use]
    pub fn task(&self, id: usize) -> Task {
        assert!(id < self.task_count(), "task id {id} out of range");
        if id < self.blocks {
            Task::Compute(id)
        } else {
            Task::Exchange(id - self.blocks)
        }
    }

    /// The id of `task`.
    ///
    /// # Panics
    /// Panics if the task's index is out of range for this DAG.
    #[must_use]
    pub fn id(&self, task: Task) -> usize {
        match task {
            Task::Compute(b) => {
                assert!(b < self.blocks, "block {b} out of range");
                b
            }
            Task::Exchange(i) => {
                assert!(i < self.interfaces, "interface {i} out of range");
                self.blocks + i
            }
        }
    }

    /// Predecessor task ids of task `id`.
    #[must_use]
    pub fn preds(&self, id: usize) -> &[usize] {
        &self.preds[id]
    }

    /// Level sets of the DAG: wave 0 holds tasks with no predecessor,
    /// wave `k` holds tasks whose deepest predecessor sits in wave
    /// `k - 1`. Every task appears in exactly one wave (the DAG is
    /// acyclic by construction), so `waves().concat()` is itself a
    /// topological order.
    #[must_use]
    pub fn waves(&self) -> Vec<Vec<Task>> {
        let mut level = vec![0usize; self.task_count()];
        // Predecessors always have smaller ids, so one forward pass
        // settles every level.
        for id in 0..self.task_count() {
            level[id] = self.preds[id]
                .iter()
                .map(|&p| level[p] + 1)
                .max()
                .unwrap_or(0);
        }
        let depth = level.iter().copied().max().map_or(0, |d| d + 1);
        let mut waves = vec![Vec::new(); depth];
        for id in 0..self.task_count() {
            waves[level[id]].push(self.task(id));
        }
        waves
    }

    /// The widest wave — the peak number of simultaneously ready tasks,
    /// an upper bound on useful zone shards.
    #[must_use]
    pub fn peak_ready(&self) -> usize {
        self.waves().iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Number of waves containing exchange tasks — the length of the
    /// serialized exchange tail (for a J-chain every exchange conflicts
    /// with the next, so this equals the interface count).
    #[must_use]
    pub fn exchange_waves(&self) -> usize {
        self.waves()
            .iter()
            .filter(|w| w.iter().any(|t| matches!(t, Task::Exchange(_))))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_dag_orders_conflicting_exchanges() {
        let dag = StepDag::build(&Topology::chain(3));
        assert_eq!(dag.task_count(), 5);
        // Exchange 0 = (0,1) waits on both computes; exchange 1 = (1,2)
        // additionally waits on exchange 0 (shared block 1).
        assert_eq!(dag.preds(dag.id(Task::Exchange(0))), &[0, 1]);
        assert_eq!(dag.preds(dag.id(Task::Exchange(1))), &[1, 2, 3]);
        let waves = dag.waves();
        assert_eq!(
            waves[0],
            vec![Task::Compute(0), Task::Compute(1), Task::Compute(2)]
        );
        assert_eq!(waves[1], vec![Task::Exchange(0)]);
        assert_eq!(waves[2], vec![Task::Exchange(1)]);
        assert_eq!(dag.peak_ready(), 3);
        assert_eq!(dag.exchange_waves(), 2);
    }

    #[test]
    fn disconnected_dag_is_one_wave() {
        let dag = StepDag::build(&Topology::new(4, Vec::new()).unwrap());
        assert_eq!(dag.waves().len(), 1);
        assert_eq!(dag.peak_ready(), 4);
        assert_eq!(dag.exchange_waves(), 0);
    }

    #[test]
    fn disjoint_exchanges_share_a_wave() {
        // Two independent pairs: both exchanges become ready together.
        let topo = Topology::new(4, vec![(0, 1), (2, 3)]).unwrap();
        let dag = StepDag::build(&topo);
        let waves = dag.waves();
        assert_eq!(waves.len(), 2);
        assert_eq!(waves[1], vec![Task::Exchange(0), Task::Exchange(1)]);
    }
}
