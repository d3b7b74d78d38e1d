//! Zone-level task scheduling layered over loop-level parallelism.
//!
//! The paper parallelizes *inner* loops precisely because its zone
//! counts were too small to feed 30–128 processors (Section 2). When
//! the zone count is *not* small, a second level of parallelism opens
//! up: zones whose zonal boundary conditions do not couple within a
//! time step can run concurrently, each still running its inner
//! doacross loops on a worker team. Taft's MLP work (paper Section 8)
//! multiplies usable parallelism to `U_zones × U_loops`; this crate is
//! the scheduler that realizes the product.
//!
//! Three layers:
//!
//! * [`Topology`] — which blocks exchange boundary data (the zonal-BC
//!   interface graph);
//! * [`StepDag`] — the per-step dependency DAG derived from a topology:
//!   compute tasks (one per block, independent within a step) followed
//!   by exchange tasks ordered so that conflicting exchanges (those
//!   sharing an endpoint block) retain the canonical sequential order.
//!   Any topological execution order of this DAG yields bit-identical
//!   state, which is what makes zone scheduling safe for a service
//!   whose cache keys assume determinism;
//! * [`run_sharded`] — run the compute tasks as one `shards`-wide
//!   region of the [`llp::Workers`] team, each zone's loops sharing
//!   the rest of the team region by region (and billing the caller's
//!   synchronization events), then apply exchanges in canonical order
//!   after the region's barrier.
//!
//! The 1-shard case degenerates to the classic sequential zone sweep —
//! pinned bit-exact by the `f3d` test-suite — so callers can treat the
//! shard count as a pure performance knob.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dag;
mod sched;
mod topology;

pub use dag::{StepDag, Task};
pub use sched::{run_sequential, run_sharded, StepStats};
pub use topology::Topology;
