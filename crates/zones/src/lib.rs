//! Zone-level task scheduling layered over loop-level parallelism.
//!
//! The paper parallelizes *inner* loops precisely because its zone
//! counts were too small to feed 30–128 processors (Section 2). When
//! the zone count is *not* small, a second level of parallelism opens
//! up: within a time step the zones are independent, so they can run
//! concurrently, each still running its inner doacross loops on a
//! worker team. Taft's MLP work (paper Section 8) multiplies usable
//! parallelism to `U_zones × U_loops`; this crate is the scheduler that
//! realizes the product.
//!
//! The zone grid is a J-chain: zone `i` exchanges boundary data with
//! zone `i + 1` through their shared K×L planes, once per step, after
//! every zone has stepped (zonal injection). Both of the paper's grids
//! have that shape. So a step is
//!
//! * [`run_sharded`] — the zones as one `shards`-wide region of the
//!   [`llp::Workers`] team, each zone's loops sharing the rest of the
//!   team region by region (and billing the caller's synchronization
//!   events), followed by
//! * [`exchange_chain`] — the chain's exchanges in their one order,
//!   `0→1`, `1→2`, …, on the calling thread after the region's
//!   barrier. Adjacent exchanges share a zone, so that order is the
//!   only one; it is the order the sequential sweep uses too, which
//!   makes every shard count bit-identical to it.
//!
//! The 1-shard case degenerates to the classic sequential zone sweep —
//! pinned bit-exact by the `f3d` test-suite — so callers can treat the
//! shard count as a pure performance knob.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sched;

pub use sched::{exchange_chain, run_sharded, StepStats};
