//! Trace-driven cache + TLB simulation — the stand-in for the paper's
//! profiling toolchain (`prof`/`pixie`, Perfex, SpeedShop; Section 6).
//!
//! The serial-tuning half of the paper is driven entirely by memory
//! behaviour: cache and TLB miss counts decide which loop ordering wins,
//! whether scratch arrays fit in cache, and whether the tuned code's
//! memory traffic is low enough to treat a NUMA machine as UMA
//! (Section 7's 68 MB/s argument). Since the original hardware counters
//! are unavailable, this crate reproduces them deterministically:
//!
//! * [`cache`] — set-associative LRU caches; a TLB is one of them,
//!   a single set of page-sized lines;
//! * [`hierarchy`] — an L1/L2/TLB stack with Perfex-style counters;
//! * [`cost`] — the pixie-style cycle model: perfect-memory cycles plus
//!   per-miss stall penalties, so `measured - pixie = memory stalls`;
//! * [`patterns`] — address-trace generators for structured-grid loop
//!   nests in any traversal order and storage layout (the Example 4
//!   access-ordering study), plus per-worker page-sharing analysis
//!   feeding the NUMA contention model in `smpsim`;
//! * [`presets`] — cache geometries of the machines in Table 5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cost;
pub mod hierarchy;
pub mod patterns;
pub mod presets;

pub use cache::{Cache, CacheConfig};
pub use cost::{CycleModel, OverlapModel};
pub use hierarchy::{AccessKind, Counters, MemHierarchy};
pub use patterns::{page_sharing, GridTraversal, PencilGather, SolverSweep, SweepAccess};
