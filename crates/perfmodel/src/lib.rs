//! Analytic performance models from ARL-TR-2556 ("Using Loop-Level
//! Parallelism to Parallelize Vectorizable Programs").
//!
//! This crate contains the closed-form models the paper develops in
//! Sections 3 and 4 and uses throughout its evaluation:
//!
//! * [`overhead`] — the synchronization-overhead bound behind Table 1:
//!   how much work a parallelized loop must contain before the cost of
//!   exiting the parallel region becomes negligible.
//! * [`work_per_sync`] — the work-per-synchronization-event accounting
//!   behind Table 2: how much work each loop level of a 1-D/2-D/3-D grid
//!   nest makes available between barriers.
//! * [`stairstep`] — the stair-step speedup law behind Table 3 and
//!   Figure 1: the ideal speedup of a loop with a finite number of
//!   parallel units under static scheduling, the one region price
//!   ([`critical_path`]), and the zone-weighted
//!   processor apportionment multi-level parallelism (Section 8) lifts
//!   that ceiling with.
//! * [`batch`] — validated, non-panicking batch evaluation of the three
//!   models above, for callers relaying untrusted queries (the `llpd`
//!   HTTP service).
//! * [`amdahl`] — Amdahl's-law helpers used when boundary-condition
//!   routines are deliberately left serial.
//! * [`metrics`] — the reporting metrics the paper argues for
//!   (time steps/hour, delivered MFLOPS) and against (raw speedup).
//!
//! Everything here is pure arithmetic: no threads, no I/O. The
//! discrete-event machine model in the `smpsim` crate and the runtime
//! library in `llp` both build on these primitives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amdahl;
pub mod batch;
pub mod metrics;
pub mod overhead;
pub mod stairstep;
pub mod work_per_sync;

pub use amdahl::{amdahl_speedup, serial_fraction_limit};
pub use batch::{
    overhead_batch, stairstep_batch, work_per_sync_batch, OverheadPoint, StairstepPoint,
    WorkPerSyncPoint,
};
pub use metrics::{delivered_mflops, time_steps_per_hour, Efficiency};
pub use overhead::{
    max_efficient_processors, min_work_for_overhead, OverheadBound, PAPER_OVERHEAD_FRACTION,
};
pub use stairstep::{
    critical_path, ideal_speedup, max_units_per_processor, partition_processors, plateau_edges,
    speedup_curve,
};
pub use work_per_sync::{GridNest, LoopLevel, WorkPerSync};
