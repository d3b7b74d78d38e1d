//! **Loop-level parallelism** — the paper's primary contribution as a
//! reusable Rust library.
//!
//! ARL-TR-2556 parallelizes vectorizable programs by applying
//! `C$doacross`/OpenMP-style directives to *outer* loops of RISC-tuned
//! code on shared-memory SMPs. This crate provides the same mechanism
//! over a persistent [`std::thread`] team, preserving the semantics the
//! paper's analysis depends on:
//!
//! * **Static chunked scheduling** ([`schedule`]): iterations are
//!   divided into at most `P` contiguous chunks with the largest chunk
//!   of size `ceil(N / P)`, so measured speedups follow the stair-step
//!   law of `perfmodel::stairstep`.
//! * **Synchronization accounting** ([`pool`]): every parallel region
//!   exit is one synchronization event, the quantity Tables 1 and 2 of
//!   the paper budget for.
//! * **Doacross regions** ([`mod@doacross`]): parallel loops over index
//!   ranges, slices and chunked slabs — the `C$doacross local(L,J,K)`
//!   idiom (paper Example 1).
//! * **Loop fusion and parent-loop hoisting with pencil scratch**
//!   ([`FusedRegion`], [`doacross_slabs_scratch`]): adjacent loops
//!   merged under one parallel region (paper Example 2), hoisted into a
//!   parent subroutine while each worker carries a cache-resident 1-D
//!   scratch buffer (Example 3) — this reduced synchronization events by
//!   1–3 orders of magnitude and shrank plane-sized scratch to pencils.
//! * An **incremental parallelization advisor** ([`advisor`]): profile
//!   first, then parallelize only the loops whose work justifies the
//!   synchronization cost — the paper's alternative to all-or-nothing
//!   MPI/HPF porting. The profile is not a second instrument: kernel
//!   spans recorded under [`Workers::recorded`] →
//!   [`ObsReport::kernel_summaries`] → [`Advisor::advise`].
//! * **Observability** ([`obs`]): one **flight recorder**, free when
//!   disabled. Its coordinator log holds the span hierarchy (time step →
//!   zone → kernel → parallel region); its per-worker lock-free rings
//!   hold timestamped chunk/barrier/claim events. The span report (sync
//!   events, chunk imbalance, versioned JSON), the overhead attribution
//!   against the paper's Table 1 bound and the Chrome trace-event export
//!   are all folds of that one recording.
//! * **Zones above loops** ([`zones`]): one step's zones as one region
//!   of the team, each zone's loops sharing the team's helpers region
//!   by region — Taft's multi-level parallelism (paper Section 8),
//!   `U_zones × U_loops`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod doacross;
pub mod fusion;
pub mod obs;
pub mod pool;
pub mod schedule;
#[allow(unsafe_code)]
mod team;
pub mod zones;

pub use advisor::{Advice, Advisor, LoopDecision, MeasuredAdvice, MeasuredChoice};
pub use doacross::{doacross, doacross_slabs, doacross_slabs_scratch, doacross_slabs_zip};
pub use fusion::{FusedBodies, FusedRegion};
pub use obs::{
    AttributionReport, FlightRecorder, KernelSummary, ObsReport, SpanKind, SpanNode, Timeline,
};
pub use pool::{default_worker_count, ChunkClaimer, Workers};
pub use schedule::{chunk_bounds, Policy, ScheduleMap};
