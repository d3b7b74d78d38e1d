//! Observability: one recorder, and the documents folded from it.
//!
//! The paper's methodology lives on measurement — profile the loops,
//! count the synchronization events, watch the stair-step. This module
//! gives the whole suite one instrument for that: the
//! [`FlightRecorder`] ([`timeline`]). Its coordinator log holds the
//! spans — time step → zone → kernel — and a mark per parallel region;
//! its per-worker rings hold completed intervals — a chunk, a claim, a
//! barrier wait or a zone task, one ring slot each — written lock-free
//! from inside the doacross entry points. Every document is a fold of
//! that one recording, and each reads an interval as it is, pairing
//! nothing:
//!
//! * the span tree [`ObsReport`] (wall time, sync-event counts, worker
//!   counts, loop extents and chunk imbalance, as versioned JSON);
//! * the overhead [`attr`]ibution (compute vs. barrier vs. claim, per
//!   worker, per region and per kernel, checked against `perfmodel`'s
//!   Table 1 bound);
//! * the [`chrome`] trace.
//!
//! Two properties shape the design:
//!
//! * **Disabled is free.** A disabled recorder is a `None`; every
//!   recording call is a single branch with no allocation, lock, or
//!   clock read, so instrumentation can stay permanently wired into the
//!   solver hot paths.
//! * **One schema, two sources.** Measured runs (a real
//!   [`crate::pool::Workers`] stepping a solver) and modeled runs (a
//!   trace on a simulated machine) emit the same [`ObsReport`] shape,
//!   so model and measurement can be diffed kernel-by-kernel.

pub mod attr;
pub mod chrome;
pub mod json;
mod report;
pub mod timeline;

pub use attr::{
    AttributionReport, KernelOverhead, ModelCheck, RegionAttribution, WorkerAttribution,
};
pub use report::{KernelSummary, ObsReport, SpanKind, SpanNode, REPORT_SCHEMA_VERSION};
pub use timeline::{
    EventKind, FlightRecorder, LaneTimeline, OpenSpan, RegionMark, RegionSession, Timeline,
    TimelineEvent,
};
