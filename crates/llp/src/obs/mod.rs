//! Observability: hierarchical span tracing and metrics export.
//!
//! The paper's methodology lives on measurement — profile the loops,
//! count the synchronization events, watch the stair-step. This module
//! gives the whole suite one instrument for that: a [`Recorder`] whose
//! spans nest time step → zone → kernel → parallel region, capturing
//! wall time, sync-event counts, worker counts, loop extents, and chunk
//! imbalance, exported as versioned JSON ([`ObsReport`]).
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
//!
//! Beyond span tracing, the module carries the **flight recorder**
//! ([`timeline`]): per-worker rings of timestamped chunk/barrier/claim
//! events written lock-free from inside the doacross entry points, with
//! the same disabled-is-free contract. Drained timelines feed the
//! overhead [`attr`]ibution report (compute vs. barrier vs. claim, per
//! worker and per region, checked against `perfmodel`'s Table 1 bound)
//! and the [`chrome`] trace exporter.

pub mod attr;
pub mod chrome;
pub mod json;
mod recorder;
mod report;
pub mod timeline;

pub use attr::{
    AttributionReport, KernelOverhead, ModelCheck, RegionAttribution, WorkerAttribution,
};
pub use recorder::{Recorder, SpanGuard};
pub use report::{KernelSummary, ObsReport, SpanKind, SpanNode, REPORT_SCHEMA_VERSION};
pub use timeline::{
    EventKind, FlightRecorder, LaneTimeline, RegionMark, RegionSession, Timeline, TimelineEvent,
};
