//! `tune` — an online autotuner that closes the loop between the
//! flight recorder and the paper's analytic models.
//!
//! The paper (ARL-TR-2556) predicts a parallel loop's behavior from
//! two laws: the stair-step speedup `U / ceil(U/P)` and the Table 1
//! minimum-work rule `W ≥ P·S/f`. The observability layer
//! (`llp::obs`) *measures* the same quantities on live runs. This
//! crate confronts the two, on one path: **measurement selects, the
//! model prunes and is reported.**
//!
//! * [`space`] enumerates per-kernel candidate configurations
//!   (worker count × schedule policy × chunk; lane counts are kernel
//!   constants, not a search axis), pruned
//!   **before any measurement** by the stair-step law (never propose a
//!   `P` whose `ceil(U/P)` duplicates a cheaper one) and the Table 1
//!   bound.
//! * [`calibrate`](mod@calibrate) prices the surviving candidates by
//!   running them — median-of-K trials on an instrumented pool view —
//!   and picks each kernel's winner by measured cost alone, always
//!   comparing against the default configuration so tuning can only
//!   break even or help. [`calibrate_solver`] is the one entry point;
//!   it is generic over [`solver::Solver`], and each solver states its
//!   calibration case next to its own `Config`, so this crate names no
//!   physics.
//! * [`model`] reports the analytic price, [`predicted_cost_ns`]: the
//!   region price `perfmodel::critical_path` over the policy's
//!   makespan, plus one `S` per region.
//! * [`db`] persists the outcome as a versioned, JSON-serialized
//!   [`TuneDb`] the serve layer loads at startup and applies when a
//!   request asks for `"schedule": "auto"`.
//!
//! The db records both the measured and the predicted cost of every
//! winner, and whether the model would have picked the same
//! configuration (`model_agrees`) — so every calibration doubles as a
//! validation run for the paper's models, without the models steering
//! it. That column is where the comparison ends: nothing scores live
//! solves against the model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod db;
pub mod model;
pub mod space;

pub use calibrate::{calibrate_solver, CalibrationSpec};
pub use db::{TuneDb, TuneEntry, TUNE_SCHEMA_VERSION};
pub use model::predicted_cost_ns;
pub use space::{candidates, worker_counts, Candidate};
