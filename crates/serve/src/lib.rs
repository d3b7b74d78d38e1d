//! `llpserve`: a dependency-free HTTP service over the loop-level
//! parallelism suite.
//!
//! The binary `llpd` exposes three kinds of queries over one shared
//! doacross pool:
//!
//! * `POST /v1/solve` — a bounded solver run for any registered
//!   physics ([`solvers`]): the default `"solver": "f3d"` multi-zone
//!   flow solve ([`f3d::service`]) returning residual history, force
//!   coefficients, field checksums, and the run's observability span
//!   report, or `"solver": "fdtd"` for the 2-D FDTD Maxwell solve
//!   ([`fdtd`]) returning the energy history and field checksums;
//!   `"schedule": "auto"` resolves per-kernel configurations from the
//!   solver's tune database ([`tune`]) — bit-exact with the defaults,
//!   only cheaper. Solves whose estimated memory footprint exceeds
//!   `--memory-budget` are rejected with 413 before any pool work;
//! * `POST /v1/advise` — §4-style parallelize-or-not advice
//!   ([`llp::advisor`]) for a submitted loop profile, overlaid with the
//!   tune database's measured choices when kernels match;
//! * `POST /v1/tune` — start a bounded background calibration
//!   ([`tune::calibrate_solver`]) on the pool's full width, sharing
//!   the team with the executors region by region — one at a time
//!   (concurrent requests get 429); `GET
//!   /v1/tune` polls its status and returns the current database;
//! * `GET /v1/model/{stairstep,overhead,work_per_sync}` — batched
//!   performance-model queries ([`perfmodel`]);
//! * `GET /metrics` — Prometheus text exposition of the service
//!   counters, request-latency and queue-depth histograms, and the
//!   shared pool's synchronization-event totals (`Accept:
//!   application/json` or `?format=json` selects the JSON form);
//! * `GET /v1/health` — liveness (`ok` or `draining`) and the
//!   telemetry clock;
//! * `GET /v1/stats` — recent telemetry windows ([`telemetry`]), each
//!   the difference of two snapshots of the `/metrics` table
//!   ([`metrics`]);
//! * `GET /v1/trace/{id}` — per-worker overhead attribution for a
//!   recent solve (append `?trace=chrome` for a Chrome trace-event
//!   download), backed by a bounded in-memory [`trace`] ring fed by
//!   the executors' flight recorders.
//!
//! Everything is `std`-only: HTTP framing is hand-rolled
//! ([`http`]), connections are multiplexed on one `poll(2)`-based
//! readiness event loop ([`evloop`]) with HTTP/1.1 keep-alive, JSON is
//! `llp::obs::json`, and signals are a two-line binding to `signal(2)`
//! ([`signal`]). Identical in-flight `/v1/solve` requests coalesce into
//! one execution and completed results land in a bounded
//! content-addressed cache ([`cache`]). See [`server`] for the event
//! loop, `routes` for the endpoint table and `jobs` for the executors.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod evloop;
pub mod hist;
pub mod http;
mod jobs;
pub mod log;
pub mod metrics;
mod routes;
pub mod server;
pub mod signal;
pub mod solvers;
pub mod telemetry;
pub mod trace;

pub use server::{Server, ServerConfig};

use std::sync::{LockResult, Mutex, MutexGuard, PoisonError};

/// Lock `mutex`, tolerating poison: every lock here guards state that
/// is valid at rest, so a panic while holding one cannot leave it
/// half-written, and inheriting it beats wedging every later request.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    unpoisoned(mutex.lock())
}

/// The guard of a lock or a condition-variable wait, poisoned or not.
fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}
