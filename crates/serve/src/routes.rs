//! Routing: one table names every endpoint once.
//!
//! A [`ROUTES`] row is an endpoint: its path (ending in `/`, a prefix),
//! the verbs it accepts, the label `/metrics` counts it under, and its
//! handler. [`route`] finds the row, counts the request, answers a 404
//! or 405 itself and otherwise calls the handler, which answers inline
//! on the event loop (`/metrics`, `/v1/model/*`, `/v1/trace/*`,
//! `/v1/tune`, …) or hands back a job for the executors
//! ([`crate::jobs`]). [`crate::metrics::ENDPOINTS`] is the rows' labels
//! in row order, then [`UNROUTED`], so adding an endpoint is one row
//! and one handler.

use crate::api;
use crate::http::{Request, Response};
use crate::jobs::JobKind;
use crate::lock;
use crate::server::Shared;
use crate::solvers::{self, MAX_WORKERS};
use crate::telemetry::Windows;
use llp::obs::json::Json;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;

/// What [`route`] decided: answer now, or queue a job.
pub(crate) enum RouteOutcome {
    Inline(Response),
    Submit(JobKind),
}
use RouteOutcome::{Inline, Submit};

/// An endpoint handler: the request, the path past the row's prefix
/// (empty for an exact path), and the server.
type Handler = fn(&Request, &str, &Arc<Shared>) -> RouteOutcome;

/// One endpoint: its path (one ending in `/` is a prefix), the verbs it
/// accepts (a 405 names the first), its `requests_by_endpoint_total`
/// label, and its handler.
struct Route(&'static str, &'static [&'static str], &'static str, Handler);

/// Every endpoint, in `/metrics` label order. `/v1/tune` speaks both
/// verbs: `POST` starts a calibration, `GET` polls it.
const ROUTES: [Route; 8] = [
    Route("/v1/solve", &["POST"], "solve", solve),
    Route("/v1/advise", &["POST"], "advise", advise),
    Route("/v1/model/", &["GET"], "model", model),
    Route("/metrics", &["GET"], "metrics", metrics),
    Route("/v1/trace/", &["GET"], "trace", trace),
    Route("/v1/tune", &["GET", "POST"], "tune", tune),
    Route("/v1/health", &["GET"], "health", health),
    Route("/v1/stats", &["GET"], "stats", stats),
];

/// The label of a request no row matches, or that never framed.
pub(crate) const UNROUTED: &str = "other";

/// Every endpoint label: the rows', then [`UNROUTED`].
pub(crate) const LABELS: [&str; ROUTES.len() + 1] = {
    let mut labels = [UNROUTED; ROUTES.len() + 1];
    let mut i = 0;
    while i < ROUTES.len() {
        labels[i] = ROUTES[i].2;
        i += 1;
    }
    labels
};

/// Find the request's row, count the request under its label, answer
/// 404 or 405 here, else call the row's handler.
pub(crate) fn route(request: &Request, shared: &Arc<Shared>) -> RouteOutcome {
    let path = request.path.as_str();
    let found = ROUTES.iter().find_map(|row| {
        if row.0.ends_with('/') {
            path.strip_prefix(row.0).map(|rest| (row, rest))
        } else {
            (path == row.0).then_some((row, ""))
        }
    });
    let Some((Route(_, verbs, label, handler), rest)) = found else {
        shared.metrics.request(UNROUTED);
        return Inline(Response::error(404, &format!("no route for {path}")));
    };
    shared.metrics.request(label);
    if !verbs.contains(&request.method.as_str()) {
        let verb = verbs[0];
        return Inline(Response::error(405, &format!("{path} requires {verb}")));
    }
    handler(request, rest, shared)
}

fn solve(request: &Request, _: &str, shared: &Arc<Shared>) -> RouteOutcome {
    let default_workers = shared.pool.processors().min(MAX_WORKERS);
    match api::parse_solve_body(&request.body, default_workers) {
        Ok(req) => Submit(JobKind::Solve(req)),
        Err(msg) => Inline(Response::error(400, &msg)),
    }
}

fn advise(request: &Request, _: &str, _: &Arc<Shared>) -> RouteOutcome {
    match api::parse_advise_body(&request.body) {
        Ok(query) => Submit(JobKind::Advise(Box::new(query))),
        Err(msg) => Inline(Response::error(400, &msg)),
    }
}

fn model(request: &Request, kind: &str, _: &Arc<Shared>) -> RouteOutcome {
    Inline(match api::model_response(kind, &request.query) {
        Ok(json) => Response::ok(json.to_string()),
        Err(msg) => Response::error(400, &msg),
    })
}

/// `GET /metrics`: Prometheus text exposition by default, the JSON
/// form via `?format=json` or an `Accept: application/json` header.
/// `?format=prometheus` forces the text form regardless of `Accept`.
fn metrics(request: &Request, _: &str, shared: &Arc<Shared>) -> RouteOutcome {
    let json = match request.query.as_str() {
        "format=json" => true,
        "format=prometheus" => false,
        "" => request.accept.contains("application/json"),
        other => {
            return Inline(Response::error(
                400,
                &format!("unknown query `{other}` (use ?format=json or ?format=prometheus)"),
            ))
        }
    };
    let snapshot = shared.snapshot();
    Inline(if json {
        Response::ok(snapshot.to_json().to_string())
    } else {
        Response::prometheus(snapshot.to_prometheus())
    })
}

fn trace(request: &Request, raw: &str, shared: &Arc<Shared>) -> RouteOutcome {
    Inline(match raw.parse::<u64>() {
        Err(_) => Response::error(400, "trace id must be a non-negative integer"),
        Ok(id) => match shared.traces.get(id) {
            None => Response::error(404, &format!("no trace {id} (evicted or never existed)")),
            // The store retains the run; the document asked for is
            // rendered here, for the reader who did come.
            Some(entry) => match request.query.as_str() {
                "" => Response::ok(api::trace_attribution(&entry.run, id).to_string()),
                "trace=chrome" => Response::ok(api::trace_chrome(&entry.run).to_string()),
                other => {
                    Response::error(400, &format!("unknown query `{other}` (use ?trace=chrome)"))
                }
            },
        },
    })
}

fn tune(request: &Request, _: &str, shared: &Arc<Shared>) -> RouteOutcome {
    if request.method == "POST" {
        return Inline(start_calibration(shared, &request.body));
    }
    Inline(match api::parse_tune_query(&request.query) {
        Err(msg) => Response::error(400, &msg),
        Ok(solver) => {
            // Flag before slot: a finishing calibration fills the slot
            // and then clears the flag, so a status other than
            // `calibrating` always comes with its result.
            let calibrating = *lock(&shared.tune.calibrating) == Some(solver);
            let db = shared.tune_db(solver);
            let status = if calibrating {
                "calibrating"
            } else if db.is_some() {
                "ready"
            } else {
                "idle"
            };
            Response::ok(api::tune_status_response(solver, status, db.as_deref()).to_string())
        }
    })
}

/// `GET /v1/health`: liveness (`ok` or `draining`) and the telemetry
/// clock.
fn health(_: &Request, _: &str, shared: &Arc<Shared>) -> RouteOutcome {
    let windows = shared.telemetry.as_ref();
    let body = api::health_response(
        shared.jobs.draining(),
        windows.is_some(),
        windows.map_or(0, Windows::windows_sealed),
    );
    Inline(Response::ok(body.to_string()))
}

fn stats(request: &Request, _: &str, shared: &Arc<Shared>) -> RouteOutcome {
    Inline(match api::parse_stats_query(&request.query) {
        Err(msg) => Response::error(400, &msg),
        Ok(newest) => {
            let telemetry = shared.telemetry.as_ref();
            let series = telemetry.map_or(Json::Null, |windows| windows.to_json(newest));
            Response::ok(api::stats_response(series, telemetry.is_some()).to_string())
        }
    })
}

/// `POST /v1/tune`: start a bounded background calibration.
///
/// At most one calibration runs at a time — a second request while one
/// is in flight gets `429`. The calibration runs on its own thread with
/// its own recorder and flight rings (`calibrate_solver` instruments
/// its own view) over the pool's full width. Like an executor it shares
/// the one team region by region: while solves run, a calibration
/// region takes only the helpers they leave free, and its timings
/// include theirs. With the `job_gate` test
/// hook installed the calibration honors the gate before starting, so
/// tests can pin it mid-flight; the hook changes nothing about how
/// winners are selected. A completed calibration bumps the tune
/// generation, which invalidates every cached `auto` solve (their
/// content keys embed the generation).
fn start_calibration(shared: &Arc<Shared>, body: &str) -> Response {
    if shared.jobs.draining() {
        return Response::error(503, "shutting down");
    }
    let req = match api::parse_tune_body(body) {
        Ok(req) => req,
        Err(msg) => return Response::error(400, &msg),
    };
    {
        let mut calibrating = lock(&shared.tune.calibrating);
        if calibrating.is_some() {
            return Response::error(429, "calibration already running").with_retry_after(1);
        }
        *calibrating = Some(req.solver);
    }
    let started = api::tune_started_response(req.solver, &req.spec);
    let api::TuneRequest { solver, spec } = req;
    let shared = Arc::clone(shared);
    thread::spawn(move || {
        if let Some(gate) = &shared.config.job_gate {
            drop(lock(gate));
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (solvers::known(solver)?.calibrate)(&shared.pool, &spec)
        }));
        match outcome {
            Ok(Ok(db)) => {
                lock(&shared.tune.db).insert(db.solver.clone(), Arc::new(db));
                shared.tune.generation.fetch_add(1, Ordering::SeqCst);
            }
            Ok(Err(msg)) => eprintln!("llpd: calibration failed: {msg}"),
            Err(_) => eprintln!("llpd: calibration panicked"),
        }
        *lock(&shared.tune.calibrating) = None;
    });
    Response::ok(started.to_string())
}
