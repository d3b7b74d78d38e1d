//! Request/response bodies for the `llpd` endpoints.
//!
//! Everything speaks `llp::obs::json::Json` — the same hand-rolled,
//! hardened JSON layer the observability reports use — so there is
//! exactly one parser facing untrusted bodies. Parsing here is strict:
//! unknown object keys are rejected (a typo'd field silently falling
//! back to a default is worse than a 400), numbers must be in range,
//! and every list is capped before anything is allocated
//! proportionally to it.

use crate::solvers::{self, AnyCase, KINDS};
use crate::trace::TracedRun;
use llp::advisor::{Advice, Advisor, LoopDecision, MeasuredAdvice};
use llp::obs::attr::KernelOverhead;
use llp::obs::chrome::chrome_trace_with_summary;
use llp::obs::json::Json;
use llp::obs::KernelSummary;
use llp::Policy;
use perfmodel::batch::MAX_BATCH_POINTS;
use perfmodel::overhead::{OverheadBound, PAPER_OVERHEAD_FRACTION};
use perfmodel::stairstep::{ideal_speedup, plateau_edges};
use perfmodel::work_per_sync::{GridNest, LoopLevel};
use perfmodel::{overhead_batch, stairstep_batch, work_per_sync_batch};
use solver::wire::{count_field, SolveFields, SHARED_FIELDS};
use solver::FinishedRun;
use tune::{CalibrationSpec, TuneDb};

/// Maximum loops one advise request may submit.
pub const MAX_ADVISE_LOOPS: usize = 256;
/// Maximum bytes of a loop name in an advise request.
pub const MAX_NAME_BYTES: usize = 128;

/// Parse and check an object body against an exact set of known keys.
fn parse_object<'j>(body: &'j Json, known: &[&str]) -> Result<&'j [(String, Json)], String> {
    let pairs = body.as_object().ok_or("body must be a JSON object")?;
    for (key, _) in pairs {
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown field `{key}`"));
        }
    }
    Ok(pairs)
}

fn require_u64(body: &Json, key: &str) -> Result<u64, String> {
    body.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
}

fn require_finite(body: &Json, key: &str) -> Result<f64, String> {
    match body.get(key).and_then(Json::as_f64) {
        Some(v) if v.is_finite() => Ok(v),
        _ => Err(format!("`{key}` must be a finite number")),
    }
}

// ---------------------------------------------------------------- solve

/// A parsed `POST /v1/solve` body: the bounded case for whichever
/// solver the `"solver"` field selected (the first of [`KINDS`] when
/// omitted), plus
/// whether the client asked for `"schedule": "auto"` — per-kernel
/// configurations resolved from that solver's tune database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveRequest {
    /// The validated case to run.
    pub case: AnyCase,
    /// `true` when the schedule was `"auto"`: the executor overlays
    /// the tune database's per-kernel configurations (falling back to
    /// the case defaults when no database is loaded).
    pub auto: bool,
    /// `true` when the body said `"cache": "bypass"`: execute
    /// unconditionally — no cache lookup, no coalescing with identical
    /// in-flight solves, no cache insert. The escape hatch for
    /// measuring real execution (benchmark baselines, bit-exactness
    /// audits against a cached result).
    pub bypass: bool,
}

/// Parse the shared `"cache"` directive: `"use"` (default) or
/// `"bypass"`.
fn parse_cache_directive(body: &Json) -> Result<bool, String> {
    match body.get("cache") {
        None => Ok(false),
        Some(v) => match v.as_str() {
            Some("use") => Ok(false),
            Some("bypass") => Ok(true),
            _ => Err("`cache` must be \"use\" or \"bypass\"".to_string()),
        },
    }
}

/// Parse the shared `"schedule"`/`"chunk"` pair: `(auto, policy)`.
/// `"auto"` defers per-kernel configuration to the tune database and
/// takes no chunk.
fn parse_schedule(body: &Json) -> Result<(bool, Policy), String> {
    let schedule_name = match body.get("schedule") {
        None => "static",
        Some(v) => v.as_str().ok_or("`schedule` must be a string")?,
    };
    let chunk = match body.get("chunk") {
        None => None,
        Some(v) => Some(
            v.as_usize()
                .ok_or("`chunk` must be a non-negative integer")?,
        ),
    };
    let auto = schedule_name == "auto";
    let schedule = if auto {
        if let Some(c) = chunk {
            return Err(format!(
                "schedule \"auto\" takes no chunk parameter (got chunk {c}); \
                 the tuned per-kernel configurations decide chunking"
            ));
        }
        Policy::Static
    } else {
        Policy::parse(schedule_name, chunk)?
    };
    Ok((auto, schedule))
}

/// Parse a `POST /v1/solve` body into a bounded case. The `"solver"`
/// field selects the physics ([`KINDS`]`[0]` when omitted); every
/// other key is one of the shared fields or belongs to the selected
/// solver's own vocabulary, so a typo'd or foreign field is still a
/// 400. This is the prelude every solver shares: `cache`, then
/// `schedule` (`"static"`, `"dynamic"`, `"guided"`; default static)
/// with `chunk` as the dynamic chunk size / guided floor — only
/// meaningful for the self-scheduled policies and rejected alongside
/// `"static"`; `"schedule": "auto"` defers per-kernel configuration to
/// the solver's tune database and takes no chunk either. The solver
/// then reads its own fields and `steps`, `workers` (default
/// `default_workers`, the shared pool's size) and `vector_width` (1, 2,
/// 4, or 8; default 1 — echoed, cache-keyed and labelled, selecting
/// nothing) off the [`SolveFields`], and validates the case.
///
/// # Errors
/// Unknown solvers, unknown fields, mistyped values, and out-of-cap
/// cases are rejected with a message naming the problem.
pub fn parse_solve_body(text: &str, default_workers: usize) -> Result<SolveRequest, String> {
    let body = Json::parse(text)?;
    let row = match body.get("solver") {
        None => &solvers::TABLE[0],
        Some(v) => solvers::known(v.as_str().ok_or("`solver` must be a string")?)?,
    };
    parse_object(&body, &[&SHARED_FIELDS[..], row.own_fields].concat())?;
    let bypass = parse_cache_directive(&body)?;
    let (auto, schedule) = parse_schedule(&body)?;
    let case = (row.parse)(&SolveFields {
        body: &body,
        schedule,
        default_workers,
    })?;
    Ok(SolveRequest { case, auto, bypass })
}

/// Render the `GET /v1/trace/{id}` attribution body of a retained
/// run: per-worker / per-region overhead split, measured-vs-modeled
/// check, per-kernel overheads. Rendered when it is asked for — the
/// store keeps the run, not this document ([`crate::trace`]).
#[must_use]
pub fn trace_attribution(traced: &TracedRun, trace_id: u64) -> Json {
    Json::object(vec![
        ("trace_id", Json::from_u64(trace_id)),
        ("case", Json::str(&traced.run.case().label())),
        ("attribution", traced.attr.to_json()),
        (
            "kernels",
            Json::Array(traced.kernels.iter().map(KernelOverhead::to_json).collect()),
        ),
    ])
}

/// Render the `GET /v1/trace/{id}?trace=chrome` trace-event document
/// of a retained run, likewise on request.
#[must_use]
pub fn trace_chrome(traced: &TracedRun) -> Json {
    chrome_trace_with_summary(traced.run.timeline(), &traced.attr)
}

/// Render the per-kernel configurations an `"auto"` solve resolved:
/// which source decided (`"tune-db"` or, with no database loaded,
/// `"default"`) and the exact worker count and schedule each kernel
/// ran with.
#[must_use]
pub fn tuned_resolution(db: Option<&TuneDb>) -> Json {
    match db {
        None => Json::object(vec![
            ("source", Json::str("default")),
            ("kernels", Json::Array(Vec::new())),
        ]),
        Some(db) => Json::object(vec![
            ("source", Json::str("tune-db")),
            ("pool_width", Json::from_usize(db.pool_width)),
            (
                "kernels",
                Json::Array(
                    db.entries
                        .iter()
                        .map(|e| {
                            let mut pairs = vec![
                                ("kernel", Json::str(&e.kernel)),
                                ("workers", Json::from_usize(e.workers)),
                                ("schedule", Json::str(e.schedule.name())),
                            ];
                            if let Some(chunk) = e.schedule.chunk_param() {
                                pairs.push(("chunk", Json::from_usize(chunk)));
                            }
                            Json::object(pairs)
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

/// The members of a `/v1/solve` body every copy of one run shares:
/// `solver`, `case`, the result payload, `sync_events` and `report`.
fn solve_head(run: &dyn FinishedRun) -> Vec<(&'static str, Json)> {
    let case = run.case();
    let mut members = vec![("solver", Json::str(case.kind())), ("case", case.echo())];
    members.extend(run.output().payload());
    members.extend([
        ("sync_events", Json::from_u64(run.sync_events())),
        ("report", run.report().to_json()),
    ]);
    members
}

/// The three members in which the copies of one run's body differ.
fn solve_tail(trace_id: Option<u64>, tuned: Json, cache: &str) -> [(&'static str, Json); 3] {
    [
        ("trace_id", trace_id.map_or(Json::Null, Json::from_u64)),
        ("tuned", tuned),
        ("cache", Json::str(cache)),
    ]
}

/// Render a completed run of any solver as the `/v1/solve` response
/// body: the envelope every solver shares around the run's own `case`
/// echo ([`solver::SolverSpec::echo`]) and result payload
/// ([`solver::SolverOutput::payload`]). `trace_id` (when the executor
/// retained a flight trace) tells the client where
/// `GET /v1/trace/{id}` will find the breakdown. `tuned` (for `"auto"`
/// solves) names the resolved per-kernel configurations
/// ([`tuned_resolution`]); explicit solves pass [`Json::Null`]. `cache`
/// reports result provenance: `"miss"` (this request executed, result
/// now cached), `"hit"` (served from the content-addressed cache
/// without re-execution), or `"bypass"` (the request opted out of
/// caching and executed unconditionally).
#[must_use]
pub fn solve_response(
    run: &dyn FinishedRun,
    trace_id: Option<u64>,
    tuned: Json,
    cache: &str,
) -> Json {
    let mut members = solve_head(run);
    members.extend(solve_tail(trace_id, tuned, cache));
    Json::object(members)
}

/// The shared members of one run's `/v1/solve` bodies, serialised once.
/// The executor needs up to `1 + waiters` copies of a body — the cached
/// `"hit"` one and each waiter's `"miss"` — that differ in the last
/// three members only; [`SolveBody::finish`] completes a copy, and each
/// is byte for byte the [`solve_response`] of the same arguments.
pub struct SolveBody {
    /// `{"solver":…,"report":{…}` — the object still open.
    head: String,
}

impl SolveBody {
    /// Render and serialise `run`'s shared members.
    #[must_use]
    pub fn new(run: &dyn FinishedRun) -> Self {
        let mut head = Json::object(solve_head(run)).to_string();
        head.pop(); // the closing brace: `finish` continues the object
        Self { head }
    }

    /// One complete body; arguments as [`solve_response`].
    #[must_use]
    pub fn finish(&self, trace_id: Option<u64>, tuned: Json, cache: &str) -> String {
        let tail = Json::object(solve_tail(trace_id, tuned, cache).into()).to_string();
        let mut body = String::with_capacity(self.head.len() + tail.len());
        body.push_str(&self.head);
        body.push(',');
        body.push_str(&tail[1..]); // past its opening brace
        body
    }
}

/// [`solve_response`] under the name `benchmark/` renders FDTD runs
/// with; there is one renderer.
pub use solve_response as fdtd_solve_response;

// ----------------------------------------------------------------- tune

/// A parsed `POST /v1/tune` body: the calibration spec plus the
/// solver whose database the calibration (re)builds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneRequest {
    /// Which solver to calibrate, one of [`KINDS`] (the first when the
    /// field is omitted).
    pub solver: &'static str,
    /// The bounded calibration case.
    pub spec: CalibrationSpec,
}

/// Parse a `POST /v1/tune` body: an optional object overriding the
/// calibration case (`zones`, `steps`, `trials`) and selecting the
/// solver to calibrate (`"solver"`, default [`KINDS`]`[0]`); an empty
/// body means the defaults.
///
/// # Errors
/// Unknown solvers, unknown fields, mistyped values, and out-of-cap
/// specs are rejected with a message naming the problem.
pub fn parse_tune_body(text: &str) -> Result<TuneRequest, String> {
    let mut spec = CalibrationSpec::default();
    if text.trim().is_empty() {
        return Ok(TuneRequest {
            solver: KINDS[0],
            spec,
        });
    }
    let body = Json::parse(text)?;
    parse_object(&body, &["solver", "zones", "steps", "trials"])?;
    let solver = match body.get("solver") {
        None => KINDS[0],
        Some(v) => solvers::known(v.as_str().ok_or("`solver` must be a string")?)?.kind,
    };
    spec.zones = count_field(&body, "zones", spec.zones)?;
    spec.steps = count_field(&body, "steps", spec.steps)?;
    spec.trials = count_field(&body, "trials", spec.trials)?;
    spec.validate()?;
    Ok(TuneRequest { solver, spec })
}

/// Parse the `GET /v1/tune` query: an optional `solver=<kind>` naming
/// the slot to report; an empty query means [`KINDS`]`[0]`.
///
/// # Errors
/// Unknown parameters, duplicates, and unknown solvers.
pub fn parse_tune_query(query: &str) -> Result<&'static str, String> {
    let pairs = parse_query(query, &["solver"])?;
    query_value(&pairs, "solver").map_or(Ok(KINDS[0]), |name| Ok(solvers::known(name)?.kind))
}

/// Render the `GET /v1/tune` body: the queried solver, its calibration
/// status (`"idle"`, `"calibrating"`, or `"ready"`) and its current
/// database, if any.
#[must_use]
pub fn tune_status_response(solver: &str, status: &str, db: Option<&TuneDb>) -> Json {
    Json::object(vec![
        ("solver", Json::str(solver)),
        ("status", Json::str(status)),
        ("db", db.map_or(Json::Null, TuneDb::to_json)),
    ])
}

/// Render the immediate `POST /v1/tune` acknowledgement: calibration
/// was accepted and runs in the background; poll `GET /v1/tune`.
#[must_use]
pub fn tune_started_response(solver: &str, spec: &CalibrationSpec) -> Json {
    Json::object(vec![
        ("status", Json::str("calibrating")),
        ("solver", Json::str(solver)),
        ("zones", Json::from_usize(spec.zones)),
        ("steps", Json::from_usize(spec.steps)),
        ("trials", Json::from_usize(spec.trials)),
    ])
}

// ------------------------------------------------------------ telemetry

/// Default number of windows `GET /v1/stats` returns when the query
/// does not say.
pub const DEFAULT_STATS_WINDOWS: usize = 12;

/// Parse the `GET /v1/stats` query: an optional `windows=N` (newest-
/// first count of sealed windows to return, at least 1).
///
/// # Errors
/// Unknown parameters, duplicates, and non-positive counts.
pub fn parse_stats_query(query: &str) -> Result<usize, String> {
    let pairs = parse_query(query, &["windows"])?;
    match query_value(&pairs, "windows") {
        None => Ok(DEFAULT_STATS_WINDOWS),
        Some(raw) => {
            let n: usize = raw
                .parse()
                .map_err(|_| "`windows` must be a positive integer".to_string())?;
            if n == 0 {
                return Err("`windows` must be a positive integer".to_string());
            }
            Ok(n)
        }
    }
}

/// Render the `GET /v1/stats` body: whether continuous telemetry is
/// enabled and the series snapshot (`null` when disabled — the shape a
/// scraper can branch on without guessing).
#[must_use]
pub fn stats_response(series: Json, enabled: bool) -> Json {
    Json::object(vec![
        (
            "telemetry",
            Json::str(if enabled { "enabled" } else { "disabled" }),
        ),
        ("series", series),
    ])
}

/// Render the `GET /v1/health` body: `status` is `"ok"`, or
/// `"draining"` once shutdown has begun.
#[must_use]
pub fn health_response(draining: bool, telemetry_enabled: bool, windows_sealed: u64) -> Json {
    let status = if draining { "draining" } else { "ok" };
    Json::object(vec![
        ("status", Json::str(status)),
        ("telemetry", Json::Bool(telemetry_enabled)),
        ("windows_sealed", Json::from_u64(windows_sealed)),
    ])
}

// --------------------------------------------------------------- advise

/// A parsed `POST /v1/advise` body: the machine description and the
/// profiled loops to judge.
#[derive(Debug, Clone)]
pub struct AdviseQuery {
    /// Machine parameters to judge against.
    pub advisor: Advisor,
    /// Profiled loops, in submitted order.
    pub reports: Vec<KernelSummary>,
    /// Zone count for zone-level advice (`U_zones`), when the caller
    /// has a multi-zone case and wants the two-level split judged too.
    pub zones: Option<u64>,
}

/// Parse a `POST /v1/advise` body.
///
/// The body carries the [`Advisor`] machine parameters (`clock_hz`,
/// `sync_cost_cycles`, `processors`, optional `max_overhead_fraction`)
/// and a `loops` array of profile rows (`name`, `invocations`,
/// `total_seconds`, `parallelism`, optional `parallelized`), built into
/// the [`KernelSummary`] rows a span report's `kernel_summaries()`
/// yields (over [`KernelSummary::named`]: `sync_events: 0`,
/// `max_imbalance: 1.0`). [`Advisor::advise`] derives each loop's
/// `fraction_of_total` from the submitted totals.
///
/// # Errors
/// Rejects unknown fields, out-of-range machine parameters (which would
/// panic inside [`Advisor::new`]), oversized loop lists, a `zones`
/// count past [`MAX_BATCH_POINTS`], and mistyped rows.
pub fn parse_advise_body(text: &str) -> Result<AdviseQuery, String> {
    let body = Json::parse(text)?;
    parse_object(
        &body,
        &[
            "clock_hz",
            "sync_cost_cycles",
            "max_overhead_fraction",
            "processors",
            "zones",
            "loops",
        ],
    )?;

    let clock_hz = require_finite(&body, "clock_hz")?;
    if clock_hz <= 0.0 {
        return Err("`clock_hz` must be positive".to_string());
    }
    let sync_cost_cycles = require_u64(&body, "sync_cost_cycles")?;
    let fraction = match body.get("max_overhead_fraction") {
        None => PAPER_OVERHEAD_FRACTION,
        Some(v) => match v.as_f64() {
            Some(f) if f > 0.0 && f <= 1.0 => f,
            _ => return Err("`max_overhead_fraction` must be in (0, 1]".to_string()),
        },
    };
    let processors = require_u64(&body, "processors")?;
    let processors =
        u32::try_from(processors).map_err(|_| "`processors` out of range".to_string())?;
    if processors == 0 {
        return Err("`processors` must be positive".to_string());
    }
    let zones = match body.get("zones") {
        None => None,
        Some(v) => match v.as_u64() {
            Some(z) if z > MAX_BATCH_POINTS as u64 => {
                return Err(format!("`zones` {z} exceeds limit {MAX_BATCH_POINTS}"))
            }
            Some(z) if z >= 1 => Some(z),
            _ => return Err("`zones` must be a positive integer".to_string()),
        },
    };

    let loops = body
        .get("loops")
        .and_then(Json::as_array)
        .ok_or("`loops` must be an array")?;
    if loops.len() > MAX_ADVISE_LOOPS {
        return Err(format!(
            "{} loops exceeds limit {MAX_ADVISE_LOOPS}",
            loops.len()
        ));
    }

    let mut rows = Vec::with_capacity(loops.len());
    for item in loops {
        parse_object(
            item,
            &[
                "name",
                "invocations",
                "total_seconds",
                "parallelism",
                "parallelized",
            ],
        )?;
        let name = item
            .get("name")
            .and_then(Json::as_str)
            .ok_or("loop `name` must be a string")?;
        if name.is_empty() || name.len() > MAX_NAME_BYTES {
            return Err(format!("loop name must be 1..={MAX_NAME_BYTES} bytes"));
        }
        let total_seconds = require_finite(item, "total_seconds")?;
        if total_seconds < 0.0 {
            return Err("`total_seconds` must be non-negative".to_string());
        }
        rows.push(KernelSummary {
            invocations: require_u64(item, "invocations")?,
            seconds: total_seconds,
            parallelized: item
                .get("parallelized")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            parallelism: require_u64(item, "parallelism")?,
            ..KernelSummary::named(name)
        });
    }

    Ok(AdviseQuery {
        advisor: Advisor::new(
            clock_hz,
            OverheadBound {
                sync_cost_cycles,
                max_overhead_fraction: fraction,
            },
            processors,
        ),
        reports: rows,
        zones,
    })
}

/// Judge the zone level: for a case of `zones` zones on the advisor's
/// machine, every stair-step plateau edge of the zone-level law is a
/// candidate split `P = shards × loop_workers`. Each split's combined
/// speedup is the zone-level stair-step (`U_zones / ceil(U_zones/s)`)
/// times the loop-level prediction of an advisor re-targeted at the
/// per-shard worker budget — the paper's multi-level picture, where
/// zone parallelism multiplies with the loop parallelism underneath it
/// instead of competing for the same ceiling.
#[must_use]
pub fn zone_level_advice(zones: u64, reports: &[KernelSummary], advisor: &Advisor) -> Json {
    let pool = advisor.processors;
    let single_level = advisor.advise(reports).predicted_speedup;
    let mut best: Option<(f64, Json)> = None;
    let mut splits = Vec::new();
    for shards in plateau_edges(zones, pool) {
        let zone_speedup = ideal_speedup(zones, shards);
        let loop_workers = (pool / shards).max(1);
        let loop_advisor = Advisor::new(advisor.clock_hz, advisor.bound, loop_workers);
        let loop_speedup = loop_advisor.advise(reports).predicted_speedup;
        let combined = zone_speedup * loop_speedup;
        let split = Json::object(vec![
            ("zone_shards", Json::from_u64(u64::from(shards))),
            ("loop_workers", Json::from_u64(u64::from(loop_workers))),
            ("zone_speedup", Json::Num(zone_speedup)),
            ("loop_speedup", Json::Num(loop_speedup)),
            ("combined_speedup", Json::Num(combined)),
        ]);
        if best.as_ref().is_none_or(|(b, _)| combined > *b) {
            best = Some((combined, split.clone()));
        }
        splits.push(split);
    }
    Json::object(vec![
        ("zones", Json::from_u64(zones)),
        ("pool_width", Json::from_u64(u64::from(pool))),
        ("single_level_speedup", Json::Num(single_level)),
        ("splits", Json::Array(splits)),
        ("best", best.map_or(Json::Null, |(_, s)| s)),
    ])
}

fn decision_json(decision: &LoopDecision) -> Json {
    match decision {
        LoopDecision::Parallelize { predicted_speedup } => Json::object(vec![
            ("kind", Json::str("parallelize")),
            ("predicted_speedup", Json::Num(*predicted_speedup)),
        ]),
        LoopDecision::TooLittleWork {
            work_cycles,
            required_cycles,
        } => Json::object(vec![
            ("kind", Json::str("too_little_work")),
            ("work_cycles", Json::from_u64(*work_cycles)),
            ("required_cycles", Json::from_u64(*required_cycles)),
        ]),
        LoopDecision::NoParallelism => Json::object(vec![("kind", Json::str("no_parallelism"))]),
    }
}

fn measured_json(m: &MeasuredAdvice) -> Json {
    let mut pairs = vec![
        ("workers", Json::from_usize(m.choice.workers)),
        ("schedule", Json::str(m.choice.schedule.name())),
    ];
    if let Some(chunk) = m.choice.schedule.chunk_param() {
        pairs.push(("chunk", Json::from_usize(chunk)));
    }
    pairs.extend([
        (
            "measured_cost_ns",
            Json::from_u64(m.choice.measured_cost_ns),
        ),
        ("modeled_cost_ns", Json::from_u64(m.choice.modeled_cost_ns)),
        ("agrees_with_analytic", Json::Bool(m.agrees_with_analytic)),
    ]);
    Json::object(pairs)
}

/// Render advice as the `/v1/advise` response body. Loops covered by a
/// tune-database entry additionally carry a `measured` block — the
/// calibrated choice, its costs, and whether it agrees with the
/// analytic `schedule` — and a `preferred_schedule` naming the
/// schedule the measured entry (preferred over the analytic answer)
/// selects. `zone_level` is the [`zone_level_advice`] block when the
/// query submitted a zone count, [`Json::Null`] otherwise.
#[must_use]
pub fn advise_response(advice: &Advice, zone_level: Json) -> Json {
    Json::object(vec![
        ("zone_level", zone_level),
        (
            "loops",
            Json::Array(
                advice
                    .loops
                    .iter()
                    .map(|l| {
                        let mut pairs = vec![
                            ("name", Json::str(&l.name)),
                            ("fraction_of_total", Json::Num(l.fraction_of_total)),
                            ("decision", decision_json(&l.decision)),
                            ("schedule", Json::str(l.schedule.name())),
                        ];
                        if let Some(chunk) = l.schedule.chunk_param() {
                            pairs.push(("chunk", Json::from_usize(chunk)));
                        }
                        if let Some(m) = &l.measured {
                            pairs.push(("measured", measured_json(m)));
                            pairs.push((
                                "preferred_schedule",
                                Json::str(l.preferred_schedule().name()),
                            ));
                        }
                        Json::object(pairs)
                    })
                    .collect(),
            ),
        ),
        ("serial_fraction", Json::Num(advice.serial_fraction)),
        ("predicted_speedup", Json::Num(advice.predicted_speedup)),
    ])
}

// ---------------------------------------------------------------- model

/// Split a query string into key/value pairs, rejecting keys outside
/// `known` and duplicate keys.
fn parse_query<'q>(query: &'q str, known: &[&str]) -> Result<Vec<(&'q str, &'q str)>, String> {
    let mut pairs = Vec::new();
    for part in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = part.split_once('=').unwrap_or((part, ""));
        if !known.contains(&key) {
            return Err(format!("unknown query parameter `{key}`"));
        }
        if pairs.iter().any(|&(k, _)| k == key) {
            return Err(format!("duplicate query parameter `{key}`"));
        }
        pairs.push((key, value));
    }
    Ok(pairs)
}

fn query_value<'q>(pairs: &[(&'q str, &'q str)], key: &str) -> Option<&'q str> {
    pairs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
}

fn require_query_u64(pairs: &[(&str, &str)], key: &str) -> Result<u64, String> {
    query_value(pairs, key)
        .ok_or_else(|| format!("missing query parameter `{key}`"))?
        .parse()
        .map_err(|_| format!("`{key}` must be a non-negative integer"))
}

fn parse_u64_list(raw: &str, key: &str) -> Result<Vec<u64>, String> {
    raw.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.parse()
                .map_err(|_| format!("`{key}` must be a comma-separated integer list"))
        })
        .collect()
}

fn parse_u32_list(raw: &str, key: &str) -> Result<Vec<u32>, String> {
    parse_u64_list(raw, key)?
        .into_iter()
        .map(|v| u32::try_from(v).map_err(|_| format!("`{key}` entry out of range")))
        .collect()
}

/// Answer a `GET /v1/model/{kind}` query.
///
/// * `stairstep?units=15&processors=1,2,4` — the Table 3 / Figure 1 law;
/// * `overhead?sync_cost=10000&processors=2,8&fraction=0.01` — Table 1;
/// * `work_per_sync?dims=100,100,100&work_per_point=10&levels=outer` —
///   Table 2 (omitting `levels` evaluates every level the nest has).
///
/// # Errors
/// Unknown kinds, unknown/duplicate/missing parameters, and model
/// domain errors come back as messages for a 400 response.
pub fn model_response(kind: &str, query: &str) -> Result<Json, String> {
    match kind {
        "stairstep" => {
            let pairs = parse_query(query, &["units", "processors"])?;
            let units = require_query_u64(&pairs, "units")?;
            let processors = parse_u32_list(
                query_value(&pairs, "processors").ok_or("missing query parameter `processors`")?,
                "processors",
            )?;
            let points = stairstep_batch(units, &processors)?;
            Ok(Json::object(vec![
                ("units", Json::from_u64(units)),
                (
                    "points",
                    Json::Array(
                        points
                            .iter()
                            .map(|p| {
                                Json::object(vec![
                                    ("processors", Json::from_u64(u64::from(p.processors))),
                                    ("speedup", Json::Num(p.speedup)),
                                    (
                                        "max_units_per_processor",
                                        Json::from_u64(p.max_units_per_processor),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]))
        }
        "overhead" => {
            let pairs = parse_query(query, &["sync_cost", "fraction", "processors"])?;
            let sync_cost = require_query_u64(&pairs, "sync_cost")?;
            let fraction = match query_value(&pairs, "fraction") {
                None => PAPER_OVERHEAD_FRACTION,
                Some(raw) => raw
                    .parse()
                    .map_err(|_| "`fraction` must be a number".to_string())?,
            };
            let processors = parse_u32_list(
                query_value(&pairs, "processors").ok_or("missing query parameter `processors`")?,
                "processors",
            )?;
            let points = overhead_batch(sync_cost, fraction, &processors)?;
            Ok(Json::object(vec![
                ("sync_cost_cycles", Json::from_u64(sync_cost)),
                ("max_overhead_fraction", Json::Num(fraction)),
                (
                    "points",
                    Json::Array(
                        points
                            .iter()
                            .map(|p| {
                                Json::object(vec![
                                    ("processors", Json::from_u64(u64::from(p.processors))),
                                    ("min_work_cycles", Json::from_u64(p.min_work_cycles)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]))
        }
        "work_per_sync" => {
            let pairs = parse_query(query, &["dims", "work_per_point", "levels"])?;
            let dims = parse_u64_list(
                query_value(&pairs, "dims").ok_or("missing query parameter `dims`")?,
                "dims",
            )?;
            let nest = GridNest::from_dims(&dims)
                .ok_or("`dims` must be 1-3 positive extents whose product fits in u64")?;
            let work_per_point = require_query_u64(&pairs, "work_per_point")?;
            let levels: Vec<LoopLevel> = match query_value(&pairs, "levels") {
                None => LoopLevel::ALL
                    .into_iter()
                    .filter(|&lv| nest.points_per_sync(lv).is_some())
                    .collect(),
                Some(raw) => raw
                    .split(',')
                    .filter(|p| !p.is_empty())
                    .map(|name| {
                        LoopLevel::from_name(name)
                            .ok_or_else(|| format!("unknown loop level `{name}`"))
                    })
                    .collect::<Result<_, _>>()?,
            };
            let points = work_per_sync_batch(nest, work_per_point, &levels)?;
            Ok(Json::object(vec![
                (
                    "dims",
                    Json::Array(dims.iter().map(|&d| Json::from_u64(d)).collect()),
                ),
                ("work_per_point", Json::from_u64(work_per_point)),
                (
                    "points",
                    Json::Array(
                        points
                            .iter()
                            .map(|p| {
                                Json::object(vec![
                                    ("level", Json::str(p.level.name())),
                                    ("points_per_sync", Json::from_u64(p.points_per_sync)),
                                    ("cycles", Json::from_u64(p.cycles)),
                                    (
                                        "available_parallelism",
                                        Json::from_u64(p.available_parallelism),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]))
        }
        other => Err(format!("unknown model `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    //! What a solve body parses *to*; every rejection and its exact
    //! 400 text is a row of `tests/golden/solve_rejections.tsv`.

    use super::*;
    use f3d::service::{ServiceCase, ZoneSchedule};
    use fdtd::FdtdCase;
    use solver::SolverSpec;

    /// Unwrap the f3d case a parsed request carries.
    fn f3d_case(req: &SolveRequest) -> ServiceCase {
        match &req.case {
            AnyCase::F3d(c) => *c,
            other => panic!("expected an f3d case, got {other:?}"),
        }
    }

    fn fdtd_case(req: &SolveRequest) -> FdtdCase {
        match &req.case {
            AnyCase::Fdtd(c) => *c,
            other => panic!("expected an fdtd case, got {other:?}"),
        }
    }

    /// The executor's spliced copies against the one-tree rendering the
    /// goldens pin: every provenance × trace id × tuned block, for
    /// every solver of the table.
    #[test]
    fn solve_body_copies_equal_the_single_tree_rendering() {
        for row in &solvers::TABLE {
            let body = format!(r#"{{"solver": "{}", "steps": 2}}"#, row.kind);
            let case = parse_solve_body(&body, 2).unwrap().case;
            let run = case.run(&llp::Workers::recorded(2), None).unwrap();
            let spec = CalibrationSpec {
                zones: 1,
                steps: 1,
                trials: 1,
            };
            let db = (row.calibrate)(&llp::Workers::new(1), &spec).unwrap();
            let shared = SolveBody::new(&*run);
            for cache in ["hit", "miss", "bypass"] {
                for trace_id in [None, Some(7), Some((1 << 53) - 1)] {
                    for tuned in [
                        Json::Null,
                        tuned_resolution(None),
                        tuned_resolution(Some(&db)),
                    ] {
                        assert_eq!(
                            shared.finish(trace_id, tuned.clone(), cache),
                            solve_response(&*run, trace_id, tuned, cache).to_string(),
                            "{} {cache} {trace_id:?}",
                            row.kind
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn solve_body_defaults() {
        let req = parse_solve_body("{}", 4).unwrap();
        assert!(!req.auto);
        assert_eq!(
            f3d_case(&req),
            ServiceCase {
                zones: 3,
                steps: 4,
                workers: 4,
                schedule: Policy::Static,
                zone_schedule: ZoneSchedule::Sequential,
                vector_width: 1,
            }
        );
        let req = parse_solve_body(r#"{"zones": 2, "steps": 8, "workers": 1}"#, 4).unwrap();
        assert_eq!(
            f3d_case(&req),
            ServiceCase {
                zones: 2,
                steps: 8,
                workers: 1,
                schedule: Policy::Static,
                zone_schedule: ZoneSchedule::Sequential,
                vector_width: 1,
            }
        );
    }

    #[test]
    fn solve_body_selects_a_solver() {
        // An explicit f3d spelling parses identically to the omitted
        // default.
        let explicit = parse_solve_body(r#"{"solver": "f3d", "zones": 2}"#, 4).unwrap();
        let omitted = parse_solve_body(r#"{"zones": 2}"#, 4).unwrap();
        assert_eq!(explicit, omitted);

        let req = parse_solve_body(r#"{"solver": "fdtd"}"#, 4).unwrap();
        assert_eq!(
            fdtd_case(&req),
            FdtdCase {
                size: 16,
                steps: 4,
                workers: 4,
                schedule: Policy::Static,
                vector_width: 1,
            }
        );
        let req = parse_solve_body(
            r#"{"solver": "fdtd", "size": 32, "steps": 2, "workers": 2,
                "schedule": "dynamic", "chunk": 3, "vector_width": 4}"#,
            4,
        )
        .unwrap();
        let case = fdtd_case(&req);
        assert_eq!((case.size, case.steps, case.workers), (32, 2, 2));
        assert_eq!(case.schedule, Policy::Dynamic { chunk: 3 });
        assert_eq!(case.vector_width, 4);
        // auto and cache directives work for every solver.
        let req = parse_solve_body(r#"{"solver": "fdtd", "schedule": "auto"}"#, 4).unwrap();
        assert!(req.auto);
        let req = parse_solve_body(r#"{"solver": "fdtd", "cache": "bypass"}"#, 4).unwrap();
        assert!(req.bypass);
    }

    #[test]
    fn solve_body_selects_a_schedule() {
        let req = parse_solve_body(r#"{"schedule": "dynamic", "chunk": 2}"#, 4).unwrap();
        assert_eq!(req.case.spec().schedule(), Policy::Dynamic { chunk: 2 });
        assert!(!req.auto);
        let req = parse_solve_body(r#"{"schedule": "dynamic"}"#, 4).unwrap();
        assert_eq!(req.case.spec().schedule(), Policy::Dynamic { chunk: 1 });
        let req = parse_solve_body(r#"{"schedule": "guided", "chunk": 3}"#, 4).unwrap();
        assert_eq!(req.case.spec().schedule(), Policy::Guided { min_chunk: 3 });
        let req = parse_solve_body(r#"{"schedule": "static"}"#, 4).unwrap();
        assert_eq!(req.case.spec().schedule(), Policy::Static);
    }

    #[test]
    fn solve_body_auto_defers_to_the_tune_db() {
        let req = parse_solve_body(r#"{"schedule": "auto"}"#, 4).unwrap();
        assert!(req.auto);
        // The case itself carries the static default; the executor
        // overlays the per-kernel configurations at run time.
        assert_eq!(req.case.spec().schedule(), Policy::Static);
    }

    #[test]
    fn solve_body_selects_a_zone_schedule() {
        let req = parse_solve_body(r#"{"zones": 4, "zone_schedule": 2}"#, 4).unwrap();
        assert_eq!(f3d_case(&req).zone_schedule, ZoneSchedule::Zones(2));
        let req = parse_solve_body(r#"{"zone_schedule": "sequential"}"#, 4).unwrap();
        assert_eq!(f3d_case(&req).zone_schedule, ZoneSchedule::Sequential);
        let req = parse_solve_body("{}", 4).unwrap();
        assert_eq!(f3d_case(&req).zone_schedule, ZoneSchedule::Sequential);
    }

    #[test]
    fn tune_body_defaults_overrides_and_caps() {
        let req = parse_tune_body("").unwrap();
        assert_eq!(req.spec, CalibrationSpec::default());
        assert_eq!(req.solver, "f3d");
        let req = parse_tune_body(r#"{"zones": 1, "steps": 3, "trials": 1}"#).unwrap();
        let spec = req.spec;
        assert_eq!((spec.zones, spec.steps, spec.trials), (1, 3, 1));
        // The solver field picks whose database gets rebuilt.
        let req = parse_tune_body(r#"{"solver": "fdtd", "trials": 1}"#).unwrap();
        assert_eq!(req.solver, "fdtd");
        let err = parse_tune_body(r#"{"solver": "mhd"}"#).unwrap_err();
        assert!(err.contains("f3d") && err.contains("fdtd"), "{err}");
        assert!(parse_tune_body(r#"{"solver": 1}"#).is_err());
        assert!(parse_tune_body(r#"{"zones": 99}"#).is_err());
        assert!(parse_tune_body(r#"{"trials": 0}"#).is_err());
        assert!(parse_tune_body("[1]").is_err());
    }

    #[test]
    fn tuned_resolution_names_source_and_kernels() {
        let none = tuned_resolution(None);
        assert_eq!(none.get("source").and_then(Json::as_str), Some("default"));
        let db = TuneDb {
            schema_version: tune::TUNE_SCHEMA_VERSION,
            solver: "f3d".to_string(),
            pool_width: 2,
            zones: 1,
            steps: 1,
            trials: 1,
            sync_cost_ns: 500,
            entries: vec![tune::TuneEntry {
                kernel: "rhs".to_string(),
                workers: 2,
                schedule: Policy::Dynamic { chunk: 2 },
                iterations: 10,
                candidates_tried: 4,
                measured_cost_ns: 100,
                default_cost_ns: 120,
                modeled_cost_ns: 90,
                model_agrees: true,
            }],
        };
        let some = tuned_resolution(Some(&db));
        assert_eq!(some.get("source").and_then(Json::as_str), Some("tune-db"));
        let kernels = some.get("kernels").and_then(Json::as_array).unwrap();
        assert_eq!(kernels[0].get("kernel").and_then(Json::as_str), Some("rhs"));
        assert_eq!(kernels[0].get("workers").and_then(Json::as_u64), Some(2));
        assert_eq!(
            kernels[0].get("schedule").and_then(Json::as_str),
            Some("dynamic")
        );
        assert_eq!(kernels[0].get("chunk").and_then(Json::as_u64), Some(2));
        assert!(kernels[0].get("vector_width").is_none());
    }

    #[test]
    fn solve_body_selects_a_vector_width() {
        let req = parse_solve_body(r#"{"vector_width": 4}"#, 4).unwrap();
        assert_eq!(req.case.spec().vector_width(), 4);
        // An explicit scalar width parses to the same case as omission.
        let explicit = parse_solve_body(r#"{"vector_width": 1}"#, 4).unwrap();
        let omitted = parse_solve_body("{}", 4).unwrap();
        assert_eq!(explicit.case, omitted.case);
        assert_eq!(
            f3d_case(&explicit).canonical_string(),
            f3d_case(&omitted).canonical_string()
        );
    }

    #[test]
    fn advise_body_round_trips_through_the_advisor() {
        let body = r#"{
            "clock_hz": 300e6,
            "sync_cost_cycles": 10000,
            "processors": 32,
            "loops": [
                {"name": "rhs", "invocations": 10, "total_seconds": 90.0, "parallelism": 320},
                {"name": "bc", "invocations": 1000, "total_seconds": 10.0, "parallelism": 75}
            ]
        }"#;
        let q = parse_advise_body(body).unwrap();
        assert_eq!(q.reports.len(), 2);
        let advice = q.advisor.advise(&q.reports);
        assert!((advice.loops[0].fraction_of_total - 0.9).abs() < 1e-12);
        assert!((advice.serial_fraction - 0.1).abs() < 1e-9);
        let json = advise_response(&advice, Json::Null);
        let loops = json.get("loops").unwrap().as_array().unwrap();
        assert_eq!(
            loops[0]
                .get("decision")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str(),
            Some("parallelize")
        );
        assert_eq!(
            loops[1]
                .get("decision")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str(),
            Some("too_little_work")
        );
    }

    #[test]
    fn advise_reports_zone_level_parallelism() {
        // A machine with plenty of processors but a loop whose own
        // parallelism caps out: the zone level multiplies on top.
        let body = r#"{
            "clock_hz": 300e6,
            "sync_cost_cycles": 100,
            "processors": 8,
            "zones": 4,
            "loops": [
                {"name": "rhs", "invocations": 10, "total_seconds": 90.0, "parallelism": 320}
            ]
        }"#;
        let q = parse_advise_body(body).unwrap();
        assert_eq!(q.zones, Some(4));
        let zone = zone_level_advice(4, &q.reports, &q.advisor);
        assert_eq!(zone.get("zones").and_then(Json::as_u64), Some(4));
        assert_eq!(zone.get("pool_width").and_then(Json::as_u64), Some(8));
        let splits = zone.get("splits").and_then(Json::as_array).unwrap();
        // Plateau edges of U_zones = 4 on 8 processors: s = 1, 2, 4.
        let shards: Vec<u64> = splits
            .iter()
            .map(|s| s.get("zone_shards").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(shards, vec![1, 2, 4]);
        for s in splits {
            let zs = s.get("zone_speedup").unwrap().as_f64().unwrap();
            let ls = s.get("loop_speedup").unwrap().as_f64().unwrap();
            let combined = s.get("combined_speedup").unwrap().as_f64().unwrap();
            assert_eq!(combined, zs * ls);
        }
        // The zone-level stair-step at s = 4 is the full U_zones.
        assert_eq!(splits[2].get("zone_speedup").unwrap().as_f64(), Some(4.0));
        assert_eq!(splits[2].get("loop_workers").unwrap().as_u64(), Some(2));
        let best = zone.get("best").unwrap();
        assert!(best.get("combined_speedup").unwrap().as_f64().unwrap() >= 1.0);
        // The block rides the advise response; loop advice is intact.
        let advice = q.advisor.advise(&q.reports);
        let json = advise_response(&advice, zone);
        assert!(json.get("zone_level").unwrap().get("splits").is_some());
        assert_eq!(json.get("loops").unwrap().as_array().unwrap().len(), 1);
        // Without a zone count the query parses to None and the
        // response block is null.
        let q = parse_advise_body(
            r#"{"clock_hz": 1e9, "sync_cost_cycles": 1, "processors": 8, "loops": []}"#,
        )
        .unwrap();
        assert_eq!(q.zones, None);
        assert!(parse_advise_body(
            r#"{"clock_hz": 1e9, "sync_cost_cycles": 1, "processors": 8, "zones": 0, "loops": []}"#
        )
        .is_err());
    }

    #[test]
    fn advise_body_rejects_bad_machines() {
        let with = |patch: &str| {
            format!(
                r#"{{"clock_hz": 300e6, "sync_cost_cycles": 10000, "processors": 8, "loops": []{patch}}}"#
            )
        };
        assert!(parse_advise_body(&with("")).is_ok());
        assert!(parse_advise_body(&with(r#", "max_overhead_fraction": 0.0"#)).is_err());
        assert!(parse_advise_body(&with(r#", "max_overhead_fraction": 2.0"#)).is_err());
        assert!(parse_advise_body(&with(r#", "surprise": 1"#)).is_err());
        assert!(parse_advise_body(
            r#"{"clock_hz": 0, "sync_cost_cycles": 1, "processors": 8, "loops": []}"#
        )
        .is_err());
        assert!(parse_advise_body(
            r#"{"clock_hz": 1e9, "sync_cost_cycles": 1, "processors": 0, "loops": []}"#
        )
        .is_err());
        assert!(parse_advise_body(
            r#"{"clock_hz": 1e9, "sync_cost_cycles": 1, "processors": 8, "loops": [{"name": ""}]}"#
        )
        .is_err());
    }

    #[test]
    fn stairstep_query_reproduces_table3() {
        let j = model_response("stairstep", "units=15&processors=1,4,8,15").unwrap();
        let points = j.get("points").unwrap().as_array().unwrap();
        let speedups: Vec<f64> = points
            .iter()
            .map(|p| p.get("speedup").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(speedups, vec![1.0, 3.75, 7.5, 15.0]);
    }

    #[test]
    fn overhead_query_reproduces_table1() {
        let j = model_response("overhead", "sync_cost=100000&processors=2,128").unwrap();
        let points = j.get("points").unwrap().as_array().unwrap();
        assert_eq!(
            points[0].get("min_work_cycles").unwrap().as_u64(),
            Some(20_000_000)
        );
        assert_eq!(
            points[1].get("min_work_cycles").unwrap().as_u64(),
            Some(1_280_000_000)
        );
    }

    #[test]
    fn work_per_sync_query_reproduces_table2() {
        let j = model_response(
            "work_per_sync",
            "dims=100,100,100&work_per_point=10&levels=inner,middle,outer",
        )
        .unwrap();
        let points = j.get("points").unwrap().as_array().unwrap();
        let cycles: Vec<u64> = points
            .iter()
            .map(|p| p.get("cycles").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(cycles, vec![1_000, 100_000, 10_000_000]);
        // Omitting levels answers every level of the nest.
        let j = model_response("work_per_sync", "dims=1000000&work_per_point=10").unwrap();
        assert_eq!(j.get("points").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn model_queries_reject_garbage() {
        assert!(model_response("galaxy", "").is_err());
        assert!(model_response("stairstep", "units=15").is_err());
        assert!(model_response("stairstep", "units=0&processors=1").is_err());
        assert!(model_response("stairstep", "units=15&processors=1&junk=2").is_err());
        assert!(model_response("stairstep", "units=15&processors=1&units=2").is_err());
        assert!(model_response("overhead", "sync_cost=1&processors=0").is_err());
        assert!(model_response("overhead", "sync_cost=1&fraction=nope&processors=1").is_err());
        assert!(model_response("work_per_sync", "dims=10,10&work_per_point=0").is_err());
        assert!(
            model_response("work_per_sync", "dims=10,10&work_per_point=1&levels=middle").is_err()
        );
        assert!(model_response(
            "work_per_sync",
            "dims=18446744073709551615,3&work_per_point=1"
        )
        .is_err());
    }
}
