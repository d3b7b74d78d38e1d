//! The part of the `/v1/solve` wire vocabulary every solver shares:
//! the request fields a body may carry whatever its `"solver"`, and
//! the member order of the `case` echo. A solver states only what is
//! its own ([`crate::Solver::OWN_FIELDS`], read in
//! [`crate::SolverSpec::from_request`]) and takes the rest from
//! [`SolveFields`], so a shared field has one name, one default and one
//! error text.

use crate::SolverSpec;
use llp::obs::json::Json;
use llp::Policy;

/// The request fields every solver accepts. The serving layer reads
/// `solver`, `cache`, `schedule` and `chunk` before any solver sees the
/// body; the other three are read through [`SolveFields`].
pub const SHARED_FIELDS: [&str; 7] = [
    "solver",
    "steps",
    "workers",
    "schedule",
    "chunk",
    "cache",
    "vector_width",
];

/// A counted request field: `default` when omitted.
///
/// # Errors
/// Anything but a non-negative integer is rejected, naming the field.
pub fn count_field(body: &Json, key: &str, default: usize) -> Result<usize, String> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

/// A solve request body on its way to becoming a case: unknown fields
/// already rejected, the schedule already parsed. The counted shared
/// fields are read on demand ([`count_field`], same errors), so a body
/// with several mistyped fields names the first the case reads.
#[derive(Debug, Clone, Copy)]
pub struct SolveFields<'j> {
    /// The request body, for the solver's own members.
    pub body: &'j Json,
    /// What `schedule` + `chunk` spelled (static if omitted or `"auto"`).
    pub schedule: Policy,
    /// What an omitted `workers` means: the serving pool's size.
    pub default_workers: usize,
}

impl SolveFields<'_> {
    /// One of the solver's own counted fields.
    pub fn count(&self, key: &str, default: usize) -> Result<usize, String> {
        count_field(self.body, key, default)
    }

    /// `steps` (default 4).
    pub fn steps(&self) -> Result<usize, String> {
        self.count("steps", 4)
    }

    /// `workers` (default [`SolveFields::default_workers`]).
    pub fn workers(&self) -> Result<usize, String> {
        self.count("workers", self.default_workers)
    }

    /// `vector_width` (default 1: an explicit `1` and an omitted field
    /// parse to the same case, hence the same cache key).
    pub fn vector_width(&self) -> Result<usize, String> {
        self.count("vector_width", 1)
    }
}

/// The `case` echo of a solve response, in the member order every
/// solver shares: the solver's size field, `steps`, `workers`,
/// `schedule` (plus `chunk` for the self-scheduled policies), the
/// solver's `own` knobs, `vector_width`.
#[must_use]
pub fn echo(
    spec: &dyn SolverSpec,
    size: (&'static str, usize),
    own: Vec<(&'static str, Json)>,
) -> Json {
    let schedule = spec.schedule();
    let mut members = vec![
        (size.0, Json::from_usize(size.1)),
        ("steps", Json::from_usize(spec.steps())),
        ("workers", Json::from_usize(spec.workers())),
        ("schedule", Json::str(schedule.name())),
    ];
    if let Some(chunk) = schedule.chunk_param() {
        members.push(("chunk", Json::from_usize(chunk)));
    }
    members.extend(own);
    members.push(("vector_width", Json::from_usize(spec.vector_width())));
    Json::object(members)
}
