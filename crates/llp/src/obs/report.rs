//! The observability report schema: hierarchical spans and per-kernel
//! summaries, serialized as versioned JSON.
//!
//! One schema serves both *measured* runs (the fold of an enabled
//! [`crate::obs::FlightRecorder`]'s log) and *modeled* runs (a trace
//! executed on a simulated machine), so the two can be diffed
//! kernel-by-kernel.

use crate::obs::json::Json;

/// Version stamp written into every report; bump on breaking changes.
pub const REPORT_SCHEMA_VERSION: u64 = 1;

/// What level of the execution hierarchy a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One solver time step.
    Step,
    /// One zone's work within a step.
    Zone,
    /// One named loop nest / kernel (e.g. `rhs_jk`, `update_e`, `bc`).
    Kernel,
    /// One parallel region (a doacross); carries chunk statistics.
    Region,
    /// Anything else (setup, I/O, …).
    Other,
}

impl SpanKind {
    /// Stable string form used in the JSON schema.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Step => "step",
            SpanKind::Zone => "zone",
            SpanKind::Kernel => "kernel",
            SpanKind::Region => "region",
            SpanKind::Other => "other",
        }
    }
}

/// One node of the span tree.
///
/// Region spans additionally carry the loop extent, the worker and
/// task counts, and max vs mean seconds per task (the stair-step
/// imbalance the paper's Figure 2 plots).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name (kernel/zone name, or `"region"` for parallel regions).
    pub name: String,
    /// Hierarchy level.
    pub kind: SpanKind,
    /// Wall-clock seconds spent in this span (children included).
    pub seconds: f64,
    /// Worker count of the executing team (regions only; 0 elsewhere).
    pub workers: usize,
    /// Parallel-loop extent (regions only; 0 elsewhere).
    pub iterations: u64,
    /// Tasks the region ran (regions only): its chunks under static
    /// scheduling, its claimants, `min(workers, chunks)`, under dynamic
    /// or guided scheduling.
    pub chunk_count: usize,
    /// Longest time one lane spent in the region's chunks and claims,
    /// seconds (regions only).
    pub chunk_max_seconds: f64,
    /// The lanes' total time over [`SpanNode::chunk_count`], seconds
    /// (regions only).
    pub chunk_mean_seconds: f64,
    /// Synchronization events charged to this span itself (1 for a
    /// region exit, 0 elsewhere); see [`Self::total_sync_events`].
    pub sync_events: u64,
    /// Child spans in execution order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A fresh span with zeroed metrics.
    #[must_use]
    pub fn new(name: &str, kind: SpanKind) -> Self {
        Self {
            name: name.to_string(),
            kind,
            seconds: 0.0,
            workers: 0,
            iterations: 0,
            chunk_count: 0,
            chunk_max_seconds: 0.0,
            chunk_mean_seconds: 0.0,
            sync_events: 0,
            children: Vec::new(),
        }
    }

    /// Synchronization events in this span and all descendants.
    #[must_use]
    pub fn total_sync_events(&self) -> u64 {
        self.sync_events
            + self
                .children
                .iter()
                .map(SpanNode::total_sync_events)
                .sum::<u64>()
    }

    /// Whether any descendant region ran under this span — the
    /// parallelized-vs-serial classification of a kernel.
    #[must_use]
    pub fn parallelized(&self) -> bool {
        self.kind == SpanKind::Region || self.children.iter().any(SpanNode::parallelized)
    }

    /// Largest parallel-loop extent among descendant regions (the
    /// available parallelism of the kernel).
    #[must_use]
    pub fn max_region_iterations(&self) -> u64 {
        let own = if self.kind == SpanKind::Region {
            self.iterations
        } else {
            0
        };
        self.children
            .iter()
            .map(SpanNode::max_region_iterations)
            .fold(own, u64::max)
    }

    /// Chunk imbalance `max / mean` (1.0 when balanced or unmeasured).
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        if self.chunk_mean_seconds > 0.0 {
            self.chunk_max_seconds / self.chunk_mean_seconds
        } else {
            1.0
        }
    }

    /// Worst chunk imbalance among this span and descendant regions.
    #[must_use]
    pub fn max_imbalance(&self) -> f64 {
        self.children
            .iter()
            .map(SpanNode::max_imbalance)
            .fold(self.imbalance(), f64::max)
    }

    /// A copy with every timing field zeroed — the structural skeleton
    /// (names, kinds, worker counts, iteration extents, sync events)
    /// that must be bit-identical across repeated runs.
    #[must_use]
    pub fn without_timings(&self) -> SpanNode {
        SpanNode {
            name: self.name.clone(),
            kind: self.kind,
            seconds: 0.0,
            workers: self.workers,
            iterations: self.iterations,
            chunk_count: self.chunk_count,
            chunk_max_seconds: 0.0,
            chunk_mean_seconds: 0.0,
            sync_events: self.sync_events,
            children: self
                .children
                .iter()
                .map(SpanNode::without_timings)
                .collect(),
        }
    }

    /// JSON form (see `docs/DESIGN-obs.md` for the schema).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::Str(self.name.clone())),
            ("kind", Json::Str(self.kind.as_str().to_string())),
            ("seconds", Json::Num(self.seconds)),
            ("sync_events", num(self.sync_events)),
        ];
        if self.kind == SpanKind::Region {
            pairs.push(("workers", num(self.workers as u64)));
            pairs.push(("iterations", num(self.iterations)));
            pairs.push(("chunk_count", num(self.chunk_count as u64)));
            pairs.push(("chunk_max_seconds", Json::Num(self.chunk_max_seconds)));
            pairs.push(("chunk_mean_seconds", Json::Num(self.chunk_mean_seconds)));
        }
        pairs.push((
            "children",
            Json::Array(self.children.iter().map(SpanNode::to_json).collect()),
        ));
        Json::object(pairs)
    }
}

fn num(v: u64) -> Json {
    #[allow(clippy::cast_precision_loss)]
    Json::Num(v as f64)
}

/// Per-kernel aggregate over a whole report — the suite's one profile
/// row: the solve body's `report.kernels[]`, the input of
/// [`crate::advisor::Advisor`], and what the benchmark's per-kernel
/// metrics are read from.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSummary {
    /// Kernel name.
    pub name: String,
    /// Number of kernel spans with this name.
    pub invocations: u64,
    /// Total wall seconds across invocations.
    pub seconds: f64,
    /// Sync events charged to these kernels (regions inside them).
    pub sync_events: u64,
    /// Whether any invocation ran a parallel region.
    pub parallelized: bool,
    /// Largest parallel-loop extent seen.
    pub parallelism: u64,
    /// Worst chunk imbalance (`max/mean`) seen across invocations.
    pub max_imbalance: f64,
}

impl KernelSummary {
    /// A row for `name` that has seen nothing yet: zero counts, serial,
    /// and the neutral `max_imbalance` of 1.0.
    /// [`ObsReport::kernel_summaries`] folds kernel spans into it; a
    /// profile stated by hand (a modeled run, a `/v1/advise` body)
    /// fills in what it knows with struct-update syntax.
    #[must_use]
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            invocations: 0,
            seconds: 0.0,
            sync_events: 0,
            parallelized: false,
            parallelism: 0,
            max_imbalance: 1.0,
        }
    }

    /// Seconds per invocation (0 if never invoked).
    #[must_use]
    pub fn seconds_per_invocation(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.seconds / self.invocations as f64
        }
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("name", Json::Str(self.name.clone())),
            ("invocations", num(self.invocations)),
            ("seconds", Json::Num(self.seconds)),
            ("sync_events", num(self.sync_events)),
            ("parallelized", Json::Bool(self.parallelized)),
            ("parallelism", num(self.parallelism)),
            ("max_imbalance", Json::Num(self.max_imbalance)),
        ])
    }
}

/// A complete observability report: provenance plus the span forest.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    /// Schema version ([`REPORT_SCHEMA_VERSION`] when freshly built).
    pub schema_version: u64,
    /// `"measured"` (wall clock under a recorder) or `"modeled"`
    /// (simulated machine).
    pub source: String,
    /// Case label (grid name, benchmark id, …).
    pub case: String,
    /// Worker count the run was configured with.
    pub workers: usize,
    /// Worker count originally *requested*, when it differs from
    /// `workers` because the pool clamped an oversubscribed
    /// `sized_view` request. `None` means no clamp happened. Additive
    /// schema field: emitted only when present.
    pub requested_workers: Option<usize>,
    /// Root spans in execution order (typically one per time step).
    pub spans: Vec<SpanNode>,
}

impl ObsReport {
    /// Mark this report as a clamped run: `requested` workers were
    /// asked for but only `self.workers` granted. A request matching
    /// the granted width leaves the report unchanged.
    #[must_use]
    pub fn with_requested_workers(mut self, requested: usize) -> ObsReport {
        self.requested_workers = (requested != self.workers).then_some(requested);
        self
    }

    /// Total wall seconds across root spans.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.spans.iter().map(|s| s.seconds).sum()
    }

    /// Total synchronization events in the whole forest.
    #[must_use]
    pub fn sync_events(&self) -> u64 {
        self.spans.iter().map(SpanNode::total_sync_events).sum()
    }

    /// Aggregate kernel spans by name, sorted by name (deterministic).
    #[must_use]
    pub fn kernel_summaries(&self) -> Vec<KernelSummary> {
        self.kernel_summaries_renamed(|name| name.to_string())
    }

    /// Kernel summaries with names passed through `rename` before
    /// aggregation — used to align measured kernel names with modeled
    /// ones (e.g. `l_factor_solve` onto `l_factor`). Names that map to
    /// one name fold into one summary.
    #[must_use]
    pub fn kernel_summaries_renamed(&self, rename: impl Fn(&str) -> String) -> Vec<KernelSummary> {
        let mut out: Vec<KernelSummary> = Vec::new();
        for root in &self.spans {
            collect_kernels(root, &rename, &mut out);
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Structural skeleton with all timings zeroed (see
    /// [`SpanNode::without_timings`]).
    #[must_use]
    pub fn without_timings(&self) -> ObsReport {
        ObsReport {
            schema_version: self.schema_version,
            source: self.source.clone(),
            case: self.case.clone(),
            workers: self.workers,
            requested_workers: self.requested_workers,
            spans: self.spans.iter().map(SpanNode::without_timings).collect(),
        }
    }

    /// Full JSON form, including derived kernel summaries and totals.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema_version", num(self.schema_version)),
            ("source", Json::Str(self.source.clone())),
            ("case", Json::Str(self.case.clone())),
            ("workers", num(self.workers as u64)),
        ];
        if let Some(requested) = self.requested_workers {
            pairs.push(("requested_workers", num(requested as u64)));
        }
        pairs.extend(vec![
            ("total_seconds", Json::Num(self.total_seconds())),
            ("sync_events", num(self.sync_events())),
            (
                "kernels",
                Json::Array(
                    self.kernel_summaries()
                        .iter()
                        .map(KernelSummary::to_json)
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Array(self.spans.iter().map(SpanNode::to_json).collect()),
            ),
        ]);
        Json::object(pairs)
    }

    /// Pretty-printed JSON document.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }
}

fn collect_kernels(
    node: &SpanNode,
    rename: &impl Fn(&str) -> String,
    out: &mut Vec<KernelSummary>,
) {
    if node.kind == SpanKind::Kernel {
        let name = rename(&node.name);
        let entry = match out.iter_mut().find(|k| k.name == name) {
            Some(e) => e,
            None => {
                out.push(KernelSummary::named(name));
                out.last_mut().expect("just pushed")
            }
        };
        entry.invocations += 1;
        entry.seconds += node.seconds;
        entry.sync_events += node.total_sync_events();
        entry.parallelized |= node.parallelized();
        entry.parallelism = entry.parallelism.max(node.max_region_iterations());
        entry.max_imbalance = entry.max_imbalance.max(node.max_imbalance());
        // Kernel spans do not nest kernels in this codebase, but walk
        // children anyway so nothing is silently dropped if they ever do.
    }
    for child in &node.children {
        collect_kernels(child, rename, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ObsReport {
        let mut region = SpanNode::new("region", SpanKind::Region);
        region.workers = 4;
        region.iterations = 60;
        region.chunk_count = 4;
        region.seconds = 0.4;
        region.chunk_max_seconds = 0.12;
        region.chunk_mean_seconds = 0.1;
        region.sync_events = 1;

        let mut rhs = SpanNode::new("rhs", SpanKind::Kernel);
        rhs.seconds = 0.5;
        rhs.children.push(region);

        let mut bc = SpanNode::new("bc", SpanKind::Kernel);
        bc.seconds = 0.05;

        let mut zone = SpanNode::new("zone1", SpanKind::Zone);
        zone.seconds = 0.6;
        zone.children.push(rhs);
        zone.children.push(bc);

        let mut step = SpanNode::new("step", SpanKind::Step);
        step.seconds = 0.7;
        step.children.push(zone);

        ObsReport {
            schema_version: REPORT_SCHEMA_VERSION,
            source: "measured".to_string(),
            case: "unit".to_string(),
            workers: 4,
            requested_workers: None,
            spans: vec![step],
        }
    }

    #[test]
    fn aggregates_sync_events_and_totals() {
        let r = sample_report();
        assert_eq!(r.sync_events(), 1);
        assert!((r.total_seconds() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn kernel_summaries_classify_parallelized() {
        let r = sample_report();
        let ks = r.kernel_summaries();
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[0].name, "bc");
        assert!(!ks[0].parallelized);
        assert_eq!(ks[0].sync_events, 0);
        assert_eq!(ks[1].name, "rhs");
        assert!(ks[1].parallelized);
        assert_eq!(ks[1].parallelism, 60);
        assert_eq!(ks[1].sync_events, 1);
        assert!((ks[1].max_imbalance - 1.2).abs() < 1e-12);
        assert!((ks[1].seconds_per_invocation() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn renamed_summaries_merge() {
        let mut r = sample_report();
        // Add a second kernel that should merge with `rhs` under rename.
        let mut extra = SpanNode::new("rhs_tail", SpanKind::Kernel);
        extra.seconds = 0.25;
        r.spans[0].children[0].children.push(extra);
        let ks = r.kernel_summaries_renamed(|n| {
            if n.starts_with("rhs") {
                "rhs".to_string()
            } else {
                n.to_string()
            }
        });
        let rhs = ks.iter().find(|k| k.name == "rhs").unwrap();
        assert_eq!(rhs.invocations, 2);
        assert!((rhs.seconds - 0.75).abs() < 1e-12);
    }

    #[test]
    fn requested_workers_marks_clamped_runs_only() {
        // Request equal to the grant: no clamp recorded, field omitted.
        let exact = sample_report().with_requested_workers(4);
        assert_eq!(exact.requested_workers, None);
        assert!(!exact.to_json_string().contains("requested_workers"));
        // Oversubscribed request: clamp surfaced.
        let clamped = sample_report().with_requested_workers(16);
        assert_eq!(clamped.requested_workers, Some(16));
        assert!(clamped.to_json_string().contains("\"requested_workers\""));
        // Skeletons keep the clamp marker (it is structure, not timing).
        assert_eq!(clamped.without_timings().requested_workers, Some(16));
    }

    #[test]
    fn without_timings_zeroes_only_times() {
        let r = sample_report();
        let skel = r.without_timings();
        assert_eq!(skel.sync_events(), r.sync_events());
        assert_eq!(skel.total_seconds(), 0.0);
        let region = &skel.spans[0].children[0].children[0].children[0];
        assert_eq!(region.workers, 4);
        assert_eq!(region.iterations, 60);
        assert_eq!(region.chunk_max_seconds, 0.0);
    }

    #[test]
    fn imbalance_of_unmeasured_region_is_one() {
        let n = SpanNode::new("region", SpanKind::Region);
        assert_eq!(n.imbalance(), 1.0);
    }
}
