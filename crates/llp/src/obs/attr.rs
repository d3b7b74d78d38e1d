//! Overhead attribution: turning a drained [`Timeline`] into the
//! compute / barrier-wait / claim-wait decomposition the paper's
//! Table 1 budget is *about* — and checking the measurement against
//! [`perfmodel`]'s overhead model.
//!
//! The paper bounds the work per parallelized loop so that one
//! synchronization event costs less than `f = 1 %` of the loop's
//! parallel runtime: `S <= f * (W / P)`. The recorder's coordinator log
//! counts the sync events (one region mark each) and names each
//! region's kernel; its lanes measure what each event actually cost. An
//! [`AttributionReport`] folds both:
//!
//! * per **worker**: nanoseconds computing chunks, waiting at region
//!   barriers, and claiming chunks, plus chunk and claim-miss counts;
//! * per **region**: the same split against the region's wall time,
//!   and per **kernel** ([`kernel_overheads`]) summed over its regions;
//! * a [`ModelCheck`]: the measured per-worker sync cost `S` plugged
//!   into [`perfmodel::OverheadBound`] (1 ns = 1 cycle at a nominal
//!   1 GHz) predicts an overhead fraction per loop; comparing that
//!   prediction with the directly measured fraction is the first
//!   empirical check of the Table 1 formula — it validates the model's
//!   core assumption that `S` is a per-machine constant, independent of
//!   the loop body.
//!
//! **Documented tolerance**: for the F3D service kernels the measured
//! and modeled fractions agree within a factor of 3 (the spread of
//! per-region sync costs around their mean on a loaded host); the serve
//! integration test and the worked example in `DESIGN.md` both assert /
//! show that bound.

use std::sync::Arc;

use crate::obs::json::Json;
use crate::obs::timeline::{EventKind, Timeline};
use perfmodel::{OverheadBound, PAPER_OVERHEAD_FRACTION};

/// Where one worker lane's time went, summed over a timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerAttribution {
    /// Lane index.
    pub lane: usize,
    /// Nanoseconds spent executing chunks.
    pub compute_ns: u64,
    /// Nanoseconds spent idle at region barriers.
    pub barrier_ns: u64,
    /// Nanoseconds spent acquiring chunks from the claimer.
    pub claim_ns: u64,
    /// Chunks this lane executed.
    pub chunks: u64,
    /// Empty claims (one per dynamic region the lane participated in).
    pub claim_misses: u64,
    /// Nanoseconds this lane (the team lane that ran zone tasks) spent
    /// stepping zones — zone-scheduler occupancy, measured outside the
    /// recorded regions and therefore kept out of the compute/sync
    /// split.
    pub zone_ns: u64,
    /// Zone compute tasks this lane executed.
    pub zone_tasks: u64,
}

impl WorkerAttribution {
    /// Barrier plus claim nanoseconds — the synchronization cost.
    #[must_use]
    pub fn sync_ns(&self) -> u64 {
        self.barrier_ns + self.claim_ns
    }

    /// Total attributed nanoseconds.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.compute_ns + self.sync_ns()
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("lane", Json::from_usize(self.lane)),
            ("compute_ns", Json::from_u64(self.compute_ns)),
            ("barrier_ns", Json::from_u64(self.barrier_ns)),
            ("claim_ns", Json::from_u64(self.claim_ns)),
            ("chunks", Json::from_u64(self.chunks)),
            ("claim_misses", Json::from_u64(self.claim_misses)),
            ("zone_ns", Json::from_u64(self.zone_ns)),
            ("zone_tasks", Json::from_u64(self.zone_tasks)),
        ])
    }
}

/// One region's compute/sync split against its wall time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionAttribution {
    /// Region sequence number.
    pub seq: u64,
    /// Wall nanoseconds from region entry to barrier completion.
    pub wall_ns: u64,
    /// Parallel-loop extent.
    pub iterations: u64,
    /// Chunks the schedule cut.
    pub chunks: usize,
    /// Lanes that executed the region.
    pub lanes: usize,
    /// Worker count of the executing team.
    pub workers: usize,
    /// Scheduling policy name.
    pub policy: &'static str,
    /// The kernel the coordinator log places the region in.
    pub kernel: Option<Arc<str>>,
    /// Total chunk-execution nanoseconds across lanes.
    pub compute_ns: u64,
    /// Total barrier-wait nanoseconds across lanes.
    pub barrier_ns: u64,
    /// Total claim nanoseconds across lanes.
    pub claim_ns: u64,
}

impl RegionAttribution {
    /// Barrier plus claim nanoseconds across lanes.
    #[must_use]
    pub fn sync_ns(&self) -> u64 {
        self.barrier_ns + self.claim_ns
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("seq", Json::from_u64(self.seq)),
            ("wall_ns", Json::from_u64(self.wall_ns)),
            ("iterations", Json::from_u64(self.iterations)),
            ("chunks", Json::from_usize(self.chunks)),
            ("lanes", Json::from_usize(self.lanes)),
            ("workers", Json::from_usize(self.workers)),
            ("policy", Json::str(self.policy)),
            ("compute_ns", Json::from_u64(self.compute_ns)),
            ("barrier_ns", Json::from_u64(self.barrier_ns)),
            ("claim_ns", Json::from_u64(self.claim_ns)),
        ])
    }
}

/// The measured flight data confronted with the paper's overhead model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCheck {
    /// Measured synchronization cost per region per worker,
    /// nanoseconds: the empirical `S` (1 ns ≡ 1 cycle at 1 GHz).
    pub sync_cost_ns: f64,
    /// Mean compute nanoseconds per region (the empirical `W`).
    pub work_per_region_ns: f64,
    /// Mean participating lanes per region (the empirical `P`).
    pub mean_lanes: f64,
    /// Directly measured aggregate overhead fraction `ΣS / Σ(W/P)`.
    pub measured_fraction: f64,
    /// [`OverheadBound::overhead_fraction`] prediction using the
    /// measured `S`, `W`, and `P`.
    pub modeled_fraction: f64,
    /// Model minimum work (ns ≡ cycles) for this `S` and `P` to meet
    /// the paper's 1 % budget ([`PAPER_OVERHEAD_FRACTION`]).
    pub table1_min_work_ns: u64,
    /// Whether the measured fraction meets the 1 % budget.
    pub meets_table1: bool,
}

impl ModelCheck {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("sync_cost_ns", Json::Num(self.sync_cost_ns)),
            ("work_per_region_ns", Json::Num(self.work_per_region_ns)),
            ("mean_lanes", Json::Num(self.mean_lanes)),
            ("measured_fraction", Json::Num(self.measured_fraction)),
            ("modeled_fraction", Json::Num(self.modeled_fraction)),
            (
                "table1_min_work_ns",
                Json::from_u64(self.table1_min_work_ns),
            ),
            ("meets_table1", Json::Bool(self.meets_table1)),
        ])
    }
}

/// Compute/sync split for one kernel, summed over its regions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelOverhead {
    /// Kernel name from the coordinator log.
    pub kernel: String,
    /// Regions attributed to this kernel.
    pub regions: u64,
    /// Total wall nanoseconds of the kernel's regions (entry to barrier
    /// completion) — the parallel cost an autotuner minimizes.
    pub wall_ns: u64,
    /// Total parallel-loop iterations across the kernel's regions; the
    /// per-region mean is the `U` of the stair-step law.
    pub iterations: u64,
    /// Total chunk-execution nanoseconds.
    pub compute_ns: u64,
    /// Total barrier-wait nanoseconds.
    pub barrier_ns: u64,
    /// Total claim nanoseconds.
    pub claim_ns: u64,
    /// Mean participating lanes per region.
    pub mean_lanes: f64,
    /// Measured overhead: `(barrier + claim) / total` attributed ns.
    pub overhead_measured: f64,
    /// Overhead fraction the Table 1 formula predicts for this kernel
    /// from the timeline-wide mean sync cost (see [`ModelCheck`]).
    pub overhead_modeled: f64,
}

impl KernelOverhead {
    /// Barrier plus claim nanoseconds.
    #[must_use]
    pub fn sync_ns(&self) -> u64 {
        self.barrier_ns + self.claim_ns
    }

    /// JSON form (used by the trace endpoint and the bench).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("kernel", Json::Str(self.kernel.clone())),
            ("regions", Json::from_u64(self.regions)),
            ("wall_ns", Json::from_u64(self.wall_ns)),
            ("iterations", Json::from_u64(self.iterations)),
            ("compute_ns", Json::from_u64(self.compute_ns)),
            ("barrier_ns", Json::from_u64(self.barrier_ns)),
            ("claim_ns", Json::from_u64(self.claim_ns)),
            ("mean_lanes", Json::Num(self.mean_lanes)),
            ("overhead_measured", Json::Num(self.overhead_measured)),
            ("overhead_modeled", Json::Num(self.overhead_modeled)),
        ])
    }
}

/// The full attribution derived from one drained [`Timeline`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttributionReport {
    /// Per-lane totals, index = lane.
    pub workers: Vec<WorkerAttribution>,
    /// Per-region splits, in sequence order.
    pub regions: Vec<RegionAttribution>,
    /// Events lost to ring overwrite (attribution is partial if > 0).
    pub dropped_events: u64,
}

impl AttributionReport {
    /// Derive the attribution from a drained timeline.
    ///
    /// Chunk compute time is the span between matching
    /// [`EventKind::ChunkStart`] / [`EventKind::ChunkEnd`] pairs on the
    /// same lane; unpaired starts (ring overwrite) are ignored.
    #[must_use]
    pub fn from_timeline(timeline: &Timeline) -> Self {
        let mut workers: Vec<WorkerAttribution> = (0..timeline.lanes.len())
            .map(|lane| WorkerAttribution {
                lane,
                ..WorkerAttribution::default()
            })
            .collect();
        let mut regions: Vec<RegionAttribution> = timeline
            .regions
            .iter()
            .map(|r| RegionAttribution {
                seq: r.seq,
                wall_ns: r.wall_ns(),
                iterations: r.iterations,
                chunks: r.chunks,
                lanes: r.lanes,
                workers: r.workers,
                policy: r.policy,
                kernel: r.kernel.clone(),
                ..RegionAttribution::default()
            })
            .collect();
        // `timeline.regions` is in sequence order (its contract), so
        // `regions` is too, index for index. An event whose region has
        // no mark (a session abandoned before its barrier) counts in
        // its lane's totals and in no region.
        let region_index = |seq: u64| timeline.regions.binary_search_by_key(&seq, |r| r.seq).ok();
        for (lane, data) in timeline.lanes.iter().enumerate() {
            let w = &mut workers[lane];
            let mut open_start: Option<(u64, u64)> = None; // (ts, chunk)
            let mut open_zone: Option<(u64, u64)> = None; // (ts, zone)
            for e in &data.events {
                match e.kind {
                    EventKind::ChunkStart => open_start = Some((e.ts_ns, e.arg)),
                    EventKind::ChunkEnd => {
                        if let Some((start, chunk)) = open_start.take() {
                            if chunk == e.arg && e.ts_ns >= start {
                                let dur = e.ts_ns - start;
                                w.compute_ns += dur;
                                w.chunks += 1;
                                if let Some(ri) = region_index(e.region) {
                                    regions[ri].compute_ns += dur;
                                }
                            }
                        }
                    }
                    EventKind::BarrierWait => {
                        w.barrier_ns += e.arg;
                        if let Some(ri) = region_index(e.region) {
                            regions[ri].barrier_ns += e.arg;
                        }
                    }
                    EventKind::ClaimWait => {
                        w.claim_ns += e.arg;
                        if let Some(ri) = region_index(e.region) {
                            regions[ri].claim_ns += e.arg;
                        }
                    }
                    EventKind::ClaimMiss => w.claim_misses += 1,
                    EventKind::ZoneStart => open_zone = Some((e.ts_ns, e.arg)),
                    EventKind::ZoneEnd => {
                        if let Some((start, zone)) = open_zone.take() {
                            if zone == e.arg && e.ts_ns >= start {
                                w.zone_ns += e.ts_ns - start;
                                w.zone_tasks += 1;
                            }
                        }
                    }
                }
            }
        }
        Self {
            workers,
            regions,
            dropped_events: timeline.dropped_events(),
        }
    }

    /// Total chunk-execution nanoseconds across lanes.
    #[must_use]
    pub fn compute_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.compute_ns).sum()
    }

    /// Total barrier-wait nanoseconds across lanes.
    #[must_use]
    pub fn barrier_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.barrier_ns).sum()
    }

    /// Total claim nanoseconds across lanes.
    #[must_use]
    pub fn claim_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.claim_ns).sum()
    }

    /// Total synchronization (barrier + claim) nanoseconds.
    #[must_use]
    pub fn sync_ns(&self) -> u64 {
        self.barrier_ns() + self.claim_ns()
    }

    /// Total attributed nanoseconds.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.compute_ns() + self.sync_ns()
    }

    /// Total zone-scheduler occupancy nanoseconds across lanes (zone
    /// shards). Disjoint from [`AttributionReport::busy_ns`]: zone
    /// stepping happens between parallel regions.
    #[must_use]
    pub fn zone_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.zone_ns).sum()
    }

    /// Total zone compute tasks across lanes.
    #[must_use]
    pub fn zone_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.zone_tasks).sum()
    }

    /// Fraction of attributed time spent computing (0 when empty).
    #[must_use]
    pub fn compute_fraction(&self) -> f64 {
        fraction(self.compute_ns(), self.busy_ns())
    }

    /// Fraction of attributed time spent at barriers.
    #[must_use]
    pub fn barrier_fraction(&self) -> f64 {
        fraction(self.barrier_ns(), self.busy_ns())
    }

    /// Fraction of attributed time spent claiming chunks.
    #[must_use]
    pub fn claim_fraction(&self) -> f64 {
        fraction(self.claim_ns(), self.busy_ns())
    }

    /// Fraction of attributed time spent synchronizing — the measured
    /// counterpart of the paper's 1 % budget.
    #[must_use]
    pub fn sync_fraction(&self) -> f64 {
        fraction(self.sync_ns(), self.busy_ns())
    }

    /// Per-worker compute imbalance `max / mean` over lanes that did
    /// any work (1.0 when balanced, empty, or single-lane).
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let loads: Vec<u64> = self
            .workers
            .iter()
            .filter(|w| w.busy_ns() > 0)
            .map(|w| w.compute_ns)
            .collect();
        if loads.is_empty() {
            return 1.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }

    /// Confront the measurement with the paper's overhead model, or
    /// `None` when no region recorded any compute. See the module docs
    /// for what agreement means and the documented tolerance.
    #[must_use]
    pub fn model_check(&self) -> Option<ModelCheck> {
        let measured: Vec<&RegionAttribution> = self
            .regions
            .iter()
            .filter(|r| r.compute_ns > 0 && r.lanes > 0)
            .collect();
        if measured.is_empty() {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        let count = measured.len() as f64;
        #[allow(clippy::cast_precision_loss)]
        let sync_cost_ns = measured
            .iter()
            .map(|r| r.sync_ns() as f64 / r.lanes as f64)
            .sum::<f64>()
            / count;
        #[allow(clippy::cast_precision_loss)]
        let work_per_region_ns = measured.iter().map(|r| r.compute_ns as f64).sum::<f64>() / count;
        #[allow(clippy::cast_precision_loss)]
        let mean_lanes = measured.iter().map(|r| r.lanes as f64).sum::<f64>() / count;
        let bound = OverheadBound::paper_default(sync_cost_ns.round() as u64);
        let p = (mean_lanes.round() as u32).max(1);
        let modeled_fraction = bound.overhead_fraction(work_per_region_ns.round() as u64, p);
        // Aggregate measured fraction: Σ per-worker sync over Σ
        // per-worker work — each region weighted by its real lanes,
        // unlike the model's single (S̄, W̄, P̄) point.
        #[allow(clippy::cast_precision_loss)]
        let measured_fraction = measured
            .iter()
            .map(|r| r.sync_ns() as f64 / r.lanes as f64)
            .sum::<f64>()
            / measured
                .iter()
                .map(|r| r.compute_ns as f64 / r.lanes as f64)
                .sum::<f64>();
        Some(ModelCheck {
            sync_cost_ns,
            work_per_region_ns,
            mean_lanes,
            measured_fraction,
            modeled_fraction,
            table1_min_work_ns: bound.min_work(p),
            meets_table1: measured_fraction <= PAPER_OVERHEAD_FRACTION,
        })
    }

    /// Full JSON form: totals, fractions, per-worker and per-region
    /// splits, and the model check when available.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("compute_ns", Json::from_u64(self.compute_ns())),
            ("barrier_ns", Json::from_u64(self.barrier_ns())),
            ("claim_ns", Json::from_u64(self.claim_ns())),
            ("compute_fraction", Json::Num(self.compute_fraction())),
            ("barrier_fraction", Json::Num(self.barrier_fraction())),
            ("claim_fraction", Json::Num(self.claim_fraction())),
            ("sync_fraction", Json::Num(self.sync_fraction())),
            ("imbalance", Json::Num(self.imbalance())),
            ("zone_ns", Json::from_u64(self.zone_ns())),
            ("zone_tasks", Json::from_u64(self.zone_tasks())),
            ("dropped_events", Json::from_u64(self.dropped_events)),
        ];
        if let Some(check) = self.model_check() {
            pairs.push(("model_check", check.to_json()));
        }
        pairs.push((
            "workers",
            Json::Array(
                self.workers
                    .iter()
                    .map(WorkerAttribution::to_json)
                    .collect(),
            ),
        ));
        pairs.push((
            "regions",
            Json::Array(
                self.regions
                    .iter()
                    .map(RegionAttribution::to_json)
                    .collect(),
            ),
        ));
        Json::object(pairs)
    }
}

fn fraction(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        #[allow(clippy::cast_precision_loss)]
        {
            part as f64 / whole as f64
        }
    }
}

/// Fold the attribution's regions up to their kernels — the kernel
/// each region's mark names, so nothing is paired by position.
///
/// Regions outside any kernel span fold into a `"(no kernel)"` row.
/// Rows are sorted by kernel name.
#[must_use]
pub fn kernel_overheads(attr: &AttributionReport) -> Vec<KernelOverhead> {
    let global_sync_cost = attr.model_check().map_or(0.0, |c| c.sync_cost_ns);
    let mut rows: Vec<KernelOverhead> = Vec::new();
    for region in &attr.regions {
        let kernel = region.kernel.as_deref().unwrap_or("(no kernel)");
        let row = match rows.iter_mut().find(|r| r.kernel == kernel) {
            Some(row) => row,
            None => {
                rows.push(KernelOverhead {
                    kernel: kernel.to_string(),
                    ..KernelOverhead::default()
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.regions += 1;
        row.wall_ns += region.wall_ns;
        row.iterations += region.iterations;
        row.compute_ns += region.compute_ns;
        row.barrier_ns += region.barrier_ns;
        row.claim_ns += region.claim_ns;
        #[allow(clippy::cast_precision_loss)]
        {
            row.mean_lanes += region.lanes as f64;
        }
    }
    for row in &mut rows {
        #[allow(clippy::cast_precision_loss)]
        let n = row.regions as f64;
        if n > 0.0 {
            row.mean_lanes /= n;
        }
        let total = row.compute_ns + row.sync_ns();
        row.overhead_measured = fraction(row.sync_ns(), total);
        // Model prediction: the timeline-wide mean sync cost against
        // this kernel's mean per-region work, per Table 1's formula.
        #[allow(clippy::cast_precision_loss)]
        let work_per_region = row.compute_ns as f64 / n.max(1.0);
        if work_per_region > 0.0 && row.mean_lanes >= 1.0 {
            let bound = OverheadBound::paper_default(global_sync_cost.round() as u64);
            let x = bound.overhead_fraction(
                work_per_region.round() as u64,
                (row.mean_lanes.round() as u32).max(1),
            );
            // Convert `S / (W/P)` to a fraction of total attributed
            // time, matching `overhead_measured`'s denominator.
            row.overhead_modeled = x / (1.0 + x);
        }
    }
    rows.sort_by(|a, b| a.kernel.cmp(&b.kernel));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::report::SpanKind;
    use crate::obs::timeline::{FlightRecorder, TimelineEvent};

    /// A synthetic two-lane timeline: lane 0 computes 100 µs, lane 1
    /// computes 60 µs then waits 40 µs at the barrier; both claim once.
    fn synthetic() -> Timeline {
        let fr = FlightRecorder::enabled(2, 64);
        let s = fr.begin_region(2, 100, 2, "dynamic").unwrap();
        s.claim_wait(0, 2_000);
        s.chunk_start(0, 0);
        s.chunk_end(0, 0);
        s.claim_wait(1, 3_000);
        s.chunk_start(1, 1);
        s.chunk_end(1, 1);
        s.claim_miss(0);
        s.claim_miss(1);
        s.finish();
        fr.take_timeline()
    }

    #[test]
    fn attributes_compute_claims_and_barriers() {
        let t = synthetic();
        let a = AttributionReport::from_timeline(&t);
        assert_eq!(a.workers.len(), 2);
        assert_eq!(a.workers[0].chunks, 1);
        assert_eq!(a.workers[1].chunks, 1);
        assert_eq!(a.workers[0].claim_ns, 2_000);
        assert_eq!(a.workers[1].claim_ns, 3_000);
        assert_eq!(a.workers[0].claim_misses, 1);
        assert_eq!(a.claim_ns(), 5_000);
        assert_eq!(a.regions.len(), 1);
        assert_eq!(a.regions[0].claim_ns, 5_000);
        assert_eq!(a.regions[0].compute_ns, a.compute_ns());
        // Fractions partition the attributed time.
        let sum = a.compute_fraction() + a.barrier_fraction() + a.claim_fraction();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
        assert!(a.sync_fraction() > 0.0);
        assert!(a.imbalance() >= 1.0);
        assert_eq!(a.dropped_events, 0);

        // Four regions, the second abandoned before its barrier (its
        // session dropped without `finish`, as a panicking region's
        // is): its events are on the lanes but it has no mark, so the
        // marks' `seq` run 0, 2, 3. Lane `l` of region `r` claims for
        // `(l + 1) * claim[r]` ns and runs one chunk.
        let claim = [1_000u64, 10_000, 100_000, 1_000_000];
        let fr = FlightRecorder::enabled(2, 64);
        for (seq, claim) in claim.iter().enumerate() {
            let s = fr.begin_region(2, 100, 2, "dynamic").unwrap();
            for lane in 0..2 {
                s.claim_wait(lane, claim * (lane as u64 + 1));
                s.chunk_start(lane, lane);
                s.chunk_end(lane, lane);
            }
            if seq != 1 {
                s.finish();
            }
        }
        let t = fr.take_timeline();
        let a = AttributionReport::from_timeline(&t);
        let seqs: Vec<u64> = a.regions.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 2, 3]);
        // Each marked region gets exactly its own events; the oracle is
        // a linear scan of every lane for one `seq`.
        let scan = |seq: u64, kind: EventKind, field: fn(&TimelineEvent) -> u64| -> u64 {
            let events = t.lanes.iter().flat_map(|l| &l.events);
            events
                .filter(|e| e.region == seq && e.kind == kind)
                .map(field)
                .sum()
        };
        let compute = |seq| {
            scan(seq, EventKind::ChunkEnd, |e| e.ts_ns)
                - scan(seq, EventKind::ChunkStart, |e| e.ts_ns)
        };
        for r in &a.regions {
            assert_eq!(r.claim_ns, 3 * claim[r.seq as usize], "region {}", r.seq);
            assert_eq!(r.compute_ns, compute(r.seq), "region {}", r.seq);
            let waits = scan(r.seq, EventKind::BarrierWait, |e| e.arg);
            assert_eq!(r.barrier_ns, waits, "region {}", r.seq);
        }
        // The unmarked region's events still count per worker — and in
        // no region (it never reached its barrier, so it has no waits).
        assert_eq!(a.workers[0].chunks, 4);
        assert_eq!(a.workers[1].chunks, 4);
        assert_eq!(a.claim_ns(), 3 * claim.iter().sum::<u64>());
        let in_regions = |f: fn(&RegionAttribution) -> u64| a.regions.iter().map(f).sum::<u64>();
        assert_eq!(a.claim_ns() - in_regions(|r| r.claim_ns), 3 * claim[1]);
        assert_eq!(a.compute_ns() - in_regions(|r| r.compute_ns), compute(1));
        assert_eq!(a.barrier_ns(), in_regions(|r| r.barrier_ns));
    }

    #[test]
    fn json_includes_model_check_when_measurable() {
        let a = AttributionReport::from_timeline(&synthetic());
        let j = a.to_json();
        let text = j.to_pretty_string();
        let back = Json::parse(&text).unwrap();
        assert!(back.get("model_check").is_some());
        let check = a.model_check().unwrap();
        assert!(check.sync_cost_ns > 0.0);
        assert!(check.modeled_fraction.is_finite());
        assert!(check.measured_fraction.is_finite());
        assert!(check.table1_min_work_ns > 0);
    }

    #[test]
    fn zone_events_attribute_shard_occupancy() {
        let fr = FlightRecorder::enabled(2, 64);
        fr.zone_start(0, 0, 0);
        fr.zone_end(0, 0, 0);
        fr.zone_start(1, 1, 0);
        fr.zone_end(1, 1, 0);
        fr.zone_start(0, 2, 1);
        fr.zone_end(0, 2, 1);
        // An unmatched start (e.g. ring overwrite ate the end) is
        // ignored, as is a mismatched zone id.
        fr.zone_start(1, 3, 1);
        let a = AttributionReport::from_timeline(&fr.take_timeline());
        assert_eq!(a.workers[0].zone_tasks, 2);
        assert_eq!(a.workers[1].zone_tasks, 1);
        assert_eq!(a.zone_tasks(), 3);
        // Zone time stays out of the compute/sync split.
        assert_eq!(a.busy_ns(), 0);
        let j = a.to_json().to_pretty_string();
        let back = Json::parse(&j).unwrap();
        assert_eq!(back.get("zone_tasks").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn empty_timeline_attributes_nothing() {
        let a = AttributionReport::from_timeline(&Timeline::default());
        assert_eq!(a.busy_ns(), 0);
        assert_eq!(a.compute_fraction(), 0.0);
        assert_eq!(a.imbalance(), 1.0);
        assert!(a.model_check().is_none());
    }

    #[test]
    fn kernel_rows_read_each_region_kernel_from_the_log() {
        // A region in `rhs`, one in `update` inside a zone span, one
        // outside any kernel.
        let fr = FlightRecorder::enabled(2, 64);
        let region = |chunk: usize| {
            let s = fr.begin_region(2, 10, 1, "static").unwrap();
            s.chunk_start(0, chunk);
            s.chunk_end(0, chunk);
            s.finish();
        };
        {
            let _step = fr.span("step", SpanKind::Step);
            {
                let _rhs = fr.span("rhs", SpanKind::Kernel);
                region(0);
            }
            let _zone = fr.span("zone1", SpanKind::Zone);
            let _update = fr.span("update", SpanKind::Kernel);
            region(1);
        }
        region(2);
        let attr = AttributionReport::from_timeline(&fr.take_timeline());
        let rows = kernel_overheads(&attr);
        let names: Vec<&str> = rows.iter().map(|r| r.kernel.as_str()).collect();
        assert_eq!(names, ["(no kernel)", "rhs", "update"]);
        for row in &rows {
            assert_eq!(row.regions, 1);
            assert_eq!(row.iterations, 10);
            assert!(row.wall_ns >= row.compute_ns);
            assert!((0.0..=1.0).contains(&row.overhead_measured));
            assert!((0.0..=1.0).contains(&row.overhead_modeled));
        }
        // No regions, no rows.
        assert!(kernel_overheads(&AttributionReport::default()).is_empty());
    }
}
