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

use crate::obs::json::Json;
use crate::obs::timeline::{EventKind, RegionMark, Timeline, TimelineEvent};
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
    /// Empty claims: one per claimant task the lane ran (a lane may run
    /// several claimants of one self-scheduled region).
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionAttribution {
    /// The coordinator's mark for the region: sequence number, wall
    /// time, extent, widths, policy and kernel.
    pub mark: RegionMark,
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
            ("seq", Json::from_u64(self.mark.seq)),
            ("wall_ns", Json::from_u64(self.mark.wall_ns())),
            ("iterations", Json::from_u64(self.mark.iterations)),
            ("chunks", Json::from_usize(self.mark.chunks)),
            ("lanes", Json::from_usize(self.mark.lanes)),
            ("workers", Json::from_usize(self.mark.workers)),
            ("policy", Json::str(self.mark.policy)),
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
    /// Derive the attribution from a drained timeline: each interval
    /// bills its duration to its lane and to its region.
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
            .map(|mark| RegionAttribution {
                mark: mark.clone(),
                compute_ns: 0,
                barrier_ns: 0,
                claim_ns: 0,
            })
            .collect();
        // `timeline.regions` is in sequence order (its contract), so
        // `regions` is too, index for index. An interval whose region
        // has no mark (a session abandoned before its barrier) counts in
        // its lane's totals and in no region.
        let region_index = |seq: u64| timeline.regions.binary_search_by_key(&seq, |r| r.seq).ok();
        for (w, data) in workers.iter_mut().zip(&timeline.lanes) {
            for e in &data.events {
                let ns = e.dur_ns();
                // A zone's region is its time step: it bills no region.
                let region = region_index(e.region()).map(|ri| &mut regions[ri]);
                match e.kind() {
                    EventKind::Chunk => {
                        w.compute_ns += ns;
                        w.chunks += 1;
                        if let Some(r) = region {
                            r.compute_ns += ns;
                        }
                    }
                    EventKind::Claim => {
                        w.claim_ns += ns;
                        w.claim_misses += u64::from(e.arg == TimelineEvent::NO_CHUNK);
                        if let Some(r) = region {
                            r.claim_ns += ns;
                        }
                    }
                    EventKind::Barrier => {
                        w.barrier_ns += ns;
                        if let Some(r) = region {
                            r.barrier_ns += ns;
                        }
                    }
                    EventKind::Zone => {
                        w.zone_ns += ns;
                        w.zone_tasks += 1;
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
            .filter(|r| r.compute_ns > 0 && r.mark.lanes > 0)
            .collect();
        if measured.is_empty() {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        let count = measured.len() as f64;
        #[allow(clippy::cast_precision_loss)]
        let sync_cost_ns = measured
            .iter()
            .map(|r| r.sync_ns() as f64 / r.mark.lanes as f64)
            .sum::<f64>()
            / count;
        #[allow(clippy::cast_precision_loss)]
        let work_per_region_ns = measured.iter().map(|r| r.compute_ns as f64).sum::<f64>() / count;
        #[allow(clippy::cast_precision_loss)]
        let mean_lanes = measured.iter().map(|r| r.mark.lanes as f64).sum::<f64>() / count;
        let bound = OverheadBound::paper_default(sync_cost_ns.round() as u64);
        let p = (mean_lanes.round() as u32).max(1);
        let modeled_fraction = bound.overhead_fraction(work_per_region_ns.round() as u64, p);
        // Aggregate measured fraction: Σ per-worker sync over Σ
        // per-worker work — each region weighted by its real lanes,
        // unlike the model's single (S̄, W̄, P̄) point.
        #[allow(clippy::cast_precision_loss)]
        let measured_fraction = measured
            .iter()
            .map(|r| r.sync_ns() as f64 / r.mark.lanes as f64)
            .sum::<f64>()
            / measured
                .iter()
                .map(|r| r.compute_ns as f64 / r.mark.lanes as f64)
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
        let kernel = region.mark.kernel.as_deref().unwrap_or("(no kernel)");
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
        row.wall_ns += region.mark.wall_ns();
        row.iterations += region.mark.iterations;
        row.compute_ns += region.compute_ns;
        row.barrier_ns += region.barrier_ns;
        row.claim_ns += region.claim_ns;
        #[allow(clippy::cast_precision_loss)]
        {
            row.mean_lanes += region.mark.lanes as f64;
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
    use crate::obs::timeline::{FlightRecorder, LaneTimeline};

    /// A synthetic two-lane region: lane 0 claims for 2 µs, computes
    /// 100 µs and waits 0.5 µs at the barrier; lane 1 claims for 3 µs,
    /// computes 60 µs then waits 39.5 µs. Each ends with an empty claim.
    fn synthetic() -> Timeline {
        use EventKind::{Barrier, Chunk, Claim};
        let miss = TimelineEvent::NO_CHUNK;
        let lane = |slices: &[(EventKind, u64, u64, u64)]| LaneTimeline {
            events: slices
                .iter()
                .map(|&(kind, start, end, arg)| TimelineEvent::new(kind, start, end, arg, 0))
                .collect(),
            dropped: 0,
        };
        Timeline {
            lanes: vec![
                lane(&[
                    (Claim, 0, 2_000, 0),
                    (Chunk, 2_000, 102_000, 0),
                    (Claim, 102_000, 102_000, miss),
                    (Barrier, 102_000, 102_500, 0),
                ]),
                lane(&[
                    (Claim, 0, 3_000, 1),
                    (Chunk, 3_000, 63_000, 1),
                    (Claim, 63_000, 63_000, miss),
                    (Barrier, 63_000, 102_500, 0),
                ]),
            ],
            regions: vec![RegionMark {
                seq: 0,
                start_ns: 0,
                end_ns: 102_500,
                iterations: 100,
                chunks: 2,
                lanes: 2,
                workers: 2,
                policy: "dynamic",
                kernel: None,
                busy_max_ns: 102_000,
                busy_sum_ns: 165_000,
            }],
        }
    }

    #[test]
    fn attributes_compute_claims_and_barriers() {
        let t = synthetic();
        let a = AttributionReport::from_timeline(&t);
        assert_eq!(a.workers.len(), 2);
        assert_eq!(a.workers[0].chunks, 1);
        assert_eq!(a.workers[1].chunks, 1);
        assert_eq!(a.workers[0].compute_ns, 100_000);
        assert_eq!(a.workers[1].compute_ns, 60_000);
        assert_eq!(a.workers[0].claim_ns, 2_000);
        assert_eq!(a.workers[1].claim_ns, 3_000);
        assert_eq!(a.workers[0].barrier_ns, 500);
        assert_eq!(a.workers[1].barrier_ns, 39_500);
        assert_eq!(a.workers[0].claim_misses, 1);
        assert_eq!(a.claim_ns(), 5_000);
        assert_eq!(a.regions.len(), 1);
        assert_eq!(a.regions[0].claim_ns, 5_000);
        assert_eq!(a.regions[0].compute_ns, a.compute_ns());
        assert_eq!(a.regions[0].barrier_ns, 40_000);
        // Fractions partition the attributed time.
        let sum = a.compute_fraction() + a.barrier_fraction() + a.claim_fraction();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
        assert!(a.sync_fraction() > 0.0);
        assert!((a.imbalance() - 1.25).abs() < 1e-9);
        assert_eq!(a.dropped_events, 0);

        // Four regions, the second abandoned before its barrier (its
        // session dropped without `finish`, as a panicking region's
        // is): its intervals are on the lanes but it has no mark and no
        // barrier waits, so the marks' `seq` run 0, 2, 3. Lane `l` of
        // region `r` claims for `(l + 1) * claim[r]` ns, computes one
        // chunk for `(l + 1) * work[r]` ns and waits `(l + 1) * wait[r]`
        // ns at the barrier: every region's and kind's total is
        // distinct, so an interval billed to the wrong one shows.
        let claim = [1_000u64, 10_000, 100_000, 1_000_000];
        let work = [3_000u64, 30_000, 300_000, 3_000_000];
        let wait = [7u64, 70, 700, 7_000];
        let mut lanes = vec![LaneTimeline::default(); 2];
        let mut regions = Vec::new();
        let mut t = 0;
        for seq in 0..4 {
            let start_ns = t;
            for (lane, data) in lanes.iter_mut().enumerate() {
                let k = lane as u64 + 1;
                let mut at = start_ns;
                let mut slice = |kind, ns, arg| {
                    data.events
                        .push(TimelineEvent::new(kind, at, at + ns, arg, seq));
                    at += ns;
                };
                slice(EventKind::Claim, k * claim[seq as usize], lane as u64);
                slice(EventKind::Chunk, k * work[seq as usize], lane as u64);
                if seq != 1 {
                    slice(EventKind::Barrier, k * wait[seq as usize], 0);
                }
                t = t.max(at);
            }
            if seq != 1 {
                regions.push(RegionMark {
                    seq,
                    start_ns,
                    end_ns: t,
                    iterations: 100,
                    chunks: 2,
                    lanes: 2,
                    workers: 2,
                    policy: "dynamic",
                    kernel: None,
                    busy_max_ns: 2 * (claim[seq as usize] + work[seq as usize]),
                    busy_sum_ns: 3 * (claim[seq as usize] + work[seq as usize]),
                });
            }
        }
        let a = AttributionReport::from_timeline(&Timeline { lanes, regions });
        let seqs: Vec<u64> = a.regions.iter().map(|r| r.mark.seq).collect();
        assert_eq!(seqs, [0, 2, 3]);
        // Each marked region gets exactly its own intervals.
        for r in &a.regions {
            let seq = r.mark.seq as usize;
            assert_eq!(r.claim_ns, 3 * claim[seq], "region {seq}");
            assert_eq!(r.compute_ns, 3 * work[seq], "region {seq}");
            assert_eq!(r.barrier_ns, 3 * wait[seq], "region {seq}");
        }
        // The unmarked region's intervals still count per worker — and
        // in no region.
        assert_eq!(a.workers[0].chunks, 4);
        assert_eq!(a.workers[1].chunks, 4);
        assert_eq!(a.claim_ns(), 3 * claim.iter().sum::<u64>());
        assert_eq!(a.compute_ns(), 3 * work.iter().sum::<u64>());
        assert_eq!(a.barrier_ns(), 3 * (wait.iter().sum::<u64>() - wait[1]));
        let in_regions = |f: fn(&RegionAttribution) -> u64| a.regions.iter().map(f).sum::<u64>();
        assert_eq!(a.claim_ns() - in_regions(|r| r.claim_ns), 3 * claim[1]);
        assert_eq!(a.compute_ns() - in_regions(|r| r.compute_ns), 3 * work[1]);
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
        fr.zone(0, 0, 0, || ());
        fr.zone(1, 1, 0, || ());
        fr.zone(0, 2, 1, || ());
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
