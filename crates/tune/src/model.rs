//! The analytic price calibration reports next to every measured
//! winner ([`crate::TuneEntry::modeled_cost_ns`], `model_agrees`).
//! Nothing else consumes it. It states no arithmetic of its own: the
//! region price is [`perfmodel::critical_path`] over the policy's
//! [`Policy::ideal_makespan`], so the Table 1 form has one place to be
//! wrong (`perfmodel`) and one column that shows it.

use llp::Policy;
use perfmodel::critical_path;

/// Predicted wall nanoseconds for one kernel's parallel regions:
///
/// ```text
/// critical_path(work_ns, U, makespan(policy, U, P))  +  regions · S
/// ```
///
/// * `work_ns` — total chunk-execution (serial work) nanoseconds over
///   all of the kernel's regions;
/// * `u` — the parallel-loop extent per region (the stair-step `U`);
/// * `policy`, `workers` — the configuration being priced. The makespan
///   is [`Policy::ideal_makespan`]: the stair-step `ceil(U/P)` under
///   [`Policy::Static`], the list-scheduled chunk list under the
///   self-scheduled policies, which smooths the stair;
/// * `regions` — parallel regions executed;
/// * `sync_cost_ns` — the calibrated `S`.
///
/// **The sync term is `1 · S` per region, whatever the policy or the
/// worker count.** `S` is what
/// [`llp::obs::attr::AttributionReport::model_check`] measures: each
/// region's barrier-plus-claim nanoseconds summed over its lanes and
/// divided by the lane count — per-lane, i.e. *wall* time per region.
/// The lanes wait concurrently, so a region costs one `S` of wall
/// clock; multiplying it by the chunk hand-outs or by `P` (Table 1's
/// `P·S` is a CPU-time budget, not elapsed time) would count the same
/// interval once per lane.
///
/// The form has no superword term, and needs none: lane counts are
/// kernel constants, so every candidate runs the same inner loops and
/// differs only in workers and schedule.
///
/// Degenerate inputs (`work_ns <= 0`, `u == 0`, `workers == 0`) predict
/// 0 — a modeling hole, not a cost.
#[must_use]
#[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
pub fn predicted_cost_ns(
    work_ns: f64,
    u: u64,
    policy: Policy,
    workers: usize,
    regions: u64,
    sync_cost_ns: u64,
) -> f64 {
    if work_ns <= 0.0 || u == 0 || workers == 0 {
        return 0.0;
    }
    let makespan = policy.ideal_makespan(u as usize, workers) as u64;
    critical_path(work_ns, u, makespan) + regions as f64 * sync_cost_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The static closed form, stair-step plus one `S` per region,
    /// written out independently in floating point — the reference a
    /// static prediction must reproduce bit for bit.
    fn static_closed_form_ns(work_ns: f64, u: f64, workers: usize, regions: u64, s: u64) -> f64 {
        if work_ns <= 0.0 || u < 1.0 || workers == 0 {
            return 0.0;
        }
        let steps = (u / workers as f64).ceil();
        work_ns * steps / u + regions as f64 * s as f64
    }

    const WORK: [f64; 5] = [0.0, 1.0, 977.5, 1.2e6, 3.3e9];
    const EXTENT: [u64; 5] = [0, 1, 10, 12, 128];
    const WORKERS: [usize; 7] = [0, 1, 2, 3, 4, 8, 64];
    const REGIONS: [u64; 4] = [0, 1, 18, 4096];
    const SYNC: [u64; 4] = [0, 1, 650, 70_000];

    #[test]
    fn static_predictions_equal_the_parents_expected_cost_on_a_grid() {
        for work in WORK {
            for u in EXTENT {
                for p in WORKERS {
                    for regions in REGIONS {
                        for s in SYNC {
                            let new = predicted_cost_ns(work, u, Policy::Static, p, regions, s);
                            let old = static_closed_form_ns(work, u as f64, p, regions, s);
                            assert_eq!(
                                new.to_bits(),
                                old.to_bits(),
                                "work {work} u {u} p {p} regions {regions} s {s}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn predictions_are_monotone_in_regions_and_sync_cost() {
        let policies = [
            Policy::Static,
            Policy::Dynamic { chunk: 1 },
            Policy::Dynamic { chunk: 3 },
            Policy::Guided { min_chunk: 1 },
        ];
        for policy in policies {
            for u in [1, 10, 12, 128] {
                for p in [1, 2, 4, 8] {
                    let cost = |regions, s| predicted_cost_ns(1.2e6, u, policy, p, regions, s);
                    for pair in REGIONS.windows(2) {
                        assert!(cost(pair[0], 650) < cost(pair[1], 650), "{policy:?}");
                    }
                    for pair in SYNC.windows(2) {
                        assert!(cost(18, pair[0]) < cost(18, pair[1]), "{policy:?}");
                    }
                    // One S per region, whatever the policy or width.
                    let sync = cost(18, 650) - cost(18, 0);
                    assert!((sync - 18.0 * 650.0).abs() < 1e-6, "{policy:?} p {p}");
                }
            }
        }
    }

    #[test]
    fn self_scheduled_policies_are_priced_by_their_own_makespan() {
        // U = 10 on 4 workers: static pays ceil(10/4) = 3 of 10 steps,
        // unit dynamic chunks list-schedule to the same 3, and chunks
        // of 4 (4 + 4 + 2) leave one worker 4 steps.
        let cost = |policy| predicted_cost_ns(1000.0, 10, policy, 4, 0, 0);
        assert!((cost(Policy::Static) - 300.0).abs() < 1e-9);
        assert!((cost(Policy::Dynamic { chunk: 1 }) - 300.0).abs() < 1e-9);
        assert!((cost(Policy::Dynamic { chunk: 4 }) - 400.0).abs() < 1e-9);
    }
}
