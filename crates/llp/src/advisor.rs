//! The incremental-parallelization advisor (paper Section 4).
//!
//! The paper's workflow: profile the serial code, then parallelize the
//! expensive loops "one (or a few) at a time", leaving loops whose work
//! cannot justify the synchronization overhead — boundary conditions
//! above all — serial. The profile is the span report's per-kernel
//! rows ([`crate::obs::ObsReport::kernel_summaries`], or
//! [`KernelSummary`] rows stated by hand for a modeled or remote
//! profile); the advisor automates the decision with the models of
//! `perfmodel`:
//!
//! * a loop is worth parallelizing on `P` processors only if its work
//!   per invocation exceeds the Table-1 bound `P × sync / f`;
//! * the benefit is capped by the stair-step law of its available
//!   parallelism;
//! * the cost of the loops left serial is an Amdahl term.
//!
//! The resulting [`Advice`] judges every loop (with its share of the
//! profiled time, so a caller can rank what to parallelize first) and
//! predicts the whole-program speedup of the recommended configuration.

use crate::obs::KernelSummary;
use crate::schedule::Policy;
use perfmodel::overhead::OverheadBound;
use perfmodel::stairstep::{critical_path, ideal_speedup, max_units_per_processor};

/// Why a loop was or was not recommended for parallelization.
#[derive(Debug, Clone, PartialEq)]
pub enum LoopDecision {
    /// Parallelize: the expected speedup of the loop at the target
    /// processor count, overhead included.
    Parallelize {
        /// Predicted loop speedup (stair-step × overhead factor).
        predicted_speedup: f64,
    },
    /// Leave serial: the loop's work cannot amortize a synchronization
    /// event within the overhead budget (Table 1 test).
    TooLittleWork {
        /// Work per invocation, in cycles.
        work_cycles: u64,
        /// The Table-1 minimum for the target processor count.
        required_cycles: u64,
    },
    /// Leave serial: fewer than two units of available parallelism.
    NoParallelism,
}

/// A per-loop configuration measured by an autotuner (the `tune`
/// crate's database): the configuration that actually won a
/// calibration sweep, with its measured and modeled costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasuredChoice {
    /// Measured-best worker count.
    pub workers: usize,
    /// Measured-best schedule.
    pub schedule: Policy,
    /// Median measured cost of the winning configuration, nanoseconds.
    pub measured_cost_ns: u64,
    /// The analytic model's predicted cost for the same configuration,
    /// nanoseconds.
    pub modeled_cost_ns: u64,
}

/// A [`MeasuredChoice`] attached to a loop's advice, with the verdict
/// of confronting it against the purely analytic recommendation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasuredAdvice {
    /// The autotuner's winning configuration for this loop.
    pub choice: MeasuredChoice,
    /// Whether the measured schedule matches the analytic
    /// [`LoopAdvice::schedule`] recommendation. `false` is the
    /// interesting case: the machine disagrees with the model, and the
    /// measured answer is the one to trust.
    pub agrees_with_analytic: bool,
}

/// Advice for one loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopAdvice {
    /// Loop name (from the profile).
    pub name: String,
    /// Fraction of total profiled time.
    pub fraction_of_total: f64,
    /// The decision and its rationale.
    pub decision: LoopDecision,
    /// Recommended chunk-scheduling policy when parallelized
    /// ([`Policy::Static`] for loops left serial — the field is
    /// meaningful only alongside [`LoopDecision::Parallelize`]).
    pub schedule: Policy,
    /// When an autotuner measurement covers this loop
    /// ([`Advisor::advise_with_measured`]), the measured winner —
    /// preferred over the analytic `schedule` — and whether the two
    /// agree. `None` from the purely analytic [`Advisor::advise`].
    pub measured: Option<MeasuredAdvice>,
}

impl LoopAdvice {
    /// The schedule a caller should actually apply: the measured winner
    /// when an autotuner entry covers this loop, the analytic
    /// recommendation otherwise.
    #[must_use]
    pub fn preferred_schedule(&self) -> Policy {
        self.measured
            .as_ref()
            .map_or(self.schedule, |m| m.choice.schedule)
    }
}

/// Whole-program advice.
#[derive(Debug, Clone, PartialEq)]
pub struct Advice {
    /// Per-loop advice, in the order the profile rows were given. A
    /// caller that wants the incremental workflow's "most expensive
    /// first" sorts by [`LoopAdvice::fraction_of_total`].
    pub loops: Vec<LoopAdvice>,
    /// Fraction of profiled time left serial under the recommendation.
    pub serial_fraction: f64,
    /// Predicted whole-program speedup at the target processor count,
    /// accounting for stair-step limits, synchronization overhead, and
    /// the Amdahl cost of the loops left serial.
    pub predicted_speedup: f64,
}

/// The advisor: machine parameters against which profiles are judged.
#[derive(Debug, Clone, Copy)]
pub struct Advisor {
    /// Processor clock rate in Hz (converts profiled seconds to cycles).
    pub clock_hz: f64,
    /// Synchronization cost and overhead budget.
    pub bound: OverheadBound,
    /// Target processor count.
    pub processors: u32,
}

impl Advisor {
    /// Create an advisor.
    ///
    /// # Panics
    /// Panics if `clock_hz` is not positive or `processors == 0`.
    #[must_use]
    pub fn new(clock_hz: f64, bound: OverheadBound, processors: u32) -> Self {
        assert!(clock_hz > 0.0, "clock rate must be positive");
        assert!(processors > 0, "processor count must be positive");
        Self {
            clock_hz,
            bound,
            processors,
        }
    }

    /// Judge one loop: should it be parallelized on this machine?
    #[must_use]
    pub fn judge(&self, report: &KernelSummary) -> LoopDecision {
        if report.parallelism < 2 {
            return LoopDecision::NoParallelism;
        }
        let work_cycles = (report.seconds_per_invocation() * self.clock_hz) as u64;
        let required = self.bound.min_work(self.processors);
        if work_cycles < required {
            return LoopDecision::TooLittleWork {
                work_cycles,
                required_cycles: required,
            };
        }
        // Parallel time per invocation = critical path + sync cost.
        let serial_s = report.seconds_per_invocation();
        let m = max_units_per_processor(report.parallelism, self.processors);
        let sync_s = self.bound.sync_cost_cycles as f64 / self.clock_hz;
        let par_s = critical_path(serial_s, report.parallelism, m) + sync_s;
        LoopDecision::Parallelize {
            predicted_speedup: serial_s / par_s,
        }
    }

    /// Recommend a chunk-scheduling policy for a loop this advisor
    /// would parallelize.
    ///
    /// Static block scheduling is the default — it realizes the
    /// stair-step bound with a single scheduling event, exactly the
    /// vendor `C$doacross` behaviour the paper models. Self-scheduling
    /// is recommended only when both of these hold:
    ///
    /// * the static stair loses real efficiency — `U` units over `P`
    ///   processors leave processors idle on the last round
    ///   (`U mod P != 0` with efficiency below 90%), which guided
    ///   hand-outs can smooth when iteration costs vary; and
    /// * the loop's work amortizes the extra scheduling interactions:
    ///   guided hands out at most ~`4P` chunks, each priced at one
    ///   synchronization cost, and their total must stay within the
    ///   advisor's overhead budget (the Table-1 reasoning applied to
    ///   scheduling events instead of region exits).
    ///
    /// Loops the advisor would leave serial get [`Policy::Static`].
    #[must_use]
    pub fn recommend_schedule(&self, report: &KernelSummary) -> Policy {
        if !matches!(self.judge(report), LoopDecision::Parallelize { .. }) {
            return Policy::Static;
        }
        let u = report.parallelism;
        let p = u64::from(self.processors);
        // u <= p: static gives every unit its own processor already;
        // u % p == 0: static blocks are perfectly balanced.
        if u <= p || u.is_multiple_of(p) {
            return Policy::Static;
        }
        let efficiency = ideal_speedup(u, self.processors) / p as f64;
        if efficiency >= 0.9 {
            return Policy::Static;
        }
        // Guided hand-outs: chunks shrink as remaining/P with a floor
        // that bounds total hand-outs near 4P scheduling interactions.
        let handouts = 4 * p;
        let min_chunk = u.div_ceil(handouts).max(1);
        let work_cycles = (report.seconds_per_invocation() * self.clock_hz) as u64;
        let schedule_cost = handouts.saturating_mul(self.bound.sync_cost_cycles);
        #[allow(clippy::cast_precision_loss)]
        if (schedule_cost as f64) > self.bound.max_overhead_fraction * work_cycles as f64 {
            return Policy::Static;
        }
        #[allow(clippy::cast_possible_truncation)]
        Policy::Guided {
            min_chunk: min_chunk as usize,
        }
    }

    /// Advise on a full profile. Loops come back in the order given;
    /// each one's `fraction_of_total` is its share of the rows' summed
    /// seconds (0 for an all-zero profile).
    #[must_use]
    pub fn advise(&self, reports: &[KernelSummary]) -> Advice {
        let total: f64 = reports.iter().map(|r| r.seconds).sum();
        let mut loops = Vec::with_capacity(reports.len());
        let mut serial_time = 0.0;
        let mut predicted_time = 0.0;
        let sync_s = self.bound.sync_cost_cycles as f64 / self.clock_hz;
        for r in reports {
            let decision = self.judge(r);
            match decision {
                LoopDecision::Parallelize { .. } => {
                    let m = max_units_per_processor(r.parallelism, self.processors);
                    predicted_time +=
                        critical_path(r.seconds, r.parallelism, m) + sync_s * r.invocations as f64;
                }
                _ => {
                    serial_time += r.seconds;
                    predicted_time += r.seconds;
                }
            }
            loops.push(LoopAdvice {
                name: r.name.clone(),
                fraction_of_total: if total > 0.0 { r.seconds / total } else { 0.0 },
                schedule: self.recommend_schedule(r),
                decision,
                measured: None,
            });
        }
        Advice {
            loops,
            serial_fraction: if total > 0.0 {
                serial_time / total
            } else {
                0.0
            },
            predicted_speedup: if predicted_time > 0.0 && total > 0.0 {
                total / predicted_time
            } else {
                1.0
            },
        }
    }

    /// [`Advisor::advise`], then overlay measured autotuner entries:
    /// any loop whose name appears in `measured` gets the measured
    /// winner attached (and preferred, per
    /// [`LoopAdvice::preferred_schedule`]), together with whether it
    /// agrees with the analytic recommendation — the AutOMP-style
    /// combination of static model and runtime measurement, reporting
    /// both sides and their disagreement instead of hiding one.
    #[must_use]
    pub fn advise_with_measured(
        &self,
        reports: &[KernelSummary],
        measured: &[(String, MeasuredChoice)],
    ) -> Advice {
        let mut advice = self.advise(reports);
        for l in &mut advice.loops {
            if let Some((_, choice)) = measured.iter().find(|(name, _)| *name == l.name) {
                l.measured = Some(MeasuredAdvice {
                    agrees_with_analytic: choice.schedule == l.schedule,
                    choice: choice.clone(),
                });
            }
        }
        advice
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(name: &str, seconds: f64, invocations: u64, parallelism: u64) -> KernelSummary {
        KernelSummary {
            invocations,
            seconds,
            parallelism,
            ..KernelSummary::named(name)
        }
    }

    fn advisor(processors: u32) -> Advisor {
        // 300 MHz clock, 10k-cycle sync cost, 1% budget (Origin-like).
        Advisor::new(300e6, OverheadBound::paper_default(10_000), processors)
    }

    #[test]
    fn expensive_loop_is_parallelized() {
        // 1 s per invocation at 300 MHz = 3e8 cycles >> Table-1 bound
        // for 32 procs (3.2e7 cycles).
        let a = advisor(32);
        let r = report("rhs", 10.0, 10, 70);
        match a.judge(&r) {
            LoopDecision::Parallelize { predicted_speedup } => {
                // stair-step: ceil(70/32)=3 -> 70/3 = 23.3; sync negligible
                assert!((predicted_speedup - 70.0 / 3.0).abs() < 0.1);
            }
            other => panic!("expected Parallelize, got {other:?}"),
        }
    }

    #[test]
    fn boundary_condition_left_serial() {
        // 200 µs per invocation = 60k cycles < 3.2e7 bound for 32 procs:
        // exactly the paper's "leave the BC routines unparallelized".
        let a = advisor(32);
        let r = report("bc_wall", 0.02, 100, 75);
        match a.judge(&r) {
            LoopDecision::TooLittleWork {
                work_cycles,
                required_cycles,
            } => {
                assert_eq!(work_cycles, 60_000);
                assert_eq!(required_cycles, 32_000_000);
            }
            other => panic!("expected TooLittleWork, got {other:?}"),
        }
    }

    #[test]
    fn no_parallelism_left_serial() {
        let a = advisor(8);
        let r = report("scalar_reduce", 100.0, 1, 1);
        assert_eq!(a.judge(&r), LoopDecision::NoParallelism);
    }

    #[test]
    fn more_processors_raise_the_bar() {
        // A loop that passes on 2 processors can fail on 128 — the
        // paper's "the more processors that are used, the harder it is
        // to justify the overhead".
        let r = report("mid", 0.01, 1, 64); // 3e6 cycles
        assert!(matches!(
            advisor(2).judge(&r),
            LoopDecision::Parallelize { .. }
        ));
        assert!(matches!(
            advisor(128).judge(&r),
            LoopDecision::TooLittleWork { .. }
        ));
    }

    #[test]
    fn advice_accounts_for_amdahl() {
        let a = advisor(32);
        let reports = vec![
            report("rhs", 90.0, 10, 320), // parallelizable, stair 320/10=32x
            report("bc", 10.0, 1000, 75), // too little work per invocation
        ];
        let advice = a.advise(&reports);
        assert!((advice.serial_fraction - 0.1).abs() < 1e-9);
        // Predicted: 90/32 + tiny sync + 10 serial ~ 12.8 s of 100 s.
        assert!(advice.predicted_speedup > 7.0);
        assert!(
            advice.predicted_speedup < 8.0,
            "{}",
            advice.predicted_speedup
        );
    }

    #[test]
    fn empty_profile_is_neutral() {
        let advice = advisor(8).advise(&[]);
        assert_eq!(advice.predicted_speedup, 1.0);
        assert_eq!(advice.serial_fraction, 0.0);
        assert!(advice.loops.is_empty());
    }

    #[test]
    fn schedule_recommendations_follow_stair_and_budget() {
        let a = advisor(32);
        // Uneven stair (70 over 32: efficiency 0.73) with plenty of
        // work: guided self-scheduling, min_chunk from the 4P hand-out
        // bound.
        let uneven = report("rhs", 10.0, 10, 70);
        assert_eq!(
            a.recommend_schedule(&uneven),
            Policy::Guided { min_chunk: 1 }
        );
        // Perfectly balanced blocks: nothing to smooth.
        let balanced = report("rhs", 90.0, 10, 320);
        assert_eq!(a.recommend_schedule(&balanced), Policy::Static);
        // Fewer units than processors: every unit already has its own
        // processor.
        let narrow = report("rhs", 10.0, 10, 20);
        assert_eq!(a.recommend_schedule(&narrow), Policy::Static);
        // Uneven stair but the work barely clears the Table-1 bound:
        // the extra scheduling interactions would blow the budget.
        let marginal = report("mid", 1.1, 10, 70); // 3.3e7 cycles/invocation
        assert!(matches!(
            a.judge(&marginal),
            LoopDecision::Parallelize { .. }
        ));
        assert_eq!(a.recommend_schedule(&marginal), Policy::Static);
        // Loops left serial are never given a dynamic policy.
        let bc = report("bc_wall", 0.02, 100, 75);
        assert_eq!(a.recommend_schedule(&bc), Policy::Static);
        // advise() carries the recommendation through.
        let advice = a.advise(&[uneven]);
        assert_eq!(advice.loops[0].schedule, Policy::Guided { min_chunk: 1 });
    }

    #[test]
    fn measured_entries_overlay_and_report_disagreement() {
        let a = advisor(32);
        let reports = vec![
            report("rhs", 10.0, 10, 70),     // analytic: Guided { min_chunk: 1 }
            report("update", 90.0, 10, 320), // analytic: Static
        ];
        let measured = vec![(
            "rhs".to_string(),
            MeasuredChoice {
                workers: 8,
                schedule: Policy::Dynamic { chunk: 2 },
                measured_cost_ns: 1_000,
                modeled_cost_ns: 1_200,
            },
        )];
        let advice = a.advise_with_measured(&reports, &measured);
        let rhs = &advice.loops[0];
        assert_eq!(rhs.name, "rhs");
        // The analytic answer is still reported...
        assert_eq!(rhs.schedule, Policy::Guided { min_chunk: 1 });
        // ...but the measured winner is preferred, and the disagreement
        // is called out.
        let m = rhs.measured.as_ref().expect("measured entry attached");
        assert!(!m.agrees_with_analytic);
        assert_eq!(rhs.preferred_schedule(), Policy::Dynamic { chunk: 2 });
        // Uncovered loops fall back to the analytic schedule.
        let update = &advice.loops[1];
        assert!(update.measured.is_none());
        assert_eq!(update.preferred_schedule(), update.schedule);
        // Plain advise() attaches nothing.
        assert!(a
            .advise(&reports)
            .loops
            .iter()
            .all(|l| l.measured.is_none()));
    }

    #[test]
    fn sync_cost_degrades_prediction() {
        // Same loop judged with a 1M-cycle sync cost machine must show a
        // lower predicted speedup than with a 10k-cycle machine.
        let cheap_sync = Advisor::new(300e6, OverheadBound::paper_default(10_000), 16);
        let costly_sync = Advisor::new(300e6, OverheadBound::paper_default(1_000_000), 16);
        let r = report("rhs", 600.0, 60, 64); // 10 s per invocation: 3e9 cycles
        let s1 = match cheap_sync.judge(&r) {
            LoopDecision::Parallelize { predicted_speedup } => predicted_speedup,
            other => panic!("{other:?}"),
        };
        let s2 = match costly_sync.judge(&r) {
            LoopDecision::Parallelize { predicted_speedup } => predicted_speedup,
            other => panic!("{other:?}"),
        };
        assert!(s2 < s1);
    }
}
