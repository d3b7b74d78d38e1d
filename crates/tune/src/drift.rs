//! Model-drift watchdog: continuous validation of tuned
//! configurations against the paper's analytic cost model.
//!
//! A [`super::TuneDb`] entry is a bet: "this (workers, schedule,
//! `vector_width`) will cost what the calibration measured, which the
//! stair-step + Table 1 model predicted." The bet can go stale —
//! load mix, cache behavior, or zone topology shifts — without any
//! code change. This module watches the bet *continuously*: every
//! completed solve contributes one **drift score** per kernel,
//!
//! ```text
//! score = measured_cost / expected_cost − 1
//! ```
//!
//! where `expected_cost` is [`crate::model::predicted_cost_ns`] — the
//! one analytic form, the same function calibration reports next to
//! its winners — evaluated at the live run's work, extent and region
//! count, the entry's own workers and schedule, and the calibrated
//! `S`. A score of 0 means the model nailed it; +1.0 means the solve
//! cost twice the prediction.
//!
//! Per (kernel, config) key the tracker maintains an exponentially
//! weighted moving average and variance of the score
//! (`ewma += α·(x − ewma)`, `var = (1−α)·(var + (x − ewma_old)·α·(x −
//! ewma_old))`), so one noisy solve cannot flip a verdict. The
//! staleness rule, evaluated once per telemetry window
//! ([`DriftTracker::end_window`]):
//!
//! * a window is **drifting** for a key when the key saw at least one
//!   sample this window, has at least [`DriftConfig::min_samples`]
//!   lifetime samples, and its EWMA score exceeds
//!   [`DriftConfig::threshold`];
//! * [`DriftConfig::windows`] *consecutive* drifting windows mark the
//!   key stale (windows with no traffic for the key neither extend
//!   nor reset the streak);
//! * one non-drifting window with traffic resets the streak — and
//!   clears staleness, so a key heals itself if the world shifts
//!   back.
//!
//! Defaults are deliberately conservative — `threshold = 1.0` (the
//! measured cost must *double* the prediction), `windows = 3`,
//! `min_samples = 5` — so an ordinary noisy host does not cry wolf;
//! the acceptance bar is zero false positives on the default bench
//! mix. The serve layer owns the clock (its telemetry-window tick
//! calls `end_window`) and the mapping from newly stale keys to
//! `TuneDb` entries.

use llp::obs::json::Json;

/// Tuning knobs for the drift watchdog. [`DriftConfig::default`] is
/// the documented conservative policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// EWMA score above which a window counts as drifting. 1.0 means
    /// "measured cost is double the model's prediction".
    pub threshold: f64,
    /// Consecutive drifting windows required to mark a key stale.
    pub windows: u32,
    /// EWMA smoothing factor `α` in `(0, 1]`.
    pub alpha: f64,
    /// Lifetime samples a key needs before it can be judged at all.
    pub min_samples: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            threshold: 1.0,
            windows: 3,
            alpha: 0.3,
            min_samples: 5,
        }
    }
}

/// Running drift state for one (kernel, config) key.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyState {
    /// Kernel name (span-tree vocabulary), or a pseudo-kernel such as
    /// `sync_fraction` for pool-wide signals.
    pub kernel: String,
    /// Configuration label the scores were observed under (e.g.
    /// `w4:guided:v2`) — a retune that changes the config starts a
    /// fresh key rather than polluting the old one's EWMA.
    pub config: String,
    /// EWMA of the drift score.
    pub ewma: f64,
    /// Exponentially weighted variance of the score.
    pub variance: f64,
    /// Most recent raw score.
    pub last_score: f64,
    /// Lifetime samples.
    pub samples: u64,
    /// Samples in the window currently accumulating.
    window_samples: u64,
    /// Consecutive drifting windows so far.
    pub streak: u32,
    /// Whether the streak reached the configured window count.
    pub stale: bool,
}

impl KeyState {
    fn new(kernel: &str, config: &str) -> Self {
        KeyState {
            kernel: kernel.to_string(),
            config: config.to_string(),
            ewma: 0.0,
            variance: 0.0,
            last_score: 0.0,
            samples: 0,
            window_samples: 0,
            streak: 0,
            stale: false,
        }
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("kernel", Json::Str(self.kernel.clone())),
            ("config", Json::Str(self.config.clone())),
            ("ewma", Json::Num(self.ewma)),
            ("variance", Json::Num(self.variance)),
            ("last_score", Json::Num(self.last_score)),
            ("samples", Json::from_u64(self.samples)),
            ("streak", Json::from_u64(u64::from(self.streak))),
            ("stale", Json::Bool(self.stale)),
        ])
    }
}

/// The watchdog: per-key EWMA + variance of drift scores, windowed
/// staleness verdicts. Not internally synchronized — the serve layer
/// keeps it behind its own lock next to the `TuneDb`.
#[derive(Debug)]
pub struct DriftTracker {
    config: DriftConfig,
    keys: Vec<KeyState>,
}

impl DriftTracker {
    /// A tracker with the given policy.
    #[must_use]
    pub fn new(config: DriftConfig) -> Self {
        DriftTracker {
            config,
            keys: Vec::new(),
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn config(&self) -> DriftConfig {
        self.config
    }

    /// Record one solve's measured vs expected cost for a key. Scores
    /// are `measured/expected − 1`; non-finite or non-positive inputs
    /// are ignored (a zero expectation is a modeling hole, not drift).
    pub fn observe(&mut self, kernel: &str, config: &str, measured: f64, expected: f64) {
        if !(measured.is_finite() && expected.is_finite()) || measured <= 0.0 || expected <= 0.0 {
            return;
        }
        self.observe_score(kernel, config, measured / expected - 1.0);
    }

    /// Record a pre-computed drift score for a key.
    pub fn observe_score(&mut self, kernel: &str, config: &str, score: f64) {
        if !score.is_finite() {
            return;
        }
        let state = match self
            .keys
            .iter_mut()
            .find(|k| k.kernel == kernel && k.config == config)
        {
            Some(state) => state,
            None => {
                self.keys.push(KeyState::new(kernel, config));
                self.keys.last_mut().expect("just pushed")
            }
        };
        let alpha = self.config.alpha;
        if state.samples == 0 {
            state.ewma = score;
            state.variance = 0.0;
        } else {
            let diff = score - state.ewma;
            let incr = alpha * diff;
            state.ewma += incr;
            state.variance = (1.0 - alpha) * (state.variance + diff * incr);
        }
        state.last_score = score;
        state.samples += 1;
        state.window_samples += 1;
    }

    /// Close the current window and apply the staleness rule to every
    /// key. Returns the keys that *newly* became stale in this window
    /// as `(kernel, config)` pairs.
    pub fn end_window(&mut self) -> Vec<(String, String)> {
        let mut newly_stale = Vec::new();
        for state in &mut self.keys {
            if state.window_samples == 0 {
                continue; // no traffic: streak neither grows nor resets
            }
            state.window_samples = 0;
            let drifting =
                state.samples >= self.config.min_samples && state.ewma > self.config.threshold;
            if drifting {
                state.streak = state.streak.saturating_add(1);
                if state.streak >= self.config.windows && !state.stale {
                    state.stale = true;
                    newly_stale.push((state.kernel.clone(), state.config.clone()));
                }
            } else {
                state.streak = 0;
                state.stale = false;
            }
        }
        newly_stale
    }

    /// Kernels currently stale (deduplicated, sorted).
    #[must_use]
    pub fn stale_kernels(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .keys
            .iter()
            .filter(|k| k.stale)
            .map(|k| k.kernel.clone())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Number of stale keys.
    #[must_use]
    pub fn stale_count(&self) -> usize {
        self.keys.iter().filter(|k| k.stale).count()
    }

    /// All key states (for `/v1/health` detail), sorted by kernel then
    /// config.
    #[must_use]
    pub fn states(&self) -> Vec<&KeyState> {
        let mut out: Vec<&KeyState> = self.keys.iter().collect();
        out.sort_by(|a, b| (&a.kernel, &a.config).cmp(&(&b.kernel, &b.config)));
        out
    }

    /// Drop all accumulated state — call after a recalibration, whose
    /// new entries invalidate every old expectation.
    pub fn reset(&mut self) {
        self.keys.clear();
    }

    /// JSON rendering of the tracker: policy plus per-key states.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("threshold", Json::Num(self.config.threshold)),
            ("windows", Json::from_u64(u64::from(self.config.windows))),
            ("alpha", Json::Num(self.config.alpha)),
            ("min_samples", Json::from_u64(self.config.min_samples)),
            (
                "keys",
                Json::Array(self.states().iter().map(|k| k.to_json()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::predicted_cost_ns;
    use llp::Policy;

    fn tight() -> DriftConfig {
        DriftConfig {
            threshold: 0.5,
            windows: 2,
            alpha: 0.5,
            min_samples: 2,
        }
    }

    #[test]
    fn scores_are_relative_excess_over_expectation() {
        let mut t = DriftTracker::new(tight());
        t.observe("rhs", "w4:static:v1", 150.0, 100.0);
        let s = &t.states()[0];
        assert!((s.ewma - 0.5).abs() < 1e-12);
        assert_eq!(s.samples, 1);
        // Degenerate inputs are dropped, not scored.
        t.observe("rhs", "w4:static:v1", 100.0, 0.0);
        t.observe("rhs", "w4:static:v1", f64::NAN, 100.0);
        assert_eq!(t.states()[0].samples, 1);
    }

    #[test]
    fn ewma_and_variance_track_the_stream() {
        let mut t = DriftTracker::new(tight());
        t.observe_score("rhs", "c", 1.0);
        t.observe_score("rhs", "c", 0.0);
        let s = &t.states()[0];
        // ewma: 1.0 then 1.0 + 0.5*(0-1) = 0.5
        assert!((s.ewma - 0.5).abs() < 1e-12);
        assert!(s.variance > 0.0, "spread must register");
        assert_eq!(s.samples, 2);
    }

    #[test]
    fn staleness_needs_consecutive_drifting_windows() {
        let mut t = DriftTracker::new(tight());
        // Window 1: drifting, but min_samples not yet met at judging.
        t.observe_score("rhs", "c", 2.0);
        assert!(t.end_window().is_empty(), "one sample < min_samples");
        // Window 2: drifting (samples now 2, ewma 2.0 > 0.5).
        t.observe_score("rhs", "c", 2.0);
        assert!(t.end_window().is_empty(), "streak 1 < windows 2");
        // Window 3: still drifting -> streak 2 -> stale.
        t.observe_score("rhs", "c", 2.0);
        let newly = t.end_window();
        assert_eq!(newly, vec![("rhs".to_string(), "c".to_string())]);
        assert_eq!(t.stale_kernels(), vec!["rhs".to_string()]);
        assert_eq!(t.stale_count(), 1);
        // Already-stale keys are not re-reported.
        t.observe_score("rhs", "c", 2.0);
        assert!(t.end_window().is_empty());
        assert_eq!(t.stale_count(), 1);
    }

    #[test]
    fn a_healthy_window_resets_streak_and_heals_staleness() {
        let mut t = DriftTracker::new(tight());
        for _ in 0..3 {
            t.observe_score("rhs", "c", 2.0);
            t.end_window();
        }
        assert_eq!(t.stale_count(), 1);
        // The model fits again: staleness clears.
        t.observe_score("rhs", "c", 0.0);
        t.observe_score("rhs", "c", 0.0);
        t.observe_score("rhs", "c", 0.0);
        assert!(t.end_window().is_empty());
        assert_eq!(t.stale_count(), 0);
        assert_eq!(t.states()[0].streak, 0);
    }

    #[test]
    fn quiet_windows_freeze_the_streak() {
        let mut t = DriftTracker::new(tight());
        t.observe_score("rhs", "c", 2.0);
        t.observe_score("rhs", "c", 2.0);
        t.end_window(); // streak 1
        t.end_window(); // no traffic: streak stays 1, no reset
        t.end_window();
        t.observe_score("rhs", "c", 2.0);
        let newly = t.end_window(); // streak 2 -> stale
        assert_eq!(newly.len(), 1);
    }

    #[test]
    fn keys_are_isolated_and_reset_drops_everything() {
        let mut t = DriftTracker::new(tight());
        t.observe_score("rhs", "a", 2.0);
        t.observe_score("rhs", "b", 0.0);
        t.observe_score("update", "a", 2.0);
        assert_eq!(t.states().len(), 3);
        t.reset();
        assert!(t.states().is_empty());
        assert_eq!(t.stale_count(), 0);
    }

    #[test]
    fn expected_cost_follows_the_stairstep_plus_sync() {
        // What a static entry's score divides by: 12 units of work over
        // U=12, P=4 -> 3 steps of work/12 each, plus 2 regions x 10 ns
        // sync.
        let e = predicted_cost_ns(1200.0, 12.0, Policy::Static, 4, 2, 10);
        assert!((e - (1200.0 * 3.0 / 12.0 + 20.0)).abs() < 1e-9);
        // P > U cannot beat one step.
        let e1 = predicted_cost_ns(1200.0, 12.0, Policy::Static, 32, 0, 0);
        assert!((e1 - 100.0).abs() < 1e-9);
        assert_eq!(predicted_cost_ns(0.0, 12.0, Policy::Static, 4, 1, 10), 0.0);
        assert_eq!(predicted_cost_ns(100.0, 0.5, Policy::Static, 4, 1, 10), 0.0);
    }

    #[test]
    fn json_rendering_carries_policy_and_keys() {
        let mut t = DriftTracker::new(DriftConfig::default());
        t.observe_score("rhs", "w4:static:v1", 0.25);
        let j = t.to_json();
        assert_eq!(j.get("threshold").and_then(Json::as_f64), Some(1.0));
        let keys = j.get("keys").and_then(Json::as_array).unwrap();
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].get("kernel").and_then(Json::as_str), Some("rhs"));
        assert_eq!(keys[0].get("stale").and_then(Json::as_bool), Some(false));
    }
}
