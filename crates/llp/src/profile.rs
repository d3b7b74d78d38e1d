//! Per-loop profiling (paper Sections 4 and 6).
//!
//! "It is possible to use profiling to find the expensive loops and
//! then to parallelize them one (or a few) at a time." The profiler is
//! the `prof`-shaped tool that drives that workflow: each named loop
//! accumulates wall time, invocation counts, and its available
//! parallelism, and the report ranks loops by cost so the
//! [`crate::advisor`] can decide which are worth parallelizing.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Accumulated statistics for one named loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoopStats {
    /// Number of times the loop ran.
    pub invocations: u64,
    /// Total wall-clock seconds across invocations.
    pub total_seconds: f64,
    /// Available parallelism (iterations of the parallelizable level),
    /// as recorded by the most recent invocation.
    pub parallelism: u64,
    /// Whether the loop is currently executed in parallel.
    pub parallelized: bool,
}

/// A thread-safe registry of named-loop statistics.
#[derive(Debug, Default)]
pub struct LoopProfiler {
    stats: Mutex<HashMap<String, LoopStats>>,
}

impl LoopProfiler {
    /// New empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Time one invocation of loop `name`, recording its available
    /// parallelism and whether it ran parallelized.
    pub fn time<R>(
        &self,
        name: &str,
        parallelism: u64,
        parallelized: bool,
        body: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = body();
        self.record(
            name,
            start.elapsed().as_secs_f64(),
            parallelism,
            parallelized,
        );
        out
    }

    /// Record one invocation of `name` taking `seconds`.
    pub fn record(&self, name: &str, seconds: f64, parallelism: u64, parallelized: bool) {
        let mut stats = self.stats.lock().expect("profiler lock");
        let e = stats.entry(name.to_string()).or_default();
        e.invocations += 1;
        e.total_seconds += seconds;
        e.parallelism = parallelism;
        e.parallelized = parallelized;
    }

    /// Statistics for one loop, if recorded.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<LoopStats> {
        self.stats.lock().expect("profiler lock").get(name).cloned()
    }

    /// Total seconds across all loops.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.stats
            .lock()
            .expect("profiler lock")
            .values()
            .map(|s| s.total_seconds)
            .sum()
    }

    /// Full report, sorted by descending total time — "find the
    /// expensive loops".
    #[must_use]
    pub fn report(&self) -> Vec<LoopReport> {
        let stats = self.stats.lock().expect("profiler lock");
        let total: f64 = stats.values().map(|s| s.total_seconds).sum();
        let mut rows: Vec<LoopReport> = stats
            .iter()
            .map(|(name, s)| LoopReport {
                name: name.clone(),
                stats: s.clone(),
                fraction_of_total: if total > 0.0 {
                    s.total_seconds / total
                } else {
                    0.0
                },
            })
            .collect();
        rows.sort_by(|a, b| {
            b.stats
                .total_seconds
                .partial_cmp(&a.stats.total_seconds)
                .expect("profile times are finite")
                .then_with(|| a.name.cmp(&b.name))
        });
        rows
    }

    /// Drop all recorded statistics.
    pub fn clear(&self) {
        self.stats.lock().expect("profiler lock").clear();
    }
}

/// One row of a profile report.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopReport {
    /// Loop name.
    pub name: String,
    /// Accumulated statistics.
    pub stats: LoopStats,
    /// This loop's share of total profiled time, in `[0, 1]`.
    pub fraction_of_total: f64,
}

impl LoopReport {
    /// Seconds per invocation (0 if never invoked).
    #[must_use]
    pub fn seconds_per_invocation(&self) -> f64 {
        if self.stats.invocations == 0 {
            0.0
        } else {
            self.stats.total_seconds / self.stats.invocations as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_invocations() {
        let p = LoopProfiler::new();
        p.record("rhs", 1.0, 70, false);
        p.record("rhs", 2.0, 70, false);
        p.record("bc", 0.5, 75, false);
        let s = p.get("rhs").unwrap();
        assert_eq!(s.invocations, 2);
        assert!((s.total_seconds - 3.0).abs() < 1e-12);
        assert!((p.total_seconds() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn report_sorted_by_cost() {
        let p = LoopProfiler::new();
        p.record("cheap", 0.1, 10, false);
        p.record("expensive", 5.0, 70, false);
        p.record("medium", 1.0, 70, true);
        let r = p.report();
        assert_eq!(r[0].name, "expensive");
        assert_eq!(r[1].name, "medium");
        assert_eq!(r[2].name, "cheap");
        assert!((r[0].fraction_of_total - 5.0 / 6.1).abs() < 1e-12);
    }

    #[test]
    fn time_measures_and_returns() {
        let p = LoopProfiler::new();
        let v = p.time("work", 4, true, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(v, 7);
        let s = p.get("work").unwrap();
        assert_eq!(s.invocations, 1);
        assert!(s.total_seconds >= 0.004, "got {}", s.total_seconds);
        assert!(s.parallelized);
        assert_eq!(s.parallelism, 4);
    }

    #[test]
    fn seconds_per_invocation() {
        let p = LoopProfiler::new();
        p.record("x", 2.0, 1, false);
        p.record("x", 4.0, 1, false);
        let r = p.report();
        assert!((r[0].seconds_per_invocation() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn clear_empties() {
        let p = LoopProfiler::new();
        p.record("x", 1.0, 1, false);
        p.clear();
        assert!(p.get("x").is_none());
        assert_eq!(p.total_seconds(), 0.0);
        assert!(p.report().is_empty());
    }

    #[test]
    fn ties_break_by_name() {
        let p = LoopProfiler::new();
        p.record("b", 1.0, 1, false);
        p.record("a", 1.0, 1, false);
        let r = p.report();
        assert_eq!(r[0].name, "a");
    }
}
