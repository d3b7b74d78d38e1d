//! Fixed-bucket histograms: lock-free distribution counters for the
//! serve path's request latencies and queue depths.
//!
//! Bucket bounds are fixed at construction, so recording is a linear
//! scan over a handful of bounds plus two relaxed atomic adds — no
//! allocation, no lock, safe to call from every connection thread
//! concurrently. [`Histogram::snapshot`] copies the cells into
//! [`Buckets`], which is what gets rendered: cumulative (`le`) buckets
//! in the Prometheus style, count/sum and quantiles. The difference of
//! two snapshots ([`Buckets::since`]) is the distribution of what was
//! recorded between them — a telemetry window's histogram.
//!
//! # Quantile rule (no interpolation)
//!
//! [`Buckets::quantile`] resolves `q ∈ [0, 1]` to the **smallest
//! bucket upper bound** whose cumulative count reaches the rank
//! `max(1, ceil(q · n))` over `n` recorded observations. There is no
//! intra-bucket interpolation: every returned value is one of the
//! configured bounds, never a value between them, so the estimate for
//! a true sample quantile `x` is the bucket ceiling `min{b : b ≥ x}`
//! — an upper bound on the exact order statistic as long as the
//! observation lies within the bounded range. Observations beyond the
//! last bound land in the implicit `+Inf` bucket and are reported as
//! the last finite bound (the histogram cannot resolve further), which
//! is the one case where the estimate may under-report. An empty
//! histogram has no quantiles (`None`). The exact contract — bucket
//! ceiling of the sorted-sample order statistic at rank
//! `max(1, ceil(q·n))` — is property-tested against a sorted-sample
//! oracle in `crates/serve/tests/hist_oracle.rs`.

use llp::obs::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// `f64` accumulation on a bit-pattern cell (std has no `f64` atomics).
pub(crate) fn add_f64(cell: &AtomicU64, v: f64) {
    cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
        Some((f64::from_bits(bits) + v).to_bits())
    })
    .expect("the update closure never declines");
}

/// A fixed-bucket histogram of `f64` observations.
#[derive(Debug)]
pub struct Histogram {
    /// Upper bounds, strictly increasing; an implicit +∞ bucket follows.
    bounds: &'static [f64],
    /// One counter per bound plus the overflow bucket.
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// A histogram over the given strictly-increasing upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn new(bounds: &'static [f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0),
        }
    }

    /// Buckets suited to request latencies in milliseconds: 0.5 ms to
    /// 10 s in roughly 1-2-5 steps.
    #[must_use]
    pub fn latency_ms() -> Self {
        Self::new(&[
            0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
            10_000.0,
        ])
    }

    /// Buckets suited to small queue depths (0 to 64, powers of two).
    #[must_use]
    pub fn queue_depth() -> Self {
        Self::new(&[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
    }

    /// Record one observation. NaN observations land in the overflow
    /// bucket rather than poisoning the sums.
    pub fn record(&self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        if value.is_finite() {
            add_f64(&self.sum_bits, value);
        }
    }

    /// Copy the cells out.
    #[must_use]
    pub fn snapshot(&self) -> Buckets {
        Buckets {
            bounds: self.bounds,
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// A histogram's cells, copied at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Buckets {
    bounds: &'static [f64],
    /// One count per bound plus the overflow bucket; not cumulative.
    counts: Vec<u64>,
    sum: f64,
}

impl Buckets {
    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all finite observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Estimate quantile `q` in `[0, 1]` by the rule in the module
    /// docs. `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let last = self.bounds[self.bounds.len() - 1];
        let reached = self.cumulative().find(|&(_, c)| c >= target);
        Some(reached.map_or(last, |(bound, _)| bound.min(last)))
    }

    /// What was recorded after `earlier`, a snapshot of the same
    /// histogram: bucket by bucket, and the sum.
    #[must_use]
    pub fn since(&self, earlier: &Buckets) -> Buckets {
        Buckets {
            bounds: self.bounds,
            counts: self
                .counts
                .iter()
                .zip(&earlier.counts)
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
            sum: self.sum - earlier.sum,
        }
    }

    /// One `(upper_bound, cumulative_count)` pair per configured bound,
    /// then `(f64::INFINITY, count)`: monotone non-decreasing, the
    /// Prometheus `_bucket{le=...}` contract.
    pub fn cumulative(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let bounds = self.bounds.iter().copied().chain([f64::INFINITY]);
        bounds
            .zip(&self.counts)
            .scan(0u64, |cumulative, (bound, count)| {
                *cumulative += count;
                Some((bound, *cumulative))
            })
    }

    /// `{"buckets": [{"le", "count"}...], "count", "sum", "p50",
    /// "p99"}` with cumulative bucket counts. The final bucket's `le`
    /// is the string `"+Inf"` (JSON numbers cannot carry infinity).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let buckets = self
            .cumulative()
            .map(|(bound, count)| {
                let le = if bound.is_finite() {
                    Json::Num(bound)
                } else {
                    Json::str("+Inf")
                };
                Json::object(vec![("le", le), ("count", Json::from_u64(count))])
            })
            .collect();
        Json::object(vec![
            ("buckets", Json::Array(buckets)),
            ("count", Json::from_u64(self.count())),
            ("sum", Json::Num(self.sum)),
            ("p50", self.quantile(0.5).map_or(Json::Null, Json::Num)),
            ("p99", self.quantile(0.99).map_or(Json::Null, Json::Num)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_the_right_buckets() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        h.record(0.5); // <= 1
        h.record(1.0); // <= 1 (inclusive)
        h.record(5.0); // <= 10
        h.record(50.0); // <= 100
        h.record(500.0); // overflow
        let snap = h.snapshot();
        assert_eq!(snap.count(), 5);
        assert!((snap.sum() - 556.5).abs() < 1e-9);
        let j = snap.to_json();
        let buckets = j.get("buckets").and_then(Json::as_array).unwrap();
        let counts: Vec<u64> = buckets
            .iter()
            .map(|b| b.get("count").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(counts, vec![2, 3, 4, 5]); // cumulative
        assert_eq!(
            buckets.last().unwrap().get("le").and_then(Json::as_str),
            Some("+Inf")
        );
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        for v in [0.5, 0.5, 1.5, 3.0, 7.0, 100.0] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.0), Some(1.0));
        assert_eq!(snap.quantile(0.5), Some(2.0));
        // The overflow observation resolves to the last bound.
        assert_eq!(snap.quantile(1.0), Some(8.0));
        assert_eq!(Histogram::latency_ms().snapshot().quantile(0.5), None);
    }

    #[test]
    fn a_difference_holds_only_what_came_after() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.record(0.5);
        h.record(3.0);
        let earlier = h.snapshot();
        h.record(1.5);
        h.record(9.0);
        let window = h.snapshot().since(&earlier);
        let only = Histogram::new(&[1.0, 2.0, 4.0]);
        only.record(1.5);
        only.record(9.0);
        assert_eq!(window, only.snapshot());
        assert_eq!(h.snapshot().since(&h.snapshot()).count(), 0);
    }

    #[test]
    fn concurrent_records_are_exact() {
        let h = Histogram::queue_depth();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1000u64 {
                        #[allow(clippy::cast_precision_loss)]
                        h.record((i % 40) as f64);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), 4000);
    }

    #[test]
    fn nan_lands_in_overflow_without_poisoning_sum() {
        let h = Histogram::new(&[1.0]);
        h.record(f64::NAN);
        h.record(0.5);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 2);
        assert!((snap.sum() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn empty_bounds_panic() {
        let _ = Histogram::new(&[]);
    }
}
