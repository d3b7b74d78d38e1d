//! Quantile hardening for `serve::hist`: property-tests
//! [`Buckets::quantile`](serve::hist::Buckets::quantile) against an
//! exact sorted-sample oracle.
//!
//! The documented contract (see the `hist` module docs) is that
//! `quantile(q)` returns the **bucket ceiling** of the exact order
//! statistic at rank `max(1, ceil(q·n))`: the smallest configured
//! bound that is ≥ the sorted sample at that rank, clamped to the last
//! bound for overflow observations. The oracle here computes that
//! directly from the raw samples, so any drift in the cumulative walk,
//! the rank rounding, or the overflow clamp fails the property.

use proptest::prelude::*;
use proptest::strategy::Rejected;
use proptest::test_runner::TestRng;
use serve::hist::Histogram;

/// The bucket ladder under test (a small strict subset keeps the
/// per-bucket populations interesting at modest sample counts).
const BOUNDS: [f64; 6] = [0.5, 1.0, 5.0, 10.0, 50.0, 100.0];

/// What the histogram *should* answer for quantile `q` given the raw
/// samples: bucket ceiling of the rank-`max(1, ceil(q·n))` order
/// statistic, overflow clamped to the last bound.
fn oracle(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let x = sorted[rank - 1];
    let ceiling = BOUNDS
        .iter()
        .copied()
        .find(|&b| x <= b)
        .unwrap_or(BOUNDS[BOUNDS.len() - 1]);
    Some(ceiling)
}

/// Samples spanning the full ladder: below the first bound, exactly on
/// bounds (the `value <= bound` inclusive edge), between bounds, and
/// past the last bound (overflow).
#[derive(Debug, Clone, Copy)]
struct SamplesStrategy {
    max_len: u64,
}

impl Strategy for SamplesStrategy {
    type Value = Vec<f64>;
    fn generate(&self, rng: &mut TestRng) -> Result<Vec<f64>, Rejected> {
        let len = rng.gen_u64(0, self.max_len + 1);
        Ok((0..len)
            .map(|_| match rng.gen_u64(0, 4) {
                0 => BOUNDS[rng.gen_u64(0, BOUNDS.len() as u64) as usize],
                1 => rng.gen_f64(0.0, 0.5),
                2 => rng.gen_f64(100.0, 400.0), // overflow bucket
                _ => rng.gen_f64(0.0, 120.0),
            })
            .collect())
    }
}

/// Quantile points including the edges and ones that land exactly on
/// rank boundaries for small `n`.
fn quantile_points(rng: &mut TestRng) -> f64 {
    match rng.gen_u64(0, 6) {
        0 => 0.0,
        1 => 1.0,
        2 => 0.5,
        3 => 0.99,
        _ => rng.gen_f64(0.0, 1.0),
    }
}

#[derive(Debug, Clone, Copy)]
struct CaseStrategy;

impl Strategy for CaseStrategy {
    type Value = (Vec<f64>, f64);
    fn generate(&self, rng: &mut TestRng) -> Result<(Vec<f64>, f64), Rejected> {
        let samples = SamplesStrategy { max_len: 40 }.generate(rng)?;
        Ok((samples, quantile_points(rng)))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn quantile_matches_sorted_sample_oracle(case in CaseStrategy) {
        let (samples, q) = case;
        let h = Histogram::new(&BOUNDS);
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(
            h.snapshot().quantile(q),
            oracle(&samples, q),
            "samples={:?} q={}",
            samples,
            q
        );
    }

    #[test]
    fn quantiles_are_monotone_in_q(samples in SamplesStrategy { max_len: 40 }) {
        let h = Histogram::new(&BOUNDS);
        for &s in &samples {
            h.record(s);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let mut prev = None;
        for q in qs {
            let cur = h.snapshot().quantile(q);
            if let (Some(p), Some(c)) = (prev, cur) {
                prop_assert!(c >= p, "quantile({q}) = {c} < {p}");
            }
            prev = cur;
        }
    }
}

#[test]
fn empty_histogram_has_no_quantiles() {
    let h = Histogram::new(&BOUNDS);
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(h.snapshot().quantile(q), None);
        assert_eq!(oracle(&[], q), None);
    }
}

#[test]
fn single_sample_answers_its_bucket_ceiling_at_every_q() {
    for (sample, ceiling) in [(0.2, 0.5), (0.5, 0.5), (0.7, 1.0), (7.0, 10.0)] {
        let h = Histogram::new(&BOUNDS);
        h.record(sample);
        for q in [0.0, 0.37, 0.5, 0.99, 1.0] {
            assert_eq!(
                h.snapshot().quantile(q),
                Some(ceiling),
                "sample={sample} q={q}"
            );
            assert_eq!(oracle(&[sample], q), Some(ceiling));
        }
    }
}

#[test]
fn all_samples_in_one_bucket_pin_every_quantile() {
    let h = Histogram::new(&BOUNDS);
    let samples: Vec<f64> = (0..100).map(|i| 1.03 + 0.03 * f64::from(i)).collect();
    for &s in &samples {
        h.record(s); // all land in (1.0, 5.0]
    }
    for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
        assert_eq!(h.snapshot().quantile(q), Some(5.0), "q={q}");
        assert_eq!(oracle(&samples, q), Some(5.0));
    }
}

#[test]
fn overflow_samples_clamp_to_last_bound() {
    let h = Histogram::new(&BOUNDS);
    h.record(1e9);
    h.record(2e9);
    assert_eq!(h.snapshot().quantile(0.5), Some(100.0));
    assert_eq!(h.snapshot().quantile(1.0), Some(100.0));
    assert_eq!(oracle(&[1e9, 2e9], 1.0), Some(100.0));
}
