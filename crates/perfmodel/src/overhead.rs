//! Synchronization-overhead bounds (paper Section 3, Table 1).
//!
//! When a loop is parallelized with loop-level parallelism, the main cost
//! of parallelization is the synchronization cost paid when exiting the
//! parallel region. The paper observes that on scalable shared-memory
//! systems this cost ranges from roughly 2,000 to 1,000,000 cycles
//! depending on machine design and load, and argues that it should be
//! kept below 1 % of the (parallel) runtime of the loop.
//!
//! With `W` cycles of single-processor work in the loop, `P` processors,
//! and a synchronization cost of `S` cycles, the parallel runtime is
//! approximately `W / P + S` and the efficiency condition
//! `S <= f * (W / P)` (with `f = 0.01` for 1 %) rearranges to
//!
//! ```text
//! W >= P * S / f
//! ```
//!
//! which for `f = 0.01` is the `100 * P * S` rule that generates every
//! entry of Table 1.

/// The fraction of runtime the paper is willing to spend on
/// synchronization ("it is preferable to keep these costs below 1% of
/// the runtime", Section 3).
pub const PAPER_OVERHEAD_FRACTION: f64 = 0.01;

/// The hypothetical synchronization costs used for the columns of
/// Table 1, in cycles.
pub const TABLE1_SYNC_COSTS: [u64; 3] = [10_000, 100_000, 1_000_000];

/// The processor counts used for the rows of Table 1.
pub const TABLE1_PROCESSOR_COUNTS: [u32; 4] = [2, 8, 32, 128];

/// A synchronization-overhead bound: the tolerable overhead fraction
/// together with the machine's synchronization cost.
///
/// This is the policy object consumed by `llp`'s incremental
/// parallelization advisor: a loop is worth parallelizing on `P`
/// processors only if its serial work exceeds
/// [`OverheadBound::min_work`]`(P)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadBound {
    /// Synchronization cost per parallel region exit, in cycles.
    pub sync_cost_cycles: u64,
    /// Maximum tolerable fraction of runtime spent synchronizing
    /// (the paper uses 0.01).
    pub max_overhead_fraction: f64,
}

impl OverheadBound {
    /// Bound with the paper's 1 % overhead target.
    #[must_use]
    pub fn paper_default(sync_cost_cycles: u64) -> Self {
        Self {
            sync_cost_cycles,
            max_overhead_fraction: PAPER_OVERHEAD_FRACTION,
        }
    }

    /// Minimum single-processor work (in cycles) a loop must contain for
    /// the synchronization cost to stay within the overhead budget when
    /// run on `processors` processors.
    ///
    /// # Panics
    /// Panics if `processors == 0` or the overhead fraction is not in
    /// `(0, 1]`.
    #[must_use]
    pub fn min_work(&self, processors: u32) -> u64 {
        min_work_for_overhead(
            self.sync_cost_cycles,
            processors,
            self.max_overhead_fraction,
        )
    }

    /// Whether a loop with `work_cycles` of serial work meets the
    /// overhead budget on `processors` processors.
    #[must_use]
    pub fn is_efficient(&self, work_cycles: u64, processors: u32) -> bool {
        work_cycles >= self.min_work(processors)
    }

    /// The actual overhead fraction incurred by a loop with
    /// `work_cycles` of serial work on `processors` processors:
    /// `S / (W / P)`.
    #[must_use]
    pub fn overhead_fraction(&self, work_cycles: u64, processors: u32) -> f64 {
        assert!(processors > 0, "processor count must be positive");
        if work_cycles == 0 {
            return f64::INFINITY;
        }
        self.sync_cost_cycles as f64 / (work_cycles as f64 / f64::from(processors))
    }

    /// The largest processor count a loop with `work_cycles` of serial
    /// work can use within this bound's budget — the Table 1 rule
    /// inverted, as an autotuner needs it to prune candidate worker
    /// counts ([`max_efficient_processors`] with this bound's `S` and
    /// `f`). Returns 0 if even one processor cannot stay in budget.
    #[must_use]
    pub fn max_processors(&self, work_cycles: u64) -> u32 {
        max_efficient_processors(
            work_cycles,
            self.sync_cost_cycles,
            self.max_overhead_fraction,
        )
    }
}

/// Minimum single-processor work (in cycles) required for a parallelized
/// loop to keep synchronization below `max_fraction` of its parallel
/// runtime: `W >= P * S / f`.
///
/// With `max_fraction = 0.01` this reproduces Table 1 exactly:
///
/// ```
/// use perfmodel::min_work_for_overhead;
/// assert_eq!(min_work_for_overhead(10_000, 2, 0.01), 2_000_000);
/// assert_eq!(min_work_for_overhead(1_000_000, 128, 0.01), 12_800_000_000);
/// ```
///
/// # Panics
/// Panics if `processors == 0` or `max_fraction` is not in `(0, 1]`.
/// A bound past `u64` (a tiny `max_fraction`, a huge `P · S`)
/// saturates to `u64::MAX`; [`crate::overhead_batch`] rejects it.
#[must_use]
pub fn min_work_for_overhead(sync_cost_cycles: u64, processors: u32, max_fraction: f64) -> u64 {
    checked_min_work(sync_cost_cycles, processors, max_fraction).unwrap_or(u64::MAX)
}

/// [`min_work_for_overhead`], or `None` when the bound does not fit in
/// `u64` (including an infinite one).
pub(crate) fn checked_min_work(sync_cost_cycles: u64, processors: u32, f: f64) -> Option<u64> {
    assert!(processors > 0, "processor count must be positive");
    assert!(
        f > 0.0 && f <= 1.0,
        "overhead fraction must be in (0, 1], got {f}"
    );
    // The model values divide exactly for the paper's parameters; ceil so
    // the bound is conservative for fractions that do not.
    let w = (u64::from(processors) as f64 * sync_cost_cycles as f64 / f).ceil();
    // `u64::MAX as f64` is 2^64, the first value that does not fit.
    (w < u64::MAX as f64).then_some(w as u64)
}

/// The largest processor count on which a loop with `work_cycles` of
/// serial work can run while keeping synchronization below
/// `max_fraction` of runtime. Returns 0 if even one processor cannot
/// (i.e. `work_cycles` is smaller than `S / f`).
#[must_use]
pub fn max_efficient_processors(work_cycles: u64, sync_cost_cycles: u64, max_fraction: f64) -> u32 {
    assert!(
        max_fraction > 0.0 && max_fraction <= 1.0,
        "overhead fraction must be in (0, 1], got {max_fraction}"
    );
    if sync_cost_cycles == 0 {
        return u32::MAX;
    }
    let p = work_cycles as f64 * max_fraction / sync_cost_cycles as f64;
    if p >= f64::from(u32::MAX) {
        u32::MAX
    } else {
        p.floor() as u32
    }
}

/// Generate the full Table 1 of the paper: for each processor count and
/// each hypothetical synchronization cost, the minimum amount of work
/// (in cycles) per parallelized loop required for efficient execution.
///
/// Rows are processor counts in [`TABLE1_PROCESSOR_COUNTS`] order;
/// columns are sync costs in [`TABLE1_SYNC_COSTS`] order.
#[must_use]
pub fn table1() -> Vec<(u32, Vec<u64>)> {
    TABLE1_PROCESSOR_COUNTS
        .iter()
        .map(|&p| {
            let row = TABLE1_SYNC_COSTS
                .iter()
                .map(|&s| min_work_for_overhead(s, p, PAPER_OVERHEAD_FRACTION))
                .collect();
            (p, row)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every value printed in Table 1 of the paper.
    const PAPER_TABLE1: [(u32, [u64; 3]); 4] = [
        (2, [2_000_000, 20_000_000, 200_000_000]),
        (8, [8_000_000, 80_000_000, 800_000_000]),
        (32, [32_000_000, 320_000_000, 3_200_000_000]),
        (128, [128_000_000, 1_280_000_000, 12_800_000_000]),
    ];

    #[test]
    fn table1_matches_paper_exactly() {
        let got = table1();
        assert_eq!(got.len(), PAPER_TABLE1.len());
        for ((gp, grow), (pp, prow)) in got.iter().zip(PAPER_TABLE1.iter()) {
            assert_eq!(gp, pp);
            assert_eq!(grow.as_slice(), prow.as_slice(), "row for P={pp}");
        }
    }

    #[test]
    fn min_work_scales_linearly_in_processors() {
        let base = min_work_for_overhead(10_000, 1, 0.01);
        for p in [2u32, 3, 7, 64, 128] {
            assert_eq!(min_work_for_overhead(10_000, p, 0.01), base * u64::from(p));
        }
    }

    #[test]
    fn min_work_scales_inversely_in_fraction() {
        // Tolerating 2% halves the required work relative to 1%.
        assert_eq!(
            min_work_for_overhead(10_000, 8, 0.02) * 2,
            min_work_for_overhead(10_000, 8, 0.01)
        );
    }

    #[test]
    fn bound_is_tight() {
        let b = OverheadBound::paper_default(10_000);
        let w = b.min_work(8);
        assert!(b.is_efficient(w, 8));
        assert!(!b.is_efficient(w - 1, 8));
        // At exactly the bound the overhead is exactly the budget.
        let f = b.overhead_fraction(w, 8);
        assert!((f - 0.01).abs() < 1e-12, "got {f}");
    }

    #[test]
    fn max_efficient_processors_inverts_min_work() {
        for &s in &TABLE1_SYNC_COSTS {
            for &p in &TABLE1_PROCESSOR_COUNTS {
                let w = min_work_for_overhead(s, p, 0.01);
                assert_eq!(max_efficient_processors(w, s, 0.01), p);
                assert_eq!(max_efficient_processors(w - 1, s, 0.01), p - 1);
                // The bound's method form agrees with the free function.
                assert_eq!(OverheadBound::paper_default(s).max_processors(w), p);
            }
        }
    }

    #[test]
    fn zero_work_has_infinite_overhead() {
        let b = OverheadBound::paper_default(2_000);
        assert!(b.overhead_fraction(0, 4).is_infinite());
        assert!(!b.is_efficient(0, 1));
    }

    #[test]
    fn zero_sync_cost_is_always_efficient() {
        assert_eq!(max_efficient_processors(1, 0, 0.01), u32::MAX);
        let b = OverheadBound::paper_default(0);
        assert!(b.is_efficient(1, 128));
    }

    #[test]
    #[should_panic(expected = "processor count must be positive")]
    fn zero_processors_panics() {
        let _ = min_work_for_overhead(10_000, 0, 0.01);
    }

    #[test]
    #[should_panic(expected = "overhead fraction must be in (0, 1]")]
    fn bad_fraction_panics() {
        let _ = min_work_for_overhead(10_000, 2, 0.0);
    }
}
