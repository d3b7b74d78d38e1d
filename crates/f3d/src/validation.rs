//! Validation tooling (paper Section 6).
//!
//! "Another key aspect of this effort was to validate the results …
//! ranging from quick and dirty tests involving only a few time steps,
//! to more elaborate tests performed on fully converged solutions."
//! The paper's debugging workflow hinged on comparing versions of the
//! code run for a few steps and diffing the outcome. This module is
//! that workflow as a library:
//!
//! * [`FieldChecksum`] — an order-independent digest of a state field,
//!   cheap to log per step (the "version diff" primitive);
//! * [`ResidualHistory`] — per-step convergence monitoring: the
//!   history a served solve reports, where the paper's constraint ("no
//!   changes to … the convergence properties") shows.
//!
//! The quick-and-dirty few-step comparison of two implementations is
//! tier-1 `tests/solver_equivalence.rs`.

use crate::solver::ZoneSolver;
use mesh::{StateField, NCONS};

/// An order-independent checksum of a state field: per-component sums,
/// sums of squares, and extrema. Two runs of the same algorithm must
/// produce identical checksums; a reordered-but-correct run produces
/// checksums equal to round-off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldChecksum {
    /// Per-component sums.
    pub sum: [f64; NCONS],
    /// Per-component sums of squares.
    pub sum_sq: [f64; NCONS],
    /// Per-component minima.
    pub min: [f64; NCONS],
    /// Per-component maxima.
    pub max: [f64; NCONS],
}

impl FieldChecksum {
    /// Compute the checksum of a field.
    #[must_use]
    pub fn of(field: &StateField) -> Self {
        let mut sum = [0.0; NCONS];
        let mut sum_sq = [0.0; NCONS];
        let mut min = [f64::INFINITY; NCONS];
        let mut max = [f64::NEG_INFINITY; NCONS];
        for p in field.dims().iter_jkl() {
            let q = field.get(p);
            for c in 0..NCONS {
                sum[c] += q[c];
                sum_sq[c] += q[c] * q[c];
                min[c] = min[c].min(q[c]);
                max[c] = max[c].max(q[c]);
            }
        }
        Self {
            sum,
            sum_sq,
            min,
            max,
        }
    }

    /// Largest absolute difference across all statistics — the "diff"
    /// of the paper's daily-version methodology.
    #[must_use]
    pub fn max_diff(&self, other: &Self) -> f64 {
        let mut m = 0.0f64;
        for c in 0..NCONS {
            m = m.max((self.sum[c] - other.sum[c]).abs());
            m = m.max((self.sum_sq[c] - other.sum_sq[c]).abs());
            m = m.max((self.min[c] - other.min[c]).abs());
            m = m.max((self.max[c] - other.max[c]).abs());
        }
        m
    }
}

/// A per-step convergence record.
#[derive(Debug, Clone, Default)]
pub struct ResidualHistory {
    /// Deviation-from-freestream (or residual-norm) values per step.
    pub values: Vec<f64>,
}

impl ResidualHistory {
    /// Empty history.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one step's monitor value.
    pub fn push(&mut self, value: f64) {
        assert!(value.is_finite(), "non-finite residual: divergence");
        self.values.push(value);
    }

    /// Record a zone's current deviation from freestream.
    pub fn record(&mut self, zone: &ZoneSolver) {
        self.push(zone.freestream_deviation());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::risc_impl::RiscStepper;
    use crate::solver::SolverConfig;
    use crate::vector_impl::VectorStepper;
    use mesh::{Dims, Ijk, Metrics};

    fn zone_pair() -> (ZoneSolver, ZoneSolver) {
        let d = Dims::new(8, 7, 6);
        let m = Metrics::cartesian(d, (0.25, 0.25, 0.25));
        let (mut a, _) = RiscStepper::new_zone(SolverConfig::supersonic(), m.clone());
        let (mut b, _) = VectorStepper::new_zone(SolverConfig::supersonic(), m);
        for p in d.iter_jkl() {
            let mut q = a.q.get(p);
            q[0] *= 1.0 + 0.01 * (p.j as f64).sin();
            a.q.set(p, q);
            b.q.set(p, q);
        }
        (a, b)
    }

    #[test]
    fn checksum_identical_for_identical_fields() {
        let (a, b) = zone_pair();
        let ca = FieldChecksum::of(&a.q);
        let cb = FieldChecksum::of(&b.q);
        assert_eq!(ca.max_diff(&cb), 0.0);
    }

    #[test]
    fn checksum_detects_a_single_point_change() {
        let (a, mut b) = zone_pair();
        let mut q = b.q.get(Ijk::new(3, 3, 3));
        q[2] += 1e-9;
        b.q.set(Ijk::new(3, 3, 3), q);
        let d = FieldChecksum::of(&a.q).max_diff(&FieldChecksum::of(&b.q));
        assert!(d > 0.0 && d < 1e-7);
    }

    #[test]
    fn checksum_is_order_independent() {
        // The same field under a different layout/arrangement checksums
        // identically — the property that makes it a valid cross-
        // implementation diff.
        let (a, _) = zone_pair();
        let rearranged =
            a.q.rearrange(mesh::Arrangement::ComponentOuter, mesh::Layout::kjl());
        assert_eq!(
            FieldChecksum::of(&a.q).max_diff(&FieldChecksum::of(&rearranged)),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "divergence")]
    fn history_rejects_nan() {
        let mut h = ResidualHistory::new();
        h.push(f64::NAN);
    }
}
