//! The TEz Yee-grid state: field storage, boundaries, energy, and
//! checksums.
//!
//! Storage is row-major with x contiguous — the vectorizable inner
//! direction — and y as the slab (outer, doacross) direction, the
//! same layout discipline as the F3D pencils. The two electric
//! components are interleaved per point (`[ex, ey]`), so each update
//! sweep mutates exactly one array while reading the other: the
//! aliasing shape [`llp::doacross_slabs`] wants.
//!
//! Yee staggering is implicit in the indices: `Ex` sits at
//! `(i+1/2, j)`, `Ey` at `(i, j+1/2)`, `Hz` at `(i+1/2, j+1/2)`, with
//! every array allocated `nx × ny` and the unused staggered edge
//! entries simply never updated (PEC) or wrapped (periodic).

/// How the domain closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Boundary {
    /// Perfect electric conductor box: tangential `E` clamped to zero
    /// on the walls (the served configuration — a closed cavity).
    #[default]
    PecBox,
    /// Fully periodic domain — the analytic plane-wave test bed.
    Periodic,
}

/// One scalar field's order-independent summary, the serving layer's
/// "diff" primitive for FDTD solves: byte-equality of two checksum
/// sets certifies two runs produced identical fields.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldChecksum {
    /// Field name (`ex`, `ey`, `hz`).
    pub field: String,
    /// Sum of all values (fixed iteration order, so exact).
    pub sum: f64,
    /// Sum of squares.
    pub sum_sq: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl FieldChecksum {
    fn of(name: &str, values: impl Iterator<Item = f64>) -> Self {
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in values {
            sum += v;
            sum_sq += v * v;
            min = min.min(v);
            max = max.max(v);
        }
        FieldChecksum {
            field: name.to_string(),
            sum,
            sum_sq,
            min,
            max,
        }
    }
}

/// The full TEz state: `nx × ny` points of `[Ex, Ey]` plus `Hz`.
#[derive(Debug, Clone)]
pub struct TezGrid {
    /// Points in x (contiguous storage direction).
    pub nx: usize,
    /// Points in y (the doacross slab direction).
    pub ny: usize,
    /// Electric field, interleaved `[ex, ey]` per point, row-major.
    pub e: Vec<[f64; 2]>,
    /// Magnetic field `Hz`, row-major.
    pub hz: Vec<f64>,
    /// How the domain closes.
    pub boundary: Boundary,
    /// Courant number `c·Δt/Δx` (the scheme's single nondimensional
    /// knob; 2-D stability needs `≤ 1/√2`).
    pub courant: f64,
}

/// One row's energy partial: a plain left fold of `ex² + ey² + hz²`
/// over the row's points, in storage order.
#[must_use]
pub(crate) fn row_energy(e_row: &[[f64; 2]], hz_row: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (e, h) in e_row.iter().zip(hz_row) {
        acc += e[0] * e[0] + e[1] * e[1] + h * h;
    }
    acc
}

/// The total energy from the `row_energy` partials of rows `0..ny`,
/// in that order: their left fold, halved.
#[must_use]
pub(crate) fn fold_energy(row_partials: impl Iterator<Item = f64>) -> f64 {
    row_partials.fold(0.0, |acc, partial| acc + partial) / 2.0
}

impl TezGrid {
    /// A zero-initialized `nx × ny` grid.
    ///
    /// # Panics
    /// Both extents must be at least 2.
    #[must_use]
    pub fn new(nx: usize, ny: usize, boundary: Boundary, courant: f64) -> Self {
        assert!(nx >= 2 && ny >= 2, "grid extents must be at least 2");
        TezGrid {
            nx,
            ny,
            e: vec![[0.0; 2]; nx * ny],
            hz: vec![0.0; nx * ny],
            boundary,
            courant,
        }
    }

    /// Inject the deterministic soft source: a Gaussian pulse in time
    /// added to `Hz` at the grid center. Serial by design (one point),
    /// like F3D's boundary-condition phase.
    pub fn inject_soft_source(&mut self, step: usize) {
        let center = (self.ny / 2) * self.nx + self.nx / 2;
        let t = step as f64;
        let (t0, w) = (10.0, 4.0);
        self.hz[center] += (-((t - t0) / w).powi(2)).exp();
    }

    /// Total electromagnetic field energy `Σ (Ex² + Ey² + Hz²) / 2` —
    /// the residual-history analogue for FDTD solves — as **row
    /// partials folded in row order**: `row_energy` of each of the
    /// `ny` rows, then `fold_energy` over them `0..ny`. The order is
    /// part of the value's definition, so it is exactly reproducible;
    /// and because a row's partial depends on that row alone, the
    /// served step computes the same partials inside its `update_e`
    /// region (`kernels::update_e_energy`), on whichever worker just
    /// wrote the row, and gets this number bit for bit at every worker
    /// count, schedule and lane width. This serial form is the same
    /// fold, so the two cannot disagree.
    #[must_use]
    pub fn energy(&self) -> f64 {
        let rows = self
            .e
            .chunks_exact(self.nx)
            .zip(self.hz.chunks_exact(self.nx));
        fold_energy(rows.map(|(e_row, hz_row)| row_energy(e_row, hz_row)))
    }

    /// Order-independent per-field checksums (`ex`, `ey`, `hz`).
    #[must_use]
    pub fn checksums(&self) -> Vec<FieldChecksum> {
        vec![
            FieldChecksum::of("ex", self.e.iter().map(|p| p[0])),
            FieldChecksum::of("ey", self.e.iter().map(|p| p[1])),
            FieldChecksum::of("hz", self.hz.iter().copied()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_grids_are_zero_energy() {
        let g = TezGrid::new(8, 4, Boundary::PecBox, 0.5);
        assert_eq!(g.energy(), 0.0);
        let sums = g.checksums();
        assert_eq!(sums.len(), 3);
        assert_eq!(sums[0].field, "ex");
        assert_eq!(sums[2].field, "hz");
        assert_eq!(sums[1].sum, 0.0);
    }

    #[test]
    fn source_injection_is_deterministic() {
        let mut a = TezGrid::new(8, 8, Boundary::PecBox, 0.5);
        let mut b = TezGrid::new(8, 8, Boundary::PecBox, 0.5);
        a.inject_soft_source(10);
        b.inject_soft_source(10);
        assert_eq!(a.hz, b.hz);
        // The pulse peaks at t0 = 10.
        assert_eq!(a.hz[(8 / 2) * 8 + 4], 1.0);
        assert!(a.energy() > 0.0);
    }
}
