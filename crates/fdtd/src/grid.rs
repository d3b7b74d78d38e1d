//! The TEz Yee-grid state: field storage, boundaries, energy, and
//! checksums.
//!
//! Storage is row-major with x contiguous — the vectorizable inner
//! direction — and y as the slab (outer, doacross) direction, the
//! same layout discipline as the F3D pencils. `E` is **row-blocked**:
//! row `j` of [`TezGrid::e`] is its `nx` `Ex` values, then its `nx`
//! `Ey` values, so every loop over a row walks contiguous runs of one
//! component (the operands an SLP vectorizer packs), and each update
//! sweep still mutates exactly one array while reading the other: the
//! aliasing shape [`llp::doacross_slabs`] wants.
//!
//! Yee staggering is implicit in the indices: `Ex` sits at
//! `(i+1/2, j)`, `Ey` at `(i, j+1/2)`, `Hz` at `(i+1/2, j+1/2)`, with
//! every component allocated `nx × ny` and the unused staggered edge
//! entries simply never updated (PEC) or wrapped (periodic).

use std::ops::Range;

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
    fn empty(name: &str) -> Self {
        FieldChecksum {
            field: name.to_string(),
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn add(&mut self, v: f64) {
        self.sum += v;
        self.sum_sq += v * v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// The full TEz state: `nx × ny` points of `Ex`, `Ey` and `Hz`.
#[derive(Debug, Clone)]
pub struct TezGrid {
    /// Points in x (contiguous storage direction).
    pub nx: usize,
    /// Points in y (the doacross slab direction).
    pub ny: usize,
    /// Electric field, row-blocked: row `j` is `e[2·nx·j..][..2·nx]`,
    /// its `nx` `Ex` values, then its `nx` `Ey` values.
    pub e: Vec<f64>,
    /// Magnetic field `Hz`, row-major.
    pub hz: Vec<f64>,
    /// How the domain closes.
    pub boundary: Boundary,
    /// Courant number `c·Δt/Δx` (the scheme's single nondimensional
    /// knob; 2-D stability needs `≤ 1/√2`).
    pub courant: f64,
}

/// Rows whose energy partials [`fold_run`] folds side by side. One
/// row's partial is one dependent add chain, bound by the adder's
/// latency; four rows' chains interleaved keep the adder busy.
const ABREAST: usize = 4;

/// Columns of point terms [`fold_run`] holds on the stack per row.
const TERM_COLS: usize = 128;

/// One point's energy term, `ex² + ey² + hz²` (the total halves the
/// sum of them).
#[inline(always)]
pub(crate) fn term(ex: f64, ey: f64, hz: f64) -> f64 {
    ex * ex + ey * ey + hz * hz
}

/// The run fold: the energy partials of a run of `out.len()` rows of
/// `nx` points, `out[r]` row `r`'s plain left fold of its point
/// [`term`]s in storage order. `fill(r, cols, terms)` must leave row
/// `r`'s terms of columns `cols` in `terms` (one per column); it is
/// called row by row for each column block of a group of [`ABREAST`]
/// rows, and the block's terms are then added on one chain per row,
/// the group's rows side by side. So every partial is exactly its row's
/// fold however the run is cut. Always inlined, so a served run folds
/// at its sweep's SIMD tier (see [`solver::isa`]).
#[inline(always)]
pub(crate) fn fold_run(
    nx: usize,
    out: &mut [f64],
    mut fill: impl FnMut(usize, Range<usize>, &mut [f64]),
) {
    let mut terms = [[0.0f64; TERM_COLS]; ABREAST];
    for (g, out) in out.chunks_mut(ABREAST).enumerate() {
        // A run's last group may hold one to three rows: the spare
        // chains then add stale terms, and are dropped.
        let mut acc = [0.0f64; ABREAST];
        for c0 in (0..nx).step_by(TERM_COLS) {
            let cols = c0..nx.min(c0 + TERM_COLS);
            for (r, row_terms) in terms.iter_mut().take(out.len()).enumerate() {
                fill(g * ABREAST + r, cols.clone(), &mut row_terms[..cols.len()]);
            }
            for i in 0..cols.len() {
                for (a, row_terms) in acc.iter_mut().zip(&terms) {
                    *a += row_terms[i];
                }
            }
        }
        out.copy_from_slice(&acc[..out.len()]);
    }
}

/// The total energy from the [`fold_run`] partials of rows `0..ny`, in that
/// order: their left fold, halved.
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
            e: vec![0.0; 2 * nx * ny],
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
    /// partials folded in row order**: each of the `ny` rows' plain left
    /// fold of its point terms in storage order (`fold_run`), then
    /// `fold_energy` over them `0..ny`. The order is part of the value's
    /// definition, so it is exactly reproducible; and because a row's
    /// partial depends on that row alone, the served step computes the
    /// same partials with the same `fold_run` inside its `update_e`
    /// region (`kernels::update_e_energy`), on whichever worker just
    /// wrote the rows, and gets this number bit for bit at every worker
    /// count, schedule and lane width.
    #[must_use]
    pub fn energy(&self) -> f64 {
        let nx = self.nx;
        let mut partials = vec![0.0; self.ny];
        fold_run(nx, &mut partials, |j, cols, terms| {
            let (ex, ey) = self.e[2 * nx * j..][..2 * nx].split_at(nx);
            let hz = &self.hz[nx * j..][..nx];
            let points = ex[cols.clone()]
                .iter()
                .zip(&ey[cols.clone()])
                .zip(&hz[cols]);
            for (t, ((&x, &y), &h)) in terms.iter_mut().zip(points) {
                *t = term(x, y, h);
            }
        });
        fold_energy(partials.into_iter())
    }

    /// Order-independent per-field checksums (`ex`, `ey`, `hz`), in one
    /// pass over the rows: each field's sums are still its own left
    /// folds in row-major order.
    #[must_use]
    pub fn checksums(&self) -> Vec<FieldChecksum> {
        let (mut ex, mut ey, mut hz) = (
            FieldChecksum::empty("ex"),
            FieldChecksum::empty("ey"),
            FieldChecksum::empty("hz"),
        );
        let rows = self
            .e
            .chunks_exact(2 * self.nx)
            .zip(self.hz.chunks_exact(self.nx));
        for (e_row, hz_row) in rows {
            let (ex_row, ey_row) = e_row.split_at(self.nx);
            for ((&x, &y), &h) in ex_row.iter().zip(ey_row).zip(hz_row) {
                ex.add(x);
                ey.add(y);
                hz.add(h);
            }
        }
        vec![ex, ey, hz]
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
