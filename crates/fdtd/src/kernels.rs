//! The two FDTD update sweeps as doacross kernels.
//!
//! Each sweep parallelizes its *outer* loop over grid rows with
//! [`llp::doacross_slabs`] — one row is one slab, the paper's
//! loop-level discipline — and runs its inner x loops as zipped slice
//! loops over the row's contiguous component runs (`E` is row-blocked:
//! a row's `Ex`, then its `Ey`; see [`crate::grid`]).
//!
//! **No lanes; a SIMD tier.** Each component's loop is one plain loop
//! with no per-point branch — the policy [`solver::widths`] documents
//! for kernels with no explicit lanes: rustc vectorizes the zipped
//! loops itself, at the width of the code it compiles. Each row body
//! (`h_row`, `ESweep::row` and `ESweep::energy_run`) is one
//! `#[inline(always)]` function, run through [`solver::Tier::run`] —
//! the one tier runner F3D's bundles and residual rows go through too —
//! so it is compiled for AVX2 and for the target's baseline; every
//! sweep detects the widest tier the CPU reports once per call, outside
//! its doacross body, and runs every row at it. [`update_h`] and
//! [`update_e`] take a `_width` argument nothing reads; the served
//! step passes 1.
//!
//! **Exactness.** Every point executes one fixed floating-point
//! operation sequence at every SIMD tier, so results are bit-exact
//! across tiers — pinned by the tier oracle in this module's tests —
//! and across worker counts and schedules, because a row's updates
//! depend only on the *previous* half-step's other field, never on a
//! concurrently mutated row — pinned by `tests/simd_props.rs`.
//!
//! The aliasing discipline makes that structurally true: `update_h`
//! mutates only `hz` while reading `e`, `update_e` mutates only `e`
//! while reading `hz` — each doacross body takes `&mut` to its own
//! rows and shared references to the other array.

use crate::grid::{fold_run, term, Boundary, TezGrid};
use llp::{doacross_slabs, doacross_slabs_zip, Workers};
use solver::Tier;
use std::ops::Range;

/// Advance `Hz` one half-step: `∂Hz/∂t = ∂Ex/∂y − ∂Ey/∂x`, parallel
/// over rows. `_width` is ignored (see the module docs).
pub fn update_h(workers: &Workers, grid: &mut TezGrid, _width: usize) {
    h_sweep(Tier::widest(), workers, grid);
}

/// [`update_h`] with its rows at `tier`.
fn h_sweep(tier: Tier, workers: &Workers, grid: &mut TezGrid) {
    let TezGrid {
        nx,
        ny,
        e,
        hz,
        boundary,
        courant,
    } = grid;
    let (nx, ny, s) = (*nx, *ny, *courant);
    let periodic = *boundary == Boundary::Periodic;
    let e: &[f64] = e;
    doacross_slabs(workers, hz.as_mut_slice(), nx, move |j, row| {
        // PEC: the top Hz row sits outside the staggered interior.
        if !periodic && j == ny - 1 {
            return;
        }
        let jp1 = if j + 1 == ny { 0 } else { j + 1 };
        let (ex, ey) = e[2 * nx * j..][..2 * nx].split_at(nx);
        let ex_up = &e[2 * nx * jp1..][..nx];
        tier.run(
            row,
            #[inline(always)]
            |row| h_row(s, periodic, row, ex_up, ex, ey),
        );
    });
}

/// One `Hz` row of [`update_h`], from its own `Ex` and `Ey`, and the
/// `Ex` of the row above.
#[inline(always)]
fn h_row(s: f64, periodic: bool, row: &mut [f64], ex_up: &[f64], ex: &[f64], ey: &[f64]) {
    let nx = row.len();
    let interior = row[..nx - 1]
        .iter_mut()
        .zip(ex_up)
        .zip(ex)
        .zip(ey)
        .zip(&ey[1..]);
    for ((((out, &x_up), &x), &y), &y_right) in interior {
        *out += s * ((x_up - x) - (y_right - y));
    }
    if periodic {
        // Wrap column: Ey neighbor comes from i = 0.
        let i = nx - 1;
        row[i] += s * ((ex_up[i] - ex[i]) - (ey[0] - ey[i]));
    }
}

/// Advance `E` one half-step: `∂Ex/∂t = ∂Hz/∂y`, `∂Ey/∂t = −∂Hz/∂x`,
/// parallel over rows. PEC walls keep tangential `E` clamped by never
/// updating it. `_width` is ignored (see the module docs).
pub fn update_e(workers: &Workers, grid: &mut TezGrid, _width: usize) {
    e_sweep(Tier::widest(), workers, grid);
}

/// [`update_e`] with its rows at `tier`.
fn e_sweep(tier: Tier, workers: &Workers, grid: &mut TezGrid) {
    let (sweep, e) = ESweep::of(grid);
    doacross_slabs(workers, e, 2 * sweep.nx, move |j, row| {
        tier.run(
            row,
            #[inline(always)]
            |row| sweep.row(j, row, 0..sweep.nx, None),
        );
    });
}

/// [`update_e`] fused with the energy reduction (the paper's Example 2
/// applied to the step): the same sweep, the same single region, and
/// whichever worker just wrote a run of rows also leaves those rows'
/// [`crate::grid::TezGrid::energy`] partials in `row_partials`. Each
/// point's term is computed in the `Ey` loop that just wrote the
/// point, and the run's rows are folded four side by side while they
/// are in the worker's cache (the grid's run fold, which
/// `TezGrid::energy` calls too). Folding the partials `0..ny`
/// afterwards is all the caller has left to do — no pass drags the
/// fields back to one core.
///
/// # Panics
/// Panics unless `row_partials` holds one entry per grid row.
pub fn update_e_energy(workers: &Workers, grid: &mut TezGrid, row_partials: &mut [f64]) {
    e_energy_sweep(Tier::widest(), workers, grid, row_partials);
}

/// [`update_e_energy`] with its runs at `tier`.
fn e_energy_sweep(tier: Tier, workers: &Workers, grid: &mut TezGrid, row_partials: &mut [f64]) {
    let (sweep, e) = ESweep::of(grid);
    doacross_slabs_zip(
        workers,
        e,
        2 * sweep.nx,
        row_partials,
        1,
        move |first, e_run, partials| {
            tier.run(
                e_run,
                #[inline(always)]
                |e_run| sweep.energy_run(first, e_run, partials),
            );
        },
    );
}

/// Everything one `E` row update reads besides its own row — the one
/// statement of the row body both `E` sweeps run.
#[derive(Clone, Copy)]
struct ESweep<'g> {
    nx: usize,
    ny: usize,
    s: f64,
    periodic: bool,
    hz: &'g [f64],
}

impl<'g> ESweep<'g> {
    /// Split `grid` into the sweep's read-only half and the `E` array
    /// it mutates.
    fn of(grid: &'g mut TezGrid) -> (Self, &'g mut [f64]) {
        let sweep = ESweep {
            nx: grid.nx,
            ny: grid.ny,
            s: grid.courant,
            periodic: grid.boundary == Boundary::Periodic,
            hz: &grid.hz,
        };
        (sweep, &mut grid.e)
    }

    /// Row `j` of `Hz`.
    fn hz_row(&self, j: usize) -> &'g [f64] {
        &self.hz[j * self.nx..(j + 1) * self.nx]
    }

    /// The run of [`update_e_energy`] that starts at row `first`: update
    /// its rows of `E` (`e_run`) and leave their energy partials in
    /// `partials`, through the grid's run fold.
    #[inline(always)]
    fn energy_run(&self, first: usize, e_run: &mut [f64], partials: &mut [f64]) {
        let nx = self.nx;
        fold_run(
            nx,
            partials,
            #[inline(always)]
            |r, cols, terms| {
                let row = &mut e_run[2 * nx * r..][..2 * nx];
                self.row(first + r, row, cols, Some(terms));
            },
        );
    }

    /// Update columns `cols` of row `j` of `E` in place: its `Ex`, then
    /// its `Ey`. With `terms`, also leave each point's energy [`term`]
    /// in `terms[i - cols.start]`, computed from the values just
    /// written: inside the `Ey` loop where it runs, after it elsewhere.
    #[inline(always)]
    fn row(&self, j: usize, row: &mut [f64], cols: Range<usize>, terms: Option<&mut [f64]>) {
        let ESweep {
            nx,
            ny,
            s,
            periodic,
            ..
        } = *self;
        let hz_row = self.hz_row(j);
        let (ex, ey) = row.split_at_mut(nx);
        // Under PEC, both components stop short of the right wall and
        // Ey starts at i = 1; a periodic row runs to the end, Ey's
        // i = 0 wrapping its neighbor to nx-1.
        let end = if periodic { nx } else { nx - 1 };
        // Which components this row updates (see the grid's stagger
        // docs): under PEC, Ex is tangential to the y walls and Ey's
        // top row sits outside the box.
        if periodic || (1..ny - 1).contains(&j) {
            let hz_dn = self.hz_row(if j == 0 { ny - 1 } else { j - 1 });
            let xs = cols.start..cols.end.min(end);
            let points = ex[xs.clone()].iter_mut().zip(&hz_row[xs.clone()]);
            for ((x, &h), &h_dn) in points.zip(&hz_dn[xs]) {
                *x += s * (h - h_dn);
            }
        }
        let do_ey = periodic || j < ny - 1;
        if periodic && cols.start == 0 {
            ey[0] -= s * (hz_row[0] - hz_row[nx - 1]);
        }
        // The columns of the Ey loop (none where Ey is not updated).
        let lo = cols.start.max(1);
        let ys = if do_ey { lo..cols.end.min(end) } else { lo..lo };
        let points = ey[ys.clone()]
            .iter_mut()
            .zip(&hz_row[ys.clone()])
            .zip(&hz_row[ys.start - 1..]);
        let Some(terms) = terms else {
            for ((y, &h), &h_left) in points {
                *y -= s * (h - h_left);
            }
            return;
        };
        let points = points.zip(&ex[ys.clone()]);
        for ((((y, &h), &h_left), &x), t) in points.zip(&mut terms[ys.start - cols.start..]) {
            *y -= s * (h - h_left);
            *t = term(x, *y, h);
        }
        for i in (cols.start..ys.start).chain(ys.end..cols.end) {
            terms[i - cols.start] = term(ex[i], ey[i], hz_row[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Boundary;
    use llp::Policy;
    use proptest::prelude::*;

    fn pulsed(nx: usize, ny: usize, boundary: Boundary) -> TezGrid {
        let mut g = TezGrid::new(nx, ny, boundary, 0.5);
        g.inject_soft_source(10); // peak amplitude at the center
        g
    }

    #[test]
    fn pec_walls_keep_tangential_e_clamped() {
        let mut g = pulsed(12, 9, Boundary::PecBox);
        let w = Workers::serial();
        for _ in 0..40 {
            update_h(&w, &mut g, 1);
            update_e(&w, &mut g, 1);
        }
        let (nx, ny) = (g.nx, g.ny);
        let (ex, ey) = (|i, j| g.e[2 * nx * j + i], |i, j| g.e[2 * nx * j + nx + i]);
        for i in 0..nx {
            assert_eq!(ex(i, 0), 0.0, "Ex bottom wall, i={i}");
            assert_eq!(ex(i, ny - 1), 0.0, "Ex top wall, i={i}");
        }
        for j in 0..ny {
            assert_eq!(ey(0, j), 0.0, "Ey left wall, j={j}");
            assert_eq!(ey(nx - 1, j), 0.0, "Ey right wall, j={j}");
        }
        // The pulse spread: interior fields moved.
        assert!(g.energy() > 0.0);
    }

    #[test]
    fn pec_cavity_conserves_energy_after_the_source_dies() {
        let mut g = pulsed(16, 16, Boundary::PecBox);
        let w = Workers::serial();
        for _ in 0..30 {
            update_h(&w, &mut g, 1);
            update_e(&w, &mut g, 1);
        }
        let before = g.energy();
        for _ in 0..100 {
            update_h(&w, &mut g, 1);
            update_e(&w, &mut g, 1);
        }
        let after = g.energy();
        // Leapfrog energy is not exactly the continuum energy, but it
        // is bounded: a lossy (unstable) scheme would drift far.
        assert!(
            (after - before).abs() < 0.05 * before.max(1e-12),
            "energy drifted: {before} -> {after}"
        );
    }

    #[test]
    fn results_are_bit_exact_across_worker_counts_and_schedules() {
        let reference = {
            let mut g = pulsed(13, 7, Boundary::PecBox);
            let w = Workers::serial();
            for _ in 0..20 {
                update_h(&w, &mut g, 1);
                update_e(&w, &mut g, 1);
            }
            g
        };
        for workers in [2, 3] {
            for policy in [
                llp::Policy::Static,
                llp::Policy::Dynamic { chunk: 1 },
                llp::Policy::Guided { min_chunk: 2 },
            ] {
                let mut g = pulsed(13, 7, Boundary::PecBox);
                let w = Workers::new(workers).with_policy(policy);
                for _ in 0..20 {
                    update_h(&w, &mut g, 1);
                    update_e(&w, &mut g, 1);
                }
                assert_eq!(g.e, reference.e, "{workers} workers, {policy:?}");
                assert_eq!(g.hz, reference.hz, "{workers} workers, {policy:?}");
            }
        }
    }

    #[test]
    fn periodic_wrap_preserves_a_uniform_field() {
        // A spatially uniform Ey has zero curl everywhere under
        // periodic closure: nothing may move, including at the wrap
        // columns a PEC box would clamp.
        let mut g = TezGrid::new(9, 5, Boundary::Periodic, 0.5);
        for row in g.e.chunks_exact_mut(2 * 9) {
            row[9..].fill(3.0);
        }
        let w = Workers::serial();
        for _ in 0..10 {
            update_h(&w, &mut g, 1);
            update_e(&w, &mut g, 1);
        }
        assert!(g.hz.iter().all(|&h| h == 0.0));
        for row in g.e.chunks_exact(2 * 9) {
            assert!(row[..9].iter().all(|&x| x == 0.0));
            assert!(row[9..].iter().all(|&y| y == 3.0));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tier oracle: every tier the host reports runs
        /// `update_h`, `update_e` and `update_e_energy` bit for bit like
        /// the baseline, fields and row partials alike, on random
        /// fields whose rows cross one and two 128-column term blocks,
        /// under both closures, every worker count up to 4 and every
        /// policy.
        #[test]
        fn every_tier_is_the_baseline_bit_for_bit(
            nx in 2usize..=300,
            ny in 2usize..=11,
            periodic in 0usize..2,
            workers in 1usize..5,
            policy in (0usize..3, 1usize..4),
            e0 in prop::collection::vec(-2.0f64..2.0, 2 * 300 * 11),
            hz0 in prop::collection::vec(-2.0f64..2.0, 300 * 11),
        ) {
            static TIERS: std::sync::Once = std::sync::Once::new();
            TIERS.call_once(|| println!("tiers run: {:?}", [Tier::BASELINE, Tier::widest()]));
            let boundary = [Boundary::PecBox, Boundary::Periodic][periodic];
            let policy = match policy {
                (0, _) => Policy::Static,
                (1, chunk) => Policy::Dynamic { chunk },
                (_, min_chunk) => Policy::Guided { min_chunk },
            };
            let pool = Workers::new(workers).with_policy(policy);
            let run = |tier| {
                let mut g = TezGrid::new(nx, ny, boundary, 0.5);
                g.e.copy_from_slice(&e0[..2 * nx * ny]);
                g.hz.copy_from_slice(&hz0[..nx * ny]);
                let mut partials = vec![f64::NAN; ny];
                h_sweep(tier, &pool, &mut g);
                e_sweep(tier, &pool, &mut g);
                h_sweep(tier, &pool, &mut g);
                e_energy_sweep(tier, &pool, &mut g, &mut partials);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                (bits(&g.e), bits(&g.hz), bits(&partials))
            };
            let baseline = run(Tier::BASELINE);
            let tier = Tier::widest();
            prop_assert!(run(tier) == baseline, "{:?}, {} x {} {:?}", tier, nx, ny, policy);
        }
    }
}
