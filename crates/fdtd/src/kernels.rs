//! The two FDTD update sweeps as doacross kernels.
//!
//! Each sweep parallelizes its *outer* loop over grid rows with
//! [`llp::doacross_slabs`] — one row is one slab, the paper's
//! loop-level discipline — and runs its inner x loop as one plain loop
//! over the row.
//!
//! **No lanes.** Each sweep's inner loop is one plain loop over the
//! row — the policy [`solver::widths`] documents for kernels with no
//! lanes to gain. It is a two-point stencil over an AoS `[ex, ey]` row:
//! an explicit lane group de-interleaves on every load and measures
//! slower than the plain loop (128², serial: `update_e` 0.7–0.8
//! ns/point vs 0.9–1.1 at four lanes; DESIGN §6g). Lanes belong here
//! only if a layout change (SoA `ex`/`ey`) makes them measure faster,
//! and then as a `solver::LaneBody` at a constant lane count with a
//! benchmark workload on each side of the choice. [`update_h`] and
//! [`update_e`] take a `_width` argument nothing reads; the served
//! step passes 1.
//!
//! **Exactness.** Every point executes one fixed floating-point
//! operation sequence, so results are bit-exact across worker counts
//! and schedules
//! because a row's updates depend only on the *previous* half-step's
//! other field, never on a concurrently mutated row — pinned by
//! `tests/simd_props.rs`.
//!
//! The aliasing discipline makes that structurally true: `update_h`
//! mutates only `hz` while reading `e`, `update_e` mutates only `e`
//! while reading `hz` — each doacross body takes `&mut` to its own
//! row and shared references to the other array.

use crate::grid::{row_energy, Boundary, TezGrid};
use llp::{doacross_slabs, doacross_slabs_zip, Workers};

/// Advance `Hz` one half-step: `∂Hz/∂t = ∂Ex/∂y − ∂Ey/∂x`, parallel
/// over rows. `_width` is ignored (see the module docs).
pub fn update_h(workers: &Workers, grid: &mut TezGrid, _width: usize) {
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
    let e: &[[f64; 2]] = e;
    doacross_slabs(workers, hz.as_mut_slice(), nx, move |j, row| {
        // PEC: the top Hz row sits outside the staggered interior.
        if !periodic && j == ny - 1 {
            return;
        }
        let jp1 = if j + 1 == ny { 0 } else { j + 1 };
        let e_row = &e[j * nx..(j + 1) * nx];
        let e_up = &e[jp1 * nx..jp1 * nx + nx];
        for (i, out) in row[..nx - 1].iter_mut().enumerate() {
            *out += s * ((e_up[i][0] - e_row[i][0]) - (e_row[i + 1][1] - e_row[i][1]));
        }
        if periodic {
            // Wrap column: Ey neighbor comes from i = 0.
            let i = nx - 1;
            row[i] += s * ((e_up[i][0] - e_row[i][0]) - (e_row[0][1] - e_row[i][1]));
        }
    });
}

/// Advance `E` one half-step: `∂Ex/∂t = ∂Hz/∂y`, `∂Ey/∂t = −∂Hz/∂x`,
/// parallel over rows. PEC walls keep tangential `E` clamped by never
/// updating it. `_width` is ignored (see the module docs).
pub fn update_e(workers: &Workers, grid: &mut TezGrid, _width: usize) {
    let (sweep, e) = ESweep::of(grid);
    doacross_slabs(workers, e, sweep.nx, move |j, row| sweep.row(j, row));
}

/// [`update_e`] fused with the energy reduction (the paper's Example 2
/// applied to the step): the same sweep, the same single region, and
/// whichever worker just wrote row `j` also leaves that row's
/// [`crate::grid::TezGrid::energy`] partial in `row_partials[j]` while
/// the row is in its cache. Folding the partials `0..ny` afterwards is
/// all the caller has left to do — no pass drags the fields back to one
/// core.
///
/// # Panics
/// Panics unless `row_partials` holds one entry per grid row.
pub fn update_e_energy(workers: &Workers, grid: &mut TezGrid, row_partials: &mut [f64]) {
    let (sweep, e) = ESweep::of(grid);
    doacross_slabs_zip(
        workers,
        e,
        sweep.nx,
        row_partials,
        1,
        move |j, row, partial| {
            sweep.row(j, row);
            partial[0] = row_energy(row, sweep.hz_row(j));
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
    fn of(grid: &'g mut TezGrid) -> (Self, &'g mut [[f64; 2]]) {
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

    /// Update row `j` of `E` in place.
    fn row(&self, j: usize, row: &mut [[f64; 2]]) {
        let ESweep {
            nx,
            ny,
            s,
            periodic,
            ..
        } = *self;
        let hz_row = self.hz_row(j);
        let hz_dn = self.hz_row(if j == 0 { ny - 1 } else { j - 1 });
        // Which components this row updates (see the grid's stagger
        // docs): under PEC, Ex is tangential to the y walls and Ey's
        // top row sits outside the box.
        let do_ex = periodic || (j >= 1 && j < ny - 1);
        let do_ey = periodic || j < ny - 1;
        if !do_ex && !do_ey {
            return;
        }
        // Prologue at the x edge, then one loop over the interior.
        let end = if periodic {
            // i = 0 wraps Ey's neighbor to nx-1; Ex has no x stencil.
            if do_ex {
                row[0][0] += s * (hz_row[0] - hz_dn[0]);
            }
            if do_ey {
                row[0][1] -= s * (hz_row[0] - hz_row[nx - 1]);
            }
            nx
        } else {
            // PEC: Ex also lives at i = 0 (interior in x); Ey starts
            // at i = 1 and both stop short of the right wall.
            if do_ex {
                row[0][0] += s * (hz_row[0] - hz_dn[0]);
            }
            nx - 1
        };
        for (off, p) in row[1..end].iter_mut().enumerate() {
            let i = 1 + off;
            if do_ex {
                p[0] += s * (hz_row[i] - hz_dn[i]);
            }
            if do_ey {
                p[1] -= s * (hz_row[i] - hz_row[i - 1]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Boundary;

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
        for i in 0..nx {
            assert_eq!(g.e[i][0], 0.0, "Ex bottom wall, i={i}");
            assert_eq!(g.e[(ny - 1) * nx + i][0], 0.0, "Ex top wall, i={i}");
        }
        for j in 0..ny {
            assert_eq!(g.e[j * nx][1], 0.0, "Ey left wall, j={j}");
            assert_eq!(g.e[j * nx + nx - 1][1], 0.0, "Ey right wall, j={j}");
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
        for p in &mut g.e {
            p[1] = 3.0;
        }
        let w = Workers::serial();
        for _ in 0..10 {
            update_h(&w, &mut g, 1);
            update_e(&w, &mut g, 1);
        }
        assert!(g.hz.iter().all(|&h| h == 0.0));
        assert!(g.e.iter().all(|p| p[0] == 0.0 && p[1] == 3.0));
    }
}
