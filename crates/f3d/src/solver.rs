//! The shared solver core: configuration, per-zone state, and the
//! per-pencil numerical kernels.
//!
//! Both implementations — the legacy [`crate::vector_impl`] and the
//! tuned [`crate::risc_impl`] — call *exactly these kernels* point for
//! point. That is how the suite honors the paper's hard constraint:
//! parallelization "without introducing any changes to the algorithm or
//! the convergence properties of the codes". The implementations differ
//! only in storage arrangement, scratch sizing, loop order, and
//! parallelization; integration tests assert their results agree to
//! machine precision.
//!
//! ## The scheme
//!
//! Beam–Warming approximate factorization with partial flux splitting
//! (Steger–Ying–Schiff):
//!
//! ```text
//! (I + Δt δ_J^± A^±)(I + Δt δ_K B + D_K)(I + Δt δ_L C + D_L) ΔQ = -Δt R(Q)
//! ```
//!
//! * `R(Q)`: Steger–Warming first-order upwind differences in J,
//!   second-order central differences plus scalar artificial
//!   dissipation in K and L.
//! * The J factor uses the split Jacobians (`A⁺` backward-differenced,
//!   `A⁻` forward-differenced) — a block-tridiagonal recurrence along J.
//! * The K and L factors use central Jacobians stabilized with implicit
//!   spectral-radius dissipation — block-tridiagonal recurrences along
//!   K and L.
//!
//! Every factor therefore has a serial dependency along exactly one
//! direction and is freely parallel in the other two: the structure the
//! paper's whole loop-level-parallelization story is built on.

use crate::blocktri::{self, Block, BlockTriScratch, LaneBlock, Vec5};
use crate::flux;
use crate::state::FlowState;
use mesh::{Arrangement, Axis, Dims, Ijk, Layout, Metrics, StateField, NCONS};
use solver::{for_lane_groups, LaneBody, Tier};

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Freestream definition.
    pub flow: FlowState,
    /// Time step (nondimensional).
    pub dt: f64,
    /// Second-difference artificial dissipation coefficient for the
    /// central (K, L) directions.
    pub eps2: f64,
    /// Implicit dissipation coefficient (scales the spectral-radius
    /// stabilization of the central factors).
    pub eps_imp: f64,
    /// Nondimensional viscosity `μ/Re`. Zero gives the Euler equations;
    /// positive enables the thin-layer viscous terms in the wall-normal
    /// (L) direction — the "thin-layer Navier-Stokes" mode of F3D.
    pub viscosity: f64,
    /// Prandtl number (heat conduction in the thin-layer energy term).
    pub prandtl: f64,
    /// Local time stepping: when `Some(cfl)`, each point advances with
    /// `dt(p) = cfl / (σ_J + σ_K + σ_L)(p)` instead of the global `dt`
    /// — the standard steady-state convergence accelerator of implicit
    /// codes (time accuracy is forfeited; the steady state is not).
    pub local_cfl: Option<f64>,
}

impl SolverConfig {
    /// A robust default: supersonic projectile-like freestream,
    /// inviscid.
    #[must_use]
    pub fn supersonic() -> Self {
        Self {
            flow: FlowState::freestream(2.0, 0.0),
            dt: 0.05,
            eps2: 0.08,
            eps_imp: 0.3,
            viscosity: 0.0,
            prandtl: 0.72,
            local_cfl: None,
        }
    }

    /// A subsonic configuration (all characteristic directions mixed),
    /// inviscid.
    #[must_use]
    pub fn subsonic() -> Self {
        Self {
            flow: FlowState::freestream(0.5, 0.0),
            dt: 0.05,
            eps2: 0.08,
            eps_imp: 0.3,
            viscosity: 0.0,
            prandtl: 0.72,
            local_cfl: None,
        }
    }

    /// Thin-layer Navier–Stokes at the given Mach number and Reynolds
    /// number (freestream-based): `viscosity = M∞ / Re` in the usual
    /// nondimensionalization.
    ///
    /// # Panics
    /// Panics for a non-positive Reynolds number.
    #[must_use]
    pub fn viscous(mach: f64, reynolds: f64) -> Self {
        assert!(reynolds > 0.0, "Reynolds number must be positive");
        Self {
            flow: FlowState::freestream(mach, 0.0),
            dt: 0.05,
            eps2: 0.08,
            eps_imp: 0.3,
            viscosity: mach / reynolds,
            prandtl: 0.72,
            local_cfl: None,
        }
    }

    /// Enable local time stepping with the given CFL number
    /// (builder-style).
    ///
    /// # Panics
    /// Panics for a non-positive CFL number.
    #[must_use]
    pub fn with_local_time_stepping(mut self, cfl: f64) -> Self {
        assert!(cfl > 0.0, "CFL number must be positive");
        self.local_cfl = Some(cfl);
        self
    }

    /// Whether the viscous terms are active.
    #[must_use]
    pub fn is_viscous(&self) -> bool {
        self.viscosity > 0.0
    }
}

/// Per-zone solver state.
#[derive(Debug, Clone)]
pub struct ZoneSolver {
    /// Configuration (shared across zones of a case).
    pub config: SolverConfig,
    /// Conserved variables.
    pub q: StateField,
    /// Grid metrics.
    pub metrics: Metrics,
}

impl ZoneSolver {
    /// Initialize a zone to uniform freestream with the storage
    /// `arrangement` the implementation wants (AoS for the RISC code,
    /// SoA for the vector code).
    #[must_use]
    pub fn freestream(
        config: SolverConfig,
        metrics: Metrics,
        layout: Layout,
        arrangement: Arrangement,
    ) -> Self {
        let q = StateField::uniform(metrics.dims(), layout, arrangement, config.flow.conserved());
        Self { config, q, metrics }
    }

    /// Zone dimensions.
    #[must_use]
    pub fn dims(&self) -> Dims {
        self.q.dims()
    }

    /// Max-norm of the difference from freestream (a convergence
    /// monitor for freestream-recovery tests).
    #[must_use]
    pub fn freestream_deviation(&self) -> f64 {
        let fs = self.config.flow.conserved();
        let mut m = 0.0f64;
        for p in self.dims().iter_jkl() {
            let q = self.q.get(p);
            for n in 0..NCONS {
                m = m.max((q[n] - fs[n]).abs());
            }
        }
        m
    }
}

/// Point index along a pencil: `base` with the running index substituted
/// on `axis`.
#[inline]
#[must_use]
pub fn pencil_point(base: Ijk, axis: Axis, i: usize) -> Ijk {
    let mut p = base;
    match axis {
        Axis::J => p.j = i,
        Axis::K => p.k = i,
        Axis::L => p.l = i,
    }
    p
}

/// The time step at one point: the global `dt`, or `cfl / Σσ` under
/// local time stepping, the J, K and L spectral radii at the point
/// summed in that order (one three-lane call).
#[must_use]
#[inline(always)]
pub fn local_dt(zone: &ZoneSolver, p: Ijk) -> f64 {
    match zone.config.local_cfl {
        None => zone.config.dt,
        Some(cfl) => {
            let q = zone.q.get(p);
            let n = [
                zone.metrics.grad(p, Axis::J),
                zone.metrics.grad(p, Axis::K),
                zone.metrics.grad(p, Axis::L),
            ];
            let [sj, sk, sl] = flux::spectral_radius_lanes::<3>(&[q; 3], &n);
            cfl / (sj + sk + sl).max(1e-300)
        }
    }
}

/// Pencils an implicit factor eliminates in lockstep (lane = pencil).
///
/// One pencil's block-Thomas recurrence is a single dependent chain;
/// adjacent pencils are independent and contiguous in memory, so a
/// bundle keeps this many chains in flight and its row operations are
/// fixed-trip loops over the lanes. A constant fixed by measurement
/// (EXPERIMENTS.md "Pencil bundles": 2, 4 and 8 compared), not a
/// tuning axis — every bundle size is bit-exact with one pencil.
pub const PENCIL_BUNDLE: usize = 4;

/// Points of a J-row the tuned residual evaluates per lane group: the
/// RISC stepper's `W` of [`residual_rhs_row_w`]. A constant
/// fixed by measurement (EXPERIMENTS.md "Plane fusion": 2, 4 and 8
/// compared), not a tuning axis — every width is bit-exact with one
/// point at a time.
pub const RESIDUAL_LANES: usize = 4;

/// Scratch for the pencils one worker has in flight: state, metric,
/// time-step and residual lines and the block-tridiagonal workspace.
/// [`PencilScratch::new`] holds one pencil,
/// [`PencilScratch::for_pencils`] a bundle. In the RISC implementation
/// one [`PENCIL_BUNDLE`] lives per worker and stays cache-resident
/// (paper Example 3, with the plane buffer cut down to what fits
/// rather than to one pencil); the vector implementation materializes
/// a whole plane of one-pencil scratches.
///
/// The lines are point-major with the lane innermost — point `i` of
/// lane `lane` of a `W`-pencil bundle is entry `i * W + lane` — so one
/// pencil (`W = 1`) is simply indexed by point, and a scratch sized
/// for a bundle also serves any narrower one.
#[derive(Debug, Clone)]
pub struct PencilScratch {
    /// Conserved state along the pencils.
    pub q_line: Vec<Vec5>,
    /// Metric gradient (direction vector) along the pencils.
    pub n_line: Vec<[f64; 3]>,
    /// Right-hand side / solution along the pencils.
    pub rhs_line: Vec<Vec5>,
    /// Per-point time step along the pencils (filled by `gather`).
    pub dt_line: Vec<f64>,
    /// Thomas-algorithm workspace.
    tri: BlockTriScratch,
}

impl PencilScratch {
    /// Scratch for one pencil of up to `n` points.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::for_pencils(n, 1)
    }

    /// Scratch for a bundle of `pencils` pencils of up to `n` points
    /// each.
    #[must_use]
    pub fn for_pencils(n: usize, pencils: usize) -> Self {
        let points = n * pencils;
        Self {
            q_line: vec![[0.0; NCONS]; points],
            n_line: vec![[0.0; 3]; points],
            rhs_line: vec![[0.0; NCONS]; points],
            dt_line: vec![0.0; points],
            tri: BlockTriScratch::for_lanes(n, pencils),
        }
    }

    /// Total scratch bytes — what must fit in cache for the paper's
    /// pencil-resident tuning to work.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.q_line.len()
            * (std::mem::size_of::<Vec5>() * 2
                + std::mem::size_of::<[f64; 3]>()
                + std::mem::size_of::<f64>())
            + self.tri.bytes()
    }

    /// Gather the state and metrics of one pencil from zone storage.
    pub fn gather(&mut self, zone: &ZoneSolver, axis: Axis, base: Ijk) {
        self.gather_bundle(zone, axis, [base]);
    }

    /// Gather `W` pencils along `axis`, lane `lane` starting at
    /// `bases[lane]`.
    pub fn gather_bundle<const W: usize>(
        &mut self,
        zone: &ZoneSolver,
        axis: Axis,
        bases: [Ijk; W],
    ) {
        let n = zone.dims().extent(axis);
        for i in 0..n {
            for (lane, &base) in bases.iter().enumerate() {
                let p = pencil_point(base, axis, i);
                self.q_line[i * W + lane] = zone.q.get(p);
                self.n_line[i * W + lane] = zone.metrics.grad(p, axis);
                self.dt_line[i * W + lane] = local_dt(zone, p);
            }
        }
    }
}

/// Flops-per-point constants for the kernels, used by the cost model
/// and audited against the kernel source (see `costmodel`).
pub mod flops {
    /// Upwind (Steger–Warming) residual contribution per point.
    pub const RHS_UPWIND: u64 = 290;
    /// Central + dissipation residual contribution per point, per
    /// direction.
    pub const RHS_CENTRAL: u64 = 150;
    /// Implicit upwind (J) factor per point: Jacobians + block-tri.
    pub const IMPLICIT_UPWIND: u64 = 1630;
    /// Implicit central (K or L) factor per point.
    pub const IMPLICIT_CENTRAL: u64 = 1460;
    /// Boundary-condition work per face point.
    pub const BC_POINT: u64 = 40;
    /// Zonal injection per interface point.
    pub const INJECT_POINT: u64 = 10;
}

/// The thin-layer viscous flux at the midpoint between two adjacent
/// points along the wall-normal (L) direction (Pulliam's `Ŝ`):
///
/// ```text
/// S = μ [0,
///        φ u_ζ + (m₂/3) ζ_x,
///        φ v_ζ + (m₂/3) ζ_y,
///        φ w_ζ + (m₂/3) ζ_z,
///        φ (½q² + a²/(Pr(γ−1)))_ζ + (m₂/3)(ζ·u)]
/// ```
///
/// with `φ = |∇ζ|²` and `m₂ = ∇ζ·u_ζ`, all midpoint-averaged;
/// derivatives are one-unit computational differences `(·)_b − (·)_a`.
#[must_use]
#[inline(always)]
pub fn viscous_flux_midpoint(
    q_a: &Vec5,
    q_b: &Vec5,
    n_mid: [f64; 3],
    mu: f64,
    prandtl: f64,
) -> Vec5 {
    use crate::state::{Primitive, GAMMA};
    let pa = Primitive::from_conserved(q_a);
    let pb = Primitive::from_conserved(q_b);
    let phi = n_mid[0] * n_mid[0] + n_mid[1] * n_mid[1] + n_mid[2] * n_mid[2];
    let du = [pb.u - pa.u, pb.v - pa.v, pb.w - pa.w];
    let m2 = n_mid[0] * du[0] + n_mid[1] * du[1] + n_mid[2] * du[2];
    let um = [
        0.5 * (pa.u + pb.u),
        0.5 * (pa.v + pb.v),
        0.5 * (pa.w + pb.w),
    ];
    let q2_zeta = um[0] * du[0] + um[1] * du[1] + um[2] * du[2]; // (½q²)_ζ
    let a2_zeta = GAMMA * (pb.p / pb.rho - pa.p / pa.rho); // (a²)_ζ
    let m4 = n_mid[0] * um[0] + n_mid[1] * um[1] + n_mid[2] * um[2];
    [
        0.0,
        mu * (phi * du[0] + m2 / 3.0 * n_mid[0]),
        mu * (phi * du[1] + m2 / 3.0 * n_mid[1]),
        mu * (phi * du[2] + m2 / 3.0 * n_mid[2]),
        mu * (phi * (q2_zeta + a2_zeta / (prandtl * (GAMMA - 1.0))) + m2 / 3.0 * m4),
    ]
}

/// The three-point stencil of one lane group of a gathered pencil:
/// state at each lane's point and at its two neighbours, and the
/// metric direction at the point. The gather every pencil kernel
/// starts with, stated once.
struct Stencil<const W: usize> {
    q: [Vec5; W],
    q_minus: [Vec5; W],
    q_plus: [Vec5; W],
    n: [[f64; 3]; W],
}

impl<const W: usize> Stencil<W> {
    #[inline]
    fn gather(scratch: &PencilScratch, first: usize) -> Self {
        let mut st = Self {
            q: [[0.0; NCONS]; W],
            q_minus: [[0.0; NCONS]; W],
            q_plus: [[0.0; NCONS]; W],
            n: [[0.0; 3]; W],
        };
        for lane in 0..W {
            let i = first + lane;
            st.q[lane] = scratch.q_line[i];
            st.q_minus[lane] = scratch.q_line[i - 1];
            st.q_plus[lane] = scratch.q_line[i + 1];
            st.n[lane] = scratch.n_line[i];
        }
        st
    }
}

/// Accumulate the upwind (J-direction) residual of one J-pencil into
/// `scratch.rhs_line`: `δ⁻F⁺ + δ⁺F⁻` with first-order one-sided
/// differences. Boundary points (i = 0, n−1) receive zero residual —
/// they are owned by the boundary conditions. The benchmark's entry
/// point: a `width` of [`RESIDUAL_LANES`] runs lane groups of that
/// many points, any other one point at a time, with the same bits.
///
/// Requires `scratch.q_line` and `scratch.n_line` to be gathered.
pub fn rhs_upwind_pencil_w(scratch: &mut PencilScratch, n: usize, width: usize) {
    if width == RESIDUAL_LANES {
        rhs_upwind_pencil::<RESIDUAL_LANES>(scratch, n);
    } else {
        rhs_upwind_pencil::<1>(scratch, n);
    }
}

/// [`rhs_upwind_pencil_w`], `W` interior points per lane group.
fn rhs_upwind_pencil<const W: usize>(scratch: &mut PencilScratch, n: usize) {
    assert!(n >= 2, "pencil too short");
    for_lane_groups::<W, _>(1..n - 1, &mut RhsUpwind(scratch));
    scratch.rhs_line[0] = [0.0; NCONS];
    scratch.rhs_line[n - 1] = [0.0; NCONS];
}

struct RhsUpwind<'a>(&'a mut PencilScratch);

impl LaneBody for RhsUpwind<'_> {
    #[inline]
    fn group<const W: usize>(&mut self, first: usize) {
        let st = Stencil::<W>::gather(self.0, first);
        let fp_i = flux::steger_warming_lanes(&st.q, &st.n, true);
        let fp_im = flux::steger_warming_lanes(&st.q_minus, &st.n, true);
        let fm_ip = flux::steger_warming_lanes(&st.q_plus, &st.n, false);
        let fm_i = flux::steger_warming_lanes(&st.q, &st.n, false);
        for lane in 0..W {
            for c in 0..NCONS {
                self.0.rhs_line[first + lane][c] +=
                    (fp_i[lane][c] - fp_im[lane][c]) + (fm_ip[lane][c] - fm_i[lane][c]);
            }
        }
    }
}

/// Point `i` of each lane of a `W`-pencil bundle line.
#[inline(always)]
fn lanes_at<const W: usize, T>(line: &[T], i: usize) -> &[T; W] {
    line[i * W..]
        .first_chunk()
        .expect("line shorter than the bundle")
}

/// One implicit factor of the approximate factorization: the
/// block-tridiagonal coefficients it couples a pencil's points with.
pub trait ImplicitFactor {
    /// Which points' flux Jacobians the assembly of point `i` reads:
    /// entry `o + 1` for point `i + o`, `o ∈ {−1, 0, +1}`.
    const JACOBIANS: [bool; 3];
    /// Which points' spectral radii it reads, indexed like
    /// [`JACOBIANS`](Self::JACOBIANS).
    const RADII: [bool; 3];

    /// Assemble the `[lower, diag, upper]` blocks of interior point
    /// `i` of a `W`-pencil bundle, lane innermost, from the point's
    /// state `q`, metric `n` and time step `dt` and from `terms`, whose
    /// entries named in [`JACOBIANS`](Self::JACOBIANS) and
    /// [`RADII`](Self::RADII) hold points `i − 1`, `i` and `i + 1` at
    /// `n`. Each lane's blocks depend on that lane's values alone,
    /// through the same operation sequence at every `W`.
    fn assemble<const W: usize>(
        &self,
        terms: &PointTerms<'_, W>,
        q: &[Vec5; W],
        n: &[[f64; 3]; W],
        dt: &[f64; W],
    ) -> [LaneBlock<W>; 3];
}

/// The flux terms of points `i − 1`, `i` and `i + 1` of a bundle, all
/// at point `i`'s metric, indexed by offset + 1: what an
/// [`ImplicitFactor`] assembles point `i` from. Only the entries the
/// factor names hold their point's terms.
pub struct PointTerms<'a, const W: usize> {
    /// Flux Jacobians, lane outermost.
    pub jacobians: [&'a [Block; W]; 3],
    /// Spectral radii.
    pub radii: [&'a [f64; W]; 3],
}

/// A three-slot ring of per-point flux terms along a bundle — point `p`
/// in slot `p % 3` — so each point's Jacobian and spectral radius are
/// computed once per sweep rather than once per row that reads them
/// (paper §5's most work per cache miss, one level down).
///
/// Every held term was computed at the metric bits in `key`. A term at
/// point `p` evaluated with point `i`'s metric is the term point `i`'s
/// assembly needs only while `n_i` has those bits, so the ring is kept
/// while consecutive points' metrics are bit-equal in every lane (a
/// Cartesian zone's broadcast metrics) and emptied where they are not
/// (a curvilinear zone): the terms are the same bits either way.
struct Window<const W: usize> {
    key: [[u64; 3]; W],
    jacobians: [[Block; W]; 3],
    radii: [[f64; W]; 3],
    /// The point whose term each slot holds, or `usize::MAX`.
    jacobian_of: [usize; 3],
    radius_of: [usize; 3],
}

/// The bits of each lane's metric.
#[inline(always)]
fn metric_bits<const W: usize>(n: &[[f64; 3]; W]) -> [[u64; 3]; W] {
    let mut bits = [[0; 3]; W];
    for (b, n) in bits.iter_mut().zip(n) {
        *b = [n[0].to_bits(), n[1].to_bits(), n[2].to_bits()];
    }
    bits
}

impl<const W: usize> Window<W> {
    #[inline(always)]
    fn new() -> Self {
        Self {
            key: [[0; 3]; W],
            jacobians: [[[[0.0; NCONS]; NCONS]; W]; 3],
            radii: [[0.0; W]; 3],
            jacobian_of: [usize::MAX; 3],
            radius_of: [usize::MAX; 3],
        }
    }

    /// The terms interior point `i` of an `n`-point bundle assembles
    /// from, computing what the ring does not hold: what `F` reads at
    /// `i`, and — when point `i + 1` is interior and has `n_i`'s bits,
    /// so it will keep the ring — what `F` will read there too.
    #[inline(always)]
    fn advance<F: ImplicitFactor>(
        &mut self,
        q_line: &[Vec5],
        n_line: &[[f64; 3]],
        n: usize,
        i: usize,
    ) -> PointTerms<'_, W> {
        let metric = lanes_at::<W, _>(n_line, i);
        let key = metric_bits(metric);
        if key != self.key {
            self.key = key;
            self.jacobian_of = [usize::MAX; 3];
            self.radius_of = [usize::MAX; 3];
        }
        let keeps = i + 2 < n && metric_bits(lanes_at::<W, _>(n_line, i + 1)) == key;
        for o in 0..3 {
            let p = i + o - 1;
            let slot = p % 3;
            // Offset `o` now is offset `o − 1` at the next point.
            let later = |reads: [bool; 3]| keeps && o > 0 && reads[o - 1];
            if (F::JACOBIANS[o] || later(F::JACOBIANS)) && self.jacobian_of[slot] != p {
                self.jacobians[slot] = flux::flux_jacobian_lanes(lanes_at(q_line, p), metric);
                self.jacobian_of[slot] = p;
                count(Term::Jacobian, W);
            }
            if (F::RADII[o] || later(F::RADII)) && self.radius_of[slot] != p {
                self.radii[slot] = flux::spectral_radius_lanes(lanes_at(q_line, p), metric);
                self.radius_of[slot] = p;
                count(Term::Radius, W);
            }
        }
        let [below, here, above] = [(i - 1) % 3, i % 3, (i + 1) % 3];
        PointTerms {
            jacobians: [
                &self.jacobians[below],
                &self.jacobians[here],
                &self.jacobians[above],
            ],
            radii: [&self.radii[below], &self.radii[here], &self.radii[above]],
        }
    }
}

/// The flux terms the count witness tells apart.
#[derive(Clone, Copy)]
enum Term {
    Jacobian,
    Radius,
    SplitFlux,
}

#[cfg(test)]
thread_local! {
    /// Flux-term evaluations on this thread, in lanes, by [`Term`]:
    /// the count witness of the window and of the split-flux row.
    static EVALUATIONS: std::cell::Cell<[usize; 3]> = const { std::cell::Cell::new([0; 3]) };
}

/// Count `lanes` evaluations of `term` (test builds only).
#[inline(always)]
fn count(term: Term, lanes: usize) {
    #[cfg(test)]
    EVALUATIONS.with(|e| {
        let mut counts = e.get();
        counts[term as usize] += lanes;
        e.set(counts);
    });
    #[cfg(not(test))]
    let _ = (term, lanes);
}

/// Solve `factor` along the `W` gathered pencils of `scratch` in
/// lockstep, identity rows pinning the boundary points: on entry
/// `scratch.rhs_line` holds the right-hand sides, on return the
/// solutions; the per-point time step comes from `scratch.dt_line`
/// (the global `dt` or the local-time-stepping value). Runs at the
/// widest SIMD tier the CPU reports ([`Tier::widest`]).
///
/// Each point is assembled from a three-slot window of per-point flux
/// terms — a point's Jacobian and spectral radius computed once per
/// sweep wherever neighbouring metrics share their bits — and
/// eliminated before the next is touched, so only what back
/// substitution needs is ever stored. Every lane's solution is
/// bit-identical to the one-pencil (`W = 1`) solve of that pencil, at
/// every tier.
///
/// # Panics
/// Panics if `n < 2`, the scratch is too small, or a pivot block is
/// singular.
pub fn implicit_factor_bundle<const W: usize, F: ImplicitFactor>(
    scratch: &mut PencilScratch,
    n: usize,
    factor: &F,
) {
    factor_bundle_at::<W, F>(Tier::widest(), scratch, n, factor);
}

/// [`implicit_factor_bundle`] at `tier`.
fn factor_bundle_at<const W: usize, F: ImplicitFactor>(
    tier: Tier,
    scratch: &mut PencilScratch,
    n: usize,
    factor: &F,
) {
    assert!(n >= 2, "pencil too short");
    assert!(scratch.tri.capacity() >= n * W, "scratch too small");
    tier.run(
        scratch,
        #[inline(always)]
        |scratch| {
            let zero = [[[0.0; W]; NCONS]; NCONS];
            let ident = std::array::from_fn(|r| std::array::from_fn(|c| [IDENT[r][c]; W]));
            let mut window = Window::<W>::new();
            for i in 0..n {
                let [lower, diag, upper] = if i == 0 || i == n - 1 {
                    [zero, ident, zero]
                } else {
                    let terms = window.advance::<F>(&scratch.q_line, &scratch.n_line, n, i);
                    factor.assemble::<W>(
                        &terms,
                        lanes_at(&scratch.q_line, i),
                        lanes_at(&scratch.n_line, i),
                        lanes_at(&scratch.dt_line, i),
                    )
                };
                scratch
                    .tri
                    .eliminate(i, &lower, &diag, &upper, lanes_at(&scratch.rhs_line, i));
            }
            let rhs_line = &mut scratch.rhs_line;
            scratch
                .tri
                .back_substitute::<W>(n, |i, lane, x| rhs_line[i * W + lane] = x);
        },
    );
}

/// The assemblies below do their block algebra one element at a time,
/// identity terms included (`0.0 * x` is not a no-op for the sign of a
/// zero), so each element sees one fixed expression at every `W`.
const IDENT: Block = blocktri::identity();

/// The upwind (J) implicit factor `I + Δt (δ⁻A⁺ + δ⁺A⁻)`, with the
/// approximate split Jacobians `A± = (A ± ρ I) / 2`:
/// `δ⁻A⁺ Δ = A⁺_i Δ_i − A⁺_{i−1} Δ_{i−1}` and
/// `δ⁺A⁻ Δ = A⁻_{i+1} Δ_{i+1} − A⁻_i Δ_i`.
#[derive(Debug, Clone, Copy)]
pub struct UpwindFactor;

impl ImplicitFactor for UpwindFactor {
    const JACOBIANS: [bool; 3] = [true; 3];
    const RADII: [bool; 3] = [true; 3];

    #[inline(always)]
    fn assemble<const W: usize>(
        &self,
        terms: &PointTerms<'_, W>,
        _q: &[Vec5; W],
        _n: &[[f64; 3]; W],
        dt: &[f64; W],
    ) -> [LaneBlock<W>; 3] {
        let [a_im, a_i, a_ip] = terms.jacobians;
        let [r_im, r_i, r_ip] = terms.radii;
        let mut out = [[[[0.0; W]; NCONS]; NCONS]; 3];
        for r in 0..NCONS {
            for c in 0..NCONS {
                let id = IDENT[r][c];
                for lane in 0..W {
                    let ap_i = (a_i[lane][r][c] + id * r_i[lane]) * 0.5;
                    let am_i = (a_i[lane][r][c] - id * r_i[lane]) * 0.5;
                    let ap_im = (a_im[lane][r][c] + id * r_im[lane]) * 0.5;
                    let am_ip = (a_ip[lane][r][c] - id * r_ip[lane]) * 0.5;
                    out[0][r][c][lane] = ap_im * -dt[lane];
                    out[1][r][c][lane] = id + (ap_i - am_i) * dt[lane];
                    out[2][r][c][lane] = am_ip * dt[lane];
                }
            }
        }
        out
    }
}

/// A central (K or L) implicit factor
/// `I + Δt δ(A)/2 + Δt (ε σ + σ_v) ∇²`. `mu_vis` enables the implicit
/// viscous stabilization (`σ_v = 2 μ |∇ζ|² / ρ`) for the wall-normal
/// factor; 0 for the K factor and for inviscid runs.
#[derive(Debug, Clone, Copy)]
pub struct CentralFactor {
    /// Implicit dissipation coefficient.
    pub eps_imp: f64,
    /// Nondimensional viscosity of the implicit viscous term.
    pub mu_vis: f64,
}

impl ImplicitFactor for CentralFactor {
    const JACOBIANS: [bool; 3] = [true, false, true];
    const RADII: [bool; 3] = [false, true, false];

    #[inline(always)]
    fn assemble<const W: usize>(
        &self,
        terms: &PointTerms<'_, W>,
        q: &[Vec5; W],
        n: &[[f64; 3]; W],
        dt: &[f64; W],
    ) -> [LaneBlock<W>; 3] {
        let [a_im, _, a_ip] = terms.jacobians;
        let sigma = terms.radii[1];
        let mut d = [0.0; W];
        for lane in 0..W {
            let nl = n[lane];
            let sigma_v = if self.mu_vis > 0.0 {
                let phi = nl[0] * nl[0] + nl[1] * nl[1] + nl[2] * nl[2];
                2.0 * self.mu_vis * phi / q[lane][0]
            } else {
                0.0
            };
            d[lane] = dt[lane] * (self.eps_imp * sigma[lane] + sigma_v);
        }
        let mut out = [[[[0.0; W]; NCONS]; NCONS]; 3];
        for r in 0..NCONS {
            for c in 0..NCONS {
                let id = IDENT[r][c];
                for lane in 0..W {
                    out[0][r][c][lane] = a_im[lane][r][c] * (-0.5 * dt[lane]) + id * -d[lane];
                    out[1][r][c][lane] = id + id * (2.0 * d[lane]);
                    out[2][r][c][lane] = a_ip[lane][r][c] * (0.5 * dt[lane]) + id * -d[lane];
                }
            }
        }
        out
    }
}

/// Solve the upwind (J) implicit factor along one gathered pencil: the
/// one-pencil instantiation of [`implicit_factor_bundle`]. The
/// recurrence is serial along the pencil, so an along-pencil lane
/// `width` has nothing to select and every width is the same call.
///
/// # Panics
/// As [`implicit_factor_bundle`].
pub fn implicit_upwind_pencil_w(scratch: &mut PencilScratch, n: usize, _width: usize) {
    implicit_factor_bundle::<1, _>(scratch, n, &UpwindFactor);
}

/// Solve a central (K or L) implicit factor along one gathered pencil:
/// the one-pencil instantiation of [`implicit_factor_bundle`].
///
/// # Panics
/// As [`implicit_factor_bundle`].
pub fn implicit_central_pencil_w(scratch: &mut PencilScratch, n: usize, eps_imp: f64, mu_vis: f64) {
    implicit_factor_bundle::<1, _>(scratch, n, &CentralFactor { eps_imp, mu_vis });
}

/// A worker's residual-row scratch, one allocation: the row
/// [`residual_rhs_row_w`] fills, then the row's Steger–Warming split
/// fluxes `F⁺` and `F⁻`, each point's at its own J metric.
#[derive(Debug)]
pub struct RowScratch {
    /// `[row | F⁺ | F⁻]`, `jmax` points each.
    lines: Vec<Vec5>,
}

impl RowScratch {
    /// Scratch for rows of `jmax` points.
    #[must_use]
    pub fn new(jmax: usize) -> Self {
        Self {
            lines: vec![[0.0; NCONS]; 3 * jmax],
        }
    }

    /// The row: `row()[j]` is `−Δt(p)·R(p)` at interior point `j` of
    /// the last row filled.
    #[must_use]
    pub fn row(&self) -> &[Vec5] {
        &self.lines[..self.lines.len() / 3]
    }

    /// Scratch bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.lines.len() * std::mem::size_of::<Vec5>()
    }
}

/// Fill `scratch.row()[j] = −Δt(p)·R(p)` for the interior points
/// `j ∈ 1..jmax−1` of one `(k, l)` row, `W` points per lane group —
/// the `rhs`-kernel body both steppers share (the RISC stepper's at
/// [`RESIDUAL_LANES`], the vector stepper's at 1) — at the widest SIMD
/// tier the CPU reports. Every lane runs one fixed direction and
/// accumulation order (J upwind, K central, L central, then the viscous
/// terms), so each entry is bit-identical to the one-point scalar
/// evaluation in this module's tests, at every `W` and tier.
/// Boundary entries of the row are left untouched.
///
/// The J differences need `F⁺` and `F⁻` of each point and of its
/// neighbours, all at the point's own J metric. Each point's own pair
/// is evaluated once, into the scratch's flux lines; a neighbour's is
/// reused wherever the neighbour's J metric has the point's bits, and
/// evaluated as before elsewhere (the row's two ends, and every point
/// of a curvilinear zone).
///
/// # Panics
/// Panics if `scratch` holds rows shorter than the J extent.
pub fn residual_rhs_row_w<const W: usize>(
    zone: &ZoneSolver,
    k: usize,
    l: usize,
    eps2: f64,
    scratch: &mut RowScratch,
) {
    residual_row_at::<W>(Tier::widest(), zone, k, l, eps2, scratch);
}

/// [`residual_rhs_row_w`] at `tier`.
fn residual_row_at<const W: usize>(
    tier: Tier,
    zone: &ZoneSolver,
    k: usize,
    l: usize,
    eps2: f64,
    scratch: &mut RowScratch,
) {
    let jmax = zone.dims().j;
    assert!(scratch.lines.len() >= 3 * jmax, "row buffer too small");
    let len = scratch.lines.len() / 3;
    tier.run(
        scratch.lines.as_mut_slice(),
        #[inline(always)]
        |lines| {
            let (row, fluxes) = lines.split_at_mut(len);
            let (plus, minus) = fluxes.split_at_mut(len);
            let mut own = SplitFluxes {
                zone,
                k,
                l,
                plus: &mut *plus,
                minus: &mut *minus,
            };
            for_lane_groups::<W, _>(1..jmax - 1, &mut own);
            let mut body = ResidualGroup {
                zone,
                k,
                l,
                eps2,
                plus,
                minus,
                row,
            };
            for_lane_groups::<W, _>(1..jmax - 1, &mut body);
        },
    );
}

/// Each point's own `F⁺` and `F⁻` at its J metric, into the flux lines.
struct SplitFluxes<'a> {
    zone: &'a ZoneSolver,
    k: usize,
    l: usize,
    plus: &'a mut [Vec5],
    minus: &'a mut [Vec5],
}

impl LaneBody for SplitFluxes<'_> {
    #[inline(always)]
    fn group<const W: usize>(&mut self, first: usize) {
        let mut q = [[0.0; NCONS]; W];
        let mut n = [[0.0; 3]; W];
        for lane in 0..W {
            let p = Ijk::new(first + lane, self.k, self.l);
            q[lane] = self.zone.q.get(p);
            n[lane] = self.zone.metrics.grad(p, Axis::J);
        }
        let fp = flux::steger_warming_lanes::<W>(&q, &n, true);
        let fm = flux::steger_warming_lanes::<W>(&q, &n, false);
        count(Term::SplitFlux, 2 * W);
        self.plus[first..first + W].copy_from_slice(&fp);
        self.minus[first..first + W].copy_from_slice(&fm);
    }
}

/// The full residual at `W` consecutive interior points of the row,
/// from the split-flux lines [`SplitFluxes`] filled.
struct ResidualGroup<'a> {
    zone: &'a ZoneSolver,
    k: usize,
    l: usize,
    eps2: f64,
    plus: &'a [Vec5],
    minus: &'a [Vec5],
    row: &'a mut [Vec5],
}

impl ResidualGroup<'_> {
    /// `F±(q_{j+step}, n_j)` at each lane's point `j`: `F⁺` of the
    /// point below (`step` −1), `F⁻` of the point above (`step` +1).
    /// An interior neighbour whose J metric has `n_j`'s bits already
    /// has it in its flux line. If no lane's neighbour does, the lanes
    /// are evaluated together; otherwise each one that does not is
    /// evaluated alone.
    #[inline(always)]
    fn neighbour_fluxes<const W: usize>(
        &self,
        first: usize,
        n: &[[f64; 3]; W],
        step: isize,
    ) -> [Vec5; W] {
        let positive = step < 0;
        let own = if positive { self.plus } else { self.minus };
        let interior = 1..self.zone.dims().j - 1;
        let mut points = [Ijk::new(0, 0, 0); W];
        let mut kept = [false; W];
        for lane in 0..W {
            let p = Ijk::new(first + lane, self.k, self.l).offset(Axis::J, step);
            points[lane] = p;
            kept[lane] = interior.contains(&p.j)
                && metric_bits(&[self.zone.metrics.grad(p, Axis::J)]) == metric_bits(&[n[lane]]);
        }
        if !kept.contains(&true) {
            let mut q = [[0.0; NCONS]; W];
            for lane in 0..W {
                q[lane] = self.zone.q.get(points[lane]);
            }
            count(Term::SplitFlux, W);
            return flux::steger_warming_lanes::<W>(&q, n, positive);
        }
        let mut out = [[0.0; NCONS]; W];
        for lane in 0..W {
            let p = points[lane];
            out[lane] = if kept[lane] {
                own[p.j]
            } else {
                count(Term::SplitFlux, 1);
                flux::steger_warming_lanes::<1>(&[self.zone.q.get(p)], &[n[lane]], positive)[0]
            };
        }
        out
    }
}

impl LaneBody for ResidualGroup<'_> {
    #[inline(always)]
    fn group<const W: usize>(&mut self, first: usize) {
        let zone = self.zone;
        let at = |lane: usize| Ijk::new(first + lane, self.k, self.l);
        let mut r = [[0.0; NCONS]; W];

        let mut q_i = [[0.0; NCONS]; W];
        let mut q_m = [[0.0; NCONS]; W];
        let mut q_p = [[0.0; NCONS]; W];
        let mut nd = [[0.0; 3]; W];

        // J: first-order Steger–Warming upwind differences.
        for lane in 0..W {
            let p = at(lane);
            debug_assert!(!zone.dims().on_boundary(p), "residual at face point {p}");
            nd[lane] = zone.metrics.grad(p, Axis::J);
            q_i[lane] = zone.q.get(p);
        }
        let fp_im = self.neighbour_fluxes::<W>(first, &nd, -1);
        let fm_ip = self.neighbour_fluxes::<W>(first, &nd, 1);
        for lane in 0..W {
            let (fp_i, fm_i) = (self.plus[first + lane], self.minus[first + lane]);
            for c in 0..NCONS {
                r[lane][c] += (fp_i[c] - fp_im[lane][c]) + (fm_ip[lane][c] - fm_i[c]);
            }
        }

        // K and L: central differences with scalar dissipation.
        for axis in [Axis::K, Axis::L] {
            for lane in 0..W {
                let p = at(lane);
                nd[lane] = zone.metrics.grad(p, axis);
                q_m[lane] = zone.q.get(p.offset(axis, -1));
                q_p[lane] = zone.q.get(p.offset(axis, 1));
            }
            let f_p = flux::directed_flux_lanes::<W>(&q_p, &nd);
            let f_m = flux::directed_flux_lanes::<W>(&q_m, &nd);
            let sigma = flux::spectral_radius_lanes::<W>(&q_i, &nd);
            for lane in 0..W {
                for c in 0..NCONS {
                    let central = 0.5 * (f_p[lane][c] - f_m[lane][c]);
                    let diss = self.eps2
                        * sigma[lane]
                        * (q_p[lane][c] - 2.0 * q_i[lane][c] + q_m[lane][c]);
                    r[lane][c] += central - diss;
                }
            }
        }

        // Thin-layer viscous terms along L: per-lane scalar evaluation —
        // the midpoint flux mixes two points' states, so lanes gain nothing
        // here, and the scalar call keeps the operation sequence identical.
        if zone.config.is_viscous() {
            let mu = zone.config.viscosity;
            let pr = zone.config.prandtl;
            let mid = |a: [f64; 3], b: [f64; 3]| {
                [
                    0.5 * (a[0] + b[0]),
                    0.5 * (a[1] + b[1]),
                    0.5 * (a[2] + b[2]),
                ]
            };
            for lane in 0..W {
                let p = at(lane);
                let q_c = q_i[lane];
                let q_lo = zone.q.get(p.offset(Axis::L, -1));
                let q_hi = zone.q.get(p.offset(Axis::L, 1));
                let n_i = zone.metrics.grad(p, Axis::L);
                let n_m = zone.metrics.grad(p.offset(Axis::L, -1), Axis::L);
                let n_p = zone.metrics.grad(p.offset(Axis::L, 1), Axis::L);
                let s_hi = viscous_flux_midpoint(&q_c, &q_hi, mid(n_i, n_p), mu, pr);
                let s_lo = viscous_flux_midpoint(&q_lo, &q_c, mid(n_m, n_i), mu, pr);
                for c in 0..NCONS {
                    r[lane][c] -= s_hi[c] - s_lo[c];
                }
            }
        }

        for (lane, r) in r.iter().enumerate() {
            let dt_p = local_dt(zone, at(lane));
            for (out, &v) in self.row[first + lane].iter_mut().zip(r) {
                *out = -dt_p * v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::Dims;

    /// A lane-width instance of a row fill or a pencil kernel run.
    type RowFill = fn(&ZoneSolver, usize, usize, f64, &mut RowScratch);
    type PencilRun = fn(&mut PencilScratch, usize, usize);

    /// The full explicit residual at one *interior* point, in a fixed
    /// direction order (J upwind, then K central, then L central) so that
    /// every implementation computes bit-identical values regardless of its
    /// loop structure.
    ///
    /// # Panics
    /// Debug-panics if `p` lies on a zone face (faces belong to the BCs).
    fn residual_point(zone: &ZoneSolver, p: Ijk, eps2: f64) -> Vec5 {
        debug_assert!(!zone.dims().on_boundary(p), "residual at face point {p}");
        let mut r = [0.0; NCONS];

        // J: first-order Steger–Warming upwind differences.
        let nj = zone.metrics.grad(p, Axis::J);
        let q_i = zone.q.get(p);
        let q_jm = zone.q.get(p.offset(Axis::J, -1));
        let q_jp = zone.q.get(p.offset(Axis::J, 1));
        let fp_i = flux::steger_warming_reference(&q_i, nj, true);
        let fp_im = flux::steger_warming_reference(&q_jm, nj, true);
        let fm_ip = flux::steger_warming_reference(&q_jp, nj, false);
        let fm_i = flux::steger_warming_reference(&q_i, nj, false);
        for c in 0..NCONS {
            r[c] += (fp_i[c] - fp_im[c]) + (fm_ip[c] - fm_i[c]);
        }

        // K and L: central differences with scalar dissipation.
        for axis in [Axis::K, Axis::L] {
            let n = zone.metrics.grad(p, axis);
            let q_m = zone.q.get(p.offset(axis, -1));
            let q_p = zone.q.get(p.offset(axis, 1));
            let f_p = flux::directed_flux(&q_p, n);
            let f_m = flux::directed_flux(&q_m, n);
            let sigma = flux::spectral_radius(&q_i, n);
            for c in 0..NCONS {
                let central = 0.5 * (f_p[c] - f_m[c]);
                let diss = eps2 * sigma * (q_p[c] - 2.0 * q_i[c] + q_m[c]);
                r[c] += central - diss;
            }
        }

        // Thin-layer viscous terms along L (F3D's thin-layer NS mode):
        // R -= S_{l+1/2} - S_{l-1/2}.
        if zone.config.is_viscous() {
            let mu = zone.config.viscosity;
            let pr = zone.config.prandtl;
            let q_m = zone.q.get(p.offset(Axis::L, -1));
            let q_p = zone.q.get(p.offset(Axis::L, 1));
            let n_i = zone.metrics.grad(p, Axis::L);
            let n_m = zone.metrics.grad(p.offset(Axis::L, -1), Axis::L);
            let n_p = zone.metrics.grad(p.offset(Axis::L, 1), Axis::L);
            let mid = |a: [f64; 3], b: [f64; 3]| {
                [
                    0.5 * (a[0] + b[0]),
                    0.5 * (a[1] + b[1]),
                    0.5 * (a[2] + b[2]),
                ]
            };
            let s_hi = viscous_flux_midpoint(&q_i, &q_p, mid(n_i, n_p), mu, pr);
            let s_lo = viscous_flux_midpoint(&q_m, &q_i, mid(n_m, n_i), mu, pr);
            for c in 0..NCONS {
                r[c] -= s_hi[c] - s_lo[c];
            }
        }
        r
    }

    /// Accumulate the central residual of one K- or L-pencil into
    /// `scratch.rhs_line`: second-order central flux differences plus
    /// scalar second-difference artificial dissipation scaled by the local
    /// spectral radius. Boundary points receive zero residual. Same lane
    /// grouping and exactness contract as [`rhs_upwind_pencil_w`].
    fn rhs_central_pencil_w<const W: usize>(scratch: &mut PencilScratch, n: usize, eps2: f64) {
        assert!(n >= 2, "pencil too short");
        for_lane_groups::<W, _>(1..n - 1, &mut RhsCentral { scratch, eps2 });
        scratch.rhs_line[0] = [0.0; NCONS];
        scratch.rhs_line[n - 1] = [0.0; NCONS];
    }

    struct RhsCentral<'a> {
        scratch: &'a mut PencilScratch,
        eps2: f64,
    }

    impl LaneBody for RhsCentral<'_> {
        #[inline]
        fn group<const W: usize>(&mut self, first: usize) {
            let st = Stencil::<W>::gather(self.scratch, first);
            let f_ip = flux::directed_flux_lanes(&st.q_plus, &st.n);
            let f_im = flux::directed_flux_lanes(&st.q_minus, &st.n);
            let sigma = flux::spectral_radius_lanes(&st.q, &st.n);
            for lane in 0..W {
                for c in 0..NCONS {
                    let central = 0.5 * (f_ip[lane][c] - f_im[lane][c]);
                    let diss = self.eps2
                        * sigma[lane]
                        * (st.q_plus[lane][c] - 2.0 * st.q[lane][c] + st.q_minus[lane][c]);
                    self.scratch.rhs_line[first + lane][c] += central - diss;
                }
            }
        }
    }

    fn cartesian_zone(config: SolverConfig, d: Dims) -> ZoneSolver {
        let metrics = Metrics::cartesian(d, (0.2, 0.2, 0.2));
        ZoneSolver::freestream(config, metrics, Layout::jkl(), Arrangement::ComponentInner)
    }

    #[test]
    fn freestream_has_zero_residual() {
        let zone = cartesian_zone(SolverConfig::supersonic(), Dims::new(8, 6, 5));
        let n = 8;
        let mut s = PencilScratch::new(n);
        s.gather(&zone, Axis::J, Ijk::new(0, 2, 2));
        s.rhs_line.iter_mut().for_each(|r| *r = [0.0; NCONS]);
        rhs_upwind_pencil_w(&mut s, n, 1);
        for r in &s.rhs_line[..n] {
            for &v in r {
                assert!(v.abs() < 1e-13, "upwind residual {v}");
            }
        }
        let mut s = PencilScratch::new(6);
        s.gather(&zone, Axis::K, Ijk::new(3, 0, 2));
        s.rhs_line.iter_mut().for_each(|r| *r = [0.0; NCONS]);
        rhs_central_pencil_w::<1>(&mut s, 6, 0.1);
        for r in &s.rhs_line[..6] {
            for &v in r {
                assert!(v.abs() < 1e-13, "central residual {v}");
            }
        }
    }

    #[test]
    fn implicit_factor_with_zero_rhs_is_zero() {
        let zone = cartesian_zone(SolverConfig::subsonic(), Dims::new(10, 4, 4));
        let n = 10;
        let mut s = PencilScratch::new(n);
        s.gather(&zone, Axis::J, Ijk::new(0, 1, 1));
        s.rhs_line.iter_mut().for_each(|r| *r = [0.0; NCONS]);
        s.dt_line[..n].fill(0.1);
        implicit_upwind_pencil_w(&mut s, n, 1);
        for r in &s.rhs_line[..n] {
            for &v in r {
                assert_eq!(v, 0.0);
            }
        }
    }

    #[test]
    fn implicit_factor_damps_rhs() {
        // The implicit operator (I + dt L) has spectrum shifted right of
        // 1, so the solve contracts the RHS.
        let zone = cartesian_zone(SolverConfig::supersonic(), Dims::new(12, 4, 4));
        let n = 12;
        let mut s = PencilScratch::new(n);
        s.gather(&zone, Axis::J, Ijk::new(0, 1, 1));
        let mut max_in = 0.0f64;
        for (i, r) in s.rhs_line[..n].iter_mut().enumerate() {
            if i > 0 && i + 1 < n {
                *r = [0.01 * (i as f64).sin(); NCONS];
            } else {
                *r = [0.0; NCONS];
            }
            for &v in r.iter() {
                max_in = max_in.max(v.abs());
            }
        }
        s.dt_line[..n].fill(0.5);
        implicit_upwind_pencil_w(&mut s, n, 1);
        let mut max_out = 0.0f64;
        for r in &s.rhs_line[..n] {
            for &v in r {
                max_out = max_out.max(v.abs());
            }
        }
        assert!(max_out <= max_in * 1.0001, "{max_out} vs {max_in}");
        assert!(max_out > 0.0);
    }

    #[test]
    fn central_factor_identity_at_zero_dt() {
        let zone = cartesian_zone(SolverConfig::subsonic(), Dims::new(4, 9, 4));
        let n = 9;
        let mut s = PencilScratch::new(n);
        s.gather(&zone, Axis::K, Ijk::new(2, 0, 2));
        let rhs_in: Vec<Vec5> = (0..n).map(|i| [i as f64 * 0.01; NCONS]).collect();
        s.rhs_line[..n].copy_from_slice(&rhs_in);
        s.dt_line[..n].fill(0.0);
        implicit_central_pencil_w(&mut s, n, 0.3, 0.0);
        for (i, r) in s.rhs_line[..n].iter().enumerate() {
            for (c, &v) in r.iter().enumerate() {
                assert!(
                    (v - rhs_in[i][c]).abs() < 1e-13,
                    "dt=0 must be identity: point {i} comp {c}"
                );
            }
        }
    }

    #[test]
    fn boundary_rows_pinned() {
        let zone = cartesian_zone(SolverConfig::supersonic(), Dims::new(8, 4, 4));
        let n = 8;
        let mut s = PencilScratch::new(n);
        s.gather(&zone, Axis::J, Ijk::new(0, 1, 1));
        for r in s.rhs_line[..n].iter_mut() {
            *r = [1.0; NCONS];
        }
        // Boundary RHS rows are preserved untouched by the identity rows.
        s.dt_line[..n].fill(0.2);
        implicit_upwind_pencil_w(&mut s, n, 1);
        assert_eq!(s.rhs_line[0], [1.0; NCONS]);
        assert_eq!(s.rhs_line[n - 1], [1.0; NCONS]);
    }

    #[test]
    fn scratch_fits_cache_for_paper_pencils() {
        // The tuned code's claim: the scratch a worker holds — one
        // pencil bundle — for dimensions up to ~1000 fits an 8-MB
        // cache (and 450 fits comfortably in 1 MB per the SPP-1000
        // discussion scaled to our richer scratch).
        let s = PencilScratch::for_pencils(1000, PENCIL_BUNDLE);
        assert!(s.bytes() < 8 << 20, "{} bytes", s.bytes());
        let s59 = PencilScratch::for_pencils(450, PENCIL_BUNDLE);
        assert!(s59.bytes() < (8 << 20) / 2, "{} bytes", s59.bytes());
        assert_eq!(s59.bytes(), PENCIL_BUNDLE * PencilScratch::new(450).bytes());
        // A 450 x 350 plane of pencils would NOT fit: the vector code's
        // plane buffers are ~90x larger than the bundle.
        let plane_bytes = PencilScratch::new(450).bytes() * 350;
        assert!(plane_bytes > 8 << 20);
    }

    #[test]
    fn gather_reads_zone_storage() {
        let mut zone = cartesian_zone(SolverConfig::subsonic(), Dims::new(5, 4, 3));
        let mut q = zone.q.get(Ijk::new(2, 1, 1));
        q[0] = 9.0;
        zone.q.set(Ijk::new(2, 1, 1), q);
        let mut s = PencilScratch::new(5);
        s.gather(&zone, Axis::J, Ijk::new(0, 1, 1));
        assert_eq!(s.q_line[2][0], 9.0);
        assert_eq!(s.q_line[0][0], 1.0); // freestream density
                                         // metric gradient for J on this Cartesian grid is (1/0.2, 0, 0)
        assert!((s.n_line[3][0] - 5.0).abs() < 1e-12);
        assert_eq!(s.n_line[3][1], 0.0);
    }

    #[test]
    fn freestream_deviation_zero_then_positive() {
        let mut zone = cartesian_zone(SolverConfig::supersonic(), Dims::new(4, 4, 4));
        assert_eq!(zone.freestream_deviation(), 0.0);
        let mut q = zone.q.get(Ijk::new(1, 1, 1));
        q[0] += 0.25;
        zone.q.set(Ijk::new(1, 1, 1), q);
        assert!((zone.freestream_deviation() - 0.25).abs() < 1e-14);
    }

    #[test]
    fn residual_point_zero_at_freestream() {
        let zone = cartesian_zone(SolverConfig::supersonic(), Dims::new(6, 6, 6));
        for p in zone.dims().iter_jkl() {
            if zone.dims().on_boundary(p) {
                continue;
            }
            let r = residual_point(&zone, p, 0.1);
            for &v in &r {
                assert!(v.abs() < 1e-13, "residual {v} at {p}");
            }
        }
    }

    /// The sum of the three pencil residuals at `probe`, `W` points per
    /// lane group.
    fn pencil_residuals_at<const W: usize>(zone: &ZoneSolver, probe: Ijk, eps2: f64) -> Vec5 {
        let mut total = [0.0f64; NCONS];
        for axis in Axis::ALL {
            let n = zone.dims().extent(axis);
            let mut s = PencilScratch::new(n);
            s.gather(zone, axis, probe);
            s.rhs_line.iter_mut().for_each(|r| *r = [0.0; NCONS]);
            let at = match axis {
                Axis::J => {
                    rhs_upwind_pencil::<W>(&mut s, n);
                    probe.j
                }
                Axis::K => {
                    rhs_central_pencil_w::<W>(&mut s, n, eps2);
                    probe.k
                }
                Axis::L => {
                    rhs_central_pencil_w::<W>(&mut s, n, eps2);
                    probe.l
                }
            };
            for (t, v) in total.iter_mut().zip(s.rhs_line[at]) {
                *t += v;
            }
        }
        total
    }

    #[test]
    fn residual_point_matches_pencil_kernels() {
        // residual_point must reproduce the sum of the three pencil
        // kernels exactly for a perturbed field, at every lane width.
        let zone = perturbed_zone(SolverConfig::subsonic(), Dims::new(7, 6, 5));
        let eps2 = 0.08;
        let probe = Ijk::new(3, 2, 2);
        let direct = residual_point(&zone, probe, eps2);
        let totals = [
            (1, pencil_residuals_at::<1>(&zone, probe, eps2)),
            (2, pencil_residuals_at::<2>(&zone, probe, eps2)),
            (4, pencil_residuals_at::<4>(&zone, probe, eps2)),
            (8, pencil_residuals_at::<8>(&zone, probe, eps2)),
        ];
        for (width, total) in totals {
            for c in 0..NCONS {
                assert!(
                    (direct[c] - total[c]).abs() < 1e-14,
                    "width {width} comp {c}: {} vs {}",
                    direct[c],
                    total[c]
                );
            }
        }
    }

    #[test]
    fn viscous_flux_vanishes_for_uniform_flow() {
        let fs = SolverConfig::viscous(2.0, 1.0e5);
        let q = fs.flow.conserved();
        let s = viscous_flux_midpoint(&q, &q, [0.0, 0.0, 5.0], fs.viscosity, fs.prandtl);
        for &v in &s {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn viscous_flux_opposes_shear() {
        // A velocity gradient along L produces a momentum flux of the
        // gradient's sign and a matching work term.
        use crate::state::Primitive;
        let lo = Primitive {
            rho: 1.0,
            u: 0.5,
            v: 0.0,
            w: 0.0,
            p: 1.0,
        }
        .to_conserved();
        let hi = Primitive {
            rho: 1.0,
            u: 1.5,
            v: 0.0,
            w: 0.0,
            p: 1.0,
        }
        .to_conserved();
        let n = [0.0, 0.0, 2.0]; // wall-normal metric
        let s = viscous_flux_midpoint(&lo, &hi, n, 0.01, 0.72);
        // u_zeta = +1, phi = 4: S[1] = mu*phi*du = 0.04.
        assert!((s[1] - 0.04).abs() < 1e-12, "{}", s[1]);
        assert_eq!(s[0], 0.0);
        // energy flux = mu*phi*(u_mid*du) = 0.01*4*1.0 = 0.04
        assert!((s[4] - 0.04).abs() < 1e-12, "{}", s[4]);
        // antisymmetric under swapping the two states
        let s_rev = viscous_flux_midpoint(&hi, &lo, n, 0.01, 0.72);
        assert!((s_rev[1] + s[1]).abs() < 1e-12);
    }

    #[test]
    fn viscous_residual_diffuses_shear() {
        // A sinusoidal u(z) profile must feel a residual that pushes
        // back toward uniformity: R has the sign of u - u_mean locally
        // (diffusion), at the extremum of the profile.
        let d = Dims::new(4, 4, 9);
        let mut config = SolverConfig::viscous(2.0, 1.0e3);
        config.eps2 = 0.0; // isolate the viscous term from dissipation
        let metrics = Metrics::cartesian(d, (0.5, 0.5, 0.5));
        let mut zone =
            ZoneSolver::freestream(config, metrics, Layout::jkl(), Arrangement::ComponentInner);
        // Superimpose a shear du(z) on the freestream, constant in J/K
        // so only the viscous L-term acts on momentum.
        for p in d.iter_jkl() {
            let mut q = zone.q.get(p);
            let du = 0.2 * (std::f64::consts::PI * p.l as f64 / (d.l - 1) as f64).sin();
            q[1] += q[0] * du;
            // keep energy consistent with unchanged pressure
            let prim = crate::state::Primitive::from_conserved(&[q[0], q[1], q[2], q[3], q[4]]);
            let _ = prim; // pressure changed implicitly; acceptable for the sign test
            zone.q.set(p, q);
        }
        // At the profile peak (l = middle), u exceeds its neighbors: the
        // viscous term must produce a positive R[1] (since update is
        // -dt*R, u decreases).
        let peak = Ijk::new(2, 2, (d.l - 1) / 2);
        let r_visc = residual_point(&zone, peak, 0.0);
        let mut inviscid_zone = zone.clone();
        inviscid_zone.config.viscosity = 0.0;
        let r_inv = residual_point(&inviscid_zone, peak, 0.0);
        let visc_contrib = r_visc[1] - r_inv[1];
        assert!(
            visc_contrib > 0.0,
            "viscous term must damp the peak: {visc_contrib}"
        );
    }

    fn perturbed_zone(config: SolverConfig, d: Dims) -> ZoneSolver {
        let mut zone = cartesian_zone(config, d);
        for p in d.iter_jkl() {
            let mut q = zone.q.get(p);
            q[0] *= 1.0 + 0.01 * ((p.j * 3 + p.k * 5 + p.l * 7) as f64).sin();
            q[4] *= 1.0 + 0.005 * ((p.j + 2 * p.k + 3 * p.l) as f64).cos();
            zone.q.set(p, q);
        }
        zone
    }

    /// FNV-1a over the bits of `rhs_line[..n]`, point-major.
    fn rhs_digest(s: &PencilScratch, n: usize) -> u64 {
        let bytes: Vec<u8> = s.rhs_line[..n]
            .iter()
            .flatten()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        crate::service::fnv1a64(&bytes)
    }

    #[test]
    fn wide_pencil_kernels_are_bit_exact() {
        // Pencil lengths chosen so every width leaves a different
        // remainder (interior counts 5, 6, 7 against W = 2, 4, 8).
        //
        // The width-1 golden: digests of what four independent scalar
        // statements of these kernels (one plain loop per kernel over
        // the scalar `flux` functions) produced on these pencils,
        // captured by running exactly this loop over them at the last
        // commit that carried them. They pin the `::<1>` instantiation
        // to that reference; the wider widths are then compared to
        // width 1 bit for bit.
        const GOLDEN: [[u64; 4]; 3] = [
            [
                0x4907_2e0c_ed35_ddba,
                0xfd34_2f6a_03c3_5430,
                0x5084_642f_11b2_5b08,
                0x6a40_f5c3_c742_e60a,
            ],
            [
                0x29f7_e809_d93f_dbbd,
                0x2f99_ee5a_1f14_d9b7,
                0x0e6e_7eb6_7874_9c56,
                0xd3f8_ef27_b629_4da8,
            ],
            [
                0x6b99_6664_1d41_9d5a,
                0xe6b7_f053_130f_4a6c,
                0xa1fb_b020_dec5_5d87,
                0xfa0f_bf6d_f2d9_9943,
            ],
        ];
        let dims = [Dims::new(7, 6, 5), Dims::new(8, 7, 6), Dims::new(9, 6, 5)];
        for (d, golden) in dims.into_iter().zip(GOLDEN) {
            let zone = perturbed_zone(SolverConfig::subsonic(), d);
            let n = d.j;
            let base = Ijk::new(0, 1, 1);
            let mut reference = PencilScratch::new(n);
            reference.gather(&zone, Axis::J, base);
            let mut wide = reference.clone();
            fn run<const W: usize>(s: &mut PencilScratch, n: usize, kernel: usize) {
                s.rhs_line.iter_mut().for_each(|r| *r = [0.0; NCONS]);
                if kernel >= 2 {
                    for (i, r) in s.rhs_line.iter_mut().enumerate() {
                        *r = [0.01 * (i as f64 + 1.0); NCONS];
                    }
                }
                match kernel {
                    0 => rhs_upwind_pencil::<W>(s, n),
                    1 => rhs_central_pencil_w::<W>(s, n, 0.08),
                    2 => implicit_upwind_pencil_w(s, n, W),
                    _ => implicit_central_pencil_w(s, n, 0.3, 0.002),
                }
            }
            let runs: [(usize, PencilRun); 3] = [(2, run::<2>), (4, run::<4>), (8, run::<8>)];
            for (kernel, want) in golden.into_iter().enumerate() {
                run::<1>(&mut reference, n, kernel);
                assert_eq!(
                    rhs_digest(&reference, n),
                    want,
                    "kernel {kernel} width 1 dims {d:?}: {:#018x}",
                    rhs_digest(&reference, n)
                );
                for (width, run) in runs {
                    run(&mut wide, n, kernel);
                    for i in 0..n {
                        assert_eq!(
                            wide.rhs_line[i].map(f64::to_bits),
                            reference.rhs_line[i].map(f64::to_bits),
                            "kernel {kernel} width {width} point {i} dims {d:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn residual_row_is_bit_exact_across_widths() {
        // Viscous + local time stepping exercises every branch of the
        // lane residual; jmax = 9 leaves tails at widths 2 and 4 and
        // runs entirely as the one-lane tail at width 8. Every width —
        // 1 included — is compared with the scalar `residual_point`.
        let config = SolverConfig::viscous(2.0, 1.0e4).with_local_time_stepping(2.0);
        let d = Dims::new(9, 6, 6);
        let zone = perturbed_zone(config, d);
        let jmax = d.j;
        let mut scratch = RowScratch::new(jmax);
        let rows: [(usize, RowFill); 4] = [
            (1, residual_rhs_row_w::<1>),
            (2, residual_rhs_row_w::<2>),
            (4, residual_rhs_row_w::<4>),
            (8, residual_rhs_row_w::<8>),
        ];
        for k in 1..d.k - 1 {
            for l in 1..d.l - 1 {
                for (width, fill) in rows {
                    scratch.lines.fill([f64::NAN; NCONS]);
                    fill(&zone, k, l, 0.08, &mut scratch);
                    let row = scratch.row();
                    for (j, got) in row.iter().enumerate().take(jmax - 1).skip(1) {
                        let p = Ijk::new(j, k, l);
                        let dt_p = local_dt(&zone, p);
                        let want = residual_point(&zone, p, 0.08).map(|r| -dt_p * r);
                        assert_eq!(
                            got.map(f64::to_bits),
                            want.map(f64::to_bits),
                            "width {width} at j={j} k={k} l={l}"
                        );
                    }
                    // Boundary entries are left untouched.
                    assert!(row[0][0].is_nan() && row[jmax - 1][0].is_nan());
                }
            }
        }
    }

    /// The kernels as they were before the window and the split-flux
    /// row: every point's terms evaluated for every row that reads
    /// them, compiled at the baseline. The tier oracle's reference.
    mod pre_window {
        use super::super::*;

        /// The pre-window factor interface: a factor assembled point
        /// `i` from the gathered lines alone.
        pub(super) trait Assemble {
            fn assemble<const W: usize>(
                &self,
                scratch: &PencilScratch,
                i: usize,
            ) -> [LaneBlock<W>; 3];
        }

        pub(super) fn implicit_factor_bundle<const W: usize, F: Assemble>(
            scratch: &mut PencilScratch,
            n: usize,
            factor: &F,
        ) {
            let zero = [[[0.0; W]; NCONS]; NCONS];
            for i in 0..n {
                let [lower, diag, upper] = if i == 0 || i == n - 1 {
                    [
                        zero,
                        std::array::from_fn(|r| std::array::from_fn(|c| [IDENT[r][c]; W])),
                        zero,
                    ]
                } else {
                    factor.assemble::<W>(scratch, i)
                };
                scratch
                    .tri
                    .eliminate(i, &lower, &diag, &upper, lanes_at(&scratch.rhs_line, i));
            }
            let rhs_line = &mut scratch.rhs_line;
            scratch
                .tri
                .back_substitute::<W>(n, |i, lane, x| rhs_line[i * W + lane] = x);
        }

        impl Assemble for UpwindFactor {
            fn assemble<const W: usize>(
                &self,
                scratch: &PencilScratch,
                i: usize,
            ) -> [LaneBlock<W>; 3] {
                let q = lanes_at::<W, _>(&scratch.q_line, i);
                let n = lanes_at::<W, _>(&scratch.n_line, i);
                let dt = lanes_at::<W, _>(&scratch.dt_line, i);
                let a_i = flux::flux_jacobian_lanes(q, n);
                let r_i = flux::spectral_radius_lanes(q, n);
                let q_minus = lanes_at::<W, _>(&scratch.q_line, i - 1);
                let a_im = flux::flux_jacobian_lanes(q_minus, n);
                let r_im = flux::spectral_radius_lanes(q_minus, n);
                let q_plus = lanes_at::<W, _>(&scratch.q_line, i + 1);
                let a_ip = flux::flux_jacobian_lanes(q_plus, n);
                let r_ip = flux::spectral_radius_lanes(q_plus, n);
                let mut out = [[[[0.0; W]; NCONS]; NCONS]; 3];
                for r in 0..NCONS {
                    for c in 0..NCONS {
                        let id = IDENT[r][c];
                        for lane in 0..W {
                            let ap_i = (a_i[lane][r][c] + id * r_i[lane]) * 0.5;
                            let am_i = (a_i[lane][r][c] - id * r_i[lane]) * 0.5;
                            let ap_im = (a_im[lane][r][c] + id * r_im[lane]) * 0.5;
                            let am_ip = (a_ip[lane][r][c] - id * r_ip[lane]) * 0.5;
                            out[0][r][c][lane] = ap_im * -dt[lane];
                            out[1][r][c][lane] = id + (ap_i - am_i) * dt[lane];
                            out[2][r][c][lane] = am_ip * dt[lane];
                        }
                    }
                }
                out
            }
        }

        impl Assemble for CentralFactor {
            fn assemble<const W: usize>(
                &self,
                scratch: &PencilScratch,
                i: usize,
            ) -> [LaneBlock<W>; 3] {
                let q = lanes_at::<W, _>(&scratch.q_line, i);
                let n = lanes_at::<W, _>(&scratch.n_line, i);
                let dt = lanes_at::<W, _>(&scratch.dt_line, i);
                let a_im = flux::flux_jacobian_lanes(lanes_at::<W, _>(&scratch.q_line, i - 1), n);
                let a_ip = flux::flux_jacobian_lanes(lanes_at::<W, _>(&scratch.q_line, i + 1), n);
                let sigma = flux::spectral_radius_lanes(q, n);
                let mut d = [0.0; W];
                for lane in 0..W {
                    let nl = n[lane];
                    let sigma_v = if self.mu_vis > 0.0 {
                        let phi = nl[0] * nl[0] + nl[1] * nl[1] + nl[2] * nl[2];
                        2.0 * self.mu_vis * phi / q[lane][0]
                    } else {
                        0.0
                    };
                    d[lane] = dt[lane] * (self.eps_imp * sigma[lane] + sigma_v);
                }
                let mut out = [[[[0.0; W]; NCONS]; NCONS]; 3];
                for r in 0..NCONS {
                    for c in 0..NCONS {
                        let id = IDENT[r][c];
                        for lane in 0..W {
                            out[0][r][c][lane] =
                                a_im[lane][r][c] * (-0.5 * dt[lane]) + id * -d[lane];
                            out[1][r][c][lane] = id + id * (2.0 * d[lane]);
                            out[2][r][c][lane] =
                                a_ip[lane][r][c] * (0.5 * dt[lane]) + id * -d[lane];
                        }
                    }
                }
                out
            }
        }

        /// The pre-split-flux row: `row[j] = −Δt(p)·R(p)` with all four
        /// J split fluxes of each point evaluated at it.
        pub(super) fn residual_rhs_row_w<const W: usize>(
            zone: &ZoneSolver,
            k: usize,
            l: usize,
            eps2: f64,
            row: &mut [Vec5],
        ) {
            let jmax = zone.dims().j;
            let mut body = Row {
                zone,
                k,
                l,
                eps2,
                row,
            };
            for_lane_groups::<W, _>(1..jmax - 1, &mut body);
        }

        struct Row<'a> {
            zone: &'a ZoneSolver,
            k: usize,
            l: usize,
            eps2: f64,
            row: &'a mut [Vec5],
        }

        impl LaneBody for Row<'_> {
            fn group<const W: usize>(&mut self, first: usize) {
                let r = residual_points_lanes::<W>(
                    self.zone,
                    Ijk::new(first, self.k, self.l),
                    self.eps2,
                );
                for (lane, r) in r.iter().enumerate() {
                    let j = first + lane;
                    let dt_p = local_dt(self.zone, Ijk::new(j, self.k, self.l));
                    for (out, &v) in self.row[j].iter_mut().zip(r) {
                        *out = -dt_p * v;
                    }
                }
            }
        }

        fn residual_points_lanes<const W: usize>(
            zone: &ZoneSolver,
            first: Ijk,
            eps2: f64,
        ) -> [Vec5; W] {
            let mut r = [[0.0; NCONS]; W];
            let mut q_i = [[0.0; NCONS]; W];
            let mut q_m = [[0.0; NCONS]; W];
            let mut q_p = [[0.0; NCONS]; W];
            let mut nd = [[0.0; 3]; W];
            for lane in 0..W {
                let p = pencil_point(first, Axis::J, first.j + lane);
                nd[lane] = zone.metrics.grad(p, Axis::J);
                q_i[lane] = zone.q.get(p);
                q_m[lane] = zone.q.get(p.offset(Axis::J, -1));
                q_p[lane] = zone.q.get(p.offset(Axis::J, 1));
            }
            let fp_i = flux::steger_warming_lanes::<W>(&q_i, &nd, true);
            let fp_im = flux::steger_warming_lanes::<W>(&q_m, &nd, true);
            let fm_ip = flux::steger_warming_lanes::<W>(&q_p, &nd, false);
            let fm_i = flux::steger_warming_lanes::<W>(&q_i, &nd, false);
            for lane in 0..W {
                for c in 0..NCONS {
                    r[lane][c] +=
                        (fp_i[lane][c] - fp_im[lane][c]) + (fm_ip[lane][c] - fm_i[lane][c]);
                }
            }
            for axis in [Axis::K, Axis::L] {
                for lane in 0..W {
                    let p = pencil_point(first, Axis::J, first.j + lane);
                    nd[lane] = zone.metrics.grad(p, axis);
                    q_m[lane] = zone.q.get(p.offset(axis, -1));
                    q_p[lane] = zone.q.get(p.offset(axis, 1));
                }
                let f_p = flux::directed_flux_lanes::<W>(&q_p, &nd);
                let f_m = flux::directed_flux_lanes::<W>(&q_m, &nd);
                let sigma = flux::spectral_radius_lanes::<W>(&q_i, &nd);
                for lane in 0..W {
                    for c in 0..NCONS {
                        let central = 0.5 * (f_p[lane][c] - f_m[lane][c]);
                        let diss =
                            eps2 * sigma[lane] * (q_p[lane][c] - 2.0 * q_i[lane][c] + q_m[lane][c]);
                        r[lane][c] += central - diss;
                    }
                }
            }
            if zone.config.is_viscous() {
                let mu = zone.config.viscosity;
                let pr = zone.config.prandtl;
                let mid = |a: [f64; 3], b: [f64; 3]| {
                    [
                        0.5 * (a[0] + b[0]),
                        0.5 * (a[1] + b[1]),
                        0.5 * (a[2] + b[2]),
                    ]
                };
                for lane in 0..W {
                    let p = pencil_point(first, Axis::J, first.j + lane);
                    let q_c = q_i[lane];
                    let q_lo = zone.q.get(p.offset(Axis::L, -1));
                    let q_hi = zone.q.get(p.offset(Axis::L, 1));
                    let n_i = zone.metrics.grad(p, Axis::L);
                    let n_m = zone.metrics.grad(p.offset(Axis::L, -1), Axis::L);
                    let n_p = zone.metrics.grad(p.offset(Axis::L, 1), Axis::L);
                    let s_hi = viscous_flux_midpoint(&q_c, &q_hi, mid(n_i, n_p), mu, pr);
                    let s_lo = viscous_flux_midpoint(&q_lo, &q_c, mid(n_m, n_i), mu, pr);
                    for c in 0..NCONS {
                        r[lane][c] -= s_hi[c] - s_lo[c];
                    }
                }
            }
            r
        }
    }

    /// The grids the oracle and the count witness run on.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Grid {
        /// Broadcast metrics: every neighbour has a point's bits.
        Cartesian,
        /// `Zone::cylinder_segment`: the K and L metrics change from
        /// point to point; the J metric (axial, uniform spacing) keeps
        /// its bits at some neighbours and not at others.
        Cylinder,
        /// A cylinder segment flared and stretched along its axis, so
        /// every metric changes from point to point along every axis.
        Flared,
    }

    /// A perturbed zone of dims `d` on `grid`.
    fn oracle_zone(config: SolverConfig, d: Dims, grid: Grid, phase: usize) -> ZoneSolver {
        let metrics = match grid {
            Grid::Cartesian => Metrics::cartesian(d, (0.2, 0.25, 0.3)),
            Grid::Cylinder => mesh::Zone::cylinder_segment(d, 3.0, 0.5, 2.5).metrics(),
            Grid::Flared => {
                let [nj, nk, nl] = [d.j, d.k, d.l].map(|n| (n - 1) as f64);
                mesh::Zone::from_fn(d, |p| {
                    let xi = p.j as f64 / nj;
                    let theta = p.k as f64 / nk * std::f64::consts::PI;
                    let r = 0.5 * 5.0f64.powf(p.l as f64 / nl) * (1.0 + 0.3 * xi);
                    (
                        3.0 * xi * (1.0 + 0.5 * xi),
                        r * theta.cos(),
                        r * theta.sin(),
                    )
                })
                .metrics()
            }
        };
        let mut zone =
            ZoneSolver::freestream(config, metrics, Layout::jkl(), Arrangement::ComponentInner);
        for p in d.iter_jkl() {
            let mut q = zone.q.get(p);
            let t = (p.j * 3 + p.k * 5 + p.l * 7 + phase) as f64;
            q[0] *= 1.0 + 0.02 * t.sin();
            q[2] += 0.05 * (0.7 * t).cos();
            q[4] *= 1.0 + 0.01 * (1.3 * t).cos();
            zone.q.set(p, q);
        }
        zone
    }

    /// The three factors the steppers run: upwind (J), central without
    /// and with the implicit viscous term.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Upwind,
        Central,
        Viscous,
    }

    /// `W` pencils of `zone` along `axis` from `bases`, with the
    /// right-hand sides filled: what `FactorSweep` hands a factor.
    fn gathered<const W: usize>(zone: &ZoneSolver, axis: Axis, bases: [Ijk; W]) -> PencilScratch {
        let n = zone.dims().extent(axis);
        let mut s = PencilScratch::for_pencils(n, W);
        s.gather_bundle(zone, axis, bases);
        for (x, r) in s.rhs_line.iter_mut().enumerate() {
            *r = std::array::from_fn(|c| 0.01 * ((x * 7 + c * 3) as f64).sin());
        }
        s
    }

    /// The window's bundle at `tier` and the pre-window one, on the
    /// same gathered pencils: their solutions' bits.
    fn both_factors<const W: usize>(
        tier: Tier,
        kind: Kind,
        zone: &ZoneSolver,
        axis: Axis,
        bases: [Ijk; W],
    ) -> [Vec<u64>; 2] {
        let n = zone.dims().extent(axis);
        let (eps_imp, mu) = (zone.config.eps_imp, 0.004);
        let mut new = gathered(zone, axis, bases);
        let mut old = new.clone();
        let central = |mu_vis| CentralFactor { eps_imp, mu_vis };
        match kind {
            Kind::Upwind => {
                factor_bundle_at::<W, _>(tier, &mut new, n, &UpwindFactor);
                pre_window::implicit_factor_bundle::<W, _>(&mut old, n, &UpwindFactor);
            }
            Kind::Central | Kind::Viscous => {
                let f = central(if matches!(kind, Kind::Viscous) {
                    mu
                } else {
                    0.0
                });
                factor_bundle_at::<W, _>(tier, &mut new, n, &f);
                pre_window::implicit_factor_bundle::<W, _>(&mut old, n, &f);
            }
        }
        [&new, &old].map(|s| {
            s.rhs_line[..n * W]
                .iter()
                .flatten()
                .map(|v| v.to_bits())
                .collect()
        })
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The tier oracle: at the baseline and at the widest tier the
        /// host reports, the window's bundles (`::<4>` and `::<1>`, all
        /// three factors along all three axes, every bundle of a plane,
        /// so every remainder mod 4) and the split-flux row (at
        /// `RESIDUAL_LANES`, every row, extents that leave every
        /// lane-group remainder) are bit for bit the pre-window
        /// kernels, on Cartesian zones (the window kept), on cylinder
        /// segments (kept along J at some points) and on flared ones
        /// (recomputed everywhere), inviscid and viscous with local time
        /// stepping.
        #[test]
        fn every_tier_is_the_pre_window_kernels_bit_for_bit(
            jmax in 3usize..=13,
            kmax in 3usize..=10,
            lmax in 3usize..=9,
            grid in 0usize..3,
            viscous in 0usize..2,
            phase in 0usize..64,
        ) {
            static TIERS: std::sync::Once = std::sync::Once::new();
            TIERS.call_once(|| println!("tiers run: {:?}", [Tier::BASELINE, Tier::widest()]));
            let config = if viscous == 1 {
                SolverConfig::viscous(2.0, 1.0e3).with_local_time_stepping(1.5)
            } else {
                SolverConfig::subsonic()
            };
            let d = Dims::new(jmax, kmax, lmax);
            let grid = [Grid::Cartesian, Grid::Cylinder, Grid::Flared][grid];
            let zone = oracle_zone(config, d, grid, phase);
            for tier in [Tier::BASELINE, Tier::widest()] {
                for (axis, across, at) in [
                    (Axis::J, Axis::K, Ijk::new(0, 0, lmax / 2)),
                    (Axis::K, Axis::J, Ijk::new(0, 0, lmax / 2)),
                    (Axis::L, Axis::J, Ijk::new(0, kmax / 2, 0)),
                ] {
                    let pencils = d.extent(across);
                    for kind in [Kind::Upwind, Kind::Central, Kind::Viscous] {
                        let mut first = 0;
                        while first + PENCIL_BUNDLE <= pencils {
                            let bases: [Ijk; PENCIL_BUNDLE] =
                                std::array::from_fn(|lane| pencil_point(at, across, first + lane));
                            let [new, old] = both_factors(tier, kind, &zone, axis, bases);
                            prop_assert!(new == old, "{:?} {:?} {:?} along {:?} from {}", tier, kind, d, axis, first);
                            first += PENCIL_BUNDLE;
                        }
                        for lane in first..pencils {
                            let [new, old] = both_factors(tier, kind, &zone, axis, [pencil_point(at, across, lane)]);
                            prop_assert!(new == old, "{:?} {:?} {:?} along {:?} at {}", tier, kind, d, axis, lane);
                        }
                    }
                }
                let mut scratch = RowScratch::new(jmax);
                let mut old = vec![[f64::NAN; NCONS]; jmax];
                for k in 1..kmax - 1 {
                    for l in 1..lmax - 1 {
                        scratch.lines.fill([f64::NAN; NCONS]);
                        residual_row_at::<RESIDUAL_LANES>(tier, &zone, k, l, config.eps2, &mut scratch);
                        pre_window::residual_rhs_row_w::<RESIDUAL_LANES>(&zone, k, l, config.eps2, &mut old);
                        let rows = scratch.row().iter().zip(&old).enumerate();
                        for (j, (new, old)) in rows.take(jmax - 1).skip(1) {
                            prop_assert!(
                                new.map(f64::to_bits) == old.map(f64::to_bits),
                                "{:?} row {} {} point {} of {:?}", tier, k, l, j, d
                            );
                        }
                    }
                }
            }
        }
    }

    /// Flux-term evaluations, in lanes, that `run` makes on this thread:
    /// `[Jacobians, radii, split fluxes]`.
    fn evaluations(run: impl FnOnce()) -> [usize; 3] {
        EVALUATIONS.with(|e| e.set([0; 3]));
        run();
        EVALUATIONS.with(std::cell::Cell::get)
    }

    #[test]
    fn each_point_computes_its_flux_terms_once_where_the_metric_allows() {
        // The exact count witness. On a Cartesian zone a bundle's
        // interior point computes one new Jacobian (and one radius) and
        // a row's point its own two split fluxes; each pencil or row
        // adds the two terms its first point reads below it and its
        // last point above it. On a flared cylinder segment no two
        // neighbours share a metric, so every count is the pre-window
        // one: 3 + 3 (upwind), 2 + 1 (central), 4 split fluxes.
        let d = Dims::new(11, 9, 8);
        for grid in [Grid::Cartesian, Grid::Flared] {
            let zone = oracle_zone(SolverConfig::subsonic(), d, grid, 0);
            for (axis, across) in [(Axis::J, Axis::K), (Axis::K, Axis::J), (Axis::L, Axis::J)] {
                let n = d.extent(axis);
                let interior = n - 2;
                // Four adjacent pencils, the third axis at index 3.
                let third = Axis::ALL
                    .into_iter()
                    .find(|&a| a != axis && a != across)
                    .unwrap();
                let bases: [Ijk; 4] = std::array::from_fn(|lane| {
                    pencil_point(pencil_point(Ijk::new(0, 0, 0), across, 2 + lane), third, 3)
                });
                let mut s = gathered(&zone, axis, bases);
                let upwind =
                    evaluations(|| implicit_factor_bundle::<4, _>(&mut s, n, &UpwindFactor));
                let central = CentralFactor {
                    eps_imp: 0.3,
                    mu_vis: 0.0,
                };
                let mut s = gathered(&zone, axis, bases);
                let central = evaluations(|| implicit_factor_bundle::<4, _>(&mut s, n, &central));
                let (want_upwind, want_central) = match grid {
                    Grid::Cartesian => {
                        ([interior + 2, interior + 2, 0], [interior + 2, interior, 0])
                    }
                    _ => ([3 * interior, 3 * interior, 0], [2 * interior, interior, 0]),
                };
                assert_eq!(
                    upwind,
                    want_upwind.map(|c| 4 * c),
                    "upwind along {axis:?} on {grid:?}"
                );
                assert_eq!(
                    central,
                    want_central.map(|c| 4 * c),
                    "central along {axis:?} on {grid:?}"
                );
            }
            let mut scratch = RowScratch::new(d.j);
            let interior = d.j - 2;
            let rows: [(usize, RowFill); 2] = [
                (1, residual_rhs_row_w::<1>),
                (RESIDUAL_LANES, residual_rhs_row_w::<RESIDUAL_LANES>),
            ];
            for (width, fill) in rows {
                let row = evaluations(|| fill(&zone, 3, 4, 0.08, &mut scratch));
                let want = match grid {
                    Grid::Cartesian => 2 * interior + 2,
                    _ => 4 * interior,
                };
                assert_eq!(
                    row,
                    [0, 0, want],
                    "residual row at width {width} on {grid:?}"
                );
            }
        }
    }
}
