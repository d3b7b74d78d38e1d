//! A 2-D FDTD Maxwell solver (TEz polarization on a Yee grid) — the
//! second physics workload of the multi-physics serving stack.
//!
//! The paper's claim is that its loop-level parallelization machinery
//! is workload-agnostic: the doacross/scheduling laws were derived on
//! a CFD code but apply to any vectorizable nest. This crate is the
//! proof by construction. The finite-difference time-domain method
//! marches Maxwell's curl equations on a staggered (Yee) grid — for
//! the TEz polarization the fields are `Ex`, `Ey`, `Hz`, leapfrogged
//! in time — and its two update sweeps are exactly the paper's shape:
//! outer loops over grid rows carry the doacross parallelism, inner
//! loops over the contiguous x direction are vectorizable but short.
//!
//! The update kernels (`update_e`, `update_h`) run on the same
//! [`llp::Workers`] pool as F3D, take per-kernel schedule overrides
//! through [`llp::ScheduleMap`], and emit the same span/flight-recorder
//! vocabulary — so the autotuner and Prometheus telemetry apply
//! unchanged. Each sweep's inner loop is one plain loop (lane groups
//! lose on this layout; see [`kernels`]), so a request's `vector_width`
//! selects nothing.
//!
//! **Exactness policy**, inherited from the suite: results are
//! bit-exact at every worker count and schedule — pinned by the
//! `simd_props` property suite — because a row's update reads only the
//! other field's previous half-step. The crate has exactly one reduction,
//! the per-step field energy, and its order is fixed *by
//! construction*, not by being serial: [`TezGrid::energy`] is defined as each row's plain left fold
//! of `ex² + ey² + hz²`, the `ny` row partials then folded `0..ny` and
//! halved. A row partial depends on its row alone, so the served step
//! computes it inside the `update_e` region, on whichever worker just
//! wrote the row ([`kernels::update_e_energy`]), and the history is the
//! same number at every worker count and schedule — there is no
//! serial pass over the fields between steps. The physics is pinned
//! separately by an analytic
//! plane-wave regression: the discrete scheme's exact eigenmode
//! propagates to machine precision, and its numerical dispersion
//! stays within the textbook bound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod kernels;
pub mod service;

pub use grid::{Boundary, FieldChecksum, TezGrid};
pub use service::{FdtdCase, FdtdRun, FdtdSolver, MAX_SIZE, MAX_STEPS, MIN_SIZE};
