//! An F3D-style implicit zonal CFD solver — the paper's representative
//! "vectorizable but hard to parallelize" production code, rebuilt from
//! scratch.
//!
//! F3D (Steger, Ying & Schiff) solves the compressible flow equations on
//! zonal structured grids with a *partially flux-split* implicit
//! approximate-factorization scheme: upwind flux-vector splitting in the
//! streamwise (J) direction and central differencing with artificial
//! dissipation in K and L. Each implicit factor carries a recurrence
//! along exactly one direction — which is why the vector original
//! processed whole planes (long vectorizable inner loops) and why the
//! paper's tuned version could instead process cache-resident pencils
//! and parallelize the outer loops.
//!
//! Two complete, numerically identical implementations are provided:
//!
//! * [`vector_impl`] — the legacy structure: plane-sized scratch
//!   arrays, component-outer (SoA) storage, long inner loops. Serial.
//! * [`risc_impl`] — the paper's tuned structure: pencil-sized scratch
//!   sized to fit in cache, component-inner (AoS) storage, outer loops
//!   parallelized with `llp` doacross regions, boundary conditions left
//!   serial.
//!
//! Identical numerics is the paper's hard constraint ("without
//! introducing any changes to the algorithm or the convergence
//! properties"), and integration tests assert the two implementations
//! produce the same fields.
//!
//! Both run the same per-point kernels ([`solver`]), tuned the way the
//! paper tunes serial code — most work per cache miss: an implicit
//! factor's bundle computes each point's flux Jacobian and spectral
//! radius once per sweep (a three-slot window), a residual row each
//! point's split fluxes once, and both run at the widest SIMD tier the
//! CPU reports ([`solver::isa`](::solver::isa), AVX2 or the target's
//! baseline), bit for bit the same at every tier.
//!
//! Supporting modules: [`state`] (gas relations), [`flux`]
//! (Steger–Warming splitting), [`blocktri`] (5×5 block-tridiagonal
//! solver), [`bc`] (boundary conditions), [`solver`] (the shared
//! time-step driver), [`costmodel`] + [`trace`] (instrumentation that
//! turns a grid and a machine memory model into an `smpsim`
//! [`WorkloadTrace`](smpsim::WorkloadTrace)).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bc;
pub mod blocktri;
pub mod costmodel;
pub mod flux;
pub mod forces;
pub mod multizone;
pub mod risc_impl;
pub mod service;
pub mod solver;
pub mod state;
pub mod trace;
pub mod validation;
pub mod vector_impl;

pub use solver::{SolverConfig, ZoneSolver};
pub use state::{FlowState, Primitive, GAMMA};
