//! Structured 3-D multi-zone curvilinear grids and field storage.
//!
//! This crate is the grid substrate for the F3D-style solver. It follows
//! the conventions of the original Fortran code the paper tuned:
//!
//! * Index names are **J, K, L** with `J` the streamwise direction. In
//!   the original `DIMENSION A(JMAX,KMAX,LMAX)` declaration, Fortran
//!   column-major order makes `J` the stride-1 (fastest) index.
//! * A key serial-tuning step in the paper was *reordering array
//!   indices* — so storage order is not baked in: every [`Field3`] and
//!   [`StateField`] carries an explicit [`Layout`] (one of the six index
//!   permutations), and loop nests can be written against any of them.
//!   This is what lets the `cachesim` crate reproduce the Example 4
//!   access-ordering study.
//! * Grids are **zonal**: multiple structured zones abutting in the J
//!   direction (the paper's test cases are three-zone ogive-cylinder
//!   grids: 15/87/89 × 75 × 70 and 29/173/175 × 450 × 350).
//!
//! Modules:
//! * [`dims`] — zone dimensions and index arithmetic,
//! * [`layout`] — the six storage orders and stride math,
//! * [`field`] — scalar and 5-component state fields,
//! * [`zone`] — a curvilinear zone: coordinates + metrics,
//! * [`multizone`] — J-chained zonal grids and the paper's test cases.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dims;
pub mod field;
pub mod layout;
pub mod multizone;
pub mod zone;

pub use dims::{Dims, Ijk};
pub use field::{Arrangement, Field3, StateField, NCONS};
pub use layout::{Axis, Layout};
pub use multizone::{MultiZoneGrid, ZoneSpec};
pub use zone::{Metrics, Zone};
