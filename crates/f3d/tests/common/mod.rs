//! Helpers the property suites share: the dense block product and the
//! one-point Euler flux the solver's lane kernels are checked against.

use f3d::blocktri::{Block, Vec5};
use f3d::state::Primitive;

/// `a * x` (matrix–vector product).
pub fn matvec(a: &Block, x: &Vec5) -> Vec5 {
    std::array::from_fn(|i| a[i].iter().zip(x).map(|(m, v)| m * v).sum())
}

/// The directed Euler flux `F_n(Q)` for direction `n`, one point at a
/// time.
pub fn directed_flux(q: &Vec5, n: [f64; 3]) -> Vec5 {
    let prim = Primitive::from_conserved(q);
    let theta = n[0] * prim.u + n[1] * prim.v + n[2] * prim.w;
    [
        q[0] * theta,
        q[1] * theta + n[0] * prim.p,
        q[2] * theta + n[1] * prim.p,
        q[3] * theta + n[2] * prim.p,
        (q[4] + prim.p) * theta,
    ]
}
