//! Property-based tests for grids, layouts and fields.

use mesh::{Arrangement, Axis, Dims, Ijk, Layout, StateField, Zone, NCONS};
use proptest::prelude::*;

fn dims() -> impl Strategy<Value = Dims> {
    (1usize..12, 1usize..12, 1usize..12).prop_map(|(j, k, l)| Dims::new(j, k, l))
}

/// Sum of one component over all points (conservation bookkeeping).
fn component_sum(f: &StateField, n: usize) -> f64 {
    f.dims().iter_jkl().map(|p| f.get(p)[n]).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every layout is a bijection onto 0..points.
    #[test]
    fn layouts_bijective(d in dims()) {
        for lay in Layout::all() {
            let mut seen = vec![false; d.points()];
            for p in d.iter_jkl() {
                let off = lay.offset(d, p);
                prop_assert!(off < d.points());
                prop_assert!(!seen[off]);
                seen[off] = true;
            }
        }
    }

    /// Stepping one unit along an axis moves by exactly that axis's
    /// stride in the linear offset.
    #[test]
    fn strides_consistent(d in dims()) {
        for lay in Layout::all() {
            for p in d.iter_jkl() {
                for axis in mesh::Axis::ALL {
                    if p.along(axis) + 1 < d.extent(axis) {
                        let q = p.offset(axis, 1);
                        prop_assert_eq!(
                            lay.offset(d, q) - lay.offset(d, p),
                            lay.stride_along(d, axis)
                        );
                    }
                }
            }
        }
    }

    /// State rearrangement preserves every value under all combinations
    /// of arrangement and layout.
    #[test]
    fn rearrange_preserves(d in dims()) {
        let mut f = StateField::zeros(d, Layout::jkl(), Arrangement::ComponentOuter);
        for (i, p) in d.iter_jkl().enumerate() {
            f.set(p, [i as f64, -(i as f64), 0.5, 2.0 * i as f64, 1.0]);
        }
        for arr in [Arrangement::ComponentInner, Arrangement::ComponentOuter] {
            for lay in [Layout::jkl(), Layout::kjl(), Layout::new(Axis::L, Axis::J, Axis::K)] {
                let g = f.rearrange(arr, lay);
                prop_assert_eq!(f.max_abs_diff(&g), 0.0);
                for c in 0..NCONS {
                    prop_assert_eq!(component_sum(&f, c), component_sum(&g, c));
                }
            }
        }
    }

    /// Boundary + interior = total for every zone shape.
    #[test]
    fn boundary_partition(d in dims()) {
        let boundary = d.iter_jkl().filter(|&p| d.on_boundary(p)).count();
        prop_assert_eq!(boundary + d.interior_points(), d.points());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Affine mappings have exact discrete metrics: the contravariant
    /// gradients invert the forward Jacobian.
    #[test]
    fn affine_metrics_invert(
        a in 0.5f64..2.0, b in -0.3f64..0.3, c in -0.3f64..0.3,
        e in 0.5f64..2.0, f in -0.3f64..0.3, g in 0.5f64..2.0,
    ) {
        let d = Dims::new(5, 5, 5);
        let zone = Zone::from_fn(d, |p| {
            let (j, k, l) = (p.j as f64, p.k as f64, p.l as f64);
            (a * j + b * k, e * k + c * l, g * l + f * j)
        });
        let m = zone.metrics();
        let p = Ijk::new(2, 2, 2);
        // forward columns
        let xxi = [a, 0.0, f];
        let xeta = [b, e, 0.0];
        let xze = [0.0, c, g];
        let dot = |u: [f64; 3], v: [f64; 3]| u[0] * v[0] + u[1] * v[1] + u[2] * v[2];
        let gxi = m.grad(p, mesh::Axis::J);
        let geta = m.grad(p, mesh::Axis::K);
        let gze = m.grad(p, mesh::Axis::L);
        prop_assert!((dot(gxi, xxi) - 1.0).abs() < 1e-10);
        prop_assert!(dot(gxi, xeta).abs() < 1e-10);
        prop_assert!(dot(gxi, xze).abs() < 1e-10);
        prop_assert!((dot(geta, xeta) - 1.0).abs() < 1e-10);
        prop_assert!((dot(gze, xze) - 1.0).abs() < 1e-10);
        // Jacobian equals the analytic determinant.
        let det = a * (e * g - c * 0.0) - b * (0.0 * g - c * f) + 0.0;
        prop_assert!((m.jacobian(p) - det).abs() < 1e-9 * (1.0 + det.abs()));
    }
}
