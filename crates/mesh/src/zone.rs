//! A curvilinear structured zone: physical coordinates plus metrics.
//!
//! F3D operates in generalized coordinates `(ξ, η, ζ)` ↔ `(J, K, L)`.
//! Each zone stores the physical coordinates of its grid points and can
//! compute the metric terms `ξ_x … ζ_z` and the Jacobian via
//! second-order central differences (one-sided at the faces), exactly
//! the discretization the class of codes in the paper uses.

use crate::dims::{Dims, Ijk};
use crate::field::Field3;
use crate::layout::{Axis, Layout};
use std::f64::consts::PI;

/// One structured curvilinear zone.
#[derive(Debug, Clone)]
pub struct Zone {
    dims: Dims,
    x: Field3,
    y: Field3,
    z: Field3,
}

impl Zone {
    /// Build a zone from explicit coordinate functions of the index.
    #[must_use]
    pub fn from_fn(dims: Dims, mut xyz: impl FnMut(Ijk) -> (f64, f64, f64)) -> Self {
        let lay = Layout::jkl();
        let mut x = Field3::zeros(dims, lay);
        let mut y = Field3::zeros(dims, lay);
        let mut z = Field3::zeros(dims, lay);
        for p in dims.iter_jkl() {
            let (px, py, pz) = xyz(p);
            x.set(p, px);
            y.set(p, py);
            z.set(p, pz);
        }
        Self { dims, x, y, z }
    }

    /// Uniform Cartesian zone with spacings `(dx, dy, dz)` along
    /// (J, K, L).
    #[must_use]
    pub fn cartesian(dims: Dims, spacing: (f64, f64, f64)) -> Self {
        Self::from_fn(dims, |p| {
            (
                p.j as f64 * spacing.0,
                p.k as f64 * spacing.1,
                p.l as f64 * spacing.2,
            )
        })
    }

    /// Cartesian zone with tanh clustering toward the low-L face (the
    /// classic viscous wall clustering). `ratio` > 1 is the max/min
    /// spacing ratio.
    #[must_use]
    pub fn wall_clustered(dims: Dims, extent: (f64, f64, f64), ratio: f64) -> Self {
        assert!(ratio >= 1.0, "stretch ratio must be >= 1");
        let beta = ratio.ln().max(1e-12);
        let nl = (dims.l - 1).max(1) as f64;
        Self::from_fn(dims, |p| {
            let s = p.l as f64 / nl;
            // Exponential clustering: zeta in [0,1] mapped so spacing
            // grows by `ratio` from wall to far field.
            let zl = ((beta * s).exp() - 1.0) / (beta.exp() - 1.0);
            (
                p.j as f64 / (dims.j - 1).max(1) as f64 * extent.0,
                p.k as f64 / (dims.k - 1).max(1) as f64 * extent.1,
                zl * extent.2,
            )
        })
    }

    /// A cylinder-segment zone resembling the paper's projectile grids:
    /// J runs along the body axis, K around the circumference (half
    /// plane, 0..π), L radially from the body surface to the far field.
    #[must_use]
    pub fn cylinder_segment(dims: Dims, length: f64, body_radius: f64, outer_radius: f64) -> Self {
        assert!(outer_radius > body_radius && body_radius > 0.0);
        let nj = (dims.j - 1).max(1) as f64;
        let nk = (dims.k - 1).max(1) as f64;
        let nl = (dims.l - 1).max(1) as f64;
        Self::from_fn(dims, |p| {
            let xi = p.j as f64 / nj;
            let theta = p.k as f64 / nk * PI;
            let s = p.l as f64 / nl;
            // geometric radial clustering near the body
            let r = body_radius * (outer_radius / body_radius).powf(s);
            (xi * length, r * theta.cos(), r * theta.sin())
        })
    }

    /// Zone dimensions.
    #[must_use]
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Physical coordinates of one grid point.
    #[must_use]
    pub fn xyz(&self, p: Ijk) -> (f64, f64, f64) {
        (self.x.get(p), self.y.get(p), self.z.get(p))
    }

    /// Central-difference derivative of a coordinate field along `axis`
    /// at point `p` (one-sided 2-point at the faces).
    fn ddxi(field: &Field3, dims: Dims, p: Ijk, axis: Axis) -> f64 {
        let n = dims.extent(axis);
        let i = p.along(axis);
        if n == 1 {
            return 0.0;
        }
        if i == 0 {
            field.get(p.offset(axis, 1)) - field.get(p)
        } else if i == n - 1 {
            field.get(p) - field.get(p.offset(axis, -1))
        } else {
            0.5 * (field.get(p.offset(axis, 1)) - field.get(p.offset(axis, -1)))
        }
    }

    /// Compute the metric terms and Jacobian for this zone.
    ///
    /// # Panics
    /// Panics if the mesh is degenerate (non-positive cell Jacobian) at
    /// any point.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let d = self.dims;
        let lay = Layout::jkl();
        let mut m = Metrics {
            dims: d,
            jac: Field3::zeros(d, lay),
            coef: std::array::from_fn(|_| Field3::zeros(d, lay)),
        };
        for p in d.iter_jkl() {
            // Covariant basis: derivatives of (x,y,z) wrt (xi,eta,zeta).
            let x_xi = Self::ddxi(&self.x, d, p, Axis::J);
            let y_xi = Self::ddxi(&self.y, d, p, Axis::J);
            let z_xi = Self::ddxi(&self.z, d, p, Axis::J);
            let x_eta = Self::ddxi(&self.x, d, p, Axis::K);
            let y_eta = Self::ddxi(&self.y, d, p, Axis::K);
            let z_eta = Self::ddxi(&self.z, d, p, Axis::K);
            let x_ze = Self::ddxi(&self.x, d, p, Axis::L);
            let y_ze = Self::ddxi(&self.y, d, p, Axis::L);
            let z_ze = Self::ddxi(&self.z, d, p, Axis::L);

            let det = x_xi * (y_eta * z_ze - z_eta * y_ze) - y_xi * (x_eta * z_ze - z_eta * x_ze)
                + z_xi * (x_eta * y_ze - y_eta * x_ze);
            assert!(
                det.abs() > 1e-14,
                "degenerate mesh cell at {p}: jacobian {det}"
            );
            let inv = 1.0 / det;
            // Contravariant metrics (rows of the inverse Jacobian matrix).
            let xi_x = (y_eta * z_ze - z_eta * y_ze) * inv;
            let xi_y = -(x_eta * z_ze - z_eta * x_ze) * inv;
            let xi_z = (x_eta * y_ze - y_eta * x_ze) * inv;
            let eta_x = -(y_xi * z_ze - z_xi * y_ze) * inv;
            let eta_y = (x_xi * z_ze - z_xi * x_ze) * inv;
            let eta_z = -(x_xi * y_ze - y_xi * x_ze) * inv;
            let zeta_x = (y_xi * z_eta - z_xi * y_eta) * inv;
            let zeta_y = -(x_xi * z_eta - z_xi * x_eta) * inv;
            let zeta_z = (x_xi * y_eta - y_xi * x_eta) * inv;

            m.jac.set(p, det);
            let coefs = [
                xi_x, xi_y, xi_z, eta_x, eta_y, eta_z, zeta_x, zeta_y, zeta_z,
            ];
            for (f, v) in m.coef.iter_mut().zip(coefs) {
                f.set(p, v);
            }
        }
        m
    }
}

/// Metric terms of a zone: the Jacobian `det(∂(x,y,z)/∂(ξ,η,ζ))` and the
/// nine contravariant coefficients `ξ_x, ξ_y, ξ_z, η_x, …, ζ_z`.
#[derive(Debug, Clone)]
pub struct Metrics {
    dims: Dims,
    jac: Field3,
    /// Order: xi_x, xi_y, xi_z, eta_x, eta_y, eta_z, zeta_x, zeta_y, zeta_z.
    coef: [Field3; 9],
}

/// Index of a metric coefficient: `grad(direction)[component]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricCoef {
    /// Which computational direction's gradient (J → ξ, K → η, L → ζ).
    pub direction: Axis,
    /// Cartesian component 0..3 (x, y, z).
    pub component: usize,
}

impl Metrics {
    /// Zone dimensions.
    #[must_use]
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Cell Jacobian (volume scale) at a point.
    #[must_use]
    #[inline]
    pub fn jacobian(&self, p: Ijk) -> f64 {
        self.jac.get(p)
    }

    /// One metric coefficient at a point.
    ///
    /// # Panics
    /// Panics if `component >= 3`.
    #[must_use]
    #[inline]
    pub fn coef(&self, p: Ijk, c: MetricCoef) -> f64 {
        assert!(c.component < 3, "component must be 0..3");
        let base = match c.direction {
            Axis::J => 0,
            Axis::K => 3,
            Axis::L => 6,
        };
        self.coef[base + c.component].get(p)
    }

    /// The gradient of the computational coordinate for `direction` at
    /// `p`, as a Cartesian 3-vector: e.g. `(ξ_x, ξ_y, ξ_z)` for `Axis::J`.
    #[must_use]
    #[inline]
    pub fn grad(&self, p: Ijk, direction: Axis) -> [f64; 3] {
        let base = match direction {
            Axis::J => 0,
            Axis::K => 3,
            Axis::L => 6,
        };
        [
            self.coef[base].get(p),
            self.coef[base + 1].get(p),
            self.coef[base + 2].get(p),
        ]
    }

    /// Metrics for a uniform Cartesian zone with the given spacings —
    /// diagonal mapping, exact values, no finite differencing. Every
    /// term is one constant over the zone, so all ten are broadcast
    /// fields: ten numbers, however large the zone, read through the
    /// same [`Metrics::grad`] as a curvilinear zone's per-point fields.
    #[must_use]
    pub fn cartesian(dims: Dims, spacing: (f64, f64, f64)) -> Self {
        let lay = Layout::jkl();
        let (dx, dy, dz) = spacing;
        assert!(dx > 0.0 && dy > 0.0 && dz > 0.0);
        let mut coef: [Field3; 9] = std::array::from_fn(|_| Field3::broadcast(dims, lay, 0.0));
        coef[0] = Field3::broadcast(dims, lay, 1.0 / dx); // xi_x
        coef[4] = Field3::broadcast(dims, lay, 1.0 / dy); // eta_y
        coef[8] = Field3::broadcast(dims, lay, 1.0 / dz); // zeta_z
        Self {
            dims,
            jac: Field3::broadcast(dims, lay, dx * dy * dz),
            coef,
        }
    }

    /// Total mesh volume: sum of Jacobians.
    #[must_use]
    pub fn total_volume(&self) -> f64 {
        self.jac.sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cartesian_metrics_are_exact() {
        let d = Dims::new(5, 6, 7);
        let zone = Zone::cartesian(d, (0.5, 0.25, 2.0));
        let m = zone.metrics();
        for p in d.iter_jkl() {
            assert!((m.jacobian(p) - 0.25).abs() < 1e-12, "at {p}");
            let gx = m.grad(p, Axis::J);
            assert!((gx[0] - 2.0).abs() < 1e-12);
            assert!(gx[1].abs() < 1e-12 && gx[2].abs() < 1e-12);
            let ge = m.grad(p, Axis::K);
            assert!((ge[1] - 4.0).abs() < 1e-12);
            let gz = m.grad(p, Axis::L);
            assert!((gz[2] - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn analytic_cartesian_matches_discrete() {
        let d = Dims::new(4, 4, 4);
        let spacing = (0.1, 0.2, 0.3);
        let discrete = Zone::cartesian(d, spacing).metrics();
        let exact = Metrics::cartesian(d, spacing);
        for p in d.iter_jkl() {
            assert!((discrete.jacobian(p) - exact.jacobian(p)).abs() < 1e-12);
            for ax in Axis::ALL {
                let a = discrete.grad(p, ax);
                let b = exact.grad(p, ax);
                for c in 0..3 {
                    assert!((a[c] - b[c]).abs() < 1e-12, "{p} {ax} {c}");
                }
            }
        }
    }

    /// The same metrics as [`Metrics::cartesian`], one stored value per
    /// point.
    fn stored_cartesian(dims: Dims, (dx, dy, dz): (f64, f64, f64)) -> Metrics {
        let stored = |v: f64| Field3::from_fn(dims, Layout::jkl(), |_| v);
        let mut coef: [Field3; 9] = std::array::from_fn(|_| stored(0.0));
        coef[0] = stored(1.0 / dx);
        coef[4] = stored(1.0 / dy);
        coef[8] = stored(1.0 / dz);
        Metrics {
            dims,
            jac: stored(dx * dy * dz),
            coef,
        }
    }

    #[test]
    fn cartesian_metrics_read_bit_for_bit_like_stored_ones() {
        for (d, spacing) in [
            (Dims::new(5, 6, 7), (0.5, 0.25, 2.0)),
            (Dims::new(1, 9, 4), (0.3, 0.3, 0.3)),
            (Dims::new(33, 40, 32), (0.1, 0.7, 0.05)),
        ] {
            let broadcast = Metrics::cartesian(d, spacing);
            let stored = stored_cartesian(d, spacing);
            let bits = |v: [f64; 3]| v.map(f64::to_bits);
            for p in d.iter_jkl() {
                assert_eq!(
                    broadcast.jacobian(p).to_bits(),
                    stored.jacobian(p).to_bits(),
                    "{d} {p}"
                );
                for direction in Axis::ALL {
                    assert_eq!(
                        bits(broadcast.grad(p, direction)),
                        bits(stored.grad(p, direction)),
                        "{d} {p} {direction}"
                    );
                    for component in 0..3 {
                        let c = MetricCoef {
                            direction,
                            component,
                        };
                        assert_eq!(broadcast.coef(p, c).to_bits(), stored.coef(p, c).to_bits());
                    }
                }
            }
            assert_eq!(
                broadcast.total_volume().to_bits(),
                stored.total_volume().to_bits(),
                "{d}"
            );
            // Ten numbers, not ten zone-sized fields.
            assert!(broadcast.coef.iter().all(|f| f.as_slice().len() == 1));
            assert_eq!(broadcast.jac.as_slice().len(), 1);
        }
    }

    #[test]
    fn wall_clustering_monotone_and_stretching() {
        let d = Dims::new(3, 3, 21);
        let zone = Zone::wall_clustered(d, (1.0, 1.0, 1.0), 20.0);
        let mut prev = -1.0;
        let mut first_dz = None;
        let mut last_dz = 0.0;
        for l in 0..d.l {
            let (_, _, z) = zone.xyz(Ijk::new(0, 0, l));
            assert!(z > prev, "z must increase");
            if l > 0 {
                let dz = z - prev.max(0.0);
                if l == 1 {
                    first_dz = Some(dz);
                }
                last_dz = dz;
            }
            prev = z;
        }
        // spacing grows toward the far field by roughly the ratio
        let ratio = last_dz / first_dz.unwrap();
        assert!(ratio > 5.0, "got stretch ratio {ratio}");
        let (_, _, ztop) = zone.xyz(Ijk::new(0, 0, d.l - 1));
        assert!((ztop - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cylinder_zone_radii() {
        let d = Dims::new(5, 9, 11);
        let zone = Zone::cylinder_segment(d, 10.0, 1.0, 30.0);
        // L=0 is the body surface: radius 1.
        for k in 0..d.k {
            let (_, y, z) = zone.xyz(Ijk::new(2, k, 0));
            let r = (y * y + z * z).sqrt();
            assert!((r - 1.0).abs() < 1e-12);
        }
        // L=max is the outer boundary: radius 30.
        let (_, y, z) = zone.xyz(Ijk::new(2, 3, d.l - 1));
        let r = (y * y + z * z).sqrt();
        assert!((r - 30.0).abs() < 1e-9);
    }

    #[test]
    fn cylinder_metrics_positive_jacobian() {
        let d = Dims::new(6, 9, 8);
        let zone = Zone::cylinder_segment(d, 5.0, 1.0, 10.0);
        let m = zone.metrics();
        for p in d.iter_jkl() {
            assert!(m.jacobian(p) != 0.0, "zero jacobian at {p}");
        }
        assert!(m.total_volume().abs() > 0.0);
    }

    #[test]
    fn metric_identity_on_smooth_grid() {
        // grad(xi) dot x_xi == 1 by construction of the inverse: check
        // via reconstructing identity J^-1 * J = I on a skewed grid.
        let d = Dims::new(6, 6, 6);
        let zone = Zone::from_fn(d, |p| {
            let (j, k, l) = (p.j as f64, p.k as f64, p.l as f64);
            (j + 0.1 * k, k + 0.05 * l, l + 0.2 * j)
        });
        let m = zone.metrics();
        // For this affine mapping, central differences are exact, so the
        // contravariant metrics must invert the constant Jacobian matrix.
        let p = Ijk::new(3, 3, 3);
        let gxi = m.grad(p, Axis::J);
        let geta = m.grad(p, Axis::K);
        let gzeta = m.grad(p, Axis::L);
        // Columns of the forward map: x_xi = (1, 0, 0.2) etc.
        let xxi = [1.0, 0.0, 0.2];
        let xeta = [0.1, 1.0, 0.0];
        let xze = [0.0, 0.05, 1.0];
        let dot = |a: [f64; 3], b: [f64; 3]| a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
        assert!((dot(gxi, xxi) - 1.0).abs() < 1e-12);
        assert!(dot(gxi, xeta).abs() < 1e-12);
        assert!(dot(gxi, xze).abs() < 1e-12);
        assert!((dot(geta, xeta) - 1.0).abs() < 1e-12);
        assert!((dot(gzeta, xze) - 1.0).abs() < 1e-12);
        assert!(dot(gzeta, xxi).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "degenerate mesh")]
    fn degenerate_mesh_panics() {
        // All points collapse onto a line: zero Jacobian.
        let d = Dims::new(3, 3, 3);
        let zone = Zone::from_fn(d, |p| (p.j as f64, p.j as f64, p.j as f64));
        let _ = zone.metrics();
    }
}
