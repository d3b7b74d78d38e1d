//! Scalar and state-vector fields over one zone.
//!
//! A [`Field3`] owns contiguous storage for one scalar per grid point,
//! under an explicit [`Layout`] — or, for a field that is one constant
//! everywhere, the constant alone (a *broadcast* field: every stride
//! zero, one value stored; only this crate builds one, for
//! [`crate::Metrics::cartesian`]). A [`StateField`] stores the [`NCONS`]
//! conserved variables per point, in either component-innermost (AoS)
//! or component-outermost (SoA) arrangement — the two choices the
//! paper's index-reordering tuning step moves between.

use crate::dims::{Dims, Ijk};
use crate::layout::Layout;

/// Number of conserved variables: ρ, ρu, ρv, ρw, e.
pub const NCONS: usize = 5;

/// A scalar field on one zone. Equality compares storage, so a
/// broadcast field equals only a broadcast field.
#[derive(Debug, Clone, PartialEq)]
pub struct Field3 {
    dims: Dims,
    layout: Layout,
    strides: (usize, usize, usize),
    data: Vec<f64>,
}

impl Field3 {
    /// Zero-initialized field with the given layout.
    #[must_use]
    pub fn zeros(dims: Dims, layout: Layout) -> Self {
        Self {
            dims,
            layout,
            strides: layout.strides(dims),
            data: vec![0.0; dims.points()],
        }
    }

    /// A field that reads `value` at every point, storing it once:
    /// every stride is zero, so every point's offset is 0. Reads are
    /// the ordinary ones; nothing may write it (`set` and
    /// `as_mut_slice` debug-assert so), which is why only this crate
    /// builds one.
    #[must_use]
    pub(crate) fn broadcast(dims: Dims, layout: Layout, value: f64) -> Self {
        Self {
            dims,
            layout,
            strides: (0, 0, 0),
            data: vec![value],
        }
    }

    /// Whether this field stores one value for every point. (A stored
    /// field's innermost stride is 1, so all-zero strides mark it.)
    fn is_broadcast(&self) -> bool {
        self.strides == (0, 0, 0)
    }

    /// Field initialized from a function of the point index.
    #[must_use]
    pub fn from_fn(dims: Dims, layout: Layout, mut f: impl FnMut(Ijk) -> f64) -> Self {
        let mut out = Self::zeros(dims, layout);
        for p in dims.iter_jkl() {
            let off = out.offset(p);
            out.data[off] = f(p);
        }
        out
    }

    /// Zone dimensions.
    #[must_use]
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Storage layout.
    #[must_use]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Linear offset of a point (bounds-checked in debug builds).
    #[must_use]
    #[inline(always)]
    pub fn offset(&self, p: Ijk) -> usize {
        debug_assert!(self.dims.contains(p));
        let (sj, sk, sl) = self.strides;
        p.j * sj + p.k * sk + p.l * sl
    }

    /// Read one point.
    #[must_use]
    #[inline(always)]
    pub fn get(&self, p: Ijk) -> f64 {
        self.data[self.offset(p)]
    }

    /// Write one point.
    #[inline]
    pub fn set(&mut self, p: Ijk, v: f64) {
        debug_assert!(!self.is_broadcast(), "a broadcast field is read-only");
        let off = self.offset(p);
        self.data[off] = v;
    }

    /// Raw storage, in layout order (a broadcast field's is its one
    /// value).
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage, in layout order.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        debug_assert!(!self.is_broadcast(), "a broadcast field is read-only");
        &mut self.data
    }
}

/// How the component index of a [`StateField`] is arranged relative to
/// the spatial indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arrangement {
    /// Component innermost: `q[point][n]` — array-of-structures. All
    /// five conserved variables of a point share cache lines; the
    /// paper's RISC-tuned choice for maximizing work per cache miss.
    ComponentInner,
    /// Component outermost: `q[n][point]` — structure-of-arrays, the
    /// classic vector-machine choice giving long unit-stride streams
    /// per variable.
    ComponentOuter,
}

/// The conserved-variable field of one zone: [`NCONS`] values per point.
#[derive(Debug, Clone, PartialEq)]
pub struct StateField {
    dims: Dims,
    layout: Layout,
    strides: (usize, usize, usize),
    arrangement: Arrangement,
    data: Vec<f64>,
}

impl StateField {
    /// Zero-initialized state field.
    #[must_use]
    pub fn zeros(dims: Dims, layout: Layout, arrangement: Arrangement) -> Self {
        Self {
            dims,
            layout,
            strides: layout.strides(dims),
            arrangement,
            data: vec![0.0; dims.points() * NCONS],
        }
    }

    /// State field with every point set to `state`.
    #[must_use]
    pub fn uniform(
        dims: Dims,
        layout: Layout,
        arrangement: Arrangement,
        state: [f64; NCONS],
    ) -> Self {
        let mut f = Self::zeros(dims, layout, arrangement);
        for p in dims.iter_jkl() {
            f.set(p, state);
        }
        f
    }

    /// Zone dimensions.
    #[must_use]
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Spatial storage layout.
    #[must_use]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Component arrangement.
    #[must_use]
    pub fn arrangement(&self) -> Arrangement {
        self.arrangement
    }

    /// Linear offset of component `n` at point `p`.
    #[must_use]
    #[inline(always)]
    pub fn offset(&self, p: Ijk, n: usize) -> usize {
        debug_assert!(self.dims.contains(p));
        debug_assert!(n < NCONS);
        let (sj, sk, sl) = self.strides;
        let spatial = p.j * sj + p.k * sk + p.l * sl;
        match self.arrangement {
            Arrangement::ComponentInner => spatial * NCONS + n,
            Arrangement::ComponentOuter => n * self.dims.points() + spatial,
        }
    }

    /// Read the full state vector at one point.
    #[must_use]
    #[inline(always)]
    pub fn get(&self, p: Ijk) -> [f64; NCONS] {
        let mut out = [0.0; NCONS];
        match self.arrangement {
            Arrangement::ComponentInner => {
                let base = self.offset(p, 0);
                out.copy_from_slice(&self.data[base..base + NCONS]);
            }
            Arrangement::ComponentOuter => {
                for (n, o) in out.iter_mut().enumerate() {
                    *o = self.data[self.offset(p, n)];
                }
            }
        }
        out
    }

    /// Write the full state vector at one point.
    #[inline]
    pub fn set(&mut self, p: Ijk, state: [f64; NCONS]) {
        match self.arrangement {
            Arrangement::ComponentInner => {
                let base = self.offset(p, 0);
                self.data[base..base + NCONS].copy_from_slice(&state);
            }
            Arrangement::ComponentOuter => {
                for (n, &v) in state.iter().enumerate() {
                    let off = self.offset(p, n);
                    self.data[off] = v;
                }
            }
        }
    }

    /// Raw storage.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Convert to the other arrangement (index-reordering transpose).
    #[must_use]
    pub fn rearrange(&self, arrangement: Arrangement, layout: Layout) -> Self {
        let mut out = Self::zeros(self.dims, layout, arrangement);
        for p in self.dims.iter_jkl() {
            out.set(p, self.get(p));
        }
        out
    }

    /// Maximum absolute pointwise difference against another field of
    /// the same dims (arrangement/layout may differ).
    #[must_use]
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.dims, other.dims, "dims must match");
        let mut m = 0.0f64;
        for p in self.dims.iter_jkl() {
            let a = self.get(p);
            let b = other.get(p);
            for n in 0..NCONS {
                m = m.max((a[n] - b[n]).abs());
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> Dims {
        Dims::new(3, 4, 5)
    }

    #[test]
    fn field3_get_set_roundtrip() {
        let mut f = Field3::zeros(dims(), Layout::jkl());
        for (i, p) in dims().iter_jkl().enumerate() {
            f.set(p, i as f64);
        }
        for (i, p) in dims().iter_jkl().enumerate() {
            assert_eq!(f.get(p), i as f64);
        }
    }

    #[test]
    fn field3_from_fn_reads_back() {
        let f = Field3::from_fn(dims(), Layout::kjl(), |p| (p.j + p.k + p.l) as f64);
        for p in dims().iter_jkl() {
            assert_eq!(f.get(p), (p.j + p.k + p.l) as f64, "{p}");
        }
    }

    #[test]
    fn broadcast_reads_like_a_stored_field() {
        let value = 0.1;
        for d in [dims(), Dims::new(1, 7, 3), Dims::new(1, 1, 1)] {
            let b = Field3::broadcast(d, Layout::kjl(), value);
            let f = Field3::from_fn(d, Layout::kjl(), |_| value);
            for p in d.iter_jkl() {
                assert_eq!(b.get(p).to_bits(), f.get(p).to_bits(), "{p}");
            }
            assert_eq!(b.as_slice(), &[value]);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "read-only")]
    fn broadcast_field_refuses_writes() {
        let mut b = Field3::broadcast(dims(), Layout::jkl(), 1.0);
        b.set(Ijk::new(0, 0, 0), 2.0);
    }

    #[test]
    fn state_roundtrip_both_arrangements() {
        for arr in [Arrangement::ComponentInner, Arrangement::ComponentOuter] {
            let mut f = StateField::zeros(dims(), Layout::jkl(), arr);
            for (i, p) in dims().iter_jkl().enumerate() {
                let s = [i as f64, 1.0, 2.0, 3.0, 4.0 + i as f64];
                f.set(p, s);
            }
            for (i, p) in dims().iter_jkl().enumerate() {
                let s = f.get(p);
                assert_eq!(s[0], i as f64);
                assert_eq!(s[4], 4.0 + i as f64);
            }
        }
    }

    #[test]
    fn aos_components_adjacent_soa_planes_apart() {
        let p0 = Ijk::new(0, 0, 0);
        let aos = StateField::zeros(dims(), Layout::jkl(), Arrangement::ComponentInner);
        assert_eq!(aos.offset(p0, 1) - aos.offset(p0, 0), 1);
        let soa = StateField::zeros(dims(), Layout::jkl(), Arrangement::ComponentOuter);
        assert_eq!(soa.offset(p0, 1) - soa.offset(p0, 0), dims().points());
    }

    #[test]
    fn rearrange_preserves_values() {
        let mut f = StateField::zeros(dims(), Layout::jkl(), Arrangement::ComponentOuter);
        for (i, p) in dims().iter_jkl().enumerate() {
            f.set(p, [i as f64, -1.0, 0.5, 2.0, 3.0]);
        }
        let g = f.rearrange(Arrangement::ComponentInner, Layout::kjl());
        assert_eq!(f.max_abs_diff(&g), 0.0);
    }

    #[test]
    fn max_abs_diff_detects_difference() {
        let a = StateField::uniform(
            dims(),
            Layout::jkl(),
            Arrangement::ComponentInner,
            [1.0; NCONS],
        );
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        let mut q = b.get(Ijk::new(1, 1, 1));
        q[3] = 1.5;
        b.set(Ijk::new(1, 1, 1), q);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }
}
