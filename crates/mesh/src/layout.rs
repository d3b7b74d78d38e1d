//! Storage layouts: the six permutations of (J, K, L).
//!
//! "In reordering the indices of several key arrays throughout the
//! program, changing almost every executable line of code in the entire
//! program became necessary" — paper, Section 6. Here the index order is
//! a runtime value instead, so the reordering experiments are a
//! parameter sweep rather than a rewrite.

use crate::dims::{Dims, Ijk};
use std::fmt;

/// One of the three grid directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Streamwise direction (stride-1 in the original Fortran code).
    J,
    /// Circumferential/second direction.
    K,
    /// Normal/third direction.
    L,
}

impl Axis {
    /// All three axes.
    pub const ALL: [Axis; 3] = [Axis::J, Axis::K, Axis::L];
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axis::J => write!(f, "J"),
            Axis::K => write!(f, "K"),
            Axis::L => write!(f, "L"),
        }
    }
}

/// A storage order: the axes listed from fastest-varying (stride-1) to
/// slowest-varying.
///
/// `Layout::jkl()` reproduces Fortran `A(JMAX,KMAX,LMAX)`: J is
/// stride-1, L is the slowest. The layout computes linear offsets for
/// [`crate::field::Field3`] and drives the address-trace generators in
/// `cachesim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Layout {
    /// Axes ordered fastest-first.
    order: [Axis; 3],
}

impl Layout {
    /// Build a layout from an axis order (fastest-varying first).
    ///
    /// # Panics
    /// Panics if the three axes are not distinct.
    #[must_use]
    pub fn new(fastest: Axis, middle: Axis, slowest: Axis) -> Self {
        assert!(
            fastest != middle && middle != slowest && fastest != slowest,
            "layout axes must be a permutation of J, K, L"
        );
        Self {
            order: [fastest, middle, slowest],
        }
    }

    /// Fortran `A(J,K,L)` order: J fastest. The layout of the original
    /// vectorizable F3D.
    #[must_use]
    pub fn jkl() -> Self {
        Self::new(Axis::J, Axis::K, Axis::L)
    }

    /// K-fastest order, used by the paper's RISC-tuned code for arrays
    /// traversed along pencils in K.
    #[must_use]
    pub fn kjl() -> Self {
        Self::new(Axis::K, Axis::J, Axis::L)
    }

    /// All six permutations.
    #[must_use]
    pub fn all() -> [Layout; 6] {
        [
            Layout::new(Axis::J, Axis::K, Axis::L),
            Layout::new(Axis::J, Axis::L, Axis::K),
            Layout::new(Axis::K, Axis::J, Axis::L),
            Layout::new(Axis::K, Axis::L, Axis::J),
            Layout::new(Axis::L, Axis::J, Axis::K),
            Layout::new(Axis::L, Axis::K, Axis::J),
        ]
    }

    /// Element strides for a zone of the given dimensions, as
    /// (stride_j, stride_k, stride_l) in elements.
    #[must_use]
    pub fn strides(&self, dims: Dims) -> (usize, usize, usize) {
        let mut stride = 1usize;
        let mut sj = 0;
        let mut sk = 0;
        let mut sl = 0;
        for axis in self.order {
            match axis {
                Axis::J => sj = stride,
                Axis::K => sk = stride,
                Axis::L => sl = stride,
            }
            stride *= dims.extent(axis);
        }
        (sj, sk, sl)
    }

    /// Linear element offset of point `p` in a zone of dimensions `dims`.
    #[must_use]
    #[inline]
    pub fn offset(&self, dims: Dims, p: Ijk) -> usize {
        debug_assert!(dims.contains(p), "point {p} out of bounds for {dims}");
        let (sj, sk, sl) = self.strides(dims);
        p.j * sj + p.k * sk + p.l * sl
    }

    /// The stride (in elements) experienced when stepping by one along
    /// `axis` under this layout.
    #[must_use]
    pub fn stride_along(&self, dims: Dims, axis: Axis) -> usize {
        let (sj, sk, sl) = self.strides(dims);
        match axis {
            Axis::J => sj,
            Axis::K => sk,
            Axis::L => sl,
        }
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}{}", self.order[0], self.order[1], self.order[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jkl_matches_fortran() {
        // A(J,K,L) with JMAX=4, KMAX=5, LMAX=6:
        // offset = (j-1) + (k-1)*4 + (l-1)*20 in 1-based Fortran.
        let d = Dims::new(4, 5, 6);
        let lay = Layout::jkl();
        assert_eq!(lay.strides(d), (1, 4, 20));
        assert_eq!(lay.offset(d, Ijk::new(0, 0, 0)), 0);
        assert_eq!(lay.offset(d, Ijk::new(1, 0, 0)), 1);
        assert_eq!(lay.offset(d, Ijk::new(0, 1, 0)), 4);
        assert_eq!(lay.offset(d, Ijk::new(0, 0, 1)), 20);
        assert_eq!(lay.offset(d, Ijk::new(3, 4, 5)), 119);
    }

    #[test]
    fn all_layouts_are_bijections() {
        let d = Dims::new(3, 4, 5);
        for lay in Layout::all() {
            let mut seen = vec![false; d.points()];
            for p in d.iter_jkl() {
                let off = lay.offset(d, p);
                assert!(off < d.points(), "{lay}: offset {off} out of range");
                assert!(!seen[off], "{lay}: offset {off} hit twice");
                seen[off] = true;
            }
            assert!(seen.iter().all(|&s| s), "{lay}: not surjective");
        }
    }

    #[test]
    fn fastest_axis_has_unit_stride() {
        let d = Dims::new(7, 8, 9);
        for lay in Layout::all() {
            assert_eq!(lay.stride_along(d, lay.order[0]), 1, "{lay}");
            // Slowest axis stride = product of the other two extents.
            let slow = lay.order[2];
            let expect: usize = Axis::ALL
                .iter()
                .filter(|&&a| a != slow)
                .map(|&a| d.extent(a))
                .product();
            assert_eq!(lay.stride_along(d, slow), expect, "{lay}");
        }
    }

    #[test]
    fn kjl_puts_k_first() {
        let d = Dims::new(4, 5, 6);
        let lay = Layout::kjl();
        assert_eq!(lay.strides(d), (5, 1, 20));
        assert_eq!(lay.order[0], Axis::K);
    }

    #[test]
    fn display_names() {
        assert_eq!(Layout::jkl().to_string(), "JKL");
        assert_eq!(Layout::kjl().to_string(), "KJL");
        assert_eq!(Layout::new(Axis::L, Axis::J, Axis::K).to_string(), "LJK");
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn repeated_axis_panics() {
        let _ = Layout::new(Axis::J, Axis::J, Axis::L);
    }
}
