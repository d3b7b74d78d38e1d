//! The SLP (superword) width axis, shared by every solver.
//!
//! The paper parallelizes *outer* loops because the inner loops of the
//! sweeps were "vectorizable but short" — on a RISC SMP the vector
//! hardware is gone, but the instruction-level form of that inner
//! parallelism is not. This module names the lane widths a kernel can
//! run at (`W ∈ {1, 2, 4, 8}` lanes of array-chunked safe Rust that
//! rustc can lower to SIMD), carries the per-kernel selection
//! ([`WidthMap`]) from the tune database down into the steppers — the
//! same road the per-kernel [`llp::ScheduleMap`] travels — and holds
//! the one place a runtime width becomes a compile-time one
//! ([`for_lane_groups`]). It lives in the workload-agnostic `solver`
//! crate because the axis is: every physics speaks the same
//! vocabulary.
//!
//! **One body per kernel.** A width-aware kernel states its arithmetic
//! once, as a [`LaneBody`] whose `group::<W>` handles `W` consecutive
//! indices; [`for_lane_groups`] runs full groups at the selected `W`
//! and the tail through the *same* body at `W = 1`. Width 1 is that
//! body's `::<1>` instantiation, not a second implementation, and no
//! kernel carries a pasted remainder loop.
//!
//! **Exactness policy.** A lane body vectorizes across *independent
//! outputs* (points of a pencil) and never across a reduction, so each
//! output's floating-point operation sequence is the same at every
//! `W` and the results are bit-exact at every width — asserted per
//! workload by its property suite. No kernel needs a tolerance.
//!
//! **Where the axis selects nothing.** A kernel reads the width only
//! where lane groups of that width measure faster (F3D's residual:
//! isomorphic independent operations on gathered operands). Kernels
//! whose inner loop is data movement or an AoS stencil accept a width
//! — it is validated, echoed, labelled and cache-keyed like any other
//! — and execute the same code at every width; a solver lists the
//! kernels that do read it in [`crate::Solver::WIDE_KERNELS`]. So do
//! kernels whose lane count is not the request's to choose: F3D's
//! implicit factors drive this same [`for_lane_groups`] over *pencils*
//! at a constant fixed by measurement (`f3d::solver::PENCIL_BUNDLE`),
//! because one pencil's block-Thomas recurrence is a dependent chain
//! that an along-pencil width cannot shorten and adjacent pencils can
//! overlap.

use std::ops::Range;

/// The lane widths kernels are compiled for. Width 1 is the one-lane
/// instantiation of the same body the wider widths run.
pub const SUPPORTED_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Check a width against [`SUPPORTED_WIDTHS`].
///
/// # Errors
/// Returns a message naming the supported vocabulary.
pub fn validate_width(width: usize) -> Result<(), String> {
    if SUPPORTED_WIDTHS.contains(&width) {
        Ok(())
    } else {
        Err(format!(
            "vector_width must be one of {SUPPORTED_WIDTHS:?}, got {width}"
        ))
    }
}

/// One kernel's arithmetic, stated once for every lane width.
pub trait LaneBody {
    /// Process the `W` consecutive indices `first..first + W`. Each
    /// index must execute the same floating-point operation sequence
    /// at every `W` (the exactness policy above).
    fn group<const W: usize>(&mut self, first: usize);
}

/// Run `body` over `range` at lane width `width`: full groups of
/// `width` indices, then the tail one index at a time through the same
/// body. This is the suite's only runtime-to-compile-time width
/// dispatch; a width outside [`SUPPORTED_WIDTHS`] runs as width 1
/// (requests are validated long before, so that arm is a safe default,
/// not a reachable configuration).
pub fn for_lane_groups<B: LaneBody>(width: usize, range: Range<usize>, body: &mut B) {
    match width {
        2 => lane_groups::<2, B>(range, body),
        4 => lane_groups::<4, B>(range, body),
        8 => lane_groups::<8, B>(range, body),
        _ => lane_groups::<1, B>(range, body),
    }
}

#[inline]
fn lane_groups<const W: usize, B: LaneBody>(range: Range<usize>, body: &mut B) {
    let mut first = range.start;
    while first + W <= range.end {
        body.group::<W>(first);
        first += W;
    }
    while first < range.end {
        body.group::<1>(first);
        first += 1;
    }
}

/// Per-kernel width selection: kernel names (the span-tree vocabulary
/// — `rhs`, `update_e`, …) mapped to lane widths, with a default width
/// for unmapped kernels. The SLP analogue of [`llp::ScheduleMap`]:
/// the tune database resolves into one of these and the steppers read
/// each kernel's width from it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WidthMap {
    default_width: usize,
    entries: Vec<(String, usize)>,
}

impl WidthMap {
    /// An empty map: every kernel at the scalar width.
    #[must_use]
    pub fn new() -> Self {
        Self {
            default_width: 0, // 0 encodes "unset": get() clamps to 1
            entries: Vec::new(),
        }
    }

    /// A map sending every kernel to `width`.
    #[must_use]
    pub fn uniform(width: usize) -> Self {
        let mut m = Self::new();
        m.set_default(width);
        m
    }

    /// Set one kernel's width (last write wins).
    pub fn set(&mut self, kernel: &str, width: usize) {
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| k == kernel) {
            e.1 = width;
        } else {
            self.entries.push((kernel.to_string(), width));
        }
    }

    /// Set the width unmapped kernels fall back to.
    pub fn set_default(&mut self, width: usize) {
        self.default_width = width;
    }

    /// The width `kernel` should run at: its entry, else the default,
    /// else 1.
    #[must_use]
    pub fn get(&self, kernel: &str) -> usize {
        self.entries
            .iter()
            .find(|(k, _)| k == kernel)
            .map_or(self.default_width.max(1), |(_, w)| *w)
    }

    /// Number of per-kernel entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no per-kernel entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether every kernel resolves to the scalar width.
    #[must_use]
    pub fn is_scalar(&self) -> bool {
        self.default_width <= 1 && self.entries.iter().all(|(_, w)| *w <= 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_vocabulary_is_validated() {
        for w in SUPPORTED_WIDTHS {
            assert!(validate_width(w).is_ok());
        }
        for w in [0, 3, 5, 16, usize::MAX] {
            let err = validate_width(w).unwrap_err();
            assert!(err.contains("vector_width"), "{err}");
        }
    }

    /// Records every `(W, first)` the driver hands out.
    #[derive(Default)]
    struct Recorded(Vec<(usize, usize)>);

    impl LaneBody for Recorded {
        fn group<const W: usize>(&mut self, first: usize) {
            self.0.push((W, first));
        }
    }

    fn groups(width: usize, range: Range<usize>) -> Vec<(usize, usize)> {
        let mut body = Recorded::default();
        for_lane_groups(width, range, &mut body);
        body.0
    }

    #[test]
    fn dispatch_runs_full_groups_then_a_one_lane_tail() {
        // Every index exactly once and in order, at every supported
        // width and for ranges that leave every possible remainder.
        for w in SUPPORTED_WIDTHS {
            for len in 0..=2 * w + 1 {
                let got = groups(w, 3..3 + len);
                let full = len / w;
                let mut want: Vec<(usize, usize)> = (0..full).map(|g| (w, 3 + g * w)).collect();
                want.extend((full * w..len).map(|i| (1, 3 + i)));
                assert_eq!(got, want, "width {w} len {len}");
            }
        }
    }

    #[test]
    fn unsupported_widths_run_exactly_what_width_one_runs() {
        let scalar = groups(1, 1..20);
        for w in [0, 3, 5, 16, usize::MAX] {
            assert!(validate_width(w).is_err());
            assert_eq!(groups(w, 1..20), scalar, "width {w}");
        }
    }

    #[test]
    fn width_map_defaults_and_overrides() {
        let mut m = WidthMap::new();
        assert!(m.is_scalar());
        assert!(m.is_empty());
        assert_eq!(m.get("rhs"), 1);
        m.set("rhs", 4);
        m.set("rhs", 2); // last write wins
        m.set("j_factor", 8);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("rhs"), 2);
        assert_eq!(m.get("j_factor"), 8);
        assert_eq!(m.get("update"), 1, "unmapped kernels fall back");
        assert!(!m.is_scalar());

        let u = WidthMap::uniform(4);
        assert_eq!(u.get("anything"), 4);
        assert!(u.is_empty(), "uniform is a default, not entries");
        let mut u = u;
        u.set("rhs", 1);
        assert_eq!(u.get("rhs"), 1, "entries win over the default");
        assert_eq!(u.get("update"), 4);
        assert!(WidthMap::uniform(1).is_scalar());
    }
}
