//! Lane widths: the request's vocabulary and the kernels' constants.
//!
//! The paper parallelizes *outer* loops because the inner loops of the
//! sweeps were "vectorizable but short" — on a RISC SMP the vector
//! hardware is gone, but the instruction-level form of that inner
//! parallelism is not. Two facts about it hold across the suite:
//!
//! **Lane counts are kernel constants.** A kernel that gains from lanes
//! states its arithmetic once, as a [`LaneBody`] whose `group::<W>`
//! handles `W` consecutive indices, and runs it through
//! [`for_lane_groups::<W>`](for_lane_groups) at a width fixed by
//! measurement and named as a type parameter: F3D's residual
//! at `f3d::solver::RESIDUAL_LANES` points of a J-row per group, its
//! implicit factors at a bundle of `f3d::solver::PENCIL_BUNDLE` adjacent
//! pencils (one pencil's block-Thomas recurrence is a dependent chain
//! that only adjacent pencils can overlap). [`for_lane_groups`] runs
//! full groups at that `W` and the tail through the *same* body at
//! `W = 1`, so width 1 is the body's `::<1>` instantiation, not a second
//! implementation, and a body is compiled at its `W` and at 1 only: no
//! kernel takes a width at run time. Kernels whose inner loop is data
//! movement or a short stencil over contiguous runs (F3D's `update`,
//! both FDTD sweeps, whose `E` rows hold their `Ex`, then their `Ey`)
//! run plain loops, which rustc vectorizes itself.
//!
//! **A lane group's width is not the register's.** Lanes say which
//! outputs a body computes together; how many of them one instruction
//! holds is the SIMD tier the body runs at ([`crate::isa`]): F3D's
//! residual rows and factor bundles and FDTD's row bodies run at the
//! widest tier the CPU reports (AVX2, whose register holds F3D's four
//! lanes exactly, or the target's baseline), F3D's `update` at the
//! target's width. [`for_lane_groups`] is always inlined, so a body it
//! drives keeps its tier.
//!
//! **The request's `vector_width` selects nothing.** It is validated
//! against [`SUPPORTED_WIDTHS`] ([`validate_width`]), echoed in the
//! `case`, spelled in the canonical key and appended to the label, and
//! no run, tuner, tune database or metric reads it past that.
//!
//! **Exactness policy.** A lane body vectorizes across *independent
//! outputs* (points of a pencil, or pencils) and never across a
//! reduction, so each output's floating-point operation sequence is the
//! same at every `W` and the results are bit-exact at every width —
//! asserted per workload by its property suite. No kernel needs a
//! tolerance.

use std::ops::Range;

/// The `vector_width` values a request may spell. A request's width
/// is only checked against this list ([`validate_width`]); no kernel
/// reads it.
pub const SUPPORTED_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Check a request's `vector_width` against [`SUPPORTED_WIDTHS`].
///
/// # Errors
/// Returns a message naming the supported vocabulary.
pub fn validate_width(vector_width: usize) -> Result<(), String> {
    if SUPPORTED_WIDTHS.contains(&vector_width) {
        Ok(())
    } else {
        Err(format!(
            "vector_width must be one of {SUPPORTED_WIDTHS:?}, got {vector_width}"
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

/// Run `body` over `range` in lane groups of `W`: full groups of `W`
/// indices, then the tail one index at a time through the same body.
/// `W` is a kernel constant, so each body is compiled at its `W` and
/// at 1 and nowhere else. Always inlined, like the bodies it drives, so
/// a body run at a SIMD tier ([`crate::isa`]) keeps its lane groups at
/// that tier.
#[inline(always)]
pub fn for_lane_groups<const W: usize, B: LaneBody>(range: Range<usize>, body: &mut B) {
    const { assert!(W > 0, "a lane group holds at least one index") };
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

/// The empty width argument of [`crate::Solver::create_instance`],
/// which every solver ignores: lane counts are kernel constants, so
/// there is no per-kernel width to select.
#[derive(Debug, Default)]
pub struct WidthMap;

impl WidthMap {
    /// Does nothing: there is no width to default.
    pub fn set_default(&mut self, _width: usize) {}
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

    /// Every index exactly once and in order, for ranges that leave
    /// every possible remainder of `W`.
    fn full_groups_then_a_one_lane_tail<const W: usize>() {
        for len in 0..=2 * W + 1 {
            let mut got = Recorded::default();
            for_lane_groups::<W, _>(3..3 + len, &mut got);
            let full = len / W;
            let mut want: Vec<(usize, usize)> = (0..full).map(|g| (W, 3 + g * W)).collect();
            want.extend((full * W..len).map(|i| (1, 3 + i)));
            assert_eq!(got.0, want, "width {W} len {len}");
        }
    }

    #[test]
    fn dispatch_runs_full_groups_then_a_one_lane_tail() {
        full_groups_then_a_one_lane_tail::<1>();
        full_groups_then_a_one_lane_tail::<2>();
        full_groups_then_a_one_lane_tail::<4>();
        full_groups_then_a_one_lane_tail::<8>();
    }
}
