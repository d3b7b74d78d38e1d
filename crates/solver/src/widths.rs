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
//! [`for_lane_groups`] at a width fixed by measurement: F3D's residual
//! at `f3d::solver::RESIDUAL_LANES` points of a J-row per group, its
//! implicit factors at a bundle of `f3d::solver::PENCIL_BUNDLE` adjacent
//! pencils (one pencil's block-Thomas recurrence is a dependent chain
//! that only adjacent pencils can overlap). [`for_lane_groups`] runs
//! full groups at that `W` and the tail through the *same* body at
//! `W = 1`, so width 1 is the body's `::<1>` instantiation, not a second
//! implementation. Kernels whose inner loop is data movement or an AoS
//! stencil (F3D's `update`, both FDTD sweeps) run one plain loop.
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

/// The `vector_width` values a request may spell, and the lane widths
/// [`for_lane_groups`] dispatches to. Width 1 is the one-lane
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
/// dispatch; every caller passes a kernel constant, and a width outside
/// [`SUPPORTED_WIDTHS`] runs as width 1.
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
}
