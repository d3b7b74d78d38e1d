//! SIMD tiers: one kernel body compiled for AVX2 and for the target's
//! baseline, and run at AVX2 when the CPU reports it.
//!
//! The solvers' inner loops are fixed-trip lane loops (F3D's residual
//! groups and pencil bundles, four lanes each) and zipped slice loops
//! (FDTD's rows) that rustc vectorizes at the width the code is
//! compiled for, and the baseline x86-64 target is SSE2: two doubles
//! per register. [`Tier::run`] calls its body inside a
//! `#[target_feature(enable = "avx2")]` function when the tier is
//! [`Tier::widest`]'s AVX2, and plainly otherwise, so one
//! `#[inline(always)]` closure is instantiated once per tier. A kernel
//! detects its tier once per call, outside its doacross body, and hands
//! it to every row or bundle. A target feature reaches only code inlined
//! into the function that enables it, so each body, and everything it
//! calls per point, is `#[inline(always)]`: a call that stays out of
//! line runs at the baseline and fails no test.
//!
//! The data a body writes is [`Tier::run`]'s own argument, not a
//! capture. Only a function's `&mut` parameter tells the compiler that
//! nothing else the body reads overlaps it; a `&mut` captured by the
//! closure loses that once inlined, and FDTD's rows then vectorized
//! behind run-time overlap checks.
//!
//! **Exactness.** A tier changes how many lanes one instruction holds,
//! never which operations a lane runs or in what order: every element
//! executes the same IEEE operation sequence at every width, and rustc
//! never contracts `a * b + c` into an FMA. So every tier is bit for bit
//! the baseline, which each solver's tier oracle checks on every tier
//! the host reports (FDTD's `kernels` tests, F3D's `solver` tests).
//!
//! There is no FMA or AVX-512 tier: FMA would change the bits, and an
//! AVX-512F instance read level with AVX2 on FDTD's sweeps
//! (EXPERIMENTS.md, "FDTD's row sweeps run at the widest SIMD tier").
//!
//! This is the only module of the solver crates with `unsafe`: the call
//! into a safe `#[target_feature]` function, made only with a [`Tier`]
//! that detection returned.

#![allow(unsafe_code)]

/// A SIMD tier the running CPU supports. Only detection and
/// [`Tier::BASELINE`] build one, so holding a tier proves the CPU has
/// its features: [`Tier::run`]'s `unsafe` call rests on that.
#[derive(Clone, Copy, Debug)]
pub struct Tier(Level);

#[derive(Clone, Copy, Debug)]
enum Level {
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Baseline,
}

impl Tier {
    /// The target's baseline: code compiled for no feature beyond it,
    /// which every CPU the binary runs on supports.
    pub const BASELINE: Tier = Tier(Level::Baseline);

    /// The widest tier the CPU reports: AVX2, else the baseline (the
    /// only tier off x86-64).
    #[must_use]
    pub fn widest() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Tier(Level::Avx2);
        }
        Self::BASELINE
    }

    /// Run `body(out)` compiled at this tier, where `out` is what the
    /// body writes. Give it an `#[inline(always)]` closure whose
    /// callees are `#[inline(always)]` too, so the whole body is
    /// instantiated inside each tier's function. `out` reaches that
    /// function as an argument of its own, so the compiler knows that
    /// nothing else the body reads overlaps it, as it would for a
    /// kernel function's `&mut` parameter, and vectorizes without
    /// run-time overlap checks.
    #[inline(always)]
    pub fn run<T: ?Sized, R>(self, out: &mut T, body: impl FnOnce(&mut T) -> R) -> R {
        match self.0 {
            // SAFETY: `Tier`'s field and `Level` are private to this
            // module, whose detection builds `Avx2` only when the CPU
            // reports `avx2`.
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => unsafe { avx2(out, body) },
            Level::Baseline => body(out),
        }
    }
}

/// `body(out)` with AVX2 enabled for everything inlined into it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<T: ?Sized, R>(out: &mut T, body: impl FnOnce(&mut T) -> R) -> R {
    body(out)
}
