//! SIMD tiers: each FDTD row body compiled for AVX2 and for the
//! target's baseline, and run at AVX2 when the CPU reports it.
//!
//! The sweeps' inner loops are zipped slice loops that rustc vectorizes
//! at the width the code is compiled for, and the baseline x86-64
//! target is SSE2: two doubles per register. `tiered!` compiles one
//! `#[inline(always)]` row body twice, once inside a
//! `#[target_feature]` function, and the generated wrapper calls the
//! instance its [`Tier`] names. A sweep detects its tier once per call,
//! outside its doacross body ([`Tier::widest`]), and hands it to every
//! row. A target feature reaches only code inlined into the function
//! that enables it, so each body, and everything it calls per point
//! (`ESweep::row`, the run fold and its fill closure), is
//! `#[inline(always)]`.
//!
//! **Exactness.** A tier changes how many points one instruction holds,
//! never which operations a point runs or in what order: every element
//! executes the same IEEE operation sequence at every width, rustc never
//! contracts `a * b + c` into an FMA, and each row's energy partial is
//! still its own left fold (the run fold keeps one add chain per row).
//! So every tier is bit for bit the baseline, which the tier oracle in
//! `kernels`' tests checks on every tier the host reports.
//!
//! This is the crate's only module with `unsafe`: the call into a safe
//! `#[target_feature]` function, made only with a [`Tier`] that
//! detection returned.

#![allow(unsafe_code)]

use crate::kernels::{self, ESweep};

/// A SIMD tier the running CPU supports. Only detection builds one, so
/// holding a tier proves the CPU has its features: the wrappers'
/// `unsafe` calls rest on that.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tier(Level);

#[derive(Clone, Copy, Debug)]
enum Level {
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Baseline,
}

impl Tier {
    /// The widest tier the CPU reports: AVX2, else the baseline (the
    /// only tier off x86-64).
    pub(crate) fn widest() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Tier(Level::Avx2);
        }
        Tier(Level::Baseline)
    }
}

/// `fn name(args) { body }` becomes `fn name(tier, args)`, which runs
/// `body` compiled at `tier`: one `#[inline(always)]` statement of the
/// body, instantiated inside an AVX2 and a plain function.
macro_rules! tiered {
    ($($(#[doc = $doc:literal])* fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block)*) => {$(
        $(#[doc = $doc])*
        pub(crate) fn $name(tier: Tier, $($arg: $ty),*) {
            #[inline(always)]
            fn body($($arg: $ty),*) $body
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn avx2($($arg: $ty),*) {
                body($($arg),*)
            }
            match tier.0 {
                // SAFETY: `Tier`'s field and `Level` are private to this
                // module, whose detection builds `Avx2` only when the CPU
                // reports `avx2`.
                #[cfg(target_arch = "x86_64")]
                Level::Avx2 => unsafe { avx2($($arg),*) },
                Level::Baseline => body($($arg),*),
            }
        }
    )*};
}

tiered! {
    /// [`kernels::h_row`] at `tier`.
    fn h_row(s: f64, periodic: bool, row: &mut [f64], ex_up: &[f64], ex: &[f64], ey: &[f64]) {
        kernels::h_row(s, periodic, row, ex_up, ex, ey);
    }

    /// `ESweep::row` over the whole of row `j`, at `tier`.
    fn e_row(sweep: &ESweep<'_>, j: usize, row: &mut [f64]) {
        sweep.row(j, row, 0..sweep.nx, None);
    }

    /// `ESweep::energy_run` at `tier`.
    fn e_energy_run(sweep: &ESweep<'_>, first: usize, e_run: &mut [f64], partials: &mut [f64]) {
        sweep.energy_run(first, e_run, partials);
    }
}

#[cfg(test)]
impl Tier {
    /// Every tier the CPU reports, the baseline first.
    pub(crate) fn available() -> Vec<Tier> {
        let widest = Tier::widest();
        if matches!(widest.0, Level::Baseline) {
            vec![widest]
        } else {
            vec![Tier(Level::Baseline), widest]
        }
    }
}
