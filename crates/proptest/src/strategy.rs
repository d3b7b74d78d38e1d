//! Strategies: composable deterministic value generators.

use crate::test_runner::TestRng;

/// A rejected generation attempt (filtered out); the runner retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected;

/// A generator of test values.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Generate one value, or reject the attempt.
    ///
    /// # Errors
    /// Returns [`Rejected`] when a filter discards the attempt.
    fn generate(&self, rng: &mut TestRng) -> Result<Self::Value, Rejected>;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Keep only values for which `f` returns true; `reason` labels the
    /// filter in diagnostics (unused here, kept for API compatibility).
    fn prop_filter<F>(self, reason: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        let _ = reason;
        Filter { inner: self, f }
    }
}

/// Always produces a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> Result<T, Rejected> {
        Ok(self.0.clone())
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> Result<O, Rejected> {
        self.inner.generate(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Result<S::Value, Rejected> {
        // Bounded local retry keeps whole-case regeneration rare.
        for _ in 0..64 {
            let v = self.inner.generate(rng)?;
            if (self.f)(&v) {
                return Ok(v);
            }
        }
        Err(Rejected)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for ::core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Result<$t, Rejected> {
                assert!(self.start < self.end, "empty range strategy");
                let span = u64::from(self.end.abs_diff(self.start));
                let off = rng.gen_u64(0, span);
                Ok(self.start.wrapping_add(off as $t))
            }
        }
        impl Strategy for ::core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Result<$t, Rejected> {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = u64::from(hi.abs_diff(lo));
                let off = if span == u64::MAX {
                    rng.next_u64()
                } else {
                    rng.gen_u64(0, span + 1)
                };
                Ok(lo.wrapping_add(off as $t))
            }
        }
    )+};
}

int_range_strategy!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Strategy for ::core::ops::Range<usize> {
    type Value = usize;
    fn generate(&self, rng: &mut TestRng) -> Result<usize, Rejected> {
        assert!(self.start < self.end, "empty range strategy");
        Ok(self.start + rng.gen_u64(0, (self.end - self.start) as u64) as usize)
    }
}

impl Strategy for ::core::ops::RangeInclusive<usize> {
    type Value = usize;
    fn generate(&self, rng: &mut TestRng) -> Result<usize, Rejected> {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        Ok(lo + rng.gen_u64(0, (hi - lo + 1) as u64) as usize)
    }
}

impl Strategy for ::core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> Result<f64, Rejected> {
        Ok(rng.gen_f64(self.start, self.end))
    }
}

impl Strategy for ::core::ops::RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> Result<f64, Rejected> {
        Ok(rng.gen_f64_inclusive(*self.start(), *self.end()))
    }
}

impl Strategy for ::core::ops::Range<f32> {
    type Value = f32;
    #[allow(clippy::cast_possible_truncation)]
    fn generate(&self, rng: &mut TestRng) -> Result<f32, Rejected> {
        Ok(rng.gen_f64(f64::from(self.start), f64::from(self.end)) as f32)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Result<Self::Value, Rejected> {
                let ($($name,)+) = self;
                Ok(($($name.generate(rng)?,)+))
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);

impl<S: Strategy, const N: usize> Strategy for [S; N] {
    type Value = [S::Value; N];
    fn generate(&self, rng: &mut TestRng) -> Result<Self::Value, Rejected> {
        let mut out = Vec::with_capacity(N);
        for s in self {
            out.push(s.generate(rng)?);
        }
        match out.try_into() {
            Ok(arr) => Ok(arr),
            Err(_) => unreachable!("exactly N values were generated"),
        }
    }
}

/// The `prop::` namespace (`prop::collection`, `prop::array`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::{Rejected, Strategy};
        use crate::test_runner::TestRng;

        /// Length specification for [`vec()`]: a fixed size or a range.
        #[derive(Debug, Clone)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // inclusive
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                Self { lo: n, hi: n }
            }
        }

        impl From<::core::ops::Range<usize>> for SizeRange {
            fn from(r: ::core::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                Self {
                    lo: r.start,
                    hi: r.end - 1,
                }
            }
        }

        impl From<::core::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: ::core::ops::RangeInclusive<usize>) -> Self {
                Self {
                    lo: *r.start(),
                    hi: *r.end(),
                }
            }
        }

        /// Strategy for `Vec`s of values from `element`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// See [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Result<Vec<S::Value>, Rejected> {
                let n = self.size.lo
                    + rng.gen_u64(0, (self.size.hi - self.size.lo + 1) as u64) as usize;
                let mut out = Vec::with_capacity(n);
                for _ in 0..n {
                    out.push(self.element.generate(rng)?);
                }
                Ok(out)
            }
        }
    }

    /// Fixed-size-array strategies.
    pub mod array {
        use crate::strategy::{Rejected, Strategy};
        use crate::test_runner::TestRng;

        /// An array of `N` values drawn from one element strategy.
        #[derive(Debug, Clone)]
        pub struct UniformArray<S, const N: usize> {
            element: S,
        }

        impl<S: Strategy, const N: usize> Strategy for UniformArray<S, N> {
            type Value = [S::Value; N];
            fn generate(&self, rng: &mut TestRng) -> Result<Self::Value, Rejected> {
                let mut out = Vec::with_capacity(N);
                for _ in 0..N {
                    out.push(self.element.generate(rng)?);
                }
                match out.try_into() {
                    Ok(arr) => Ok(arr),
                    Err(_) => unreachable!("exactly N values were generated"),
                }
            }
        }

        macro_rules! uniform_fn {
            ($($fname:ident => $n:literal),+ $(,)?) => {$(
                #[doc = concat!("Array strategy of ", stringify!($n), " elements.")]
                pub fn $fname<S: Strategy>(element: S) -> UniformArray<S, $n> {
                    UniformArray { element }
                }
            )+};
        }

        uniform_fn! {
            uniform2 => 2, uniform3 => 3, uniform4 => 4, uniform5 => 5,
            uniform8 => 8, uniform16 => 16, uniform25 => 25, uniform32 => 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_test("ranges_stay_in_bounds");
        for _ in 0..1000 {
            let v = (3usize..17).generate(&mut rng).unwrap();
            assert!((3..17).contains(&v));
            let f = (-2.0f64..2.0).generate(&mut rng).unwrap();
            assert!((-2.0..2.0).contains(&f));
            let g = (0.0f64..=1.0).generate(&mut rng).unwrap();
            assert!((0.0..=1.0).contains(&g));
        }
    }

    #[test]
    fn determinism_per_name() {
        let mut a = TestRng::for_test("x");
        let mut b = TestRng::for_test("x");
        let mut c = TestRng::for_test("y");
        let va: Vec<u64> = (0..10).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..10).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..10).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn map_filter_compose() {
        let mut rng = TestRng::for_test("map_filter");
        let s = (0u32..100)
            .prop_map(|x| x * 2)
            .prop_filter("nonzero", |&x| x != 0);
        for _ in 0..200 {
            let v = s.generate(&mut rng).unwrap();
            assert!(v % 2 == 0 && v != 0 && v < 200);
        }
    }

    #[test]
    fn collections_and_arrays() {
        let mut rng = TestRng::for_test("coll");
        let vs = prop::collection::vec(0u64..10, 3..6);
        for _ in 0..100 {
            let v = vs.generate(&mut rng).unwrap();
            assert!((3..6).contains(&v.len()));
        }
        let fixed = prop::collection::vec(0u64..10, 7);
        assert_eq!(fixed.generate(&mut rng).unwrap().len(), 7);
        let arr = prop::array::uniform5(-1.0f64..1.0)
            .generate(&mut rng)
            .unwrap();
        assert_eq!(arr.len(), 5);
    }
}
