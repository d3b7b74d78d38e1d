//! Amdahl's-law helpers (paper Sections 3–4).
//!
//! The paper repeatedly weighs the overhead of parallelizing cheap
//! boundary-condition routines against the Amdahl penalty of leaving
//! them serial: "the more time is spent in serial code, the harder it is
//! to show benefit from using larger (e.g., 50+) numbers of processors."
//! These helpers quantify that trade.

/// Speedup of a program whose serial fraction is `serial_fraction`
/// (of single-processor runtime) on `processors` processors, with the
/// parallel portion scaling ideally:
/// `1 / (s + (1 - s) / P)`.
///
/// # Panics
/// Panics if `processors == 0` or `serial_fraction` is outside `[0, 1]`.
#[must_use]
pub fn amdahl_speedup(serial_fraction: f64, processors: u32) -> f64 {
    assert!(processors > 0, "processor count must be positive");
    assert!(
        (0.0..=1.0).contains(&serial_fraction),
        "serial fraction must be in [0, 1], got {serial_fraction}"
    );
    1.0 / (serial_fraction + (1.0 - serial_fraction) / f64::from(processors))
}

/// The largest serial fraction that still permits a target speedup on a
/// given processor count. Solves Amdahl for `s`:
/// `s = (P / S - 1) / (P - 1)` where `S` is the target speedup.
///
/// Returns `None` if the target is unachievable even with `s = 0`
/// (i.e. `target > P`), or if `processors == 1` and `target > 1`.
#[must_use]
pub fn serial_fraction_limit(target_speedup: f64, processors: u32) -> Option<f64> {
    assert!(processors > 0, "processor count must be positive");
    assert!(target_speedup >= 1.0, "target speedup must be >= 1");
    let p = f64::from(processors);
    if target_speedup > p {
        return None;
    }
    if processors == 1 {
        return Some(1.0); // Any serial fraction achieves speedup 1.
    }
    let s = (p / target_speedup - 1.0) / (p - 1.0);
    Some(s.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_serial_code_is_linear() {
        for p in [1u32, 2, 32, 128] {
            assert!((amdahl_speedup(0.0, p) - f64::from(p)).abs() < 1e-12);
        }
    }

    #[test]
    fn all_serial_code_never_speeds_up() {
        for p in [1u32, 2, 32, 128] {
            assert!((amdahl_speedup(1.0, p) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn one_percent_serial_caps_at_100() {
        // On 128 processors, 1% serial already costs >35% of ideal.
        let s = amdahl_speedup(0.01, 128);
        assert!(s < 0.45 * 128.0, "got {s}");
        assert!(s > 56.0, "got {s}");
    }

    #[test]
    fn serial_fraction_limit_round_trips() {
        for &(target, p) in &[(10.0f64, 16u32), (50.0, 64), (100.0, 128)] {
            let s = serial_fraction_limit(target, p).unwrap();
            let achieved = amdahl_speedup(s, p);
            assert!((achieved - target).abs() < 1e-9, "{achieved} vs {target}");
        }
    }

    #[test]
    fn unachievable_target_is_none() {
        assert_eq!(serial_fraction_limit(9.0, 8), None);
        assert!(serial_fraction_limit(8.0, 8).is_some());
    }

    #[test]
    fn speedup_monotone_in_processors() {
        let mut last = 0.0;
        for p in 1..=256u32 {
            let s = amdahl_speedup(0.03, p);
            assert!(s >= last);
            last = s;
        }
    }
}
