//! Reporting metrics (paper Section 5).
//!
//! The paper deliberately avoids raw speedup as a headline metric ("the
//! lower the serial performance, the easier it is to show good speedup")
//! and reports **time steps/hour** — which lets a user estimate run time
//! directly and degenerates to the familiar linear curve for problems
//! with abundant parallelism — and **delivered MFLOPS**, which exposes
//! both parallel *and* serial efficiency.

/// Seconds per hour, as an f64.
pub const SECONDS_PER_HOUR: f64 = 3600.0;

/// Time steps per hour given the wall-clock seconds consumed by one time
/// step (start-up and termination costs excluded, as in the paper).
///
/// # Panics
/// Panics if `seconds_per_step` is not positive and finite.
#[must_use]
pub fn time_steps_per_hour(seconds_per_step: f64) -> f64 {
    assert!(
        seconds_per_step.is_finite() && seconds_per_step > 0.0,
        "seconds per step must be positive and finite, got {seconds_per_step}"
    );
    SECONDS_PER_HOUR / seconds_per_step
}

/// Delivered MFLOPS: floating-point operations executed divided by wall
/// time, in units of 10^6 ops/second.
///
/// # Panics
/// Panics if `seconds` is not positive and finite.
#[must_use]
pub fn delivered_mflops(flops: u64, seconds: f64) -> f64 {
    assert!(
        seconds.is_finite() && seconds > 0.0,
        "seconds must be positive and finite, got {seconds}"
    );
    flops as f64 / seconds / 1.0e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_per_hour_inverse_of_seconds() {
        assert!((time_steps_per_hour(3600.0) - 1.0).abs() < 1e-12);
        assert!((time_steps_per_hour(1.0) - 3600.0).abs() < 1e-12);
        // The paper's SUN 1p run: 138 steps/hr -> ~26 s/step.
        let s = SECONDS_PER_HOUR / 138.0;
        assert!((time_steps_per_hour(s) - 138.0).abs() < 1e-9);
    }

    #[test]
    fn mflops_units() {
        assert!((delivered_mflops(1_000_000, 1.0) - 1.0).abs() < 1e-12);
        assert!((delivered_mflops(600_000_000, 1.0) - 600.0).abs() < 1e-9);
    }

    #[test]
    fn table4_pair() {
        // One Table 4 row: 2.37 GFLOP per step at 10 s per step.
        let (steps, mflops) = (
            time_steps_per_hour(10.0),
            delivered_mflops(2_370_000_000, 10.0),
        );
        assert!((steps - 360.0).abs() < 1e-9);
        assert!((mflops - 237.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "seconds per step must be positive")]
    fn zero_step_time_panics() {
        let _ = time_steps_per_hour(0.0);
    }
}
