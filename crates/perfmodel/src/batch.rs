//! Validated batch evaluation of the analytic models, for callers that
//! relay untrusted queries (the `llpd` HTTP service's `/v1/model/*`
//! endpoints).
//!
//! The scalar entry points in [`crate::stairstep`], [`crate::overhead`]
//! and [`crate::work_per_sync`] follow library convention and panic on
//! parameter-domain errors (`processors == 0`, an overhead fraction
//! outside `(0, 1]`). A service cannot afford that: a hostile request
//! must come back as a clean error, never a worker-thread panic. The
//! functions here validate every point of a batch up front — including
//! arithmetic overflow on hostile grid dimensions — and return
//! `Err(message)` naming the offending value, so panics in the
//! underlying models become unreachable.

use crate::overhead::checked_min_work;
use crate::stairstep::{ideal_speedup, max_units_per_processor};
use crate::work_per_sync::{GridNest, LoopLevel};

/// Largest number of points one batch may request. Far above any
/// plotting need, low enough that a hostile batch cannot tie up the
/// service building a giant response.
pub const MAX_BATCH_POINTS: usize = 4096;

/// Check the common batch-shape constraints: non-empty, bounded size.
fn check_batch_shape(len: usize) -> Result<(), String> {
    if len == 0 {
        return Err("batch must contain at least one point".to_string());
    }
    if len > MAX_BATCH_POINTS {
        return Err(format!(
            "batch of {len} points exceeds limit {MAX_BATCH_POINTS}"
        ));
    }
    Ok(())
}

/// One evaluated point of the stair-step law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StairstepPoint {
    /// Processor count the point was evaluated at.
    pub processors: u32,
    /// Ideal speedup `units / ceil(units / P)`.
    pub speedup: f64,
    /// The plateau denominator `ceil(units / P)`.
    pub max_units_per_processor: u64,
}

/// Evaluate the stair-step speedup law at each processor count.
///
/// # Errors
/// Rejects `units == 0`, any `processors == 0`, and empty or oversized
/// batches, with a message naming the offending value.
pub fn stairstep_batch(units: u64, processors: &[u32]) -> Result<Vec<StairstepPoint>, String> {
    check_batch_shape(processors.len())?;
    if units == 0 {
        return Err("units must be positive".to_string());
    }
    processors
        .iter()
        .map(|&p| {
            if p == 0 {
                return Err("processors must be positive".to_string());
            }
            Ok(StairstepPoint {
                processors: p,
                speedup: ideal_speedup(units, p),
                max_units_per_processor: max_units_per_processor(units, p),
            })
        })
        .collect()
}

/// One evaluated point of the synchronization-overhead bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadPoint {
    /// Processor count the point was evaluated at.
    pub processors: u32,
    /// Minimum serial work (cycles) to keep synchronization within the
    /// overhead budget: `ceil(P * S / f)`.
    pub min_work_cycles: u64,
}

/// Evaluate the overhead bound `W >= P * S / f` at each processor count.
///
/// # Errors
/// Rejects non-finite or out-of-range `max_overhead_fraction` (must be
/// in `(0, 1]`), any `processors == 0`, any point whose bound does not
/// fit in `u64` (naming its processor count), and empty or oversized
/// batches.
pub fn overhead_batch(
    sync_cost_cycles: u64,
    max_overhead_fraction: f64,
    processors: &[u32],
) -> Result<Vec<OverheadPoint>, String> {
    check_batch_shape(processors.len())?;
    if !(max_overhead_fraction > 0.0 && max_overhead_fraction <= 1.0) {
        return Err(format!(
            "overhead fraction must be in (0, 1], got {max_overhead_fraction}"
        ));
    }
    processors
        .iter()
        .map(|&p| {
            if p == 0 {
                return Err("processors must be positive".to_string());
            }
            let min_work_cycles = checked_min_work(sync_cost_cycles, p, max_overhead_fraction)
                .ok_or_else(|| format!("minimum work overflows u64 at {p} processors"))?;
            Ok(OverheadPoint {
                processors: p,
                min_work_cycles,
            })
        })
        .collect()
}

/// One evaluated (nest, level) row of the Table 2 accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkPerSyncPoint {
    /// The parallelized loop level.
    pub level: LoopLevel,
    /// Grid points covered per parallel-region execution.
    pub points_per_sync: u64,
    /// Work available between synchronization events, in cycles.
    pub cycles: u64,
    /// Iteration count of the parallelized loop.
    pub available_parallelism: u64,
}

/// Evaluate work-per-synchronization for each requested loop level of
/// one nest.
///
/// # Errors
/// Rejects `work_per_point == 0`, levels the nest does not have (e.g.
/// `Middle` of a 2-D nest), products that overflow `u64`, and empty or
/// oversized batches.
pub fn work_per_sync_batch(
    nest: GridNest,
    work_per_point: u64,
    levels: &[LoopLevel],
) -> Result<Vec<WorkPerSyncPoint>, String> {
    check_batch_shape(levels.len())?;
    if work_per_point == 0 {
        return Err("work_per_point must be positive".to_string());
    }
    levels
        .iter()
        .map(|&level| {
            let points = nest
                .points_per_sync(level)
                .ok_or_else(|| format!("nest has no {} loop level", level.name()))?;
            let cycles = points
                .checked_mul(work_per_point)
                .ok_or_else(|| format!("work per sync overflows at {} level", level.name()))?;
            let avail = nest
                .available_parallelism(level)
                .ok_or_else(|| format!("nest has no {} loop level", level.name()))?;
            Ok(WorkPerSyncPoint {
                level,
                points_per_sync: points,
                cycles,
                available_parallelism: avail,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stairstep_batch_matches_scalar_model() {
        let pts = stairstep_batch(15, &[1, 4, 8, 14, 15]).unwrap();
        let speedups: Vec<f64> = pts.iter().map(|p| p.speedup).collect();
        assert_eq!(speedups, vec![1.0, 3.75, 7.5, 7.5, 15.0]);
        assert_eq!(pts[1].max_units_per_processor, 4);
    }

    #[test]
    fn stairstep_batch_rejects_bad_input() {
        assert!(stairstep_batch(0, &[1]).is_err());
        assert!(stairstep_batch(15, &[]).is_err());
        assert!(stairstep_batch(15, &[4, 0]).is_err());
        assert!(stairstep_batch(15, &vec![1; MAX_BATCH_POINTS + 1]).is_err());
        assert!(stairstep_batch(15, &vec![1; MAX_BATCH_POINTS]).is_ok());
    }

    #[test]
    fn overhead_batch_reproduces_table1_column() {
        let pts = overhead_batch(10_000, 0.01, &[2, 8, 32, 128]).unwrap();
        let works: Vec<u64> = pts.iter().map(|p| p.min_work_cycles).collect();
        assert_eq!(works, vec![2_000_000, 8_000_000, 32_000_000, 128_000_000]);
    }

    #[test]
    fn overhead_batch_rejects_bad_input() {
        assert!(overhead_batch(10_000, 0.0, &[2]).is_err());
        assert!(overhead_batch(10_000, 1.5, &[2]).is_err());
        assert!(overhead_batch(10_000, f64::NAN, &[2]).is_err());
        assert!(overhead_batch(10_000, f64::INFINITY, &[2]).is_err());
        assert!(overhead_batch(10_000, 0.01, &[0]).is_err());
        assert!(overhead_batch(10_000, 0.01, &[]).is_err());
        // A bound past u64 is rejected, naming P, not saturated.
        assert_eq!(
            overhead_batch(10_000, 1e-320, &[2]),
            Err("minimum work overflows u64 at 2 processors".to_string())
        );
        assert_eq!(
            overhead_batch(u64::MAX, 1.0, &[u32::MAX]),
            Err(format!(
                "minimum work overflows u64 at {} processors",
                u32::MAX
            ))
        );
    }

    #[test]
    fn work_per_sync_batch_reproduces_table2_rows() {
        let nest = GridNest::ThreeD {
            outer: 100,
            middle: 100,
            inner: 100,
        };
        let pts = work_per_sync_batch(
            nest,
            10,
            &[LoopLevel::Inner, LoopLevel::Middle, LoopLevel::Outer],
        )
        .unwrap();
        let cycles: Vec<u64> = pts.iter().map(|p| p.cycles).collect();
        assert_eq!(cycles, vec![1_000, 100_000, 10_000_000]);
        assert_eq!(pts[2].available_parallelism, 100);
    }

    #[test]
    fn work_per_sync_batch_rejects_bad_input() {
        let two_d = GridNest::TwoD {
            outer: 10,
            inner: 10,
        };
        assert!(work_per_sync_batch(two_d, 10, &[LoopLevel::Middle]).is_err());
        assert!(work_per_sync_batch(two_d, 0, &[LoopLevel::Outer]).is_err());
        assert!(work_per_sync_batch(two_d, 10, &[]).is_err());
        // Hostile dimensions must error, not overflow.
        let huge = GridNest::TwoD {
            outer: u64::MAX / 2,
            inner: 2,
        };
        assert!(work_per_sync_batch(huge, 1_000, &[LoopLevel::Outer]).is_err());
    }
}
