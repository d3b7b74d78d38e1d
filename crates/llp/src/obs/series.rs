//! Windowed time series: a fixed-capacity ring of per-window
//! aggregates for continuous telemetry.
//!
//! Counters and histograms ([`super::hist`]) answer "how much since
//! boot"; this module answers "how much *lately*". Time is cut into
//! fixed windows (e.g. 10 s × 120 windows = 20 minutes of history);
//! each record call lands in the open window, and a caller-driven
//! [`Series::tick`] seals windows as the clock crosses boundaries,
//! pushing the sealed aggregate into a bounded ring that evicts the
//! oldest window once full. Nothing in here reads a clock: the caller
//! supplies monotonic milliseconds (the serve event loop feeds its
//! poll-tick clock), which keeps the module deterministic under test.
//!
//! Per window the series rolls up exactly the signals `/v1/stats`
//! serves: request count and per-status split,
//! latency distribution (same 1-2-5 bucket ladder and quantile rule as
//! [`Histogram::latency_ms`]), cache hits/misses, solve count and
//! seconds, per-kernel solve seconds, the mean measured sync fraction
//! (the `f` of the paper's Table 1), and zone-job stats.
//!
//! **Disabled is free**, like the rest of `obs`: a disabled series is
//! an `Option::None` behind the struct, every record call is one
//! branch — no allocation, no lock, no clock read. Call sites that
//! would have to *build* their arguments (per-kernel second lists)
//! pass a closure instead, which a disabled series never invokes. The
//! contract is pinned by the counting-allocator test in
//! `crates/llp/tests/obs_overhead.rs`.

use crate::obs::hist::Histogram;
use crate::obs::json::Json;
use std::sync::Mutex;

/// Schema version stamped into [`Series::snapshot`] output.
pub const SERIES_SCHEMA_VERSION: u64 = 1;

/// Default window length: 10 seconds.
pub const DEFAULT_WINDOW_MS: u64 = 10_000;

/// Default ring capacity: 120 windows (20 minutes at 10 s).
pub const DEFAULT_CAPACITY: usize = 120;

/// Aggregates accumulated for one window (open or sealed).
#[derive(Debug, Clone)]
struct WindowAccum {
    /// Monotone window number (0 for the first window after enable).
    index: u64,
    /// Window start, in the caller's monotonic milliseconds.
    start_ms: u64,
    /// Requests finished in this window.
    requests: u64,
    /// Per-status response counts, sparse `(code, count)` pairs.
    by_status: Vec<(u16, u64)>,
    /// Latency observations bucketed on the `latency_ms` ladder
    /// (one slot per bound plus overflow), plus count/sum/max.
    latency_counts: Vec<u64>,
    latency_sum_ms: f64,
    latency_max_ms: f64,
    /// Cache lookups that hit / missed.
    cache_hits: u64,
    cache_misses: u64,
    /// Completed solves and their wall seconds.
    solves: u64,
    solve_seconds: f64,
    /// Per-kernel attributed seconds, sparse `(name, seconds)` pairs.
    kernel_seconds: Vec<(String, f64)>,
    /// Sum and count of measured sync fractions (one sample per
    /// instrumented solve) — the mean is the window's measured `f`.
    sync_fraction_sum: f64,
    sync_fraction_samples: u64,
    /// Zone-scheduled jobs and total zones they fanned out to.
    zone_jobs: u64,
    zones_scheduled: u64,
}

impl WindowAccum {
    fn new(index: u64, start_ms: u64, latency_slots: usize) -> Self {
        WindowAccum {
            index,
            start_ms,
            requests: 0,
            by_status: Vec::new(),
            latency_counts: vec![0; latency_slots],
            latency_sum_ms: 0.0,
            latency_max_ms: 0.0,
            cache_hits: 0,
            cache_misses: 0,
            solves: 0,
            solve_seconds: 0.0,
            kernel_seconds: Vec::new(),
            sync_fraction_sum: 0.0,
            sync_fraction_samples: 0,
            zone_jobs: 0,
            zones_scheduled: 0,
        }
    }

    /// Latency quantile over this window's buckets, by the same rule
    /// as [`Histogram::quantile`]: smallest bound whose cumulative
    /// count reaches `max(1, ceil(q·n))`.
    fn latency_quantile(&self, bounds: &[f64], q: f64) -> Option<f64> {
        let total: u64 = self.latency_counts.iter().sum();
        if total == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, count) in self.latency_counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= target {
                return Some(bounds[i.min(bounds.len() - 1)]);
            }
        }
        Some(bounds[bounds.len() - 1])
    }

    #[allow(clippy::cast_precision_loss)]
    fn to_json(&self, bounds: &[f64], window_ms: u64) -> Json {
        let rate_hz = if window_ms == 0 {
            0.0
        } else {
            self.requests as f64 / (window_ms as f64 / 1000.0)
        };
        let mut status = self.by_status.clone();
        status.sort_by_key(|&(code, _)| code);
        let lookups = self.cache_hits + self.cache_misses;
        let hit_rate = if lookups == 0 {
            Json::Null
        } else {
            Json::Num(self.cache_hits as f64 / lookups as f64)
        };
        let sync_fraction = if self.sync_fraction_samples == 0 {
            Json::Null
        } else {
            Json::Num(self.sync_fraction_sum / self.sync_fraction_samples as f64)
        };
        let mut kernels = self.kernel_seconds.clone();
        kernels.sort_by(|a, b| a.0.cmp(&b.0));
        Json::object(vec![
            ("index", Json::from_u64(self.index)),
            ("start_ms", Json::from_u64(self.start_ms)),
            ("end_ms", Json::from_u64(self.start_ms + window_ms)),
            ("requests", Json::from_u64(self.requests)),
            ("request_rate_hz", Json::Num(rate_hz)),
            (
                "by_status",
                Json::Object(
                    status
                        .iter()
                        .map(|&(code, count)| (code.to_string(), Json::from_u64(count)))
                        .collect(),
                ),
            ),
            (
                "latency_ms",
                Json::object(vec![
                    (
                        "count",
                        Json::from_u64(self.latency_counts.iter().sum::<u64>()),
                    ),
                    ("sum", Json::Num(self.latency_sum_ms)),
                    ("max", Json::Num(self.latency_max_ms)),
                    (
                        "p50",
                        self.latency_quantile(bounds, 0.5)
                            .map_or(Json::Null, Json::Num),
                    ),
                    (
                        "p99",
                        self.latency_quantile(bounds, 0.99)
                            .map_or(Json::Null, Json::Num),
                    ),
                ]),
            ),
            (
                "cache",
                Json::object(vec![
                    ("hits", Json::from_u64(self.cache_hits)),
                    ("misses", Json::from_u64(self.cache_misses)),
                    ("hit_rate", hit_rate),
                ]),
            ),
            ("solves", Json::from_u64(self.solves)),
            ("solve_seconds", Json::Num(self.solve_seconds)),
            (
                "kernel_seconds",
                Json::Object(
                    kernels
                        .iter()
                        .map(|(name, secs)| (name.clone(), Json::Num(*secs)))
                        .collect(),
                ),
            ),
            ("sync_fraction_mean", sync_fraction),
            (
                "zones",
                Json::object(vec![
                    ("jobs", Json::from_u64(self.zone_jobs)),
                    ("zones_scheduled", Json::from_u64(self.zones_scheduled)),
                ]),
            ),
        ])
    }
}

/// Interior state behind the mutex: the open window plus the ring of
/// sealed ones.
#[derive(Debug)]
struct SeriesInner {
    window_ms: u64,
    capacity: usize,
    /// Latency bucket bounds (shared by every window).
    bounds: Vec<f64>,
    /// The window currently accumulating.
    open: WindowAccum,
    /// Sealed windows, oldest first, at most `capacity` long.
    sealed: Vec<WindowAccum>,
    /// Total windows ever sealed (≥ `sealed.len()` once evicting).
    sealed_total: u64,
}

impl SeriesInner {
    fn seal_open(&mut self) {
        let next_index = self.open.index + 1;
        let next_start = self.open.start_ms + self.window_ms;
        let slots = self.open.latency_counts.len();
        let sealed = std::mem::replace(
            &mut self.open,
            WindowAccum::new(next_index, next_start, slots),
        );
        if self.sealed.len() == self.capacity {
            self.sealed.remove(0);
        }
        self.sealed.push(sealed);
        self.sealed_total += 1;
    }
}

/// A windowed time-series aggregator. Construct with
/// [`Series::disabled`] (all calls free no-ops) or [`Series::enabled`].
#[derive(Debug)]
pub struct Series {
    inner: Option<Mutex<SeriesInner>>,
}

impl Series {
    /// A disabled series: every method is a single-branch no-op with
    /// no allocation.
    #[must_use]
    pub fn disabled() -> Self {
        Series { inner: None }
    }

    /// An enabled series cutting time into `window_ms`-long windows
    /// and retaining the most recent `capacity` sealed windows.
    ///
    /// # Panics
    /// Panics if `window_ms` is zero or `capacity` is zero.
    #[must_use]
    pub fn enabled(window_ms: u64, capacity: usize) -> Self {
        assert!(window_ms > 0, "series window must be positive");
        assert!(capacity > 0, "series capacity must be positive");
        let bounds = Histogram::latency_ms().bounds().to_vec();
        let slots = bounds.len() + 1;
        Series {
            inner: Some(Mutex::new(SeriesInner {
                window_ms,
                capacity,
                bounds,
                open: WindowAccum::new(0, 0, slots),
                sealed: Vec::with_capacity(capacity),
                sealed_total: 0,
            })),
        }
    }

    /// Whether this series records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, SeriesInner>> {
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Record one finished request: response status and latency.
    pub fn record_request(&self, status: u16, latency_ms: f64) {
        let Some(mut inner) = self.lock() else { return };
        inner.open.requests += 1;
        if let Some(slot) = inner.open.by_status.iter_mut().find(|(c, _)| *c == status) {
            slot.1 += 1;
        } else {
            inner.open.by_status.push((status, 1));
        }
        let idx = inner
            .bounds
            .iter()
            .position(|&b| latency_ms <= b)
            .unwrap_or(inner.bounds.len());
        inner.open.latency_counts[idx] += 1;
        if latency_ms.is_finite() {
            inner.open.latency_sum_ms += latency_ms;
            if latency_ms > inner.open.latency_max_ms {
                inner.open.latency_max_ms = latency_ms;
            }
        }
    }

    /// Record one solve-cache lookup outcome.
    pub fn record_cache(&self, hit: bool) {
        let Some(mut inner) = self.lock() else { return };
        if hit {
            inner.open.cache_hits += 1;
        } else {
            inner.open.cache_misses += 1;
        }
    }

    /// Record one completed solve: wall seconds, the measured sync
    /// fraction if the run was instrumented, and per-kernel attributed
    /// seconds produced by `kernels` — a closure so a disabled series
    /// never pays for building the list.
    pub fn record_solve<F>(&self, seconds: f64, sync_fraction: Option<f64>, kernels: F)
    where
        F: FnOnce() -> Vec<(String, f64)>,
    {
        let Some(mut inner) = self.lock() else { return };
        inner.open.solves += 1;
        inner.open.solve_seconds += seconds;
        if let Some(f) = sync_fraction {
            if f.is_finite() {
                inner.open.sync_fraction_sum += f;
                inner.open.sync_fraction_samples += 1;
            }
        }
        for (name, secs) in kernels() {
            if let Some(slot) = inner
                .open
                .kernel_seconds
                .iter_mut()
                .find(|(n, _)| *n == name)
            {
                slot.1 += secs;
            } else {
                inner.open.kernel_seconds.push((name, secs));
            }
        }
    }

    /// Record one zone-scheduled job fanning out to `zones` zones.
    pub fn record_zone_job(&self, zones: u64) {
        let Some(mut inner) = self.lock() else { return };
        inner.open.zone_jobs += 1;
        inner.open.zones_scheduled += zones;
    }

    /// Advance the clock to `now_ms` (caller-supplied monotonic
    /// milliseconds), sealing every window whose end has passed.
    /// Quiet periods seal as empty windows so the ring stays a
    /// contiguous timeline; a clock jump longer than the whole ring
    /// fast-forwards without materializing more than `capacity`
    /// windows. Returns the number of windows sealed by this call.
    pub fn tick(&self, now_ms: u64) -> u64 {
        let Some(mut inner) = self.lock() else {
            return 0;
        };
        let mut sealed = 0u64;
        while now_ms >= inner.open.start_ms + inner.window_ms {
            let elapsed_windows = (now_ms - inner.open.start_ms) / inner.window_ms;
            #[allow(clippy::cast_possible_truncation)]
            let skip = elapsed_windows.saturating_sub(inner.capacity as u64 + 1);
            if skip > 0 {
                // Far jump: everything sealable before the tail would
                // be evicted anyway. Jump the open window forward.
                let slots = inner.open.latency_counts.len();
                let index = inner.open.index + skip;
                let start = inner.open.start_ms + skip * inner.window_ms;
                inner.open = WindowAccum::new(index, start, slots);
                inner.sealed_total += skip;
                sealed += skip;
                continue;
            }
            inner.seal_open();
            sealed += 1;
        }
        sealed
    }

    /// Total windows sealed since enable (including evicted ones).
    #[must_use]
    pub fn windows_sealed(&self) -> u64 {
        self.lock().map_or(0, |inner| inner.sealed_total)
    }

    /// Versioned JSON snapshot of the newest `windows` sealed windows
    /// (oldest first). `Json::Null` when the series is disabled.
    #[must_use]
    pub fn snapshot(&self, windows: usize) -> Json {
        let Some(inner) = self.lock() else {
            return Json::Null;
        };
        let take = windows.min(inner.sealed.len());
        let slice = &inner.sealed[inner.sealed.len() - take..];
        Json::object(vec![
            ("schema_version", Json::from_u64(SERIES_SCHEMA_VERSION)),
            ("window_ms", Json::from_u64(inner.window_ms)),
            ("capacity", Json::from_usize(inner.capacity)),
            ("windows_sealed", Json::from_u64(inner.sealed_total)),
            (
                "windows",
                Json::Array(
                    slice
                        .iter()
                        .map(|w| w.to_json(&inner.bounds, inner.window_ms))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed_windows(series: &Series, n: usize) -> Vec<Json> {
        series
            .snapshot(n)
            .get("windows")
            .and_then(Json::as_array)
            .unwrap()
            .to_vec()
    }

    #[test]
    fn disabled_series_answers_without_state() {
        let s = Series::disabled();
        assert!(!s.is_enabled());
        s.record_request(200, 1.0);
        s.record_cache(true);
        s.record_solve(0.1, Some(0.2), || vec![("rhs".to_string(), 0.1)]);
        s.record_zone_job(4);
        assert_eq!(s.tick(1_000_000), 0);
        assert_eq!(s.windows_sealed(), 0);
        assert_eq!(s.snapshot(10), Json::Null);
    }

    #[test]
    fn windows_seal_on_boundaries_and_aggregate() {
        let s = Series::enabled(100, 8);
        s.record_request(200, 3.0);
        s.record_request(200, 7.0);
        s.record_request(429, 0.4);
        s.record_cache(true);
        s.record_cache(false);
        s.record_solve(0.25, Some(0.5), || {
            vec![("rhs".to_string(), 0.2), ("update".to_string(), 0.05)]
        });
        s.record_zone_job(4);
        assert_eq!(s.tick(99), 0, "window not over yet");
        assert_eq!(s.tick(100), 1, "boundary seals");
        let w = &sealed_windows(&s, 10)[0];
        assert_eq!(w.get("index").and_then(Json::as_u64), Some(0));
        assert_eq!(w.get("requests").and_then(Json::as_u64), Some(3));
        let by_status = w.get("by_status").unwrap();
        assert_eq!(by_status.get("200").and_then(Json::as_u64), Some(2));
        assert_eq!(by_status.get("429").and_then(Json::as_u64), Some(1));
        let lat = w.get("latency_ms").unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(lat.get("p50").and_then(Json::as_f64), Some(5.0));
        assert_eq!(lat.get("max").and_then(Json::as_f64), Some(7.0));
        let cache = w.get("cache").unwrap();
        assert_eq!(cache.get("hit_rate").and_then(Json::as_f64), Some(0.5));
        assert_eq!(w.get("solves").and_then(Json::as_u64), Some(1));
        let kernels = w.get("kernel_seconds").unwrap();
        assert_eq!(kernels.get("rhs").and_then(Json::as_f64), Some(0.2));
        assert_eq!(
            w.get("sync_fraction_mean").and_then(Json::as_f64),
            Some(0.5)
        );
        let zones = w.get("zones").unwrap();
        assert_eq!(zones.get("jobs").and_then(Json::as_u64), Some(1));
        assert_eq!(zones.get("zones_scheduled").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn quiet_gaps_seal_empty_windows() {
        let s = Series::enabled(10, 16);
        s.record_request(200, 1.0);
        assert_eq!(s.tick(35), 3);
        let windows = sealed_windows(&s, 16);
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].get("requests").and_then(Json::as_u64), Some(1));
        assert_eq!(windows[1].get("requests").and_then(Json::as_u64), Some(0));
        assert_eq!(windows[2].get("start_ms").and_then(Json::as_u64), Some(20));
    }

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let s = Series::enabled(10, 4);
        for i in 0..8u64 {
            s.record_request(200, 1.0);
            s.tick((i + 1) * 10);
        }
        assert_eq!(s.windows_sealed(), 8);
        let windows = sealed_windows(&s, 100);
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[0].get("index").and_then(Json::as_u64), Some(4));
        assert_eq!(windows[3].get("index").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn far_clock_jump_fast_forwards_without_materializing() {
        let s = Series::enabled(10, 4);
        s.record_request(200, 1.0);
        let sealed = s.tick(1_000_000);
        assert_eq!(sealed, 100_000);
        assert_eq!(s.windows_sealed(), 100_000);
        let windows = sealed_windows(&s, 100);
        assert!(windows.len() <= 4);
        // The open window resumes at the correct boundary.
        s.record_request(200, 1.0);
        s.tick(1_000_010);
        let windows = sealed_windows(&s, 100);
        let last = windows.last().unwrap();
        assert_eq!(last.get("start_ms").and_then(Json::as_u64), Some(1_000_000));
        assert_eq!(last.get("requests").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn snapshot_limits_to_requested_windows() {
        let s = Series::enabled(10, 8);
        for i in 0..6u64 {
            s.tick((i + 1) * 10);
        }
        let snap = s.snapshot(2);
        assert_eq!(
            snap.get("schema_version").and_then(Json::as_u64),
            Some(SERIES_SCHEMA_VERSION)
        );
        let windows = snap.get("windows").and_then(Json::as_array).unwrap();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[1].get("index").and_then(Json::as_u64), Some(5));
    }
}
