//! Telemetry windows behind `GET /v1/stats`: a window is the difference
//! of two snapshots of the [`crate::metrics`] table.
//!
//! Counters answer "how much since boot"; a window answers "how much
//! *lately*" the way the paper's tools do — read the counters at two
//! instants and subtract. Time is cut into fixed windows (e.g. 10 s ×
//! 120 windows = 20 minutes of history). A caller-driven
//! [`Windows::tick`] takes one [`Snapshot`] when the clock crosses a
//! boundary and keeps it; a sealed window is the difference of the
//! snapshots at its two ends ([`Snapshot::since`]), rendered by the one
//! renderer `/metrics?format=json` uses. Nothing is counted here: every
//! event is counted once, in [`crate::metrics::Metrics`], so a row
//! added there windows itself. Nothing in here reads a clock either:
//! the caller supplies monotonic milliseconds (the serve event loop
//! feeds its poll-tick clock), which keeps the ring deterministic under
//! test.

use crate::lock;
use crate::metrics::Snapshot;
use llp::obs::json::Json;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Schema version stamped into [`Windows::to_json`] output.
pub const SCHEMA_VERSION: u64 = 2;

/// Default window length: 10 seconds.
pub const DEFAULT_WINDOW_MS: u64 = 10_000;

/// Default ring capacity: 120 windows (20 minutes at 10 s).
pub const DEFAULT_CAPACITY: usize = 120;

/// A fixed-capacity ring of window boundaries.
#[derive(Debug)]
pub struct Windows {
    window_ms: u64,
    capacity: usize,
    ring: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    /// Index of the open window, which starts at `open * window_ms`;
    /// also the number of windows ever sealed.
    open: u64,
    /// The snapshots at the boundaries of the retained windows, oldest
    /// first: the start of the oldest retained window through the start
    /// of the open one. At most `capacity + 1`; consecutive pairs are
    /// the sealed windows. A quiet gap repeats one snapshot.
    boundaries: VecDeque<Arc<Snapshot>>,
}

impl Windows {
    /// A ring cutting time into `window_ms`-long windows from 0, when
    /// the table read `origin`, and retaining the most recent
    /// `capacity` sealed windows.
    ///
    /// # Panics
    /// Panics if `window_ms` or `capacity` is zero.
    #[must_use]
    pub fn new(window_ms: u64, capacity: usize, origin: Snapshot) -> Self {
        assert!(window_ms > 0, "telemetry window must be positive");
        assert!(capacity > 0, "telemetry capacity must be positive");
        Self {
            window_ms,
            capacity,
            ring: Mutex::new(Ring {
                open: 0,
                boundaries: VecDeque::from([Arc::new(origin)]),
            }),
        }
    }

    /// Advance the clock to `now_ms`, sealing every window whose end has
    /// passed with one snapshot from `take` (not called when nothing
    /// seals). What happened since the last seal lands in the first
    /// window sealed; the rest of a quiet gap seals as empty windows, so
    /// the ring stays a contiguous timeline. A clock jump longer than
    /// the ring materializes no more than it can retain. Returns the
    /// number of windows sealed by this call.
    pub fn tick(&self, now_ms: u64, take: impl FnOnce() -> Snapshot) -> u64 {
        let mut ring = lock(&self.ring);
        let due = (now_ms / self.window_ms).saturating_sub(ring.open);
        if due == 0 {
            return 0;
        }
        let end = Arc::new(take());
        // Boundaries beyond `capacity + 1` would only be evicted again.
        let kept = due.min(self.capacity as u64 + 1);
        for _ in 0..kept {
            ring.boundaries.push_back(Arc::clone(&end));
        }
        let excess = ring.boundaries.len().saturating_sub(self.capacity + 1);
        ring.boundaries.drain(..excess);
        ring.open += due;
        due
    }

    /// Total windows sealed (including evicted ones).
    #[must_use]
    pub fn windows_sealed(&self) -> u64 {
        lock(&self.ring).open
    }

    /// Versioned JSON of the newest `newest` sealed windows, oldest
    /// first. A window is `index`, `start_ms`, `end_ms`, every key of
    /// the `/metrics` JSON document over the window, and its pooled
    /// `sync_fraction` (`null` when no solve was attributed in it).
    #[must_use]
    pub fn to_json(&self, newest: usize) -> Json {
        let ring = lock(&self.ring);
        let sealed = ring.boundaries.len() - 1;
        let first = ring.open - sealed as u64;
        let windows = (sealed - newest.min(sealed)..sealed)
            .map(|i| {
                let index = first + i as u64;
                let window = ring.boundaries[i + 1].since(&ring.boundaries[i]);
                let start_ms = index * self.window_ms;
                let mut members = vec![
                    ("index".to_string(), Json::from_u64(index)),
                    ("start_ms".to_string(), Json::from_u64(start_ms)),
                    (
                        "end_ms".to_string(),
                        Json::from_u64(start_ms + self.window_ms),
                    ),
                ];
                if let Json::Object(keys) = window.to_json() {
                    members.extend(keys);
                }
                let sync = window.sync_fraction().map_or(Json::Null, Json::Num);
                members.push(("sync_fraction".to_string(), sync));
                Json::Object(members)
            })
            .collect();
        Json::object(vec![
            ("schema_version", Json::from_u64(SCHEMA_VERSION)),
            ("window_ms", Json::from_u64(self.window_ms)),
            ("capacity", Json::from_usize(self.capacity)),
            ("windows_sealed", Json::from_u64(ring.open)),
            ("windows", Json::Array(windows)),
        ])
    }
}
