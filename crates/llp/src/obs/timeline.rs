//! The flight recorder, the suite's one recorder, keeps two stores:
//!
//! * **The coordinator log**, unbounded and written only by the thread
//!   driving the solve: a mark for every span opened and closed
//!   ([`FlightRecorder::span`]) and every region's [`RegionMark`] once
//!   its barrier completes, named after the kernel span open around it
//!   ([`RegionMark::kernel`]) and carrying its lanes' busy time. The
//!   span tree ([`FlightRecorder::take_report`]) is a fold of it, so
//!   structure, counts and chunk timings never depend on the rings.
//! * **The lanes**, fixed-capacity rings of [`TimelineEvent`]s written
//!   lock-free from inside the doacross entry points with relaxed atomic
//!   stores only — **no allocation, no locking**. Each slot holds one
//!   completed interval of one [`EventKind`] — a chunk computed, a
//!   chunk claimed, a barrier waited at, a zone stepped — so a lane
//!   says where its worker's time went without any reader pairing a
//!   start with an end. A ring that wraps loses its oldest intervals,
//!   and [`Timeline::dropped_events`] counts the loss.
//!
//! One ring write per static chunk, two per self-scheduled chunk (its
//! claim and the chunk), one for a claimant's final, empty claim, one
//! barrier wait per lane per region and one per zone task: a chunk's
//! start is only a stamp in the lane's bookkeeping, closed by its end.
//!
//! The report and the timeline drain separate parts of the log
//! (span marks and region marks), so either may be taken first and
//! each covers everything since its own last drain.
//!
//! A disabled recorder (the default) is a `None`: every call is one
//! branch — no allocation, no lock, no clock read.
//!
//! A lane is a *thread* of the region's view, not a chunk: the caller
//! records as lane 0 and the helper standing in for the view's lane `l`
//! as lane `l` (the worker team tells each task which it is). A region
//! that ran narrower than its view — a helper was busy serving another
//! view of the same pool, so the caller ran that helper's chunks too —
//! therefore shows its real width: the uncovered lanes record nothing,
//! and the caller's lane bills those chunks as compute, not as time
//! spent waiting at the barrier.
//!
//! Safety of the lock-free writes rests on two structural facts rather
//! than on `unsafe` (there is none in this module): during a region
//! each lane has exactly one writer (the one thread running as that
//! lane), and the coordinator only reads lanes after the
//! region's barrier — the worker team's release/acquire barrier that
//! *is* the synchronization event (protocol in the `team` module
//! beneath [`crate::pool`]) — so every store happens-before every read,
//! and before the next region's writer of the same lane, which may be a
//! different thread.
//!
//! Setting the environment variable `LLP_FLIGHT=1` enables a recorder
//! on every new [`crate::pool::Workers`] team, which is how CI runs the
//! whole test suite through the instrumented path.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::obs::report::{ObsReport, SpanKind, SpanNode, REPORT_SCHEMA_VERSION};

/// Default per-lane event capacity for [`FlightRecorder::enabled`]
/// callers that have no better number (128 KiB per lane).
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// What a lane spent one interval of its timeline doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Executing chunk `arg` of the region.
    Chunk,
    /// Getting a chunk from the [`crate::ChunkClaimer`]: from the end of
    /// the lane's previous chunk (or its start as a claimant) to the
    /// claim's return (dynamic/guided scheduling only). `arg` is the
    /// chunk the claim won, or [`TimelineEvent::NO_CHUNK`] for the claim
    /// that found the list exhausted — the miss.
    Claim,
    /// Idle from the lane's last interval in the region to the region's
    /// barrier completing (recorded by [`RegionSession::finish`]).
    Barrier,
    /// Stepping zone `arg`; the event's region is the time-step index.
    /// Recorded by the zone-level scheduler, outside any parallel
    /// region.
    Zone,
}

/// Every kind, indexed by its discriminant.
const KINDS: [EventKind; 4] = [
    EventKind::Chunk,
    EventKind::Claim,
    EventKind::Barrier,
    EventKind::Zone,
];

/// Bits of [`TimelineEvent`]'s packed word that hold the region; the
/// kind sits in the byte above them.
const REGION_BITS: u32 = 56;
const REGION_MASK: u64 = (1 << REGION_BITS) - 1;

/// One completed interval on one worker lane — a *slice*, the
/// trace-event format's complete event — in 32 bytes: the kind is
/// packed into the top byte of the region word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Kind-dependent payload: the chunk index of a chunk, the chunk a
    /// claim won, the zone index of a zone, 0 for a barrier wait.
    pub arg: u64,
    /// The kind in the top byte, the region below it.
    tag: u64,
}

impl TimelineEvent {
    /// A [`EventKind::Claim`]'s `arg` when the claim found no chunk.
    pub const NO_CHUNK: u64 = u64::MAX;

    /// A `kind` interval from `start_ns` to `end_ns` in region (or, for
    /// a zone, time step) `region`, of which the low 56 bits are kept.
    #[must_use]
    pub(crate) fn new(kind: EventKind, start_ns: u64, end_ns: u64, arg: u64, region: u64) -> Self {
        debug_assert!(region <= REGION_MASK, "region {region} overflows");
        Self {
            start_ns,
            end_ns,
            arg,
            tag: (kind as u64) << REGION_BITS | (region & REGION_MASK),
        }
    }

    /// Event kind.
    #[must_use]
    pub fn kind(&self) -> EventKind {
        KINDS[(self.tag >> REGION_BITS) as usize]
    }

    /// Sequence number of the region this interval belongs to (the
    /// time-step index for a zone).
    #[must_use]
    pub fn region(&self) -> u64 {
        self.tag & REGION_MASK
    }

    /// Nanoseconds from start to end.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Everything the coordinator knew about one completed region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMark {
    /// Region sequence number (matches [`TimelineEvent::region`]).
    pub seq: u64,
    /// Region entry, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Barrier completion, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Parallel-loop extent.
    pub iterations: u64,
    /// Number of chunks the schedule cut.
    pub chunks: usize,
    /// Lanes that executed the region: the threads that recorded an
    /// interval in it, at most [`RegionMark::workers`] — fewer when a
    /// helper was busy elsewhere or the region had fewer tasks.
    pub lanes: usize,
    /// Worker count of the executing view (the width it asked for).
    pub workers: usize,
    /// Scheduling policy name (`"static"`, `"dynamic"`, `"guided"`).
    pub policy: &'static str,
    /// The innermost kernel span open when the region finished, or
    /// `None` outside every kernel; the regions of one kernel span share
    /// its name.
    pub kernel: Option<Arc<str>>,
    /// Busy nanoseconds of the busiest lane: its chunks plus its claims.
    pub busy_max_ns: u64,
    /// Busy nanoseconds summed over every lane.
    pub busy_sum_ns: u64,
}

impl RegionMark {
    /// Wall nanoseconds from region entry to barrier completion.
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One worker lane drained out of the recorder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaneTimeline {
    /// Captured intervals, oldest first; none overlaps the next.
    pub events: Vec<TimelineEvent>,
    /// Intervals overwritten because the ring filled (oldest are lost).
    pub dropped: u64,
}

/// A drained snapshot of every lane plus the coordinator's region log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// One entry per worker lane, index = lane.
    pub lanes: Vec<LaneTimeline>,
    /// Completed regions in sequence order.
    pub regions: Vec<RegionMark>,
}

impl Timeline {
    /// Total captured intervals across all lanes.
    #[must_use]
    pub fn total_events(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// Total intervals lost to ring overwrite across all lanes.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }

    /// Whether nothing was captured (disabled recorder or no regions).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total_events() == 0 && self.regions.is_empty()
    }
}

/// One lane's ring: a fixed slab of atomic slots plus a monotone head.
///
/// Single-writer during a region; the coordinator reads only after the
/// barrier, so relaxed ordering suffices (visibility rides on the
/// worker team's barrier).
#[derive(Debug)]
struct Lane {
    head: AtomicUsize,
    /// Where this lane's next region interval starts: the stamp of its
    /// last chunk start, chunk end or claim.
    last_ts: AtomicU64,
    /// Region sequence of that stamp + 1 (0 = none).
    last_region: AtomicU64,
    /// Nanoseconds spent in chunks and claims since the last barrier.
    busy_ns: AtomicU64,
    slots: Vec<Slot>,
}

/// One ring slot: a [`TimelineEvent`]'s four words.
#[derive(Debug, Default)]
struct Slot {
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    arg: AtomicU64,
    tag: AtomicU64,
}

impl Lane {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            head: AtomicUsize::new(0),
            last_ts: AtomicU64::new(0),
            last_region: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::default()).collect(),
        }
    }

    /// Append one interval: a head load and four relaxed stores into the
    /// ring slot, then the head store. No allocation, no lock.
    fn write(&self, event: TimelineEvent) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[head % self.slots.len()];
        slot.start_ns.store(event.start_ns, Ordering::Relaxed);
        slot.end_ns.store(event.end_ns, Ordering::Relaxed);
        slot.arg.store(event.arg, Ordering::Relaxed);
        slot.tag.store(event.tag, Ordering::Relaxed);
        self.head.store(head + 1, Ordering::Relaxed);
    }

    /// Mark `ts_ns` in region `region` as where the lane's next interval
    /// starts — and the lane as one that executed the region, which
    /// earns it a barrier wait. Zone intervals, which happen outside any
    /// region, never stamp.
    fn stamp(&self, ts_ns: u64, region: u64) {
        self.last_ts.store(ts_ns, Ordering::Relaxed);
        self.last_region.store(region + 1, Ordering::Relaxed);
    }

    /// Add `ns` to the lane's busy time (single writer: load + store).
    fn add_busy(&self, ns: u64) {
        let busy = self.busy_ns.load(Ordering::Relaxed);
        self.busy_ns.store(busy + ns, Ordering::Relaxed);
    }

    /// The lane's busy time since the last call, which restarts it.
    fn take_busy(&self) -> u64 {
        let busy = self.busy_ns.load(Ordering::Relaxed);
        self.busy_ns.store(0, Ordering::Relaxed);
        busy
    }

    fn drain(&self) -> LaneTimeline {
        let head = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len();
        let kept = head.min(cap);
        let events = ((head - kept)..head)
            .map(|i| {
                let slot = &self.slots[i % cap];
                TimelineEvent {
                    start_ns: slot.start_ns.load(Ordering::Relaxed),
                    end_ns: slot.end_ns.load(Ordering::Relaxed),
                    arg: slot.arg.load(Ordering::Relaxed),
                    tag: slot.tag.load(Ordering::Relaxed),
                }
            })
            .collect();
        self.head.store(0, Ordering::Relaxed);
        self.last_ts.store(0, Ordering::Relaxed);
        self.last_region.store(0, Ordering::Relaxed);
        self.busy_ns.store(0, Ordering::Relaxed);
        LaneTimeline {
            events,
            dropped: (head - kept) as u64,
        }
    }
}

/// One entry of the coordinator log, in the order the coordinator
/// made it.
#[derive(Debug)]
enum Mark {
    /// A span opened.
    Open {
        name: Arc<str>,
        kind: SpanKind,
        ts_ns: u64,
    },
    /// The innermost open span closed.
    Close { ts_ns: u64 },
    /// A region passed its barrier.
    Region(RegionMark),
}

/// The coordinator log.
#[derive(Debug, Default)]
struct Log {
    /// Span and region marks not yet folded into a report.
    marks: Vec<Mark>,
    /// Region marks not yet drained into a timeline.
    regions: Vec<RegionMark>,
    /// The spans open now, innermost last: where a region finds its
    /// kernel.
    open: Vec<(SpanKind, Arc<str>)>,
}

#[derive(Debug)]
struct FlightState {
    epoch: Instant,
    lanes: Vec<Lane>,
    region_seq: AtomicU64,
    log: Mutex<Log>,
}

impl FlightState {
    fn now_ns(&self) -> u64 {
        // Instant is monotone and the epoch precedes every call, so the
        // u128 → u64 narrowing is safe for ~584 years of uptime.
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Lock the log, tolerating poison: a panicking job must not take
    /// the recorder down, and every mutation is a single push or swap.
    fn log(&self) -> MutexGuard<'_, Log> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[allow(clippy::cast_precision_loss)]
fn seconds(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// A region's span node, read off its mark. Its tasks are
/// `workers.min(chunks)` under every policy: one per chunk under static
/// scheduling, whose chunks never outnumber the workers, and one per
/// claimant under self-scheduling.
fn region_node(region: &RegionMark) -> SpanNode {
    let mut node = SpanNode::new("region", SpanKind::Region);
    node.seconds = seconds(region.wall_ns());
    node.workers = region.workers;
    node.iterations = region.iterations;
    node.chunk_count = region.workers.min(region.chunks);
    node.sync_events = 1;
    node.chunk_max_seconds = seconds(region.busy_max_ns);
    #[allow(clippy::cast_precision_loss)]
    let tasks = node.chunk_count.max(1) as f64;
    node.chunk_mean_seconds = seconds(region.busy_sum_ns) / tasks;
    node
}

/// Handle to a coordinator log and per-worker event rings; clones
/// share them, so one recorder can be threaded through a pool and all
/// its views.
///
/// A default-constructed / `disabled()` recorder holds nothing: every
/// call is one branch. One coordinator thread opens spans and runs
/// regions per recorder, one region at a time (concurrent solves must
/// use distinct recorders, as the serve layer's executors do).
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<FlightState>>,
}

impl FlightRecorder {
    /// The disabled recorder: records nothing, allocates nothing.
    #[must_use]
    pub const fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled recorder with `lanes` worker lanes of
    /// `capacity_per_lane` event slots each, allocated up front so the
    /// recording path never allocates.
    ///
    /// # Panics
    /// Panics if `lanes == 0` or `capacity_per_lane == 0`.
    #[must_use]
    pub fn enabled(lanes: usize, capacity_per_lane: usize) -> Self {
        assert!(lanes > 0, "flight recorder needs at least one lane");
        assert!(capacity_per_lane > 0, "lane capacity must be positive");
        Self {
            inner: Some(Arc::new(FlightState {
                epoch: Instant::now(),
                lanes: (0..lanes)
                    .map(|_| Lane::with_capacity(capacity_per_lane))
                    .collect(),
                region_seq: AtomicU64::new(0),
                log: Mutex::default(),
            })),
        }
    }

    /// Whether events are being captured.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span of `kind` named `name`; it closes when the returned
    /// guard drops, so bind the guard to a variable (`let _span = …`),
    /// not to `_`. Spans nest by open/close order.
    pub fn span(&self, name: &str, kind: SpanKind) -> OpenSpan<'_> {
        let state = self.inner.as_deref();
        if let Some(state) = state {
            let name: Arc<str> = name.into();
            let ts_ns = state.now_ns();
            let mut log = state.log();
            log.open.push((kind, name.clone()));
            log.marks.push(Mark::Open { name, kind, ts_ns });
        }
        OpenSpan { state }
    }

    /// Open a recording session for one parallel region of a
    /// `workers`-wide view, or `None` when disabled — the one branch the
    /// disabled hot path pays. Called by the doacross entry points right
    /// before entering the region; [`RegionSession::finish`] must be
    /// called after the barrier.
    #[must_use]
    pub fn begin_region(
        &self,
        workers: usize,
        iterations: u64,
        chunks: usize,
        policy: &'static str,
    ) -> Option<RegionSession<'_>> {
        let state = self.inner.as_ref()?;
        let seq = state.region_seq.fetch_add(1, Ordering::Relaxed);
        Some(RegionSession {
            state,
            seq,
            start_ns: state.now_ns(),
            workers,
            iterations,
            chunks,
            policy,
        })
    }

    /// Run `step_zone` as lane `lane`'s (the team lane running the zone
    /// task) stepping of zone `zone` in time step `step`, and record it
    /// as one [`EventKind::Zone`] interval. Zone intervals are recorded
    /// by [`crate::zones::run_sharded`] outside any recorded region, so
    /// they leave the barrier-wait bookkeeping alone and carry the step
    /// index as their region. A lane beyond the recorder's (a recorder
    /// narrower than its pool) records nothing; a disabled recorder is
    /// one branch.
    pub fn zone<R>(&self, lane: usize, zone: u64, step: u64, step_zone: impl FnOnce() -> R) -> R {
        let Some(state) = &self.inner else {
            return step_zone();
        };
        let start_ns = state.now_ns();
        let out = step_zone();
        if let Some(lane) = state.lanes.get(lane) {
            let end_ns = state.now_ns();
            lane.write(TimelineEvent::new(
                EventKind::Zone,
                start_ns,
                end_ns,
                zone,
                step,
            ));
        }
        out
    }

    /// Drain the log's span and region marks into the span tree of
    /// everything recorded since the last report, stamped with the
    /// current schema version. The lanes and the timeline's region marks
    /// are left for [`FlightRecorder::take_timeline`]. A disabled
    /// recorder yields an empty report.
    ///
    /// Calling this while a span is still open is a drop-ordering bug
    /// in the caller: the open spans' subtrees cannot be completed and
    /// are left out. Debug builds panic (via `debug_assert!`) to flush
    /// the bug out; release builds warn on stderr and return the
    /// completed roots.
    ///
    /// # Panics
    /// In debug builds, panics if called while a span is open.
    #[must_use]
    pub fn take_report(&self, case: &str, workers: usize) -> ObsReport {
        let mut report = ObsReport {
            schema_version: REPORT_SCHEMA_VERSION,
            source: "measured".to_string(),
            case: case.to_string(),
            workers,
            requested_workers: None,
            spans: Vec::new(),
        };
        let Some(state) = &self.inner else {
            return report;
        };
        let marks = std::mem::take(&mut state.log().marks);
        let mut open: Vec<(SpanNode, u64)> = Vec::new();
        for mark in marks {
            let node = match mark {
                Mark::Open { name, kind, ts_ns } => {
                    open.push((SpanNode::new(&name, kind), ts_ns));
                    continue;
                }
                Mark::Close { ts_ns } => {
                    let Some((mut node, start)) = open.pop() else {
                        continue;
                    };
                    node.seconds = seconds(ts_ns.saturating_sub(start));
                    node
                }
                Mark::Region(region) => region_node(&region),
            };
            match open.last_mut() {
                Some((parent, _)) => parent.children.push(node),
                None => report.spans.push(node),
            }
        }
        if !open.is_empty() {
            let open = open.len();
            debug_assert!(false, "take_report called with {open} span(s) still open");
            eprintln!(
                "llp::obs: take_report called with {open} span(s) still open; \
                 their subtrees are left out of the report"
            );
        }
        report
    }

    /// Drain every lane and the log's region marks into a [`Timeline`]
    /// (the recorder stays enabled). A disabled recorder yields an
    /// empty timeline.
    ///
    /// Must not be called while a region is recording.
    #[must_use]
    pub fn take_timeline(&self) -> Timeline {
        let Some(state) = &self.inner else {
            return Timeline::default();
        };
        let lanes = state.lanes.iter().map(Lane::drain).collect();
        let mut regions = std::mem::take(&mut state.log().regions);
        regions.sort_by_key(|r| r.seq);
        state.region_seq.store(0, Ordering::Relaxed);
        Timeline { lanes, regions }
    }

    /// Discard everything recorded so far — the log, open spans
    /// included, and every lane. The recovery path after a panicking
    /// job: its partial recording must not leak into the next report.
    pub fn reset(&self) {
        if let Some(state) = &self.inner {
            *state.log() = Log::default();
        }
        drop(self.take_timeline());
    }
}

/// A span open in the coordinator log: dropping it logs the close.
#[derive(Debug)]
#[must_use = "a span closes when its guard drops"]
pub struct OpenSpan<'a> {
    state: Option<&'a FlightState>,
}

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        if let Some(state) = self.state {
            let ts_ns = state.now_ns();
            let mut log = state.log();
            log.open.pop();
            log.marks.push(Mark::Close { ts_ns });
        }
    }
}

/// An open recording session for one parallel region.
///
/// Shared by reference with every task of the region: all methods take
/// `&self` and touch only the caller's own lane, so the tasks never
/// contend. [`RegionSession::finish`] (coordinator, after the barrier)
/// attributes each lane's tail idle time as its barrier wait and logs
/// the region mark.
#[derive(Debug)]
pub struct RegionSession<'a> {
    state: &'a FlightState,
    seq: u64,
    start_ns: u64,
    workers: usize,
    iterations: u64,
    chunks: usize,
    policy: &'static str,
}

impl RegionSession<'_> {
    /// Lane `lane`'s ring, if the recorder has one that wide.
    fn lane(&self, lane: usize) -> Option<&Lane> {
        self.state.lanes.get(lane)
    }

    /// Write a `kind` interval from the lane's last stamp to now, or
    /// from `since_ns` when given, bill it as busy time and stamp its
    /// end, where the lane's next interval starts. Returns the end.
    fn end_interval(&self, lane: usize, kind: EventKind, since_ns: Option<u64>, arg: u64) -> u64 {
        let now_ns = self.now_ns();
        if let Some(lane) = self.lane(lane) {
            let start_ns = since_ns.unwrap_or_else(|| lane.last_ts.load(Ordering::Relaxed));
            lane.add_busy(now_ns.saturating_sub(start_ns));
            lane.write(TimelineEvent::new(kind, start_ns, now_ns, arg, self.seq));
            lane.stamp(now_ns, self.seq);
        }
        now_ns
    }

    /// Nanoseconds since the recorder's epoch: where a claimant's first
    /// [`RegionSession::claimed`] counts from.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.state.now_ns()
    }

    /// Lane `lane` began executing a chunk: stamps where the chunk's
    /// interval starts, writing nothing (the chunk is named at its end).
    pub fn chunk_start(&self, lane: usize) {
        if let Some(lane) = self.lane(lane) {
            lane.stamp(self.now_ns(), self.seq);
        }
    }

    /// Lane `lane` finished executing chunk `chunk`, which started at
    /// the lane's last stamp: one [`EventKind::Chunk`] interval, whose
    /// time adds to the lane's busy time. Returns its end — a
    /// self-scheduled lane's next claim starts there.
    pub fn chunk_end(&self, lane: usize, chunk: usize) -> u64 {
        self.end_interval(lane, EventKind::Chunk, None, chunk as u64)
    }

    /// One self-scheduled claim by lane `lane`, begun at `since_ns` (the
    /// lane's previous [`RegionSession::chunk_end`], or
    /// [`RegionSession::now_ns`] before its first) and ended now, on one
    /// clock read: one [`EventKind::Claim`] interval naming the chunk it
    /// won — whose interval starts where the claim ends — or, for
    /// `None`, [`TimelineEvent::NO_CHUNK`].
    pub fn claimed(&self, lane: usize, since_ns: u64, chunk: Option<usize>) {
        let won = chunk.map_or(TimelineEvent::NO_CHUNK, |chunk| chunk as u64);
        self.end_interval(lane, EventKind::Claim, Some(since_ns), won);
    }

    /// Close the region: called by the coordinator after the barrier.
    /// Writes an [`EventKind::Barrier`] interval to every lane that
    /// executed the region (from the lane's last stamp to barrier
    /// completion — the time that lane sat idle waiting for the
    /// stragglers) and logs the [`RegionMark`] with that executed width.
    pub fn finish(self) {
        let end_ns = self.state.now_ns();
        let (mut lanes, mut busy_max_ns, mut busy_sum_ns) = (0, 0, 0);
        for lane in self.state.lanes.iter().take(self.workers) {
            let busy = lane.take_busy();
            busy_max_ns = busy_max_ns.max(busy);
            busy_sum_ns += busy;
            // Only lanes that stamped in *this* region get a barrier
            // wait; `last_region` stores seq + 1 so lane 0 of region 0 is
            // distinguishable from "never stamped".
            if lane.last_region.load(Ordering::Relaxed) == self.seq + 1 {
                let start_ns = lane.last_ts.load(Ordering::Relaxed);
                lane.write(TimelineEvent::new(
                    EventKind::Barrier,
                    start_ns,
                    end_ns,
                    0,
                    self.seq,
                ));
                lanes += 1;
            }
        }
        let mut log = self.state.log();
        let kernel = log
            .open
            .iter()
            .rev()
            .find(|(kind, _)| *kind == SpanKind::Kernel)
            .map(|(_, name)| name.clone());
        let region = RegionMark {
            seq: self.seq,
            start_ns: self.start_ns,
            end_ns,
            iterations: self.iterations,
            chunks: self.chunks,
            lanes,
            workers: self.workers,
            policy: self.policy,
            kernel,
            busy_max_ns,
            busy_sum_ns,
        };
        log.regions.push(region.clone());
        log.marks.push(Mark::Region(region));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(events: &[TimelineEvent]) -> Vec<EventKind> {
        events.iter().map(TimelineEvent::kind).collect()
    }

    #[test]
    fn a_slot_and_a_drained_interval_are_32_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 32);
        assert_eq!(std::mem::size_of::<TimelineEvent>(), 32);
        // The packed word round-trips every kind and a 56-bit region.
        for kind in KINDS {
            let e = TimelineEvent::new(kind, 3, 5, 7, REGION_MASK);
            assert_eq!((e.kind(), e.region(), e.dur_ns()), (kind, REGION_MASK, 2));
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let fr = FlightRecorder::disabled();
        assert!(!fr.is_enabled());
        assert!(fr.begin_region(2, 10, 2, "static").is_none());
        assert_eq!(fr.zone(0, 0, 0, || 7), 7);
        assert!(fr.take_timeline().is_empty());
    }

    #[test]
    fn records_events_per_lane_and_region() {
        let fr = FlightRecorder::enabled(2, 64);
        let s = fr.begin_region(2, 100, 2, "static").unwrap();
        s.chunk_start(0);
        s.chunk_end(0, 0);
        s.chunk_start(1);
        s.chunk_end(1, 1);
        s.finish();
        let t = fr.take_timeline();
        assert_eq!(t.lanes.len(), 2);
        for (lane, data) in t.lanes.iter().enumerate() {
            // One write per static chunk, one per barrier wait, and the
            // wait starts where the chunk ended.
            assert_eq!(kinds(&data.events), [EventKind::Chunk, EventKind::Barrier]);
            let [chunk, barrier] = [data.events[0], data.events[1]];
            assert_eq!((chunk.arg, chunk.region()), (lane as u64, 0));
            assert!(chunk.start_ns <= chunk.end_ns);
            assert_eq!(barrier.start_ns, chunk.end_ns);
            assert_eq!(barrier.end_ns, t.regions[0].end_ns);
        }
        assert_eq!(t.regions.len(), 1);
        assert_eq!(t.regions[0].seq, 0);
        assert_eq!(t.regions[0].iterations, 100);
        assert!(t.regions[0].end_ns >= t.regions[0].start_ns);
        // Drained: the next timeline is empty and seq restarts at 0.
        assert!(fr.take_timeline().is_empty());
        let s = fr.begin_region(2, 1, 1, "static").unwrap();
        assert_eq!(s.seq, 0);
        s.finish();
    }

    #[test]
    fn a_claim_and_its_outcome_share_one_stamp() {
        let fr = FlightRecorder::enabled(1, 16);
        let s = fr.begin_region(1, 2, 2, "dynamic").unwrap();
        let from = s.now_ns();
        s.claimed(0, from, Some(1));
        let end = s.chunk_end(0, 1);
        s.claimed(0, end, None);
        s.finish();
        let events = fr.take_timeline().lanes.remove(0).events;
        // Two writes for the self-scheduled chunk, one for the final
        // claim, one for the barrier.
        assert_eq!(
            kinds(&events),
            [
                EventKind::Claim,
                EventKind::Chunk,
                EventKind::Claim,
                EventKind::Barrier,
            ]
        );
        // The claim runs from the stamp the caller handed in and ends
        // where the chunk it won starts; the next one runs from the
        // chunk's end and wins nothing.
        assert_eq!(events[0].start_ns, from);
        assert_eq!(events[0].end_ns, events[1].start_ns);
        assert_eq!((events[0].arg, events[1].arg), (1, 1));
        assert_eq!(events[1].end_ns, end);
        assert_eq!(events[2].start_ns, end);
        assert_eq!(events[2].arg, TimelineEvent::NO_CHUNK);
        assert_eq!(events[3].start_ns, events[2].end_ns);
    }

    #[test]
    fn idle_lanes_get_no_barrier_wait() {
        let fr = FlightRecorder::enabled(4, 16);
        let s = fr.begin_region(4, 10, 2, "static").unwrap();
        s.chunk_start(0);
        s.chunk_end(0, 0);
        // Lane 1 participates but records nothing; lanes 2, 3 unused.
        s.finish();
        let t = fr.take_timeline();
        // One lane executed the region of a four-wide view.
        assert_eq!((t.regions[0].lanes, t.regions[0].workers), (1, 4));
        assert_eq!(t.lanes[0].events.len(), 2);
        assert!(t.lanes[1].events.is_empty());
        assert!(t.lanes[2].events.is_empty());
        assert!(t.lanes[3].events.is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let fr = FlightRecorder::enabled(1, 4);
        let s = fr.begin_region(1, 10, 10, "static").unwrap();
        for c in 0..5 {
            s.chunk_start(0);
            s.chunk_end(0, c);
        }
        s.finish(); // +1 barrier wait = 6 intervals into a 4-slot ring
        let t = fr.take_timeline();
        assert_eq!(t.lanes[0].events.len(), 4);
        assert_eq!(t.lanes[0].dropped, 2);
        assert_eq!(t.dropped_events(), 2);
        // The newest intervals survive.
        assert_eq!(t.lanes[0].events[3].kind(), EventKind::Barrier);
        assert_eq!(t.lanes[0].events[2].arg, 4);
    }

    #[test]
    fn clones_share_rings() {
        let fr = FlightRecorder::enabled(1, 8);
        let clone = fr.clone();
        let s = clone.begin_region(1, 1, 1, "static").unwrap();
        s.chunk_start(0);
        s.chunk_end(0, 0);
        s.finish();
        assert_eq!(fr.take_timeline().total_events(), 2);
    }

    #[test]
    fn out_of_range_lane_is_ignored() {
        let fr = FlightRecorder::enabled(1, 8);
        let s = fr.begin_region(1, 1, 1, "static").unwrap();
        s.chunk_start(7); // defensive: silently dropped
        s.chunk_end(7, 0);
        s.claimed(7, 0, None);
        s.finish();
        let t = fr.take_timeline();
        assert_eq!(t.total_events(), 0);
        assert_eq!(t.regions.len(), 1);
    }

    #[test]
    fn drained_timeline_keeps_lanes_events_and_policy() {
        let fr = FlightRecorder::enabled(1, 8);
        let s = fr.begin_region(1, 5, 1, "guided").unwrap();
        s.chunk_start(0);
        s.chunk_end(0, 0);
        s.finish();
        let t = fr.take_timeline();
        assert_eq!(t.lanes.len(), 1);
        assert_eq!(t.lanes[0].events.len(), 2);
        assert_eq!(t.regions[0].policy, "guided");
    }

    #[test]
    fn zone_events_do_not_fabricate_barrier_waits() {
        let fr = FlightRecorder::enabled(2, 16);
        // A zone task on lane 1 whose step index collides with the
        // sequence number of a region run inside it...
        fr.zone(1, 3, 0, || {
            let s = fr.begin_region(2, 10, 2, "static").unwrap();
            s.chunk_start(0);
            s.chunk_end(0, 0);
            s.finish();
        });
        let t = fr.take_timeline();
        // ...must not earn lane 1 a barrier wait: only lane 0 (which
        // really executed the region) gets one.
        assert_eq!(kinds(&t.lanes[1].events), [EventKind::Zone]);
        let zone = t.lanes[1].events[0];
        assert_eq!((zone.arg, zone.region()), (3, 0));
        assert!(zone.start_ns <= t.regions[0].start_ns);
        assert!(zone.end_ns >= t.regions[0].end_ns);
        assert_eq!(t.lanes[0].events.len(), 2);
        // Out-of-range lanes are inert.
        fr.zone(9, 0, 0, || ());
        assert_eq!(fr.take_timeline().total_events(), 0);
    }

    #[test]
    fn zone_events_drain_in_order() {
        let fr = FlightRecorder::enabled(1, 8);
        fr.zone(0, 2, 5, || ());
        fr.zone(0, 4, 6, || ());
        let events = fr.take_timeline().lanes.remove(0).events;
        // One write per zone task.
        assert_eq!(kinds(&events), [EventKind::Zone, EventKind::Zone]);
        let zones: Vec<(u64, u64)> = events.iter().map(|e| (e.arg, e.region())).collect();
        assert_eq!(zones, [(2, 5), (4, 6)]);
        assert!(events[0].end_ns <= events[1].start_ns);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_panics() {
        let _ = FlightRecorder::enabled(0, 8);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = FlightRecorder::enabled(1, 0);
    }

    /// One region of `chunks` static chunks, all on lane 0.
    fn static_region(fr: &FlightRecorder, chunks: usize) {
        let s = fr.begin_region(2, 90, chunks, "static").unwrap();
        for c in 0..chunks {
            s.chunk_start(0);
            s.chunk_end(0, c);
        }
        s.finish();
    }

    #[test]
    fn spans_and_regions_fold_into_one_tree() {
        let fr = FlightRecorder::enabled(2, 64);
        {
            let _step = fr.span("step", SpanKind::Step);
            {
                let _zone = fr.span("zone1", SpanKind::Zone);
                let _kernel = fr.span("rhs", SpanKind::Kernel);
                static_region(&fr, 2);
            }
            let _zone = fr.span("zone2", SpanKind::Zone);
        }
        let report = fr.take_report("nest", 2);
        assert_eq!((report.case.as_str(), report.workers), ("nest", 2));
        assert_eq!(report.spans.len(), 1);
        let step = &report.spans[0];
        let names: Vec<&str> = step.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["zone1", "zone2"]);
        let rhs = &step.children[0].children[0];
        assert_eq!((rhs.name.as_str(), rhs.kind), ("rhs", SpanKind::Kernel));
        let region = &rhs.children[0];
        assert_eq!(region.kind, SpanKind::Region);
        assert_eq!((region.workers, region.iterations), (2, 90));
        assert_eq!((region.chunk_count, region.sync_events), (2, 1));
        // Lane 0 ran both chunks: the longest lane is all of it.
        assert!(region.chunk_max_seconds > 0.0);
        assert!((region.imbalance() - 2.0).abs() < 1e-9);
        assert!(step.seconds >= rhs.seconds && rhs.seconds >= region.seconds);
        assert_eq!(report.sync_events(), 1);
        // The report drained its marks; the timeline still covers the
        // same region and names its kernel.
        assert!(fr.take_report("again", 2).spans.is_empty());
        let t = fr.take_timeline();
        assert_eq!(t.regions.len(), 1);
        assert_eq!(t.regions[0].kernel.as_deref(), Some("rhs"));
        assert!(fr.take_timeline().regions.is_empty());
    }

    #[test]
    fn the_timeline_may_be_taken_before_the_report() {
        let fr = FlightRecorder::enabled(1, 16);
        {
            let _kernel = fr.span("update", SpanKind::Kernel);
            static_region(&fr, 1);
        }
        let t = fr.take_timeline();
        assert_eq!(t.regions[0].kernel.as_deref(), Some("update"));
        let report = fr.take_report("late", 1);
        let region = &report.spans[0].children[0];
        assert_eq!(region.kind, SpanKind::Region);
        assert!(region.chunk_max_seconds > 0.0);
    }

    #[test]
    fn a_self_scheduled_region_counts_its_claimants() {
        let fr = FlightRecorder::enabled(3, 64);
        let s = fr.begin_region(3, 60, 12, "dynamic").unwrap();
        s.claimed(0, s.now_ns(), Some(0));
        s.chunk_end(0, 0);
        s.finish();
        let region = &fr.take_report("dyn", 3).spans[0];
        assert_eq!(region.chunk_count, 3);
        assert_eq!(fr.take_timeline().regions[0].kernel, None);
    }

    #[test]
    fn ring_loss_changes_no_node_and_no_timing() {
        // Three intervals per region into a four-slot ring: region 0
        // keeps only its barrier wait in the ring, region 1 everything.
        let fr = FlightRecorder::enabled(1, 4);
        static_region(&fr, 2);
        static_region(&fr, 2);
        let report = fr.take_report("wrapped", 1);
        let [lost, kept] = &report.spans[..] else {
            panic!("two regions");
        };
        assert_eq!((lost.chunk_count, kept.chunk_count), (2, 2));
        assert!(lost.chunk_max_seconds > 0.0);
        assert!(kept.chunk_max_seconds > 0.0);
        assert_eq!(fr.take_timeline().dropped_events(), 2);
    }

    /// Taking a report while a span is open is a drop-ordering bug:
    /// debug builds panic…
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "still open")]
    fn report_with_open_span_panics_in_debug() {
        let fr = FlightRecorder::enabled(1, 16);
        let _open = fr.span("step", SpanKind::Step);
        let _ = fr.take_report("bad", 1);
    }

    /// …release builds warn and leave the open span's subtree out; its
    /// close, logged later, closes nothing in the next report.
    #[cfg(not(debug_assertions))]
    #[test]
    fn report_with_open_span_is_tolerated_in_release() {
        let fr = FlightRecorder::enabled(1, 16);
        static_region(&fr, 1);
        let straggler = fr.span("step", SpanKind::Step);
        static_region(&fr, 1);
        let report = fr.take_report("tolerated", 1);
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].kind, SpanKind::Region);
        drop(straggler);
        static_region(&fr, 1);
        let report = fr.take_report("next", 1);
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].kind, SpanKind::Region);
        // The timeline still holds all three regions.
        assert_eq!(fr.take_timeline().regions.len(), 3);
    }

    #[test]
    fn reset_discards_the_log_and_the_lanes() {
        let fr = FlightRecorder::enabled(1, 16);
        static_region(&fr, 1);
        let open = fr.span("step", SpanKind::Step);
        fr.reset();
        drop(open);
        assert!(fr.take_report("after-reset", 1).spans.is_empty());
        assert!(fr.take_timeline().is_empty());
        // Disabled: spans and reports are inert.
        let off = FlightRecorder::disabled();
        drop(off.span("step", SpanKind::Step));
        off.reset();
        assert!(off.take_report("off", 1).spans.is_empty());
    }
}
