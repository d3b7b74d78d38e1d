//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's side of every call into a
//! layer (name, start, end, parent, one id per run or request), kept in
//! memory for the whole pass, and written once at exit as Chrome
//! trace-event JSON. Nothing here reaches into the program under test.

use llp::obs::json::Json;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `None` only for the root.
    pub parent: Option<SpanId>,
    /// Shared by every span of one run or one request.
    pub trace: u64,
    /// Recording thread, the Chrome `tid`.
    pub tid: u32,
}

/// A span list with a common epoch. Client threads record into a
/// [`Tracer::fork`] of their own and the owner [`Tracer::absorb`]s it
/// afterwards, so recording takes no lock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    /// Parent given to spans a fork records at its top level.
    adopt: Option<SpanId>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            tid: 0,
            adopt: None,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a finished span. `parent` indexes this tracer; `None`
    /// means the root (or, in a fork, the span the fork hangs under).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        trace: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            trace,
            tid: self.tid,
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, trace: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, trace, now, now)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// An empty tracer on the same epoch for thread `tid`, whose
    /// top-level spans will hang under `parent` once absorbed.
    pub fn fork(&self, tid: u32, parent: SpanId) -> Tracer {
        Tracer {
            epoch: self.epoch,
            tid,
            adopt: Some(parent),
            spans: Vec::new(),
        }
    }

    pub fn absorb(&mut self, fork: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(fork.spans.into_iter().map(|mut s| {
            s.parent = match s.parent {
                Some(local) => Some(local + offset),
                None => fork.adopt,
            };
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event document of the first `limit` spans: one
    /// complete (`ph: "X"`) event per span, times in microseconds, the
    /// span's own id, its parent's and its run/request id under `args`.
    /// A parent is always recorded before its children, so a prefix
    /// keeps every written span's parent.
    pub fn to_chrome(&self, limit: usize) -> Json {
        let events = self
            .spans
            .iter()
            .take(limit)
            .enumerate()
            .map(|(id, s)| {
                Json::object(vec![
                    ("name", Json::str(s.name)),
                    ("cat", Json::str("benchmark")),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::from_u64(u64::from(s.tid))),
                    (
                        "args",
                        Json::object(vec![
                            ("id", Json::from_usize(id)),
                            ("parent", s.parent.map_or(Json::Null, Json::from_usize)),
                            ("trace", Json::from_u64(s.trace)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::object(vec![
            ("traceEvents", Json::Array(events)),
            ("displayTimeUnit", Json::str("ns")),
            ("spansRecorded", Json::from_usize(self.spans.len())),
        ])
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover. Children may overlap one
/// another (client threads under one root), so their union is taken,
/// clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (start, end) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            trace: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            // Two sequential children and one overlapping both.
            span(10, 30, Some(0)),
            span(40, 60, Some(0)),
            span(20, 50, Some(0)),
            // A grandchild only reduces its own parent.
            span(12, 20, Some(1)),
            // A child sticking out of its parent is clipped to it.
            span(90, 140, Some(0)),
        ];
        let own = self_times(&spans);
        // Root: 100 - ([10,60] ∪ [90,100]) = 100 - 60 = 40.
        assert_eq!(own, vec![40, 12, 20, 30, 8, 50]);
    }

    #[test]
    fn forks_hang_under_the_span_they_were_forked_at() {
        let mut main = Tracer::new();
        let root = main.begin("workload", None, 0);
        let mut fork = main.fork(3, root);
        let request = fork.begin("request", None, 7);
        let send = fork.begin("send", Some(request), 7);
        fork.end(send);
        fork.end(request);
        main.absorb(fork);
        main.end(root);
        let spans = main.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!((spans[1].tid, spans[1].trace), (3, 7));
        let orphans = spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(orphans, 1, "only the root has no parent");
        let doc = main.to_chrome(usize::MAX);
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("ph").and_then(Json::as_str), Some("X"));
    }
}
