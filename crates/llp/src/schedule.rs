//! Static chunked scheduling.
//!
//! The paper's speedup analysis (Table 3, Figure 1) assumes the
//! vendor `C$doacross` behaviour: `N` iterations are divided into at
//! most `P` contiguous chunks, the largest holding `ceil(N / P)`
//! iterations. The runtime of the region is then proportional to the
//! largest chunk, producing the stair-step curve. This module computes
//! those chunk bounds; [`mod@crate::doacross`] executes them.

use std::ops::Range;

/// Divide `0..n` into at most `p` contiguous chunks with the block-static
/// rule: the first `n % p` chunks get `ceil(n/p)` iterations, the rest
/// `floor(n/p)`. Chunks that would be empty are omitted.
///
/// Guarantees, relied on by tests and by `perfmodel`:
/// * the chunks exactly tile `0..n` in order;
/// * no chunk is empty (in particular `p > n` yields `n` unit chunks,
///   never zero-length trailing ranges that would skew imbalance
///   metrics);
/// * `max(len) == ceil(n / p)` and `min(len) >= floor(n / p)` over the
///   returned chunks.
///
/// Degenerate inputs are total, not panics: `n == 0` or `p == 0`
/// returns an empty chunk list (no iterations scheduled).
#[must_use]
pub fn chunk_bounds(n: usize, p: usize) -> Vec<Range<usize>> {
    if n == 0 || p == 0 {
        return Vec::new();
    }
    let workers = p.min(n);
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for i in 0..workers {
        let end = share_end(n, p, i);
        out.push(start..end);
        start = end;
    }
    debug_assert_eq!(start, n);
    out
}

/// The end of share `t` of [`chunk_bounds`]`(n, p)`, without building
/// the list: `n` splits into `min(n, p)` shares, and the first
/// `n % min(n, p)` of them hold one iteration more. A share past the
/// last (a surplus `t`, or any `t` when `n` or `p` is 0) ends at `n`.
#[must_use]
pub(crate) fn share_end(n: usize, p: usize, t: usize) -> usize {
    let shares = p.min(n);
    if t >= shares {
        return n;
    }
    let (base, extra) = (n / shares, n % shares);
    (t + 1) * base + (t + 1).min(extra)
}

/// A scheduling policy for doacross regions.
///
/// The paper's vendor directives used static block scheduling, which
/// produces the stair-step curve. Dynamic and guided scheduling smooth
/// the stair (idle processors steal the tail) at the cost of more
/// scheduling events — the ablation quantified by
/// `paper ablation_scheduling`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Contiguous block per worker (`ceil(n/p)` max): the paper's model.
    Static,
    /// Fixed-size chunks handed out on demand.
    Dynamic {
        /// Iterations per chunk.
        chunk: usize,
    },
    /// Exponentially shrinking chunks (`remaining / p`, floor at
    /// `min_chunk`).
    Guided {
        /// Smallest chunk handed out.
        min_chunk: usize,
    },
}

impl Policy {
    /// The chunk list this policy produces for `n` iterations over `p`
    /// workers, in hand-out order. For `Static` this is
    /// [`chunk_bounds`]; for the dynamic policies the chunks are not
    /// bound to a worker until runtime.
    ///
    /// Total over degenerate inputs: `n == 0` or `p == 0` returns an
    /// empty list, and zero chunk parameters are clamped to 1 — the
    /// request path feeds this from untrusted input and must not panic.
    #[must_use]
    pub fn chunks(&self, n: usize, p: usize) -> Vec<Range<usize>> {
        if n == 0 || p == 0 {
            return Vec::new();
        }
        match *self {
            Policy::Static => chunk_bounds(n, p),
            Policy::Dynamic { chunk } => {
                let chunk = chunk.max(1);
                let mut out = Vec::with_capacity(n.div_ceil(chunk));
                let mut start = 0;
                while start < n {
                    let end = (start + chunk).min(n);
                    out.push(start..end);
                    start = end;
                }
                out
            }
            Policy::Guided { min_chunk } => {
                let min_chunk = min_chunk.max(1);
                let next = |start: usize| {
                    let remaining = n - start;
                    start + remaining.div_ceil(p).max(min_chunk).min(remaining)
                };
                // Count the chunks first, so the list is sized once.
                let (mut count, mut start) = (0, 0);
                while start < n {
                    start = next(start);
                    count += 1;
                }
                let mut out = Vec::with_capacity(count);
                let mut start = 0;
                while start < n {
                    let end = next(start);
                    out.push(start..end);
                    start = end;
                }
                out
            }
        }
    }

    /// The policy's wire/label name: `static`, `dynamic`, or `guided`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Static => "static",
            Policy::Dynamic { .. } => "dynamic",
            Policy::Guided { .. } => "guided",
        }
    }

    /// The chunk parameter (`chunk` for dynamic, `min_chunk` for
    /// guided); `None` for static.
    #[must_use]
    pub fn chunk_param(&self) -> Option<usize> {
        match *self {
            Policy::Static => None,
            Policy::Dynamic { chunk } => Some(chunk),
            Policy::Guided { min_chunk } => Some(min_chunk),
        }
    }

    /// The canonical content spelling every served case embeds in its
    /// cache-key string: `static`, `dynamic,chunk=N`, or
    /// `guided,chunk=N`.
    #[must_use]
    pub fn canonical(&self) -> String {
        match self.chunk_param() {
            None => self.name().to_string(),
            Some(chunk) => format!("{},chunk={chunk}", self.name()),
        }
    }

    /// The case-label suffix that keeps a self-scheduled run from being
    /// mistaken for a static one: empty, `-dynN`, or `-guiN`.
    #[must_use]
    pub fn label_suffix(&self) -> String {
        match *self {
            Policy::Static => String::new(),
            Policy::Dynamic { chunk } => format!("-dyn{chunk}"),
            Policy::Guided { min_chunk } => format!("-gui{min_chunk}"),
        }
    }

    /// Parse a policy from its wire name plus optional chunk parameter
    /// (defaults to 1 for the dynamic policies).
    ///
    /// # Errors
    /// Unknown names, a chunk parameter on `static`, or a zero chunk
    /// parameter are rejected with a message naming the fault.
    pub fn parse(name: &str, chunk: Option<usize>) -> Result<Self, String> {
        if chunk == Some(0) {
            return Err(format!(
                "invalid chunk 0 for schedule {name:?}: chunk must be a positive integer"
            ));
        }
        match name {
            "static" => match chunk {
                None => Ok(Policy::Static),
                Some(c) => Err(format!(
                    "schedule \"static\" takes no chunk parameter (got chunk {c}); \
                     only \"dynamic\" and \"guided\" accept one"
                )),
            },
            "dynamic" => Ok(Policy::Dynamic {
                chunk: chunk.unwrap_or(1),
            }),
            "guided" => Ok(Policy::Guided {
                min_chunk: chunk.unwrap_or(1),
            }),
            other => Err(format!(
                "unknown schedule {other:?}: expected one of \"static\", \"dynamic\", \"guided\""
            )),
        }
    }

    /// Ideal makespan of this policy in units of one iteration's work:
    /// `ceil(n/p)` ([`perfmodel::max_units_per_processor`]) for `Static`;
    /// otherwise the chunk list list-scheduled onto `p` workers (greedy
    /// earliest-finish, which is how a work queue behaves for uniform
    /// iterations). `p == 0` degenerates to serial: `n`.
    #[must_use]
    pub fn ideal_makespan(&self, n: usize, p: usize) -> usize {
        if p == 0 || n == 0 {
            return n;
        }
        if *self == Policy::Static {
            let p = u32::try_from(p).unwrap_or(u32::MAX);
            return perfmodel::max_units_per_processor(n as u64, p) as usize;
        }
        let chunks = self.chunks(n, p);
        let mut loads = vec![0usize; p];
        for c in chunks {
            let min = loads
                .iter()
                .enumerate()
                .min_by_key(|&(_, &l)| l)
                .map(|(i, _)| i)
                .expect("p > 0");
            loads[min] += c.len();
        }
        loads.into_iter().max().unwrap_or(0)
    }

    /// Ideal speedup of this policy for uniform iterations:
    /// `n / makespan`.
    #[must_use]
    pub fn ideal_speedup(&self, n: usize, p: usize) -> f64 {
        if n == 0 {
            return 1.0;
        }
        n as f64 / self.ideal_makespan(n, p) as f64
    }

    /// Scheduling events this policy incurs: chunks handed out (each a
    /// queue interaction; for `Static` the single fork covers all).
    #[must_use]
    pub fn scheduling_events(&self, n: usize, p: usize) -> usize {
        self.chunks(n, p).len()
    }
}

/// Per-kernel `(worker count, policy)` overrides, keyed by kernel name —
/// the shape an autotuner database resolves to and a solver consumes
/// via [`crate::pool::Workers::kernel_view`].
///
/// Backed by a sorted `Vec`: kernel vocabularies are a handful of
/// names, and the deterministic iteration order keeps reports stable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleMap {
    entries: Vec<(String, usize, Policy)>,
}

impl ScheduleMap {
    /// An empty map (every kernel falls back to the caller's default).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the override for `kernel`, replacing any existing entry.
    pub fn set(&mut self, kernel: &str, workers: usize, policy: Policy) {
        match self
            .entries
            .binary_search_by(|(k, _, _)| k.as_str().cmp(kernel))
        {
            Ok(i) => {
                self.entries[i].1 = workers;
                self.entries[i].2 = policy;
            }
            Err(i) => self
                .entries
                .insert(i, (kernel.to_string(), workers, policy)),
        }
    }

    /// The override for `kernel`, if any.
    #[must_use]
    pub fn get(&self, kernel: &str) -> Option<(usize, Policy)> {
        self.entries
            .binary_search_by(|(k, _, _)| k.as_str().cmp(kernel))
            .ok()
            .map(|i| (self.entries[i].1, self.entries[i].2))
    }

    /// Whether the map has no overrides.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of overrides.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_the_range() {
        for n in [0usize, 1, 2, 7, 15, 70, 350, 1000] {
            for p in [1usize, 2, 3, 7, 16, 64, 128] {
                let chunks = chunk_bounds(n, p);
                let mut expect = 0;
                for c in &chunks {
                    assert_eq!(c.start, expect, "n={n} p={p}");
                    assert!(!c.is_empty());
                    expect = c.end;
                }
                assert_eq!(expect, n, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn max_chunk_is_ceil() {
        for n in [1usize, 2, 7, 15, 70, 350, 1000] {
            for p in [1usize, 2, 3, 7, 16, 64, 128] {
                let max_chunk = chunk_bounds(n, p).iter().map(Range::len).max();
                assert_eq!(max_chunk, Some(n.div_ceil(p.min(n))), "n={n} p={p}");
                // Which equals ceil(n/p) because p.min(n) only matters
                // when p > n, where both give 1.
                assert_eq!(max_chunk, Some(n.div_ceil(p)), "n={n} p={p}");
                // The static makespan is that chunk: the stair step.
                assert_eq!(Some(Policy::Static.ideal_makespan(n, p)), max_chunk);
            }
        }
    }

    #[test]
    fn chunk_sizes_differ_by_at_most_one() {
        for n in [5usize, 15, 71, 353] {
            for p in [2usize, 3, 8, 17, 64] {
                let chunks = chunk_bounds(n, p);
                let max = chunks.iter().map(|c| c.len()).max().unwrap();
                let min = chunks.iter().map(|c| c.len()).min().unwrap();
                assert!(max - min <= 1, "n={n} p={p}: {max} vs {min}");
            }
        }
    }

    #[test]
    fn matches_stairstep_model() {
        // The schedule realizes perfmodel's predicted speedup exactly.
        for n in [15u32, 70, 350] {
            for p in 1..=(n + 5) {
                let speedup = Policy::Static.ideal_speedup(n as usize, p as usize);
                let model = perfmodel::ideal_speedup(u64::from(n), p);
                assert!(
                    (speedup - model).abs() < 1e-12,
                    "n={n} p={p}: {speedup} vs {model}"
                );
            }
        }
    }

    #[test]
    fn table3_realized_by_schedule() {
        // Paper Table 3: 15 units on 4 processors -> 3.75.
        assert!((Policy::Static.ideal_speedup(15, 4) - 3.75).abs() < 1e-12);
        // 8..14 processors -> 7.5.
        for p in 8..=14 {
            assert!((Policy::Static.ideal_speedup(15, p) - 7.5).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_range() {
        assert!(chunk_bounds(0, 4).is_empty());
        assert!(Policy::Static.chunks(0, 4).is_empty());
        assert_eq!(Policy::Static.ideal_speedup(0, 4), 1.0);
    }

    #[test]
    fn more_workers_than_iterations() {
        let chunks = chunk_bounds(3, 10);
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn zero_workers_yields_empty_schedule() {
        // Degenerate inputs are total: no panic, no zero-length chunks.
        assert!(chunk_bounds(5, 0).is_empty());
        assert_eq!(Policy::Static.ideal_speedup(5, 0), 1.0);
        for policy in [
            Policy::Static,
            Policy::Dynamic { chunk: 2 },
            Policy::Guided { min_chunk: 1 },
        ] {
            assert!(policy.chunks(5, 0).is_empty());
            assert_eq!(policy.ideal_makespan(5, 0), 5);
            assert_eq!(policy.scheduling_events(5, 0), 0);
        }
    }

    #[test]
    fn policies_tile_the_range() {
        for policy in [
            Policy::Static,
            Policy::Dynamic { chunk: 3 },
            Policy::Dynamic { chunk: 7 },
            Policy::Guided { min_chunk: 2 },
        ] {
            for n in [0usize, 1, 15, 70, 351] {
                for p in [1usize, 4, 16, 64] {
                    let chunks = policy.chunks(n, p);
                    let mut expect = 0;
                    for c in &chunks {
                        assert_eq!(c.start, expect, "{policy:?} n={n} p={p}");
                        assert!(!c.is_empty());
                        expect = c.end;
                    }
                    assert_eq!(expect, n);
                }
            }
        }
    }

    #[test]
    fn static_policy_matches_chunk_bounds() {
        assert_eq!(Policy::Static.chunks(70, 16), chunk_bounds(70, 16));
        assert!(
            (Policy::Static.ideal_speedup(70, 48) - perfmodel::ideal_speedup(70, 48)).abs() < 1e-12
        );
    }

    #[test]
    fn dynamic_smooths_the_stair() {
        // The paper's stair: static on 48 procs with U=70 gives 35x.
        // Fine-grained dynamic scheduling reaches ~46x (70/2 chunks of 1
        // leave at most ceil(70/48)=2 on someone, same! chunk=1 gives
        // the same ceil... wait: list scheduling 70 unit chunks on 48
        // workers: 22 workers get 2, rest 1 -> makespan 2: same as
        // static). The smoothing appears for chunk sizes that split
        // unevenly against the static block: U=70, P=32: static
        // ceil=3 -> 23.3x; dynamic chunk=1 -> makespan 3 as well.
        // Dynamic genuinely wins when iteration costs vary, and LOSES
        // scheduling events always:
        assert_eq!(Policy::Static.scheduling_events(70, 32), 32);
        assert_eq!(Policy::Dynamic { chunk: 1 }.scheduling_events(70, 32), 70);
        // For uniform work the makespans agree...
        assert_eq!(
            Policy::Static.ideal_makespan(70, 32),
            Policy::Dynamic { chunk: 1 }.ideal_makespan(70, 32)
        );
        // ...but a coarse dynamic chunk can be WORSE than static.
        assert!(
            Policy::Dynamic { chunk: 8 }.ideal_makespan(70, 32)
                > Policy::Static.ideal_makespan(70, 32)
        );
    }

    #[test]
    fn guided_shrinks_chunks() {
        let chunks = Policy::Guided { min_chunk: 1 }.chunks(100, 4);
        // First chunk is remaining/p = 25; sizes never grow.
        assert_eq!(chunks[0].len(), 25);
        for w in chunks.windows(2) {
            assert!(w[1].len() <= w[0].len());
        }
        // Guided uses far fewer chunks than dynamic chunk=1.
        assert!(chunks.len() < 30);
    }

    #[test]
    fn makespan_never_beats_perfect_split() {
        for policy in [
            Policy::Static,
            Policy::Dynamic { chunk: 4 },
            Policy::Guided { min_chunk: 2 },
        ] {
            for n in [16usize, 70, 350] {
                for p in [3usize, 16, 48] {
                    let m = policy.ideal_makespan(n, p);
                    assert!(m >= n.div_ceil(p), "{policy:?} n={n} p={p}");
                    assert!(m <= n);
                }
            }
        }
    }

    #[test]
    fn zero_chunk_parameters_clamp_to_one() {
        assert_eq!(
            Policy::Dynamic { chunk: 0 }.chunks(5, 2),
            Policy::Dynamic { chunk: 1 }.chunks(5, 2)
        );
        assert_eq!(
            Policy::Guided { min_chunk: 0 }.chunks(100, 4),
            Policy::Guided { min_chunk: 1 }.chunks(100, 4)
        );
    }

    #[test]
    fn names_and_parse_round_trip() {
        for (policy, chunk, canonical, suffix) in [
            (Policy::Static, None, "static", ""),
            (
                Policy::Dynamic { chunk: 4 },
                Some(4),
                "dynamic,chunk=4",
                "-dyn4",
            ),
            (
                Policy::Guided { min_chunk: 2 },
                Some(2),
                "guided,chunk=2",
                "-gui2",
            ),
        ] {
            assert_eq!(Policy::parse(policy.name(), chunk), Ok(policy));
            assert_eq!(policy.chunk_param(), chunk);
            assert_eq!(policy.canonical(), canonical);
            assert_eq!(policy.label_suffix(), suffix);
        }
        assert_eq!(
            Policy::parse("dynamic", None),
            Ok(Policy::Dynamic { chunk: 1 })
        );
        assert!(Policy::parse("static", Some(3)).is_err());
        assert!(Policy::parse("dynamic", Some(0)).is_err());
        assert!(Policy::parse("stochastic", None).is_err());
    }

    #[test]
    fn parse_errors_name_the_token_and_the_accepted_set() {
        // Unknown schedule: the message carries the offending token and
        // every accepted name, so a 400 body is self-explanatory.
        let err = Policy::parse("stochastic", None).unwrap_err();
        assert!(err.contains("\"stochastic\""), "{err}");
        for accepted in ["\"static\"", "\"dynamic\"", "\"guided\""] {
            assert!(err.contains(accepted), "{err}");
        }
        // Chunk on static: names the schedule, the value, and who does
        // accept a chunk.
        let err = Policy::parse("static", Some(3)).unwrap_err();
        assert!(err.contains("\"static\""), "{err}");
        assert!(err.contains("chunk 3"), "{err}");
        assert!(
            err.contains("\"dynamic\"") && err.contains("\"guided\""),
            "{err}"
        );
        // Zero chunk: names the value and the schedule it was given for.
        let err = Policy::parse("guided", Some(0)).unwrap_err();
        assert!(err.contains("chunk 0"), "{err}");
        assert!(err.contains("\"guided\""), "{err}");
    }

    #[test]
    fn schedule_map_sets_replaces_and_iterates_in_order() {
        let mut m = ScheduleMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get("rhs"), None);
        m.set("update", 4, Policy::Static);
        m.set("rhs", 2, Policy::Dynamic { chunk: 1 });
        m.set("rhs", 3, Policy::Guided { min_chunk: 2 });
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("rhs"), Some((3, Policy::Guided { min_chunk: 2 })));
        assert_eq!(m.get("update"), Some((4, Policy::Static)));
        let names: Vec<&str> = m.entries.iter().map(|(k, _, _)| k.as_str()).collect();
        assert_eq!(names, ["rhs", "update"]);
    }
}
