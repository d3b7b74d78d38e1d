//! Property-based tests for the cache/TLB simulator.

use cachesim::cache::{Cache, CacheConfig};
use cachesim::patterns::{page_sharing, GridTraversal, PencilGather};
use cachesim::tlb::{Tlb, TlbConfig};
use cachesim::{AccessKind, MemHierarchy};
use mesh::{Axis, Dims, Layout};
use proptest::prelude::*;

fn addr_trace() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..(1 << 20), 1..800)
}

/// A fully-associative cache: one set of `size_bytes / line_bytes` ways.
fn fully_associative(size_bytes: usize, line_bytes: usize) -> CacheConfig {
    CacheConfig::new(size_bytes, line_bytes, size_bytes / line_bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LRU stack property: a larger fully-associative cache with the
    /// same line size never misses more on any trace.
    #[test]
    fn lru_inclusion(trace in addr_trace()) {
        let mut small = Cache::new(fully_associative(1 << 12, 64));
        let mut large = Cache::new(fully_associative(1 << 14, 64));
        for &a in &trace {
            small.access(a);
            large.access(a);
        }
        prop_assert!(large.misses() <= small.misses());
    }

    /// Hits + misses equals the access count; miss rate in [0, 1].
    #[test]
    fn conservation(trace in addr_trace()) {
        let mut c = Cache::new(CacheConfig::new(1 << 13, 32, 4));
        for &a in &trace {
            c.access(a);
        }
        prop_assert_eq!(c.hits() + c.misses(), trace.len() as u64);
        prop_assert!((0.0..=1.0).contains(&c.miss_rate()));
    }

    /// Replaying a trace immediately (working set <= capacity) hits
    /// 100% if the distinct line count fits the fully-assoc cache.
    #[test]
    fn warm_replay_hits(trace in prop::collection::vec(0u64..(1 << 14), 1..200)) {
        let cfg = fully_associative(1 << 14, 32);
        let mut lines: Vec<u64> = trace.iter().map(|a| a / 32).collect();
        lines.sort_unstable();
        lines.dedup();
        prop_assume!(lines.len() <= cfg.size_bytes / cfg.line_bytes);
        let mut c = Cache::new(cfg);
        for &a in &trace {
            c.access(a);
        }
        c.reset_counters();
        for &a in &trace {
            c.access(a);
        }
        prop_assert_eq!(c.misses(), 0);
    }

    /// The TLB obeys the same conservation and warm-replay laws.
    #[test]
    fn tlb_conservation(trace in addr_trace()) {
        let mut t = Tlb::new(TlbConfig::new(32, 4096));
        for &a in &trace {
            t.access(a);
        }
        prop_assert_eq!(t.hits() + t.misses(), trace.len() as u64);
        // Distinct pages bound the misses from below... and from above
        // only without capacity evictions; check the lower bound.
        let mut pages: Vec<u64> = trace.iter().map(|a| a / 4096).collect();
        pages.sort_unstable();
        pages.dedup();
        prop_assert!(t.misses() >= pages.len() as u64);
    }

    /// Hierarchy counters are consistent: L2 misses never exceed L1
    /// misses, which never exceed accesses.
    #[test]
    fn hierarchy_counter_ordering(trace in addr_trace()) {
        let mut h = MemHierarchy::new(
            CacheConfig::new(1 << 12, 32, 2),
            Some(CacheConfig::new(1 << 15, 64, 4)),
            TlbConfig::new(16, 4096),
        );
        for &a in &trace {
            h.access(a, AccessKind::Load);
        }
        let c = h.counters();
        prop_assert!(c.l2_misses <= c.l1_misses);
        prop_assert!(c.l1_misses <= c.accesses());
        prop_assert!(c.tlb_misses <= c.accesses());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every traversal order visits every element exactly once.
    #[test]
    fn traversals_are_permutations(j in 2usize..12, k in 2usize..12, l in 2usize..12) {
        let d = Dims::new(j, k, l);
        for t in [GridTraversal::example4a(d), GridTraversal::example4b(d)] {
            let mut addrs: Vec<u64> = t.addresses().collect();
            addrs.sort_unstable();
            addrs.dedup();
            prop_assert_eq!(addrs.len(), d.points());
        }
        let mut addrs: Vec<u64> = PencilGather::example4c(d).addresses().collect();
        addrs.sort_unstable();
        addrs.dedup();
        prop_assert_eq!(addrs.len(), d.points());
    }

    /// Page sharing totals equal the array footprint, and a single
    /// worker never shares.
    #[test]
    fn sharing_totals(j in 2usize..16, k in 2usize..16, l in 2usize..16, w in 1usize..9) {
        let d = Dims::new(j, k, l);
        for axis in [Axis::J, Axis::K, Axis::L] {
            let s = page_sharing(d, Layout::jkl(), axis, w, 4096);
            let bytes = d.points() as u64 * 8;
            prop_assert_eq!(s.total_pages, bytes.div_ceil(4096));
            prop_assert!(s.shared_pages <= s.total_pages);
            prop_assert!(u64::from(s.max_sharers) <= w.min(d.extent(axis)) as u64);
            if w == 1 {
                prop_assert_eq!(s.shared_pages, 0);
            }
        }
    }

    /// Parallelizing the fastest-varying axis always shares at least as
    /// much as parallelizing the slowest (for >= 2 effective workers).
    #[test]
    fn fastest_axis_shares_most(j in 4usize..14, k in 4usize..14, l in 4usize..14) {
        let d = Dims::new(j, k, l);
        let fast = page_sharing(d, Layout::jkl(), Axis::J, 4, 1024);
        let slow = page_sharing(d, Layout::jkl(), Axis::L, 4, 1024);
        prop_assert!(fast.shared_fraction() >= slow.shared_fraction() - 1e-12);
    }
}
