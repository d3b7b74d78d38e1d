//! Property-based tests for the cache/TLB simulator.

use cachesim::cache::CacheConfig;
use cachesim::patterns::{page_sharing, GridTraversal, PencilGather};
use cachesim::tlb::TlbConfig;
use cachesim::{AccessKind, MemHierarchy};
use mesh::{Axis, Dims, Layout};
use proptest::prelude::*;

fn addr_trace() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..(1 << 20), 1..800)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
