//! The memory hierarchy: L1 + optional L2 + TLB, with Perfex-style
//! counters.

use crate::cache::{Cache, CacheConfig};

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A read.
    Load,
    /// A write (write-allocate).
    Store,
}

/// Perfex-style event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 misses (equals memory-line fetches when an L2 is present).
    pub l2_misses: u64,
    /// TLB misses.
    pub tlb_misses: u64,
    /// Dirty lines written back to memory from the last cache level.
    pub writebacks: u64,
}

impl Counters {
    /// Total memory accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }
}

/// An L1/L2/TLB stack simulated per processor: three LRU caches, the
/// TLB one set of page-sized lines
/// ([`CacheConfig::fully_associative`]).
#[derive(Debug, Clone)]
pub struct MemHierarchy {
    l1: Cache,
    l2: Option<Cache>,
    tlb: Cache,
    counters: Counters,
}

impl MemHierarchy {
    /// Build a hierarchy; pass `None` for machines without an L2.
    #[must_use]
    pub fn new(l1: CacheConfig, l2: Option<CacheConfig>, tlb: CacheConfig) -> Self {
        if let Some(l2c) = &l2 {
            assert!(
                l2c.size_bytes >= l1.size_bytes,
                "L2 must be at least as large as L1"
            );
        }
        Self {
            l1: Cache::new(l1),
            l2: l2.map(Cache::new),
            tlb: Cache::new(tlb),
            counters: Counters::default(),
        }
    }

    /// Run one access through TLB and caches.
    pub fn access(&mut self, addr: u64, kind: AccessKind) {
        match kind {
            AccessKind::Load => self.counters.loads += 1,
            AccessKind::Store => self.counters.stores += 1,
        }
        if !self.tlb.access(addr) {
            self.counters.tlb_misses += 1;
        }
        let is_store = matches!(kind, AccessKind::Store);
        if !self.l1.access_rw(addr, is_store) {
            self.counters.l1_misses += 1;
            match &mut self.l2 {
                Some(l2) => {
                    if !l2.access_rw(addr, is_store) {
                        self.counters.l2_misses += 1;
                    }
                }
                None => self.counters.l2_misses += 1,
            }
        }
        // Approximation: last-level dirtiness is set by the stores that
        // reach it (L1 store misses). Stores absorbed by L1 hits dirty
        // only L1; their eventual L1→L2 write-back is not modeled, so
        // last-level write-back counts are a lower bound.
    }

    /// Convenience: run a whole address trace of loads.
    pub fn run_loads(&mut self, addrs: impl IntoIterator<Item = u64>) {
        for a in addrs {
            self.access(a, AccessKind::Load);
        }
    }

    /// Counter snapshot (write-backs read from the last cache level).
    #[must_use]
    pub fn counters(&self) -> Counters {
        let mut c = self.counters;
        c.writebacks = self
            .l2
            .as_ref()
            .map_or(self.l1.writebacks(), Cache::writebacks);
        c
    }

    /// L1 miss rate.
    #[must_use]
    pub fn l1_miss_rate(&self) -> f64 {
        self.l1.miss_rate()
    }

    /// TLB miss rate.
    #[must_use]
    pub fn tlb_miss_rate(&self) -> f64 {
        self.tlb.miss_rate()
    }

    /// Bytes moved to and from main memory: memory-level fetches plus
    /// dirty write-backs, × the line size of the last cache level.
    #[must_use]
    pub fn memory_traffic_bytes(&self) -> u64 {
        let line = self
            .l2
            .as_ref()
            .map_or(self.l1.config().line_bytes, |l2| l2.config().line_bytes);
        (self.counters.l2_misses + self.counters().writebacks) * line as u64
    }

    /// Reset all counters (cache/TLB contents kept warm).
    pub fn reset_counters(&mut self) {
        self.l1.reset_counters();
        if let Some(l2) = &mut self.l2 {
            l2.reset_counters();
        }
        self.tlb.reset_counters();
        self.counters = Counters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MemHierarchy {
        MemHierarchy::new(
            CacheConfig::new(1 << 12, 32, 2),
            Some(CacheConfig::new(1 << 16, 128, 2)),
            CacheConfig::fully_associative(16, 4096),
        )
    }

    #[test]
    fn counts_loads_and_stores() {
        let mut m = small();
        m.access(0, AccessKind::Load);
        m.access(8, AccessKind::Store);
        let c = m.counters();
        assert_eq!(c.loads, 1);
        assert_eq!(c.stores, 1);
        assert_eq!(c.accesses(), 2);
    }

    #[test]
    fn l2_absorbs_l1_conflicts() {
        let mut m = small();
        // Two addresses conflicting in the 4-KB L1 but coexisting in
        // the 64-KB L2: alternate far beyond L1 associativity.
        let addrs: Vec<u64> = (0..8).map(|i| i * 4096).collect();
        for _ in 0..4 {
            for &a in &addrs {
                m.access(a, AccessKind::Load);
            }
        }
        let c = m.counters();
        assert!(c.l1_misses > c.l2_misses, "{c:?}");
        // Steady state: everything lives in L2, only 8 cold L2 misses.
        assert_eq!(c.l2_misses, 8);
    }

    #[test]
    fn traffic_counts_last_level_lines() {
        let mut m = small();
        m.access(0, AccessKind::Load); // one L2 miss -> one 128-B line
        assert_eq!(m.memory_traffic_bytes(), 128);
    }

    #[test]
    fn no_l2_means_l1_misses_go_to_memory() {
        let mut m = MemHierarchy::new(
            CacheConfig::new(1 << 12, 64, 2),
            None,
            CacheConfig::fully_associative(8, 4096),
        );
        m.access(0, AccessKind::Load);
        m.access(1 << 20, AccessKind::Load);
        assert_eq!(m.counters().l2_misses, 2);
        assert_eq!(m.memory_traffic_bytes(), 128);
    }

    #[test]
    fn unit_stride_sweep_has_low_miss_rates() {
        let mut m = small();
        m.run_loads((0..100_000u64).map(|i| i * 8));
        assert!(m.l1_miss_rate() < 0.3, "{}", m.l1_miss_rate());
        assert!(m.tlb_miss_rate() < 0.01, "{}", m.tlb_miss_rate());
    }

    #[test]
    fn page_stride_sweep_thrashes_tlb() {
        let mut m = small();
        // stride of one page over 64 pages with a 16-entry TLB
        for _ in 0..4 {
            for p in 0..64u64 {
                m.access(p * 4096, AccessKind::Load);
            }
        }
        assert!(m.tlb_miss_rate() > 0.9);
    }

    #[test]
    fn dirty_evictions_add_writeback_traffic() {
        // Stream stores through a working set twice the L2: every line
        // comes in dirty and leaves dirty — traffic approaches 2x the
        // fetch-only accounting.
        let mut m = small();
        let lines = 2 * (1 << 16) / 128;
        for _ in 0..3 {
            for i in 0..lines as u64 {
                m.access(i * 128, AccessKind::Store);
            }
        }
        let c = m.counters();
        assert!(c.writebacks > 0);
        let fetch_bytes = c.l2_misses * 128;
        let total = m.memory_traffic_bytes();
        assert!(
            total as f64 > 1.5 * fetch_bytes as f64,
            "total {total} vs fetch-only {fetch_bytes}"
        );
    }

    #[test]
    fn read_only_traces_never_write_back() {
        let mut m = small();
        m.run_loads((0..100_000u64).map(|i| i * 64));
        assert_eq!(m.counters().writebacks, 0);
    }

    #[test]
    fn reset_counters_keeps_warmth() {
        let mut m = small();
        m.access(0, AccessKind::Load);
        m.reset_counters();
        m.access(0, AccessKind::Load);
        let c = m.counters();
        assert_eq!(c.l1_misses, 0, "warm line must hit after reset");
    }

    #[test]
    #[should_panic(expected = "L2 must be at least as large")]
    fn tiny_l2_panics() {
        let _ = MemHierarchy::new(
            CacheConfig::new(1 << 14, 32, 2),
            Some(CacheConfig::new(1 << 12, 128, 2)),
            CacheConfig::fully_associative(8, 4096),
        );
    }
}
