//! A fully-associative LRU translation lookaside buffer.
//!
//! TLB misses were the second quantity (after cache misses) the paper's
//! `prof`/pixie subtraction exposed; large-stride plane traversals of
//! big zones blow the TLB long before they blow the L2 cache.

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Page size in bytes.
    pub page_bytes: usize,
}

impl TlbConfig {
    /// Create a configuration.
    ///
    /// # Panics
    /// Panics if `entries == 0` or the page size is not a power of two.
    #[must_use]
    pub fn new(entries: usize, page_bytes: usize) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Self {
            entries,
            page_bytes,
        }
    }

    /// Memory reach of the TLB in bytes.
    #[must_use]
    pub fn reach_bytes(&self) -> usize {
        self.entries * self.page_bytes
    }
}

/// A fully-associative LRU TLB (tags only).
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// Resident page numbers, most recently used last.
    pages: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Empty TLB.
    #[must_use]
    pub fn new(config: TlbConfig) -> Self {
        Self {
            config,
            pages: Vec::with_capacity(config.entries),
            hits: 0,
            misses: 0,
        }
    }

    /// The geometry.
    #[must_use]
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Translate a byte address; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let page = addr / self.config.page_bytes as u64;
        if let Some(pos) = self.pages.iter().position(|&p| p == page) {
            let p = self.pages.remove(pos);
            self.pages.push(p);
            self.hits += 1;
            true
        } else {
            if self.pages.len() == self.config.entries {
                self.pages.remove(0);
            }
            self.pages.push(page);
            self.misses += 1;
            false
        }
    }

    /// Miss rate in `[0, 1]`; 0 for no accesses.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Reset counters, keeping resident pages.
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Tlb {
        /// Hits so far.
        fn hits(&self) -> u64 {
            self.hits
        }

        /// Misses so far.
        fn misses(&self) -> u64 {
            self.misses
        }
    }

    fn addr_trace() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(0u64..(1 << 20), 1..800)
    }

    #[test]
    fn page_locality_hits() {
        let mut t = Tlb::new(TlbConfig::new(4, 4096));
        assert!(!t.access(0));
        assert!(t.access(8)); // same page
        assert!(t.access(4095));
        assert!(!t.access(4096)); // next page
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(TlbConfig::new(2, 4096));
        t.access(0); // page 0
        t.access(4096); // page 1
        t.access(0); // hit: page 0 becomes MRU
        t.access(8192); // page 2 evicts page 1
        assert!(t.access(0)); // still resident
        assert!(!t.access(4096)); // was evicted
    }

    #[test]
    fn reach() {
        let cfg = TlbConfig::new(64, 16384);
        assert_eq!(cfg.reach_bytes(), 1 << 20);
    }

    #[test]
    fn stride_beyond_reach_thrashes() {
        let cfg = TlbConfig::new(8, 4096);
        let mut t = Tlb::new(cfg);
        // Touch 16 distinct pages repeatedly: with 8 entries and LRU,
        // every access misses.
        for _ in 0..3 {
            for p in 0..16u64 {
                t.access(p * 4096);
            }
        }
        assert_eq!(t.hits(), 0);
    }

    #[test]
    fn reset_keeps_pages() {
        let mut t = Tlb::new(TlbConfig::new(4, 4096));
        t.access(0);
        t.reset_counters();
        assert_eq!(t.misses(), 0);
        assert!(t.access(0));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        let _ = TlbConfig::new(0, 4096);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

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
    }
}
