//! Set-associative LRU caches.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set); `size_bytes / line_bytes` ways
    /// make a fully-associative cache.
    pub associativity: usize,
}

impl CacheConfig {
    /// Create a configuration.
    ///
    /// # Panics
    /// Panics unless sizes are positive powers of two, the line divides
    /// the size, and the implied set count is at least one.
    #[must_use]
    pub fn new(size_bytes: usize, line_bytes: usize, associativity: usize) -> Self {
        assert!(
            size_bytes.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(line_bytes <= size_bytes, "line larger than cache");
        let lines = size_bytes / line_bytes;
        assert!(
            associativity >= 1 && associativity <= lines,
            "bad associativity"
        );
        assert!(
            lines.is_multiple_of(associativity),
            "associativity must divide the line count"
        );
        Self {
            size_bytes,
            line_bytes,
            associativity,
        }
    }

    /// Direct-mapped cache of the given size.
    #[must_use]
    pub fn direct_mapped(size_bytes: usize, line_bytes: usize) -> Self {
        Self::new(size_bytes, line_bytes, 1)
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.size_bytes / self.line_bytes / self.associativity
    }
}

/// A set-associative write-back cache with true-LRU replacement.
///
/// Tags and dirty bits only — no data is stored; the simulator answers
/// hit/miss and counts dirty evictions (write-backs), the second half
/// of a write-back machine's memory traffic.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Per-set list of (tag, dirty), most recently used last.
    sets: Vec<Vec<(u64, bool)>>,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Cache {
    /// Empty (cold) cache.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config,
            sets: vec![Vec::with_capacity(config.associativity); config.sets()],
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access a byte address; returns `true` on hit. Misses allocate
    /// (write-allocate policy, standard for the machines in the paper);
    /// `is_store` marks the line dirty, and evicting a dirty line
    /// counts a write-back.
    pub fn access_rw(&mut self, addr: u64, is_store: bool) -> bool {
        let line = addr / self.config.line_bytes as u64;
        let set_idx = (line % self.config.sets() as u64) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&(t, _)| t == line) {
            // hit: move to MRU position, accumulate dirtiness
            let (tag, dirty) = set.remove(pos);
            set.push((tag, dirty || is_store));
            self.hits += 1;
            true
        } else {
            if set.len() == self.config.associativity {
                let (_, dirty) = set.remove(0); // evict LRU
                if dirty {
                    self.writebacks += 1;
                }
            }
            set.push((line, is_store));
            self.misses += 1;
            false
        }
    }

    /// Access as a load (kept for API compatibility and read-only
    /// traces).
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_rw(addr, false)
    }

    /// Dirty-line evictions (write-backs) so far.
    #[must_use]
    pub fn writebacks(&self) -> u64 {
        self.writebacks
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

    /// Reset counters but keep cache contents (for warm measurements).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Cache {
        /// Hits so far.
        fn hits(&self) -> u64 {
            self.hits
        }

        /// Misses so far.
        pub(crate) fn misses(&self) -> u64 {
            self.misses
        }
    }

    fn addr_trace() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(0u64..(1 << 20), 1..800)
    }

    /// A fully-associative cache: one set of `size_bytes / line_bytes` ways.
    fn fully_associative(size_bytes: usize, line_bytes: usize) -> CacheConfig {
        CacheConfig::new(size_bytes, line_bytes, size_bytes / line_bytes)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(CacheConfig::new(1024, 32, 2));
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(31)); // same line
        assert!(!c.access(32)); // next line
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        // Direct-mapped, 2 lines of 16B: addresses 0 and 32 conflict.
        let mut c = Cache::new(CacheConfig::direct_mapped(32, 16));
        assert!(!c.access(0));
        assert!(!c.access(32)); // evicts line 0
        assert!(!c.access(0)); // miss again
    }

    #[test]
    fn associativity_prevents_conflict() {
        // 2-way, 2 sets: lines 0 and 2 map to set 0 and coexist.
        let mut c = Cache::new(CacheConfig::new(64, 16, 2));
        assert!(!c.access(0)); // line 0, set 0
        assert!(!c.access(32)); // line 2, set 0
        assert!(c.access(0));
        assert!(c.access(32));
        // LRU order after the two hits is [0, 32]: inserting a third
        // conflicting line (addr 64) evicts 0; re-touching 0 then evicts
        // 32, and 64 (still MRU-adjacent) survives.
        assert!(!c.access(64)); // evicts 0
        assert!(!c.access(0)); // evicts 32
        assert!(c.access(64));
    }

    #[test]
    fn sequential_streaming_miss_rate_is_inverse_line_size() {
        let mut c = Cache::new(CacheConfig::new(1 << 15, 64, 4));
        for i in 0..8192u64 {
            c.access(i * 8); // stride-8 doubles
        }
        // 8 doubles per 64-B line: miss rate 1/8.
        assert!((c.miss_rate() - 0.125).abs() < 1e-9, "{}", c.miss_rate());
    }

    #[test]
    fn large_stride_misses_every_access() {
        let mut c = Cache::new(CacheConfig::new(1 << 15, 64, 4));
        for i in 0..4096u64 {
            c.access(i * 4096); // stride >> line: every access a new line
        }
        assert!((c.miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn working_set_fits_or_thrashes() {
        let cfg = CacheConfig::new(4096, 64, 64); // fully associative
                                                  // Working set = cache size: after warmup, all hits.
        let mut c = Cache::new(cfg);
        for _ in 0..2 {
            for i in 0..64u64 {
                c.access(i * 64);
            }
        }
        assert_eq!(c.misses(), 64); // only cold misses
                                    // Working set = 2x cache size with LRU: 100% misses forever.
        let mut c = Cache::new(cfg);
        for _ in 0..3 {
            for i in 0..128u64 {
                c.access(i * 64);
            }
        }
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn writeback_only_on_dirty_eviction() {
        // Direct-mapped, 2 lines of 16B: addresses 0 and 32 conflict.
        let mut c = Cache::new(CacheConfig::direct_mapped(32, 16));
        c.access_rw(0, false); // clean line
        c.access_rw(32, false); // evicts clean line 0: no writeback
        assert_eq!(c.writebacks(), 0);
        c.access_rw(0, true); // dirty line 0 evicts clean 32
        assert_eq!(c.writebacks(), 0);
        c.access_rw(32, false); // evicts DIRTY line 0
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn store_hit_dirties_resident_line() {
        let mut c = Cache::new(CacheConfig::direct_mapped(32, 16));
        c.access_rw(0, false); // clean
        c.access_rw(4, true); // store hit on the same line: now dirty
        c.access_rw(32, false); // evicts it
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn reset_counters_keeps_contents() {
        let mut c = Cache::new(CacheConfig::new(1024, 32, 2));
        c.access(0);
        c.reset_counters();
        assert_eq!(c.misses(), 0);
        assert!(c.access(0)); // contents kept
    }

    #[test]
    fn miss_rate_zero_when_untouched() {
        let c = Cache::new(CacheConfig::new(1024, 32, 2));
        assert_eq!(c.miss_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_size_panics() {
        let _ = CacheConfig::new(1000, 32, 2);
    }

    #[test]
    #[should_panic(expected = "bad associativity")]
    fn bad_assoc_panics() {
        let _ = CacheConfig::new(1024, 32, 64);
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
    }
}
