//! Machine configuration: clock, synchronization cost, NUMA geometry.

/// Synchronization cost as a function of the processor count.
///
/// The paper: "On different machines and load factors, the
/// synchronization cost (for scalable systems) ranges from 2,000 to
/// 1-million cycles (or more) … almost independent of the design of the
/// processor" but dependent on the memory system. A barrier across `P`
/// processors on a directory-based NUMA machine costs roughly a fixed
/// dispatch plus a per-processor gather, so the model is affine in `P`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncCostModel {
    /// Fixed cycles per parallel-region exit.
    pub base_cycles: f64,
    /// Additional cycles per participating processor.
    pub per_processor_cycles: f64,
}

impl SyncCostModel {
    /// Cycles to synchronize `processors` processors.
    ///
    /// # Panics
    /// Panics if `processors == 0`.
    #[must_use]
    pub fn cycles(&self, processors: u32) -> f64 {
        assert!(processors > 0, "processor count must be positive");
        self.base_cycles + self.per_processor_cycles * f64::from(processors)
    }
}

/// NUMA geometry and bandwidth limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumaConfig {
    /// Processors per node (2 on the Origin 2000; all of them on a true
    /// UMA machine).
    pub processors_per_node: u32,
    /// Page size in bytes — the unit of memory interleaving across
    /// nodes (Section 7: "the unit of interleaving becomes a page").
    pub page_bytes: u64,
    /// Usable per-processor bandwidth to local memory, MB/s.
    pub local_bw_mbs: f64,
    /// Usable per-processor bandwidth for off-node accesses, MB/s
    /// (135–195 MB/s on the Origin 2000 per Section 7).
    pub remote_bw_mbs: f64,
    /// Contention coefficient: how strongly page sharing between
    /// processors degrades effective bandwidth. Dimensionless; 0
    /// disables the Example 4(c) failure mode, larger values model
    /// machines (Convex Exemplar) where it was fatal.
    pub contention_coeff: f64,
}

impl NumaConfig {
    /// Fraction of memory accesses expected to be off-node when `p`
    /// processors spread over nodes access pages placed round-robin:
    /// `1 - 1/nodes`, with `nodes = ceil(p / processors_per_node)`.
    #[must_use]
    pub fn off_node_fraction(&self, p: u32) -> f64 {
        let nodes = p.div_ceil(self.processors_per_node.max(1)).max(1);
        1.0 - 1.0 / f64::from(nodes)
    }
}

/// A full machine: processors, clock, sync model, NUMA model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Machine name, as reported in tables.
    pub name: &'static str,
    /// Installed processor count.
    pub max_processors: u32,
    /// Clock rate, Hz.
    pub clock_hz: f64,
    /// Peak MFLOPS per processor.
    pub peak_mflops_per_processor: f64,
    /// Synchronization cost model.
    pub sync: SyncCostModel,
    /// NUMA geometry.
    pub numa: NumaConfig,
}

impl MachineConfig {
    /// The same machine under heavier system load: synchronization
    /// costs scaled by `factor`. The paper gives 2,000–1,000,000 cycles
    /// as the observed range, "highly dependent on the system load".
    #[must_use]
    pub fn under_load(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "load factor must be >= 1");
        self.sync.base_cycles *= factor;
        self.sync.per_processor_cycles *= factor;
        self
    }

    /// Seconds for `cycles` cycles on this machine.
    #[must_use]
    pub fn seconds(&self, cycles: f64) -> f64 {
        cycles / self.clock_hz
    }

    /// Synchronization cost in seconds at `p` processors.
    #[must_use]
    pub fn sync_seconds(&self, p: u32) -> f64 {
        self.seconds(self.sync.cycles(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl NumaConfig {
        /// A uniform-memory-access configuration (infinite-node SMP):
        /// no remote penalty, no page contention.
        pub(crate) fn uma(bw_mbs: f64) -> Self {
            Self {
                processors_per_node: u32::MAX,
                page_bytes: 16 << 10,
                local_bw_mbs: bw_mbs,
                remote_bw_mbs: bw_mbs,
                contention_coeff: 0.0,
            }
        }
    }

    #[test]
    fn sync_cost_grows_with_processors() {
        let s = SyncCostModel {
            base_cycles: 2_000.0,
            per_processor_cycles: 500.0,
        };
        assert!((s.cycles(1) - 2_500.0).abs() < 1e-9);
        assert!((s.cycles(128) - 66_000.0).abs() < 1e-9);
        assert!(s.cycles(128) > s.cycles(2));
    }

    #[test]
    fn paper_sync_range_is_representable() {
        // 2,000 .. 1,000,000 cycles: both ends of the paper's range.
        let cheap = SyncCostModel {
            base_cycles: 2_000.0,
            per_processor_cycles: 0.0,
        };
        let costly = SyncCostModel {
            base_cycles: 0.0,
            per_processor_cycles: 7_812.5,
        };
        assert_eq!(cheap.cycles(64), 2_000.0);
        assert_eq!(costly.cycles(128), 1_000_000.0);
    }

    #[test]
    fn uma_has_no_remote_penalty() {
        let n = NumaConfig::uma(500.0);
        assert_eq!(n.off_node_fraction(128), 0.0);
        assert_eq!(n.local_bw_mbs, n.remote_bw_mbs);
        assert_eq!(n.contention_coeff, 0.0);
    }

    #[test]
    fn off_node_fraction_rises_with_nodes() {
        let n = NumaConfig {
            processors_per_node: 2,
            page_bytes: 16 << 10,
            local_bw_mbs: 412.0,
            remote_bw_mbs: 195.0,
            contention_coeff: 0.5,
        };
        assert_eq!(n.off_node_fraction(1), 0.0);
        assert_eq!(n.off_node_fraction(2), 0.0);
        assert!((n.off_node_fraction(4) - 0.5).abs() < 1e-12);
        let f128 = n.off_node_fraction(128);
        assert!((f128 - (1.0 - 1.0 / 64.0)).abs() < 1e-12);
    }

    #[test]
    fn machine_second_conversions() {
        let m = MachineConfig {
            name: "test",
            max_processors: 4,
            clock_hz: 100e6,
            peak_mflops_per_processor: 200.0,
            sync: SyncCostModel {
                base_cycles: 1_000.0,
                per_processor_cycles: 0.0,
            },
            numa: NumaConfig::uma(400.0),
        };
        assert!((m.seconds(100e6) - 1.0).abs() < 1e-12);
        assert!((m.sync_seconds(4) - 1e-5).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "processor count must be positive")]
    fn zero_procs_panics() {
        let s = SyncCostModel {
            base_cycles: 1.0,
            per_processor_cycles: 1.0,
        };
        let _ = s.cycles(0);
    }
}
