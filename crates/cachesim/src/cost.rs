//! The pixie-style cycle model (paper Section 6).
//!
//! "Without pixie, prof measures the actual run time … With pixie, prof
//! measures the theoretical run time … assuming an infinitely fast
//! memory system. By subtracting those two sets of numbers, one can
//! then estimate the cost of cache and TLB misses."
//!
//! [`CycleModel`] is that arithmetic: perfect-memory ("pixie") cycles
//! from instruction counts and issue width, plus per-event stall
//! penalties from [`crate::hierarchy::Counters`].

use crate::hierarchy::Counters;

/// A simple in-order cost model for one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleModel {
    /// Instructions (flops + loads/stores + overhead) issued per cycle.
    pub issue_width: f64,
    /// Cycles lost per L1 miss that hits in L2.
    pub l1_miss_penalty: f64,
    /// Cycles lost per access that misses to main memory.
    pub l2_miss_penalty: f64,
    /// Cycles lost per TLB miss.
    pub tlb_miss_penalty: f64,
}

impl CycleModel {
    /// The one serial price: `instr` instructions issued at `efficiency`
    /// of the issue width (pixie's perfect-memory cycles), plus L1
    /// misses served by L2, misses to memory and TLB misses, each times
    /// its penalty. Counts are `f64` so `f3d`'s per-point cost table
    /// prices average rates through it too.
    #[must_use]
    pub fn cycles(&self, instr: f64, efficiency: f64, l1_only: f64, memory: f64, tlb: f64) -> f64 {
        assert!(self.issue_width > 0.0, "issue width must be positive");
        instr / (self.issue_width * efficiency)
            + (l1_only * self.l1_miss_penalty
                + memory * self.l2_miss_penalty
                + tlb * self.tlb_miss_penalty)
    }

    /// Perfect-memory cycles for `instructions` instructions — what
    /// pixie would report.
    #[must_use]
    pub fn pixie_cycles(&self, instructions: u64) -> f64 {
        self.total_cycles(instructions, &Counters::default())
    }

    /// Memory stall cycles implied by the counters.
    #[must_use]
    pub fn stall_cycles(&self, c: &Counters) -> f64 {
        self.total_cycles(0, c)
    }

    /// Total modeled cycles: pixie + stalls. L1 misses that also missed
    /// L2 are charged only the (larger) L2 penalty.
    #[must_use]
    pub fn total_cycles(&self, instructions: u64, c: &Counters) -> f64 {
        let l1_only = c.l1_misses.saturating_sub(c.l2_misses) as f64;
        let (memory, tlb) = (c.l2_misses as f64, c.tlb_misses as f64);
        self.cycles(instructions as f64, 1.0, l1_only, memory, tlb)
    }

    /// The paper's prof-minus-pixie subtraction, as a fraction: what
    /// share of runtime is memory stalls.
    #[must_use]
    pub fn stall_fraction(&self, instructions: u64, c: &Counters) -> f64 {
        let total = self.total_cycles(instructions, c);
        if total == 0.0 {
            0.0
        } else {
            self.stall_cycles(c) / total
        }
    }
}

/// The Section 7 overlap analysis: out-of-order execution and
/// prefetching can hide a fraction of miss *latency*, but the hidden
/// misses still consume *bandwidth* — and the effective stall time can
/// never drop below the time needed to move the missed lines through
/// the available bandwidth. "The maximum per processor usable bandwidth
/// for off node accesses is estimated to be only 195 MB/second, which
/// severely limits the effectiveness of this approach."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapModel {
    /// Fraction of memory-stall latency hidden by OoO/prefetch, `[0,1)`.
    pub latency_hidden: f64,
    /// Available memory bandwidth, MB/s.
    pub bandwidth_mbs: f64,
    /// Line size moved per memory-level miss, bytes.
    pub line_bytes: u64,
    /// Clock rate, Hz (to convert the bandwidth floor into cycles).
    pub clock_hz: f64,
}

impl OverlapModel {
    /// Effective memory-stall cycles after overlap: the latency view
    /// scaled by `(1 − hidden)`, floored by the bandwidth time of the
    /// memory-level misses.
    ///
    /// # Panics
    /// Panics for out-of-range parameters.
    #[must_use]
    pub fn effective_stall_cycles(&self, model: &CycleModel, c: &Counters) -> f64 {
        assert!(
            (0.0..1.0).contains(&self.latency_hidden),
            "hidden fraction must be in [0, 1)"
        );
        assert!(self.bandwidth_mbs > 0.0 && self.clock_hz > 0.0);
        let latency_view = model.stall_cycles(c) * (1.0 - self.latency_hidden);
        let bytes = c.l2_misses as f64 * self.line_bytes as f64;
        let bandwidth_floor = bytes / (self.bandwidth_mbs * 1e6) * self.clock_hz;
        latency_view.max(bandwidth_floor)
    }

    /// How much of the un-overlapped stall time overlap actually
    /// recovers, in `[0, 1]` — the quantity Section 7 says is
    /// "severely limited" for off-node accesses.
    #[must_use]
    pub fn recovered_fraction(&self, model: &CycleModel, c: &Counters) -> f64 {
        let raw = model.stall_cycles(c);
        if raw == 0.0 {
            return 0.0;
        }
        1.0 - self.effective_stall_cycles(model, c) / raw
    }
}

impl Default for CycleModel {
    /// A generic late-1990s RISC: 2-wide issue, 10-cycle L2 hit,
    /// 80-cycle memory, 50-cycle TLB refill.
    fn default() -> Self {
        Self {
            issue_width: 2.0,
            l1_miss_penalty: 10.0,
            l2_miss_penalty: 80.0,
            tlb_miss_penalty: 50.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(l1: u64, l2: u64, tlb: u64) -> Counters {
        Counters {
            loads: 1000,
            stores: 100,
            l1_misses: l1,
            l2_misses: l2,
            tlb_misses: tlb,
            writebacks: 0,
        }
    }

    #[test]
    fn pixie_is_instructions_over_width() {
        let m = CycleModel::default();
        assert!((m.pixie_cycles(1000) - 500.0).abs() < 1e-12);
    }

    #[test]
    fn stalls_charge_each_level_once() {
        let m = CycleModel::default();
        // 10 L1 misses of which 4 went to memory: 6*10 + 4*80 + 2*50.
        let c = counters(10, 4, 2);
        assert!((m.stall_cycles(&c) - (60.0 + 320.0 + 100.0)).abs() < 1e-12);
    }

    #[test]
    fn prof_minus_pixie_recovers_stalls() {
        let m = CycleModel::default();
        let c = counters(100, 10, 0);
        let prof = m.total_cycles(10_000, &c);
        let pixie = m.pixie_cycles(10_000);
        assert!((prof - pixie - m.stall_cycles(&c)).abs() < 1e-9);
    }

    #[test]
    fn stall_fraction_bounds() {
        let m = CycleModel::default();
        let perfect = counters(0, 0, 0);
        assert_eq!(m.stall_fraction(1000, &perfect), 0.0);
        let awful = counters(1000, 1000, 1000);
        let f = m.stall_fraction(1000, &awful);
        assert!(f > 0.99, "{f}");
        assert!(f < 1.0);
    }

    #[test]
    fn one_core_prices_counters_and_rates() {
        let m = CycleModel::default();
        let c = counters(10, 4, 2);
        // The counter methods are the core at full issue efficiency.
        let core = m.cycles(1000.0, 1.0, 6.0, 4.0, 2.0);
        assert_eq!(m.total_cycles(1000, &c).to_bits(), core.to_bits());
        // Half the issue rate doubles the pixie cycles; fractional
        // per-point rates price like counts.
        let half = m.cycles(1000.0, 0.5, 0.6, 0.4, 0.2);
        assert!((half - (1000.0 + 6.0 + 32.0 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn overlap_recovery_depends_on_bandwidth_headroom() {
        // Latency 150 cycles/line at 300 MHz = 500 ns; moving a 128-B
        // line through the local 412-MB/s path takes 93 cycles, so at
        // most ~38% of the latency view is recoverable; an ample
        // 2-GB/s path lets the full 80% hiding through.
        let m = CycleModel {
            issue_width: 4.0,
            l1_miss_penalty: 10.0,
            l2_miss_penalty: 150.0,
            tlb_miss_penalty: 60.0,
        };
        let c = counters(1000, 1000, 0);
        let local = OverlapModel {
            latency_hidden: 0.8,
            bandwidth_mbs: 412.0,
            line_bytes: 128,
            clock_hz: 300e6,
        };
        let rec = local.recovered_fraction(&m, &c);
        assert!((0.3..0.45).contains(&rec), "recovered {rec}");
        let ample = OverlapModel {
            bandwidth_mbs: 2000.0,
            ..local
        };
        let rec = ample.recovered_fraction(&m, &c);
        assert!((rec - 0.8).abs() < 0.05, "recovered {rec}");
    }

    #[test]
    fn off_node_overlap_is_bandwidth_limited() {
        // Section 7's point: the same 80% latency hiding against the
        // 195-MB/s off-node path recovers far less — the bandwidth
        // floor binds.
        let m = CycleModel {
            issue_width: 4.0,
            l1_miss_penalty: 10.0,
            // Off-node latency: ~945 ns at 300 MHz ≈ 283 cycles.
            l2_miss_penalty: 283.0,
            tlb_miss_penalty: 60.0,
        };
        let c = counters(100_000, 100_000, 0);
        let off_node = OverlapModel {
            latency_hidden: 0.8,
            bandwidth_mbs: 195.0,
            line_bytes: 128,
            clock_hz: 300e6,
        };
        let rec = off_node.recovered_fraction(&m, &c);
        // Bandwidth floor: 100k lines * 128 B / 195 MB/s * 300 MHz =
        // 1.97e7 cycles vs raw stalls 2.83e7: at most 30% recoverable.
        assert!(rec < 0.35, "recovered {rec}");
        assert!(rec > 0.0);
        // With local bandwidth the same workload recovers the full 80%.
        let local = OverlapModel {
            bandwidth_mbs: 412.0,
            ..off_node
        };
        assert!(local.recovered_fraction(&m, &c) > 0.5);
    }

    #[test]
    fn zero_stalls_recover_nothing() {
        let m = CycleModel::default();
        let c = counters(0, 0, 0);
        let o = OverlapModel {
            latency_hidden: 0.5,
            bandwidth_mbs: 400.0,
            line_bytes: 128,
            clock_hz: 300e6,
        };
        assert_eq!(o.recovered_fraction(&m, &c), 0.0);
    }

    #[test]
    fn more_misses_cost_more() {
        let m = CycleModel::default();
        let a = m.total_cycles(1000, &counters(5, 1, 0));
        let b = m.total_cycles(1000, &counters(50, 10, 5));
        assert!(b > a);
    }
}
