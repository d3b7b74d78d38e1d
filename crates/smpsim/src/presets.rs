//! Full-system presets pairing a NUMA/sync machine model with its
//! per-processor memory hierarchy (from `cachesim::presets`). A preset
//! states its processors, sync cost and NUMA geometry; its clock and
//! peak MFLOPS are its memory preset's.
//!
//! Bandwidth figures for the Origin 2000 come straight from Section 7:
//! "one sees a range of usable per processor bandwidths of 412
//! MB/second down to 135 MB/second … the maximum per processor usable
//! bandwidth for off node accesses is estimated to be only 195
//! MB/second." Synchronization costs use the Section 3 range (2,000 to
//! 1,000,000 cycles depending on machine and load).

use crate::exec::Machine;
use crate::machine::{MachineConfig, NumaConfig, SyncCostModel};
use cachesim::presets as mem;
use cachesim::presets::MachineMemory;

/// A machine model paired with its per-processor memory hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct SystemPreset {
    /// The scaling model (processors, sync, NUMA).
    pub machine: MachineConfig,
    /// The per-processor memory system (caches, TLB, cycle costs).
    pub memory: MachineMemory,
}

impl SystemPreset {
    /// An executable machine for this preset.
    #[must_use]
    pub fn executor(&self) -> Machine {
        Machine::new(self.machine)
    }
}

/// Pair a scaling model with its memory system. The clock and the
/// per-processor peak are `memory`'s, so each is stated once.
fn preset(
    name: &'static str,
    max_processors: u32,
    sync: SyncCostModel,
    numa: NumaConfig,
    memory: MachineMemory,
) -> SystemPreset {
    SystemPreset {
        machine: MachineConfig {
            name,
            max_processors,
            clock_hz: memory.clock_hz,
            peak_mflops_per_processor: memory.peak_mflops,
            sync,
            numa,
        },
        memory,
    }
}

/// 128-processor, 300-MHz R12000 SGI Origin 2000 — the Table 4 machine.
#[must_use]
pub fn origin2000_r12k_128() -> SystemPreset {
    preset(
        "SGI R12K Origin 2000 (128p, 300 MHz)",
        128,
        SyncCostModel {
            base_cycles: 5_000.0,
            per_processor_cycles: 250.0,
        },
        NumaConfig {
            processors_per_node: 2,
            page_bytes: 16 << 10,
            local_bw_mbs: 412.0,
            remote_bw_mbs: 195.0,
            contention_coeff: 0.05,
        },
        mem::origin2000_r12k(),
    )
}

/// 64-processor, 195-MHz R10000 Origin 2000 (Figure 3's older system).
#[must_use]
pub fn origin2000_r10k_64() -> SystemPreset {
    preset(
        "SGI Origin 2000 (64p, 195 MHz)",
        64,
        SyncCostModel {
            base_cycles: 5_000.0,
            per_processor_cycles: 250.0,
        },
        NumaConfig {
            processors_per_node: 2,
            page_bytes: 16 << 10,
            local_bw_mbs: 350.0,
            remote_bw_mbs: 160.0,
            contention_coeff: 0.05,
        },
        mem::origin2000_r10k_195(),
    )
}

/// 128-processor, 195-MHz R10000 Origin 2000 (Figure 3).
#[must_use]
pub fn origin2000_r10k_128() -> SystemPreset {
    let mut p = origin2000_r10k_64();
    p.machine.name = "SGI Origin 2000 (128p, 195 MHz)";
    p.machine.max_processors = 128;
    p
}

/// 64-processor, 400-MHz UltraSPARC II SUN HPC 10000.
///
/// The Starfire's central crossbar makes it much closer to UMA than the
/// Origin, but memory is still interleaved across system boards (4
/// processors each), so a small contention term remains.
#[must_use]
pub fn hpc10000_64() -> SystemPreset {
    preset(
        "SUN HPC 10000 (64p, 400 MHz)",
        64,
        SyncCostModel {
            base_cycles: 8_000.0,
            per_processor_cycles: 400.0,
        },
        NumaConfig {
            processors_per_node: 4,
            page_bytes: 8 << 10,
            local_bw_mbs: 380.0,
            remote_bw_mbs: 220.0,
            contention_coeff: 0.04,
        },
        mem::hpc10000_ultrasparc2(),
    )
}

/// 16-processor, 440-MHz PA-8500 HP V2500 (Figure 2's third system).
#[must_use]
pub fn hp_v2500_16() -> SystemPreset {
    preset(
        "HP V2500 (16p, 440 MHz)",
        16,
        SyncCostModel {
            base_cycles: 6_000.0,
            per_processor_cycles: 500.0,
        },
        NumaConfig {
            processors_per_node: 16,
            page_bytes: 4 << 10,
            local_bw_mbs: 960.0,
            remote_bw_mbs: 960.0,
            contention_coeff: 0.02,
        },
        mem::hp_v2500(),
    )
}

/// 16-processor, 90-MHz R8000 SGI Power Challenge — the bus-based UMA
/// machine where the >10x serial-tuning speedup was measured.
#[must_use]
pub fn power_challenge_16() -> SystemPreset {
    preset(
        "SGI Power Challenge (16p, 90 MHz)",
        16,
        SyncCostModel {
            base_cycles: 2_000.0,
            per_processor_cycles: 200.0,
        },
        // Shared bus: UMA, but aggregate bandwidth is the bus's 1.2
        // GB/s split across processors.
        NumaConfig {
            processors_per_node: 16,
            page_bytes: 16 << 10,
            local_bw_mbs: 75.0,
            remote_bw_mbs: 75.0,
            contention_coeff: 0.0,
        },
        mem::power_challenge_r8k(),
    )
}

/// 16-processor Convex Exemplar SPP-1000 — the heavily-NUMA machine
/// whose "performance problems … were never satisfactorily solved".
/// Eight processors per hypernode; remote (CTI ring) bandwidth is a
/// small fraction of local, and page contention is punishing.
#[must_use]
pub fn exemplar_spp1000_16() -> SystemPreset {
    preset(
        "Convex Exemplar SPP-1000 (16p, 100 MHz)",
        16,
        SyncCostModel {
            base_cycles: 30_000.0,
            per_processor_cycles: 2_000.0,
        },
        NumaConfig {
            processors_per_node: 8,
            page_bytes: 4 << 10,
            local_bw_mbs: 250.0,
            remote_bw_mbs: 32.0,
            contention_coeff: 0.8,
        },
        mem::exemplar_spp1000(),
    )
}

/// All presets used by the benchmark harness.
#[must_use]
pub fn all() -> Vec<SystemPreset> {
    vec![
        origin2000_r12k_128(),
        origin2000_r10k_64(),
        origin2000_r10k_128(),
        hpc10000_64(),
        hp_v2500_16(),
        power_challenge_16(),
        exemplar_spp1000_16(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_costs_in_paper_range() {
        // "from 2,000 to 1-million cycles (or more)"
        for p in all() {
            let at_max = p.machine.sync.cycles(p.machine.max_processors);
            assert!(
                (2_000.0..=1_000_000.0).contains(&at_max),
                "{}: {at_max}",
                p.machine.name
            );
        }
    }

    #[test]
    fn origin_bandwidths_match_section7() {
        let o = origin2000_r12k_128();
        assert_eq!(o.machine.numa.local_bw_mbs, 412.0);
        assert_eq!(o.machine.numa.remote_bw_mbs, 195.0);
        assert_eq!(o.machine.numa.processors_per_node, 2);
    }

    #[test]
    fn peaks_match_paper() {
        assert_eq!(
            origin2000_r12k_128().machine.peak_mflops_per_processor,
            600.0
        );
        assert_eq!(hpc10000_64().machine.peak_mflops_per_processor, 800.0);
    }

    #[test]
    fn exemplar_is_the_most_contended() {
        let worst = exemplar_spp1000_16().machine.numa.contention_coeff;
        for p in all() {
            assert!(
                p.machine.numa.contention_coeff <= worst,
                "{}",
                p.machine.name
            );
        }
        // And its remote bandwidth is by far the lowest.
        assert!(exemplar_spp1000_16().machine.numa.remote_bw_mbs < 50.0);
    }

    #[test]
    fn executors_build() {
        for p in all() {
            let m = p.executor();
            assert_eq!(m.config().name, p.machine.name);
        }
    }
}
