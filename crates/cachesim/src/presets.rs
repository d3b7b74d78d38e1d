//! Cache geometries of the machines the paper used (Table 5).
//!
//! Values are period-accurate to the published specifications where
//! those are unambiguous and representative otherwise; the experiments
//! depend on the *ratios* (pencil ≪ cache ≪ plane, TLB reach ≪ zone)
//! rather than on exact byte counts, and each constant is documented so
//! it can be adjusted.

use crate::cache::CacheConfig;
use crate::cost::CycleModel;
use crate::hierarchy::MemHierarchy;

/// A named single-processor memory-system preset.
#[derive(Debug, Clone, Copy)]
pub struct MachineMemory {
    /// Machine name.
    pub name: &'static str,
    /// Clock rate, Hz.
    pub clock_hz: f64,
    /// Peak MFLOPS of one processor.
    pub peak_mflops: f64,
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Unified/external L2, if present.
    pub l2: Option<CacheConfig>,
    /// Data TLB: one set of `entries` page-sized lines
    /// ([`CacheConfig::fully_associative`]); its reach is `size_bytes`.
    pub tlb: CacheConfig,
    /// Cycle cost model.
    pub cost: CycleModel,
}

impl MachineMemory {
    /// Build a cold memory hierarchy for one processor of this machine.
    #[must_use]
    pub fn hierarchy(&self) -> MemHierarchy {
        MemHierarchy::new(self.l1, self.l2, self.tlb)
    }

    /// The capacity (bytes) of the cache level the paper sizes scratch
    /// arrays against — L2 when present, else L1.
    #[must_use]
    pub fn scratch_cache_bytes(&self) -> usize {
        self.l2.map_or(self.l1.size_bytes, |c| c.size_bytes)
    }
}

/// SGI Origin 2000, 300-MHz R12000: 32-KB 2-way L1 (32-B lines), 8-MB
/// 2-way unified L2 (128-B lines), 64-entry TLB with 16-KB pages.
/// Peak 600 MFLOPS (madd per cycle).
#[must_use]
pub fn origin2000_r12k() -> MachineMemory {
    MachineMemory {
        name: "SGI Origin 2000 (R12000, 300 MHz)",
        clock_hz: 300e6,
        peak_mflops: 600.0,
        l1: CacheConfig::new(32 << 10, 32, 2),
        l2: Some(CacheConfig::new(8 << 20, 128, 2)),
        tlb: CacheConfig::fully_associative(64, 16 << 10),
        cost: CycleModel {
            issue_width: 4.0,
            l1_miss_penalty: 10.0,
            // ~100 ns local-memory latency at 300 MHz ≈ 30+ cycles; the
            // Origin's directory adds more for remote lines (handled by
            // smpsim's NUMA model); 64 cycles is the UMA-ish average.
            l2_miss_penalty: 64.0,
            tlb_miss_penalty: 60.0,
        },
    }
}

/// SGI Origin 2000, 195-MHz R10000: 4-MB L2. Peak 390 MFLOPS.
#[must_use]
pub fn origin2000_r10k_195() -> MachineMemory {
    MachineMemory {
        name: "SGI Origin 2000 (R10000, 195 MHz)",
        clock_hz: 195e6,
        peak_mflops: 390.0,
        l1: CacheConfig::new(32 << 10, 32, 2),
        l2: Some(CacheConfig::new(4 << 20, 128, 2)),
        tlb: CacheConfig::fully_associative(64, 16 << 10),
        cost: CycleModel {
            issue_width: 4.0,
            l1_miss_penalty: 8.0,
            l2_miss_penalty: 48.0,
            tlb_miss_penalty: 50.0,
        },
    }
}

/// SUN HPC 10000 (Starfire), 400-MHz UltraSPARC II: 16-KB direct-mapped
/// L1 (32-B lines), 4-MB direct-mapped external cache (64-B lines),
/// 64-entry TLB with 8-KB pages. Peak 800 MFLOPS.
#[must_use]
pub fn hpc10000_ultrasparc2() -> MachineMemory {
    MachineMemory {
        name: "SUN HPC 10000 (UltraSPARC II, 400 MHz)",
        clock_hz: 400e6,
        peak_mflops: 800.0,
        l1: CacheConfig::direct_mapped(16 << 10, 32),
        l2: Some(CacheConfig::direct_mapped(4 << 20, 64)),
        tlb: CacheConfig::fully_associative(64, 8 << 10),
        cost: CycleModel {
            issue_width: 4.0,
            l1_miss_penalty: 10.0,
            // The Starfire's snoopy Gigaplane-XB backplane runs ~500 ns
            // under load ≈ 200 cycles at 400 MHz — the reason the
            // higher-peak SUN delivers slightly less than the Origin in
            // the paper's Table 4.
            l2_miss_penalty: 200.0,
            tlb_miss_penalty: 50.0,
        },
    }
}

/// SGI Power Challenge, 90-MHz R8000: the paper's serial-tuning machine
/// (">10x speedup"). 16-KB L1 with a 4-MB 4-way streaming L2.
/// Peak 360 MFLOPS.
#[must_use]
pub fn power_challenge_r8k() -> MachineMemory {
    MachineMemory {
        name: "SGI Power Challenge (R8000, 90 MHz)",
        clock_hz: 90e6,
        peak_mflops: 360.0,
        l1: CacheConfig::direct_mapped(16 << 10, 32),
        l2: Some(CacheConfig::new(4 << 20, 128, 4)),
        tlb: CacheConfig::fully_associative(48, 16 << 10),
        cost: CycleModel {
            issue_width: 4.0,
            l1_miss_penalty: 6.0,
            // Shared-bus memory: ~1 µs under load at 90 MHz.
            l2_miss_penalty: 90.0,
            tlb_miss_penalty: 40.0,
        },
    }
}

/// Convex Exemplar SPP-1000, 100-MHz PA-7100: 1-MB direct-mapped
/// off-chip L1, no L2, 4-KB pages. The heavily-NUMA machine whose
/// performance problems "were never satisfactorily solved".
#[must_use]
pub fn exemplar_spp1000() -> MachineMemory {
    MachineMemory {
        name: "Convex Exemplar SPP-1000 (PA-7100, 100 MHz)",
        clock_hz: 100e6,
        peak_mflops: 200.0,
        l1: CacheConfig::direct_mapped(1 << 20, 32),
        l2: None,
        tlb: CacheConfig::fully_associative(120, 4 << 10),
        cost: CycleModel {
            issue_width: 2.0,
            l1_miss_penalty: 0.0, // no L2: every L1 miss is a memory miss
            // CTI ring latency for remote hypernode accesses is brutal
            // (~2 µs); 55 cycles is the local-memory cost, the NUMA
            // multiplier lives in smpsim.
            l2_miss_penalty: 55.0,
            tlb_miss_penalty: 30.0,
        },
    }
}

/// HP V2500, 440-MHz PA-8500: 1-MB on-chip 4-way L1 data cache, no L2.
/// Peak 1760 MFLOPS (2 fma/cycle). The 16-processor machine in Fig. 2.
#[must_use]
pub fn hp_v2500() -> MachineMemory {
    MachineMemory {
        name: "HP V2500 (PA-8500, 440 MHz)",
        clock_hz: 440e6,
        peak_mflops: 1760.0,
        l1: CacheConfig::new(1 << 20, 64, 4),
        l2: None,
        tlb: CacheConfig::fully_associative(160, 4 << 10),
        cost: CycleModel {
            issue_width: 4.0,
            l1_miss_penalty: 0.0,
            l2_miss_penalty: 116.0,
            tlb_miss_penalty: 40.0,
        },
    }
}

/// Cray T3E-900, 450-MHz Alpha EV5: 8-KB L1 and a 96-KB on-chip L2
/// (modeled as 128 KB to satisfy the power-of-two geometry; the
/// conclusion only needs "far too small for pencil scratch"). The
/// machine class on which Behr "was impossible to perform many of the
/// cache optimizations" (paper Section 8).
#[must_use]
pub fn cray_t3e() -> MachineMemory {
    MachineMemory {
        name: "Cray T3E-900 (Alpha EV5, 450 MHz)",
        clock_hz: 450e6,
        peak_mflops: 900.0,
        l1: CacheConfig::direct_mapped(8 << 10, 32),
        l2: Some(CacheConfig::new(128 << 10, 64, 4)),
        tlb: CacheConfig::fully_associative(64, 8 << 10),
        cost: CycleModel {
            issue_width: 4.0,
            l1_miss_penalty: 8.0,
            l2_miss_penalty: 56.0,
            tlb_miss_penalty: 40.0,
        },
    }
}

/// All presets, for sweep harnesses.
#[must_use]
pub fn all() -> Vec<MachineMemory> {
    vec![
        origin2000_r12k(),
        origin2000_r10k_195(),
        hpc10000_ultrasparc2(),
        power_challenge_r8k(),
        exemplar_spp1000(),
        hp_v2500(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build_hierarchies() {
        for m in all() {
            let h = m.hierarchy();
            assert_eq!(h.counters().accesses(), 0, "{}", m.name);
            assert!(m.clock_hz > 0.0);
            assert!(m.peak_mflops > 0.0);
        }
    }

    #[test]
    fn paper_peak_speeds() {
        // "The peak speed of a processor on the SUN system is 800
        // MFLOPS and 600 MFLOPS on the SGI system."
        assert_eq!(origin2000_r12k().peak_mflops, 600.0);
        assert_eq!(hpc10000_ultrasparc2().peak_mflops, 800.0);
    }

    #[test]
    fn scratch_cache_is_large_on_tuning_machines() {
        // The paper's cache optimizations assumed "caches with 1-8 MB".
        for m in all() {
            let mb = m.scratch_cache_bytes() >> 20;
            assert!((1..=8).contains(&mb), "{}: {} MB", m.name, mb);
        }
    }

    #[test]
    fn pencil_fits_plane_does_not() {
        // The key sizing claim: a 1000-point pencil's scratch fits the
        // scratch cache, a 450x350 plane's scratch does not.
        for m in all() {
            let cache = m.scratch_cache_bytes();
            let pencil = 1000 * 20 * 8; // 20 f64 scratch values per point
            let plane = 450 * 350 * 20 * 8;
            assert!(pencil <= cache / 2, "{}: pencil too big", m.name);
            assert!(plane > cache, "{}: plane fits?!", m.name);
        }
    }

    #[test]
    fn no_l2_machines_route_misses_to_memory() {
        let m = exemplar_spp1000();
        let mut h = m.hierarchy();
        h.access(0, crate::hierarchy::AccessKind::Load);
        assert_eq!(h.counters().l2_misses, 1);
    }
}
