//! Message-passing MPPs (paper Section 8, Marek Behr's work).
//!
//! Behr implemented loop-level parallelism on the Cray T3D/T3E and IBM
//! SP by hand, with SHMEM/MPI messages replacing the shared-memory data
//! flow. The paper reports two findings, both modeled here:
//!
//! 1. "While this approach worked and produced a credible level of
//!    performance, it was significantly more difficult to implement."
//!    → the communication cost per parallel region: an explicit
//!    exchange (halo) plus a barrier, paid per region per step.
//! 2. "Because many of the target platforms … had caches ranging in
//!    size from 16 to 128 KB, it was impossible to perform many of the
//!    cache optimizations" → priced by `f3d::costmodel::kernel_cost_on`
//!    when the trace is generated against a small-cache memory preset.
//!
//! [`MppConfig::execute`] runs the SMP model's own phase loop
//! (`exec::execute_phases`): the same critical-path compute, with only
//! the per-region term swapped — barrier plus halo exchange where the
//! SMP pays `sync(P)` plus its NUMA surcharge.

use crate::exec::{execute_phases, ExecReport};
use crate::workload::WorkloadTrace;

/// A message-passing machine model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MppConfig {
    /// Machine name.
    pub name: &'static str,
    /// Installed processor count.
    pub max_processors: u32,
    /// Clock rate, Hz.
    pub clock_hz: f64,
    /// Peak MFLOPS per processor.
    pub peak_mflops_per_processor: f64,
    /// One-way message latency, seconds.
    pub latency_s: f64,
    /// Per-processor communication bandwidth, MB/s.
    pub bandwidth_mbs: f64,
    /// Fraction of a loop's memory traffic that must cross the network
    /// as halo exchange per region.
    pub halo_fraction: f64,
}

/// Cray T3E-900 with SHMEM: very low latency, high bandwidth — "the
/// primary exception" to slow interconnects in the paper's Section 8.
#[must_use]
pub fn cray_t3e_shmem() -> MppConfig {
    MppConfig {
        name: "Cray T3E-900 (SHMEM)",
        max_processors: 128,
        clock_hz: 450e6,
        peak_mflops_per_processor: 900.0,
        latency_s: 2.0e-6,
        bandwidth_mbs: 300.0,
        halo_fraction: 0.06,
    }
}

/// A late-1990s workstation cluster with MPI: 50–100 µs latency,
/// ~100 MB/s links (the paper's Section 8 figures).
#[must_use]
pub fn workstation_cluster_mpi() -> MppConfig {
    MppConfig {
        name: "Workstation cluster (MPI)",
        max_processors: 64,
        clock_hz: 300e6,
        peak_mflops_per_processor: 600.0,
        latency_s: 75.0e-6,
        bandwidth_mbs: 100.0,
        halo_fraction: 0.06,
    }
}

impl MppConfig {
    /// Execute a trace with message-passing loop-level parallelism.
    ///
    /// Per parallel region: the critical-path compute every machine
    /// pays (`exec::execute_phases`) plus a communication phase — a
    /// log-tree barrier (`latency × ceil(log2 P)`) and the per-worker
    /// halo exchange
    /// (`critical-path bytes × halo_fraction / bandwidth + 2 latency`).
    /// Serial phases run on one processor with no communication.
    ///
    /// # Panics
    /// Panics if `processors` is zero or exceeds the machine.
    #[must_use]
    pub fn execute(&self, trace: &WorkloadTrace, processors: u32) -> ExecReport {
        let barrier = self.latency_s * f64::from(processors).log2().ceil().max(1.0);
        let machine = (self.name, self.max_processors, self.clock_hz);
        execute_phases(machine, trace, processors, |_, _, _, bytes| {
            let halo_bytes = bytes * self.halo_fraction;
            let comm = barrier + 2.0 * self.latency_s + halo_bytes / (self.bandwidth_mbs * 1e6);
            (comm, 0.0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ParallelLoop, SerialWork};

    fn trace() -> WorkloadTrace {
        let mut t = WorkloadTrace::new();
        t.parallel(ParallelLoop {
            name: "sweep".into(),
            parallelism: 70,
            work_cycles: 450e6, // 1 s at 450 MHz
            flops: 100_000_000,
            traffic_bytes: 100e6,
            shared_page_fraction: 0.0,
        });
        t.serial(SerialWork {
            name: "bc".into(),
            work_cycles: 4.5e6,
            flops: 100_000,
            traffic_bytes: 1e6,
        });
        t
    }

    #[test]
    fn shmem_scales_credibly() {
        // Behr's result: it works and performs credibly.
        let t3e = cray_t3e_shmem();
        let t = trace();
        let s1 = t3e.execute(&t, 1).seconds;
        let s32 = t3e.execute(&t, 32).seconds;
        let speedup = s1 / s32;
        assert!(speedup > 15.0, "only {speedup}x at 32 procs");
    }

    #[test]
    fn cluster_mpi_pays_for_latency() {
        // Same trace, same processor count: the cluster loses a
        // noticeably larger share to communication than SHMEM does.
        let t = trace();
        let t3e = cray_t3e_shmem().execute(&t, 32);
        let clu = workstation_cluster_mpi().execute(&t, 32);
        let t3e_comm = t3e.sync_seconds() / t3e.seconds;
        let clu_comm = clu.sync_seconds() / clu.seconds;
        assert!(clu_comm > 2.0 * t3e_comm, "{clu_comm} vs {t3e_comm}");
    }

    #[test]
    fn stair_step_survives_message_passing() {
        // The parallelism ceiling is algorithmic, not mechanical.
        let t3e = cray_t3e_shmem();
        let t = trace();
        let s48 = t3e.execute(&t, 48).seconds;
        let s64 = t3e.execute(&t, 64).seconds;
        assert!((s48 / s64 - 1.0).abs() < 0.02, "stair plateau missing");
    }

    #[test]
    fn halo_volume_scales_comm_time() {
        let mut heavy = cray_t3e_shmem();
        heavy.halo_fraction = 0.5;
        let t = trace();
        let light = cray_t3e_shmem().execute(&t, 16).sync_seconds();
        let big = heavy.execute(&t, 16).sync_seconds();
        assert!(big > 4.0 * light);
    }

    #[test]
    #[should_panic(expected = "has only")]
    fn over_subscription_panics() {
        let _ = workstation_cluster_mpi().execute(&trace(), 128);
    }
}
