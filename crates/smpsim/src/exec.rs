//! The trace executor: price a [`WorkloadTrace`] on a machine at a
//! given processor count.

use crate::contention::contention_multiplier;
use crate::machine::MachineConfig;
use crate::workload::{ParallelLoop, Phase, WorkloadTrace};

/// Timing breakdown of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTime {
    /// Phase name.
    pub name: String,
    /// Critical-path compute seconds (stair-step applied).
    pub compute_seconds: f64,
    /// Synchronization seconds (zero for serial phases).
    pub sync_seconds: f64,
    /// Extra seconds from NUMA bandwidth limits and page contention.
    pub numa_seconds: f64,
    /// Parallel-loop extent (0 for serial phases).
    pub parallelism: u64,
    /// Processors the phase actually used (1 for serial phases).
    pub processors_used: u32,
}

impl PhaseTime {
    /// Total seconds for the phase.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.compute_seconds + self.sync_seconds + self.numa_seconds
    }
}

/// The result of executing a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Processor count used.
    pub processors: u32,
    /// Total wall seconds.
    pub seconds: f64,
    /// Total floating-point operations.
    pub flops: u64,
    /// Per-phase breakdown, in trace order.
    pub phases: Vec<PhaseTime>,
}

impl ExecReport {
    /// Delivered MFLOPS of the run.
    #[must_use]
    pub fn mflops(&self) -> f64 {
        perfmodel::delivered_mflops(self.flops, self.seconds)
    }

    /// Time steps per hour, treating the trace as one time step.
    #[must_use]
    pub fn time_steps_per_hour(&self) -> f64 {
        perfmodel::time_steps_per_hour(self.seconds)
    }

    /// Seconds spent synchronizing.
    #[must_use]
    pub fn sync_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.sync_seconds).sum()
    }

    /// Seconds added by the NUMA model.
    #[must_use]
    pub fn numa_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.numa_seconds).sum()
    }

    /// Export this modeled run in the shared observability schema
    /// (`source: "modeled"`), so it can be diffed against a measured
    /// [`llp::ObsReport`] kernel-by-kernel.
    ///
    /// Every phase becomes a kernel span under one `step` root; a
    /// parallel phase carries a region child whose chunk statistics are
    /// reconstructed from the stair-step model: the critical-path chunk
    /// runs `ceil(U/P)` units (the chunk max), the mean chunk runs
    /// `U / min(U, P)` units.
    #[must_use]
    pub fn to_obs_report(&self, case: &str) -> llp::ObsReport {
        let mut step = llp::SpanNode::new("step", llp::SpanKind::Step);
        for phase in &self.phases {
            let mut kernel = llp::SpanNode::new(&phase.name, llp::SpanKind::Kernel);
            kernel.seconds = phase.seconds();
            if phase.parallelism > 0 {
                let u = phase.parallelism;
                let mut region = llp::SpanNode::new("region", llp::SpanKind::Region);
                region.seconds = phase.seconds();
                region.workers = phase.processors_used as usize;
                region.iterations = u;
                region.sync_events = 1;
                region.chunk_count = phase.processors_used as usize;
                region.chunk_max_seconds = phase.compute_seconds;
                #[allow(clippy::cast_precision_loss)]
                let max_units = perfmodel::max_units_per_processor(u, phase.processors_used) as f64;
                let mean_units = u as f64 / f64::from(phase.processors_used);
                region.chunk_mean_seconds = phase.compute_seconds * mean_units / max_units;
                kernel.children.push(region);
            }
            step.seconds += kernel.seconds;
            step.children.push(kernel);
        }
        llp::ObsReport {
            schema_version: llp::obs::REPORT_SCHEMA_VERSION,
            source: "modeled".to_string(),
            case: case.to_string(),
            workers: self.processors as usize,
            requested_workers: None,
            spans: vec![step],
        }
    }
}

/// The phase loop of both machine models, `machine` being `(name,
/// installed processors, clock Hz)`. A serial phase costs `W / clock`;
/// a parallel one its critical path ([`perfmodel::critical_path`] at
/// `ceil(U/P)`) plus the machine's per-region term, `region(loop,
/// processors used, compute seconds, critical-path bytes) -> (sync,
/// numa)` seconds — the only thing the SMP and the MPP differ in.
pub(crate) fn execute_phases(
    (name, max_processors, clock_hz): (&str, u32, f64),
    trace: &WorkloadTrace,
    processors: u32,
    region: impl Fn(&ParallelLoop, u32, f64, f64) -> (f64, f64),
) -> ExecReport {
    assert!(processors > 0, "processor count must be positive");
    assert!(
        processors <= max_processors,
        "{name} has only {max_processors} processors (asked for {processors})"
    );
    let phases: Vec<PhaseTime> = trace
        .phases
        .iter()
        .map(|phase| match phase {
            Phase::Serial(s) => PhaseTime {
                name: s.name.clone(),
                compute_seconds: s.work_cycles / clock_hz,
                sync_seconds: 0.0,
                numa_seconds: 0.0,
                parallelism: 0,
                processors_used: 1,
            },
            Phase::Parallel(p) => {
                let u = p.parallelism.max(1);
                let m = perfmodel::max_units_per_processor(u, processors);
                let compute_seconds = perfmodel::critical_path(p.work_cycles, u, m) / clock_hz;
                let p_used = u32::try_from(u.min(u64::from(processors))).expect("fits");
                let bytes = perfmodel::critical_path(p.traffic_bytes, u, m);
                let (sync_seconds, numa_seconds) = region(p, p_used, compute_seconds, bytes);
                PhaseTime {
                    name: p.name.clone(),
                    compute_seconds,
                    sync_seconds,
                    numa_seconds,
                    parallelism: u,
                    processors_used: p_used,
                }
            }
        })
        .collect();
    ExecReport {
        processors,
        seconds: phases.iter().map(PhaseTime::seconds).sum(),
        flops: trace.total_flops(),
        phases,
    }
}

/// A machine ready to execute traces.
///
/// ```
/// use smpsim::presets::origin2000_r12k_128;
/// use smpsim::{ParallelLoop, WorkloadTrace};
///
/// let machine = origin2000_r12k_128().executor();
/// let mut trace = WorkloadTrace::new();
/// trace.parallel(ParallelLoop {
///     name: "sweep".into(),
///     parallelism: 70,           // the 1M case's L extent
///     work_cycles: 3.0e9,        // 10 s at 300 MHz
///     flops: 4_500_000_000,
///     traffic_bytes: 660.0e6,
///     shared_page_fraction: 0.02,
/// });
/// let r64 = machine.execute(&trace, 64);
/// let r48 = machine.execute(&trace, 48);
/// // The stair-step plateau: 48 and 64 processors tie (ceil(70/P) = 2).
/// assert!((r48.seconds / r64.seconds - 1.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    config: MachineConfig,
}

impl Machine {
    /// Wrap a configuration.
    #[must_use]
    pub fn new(config: MachineConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Execute a trace at `processors` processors.
    ///
    /// Model, per parallel loop with parallelism `U`, single-processor
    /// work `W` cycles, traffic `B` bytes, shared-page fraction `s`:
    ///
    /// * critical-path compute: `W * ceil(U/P)/U / clock` (stair-step);
    /// * synchronization: `sync(P) / clock`;
    /// * NUMA surcharge (roofline): the critical-path worker moves
    ///   `B' = B * ceil(U/P)/U` bytes. Latency stalls at local memory
    ///   are already inside `W` (the trace is calibrated against local,
    ///   uncontended memory), so the loop only slows down when moving
    ///   `B'` bytes through the *degraded* path takes longer than the
    ///   compute itself: `max(0, B' / bw_eff * contention - compute)`,
    ///   where `bw_eff` mixes local and off-node bandwidth by the
    ///   off-node fraction and `contention` is the Section 7
    ///   page-sharing multiplier. This is exactly the paper's demand
    ///   argument: 68 MB/s of demand against 135–195 MB/s of off-node
    ///   bandwidth ⇒ no surcharge ⇒ the Origin behaves like a UMA
    ///   machine.
    ///
    /// Serial phases run on one processor at local bandwidth: exactly
    /// their calibrated `W / clock`.
    ///
    /// # Panics
    /// Panics if `processors == 0` or exceeds the installed count.
    #[must_use]
    pub fn execute(&self, trace: &WorkloadTrace, processors: u32) -> ExecReport {
        let cfg = &self.config;
        let numa = &cfg.numa;
        let machine = (cfg.name, cfg.max_processors, cfg.clock_hz);
        execute_phases(machine, trace, processors, |p, p_used, compute_s, bytes| {
            let off = numa.off_node_fraction(processors);
            // Harmonic blend: local and remote bytes move in sequence,
            // so times add (a slow remote path cannot be averaged away
            // by a fast local one).
            let bw_eff = 1e6 / ((1.0 - off) / numa.local_bw_mbs + off / numa.remote_bw_mbs);
            let mult = contention_multiplier(p.shared_page_fraction, p_used, numa.contention_coeff);
            let numa_seconds = (bytes / bw_eff * mult - compute_s).max(0.0);
            (cfg.sync_seconds(processors), numa_seconds)
        })
    }

    /// Execute a set of independent traces **concurrently** on disjoint
    /// processor partitions — the multi-level-parallelism (MLP) outer
    /// level of Taft's OVERFLOW-MLP (paper Section 8). `traces[i]` runs
    /// on `partition[i]` processors; the wall time is the slowest
    /// partition's (zone-level load imbalance is the price of MLP).
    ///
    /// # Panics
    /// Panics on a length mismatch, a zero partition entry, or a
    /// partition summing to more than the machine has.
    #[must_use]
    pub fn execute_mlp(&self, traces: &[WorkloadTrace], partition: &[u32]) -> ExecReport {
        assert_eq!(traces.len(), partition.len(), "one partition per trace");
        assert!(!traces.is_empty(), "need at least one trace");
        let total: u32 = partition.iter().sum();
        assert!(
            total <= self.config.max_processors,
            "partition sums to {total}, machine has {}",
            self.config.max_processors
        );
        let mut reports: Vec<ExecReport> = traces
            .iter()
            .zip(partition)
            .map(|(t, &p)| self.execute(t, p))
            .collect();
        let seconds = reports.iter().map(|r| r.seconds).fold(0.0f64, f64::max);
        let flops = reports.iter().map(|r| r.flops).sum();
        let phases = reports
            .iter_mut()
            .flat_map(|r| r.phases.drain(..))
            .collect();
        ExecReport {
            processors: total,
            seconds,
            flops,
            phases,
        }
    }

    /// Execute the trace at each processor count.
    #[must_use]
    pub fn sweep(&self, trace: &WorkloadTrace, processor_counts: &[u32]) -> Vec<ExecReport> {
        processor_counts
            .iter()
            .map(|&p| self.execute(trace, p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{NumaConfig, SyncCostModel};
    use crate::workload::{ParallelLoop, SerialWork, WorkloadTrace};

    fn uma_machine() -> Machine {
        Machine::new(MachineConfig {
            name: "uma-test",
            max_processors: 128,
            clock_hz: 100e6,
            peak_mflops_per_processor: 200.0,
            sync: SyncCostModel {
                base_cycles: 0.0,
                per_processor_cycles: 0.0,
            },
            numa: NumaConfig::uma(400.0),
        })
    }

    fn numa_machine(contention: f64) -> Machine {
        Machine::new(MachineConfig {
            name: "numa-test",
            max_processors: 128,
            clock_hz: 100e6,
            peak_mflops_per_processor: 200.0,
            sync: SyncCostModel {
                base_cycles: 2_000.0,
                per_processor_cycles: 100.0,
            },
            numa: NumaConfig {
                processors_per_node: 2,
                page_bytes: 16 << 10,
                local_bw_mbs: 400.0,
                remote_bw_mbs: 150.0,
                contention_coeff: contention,
            },
        })
    }

    fn one_loop(u: u64, work: f64, traffic: f64, spf: f64) -> WorkloadTrace {
        let mut t = WorkloadTrace::new();
        t.parallel(ParallelLoop {
            name: "loop".into(),
            parallelism: u,
            work_cycles: work,
            flops: 1_000_000,
            traffic_bytes: traffic,
            shared_page_fraction: spf,
        });
        t
    }

    #[test]
    fn stairstep_speedup_on_ideal_machine() {
        let m = uma_machine();
        let t = one_loop(15, 15e6, 0.0, 0.0);
        let t1 = m.execute(&t, 1).seconds;
        for (p, expect) in [
            (2u32, 15.0 / 8.0),
            (4, 3.75),
            (5, 5.0),
            (7, 5.0),
            (15, 15.0),
        ] {
            let tp = m.execute(&t, p).seconds;
            let speedup = t1 / tp;
            assert!(
                (speedup - expect).abs() < 1e-9,
                "P={p}: got {speedup}, want {expect}"
            );
        }
    }

    #[test]
    fn plateau_48_to_64_for_u70() {
        // The paper's 1M-case observation, reproduced by the model.
        let m = uma_machine();
        let t = one_loop(70, 70e6, 0.0, 0.0);
        let s48 = m.execute(&t, 48).seconds;
        let s64 = m.execute(&t, 64).seconds;
        let s70 = m.execute(&t, 70).seconds;
        assert!((s48 - s64).abs() < 1e-12, "flat between 48 and 64");
        assert!(s70 < s64, "jump at 70");
    }

    #[test]
    fn sync_cost_caps_scaling_of_small_loops() {
        let m = numa_machine(0.0);
        // Tiny loop: 100k cycles of work, sync ~2k-15k cycles.
        let t = one_loop(1000, 1e5, 0.0, 0.0);
        let s1 = m.execute(&t, 1).seconds;
        let s64 = m.execute(&t, 64).seconds;
        let speedup = s1 / s64;
        // Ideal would be 64; overhead must hold it far below.
        assert!(speedup < 16.0, "got {speedup}");
    }

    #[test]
    fn serial_phase_is_amdahl_floor() {
        let m = uma_machine();
        let mut t = one_loop(1000, 90e6, 0.0, 0.0);
        t.serial(SerialWork {
            name: "bc".into(),
            work_cycles: 10e6,
            flops: 0,
            traffic_bytes: 0.0,
        });
        let s1 = m.execute(&t, 1).seconds;
        let s1000 = m.execute(&t, 100).seconds;
        let speedup = s1 / s1000;
        // Amdahl with s=0.1 at P=100: 1/(0.1+0.9/100) = 9.17
        assert!(
            (speedup - 1.0 / (0.1 + 0.9 / 100.0)).abs() < 0.05,
            "{speedup}"
        );
    }

    #[test]
    fn uma_machine_has_no_numa_surcharge() {
        // Fully-shared pages on a UMA machine cost nothing (contention
        // coefficient 0) as long as bandwidth demand stays under the
        // per-processor limit.
        let m = uma_machine();
        let t = one_loop(64, 1e6, 1e6, 1.0);
        let r = m.execute(&t, 64);
        assert_eq!(r.numa_seconds(), 0.0);
        // A bandwidth-bound loop pays the roofline cost even on UMA.
        let t_bw = one_loop(64, 1e6, 1e9, 0.0);
        assert!(m.execute(&t_bw, 64).numa_seconds() > 0.0);
    }

    #[test]
    fn low_traffic_numa_behaves_like_uma() {
        // Section 7: tuned code's 68 MB/s of traffic makes the Origin
        // "as though it had Uniform Memory Access". Low traffic ->
        // surcharge negligible relative to compute.
        let m = numa_machine(0.0);
        // 1 s of compute at 100 MHz, 68 MB of traffic (68 MB/s demand).
        let t = one_loop(128, 100e6, 68e6, 0.0);
        let r = m.execute(&t, 64);
        assert!(
            r.numa_seconds() < 0.05 * r.seconds,
            "{:?}",
            r.numa_seconds()
        );
    }

    #[test]
    fn page_contention_collapses_shared_patterns() {
        // Example 4(c): fully shared pages on a contention-sensitive
        // machine get worse as processors are added.
        let m = numa_machine(0.5);
        let t_shared = one_loop(128, 100e6, 500e6, 1.0);
        let t_private = one_loop(128, 100e6, 500e6, 0.0);
        let shared_64 = m.execute(&t_shared, 64).seconds;
        let private_64 = m.execute(&t_private, 64).seconds;
        assert!(
            shared_64 > 5.0 * private_64,
            "shared {shared_64} vs private {private_64}"
        );
        // And the shared pattern anti-scales: slower at 64 than at 8.
        let shared_8 = m.execute(&t_shared, 8).seconds;
        assert!(shared_64 > shared_8);
    }

    #[test]
    fn report_metrics() {
        let m = uma_machine();
        let t = one_loop(10, 100e6, 0.0, 0.0); // 1 s at 100 MHz
        let r = m.execute(&t, 1);
        assert!((r.seconds - 1.0).abs() < 1e-12);
        assert!((r.mflops() - 1.0).abs() < 1e-9);
        assert!((r.time_steps_per_hour() - 3600.0).abs() < 1e-6);
    }

    #[test]
    fn mlp_lifts_the_stairstep_ceiling() {
        // One trace of U=70 caps at 70x; three such zones under MLP on
        // 128 processors exceed the single-zone ceiling.
        let m = uma_machine();
        let zone = one_loop(70, 70e6, 0.0, 0.0);
        let traces = vec![zone.clone(), zone.clone(), zone.clone()];

        // Pure loop-level: the three zones run back-to-back.
        let mut seq = WorkloadTrace::new();
        for t in &traces {
            seq.extend(t);
        }
        let ll_128 = m.execute(&seq, 128).seconds;

        // MLP: 42/43/43 processors each, zones concurrent.
        let mlp_128 = m.execute_mlp(&traces, &[42, 43, 43]).seconds;
        assert!(
            mlp_128 < 0.8 * ll_128,
            "MLP {mlp_128} vs loop-level {ll_128}"
        );
    }

    #[test]
    fn mlp_pays_for_load_imbalance() {
        let m = uma_machine();
        let big = one_loop(70, 90e6, 0.0, 0.0);
        let small = one_loop(70, 10e6, 0.0, 0.0);
        // Even split: the big zone's partition is the bottleneck.
        let even = m.execute_mlp(&[big.clone(), small.clone()], &[10, 10]);
        // Weighted split matches the work.
        let weighted = m.execute_mlp(&[big, small], &[18, 2]);
        assert!(weighted.seconds < even.seconds);
    }

    #[test]
    fn mlp_flops_sum_and_processors_total() {
        let m = uma_machine();
        let t = one_loop(16, 1e6, 0.0, 0.0);
        let r = m.execute_mlp(&[t.clone(), t], &[4, 8]);
        assert_eq!(r.processors, 12);
        assert_eq!(r.flops, 2_000_000);
        assert_eq!(r.phases.len(), 2);
    }

    #[test]
    #[should_panic(expected = "partition sums to")]
    fn mlp_oversubscription_panics() {
        let m = uma_machine();
        let t = one_loop(16, 1e6, 0.0, 0.0);
        let _ = m.execute_mlp(&[t.clone(), t], &[100, 100]);
    }

    #[test]
    fn sweep_lengths() {
        let m = uma_machine();
        let t = one_loop(64, 1e6, 0.0, 0.0);
        let rs = m.sweep(&t, &[1, 2, 4, 8]);
        assert_eq!(rs.len(), 4);
        assert_eq!(rs[3].processors, 8);
    }

    #[test]
    fn obs_report_mirrors_phases() {
        let m = uma_machine();
        let mut t = one_loop(15, 15e6, 0.0, 0.0);
        t.serial(SerialWork {
            name: "bc".into(),
            work_cycles: 1e6,
            flops: 0,
            traffic_bytes: 0.0,
        });
        let r = m.execute(&t, 4);
        let obs = r.to_obs_report("model-test");
        assert_eq!(obs.source, "modeled");
        assert_eq!(obs.workers, 4);
        assert_eq!(obs.sync_events(), 1); // one parallel phase
        assert!((obs.total_seconds() - r.seconds).abs() < 1e-12);
        let kernels = obs.kernel_summaries();
        let bc = kernels.iter().find(|k| k.name == "bc").unwrap();
        assert!(!bc.parallelized);
        let lp = kernels.iter().find(|k| k.name == "loop").unwrap();
        assert!(lp.parallelized);
        assert_eq!(lp.parallelism, 15);
        // U=15 on P=4: max chunk 4 units, mean 15/4 -> imbalance 16/15.
        let region = &obs.spans[0].children[0].children[0];
        assert_eq!(region.workers, 4);
        assert_eq!(region.chunk_count, 4);
        assert!((region.imbalance() - 4.0 / 3.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "has only")]
    fn too_many_processors_panics() {
        let m = uma_machine();
        let t = one_loop(4, 1e6, 0.0, 0.0);
        let _ = m.execute(&t, 256);
    }
}
