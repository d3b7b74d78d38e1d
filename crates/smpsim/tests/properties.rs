//! Property-based tests for the machine model.

use proptest::prelude::*;
use smpsim::machine::{MachineConfig, NumaConfig, SyncCostModel};
use smpsim::{contention_multiplier, Machine, ParallelLoop, SerialWork, WorkloadTrace};

fn uma() -> Machine {
    Machine::new(MachineConfig {
        name: "prop-uma",
        max_processors: 256,
        clock_hz: 100e6,
        peak_mflops_per_processor: 200.0,
        sync: SyncCostModel {
            base_cycles: 0.0,
            per_processor_cycles: 0.0,
        },
        // Uniform memory access with effectively unlimited bandwidth.
        numa: NumaConfig {
            processors_per_node: u32::MAX,
            page_bytes: 16 << 10,
            local_bw_mbs: 1e6,
            remote_bw_mbs: 1e6,
            contention_coeff: 0.0,
        },
    })
}

fn numa() -> Machine {
    Machine::new(MachineConfig {
        name: "prop-numa",
        max_processors: 256,
        clock_hz: 100e6,
        peak_mflops_per_processor: 200.0,
        sync: SyncCostModel {
            base_cycles: 3_000.0,
            per_processor_cycles: 150.0,
        },
        numa: NumaConfig {
            processors_per_node: 2,
            page_bytes: 16 << 10,
            local_bw_mbs: 400.0,
            remote_bw_mbs: 150.0,
            contention_coeff: 0.1,
        },
    })
}

fn one_loop(u: u64, work: f64, traffic: f64, spf: f64) -> WorkloadTrace {
    let mut t = WorkloadTrace::new();
    t.parallel(ParallelLoop {
        name: "loop".into(),
        parallelism: u,
        work_cycles: work,
        flops: 1_000,
        traffic_bytes: traffic,
        shared_page_fraction: spf,
    });
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On an overhead-free UMA machine, adding processors never slows a
    /// compute-bound loop, and the speedup equals the stair-step law.
    #[test]
    fn uma_matches_stairstep(u in 1u64..2_000, work in 1.0e6f64..1.0e10, p in 1u32..256) {
        let m = uma();
        let t = one_loop(u, work, 0.0, 0.0);
        let s1 = m.execute(&t, 1).seconds;
        let sp = m.execute(&t, p).seconds;
        let speedup = s1 / sp;
        let model = perfmodel::ideal_speedup(u, p);
        prop_assert!((speedup - model).abs() < 1e-9 * model,
            "u={} p={}: {} vs {}", u, p, speedup, model);
    }

    /// Seconds are monotone non-increasing in the processor count on
    /// the overhead-free machine.
    #[test]
    fn uma_monotone(u in 1u64..500, work in 1.0e6f64..1.0e9, p in 1u32..255) {
        let m = uma();
        let t = one_loop(u, work, 0.0, 0.0);
        prop_assert!(m.execute(&t, p + 1).seconds <= m.execute(&t, p).seconds + 1e-15);
    }

    /// With sync costs, total time = compute + overhead: it never beats
    /// the overhead-free machine and the gap is exactly the sync time.
    #[test]
    fn sync_overhead_additive(u in 1u64..500, work in 1.0e6f64..1.0e9, p in 1u32..128) {
        let free = uma();
        let costly = numa();
        let t = one_loop(u, work, 0.0, 0.0);
        let a = free.execute(&t, p).seconds;
        let b = costly.execute(&t, p).seconds;
        let sync = costly.config().sync_seconds(p);
        prop_assert!((b - a - sync).abs() < 1e-12 * b.max(1e-30),
            "gap {} vs sync {}", b - a, sync);
    }

    /// The contention multiplier is monotone in every argument.
    #[test]
    fn contention_monotone(spf in 0.0f64..=1.0, p in 1u32..256, coeff in 0.0f64..2.0) {
        let m = contention_multiplier(spf, p, coeff);
        prop_assert!(m >= 1.0);
        prop_assert!(contention_multiplier(spf, p + 1, coeff) >= m);
        prop_assert!(contention_multiplier((spf * 0.5).min(1.0), p, coeff) <= m + 1e-12);
    }

    /// Serial phases are priced identically at every processor count.
    #[test]
    fn serial_phases_invariant(work in 1.0e3f64..1.0e9, p in 1u32..256) {
        let m = numa();
        let mut t = WorkloadTrace::new();
        t.serial(SerialWork {
            name: "bc".into(),
            work_cycles: work,
            flops: 10,
            traffic_bytes: 0.0,
        });
        let s1 = m.execute(&t, 1).seconds;
        let sp = m.execute(&t, p).seconds;
        prop_assert!((s1 - sp).abs() < 1e-15 * s1.max(1e-30));
    }

    /// MLP wall time equals the slowest partition, and total flops sum.
    #[test]
    fn mlp_is_max_of_partitions(
        w1 in 1.0e6f64..1.0e9, w2 in 1.0e6f64..1.0e9,
        p1 in 1u32..64, p2 in 1u32..64,
    ) {
        let m = uma();
        let t1 = one_loop(128, w1, 0.0, 0.0);
        let t2 = one_loop(128, w2, 0.0, 0.0);
        let a = m.execute(&t1, p1).seconds;
        let b = m.execute(&t2, p2).seconds;
        let mlp = m.execute_mlp(&[t1, t2], &[p1, p2]);
        prop_assert!((mlp.seconds - a.max(b)).abs() < 1e-12 * mlp.seconds);
        prop_assert_eq!(mlp.flops, 2_000);
        prop_assert_eq!(mlp.processors, p1 + p2);
    }

    /// Report metrics are consistent: mflops * seconds == flops.
    #[test]
    fn metrics_consistent(u in 1u64..500, work in 1.0e6f64..1.0e9, p in 1u32..128) {
        let m = numa();
        let t = one_loop(u, work, 1.0e6, 0.1);
        let r = m.execute(&t, p);
        prop_assert!((r.mflops() * r.seconds * 1e6 - r.flops as f64).abs()
            < 1e-6 * r.flops as f64);
        prop_assert!((r.time_steps_per_hour() * r.seconds - 3600.0).abs() < 1e-6);
    }
}
