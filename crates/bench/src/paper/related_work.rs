//! Regenerates the **Section 8 related-work comparisons**:
//!
//! * Behr's message-passing loop-level parallelism on the Cray T3E
//!   (SHMEM): "worked and produced a credible level of performance" but
//!   lost the cache optimizations to 16–128-KB caches;
//! * a workstation cluster with MPI: the latency numbers the paper
//!   quotes make fine-grained loop-level parallelism painful;
//! * software distributed shared memory (TreadMarks-style): the paper's
//!   1.3-MB/s effective-bandwidth calculation, executed.

use crate::{f, TextTable};
use f3d::trace::risc_step_trace;
use mesh::MultiZoneGrid;
use smpsim::dsm::{dsm_effective_bandwidth, treadmarks_cluster};
use smpsim::mpp::{cray_t3e_shmem, workstation_cluster_mpi};
use smpsim::presets::origin2000_r12k_128;
use smpsim::Machine;

pub fn print() {
    let grid = MultiZoneGrid::paper_one_million();
    println!("Section 8 related work, on the 1M-point case ({grid})\n");

    let sgi = origin2000_r12k_128();
    let smp_trace = risc_step_trace(&grid, &sgi.memory);
    let smp = sgi.executor();

    // Behr's route: the same loop-level schedule, message passing, and
    // a small-cache memory system (the trace priced for the T3E spills
    // the pencil scratch — costmodel::kernel_cost_on).
    let t3e_mem = cachesim::presets::cray_t3e();
    let t3e_trace = risc_step_trace(&grid, &t3e_mem);
    let t3e = cray_t3e_shmem();
    let cluster = workstation_cluster_mpi();

    let mut t = TextTable::new(&[
        "Procs",
        "Origin SMP steps/hr",
        "T3E SHMEM steps/hr",
        "Cluster MPI steps/hr",
    ]);
    for p in [1u32, 16, 32, 64] {
        t.row(vec![
            p.to_string(),
            f(smp.execute(&smp_trace, p).time_steps_per_hour(), 1),
            f(t3e.execute(&t3e_trace, p).time_steps_per_hour(), 1),
            if p <= cluster.max_processors {
                f(cluster.execute(&t3e_trace, p).time_steps_per_hour(), 1)
            } else {
                "N/A".into()
            },
        ]);
    }
    println!("{}", t.render());
    println!(
        "T3E scales credibly (Behr's result) but its serial rate is crippled by the\n\
         small caches: the pencil scratch spills, so per-point cycles are {}x the\n\
         Origin's despite the faster clock.\n",
        f(
            f3d::costmodel::cycles_per_point_step(f3d::costmodel::ImplKind::Risc, &t3e_mem)
                / f3d::costmodel::cycles_per_point_step(
                    f3d::costmodel::ImplKind::Risc,
                    &sgi.memory
                ),
            1
        )
    );

    // Software DSM.
    println!(
        "Software DSM: coherence at 128-B granularity over a 100-microsecond network\n\
         gives {:.2} MB/s of effective off-node bandwidth (paper: 1.3 MB/s).\n",
        dsm_effective_bandwidth(128, 100e-6)
    );
    let dsm = Machine::new(treadmarks_cluster(16));
    let mut t = TextTable::new(&["Procs", "DSM steps/hr", "Origin SMP steps/hr"]);
    for p in [1u32, 4, 8, 16] {
        t.row(vec![
            p.to_string(),
            f(dsm.execute(&smp_trace, p).time_steps_per_hour(), 1),
            f(smp.execute(&smp_trace, p).time_steps_per_hour(), 1),
        ]);
    }
    println!("{}", t.render());
    println!(
        "\"For programs that are parallelized in more than one direction and therefore\n\
         inevitably have a high level of off node memory accesses, this low level of\n\
         performance is virtually impossible to overcome.\""
    );
}
