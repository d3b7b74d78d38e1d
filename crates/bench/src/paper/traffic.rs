//! Regenerates the **Section 7 memory-traffic argument**: the tuned
//! code's per-processor bandwidth demand is far below the Origin
//! 2000's usable off-node bandwidth, so the ccNUMA machine can be
//! treated as if it had Uniform Memory Access.
//!
//! The vector code's demand *rate* is also low — but only because it is
//! latency- and TLB-bound (each access waits instead of streaming);
//! low demand from slowness is failure, not headroom, which is why the
//! table reports each implementation's stall fraction alongside.

use crate::{f, TextTable};
use f3d::costmodel::{cycles_per_point_step, kernel_cost, ImplKind, Kernel};
use f3d::trace::risc_step_trace;
use mesh::MultiZoneGrid;

fn origin2000_mem() -> cachesim::presets::MachineMemory {
    cachesim::presets::origin2000_r12k()
}

fn demand_mb_per_s(impl_kind: ImplKind, mem: &cachesim::presets::MachineMemory) -> f64 {
    let bytes: f64 = Kernel::VOLUME
        .iter()
        .map(|&k| kernel_cost(k, impl_kind).unique_bytes_per_point)
        .sum();
    let secs = cycles_per_point_step(impl_kind, mem) / mem.clock_hz;
    bytes / secs / 1e6
}

pub fn print() {
    println!("Section 7: per-processor memory-bandwidth demand vs NUMA limits\n");
    println!(
        "Paper: Origin 2000 usable per-processor bandwidth 412 MB/s (local) down to\n\
         135 MB/s; off-node accesses limited to ~195 MB/s. Perfex measured the tuned\n\
         code at 68 MB/s on a 180-MHz R10000 — 'we have been able to treat the Origin\n\
         2000 as though it had Uniform Memory Access.'\n"
    );

    let mut t = TextTable::new(&[
        "Machine",
        "tuned demand (MB/s)",
        "local bw (MB/s)",
        "off-node bw (MB/s)",
        "UMA-like?",
    ]);
    for preset in smpsim::presets::all() {
        let tuned = demand_mb_per_s(ImplKind::Risc, &preset.memory);
        let limit = preset.machine.numa.remote_bw_mbs;
        t.row(vec![
            preset.machine.name.to_string(),
            f(tuned, 0),
            f(preset.machine.numa.local_bw_mbs, 0),
            f(limit, 0),
            if tuned < limit { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(The vector code's demand *rate* is even lower — but only because every access\n\
         stalls on latency and TLB refills: {:.0} vs {:.0} cycles per point on the Origin.\n\
         Low demand from slowness is failure, not headroom.)\n",
        f3d::costmodel::cycles_per_point_step(ImplKind::Vector, &origin2000_mem()),
        f3d::costmodel::cycles_per_point_step(ImplKind::Risc, &origin2000_mem()),
    );

    // End-to-end check through the executor: the NUMA surcharge of a
    // full 1M-point step on the Origin at scale.
    let sgi = smpsim::presets::origin2000_r12k_128();
    let trace = risc_step_trace(&MultiZoneGrid::paper_one_million(), &sgi.memory);
    let exec = sgi.executor();
    let mut t = TextTable::new(&[
        "Procs",
        "step time (s)",
        "NUMA surcharge (s)",
        "surcharge %",
    ]);
    for p in [1u32, 16, 64, 124] {
        let r = exec.execute(&trace, p);
        t.row(vec![
            p.to_string(),
            f(r.seconds, 3),
            f(r.numa_seconds(), 4),
            f(r.numa_seconds() / r.seconds * 100.0, 2) + "%",
        ]);
    }
    println!("{}", t.render());
    println!("The tuned code's NUMA surcharge stays negligible at every processor count.");
}
