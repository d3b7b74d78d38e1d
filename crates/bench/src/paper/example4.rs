//! Regenerates the **Example 4 / Section 7** access-ordering study:
//! the three orderings of sweeping `A(JMAX,KMAX,LMAX)` — (a) ideal,
//! (b) acceptable, (c) unacceptable — measured with the cache/TLB
//! simulator, the page-sharing analyser, and the NUMA contention model.
//!
//! The paper's point is subtle and this table makes it explicit:
//! ordering (c)'s *cache miss rate* can still be acceptable; what kills
//! it on page-interleaved NUMA machines is that every processor touches
//! every page ("no amount of page migration solves this problem").

use crate::{f, TextTable};
use cachesim::patterns::{page_sharing, GridTraversal, PencilGather};
use cachesim::presets::origin2000_r12k;
use mesh::{Axis, Dims, Layout};
use smpsim::contention_multiplier;

pub fn print() {
    let dims = Dims::new(96, 80, 64);
    let mem = origin2000_r12k();
    println!(
        "Example 4: memory access patterns and contention  (array {dims}, {})\n",
        mem.name
    );

    // --- Cache behaviour of the three orderings. ---
    let mut t = TextTable::new(&[
        "Ordering",
        "inner stride (B)",
        "L1 miss rate",
        "TLB miss rate",
        "traffic (MB)",
    ]);
    let a = GridTraversal::example4a(dims);
    let b = GridTraversal::example4b(dims);
    let c = PencilGather::example4c(dims);

    let mut run = |name: &str, stride: u64, addrs: Box<dyn Iterator<Item = u64>>| {
        let mut h = mem.hierarchy();
        h.run_loads(addrs);
        t.row(vec![
            name.to_string(),
            stride.to_string(),
            f(h.l1_miss_rate() * 100.0, 2) + "%",
            f(h.tlb_miss_rate() * 100.0, 2) + "%",
            f(h.memory_traffic_bytes() as f64 / 1e6, 1),
        ]);
    };
    run(
        "(a) L,K,J over JKL: sequential",
        a.inner_stride_bytes(),
        Box::new(a.addresses()),
    );
    run(
        "(b) K,L,J over JKL: plane jumps",
        b.inner_stride_bytes(),
        Box::new(b.addresses()),
    );
    run(
        "(c) J,L + K-gather alone",
        c.gather_stride_bytes(),
        Box::new(c.addresses()),
    );
    run(
        "(c) incl. SUBB buffer compute",
        c.gather_stride_bytes(),
        Box::new(c.addresses_with_compute(8)),
    );
    println!("{}", t.render());
    println!(
        "The gather itself misses badly, but SUBB's \"extensive calculations using\n\
         BUFFER\" dilute it: ordering (c)'s overall miss rate \"can still be acceptable\".\n"
    );

    // --- Page sharing under static parallelization. ---
    println!("Page sharing between workers (16-KB pages, 8 workers, static schedule):\n");
    let mut t = TextTable::new(&["Ordering / parallel axis", "shared pages", "max sharers"]);
    for (name, axis) in [
        ("(a)/(b) parallel over L (slab-contiguous)", Axis::L),
        ("(c) parallel over J (strided gather)", Axis::J),
    ] {
        let s = page_sharing(dims, Layout::jkl(), axis, 8, 16 << 10);
        t.row(vec![
            name.to_string(),
            format!(
                "{} / {} ({:.1}%)",
                s.shared_pages,
                s.total_pages,
                s.shared_fraction() * 100.0
            ),
            s.max_sharers.to_string(),
        ]);
    }
    println!("{}", t.render());

    // --- The contention penalty this implies, per machine. ---
    println!("Contention multiplier on the loop's memory time (Section 7 model):\n");
    let spf_a = page_sharing(dims, Layout::jkl(), Axis::L, 8, 16 << 10).shared_fraction();
    let spf_c = page_sharing(dims, Layout::jkl(), Axis::J, 8, 16 << 10).shared_fraction();
    let mut t = TextTable::new(&["Machine", "P", "ordering (a)", "ordering (c)"]);
    for preset in [
        smpsim::presets::origin2000_r12k_128(),
        smpsim::presets::hpc10000_64(),
        smpsim::presets::exemplar_spp1000_16(),
    ] {
        for p in [8u32, preset.machine.max_processors] {
            let coeff = preset.machine.numa.contention_coeff;
            t.row(vec![
                preset.machine.name.to_string(),
                p.to_string(),
                format!("{}x", f(contention_multiplier(spf_a, p, coeff), 2)),
                format!("{}x", f(contention_multiplier(spf_c, p, coeff), 2)),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "Paper claims reproduced: (a) and (b) have comparable, low miss rates; (c) keeps an\n\
         acceptable cache miss rate but shares every page across workers, and the resulting\n\
         contention grows with the processor count — fatally so on the Convex Exemplar."
    );
}
