//! Regenerates **Table 5**: the systems used in tuning/parallelizing
//! the RISC-optimized shared-memory version of F3D — here, the machine
//! presets this suite models, with the parameters each contributes.
//!
//! "A key aspect of this phase of the tuning was to run the program on
//! as wide a range of RISC-based systems as possible … Using this wide
//! range of systems and compilers allowed tuning for a wider range of
//! TLB and cache sizes."

use crate::{f, grouped, TextTable};

pub fn print() {
    println!("Table 5. Systems modeled by this suite (paper: systems used in tuning)\n");
    let mut t = TextTable::new(&[
        "System",
        "clock (MHz)",
        "peak MFLOPS/p",
        "L1",
        "L2",
        "TLB reach",
        "line (B)",
    ]);
    let mut presets = cachesim::presets::all();
    presets.push(cachesim::presets::cray_t3e());
    for m in presets {
        let fmt_cache = |c: &cachesim::CacheConfig| {
            if c.size_bytes >= 1 << 20 {
                format!("{} MB/{}-way", c.size_bytes >> 20, c.associativity)
            } else {
                format!("{} KB/{}-way", c.size_bytes >> 10, c.associativity)
            }
        };
        t.row(vec![
            m.name.to_string(),
            f(m.clock_hz / 1e6, 0),
            f(m.peak_mflops, 0),
            fmt_cache(&m.l1),
            m.l2.as_ref().map_or("none".into(), fmt_cache),
            format!("{} KB", grouped((m.tlb.size_bytes >> 10) as u64)),
            m.l2.as_ref()
                .map_or(m.l1.line_bytes, |c| c.line_bytes)
                .to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Cache sizes span 16 KB (T3E L1) to 8 MB (Origin L2) and TLB reaches from\n\
         512 KB to 1 MB — the diversity the paper credits for producing universally\n\
         valid tunings. The scaling models add per-machine sync costs and NUMA\n\
         parameters (see `smpsim::presets`)."
    );
}
