//! Ablation: **loop fusion** (paper Example 2) and **parent-loop
//! hoisting** (paper Example 3) — how many synchronization events each
//! transformation removes from a time step, and what that costs at
//! scale on machines across the paper's sync-cost range.
//!
//! The paper: hoisting "reduces the number of synchronization events by
//! 1-3 orders of magnitude". Without hoisting, the parallel region sits
//! inside SUBA at one region *per J station*; with it, one region per
//! sweep.

use crate::{f, grouped, TextTable};
use mesh::MultiZoneGrid;
use smpsim::presets::origin2000_r12k_128;

pub fn print() {
    let grid = MultiZoneGrid::paper_one_million();
    println!("Fusion / hoisting ablation ({grid})\n");

    // Synchronization events per time step under each structure.
    // Baseline (hoisted + fused, the paper's tuned schedule and the
    // analytic trace's): 5 regions per zone. `f3d::risc_impl` fuses the
    // residual and the J and K factors further, to 3.
    let zones = grid.zones();
    let hoisted: u64 = zones.len() as u64 * 5;
    // Unfused: the residual's three direction passes and the update run
    // as separate regions: 8 regions per zone.
    let unfused: u64 = zones.len() as u64 * 8;
    // Unhoisted (Example 3's original): the implicit sweeps synchronize
    // once per outer station instead of once per sweep.
    let unhoisted: u64 = zones
        .iter()
        .map(|z| {
            let d = z.dims;
            // rhs (1) + J factor (per L) + K factor (per L) + L factor
            // (per K) + update (1), per zone
            (1 + d.l + d.l + d.k + 1) as u64
        })
        .sum();

    println!("sync events per time step:");
    println!("  hoisted + fused (the tuned code):     {hoisted}");
    println!("  hoisted, unfused residual:            {unfused}");
    println!("  unhoisted inner regions (Example 3a): {unhoisted}");
    println!(
        "  hoisting saves {}x, fusion another {:.2}x\n",
        unhoisted / unfused,
        unfused as f64 / hoisted as f64
    );

    // What those events cost on machines across the paper's sync range.
    let sgi = origin2000_r12k_128();
    let mut t = TextTable::new(&[
        "sync cost @64p (cycles)",
        "hoisted+fused overhead",
        "unfused overhead",
        "unhoisted overhead",
    ]);
    for load in [1.0f64, 10.0, 47.6] {
        let cfg = sgi.machine.under_load(load);
        let per_event = cfg.sync.cycles(64);
        let step_cycles = 5.1e9; // ~1M-point step on the R12000
        let overhead = |events: u64| {
            let frac = events as f64 * per_event / (step_cycles / 64.0);
            format!("{}%", f(frac * 100.0, 2))
        };
        t.row(vec![
            grouped(per_event as u64),
            overhead(hoisted),
            overhead(unfused),
            overhead(unhoisted),
        ]);
    }
    println!("{}", t.render());
    println!(
        "At the top of the paper's sync-cost range (~1M cycles), the unhoisted\n\
         structure spends more time synchronizing than computing — the quantitative\n\
         content of Example 3's \"reduces the number of synchronization events by\n\
         1-3 orders of magnitude!\". `tests/pipeline.rs` runs four loop bodies on a\n\
         real worker team and counts 1 sync event fused, 4 unfused."
    );
}
