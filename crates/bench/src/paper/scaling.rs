//! Regenerates **Figures 2 and 3**: time steps/hour vs. processor count
//! for the 1-million grid-point case (the 128-processor SGI Origin 2000,
//! the 64-processor SUN HPC 10000 and the 16-processor HP V2500) and the
//! 59-million grid-point case (the 300-MHz R12000 Origin 2000, the two
//! 195-MHz Origin configurations and the SUN HPC 10000).

use crate::{ascii_chart, Series};
use f3d::trace::risc_step_trace;
use mesh::MultiZoneGrid;
use smpsim::presets::{
    hp_v2500_16, hpc10000_64, origin2000_r10k_128, origin2000_r10k_64, origin2000_r12k_128,
    SystemPreset,
};

fn curve(preset: &SystemPreset, grid: &MultiZoneGrid) -> Vec<(f64, f64)> {
    let trace = risc_step_trace(grid, &preset.memory);
    let exec = preset.executor();
    (1..=preset.machine.max_processors)
        .map(|p| {
            let r = exec.execute(&trace, p);
            (f64::from(p), r.time_steps_per_hour())
        })
        .collect()
}

/// One scaling figure: each system's steps/hour curve over its whole
/// processor range, charted, then sampled at `samples` processors.
fn figure(
    title: &str,
    grid: &MultiZoneGrid,
    systems: &[(SystemPreset, char)],
    samples: &[usize],
    decimals: usize,
    claims: &str,
) {
    println!("{title}: {grid}\n");

    let series: Vec<Series> = systems
        .iter()
        .map(|(s, sym)| (s.machine.name.to_string(), *sym, curve(s, grid)))
        .collect();
    println!("{}", ascii_chart(&series, 110, 26));

    println!("Sampled values (steps/hr):");
    for (name, _, pts) in &series {
        let sample: Vec<String> = samples
            .iter()
            .filter_map(|&p| {
                pts.get(p - 1)
                    .map(|&(x, y)| format!("P={x:.0}: {y:.decimals$}"))
            })
            .collect();
        println!("  {name}: {}", sample.join(", "));
    }
    println!("\nShape claims (paper): {claims}");
}

/// Figure 2: the 1-million grid-point case.
pub fn fig2() {
    figure(
        "Figure 2. Shared-memory F3D, 1-million grid point case",
        &MultiZoneGrid::paper_one_million(),
        &[
            (origin2000_r12k_128(), '*'),
            (hpc10000_64(), 'o'),
            (hp_v2500_16(), '#'),
        ],
        &[1, 8, 16, 32, 48, 64, 88, 104, 124],
        0,
        "near-flat 48..64 on the Origin (limiting loop dimension 70),\n\
         jump near 70; the 64-processor SUN tracks the Origin closely per processor; the\n\
         16-processor V2500 covers only the left edge.",
    );
}

/// Figure 3: the 59-million grid-point case.
pub fn fig3() {
    figure(
        "Figure 3. Shared-memory F3D, 59-million grid point case",
        &MultiZoneGrid::paper_fifty_nine_million(),
        &[
            (origin2000_r12k_128(), '*'),
            (origin2000_r10k_128(), 'o'),
            (origin2000_r10k_64(), '+'),
            (hpc10000_64(), '#'),
        ],
        &[1, 16, 32, 48, 64, 88, 104, 112, 120, 124],
        1,
        "the 59M case keeps scaling past 104 processors (limiting\n\
         dimension 350 vs 70 for the 1M case), with a plateau between 88 and 104; the\n\
         300-MHz system leads the 195-MHz systems throughout.",
    );
}
