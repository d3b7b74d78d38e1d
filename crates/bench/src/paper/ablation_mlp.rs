//! Ablation: **pure loop-level parallelism vs multi-level parallelism
//! (MLP)** — the Section 8 comparison with Taft's OVERFLOW-MLP,
//! quantified on the paper's own test cases.
//!
//! Pure loop-level parallelism is capped by the per-zone loop extents
//! (the stair-step ceiling: U = 70/75 for the 1M case). MLP runs zones
//! concurrently on processor teams, multiplying the ceiling at the
//! price of zone-level load imbalance — "complementary techniques,
//! each with their own strengths and weaknesses."

use crate::{f, TextTable};
use f3d::trace::{injection_trace, risc_step_trace, risc_zone_traces};
use mesh::MultiZoneGrid;
use perfmodel::partition_processors;
use smpsim::presets::origin2000_r12k_128;

pub fn print() {
    let sgi = origin2000_r12k_128();
    let exec = sgi.executor();

    for (label, grid) in [
        ("1-million point case", MultiZoneGrid::paper_one_million()),
        (
            "59-million point case",
            MultiZoneGrid::paper_fifty_nine_million(),
        ),
    ] {
        println!("=== {label}: {grid} ===\n");
        let flat = risc_step_trace(&grid, &sgi.memory);
        let zones = risc_zone_traces(&grid, &sgi.memory);
        let tail = injection_trace(&grid, &sgi.memory);
        let weights: Vec<f64> = grid
            .zones()
            .iter()
            .map(|z| z.dims.points() as f64)
            .collect();

        let mut t = TextTable::new(&[
            "Procs",
            "loop-level steps/hr",
            "MLP steps/hr",
            "MLP teams",
            "winner",
        ]);
        for p in [8u32, 16, 32, 48, 64, 96, 124] {
            let ll = exec.execute(&flat, p).time_steps_per_hour();
            let part: Vec<u32> = partition_processors(p as usize, &weights)
                .into_iter()
                .map(|x| u32::try_from(x).expect("fits"))
                .collect();
            let mlp_report = exec.execute_mlp(&zones, &part);
            let tail_s = exec.execute(&tail, 1).seconds;
            let mlp = 3600.0 / (mlp_report.seconds + tail_s);
            t.row(vec![
                p.to_string(),
                f(ll, 1),
                f(mlp, 1),
                format!("{part:?}"),
                if mlp > ll { "MLP" } else { "loop-level" }.to_string(),
            ]);
        }
        println!("{}", t.render());
    }
    println!(
        "Expected shape (Section 8): below the stair-step ceiling, pure loop-level wins\n\
         (MLP wastes processors on the small zone 1 and pays zone imbalance); past the\n\
         ceiling (P >> 70 on the 1M case) MLP keeps scaling where loop-level flattens.\n\
         'Straight loop-level parallelism and MLP appear to be complementary techniques.'"
    );
}
