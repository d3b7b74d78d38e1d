//! Regenerates **Table 4**: measured performance of the RISC-optimized
//! shared-memory F3D on the SUN HPC 10000 and the 300-MHz R12000 SGI
//! Origin 2000, for the 1-million and 59-million grid-point test cases.
//!
//! Workload traces are generated from the solver's loop schedule and
//! the paper's exact zone dimensions, priced by the per-machine cost
//! model, and executed on the simulated machines. Absolute numbers are
//! a model, not a measurement; the paper's shape claims (stair-step
//! plateaus, similar per-processor delivered MFLOPS, scaling limits)
//! are what is being reproduced — see EXPERIMENTS.md.

use crate::{f, TextTable};
use f3d::trace::risc_step_trace;
use mesh::MultiZoneGrid;
use smpsim::presets::{hpc10000_64, origin2000_r12k_128};

pub fn print() {
    let sun = hpc10000_64();
    let sgi = origin2000_r12k_128();
    let processor_rows: &[u32] = &[1, 16, 32, 48, 64, 72, 88, 104, 112, 120, 124];

    for (label, grid) in [
        (
            "1-million grid point case",
            MultiZoneGrid::paper_one_million(),
        ),
        (
            "59-million grid point case",
            MultiZoneGrid::paper_fifty_nine_million(),
        ),
    ] {
        println!("Table 4 ({label}): {grid}\n");
        let sun_trace = risc_step_trace(&grid, &sun.memory);
        let sgi_trace = risc_step_trace(&grid, &sgi.memory);
        let sun_exec = sun.executor();
        let sgi_exec = sgi.executor();

        let mut t = TextTable::new(&[
            "Procs",
            "SUN steps/hr",
            "SUN MFLOPS",
            "SGI steps/hr",
            "SGI MFLOPS",
        ]);
        for &p in processor_rows {
            let sun_cell = if p <= sun.machine.max_processors {
                let r = sun_exec.execute(&sun_trace, p);
                (f(r.time_steps_per_hour(), 1), f(r.mflops(), 0))
            } else {
                ("N/A".into(), "N/A".into())
            };
            let r = sgi_exec.execute(&sgi_trace, p);
            t.row(vec![
                p.to_string(),
                sun_cell.0,
                sun_cell.1,
                f(r.time_steps_per_hour(), 1),
                f(r.mflops(), 0),
            ]);
        }
        println!("{}", t.render());

        // The shape checks the paper calls out in the text.
        let s48 = sgi_exec.execute(&sgi_trace, 48).seconds;
        let s64 = sgi_exec.execute(&sgi_trace, 64).seconds;
        let s88 = sgi_exec.execute(&sgi_trace, 88).seconds;
        let s104 = sgi_exec.execute(&sgi_trace, 104).seconds;
        println!(
            "  plateau 48->64 procs: {:.2}% change   plateau 88->104 procs: {:.2}% change",
            (s48 / s64 - 1.0) * 100.0,
            (s88 / s104 - 1.0) * 100.0,
        );
        let r1_sun = sun_exec.execute(&sun_trace, 1);
        let r1_sgi = sgi_exec.execute(&sgi_trace, 1);
        println!(
            "  serial per-processor delivered: SUN {:.0} MFLOPS (peak 800), SGI {:.0} MFLOPS (peak 600)\n",
            r1_sun.mflops(),
            r1_sgi.mflops()
        );
    }

    println!(
        "Paper anchors (Table 4): 1M case — SUN 138 steps/hr @1p, SGI 181 @1p,\n\
         SGI 5087 @88p; 59M case — SGI 2.3 @1p, 153 @124p. Start-up/termination\n\
         costs excluded in both the paper and this model."
    );
}
