//! Regenerates the **Section 5 serial-tuning results**: the >10×
//! serial speedup from cache tuning on the SGI Power Challenge, the
//! Convex Exemplar anecdote (vector version unusably slow on a
//! 3-million-point case), and the flat-MFLOPS-vs-problem-size claim.
//!
//! Also runs a *real wall-clock* comparison of the two implementations
//! on a small grid on the host CPU — the modelled gap is NUMA-era
//! hardware specific, but the tuned implementation must win on any
//! cache-based machine.

use crate::{f, TextTable};
use f3d::bc::ZoneBcs;
use f3d::costmodel::{cycles_per_point_step, serial_tuning_speedup, ImplKind};
use f3d::risc_impl::RiscStepper;
use f3d::solver::SolverConfig;
use f3d::trace::{risc_step_trace, vector_step_trace};
use f3d::vector_impl::VectorStepper;
use llp::Workers;
use mesh::{Dims, Metrics, MultiZoneGrid};
use std::time::Instant;

pub fn print() {
    println!("Section 5: serial tuning results\n");

    // --- Modelled tuning speedup per machine. ---
    let mut t = TextTable::new(&[
        "Machine",
        "vector cyc/pt/step",
        "tuned cyc/pt/step",
        "tuning speedup",
    ]);
    for mem in cachesim::presets::all() {
        t.row(vec![
            mem.name.to_string(),
            f(cycles_per_point_step(ImplKind::Vector, &mem), 0),
            f(cycles_per_point_step(ImplKind::Risc, &mem), 0),
            format!("{}x", f(serial_tuning_speedup(&mem), 1)),
        ]);
    }
    println!("{}", t.render());
    println!("Paper anchor: 'serial tuning on the SGI Power Challenge resulted in a speedup of more than a factor of 10.'\n");

    // --- The Convex Exemplar anecdote: 3M points, 10 time steps. ---
    let spp = cachesim::presets::exemplar_spp1000();
    let pts = 3.0e6;
    let tuned_min = cycles_per_point_step(ImplKind::Risc, &spp) * pts / spp.clock_hz * 10.0 / 60.0;
    let vector_hr =
        cycles_per_point_step(ImplKind::Vector, &spp) * pts / spp.clock_hz * 10.0 / 3600.0;
    println!(
        "Convex Exemplar SPP-1000, 3M-point case, 10 time steps:\n  \
         tuned code: {:.0} minutes (paper: 70 min)\n  \
         vector code: {:.1} hours (paper: job killed; 'the better part of a day or more')\n",
        tuned_min, vector_hr
    );

    // --- Flat MFLOPS vs problem size (1M vs 59M on the Origin). ---
    let sgi = smpsim::presets::origin2000_r12k_128();
    let m1 = sgi
        .executor()
        .execute(
            &risc_step_trace(&MultiZoneGrid::paper_one_million(), &sgi.memory),
            1,
        )
        .mflops();
    let m59 = sgi
        .executor()
        .execute(
            &risc_step_trace(&MultiZoneGrid::paper_fifty_nine_million(), &sgi.memory),
            1,
        )
        .mflops();
    println!(
        "Serial MFLOPS vs problem size on the Origin 2000 (paper: 'without a significant\n\
         decrease in the MFLOPS rate' from 1M to 200M points):\n  \
         1M points: {m1:.0} MFLOPS    59M points: {m59:.0} MFLOPS    change: {:.1}%\n",
        (m59 / m1 - 1.0) * 100.0
    );

    // --- Vector-trace vs tuned-trace seconds per step, both cases. ---
    let mut t = TextTable::new(&["Case", "vector s/step (model)", "tuned s/step (model)"]);
    for (label, grid) in [
        ("1M, Origin 2000", MultiZoneGrid::paper_one_million()),
        (
            "59M, Origin 2000",
            MultiZoneGrid::paper_fifty_nine_million(),
        ),
    ] {
        let v = sgi
            .executor()
            .execute(&vector_step_trace(&grid, &sgi.memory), 1)
            .seconds;
        let r = sgi
            .executor()
            .execute(&risc_step_trace(&grid, &sgi.memory), 1)
            .seconds;
        t.row(vec![label.to_string(), f(v, 1), f(r, 1)]);
    }
    println!("{}", t.render());

    // --- Real wall-clock on the host: small grid, one step each. ---
    let d = Dims::new(24, 20, 18);
    let metrics = Metrics::cartesian(d, (0.2, 0.2, 0.2));
    let config = SolverConfig::supersonic();
    let bcs = ZoneBcs::projectile();

    let (mut vz, mut vstep) = VectorStepper::new_zone(config, metrics.clone());
    let t0 = Instant::now();
    for _ in 0..3 {
        vstep.step(&mut vz, &bcs);
    }
    let vector_wall = t0.elapsed().as_secs_f64() / 3.0;

    let (mut rz, mut rstep) = RiscStepper::new_zone(config, metrics);
    let workers = Workers::serial();
    let t0 = Instant::now();
    for _ in 0..3 {
        rstep.step(&mut rz, &bcs, &workers, None);
    }
    let risc_wall = t0.elapsed().as_secs_f64() / 3.0;

    println!(
        "Host wall clock, {d} zone, 1 worker: vector {:.1} ms/step, tuned {:.1} ms/step \
         (ratio {:.2}x; identical numerics, max field difference {:.2e})",
        vector_wall * 1e3,
        risc_wall * 1e3,
        vector_wall / risc_wall,
        vz.q.max_abs_diff(&rz.q),
    );
}
