//! Regenerates the **Section 4 boundary-condition trade-off**: leaving
//! the boundary-condition routines serial costs an Amdahl term at high
//! processor counts, but parallelizing them adds six synchronization
//! events per zone whose tiny work violates the Table-1 overhead budget
//! — and under realistic system load (the paper's sync costs reach one
//! million cycles) actively loses. The paper's recommendation — leave
//! them serial — is tested both ways on both a lightly and a heavily
//! loaded machine.

use crate::{f, TextTable};
use f3d::trace::{risc_step_trace, risc_step_trace_parallel_bc};
use llp::{Advisor, KernelSummary, LoopDecision};
use mesh::MultiZoneGrid;
use perfmodel::overhead::OverheadBound;
use smpsim::presets::origin2000_r12k_128;
use smpsim::Machine;

pub fn print() {
    let sgi = origin2000_r12k_128();
    let grid = MultiZoneGrid::paper_one_million();
    println!("Boundary conditions: serial vs parallelized ({grid})\n");

    let serial_bc = risc_step_trace(&grid, &sgi.memory);
    let parallel_bc = risc_step_trace_parallel_bc(&grid, &sgi.memory);
    println!(
        "serial fraction with serial BCs: {:.3}%   sync events/step: {} vs {}\n",
        serial_bc.serial_work_fraction() * 100.0,
        serial_bc.sync_events(),
        parallel_bc.sync_events()
    );

    // Two machine states: lightly loaded (base sync costs) and heavily
    // loaded (the paper: sync costs range "from 2,000 to 1-million
    // cycles (or more)" depending on load).
    for (label, machine) in [
        (
            "lightly loaded (base sync costs)",
            Machine::new(sgi.machine),
        ),
        (
            "heavily loaded (sync costs x30)",
            Machine::new(sgi.machine.under_load(30.0)),
        ),
    ] {
        println!(
            "--- {label}: sync at 64 procs = {} cycles ---",
            machine.config().sync.cycles(64) as u64
        );
        let mut t = TextTable::new(&[
            "Procs",
            "serial-BC steps/hr",
            "parallel-BC steps/hr",
            "winner",
        ]);
        for p in [1u32, 8, 16, 32, 64, 96, 124] {
            let a = machine.execute(&serial_bc, p).time_steps_per_hour();
            let b = machine.execute(&parallel_bc, p).time_steps_per_hour();
            let margin = (a / b - 1.0) * 100.0;
            t.row(vec![
                p.to_string(),
                f(a, 1),
                f(b, 1),
                if a >= b {
                    format!("serial BC (+{:.1}%)", margin)
                } else {
                    format!("parallel BC (+{:.1}%)", -margin)
                },
            ]);
        }
        println!("{}", t.render());
    }

    // The Table-1 verdict: the BC face loops violate the 1% overhead
    // budget at 64 processors even when they narrowly win on wall
    // clock — the paper's engineering margin argument.
    // The profile is modeled, not measured: one row per phase of the
    // trace (phase names are unique), stated directly.
    let profile: Vec<KernelSummary> = parallel_bc
        .phases
        .iter()
        .map(|phase| KernelSummary {
            invocations: 1,
            seconds: phase.work_cycles() / sgi.machine.clock_hz,
            parallelism: match phase {
                smpsim::Phase::Parallel(pl) => pl.parallelism,
                smpsim::Phase::Serial(_) => 1,
            },
            ..KernelSummary::named(phase.name())
        })
        .collect();
    let advisor = Advisor::new(
        sgi.machine.clock_hz,
        OverheadBound::paper_default(sgi.machine.sync.cycles(64) as u64),
        64,
    );
    let advice = advisor.advise(&profile);
    let (mut bc_serial, mut bc_parallel) = (0usize, 0usize);
    for l in &advice.loops {
        if l.name.contains(":Bc[") {
            match l.decision {
                LoopDecision::Parallelize { .. } => bc_parallel += 1,
                _ => bc_serial += 1,
            }
        }
    }
    println!(
        "advisor verdict on the {} BC face loops at 64 processors: {} leave-serial, {} parallelize",
        bc_serial + bc_parallel,
        bc_serial,
        bc_parallel
    );
    println!(
        "(Table-1 bound at 64 procs: {} cycles/loop; the largest BC face loop carries ~{} cycles)",
        perfmodel::min_work_for_overhead(sgi.machine.sync.cycles(64) as u64, 64, 0.01),
        parallel_bc
            .phases
            .iter()
            .filter(|p| p.name().contains(":Bc["))
            .map(|p| p.work_cycles() as u64)
            .max()
            .unwrap_or(0)
    );
    println!(
        "\nPaper, Section 4: 'The more processors that are used, the harder it is to\n\
         justify the overhead associated with the parallelization of boundary condition\n\
         subroutines' — and, against it, 'the more time is spent in serial code, the\n\
         harder it is to show benefit from using larger (e.g., 50+) numbers of\n\
         processors.' Both horns of the dilemma are visible above."
    );
}
