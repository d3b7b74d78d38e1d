//! Quickstart: parallelize a vectorizable loop nest with `llp`.
//!
//! The 60-second version of the paper's method: take an outer loop,
//! put a doacross on it, keep the boundary loop serial, and let the
//! span report and the advisor tell you whether each loop was worth it.
//!
//! Run with: `cargo run --release --example quickstart`

use llp::{doacross_slabs, Advisor, KernelSummary, SpanKind, Workers};
use perfmodel::overhead::OverheadBound;
use std::time::Instant;

fn main() {
    // A 3-D field, stored L-slowest so an L-slab is contiguous.
    let (jmax, kmax, lmax) = (64usize, 64, 48);
    let mut field = vec![0.0f64; jmax * kmax * lmax];

    // A team of "processors" — the machine parameter of every
    // experiment in the paper. `default_worker_count` is the machine's
    // parallelism (override with `LLP_WORKERS`); `recorded` turns on
    // the team's recorder, which is the profiler.
    let workers = Workers::recorded(llp::default_worker_count());

    // Example 1 of the paper: parallelize the OUTER loop. The doacross
    // hands each worker a contiguous block of L-planes; one
    // synchronization event for the whole nest. The kernel span names
    // the loop; the region inside it reports its own extent.
    {
        let _span = workers.recorder().span("main_sweep", SpanKind::Kernel);
        doacross_slabs(&workers, &mut field, jmax * kmax, |l, plane| {
            for k in 0..kmax {
                for j in 0..jmax {
                    // some per-point work with no cross-iteration dependency
                    let x = (j as f64 + 1.0) * (k as f64 + 2.0) * (l as f64 + 3.0);
                    plane[k * jmax + j] = x.sqrt().sin();
                }
            }
        });
    }

    // Boundary work: touches two faces only. The paper leaves loops
    // like this serial — their work cannot amortize a barrier.
    let t = Instant::now();
    for k in 0..kmax {
        for j in 0..jmax {
            field[k * jmax + j] = 0.0; // L = 0 face
            field[(lmax - 1) * kmax * jmax + k * jmax + j] = 0.0; // L = max
        }
    }
    // A serial loop runs no region, so no report can know how far it
    // *could* be split; its author does, and states the row by hand.
    let boundary = KernelSummary {
        invocations: 1,
        seconds: t.elapsed().as_secs_f64(),
        parallelism: kmax as u64,
        ..KernelSummary::named("boundary")
    };

    println!(
        "swept {} points with {} workers, {} synchronization event(s)\n",
        field.len(),
        workers.processors(),
        workers.sync_event_count()
    );

    // The profile-then-decide workflow of Section 4: the profile is
    // the span report's per-kernel rows. Would these loops be worth
    // parallelizing on an 8-processor SMP with a 2,000-cycle
    // synchronization cost? (Table 1's question.)
    let mut profile = workers
        .recorder()
        .take_report("quickstart", workers.processors())
        .kernel_summaries();
    profile.push(boundary);
    let advisor = Advisor::new(300e6, OverheadBound::paper_default(2_000), 8);
    let advice = advisor.advise(&profile);
    println!("profile:");
    for (row, l) in profile.iter().zip(&advice.loops) {
        println!(
            "  {:12} {:8.3} ms  {:5.1}% of time  parallelism {}",
            row.name,
            row.seconds * 1e3,
            l.fraction_of_total * 100.0,
            row.parallelism
        );
    }

    println!("\nadvisor at 8 processors (300 MHz, 2k-cycle sync):");
    for l in &advice.loops {
        println!("  {:12} -> {:?}", l.name, l.decision);
    }
    println!(
        "\npredicted whole-program speedup: {:.1}x (serial fraction {:.1}%)",
        advice.predicted_speedup,
        advice.serial_fraction * 100.0
    );
    println!("\nideal stair-step for this nest: U = {lmax} L-planes:");
    for p in [16u32, 24, 32, 48, 64] {
        println!(
            "  P={p:<3} speedup {:.2}",
            perfmodel::ideal_speedup(lmax as u64, p)
        );
    }
}
