//! Observability walkthrough: record a real multi-zone solver step on
//! a recorded team, print its hierarchical span report, then produce
//! the *modeled* report for the same case from the machine model — the
//! two share one schema, so model and measurement are directly
//! diffable.
//!
//! Every document the example prints is a fold of that one recording:
//! the span report, the overhead-attribution table (compute vs barrier
//! vs claim time, per worker and per kernel, measured against the
//! Table 1 model) and a Chrome trace-event file of the per-worker chunk
//! slices that `chrome://tracing` or Perfetto opens directly.
//!
//! ```text
//! cargo run --release --example observability
//! ```

use f3d::multizone::MultiZoneSolver;
use f3d::solver::SolverConfig;
use f3d::trace;
use llp::obs::attr::kernel_overheads;
use llp::obs::chrome::chrome_trace_with_summary;
use llp::{AttributionReport, ObsReport, SpanNode, Workers};
use mesh::MultiZoneGrid;

fn print_tree(node: &SpanNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let tag = if node.parallelized() && node.kind == llp::SpanKind::Kernel {
        "  [parallel]"
    } else {
        ""
    };
    println!(
        "{indent}{:<8} {:<16} {:>9.3} ms  sync={}{tag}",
        node.kind.as_str(),
        node.name,
        node.seconds * 1e3,
        node.total_sync_events(),
    );
    for child in &node.children {
        print_tree(child, depth + 1);
    }
}

fn summarize(title: &str, report: &ObsReport) {
    println!("== {title} ==");
    println!(
        "case={} source={} workers={} sync_events={}",
        report.case,
        report.source,
        report.workers,
        report.sync_events()
    );
    for span in &report.spans {
        print_tree(span, 1);
    }
    println!();
}

fn main() {
    let grid = MultiZoneGrid::small_test_case();

    // Measured: run the real solver on a team whose recorder is on. The
    // report drains the span marks and the timeline the lanes and region
    // marks of the same recording.
    let mut solver = MultiZoneSolver::from_grid(&grid, SolverConfig::subsonic(), 0.3);
    let workers = Workers::recorded(4);
    solver.step_loop_level(&workers, None);
    let measured = workers.recorder().take_report("small_test_case", 4);
    let timeline = workers.recorder().take_timeline();
    summarize("measured (one step, 4 workers)", &measured);

    // Modeled: execute the analytic step trace on the machine model and
    // regroup it into the same hierarchy and kernel vocabulary.
    let mem = cachesim::presets::origin2000_r12k();
    let machine = smpsim::presets::origin2000_r12k_128().executor();
    let exec = machine.execute(&trace::risc_step_trace(&grid, &mem), 4);
    let modeled = trace::modeled_obs_report(&exec, "small_test_case");
    summarize("modeled (same case, Origin 2000 model)", &modeled);

    // The shared schema is the point: the model keeps the paper's five
    // loops, so the measured `rhs_jk` (the residual and the J and K
    // factors, fused over L) is diffed against the sum of the model's
    // `rhs`, `j_factor` and `k_factor`, and `l_factor_solve` against
    // its `l_factor`.
    let modeled_loops = |name: &str| -> Vec<String> {
        match name {
            "rhs_jk" => vec!["rhs".into(), "j_factor".into(), "k_factor".into()],
            "l_factor_solve" => vec!["l_factor".into()],
            other => vec![other.into()],
        }
    };
    println!("== measured vs modeled, per kernel ==");
    println!(
        "{:<16} {:>12} {:>12} {:>6} {:>6}",
        "kernel", "meas (ms)", "model (ms)", "sync", "par"
    );
    let modeled_kernels = modeled.kernel_summaries();
    for k in measured.kernel_summaries() {
        let loops = modeled_loops(&k.name);
        let model: Vec<_> = modeled_kernels
            .iter()
            .filter(|m| loops.contains(&m.name))
            .collect();
        let model_ms = if model.is_empty() {
            f64::NAN
        } else {
            model.iter().map(|m| m.seconds * 1e3).sum()
        };
        println!(
            "{:<16} {:>12.3} {:>12.3} {:>6} {:>6}",
            k.name,
            k.seconds * 1e3,
            model_ms,
            k.sync_events,
            if k.parallelized { "yes" } else { "no" },
        );
    }
    // The lanes' view of the same step: where did each worker's time
    // actually go, and does the measured overhead agree with the
    // paper's Table 1 formula? Each region's kernel is the one the
    // recording's log places it in.
    let attr = AttributionReport::from_timeline(&timeline);
    println!("== overhead attribution ==");
    println!(
        "regions={} compute={:.1}% barrier={:.1}% claim={:.1}% imbalance={:.2}",
        attr.regions.len(),
        attr.compute_fraction() * 100.0,
        attr.barrier_fraction() * 100.0,
        attr.claim_fraction() * 100.0,
        attr.imbalance(),
    );
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>7} {:>7}",
        "lane", "compute (ms)", "barrier (ms)", "claim (ms)", "chunks", "misses"
    );
    for w in &attr.workers {
        println!(
            "{:<6} {:>12.3} {:>12.3} {:>12.3} {:>7} {:>7}",
            w.lane,
            w.compute_ns as f64 / 1e6,
            w.barrier_ns as f64 / 1e6,
            w.claim_ns as f64 / 1e6,
            w.chunks,
            w.claim_misses,
        );
    }
    if let Some(check) = attr.model_check() {
        println!(
            "model check: measured sync fraction {:.3} vs Table 1 modeled {:.3} \
             (mean sync {:.1} us/region, {:.1} lanes)",
            check.measured_fraction,
            check.modeled_fraction,
            check.sync_cost_ns / 1e3,
            check.mean_lanes,
        );
    }
    println!(
        "\n{:<18} {:>8} {:>10} {:>10}",
        "kernel", "regions", "measured", "modeled"
    );
    for o in &kernel_overheads(&attr) {
        println!(
            "{:<18} {:>8} {:>9.1}% {:>9.1}%",
            o.kernel,
            o.regions,
            o.overhead_measured * 100.0,
            o.overhead_modeled * 100.0,
        );
    }

    // Dump the per-worker chunk slices under the coordinator's regions
    // as a Chrome trace-event file.
    let trace_path = std::env::temp_dir().join("llp_observability_trace.json");
    let chrome = chrome_trace_with_summary(&timeline, &attr);
    std::fs::write(&trace_path, chrome.to_pretty_string()).expect("write chrome trace");
    println!(
        "\nwrote Chrome trace to {} (open in chrome://tracing or Perfetto)",
        trace_path.display()
    );

    println!("\nFull JSON report (schema v{}):", measured.schema_version);
    println!("{}", measured.to_json_string());
}
