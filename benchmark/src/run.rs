//! One measured run of one workload: the unit the driver calls, and the
//! unit `run` starts a child process for.

use crate::host;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::probes;
use crate::report::Report;
use crate::rng::Rng;
use crate::serving::{Serve, Traffic};
use crate::solvers::{F3dAboveBound, FdtdSyncBound};
use crate::spans::{self, Span, Tracer};
use crate::stats;
use crate::workload::{Block, Failures, Mode, Workload};
use llp::obs::json::Json;
use llp::Policy;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A run is `EPISODES` episodes of equal length — set the workload
/// up, measure block pairs, tear it down — so the set-ups a run times
/// are spread over all of it rather than bunched into its first
/// instant (where one slow second of the host would colour them all),
/// and only one instance is alive at a time.
const EPISODES: u32 = 5;

/// A cheap set-up (the FDTD one is 3 ms) is repeated within its episode,
/// up to this many times or this long, so `setup_s` — the fastest of
/// them all — still finds a quiet moment when nine tenths of the host's
/// time is the slow mode.
const SET_UPS_PER_EPISODE: usize = 8;
const CHEAP_SET_UP: Duration = Duration::from_millis(25);

/// Samples a run may take before its sample lists reallocate. Reserved
/// up front (untouched pages are not resident), so `rss_peak_mb` does
/// not depend on where a doubling happened to land.
const SAMPLE_CAPACITY: usize = 1 << 22;

/// Share of a traced run spent on the workload's own traced pass; the
/// layer panel takes the rest.
const TRACED_PASS_SHARE: f64 = 0.3;

/// Spans written to the trace file. The pass records every span, but a
/// serve_hot pass makes a few hundred thousand; the file keeps the
/// first ones (parents always precede their children).
const TRACE_FILE_SPANS: usize = 40_000;

fn set_up(
    name: &str,
    seed: u64,
    p: usize,
    failures: &mut Failures,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        metrics::F3D_ABOVE_BOUND => Box::new(F3dAboveBound::set_up(seed, p, 8, failures)),
        metrics::FDTD_SYNC_BOUND => Box::new(FdtdSyncBound::set_up(
            metrics::FDTD_SYNC_BOUND,
            Policy::Static,
            p,
            16,
            failures,
        )),
        metrics::FDTD_SYNC_DYNAMIC => Box::new(FdtdSyncBound::set_up(
            metrics::FDTD_SYNC_DYNAMIC,
            Policy::Dynamic { chunk: 4 },
            p,
            16,
            failures,
        )),
        metrics::SERVE_HOT => Box::new(
            Serve::set_up(metrics::SERVE_HOT, Traffic::Hot, seed, p, failures)
                .map_err(|e| format!("server: {e}"))?,
        ),
        metrics::SERVE_COLD => Box::new(
            Serve::set_up(metrics::SERVE_COLD, Traffic::Cold, seed, p, failures)
                .map_err(|e| format!("server: {e}"))?,
        ),
        other => {
            let known: Vec<_> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{other}`; known: {}",
                known.join(", ")
            ));
        }
    })
}

/// Everything the block pairs of a run measured.
struct Measured {
    main: Block,
    other: Block,
}

impl Measured {
    fn new() -> Self {
        let mut measured = Measured {
            main: Block::default(),
            other: Block::default(),
        };
        measured.main.samples_us.reserve(SAMPLE_CAPACITY);
        measured.other.samples_us.reserve(SAMPLE_CAPACITY);
        measured
    }

    fn operations(&self) -> u64 {
        self.main.ok + self.main.failed + self.other.ok + self.other.failed
    }
}

/// Alternate `Main` blocks with `other` blocks until `deadline`.
/// Alternation is the drift defence: on this shared host a 20 s
/// single-configuration phase drifts by a quarter between runs, while
/// blocks of a second or less see the same weather on both sides.
fn alternate(
    workload: &mut dyn Workload,
    other: Mode,
    deadline: Instant,
    tracer: &mut Tracer,
    root: spans::SpanId,
    failures: &mut Failures,
    measured: &mut Measured,
) {
    while Instant::now() < deadline {
        let a = workload.block(Mode::Main, tracer, root, failures);
        let b = workload.block(other, tracer, root, failures);
        workload.cross_check(a.ok + b.ok, failures);
        measured.main.absorb(a);
        measured.other.absorb(b);
    }
}

/// Where the trace of `workload` is written: `results/` beside this
/// package's manifest, inside the checkout the binary was built in.
fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("{workload}.trace.json"))
}

fn write_trace(workload: &str, tracer: &Tracer) -> std::io::Result<PathBuf> {
    let path = trace_path(workload);
    std::fs::create_dir_all(path.parent().expect("results/ has a parent"))?;
    std::fs::write(&path, tracer.to_chrome(TRACE_FILE_SPANS).to_string())?;
    Ok(path)
}

/// Per span name: how many, their summed duration, and their summed
/// self time (duration minus what their child spans cover).
fn print_self_times(spans: &[Span]) {
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(spans::self_times(spans)) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.end_ns - span.start_ns;
        entry.2 += own;
    }
    println!(
        "  {:<16} {:>9} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    );
    for (name, (count, total_ns, own_ns)) in by_name {
        println!(
            "  {name:<16} {count:>9} {:>14.3} {:>14.3}",
            total_ns as f64 / 1e6,
            own_ns as f64 / 1e6
        );
    }
}

/// Run one workload once and print the result line. Returns whether the
/// run was correct and complete.
pub fn single(args: &RunArgs) -> Result<bool, String> {
    let p = host::parallelism();
    println!(
        "workload {}  seed {}  seconds {}  trace {}  P {p}  nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc()
    );

    let mut failures = Failures::default();
    let mut measured = Measured::new();
    let mut tracer = Tracer::new();
    let root = tracer.begin("workload", None, 0);
    let began = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let (report, set_up_failures) = if args.trace {
        let mut out = Report::new(PER_LAYER);
        let mut workload = set_up(&args.workload, args.seed, p, &mut failures)?;
        let set_up_failures = failures.count;
        println!("traced pass (Main and Traced blocks interleaved)");
        let deadline = began + budget.mul_f64(TRACED_PASS_SHARE);
        alternate(
            &mut *workload,
            Mode::Traced,
            deadline,
            &mut tracer,
            root,
            &mut failures,
            &mut measured,
        );
        tracer.end(root);
        for line in workload.notes() {
            println!("  {line}");
        }
        workload.finish();
        let untraced = stats::sorted(&measured.main.samples_us);
        let (untraced_us, traced_us) = (
            stats::median(&untraced),
            stats::median_of(&measured.other.samples_us),
        );
        out.emit_with(
            "trace_overhead_share",
            traced_us / untraced_us - 1.0,
            &format!("traced {traced_us:.2} us / untraced {untraced_us:.2} us - 1"),
        );
        out.emit("trace.spans", tracer.spans().len() as f64);
        out.emit_with(
            "trace.op_us_p90",
            stats::percentile(&untraced, 90.0),
            &format!("{} untraced operations", untraced.len()),
        );
        out.emit(
            "trace.ops_per_s",
            measured.main.ok as f64 / measured.main.wall_s,
        );
        print_self_times(tracer.spans());
        match write_trace(&args.workload, &tracer) {
            Ok(path) => println!("  trace written to {}", path.display()),
            Err(e) => failures.push(1, format!("{}: trace file: {e}", args.workload)),
        }
        probes::panel(
            p,
            args.seed,
            args.seconds * (1.0 - TRACED_PASS_SHARE),
            &mut out,
            &mut failures,
        );
        (out, set_up_failures)
    } else {
        let mut out = Report::new(END_TO_END);
        let mut set_ups = Vec::new();
        let mut set_up_failures = 0;
        let mut notes = Vec::new();
        let mut rss_peak_mb = f64::NAN;
        for episode in 1..=EPISODES {
            // Each episode draws its inputs from its own seed.
            let seed = Rng::new(args.seed ^ u64::from(episode) << 32).next_u64();
            let failures_before = failures.count;
            let episode_began = Instant::now();
            let mut tries = 0;
            let mut workload = loop {
                let start = Instant::now();
                let workload = set_up(&args.workload, seed, p, &mut failures)?;
                set_ups.push(start.elapsed().as_secs_f64());
                tries += 1;
                if tries == SET_UPS_PER_EPISODE || episode_began.elapsed() >= CHEAP_SET_UP {
                    break workload;
                }
                workload.finish();
            };
            set_up_failures += failures.count - failures_before;
            let until = began + budget.mul_f64(f64::from(episode) / f64::from(EPISODES));
            alternate(
                &mut *workload,
                Mode::Base,
                until,
                &mut tracer,
                root,
                &mut failures,
                &mut measured,
            );
            notes = workload.notes();
            workload.finish();
            if episode == 1 {
                // One instance's lifetime. Later episodes only add what
                // glibc's per-thread arenas keep of the instances before
                // them, which measures the allocator, not the program.
                rss_peak_mb = host::rss_peak_mb();
            }
        }
        for line in notes {
            println!("  last episode: {line}");
        }
        println!("end to end");
        let ops = stats::sorted(&measured.main.samples_us);
        out.emit_with(
            "op_us_p50",
            stats::median(&ops),
            &format!(
                "{} operations, p90 {:.3}",
                ops.len(),
                stats::percentile(&ops, 90.0)
            ),
        );
        out.emit("rss_peak_mb", rss_peak_mb);
        let set_ups = stats::sorted(&set_ups);
        out.emit_with(
            "setup_s",
            set_ups[0],
            &format!(
                "fastest of {}, median {:.6}",
                set_ups.len(),
                stats::median(&set_ups)
            ),
        );
        // Printed for the reader, not held to a bound: over ten runs of
        // one commit these two spread by up to 0.33 and 0.45.
        let base_ops = stats::sorted(&measured.other.samples_us);
        println!(
            "also: base operation (1 worker / 1 client) p10 {:.3} us, median {:.3} us over {}; \
             {:.3} correct operations/s over {:.2} s of Main blocks",
            stats::percentile(&base_ops, 10.0),
            stats::median(&base_ops),
            base_ops.len(),
            measured.main.ok as f64 / measured.main.wall_s,
            measured.main.wall_s
        );
        (out, set_up_failures)
    };
    let operations = measured.operations();

    for message in &failures.messages {
        println!("FAILED: {message}");
    }
    let unreported = report.unreported();
    if !unreported.is_empty() {
        println!("FAILED: no finite value for {}", unreported.join(", "));
    }
    let attempted = (operations + set_up_failures).max(1);
    let failed = failures.count.min(attempted);
    let correct = failed == 0 && unreported.is_empty();
    let line = Json::object(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from_u64(attempted)),
        ("failed", Json::from_u64(failed)),
        ("metrics", report.to_json()),
    ]);
    println!("{line}");
    Ok(correct)
}
