//! Workload-trace generation: one `smpsim` trace per solver time step.
//!
//! The trace is the bridge between the solver's loop schedule and the
//! machine model: for each zone and each kernel, it records how much
//! work the loop does (cycles, priced by [`crate::costmodel`] for a
//! specific machine memory system), how much parallelism the
//! parallelized loop level exposes (the zone extent orthogonal to the
//! kernel's recurrence), its memory traffic, and its page-sharing
//! fraction (computed by `cachesim::page_sharing`).
//!
//! Traces for the paper's full-size cases (59 million points) are
//! generated analytically from the zone dimensions — no 2.4-GB field
//! allocation required. They model the paper's schedule: five parallel
//! loops per zone. The real [`crate::risc_impl`] runs the same loops
//! with three of them fused — its `rhs_jk` region is the trace's Rhs,
//! JFactor and KFactor at the same L parallelism — as asserted by a
//! test that compares the trace's phase list against a profiled run on
//! a small grid.

use crate::costmodel::{kernel_cost_on, ImplKind, Kernel};
use cachesim::patterns::page_sharing;
use cachesim::presets::MachineMemory;
use llp::{ObsReport, SpanKind, SpanNode};
use mesh::{Axis, Dims, Layout, MultiZoneGrid};
use smpsim::{ExecReport, ParallelLoop, SerialWork, WorkloadTrace};

/// Reference worker count at which page-sharing fractions are measured
/// (the fraction is nearly flat in the worker count for the patterns at
/// hand; the contention *multiplier* scales with the actual count at
/// execution time).
pub const SHARING_REFERENCE_WORKERS: usize = 8;

/// Which loop level each parallel kernel parallelizes, and therefore
/// its available parallelism for a zone of dims `d`.
#[must_use]
pub fn kernel_parallel_axis(kernel: Kernel) -> Option<Axis> {
    match kernel {
        // Residual, J factor, K factor, update: doacross over L.
        Kernel::Rhs | Kernel::JFactor | Kernel::KFactor | Kernel::Update => Some(Axis::L),
        // L factor: its recurrence runs along L, so the solve phase
        // parallelizes K.
        Kernel::LFactor => Some(Axis::K),
        Kernel::Bc | Kernel::Inject => None,
    }
}

/// Boundary-face points of a zone (all six faces, no double counting).
#[must_use]
pub fn face_points(d: Dims) -> u64 {
    (d.points() - d.interior_points()) as u64
}

/// Build the one-time-step trace of the **RISC-tuned parallel**
/// implementation for `grid` on a machine with memory system `mem`.
///
/// Phase order per zone: rhs, J factor, K factor, L factor, update —
/// all parallel, one region each in the paper's schedule (the first
/// three are one fused region in [`crate::risc_impl::RiscStepper`]) —
/// then the serial boundary conditions; zonal injections close the
/// step.
#[must_use]
pub fn risc_step_trace(grid: &MultiZoneGrid, mem: &MachineMemory) -> WorkloadTrace {
    let mut t = WorkloadTrace::new();
    for zone in grid.zones() {
        t.extend(&risc_zone_trace(zone, mem));
    }
    t.extend(&injection_trace(grid, mem));
    t
}

/// The one-step trace of a *single zone* of the tuned implementation
/// (its five parallel sweeps plus its serial boundary conditions) —
/// the unit that MLP runs concurrently across teams.
#[must_use]
pub fn risc_zone_trace(zone: &mesh::ZoneSpec, mem: &MachineMemory) -> WorkloadTrace {
    let mut t = WorkloadTrace::new();
    let page_bytes = 16 << 10;
    let d = zone.dims;
    let pts = d.points() as u64;
    for kernel in Kernel::VOLUME {
        let axis = kernel_parallel_axis(kernel).expect("volume kernels are parallel");
        let name = format!("{}:{kernel:?}", zone.name);
        let work = priced(name, pts, kernel, ImplKind::Risc, mem);
        let sharing = page_sharing(
            d,
            Layout::jkl(),
            axis,
            SHARING_REFERENCE_WORKERS,
            page_bytes,
        );
        t.parallel(ParallelLoop {
            name: work.name,
            parallelism: d.extent(axis) as u64,
            work_cycles: work.work_cycles,
            flops: work.flops,
            traffic_bytes: work.traffic_bytes,
            shared_page_fraction: sharing.shared_fraction(),
        });
    }
    // Boundary conditions: serial, face points only (Table 2's
    // justification for leaving them so).
    let bc = format!("{}:Bc", zone.name);
    t.serial(priced(bc, face_points(d), Kernel::Bc, ImplKind::Risc, mem));
    t
}

/// `pts` points of `kernel` in implementation `imp`, priced on `mem`
/// ([`kernel_cost_on`]): the phase's work, flops and traffic. Every
/// trace phase is built from it.
fn priced(
    name: String,
    pts: u64,
    kernel: Kernel,
    imp: ImplKind,
    mem: &MachineMemory,
) -> SerialWork {
    let cost = kernel_cost_on(kernel, imp, mem);
    SerialWork {
        name,
        work_cycles: pts as f64 * cost.cycles_per_point(mem),
        flops: pts * cost.flops_per_point,
        traffic_bytes: pts as f64 * cost.unique_bytes_per_point,
    }
}

/// Per-zone one-step traces, in zone order — the MLP inputs for
/// `smpsim::Machine::execute_mlp`.
#[must_use]
pub fn risc_zone_traces(grid: &MultiZoneGrid, mem: &MachineMemory) -> Vec<WorkloadTrace> {
    grid.zones()
        .iter()
        .map(|z| risc_zone_trace(z, mem))
        .collect()
}

/// The serial zonal-injection tail of a step (runs after all zones,
/// under either parallelization mode).
#[must_use]
pub fn injection_trace(grid: &MultiZoneGrid, mem: &MachineMemory) -> WorkloadTrace {
    let mut t = WorkloadTrace::new();
    for iface in grid.interfaces() {
        let d = grid.zones()[iface.upstream].dims;
        let pts = (d.k * d.l) as u64 * 2; // both overlap planes
        let name = format!("inject:{}->{}", iface.upstream, iface.downstream);
        t.serial(priced(name, pts, Kernel::Inject, ImplKind::Risc, mem));
    }
    t
}

/// Translate a trace-phase kernel name to the span vocabulary of the
/// solver's reports (`rhs`, `j_factor`, …), so modeled and measured
/// reports share one schema. The model keeps the paper's loops, so the
/// stepper's fused `rhs_jk` is the sum of the modeled `rhs`,
/// `j_factor` and `k_factor`, and its `l_factor_solve` the modeled
/// `l_factor`. A `[face…]` suffix from the parallel-BC ablation is
/// preserved.
#[must_use]
pub fn model_kernel_name(phase_kernel: &str) -> String {
    let (base, rest) = match phase_kernel.find('[') {
        Some(i) => phase_kernel.split_at(i),
        None => (phase_kernel, ""),
    };
    let mapped = match base {
        "Rhs" => "rhs",
        "JFactor" => "j_factor",
        "KFactor" => "k_factor",
        "LFactor" => "l_factor",
        "Update" => "update",
        "Bc" => "bc",
        "Inject" => "inject",
        other => other,
    };
    format!("{mapped}{rest}")
}

/// Turn a machine-model execution of a step trace into an
/// [`ObsReport`] with the *same span hierarchy and kernel names* as a
/// recorded run of the real solver: the flat phase list from
/// [`ExecReport::to_obs_report`] is regrouped into per-zone
/// [`SpanKind::Zone`] spans (trace phases are named `"<zone>:<Kernel>"`)
/// with the serial injection phases as trailing `inject` kernels, and
/// kernel names are mapped via [`model_kernel_name`].
///
/// The report's `source` stays `"modeled"`; everything else — schema,
/// hierarchy, kernel vocabulary — matches the measured reports, which
/// is what lets one consumer compare the two.
///
/// # Panics
/// Panics if `exec` carries no phases (an empty trace).
#[must_use]
pub fn modeled_obs_report(exec: &ExecReport, case: &str) -> ObsReport {
    let mut flat = exec.to_obs_report(case);
    let old_step = flat.spans.pop().expect("to_obs_report emits a step span");
    let mut step = SpanNode::new("step", SpanKind::Step);
    step.seconds = old_step.seconds;
    let mut zones: Vec<SpanNode> = Vec::new();
    let mut tail: Vec<SpanNode> = Vec::new();
    for mut kernel in old_step.children {
        match kernel.name.split_once(':') {
            Some(("inject", _)) => {
                // "inject:0->1" — a zonal-injection phase.
                kernel.name = "inject".to_string();
                tail.push(kernel);
            }
            Some((zone_name, kernel_name)) => {
                let zone_name = zone_name.to_string();
                kernel.name = model_kernel_name(kernel_name);
                let zone = match zones.iter_mut().find(|z| z.name == zone_name) {
                    Some(z) => z,
                    None => {
                        zones.push(SpanNode::new(&zone_name, SpanKind::Zone));
                        zones.last_mut().expect("just pushed")
                    }
                };
                zone.seconds += kernel.seconds;
                zone.children.push(kernel);
            }
            None => tail.push(kernel),
        }
    }
    step.children = zones;
    step.children.append(&mut tail);
    flat.spans = vec![step];
    flat
}

/// Build the one-time-step trace of the **vector** implementation:
/// every phase serial (the baseline for the serial-tuning experiments).
#[must_use]
pub fn vector_step_trace(grid: &MultiZoneGrid, mem: &MachineMemory) -> WorkloadTrace {
    let mut t = WorkloadTrace::new();
    for zone in grid.zones() {
        let d = zone.dims;
        let pts = d.points() as u64;
        for kernel in Kernel::VOLUME {
            let name = format!("{}:{kernel:?}", zone.name);
            t.serial(priced(name, pts, kernel, ImplKind::Vector, mem));
        }
        let (bc, fpts) = (format!("{}:Bc", zone.name), face_points(d));
        t.serial(priced(bc, fpts, Kernel::Bc, ImplKind::Vector, mem));
    }
    t
}

/// A variant of [`risc_step_trace`] where the boundary conditions are
/// parallelized too — the ablation behind the paper's "the more
/// processors that are used, the harder it is to justify the overhead
/// associated with the parallelization of boundary condition
/// subroutines".
///
/// A real BC update is not one loop: each of the six faces is its own
/// routine (and in production codes, several sub-loops per face). Each
/// becomes a separate doacross region costing its own synchronization
/// event; the face loops are thin in memory, so their pages are heavily
/// shared between workers.
#[must_use]
pub fn risc_step_trace_parallel_bc(grid: &MultiZoneGrid, mem: &MachineMemory) -> WorkloadTrace {
    let mut t = risc_step_trace(grid, mem);
    let phases = std::mem::take(&mut t.phases);
    for phase in phases {
        match phase {
            smpsim::Phase::Serial(s) if s.name.ends_with(":Bc") => {
                // Zone dims from the grid (the name is "<zone>:Bc").
                let zone_name = s.name.trim_end_matches(":Bc");
                let d = grid
                    .zones()
                    .iter()
                    .find(|z| z.name == zone_name)
                    .expect("zone exists")
                    .dims;
                // Six face loops: J-/J+ (K x L faces), K-/K+ (J x L),
                // L-/L+ (J x K); the parallelized level is the face's
                // slower-varying extent.
                let faces: [(u64, u64); 6] = [
                    ((d.k * d.l) as u64, d.l as u64),
                    ((d.k * d.l) as u64, d.l as u64),
                    ((d.j * d.l) as u64, d.l as u64),
                    ((d.j * d.l) as u64, d.l as u64),
                    ((d.j * d.k) as u64, d.k as u64),
                    ((d.j * d.k) as u64, d.k as u64),
                ];
                let total_pts: u64 = faces.iter().map(|&(p, _)| p).sum();
                for (i, &(pts, parallelism)) in faces.iter().enumerate() {
                    let share = pts as f64 / total_pts as f64;
                    t.parallel(ParallelLoop {
                        name: format!("{}[face{}]", s.name, i),
                        parallelism,
                        work_cycles: s.work_cycles * share,
                        flops: (s.flops as f64 * share) as u64,
                        traffic_bytes: s.traffic_bytes * share,
                        shared_page_fraction: 0.6,
                    });
                }
            }
            other => t.phases.push(other),
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachesim::presets;

    fn small_grid() -> MultiZoneGrid {
        MultiZoneGrid::small_test_case()
    }

    #[test]
    fn trace_has_expected_phase_structure() {
        let t = risc_step_trace(&small_grid(), &presets::origin2000_r12k());
        // 3 zones x (5 parallel + 1 serial BC) + 2 injections.
        assert_eq!(t.phases.len(), 3 * 6 + 2);
        assert_eq!(t.sync_events(), 15);
    }

    #[test]
    fn parallelism_matches_zone_extents() {
        let grid = MultiZoneGrid::paper_one_million();
        let t = risc_step_trace(&grid, &presets::origin2000_r12k());
        // L-parallel kernels of every zone expose 70 units; the L-factor
        // solve exposes K = 75.
        let min = t.min_parallelism().unwrap();
        assert_eq!(min, 70);
        let lf = t
            .phases
            .iter()
            .find_map(|p| match p {
                smpsim::Phase::Parallel(pl) if pl.name.ends_with(":LFactor") => Some(pl),
                _ => None,
            })
            .unwrap();
        assert_eq!(lf.parallelism, 75);
    }

    #[test]
    fn fifty_nine_million_case_parallelism() {
        let grid = MultiZoneGrid::paper_fifty_nine_million();
        let t = risc_step_trace(&grid, &presets::origin2000_r12k());
        assert_eq!(t.min_parallelism().unwrap(), 350);
    }

    #[test]
    fn serial_fraction_is_small_but_nonzero() {
        let grid = MultiZoneGrid::paper_one_million();
        let t = risc_step_trace(&grid, &presets::origin2000_r12k());
        let f = t.serial_work_fraction();
        assert!(f > 0.0, "BC work must be present");
        assert!(f < 0.05, "BC work must be small: {f}");
    }

    #[test]
    fn flops_scale_with_grid_points() {
        let mem = presets::origin2000_r12k();
        let small = risc_step_trace(&MultiZoneGrid::paper_one_million(), &mem).total_flops();
        let large = risc_step_trace(&MultiZoneGrid::paper_fifty_nine_million(), &mem).total_flops();
        let ratio = large as f64 / small as f64;
        let pts_ratio = 59_377_500.0 / 1_002_750.0;
        assert!((ratio / pts_ratio - 1.0).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn vector_trace_is_fully_serial_and_slower() {
        let mem = presets::origin2000_r12k();
        let grid = small_grid();
        let v = vector_step_trace(&grid, &mem);
        assert_eq!(v.sync_events(), 0);
        assert_eq!(v.serial_work_fraction(), 1.0);
        let r = risc_step_trace(&grid, &mem);
        assert!(v.total_work_cycles() > 5.0 * r.total_work_cycles());
        // Same algorithm, same flops (BC/inject bookkeeping differs only
        // in the injections the serial trace omits).
        let vf = v.total_flops() as f64;
        let rf = r.total_flops() as f64;
        assert!((vf / rf - 1.0).abs() < 0.01, "{vf} vs {rf}");
    }

    #[test]
    fn sharing_fractions_are_low_for_slab_parallel_kernels() {
        let t = risc_step_trace(
            &MultiZoneGrid::paper_one_million(),
            &presets::origin2000_r12k(),
        );
        for p in &t.phases {
            if let smpsim::Phase::Parallel(pl) = p {
                if pl.name.ends_with(":Rhs") || pl.name.ends_with(":JFactor") {
                    assert!(
                        pl.shared_page_fraction < 0.2,
                        "{}: {}",
                        pl.name,
                        pl.shared_page_fraction
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_bc_ablation_flips_serial_phases() {
        let mem = presets::origin2000_r12k();
        let base = risc_step_trace(&small_grid(), &mem);
        let abl = risc_step_trace_parallel_bc(&small_grid(), &mem);
        // 6 face regions replace each zone's single serial BC phase.
        assert_eq!(abl.sync_events(), base.sync_events() + 3 * 6);
        assert!(abl.serial_work_fraction() < base.serial_work_fraction());
        let (bf, af) = (base.total_flops() as f64, abl.total_flops() as f64);
        assert!((af / bf - 1.0).abs() < 1e-6, "{bf} vs {af}");
    }

    #[test]
    fn modeled_report_mirrors_measured_hierarchy() {
        let mem = presets::origin2000_r12k();
        let grid = small_grid();
        let trace = risc_step_trace(&grid, &mem);
        let machine = smpsim::presets::origin2000_r12k_128().executor();
        let exec = machine.execute(&trace, 8);
        let report = modeled_obs_report(&exec, "small/modeled");
        assert_eq!(report.source, "modeled");
        assert_eq!(report.workers, 8);
        // Same hierarchy as a recorded run: step → 3 zones + injections.
        assert_eq!(report.spans.len(), 1);
        let step = &report.spans[0];
        assert_eq!(step.kind, llp::SpanKind::Step);
        assert_eq!(step.children.len(), 3 + 2);
        for zone in &step.children[..3] {
            assert_eq!(zone.kind, llp::SpanKind::Zone);
            let mut names: Vec<&str> = zone.children.iter().map(|k| k.name.as_str()).collect();
            names.sort_unstable();
            assert_eq!(
                names,
                ["bc", "j_factor", "k_factor", "l_factor", "rhs", "update"]
            );
        }
        assert_eq!(step.children[3].name, "inject");
        assert!(!step.children[3].parallelized());
        // One sync event per parallel region, as in the trace.
        assert_eq!(report.sync_events(), trace.sync_events());
        // Modeled seconds survive the regrouping.
        assert!((report.total_seconds() - exec.seconds).abs() < 1e-12);
        // Measured-name alignment: summaries use the solver vocabulary.
        let kernels = report.kernel_summaries();
        let rhs = kernels.iter().find(|k| k.name == "rhs").unwrap();
        assert!(rhs.parallelized);
        assert_eq!(rhs.invocations, 3);
    }

    #[test]
    fn trace_matches_profiled_small_run_structure() {
        // The analytic trace keeps the paper's five loops; the real
        // RiscStepper runs them as three regions. The mapping: measured
        // `rhs_jk` is the modeled Rhs + JFactor + KFactor, all three at
        // the same L parallelism; `l_factor_solve` is the LFactor and
        // `update` the Update. Parallelism values match exactly, and
        // each measured region is one sync event — two fewer than the
        // model's five.
        use crate::bc::ZoneBcs;
        use crate::risc_impl::RiscStepper;
        use crate::solver::SolverConfig;
        use llp::Workers;
        use mesh::Metrics;

        let d = Dims::new(6, 7, 8);
        let (mut zone, mut stepper) = RiscStepper::new_zone(
            SolverConfig::subsonic(),
            Metrics::cartesian(d, (0.5, 0.5, 0.5)),
        );
        let workers = Workers::recorded(2);
        stepper.step(&mut zone, &ZoneBcs::all_freestream(), &workers, None);
        let report = workers.recorder().take_report("z", 2);
        let mut measured: Vec<(String, u64)> = report
            .kernel_summaries()
            .into_iter()
            .filter(|k| k.parallelized)
            .map(|k| (k.name, k.parallelism))
            .collect();
        // Analytic trace for a single-zone grid of the same dims.
        let grid = MultiZoneGrid::chained(vec![mesh::ZoneSpec {
            name: "z".into(),
            dims: d,
        }]);
        let t = risc_step_trace(&grid, &presets::origin2000_r12k());
        let fused = |model: String| match model.as_str() {
            "rhs" | "j_factor" | "k_factor" => "rhs_jk".to_string(),
            "l_factor" => "l_factor_solve".to_string(),
            _ => model,
        };
        let mut modeled: Vec<(String, u64)> = t
            .phases
            .iter()
            .filter_map(|p| match p {
                smpsim::Phase::Parallel(pl) => Some((
                    fused(model_kernel_name(pl.name.trim_start_matches("z:"))),
                    pl.parallelism,
                )),
                smpsim::Phase::Serial(_) => None,
            })
            .collect();
        assert_eq!(modeled.len(), 5, "the model keeps the paper's loops");
        measured.sort();
        modeled.sort();
        // Three modeled loops fold into `rhs_jk` only if all three
        // expose the same parallelism: a mismatch would leave two rows.
        modeled.dedup();
        // rhs_jk/update parallel over L (8), the L factor over K (7).
        assert_eq!(
            measured,
            [
                ("l_factor_solve".to_string(), 7),
                ("rhs_jk".to_string(), 8),
                ("update".to_string(), 8),
            ]
        );
        assert_eq!(measured, modeled);
        assert_eq!(report.sync_events(), t.sync_events() - 2);
    }
}
