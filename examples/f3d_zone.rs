//! Run the F3D-style solver on a small three-zone projectile-like case
//! with both implementations and verify they agree — the paper's core
//! promise ("no changes to the algorithm or the convergence
//! properties") made executable.
//!
//! Run with: `cargo run --release --example f3d_zone`

use f3d::bc::{self, BcKind, Face, ZoneBcs};
use f3d::risc_impl::RiscStepper;
use f3d::solver::{SolverConfig, ZoneSolver};
use f3d::vector_impl::VectorStepper;
use llp::Workers;
use mesh::{Arrangement, Axis, Ijk, Layout, Metrics, MultiZoneGrid};
use std::time::Instant;

/// Per-zone BCs for a chained three-zone case: zonal faces where zones
/// abut, projectile-style everywhere else.
fn zone_bcs(i: usize, nzones: usize) -> ZoneBcs {
    let mut bcs = ZoneBcs::projectile();
    if i > 0 {
        bcs = bcs.with(
            Face {
                axis: Axis::J,
                high: false,
            },
            BcKind::Zonal,
        );
    }
    if i + 1 < nzones {
        bcs = bcs.with(
            Face {
                axis: Axis::J,
                high: true,
            },
            BcKind::Zonal,
        );
    }
    bcs
}

fn perturb(zone: &mut ZoneSolver, seed: usize) {
    for p in zone.dims().iter_jkl() {
        let mut q = zone.q.get(p);
        let phase = (p.j + 3 * p.k + 5 * p.l + seed) as f64;
        q[0] *= 1.0 + 0.01 * phase.sin();
        q[4] *= 1.0 + 0.005 * phase.cos();
        zone.q.set(p, q);
    }
}

fn main() {
    let grid = MultiZoneGrid::small_test_case();
    let config = SolverConfig::supersonic();
    println!("F3D-style zonal solve: {grid}");
    println!(
        "freestream M = {}, dt = {}, three zones chained in J\n",
        config.flow.mach, config.dt
    );

    // Build both implementations' zones with identical initial fields.
    let mut vec_zones: Vec<(ZoneSolver, VectorStepper)> = Vec::new();
    let mut risc_zones: Vec<(ZoneSolver, RiscStepper)> = Vec::new();
    for (i, spec) in grid.zones().iter().enumerate() {
        let metrics = Metrics::cartesian(spec.dims, (0.3, 0.3, 0.3));
        let (mut vz, vs) = VectorStepper::new_zone(config, metrics.clone());
        let (mut rz, rs) = RiscStepper::new_zone(config, metrics);
        perturb(&mut vz, i);
        perturb(&mut rz, i);
        vec_zones.push((vz, vs));
        risc_zones.push((rz, rs));
    }

    // Span recording on: the RISC stepper's kernel spans are the
    // per-loop profile printed below.
    let workers = Workers::recorded(llp::default_worker_count());
    let nzones = grid.zones().len();
    let steps = 8;

    let t0 = Instant::now();
    for step in 1..=steps {
        // Vector implementation: zones stepped serially.
        for (i, (zone, stepper)) in vec_zones.iter_mut().enumerate() {
            stepper.step(zone, &zone_bcs(i, nzones));
        }
        for i in 0..nzones - 1 {
            let (a, b) = vec_zones.split_at_mut(i + 1);
            bc::inject(&mut a[i].0, &mut b[0].0);
        }

        // RISC implementation: parallel sweeps, serial BCs + injection.
        for (i, (zone, stepper)) in risc_zones.iter_mut().enumerate() {
            stepper.step(zone, &zone_bcs(i, nzones), &workers, None);
        }
        for i in 0..nzones - 1 {
            let (a, b) = risc_zones.split_at_mut(i + 1);
            bc::inject(&mut a[i].0, &mut b[0].0);
        }

        let max_diff = vec_zones
            .iter()
            .zip(&risc_zones)
            .map(|((vz, _), (rz, _))| vz.q.max_abs_diff(&rz.q))
            .fold(0.0f64, f64::max);
        let dev = risc_zones
            .iter()
            .map(|(z, _)| z.freestream_deviation())
            .fold(0.0f64, f64::max);
        println!(
            "step {step:>2}: max |vector - risc| = {max_diff:.2e}   max freestream deviation = {dev:.4e}"
        );
        assert!(max_diff < 1e-11, "implementations diverged");
    }
    println!(
        "\n{} steps in {:.2} s wall",
        steps,
        t0.elapsed().as_secs_f64()
    );
    println!(
        "sync events per step (RISC impl): {}",
        workers.sync_event_count() / steps as u64
    );

    println!("\nper-loop profile of the RISC implementation:");
    let mut profile = workers
        .recorder()
        .take_report("f3d_zone", workers.processors())
        .kernel_summaries();
    profile.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
    let total: f64 = profile.iter().map(|k| k.seconds).sum();
    for row in &profile {
        println!(
            "  {:16} {:8.2} ms total  {:5.1}%  parallelism {:>3}  {}",
            row.name,
            row.seconds * 1e3,
            row.seconds / total * 100.0,
            row.parallelism,
            if row.parallelized {
                "parallel"
            } else {
                "SERIAL"
            }
        );
    }

    // One probe point for the curious.
    let p = Ijk::new(2, 5, 5);
    let q = risc_zones[1].0.q.get(p);
    let prim = f3d::state::Primitive::from_conserved(&q);
    println!(
        "\nzone2 probe {p}: rho = {:.4}, |u| = {:.4}, p = {:.4}, M = {:.3}",
        prim.rho,
        prim.speed(),
        prim.p,
        prim.mach()
    );
    let _ = (Layout::jkl(), Arrangement::ComponentInner); // storage used by the RISC impl
}
