//! Supersonic flow over a cylinder segment at incidence — the
//! projectile-aerodynamics setting of the paper's F3D production runs,
//! on a real curvilinear grid with surface-force output.
//!
//! Runs the tuned parallel solver on a body-fitted half-cylinder grid
//! (J streamwise, K circumferential, L radial), monitors convergence,
//! and integrates the pressure force on the body each few steps.
//!
//! Run with: `cargo run --release --example projectile_flow`

use f3d::bc::{BcKind, Face, ZoneBcs};
use f3d::forces::pressure_force;
use f3d::risc_impl::RiscStepper;
use f3d::solver::{SolverConfig, ZoneSolver};
use f3d::state::FlowState;
use f3d::validation::ResidualHistory;
use llp::Workers;
use mesh::{Arrangement, Axis, Dims, Layout, Zone};

fn main() {
    // Body-fitted grid: 2:1 fineness cylinder, far field at 8 radii.
    let d = Dims::new(16, 15, 12);
    let grid = Zone::cylinder_segment(d, 8.0, 1.0, 8.0);
    let metrics = grid.metrics();

    let config = SolverConfig {
        flow: FlowState::freestream(2.0, 0.04), // M = 2, ~2.3 deg incidence
        dt: 0.02,
        eps2: 0.12,
        eps_imp: 0.5,
        viscosity: 0.0,
        prandtl: 0.72,
        local_cfl: None,
    };
    let bcs = ZoneBcs::all_freestream()
        .with(
            Face {
                axis: Axis::L,
                high: false,
            },
            BcKind::SlipWall,
        )
        .with(
            Face {
                axis: Axis::J,
                high: true,
            },
            BcKind::Extrapolate,
        );

    let zone0 = ZoneSolver::freestream(config, metrics, Layout::jkl(), Arrangement::ComponentInner);
    let mut zone = zone0;
    let mut stepper = RiscStepper::for_zone(&zone);
    // Span recording on: the stepper's kernel spans are the per-loop
    // profile printed at the end.
    let workers = Workers::recorded(llp::default_worker_count());
    let mut history = ResidualHistory::new();

    println!(
        "M = {} flow at alpha = {:.1} deg over a half-cylinder, {} points\n",
        config.flow.mach,
        config.flow.alpha.to_degrees(),
        d.points()
    );
    println!(
        "{:>5} {:>14} {:>10} {:>10}",
        "step", "deviation", "Cd", "Cl"
    );

    let reference_area = 2.0 * 1.0 * 8.0; // projected body area (2 r Lx)
    for step in 1..=60 {
        stepper.step(&mut zone, &bcs, &workers, None);
        history.record(&zone);
        if step % 10 == 0 {
            let f = pressure_force(
                &zone,
                Face {
                    axis: Axis::L,
                    high: false,
                },
            );
            let (cd, cl) = f.drag_lift(&zone, reference_area);
            println!(
                "{step:>5} {:>14.6e} {:>10.4} {:>10.4}",
                history.values.last().expect("recorded"),
                cd,
                cl
            );
        }
    }

    // Flow sanity: everything still physical (from_conserved panics
    // otherwise), and the wall is tangent.
    for p in zone.dims().iter_jkl() {
        let _ = f3d::state::Primitive::from_conserved(&zone.q.get(p));
    }
    println!("\nall {} states physical after 60 steps", d.points());

    println!("\nper-loop profile (the Section 4 workflow's raw input):");
    let mut profile = workers
        .recorder()
        .take_report("projectile_flow", workers.processors())
        .kernel_summaries();
    profile.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
    let total: f64 = profile.iter().map(|k| k.seconds).sum();
    for row in profile.iter().take(5) {
        println!(
            "  {:16} {:6.1}%  parallelism {:>3}",
            row.name,
            row.seconds / total * 100.0,
            row.parallelism
        );
    }
    println!(
        "\nsync events per step: {} across {} workers",
        workers.sync_event_count() / 60,
        workers.processors()
    );
}
