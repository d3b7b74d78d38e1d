//! Ablation: **static vs dynamic vs guided scheduling** for the
//! doacross regions.
//!
//! The paper's vendor directives schedule statically, which produces
//! the stair-step curve the whole analysis is built on. This ablation
//! quantifies what the alternatives would have changed: for *uniform*
//! iterations (the structured-grid case) dynamic scheduling cannot beat
//! the static makespan and multiplies scheduling events; its value
//! appears only under load imbalance, which these loops do not have.

use crate::{f, TextTable};
use llp::Policy;

pub fn print() {
    println!("Scheduling-policy ablation for uniform grid loops\n");

    for u in [70usize, 75, 350, 450] {
        println!("loop with {u} units of parallelism:");
        let mut t = TextTable::new(&[
            "Procs",
            "static speedup",
            "dynamic(1) speedup",
            "dynamic(8) speedup",
            "guided speedup",
            "static chunks",
            "dynamic(1) chunks",
            "guided chunks",
        ]);
        for p in [16usize, 32, 48, 64, 96, 124] {
            let st = Policy::Static;
            let d1 = Policy::Dynamic { chunk: 1 };
            let d8 = Policy::Dynamic { chunk: 8 };
            let g = Policy::Guided { min_chunk: 1 };
            t.row(vec![
                p.to_string(),
                f(st.ideal_speedup(u, p), 2),
                f(d1.ideal_speedup(u, p), 2),
                f(d8.ideal_speedup(u, p), 2),
                f(g.ideal_speedup(u, p), 2),
                st.scheduling_events(u, p).to_string(),
                d1.scheduling_events(u, p).to_string(),
                g.scheduling_events(u, p).to_string(),
            ]);
        }
        println!("{}", t.render());
    }

    println!(
        "Reading: with uniform iterations, dynamic(1) ties static on makespan while\n\
         costing U scheduling events per region instead of P; coarse dynamic chunks\n\
         can be strictly worse than static (e.g. U=70, chunk=8). The paper's static\n\
         assumption is the right default for this class of codes — the stair step is\n\
         a property of the loop extents, not of the scheduler."
    );
}
