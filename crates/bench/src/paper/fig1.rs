//! Regenerates **Figure 1**: predicted stair-step speedup curves for
//! loops with 5, 15, 25, 35 and 45 units of parallelism on up to 50
//! processors.

use crate::{ascii_chart, Series};
use perfmodel::stairstep::{speedup_curve, FIG1_MAX_PROCESSORS, FIG1_UNIT_COUNTS};

pub fn print() {
    println!("Figure 1. Predicted speedup for loops with various levels of parallelism\n");
    let symbols = ['.', '*', 'o', '#', '@'];
    let series: Vec<Series> = FIG1_UNIT_COUNTS
        .iter()
        .zip(symbols)
        .map(|(&u, sym)| {
            let pts = speedup_curve(u64::from(u), FIG1_MAX_PROCESSORS)
                .into_iter()
                .enumerate()
                .map(|(i, s)| ((i + 1) as f64, s))
                .collect();
            (format!("{u} units of parallelism"), sym, pts)
        })
        .collect();
    println!("{}", ascii_chart(&series, 100, 24));

    // Numeric form for each curve: the plateau edges.
    for &u in &FIG1_UNIT_COUNTS {
        let edges = perfmodel::plateau_edges(u64::from(u), FIG1_MAX_PROCESSORS);
        println!("U={u:>2}: speedup jumps at P = {edges:?}");
    }
}
