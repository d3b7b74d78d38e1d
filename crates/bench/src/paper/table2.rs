//! Regenerates **Table 2**: the available amount of work (in cycles)
//! per synchronization event for a 1-million-grid-point zone, by
//! problem dimensionality and parallelized loop level.

use crate::{grouped, TextTable};
use perfmodel::work_per_sync::{table2, TABLE2_WORK_PER_POINT};

pub fn print() {
    println!("Table 2. Available work (cycles) per synchronization event, 1M-point zone\n");
    let mut t = TextTable::new(&["Problem", "Loop level", "w=10", "w=100", "w=1,000"]);
    for row in table2() {
        t.row(vec![
            row.problem.to_string(),
            row.label.to_string(),
            grouped(row.cycles[0]),
            grouped(row.cycles[1]),
            grouped(row.cycles[2]),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Work per grid point: {TABLE2_WORK_PER_POINT:?} cycles. Outer-loop rows carry the \
         whole zone per sync; boundary-condition rows carry only a face — the paper's \
         argument for parallelizing outer loops and leaving BCs serial."
    );
}
