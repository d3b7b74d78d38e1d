//! Regenerates **Table 1**: the minimum amount of work (in cycles) per
//! parallelized loop required for efficient execution (synchronization
//! overhead ≤ 1 % of runtime).

use crate::{grouped, TextTable};
use perfmodel::overhead::{table1, TABLE1_SYNC_COSTS};

pub fn print() {
    println!("Table 1. Minimum work (cycles) per parallelized loop for <=1% sync overhead\n");
    let mut t = TextTable::new(&[
        "Processors",
        "sync=10,000",
        "sync=100,000",
        "sync=1,000,000",
    ]);
    for (p, row) in table1() {
        t.row(vec![
            p.to_string(),
            grouped(row[0]),
            grouped(row[1]),
            grouped(row[2]),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Rule: W >= 100 * P * S  (overhead fraction 1%); sync costs {:?} cycles.",
        TABLE1_SYNC_COSTS
    );
    println!("Paper values (ARL-TR-2556 Table 1) are reproduced exactly.");
}
