//! Regenerates **Table 3**: predicted speedup for a loop with 15 units
//! of parallelism under static scheduling (the stair-step law).

use crate::{f, TextTable};
use perfmodel::stairstep::table3;

pub fn print() {
    println!("Table 3. Predicted speedup for a loop with 15 units of parallelism\n");
    let mut t = TextTable::new(&[
        "Processors",
        "Max units on one processor",
        "Predicted speedup",
    ]);
    let rows = table3();
    // The paper prints plateau-representative rows; print all 15 and
    // mark the plateau edges.
    let mut last_units = 0;
    for (p, units, speedup) in rows {
        let marker = if units != last_units { " <- jump" } else { "" };
        last_units = units;
        t.row(vec![
            p.to_string(),
            units.to_string(),
            format!("{}{}", f(speedup, 3), marker),
        ]);
    }
    println!("{}", t.render());
    println!("speedup(P) = U / ceil(U / P) with U = 15; matches ARL-TR-2556 Table 3.");
}
