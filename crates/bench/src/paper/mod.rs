//! The paper's tables and figures, plus the ablations and related-work
//! comparisons, each a function that prints one artifact of
//! `paper_output/`. [`TABLES`] lists them once; the `paper` binary,
//! `regenerate_paper.sh` and the golden test all walk it.

mod ablation_fusion;
mod ablation_mlp;
mod ablation_scheduling;
mod amdahl_bc;
mod example4;
mod fig1;
mod perfex;
mod related_work;
mod scaling;
mod serial_tuning;
mod table1;
mod table2;
mod table3;
mod table4;
mod table5;
mod traffic;

/// Every artifact by name, in the order `regenerate_paper.sh` writes
/// them: `paper_output/NAME.txt` is what `print` writes to stdout.
pub const TABLES: [(&str, fn()); 17] = [
    ("table1", table1::print),
    ("table2", table2::print),
    ("table3", table3::print),
    ("table4", table4::print),
    ("table5", table5::print),
    ("fig1", fig1::print),
    ("fig2", scaling::fig2),
    ("fig3", scaling::fig3),
    ("serial_tuning", serial_tuning::print),
    ("example4", example4::print),
    ("traffic", traffic::print),
    ("amdahl_bc", amdahl_bc::print),
    ("ablation_mlp", ablation_mlp::print),
    ("ablation_fusion", ablation_fusion::print),
    ("ablation_scheduling", ablation_scheduling::print),
    ("related_work", related_work::print),
    ("perfex", perfex::print),
];
