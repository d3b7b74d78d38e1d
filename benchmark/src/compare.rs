//! `compare A.json B.json`: hold two result files of `run` against the
//! bounds the benchmark fixed, workload by workload, metric by metric.

use crate::metrics::{Better, Metric, END_TO_END};
use crate::stats;
use llp::obs::json::Json;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs of one side spread wider than the bound, so a median
    /// within the bound proves nothing.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against its base `a` (per-run values of one metric on one
/// workload).
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let (median_a, median_b) = (stats::median_of(a), stats::median_of(b));
    // Positive = worse, as a share of the base.
    let worsening = match metric.better {
        Better::Lower => median_b / median_a - 1.0,
        Better::Higher => median_a / median_b - 1.0,
    };
    if !worsening.is_finite() || worsening > metric.bound {
        return Verdict::Worse;
    }
    if stats::spread(a).max(stats::spread(b)) > metric.bound {
        let every_run_better = match metric.better {
            Better::Lower => b.iter().all(|vb| a.iter().all(|va| vb < va)),
            Better::Higher => b.iter().all(|vb| a.iter().all(|va| vb > va)),
        };
        return if every_run_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worsening < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn runs_of<'a>(doc: &'a Json, workload: &str) -> &'a [Json] {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_array)
        .unwrap_or_default()
}

fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

/// Failed operations as a share of those attempted, over all runs.
fn fail_share(runs: &[Json]) -> f64 {
    let total = |key: &str| -> f64 { runs.iter().filter_map(|r| r.get(key)?.as_f64()).sum() };
    total("failed") / total("attempted").max(1.0)
}

/// Print the comparison; `Ok(false)` when anything is worse.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{path_a}: no `workloads`"))?
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    println!("base A = {path_a}\nside B = {path_b}\nratio = B / A (base A)");
    let mut acceptable = true;
    for workload in workloads {
        let (runs_a, runs_b) = (runs_of(&a, workload), runs_of(&b, workload));
        if runs_b.is_empty() {
            println!("{workload}: not in {path_b}");
            acceptable = false;
            continue;
        }
        println!(
            "{workload} ({} run(s) in A, {} in B)",
            runs_a.len(),
            runs_b.len()
        );
        for metric in END_TO_END {
            let (va, vb) = (values(runs_a, metric.name), values(runs_b, metric.name));
            let verdict = judge(metric, &va, &vb);
            acceptable &= verdict != Verdict::Worse;
            let (ma, mb) = (stats::median_of(&va), stats::median_of(&vb));
            println!(
                "  {:<16} A {ma:>14.4}  B {mb:>14.4} {:<6} ratio {:>7.4}  {} is better, bound {:<5} {}",
                metric.name,
                metric.unit,
                mb / ma,
                metric.better.as_str(),
                metric.bound,
                verdict.as_str()
            );
        }
        let (fa, fb) = (fail_share(runs_a), fail_share(runs_b));
        let verdict = if fb > fa { "worse" } else { "same" };
        acceptable &= fb <= fa;
        println!(
            "  {:<16} A {fa:>14.6}  B {fb:>14.6}        failed / attempted: {verdict}",
            "fail_share"
        );
    }
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> Metric {
        Metric {
            name: "m",
            unit: "us",
            better,
            bound: 0.1,
            what: "",
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = &metric(Better::Lower);
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(judge(lower, &steady, &steady), Verdict::Same);
        assert_eq!(
            judge(lower, &steady, &steady.map(|v| v * 1.05)),
            Verdict::Same
        );
        assert_eq!(
            judge(lower, &steady, &steady.map(|v| v * 1.2)),
            Verdict::Worse
        );
        assert_eq!(
            judge(lower, &steady, &steady.map(|v| v * 0.8)),
            Verdict::Better
        );
        // A spread wider than the bound leaves a median within it unresolved…
        let noisy = [80.0, 120.0, 100.0, 90.0, 115.0];
        assert_eq!(judge(lower, &noisy, &steady), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        assert_eq!(
            judge(lower, &noisy, &steady.map(|v| v * 0.75)),
            Verdict::Better
        );
        // …and a worse median stays worse whatever the spread.
        assert_eq!(
            judge(lower, &noisy, &noisy.map(|v| v * 1.3)),
            Verdict::Worse
        );

        let higher = &metric(Better::Higher);
        assert_eq!(
            judge(higher, &steady, &steady.map(|v| v * 0.8)),
            Verdict::Worse
        );
        assert_eq!(
            judge(higher, &steady, &steady.map(|v| v * 1.3)),
            Verdict::Better
        );
        // A single run has no spread to see.
        assert_eq!(judge(lower, &[100.0], &[104.0]), Verdict::Same);
    }
}
