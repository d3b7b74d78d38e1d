//! Byte witnesses for `/v1/solve`: whole response bodies and exact 400
//! texts, taken at the commit *before* `serve` stopped naming physics
//! (PR 22) and unedited across it.
//!
//! A body is rendered the way the executor renders it — the run's
//! document through `api::solve_response` / `api::fdtd_solve_response`
//! — with the one non-deterministic part, the span timings, zeroed by
//! `ObsReport::without_timings`. On a mismatch the actual bytes are
//! left under `CARGO_TARGET_TMPDIR` next to the panic message.

use f3d::service::{ServiceCase, ZoneSchedule};
use fdtd::FdtdCase;
use llp::obs::json::Json;
use llp::{Policy, Workers};
use serve::api;

fn assert_golden(name: &str, actual: &str, golden: &str) {
    if actual != golden {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&dump, actual).expect("write the actual bytes");
        panic!("{name} drifted from its golden; actual: {}", dump.display());
    }
}

/// One body per line: sequential zones, then two zone shards.
#[test]
fn f3d_solve_bodies_match_their_golden() {
    let mut actual = String::new();
    for zone_schedule in [ZoneSchedule::Sequential, ZoneSchedule::Zones(2)] {
        let case = ServiceCase {
            zones: 2,
            steps: 2,
            workers: 2,
            schedule: Policy::Dynamic { chunk: 2 },
            zone_schedule,
            vector_width: 4,
        };
        let mut run = f3d::service::run(&case, &Workers::recorded(2)).unwrap();
        run.report = run.report.without_timings();
        let body = api::solve_response(&run, Some(7), Json::Null, "miss");
        actual += &format!("{body}\n");
    }
    let golden = include_str!("golden/solve_f3d.json");
    assert_golden("solve_f3d.json", &actual, golden);
}

#[test]
fn fdtd_solve_body_matches_its_golden() {
    let case = FdtdCase {
        size: 16,
        steps: 3,
        workers: 2,
        schedule: Policy::Static,
        vector_width: 1,
    };
    let mut run = fdtd::service::run(&case, &Workers::recorded(2)).unwrap();
    run.report = run.report.without_timings();
    let body = api::fdtd_solve_response(&run, None, api::tuned_resolution(None), "hit");
    let golden = include_str!("golden/solve_fdtd.json");
    assert_golden("solve_fdtd.json", &format!("{body}\n"), golden);
}

/// The 400 texts a client sees (`golden/solve_rejections.tsv`): an
/// unknown solver, then per solver an unknown field, a foreign field, a
/// mistyped field and an out-of-cap field — and, for two faults in one
/// body, which one is named.
#[test]
fn solve_rejections_keep_their_exact_texts() {
    let table = include_str!("golden/solve_rejections.tsv");
    let rows: Vec<_> = table.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(rows.len(), 51);
    for row in rows {
        let (body, text) = row.split_once('\t').expect("body, tab, text");
        let rejection = api::parse_solve_body(body, 2).unwrap_err();
        assert_eq!(rejection, text, "body {body}");
    }
}
