//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the end-to-end
//! metric each is predicted to move. `BENCHMARK.json` at the repository
//! root is this table printed by the `spec` subcommand; a unit test
//! holds the two equal.

use llp::obs::json::Json;

/// Seconds one run measures (`--seconds` when the driver runs it).
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const F3D_ABOVE_BOUND: &str = "f3d_above_bound";
pub const FDTD_SYNC_BOUND: &str = "fdtd_sync_bound";
pub const FDTD_SYNC_DYNAMIC: &str = "fdtd_sync_dynamic";
pub const SERVE_HOT: &str = "serve_hot";
pub const SERVE_COLD: &str = "serve_cold";

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: F3D_ABOVE_BOUND,
        why:
            "64x40x32 two-zone F3D steps: ~7 ms of work per region, sync share ~1% (Table 1's 100*S), so kernels \
              are ~99% of a step; kernel/SLP/cache tuning must show here and pool changes must not",
    },
    Workload {
        name: FDTD_SYNC_BOUND,
        why: "served-maximum FDTD (128^2, 64 steps), static schedule: ~15 us of work per region \
              against a larger sync cost, so llp::pool is most of a step; pool changes show here",
    },
    Workload {
        name: FDTD_SYNC_DYNAMIC,
        why:
            "the same FDTD steps under Policy::Dynamic{chunk:4}: the claim path of the same layer, \
              so a static-only win that taxes self-scheduling shows",
    },
    Workload {
        name: SERVE_HOT,
        why:
            "closed-loop clients over a 32-body working set resident in the solve cache: no solver \
              work, only http parse/render, body parse, cache key+get and the event loop",
    },
    Workload {
        name: SERVE_COLD,
        why:
            "same server, every solve executes (bypass or one of 189 rotating keys, reuse distance \
              beyond the 128-entry cache): admission, executor, run driver, cache miss+insert+evict",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// End-to-end: the definition. Per-layer: the definition, then the
    /// end-to-end metric and workload it is predicted to move.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        what,
    }
}

use Better::{Higher, Lower};

/// Every workload reports every one of these: an *operation* is one
/// time step at P workers (solver workloads) or one request from one of
/// P closed-loop clients (serve workloads).
///
/// Three, not the ten the issue drew up. The contract wants every
/// end-to-end metric on every workload with a bound of at most 0.25 that
/// ten runs of one commit stay within, and on this shared 2-vCPU host
/// only these three do: the one-thread baseline, throughput and the tail
/// spread by 0.33, 0.45 and 0.25 in one hour or another and are
/// per-layer metrics instead (see README.md).
pub const END_TO_END: &[Metric] = &[
    e2e("op_us_p50", "us", Lower, 0.25,
        "median wall time of one operation: a time step at P workers, or a request send -> last byte with P clients"),
    e2e("rss_peak_mb", "MiB", Lower, 0.25,
        "VmHWM of the benchmark process when the first of a run's five episodes ends: one instance set up, run and torn down"),
    e2e("setup_s", "s", Lower, 0.25,
        "one set-up (allocation, reference solves and golden check, server boot, cache warm-up): the fastest of those spread over the run's five episodes"),
];

pub const PER_LAYER: &[Metric] = &[
    // -- the traced pass of the workload that was asked for
    layer("trace_overhead_share", "ratio", Lower,
        "traced / untraced op_us_p50 - 1, blocks interleaved in one process; the cost of the spans plus Workers::recorded and the flight recorder"),
    layer("trace.spans", "count", Lower, "spans the traced pass recorded (results/<workload>.trace.json keeps the first 40000)"),
    layer("trace.ops_per_s", "1/s", Higher,
        "correct untraced operations / wall time of the Main blocks of the traced pass; a mean, so at the mercy of the stalls a busy host adds (spread 0.45), hence not end to end"),
    layer("trace.op_us_p90", "us", Lower,
        "90th percentile of the untraced operations of the traced pass; the tail is not an end-to-end metric because on a shared host it measures the neighbours (spread 0.25 over ten runs)"),
    // -- llp -> fdtd_sync_bound, fdtd_sync_dynamic
    layer("llp.pool.region_ns.p1", "ns", Lower,
        "empty doacross on Workers::new(1); moves the 1-worker step (fdtd.step.speedup_vs_1)"),
    layer("llp.pool.region_ns.pN", "ns", Lower,
        "empty doacross(&w, P, |_| {}) at P workers: Table 1's S; moves op_us_p50 on fdtd_sync_* by sync_events*dS per step and on serve_cold by ~56 regions per solve; not f3d_above_bound (<1%) or serve_hot (no regions)"),
    layer("llp.pool.table1_bound_us", "us", Lower, "100*P*S, the paper's minimum work per region; derived from region_ns.pN"),
    layer("llp.doacross.iter_ns.static", "ns", Lower,
        "per iteration of a 4096-iteration trivial doacross, static; moves op_us_p50 on fdtd_sync_bound"),
    layer("llp.doacross.iter_ns.dynamic", "ns", Lower,
        "same under Dynamic{chunk:4}; moves op_us_p50 on fdtd_sync_dynamic only"),
    layer("llp.doacross.iter_ns.guided", "ns", Lower, "same under Guided{min_chunk:4}; no workload runs guided, so no end-to-end move"),
    layer("llp.schedule.claim_ns", "ns", Lower, "one uncontended ChunkClaimer::claim; moves op_us_p50 on fdtd_sync_dynamic only"),
    layer("llp.obs.recorded_region_ns.pN", "ns", Lower,
        "the empty region with Workers::recorded and the flight recorder on; moves trace_overhead_share and op_us_p50 on serve_cold (executor shards record)"),
    // -- fdtd -> fdtd_sync_bound, fdtd_sync_dynamic
    layer("fdtd.update_h.ns_per_point.w1", "ns", Lower, "fdtd::kernels::update_h, serial, 128^2, width 1; moves the 1-worker step fully, op_us_p50 by the compute share, on fdtd_sync_*"),
    layer("fdtd.update_h.ns_per_point.w4", "ns", Lower, "same at SLP width 4; no workload runs width 4 (the SLP axis)"),
    layer("fdtd.update_h.ns_per_point.n1024", "ns", Lower, "width 1 at 1024^2 (24 MiB of fields, out of L2); no served case is this large"),
    layer("fdtd.update_e.ns_per_point.w1", "ns", Lower, "fdtd::kernels::update_e, serial, 128^2, width 1; moves as update_h.w1"),
    layer("fdtd.update_e.ns_per_point.w4", "ns", Lower, "same at SLP width 4"),
    layer("fdtd.update_e.ns_per_point.n1024", "ns", Lower, "width 1 at 1024^2"),
    layer("fdtd.energy.ns_per_point", "ns", Lower, "the serial TezGrid::energy reduction every step pays; moves op_us_p50 on fdtd_sync_*"),
    layer("fdtd.step.sync_events", "count", Lower, "parallel regions per step (exact)"),
    layer("fdtd.step.speedup_vs_1", "ratio", Higher, "1-worker / P-worker median step; below 1 is the sync-bound regime"),
    layer("fdtd.step.sync_share", "ratio", Lower, "sync_events * region_ns.pN / P-worker median step; above 0.2 is the regime"),
    layer("fdtd.step_us_p95", "us", Lower, "95th percentile P-worker static step"),
    layer("fdtd.reconcile.residual_share", "ratio", Lower,
        "1 - (sum of chunk-max compute + serial kernels + energy + sync_events*S) / measured step: what the layers do not explain"),
    // -- f3d -> f3d_above_bound (and serve_cold by f3d's share)
    layer("f3d.kernel.rhs.ns_per_point", "ns", Lower, "wall time of the kernel per grid point per step at P workers, from Workers::recorded; moves op_us_p50 on f3d_above_bound"),
    layer("f3d.kernel.j_factor.ns_per_point", "ns", Lower, "as rhs"),
    layer("f3d.kernel.k_factor.ns_per_point", "ns", Lower, "as rhs"),
    layer("f3d.kernel.l_factor_scatter.ns_per_point", "ns", Lower, "as rhs"),
    layer("f3d.kernel.l_factor_solve.ns_per_point", "ns", Lower, "as rhs"),
    layer("f3d.kernel.update.ns_per_point", "ns", Lower, "as rhs"),
    layer("f3d.kernel.bc.ns_per_point", "ns", Lower, "serial boundary conditions; moves op_us_p50 on f3d_above_bound by the Amdahl term"),
    layer("f3d.step.serial_share", "ratio", Lower, "(bc + inject) / sum of kernel seconds: the Amdahl term"),
    layer("f3d.step.sync_events", "count", Lower, "parallel regions per step (exact)"),
    layer("f3d.step.speedup_vs_1", "ratio", Higher, "1-worker / P-worker median step"),
    layer("f3d.step.sync_share", "ratio", Lower, "sync_events * region_ns.pN / P-worker median step; below 0.02 is the above-bound regime"),
    layer("f3d.step.imbalance_max", "ratio", Lower, "largest chunk max/mean over the kernels of the recorded steps"),
    layer("f3d.reconcile.residual_share", "ratio", Lower, "1 - (sum of chunk-max compute + serial kernels + sync_events*S) / measured step"),
    layer("f3d.bytes_per_point_computed", "B/point", Lower, "state bytes a step moves per point, computed from array sizes (not measured; no roofline ratio on this host)"),
    layer("f3d.blocktri.solve_ns_per_point.w1", "ns", Lower, "solve_block_tridiagonal_w, n=64; moves op_us_p50 on f3d_above_bound through the factor kernels"),
    layer("f3d.blocktri.solve_ns_per_point.w4", "ns", Lower, "same at SLP width 4"),
    layer("f3d.flux.steger_warming_ns", "ns", Lower, "one flux::steger_warming call; moves the rhs and j_factor kernels"),
    layer("f3d.flux.jacobian_ns", "ns", Lower, "one flux::flux_jacobian call; moves the factor kernels"),
    layer("f3d.rhs_pencil.ns_per_point.w1", "ns", Lower, "rhs_upwind_pencil_w, n=64; moves f3d.kernel.rhs"),
    layer("f3d.rhs_pencil.ns_per_point.w4", "ns", Lower, "same at SLP width 4"),
    layer("f3d.implicit_pencil.ns_per_point.w1", "ns", Lower, "implicit_upwind_pencil_w, n=64; moves f3d.kernel.j_factor"),
    // -- serve read path -> serve_hot
    layer("serve.http.parse_ns", "ns", Lower, "http::parse_request_bytes of a solve POST; moves op_us_p50 on serve_hot; <1% of a cold request"),
    layer("serve.api.parse_solve_ns", "ns", Lower, "api::parse_solve_body; as parse_ns"),
    layer("serve.cache.key_ns", "ns", Lower, "ContentKey::for_case + digest; as parse_ns"),
    layer("serve.cache.get_hit_ns", "ns", Lower, "SolveCache::get of a resident key in a full 128-entry cache; as parse_ns"),
    layer("serve.http.render_ns", "ns", Lower, "http::render_response of a 10 kB body; as parse_ns"),
    layer("serve.server.hit_rtt_us", "us", Lower, "one client, loopback, a cached solve; the unloaded round trip of serve_hot's commonest request"),
    layer("serve.server.inline_rtt_us", "us", Lower, "one client, GET /v1/model/stairstep, answered on the event loop"),
    layer("serve.metrics.scrape_us", "us", Lower, "one client, GET /metrics (Prometheus text)"),
    layer("serve.cache.hit_share.hot", "ratio", Higher, "cache hits / solve requests over a serve_hot stream, from /metrics?format=json deltas; above 0.99 is the regime"),
    layer("serve.evloop.residual_us", "us", Lower, "hit_rtt_us minus parse + body parse + key + get + render: sockets and the event loop's share"),
    layer("serve.reconcile.residual_share", "ratio", Lower, "evloop.residual_us / hit_rtt_us"),
    // -- serve execute path, solver, zones -> serve_cold
    layer("serve.cache.get_miss_ns", "ns", Lower, "SolveCache::get of an absent key; moves op_us_p50 on serve_cold (<1%)"),
    layer("serve.cache.insert_evict_ns", "ns", Lower, "SolveCache::insert at capacity (LRU scan + evict); moves op_us_p50 on serve_cold"),
    layer("serve.api.render_solve_us", "us", Lower, "api::solve_response + to_string of a fresh f3d run; moves op_us_p50 on serve_cold"),
    layer("solver.run_overhead_us.f3d", "us", Lower, "what run_instrumented adds around its step loop (create_instance + finish), f3d zones 2 steps 4; moves op_us_p50 on serve_cold"),
    layer("solver.run_overhead_us.fdtd", "us", Lower, "same, fdtd 128^2 32 steps"),
    layer("zones.sequential_step_us", "us", Lower, "f3d::service::run, zones 4, ZoneSchedule::Sequential, per step; no workload requests zone shards, so no end-to-end move"),
    layer("zones.sharded_step_us", "us", Lower, "same under ZoneSchedule::Zones(2)"),
    layer("serve.server.cold_rtt_c1_ms", "ms", Lower, "one client over a serve_cold stream; op_us_p50 - this = queue wait behind the single executor shard"),
    layer("serve.server.cold_overhead_us", "us", Lower, "loopback bypass RTT - direct f3d::service::run of the same case on an equal-width pool"),
    layer("serve.cache.hit_share.cold", "ratio", Lower, "cache hits / solve requests over a serve_cold stream; exactly 0 is the regime"),
    layer("serve.server.solves_executed_share", "ratio", Higher, "jobs executed / solve requests over the cold stream; 1 when nothing is cached or coalesced"),
    layer("serve.server.sync_events_per_solve", "count", Lower, "pool sync events / solves executed over the cold stream"),
    layer("serve.server.coalesced", "count", Lower, "solves that joined an identical in-flight solve over the cold stream; 0 by construction"),
    layer("serve.server.rejected", "count", Lower, "429 replies over the cold stream; 0 in a closed loop within the queue capacity"),
];

fn describe(m: &Metric, with_bound: bool) -> Json {
    let mut pairs = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better.as_str())),
    ];
    if with_bound {
        pairs.push(("bound", Json::Num(m.bound)));
    }
    Json::object(pairs)
}

/// The document `BENCHMARK.json` holds.
pub fn benchmark_json() -> Json {
    let strings = |v: &[&str]| Json::Array(v.iter().map(|s| Json::str(s)).collect());
    Json::object(vec![
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::from_u64(RUN_SECONDS)),
        (
            "workloads",
            Json::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::object(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Array(END_TO_END.iter().map(|m| describe(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Array(PER_LAYER.iter().map(|m| describe(m, false)).collect()),
        ),
    ])
}

/// The metric glossary of README.md, as markdown.
pub fn glossary() -> String {
    let mut text = String::from(
        "| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        text += &format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        );
    }
    text += "\n| per-layer metric | unit | better | definition; what it should move |\n|---|---|---|---|\n";
    for m in PER_LAYER {
        text += &format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
    text
}

pub fn find<'a>(table: &'a [Metric], name: &str) -> Option<&'a Metric> {
    table.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(is_name(name, 64, "_.-"), "bad name {name:?}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                is_name(m.unit, 16, "_/%.-"),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
        }
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = find(END_TO_END, "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        // 4 + 22 runs per workload, two builds, all within 3420 s.
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(runs * (RUN_SECONDS + 5) + 2 * 120 <= 3420);
    }

    #[test]
    fn readme_carries_the_current_glossary() {
        assert!(
            include_str!("../README.md").contains(&glossary()),
            "README.md's glossary is stale: paste the output of the `glossary` subcommand"
        );
    }

    #[test]
    fn benchmark_json_is_this_table_and_nothing_else() {
        let committed = include_str!("../../BENCHMARK.json");
        assert!(committed.len() <= 64 * 1024);
        let committed = Json::parse(committed).expect("BENCHMARK.json parses");
        // Equality of the parsed documents is "every emitted name
        // appears in BENCHMARK.json, and vice versa", plus units,
        // directions and bounds.
        assert_eq!(committed, benchmark_json());
    }
}
