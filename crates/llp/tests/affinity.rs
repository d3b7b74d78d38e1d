//! Affinity witness: does chunk `k` of a static region run on the same
//! thread as chunk `k` of the region before it?
//!
//! Nothing in `team.rs` promises it — `Job::drain` hands task indices
//! to whichever worker asks first — so this test *asserts* only that
//! every slab is visited exactly once, and *prints* the measured share
//! (`cargo test -p llp --test affinity -- --nocapture`). The number is
//! the evidence for or against a lane-preferred drain (ROADMAP 5(d));
//! EXPERIMENTS.md "Owner-computes energy" records what this host read.
//!
//! A region whose caller ran every chunk itself also "keeps" each
//! chunk's thread, so the share alone cannot tell a team that splits
//! its regions from one whose helper never takes part. The test
//! therefore also prints the share of regions whose chunks ran on two
//! or more threads.

use llp::{chunk_bounds, doacross_slabs, Workers};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{self, ThreadId};

const REGIONS: usize = 1_000;
/// The served-maximum FDTD sweep's shape: 128 rows of 128 points.
const ROWS: usize = 128;
const ROW_LEN: usize = 128;

/// Run the regions at width `p`; the per-chunk share of regions that
/// kept the previous region's thread, and the share of regions whose
/// chunks ran on two or more threads.
fn same_thread_share(p: usize) -> (Vec<f64>, f64) {
    let workers = Workers::new(p);
    let chunks = chunk_bounds(ROWS, p);
    let mut data = vec![1.0f64; ROWS * ROW_LEN];
    let visits: Vec<AtomicUsize> = (0..ROWS).map(|_| AtomicUsize::new(0)).collect();
    let ran_on: Vec<Mutex<Option<ThreadId>>> = chunks.iter().map(|_| Mutex::new(None)).collect();
    let mut previous: Vec<Option<ThreadId>> = vec![None; chunks.len()];
    let mut kept = vec![0usize; chunks.len()];
    let mut split = 0usize;
    for region in 0..REGIONS {
        doacross_slabs(&workers, &mut data, ROW_LEN, |row, slab| {
            visits[row].fetch_add(1, Ordering::Relaxed);
            if let Some(k) = chunks.iter().position(|c| c.start == row) {
                *ran_on[k].lock().unwrap() = Some(thread::current().id());
            }
            for v in slab.iter_mut() {
                *v = *v * 0.999 + 0.001;
            }
        });
        for (k, slot) in ran_on.iter().enumerate() {
            let now = slot.lock().unwrap().take();
            assert!(now.is_some(), "chunk {k} did not run in region {region}");
            kept[k] += usize::from(region > 0 && now == previous[k]);
            previous[k] = now;
        }
        split += usize::from(previous.iter().any(|t| *t != previous[0]));
    }
    assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == REGIONS));
    assert_eq!(workers.sync_event_count(), REGIONS as u64);
    let kept = kept
        .into_iter()
        .map(|k| k as f64 / (REGIONS - 1) as f64)
        .collect();
    (kept, split as f64 / REGIONS as f64)
}

#[test]
fn static_chunks_mostly_stay_on_their_thread() {
    let cpus = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for p in [2usize, 4] {
        if p == 4 && cpus < 4 {
            println!("affinity witness: P = 4 skipped ({cpus} CPUs)");
            continue;
        }
        let (kept, split) = same_thread_share(p);
        let shares: Vec<String> = kept
            .iter()
            .map(|share| format!("{:.1} %", share * 100.0))
            .collect();
        println!(
            "affinity witness: P = {p} on {cpus} CPUs, {REGIONS} static regions: chunk k kept \
             the previous region's thread in [{}] of regions; the chunks ran on two or more \
             threads in {:.1} % of regions",
            shares.join(", "),
            split * 100.0
        );
    }
}
