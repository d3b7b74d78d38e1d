//! The worker team's thread lifecycle, counted from outside through
//! `/proc/self/task`. One test function on purpose: a test binary runs
//! its tests on parallel threads, and a second test spawning helpers of
//! its own would move the count under this one's feet.

use llp::Workers;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Threads of this process, or `None` where `/proc` is not mounted.
fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(Iterator::count)
}

/// Threads of this process once they are down to `want`, waiting up to
/// a second: a joined thread's `join` returns when the kernel clears its
/// thread id, a moment before the thread leaves `/proc/self/task`.
fn threads_after_join(want: usize) -> Option<usize> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    loop {
        let now = threads();
        if now == Some(want) || std::time::Instant::now() >= deadline {
            return now;
        }
        std::thread::yield_now();
    }
}

#[test]
fn helpers_are_spawned_once_and_joined_with_the_last_handle() {
    let Some(before) = threads() else { return };

    // One-worker teams, and one-worker views of wide pools, run every
    // region on the calling thread: no helper is ever spawned.
    let ran = AtomicUsize::new(0);
    let queue_four = |w: &Workers| {
        w.region(4, |_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
    };
    let serial = Workers::new(1);
    let wide = Workers::new(8);
    queue_four(&serial);
    queue_four(&wide.sized_view(1));
    queue_four(&wide.sized_view(4).sized_view(1));
    assert_eq!(ran.load(Ordering::Relaxed), 12);
    assert_eq!(threads(), Some(before));
    // Helpers are spawned on first use, one per task beyond the
    // caller's own...
    wide.region(2, |_, _| {});
    assert_eq!(threads(), Some(before + 1));
    drop((serial, wide));
    assert_eq!(threads_after_join(before), Some(before));

    // ...and never again: a thousand regions later the team is still
    // its three helpers, whichever view ran them.
    let pool = Workers::new(4);
    let view = pool.sized_view(4);
    let narrow = pool.sized_view(2);
    queue_four(&pool);
    assert_eq!(threads(), Some(before + 3));
    for _ in 0..1000 {
        queue_four(&view);
        queue_four(&narrow);
    }
    assert_eq!(threads(), Some(before + 3));

    // Dropping the pool while views live keeps the team; dropping the
    // last handle joins every helper before `drop` returns.
    drop(pool);
    queue_four(&view);
    assert_eq!(ran.load(Ordering::Relaxed), 12 + 4 * 2002);
    drop(view);
    assert_eq!(threads(), Some(before + 3));
    drop(narrow);
    assert_eq!(threads_after_join(before), Some(before));

    // Zone steps run on the team too: whatever the shard count, the
    // caller plus the team's three helpers, never a thread per shard
    // on top.
    let pool = Workers::new(4);
    let peak = AtomicUsize::new(0);
    for shards in [2, 4] {
        let mut blocks = vec![0u64; 4];
        for step in 0..50 {
            llp::zones::run_sharded(&pool, shards, step, &mut blocks, |_, loops, z| {
                // A loop region as wide as the pool, so the zone asks
                // for every helper it can get.
                loops.region(4, |_, _| {});
                peak.fetch_max(threads().unwrap_or(0), Ordering::Relaxed);
                *z += 1;
            });
        }
        assert_eq!(blocks, vec![50; 4], "shards={shards}");
        let peak = peak.load(Ordering::Relaxed);
        assert!(peak > before, "shards={shards}: the team was used");
        assert!(
            peak <= before + 3,
            "shards={shards}: {peak} threads, {before} before"
        );
    }
}
