//! Zone-scheduled steps run on the pool's worker team, counted from
//! outside through `/proc/self/task`: no step spawns a thread of its
//! own, whatever the shard count. One test function on purpose: a test
//! binary runs its tests on parallel threads, and a second test
//! spawning threads of its own would move the count under this one's
//! feet.

use llp::Workers;
use std::sync::atomic::{AtomicUsize, Ordering};
use zones::run_sharded;

/// Threads of this process, or `None` where `/proc` is not mounted.
fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(Iterator::count)
}

#[test]
fn zone_steps_spawn_no_thread_beyond_the_team() {
    let Some(before) = threads() else { return };
    let pool = Workers::new(4);
    let peak = AtomicUsize::new(0);
    for shards in [2, 4] {
        let mut blocks = vec![0u64; 4];
        for step in 0..50 {
            run_sharded(
                &pool,
                shards,
                step,
                &mut blocks,
                |_, loops, z| {
                    // A loop region as wide as the pool, so the zone
                    // asks for every helper it can get.
                    loops.region(|scope| {
                        for _ in 0..4 {
                            scope.spawn(|| {});
                        }
                    });
                    peak.fetch_max(threads().unwrap_or(0), Ordering::Relaxed);
                    *z += 1;
                },
                |_, _, _| {},
            );
        }
        assert_eq!(blocks, vec![50; 4], "shards={shards}");
        // The caller plus the team's three helpers, never a thread per
        // shard on top.
        let peak = peak.load(Ordering::Relaxed);
        assert!(peak > before, "shards={shards}: the team was used");
        assert!(
            peak <= before + 3,
            "shards={shards}: {peak} threads, {before} before"
        );
    }
}
