//! Content-addressed solve-result cache and in-flight coalescing table.
//!
//! The paper's solves are deterministic: identical cases produce
//! bit-identical residuals, forces, and checksums regardless of worker
//! count or schedule (each solver's service tests pin this). That makes result
//! reuse sound by construction — the serve layer should never
//! re-execute work whose result it has already proven out.
//!
//! Two structures implement the reuse:
//!
//! * [`ContentKey`] — a stable canonicalization of a solve request.
//!   The key is built from the *parsed* [`AnyCase`], not the raw
//!   body bytes, so JSON key order and whitespace cannot split the
//!   cache; it prefixes the solver kind so equal field spellings of
//!   different physics can never alias; it embeds the tune-database
//!   generation for `auto` solves so a recalibration invalidates tuned
//!   entries without flushing anything else, and carries an FNV-1a
//!   checksum of the canonical form for compact external reporting.
//!   Lookup and storage use the full canonical string, so hash
//!   collisions cannot alias results.
//! * [`SolveCache`] — a bounded LRU mapping canonical keys to
//!   pre-rendered response bodies (`Arc<String>`: a hit is a clone and
//!   a socket write, no recomputation and no JSON re-serialization).
//!
//! Coalescing identical solves that are queued or executing is the job
//! queue's (`jobs.rs`); this module owns only the pure data structures,
//! which keeps them directly testable.

use crate::lock;
use crate::solvers::AnyCase;
use std::collections::HashMap;
use std::sync::Mutex;

/// Default [`SolveCache`] capacity (entries).
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// Canonical identity of a solve request for caching and coalescing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ContentKey {
    canonical: String,
    hash: u64,
}

impl ContentKey {
    /// Build the key for a validated case. The canonical form leads
    /// with the solver kind (`solve/f3d/…`, `solve/fdtd/…`) so two
    /// physics whose field spellings coincide key injectively — an
    /// omitted `"solver"` field parses to the `f3d` default and
    /// therefore shares the explicit spelling's key. `auto`
    /// distinguishes tune-db-overlaid solves, and `tune_generation`
    /// (bumped every time a tune database is replaced) keeps stale
    /// tuned results from outliving a recalibration. Non-auto solves
    /// pass generation 0: their results do not depend on the database.
    #[must_use]
    pub fn for_case(case: &AnyCase, auto: bool, tune_generation: u64) -> Self {
        let generation = if auto { tune_generation } else { 0 };
        let spec = case.spec();
        let canonical = format!(
            "solve/{}/{};auto={};tune_gen={}",
            spec.kind(),
            spec.canonical_string(),
            auto,
            generation
        );
        let hash = solver::fnv1a64(canonical.as_bytes());
        Self { canonical, hash }
    }

    /// The full canonical form (the map key — collision-proof).
    #[must_use]
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// FNV-1a checksum of the canonical form, as a fixed-width hex
    /// digest for logs and golden pins.
    #[must_use]
    pub fn digest(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

struct CacheInner {
    map: HashMap<String, CacheEntry>,
    /// Monotone access clock; the entry with the smallest stamp is the
    /// least recently used. O(n) eviction scan — fine at the bounded
    /// capacities this cache runs with.
    clock: u64,
}

struct CacheEntry {
    body: std::sync::Arc<String>,
    last_used: u64,
}

/// Bounded LRU cache of pre-rendered solve response bodies.
pub struct SolveCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl SolveCache {
    /// A cache holding at most `capacity` entries. Capacity 0 disables
    /// caching entirely: every insert is dropped and every lookup
    /// misses.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                clock: 0,
            }),
            capacity,
        }
    }

    /// Look up a result, refreshing its recency on a hit.
    #[must_use]
    pub fn get(&self, key: &ContentKey) -> Option<std::sync::Arc<String>> {
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner.map.get_mut(key.canonical())?;
        entry.last_used = clock;
        Some(std::sync::Arc::clone(&entry.body))
    }

    /// Insert (or refresh) a result, evicting the least recently used
    /// entry beyond capacity. Returns the number of evictions (0 or 1).
    pub fn insert(&self, key: &ContentKey, body: std::sync::Arc<String>) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        let fresh = !inner.map.contains_key(key.canonical());
        let mut evicted = 0;
        if fresh && inner.map.len() >= self.capacity {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
                evicted = 1;
            }
        }
        inner.map.insert(
            key.canonical().to_string(),
            CacheEntry {
                body,
                last_used: clock,
            },
        );
        evicted
    }

    /// Number of cached results.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// Whether the cache holds no results.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3d::service::{ServiceCase, ZoneSchedule};
    use llp::Policy;
    use solver::SolverSpec;
    use std::sync::Arc;

    fn case(zones: usize) -> AnyCase {
        AnyCase::F3d(ServiceCase::calibration(zones, 3, 2))
    }

    fn f3d_variant(f: impl FnOnce(&mut ServiceCase)) -> AnyCase {
        let mut c = ServiceCase::calibration(2, 3, 2);
        f(&mut c);
        AnyCase::F3d(c)
    }

    fn key(zones: usize) -> ContentKey {
        ContentKey::for_case(&case(zones), false, 0)
    }

    #[test]
    fn keys_embed_case_auto_and_generation() {
        let base = key(2);
        assert_eq!(
            base.canonical(),
            "solve/f3d/zones=2;steps=3;workers=2;schedule=static;zone_schedule=sequential;vector_width=1;auto=false;tune_gen=0"
        );
        assert_ne!(base, key(3));
        // The width is a semantic field, always spelled in the key: an
        // explicit scalar width and an omitted one build the same case
        // (api parsing) and therefore the same key, while a wide solve
        // keys separately.
        let wide = ContentKey::for_case(&f3d_variant(|c| c.vector_width = 4), false, 0);
        assert_ne!(base, wide);
        assert!(wide.canonical().contains("vector_width=4"));
        // The zone schedule is a semantic field: a zone-parallel solve
        // keys separately from the sequential one (same answer, but the
        // response's zone_level block differs).
        let zoned = ContentKey::for_case(
            &f3d_variant(|c| c.zone_schedule = ZoneSchedule::Zones(2)),
            false,
            0,
        );
        assert_ne!(base, zoned);
        assert!(zoned.canonical().contains("zone_schedule=zones,shards=2"));
        let auto0 = ContentKey::for_case(&case(2), true, 0);
        let auto1 = ContentKey::for_case(&case(2), true, 1);
        assert_ne!(base, auto0, "auto solves key separately");
        assert_ne!(auto0, auto1, "recalibration invalidates tuned entries");
        // Non-auto solves ignore the generation: their results do not
        // depend on the tune database.
        assert_eq!(
            ContentKey::for_case(&case(2), false, 7),
            ContentKey::for_case(&case(2), false, 0)
        );
        assert_eq!(base.digest().len(), 16);
    }

    #[test]
    fn solver_kind_prefixes_the_key() {
        let fdtd = ContentKey::for_case(
            &AnyCase::Fdtd(fdtd::FdtdCase {
                size: 16,
                steps: 3,
                workers: 2,
                schedule: Policy::Static,
                vector_width: 1,
            }),
            false,
            0,
        );
        assert_eq!(
            fdtd.canonical(),
            "solve/fdtd/size=16;steps=3;workers=2;schedule=static;vector_width=1;auto=false;tune_gen=0"
        );
        assert_ne!(fdtd, key(2), "solver kinds namespace the cache");
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let cache = SolveCache::new(2);
        assert!(cache.is_empty());
        assert_eq!(cache.insert(&key(1), Arc::new("a".into())), 0);
        assert_eq!(cache.insert(&key(2), Arc::new("b".into())), 0);
        // Touch key(1) so key(2) is the LRU.
        assert_eq!(cache.get(&key(1)).unwrap().as_str(), "a");
        assert_eq!(cache.insert(&key(3), Arc::new("c".into())), 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(2)).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn reinserting_refreshes_without_evicting() {
        let cache = SolveCache::new(2);
        cache.insert(&key(1), Arc::new("a".into()));
        cache.insert(&key(2), Arc::new("b".into()));
        assert_eq!(
            cache.insert(&key(1), Arc::new("a2".into())),
            0,
            "refresh of a resident key must not evict"
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(1)).unwrap().as_str(), "a2");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = SolveCache::new(0);
        assert_eq!(cache.insert(&key(1), Arc::new("a".into())), 0);
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.is_empty());
    }
}
