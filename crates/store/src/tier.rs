//! The in-memory artifact cache, now the top of the store tier stack.
//!
//! Moved here from `cachedse-serve` (which re-exports it): the map is
//! held only long enough to find or insert a *slot*; the expensive build
//! happens under the slot's own lock, so two jobs racing on the same new
//! trace serialize (exactly one build, the loser gets a hit), while jobs
//! on distinct traces build in parallel.
//!
//! With a backing [`ArtifactStore`] attached the cache becomes
//! write-through: a memory miss first consults the store (a
//! [`Found::Warm`] load — codec + validation, no analysis), and every
//! fresh build is persisted before the caller sees it, so a killed and
//! restarted node answers its first repeat-trace job without rebuilding.
//! A corrupt or invalid store entry is counted, dropped by the store
//! tier, rebuilt locally, and re-persisted — corruption costs one
//! rebuild, never an error surfaced to the job.

use std::collections::HashMap;
use std::sync::Arc;

use cachedse_sync::atomic::{AtomicU64, Ordering};
use cachedse_sync::Mutex;
use cachedse_trace::digest::TraceDigest;

use crate::{ArtifactKey, ArtifactStore, Found, TraceArtifacts};

#[derive(Default)]
struct Slot {
    artifacts: Mutex<Option<Arc<TraceArtifacts>>>,
}

/// A bounded, content-addressed map from [`ArtifactKey`] to shared
/// [`TraceArtifacts`], optionally write-through to a persistent store.
#[derive(Debug)]
pub struct ArtifactCache {
    inner: Mutex<CacheInner>,
    evictions: AtomicU64,
    store_misses: AtomicU64,
    store_errors: AtomicU64,
    capacity: usize,
    store: Option<Arc<dyn ArtifactStore>>,
}

struct CacheInner {
    map: HashMap<ArtifactKey, Arc<Slot>>,
    /// Insertion order, oldest first, for FIFO eviction.
    order: Vec<ArtifactKey>,
}

impl std::fmt::Debug for CacheInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheInner")
            .field("entries", &self.map.len())
            .finish()
    }
}

impl ArtifactCache {
    /// An empty, memory-only cache holding at most `capacity` distinct
    /// traces (minimum 1; the bound keeps a long-running service from
    /// accumulating every trace it has ever seen).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::build(capacity, None)
    }

    /// A cache backed by `store`: read-through on memory misses,
    /// write-through on builds. Memory eviction never touches the store
    /// — an evicted trace warm-loads later instead of rebuilding.
    #[must_use]
    pub fn with_store(capacity: usize, store: Arc<dyn ArtifactStore>) -> Self {
        Self::build(capacity, Some(store))
    }

    fn build(capacity: usize, store: Option<Arc<dyn ArtifactStore>>) -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                order: Vec::new(),
            }),
            evictions: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            store_errors: AtomicU64::new(0),
            capacity: capacity.max(1),
            store,
        }
    }

    /// The backing store, when one is attached.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<dyn ArtifactStore>> {
        self.store.as_ref()
    }

    /// Total FIFO evictions so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Total backing-store lookups that found nothing.
    #[must_use]
    pub fn store_misses(&self) -> u64 {
        self.store_misses.load(Ordering::Relaxed)
    }

    /// Total backing-store operations that failed (corrupt entries
    /// rebuilt, save failures tolerated) — each one also logged to
    /// stderr.
    #[must_use]
    pub fn store_errors(&self) -> u64 {
        self.store_errors.load(Ordering::Relaxed)
    }

    /// Encoded bytes held by the backing store (0 without one).
    #[must_use]
    pub fn stored_bytes(&self) -> u64 {
        self.store.as_ref().map_or(0, |s| s.stored_bytes())
    }

    /// Number of currently cached traces.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned (a builder panicked).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// `true` when nothing is cached in memory.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`, consulting the backing store and then building
    /// via `build` on a miss.
    ///
    /// Exactly one caller loads-or-builds a given key; concurrent
    /// callers for the same key block until it finishes and then count
    /// as hits.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error. A failed build leaves no cache
    /// entry (the next caller retries). Store errors never propagate: a
    /// corrupt entry is rebuilt, a failed save is tolerated; both are
    /// counted in [`store_errors`](Self::store_errors).
    ///
    /// # Panics
    ///
    /// Panics if a previous builder panicked while holding a slot lock.
    pub fn get_or_build<E>(
        &self,
        key: ArtifactKey,
        build: impl FnOnce() -> Result<TraceArtifacts, E>,
    ) -> Result<(Arc<TraceArtifacts>, Found), E> {
        let slot = {
            let mut inner = self.inner.lock();
            if let Some(slot) = inner.map.get(&key) {
                Arc::clone(slot)
            } else {
                if inner.map.len() >= self.capacity {
                    // FIFO eviction: drop the oldest distinct trace. In-flight
                    // jobs holding its Arc keep it alive until they finish;
                    // the backing store (if any) still holds its bytes.
                    let oldest = inner.order.remove(0);
                    inner.map.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                let slot = Arc::new(Slot::default());
                inner.map.insert(key, Arc::clone(&slot));
                inner.order.push(key);
                slot
            }
        };
        let mut guard = slot.artifacts.lock();
        if let Some(artifacts) = guard.as_ref() {
            return Ok((Arc::clone(artifacts), Found::Hit));
        }
        if let Some(artifacts) = self.load_from_store(&key) {
            let artifacts = Arc::new(artifacts);
            *guard = Some(Arc::clone(&artifacts));
            return Ok((artifacts, Found::Warm));
        }
        match build() {
            Ok(artifacts) => {
                self.save_to_store(&key, &artifacts);
                let artifacts = Arc::new(artifacts);
                *guard = Some(Arc::clone(&artifacts));
                Ok((artifacts, Found::Miss))
            }
            Err(e) => {
                // Remove the placeholder so later callers rebuild rather
                // than treating the empty slot as theirs to fill while the
                // map still points at it.
                let mut inner = self.inner.lock();
                inner.map.remove(&key);
                inner.order.retain(|k| k != &key);
                Err(e)
            }
        }
    }

    /// Looks up `key` without building: an in-memory entry answers as
    /// [`Found::Hit`], a backing-store entry as [`Found::Warm`] (loaded
    /// into memory on the way), and `None` means nobody has it — the
    /// lookup path of digest-referenced jobs, which carry no trace to
    /// build from.
    ///
    /// # Panics
    ///
    /// Panics if a previous builder panicked while holding a slot lock.
    #[must_use]
    pub fn get(&self, key: &ArtifactKey) -> Option<(Arc<TraceArtifacts>, Found)> {
        struct NotCached;
        self.get_or_build(*key, || Err(NotCached)).ok()
    }

    /// Every key whose digest is `digest`, across memory and the backing
    /// store (one per index-bit cap the trace was analyzed under).
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned.
    #[must_use]
    pub fn keys_for(&self, digest: TraceDigest) -> Vec<ArtifactKey> {
        let mut keys: Vec<ArtifactKey> = self
            .inner
            .lock()
            .map
            .keys()
            .filter(|k| k.digest == digest)
            .copied()
            .collect();
        if let Some(store) = self.store.as_ref() {
            keys.extend(store.keys_for(digest));
        }
        keys.sort_by_key(|k| (k.digest.raw(), k.max_index_bits));
        keys.dedup();
        keys
    }

    /// One read-through attempt; errors are absorbed (counted + logged)
    /// so corruption degrades to a rebuild.
    fn load_from_store(&self, key: &ArtifactKey) -> Option<TraceArtifacts> {
        let store = self.store.as_ref()?;
        match store.load(key) {
            Ok(Some(artifacts)) => Some(artifacts),
            Ok(None) => {
                self.store_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(e) => {
                self.store_errors.fetch_add(1, Ordering::Relaxed);
                self.store_misses.fetch_add(1, Ordering::Relaxed);
                eprintln!("cachedse-store: load {key}: {e} (rebuilding)");
                None
            }
        }
    }

    /// Write-through after a build; a failed save is counted and logged
    /// but never fails the job that built the artifacts.
    fn save_to_store(&self, key: &ArtifactKey, artifacts: &TraceArtifacts) {
        let Some(store) = self.store.as_ref() else {
            return;
        };
        if let Err(e) = store.save(key, artifacts) {
            self.store_errors.fetch_add(1, Ordering::Relaxed);
            eprintln!("cachedse-store: save {key}: {e} (entry not persisted)");
        }
    }

    /// Drops the entry for `key` from memory *and* the backing store
    /// (used when validation finds a corrupt artifact set — a poisoned
    /// entry must not warm-load back in).
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned.
    pub fn evict(&self, key: &ArtifactKey) {
        let mut inner = self.inner.lock();
        inner.map.remove(key);
        inner.order.retain(|k| k != key);
        drop(inner);
        if let Some(store) = self.store.as_ref() {
            if let Err(e) = store.remove(key) {
                self.store_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("cachedse-store: evict {key}: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryStore;
    use cachedse_core::{Engine, ExploreError, MissBudget};
    use cachedse_trace::{generate, Trace};

    fn key_of(seed: u64) -> (Trace, ArtifactKey) {
        let trace = generate::working_set_phases(2, 200, 32, seed);
        let key = ArtifactKey::of(&trace, trace.address_bits());
        (trace, key)
    }

    #[test]
    fn one_build_then_hits() {
        let cache = ArtifactCache::new(4);
        let (trace, key) = key_of(1);
        for round in 0..3 {
            let (artifacts, found) = cache
                .get_or_build(key, || TraceArtifacts::build(&trace, key.max_index_bits))
                .unwrap();
            if round == 0 {
                assert_eq!(found, Found::Miss);
            } else {
                assert_eq!(found, Found::Hit);
            }
            assert!(artifacts
                .exploration
                .result(MissBudget::Absolute(0))
                .is_ok());
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_build_separately() {
        let cache = ArtifactCache::new(4);
        let (trace_a, key_a) = key_of(1);
        let (trace_b, key_b) = key_of(2);
        assert_ne!(key_a, key_b);
        for (trace, key) in [(&trace_a, key_a), (&trace_b, key_b)] {
            let (_, found) = cache
                .get_or_build(key, || TraceArtifacts::build(trace, key.max_index_bits))
                .unwrap();
            assert_eq!(found, Found::Miss);
        }
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn every_engine_builds_the_same_bundle() {
        let (trace, key) = key_of(5);
        let default = TraceArtifacts::build(&trace, key.max_index_bits).unwrap();
        // The default bundle records the engine `Auto` picked for this trace.
        let picked = default.exploration.engine();
        assert_ne!(picked, Engine::Auto);
        let reference =
            cachedse_core::postlude::materialized_profiles(&default.stripped, key.max_index_bits);
        for engine in [Engine::Streamed, Engine::DepthFirst] {
            let built = TraceArtifacts::build_with(&trace, key.max_index_bits, engine).unwrap();
            assert_eq!(built.stripped, default.stripped);
            assert_eq!(built.exploration.profiles(), reference, "{engine}");
            assert_eq!(built == default, engine == picked, "{engine}");
        }
    }

    #[test]
    fn capacity_evicts_fifo() {
        let cache = ArtifactCache::new(2);
        let traces: Vec<(Trace, ArtifactKey)> = (1..=3).map(key_of).collect();
        for (trace, key) in &traces {
            let (_, found) = cache
                .get_or_build(*key, || TraceArtifacts::build(trace, key.max_index_bits))
                .unwrap();
            assert_eq!(found, Found::Miss);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // The first key was evicted: looking it up again rebuilds.
        let (trace, key) = &traces[0];
        let (_, found) = cache
            .get_or_build(*key, || TraceArtifacts::build(trace, key.max_index_bits))
            .unwrap();
        assert_eq!(found, Found::Miss);
    }

    #[test]
    fn failed_build_leaves_no_entry() {
        let cache = ArtifactCache::new(2);
        let (trace, key) = key_of(1);
        let err: Result<_, ExploreError> =
            cache.get_or_build(key, || Err(ExploreError::EmptyTrace));
        assert!(err.is_err());
        assert_eq!(cache.len(), 0);
        // A later caller gets a clean rebuild.
        let (_, found) = cache
            .get_or_build(key, || TraceArtifacts::build(&trace, key.max_index_bits))
            .unwrap();
        assert_eq!(found, Found::Miss);
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        let cache = Arc::new(ArtifactCache::new(4));
        let (trace, key) = key_of(7);
        let trace = Arc::new(trace);
        let found: Vec<Found> = cachedse_sync::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let trace = Arc::clone(&trace);
                    s.spawn(move || {
                        cache
                            .get_or_build(key, || TraceArtifacts::build(&trace, key.max_index_bits))
                            .unwrap()
                            .1
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(found.iter().filter(|&&f| f == Found::Miss).count(), 1);
        assert_eq!(found.iter().filter(|&&f| f == Found::Hit).count(), 7);
    }

    #[test]
    fn write_through_then_warm_after_eviction() {
        let store = Arc::new(MemoryStore::new());
        let cache = ArtifactCache::with_store(1, Arc::clone(&store) as Arc<dyn ArtifactStore>);
        let (trace_a, key_a) = key_of(11);
        let (trace_b, key_b) = key_of(12);
        let (_, found) = cache
            .get_or_build(key_a, || {
                TraceArtifacts::build(&trace_a, key_a.max_index_bits)
            })
            .unwrap();
        assert_eq!(found, Found::Miss);
        assert_eq!(store.len(), 1, "write-through persisted the build");
        // Evict key_a from memory by inserting key_b (capacity 1)…
        let (_, found) = cache
            .get_or_build(key_b, || {
                TraceArtifacts::build(&trace_b, key_b.max_index_bits)
            })
            .unwrap();
        assert_eq!(found, Found::Miss);
        assert_eq!(cache.evictions(), 1);
        // …then key_a warm-loads from the store instead of rebuilding.
        let (_, found) = cache
            .get_or_build::<ExploreError>(key_a, || {
                panic!("a warm load must not rebuild");
            })
            .unwrap();
        assert_eq!(found, Found::Warm);
    }

    #[test]
    fn corrupt_store_entry_is_rebuilt() {
        let store = Arc::new(MemoryStore::new());
        let cache = ArtifactCache::with_store(1, Arc::clone(&store) as Arc<dyn ArtifactStore>);
        let (trace_a, key_a) = key_of(21);
        let (trace_b, key_b) = key_of(22);
        cache
            .get_or_build(key_a, || {
                TraceArtifacts::build(&trace_a, key_a.max_index_bits)
            })
            .unwrap();
        store.corrupt(&key_a, vec![0u8; 64]);
        // Push key_a out of memory, then ask again: the corrupt entry is
        // detected, counted, and silently rebuilt (and re-persisted).
        cache
            .get_or_build(key_b, || {
                TraceArtifacts::build(&trace_b, key_b.max_index_bits)
            })
            .unwrap();
        let (_, found) = cache
            .get_or_build(key_a, || {
                TraceArtifacts::build(&trace_a, key_a.max_index_bits)
            })
            .unwrap();
        assert_eq!(found, Found::Miss);
        assert_eq!(cache.store_errors(), 1);
        // The rebuild was re-persisted: evict again, load warm.
        let (trace_c, key_c) = key_of(23);
        cache
            .get_or_build(key_c, || {
                TraceArtifacts::build(&trace_c, key_c.max_index_bits)
            })
            .unwrap();
        let (_, found) = cache
            .get_or_build::<ExploreError>(key_a, || panic!("must warm-load"))
            .unwrap();
        assert_eq!(found, Found::Warm);
    }

    #[test]
    fn evict_also_drops_the_store_entry() {
        let store = Arc::new(MemoryStore::new());
        let cache = ArtifactCache::with_store(4, Arc::clone(&store) as Arc<dyn ArtifactStore>);
        let (trace, key) = key_of(31);
        cache
            .get_or_build(key, || TraceArtifacts::build(&trace, key.max_index_bits))
            .unwrap();
        assert_eq!(store.len(), 1);
        cache.evict(&key);
        assert_eq!(store.len(), 0, "evict must reach the backing store");
        let (_, found) = cache
            .get_or_build(key, || TraceArtifacts::build(&trace, key.max_index_bits))
            .unwrap();
        assert_eq!(found, Found::Miss);
    }
}
