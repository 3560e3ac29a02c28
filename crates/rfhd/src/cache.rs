//! A thread-safe memoization store with optional LRU eviction and
//! hit/miss/eviction statistics.
//!
//! This generalizes the per-(workload, config) caches that grew up inside
//! `rfh_experiments::ExperimentCtx` into one reusable component:
//!
//! * **unbounded** stores ([`Store::unbounded`]) memoize deterministic
//!   computations for the lifetime of a process — the experiment engine's
//!   use, where every cell will be revisited;
//! * **bounded** stores ([`Store::with_capacity`]) serve open-ended
//!   traffic — the daemon's kernel cache, where the key space is
//!   unbounded and the least-recently-used entry is evicted instead of
//!   growing memory without limit.
//!
//! All cached values are assumed to be deterministic functions of their
//! key, so concurrent computation of one key is benign: the first insert
//! wins and every caller sees an identical value. Values are cloned out
//! (wrap big payloads in `Arc`).
//!
//! The store also exposes [`fnv1a`], the content hash behind [`Key::new`]'s
//! pre-key: stable across runs and platforms, so cache behavior is
//! replayable.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Mutex;

/// A collision-proof cache key: the **full value** is the key; a 64-bit
/// digest of it is retained only as a fast pre-key so that `HashMap`
/// probing does not rehash the whole value on every lookup.
///
/// Equality compares the pre-key first (cheap reject) and then the full
/// value, so two distinct keys whose digests collide map to *different*
/// entries instead of silently sharing one — the bug this type replaces
/// (`Store<u64, _>` keyed by the bare digest) served the first request's
/// cached response to the second.
#[derive(Debug, Clone, Eq)]
pub struct Key<T = String> {
    hash: u64,
    value: T,
}

impl Key {
    /// Keys a canonical string; the pre-key is the string's [`fnv1a`].
    pub fn new(canon: impl Into<String>) -> Key {
        let canon = canon.into();
        Key {
            hash: fnv1a(canon.as_bytes()),
            value: canon,
        }
    }

    /// A key with a caller-chosen pre-key. Real 64-bit FNV-1a collisions
    /// take ~2³² birthday work to find, so collision regression tests use
    /// this constructor to force two distinct canonical strings onto one
    /// pre-key.
    pub fn with_pre_key(hash: u64, canon: impl Into<String>) -> Key {
        Key {
            hash,
            value: canon.into(),
        }
    }

    /// The 64-bit pre-key (the FNV-1a digest for [`Key::new`] keys).
    pub fn pre_key(&self) -> u64 {
        self.hash
    }

    /// The full canonical string.
    pub fn canon(&self) -> &str {
        &self.value
    }
}

impl<T: Hash> Key<T> {
    /// Keys a typed value: the pre-key is the value's [`Hash`] under the
    /// fixed-key [`DefaultHasher`], so the value is read once.
    pub fn of(value: T) -> Key<T> {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        Key {
            hash: h.finish(),
            value,
        }
    }
}

impl<T: PartialEq> PartialEq for Key<T> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.value == other.value
    }
}

impl<T> Hash for Key<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Only the pre-key feeds the table hash; full-value comparison
        // happens in `eq`, where colliding keys are told apart.
        state.write_u64(self.hash);
    }
}

/// Counters describing a store's effectiveness. All counts are since
/// construction; `entries`/`capacity` describe the current shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room (bounded stores only).
    pub evictions: u64,
    /// Inserts that lost the first-writer-wins race (benign duplicates).
    pub races: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries; `None` for unbounded stores.
    pub capacity: Option<usize>,
}

struct Inner<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Monotonic logical clock stamping recency of use.
    tick: u64,
    stats: CacheStats,
}

struct Slot<V> {
    value: V,
    last_used: u64,
}

/// A memoization store (see module docs).
pub struct Store<K, V> {
    inner: Mutex<Inner<K, V>>,
    capacity: Option<usize>,
}

impl<K: Eq + Hash + Clone, V: Clone> Store<K, V> {
    /// A store that never evicts.
    pub fn unbounded() -> Self {
        Store::build(None)
    }

    /// A store holding at most `capacity` entries (at least 1), evicting
    /// the least-recently-used entry on overflow.
    pub fn with_capacity(capacity: usize) -> Self {
        Store::build(Some(capacity.max(1)))
    }

    fn build(capacity: Option<usize>) -> Self {
        Store {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                stats: CacheStats {
                    capacity,
                    ..CacheStats::default()
                },
            }),
            capacity,
        }
    }

    /// Looks up `key`, counting a hit or miss and refreshing recency.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(slot) => {
                slot.last_used = tick;
                let v = slot.value.clone();
                inner.stats.hits += 1;
                Some(v)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts `value` unless `key` is already present, returning the
    /// resident value either way (first writer wins — later duplicates
    /// from concurrent computation of the same key are dropped and
    /// counted under [`CacheStats::races`]). Evicts the least-recently-
    /// used entry first when a bounded store is full.
    ///
    /// The residency check runs **before** the capacity check: an insert
    /// that loses the first-writer race on a full store returns the
    /// resident value immediately and never runs the O(n) eviction scan —
    /// a racing duplicate must not evict an unrelated entry.
    pub fn insert(&self, key: K, value: V) -> V {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(slot) = inner.map.get_mut(&key) {
            slot.last_used = tick;
            let v = slot.value.clone();
            inner.stats.races += 1;
            return v;
        }
        if let Some(cap) = self.capacity {
            while inner.map.len() >= cap {
                // O(n) scan; daemon caches hold at most a few thousand
                // entries and eviction is off the request fast path
                // (hits never scan).
                if let Some(oldest) = inner
                    .map
                    .iter()
                    .min_by_key(|(_, s)| s.last_used)
                    .map(|(k, _)| k.clone())
                {
                    inner.map.remove(&oldest);
                    inner.stats.evictions += 1;
                } else {
                    break;
                }
            }
        }
        inner.map.insert(
            key,
            Slot {
                value: value.clone(),
                last_used: tick,
            },
        );
        inner.stats.entries = inner.map.len();
        value
    }

    /// Memoizes `compute` under `key`. The computation runs **outside**
    /// the store lock, so a slow miss does not serialize other lookups;
    /// the cost is that concurrent misses of one key may compute twice
    /// (benign — first insert wins).
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(&key) {
            return v;
        }
        let v = compute();
        self.insert(key, v)
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let mut inner = self.lock();
        inner.stats.entries = inner.map.len();
        inner.stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<K, V>> {
        // Poisoning is impossible by construction: no user code runs
        // under the lock (compute closures run outside it).
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// FNV-1a over a byte stream: the stable content hash keying the daemon's
/// strand cache.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_memoizes_and_counts() {
        let store: Store<u32, String> = Store::unbounded();
        assert_eq!(store.get(&1), None);
        let computed = std::cell::Cell::new(0);
        let v = store.get_or_insert_with(1, || {
            computed.set(computed.get() + 1);
            "one".to_string()
        });
        assert_eq!(v, "one");
        let v = store.get_or_insert_with(1, || {
            computed.set(computed.get() + 1);
            "other".to_string()
        });
        assert_eq!(v, "one", "memoized value wins");
        assert_eq!(computed.get(), 1, "second lookup must not recompute");
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 2, 0));
        assert_eq!(s.entries, 1);
        assert_eq!(s.capacity, None);
    }

    #[test]
    fn first_writer_wins_on_duplicate_insert() {
        let store: Store<u32, u32> = Store::unbounded();
        assert_eq!(store.insert(7, 70), 70);
        assert_eq!(store.insert(7, 71), 70, "duplicate insert is dropped");
        assert_eq!(store.get(&7), Some(70));
        assert_eq!(store.stats().races, 1);
    }

    #[test]
    fn bounded_store_evicts_least_recently_used() {
        let store: Store<u32, u32> = Store::with_capacity(2);
        store.insert(1, 10);
        store.insert(2, 20);
        assert_eq!(store.get(&1), Some(10)); // refresh 1: now 2 is LRU
        store.insert(3, 30);
        assert_eq!(store.get(&2), None, "2 was least recently used");
        assert_eq!(store.get(&1), Some(10));
        assert_eq!(store.get(&3), Some(30));
        let s = store.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert_eq!(s.capacity, Some(2));
    }

    #[test]
    fn capacity_one_still_works() {
        let store: Store<u32, u32> = Store::with_capacity(1);
        store.insert(1, 10);
        store.insert(2, 20);
        assert_eq!(store.get(&1), None);
        assert_eq!(store.get(&2), Some(20));
    }

    #[test]
    fn concurrent_misses_agree() {
        let store: std::sync::Arc<Store<u32, u64>> = std::sync::Arc::new(Store::unbounded());
        let results: Vec<u64> =
            rfh_testkit::pool::par_map(&[0u32; 16], |_| store.get_or_insert_with(5, || 500));
        assert!(results.iter().all(|&v| v == 500));
        assert_eq!(store.stats().entries, 1);
    }

    /// Satellite regression: two distinct canonical strings forced onto
    /// one 64-bit pre-key must get separate entries and correct values —
    /// a bare-u64-keyed store would serve the first value for both.
    #[test]
    fn colliding_pre_keys_get_distinct_entries() {
        let store: Store<Key, String> = Store::unbounded();
        let a = Key::with_pre_key(0xDEAD_BEEF, "allocate\0kernel-a");
        let b = Key::with_pre_key(0xDEAD_BEEF, "allocate\0kernel-b");
        assert_eq!(a.pre_key(), b.pre_key(), "precondition: pre-keys collide");
        assert_ne!(a, b, "full keys must still differ");
        store.insert(a.clone(), "result-a".into());
        store.insert(b.clone(), "result-b".into());
        assert_eq!(store.get(&a).as_deref(), Some("result-a"));
        assert_eq!(store.get(&b).as_deref(), Some("result-b"));
        let s = store.stats();
        assert_eq!(s.entries, 2, "colliding keys must not share an entry");
        assert_eq!(s.races, 0, "distinct keys are not duplicate inserts");
    }

    /// Real (unforced) keys behave like plain values.
    #[test]
    fn key_hashes_its_canonical_string() {
        let k = Key::new("simulate\0workload\0fft");
        assert_eq!(k.pre_key(), fnv1a(b"simulate\0workload\0fft"));
        assert_eq!(k.canon(), "simulate\0workload\0fft");
        assert_eq!(k, Key::new("simulate\0workload\0fft"));
        assert_ne!(k, Key::new("simulate\0workload\0ffs"));
    }

    /// Satellite regression: an insert that loses the first-writer race
    /// on a *full* store must return the resident value without evicting
    /// anything (the residency check precedes the capacity check).
    #[test]
    fn full_capacity_race_does_not_evict() {
        let store: Store<u32, u32> = Store::with_capacity(3);
        store.insert(1, 10);
        store.insert(2, 20);
        store.insert(3, 30);
        assert_eq!(store.stats().entries, 3, "precondition: store is full");
        // Racing duplicate of a resident key while at capacity.
        assert_eq!(store.insert(2, 99), 20, "first writer wins");
        let s = store.stats();
        assert_eq!(s.races, 1, "the duplicate is counted as a race");
        assert_eq!(s.evictions, 0, "a race at capacity must not evict");
        assert_eq!(s.entries, 3);
        for (k, v) in [(1, 10), (2, 20), (3, 30)] {
            assert_eq!(store.get(&k), Some(v), "entry {k} must stay resident");
        }
    }

    #[test]
    fn fnv1a_is_stable() {
        // Reference vectors for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"allocate\0k1"), fnv1a(b"allocate\0k2"));
    }
}
