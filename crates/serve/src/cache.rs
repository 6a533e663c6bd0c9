//! The sharded in-memory result cache.
//!
//! Keys are **canonical request strings** built from the exact bit
//! patterns of every parameter ([`crate::protocol::cache_key`]), so two
//! requests collide only when they would produce byte-identical results —
//! determinism of the simulator and the models is what makes caching
//! semantically invisible. Values are the serialized `result` JSON bodies,
//! shared by `Arc` so a hit is one hash lookup plus a refcount bump.
//!
//! Sharding bounds lock contention: a key hashes (FNV-1a) to one of N
//! independently locked shards, so concurrent workers only serialize when
//! they touch the same shard. Each shard holds at most
//! [`ShardedCache::PER_SHARD_CAP`] entries; on overflow the shard is
//! cleared wholesale (epoch eviction) — crude but O(1) amortized, and it
//! keeps worst-case memory bounded without an LRU list on the hot path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a, the classic minimal string hash: deterministic across runs
/// (unlike `RandomState`), which keeps shard placement reproducible. The
/// disk tier ([`crate::store`]) shares it for its record index.
pub(crate) fn fnv1a(key: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A fixed-shard map from canonical request keys to serialized results.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<HashMap<String, Arc<String>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ShardedCache {
    /// Entries one shard may hold before it is cleared.
    pub const PER_SHARD_CAP: usize = 4096;

    /// A cache with `shards` independently locked shards (min 1).
    pub fn new(shards: usize) -> Self {
        ShardedCache {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, Arc<String>>> {
        let idx = (fnv1a(key) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    fn lookup(&self, key: &str) -> Option<Arc<String>> {
        self.shard(key)
            .lock()
            .expect("cache shard")
            .get(key)
            .cloned()
    }

    /// Looks `key` up, counting the hit or miss.
    pub fn get(&self, key: &str) -> Option<Arc<String>> {
        let found = self.lookup(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Looks `key` up, counting only a hit. The server's front end probes
    /// here before queueing; a miss goes on to a worker whose [`get`]
    /// counts it, so every request still counts exactly one hit or miss.
    ///
    /// [`get`]: Self::get
    pub(crate) fn probe(&self, key: &str) -> Option<Arc<String>> {
        let found = self.lookup(key);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Stores `value` under `key`, clearing the shard first if it is full.
    /// Keys arrive in a pre-sized build buffer; the entry keeps only their
    /// bytes.
    pub fn insert(&self, mut key: String, value: Arc<String>) {
        key.shrink_to_fit();
        let mut shard = self.shard(&key).lock().expect("cache shard");
        if shard.len() >= Self::PER_SHARD_CAP && !shard.contains_key(&key) {
            shard.clear();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.insert(key, value);
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").len())
            .sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime shard-clear count.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Drops every entry (the `cache` op's `{"action":"flush"}`),
    /// returning how many were dropped. Hit/miss/eviction counters are
    /// lifetime counters and survive the flush.
    pub fn flush(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let mut shard = s.lock().expect("cache shard");
                let dropped = shard.len();
                shard.clear();
                dropped
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_insert_hits_and_counts() {
        let cache = ShardedCache::new(4);
        assert!(cache.get("k").is_none());
        cache.insert("k".into(), Arc::new("v".into()));
        assert_eq!(cache.get("k").unwrap().as_str(), "v");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn probe_counts_hits_but_never_misses() {
        let cache = ShardedCache::new(4);
        assert!(cache.probe("k").is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.insert("k".into(), Arc::new("v".into()));
        assert_eq!(cache.probe("k").unwrap().as_str(), "v");
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
        // A missed probe followed by the worker's `get`: one miss in all.
        assert!(cache.probe("other").is_none());
        assert!(cache.get("other").is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = ShardedCache::new(2);
        for i in 0..100 {
            cache.insert(format!("key-{i}"), Arc::new(format!("val-{i}")));
        }
        for i in 0..100 {
            assert_eq!(
                cache.get(&format!("key-{i}")).unwrap().as_str(),
                &format!("val-{i}")
            );
        }
    }

    #[test]
    fn overflow_clears_only_the_full_shard() {
        let cache = ShardedCache::new(1);
        for i in 0..ShardedCache::PER_SHARD_CAP {
            cache.insert(format!("key-{i}"), Arc::new(String::new()));
        }
        assert_eq!(cache.len(), ShardedCache::PER_SHARD_CAP);
        cache.insert("overflow".into(), Arc::new(String::new()));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get("overflow").is_some());
    }

    #[test]
    fn flush_drops_entries_but_keeps_lifetime_counters() {
        let cache = ShardedCache::new(4);
        cache.insert("a".into(), Arc::new("1".into()));
        cache.insert("b".into(), Arc::new("2".into()));
        assert!(cache.get("a").is_some());
        assert_eq!(cache.flush(), 2);
        assert!(cache.is_empty());
        assert!(cache.get("a").is_none());
        // One hit and one miss from before/after the flush both persist.
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so shard placement (and thus any debug output) never
        // silently changes across builds.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
