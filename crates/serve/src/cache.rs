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
//! [`ShardedCache::PER_SHARD_CAP`] entries and
//! [`ShardedCache::PER_SHARD_BYTES`] bytes of keys and bodies; an insert
//! that would pass either bound clears the shard wholesale first (epoch
//! eviction) — crude but O(1) amortized, and it keeps worst-case memory
//! bounded without an LRU list on the hot path. A single entry larger than
//! the byte budget is not held at all.

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

/// One shard: its entries and the bytes of their keys and bodies.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<String, Arc<String>>,
    bytes: usize,
}

/// A fixed-shard map from canonical request keys to serialized results.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ShardedCache {
    /// Entries one shard may hold before it is cleared.
    pub const PER_SHARD_CAP: usize = 4096;

    /// Key and body bytes one shard may hold before it is cleared: the
    /// entry cap at 2 KiB an entry, 8 MiB.
    pub const PER_SHARD_BYTES: usize = Self::PER_SHARD_CAP * 2048;

    /// A cache with `shards` independently locked shards (min 1).
    pub fn new(shards: usize) -> Self {
        ShardedCache {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let idx = (fnv1a(key) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    fn lookup(&self, key: &str) -> Option<Arc<String>> {
        self.shard(key)
            .lock()
            .expect("cache shard")
            .map
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

    /// Stores `value` under `key`, clearing the shard first if the entry
    /// would pass its entry cap or byte budget. An entry larger than the
    /// whole budget is dropped instead, leaving the shard as it was. Keys
    /// arrive in a pre-sized build buffer; the entry keeps only their
    /// bytes.
    pub fn insert(&self, mut key: String, value: Arc<String>) {
        let size = key.len() + value.len();
        if size > Self::PER_SHARD_BYTES {
            return;
        }
        key.shrink_to_fit();
        let key_len = key.len();
        let mut shard = self.shard(&key).lock().expect("cache shard");
        if shard.map.len() >= Self::PER_SHARD_CAP || shard.bytes + size > Self::PER_SHARD_BYTES {
            // Only replacing an entry in place may stay within the bounds.
            let fits = shard.map.get(&key).is_some_and(|old| {
                shard.bytes - (key_len + old.len()) + size <= Self::PER_SHARD_BYTES
            });
            if !fits {
                shard.map.clear();
                shard.bytes = 0;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.bytes += size;
        if let Some(old) = shard.map.insert(key, value) {
            shard.bytes -= key_len + old.len();
        }
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").map.len())
            .sum()
    }

    /// Key and body bytes held across all shards.
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").bytes)
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
                let dropped = shard.map.len();
                shard.map.clear();
                shard.bytes = 0;
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
    fn large_bodies_evict_on_bytes_before_the_entry_cap() {
        let cache = ShardedCache::new(1);
        // 64 KiB bodies: the 8 MiB budget holds 127 of them with their
        // keys, far below the 4,096-entry cap.
        let body = Arc::new("x".repeat(64 << 10));
        let mut inserted = 0;
        while cache.evictions() == 0 {
            cache.insert(format!("key-{inserted:03}"), Arc::clone(&body));
            inserted += 1;
        }
        assert_eq!(inserted, 128);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 7 + body.len());
        assert!(cache.get("key-127").is_some());
        // Replacing an entry in place keeps the shard and its byte count.
        cache.insert("key-127".into(), Arc::clone(&body));
        assert_eq!((cache.len(), cache.evictions()), (1, 1));
        assert_eq!(cache.bytes(), 7 + body.len());
    }

    #[test]
    fn an_entry_larger_than_the_budget_is_not_held() {
        let cache = ShardedCache::new(1);
        cache.insert("small".into(), Arc::new("1".into()));
        let huge = Arc::new("x".repeat(ShardedCache::PER_SHARD_BYTES));
        cache.insert("huge".into(), huge);
        assert!(cache.get("huge").is_none());
        assert!(cache.get("small").is_some(), "the shard is left as it was");
        assert_eq!((cache.bytes(), cache.evictions()), (6, 0));
    }

    #[test]
    fn flush_drops_entries_but_keeps_lifetime_counters() {
        let cache = ShardedCache::new(4);
        cache.insert("a".into(), Arc::new("1".into()));
        cache.insert("b".into(), Arc::new("2".into()));
        assert!(cache.get("a").is_some());
        assert_eq!(cache.flush(), 2);
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
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
