//! Sharded, byte-budgeted block/column cache — the shared state behind the
//! concurrent serving layer.
//!
//! Every query against a bare [`TableReader`](crate::store::TableReader)
//! re-reads and re-decodes payload bytes from scratch. A [`ShardedCache`]
//! attached via
//! [`TableReader::with_cache`](crate::store::TableReader::with_cache) turns
//! the reader into a serving endpoint: repeated traffic hits decoded
//! artifacts instead of the [`IoBackend`](crate::io::IoBackend).
//!
//! Two entry kinds are cached, keyed by `(table, block, column, kind)`:
//!
//! * **Segments** ([`CacheValue::Segment`]) — the compressed bytes of a
//!   whole block segment, filled by `read_block`, which parses each column
//!   out of them by its footer span. Saves the I/O, not the decode.
//! * **Codecs** ([`CacheValue::Codec`]) — a fully deserialized
//!   [`ColumnCodec`] (dictionaries, packed vectors, reference wiring),
//!   filled by the lazy per-column loads underneath `read_column`, scans
//!   and aggregates. Saves the I/O *and* the deserialization.
//!
//! (The third hot artifact, footer metadata, is parsed once at open and
//! lives on the reader itself — it needs no cache entry.)
//!
//! **Integrity: a cached frame is never trusted unverified.** Fills run
//! the same `checksum64` checks as uncached reads *before* insertion,
//! so a bit-flipped fill surfaces as `Err` and nothing poisoned ever
//! enters the cache; hits hand back bytes that already passed
//! verification.
//!
//! **Eviction.** The byte budget is split evenly across shards (a
//! power-of-two count, keys distributed by hash), and each shard runs
//! exact LRU: a recency tick per entry, a `BTreeMap<tick, key>` as the
//! recency queue, least-recently-used evicted first until an insertion
//! fits. An entry larger than a whole shard's budget is not admitted
//! (counted in [`CacheStats::oversize`]) — it would only thrash. All
//! accounting is `u64`s checked in debug builds; `bytes_cached() <=
//! capacity()` holds at every instant.
//!
//! Hit/miss/eviction counters are global atomics (see [`CacheStats`]);
//! per-query hit/miss counts are additionally folded into
//! [`ScanStats`](crate::scan::ScanStats) by the store's scan and
//! aggregate drivers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rustc_hash::FxHashMap;

use crate::compressor::ColumnCodec;

/// What a cache entry holds.
#[derive(Debug, Clone)]
pub enum CacheValue {
    /// A whole block segment's compressed frame (checksum-verified bytes).
    Segment(Arc<Vec<u8>>),
    /// A fully deserialized column codec (dictionary tables included).
    Codec(Arc<ColumnCodec>),
}

/// Which artifact of a `(table, block, column)` coordinate an entry caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// The whole block segment's raw bytes (`column` is 0 by convention).
    Segment,
    /// One column's deserialized codec.
    Codec,
}

/// Cache key: one artifact of one column of one block of one table.
///
/// `table` is a process-unique id handed out by [`next_table_id`] when a
/// reader attaches to a cache, so one cache safely serves many tables
/// (and two readers over the same file never alias unless they share the
/// id on purpose).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Process-unique table id (see [`next_table_id`]).
    pub table: u64,
    /// Block index within the table.
    pub block: u32,
    /// Column index within the block (0 for [`EntryKind::Segment`]).
    pub column: u32,
    /// Artifact kind.
    pub kind: EntryKind,
}

impl CacheKey {
    /// Key of a block segment frame.
    #[must_use]
    pub fn segment(table: u64, block: u32) -> Self {
        Self {
            table,
            block,
            column: 0,
            kind: EntryKind::Segment,
        }
    }

    /// Key of a decoded column codec.
    #[must_use]
    pub fn codec(table: u64, block: u32, column: u32) -> Self {
        Self {
            table,
            block,
            column,
            kind: EntryKind::Codec,
        }
    }

    /// FxHash of the key — the shard selector and map hash.
    fn fxhash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = rustc_hash::FxHasher::default();
        Hash::hash(self, &mut h);
        h.finish()
    }
}

static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(1);

/// Hands out a process-unique table id for cache keying.
#[must_use]
pub fn next_table_id() -> u64 {
    NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Construction knobs for a [`ShardedCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total byte budget across all shards.
    pub byte_budget: u64,
    /// Requested shard count; rounded up to a power of two, min 1.
    pub shards: usize,
}

impl CacheConfig {
    /// A budget with the default shard count (8).
    #[must_use]
    pub fn with_budget(byte_budget: u64) -> Self {
        Self {
            byte_budget,
            shards: 8,
        }
    }
}

/// Snapshot of cache-wide counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries admitted.
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Bytes charged to evicted entries, cumulative.
    pub bytes_evicted: u64,
    /// Insertions refused because one entry exceeded a whole shard budget.
    pub oversize: u64,
    /// Bytes currently resident.
    pub bytes_cached: u64,
}

impl CacheStats {
    /// Hit fraction of all lookups (0 when none happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    value: CacheValue,
    charge: u64,
    tick: u64,
}

struct Shard {
    map: FxHashMap<CacheKey, Entry>,
    /// Recency queue: tick -> key, oldest first. Ticks are unique per
    /// shard (monotonic counter), so this is an exact LRU order.
    lru: BTreeMap<u64, CacheKey>,
    tick: u64,
    used: u64,
    capacity: u64,
}

impl Shard {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn remove(&mut self, key: &CacheKey) -> Option<Entry> {
        let entry = self.map.remove(key)?;
        let removed = self.lru.remove(&entry.tick);
        debug_assert!(removed.is_some(), "entry missing from recency queue");
        debug_assert!(self.used >= entry.charge, "budget accounting underflow");
        self.used -= entry.charge;
        Some(entry)
    }
}

/// The sharded, byte-budgeted LRU cache. See the [module docs](self).
///
/// Thread-safe (`Send + Sync`): shards are independent mutexes, counters
/// are atomics, values are `Arc`s cloned out under the shard lock.
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    bytes_evicted: AtomicU64,
    oversize: AtomicU64,
}

impl ShardedCache {
    /// Builds a cache with `config.byte_budget` bytes split evenly across
    /// `config.shards` (rounded up to a power of two) shards.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let n = config.shards.max(1).next_power_of_two();
        let per_shard = config.byte_budget / n as u64;
        let shards = (0..n)
            .map(|_| {
                Mutex::new(Shard {
                    map: FxHashMap::default(),
                    lru: BTreeMap::new(),
                    tick: 0,
                    used: 0,
                    capacity: per_shard,
                })
            })
            .collect();
        Self {
            shards,
            mask: n as u64 - 1,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes_evicted: AtomicU64::new(0),
            oversize: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard index `key` maps to (stable for the cache's lifetime).
    #[must_use]
    pub fn shard_of(&self, key: &CacheKey) -> usize {
        (key.fxhash() & self.mask) as usize
    }

    /// Total byte capacity (per-shard capacities summed).
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.shards.len() as u64 * self.shard_capacity()
    }

    /// Byte capacity of one shard.
    #[must_use]
    pub fn shard_capacity(&self) -> u64 {
        self.shards[0]
            .lock()
            .expect("cache shard poisoned")
            .capacity
    }

    /// Bytes currently resident across all shards. Never exceeds
    /// [`capacity`](Self::capacity).
    #[must_use]
    pub fn bytes_cached(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").used)
            .sum()
    }

    /// Looks up `key`, refreshing its recency on a hit. Counts a hit or a
    /// miss.
    #[must_use]
    pub fn get(&self, key: &CacheKey) -> Option<CacheValue> {
        let mut shard = self.shards[self.shard_of(key)]
            .lock()
            .expect("cache shard poisoned");
        let fresh = shard.next_tick();
        match shard.map.get_mut(key) {
            Some(entry) => {
                let stale = std::mem::replace(&mut entry.tick, fresh);
                let value = entry.value.clone();
                let moved = shard.lru.remove(&stale);
                debug_assert!(moved.is_some(), "hit entry missing from recency queue");
                shard.lru.insert(fresh, *key);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Admits `(key, value)` charged at `charge` bytes, evicting
    /// least-recently-used entries from the key's shard until it fits.
    /// Replacing an existing key refunds its old charge first. Returns
    /// `false` (and admits nothing) when `charge` alone exceeds the shard
    /// budget.
    ///
    /// Callers must fully verify `value` (checksums!) before insertion —
    /// the cache trusts what it is handed.
    pub fn insert(&self, key: CacheKey, value: CacheValue, charge: u64) -> bool {
        let mut shard = self.shards[self.shard_of(&key)]
            .lock()
            .expect("cache shard poisoned");
        if charge > shard.capacity {
            drop(shard);
            self.oversize.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        shard.remove(&key);
        let mut evicted = 0u64;
        let mut evictions = 0u64;
        while shard.used + charge > shard.capacity {
            let (&oldest, &victim) = shard
                .lru
                .iter()
                .next()
                .expect("positive usage implies a resident entry");
            debug_assert_ne!(victim, key, "fresh key cannot be resident");
            let entry = shard.remove(&victim).expect("victim is resident");
            debug_assert_eq!(entry.tick, oldest);
            evicted += entry.charge;
            evictions += 1;
        }
        let tick = shard.next_tick();
        shard.lru.insert(tick, key);
        shard.used += charge;
        debug_assert!(shard.used <= shard.capacity);
        shard.map.insert(
            key,
            Entry {
                value,
                charge,
                tick,
            },
        );
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evictions > 0 {
            self.evictions.fetch_add(evictions, Ordering::Relaxed);
            self.bytes_evicted.fetch_add(evicted, Ordering::Relaxed);
        }
        true
    }

    /// Drops every entry (counters keep their history).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            shard.map.clear();
            shard.lru.clear();
            shard.used = 0;
        }
    }

    /// Counter snapshot. `bytes_cached` is a point-in-time sum; the other
    /// fields are cumulative since construction.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_evicted: self.bytes_evicted.load(Ordering::Relaxed),
            oversize: self.oversize.load(Ordering::Relaxed),
            bytes_cached: self.bytes_cached(),
        }
    }
}

impl std::fmt::Debug for ShardedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_value(n: usize) -> CacheValue {
        CacheValue::Segment(Arc::new(vec![0xA5; n]))
    }

    fn one_shard(budget: u64) -> ShardedCache {
        ShardedCache::new(CacheConfig {
            byte_budget: budget,
            shards: 1,
        })
    }

    #[test]
    fn table_ids_are_unique() {
        let a = next_table_id();
        let b = next_table_id();
        assert_ne!(a, b);
        assert!(b > a);
    }

    #[test]
    fn shard_selection_is_stable_and_spreads() {
        let cache = ShardedCache::new(CacheConfig {
            byte_budget: 1 << 20,
            shards: 8,
        });
        assert_eq!(cache.n_shards(), 8);
        let mut seen = vec![0usize; cache.n_shards()];
        for block in 0..64u32 {
            for column in 0..8u32 {
                let key = CacheKey::codec(7, block, column);
                let s = cache.shard_of(&key);
                assert_eq!(s, cache.shard_of(&key), "selection must be stable");
                seen[s] += 1;
            }
        }
        // FxHash over distinct coordinates must not collapse to one shard.
        let populated = seen.iter().filter(|&&n| n > 0).count();
        assert!(populated >= 4, "keys landed in only {populated} shards");
        // Segment and codec entries of the same coordinate are distinct.
        assert!(cache.get(&CacheKey::segment(7, 0)).is_none());
        assert!(cache.insert(CacheKey::segment(7, 0), bytes_value(8), 8));
        assert!(cache.get(&CacheKey::codec(7, 0, 0)).is_none());
        assert!(cache.get(&CacheKey::segment(7, 0)).is_some());
    }

    #[test]
    fn non_power_of_two_rounds_up() {
        let cache = ShardedCache::new(CacheConfig {
            byte_budget: 700,
            shards: 5,
        });
        assert_eq!(cache.n_shards(), 8);
        assert_eq!(cache.shard_capacity(), 87); // 700 / 8
    }

    #[test]
    fn eviction_is_lru_order() {
        let cache = one_shard(30);
        let k = |i: u32| CacheKey::segment(1, i);
        assert!(cache.insert(k(0), bytes_value(10), 10));
        assert!(cache.insert(k(1), bytes_value(10), 10));
        assert!(cache.insert(k(2), bytes_value(10), 10));
        // Touch 0: it becomes most recent; 1 is now the LRU victim.
        assert!(cache.get(&k(0)).is_some());
        assert!(cache.insert(k(3), bytes_value(10), 10));
        assert!(cache.get(&k(1)).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&k(0)).is_some());
        assert!(cache.get(&k(2)).is_some());
        assert!(cache.get(&k(3)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.bytes_evicted, 10);
        assert_eq!(stats.bytes_cached, 30);
    }

    #[test]
    fn one_large_insert_evicts_several() {
        let cache = one_shard(32);
        for i in 0..4 {
            assert!(cache.insert(CacheKey::segment(1, i), bytes_value(8), 8));
        }
        assert!(cache.insert(CacheKey::segment(1, 9), bytes_value(24), 24));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 3);
        assert_eq!(stats.bytes_cached, 8 + 24);
        assert!(cache.get(&CacheKey::segment(1, 3)).is_some());
        assert!(cache.get(&CacheKey::segment(1, 9)).is_some());
    }

    #[test]
    fn oversize_entries_are_refused() {
        let cache = one_shard(16);
        assert!(cache.insert(CacheKey::segment(1, 0), bytes_value(8), 8));
        assert!(!cache.insert(CacheKey::segment(1, 1), bytes_value(99), 99));
        let stats = cache.stats();
        assert_eq!(stats.oversize, 1);
        // The refusal evicted nothing.
        assert_eq!(stats.evictions, 0);
        assert!(cache.get(&CacheKey::segment(1, 0)).is_some());
    }

    #[test]
    fn replacement_refunds_the_old_charge() {
        let cache = one_shard(20);
        let key = CacheKey::segment(1, 0);
        assert!(cache.insert(key, bytes_value(16), 16));
        assert_eq!(cache.bytes_cached(), 16);
        assert!(cache.insert(key, bytes_value(12), 12));
        assert_eq!(cache.bytes_cached(), 12, "old charge must be refunded");
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn budget_never_exceeded_under_churn() {
        let cache = ShardedCache::new(CacheConfig {
            byte_budget: 256,
            shards: 4,
        });
        for i in 0..10_000u32 {
            let charge = u64::from(i % 70 + 1);
            let _ = cache.insert(
                CacheKey::codec(1, i % 37, i % 5),
                bytes_value(charge as usize),
                charge,
            );
            if i % 97 == 0 {
                assert!(cache.bytes_cached() <= cache.capacity());
            }
            let _ = cache.get(&CacheKey::codec(1, (i + 13) % 37, i % 5));
        }
        let stats = cache.stats();
        assert!(stats.bytes_cached <= cache.capacity());
        assert!(stats.evictions > 0);
        assert_eq!(stats.hits + stats.misses, 10_000);
        cache.clear();
        assert_eq!(cache.bytes_cached(), 0);
    }

    #[test]
    fn hit_rate_math() {
        let cache = one_shard(64);
        assert!((cache.stats().hit_rate() - 0.0).abs() < f64::EPSILON);
        let key = CacheKey::segment(1, 0);
        assert!(cache.get(&key).is_none());
        assert!(cache.insert(key, bytes_value(4), 4));
        assert!(cache.get(&key).is_some());
        assert!((cache.stats().hit_rate() - 0.5).abs() < f64::EPSILON);
    }
}
