//! Epoch-keyed result cache for the serving engine.
//!
//! Internet-service graph traffic is dominated by *repeated hot requests*:
//! the same degree lookups, the same k-hop neighborhoods, the same
//! traversal roots, over and over. Every query the engine serves is a pure
//! function of `(epoch, delta-seq, query shape, params)` — epochs are
//! immutable snapshots and every overlay version is named by its delta
//! sequence number — so a completed [`QueryOutput`] can be replayed
//! verbatim for any identical query against the same graph state. The [`ResultCache`]
//! does exactly that and nothing cleverer:
//!
//! * **Keying.** The key is `(epoch, delta-seq, Query)`; `Query` carries
//!   the shape discriminant and every parameter (vertex, source, hops,
//!   workload), so two requests collide only when they would compute
//!   bit-identical outputs. A publish or republish bumps the epoch and a
//!   mutation bumps the overlay's delta sequence number, so *any* change
//!   to the served graph state makes every old entry unreachable *by
//!   construction* — correctness never depends on the invalidation sweep,
//!   which exists only to reclaim memory.
//! * **Sharding.** Entries hash across small mutexed shards so concurrent
//!   executors don't serialize on one lock.
//! * **Eviction.** Per-shard FIFO at a bounded total capacity; evictions
//!   and epoch invalidations both count into the `engine.cache.evict`
//!   counter, hits and misses into `engine.cache.{hit,miss}`.
//!
//! A capacity of zero disables the cache entirely: lookups return `None`
//! without touching the counters, inserts are dropped. The chaos harness
//! corrupts inserted entries through the `engine.cache.insert` failpoint
//! (see `exec.rs`), which the sequential-oracle digest comparison must
//! catch — proving the oracle actually guards the cache path.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use graphbig_telemetry::metrics::Counter;

use crate::engine::{Query, QueryOutput};

/// Shard count: enough to keep executor threads off each other's locks.
const SHARDS: usize = 16;

/// `(epoch, delta-seq, query)` — the full name of one graph state plus
/// the query against it.
type Key = (u64, u64, Query);

#[derive(Default)]
struct Shard {
    map: HashMap<Key, QueryOutput>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<Key>,
}

/// A bounded, sharded, epoch-keyed map from queries to completed outputs.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry bound (total capacity / shard count, min 1).
    per_shard: usize,
    enabled: bool,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries in total (0 = disabled),
    /// reporting into the given `engine.cache.*` counters.
    pub fn new(capacity: usize, hits: Counter, misses: Counter, evictions: Counter) -> ResultCache {
        ResultCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard: (capacity / SHARDS).max(1),
            enabled: capacity > 0,
            hits,
            misses,
            evictions,
        }
    }

    /// Whether lookups can ever hit (capacity > 0).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn shard(&self, key: &Key) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// The cached output for `query` under `(epoch, delta-seq)`, if
    /// present. Counts a hit or a miss; a disabled cache returns `None`
    /// without counting.
    pub fn get(&self, epoch: u64, seq: u64, query: &Query) -> Option<QueryOutput> {
        if !self.enabled {
            return None;
        }
        let key = (epoch, seq, *query);
        let found = {
            let shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
            shard.map.get(&key).cloned()
        };
        match &found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Store a completed output. Evicts the shard's oldest entry when the
    /// per-shard bound is reached; re-inserting an existing key refreshes
    /// the value without growing the shard.
    pub fn insert(&self, epoch: u64, seq: u64, query: Query, output: QueryOutput) {
        if !self.enabled {
            return;
        }
        let key = (epoch, seq, query);
        let mut shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        if shard.map.insert(key, output).is_some() {
            return; // refreshed in place, order entry already present
        }
        shard.order.push_back(key);
        if shard.order.len() > self.per_shard {
            if let Some(old) = shard.order.pop_front() {
                shard.map.remove(&old);
                self.evictions.inc();
            }
        }
    }

    /// Drop every entry (the publish/republish/compaction
    /// memory-reclamation sweep; epoch + delta-seq keying already keeps
    /// stale entries unreachable). Cleared entries count as evictions.
    pub fn invalidate(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            self.evictions.add(shard.map.len() as u64);
            shard.map.clear();
            shard.order.clear();
        }
    }

    /// Entries currently cached across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> ResultCache {
        ResultCache::new(
            capacity,
            Counter::default(),
            Counter::default(),
            Counter::default(),
        )
    }

    fn counts(c: &ResultCache) -> (u64, u64, u64) {
        (c.hits.get(), c.misses.get(), c.evictions.get())
    }

    #[test]
    fn hit_returns_the_stored_output_for_the_same_epoch_only() {
        let c = cache(64);
        let q = Query::Degree { vertex: 7 };
        assert_eq!(c.get(1, 0, &q), None);
        c.insert(1, 0, q, QueryOutput::Degree { out: 3, inc: 5 });
        assert_eq!(
            c.get(1, 0, &q),
            Some(QueryOutput::Degree { out: 3, inc: 5 })
        );
        // Same query, later epoch: structurally a miss — epoch keying is
        // the coherence mechanism.
        assert_eq!(c.get(2, 0, &q), None);
        // Same epoch, later delta-seq: also a miss — a mutation moved the
        // graph state even though no publish happened.
        assert_eq!(c.get(1, 1, &q), None);
        // Different params are different keys.
        assert_eq!(c.get(1, 0, &Query::Degree { vertex: 8 }), None);
        assert_eq!(counts(&c), (1, 4, 0));
    }

    #[test]
    fn khop_params_are_part_of_the_key() {
        let c = cache(64);
        c.insert(
            1,
            0,
            Query::KHop { source: 3, hops: 2 },
            QueryOutput::KHop(40),
        );
        c.insert(
            1,
            0,
            Query::KHop { source: 3, hops: 3 },
            QueryOutput::KHop(90),
        );
        assert_eq!(
            c.get(1, 0, &Query::KHop { source: 3, hops: 2 }),
            Some(QueryOutput::KHop(40))
        );
        assert_eq!(
            c.get(1, 0, &Query::KHop { source: 3, hops: 3 }),
            Some(QueryOutput::KHop(90))
        );
    }

    #[test]
    fn invalidate_clears_everything_and_counts_evictions() {
        let c = cache(64);
        for v in 0..10 {
            c.insert(
                1,
                0,
                Query::Degree { vertex: v },
                QueryOutput::KHop(v as u64),
            );
        }
        assert_eq!(c.len(), 10);
        c.invalidate();
        assert!(c.is_empty());
        assert_eq!(c.get(1, 0, &Query::Degree { vertex: 0 }), None);
        assert_eq!(counts(&c).2, 10, "cleared entries count as evictions");
    }

    #[test]
    fn capacity_bounds_entries_with_fifo_eviction() {
        // capacity 16 over 16 shards = 1 entry per shard: every insert into
        // an occupied shard evicts its previous occupant.
        let c = cache(16);
        for v in 0..200 {
            c.insert(
                1,
                0,
                Query::Degree { vertex: v },
                QueryOutput::KHop(v as u64),
            );
        }
        assert!(c.len() <= 16, "len {} exceeds capacity", c.len());
        assert_eq!(counts(&c).2 as usize + c.len(), 200);
    }

    #[test]
    fn reinsert_refreshes_without_growing() {
        let c = cache(64);
        let q = Query::Degree { vertex: 1 };
        c.insert(1, 0, q, QueryOutput::KHop(10));
        c.insert(1, 0, q, QueryOutput::KHop(20));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1, 0, &q), Some(QueryOutput::KHop(20)));
        assert_eq!(counts(&c).2, 0);
    }

    #[test]
    fn delta_seq_keying_isolates_every_graph_state() {
        // Property: over a seeded set of (epoch, delta-seq, query)
        // insertions, a lookup hits iff all three key parts match. A
        // mutation (seq bump) or a publish/compaction (epoch bump) makes
        // exactly the older state's entries unreachable and nothing else.
        let c = cache(16384);
        let mut expected = std::collections::HashMap::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let epoch = rng() % 4 + 1;
            let seq = rng() % 8;
            let vertex = (rng() % 16) as u32;
            let out = QueryOutput::KHop(rng());
            c.insert(epoch, seq, Query::Degree { vertex }, out.clone());
            expected.insert((epoch, seq, vertex), out);
        }
        for epoch in 1..=4u64 {
            for seq in 0..8u64 {
                for vertex in 0..16u32 {
                    assert_eq!(
                        c.get(epoch, seq, &Query::Degree { vertex }),
                        expected.get(&(epoch, seq, vertex)).cloned(),
                        "key ({epoch}, {seq}, {vertex})"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_capacity_disables_silently() {
        let c = cache(0);
        assert!(!c.enabled());
        c.insert(1, 0, Query::Degree { vertex: 1 }, QueryOutput::KHop(1));
        assert_eq!(c.get(1, 0, &Query::Degree { vertex: 1 }), None);
        assert!(c.is_empty());
        assert_eq!(counts(&c), (0, 0, 0), "disabled cache never counts");
    }
}
