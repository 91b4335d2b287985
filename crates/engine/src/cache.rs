//! LRU result cache keyed on `(graph epoch, query)`.
//!
//! A hit hands back the same `Arc<QueryOutput>` the first run produced
//! (and the reply summary computed with it), so repeated queries against
//! an unchanged snapshot cost one hash-map probe instead of a traversal. Keying on the epoch makes invalidation
//! implicit: installing a new graph bumps the epoch and every old entry
//! simply stops matching (and ages out of the LRU). Hit/miss counters
//! feed the engine's trace summary.

use crate::query::{Answer, Query};
use std::collections::HashMap;

/// Cache key: the snapshot epoch plus the full typed query.
pub type CacheKey = (u64, Query);

struct Entry {
    value: Answer,
    last_used: u64,
}

/// Fixed-capacity LRU map. Not internally synchronized — the engine wraps
/// it in a `Mutex`, which also keeps the hit/miss counters consistent
/// with the probes that produced them.
pub struct ResultCache {
    capacity: usize,
    map: HashMap<CacheKey, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` results. Capacity 0 disables
    /// caching (every probe is a miss, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        ResultCache { capacity, map: HashMap::new(), tick: 0, hits: 0, misses: 0, evictions: 0 }
    }

    /// Probes for a cached result, counting a hit or a miss.
    pub fn get(&mut self, key: &CacheKey) -> Option<Answer> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(e) => {
                e.last_used = tick;
                self.hits += 1;
                Some(e.value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a result, evicting the least-recently-used entry when at
    /// capacity.
    pub fn insert(&mut self, key: CacheKey, value: Answer) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.map.insert(key, Entry { value, last_used: self.tick });
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Probes that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Probes that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries pushed out by LRU capacity pressure (not epoch aging —
    /// stale-epoch entries leave through this same LRU path, since an
    /// epoch bump makes them unprobed and therefore oldest).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryOutput;
    use ligra_apps::CcResult;
    use std::sync::Arc;

    fn out(rounds: usize) -> Answer {
        Answer::new(QueryOutput::Cc(CcResult { label: vec![], rounds }))
    }

    #[test]
    fn hit_returns_same_arc_and_counts() {
        let mut c = ResultCache::new(4);
        let key = (1, Query::Cc);
        assert!(c.get(&key).is_none());
        let v = out(3);
        c.insert(key.clone(), v.clone());
        let got = c.get(&key).unwrap();
        assert!(Arc::ptr_eq(&got.output, &v.output));
        assert!(Arc::ptr_eq(&got.summary, &v.summary));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn epoch_changes_miss() {
        let mut c = ResultCache::new(4);
        c.insert((1, Query::Cc), out(3));
        assert!(c.get(&(2, Query::Cc)).is_none());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ResultCache::new(2);
        let a = (1, Query::Bfs { source: 0 });
        let b = (1, Query::Bfs { source: 1 });
        let d = (1, Query::Bfs { source: 2 });
        c.insert(a.clone(), out(1));
        c.insert(b.clone(), out(2));
        let _ = c.get(&a); // a is now fresher than b
        c.insert(d.clone(), out(3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.get(&a).is_some());
        assert!(c.get(&b).is_none(), "b was LRU and should have been evicted");
        assert!(c.get(&d).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(0);
        c.insert((1, Query::Cc), out(1));
        assert!(c.get(&(1, Query::Cc)).is_none());
        assert!(c.is_empty());
    }
}
