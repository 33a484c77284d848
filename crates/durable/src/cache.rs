//! A small LRU cache of decoded index blocks, fronting the cold-segment
//! read path.
//!
//! Cold queries re-read the same sealed segments over and over. Reading a
//! block costs a seek, a checksum and a grammar parse per frame (the theme
//! is parsed once per scan, the frame is checked where it lies — see
//! [`crate::log`]); a block served from here costs none of that. The cache
//! maps one *index block* of a sealed segment to **all** of its decoded
//! records, whatever the scan that filled it was looking for, so the next
//! scan can ask a different question of it; a scan clones out of a cached
//! block only the records its predicate keeps. Keys carry the segment's
//! generation, so a compaction — which replaces input segments with a new
//! generation under new keys — never serves stale data: entries for the
//! deleted inputs simply age out.
//!
//! Only sealed segments are cached. The active segment grows under the
//! writer, so its last block is a moving target; it is also the hot tier's
//! territory — cold queries rarely touch it.
//!
//! Eviction is least-recently-used via a monotonic touch tick; with the
//! default capacity of 64 blocks the linear eviction scan is noise next to
//! one avoided block read.

use crate::codec::Record;
use std::collections::HashMap;

/// Identity of one cached block. Segment numbers are never reused and the
/// generation changes on every rewrite, so a key is forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BlockKey {
    /// First covered segment number (the segment's identity).
    pub segment: u32,
    /// Compaction generation of the file the block was read from.
    pub generation: u32,
    /// Byte offset of the block's first frame.
    pub offset: u64,
}

struct CacheEntry {
    touched: u64,
    /// The block's records with their frame index within the segment.
    records: Vec<(u32, Record)>,
}

/// The LRU block cache. Capacity 0 disables caching entirely.
pub(crate) struct BlockCache {
    capacity: usize,
    tick: u64,
    map: HashMap<BlockKey, CacheEntry>,
    hits: u64,
    misses: u64,
}

impl BlockCache {
    pub fn new(capacity: usize) -> BlockCache {
        BlockCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Does the cache hold anything at all (capacity above 0)?
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Look a block up, refreshing its recency. Counts a hit or miss.
    pub fn get(&mut self, key: BlockKey) -> Option<&[(u32, Record)]> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        match self.map.get_mut(&key) {
            Some(entry) => {
                entry.touched = self.tick;
                self.hits += 1;
                Some(&entry.records)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a freshly decoded block, evicting the least recently used
    /// entry when full.
    pub fn put(&mut self, key: BlockKey, records: Vec<(u32, Record)>) {
        if self.capacity == 0 {
            return;
        }
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
            }
        }
        self.tick += 1;
        self.map.insert(
            key,
            CacheEntry {
                touched: self.tick,
                records,
            },
        );
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime hit rate in percent (0 when never consulted).
    pub fn hit_rate_pct(&self) -> i64 {
        let total = self.hits + self.misses;
        (self.hits * 100).checked_div(total).unwrap_or(0) as i64
    }

    /// Blocks currently held.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)] // tests may panic freely

    use super::*;
    use sl_stt::Timestamp;

    fn key(segment: u32, offset: u64) -> BlockKey {
        BlockKey {
            segment,
            generation: 1,
            offset,
        }
    }

    fn block(n: i64) -> Vec<(u32, Record)> {
        vec![(0, Record::Horizon(Timestamp::from_millis(n)))]
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c = BlockCache::new(4);
        assert!(c.get(key(1, 8)).is_none());
        c.put(key(1, 8), block(1));
        assert!(c.get(key(1, 8)).is_some());
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert_eq!(c.hit_rate_pct(), 50);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = BlockCache::new(2);
        c.put(key(1, 0), block(1));
        c.put(key(2, 0), block(2));
        assert!(c.get(key(1, 0)).is_some()); // 1 is now fresher than 2
        c.put(key(3, 0), block(3)); // evicts 2
        assert_eq!(c.len(), 2);
        assert!(c.get(key(1, 0)).is_some());
        assert!(c.get(key(2, 0)).is_none());
        assert!(c.get(key(3, 0)).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = BlockCache::new(0);
        c.put(key(1, 0), block(1));
        assert!(c.get(key(1, 0)).is_none());
        assert_eq!((c.hits(), c.misses()), (0, 0));
        assert_eq!(c.hit_rate_pct(), 0);
    }
}
