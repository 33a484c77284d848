//! Zone indexes for compacted segments: per-granule key summaries that let
//! cold queries skip whole index blocks without decoding a single frame.
//!
//! Every segment already carries a sparse *time* index (min/max event time
//! per block of 64 frames, rebuilt from the recovery scan — see
//! [`crate::SegmentLog`]). Compaction adds the second
//! dimension: a [`ThemeFilter`] per block, a small bloom-style summary over
//! every *ancestor prefix* of every stored event's theme path. A query
//! constrained to theme `t` matches an event `e` iff `t` is a prefix of
//! `e.theme` — so if `t` is not in the block's filter, no event in the
//! block can match and the whole block is skipped (sound: ancestors are
//! inserted exhaustively, so the filter has no false negatives; false
//! positives only cost a decode).
//!
//! Filters exist only for generation ≥ 1 segments. Generation-0 segments
//! are written on the hot append path, where per-event hashing would tax
//! ingest latency for segments that are usually transient; compaction
//! computes the summaries once, off the critical path, when a segment
//! becomes long-lived. Like the time index, they live in memory only: the
//! recovery scan decodes every frame anyway and rebuilds them on open, so
//! a segment is one file and its frames are the only thing on disk.
//!
//! Spatial constraints are deliberately *not* summarised: a hashed granule
//! set cannot answer "does any stored extent intersect this box", so area
//! pruning would be unsound. Time and theme carry the selectivity in the
//! paper's workloads.

use sl_stt::{Theme, TimeInterval};

/// Bits in a [`ThemeFilter`] (4 × 64).
const FILTER_BITS: u64 = 256;
/// Hash functions per inserted key.
const FILTER_HASHES: u32 = 2;

/// A 256-bit bloom-style summary of the theme-path prefixes stored in one
/// index block. No false negatives: [`ThemeFilter::insert`] adds every
/// ancestor of the event's theme, so any subtree query that could match an
/// event in the block tests positive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThemeFilter {
    bits: [u64; 4],
}

impl ThemeFilter {
    /// The empty filter (matches nothing).
    pub fn new() -> ThemeFilter {
        ThemeFilter::default()
    }

    /// Record one event's theme: the theme itself and every ancestor
    /// prefix, so subtree queries at any depth can be tested.
    pub fn insert(&mut self, theme: &Theme) {
        let path = theme.as_str();
        for (i, b) in path.bytes().enumerate() {
            if b == b'/' {
                self.insert_key(&path[..i]);
            }
        }
        self.insert_key(path);
    }

    /// May any recorded event's theme be `query` or a descendant of it?
    /// `false` is definitive; `true` may be a false positive.
    pub fn may_contain(&self, query: &Theme) -> bool {
        let h = fnv1a(query.as_str().as_bytes());
        (0..FILTER_HASHES).all(|k| {
            let bit = bit_of(h, k);
            self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }

    /// True when nothing was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.bits == [0; 4]
    }

    fn insert_key(&mut self, key: &str) {
        let h = fnv1a(key.as_bytes());
        for k in 0..FILTER_HASHES {
            let bit = bit_of(h, k);
            self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }
}

/// FNV-1a 64-bit hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `k`-th derived bit position of hash `h` (double hashing).
fn bit_of(h: u64, k: u32) -> u64 {
    let h2 = (h >> 32) | 1; // odd, so successive probes differ
    h.wrapping_add(u64::from(k).wrapping_mul(h2)) % FILTER_BITS
}

/// The block-skipping constraints of one cold query: the subset of an
/// `EventQuery` a zone index can act on. Only *event* records matter to a
/// pruned scan — blocks holding no events are always skippable.
#[derive(Debug, Clone, Default)]
pub struct Pruner {
    /// Skip blocks whose event time bounds cannot overlap this range.
    pub time: Option<TimeInterval>,
    /// Skip blocks whose theme filter (generation ≥ 1 only) excludes this
    /// subtree.
    pub theme: Option<Theme>,
    /// Skip what cannot hold a *cold* event (set by cold-tier queries only).
    pub frontier: Option<ColdFrontier>,
}

/// How far coldness can reach in a log: an event is cold only if a later
/// horizon marker covers its interval end, so nothing after the last marker
/// and nothing starting past the highest horizon is cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColdFrontier {
    /// Segment number of the last horizon marker: later segments are hot.
    pub last_marker_segment: u32,
    /// Highest horizon ever recorded (ms): blocks whose events all start
    /// after it are hot.
    pub max_horizon: i64,
}

impl Pruner {
    /// A pruner that skips nothing: full scans read every record.
    pub fn keep_all() -> Pruner {
        Pruner::default()
    }

    /// True when any constraint is set, i.e. only *event* records matter to
    /// the scan and event-free blocks may be skipped.
    pub fn is_constrained(&self) -> bool {
        self.time.is_some() || self.theme.is_some() || self.frontier.is_some()
    }
}

#[cfg(test)]
mod tests {

    use super::*;

    fn theme(path: &str) -> Theme {
        Theme::new(path).unwrap()
    }

    #[test]
    fn filter_has_no_false_negatives_for_ancestors() {
        let mut f = ThemeFilter::new();
        f.insert(&theme("weather/rain/intensity"));
        // Every ancestor of an inserted theme must test positive: a query
        // at any of these depths can match the event.
        assert!(f.may_contain(&theme("weather")));
        assert!(f.may_contain(&theme("weather/rain")));
        assert!(f.may_contain(&theme("weather/rain/intensity")));
    }

    #[test]
    fn filter_excludes_unrelated_themes() {
        let mut f = ThemeFilter::new();
        for t in ["weather/temperature", "weather/rain"] {
            f.insert(&theme(t));
        }
        // Small filter, tiny insert set: unrelated keys should miss. (Not
        // guaranteed per-key — bloom false positives exist — but these
        // specific keys miss, and a regression to always-true would fail.)
        let miss = ["social/tweet", "traffic/flow", "air/pm25", "water/level"]
            .iter()
            .filter(|t| !f.may_contain(&theme(t)))
            .count();
        assert!(
            miss >= 3,
            "filter prunes unrelated themes ({miss}/4 missed)"
        );
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = ThemeFilter::new();
        assert!(f.is_empty());
        assert!(!f.may_contain(&theme("weather")));
    }
}
