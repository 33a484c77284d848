//! Zone indexes for compacted segments: per-granule key summaries that let
//! cold queries skip whole index blocks without decoding a single frame.
//!
//! Every segment already carries a sparse *time* index (min/max event time
//! per block of [`DurableConfig::index_every`] frames, rebuilt from the
//! recovery scan — see [`crate::SegmentLog`]). Compaction adds the second
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
//! becomes long-lived. The summaries are persisted next to the compacted
//! segment in a checksummed `.szi` sidecar ([`encode_sidecar`] /
//! [`decode_sidecar`]) so the on-disk artifact is self-describing; the
//! recovery scan rebuilds the same data and self-heals a missing or stale
//! sidecar.
//!
//! Spatial constraints are deliberately *not* summarised: a hashed granule
//! set cannot answer "does any stored extent intersect this box", so area
//! pruning would be unsound. Time and theme carry the selectivity in the
//! paper's workloads.
//!
//! [`DurableConfig::index_every`]: crate::DurableConfig::index_every

use crate::codec::crc32;
use crate::error::DurableError;
use sl_stt::{Theme, TimeInterval};

/// Magic prefix of a zone-index sidecar file.
const SIDECAR_MAGIC: &[u8; 4] = b"SLZI";
/// Sidecar format version.
const SIDECAR_VERSION: u8 = 1;

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

    /// The raw 256 bits, little-end first (sidecar encoding).
    pub fn to_words(self) -> [u64; 4] {
        self.bits
    }

    /// Rebuild from [`ThemeFilter::to_words`].
    pub fn from_words(bits: [u64; 4]) -> ThemeFilter {
        ThemeFilter { bits }
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

/// One entry of a serialised zone index: the per-block facts the sidecar
/// persists (mirrors the in-memory index block of the segment log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneEntry {
    /// Byte offset of the block's first frame.
    pub offset: u64,
    /// Frames in the block.
    pub frames: u32,
    /// Minimum event-interval start (ms); `i64::MAX` when no events.
    pub min_start: i64,
    /// Maximum event-interval end (ms); `i64::MIN` when no events.
    pub max_end: i64,
    /// Theme-prefix summary of the block's events.
    pub filter: ThemeFilter,
}

/// A decoded `.szi` sidecar: the zone index of one compacted segment plus
/// enough shape (frame count, file length) to detect staleness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sidecar {
    /// Total frames in the indexed segment.
    pub frames: u32,
    /// Total bytes of the indexed segment file (header included).
    pub bytes: u64,
    /// One entry per index block, in file order.
    pub entries: Vec<ZoneEntry>,
}

/// Serialise a sidecar: magic, version, shape, entries, trailing CRC-32
/// over everything before it.
pub fn encode_sidecar(sidecar: &Sidecar) -> Vec<u8> {
    let mut w = Vec::with_capacity(32 + sidecar.entries.len() * 48);
    w.extend_from_slice(SIDECAR_MAGIC);
    w.push(SIDECAR_VERSION);
    w.extend_from_slice(&sidecar.frames.to_le_bytes());
    w.extend_from_slice(&sidecar.bytes.to_le_bytes());
    w.extend_from_slice(&(sidecar.entries.len() as u32).to_le_bytes());
    for e in &sidecar.entries {
        w.extend_from_slice(&e.offset.to_le_bytes());
        w.extend_from_slice(&e.frames.to_le_bytes());
        w.extend_from_slice(&e.min_start.to_le_bytes());
        w.extend_from_slice(&e.max_end.to_le_bytes());
        for word in e.filter.to_words() {
            w.extend_from_slice(&word.to_le_bytes());
        }
    }
    let crc = crc32(&w);
    w.extend_from_slice(&crc.to_le_bytes());
    w
}

/// Decode and verify a sidecar produced by [`encode_sidecar`].
pub fn decode_sidecar(bytes: &[u8]) -> Result<Sidecar, DurableError> {
    let corrupt = |what: &str| DurableError::Corrupt(format!("zone-index sidecar: {what}"));
    if bytes.len() < 4 + 1 + 4 + 8 + 4 + 4 {
        return Err(corrupt("truncated"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(body) != stored {
        return Err(corrupt("bad checksum"));
    }
    if &body[..4] != SIDECAR_MAGIC {
        return Err(corrupt("bad magic"));
    }
    if body[4] != SIDECAR_VERSION {
        return Err(corrupt("unknown version"));
    }
    let mut at = 5usize;
    let frames = u32::from_le_bytes(take::<4>(body, &mut at)?);
    let total_bytes = u64::from_le_bytes(take::<8>(body, &mut at)?);
    let count = u32::from_le_bytes(take::<4>(body, &mut at)?) as usize;
    let mut entries = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let offset = u64::from_le_bytes(take::<8>(body, &mut at)?);
        let block_frames = u32::from_le_bytes(take::<4>(body, &mut at)?);
        let min_start = i64::from_le_bytes(take::<8>(body, &mut at)?);
        let max_end = i64::from_le_bytes(take::<8>(body, &mut at)?);
        let mut words = [0u64; 4];
        for w in &mut words {
            *w = u64::from_le_bytes(take::<8>(body, &mut at)?);
        }
        entries.push(ZoneEntry {
            offset,
            frames: block_frames,
            min_start,
            max_end,
            filter: ThemeFilter::from_words(words),
        });
    }
    if at != body.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(Sidecar {
        frames,
        bytes: total_bytes,
        entries,
    })
}

/// Read the next `N` bytes of `body` as a fixed array, advancing `at`.
fn take<const N: usize>(body: &[u8], at: &mut usize) -> Result<[u8; N], DurableError> {
    let slice = body
        .get(*at..*at + N)
        .ok_or_else(|| DurableError::Corrupt("zone-index sidecar: truncated".into()))?;
    *at += N;
    let mut arr = [0u8; N];
    arr.copy_from_slice(slice);
    Ok(arr)
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

    #[test]
    fn sidecar_round_trip() {
        let mut filter = ThemeFilter::new();
        filter.insert(&theme("weather/rain"));
        let sidecar = Sidecar {
            frames: 130,
            bytes: 9000,
            entries: vec![
                ZoneEntry {
                    offset: 8,
                    frames: 64,
                    min_start: 1000,
                    max_end: 2000,
                    filter,
                },
                ZoneEntry {
                    offset: 4000,
                    frames: 66,
                    min_start: i64::MAX,
                    max_end: i64::MIN,
                    filter: ThemeFilter::new(),
                },
            ],
        };
        let bytes = encode_sidecar(&sidecar);
        assert_eq!(decode_sidecar(&bytes).unwrap(), sidecar);
    }

    #[test]
    fn sidecar_rejects_damage() {
        let sidecar = Sidecar {
            frames: 1,
            bytes: 100,
            entries: Vec::new(),
        };
        let good = encode_sidecar(&sidecar);
        let mut bad = good.clone();
        bad[6] ^= 0x01;
        assert!(decode_sidecar(&bad).is_err(), "bit flip detected");
        assert!(
            decode_sidecar(&good[..good.len() - 1]).is_err(),
            "truncation"
        );
        assert!(decode_sidecar(b"").is_err());
    }

    /// A sidecar is bytes the system may not have written: whatever they
    /// are, `decode_sidecar` answers `Ok` or `Err` and never panics.
    #[test]
    fn decode_sidecar_never_panics_on_a_damaged_sidecar() {
        let mut filter = ThemeFilter::new();
        filter.insert(&theme("weather/rain"));
        let entry = ZoneEntry {
            offset: 8,
            frames: 64,
            min_start: 1000,
            max_end: 2000,
            filter,
        };
        let good = encode_sidecar(&Sidecar {
            frames: 128,
            bytes: 9000,
            entries: vec![entry, entry],
        });
        for cut in 0..good.len() {
            assert!(decode_sidecar(&good[..cut]).is_err(), "cut at {cut}");
        }
        for i in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[i] ^= 1 << bit;
                assert!(decode_sidecar(&bad).is_err(), "byte {i}, bit {bit}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn decode_sidecar_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..160),
            count in proptest::any::<u32>(),
        ) {
            let _ = decode_sidecar(&bytes);
            // The same bytes as a body that passes every check before the
            // grammar: magic, version and a matching checksum, under both
            // their own entry count and an arbitrary one.
            for count in [None, Some(count)] {
                let mut framed = SIDECAR_MAGIC.to_vec();
                framed.push(SIDECAR_VERSION);
                framed.extend_from_slice(&bytes);
                if let (Some(count), Some(field)) = (count, framed.get_mut(17..21)) {
                    field.copy_from_slice(&count.to_le_bytes());
                }
                let crc = crc32(&framed);
                framed.extend_from_slice(&crc.to_le_bytes());
                let _ = decode_sidecar(&framed);
            }
        }
    }
}
