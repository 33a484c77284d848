//! Size-tiered compaction policy for the segment log.
//!
//! Appends and seals produce many small generation-0 segments; every cold
//! query pays a per-segment toll (open, per-block seeks, frame decodes) on
//! each of them, forever. Compaction merges a run of adjacent sealed
//! segments of one generation into a single generation-N+1 segment,
//! preserving record order exactly — the merged file is the concatenation
//! of its inputs' surviving records, so replay, tiered queries, and
//! continuous-query re-seeding stay byte-identical (the contract
//! property-tested in `tests/compaction_props.rs`). What compaction *does*
//! drop:
//!
//! * **Redundant horizon markers** — a marker is dead weight when a later
//!   marker anywhere in the log carries an equal or higher horizon (the
//!   suffix-maximum over every log position is unchanged by removing it).
//! * **Superseded checkpoint frames** — recovery folds each
//!   `(deployment, service)` checkpoint log from its last base on, so
//!   within the merged run every frame before a key's last base is dead,
//!   and that base with the deltas after it is rewritten as one base. A
//!   run holding deltas of a key but no base keeps them verbatim: their
//!   base lives in an earlier segment.
//! * **Expired cold events** — when [`CompactionPolicy::cold_retention`]
//!   bounds the cold tier, events already evicted from the hot store whose
//!   interval ended before `now - cold_retention` are aged out for good.
//!   Events still hot (late arrivals never covered by a marker) are never
//!   dropped: the hot store is rebuilt from the log on open.
//!
//! Events are *never* deduplicated — two equal events are two observations,
//! and queries must keep counting both.
//!
//! The planning half lives here as pure functions over segment metadata so
//! it is testable without touching a disk; [`crate::DurableWarehouse`]
//! executes the plan (it owns the horizon markers that decide coldness) and
//! [`crate::SegmentLog`] performs the crash-safe file replacement.
//!
//! A merge costs memory per block, not per run. It walks its run twice
//! through one reused block buffer: the first pass decodes every frame
//! (so a damaged input fails the merge before anything is written) and
//! keeps only each checkpoint key's fold from its last base on; the second
//! applies the drop rules above and writes each survivor straight into the
//! product's temporary file through a bounded write buffer, building the
//! product's index as it goes. The run itself is never held in memory.

use sl_stt::Duration;

/// When and what to compact. Carried by
/// [`DurableConfig::compaction`](crate::DurableConfig::compaction);
/// evaluated at every engine monitor tick (like retention eviction) and on
/// explicit `compact_now` calls.
#[derive(Debug, Clone)]
pub struct CompactionPolicy {
    /// Master switch. Off by default: compaction rewrites files, and a
    /// deployment must opt into that (lint SL092 flags retention-bearing
    /// durable deployments that forget to).
    pub enabled: bool,
    /// Merge only runs of at least this many adjacent same-generation
    /// sealed segments (amortises the rewrite).
    pub min_inputs: usize,
    /// Merge at most this many segments per run (bounds pause time).
    pub max_inputs: usize,
    /// Only segments at or under this size are merge candidates — the
    /// size-tiered knob: each generation's output grows past it and
    /// eventually stops being picked up.
    pub small_bytes: u64,
    /// Age bound of the *cold* tier: compaction permanently drops cold
    /// events whose interval ended before `now - cold_retention`. `None`
    /// keeps cold events forever (and preserves byte-identical queries
    /// across compaction). Distinct from the engine's `retention`, which
    /// decides when events leave the *hot* tier.
    pub cold_retention: Option<Duration>,
}

impl Default for CompactionPolicy {
    fn default() -> CompactionPolicy {
        CompactionPolicy {
            enabled: false,
            min_inputs: 4,
            max_inputs: 16,
            small_bytes: 4 * 1024 * 1024,
            cold_retention: None,
        }
    }
}

impl CompactionPolicy {
    /// The default policy with the master switch on.
    pub fn enabled() -> CompactionPolicy {
        CompactionPolicy {
            enabled: true,
            ..CompactionPolicy::default()
        }
    }

    /// Replace the merge-run bounds.
    pub fn with_inputs(mut self, min: usize, max: usize) -> CompactionPolicy {
        self.min_inputs = min.max(2);
        self.max_inputs = max.max(self.min_inputs);
        self
    }

    /// Bound the cold tier's age.
    pub fn with_cold_retention(mut self, window: Duration) -> CompactionPolicy {
        self.cold_retention = Some(window);
        self
    }
}

/// Metadata of one sealed segment, in log order (what planning sees).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// First covered segment number (the segment's identity and sort key).
    pub first: u32,
    /// Last covered segment number (`== first` for generation 0).
    pub last: u32,
    /// Compaction generation (0 = written by the appender).
    pub generation: u32,
    /// File length in bytes, header included.
    pub bytes: u64,
    /// Frames in the segment.
    pub frames: u32,
}

/// A chosen merge: the covered segment-number range and the output
/// generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeRun {
    /// First covered segment number.
    pub first: u32,
    /// Last covered segment number.
    pub last: u32,
    /// Generation of the output segment (one above the inputs' maximum).
    pub generation: u32,
    /// How many input segments the run merges.
    pub inputs: usize,
}

/// Pick the next merge under `policy`: the earliest run of at least
/// `min_inputs` adjacent sealed segments sharing the lowest qualifying
/// generation, each at or under `small_bytes`. Returns `None` when nothing
/// qualifies (steady state).
pub fn plan(sealed: &[SegmentMeta], policy: &CompactionPolicy) -> Option<MergeRun> {
    let mut gens: Vec<u32> = sealed.iter().map(|m| m.generation).collect();
    gens.sort_unstable();
    gens.dedup();
    for g in gens {
        let mut i = 0;
        while i < sealed.len() {
            let eligible = |m: &SegmentMeta| m.generation == g && m.bytes <= policy.small_bytes;
            if !eligible(&sealed[i]) {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < sealed.len() && j - i < policy.max_inputs && eligible(&sealed[j]) {
                j += 1;
            }
            if j - i >= policy.min_inputs.max(2) {
                return Some(MergeRun {
                    first: sealed[i].first,
                    last: sealed[j - 1].last,
                    generation: g + 1,
                    inputs: j - i,
                });
            }
            i = j;
        }
    }
    None
}

/// The forced plan behind `compact_now`: merge *every* sealed segment into
/// one, regardless of policy thresholds. `None` with fewer than two sealed
/// segments (nothing to merge).
pub fn plan_forced(sealed: &[SegmentMeta]) -> Option<MergeRun> {
    if sealed.len() < 2 {
        return None;
    }
    let max_gen = sealed.iter().map(|m| m.generation).max().unwrap_or(0);
    Some(MergeRun {
        first: sealed[0].first,
        last: sealed[sealed.len() - 1].last,
        generation: max_gen + 1,
        inputs: sealed.len(),
    })
}

/// What one compaction run did (returned by
/// `DurableWarehouse::maybe_compact` and surfaced in the engine monitor's
/// durability section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Input segments merged.
    pub segments_in: usize,
    /// Generation of the output segment.
    pub generation: u32,
    /// On-disk bytes of the inputs before the merge.
    pub bytes_before: u64,
    /// On-disk bytes of the output segment.
    pub bytes_after: u64,
    /// Cold events aged out under `cold_retention`.
    pub events_dropped: u64,
    /// Redundant horizon markers removed.
    pub markers_dropped: u64,
    /// Checkpoint frames removed: superseded by a later base, or folded
    /// into it.
    pub checkpoints_dropped: u64,
    /// Wall-clock pause, in microseconds.
    pub duration_us: u64,
}

impl CompactionStats {
    /// Bytes the merge gave back to the filesystem.
    pub fn bytes_reclaimed(&self) -> u64 {
        self.bytes_before.saturating_sub(self.bytes_after)
    }

    /// Total records of any kind the merge dropped.
    pub fn records_dropped(&self) -> u64 {
        self.events_dropped + self.markers_dropped + self.checkpoints_dropped
    }
}

#[cfg(test)]
mod tests {

    use super::*;

    impl CompactionPolicy {
        /// Replace the size-tier bound.
        pub(crate) fn with_small_bytes(mut self, bytes: u64) -> CompactionPolicy {
            self.small_bytes = bytes;
            self
        }
    }

    fn meta(first: u32, generation: u32, bytes: u64) -> SegmentMeta {
        SegmentMeta {
            first,
            last: first,
            generation,
            bytes,
            frames: 10,
        }
    }

    #[test]
    fn plans_earliest_qualifying_run() {
        let policy = CompactionPolicy::enabled().with_inputs(3, 8);
        let sealed = vec![
            meta(1, 0, 100),
            meta(2, 0, 100),
            meta(3, 0, 100),
            meta(4, 0, 100),
        ];
        let run = plan(&sealed, &policy).unwrap();
        assert_eq!(
            (run.first, run.last, run.generation, run.inputs),
            (1, 4, 1, 4)
        );
    }

    #[test]
    fn short_runs_and_big_segments_do_not_qualify() {
        let policy = CompactionPolicy::enabled()
            .with_inputs(3, 8)
            .with_small_bytes(500);
        // A big segment splits the run: two short runs remain.
        let sealed = vec![
            meta(1, 0, 100),
            meta(2, 0, 100),
            meta(3, 0, 9_000),
            meta(4, 0, 100),
            meta(5, 0, 100),
        ];
        assert_eq!(plan(&sealed, &policy), None);
    }

    #[test]
    fn lower_generations_are_preferred_and_tiers_stack() {
        let policy = CompactionPolicy::enabled().with_inputs(2, 8);
        // A gen-1 product followed by fresh gen-0 segments: the gen-0 run
        // is merged first (lowest qualifying generation).
        let sealed = vec![
            SegmentMeta {
                first: 1,
                last: 4,
                generation: 1,
                bytes: 400,
                frames: 40,
            },
            meta(5, 0, 100),
            meta(6, 0, 100),
        ];
        let run = plan(&sealed, &policy).unwrap();
        assert_eq!((run.first, run.last, run.generation), (5, 6, 1));
    }

    #[test]
    fn max_inputs_bounds_the_run() {
        let policy = CompactionPolicy::enabled().with_inputs(2, 3);
        let sealed: Vec<_> = (1..=6).map(|n| meta(n, 0, 100)).collect();
        let run = plan(&sealed, &policy).unwrap();
        assert_eq!((run.first, run.last, run.inputs), (1, 3, 3));
    }

    #[test]
    fn forced_plan_merges_everything() {
        let sealed = vec![
            SegmentMeta {
                first: 1,
                last: 3,
                generation: 2,
                bytes: 500,
                frames: 30,
            },
            meta(4, 0, 100),
        ];
        let run = plan_forced(&sealed).unwrap();
        assert_eq!(
            (run.first, run.last, run.generation, run.inputs),
            (1, 4, 3, 2)
        );
        assert_eq!(
            plan_forced(&sealed[..1]),
            None,
            "one segment: nothing to merge"
        );
    }

    #[test]
    fn stats_arithmetic() {
        let s = CompactionStats {
            segments_in: 4,
            generation: 1,
            bytes_before: 1000,
            bytes_after: 700,
            events_dropped: 5,
            markers_dropped: 3,
            checkpoints_dropped: 1,
            duration_us: 42,
        };
        assert_eq!(s.bytes_reclaimed(), 300);
        assert_eq!(s.records_dropped(), 9);
    }
}
