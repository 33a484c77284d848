//! The append-only segment log.
//!
//! A log directory holds numbered segment files (`seg-000001.slg`, ...).
//! Each segment starts with an 8-byte header (`b"SLDUR"`, the codec
//! version, two reserved bytes) followed by checksummed frames (see
//! [`crate::codec`]). The last segment is *active*: appends go there until
//! it reaches [`DurableConfig::segment_max_bytes`], at which point it is
//! sealed (fsynced) and a fresh segment is started — sealed segments are
//! never written again, which is what makes them safe cold storage for
//! [`crate::DurableWarehouse`]'s spilled events.
//!
//! # Generations
//!
//! Compaction (see [`crate::compact`]) merges a run of sealed segments into
//! one *generation-N* segment named `seg-AAAAAA-BBBBBB-gN.slg`, covering
//! the original numbers `AAAAAA..=BBBBBB`. Its frames are renumbered
//! `0..n` and positions within it use the first covered number, so
//! [`LogPos`] order still equals append order across the whole log.
//! Generation ≥ 1 segments carry a per-block [`ThemeFilter`] zone index.
//! Like the time index it lives in memory only and is rebuilt by the
//! recovery scan, so every segment is exactly one file.
//!
//! The replacement itself is crash-safe: the product is streamed into a
//! temporary file through a bounded buffer, fsynced, renamed into place,
//! and only then are the input segments deleted; a merge that fails before
//! the rename deletes its temporary file. [`SegmentLog::open`] finishes whatever a crash
//! interrupted — stray `.tmp` files are removed (as are the `.szi` zone
//! index files earlier versions wrote beside compacted segments), and when
//! both a product and its inputs survive, the product wins if it verifies
//! end-to-end, otherwise the inputs do.
//!
//! # Recovery
//!
//! [`SegmentLog::open`] walks every segment front to back, verifying each
//! frame's checksum, through the one frame walk every read of the log uses:
//! a bounded buffer read a chunk at a time, never a whole file. At the first
//! incomplete or corrupt frame it truncates the file right there and —
//! because a corrupt *middle* segment means everything after it is of
//! unknown provenance — deletes any later segments. Everything before the
//! cut is returned to the caller; the [`RecoveryReport`] accounts for
//! everything after it. A torn or missing header truncates the segment to
//! empty. This is the standard truncate-on-recovery discipline of
//! log-structured stores: an fsynced frame is never lost, an unsynced tail
//! is *visibly* dropped, and no half-written bytes are ever decoded.
//!
//! # Fsync policy
//!
//! [`FsyncPolicy`] trades durability for throughput: `Always` makes every
//! append crash-safe, `EveryN` bounds the loss window to n-1 records,
//! `OnSeal` only guarantees sealed segments. The fsync latency histogram
//! and byte counters are exported through [`SegmentLog::metrics_snapshot`].

use crate::codec::{
    frame_into, read_frame, FrameRead, Record, ThemeTable, CODEC_VERSION, MAX_FRAME_BYTES,
};
use crate::compact::{CompactionPolicy, SegmentMeta};
use crate::error::DurableError;
use crate::index::{Pruner, ThemeFilter};
use sl_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Stopwatch};
use sl_stt::{Event, Theme, TimeInterval};
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of every segment file.
const MAGIC: &[u8; 5] = b"SLDUR";
/// Full header: magic, codec version, two reserved bytes.
const HEADER_LEN: u64 = 8;
/// Sparse time index stride: one index block per this many frames.
const INDEX_EVERY: u32 = 64;

/// When to force written frames onto stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append — every acked record survives any crash.
    Always,
    /// fsync after every `n` appends — bounds loss to the last `n-1` records.
    EveryN(u32),
    /// fsync only when a segment seals (and on explicit [`SegmentLog::sync`]).
    OnSeal,
}

/// Configuration of a durable log directory.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// Durability/throughput trade-off.
    pub fsync: FsyncPolicy,
    /// Seal the active segment when it exceeds this many bytes.
    pub segment_max_bytes: u64,
    /// Background storage maintenance: when and what to compact.
    pub compaction: CompactionPolicy,
}

impl DurableConfig {
    /// Defaults rooted at `dir`: fsync every write (the safe default),
    /// 1 MiB segments, compaction off.
    pub fn at(dir: impl Into<PathBuf>) -> DurableConfig {
        DurableConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            segment_max_bytes: 1024 * 1024,
            compaction: CompactionPolicy::default(),
        }
    }

    /// Replace the fsync policy.
    pub fn with_fsync(mut self, policy: FsyncPolicy) -> DurableConfig {
        self.fsync = policy;
        self
    }

    /// Replace the segment size bound.
    pub fn with_segment_max_bytes(mut self, bytes: u64) -> DurableConfig {
        self.segment_max_bytes = bytes.max(HEADER_LEN + 1);
        self
    }

    /// Replace the compaction policy.
    pub fn with_compaction(mut self, policy: CompactionPolicy) -> DurableConfig {
        self.compaction = policy;
        self
    }
}

/// Position of a frame in the log: (segment number, frame index within it).
/// Ordered by log append order. A compacted segment covering numbers
/// `first..=last` uses `first` as its segment number, so order is preserved
/// across compactions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogPos {
    /// Segment number (the `NNNNNN` in `seg-NNNNNN.slg`; the first covered
    /// number for a compacted segment).
    pub segment: u32,
    /// Zero-based frame index within the segment.
    pub frame: u32,
}

/// What [`SegmentLog::open`] found — and what it had to cut.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// Event records recovered.
    pub events: u64,
    /// Checkpoint records recovered (bases and deltas).
    pub checkpoints: u64,
    /// Horizon markers recovered.
    pub horizons: u64,
    /// Bytes removed by torn-tail truncation (including any dropped
    /// segments' payload bytes).
    pub truncated_bytes: u64,
    /// Whole later segments deleted because an earlier one was corrupt.
    pub dropped_segments: u64,
    /// Segments deleted while finishing an interrupted compaction (either
    /// inputs superseded by a verified product, or a damaged product
    /// superseded by its surviving inputs). Not data loss.
    pub superseded_segments: u64,
    /// Wall-clock recovery time in microseconds.
    pub duration_us: u64,
}

impl RecoveryReport {
    /// Total records recovered.
    pub fn records(&self) -> u64 {
        self.events + self.checkpoints + self.horizons
    }

    /// True if recovery had to cut anything (torn tail or dropped segments).
    pub fn lossy(&self) -> bool {
        self.truncated_bytes > 0 || self.dropped_segments > 0
    }
}

/// One index block: `frames` consecutive frames starting at byte `offset`,
/// with the time bounds of the *event* records among them and, for
/// generation ≥ 1 segments, a theme-prefix summary of those events.
#[derive(Debug, Clone)]
struct IndexBlock {
    offset: u64,
    frames: u32,
    /// Minimum `interval.start` over events in the block (ms); `i64::MAX`
    /// when the block holds no events.
    min_start: i64,
    /// Maximum `interval.end` over events in the block (ms); `i64::MIN`
    /// when the block holds no events.
    max_end: i64,
    /// Theme summary (generation ≥ 1 segments only).
    filter: Option<ThemeFilter>,
}

impl IndexBlock {
    fn at(offset: u64, with_filter: bool) -> IndexBlock {
        IndexBlock {
            offset,
            frames: 0,
            min_start: i64::MAX,
            max_end: i64::MIN,
            filter: with_filter.then(ThemeFilter::new),
        }
    }

    /// Can any event in this block overlap `range`? (No events → no.)
    fn may_overlap(&self, range: &TimeInterval) -> bool {
        self.min_start < range.end.as_millis() && range.start.as_millis() < self.max_end
    }

    /// Can any event in this block satisfy every constraint in `pruner`?
    /// With no constraints, always true (full scans read everything).
    fn may_match(&self, pruner: &Pruner) -> bool {
        if pruner.is_constrained() && self.min_start == i64::MAX {
            return false; // no events in the block
        }
        if pruner
            .frontier
            .is_some_and(|f| self.min_start > f.max_horizon)
        {
            return false; // every event here ends after every horizon
        }
        if let Some(range) = &pruner.time {
            if !self.may_overlap(range) {
                return false;
            }
        }
        if let (Some(theme), Some(filter)) = (&pruner.theme, &self.filter) {
            if !filter.may_contain(theme) {
                return false;
            }
        }
        true
    }
}

/// In-memory state of one on-disk segment. The sparse index is rebuilt from
/// the file on open — only the frames live on disk.
#[derive(Debug)]
struct Segment {
    /// First covered segment number: the segment's identity and the
    /// `segment` field of every position within it.
    number: u32,
    /// Last covered segment number (`== number` for generation 0).
    last: u32,
    /// Compaction generation (0 = written by the appender).
    generation: u32,
    path: PathBuf,
    /// Current file length in bytes (header included).
    bytes: u64,
    frames: u32,
    blocks: Vec<IndexBlock>,
}

impl Segment {
    fn fresh(number: u32, last: u32, generation: u32, path: PathBuf) -> Segment {
        Segment {
            number,
            last,
            generation,
            path,
            bytes: HEADER_LEN,
            frames: 0,
            blocks: Vec::new(),
        }
    }

    /// Record one appended frame in the sparse index.
    fn note_frame(&mut self, consumed: u64, time: Option<(i64, i64)>, theme: Option<&Theme>) {
        if self.frames.is_multiple_of(INDEX_EVERY) {
            self.blocks
                .push(IndexBlock::at(self.bytes, self.generation > 0));
        }
        if let Some(block) = self.blocks.last_mut() {
            block.frames += 1;
            if let Some((start, end)) = time {
                block.min_start = block.min_start.min(start);
                block.max_end = block.max_end.max(end);
            }
            if let (Some(theme), Some(filter)) = (theme, block.filter.as_mut()) {
                filter.insert(theme);
            }
        }
        self.frames += 1;
        self.bytes += consumed;
    }

    /// May any block in the segment match the pruner's constraints?
    fn may_match(&self, pruner: &Pruner) -> bool {
        pruner
            .frontier
            .is_none_or(|f| self.number <= f.last_marker_segment)
            && self.blocks.iter().any(|b| b.may_match(pruner))
    }

    fn meta(&self) -> SegmentMeta {
        SegmentMeta {
            first: self.number,
            last: self.last,
            generation: self.generation,
            bytes: self.bytes,
            frames: self.frames,
        }
    }
}

fn segment_path(dir: &Path, number: u32) -> PathBuf {
    dir.join(format!("seg-{number:06}.slg"))
}

/// File name of a compacted segment covering `first..=last` at `generation`.
fn gen_segment_path(dir: &Path, first: u32, last: u32, generation: u32) -> PathBuf {
    dir.join(format!("seg-{first:06}-{last:06}-g{generation}.slg"))
}

/// The position of the last frame in `segments`, if any holds one.
fn last_frame(segments: &[Segment]) -> Option<LogPos> {
    let seg = segments.iter().rev().find(|s| s.frames > 0)?;
    Some(LogPos {
        segment: seg.number,
        frame: seg.frames - 1,
    })
}

fn header_bytes() -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[..MAGIC.len()].copy_from_slice(MAGIC);
    h[MAGIC.len()] = CODEC_VERSION;
    h
}

/// The time bounds of an event, as the zone index keeps them.
pub(crate) fn event_time(e: &Event) -> (i64, i64) {
    let iv = e.time_interval();
    (iv.start.as_millis(), iv.end.as_millis())
}

/// The event time bounds of a record, if it is an event.
fn record_time(rec: &Record) -> Option<(i64, i64)> {
    match rec {
        Record::Event(e) => Some(event_time(e)),
        _ => None,
    }
}

/// The theme of a record, if it is an event.
fn record_theme(rec: &Record) -> Option<&Theme> {
    match rec {
        Record::Event(e) => Some(&e.theme),
        _ => None,
    }
}

/// A checksummed, rotating, crash-recoverable record log.
pub struct SegmentLog {
    config: DurableConfig,
    segments: Vec<Segment>,
    /// Append handle on the last (active) segment.
    active: File,
    /// Where each appended frame is built, reused by every append.
    frame: Vec<u8>,
    /// Appends since the last fsync (for [`FsyncPolicy::EveryN`]).
    unsynced: u32,
    /// Last position known to be on stable storage.
    synced_pos: Option<LogPos>,
    last_pos: Option<LogPos>,
    report: RecoveryReport,
    inst: LogInstruments,
}

sl_obs::instruments! {
    /// The log's instruments (`durable/log/*` in the engine's snapshot).
    struct LogInstruments {
        segments: Gauge = "segments",
        recovered_records: Counter = "recovered_records",
        recovery_truncated_bytes: Counter = "recovery/truncated_bytes",
        recovery_dropped_segments: Counter = "recovery/dropped_segments",
        recovery_superseded_segments: Counter = "recovery/superseded_segments",
        recovery_us: Histogram = "recovery_us",
        frames_appended: Counter = "frames_appended",
        bytes_written: Counter = "bytes_written",
        fsync_us: Histogram = "fsync_us",
        fsyncs: Counter = "fsyncs",
        segments_sealed: Counter = "segments_sealed",
        bytes_read: Counter = "bytes_read",
        cold_segments_scanned: Counter = "cold/segments_scanned",
        cold_segments_pruned: Counter = "cold/segments_pruned",
    }
}

impl SegmentLog {
    /// Open (or create) the log at `config.dir`, scanning and repairing
    /// every segment. Returns the log, every surviving record in append
    /// order with its position (the whole log, in memory), and the
    /// recovery report. Restart does not call it: it replays record by record.
    #[allow(clippy::type_complexity)]
    pub fn open(
        config: DurableConfig,
    ) -> Result<(SegmentLog, Vec<(LogPos, Record)>, RecoveryReport), DurableError> {
        let mut records = Vec::new();
        let log = SegmentLog::replay(config, |pos, rec| records.push((pos, rec)))?;
        let report = log.report;
        Ok((log, records, report))
    }

    /// [`SegmentLog::open`] handing each surviving record to `visit`, in
    /// append order, as its frame is walked: one read buffer is held, never
    /// a segment file, and no visited record is taken back (repair only
    /// cuts after it).
    pub(crate) fn replay(
        config: DurableConfig,
        mut visit: impl FnMut(LogPos, Record),
    ) -> Result<SegmentLog, DurableError> {
        let sw = Stopwatch::start();
        fs::create_dir_all(&config.dir)?;

        let mut report = RecoveryReport::default();
        let mut reader = BlockReader::default();
        let mut refs = list_segment_refs(&config.dir)?;
        resolve_shadows(&mut refs, &mut reader, &mut report)?;

        let mut segments = Vec::new();
        let mut refs = refs.into_iter();
        for r in refs.by_ref() {
            let (seg, clean) = recover_segment(&r, &mut reader, &mut report, &mut visit)?;
            segments.push(seg);
            if !clean {
                break;
            }
        }

        // A corrupt middle segment poisons everything after it: later
        // segments were written after the damage and cannot be trusted to
        // follow it. Delete them and account for every byte.
        for r in refs {
            let len = fs::metadata(&r.path).map(|m| m.len()).unwrap_or(0);
            report.truncated_bytes += len.saturating_sub(HEADER_LEN);
            report.dropped_segments += 1;
            fs::remove_file(&r.path)?;
        }

        // A compacted segment is sealed forever: if it ended up last (its
        // former followers were all merged into it, or dropped), appends
        // need a fresh generation-0 segment after it, as does an empty log.
        let active = match segments.last() {
            Some(last) if last.generation == 0 => last.path.clone(),
            last => {
                let number = last.map_or(1, |s| s.last + 1);
                let path = create_segment(&config.dir, number)?;
                segments.push(Segment::fresh(number, number, 0, path.clone()));
                path
            }
        };
        let active = OpenOptions::new().append(true).open(active)?;
        report.duration_us = sw.elapsed_us();

        let last_pos = last_frame(&segments);

        let mut inst = LogInstruments::default();
        inst.segments.set(segments.len() as i64);
        inst.recovered_records.add(report.records());
        inst.recovery_truncated_bytes.add(report.truncated_bytes);
        inst.recovery_dropped_segments.add(report.dropped_segments);
        inst.recovery_superseded_segments
            .add(report.superseded_segments);
        inst.recovery_us.record(report.duration_us);

        let log = SegmentLog {
            config,
            segments,
            active,
            frame: Vec::new(),
            unsynced: 0,
            // Everything recovered is on disk by definition.
            synced_pos: last_pos,
            last_pos,
            report,
            inst,
        };
        Ok(log)
    }

    /// The configuration.
    pub fn config(&self) -> &DurableConfig {
        &self.config
    }

    /// The report from the open-time recovery scan.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.report
    }

    /// Number of segments currently on disk.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The last appended position, if any record exists.
    pub fn last_pos(&self) -> Option<LogPos> {
        self.last_pos
    }

    /// The last position guaranteed to be on stable storage.
    pub fn synced_pos(&self) -> Option<LogPos> {
        self.synced_pos
    }

    /// Metadata of every sealed segment, in log order (what compaction
    /// planning sees — the active segment is excluded).
    pub fn sealed_metas(&self) -> Vec<SegmentMeta> {
        let sealed = self.segments.len().saturating_sub(1);
        self.segments[..sealed].iter().map(Segment::meta).collect()
    }

    /// Append one record, rotating and fsyncing per policy. Returns the
    /// record's position.
    pub fn append(&mut self, rec: &Record) -> Result<LogPos, DurableError> {
        self.append_with(record_time(rec), |w| rec.encode_into(w))
    }

    /// Append the record payload `encode` writes; `time` is its event time
    /// bounds when it is an event (what the zone index tracks). A payload
    /// the reader would reject is refused with nothing written.
    pub(crate) fn append_with(
        &mut self,
        time: Option<(i64, i64)>,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<LogPos, DurableError> {
        frame_into(&mut self.frame, encode)?;
        let framed = self.frame.len() as u64;

        // Rotate *before* writing if the active segment is full (never leave
        // a frame straddling the size bound mid-write).
        let seal = {
            let seg = self.active_segment()?;
            seg.frames > 0 && seg.bytes + framed > self.config.segment_max_bytes
        };
        if seal {
            self.seal_active()?;
        }

        self.active.write_all(&self.frame)?;
        let pos = {
            let seg = self.active_segment()?;
            let pos = LogPos {
                segment: seg.number,
                frame: seg.frames,
            };
            // The active segment is generation 0, so no theme filter is
            // maintained here: summaries are computed at compaction time,
            // off the append path.
            seg.note_frame(framed, time, None);
            pos
        };
        self.last_pos = Some(pos);
        self.inst.frames_appended.inc();
        self.inst.bytes_written.add(framed);

        self.unsynced += 1;
        let due = match self.config.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FsyncPolicy::OnSeal => false,
        };
        if due {
            self.sync()?;
        }
        Ok(pos)
    }

    /// Force everything appended so far onto stable storage.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        if self.unsynced == 0 && self.synced_pos == self.last_pos {
            return Ok(());
        }
        self.fsync()
    }

    /// fsync the active segment: everything appended is on stable storage.
    fn fsync(&mut self) -> Result<(), DurableError> {
        let sw = Stopwatch::start();
        self.active.sync_data()?;
        self.inst.fsync_us.record(sw.elapsed_us());
        self.inst.fsyncs.inc();
        self.unsynced = 0;
        self.synced_pos = self.last_pos;
        Ok(())
    }

    /// Seal the active segment (fsync it, it is never written again) and
    /// start a fresh one.
    fn seal_active(&mut self) -> Result<(), DurableError> {
        self.fsync()?;
        let next = self.active_segment()?.last + 1;
        let path = create_segment(&self.config.dir, next)?;
        self.active = OpenOptions::new().append(true).open(&path)?;
        self.segments.push(Segment::fresh(next, next, 0, path));
        self.inst.segments_sealed.inc();
        self.inst.segments.set(self.segments.len() as i64);
        Ok(())
    }

    fn active_segment(&mut self) -> Result<&mut Segment, DurableError> {
        self.segments
            .last_mut()
            .ok_or_else(|| DurableError::corrupt("log has no active segment"))
    }

    /// Scan the whole log, decoding every record in append order. This is
    /// the brute-force reference reader: no index, no pruning.
    pub fn scan(&mut self) -> Result<Vec<(LogPos, Record)>, DurableError> {
        let mut out = Vec::new();
        self.scan_pruned(&Pruner::keep_all(), &mut |pos, rec| out.push((pos, rec)))?;
        Ok(out)
    }

    /// Scan the log under `pruner`'s constraints: whole segments and index
    /// blocks whose zone index proves they cannot hold a matching event are
    /// skipped without touching the disk. Every record of every block that
    /// survived pruning — a superset of the matching events (the matching
    /// *cold* events, under a [`ColdFrontier`](crate::index::ColdFrontier))
    /// — is handed to `visit` by value, in append order.
    ///
    /// Each frame is checksum-verified and fully decoded before `visit`
    /// sees it, so damage in a frame the caller will discard still fails
    /// the scan; records `visit` has already been given are then moot.
    pub fn scan_pruned(
        &mut self,
        pruner: &Pruner,
        visit: &mut dyn FnMut(LogPos, Record),
    ) -> Result<(), DurableError> {
        // Unsynced frames are in the OS page cache, readable by a fresh
        // handle, so no sync is needed for read-your-writes here.
        let mut reader = BlockReader::default();
        let mut bytes_read = 0u64;
        let mut scanned = 0u64;
        let mut pruned = 0u64;
        let constrained = pruner.is_constrained();
        for seg in &self.segments {
            if seg.frames == 0 {
                continue;
            }
            if constrained && !seg.may_match(pruner) {
                pruned += 1;
                continue;
            }
            bytes_read += reader.scan_segment(seg, pruner, &mut |pos, rec| {
                visit(pos, rec);
                Ok(())
            })?;
            scanned += 1;
        }
        self.inst.bytes_read.add(bytes_read);
        if constrained {
            self.inst.cold_segments_scanned.add(scanned);
            self.inst.cold_segments_pruned.add(pruned);
        }
        Ok(())
    }

    /// Hand every record of the segments covering numbers `first..=last` to
    /// `visit`, in append order, through one reused block buffer: each
    /// frame is verified and decoded, so the first damaged frame in log
    /// order fails the walk. Stops at the first error `visit` returns. (The
    /// read half of compaction, which walks its run twice.)
    pub(crate) fn scan_range(
        &self,
        first: u32,
        last: u32,
        visit: &mut impl FnMut(LogPos, Record) -> Result<(), DurableError>,
    ) -> Result<(), DurableError> {
        let all = Pruner::keep_all();
        let mut reader = BlockReader::default();
        for seg in &self.segments {
            if seg.number >= first && seg.last <= last {
                reader.scan_segment(seg, &all, visit)?;
            }
        }
        Ok(())
    }

    /// On-disk bytes of the segments covering numbers `first..=last`.
    pub(crate) fn bytes_in_range(&self, first: u32, last: u32) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.number >= first && s.last <= last)
            .map(|s| s.bytes)
            .sum()
    }

    /// Indices in `segments` of the sealed segments covering exactly
    /// `first..=last`.
    fn sealed_range(&self, first: u32, last: u32) -> Result<(usize, usize), DurableError> {
        let start = self
            .segments
            .iter()
            .position(|s| s.number == first)
            .ok_or_else(|| {
                DurableError::corrupt(format!("replace: no segment starts at {first}"))
            })?;
        let end = self
            .segments
            .iter()
            .position(|s| s.last == last)
            .ok_or_else(|| DurableError::corrupt(format!("replace: no segment ends at {last}")))?;
        if end < start || end + 1 >= self.segments.len() {
            return Err(DurableError::corrupt(
                "replace: range must cover sealed segments only",
            ));
        }
        Ok((start, end))
    }

    /// Start the generation-`generation` product that will replace the
    /// sealed segments covering `first..=last`: an empty file under the
    /// product's temporary name, which [`ProductWriter::push`] fills and
    /// [`SegmentLog::publish`] puts in place of the inputs.
    pub(crate) fn start_product(
        &self,
        first: u32,
        last: u32,
        generation: u32,
    ) -> Result<ProductWriter, DurableError> {
        self.sealed_range(first, last)?;
        let path = gen_segment_path(&self.config.dir, first, last, generation);
        // Written under a temporary name until its publishing rename.
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let file = File::create(&tmp)?;
        let mut product = ProductWriter {
            seg: Segment::fresh(first, last, generation, path),
            out: BufWriter::with_capacity(PRODUCT_BUFFER_BYTES, file),
            tmp: Unpublished(tmp.into()),
            frame: Vec::new(),
        };
        product.out.write_all(&header_bytes())?;
        Ok(product)
    }

    /// Atomically replace the sealed segments `product` covers with it.
    /// Crash-safe: the product, written under a temporary name, is
    /// fsynced, renamed into place, and only then are the inputs deleted —
    /// [`SegmentLog::open`] finishes either half of an interrupted
    /// replacement. Returns the product's size in bytes.
    pub(crate) fn publish(&mut self, product: ProductWriter) -> Result<u64, DurableError> {
        let ProductWriter {
            seg, mut out, tmp, ..
        } = product;
        let (first, last) = (seg.number, seg.last);
        let (start, end) = self.sealed_range(first, last)?;

        // 1. The product is complete under its temporary name: fsync it.
        out.flush()?;
        out.get_ref().sync_all()?;
        drop(out);

        // 2. Publish: rename into place, persist the directory entry.
        fs::rename(&tmp.0, &seg.path)?;
        sync_dir(&self.config.dir);

        // 3. Retire the inputs (recovery resolves the overlap if we crash
        // between these deletions).
        for old in &self.segments[start..=end] {
            fs::remove_file(&old.path)?;
        }
        sync_dir(&self.config.dir);

        let bytes_after = seg.bytes;
        self.segments.splice(start..=end, std::iter::once(seg));
        self.inst.segments.set(self.segments.len() as i64);

        // Positions in the replaced range no longer exist; if the log's
        // newest (or newest-synced) record lived there, recompute it from
        // the surviving segments. Everything sealed is on stable storage.
        let in_range = |p: &LogPos| p.segment >= first && p.segment <= last;
        if self.last_pos.as_ref().is_some_and(in_range) {
            self.last_pos = last_frame(&self.segments);
        }
        if self.synced_pos.as_ref().is_some_and(in_range) {
            let sealed = self.segments.len().saturating_sub(1);
            self.synced_pos = last_frame(&self.segments[..sealed]);
        }
        Ok(bytes_after)
    }

    /// Freeze the log's instruments into a snapshot.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inst.snapshot()
    }

    /// Total bytes currently on disk across all segments (headers included).
    pub fn disk_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }
}

/// Write buffer of a compaction product: the most of it a merge holds in
/// memory, whatever the size of its run.
const PRODUCT_BUFFER_BYTES: usize = 64 * 1024;

/// A compaction product being written under its temporary name (see
/// [`SegmentLog::start_product`]): each pushed record is framed in one
/// reused buffer and written through a bounded buffered writer, and the
/// product's index blocks and theme filters grow with it.
pub(crate) struct ProductWriter {
    seg: Segment,
    out: BufWriter<File>,
    tmp: Unpublished,
    frame: Vec<u8>,
}

impl ProductWriter {
    /// Append one record to the product. Returns its position there.
    pub(crate) fn push(&mut self, rec: &Record) -> Result<LogPos, DurableError> {
        frame_into(&mut self.frame, |w| rec.encode_into(w))?;
        self.out.write_all(&self.frame)?;
        let consumed = self.frame.len() as u64;
        let pos = LogPos {
            segment: self.seg.number,
            frame: self.seg.frames,
        };
        self.seg
            .note_frame(consumed, record_time(rec), record_theme(rec));
        Ok(pos)
    }
}

/// The temporary file of a product not yet published. Dropping it deletes
/// the file, so a merge that fails part-way leaves no partial product
/// behind; once [`SegmentLog::publish`] has renamed it, there is nothing
/// left to delete.
struct Unpublished(PathBuf);

impl Drop for Unpublished {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

/// What a frame walk reads from disk at a time. The read buffer grows past
/// it only to hold one frame longer than that.
const CHUNK_BYTES: u64 = 64 * 1024;

/// Why a frame walk stopped short of the end of its range.
enum Cut {
    /// A frame is incomplete or fails its checksum.
    Torn(String),
    /// A frame checksums but does not decode (corruption, or a future codec).
    Undecodable(DurableError),
}

/// What every read of the log reuses across the blocks and segments it
/// walks: the read buffer and the theme table.
#[derive(Default)]
struct BlockReader {
    buf: Vec<u8>,
    themes: ThemeTable,
}

impl BlockReader {
    /// The one frame walk: hand each checksummed, decoded frame in the byte
    /// range `from..to` of `file` to `visit` with its size on disk, front to
    /// back, reading through the reused buffer a chunk at a time (a range
    /// that fits one chunk is one seek and one read). Returns where the
    /// clean prefix ends and what cut it short (`None`: nothing did). The
    /// first error `visit` returns ends the walk and is passed on.
    fn walk(
        &mut self,
        file: &mut File,
        from: u64,
        to: u64,
        visit: &mut impl FnMut(u64, Record) -> Result<(), DurableError>,
    ) -> Result<(u64, Option<Cut>), DurableError> {
        file.seek(SeekFrom::Start(from))?;
        // `buf[lo..hi]` holds the file's bytes from `at` on.
        let (mut at, mut lo, mut hi) = (from, 0, 0);
        let cut = loop {
            // Hold the whole next frame (its length prefix tells how long it
            // is), or all that is left of the range, so the frame reads as
            // it would from the range in one slice.
            loop {
                let len = self.buf[lo..hi]
                    .first_chunk()
                    .map_or(0, |n| u32::from_le_bytes(*n));
                let need = match len {
                    1..=MAX_FRAME_BYTES => 8 + u64::from(len),
                    _ => 4, // a missing or bad length prefix is judged by itself
                };
                let left = to - at;
                if hi - lo >= need.min(left) as usize {
                    break;
                }
                self.buf.copy_within(lo..hi, 0);
                (lo, hi) = (0, hi - lo);
                let fill = need.max(CHUNK_BYTES).min(left) as usize;
                if self.buf.len() < fill {
                    self.buf.resize(fill, 0);
                }
                file.read_exact(&mut self.buf[hi..fill])?;
                hi = fill;
            }
            let (payload, consumed) = match read_frame(&self.buf[lo..hi]) {
                FrameRead::Ok { payload, consumed } => (payload, consumed),
                FrameRead::Torn { why } => break Some(Cut::Torn(why)),
                FrameRead::End => break None,
            };
            let rec = match Record::decode_with(payload, &mut self.themes) {
                Ok(rec) => rec,
                Err(e) => break Some(Cut::Undecodable(e)),
            };
            visit(consumed as u64, rec)?;
            lo += consumed;
            at += consumed as u64;
        };
        Ok((at, cut))
    }

    /// Walk a whole segment file: its header, then every frame after it.
    /// Returns the file's length and where its clean prefix ends, or `None`
    /// for that when the header is torn or alien.
    fn walk_file(
        &mut self,
        path: &Path,
        visit: &mut impl FnMut(u64, Record) -> Result<(), DurableError>,
    ) -> Result<(u64, Option<u64>), DurableError> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut header = [0u8; HEADER_LEN as usize];
        let header_ok = len >= HEADER_LEN && {
            file.read_exact(&mut header)?;
            header[..=MAGIC.len()] == header_bytes()[..=MAGIC.len()]
        };
        let walked = header_ok.then(|| self.walk(&mut file, HEADER_LEN, len, visit));
        Ok((len, walked.transpose()?.map(|(end, _)| end)))
    }

    /// Read one segment, skipping index blocks that cannot match `pruner`;
    /// every frame of a visited block is verified, decoded and handed to
    /// `visit`, and the first error `visit` returns ends the read. Returns
    /// how many bytes were read from disk.
    fn scan_segment(
        &mut self,
        seg: &Segment,
        pruner: &Pruner,
        visit: &mut impl FnMut(LogPos, Record) -> Result<(), DurableError>,
    ) -> Result<u64, DurableError> {
        let constrained = pruner.is_constrained();
        let mut file = File::open(&seg.path)?;
        let mut frame_idx: u32 = 0;
        let mut bytes_read = 0u64;
        for (bi, block) in seg.blocks.iter().enumerate() {
            if constrained && !block.may_match(pruner) {
                frame_idx += block.frames;
                continue;
            }
            let end_offset = seg.blocks.get(bi + 1).map_or(seg.bytes, |next| next.offset);
            let block_end = frame_idx + block.frames;
            let (_, cut) = self.walk(&mut file, block.offset, end_offset, &mut |_, rec| {
                let pos = LogPos {
                    segment: seg.number,
                    frame: frame_idx,
                };
                visit(pos, rec)?;
                frame_idx += 1;
                Ok(())
            })?;
            bytes_read += end_offset - block.offset;
            // The in-memory index said a frame is here; the disk disagrees.
            // Surface it — this is post-recovery damage, not a torn tail.
            let why = match cut {
                Some(Cut::Undecodable(e)) => return Err(e),
                Some(Cut::Torn(why)) => format!("frame {frame_idx}: {why}"),
                None if frame_idx < block_end => format!("unexpected end at frame {frame_idx}"),
                None => continue,
            };
            let path = seg.path.display();
            return Err(DurableError::corrupt(format!("{path}: {why}")));
        }
        Ok(bytes_read)
    }
}

/// One segment file present in the directory, as named.
#[derive(Debug, Clone)]
struct SegRef {
    first: u32,
    last: u32,
    generation: u32,
    path: PathBuf,
}

/// Parse `seg-NNNNNN.slg` or `seg-AAAAAA-BBBBBB-gG.slg`.
fn parse_segment_name(name: &str) -> Option<(u32, u32, u32)> {
    let stem = name.strip_prefix("seg-")?.strip_suffix(".slg")?;
    if let Ok(n) = stem.parse::<u32>() {
        return Some((n, n, 0));
    }
    let mut parts = stem.split('-');
    let first: u32 = parts.next()?.parse().ok()?;
    let last: u32 = parts.next()?.parse().ok()?;
    let generation: u32 = parts.next()?.strip_prefix('g')?.parse().ok()?;
    if parts.next().is_some() || last < first || generation == 0 {
        return None;
    }
    Some((first, last, generation))
}

/// Segment files present in `dir`, sorted by covered range then generation.
/// Every stray file is deleted on the way: `*.tmp` (half-written compaction
/// products) and `*.szi` (zone-index sidecars written beside compacted
/// segments by earlier versions; nothing reads them).
fn list_segment_refs(dir: &Path) -> Result<Vec<SegRef>, DurableError> {
    let mut refs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".tmp") || name.ends_with(".szi") {
            fs::remove_file(entry.path())?;
        } else if let Some((first, last, generation)) = parse_segment_name(&name) {
            refs.push(SegRef {
                first,
                last,
                generation,
                path: entry.path(),
            });
        }
    }
    refs.sort_by_key(|r| (r.first, r.generation));
    Ok(refs)
}

/// Persist the directory entry (best-effort: not all platforms allow fsync
/// on directories).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Resolve overlaps left by an interrupted compaction: when a generation-N
/// product and (some of) its inputs are both on disk, the crash hit between
/// the publishing rename and the input deletion. The product wins if it
/// verifies end-to-end; otherwise the inputs win if they still fully cover
/// its range. Either way the losers are deleted, so the remaining refs
/// cover disjoint ranges.
fn resolve_shadows(
    refs: &mut Vec<SegRef>,
    reader: &mut BlockReader,
    report: &mut RecoveryReport,
) -> Result<(), DurableError> {
    let mut order: Vec<usize> = (0..refs.len()).collect();
    order.sort_by(|&a, &b| refs[b].generation.cmp(&refs[a].generation));
    let mut removed = vec![false; refs.len()];
    for &ti in &order {
        if removed[ti] || refs[ti].generation == 0 {
            continue;
        }
        let (first, last, generation) = (refs[ti].first, refs[ti].last, refs[ti].generation);
        let shadowed: Vec<usize> = (0..refs.len())
            .filter(|&si| {
                si != ti
                    && !removed[si]
                    && refs[si].generation < generation
                    && first <= refs[si].first
                    && refs[si].last <= last
            })
            .collect();
        if shadowed.is_empty() {
            continue;
        }
        // The product wins only if every byte of it is a clean frame.
        let product_clean = matches!(
            reader.walk_file(&refs[ti].path, &mut |_, _| Ok(())),
            Ok((len, Some(end))) if end == len
        );
        // The inputs can win only if they still cover the product's range.
        let inputs_cover = shadowed
            .iter()
            .try_fold(u64::from(first), |next, &si| {
                (u64::from(refs[si].first) <= next).then(|| next.max(u64::from(refs[si].last) + 1))
            })
            .is_some_and(|next| next > u64::from(last));
        if product_clean || !inputs_cover {
            for &si in &shadowed {
                fs::remove_file(&refs[si].path)?;
                removed[si] = true;
                report.superseded_segments += 1;
            }
        } else {
            fs::remove_file(&refs[ti].path)?;
            removed[ti] = true;
            report.superseded_segments += 1;
        }
    }
    let mut removed = removed.into_iter();
    refs.retain(|_| removed.next() == Some(false));
    for pair in refs.windows(2) {
        if pair[1].first <= pair[0].last {
            return Err(DurableError::corrupt(format!(
                "overlapping segments {} and {}",
                pair[0].path.display(),
                pair[1].path.display()
            )));
        }
    }
    Ok(())
}

/// Create a fresh segment file with a valid header, fsynced, and fsync the
/// directory so the new name itself survives a crash.
fn create_segment(dir: &Path, number: u32) -> Result<PathBuf, DurableError> {
    let path = segment_path(dir, number);
    let mut f = File::create(&path)?;
    f.write_all(&header_bytes())?;
    f.sync_all()?;
    sync_dir(dir);
    Ok(path)
}

/// Walk one segment file, counting and visiting each surviving record, and
/// truncate it at the first torn or corrupt frame. Returns the rebuilt
/// in-memory segment and whether the file was clean (nothing truncated).
fn recover_segment(
    r: &SegRef,
    reader: &mut BlockReader,
    report: &mut RecoveryReport,
    visit: &mut impl FnMut(LogPos, Record),
) -> Result<(Segment, bool), DurableError> {
    let mut seg = Segment::fresh(r.first, r.last, r.generation, r.path.clone());
    let (len, end) = reader.walk_file(&r.path, &mut |consumed, rec| {
        let pos = LogPos {
            segment: r.first,
            frame: seg.frames,
        };
        seg.note_frame(consumed, record_time(&rec), record_theme(&rec));
        match &rec {
            Record::Event(_) => report.events += 1,
            Record::Checkpoint { .. } | Record::CheckpointDelta { .. } => report.checkpoints += 1,
            Record::Horizon(_) => report.horizons += 1,
        }
        visit(pos, rec);
        Ok(())
    })?;
    // A torn or alien header means nothing in the file can be trusted: it
    // is reset to an empty, valid segment.
    let clean = end == Some(len);
    if !clean {
        let end = end.unwrap_or(0);
        report.truncated_bytes += len - end;
        let mut f = OpenOptions::new().write(true).open(&r.path)?;
        f.set_len(end)?;
        if end == 0 {
            f.write_all(&header_bytes())?;
        }
        f.sync_all()?;
    }
    Ok((seg, clean))
}

#[cfg(test)]
mod tests {

    use super::*;
    use crate::tmp::TempDir;
    use sl_stt::{Event, SpatialGranule, TemporalGranularity, Theme, Timestamp, Value};

    fn event(minute: i64) -> Record {
        themed_event(minute, "weather")
    }

    fn themed_event(minute: i64, theme: &str) -> Record {
        Record::Event(Event::new(
            Value::Int(minute),
            TemporalGranularity::Minute,
            minute,
            SpatialGranule::World,
            Theme::new(theme).unwrap(),
        ))
    }

    fn cfg(dir: &TempDir) -> DurableConfig {
        DurableConfig::at(dir.path())
    }

    impl SegmentLog {
        /// Replace the sealed segments covering `first..=last` with one
        /// generation-`generation` segment holding `records`, through the
        /// one product writer compaction uses.
        fn replace_segments(
            &mut self,
            first: u32,
            last: u32,
            generation: u32,
            records: &[Record],
        ) -> Result<u64, DurableError> {
            let mut product = self.start_product(first, last, generation)?;
            for rec in records {
                product.push(rec)?;
            }
            self.publish(product)
        }
    }

    /// Every record of the segments covering `first..=last`, in log order.
    fn records_in(log: &mut SegmentLog, first: u32, last: u32) -> Vec<Record> {
        log.scan()
            .unwrap()
            .into_iter()
            .filter(|(pos, _)| (first..=last).contains(&pos.segment))
            .map(|(_, rec)| rec)
            .collect()
    }

    #[test]
    fn append_reopen_round_trip() {
        let dir = TempDir::new("log-roundtrip").unwrap();
        {
            let (mut log, recs, report) = SegmentLog::open(cfg(&dir)).unwrap();
            assert!(recs.is_empty());
            assert!(!report.lossy());
            for m in 0..20 {
                log.append(&event(m)).unwrap();
            }
            assert_eq!(log.last_pos(), log.synced_pos()); // Always policy
        }
        let (mut log, recs, report) = SegmentLog::open(cfg(&dir)).unwrap();
        assert_eq!(recs.len(), 20);
        assert_eq!(report.events, 20);
        assert!(!report.lossy());
        // Positions are strictly increasing.
        let positions: Vec<LogPos> = recs.iter().map(|(p, _)| *p).collect();
        let mut sorted = positions.clone();
        sorted.sort();
        assert_eq!(positions, sorted);
        assert_eq!(log.scan().unwrap().len(), 20);
    }

    #[test]
    fn rotation_seals_segments() {
        let dir = TempDir::new("log-rotate").unwrap();
        let config = cfg(&dir).with_segment_max_bytes(256);
        let (mut log, _, _) = SegmentLog::open(config.clone()).unwrap();
        for m in 0..50 {
            log.append(&event(m)).unwrap();
        }
        assert!(log.segment_count() > 1, "256-byte cap must rotate");
        drop(log);
        let (log, recs, report) = SegmentLog::open(config).unwrap();
        assert_eq!(recs.len(), 50);
        assert!(!report.lossy());
        assert!(log.segment_count() > 1);
    }

    #[test]
    fn torn_tail_truncated_on_reopen() {
        let dir = TempDir::new("log-torn").unwrap();
        {
            let (mut log, _, _) = SegmentLog::open(cfg(&dir)).unwrap();
            for m in 0..10 {
                log.append(&event(m)).unwrap();
            }
        }
        // Chop 3 bytes off the active segment: the last frame is now torn.
        let path = segment_path(dir.path(), 1);
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();

        let (log, recs, report) = SegmentLog::open(cfg(&dir)).unwrap();
        assert_eq!(recs.len(), 9, "only the torn last frame is lost");
        assert!(report.lossy());
        assert!(report.truncated_bytes > 0);
        // The log is immediately appendable again.
        drop(log);
        let (mut log, _, _) = SegmentLog::open(cfg(&dir)).unwrap();
        log.append(&event(99)).unwrap();
        drop(log);
        let (_, recs, _) = SegmentLog::open(cfg(&dir)).unwrap();
        assert_eq!(recs.len(), 10);
    }

    #[test]
    fn corrupt_middle_segment_drops_later_ones() {
        let dir = TempDir::new("log-poison").unwrap();
        let config = cfg(&dir).with_segment_max_bytes(256);
        {
            let (mut log, _, _) = SegmentLog::open(config.clone()).unwrap();
            for m in 0..50 {
                log.append(&event(m)).unwrap();
            }
            assert!(log.segment_count() >= 3);
        }
        // Flip a byte in the middle of segment 1's first frame payload.
        let path = segment_path(dir.path(), 1);
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER_LEN as usize + 6] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let (log, recs, report) = SegmentLog::open(config).unwrap();
        assert_eq!(recs.len(), 0, "corruption at the first frame drops all");
        assert!(report.dropped_segments >= 1);
        assert!(report.truncated_bytes > 0);
        assert_eq!(log.segment_count(), 1);
    }

    #[test]
    fn time_pruned_scan_matches_full_scan() {
        let dir = TempDir::new("log-index").unwrap();
        // Segments of several index blocks each, so blocks are pruned both
        // across and within segments.
        let config = cfg(&dir).with_segment_max_bytes(16 * 1024);
        let (mut log, _, _) = SegmentLog::open(config).unwrap();
        for m in 0..1000 {
            log.append(&event(m)).unwrap();
        }
        assert!(log.segment_count() > 1);
        assert!(log.segments[0].blocks.len() > 1);
        let range = TimeInterval::new(
            Timestamp::from_millis(500 * 60_000),
            Timestamp::from_millis(510 * 60_000),
        );
        let full: Vec<i64> = log
            .scan()
            .unwrap()
            .into_iter()
            .filter_map(|(_, r)| match r {
                Record::Event(e) if e.time_interval().overlaps(&range) => Some(e.tgranule),
                _ => None,
            })
            .collect();
        let time_only = Pruner {
            time: Some(range),
            ..Pruner::default()
        };
        let mut pruned = Vec::new();
        log.scan_pruned(&time_only, &mut |_, r| match r {
            Record::Event(e) if e.time_interval().overlaps(&range) => pruned.push(e.tgranule),
            _ => {}
        })
        .unwrap();
        assert_eq!(full, pruned);
        assert_eq!(full.len(), 10);
    }

    #[test]
    fn broken_grammar_in_a_rejected_frame_still_fails_the_scan() {
        use crate::codec::crc32;
        let dir = TempDir::new("log-rejected-corrupt").unwrap();
        let config = cfg(&dir).with_segment_max_bytes(512);
        let (mut log, _, _) = SegmentLog::open(config).unwrap();
        for m in 0..40 {
            log.append(&event(m)).unwrap();
        }
        assert!(log.segment_count() > 1);
        let first = log.segments[0].path.clone();

        // Frame 5 of the first (sealed) segment: an unknown record kind
        // under a checksum that matches — the grammar is what is broken.
        let mut bytes = fs::read(&first).unwrap();
        let mut at = HEADER_LEN as usize;
        for _ in 0..5 {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            at += 4 + len + 4;
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        bytes[at + 4] = 99;
        let crc = crc32(&bytes[at + 4..at + 4 + len]);
        bytes[at + 4 + len..at + 8 + len].copy_from_slice(&crc.to_le_bytes());
        fs::write(&first, &bytes).unwrap();

        let mut kept = Vec::new();
        let keeping = log.scan_pruned(&Pruner::keep_all(), &mut |pos, rec| kept.push((pos, rec)));
        let rejecting = log.scan_pruned(&Pruner::keep_all(), &mut |_, _| {});
        let (Err(keeping), Err(rejecting)) = (keeping, rejecting) else {
            panic!("a visited block with a broken frame must fail the scan");
        };
        assert!(matches!(rejecting, DurableError::Corrupt(_)));
        assert_eq!(keeping.to_string(), rejecting.to_string());
        assert!(rejecting.to_string().contains("unknown record kind 99"));

        // A pruner that never visits the damaged block does not see it.
        let later = Pruner {
            time: Some(TimeInterval::new(
                Timestamp::from_millis(30 * 60_000),
                Timestamp::from_millis(31 * 60_000),
            )),
            ..Pruner::default()
        };
        let mut seen = Vec::new();
        log.scan_pruned(&later, &mut |_, rec| seen.push(rec))
            .unwrap();
        assert!(seen
            .iter()
            .any(|r| matches!(r, Record::Event(e) if e.tgranule == 30)));
    }

    #[test]
    fn fsync_policies_track_synced_pos() {
        let dir = TempDir::new("log-fsync").unwrap();
        let config = cfg(&dir).with_fsync(FsyncPolicy::EveryN(5));
        let (mut log, _, _) = SegmentLog::open(config).unwrap();
        for m in 0..4 {
            log.append(&event(m)).unwrap();
        }
        assert_ne!(log.synced_pos(), log.last_pos(), "4 < 5: not yet synced");
        log.append(&event(4)).unwrap();
        assert_eq!(log.synced_pos(), log.last_pos(), "5th append syncs");
        log.append(&event(5)).unwrap();
        assert_ne!(log.synced_pos(), log.last_pos());
        log.sync().unwrap();
        assert_eq!(log.synced_pos(), log.last_pos());
        let snap = log.metrics_snapshot();
        assert!(snap.counters["fsyncs"] >= 2);
        assert!(snap.counters["bytes_written"] > 0);
    }

    #[test]
    fn fsync_counts_follow_the_policy() {
        // N appends in one segment: one fsync per append, per 64 appends,
        // or none; then, with small segments, one more per seal.
        const N: u64 = 150;
        let fsyncs = |policy, segment_max_bytes| {
            let dir = TempDir::new("log-fsync-count").unwrap();
            let config = cfg(&dir)
                .with_fsync(policy)
                .with_segment_max_bytes(segment_max_bytes);
            let (mut log, _, _) = SegmentLog::open(config).unwrap();
            for m in 0..N as i64 {
                log.append(&event(m)).unwrap();
            }
            let snap = log.metrics_snapshot();
            let sealed = snap.counters.get("segments_sealed").copied().unwrap_or(0);
            (snap.counters.get("fsyncs").copied().unwrap_or(0), sealed)
        };
        let unsealed = 1024 * 1024;
        assert_eq!(fsyncs(FsyncPolicy::Always, unsealed), (N, 0));
        assert_eq!(fsyncs(FsyncPolicy::EveryN(64), unsealed), (N / 64, 0));
        assert_eq!(fsyncs(FsyncPolicy::OnSeal, unsealed), (0, 0));
        let (on_seal, sealed) = fsyncs(FsyncPolicy::OnSeal, 1024);
        assert!(sealed > 1);
        assert_eq!(on_seal, sealed);
        assert_eq!(fsyncs(FsyncPolicy::Always, 1024), (N + sealed, sealed));
    }

    #[test]
    fn segment_names_parse_both_forms() {
        assert_eq!(parse_segment_name("seg-000042.slg"), Some((42, 42, 0)));
        assert_eq!(
            parse_segment_name("seg-000003-000009-g2.slg"),
            Some((3, 9, 2))
        );
        assert_eq!(parse_segment_name("seg-000009-000003-g2.slg"), None);
        assert_eq!(parse_segment_name("seg-000003-000009-g0.slg"), None);
        assert_eq!(parse_segment_name("seg-xyz.slg"), None);
        assert_eq!(parse_segment_name("other.slg"), None);
        assert_eq!(parse_segment_name("seg-000001.slg.tmp"), None);
    }

    #[test]
    fn replace_segments_round_trips_and_prunes_by_theme() {
        let dir = TempDir::new("log-replace").unwrap();
        let config = cfg(&dir).with_segment_max_bytes(400);
        let (mut log, _, _) = SegmentLog::open(config.clone()).unwrap();
        // Enough records that the merged segment spans several index blocks.
        const N: usize = 300;
        for m in 0..N as i64 {
            let theme = if m % 2 == 0 {
                "weather/rain"
            } else {
                "social/tweet"
            };
            log.append(&themed_event(m, theme)).unwrap();
        }
        let sealed = log.sealed_metas();
        assert!(sealed.len() >= 2);
        let before: Vec<String> = log
            .scan()
            .unwrap()
            .iter()
            .map(|(_, r)| format!("{r:?}"))
            .collect();

        // Merge all sealed segments, keeping every record.
        let (first, last) = (sealed[0].first, sealed[sealed.len() - 1].last);
        let merged = records_in(&mut log, first, last);
        log.replace_segments(first, last, 1, &merged).unwrap();
        assert_only_segment_files(dir.path());

        let after: Vec<String> = log
            .scan()
            .unwrap()
            .iter()
            .map(|(_, r)| format!("{r:?}"))
            .collect();
        assert_eq!(before, after, "record sequence survives the merge");
        assert!(log.segments[0].blocks.len() > 1);

        // Theme pruning: a scan for an absent theme skips every block of
        // the compacted segment. The generation-0 active segment carries no
        // filter, so its events still come back (pruning is a superset).
        let absent = Pruner {
            theme: Some(Theme::new("traffic").unwrap()),
            ..Pruner::default()
        };
        let mut compacted_events = 0;
        log.scan_pruned(&absent, &mut |pos, r| {
            if matches!(r, Record::Event(_)) && pos.segment <= last {
                compacted_events += 1;
            }
        })
        .unwrap();
        assert_eq!(
            compacted_events, 0,
            "bloom filter excludes the absent subtree from the compacted range"
        );
        let present = Pruner {
            theme: Some(Theme::new("weather").unwrap()),
            ..Pruner::default()
        };
        let mut kept_events = 0;
        log.scan_pruned(&present, &mut |pos, r| {
            if matches!(r, Record::Event(_)) && pos.segment <= last {
                kept_events += 1;
            }
        })
        .unwrap();
        assert!(kept_events > 0, "present theme survives pruning");

        // Reopen: the compacted segment survives verbatim, still one file.
        drop(log);
        let (mut log, recs, report) = SegmentLog::open(config).unwrap();
        assert!(!report.lossy());
        assert_eq!(recs.len(), N);
        assert_only_segment_files(dir.path());
        let reopened: Vec<String> = log
            .scan()
            .unwrap()
            .iter()
            .map(|(_, r)| format!("{r:?}"))
            .collect();
        assert_eq!(before, reopened);
    }

    /// Every file in `dir` is a segment: `seg-*.slg`, nothing beside it.
    fn assert_only_segment_files(dir: &Path) {
        for entry in fs::read_dir(dir).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            assert!(
                name.starts_with("seg-") && name.ends_with(".slg"),
                "unexpected file {name}"
            );
        }
    }

    #[test]
    fn zone_index_files_of_earlier_versions_are_swept_on_open() {
        let dir = TempDir::new("log-szi").unwrap();
        let config = cfg(&dir).with_segment_max_bytes(300);
        let (mut log, _, _) = SegmentLog::open(config.clone()).unwrap();
        for m in 0..30 {
            log.append(&event(m)).unwrap();
        }
        let sealed = log.sealed_metas();
        let (first, last) = (sealed[0].first, sealed[sealed.len() - 1].last);
        let merged = records_in(&mut log, first, last);
        log.replace_segments(first, last, 1, &merged).unwrap();
        drop(log);
        let opened = |config: &DurableConfig| {
            let (_, recs, mut report) = SegmentLog::open(config.clone()).unwrap();
            report.duration_us = 0;
            let recs: Vec<String> = recs.iter().map(|r| format!("{r:?}")).collect();
            (recs, format!("{report:?}"))
        };
        let without = opened(&config);
        assert_eq!(without.0.len(), 30);

        // Earlier versions wrote a `.szi` zone index beside every compacted
        // segment; whatever its bytes, it changes nothing and is deleted.
        let product = gen_segment_path(dir.path(), first, last, 1);
        fs::write(product.with_extension("szi"), b"SLZI\x01 not a zone index").unwrap();
        assert_eq!(opened(&config), without);
        assert_only_segment_files(dir.path());
    }

    #[test]
    fn interrupted_compaction_resolves_to_product_or_inputs() {
        use crate::codec::crc32;
        let dir = TempDir::new("log-shadow").unwrap();
        let config = cfg(&dir).with_segment_max_bytes(300);
        let (mut log, _, _) = SegmentLog::open(config.clone()).unwrap();
        for m in 0..30 {
            log.append(&event(m)).unwrap();
        }
        let sealed = log.sealed_metas();
        let (first, last) = (sealed[0].first, sealed[sealed.len() - 1].last);

        // Back the inputs up, compact, then restore them: both the product
        // and its inputs are now on disk, as after a crash between the
        // publishing rename and the input deletion.
        let mut backups = Vec::new();
        for meta in &sealed {
            let p = segment_path(dir.path(), meta.first);
            backups.push((p.clone(), fs::read(&p).unwrap()));
        }
        let merged = records_in(&mut log, first, last);
        log.replace_segments(first, last, 1, &merged).unwrap();
        drop(log);
        for (p, bytes) in &backups {
            fs::write(p, bytes).unwrap();
        }

        // Clean product: it wins, the restored inputs are superseded.
        let (_, recs, report) = SegmentLog::open(config.clone()).unwrap();
        assert_eq!(recs.len(), 30);
        assert_eq!(report.superseded_segments, backups.len() as u64);
        assert!(!report.lossy());

        // Damaged product alongside full inputs: the inputs win, whether
        // a frame fails its checksum, checksums but does not decode (an
        // unknown record kind under a matching CRC), or is cut short.
        let product = gen_segment_path(dir.path(), first, last, 1);
        let clean = fs::read(&product).unwrap();
        let at = HEADER_LEN as usize;
        let len = u32::from_le_bytes(clean[at..at + 4].try_into().unwrap()) as usize;
        let mut flipped = clean.clone();
        flipped[at + 3] ^= 0xFF;
        let mut undecodable = clean.clone();
        undecodable[at + 4] = 99;
        let crc = crc32(&undecodable[at + 4..at + 4 + len]);
        undecodable[at + 4 + len..at + 8 + len].copy_from_slice(&crc.to_le_bytes());
        let cut = clean[..at + 4 + len / 2].to_vec();
        for (what, damaged) in [
            ("flipped", flipped),
            ("undecodable", undecodable),
            ("cut", cut),
        ] {
            for (p, bytes) in &backups {
                fs::write(p, bytes).unwrap();
            }
            fs::write(&product, &damaged).unwrap();
            let (_, recs, report) = SegmentLog::open(config.clone()).unwrap();
            assert_eq!(recs.len(), 30, "{what}: no acknowledged record lost");
            assert_eq!(report.superseded_segments, 1, "{what}: the damaged product");
            assert!(!product.exists(), "{what}");
        }
    }

    /// The slice walk recovery and shadow checks ran over a whole file read
    /// into memory, kept as the specification of [`BlockReader::walk_file`]:
    /// check the header, then hand each checksummed, decodable frame to
    /// `visit` with its size on disk, stopping at the first frame that is
    /// torn, fails its checksum or does not decode. Returns where that clean
    /// prefix ends (`bytes.len()` for an intact file), or `None` when the
    /// header is torn or alien.
    fn walk_frames(
        bytes: &[u8],
        themes: &mut ThemeTable,
        mut visit: impl FnMut(u64, Record),
    ) -> Option<usize> {
        let header_ok = bytes.len() >= HEADER_LEN as usize
            && &bytes[..MAGIC.len()] == MAGIC
            && bytes[MAGIC.len()] == CODEC_VERSION;
        if !header_ok {
            return None;
        }
        let mut offset = HEADER_LEN as usize;
        while let FrameRead::Ok { payload, consumed } = read_frame(&bytes[offset..]) {
            // Checksum fine but grammar broken: corruption (or a future codec).
            // Cut here like any torn tail.
            let Ok(rec) = Record::decode_with(payload, themes) else {
                break;
            };
            visit(consumed as u64, rec);
            offset += consumed;
        }
        Some(offset)
    }

    fn text_event(minute: i64, len: usize) -> Record {
        Record::Event(Event::new(
            Value::Str("x".repeat(len)),
            TemporalGranularity::Minute,
            minute,
            SpatialGranule::World,
            Theme::new("weather/rain").unwrap(),
        ))
    }

    fn framed(rec: &Record) -> Vec<u8> {
        crate::codec::frame(&rec.encode())
    }

    /// The frame of a text event that takes exactly `bytes` on disk.
    fn text_frame_of(bytes: usize) -> Vec<u8> {
        let mut len = bytes - framed(&text_event(0, 0)).len();
        loop {
            let f = framed(&text_event(0, len));
            match f.len().cmp(&bytes) {
                std::cmp::Ordering::Equal => return f,
                std::cmp::Ordering::Greater => len -= f.len() - bytes,
                std::cmp::Ordering::Less => len += bytes - f.len(),
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        const CHUNK: usize = CHUNK_BYTES as usize;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The chunked walk reads any segment file, damaged or not, as
            /// the whole-file slice walk does: the same records, the same
            /// clean end, and recovery cuts the same bytes. Frames straddle
            /// chunk boundaries (the first one, when `lead` is set, ends
            /// `lead` bytes short of one, so a length prefix is split too),
            /// some are longer than a chunk, and some checksum but do not
            /// decode.
            #[test]
            fn the_chunked_walk_reads_as_the_slice_walk(
                lead in proptest::option::of(0usize..12),
                frames in proptest::collection::vec((0u8..40, 0usize..70_000), 0..14),
                damage in 0u8..4,
                cut_at in any::<u64>(),
                flip_at in any::<u64>(),
            ) {
                let mut bytes = header_bytes().to_vec();
                if let Some(lead) = lead {
                    bytes.extend(text_frame_of(CHUNK - lead));
                }
                let mut longest = CHUNK;
                for (m, &(kind, size)) in frames.iter().enumerate() {
                    let m = m as i64;
                    let frame = match kind {
                        0..=29 => framed(&text_event(m, size % 2_000)),
                        30..=33 => framed(&text_event(m, size)),
                        34..=35 => framed(&text_event(m, CHUNK + size)),
                        36..=38 => framed(&Record::Horizon(Timestamp::from_millis(m))),
                        _ => crate::codec::frame(&[99, 1, 2, 3]), // an unknown record kind
                    };
                    longest = longest.max(frame.len());
                    bytes.extend(frame);
                }
                if damage & 1 == 1 {
                    bytes.truncate((cut_at % (bytes.len() as u64 + 1)) as usize);
                }
                if damage & 2 == 2 && !bytes.is_empty() {
                    let at = (flip_at % bytes.len() as u64) as usize;
                    bytes[at] ^= 0x5A;
                }

                let mut spec = Vec::new();
                let spec_end = walk_frames(&bytes, &mut ThemeTable::default(), |size, rec| {
                    spec.push((size, format!("{rec:?}")));
                })
                .map(|end| end as u64);
                let dir = TempDir::new("log-walk-spec").unwrap();
                let path = segment_path(dir.path(), 1);
                fs::write(&path, &bytes).unwrap();
                // Twice through one reader: a reused buffer reads as a fresh one.
                let mut reader = BlockReader::default();
                for _ in 0..2 {
                    let mut walked = Vec::new();
                    let (len, end) = reader
                        .walk_file(&path, &mut |size, rec| {
                            walked.push((size, format!("{rec:?}")));
                            Ok(())
                        })
                        .unwrap();
                    prop_assert_eq!(len, bytes.len() as u64);
                    prop_assert_eq!(end, spec_end);
                    prop_assert_eq!(&walked, &spec);
                    // The buffer outgrows a chunk only to hold a longer frame.
                    prop_assert!(damage != 0 || reader.buf.len() <= longest);
                }

                let (_, recs, report) = SegmentLog::open(cfg(&dir)).unwrap();
                let cut = bytes.len() as u64 - spec_end.unwrap_or(0);
                prop_assert_eq!(report.truncated_bytes, cut);
                let recs: Vec<String> = recs.iter().map(|(_, rec)| format!("{rec:?}")).collect();
                let spec: Vec<String> = spec.into_iter().map(|(_, rec)| rec).collect();
                prop_assert_eq!(recs, spec);
            }
        }
    }
}
