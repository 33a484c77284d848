//! The versioned binary codec: every record that reaches a segment file goes
//! through here.
//!
//! Design rules, in order:
//!
//! 1. **Self-checking.** Every frame carries a CRC-32 over its payload, so a
//!    torn write, a bit flip, or a half-written tail is *detected*, never
//!    silently decoded into garbage (recovery truncates at the first bad
//!    frame — see [`crate::SegmentLog`]).
//! 2. **Exact round-trips.** Floats are encoded as raw IEEE-754 bits
//!    (`f64::to_bits`), so even NaN payloads survive a disk round-trip
//!    bit-for-bit; themes round-trip through their canonical string; units
//!    and attribute types through their stable `ALL` declaration order.
//! 3. **Versioned.** [`CODEC_VERSION`] is stamped into every segment header.
//!    A reader that meets a future version refuses the segment instead of
//!    guessing.
//!
//! All integers are little-endian. A frame on disk is
//! `[u32 len][payload: len bytes][u32 crc]` where the CRC covers exactly the
//! payload and the payload's first byte is the [`Record`] kind tag.

use crate::error::DurableError;
use sl_ops::OpCheckpoint;
use sl_stt::{
    AttrType, Event, Field, GeoPoint, Schema, SensorId, SpatialGranule, SttError, SttMeta,
    TemporalGranularity, Theme, Timestamp, Tuple, Unit, Value,
};
use std::collections::HashMap;

/// On-disk format version, stamped into every segment header.
pub const CODEC_VERSION: u8 = 1;

/// Hard upper bound on a single frame's payload (16 MiB). A length prefix
/// beyond this is treated as corruption, which keeps recovery from
/// attempting absurd allocations on a damaged length field; the writer
/// refuses such a payload, so no acknowledged frame is one recovery cuts.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected polynomial 0xEDB88320) — slicing-by-8: eight
// tables built at compile time, so the hot path folds eight bytes per step.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic one-byte table; `CRC_TABLES[k][i]` is the
/// CRC of byte `i` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One durable log entry.
#[derive(Debug, Clone)]
pub enum Record {
    /// A warehouse event (the LOAD output of the ETL pipeline).
    Event(Event),
    /// A blocking operator's whole window cache: the *base* of its
    /// checkpoint log, superseding every earlier frame of the same key.
    Checkpoint {
        /// Deployment (dataflow) name.
        deployment: String,
        /// Service (operator) name within the deployment.
        service: String,
        /// The snapshotted cache.
        state: OpCheckpoint,
    },
    /// What changed in that window cache since the previous frame of the
    /// same key (see `sl_ops::CheckpointDelta`; a delta that resets the
    /// window is logged as a [`Record::Checkpoint`] instead). Recovery folds
    /// base and deltas in log order.
    CheckpointDelta {
        /// Deployment (dataflow) name.
        deployment: String,
        /// Service (operator) name within the deployment.
        service: String,
        /// Tuples dropped from the front of the window.
        evicted: usize,
        /// `(port, tuple)` pairs appended to it, in arrival order.
        appended: Vec<(usize, Tuple)>,
    },
    /// A retention horizon marker: every event *before this marker in the
    /// log* whose interval ends at or before the horizon has been evicted
    /// from the hot store and lives only in cold segments.
    Horizon(Timestamp),
}

const KIND_EVENT: u8 = 1;
const KIND_CHECKPOINT: u8 = 2;
const KIND_HORIZON: u8 = 3;
const KIND_CHECKPOINT_DELTA: u8 = 4;

impl Record {
    /// Encode into a frame payload (kind tag + body). The caller wraps this
    /// in the `[len][payload][crc]` frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(64);
        self.encode_into(&mut w);
        w
    }

    /// [`Record::encode`], appended to `w`: a writer of many records reuses
    /// one buffer for all of them.
    pub(crate) fn encode_into(&self, w: &mut Vec<u8>) {
        match self {
            Record::Event(e) => put_event_payload(w, e),
            Record::Checkpoint {
                deployment,
                service,
                state,
            } => put_checkpoint_payload(w, deployment, service, &state.tuples),
            Record::CheckpointDelta {
                deployment,
                service,
                evicted,
                appended,
            } => put_checkpoint_delta_payload(w, deployment, service, *evicted, appended),
            Record::Horizon(t) => {
                w.push(KIND_HORIZON);
                put_i64(w, t.as_millis());
            }
        }
    }

    /// Decode a frame payload. The CRC has already been verified by the
    /// caller; errors here mean the payload grammar itself is damaged (or
    /// written by a future codec).
    pub fn decode(payload: &[u8]) -> Result<Record, DurableError> {
        Record::decode_with(payload, &mut ThemeTable::default())
    }

    /// [`Record::decode`] for one payload of many: themes already met are
    /// taken from `themes`, new ones are parsed and added to it. The record
    /// (or error) is the same whatever the table held.
    pub fn decode_with(payload: &[u8], themes: &mut ThemeTable) -> Result<Record, DurableError> {
        let mut r = Reader {
            buf: payload,
            pos: 0,
            themes,
            fail: None,
        };
        match get_record(&mut r) {
            Some(rec) => Ok(rec),
            None => Err(r.error()),
        }
    }
}

/// The themes one scan has parsed so far, so that each distinct theme of a
/// scan is parsed once and every other frame carrying it shares the result.
/// Made per scan and dropped with it. Only spellings `Theme::new` accepted
/// are kept, so a hit skips the UTF-8 check as well as the parse.
///
/// The first 16 (`THEME_MEMO`) canonical spellings a scan meets (what the
/// encoder writes) are kept as the themes themselves and found by a byte
/// compare against their text, with no hash and no key allocation; a scan
/// meets few themes, so this is where nearly every lookup ends. Any other
/// spelling, canonical or not, is keyed by its bytes on disk in a map,
/// which costs one hash of the spelling.
#[derive(Debug, Default)]
pub struct ThemeTable {
    memo: Vec<Theme>,
    parsed: HashMap<Box<[u8]>, Theme>,
}

/// Canonical themes a [`ThemeTable`] finds without hashing.
const THEME_MEMO: usize = 16;

impl ThemeTable {
    /// The theme spelled `spelling`, if this scan has parsed it before.
    fn get(&self, spelling: &[u8]) -> Option<&Theme> {
        self.memo
            .iter()
            .find(|t| t.as_str().as_bytes() == spelling)
            .or_else(|| self.parsed.get(spelling))
    }

    /// Keep `theme`, just parsed from `spelling`. A canonical spelling is
    /// the theme's own text, so the memo's byte compare finds it again.
    fn insert(&mut self, spelling: &[u8], theme: &Theme) {
        if self.memo.len() < THEME_MEMO && theme.as_str().as_bytes() == spelling {
            self.memo.push(theme.clone());
        } else {
            self.parsed.insert(spelling.into(), theme.clone());
        }
    }
}

/// The payload of `Record::Event`, written from a borrow: the append path
/// logs what it is about to keep without cloning it into a [`Record`].
pub(crate) fn put_event_payload(w: &mut Vec<u8>, e: &Event) {
    w.push(KIND_EVENT);
    put_event(w, e);
}

/// The payload of `Record::Checkpoint`, written from borrows.
pub(crate) fn put_checkpoint_payload(
    w: &mut Vec<u8>,
    deployment: &str,
    service: &str,
    tuples: &[(usize, Tuple)],
) {
    w.push(KIND_CHECKPOINT);
    put_str(w, deployment);
    put_str(w, service);
    put_checkpoint(w, tuples);
}

/// The payload of `Record::CheckpointDelta`, written from borrows.
pub(crate) fn put_checkpoint_delta_payload(
    w: &mut Vec<u8>,
    deployment: &str,
    service: &str,
    evicted: usize,
    appended: &[(usize, Tuple)],
) {
    w.push(KIND_CHECKPOINT_DELTA);
    put_str(w, deployment);
    put_str(w, service);
    put_u32(w, evicted as u32);
    put_checkpoint(w, appended);
}

// ---------------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------------

fn put_u8(w: &mut Vec<u8>, v: u8) {
    w.push(v);
}

fn put_u32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(w: &mut Vec<u8>, v: i32) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(w: &mut Vec<u8>, v: i64) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(w: &mut Vec<u8>, v: f64) {
    // Raw bits: NaN payloads and signed zeros survive exactly.
    put_u64(w, v.to_bits());
}

fn put_str(w: &mut Vec<u8>, s: &str) {
    put_u32(w, s.len() as u32);
    w.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Checked reader
// ---------------------------------------------------------------------------

/// The first read of a payload that failed, kept as plain data. Reads
/// return `Option`s and leave this behind; [`Reader::error`] renders it
/// into the error text, off the hot path.
#[derive(Debug)]
enum Fail {
    /// Fewer than `n` bytes were left for `what`.
    Short { what: &'static str, n: usize },
    /// `what` was not UTF-8.
    Utf8(&'static str),
    /// `what` counted `n` elements, more than there are bytes left.
    Count { what: &'static str, n: usize },
    /// A tag byte outside its table: the message and the byte.
    Tag(&'static str, u8),
    /// The theme spelled from byte `from` up to the reader's position is
    /// not a valid theme.
    Theme { from: usize, e: SttError },
    /// A schema or tuple the STT rules reject, and which.
    Stt(&'static str, SttError),
    /// Bytes left after a complete record.
    Trailing,
}

/// A bounds-checked cursor over a frame payload. Every read names what it
/// expected, so corruption reports say *which* field was damaged: a read
/// that fails records that, and its offset is where the cursor stopped.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    themes: &'a mut ThemeTable,
    fail: Option<Fail>,
}

impl<'a> Reader<'a> {
    /// Record `fail` as the reason decoding stopped.
    #[cold]
    fn fail<T>(&mut self, fail: Fail) -> Option<T> {
        self.fail = Some(fail);
        None
    }

    /// The error for the read that failed, with the text this decoder has
    /// always given it.
    #[cold]
    #[inline(never)]
    fn error(&mut self) -> DurableError {
        let (pos, len) = (self.pos, self.buf.len());
        DurableError::corrupt(match self.fail.take() {
            Some(Fail::Short { what, n }) => {
                format!("short payload reading {what} ({n} bytes at offset {pos} of {len})")
            }
            Some(Fail::Utf8(what)) => format!("{what}: invalid utf-8"),
            Some(Fail::Count { what, n }) => {
                format!(
                    "{what}: implausible count {n} with {} bytes left",
                    len - pos
                )
            }
            Some(Fail::Tag(what, tag)) => format!("{what} {tag}"),
            Some(Fail::Theme { from, e }) => {
                let spelling = String::from_utf8_lossy(&self.buf[from..pos]);
                format!("theme `{spelling}`: {e}")
            }
            Some(Fail::Stt(what, e)) => format!("{what}: {e}"),
            Some(Fail::Trailing) => format!("{} trailing bytes after record", len - pos),
            // Every read that returns `None` records its failure first.
            None => "undecodable payload".to_string(),
        })
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Option<[u8; N]> {
        match self
            .buf
            .get(self.pos..)
            .and_then(|rest| rest.first_chunk::<N>())
        {
            Some(&b) => {
                self.pos += N;
                Some(b)
            }
            None => self.fail(Fail::Short { what, n: N }),
        }
    }

    fn u8(&mut self, what: &'static str) -> Option<u8> {
        self.array::<1>(what).map(|[b]| b)
    }

    fn u32(&mut self, what: &'static str) -> Option<u32> {
        self.array(what).map(u32::from_le_bytes)
    }

    fn u64(&mut self, what: &'static str) -> Option<u64> {
        self.array(what).map(u64::from_le_bytes)
    }

    fn i32(&mut self, what: &'static str) -> Option<i32> {
        self.array(what).map(i32::from_le_bytes)
    }

    fn i64(&mut self, what: &'static str) -> Option<i64> {
        self.array(what).map(i64::from_le_bytes)
    }

    fn f64(&mut self, what: &'static str) -> Option<f64> {
        self.u64(what).map(f64::from_bits)
    }

    /// A `u32` length and that many bytes.
    fn bytes(&mut self, what: &'static str) -> Option<&'a [u8]> {
        let n = self.u32(what)? as usize;
        let buf: &'a [u8] = self.buf;
        match buf.get(self.pos..).and_then(|rest| rest.get(..n)) {
            Some(bytes) => {
                self.pos += n;
                Some(bytes)
            }
            None => self.fail(Fail::Short { what, n }),
        }
    }

    fn utf8(&mut self, bytes: &'a [u8], what: &'static str) -> Option<&'a str> {
        match std::str::from_utf8(bytes) {
            Ok(s) => Some(s),
            Err(_) => self.fail(Fail::Utf8(what)),
        }
    }

    fn str(&mut self, what: &'static str) -> Option<&'a str> {
        let bytes = self.bytes(what)?;
        self.utf8(bytes, what)
    }

    /// A bounded element count: a damaged count field must not drive a huge
    /// allocation. Each element of any collection we encode occupies at
    /// least one byte, so a count beyond the remaining bytes is corruption.
    fn count(&mut self, what: &'static str) -> Option<usize> {
        let n = self.u32(what)? as usize;
        if n > self.buf.len() - self.pos {
            return self.fail(Fail::Count { what, n });
        }
        Some(n)
    }

    /// A tag byte outside its table.
    fn bad_tag<T>(&mut self, what: &'static str, tag: u8) -> Option<T> {
        self.fail(Fail::Tag(what, tag))
    }
}

fn get_record(r: &mut Reader<'_>) -> Option<Record> {
    let rec = match r.u8("record kind")? {
        KIND_EVENT => Record::Event(get_event(r)?),
        KIND_CHECKPOINT => Record::Checkpoint {
            deployment: r.str("deployment")?.to_string(),
            service: r.str("service")?.to_string(),
            state: get_checkpoint(r)?,
        },
        KIND_HORIZON => Record::Horizon(Timestamp::from_millis(r.i64("horizon")?)),
        KIND_CHECKPOINT_DELTA => Record::CheckpointDelta {
            deployment: r.str("deployment")?.to_string(),
            service: r.str("service")?.to_string(),
            evicted: r.u32("evicted count")? as usize,
            appended: get_checkpoint(r)?.tuples,
        },
        other => return r.bad_tag("unknown record kind", other),
    };
    if r.pos != r.buf.len() {
        return r.fail(Fail::Trailing);
    }
    Some(rec)
}

// ---------------------------------------------------------------------------
// STT type codecs
// ---------------------------------------------------------------------------

const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_FLOAT: u8 = 3;
const VAL_STR: u8 = 4;
const VAL_TIME: u8 = 5;
const VAL_GEO: u8 = 6;

fn put_value(w: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(w, VAL_NULL),
        Value::Bool(b) => {
            put_u8(w, VAL_BOOL);
            put_u8(w, u8::from(*b));
        }
        Value::Int(i) => {
            put_u8(w, VAL_INT);
            put_i64(w, *i);
        }
        Value::Float(f) => {
            put_u8(w, VAL_FLOAT);
            put_f64(w, *f);
        }
        Value::Str(s) => {
            put_u8(w, VAL_STR);
            put_str(w, s);
        }
        Value::Time(t) => {
            put_u8(w, VAL_TIME);
            put_i64(w, t.as_millis());
        }
        Value::Geo(p) => {
            put_u8(w, VAL_GEO);
            put_f64(w, p.lat);
            put_f64(w, p.lon);
        }
    }
}

fn get_value(r: &mut Reader<'_>) -> Option<Value> {
    Some(match r.u8("value tag")? {
        VAL_NULL => Value::Null,
        // Strict on canonical encodings: a non-0/1 bool is corruption, so a
        // damaged byte can never silently decode back to a valid value.
        VAL_BOOL => match r.u8("bool")? {
            0 => Value::Bool(false),
            1 => Value::Bool(true),
            other => return r.bad_tag("bad bool byte", other),
        },
        VAL_INT => Value::Int(r.i64("int")?),
        VAL_FLOAT => Value::Float(r.f64("float")?),
        VAL_STR => Value::Str(r.str("str")?.to_string()),
        VAL_TIME => Value::Time(Timestamp::from_millis(r.i64("time")?)),
        VAL_GEO => Value::Geo(GeoPoint::new_unchecked(r.f64("lat")?, r.f64("lon")?)),
        other => return r.bad_tag("unknown value tag", other),
    })
}

fn put_tgran(w: &mut Vec<u8>, g: TemporalGranularity) {
    if let TemporalGranularity::Custom(ms) = g {
        put_u8(w, TemporalGranularity::NAMED.len() as u8);
        put_u64(w, ms);
    } else {
        // Position in the stable NAMED order is the tag.
        let tag = TemporalGranularity::NAMED
            .iter()
            .position(|n| *n == g)
            .unwrap_or(0) as u8;
        put_u8(w, tag);
    }
}

fn get_tgran(r: &mut Reader<'_>) -> Option<TemporalGranularity> {
    let tag = r.u8("temporal granularity")?;
    match TemporalGranularity::NAMED.get(usize::from(tag)) {
        Some(&named) => Some(named),
        None if usize::from(tag) == TemporalGranularity::NAMED.len() => {
            Some(TemporalGranularity::Custom(r.u64("custom granularity")?))
        }
        None => r.bad_tag("unknown temporal granularity tag", tag),
    }
}

const SG_POINT: u8 = 0;
const SG_CELL: u8 = 1;
const SG_WORLD: u8 = 2;

fn put_sgranule(w: &mut Vec<u8>, g: &SpatialGranule) {
    match g {
        SpatialGranule::Point { lat_e7, lon_e7 } => {
            put_u8(w, SG_POINT);
            put_i64(w, *lat_e7);
            put_i64(w, *lon_e7);
        }
        SpatialGranule::Cell { level, ix, iy } => {
            put_u8(w, SG_CELL);
            put_u8(w, *level);
            put_i32(w, *ix);
            put_i32(w, *iy);
        }
        SpatialGranule::World => put_u8(w, SG_WORLD),
    }
}

fn get_sgranule(r: &mut Reader<'_>) -> Option<SpatialGranule> {
    Some(match r.u8("spatial granule tag")? {
        SG_POINT => SpatialGranule::Point {
            lat_e7: r.i64("lat_e7")?,
            lon_e7: r.i64("lon_e7")?,
        },
        SG_CELL => SpatialGranule::Cell {
            level: r.u8("cell level")?,
            ix: r.i32("cell ix")?,
            iy: r.i32("cell iy")?,
        },
        SG_WORLD => SpatialGranule::World,
        other => return r.bad_tag("unknown spatial granule tag", other),
    })
}

fn put_theme(w: &mut Vec<u8>, t: &Theme) {
    put_str(w, t.as_str());
}

fn get_theme(r: &mut Reader<'_>) -> Option<Theme> {
    let spelling = r.bytes("theme")?;
    if let Some(theme) = r.themes.get(spelling) {
        return Some(theme.clone());
    }
    let s = r.utf8(spelling, "theme")?;
    match Theme::new(s) {
        Ok(theme) => {
            r.themes.insert(spelling, &theme);
            Some(theme)
        }
        Err(e) => {
            let from = r.pos - s.len();
            r.fail(Fail::Theme { from, e })
        }
    }
}

fn put_event(w: &mut Vec<u8>, e: &Event) {
    put_value(w, &e.value);
    put_tgran(w, e.tgran);
    put_i64(w, e.tgranule);
    put_sgranule(w, &e.sgranule);
    put_theme(w, &e.theme);
}

fn get_event(r: &mut Reader<'_>) -> Option<Event> {
    let value = get_value(r)?;
    let tgran = get_tgran(r)?;
    let tgranule = r.i64("tgranule")?;
    let sgranule = get_sgranule(r)?;
    let theme = get_theme(r)?;
    Some(Event::new(value, tgran, tgranule, sgranule, theme))
}

fn put_field(w: &mut Vec<u8>, f: &Field) {
    put_str(w, &f.name);
    let ty_tag = AttrType::ALL.iter().position(|t| *t == f.ty).unwrap_or(0) as u8;
    put_u8(w, ty_tag);
    // 0 = no unit; otherwise 1 + position in the stable Unit::ALL order.
    let unit_tag = f
        .unit
        .and_then(|u| Unit::ALL.iter().position(|c| *c == u))
        .map_or(0, |i| i as u8 + 1);
    put_u8(w, unit_tag);
}

fn get_field(r: &mut Reader<'_>) -> Option<Field> {
    let name = r.str("field name")?;
    let ty_tag = r.u8("attr type")?;
    let Some(&ty) = AttrType::ALL.get(usize::from(ty_tag)) else {
        return r.bad_tag("unknown attr type tag", ty_tag);
    };
    let unit_tag = r.u8("unit")?;
    let Some(unit) = usize::from(unit_tag).checked_sub(1) else {
        return Some(Field::new(name, ty));
    };
    match Unit::ALL.get(unit) {
        Some(&unit) => Some(Field::with_unit(name, ty, unit)),
        None => r.bad_tag("unknown unit tag", unit_tag),
    }
}

fn put_tuple(w: &mut Vec<u8>, t: &Tuple) {
    let fields = t.schema().fields();
    put_u32(w, fields.len() as u32);
    for f in fields {
        put_field(w, f);
    }
    for v in t.values() {
        put_value(w, v);
    }
    // Meta: timestamp, optional location, theme, sensor, trace.
    put_i64(w, t.meta.timestamp.as_millis());
    match &t.meta.location {
        Some(p) => {
            put_u8(w, 1);
            put_f64(w, p.lat);
            put_f64(w, p.lon);
        }
        None => put_u8(w, 0),
    }
    put_theme(w, &t.meta.theme);
    put_u64(w, t.meta.sensor.0);
    put_u64(w, t.meta.trace);
}

fn get_tuple(r: &mut Reader<'_>) -> Option<Tuple> {
    let n = r.count("field count")?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        fields.push(get_field(r)?);
    }
    let schema = match Schema::new(fields) {
        Ok(schema) => schema.into_ref(),
        Err(e) => return r.fail(Fail::Stt("schema", e)),
    };
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(get_value(r)?);
    }
    let timestamp = Timestamp::from_millis(r.i64("meta timestamp")?);
    let location = match r.u8("location flag")? {
        0 => None,
        1 => Some(GeoPoint::new_unchecked(
            r.f64("meta lat")?,
            r.f64("meta lon")?,
        )),
        other => return r.bad_tag("bad location flag", other),
    };
    let theme = get_theme(r)?;
    let sensor = SensorId(r.u64("sensor id")?);
    let trace = r.u64("trace id")?;
    let meta = SttMeta {
        timestamp,
        location,
        theme,
        sensor,
        trace,
    };
    match Tuple::new(schema, values, meta) {
        Ok(tuple) => Some(tuple),
        Err(e) => r.fail(Fail::Stt("tuple", e)),
    }
}

fn put_checkpoint(w: &mut Vec<u8>, tuples: &[(usize, Tuple)]) {
    put_u32(w, tuples.len() as u32);
    for (port, tuple) in tuples {
        put_u32(w, *port as u32);
        put_tuple(w, tuple);
    }
}

fn get_checkpoint(r: &mut Reader<'_>) -> Option<OpCheckpoint> {
    let n = r.count("checkpoint tuple count")?;
    let mut tuples = Vec::with_capacity(n);
    for _ in 0..n {
        let port = r.u32("checkpoint port")? as usize;
        tuples.push((port, get_tuple(r)?));
    }
    Some(OpCheckpoint { tuples })
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Wrap an encoded payload into an on-disk frame: `[len][payload][crc]`.
/// Unchecked, so a test can build any frame, even one the reader rejects.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(payload);
    seal_frame(&mut out);
    out
}

/// Build in `buf`, replacing what it held, the frame of the payload
/// `encode` writes: the payload goes straight behind a 4-byte length slot,
/// then the length and the CRC are filled in. Every frame the log writes
/// is built here, so a payload [`read_frame`] would reject (empty, or over
/// [`MAX_FRAME_BYTES`]) is refused before a byte of it reaches the disk.
pub(crate) fn frame_into(
    buf: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<()> {
    buf.clear();
    buf.extend_from_slice(&[0; 4]);
    encode(buf);
    let len = buf.len() - 4;
    if len == 0 || len > MAX_FRAME_BYTES as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame payload of {len} bytes is outside 1..={MAX_FRAME_BYTES}"),
        ));
    }
    seal_frame(buf);
    Ok(())
}

/// Fill in the length slot of `buf` (a frame up to its payload) and append
/// the payload's CRC.
fn seal_frame(buf: &mut Vec<u8>) {
    let payload = &buf[4..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Outcome of pulling one frame off a byte slice.
pub enum FrameRead<'a> {
    /// A complete, checksum-verified payload and the bytes it consumed.
    Ok {
        /// The verified payload (kind byte + body), where it lies in the
        /// slice it was read from.
        payload: &'a [u8],
        /// Total frame size on disk, including length prefix and CRC.
        consumed: usize,
    },
    /// The tail is incomplete or fails its checksum: everything from this
    /// offset on must be truncated.
    Torn {
        /// Human-readable reason, for the recovery report.
        why: String,
    },
    /// The slice is exactly empty — a clean end of segment.
    End,
}

/// Pull one frame from `buf`. Never panics on any input.
pub fn read_frame(buf: &[u8]) -> FrameRead<'_> {
    if buf.is_empty() {
        return FrameRead::End;
    }
    if buf.len() < 4 {
        return FrameRead::Torn {
            why: format!("{}-byte tail shorter than a length prefix", buf.len()),
        };
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len == 0 || len > MAX_FRAME_BYTES {
        return FrameRead::Torn {
            why: format!("implausible frame length {len}"),
        };
    }
    let need = 4 + len as usize + 4;
    if buf.len() < need {
        return FrameRead::Torn {
            why: format!("incomplete frame: need {need} bytes, have {}", buf.len()),
        };
    }
    let payload = &buf[4..4 + len as usize];
    let stored = u32::from_le_bytes([
        buf[4 + len as usize],
        buf[5 + len as usize],
        buf[6 + len as usize],
        buf[7 + len as usize],
    ]);
    let actual = crc32(payload);
    if stored != actual {
        return FrameRead::Torn {
            why: format!("checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"),
        };
    }
    FrameRead::Ok {
        payload,
        consumed: need,
    }
}

#[cfg(test)]
mod tests {

    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The one-table, one-byte-per-step CRC-32 that `crc32` must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_equals_bytewise_at_every_length_and_alignment() {
        // A fixed pseudo-random buffer (a 64-bit LCG's high bytes).
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let buf: Vec<u8> = (0..72)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start}, len {len}"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_equals_bytewise_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..300),
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }

    fn sample_event() -> Event {
        Event::new(
            Value::Float(26.5),
            TemporalGranularity::Minute,
            24_444_444,
            SpatialGranule::Cell {
                level: 8,
                ix: 224,
                iy: 88,
            },
            Theme::new("weather/temperature").unwrap(),
        )
    }

    #[test]
    fn event_round_trip() {
        let rec = Record::Event(sample_event());
        let bytes = rec.encode();
        match Record::decode(&bytes).unwrap() {
            Record::Event(e) => assert_eq!(e, sample_event()),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn nan_float_round_trips_bit_exactly() {
        let mut e = sample_event();
        e.value = Value::Float(f64::NAN);
        let bytes = Record::Event(e).encode();
        // NaN != NaN, so compare the re-encoding instead.
        let decoded = Record::decode(&bytes).unwrap();
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn horizon_round_trip() {
        let rec = Record::Horizon(Timestamp::from_millis(-42));
        match Record::decode(&rec.encode()).unwrap() {
            Record::Horizon(t) => assert_eq!(t.as_millis(), -42),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn checkpoint_round_trip() {
        let schema = Schema::new(vec![
            Field::with_unit("temperature", AttrType::Float, Unit::Celsius),
            Field::new("station", AttrType::Str),
        ])
        .unwrap()
        .into_ref();
        let tuple = Tuple::new(
            schema,
            vec![Value::Float(25.5), Value::Str("osaka".into())],
            SttMeta::new(
                Timestamp::from_secs(12),
                GeoPoint::new_unchecked(34.7, 135.5),
                Theme::new("weather/temperature").unwrap(),
                SensorId(7),
            ),
        )
        .unwrap();
        let rec = Record::Checkpoint {
            deployment: "agg".into(),
            service: "mean".into(),
            state: OpCheckpoint {
                tuples: vec![(0, tuple.clone()), (1, tuple)],
            },
        };
        let bytes = rec.encode();
        match Record::decode(&bytes).unwrap() {
            Record::Checkpoint {
                deployment,
                service,
                state,
            } => {
                assert_eq!(deployment, "agg");
                assert_eq!(service, "mean");
                assert_eq!(state.tuples.len(), 2);
                assert_eq!(state.tuples[0].1.values()[1], Value::Str("osaka".into()));
                assert_eq!(
                    state.tuples[0].1.schema().fields()[0].unit,
                    Some(Unit::Celsius)
                );
            }
            other => panic!("wrong kind: {other:?}"),
        }
        // Determinism: re-encoding the decode equals the original bytes.
        assert_eq!(Record::decode(&bytes).unwrap().encode(), bytes);
    }

    #[test]
    fn checkpoint_delta_round_trip_and_base_bytes_unchanged() {
        let schema = Schema::new(vec![Field::new("v", AttrType::Int)])
            .unwrap()
            .into_ref();
        let meta = SttMeta::without_location(
            Timestamp::from_secs(3),
            Theme::new("weather/rain").unwrap(),
            SensorId(9),
        );
        let tuple = Tuple::new(schema, vec![Value::Int(4)], meta).unwrap();
        let rec = Record::CheckpointDelta {
            deployment: "agg".into(),
            service: "mean".into(),
            evicted: 3,
            appended: vec![(1, tuple.clone())],
        };
        let bytes = rec.encode();
        assert_eq!(bytes[0], KIND_CHECKPOINT_DELTA);
        match Record::decode(&bytes).unwrap() {
            Record::CheckpointDelta {
                evicted, appended, ..
            } => {
                assert_eq!(evicted, 3);
                assert_eq!(appended, vec![(1, tuple.clone())]);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        assert_eq!(Record::decode(&bytes).unwrap().encode(), bytes);
        // The borrowed encoder writes the very frame `Record::Checkpoint`
        // always wrote: kind, names, count, (port, tuple)*.
        let mut base = Vec::new();
        put_checkpoint_payload(&mut base, "agg", "mean", &[(1, tuple.clone())]);
        let mut by_hand = vec![KIND_CHECKPOINT];
        put_str(&mut by_hand, "agg");
        put_str(&mut by_hand, "mean");
        put_u32(&mut by_hand, 1);
        put_u32(&mut by_hand, 1);
        put_tuple(&mut by_hand, &tuple);
        assert_eq!(base, by_hand);
    }

    #[test]
    fn frame_round_trip_and_torn_detection() {
        let payload = Record::Event(sample_event()).encode();
        let framed = frame(&payload);
        match read_frame(&framed) {
            FrameRead::Ok {
                payload: p,
                consumed,
            } => {
                assert_eq!(p, payload);
                assert_eq!(consumed, framed.len());
            }
            _ => panic!("complete frame must read"),
        }
        // The log's framer builds the same bytes in a reused buffer, and
        // refuses an empty payload, which the reader would reject.
        let mut buf = vec![9; 3];
        frame_into(&mut buf, |w| w.extend_from_slice(&payload)).unwrap();
        assert_eq!(buf, framed);
        assert!(frame_into(&mut buf, |_| {}).is_err());
        // Every strict prefix is torn (or a clean end at zero).
        for cut in 1..framed.len() {
            match read_frame(&framed[..cut]) {
                FrameRead::Torn { .. } => {}
                FrameRead::Ok { .. } => panic!("prefix of {cut} bytes decoded as complete"),
                FrameRead::End => panic!("non-empty prefix reported End"),
            }
        }
        assert!(matches!(read_frame(&[]), FrameRead::End));
        // A flipped payload byte fails the checksum.
        let mut flipped = framed.clone();
        flipped[6] ^= 0xFF;
        assert!(matches!(read_frame(&flipped), FrameRead::Torn { .. }));
    }

    /// An event payload whose theme is written as `spelling`, whatever it
    /// is: the encoder only writes canonical themes.
    fn event_spelled(spelling: &[u8]) -> Vec<u8> {
        let mut payload = Record::Event(sample_event()).encode();
        payload.truncate(payload.len() - 4 - "weather/temperature".len());
        put_u32(&mut payload, spelling.len() as u32);
        payload.extend_from_slice(spelling);
        payload
    }

    /// A decoded event, or the error's text.
    fn outcome(decoded: Result<Record, DurableError>) -> Result<Event, String> {
        match decoded {
            Ok(Record::Event(e)) => Ok(e),
            Ok(other) => panic!("wrong kind: {other:?}"),
            Err(e) => Err(e.to_string()),
        }
    }

    /// More canonical spellings than the memo holds, spellings that
    /// normalise to some of them, and spellings no theme has.
    fn spellings() -> Vec<Vec<u8>> {
        let mut all: Vec<Vec<u8>> = (0..THEME_MEMO + 8)
            .map(|k| format!("weather/station{k}").into_bytes())
            .collect();
        for odd in [
            " weather/station3",
            "Weather/Station3",
            "/weather/station20/",
            "weather / station5",
            "TRAFFIC",
            "",
            "/",
            "weather//rain",
            "  ",
        ] {
            all.push(odd.as_bytes().to_vec());
        }
        all.push(vec![b'w', 0xff, 0xfe]);
        all
    }

    proptest::proptest! {
        #[test]
        fn a_shared_theme_table_decodes_as_a_fresh_one(
            picks in proptest::collection::vec(0usize..64, 0..400),
        ) {
            let spellings = spellings();
            let mut themes = ThemeTable::default();
            for pick in picks {
                let payload = event_spelled(&spellings[pick % spellings.len()]);
                proptest::prop_assert_eq!(
                    outcome(Record::decode_with(&payload, &mut themes)),
                    outcome(Record::decode(&payload))
                );
            }
        }
    }

    #[test]
    fn the_memo_holds_canonical_spellings_and_the_map_the_rest() {
        let spellings = spellings();
        let mut themes = ThemeTable::default();
        for spelling in spellings.iter().chain(&spellings) {
            let payload = event_spelled(spelling);
            assert_eq!(
                outcome(Record::decode_with(&payload, &mut themes)),
                outcome(Record::decode(&payload))
            );
        }
        assert_eq!(themes.memo.len(), THEME_MEMO);
        // The canonical spellings past the memo, and the five
        // non-canonical ones that parse.
        assert_eq!(themes.parsed.len(), 8 + 5);
    }

    #[test]
    fn decode_rejects_garbage_without_panicking() {
        // Unknown kind, unknown tags, short bodies, trailing bytes.
        assert!(Record::decode(&[]).is_err());
        assert!(Record::decode(&[99]).is_err());
        assert!(Record::decode(&[KIND_HORIZON, 1, 2]).is_err());
        let mut ok = Record::Horizon(Timestamp::from_millis(5)).encode();
        ok.push(0);
        assert!(Record::decode(&ok).is_err());
    }
}
