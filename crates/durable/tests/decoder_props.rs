//! The record decoder against its specification: the `Record::decode_with`,
//! `Reader`, `ThemeTable` and field decoders of the commit before the
//! decoder's reads became `Option`s with the error built in one cold place,
//! copied verbatim into `reference` below (errors are made by a local
//! `corrupt`, since `DurableError::corrupt` is crate-private).
//!
//! On arbitrary bytes, on every prefix cut and on every single-byte flip of
//! encoded records of every kind, the decoder returns what the reference
//! returns — the same record (compared by its encoding, which handles NaN)
//! or an error with the same text — through a fresh `ThemeTable` and
//! through one shared by the whole run alike, and nothing panics.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

mod arb;

use arb::{arb_event, arb_record, arb_theme_spelling, event_with_theme_spelling};
use proptest::prelude::*;
use sl_durable::codec::ThemeTable;
use sl_durable::{DurableError, Record};

/// The previous decoder, verbatim but for `corrupt` and its own
/// `ThemeTable`.
mod reference {
    use sl_durable::{DurableError, Record};
    use sl_ops::OpCheckpoint;
    use sl_stt::{
        AttrType, Event, Field, GeoPoint, Schema, SensorId, SpatialGranule, SttMeta,
        TemporalGranularity, Theme, Timestamp, Tuple, Unit, Value,
    };
    use std::collections::HashMap;

    fn corrupt(what: impl Into<String>) -> DurableError {
        DurableError::Corrupt(what.into())
    }

    const KIND_EVENT: u8 = 1;
    const KIND_CHECKPOINT: u8 = 2;
    const KIND_HORIZON: u8 = 3;
    const KIND_CHECKPOINT_DELTA: u8 = 4;

    pub(crate) fn decode(payload: &[u8]) -> Result<Record, DurableError> {
        decode_with(payload, &mut ThemeTable::default())
    }

    pub(crate) fn decode_with(
        payload: &[u8],
        themes: &mut ThemeTable,
    ) -> Result<Record, DurableError> {
        let mut r = Reader {
            buf: payload,
            pos: 0,
            themes,
        };
        let rec = match r.u8("record kind")? {
            KIND_EVENT => Record::Event(get_event(&mut r)?),
            KIND_CHECKPOINT => Record::Checkpoint {
                deployment: r.str("deployment")?.to_string(),
                service: r.str("service")?.to_string(),
                state: get_checkpoint(&mut r)?,
            },
            KIND_HORIZON => Record::Horizon(Timestamp::from_millis(r.i64("horizon")?)),
            KIND_CHECKPOINT_DELTA => Record::CheckpointDelta {
                deployment: r.str("deployment")?.to_string(),
                service: r.str("service")?.to_string(),
                evicted: r.u32("evicted count")? as usize,
                appended: get_checkpoint(&mut r)?.tuples,
            },
            other => return Err(corrupt(format!("unknown record kind {other}"))),
        };
        r.finish()?;
        Ok(rec)
    }

    #[derive(Debug, Default)]
    pub(crate) struct ThemeTable {
        parsed: HashMap<Box<str>, Theme>,
    }

    struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
        themes: &'a mut ThemeTable,
    }

    impl<'a> Reader<'a> {
        fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DurableError> {
            let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
            match end {
                Some(end) => {
                    let s = &self.buf[self.pos..end];
                    self.pos = end;
                    Ok(s)
                }
                None => Err(corrupt(format!(
                    "short payload reading {what} ({n} bytes at offset {} of {})",
                    self.pos,
                    self.buf.len()
                ))),
            }
        }

        fn u8(&mut self, what: &str) -> Result<u8, DurableError> {
            Ok(self.take(1, what)?[0])
        }

        fn u32(&mut self, what: &str) -> Result<u32, DurableError> {
            let b = self.take(4, what)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }

        fn u64(&mut self, what: &str) -> Result<u64, DurableError> {
            let b = self.take(8, what)?;
            Ok(u64::from_le_bytes([
                b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
            ]))
        }

        fn i32(&mut self, what: &str) -> Result<i32, DurableError> {
            let b = self.take(4, what)?;
            Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }

        fn i64(&mut self, what: &str) -> Result<i64, DurableError> {
            let b = self.take(8, what)?;
            Ok(i64::from_le_bytes([
                b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
            ]))
        }

        fn f64(&mut self, what: &str) -> Result<f64, DurableError> {
            Ok(f64::from_bits(self.u64(what)?))
        }

        fn str(&mut self, what: &str) -> Result<&'a str, DurableError> {
            let len = self.u32(what)? as usize;
            let bytes = self.take(len, what)?;
            std::str::from_utf8(bytes).map_err(|_| corrupt(format!("{what}: invalid utf-8")))
        }

        fn count(&mut self, what: &str) -> Result<usize, DurableError> {
            let n = self.u32(what)? as usize;
            if n > self.buf.len() - self.pos {
                return Err(corrupt(format!(
                    "{what}: implausible count {n} with {} bytes left",
                    self.buf.len() - self.pos
                )));
            }
            Ok(n)
        }

        fn finish(&self) -> Result<(), DurableError> {
            if self.pos == self.buf.len() {
                Ok(())
            } else {
                Err(corrupt(format!(
                    "{} trailing bytes after record",
                    self.buf.len() - self.pos
                )))
            }
        }
    }

    const VAL_NULL: u8 = 0;
    const VAL_BOOL: u8 = 1;
    const VAL_INT: u8 = 2;
    const VAL_FLOAT: u8 = 3;
    const VAL_STR: u8 = 4;
    const VAL_TIME: u8 = 5;
    const VAL_GEO: u8 = 6;

    fn get_value(r: &mut Reader<'_>) -> Result<Value, DurableError> {
        Ok(match r.u8("value tag")? {
            VAL_NULL => Value::Null,
            VAL_BOOL => match r.u8("bool")? {
                0 => Value::Bool(false),
                1 => Value::Bool(true),
                other => return Err(corrupt(format!("bad bool byte {other}"))),
            },
            VAL_INT => Value::Int(r.i64("int")?),
            VAL_FLOAT => Value::Float(r.f64("float")?),
            VAL_STR => Value::Str(r.str("str")?.to_string()),
            VAL_TIME => Value::Time(Timestamp::from_millis(r.i64("time")?)),
            VAL_GEO => Value::Geo(GeoPoint::new_unchecked(r.f64("lat")?, r.f64("lon")?)),
            other => return Err(corrupt(format!("unknown value tag {other}"))),
        })
    }

    fn get_tgran(r: &mut Reader<'_>) -> Result<TemporalGranularity, DurableError> {
        let tag = r.u8("temporal granularity")? as usize;
        if tag < TemporalGranularity::NAMED.len() {
            Ok(TemporalGranularity::NAMED[tag])
        } else if tag == TemporalGranularity::NAMED.len() {
            Ok(TemporalGranularity::Custom(r.u64("custom granularity")?))
        } else {
            Err(corrupt(format!("unknown temporal granularity tag {tag}")))
        }
    }

    const SG_POINT: u8 = 0;
    const SG_CELL: u8 = 1;
    const SG_WORLD: u8 = 2;

    fn get_sgranule(r: &mut Reader<'_>) -> Result<SpatialGranule, DurableError> {
        Ok(match r.u8("spatial granule tag")? {
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
            other => return Err(corrupt(format!("unknown spatial granule tag {other}"))),
        })
    }

    fn get_theme(r: &mut Reader<'_>) -> Result<Theme, DurableError> {
        let s = r.str("theme")?;
        if let Some(theme) = r.themes.parsed.get(s) {
            return Ok(theme.clone());
        }
        let theme = Theme::new(s).map_err(|e| corrupt(format!("theme `{s}`: {e}")))?;
        r.themes.parsed.insert(s.into(), theme.clone());
        Ok(theme)
    }

    fn get_event(r: &mut Reader<'_>) -> Result<Event, DurableError> {
        let value = get_value(r)?;
        let tgran = get_tgran(r)?;
        let tgranule = r.i64("tgranule")?;
        let sgranule = get_sgranule(r)?;
        let theme = get_theme(r)?;
        Ok(Event::new(value, tgran, tgranule, sgranule, theme))
    }

    fn get_field(r: &mut Reader<'_>) -> Result<Field, DurableError> {
        let name = r.str("field name")?;
        let ty_tag = r.u8("attr type")? as usize;
        let ty = *AttrType::ALL
            .get(ty_tag)
            .ok_or_else(|| corrupt(format!("unknown attr type tag {ty_tag}")))?;
        let unit_tag = r.u8("unit")? as usize;
        if unit_tag == 0 {
            Ok(Field::new(name, ty))
        } else {
            let unit = *Unit::ALL
                .get(unit_tag - 1)
                .ok_or_else(|| corrupt(format!("unknown unit tag {unit_tag}")))?;
            Ok(Field::with_unit(name, ty, unit))
        }
    }

    fn get_tuple(r: &mut Reader<'_>) -> Result<Tuple, DurableError> {
        let n = r.count("field count")?;
        let mut fields = Vec::with_capacity(n);
        for _ in 0..n {
            fields.push(get_field(r)?);
        }
        let schema = Schema::new(fields)
            .map_err(|e| corrupt(format!("schema: {e}")))?
            .into_ref();
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
            other => return Err(corrupt(format!("bad location flag {other}"))),
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
        Tuple::new(schema, values, meta).map_err(|e| corrupt(format!("tuple: {e}")))
    }

    fn get_checkpoint(r: &mut Reader<'_>) -> Result<OpCheckpoint, DurableError> {
        let n = r.count("checkpoint tuple count")?;
        let mut tuples = Vec::with_capacity(n);
        for _ in 0..n {
            let port = r.u32("checkpoint port")? as usize;
            tuples.push((port, get_tuple(r)?));
        }
        Ok(OpCheckpoint { tuples })
    }
}

/// A decode outcome in comparable form: the record's own encoding, or the
/// error's text.
fn outcome(r: Result<Record, DurableError>) -> Result<Vec<u8>, String> {
    match r {
        Ok(rec) => Ok(rec.encode()),
        Err(e) => Err(e.to_string()),
    }
}

/// `payload` decodes as the reference decodes it, through a fresh table and
/// through `shared`.
fn agrees(payload: &[u8], shared: &mut ThemeTable) {
    let want = outcome(reference::decode(payload));
    assert_eq!(
        outcome(Record::decode(payload)),
        want,
        "fresh table, {payload:?}"
    );
    assert_eq!(
        outcome(Record::decode_with(payload, shared)),
        want,
        "shared table, {payload:?}"
    );
}

/// Every prefix of `bytes` and every one of its single-byte flips by `mask`.
fn every_cut_and_flip(bytes: &[u8], mask: u8, shared: &mut ThemeTable) {
    for cut in 0..=bytes.len() {
        agrees(&bytes[..cut], shared);
    }
    let mut flipped = bytes.to_vec();
    for i in 0..bytes.len() {
        flipped[i] ^= mask;
        agrees(&flipped, shared);
        flipped[i] ^= mask;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Byte soup, bare and behind each record kind's tag.
    #[test]
    fn arbitrary_bytes_decode_as_the_reference_does(
        kind in 0u8..6,
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let mut shared = ThemeTable::default();
        agrees(&bytes, &mut shared);
        let mut tagged = vec![kind];
        tagged.extend_from_slice(&bytes);
        agrees(&tagged, &mut shared);
    }

    /// Every cut and every flip of a run of encoded records, one table
    /// shared across the whole run.
    #[test]
    fn damaged_records_decode_as_the_reference_does(
        recs in proptest::collection::vec(arb_record(), 1..4),
        mask in 1u8..=255,
    ) {
        let mut shared = ThemeTable::default();
        for rec in &recs {
            every_cut_and_flip(&rec.encode(), mask, &mut shared);
            every_cut_and_flip(&rec.encode(), 0xFF, &mut shared);
        }
    }

    /// Events whose theme is spelled canonically, non-canonically or not
    /// validly at all, and their damage.
    #[test]
    fn theme_spellings_decode_as_the_reference_does(
        seq in proptest::collection::vec((arb_event(), arb_theme_spelling()), 1..12),
        mask in 1u8..=255,
    ) {
        let mut shared = ThemeTable::default();
        for (event, spelling) in seq {
            every_cut_and_flip(&event_with_theme_spelling(event, spelling), mask, &mut shared);
        }
    }
}
