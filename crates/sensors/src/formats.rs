//! Heterogeneous wire formats and the Extract step.
//!
//! Real fleets never agree on encodings: this module provides CSV, JSON and
//! `key=value` payload encodings plus the extraction parser that turns any
//! of them back into a [`Tuple`] given the advertised schema. Decoding is
//! deliberately forgiving — missing attributes become null, malformed values
//! become null — because sensors send garbage and the dataflow must keep
//! running (validation rules downstream decide what to drop).
//!
//! One emission costs what its bytes cost: [`WireFormat::encode`] writes
//! every cell into one pre-sized buffer, and [`decode_payload`] walks the
//! payload as borrowed slices straight into [`Value`]s — a value is only
//! copied out when it becomes a `Str`, and an attribute is found by a scan
//! over the schema's fields.
//!
//! What each format carries losslessly (`decode(encode(t)) == t`):
//!
//! * **CSV** — every finite value. A `Str` holding `,`, `"`, leading or
//!   trailing whitespace, or equal to `null` is quoted on the wire, and a
//!   quoted cell is taken verbatim. The one exception: `Str("")` is an empty
//!   cell, which reads back as `Null`.
//! * **JSON** — every finite value (a non-finite `Float` is written as
//!   `null`). Strings escape `\` and `"`; field names are written as is.
//! * **Key-value** — no escaping: a `Str` loses its `;` and `=` (written as
//!   spaces) and its edge whitespace, one wrapped in `"…"` loses the quotes,
//!   and `Str("")` / `Str("null")` read back as `Null`.

use sl_stt::{trim_field, AttrType, SchemaRef, SttError, SttMeta, Tuple, Value};
use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// The payload encoding a sensor uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireFormat {
    /// Header-less CSV in schema order.
    Csv,
    /// Flat JSON object.
    Json,
    /// `key=value` pairs separated by `;`.
    KeyValue,
}

impl WireFormat {
    /// All formats.
    pub const ALL: [WireFormat; 3] = [WireFormat::Csv, WireFormat::Json, WireFormat::KeyValue];

    /// Encode a tuple's values (metadata travels out of band in the
    /// simulated transport).
    pub fn encode(self, tuple: &Tuple) -> Vec<u8> {
        let cells = tuple.schema().fields().iter().zip(tuple.values());
        // Room for every name and a typical cell: the buffer rarely grows.
        let size = cells.clone().map(|(f, v)| match v {
            Value::Str(s) => f.name.len() + s.len() + 8,
            _ => f.name.len() + 48,
        });
        let mut out = String::with_capacity(size.sum::<usize>() + 2);
        let (open, sep, close) = match self {
            WireFormat::Csv => ("", ',', ""),
            WireFormat::Json => ("{", ',', "}"),
            WireFormat::KeyValue => ("", ';', ""),
        };
        out.push_str(open);
        for (i, (field, value)) in cells.enumerate() {
            if i > 0 {
                out.push(sep);
            }
            let written = match self {
                WireFormat::Csv => csv_cell(&mut out, value),
                WireFormat::Json => {
                    out.push('"');
                    out.push_str(&field.name);
                    out.push_str("\":");
                    json_cell(&mut out, value)
                }
                WireFormat::KeyValue => {
                    out.push_str(&field.name);
                    out.push('=');
                    kv_cell(&mut out, value)
                }
            };
            debug_assert!(written.is_ok(), "writing into a String cannot fail");
        }
        out.push_str(close);
        out.into_bytes()
    }
}

fn csv_cell(out: &mut String, v: &Value) -> fmt::Result {
    match v {
        Value::Null => Ok(()),
        Value::Str(s)
            if s.bytes().any(|b| b == b',' || b == b'"')
                || trim_field(s).len() != s.len()
                || s == "null" =>
        {
            out.push('"');
            push_escaped(out, s, '"', b"\"");
            out.write_char('"')
        }
        Value::Str(s) => out.write_str(s),
        Value::Geo(g) => write!(out, "\"{},{}\"", g.lat, g.lon),
        scalar => scalar_cell(out, scalar),
    }
}

fn json_cell(out: &mut String, v: &Value) -> fmt::Result {
    match v {
        Value::Null => out.write_str("null"),
        Value::Float(f) if !f.is_finite() => out.write_str("null"),
        Value::Str(s) => {
            out.push('"');
            push_escaped(out, s, '\\', b"\\\"");
            out.write_char('"')
        }
        Value::Geo(g) => write!(out, "[{},{}]", g.lat, g.lon),
        scalar => scalar_cell(out, scalar),
    }
}

fn kv_cell(out: &mut String, v: &Value) -> fmt::Result {
    match v {
        Value::Null => Ok(()),
        Value::Str(s) => {
            for c in s.chars() {
                out.push(if c == ';' || c == '=' { ' ' } else { c });
            }
            Ok(())
        }
        Value::Geo(g) => write!(out, "{},{}", g.lat, g.lon),
        scalar => scalar_cell(out, scalar),
    }
}

/// A flag, number or instant — written alike by every format.
fn scalar_cell(out: &mut String, v: &Value) -> fmt::Result {
    match v {
        Value::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
        Value::Int(i) => write!(out, "{i}"),
        Value::Float(x) => write!(out, "{x}"),
        Value::Time(t) => write!(out, "{}", t.as_millis()),
        other => write!(out, "{other}"),
    }
}

/// Append `s` with `escape` before each of its `special` (ASCII) bytes.
fn push_escaped(out: &mut String, s: &str, escape: char, special: &[u8]) {
    let mut from = 0;
    for (at, b) in s.bytes().enumerate() {
        if special.contains(&b) {
            out.push_str(&s[from..at]);
            out.push(escape);
            from = at;
        }
    }
    out.push_str(&s[from..]);
}

/// Extract a tuple from a payload: parse per the format, then coerce each
/// attribute to the schema's type. Unparseable or missing attributes become
/// null; extra attributes are ignored.
pub fn decode_payload(
    payload: &[u8],
    format: WireFormat,
    schema: &SchemaRef,
    meta: SttMeta,
) -> Result<Tuple, SttError> {
    let text =
        std::str::from_utf8(payload).map_err(|_| SttError::Parse("payload is not UTF-8".into()))?;
    let fields = schema.fields();
    let mut values = vec![Value::Null; fields.len()];
    // A handful of fields: a scan, and no error built for a key they lack.
    let slot = |key: &str| fields.iter().position(|f| f.name == key);
    match format {
        WireFormat::Csv => {
            let mut rest = Some(text);
            for (value, field) in values.iter_mut().zip(fields) {
                let Some(line) = rest else {
                    break;
                };
                let (cell, quoted, next) = first_csv_cell(line);
                rest = next;
                *value = match field.ty {
                    AttrType::Str if quoted => Value::Str(cell.into_owned()),
                    ty => coerce(&cell, ty),
                };
            }
        }
        WireFormat::Json => json_pairs(text, |key, raw| {
            if let Some(i) = slot(key) {
                values[i] = coerce(raw, fields[i].ty);
            }
        })?,
        WireFormat::KeyValue => {
            let mut rest = Some(text);
            while let Some(line) = rest {
                let (pair, next) = split_at_byte(line, b';');
                rest = next;
                if let (key, Some(raw)) = split_at_byte(pair, b'=') {
                    if let Some(i) = slot(trim_field(key)) {
                        values[i] = coerce(raw, fields[i].ty);
                    }
                }
            }
        }
    }
    Tuple::new(schema.clone(), values, meta)
}

/// `s` before the first `byte`, and what follows it (`None` without one).
/// Fields are short: a byte loop beats `str::split`'s searcher set-up.
fn split_at_byte(s: &str, byte: u8) -> (&str, Option<&str>) {
    match s.bytes().position(|b| b == byte) {
        Some(k) => (&s[..k], Some(&s[k + 1..])),
        None => (s, None),
    }
}

/// Coerce a textual cell into the target type; failures yield null. A
/// `Str` wrapped in JSON quotes loses them and the encoder's escapes.
fn coerce(cell: &str, ty: AttrType) -> Value {
    let cell = trim_field(cell);
    if cell.is_empty() || cell == "null" {
        return Value::Null;
    }
    match ty {
        // JSON arrays as geo pairs.
        AttrType::Geo => {
            let pair = cell.strip_prefix('[').and_then(|s| s.strip_suffix(']'));
            Value::parse_as(pair.unwrap_or(cell), ty).unwrap_or(Value::Null)
        }
        AttrType::Str => Value::Str(
            match cell.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
                Some(inner) => unescape(inner),
                None => cell.to_string(),
            },
        ),
        _ => Value::parse_as(cell, ty).unwrap_or(Value::Null),
    }
}

/// Undo `\"` then `\\` in one pass: a run of `k` backslashes keeps
/// `ceil(k / 2)` of them, or `ceil((k - 1) / 2)` when its last one escapes
/// a quote.
fn unescape(inner: &str) -> String {
    if !inner.bytes().any(|b| b == b'\\') {
        return inner.to_string();
    }
    let mut out = String::with_capacity(inner.len());
    let mut run = 0usize;
    for c in inner.chars() {
        if c == '\\' {
            run += 1;
            continue;
        }
        let kept = if c == '"' { run.saturating_sub(1) } else { run };
        out.extend(std::iter::repeat_n('\\', kept.div_ceil(2)));
        out.push(c);
        run = 0;
    }
    out.extend(std::iter::repeat_n('\\', run.div_ceil(2)));
    out
}

/// The first cell of a CSV line: its text with the quoting undone, whether
/// any of it was quoted on the wire, and the rest of the line after its
/// comma (`None` after the last cell). Borrowed unless quotes have to be
/// taken out of the middle of it.
fn first_csv_cell(line: &str) -> (Cow<'_, str>, bool, Option<&str>) {
    let bytes = line.as_bytes();
    let Some(i) = bytes.iter().position(|&b| b == b',' || b == b'"') else {
        return (Cow::Borrowed(line), false, None);
    };
    if bytes[i] == b',' {
        return (Cow::Borrowed(&line[..i]), false, Some(&line[i + 1..]));
    }
    // `"text"` up to the comma or the end: the text itself.
    if let Some((text, Some(after))) = line.strip_prefix('"').map(|s| split_at_byte(s, b'"')) {
        match after.as_bytes().first() {
            None => return (Cow::Borrowed(text), true, None),
            Some(b',') => return (Cow::Borrowed(text), true, Some(&after[1..])),
            Some(_) => {}
        }
    }
    // Anything else: toggle on each quote, a doubled one inside quotes is
    // a literal `"`, an unterminated one runs to the end of the line.
    let mut cell = String::new();
    let mut in_quotes = false;
    let mut chars = line.char_indices().peekable();
    while let Some((at, c)) = chars.next() {
        match c {
            '"' if in_quotes && chars.next_if(|&(_, c)| c == '"').is_some() => cell.push('"'),
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => return (Cow::Owned(cell), true, Some(&line[at + 1..])),
            c => cell.push(c),
        }
    }
    (Cow::Owned(cell), true, None)
}

/// Walk a flat JSON object — `{"k": scalar, ...}` with string, number,
/// bool, null and `[a,b]` values — handing each key and its raw value text
/// to `pair` in document order.
fn json_pairs(text: &str, mut pair: impl FnMut(&str, &str)) -> Result<(), SttError> {
    let err = |msg: &str| Err(SttError::Parse(msg.into()));
    let inner = trim_field(text).strip_prefix('{');
    let Some(inner) = inner.and_then(|s| s.strip_suffix('}')) else {
        return err("not a JSON object");
    };
    let bytes = inner.as_bytes();
    let skip = |mut i: usize, commas: bool| {
        while bytes
            .get(i)
            .is_some_and(|b| b.is_ascii_whitespace() || (commas && *b == b','))
        {
            i += 1;
        }
        i
    };
    let find = |from: usize, byte: u8| {
        let rest = bytes.get(from..).unwrap_or_default();
        rest.iter().position(|b| *b == byte).map(|k| from + k)
    };
    let mut i = 0;
    loop {
        i = skip(i, true);
        match bytes.get(i) {
            None => return Ok(()),
            Some(b'"') => {}
            Some(_) => return err("expected a JSON key"),
        }
        let Some(end) = find(i + 1, b'"') else {
            return err("unterminated JSON key");
        };
        let key = &inner[i + 1..end];
        i = skip(end + 1, false);
        if bytes.get(i) != Some(&b':') {
            return err("expected `:` in JSON object");
        }
        let start = skip(i + 1, false);
        i = match bytes.get(start) {
            // Up to the first quote after an even run of backslashes (a
            // backslash escapes the byte after it, whatever it is).
            Some(b'"') => {
                let mut from = start + 1;
                loop {
                    let Some(quote) = find(from, b'"') else {
                        return err("unterminated JSON string");
                    };
                    let run = bytes[start + 1..quote].iter().rev();
                    if run.take_while(|b| **b == b'\\').count() % 2 == 0 {
                        break quote + 1;
                    }
                    from = quote + 1;
                }
            }
            Some(b'[') => match find(start, b']') {
                Some(end) => end + 1,
                None => return err("unterminated JSON array"),
            },
            _ => find(start, b',').unwrap_or(bytes.len()),
        };
        pair(key, &inner[start..i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{Field, GeoPoint, Schema, SensorId, Theme, Timestamp};

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("temperature", AttrType::Float),
            Field::new("station", AttrType::Str),
            Field::new("hits", AttrType::Int),
            Field::new("pos", AttrType::Geo),
        ])
        .unwrap()
        .into_ref()
    }

    fn meta() -> SttMeta {
        SttMeta::new(
            Timestamp::from_secs(1),
            GeoPoint::new_unchecked(34.7, 135.5),
            Theme::new("weather").unwrap(),
            SensorId(5),
        )
    }

    fn tuple() -> Tuple {
        Tuple::new(
            schema(),
            vec![
                Value::Float(25.5),
                Value::Str("osaka,main".into()),
                Value::Int(7),
                Value::Geo(GeoPoint::new_unchecked(34.7, 135.5)),
            ],
            meta(),
        )
        .unwrap()
    }

    #[test]
    fn encode_decode_round_trip_all_formats() {
        for fmt in WireFormat::ALL {
            let t = tuple();
            let payload = fmt.encode(&t);
            let back = decode_payload(&payload, fmt, &schema(), meta()).unwrap();
            assert_eq!(
                back.get("temperature").unwrap(),
                &Value::Float(25.5),
                "{fmt:?}"
            );
            assert_eq!(back.get("hits").unwrap(), &Value::Int(7), "{fmt:?}");
            let g = back.get("pos").unwrap().as_geo().unwrap();
            assert!((g.lat - 34.7).abs() < 1e-9, "{fmt:?}");
            // Key-value flattens the comma-containing string; CSV/JSON keep it.
            if fmt != WireFormat::KeyValue {
                assert_eq!(
                    back.get("station").unwrap(),
                    &Value::Str("osaka,main".into()),
                    "{fmt:?}"
                );
            }
        }
    }

    /// Every cell of a CSV line, with its quoted-on-the-wire flag.
    fn csv_cells(line: &str) -> Vec<(String, bool)> {
        let mut cells = Vec::new();
        let mut rest = Some(line);
        while let Some(line) = rest {
            let (cell, quoted, next) = first_csv_cell(line);
            cells.push((cell.into_owned(), quoted));
            rest = next;
        }
        cells
    }

    #[test]
    fn csv_quoted_cells() {
        let cells = csv_cells("a,\"b,c\",\"say \"\"hi\"\"\",d,x\"y\"z,\"open,end");
        let plain = |s: &str| (s.to_string(), false);
        let quoted = |s: &str| (s.to_string(), true);
        assert_eq!(
            cells,
            vec![
                plain("a"),
                quoted("b,c"),
                quoted("say \"hi\""),
                plain("d"),
                quoted("xyz"),
                quoted("open,end"),
            ]
        );
        assert_eq!(csv_cells(""), vec![plain("")]);
        assert_eq!(csv_cells("a,"), vec![plain("a"), plain("")]);
        assert_eq!(csv_cells("\"\",b"), vec![quoted(""), plain("b")]);
    }

    #[test]
    fn csv_strings_survive_their_own_wire_format() {
        let s = Schema::new(vec![Field::new("msg", AttrType::Str)])
            .unwrap()
            .into_ref();
        for text in ["\"hi\"", " padded ", "null", "a \"b\", c", "\t"] {
            let t = Tuple::new(s.clone(), vec![Value::Str(text.into())], meta()).unwrap();
            let payload = WireFormat::Csv.encode(&t);
            let back = decode_payload(&payload, WireFormat::Csv, &s, meta()).unwrap();
            assert_eq!(
                back.get("msg").unwrap(),
                &Value::Str(text.into()),
                "{payload:?}"
            );
        }
        // What needs no quoting is still written bare.
        let t = Tuple::new(s.clone(), vec![Value::Str("NULL x".into())], meta()).unwrap();
        assert_eq!(&WireFormat::Csv.encode(&t)[..], b"NULL x");
    }

    #[test]
    fn missing_attributes_become_null() {
        let payload = b"{\"temperature\": 20.5}";
        let t = decode_payload(payload, WireFormat::Json, &schema(), meta()).unwrap();
        assert_eq!(t.get("temperature").unwrap(), &Value::Float(20.5));
        assert_eq!(t.get("station").unwrap(), &Value::Null);
        assert_eq!(t.get("hits").unwrap(), &Value::Null);
    }

    #[test]
    fn malformed_values_become_null_not_errors() {
        let payload = b"not_a_number,osaka,many,nowhere";
        let t = decode_payload(payload, WireFormat::Csv, &schema(), meta()).unwrap();
        assert_eq!(t.get("temperature").unwrap(), &Value::Null);
        assert_eq!(t.get("station").unwrap(), &Value::Str("osaka".into()));
        assert_eq!(t.get("hits").unwrap(), &Value::Null);
        assert_eq!(t.get("pos").unwrap(), &Value::Null);
    }

    #[test]
    fn extra_attributes_ignored() {
        let payload = b"temperature=20;wind=99;station=osaka";
        let t = decode_payload(payload, WireFormat::KeyValue, &schema(), meta()).unwrap();
        assert_eq!(t.get("temperature").unwrap(), &Value::Float(20.0));
        assert_eq!(t.get("station").unwrap(), &Value::Str("osaka".into()));
    }

    #[test]
    fn non_utf8_payload_is_an_error() {
        let payload = [0xFF, 0xFE, 0x00];
        assert!(decode_payload(&payload, WireFormat::Csv, &schema(), meta()).is_err());
    }

    #[test]
    fn broken_json_is_an_error() {
        for bad in ["not json", "{\"k\" 1}", "{\"k\": \"unterminated}", "{k: 1}"] {
            assert!(
                decode_payload(bad.as_bytes(), WireFormat::Json, &schema(), meta()).is_err(),
                "`{bad}` should fail"
            );
        }
    }

    #[test]
    fn json_escapes_round_trip() {
        let s = Schema::new(vec![Field::new("msg", AttrType::Str)])
            .unwrap()
            .into_ref();
        let t = Tuple::new(
            s.clone(),
            vec![Value::Str("say \"hi\" \\ ok".into())],
            meta(),
        )
        .unwrap();
        let payload = WireFormat::Json.encode(&t);
        let back = decode_payload(&payload, WireFormat::Json, &s, meta()).unwrap();
        assert_eq!(
            back.get("msg").unwrap(),
            &Value::Str("say \"hi\" \\ ok".into())
        );
    }

    #[test]
    fn null_cells_encode_and_decode() {
        let s = Schema::new(vec![
            Field::new("a", AttrType::Float),
            Field::new("b", AttrType::Str),
        ])
        .unwrap()
        .into_ref();
        let t = Tuple::new(s.clone(), vec![Value::Null, Value::Str("x".into())], meta()).unwrap();
        for fmt in WireFormat::ALL {
            let back = decode_payload(&fmt.encode(&t), fmt, &s, meta()).unwrap();
            assert_eq!(back.get("a").unwrap(), &Value::Null, "{fmt:?}");
            assert_eq!(back.get("b").unwrap(), &Value::Str("x".into()), "{fmt:?}");
        }
    }
}
