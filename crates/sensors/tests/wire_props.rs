//! The wire codec against its specification: the parent commit's
//! `split_csv` / `parse_flat_json` / `coerce` / `decode_payload` and cell
//! encoders, copied verbatim into `reference` below.
//!
//! * decoding equals the reference — `Ok`/`Err`, error text and values —
//!   on arbitrary schemas × arbitrary bytes and damaged encodings, except
//!   for a CSV `Str` cell that was quoted on the wire (taken verbatim now;
//!   the reference trimmed it, read `null` as `Null` and stripped JSON
//!   quotes from it);
//! * no input panics, in any format;
//! * finite values round-trip through CSV and JSON (`Str("")` reads back
//!   as `Null` in CSV: an empty cell is a missing value);
//! * encoding is byte-identical to the reference, except the CSV cells
//!   newly quoted: a `Str` with edge whitespace or equal to `null`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::TestRng;
use sl_sensors::{decode_payload, WireFormat};
use sl_stt::{
    AttrType, Field, GeoPoint, Schema, SchemaRef, SensorId, SttError, SttMeta, Theme, Timestamp,
    Tuple, Value,
};

/// The parent commit's codec, verbatim but for `encode` becoming a free
/// function (a test cannot add inherent methods to `WireFormat`) and for
/// payloads being plain `Vec<u8>` / `&[u8]` since the `Bytes` shim went.
mod reference {
    use sl_sensors::WireFormat;
    use sl_stt::{AttrType, SchemaRef, SttError, SttMeta, Tuple, Value};

    pub fn encode(format: WireFormat, tuple: &Tuple) -> Vec<u8> {
        let schema = tuple.schema();
        match format {
            WireFormat::Csv => {
                let mut out = String::new();
                for (i, v) in tuple.values().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&csv_cell(v));
                }
                out.into_bytes()
            }
            WireFormat::Json => {
                let mut out = String::from("{");
                for (i, (f, v)) in schema.fields().iter().zip(tuple.values()).enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\":{}", f.name, json_cell(v)));
                }
                out.push('}');
                out.into_bytes()
            }
            WireFormat::KeyValue => {
                let mut out = String::new();
                for (i, (f, v)) in schema.fields().iter().zip(tuple.values()).enumerate() {
                    if i > 0 {
                        out.push(';');
                    }
                    out.push_str(&format!("{}={}", f.name, kv_cell(v)));
                }
                out.into_bytes()
            }
        }
    }

    pub fn csv_cell(v: &Value) -> String {
        match v {
            Value::Null => String::new(),
            Value::Str(s) => {
                if s.contains(',') || s.contains('"') {
                    format!("\"{}\"", s.replace('"', "\"\""))
                } else {
                    s.clone()
                }
            }
            Value::Geo(g) => format!("\"{},{}\"", g.lat, g.lon),
            Value::Time(t) => t.as_millis().to_string(),
            other => other.to_string(),
        }
    }

    fn json_cell(v: &Value) -> String {
        match v {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.is_finite() {
                    f.to_string()
                } else {
                    "null".into()
                }
            }
            Value::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            Value::Time(t) => t.as_millis().to_string(),
            Value::Geo(g) => format!("[{},{}]", g.lat, g.lon),
        }
    }

    fn kv_cell(v: &Value) -> String {
        match v {
            Value::Null => String::new(),
            Value::Str(s) => s.replace([';', '='], " "),
            Value::Geo(g) => format!("{},{}", g.lat, g.lon),
            Value::Time(t) => t.as_millis().to_string(),
            other => other.to_string(),
        }
    }

    pub fn decode_payload(
        payload: &[u8],
        format: WireFormat,
        schema: &SchemaRef,
        meta: SttMeta,
    ) -> Result<Tuple, SttError> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| SttError::Parse("payload is not UTF-8".into()))?;
        let mut values = vec![Value::Null; schema.len()];
        match format {
            WireFormat::Csv => {
                for (i, cell) in split_csv(text).into_iter().enumerate() {
                    if i >= schema.len() {
                        break;
                    }
                    values[i] = coerce(&cell, schema.fields()[i].ty);
                }
            }
            WireFormat::Json => {
                for (key, raw) in parse_flat_json(text)? {
                    if let Ok(idx) = schema.index_of(&key) {
                        values[idx] = coerce(&raw, schema.fields()[idx].ty);
                    }
                }
            }
            WireFormat::KeyValue => {
                for pair in text.split(';') {
                    if let Some((k, v)) = pair.split_once('=') {
                        if let Ok(idx) = schema.index_of(k.trim()) {
                            values[idx] = coerce(v.trim(), schema.fields()[idx].ty);
                        }
                    }
                }
            }
        }
        Tuple::new(schema.clone(), values, meta)
    }

    fn coerce(cell: &str, ty: AttrType) -> Value {
        let cell = cell.trim();
        if cell.is_empty() || cell == "null" {
            return Value::Null;
        }
        // JSON arrays as geo pairs.
        if ty == AttrType::Geo {
            let stripped = cell
                .strip_prefix('[')
                .and_then(|s| s.strip_suffix(']'))
                .unwrap_or(cell);
            return Value::parse_as(stripped, ty).unwrap_or(Value::Null);
        }
        // Strip JSON string quotes for Str cells.
        if ty == AttrType::Str {
            let inner = cell
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .map(|s| s.replace("\\\"", "\"").replace("\\\\", "\\"));
            return Value::Str(inner.unwrap_or_else(|| cell.to_string()));
        }
        Value::parse_as(cell, ty).unwrap_or(Value::Null)
    }

    pub fn split_csv(line: &str) -> Vec<String> {
        let mut cells = Vec::new();
        let mut cur = String::new();
        let mut in_q = false;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    if in_q && chars.peek() == Some(&'"') {
                        cur.push('"');
                        chars.next();
                    } else {
                        in_q = !in_q;
                    }
                }
                ',' if !in_q => {
                    cells.push(std::mem::take(&mut cur));
                }
                _ => cur.push(c),
            }
        }
        cells.push(cur);
        cells
    }

    fn parse_flat_json(text: &str) -> Result<Vec<(String, String)>, SttError> {
        let t = text.trim();
        let inner = t
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| SttError::Parse("not a JSON object".into()))?;
        let mut out = Vec::new();
        let bytes = inner.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            // Skip whitespace and commas.
            while i < bytes.len() && (bytes[i].is_ascii_whitespace() || bytes[i] == b',') {
                i += 1;
            }
            if i >= bytes.len() {
                break;
            }
            if bytes[i] != b'"' {
                return Err(SttError::Parse("expected a JSON key".into()));
            }
            i += 1;
            let kstart = i;
            while i < bytes.len() && bytes[i] != b'"' {
                i += 1;
            }
            if i >= bytes.len() {
                return Err(SttError::Parse("unterminated JSON key".into()));
            }
            let key = inner[kstart..i].to_string();
            i += 1;
            while i < bytes.len() && (bytes[i].is_ascii_whitespace()) {
                i += 1;
            }
            if i >= bytes.len() || bytes[i] != b':' {
                return Err(SttError::Parse("expected `:` in JSON object".into()));
            }
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            let vstart = i;
            if i < bytes.len() && bytes[i] == b'"' {
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' {
                        i += 2;
                        continue;
                    }
                    if bytes[i] == b'"' {
                        break;
                    }
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(SttError::Parse("unterminated JSON string".into()));
                }
                i += 1;
            } else if i < bytes.len() && bytes[i] == b'[' {
                while i < bytes.len() && bytes[i] != b']' {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(SttError::Parse("unterminated JSON array".into()));
                }
                i += 1;
            } else {
                while i < bytes.len() && bytes[i] != b',' {
                    i += 1;
                }
            }
            out.push((key, inner[vstart..i].trim().to_string()));
        }
        Ok(out)
    }
}

// ------------------------------------------------------------------ inputs

const NAMES: [&str; 8] = ["t", "station", "hits", "pos", "ok", "at", "x y", "k"];
const SPECIAL: &[u8] = b",;=\"\\[]{} :";

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

/// 1–6 distinct fields over every attribute type.
fn schema(rng: &mut TestRng) -> SchemaRef {
    let n = 1 + rng.below(6) as usize;
    let mut names = NAMES.to_vec();
    let fields = (0..n)
        .map(|_| {
            let name = names.remove(rng.below(names.len() as u64) as usize);
            Field::new(name, pick(rng, &AttrType::ALL))
        })
        .collect();
    Schema::new(fields).unwrap().into_ref()
}

fn text(rng: &mut TestRng) -> String {
    const WORDS: [&str; 13] = [
        "null", "", " ", "osaka", "\t", "é", "\"hi\"", "a\\b", "NULL", "〜", "\\\"", "\\\\\"",
        "\"\"",
    ];
    (0..rng.below(7))
        .map(|_| match rng.below(4) {
            0 => pick(rng, &WORDS).to_string(),
            1 => (pick(rng, SPECIAL) as char).to_string(),
            2 => pick(rng, &["\"", "\\"]).to_string(),
            _ => ((b'a' + rng.below(26) as u8) as char).to_string(),
        })
        .collect()
}

/// A value of type `ty`: finite, in range, sometimes null.
fn value(rng: &mut TestRng, ty: AttrType) -> Value {
    if rng.below(8) == 0 {
        return Value::Null;
    }
    let float = |rng: &mut TestRng| match rng.below(4) {
        0 => (rng.below(2000) as f64 - 1000.0) / 10.0,
        1 => -0.0,
        _ => (rng.unit_f64() - 0.5) * 10f64.powi(rng.below(40) as i32 - 20),
    };
    match ty {
        AttrType::Bool => Value::Bool(rng.below(2) == 0),
        AttrType::Int => Value::Int(rng.next_u64() as i64 >> rng.below(64)),
        AttrType::Float => Value::Float(float(rng)),
        AttrType::Str => Value::Str(text(rng)),
        AttrType::Time => Value::Time(Timestamp::from_millis(
            (rng.next_u64() >> 20) as i64 - (1 << 43),
        )),
        AttrType::Geo => Value::Geo(GeoPoint::new_unchecked(
            rng.unit_f64() * 180.0 - 90.0,
            rng.unit_f64() * 360.0 - 180.0,
        )),
    }
}

fn meta() -> SttMeta {
    SttMeta::new(
        Timestamp::from_secs(1),
        GeoPoint::new_unchecked(34.7, 135.5),
        Theme::new("weather").unwrap(),
        SensorId(5),
    )
}

fn tuple(rng: &mut TestRng, schema: &SchemaRef) -> Tuple {
    let values = schema.fields().iter().map(|f| value(rng, f.ty)).collect();
    Tuple::new(schema.clone(), values, meta()).unwrap()
}

/// Bytes a sensor might send: garbage, a valid encoding, or one cut,
/// bit-flipped or with separators and quotes dropped into it.
fn payload(rng: &mut TestRng, schema: &SchemaRef) -> Vec<u8> {
    if rng.below(5) == 0 {
        let n = rng.below(48) as usize;
        return (0..n)
            .map(|_| match rng.below(3) {
                0 => pick(rng, SPECIAL),
                1 => b'0' + rng.below(10) as u8,
                _ => rng.next_u64() as u8,
            })
            .collect();
    }
    let format = pick(rng, &WireFormat::ALL);
    let mut bytes = format.encode(&tuple(rng, schema));
    for _ in 0..rng.below(4) {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        match rng.below(3) {
            0 => bytes.truncate(at),
            1 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            _ => bytes.insert(at, pick(rng, SPECIAL)),
        }
    }
    bytes
}

// ------------------------------------------------------------------ oracle

/// Whether each CSV cell held a quote on the wire (the reference's split,
/// tracking what it consumed).
fn quoted_csv_cells(line: &str) -> Vec<bool> {
    let mut quoted = vec![false];
    let mut in_q = false;
    for c in line.chars() {
        match c {
            '"' => {
                in_q = !in_q;
                *quoted.last_mut().unwrap() = true;
            }
            ',' if !in_q => quoted.push(false),
            _ => {}
        }
    }
    quoted
}

/// What `decode_payload` must return: the reference's answer, with a
/// wire-quoted CSV `Str` cell taken verbatim.
fn expected(bytes: &[u8], format: WireFormat, schema: &SchemaRef) -> Result<Vec<Value>, SttError> {
    let tuple = reference::decode_payload(bytes, format, schema, meta())?;
    let mut values = tuple.values().to_vec();
    if format == WireFormat::Csv {
        let text = std::str::from_utf8(bytes).unwrap();
        let cells = reference::split_csv(text);
        for ((i, field), quoted) in schema
            .fields()
            .iter()
            .enumerate()
            .zip(quoted_csv_cells(text))
        {
            if field.ty == AttrType::Str && quoted {
                values[i] = Value::Str(cells[i].clone());
            }
        }
    }
    Ok(values)
}

/// Values compared by their debug rendering: a NaN equals itself.
fn rendered(r: Result<Vec<Value>, SttError>) -> String {
    format!("{r:?}")
}

// ------------------------------------------------------------------ properties

#[test]
fn decoding_matches_the_reference_and_never_panics() {
    let mut rng = TestRng::deterministic("decoding_matches_the_reference");
    let mut checked = [0usize; 2];
    for _ in 0..6_000 {
        let schema = schema(&mut rng);
        let bytes = payload(&mut rng, &schema);
        for format in WireFormat::ALL {
            let got = decode_payload(&bytes, format, &schema, meta()).map(|t| t.values().to_vec());
            checked[usize::from(got.is_ok())] += 1;
            assert_eq!(
                rendered(got),
                rendered(expected(&bytes, format, &schema)),
                "{format:?} {bytes:?} over {:?}",
                schema.fields()
            );
        }
    }
    // Both outcomes were exercised in earnest.
    assert!(checked.iter().all(|&n| n > 1_000), "{checked:?}");
}

#[test]
fn finite_values_round_trip_through_csv_and_json() {
    let mut rng = TestRng::deterministic("finite_values_round_trip");
    for _ in 0..4_000 {
        let schema = schema(&mut rng);
        let t = tuple(&mut rng, &schema);
        for format in [WireFormat::Csv, WireFormat::Json] {
            let back = decode_payload(&format.encode(&t), format, &schema, meta()).unwrap();
            let want: Vec<Value> = t
                .values()
                .iter()
                .map(|v| match v {
                    Value::Str(s) if s.is_empty() && format == WireFormat::Csv => Value::Null,
                    v => v.clone(),
                })
                .collect();
            assert_eq!(
                back.values(),
                &want[..],
                "{format:?} {:?}",
                format.encode(&t)
            );
        }
    }
}

#[test]
fn encoding_is_byte_identical_to_the_reference_but_for_newly_quoted_cells() {
    let mut rng = TestRng::deterministic("encoding_is_byte_identical");
    let mut newly_quoted = 0;
    for _ in 0..4_000 {
        let schema = schema(&mut rng);
        let t = tuple(&mut rng, &schema);
        for format in [WireFormat::Json, WireFormat::KeyValue] {
            assert_eq!(format.encode(&t), reference::encode(format, &t));
        }
        let csv: Vec<String> = t
            .values()
            .iter()
            .map(|v| match v {
                Value::Str(s)
                    if !s.contains([',', '"']) && (s.trim() != s.as_str() || s == "null") =>
                {
                    newly_quoted += 1;
                    format!("\"{s}\"")
                }
                v => reference::csv_cell(v),
            })
            .collect();
        assert_eq!(&WireFormat::Csv.encode(&t)[..], csv.join(",").as_bytes());
    }
    assert!(newly_quoted > 100, "{newly_quoted}");
}
