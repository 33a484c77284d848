//! Extraction pays for the values it produces, not for the text it walks:
//! decoding a 3-field payload allocates the values `Vec` plus one `String`
//! per `Str` field, in every wire format — no per-cell or per-pair copy of
//! the payload, no error built for a key the schema lacks. One test only —
//! the counter below is process-wide, and a second test running beside it
//! would be counted too.

use sl_sensors::{decode_payload, WireFormat};
use sl_stt::{
    AttrType, Field, GeoPoint, Schema, SensorId, SttMeta, Theme, Timestamp, Tuple, Value,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_three_field_decode_allocates_its_vec_and_one_string_per_str_field() {
    let meta = SttMeta::new(
        Timestamp::from_secs(1),
        GeoPoint::new_unchecked(34.7, 135.5),
        Theme::new("weather/rain").unwrap(),
        SensorId(1),
    );
    // (fields, values) of each payload.
    type Row = (&'static [(&'static str, AttrType)], Vec<Value>);
    let rows: [Row; 3] = [
        (
            &[
                ("rain", AttrType::Float),
                ("torrential", AttrType::Bool),
                ("station", AttrType::Str),
            ],
            vec![
                Value::Float(12.25),
                Value::Bool(true),
                Value::Str("osaka,main".into()),
            ],
        ),
        (
            &[
                ("pos", AttrType::Geo),
                ("at", AttrType::Time),
                ("hits", AttrType::Int),
            ],
            vec![
                Value::Geo(GeoPoint::new_unchecked(34.7, 135.5)),
                Value::Time(Timestamp::from_secs(1_467_331_200)),
                Value::Int(-7),
            ],
        ),
        (
            &[
                ("text", AttrType::Str),
                ("user", AttrType::Str),
                ("level", AttrType::Float),
            ],
            vec![
                Value::Str("say \"hi\"".into()),
                Value::Str(" padded ".into()),
                Value::Null,
            ],
        ),
    ];
    for (fields, values) in rows {
        let schema = Schema::new(fields.iter().map(|(n, ty)| Field::new(n, *ty)).collect())
            .unwrap()
            .into_ref();
        let strs = fields.iter().filter(|(_, ty)| *ty == AttrType::Str).count() as u64;
        let tuple = Tuple::new(schema.clone(), values, meta.clone()).unwrap();
        for format in WireFormat::ALL {
            let payload = format.encode(&tuple);
            // A key the schema lacks costs nothing either.
            let extra = match format {
                WireFormat::Csv => payload.clone(),
                WireFormat::Json => {
                    let text = std::str::from_utf8(&payload).unwrap();
                    format!("{{\"wind\":3,{}", &text[1..]).into_bytes()
                }
                WireFormat::KeyValue => {
                    format!("wind=3;{}", std::str::from_utf8(&payload).unwrap()).into_bytes()
                }
            };
            for payload in [payload, extra] {
                let meta = meta.clone();
                let before = ALLOCS.load(Relaxed);
                let decoded = decode_payload(&payload, format, &schema, meta);
                let allocs = ALLOCS.load(Relaxed) - before;
                let decoded = decoded.unwrap();
                assert!(
                    allocs <= 1 + strs,
                    "{format:?} {payload:?}: {allocs} allocations for {strs} Str fields"
                );
                assert_eq!(decoded.values().len(), 3);
            }
        }
    }
}
