//! Property tests for the binary codec: every record round-trips
//! bit-for-bit over arbitrary `Value`s and space/time/theme granules
//! (NaN floats included — byte comparison sidesteps `NaN != NaN`), and
//! decode never panics on arbitrary byte soup.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

mod arb;

use arb::{arb_event, arb_record, arb_theme_spelling, event_with_theme_spelling};
use proptest::prelude::*;
use sl_durable::codec::ThemeTable;
use sl_durable::Record;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode → encode is the identity on bytes, for every record
    /// kind over arbitrary values and granules. Byte equality is stronger
    /// than structural equality and handles NaN.
    #[test]
    fn record_round_trips_bit_exactly(rec in arb_record()) {
        let bytes = rec.encode();
        let decoded = Record::decode(&bytes).expect("own encoding must decode");
        prop_assert_eq!(decoded.encode(), bytes);
    }

    /// Decoding arbitrary bytes never panics — it either yields a record or
    /// a corruption error.
    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Record::decode(&bytes);
    }

    /// A single flipped byte anywhere in an encoded record is either caught
    /// as a decode error or yields a record that re-encodes differently —
    /// never a silent identical decode. (The CRC layer above this catches
    /// the flip in all cases; this checks the payload grammar is at least
    /// never *lying*.)
    #[test]
    fn flipped_byte_never_decodes_identically(rec in arb_record(), pos in any::<u64>()) {
        let bytes = rec.encode();
        let i = (pos % bytes.len() as u64) as usize;
        let mut flipped = bytes.clone();
        flipped[i] ^= 0xFF;
        if let Ok(decoded) = Record::decode(&flipped) {
            prop_assert!(
                decoded.encode() != bytes,
                "flip at byte {} decoded back to the original",
                i
            );
        }
    }

    /// Decoding a sequence of payloads through one shared theme table gives,
    /// payload by payload, what `Record::decode` gives alone — repeated,
    /// non-canonical and invalid theme spellings included, and an invalid
    /// one leaves no trace on what follows it.
    #[test]
    fn shared_theme_table_changes_no_decode(
        seq in proptest::collection::vec(
            prop_oneof![
                arb_record().prop_map(|rec| rec.encode()),
                (arb_event(), arb_theme_spelling())
                    .prop_map(|(event, spelling)| event_with_theme_spelling(event, spelling)),
            ],
            1..24,
        ),
    ) {
        let outcome = |r: Result<Record, sl_durable::DurableError>| match r {
            Ok(rec) => Ok(rec.encode()),
            Err(e) => Err(e.to_string()),
        };
        let mut themes = ThemeTable::default();
        for payload in &seq {
            prop_assert_eq!(
                outcome(Record::decode_with(payload, &mut themes)),
                outcome(Record::decode(payload))
            );
        }
    }
}
