//! `glob_match` against a reference: the textbook recursive matcher, where a
//! pattern `*` either matches nothing or swallows one more character, `?`
//! any one character and anything else itself. Patterns and texts are drawn
//! from a small alphabet holding both wildcards, so texts are full of `*`
//! and `?` too, and a multi-byte character.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::prelude::*;
use sl_obs::text::glob_match;

fn reference(pattern: &[char], text: &[char]) -> bool {
    match pattern.split_first() {
        None => text.is_empty(),
        Some(('*', rest)) => {
            reference(rest, text) || (!text.is_empty() && reference(pattern, &text[1..]))
        }
        Some(('?', rest)) => !text.is_empty() && reference(rest, &text[1..]),
        Some((c, rest)) => text.first() == Some(c) && reference(rest, &text[1..]),
    }
}

fn arb_string(max: usize) -> impl Strategy<Value = String> {
    let ch = prop_oneof![Just('a'), Just('b'), Just('*'), Just('?'), Just('日'),];
    proptest::collection::vec(ch, 0..max).prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn glob_match_agrees_with_the_recursive_reference(
        pattern in arb_string(8),
        text in arb_string(10),
    ) {
        let (p, t): (Vec<char>, Vec<char>) = (pattern.chars().collect(), text.chars().collect());
        prop_assert_eq!(
            glob_match(&pattern, &text),
            reference(&p, &t),
            "pattern {:?}, text {:?}",
            pattern,
            text
        );
    }
}
