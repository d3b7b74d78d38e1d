//! Property and malformed-input tests for `llp::obs::json` — the
//! parser now sits behind the `llpd` HTTP service and must treat every
//! byte of a request body as attacker-controlled: arbitrary documents
//! round-trip exactly, and malformed input (truncation, deep nesting,
//! huge numbers, stray escapes) yields a clean `Err`, never a panic.

use llp::obs::json::{Json, MAX_PARSE_DEPTH};
use proptest::prelude::*;
use proptest::strategy::Rejected;
use proptest::test_runner::TestRng;

/// Generates arbitrary `Json` values with bounded depth and width.
///
/// The vendored proptest shim has no recursive-strategy combinator, so
/// this implements [`Strategy`] directly: a weighted choice between the
/// scalar kinds and (until `max_depth` runs out) arrays and objects.
#[derive(Debug, Clone, Copy)]
struct JsonStrategy {
    max_depth: u32,
}

fn gen_string(rng: &mut TestRng) -> String {
    let len = rng.gen_u64(0, 9);
    (0..len)
        .map(|_| {
            // Bias toward characters that exercise the escaper: quotes,
            // backslashes, control characters, multi-byte UTF-8.
            match rng.gen_u64(0, 8) {
                0 => '"',
                1 => '\\',
                2 => '\n',
                3 => '\u{1}',
                4 => 'ü',
                5 => '\u{1F600}',
                _ => char::from_u32(u32::try_from(rng.gen_u64(32, 127)).unwrap()).unwrap(),
            }
        })
        .collect()
}

fn gen_number(rng: &mut TestRng) -> f64 {
    match rng.gen_u64(0, 5) {
        0 => 0.0,
        1 => rng.gen_u64(0, 1 << 53) as f64, // exact integers
        2 => -(rng.gen_u64(0, 1_000_000) as f64),
        3 => rng.gen_f64(-1.0, 1.0),
        _ => rng.gen_f64(-1e15, 1e15),
    }
}

fn gen_value(rng: &mut TestRng, depth_left: u32) -> Json {
    let kinds = if depth_left == 0 { 4 } else { 6 };
    match rng.gen_u64(0, kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_u64(0, 2) == 0),
        2 => Json::Num(gen_number(rng)),
        3 => Json::Str(gen_string(rng)),
        4 => {
            let n = rng.gen_u64(0, 4);
            Json::Array((0..n).map(|_| gen_value(rng, depth_left - 1)).collect())
        }
        _ => {
            let n = rng.gen_u64(0, 4);
            Json::Object(
                (0..n)
                    .map(|i| {
                        (
                            format!("{}{i}", gen_string(rng)),
                            gen_value(rng, depth_left - 1),
                        )
                    })
                    .collect(),
            )
        }
    }
}

impl Strategy for JsonStrategy {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Result<Json, Rejected> {
        Ok(gen_value(rng, self.max_depth))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compact_print_parse_round_trips(value in JsonStrategy { max_depth: 4 }) {
        let text = value.to_string();
        let back = Json::parse(&text).map_err(TestCaseError::fail)?;
        prop_assert_eq!(back, value);
    }

    #[test]
    fn pretty_print_parse_round_trips(value in JsonStrategy { max_depth: 4 }) {
        let text = value.to_pretty_string();
        let back = Json::parse(&text).map_err(TestCaseError::fail)?;
        prop_assert_eq!(back, value);
    }

    #[test]
    fn printing_is_deterministic(value in JsonStrategy { max_depth: 3 }) {
        prop_assert_eq!(value.to_string(), value.clone().to_string());
        prop_assert_eq!(value.to_pretty_string(), value.clone().to_pretty_string());
    }

    #[test]
    fn every_truncation_errs_never_panics(value in JsonStrategy { max_depth: 3 }) {
        // Scalars have parseable prefixes ("123" -> "12"); wrap in an
        // array so every proper prefix is incomplete.
        let doc = Json::Array(vec![value]).to_string();
        for cut in 0..doc.len() {
            if doc.is_char_boundary(cut) {
                prop_assert!(Json::parse(&doc[..cut]).is_err(), "prefix {} parsed", cut);
            }
        }
        prop_assert!(Json::parse(&doc).is_ok());
    }

    #[test]
    fn arbitrary_ascii_never_panics(bytes in prop::collection::vec(32u8..127, 0usize..64)) {
        let text = String::from_utf8(bytes).expect("ascii");
        // Any outcome is fine; the property is "no panic, no abort".
        let _ = Json::parse(&text);
    }
}

#[test]
fn nesting_at_and_beyond_the_cap() {
    let nested = |n: usize| format!("{}0{}", "[".repeat(n), "]".repeat(n));
    assert!(Json::parse(&nested(MAX_PARSE_DEPTH)).is_ok());
    assert!(Json::parse(&nested(MAX_PARSE_DEPTH + 1)).is_err());
    // Far past the cap: must be a clean Err, not a stack overflow.
    assert!(Json::parse(&nested(1_000_000)).is_err());
    // Mixed object/array nesting counts the same way.
    let mixed = "{\"a\":[".repeat(200_000);
    assert!(Json::parse(&mixed).is_err());
}

#[test]
fn huge_and_malformed_numbers_err() {
    for text in [
        "1e999",
        "-1e999",
        "1e99999999999999",
        &"9".repeat(5_000),
        "--1",
        "1.2.3",
        "+-1",
        "1e",
        ".",
        "-",
        "0x10",
    ] {
        assert!(Json::parse(text).is_err(), "`{text}` must not parse");
    }
}

#[test]
fn malformed_escapes_and_strings_err() {
    for text in [
        r#""\x""#,
        r#""\u12"#,
        r#""\u12g4""#,
        r#""\"#,
        "\"abc",
        "\"",
        r#"{"k": "v"#,
    ] {
        assert!(Json::parse(text).is_err(), "`{text}` must not parse");
    }
}

#[test]
fn structural_garbage_errs() {
    for text in [
        "", " ", "[", "]", "{", "}", "[1,", "[1 2]", "{\"a\"}", "{\"a\":}", "{:1}", "{1:2}", "[,]",
        "{,}", "tru", "nul", "falsey", "1 1", "[] []",
    ] {
        assert!(Json::parse(text).is_err(), "`{text}` must not parse");
    }
}
