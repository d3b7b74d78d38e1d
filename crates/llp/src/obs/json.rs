//! A minimal JSON value type with a deterministic emitter and a strict
//! recursive-descent parser.
//!
//! The observability reports must be written and re-read without any
//! external dependency (the build environment has no registry access),
//! and their byte output must be stable across runs so the benchmark
//! JSON files diff cleanly. Objects therefore preserve insertion order
//! instead of hashing keys.

use std::fmt;

/// Maximum nesting depth [`Json::parse`] accepts. The parser is
/// recursive-descent, so without a cap an attacker-supplied document of
/// a few hundred kilobytes of `[` would overflow the stack (an abort,
/// not a clean `Err`). Real reports nest a handful of levels
/// (step → zone → kernel → region); 128 leaves generous headroom.
pub const MAX_PARSE_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number (emitted via Rust's shortest-round-trip `{}`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep insertion order for deterministic output.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object value from key/value pairs (order preserved).
    #[must_use]
    pub fn object(pairs: Vec<(&str, Json)>) -> Self {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member of an object by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value's key/value pairs, if it is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer that
    /// fits.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// A number value from an unsigned integer (exact up to 2^53).
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        #[allow(clippy::cast_precision_loss)]
        Json::Num(v as f64)
    }

    /// A number value from a `usize` (exact up to 2^53).
    #[must_use]
    pub fn from_usize(v: usize) -> Self {
        Json::from_u64(v as u64)
    }

    /// A string value from a string slice.
    #[must_use]
    pub fn str(s: &str) -> Self {
        Json::Str(s.to_string())
    }

    /// Pretty-print with two-space indentation and a trailing newline —
    /// the on-disk format of the benchmark reports.
    #[must_use]
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push(']');
            }
            Json::Object(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    /// Append the compact single-line form to `out`: one buffer for the
    /// whole tree, no formatter re-entry and no temporary per node.
    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    use fmt::Write as _;
                    let _ = write!(out, "{n}");
                } else {
                    // JSON has no NaN/inf; a null is at least parseable.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document.
    ///
    /// Built to survive untrusted input: nesting is capped at
    /// [`MAX_PARSE_DEPTH`], numbers must be finite, and every malformed
    /// document — truncated, over-deep, or syntactically broken —
    /// yields a clean `Err`, never a panic.
    ///
    /// # Errors
    /// Returns a message with the byte offset of the first syntax error,
    /// or if trailing non-whitespace follows the document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    /// Compact single-line form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Copy the runs between escapes whole. Every escaped byte is ASCII,
    // so each run boundary is a char boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..0x20) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_PARSE_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_PARSE_DEPTH} at byte {}",
            *pos
        ));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number bytes");
    match text.parse::<f64>() {
        // JSON has no representation for NaN or infinity; an overflowing
        // literal like `1e999` must not smuggle one in (it would emit as
        // `null` and break round-tripping).
        Ok(n) if n.is_finite() => Ok(Json::Num(n)),
        Ok(_) => Err(format!("number out of range at byte {start}")),
        Err(_) => Err(format!("invalid number `{text}` at byte {start}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape `\\{}`", other as char)),
                }
            }
            b => {
                // Re-sync to a char boundary for multi-byte UTF-8. The
                // slice is fetched with `get` so a multi-byte character
                // truncated at end of input errs instead of panicking.
                let rest = &bytes[*pos - 1..];
                let ch_len = utf8_len(b);
                let s = rest
                    .get(..ch_len)
                    .and_then(|chunk| std::str::from_utf8(chunk).ok())
                    .ok_or_else(|| "invalid utf-8 in string".to_string())?;
                out.push_str(s);
                *pos += ch_len - 1;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xf0..=0xf7 => 4,
        0xe0..=0xef => 3,
        0xc0..=0xdf => 2,
        _ => 1,
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        pairs.push((key, parse_value(bytes, pos, depth + 1)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::Rejected;
    use proptest::test_runner::TestRng;

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = Json::object(vec![
            ("name", Json::Str("rhs \"hot\"".to_string())),
            ("seconds", Json::Num(1.25)),
            ("flags", Json::Array(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::Array(vec![])),
            ("nested", Json::object(vec![("k", Json::Num(3.0))])),
        ]);
        for text in [v.to_string(), v.to_pretty_string()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn object_preserves_key_order() {
        let v = Json::object(vec![("z", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n": 4, "s": "x", "b": false, "a": [1, 2]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(4.0));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_numbers() {
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(Json::parse("0.125").unwrap(), Json::Num(0.125));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        for text in [
            "[".repeat(100_000),
            "{\"k\":".repeat(100_000),
            format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000)),
        ] {
            let err = Json::parse(&text).unwrap_err();
            assert!(err.contains("nesting"), "{err}");
        }
        // ...while documents within the cap still parse.
        let ok = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn huge_numbers_are_rejected() {
        assert!(Json::parse("1e999").is_err());
        assert!(Json::parse("-1e999").is_err());
        let long = "9".repeat(400);
        assert!(Json::parse(&long).is_err());
        // Near-max finite values still parse.
        assert!(Json::parse("1e308").is_ok());
    }

    #[test]
    fn every_truncation_of_a_document_errs_cleanly() {
        let doc = Json::object(vec![
            ("name", Json::str("zürich \"quoted\" \n")),
            (
                "nums",
                Json::Array(vec![Json::Num(-1.5e3), Json::Num(0.125)]),
            ),
            ("flag", Json::Bool(true)),
        ])
        .to_string();
        for cut in 0..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            // No prefix may panic; only the full document parses.
            assert!(Json::parse(&doc[..cut]).is_err(), "prefix {cut} parsed");
        }
        assert!(Json::parse(&doc).is_ok());
    }

    #[test]
    fn typed_accessors_and_constructors() {
        let v = Json::object(vec![
            ("n", Json::from_u64(7)),
            ("m", Json::from_usize(3)),
            ("s", Json::str("x")),
        ]);
        assert_eq!(v.get("n").and_then(Json::as_usize), Some(7));
        assert_eq!(v.as_object().map(<[(String, Json)]>::len), Some(3));
        assert!(Json::Num(1.5).as_object().is_none());
        assert_eq!(v.get("s"), Some(&Json::Str("x".into())));
    }

    /// The rendering `Display` had before `write_compact`, kept as the
    /// oracle: one formatter re-entry per node, one temporary per key
    /// and per string, one `char` at a time.
    fn reference_compact(v: &Json, out: &mut String) {
        use fmt::Write as _;
        fn escaped(s: &str) -> String {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => out.push_str(&escaped(s)),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    reference_compact(item, out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escaped(k));
                    out.push(':');
                    reference_compact(v, out);
                }
                out.push('}');
            }
        }
    }

    /// Strings that exercise every escape, the run copying between
    /// them, and multi-byte characters on either side of an escape.
    fn arbitrary_string(rng: &mut TestRng) -> String {
        const ALPHABET: [char; 16] = [
            'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}',
            'ü', '→', '𝄞',
        ];
        (0..rng.gen_u64(0, 12))
            .map(|_| ALPHABET[rng.gen_u64(0, ALPHABET.len() as u64) as usize])
            .collect()
    }

    fn arbitrary_tree(rng: &mut TestRng, depth: u64) -> Json {
        // Leaves only at the depth cap; containers may be empty.
        match rng.gen_u64(0, if depth == 0 { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_u64(0, 2) == 1),
            2 => Json::Num(match rng.gen_u64(0, 6) {
                0 => f64::NAN,
                1 => f64::NEG_INFINITY,
                2 => -0.0,
                3 => rng.gen_u64(0, 1 << 53) as f64,
                4 => rng.gen_f64(-1e-9, 1e-9),
                _ => rng.gen_f64(-1e18, 1e18),
            }),
            3 | 4 => Json::Str(arbitrary_string(rng)),
            5 => Json::Array(
                (0..rng.gen_u64(0, 5))
                    .map(|_| arbitrary_tree(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Object(
                (0..rng.gen_u64(0, 5))
                    .map(|_| (arbitrary_string(rng), arbitrary_tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[derive(Debug, Clone, Copy)]
    struct TreeStrategy;

    impl Strategy for TreeStrategy {
        type Value = Json;
        fn generate(&self, rng: &mut TestRng) -> Result<Json, Rejected> {
            Ok(arbitrary_tree(rng, 4))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn compact_form_is_the_reference_rendering(tree in TreeStrategy) {
            let mut reference = String::new();
            reference_compact(&tree, &mut reference);
            prop_assert_eq!(tree.to_string(), reference);
            // `Display` through any formatter is the same bytes, and the
            // pretty form's leaves are the compact form.
            prop_assert_eq!(format!("{tree:>4}"), tree.to_string());
            let is_leaf = match &tree {
                Json::Array(items) => items.is_empty(),
                Json::Object(pairs) => pairs.is_empty(),
                _ => true,
            };
            if is_leaf {
                prop_assert_eq!(
                    Json::Array(vec![tree.clone()]).to_pretty_string(),
                    format!("[\n  {tree}\n]\n")
                );
            }
        }
    }

    #[test]
    fn escapes_control_chars() {
        let v = Json::Str("a\nb\u{1}".to_string());
        let text = v.to_string();
        assert_eq!(text, "\"a\\nb\\u0001\"");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }
}
