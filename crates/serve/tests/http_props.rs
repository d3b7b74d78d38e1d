//! Property tests for the incremental HTTP/1.1 parser.
//!
//! The event loop re-parses each connection's buffered prefix on every
//! readable event, so [`parse_request_bytes`] must behave *identically*
//! to the one-shot [`read_request`] oracle no matter how a request's
//! bytes are split across arrivals:
//!
//! * a prefix of a valid request is `Partial`, never an error;
//! * the full bytes parse to the same `Request` the oracle produces,
//!   consuming exactly the framed length (pipelined bytes untouched);
//! * malformed input fails with the oracle's exact status and message,
//!   and once a prefix fails, every extension fails the same way;
//! * nothing panics and nothing loops, for any byte soup.

use proptest::prelude::*;
use serve::http::{parse_request_bytes, read_request, HttpError, Parse, Request, MAX_HEAD_BYTES};

const MAX_BODY: usize = 1024;

/// The one-shot oracle over a byte buffer: exactly what the old
/// blocking read path did with these bytes followed by EOF.
fn oneshot(bytes: &[u8]) -> Result<Request, HttpError> {
    let mut reader: &[u8] = bytes;
    read_request(&mut reader, MAX_BODY)
}

fn incremental(bytes: &[u8]) -> Result<Parse, HttpError> {
    parse_request_bytes(bytes, MAX_BODY)
}

/// One valid request assembled from generated parts, plus the parse
/// the oracle must agree on.
#[derive(Debug, Clone)]
struct ValidRequest {
    raw: Vec<u8>,
    expect: Request,
}

fn ascii_token(bytes: Vec<u8>) -> String {
    // Letters and digits only: safe in paths, header values, bodies.
    bytes
        .into_iter()
        .map(|b| {
            let alphabet = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
            alphabet[b as usize % alphabet.len()] as char
        })
        .collect()
}

/// Strategy for a well-formed request: varied method, target (with and
/// without query), HTTP version / `Connection` combinations, optional
/// extra headers, and an optional body with an exact `Content-Length`.
fn valid_request() -> impl Strategy<Value = ValidRequest> {
    (
        0usize..4,                               // method
        prop::collection::vec(0u8..255, 0..8),   // path token
        prop::collection::vec(0u8..255, 0..6),   // query token ("" = none)
        0usize..4,                               // version/connection variant
        0usize..3,                               // extra header count + accept variant
        prop::collection::vec(32u8..127, 0..48), // body (printable ASCII)
    )
        .prop_map(|(m, path_tok, query_tok, variant, extra, body_bytes)| {
            // Reuse the header-count draw as the Accept variant so the
            // capture is exercised across cases.
            let accept = ["", "application/json", "Text/Plain"][extra];
            let method = ["GET", "POST", "PUT", "DELETE"][m].to_string();
            let path = format!("/{}", ascii_token(path_tok));
            let query = ascii_token(query_tok);
            let target = if query.is_empty() {
                path.clone()
            } else {
                format!("{path}?{query}")
            };
            let body: String = body_bytes.iter().map(|&b| b as char).collect();
            let (version, connection, keep_alive) = match variant {
                0 => ("HTTP/1.1", None, true),
                1 => ("HTTP/1.1", Some("close"), false),
                2 => ("HTTP/1.0", None, false),
                _ => ("HTTP/1.0", Some("keep-alive"), true),
            };
            let mut raw = format!("{method} {target} {version}\r\nHost: t\r\n");
            for i in 0..extra {
                raw.push_str(&format!("X-Extra-{i}: v{i}\r\n"));
            }
            if let Some(c) = connection {
                raw.push_str(&format!("Connection: {c}\r\n"));
            }
            if !accept.is_empty() {
                raw.push_str(&format!("Accept: {accept}\r\n"));
            }
            if !body.is_empty() || m == 1 {
                raw.push_str(&format!("Content-Length: {}\r\n", body.len()));
            }
            raw.push_str("\r\n");
            raw.push_str(&body);
            ValidRequest {
                raw: raw.into_bytes(),
                expect: Request {
                    method,
                    path,
                    query,
                    body,
                    accept: accept.to_ascii_lowercase(),
                    keep_alive,
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every byte-boundary split of a valid request: prefixes are
    /// `Partial`, the whole parses to the oracle's request, and exactly
    /// the request's bytes are consumed.
    #[test]
    fn valid_requests_parse_identically_at_every_split(req in valid_request()) {
        let oracle = oneshot(&req.raw).expect("oracle accepts its own request");
        prop_assert_eq!(&oracle, &req.expect);
        for i in 0..req.raw.len() {
            match incremental(&req.raw[..i]) {
                Ok(Parse::Partial) => {
                    // A partial request followed by EOF is the oracle's
                    // "closed mid-request".
                    let on_eof = oneshot(&req.raw[..i]).expect_err("truncated request");
                    prop_assert_eq!(on_eof.status, 400);
                    prop_assert_eq!(on_eof.message.as_str(), "connection closed mid-request");
                }
                Ok(Parse::Complete(_, _)) => {
                    prop_assert!(false, "prefix {i} of {} completed early", req.raw.len());
                }
                Err(e) => {
                    prop_assert!(false, "prefix {i} errored: {} {}", e.status, e.message);
                }
            }
        }
        match incremental(&req.raw) {
            Ok(Parse::Complete(parsed, consumed)) => {
                prop_assert_eq!(&parsed, &req.expect);
                prop_assert_eq!(consumed, req.raw.len());
            }
            other => prop_assert!(false, "full request did not complete: {other:?}"),
        }
    }

    /// Two pipelined keep-alive requests in one buffer: the first parse
    /// consumes exactly the first request, the remainder parses to the
    /// second — regardless of where the arrival boundary falls.
    #[test]
    fn pipelined_pairs_frame_cleanly(a in valid_request(), b in valid_request(), cut in 0usize..=64) {
        let mut bytes = a.raw.clone();
        bytes.extend_from_slice(&b.raw);

        // Arrival boundary anywhere in the stream: the prefix never
        // misframes (it is Partial, or completes request A exactly).
        let cut = cut.min(bytes.len());
        match incremental(&bytes[..cut]) {
            Ok(Parse::Partial) => prop_assert!(cut < a.raw.len(), "full request A reported Partial"),
            Ok(Parse::Complete(parsed, consumed)) => {
                prop_assert_eq!(&parsed, &a.expect);
                prop_assert_eq!(consumed, a.raw.len());
            }
            Err(e) => prop_assert!(false, "pipelined prefix errored: {} {}", e.status, e.message),
        }

        // The full buffer: request A first, untouched bytes after it
        // parse as request B.
        let Ok(Parse::Complete(first, consumed)) = incremental(&bytes) else {
            return Err(TestCaseError::fail("first pipelined request did not complete".to_string()));
        };
        prop_assert_eq!(&first, &a.expect);
        prop_assert_eq!(consumed, a.raw.len());
        let Ok(Parse::Complete(second, consumed_b)) = incremental(&bytes[consumed..]) else {
            return Err(TestCaseError::fail("second pipelined request did not complete".to_string()));
        };
        prop_assert_eq!(&second, &b.expect);
        prop_assert_eq!(consumed_b, b.raw.len());
    }

    /// A chunked POST with a second request pipelined behind it: the
    /// parser has no chunk decoder, so it must refuse the request (501)
    /// rather than frame it as body-less. At no arrival boundary does it
    /// complete, so no byte is consumed and the chunk bytes and the
    /// follow-on request are never parsed, let alone routed.
    #[test]
    fn chunked_requests_never_release_their_follow_on_bytes(
        follow in valid_request(),
        chunk in prop::collection::vec(32u8..127, 1..32),
        with_length in 0usize..2,
    ) {
        let mut bytes = b"POST /v1/solve HTTP/1.1\r\nHost: t\r\n".to_vec();
        if with_length == 1 {
            bytes.extend_from_slice(b"Content-Length: 0\r\n");
        }
        bytes.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
        bytes.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        bytes.extend_from_slice(&chunk);
        bytes.extend_from_slice(b"\r\n0\r\n\r\n");
        bytes.extend_from_slice(&follow.raw);
        for i in 0..=bytes.len() {
            match incremental(&bytes[..i]) {
                Ok(Parse::Partial) => {}
                Ok(Parse::Complete(request, consumed)) => {
                    prop_assert!(false, "prefix {i} framed {request:?} ({consumed} bytes)");
                }
                Err(e) => prop_assert_eq!(e.status, 501, "prefix {}: {}", i, e.message),
            }
        }
        prop_assert_eq!(incremental(&bytes).expect_err("chunked request").status, 501);
        prop_assert_eq!(oneshot(&bytes).expect_err("chunked request").status, 501);
    }

    /// Arbitrary byte soup: the incremental parser never panics, and
    /// whenever it reaches a verdict it is exactly the oracle's. Errors
    /// are sticky: once a prefix fails, every extension fails the same
    /// way (the connection would already be closed).
    #[test]
    fn junk_bytes_agree_with_the_oracle(bytes in prop::collection::vec(0u8..=255, 0..96)) {
        let mut first_error: Option<(usize, HttpError)> = None;
        for i in 0..=bytes.len() {
            match incremental(&bytes[..i]) {
                Ok(Parse::Partial) => {
                    prop_assert!(first_error.is_none(), "Partial after an error verdict");
                }
                Ok(Parse::Complete(request, consumed)) => {
                    prop_assert!(first_error.is_none(), "Complete after an error verdict");
                    prop_assert!(consumed <= i);
                    let oracle = oneshot(&bytes[..i]).expect("oracle accepts what incremental accepts");
                    prop_assert_eq!(&request, &oracle);
                }
                Err(e) => {
                    let oracle = oneshot(&bytes[..i]).expect_err("oracle rejects what incremental rejects");
                    prop_assert_eq!(e.status, oracle.status);
                    prop_assert_eq!(&e.message, &oracle.message);
                    match &first_error {
                        None => first_error = Some((i, e)),
                        Some((_, prior)) => prop_assert_eq!(prior, &e, "error verdict changed"),
                    }
                }
            }
        }
    }

    /// Oversized declared bodies are refused with 413 before any body
    /// byte arrives, exactly like the oracle.
    #[test]
    fn oversized_bodies_fail_early(extra in 1usize..4096) {
        let head = format!(
            "POST /v1/solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + extra
        );
        let incr = incremental(head.as_bytes()).expect_err("over-budget body");
        let oracle = oneshot(head.as_bytes()).expect_err("over-budget body");
        prop_assert_eq!(incr.status, 413);
        prop_assert_eq!(incr.status, oracle.status);
        prop_assert_eq!(&incr.message, &oracle.message);
    }

    /// A head that exceeds the head budget is refused with 413 even
    /// when no newline ever arrives (no unbounded buffering).
    #[test]
    fn oversized_heads_fail_without_a_terminator(pad in 0usize..64) {
        let mut raw = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.resize(MAX_HEAD_BYTES + 1 + pad, b'a');
        let incr = incremental(&raw).expect_err("over-budget head");
        prop_assert_eq!(incr.status, 413);
        let oracle = oneshot(&raw).expect_err("over-budget head");
        prop_assert_eq!(oracle.status, 413);
        prop_assert_eq!(&incr.message, &oracle.message);
    }
}
