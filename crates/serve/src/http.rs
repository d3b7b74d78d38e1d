//! Minimal HTTP/1.1 framing over [`std::io`] streams and byte buffers.
//!
//! The build environment has no HTTP crates, so `llpd` frames requests
//! and responses by hand. The subset is deliberately small: bodies
//! delimited by `Content-Length` only, and hard caps on header and body
//! sizes so a hostile peer cannot make the server allocate without
//! bound. Two parsers share one interpretation of the protocol:
//!
//! * [`read_request`] — the original one-shot parser over a blocking
//!   [`BufRead`] stream, kept as the reference implementation (and the
//!   oracle the property tests compare against).
//! * [`parse_request_bytes`] — the incremental parser the readiness
//!   event loop calls against a connection's accumulated read buffer.
//!   It either completes with a request plus its consumed byte count
//!   (leaving pipelined bytes in place), asks for more bytes, or fails
//!   with the same [`HttpError`] the one-shot parser would produce.
//!
//! Keep-alive follows HTTP/1.1 defaults: connections persist unless the
//! request says `Connection: close` (or is HTTP/1.0 without
//! `Connection: keep-alive`). Responses to malformed requests always
//! close.

use std::io::BufRead;

/// Maximum bytes of request line + headers accepted.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed request: method, decoded path, raw query string, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercase as sent.
    pub method: String,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Query string (after `?`), empty if absent.
    pub query: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: String,
    /// Lowercased `Accept` header value, empty if absent — `/metrics`
    /// negotiates Prometheus text vs JSON on it.
    pub accept: String,
    /// Whether the connection should persist after the response:
    /// HTTP/1.1 defaults to `true`, `Connection: close` forces `false`,
    /// HTTP/1.0 defaults to `false` unless `Connection: keep-alive`.
    pub keep_alive: bool,
}

/// The `Content-Type` of the Prometheus text exposition format.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A response: status code plus a body (JSON unless marked otherwise),
/// with the handful of extra headers the service emits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// `Retry-After` seconds, sent with 429/503 responses.
    pub retry_after: Option<u64>,
    /// Trace id of the execution that produced this response, if one
    /// exists — carried so the access log can correlate request lines
    /// with `/v1/trace` lookups. Not an HTTP header.
    pub trace_id: Option<u64>,
}

impl Response {
    /// A 200 response with the given JSON body.
    #[must_use]
    pub fn ok(body: String) -> Self {
        Self {
            status: 200,
            body,
            content_type: "application/json",
            retry_after: None,
            trace_id: None,
        }
    }

    /// A 200 response in the Prometheus text exposition format.
    #[must_use]
    pub fn prometheus(body: String) -> Self {
        Self {
            status: 200,
            body,
            content_type: PROMETHEUS_CONTENT_TYPE,
            retry_after: None,
            trace_id: None,
        }
    }

    /// An error response with a `{"error": ...}` JSON body.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        let body =
            llp::obs::json::Json::object(vec![("error", llp::obs::json::Json::str(message))]);
        Self {
            status,
            body: body.to_string(),
            content_type: "application/json",
            retry_after: None,
            trace_id: None,
        }
    }

    /// The same response with a `Retry-After` header.
    #[must_use]
    pub fn with_retry_after(mut self, seconds: u64) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// The same response tagged with the trace id of its execution.
    #[must_use]
    pub fn with_trace_id(mut self, trace_id: Option<u64>) -> Self {
        self.trace_id = trace_id;
        self
    }
}

/// A request-framing failure the caller should answer with `status`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// Status code to answer with.
    pub status: u16,
    /// Human-readable description (lands in the error body).
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }
}

/// Standard reason phrase for the status codes this service emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Parsed request line: method, raw target, and whether the version is
/// HTTP/1.0 (which flips the keep-alive default).
struct RequestLine {
    method: String,
    target: String,
    http10: bool,
}

fn parse_request_line(line: &str) -> Result<RequestLine, HttpError> {
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(400, "malformed request line"));
    }
    Ok(RequestLine {
        method,
        target,
        http10: version == "HTTP/1.0",
    })
}

/// The header fields this service interprets, accumulated line by line.
#[derive(Default)]
struct HeaderFields {
    /// Declared body length; `None` (no header) means no body.
    content_length: Option<usize>,
    /// Lowercased `Connection` header value, if sent.
    connection: Option<String>,
    /// Lowercased `Accept` header value, if sent.
    accept: Option<String>,
}

impl HeaderFields {
    fn apply(&mut self, line: &str) -> Result<(), HttpError> {
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, "malformed header"));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let value = value.trim();
            // Digits only: `usize::from_str` alone would accept `+5`.
            let length = value
                .parse()
                .ok()
                .filter(|_| value.bytes().all(|b| b.is_ascii_digit()))
                .ok_or_else(|| HttpError::new(400, "malformed Content-Length"))?;
            if self.content_length.is_some_and(|first| first != length) {
                return Err(HttpError::new(400, "conflicting Content-Length headers"));
            }
            self.content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Bodies are framed by `Content-Length` only; parsing a
            // chunked request as body-less would dispatch its chunk
            // bytes as the next pipelined request.
            return Err(HttpError::new(501, "Transfer-Encoding is not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            self.connection = Some(value.trim().to_ascii_lowercase());
        } else if name.eq_ignore_ascii_case("accept") {
            self.accept = Some(value.trim().to_ascii_lowercase());
        }
        Ok(())
    }

    /// The declared body length, refused with 413 beyond `max_body`.
    fn body_length(&self, max_body: usize) -> Result<usize, HttpError> {
        let length = self.content_length.unwrap_or(0);
        if length > max_body {
            return Err(HttpError::new(
                413,
                format!("body of {length} bytes exceeds limit {max_body}"),
            ));
        }
        Ok(length)
    }

    fn keep_alive(&self, http10: bool) -> bool {
        match self.connection.as_deref() {
            Some("close") => false,
            Some("keep-alive") => true,
            _ => !http10,
        }
    }
}

fn assemble(line: RequestLine, headers: &HeaderFields, body: String) -> Request {
    let (path, query) = match line.target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (line.target, String::new()),
    };
    Request {
        method: line.method,
        path,
        query,
        body,
        accept: headers.accept.clone().unwrap_or_default(),
        keep_alive: headers.keep_alive(line.http10),
    }
}

/// Read one request from `stream`.
///
/// # Errors
/// [`HttpError`] carries the status the connection should answer with:
/// 400 for malformed framing, 408 when the peer stalls past the socket
/// read timeout, 413 when the declared body exceeds `max_body`.
pub fn read_request(stream: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    let mut head = String::new();
    let request_line = parse_request_line(&read_crlf_line(stream, &mut head)?)?;

    let mut headers = HeaderFields::default();
    loop {
        let line = read_crlf_line(stream, &mut head)?;
        if line.is_empty() {
            break;
        }
        headers.apply(&line)?;
    }

    let length = headers.body_length(max_body)?;
    let mut body = vec![0u8; length];
    std::io::Read::read_exact(stream, &mut body).map_err(io_to_http)?;
    let body = String::from_utf8(body).map_err(|_| HttpError::new(400, "body is not UTF-8"))?;
    Ok(assemble(request_line, &headers, body))
}

/// Outcome of [`parse_request_bytes`] over an accumulated read buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parse {
    /// A complete request plus the number of buffer bytes it consumed
    /// (pipelined follow-up bytes start at that offset).
    Complete(Request, usize),
    /// The buffer holds only a request prefix; read more bytes. If the
    /// peer has already closed, the connection died mid-request.
    Partial,
}

/// Incrementally parse one request from the front of `buf`.
///
/// The buffer is the connection's accumulated read bytes; the parser is
/// stateless and re-examines the prefix on every call, which keeps it
/// trivially restartable and is cheap at these head sizes. Outcomes are
/// byte-for-byte identical to feeding the same bytes to
/// [`read_request`] — the property suite enforces this at every split
/// boundary.
///
/// # Errors
/// The same [`HttpError`]s as [`read_request`]: 400 for malformed
/// framing or non-UTF-8 content, 413 for an oversized head or declared
/// body. Errors are terminal for the connection.
pub fn parse_request_bytes(buf: &[u8], max_body: usize) -> Result<Parse, HttpError> {
    let mut pos = 0usize;
    let mut head_used = 0usize;
    let mut request_line: Option<RequestLine> = None;
    let mut headers = HeaderFields::default();
    loop {
        let Some(nl) = buf[pos..].iter().position(|&b| b == b'\n') else {
            // No newline in the remainder: an over-budget partial line
            // is already fatal, otherwise wait for more bytes.
            if head_used + (buf.len() - pos) > MAX_HEAD_BYTES {
                return Err(HttpError::new(413, "request head too large"));
            }
            return Ok(Parse::Partial);
        };
        let raw = &buf[pos..=pos + nl];
        if head_used + raw.len() > MAX_HEAD_BYTES {
            return Err(HttpError::new(413, "request head too large"));
        }
        head_used += raw.len();
        pos += nl + 1;
        let line = std::str::from_utf8(raw)
            .map_err(|_| HttpError::new(400, "header is not UTF-8"))?
            .trim_end_matches(['\r', '\n']);
        // Validate each line as it completes so error precedence matches
        // the one-shot parser exactly (a malformed request line fails
        // before a later oversized header can).
        match &request_line {
            None => request_line = Some(parse_request_line(line)?),
            Some(_) if line.is_empty() => break,
            Some(_) => headers.apply(line)?,
        }
    }
    let request_line = request_line.expect("loop breaks only after the request line");

    let length = headers.body_length(max_body)?;
    if buf.len() - pos < length {
        return Ok(Parse::Partial);
    }
    let body = std::str::from_utf8(&buf[pos..pos + length])
        .map_err(|_| HttpError::new(400, "body is not UTF-8"))?
        .to_string();
    let consumed = pos + length;
    Ok(Parse::Complete(
        assemble(request_line, &headers, body),
        consumed,
    ))
}

/// Read one CRLF-terminated line, charging its bytes against the shared
/// head budget in `consumed`.
fn read_crlf_line(stream: &mut impl BufRead, consumed: &mut String) -> Result<String, HttpError> {
    let budget = MAX_HEAD_BYTES.saturating_sub(consumed.len());
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = stream.fill_buf().map_err(io_to_http)?;
        if buf.is_empty() {
            return Err(HttpError::new(400, "connection closed mid-request"));
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let wanted = newline.map_or(buf.len(), |i| i + 1);
        if line.len() + wanted > budget {
            return Err(HttpError::new(413, "request head too large"));
        }
        line.extend_from_slice(&buf[..wanted]);
        stream.consume(wanted);
        if newline.is_some() {
            break;
        }
    }
    let line = String::from_utf8(line).map_err(|_| HttpError::new(400, "header is not UTF-8"))?;
    consumed.push_str(&line);
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}

fn io_to_http(err: std::io::Error) -> HttpError {
    match err.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            HttpError::new(408, "timed out reading request")
        }
        // A peer hanging up mid-body is the same failure as hanging up
        // mid-head; keeping the message identical keeps the one-shot
        // path equivalent to the incremental parser plus an EOF event.
        std::io::ErrorKind::UnexpectedEof => HttpError::new(400, "connection closed mid-request"),
        _ => HttpError::new(400, format!("read failed: {err}")),
    }
}

/// Serialize `response` to wire bytes, with the `Connection` header the
/// event loop's keep-alive decision calls for.
#[must_use]
pub fn render_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    );
    if let Some(seconds) = response.retry_after {
        head.push_str(&format!("Retry-After: {seconds}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(response.body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn parses_get_with_query() {
        let r = parse("GET /v1/model/stairstep?units=15&processors=4 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/v1/model/stairstep");
        assert_eq!(r.query, "units=15&processors=4");
        assert!(r.body.is_empty());
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_with_body() {
        let r =
            parse("POST /v1/solve HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"zones\":2}").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, "{\"zones\":2}");
    }

    #[test]
    fn keep_alive_follows_the_version_and_connection_header() {
        let keep = |raw: &str| parse(raw).unwrap().keep_alive;
        assert!(keep("GET / HTTP/1.1\r\n\r\n"));
        assert!(!keep("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!keep("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n"));
        assert!(!keep("GET / HTTP/1.0\r\n\r\n"));
        assert!(keep("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"));
    }

    #[test]
    fn captures_the_accept_header_lowercased() {
        let r = parse("GET /metrics HTTP/1.1\r\nAccept: Application/JSON\r\n\r\n").unwrap();
        assert_eq!(r.accept, "application/json");
        let r = parse("GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.accept, "");
        // Both parsers agree on the capture.
        let wire = b"GET /metrics HTTP/1.1\r\nAccept: text/plain, application/json;q=0.5\r\n\r\n";
        let Parse::Complete(req, _) = parse_request_bytes(wire, 1024).unwrap() else {
            panic!("expected completion");
        };
        assert_eq!(req.accept, "text/plain, application/json;q=0.5");
    }

    #[test]
    fn rejects_oversized_bodies_without_reading_them() {
        let e = parse("POST /v1/solve HTTP/1.1\r\nContent-Length: 999999\r\n\r\n").unwrap_err();
        assert_eq!(e.status, 413);
    }

    #[test]
    fn rejects_malformed_framing() {
        assert_eq!(parse("nonsense\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET /x SPDY/3\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            parse("POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("POST /x HTTP/1.1\r\nno-colon-here\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        // Truncated body: declared 50, supplied 2.
        assert_eq!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nab")
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn caps_header_bytes() {
        let huge = format!("GET / HTTP/1.1\r\nX-Junk: {}\r\n\r\n", "a".repeat(20_000));
        let e = parse(&huge).unwrap_err();
        assert_eq!(e.status, 413);
    }

    #[test]
    fn incremental_parser_completes_and_reports_consumed_bytes() {
        let wire = b"POST /v1/solve HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"zones\":2}GET /next";
        // Every proper prefix that ends before the body completes is
        // Partial; the full request completes at the right offset.
        let body_end = wire.len() - "GET /next".len();
        for cut in 0..body_end {
            assert_eq!(
                parse_request_bytes(&wire[..cut], 1024).unwrap(),
                Parse::Partial,
                "cut at {cut}"
            );
        }
        let Parse::Complete(req, consumed) = parse_request_bytes(wire, 1024).unwrap() else {
            panic!("expected completion");
        };
        assert_eq!(consumed, body_end, "pipelined bytes must stay unconsumed");
        assert_eq!(req.body, "{\"zones\":2}");
        assert!(req.keep_alive);
    }

    #[test]
    fn incremental_parser_rejects_what_the_oneshot_rejects() {
        for (raw, status) in [
            ("nonsense\r\n\r\n", 400),
            ("GET /x SPDY/3\r\n\r\n", 400),
            ("POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
            ("POST /x HTTP/1.1\r\nno-colon-here\r\n\r\n", 400),
            (
                "POST /v1/solve HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
                413,
            ),
            // What a `Content-Length`-only parser must not guess at: a
            // signed or empty length, two lengths that disagree, and
            // any transfer coding (whose chunk bytes are never parsed).
            ("POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello", 400),
            ("POST /x HTTP/1.1\r\nContent-Length:\r\n\r\n", 400),
            (
                "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 2\r\n\r\nhello",
                400,
            ),
            (
                "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
                501,
            ),
            (
                "POST /x HTTP/1.1\r\nContent-Length: 5\r\ntransfer-encoding: gzip\r\n\r\nhello",
                501,
            ),
        ] {
            let expect = parse(raw).unwrap_err();
            assert_eq!(expect.status, status, "{raw:?}");
            let got = parse_request_bytes(raw.as_bytes(), 1024).unwrap_err();
            assert_eq!(got.status, expect.status, "{raw:?}");
            assert_eq!(got.message, expect.message, "{raw:?}");
        }
        // A repeated but identical length is one length.
        let twice = "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi";
        assert_eq!(parse(twice).unwrap().body, "hi");
        // An unterminated over-budget head fails without waiting for
        // the newline that will never fit.
        let huge = format!("GET / HTTP/1.1\r\nX-Junk: {}", "a".repeat(20_000));
        assert_eq!(
            parse_request_bytes(huge.as_bytes(), 1024)
                .unwrap_err()
                .status,
            413
        );
    }

    #[test]
    fn writes_responses_with_retry_after() {
        let out = render_response(
            &Response::error(429, "queue full").with_retry_after(1),
            false,
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"queue full\"}"), "{text}");
    }

    #[test]
    fn renders_keep_alive_responses() {
        let bytes = render_response(&Response::ok("{}".to_string()), true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
