//! Minimal HTTP/1.1 framing for the service plane.
//!
//! The service speaks a deliberately small subset of HTTP/1.1 — enough for
//! JSON request/response exchanges with `Content-Length` bodies and
//! keep-alive connections, with hard limits on every dimension so a hostile
//! or broken client cannot wedge a connection handler:
//!
//! | limit                   | value                         |
//! |-------------------------|-------------------------------|
//! | request/status line     | [`MAX_START_LINE_BYTES`]      |
//! | header line             | [`MAX_HEADER_LINE_BYTES`]     |
//! | header count            | [`MAX_HEADERS`]               |
//! | request body            | [`MAX_BODY_BYTES`]            |
//! | response body           | [`MAX_RESPONSE_BODY_BYTES`]   |
//!
//! Chunked transfer encoding, continuation lines, and HTTP/2 upgrades are
//! all rejected as malformed. Both sides of the exchange live here: the
//! server parses [`Request`]s and writes responses, the client
//! ([`SvcClient`](crate::SvcClient)) writes requests and parses
//! [`Response`]s.

use std::io::{self, BufRead, Read, Write};

/// Maximum accepted request/status line length in bytes.
pub const MAX_START_LINE_BYTES: usize = 8 * 1024;
/// Maximum accepted header line length in bytes.
pub const MAX_HEADER_LINE_BYTES: usize = 8 * 1024;
/// Maximum accepted number of headers per message.
pub const MAX_HEADERS: usize = 64;
/// Maximum accepted request `Content-Length` in bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Maximum accepted response `Content-Length` in bytes. A response can carry
/// a whole stored result (~2.7 MB at paper scale), so it has its own bound
/// far above any result the store writes.
pub const MAX_RESPONSE_BODY_BYTES: usize = 256 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercased as received.
    pub method: String,
    /// Request target path (query strings are kept verbatim).
    pub path: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was present).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup; returns the first match.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A parsed HTTP response (client side).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 404, …).
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// Case-insensitive header lookup; returns the first match.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Why an HTTP message could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes on the wire do not form a valid message.
    Malformed(String),
    /// A line, header count, or body exceeded its hard limit.
    TooLarge(String),
    /// The underlying socket failed (including read timeouts).
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed http message: {m}"),
            HttpError::TooLarge(m) => write!(f, "http message too large: {m}"),
            HttpError::Io(e) => write!(f, "http io error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one CRLF- (or LF-) terminated line, rejecting lines longer than
/// `cap`. Returns `Ok(None)` on clean EOF before any byte.
fn read_line_capped(reader: &mut impl BufRead, cap: usize) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Malformed("eof mid-line".to_string()));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let text = String::from_utf8(line)
                        .map_err(|_| HttpError::Malformed("non-utf8 line".to_string()))?;
                    return Ok(Some(text));
                }
                line.push(byte[0]);
                if line.len() > cap {
                    return Err(HttpError::TooLarge(format!("line exceeds {cap} bytes")));
                }
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Header list as parsed off the wire: lowercased name, trimmed value.
type HeaderList = Vec<(String, String)>;

/// Reads the header block (after the start line) and an optional
/// `Content-Length` body of at most `max_body` bytes. The body buffer
/// reserves at most [`MAX_BODY_BYTES`] up front and grows as further bytes
/// arrive, so an announced length alone cannot allocate more than that.
fn read_headers_and_body(
    reader: &mut impl BufRead,
    max_body: usize,
) -> Result<(HeaderList, Vec<u8>), HttpError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line_capped(reader, MAX_HEADER_LINE_BYTES)?
            .ok_or_else(|| HttpError::Malformed("eof in headers".to_string()))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without colon: {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name: {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut body = Vec::new();
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>())
        .transpose()
        .map_err(|_| HttpError::Malformed("unparseable content-length".to_string()))?;
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::Malformed(
            "transfer-encoding is not supported".to_string(),
        ));
    }
    if let Some(len) = content_length {
        if len > max_body {
            return Err(HttpError::TooLarge(format!(
                "content-length {len} exceeds {max_body}"
            )));
        }
        body.reserve(len.min(MAX_BODY_BYTES));
        reader.take(len as u64).read_to_end(&mut body)?;
        if body.len() < len {
            return Err(HttpError::Malformed(
                "body shorter than content-length".to_string(),
            ));
        }
    }
    Ok((headers, body))
}

/// Reads one request from the stream.
///
/// Returns `Ok(None)` when the peer closed the connection cleanly between
/// requests (the keep-alive loop's normal exit).
///
/// # Errors
///
/// [`HttpError::Malformed`] / [`HttpError::TooLarge`] for protocol
/// violations, [`HttpError::Io`] for socket failures.
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let start = match read_line_capped(reader, MAX_START_LINE_BYTES)? {
        Some(line) => line,
        None => return Ok(None),
    };
    let mut parts = start.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.chars().all(|c| c.is_ascii_alphabetic()))
        .ok_or_else(|| HttpError::Malformed(format!("bad request line: {start:?}")))?;
    let path = parts
        .next()
        .filter(|p| p.starts_with('/'))
        .ok_or_else(|| HttpError::Malformed(format!("bad request target: {start:?}")))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed(format!("missing http version: {start:?}")))?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad request line: {start:?}")));
    }
    let (headers, body) = read_headers_and_body(reader, MAX_BODY_BYTES)?;
    Ok(Some(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        headers,
        body,
    }))
}

/// Reads one response from the stream (client side).
///
/// # Errors
///
/// Same taxonomy as [`read_request`], with the body bounded by
/// [`MAX_RESPONSE_BODY_BYTES`]; a clean EOF before the status line is
/// malformed here (the client asked a question and expects an answer).
pub fn read_response(reader: &mut impl BufRead) -> Result<Response, HttpError> {
    let start = read_line_capped(reader, MAX_START_LINE_BYTES)?
        .ok_or_else(|| HttpError::Malformed("eof before status line".to_string()))?;
    let mut parts = start.splitn(3, ' ');
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty status line".to_string()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad status line: {start:?}")));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .filter(|s| (100..600).contains(s))
        .ok_or_else(|| HttpError::Malformed(format!("bad status code: {start:?}")))?;
    let (headers, body) = read_headers_and_body(reader, MAX_RESPONSE_BODY_BYTES)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Canonical reason phrase for the status codes this service emits.
pub fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response with an explicit content type.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n\r\n",
        status,
        reason_for(status),
        content_type,
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a JSON response (the body must already be serialized JSON text).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_json(stream: &mut impl Write, status: u16, body: &str) -> io::Result<()> {
    write_response(stream, status, "application/json", body.as_bytes())
}

/// Writes a request with an optional JSON body (client side).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    headers: &[(String, String)],
    body: Option<&str>,
) -> io::Result<()> {
    let body = body.unwrap_or("");
    write!(stream, "{method} {path} HTTP/1.1\r\n")?;
    for (name, value) in headers {
        write!(stream, "{name}: {value}\r\n")?;
    }
    if !body.is_empty() {
        write!(stream, "content-type: application/json\r\n")?;
    }
    write!(stream, "content-length: {}\r\n\r\n{body}", body.len())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_a_post_with_body_and_headers() {
        let raw = b"POST /v1/runs HTTP/1.1\r\nX-Ayb-Tenant: acme\r\nContent-Length: 12\r\n\r\n{\"seed\": 42}";
        let req = parse(raw).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/runs");
        assert_eq!(req.header("x-ayb-tenant"), Some("acme"));
        assert_eq!(req.header("X-AYB-TENANT"), Some("acme"));
        assert_eq!(req.body, b"{\"seed\": 42}");
        assert!(!req.wants_close());
    }

    #[test]
    fn clean_eof_between_requests_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn garbage_start_line_is_malformed() {
        for raw in [
            &b"\x00\x01\x02\x03\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"GET / SPDY/3\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Malformed(_))),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn oversized_content_length_is_rejected_before_reading_the_body() {
        let raw = format!(
            "POST /v1/runs HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(raw.as_bytes()), Err(HttpError::TooLarge(_))));
        let raw = format!(
            "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n",
            MAX_RESPONSE_BODY_BYTES + 1
        );
        assert!(matches!(
            read_response(&mut BufReader::new(raw.as_bytes())),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn truncated_body_is_malformed_not_a_hang() {
        let raw = b"POST /v1/runs HTTP/1.1\r\ncontent-length: 100\r\n\r\nshort";
        assert!(matches!(parse(raw), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn header_flood_is_too_large() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            raw.push_str(&format!("x-h-{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert!(matches!(parse(raw.as_bytes()), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn response_round_trips_through_the_writers_and_parser() {
        let mut wire = Vec::new();
        write_json(&mut wire, 201, "{\"run_id\":\"r1\"}").unwrap();
        let resp = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(resp.status, 201);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.text(), "{\"run_id\":\"r1\"}");
        // A response may carry more than a request may.
        let body = "x".repeat(MAX_BODY_BYTES + 1);
        let mut wire = Vec::new();
        write_json(&mut wire, 200, &body).unwrap();
        let resp = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(resp.text(), body);
    }

    #[test]
    fn request_writer_output_parses_back() {
        let mut wire = Vec::new();
        let headers = vec![("x-ayb-tenant".to_string(), "t0".to_string())];
        write_request(
            &mut wire,
            "POST",
            "/v1/runs",
            &headers,
            Some("{\"seed\":1}"),
        )
        .unwrap();
        let req = read_request(&mut BufReader::new(wire.as_slice()))
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.header("x-ayb-tenant"), Some("t0"));
        assert_eq!(req.body, b"{\"seed\":1}");
    }
}
