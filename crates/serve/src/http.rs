//! A minimal, strict HTTP/1.1 request reader and response writer, and
//! the one-request client ([`http_call`]) that reads those responses back.
//!
//! The server speaks just enough HTTP for its API: request line +
//! headers + optional `Content-Length` body, one request per connection
//! (every response carries `Connection: close`). The reader is total
//! over arbitrary byte streams — malformed request lines, oversized
//! headers, truncated bodies and binary garbage all surface as a typed
//! [`HttpError`] that knows its own status code, never as a panic
//! (property-tested in `tests/proptest_http.rs`). Every length is
//! bounded by a fixed limit, so a hostile client cannot make a worker
//! buffer unbounded input.

use std::io::{BufRead, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::error::ServeError;

/// Maximum bytes of the request line or any single header line
/// (including the terminating CRLF).
const MAX_LINE: usize = 8 * 1024;
/// Maximum number of headers.
const MAX_HEADERS: usize = 64;
/// Maximum `Content-Length` accepted.
const MAX_BODY: usize = 1024 * 1024;

/// Request methods the API understands. Anything else is a typed
/// [`HttpError::UnsupportedMethod`] (501).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Method::Get => write!(f, "GET"),
            Method::Post => write!(f, "POST"),
        }
    }
}

/// One parsed request: method, target path, headers, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The request target (path), exactly as sent.
    pub target: String,
    /// Header `(name, value)` pairs in arrival order; names are kept
    /// verbatim, lookup is case-insensitive via [`Request::header`].
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (first match wins).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Everything that can be wrong with an incoming request. Each variant
/// maps to a definite status code ([`HttpError::status`]), so the
/// connection handler can always answer before closing.
#[derive(Debug)]
pub enum HttpError {
    /// The underlying socket read failed (timeout, reset).
    Io(std::io::Error),
    /// The stream ended mid-request.
    UnexpectedEof,
    /// The request line was not `METHOD target HTTP/1.x`.
    BadRequestLine,
    /// A method the API does not implement.
    UnsupportedMethod(String),
    /// An HTTP version other than 1.0/1.1.
    UnsupportedVersion(String),
    /// The request line exceeded 8 KiB.
    RequestLineTooLong,
    /// A header line exceeded 8 KiB.
    HeaderTooLarge,
    /// More than 64 headers.
    TooManyHeaders,
    /// A header line without `name: value` shape.
    BadHeader,
    /// `Content-Length` was not a base-10 integer.
    BadContentLength,
    /// `Content-Length` exceeded 1 MiB (the payload is the limit).
    BodyTooLarge(usize),
    /// The body ended before `Content-Length` bytes arrived.
    TruncatedBody,
}

impl HttpError {
    /// The response status `(code, reason)` this protocol error maps to.
    #[must_use]
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::Io(_) | HttpError::UnexpectedEof | HttpError::TruncatedBody => {
                (400, "Bad Request")
            }
            HttpError::BadRequestLine | HttpError::BadHeader | HttpError::BadContentLength => {
                (400, "Bad Request")
            }
            HttpError::UnsupportedMethod(_) => (501, "Not Implemented"),
            HttpError::UnsupportedVersion(_) => (505, "HTTP Version Not Supported"),
            HttpError::RequestLineTooLong => (414, "URI Too Long"),
            HttpError::HeaderTooLarge | HttpError::TooManyHeaders => {
                (431, "Request Header Fields Too Large")
            }
            HttpError::BodyTooLarge(_) => (413, "Content Too Large"),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "socket read failed: {e}"),
            HttpError::UnexpectedEof => write!(f, "connection closed mid-request"),
            HttpError::BadRequestLine => write!(f, "malformed request line"),
            HttpError::UnsupportedMethod(m) => write!(f, "unsupported method `{m}`"),
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version `{v}`"),
            HttpError::RequestLineTooLong => write!(f, "request line too long"),
            HttpError::HeaderTooLarge => write!(f, "header line too long"),
            HttpError::TooManyHeaders => write!(f, "too many headers"),
            HttpError::BadHeader => write!(f, "malformed header line"),
            HttpError::BadContentLength => write!(f, "unparseable Content-Length"),
            HttpError::BodyTooLarge(limit) => write!(f, "body exceeds {limit} byte limit"),
            HttpError::TruncatedBody => write!(f, "body shorter than Content-Length"),
        }
    }
}

impl std::error::Error for HttpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HttpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// One line (through `\n`), bounded by `limit` bytes. Distinguishes
/// "line too long" from "stream ended mid-line".
fn read_line(reader: &mut impl BufRead, limit: usize) -> Result<Option<Vec<u8>>, HttpError> {
    let mut line = Vec::new();
    let mut bounded = reader.by_ref().take(limit as u64);
    bounded
        .read_until(b'\n', &mut line)
        .map_err(HttpError::Io)?;
    if line.is_empty() {
        return Ok(None); // clean EOF at a line boundary
    }
    if line.last() != Some(&b'\n') {
        if line.len() >= limit {
            return Err(HttpError::HeaderTooLarge);
        }
        return Err(HttpError::UnexpectedEof);
    }
    while matches!(line.last(), Some(b'\n' | b'\r')) {
        line.pop();
    }
    Ok(Some(line))
}

/// Parse `METHOD target HTTP/1.x` into its parts.
fn parse_request_line(line: &[u8]) -> Result<(Method, String), HttpError> {
    let text = std::str::from_utf8(line).map_err(|_| HttpError::BadRequestLine)?;
    let mut parts = text.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequestLine);
    };
    if target.is_empty() || !target.starts_with('/') {
        return Err(HttpError::BadRequestLine);
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        if version.starts_with("HTTP/") {
            return Err(HttpError::UnsupportedVersion(version.to_owned()));
        }
        return Err(HttpError::BadRequestLine);
    }
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other => return Err(HttpError::UnsupportedMethod(other.to_owned())),
    };
    Ok((method, target.to_owned()))
}

/// Read one request off `reader`.
///
/// Returns `Ok(None)` when the peer closed the connection cleanly before
/// sending anything (the idle-close path, not an error).
///
/// # Errors
///
/// Returns [`HttpError`] for every protocol violation — see the variant
/// docs for the status each maps to. The reader never panics, whatever
/// the bytes.
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let Some(line) = read_line(reader, MAX_LINE).map_err(|e| match e {
        // The request line has its own limit error (the line reader
        // reports a generic header error).
        HttpError::HeaderTooLarge => HttpError::RequestLineTooLong,
        other => other,
    })?
    else {
        return Ok(None);
    };
    let (method, target) = parse_request_line(&line)?;

    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(reader, MAX_LINE)? else {
            return Err(HttpError::UnexpectedEof);
        };
        if line.is_empty() {
            break; // end of headers
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooManyHeaders);
        }
        let text = std::str::from_utf8(&line).map_err(|_| HttpError::BadHeader)?;
        let Some((name, value)) = text.split_once(':') else {
            return Err(HttpError::BadHeader);
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadHeader);
        }
        headers.push((name.to_owned(), value.trim().to_owned()));
    }

    let request = Request {
        method,
        target,
        headers,
        body: Vec::new(),
    };
    let length = match request.header("content-length") {
        Some(raw) => Some(
            raw.parse::<usize>()
                .map_err(|_| HttpError::BadContentLength)?,
        ),
        None => None,
    };
    // A POST without Content-Length carries an empty body (RFC 9110
    // §8.6): `POST /admin/drain` needs no payload, so requiring the
    // header would only hurt ergonomics. Routes that do need a body
    // reject the empty one with a typed 400 instead.
    let body = match (request.method, length) {
        (_, None) | (_, Some(0)) => Vec::new(),
        (_, Some(n)) if n > MAX_BODY => return Err(HttpError::BodyTooLarge(MAX_BODY)),
        (_, Some(n)) => {
            let mut body = vec![0u8; n];
            reader.read_exact(&mut body).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    HttpError::TruncatedBody
                } else {
                    HttpError::Io(e)
                }
            })?;
            body
        }
    };
    Ok(Some(Request { body, ..request }))
}

/// An outgoing response: status, extra headers, body. The writer adds
/// `Content-Length`, `Content-Type` and `Connection: close` itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// Extra headers (e.g. `Retry-After`).
    pub headers: Vec<(&'static str, String)>,
    /// UTF-8 body (the API always answers JSON or plain text).
    pub body: String,
}

impl Response {
    /// A JSON response with the given status.
    #[must_use]
    pub fn json(status: u16, reason: &'static str, body: String) -> Self {
        Response {
            status,
            reason,
            headers: Vec::new(),
            body,
        }
    }

    /// Attach an extra header.
    #[must_use]
    pub(crate) fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.headers.push((name, value));
        self
    }

    /// Serialize onto `writer` (one response per connection; always
    /// `Connection: close`).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the socket write fails.
    pub(crate) fn write_to(&self, writer: &mut impl Write) -> std::io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason);
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("Content-Type: application/json\r\n");
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str("Connection: close\r\n\r\n");
        writer.write_all(head.as_bytes())?;
        writer.write_all(self.body.as_bytes())?;
        writer.flush()
    }
}

/// One blocking HTTP exchange: connect, send, read the full response.
///
/// Returns `(status, body)`. The server closes after one response, so
/// the body is everything after the header/body separator.
///
/// # Errors
///
/// Returns [`ServeError::Io`] for transport failures and
/// [`ServeError::BadResponse`] when the response is not parseable HTTP.
pub fn http_call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    io_timeout: Duration,
) -> Result<(u16, String), ServeError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    let payload = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    (&stream).write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    (&stream).read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// Split a raw `Connection: close` response into status and body.
fn parse_response(raw: &[u8]) -> Result<(u16, String), ServeError> {
    let text = std::str::from_utf8(raw)
        .map_err(|_| ServeError::BadResponse("response is not UTF-8".to_owned()))?;
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(ServeError::BadResponse(
            "response has no header/body separator".to_owned(),
        ));
    };
    let status_line = head.lines().next().unwrap_or("");
    let mut parts = status_line.split(' ');
    let (Some(version), Some(status)) = (parts.next(), parts.next()) else {
        return Err(ServeError::BadResponse(format!(
            "malformed status line `{status_line}`"
        )));
    };
    if !version.starts_with("HTTP/") {
        return Err(ServeError::BadResponse(format!(
            "malformed status line `{status_line}`"
        )));
    }
    let status: u16 = status
        .parse()
        .map_err(|_| ServeError::BadResponse(format!("malformed status `{status}`")))?;
    Ok((status, body.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(mut bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut bytes)
    }

    #[test]
    fn parses_a_get() {
        let request = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("parses")
            .expect("present");
        assert_eq!(request.method, Method::Get);
        assert_eq!(request.target, "/healthz");
        assert_eq!(request.header("host"), Some("x"));
        assert!(request.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let request = parse(b"POST /v1/knn HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"k\":3}")
            .expect("parses")
            .expect("present");
        assert_eq!(request.method, Method::Post);
        assert_eq!(request.body, b"{\"k\":3}");
    }

    #[test]
    fn bare_lf_lines_are_accepted() {
        let request = parse(b"GET / HTTP/1.1\nHost: x\n\n")
            .expect("parses")
            .expect("present");
        assert_eq!(request.target, "/");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").expect("no error").is_none());
    }

    #[test]
    fn typed_errors_carry_statuses() {
        let cases: Vec<(&[u8], u16)> = vec![
            (b"garbage\r\n\r\n", 400),
            (b"PUT / HTTP/1.1\r\n\r\n", 501),
            (b"GET / HTTP/2.0\r\n\r\n", 505),
            (b"GET / HTTP/1.1\r\nbad header line\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort", 400),
            (b"GET / HTTP/1.1\r\nHost", 400),
        ];
        for (bytes, status) in cases {
            let error = parse(bytes).expect_err("must fail");
            assert_eq!(error.status().0, status, "{bytes:?} -> {error}");
        }
    }

    #[test]
    fn oversized_body_is_413() {
        let request = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let error = parse(request.as_bytes()).expect_err("must fail");
        assert_eq!(error.status().0, 413);
    }

    #[test]
    fn oversized_request_line_is_414() {
        let mut request = b"GET /".to_vec();
        request.extend(std::iter::repeat_n(b'a', MAX_LINE));
        request.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let error = parse(&request).expect_err("must fail");
        assert_eq!(error.status().0, 414);
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut request = String::from("GET / HTTP/1.1\r\n");
        for index in 0..MAX_HEADERS + 1 {
            request.push_str(&format!("H{index}: v\r\n"));
        }
        request.push_str("\r\n");
        let error = parse(request.as_bytes()).expect_err("must fail");
        assert_eq!(error.status().0, 431);
    }

    #[test]
    fn response_writes_framing() {
        let mut out = Vec::new();
        Response::json(200, "OK", "{}".into())
            .with_header("Retry-After", "1".into())
            .write_to(&mut out)
            .expect("write");
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn parse_response_extracts_status_and_body() {
        let (status, body) =
            parse_response(b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n\r\n{\"x\":1}")
                .expect("parses");
        assert_eq!(status, 429);
        assert_eq!(body, "{\"x\":1}");
        assert!(parse_response(b"not http at all").is_err());
    }
}
