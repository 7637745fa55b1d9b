//! A deliberately small HTTP/1.1 subset over [`std::io`] — just enough
//! for a loopback JSON control plane, with zero network dependencies.
//!
//! One [`Request`] per connection (`Connection: close` semantics): the
//! parser reads the request line, the headers it cares about
//! (`Content-Length`), and exactly that many body bytes. Head and body
//! are both capped, so no request makes the parser buffer without bound.
//! Responses are written with an explicit `Content-Length` and the
//! connection is dropped. Anything fancier (keep-alive, chunked encoding,
//! TLS) is out of scope for a single-host daemon.

use std::io::{self, BufRead, Read, Write};

/// Largest request body the parser will buffer (a campaign spec is a few
/// KB; this is a generous ceiling, not a tuning knob).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Largest request head (request line plus headers) the parser will read;
/// a longer head is rejected. The control plane's requests carry a few
/// short headers; this too is a ceiling, not a tuning knob.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Path without the query string, e.g. `/campaigns/3`.
    pub path: String,
    /// The raw query string after `?` (empty when absent).
    pub query: String,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Reads one request off `stream`. Returns `Ok(None)` on a clean EOF
    /// before any byte (client connected and went away).
    ///
    /// # Errors
    ///
    /// Fails on malformed request lines, a head longer than
    /// [`MAX_HEAD_BYTES`], non-numeric or oversized `Content-Length`, or an
    /// underlying I/O error.
    pub fn read_from(stream: &mut impl BufRead) -> io::Result<Option<Request>> {
        let mut head = (&mut *stream).take(MAX_HEAD_BYTES as u64);
        let mut line = String::new();
        if read_head_line(&mut head, &mut line)? == 0 {
            return Ok(None);
        }
        let mut parts = line.split_whitespace();
        let (method, target) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => (m, t),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed request line {line:?}"),
                ))
            }
        };
        let method = method.to_ascii_uppercase();
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_owned(), q.to_owned()),
            None => (target.to_owned(), String::new()),
        };
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if read_head_line(&mut head, &mut header)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside headers",
                ));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("bad Content-Length: {e}"),
                        )
                    })?;
                    if content_length > MAX_BODY_BYTES {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("body of {content_length} bytes exceeds {MAX_BODY_BYTES}"),
                        ));
                    }
                }
            }
        }
        let mut body = vec![0u8; content_length];
        stream.read_exact(&mut body)?;
        Ok(Some(Request {
            method,
            path,
            query,
            body,
        }))
    }

    /// The value of a `key=value` query parameter, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// `read_line` within the head's byte budget: a line the budget cuts off
/// is an error, never a short line.
fn read_head_line<R: BufRead>(head: &mut io::Take<R>, line: &mut String) -> io::Result<usize> {
    let n = head.read_line(line)?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
        ));
    }
    Ok(n)
}

/// One HTTP response, written with `Content-Length` and
/// `Connection: close`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code, e.g. 200.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A newline-delimited-JSON (JSONL) response — the `/events` feed.
    pub fn jsonl(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            content_type: "application/x-ndjson",
            body: body.into(),
        }
    }

    /// The standard JSON error envelope `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        let escaped = message
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n");
        Self::json(status, format!("{{\"error\": \"{escaped}\"}}"))
    }

    /// Serialises the response onto `stream`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error.
    pub fn write_to(&self, stream: &mut impl Write) -> io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            500 => "Internal Server Error",
            _ => "",
        };
        write!(
            stream,
            "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.content_type,
            self.body.len()
        )?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_post_with_body_and_query() {
        let raw =
            b"POST /campaigns?priority=7 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"";
        let req = Request::read_from(&mut Cursor::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/campaigns");
        assert_eq!(req.query_param("priority"), Some("7"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn parses_a_bodyless_get_and_clean_eof() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\n";
        let req = Request::read_from(&mut Cursor::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("GET", "/healthz")
        );
        assert!(req.body.is_empty() && req.query.is_empty());
        assert!(Request::read_from(&mut Cursor::new(&b""[..]))
            .unwrap()
            .is_none());
    }

    #[test]
    fn rejects_garbage_and_oversized_bodies() {
        assert!(Request::read_from(&mut Cursor::new(&b"not http\r\n\r\n"[..])).is_err());
        let huge = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(Request::read_from(&mut Cursor::new(huge.as_bytes())).is_err());
        // A truncated body is an error, not a short read.
        let short = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(Request::read_from(&mut Cursor::new(&short[..])).is_err());
    }

    #[test]
    fn rejects_heads_past_the_cap() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        let err = Request::read_from(&mut Cursor::new(long_line.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("request head exceeds"), "{err}");
        // Many short headers count against the same budget.
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X-Pad: 0123456789\r\n".repeat(5_000)
        );
        assert!(Request::read_from(&mut Cursor::new(many.as_bytes())).is_err());
        // A head just under the cap still parses.
        let pad = "a".repeat(MAX_HEAD_BYTES - 64);
        let fits = format!("GET /healthz HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n");
        assert!(Request::read_from(&mut Cursor::new(fits.as_bytes()))
            .unwrap()
            .is_some());
    }

    #[test]
    fn responses_carry_length_and_close() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\": true}")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 12\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"ok\": true}"));
        let mut out = Vec::new();
        Response::error(404, "no such job \"x\"")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("{\"error\": \"no such job \\\"x\\\"\"}"));
    }
}
