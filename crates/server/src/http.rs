//! The hand-rolled HTTP/1.1 facade of the campaign daemon.
//!
//! `dns-server` speaks two protocols on two sockets, both answered by
//! the same event loop: the newline-delimited JSON line protocol
//! (`proto.rs`) for `dns-cli`, and this minimal HTTP/1.1 endpoint for
//! browsers and Prometheus scrapers. No HTTP library — the grammar we
//! accept is deliberately tiny (GET only, one request per connection,
//! `Connection: close` semantics) and built on `std::net` like
//! everything else in the daemon. Each connection's blocking reads and
//! writes run on its own thread ([`read_request`], [`close`]); the loop
//! only routes and renders.
//!
//! Endpoint grammar (DESIGN.md §10):
//!
//! ```text
//! GET /metrics                     Prometheus text exposition
//! GET /api/v1/jobs                 queue snapshot        (canonical JSON)
//! GET /api/v1/tenants              fairness ledger       (canonical JSON)
//! GET /api/v1/queue                waiting jobs          (canonical JSON)
//! GET /api/v1/jobs/{id}/health     live health JSONL     (SSE stream)
//! ```
//!
//! Robustness rules, each locked by `tests/http_facade.rs`:
//! * a request is parsed only once its header block is complete —
//!   partial headers (slowloris) block only their own connection's
//!   thread, never the loop;
//! * header blocks over [`MAX_HEADER_BYTES`] are refused with `431`;
//! * non-GET methods get `405`, unparseable request lines `400`,
//!   unknown paths `404`. Every response closes the connection.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};

use crate::scheduler::JobId;

/// Refuse request heads larger than this (slowloris/garbage bound).
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// Outcome of trying to parse a request head from buffered bytes.
#[derive(Debug, PartialEq, Eq)]
pub enum Parse {
    /// Header block not yet complete; keep the connection and wait.
    Incomplete,
    /// Header block exceeded [`MAX_HEADER_BYTES`] without completing.
    TooLarge,
    /// Request line is not intelligible HTTP.
    Bad,
    /// Syntactically valid but a method we do not serve.
    NotGet,
    /// A complete `GET` request for `path` (query string stripped).
    Get {
        /// Decoded request path, e.g. `/api/v1/jobs`.
        path: String,
    },
}

/// Try to parse one request head from `buf` (everything up to the first
/// blank line). Never blocks, never looks past the head.
pub fn parse_request(buf: &[u8]) -> Parse {
    let head_end = find_head_end(buf);
    let Some(end) = head_end else {
        return if buf.len() > MAX_HEADER_BYTES {
            Parse::TooLarge
        } else {
            Parse::Incomplete
        };
    };
    if end > MAX_HEADER_BYTES {
        return Parse::TooLarge;
    }
    let head = String::from_utf8_lossy(&buf[..end]);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Parse::Bad;
    };
    if !version.starts_with("HTTP/1.") || !target.starts_with('/') {
        return Parse::Bad;
    }
    if method != "GET" {
        return Parse::NotGet;
    }
    let path = target.split('?').next().unwrap_or(target).to_string();
    Parse::Get { path }
}

/// Find the end of the header block: the first `\r\n\r\n` (or bare
/// `\n\n` from hand-typed clients). Returns the offset just past it.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2))
}

/// Routes the facade serves.
#[derive(Debug, PartialEq, Eq)]
pub enum Route {
    /// `GET /metrics`.
    Metrics,
    /// `GET /api/v1/jobs`.
    Jobs,
    /// `GET /api/v1/tenants`.
    Tenants,
    /// `GET /api/v1/queue`.
    Queue,
    /// `GET /api/v1/jobs/{id}/health` — the SSE stream.
    JobHealth(JobId),
    /// Anything else: 404.
    NotFound,
}

/// Map a request path onto a [`Route`]. Trailing slashes are tolerated.
pub fn route(path: &str) -> Route {
    match path.trim_end_matches('/') {
        "/metrics" => Route::Metrics,
        "/api/v1/jobs" => Route::Jobs,
        "/api/v1/tenants" => Route::Tenants,
        "/api/v1/queue" => Route::Queue,
        other => {
            if let Some(rest) = other.strip_prefix("/api/v1/jobs/") {
                if let Some(id) = rest.strip_suffix("/health") {
                    if let Ok(id) = id.parse::<JobId>() {
                        return Route::JobHealth(id);
                    }
                }
            }
            Route::NotFound
        }
    }
}

/// Render a complete response with a body. Byte-deterministic: no Date
/// header, fixed header order, `Connection: close`.
pub fn response(status: u16, reason: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\
         \r\n\
         {body}",
        body.len()
    )
    .into_bytes()
}

/// Canned error response with a one-line plaintext body.
pub fn error_response(status: u16, reason: &str) -> Vec<u8> {
    response(
        status,
        reason,
        "text/plain; charset=utf-8",
        &format!("{reason}\n"),
    )
}

/// Response head opening an SSE stream: no `Content-Length` (the stream
/// ends when the connection closes), `no-cache` so proxies pass events
/// through as they arrive.
pub fn sse_head() -> Vec<u8> {
    concat!(
        "HTTP/1.1 200 OK\r\n",
        "Content-Type: text/event-stream\r\n",
        "Cache-Control: no-cache\r\n",
        "Connection: close\r\n",
        "\r\n"
    )
    .as_bytes()
    .to_vec()
}

/// Read one request head from a browser/scraper connection, blocking on
/// the connection's own thread until the head is complete. The typed
/// refusals (400, 405, 431) are written here; `Some` is a GET's route,
/// for the daemon to answer. `None` also when the peer hangs up first.
pub fn read_request(stream: &mut TcpStream) -> Option<Route> {
    let mut head = Vec::new();
    let mut buf = [0u8; 4096];
    let refusal = loop {
        match parse_request(&head) {
            Parse::Incomplete => {}
            Parse::Get { path } => return Some(route(&path)),
            Parse::TooLarge => break error_response(431, "Request Header Fields Too Large"),
            Parse::Bad => break error_response(400, "Bad Request"),
            Parse::NotGet => break error_response(405, "Method Not Allowed"),
        }
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    };
    let _ = stream.write_all(&refusal);
    None
}

/// End a connection after its response: send FIN behind the response
/// bytes, then discard what the peer had already sent (an oversized
/// head's tail), so the close is not a reset that destroys the response
/// in flight.
pub fn close(stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    if stream.set_nonblocking(true).is_ok() {
        let mut buf = [0u8; 4096];
        while matches!((&stream).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_headers_wait() {
        assert_eq!(parse_request(b""), Parse::Incomplete);
        assert_eq!(parse_request(b"GET /metr"), Parse::Incomplete);
        assert_eq!(
            parse_request(b"GET /metrics HTTP/1.1\r\nHost: x\r\n"),
            Parse::Incomplete
        );
    }

    #[test]
    fn complete_get_parses() {
        let req = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
        assert_eq!(
            parse_request(req),
            Parse::Get {
                path: "/metrics".into()
            }
        );
        // bare-LF clients and query strings are tolerated
        assert_eq!(
            parse_request(b"GET /api/v1/jobs?pretty=1 HTTP/1.0\n\n"),
            Parse::Get {
                path: "/api/v1/jobs".into()
            }
        );
    }

    #[test]
    fn garbage_and_wrong_methods_are_typed() {
        assert_eq!(parse_request(b"\x16\x03\x01 junk\r\n\r\n"), Parse::Bad);
        assert_eq!(parse_request(b"GET /x SMTP/3\r\n\r\n"), Parse::Bad);
        assert_eq!(parse_request(b"GET nopath HTTP/1.1\r\n\r\n"), Parse::Bad);
        assert_eq!(
            parse_request(b"POST /metrics HTTP/1.1\r\n\r\n"),
            Parse::NotGet
        );
        assert_eq!(
            parse_request(b"DELETE /api/v1/jobs HTTP/1.1\r\n\r\n"),
            Parse::NotGet
        );
    }

    #[test]
    fn oversized_heads_are_refused() {
        let mut huge = b"GET /metrics HTTP/1.1\r\n".to_vec();
        huge.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES + 1));
        assert_eq!(parse_request(&huge), Parse::TooLarge);
        // even if the head eventually completes, past the cap is too late
        huge.extend_from_slice(b"\r\n\r\n");
        assert_eq!(parse_request(&huge), Parse::TooLarge);
    }

    #[test]
    fn routing_table() {
        assert_eq!(route("/metrics"), Route::Metrics);
        assert_eq!(route("/metrics/"), Route::Metrics);
        assert_eq!(route("/api/v1/jobs"), Route::Jobs);
        assert_eq!(route("/api/v1/tenants"), Route::Tenants);
        assert_eq!(route("/api/v1/queue"), Route::Queue);
        assert_eq!(route("/api/v1/jobs/42/health"), Route::JobHealth(42));
        assert_eq!(route("/api/v1/jobs/x/health"), Route::NotFound);
        assert_eq!(route("/api/v1/jobs/42"), Route::NotFound);
        assert_eq!(route("/"), Route::NotFound);
        assert_eq!(route("/favicon.ico"), Route::NotFound);
    }

    #[test]
    fn responses_are_framed_and_deterministic() {
        let r = String::from_utf8(response(200, "OK", "text/plain", "hi\n")).unwrap();
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(r.contains("Content-Length: 3\r\n"));
        assert!(r.contains("Connection: close\r\n"));
        assert!(r.ends_with("\r\n\r\nhi\n"));
        assert_eq!(
            response(200, "OK", "text/plain", "hi\n"),
            response(200, "OK", "text/plain", "hi\n")
        );
        let e = String::from_utf8(error_response(404, "Not Found")).unwrap();
        assert!(e.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(e.ends_with("Not Found\n"));
    }

    #[test]
    fn sse_head_shape() {
        let h = String::from_utf8(sse_head()).unwrap();
        assert!(h.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(h.contains("Content-Type: text/event-stream\r\n"));
        assert!(!h.contains("Content-Length"));
        assert!(h.ends_with("\r\n\r\n"));
    }
}
