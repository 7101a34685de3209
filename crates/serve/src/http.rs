//! Minimal HTTP/1.1 request reader and response writer.
//!
//! Exactly the subset the serve protocol needs: one request per
//! connection, `Connection: close` semantics, `Content-Length` bodies
//! (a request declaring any `Transfer-Encoding` is refused with 501
//! rather than misframed). Every read is bounded — a header block
//! larger than [`MAX_HEADER_BYTES`], a declared body larger than the
//! configured cap, or a body the client never finishes sending all turn
//! into typed errors, never into an unbounded buffer or a hung thread
//! (callers set a socket read timeout before parsing).

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request line + headers. 8 KiB matches the common
/// proxy default and is ~40× what the protocol's own clients emit.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercase as sent (`GET`, `POST`).
    pub method: String,
    /// Request target path, e.g. `/link`.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Why a request could not be read. Each variant maps onto one protocol
/// error response (status + machine-readable kind).
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, malformed headers, or a body the client
    /// closed/stalled before completing. → 400.
    BadRequest(String),
    /// Declared `Content-Length` exceeds the configured cap. → 413.
    PayloadTooLarge {
        /// Bytes the client declared.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The request used a `Transfer-Encoding` (e.g. chunked) this
    /// parser does not implement. RFC 7230 §3.3.3: a server that does
    /// not understand the transfer coding must not guess at the body
    /// framing — silently reading it as empty would desynchronise the
    /// connection. → 501.
    NotImplemented(String),
    /// The socket failed mid-read for a non-protocol reason. The
    /// connection is unusable; no response can be written.
    Io(std::io::Error),
    /// The client closed the connection before sending a single byte.
    /// That is no request at all — a port probe, or the listener poke of
    /// a shutdown — so it gets no response.
    Closed,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::PayloadTooLarge { declared, limit } => {
                write!(f, "payload of {declared} bytes exceeds limit of {limit}")
            }
            HttpError::NotImplemented(m) => write!(f, "not implemented: {m}"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::Closed => write!(f, "connection closed before any request byte"),
        }
    }
}

/// Read and parse one request from `stream`.
///
/// The caller is expected to have set a read timeout on the stream; a
/// timeout while the body is incomplete surfaces as
/// [`HttpError::BadRequest`] ("truncated"), which keeps a stalling
/// client from pinning a worker forever.
///
/// # Errors
/// [`HttpError`] as documented on each variant.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    let (header, mut body) = read_header_block(stream)?;
    let header = String::from_utf8(header)
        .map_err(|_| HttpError::BadRequest("header block is not UTF-8".into()))?;
    let mut lines = header.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing method".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing request path".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol `{version}`"
        )));
    }

    let mut declared_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header `{line}`")));
        };
        // This parser frames bodies by Content-Length only. Any
        // Transfer-Encoding — chunked or otherwise — would previously be
        // skipped here and the body silently parsed as empty; per RFC
        // 7230 §3.3.3 an unsupported transfer coding must be refused
        // outright instead of misframing the message.
        if name.trim().eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::NotImplemented(format!(
                "transfer-encoding `{}` is not supported; send a content-length body",
                value.trim()
            )));
        }
        if name.trim().eq_ignore_ascii_case("content-length") {
            let parsed = value.trim().parse::<usize>().map_err(|_| {
                HttpError::BadRequest(format!("invalid content-length `{}`", value.trim()))
            })?;
            // RFC 7230 §3.3.2: conflicting Content-Length values make
            // the message framing ambiguous and must be rejected;
            // repeats of the same value are tolerated.
            if declared_length.is_some_and(|seen| seen != parsed) {
                return Err(HttpError::BadRequest(
                    "conflicting content-length headers".into(),
                ));
            }
            declared_length = Some(parsed);
        }
    }
    let content_length = declared_length.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::PayloadTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }

    // Bytes read past the header block are the body's prefix; `take`
    // bounds the rest so a lying client cannot feed more than declared.
    if body.len() > content_length {
        body.truncate(content_length);
    }
    let mut chunk = [0u8; 4096];
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        // `want <= chunk.len()` by construction, so the slice is always
        // available; the `else` arm is unreachable but stays typed.
        let Some(slice) = chunk.get_mut(..want) else {
            return Err(HttpError::BadRequest("internal read-bound error".into()));
        };
        let got = match stream.read(slice) {
            Ok(0) => {
                return Err(HttpError::BadRequest(format!(
                    "truncated body: got {} of {content_length} declared bytes",
                    body.len()
                )))
            }
            Ok(n) => n,
            Err(e) if is_timeout(&e) => {
                return Err(HttpError::BadRequest(format!(
                    "truncated body: timed out after {} of {content_length} declared bytes",
                    body.len()
                )))
            }
            Err(e) => return Err(HttpError::Io(e)),
        };
        body.extend_from_slice(chunk.get(..got).unwrap_or(&[]));
    }
    Ok(Request { method, path, body })
}

/// Read until the `\r\n\r\n` header terminator; returns the header bytes
/// (without the terminator) and any body bytes read past it.
///
/// Each read scans only its new bytes, plus the last three of the bytes
/// before them, which a terminator may straddle: a client sending one
/// byte per read costs linear work, not a rescan of the whole block.
fn read_header_block(stream: &mut impl Read) -> Result<(Vec<u8>, Vec<u8>), HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    // No terminator starts before this offset.
    let mut scanned = 0;
    loop {
        if let Some(end) = find_terminator(buf.get(scanned..).unwrap_or_default()) {
            let end = scanned + end;
            let rest = buf.split_off(end + 4);
            buf.truncate(end);
            return Ok((buf, rest));
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(HttpError::BadRequest(format!(
                "header block exceeds {MAX_HEADER_BYTES} bytes"
            )));
        }
        scanned = buf.len().saturating_sub(3);
        let mut chunk = [0u8; 1024];
        match stream.read(&mut chunk) {
            Ok(0) if buf.is_empty() => return Err(HttpError::Closed),
            Ok(0) => {
                return Err(HttpError::BadRequest(
                    "connection closed before headers completed".into(),
                ))
            }
            Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
            Err(e) if is_timeout(&e) => {
                return Err(HttpError::BadRequest(
                    "timed out waiting for headers".into(),
                ))
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A read timeout surfaces as `WouldBlock` (most Unixes) or `TimedOut`.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Standard reason phrase for the status codes the protocol emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Room left in front of a body rendered in place for the head: its
/// fixed text (67 bytes), a 5-digit status, the longest reason phrase
/// (21) and a 20-digit length fit in 128; the content type comes on top.
const HEAD_ROOM: usize = 128;

/// One complete response in one buffer, returned as `(buffer, start)`
/// with the response in `buffer[start..]`. The body `render` appends is
/// written once, after room left for the head; the head goes into the
/// end of that room once the body's length is known.
fn response_bytes(
    status: u16,
    content_type: &str,
    body_capacity: usize,
    render: impl FnOnce(&mut Vec<u8>),
) -> (Vec<u8>, usize) {
    let room = HEAD_ROOM + content_type.len();
    let mut response = Vec::with_capacity(room + body_capacity);
    response.resize(room, 0);
    render(&mut response);
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        response.len().saturating_sub(room),
    );
    let start = room.saturating_sub(head.len());
    match response.get_mut(start..room) {
        Some(slot) if slot.len() == head.len() => slot.copy_from_slice(head.as_bytes()),
        // HEAD_ROOM bounds every head; kept total all the same.
        _ => drop(response.splice(..room, head.bytes())),
    }
    (response, start)
}

/// Write one complete response whose body `render` appends to the
/// buffer it is given, and flush it. `Connection: close` is always sent:
/// the protocol is one request per connection. The body is rendered
/// straight into the response buffer behind room for the head, and head
/// and body go out in one `write_all`, so a `TCP_NODELAY` socket does not
/// send the head as a segment of its own. `body_capacity` sizes the
/// buffer up front.
///
/// # Errors
/// Propagates socket write errors (callers treat them as best-effort —
/// a client that hung up mid-response is not a server failure).
pub(crate) fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body_capacity: usize,
    render: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<()> {
    let (response, start) = response_bytes(status, content_type, body_capacity, render);
    stream.write_all(response.get(start..).unwrap_or_default())?;
    stream.flush()
}

/// Write one complete response with a ready `body` and flush it.
/// `Connection: close` is always sent: the protocol is one request per
/// connection. The body is copied once into the response buffer behind
/// the head, and head and body go out in one `write_all`.
///
/// # Errors
/// Propagates socket write errors (callers treat them as best-effort —
/// a client that hung up mid-response is not a server failure).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write_response_with(stream, status, content_type, body.len(), |out| {
        out.extend_from_slice(body.as_bytes());
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    /// Run `client` against a socket pair; returns what `read_request`
    /// produced on the server side.
    fn roundtrip(
        max_body: usize,
        client: impl FnOnce(&mut TcpStream) + Send,
    ) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut c = TcpStream::connect(addr).unwrap();
                client(&mut c);
            });
            let (mut stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(300)))
                .unwrap();
            read_request(&mut stream, max_body)
        })
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = roundtrip(1024, |c| {
            c.write_all(b"POST /link HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap();
        })
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/link");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn oversized_declared_body_is_rejected_without_reading_it() {
        let err = roundtrip(64, |c| {
            c.write_all(b"POST /link HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n")
                .unwrap();
        })
        .unwrap_err();
        assert!(matches!(
            err,
            HttpError::PayloadTooLarge {
                declared: 1_000_000,
                limit: 64
            }
        ));
    }

    #[test]
    fn truncated_body_times_out_as_bad_request() {
        let err = roundtrip(1024, |c| {
            // Declare 100 bytes, send 3, keep the socket open: the read
            // timeout must turn this into a 400, not a hung worker.
            c.write_all(b"POST /link HTTP/1.1\r\nContent-Length: 100\r\n\r\nabc")
                .unwrap();
            std::thread::sleep(Duration::from_millis(600));
        })
        .unwrap_err();
        match err {
            HttpError::BadRequest(m) => assert!(m.contains("truncated"), "{m}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    #[test]
    fn early_close_mid_body_is_bad_request() {
        let err = roundtrip(1024, |c| {
            c.write_all(b"POST /link HTTP/1.1\r\nContent-Length: 100\r\n\r\nabc")
                .unwrap();
            c.shutdown(std::net::Shutdown::Write).unwrap();
        })
        .unwrap_err();
        assert!(matches!(err, HttpError::BadRequest(_)));
    }

    #[test]
    fn gibberish_and_bad_lengths_are_bad_requests() {
        for raw in [
            "not http at all\r\n\r\n",
            "GET\r\n\r\n",
            "GET / SPDY/3\r\n\r\n",
            "POST /link HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            "GET / HTTP/1.1\r\nno-colon-header\r\n\r\n",
        ] {
            let err = roundtrip(1024, move |c| {
                c.write_all(raw.as_bytes()).unwrap();
            })
            .unwrap_err();
            assert!(matches!(err, HttpError::BadRequest(_)), "raw = {raw:?}");
        }
    }

    #[test]
    fn conflicting_content_lengths_are_rejected_but_repeats_pass() {
        let err = roundtrip(1024, |c| {
            c.write_all(
                b"POST /link HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 7\r\n\r\nhello",
            )
            .unwrap();
        })
        .unwrap_err();
        match err {
            HttpError::BadRequest(m) => assert!(m.contains("conflicting"), "{m}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // A repeated but identical value keeps unambiguous framing.
        let req = roundtrip(1024, |c| {
            c.write_all(
                b"POST /link HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
            )
            .unwrap();
        })
        .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn transfer_encoding_is_refused_not_misframed() {
        // Regression: a chunked body used to be silently parsed as
        // empty (only Content-Length was inspected). It must be a
        // typed NotImplemented error now, for ANY transfer coding.
        for te in ["chunked", "gzip, chunked", "identity"] {
            let raw = format!(
                "POST /link HTTP/1.1\r\nTransfer-Encoding: {te}\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
            );
            let err = roundtrip(1024, move |c| {
                c.write_all(raw.as_bytes()).unwrap();
            })
            .unwrap_err();
            match err {
                HttpError::NotImplemented(m) => {
                    assert!(m.contains("transfer-encoding"), "{m}")
                }
                other => panic!("te = {te:?}: expected NotImplemented, got {other:?}"),
            }
        }
    }

    #[test]
    fn unbounded_header_block_is_rejected() {
        let err = roundtrip(1024, |c| {
            let filler = format!(
                "GET / HTTP/1.1\r\nX-Junk: {}\r\n",
                "a".repeat(MAX_HEADER_BYTES)
            );
            c.write_all(filler.as_bytes()).unwrap();
        })
        .unwrap_err();
        match err {
            HttpError::BadRequest(m) => assert!(m.contains("header block exceeds"), "{m}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    #[test]
    fn byte_at_a_time_client_parses_the_same_request() {
        let raw = b"POST /link HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = roundtrip(1024, |c| {
            c.set_nodelay(true).unwrap();
            for byte in raw {
                c.write_all(&[*byte]).unwrap();
            }
        })
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/link");
        assert_eq!(req.body, b"hello");

        let err = roundtrip(1024, |c| {
            c.set_nodelay(true).unwrap();
            c.write_all(b"GET / HTTP/1.1\r\nX-Junk: ").unwrap();
            for _ in 0..=MAX_HEADER_BYTES {
                if c.write_all(b"a").is_err() {
                    // The server answered and closed: that is the point.
                    break;
                }
            }
        })
        .unwrap_err();
        match err {
            HttpError::BadRequest(m) => assert!(m.contains("header block exceeds"), "{m}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    /// A reader that hands out one byte per `read`.
    struct OneByte<'a>(&'a [u8]);

    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((&byte, rest)), Some(slot)) => {
                    *slot = byte;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn a_terminator_split_over_one_byte_reads_is_found() {
        let (header, rest) =
            read_header_block(&mut OneByte(b"GET / HTTP/1.1\r\nA: b\r\n\r\nbody")).unwrap();
        assert_eq!(header, b"GET / HTTP/1.1\r\nA: b");
        // One byte per read: the terminator's last byte ends the read.
        assert!(rest.is_empty());
        // A blank line anywhere but at the end of the block is no
        // terminator: "\r\n" then "\r" then a header byte.
        let err = read_header_block(&mut OneByte(b"GET / HTTP/1.1\r\n\rX")).unwrap_err();
        assert!(matches!(err, HttpError::BadRequest(_)), "{err}");
    }

    /// The bytes `write` sends on a fresh connection.
    fn sent(write: impl FnOnce(&mut TcpStream) + Send) -> Vec<u8> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                write(&mut stream);
            });
            let mut c = TcpStream::connect(addr).unwrap();
            let mut bytes = Vec::new();
            c.read_to_end(&mut bytes).unwrap();
            bytes
        })
    }

    #[test]
    fn link_response_in_one_buffer_matches_head_plus_rendered_body() {
        use crate::protocol::{render_outcomes, render_outcomes_into, rendered_capacity};
        use soulmate_core::QueryOutcome;
        let outcome = |query_index, similarities: Vec<f32>| QueryOutcome {
            query_index,
            subgraph: if similarities.is_empty() {
                Vec::new()
            } else {
                vec![0, 3, query_index]
            },
            subgraph_avg_weight: similarities.first().copied().unwrap_or(f32::NAN),
            content_vector: vec![-0.0, 1e-45, f32::MIN_POSITIVE, 0.1],
            concept_vector: Vec::new(),
            similarities,
        };
        let batches = [
            vec![],
            vec![outcome(4, vec![])],
            vec![
                outcome(
                    7,
                    vec![
                        f32::NAN,
                        f32::INFINITY,
                        f32::NEG_INFINITY,
                        -0.0,
                        1.4e-45,
                        -3.4e38,
                    ],
                ),
                outcome(8, vec![]),
                outcome(9, (0..300).map(|i| (i as f32 - 150.0) / 7.0).collect()),
            ],
        ];
        for outcomes in &batches {
            let one_buffer = sent(|stream| {
                write_response_with(
                    stream,
                    200,
                    "application/x-ndjson",
                    rendered_capacity(outcomes),
                    |out| render_outcomes_into(out, outcomes),
                )
                .unwrap();
            });
            let two_steps = sent(|stream| {
                let body = render_outcomes(outcomes);
                write_response(stream, 200, "application/x-ndjson", &body).unwrap();
            });
            assert_eq!(
                String::from_utf8(one_buffer).unwrap(),
                String::from_utf8(two_steps).unwrap()
            );
        }
        // The head itself is exactly what the two-step writer always
        // sent.
        let body = render_outcomes(&[outcome(1, vec![0.25])]);
        let (bytes, start) = response_bytes(200, "application/x-ndjson", 0, |out| {
            out.extend_from_slice(body.as_bytes());
        });
        let expected = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        assert_eq!(bytes.get(start..).unwrap(), expected.as_bytes());
    }

    #[test]
    fn response_writer_emits_parseable_http() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                write_response(&mut stream, 200, "application/json", "{\"ok\":true}").unwrap();
            });
            let mut c = TcpStream::connect(addr).unwrap();
            let mut text = String::new();
            c.read_to_string(&mut text).unwrap();
            assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
            assert!(text.contains("Content-Length: 11\r\n"), "{text}");
            assert!(text.ends_with("{\"ok\":true}"), "{text}");
        });
    }
}
