//! Minimal std-only HTTP/1.1 framing for the gateway.
//!
//! The gateway terminates a deliberately small slice of HTTP: request
//! line + headers + `Content-Length` body in, status line + JSON body
//! out, keep-alive by default. No chunked transfer, no trailers, no
//! `Expect: continue` — every client the fleet serves (the load
//! generator, `curl`, an MCP host's HTTP bridge, a CI python script)
//! speaks this subset. Parsing is incremental: bytes accumulate in the
//! connection's read buffer and [`try_parse`] either produces one
//! complete request (plus how many bytes it consumed), asks for more
//! bytes, or rejects the connection. The caller holds a scan cursor so
//! a trickled header block costs linear work, not a fresh full-buffer
//! rescan per read.

#![warn(clippy::unwrap_used)]
/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (path only; the gateway routes on exact
    /// paths and ignores any query string).
    pub path: String,
    /// The request body (`Content-Length` bytes; empty when absent).
    pub body: Vec<u8>,
}

/// What one [`try_parse`] attempt produced.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseOutcome {
    /// The buffer does not yet hold a complete request — read more bytes.
    Incomplete,
    /// One complete request, and the number of buffer bytes it consumed
    /// (drain them before the next attempt, and reset the scan cursor).
    Request(HttpRequest, usize),
    /// The bytes are not a well-formed request within this module's
    /// limits; answer 400 and drop the connection.
    Error(&'static str),
}

/// Largest accepted request-line + header block.
pub const MAX_HEAD: usize = 64 << 10;
/// Largest accepted request body — matches the serve protocol's own
/// line cap (no legitimate query request is this large).
pub const MAX_BODY: usize = 16 << 20;

/// Attempts to frame one request off the front of `buf`.
///
/// `scanned` is a caller-held cursor over how far the head scan has
/// already looked: retries resume from it (minus the 3 bytes a split
/// `\r\n\r\n` could straddle) instead of rescanning from byte 0, which
/// turns a trickled 64 KiB head from O(n²) total work into O(n). Reset it
/// to 0 whenever consumed bytes are drained from the front of `buf`.
pub fn try_parse(buf: &[u8], scanned: &mut usize) -> ParseOutcome {
    let Some(head_end) = find_head_end(buf, scanned) else {
        // A terminator could still complete a head of exactly `MAX_HEAD`
        // bytes until its 4 bytes would all lie past the cap.
        if buf.len() > MAX_HEAD + 3 {
            return ParseOutcome::Error("header block exceeds 64 KiB");
        }
        return ParseOutcome::Incomplete;
    };
    if head_end > MAX_HEAD {
        return ParseOutcome::Error("header block exceeds 64 KiB");
    }
    let Some(head_bytes) = buf.get(..head_end) else {
        return ParseOutcome::Incomplete;
    };
    let Ok(head) = std::str::from_utf8(head_bytes) else {
        return ParseOutcome::Error("header block is not UTF-8");
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return ParseOutcome::Error("malformed request line");
    };
    if !version.starts_with("HTTP/1.") {
        return ParseOutcome::Error("only HTTP/1.x is served");
    }
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return ParseOutcome::Error("malformed header line");
        };
        // RFC 9112 §5.1: no whitespace between a field name and its
        // colon; a leading space would be an obsolete line fold. Both are
        // request-smuggling shapes, refused rather than trimmed.
        if name.is_empty() || name.bytes().any(|b| b.is_ascii_whitespace()) {
            return ParseOutcome::Error("malformed header name");
        }
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9112 §6.3: `1*DIGIT`, so no sign, no list, no blank.
            let value = value.trim_matches([' ', '\t']);
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return ParseOutcome::Error("unparseable content-length");
            }
            match value.parse::<usize>() {
                Ok(n) if n <= MAX_BODY => {
                    // Request-smuggling hygiene: a repeated Content-Length
                    // is only acceptable when every copy agrees — a
                    // conflicting duplicate means two parties would frame
                    // the stream differently.
                    if content_length.is_some_and(|prev| prev != n) {
                        return ParseOutcome::Error("conflicting duplicate content-length headers");
                    }
                    content_length = Some(n);
                }
                Ok(_) => return ParseOutcome::Error("body exceeds 16 MiB"),
                Err(_) => return ParseOutcome::Error("unparseable content-length"),
            }
        }
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return ParseOutcome::Error("chunked transfer encoding is not served");
        }
    }
    let content_length = content_length.unwrap_or(0);
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return ParseOutcome::Incomplete;
    }
    // Strip any query string: routing is on exact paths.
    let path = target.split('?').next().unwrap_or(target).to_owned();
    let Some(body) = buf.get(body_start..body_start + content_length) else {
        return ParseOutcome::Incomplete;
    };
    ParseOutcome::Request(
        HttpRequest {
            method: method.to_owned(),
            path,
            body: body.to_vec(),
        },
        body_start + content_length,
    )
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
///
/// Resumes from `*scanned` (backed up 3 bytes for a terminator split
/// across reads) and advances it to the end of the region proven not to
/// contain the terminator, so repeated calls on a growing buffer never
/// re-examine old bytes.
fn find_head_end(buf: &[u8], scanned: &mut usize) -> Option<usize> {
    let start = scanned.saturating_sub(3).min(buf.len());
    let tail = buf.get(start..).unwrap_or(&[]);
    match tail.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(pos) => {
            let head_end = start + pos;
            *scanned = head_end;
            Some(head_end)
        }
        None => {
            *scanned = buf.len();
            None
        }
    }
}

/// The reason phrase for the status codes the gateway emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

fn render(status: u16, body: &str, connection: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        reason(status),
        body.len()
    )
    .into_bytes()
}

/// Renders one keep-alive HTTP/1.1 response with a JSON body (for
/// connections the gateway keeps serving).
pub fn render_response(status: u16, body: &str) -> Vec<u8> {
    render(status, body, "keep-alive")
}

/// Renders one `Connection: close` HTTP/1.1 response with a JSON body —
/// for the paths (parse rejection) where the gateway drops the connection
/// after flushing, so the advertised header agrees with the behavior.
pub fn render_close_response(status: u16, body: &str) -> Vec<u8> {
    render(status, body, "close")
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests assert; unwrap IS the assertion
mod tests {
    use super::*;

    fn parse(buf: &[u8]) -> ParseOutcome {
        try_parse(buf, &mut 0)
    }

    #[test]
    fn parses_a_post_with_body_and_reports_consumption() {
        let raw = b"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbodyNEXT";
        let ParseOutcome::Request(req, consumed) = parse(raw) else {
            panic!("expected a request");
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/query");
        assert_eq!(req.body, b"body");
        assert_eq!(&raw[consumed..], b"NEXT", "pipelined bytes survive");
    }

    #[test]
    fn parses_a_get_without_body_and_strips_query_strings() {
        let raw = b"GET /v1/stats?pretty=1 HTTP/1.1\r\nHost: x\r\n\r\n";
        let ParseOutcome::Request(req, consumed) = parse(raw) else {
            panic!("expected a request");
        };
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/stats");
        assert!(req.body.is_empty());
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn incomplete_requests_ask_for_more_bytes() {
        assert_eq!(parse(b"POST /v1/qu"), ParseOutcome::Incomplete);
        assert_eq!(
            parse(b"POST /v1/query HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort"),
            ParseOutcome::Incomplete
        );
    }

    #[test]
    fn scan_cursor_resumes_across_trickled_reads() {
        // Feed a head one fragment at a time through one persistent
        // cursor, exactly like the gateway's read loop does.
        let raw = b"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let mut buf = Vec::new();
        let mut scanned = 0usize;
        for chunk in raw.chunks(7) {
            buf.extend_from_slice(chunk);
            match try_parse(&buf, &mut scanned) {
                ParseOutcome::Incomplete => {
                    // The cursor tracks progress but never outruns the
                    // buffer — and once past the split-terminator backup
                    // region it proves old bytes are never rescanned.
                    assert!(scanned <= buf.len());
                }
                ParseOutcome::Request(req, consumed) => {
                    assert_eq!(req.body, b"body");
                    assert_eq!(consumed, raw.len());
                    assert_eq!(buf.len(), raw.len(), "parsed only once all bytes arrived");
                    return;
                }
                ParseOutcome::Error(e) => panic!("unexpected parse error: {e}"),
            }
        }
        panic!("request never parsed");
    }

    #[test]
    fn scan_cursor_finds_a_terminator_split_across_reads() {
        // The 4-byte terminator straddles two reads: the 3-byte backup
        // must re-examine just enough to see it.
        let head = b"GET /v1/stats HTTP/1.1\r\n\r\n";
        let (a, b) = head.split_at(head.len() - 2);
        let mut buf = a.to_vec();
        let mut scanned = 0usize;
        assert_eq!(try_parse(&buf, &mut scanned), ParseOutcome::Incomplete);
        assert_eq!(scanned, a.len());
        buf.extend_from_slice(b);
        let ParseOutcome::Request(req, _) = try_parse(&buf, &mut scanned) else {
            panic!("expected a request after the terminator completes");
        };
        assert_eq!(req.path, "/v1/stats");
    }

    #[test]
    fn duplicate_content_length_headers_must_agree() {
        let conflicting = b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nbody!";
        assert_eq!(
            parse(conflicting),
            ParseOutcome::Error("conflicting duplicate content-length headers")
        );
        // Agreeing duplicates frame identically — accepted.
        let agreeing = b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody";
        let ParseOutcome::Request(req, _) = parse(agreeing) else {
            panic!("agreeing duplicates should parse");
        };
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn malformed_requests_are_rejected_with_a_reason() {
        for raw in [
            &b"NOT-HTTP\r\n\r\n"[..],
            &b"GET / SPDY/3\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nbroken header\r\n\r\n"[..],
            &b"POST / HTTP/1.1\r\nContent-Length: zero\r\n\r\n"[..],
            &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
        ] {
            assert!(
                matches!(parse(raw), ParseOutcome::Error(_)),
                "{:?} should be rejected",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn responses_render_with_exact_content_length() {
        let bytes = render_response(429, r#"{"error":"overloaded"}"#);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 22\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"overloaded\"}"));
    }

    #[test]
    fn close_responses_advertise_connection_close() {
        let bytes = render_close_response(400, r#"{"error":"bad-request"}"#);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 400 Bad Request\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(!text.contains("keep-alive"));
    }
}
