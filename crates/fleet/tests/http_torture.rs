//! Request-side torture tests for the gateway's HTTP/1.1 framing, the
//! counterpart of the serve protocol's `framing_torture.rs`.
//!
//! [`try_parse`] must frame every valid request only once all of it has
//! arrived, turn arbitrary corruption into a request, a request for more
//! bytes or a typed error (never a panic), hold the head cap exactly, and
//! refuse the header shapes two HTTP parties could frame differently:
//! `Transfer-Encoding` in any case, and a `Content-Length` that is signed,
//! negative, overflowing, conflicting or has whitespace before its colon.

use lca_fleet::http::{try_parse, HttpRequest, ParseOutcome, MAX_HEAD};

/// The standard SplitMix64 stream: deterministic, seed-labelled, and good
/// enough to cover byte-position space without a property-test framework.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

fn parse(buf: &[u8]) -> ParseOutcome {
    try_parse(buf, &mut 0)
}

/// One valid request of every shape the gateway serves.
fn sample_requests() -> Vec<Vec<u8>> {
    let query = r#"{"session":"s","kind":"mis","n":1000,"query":7}"#;
    vec![
        b"GET /v1/stats HTTP/1.1\r\nHost: gw\r\n\r\n".to_vec(),
        b"GET /v1/sessions?pretty=1 HTTP/1.0\r\n\r\n".to_vec(),
        format!(
            "POST /v1/query HTTP/1.1\r\nHost: gw\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{query}",
            query.len()
        )
        .into_bytes(),
        format!(
            "POST /v1/query HTTP/1.1\r\ncontent-length:{}\r\nCONTENT-LENGTH: \t{} \r\n\r\n{query}",
            query.len(),
            query.len()
        )
        .into_bytes(),
        b"POST /v1/shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n".to_vec(),
    ]
}

fn request(outcome: ParseOutcome) -> (HttpRequest, usize) {
    match outcome {
        ParseOutcome::Request(request, consumed) => (request, consumed),
        other => panic!("expected a request, got {other:?}"),
    }
}

#[test]
fn every_strict_prefix_is_incomplete() {
    for raw in sample_requests() {
        let (whole, consumed) = request(parse(&raw));
        assert_eq!(consumed, raw.len());
        // Each prefix on its own, and the same bytes trickled through one
        // persistent scan cursor as the gateway's read loop feeds them.
        let mut scanned = 0;
        for cut in 0..raw.len() {
            let prefix = &raw[..cut];
            assert_eq!(
                parse(prefix),
                ParseOutcome::Incomplete,
                "prefix {:?}",
                String::from_utf8_lossy(prefix)
            );
            assert_eq!(try_parse(prefix, &mut scanned), ParseOutcome::Incomplete);
        }
        assert_eq!(request(try_parse(&raw, &mut scanned)).0, whole);
    }
}

#[test]
fn seeded_byte_flips_frame_or_fail_typed() {
    let samples = sample_requests();
    let mut rng = SplitMix64(0x4854_5450);
    for _ in 0..20_000 {
        let mut raw = samples[rng.below(samples.len())].clone();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(raw.len());
            raw[at] = rng.next() as u8;
        }
        let outcome = parse(&raw);
        assert_eq!(outcome, parse(&raw), "parse is not pure: {raw:?}");
        if let ParseOutcome::Request(_, consumed) = outcome {
            assert!(
                (1..=raw.len()).contains(&consumed),
                "consumed {consumed} of {}",
                raw.len()
            );
        }
    }
}

/// A request whose head (request line and headers, without the blank
/// line) is exactly `len` bytes.
fn head_of(len: usize) -> Vec<u8> {
    let start = b"GET /v1/stats HTTP/1.1\r\nX-Pad: ";
    let mut raw = start.to_vec();
    raw.resize(len, b'a');
    raw.extend_from_slice(b"\r\n\r\n");
    raw
}

#[test]
fn the_head_cap_holds_at_max_head_plus_and_minus_one() {
    for len in [MAX_HEAD - 1, MAX_HEAD] {
        let raw = head_of(len);
        assert_eq!(request(parse(&raw)).1, raw.len(), "a {len}-byte head");
        // Until its terminator has arrived, a head at the cap is still
        // incomplete, not oversized.
        assert_eq!(parse(&raw[..raw.len() - 1]), ParseOutcome::Incomplete);
    }
    let over = head_of(MAX_HEAD + 1);
    assert_eq!(
        parse(&over),
        ParseOutcome::Error("header block exceeds 64 KiB")
    );
    assert_eq!(
        parse(&over[..over.len() - 1]),
        ParseOutcome::Error("header block exceeds 64 KiB"),
        "a head past the cap is refused before its terminator arrives"
    );
}

#[test]
fn transfer_encoding_is_refused_in_any_case() {
    for name in [
        "Transfer-Encoding",
        "transfer-encoding",
        "TRANSFER-ENCODING",
        "tRaNsFeR-eNcOdInG",
    ] {
        for value in ["chunked", "identity", "gzip, chunked"] {
            let raw = format!("POST /v1/query HTTP/1.1\r\n{name}: {value}\r\n\r\n");
            assert_eq!(
                parse(raw.as_bytes()),
                ParseOutcome::Error("chunked transfer encoding is not served"),
                "{raw:?}"
            );
        }
    }
}

#[test]
fn content_length_must_be_one_plain_decimal() {
    for header in [
        "Content-Length: -5",
        "Content-Length: +5",
        "Content-Length: 5 5",
        "Content-Length: 5,5",
        "Content-Length: 0x5",
        "Content-Length: 5.0",
        "Content-Length:",
        "Content-Length: 99999999999999999999999999",
    ] {
        let raw = format!("POST /v1/query HTTP/1.1\r\n{header}\r\n\r\nhello");
        assert_eq!(
            parse(raw.as_bytes()),
            ParseOutcome::Error("unparseable content-length"),
            "{header:?}"
        );
    }
    for header in [
        "Content-Length : 5",
        "Content-Length\t: 5",
        " Content-Length: 5",
    ] {
        let raw = format!("POST /v1/query HTTP/1.1\r\n{header}\r\n\r\nhello");
        assert_eq!(
            parse(raw.as_bytes()),
            ParseOutcome::Error("malformed header name"),
            "{header:?}"
        );
    }
    let conflicting =
        b"POST /v1/query HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 4\r\n\r\nhello";
    assert_eq!(
        parse(conflicting),
        ParseOutcome::Error("conflicting duplicate content-length headers")
    );
    let too_long = format!(
        "POST /v1/query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        16 << 20 | 1
    );
    assert_eq!(
        parse(too_long.as_bytes()),
        ParseOutcome::Error("body exceeds 16 MiB")
    );
    // Optional whitespace around the value is allowed.
    let padded = b"POST /v1/query HTTP/1.1\r\nContent-Length: \t5 \r\n\r\nhello";
    assert_eq!(request(parse(padded)).0.body, b"hello");
}
