//! Request-side torture tests: the newline-JSON request parser under
//! truncated, corrupted, deeply nested and numerically extreme input, and
//! the live daemon under hostile bytes and forced short writes.
//!
//! The parser half never opens a socket: seeded `SplitMix64` loops (the
//! workspace's property-test convention — no external proptest) cut every
//! sample request line at every character boundary and flip random bytes,
//! and each result must come back from [`Request::parse`] as a `Request`
//! or a typed [`ParseError`] whose response renders as one JSON line —
//! never a panic. Fixed cases pin the nesting ceiling from both sides and
//! the numbers a float-backed JSON reader gets wrong (`1e400`, `-0`,
//! `2^53 + 1`). The daemon half sends a non-UTF-8 line to a live server
//! and checks the connection keeps serving, and forces partial writes with
//! a shrunken client `SO_RCVBUF` to check that coalesced vectored flushes
//! never interleave response bytes.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use lca_serve::proto::{ErrorCode, ParseError, QueryPayload, Request};
use lca_serve::server::{bind, Server, ServerConfig};
use lca_serve::sys;
use serde::Json;

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

/// The JSON reader's nesting ceiling: a value may sit this many levels
/// below the top-level object, one level more is rejected.
const MAX_DEPTH: usize = 64;

/// One valid line of every request shape: each op, vertex and edge
/// queries, batches, every spec and budget field, and a session name with
/// escapes and multi-byte characters.
fn sample_requests() -> Vec<&'static str> {
    vec![
        r#"{"session":"s","kind":"mis","n":1000000,"seed":7,"query":42}"#,
        r#"{"id":9,"session":"sp","kind":"spanner3","family":"regular","n":4096,"knob":6,"queries":[[1,2],[3,4]]}"#,
        r#"{"id":3,"session":"b","kind":"k2","family":"chung-lu","n":5000,"seed":1,"knob":2.5,"max_probes":64,"deadline_ms":250,"budget_policy":"p95","query":[7,8]}"#,
        r#"{"session":"warm","queries":[1,2,3],"budget_policy":"off"}"#,
        r#"{ "session" : "esc\"aped\\ é αβγ" , "query" : 0 }"#,
        r#"{"op":"stats"}"#,
        r#"{"id":12,"op":"sessions"}"#,
        r#"{"op":"ping","id":0}"#,
        r#"{"op":"shutdown"}"#,
    ]
}

/// Parses `line` and checks the typed-outcome contract: a failure carries
/// a code and renders as exactly one JSON line with the `error` field, and
/// parsing is a pure function of the line.
fn parse_typed(line: &str) -> Result<Request, ParseError> {
    let outcome = Request::parse(line);
    assert_eq!(outcome, Request::parse(line), "parse is not pure: {line:?}");
    if let Err(e) = &outcome {
        let rendered = e.response().render();
        assert!(!rendered.contains('\n'), "multi-line error for {line:?}");
        let json = serde_json::from_str(&rendered)
            .unwrap_or_else(|err| panic!("error for {line:?} renders as bad JSON: {err}"));
        assert_eq!(
            json.get("error").and_then(Json::as_str),
            Some(e.code.as_str())
        );
    }
    outcome
}

#[test]
fn every_strict_prefix_is_a_typed_bad_request() {
    // Every sample is one JSON object, so no strict prefix closes it: each
    // must fail as malformed JSON (no id can be recovered from it).
    for line in sample_requests() {
        assert!(parse_typed(line).is_ok(), "{line}");
        for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            let err =
                parse_typed(&line[..cut]).expect_err(&format!("prefix {cut} of {line} parsed"));
            assert_eq!(err.code, ErrorCode::BadRequest, "prefix {cut} of {line}");
            assert_eq!(err.id, None, "prefix {cut} of {line}");
        }
    }
}

#[test]
fn seeded_byte_flips_parse_or_fail_typed() {
    // Flip 1–3 random bytes of a random sample. Flips that break UTF-8 are
    // read lossily (the daemon rejects raw non-UTF-8 before the parser;
    // see `non_utf8_lines_are_bad_requests_and_the_connection_survives`).
    // Each iteration is reproducible from its seed.
    let samples = sample_requests();
    let mut outcomes = [0usize; 2];
    for seed in 0..4_000u64 {
        let mut rng = SplitMix64(0x5EED_F11B ^ (seed << 16));
        let mut bytes = samples[rng.below(samples.len())].as_bytes().to_vec();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(bytes.len());
            bytes[at] ^= 1 + rng.below(255) as u8;
        }
        let line = String::from_utf8_lossy(&bytes);
        outcomes[usize::from(parse_typed(&line).is_err())] += 1;
    }
    // The corpus must exercise both outcomes, or it tests nothing.
    assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
}

/// A query line carrying an extra field nested `depth` arrays deep (the
/// innermost array sits at `depth` levels below the top-level object).
fn nested_line(depth: usize) -> String {
    format!(
        r#"{{"session":"s","query":1,"deep":{}{}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    )
}

#[test]
fn nesting_is_accepted_at_the_ceiling_and_rejected_past_it() {
    let at = parse_typed(&nested_line(MAX_DEPTH)).expect("nesting at the ceiling");
    assert!(matches!(at, Request::Query { .. }), "{at:?}");
    for depth in [MAX_DEPTH + 1, 100_000] {
        let err = parse_typed(&nested_line(depth)).expect_err("nesting past the ceiling");
        assert_eq!(err.code, ErrorCode::BadRequest, "depth {depth}");
        assert!(err.message.contains("nesting"), "depth {depth}: {err:?}");
    }
}

#[test]
fn extreme_numbers_are_read_exactly_or_rejected_by_name() {
    let with = |field: &str, value: &str| {
        parse_typed(&format!(
            r#"{{"session":"s","kind":"mis","n":100,"query":1,"{field}":{value}}}"#
        ))
    };
    // 1e400 overflows f64 to infinity: no integer field and no knob may
    // take it.
    for field in ["seed", "max_probes", "deadline_ms", "knob", "id"] {
        let err = with(field, "1e400").expect_err(field);
        assert_eq!(err.code, ErrorCode::BadRequest, "{field}");
        assert!(err.message.contains(&format!("`{field}`")), "{err:?}");
    }
    // 2^53 + 1 has no exact f64: it rounds, so an integer field refuses
    // it rather than serve a neighbouring seed or id.
    let two53_plus_1 = "9007199254740993";
    for field in ["seed", "max_probes", "id"] {
        let err = with(field, two53_plus_1).expect_err(field);
        assert!(err.message.contains(&format!("`{field}`")), "{err:?}");
    }
    let err = parse_typed(&format!(r#"{{"session":"s","query":{two53_plus_1}}}"#))
        .expect_err("rounded vertex id");
    assert_eq!(err.code, ErrorCode::BadRequest);
    // -0 is zero, wherever an integer is read.
    let Ok(Request::Query {
        spec,
        queries,
        max_probes,
        ..
    }) =
        parse_typed(r#"{"session":"s","kind":"mis","n":100,"seed":-0,"max_probes":-0,"query":-0}"#)
    else {
        panic!("-0 rejected")
    };
    assert_eq!(spec.map(|s| s.seed), Some(0));
    assert_eq!(max_probes, Some(0));
    assert_eq!(queries, vec![QueryPayload::Vertex(0)]);
}

// ---------------------------------------------------------------------------
// Live-daemon halves: hostile bytes and partial-write interleaving.

/// Spawns a daemon on an ephemeral port; returns its address and the
/// serve-loop handle (joined by sending a shutdown request).
fn spawn_server(config: ServerConfig) -> (String, std::thread::JoinHandle<()>, Arc<Server>) {
    let listener = bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = Server::new(config);
    let handle = {
        let server = server.clone();
        std::thread::spawn(move || {
            server.serve(listener).expect("serve loop");
        })
    };
    (addr, handle, server)
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects, optionally shrinking the client-side receive buffer
    /// *before* any server bytes arrive (a tiny `SO_RCVBUF` caps the TCP
    /// window the server can write into, forcing partial writes there).
    fn connect(addr: &str, recv_buffer: Option<usize>) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
        if let Some(bytes) = recv_buffer {
            sys::set_recv_buffer(&stream, bytes).expect("SO_RCVBUF");
        }
        Client {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn send_line(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
    }

    fn roundtrip_line(&mut self, line: &str) -> Json {
        self.send_line(line);
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        serde_json::from_str(response.trim())
            .unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
    }

    fn read_json_line(&mut self) -> Json {
        let mut response = String::new();
        assert!(
            self.reader.read_line(&mut response).expect("read") > 0,
            "EOF mid-pipeline"
        );
        serde_json::from_str(response.trim())
            .unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
    }
}

#[test]
fn forced_partial_writes_never_interleave_responses() {
    // A client that pipelines hundreds of requests into a tiny receive
    // window while reading nothing forces the reactor into short vectored
    // writes mid-line. Every buffered byte must still come out in order:
    // each JSON line parses, and responses arrive in request order.
    let (addr, handle, _server) = spawn_server(ServerConfig {
        workers: 1,
        queue_capacity: 16,
        ..ServerConfig::default()
    });
    let pipelined = 800usize;

    let mut client = Client::connect(&addr, Some(2048));
    // `stats` is answered inline with a multi-hundred-byte body:
    // hundreds of them dwarf the 2 KiB window and pile into the
    // connection's write queue before the first read below.
    for id in 0..pipelined {
        client.send_line(&format!("{{\"id\":{id},\"op\":\"ping\"}}"));
        client.send_line("{\"op\":\"stats\"}");
    }
    let mut stats_seen = 0;
    for id in 0..pipelined {
        let ok = client.read_json_line();
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true), "id {id}");
        let stats = client.read_json_line();
        assert!(stats.get("stats").is_some(), "id {id}: {stats:?}");
        stats_seen += 1;
    }
    assert_eq!(stats_seen, pipelined);

    let mut client = Client::connect(&addr, None);
    client.roundtrip_line(r#"{"op":"shutdown"}"#);
    handle.join().expect("drain");
}

#[test]
fn non_utf8_lines_are_bad_requests_and_the_connection_survives() {
    let (addr, handle, _server) = spawn_server(ServerConfig {
        workers: 1,
        queue_capacity: 16,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr, None);
    client
        .writer
        .write_all(b"{\"id\":1,\"session\":\"\xff\xfe\",\"query\":1}\n")
        .expect("write");
    let err = client.read_json_line();
    assert_eq!(
        err.get("error").and_then(Json::as_str),
        Some("bad-request"),
        "{err:?}"
    );
    let ok = client.roundtrip_line(r#"{"op":"ping"}"#);
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true), "{ok:?}");
    let stats = client.roundtrip_line(r#"{"op":"stats"}"#);
    let parse_errors = stats
        .get("stats")
        .and_then(|g| g.get("parse_errors"))
        .and_then(Json::as_u64);
    assert_eq!(parse_errors, Some(1), "{stats:?}");

    client.roundtrip_line(r#"{"op":"shutdown"}"#);
    handle.join().expect("drain");
}
