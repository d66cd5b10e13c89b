//! The gateway speaks the daemon's protocol: the serve crate's wire golden
//! replayed through a gateway, and the spec it learns only from requests a
//! backend accepted.
//!
//! `crates/serve/tests/wire_golden/requests.jsonl` holds one line per
//! request shape and failure the daemon answers deterministically, and
//! `expected.jsonl` the daemon's answers, `micros` masked. Every query line
//! of it sent as a `POST /v1/query` body must come back with the daemon's
//! answer as its body, whether the gateway refused it itself or forwarded
//! it, under the HTTP status its error code maps to.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use lca_fleet::{Fleet, Gateway, GatewayConfig};
use lca_serve::proto::{ErrorCode, Request};
use lca_serve::server::{Server, ServerConfig};
use serde::Json;

const REQUESTS: &str = include_str!("../../serve/tests/wire_golden/requests.jsonl");
const EXPECTED: &str = include_str!("../../serve/tests/wire_golden/expected.jsonl");

/// A backend with one reactor loop and a gateway over it; returns the
/// backend's and the gateway's addresses and their serve threads.
fn spawn_fleet() -> (String, String, Vec<std::thread::JoinHandle<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind backend");
    let backend = listener.local_addr().expect("local addr").to_string();
    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let backend_thread = std::thread::spawn(move || {
        server.serve(listener).expect("backend serve loop");
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind gateway");
    let gateway_addr = listener.local_addr().expect("local addr").to_string();
    let gateway = Gateway::new(
        Fleet::new(vec![backend.clone()]),
        GatewayConfig {
            workers: 2,
            queue_capacity: 64,
        },
    );
    let gateway_thread = std::thread::spawn(move || {
        gateway.serve(listener).expect("gateway serve loop");
    });
    (backend, gateway_addr, vec![backend_thread, gateway_thread])
}

/// Drains the gateway, then the backend, and joins both.
fn shut_down(backend: &str, gateway: &mut HttpClient, threads: Vec<std::thread::JoinHandle<()>>) {
    gateway.request("POST", "/v1/shutdown", "");
    let mut stream = TcpStream::connect(backend).expect("backend still up");
    stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    drop(stream);
    for thread in threads {
        thread.join().expect("serve loop drains");
    }
}

/// A keep-alive HTTP/1.1 client: one connection, sequential round trips.
struct HttpClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    fn connect(addr: &str) -> HttpClient {
        let stream = TcpStream::connect(addr).expect("connect gateway");
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
        HttpClient {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    /// One round trip: the status and the body.
    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nHost: lca\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("write request");
        let mut status_line = String::new();
        self.reader
            .read_line(&mut status_line)
            .expect("read status line");
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header).expect("read header");
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().expect("content-length");
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("read body");
        (status, String::from_utf8(body).expect("UTF-8 body"))
    }
}

/// `line` with every `"micros"` value written as 0, as in `expected.jsonl`.
fn mask_micros(line: &str) -> String {
    const KEY: &str = "\"micros\":";
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(KEY) {
        let (head, tail) = rest.split_at(at + KEY.len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// The HTTP status of a daemon answer: 200, or its error code's.
fn status_of(answer: &str) -> u16 {
    let parsed = serde_json::from_str(answer).expect("expected line parses");
    match parsed.get("error").and_then(Json::as_str) {
        None => 200,
        Some(code) => ErrorCode::parse(code)
            .unwrap_or_else(|| panic!("unknown code {code}"))
            .http_status(),
    }
}

#[test]
fn every_query_line_of_the_wire_golden_gets_the_daemons_answer() {
    let (backend, gateway, threads) = spawn_fleet();
    let mut client = HttpClient::connect(&gateway);
    // The daemon answers every non-blank line until the shutdown, after
    // which it stops reading.
    let lines = REQUESTS.lines().filter(|line| !line.trim().is_empty());
    let mut replayed = 0;
    for (line, expected) in lines.zip(EXPECTED.lines()) {
        if let Ok(Request::Stats | Request::Sessions | Request::Ping | Request::Shutdown) =
            Request::parse(line)
        {
            continue;
        }
        let (status, body) = client.request("POST", "/v1/query", line);
        assert_eq!(mask_micros(&body), expected, "body for {line}");
        assert_eq!(status, status_of(expected), "status for {line}");
        replayed += 1;
    }
    assert!(replayed >= 50, "only {replayed} query lines replayed");
    shut_down(&backend, &mut client, threads);
}

#[test]
fn a_refused_spec_does_not_replace_the_accepted_one() {
    let (backend, gateway, threads) = spawn_fleet();
    let mut client = HttpClient::connect(&gateway);
    let pinned =
        r#"{"id":1,"session":"p","kind":"mis","family":"gnp","n":1000,"seed":7,"query":1}"#;
    let (status, body) = client.request("POST", "/v1/query", pinned);
    assert_eq!(status, 200, "{body}");
    let conflicting =
        r#"{"id":2,"session":"p","kind":"mis","family":"gnp","n":1000,"seed":8,"query":1}"#;
    let (status, body) = client.request("POST", "/v1/query", conflicting);
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("session-mismatch"), "{body}");
    // The spec-less query rides the spec the backend accepted.
    let spec_less = r#"{"id":3,"session":"p","query":2}"#;
    let (status, body) = client.request("POST", "/v1/query", spec_less);
    assert_eq!(status, 200, "{body}");
    let mut direct = TcpStream::connect(&backend).expect("connect backend");
    direct.write_all(spec_less.as_bytes()).unwrap();
    direct.write_all(b"\n").unwrap();
    let mut answer = String::new();
    BufReader::new(&direct).read_line(&mut answer).unwrap();
    let field = |line: &str| serde_json::from_str(line).unwrap().get("answer").cloned();
    assert_eq!(field(&body), field(&answer), "{body} vs {answer}");
    assert!(field(&body).is_some(), "{body}");
    drop(direct);
    shut_down(&backend, &mut client, threads);
}
