//! Fleet end-to-end tests: real `lca-serve` backends, a real gateway,
//! real HTTP over real sockets.
//!
//! The two properties the fleet design stands on:
//!
//! * **Routing is a pure function of (session name, fleet size)** — a
//!   restarted gateway with the same backend list routes every session to
//!   the same backend, and spec-exchange replication means the fresh
//!   gateway (empty spec cache) still serves spec-less requests because
//!   the backend holds the session.
//! * **Failure is partial and typed** — killing one backend turns its
//!   shard's queries into `503 backend-unavailable` while every other
//!   shard keeps answering.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use lca_fleet::{Fleet, Gateway, GatewayConfig};
use lca_serve::server::{Server, ServerConfig};
use serde::Json;

fn spawn_backend(id: &str) -> (String, std::thread::JoinHandle<()>, Arc<Server>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind backend");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = Server::new(ServerConfig {
        workers: 2,
        queue_capacity: 64,
        backend_id: id.to_owned(),
        ..ServerConfig::default()
    });
    let handle = {
        let server = server.clone();
        std::thread::spawn(move || {
            server.serve(listener).expect("backend serve loop");
        })
    };
    (addr, handle, server)
}

fn spawn_gateway(backends: Vec<String>) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind gateway");
    let addr = listener.local_addr().expect("local addr").to_string();
    let gateway = Gateway::new(
        Fleet::new(backends),
        GatewayConfig {
            workers: 2,
            queue_capacity: 64,
        },
    );
    let handle = std::thread::spawn(move || {
        gateway.serve(listener).expect("gateway serve loop");
    });
    (addr, handle)
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

    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, Json) {
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
        let status: u16 = status_line
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
        let body = String::from_utf8(body).expect("UTF-8 body");
        let parsed =
            serde_json::from_str(&body).unwrap_or_else(|e| panic!("bad body {body:?}: {e}"));
        (status, parsed)
    }

    fn query(&mut self, body: &str) -> (u16, Json) {
        self.request("POST", "/v1/query", body)
    }
}

/// The first `s<i>` name that `shard_for_str` sends to `shard` of 2 —
/// computed with the exact function the router uses, so the test pins
/// *which backend* a session must land on, not just consistency.
fn name_for_shard(shard: usize) -> String {
    (0..)
        .map(|i| format!("s{i}"))
        .find(|name| lca_probe::shard_for_str(name, 2) == shard)
        .expect("some name hashes to every shard")
}

fn spec_query(id: u64, session: &str, query: u64) -> String {
    format!(
        "{{\"id\":{id},\"session\":\"{session}\",\"kind\":\"mis\",\"family\":\"gnp\",\
         \"n\":10000,\"seed\":7,\"query\":{query}}}"
    )
}

#[test]
fn routing_is_stable_across_gateway_restarts_and_specs_replicate() {
    let (addr0, h0, _b0) = spawn_backend("b0");
    let (addr1, h1, _b1) = spawn_backend("b1");
    let backends = vec![addr0.clone(), addr1.clone()];
    let names = [name_for_shard(0), name_for_shard(1)];

    // First gateway: create one session per shard, remember its answers.
    let (gw_addr, gw_handle) = spawn_gateway(backends.clone());
    let mut client = HttpClient::connect(&gw_addr);
    let mut first_answers = Vec::new();
    for (shard, name) in names.iter().enumerate() {
        let (status, response) = client.query(&spec_query(1, name, 42));
        assert_eq!(status, 200, "shard {shard}: {response:?}");
        // Spec-less follow-up: the gateway's spec cache injects the spec.
        let (status, response) =
            client.query(&format!("{{\"id\":2,\"session\":\"{name}\",\"query\":42}}"));
        assert_eq!(status, 200, "spec-less on shard {shard}: {response:?}");
        first_answers.push(response.get("answer").and_then(Json::as_bool).unwrap());
    }

    // The merged namespace tags each session with its routed backend.
    let (status, sessions) = client.request("GET", "/v1/sessions", "");
    assert_eq!(status, 200);
    for (shard, name) in names.iter().enumerate() {
        let backend = sessions
            .get("sessions")
            .and_then(|s| s.get(name))
            .and_then(|s| s.get("backend"))
            .and_then(Json::as_u64);
        assert_eq!(backend, Some(shard as u64), "{sessions:?}");
    }

    // The fleet rollup sums per-backend counters and records routing hits.
    let (status, stats) = client.request("GET", "/v1/stats", "");
    assert_eq!(status, 200);
    let fleet = stats.get("fleet").expect("fleet rollup");
    assert_eq!(fleet.get("backends_up").and_then(Json::as_u64), Some(2));
    let routed: Vec<u64> = fleet
        .get("routed")
        .and_then(Json::as_array)
        .expect("routed histogram")
        .iter()
        .map(|x| x.as_u64().unwrap())
        .collect();
    assert_eq!(routed, vec![2, 2], "two queries per shard: {stats:?}");
    let backend_sum: u64 = stats
        .get("backends")
        .and_then(Json::as_array)
        .expect("per-backend array")
        .iter()
        .map(|b| {
            assert_eq!(b.get("ok").and_then(Json::as_bool), Some(true));
            b.get("stats")
                .and_then(|g| g.get("requests"))
                .and_then(Json::as_u64)
                .expect("backend requests")
        })
        .sum();
    assert_eq!(
        fleet.get("requests").and_then(Json::as_u64),
        Some(backend_sum),
        "rollup is the sum of its parts"
    );

    // Drain gateway #1; the backends stay up.
    let (status, bye) = client.request("POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(bye.get("draining").and_then(Json::as_bool), Some(true));
    gw_handle.join().expect("gateway drains");

    // Gateway #2 over the same backend list: same routing (pinned via
    // /v1/sessions), and spec-less queries still answer identically even
    // though *this* gateway never saw a spec — the backends hold the
    // sessions, which is exactly what spec-exchange replication promises.
    let (gw_addr, gw_handle) = spawn_gateway(backends);
    let mut client = HttpClient::connect(&gw_addr);
    for (shard, name) in names.iter().enumerate() {
        let (status, response) =
            client.query(&format!("{{\"id\":3,\"session\":\"{name}\",\"query\":42}}"));
        assert_eq!(status, 200, "restart, shard {shard}: {response:?}");
        assert_eq!(
            response.get("answer").and_then(Json::as_bool),
            Some(first_answers[shard]),
            "answers are deterministic across gateway restarts"
        );
    }
    let (_, sessions) = client.request("GET", "/v1/sessions", "");
    for (shard, name) in names.iter().enumerate() {
        let backend = sessions
            .get("sessions")
            .and_then(|s| s.get(name))
            .and_then(|s| s.get("backend"))
            .and_then(Json::as_u64);
        assert_eq!(backend, Some(shard as u64), "restart keeps routing");
    }

    client.request("POST", "/v1/shutdown", "");
    gw_handle.join().expect("gateway drains");
    for (addr, handle) in [(addr0, h0), (addr1, h1)] {
        let mut stream = TcpStream::connect(&addr).expect("backend still up");
        stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        drop(stream);
        handle.join().expect("backend drains");
    }
}

#[test]
fn parse_errors_advertise_connection_close_and_the_gateway_hangs_up() {
    let (addr0, h0, _b0) = spawn_backend("b0");
    let (gw_addr, gw_handle) = spawn_gateway(vec![addr0.clone()]);

    // A request the parser must reject: two Content-Length headers that
    // disagree. After such an error the gateway cannot know where the next
    // request starts, so the 400 must say `Connection: close` *and* the
    // socket must actually close — header and behavior agree.
    let mut stream = TcpStream::connect(&gw_addr).expect("connect gateway");
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    stream
        .write_all(
            b"POST /v1/query HTTP/1.1\r\nHost: lca\r\n\
              Content-Length: 2\r\nContent-Length: 5\r\n\r\n{}",
        )
        .expect("write malformed request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read until the gateway hangs up");
    assert!(
        response.starts_with("HTTP/1.1 400 "),
        "expected a 400, got {response:?}"
    );
    let head = response
        .split("\r\n\r\n")
        .next()
        .unwrap()
        .to_ascii_lowercase();
    assert!(
        head.contains("connection: close"),
        "400 must advertise the close it performs: {response:?}"
    );
    assert!(
        !head.contains("connection: keep-alive"),
        "conflicting connection headers: {response:?}"
    );
    // `read_to_string` returning proves EOF: the gateway really hung up
    // instead of waiting for a next request it could not frame.

    // Well-formed traffic on a fresh connection is unaffected.
    let mut client = HttpClient::connect(&gw_addr);
    let (status, response) = client.query(&spec_query(1, "close-test", 3));
    assert_eq!(status, 200, "{response:?}");

    client.request("POST", "/v1/shutdown", "");
    gw_handle.join().expect("gateway drains");
    let mut stream = TcpStream::connect(&addr0).expect("backend still up");
    stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    drop(stream);
    h0.join().expect("backend drains");
}

#[test]
fn a_dead_backend_fails_typed_while_other_shards_keep_serving() {
    let (addr0, h0, _b0) = spawn_backend("b0");
    let (addr1, h1, _b1) = spawn_backend("b1");
    let names = [name_for_shard(0), name_for_shard(1)];

    let (gw_addr, gw_handle) = spawn_gateway(vec![addr0.clone(), addr1.clone()]);
    let mut client = HttpClient::connect(&gw_addr);
    for name in &names {
        let (status, _) = client.query(&spec_query(1, name, 9));
        assert_eq!(status, 200);
    }

    // Kill shard 1's backend out from under the gateway.
    let mut stream = TcpStream::connect(&addr1).expect("connect backend 1");
    stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    drop(stream);
    h1.join().expect("backend 1 drains");

    // Its shard fails typed — even with the spec injected, there is no
    // process to serve it (the retry dials a dead port).
    let (status, response) = client.query(&format!(
        "{{\"id\":2,\"session\":\"{}\",\"query\":9}}",
        names[1]
    ));
    assert_eq!(status, 503, "{response:?}");
    assert_eq!(
        response.get("error").and_then(Json::as_str),
        Some("backend-unavailable")
    );
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(2));

    // The other shard never notices.
    let (status, response) = client.query(&format!(
        "{{\"id\":3,\"session\":\"{}\",\"query\":9}}",
        names[0]
    ));
    assert_eq!(status, 200, "{response:?}");
    assert!(response.get("answer").is_some());

    // Stats degrade gracefully: the dead member reports its error, the
    // rollup counts the survivors.
    let (status, stats) = client.request("GET", "/v1/stats", "");
    assert_eq!(status, 200);
    let fleet = stats.get("fleet").expect("fleet rollup");
    assert_eq!(fleet.get("backends").and_then(Json::as_u64), Some(2));
    assert_eq!(fleet.get("backends_up").and_then(Json::as_u64), Some(1));
    assert!(fleet.get("unavailable").and_then(Json::as_u64).unwrap() >= 1);
    let members = stats.get("backends").and_then(Json::as_array).unwrap();
    assert_eq!(members[0].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(members[1].get("ok").and_then(Json::as_bool), Some(false));
    assert!(members[1].get("error").is_some());

    client.request("POST", "/v1/shutdown", "");
    gw_handle.join().expect("gateway drains");
    let mut stream = TcpStream::connect(&addr0).expect("backend 0 still up");
    stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    drop(stream);
    h0.join().expect("backend 0 drains");
}

/// The field names of a JSON object, in wire order.
fn keys(object: Option<&Json>) -> Vec<&str> {
    match object {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

#[test]
fn every_stats_object_keeps_its_key_order() {
    // Goldens for the five stats objects (serve global, session, session
    // `budget` block, gateway, fleet rollup) and the envelopes around them.
    // Dashboards and perfbench read these by name and humans read them in
    // order; a refactor of how they are declared must not move one.
    let (addr, handle, server) = spawn_backend("b0");
    let (gw_addr, gw_handle) = spawn_gateway(vec![addr.clone()]);
    let mut client = HttpClient::connect(&gw_addr);
    let (status, response) = client.query(&spec_query(1, "g", 42));
    assert_eq!(status, 200, "{response:?}");

    let (status, stats) = client.request("GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert_eq!(keys(Some(&stats)), ["fleet", "backends", "gateway"]);
    assert_eq!(
        keys(stats.get("fleet")),
        [
            "backends",
            "backends_up",
            "requests",
            "overloaded",
            "budget_exhausted",
            "parse_errors",
            "sessions",
            "cache_hits_total",
            "cache_misses_total",
            "cache_hit_rate_total",
            "list_store_bytes",
            "list_store_turnovers",
            "routed",
            "retries",
            "unavailable",
            "adaptive_sessions",
            "spec_cache_entries",
            "spec_cache_evictions",
        ]
    );
    let backend = stats
        .get("backends")
        .and_then(Json::as_array)
        .and_then(|b| b.first())
        .expect("one backend entry");
    assert_eq!(
        keys(Some(backend)),
        ["backend", "addr", "ok", "fitted_budgets", "stats"]
    );
    assert_eq!(
        keys(backend.get("stats")),
        [
            "version",
            "backend_id",
            "uptime_s",
            "uptime_ms",
            "requests",
            "qps",
            "parse_errors",
            "overloaded",
            "budget_exhausted",
            "connections",
            "connections_open",
            "reactor_wakeups",
            "completions_delivered",
            "write_syscalls",
            "responses",
            "bytes_written",
            "completions_per_wake",
            "syscalls_per_response",
            "queue_len",
            "sessions",
            "registry_shards",
            "registry_shard_hits",
            "cache_hits_total",
            "cache_misses_total",
            "cache_hit_rate_total",
            "list_store_bytes",
            "list_store_turnovers",
            "draining",
        ]
    );
    assert_eq!(
        keys(stats.get("gateway")),
        [
            "connections",
            "connections_open",
            "reactor_wakeups",
            "completions_delivered",
            "write_syscalls",
            "responses",
            "bytes_written",
            "completions_per_wake",
            "syscalls_per_response",
        ]
    );

    let serve = serde_json::from_str(&server.stats_response().render()).expect("stats parses");
    assert_eq!(keys(Some(&serve)), ["stats", "sessions"]);
    let session = serve.get("sessions").and_then(|s| s.get("g"));
    assert_eq!(
        keys(session),
        [
            "kind",
            "family",
            "n",
            "seed",
            "queries",
            "yes",
            "errors",
            "qps",
            "latency_p50_us",
            "latency_p99_us",
            "latency_mean_us",
            "probes_p50",
            "probes_p99",
            "probes_total",
            "budget_exhausted",
            "budget_utilization_pct_p50",
            "budget_utilization_pct_p99",
            "budgeted_queries",
            "cache_hits",
            "cache_misses",
            "cache_hit_rate",
            "budget",
        ]
    );
    assert_eq!(
        keys(session.and_then(|s| s.get("budget"))),
        [
            "policy",
            "target_percentile",
            "fitted_max_probes",
            "refits",
            "window_epochs",
            "samples",
        ]
    );

    client.request("POST", "/v1/shutdown", "");
    gw_handle.join().expect("gateway drains");
    let mut stream = TcpStream::connect(&addr).expect("backend still up");
    stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    drop(stream);
    handle.join().expect("backend drains");
}
