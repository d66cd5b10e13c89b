//! HTTP/1.1 pipelining through the gateway's codec on the shared reactor
//! core: a burst of requests in one `write`, spread over both shards of a
//! two-backend fleet, must come back in request order — also when the
//! client shrinks its receive buffer and reads nothing until the whole
//! burst is written, so the gateway writes into a nearly closed window.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use lca_fleet::{Fleet, Gateway, GatewayConfig};
use lca_serve::server::{Server, ServerConfig};
use serde::Json;

fn spawn_backend() -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind backend");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = Server::new(ServerConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServerConfig::default()
    });
    let handle = std::thread::spawn(move || server.serve(listener).expect("backend serve loop"));
    (addr, handle)
}

fn spawn_gateway(backends: Vec<String>) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind gateway");
    let addr = listener.local_addr().expect("local addr").to_string();
    let gateway = Gateway::new(
        Fleet::new(backends),
        GatewayConfig {
            workers: 2,
            queue_capacity: 64,
        },
    );
    let handle = std::thread::spawn(move || gateway.serve(listener).expect("gateway serve loop"));
    (addr, handle)
}

/// The first `s<i>` name the router sends to `shard` of 2.
fn name_for_shard(shard: usize) -> String {
    (0..)
        .map(|i| format!("s{i}"))
        .find(|name| lca_probe::shard_for_str(name, 2) == shard)
        .expect("some name hashes to every shard")
}

/// Reads one HTTP response: its status and parsed JSON body.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, Json) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read status line");
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("read header");
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content-length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read body");
    let body = String::from_utf8(body).expect("UTF-8 body");
    (status, serde_json::from_str(&body).expect("JSON body"))
}

/// Sends `count` queries alternating between both shards' sessions in one
/// `write`, reads nothing until all are sent, then returns the response
/// ids in arrival order.
fn pipelined_ids(gateway: &str, count: u64, recv_buffer: Option<usize>) -> Vec<u64> {
    let names = [name_for_shard(0), name_for_shard(1)];
    let mut burst = Vec::new();
    for id in 0..count {
        let body = format!(
            "{{\"id\":{id},\"session\":\"{}\",\"kind\":\"mis\",\"family\":\"gnp\",\
             \"n\":10000,\"seed\":7,\"query\":{id}}}",
            names[id as usize % 2]
        );
        write!(
            burst,
            "POST /v1/query HTTP/1.1\r\nHost: lca\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("render request");
    }
    let stream = TcpStream::connect(gateway).expect("connect gateway");
    if let Some(bytes) = recv_buffer {
        lca_serve::sys::set_recv_buffer(&stream, bytes).expect("shrink receive buffer");
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    (&stream).write_all(&burst).expect("write the whole burst");
    let mut reader = BufReader::new(stream);
    (0..count)
        .map(|_| {
            let (status, body) = read_response(&mut reader);
            assert_eq!(status, 200, "{body:?}");
            assert!(body.get("answer").is_some(), "{body:?}");
            body.get("id").and_then(Json::as_u64).expect("id echoed")
        })
        .collect()
}

fn shutdown_backend(addr: &str, handle: JoinHandle<()>) {
    let mut stream = TcpStream::connect(addr).expect("backend still up");
    stream
        .write_all(b"{\"op\":\"shutdown\"}\n")
        .expect("send shutdown");
    drop(stream);
    handle.join().expect("backend drains");
}

#[test]
fn pipelined_requests_answer_in_request_order() {
    let (addr0, h0) = spawn_backend();
    let (addr1, h1) = spawn_backend();
    let (gw_addr, gw_handle) = spawn_gateway(vec![addr0.clone(), addr1.clone()]);

    // 32 requests in one write, alternating shards.
    assert_eq!(
        pipelined_ids(&gw_addr, 32, None),
        (0..32).collect::<Vec<_>>()
    );

    // A 2 KiB receive buffer holds a handful of responses at most; what
    // the kernel cannot take parks in the gateway's write queue until
    // write readiness — every byte still arrives, in order.
    assert_eq!(
        pipelined_ids(&gw_addr, 256, Some(2048)),
        (0..256).collect::<Vec<_>>()
    );

    // The gateway's reactor counters saw every response.
    let mut stream = TcpStream::connect(&gw_addr).expect("connect gateway");
    stream
        .write_all(b"GET /v1/stats HTTP/1.1\r\nHost: lca\r\n\r\n")
        .expect("request stats");
    let (status, stats) = read_response(&mut BufReader::new(stream));
    assert_eq!(status, 200);
    let counters = stats.get("gateway").expect("gateway reactor counters");
    let responses = counters.get("responses").and_then(Json::as_u64);
    assert!(responses >= Some(32 + 256), "{counters:?}");
    let per_response = counters
        .get("syscalls_per_response")
        .and_then(Json::as_f64)
        .expect("syscalls_per_response");
    assert!(per_response > 0.0, "{counters:?}");

    let mut stream = TcpStream::connect(&gw_addr).expect("connect gateway");
    stream
        .write_all(b"POST /v1/shutdown HTTP/1.1\r\nHost: lca\r\nContent-Length: 0\r\n\r\n")
        .expect("request shutdown");
    read_response(&mut BufReader::new(stream));
    gw_handle.join().expect("gateway drains");
    shutdown_backend(&addr0, h0);
    shutdown_backend(&addr1, h1);
}
