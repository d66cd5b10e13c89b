//! Reactor-specific stress and drain tests: thousands of simultaneous
//! connections on one reactor thread, slow readers that must never block a
//! worker, and the drain-flushes-everything guarantee.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lca_serve::server::{bind, Server, ServerConfig};
use serde::Json;

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

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read");
    serde_json::from_str(response.trim())
        .unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
}

fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// The C10k acceptance check: ≥ 1000 connections simultaneously open
/// against a default-sized worker pool, every one of them served, with the
/// server's own `connections_open` gauge as the witness — no
/// per-connection threads exist to make this cheap, only reactor state.
#[test]
fn thousand_connections_held_open_and_served() {
    lca_serve::raise_fd_limit(8192).expect("fd limit");
    let (addr, handle, server) = spawn_server(ServerConfig::default());

    const CONNS: usize = 1_000;
    let spec = "\"kind\":\"mis\",\"family\":\"gnp\",\"n\":100000,\"seed\":3";
    let mut open: Vec<(TcpStream, BufReader<TcpStream>)> = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let (mut stream, mut reader) = connect(&addr);
        // One real query per connection, answered before the next connect —
        // the reactor is accepting, framing, dispatching, and flushing
        // across an ever-growing fd set.
        let response = roundtrip(
            &mut stream,
            &mut reader,
            &format!(
                "{{\"id\":{i},\"session\":\"c10k\",{spec},\"query\":{}}}",
                i % 100_000
            ),
        );
        assert!(
            response.get("answer").is_some(),
            "connection {i}: {response:?}"
        );
        open.push((stream, reader));
    }

    // All 1000 still open: the server's gauge must say so.
    let (mut stream, mut reader) = connect(&addr);
    let stats = roundtrip(&mut stream, &mut reader, r#"{"op":"stats"}"#);
    let gauge = stats
        .get("stats")
        .and_then(|g| g.get("connections_open"))
        .and_then(Json::as_u64)
        .expect("connections_open in stats");
    assert!(
        gauge >= CONNS as u64,
        "expected ≥ {CONNS} simultaneously open connections, gauge says {gauge}"
    );
    let total = stats
        .get("stats")
        .and_then(|g| g.get("connections"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(total >= gauge);

    // Every connection still answers after the peak.
    for (i, (stream, reader)) in open.iter_mut().enumerate().step_by(97) {
        let response = roundtrip(
            stream,
            reader,
            &format!("{{\"session\":\"c10k\",\"query\":{i}}}"),
        );
        assert!(response.get("answer").is_some(), "{response:?}");
    }

    roundtrip(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
    drop(open);
    handle.join().expect("drain");
    assert_eq!(
        server
            .global
            .reactor
            .connections_open
            .load(std::sync::atomic::Ordering::Relaxed),
        0,
        "every close must decrement the gauge"
    );
}

/// 256 connections send real query batches and then stop reading. Workers
/// must keep answering other traffic at full speed — responses to stalled
/// clients park in reactor write buffers, never on a worker thread — and
/// every stalled response must still be delivered once the client reads.
#[test]
fn slow_readers_do_not_block_workers() {
    lca_serve::raise_fd_limit(4096).expect("fd limit");
    let (addr, handle, _server) = spawn_server(ServerConfig {
        workers: 2,
        queue_capacity: 2048,
        ..ServerConfig::default()
    });

    const SLOW: usize = 256;
    let spec = "\"kind\":\"mis\",\"family\":\"gnp\",\"n\":2000,\"seed\":5";
    let batch: Vec<String> = (0..200).map(|v| (v % 2000).to_string()).collect();
    let mut stalled: Vec<(TcpStream, BufReader<TcpStream>)> = Vec::with_capacity(SLOW);
    for i in 0..SLOW {
        let (mut stream, reader) = connect(&addr);
        stream
            .write_all(
                format!(
                    "{{\"id\":{i},\"session\":\"slow\",{spec},\"queries\":[{}]}}\n",
                    batch.join(",")
                )
                .as_bytes(),
            )
            .expect("write batch");
        // …and deliberately do not read the response.
        stalled.push((stream, reader));
    }

    // A live client must be served promptly while 256 responses are parked
    // for readers that never drain them.
    let (mut stream, mut reader) = connect(&addr);
    let started = Instant::now();
    for i in 0..32 {
        let response = roundtrip(
            &mut stream,
            &mut reader,
            &format!("{{\"session\":\"live\",{spec},\"query\":{i}}}"),
        );
        assert!(response.get("answer").is_some(), "{response:?}");
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "live traffic starved behind stalled readers: {:?}",
        started.elapsed()
    );

    // The stalled clients finally read: every parked response arrives.
    for (i, (_stream, reader)) in stalled.iter_mut().enumerate() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("stalled read");
        let response: Json = serde_json::from_str(line.trim()).expect("json");
        assert_eq!(
            response.get("id").and_then(Json::as_u64),
            Some(i as u64),
            "stalled connection {i} got {line:?}"
        );
        assert!(
            response.get("answers").is_some() || response.get("error").is_some(),
            "{line:?}"
        );
    }

    roundtrip(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
    drop(stalled);
    handle.join().expect("drain");
}

/// The graceful-drain regression test: a query admitted *before* shutdown
/// whose response is produced *during* the drain must still be flushed to
/// its connection before the server exits.
#[test]
fn drain_flushes_responses_queued_at_shutdown_time() {
    let (addr, handle, server) = spawn_server(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServerConfig::default()
    });

    // A slow request: a large cold batch against a million-vertex session
    // occupies the single worker for a while.
    let (mut slow_stream, mut slow_reader) = connect(&addr);
    let batch: Vec<String> = (0..3_000).map(|v| v.to_string()).collect();
    slow_stream
        .write_all(
            format!(
                "{{\"id\":1,\"session\":\"d\",\"kind\":\"mis\",\"family\":\"gnp\",\
                 \"n\":1000000,\"seed\":2,\"queries\":[{}]}}\n",
                batch.join(",")
            )
            .as_bytes(),
        )
        .expect("write slow batch");

    // Give the reactor time to admit it to the pool, then shut down from a
    // second connection while the worker is still computing.
    std::thread::sleep(Duration::from_millis(100));
    let (mut ctl_stream, mut ctl_reader) = connect(&addr);
    let bye = roundtrip(&mut ctl_stream, &mut ctl_reader, r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("draining").and_then(Json::as_bool), Some(true));
    assert!(server.draining());

    // The drain must deliver the in-flight batch's response…
    let mut line = String::new();
    slow_reader.read_line(&mut line).expect("drain delivery");
    let response: Json = serde_json::from_str(line.trim()).expect("json");
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(
        response
            .get("answers")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(3_000),
        "queued response lost in drain: {line:?}"
    );

    // …then close the connection (EOF, not a hang) and exit the loop.
    line.clear();
    assert_eq!(slow_reader.read_line(&mut line).expect("eof"), 0);
    handle.join().expect("serve loop exits after drain");
}

/// A drain must terminate even when a client has stopped reading entirely:
/// enough unread response bytes to overflow the kernel buffers park in the
/// reactor's write buffer, the socket never drains, and the drain's grace
/// period — not the client — decides when the server gets to exit.
#[test]
fn drain_terminates_despite_a_fully_stalled_reader() {
    let (addr, handle, _server) = spawn_server(ServerConfig {
        workers: 1,
        queue_capacity: 64,
        ..ServerConfig::default()
    });

    // ~9 MB of responses (30 batches × 50k answers) that the client will
    // never read: far beyond what the kernel socket buffers can absorb,
    // so most of it is still parked in the reactor when the drain starts.
    let (mut stalled, _stalled_reader) = connect(&addr);
    let batch: Vec<String> = (0..50_000).map(|v| (v % 1_000).to_string()).collect();
    let spec = "\"kind\":\"mis\",\"family\":\"gnp\",\"n\":1000,\"seed\":9";
    for id in 0..30 {
        stalled
            .write_all(
                format!(
                    "{{\"id\":{id},\"session\":\"stall\",{spec},\"queries\":[{}]}}\n",
                    batch.join(",")
                )
                .as_bytes(),
            )
            .expect("write batch");
    }

    // Let the worker finish the batches, then drain. The stalled reader
    // would pin the old exit condition forever; the grace period must cut
    // it loose and let serve() return.
    let (mut ctl_stream, mut ctl_reader) = connect(&addr);
    let bye = roundtrip(&mut ctl_stream, &mut ctl_reader, r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("draining").and_then(Json::as_bool), Some(true));

    let started = Instant::now();
    handle
        .join()
        .expect("serve loop exits despite stalled reader");
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "drain took {:?} — stalled reader pinned it",
        started.elapsed()
    );
}

/// Queries arriving *after* the drain began get the typed `draining` error
/// (unchanged from the thread-per-connection front end). The shutdown and
/// the follow-up query are pipelined in one write so both lines reach the
/// reactor before the drain can close the connection.
#[test]
fn queries_after_drain_are_refused_typed() {
    let (addr, handle, _server) = spawn_server(ServerConfig::default());
    let (mut stream, mut reader) = connect(&addr);
    let first = roundtrip(
        &mut stream,
        &mut reader,
        r#"{"session":"x","kind":"mis","n":1000,"seed":1,"query":7}"#,
    );
    assert!(first.get("answer").is_some());
    stream
        .write_all(b"{\"op\":\"shutdown\"}\n{\"session\":\"x\",\"query\":8}\n")
        .expect("pipelined write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("shutdown ack");
    let ack: Json = serde_json::from_str(line.trim()).expect("json");
    assert_eq!(ack.get("draining").and_then(Json::as_bool), Some(true));
    line.clear();
    reader.read_line(&mut line).expect("refusal");
    let refused: Json = serde_json::from_str(line.trim()).expect("json");
    assert_eq!(
        refused.get("error").and_then(Json::as_str),
        Some("draining"),
        "{refused:?}"
    );
    drop((stream, reader));
    handle.join().expect("drain");
}

/// A cold MIS batch of `len` distinct vertices starting at `first`, on a
/// million-vertex session (so no answer is memoized yet).
fn cold_batch(id: u64, session: &str, first: u64, len: u64) -> String {
    let queries: Vec<String> = (first..first + len).map(|v| v.to_string()).collect();
    format!(
        "{{\"id\":{id},\"session\":\"{session}\",\"kind\":\"mis\",\"family\":\"gnp\",\
         \"n\":1000000,\"seed\":4,\"queries\":[{}]}}\n",
        queries.join(",")
    )
}

/// With an idle connection on each of four loops, `serve` must return soon
/// after the `shutdown` reply: the loop that takes the shutdown wakes the
/// others instead of leaving each to notice at its 100 ms wait timeout.
/// Timed over five drains; the median must sit well below that timeout.
#[test]
fn drain_wakes_every_loop_promptly() {
    let mut drains = Vec::new();
    for _ in 0..5 {
        let (addr, handle, _server) = spawn_server(ServerConfig {
            workers: 4,
            queue_capacity: 64,
            ..ServerConfig::default()
        });
        // Each hand-off goes to the emptiest loop, so four connections
        // land one per loop; a ping on each proves it is registered.
        let idle: Vec<(TcpStream, BufReader<TcpStream>)> = (0..4)
            .map(|_| {
                let (mut stream, mut reader) = connect(&addr);
                let pong = roundtrip(&mut stream, &mut reader, r#"{"op":"ping"}"#);
                assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
                (stream, reader)
            })
            .collect();
        let (mut ctl_stream, mut ctl_reader) = connect(&addr);
        let bye = roundtrip(&mut ctl_stream, &mut ctl_reader, r#"{"op":"shutdown"}"#);
        let acked = Instant::now();
        assert_eq!(bye.get("draining").and_then(Json::as_bool), Some(true));
        handle.join().expect("drain");
        drains.push(acked.elapsed());
        drop(idle);
    }
    drains.sort();
    assert!(
        drains[2] < Duration::from_millis(50),
        "median drain {:?} (all: {drains:?}): idle loops were not woken",
        drains[2]
    );
}

/// The drain wake must not cut short a loop that is busy: a batch still
/// computing on one loop when another loop takes the shutdown is answered
/// in full, and its connection closed, before `serve` returns.
#[test]
fn drain_flushes_a_batch_computing_on_another_loop() {
    let (addr, handle, server) = spawn_server(ServerConfig {
        workers: 4,
        queue_capacity: 64,
        ..ServerConfig::default()
    });
    // The first connection lands on loop 0 (which accepts), the second on
    // loop 1, so the batch computes off the accepting loop; loops 2 and 3
    // stay idle and must be woken to finish the drain.
    let (mut ctl_stream, mut ctl_reader) = connect(&addr);
    roundtrip(&mut ctl_stream, &mut ctl_reader, r#"{"op":"ping"}"#);
    let (mut slow_stream, mut slow_reader) = connect(&addr);
    roundtrip(&mut slow_stream, &mut slow_reader, r#"{"op":"ping"}"#);

    const LEN: u64 = 20_000;
    slow_stream
        .write_all(cold_batch(1, "busy", 0, LEN).as_bytes())
        .expect("write batch");
    // Shut down as soon as the batch is framed (it starts in the same
    // turn), while its loop is still computing it.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.global.requests.load(Ordering::Relaxed) < 3 {
        assert!(Instant::now() < deadline, "the batch was never framed");
        std::thread::sleep(Duration::from_micros(200));
    }
    let bye = roundtrip(&mut ctl_stream, &mut ctl_reader, r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("draining").and_then(Json::as_bool), Some(true));
    assert_eq!(
        server.global.reactor.responses.load(Ordering::Relaxed),
        3,
        "the batch finished before the drain began: nothing was tested"
    );

    let mut line = String::new();
    slow_reader.read_line(&mut line).expect("drain delivery");
    let response: Json = serde_json::from_str(line.trim()).expect("json");
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(
        response
            .get("answers")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(LEN as usize),
        "batch lost in drain: {line:?}"
    );
    line.clear();
    assert_eq!(slow_reader.read_line(&mut line).expect("eof"), 0);
    handle.join().expect("serve returns after the drain");
}

/// One loop, two connections: one pipelines cold MIS batches back to back
/// as fast as the socket takes them, the other pings. A turn reads at most
/// one chunk per connection, so the pings keep being answered while the
/// batches compute inline on the same loop.
#[test]
fn pipelined_batches_do_not_starve_pings_on_their_loop() {
    let (addr, handle, _server) = spawn_server(ServerConfig {
        workers: 1,
        queue_capacity: 1024,
        ..ServerConfig::default()
    });
    let (mut flood, flood_reader) = connect(&addr);
    flood
        .set_write_timeout(Some(Duration::from_secs(30)))
        .expect("write timeout");
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut first = 0;
            let mut id = 0;
            while !stop.load(Ordering::Relaxed) {
                // Trailing blanks pad each line to 4 KiB, so one read
                // chunk carries about four batches: a ping's wait is a few
                // batches long on any host, while the flood still keeps
                // the socket full.
                let line = format!("{:<4096}\n", cold_batch(id, "flood", first, 50).trim_end());
                if flood.write_all(line.as_bytes()).is_err() {
                    break;
                }
                first = (first + 50) % 1_000_000;
                id += 1;
            }
        })
    };
    // Drains the flood's answers so its writes never stall on a full
    // socket.
    let reader = std::thread::spawn(move || flood_reader.lines().take_while(Result::is_ok).count());
    std::thread::sleep(Duration::from_millis(200));

    let (mut stream, mut ping_reader) = connect(&addr);
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    for i in 0..20 {
        let sent = Instant::now();
        let pong = roundtrip(&mut stream, &mut ping_reader, r#"{"op":"ping"}"#);
        assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
        assert!(
            sent.elapsed() < Duration::from_secs(1),
            "ping {i} waited {:?} behind the pipelined batches",
            sent.elapsed()
        );
    }
    stop.store(true, Ordering::Relaxed);
    roundtrip(&mut stream, &mut ping_reader, r#"{"op":"shutdown"}"#);
    handle.join().expect("drain");
    writer.join().expect("writer");
    assert!(reader.join().expect("reader") > 0, "no batch was answered");
}

/// CPU time (user + system, in clock ticks) the thread named `name` has
/// used, read from `/proc/self/task/*/stat`.
#[cfg(target_os = "linux")]
fn thread_cpu_ticks(name: &str) -> u64 {
    for task in std::fs::read_dir("/proc/self/task").expect("task dir") {
        let dir = task.expect("task entry").path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim_end() != name {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).expect("stat");
        // Fields after the parenthesised command: state is field 3, utime
        // and stime are fields 14 and 15.
        let after = stat.rsplit_once(')').expect("comm field").1;
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| fields[i - 3].parse::<u64>().expect("tick count");
        return ticks(14) + ticks(15);
    }
    panic!("no thread named {name}");
}

/// A client that pipelines, half-closes and then reads nothing leaves its
/// connection owing bytes it cannot send. The loop must wait on write
/// readiness alone: a level-triggered read interest at EOF reports the
/// socket on every turn, and the loop would spin for as long as the bytes
/// stay owed.
#[cfg(target_os = "linux")]
#[test]
fn half_closed_connection_owing_bytes_does_not_spin_its_loop() {
    const LOOP: &str = "halfclose-loop";
    const LINES: usize = 20_000;
    let listener = bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    // Loop 0 runs on the thread that calls `serve`.
    let handle = {
        let server = server.clone();
        std::thread::Builder::new()
            .name(LOOP.to_owned())
            .spawn(move || server.serve(listener).expect("serve loop"))
            .expect("spawn loop")
    };

    let mut stream = TcpStream::connect(&addr).expect("connect");
    lca_serve::sys::set_recv_buffer(&stream, 4096).expect("SO_RCVBUF");
    stream
        .write_all(r#"{"op":"stats"}"#.repeat(LINES).replace("}{", "}\n{").as_bytes())
        .expect("pipeline");
    stream.write_all(b"\n").expect("last newline");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    let reactor = &server.global.reactor;
    let deadline = Instant::now() + Duration::from_secs(60);
    while reactor.responses.load(Ordering::Relaxed) < LINES as u64 {
        assert!(Instant::now() < deadline, "pipeline never answered");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Let the loop see the EOF behind the last request.
    std::thread::sleep(Duration::from_millis(200));

    let hold = Duration::from_secs(1);
    let before = thread_cpu_ticks(LOOP);
    std::thread::sleep(hold);
    let used = thread_cpu_ticks(LOOP) - before;
    assert_eq!(
        reactor.connections_open.load(Ordering::Relaxed),
        1,
        "the connection must still owe bytes during the hold"
    );
    // /proc reports USER_HZ = 100 ticks per second.
    let limit = hold.as_secs() * 100 / 10;
    assert!(
        used <= limit,
        "the loop burned {used} of {} ticks holding a half-closed connection",
        hold.as_secs() * 100
    );

    drop(stream);
    let (mut control, mut reader) = connect(&addr);
    roundtrip(&mut control, &mut reader, r#"{"op":"shutdown"}"#);
    handle.join().expect("drain");
}
