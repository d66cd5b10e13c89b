//! The serve codec's allocation budget, counted.
//!
//! A warm request that asks one query allocates two things: its session
//! name, read off the wire and moved into its answer, and the response
//! line the reactor queues. A `ping` allocates only its line. These tests
//! install a counting global allocator and hold the codec to that, through
//! [`Codec::frame`] and [`Codec::handle`] exactly as a reactor loop calls
//! them.
//!
//! The counts are per thread, so the other tests of this binary, running
//! on their own threads, cannot disturb a measurement.

#![allow(unsafe_code)]
#![allow(clippy::unwrap_used)] // tests assert; unwrap IS the assertion

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use lca::graph::VertexId;
use lca::prelude::Oracle;

use crate::reactor::{Codec, Deliver, Framed, Outcome};
use crate::server::{Server, ServerConfig};

struct CountingAllocator;

thread_local! {
    /// Allocator calls made on this thread (allocations and reallocations;
    /// frees are not counted).
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while a thread's locals are torn
    // down.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: defers to `System` for every operation; only adds a counter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Frames and handles one wire line on the calling thread; returns the
/// response line and the allocator calls the two steps made.
fn serve_line(server: &Arc<Server>, line: &[u8], deliver: &Deliver) -> (Vec<u8>, u64) {
    let before = CALLS.with(Cell::get);
    let request = match Codec::frame(&**server, &mut (), line, false, 0) {
        Framed::Request(request, _) | Framed::Queued(request, _) => request,
        Framed::Incomplete => panic!("a whole line frames"),
    };
    let bytes = match Codec::handle(server, &mut (), request, deliver.again()) {
        Outcome::Inline(bytes) => bytes,
        _ => panic!("the serve codec answers inline"),
    };
    let calls = CALLS.with(Cell::get) - before;
    (bytes, calls)
}

/// The most allocator calls any of `lines` made on its second pass, once
/// the first pass has warmed the session, its list store and every
/// buffer the LCA keeps. Each warm answer must equal its cold one (its
/// probe count may differ: a classic LCA's memo spares the warm query).
fn warm_max_calls(server: &Arc<Server>, lines: &[String]) -> u64 {
    let deliver = Deliver::detached();
    let cold: Vec<Vec<u8>> = lines
        .iter()
        .map(|line| serve_line(server, line.as_bytes(), &deliver).0)
        .collect();
    let mut worst = 0;
    for (line, cold) in lines.iter().zip(&cold) {
        let (warm, calls) = serve_line(server, line.as_bytes(), &deliver);
        let text = String::from_utf8(warm).unwrap();
        assert!(text.contains("\"answer\""), "{text}");
        let strip = |t: &str| t.split(",\"probes\"").next().unwrap().to_owned();
        assert_eq!(strip(&text), strip(std::str::from_utf8(cold).unwrap()));
        worst = worst.max(calls);
    }
    worst
}

#[test]
fn a_warm_single_query_allocates_its_session_name_and_its_line() {
    const N: usize = 1_000_000;
    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    // Three-spanner edge queries over real edges of implicit G(10^6, 4/n),
    // the instance the wire path was sized on.
    let oracle = lca::family::ImplicitFamily::Gnp.build(N, crate::input_seed(3));
    let spanner: Vec<String> = (0..256)
        .filter_map(|i| {
            let u = VertexId::new(i * 3907 % N);
            let v = oracle.neighbor(u, 0)?;
            Some(format!(
                "{{\"id\":{i},\"session\":\"three\",\"kind\":\"spanner3\",\"family\":\"gnp\",\
                 \"n\":{N},\"seed\":3,\"query\":[{},{}]}}\n",
                u.raw(),
                v.raw()
            ))
        })
        .collect();
    assert!(spanner.len() > 200);
    // MIS vertex queries with the spec left off after the first use, the
    // shape of a client that pinned its session.
    let mis: Vec<String> = std::iter::once(format!(
        "{{\"session\":\"mis\",\"kind\":\"mis\",\"n\":{N},\"seed\":7,\"query\":1}}\n"
    ))
    .chain((0..256).map(|i| {
        format!(
            "{{\"id\":{i},\"session\":\"mis\",\"query\":{}}}\n",
            i * 7919 % N
        )
    }))
    .collect();
    for lines in [&spanner, &mis] {
        let worst = warm_max_calls(&server, lines);
        assert!(worst <= 2, "a warm query line made {worst} allocator calls");
    }
}

#[test]
fn a_ping_allocates_only_its_line() {
    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let deliver = Deliver::detached();
    for line in ["{\"op\":\"ping\"}\n", "{\"id\":7,\"op\":\"ping\"}\n"] {
        serve_line(&server, line.as_bytes(), &deliver);
        let (reply, calls) = serve_line(&server, line.as_bytes(), &deliver);
        assert!(reply.starts_with(b"{\"ok\":true"), "{reply:?}");
        assert!(calls <= 1, "a ping made {calls} allocator calls");
    }
}
