//! The gateway's per-query allocation budget, counted.
//!
//! Outside the sockets, a gateway query is: read the body
//! ([`Fleet::prepare`] parses it with the daemon's reader), look up and
//! inject the session's spec, write the line to forward, then sort the
//! backend's reply ([`Fleet::settle`]) and learn the spec it accepted. A
//! warm single query allocates its session name and its forwarded line and
//! nothing else: no JSON tree either way. The backend's reply line is read
//! off the socket, so it is made before the count starts.
//!
//! The counts are per thread, so the other tests of this binary, running
//! on their own threads, cannot disturb a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lca_fleet::Fleet;

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

/// Prepares `body` and settles it with the backend line `reply`; returns
/// the status and the allocator calls the two steps made.
fn gateway_query(fleet: &Fleet, body: &str, reply: &str) -> (u16, u64) {
    let reply = reply.to_owned();
    let before = CALLS.with(Cell::get);
    let forward = fleet.prepare(body).expect("a query body");
    let status = fleet.settle(forward, Ok(reply)).status;
    (status, CALLS.with(Cell::get) - before)
}

#[test]
fn a_warm_gateway_query_allocates_its_session_name_and_its_line() {
    // Never dialed: prepare and settle do not touch the backend.
    let fleet = Fleet::new(vec!["127.0.0.1:1".into()]);
    let answer = r#"{"id":1,"session":"s","answer":true,"probes":13,"micros":21}"#;
    let refused = r#"{"id":2,"error":"session-mismatch","message":"pinned elsewhere"}"#;
    let cases = [
        // Spec-bearing, as a client that always sends its spec.
        (
            r#"{"id":1,"session":"three","kind":"spanner3","family":"gnp","n":1000000,"seed":3,"query":[12,34]}"#,
            answer,
            200,
        ),
        // Spec-less, with the accepted spec injected.
        (r#"{"id":2,"session":"three","query":[56,78]}"#, answer, 200),
        (
            r#"{"id":3,"session":"mis","kind":"mis","n":1000000,"seed":7,"budget_policy":"p99.5","query":1}"#,
            answer,
            200,
        ),
        (
            r#"{"id":9000000000000000,"session":"mis","max_probes":64,"query":999999}"#,
            answer,
            200,
        ),
        // A refused request: sorted in place, nothing learned.
        (
            r#"{"id":4,"session":"mis","kind":"mis","n":1000000,"seed":8,"query":1}"#,
            refused,
            409,
        ),
    ];
    // The first pass learns the specs and warms the cache's map.
    for (body, reply, status) in cases {
        assert_eq!(gateway_query(&fleet, body, reply).0, status, "{body}");
    }
    let mut worst = 0;
    for (body, reply, status) in cases {
        let (got, calls) = gateway_query(&fleet, body, reply);
        assert_eq!(got, status, "{body}");
        worst = worst.max(calls);
    }
    assert!(
        worst <= 2,
        "a warm gateway query made {worst} allocator calls"
    );
}
