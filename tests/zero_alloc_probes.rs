//! Alloc-counting shim for the probe hot path.
//!
//! The amortized probe pipeline promises that steady-state probing of an
//! implicit oracle allocates nothing: the per-thread list store keeps each
//! generated list, and `neighbors_into` copies into a caller-provided
//! `Vec` whose capacity survives across probes. This binary installs a
//! counting global allocator and asserts the promise literally — after one
//! warm-up scan per vertex, a storm of `degree`/`neighbor`/`adjacency`/
//! `neighbors_into` probes against the resident working set performs ZERO
//! allocator calls.
//!
//! A second phase prices a whole warm k2-spanner query — hundreds of
//! probes against lists resident in the thread's list store — in allocator
//! calls. The walk keeps its memo tables and buffers in a per-thread
//! scratch whose capacity outlives the query, so a warm query allocates
//! nothing either; the store's share is zero as well, because a warm query
//! fills no list, which the phase checks query by query.
//!
//! Everything lives in one `#[test]`: the counter is process-global, and a
//! sibling test allocating on another thread would poison the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lca::prelude::*;

struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` for every operation; only adds a counter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

#[test]
fn warmed_probes_do_not_allocate() {
    const N: usize = 4096;
    const ROUNDS: usize = 100;
    for family in [
        ImplicitFamily::Gnp,
        ImplicitFamily::Regular,
        ImplicitFamily::ChungLu,
    ] {
        let oracle = family.build(N, Seed::new(0xA110C));
        // Two resident vertices — far inside the list store's bound, so
        // alternating probes never evict each other.
        let targets = [VertexId::new(17), VertexId::new(2048)];
        let mut buf: Vec<VertexId> = Vec::new();
        let mut warm_lists: Vec<Vec<VertexId>> = Vec::new();
        // Warm-up: generate both lists once (fills the per-thread store and
        // grows `buf` to the working-set high-water mark), and snapshot the
        // answers the storm must keep reproducing.
        for &v in &targets {
            oracle.neighbors_into(v, &mut buf);
            warm_lists.push(buf.clone());
        }
        let baseline = alloc_calls();
        let mut checksum = 0u64;
        for round in 0..ROUNDS {
            for (slot, &v) in targets.iter().enumerate() {
                let d = oracle.neighbors_into(v, &mut buf);
                checksum += d as u64;
                assert_eq!(d, oracle.degree(v), "{family}: degree drifted");
                if d > 0 {
                    let i = round % d;
                    let w = oracle.neighbor(v, i);
                    checksum += w.map_or(0, |w| w.index() as u64);
                    if let Some(w) = w {
                        checksum += oracle.adjacency(v, w).map_or(0, |j| j as u64);
                    }
                }
                assert_eq!(
                    buf, warm_lists[slot],
                    "{family}: warmed list changed under repetition"
                );
            }
        }
        let spent = alloc_calls() - baseline;
        assert_eq!(
            spent, 0,
            "{family}: {spent} allocator calls across {ROUNDS} warmed probe \
             rounds (checksum {checksum})"
        );
    }
    k2_query_alloc_budget();
}

/// The warm k2 walk's allocator budget: allocator calls per k2-spanner
/// query on implicit G(10⁶, 4/n) with every list it reads resident in the
/// thread's list store, over 256 sampled edges. With SipHash maps built
/// fresh for every center search this batch cost 257 calls per query; with
/// the per-query scratch reused across searches, 92; with each thread's
/// walk tables reused across queries and center searches kept as flat
/// records over one path arena, 0. The bound is that measured figure, on
/// the batch's total: a warm walk makes no allocator call at all.
///
/// The same batch checks that a warm query fills no list: every one of its
/// probes is answered by a resident list, so the store itself allocates
/// nothing, and every probe reaches the store exactly once.
fn k2_query_alloc_budget() {
    const QUERIES: usize = 256;
    const BUDGET: u64 = 0;
    let kind = AlgorithmKind::Spanner(SpannerKind::K2);
    let oracle = ImplicitFamily::Gnp.build(1_000_000, Seed::new(1));
    let algo = LcaBuilder::new(kind).seed(Seed::new(1)).build(&oracle);
    let queries =
        LcaBuilder::new(kind).queries(&oracle, QuerySource::sample(QUERIES, Seed::new(2)));
    // Warm-up pass: fills the list store with every list the batch reads.
    let warm: Vec<bool> = queries.iter().map(|&q| algo.query(q).unwrap()).collect();
    let store_before = ListStore::stats();
    let mut probes = 0;
    let mut filled = 0;
    let baseline = alloc_calls();
    for (&q, &want) in queries.iter().zip(&warm) {
        let ctx = QueryCtx::unlimited();
        let misses = ListStore::stats().misses;
        assert_eq!(
            algo.query_ctx(q, &ctx).unwrap(),
            want,
            "warm k2 answer drifted"
        );
        filled += ListStore::stats().misses - misses;
        probes += ctx.spent();
    }
    let spent = alloc_calls() - baseline;
    assert!(
        spent <= BUDGET * QUERIES as u64,
        "{QUERIES} warm k2 queries made {spent} allocator calls \
         (budget {BUDGET} per query)"
    );
    assert_eq!(filled, 0, "warm k2 queries filled {filled} lists");
    let store = ListStore::stats();
    assert_eq!(
        store.requests() - store_before.requests(),
        probes,
        "every probe reaches the store exactly once"
    );
}
