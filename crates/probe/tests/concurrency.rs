//! Concurrency contracts of the probe caches. One shared `MemoOracle` is
//! hammered from many threads and must keep its exactly-once forwarding
//! guarantee (one inner probe per distinct probe). One shared
//! `CachedOracle` is hammered the same way: its lists live in each
//! thread's own list store, so every thread must fill each list exactly
//! once, share nothing with the others, and answer exactly as the bare
//! graph does.

use lca_graph::gen::GnpBuilder;
use lca_graph::implicit::ListStore;
use lca_graph::{Oracle, VertexId};
use lca_probe::{CachedOracle, CountingOracle, MemoOracle};
use lca_rand::Seed;

const THREADS: usize = 8;
const PROBES_PER_THREAD: usize = 20_000;

/// Issues a deterministic-but-scrambled mix of all three probe kinds,
/// heavily overlapping across threads, and checks every answer against the
/// bare graph.
fn hammer<O: Oracle + Sync>(oracle: &O, graph: &lca_graph::Graph, thread_seed: u64) {
    let n = graph.vertex_count() as u64;
    let mut rng = Seed::new(thread_seed).stream();
    for _ in 0..PROBES_PER_THREAD {
        let v = VertexId::new(rng.next_below(n) as usize);
        match rng.next_below(3) {
            0 => assert_eq!(oracle.degree(v), graph.degree(v)),
            1 => {
                let i = rng.next_below(8) as usize;
                assert_eq!(oracle.neighbor(v, i), graph.neighbor(v, i));
            }
            _ => {
                let w = VertexId::new(rng.next_below(n) as usize);
                assert_eq!(oracle.adjacency(v, w), graph.adjacency_index(v, w));
            }
        }
    }
}

#[test]
fn memo_oracle_is_exactly_once_under_contention() {
    let g = GnpBuilder::new(64, 0.2).seed(Seed::new(1)).build();
    let counted = CountingOracle::new(&g);
    let memo = MemoOracle::new(&counted);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let memo = &memo;
            let g = &g;
            s.spawn(move || hammer(memo, g, 0xC0 + t as u64));
        }
    });

    // The exactly-once guarantee: the inner oracle saw each *distinct*
    // probe exactly once, no matter how many threads raced on it. With a
    // small key space and 160k probes, any double-forward would show as
    // counts > distinct.
    assert_eq!(
        counted.counts().total(),
        memo.distinct_probes() as u64,
        "a raced miss was forwarded twice"
    );

    // And clearing under no contention resets both sides of the ledger.
    memo.clear();
    assert_eq!(memo.distinct_probes(), 0);
    memo.degree(VertexId::new(0));
    assert_eq!(memo.distinct_probes(), 1);
}

#[test]
fn memo_answers_after_contention_match_a_fresh_run() {
    let g = GnpBuilder::new(64, 0.3).seed(Seed::new(2)).build();
    let memo = MemoOracle::new(&g);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let memo = &memo;
            let g = &g;
            s.spawn(move || hammer(memo, g, 0xD0 + t as u64));
        }
    });
    // Every cached entry still agrees with the ground truth.
    for v in g.vertices() {
        assert_eq!(memo.degree(v), g.degree(v));
        for i in 0..g.degree(v) {
            assert_eq!(memo.neighbor(v, i), g.neighbor(v, i));
        }
    }
}

/// Hammers `oracle` from every thread and returns each thread's list-store
/// traffic (hits, misses) and resident list count.
fn hammer_stores<O: Oracle + Sync>(
    oracle: &O,
    graph: &lca_graph::Graph,
    bound: usize,
    seed: u64,
) -> Vec<(u64, u64, usize)> {
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    ListStore::set_byte_bound(bound);
                    hammer(oracle, graph, seed + t as u64);
                    let stats = ListStore::stats();
                    (stats.hits, stats.misses, stats.entries)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    })
}

#[test]
fn cached_oracle_fills_each_list_once_per_thread() {
    let g = GnpBuilder::new(64, 0.2).seed(Seed::new(3)).build();
    let counted = CountingOracle::new(&g);
    let cached = CachedOracle::new(&counted);
    let per_thread = hammer_stores(&cached, &g, ListStore::DEFAULT_BYTES, 0xE0);

    // 20k probes over 64 vertices touch every one, and the default store
    // holds them all: each thread filled each list exactly once, as one
    // `deg(v) + 1` scan of the inner oracle, and no thread's fill served
    // another thread.
    for &(hits, misses, entries) in &per_thread {
        assert_eq!(entries, g.vertex_count());
        assert_eq!(misses, entries as u64, "a miss is one list fill");
        assert_eq!(hits + misses, PROBES_PER_THREAD as u64);
    }
    let fills: u64 = g.vertices().map(|v| g.degree(v) as u64 + 1).sum();
    assert_eq!(
        counted.counts().total(),
        THREADS as u64 * fills,
        "a list was filled twice on one thread, or shared between threads"
    );
}

#[test]
fn cached_oracle_fills_once_per_miss_under_eviction() {
    // Every list of K48 has 47 neighbors; a store bound that gives each of
    // a thread's two generations its first 4 KiB index plus room for four
    // lists keeps each thread turning its store over while 8 threads probe
    // one shared oracle. Answers must stay exact (checked inside `hammer`)
    // and every miss must cost exactly one fill.
    let g = lca_graph::gen::structured::complete(48);
    let counted = CountingOracle::new(&g);
    let cached = CachedOracle::new(&counted);
    let per_thread = hammer_stores(&cached, &g, 2 * (4096 + 4 * 47 * 4), 0xF0);

    for &(hits, misses, entries) in &per_thread {
        assert!(entries <= 8, "store over its bound: {entries} lists");
        assert!(misses > entries as u64, "no eviction happened");
        assert_eq!(hits + misses, PROBES_PER_THREAD as u64);
    }
    let misses: u64 = per_thread.iter().map(|t| t.1).sum();
    assert_eq!(counted.counts().total(), misses * 48);
}
