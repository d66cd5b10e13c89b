//! Concurrency contracts of the sharded caches: hammer one shared
//! `MemoOracle` (and `CachedOracle`) from many threads and assert the
//! exactly-once forwarding guarantee (one inner probe per distinct probe
//! for the memo, one list fill per miss for the cache) plus answer
//! correctness survive the races the sharding is supposed to make cheap.
//! CI also runs this suite under ThreadSanitizer: the cache's counters live
//! under its shard locks.

use lca_graph::gen::GnpBuilder;
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

#[test]
fn cached_oracle_is_exactly_once_under_contention() {
    let g = GnpBuilder::new(64, 0.2).seed(Seed::new(3)).build();
    let counted = CountingOracle::new(&g);
    let cached = CachedOracle::new(&counted);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cached = &cached;
            let g = &g;
            s.spawn(move || hammer(cached, g, 0xE0 + t as u64));
        }
    });

    // 160k probes over 64 vertices touch every one, and the default slab
    // holds them all: each list was filled exactly once, as one
    // `deg(v) + 1` scan of the inner oracle, no matter how many threads
    // raced on its first probe.
    let stats = cached.stats();
    assert_eq!(stats.entries, g.vertex_count());
    assert_eq!(
        stats.misses, stats.entries as u64,
        "a miss is one list fill"
    );
    let fills: u64 = g.vertices().map(|v| g.degree(v) as u64 + 1).sum();
    assert_eq!(
        counted.counts().total(),
        fills,
        "a raced miss was filled twice"
    );
    assert_eq!(
        stats.hits + stats.misses,
        (THREADS * PROBES_PER_THREAD) as u64
    );
}

#[test]
fn cached_oracle_fills_once_per_miss_under_eviction() {
    // Every list of K48 has 47 neighbors; a 4-list slab per shard keeps the
    // cache evicting while 8 threads race on it. Answers must stay exact
    // (checked inside `hammer`) and every miss must cost exactly one fill.
    let g = lca_graph::gen::structured::complete(48);
    let counted = CountingOracle::new(&g);
    let cached = CachedOracle::with_shards(&counted, 4).with_slab_bytes(4 * (47 * 4 + 48));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cached = &cached;
            let g = &g;
            s.spawn(move || hammer(cached, g, 0xF0 + t as u64));
        }
    });

    let stats = cached.stats();
    assert!(stats.entries <= 4 * 4, "slab over budget: {stats:?}");
    assert!(stats.misses > stats.entries as u64, "no eviction happened");
    assert_eq!(counted.counts().total(), stats.misses * 48);
    assert_eq!(
        stats.hits + stats.misses,
        (THREADS * PROBES_PER_THREAD) as u64
    );
}
