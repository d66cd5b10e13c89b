//! Scenario: spanner-backed overlay routing.
//!
//! A peer-to-peer overlay wants each node to keep only a sparse subset of
//! its links while guaranteeing that any dropped link has a ≤3-hop detour —
//! the textbook use of a 3-spanner. No node can read the whole topology;
//! instead every node asks the LCA about *its own* links, and because all
//! nodes share the same seed, their local decisions assemble into one
//! consistent global spanner.
//!
//! Run: `cargo run --release --example overlay_routing`

// Stdout is this target's output channel; the print ban is for library code.
#![allow(clippy::print_stdout)]
use lca::core::ThreeSpanner;
use lca::prelude::*;
use lca::rand::SplitMix64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The overlay: a dense mesh (think data-center fabric). Degrees land
    // above the n^{3/4} super-high threshold — the regime where the
    // 3-spanner construction bites hardest.
    let graph = GnpBuilder::new(1_200, 0.4).seed(Seed::new(11)).build();
    println!(
        "overlay: {} nodes, {} links, max degree {}",
        graph.vertex_count(),
        graph.edge_count(),
        graph.max_degree()
    );

    let shared_seed = Seed::new(0xCAFE); // broadcast once to all nodes
    let oracle = CountingOracle::new(&graph);
    let lca = ThreeSpanner::with_defaults(&oracle, shared_seed);

    // Node 0 decides which of its links to keep — purely locally.
    let node = VertexId::new(0);
    let mut kept_links = 0usize;
    for &peer in graph.neighbors(node) {
        kept_links += usize::from(lca.contains(node, peer)?);
    }
    println!(
        "node {node}: keeps {kept_links}/{} links, deciding with {} probes total",
        graph.degree(node),
        oracle.counts().total()
    );

    // Sanity-check the *global* picture those local decisions induce
    // (possible here because the demo graph fits in memory). The stretch
    // check samples dropped links; the property tests in `tests/` verify it
    // exhaustively on smaller graphs.
    let spanner = QueryEngine::serial().materialize(&graph, &lca)?;
    let omitted: Vec<_> = graph
        .edges()
        .filter(|&(u, v)| !spanner.has_edge(u, v))
        .collect();
    let mut rng = SplitMix64::new(7);
    let mut worst = 0u32;
    for _ in 0..2_000.min(omitted.len()) {
        let (u, v) = omitted[rng.next_below(omitted.len() as u64) as usize];
        let detour = spanner
            .distance_within(u, v, 3)
            .expect("a 3-spanner must offer a ≤3-hop detour");
        worst = worst.max(detour);
    }
    println!(
        "global view: kept {}/{} links ({:.0}%), worst sampled detour = {worst} (bound 3)",
        spanner.edge_count(),
        graph.edge_count(),
        100.0 * spanner.edge_count() as f64 / graph.edge_count() as f64,
    );
    assert!(worst <= 3);
    assert!(
        spanner.edge_count() * 2 < graph.edge_count(),
        "the spanner should drop most links in this regime"
    );
    Ok(())
}
