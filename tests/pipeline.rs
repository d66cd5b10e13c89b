//! End-to-end pipelines across crates: generator → oracle → LCA → harness →
//! verifier, plus sublinearity sanity and classic-LCA integration.

use lca::core::verify::verify_spanner;
use lca::core::{measure_queries, FiveSpanner, ThreeSpanner};
use lca::prelude::*;
use lca::probe::MemoOracle;

#[test]
fn full_pipeline_three_spanner() {
    let graph = GnpBuilder::new(400, 0.15).seed(Seed::new(1)).build();
    let counter = CountingOracle::new(&graph);
    let lca = ThreeSpanner::with_defaults(&counter, Seed::new(2));
    let run = measure_queries(&graph, &counter, &lca).unwrap();
    let verdict = verify_spanner(&graph, &run.kept, 3);
    assert!(verdict.holds(), "verdict {verdict:?}");
    assert!(run.per_query_max > 0);
    // Sublinearity sanity: the worst query must read far less than the
    // graph (m edges ⇒ 2m adjacency-list entries).
    assert!(
        (run.per_query_max as usize) < graph.edge_count() / 2,
        "per-query probes {} vs m {}",
        run.per_query_max,
        graph.edge_count()
    );
}

#[test]
fn full_pipeline_five_spanner() {
    let graph = GnpBuilder::new(300, 0.2).seed(Seed::new(3)).build();
    let counter = CountingOracle::new(&graph);
    let lca = FiveSpanner::with_defaults(&counter, Seed::new(4));
    let run = measure_queries(&graph, &counter, &lca).unwrap();
    let verdict = verify_spanner(&graph, &run.kept, 5);
    assert!(verdict.holds(), "verdict {verdict:?}");
    // The spanner must actually sparsify a dense input (the asymptotic
    // 5-vs-3 size ordering only kicks in at much larger n; see table1).
    assert!(
        run.kept.edge_count() < graph.edge_count(),
        "nothing was dropped: {}/{}",
        run.kept.edge_count(),
        graph.edge_count()
    );
}

#[test]
fn k2_pipeline_on_mesh() {
    use lca::core::K2Spanner;
    let graph = RegularBuilder::new(300, 4)
        .seed(Seed::new(5))
        .build()
        .unwrap();
    let counter = CountingOracle::new(&graph);
    let lca = K2Spanner::with_defaults(&counter, 2, Seed::new(6));
    let run = measure_queries(&graph, &counter, &lca).unwrap();
    let verdict = verify_spanner(&graph, &run.kept, lca.stretch_bound());
    assert!(verdict.holds(), "verdict {verdict:?}");
}

#[test]
fn distinct_probe_accounting_is_never_larger_than_raw() {
    let graph = GnpBuilder::new(150, 0.2).seed(Seed::new(7)).build();
    let counter = CountingOracle::new(&graph);
    let memo = MemoOracle::new(&counter);
    let lca = ThreeSpanner::with_defaults(&memo, Seed::new(8));
    let mut checked = 0;
    for (u, v) in graph.edges().take(30) {
        memo.clear();
        let before = counter.counts().total();
        lca.contains(u, v).unwrap();
        let raw = counter.counts().total() - before;
        let distinct = memo.distinct_probes() as u64;
        assert!(distinct <= raw, "distinct {distinct} > raw {raw}");
        checked += 1;
    }
    assert_eq!(checked, 30);
}

#[test]
fn spanner_lcas_compose_with_classic_lcas() {
    // Sparsify first, then schedule on the spanner — a realistic composed
    // pipeline exercising lca-core + lca-classic + lca-graph together.
    let graph = GnpBuilder::new(200, 0.1).seed(Seed::new(9)).build();
    let lca = ThreeSpanner::with_defaults(&graph, Seed::new(10));
    let spanner = QueryEngine::serial().materialize(&graph, &lca).unwrap();
    // Rebuild the spanner as a first-class Graph to feed the MIS LCA.
    let mut b = lca::graph::GraphBuilder::new(graph.vertex_count());
    for (u, v) in spanner.edges() {
        b = b.edge(u.index(), v.index());
    }
    let sub = b.build().unwrap();
    let mis = lca::classic::MisLca::new(&sub, Seed::new(11));
    let members = sub.vertices().filter(|&v| mis.contains(v)).count();
    assert!(members > 0);
}

#[test]
fn any_valid_spanner_keeps_bridges() {
    // On a D⁻ lower-bound instance the designated edge is a bridge: every
    // finite-stretch spanner must keep it.
    let inst = lca::lowerbound::sample_dminus(102, 3, Seed::new(12)).unwrap();
    let lca3 = ThreeSpanner::with_defaults(&inst.graph, Seed::new(13));
    assert!(lca3.contains(inst.x, inst.y).unwrap());
    let lca5 = FiveSpanner::with_defaults(&inst.graph, Seed::new(14));
    assert!(lca5.contains(inst.x, inst.y).unwrap());
    use lca::core::K2Spanner;
    let lcak = K2Spanner::with_defaults(&inst.graph, 2, Seed::new(15));
    assert!(lcak.contains(inst.x, inst.y).unwrap());
}

#[test]
fn dumbbell_bridge_is_kept_by_all_spanners() {
    // Same invariant on a deterministic topology.
    let g = lca::graph::gen::structured::dumbbell(30, 0);
    // The bridge is the unique edge between the cliques.
    let bridge = g
        .edges()
        .find(|&(u, v)| u.index() < 30 && v.index() >= 30)
        .unwrap();
    let lca3 = ThreeSpanner::with_defaults(&g, Seed::new(16));
    assert!(lca3.contains(bridge.0, bridge.1).unwrap());
    let lca5 = FiveSpanner::with_defaults(&g, Seed::new(17));
    assert!(lca5.contains(bridge.0, bridge.1).unwrap());
}
