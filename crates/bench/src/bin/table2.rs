//! Regenerates **Table 2** (5-spanner edge categorization): per edge class
//! — E_low, E_bckt, E_rep, E_super — the number of edges in the class and
//! the measured per-query probe cost, next to the paper's bounds.
//!
//! Run: `cargo run --release -p lca-bench --bin table2`

use std::collections::HashMap;

use lca_bench::{record_json, sample_edges, ProbeStats, Table};
use lca_core::{meter, EdgeClass, EdgeSubgraphLca, FiveSpanner, FiveSpannerParams};
use lca_graph::gen::{ChungLuBuilder, GnpBuilder};
use lca_graph::Graph;
use lca_probe::CountingOracle;
use lca_rand::Seed;

#[derive(serde::Serialize)]
struct Row {
    workload: String,
    n: usize,
    class: String,
    edges_in_class: usize,
    class_fraction: f64,
    probe_mean: f64,
    probe_max: u64,
    bound: String,
}

fn run(name: &str, graph: &Graph, table: &mut Table) {
    let n = graph.vertex_count();
    let seed = Seed::new(0xBEEF);
    let params = FiveSpannerParams::for_n(n);
    let counter = CountingOracle::new(graph);
    let lca = FiveSpanner::new(&counter, params, seed);

    // Classify every edge (cheap), measure probes on a per-class sample.
    let mut class_count: HashMap<EdgeClass, usize> = HashMap::new();
    for (u, v) in graph.edges() {
        *class_count.entry(lca.classify_edge(u, v)).or_default() += 1;
    }
    let sample = sample_edges(graph, 600, seed.derive(1));
    let run = meter(&counter, sample.iter().copied(), |(u, v)| {
        lca.contains(u, v).expect("edge")
    });
    let mut probes: HashMap<EdgeClass, Vec<u64>> = HashMap::new();
    for (&(u, v), &cost) in sample.iter().zip(&run.costs) {
        probes
            .entry(lca.classify_edge(u, v))
            .or_default()
            .push(cost);
    }

    let bound = |c: EdgeClass| match c {
        EdgeClass::Low => "O(1) probes, O(n^{1+1/r}) edges",
        EdgeClass::Bucket => "O((Δs+Δm²)log²n) probes",
        EdgeClass::Representative => "O(Δs log³n) probes",
        EdgeClass::Super => "O(Δs log n) probes",
        EdgeClass::Gap => "(outside paper regime)",
    };
    for class in [
        EdgeClass::Low,
        EdgeClass::Bucket,
        EdgeClass::Representative,
        EdgeClass::Super,
        EdgeClass::Gap,
    ] {
        let count = class_count.get(&class).copied().unwrap_or(0);
        if count == 0 && matches!(class, EdgeClass::Gap) {
            continue;
        }
        let stats = ProbeStats::of(probes.get(&class).map_or(&[], Vec::as_slice));
        let row = Row {
            workload: name.into(),
            n,
            class: class.to_string(),
            edges_in_class: count,
            class_fraction: count as f64 / graph.edge_count().max(1) as f64,
            probe_mean: stats.mean,
            probe_max: stats.max,
            bound: bound(class).into(),
        };
        table.row([
            row.workload.clone(),
            row.n.to_string(),
            row.class.clone(),
            row.edges_in_class.to_string(),
            format!("{:.3}", row.class_fraction),
            format!("{:.1}", row.probe_mean),
            row.probe_max.to_string(),
            row.bound.clone(),
        ]);
        record_json("table2", &row);
    }
}

/// A hub-dominated workload that populates E_rep: `hubs` super-high vertices
/// adjacent to every spoke, plus sparse spoke–spoke cross-links. Spokes are
/// mid-degree and *crowded* (their neighborhoods are mostly hubs), so the
/// cross-links land in E(V_mid, V_crwd) = E_rep.
fn hubs_and_crosslinks(hubs: usize, spokes: usize, crosslink_p: f64, seed: Seed) -> Graph {
    let n = hubs + spokes;
    let mut b = lca_graph::GraphBuilder::new(n);
    for h in 0..hubs {
        for s in 0..spokes {
            b = b.edge(h, hubs + s);
        }
    }
    let mut rng = lca_rand::SplitMix64::new(seed.value());
    for a in 0..spokes {
        for c in (a + 1)..spokes {
            if rng.next_f64() < crosslink_p {
                b = b.edge(hubs + a, hubs + c);
            }
        }
    }
    b.shuffle_adjacency(seed.derive(1))
        .build()
        .expect("hub graph is simple")
}

fn main() {
    let mut table = Table::new([
        "workload",
        "n",
        "class",
        "#edges",
        "fraction",
        "probes mean",
        "probes max",
        "paper bound",
    ]);
    let dense = GnpBuilder::new(1024, 0.25).seed(Seed::new(1)).build();
    run("G(1024,0.25)", &dense, &mut table);
    let pl = ChungLuBuilder::power_law(4000, 2.3, 12.0)
        .seed(Seed::new(2))
        .build();
    run("power-law β=2.3", &pl, &mut table);
    let hubs = hubs_and_crosslinks(60, 2500, 0.012, Seed::new(3));
    run("hubs+crosslinks", &hubs, &mut table);
    table.print("Table 2 — 5-spanner edge categorization (Δs = Δ_super, Δm = Δ_med)");
}
