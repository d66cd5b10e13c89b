//! Regenerates **Table 3** (O(k²)-spanner edge categorization): E_sparse vs
//! E_dense sizes, the decomposition of the spanner into H_sparse, H^(I) and
//! H^(B), and per-category probe costs.
//!
//! Run: `cargo run --release -p lca-bench --bin table3`

use lca_bench::{record_json, sample_edges, ProbeStats, Table};
use lca_core::global::{k2_partition, k2_spanner_global};
use lca_core::{meter, EdgeSubgraphLca, K2Params, K2Spanner};
use lca_graph::gen::RegularBuilder;
use lca_probe::CountingOracle;
use lca_rand::Seed;

#[derive(serde::Serialize)]
struct Row {
    n: usize,
    degree: usize,
    k: usize,
    sparse_vertices: usize,
    cells: usize,
    e_sparse: usize,
    e_dense: usize,
    h_sparse: usize,
    h_tree: usize,
    h_between: usize,
    probe_mean_sparse: f64,
    probe_mean_dense: f64,
    probe_max: u64,
}

fn main() {
    let mut table = Table::new([
        "n",
        "d",
        "k",
        "#sparse",
        "#cells",
        "|E_sp|",
        "|E_dn|",
        "|H_sp|",
        "|H^I|",
        "|H^B|",
        "probes sp",
        "probes dn",
        "probes max",
    ]);
    let seed = Seed::new(0xC0DE);
    for &(n, d, k) in &[
        (800usize, 4usize, 2usize),
        (800, 4, 3),
        (1500, 4, 2),
        (800, 6, 2),
    ] {
        let g = RegularBuilder::new(n, d)
            .seed(seed.derive((n + d + k) as u64))
            .build()
            .expect("regular graph");
        // Demo-scale center constant: the paper's Θ(log n)/L saturates to 1
        // at these n (see K2Params::with_center_constant docs).
        let params = K2Params::with_center_constant(n, k, 3.0);
        let part = k2_partition(&g, &params, seed);
        let h = k2_spanner_global(&g, &params, seed);

        let is_sparse = |v: lca_graph::VertexId| part.cell[v.index()].is_none();
        let mut e_sparse = 0usize;
        let mut e_dense = 0usize;
        for (u, v) in g.edges() {
            if is_sparse(u) || is_sparse(v) {
                e_sparse += 1;
            } else {
                e_dense += 1;
            }
        }
        // Decompose H.
        let tree: std::collections::HashSet<(u32, u32)> = g
            .vertices()
            .filter_map(|v| {
                part.parent[v.index()].map(|p| {
                    let (a, b) = (v.raw(), p.raw());
                    if a < b {
                        (a, b)
                    } else {
                        (b, a)
                    }
                })
            })
            .collect();
        let mut h_sparse = 0usize;
        let mut h_tree = 0usize;
        let mut h_between = 0usize;
        for &(a, b) in &h {
            let (u, v) = (lca_graph::VertexId::from(a), lca_graph::VertexId::from(b));
            if is_sparse(u) || is_sparse(v) {
                h_sparse += 1;
            } else if tree.contains(&(a, b)) {
                h_tree += 1;
            } else {
                h_between += 1;
            }
        }

        // Probe costs split by query category.
        let counter = CountingOracle::new(&g);
        let lca = K2Spanner::new(&counter, params, seed);
        let sample = sample_edges(&g, 150, seed.derive(1));
        let run = meter(&counter, sample.iter().copied(), |(u, v)| {
            lca.contains(u, v).expect("edge")
        });
        let (mut sparse_costs, mut dense_costs) = (Vec::new(), Vec::new());
        for (&(u, v), &cost) in sample.iter().zip(&run.costs) {
            if is_sparse(u) || is_sparse(v) {
                sparse_costs.push(cost);
            } else {
                dense_costs.push(cost);
            }
        }
        let row = Row {
            n,
            degree: d,
            k,
            sparse_vertices: part.sparse_count(),
            cells: part.cell_count(),
            e_sparse,
            e_dense,
            h_sparse,
            h_tree,
            h_between,
            probe_mean_sparse: ProbeStats::of(&sparse_costs).mean,
            probe_mean_dense: ProbeStats::of(&dense_costs).mean,
            probe_max: run.per_query_max(),
        };
        table.row([
            row.n.to_string(),
            row.degree.to_string(),
            row.k.to_string(),
            row.sparse_vertices.to_string(),
            row.cells.to_string(),
            row.e_sparse.to_string(),
            row.e_dense.to_string(),
            row.h_sparse.to_string(),
            row.h_tree.to_string(),
            row.h_between.to_string(),
            format!("{:.1}", row.probe_mean_sparse),
            format!("{:.1}", row.probe_mean_dense),
            row.probe_max.to_string(),
        ]);
        record_json("table3", &row);
    }
    table
        .print("Table 3 — O(k²)-spanner categorization: E_sparse/E_dense and H_sparse/H^(I)/H^(B)");
}
