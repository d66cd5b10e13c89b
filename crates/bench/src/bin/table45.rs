//! Regenerates **Tables 4 and 5** (probe complexity of the O(k²)-spanner
//! subroutines): measured probes for each subroutine of the H_sparse and
//! H_dense pipelines, next to the paper's bounds.
//!
//! Run: `cargo run --release -p lca-bench --bin table45`

// This binary's product is its stdout; the workspace print ban
// applies to library code, not report/CLI entry points.
#![allow(clippy::print_stdout)]
use lca_bench::{record_json, Table};
use lca_core::{meter, EdgeSubgraphLca, K2Params, K2Spanner, Metered};
use lca_graph::gen::RegularBuilder;
use lca_graph::VertexId;
use lca_probe::CountingOracle;
use lca_rand::{Seed, SplitMix64};

#[derive(serde::Serialize)]
struct Row {
    table: &'static str,
    subroutine: String,
    bound: String,
    probe_mean: f64,
    probe_max: u64,
    samples: usize,
}

fn main() {
    let n = 1200usize;
    let d = 4usize;
    let k = 2usize;
    let seed = Seed::new(0x7AB45);
    let g = RegularBuilder::new(n, d)
        .seed(seed.derive(1))
        .build()
        .expect("regular graph");
    let counter = CountingOracle::new(&g);
    // Demo-scale center constant (see K2Params::with_center_constant docs).
    let params = K2Params::with_center_constant(n, k, 3.0);
    let lca = K2Spanner::new(&counter, params.clone(), seed);
    let mut rng = SplitMix64::new(seed.derive(2).value());
    let rand_v = |rng: &mut SplitMix64| VertexId::new(rng.next_below(n as u64) as usize);
    let samples = 150usize;

    let mut table = Table::new(["table", "subroutine", "paper bound", "mean", "max"]);
    let mut emit = |t: &'static str, name: &str, bound: &str, run: Metered<()>| {
        let (mean, max) = (run.per_query_mean(), run.per_query_max());
        table.row([
            t.to_string(),
            name.to_string(),
            bound.to_string(),
            format!("{mean:.1}"),
            max.to_string(),
        ]);
        record_json(
            "table45",
            &Row {
                table: t,
                subroutine: name.into(),
                bound: bound.into(),
                probe_mean: mean,
                probe_max: max,
                samples,
            },
        );
    };

    // ---- Table 4: H_sparse subroutines. -----------------------------------
    let run = meter(&counter, 0..samples, |_| {
        // Center membership is probe-free by construction.
        let v = rand_v(&mut rng);
        let _ = lca.is_center_label(g.label(v));
    });
    emit("T4", "is v a center?", "0 probes", run);

    let run = meter(&counter, 0..samples, |_| {
        let v = rand_v(&mut rng);
        let _ = lca.vertex_status(v);
    });
    emit("T4", "D^k_L / sparse-vs-dense test", "O(ΔL)", run);

    // Full sparse-edge test: query edges with a sparse endpoint.
    let sparse_edges: Vec<(VertexId, VertexId)> = g
        .edges()
        .filter(|&(u, v)| lca.vertex_status(u).is_sparse() || lca.vertex_status(v).is_sparse())
        .take(samples)
        .collect();
    if !sparse_edges.is_empty() {
        let run = meter(&counter, sparse_edges, |(u, v)| {
            let _ = lca.contains(u, v);
        });
        emit("T4", "(u,v) ∈ H_sparse?", "O(Δ²L²)", run);
    }

    // ---- Table 5: H_dense subroutines. ------------------------------------
    let dense_vertices: Vec<VertexId> = g
        .vertices()
        .filter(|&v| !lca.vertex_status(v).is_sparse())
        .collect();
    if dense_vertices.is_empty() {
        table.print("Tables 4 & 5 — O(k²) subroutine probe complexities");
        println!("(no dense vertices at these parameters; H_dense rows skipped)");
        return;
    }
    let pick_dense =
        |rng: &mut SplitMix64| dense_vertices[rng.next_below(dense_vertices.len() as u64) as usize];

    let run = meter(&counter, 0..samples, |_| {
        let v = pick_dense(&mut rng);
        let _ = lca.tree_parent(v);
    });
    emit("T5", "c(v) and π(v,c(v))", "O(ΔL)", run);

    let run = meter(&counter, 0..samples, |_| {
        let v = pick_dense(&mut rng);
        let w = g.neighbors(v)[0];
        let _ = lca.is_tree_edge(v, w);
    });
    emit("T5", "(u,v) ∈ H^(I)?", "O(ΔL)", run);

    let run = meter(&counter, 0..samples, |_| {
        let v = pick_dense(&mut rng);
        let _ = lca.cluster_members_of(v);
    });
    emit("T5", "entire cluster of v", "O(Δ³L²)", run);

    let run = meter(&counter, 0..samples, |_| {
        let v = pick_dense(&mut rng);
        let _ = lca.boundary_centers_of(v);
    });
    emit("T5", "c(∂A)", "O(Δ²L²)", run);

    // Full dense test on dense–dense edges.
    let dense_edges: Vec<(VertexId, VertexId)> = g
        .edges()
        .filter(|&(u, v)| !lca.vertex_status(u).is_sparse() && !lca.vertex_status(v).is_sparse())
        .take(samples)
        .collect();
    if !dense_edges.is_empty() {
        let run = meter(&counter, dense_edges, |(u, v)| {
            let _ = lca.contains(u, v);
        });
        emit("T5", "(u,v) ∈ H_dense?", "O(pΔ⁴L³ log n)", run);
    }

    table.print(&format!(
        "Tables 4 & 5 — O(k²) subroutine probe complexities (n={n}, d={d}, k={k}, L={})",
        params.l
    ));
}
