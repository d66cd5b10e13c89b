//! H_sparse: local simulation of Baswana–Sen on the sparse-region subgraph
//! (paper Section 4.2).
//!
//! `E_sparse` consists of edges with at least one sparse endpoint. Whether
//! `(u, v) ∈ H_sparse` is decided entirely by the decisions of `u` and `v`
//! in the k-round simulation, and each endpoint's decisions depend only on
//! its radius-k ball in `G_sparse` — so the LCA gathers the union of the two
//! balls (Õ(∆²L²) probes, Lemma 4.5) and replays the simulation on it.

use std::collections::VecDeque;

use lca_graph::VertexId;
use lca_probe::{Oracle, VertexSet};

use super::baswana_sen::{simulate, BsParams, LocalGraph};
use super::{Ctx, K2Spanner};

/// Whether the sparse-side edge `(u, v)` is kept by H_sparse.
pub(crate) fn sparse_contains<O: Oracle>(
    lca: &K2Spanner<O>,
    ctx: &Ctx<'_>,
    u: VertexId,
    v: VertexId,
) -> bool {
    let ball = gather_balls(lca, ctx, &[u, v]);
    let kept = simulate(
        &ball,
        BsParams {
            k: lca.params().k,
            sample_prob: lca.params().bs_sample_prob,
            independence: lca.params().independence,
        },
        lca.bs_seed(),
    );
    let key = if u.raw() < v.raw() {
        (u.raw(), v.raw())
    } else {
        (v.raw(), u.raw())
    };
    kept.contains(&key)
}

/// Whether the edge `(x, w)` belongs to `G_sparse` (≥ 1 sparse endpoint).
fn edge_in_sparse<O: Oracle>(lca: &K2Spanner<O>, ctx: &Ctx<'_>, x: VertexId, w: VertexId) -> bool {
    lca.status(ctx, x).is_sparse() || lca.status(ctx, w).is_sparse()
}

/// Gathers the union of radius-k balls around the sources in `G_sparse`,
/// building a [`LocalGraph`] whose per-vertex adjacency preserves the
/// original list order (filtered to sparse edges within the ball).
fn gather_balls<O: Oracle>(lca: &K2Spanner<O>, ctx: &Ctx<'_>, sources: &[VertexId]) -> LocalGraph {
    let o = lca.o(ctx);
    let k = lca.params().k;
    // BFS in G_sparse from all sources at once over one discovered set;
    // each vertex is queued with its distance to the nearest source, and
    // the search stops at radius k (the union ball is what matters).
    let mut seen: VertexSet<u32> = VertexSet::default();
    let mut queue: VecDeque<(VertexId, usize)> = VecDeque::new();
    for &s in sources {
        seen.insert(s.raw());
        queue.push_back((s, 0));
    }
    let mut members: Vec<VertexId> = sources.to_vec();
    while let Some((x, dx)) = queue.pop_front() {
        if dx >= k {
            continue;
        }
        ctx.with_nbrs(|nbrs| {
            o.neighbors_into(x, nbrs);
            for &w in nbrs.iter() {
                if !edge_in_sparse(lca, ctx, x, w) {
                    continue;
                }
                if seen.insert(w.raw()) {
                    members.push(w);
                    queue.push_back((w, dx + 1));
                }
            }
        });
    }
    // Deterministic vertex numbering: sort by raw index.
    members.sort_by_key(|v| v.raw());
    members.dedup();
    let mut lg = LocalGraph::new();
    for &m in &members {
        lg.add_vertex(m, o.label(m));
    }
    for &m in &members {
        ctx.with_nbrs(|nbrs| {
            o.neighbors_into(m, nbrs);
            for &w in nbrs.iter() {
                if lg.contains(w) && edge_in_sparse(lca, ctx, m, w) {
                    lg.push_neighbor(m, w);
                }
            }
        });
    }
    lg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeSubgraphLca, K2Params, K2Spanner};
    use lca_graph::gen::structured;
    use lca_graph::Subgraph;
    use lca_rand::Seed;

    /// With center probability 0 every vertex is sparse and the whole graph
    /// is handled by the BS simulation.
    fn all_sparse_params(n: usize, k: usize) -> K2Params {
        let mut p = K2Params::for_n(n, k);
        p.center_prob = 0.0;
        p
    }

    #[test]
    fn all_sparse_mode_yields_a_2k_minus_1_spanner() {
        for k in [2usize, 3] {
            let g = lca_graph::gen::GnpBuilder::new(50, 0.25)
                .seed(Seed::new(1))
                .build();
            let lca = K2Spanner::new(&g, all_sparse_params(50, k), Seed::new(2));
            let h =
                Subgraph::from_edges(&g, g.edges().filter(|&(u, v)| lca.contains(u, v).unwrap()));
            let stretch = h.max_edge_stretch(&g, (2 * k) as u32);
            assert!(
                matches!(stretch, Some(s) if (s as usize) < 2 * k),
                "k={k}: stretch {stretch:?}"
            );
        }
    }

    #[test]
    fn local_ball_matches_global_simulation() {
        // The crux of Lemma 4.5: simulating on the union of radius-k balls
        // gives the same per-edge answers as simulating on all of G_sparse.
        let g = lca_graph::gen::GnpBuilder::new(60, 0.08)
            .seed(Seed::new(4))
            .build();
        let k = 3;
        let params = all_sparse_params(60, k);
        let lca = K2Spanner::new(&g, params.clone(), Seed::new(5));
        // Global: simulate on the whole graph.
        let mut lg = LocalGraph::new();
        for v in g.vertices() {
            lg.add_vertex(v, g.label(v));
        }
        for v in g.vertices() {
            for &w in g.neighbors(v) {
                lg.push_neighbor(v, w);
            }
        }
        let global = simulate(
            &lg,
            BsParams {
                k,
                sample_prob: params.bs_sample_prob,
                independence: params.independence,
            },
            lca.bs_seed(),
        );
        for (u, v) in g.edges() {
            let local = lca.contains(u, v).unwrap();
            let key = if u.raw() < v.raw() {
                (u.raw(), v.raw())
            } else {
                (v.raw(), u.raw())
            };
            assert_eq!(
                local,
                global.contains(&key),
                "ball simulation disagrees with global on {u}-{v}"
            );
        }
    }

    #[test]
    fn ball_gathering_respects_sparse_filter() {
        // Mixed graph: a dense core (center planted by high center prob on a
        // clique) and a sparse tail.
        let g = structured::dumbbell(6, 8);
        let mut p = K2Params::for_n(g.vertex_count(), 2);
        p.center_prob = 0.35;
        let lca = K2Spanner::new(&g, p, Seed::new(8));
        let ctx = Ctx::default();
        // All queried edges must resolve without panicking and stay
        // symmetric.
        for (u, v) in g.edges() {
            if lca.status(&ctx, u).is_sparse() || lca.status(&ctx, v).is_sparse() {
                assert_eq!(
                    sparse_contains(&lca, &ctx, u, v),
                    sparse_contains(&lca, &ctx, v, u)
                );
            }
        }
    }
}
