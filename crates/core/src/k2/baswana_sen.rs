//! A k-round Baswana–Sen simulation on an explicit (sub)graph.
//!
//! The O(k²)-spanner handles sparse-region edges by locally simulating a
//! k-round distributed (2k−1)-spanner algorithm (Theorem 4.4, Baswana–Sen
//! with O(log n)-wise independence per Censor-Hillel–Parter–Schwartzman).
//! This module implements the simulation over a [`LocalGraph`] — either the
//! whole of `G_sparse` (global reference) or the radius-k probe ball around
//! a query (LCA path); determinism of every tie-break makes the two agree.
//!
//! Unweighted Baswana–Sen, with adjacency positions as the weight proxy:
//!
//! * `k−1` rounds of cluster refinement. Clusters are identified by their
//!   original center; cluster `c` survives round `i` iff an Θ(log n)-wise
//!   independent coin on `(i, label(c))` is heads (probability `n^{−1/k}`).
//! * A vertex in an unsampled cluster scans its active incident edges in
//!   list order, grouping neighbor clusters by first occurrence. With no
//!   sampled neighbor cluster it keeps one edge per neighboring cluster and
//!   retires; otherwise it joins the first sampled cluster, keeps the join
//!   edge plus one edge to every cluster first-seen *earlier*, and discards
//!   the edges it just resolved.
//! * Phase 2 keeps one edge from every surviving vertex to each adjacent
//!   cluster.
//!
//! The resulting subgraph is a (2k−1)-spanner of the simulated graph, and
//! every kept edge is kept *by one of its endpoints* — the property that
//! makes two-ball local simulation sufficient (Lemma 4.5).

use lca_graph::VertexId;
use lca_probe::{VertexMap, VertexSet};
use lca_rand::{Coin, Seed};

/// An explicit graph fragment with stable vertex identities, labels and
/// *original* adjacency order — the simulation substrate.
#[derive(Debug, Clone)]
pub struct LocalGraph {
    ids: Vec<VertexId>,
    labels: Vec<u64>,
    index: VertexMap<u32, usize>,
    adj: Vec<Vec<usize>>,
}

impl LocalGraph {
    /// Creates an empty fragment.
    pub fn new() -> Self {
        Self {
            ids: Vec::new(),
            labels: Vec::new(),
            index: VertexMap::default(),
            adj: Vec::new(),
        }
    }

    /// Adds a vertex (idempotent); returns its local index.
    pub fn add_vertex(&mut self, v: VertexId, label: u64) -> usize {
        if let Some(&i) = self.index.get(&v.raw()) {
            return i;
        }
        let i = self.ids.len();
        self.ids.push(v);
        self.labels.push(label);
        self.index.insert(v.raw(), i);
        self.adj.push(Vec::new());
        i
    }

    /// Appends `w` to `v`'s local adjacency list. Both must already be
    /// vertices; callers must append in the original adjacency order of `v`.
    ///
    /// # Panics
    ///
    /// Panics if either vertex is unknown.
    pub fn push_neighbor(&mut self, v: VertexId, w: VertexId) {
        let iv = self.index[&v.raw()];
        let iw = self.index[&w.raw()];
        self.adj[iv].push(iw);
    }

    /// Whether `v` is present.
    pub fn contains(&self, v: VertexId) -> bool {
        self.index.contains_key(&v.raw())
    }

    /// Number of vertices in the fragment.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the fragment is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

impl Default for LocalGraph {
    fn default() -> Self {
        Self::new()
    }
}

/// Parameters of the Baswana–Sen simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BsParams {
    /// The stretch parameter `k` (the algorithm runs `k−1` rounds plus
    /// phase 2, producing a (2k−1)-spanner).
    pub k: usize,
    /// Per-round cluster survival probability (paper: `n^{−1/k}` with the
    /// *global* n).
    pub sample_prob: f64,
    /// Independence of the per-round sampling hashes.
    pub independence: usize,
}

/// Runs the simulation and returns the kept edges, normalized on global
/// vertex ids.
pub fn simulate(graph: &LocalGraph, params: BsParams, seed: Seed) -> VertexSet<(u32, u32)> {
    let n = graph.len();
    let mut added: VertexSet<(u32, u32)> = VertexSet::default();
    if n == 0 {
        return added;
    }
    let key = |a: usize, b: usize| {
        let (x, y) = (graph.ids[a].raw(), graph.ids[b].raw());
        if x < y {
            (x, y)
        } else {
            (y, x)
        }
    };
    // cluster[v] = Some(local index of the cluster center), None = retired.
    let mut cluster: Vec<Option<usize>> = (0..n).map(Some).collect();
    // Active edges (normalized local pairs).
    let mut active: VertexSet<(usize, usize)> = VertexSet::default();
    let norm = |a: usize, b: usize| if a < b { (a, b) } else { (b, a) };
    for (v, nbrs) in graph.adj.iter().enumerate() {
        for &w in nbrs {
            if v != w {
                active.insert(norm(v, w));
            }
        }
    }

    // Per-vertex scratch sets, cleared rather than rebuilt per vertex.
    let mut seen: VertexSet<usize> = VertexSet::default();
    let mut resolved: VertexSet<usize> = VertexSet::default();
    let mut firsts: Vec<(usize, usize)> = Vec::new(); // (center, nbr)
    let rounds = params.k.saturating_sub(1);
    for round in 1..=rounds {
        let coin = Coin::new(
            seed.derive2(0xB5_0000, round as u64),
            params.sample_prob,
            params.independence,
        );
        let sampled = |c: usize| coin.flip(graph.labels[c]);
        let mut next: Vec<Option<usize>> = vec![None; n];
        let mut removals: Vec<(usize, usize)> = Vec::new();
        for v in 0..n {
            let Some(cv) = cluster[v] else {
                continue;
            };
            if sampled(cv) {
                next[v] = Some(cv);
                continue;
            }
            // First occurrence of each distinct active neighbor cluster, in
            // adjacency order.
            seen.clear();
            firsts.clear();
            for &w in &graph.adj[v] {
                if !active.contains(&norm(v, w)) {
                    continue;
                }
                let Some(cw) = cluster[w] else {
                    continue;
                };
                if cw == cv {
                    continue;
                }
                if seen.insert(cw) {
                    firsts.push((cw, w));
                }
            }
            let join = firsts.iter().position(|&(c, _)| sampled(c));
            match join {
                None => {
                    // Retire: keep one edge per neighboring cluster, drop all
                    // incident edges.
                    for &(_, w) in &firsts {
                        added.insert(key(v, w));
                    }
                    for &w in &graph.adj[v] {
                        removals.push(norm(v, w));
                    }
                    next[v] = None;
                }
                Some(pos) => {
                    let (cstar, wstar) = firsts[pos];
                    added.insert(key(v, wstar));
                    next[v] = Some(cstar);
                    // One edge per cluster first-seen before the joined one;
                    // those edges (and edges into the joined cluster) are
                    // resolved now.
                    resolved.clear();
                    resolved.extend(firsts[..pos].iter().map(|&(c, _)| c));
                    resolved.insert(cstar);
                    for &(_, w) in &firsts[..pos] {
                        added.insert(key(v, w));
                    }
                    for &w in &graph.adj[v] {
                        if let Some(cw) = cluster[w] {
                            if resolved.contains(&cw) {
                                removals.push(norm(v, w));
                            }
                        }
                    }
                }
            }
        }
        for e in removals {
            active.remove(&e);
        }
        cluster = next;
        // Drop retired endpoints and (new) intra-cluster edges.
        active.retain(|&(a, b)| match (cluster[a], cluster[b]) {
            (Some(ca), Some(cb)) => ca != cb,
            _ => false,
        });
    }

    // Phase 2: one edge per adjacent cluster.
    for v in 0..n {
        let Some(cv) = cluster[v] else {
            continue;
        };
        seen.clear();
        for &w in &graph.adj[v] {
            if !active.contains(&norm(v, w)) {
                continue;
            }
            let Some(cw) = cluster[w] else {
                continue;
            };
            if cw != cv && seen.insert(cw) {
                added.insert(key(v, w));
            }
        }
    }

    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use lca_graph::Graph;

    /// Wraps a whole [`Graph`] as a [`LocalGraph`].
    pub(crate) fn from_graph(g: &Graph) -> LocalGraph {
        let mut lg = LocalGraph::new();
        for v in g.vertices() {
            lg.add_vertex(v, g.label(v));
        }
        for v in g.vertices() {
            for &w in g.neighbors(v) {
                lg.push_neighbor(v, w);
            }
        }
        lg
    }

    fn stretch_ok(g: &Graph, kept: &VertexSet<(u32, u32)>, bound: u32) -> bool {
        let sub = lca_graph::Subgraph::from_edges(
            g,
            kept.iter()
                .map(|&(a, b)| (VertexId::from(a), VertexId::from(b))),
        );
        matches!(sub.max_edge_stretch(g, bound + 1), Some(s) if s <= bound)
    }

    #[test]
    fn k1_keeps_every_edge() {
        let g = lca_graph::gen::structured::complete(8);
        let kept = simulate(
            &from_graph(&g),
            BsParams {
                k: 1,
                sample_prob: 0.5,
                independence: 8,
            },
            Seed::new(1),
        );
        assert_eq!(kept.len(), g.edge_count());
    }

    #[test]
    fn produces_2k_minus_1_spanner() {
        for k in [2usize, 3, 4] {
            for s in 0..4u64 {
                let g = lca_graph::gen::GnpBuilder::new(60, 0.25)
                    .seed(lca_rand::Seed::new(s))
                    .build();
                let p = BsParams {
                    k,
                    sample_prob: (60f64).powf(-1.0 / k as f64),
                    independence: 12,
                };
                let kept = simulate(&from_graph(&g), p, Seed::new(100 + s));
                assert!(
                    stretch_ok(&g, &kept, (2 * k - 1) as u32),
                    "k={k} seed={s}: stretch exceeded {}",
                    2 * k - 1
                );
            }
        }
    }

    #[test]
    fn spanner_is_sparser_than_dense_input() {
        let g = lca_graph::gen::structured::complete(40);
        let p = BsParams {
            k: 2,
            sample_prob: (40f64).powf(-0.5),
            independence: 12,
        };
        let kept = simulate(&from_graph(&g), p, Seed::new(7));
        assert!(kept.len() < g.edge_count());
        assert!(stretch_ok(&g, &kept, 3));
    }

    #[test]
    fn deterministic_in_seed() {
        let g = lca_graph::gen::GnpBuilder::new(50, 0.3)
            .seed(lca_rand::Seed::new(9))
            .build();
        let p = BsParams {
            k: 3,
            sample_prob: 0.3,
            independence: 8,
        };
        let a = simulate(&from_graph(&g), p, Seed::new(5));
        let b = simulate(&from_graph(&g), p, Seed::new(5));
        assert_eq!(a, b);
        let c = simulate(&from_graph(&g), p, Seed::new(6));
        // Different seeds give different spanners on dense-enough inputs
        // (not guaranteed, but overwhelmingly likely here).
        assert_ne!(a, c);
    }

    #[test]
    fn empty_and_single_vertex() {
        let lg = LocalGraph::new();
        let p = BsParams {
            k: 2,
            sample_prob: 0.5,
            independence: 4,
        };
        assert!(simulate(&lg, p, Seed::new(0)).is_empty());
        let mut lg = LocalGraph::new();
        lg.add_vertex(VertexId::new(0), 0);
        assert!(simulate(&lg, p, Seed::new(0)).is_empty());
        assert!(!lg.is_empty());
        assert_eq!(lg.len(), 1);
    }

    #[test]
    fn kept_edges_are_graph_edges() {
        let g = lca_graph::gen::GnpBuilder::new(40, 0.3)
            .seed(lca_rand::Seed::new(2))
            .build();
        let p = BsParams {
            k: 3,
            sample_prob: 0.3,
            independence: 8,
        };
        for (a, b) in simulate(&from_graph(&g), p, Seed::new(3)) {
            assert!(g.has_edge(VertexId::from(a), VertexId::from(b)));
        }
    }

    #[test]
    fn add_vertex_is_idempotent() {
        let mut lg = LocalGraph::new();
        let a = lg.add_vertex(VertexId::new(7), 70);
        let b = lg.add_vertex(VertexId::new(7), 70);
        assert_eq!(a, b);
        assert_eq!(lg.len(), 1);
        assert!(lg.contains(VertexId::new(7)));
        assert!(!lg.contains(VertexId::new(8)));
    }
}
