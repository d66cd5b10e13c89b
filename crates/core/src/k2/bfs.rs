//! The center-finding BFS variant (paper Section 4.2, Figure 6).
//!
//! Starting from `v`, vertices are discovered in increasing distance, ties
//! broken by the *lexicographically-first shortest path* from `v`: the queue
//! is FIFO and each dequeued vertex enqueues its undiscovered neighbors in
//! increasing label order. The search stops at the first discovered center
//! (giving `c(v)` and the Voronoi-tree path `π(v, c(v))`), or declares `v`
//! *sparse* after exhausting radius `k` without meeting a center.
//!
//! The paper's `D^k_L` device stops after `L` discoveries to bound probes
//! w.h.p.; correctness of the partition must not depend on it, so this
//! implementation keeps searching to radius `k` (the event that more than
//! `L` discoveries are needed is exactly the hitting-set failure the paper
//! bounds) while reporting the discovery count for instrumentation.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use lca_graph::VertexId;
use lca_probe::{Oracle, VertexMap};
use lca_rand::Coin;

/// Outcome of the center search from one vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VertexStatus {
    /// No center within distance `k`: the vertex is sparse (Definition 4.1).
    Sparse {
        /// Number of vertices discovered before giving up (≤ `L` w.h.p.).
        discovered: usize,
    },
    /// A center was found: the vertex is dense.
    Dense {
        /// The first-discovered center `c(v)`.
        center: VertexId,
        /// The lexicographically-first shortest path `π(v, c(v))`,
        /// starting at `v` and ending at the center.
        path: Vec<VertexId>,
        /// Number of vertices discovered before the center appeared.
        discovered: usize,
    },
}

impl VertexStatus {
    /// Whether the vertex is sparse.
    pub fn is_sparse(&self) -> bool {
        matches!(self, VertexStatus::Sparse { .. })
    }

    /// The Voronoi cell center, if dense.
    pub fn center(&self) -> Option<VertexId> {
        match self {
            VertexStatus::Dense { center, .. } => Some(*center),
            VertexStatus::Sparse { .. } => None,
        }
    }

    /// The parent in the Voronoi tree (next vertex on `π(v, c(v))`), if
    /// dense and not itself the center.
    pub fn parent(&self) -> Option<VertexId> {
        match self {
            VertexStatus::Dense { path, .. } => path.get(1).copied(),
            VertexStatus::Sparse { .. } => None,
        }
    }
}

/// Reusable state of the center search: the discovered map (vertex → BFS
/// parent), the FIFO queue of `(vertex, distance)` and the neighbor
/// buffer. Each search clears it and keeps its capacity, so a query's
/// searches after the first allocate only their result path.
#[derive(Debug, Default)]
pub(crate) struct BfsScratch {
    parent: VertexMap<u32, u32>,
    queue: VecDeque<(VertexId, usize)>,
    nbrs: Vec<VertexId>,
}

/// Runs the BFS variant from `v` with radius `k` against `is_center`.
///
/// Probe cost: one Degree plus `deg(x)` Neighbor probes per expanded vertex
/// `x`; the paper's analysis bounds the number of expansions by `O(L)` w.h.p.
pub fn center_search<O: Oracle>(
    oracle: &O,
    v: VertexId,
    k: usize,
    is_center: &Coin,
) -> VertexStatus {
    center_search_in(oracle, v, k, is_center, &mut BfsScratch::default())
}

/// [`center_search`] over caller-owned scratch.
pub(crate) fn center_search_in<O: Oracle>(
    oracle: &O,
    v: VertexId,
    k: usize,
    is_center: &Coin,
    scratch: &mut BfsScratch,
) -> VertexStatus {
    if is_center.flip(oracle.label(v)) {
        return VertexStatus::Dense {
            center: v,
            path: vec![v],
            discovered: 1,
        };
    }
    // The parent map doubles as the discovered set.
    let BfsScratch {
        parent,
        queue,
        nbrs,
    } = scratch;
    parent.clear();
    queue.clear();
    parent.insert(v.raw(), v.raw());
    queue.push_back((v, 0));
    while let Some((x, dx)) = queue.pop_front() {
        if dx >= k {
            continue;
        }
        oracle.neighbors_into(x, nbrs);
        // Enqueue undiscovered neighbors in increasing label order — this is
        // what makes discovery order lexicographic in π(v, ·).
        nbrs.sort_by_key(|&w| oracle.label(w));
        for &w in nbrs.iter() {
            let Entry::Vacant(slot) = parent.entry(w.raw()) else {
                continue;
            };
            slot.insert(x.raw());
            if is_center.flip(oracle.label(w)) {
                return VertexStatus::Dense {
                    center: w,
                    path: tree_path(parent, v, w, dx + 2),
                    discovered: parent.len(),
                };
            }
            queue.push_back((w, dx + 1));
        }
    }
    VertexStatus::Sparse {
        discovered: parent.len(),
    }
}

/// Reconstructs π(v, w) (`len` vertices) from the BFS-tree parents.
fn tree_path(parent: &VertexMap<u32, u32>, v: VertexId, w: VertexId, len: usize) -> Vec<VertexId> {
    let mut path = Vec::with_capacity(len);
    path.push(w);
    let mut cur = w.raw();
    while cur != v.raw() {
        let Some(&p) = parent.get(&cur) else {
            break;
        };
        cur = p;
        path.push(VertexId::from(cur));
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use lca_graph::gen::structured;
    use lca_graph::GraphBuilder;
    use lca_rand::Seed;

    /// Builds a coin that is heads on a chosen set by brute-force seed
    /// search (tiny domains make this fast and deterministic).
    fn coin_heads_on(heads: &[u64], domain: u64) -> Coin {
        'seed: for s in 0..20_000u64 {
            let c = Coin::new(Seed::new(s), 0.3, 8);
            for x in 0..domain {
                let want = heads.contains(&x);
                if c.flip(x) != want {
                    continue 'seed;
                }
            }
            return c;
        }
        panic!("no seed realizes the requested head set {heads:?}");
    }

    #[test]
    fn self_center_is_distance_zero() {
        let g = structured::path(4);
        let coin = coin_heads_on(&[1], 4);
        let st = center_search(&g, VertexId::new(1), 3, &coin);
        assert_eq!(
            st,
            VertexStatus::Dense {
                center: VertexId::new(1),
                path: vec![VertexId::new(1)],
                discovered: 1
            }
        );
        assert_eq!(st.parent(), None);
    }

    #[test]
    fn sparse_when_no_center_in_radius() {
        let g = structured::path(10);
        let coin = coin_heads_on(&[9], 10);
        // From vertex 0 with k = 3, vertex 9 is out of reach.
        let st = center_search(&g, VertexId::new(0), 3, &coin);
        assert!(st.is_sparse());
        // With k = 9 it becomes dense.
        let st = center_search(&g, VertexId::new(0), 9, &coin);
        assert_eq!(st.center(), Some(VertexId::new(9)));
    }

    #[test]
    fn path_is_shortest_and_lexicographic() {
        // Diamond: 0-1, 0-2, 1-3, 2-3. Center at 3. Two shortest paths from
        // 0: via 1 and via 2; lexicographically-first goes via 1.
        let g = GraphBuilder::new(4)
            .edges([(0, 2), (0, 1), (1, 3), (2, 3)])
            .build()
            .unwrap();
        let coin = coin_heads_on(&[3], 4);
        let st = center_search(&g, VertexId::new(0), 3, &coin);
        match st {
            VertexStatus::Dense { center, path, .. } => {
                assert_eq!(center, VertexId::new(3));
                assert_eq!(
                    path,
                    vec![VertexId::new(0), VertexId::new(1), VertexId::new(3)]
                );
            }
            other => panic!("expected dense, got {other:?}"),
        }
    }

    #[test]
    fn first_discovered_center_wins_over_lower_id() {
        // Star plus tail: centers at 2 and 5; from vertex 1, both at
        // distance 2 via hub 0. Discovery order after hub expansion is by
        // label: 2 before 5, so 2 wins even though both are equidistant.
        let g = GraphBuilder::new(6)
            .edges([(1, 0), (0, 5), (0, 2), (0, 3), (0, 4)])
            .build()
            .unwrap();
        let coin = coin_heads_on(&[2, 5], 6);
        let st = center_search(&g, VertexId::new(1), 3, &coin);
        assert_eq!(st.center(), Some(VertexId::new(2)));
    }

    #[test]
    fn closest_center_beats_farther_one() {
        let g = structured::path(7);
        let coin = coin_heads_on(&[1, 6], 7);
        let st = center_search(&g, VertexId::new(3), 4, &coin);
        // Distance 2 to center 1, distance 3 to center 6.
        assert_eq!(st.center(), Some(VertexId::new(1)));
        assert_eq!(st.parent(), Some(VertexId::new(2)));
    }

    #[test]
    fn consecutive_path_vertices_share_center_prefix() {
        // Voronoi-cell connectedness (Section 4.3.1): every vertex on
        // π(v, c(v)) chooses the same center.
        let g = structured::grid(4, 5);
        let coin = Coin::new(Seed::new(11), 0.15, 8);
        for v in g.vertices() {
            if let VertexStatus::Dense { center, path, .. } = center_search(&g, v, 4, &coin) {
                for &w in &path {
                    let stw = center_search(&g, w, 4, &coin);
                    assert_eq!(
                        stw.center(),
                        Some(center),
                        "vertex {w} on π({v},{center}) chose a different center"
                    );
                }
            }
        }
    }

    #[test]
    fn parents_form_trees_toward_centers() {
        let g = structured::grid(5, 5);
        let coin = Coin::new(Seed::new(3), 0.2, 8);
        for v in g.vertices() {
            if let VertexStatus::Dense { center, path, .. } = center_search(&g, v, 5, &coin) {
                // Path is a real path in the graph ending at the center.
                assert_eq!(*path.first().unwrap(), v);
                assert_eq!(*path.last().unwrap(), center);
                for pair in path.windows(2) {
                    assert!(g.has_edge(pair[0], pair[1]));
                }
                // Parent relation matches the path.
                let st = center_search(&g, v, 5, &coin);
                assert_eq!(st.parent(), path.get(1).copied());
            }
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_searches() {
        // One scratch across every search — dense, sparse, self-center —
        // must give exactly the fresh-scratch answers.
        let g = structured::grid(6, 7);
        let coin = Coin::new(Seed::new(5), 0.1, 8);
        let mut scratch = BfsScratch::default();
        for k in [1usize, 3, 6] {
            for v in g.vertices() {
                assert_eq!(
                    center_search_in(&g, v, k, &coin, &mut scratch),
                    center_search(&g, v, k, &coin),
                    "k={k} v={v}"
                );
            }
        }
    }
}
