//! H_dense: Voronoi trees, cluster refinement, and the inter-cell
//! connection rules (paper Sections 4.3.1–4.3.4).

use lca_graph::VertexId;
use lca_probe::Oracle;

use super::{sort_dedup_tail, Ctx, K2Spanner, Span};
use crate::common::edge_key;

/// A cluster of the Voronoi-cell refinement (Section 4.3.2): `O(L)` member
/// vertices of one cell, produced by rule (a) (whole light cell), (b)
/// (heavy singleton) or (c) (grouped light subtrees under a heavy parent).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cluster {
    /// Members, sorted by vertex index: a span of the walk's member arena.
    pub members: Span,
    /// The center of the Voronoi cell containing this cluster.
    pub cell_center: VertexId,
    /// Stable identity: the smallest member index.
    pub id: u32,
}

impl Cluster {
    /// Whether `w` is a member (binary search of the sorted members).
    fn contains(&self, ctx: &Ctx<'_>, w: VertexId) -> bool {
        self.members
            .of(&ctx.members.borrow())
            .binary_search(&w)
            .is_ok()
    }

    /// Member `i`, in index order.
    fn member(&self, ctx: &Ctx<'_>, i: usize) -> VertexId {
        self.members.at(&ctx.members.borrow(), i)
    }
}

impl<O: Oracle> K2Spanner<O> {
    /// Children of `x` in its Voronoi tree, in adjacency-list order, as a
    /// span of the walk's children arena (Table 5: O(∆²L) probes).
    pub(crate) fn tree_children(&self, ctx: &Ctx<'_>, x: VertexId) -> Span {
        if let Some(&c) = ctx.children.borrow().get(&x.raw()) {
            return c;
        }
        let o = self.o(ctx);
        let start = ctx.kids.borrow().len();
        if let Some(cx) = self.status(ctx, x).center {
            // A status fill appends no child, so `x`'s children stay one run.
            ctx.with_buf(|nbrs| {
                o.neighbors_into(x, nbrs);
                for &w in nbrs.iter() {
                    let stw = self.status(ctx, w);
                    if stw.center == Some(cx) && stw.parent == Some(x) {
                        ctx.kids.borrow_mut().push(w);
                    }
                }
            });
        } else {
            // Children are only requested for dense vertices; a tripped
            // budget can degenerate a status to sparse mid-walk, and the
            // query is about to fail its checkpoint — report no children.
            // On the unbudgeted path this is a real bug and must stay loud.
            assert!(
                ctx.interrupted(),
                "children only defined for dense vertices"
            );
        }
        let span = Span::tail(start, ctx.kids.borrow().len());
        ctx.children.borrow_mut().insert(x.raw(), span);
        span
    }

    /// Subtree size of `x` capped at `L`: `Some(size)` for light vertices,
    /// `None` for heavy ones (Definition 4.7; Table 5: O(∆²L²) probes).
    pub(crate) fn subtree_size(&self, ctx: &Ctx<'_>, x: VertexId) -> Option<usize> {
        if let Some(&s) = ctx.subtree.borrow().get(&x.raw()) {
            return s;
        }
        let cap = self.params().l;
        let result = ctx.with_buf(|stack| {
            stack.push(x);
            let mut count = 0usize;
            while let Some(y) = stack.pop() {
                count += 1;
                if count > cap {
                    return None;
                }
                let kids = self.tree_children(ctx, y);
                stack.extend_from_slice(kids.of(&ctx.kids.borrow()));
            }
            Some(count)
        });
        ctx.subtree.borrow_mut().insert(x.raw(), result);
        result
    }

    /// Appends every vertex of the (light) subtree rooted at `x` to the
    /// walk's member arena.
    fn collect_subtree(&self, ctx: &Ctx<'_>, x: VertexId) {
        ctx.with_buf(|stack| {
            stack.push(x);
            while let Some(y) = stack.pop() {
                ctx.members.borrow_mut().push(y);
                let kids = self.tree_children(ctx, y);
                stack.extend_from_slice(kids.of(&ctx.kids.borrow()));
            }
        });
    }

    /// The cluster containing dense vertex `x` (Section 4.3.2 rules (a)–(c);
    /// Table 5: O(∆³L²) probes). Its members are appended to the walk's
    /// member arena as one run: nothing a cluster computation calls
    /// appends members of its own.
    pub(crate) fn cluster(&self, ctx: &Ctx<'_>, x: VertexId) -> Cluster {
        if let Some(&c) = ctx.clusters.borrow().get(&x.raw()) {
            return c;
        }
        let st = self.status(ctx, x);
        let s = st.center.expect("clusters only defined for dense vertices");
        let start = ctx.members.borrow().len();
        if self.subtree_size(ctx, s).is_some() {
            // (a) Light cell: the whole cell is one cluster.
            self.collect_subtree(ctx, s);
        } else if self.subtree_size(ctx, x).is_none() {
            // (b) Heavy vertex: singleton.
            ctx.members.borrow_mut().push(x);
        } else {
            // (c) Light vertex under a heavy cell: group the light child
            // subtrees of the first heavy ancestor on π(x, s).
            let mut hop = 1;
            let heavy_parent = loop {
                let p = ctx
                    .path_at(st, hop)
                    .expect("cell center is heavy, so a heavy ancestor exists");
                if self.subtree_size(ctx, p).is_none() {
                    break p;
                }
                hop += 1;
            };
            let below = ctx.path_at(st, hop - 1).expect("dense path starts at x");
            // Groups are runs of light children, closed once their sizes
            // reach L; take the first group holding `below`, as child
            // positions `from..to` (heavy children in between are skipped).
            let kids = self.tree_children(ctx, heavy_parent);
            let mut group = None;
            let mut open: Option<(usize, bool)> = None;
            let mut size = 0usize;
            for i in 0..kids.len() {
                let w = kids.at(&ctx.kids.borrow(), i);
                let Some(sz) = self.subtree_size(ctx, w) else {
                    continue; // heavy children form their own singletons
                };
                let (from, has_below) = open.get_or_insert((i, false));
                *has_below |= w == below;
                size += sz;
                if size >= self.params().l {
                    if *has_below && group.is_none() {
                        group = Some((*from, i + 1));
                    }
                    open = None;
                    size = 0;
                }
            }
            if let Some((from, true)) = open {
                group = group.or(Some((from, kids.len())));
            }
            match group {
                Some((from, to)) => {
                    for i in from..to {
                        let w = kids.at(&ctx.kids.borrow(), i);
                        if self.subtree_size(ctx, w).is_some() {
                            self.collect_subtree(ctx, w);
                        }
                    }
                }
                None => {
                    // Within budget the group containing `below` always
                    // exists; a tripped budget can degenerate the children
                    // enumeration, in which case the query fails its
                    // checkpoint anyway — fall back to a singleton. On the
                    // unbudgeted path a missing group is a real bug and
                    // must stay loud.
                    assert!(
                        ctx.interrupted(),
                        "the subtree containing x must be in some group"
                    );
                    ctx.members.borrow_mut().push(x);
                }
            }
        }
        let mut arena = ctx.members.borrow_mut();
        let members = sort_dedup_tail(&mut arena, start);
        let cluster = Cluster {
            members,
            cell_center: s,
            id: members.of(&arena).first().map_or(u32::MAX, |m| m.raw()),
        };
        let mut cache = ctx.clusters.borrow_mut();
        for m in members.of(&arena) {
            cache.insert(m.raw(), cluster);
        }
        cluster
    }

    /// `c(∂A)`: centers of the (dense) neighbors of cluster `A`, excluding
    /// `A`'s own cell, sorted and distinct as a span of the walk's boundary
    /// arena (Table 5: O(∆²L²) probes). Memoized by cluster id.
    pub(crate) fn boundary(&self, ctx: &Ctx<'_>, a: &Cluster) -> Span {
        if let Some(&b) = ctx.boundaries.borrow().get(&a.id) {
            return b;
        }
        let o = self.o(ctx);
        let start = ctx.bounds.borrow().len();
        for i in 0..a.members.len() {
            let m = a.member(ctx, i);
            ctx.with_buf(|nbrs| {
                o.neighbors_into(m, nbrs);
                for &w in nbrs.iter() {
                    if let Some(c) = self.status(ctx, w).center {
                        if c != a.cell_center {
                            ctx.bounds.borrow_mut().push(c.raw());
                        }
                    }
                }
            });
        }
        let span = sort_dedup_tail(&mut ctx.bounds.borrow_mut(), start);
        ctx.boundaries.borrow_mut().insert(a.id, span);
        span
    }

    /// Minimum-label-ID edge from `a` to a neighbor that `to` accepts
    /// (endpoints returned A-side first).
    fn min_edge_from(
        &self,
        ctx: &Ctx<'_>,
        a: &Cluster,
        to: impl Fn(VertexId) -> bool,
    ) -> Option<(VertexId, VertexId)> {
        let o = self.o(ctx);
        let mut best: Option<((u64, u64), (VertexId, VertexId))> = None;
        for i in 0..a.members.len() {
            let m = a.member(ctx, i);
            ctx.with_buf(|nbrs| {
                o.neighbors_into(m, nbrs);
                for &w in nbrs.iter() {
                    if to(w) {
                        let k = edge_key(o.label(m), o.label(w));
                        if best.is_none_or(|(cur, _)| k < cur) {
                            best = Some((k, (m, w)));
                        }
                    }
                }
            });
        }
        best.map(|(_, e)| e)
    }

    /// Minimum-label-ID edge in `E(A, B)` (endpoints returned A-side first).
    fn min_edge_between(
        &self,
        ctx: &Ctx<'_>,
        a: &Cluster,
        b: &Cluster,
    ) -> Option<(VertexId, VertexId)> {
        self.min_edge_from(ctx, a, |w| b.contains(ctx, w))
    }

    /// Minimum-label-ID edge in `E(A, Vor(cell))` for a foreign cell.
    fn min_edge_to_cell(
        &self,
        ctx: &Ctx<'_>,
        a: &Cluster,
        cell: VertexId,
    ) -> Option<(VertexId, VertexId)> {
        self.min_edge_from(ctx, a, |w| self.status(ctx, w).center == Some(cell))
    }

    /// Whether a Voronoi cell is marked.
    fn marked(&self, center: VertexId) -> bool {
        self.mark_coin().flip(self.oracle().label(center))
    }

    /// Marked cells adjacent to cluster `a` (from its boundary) in index
    /// order, plus its own cell last when marked — the rule (2) emptiness
    /// test set — written to `out`.
    fn marked_adjacent(&self, ctx: &Ctx<'_>, a: &Cluster, out: &mut Vec<VertexId>) {
        let boundary = self.boundary(ctx, a);
        out.clear();
        let bounds = ctx.bounds.borrow();
        let centers = boundary.of(&bounds).iter().map(|&c| VertexId::from(c));
        out.extend(centers.filter(|&c| self.marked(c)));
        if self.marked(a.cell_center) {
            out.push(a.cell_center);
        }
    }

    /// Whether no cell adjacent to `a`, nor `a`'s own, is marked.
    fn no_marked_adjacent(&self, ctx: &Ctx<'_>, a: &Cluster) -> bool {
        ctx.with_buf(|marked| {
            self.marked_adjacent(ctx, a, marked);
            marked.is_empty()
        })
    }

    /// Rule (3) from the `from` side: is `edge = (x, y)` (with `x ∈ from`,
    /// `y ∈ to`, different cells) the connection `from → Vor(c(to))`
    /// justified by some marked cluster that `to` participates in?
    fn rule3(
        &self,
        ctx: &Ctx<'_>,
        from: &Cluster,
        to: &Cluster,
        edge: (VertexId, VertexId),
    ) -> bool {
        // The queried edge must be the minimum edge from `from` into the
        // whole cell of `to`.
        match self.min_edge_to_cell(ctx, from, to.cell_center) {
            Some(e) if same_edge(e, edge) => {}
            _ => return false,
        }
        let boundary_from = self.boundary(ctx, from);
        let to_center = to.cell_center;
        // Enumerate marked cells adjacent to `to` (excluding its own cell).
        ctx.with_buf(|marked| {
            self.marked_adjacent(ctx, to, marked);
            marked.iter().any(|&m| {
                if m == to_center {
                    return false;
                }
                let Some((_, w_m)) = self.min_edge_to_cell(ctx, to, m) else {
                    return false;
                };
                // `to` participates in the cluster-of-clusters of C =
                // cluster of the minimum-edge endpoint inside the marked
                // cell.
                let c_cluster = self.cluster(ctx, w_m);
                let boundary_c = self.boundary(ctx, &c_cluster);
                let bounds = ctx.bounds.borrow();
                let (from_cells, c_cells) = (boundary_from.of(&bounds), boundary_c.of(&bounds));
                // X = c(∂from) ∩ c(∂C); c(to) must be among the q lowest
                // ranks.
                let has = |cells: &[u32], c: u32| cells.binary_search(&c).is_ok();
                if !has(from_cells, to_center.raw()) || !has(c_cells, to_center.raw()) {
                    return false;
                }
                let rank = |c: VertexId| self.ranks().rank(self.oracle().label(c));
                let rank_to = rank(to_center);
                let lower = from_cells
                    .iter()
                    .filter(|&&c| has(c_cells, c) && rank(VertexId::from(c)) < rank_to)
                    .count();
                lower < self.params().q
            })
        })
    }
}

fn same_edge(a: (VertexId, VertexId), b: (VertexId, VertexId)) -> bool {
    (a.0 == b.0 && a.1 == b.1) || (a.0 == b.1 && a.1 == b.0)
}

/// Whether the dense–dense, different-cell edge `(u, v)` is kept by
/// `H^(B)_dense` (rules (1)–(3) of Figure 10).
pub(crate) fn dense_contains<O: Oracle>(
    lca: &K2Spanner<O>,
    ctx: &Ctx<'_>,
    u: VertexId,
    v: VertexId,
) -> bool {
    let a = lca.cluster(ctx, u);
    let b = lca.cluster(ctx, v);

    // Rule (1): a marked cluster connects to each adjacent cluster via the
    // minimum-ID edge.
    if lca.marked(a.cell_center) || lca.marked(b.cell_center) {
        if let Some(e) = lca.min_edge_between(ctx, &a, &b) {
            if same_edge(e, (u, v)) {
                return true;
            }
        }
    }

    // Rule (2): a cluster with no adjacent marked cell connects to each
    // adjacent Voronoi cell.
    if lca.no_marked_adjacent(ctx, &b) {
        if let Some(e) = lca.min_edge_to_cell(ctx, &b, a.cell_center) {
            if same_edge(e, (v, u)) {
                return true;
            }
        }
    }
    if lca.no_marked_adjacent(ctx, &a) {
        if let Some(e) = lca.min_edge_to_cell(ctx, &a, b.cell_center) {
            if same_edge(e, (u, v)) {
                return true;
            }
        }
    }

    // Rule (3), both orientations.
    lca.rule3(ctx, &a, &b, (u, v)) || lca.rule3(ctx, &b, &a, (v, u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{K2Params, K2Spanner};
    use lca_graph::gen::structured;
    use lca_probe::VertexSet;
    use lca_rand::Seed;

    /// Parameters forcing every vertex dense (center prob 1): each vertex is
    /// its own cell center.
    fn all_centers(n: usize, k: usize) -> K2Params {
        let mut p = K2Params::for_n(n, k);
        p.center_prob = 1.0;
        p
    }

    #[test]
    fn singleton_cells_when_everyone_is_a_center() {
        let g = structured::cycle(10);
        let lca = K2Spanner::new(&g, all_centers(10, 2), Seed::new(1));
        let ctx = Ctx::default();
        for v in g.vertices() {
            let st = lca.status(&ctx, v);
            assert_eq!(st.center, Some(v));
            assert_eq!(st.parent, None);
            assert_eq!(lca.tree_children(&ctx, v).len(), 0);
            assert_eq!(lca.subtree_size(&ctx, v), Some(1));
            let cl = lca.cluster(&ctx, v);
            assert_eq!(cl.members.of(&ctx.members.borrow()), [v]);
            assert_eq!(cl.cell_center, v);
        }
    }

    #[test]
    fn boundary_of_singleton_cell_is_its_neighborhood() {
        let g = structured::cycle(8);
        let lca = K2Spanner::new(&g, all_centers(8, 2), Seed::new(1));
        let ctx = Ctx::default();
        let v = lca_graph::VertexId::new(3);
        let cl = lca.cluster(&ctx, v);
        let b = lca.boundary(&ctx, &cl);
        let expect: VertexSet<u32> = g.neighbors(v).iter().map(|w| w.raw()).collect();
        let bounds = ctx.bounds.borrow();
        assert_eq!(
            b.of(&bounds).iter().copied().collect::<VertexSet<u32>>(),
            expect
        );
        assert!(b.of(&bounds).windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn children_and_subtrees_partition_a_star_cell() {
        // Star with the hub as the only center: the whole star is one cell
        // with the hub as root and leaves as children.
        let g = structured::star(12);
        let mut p = K2Params::for_n(12, 2);
        p.center_prob = 0.0;
        let lca = K2Spanner::new(&g, p, Seed::new(2));
        // Force "hub is center": rebuild with probability 1 only achievable
        // via a coin; instead verify with center_prob 1 that each leaf's
        // cell is itself. The structured tree test lives in k2_global tests;
        // here check the degenerate sparse case instead.
        let ctx = Ctx::default();
        assert!(lca.status(&ctx, lca_graph::VertexId::new(0)).is_sparse());
    }

    #[test]
    fn cluster_is_memoized_for_all_members() {
        let g = structured::grid(5, 5);
        let mut p = K2Params::for_n(25, 2);
        p.center_prob = 0.3;
        let lca = K2Spanner::new(&g, p, Seed::new(7));
        let ctx = Ctx::default();
        for v in g.vertices() {
            if lca.status(&ctx, v).is_sparse() {
                continue;
            }
            let cl = lca.cluster(&ctx, v);
            let members = cl.members.of(&ctx.members.borrow()).to_vec();
            for m in members {
                let cm = lca.cluster(&ctx, m);
                assert_eq!(cm.id, cl.id, "member {m} resolved a different cluster");
                assert_eq!(cm.cell_center, cl.cell_center);
            }
            assert!(cl.contains(&ctx, v));
        }
    }

    #[test]
    fn clusters_are_bounded_by_2l() {
        let g = structured::grid(8, 8);
        let mut p = K2Params::for_n(64, 3);
        p.center_prob = 0.1;
        p.l = 4;
        let lca = K2Spanner::new(&g, p.clone(), Seed::new(9));
        let ctx = Ctx::default();
        for v in g.vertices() {
            if lca.status(&ctx, v).is_sparse() {
                continue;
            }
            let cl = lca.cluster(&ctx, v);
            assert!(
                cl.members.len() <= 2 * p.l,
                "cluster of {v} has {} members > 2L = {}",
                cl.members.len(),
                2 * p.l
            );
        }
    }
}
