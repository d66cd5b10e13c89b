//! The O(k²)-spanner LCA (paper Section 4, Theorem 1.2).
//!
//! For a stretch parameter `k`, the construction fixes `L = Θ(n^{1/3})`
//! and samples Θ(n/L · log n) centers. A vertex is *dense* if some center
//! lies within distance `k` (found by the lex-first BFS variant of
//! [`center_search`]), else *sparse*. The spanner is `H_sparse ∪ H_dense`:
//!
//! * `H_sparse` — a local simulation of k-round Baswana–Sen on the subgraph
//!   of edges with a sparse endpoint ([`baswana_sen`], Lemma 4.5);
//! * `H_dense = H^(I) ∪ H^(B)` — depth-k Voronoi trees inside each cell
//!   (Lemma 4.6) plus inter-cell connections chosen by the marked-cell rules
//!   (1)–(3) with q-lowest random ranks (Section 4.3.3–4.3.4, Idea V).
//!
//! Probe complexity: Õ(∆⁴L³·p) = Õ(∆⁴n^{2/3}) per query; spanner size
//! Õ(n^{1+1/k}); stretch O(k²) (O(k) cell hops × 2k cell diameter).

pub mod baswana_sen;
mod bfs;
mod dense;
mod sparse;
pub mod supergraph;

pub use baswana_sen::{simulate, BsParams, LocalGraph};
pub use bfs::{center_search, VertexStatus};
pub use supergraph::Supergraph;

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use lca_graph::VertexId;
use lca_probe::{Oracle, VertexMap, VertexSet};
use lca_rand::{Coin, MemoCoin, RankAssigner, Seed};

use bfs::{center_search_in, BfsScratch};

use crate::common::{ceil_pow, ln_n};
use crate::{BudgetedOracle, EdgeSubgraphLca, Lca, LcaError, QueryCtx};

/// Tuning parameters of the O(k²)-spanner construction.
#[derive(Debug, Clone, PartialEq)]
pub struct K2Params {
    /// The stretch parameter `k` (cell radius; BS runs k−1 rounds).
    pub k: usize,
    /// `L`: the sparse/dense ball size and cluster size target
    /// (paper: Θ(n^{1/3})).
    pub l: usize,
    /// Center sampling probability (paper: Θ(log n / L)).
    pub center_prob: f64,
    /// Voronoi cell marking probability (paper: 1/L).
    pub mark_prob: f64,
    /// `q`: how many lowest-ranked cells each (cluster, marked cluster)
    /// pair may connect to (paper: Θ(n^{1/k} log n), Idea V).
    pub q: usize,
    /// Baswana–Sen per-round sampling probability (paper: n^{−1/k}).
    pub bs_sample_prob: f64,
    /// Independence of all hash families (paper: Θ(log n)).
    pub independence: usize,
}

impl K2Params {
    /// The paper's parameters for an n-vertex graph and stretch parameter k.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn for_n(n: usize, k: usize) -> Self {
        Self::with_center_constant(n, k, 1.5 * ln_n(n))
    }

    /// Parameters with an explicit hitting constant: centers are sampled
    /// with probability `c_center / L` instead of the paper's
    /// `Θ(log n) / L`.
    ///
    /// Below n ≈ 10⁵ the paper's `log n / n^{1/3}` saturates to 1 (every
    /// vertex becomes its own Voronoi cell), which is technically within
    /// the analysis but hides all of the dense-regime structure. A small
    /// constant (e.g. `c_center = 3`) hits a size-L ball with probability
    /// ≈ 1 − e^{-c} while leaving genuine multi-vertex cells; vertices the
    /// sample misses simply classify as sparse and flow through the
    /// Baswana–Sen path, so correctness is unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_center_constant(n: usize, k: usize, c_center: f64) -> Self {
        assert!(k >= 1, "stretch parameter k must be at least 1");
        let l = ceil_pow(n, 1, 3).max(2);
        let log = ln_n(n);
        let n1k = ceil_pow(n, 1, k as u32).max(2);
        Self {
            k,
            l,
            center_prob: (c_center / l as f64).clamp(0.0, 1.0),
            mark_prob: (1.0 / l as f64).min(1.0),
            q: ((n1k as f64) * log).ceil().max(1.0) as usize,
            bs_sample_prob: (1.0 / n1k as f64).clamp(0.0, 1.0),
            independence: (2.0 * log).ceil().max(8.0) as usize,
        }
    }
}

/// Shared per-query scratch: memoized center searches, subtree sizes,
/// children lists and clusters — plus the query's budget, so every probe
/// of the walk charges one [`QueryCtx`] meter. The memos are purely a
/// probe-saving device — every cached value is a deterministic function of
/// `(graph, seed)`, so caching cannot change any answer — and the scratch
/// is discarded with the query, so a budget-interrupted walk never leaks
/// partial state into later queries. Every map and set is keyed by the
/// [`lca_probe::MulShift`] hasher.
#[derive(Default)]
pub(crate) struct Ctx<'q> {
    /// The query's execution context; `None` on legacy/diagnostic paths.
    pub(crate) budget: Option<&'q QueryCtx>,
    pub(crate) status: RefCell<VertexMap<u32, Rc<VertexStatus>>>,
    /// `Some(size)` for light vertices, `None` for heavy ones.
    pub(crate) subtree: RefCell<VertexMap<u32, Option<usize>>>,
    pub(crate) children: RefCell<VertexMap<u32, Rc<Vec<VertexId>>>>,
    pub(crate) clusters: RefCell<VertexMap<u32, Rc<dense::ClusterInfo>>>,
    /// `c(∂A)` per cluster id.
    pub(crate) boundaries: RefCell<VertexMap<u32, Rc<VertexSet<u32>>>>,
    /// Reusable neighbor-scan buffer for the walk's probe loops
    /// ([`Ctx::with_nbrs`]): one allocation per query instead of one per
    /// expanded vertex.
    nbrs: Cell<Option<Vec<VertexId>>>,
    /// Reusable center-search state ([`Ctx::with_bfs`]).
    bfs: Cell<Option<BfsScratch>>,
}

impl<'q> Ctx<'q> {
    /// A scratch charging every probe to `budget`.
    pub(crate) fn budgeted(budget: &'q QueryCtx) -> Ctx<'q> {
        Ctx {
            budget: Some(budget),
            ..Ctx::default()
        }
    }

    /// Whether the query's budget has tripped — the only condition under
    /// which the dense machinery's invariants may degenerate.
    pub(crate) fn interrupted(&self) -> bool {
        self.budget.is_some_and(QueryCtx::interrupted)
    }

    /// Runs `f` with the query's scratch neighbor buffer. Take/put rather
    /// than `RefCell`: a nested call simply works on a fresh `Vec` (no
    /// current call path nests, but a borrow panic is not an acceptable
    /// failure mode for a scan loop). Steady state: zero allocations.
    pub(crate) fn with_nbrs<R>(&self, f: impl FnOnce(&mut Vec<VertexId>) -> R) -> R {
        let mut buf = self.nbrs.take().unwrap_or_default();
        let r = f(&mut buf);
        self.nbrs.set(Some(buf));
        r
    }

    /// Runs `f` with the query's center-search scratch, by the same
    /// take/put as [`Ctx::with_nbrs`].
    fn with_bfs<R>(&self, f: impl FnOnce(&mut BfsScratch) -> R) -> R {
        let mut scratch = self.bfs.take().unwrap_or_default();
        let r = f(&mut scratch);
        self.bfs.set(Some(scratch));
        r
    }
}

/// LCA for O(k²)-spanners with Õ(n^{1+1/k}) edges (Theorem 1.2).
///
/// # Example
///
/// ```
/// use lca_core::{EdgeSubgraphLca, K2Params, K2Spanner};
/// use lca_graph::gen::RegularBuilder;
/// use lca_rand::Seed;
///
/// let g = RegularBuilder::new(100, 4).seed(Seed::new(1)).build().unwrap();
/// let lca = K2Spanner::new(&g, K2Params::for_n(100, 2), Seed::new(2));
/// let (u, v) = g.edge_endpoints(0);
/// assert_eq!(lca.contains(u, v)?, lca.contains(v, u)?);
/// # Ok::<(), lca_core::LcaError>(())
/// ```
#[derive(Debug)]
pub struct K2Spanner<O> {
    oracle: O,
    params: K2Params,
    /// Remembered across queries: a center search flips it on every vertex
    /// it discovers, and most of those vertices recur.
    center_coin: MemoCoin,
    mark_coin: Coin,
    ranks: RankAssigner,
    bs_seed: Seed,
}

impl<O: Oracle> K2Spanner<O> {
    /// Creates the LCA with explicit parameters.
    pub fn new(oracle: O, params: K2Params, seed: Seed) -> Self {
        let n = oracle.vertex_count();
        let center_coin = MemoCoin::new(
            Coin::new(seed.derive(0x4B31), params.center_prob, params.independence),
            n as u64,
        );
        let mark_coin = Coin::new(seed.derive(0x4B32), params.mark_prob, params.independence);
        let ranks = RankAssigner::for_spanner(seed.derive(0x4B33), n.max(2), params.k);
        let bs_seed = seed.derive(0x4B34);
        Self {
            oracle,
            params,
            center_coin,
            mark_coin,
            ranks,
            bs_seed,
        }
    }

    /// Creates the LCA with the paper's parameters.
    pub fn with_defaults(oracle: O, k: usize, seed: Seed) -> Self {
        let params = K2Params::for_n(oracle.vertex_count(), k);
        Self::new(oracle, params, seed)
    }

    /// The parameters in effect.
    pub fn params(&self) -> &K2Params {
        &self.params
    }

    pub(crate) fn oracle(&self) -> &O {
        &self.oracle
    }

    /// The probe view for this scratch: budget-charging when the scratch
    /// carries a query context, transparent otherwise.
    pub(crate) fn o<'a>(&'a self, ctx: &Ctx<'a>) -> BudgetedOracle<'a, O> {
        BudgetedOracle::maybe(&self.oracle, ctx.budget)
    }

    pub(crate) fn mark_coin(&self) -> &Coin {
        &self.mark_coin
    }

    pub(crate) fn ranks(&self) -> &RankAssigner {
        &self.ranks
    }

    pub(crate) fn bs_seed(&self) -> Seed {
        self.bs_seed
    }

    /// Whether `label` was sampled as a Voronoi center (probe-free).
    pub fn is_center_label(&self, label: u64) -> bool {
        self.center_coin.flip(label)
    }

    /// The sparse/dense status of a vertex (memoized per context).
    pub(crate) fn status(&self, ctx: &Ctx<'_>, v: VertexId) -> Rc<VertexStatus> {
        if let Some(st) = ctx.status.borrow().get(&v.raw()) {
            return Rc::clone(st);
        }
        let st = Rc::new(ctx.with_bfs(|scratch| {
            center_search_in(
                &self.o(ctx),
                v,
                self.params.k,
                |label| self.center_coin.flip(label),
                scratch,
            )
        }));
        ctx.status.borrow_mut().insert(v.raw(), Rc::clone(&st));
        st
    }

    /// Public probe: the sparse/dense status of `v` (fresh context).
    pub fn vertex_status(&self, v: VertexId) -> VertexStatus {
        (*self.status(&Ctx::default(), v)).clone()
    }

    /// The Voronoi-tree parent of `v` (None if sparse or a cell center).
    /// Fresh context; costs one center search (Table 5 row 1).
    pub fn tree_parent(&self, v: VertexId) -> Option<VertexId> {
        self.status(&Ctx::default(), v).parent()
    }

    /// Whether `(u, v)` is a Voronoi tree edge (`H^(I)`, Table 5 row 2).
    pub fn is_tree_edge(&self, u: VertexId, v: VertexId) -> bool {
        let ctx = Ctx::default();
        self.status(&ctx, u).parent() == Some(v) || self.status(&ctx, v).parent() == Some(u)
    }

    /// The members of `v`'s cluster, or `None` if `v` is sparse
    /// (Table 5 row 5: the O(∆³L²) subroutine).
    pub fn cluster_members_of(&self, v: VertexId) -> Option<Vec<VertexId>> {
        let ctx = Ctx::default();
        if self.status(&ctx, v).is_sparse() {
            return None;
        }
        Some(self.cluster(&ctx, v).members.clone())
    }

    /// The boundary cell centers `c(∂A)` of `v`'s cluster, or `None` if
    /// sparse (Table 5 row 6).
    pub fn boundary_centers_of(&self, v: VertexId) -> Option<Vec<VertexId>> {
        let ctx = Ctx::default();
        if self.status(&ctx, v).is_sparse() {
            return None;
        }
        let cluster = self.cluster(&ctx, v);
        let mut out: Vec<VertexId> = self
            .boundary(&ctx, &cluster)
            .iter()
            .map(|&c| VertexId::from(c))
            .collect();
        out.sort_by_key(|c| c.raw());
        Some(out)
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), LcaError> {
        let n = self.oracle.vertex_count();
        if v.index() >= n {
            return Err(LcaError::InvalidVertex { v, vertex_count: n });
        }
        Ok(())
    }
}

impl<O: Oracle> Lca for K2Spanner<O> {
    type Query = (VertexId, VertexId);
    type Answer = bool;

    fn query_ctx(&self, (u, v): (VertexId, VertexId), qctx: &QueryCtx) -> Result<bool, LcaError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        let ctx = Ctx::budgeted(qctx);
        let o = self.o(&ctx);
        if o.adjacency(u, v).is_none() || o.adjacency(v, u).is_none() {
            // A refused adjacency probe must not masquerade as NotAnEdge.
            qctx.checkpoint()?;
            return Err(LcaError::NotAnEdge { u, v });
        }
        let su = self.status(&ctx, u);
        let sv = self.status(&ctx, v);
        let answer = if su.is_sparse() || sv.is_sparse() {
            sparse::sparse_contains(self, &ctx, u, v)
        } else {
            let (cu, cv) = (su.center().expect("dense"), sv.center().expect("dense"));
            if cu == cv {
                // Same cell: only Voronoi tree edges (H^(I)) survive.
                su.parent() == Some(v) || sv.parent() == Some(u)
            } else {
                dense::dense_contains(self, &ctx, u, v, &su, &sv)
            }
        };
        // A tripped budget outranks whatever the drained walk produced.
        qctx.checkpoint()?;
        Ok(answer)
    }

    fn name(&self) -> &'static str {
        "k2-spanner"
    }

    fn probe_bound(&self) -> &'static str {
        "Õ(Δ⁴n^{2/3})"
    }
}

impl<O: Oracle> EdgeSubgraphLca for K2Spanner<O> {
    fn stretch_bound(&self) -> usize {
        // O(k) cell hops w.h.p., each expanded through a ≤2k-diameter cell;
        // generous deterministic verification radius.
        let k = self.params.k;
        (2 * k + 1) * (2 * k + 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lca_graph::gen::{structured, RegularBuilder};
    use lca_graph::Subgraph;

    #[test]
    fn params_defaults_are_sane() {
        let p = K2Params::for_n(1000, 3);
        assert_eq!(p.l, 10); // n^{1/3}
        assert!(p.center_prob > 0.0 && p.center_prob <= 1.0);
        assert!(p.mark_prob > 0.0 && p.mark_prob <= 1.0);
        assert!(p.q >= 1);
        assert!(p.bs_sample_prob > 0.0 && p.bs_sample_prob <= 1.0);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        let _ = K2Params::for_n(100, 0);
    }

    #[test]
    fn k1_on_small_graph_keeps_connectivity() {
        let g = structured::cycle(12);
        let lca = K2Spanner::with_defaults(&g, 1, Seed::new(3));
        let kept: Vec<_> = g
            .edges()
            .filter(|&(u, v)| lca.contains(u, v).unwrap())
            .collect();
        let h = Subgraph::from_edges(&g, kept);
        assert!(h.max_edge_stretch(&g, lca.stretch_bound() as u32).is_some());
    }

    #[test]
    fn non_edge_errors() {
        let g = structured::path(5);
        let lca = K2Spanner::with_defaults(&g, 2, Seed::new(1));
        assert!(matches!(
            lca.contains(VertexId::new(0), VertexId::new(3)),
            Err(LcaError::NotAnEdge { .. })
        ));
        assert!(matches!(
            lca.contains(VertexId::new(0), VertexId::new(50)),
            Err(LcaError::InvalidVertex { .. })
        ));
    }

    #[test]
    fn symmetric_answers_on_regular_graph() {
        let g = RegularBuilder::new(80, 4)
            .seed(Seed::new(4))
            .build()
            .unwrap();
        let lca = K2Spanner::with_defaults(&g, 2, Seed::new(5));
        for (u, v) in g.edges() {
            assert_eq!(lca.contains(u, v).unwrap(), lca.contains(v, u).unwrap());
        }
    }

    #[test]
    fn spanner_preserves_connectivity_and_stretch() {
        for (k, seed) in [(2usize, 7u64), (3, 8)] {
            let g = RegularBuilder::new(90, 4)
                .seed(Seed::new(seed))
                .build()
                .unwrap();
            let lca = K2Spanner::with_defaults(&g, k, Seed::new(seed + 10));
            let h =
                Subgraph::from_edges(&g, g.edges().filter(|&(u, v)| lca.contains(u, v).unwrap()));
            let bound = lca.stretch_bound() as u32;
            let stretch = h.max_edge_stretch(&g, bound);
            assert!(stretch.is_some(), "k={k}: some edge lost connectivity");
            assert!(
                stretch.unwrap() <= bound,
                "k={k}: stretch {stretch:?} > {bound}"
            );
        }
    }

    #[test]
    fn vertex_status_is_deterministic() {
        let g = structured::grid(6, 6);
        let lca = K2Spanner::with_defaults(&g, 2, Seed::new(9));
        for v in g.vertices() {
            assert_eq!(lca.vertex_status(v), lca.vertex_status(v));
        }
    }
}
