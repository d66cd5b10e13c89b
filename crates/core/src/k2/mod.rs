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
use std::collections::{HashMap, HashSet, VecDeque};
use std::mem::size_of;
use std::ops::Deref;

use lca_graph::VertexId;
use lca_probe::{Oracle, VertexMap};
use lca_rand::{Coin, MemoCoin, RankAssigner, Seed};

use bfs::{center_search_in, BfsScratch, Status};

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

/// Bytes an idle walk scratch may keep. A query whose tables grew past
/// this frees them when it ends, so one outlier query cannot pin its
/// memory to the thread, nor make every later query clear tables that big.
/// A warm query on G(10⁶, 4/n) holds about 9 KiB.
const RETAIN_BYTES: usize = 1 << 20;

/// Allocated bytes of a vector (its capacity, not its length).
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// Allocated bytes of a double-ended queue.
pub(crate) fn deque_bytes<T>(q: &VecDeque<T>) -> usize {
    q.capacity() * size_of::<T>()
}

/// Allocated bytes of a hash map, roughly: one entry plus one control
/// byte per usable slot.
pub(crate) fn map_bytes<K, V, S>(m: &HashMap<K, V, S>) -> usize {
    m.capacity() * (size_of::<(K, V)>() + 1)
}

/// Allocated bytes of a hash set, by the same measure as [`map_bytes`].
pub(crate) fn set_bytes<K, S>(s: &HashSet<K, S>) -> usize {
    s.capacity() * (size_of::<K>() + 1)
}

thread_local! {
    /// The thread's idle walk scratch: emptied tables whose capacity the
    /// next walk on this thread reuses.
    static IDLE_WALK: Cell<Option<Box<Walk>>> = const { Cell::new(None) };
}

/// A run `start..start + len` of one of the walk's arenas.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    start: usize,
    len: usize,
}

impl Span {
    /// The run from `start` to the arena's end.
    fn tail(start: usize, end: usize) -> Span {
        Span {
            start,
            len: end - start,
        }
    }

    pub(crate) fn len(self) -> usize {
        self.len
    }

    /// The run's items in `arena`.
    pub(crate) fn of<T>(self, arena: &[T]) -> &[T] {
        &arena[self.start..self.start + self.len]
    }

    /// Item `i` of the run in `arena`.
    pub(crate) fn at<T: Copy>(self, arena: &[T], i: usize) -> T {
        self.of(arena)[i]
    }
}

/// Sorts and dedups the tail `arena[start..]` in place; returns its span.
fn sort_dedup_tail<T: Ord + Copy>(arena: &mut Vec<T>, start: usize) -> Span {
    arena[start..].sort_unstable();
    let mut end = start;
    for i in start..arena.len() {
        if end == start || arena[i] != arena[end - 1] {
            arena[end] = arena[i];
            end += 1;
        }
    }
    arena.truncate(end);
    Span::tail(start, end)
}

/// The walk's memo tables and buffers: memoized center searches, subtree
/// sizes, children lists, clusters and boundaries, plus the scan, search
/// and Baswana–Sen buffers. The memos are purely a probe-saving device —
/// every cached value is a deterministic function of `(graph, seed)`, so
/// caching cannot change any answer. Center searches are flat
/// [`Status`] records whose paths sit in one arena; children, cluster
/// members and boundaries are [`Span`]s of their own arenas. Every map and
/// set is keyed by the [`lca_probe::MulShift`] hasher.
///
/// One walk serves one query. Each thread keeps one idle walk: a [`Ctx`]
/// takes it when it starts and empties it when it drops (panic unwinds
/// included), so only capacity passes from one query to the next, never a
/// value — a budget-interrupted walk leaks no partial state. Arenas only
/// grow during a walk, so a span stays valid while later memo fills
/// append behind it. The two borrows held across probes (the path arena
/// during a center search, the ball on the sparse path) cover tables
/// nothing reachable from inside them touches, and a nested walk on the
/// same thread gets a walk of its own.
#[derive(Default)]
pub(crate) struct Walk {
    pub(crate) status: RefCell<VertexMap<u32, Status>>,
    /// The center searches' paths, indexed by their [`Status`] records.
    pub(crate) paths: RefCell<Vec<VertexId>>,
    /// `Some(size)` for light vertices, `None` for heavy ones.
    pub(crate) subtree: RefCell<VertexMap<u32, Option<usize>>>,
    /// Tree children per vertex, as spans of `kids`.
    pub(crate) children: RefCell<VertexMap<u32, Span>>,
    pub(crate) kids: RefCell<Vec<VertexId>>,
    /// The cluster of every member of a computed cluster.
    pub(crate) clusters: RefCell<VertexMap<u32, dense::Cluster>>,
    /// Cluster members, each cluster's run sorted by vertex index.
    pub(crate) members: RefCell<Vec<VertexId>>,
    /// `c(∂A)` per cluster id, as spans of `bounds`.
    pub(crate) boundaries: RefCell<VertexMap<u32, Span>>,
    /// Boundary centers, each boundary's run sorted and distinct.
    pub(crate) bounds: RefCell<Vec<u32>>,
    /// Vertex buffers for neighbor scans and DFS stacks ([`Walk::with_buf`]).
    bufs: RefCell<Vec<Vec<VertexId>>>,
    /// Center-search state ([`Walk::with_bfs`]).
    bfs: Cell<Option<BfsScratch>>,
    /// The sparse path's ball and Baswana–Sen tables.
    pub(crate) ball: RefCell<sparse::BallScratch>,
}

impl Walk {
    /// Runs `f` with an empty vertex buffer from the walk's pool. Nested
    /// calls take distinct buffers; steady state: zero allocations.
    pub(crate) fn with_buf<R>(&self, f: impl FnOnce(&mut Vec<VertexId>) -> R) -> R {
        let mut buf = self.bufs.borrow_mut().pop().unwrap_or_default();
        buf.clear();
        let r = f(&mut buf);
        self.bufs.borrow_mut().push(buf);
        r
    }

    /// Runs `f` with the walk's center-search scratch. Take/put rather
    /// than `RefCell`: a nested call simply works on a fresh scratch (no
    /// current call path nests, but a borrow panic is not an acceptable
    /// failure mode for a scan loop).
    fn with_bfs<R>(&self, f: impl FnOnce(&mut BfsScratch) -> R) -> R {
        let mut scratch = self.bfs.take().unwrap_or_default();
        let r = f(&mut scratch);
        self.bfs.set(Some(scratch));
        r
    }

    /// Vertex `i` of the path `π(v, c(v))` recorded by `st`.
    pub(crate) fn path_at(&self, st: Status, i: usize) -> Option<VertexId> {
        st.path(&self.paths.borrow()).get(i).copied()
    }

    /// Empties every table and buffer, keeping their capacity.
    fn clear(&mut self) {
        self.status.get_mut().clear();
        self.paths.get_mut().clear();
        self.subtree.get_mut().clear();
        self.children.get_mut().clear();
        self.kids.get_mut().clear();
        self.clusters.get_mut().clear();
        self.members.get_mut().clear();
        self.boundaries.get_mut().clear();
        self.bounds.get_mut().clear();
        self.bufs.get_mut().iter_mut().for_each(Vec::clear);
        if let Some(bfs) = self.bfs.get_mut() {
            bfs.clear();
        }
        self.ball.get_mut().clear();
    }

    /// Bytes the tables and buffers hold allocated.
    fn bytes(&mut self) -> usize {
        map_bytes(self.status.get_mut())
            + vec_bytes(self.paths.get_mut())
            + map_bytes(self.subtree.get_mut())
            + map_bytes(self.children.get_mut())
            + vec_bytes(self.kids.get_mut())
            + map_bytes(self.clusters.get_mut())
            + vec_bytes(self.members.get_mut())
            + map_bytes(self.boundaries.get_mut())
            + vec_bytes(self.bounds.get_mut())
            + self.bufs.get_mut().iter().map(vec_bytes).sum::<usize>()
            + vec_bytes(self.bufs.get_mut())
            + self.bfs.get_mut().as_ref().map_or(0, BfsScratch::bytes)
            + self.ball.get_mut().bytes()
    }
}

/// One query's walk: its budget, so every probe of the walk charges one
/// [`QueryCtx`] meter, and the thread's [`Walk`] scratch, held from
/// construction until drop. A second context alive on the same thread
/// (a nested walk) gets a walk of its own.
pub(crate) struct Ctx<'q> {
    /// The query's execution context; `None` on legacy/diagnostic paths.
    pub(crate) budget: Option<&'q QueryCtx>,
    walk: Option<Box<Walk>>,
}

impl Default for Ctx<'_> {
    fn default() -> Self {
        Ctx::new(None)
    }
}

impl<'q> Ctx<'q> {
    fn new(budget: Option<&'q QueryCtx>) -> Ctx<'q> {
        let walk = IDLE_WALK.try_with(Cell::take).ok().flatten();
        Ctx {
            budget,
            walk: Some(walk.unwrap_or_default()),
        }
    }

    /// A context charging every probe to `budget`.
    pub(crate) fn budgeted(budget: &'q QueryCtx) -> Ctx<'q> {
        Ctx::new(Some(budget))
    }

    /// Whether the query's budget has tripped — the only condition under
    /// which the dense machinery's invariants may degenerate.
    pub(crate) fn interrupted(&self) -> bool {
        self.budget.is_some_and(QueryCtx::interrupted)
    }
}

impl Deref for Ctx<'_> {
    type Target = Walk;

    fn deref(&self) -> &Walk {
        self.walk
            .as_deref()
            .expect("a context holds its walk until it drops")
    }
}

impl Drop for Ctx<'_> {
    /// Empties the walk and parks it as the thread's idle walk, unless it
    /// outgrew [`RETAIN_BYTES`] or the thread already parked another.
    fn drop(&mut self) {
        let Some(mut walk) = self.walk.take() else {
            return;
        };
        walk.clear();
        if walk.bytes() > RETAIN_BYTES {
            return;
        }
        let _ = IDLE_WALK.try_with(|idle| {
            let parked = idle.take();
            idle.set(parked.or(Some(walk)));
        });
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
    /// Baswana–Sen's k − 1 round coins, built once for every sparse query.
    bs_coins: Vec<Coin>,
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
        let bs_coins = BsParams {
            k: params.k,
            sample_prob: params.bs_sample_prob,
            independence: params.independence,
        }
        .round_coins(seed.derive(0x4B34));
        Self {
            oracle,
            params,
            center_coin,
            mark_coin,
            ranks,
            bs_coins,
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

    pub(crate) fn bs_coins(&self) -> &[Coin] {
        &self.bs_coins
    }

    /// Whether `label` was sampled as a Voronoi center (probe-free).
    pub fn is_center_label(&self, label: u64) -> bool {
        self.center_coin.flip(label)
    }

    /// The sparse/dense status of a vertex (memoized per context).
    pub(crate) fn status(&self, ctx: &Ctx<'_>, v: VertexId) -> Status {
        if let Some(&st) = ctx.status.borrow().get(&v.raw()) {
            return st;
        }
        let st = ctx.with_bfs(|scratch| {
            center_search_in(
                &self.o(ctx),
                v,
                self.params.k,
                |label| self.center_coin.flip(label),
                scratch,
                &mut ctx.paths.borrow_mut(),
            )
        });
        ctx.status.borrow_mut().insert(v.raw(), st);
        st
    }

    /// Public probe: the sparse/dense status of `v` (fresh context).
    pub fn vertex_status(&self, v: VertexId) -> VertexStatus {
        let ctx = Ctx::default();
        let st = self.status(&ctx, v);
        let status = VertexStatus::from_record(st, &ctx.paths.borrow());
        status
    }

    /// The Voronoi-tree parent of `v` (None if sparse or a cell center).
    /// Fresh context; costs one center search (Table 5 row 1).
    pub fn tree_parent(&self, v: VertexId) -> Option<VertexId> {
        self.status(&Ctx::default(), v).parent
    }

    /// Whether `(u, v)` is a Voronoi tree edge (`H^(I)`, Table 5 row 2).
    pub fn is_tree_edge(&self, u: VertexId, v: VertexId) -> bool {
        let ctx = Ctx::default();
        self.status(&ctx, u).parent == Some(v) || self.status(&ctx, v).parent == Some(u)
    }

    /// The members of `v`'s cluster, or `None` if `v` is sparse
    /// (Table 5 row 5: the O(∆³L²) subroutine).
    pub fn cluster_members_of(&self, v: VertexId) -> Option<Vec<VertexId>> {
        let ctx = Ctx::default();
        if self.status(&ctx, v).is_sparse() {
            return None;
        }
        let cluster = self.cluster(&ctx, v);
        let members = cluster.members.of(&ctx.members.borrow()).to_vec();
        Some(members)
    }

    /// The boundary cell centers `c(∂A)` of `v`'s cluster, sorted by
    /// index, or `None` if sparse (Table 5 row 6).
    pub fn boundary_centers_of(&self, v: VertexId) -> Option<Vec<VertexId>> {
        let ctx = Ctx::default();
        if self.status(&ctx, v).is_sparse() {
            return None;
        }
        let cluster = self.cluster(&ctx, v);
        let boundary = self.boundary(&ctx, &cluster);
        let bounds = ctx.bounds.borrow();
        Some(
            boundary
                .of(&bounds)
                .iter()
                .map(|&c| VertexId::from(c))
                .collect(),
        )
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
        let answer = match (su.center, sv.center) {
            // Same cell: only Voronoi tree edges (H^(I)) survive.
            (Some(cu), Some(cv)) if cu == cv => su.parent == Some(v) || sv.parent == Some(u),
            (Some(_), Some(_)) => dense::dense_contains(self, &ctx, u, v),
            _ => sparse::sparse_contains(self, &ctx, u, v),
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

/// Allocated bytes of the thread's idle walk, if one is parked.
#[cfg(test)]
fn idle_walk_bytes() -> Option<usize> {
    IDLE_WALK.with(|idle| {
        let mut walk = idle.take()?;
        let bytes = walk.bytes();
        idle.set(Some(walk));
        Some(bytes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lca_graph::gen::{structured, RegularBuilder};
    use lca_graph::{Graph, Subgraph};
    use std::panic::{catch_unwind, AssertUnwindSafe};

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

    /// Each query's answer and probe cost, every query in a fresh context.
    type Transcript = Vec<(Result<bool, LcaError>, u64)>;

    fn transcript<O: Oracle>(lca: &K2Spanner<O>, edges: &[(VertexId, VertexId)]) -> Transcript {
        edges.iter().map(|&e| answer(lca, e)).collect()
    }

    fn answer<O: Oracle>(
        lca: &K2Spanner<O>,
        e: (VertexId, VertexId),
    ) -> (Result<bool, LcaError>, u64) {
        let ctx = QueryCtx::unlimited();
        (lca.query_ctx(e, &ctx), ctx.spent())
    }

    /// A mixed dense/sparse instance: 4-regular, centers at rate 3/L.
    fn mixed(seed: u64) -> (Graph, K2Params) {
        let g = RegularBuilder::new(300, 4)
            .seed(Seed::new(seed))
            .build()
            .unwrap();
        (g, K2Params::with_center_constant(300, 2, 3.0))
    }

    /// Reads `g` but panics half-way through a neighbor scan of `trap`
    /// while armed.
    struct Trap<'g> {
        g: &'g Graph,
        trap: Cell<Option<VertexId>>,
    }

    impl Oracle for Trap<'_> {
        fn vertex_count(&self) -> usize {
            self.g.vertex_count()
        }
        fn degree(&self, v: VertexId) -> usize {
            self.g.degree(v)
        }
        fn neighbor(&self, v: VertexId, i: usize) -> Option<VertexId> {
            self.g.neighbor(v, i)
        }
        fn adjacency(&self, u: VertexId, v: VertexId) -> Option<usize> {
            Oracle::adjacency(self.g, u, v)
        }
        fn neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> usize {
            let d = self.g.neighbors_into(v, out);
            if self.trap.get() == Some(v) {
                out.truncate(d / 2);
                panic!("oracle failed mid-scan of {v}");
            }
            d
        }
        fn label(&self, v: VertexId) -> u64 {
            self.g.label(v)
        }
    }

    #[test]
    fn walk_scratch_leaks_nothing_between_queries() {
        let (g, params) = mixed(21);
        let edges: Vec<_> = g.edges().take(60).collect();
        let (seed_a, seed_b) = (Seed::new(5), Seed::new(6));
        // The reference: fresh instances on a fresh thread.
        let (want_a, want_b) = std::thread::scope(|s| {
            s.spawn(|| {
                let a = K2Spanner::new(&g, params.clone(), seed_a);
                let b = K2Spanner::new(&g, params.clone(), seed_b);
                (transcript(&a, &edges), transcript(&b, &edges))
            })
            .join()
            .unwrap()
        });
        assert_ne!(want_a, want_b, "the two seeds should disagree somewhere");
        let costly = want_a.iter().map(|(_, p)| *p).max().unwrap();
        assert!(costly > 50, "want a query the budget below can trip");
        // The outlier: a 24 000-leaf star with every vertex sparse, whose
        // ball of every leaf outgrows the retention cap.
        let star = structured::star(24_001);
        let mut star_params = K2Params::for_n(24_001, 1);
        star_params.center_prob = 0.0;

        let a = K2Spanner::new(&g, params.clone(), seed_a);
        let b = K2Spanner::new(&g, params.clone(), seed_b);
        let trap = Trap {
            g: &g,
            trap: Cell::new(None),
        };
        let t = K2Spanner::new(&trap, params.clone(), seed_a);
        let big = K2Spanner::new(&star, star_params, Seed::new(7));
        let (mut tripped, mut panicked) = (0, 0);
        for (i, &e) in edges.iter().enumerate() {
            match i % 4 {
                0 => {
                    let ctx = QueryCtx::with_probe_limit(25);
                    if a.query_ctx(e, &ctx).is_err() {
                        assert!(ctx.interrupted());
                        tripped += 1;
                    }
                }
                1 => {
                    trap.trap.set(Some(e.1));
                    let caught = catch_unwind(AssertUnwindSafe(|| t.contains(e.0, e.1)));
                    trap.trap.set(None);
                    panicked += usize::from(caught.is_err());
                    assert_eq!(answer(&t, e), want_a[i], "trap instance, edge {i}");
                }
                2 => assert_eq!(answer(&b, e), want_b[i], "second seed, edge {i}"),
                _ if i % 16 == 3 => {
                    let hub = VertexId::new(0);
                    assert!(big.contains(hub, VertexId::new(1 + i)).is_ok());
                    assert_eq!(idle_walk_bytes(), None, "the outlier's walk was kept");
                }
                _ => {}
            }
            assert_eq!(answer(&a, e), want_a[i], "edge {i} after a disruption");
            let kept = idle_walk_bytes().expect("a walk is parked after a query");
            assert!(kept <= RETAIN_BYTES);
        }
        assert!(
            tripped > 0 && panicked > 0,
            "{tripped} tripped, {panicked} panicked"
        );
    }

    #[test]
    fn walk_scratch_shared_instance_on_four_threads() {
        let (g, params) = mixed(22);
        let edges: Vec<_> = g.edges().take(120).collect();
        let lca = K2Spanner::new(&g, params, Seed::new(9));
        let want = transcript(&lca, &edges);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (lca, edges, start) = (&lca, &edges, &start);
                    s.spawn(move || {
                        start.wait();
                        // Each thread walks the edges from its own offset.
                        let order: Vec<usize> = (0..edges.len())
                            .map(|i| (i + t * edges.len() / 4) % edges.len())
                            .collect();
                        let got: Vec<_> = order.iter().map(|&i| answer(lca, edges[i])).collect();
                        (order, got)
                    })
                })
                .collect();
            for h in handles {
                let (order, got) = h.join().unwrap();
                for (i, got) in order.into_iter().zip(got) {
                    assert_eq!(got, want[i], "edge {i}");
                }
            }
        });
    }
}
