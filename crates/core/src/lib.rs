//! Local computation algorithms for graph spanners — and the unified query
//! API every LCA in this workspace is served through.
//!
//! This crate implements the constructions of *“Local Computation Algorithms
//! for Spanners”* (Parter, Rubinfeld, Vakilian, Yodpinyanee, 2019): given
//! probe access to a huge graph `G`, answer queries of the form *“is the edge
//! `(u, v)` in the spanner `H ⊆ G`?”* consistently with one fixed sparse
//! low-stretch spanner — without ever materializing `H`.
//!
//! | LCA | Stretch | Spanner size | Probes per query | Paper |
//! |-----|---------|--------------|------------------|-------|
//! | [`ThreeSpanner`] | 3 | Õ(n^{3/2}) | Õ(n^{3/4}) | §2, Thm 1.1 (r=2) |
//! | [`FiveSpanner`]  | 5 | Õ(n^{4/3}) | Õ(n^{5/6}) | §3, Thm 1.1 (r=3), Thm 3.5 |
//! | [`K2Spanner`]    | O(k²) | Õ(n^{1+1/k}) | Õ(∆⁴n^{2/3}) | §4, Thm 1.2 |
//!
//! # The query API
//!
//! Everything is served through one trait family (module [`lca`][crate::Lca]):
//! the [`Lca`] core trait is generic over `Query`/`Answer` and carries
//! [`Lca::name`] and [`Lca::probe_bound`] for reports; [`EdgeSubgraphLca`]
//! (edge-membership queries + a stretch bound) is the spanner instantiation,
//! [`VertexSubsetLca`] (vertex-membership queries) the classic-algorithm one
//! implemented in `lca-classic`. The [`DynQuery`] layer erases the
//! difference so the registry in the facade crate can hand out any of the
//! workspace's seven algorithms behind one object type.
//!
//! Queries are answered three ways:
//!
//! * one at a time — [`EdgeSubgraphLca::contains`] /
//!   [`VertexSubsetLca::contains_vertex`];
//! * batched and thread-parallel — [`QueryEngine::query_batch`] shards a
//!   batch across workers over a shared `Send + Sync` oracle (answers are
//!   query-order independent by Definition 1.4, so sharding is sound);
//! * measured — one serial loop, [`meter`], opens a
//!   [`lca_probe::CountingOracle`] scope per query and returns the answers,
//!   each query's probe cost and the run's total ([`Metered`]). Built on it:
//!   [`measure_queries`] (serial, exact per-query probe costs),
//!   [`measure_queries_distinct`] (additionally the distinct-probe measure
//!   via a per-query [`lca_probe::MemoOracle`]), [`QueryEngine::measure_batch`]
//!   (parallel, per-shard + aggregate [`lca_probe::ProbeCounts`], for any
//!   query batch, including implicit oracles' sampled ones) and
//!   [`QueryEngine::measure_queries`] (`measure_batch` over a graph's edges,
//!   with the kept subgraph assembled). Every [`QueryEngine`] runner splits
//!   its batch through one private sharding helper: contiguous chunks of
//!   `len.div_ceil(threads)`, one scoped thread each, joined in input order;
//!   a measuring shard builds its own counter and LCA instance and runs
//!   [`meter`] on its chunk.
//!
//! Every LCA is paired with an independent **global reference construction**
//! (module [`global`]) computing the same spanner by direct whole-graph
//! sweeps; the test suite asserts the two agree edge-for-edge, which is the
//! executable form of the paper's consistency requirement (Definition 1.4).
//!
//! Two engineering deviations from the paper, both documented in `DESIGN.md`:
//! edge IDs are normalized to `(min label, max label)` so queries `(u,v)` and
//! `(v,u)` agree, and every “w.h.p.” hitting-set event is backed by a
//! deterministic fallback (a vertex whose sampled center set came up empty
//! keeps all its incident edges), making the stretch bounds unconditional.
//!
//! # Example
//!
//! ```
//! use lca_core::{EdgeSubgraphLca, QueryEngine, ThreeSpanner};
//! use lca_graph::gen::GnpBuilder;
//! use lca_probe::CountingOracle;
//! use lca_rand::Seed;
//!
//! let graph = GnpBuilder::new(300, 0.2).seed(Seed::new(1)).build();
//! let oracle = CountingOracle::new(&graph);
//! let lca = ThreeSpanner::with_defaults(&oracle, Seed::new(42));
//! // Single query…
//! let (u, v) = graph.edge_endpoints(0);
//! let in_spanner = lca.contains(u, v)?;
//! println!("edge {u}-{v} in spanner: {in_spanner}, probes: {}", oracle.counts());
//! // …or a parallel batch over all edges.
//! let queries: Vec<_> = graph.edges().collect();
//! let answers = QueryEngine::new().query_batch(&lca, &queries);
//! assert_eq!(answers.len(), graph.edge_count());
//! # Ok::<(), lca_core::LcaError>(())
//! ```
//!
//! # Budgeted queries
//!
//! Every query runs under a [`QueryCtx`] — probe budget, wall-clock
//! deadline, cancellation flag, and the unified per-query probe meter
//! ([`QueryCtx::spent`]). [`Lca::query_ctx`] is the required trait method;
//! [`Lca::query`] is the unlimited shorthand. A query that would exceed its
//! budget returns [`LcaError::BudgetExhausted`] — a typed clean partial
//! failure, never a hang or a panic — and the unlimited path reproduces
//! pre-budget answers and probe transcripts bit-for-bit. Budgets surface at
//! every layer: per-batch via [`QueryEngine::query_batch_budgeted`] (with
//! per-shard exhaustion stats), per-instance via the facade builder's
//! default [`QueryBudget`], and per-request via the `lca-serve` wire
//! protocol's `max_probes`/`deadline_ms` fields.
//!
//! # Migration note (pre-0.2 API)
//!
//! `EdgeSubgraphLca` used to be a standalone trait whose implementors
//! defined `contains`/`name` directly. Those methods now live on the
//! [`Lca`] supertrait as [`Lca::query`] (with `contains` as a provided
//! convenience), so existing call sites keep working; implementors provide
//! `Lca` plus a `stretch_bound`. Since the budget redesign the required
//! method is [`Lca::query_ctx`]; a pre-budget `fn query` implementation
//! becomes `fn query_ctx(&self, q, ctx)` that charges its probes via
//! [`QueryCtx::budgeted`]. Constructors are unchanged — or use the
//! `lca::registry` builder in the facade crate to construct any algorithm
//! uniformly from `(graph, kind, seed)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
mod ctx;
mod engine;
mod error;
mod five;
pub mod global;
mod harness;
pub mod k2;
mod lca;
mod three;
pub mod verify;

pub use ctx::{BudgetedOracle, QueryBudget, QueryCtx, WithBudget, POLL_STRIDE};
pub use engine::{BudgetedBatch, QueryEngine, ShardBudget};
pub use error::LcaError;
pub use five::{EdgeClass, FiveSpanner, FiveSpannerParams};
pub use harness::{
    measure_queries, measure_queries_distinct, meter, DistinctRun, MeasuredBatch, Metered,
    ShardCounts, SpannerRun,
};
pub use k2::{K2Params, K2Spanner};
pub use lca::{
    DynEdgeLca, DynQuery, DynVertexLca, EdgeSubgraphLca, Lca, QueryKind, VertexSubsetLca,
};
pub use three::{ThreeSpanner, ThreeSpannerParams};
