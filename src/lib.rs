//! # `lca` — Local Computation Algorithms for Graph Spanners
//!
//! Facade crate re-exporting the whole workspace, plus the [`registry`]
//! that constructs any of the seven LCAs uniformly from
//! `(oracle, kind, seed)`, the [`family`] registry naming the implicit
//! input families, and the [`source`] abstraction for drawing query
//! batches. See `docs/ARCHITECTURE.md` for the crate map and query
//! lifecycle, and `docs/PROTOCOL.md` for the `lca-serve` wire format.
//!
//! ```
//! use lca::prelude::*;
//! use lca::registry::{AlgorithmKind, LcaBuilder, SpannerKind};
//!
//! let graph = GnpBuilder::new(200, 0.2).seed(Seed::new(1)).build();
//! let oracle = CountingOracle::new(&graph);
//! // Uniform construction through the registry…
//! let kind = AlgorithmKind::Spanner(SpannerKind::Three);
//! let lca = LcaBuilder::new(kind).seed(Seed::new(7)).build(&oracle);
//! // …and batched, thread-parallel serving through the engine.
//! let answers = QueryEngine::new().query_batch(&lca, &kind.queries(&graph));
//! assert_eq!(answers.len(), graph.edge_count());
//! assert!(oracle.counts().total() > 0);
//! ```

#![forbid(unsafe_code)]

pub use lca_baseline as baseline;
pub use lca_classic as classic;
pub use lca_core as core;
pub use lca_graph as graph;
pub use lca_lowerbound as lowerbound;
pub use lca_probe as probe;
pub use lca_rand as rand;

pub mod family;
pub mod registry;
pub mod source;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use lca_core::{
        DynQuery, EdgeSubgraphLca, FiveSpanner, FiveSpannerParams, K2Params, K2Spanner, Lca,
        LcaError, QueryBudget, QueryCtx, QueryEngine, ThreeSpanner, ThreeSpannerParams,
        VertexSubsetLca, WithBudget,
    };
    pub use lca_graph::gen::{GnmBuilder, GnpBuilder, RegularBuilder};
    pub use lca_graph::implicit::{
        ImplicitChungLu, ImplicitGnp, ImplicitGrid, ImplicitHypercube, ImplicitOracle,
        ImplicitRegular, ImplicitTorus, ListStore,
    };
    // `Oracle` is defined in `lca-graph` (the crate owning both backing
    // stores); `lca-probe` re-exports it for the accounting wrappers.
    pub use lca_graph::{Graph, GraphBuilder, Oracle, ProbeCost, VertexId};
    // `shard_for_*` is the workspace's one deterministic placement
    // function: memo shards, the serve registry's shards, and the fleet
    // gateway's session→backend routing all agree through it.
    pub use lca_probe::{
        shard_for_key, shard_for_str, CachedOracle, CountingOracle, MemoOracle, ProbeCounts,
    };
    pub use lca_rand::Seed;

    pub use crate::family::{BoxedImplicitOracle, ImplicitFamily};
    pub use crate::registry::{AlgorithmKind, ClassicKind, LcaBuilder, LcaConfig, SpannerKind};
    pub use crate::source::QuerySource;
}
