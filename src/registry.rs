//! Algorithm registry and uniform construction.
//!
//! Every LCA in the workspace — three spanners and four classic algorithms —
//! is registered here under an [`AlgorithmKind`], constructible from
//! `(oracle, kind, seed)` through [`LcaBuilder`] (or a typed [`LcaConfig`]),
//! and served behind one object type, [`DynLca`], that answers type-erased
//! [`DynQuery`] batches through the [`QueryEngine`](lca_core::QueryEngine).
//!
//! ```
//! use lca::registry::{AlgorithmKind, LcaBuilder};
//! use lca::prelude::*;
//!
//! let graph = GnpBuilder::new(120, 0.2).seed(Seed::new(1)).build();
//! for kind in AlgorithmKind::all() {
//!     let algo = LcaBuilder::new(kind).seed(Seed::new(7)).build(&graph);
//!     let queries = kind.queries(&graph);
//!     let answers = QueryEngine::new().query_batch(&algo, &queries);
//!     assert!(answers.iter().all(|a| a.is_ok()), "{}", algo.name());
//! }
//! ```

use lca_classic::{ColoringLca, MatchingLca, MisLca, VertexCoverLca};
use lca_core::{
    DynEdgeLca, DynQuery, DynVertexLca, EdgeSubgraphLca, FiveSpanner, FiveSpannerParams, K2Params,
    K2Spanner, Lca, QueryBudget, QueryKind, ThreeSpanner, ThreeSpannerParams, WithBudget,
};
// `Oracle` lives in `lca-graph` since the implicit-oracle work; `lca-probe`
// re-exports it unchanged for the accounting wrappers.
use lca_graph::{Graph, Oracle};
use lca_rand::Seed;

use crate::source::QuerySource;

/// The spanner constructions of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpannerKind {
    /// [`ThreeSpanner`] — stretch 3, Õ(n^{3/4}) probes (Thm 1.1, r = 2).
    Three,
    /// [`FiveSpanner`] — stretch 5, Õ(n^{5/6}) probes (Thm 1.1, r = 3).
    Five,
    /// [`K2Spanner`] — stretch O(k²) on bounded degree (Thm 1.2).
    K2,
}

/// The classic vertex-subset LCAs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassicKind {
    /// [`MisLca`] — maximal independent set.
    Mis,
    /// [`MatchingLca`] — maximal matching ("is `v` matched?").
    Matching,
    /// [`VertexCoverLca`] — 2-approximate vertex cover.
    VertexCover,
    /// [`ColoringLca`] — greedy (∆+1)-coloring (class-0 membership).
    Coloring,
}

/// Every algorithm the registry can construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// A spanner LCA (edge-subgraph queries).
    Spanner(SpannerKind),
    /// A classic LCA (vertex-subset queries).
    Classic(ClassicKind),
}

impl AlgorithmKind {
    /// Enumerates all registered algorithms, spanners first.
    pub fn all() -> [AlgorithmKind; 7] {
        [
            AlgorithmKind::Spanner(SpannerKind::Three),
            AlgorithmKind::Spanner(SpannerKind::Five),
            AlgorithmKind::Spanner(SpannerKind::K2),
            AlgorithmKind::Classic(ClassicKind::Mis),
            AlgorithmKind::Classic(ClassicKind::Matching),
            AlgorithmKind::Classic(ClassicKind::VertexCover),
            AlgorithmKind::Classic(ClassicKind::Coloring),
        ]
    }

    /// The registered name, matching [`Lca::name`] of the built instance.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::Spanner(SpannerKind::Three) => "three-spanner",
            AlgorithmKind::Spanner(SpannerKind::Five) => "five-spanner",
            AlgorithmKind::Spanner(SpannerKind::K2) => "k2-spanner",
            AlgorithmKind::Classic(ClassicKind::Mis) => "mis",
            AlgorithmKind::Classic(ClassicKind::Matching) => "maximal-matching",
            AlgorithmKind::Classic(ClassicKind::VertexCover) => "vertex-cover",
            AlgorithmKind::Classic(ClassicKind::Coloring) => "greedy-coloring",
        }
    }

    /// Looks an algorithm up by its registered name.
    pub fn from_name(name: &str) -> Option<AlgorithmKind> {
        AlgorithmKind::all().into_iter().find(|k| k.name() == name)
    }

    /// Parses an algorithm name as written by humans and wire protocols:
    /// the registered [`AlgorithmKind::name`] plus the short aliases below,
    /// case-insensitively.
    ///
    /// | kind | accepted spellings |
    /// |------|--------------------|
    /// | 3-spanner | `three-spanner`, `spanner3`, `three` |
    /// | 5-spanner | `five-spanner`, `spanner5`, `five` |
    /// | O(k²)-spanner | `k2-spanner`, `spanner-k2`, `k2` |
    /// | MIS | `mis` |
    /// | maximal matching | `maximal-matching`, `matching` |
    /// | vertex cover | `vertex-cover`, `vc` |
    /// | coloring | `greedy-coloring`, `coloring` |
    ///
    /// ```
    /// use lca::registry::{AlgorithmKind, ClassicKind, SpannerKind};
    ///
    /// let mis = AlgorithmKind::parse("mis").unwrap();
    /// assert_eq!(mis, AlgorithmKind::Classic(ClassicKind::Mis));
    /// let s3 = AlgorithmKind::parse("Spanner3").unwrap();
    /// assert_eq!(s3, AlgorithmKind::Spanner(SpannerKind::Three));
    /// assert!(AlgorithmKind::parse("nope").is_none());
    /// ```
    pub fn parse(name: &str) -> Option<AlgorithmKind> {
        use AlgorithmKind::{Classic, Spanner};
        const ALIASES: &[(&str, AlgorithmKind)] = &[
            ("three-spanner", Spanner(SpannerKind::Three)),
            ("spanner3", Spanner(SpannerKind::Three)),
            ("three", Spanner(SpannerKind::Three)),
            ("five-spanner", Spanner(SpannerKind::Five)),
            ("spanner5", Spanner(SpannerKind::Five)),
            ("five", Spanner(SpannerKind::Five)),
            ("k2-spanner", Spanner(SpannerKind::K2)),
            ("spanner-k2", Spanner(SpannerKind::K2)),
            ("k2", Spanner(SpannerKind::K2)),
            ("mis", Classic(ClassicKind::Mis)),
            ("maximal-matching", Classic(ClassicKind::Matching)),
            ("matching", Classic(ClassicKind::Matching)),
            ("vertex-cover", Classic(ClassicKind::VertexCover)),
            ("vc", Classic(ClassicKind::VertexCover)),
            ("greedy-coloring", Classic(ClassicKind::Coloring)),
            ("coloring", Classic(ClassicKind::Coloring)),
        ];
        // Compared in place: the serving daemon parses a kind per
        // spec-bearing request and allocates nothing for it.
        ALIASES
            .iter()
            .find(|(alias, _)| alias.eq_ignore_ascii_case(name))
            .map(|&(_, kind)| kind)
    }

    /// The query shape the algorithm serves.
    pub fn query_kind(self) -> QueryKind {
        match self {
            AlgorithmKind::Spanner(_) => QueryKind::Edge,
            AlgorithmKind::Classic(_) => QueryKind::Vertex,
        }
    }

    /// The full query set of this algorithm on `graph`: every edge for
    /// spanners, every vertex for classic LCAs.
    ///
    /// Requires a materialized [`Graph`]; to draw queries from *any* oracle
    /// (in particular an implicit one), use [`AlgorithmKind::queries_from`]
    /// with a [`QuerySource`].
    pub fn queries(self, graph: &Graph) -> Vec<DynQuery> {
        match self.query_kind() {
            QueryKind::Edge => graph.edges().map(|(u, v)| DynQuery::Edge(u, v)).collect(),
            QueryKind::Vertex => graph.vertices().map(DynQuery::Vertex).collect(),
        }
    }

    /// The query batch drawn from an arbitrary [`Oracle`] through a
    /// [`QuerySource`] — the no-`Graph` generalization of
    /// [`AlgorithmKind::queries`].
    pub fn queries_from<O: Oracle>(self, oracle: &O, source: QuerySource) -> Vec<DynQuery> {
        source.queries(self, oracle)
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A registry-built algorithm: one object type answering [`DynQuery`]s,
/// shareable across the [`QueryEngine`](lca_core::QueryEngine)'s workers.
pub type DynLca<'a> = Box<dyn Lca<Query = DynQuery, Answer = bool> + Send + Sync + 'a>;

/// A registry-built spanner behind the edge-subgraph interface (for
/// harnesses that need [`EdgeSubgraphLca::stretch_bound`] or
/// [`lca_core::measure_queries`]).
pub type DynSpanner<'a> = Box<dyn EdgeSubgraphLca + Send + Sync + 'a>;

/// Typed construction parameters: which algorithm, which seed, and optional
/// per-kind parameter overrides (paper defaults otherwise).
#[derive(Debug, Clone)]
pub struct LcaConfig {
    /// Which algorithm to construct.
    pub kind: AlgorithmKind,
    /// The shared seed fixing the global solution.
    pub seed: Seed,
    /// Stretch parameter for [`SpannerKind::K2`] (default 2).
    pub k: usize,
    /// Override for the 3-spanner parameters.
    pub three: Option<ThreeSpannerParams>,
    /// Override for the 5-spanner parameters.
    pub five: Option<FiveSpannerParams>,
    /// Override for the O(k²)-spanner parameters (takes precedence over
    /// [`LcaConfig::k`]).
    pub k2: Option<K2Params>,
    /// Default per-query budget of the built instance (unlimited by
    /// default). Plain `query()` calls run under it; an explicit
    /// `query_ctx` context always wins.
    pub budget: QueryBudget,
}

impl LcaConfig {
    /// A config with paper-default parameters.
    pub fn new(kind: AlgorithmKind, seed: Seed) -> Self {
        Self {
            kind,
            seed,
            k: 2,
            three: None,
            five: None,
            k2: None,
            budget: QueryBudget::unlimited(),
        }
    }

    fn three_params(&self, n: usize) -> ThreeSpannerParams {
        self.three
            .clone()
            .unwrap_or_else(|| ThreeSpannerParams::for_n(n))
    }

    fn five_params(&self, n: usize) -> FiveSpannerParams {
        self.five
            .clone()
            .unwrap_or_else(|| FiveSpannerParams::for_n(n))
    }

    fn k2_params(&self, n: usize) -> K2Params {
        self.k2
            .clone()
            .unwrap_or_else(|| K2Params::for_n(n, self.k))
    }

    /// Constructs the configured algorithm over `oracle`.
    ///
    /// The oracle is taken by value; pass a reference (`&graph`,
    /// `&counting_oracle`) to share one across instances. `Clone` is
    /// required by the vertex-cover construction and trivially satisfied by
    /// references.
    pub fn build<'o, O>(&self, oracle: O) -> DynLca<'o>
    where
        O: Oracle + Clone + Send + Sync + 'o,
    {
        let algo = self.build_raw(oracle);
        if self.budget.is_unlimited() {
            algo
        } else {
            Box::new(WithBudget::new(algo, self.budget.clone()))
        }
    }

    fn build_raw<'o, O>(&self, oracle: O) -> DynLca<'o>
    where
        O: Oracle + Clone + Send + Sync + 'o,
    {
        let n = oracle.vertex_count();
        match self.kind {
            AlgorithmKind::Spanner(SpannerKind::Three) => Box::new(DynEdgeLca(ThreeSpanner::new(
                oracle,
                self.three_params(n),
                self.seed,
            ))),
            AlgorithmKind::Spanner(SpannerKind::Five) => Box::new(DynEdgeLca(FiveSpanner::new(
                oracle,
                self.five_params(n),
                self.seed,
            ))),
            AlgorithmKind::Spanner(SpannerKind::K2) => Box::new(DynEdgeLca(K2Spanner::new(
                oracle,
                self.k2_params(n),
                self.seed,
            ))),
            AlgorithmKind::Classic(ClassicKind::Mis) => {
                Box::new(DynVertexLca(MisLca::new(oracle, self.seed)))
            }
            AlgorithmKind::Classic(ClassicKind::Matching) => {
                Box::new(DynVertexLca(MatchingLca::new(oracle, self.seed)))
            }
            AlgorithmKind::Classic(ClassicKind::VertexCover) => {
                Box::new(DynVertexLca(VertexCoverLca::new(oracle, self.seed)))
            }
            AlgorithmKind::Classic(ClassicKind::Coloring) => {
                Box::new(DynVertexLca(ColoringLca::new(oracle, self.seed)))
            }
        }
    }

    /// Constructs the configured algorithm behind the [`EdgeSubgraphLca`]
    /// interface; `None` for classic (vertex-query) algorithms.
    pub fn build_spanner<'o, O>(&self, oracle: O) -> Option<DynSpanner<'o>>
    where
        O: Oracle + Clone + Send + Sync + 'o,
    {
        let n = oracle.vertex_count();
        let spanner: DynSpanner<'o> = match self.kind {
            AlgorithmKind::Spanner(SpannerKind::Three) => {
                Box::new(ThreeSpanner::new(oracle, self.three_params(n), self.seed))
            }
            AlgorithmKind::Spanner(SpannerKind::Five) => {
                Box::new(FiveSpanner::new(oracle, self.five_params(n), self.seed))
            }
            AlgorithmKind::Spanner(SpannerKind::K2) => {
                Box::new(K2Spanner::new(oracle, self.k2_params(n), self.seed))
            }
            AlgorithmKind::Classic(_) => return None,
        };
        Some(if self.budget.is_unlimited() {
            spanner
        } else {
            Box::new(WithBudget::new(spanner, self.budget.clone()))
        })
    }
}

/// Fluent construction of any registered algorithm.
///
/// ```
/// use lca::registry::{AlgorithmKind, ClassicKind, LcaBuilder};
/// use lca::prelude::*;
///
/// let g = GnpBuilder::new(60, 0.1).seed(Seed::new(3)).build();
/// let mis = LcaBuilder::new(AlgorithmKind::Classic(ClassicKind::Mis))
///     .seed(Seed::new(9))
///     .build(&g);
/// let v = lca::graph::VertexId::new(0);
/// let _in_mis = mis.query(lca::core::DynQuery::Vertex(v)).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct LcaBuilder {
    config: LcaConfig,
}

impl LcaBuilder {
    /// Starts a builder for `kind` with seed 0 and paper-default parameters.
    pub fn new(kind: AlgorithmKind) -> Self {
        Self {
            config: LcaConfig::new(kind, Seed::new(0)),
        }
    }

    /// Sets the seed fixing the global solution.
    pub fn seed(mut self, seed: Seed) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the stretch parameter `k` for [`SpannerKind::K2`].
    pub fn k(mut self, k: usize) -> Self {
        self.config.k = k;
        self
    }

    /// Overrides the 3-spanner parameters.
    pub fn three_params(mut self, p: ThreeSpannerParams) -> Self {
        self.config.three = Some(p);
        self
    }

    /// Overrides the 5-spanner parameters.
    pub fn five_params(mut self, p: FiveSpannerParams) -> Self {
        self.config.five = Some(p);
        self
    }

    /// Overrides the O(k²)-spanner parameters.
    pub fn k2_params(mut self, p: K2Params) -> Self {
        self.config.k2 = Some(p);
        self
    }

    /// Caps every plain `query()` of the built instance at `n` probes —
    /// over-budget queries return
    /// [`LcaError::BudgetExhausted`](lca_core::LcaError::BudgetExhausted)
    /// instead of running long. Explicit `query_ctx` contexts still win.
    pub fn max_probes(mut self, n: u64) -> Self {
        self.config.budget.max_probes = Some(n);
        self
    }

    /// Adds a per-query wall-clock allowance to the default budget.
    pub fn query_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.config.budget.timeout = Some(timeout);
        self
    }

    /// Replaces the whole default [`QueryBudget`].
    pub fn budget(mut self, budget: QueryBudget) -> Self {
        self.config.budget = budget;
        self
    }

    /// The accumulated typed config.
    pub fn config(&self) -> &LcaConfig {
        &self.config
    }

    /// Builds the algorithm over `oracle` (see [`LcaConfig::build`]).
    pub fn build<'o, O>(&self, oracle: O) -> DynLca<'o>
    where
        O: Oracle + Clone + Send + Sync + 'o,
    {
        self.config.build(oracle)
    }

    /// Builds a spanner behind [`EdgeSubgraphLca`]; `None` for classic
    /// kinds (see [`LcaConfig::build_spanner`]).
    pub fn build_spanner<'o, O>(&self, oracle: O) -> Option<DynSpanner<'o>>
    where
        O: Oracle + Clone + Send + Sync + 'o,
    {
        self.config.build_spanner(oracle)
    }

    /// The query batch for this builder's algorithm, drawn from any oracle
    /// through a [`QuerySource`] — no materialized `Graph` required.
    ///
    /// ```
    /// use lca::prelude::*;
    /// use lca::graph::implicit::ImplicitGnp;
    ///
    /// let oracle = ImplicitGnp::new(100_000_000, 4.0, Seed::new(1));
    /// let builder = LcaBuilder::new(AlgorithmKind::Classic(ClassicKind::Mis));
    /// let queries = builder.queries(&oracle, QuerySource::sample(16, Seed::new(2)));
    /// let mis = builder.build(&oracle);
    /// let answers = QueryEngine::new().query_batch(&mis, &queries);
    /// assert!(answers.iter().all(|a| a.is_ok()));
    /// ```
    pub fn queries<O: Oracle>(&self, oracle: &O, source: QuerySource) -> Vec<DynQuery> {
        source.queries(self.config.kind, oracle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lca_core::LcaError;
    use lca_graph::gen::{GnpBuilder, RegularBuilder};
    use lca_graph::VertexId;

    #[test]
    fn all_seven_algorithms_are_registered_with_unique_names() {
        let kinds = AlgorithmKind::all();
        assert_eq!(kinds.len(), 7);
        let names: std::collections::HashSet<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 7);
        for kind in kinds {
            assert_eq!(AlgorithmKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(AlgorithmKind::from_name("nope"), None);
    }

    #[test]
    fn parse_round_trips_every_registered_name() {
        for kind in AlgorithmKind::all() {
            // The canonical name parses back to the same kind…
            assert_eq!(AlgorithmKind::parse(kind.name()), Some(kind));
            // …case-insensitively…
            assert_eq!(
                AlgorithmKind::parse(&kind.name().to_ascii_uppercase()),
                Some(kind)
            );
            // …and a registry build from the parsed kind reports the name
            // we started from (full round trip through construction).
            let g = GnpBuilder::new(40, 0.2).seed(Seed::new(11)).build();
            let algo = LcaBuilder::new(AlgorithmKind::parse(kind.name()).unwrap())
                .seed(Seed::new(12))
                .build(&g);
            assert_eq!(algo.name(), kind.name());
        }
    }

    #[test]
    fn parse_accepts_protocol_aliases() {
        for (alias, expect) in [
            ("spanner3", AlgorithmKind::Spanner(SpannerKind::Three)),
            ("three", AlgorithmKind::Spanner(SpannerKind::Three)),
            ("spanner5", AlgorithmKind::Spanner(SpannerKind::Five)),
            ("five", AlgorithmKind::Spanner(SpannerKind::Five)),
            ("k2", AlgorithmKind::Spanner(SpannerKind::K2)),
            ("spanner-k2", AlgorithmKind::Spanner(SpannerKind::K2)),
            ("mis", AlgorithmKind::Classic(ClassicKind::Mis)),
            ("matching", AlgorithmKind::Classic(ClassicKind::Matching)),
            ("vc", AlgorithmKind::Classic(ClassicKind::VertexCover)),
            ("coloring", AlgorithmKind::Classic(ClassicKind::Coloring)),
            ("MIS", AlgorithmKind::Classic(ClassicKind::Mis)),
        ] {
            assert_eq!(AlgorithmKind::parse(alias), Some(expect), "{alias}");
        }
        assert_eq!(AlgorithmKind::parse("spanner"), None);
        assert_eq!(AlgorithmKind::parse(""), None);
    }

    #[test]
    fn built_instances_report_registry_names() {
        let g = RegularBuilder::new(40, 4)
            .seed(Seed::new(1))
            .build()
            .unwrap();
        for kind in AlgorithmKind::all() {
            let algo = LcaBuilder::new(kind).seed(Seed::new(2)).build(&g);
            assert_eq!(algo.name(), kind.name());
            assert_ne!(algo.probe_bound(), "unspecified", "{}", kind.name());
        }
    }

    #[test]
    fn queries_match_query_kind_and_answer() {
        let g = GnpBuilder::new(50, 0.15).seed(Seed::new(4)).build();
        for kind in AlgorithmKind::all() {
            let algo = LcaBuilder::new(kind).seed(Seed::new(5)).build(&g);
            let queries = kind.queries(&g);
            for q in queries {
                assert_eq!(q.kind(), kind.query_kind());
                algo.query(q).unwrap();
            }
        }
    }

    #[test]
    fn wrong_query_shape_is_rejected_not_answered() {
        let g = GnpBuilder::new(30, 0.2).seed(Seed::new(6)).build();
        let spanner = LcaBuilder::new(AlgorithmKind::Spanner(SpannerKind::Three)).build(&g);
        let classic = LcaBuilder::new(AlgorithmKind::Classic(ClassicKind::Mis)).build(&g);
        let v = DynQuery::Vertex(VertexId::new(0));
        let (a, b) = g.edge_endpoints(0);
        let e = DynQuery::Edge(a, b);
        assert!(matches!(
            spanner.query(v),
            Err(LcaError::UnsupportedQuery { .. })
        ));
        assert!(matches!(
            classic.query(e),
            Err(LcaError::UnsupportedQuery { .. })
        ));
    }

    #[test]
    fn build_spanner_exposes_stretch_bounds() {
        let g = RegularBuilder::new(60, 4)
            .seed(Seed::new(7))
            .build()
            .unwrap();
        let three = LcaConfig::new(AlgorithmKind::Spanner(SpannerKind::Three), Seed::new(8));
        assert_eq!(three.build_spanner(&g).unwrap().stretch_bound(), 3);
        let mis = LcaConfig::new(AlgorithmKind::Classic(ClassicKind::Mis), Seed::new(8));
        assert!(mis.build_spanner(&g).is_none());
    }

    #[test]
    fn config_overrides_are_honored() {
        let g = GnpBuilder::new(40, 0.3).seed(Seed::new(9)).build();
        let mut p = ThreeSpannerParams::for_n(40);
        p.low_threshold = 1_000_000; // everything is low-degree → keep all
        let algo = LcaBuilder::new(AlgorithmKind::Spanner(SpannerKind::Three))
            .seed(Seed::new(10))
            .three_params(p)
            .build(&g);
        for (u, v) in g.edges() {
            assert!(algo.query(DynQuery::Edge(u, v)).unwrap());
        }
    }
}
