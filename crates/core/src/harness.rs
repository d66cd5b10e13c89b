//! The serial probe-measurement loop and the results built on it.
//!
//! [`meter`] is the one place a query is metered: it opens a
//! [`CountingOracle`] scope per query and records the query's answer and
//! probe cost. The serial harness here, every measuring shard of
//! [`crate::QueryEngine`] and the bench binaries all run on it.

use lca_graph::{Graph, Subgraph, VertexId};
use lca_probe::{CountingOracle, MemoOracle, Oracle, ProbeCounts};

use crate::{EdgeSubgraphLca, LcaError};

/// What [`meter`] returns: each query's answer and probe cost, in query
/// order, and the probes of the whole run by kind.
#[derive(Debug, Clone)]
pub struct Metered<A> {
    /// The answers, in query order.
    pub answers: Vec<A>,
    /// Probes each query spent, in query order.
    pub costs: Vec<u64>,
    /// Probes across all queries, by kind.
    pub total: ProbeCounts,
}

impl<A> Metered<A> {
    /// Maximum probes spent on one query — the paper's *probe complexity*
    /// (`0` for no queries).
    pub fn per_query_max(&self) -> u64 {
        self.costs.iter().copied().max().unwrap_or(0)
    }

    /// Mean probes per query (`0.0` for no queries).
    pub fn per_query_mean(&self) -> f64 {
        if self.costs.is_empty() {
            0.0
        } else {
            self.costs.iter().sum::<u64>() as f64 / self.costs.len() as f64
        }
    }
}

/// Runs `answer` on each query in order, metering each one through its own
/// `counter` scope. Every probe `answer` makes must flow through `counter`.
///
/// ```
/// use lca_core::{meter, EdgeSubgraphLca, ThreeSpanner};
/// use lca_graph::gen::GnpBuilder;
/// use lca_probe::CountingOracle;
/// use lca_rand::Seed;
///
/// let g = GnpBuilder::new(80, 0.3).seed(Seed::new(1)).build();
/// let counter = CountingOracle::new(&g);
/// let lca = ThreeSpanner::with_defaults(&counter, Seed::new(2));
/// let run = meter(&counter, g.edges().take(10), |(u, v)| lca.contains(u, v));
/// assert_eq!(run.answers.len(), 10);
/// assert_eq!(run.costs.iter().sum::<u64>(), run.total.total());
/// ```
pub fn meter<O, Q, A>(
    counter: &CountingOracle<O>,
    queries: impl IntoIterator<Item = Q>,
    mut answer: impl FnMut(Q) -> A,
) -> Metered<A>
where
    O: Oracle,
{
    let start = counter.counts();
    let mut answers = Vec::new();
    let mut costs = Vec::new();
    for q in queries {
        let scope = counter.scoped();
        answers.push(answer(q));
        costs.push(scope.cost().total());
    }
    Metered {
        answers,
        costs,
        total: counter.counts().since(start),
    }
}

/// Probe accounting for one shard of a measured run.
#[derive(Debug, Clone, Copy)]
pub struct ShardCounts {
    /// Shard index (shards partition the queries contiguously).
    pub shard: usize,
    /// Number of queries this shard answered.
    pub queries: usize,
    /// Maximum probes spent on a single query within the shard.
    pub per_query_max: u64,
    /// Total probes of the shard, by kind.
    pub counts: ProbeCounts,
}

/// The outcome of a measured query batch: per-query answers in input order
/// plus per-shard and aggregate probe statistics.
#[derive(Debug)]
pub struct MeasuredBatch {
    /// [`crate::Lca::name`] of the measured algorithm.
    pub algorithm: &'static str,
    /// Per-query answers, in input order.
    pub answers: Vec<Result<bool, LcaError>>,
    /// Maximum probes spent on a single query, across all shards.
    pub per_query_max: u64,
    /// Mean probes per query.
    pub per_query_mean: f64,
    /// Aggregate probes across all shards, by kind.
    pub total: ProbeCounts,
    /// Per-shard accounting, in shard order.
    pub per_shard: Vec<ShardCounts>,
}

impl MeasuredBatch {
    /// Joins metered shards, given in input order.
    pub(crate) fn from_shards(
        algorithm: &'static str,
        shards: Vec<Metered<Result<bool, LcaError>>>,
    ) -> MeasuredBatch {
        let mut all = Metered {
            answers: Vec::new(),
            costs: Vec::new(),
            total: ProbeCounts::default(),
        };
        let mut per_shard = Vec::with_capacity(shards.len());
        for (shard, run) in shards.into_iter().enumerate() {
            per_shard.push(ShardCounts {
                shard,
                queries: run.costs.len(),
                per_query_max: run.per_query_max(),
                counts: run.total,
            });
            all.answers.extend(run.answers);
            all.costs.extend(run.costs);
            all.total = all.total + run.total;
        }
        MeasuredBatch {
            algorithm,
            per_query_max: all.per_query_max(),
            per_query_mean: all.per_query_mean(),
            total: all.total,
            answers: all.answers,
            per_shard,
        }
    }

    /// Number of YES answers in the batch.
    pub fn yes_count(&self) -> usize {
        self.answers.iter().filter(|a| **a == Ok(true)).count()
    }

    /// The run over `graph`'s edge queries `edges` that this batch
    /// answered: its YES edges become the kept subgraph.
    ///
    /// # Errors
    ///
    /// The first per-query [`LcaError`], in query order.
    pub(crate) fn into_run(
        self,
        graph: &Graph,
        edges: &[(VertexId, VertexId)],
    ) -> Result<SpannerRun, LcaError> {
        Ok(SpannerRun {
            algorithm: self.algorithm,
            kept: kept_subgraph(graph, edges, self.answers)?,
            per_query_max: self.per_query_max,
            per_query_mean: self.per_query_mean,
            total: self.total,
            queries: edges.len(),
            per_shard: self.per_shard,
        })
    }
}

/// The subgraph of the `edges` answered YES.
///
/// # Errors
///
/// The first [`LcaError`] among `answers`, in query order.
pub(crate) fn kept_subgraph(
    graph: &Graph,
    edges: &[(VertexId, VertexId)],
    answers: impl IntoIterator<Item = Result<bool, LcaError>>,
) -> Result<Subgraph, LcaError> {
    let mut kept = Vec::new();
    for (&edge, answer) in edges.iter().zip(answers) {
        if answer? {
            kept.push(edge);
        }
    }
    Ok(Subgraph::from_edges(graph, kept))
}

/// The outcome of replaying every edge query of a graph through an LCA.
///
/// `per_query_max` is the paper's *probe complexity* (maximum probes over
/// queries); `per_query_mean` the average; `kept` the materialized spanner.
#[derive(Debug)]
pub struct SpannerRun {
    /// [`crate::Lca::name`] of the measured algorithm.
    pub algorithm: &'static str,
    /// The subgraph described by the LCA's YES answers.
    pub kept: Subgraph,
    /// Maximum probes spent on a single edge query.
    pub per_query_max: u64,
    /// Mean probes per edge query.
    pub per_query_mean: f64,
    /// Total probes across all queries, by kind.
    pub total: ProbeCounts,
    /// Number of edge queries issued (= m).
    pub queries: usize,
    /// Per-shard accounting, in shard order: one shard for a serial run,
    /// one per worker chunk for [`crate::QueryEngine::measure_queries`].
    pub per_shard: Vec<ShardCounts>,
}

impl SpannerRun {
    /// Fraction of host edges kept.
    ///
    /// **Convention:** on an empty graph the ratio is `0/0`, which this
    /// method reports as [`f64::NAN`] — "no edges were kept" (`0.0`) would
    /// wrongly read as aggressive sparsification, and "everything was kept"
    /// (`1.0`) as no sparsification, when in fact there was nothing to
    /// decide. Callers that format reports should render `NaN` as `-`.
    pub fn keep_ratio(&self, graph: &Graph) -> f64 {
        if graph.edge_count() == 0 {
            f64::NAN
        } else {
            self.kept.edge_count() as f64 / graph.edge_count() as f64
        }
    }
}

/// Queries the LCA on every edge of `graph` (whose probes must flow through
/// `counter`) and returns the materialized subgraph plus probe statistics,
/// as one shard.
///
/// # Errors
///
/// Propagates the first [`LcaError`] in query order (which, on a
/// well-formed run over `graph.edges()`, indicates an LCA bug).
pub fn measure_queries<O: Oracle, L: EdgeSubgraphLca>(
    graph: &Graph,
    counter: &CountingOracle<O>,
    lca: &L,
) -> Result<SpannerRun, LcaError> {
    let edges: Vec<(VertexId, VertexId)> = graph.edges().collect();
    let run = meter(counter, edges.iter().copied(), |e| lca.query(e));
    MeasuredBatch::from_shards(lca.name(), vec![run]).into_run(graph, &edges)
}

/// A [`SpannerRun`] extended with the *distinct*-probe measure: repeated
/// probes within one query are free, modelling the per-query read-write
/// local memory of Definition 1.4 (see [`MemoOracle`]).
#[derive(Debug)]
pub struct DistinctRun {
    /// The raw-probe measurement (every probe counted).
    pub run: SpannerRun,
    /// Maximum *distinct* probes over the queries.
    pub distinct_max: usize,
    /// Mean distinct probes per query.
    pub distinct_mean: f64,
    /// Total distinct probes across all queries.
    pub distinct_total: u64,
}

/// Like [`measure_queries`], but additionally reports distinct-probe
/// statistics: each query runs against a freshly cleared memo, so the
/// cache models per-query memory rather than a persistent data structure.
///
/// The oracle wiring is `graph → memo → counter → lca`, and the signature
/// enforces it: the counter must wrap a [`MemoOracle`], from which the
/// harness reaches the memo itself. Every probe the LCA issues is counted
/// *raw* by `counter`, then deduplicated by the memo underneath, whose
/// [`MemoOracle::distinct_probes`] yields the per-query distinct measure.
/// (Caching below the counter cannot change any answer, so both measures
/// describe the same run.)
///
/// ```
/// use lca_core::{measure_queries_distinct, ThreeSpanner};
/// use lca_graph::gen::GnpBuilder;
/// use lca_probe::{CountingOracle, MemoOracle};
/// use lca_rand::Seed;
///
/// let g = GnpBuilder::new(80, 0.3).seed(Seed::new(1)).build();
/// let memo = MemoOracle::new(&g);
/// let counter = CountingOracle::new(&memo);
/// let lca = ThreeSpanner::with_defaults(&counter, Seed::new(2));
/// let d = measure_queries_distinct(&g, &counter, &lca)?;
/// assert!(d.distinct_total <= d.run.total.total());
/// # Ok::<(), lca_core::LcaError>(())
/// ```
///
/// # Errors
///
/// Propagates the first [`LcaError`] in query order.
pub fn measure_queries_distinct<O, L>(
    graph: &Graph,
    counter: &CountingOracle<&MemoOracle<O>>,
    lca: &L,
) -> Result<DistinctRun, LcaError>
where
    O: Oracle,
    L: EdgeSubgraphLca,
{
    let memo: &MemoOracle<O> = counter.inner();
    let edges: Vec<(VertexId, VertexId)> = graph.edges().collect();
    let metered = meter(counter, edges.iter().copied(), |e| {
        // The memo sits below the counter, so clearing it probes nothing.
        memo.clear();
        let answer = lca.query(e);
        (answer, memo.distinct_probes())
    });
    let (answers, distinct): (Vec<_>, Vec<usize>) = metered.answers.into_iter().unzip();
    let raw = Metered {
        answers,
        costs: metered.costs,
        total: metered.total,
    };
    let distinct_total: u64 = distinct.iter().map(|&d| d as u64).sum();
    Ok(DistinctRun {
        run: MeasuredBatch::from_shards(lca.name(), vec![raw]).into_run(graph, &edges)?,
        distinct_max: distinct.iter().copied().max().unwrap_or(0),
        distinct_mean: if distinct.is_empty() {
            0.0
        } else {
            distinct_total as f64 / distinct.len() as f64
        },
        distinct_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ThreeSpanner, ThreeSpannerParams};
    use lca_graph::gen::GnpBuilder;
    use lca_rand::Seed;

    #[test]
    fn measure_counts_probes_and_keeps_edges() {
        let g = GnpBuilder::new(60, 0.3).seed(Seed::new(1)).build();
        let counter = CountingOracle::new(&g);
        let lca = ThreeSpanner::new(&counter, ThreeSpannerParams::for_n(60), Seed::new(2));
        let run = measure_queries(&g, &counter, &lca).unwrap();
        assert_eq!(run.algorithm, "three-spanner");
        assert_eq!(run.queries, g.edge_count());
        assert!(run.per_query_max >= 1);
        assert!(run.per_query_mean > 0.0);
        assert!(run.total.total() > 0);
        assert!(run.kept.edge_count() > 0);
        assert!(run.keep_ratio(&g) <= 1.0);
    }

    #[test]
    fn materialize_matches_measure() {
        let g = GnpBuilder::new(40, 0.4).seed(Seed::new(3)).build();
        let counter = CountingOracle::new(&g);
        let lca = ThreeSpanner::new(&counter, ThreeSpannerParams::for_n(40), Seed::new(4));
        let run = measure_queries(&g, &counter, &lca).unwrap();
        let sub = crate::QueryEngine::serial().materialize(&g, &lca).unwrap();
        assert_eq!(run.kept.edge_count(), sub.edge_count());
        for (u, v) in sub.edges() {
            assert!(run.kept.has_edge(u, v));
        }
    }

    #[test]
    fn empty_graph_yields_empty_run_and_nan_ratio() {
        let g = lca_graph::GraphBuilder::new(5).build().unwrap();
        let counter = CountingOracle::new(&g);
        let lca = ThreeSpanner::new(&counter, ThreeSpannerParams::for_n(5), Seed::new(0));
        let run = measure_queries(&g, &counter, &lca).unwrap();
        assert_eq!(run.queries, 0);
        assert_eq!(run.per_query_max, 0);
        assert_eq!(run.kept.edge_count(), 0);
        // The documented convention: 0/0 edges kept is undefined, not 0.0.
        assert!(run.keep_ratio(&g).is_nan());
    }

    #[test]
    fn distinct_mode_reports_both_measures_consistently() {
        let n = 60;
        let g = GnpBuilder::new(n, 0.3).seed(Seed::new(7)).build();
        let seed = Seed::new(8);
        let params = ThreeSpannerParams::for_n(n);

        let memo = MemoOracle::new(&g);
        let counter = CountingOracle::new(&memo);
        let lca = ThreeSpanner::new(&counter, params.clone(), seed);
        let d = measure_queries_distinct(&g, &counter, &lca).unwrap();

        // Distinct probes can never exceed raw probes.
        assert!(d.distinct_total <= d.run.total.total());
        assert!((d.distinct_max as u64) <= d.run.per_query_max);
        assert!(d.distinct_mean <= d.run.per_query_mean);
        assert!(d.distinct_total > 0);

        // Memoization must not change any answer: same spanner as a plain
        // run over an uncached oracle.
        let counter2 = CountingOracle::new(&g);
        let plain = ThreeSpanner::new(&counter2, params, seed);
        let run = measure_queries(&g, &counter2, &plain).unwrap();
        assert_eq!(run.kept.edge_count(), d.run.kept.edge_count());
        for (u, v) in run.kept.edges() {
            assert!(d.run.kept.has_edge(u, v));
        }
    }
}
