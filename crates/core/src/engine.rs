//! Batched, thread-parallel query serving.
//!
//! LCA queries are independent by construction (Definition 1.4: every answer
//! is a function of `(graph, seed, query)` alone), which makes them
//! embarrassingly parallel — the observation Rubinfeld–Tamir–Vardi–Xie make
//! when motivating the model for huge inputs. [`QueryEngine`] exploits it:
//! every runner splits its queries into contiguous shards, one per worker,
//! through one private helper, and joins the shards' results in input
//! order.
//!
//! * [`QueryEngine::query_batch`] answers a slice of queries against one
//!   shared `Send + Sync` oracle/LCA, in input order.
//! * [`QueryEngine::materialize`] runs every edge query of a graph through
//!   an [`EdgeSubgraphLca`] and assembles the spanner.
//! * [`QueryEngine::measure_batch`] and [`QueryEngine::measure_queries`] are
//!   the parallel counterparts of [`crate::measure_queries`]: each shard gets
//!   its *own* [`CountingOracle`] and its own LCA instance built by a
//!   caller-supplied factory from the same seed, and meters its chunk with
//!   the serial loop [`crate::meter`] — consistency guarantees all instances
//!   answer identically, and per-shard counters keep per-query probe costs
//!   exact (a shared counter would attribute concurrent probes to the wrong
//!   query). The result reports per-shard *and* aggregate [`ProbeCounts`].

use lca_graph::{Graph, Subgraph, VertexId};
use lca_probe::{CountingOracle, Oracle};

use crate::harness::{kept_subgraph, meter, MeasuredBatch, SpannerRun};
use crate::{EdgeSubgraphLca, Lca, LcaError, QueryBudget};

/// A thread pool policy for answering LCA query batches.
///
/// The engine holds no threads itself — it spawns scoped workers per batch,
/// so it is `Copy`-cheap to create and safe to share.
///
/// # Example
///
/// ```
/// use lca_core::{QueryEngine, ThreeSpanner};
/// use lca_graph::gen::GnpBuilder;
/// use lca_rand::Seed;
///
/// let g = GnpBuilder::new(200, 0.2).seed(Seed::new(1)).build();
/// let lca = ThreeSpanner::with_defaults(&g, Seed::new(2));
/// let queries: Vec<_> = g.edges().collect();
/// let answers = QueryEngine::new().query_batch(&lca, &queries);
/// assert_eq!(answers.len(), queries.len());
/// assert!(answers.into_iter().all(|a| a.is_ok()));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct QueryEngine {
    threads: usize,
}

impl Default for QueryEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryEngine {
    /// An engine using all available hardware parallelism.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self { threads }
    }

    /// An engine with an explicit worker count (`0` is clamped to `1`).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A single-threaded engine (useful as a baseline and in tests).
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// The number of worker threads the engine shards batches across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `items` into contiguous chunks of `len.div_ceil(threads)`,
    /// runs `run(shard_index, chunk)` on each, one scoped thread per chunk,
    /// and returns the results in input order. A single chunk runs on the
    /// calling thread.
    fn sharded<T, R>(&self, items: &[T], run: impl Fn(usize, &[T]) -> R + Sync) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        let shard_len = items.len().div_ceil(self.threads).max(1);
        let shards = items.chunks(shard_len).enumerate();
        if items.len() <= shard_len {
            return shards.map(|(index, chunk)| run(index, chunk)).collect();
        }
        std::thread::scope(|s| {
            let run = &run;
            let handles: Vec<_> = shards
                .map(|(index, chunk)| s.spawn(move || run(index, chunk)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("query engine worker panicked"))
                .collect()
        })
    }

    /// Answers a batch of queries against one shared LCA, in input order.
    ///
    /// Queries are split into contiguous shards, one per worker. Failures
    /// are per-query: a malformed query yields its own `Err` entry without
    /// disturbing the rest of the batch.
    pub fn query_batch<L>(&self, lca: &L, queries: &[L::Query]) -> Vec<Result<L::Answer, LcaError>>
    where
        L: Lca + Sync + ?Sized,
        L::Query: Clone + Sync,
        L::Answer: Send,
    {
        self.sharded(queries, |_, chunk| {
            chunk
                .iter()
                .map(|q| lca.query(q.clone()))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Answers a batch under a [`QueryBudget`]: every query gets a fresh
    /// [`QueryCtx`](crate::QueryCtx) with the budget's per-query probe cap
    /// and cancellation flag, and — unlike per-query minting — one
    /// *batch-wide* deadline derived from [`QueryBudget::timeout`] at entry,
    /// so the whole batch must land inside one wall-clock envelope.
    ///
    /// Failures stay per-query: a query that trips its context yields its
    /// own [`LcaError::BudgetExhausted`] (or deadline/cancel sibling) entry
    /// without disturbing the rest, and the report carries per-shard
    /// exhaustion statistics so a serving layer can see *where* the budget
    /// pressure landed.
    pub fn query_batch_budgeted<L>(
        &self,
        lca: &L,
        queries: &[L::Query],
        budget: &QueryBudget,
    ) -> BudgetedBatch<L::Answer>
    where
        L: Lca + Sync + ?Sized,
        L::Query: Clone + Sync,
        L::Answer: Send,
    {
        let deadline = budget.timeout.map(|t| std::time::Instant::now() + t);
        let shards = self.sharded(queries, |shard, chunk| {
            let mut stats = ShardBudget {
                shard,
                queries: chunk.len(),
                exhausted: 0,
                probes: 0,
                per_query_max: 0,
            };
            let answers: Vec<_> = chunk
                .iter()
                .map(|q| {
                    let ctx = budget.ctx_at(deadline);
                    let answer = lca.query_ctx(q.clone(), &ctx);
                    if matches!(&answer, Err(e) if e.is_budget()) {
                        stats.exhausted += 1;
                    }
                    let spent = ctx.spent();
                    stats.probes += spent;
                    stats.per_query_max = stats.per_query_max.max(spent);
                    answer
                })
                .collect();
            (answers, stats)
        });

        let mut batch = BudgetedBatch {
            answers: Vec::with_capacity(queries.len()),
            exhausted: 0,
            probes: 0,
            per_shard: Vec::with_capacity(shards.len()),
        };
        for (answers, stats) in shards {
            batch.exhausted += stats.exhausted;
            batch.probes += stats.probes;
            batch.answers.extend(answers);
            batch.per_shard.push(stats);
        }
        batch
    }

    /// Materializes the subgraph an [`EdgeSubgraphLca`] describes by
    /// answering every edge query of `graph` across the engine's workers
    /// (on the calling thread for [`QueryEngine::serial`]).
    ///
    /// # Errors
    ///
    /// Propagates the first [`LcaError`] in query order (which, on a
    /// well-formed run over `graph.edges()`, indicates an LCA bug).
    pub fn materialize<L>(&self, graph: &Graph, lca: &L) -> Result<Subgraph, LcaError>
    where
        L: EdgeSubgraphLca + Sync + ?Sized,
    {
        let edges: Vec<(VertexId, VertexId)> = graph.edges().collect();
        kept_subgraph(graph, &edges, self.query_batch(lca, &edges))
    }

    /// Replays every edge query of `graph` with full probe accounting:
    /// [`QueryEngine::measure_batch`] over `graph.edges()`, with the YES
    /// edges assembled into the kept subgraph.
    ///
    /// `make` builds one LCA instance per shard over that shard's private
    /// [`CountingOracle`] (wrap the same `(params, seed)`; Definition 1.4
    /// consistency makes all instances answer identically, and
    /// [`crate::verify::assert_query_consistency`]-style tests plus the
    /// engine-equivalence suite enforce it). Keeping the counter private to
    /// a shard is what makes `per_query_max` exact under parallelism.
    ///
    /// # Errors
    ///
    /// Propagates the first [`LcaError`] in query order.
    pub fn measure_queries<'g, O, F>(
        &self,
        graph: &'g Graph,
        base: &'g O,
        make: F,
    ) -> Result<SpannerRun, LcaError>
    where
        O: Oracle + Sync,
        F: for<'c> Fn(&'c CountingOracle<&'g O>) -> Box<dyn EdgeSubgraphLca + 'c> + Sync,
    {
        let edges: Vec<(VertexId, VertexId)> = graph.edges().collect();
        self.measure_batch(&edges, base, |counter| make(counter))
            .into_run(graph, &edges)
    }

    /// Answers an arbitrary query batch with full probe accounting — the
    /// oracle-generic form of [`QueryEngine::measure_queries`], built for
    /// inputs that have no [`Graph`] to enumerate (implicit oracles).
    ///
    /// `make` builds one LCA instance per shard over that shard's private
    /// [`CountingOracle`] wrapping `base`; Definition 1.4 consistency makes
    /// all instances answer identically, and the private counters keep
    /// `per_query_max` exact under parallelism. Failures are per-query:
    /// each answer carries its own `Result`.
    pub fn measure_batch<'g, O, Q, F>(&self, queries: &[Q], base: &'g O, make: F) -> MeasuredBatch
    where
        O: Oracle + Sync,
        Q: Clone + Sync,
        F: for<'c> Fn(&'c CountingOracle<&'g O>) -> Box<dyn Lca<Query = Q, Answer = bool> + 'c>
            + Sync,
    {
        // Resolve the name from a throwaway instance so it is right even
        // for an empty batch (constructors are probe-free).
        let algorithm = make(&CountingOracle::new(base)).name();
        let shards = self.sharded(queries, |_, chunk| {
            let counter = CountingOracle::new(base);
            let lca = make(&counter);
            meter(&counter, chunk.iter().cloned(), |q| lca.query(q))
        });
        MeasuredBatch::from_shards(algorithm, shards)
    }
}

/// The outcome of a [`QueryEngine::query_batch_budgeted`] run: per-query
/// results in input order plus exhaustion accounting.
#[derive(Debug)]
pub struct BudgetedBatch<A> {
    /// Per-query results, in input order; budget trips are per-query
    /// [`LcaError::is_budget`] errors.
    pub answers: Vec<Result<A, LcaError>>,
    /// Queries that tripped their budget (probe cap, deadline, or cancel).
    pub exhausted: usize,
    /// Total probes charged across the batch (context meters, exact).
    pub probes: u64,
    /// Per-shard accounting, in shard order.
    pub per_shard: Vec<ShardBudget>,
}

impl<A> BudgetedBatch<A> {
    /// Fraction of queries that tripped their budget (`0.0` for an empty
    /// batch).
    pub fn exhaustion_rate(&self) -> f64 {
        if self.answers.is_empty() {
            0.0
        } else {
            self.exhausted as f64 / self.answers.len() as f64
        }
    }
}

/// Budget accounting for one shard of a
/// [`QueryEngine::query_batch_budgeted`] run.
#[derive(Debug, Clone, Copy)]
pub struct ShardBudget {
    /// Shard index (shards partition the batch contiguously).
    pub shard: usize,
    /// Queries this shard answered.
    pub queries: usize,
    /// Queries that tripped their budget within the shard.
    pub exhausted: usize,
    /// Probes charged by the shard's query contexts.
    pub probes: u64,
    /// Maximum probes charged to a single query within the shard.
    pub per_query_max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measure_queries, ThreeSpanner, ThreeSpannerParams};
    use lca_graph::gen::GnpBuilder;
    use lca_rand::Seed;

    #[test]
    fn batch_answers_match_serial_answers() {
        let g = GnpBuilder::new(120, 0.2).seed(Seed::new(1)).build();
        let lca = ThreeSpanner::new(&g, ThreeSpannerParams::for_n(120), Seed::new(2));
        let queries: Vec<_> = g.edges().collect();
        let serial: Vec<_> = queries.iter().map(|&(u, v)| lca.contains(u, v)).collect();
        for threads in [1, 2, 4, 7] {
            let batched = QueryEngine::with_threads(threads).query_batch(&lca, &queries);
            assert_eq!(batched, serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_materialize_matches_serial_materialize() {
        let g = GnpBuilder::new(100, 0.3).seed(Seed::new(3)).build();
        let lca = ThreeSpanner::new(&g, ThreeSpannerParams::for_n(100), Seed::new(4));
        let serial = QueryEngine::serial().materialize(&g, &lca).unwrap();
        let parallel = QueryEngine::with_threads(4).materialize(&g, &lca).unwrap();
        assert_eq!(serial.edge_count(), parallel.edge_count());
        for (u, v) in serial.edges() {
            assert!(parallel.has_edge(u, v));
        }
    }

    #[test]
    fn parallel_measure_agrees_with_serial_measure() {
        let n = 80;
        let g = GnpBuilder::new(n, 0.3).seed(Seed::new(5)).build();
        let params = ThreeSpannerParams::for_n(n);
        let seed = Seed::new(6);

        let counter = CountingOracle::new(&g);
        let lca = ThreeSpanner::new(&counter, params.clone(), seed);
        let serial = measure_queries(&g, &counter, &lca).unwrap();

        let engine = QueryEngine::with_threads(4);
        let run = engine
            .measure_queries(&g, &g, |c| {
                Box::new(ThreeSpanner::new(c, params.clone(), seed))
            })
            .unwrap();

        assert_eq!(run.algorithm, "three-spanner");
        assert_eq!(run.queries, serial.queries);
        assert_eq!(run.kept.edge_count(), serial.kept.edge_count());
        for (u, v) in serial.kept.edges() {
            assert!(run.kept.has_edge(u, v));
        }
        // Probe totals agree exactly: shard counters partition the work.
        assert_eq!(run.total, serial.total);
        assert_eq!(run.per_query_max, serial.per_query_max);
        let shard_total: u64 = run.per_shard.iter().map(|s| s.counts.total()).sum();
        assert_eq!(shard_total, run.total.total());
        let shard_queries: usize = run.per_shard.iter().map(|s| s.queries).sum();
        assert_eq!(shard_queries, run.queries);
    }

    #[test]
    fn empty_graph_yields_empty_engine_run() {
        let g = lca_graph::GraphBuilder::new(4).build().unwrap();
        let run = QueryEngine::new()
            .measure_queries(&g, &g, |c| {
                Box::new(ThreeSpanner::new(
                    c,
                    ThreeSpannerParams::for_n(4),
                    Seed::new(0),
                ))
            })
            .unwrap();
        assert_eq!(run.queries, 0);
        // The name must be real even when no shard ever ran.
        assert_eq!(run.algorithm, "three-spanner");
        assert!(run.keep_ratio(&g).is_nan());
    }

    #[test]
    fn measure_batch_matches_serial_on_an_implicit_oracle() {
        use lca_graph::implicit::{ImplicitGnp, ImplicitOracle};
        let oracle = ImplicitGnp::new(1_000, 4.0, Seed::new(1));
        let g = oracle.materialize();
        let params = ThreeSpannerParams::for_n(1_000);
        let seed = Seed::new(2);
        let queries: Vec<_> = g.edges().take(200).collect();

        let serial = ThreeSpanner::new(&oracle, params.clone(), seed);
        let expect: Vec<_> = queries
            .iter()
            .map(|&(u, v)| serial.contains(u, v))
            .collect();

        for threads in [1usize, 4] {
            let run = QueryEngine::with_threads(threads).measure_batch(&queries, &oracle, |c| {
                Box::new(ThreeSpanner::new(c, params.clone(), seed))
            });
            assert_eq!(run.algorithm, "three-spanner");
            assert_eq!(run.answers, expect, "threads={threads}");
            assert!(run.per_query_max >= 1);
            let shard_total: u64 = run.per_shard.iter().map(|s| s.counts.total()).sum();
            assert_eq!(shard_total, run.total.total());
            assert_eq!(
                run.yes_count(),
                expect.iter().filter(|a| **a == Ok(true)).count()
            );
        }
    }

    #[test]
    fn measure_batch_empty_is_well_formed() {
        let g = GnpBuilder::new(20, 0.3).seed(Seed::new(1)).build();
        let run = QueryEngine::new().measure_batch(&[], &g, |c| {
            Box::new(ThreeSpanner::new(
                c,
                ThreeSpannerParams::for_n(20),
                Seed::new(0),
            ))
        });
        assert_eq!(run.algorithm, "three-spanner");
        assert!(run.answers.is_empty());
        assert_eq!(run.per_query_mean, 0.0);
    }

    #[test]
    fn budgeted_batch_reports_per_shard_exhaustion() {
        let g = GnpBuilder::new(120, 0.3).seed(Seed::new(9)).build();
        let lca = ThreeSpanner::new(&g, ThreeSpannerParams::for_n(120), Seed::new(10));
        let queries: Vec<_> = g.edges().collect();

        // Unlimited budget: identical to query_batch, zero exhaustion.
        let plain = QueryEngine::with_threads(3).query_batch(&lca, &queries);
        let run = QueryEngine::with_threads(3).query_batch_budgeted(
            &lca,
            &queries,
            &crate::QueryBudget::unlimited(),
        );
        assert_eq!(run.answers, plain);
        assert_eq!(run.exhausted, 0);
        assert_eq!(run.exhaustion_rate(), 0.0);
        assert!(run.probes > 0);
        let shard_probes: u64 = run.per_shard.iter().map(|s| s.probes).sum();
        assert_eq!(shard_probes, run.probes);
        let shard_queries: usize = run.per_shard.iter().map(|s| s.queries).sum();
        assert_eq!(shard_queries, queries.len());

        // A 1-probe budget trips every query (edge checks alone cost more).
        let starved = QueryEngine::with_threads(3).query_batch_budgeted(
            &lca,
            &queries,
            &crate::QueryBudget::max_probes(1),
        );
        assert_eq!(starved.exhausted, queries.len());
        assert_eq!(starved.exhaustion_rate(), 1.0);
        assert!(starved
            .answers
            .iter()
            .all(|a| matches!(a, Err(LcaError::BudgetExhausted { spent: 1, limit: 1 }))));
        let shard_exhausted: usize = starved.per_shard.iter().map(|s| s.exhausted).sum();
        assert_eq!(shard_exhausted, queries.len());

        // A mid-range budget splits the batch deterministically.
        let max = run.per_shard.iter().map(|s| s.per_query_max).max().unwrap();
        let mid = QueryEngine::with_threads(3).query_batch_budgeted(
            &lca,
            &queries,
            &crate::QueryBudget::max_probes(max / 2),
        );
        for (budgeted, unlimited) in mid.answers.iter().zip(&plain) {
            match budgeted {
                Ok(a) => assert_eq!(Ok(*a), *unlimited),
                Err(e) => assert!(e.is_budget()),
            }
        }
    }

    /// Answers as `inner` does, except that each edge in `fails` is
    /// refused with [`LcaError::NotAnEdge`] naming it.
    struct FailsOn<L> {
        inner: L,
        fails: [(VertexId, VertexId); 2],
    }

    impl<L: EdgeSubgraphLca> Lca for FailsOn<L> {
        type Query = (VertexId, VertexId);
        type Answer = bool;

        fn query_ctx(&self, q: Self::Query, ctx: &crate::QueryCtx) -> Result<bool, LcaError> {
            if self.fails.contains(&q) {
                return Err(LcaError::NotAnEdge { u: q.0, v: q.1 });
            }
            self.inner.query_ctx(q, ctx)
        }

        fn name(&self) -> &'static str {
            self.inner.name()
        }
    }

    impl<L: EdgeSubgraphLca> EdgeSubgraphLca for FailsOn<L> {
        fn stretch_bound(&self) -> usize {
            self.inner.stretch_bound()
        }
    }

    #[test]
    fn edge_runs_return_the_first_error_and_batches_keep_each_in_place() {
        let g = GnpBuilder::new(90, 0.3).seed(Seed::new(11)).build();
        let params = ThreeSpannerParams::for_n(90);
        let seed = Seed::new(12);
        let edges: Vec<_> = g.edges().collect();
        // Two failing edges a third of the batch apart, so for every thread
        // count below but 1 they land in different shards.
        let bad = [edges.len() / 3, edges.len() * 2 / 3];
        let fails = bad.map(|i| edges[i]);
        let first = LcaError::NotAnEdge {
            u: fails[0].0,
            v: fails[0].1,
        };
        let plain = ThreeSpanner::new(&g, params.clone(), seed);

        let counter = CountingOracle::new(&g);
        let serial = FailsOn {
            inner: ThreeSpanner::new(&counter, params.clone(), seed),
            fails,
        };
        assert_eq!(measure_queries(&g, &counter, &serial).unwrap_err(), first);

        for threads in [1, 2, 4, 7] {
            let engine = QueryEngine::with_threads(threads);
            let run = engine.measure_queries(&g, &g, |c| {
                Box::new(FailsOn {
                    inner: ThreeSpanner::new(c, params.clone(), seed),
                    fails,
                })
            });
            assert_eq!(run.unwrap_err(), first, "threads={threads}");

            let batch = engine.measure_batch(&edges, &g, |c| {
                Box::new(FailsOn {
                    inner: ThreeSpanner::new(c, params.clone(), seed),
                    fails,
                })
            });
            assert_eq!(batch.answers.len(), edges.len(), "threads={threads}");
            for (i, (answer, &(u, v))) in batch.answers.iter().zip(&edges).enumerate() {
                let expect = if bad.contains(&i) {
                    Err(LcaError::NotAnEdge { u, v })
                } else {
                    plain.contains(u, v)
                };
                assert_eq!(*answer, expect, "threads={threads}, query {i}");
            }
        }
    }

    #[test]
    fn thread_count_is_clamped() {
        assert_eq!(QueryEngine::with_threads(0).threads(), 1);
        assert!(QueryEngine::new().threads() >= 1);
        assert_eq!(QueryEngine::serial().threads(), 1);
    }
}
