//! Resident serving sessions: one pinned `(kind, family, n, seed)` instance
//! per client-chosen session name.
//!
//! A session owns the full serving stack for one instance:
//!
//! ```text
//! DynLca (built once via LcaBuilder)
//!   └─ BudgetedOracle      — per query: QueryCtx meter, max_probes, deadline
//!        └─ implicit oracle — the input; its lists live in the calling
//!                             thread's ListStore (one per reactor loop)
//! ```
//!
//! The session shares no list state between loops: each loop answers its
//! queries on its own thread, and each thread keeps one byte-bounded
//! [`ListStore`] of generated adjacency lists, keyed by (oracle id,
//! vertex), for every session it serves. List memory is therefore bounded
//! by loops × [`ListStore::DEFAULT_BYTES`], whatever the session count. A
//! k2 session also keeps its center coin's flips (`lca_rand::MemoCoin`,
//! at most 1 MiB), shared by every loop.
//!
//! Probe accounting lives entirely in the per-query `QueryCtx` meters: a
//! response's `probes` is the sum of its queries' `ctx.spent()`, and the
//! session's `probes_total` adds the same figure once per query, on
//! success and on error alike. No shared counter sits on the probe path,
//! and nothing is lost by that: a probe the budget refuses never reaches
//! the oracle stack, so the meters count exactly the probes a counter
//! below them would see. The list store absorbs the cost of regenerating
//! implicit adjacency — the division of labor documented in `lca-probe`
//! ("two caches, two meanings"). Its hit and miss counts are taken per
//! request on the answering thread and added to the session's
//! `cache_hits`/`cache_misses` the way `probes_total` is. Every implicit
//! family reads its lists through the store, and every metered probe
//! reaches it exactly once, so `cache_hits + cache_misses` equals
//! `probes_total`. The same contexts enforce the request's
//! `max_probes`/`deadline_ms` budget; a tripped query fails the request
//! with `budget-exhausted` (or `deadline-exceeded`) and bumps the session's
//! `budget_exhausted` counter and utilization histogram.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use lca::core::{DynQuery, QueryKind};
use lca::graph::implicit::StoreStats;
use lca::prelude::{LcaBuilder, LcaError, ListStore, Oracle, QueryBudget};
use lca::registry::DynLca;
use lca_graph::VertexId;

use crate::budget::{BudgetController, BudgetPolicyConfig};
use crate::metrics::SessionMetrics;
use crate::proto::{ErrorCode, QueryPayload, Response, SessionSpec};
use crate::{algo_seed, input_seed};

/// The session's oracle stack below the per-query budget meter (see module
/// docs for the layering).
pub type OracleStack = lca::family::BoxedImplicitOracle;

/// One resident instance: spec, oracle stack, built algorithm, metrics.
pub struct Session {
    /// The pinned spec (spec fields in later requests must match).
    pub spec: SessionSpec,
    /// When the session was built (for per-session qps).
    pub started: Instant,
    /// Serving counters.
    pub metrics: SessionMetrics,
    /// Adaptive budget controller: observes per-query probe spend and,
    /// when enabled, fits the session's `max_probes` to a target
    /// percentile (see [`crate::budget`]).
    pub controller: BudgetController,
    oracle: Arc<OracleStack>,
    algo: DynLca<'static>,
    /// Deadline-poll stride derived from the oracle stack's probe-cost
    /// hint at build time (implicit oracles are `Compute`-class → 16).
    poll_stride: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("spec", &self.spec)
            .field("vertex_count", &self.vertex_count())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Builds the session's oracle stack and algorithm from its spec.
    /// Construction is probe-free and cheap (the input is a generator, not
    /// a graph), so building lazily inside the registry lock is fine. The
    /// spec must pass [`lca::family::ImplicitFamily::check`], as every
    /// spec parsed off the wire has.
    pub fn build(spec: SessionSpec) -> Session {
        Self::build_with_policy(spec, BudgetPolicyConfig::default())
    }

    /// [`Session::build`] with an explicit server-side budget policy (the
    /// registry passes the server's `--adaptive-budgets` configuration).
    pub fn build_with_policy(spec: SessionSpec, policy: BudgetPolicyConfig) -> Session {
        let implicit = spec
            .family
            .build_with(spec.n, input_seed(spec.seed), spec.knob);
        let oracle = Arc::new(implicit);
        let algo = LcaBuilder::new(spec.kind)
            .seed(algo_seed(spec.seed))
            .build(oracle.clone());
        let poll_stride = oracle.probe_cost_hint().poll_stride();
        Session {
            spec,
            started: Instant::now(),
            metrics: SessionMetrics::default(),
            controller: BudgetController::new(policy),
            oracle,
            algo,
            poll_stride,
        }
    }

    /// The instance's actual vertex count (lattice families round the
    /// requested `n`).
    pub fn vertex_count(&self) -> usize {
        self.oracle.vertex_count()
    }

    fn to_dyn(&self, q: QueryPayload) -> Result<DynQuery, String> {
        let n = self.vertex_count() as u64;
        let check = |v: u64| -> Result<usize, String> {
            if v < n {
                Ok(v as usize)
            } else {
                Err(format!("vertex {v} out of range (n = {n})"))
            }
        };
        match (q, self.spec.kind.query_kind()) {
            (QueryPayload::Vertex(v), QueryKind::Vertex) => {
                Ok(DynQuery::Vertex(VertexId::new(check(v)?)))
            }
            (QueryPayload::Edge(u, v), QueryKind::Edge) => {
                if u == v {
                    return Err("self-loop query".to_owned());
                }
                Ok(DynQuery::Edge(
                    VertexId::new(check(u)?),
                    VertexId::new(check(v)?),
                ))
            }
            (QueryPayload::Vertex(_), QueryKind::Edge) => Err(format!(
                "{} answers edge queries: send \"query\": [u, v]",
                self.spec.kind
            )),
            (QueryPayload::Edge(..), QueryKind::Vertex) => Err(format!(
                "{} answers vertex queries: send \"query\": v",
                self.spec.kind
            )),
        }
    }

    /// Answers one request's queries under its [`QueryBudget`], recording
    /// metrics, and returns the wire response.
    ///
    /// Every query runs in a fresh `QueryCtx` carrying the request's
    /// `max_probes`; the request's `deadline_ms` becomes one shared
    /// deadline across the whole batch. Pass the pre-resolved `deadline`
    /// from the moment the request was *admitted*, so queue wait counts
    /// against the allowance (the server does); `None` falls back to
    /// deriving it from the budget's timeout at entry. `probes` in the
    /// response is the sum of the contexts' meters — exact per request
    /// even when several workers answer the same session concurrently.
    /// Each query's meter also feeds the session's `probes_total`, failed
    /// queries included.
    pub fn answer(
        self: &Arc<Self>,
        name: &str,
        queries: &[QueryPayload],
        id: Option<u64>,
        budget: &QueryBudget,
        deadline: Option<Instant>,
    ) -> Response {
        let deadline = deadline.or_else(|| budget.timeout.map(|t| Instant::now() + t));
        let _tally = StoreTally::start(&self.metrics);
        let start = Instant::now();
        let mut answers = Vec::with_capacity(queries.len());
        let mut probes = 0u64;
        for &q in queries {
            let dyn_q = match self.to_dyn(q) {
                Ok(dyn_q) => dyn_q,
                Err(message) => {
                    self.metrics.record_error();
                    return Response::Error {
                        id,
                        code: ErrorCode::BadQuery,
                        message,
                    };
                }
            };
            let ctx = budget.ctx_at(deadline).with_poll_stride(self.poll_stride);
            let outcome = self.algo.query_ctx(dyn_q, &ctx);
            probes += ctx.spent();
            self.metrics.record_probes(ctx.spent());
            match outcome {
                Ok(a) => {
                    // Every completed query feeds the adaptive controller's
                    // windowed histogram (even while fitting is off, so a
                    // later `budget_policy` switch fits from real history).
                    self.controller.observe(ctx.spent());
                    // Utilization is a headroom signal over *successful*
                    // budgeted queries (trips have their own counter; a
                    // failed query's partial spend would skew the p50).
                    if let Some(limit) = budget.max_probes {
                        self.metrics
                            .record_budget_utilization(ctx.spent() * 100 / limit.max(1));
                    }
                    answers.push(a)
                }
                Err(e) if e.is_budget() => {
                    self.metrics.record_budget_exhausted();
                    let code = match e {
                        LcaError::DeadlineExceeded { .. } => ErrorCode::DeadlineExceeded,
                        _ => ErrorCode::BudgetExhausted,
                    };
                    // A probe-budget trip is a *censored* observation: the
                    // true spend is at least the limit. Deadline trips are
                    // not recorded — wall-clock partial spend would bias
                    // the probe fit down.
                    if code == ErrorCode::BudgetExhausted {
                        if let Some(limit) = budget.max_probes {
                            self.controller.observe_exhausted(limit);
                        }
                    }
                    return Response::Error {
                        id,
                        code,
                        message: e.to_string(),
                    };
                }
                Err(e) => {
                    self.metrics.record_error();
                    return Response::Error {
                        id,
                        code: ErrorCode::BadQuery,
                        message: e.to_string(),
                    };
                }
            }
        }
        let micros = start.elapsed().as_micros() as u64;
        let yes = answers.iter().filter(|a| **a).count() as u64;
        self.metrics
            .record(answers.len() as u64, yes, micros, probes);
        if answers.len() == 1 {
            Response::Answer {
                id,
                session: name.to_owned(),
                answer: answers[0],
                probes,
                micros,
            }
        } else {
            Response::Answers {
                id,
                session: name.to_owned(),
                answers,
                probes,
                micros,
            }
        }
    }
}

/// The calling thread's list-store traffic during one request: created
/// when [`Session::answer`] starts, it adds the hits and misses since then
/// to the session's counters when dropped, on every exit path. The request
/// runs wholly on this thread, so the difference is exactly its traffic.
struct StoreTally<'a> {
    metrics: &'a SessionMetrics,
    start: StoreStats,
}

impl<'a> StoreTally<'a> {
    fn start(metrics: &'a SessionMetrics) -> Self {
        Self {
            metrics,
            start: ListStore::stats(),
        }
    }
}

impl Drop for StoreTally<'_> {
    fn drop(&mut self) {
        let now = ListStore::stats();
        self.metrics.record_store(
            now.hits.saturating_sub(self.start.hits),
            now.misses.saturating_sub(self.start.misses),
        );
    }
}

/// Default number of registry shards: a concurrency knob, not a capacity
/// one.
const DEFAULT_REGISTRY_SHARDS: usize = 16;

/// One registry shard: its slice of the name space plus a resolve-hit
/// counter (how many resolves found an already-pinned session here).
#[derive(Default)]
struct RegistryShard {
    sessions: Mutex<HashMap<String, Arc<Session>>>,
    hits: std::sync::atomic::AtomicU64,
}

/// The session registry: lazily builds and pins instances by name.
///
/// Sharded with the workspace's Fibonacci-hash router
/// ([`lca_probe::shard_for_str`]) so concurrent resolves of *different*
/// sessions never serialize on one lock — the same routing scheme
/// `MemoOracle` uses for vertices, applied to session names. Each shard is
/// an independent `Mutex<HashMap>`; a resolve locks exactly one shard, and
/// `stats` reads the shards' resolve-hit counters one by one.
pub struct SessionRegistry {
    shards: Vec<RegistryShard>,
    /// Server-side budget policy every newly built session starts with.
    policy: BudgetPolicyConfig,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionRegistry {
    /// An empty registry with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_REGISTRY_SHARDS)
    }

    /// An empty registry over `shards` independent locks (clamped to ≥ 1).
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| RegistryShard::default())
                .collect(),
            policy: BudgetPolicyConfig::default(),
        }
    }

    /// An empty registry whose sessions start with `policy` (the server's
    /// `--adaptive-budgets` configuration).
    pub fn with_policy(policy: BudgetPolicyConfig) -> Self {
        Self {
            policy,
            ..Self::new()
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `name` routes to (exposed so tests and dashboards
    /// can reason about placement).
    pub fn shard_of(&self, name: &str) -> usize {
        lca_probe::shard_for_str(name, self.shards.len())
    }

    /// Per-shard resolve-hit counts (resolves that found a pinned
    /// session), in shard order.
    pub fn shard_hits(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.hits.load(std::sync::atomic::Ordering::Relaxed))
            .collect()
    }

    /// Resolves `name`, building the session on first use.
    ///
    /// * name unknown, spec given → build and pin;
    /// * name known, spec given → spec must equal the pinned one;
    /// * name known, no spec → the pinned instance;
    /// * name unknown, no spec → [`ErrorCode::UnknownSession`].
    ///
    /// Locks only the shard `name` routes to; building happens inside that
    /// shard's lock (construction is probe-free and cheap — see
    /// [`Session::build`]) so two racing first-queries for one name pin
    /// exactly one instance, while sessions on other shards stay
    /// uncontended.
    pub fn resolve(
        &self,
        name: &str,
        spec: Option<SessionSpec>,
    ) -> Result<Arc<Session>, (ErrorCode, String)> {
        let shard = &self.shards[self.shard_of(name)];
        let mut sessions = lock_sessions(&shard.sessions);
        match (sessions.get(name), spec) {
            (Some(session), None) => {
                shard.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(session.clone())
            }
            (Some(session), Some(spec)) => {
                if session.spec == spec {
                    shard.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    Ok(session.clone())
                } else {
                    Err((
                        ErrorCode::SessionMismatch,
                        format!(
                            "session {name:?} is pinned to {:?} over {} (n = {}, seed = {}); \
                             drop the spec fields or pick a new session name",
                            session.spec.kind,
                            session.spec.family,
                            session.spec.n,
                            session.spec.seed
                        ),
                    ))
                }
            }
            (None, Some(spec)) => {
                let session = Arc::new(Session::build_with_policy(spec, self.policy));
                sessions.insert(name.to_owned(), session.clone());
                Ok(session)
            }
            (None, None) => Err((
                ErrorCode::UnknownSession,
                format!("session {name:?} has not been specified yet: send kind/n (and optionally family/seed/knob) with the first query"),
            )),
        }
    }

    /// Snapshot of all sessions, for `stats` (locks shards one at a time,
    /// never all at once).
    pub fn snapshot(&self) -> Vec<(String, Arc<Session>)> {
        let mut all: Vec<_> = self
            .shards
            .iter()
            .flat_map(|shard| {
                lock_sessions(&shard.sessions)
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Number of resident sessions (summed across shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| lock_sessions(&shard.sessions).len())
            .sum()
    }

    /// `true` when no session is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Test hook: holds shard `i`'s lock, so tests can prove resolves on
    /// *other* shards do not serialize behind it.
    #[cfg(test)]
    fn lock_shard(&self, i: usize) -> MutexGuard<'_, HashMap<String, Arc<Session>>> {
        lock_sessions(&self.shards[i].sessions)
    }
}

/// Locks a registry shard, recovering the guard if a holder panicked: a
/// session is inserted whole or not at all, so a poisoned map is still
/// valid, and one failed build must not refuse every later resolve.
fn lock_sessions(
    m: &Mutex<HashMap<String, Arc<Session>>>,
) -> MutexGuard<'_, HashMap<String, Arc<Session>>> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lca::prelude::*;

    fn mis_spec(n: usize, seed: u64) -> SessionSpec {
        SessionSpec {
            kind: AlgorithmKind::Classic(ClassicKind::Mis),
            family: ImplicitFamily::Gnp,
            n,
            seed,
            knob: None,
        }
    }

    #[test]
    fn answers_match_a_directly_built_lca() {
        let spec = mis_spec(10_000, 7);
        let session = Arc::new(Session::build(spec.clone()));

        let oracle = spec.family.build_with(spec.n, input_seed(spec.seed), None);
        let direct = LcaBuilder::new(spec.kind)
            .seed(algo_seed(spec.seed))
            .build(&oracle);

        for v in [0u64, 1, 42, 9_999] {
            let resp = session.answer(
                "s",
                &[QueryPayload::Vertex(v)],
                None,
                &QueryBudget::unlimited(),
                None,
            );
            let Response::Answer { answer, probes, .. } = resp else {
                panic!("expected answer, got {resp:?}")
            };
            let expect = direct
                .query(lca::core::DynQuery::Vertex(VertexId::new(v as usize)))
                .unwrap();
            assert_eq!(answer, expect, "vertex {v}");
            assert!(probes > 0);
        }
    }

    fn load(counter: &std::sync::atomic::AtomicU64) -> u64 {
        counter.load(std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn repeat_queries_hit_the_list_store() {
        // Spanners have no cross-query memo, so repeating an edge query
        // re-issues its probes — which the list store must absorb.
        let spec = SessionSpec {
            kind: AlgorithmKind::Spanner(SpannerKind::Three),
            family: ImplicitFamily::Regular,
            n: 1_000,
            seed: 1,
            knob: Some(4.0),
        };
        let session = Arc::new(Session::build(spec.clone()));
        let oracle = spec
            .family
            .build_with(spec.n, input_seed(spec.seed), spec.knob);
        let edge = QuerySource::sample(1, Seed::new(3))
            .queries(spec.kind, &oracle)
            .pop()
            .map(edge_payload)
            .unwrap();
        let m = &session.metrics;
        session.answer("s", &[edge], None, &QueryBudget::unlimited(), None);
        let (hits, misses) = (load(&m.cache_hits), load(&m.cache_misses));
        session.answer("s", &[edge], None, &QueryBudget::unlimited(), None);
        assert!(load(&m.cache_hits) > hits, "the replay hit nothing");
        assert_eq!(load(&m.cache_misses), misses, "the replay generated a list");
        // Every probe of a matching family is a hit or a miss.
        assert_eq!(m.queries.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(
            load(&m.cache_hits) + load(&m.cache_misses),
            load(&m.probes_total)
        );
    }

    fn edge_payload(q: lca::core::DynQuery) -> QueryPayload {
        match q {
            lca::core::DynQuery::Edge(u, v) => QueryPayload::Edge(u.raw() as u64, v.raw() as u64),
            lca::core::DynQuery::Vertex(_) => unreachable!("spanner queries are edges"),
        }
    }

    #[test]
    fn a_k2_query_generates_each_probed_list_once_per_thread() {
        // Every served probe goes through the query's budgeted view to the
        // implicit oracle, which reads (or generates) its vertex's whole
        // list in the answering thread's store: the first query generates
        // one list per distinct vertex of its transcript, and a replay on
        // the same thread generates none. Another thread has a store of
        // its own, so it generates each list once more and answers alike.
        let spec = SessionSpec {
            kind: AlgorithmKind::Spanner(SpannerKind::K2),
            family: ImplicitFamily::Gnp,
            n: 1_000_000,
            seed: 11,
            knob: None,
        };
        let session = Arc::new(Session::build(spec.clone()));
        let oracle = spec
            .family
            .build_with(spec.n, input_seed(spec.seed), spec.knob);
        let query = QuerySource::sample(1, Seed::new(5))
            .queries(spec.kind, &oracle)
            .pop()
            .unwrap();

        let traced = lca_probe::TracingOracle::new(&oracle);
        LcaBuilder::new(spec.kind)
            .seed(algo_seed(spec.seed))
            .build(&traced)
            .query_ctx(query, &QueryCtx::unlimited())
            .unwrap();
        let trace = traced.take_trace();
        let probed: std::collections::HashSet<VertexId> = trace.iter().map(|r| r.u).collect();
        assert!(probed.len() > 1, "a k2 query probes several vertices");

        let edge = [edge_payload(query)];
        let answer_on_this_thread = move |session: &Arc<Session>| {
            let before = ListStore::stats();
            let resp = session.answer("k2", &edge, None, &QueryBudget::unlimited(), None);
            let Response::Answer { answer, probes, .. } = resp else {
                panic!("expected answer, got {resp:?}")
            };
            let after = ListStore::stats();
            (
                answer,
                probes,
                after.hits - before.hits,
                after.misses - before.misses,
            )
        };
        let (answer, probes, _, misses) = answer_on_this_thread(&session);
        assert_eq!(probes, trace.len() as u64);
        assert_eq!(misses, probed.len() as u64);
        // A replay on this thread is answered entirely from resident lists.
        let replay = answer_on_this_thread(&session);
        assert_eq!(replay, (answer, probes, probes, 0));
        // A second thread fills its own store once, and answers alike.
        let shared = session.clone();
        let elsewhere = std::thread::spawn(move || answer_on_this_thread(&shared))
            .join()
            .unwrap();
        assert_eq!(elsewhere, (answer, probes, probes - misses, misses));
        let m = &session.metrics;
        assert_eq!(load(&m.cache_misses), 2 * misses);
        assert_eq!(load(&m.cache_hits) + load(&m.cache_misses), 3 * probes);
    }

    /// One loop's share of a session flood: every `loops`-th of `queries`
    /// distinct MIS vertices of each session, answered on the calling
    /// thread and checked against an LCA over the bare oracle, with the
    /// thread's store checked against its bound after every batch.
    fn flood_one_loop(sessions: &[Arc<Session>], queries: u64, loops: u64, l: u64) -> StoreStats {
        for (seed, session) in (0u64..).zip(sessions) {
            let spec = &session.spec;
            let oracle = spec.family.build_with(spec.n, input_seed(spec.seed), None);
            let direct = LcaBuilder::new(spec.kind)
                .seed(algo_seed(spec.seed))
                .build(&oracle);
            let vertices: Vec<u64> = (0..queries)
                .filter(|i| i % loops == l)
                .map(|i| 73 * i + seed)
                .collect();
            for chunk in vertices.chunks(1250) {
                let batch: Vec<QueryPayload> =
                    chunk.iter().map(|&v| QueryPayload::Vertex(v)).collect();
                let resp = session.answer("flood", &batch, None, &QueryBudget::unlimited(), None);
                let Response::Answers { answers, .. } = resp else {
                    panic!("expected batch answers, got {resp:?}")
                };
                for (&v, &answer) in chunk.iter().zip(&answers) {
                    let q = lca::core::DynQuery::Vertex(VertexId::new(v as usize));
                    assert_eq!(answer, direct.query(q).unwrap(), "vertex {v}");
                }
                let bytes = ListStore::stats().bytes;
                assert!(
                    bytes <= ListStore::DEFAULT_BYTES,
                    "a store grew to {bytes} bytes"
                );
            }
        }
        ListStore::stats()
    }

    #[test]
    fn a_session_flood_stays_inside_loops_times_one_bound() {
        // Two loop threads answer 8 sessions × 12,500 distinct MIS queries
        // between them, touching far more lists than 16 MiB holds.
        // Per-session slabs would allow 8 × 16 MiB; each thread's one store
        // must stay inside its single bound, so the process holds at most
        // 2 × 16 MiB of lists whatever the session count.
        const LOOPS: u64 = 2;
        let bound = ListStore::DEFAULT_BYTES;
        let sessions: Vec<Arc<Session>> = (0..8)
            .map(|s| Arc::new(Session::build(mis_spec(1_000_000, 13 + s))))
            .collect();
        let per_loop: Vec<StoreStats> = std::thread::scope(|s| {
            let loops: Vec<_> = (0..LOOPS)
                .map(|l| {
                    let sessions = &sessions;
                    s.spawn(move || flood_one_loop(sessions, 12_500, LOOPS, l))
                })
                .collect();
            loops.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for stats in &per_loop {
            assert!(
                stats.misses > stats.entries as u64,
                "the flood never turned a store over: {stats:?}"
            );
            assert!(stats.bytes > bound / 2, "store barely used: {stats:?}");
        }
        let total: usize = per_loop.iter().map(|s| s.bytes).sum();
        assert!(total <= LOOPS as usize * bound, "{total} bytes of lists");
    }

    #[test]
    fn wrong_shape_and_out_of_range_queries_error() {
        let session = Arc::new(Session::build(mis_spec(100, 2)));
        for bad in [QueryPayload::Edge(1, 2), QueryPayload::Vertex(100)] {
            let resp = session.answer("s", &[bad], Some(4), &QueryBudget::unlimited(), None);
            let Response::Error { code, id, .. } = resp else {
                panic!("expected error for {bad:?}")
            };
            assert_eq!(code, ErrorCode::BadQuery);
            assert_eq!(id, Some(4));
        }
        assert_eq!(
            session
                .metrics
                .errors
                .load(std::sync::atomic::Ordering::Relaxed),
            2
        );
    }

    #[test]
    fn registry_pins_and_validates_specs() {
        let registry = SessionRegistry::new();
        assert!(registry.is_empty());
        let err = registry.resolve("s", None).unwrap_err();
        assert_eq!(err.0, ErrorCode::UnknownSession);

        let spec = mis_spec(500, 3);
        let a = registry.resolve("s", Some(spec.clone())).unwrap();
        let b = registry.resolve("s", None).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same pinned instance");
        let c = registry.resolve("s", Some(spec.clone())).unwrap();
        assert!(Arc::ptr_eq(&a, &c), "matching spec resolves");

        let err = registry.resolve("s", Some(mis_spec(501, 3))).unwrap_err();
        assert_eq!(err.0, ErrorCode::SessionMismatch);
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.snapshot()[0].0, "s");
    }

    #[test]
    fn registry_shards_route_deterministically_and_count_hits() {
        let registry = SessionRegistry::with_shards(8);
        assert_eq!(registry.shard_count(), 8);
        let spec = mis_spec(200, 1);
        registry.resolve("a", Some(spec.clone())).unwrap();
        assert_eq!(registry.shard_hits().iter().sum::<u64>(), 0, "build ≠ hit");
        registry.resolve("a", None).unwrap();
        registry.resolve("a", Some(spec)).unwrap();
        let hits = registry.shard_hits();
        assert_eq!(hits.len(), 8);
        assert_eq!(hits.iter().sum::<u64>(), 2);
        assert_eq!(hits[registry.shard_of("a")], 2);
        // Routing agrees with the workspace router and is name-stable.
        assert_eq!(registry.shard_of("a"), lca_probe::shard_for_str("a", 8));
    }

    #[test]
    fn disjoint_sessions_see_no_cross_shard_serialization() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;

        // 8 threads resolving 8 sessions pinned to 8 *distinct* shards,
        // while the main thread sits on a ninth shard's lock the whole
        // time. If resolves serialized on anything global, they would
        // block behind that held lock; instead all 8 must finish while it
        // is still held.
        let registry = Arc::new(SessionRegistry::with_shards(64));
        let mut names: Vec<String> = Vec::new();
        let mut used = std::collections::HashSet::new();
        let mut i = 0u64;
        while names.len() < 9 {
            let candidate = format!("s{i}");
            if used.insert(registry.shard_of(&candidate)) {
                names.push(candidate);
            }
            i += 1;
        }
        let blocked_shard = registry.shard_of(&names[8]);
        let guard = registry.lock_shard(blocked_shard);

        let done = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = names[..8]
            .iter()
            .cloned()
            .map(|name| {
                let registry = registry.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    registry.resolve(&name, Some(mis_spec(200, 4))).unwrap();
                    for _ in 0..50 {
                        registry.resolve(&name, None).unwrap();
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        // All 8 finish while the ninth shard's lock is held.
        let deadline = Instant::now() + Duration::from_secs(20);
        while done.load(Ordering::SeqCst) < 8 {
            assert!(
                Instant::now() < deadline,
                "disjoint-shard resolves serialized behind a held shard lock"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(guard);
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(registry.len(), 8);
        assert_eq!(registry.shard_hits().iter().sum::<u64>(), 8 * 50);
    }

    #[test]
    fn batch_requests_answer_in_order() {
        let spec = SessionSpec {
            kind: AlgorithmKind::Spanner(SpannerKind::Three),
            family: ImplicitFamily::Regular,
            n: 2_000,
            seed: 5,
            knob: Some(4.0),
        };
        let session = Arc::new(Session::build(spec.clone()));
        // Sample real edges off the same oracle the session built.
        let oracle = spec
            .family
            .build_with(spec.n, input_seed(spec.seed), spec.knob);
        let queries: Vec<QueryPayload> = QuerySource::sample(8, Seed::new(9))
            .queries(spec.kind, &oracle)
            .into_iter()
            .map(|q| match q {
                lca::core::DynQuery::Edge(u, v) => {
                    QueryPayload::Edge(u.raw() as u64, v.raw() as u64)
                }
                lca::core::DynQuery::Vertex(v) => QueryPayload::Vertex(v.raw() as u64),
            })
            .collect();
        let resp = session.answer("sp", &queries, Some(1), &QueryBudget::unlimited(), None);
        let Response::Answers { answers, .. } = resp else {
            panic!("expected batch answers, got {resp:?}")
        };
        assert_eq!(answers.len(), 8);
        // Same answers one at a time.
        for (q, expect) in queries.iter().zip(&answers) {
            let resp = session.answer("sp", &[*q], None, &QueryBudget::unlimited(), None);
            let Response::Answer { answer, .. } = resp else {
                panic!("expected answer")
            };
            assert_eq!(answer, *expect);
        }
    }
}
