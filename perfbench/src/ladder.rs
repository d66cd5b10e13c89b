//! The in-process probe ladder: the workload's request sequence answered
//! with no wire, through the daemon's per-session oracle stack built up one
//! layer at a time. Every rung starts from cold caches, as a freshly built
//! session does.
//!
//! ```text
//! implicit   LCA → implicit oracle (each probe regenerates adjacency)
//! cached     LCA → CachedOracle → implicit
//! session    LCA → CountingOracle → CachedOracle → implicit   (lca-serve's stack)
//! ```
//!
//! Caches change what a probe costs, never which probes run, so the rungs
//! issue the same probes and their per-probe times compare directly. The
//! session rung's time per request is the compute the daemon's reported
//! service time contains; the rest of a round trip is the wire's.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lca::prelude::{CachedOracle, CountingOracle, LcaBuilder, Oracle, QueryCtx};
use lca::registry::DynLca;
use lca_serve::algo_seed;

use crate::input;
use crate::wire::Traffic;

/// The ladder's measurements.
pub struct Ladder {
    /// Nanoseconds per probe straight over the implicit oracle.
    pub implicit_ns_per_probe: f64,
    /// Nanoseconds per probe with the serving cache under the LCA.
    pub cached_ns_per_probe: f64,
    /// Nanoseconds per probe over the daemon's full session stack.
    pub session_ns_per_probe: f64,
    /// Microseconds per request over the daemon's full session stack.
    pub session_us_per_request: f64,
    /// Probes per request (the paper's cost measure; a count, not a time).
    pub probes_per_request: f64,
    /// Answers that differed from the expected ones, over all rungs.
    pub mismatches: u64,
}

struct Rung {
    elapsed: Duration,
    probes: u64,
    mismatches: u64,
}

/// Answers schedule positions `0..requests` with one algorithm instance per
/// kind, each over its own stack from `stack` (sessions share nothing).
fn rung<O>(stack: impl Fn() -> O, traffic: &Traffic, seed: u64, requests: u64) -> Rung
where
    O: Oracle + Send + Sync + 'static,
{
    let algos: Vec<(DynLca<'static>, u64)> = traffic
        .plans
        .iter()
        .map(|plan| {
            let oracle = Arc::new(stack());
            let stride = oracle.probe_cost_hint().poll_stride();
            let algo = LcaBuilder::new(plan.kind)
                .seed(algo_seed(seed))
                .build(oracle);
            (algo, stride)
        })
        .collect();
    let mut probes = 0;
    let mut mismatches = 0;
    let start = Instant::now();
    for id in 0..requests {
        let (ki, qi) = traffic.slot(id);
        let plan = &traffic.plans[ki];
        let (algo, stride) = &algos[ki];
        let ctx = QueryCtx::unlimited().with_poll_stride(*stride);
        let answer = algo.query_ctx(plan.queries[qi], &ctx);
        probes += ctx.spent();
        mismatches += u64::from(answer != Ok(plan.expected[qi]));
    }
    Rung {
        elapsed: start.elapsed(),
        probes,
        mismatches,
    }
}

/// Climbs the ladder over the first `requests` schedule positions.
pub fn climb(traffic: &Traffic, seed: u64, requests: u64) -> Ladder {
    let implicit = rung(|| input(seed), traffic, seed, requests);
    let cached = rung(|| CachedOracle::new(input(seed)), traffic, seed, requests);
    let session = rung(
        || CountingOracle::new(CachedOracle::new(input(seed))),
        traffic,
        seed,
        requests,
    );
    let ns_per_probe = |r: &Rung| r.elapsed.as_nanos() as f64 / r.probes.max(1) as f64;
    Ladder {
        implicit_ns_per_probe: ns_per_probe(&implicit),
        cached_ns_per_probe: ns_per_probe(&cached),
        session_ns_per_probe: ns_per_probe(&session),
        session_us_per_request: session.elapsed.as_secs_f64() * 1e6 / requests.max(1) as f64,
        probes_per_request: session.probes as f64 / requests.max(1) as f64,
        mismatches: implicit.mismatches + cached.mismatches + session.mismatches,
    }
}
