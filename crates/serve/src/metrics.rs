//! Lock-free serving metrics: latency/probe histograms, per-session and
//! global counters, and the JSON rendering behind the `stats` request.

#![warn(clippy::unwrap_used)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use serde::Json;

/// A log₂-bucketed histogram over `u64` samples (latencies in µs, probes
/// per query). Recording is one relaxed atomic increment; quantiles are
/// read as the upper bound of the covering bucket, so they are exact to
/// within a factor of two — the right fidelity for a serving dashboard at
/// zero contention cost.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 65],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    fn bucket(value: u64) -> usize {
        // value 0 → bucket 0; otherwise 1 + ⌊log₂ v⌋ (bucket upper bound 2^i - 1).
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        // bucket() ≤ 64 by construction; get() keeps the hot path panic-free.
        if let Some(bucket) = self.buckets.get(Self::bucket(value)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Mean of recorded samples (`0` when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the covering
    /// bucket; `0` when empty.
    ///
    /// Allocation-free: a `stats` render makes eight quantile calls per
    /// session and the adaptive-budget refit loop far more, so the atomics
    /// are iterated directly. Concurrent recording can only grow counts
    /// between the two passes, so the rank computed from the first pass is
    /// always reachable in the second.
    pub fn quantile(&self, q: f64) -> u64 {
        let mut total: u64 = 0;
        for b in &self.buckets {
            total += b.load(Ordering::Relaxed);
        }
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
            }
        }
        u64::MAX
    }
}

/// Counters for one serving session.
#[derive(Debug, Default)]
pub struct SessionMetrics {
    /// Queries answered (batch requests count each contained query).
    pub queries: AtomicU64,
    /// YES answers among them.
    pub yes: AtomicU64,
    /// Requests rejected with an error inside the session (bad query
    /// range/shape).
    pub errors: AtomicU64,
    /// Requests failed because a query tripped its probe budget or
    /// deadline (counted separately from `errors`: a budget trip is an
    /// accepted serving outcome, not a client mistake).
    pub budget_exhausted: AtomicU64,
    /// Service-time histogram, microseconds per request.
    pub latency_us: Histogram,
    /// Probe-cost histogram, probes per request.
    pub probes: Histogram,
    /// Probes metered across every query, failed ones included.
    pub probes_total: AtomicU64,
    /// Probe-budget utilization histogram: per *successful* budgeted
    /// query, `100 · spent / max_probes` — the headroom signal (a p99
    /// pinned at the bucket covering 100 means the budget is tight).
    /// Exhausted queries are counted in `budget_exhausted` instead, so the
    /// two read together: utilization says how close survivors run to the
    /// cap, the counter says how many did not survive. Empty while no
    /// request carries a probe budget.
    pub budget_utilization: Histogram,
}

impl SessionMetrics {
    /// Records one answered request.
    pub fn record(&self, queries: u64, yes: u64, micros: u64, probes: u64) {
        self.queries.fetch_add(queries, Ordering::Relaxed);
        self.yes.fetch_add(yes, Ordering::Relaxed);
        self.latency_us.record(micros);
        self.probes.record(probes);
    }

    /// Adds one query's metered probes to the session total.
    pub fn record_probes(&self, probes: u64) {
        self.probes_total.fetch_add(probes, Ordering::Relaxed);
    }

    /// Records one failed request.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request failed on a tripped budget/deadline.
    pub fn record_budget_exhausted(&self) {
        self.budget_exhausted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records how much of its probe budget one successful query used, in
    /// percent.
    pub fn record_budget_utilization(&self, percent: u64) {
        self.budget_utilization.record(percent);
    }
}

/// The reactor core's counters, declared once for every codec it serves:
/// `lca-serve` renders them flat in its `stats` object, the gateway as the
/// `gateway` object of `GET /v1/stats` — both through
/// [`reactor_stats_fields`].
#[derive(Debug, Default)]
pub struct ReactorMetrics {
    /// Connections accepted since the process started.
    pub connections: AtomicU64,
    /// Connections currently open (a gauge: the reactor increments on
    /// accept and decrements on close — the C10k witness in `stats`).
    pub connections_open: AtomicU64,
    /// Times the reactor was woken by a worker completion (the wake-pipe
    /// side of the readiness loop).
    pub reactor_wakeups: AtomicU64,
    /// Worker completions pulled off the completion queue, across all
    /// drains. Divided by `reactor_wakeups` this is `completions_per_wake`
    /// — the direct measure of drain batching (1.0 means every completion
    /// paid a full wake; higher means the exhaustive drain amortized them).
    pub completions_delivered: AtomicU64,
    /// Write syscalls the reactor issued (each `writev`/`write` counts
    /// once, including short writes and retries).
    pub write_syscalls: AtomicU64,
    /// Responses handed to connection write queues (every op). Divided
    /// into `write_syscalls` this is `syscalls_per_response`.
    pub responses: AtomicU64,
    /// Bytes actually accepted by the kernel across all write syscalls —
    /// exact under short writes, because the reactor adds precisely what
    /// each syscall returned.
    pub bytes_written: AtomicU64,
}

/// Whole-process counters (everything not attributable to one session).
#[derive(Debug)]
pub struct GlobalMetrics {
    /// Requests parsed off the wire (any op).
    pub requests: AtomicU64,
    /// Lines that failed to parse.
    pub parse_errors: AtomicU64,
    /// Query requests bounced with `overloaded`.
    pub overloaded: AtomicU64,
    /// Query requests failed on a tripped probe budget or deadline.
    pub budget_exhausted: AtomicU64,
    /// The TCP front end's connection and write-path counters.
    pub reactor: ReactorMetrics,
    /// Process start, for uptime/qps.
    pub started: Instant,
}

impl Default for GlobalMetrics {
    fn default() -> Self {
        Self {
            requests: AtomicU64::new(0),
            parse_errors: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            budget_exhausted: AtomicU64::new(0),
            reactor: ReactorMetrics::default(),
            started: Instant::now(),
        }
    }
}

fn num(x: u64) -> Json {
    Json::Num(x as f64)
}

/// `a / b` rendering 0 (not NaN/null) before any traffic.
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Renders one session's stats object (the `sessions` map values of the
/// `stats` response).
pub fn session_stats_json(
    metrics: &SessionMetrics,
    cache: lca_probe::CacheStats,
    uptime_s: f64,
) -> Json {
    let queries = metrics.queries.load(Ordering::Relaxed);
    Json::Obj(vec![
        ("queries".into(), num(queries)),
        ("yes".into(), num(metrics.yes.load(Ordering::Relaxed))),
        ("errors".into(), num(metrics.errors.load(Ordering::Relaxed))),
        (
            "qps".into(),
            Json::Num(if uptime_s > 0.0 {
                queries as f64 / uptime_s
            } else {
                0.0
            }),
        ),
        (
            "latency_p50_us".into(),
            num(metrics.latency_us.quantile(0.5)),
        ),
        (
            "latency_p99_us".into(),
            num(metrics.latency_us.quantile(0.99)),
        ),
        (
            "latency_mean_us".into(),
            Json::Num(metrics.latency_us.mean()),
        ),
        ("probes_p50".into(), num(metrics.probes.quantile(0.5))),
        ("probes_p99".into(), num(metrics.probes.quantile(0.99))),
        (
            "probes_total".into(),
            num(metrics.probes_total.load(Ordering::Relaxed)),
        ),
        (
            "budget_exhausted".into(),
            num(metrics.budget_exhausted.load(Ordering::Relaxed)),
        ),
        (
            "budget_utilization_pct_p50".into(),
            num(metrics.budget_utilization.quantile(0.5)),
        ),
        (
            "budget_utilization_pct_p99".into(),
            num(metrics.budget_utilization.quantile(0.99)),
        ),
        (
            "budgeted_queries".into(),
            num(metrics.budget_utilization.count()),
        ),
        ("cache_hits".into(), num(cache.hits)),
        ("cache_misses".into(), num(cache.misses)),
        ("cache_entries".into(), num(cache.entries as u64)),
        ("cache_bytes".into(), num(cache.bytes as u64)),
        (
            "cache_hit_rate".into(),
            // NaN renders as null; keep 0 for "no traffic yet" instead.
            Json::Num(if cache.requests() == 0 {
                0.0
            } else {
                cache.hit_rate()
            }),
        ),
    ])
}

/// The non-atomic half of the global `stats` object: values the server
/// snapshots at render time (queue depth, drain flag, the registry-shard
/// rollup and the fleet-wide cache rollup built with `CacheStats + CacheStats`).
#[derive(Debug, Clone)]
pub struct GlobalSnapshot {
    /// Operator-assigned backend identity (`lca-serve --backend-id`),
    /// echoed in `stats` so a fleet rollup can tag which member answered;
    /// empty when the operator assigned none.
    pub backend_id: String,
    /// Jobs waiting in the worker pool's admission queue.
    pub queue_len: usize,
    /// Whether a drain has begun.
    pub draining: bool,
    /// Resident sessions across all registry shards.
    pub sessions: usize,
    /// Number of registry shards.
    pub registry_shards: usize,
    /// Per-shard resolve-hit counts (a resolve that found a pinned
    /// session), in shard order — skew here means hot session names, not
    /// lock contention (shards lock independently).
    pub registry_shard_hits: Vec<u64>,
    /// All sessions' serving-cache stats rolled up via `CacheStats::add`.
    pub cache_total: lca_probe::CacheStats,
}

/// Renders the global half of the `stats` response.
pub fn global_stats_json(global: &GlobalMetrics, snap: &GlobalSnapshot) -> Json {
    let uptime_s = global.started.elapsed().as_secs_f64();
    let requests = global.requests.load(Ordering::Relaxed);
    let mut fields = vec![
        ("version".into(), num(crate::proto::PROTOCOL_VERSION)),
        ("backend_id".into(), Json::Str(snap.backend_id.clone())),
        ("uptime_s".into(), Json::Num(uptime_s)),
        (
            "uptime_ms".into(),
            num(global.started.elapsed().as_millis() as u64),
        ),
        ("requests".into(), num(requests)),
        (
            "qps".into(),
            Json::Num(if uptime_s > 0.0 {
                requests as f64 / uptime_s
            } else {
                0.0
            }),
        ),
        (
            "parse_errors".into(),
            num(global.parse_errors.load(Ordering::Relaxed)),
        ),
        (
            "overloaded".into(),
            num(global.overloaded.load(Ordering::Relaxed)),
        ),
        (
            "budget_exhausted".into(),
            num(global.budget_exhausted.load(Ordering::Relaxed)),
        ),
    ];
    fields.extend(reactor_stats_fields(&global.reactor));
    fields.extend([
        ("queue_len".into(), num(snap.queue_len as u64)),
        ("sessions".into(), num(snap.sessions as u64)),
        ("registry_shards".into(), num(snap.registry_shards as u64)),
        (
            "registry_shard_hits".into(),
            Json::Arr(snap.registry_shard_hits.iter().map(|&h| num(h)).collect()),
        ),
        ("cache_hits_total".into(), num(snap.cache_total.hits)),
        ("cache_misses_total".into(), num(snap.cache_total.misses)),
        (
            "cache_bytes_total".into(),
            num(snap.cache_total.bytes as u64),
        ),
        (
            "cache_hit_rate_total".into(),
            Json::Num(if snap.cache_total.requests() == 0 {
                0.0
            } else {
                snap.cache_total.hit_rate()
            }),
        ),
        ("draining".into(), Json::Bool(snap.draining)),
    ]);
    Json::Obj(fields)
}

/// Renders the reactor counters plus their two derived ratios
/// (`completions_per_wake`, `syscalls_per_response`) — the one renderer
/// behind both serve `stats` and the gateway's `gateway` object.
pub fn reactor_stats_fields(m: &ReactorMetrics) -> Vec<(String, Json)> {
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
    vec![
        ("connections".into(), num(load(&m.connections))),
        ("connections_open".into(), num(load(&m.connections_open))),
        ("reactor_wakeups".into(), num(load(&m.reactor_wakeups))),
        (
            "completions_delivered".into(),
            num(load(&m.completions_delivered)),
        ),
        ("write_syscalls".into(), num(load(&m.write_syscalls))),
        ("responses".into(), num(load(&m.responses))),
        ("bytes_written".into(), num(load(&m.bytes_written))),
        (
            "completions_per_wake".into(),
            Json::Num(ratio(
                load(&m.completions_delivered),
                load(&m.reactor_wakeups),
            )),
        ),
        (
            "syscalls_per_response".into(),
            Json::Num(ratio(load(&m.write_syscalls), load(&m.responses))),
        ),
    ]
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests assert; unwrap IS the assertion
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bound_the_samples() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000, 1000, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert!(h.mean() > 0.0);
        // p50 covers the 4th sample (3) → bucket upper bound 3.
        assert_eq!(h.quantile(0.5), 3);
        // p99 covers 1000 → upper bound 1023.
        assert_eq!(h.quantile(0.99), 1023);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn zero_and_max_bucket_edges() {
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.quantile(1.0), 0);
        h.record(u64::MAX);
        // The top bucket's upper bound saturates.
        assert!(h.quantile(1.0) >= (1u64 << 63) - 1);
    }

    #[test]
    fn stats_render_without_traffic() {
        let m = SessionMetrics::default();
        let json = session_stats_json(&m, lca_probe::CacheStats::default(), 0.0);
        let mut s = String::new();
        json.render(&mut s);
        assert!(s.contains("\"cache_hit_rate\":0"), "{s}");
        assert!(s.contains("\"qps\":0"), "{s}");
    }
}
