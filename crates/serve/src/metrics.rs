//! Lock-free serving metrics: log₂ histograms, the declared stats objects,
//! and the JSON rendering behind the `stats` request.
//!
//! Every stats object is declared once, with [`stats_object!`], as one
//! ordered list of its wire fields. The declaration yields the object's
//! storage, its `Default`, its JSON render and its list of counters; the
//! fleet rollup's summed fields are the rollup's counters. The stats field
//! table in docs/PROTOCOL.md is checked against what the declarations
//! render, in both directions.

#![warn(clippy::unwrap_used)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub use serde::Json;

/// Declares one stats object from an ordered list of its wire fields.
///
/// ```text
/// stats_object! {
///     /// Docs and derives for the struct.
///     #[derive(Debug)]
///     pub struct Name {
///         /// Storage that is not itself a field (default: `Default::default()`).
///         pub extra: Type = init,
///     }
///     render(m, ctx: Ctx) {         // `m` binds `&Name`; the context is optional
///         /// Docs for the stored counter.
///         key: counter,             // a relaxed `AtomicU64` named by its key
///         key => expr,              // computed from `m` and `ctx` at render time
///         ..extra,                  // splices the declared object in `m.extra`
///     }
/// }
/// ```
///
/// Each key is written once. The struct gets `pub` counters in declaration
/// order followed by the extras, a `Default` that zeroes every counter,
/// `render`/`render_into` (the fields in declaration order), `COUNTERS`
/// (the counters' keys) and `sum_rendered` (adds each counter's value from
/// a rendered object of the same shape).
#[macro_export]
macro_rules! stats_object {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident: $fty:ty $(= $init:expr)? ),* $(,)?
        }
        render($m:ident $(, $c:ident: $ctx:ty)?) { $($rows:tt)* }
    ) => {
        $crate::stats_object!(@rows $m
            ($(#[$meta])* $vis struct $name {
                $( $(#[$fmeta])* $fvis $field: $fty $(= $init)? ),*
            } $($c: $ctx)?)
            () () $($rows)*);
    };
    (@rows $m:ident $head:tt ($($counters:tt)*) ($($rows:tt)*)
        $(#[$doc:meta])* $key:ident: counter, $($rest:tt)*) => {
        $crate::stats_object!(@rows $m $head ($($counters)* $(#[$doc])* $key,)
            ($($rows)* ($key $crate::metrics::count(&$m.$key))) $($rest)*);
    };
    (@rows $m:ident $head:tt $counters:tt ($($rows:tt)*)
        $key:ident => $value:expr, $($rest:tt)*) => {
        $crate::stats_object!(@rows $m $head $counters ($($rows)* ($key $value)) $($rest)*);
    };
    (@rows $m:ident $head:tt $counters:tt ($($rows:tt)*) ..$nested:ident, $($rest:tt)*) => {
        $crate::stats_object!(@rows $m $head $counters ($($rows)* (.. $m.$nested)) $($rest)*);
    };
    (@rows $m:ident
        ($(#[$meta:meta])* $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident: $fty:ty $(= $init:expr)? ),*
        } $($c:ident: $ctx:ty)?)
        ($( $(#[$doc:meta])* $counter:ident, )*)
        ($($row:tt)*)
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$doc])* pub $counter: ::std::sync::atomic::AtomicU64, )*
            $( $(#[$fmeta])* $fvis $field: $fty, )*
        }

        impl ::std::default::Default for $name {
            fn default() -> Self {
                Self {
                    $( $counter: ::std::sync::atomic::AtomicU64::new(0), )*
                    $( $field: $crate::stats_object!(@init $($init)?), )*
                }
            }
        }

        impl $name {
            /// The stored counters' wire keys, in declaration order.
            pub const COUNTERS: &'static [&'static str] = &[$(::std::stringify!($counter)),*];

            /// Appends this object's fields to `out`, in wire order.
            pub fn render_into(
                &self,
                $($c: &$ctx,)?
                out: &mut ::std::vec::Vec<(::std::string::String, $crate::metrics::Json)>,
            ) {
                let $m = self;
                $( $crate::stats_object!(@push out $row); )*
            }

            /// Renders this object.
            pub fn render(&self $(, $c: &$ctx)?) -> $crate::metrics::Json {
                let mut out = ::std::vec::Vec::new();
                self.render_into($($c,)? &mut out);
                $crate::metrics::Json::Obj(out)
            }

            /// Adds each counter's value from `rendered`, an object with
            /// this one's keys (a missing or non-integral value adds 0).
            pub fn sum_rendered(&self, rendered: &$crate::metrics::Json) {
                $(
                    let value = rendered.get(::std::stringify!($counter));
                    self.$counter.fetch_add(
                        value.and_then($crate::metrics::Json::as_u64).unwrap_or(0),
                        ::std::sync::atomic::Ordering::Relaxed,
                    );
                )*
            }
        }
    };
    (@init) => { ::std::default::Default::default() };
    (@init $init:expr) => { $init };
    (@push $out:ident (.. $nested:expr)) => { $nested.render_into($out) };
    (@push $out:ident ($key:ident $value:expr)) => {
        $out.push((::std::stringify!($key).to_owned(), $value))
    };
}

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `i` holds
/// `[2^(i-1), 2^i)`.
pub(crate) const BUCKETS: usize = 65;

/// The log₂ bucket holding `value`.
pub(crate) fn bucket(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The `q`-quantile (`0.0 ..= 1.0`) of the log₂ histogram whose bucket
/// counts `counts` yields, as the upper bound of the covering bucket; `0`
/// when empty.
pub(crate) fn bucket_quantile<I: Iterator<Item = u64>>(counts: impl Fn() -> I, q: f64) -> u64 {
    match covering_bucket(counts, q) {
        None | Some(0) => 0,
        Some(i @ 1..=63) => (1u64 << i) - 1,
        Some(_) => u64::MAX,
    }
}

/// The index of the bucket covering the `q`-quantile of the counts
/// `counts` yields; `None` when empty.
///
/// Allocation-free: a `stats` render makes eight quantile calls per
/// session and the adaptive-budget refit loop far more. `counts` is walked
/// twice; concurrent recording can only grow counts between the passes, so
/// the rank computed from the first pass is always reachable in the second.
fn covering_bucket<I: Iterator<Item = u64>>(counts: impl Fn() -> I, q: f64) -> Option<usize> {
    let total: u64 = counts().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    counts().position(|count| {
        seen += count;
        seen >= rank
    })
}

/// A log₂-bucketed histogram over `u64` samples (latencies in µs, probes
/// per query). Recording is one relaxed atomic increment; quantiles are
/// read as the upper bound of the covering bucket, so they are exact to
/// within a factor of two — the right fidelity for a serving dashboard at
/// zero contention cost.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
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

    /// Records one sample.
    pub fn record(&self, value: u64) {
        // bucket() < BUCKETS by construction; get() keeps the hot path panic-free.
        if let Some(bucket) = self.buckets.get(bucket(value)) {
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
        ratio(self.sum.load(Ordering::Relaxed), self.count() as f64)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the covering
    /// bucket; `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        bucket_quantile(|| self.buckets.iter().map(|b| b.load(Ordering::Relaxed)), q)
    }
}

/// A histogram over whole percentages, one bucket each from 0 to 100 (a
/// larger sample counts as 100), so its quantiles are exact.
#[derive(Debug)]
pub struct PercentHistogram {
    buckets: [AtomicU64; 101],
}

impl Default for PercentHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl PercentHistogram {
    /// Records one sample.
    pub fn record(&self, percent: u64) {
        if let Some(bucket) = self.buckets.get(percent.min(100) as usize) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in percent; `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        covering_bucket(|| self.buckets.iter().map(|b| b.load(Ordering::Relaxed)), q)
            .map_or(0, |percent| percent as u64)
    }
}

/// A number field.
pub fn num(x: u64) -> Json {
    Json::Num(x as f64)
}

/// A counter field: the counter's current value.
pub fn count(counter: &AtomicU64) -> Json {
    num(counter.load(Ordering::Relaxed))
}

/// `count / per`, rendering 0 (not NaN/null or ∞) before any traffic.
fn ratio(count: u64, per: f64) -> f64 {
    if per > 0.0 {
        count as f64 / per
    } else {
        0.0
    }
}

/// A cache hit-rate field: `hits / (hits + misses)`, 0 before any probe.
pub fn hit_rate(hits: u64, misses: u64) -> Json {
    Json::Num(ratio(hits, (hits + misses) as f64))
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

stats_object! {
    /// The reactor core's counters, declared once for every codec it
    /// serves: `lca-serve` splices them into its `stats` object, the gateway
    /// renders them as the `gateway` object of `GET /v1/stats`.
    #[derive(Debug)]
    pub struct ReactorMetrics {
        /// Requests the loops have framed as queued work and not yet
        /// started, summed over loops (a gauge, not a wire field of this
        /// object: `lca-serve` renders it as `queue_len`).
        pub backlog: AtomicU64,
    }
    render(m) {
        /// Connections accepted since the process started.
        connections: counter,
        /// Connections currently open (a gauge: the reactor increments on
        /// accept and decrements on close — the C10k witness in `stats`).
        connections_open: counter,
        /// Times a readiness loop was woken through its waker: a worker
        /// completion, a connection handed over by loop 0, or the drain.
        reactor_wakeups: counter,
        /// Worker completions pulled off the loops' completion queues,
        /// across all drains; per wakeup this is `completions_per_wake`, the
        /// direct measure of drain batching. It stays 0 for a codec that
        /// answers everything inline.
        completions_delivered: counter,
        /// Write syscalls the reactor issued (each `writev`/`write` counts
        /// once, including short writes and retries).
        write_syscalls: counter,
        /// Responses handed to connection write queues (every op).
        responses: counter,
        /// Bytes actually accepted by the kernel across all write syscalls —
        /// exact under short writes, because the reactor adds precisely what
        /// each syscall returned.
        bytes_written: counter,
        completions_per_wake => Json::Num(ratio(
            load(&m.completions_delivered),
            load(&m.reactor_wakeups) as f64,
        )),
        syscalls_per_response => Json::Num(ratio(
            load(&m.write_syscalls),
            load(&m.responses) as f64,
        )),
    }
}

stats_object! {
    /// Whole-process counters (everything not attributable to one session):
    /// the global half of the `stats` response.
    #[derive(Debug)]
    pub struct GlobalMetrics {
        /// The TCP front end's connection and write-path counters.
        pub reactor: ReactorMetrics,
        /// Process start, for uptime/qps.
        pub started: Instant = Instant::now(),
    }
    render(g, snap: GlobalSnapshot) {
        version => num(crate::proto::PROTOCOL_VERSION),
        backend_id => Json::Str(snap.backend_id.clone()),
        uptime_s => Json::Num(g.started.elapsed().as_secs_f64()),
        uptime_ms => num(g.started.elapsed().as_millis() as u64),
        /// Requests parsed off the wire (any op).
        requests: counter,
        qps => Json::Num(ratio(load(&g.requests), g.started.elapsed().as_secs_f64())),
        /// Lines that failed to parse.
        parse_errors: counter,
        /// Query requests bounced with `overloaded`.
        overloaded: counter,
        /// Query requests failed on a tripped probe budget or deadline.
        budget_exhausted: counter,
        ..reactor,
        queue_len => num(snap.queue_len as u64),
        sessions => num(snap.sessions as u64),
        registry_shards => num(snap.registry_shards as u64),
        registry_shard_hits => Json::Arr(snap.registry_shard_hits.iter().map(|&h| num(h)).collect()),
        cache_hits_total => num(snap.cache_hits_total),
        cache_misses_total => num(snap.cache_misses_total),
        cache_hit_rate_total => hit_rate(snap.cache_hits_total, snap.cache_misses_total),
        list_store_bytes => num(snap.list_store_bytes),
        /// Generation turnovers of the reactor loops' list stores, summed
        /// over loops as each published them after its last turn. Every
        /// session on a loop shares its store, so a rate that climbs with
        /// traffic means the loop's working set outgrows the store.
        list_store_turnovers: counter,
        draining => Json::Bool(snap.draining),
    }
}

stats_object! {
    /// Counters for one serving session: the `sessions` map values of the
    /// `stats` response, between the session's spec and its `budget` block.
    #[derive(Debug)]
    pub struct SessionMetrics {
        /// Service-time histogram, microseconds per request.
        pub latency_us: Histogram,
        /// Probe-cost histogram, probes per request.
        pub probes: Histogram,
        /// Probe-budget utilization histogram: per *successful* budgeted
        /// query, `100 · spent / max_probes` — the headroom signal (a p99
        /// near 100 means the budget is tight).
        /// Exhausted queries are counted in `budget_exhausted` instead, so the
        /// two read together: utilization says how close survivors run to the
        /// cap, the counter says how many did not survive. Empty while no
        /// request carries a probe budget.
        pub budget_utilization: PercentHistogram,
    }
    render(m, snap: SessionSnapshot) {
        /// Queries answered (batch requests count each contained query).
        queries: counter,
        /// YES answers among them.
        yes: counter,
        /// Requests rejected with an error inside the session (bad query
        /// range/shape).
        errors: counter,
        qps => Json::Num(ratio(load(&m.queries), snap.uptime_s)),
        latency_p50_us => num(m.latency_us.quantile(0.5)),
        latency_p99_us => num(m.latency_us.quantile(0.99)),
        latency_mean_us => Json::Num(m.latency_us.mean()),
        probes_p50 => num(m.probes.quantile(0.5)),
        probes_p99 => num(m.probes.quantile(0.99)),
        /// Probes metered across every query, failed ones included.
        probes_total: counter,
        /// Requests failed because a query tripped its probe budget or
        /// deadline (counted separately from `errors`: a budget trip is an
        /// accepted serving outcome, not a client mistake).
        budget_exhausted: counter,
        budget_utilization_pct_p50 => num(m.budget_utilization.quantile(0.5)),
        budget_utilization_pct_p99 => num(m.budget_utilization.quantile(0.99)),
        budgeted_queries => num(m.budget_utilization.count()),
        /// Probes answered from a resident list of the answering loop's
        /// list store.
        cache_hits: counter,
        /// Probes that generated a list: one per list-store miss.
        cache_misses: counter,
        cache_hit_rate => hit_rate(load(&m.cache_hits), load(&m.cache_misses)),
    }
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

    /// Adds one request's list-store hits and misses.
    pub fn record_store(&self, hits: u64, misses: u64) {
        if hits > 0 {
            self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.cache_misses.fetch_add(misses, Ordering::Relaxed);
        }
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

/// What a session object renders besides its own counters, read at render
/// time.
#[derive(Debug, Clone, Copy)]
pub struct SessionSnapshot {
    /// Seconds since the session was built (for `qps`).
    pub uptime_s: f64,
}

/// The non-atomic half of the global `stats` object: values the server
/// snapshots at render time (queue depth, drain flag, the registry-shard
/// rollup, the sessions' list-store counters summed, and the loops' list
/// store bytes summed).
#[derive(Debug, Clone)]
pub struct GlobalSnapshot {
    /// Operator-assigned backend identity (`lca-serve --backend-id`),
    /// echoed in `stats` so a fleet rollup can tag which member answered;
    /// empty when the operator assigned none.
    pub backend_id: String,
    /// Queries admitted but not yet started, summed over the loops'
    /// backlogs.
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
    /// `cache_hits` summed over sessions.
    pub cache_hits_total: u64,
    /// `cache_misses` summed over sessions.
    pub cache_misses_total: u64,
    /// Bytes the reactor loops' list stores have allocated, summed over
    /// loops as each published them after its last turn.
    pub list_store_bytes: u64,
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
    fn percent_quantiles_are_exact_up_to_100() {
        let h = PercentHistogram::default();
        assert_eq!(h.quantile(0.99), 0, "empty");
        for percent in [64, 90, 99, 100, 250] {
            h.record(percent);
        }
        assert_eq!(h.count(), 5);
        // A log₂ bucket would read 127 for every one of these.
        assert_eq!(h.quantile(0.2), 64);
        assert_eq!(h.quantile(0.4), 90);
        assert_eq!(h.quantile(0.6), 99);
        assert_eq!(h.quantile(0.99), 100, "past 100 counts as 100");
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
        let json = m.render(&SessionSnapshot { uptime_s: 0.0 });
        let mut s = String::new();
        json.render(&mut s);
        assert!(s.contains("\"cache_hit_rate\":0"), "{s}");
        assert!(s.contains("\"qps\":0"), "{s}");
    }
}
