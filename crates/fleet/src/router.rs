//! Session→backend routing, spec replication, and the fleet rollup.
//!
//! One namespace across N processes: a session name deterministically
//! lands on `shard_for_str(name, N)` — the same Fibonacci-hash routing
//! the backends' own registry shards and probe caches use — so every
//! gateway instance (and every *restart* of one) sends a given session
//! to the same backend without any coordination state.
//!
//! Replication is **spec exchange**: a session is rebuildable from its
//! `(kind, family, n, seed, knob)` spec alone (state is a seed, not a
//! tape), so the gateway caches each session's spec on first sight and
//! injects it into every spec-less request it forwards. A backend that
//! restarts, or sees a session for the first time, lazily rebuilds the
//! instance from the injected spec — no session migration, no state
//! transfer, no `unknown-session` dance.
//!
//! Failure policy: queries are idempotent (answers are a pure function
//! of `(spec, query)`), so a round trip that fails on a *connection*
//! error is retried exactly once on a fresh connection; a second failure
//! answers the typed `backend-unavailable` error while every other shard
//! keeps serving.

#![warn(clippy::unwrap_used)]
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use lca_serve::budget::BudgetStats;
use lca_serve::metrics::{count, hit_rate, num};
use serde::Json;

use crate::client::BackendPool;

/// The HTTP status the gateway pairs with a protocol error code (the
/// mapping table in `docs/PROTOCOL.md`).
pub fn status_for_code(code: &str) -> u16 {
    match code {
        "bad-request" | "unknown-spec" | "bad-query" => 400,
        "unknown-session" => 404,
        "session-mismatch" => 409,
        "budget-exhausted" => 422,
        "overloaded" => 429,
        "internal" => 500,
        "draining" | "backend-unavailable" => 503,
        "deadline-exceeded" => 504,
        _ => 500,
    }
}

/// One gateway-level reply: the HTTP status plus a one-line JSON body
/// (for successful queries, the backend's response line verbatim).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReply {
    /// HTTP status code.
    pub status: u16,
    /// JSON body, no trailing newline.
    pub body: String,
}

impl FleetReply {
    /// Classifies a backend response line: `error` codes map through
    /// [`status_for_code`], everything else is 200.
    fn from_backend_line(line: String) -> FleetReply {
        let status = serde_json::from_str(&line)
            .ok()
            .as_ref()
            .and_then(|v| v.get("error"))
            .and_then(Json::as_str)
            .map_or(200, status_for_code);
        FleetReply { status, body: line }
    }

    /// A gateway-generated error body (echoing `id` when one was parsed,
    /// like every backend error does).
    fn error(status: u16, code: &str, message: &str, id: Option<u64>) -> FleetReply {
        let mut fields = Vec::new();
        if let Some(id) = id {
            fields.push(("id".to_owned(), Json::Num(id as f64)));
        }
        fields.push(("error".to_owned(), Json::Str(code.to_owned())));
        fields.push(("message".to_owned(), Json::Str(message.to_owned())));
        let mut body = String::new();
        Json::Obj(fields).render(&mut body);
        FleetReply { status, body }
    }
}

/// Default bound on the gateway's session-spec cache. Eviction is safe at
/// any size because a spec is *rebuildable* knowledge, not state: a session
/// whose spec was evicted just needs its next request to carry the spec
/// again (the same contract as a backend restart). The bound keeps a
/// million-session namespace from growing gateway memory without limit.
pub const DEFAULT_SPEC_CACHE_CAPACITY: usize = 65_536;

/// A bounded LRU map from session name to its learned spec fields.
/// Recency is a monotone tick stamped on insert and touch; eviction scans
/// for the minimum tick — O(capacity), fine at the cache's size and only
/// paid on insert past capacity.
struct SpecCache {
    map: HashMap<String, (Vec<(String, Json)>, u64)>,
    tick: u64,
    cap: usize,
    evictions: u64,
}

impl SpecCache {
    fn new(cap: usize) -> SpecCache {
        SpecCache {
            map: HashMap::new(),
            tick: 0,
            cap: cap.max(1),
            evictions: 0,
        }
    }

    fn insert(&mut self, session: &str, spec: Vec<(String, Json)>) {
        self.tick += 1;
        let tick = self.tick;
        if self.map.len() >= self.cap && !self.map.contains_key(session) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.map.insert(session.to_owned(), (spec, tick));
    }

    fn get(&mut self, session: &str) -> Option<&Vec<(String, Json)>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(session).map(|(spec, t)| {
            *t = tick;
            &*spec
        })
    }
}

lca_serve::stats_object! {
    /// The `fleet` object of `GET /v1/stats`, built fresh per request. Its
    /// counters are the fleet-summed fields: each is the sum of the
    /// same-named field of the reachable backends' `stats` objects.
    #[derive(Debug)]
    pub struct FleetRollup {
        /// Backends that answered the stats fan-out.
        pub backends_up: u64,
        /// Sessions with a fitted adaptive budget, across reachable backends.
        pub adaptive_sessions: u64,
    }
    render(r, fleet: Fleet) {
        backends => num(fleet.backends.len() as u64),
        backends_up => num(r.backends_up),
        /// Requests parsed off the wire.
        requests: counter,
        /// Query requests bounced with `overloaded`.
        overloaded: counter,
        /// Query requests failed on a tripped probe budget or deadline.
        budget_exhausted: counter,
        /// Lines that failed to parse.
        parse_errors: counter,
        /// Resident sessions.
        sessions: counter,
        /// Serving-cache hits, over every session.
        cache_hits_total: counter,
        /// Serving-cache misses (list fills), over every session.
        cache_misses_total: counter,
        /// Serving-cache bytes, over every session.
        cache_bytes_total: counter,
        cache_hit_rate_total => hit_rate(
            r.cache_hits_total.load(Ordering::Relaxed),
            r.cache_misses_total.load(Ordering::Relaxed),
        ),
        routed => Json::Arr(fleet.routed.iter().map(count).collect()),
        retries => count(&fleet.retries),
        unavailable => count(&fleet.unavailable),
        adaptive_sessions => num(r.adaptive_sessions),
        spec_cache_entries => num(fleet.spec_cache_counts().0),
        spec_cache_evictions => num(fleet.spec_cache_counts().1),
    }
}

/// The fleet router: N backend pools, the session spec cache, and the
/// per-backend routing counters.
pub struct Fleet {
    backends: Vec<BackendPool>,
    /// Session name → the spec fields learned from the first spec-bearing
    /// request that named it (`kind`/`family`/`n`/`seed`/`knob`, verbatim).
    /// LRU-bounded: see [`DEFAULT_SPEC_CACHE_CAPACITY`].
    specs: Mutex<SpecCache>,
    /// Query requests routed to each backend (the per-shard routing-hit
    /// witness reported in fleet stats).
    routed: Vec<AtomicU64>,
    /// Round trips retried on a fresh connection after a connection error.
    retries: AtomicU64,
    /// Requests answered `backend-unavailable` after the retry also failed.
    unavailable: AtomicU64,
}

impl Fleet {
    /// A fleet over the given backend addresses (`host:port` each). Order
    /// is identity: position i is shard i, so a restarted gateway given
    /// the same `--backends` list routes identically.
    pub fn new(addrs: Vec<String>) -> Fleet {
        Self::with_spec_capacity(addrs, DEFAULT_SPEC_CACHE_CAPACITY)
    }

    /// [`Fleet::new`] with an explicit spec-cache bound (tests use tiny
    /// capacities to exercise eviction).
    pub fn with_spec_capacity(addrs: Vec<String>, spec_capacity: usize) -> Fleet {
        assert!(!addrs.is_empty(), "a fleet needs at least one backend");
        let routed = addrs.iter().map(|_| AtomicU64::new(0)).collect();
        Fleet {
            backends: addrs.into_iter().map(BackendPool::new).collect(),
            specs: Mutex::new(SpecCache::new(spec_capacity)),
            routed,
            retries: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
        }
    }

    /// Number of backends.
    pub fn backend_count(&self) -> usize {
        self.backends.len()
    }

    /// The backend index serving `session` — a pure function of the name
    /// and the fleet size, stable across gateway restarts.
    pub fn route(&self, session: &str) -> usize {
        lca_probe::shard_for_str(session, self.backends.len())
    }

    /// Handles one `POST /v1/query` body: learn or inject the session
    /// spec, route by session name, round trip with one idempotent retry.
    pub fn query(&self, body: &str) -> FleetReply {
        let parsed = match serde_json::from_str(body.trim()) {
            Ok(v) => v,
            Err(e) => {
                return FleetReply::error(400, "bad-request", &e.to_string(), None);
            }
        };
        let id = parsed.get("id").and_then(Json::as_u64);
        let Some(session) = parsed
            .get("session")
            .and_then(Json::as_str)
            .map(str::to_owned)
        else {
            return FleetReply::error(
                400,
                "bad-request",
                "missing string field `session` (control requests use /v1/stats and /v1/sessions)",
                id,
            );
        };
        let line = self.learn_or_inject_spec(&session, parsed);
        let idx = self.route(&session);
        if let Some(counter) = self.routed.get(idx) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        match self.forward(idx, &line) {
            Ok(response) => FleetReply::from_backend_line(response),
            Err(e) => {
                self.unavailable.fetch_add(1, Ordering::Relaxed);
                let addr = self.backends.get(idx).map_or("?", |b| b.addr());
                FleetReply::error(
                    503,
                    "backend-unavailable",
                    &format!("backend {idx} ({addr}) unreachable: {e}; other shards keep serving"),
                    id,
                )
            }
        }
    }

    /// Spec exchange: a spec-bearing request (`kind` + `n` present) has
    /// its spec fields cached for the session; a spec-less request gets
    /// the cached fields injected so the backend can lazily (re)build the
    /// instance. Returns the request line to forward.
    fn learn_or_inject_spec(&self, session: &str, parsed: Json) -> String {
        let has_spec = parsed.get("kind").is_some() && parsed.get("n").is_some();
        let Json::Obj(mut fields) = parsed else {
            // lint:allow(panic) — object-ness was checked by the session lookup
            unreachable!("object-ness checked by the session lookup");
        };
        if has_spec {
            let spec: Vec<(String, Json)> = fields
                .iter()
                .filter(|(k, _)| matches!(k.as_str(), "kind" | "family" | "n" | "seed" | "knob"))
                .cloned()
                .collect();
            self.specs
                .lock()
                // lint:allow(panic) — poison means a sibling worker panicked; propagate
                .expect("spec cache poisoned")
                .insert(session, spec);
        // lint:allow(panic) — poison means a sibling worker panicked; propagate
        } else if let Some(spec) = self.specs.lock().expect("spec cache poisoned").get(session) {
            for (k, v) in spec {
                if !fields.iter().any(|(name, _)| name == k) {
                    fields.push((k.clone(), v.clone()));
                }
            }
        }
        let mut line = String::new();
        Json::Obj(fields).render(&mut line);
        line
    }

    /// One round trip to backend `idx`, retried once on a fresh
    /// connection — queries are idempotent, so replaying a request whose
    /// connection died (backend restart, pooled connection gone stale)
    /// can only produce the same answer.
    fn forward(&self, idx: usize, line: &str) -> std::io::Result<String> {
        let Some(backend) = self.backends.get(idx) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "backend index out of range",
            ));
        };
        match backend.roundtrip(line) {
            Ok(response) => Ok(response),
            Err(_) => {
                self.retries.fetch_add(1, Ordering::Relaxed);
                backend.roundtrip(line)
            }
        }
    }

    /// Sends `request` to every backend, yielding each backend's parsed
    /// response (or the transport error).
    fn fan_out(&self, request: &str) -> Vec<std::io::Result<Json>> {
        self.backends
            .iter()
            .map(|pool| {
                pool.roundtrip(request).and_then(|line| {
                    serde_json::from_str(line.trim()).map_err(|e| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                    })
                })
            })
            .collect()
    }

    /// The `GET /v1/stats` reply: every backend's `stats` snapshot plus
    /// the fleet rollup ([`FleetRollup`]), followed by the caller's `extra`
    /// top-level fields (the gateway's own counters).
    pub fn stats(&self, extra: Vec<(String, Json)>) -> FleetReply {
        let results = self.fan_out("{\"op\":\"stats\"}");
        let mut rollup = FleetRollup::default();
        let mut per_backend = Vec::new();
        for (idx, result) in results.into_iter().enumerate() {
            let mut entry = vec![
                ("backend".to_owned(), Json::Num(idx as f64)),
                (
                    "addr".to_owned(),
                    Json::Str(self.backends.get(idx).map_or("?", |b| b.addr()).to_owned()),
                ),
            ];
            match result {
                Ok(parsed) => {
                    rollup.backends_up += 1;
                    let g = parsed.get("stats").cloned().unwrap_or(Json::Null);
                    rollup.sum_rendered(&g);
                    // Surface each backend's adaptively fitted budgets
                    // (session name → fitted max_probes) so a fleet
                    // operator sees the admission the whole fleet is
                    // applying from one `GET /v1/stats`.
                    let mut fitted = Vec::new();
                    if let Some(Json::Obj(sess)) = parsed.get("sessions") {
                        for (name, s) in sess {
                            let budget = BudgetStats::default();
                            budget.sum_rendered(s.get("budget").unwrap_or(&Json::Null));
                            let probes = budget.fitted_max_probes.into_inner();
                            if probes > 0 {
                                rollup.adaptive_sessions += 1;
                                fitted.push((name.clone(), num(probes)));
                            }
                        }
                    }
                    entry.push(("ok".to_owned(), Json::Bool(true)));
                    entry.push(("fitted_budgets".to_owned(), Json::Obj(fitted)));
                    entry.push(("stats".to_owned(), g));
                }
                Err(e) => {
                    entry.push(("ok".to_owned(), Json::Bool(false)));
                    entry.push(("error".to_owned(), Json::Str(e.to_string())));
                }
            }
            per_backend.push(Json::Obj(entry));
        }
        let mut fields = vec![
            ("fleet".to_owned(), rollup.render(self)),
            ("backends".to_owned(), Json::Arr(per_backend)),
        ];
        fields.extend(extra);
        let mut body = String::new();
        Json::Obj(fields).render(&mut body);
        FleetReply { status: 200, body }
    }

    /// The spec cache's resident entries and evictions so far.
    fn spec_cache_counts(&self) -> (u64, u64) {
        // lint:allow(panic) — poison means a sibling worker panicked; propagate
        let cache = self.specs.lock().expect("spec cache poisoned");
        (cache.map.len() as u64, cache.evictions)
    }

    /// The `GET /v1/sessions` reply: one namespace view merging every
    /// backend's resident sessions, each tagged with the backend that
    /// holds it.
    pub fn sessions(&self) -> FleetReply {
        let results = self.fan_out("{\"op\":\"sessions\"}");
        let mut merged: Vec<(String, Json)> = Vec::new();
        let mut down: Vec<Json> = Vec::new();
        for (idx, result) in results.into_iter().enumerate() {
            match result {
                Ok(parsed) => {
                    if let Some(Json::Obj(sessions)) = parsed.get("sessions").cloned() {
                        for (name, spec) in sessions {
                            let Json::Obj(mut fields) = spec else {
                                continue;
                            };
                            fields.push(("backend".to_owned(), Json::Num(idx as f64)));
                            merged.push((name, Json::Obj(fields)));
                        }
                    }
                }
                Err(_) => down.push(Json::Num(idx as f64)),
            }
        }
        merged.sort_by(|(a, _), (b, _)| a.cmp(b));
        let mut body = String::new();
        Json::Obj(vec![
            ("sessions".to_owned(), Json::Obj(merged)),
            ("backends_down".to_owned(), Json::Arr(down)),
        ])
        .render(&mut body);
        FleetReply { status: 200, body }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests assert; unwrap IS the assertion
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_restart_stable() {
        // Two independently constructed fleets (a "restart") must agree on
        // every session's backend, because routing is a pure function of
        // (name, fleet size).
        let a = Fleet::new(vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()]);
        let b = Fleet::new(vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()]);
        for i in 0..64 {
            let name = format!("session-{i}");
            assert_eq!(a.route(&name), b.route(&name), "{name}");
            assert_eq!(
                a.route(&name),
                lca_probe::shard_for_str(&name, 2),
                "routing is exactly the workspace's shard function"
            );
        }
        // Sanity: with enough names, both backends get traffic.
        let hit: std::collections::HashSet<usize> =
            (0..64).map(|i| a.route(&format!("session-{i}"))).collect();
        assert_eq!(hit.len(), 2);
    }

    #[test]
    fn spec_exchange_learns_then_injects() {
        let fleet = Fleet::new(vec!["127.0.0.1:1".into()]);
        let spec_bearing = serde_json::from_str(
            r#"{"session":"s","kind":"mis","family":"gnp","n":1000,"seed":7,"query":1}"#,
        )
        .unwrap();
        let line = fleet.learn_or_inject_spec("s", spec_bearing);
        assert!(line.contains("\"kind\":\"mis\""));
        // A later spec-less request is forwarded with the cached spec
        // injected — the backend can always rebuild the session.
        let spec_less = serde_json::from_str(r#"{"session":"s","query":2}"#).unwrap();
        let line = fleet.learn_or_inject_spec("s", spec_less);
        let parsed = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("mis"));
        assert_eq!(parsed.get("n").and_then(Json::as_u64), Some(1000));
        assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(parsed.get("query").and_then(Json::as_u64), Some(2));
        // Unknown sessions pass through untouched.
        let other = serde_json::from_str(r#"{"session":"t","query":3}"#).unwrap();
        let line = fleet.learn_or_inject_spec("t", other);
        assert!(serde_json::from_str(&line).unwrap().get("kind").is_none());
    }

    #[test]
    fn spec_cache_is_bounded_with_lru_eviction() {
        let fleet = Fleet::with_spec_capacity(vec!["127.0.0.1:1".into()], 2);
        let learn = |fleet: &Fleet, s: &str| {
            let parsed = serde_json::from_str(&format!(
                r#"{{"session":"{s}","kind":"mis","n":100,"query":1}}"#
            ))
            .unwrap();
            fleet.learn_or_inject_spec(s, parsed);
        };
        let knows = |fleet: &Fleet, s: &str| {
            let parsed =
                serde_json::from_str(&format!(r#"{{"session":"{s}","query":1}}"#)).unwrap();
            let line = fleet.learn_or_inject_spec(s, parsed);
            serde_json::from_str(&line).unwrap().get("kind").is_some()
        };
        learn(&fleet, "a");
        learn(&fleet, "b");
        // Touch "a" so "b" becomes least-recently-used, then overflow.
        assert!(knows(&fleet, "a"));
        learn(&fleet, "c");
        assert!(knows(&fleet, "a"), "recently touched entry survives");
        assert!(knows(&fleet, "c"), "new entry resident");
        assert!(!knows(&fleet, "b"), "LRU entry evicted at capacity");
        let cache = fleet.specs.lock().unwrap();
        assert_eq!(cache.map.len(), 2);
        assert_eq!(cache.evictions, 1);
    }

    #[test]
    fn error_codes_map_to_the_documented_statuses() {
        for (code, status) in [
            ("bad-request", 400),
            ("unknown-spec", 400),
            ("bad-query", 400),
            ("unknown-session", 404),
            ("session-mismatch", 409),
            ("budget-exhausted", 422),
            ("overloaded", 429),
            ("internal", 500),
            ("draining", 503),
            ("backend-unavailable", 503),
            ("deadline-exceeded", 504),
            ("never-heard-of-it", 500),
        ] {
            assert_eq!(status_for_code(code), status, "{code}");
        }
        let ok = FleetReply::from_backend_line(r#"{"answer":true,"probes":3}"#.to_owned());
        assert_eq!(ok.status, 200);
        let err =
            FleetReply::from_backend_line(r#"{"error":"overloaded","message":"x"}"#.to_owned());
        assert_eq!(err.status, 429);
    }

    #[test]
    fn unroutable_bodies_fail_typed_without_touching_a_backend() {
        // The only backend is unreachable, but these never get that far.
        let fleet = Fleet::new(vec!["127.0.0.1:1".into()]);
        let reply = fleet.query("not json");
        assert_eq!(reply.status, 400);
        assert!(reply.body.contains("bad-request"));
        let reply = fleet.query(r#"{"id":9,"query":1}"#);
        assert_eq!(reply.status, 400);
        assert!(reply.body.contains("\"id\":9"), "{}", reply.body);
        assert!(reply.body.contains("session"));
    }
}
