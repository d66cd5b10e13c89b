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
//! tape), so the gateway caches each spec a backend accepted and injects
//! it into every spec-less request it forwards, read and written with the
//! backends' own [`lca_serve::proto`]. A backend that
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
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use lca_serve::budget::BudgetStats;
use lca_serve::metrics::{count, hit_rate, num};
use lca_serve::proto::{ErrorCode, Request, Response, SessionSpec};
use serde::Json;

use crate::client::BackendPool;

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
    /// A gateway-written error body, echoing `id` when one was read, with
    /// the status [`ErrorCode::http_status`] pairs with `code`.
    pub fn error(code: ErrorCode, message: impl Into<String>, id: Option<u64>) -> FleetReply {
        let message = message.into();
        let body = Response::Error { id, code, message }.render();
        FleetReply {
            status: code.http_status(),
            body,
        }
    }
}

/// Default bound on the gateway's session-spec cache. Eviction is safe at
/// any size because a spec is *rebuildable* knowledge, not state: a session
/// whose spec was evicted just needs its next request to carry the spec
/// again (the same contract as a backend restart). The bound keeps a
/// million-session namespace from growing gateway memory without limit.
pub const DEFAULT_SPEC_CACHE_CAPACITY: usize = 65_536;

/// A bounded LRU map from session name to its learned spec.
/// Recency is a monotone tick stamped on insert and touch; eviction scans
/// for the minimum tick — O(capacity), fine at the cache's size and only
/// paid on insert past capacity.
struct SpecCache {
    map: HashMap<String, (SessionSpec, u64)>,
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

    fn insert(&mut self, session: String, spec: SessionSpec) {
        self.tick += 1;
        let tick = self.tick;
        if self.map.len() >= self.cap && !self.map.contains_key(&session) {
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
        self.map.insert(session, (spec, tick));
    }

    fn get(&mut self, session: &str) -> Option<SessionSpec> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(session).map(|(spec, t)| {
            *t = tick;
            spec.clone()
        })
    }
}

/// The newline-terminated line that carries `request` to a backend.
fn wire_line(request: &Request) -> String {
    let mut line = String::with_capacity(request.len_hint() + 1);
    request.write(&mut line);
    line.push('\n');
    line
}

/// A `POST /v1/query` body made ready to forward by [`Fleet::prepare`].
#[derive(Debug)]
pub struct Forward {
    backend: usize,
    /// The request line, `\n` included.
    line: String,
    /// The request as forwarded, with the cached spec of a spec-less body.
    request: Request,
    id: Option<u64>,
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
        /// List-store hits, over every session.
        cache_hits_total: counter,
        /// List-store misses (list generations), over every session.
        cache_misses_total: counter,
        cache_hit_rate_total => hit_rate(
            r.cache_hits_total.load(Ordering::Relaxed),
            r.cache_misses_total.load(Ordering::Relaxed),
        ),
        /// List-store bytes, over every reactor loop.
        list_store_bytes: counter,
        /// List-store generation turnovers, over every reactor loop.
        list_store_turnovers: counter,
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
    /// Session name → the spec of the last spec-bearing request a backend
    /// accepted for it. LRU-bounded: see [`DEFAULT_SPEC_CACHE_CAPACITY`].
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

    /// Handles one `POST /v1/query` body: [`Fleet::prepare`], a round trip
    /// with one idempotent retry, [`Fleet::settle`].
    pub fn query(&self, body: &str) -> FleetReply {
        let forward = match self.prepare(body) {
            Ok(forward) => forward,
            Err(refused) => return refused,
        };
        let reply = self.forward(forward.backend, &forward.line);
        self.settle(forward, reply)
    }

    /// Reads a body as a backend would, refusing here, in the backend's
    /// words, what it would refuse (and control requests, which have their
    /// own endpoints). A spec-less query gets its session's cached spec.
    /// Unknown fields are not forwarded.
    pub fn prepare(&self, body: &str) -> Result<Forward, FleetReply> {
        let mut request = Request::parse(body)
            .map_err(|refused| FleetReply::error(refused.code, refused.message, refused.id))?;
        let Request::Query {
            session, spec, id, ..
        } = &mut request
        else {
            return Err(FleetReply::error(
                ErrorCode::BadRequest,
                "control requests use /v1/stats and /v1/sessions, not /v1/query",
                None,
            ));
        };
        if spec.is_none() {
            *spec = self.specs().get(session);
        }
        let (backend, id) = (self.route(session), *id);
        let line = wire_line(&request);
        Ok(Forward {
            backend,
            line,
            request,
            id,
        })
    }

    /// The gateway's reply to a forwarded request. A backend line without
    /// an `error` member is a 200 and teaches the cache the spec it
    /// accepted; an error line takes its code's status, 500 if unknown.
    pub fn settle(&self, forward: Forward, reply: io::Result<String>) -> FleetReply {
        let line = match reply {
            Ok(line) => line,
            Err(e) => {
                self.unavailable.fetch_add(1, Ordering::Relaxed);
                let idx = forward.backend;
                let addr = self.backends.get(idx).map_or("?", |b| b.addr());
                return FleetReply::error(
                    ErrorCode::BackendUnavailable,
                    format!("backend {idx} ({addr}) unreachable: {e}; other shards keep serving"),
                    forward.id,
                );
            }
        };
        let status = match Response::error_member(&line) {
            Some(code) => ErrorCode::parse(code).map_or(500, ErrorCode::http_status),
            None => {
                if let Request::Query {
                    session,
                    spec: Some(spec),
                    ..
                } = forward.request
                {
                    self.specs().insert(session, spec);
                }
                200
            }
        };
        FleetReply { status, body: line }
    }

    /// The session spec cache.
    fn specs(&self) -> MutexGuard<'_, SpecCache> {
        // lint:allow(panic) — poison means a sibling worker panicked; propagate
        self.specs.lock().expect("spec cache poisoned")
    }

    /// One query's round trip to backend `idx`, retried once on a fresh
    /// connection — queries are idempotent, so replaying a request whose
    /// connection died (backend restart, pooled connection gone stale)
    /// can only produce the same answer.
    fn forward(&self, idx: usize, line: &str) -> io::Result<String> {
        let (Some(backend), Some(routed)) = (self.backends.get(idx), self.routed.get(idx)) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "backend index out of range",
            ));
        };
        routed.fetch_add(1, Ordering::Relaxed);
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
    fn fan_out(&self, request: &Request) -> Vec<io::Result<Json>> {
        let line = wire_line(request);
        self.backends
            .iter()
            .map(|pool| {
                pool.roundtrip(&line).and_then(|line| {
                    serde_json::from_str(&line)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                })
            })
            .collect()
    }

    /// The `GET /v1/stats` reply: every backend's `stats` snapshot plus
    /// the fleet rollup ([`FleetRollup`]), followed by the caller's `extra`
    /// top-level fields (the gateway's own counters).
    pub fn stats(&self, extra: Vec<(String, Json)>) -> FleetReply {
        let results = self.fan_out(&Request::Stats);
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
        let cache = self.specs();
        (cache.map.len() as u64, cache.evictions)
    }

    /// The `GET /v1/sessions` reply: one namespace view merging every
    /// backend's resident sessions, each tagged with the backend that
    /// holds it.
    pub fn sessions(&self) -> FleetReply {
        let results = self.fan_out(&Request::Sessions);
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

    /// The spec a forwarded line carries, read back as its backend reads it.
    fn forwarded_spec(forward: &Forward) -> Option<SessionSpec> {
        assert!(forward.line.ends_with('\n'), "{:?}", forward.line);
        match Request::parse(&forward.line).unwrap() {
            Request::Query { spec, .. } => spec,
            other => panic!("forwarded {other:?}"),
        }
    }

    const ANSWER: &str = r#"{"id":1,"session":"s","answer":true,"probes":3,"micros":9}"#;
    const MISMATCH: &str = r#"{"id":1,"error":"session-mismatch","message":"pinned"}"#;

    #[test]
    fn spec_exchange_learns_after_success_then_injects() {
        let fleet = Fleet::new(vec!["127.0.0.1:1".into()]);
        let spec_bearing =
            r#"{"id":1,"session":"s","kind":"mis","family":"gnp","n":1000,"seed":7,"query":1}"#;
        let forward = fleet.prepare(spec_bearing).unwrap();
        let pinned = forwarded_spec(&forward).unwrap();
        assert_eq!((pinned.n, pinned.seed), (1000, 7));
        // Nothing is learned before the backend answers.
        let spec_less = r#"{"id":2,"session":"s","query":2}"#;
        assert_eq!(forwarded_spec(&fleet.prepare(spec_less).unwrap()), None);
        assert_eq!(fleet.settle(forward, Ok(ANSWER.to_owned())).status, 200);
        // A later spec-less request is forwarded with the accepted spec
        // injected: the backend can always rebuild the session.
        let forward = fleet.prepare(spec_less).unwrap();
        assert_eq!(forwarded_spec(&forward), Some(pinned.clone()));
        assert!(forward.line.contains(r#""query":2"#), "{}", forward.line);
        // A spec the backend refuses is not learned: the accepted one stays.
        let conflicting = r#"{"id":3,"session":"s","kind":"mis","n":1000,"seed":8,"query":1}"#;
        let reply = fleet.settle(fleet.prepare(conflicting).unwrap(), Ok(MISMATCH.to_owned()));
        assert_eq!((reply.status, reply.body.as_str()), (409, MISMATCH));
        let forward = fleet.prepare(spec_less).unwrap();
        assert_eq!(forwarded_spec(&forward), Some(pinned));
        // Unknown sessions pass through spec-less.
        let other = fleet.prepare(r#"{"session":"t","query":3}"#).unwrap();
        assert_eq!(forwarded_spec(&other), None);
    }

    #[test]
    fn spec_cache_is_bounded_with_lru_eviction() {
        let fleet = Fleet::with_spec_capacity(vec!["127.0.0.1:1".into()], 2);
        let learn = |fleet: &Fleet, s: &str| {
            let body = format!(r#"{{"session":"{s}","kind":"mis","n":100,"query":1}}"#);
            let reply = fleet.settle(fleet.prepare(&body).unwrap(), Ok(ANSWER.to_owned()));
            assert_eq!(reply.status, 200);
        };
        let knows = |fleet: &Fleet, s: &str| {
            let body = format!(r#"{{"session":"{s}","query":1}}"#);
            forwarded_spec(&fleet.prepare(&body).unwrap()).is_some()
        };
        learn(&fleet, "a");
        learn(&fleet, "b");
        // Touch "a" so "b" becomes least-recently-used, then overflow.
        assert!(knows(&fleet, "a"));
        learn(&fleet, "c");
        assert!(knows(&fleet, "a"), "recently touched entry survives");
        assert!(knows(&fleet, "c"), "new entry resident");
        assert!(!knows(&fleet, "b"), "LRU entry evicted at capacity");
        // Relearning a resident session replaces its entry in place.
        learn(&fleet, "c");
        let cache = fleet.specs();
        assert_eq!(cache.map.len(), 2);
        assert_eq!(cache.evictions, 1);
    }

    #[test]
    fn error_codes_map_to_the_documented_statuses() {
        let fleet = Fleet::new(vec!["127.0.0.1:1".into()]);
        let status_of = |line: &str| {
            let forward = fleet.prepare(r#"{"session":"s","query":1}"#).unwrap();
            fleet.settle(forward, Ok(line.to_owned())).status
        };
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
        ] {
            let code = ErrorCode::parse(code).unwrap();
            assert_eq!(code.http_status(), status, "{code:?}");
            for id in [None, Some(0), Some(9_000_000_000_000_000)] {
                let line = Response::Error {
                    id,
                    code,
                    message: "\"error\":\"x\"".to_owned(),
                }
                .render();
                assert_eq!(status_of(&line), status, "{line}");
            }
        }
        assert_eq!(
            status_of(r#"{"error":"never-heard-of-it","message":"x"}"#),
            500
        );
        assert_eq!(status_of(ANSWER), 200);
        // An answer whose session name spells an error member is an answer.
        let tricky = r#"{"session":"\"error\":\"internal\"","answer":true,"probes":1,"micros":1}"#;
        assert_eq!(status_of(tricky), 200);
    }

    #[test]
    fn unroutable_bodies_fail_typed_without_touching_a_backend() {
        // The only backend is unreachable, but these never get that far:
        // each is refused with the body the backend itself would write.
        let fleet = Fleet::new(vec!["127.0.0.1:1".into()]);
        for (body, status) in [
            ("not json", 400),
            (r#"{"id":9,"query":1}"#, 400),
            (
                r#"{"id":4,"session":"s","kind":"nope","n":10,"query":1}"#,
                400,
            ),
            (r#"{"id":5,"session":"s","query":1,"max_probes":-1}"#, 400),
        ] {
            let reply = fleet.query(body);
            let refused = Request::parse(body).unwrap_err().into_response().render();
            assert_eq!((reply.status, reply.body), (status, refused), "{body}");
        }
        for control in [r#"{"op":"ping"}"#, r#"{"id":2,"op":"stats"}"#] {
            let reply = fleet.query(control);
            assert_eq!(reply.status, 400, "{control}");
            assert!(reply.body.contains("/v1/stats"), "{}", reply.body);
        }
        assert_eq!(fleet.routed[0].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn an_unreachable_backend_is_backend_unavailable_with_the_id() {
        let fleet = Fleet::new(vec!["127.0.0.1:1".into()]);
        let forward = fleet
            .prepare(r#"{"id":6,"session":"s","kind":"mis","n":100,"query":1}"#)
            .unwrap();
        let reply = fleet.settle(forward, Err(io::ErrorKind::ConnectionRefused.into()));
        assert_eq!(reply.status, 503);
        assert!(
            reply
                .body
                .starts_with(r#"{"id":6,"error":"backend-unavailable""#),
            "{}",
            reply.body
        );
        // Nothing was learned from a request that never ran.
        assert!(fleet.specs().map.is_empty());
    }
}
