//! The daemon: request dispatch, stats, drain — transport-agnostic.
//!
//! Two transports share this module's dispatch core (`Server::respond`):
//!
//! * **TCP** ([`Server::serve`]) — the reactor core in [`crate::reactor`]
//!   running this module's newline-JSON [`Codec`] on `workers` readiness
//!   loops (epoll on Linux, a portable sweep elsewhere; see
//!   [`crate::sys`]). Each loop answers every request it frames, queries
//!   included, on its own thread: an LCA answer is a function of the
//!   input, the seed and the query alone, so any loop can compute any
//!   answer without coordinating with the others. A `ping` or `stats`
//!   therefore waits behind a query already running on its loop.
//! * **stdio** ([`Server::serve_stdio`]) — a plain line loop, what the
//!   integration tests and shell examples use.
//!
//! Admission happens at framing. A loop frames everything one readiness
//! turn read before it runs any of it; a query framed while
//! `queue_capacity` queries already wait on that loop is answered
//! `overloaded` without being run. The drain begins when a shutdown
//! request is framed: a query framed after it is answered `draining`, and
//! one framed before it is answered even if it runs after. A query's
//! deadline clock starts when it is framed, so time spent behind other
//! requests on its loop counts.

#![warn(clippy::unwrap_used)]
use std::io::{self, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lca::prelude::{ListStore, QueryBudget};
use serde::Json;

use crate::budget::BudgetPolicyConfig;
use crate::metrics::{GlobalMetrics, GlobalSnapshot, ReactorMetrics, SessionSnapshot};
use crate::proto::{ErrorCode, Request, Response, SessionSpec};
use crate::reactor::{Codec, Deliver, Framed, Outcome};
use crate::session::SessionRegistry;

/// Sizing knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Reactor loops serving TCP, one thread each; every loop answers the
    /// queries of the connections it owns (default: available
    /// parallelism).
    pub workers: usize,
    /// Admission bound per loop: queries framed but not yet started. A
    /// query framed past it gets `overloaded` (default 1024).
    pub queue_capacity: usize,
    /// Server-side default budget applied to query requests that do not
    /// carry their own `max_probes`/`deadline_ms` (request fields win
    /// field-by-field). Unlimited by default — operators cap tail latency
    /// with `lca-serve --max-probes`/`--deadline-ms`.
    pub default_budget: QueryBudget,
    /// Operator-assigned identity echoed in `stats` (`backend_id`), so a
    /// fleet rollup can tag which member a snapshot came from. Empty by
    /// default; set with `lca-serve --backend-id`.
    pub backend_id: String,
    /// When `true`, every session starts with adaptive budget fitting
    /// enabled (`lca-serve --adaptive-budgets`); sessions can still opt in
    /// or out per request via `budget_policy`.
    pub adaptive_budgets: bool,
    /// Default target percentile for adaptive fits (`--budget-percentile`,
    /// default 99.0); also fills in a wire-level `"adaptive"` policy.
    pub budget_percentile: f64,
    /// The fitted budget never drops below this floor
    /// (`--budget-floor`, default 8 probes).
    pub budget_floor: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            queue_capacity: 1024,
            default_budget: QueryBudget::unlimited(),
            backend_id: String::new(),
            adaptive_budgets: false,
            budget_percentile: 99.0,
            budget_floor: 8,
        }
    }
}

/// A session's spec as wire fields with the given `n`: `stats` reports the
/// instance's actual vertex count, `sessions` the requested one.
fn spec_fields(spec: &SessionSpec, n: usize) -> Vec<(String, Json)> {
    vec![
        ("kind".into(), Json::Str(spec.kind.to_string())),
        ("family".into(), Json::Str(spec.family.to_string())),
        ("n".into(), Json::Num(n as f64)),
        ("seed".into(), Json::Num(spec.seed as f64)),
    ]
}

/// One framed request line: the serve codec's [`Codec::Request`].
pub enum Line {
    /// A blank line: no response owed.
    Blank,
    /// Answered at framing without running anything: a malformed line, or
    /// a query past the loop's admission bound.
    Answer(Response),
    /// A parsed request and when it was framed (a query's deadline clock
    /// starts there).
    Request(Request, Instant),
}

/// The serving daemon: session registry + metrics + the reactor loops'
/// sizing.
pub struct Server {
    /// Resident sessions (sharded by name).
    pub registry: SessionRegistry,
    /// Whole-process counters.
    pub global: GlobalMetrics,
    loops: usize,
    queue_capacity: usize,
    draining: AtomicBool,
    default_budget: QueryBudget,
    backend_id: String,
    budget_percentile: f64,
    /// Each loop's list store as it published it after its last turn,
    /// indexed by loop (stdio mode publishes as loop 0).
    stores: Vec<PublishedStore>,
}

/// One loop's list store as the loop last published it.
#[derive(Default)]
struct PublishedStore {
    /// Its allocated bytes: the loop's share of `list_store_bytes`.
    bytes: AtomicU64,
    /// Its turnovers, already added to `list_store_turnovers`.
    turnovers: AtomicU64,
}

impl Server {
    /// Builds a server; its loops start with [`Server::serve`].
    pub fn new(config: ServerConfig) -> Arc<Server> {
        // The server's own `--max-probes` is the hard cap: an adaptive fit
        // may tighten the budget below it but never loosen past it.
        let policy = BudgetPolicyConfig {
            enabled: config.adaptive_budgets,
            percentile: config.budget_percentile,
            floor: config.budget_floor,
            cap: config.default_budget.max_probes.unwrap_or(u64::MAX),
        };
        Arc::new(Server {
            registry: SessionRegistry::with_policy(policy),
            global: GlobalMetrics::default(),
            loops: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            draining: AtomicBool::new(false),
            default_budget: config.default_budget,
            backend_id: config.backend_id,
            budget_percentile: config.budget_percentile,
            stores: (0..config.workers.max(1))
                .map(|_| PublishedStore::default())
                .collect(),
        })
    }

    /// Publishes the calling thread's list store as loop `index`'s: its
    /// bytes as that loop's share of `list_store_bytes`, and its turnovers
    /// since the last publication added to `list_store_turnovers`.
    fn publish_store(&self, index: usize) {
        let Some(published) = self.stores.get(index) else {
            return;
        };
        let now = ListStore::stats();
        published.bytes.store(now.bytes as u64, Ordering::Relaxed);
        let before = published.turnovers.swap(now.turnovers, Ordering::Relaxed);
        let turned = now.turnovers.saturating_sub(before);
        if turned > 0 {
            self.global
                .list_store_turnovers
                .fetch_add(turned, Ordering::Relaxed);
        }
    }

    /// `true` once a shutdown request has been accepted.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Starts the drain without a wire request (used by harnesses).
    pub fn begin_shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// The `stats` response: global counters plus one object per session.
    /// The global half carries the registry-shard rollup, the sessions'
    /// list-store hits and misses summed, and the loops' list-store bytes
    /// summed ([`GlobalSnapshot`]). Rendered fresh on every request.
    pub fn stats_response(&self) -> Response {
        let sessions = self.registry.snapshot();
        let (mut hits, mut misses) = (0, 0);
        let session_objs: Vec<(String, Json)> = sessions
            .iter()
            .map(|(name, s)| {
                hits += s.metrics.cache_hits.load(Ordering::Relaxed);
                misses += s.metrics.cache_misses.load(Ordering::Relaxed);
                let mut obj = spec_fields(&s.spec, s.vertex_count());
                let uptime_s = s.started.elapsed().as_secs_f64();
                s.metrics
                    .render_into(&SessionSnapshot { uptime_s }, &mut obj);
                obj.push(("budget".into(), s.controller.stats_json()));
                (name.clone(), Json::Obj(obj))
            })
            .collect();
        let snap = GlobalSnapshot {
            backend_id: self.backend_id.clone(),
            queue_len: self.global.reactor.backlog.load(Ordering::Relaxed) as usize,
            draining: self.draining(),
            sessions: sessions.len(),
            registry_shards: self.registry.shard_count(),
            registry_shard_hits: self.registry.shard_hits(),
            cache_hits_total: hits,
            cache_misses_total: misses,
            list_store_bytes: self
                .stores
                .iter()
                .map(|s| s.bytes.load(Ordering::Relaxed))
                .sum(),
        };
        Response::Stats(Json::Obj(vec![
            ("stats".into(), self.global.render(&snap)),
            ("sessions".into(), Json::Obj(session_objs)),
        ]))
    }

    /// The `sessions` response: every resident session's pinned spec —
    /// enough for any process (a fleet gateway, a fresh replica) to
    /// rebuild each instance exactly, because a session *is* its spec
    /// (state is a seed, not a tape).
    pub fn sessions_response(&self) -> Response {
        let sessions = self.registry.snapshot();
        let objs: Vec<(String, Json)> = sessions
            .iter()
            .map(|(name, s)| {
                let mut fields = spec_fields(&s.spec, s.spec.n);
                if let Some(knob) = s.spec.knob {
                    fields.push(("knob".into(), Json::Num(knob)));
                }
                (name.clone(), Json::Obj(fields))
            })
            .collect();
        Response::Stats(Json::Obj(vec![("sessions".into(), Json::Obj(objs))]))
    }

    /// Parses one raw wire line and counts it: `None` for a blank line,
    /// the `bad-request` response for non-UTF-8 or malformed input.
    fn parse_line(&self, raw: &[u8]) -> Option<Result<Request, Response>> {
        let Ok(line) = std::str::from_utf8(raw) else {
            self.global.parse_errors.fetch_add(1, Ordering::Relaxed);
            return Some(Err(Response::Error {
                id: None,
                code: ErrorCode::BadRequest,
                message: "request line is not UTF-8".to_owned(),
            }));
        };
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        Some(match Request::parse(line) {
            Ok(request) => {
                self.global.requests.fetch_add(1, Ordering::Relaxed);
                Ok(request)
            }
            Err(e) => {
                self.global.parse_errors.fetch_add(1, Ordering::Relaxed);
                Err(e.into_response())
            }
        })
    }

    /// Answers one parsed request on the calling thread. `admitted` is
    /// when the request was framed: a query's deadline runs from there.
    /// A query's session name moves into its answer.
    pub(crate) fn respond(&self, request: Request, admitted: Instant) -> Response {
        match request {
            Request::Ping => Response::Ok {
                draining: self.draining(),
            },
            Request::Stats => self.stats_response(),
            Request::Sessions => self.sessions_response(),
            Request::Shutdown => {
                self.begin_shutdown();
                Response::Ok { draining: true }
            }
            Request::Query {
                session,
                spec,
                queries,
                id,
                max_probes,
                deadline_ms,
                budget_policy,
            } => {
                // A panicking build or query still owes its client a
                // response, not a silent hang on this id, and must not take
                // the loop down with it.
                let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                    let resolved = match self.registry.resolve(&session, spec) {
                        Ok(resolved) => resolved,
                        Err((code, message)) => return Response::Error { id, code, message },
                    };
                    if let Some(policy) = budget_policy {
                        resolved
                            .controller
                            .set_policy(policy, self.budget_percentile);
                    }
                    // Precedence: an explicit request budget always wins,
                    // then the session's fitted adaptive budget, then the
                    // server default.
                    let budget = QueryBudget {
                        max_probes: max_probes
                            .or_else(|| resolved.controller.fitted())
                            .or(self.default_budget.max_probes),
                        timeout: deadline_ms
                            .map(Duration::from_millis)
                            .or(self.default_budget.timeout),
                        cancel: None,
                    };
                    // The deadline clock started at admission, so time
                    // spent behind other requests counts against the
                    // request's allowance (the documented whole-request
                    // contract).
                    let deadline = budget.timeout.map(|t| admitted + t);
                    resolved.answer(session, &queries, id, &budget, deadline)
                }))
                .unwrap_or_else(|_| Response::Error {
                    id,
                    code: ErrorCode::Internal,
                    message: "request panicked while being answered (server bug)".to_owned(),
                });
                if matches!(
                    &response,
                    Response::Error {
                        code: ErrorCode::BudgetExhausted | ErrorCode::DeadlineExceeded,
                        ..
                    }
                ) {
                    self.global.budget_exhausted.fetch_add(1, Ordering::Relaxed);
                }
                response
            }
        }
    }

    /// Serves TCP connections on `workers` reactor loops until a shutdown
    /// request lands, then drains: accepting stops, every loop answers
    /// what it framed and flushes every connection's pending responses.
    ///
    /// Each loop owns the sockets it was handed and answers their queries
    /// itself. No per-connection threads exist at any load.
    pub fn serve(self: &Arc<Self>, listener: TcpListener) -> io::Result<()> {
        crate::reactor::run(self.clone(), listener, self.loops)
    }

    /// Serves newline requests from stdin to stdout until EOF or shutdown,
    /// answering each line before reading the next.
    pub fn serve_stdio(&self) {
        let stdin = io::stdin();
        let mut out = io::stdout();
        let mut line = String::new();
        let mut reply = String::new();
        loop {
            line.clear();
            match stdin.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    let response = match self.parse_line(line.as_bytes()) {
                        None => None,
                        Some(Ok(request)) => Some(self.respond(request, Instant::now())),
                        Some(Err(response)) => Some(response),
                    };
                    if let Some(response) = response {
                        reply.clear();
                        response.write(&mut reply);
                        reply.push('\n');
                        // A vanished client is not a server error; drop
                        // the response.
                        let _ = out.write_all(reply.as_bytes());
                        let _ = out.flush();
                    }
                    self.publish_store(0);
                }
            }
            if self.draining() {
                break;
            }
        }
    }
}

/// `lca-serve`'s wire codec on the reactor core: newline-JSON requests in,
/// newline-JSON responses out, no per-connection state. Every request is
/// answered on the loop that framed it. Requests on one connection may be
/// pipelined — every response carries its request's `id`.
impl Codec for Server {
    type Conn = ();
    type Request = Line;
    const PIPELINED: bool = true;
    /// No legitimate request line is 16 MiB.
    const MAX_READ_BUFFER: usize = 16 << 20;

    fn metrics(&self) -> &ReactorMetrics {
        &self.global.reactor
    }

    fn draining(&self) -> bool {
        Server::draining(self)
    }

    /// Frames and parses one line, admitting a query unless the drain has
    /// begun (answered `draining`) or `backlog` queries already wait on
    /// this loop (past `queue_capacity`, answered `overloaded`); either
    /// answer is given here, without running the query. Framing a
    /// `shutdown` begins the drain.
    fn frame(&self, (): &mut (), buf: &[u8], eof: bool, backlog: usize) -> Framed<Line> {
        let len = match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => pos + 1,
            // A final unterminated line at EOF is still served — stdio
            // mode would serve it, TCP must too.
            None if eof => buf.len(),
            None => return Framed::Incomplete,
        };
        let line = match self.parse_line(buf.get(..len).unwrap_or(buf)) {
            None => Line::Blank,
            Some(Err(response)) => Line::Answer(response),
            // The drain begins when a shutdown is framed, so a query
            // pipelined behind it is refused...
            Some(Ok(request @ Request::Shutdown)) => {
                self.begin_shutdown();
                Line::Request(request, Instant::now())
            }
            // ...decided here, not when the query runs: a query framed
            // before the drain began is owed its answer.
            Some(Ok(Request::Query { id, .. })) if self.draining() => {
                Line::Answer(Response::Error {
                    id,
                    code: ErrorCode::Draining,
                    message: "server is draining".to_owned(),
                })
            }
            Some(Ok(Request::Query { id, .. })) if backlog >= self.queue_capacity => {
                self.global.overloaded.fetch_add(1, Ordering::Relaxed);
                Line::Answer(Response::overloaded(id))
            }
            Some(Ok(request @ Request::Query { .. })) => {
                return Framed::Queued(Line::Request(request, Instant::now()), len)
            }
            Some(Ok(request)) => Line::Request(request, Instant::now()),
        };
        Framed::Request(line, len)
    }

    fn handle(self: &Arc<Self>, (): &mut (), line: Line, _: Deliver) -> Outcome {
        let response = match line {
            Line::Blank => return Outcome::Ignored,
            Line::Answer(response) => response,
            Line::Request(request, admitted) => self.respond(request, admitted),
        };
        // The line is written into the buffer the reactor queues, sized
        // once up front.
        let mut line = String::with_capacity(response.len_hint() + 1);
        response.write(&mut line);
        line.push('\n');
        Outcome::Inline(line.into_bytes())
    }

    fn turn_done(&self, loop_index: usize) {
        self.publish_store(loop_index);
    }
}

/// Binds a listener, resolving `addr` (`host:port`; port 0 picks an
/// ephemeral port — read it back from `TcpListener::local_addr`).
pub fn bind(addr: impl ToSocketAddrs) -> io::Result<TcpListener> {
    TcpListener::bind(addr)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests assert; unwrap IS the assertion
mod tests {
    use super::*;

    fn frame(server: &Server, line: &str) -> Line {
        match Codec::frame(server, &mut (), line.as_bytes(), false, 0) {
            Framed::Request(line, _) | Framed::Queued(line, _) => line,
            Framed::Incomplete => panic!("a whole line frames"),
        }
    }

    fn handle(server: &Arc<Server>, line: Line) -> String {
        match Codec::handle(server, &mut (), line, Deliver::detached()) {
            Outcome::Inline(bytes) => String::from_utf8(bytes).unwrap(),
            _ => panic!("the serve codec answers inline"),
        }
    }

    fn list_store_bytes(server: &Server) -> u64 {
        let Response::Stats(json) = server.stats_response() else {
            panic!("stats renders a stats object")
        };
        json.get("stats")
            .and_then(|g| g.get("list_store_bytes"))
            .and_then(Json::as_u64)
            .unwrap()
    }

    #[test]
    fn list_store_bytes_sum_what_each_loop_published() {
        // Two loop threads each fill their own store and publish it after
        // their turn; `stats`, read on a third thread, sums the two.
        let server = Server::new(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let oracle = lca::family::ImplicitFamily::Gnp.build(10_000, lca::prelude::Seed::new(3));
        let published: Vec<u64> = std::thread::scope(|s| {
            let loops: Vec<_> = (0..2usize)
                .map(|i| {
                    let (server, oracle) = (&server, &oracle);
                    s.spawn(move || {
                        for v in 0..500 * (i + 1) {
                            oracle.degree(lca::graph::VertexId::new(v));
                        }
                        server.turn_done(i);
                        lca::prelude::ListStore::stats().bytes as u64
                    })
                })
                .collect();
            loops.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert!(published.iter().all(|&b| b > 0), "{published:?}");
        assert_eq!(list_store_bytes(&server), published.iter().sum::<u64>());
    }

    #[test]
    fn list_store_turnovers_add_each_loops_new_ones_once() {
        // Loop 1's store is bounded far below its working set, so its
        // generations turn over; loop 0's never does. Publishing twice
        // without new turnovers adds nothing the second time.
        let server = Server::new(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let turnovers = |server: &Server| {
            let Response::Stats(json) = server.stats_response() else {
                panic!("stats renders a stats object")
            };
            json.get("stats")
                .and_then(|g| g.get("list_store_turnovers"))
                .and_then(Json::as_u64)
                .unwrap()
        };
        let oracle = lca::family::ImplicitFamily::Gnp.build(10_000, lca::prelude::Seed::new(3));
        let published: Vec<u64> = std::thread::scope(|s| {
            let loops: Vec<_> = (0..2usize)
                .map(|i| {
                    let (server, oracle) = (&server, &oracle);
                    s.spawn(move || {
                        if i == 1 {
                            lca::prelude::ListStore::set_byte_bound(64 << 10);
                        }
                        for v in 0..5_000 {
                            oracle.degree(lca::graph::VertexId::new(v));
                        }
                        server.turn_done(i);
                        server.turn_done(i);
                        lca::prelude::ListStore::stats().turnovers
                    })
                })
                .collect();
            loops.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(published[0], 0, "{published:?}");
        assert!(published[1] > 0, "{published:?}");
        assert_eq!(turnovers(&server), published[1]);
    }

    #[test]
    fn a_query_framed_before_the_drain_is_answered_after_it() {
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let query = "{\"id\":3,\"session\":\"d\",\"kind\":\"mis\",\"family\":\"gnp\",\
                     \"n\":1000,\"seed\":1,\"query\":7}\n";
        let framed = frame(&server, query);
        server.begin_shutdown();
        let reply = handle(&server, framed);
        assert!(reply.contains("\"answer\""), "{reply}");
        // A query framed after the drain began is refused at framing.
        let late = handle(&server, frame(&server, query));
        assert!(late.contains("\"error\":\"draining\""), "{late}");
        assert!(late.contains("\"id\":3"), "{late}");
    }
}
