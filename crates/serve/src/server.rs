//! The daemon: request dispatch, stats, drain — transport-agnostic.
//!
//! Two transports share this module's dispatch core:
//!
//! * **TCP** ([`Server::serve`]) — the reactor core in [`crate::reactor`]
//!   running this module's newline-JSON [`Codec`]: one thread multiplexes
//!   every connection through a readiness loop (epoll on Linux, a portable
//!   sweep elsewhere; see [`crate::sys`]), and the bounded [`WorkerPool`]
//!   executes queries. Workers never touch sockets — they hand finished
//!   responses back to the reactor through its completion queue + wake
//!   pipe, so a stalled client can never block a worker.
//! * **stdio** ([`Server::serve_stdio`]) — a plain line loop, what the
//!   integration tests and shell examples use.
//!
//! Dispatch itself ([`Server::handle_line`]) is sink-based: inline
//! responses (ping/stats/shutdown, parse and session errors, backpressure)
//! are returned to the caller, query work is admitted to the pool with a
//! `deliver` callback the worker invokes when the response is ready.

#![warn(clippy::unwrap_used)]
use std::io::{self, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lca::prelude::QueryBudget;
use serde::Json;

use crate::budget::BudgetPolicyConfig;
use crate::metrics::{GlobalMetrics, GlobalSnapshot, ReactorMetrics, SessionSnapshot};
use crate::pool::{RejectReason, WorkerPool};
use crate::proto::{ErrorCode, Request, Response, SessionSpec};
use crate::reactor::{Codec, Deliver, Framed, Outcome};
use crate::session::SessionRegistry;

/// Sizing knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads answering queries (default: available parallelism).
    pub workers: usize,
    /// Admission-queue bound; one more request than this in flight gets
    /// `overloaded` (default 1024).
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

/// A shared, locked line sink: the stdio loop and its workers interleave
/// whole lines, never bytes.
pub type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

fn write_line(out: &SharedWriter, response: &Response) {
    let line = response.render();
    // lint:allow(panic) — poison means a sibling writer panicked; propagate
    let mut w = out.lock().expect("writer poisoned");
    // A vanished client is not a server error; drop the response.
    let _ = writeln!(w, "{line}");
    let _ = w.flush();
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

/// What one request line turned into — the reactor and stdio loops route
/// responses differently depending on which.
pub(crate) enum LineOutcome {
    /// Answered synchronously; the caller owns delivery.
    Inline(Response),
    /// Admitted to the worker pool; the `deliver` callback passed to
    /// [`Server::handle_line`] fires with the response when a worker
    /// finishes (exactly once).
    Deferred,
    /// An empty line: no response owed.
    Ignored,
}

/// The serving daemon: session registry + worker pool + metrics.
pub struct Server {
    /// Resident sessions (sharded by name).
    pub registry: SessionRegistry,
    /// Whole-process counters.
    pub global: GlobalMetrics,
    pub(crate) pool: WorkerPool,
    draining: AtomicBool,
    default_budget: QueryBudget,
    backend_id: String,
    budget_percentile: f64,
}

impl Server {
    /// Builds a server (spawns its worker pool immediately).
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
            pool: WorkerPool::new(config.workers, config.queue_capacity),
            draining: AtomicBool::new(false),
            default_budget: config.default_budget,
            backend_id: config.backend_id,
            budget_percentile: config.budget_percentile,
        })
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
    /// The global half carries the shard and cache rollups
    /// ([`GlobalSnapshot`], summed with `CacheStats::add` across sessions).
    /// Rendered fresh on every request.
    pub fn stats_response(&self) -> Response {
        let sessions = self.registry.snapshot();
        let mut cache_total = lca_probe::CacheStats::default();
        let session_objs: Vec<(String, Json)> = sessions
            .iter()
            .map(|(name, s)| {
                let cache = s.cache_stats();
                cache_total = cache_total + cache;
                let mut obj = spec_fields(&s.spec, s.vertex_count());
                let uptime_s = s.started.elapsed().as_secs_f64();
                s.metrics
                    .render_into(&SessionSnapshot { cache, uptime_s }, &mut obj);
                obj.push(("budget".into(), s.controller.stats_json()));
                (name.clone(), Json::Obj(obj))
            })
            .collect();
        let snap = GlobalSnapshot {
            backend_id: self.backend_id.clone(),
            queue_len: self.pool.queue_len(),
            draining: self.draining(),
            sessions: sessions.len(),
            registry_shards: self.registry.shard_count(),
            registry_shard_hits: self.registry.shard_hits(),
            cache_total,
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

    /// Handles one raw wire line: non-UTF-8 is answered `bad-request`
    /// without reaching the parser.
    pub(crate) fn handle_raw_line(
        self: &Arc<Self>,
        raw: &[u8],
        deliver: impl FnOnce(Response) + Send + 'static,
    ) -> LineOutcome {
        match std::str::from_utf8(raw) {
            Ok(line) => self.handle_line(line, deliver),
            Err(_) => {
                self.global.parse_errors.fetch_add(1, Ordering::Relaxed);
                LineOutcome::Inline(Response::Error {
                    id: None,
                    code: ErrorCode::BadRequest,
                    message: "request line is not UTF-8".to_owned(),
                })
            }
        }
    }

    /// Handles one request line. Control requests, errors, and
    /// backpressure are answered in the return value; query work is
    /// admitted to the pool and `deliver` fires from a worker with the
    /// response ([`LineOutcome::Deferred`] — exactly one call, even if the
    /// query panics).
    pub(crate) fn handle_line(
        self: &Arc<Self>,
        line: &str,
        deliver: impl FnOnce(Response) + Send + 'static,
    ) -> LineOutcome {
        let line = line.trim();
        if line.is_empty() {
            return LineOutcome::Ignored;
        }
        let request = match Request::parse(line) {
            Ok(request) => {
                self.global.requests.fetch_add(1, Ordering::Relaxed);
                request
            }
            Err(e) => {
                self.global.parse_errors.fetch_add(1, Ordering::Relaxed);
                return LineOutcome::Inline(e.response());
            }
        };
        match request {
            Request::Ping => LineOutcome::Inline(Response::Ok {
                draining: self.draining(),
            }),
            Request::Stats => LineOutcome::Inline(self.stats_response()),
            Request::Sessions => LineOutcome::Inline(self.sessions_response()),
            Request::Shutdown => {
                self.begin_shutdown();
                LineOutcome::Inline(Response::Ok { draining: true })
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
                if self.draining() {
                    return LineOutcome::Inline(Response::Error {
                        id,
                        code: ErrorCode::Draining,
                        message: "server is draining".to_owned(),
                    });
                }
                let resolved = match self.registry.resolve(&session, spec) {
                    Ok(resolved) => resolved,
                    Err((code, message)) => {
                        return LineOutcome::Inline(Response::Error { id, code, message })
                    }
                };
                if let Some(policy) = budget_policy {
                    resolved
                        .controller
                        .set_policy(policy, self.budget_percentile);
                }
                // Precedence: an explicit request budget always wins, then
                // the session's fitted adaptive budget, then the server
                // default.
                let budget = QueryBudget {
                    max_probes: max_probes
                        .or_else(|| resolved.controller.fitted())
                        .or(self.default_budget.max_probes),
                    timeout: deadline_ms
                        .map(Duration::from_millis)
                        .or(self.default_budget.timeout),
                    cancel: None,
                };
                // The deadline clock starts now — at admission — so time
                // spent waiting in the queue counts against the request's
                // allowance (the documented whole-request contract).
                let deadline = budget.timeout.map(|t| std::time::Instant::now() + t);
                let server = self.clone();
                let admitted = self.pool.try_execute(move || {
                    // The pool also catches panics (to keep the worker), but
                    // catching here too lets the client get a response
                    // instead of a silent hang on this id.
                    let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        resolved.answer(&session, &queries, id, &budget, deadline)
                    }))
                    .unwrap_or_else(|_| Response::Error {
                        id,
                        code: ErrorCode::Internal,
                        message: "query panicked in the worker (server bug)".to_owned(),
                    });
                    if matches!(
                        &response,
                        Response::Error {
                            code: ErrorCode::BudgetExhausted | ErrorCode::DeadlineExceeded,
                            ..
                        }
                    ) {
                        server
                            .global
                            .budget_exhausted
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    deliver(response);
                });
                match admitted {
                    Ok(()) => LineOutcome::Deferred,
                    Err(RejectReason::Full) => {
                        self.global.overloaded.fetch_add(1, Ordering::Relaxed);
                        LineOutcome::Inline(Response::overloaded(id))
                    }
                    Err(RejectReason::ShuttingDown) => LineOutcome::Inline(Response::Error {
                        id,
                        code: ErrorCode::Draining,
                        message: "server is draining".to_owned(),
                    }),
                }
            }
        }
    }

    /// Handles one request line against a [`SharedWriter`] (the stdio
    /// transport): inline responses are written immediately, deferred ones
    /// when their worker finishes.
    pub fn dispatch(self: &Arc<Self>, line: &str, out: &SharedWriter) {
        let deferred_out = out.clone();
        match self.handle_line(line, move |response| write_line(&deferred_out, &response)) {
            LineOutcome::Inline(response) => write_line(out, &response),
            LineOutcome::Deferred | LineOutcome::Ignored => {}
        }
    }

    /// Serves TCP connections on the event-driven reactor until a shutdown
    /// request lands, then drains: accepting stops, admitted queries
    /// finish, every connection's pending responses are flushed, the pool
    /// joins.
    ///
    /// One reactor thread owns every socket; N pool workers own every
    /// query. No per-connection threads exist at any load.
    pub fn serve(self: &Arc<Self>, listener: TcpListener) -> io::Result<()> {
        let result = crate::reactor::run(self.clone(), listener);
        self.pool.shutdown();
        result
    }

    /// Serves newline requests from stdin to stdout until EOF or shutdown,
    /// then drains (so every admitted response is flushed before return).
    pub fn serve_stdio(self: &Arc<Self>) {
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(io::stdout())));
        let stdin = io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            match stdin.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => self.dispatch(&line, &out),
            }
            if self.draining() {
                break;
            }
        }
        self.pool.shutdown();
    }
}

/// `lca-serve`'s wire codec on the reactor core: newline-JSON requests in,
/// newline-JSON responses out, no per-connection state. Requests on one
/// connection may all be in flight at once — every response carries its
/// request's `id`.
impl Codec for Server {
    type Conn = ();
    type Request = ();
    type Completion = Response;
    const PIPELINED: bool = true;
    /// No legitimate request line is 16 MiB.
    const MAX_READ_BUFFER: usize = 16 << 20;

    fn metrics(&self) -> &ReactorMetrics {
        &self.global.reactor
    }

    fn draining(&self) -> bool {
        Server::draining(self)
    }

    fn frame(&self, (): &mut (), buf: &[u8], eof: bool) -> Framed<()> {
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => Framed::Request((), pos + 1),
            // A final unterminated line at EOF is still served — stdio
            // mode would serve it, TCP must too.
            None if eof => Framed::Request((), buf.len()),
            None => Framed::Incomplete,
        }
    }

    fn handle(
        self: &Arc<Self>,
        (): &mut (),
        raw: &[u8],
        (): (),
        deliver: Deliver<Response>,
    ) -> Outcome {
        match self.handle_raw_line(raw, move |response| deliver.send(response)) {
            LineOutcome::Inline(response) => Outcome::Inline(self.render(&(), response)),
            LineOutcome::Deferred => Outcome::Deferred,
            LineOutcome::Ignored => Outcome::Ignored,
        }
    }

    fn render(&self, (): &(), response: Response) -> Vec<u8> {
        let mut bytes = response.render().into_bytes();
        bytes.push(b'\n');
        bytes
    }
}

/// Binds a listener, resolving `addr` (`host:port`; port 0 picks an
/// ephemeral port — read it back from `TcpListener::local_addr`).
pub fn bind(addr: impl ToSocketAddrs) -> io::Result<TcpListener> {
    TcpListener::bind(addr)
}
