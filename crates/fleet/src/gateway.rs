//! The HTTP front end: an HTTP/1.1 codec on `lca-serve`'s reactor core,
//! plus the worker pool that runs the blocking backend round trips.
//!
//! The gateway owns no connection machinery. [`lca_serve::reactor`]
//! multiplexes every client socket — generation-tagged slab, coalesced
//! completion wakes, `writev` with exact short-write accounting, bounded
//! drain, the reactor counters — and this module supplies only the
//! [`Codec`]: [`http::try_parse`] framing, endpoint routing, the
//! `400`-then-close answer to unframeable bytes, and the fleet work
//! ([`crate::router::Fleet`]) deferred to the pool.
//!
//! ```text
//!  HTTP clients ──► reactor core ──HTTP codec──► worker pool ──► Fleet
//!       ▲                ▲                           │ (blocking backend
//!       └─write queues───┴────── completions ◄───────┘  round trip)
//! ```
//!
//! **Responses stay in request order.** HTTP/1.1 pipelining requires it,
//! so the codec is not [`Codec::PIPELINED`]: while a deferred request is
//! in flight its connection frames nothing further — later pipelined bytes
//! wait in the read buffer until the response is staged. Concurrency comes
//! from many connections, not from reordering one connection's requests.

#![warn(clippy::unwrap_used)]
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lca_serve::metrics::ReactorMetrics;
use lca_serve::pool::{RejectReason, WorkerPool};
use lca_serve::proto::{ErrorCode, Response};
use lca_serve::reactor::{Codec, Deliver, Framed, Outcome};

use crate::http::{self, HttpRequest, ParseOutcome};
use crate::router::{Fleet, FleetReply};

/// Sizing knobs for a [`Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Worker threads doing backend round trips (default: available
    /// parallelism). Each in-flight HTTP request occupies one worker for
    /// the duration of its backend round trip, so this also bounds the
    /// gateway's concurrent demand on the fleet.
    pub workers: usize,
    /// Admission-queue bound; requests beyond it are answered `429
    /// overloaded` (default 1024).
    pub queue_capacity: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            queue_capacity: 1024,
        }
    }
}

/// The gateway: the fleet router plus the worker pool that executes its
/// round trips, shared between the reactor thread and HTTP handlers.
pub struct Gateway {
    fleet: Arc<Fleet>,
    pool: WorkerPool,
    draining: AtomicBool,
    /// The reactor core's client-side counters: the `gateway` object of
    /// `GET /v1/stats`.
    metrics: ReactorMetrics,
}

impl Gateway {
    /// Builds a gateway over `fleet` (spawns its worker pool immediately).
    pub fn new(fleet: Fleet, config: GatewayConfig) -> Arc<Gateway> {
        Arc::new(Gateway {
            fleet: Arc::new(fleet),
            pool: WorkerPool::new(config.workers, config.queue_capacity),
            draining: AtomicBool::new(false),
            metrics: ReactorMetrics::default(),
        })
    }

    /// The fleet this gateway routes over.
    pub fn fleet(&self) -> &Arc<Fleet> {
        &self.fleet
    }

    /// `true` once a `POST /v1/shutdown` has been accepted.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// HTTP responses handed to client connections so far (the reactor's
    /// `responses` counter).
    pub fn responses_served(&self) -> u64 {
        self.metrics.responses.load(Ordering::Relaxed)
    }

    /// Serves HTTP on `listener` until a shutdown request drains the
    /// gateway. One reactor loop owns every socket; pool workers own
    /// every backend round trip, which blocks, so it never runs on the
    /// loop.
    pub fn serve(self: &Arc<Self>, listener: TcpListener) -> io::Result<()> {
        let result = lca_serve::reactor::run(self.clone(), listener, 1);
        self.pool.shutdown();
        result
    }

    /// Admits `job` to the worker pool; its reply comes back rendered
    /// through `deliver`. Pool-full answers the typed `overloaded` error
    /// inline — the same admission control the backends apply, enforced
    /// again at the HTTP tier.
    fn defer(
        self: &Arc<Self>,
        deliver: Deliver,
        job: impl FnOnce(&Gateway) -> FleetReply + Send + 'static,
    ) -> Outcome {
        let gateway = self.clone();
        let admitted = self.pool.try_execute(move || {
            // A panicking round trip still owes its connection a response.
            let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(&gateway)))
                .unwrap_or_else(|_| {
                    FleetReply::error(ErrorCode::Internal, "gateway worker panicked", None)
                });
            deliver.send(http::render_response(reply.status, &reply.body));
        });
        match admitted {
            Ok(()) => Outcome::Deferred,
            Err(reject) => {
                let code = match reject {
                    RejectReason::Full => ErrorCode::Overloaded,
                    RejectReason::ShuttingDown => ErrorCode::Draining,
                };
                let reply = FleetReply::error(code, "gateway admission queue", None);
                Outcome::Inline(http::render_response(reply.status, &reply.body))
            }
        }
    }
}

/// HTTP/1.1 on the reactor core: one request in flight per connection.
impl Codec for Gateway {
    /// [`http::try_parse`]'s scan cursor over the unframed tail.
    type Conn = usize;
    /// A parsed request, or why the bytes cannot be one.
    type Request = Result<HttpRequest, &'static str>;
    const PIPELINED: bool = false;
    const MAX_READ_BUFFER: usize = http::MAX_HEAD + http::MAX_BODY;

    fn metrics(&self) -> &ReactorMetrics {
        &self.metrics
    }

    fn draining(&self) -> bool {
        Gateway::draining(self)
    }

    fn frame(
        &self,
        scanned: &mut usize,
        buf: &[u8],
        _eof: bool,
        _backlog: usize,
    ) -> Framed<Self::Request> {
        match http::try_parse(buf, scanned) {
            ParseOutcome::Incomplete => Framed::Incomplete,
            ParseOutcome::Request(request, len) => {
                *scanned = 0;
                Framed::Request(Ok(request), len)
            }
            // Nothing after a framing error can be framed either.
            ParseOutcome::Error(msg) => Framed::Request(Err(msg), buf.len()),
        }
    }

    /// Routes one request: control endpoints answer inline, the fleet
    /// endpoints defer to the worker pool (a blocking backend round trip
    /// never runs on the reactor thread).
    fn handle(
        self: &Arc<Self>,
        _: &mut usize,
        request: Self::Request,
        deliver: Deliver,
    ) -> Outcome {
        let bad_request = |msg| FleetReply::error(ErrorCode::BadRequest, msg, None).body;
        let request = match request {
            Ok(request) => request,
            Err(msg) => {
                // This connection is dropped after the flush: the response
                // must say so, not keep-alive.
                let body = bad_request(msg);
                return Outcome::InlineThenClose(http::render_close_response(400, &body));
            }
        };
        let (status, body) = match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/v1/query") => match String::from_utf8(request.body) {
                Ok(body) => return self.defer(deliver, move |gw| gw.fleet.query(&body)),
                Err(_) => (400, bad_request("body is not UTF-8")),
            },
            ("GET", "/v1/stats") => {
                return self.defer(deliver, |gw| {
                    gw.fleet
                        .stats(vec![("gateway".to_owned(), gw.metrics.render())])
                })
            }
            ("GET", "/v1/sessions") => return self.defer(deliver, |gw| gw.fleet.sessions()),
            ("POST", "/v1/shutdown") => {
                self.draining.store(true, Ordering::SeqCst);
                (200, Response::Ok { draining: true }.render())
            }
            (_, "/v1/query" | "/v1/stats" | "/v1/sessions" | "/v1/shutdown") => {
                (405, bad_request("method not allowed"))
            }
            _ => (404, bad_request("unknown path")),
        };
        Outcome::Inline(http::render_response(status, &body))
    }
}
