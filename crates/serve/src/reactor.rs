//! The reactor core: one thread, every connection, any wire codec.
//!
//! The core multiplexes thousands of nonblocking `TcpStream`s over the
//! readiness loop in [`crate::sys`] (epoll on Linux, a portable sweep
//! elsewhere). Each connection is a small state machine owning its read
//! buffer, its write queue (responses wait here, never on a worker), a
//! count of in-flight pool jobs, and its [`Codec`]'s per-connection state.
//! The codec decides what the bytes mean: it frames requests off the read
//! buffer, answers them inline or defers them to its worker pool, and
//! renders what workers hand back through the completion queue plus a
//! wake pipe — the only two points where the tiers touch. Two codecs run
//! here: `lca-serve`'s newline-JSON protocol (the impl on
//! [`crate::server::Server`]) and `lca-fleet`'s HTTP/1.1 gateway.
//!
//! ```text
//!  sockets ──readiness──► core ──Codec::frame──► Codec::handle ──defer──► pool
//!     ▲                     ▲                 (inline answers go straight   │
//!     │                     │                  to the write queue)          │
//!     └─────write queues────┴───── completion queue + wake pipe ◄──────────┘
//! ```
//!
//! Invariants the tests lean on:
//!
//! * **No worker ever blocks on a socket.** Delivery is a queue push plus
//!   a wake; a stalled client just grows its own write queue (bounded —
//!   past `MAX_WRITE_BUFFER` the connection is dropped).
//! * **One response per request**, whether inline or deferred, until the
//!   peer goes away. A codec that cannot reorder ([`Codec::PIPELINED`] is
//!   `false`) gets at most one request in flight per connection: later
//!   pipelined bytes wait in the read buffer until the response is staged,
//!   so responses leave in request order.
//! * **Drain flushes.** After a shutdown request the core stops accepting,
//!   keeps servicing readiness until every admitted job has delivered and
//!   every write queue is empty, then closes and returns.

#![warn(clippy::unwrap_used)]
use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::ReactorMetrics;
use crate::sys::{self, Event, Poller, Waker};

/// Registration token of the listener (connection tokens never reach it:
/// they encode a slab index in the low 32 bits and a generation above).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// A connection whose write queue exceeds this is not reading its
/// responses; it is dropped rather than allowed to hold server memory
/// hostage (the bounded-everything rule, applied to the write side).
const MAX_WRITE_BUFFER: usize = 16 << 20;

/// How long one `wait` may block: the upper bound on drain-progress and
/// lost-wake recovery latency, not on response latency (completions wake
/// the poller immediately).
const WAIT_TIMEOUT: Duration = Duration::from_millis(100);

/// How long a drain keeps waiting for stalled connections to accept their
/// pending responses. A client that reads gets every byte well inside
/// this; one that has stopped reading (or silently vanished — a TCP
/// half-open never becomes writable) would otherwise pin the drain loop
/// forever. Past the grace period its connection is dropped so shutdown
/// always terminates.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// What [`Codec::frame`] found at the front of a read buffer.
pub enum Framed<R> {
    /// No complete request yet: read more bytes.
    Incomplete,
    /// One request spanning the first `len` (≥ 1) buffered bytes.
    Request(R, usize),
}

/// What handling one request produced.
pub enum Outcome {
    /// Answered on the spot: queue these bytes.
    Inline(Vec<u8>),
    /// Answered on the spot; the connection closes once the bytes flush
    /// and frames nothing further (after a framing error the codec cannot
    /// know where the next request starts).
    InlineThenClose(Vec<u8>),
    /// Admitted to a worker, whose [`Deliver`] fires exactly once.
    Deferred,
    /// No response owed (an empty line).
    Ignored,
}

/// A wire protocol served by the reactor core. Implementations are called
/// on the reactor thread only — everything here must be quick and
/// nonblocking; blocking work goes to a pool behind [`Outcome::Deferred`].
pub trait Codec: Send + Sync + Sized + 'static {
    /// Per-connection protocol state (a parse cursor; `()` when none).
    type Conn: Default;
    /// A framed request, passed from [`Codec::frame`] to [`Codec::handle`]
    /// (`()` when the raw bytes say it all).
    type Request;
    /// What a worker hands back through [`Deliver::send`].
    type Completion: Send + 'static;
    /// Whether one connection may have more than one request in flight.
    /// `false` holds later requests in the read buffer until the deferred
    /// one's response is staged — request order without reordering slots.
    const PIPELINED: bool;
    /// A read buffer grown past this many bytes drops the connection.
    const MAX_READ_BUFFER: usize;

    /// The counters the core maintains for this codec's listener.
    fn metrics(&self) -> &ReactorMetrics;
    /// `true` once a drain has begun: the core stops accepting and exits
    /// when every connection owes nothing.
    fn draining(&self) -> bool;
    /// Frames the next request off the nonempty `buf`; `eof` is set once
    /// the peer has half-closed, so no further bytes will arrive.
    fn frame(&self, conn: &mut Self::Conn, buf: &[u8], eof: bool) -> Framed<Self::Request>;
    /// Handles one framed request (`raw` is its bytes).
    fn handle(
        self: &Arc<Self>,
        conn: &mut Self::Conn,
        raw: &[u8],
        request: Self::Request,
        deliver: Deliver<Self::Completion>,
    ) -> Outcome;
    /// Renders a worker's completion into the bytes queued for the peer.
    fn render(&self, conn: &Self::Conn, completion: Self::Completion) -> Vec<u8>;
}

/// Worker→reactor handoff: finished completions parked until the reactor
/// stages them into per-connection write queues.
///
/// Wakes are **coalesced**: a push only writes the wake pipe when the
/// queue transitions empty → nonempty. While the queue is nonempty a wake
/// is already in flight (the reactor drains the whole queue per wake), so
/// concurrent completions ride the pending wake instead of issuing one
/// `write(2)` each — under fan-in load many responses land per reactor
/// wakeup, which is exactly what `completions_per_wake` in `stats`
/// witnesses.
pub(crate) struct Completions<T> {
    queue: Mutex<Vec<(u64, T)>>,
    waker: Waker,
    /// Wake-pipe writes actually issued (tests pin the coalescing here).
    wakes_issued: AtomicU64,
}

impl<T> Completions<T> {
    fn new(waker: Waker) -> Self {
        Completions {
            queue: Mutex::new(Vec::new()),
            waker,
            wakes_issued: AtomicU64::new(0),
        }
    }

    /// Parks `value` for `token`'s connection and wakes the reactor iff no
    /// wake is already pending. Called from pool workers; never blocks on
    /// I/O.
    fn push(&self, token: u64, value: T) {
        let was_empty = {
            // lint:allow(panic) — poisoned queue means a worker already panicked; propagate
            let mut queue = self.queue.lock().expect("completion queue poisoned");
            let was_empty = queue.is_empty();
            queue.push((token, value));
            was_empty
        };
        if was_empty {
            self.wakes_issued.fetch_add(1, Ordering::Relaxed);
            self.waker.wake();
        }
    }

    fn drain(&self) -> Vec<(u64, T)> {
        // lint:allow(panic) — poisoned queue means a worker already panicked; propagate
        std::mem::take(&mut *self.queue.lock().expect("completion queue poisoned"))
    }
}

/// A deferred job's one-shot way back to the connection that admitted it.
pub struct Deliver<T> {
    completions: Arc<Completions<T>>,
    token: u64,
}

impl<T> Deliver<T> {
    /// Hands `value` to the reactor for rendering and flushing. A value
    /// for a connection that closed meanwhile is discarded there (stale
    /// generation), never misdelivered.
    pub fn send(self, value: T) {
        self.completions.push(self.token, value);
    }
}

/// One connection's state machine.
struct Conn<S> {
    stream: TcpStream,
    /// Bytes read but not yet framed into a complete request.
    read_buf: Vec<u8>,
    /// Rendered wire units awaiting socket space, oldest first. Kept as
    /// separate buffers so a flush can gather many of them into one
    /// `writev` without copying.
    write_queue: VecDeque<Vec<u8>>,
    /// Bytes of the front `write_queue` entry already accepted by the
    /// kernel (a previous short write stopped mid-unit).
    write_head: usize,
    /// Unsent bytes across the whole queue (`write_queue` total minus
    /// `write_head`) — the buffer-cap and "owes nothing" bookkeeping.
    queued_bytes: usize,
    /// Pool jobs admitted for this connection whose responses have not yet
    /// been staged into `write_queue`.
    pending: usize,
    /// The peer half-closed its write side (EOF seen); we still flush what
    /// we owe, then close.
    peer_closed: bool,
    /// [`Outcome::InlineThenClose`] was returned: frame nothing further,
    /// close once everything owed has flushed.
    close_after_flush: bool,
    /// Whether the poller currently watches this fd for write readiness.
    want_write: bool,
    /// The codec's per-connection state.
    state: S,
}

impl<S> Conn<S> {
    fn queue(&mut self, unit: Vec<u8>) {
        self.queued_bytes += unit.len();
        self.write_queue.push_back(unit);
    }
}

/// Consumes `written` bytes off the front of a connection's write queue,
/// popping fully-sent units and leaving `head` at the partial-write point
/// inside the new front unit. Exact by construction: it advances by
/// precisely what the syscall reported, which is what keeps
/// `bytes_written` (and retry offsets) truthful under short writes.
fn advance_write_queue(queue: &mut VecDeque<Vec<u8>>, head: &mut usize, mut written: usize) {
    while written > 0 {
        let Some(front) = queue.front() else {
            return; // kernel can't accept more than we gathered
        };
        let remaining = front.len() - *head;
        if written >= remaining {
            written -= remaining;
            queue.pop_front();
            *head = 0;
        } else {
            *head += written;
            written = 0;
        }
    }
}

struct Slot<S> {
    gen: u32,
    conn: Option<Conn<S>>,
}

fn token_of(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

fn split_token(token: u64) -> (usize, u32) {
    ((token & u32::MAX as u64) as usize, (token >> 32) as u32)
}

/// Serves `codec` on `listener` until the codec's drain completes: accepting
/// stops, admitted jobs finish, every connection's pending responses are
/// flushed (or a 5 s grace for peers that stopped reading expires),
/// sockets close. The listener is
/// consumed; the codec's worker pool is left running for the caller to
/// shut down.
pub fn run<C: Codec>(codec: Arc<C>, listener: TcpListener) -> io::Result<()> {
    let mut reactor = Reactor::new(codec, listener)?;
    let result = reactor.event_loop();
    // Whatever remains (error paths): close sockets before returning so
    // clients see EOF rather than a dead peer.
    for idx in 0..reactor.slots.len() {
        reactor.close_conn(idx);
    }
    result
}

/// The reactor; see the module docs.
struct Reactor<C: Codec> {
    codec: Arc<C>,
    poller: Poller,
    listener: Option<TcpListener>,
    completions: Arc<Completions<C::Completion>>,
    slots: Vec<Slot<C::Conn>>,
    free: Vec<usize>,
    /// Pool jobs admitted and not yet completed, across all connections
    /// (including ones whose connection died while the job ran).
    in_flight: usize,
    /// Open connections (slab occupancy).
    open: usize,
    /// When the drain began (first loop iteration that observed the flag);
    /// stalled connections are force-closed [`DRAIN_GRACE`] after this.
    drain_started: Option<Instant>,
}

impl<C: Codec> Reactor<C> {
    /// Builds a reactor around a bound listener (made nonblocking and
    /// registered here). Split from [`run`] so tests can drive the pieces
    /// — accept, completion delivery, flush — by hand.
    fn new(codec: Arc<C>, listener: TcpListener) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, false)?;
        let completions = Arc::new(Completions::new(poller.waker()));
        Ok(Reactor {
            codec,
            poller,
            listener: Some(listener),
            completions,
            slots: Vec::new(),
            free: Vec::new(),
            in_flight: 0,
            open: 0,
            drain_started: None,
        })
    }

    fn event_loop(&mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let woken = self.poller.wait(&mut events, WAIT_TIMEOUT)?;
            if woken {
                self.codec
                    .metrics()
                    .reactor_wakeups
                    .fetch_add(1, Ordering::Relaxed);
            }
            // Deliver finished responses first so this iteration's write
            // readiness can flush them immediately.
            self.deliver_completions();
            // `events` is a local buffer, disjoint from `self`, so the
            // loop body can mutate the reactor freely.
            for &ev in &events {
                if ev.token == LISTENER_TOKEN {
                    if ev.readable {
                        self.accept_ready();
                    }
                } else {
                    self.conn_ready(ev);
                }
            }
            // Completions that landed while we processed events go out now
            // instead of waiting for the wake to be observed next
            // iteration — one drain's worth of latency saved per loop.
            self.deliver_completions();
            if self.codec.draining() {
                self.stop_accepting();
                let drain_started = *self.drain_started.get_or_insert_with(Instant::now);
                // Close every connection that owes nothing; past the grace
                // period, also ones whose responses are all *staged* but
                // sit unread in the write queue (a peer that stopped
                // reading, or a half-open that will never become writable,
                // must not pin the drain forever). A connection still
                // waiting on an in-flight job is never abandoned — its
                // job finishes, delivery flushes what the socket accepts,
                // and the next iteration applies this same rule. Exit once
                // all are gone and no admitted job is still running.
                let grace_expired = drain_started.elapsed() >= DRAIN_GRACE;
                for idx in 0..self.slots.len() {
                    let done = matches!(
                        self.conn_ref(idx),
                        Some(c) if c.pending == 0 && (grace_expired || c.queued_bytes == 0)
                    );
                    if done {
                        self.close_conn(idx);
                    }
                }
                if self.open == 0 && self.in_flight == 0 {
                    return Ok(());
                }
            }
        }
    }

    fn stop_accepting(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd(), LISTENER_TOKEN);
            // Dropping closes the socket: new connects are refused, which
            // is the drain contract.
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.codec.draining() {
                        continue; // accepted in the race window: just close
                    }
                    self.register_conn(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient accept failures (EMFILE, aborted handshake):
                    // yield briefly so a level-triggered listener event
                    // cannot spin the loop hot, then let the next readiness
                    // retry.
                    std::thread::sleep(Duration::from_millis(1));
                    return;
                }
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        // Responses are small: Nagle would hold each one back ~40ms
        // against the client's delayed ACK.
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot { gen: 0, conn: None });
                self.slots.len() - 1
            }
        };
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        let token = token_of(idx, slot.gen);
        if self
            .poller
            .register(stream.as_raw_fd(), token, false)
            .is_err()
        {
            self.free.push(idx);
            return;
        }
        slot.conn = Some(Conn {
            stream,
            read_buf: Vec::new(),
            write_queue: VecDeque::new(),
            write_head: 0,
            queued_bytes: 0,
            pending: 0,
            peer_closed: false,
            close_after_flush: false,
            want_write: false,
            state: C::Conn::default(),
        });
        self.open += 1;
        let metrics = self.codec.metrics();
        metrics.connections.fetch_add(1, Ordering::Relaxed);
        metrics.connections_open.fetch_add(1, Ordering::Relaxed);
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        let token = token_of(idx, slot.gen);
        let Some(conn) = slot.conn.take() else {
            return;
        };
        slot.gen = slot.gen.wrapping_add(1);
        let _ = self.poller.deregister(conn.stream.as_raw_fd(), token);
        self.free.push(idx);
        self.open -= 1;
        self.codec
            .metrics()
            .connections_open
            .fetch_sub(1, Ordering::Relaxed);
        // `conn.stream` drops here, closing the socket. Any still-running
        // job for this connection delivers into the completion queue and is
        // discarded there (stale generation).
    }

    /// Looks up a live connection by token, ignoring stale generations
    /// (a completion racing a close).
    fn live(&self, token: u64) -> Option<usize> {
        let (idx, gen) = split_token(token);
        match self.slots.get(idx) {
            Some(slot) if slot.gen == gen && slot.conn.is_some() => Some(idx),
            _ => None,
        }
    }

    /// The live connection at `idx`, if any — an already-closed slot (a
    /// dispatch or flush raced a close) is `None`, never a panic.
    fn conn_ref(&self, idx: usize) -> Option<&Conn<C::Conn>> {
        self.slots.get(idx).and_then(|slot| slot.conn.as_ref())
    }

    /// Mutable variant of [`Reactor::conn_ref`].
    fn conn_mut(&mut self, idx: usize) -> Option<&mut Conn<C::Conn>> {
        self.slots.get_mut(idx).and_then(|slot| slot.conn.as_mut())
    }

    /// Drains the whole completion queue in one pass: every completion is
    /// rendered into its connection's write queue first, then each touched
    /// connection is flushed exactly once — N completions for one
    /// connection cost one `writev`, not N `write`s.
    fn deliver_completions(&mut self) {
        let batch = self.completions.drain();
        if batch.is_empty() {
            return;
        }
        let metrics = self.codec.metrics();
        metrics
            .completions_delivered
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let mut touched: Vec<usize> = Vec::with_capacity(batch.len());
        for (token, completion) in batch {
            self.in_flight -= 1;
            let Some(idx) = self.live(token) else {
                continue;
            };
            let Some(conn) = self.slots.get_mut(idx).and_then(|s| s.conn.as_mut()) else {
                continue;
            };
            conn.pending -= 1;
            conn.queue(self.codec.render(&conn.state, completion));
            metrics.responses.fetch_add(1, Ordering::Relaxed);
            touched.push(idx);
        }
        touched.sort_unstable();
        touched.dedup();
        for idx in touched {
            // A sequential codec's staged response frees the connection:
            // requests buffered behind it run now, and their inline
            // answers ride the same flush.
            if !C::PIPELINED {
                self.process(idx);
            }
            // flush_conn is a no-op on a slot something above closed.
            self.flush_conn(idx);
        }
    }

    fn conn_ready(&mut self, ev: Event) {
        let Some(idx) = self.live(ev.token) else {
            return;
        };
        if ev.readable {
            self.read_ready(idx);
        }
        if ev.writable && self.conn_ref(idx).is_some() {
            self.flush_conn(idx);
        }
    }

    /// Reads whatever the socket has, framing and handling requests after
    /// every chunk; EOF lets the codec frame a final unterminated request.
    fn read_ready(&mut self, idx: usize) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conn_mut(idx) else {
                return;
            };
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    self.process(idx);
                    break;
                }
                Ok(k) => {
                    conn.read_buf
                        .extend_from_slice(chunk.get(..k).unwrap_or(&[]));
                    if conn.read_buf.len() > C::MAX_READ_BUFFER {
                        self.close_conn(idx);
                        return;
                    }
                    self.process(idx);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
        // One coalesced flush for everything this readiness event staged.
        if matches!(self.conn_ref(idx), Some(c) if c.queued_bytes > 0) {
            self.flush_conn(idx);
        }
        // EOF: the peer cannot send more requests. Close as soon as every
        // owed response has flushed (checked again on each completion).
        self.maybe_close_finished(idx);
    }

    /// Frames and handles buffered requests until the buffer runs dry, the
    /// codec's in-flight rule says wait, or the connection is to close.
    /// Inline answers pile up in the write queue for the caller's one
    /// coalesced flush, so a pipelined burst of K requests costs one
    /// gather-write, not K writes.
    fn process(&mut self, idx: usize) {
        loop {
            let Some(slot) = self.slots.get_mut(idx) else {
                return;
            };
            let token = token_of(idx, slot.gen);
            let Some(conn) = slot.conn.as_mut() else {
                return;
            };
            let metrics = self.codec.metrics();
            let mut consumed = 0;
            let mut overfull = false;
            while consumed < conn.read_buf.len()
                && !conn.close_after_flush
                && (C::PIPELINED || conn.pending == 0)
            {
                let buf = conn.read_buf.get(consumed..).unwrap_or(&[]);
                let Framed::Request(request, len) =
                    self.codec.frame(&mut conn.state, buf, conn.peer_closed)
                else {
                    break;
                };
                let raw = buf.get(..len).unwrap_or(buf);
                consumed += len.max(1);
                let deliver = Deliver {
                    completions: self.completions.clone(),
                    token,
                };
                match self.codec.handle(&mut conn.state, raw, request, deliver) {
                    Outcome::Inline(bytes) => {
                        conn.queue(bytes);
                        metrics.responses.fetch_add(1, Ordering::Relaxed);
                    }
                    Outcome::InlineThenClose(bytes) => {
                        conn.queue(bytes);
                        metrics.responses.fetch_add(1, Ordering::Relaxed);
                        conn.close_after_flush = true;
                    }
                    Outcome::Deferred => {
                        // Count in_flight unconditionally: the job was
                        // handed to the pool and its completion will be
                        // drained either way.
                        self.in_flight += 1;
                        conn.pending += 1;
                    }
                    Outcome::Ignored => {}
                }
                // A pipelined flood must not stage unboundedly between
                // flushes: shed pressure mid-batch.
                if conn.queued_bytes > MAX_WRITE_BUFFER {
                    overfull = true;
                    break;
                }
            }
            conn.read_buf.drain(..consumed.min(conn.read_buf.len()));
            if !overfull {
                return;
            }
            self.flush_conn(idx);
        }
    }

    /// Writes as much of the connection's queue as the socket accepts —
    /// gathering up to [`sys::MAX_IOVECS`] queued units per `writev` —
    /// maintains write-readiness interest, enforces the buffer cap, and
    /// closes once a finished connection owes nothing.
    ///
    /// Accounting is exact per syscall: `bytes_written` grows by precisely
    /// the syscall's return value and the queue advances by the same
    /// amount, so short writes never over- or under-report.
    fn flush_conn(&mut self, idx: usize) {
        let metrics = self.codec.metrics();
        let mut close = false;
        let mut interest = None;
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        let gen = slot.gen;
        let Some(conn) = slot.conn.as_mut() else {
            return;
        };
        while conn.queued_bytes > 0 {
            let mut bufs: Vec<&[u8]> =
                Vec::with_capacity(conn.write_queue.len().min(sys::MAX_IOVECS));
            let mut gathered = 0usize;
            let mut units = conn.write_queue.iter();
            let Some(front) = units.next() else {
                break; // queued_bytes drifted from an empty queue: bail
            };
            let head = front.get(conn.write_head..).unwrap_or(&[]);
            bufs.push(head);
            gathered += head.len();
            for unit in units.take(sys::MAX_IOVECS - 1) {
                bufs.push(unit);
                gathered += unit.len();
            }
            metrics.write_syscalls.fetch_add(1, Ordering::Relaxed);
            match sys::write_vectored(&conn.stream, &bufs) {
                Ok(0) => {
                    close = true;
                    break;
                }
                Ok(k) => {
                    metrics.bytes_written.fetch_add(k as u64, Ordering::Relaxed);
                    advance_write_queue(&mut conn.write_queue, &mut conn.write_head, k);
                    conn.queued_bytes -= k;
                    if k < gathered {
                        // Short write: the socket buffer is full; retrying
                        // now would only earn a WouldBlock.
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    close = true;
                    break;
                }
            }
        }
        if conn.queued_bytes > MAX_WRITE_BUFFER {
            // The peer has stopped reading; it forfeits the connection.
            close = true;
        }
        if !close {
            let needs_write = conn.queued_bytes > 0;
            if needs_write != conn.want_write {
                conn.want_write = needs_write;
                interest = Some((conn.stream.as_raw_fd(), needs_write));
            }
        }
        if close {
            self.close_conn(idx);
            return;
        }
        if let Some((fd, needs_write)) = interest {
            let _ = self
                .poller
                .set_writable(fd, token_of(idx, gen), needs_write);
        }
        self.maybe_close_finished(idx);
    }

    /// Closes a connection that will frame no more requests (peer EOF, or
    /// a close-after-flush answer) and owes nothing more.
    fn maybe_close_finished(&mut self, idx: usize) {
        let done = matches!(
            self.conn_ref(idx),
            Some(c) if (c.peer_closed || c.close_after_flush)
                && c.pending == 0
                && c.queued_bytes == 0
        );
        if done {
            self.close_conn(idx);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests assert; unwrap IS the assertion
mod tests {
    use super::*;
    use crate::proto::Response;
    use crate::server::Server;

    #[test]
    fn completion_pushes_coalesce_into_one_wake() {
        let poller = Poller::new().expect("poller");
        let completions = Completions::new(poller.waker());
        // Ten completions land while the reactor is busy: only the first
        // (empty → nonempty) may write the wake pipe.
        for i in 0..10 {
            completions.push(i, Response::Ok { draining: false });
        }
        assert_eq!(completions.wakes_issued.load(Ordering::Relaxed), 1);
        assert_eq!(completions.drain().len(), 10);
        // Once drained the next push must wake again — coalescing never
        // loses the transition.
        completions.push(11, Response::Ok { draining: false });
        assert_eq!(completions.wakes_issued.load(Ordering::Relaxed), 2);
        assert_eq!(completions.drain().len(), 1);
    }

    #[test]
    fn tokens_round_trip_and_generations_differ() {
        for (idx, gen) in [(0usize, 0u32), (7, 3), (u32::MAX as usize, u32::MAX)] {
            let t = token_of(idx, gen);
            assert_eq!(split_token(t), (idx, gen));
            assert_ne!(t, LISTENER_TOKEN);
        }
        assert_ne!(token_of(5, 1), token_of(5, 2), "reuse is distinguishable");
    }

    #[test]
    fn advance_write_queue_is_exact_under_short_writes() {
        let mut queue: VecDeque<Vec<u8>> = [b"aaaa".to_vec(), b"bb".to_vec(), b"cccccc".to_vec()]
            .into_iter()
            .collect();
        let mut head = 0usize;
        // A short write that ends mid-second-unit.
        advance_write_queue(&mut queue, &mut head, 5);
        assert_eq!(queue.len(), 2);
        assert_eq!(head, 1);
        // Zero progress is a no-op.
        advance_write_queue(&mut queue, &mut head, 0);
        assert_eq!((queue.len(), head), (2, 1));
        // Finishing the partial unit exactly resets the head.
        advance_write_queue(&mut queue, &mut head, 1);
        assert_eq!((queue.len(), head), (1, 0));
        // Consuming everything empties the queue.
        advance_write_queue(&mut queue, &mut head, 6);
        assert!(queue.is_empty());
        assert_eq!(head, 0);
    }

    /// The batch-drain path: N completions land while the reactor is
    /// stalled — exactly one wake is issued, and the next drain delivers
    /// all N responses through exactly one write syscall.
    #[test]
    fn stalled_burst_costs_one_wake_and_one_write_syscall() {
        use crate::server::ServerConfig;
        use std::io::BufRead as _;

        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut reactor = Reactor::new(server.clone(), listener).expect("reactor");

        // Connect a client and accept it without running the event loop —
        // the "stalled reactor" half of the scenario.
        let client = std::net::TcpStream::connect(addr).expect("connect");
        let deadline = Instant::now() + Duration::from_secs(5);
        while reactor.open == 0 {
            reactor.accept_ready();
            assert!(Instant::now() < deadline, "accept never landed");
        }
        let token = token_of(0, reactor.slots[0].gen);

        // A burst of N completions with no drain in between: only the
        // empty→nonempty transition may write the wake pipe.
        const N: usize = 10;
        reactor.slots[0].conn.as_mut().expect("conn").pending = N;
        reactor.in_flight = N;
        for i in 0..N {
            reactor.completions.push(
                token,
                Response::Answer {
                    id: Some(i as u64),
                    session: "burst".into(),
                    answer: true,
                    probes: 1,
                    micros: 1,
                },
            );
        }
        assert_eq!(
            reactor.completions.wakes_issued.load(Ordering::Relaxed),
            1,
            "burst must coalesce into one wake"
        );

        // One drain delivers all N and coalesces them into one writev.
        reactor.deliver_completions();
        let g = &server.global.reactor;
        assert_eq!(g.completions_delivered.load(Ordering::Relaxed), N as u64);
        assert_eq!(g.responses.load(Ordering::Relaxed), N as u64);
        assert_eq!(
            g.write_syscalls.load(Ordering::Relaxed),
            1,
            "N responses for one connection must flush as one gather-write"
        );
        assert_eq!(reactor.in_flight, 0);
        assert_eq!(reactor.slots[0].conn.as_ref().expect("conn").pending, 0);

        // The client sees all N responses, in completion order.
        let mut reader = std::io::BufReader::new(client);
        let mut total_bytes = 0u64;
        for i in 0..N {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read response");
            total_bytes += line.len() as u64;
            assert!(line.contains(&format!("\"id\":{i}")), "{line}");
        }
        assert_eq!(
            g.bytes_written.load(Ordering::Relaxed),
            total_bytes,
            "bytes_written matches what actually crossed the socket"
        );
        server.pool.shutdown();
    }
}
