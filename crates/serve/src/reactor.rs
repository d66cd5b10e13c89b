//! The reactor core: N run-to-completion loops, every connection, any wire
//! codec.
//!
//! The core multiplexes thousands of nonblocking `TcpStream`s over
//! readiness loops built on [`crate::sys`] (epoll on Linux, a portable
//! sweep elsewhere). [`run`] starts `loops` of them, one thread each, and
//! each loop owns its poller and its connection slab. Loop 0 also owns the
//! listener: it accepts every connection and hands it to the loop with the
//! fewest open connections, through that loop's inbox (a mutex-guarded
//! `Vec` plus the loop's waker). The connection then lives on that loop
//! until it closes.
//!
//! Each connection is a small state machine owning its read buffer, its
//! write queue, a count of requests still owed a response, and its
//! [`Codec`]'s per-connection state. The codec decides what the bytes
//! mean: it frames requests off the read buffer and answers them on the
//! loop that framed them, or defers them to its own worker pool, whose
//! results come back through the loop's completion queue plus a wake. Two
//! codecs run here: `lca-serve`'s newline-JSON protocol (the impl on
//! [`crate::server::Server`]), which answers every query inline on N
//! loops, and `lca-fleet`'s HTTP/1.1 gateway, which runs one loop and
//! defers its backend round trips.
//!
//! ```text
//!  listener ──accept──► loop 0 ──fewest open connections──► inbox of loop k
//!                                                                │
//!  each loop, per readiness turn:                                ▼
//!    ≤ 1 read chunk per ready connection ─► Codec::frame ─► burst
//!    burst ─► Codec::handle ─┬─ inline bytes ─► write queue ─► one writev
//!                            └─ deferred ─► codec's pool ─► completion queue
//!                                           + wake ─► write queue ──┘
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
//! * **Fair turns.** A turn reads at most one `READ_CHUNK` per
//!   connection; epoll is level-triggered, so the rest is reported again
//!   next turn. A connection pipelining faster than its loop computes
//!   cannot starve the other connections on that loop.
//! * **Bounded backlog.** A turn frames everything it read before it
//!   handles any of it. The requests a codec frames as [`Framed::Queued`]
//!   count against the loop's backlog until handled, and the codec sees
//!   that count when framing the next one, so it can refuse work past its
//!   bound without running it.
//! * **Drain flushes.** After a shutdown request the loop that sees it
//!   wakes every other loop. Loop 0 stops accepting; each loop keeps
//!   servicing readiness until every admitted job has delivered and every
//!   write queue is empty, then closes and returns.

#![warn(clippy::unwrap_used)]
use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// The most bytes one readiness turn reads from one connection.
const READ_CHUNK: usize = 16 * 1024;

/// How long one `wait` may block: the upper bound on lost-wake recovery
/// and on drain progress for a loop nobody woke, not on response latency
/// (completions, hand-offs and the drain all wake the poller immediately).
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
    /// Like [`Framed::Request`], for admitted work: it holds one slot of
    /// the loop's backlog until it is handled.
    Queued(R, usize),
}

/// What handling one request produced.
pub enum Outcome {
    /// Answered on the spot: queue these bytes.
    Inline(Vec<u8>),
    /// Answered on the spot; the connection closes once the bytes flush
    /// and frames nothing further (after a framing error the codec cannot
    /// know where the next request starts).
    InlineThenClose(Vec<u8>),
    /// Handed to the codec's own worker, whose [`Deliver`] fires exactly
    /// once.
    Deferred,
    /// No response owed (an empty line).
    Ignored,
}

/// A wire protocol served by the reactor core. Implementations are called
/// on the loop that owns the connection; whatever a handler runs inline
/// delays the other connections on that loop, so blocking work goes to a
/// pool behind [`Outcome::Deferred`].
pub trait Codec: Send + Sync + Sized + 'static {
    /// Per-connection protocol state (a parse cursor; `()` when none).
    type Conn: Default;
    /// A framed request, passed from [`Codec::frame`] to [`Codec::handle`].
    type Request;
    /// What a worker hands back through [`Deliver::send`].
    type Completion: Send + 'static;
    /// Whether one connection may have more than one request in flight.
    /// `false` holds later requests in the read buffer until the current
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
    /// `backlog` counts the [`Framed::Queued`] requests this loop holds
    /// unhandled: a codec that bounds admission answers past its bound
    /// instead of queueing.
    fn frame(
        &self,
        conn: &mut Self::Conn,
        buf: &[u8],
        eof: bool,
        backlog: usize,
    ) -> Framed<Self::Request>;
    /// Handles one framed request.
    fn handle(
        self: &Arc<Self>,
        conn: &mut Self::Conn,
        request: Self::Request,
        deliver: Deliver<Self::Completion>,
    ) -> Outcome;
    /// Renders a worker's completion into the bytes queued for the peer.
    fn render(&self, conn: &Self::Conn, completion: Self::Completion) -> Vec<u8>;
    /// Called on loop `loop_index`'s own thread after each turn's burst
    /// has run, for per-loop state a codec publishes (none by default).
    fn turn_done(&self, _loop_index: usize) {}
}

/// A handoff into one loop from other threads: items parked until the
/// loop takes them, plus that loop's waker. It carries a codec's finished
/// completions ([`Completions`]) and the connections loop 0 hands over
/// (each loop's inbox).
///
/// Wakes are **coalesced**: a push only wakes the loop when the mailbox
/// transitions empty → nonempty. While it is nonempty a wake is already
/// in flight (the loop takes everything per wake), so concurrent pushes
/// ride the pending wake instead of issuing one `write(2)` each — under
/// fan-in load many completions land per wakeup, which is exactly what
/// `completions_per_wake` in `stats` witnesses.
pub(crate) struct Mailbox<T> {
    items: Mutex<Vec<T>>,
    waker: Waker,
    /// Wakes actually issued (tests pin the coalescing here).
    wakes_issued: AtomicU64,
}

impl<T> Mailbox<T> {
    fn new(waker: Waker) -> Self {
        Mailbox {
            items: Mutex::new(Vec::new()),
            waker,
            wakes_issued: AtomicU64::new(0),
        }
    }

    /// Parks `item` and wakes the loop iff no wake is already pending.
    /// Never blocks on I/O.
    fn push(&self, item: T) {
        let was_empty = {
            // lint:allow(panic) — poisoned mailbox means a pusher already panicked; propagate
            let mut items = self.items.lock().expect("mailbox poisoned");
            let was_empty = items.is_empty();
            items.push(item);
            was_empty
        };
        if was_empty {
            self.wakes_issued.fetch_add(1, Ordering::Relaxed);
            self.waker.wake();
        }
    }

    fn drain(&self) -> Vec<T> {
        // lint:allow(panic) — poisoned mailbox means a pusher already panicked; propagate
        std::mem::take(&mut *self.items.lock().expect("mailbox poisoned"))
    }
}

/// Worker→loop handoff: finished completions, each tagged with its
/// connection's token, parked until the loop stages them into write
/// queues.
pub(crate) type Completions<T> = Mailbox<(u64, T)>;

/// A deferred job's one-shot way back to the connection that admitted it.
pub struct Deliver<T> {
    completions: Arc<Completions<T>>,
    token: u64,
}

impl<T> Deliver<T> {
    /// Hands `value` to the loop for rendering and flushing. A value for
    /// a connection that closed meanwhile is discarded there (stale
    /// generation), never misdelivered.
    pub fn send(self, value: T) {
        self.completions.push((self.token, value));
    }
}

#[cfg(test)]
impl<T> Deliver<T> {
    /// A handle onto a mailbox no loop drains, for unit tests that call
    /// [`Codec::handle`] directly.
    pub(crate) fn detached() -> Deliver<T> {
        let poller = Poller::new().expect("poller");
        Deliver {
            completions: Arc::new(Completions::new(poller.waker())),
            token: 0,
        }
    }
}

/// What every loop of one [`run`] can see of one loop.
struct LoopHandle {
    /// Connections loop 0 handed over, waiting to be registered.
    inbox: Mailbox<TcpStream>,
    /// Connections assigned to this loop and not yet closed: loop 0 adds
    /// one per hand-off, the owning loop takes one off per close.
    conns: AtomicUsize,
}

/// The loops of one [`run`].
struct Group {
    loops: Vec<LoopHandle>,
    /// Set when a loop stops on an error: the others stop too, so `run`
    /// returns instead of serving with a loop missing.
    aborted: AtomicBool,
}

impl Group {
    fn new(wakers: Vec<Waker>) -> Arc<Group> {
        Arc::new(Group {
            loops: wakers
                .into_iter()
                .map(|waker| LoopHandle {
                    inbox: Mailbox::new(waker),
                    conns: AtomicUsize::new(0),
                })
                .collect(),
            aborted: AtomicBool::new(false),
        })
    }

    fn wake_all(&self) {
        for handle in &self.loops {
            handle.inbox.waker.wake();
        }
    }

    fn abort(&self) {
        self.aborted.store(true, Ordering::Relaxed);
        self.wake_all();
    }
}

/// The loop a new connection goes to: the one with the fewest open
/// connections, ties to the lowest index.
fn least_loaded(conns: impl IntoIterator<Item = usize>) -> usize {
    conns
        .into_iter()
        .enumerate()
        .min_by_key(|&(_, open)| open)
        .map_or(0, |(index, _)| index)
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
    /// Requests framed for this connection whose responses have not yet
    /// been staged into `write_queue`: entries in the loop's burst plus
    /// deferred jobs.
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

/// A request framed this turn and not yet handled.
struct Pending<R> {
    token: u64,
    request: R,
    /// Framed as [`Framed::Queued`]: holds a backlog slot.
    queued: bool,
}

/// Serves `codec` on `listener` with `loops` (≥ 1) readiness loops until
/// the codec's drain completes: accepting stops, admitted jobs finish,
/// every connection's pending responses are flushed (or a 5 s grace for
/// peers that stopped reading expires), sockets close. Loop 0 runs on the
/// calling thread, the others on threads of their own; all have returned
/// when this does. The listener is consumed; a codec's worker pool is
/// left running for the caller to shut down.
pub fn run<C: Codec>(codec: Arc<C>, listener: TcpListener, loops: usize) -> io::Result<()> {
    let pollers = (0..loops.max(1))
        .map(|_| Poller::new())
        .collect::<io::Result<Vec<_>>>()?;
    let group = Group::new(pollers.iter().map(Poller::waker).collect());
    let mut pollers = pollers.into_iter();
    let Some(first) = pollers.next() else {
        return Ok(()); // loops.max(1) made at least one
    };
    let mut siblings = Vec::new();
    let mut result = Ok(());
    for (index, poller) in (1..).zip(pollers) {
        let (loop_codec, loop_group) = (codec.clone(), group.clone());
        let spawned = std::thread::Builder::new()
            .name(format!("lca-loop-{index}"))
            .spawn(move || run_loop(loop_codec, loop_group, index, poller, None));
        match spawned {
            Ok(handle) => siblings.push(handle),
            Err(e) => {
                group.abort();
                result = Err(e);
                break;
            }
        }
    }
    if result.is_ok() {
        result = run_loop(codec, group.clone(), 0, first, Some(listener));
    }
    for handle in siblings {
        let sibling = handle
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("a reactor loop panicked")));
        result = result.and(sibling);
    }
    result
}

/// Runs one loop to its end. A loop that stops on an error or a panic
/// stops its siblings too.
fn run_loop<C: Codec>(
    codec: Arc<C>,
    group: Arc<Group>,
    index: usize,
    poller: Poller,
    listener: Option<TcpListener>,
) -> io::Result<()> {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Reactor::new(codec, group.clone(), index, poller, listener)?.serve()
    }))
    .unwrap_or_else(|_| Err(io::Error::other("a reactor loop panicked")));
    if result.is_err() {
        group.abort();
    }
    result
}

/// One readiness loop; see the module docs.
struct Reactor<C: Codec> {
    codec: Arc<C>,
    group: Arc<Group>,
    /// This loop's position in `group.loops`.
    index: usize,
    poller: Poller,
    /// Loop 0's listener, until the drain stops accepting.
    listener: Option<TcpListener>,
    completions: Arc<Completions<C::Completion>>,
    slots: Vec<Slot<C::Conn>>,
    free: Vec<usize>,
    /// The buffer every read lands in first (`READ_CHUNK` bytes).
    chunk: Vec<u8>,
    /// Requests framed this turn and not yet handled, in framing order.
    burst: VecDeque<Pending<C::Request>>,
    /// The [`Framed::Queued`] entries in `burst`.
    backlog: usize,
    /// Deferred jobs admitted and not yet completed, across all
    /// connections (including ones whose connection died while the job
    /// ran).
    in_flight: usize,
    /// Open connections (slab occupancy).
    open: usize,
    /// When the drain began (first loop iteration that observed the flag);
    /// stalled connections are force-closed [`DRAIN_GRACE`] after this.
    drain_started: Option<Instant>,
}

impl<C: Codec> Reactor<C> {
    /// Builds loop `index` of `group` around `poller`; loop 0 gets the
    /// listener (made nonblocking and registered here). Split from [`run`]
    /// so tests can drive the pieces — accept, completion delivery, flush
    /// — by hand.
    fn new(
        codec: Arc<C>,
        group: Arc<Group>,
        index: usize,
        mut poller: Poller,
        listener: Option<TcpListener>,
    ) -> io::Result<Self> {
        if let Some(listener) = &listener {
            listener.set_nonblocking(true)?;
            sys::deepen_accept_queue(listener)?;
            poller.register(listener.as_raw_fd(), LISTENER_TOKEN, false)?;
        }
        let completions = Arc::new(Mailbox::new(poller.waker()));
        Ok(Reactor {
            codec,
            group,
            index,
            poller,
            listener,
            completions,
            slots: Vec::new(),
            free: Vec::new(),
            chunk: vec![0; READ_CHUNK],
            burst: VecDeque::new(),
            backlog: 0,
            in_flight: 0,
            open: 0,
            drain_started: None,
        })
    }

    /// Runs the event loop, then closes whatever remains (error paths) so
    /// clients see EOF rather than a dead peer.
    fn serve(mut self) -> io::Result<()> {
        let result = self.event_loop();
        for idx in 0..self.slots.len() {
            self.close_conn(idx);
        }
        result
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
            if self.group.aborted.load(Ordering::Relaxed) {
                return Ok(());
            }
            self.take_inbox();
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
            self.deliver_completions();
            self.run_burst();
            self.codec.turn_done(self.index);
            if self.codec.draining() && self.drain_step() {
                return Ok(());
            }
        }
    }

    /// One iteration's drain work; `true` once this loop is done.
    fn drain_step(&mut self) -> bool {
        self.stop_accepting();
        let drain_started = match self.drain_started {
            Some(started) => started,
            None => {
                // The first turn that sees the drain wakes every loop: one
                // blocked in `wait` would otherwise notice only at
                // WAIT_TIMEOUT.
                self.group.wake_all();
                *self.drain_started.insert(Instant::now())
            }
        };
        // Close every connection that owes nothing; past the grace period,
        // also ones whose responses are all *staged* but sit unread in the
        // write queue (a peer that stopped reading, or a half-open that
        // will never become writable, must not pin the drain forever). A
        // connection still waiting on an in-flight job is never abandoned
        // — its job finishes, delivery flushes what the socket accepts,
        // and the next iteration applies this same rule. Done once all
        // are gone and no admitted job is still running.
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
        self.open == 0 && self.in_flight == 0
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
                    self.hand_off(stream);
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

    /// Gives a fresh connection to the loop with the fewest open
    /// connections: this one registers it directly, another through its
    /// inbox.
    fn hand_off(&mut self, stream: TcpStream) {
        let target = least_loaded(
            self.group
                .loops
                .iter()
                .map(|l| l.conns.load(Ordering::Relaxed)),
        );
        let Some(handle) = self.group.loops.get(target) else {
            return;
        };
        handle.conns.fetch_add(1, Ordering::Relaxed);
        if target == self.index {
            self.register_conn(stream);
        } else {
            handle.inbox.push(stream);
        }
    }

    /// Registers the connections loop 0 handed to this loop.
    fn take_inbox(&mut self) {
        let streams = match self.group.loops.get(self.index) {
            Some(handle) => handle.inbox.drain(),
            None => return,
        };
        for stream in streams {
            if self.codec.draining() {
                self.release_assignment(); // handed over in the race window: just close
                continue;
            }
            self.register_conn(stream);
        }
    }

    /// Takes one connection off this loop's hand-off balance.
    fn release_assignment(&self) {
        if let Some(handle) = self.group.loops.get(self.index) {
            handle.conns.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        // Responses are small: Nagle would hold each one back ~40ms
        // against the client's delayed ACK.
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            self.release_assignment();
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
            self.release_assignment();
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
        self.release_assignment();
        self.codec
            .metrics()
            .connections_open
            .fetch_sub(1, Ordering::Relaxed);
        // `conn.stream` drops here, closing the socket. Burst entries and
        // still-running jobs for this connection are discarded when they
        // come up (stale generation).
    }

    /// Looks up a live connection by token, ignoring stale generations
    /// (a completion or burst entry racing a close).
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
            // requests buffered behind it join this turn's burst.
            if !C::PIPELINED {
                self.frame_conn(idx);
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

    /// Reads at most one `READ_CHUNK` and frames what it completes; EOF
    /// lets the codec frame a final unterminated request.
    fn read_ready(&mut self, idx: usize) {
        let Some(conn) = self.slots.get_mut(idx).and_then(|s| s.conn.as_mut()) else {
            return;
        };
        match conn.stream.read(&mut self.chunk) {
            Ok(0) => conn.peer_closed = true,
            Ok(k) => {
                conn.read_buf
                    .extend_from_slice(self.chunk.get(..k).unwrap_or(&[]));
                if conn.read_buf.len() > C::MAX_READ_BUFFER {
                    self.close_conn(idx);
                    return;
                }
            }
            // Level-triggered readiness reports the socket again.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => {
                self.close_conn(idx);
                return;
            }
        }
        self.frame_conn(idx);
        // EOF: the peer cannot send more requests. Close as soon as every
        // owed response has flushed (checked again on each flush).
        self.maybe_close_finished(idx);
    }

    /// Frames the connection's buffered requests into the burst: all of
    /// them, or — for a sequential codec — the next one once nothing is
    /// owed.
    fn frame_conn(&mut self, idx: usize) {
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        let token = token_of(idx, slot.gen);
        let Some(conn) = slot.conn.as_mut() else {
            return;
        };
        let mut consumed = 0;
        while consumed < conn.read_buf.len()
            && !conn.close_after_flush
            && (C::PIPELINED || conn.pending == 0)
        {
            let buf = conn.read_buf.get(consumed..).unwrap_or(&[]);
            let (request, len, queued) =
                match self
                    .codec
                    .frame(&mut conn.state, buf, conn.peer_closed, self.backlog)
                {
                    Framed::Incomplete => break,
                    Framed::Request(request, len) => (request, len, false),
                    Framed::Queued(request, len) => (request, len, true),
                };
            consumed += len.max(1);
            conn.pending += 1;
            if queued {
                self.backlog += 1;
                self.codec.metrics().backlog.fetch_add(1, Ordering::Relaxed);
            }
            self.burst.push_back(Pending {
                token,
                request,
                queued,
            });
        }
        conn.read_buf.drain(..consumed.min(conn.read_buf.len()));
    }

    /// Handles the burst in framing order. A connection is flushed once
    /// its last entry in the burst is handled, so a pipelined run of K
    /// answers costs one gather-write, not K writes.
    fn run_burst(&mut self) {
        while let Some(Pending {
            token,
            request,
            queued,
        }) = self.burst.pop_front()
        {
            if queued {
                self.backlog -= 1;
                self.codec.metrics().backlog.fetch_sub(1, Ordering::Relaxed);
            }
            let Some(idx) = self.live(token) else {
                continue; // its connection closed meanwhile
            };
            self.handle_one(idx, token, request);
            if !matches!(self.burst.front(), Some(next) if next.token == token) {
                self.flush_conn(idx);
            }
        }
    }

    fn handle_one(&mut self, idx: usize, token: u64, request: C::Request) {
        let Some(conn) = self.slots.get_mut(idx).and_then(|s| s.conn.as_mut()) else {
            return;
        };
        conn.pending -= 1;
        if conn.close_after_flush {
            return; // it already sent its last answer
        }
        let deliver = Deliver {
            completions: self.completions.clone(),
            token,
        };
        let metrics = self.codec.metrics();
        match self.codec.handle(&mut conn.state, request, deliver) {
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
                // Count in_flight unconditionally: the job was handed to
                // the pool and its completion will be drained either way.
                self.in_flight += 1;
                conn.pending += 1;
            }
            Outcome::Ignored => {}
        }
        // A pipelined flood must not stage unboundedly between flushes:
        // shed pressure mid-burst.
        let overfull = conn.queued_bytes > MAX_WRITE_BUFFER;
        // A sequential codec's answered request frees the connection:
        // the next buffered one joins the burst.
        if !C::PIPELINED && conn.pending == 0 {
            self.frame_conn(idx);
        }
        if overfull {
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
            completions.push((i, Response::Ok { draining: false }));
        }
        assert_eq!(completions.wakes_issued.load(Ordering::Relaxed), 1);
        assert_eq!(completions.drain().len(), 10);
        // Once drained the next push must wake again — coalescing never
        // loses the transition.
        completions.push((11, Response::Ok { draining: false }));
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
    fn hand_off_fills_the_emptier_loop() {
        // Ties go to the lowest index.
        assert_eq!(least_loaded([0, 0]), 0);
        // Four connections over two loops split 2/2.
        let mut open = [0usize; 2];
        for _ in 0..4 {
            open[least_loaded(open)] += 1;
        }
        assert_eq!(open, [2, 2]);
        // A close on loop 1 makes it the emptier one: the next connection
        // refills it.
        open[1] -= 1;
        assert_eq!(least_loaded(open), 1);
        open[1] += 1;
        assert_eq!(least_loaded(open), 0, "balanced again: lowest index");
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
        // One loop, built by hand: the completion path it drives is the
        // one a deferring codec's workers use.
        let poller = Poller::new().expect("poller");
        let group = Group::new(vec![poller.waker()]);
        let mut reactor =
            Reactor::new(server.clone(), group, 0, poller, Some(listener)).expect("reactor");

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
            reactor.completions.push((
                token,
                Response::Answer {
                    id: Some(i as u64),
                    session: "burst".into(),
                    answer: true,
                    probes: 1,
                    micros: 1,
                },
            ));
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
    }
}
