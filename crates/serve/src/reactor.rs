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
//! Each connection is a socket plus a [`machine::ConnMachine`]: the pure
//! protocol state (read buffer and framing, write queue, requests owed,
//! the [`Codec`]'s per-connection state, and the rules for holding,
//! closing and readiness interest). The loop is the syscall shell around
//! the machines: it polls, accepts and hands off, `read`s, `writev`s,
//! registers and deregisters, and keeps the cross-connection burst order;
//! every connection event ends in one rule, `settle`. The codec decides
//! what the bytes mean: it frames requests off the read buffer and answers
//! them on the loop that framed them, or defers them to its own worker
//! pool, whose results come back through the loop's completion queue plus
//! a wake. Two codecs run here: `lca-serve`'s newline-JSON protocol (the
//! impl on [`crate::server::Server`]), which answers every query inline on
//! N loops, and `lca-fleet`'s HTTP/1.1 gateway, which runs one loop and
//! defers its backend round trips.
//!
//! ```text
//!  listener ──accept──► loop 0 ──fewest open connections──► inbox of loop k
//!                                                                │
//!  each loop, per readiness turn:                                ▼
//!   shell: read ≤ 1 chunk per ready connection ─► machine.on_read
//!          completion queue ─► machine.complete
//!   every event ─► settle: machine.frame ─► burst (framing order)
//!                          writev(machine.flush) ─► set_interest(machine.wants)
//!                          close if machine.finished
//!   burst ─► machine.handle ─► Codec::handle ─┬─ inline bytes ─► write queue
//!                                             └─ deferred ─► codec's pool
//!                                                ─► completion queue + wake
//! ```
//!
//! Invariants the tests lean on (the machine's are replayed by a seeded
//! simulation in `machine::sim`):
//!
//! * **No worker ever blocks on a socket.** Delivery is a queue push plus
//!   a wake; a stalled client just grows its own write queue (bounded:
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
//! * **No spinning on a half-close.** A connection waits for read
//!   readiness only while it can still frame, so a peer that sent EOF and
//!   stopped reading is not reported on every turn while it is owed bytes.
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
use crate::sys::{self, Event, Interest, Poller, Waker};

mod machine;
use machine::ConnMachine;

/// Registration token of the listener (connection tokens never reach it:
/// they encode a slab index in the low 32 bits and a generation above).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

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
        deliver: Deliver,
    ) -> Outcome;
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

/// Worker→loop handoff: finished responses, each tagged with its
/// connection's token, parked until the loop stages them into write
/// queues.
pub(crate) type Completions = Mailbox<(u64, Vec<u8>)>;

/// A deferred job's one-shot way back to the connection that admitted it.
pub struct Deliver {
    completions: Arc<Completions>,
    token: u64,
}

impl Deliver {
    /// Hands the rendered response `bytes` to the loop for flushing. A
    /// response for a connection that closed meanwhile is discarded there
    /// (stale generation), never misdelivered.
    pub fn send(self, bytes: Vec<u8>) {
        self.completions.push((self.token, bytes));
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

/// One connection: its socket, the poller's interest in it, and its
/// protocol state.
struct Conn<C: Codec> {
    stream: TcpStream,
    /// What the poller currently watches this fd for.
    interest: Interest,
    machine: ConnMachine<C>,
}

struct Slot<C: Codec> {
    gen: u32,
    conn: Option<Conn<C>>,
}

fn token_of(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

fn split_token(token: u64) -> (usize, u32) {
    ((token & u32::MAX as u64) as usize, (token >> 32) as u32)
}

/// The live connection `token` names: `None` for a closed slot or a stale
/// generation (a completion or burst entry racing a close), never a panic.
fn live<C: Codec>(slots: &mut [Slot<C>], token: u64) -> Option<&mut Conn<C>> {
    let (idx, gen) = split_token(token);
    slots
        .get_mut(idx)
        .filter(|slot| slot.gen == gen)?
        .conn
        .as_mut()
}

/// Hands the connection's owed bytes to `writev`. `bytes_written` grows by
/// precisely each call's return value, and the machine's queue advances by
/// the same amount, so short writes never over- or under-report.
fn write_out<C: Codec>(conn: &mut Conn<C>, metrics: &ReactorMetrics) {
    let stream = &conn.stream;
    conn.machine.flush(|bufs| {
        metrics.write_syscalls.fetch_add(1, Ordering::Relaxed);
        let written = sys::write_vectored(stream, bufs);
        if let Ok(k) = written {
            metrics.bytes_written.fetch_add(k as u64, Ordering::Relaxed);
        }
        written
    });
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
    completions: Arc<Completions>,
    slots: Vec<Slot<C>>,
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
            poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
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
        // A connection still waiting on an in-flight job is never
        // abandoned: its job finishes, delivery flushes what the socket
        // accepts, and the next iteration applies this same rule. Done
        // once all are gone and no admitted job is still running.
        let grace_expired = drain_started.elapsed() >= DRAIN_GRACE;
        for idx in 0..self.slots.len() {
            let token = token_of(idx, self.slots.get(idx).map_or(0, |slot| slot.gen));
            if let Some(conn) = live(&mut self.slots, token) {
                conn.machine.on_drain(grace_expired);
                self.settle(token, false);
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
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            self.free.push(idx);
            self.release_assignment();
            return;
        }
        slot.conn = Some(Conn {
            stream,
            interest: Interest::READ,
            machine: ConnMachine::new(),
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

    /// Drains the whole completion queue in one pass: every completion is
    /// staged into its connection's write queue first, then each touched
    /// connection is settled exactly once — N completions for one
    /// connection cost one `writev`, not N `write`s.
    fn deliver_completions(&mut self) {
        let batch = self.completions.drain();
        if batch.is_empty() {
            return;
        }
        self.codec
            .metrics()
            .completions_delivered
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let mut touched: Vec<u64> = Vec::with_capacity(batch.len());
        for (token, completion) in batch {
            self.in_flight -= 1;
            if let Some(conn) = live(&mut self.slots, token) {
                conn.machine.complete(&self.codec, completion);
                touched.push(token);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            self.settle(token, true);
        }
    }

    /// Reads at most one `READ_CHUNK` into the machine, then settles.
    fn conn_ready(&mut self, ev: Event) {
        let Some(conn) = live(&mut self.slots, ev.token) else {
            return;
        };
        if ev.readable {
            let read = (&conn.stream).read(&mut self.chunk);
            conn.machine
                .on_read(read.map(|k| self.chunk.get(..k).unwrap_or(&[])));
        }
        // A writable socket takes what is already staged now, before this
        // turn's burst computes more.
        if ev.writable {
            write_out(conn, self.codec.metrics());
        }
        self.settle(ev.token, false);
    }

    /// Handles the burst in framing order, settling each connection after
    /// each of its requests.
    fn run_burst(&mut self) {
        while let Some(entry) = self.burst.pop_front() {
            let token = entry.token;
            if entry.queued {
                self.backlog -= 1;
                self.codec.metrics().backlog.fetch_sub(1, Ordering::Relaxed);
            }
            let Some(conn) = live(&mut self.slots, token) else {
                continue; // its connection closed meanwhile
            };
            let deliver = Deliver {
                completions: self.completions.clone(),
                token,
            };
            // Count in_flight unconditionally: the job was handed to the
            // pool and its completion will be drained either way.
            if conn.machine.handle(&self.codec, entry.request, deliver) {
                self.in_flight += 1;
            }
            self.settle(token, true);
        }
    }

    /// The rule every connection event ends with: frame what the machine
    /// may frame now into the burst; unless its framed requests still wait
    /// there, write what it owes (when `write`: responses were staged),
    /// then close the connection if it is finished or give the poller the
    /// interest it wants.
    fn settle(&mut self, token: u64, write: bool) {
        let Some(conn) = live(&mut self.slots, token) else {
            return;
        };
        let (burst, backlog, metrics) = (&mut self.burst, &mut self.backlog, self.codec.metrics());
        conn.machine
            .frame(&self.codec, *backlog, |request, queued| {
                if queued {
                    *backlog += 1;
                    metrics.backlog.fetch_add(1, Ordering::Relaxed);
                }
                burst.push_back(Pending {
                    token,
                    request,
                    queued,
                });
            });
        if conn.machine.awaits_burst() {
            return;
        }
        if write {
            write_out(conn, metrics);
        }
        if conn.machine.finished() {
            self.close_conn(split_token(token).0);
            return;
        }
        let wants = conn.machine.wants();
        if wants != conn.interest {
            conn.interest = wants;
            let _ = self
                .poller
                .set_interest(conn.stream.as_raw_fd(), token, wants);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests assert; unwrap IS the assertion
mod tests {
    use super::*;

    impl Deliver {
        /// A handle onto a mailbox no loop drains, for unit tests that call
        /// [`Codec::handle`] directly.
        pub(crate) fn detached() -> Deliver {
            let poller = Poller::new().expect("poller");
            Deliver {
                completions: Arc::new(Completions::new(poller.waker())),
                token: 0,
            }
        }

        /// Another handle onto the same mailbox, made without allocating.
        pub(crate) fn again(&self) -> Deliver {
            Deliver {
                completions: self.completions.clone(),
                token: self.token,
            }
        }
    }

    #[test]
    fn completion_pushes_coalesce_into_one_wake() {
        let poller = Poller::new().expect("poller");
        let completions = Completions::new(poller.waker());
        // Ten completions land while the reactor is busy: only the first
        // (empty → nonempty) may write the wake pipe.
        for i in 0..10 {
            completions.push((i, Vec::new()));
        }
        assert_eq!(completions.wakes_issued.load(Ordering::Relaxed), 1);
        assert_eq!(completions.drain().len(), 10);
        // Once drained the next push must wake again — coalescing never
        // loses the transition.
        completions.push((11, Vec::new()));
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

    /// The batch-drain path: N completions land while the reactor is
    /// stalled — exactly one wake is issued, and the next drain delivers
    /// all N responses through exactly one write syscall.
    #[test]
    fn stalled_burst_costs_one_wake_and_one_write_syscall() {
        use crate::reactor::machine::sim::{response, Scripted};
        use std::io::{BufRead as _, Write as _};

        // A pipelined codec that defers every `d` line until the test
        // completes it, driven by one loop built by hand.
        let codec = Scripted::<true>::new();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let poller = Poller::new().expect("poller");
        let group = Group::new(vec![poller.waker()]);
        let mut reactor =
            Reactor::new(codec.clone(), group, 0, poller, Some(listener)).expect("reactor");

        // Connect a client and accept it without running the event loop —
        // the "stalled reactor" half of the scenario.
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        let deadline = Instant::now() + Duration::from_secs(5);
        while reactor.open == 0 {
            reactor.accept_ready();
            assert!(Instant::now() < deadline, "accept never landed");
        }
        let token = token_of(0, reactor.slots[0].gen);

        // N pipelined requests, read, framed and handed to the codec's
        // workers in one turn.
        const N: usize = 10;
        let requests: String = (0..N).map(|i| format!("d{i}\n")).collect();
        client.write_all(requests.as_bytes()).expect("send");
        while reactor.burst.len() < N {
            reactor.conn_ready(Event {
                token,
                readable: true,
                writable: false,
            });
            assert!(Instant::now() < deadline, "requests never framed");
        }
        reactor.run_burst();
        assert_eq!(reactor.in_flight, N);

        // A burst of N completions with no drain in between: only the
        // empty→nonempty transition may write the wake pipe.
        let jobs = std::mem::take(&mut *codec.jobs.lock().unwrap());
        for (deliver, id) in jobs {
            deliver.send(response(id));
        }
        assert_eq!(
            reactor.completions.wakes_issued.load(Ordering::Relaxed),
            1,
            "burst must coalesce into one wake"
        );

        // One drain delivers all N and coalesces them into one writev.
        reactor.deliver_completions();
        let g = codec.metrics();
        assert_eq!(g.completions_delivered.load(Ordering::Relaxed), N as u64);
        assert_eq!(g.responses.load(Ordering::Relaxed), N as u64);
        assert_eq!(
            g.write_syscalls.load(Ordering::Relaxed),
            1,
            "N responses for one connection must flush as one gather-write"
        );
        assert_eq!(reactor.in_flight, 0);
        assert!(!reactor.slots[0]
            .conn
            .as_ref()
            .expect("conn")
            .machine
            .finished());

        // The client sees all N responses, in request order.
        let mut reader = std::io::BufReader::new(client);
        let mut total_bytes = 0u64;
        for i in 0..N {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read response");
            total_bytes += line.len() as u64;
            assert_eq!(line, format!("{i}\n"));
        }
        assert_eq!(
            g.bytes_written.load(Ordering::Relaxed),
            total_bytes,
            "bytes_written matches what actually crossed the socket"
        );
    }
}
