//! One connection's protocol state, with no socket in it.
//!
//! A [`ConnMachine`] holds what the reactor knows about a connection
//! between syscalls: the read buffer and its framing, the write queue, the
//! count of requests still owed a response, and the rules that decide when
//! the next request may be framed, what readiness to wait for and when the
//! connection is finished. The loop feeds it events (a read's result, a
//! handled request, a completion, a drain turn), hands its `writev` to
//! [`ConnMachine::flush`], and acts on what it reports. Nothing here makes
//! a syscall, so every ordering of those events can be replayed in a
//! seeded simulation (the `sim` test module).

use std::collections::VecDeque;
use std::io::{self, ErrorKind};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::{Codec, Deliver, Framed, Outcome};
use crate::sys::{self, Interest};

/// A connection whose write queue exceeds this after a flush is not
/// reading its responses; it is dropped rather than allowed to hold server
/// memory hostage (the bounded-everything rule, applied to the write side).
pub(super) const MAX_WRITE_BUFFER: usize = 16 << 20;

pub(super) struct ConnMachine<C: Codec> {
    /// Bytes read but not yet framed into a complete request.
    read_buf: Vec<u8>,
    /// Bytes (or EOF) arrived since the codec last framed
    /// [`Framed::Incomplete`]: only then can framing make progress.
    fresh: bool,
    /// Rendered wire units awaiting socket space, oldest first. Kept as
    /// separate buffers so a flush can gather many of them into one
    /// `writev` without copying.
    write_queue: VecDeque<Vec<u8>>,
    /// Bytes of the front `write_queue` entry already accepted by the
    /// kernel (a previous short write stopped mid-unit).
    write_head: usize,
    /// Unsent bytes across the whole queue (`write_queue` total minus
    /// `write_head`).
    queued_bytes: usize,
    /// Requests framed into the loop's burst and not yet handled.
    unhandled: usize,
    /// Requests handed to the codec's workers and not yet completed.
    deferred: usize,
    /// The peer half-closed its write side (EOF seen): flush what is
    /// owed, then close.
    peer_closed: bool,
    /// [`Outcome::InlineThenClose`] was returned: frame nothing further,
    /// close once everything owed has flushed.
    close_after_flush: bool,
    /// The loop is draining: close once nothing is owed.
    draining: bool,
    /// The drain's grace period is over: close once no request is
    /// pending, with bytes unsent if need be (a peer that stopped reading,
    /// or a half-open that never becomes writable, must not pin the drain
    /// forever).
    abandon: bool,
    /// A read or write failed, the read buffer overflowed, or the write
    /// queue stayed over its cap: close now, owed or not.
    broken: bool,
    /// The codec's per-connection state.
    state: C::Conn,
}

impl<C: Codec> ConnMachine<C> {
    pub(super) fn new() -> Self {
        ConnMachine {
            read_buf: Vec::new(),
            fresh: false,
            write_queue: VecDeque::new(),
            write_head: 0,
            queued_bytes: 0,
            unhandled: 0,
            deferred: 0,
            peer_closed: false,
            close_after_flush: false,
            draining: false,
            abandon: false,
            broken: false,
            state: C::Conn::default(),
        }
    }

    /// Takes one read's result: bytes, EOF (no bytes), or an error.
    pub(super) fn on_read(&mut self, read: io::Result<&[u8]>) {
        match read {
            Ok([]) => {
                // EOF lets the codec frame a final unterminated request.
                self.fresh |= !self.peer_closed;
                self.peer_closed = true;
            }
            Ok(bytes) if self.read_buf.len() + bytes.len() > C::MAX_READ_BUFFER => {
                self.broken = true;
            }
            Ok(bytes) => {
                self.read_buf.extend_from_slice(bytes);
                self.fresh = true;
            }
            // Level-triggered readiness reports the socket again.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => self.broken = true,
        }
    }

    /// Frames what may be framed now into `push`, with whether the codec
    /// queued it: every buffered request, or for a sequential codec
    /// ([`Codec::PIPELINED`] is `false`) the next one once nothing is owed,
    /// so its responses leave in request order. `backlog` is the loop's
    /// count of queued requests before this call.
    pub(super) fn frame(
        &mut self,
        codec: &C,
        mut backlog: usize,
        mut push: impl FnMut(C::Request, bool),
    ) {
        let mut consumed = 0;
        while self.fresh
            && consumed < self.read_buf.len()
            && !self.close_after_flush
            && !self.broken
            && (C::PIPELINED || self.unhandled + self.deferred == 0)
        {
            let buf = self.read_buf.get(consumed..).unwrap_or(&[]);
            let (request, len, queued) =
                match codec.frame(&mut self.state, buf, self.peer_closed, backlog) {
                    Framed::Incomplete => {
                        self.fresh = false;
                        break;
                    }
                    Framed::Request(request, len) => (request, len, false),
                    Framed::Queued(request, len) => (request, len, true),
                };
            consumed += len.max(1);
            self.unhandled += 1;
            backlog += usize::from(queued);
            push(request, queued);
        }
        self.read_buf.drain(..consumed.min(self.read_buf.len()));
    }

    /// Handles one framed request of this connection; `true` when the
    /// codec deferred it to its own worker.
    pub(super) fn handle(&mut self, codec: &Arc<C>, request: C::Request, deliver: Deliver) -> bool {
        self.unhandled -= 1;
        if self.close_after_flush {
            return false; // it already sent its last answer
        }
        match codec.handle(&mut self.state, request, deliver) {
            Outcome::Inline(bytes) => self.stage(codec, bytes),
            Outcome::InlineThenClose(bytes) => {
                self.stage(codec, bytes);
                self.close_after_flush = true;
            }
            Outcome::Deferred => {
                self.deferred += 1;
                return true;
            }
            Outcome::Ignored => {}
        }
        false
    }

    /// Stages a deferred request's rendered response.
    pub(super) fn complete(&mut self, codec: &C, bytes: Vec<u8>) {
        self.deferred -= 1;
        self.stage(codec, bytes);
    }

    fn stage(&mut self, codec: &C, bytes: Vec<u8>) {
        self.queued_bytes += bytes.len();
        self.write_queue.push_back(bytes);
        codec.metrics().responses.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether requests framed for this connection still wait in the
    /// loop's burst, and the queue is under its cap: the last of them
    /// flushes everything at once, so a pipelined run of K answers costs
    /// one gather-write, not K.
    pub(super) fn awaits_burst(&self) -> bool {
        self.unhandled > 0 && self.queued_bytes <= MAX_WRITE_BUFFER
    }

    /// Offers the unsent bytes to `writev`, up to [`sys::MAX_IOVECS`]
    /// units per call, until the queue empties, a call comes up short (the
    /// socket buffer is full; retrying now would only earn a WouldBlock),
    /// or it fails. Exact per call: the queue advances by precisely what
    /// `writev` reported.
    pub(super) fn flush(&mut self, mut writev: impl FnMut(&[&[u8]]) -> io::Result<usize>) {
        while self.queued_bytes > 0 && !self.finished() {
            let mut units = self.write_queue.iter();
            let head = units
                .next()
                .and_then(|front| front.get(self.write_head..))
                .unwrap_or(&[]);
            let bufs: Vec<&[u8]> = std::iter::once(head)
                .chain(units.take(sys::MAX_IOVECS - 1).map(Vec::as_slice))
                .collect();
            let gathered: usize = bufs.iter().map(|buf| buf.len()).sum();
            match writev(&bufs) {
                Ok(0) => self.broken = true,
                Ok(k) => {
                    self.advance_write_queue(k);
                    if k < gathered {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.broken = true,
            }
        }
        if self.queued_bytes > MAX_WRITE_BUFFER {
            // The peer has stopped reading; it forfeits the connection.
            self.broken = true;
        }
    }

    /// Consumes `written` bytes off the front of the write queue, popping
    /// fully-sent units and leaving `write_head` at the partial-write
    /// point inside the new front unit.
    fn advance_write_queue(&mut self, mut written: usize) {
        while written > 0 {
            let Some(front) = self.write_queue.front() else {
                return; // the kernel cannot accept more than was gathered
            };
            let remaining = front.len() - self.write_head;
            let step = written.min(remaining);
            self.queued_bytes -= step;
            written -= step;
            if step == remaining {
                self.write_queue.pop_front();
                self.write_head = 0;
            } else {
                self.write_head += step;
            }
        }
    }

    /// The loop is draining; `grace_expired` once its grace period is over.
    pub(super) fn on_drain(&mut self, grace_expired: bool) {
        self.draining = true;
        self.abandon |= grace_expired;
    }

    /// The readiness this connection waits for. Read only while it can
    /// still frame: after EOF a level-triggered read interest would report
    /// the socket on every turn. Write only while bytes are owed.
    pub(super) fn wants(&self) -> Interest {
        Interest {
            read: !self.peer_closed && !self.close_after_flush,
            write: self.queued_bytes > 0,
        }
    }

    /// Whether the connection is done: broken, or owing nothing once it
    /// will frame no more (EOF or a last answer) or the loop is draining,
    /// or with only unsent bytes left once the drain abandons them.
    pub(super) fn finished(&self) -> bool {
        let flushed = self.queued_bytes == 0 || self.abandon;
        self.broken
            || (self.unhandled + self.deferred == 0
                && flushed
                && (self.peer_closed || self.close_after_flush || self.draining))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests assert; unwrap IS the assertion
pub(super) mod sim;
