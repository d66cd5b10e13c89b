//! A seeded simulation of [`ConnMachine`], plus its unit tests.
//!
//! Each scenario drives one to three machines through events drawn from a
//! `SplitMix64` stream: request bytes split at arbitrary points, an early
//! or late EOF, read and write errors, burst entries handled in framing
//! order, deferred completions delivered in seeded order, `writev` calls
//! that accept any prefix of what was gathered (or would block, or are
//! interrupted), and a drain with and without its grace period expiring.
//! Two codecs run: the real `lca-serve` codec ([`Server`]) and
//! [`Scripted`], which has the gateway's contract (sequential, deferring)
//! or, for `Scripted<true>`, the same but pipelined. After every event the
//! scenario checks the machine's invariants; when a machine finishes it
//! checks what its client received against what it sent.
//!
//! A failing scenario panics with its seed and codec; replay it with
//! `scenario::<Codec>(seed, &completions)`.

use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Mutex};

use serde::Json;

use super::{ConnMachine, MAX_WRITE_BUFFER};
use crate::metrics::ReactorMetrics;
use crate::proto::{Request, Response};
use crate::reactor::{Codec, Completions, Deliver, Framed, Mailbox, Outcome};
use crate::server::{Server, ServerConfig};
use crate::sys::Poller;

/// The standard SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// A codec with the gateway's contract over a scripted wire. Requests are
/// lines `<op><id>`: `i` answers inline, `c` answers and closes, `d` is
/// admitted as queued work and deferred until the test completes it, and
/// anything else (an empty line) is ignored. A response is the line
/// `<id>`. An unterminated line at EOF is never framed, as in HTTP.
pub(crate) struct Scripted<const PIPELINED: bool> {
    metrics: ReactorMetrics,
    /// Deferred requests, waiting for the test to complete them.
    pub(crate) jobs: Mutex<Vec<(Deliver, u64)>>,
}

impl<const PIPELINED: bool> Scripted<PIPELINED> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Scripted {
            metrics: ReactorMetrics::default(),
            jobs: Mutex::new(Vec::new()),
        })
    }
}

impl<const PIPELINED: bool> Codec for Scripted<PIPELINED> {
    type Conn = ();
    type Request = (u8, u64);
    const PIPELINED: bool = PIPELINED;
    /// Small, so sequential connections that pipeline overflow it.
    const MAX_READ_BUFFER: usize = 48;

    fn metrics(&self) -> &ReactorMetrics {
        &self.metrics
    }

    fn draining(&self) -> bool {
        false
    }

    fn frame(&self, (): &mut (), buf: &[u8], _eof: bool, _backlog: usize) -> Framed<(u8, u64)> {
        let Some(end) = buf.iter().position(|&b| b == b'\n') else {
            return Framed::Incomplete;
        };
        let (op, id) = scripted_request(&buf[..end]);
        if op == b'd' {
            Framed::Queued((op, id), end + 1)
        } else {
            Framed::Request((op, id), end + 1)
        }
    }

    fn handle(self: &Arc<Self>, (): &mut (), (op, id): (u8, u64), deliver: Deliver) -> Outcome {
        match op {
            b'i' => Outcome::Inline(response(id)),
            b'c' => Outcome::InlineThenClose(response(id)),
            b'd' => {
                self.jobs.lock().unwrap().push((deliver, id));
                Outcome::Deferred
            }
            _ => Outcome::Ignored,
        }
    }
}

/// Request `id`'s response line.
pub(crate) fn response(id: u64) -> Vec<u8> {
    format!("{id}\n").into_bytes()
}

fn scripted_request(line: &[u8]) -> (u8, u64) {
    let (&op, digits) = line.split_first().unwrap_or((&b' ', &[]));
    let id = std::str::from_utf8(digits).unwrap().parse().unwrap_or(0);
    (op, id)
}

/// What a scenario needs to know about a codec's wire besides the codec.
trait Wire: Codec {
    /// Whether a final unterminated line is framed at EOF.
    const FRAMES_TAIL: bool;
    /// Whether responses leave in request order (else they carry ids).
    const IN_ORDER: bool;
    fn build() -> Arc<Self>;
    /// Request `id`'s line, newline included.
    fn line(rng: &mut Rng, id: u64) -> Vec<u8>;
    /// The response `line` is owed: `None` for none, else its id, if any.
    fn owed(line: &[u8]) -> Option<Option<u64>>;
    /// Whether `line`'s answer is the connection's last.
    fn closes(line: &[u8]) -> bool;
    /// The id a response line carries.
    fn response_id(line: &[u8]) -> Option<u64>;
    /// Completes the running deferred job at `pick` (modulo their count);
    /// `false` when none is running.
    fn complete_one(&self, pick: usize) -> bool;
}

impl<const PIPELINED: bool> Wire for Scripted<PIPELINED> {
    const FRAMES_TAIL: bool = false;
    /// A pipelined codec that defers answers in completion order.
    const IN_ORDER: bool = !PIPELINED;

    fn build() -> Arc<Self> {
        Scripted::new()
    }

    fn line(rng: &mut Rng, id: u64) -> Vec<u8> {
        match rng.below(20) {
            0 => b"\n".to_vec(),
            1 => format!("c{id}\n").into_bytes(),
            2..=9 => format!("i{id}\n").into_bytes(),
            _ => format!("d{id}\n").into_bytes(),
        }
    }

    fn owed(line: &[u8]) -> Option<Option<u64>> {
        let (op, id) = scripted_request(line);
        matches!(op, b'i' | b'c' | b'd').then_some(Some(id))
    }

    fn closes(line: &[u8]) -> bool {
        line.first() == Some(&b'c')
    }

    fn response_id(line: &[u8]) -> Option<u64> {
        std::str::from_utf8(line).ok()?.parse().ok()
    }

    fn complete_one(&self, pick: usize) -> bool {
        let mut jobs = self.jobs.lock().unwrap();
        if jobs.is_empty() {
            return false;
        }
        let picked = pick % jobs.len();
        let (deliver, id) = jobs.swap_remove(picked);
        drop(jobs);
        deliver.send(response(id));
        true
    }
}

impl Wire for Server {
    const FRAMES_TAIL: bool = true;
    /// Every query is answered inline, in framing order.
    const IN_ORDER: bool = true;

    fn build() -> Arc<Self> {
        Server::new(ServerConfig {
            workers: 1,
            queue_capacity: 4,
            ..ServerConfig::default()
        })
    }

    fn line(rng: &mut Rng, id: u64) -> Vec<u8> {
        let line = match rng.below(40) {
            0 => "   ".to_owned(),
            1 => "not json".to_owned(),
            2 => r#"{"op":"stats"}"#.to_owned(),
            3 => format!(
                r#"{{"id":{id},"session":"t","kind":"mis","n":64,"query":{}}}"#,
                id % 64
            ),
            4 if rng.below(4) == 0 => r#"{"op":"shutdown"}"#.to_owned(),
            5..=14 => r#"{"op":"ping"}"#.to_owned(),
            _ => format!(r#"{{"id":{id},"session":"nope","query":1}}"#),
        };
        format!("{line}\n").into_bytes()
    }

    fn owed(line: &[u8]) -> Option<Option<u64>> {
        let Ok(line) = std::str::from_utf8(line) else {
            return Some(None);
        };
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        Some(match Request::parse(line) {
            Ok(Request::Query { id, .. }) => id,
            Ok(_) => None,
            Err(e) => match e.response() {
                Response::Error { id, .. } => id,
                _ => None,
            },
        })
    }

    fn closes(_: &[u8]) -> bool {
        false
    }

    fn response_id(line: &[u8]) -> Option<u64> {
        let json = serde_json::from_str(std::str::from_utf8(line).ok()?).ok()?;
        Json::get(&json, "id").and_then(Json::as_u64)
    }

    fn complete_one(&self, _: usize) -> bool {
        false
    }
}

/// One simulated client and the machine serving it.
struct Peer<C: Codec> {
    /// `None` once the connection closed.
    machine: Option<ConnMachine<C>>,
    /// Every byte this client sends, in order.
    script: Vec<u8>,
    /// How much of `script` reached the machine.
    sent: usize,
    eof: bool,
    /// Every byte the machine wrote.
    received: Vec<u8>,
    /// Requests the machine framed.
    framed: usize,
    /// A read or write failed, or a drain's grace period dropped staged
    /// bytes: what was received need only be a prefix of what is owed.
    cut: bool,
}

impl<C: Wire> Peer<C> {
    /// The lines the machine has been sent, in order: the complete ones,
    /// plus an unterminated tail once EOF frames it.
    fn lines(&self) -> Vec<&[u8]> {
        let sent = &self.script[..self.sent];
        let mut lines: Vec<&[u8]> = sent.split(|&b| b == b'\n').collect();
        let tail = lines.pop().unwrap_or(&[]);
        if self.eof && C::FRAMES_TAIL && !tail.is_empty() {
            lines.push(tail);
        }
        lines
    }

    /// The responses owed for the first `framed` lines, in order: one per
    /// line that is owed one, none past a connection's last answer.
    fn owed(&self, framed: usize) -> Vec<Option<u64>> {
        let mut owed = Vec::new();
        for line in self.lines().into_iter().take(framed) {
            owed.extend(C::owed(line));
            if C::closes(line) {
                break;
            }
        }
        owed
    }

    /// The ids of the complete response lines received so far, sorted
    /// unless the wire promises request order.
    fn responses(&self) -> Vec<Option<u64>> {
        let mut lines: Vec<&[u8]> = self.received.split(|&b| b == b'\n').collect();
        lines.pop(); // the unterminated rest, if any
        let mut ids: Vec<_> = lines.into_iter().map(C::response_id).collect();
        if !C::IN_ORDER {
            ids.sort_unstable();
        }
        ids
    }

    /// Whether `got` is a prefix of `owed`, or for a wire without request
    /// order, a sub-multiset of it.
    fn covers(owed: &[Option<u64>], got: &[Option<u64>]) -> bool {
        if C::IN_ORDER {
            return owed.starts_with(got);
        }
        let mut left = owed.to_vec();
        got.iter()
            .all(|id| match left.iter().position(|o| o == id) {
                Some(at) => {
                    left.swap_remove(at);
                    true
                }
                None => false,
            })
    }
}

struct Sim<C: Wire> {
    seed: u64,
    rng: Rng,
    codec: Arc<C>,
    completions: Arc<Completions>,
    peers: Vec<Peer<C>>,
    /// Framed requests not yet handled, in framing order, with their peer.
    burst: VecDeque<(usize, C::Request, bool)>,
    backlog: usize,
    /// Events since the drain began.
    drain_age: Option<usize>,
}

/// Events a drain lasts before its grace period expires.
const GRACE_EVENTS: usize = 60;

impl<C: Wire> Sim<C> {
    fn new(seed: u64, completions: Arc<Completions>) -> Self {
        let mut rng = Rng(seed);
        let peers = (0..1 + rng.below(3))
            .map(|_| {
                let script = (0..1 + rng.below(12))
                    .flat_map(|id| C::line(&mut rng, id as u64))
                    .collect();
                Peer {
                    machine: Some(ConnMachine::new()),
                    script,
                    sent: 0,
                    eof: false,
                    received: Vec::new(),
                    framed: 0,
                    cut: false,
                }
            })
            .collect();
        Sim {
            seed,
            rng,
            codec: C::build(),
            completions,
            peers,
            burst: VecDeque::new(),
            backlog: 0,
            drain_age: None,
        }
    }

    fn open(&self) -> bool {
        self.peers.iter().any(|p| p.machine.is_some())
    }

    /// The client sends up to `max` more bytes, then EOF when `eof` and
    /// nothing is left to send.
    fn send(&mut self, i: usize, max: usize, eof: bool) {
        let peer = &mut self.peers[i];
        let Some(machine) = peer.machine.as_mut() else {
            return;
        };
        if peer.sent < peer.script.len() {
            let k = 1 + self.rng.below(max.min(peer.script.len() - peer.sent));
            machine.on_read(Ok(&peer.script[peer.sent..peer.sent + k]));
            peer.sent += k;
        } else if eof && !peer.eof {
            machine.on_read(Ok(&[]));
            peer.eof = true;
        }
    }

    /// Writes peer `i`'s queue through a `writev` that takes a seeded
    /// prefix of what it is offered, or everything when `whole`.
    fn flush(&mut self, i: usize, whole: bool) {
        let (rng, peer) = (&mut self.rng, &mut self.peers[i]);
        let Some(machine) = peer.machine.as_mut() else {
            return;
        };
        let received = &mut peer.received;
        machine.flush(|bufs| {
            let gathered: usize = bufs.iter().map(|b| b.len()).sum();
            let k = match rng.below(if whole { 1 } else { 12 }) {
                0 => gathered,
                1 => return Err(io::ErrorKind::WouldBlock.into()),
                2 => return Err(io::ErrorKind::Interrupted.into()),
                3 if rng.below(8) == 0 => return Err(io::ErrorKind::BrokenPipe.into()),
                _ => 1 + rng.below(gathered),
            };
            let mut left = k;
            for buf in bufs {
                let take = left.min(buf.len());
                received.extend_from_slice(&buf[..take]);
                left -= take;
            }
            Ok(k)
        });
    }

    /// Handles the burst's front entry.
    fn handle_front(&mut self) {
        let Some((i, request, queued)) = self.burst.pop_front() else {
            return;
        };
        self.backlog -= usize::from(queued);
        if let Some(machine) = self.peers[i].machine.as_mut() {
            let deliver = Deliver {
                completions: self.completions.clone(),
                token: i as u64,
            };
            machine.handle(&self.codec, request, deliver);
            self.settle(i);
        }
    }

    /// Completes one running job, then stages every completion the
    /// mailbox holds.
    fn complete(&mut self) {
        let pick = self.rng.below(64);
        self.codec.complete_one(pick);
        for (token, completion) in self.completions.drain() {
            let i = token as usize;
            if let Some(machine) = self.peers[i].machine.as_mut() {
                machine.complete(&self.codec, completion);
                self.settle(i);
            }
        }
    }

    /// Frames into the burst, checks the invariants, and closes a finished
    /// machine.
    fn settle(&mut self, i: usize) {
        let seed = self.seed;
        let Some(mut machine) = self.peers[i].machine.take() else {
            return;
        };
        let (burst, backlog, peer) = (&mut self.burst, &mut self.backlog, &mut self.peers[i]);
        machine.frame(&self.codec, *backlog, |request, queued| {
            *backlog += usize::from(queued);
            peer.framed += 1;
            burst.push_back((i, request, queued));
        });
        assert!(
            machine.read_buf.len() <= C::MAX_READ_BUFFER,
            "seed {seed}: read buffer over its cap"
        );
        let unsent = machine.write_queue.iter().map(Vec::len).sum::<usize>() - machine.write_head;
        assert_eq!(
            machine.queued_bytes, unsent,
            "seed {seed}: queued_bytes drifted"
        );
        assert!(
            machine.broken || machine.queued_bytes <= MAX_WRITE_BUFFER,
            "seed {seed}: write queue over its cap"
        );
        if peer.eof {
            assert!(
                !machine.wants().read,
                "seed {seed}: read interest after EOF"
            );
        }
        let (owed, got) = (peer.owed(peer.framed), peer.responses());
        assert!(
            Peer::<C>::covers(&owed, &got),
            "seed {seed}: peer {i} received {got:?}, owed {owed:?}\nsent {:?}\nreceived {:?}",
            String::from_utf8_lossy(&peer.script[..peer.sent]),
            String::from_utf8_lossy(&peer.received)
        );
        if !machine.finished() {
            peer.machine = Some(machine);
            return;
        }
        peer.cut |= machine.broken;
        machine.flush(|_| panic!("seed {seed}: a finished machine wrote"));
        if !peer.cut {
            assert!(
                Peer::<C>::covers(&got, &owed),
                "seed {seed}: peer {i} closed owing responses: received {got:?}, owed {owed:?}"
            );
            assert!(
                peer.received.last().is_none_or(|&b| b == b'\n'),
                "seed {seed}: peer {i} closed mid-response"
            );
            if peer.eof {
                assert!(
                    Peer::<C>::covers(&owed, &peer.owed(usize::MAX)),
                    "seed {seed}: peer {i} closed at EOF with requests unframed"
                );
            }
        }
    }

    /// Applies a drain turn to every open machine.
    fn drain_turn(&mut self) {
        if self.drain_age.is_none() && self.codec.draining() {
            self.drain_age = Some(0);
        }
        let Some(age) = self.drain_age.as_mut() else {
            return;
        };
        *age += 1;
        let grace_expired = *age > GRACE_EVENTS;
        for i in 0..self.peers.len() {
            if let Some(machine) = self.peers[i].machine.as_mut() {
                machine.on_drain(grace_expired);
                self.peers[i].cut |= grace_expired;
                self.settle(i);
            }
        }
    }

    /// One seeded event.
    fn step(&mut self) {
        let i = self.rng.below(self.peers.len());
        match self.rng.below(100) {
            0..=29 => self.send(i, 24, false),
            30..=33 => self.send(i, 24, true),
            34 => {
                if let Some(machine) = self.peers[i].machine.as_mut() {
                    machine.on_read(Err(io::ErrorKind::ConnectionReset.into()));
                    self.peers[i].cut = true;
                }
            }
            35..=59 => self.handle_front(),
            60..=74 => self.complete(),
            75..=97 => self.flush(i, false),
            _ => {
                self.drain_age.get_or_insert(0);
            }
        }
        if self.rng.below(2) == 0 {
            self.flush(i, false);
        }
        self.settle(i);
        self.drain_turn();
    }

    /// Lets every client finish: send the rest and EOF, handle, complete
    /// and write everything, until every machine has finished.
    fn quiesce(&mut self) {
        for _ in 0..10_000 {
            if !self.open() {
                return;
            }
            for i in 0..self.peers.len() {
                self.send(i, usize::MAX, true);
                self.settle(i);
            }
            while !self.burst.is_empty() {
                self.handle_front();
            }
            while self.codec.complete_one(self.rng.below(64)) {}
            self.complete();
            for i in 0..self.peers.len() {
                self.flush(i, true);
                self.settle(i);
            }
            self.drain_turn();
        }
        panic!("seed {}: machines never finished", self.seed);
    }
}

/// Runs scenario `seed` for codec `C` to completion.
fn scenario<C: Wire>(seed: u64, completions: &Arc<Completions>) {
    let mut sim = Sim::<C>::new(seed, completions.clone());
    let events = 20 + sim.rng.below(180);
    for _ in 0..events {
        sim.step();
    }
    sim.quiesce();
}

/// Runs `seeds` scenarios, naming the failing seed.
fn simulate<C: Wire>(seeds: std::ops::Range<u64>) {
    let poller = Poller::new().expect("poller");
    let completions = Arc::new(Mailbox::new(poller.waker()));
    for seed in seeds {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scenario::<C>(seed, &completions);
        }));
        if run.is_err() {
            panic!(
                "simulation failed at seed {seed} for {}; replay with scenario::<_>({seed}, ..)",
                std::any::type_name::<C>()
            );
        }
        completions.drain();
    }
}

#[test]
fn simulated_sequential_deferring_connections() {
    simulate::<Scripted<false>>(0..4000);
}

#[test]
fn simulated_pipelined_deferring_connections() {
    simulate::<Scripted<true>>(0..3000);
}

#[test]
fn simulated_serve_protocol_connections() {
    simulate::<Server>(0..3000);
}

#[test]
fn advance_write_queue_is_exact_under_short_writes() {
    let mut machine = ConnMachine::<Scripted<false>>::new();
    for unit in [&b"aaaa"[..], b"bb", b"cccccc"] {
        machine.stage(&Scripted::<false>::new(), unit.to_vec());
    }
    let state = |m: &ConnMachine<_>| (m.write_queue.len(), m.write_head, m.queued_bytes);
    // A short write that ends mid-second-unit.
    machine.advance_write_queue(5);
    assert_eq!(state(&machine), (2, 1, 7));
    // Zero progress is a no-op.
    machine.advance_write_queue(0);
    assert_eq!(state(&machine), (2, 1, 7));
    // Finishing the partial unit exactly resets the head.
    machine.advance_write_queue(1);
    assert_eq!(state(&machine), (1, 0, 6));
    // Consuming everything empties the queue.
    machine.advance_write_queue(6);
    assert_eq!(state(&machine), (0, 0, 0));
}

#[test]
fn no_read_interest_after_eof_or_a_last_answer() {
    let codec = Scripted::<false>::new();
    let mut machine = ConnMachine::<Scripted<false>>::new();
    assert!(machine.wants().read);
    machine.on_read(Ok(b"c1\ni2\n"));
    let mut framed = Vec::new();
    machine.frame(&codec, 0, |request, _| framed.push(request));
    assert_eq!(
        framed,
        [(b'c', 1)],
        "a sequential codec frames one at a time"
    );
    machine.handle(&codec, (b'c', 1), Deliver::detached());
    assert_eq!(
        machine.wants(),
        crate::sys::Interest {
            read: false,
            write: true
        },
        "a last answer stops reading"
    );
    let mut eof = ConnMachine::<Scripted<false>>::new();
    eof.on_read(Ok(&[]));
    assert!(!eof.wants().read, "EOF stops reading");
    assert!(eof.finished(), "and owing nothing, the connection is done");
}
