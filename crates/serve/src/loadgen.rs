//! The load generator: drive an `lca-serve` daemon and report throughput.
//!
//! Three traffic shapes:
//!
//! * **Closed loop** (default): each of `concurrency` connections keeps
//!   exactly one request in flight — the classic saturation probe.
//! * **Open loop** (`rate`): targets an offered load in requests/second; a
//!   per-connection reader thread matches responses to requests by `id`,
//!   so slow responses queue instead of slowing the arrival process.
//!   Latency runs from each request's scheduled send time, and the report's
//!   `send_lag_p99_us` says how far the sender itself fell behind.
//! * **Fan-in** (`connections > 0`): the high-fan-in C10k probe. A few
//!   sender threads hold *many* sockets open at once (one in-flight
//!   request per socket, sends issued across a thread's whole socket set
//!   before any response is awaited, optional `rate` pacing), so a
//!   thousand simultaneous open connections hit a daemon that runs a
//!   handful of reactor threads — exactly the shape the event-driven
//!   reactor exists for. The server's `stats` are fetched *while every
//!   socket is still open*, so the report's `connections_open` witnesses
//!   the simultaneity instead of asserting it.
//!
//! Queries are sampled client-side from the *same* implicit oracle the
//! server builds — the generator needs only `(family, n, seed)` to produce
//! valid vertex and edge queries, which is the whole point of implicit
//! inputs.
//!
//! With [`LoadgenConfig::http`] (the `--target http://host:port` flag) the
//! same traffic shapes drive an `lca-gateway` instead: each request line
//! ships as the body of a `POST /v1/query` and each response is read back
//! out of the HTTP response body — one tool measures both tiers, and the
//! `--verify` machinery applies unchanged because the gateway passes
//! backend response lines through verbatim.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lca::core::DynQuery;
use lca::prelude::*;
use serde::Json;

/// What `--verify` expects for one query under the configured budget.
///
/// Soundness of the budget half: the server's classic-LCA sessions memoize
/// decisions across queries, and memo warmth only ever *reduces* a query's
/// probe spend, so a cold (fresh-instance) local run upper-bounds the
/// server's spend for the same query at any point in the traffic. Hence,
/// when the client configures `--max-probes` (request fields override any
/// server-side default, so the effective probe budget is known):
///
/// * cold run fits the budget ⇒ the server can never exhaust on this
///   query — a `budget-exhausted` response is a mismatch
///   (`may_exhaust == false`);
/// * cold run trips ⇒ the server may either exhaust (cold memo) or answer
///   (warm memo); an answer must still equal `answer`.
///
/// Without a client-side `--max-probes`, a `budget-exhausted` response can
/// only come from a server-side default (`lca-serve --max-probes`) the
/// generator cannot model, so it is tolerated (`may_exhaust == true`).
/// `deadline-exceeded` is tolerated unconditionally — wall-clock trips are
/// inherently nondeterministic.
#[derive(Debug, Clone, Copy)]
struct Expected {
    /// The unbudgeted answer (what any successful response must equal).
    answer: bool,
    /// Whether a `budget-exhausted` response is acceptable for this query.
    may_exhaust: bool,
}

use crate::proto::QueryPayload;
use crate::{algo_seed, input_seed};

/// What to throw at the daemon.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Total requests to send across all connections.
    pub requests: usize,
    /// Worker threads (and, when [`LoadgenConfig::connections`] is 0, the
    /// connection count: one connection per thread).
    pub concurrency: usize,
    /// Fan-in mode when nonzero: this many simultaneously open sockets
    /// spread across the `concurrency` sender threads, one in-flight
    /// request per socket. `0` keeps the classic one-connection-per-thread
    /// loops.
    pub connections: usize,
    /// Query mix: round-robin across these kinds (one session per kind).
    pub kinds: Vec<AlgorithmKind>,
    /// Input family for every session.
    pub family: ImplicitFamily,
    /// Vertex count of every session.
    pub n: usize,
    /// Session seed (input and algorithm seeds derive from it).
    pub seed: u64,
    /// Family shape knob, forwarded verbatim.
    pub knob: Option<f64>,
    /// `Some(rate)` = open loop at `rate` requests/second total;
    /// `None` = closed loop.
    pub rate: Option<f64>,
    /// Per-query probe budget sent with every request (`max_probes` wire
    /// field); budget trips are counted, not treated as errors.
    pub max_probes: Option<u64>,
    /// Adaptive-budget policy sent with every request (`budget_policy`
    /// wire field, e.g. `"p99"`). Server-fitted budgets can trip like any
    /// server-side default, which `--verify` tolerates deterministically
    /// (see [`Expected`]); answers must still match.
    pub budget_policy: Option<String>,
    /// Recompute every answer locally and count mismatches (the acceptance
    /// check: served answers must equal direct `LcaBuilder` queries).
    pub verify: bool,
    /// Session names are `{prefix}-{kind}`.
    pub session_prefix: String,
    /// Distinct queries sampled per kind (requests cycle through them, so
    /// smaller pools produce hotter, more cacheable traffic).
    pub query_pool: usize,
    /// Speak HTTP/1.1 to an `lca-gateway` instead of newline-JSON to an
    /// `lca-serve`: request lines become `POST /v1/query` bodies, stats
    /// come from `GET /v1/stats`, shutdown from `POST /v1/shutdown`.
    pub http: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            requests: 1_000,
            concurrency: 4,
            connections: 0,
            kinds: vec![AlgorithmKind::Classic(ClassicKind::Mis)],
            family: ImplicitFamily::Gnp,
            n: 1_000_000,
            seed: 7,
            knob: None,
            rate: None,
            max_probes: None,
            budget_policy: None,
            verify: false,
            session_prefix: "loadgen".to_owned(),
            query_pool: 256,
            http: false,
        }
    }
}

/// The machine-readable throughput report.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LoadReport {
    /// Requests attempted.
    pub requests: usize,
    /// Sockets the generator held open simultaneously (fan-in mode; the
    /// thread count in the classic loops).
    pub connections: usize,
    /// Requests answered with an `answer` field.
    pub ok: u64,
    /// YES answers among them.
    pub yes: u64,
    /// Protocol errors (anything with an `error` field except
    /// `overloaded`), plus transport failures.
    pub errors: u64,
    /// `overloaded` bounces observed (closed loop retries them; open loop
    /// counts and moves on).
    pub overloaded: u64,
    /// `budget-exhausted`/`deadline-exceeded` responses — accepted
    /// budgeted misses, not errors (never retried).
    pub budget_exhausted: u64,
    /// Answers that contradicted a direct local computation (only counted
    /// with [`LoadgenConfig::verify`]).
    pub mismatches: u64,
    /// Total probes the server reported across all answers.
    pub probes: u64,
    /// Wall-clock duration of the run.
    pub elapsed_s: f64,
    /// Answered requests per second.
    pub qps: f64,
    /// Median response latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile response latency, microseconds.
    pub p99_us: u64,
    /// Mean response latency, microseconds.
    pub mean_us: f64,
    /// 99th-percentile lag of actual behind scheduled send time in open
    /// loop, microseconds — how far the generator fell behind its own
    /// arrival schedule (0 in closed loop, which has no schedule).
    /// Latencies are timed from the scheduled send, so this lag is
    /// included in them rather than hidden.
    pub send_lag_p99_us: u64,
}

/// A finished run: the report plus the server's own `stats` object,
/// fetched after the last response.
#[derive(Debug, Clone)]
pub struct LoadRun {
    /// Client-side throughput report.
    pub report: LoadReport,
    /// The daemon's `stats` response (`None` if the fetch failed).
    pub server_stats: Option<Json>,
}

/// One kind's prepared traffic: session name, request-line prefix with the
/// full spec, sampled query pool, and (under `verify`) expected answers.
struct KindPlan {
    session: String,
    spec_fields: String,
    queries: Vec<QueryPayload>,
    expected: Vec<Expected>,
}

fn payload_json(q: QueryPayload) -> String {
    match q {
        QueryPayload::Vertex(v) => format!("{v}"),
        QueryPayload::Edge(u, v) => format!("[{u},{v}]"),
    }
}

fn prepare(cfg: &LoadgenConfig) -> Vec<KindPlan> {
    let oracle = cfg.family.build_with(cfg.n, input_seed(cfg.seed), cfg.knob);
    cfg.kinds
        .iter()
        .enumerate()
        .map(|(ki, &kind)| {
            let sample_seed = Seed::new(cfg.seed).derive2(0x5156_504F_4F4C, ki as u64);
            let queries: Vec<QueryPayload> =
                QuerySource::sample(cfg.query_pool.max(1), sample_seed)
                    .queries(kind, &oracle)
                    .into_iter()
                    .map(|q| match q {
                        DynQuery::Vertex(v) => QueryPayload::Vertex(v.raw() as u64),
                        DynQuery::Edge(u, v) => QueryPayload::Edge(u.raw() as u64, v.raw() as u64),
                    })
                    .collect();
            let expected = if cfg.verify {
                let algo = LcaBuilder::new(kind)
                    .seed(algo_seed(cfg.seed))
                    .build(&oracle);
                queries
                    .iter()
                    .map(|&q| {
                        let dyn_q = match q {
                            QueryPayload::Vertex(v) => {
                                DynQuery::Vertex(lca_graph::VertexId::new(v as usize))
                            }
                            QueryPayload::Edge(u, v) => DynQuery::Edge(
                                lca_graph::VertexId::new(u as usize),
                                lca_graph::VertexId::new(v as usize),
                            ),
                        };
                        let answer = algo.query(dyn_q).expect("local verification query failed");
                        let may_exhaust = match cfg.max_probes {
                            // No client budget: only a server-side default
                            // could trip, which we cannot model — tolerate.
                            None => true,
                            Some(limit) => {
                                // Cold run: a fresh instance per query, so
                                // memo warmth cannot hide exhaustion the
                                // server could still hit (see [`Expected`]).
                                let cold = LcaBuilder::new(kind)
                                    .seed(algo_seed(cfg.seed))
                                    .build(&oracle);
                                let ctx = QueryCtx::new(Some(limit), None, None);
                                match cold.query_ctx(dyn_q, &ctx) {
                                    Ok(a) => {
                                        assert_eq!(a, answer, "budgeted local answer diverged");
                                        false
                                    }
                                    Err(e) if e.is_budget() => true,
                                    Err(e) => {
                                        panic!("local budgeted verification failed: {e}")
                                    }
                                }
                            }
                        };
                        Expected {
                            answer,
                            may_exhaust,
                        }
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let mut spec_fields = format!(
                "\"kind\":\"{}\",\"family\":\"{}\",\"n\":{},\"seed\":{}",
                kind.name(),
                cfg.family.name(),
                cfg.n,
                cfg.seed
            );
            if let Some(knob) = cfg.knob {
                spec_fields.push_str(&format!(",\"knob\":{knob}"));
            }
            KindPlan {
                session: format!("{}-{}", cfg.session_prefix, kind.name()),
                spec_fields,
                queries,
                expected,
            }
        })
        .collect()
}

#[derive(Default)]
struct Tally {
    ok: u64,
    yes: u64,
    errors: u64,
    overloaded: u64,
    budget_exhausted: u64,
    mismatches: u64,
    probes: u64,
    latencies_us: Vec<u64>,
    send_lags_us: Vec<u64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.yes += other.yes;
        self.errors += other.errors;
        self.overloaded += other.overloaded;
        self.budget_exhausted += other.budget_exhausted;
        self.mismatches += other.mismatches;
        self.probes += other.probes;
        self.latencies_us.extend(other.latencies_us);
        self.send_lags_us.extend(other.send_lags_us);
    }

    /// Classifies one response line; `expected` is the locally recomputed
    /// outcome under `verify`. Returns `true` when the request should be
    /// retried (closed-loop overload).
    fn absorb(&mut self, line: &str, expected: Option<Expected>, micros: u64) -> bool {
        let Ok(v) = serde_json::from_str(line) else {
            self.errors += 1;
            return false;
        };
        if let Some(err) = v.get("error").and_then(Json::as_str) {
            if err == "overloaded" {
                self.overloaded += 1;
                return true;
            }
            if err == "deadline-exceeded" {
                // Wall-clock trips are nondeterministic: count, never judge.
                self.budget_exhausted += 1;
                return false;
            }
            if err == "budget-exhausted" {
                self.budget_exhausted += 1;
                // Deterministic tolerance: a trip is only legal when the
                // cold local run exceeds the client's budget too (or no
                // client budget was configured — see [`Expected`]).
                if matches!(expected, Some(e) if !e.may_exhaust) {
                    self.mismatches += 1;
                }
                return false;
            }
            self.errors += 1;
            return false;
        }
        match v.get("answer").and_then(Json::as_bool) {
            Some(answer) => {
                self.ok += 1;
                self.yes += u64::from(answer);
                self.probes += v.get("probes").and_then(Json::as_u64).unwrap_or(0);
                self.latencies_us.push(micros);
                if let Some(expected) = expected {
                    if answer != expected.answer {
                        self.mismatches += 1;
                    }
                }
                false
            }
            None => {
                self.errors += 1;
                false
            }
        }
    }
}

fn request_line(plan: &KindPlan, query_idx: usize, id: u64, cfg: &LoadgenConfig) -> String {
    // The session name carries the user-supplied --session prefix: render
    // it through the JSON writer so quotes/backslashes stay well-formed.
    let mut session = String::new();
    Json::Str(plan.session.clone()).render(&mut session);
    let mut budget = match cfg.max_probes {
        Some(n) => format!(",\"max_probes\":{n}"),
        None => String::new(),
    };
    if let Some(policy) = &cfg.budget_policy {
        let mut rendered = String::new();
        Json::Str(policy.clone()).render(&mut rendered);
        budget.push_str(&format!(",\"budget_policy\":{rendered}"));
    }
    format!(
        "{{\"id\":{id},\"session\":{session},{}{budget},\"query\":{}}}",
        plan.spec_fields,
        payload_json(plan.queries[query_idx])
    )
}

/// The locally recomputed outcome for global request `id` — same
/// [`schedule`] mapping the senders use, so `--verify` can never drift
/// from the traffic layout.
fn expected_answer(id: u64, plans: &[KindPlan], verify: bool) -> Option<Expected> {
    if !verify {
        return None;
    }
    let (ki, qi) = schedule(id as usize, plans);
    Some(plans[ki].expected[qi])
}

/// `(kind index, query index)` served by global request number `i`.
fn schedule(i: usize, plans: &[KindPlan]) -> (usize, usize) {
    let ki = i % plans.len();
    let qi = (i / plans.len()) % plans[ki].queries.len();
    (ki, qi)
}

/// Writes one protocol request over the configured transport: the raw
/// newline-JSON line, or the same line as a `POST /v1/query` body when
/// driving a gateway.
fn write_request(w: &mut impl Write, line: &str, http: bool) -> io::Result<()> {
    if http {
        write!(
            w,
            "POST /v1/query HTTP/1.1\r\nHost: lca\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{line}",
            line.len()
        )
    } else {
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")
    }
}

/// Reads one protocol response into `line` over the configured transport:
/// a newline-JSON line, or an HTTP response whose body is that line (the
/// gateway answers every request with a JSON body, whatever the status).
/// Returns 0 on clean EOF, like `read_line`.
fn read_response(
    reader: &mut BufReader<TcpStream>,
    http: bool,
    line: &mut String,
) -> io::Result<usize> {
    line.clear();
    if !http {
        return reader.read_line(line);
    }
    let mut header = String::new();
    if reader.read_line(&mut header)? == 0 {
        return Ok(0); // EOF between responses: peer closed
    }
    let mut content_length: usize = 0;
    loop {
        header.clear();
        if reader.read_line(&mut header)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside HTTP headers",
            ));
        }
        let h = header.trim();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("content-length: {e}"))
                })?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 HTTP body"))?;
    line.push_str(&body);
    // A zero-length body still counts as one received response.
    Ok(line.len().max(1))
}

fn closed_loop_worker(
    addr: &str,
    plans: &[KindPlan],
    cfg: &LoadgenConfig,
    counter: &AtomicUsize,
) -> io::Result<Tally> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut tally = Tally::default();
    let mut line = String::new();
    loop {
        let i = counter.fetch_add(1, Ordering::Relaxed);
        if i >= cfg.requests {
            break;
        }
        let (ki, qi) = schedule(i, plans);
        let request = request_line(&plans[ki], qi, i as u64, cfg);
        let expected = expected_answer(i as u64, plans, cfg.verify);
        // Closed loop: bounce on overload, back off briefly, retry — every
        // request eventually lands, which the verification relies on.
        let mut attempts = 0;
        loop {
            attempts += 1;
            let start = Instant::now();
            write_request(&mut writer, &request, cfg.http)?;
            if read_response(&mut reader, cfg.http, &mut line)? == 0 {
                tally.errors += 1;
                return Ok(tally);
            }
            let micros = start.elapsed().as_micros() as u64;
            let retry = tally.absorb(line.trim(), expected, micros);
            if !retry {
                break;
            }
            if attempts > 1_000 {
                tally.errors += 1;
                break;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    Ok(tally)
}

/// One fan-in socket: a blocking client stream with at most one request in
/// flight.
struct FanSock {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// `(global request id, send time, attempts)` of the in-flight request.
    in_flight: Option<(u64, Instant, u32)>,
    dead: bool,
}

/// The fan-in sender: `sockets` simultaneously open connections driven by
/// one thread. Each round issues a send on every idle socket *before*
/// awaiting any response (open within the round), then collects one
/// response per busy socket; `overloaded` bounces are retried on the same
/// socket. Socket-level failures are counted, never returned — the worker
/// must always reach the two barriers (`done`: all requests finished,
/// sockets still open, the window where the caller snapshots server stats;
/// `release`: sockets may now close).
#[allow(clippy::too_many_arguments)]
fn fan_in_worker(
    addr: &str,
    plans: &[KindPlan],
    cfg: &LoadgenConfig,
    counter: &AtomicUsize,
    sockets: usize,
    gap: Option<Duration>,
    done: &std::sync::Barrier,
    release: &std::sync::Barrier,
) -> io::Result<Tally> {
    let mut socks: Vec<FanSock> = Vec::with_capacity(sockets);
    let mut connect_err = None;
    for _ in 0..sockets {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
                match stream.try_clone() {
                    Ok(writer) => {
                        socks.push(FanSock {
                            writer,
                            reader: BufReader::new(stream),
                            in_flight: None,
                            dead: false,
                        });
                    }
                    Err(e) => {
                        connect_err = Some(e);
                        break;
                    }
                }
            }
            Err(e) => {
                connect_err = Some(e);
                break;
            }
        }
    }

    let mut tally = Tally::default();
    let mut next_send = Instant::now();
    if connect_err.is_none() {
        loop {
            let mut live = false;
            // Send phase: one request onto every idle, live socket.
            for sock in socks.iter_mut().filter(|s| !s.dead) {
                live = true;
                if sock.in_flight.is_some() {
                    continue;
                }
                let i = counter.fetch_add(1, Ordering::Relaxed);
                if i >= cfg.requests {
                    continue;
                }
                if let Some(gap) = gap {
                    let now = Instant::now();
                    if next_send > now {
                        std::thread::sleep(next_send - now);
                    }
                    next_send += gap;
                }
                let (ki, qi) = schedule(i, plans);
                let request = request_line(&plans[ki], qi, i as u64, cfg);
                if write_request(&mut sock.writer, &request, cfg.http).is_err() {
                    tally.errors += 1;
                    sock.dead = true;
                    continue;
                }
                sock.in_flight = Some((i as u64, Instant::now(), 1));
            }
            // Read phase: one response from every busy socket.
            let mut line = String::new();
            for sock in socks.iter_mut().filter(|s| !s.dead) {
                let Some((id, started, attempts)) = sock.in_flight else {
                    continue;
                };
                match read_response(&mut sock.reader, cfg.http, &mut line) {
                    Ok(0) | Err(_) => {
                        tally.errors += 1;
                        sock.dead = true;
                        sock.in_flight = None;
                        continue;
                    }
                    Ok(_) => {}
                }
                let micros = started.elapsed().as_micros() as u64;
                let expected = expected_answer(id, plans, cfg.verify);
                let retry = tally.absorb(line.trim(), expected, micros);
                if !retry {
                    sock.in_flight = None;
                    continue;
                }
                // Overloaded: resend the same id on the same socket after a
                // short backoff, like the closed loop.
                if attempts > 1_000 {
                    tally.errors += 1;
                    sock.in_flight = None;
                    continue;
                }
                std::thread::sleep(Duration::from_micros(500));
                let (ki, qi) = schedule(id as usize, plans);
                let request = request_line(&plans[ki], qi, id, cfg);
                if write_request(&mut sock.writer, &request, cfg.http).is_err() {
                    tally.errors += 1;
                    sock.dead = true;
                    sock.in_flight = None;
                    continue;
                }
                sock.in_flight = Some((id, Instant::now(), attempts + 1));
            }
            let idle = socks.iter().all(|s| s.dead || s.in_flight.is_none());
            if !live || (idle && counter.load(Ordering::Relaxed) >= cfg.requests) {
                break;
            }
        }
    }

    // Hold every socket open across the stats window, then release.
    done.wait();
    release.wait();
    drop(socks);
    match connect_err {
        Some(e) => Err(e),
        None => Ok(tally),
    }
}

fn open_loop_worker(
    addr: &str,
    plans: &[KindPlan],
    cfg: &LoadgenConfig,
    counter: &AtomicUsize,
    gap: Duration,
) -> io::Result<Tally> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let reader_stream = stream.try_clone()?;

    let in_flight: Mutex<HashMap<u64, Instant>> = Mutex::new(HashMap::new());
    let sent = AtomicU64::new(0);

    let tally = std::thread::scope(|s| {
        // Reader: match responses to send times by id, deriving the
        // expected answer from the same schedule() the sender used.
        let (in_flight, sent) = (&in_flight, &sent);
        let reader_handle = s.spawn(move || {
            let mut reader = BufReader::new(reader_stream);
            let mut tally = Tally::default();
            let mut line = String::new();
            let mut received: u64 = 0;
            loop {
                match read_response(&mut reader, cfg.http, &mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let trimmed = line.trim();
                        let (expected, micros) = match serde_json::from_str(trimmed)
                            .ok()
                            .and_then(|v| v.get("id").and_then(Json::as_u64))
                        {
                            Some(id) => {
                                let started = in_flight.lock().expect("poisoned").remove(&id);
                                (
                                    expected_answer(id, plans, cfg.verify),
                                    started.map_or(0, |t| t.elapsed().as_micros() as u64),
                                )
                            }
                            None => (None, 0),
                        };
                        tally.absorb(trimmed, expected, micros);
                        received += 1;
                        // All sends done and all responses in: stop.
                        let total = sent.load(Ordering::Acquire);
                        if total > 0 && received >= total {
                            break;
                        }
                    }
                }
            }
            tally
        });

        let mut next_send = Instant::now();
        let mut my_sends: u64 = 0;
        let mut send_lags_us = Vec::new();
        let mut send_result: io::Result<()> = Ok(());
        loop {
            let i = counter.fetch_add(1, Ordering::Relaxed);
            if i >= cfg.requests {
                break;
            }
            let (ki, qi) = schedule(i, plans);
            let request = request_line(&plans[ki], qi, i as u64, cfg);
            let now = Instant::now();
            if next_send > now {
                std::thread::sleep(next_send - now);
            }
            // Time the request from its *scheduled* send: a sender running
            // behind charges its lag to the requests it delayed instead of
            // hiding it (no coordinated omission).
            let scheduled = next_send;
            next_send += gap;
            send_lags_us.push(scheduled.elapsed().as_micros() as u64);
            in_flight
                .lock()
                .expect("poisoned")
                .insert(i as u64, scheduled);
            if let Err(e) = write_request(&mut writer, &request, cfg.http) {
                send_result = Err(e);
                break;
            }
            my_sends += 1;
        }
        // Publish the final send count, then give the reader a bounded
        // grace period (reads time out against the closed write half).
        sent.store(my_sends, Ordering::Release);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut tally = reader_handle.join().expect("loadgen reader panicked");
        tally.send_lags_us = send_lags_us;
        send_result.map(|()| tally)
    })?;
    Ok(tally)
}

/// Runs the configured load against a daemon at `addr` and collects the
/// report plus the server's post-run `stats`.
///
/// # Errors
///
/// Fails on connection/transport errors; protocol-level failures are
/// counted in the report instead.
pub fn run(addr: &str, cfg: &LoadgenConfig) -> io::Result<LoadRun> {
    assert!(!cfg.kinds.is_empty(), "need at least one kind in the mix");
    let plans = prepare(cfg);
    for plan in &plans {
        assert!(
            !plan.queries.is_empty(),
            "query sampling produced nothing for session {} — degenerate input?",
            plan.session
        );
    }
    let counter = AtomicUsize::new(0);
    let start = Instant::now();
    // Fan-in mode captures server stats *while* every socket is still
    // open (between the two barriers); the classic loops fetch them after.
    let mut mid_run_stats: Option<Json> = None;
    let tallies: Vec<io::Result<Tally>> = if cfg.connections > 0 {
        let threads = cfg.concurrency.clamp(1, cfg.connections);
        let gap = cfg
            .rate
            .map(|r| Duration::from_secs_f64(threads as f64 / r.max(1e-9)));
        let done = std::sync::Barrier::new(threads + 1);
        let release = std::sync::Barrier::new(threads + 1);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let sockets =
                        cfg.connections / threads + usize::from(t < cfg.connections % threads);
                    let (plans, counter, done, release) = (&plans, &counter, &done, &release);
                    s.spawn(move || {
                        fan_in_worker(addr, plans, cfg, counter, sockets, gap, done, release)
                    })
                })
                .collect();
            done.wait();
            mid_run_stats = if cfg.http {
                fetch_stats_http(addr).ok()
            } else {
                fetch_stats(addr).ok()
            };
            release.wait();
            handles
                .into_iter()
                .map(|h| h.join().expect("loadgen worker panicked"))
                .collect()
        })
    } else {
        let gap = cfg
            .rate
            .map(|r| Duration::from_secs_f64(cfg.concurrency.max(1) as f64 / r.max(1e-9)));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..cfg.concurrency.max(1))
                .map(|_| {
                    let plans = &plans;
                    let counter = &counter;
                    s.spawn(move || match gap {
                        None => closed_loop_worker(addr, plans, cfg, counter),
                        Some(gap) => open_loop_worker(addr, plans, cfg, counter, gap),
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("loadgen worker panicked"))
                .collect()
        })
    };
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut total = Tally::default();
    for tally in tallies {
        total.merge(tally?);
    }
    total.latencies_us.sort_unstable();
    total.send_lags_us.sort_unstable();
    let pct = |sorted: &[u64], q: f64| -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    };
    let mean_us = if total.latencies_us.is_empty() {
        0.0
    } else {
        total.latencies_us.iter().sum::<u64>() as f64 / total.latencies_us.len() as f64
    };
    let report = LoadReport {
        requests: cfg.requests,
        connections: if cfg.connections > 0 {
            cfg.connections
        } else {
            cfg.concurrency.max(1)
        },
        ok: total.ok,
        yes: total.yes,
        errors: total.errors,
        overloaded: total.overloaded,
        budget_exhausted: total.budget_exhausted,
        mismatches: total.mismatches,
        probes: total.probes,
        elapsed_s,
        qps: if elapsed_s > 0.0 {
            total.ok as f64 / elapsed_s
        } else {
            0.0
        },
        p50_us: pct(&total.latencies_us, 0.5),
        p99_us: pct(&total.latencies_us, 0.99),
        mean_us,
        send_lag_p99_us: pct(&total.send_lags_us, 0.99),
    };
    let server_stats = match mid_run_stats {
        Some(stats) => Some(stats),
        None if cfg.http => fetch_stats_http(addr).ok(),
        None => fetch_stats(addr).ok(),
    };
    Ok(LoadRun {
        report,
        server_stats,
    })
}

/// Sends a `stats` request on a fresh connection and parses the reply.
pub fn fetch_stats(addr: &str) -> io::Result<Json> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    writer.write_all(b"{\"op\":\"stats\"}\n")?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    serde_json::from_str(line.trim())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Sends a `shutdown` request, starting the daemon's graceful drain.
pub fn send_shutdown(addr: &str) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    writer.write_all(b"{\"op\":\"shutdown\"}\n")?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    Ok(())
}

/// Fetches `GET /v1/stats` from an `lca-gateway` and parses the JSON body
/// (the fleet rollup plus per-backend snapshots).
pub fn fetch_stats_http(addr: &str) -> io::Result<Json> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    write!(writer, "GET /v1/stats HTTP/1.1\r\nHost: lca\r\n\r\n")?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    read_response(&mut reader, true, &mut line)?;
    serde_json::from_str(line.trim())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Sends `POST /v1/shutdown` to an `lca-gateway`, starting its drain (the
/// backends behind it keep running).
pub fn send_shutdown_http(addr: &str) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    write!(
        writer,
        "POST /v1/shutdown HTTP/1.1\r\nHost: lca\r\nContent-Length: 0\r\n\r\n"
    )?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    read_response(&mut reader, true, &mut line)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_cycles_kinds_then_queries() {
        let cfg = LoadgenConfig {
            n: 2_000,
            kinds: vec![
                AlgorithmKind::Classic(ClassicKind::Mis),
                AlgorithmKind::Spanner(SpannerKind::Three),
            ],
            query_pool: 4,
            ..LoadgenConfig::default()
        };
        let plans = prepare(&cfg);
        assert_eq!(plans.len(), 2);
        assert_eq!(schedule(0, &plans), (0, 0));
        assert_eq!(schedule(1, &plans), (1, 0));
        assert_eq!(schedule(2, &plans), (0, 1));
        assert_eq!(schedule(9, &plans), (1, 0)); // wrapped: pool of 4
    }

    #[test]
    fn prepared_requests_are_valid_protocol_lines() {
        let cfg = LoadgenConfig {
            n: 5_000,
            verify: true,
            query_pool: 8,
            kinds: vec![AlgorithmKind::Classic(ClassicKind::Mis)],
            ..LoadgenConfig::default()
        };
        let plans = prepare(&cfg);
        assert_eq!(plans[0].expected.len(), plans[0].queries.len());
        assert!(plans[0].expected.iter().all(|e| e.may_exhaust));
        let budgeted = LoadgenConfig {
            max_probes: Some(500),
            budget_policy: Some("p95".to_owned()),
            ..cfg
        };
        let line = request_line(&plans[0], 3, 42, &budgeted);
        let req = crate::proto::Request::parse(&line).unwrap();
        let crate::proto::Request::Query {
            session,
            spec,
            queries,
            id,
            max_probes,
            budget_policy,
            ..
        } = req
        else {
            panic!("not a query")
        };
        assert_eq!(max_probes, Some(500));
        assert_eq!(
            budget_policy,
            Some(crate::budget::BudgetPolicy::Adaptive(Some(95.0)))
        );
        assert_eq!(session, "loadgen-mis");
        assert_eq!(id, Some(42));
        assert_eq!(spec.unwrap().n, 5_000);
        assert_eq!(queries, vec![plans[0].queries[3]]);
    }

    #[test]
    fn tally_classifies_responses() {
        let expect_true = Some(Expected {
            answer: true,
            may_exhaust: false,
        });
        let mut t = Tally::default();
        assert!(!t.absorb(r#"{"answer":true,"probes":5}"#, expect_true, 10));
        assert!(!t.absorb(r#"{"answer":false,"probes":2}"#, expect_true, 20));
        assert!(t.absorb(r#"{"error":"overloaded","message":"x"}"#, None, 0));
        assert!(!t.absorb(r#"{"error":"bad-query","message":"x"}"#, None, 0));
        assert!(!t.absorb("garbage", None, 0));
        assert_eq!(t.ok, 2);
        assert_eq!(t.yes, 1);
        assert_eq!(t.mismatches, 1);
        assert_eq!(t.overloaded, 1);
        assert_eq!(t.errors, 2);
        assert_eq!(t.probes, 7);
        assert_eq!(t.latencies_us, vec![10, 20]);
    }

    #[test]
    fn tally_tolerates_budget_trips_deterministically() {
        let mut t = Tally::default();
        // Cold local run also exhausts (or no client budget): trip accepted.
        let over = Some(Expected {
            answer: true,
            may_exhaust: true,
        });
        assert!(!t.absorb(r#"{"error":"budget-exhausted","message":"x"}"#, over, 0));
        assert_eq!(t.budget_exhausted, 1);
        assert_eq!(t.mismatches, 0);
        // Warm server memo answered instead: the answer must still match.
        assert!(!t.absorb(r#"{"answer":true,"probes":1}"#, over, 5));
        assert_eq!(t.mismatches, 0);
        // Cold local run fits the client's budget: a probe trip is a
        // mismatch…
        let within = Some(Expected {
            answer: false,
            may_exhaust: false,
        });
        assert!(!t.absorb(r#"{"error":"budget-exhausted","message":"x"}"#, within, 0));
        assert_eq!(t.budget_exhausted, 2);
        assert_eq!(t.mismatches, 1);
        // …but a deadline trip never is — wall clocks are not replayable.
        assert!(!t.absorb(r#"{"error":"deadline-exceeded","message":"x"}"#, within, 0));
        assert_eq!(t.budget_exhausted, 3);
        assert_eq!(t.mismatches, 1);
        assert_eq!(t.errors, 0);
    }
}
