//! The newline-JSON wire protocol.
//!
//! One request per line, one response line per request — the full field
//! reference with `nc` examples lives in `docs/PROTOCOL.md`. This module
//! owns both directions, reading and writing: [`Request::parse`] and
//! [`Request::write`] for requests, [`Response::write`] and
//! [`Response::error_member`] for responses. It knows nothing about
//! sockets or sessions.
//!
//! Neither direction builds a JSON tree. The reader scans a line's bytes
//! once, checking the whole line's JSON syntax as it goes, and keeps only
//! the fields a request can carry, as borrowed slices and numbers; the
//! request is built from those after the scan. The writers append each
//! message's fields straight to the output string. A warm single-query
//! request therefore allocates its session name and its response line and
//! nothing else.

#![warn(clippy::unwrap_used)]
use std::borrow::Cow;
use std::ops::Deref;

use lca::prelude::{AlgorithmKind, ImplicitFamily};
use serde::Json;

use crate::budget::BudgetPolicy;

/// Version of this wire protocol, reported in every `stats` response so a
/// fleet front end can tag (and age out) backends speaking an older
/// schema. Bump when a field changes meaning or disappears — additive
/// fields do not require a bump.
pub const PROTOCOL_VERSION: u64 = 3;

/// A parsed session specification: the four scalars (plus one optional
/// knob) that pin a served instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Which algorithm answers the session's queries.
    pub kind: AlgorithmKind,
    /// Which implicit input family backs the session.
    pub family: ImplicitFamily,
    /// Requested vertex count (lattice families round it; see
    /// [`ImplicitFamily::build_with`]).
    pub n: usize,
    /// The session seed; input and algorithm seeds are derived from it (see
    /// [`crate::input_seed`] / [`crate::algo_seed`]).
    pub seed: u64,
    /// Family shape knob (expected degree for `gnp`, degree for `regular`,
    /// average degree for `chung-lu`).
    pub knob: Option<f64>,
}

/// One query payload: a vertex id or a normalized edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPayload {
    /// A vertex-subset query (`"query": 42`).
    Vertex(u64),
    /// An edge-subgraph query (`"query": [3, 17]`).
    Edge(u64, u64),
}

/// The queries of one request, read as a slice: a single query is held
/// inline, so the common request allocates no list for it.
#[derive(Clone)]
pub enum Queries {
    /// Exactly one query.
    One(QueryPayload),
    /// Any other number of queries, in request order.
    Batch(Vec<QueryPayload>),
}

impl Queries {
    /// Appends `q`, moving to a batch at the second query.
    fn push(queries: &mut Option<Queries>, q: QueryPayload) {
        *queries = Some(match queries.take() {
            None => Queries::One(q),
            Some(Queries::One(first)) => Queries::Batch(vec![first, q]),
            Some(Queries::Batch(mut batch)) => {
                batch.push(q);
                Queries::Batch(batch)
            }
        });
    }
}

impl Deref for Queries {
    type Target = [QueryPayload];

    fn deref(&self) -> &[QueryPayload] {
        match self {
            Queries::One(q) => std::slice::from_ref(q),
            Queries::Batch(batch) => batch,
        }
    }
}

impl From<Vec<QueryPayload>> for Queries {
    fn from(batch: Vec<QueryPayload>) -> Self {
        match batch.as_slice() {
            [q] => Queries::One(*q),
            _ => Queries::Batch(batch),
        }
    }
}

/// Equal when they hold the same queries in the same order, however held.
impl PartialEq for Queries {
    fn eq(&self, other: &Queries) -> bool {
        **self == **other
    }
}

impl Eq for Queries {}

impl PartialEq<Vec<QueryPayload>> for Queries {
    fn eq(&self, other: &Vec<QueryPayload>) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Queries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Answer one query (or a batch) within a session.
    Query {
        /// Client-chosen session name.
        session: String,
        /// Instance spec; required the first time a session name is used,
        /// validated against the pinned instance afterwards when present.
        spec: Option<SessionSpec>,
        /// The queries to answer (singular `query` parses to a 1-batch).
        queries: Queries,
        /// Echoed verbatim in the response, for request/response matching
        /// over pipelined connections.
        id: Option<u64>,
        /// Per-query probe budget: a query that would exceed it fails the
        /// request with [`ErrorCode::BudgetExhausted`] instead of running
        /// long.
        max_probes: Option<u64>,
        /// Wall-clock allowance for the whole request, in milliseconds;
        /// overruns fail with [`ErrorCode::DeadlineExceeded`].
        deadline_ms: Option<u64>,
        /// Adaptive-budget policy for the session (`"off"`/`"none"`,
        /// `"adaptive"`, or a `"pNN"` percentile like `"p95"`); latest
        /// request wins. Explicit `max_probes` always overrides the fitted
        /// budget. Absent means "leave the session's policy alone".
        budget_policy: Option<BudgetPolicy>,
    },
    /// Report global and per-session metrics.
    Stats,
    /// Report every resident session's pinned spec (`kind`, `family`, `n`,
    /// `seed`, `knob`) — the spec-introspection half of fleet replication:
    /// any process can rebuild every session from this one response.
    Sessions,
    /// Liveness check.
    Ping,
    /// Begin a graceful drain: stop accepting, finish queued work, exit.
    Shutdown,
}

/// Machine-readable error classes of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed JSON or missing/ill-typed fields.
    BadRequest,
    /// `kind`/`family` did not parse, or the spec is unusable.
    UnknownSpec,
    /// Session name used before being specified.
    UnknownSession,
    /// Spec fields contradict the session's pinned instance.
    SessionMismatch,
    /// Query out of the instance's vertex range, or wrong shape.
    BadQuery,
    /// Admission queue full — retry later.
    Overloaded,
    /// The server is draining and no longer accepts queries.
    Draining,
    /// The query panicked while being answered — a server bug, not a client
    /// one; the session stays usable.
    Internal,
    /// A query exceeded the request's `max_probes` budget. A clean partial
    /// failure: the session stays consistent and the same query succeeds
    /// under a larger budget.
    BudgetExhausted,
    /// The request ran past its `deadline_ms` allowance.
    DeadlineExceeded,
    /// A fleet gateway could not reach the backend its session routes to;
    /// the request was never executed. Only a gateway answers it.
    BackendUnavailable,
}

impl ErrorCode {
    /// Every code, in declaration order.
    const ALL: [ErrorCode; 11] = [
        ErrorCode::BadRequest,
        ErrorCode::UnknownSpec,
        ErrorCode::UnknownSession,
        ErrorCode::SessionMismatch,
        ErrorCode::BadQuery,
        ErrorCode::Overloaded,
        ErrorCode::Draining,
        ErrorCode::Internal,
        ErrorCode::BudgetExhausted,
        ErrorCode::DeadlineExceeded,
        ErrorCode::BackendUnavailable,
    ];

    /// The code's wire spelling and the HTTP status a fleet gateway answers
    /// it with: the one table of both (`docs/PROTOCOL.md` prints it).
    fn row(self) -> (&'static str, u16) {
        match self {
            ErrorCode::BadRequest => ("bad-request", 400),
            ErrorCode::UnknownSpec => ("unknown-spec", 400),
            ErrorCode::UnknownSession => ("unknown-session", 404),
            ErrorCode::SessionMismatch => ("session-mismatch", 409),
            ErrorCode::BadQuery => ("bad-query", 400),
            ErrorCode::Overloaded => ("overloaded", 429),
            ErrorCode::Draining => ("draining", 503),
            ErrorCode::Internal => ("internal", 500),
            ErrorCode::BudgetExhausted => ("budget-exhausted", 422),
            ErrorCode::DeadlineExceeded => ("deadline-exceeded", 504),
            ErrorCode::BackendUnavailable => ("backend-unavailable", 503),
        }
    }

    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        self.row().0
    }

    /// The HTTP status a fleet gateway pairs with the code.
    pub fn http_status(self) -> u16 {
        self.row().1
    }

    /// The code spelled `name` on the wire, if there is one.
    pub fn parse(name: &str) -> Option<ErrorCode> {
        Self::ALL.into_iter().find(|code| code.as_str() == name)
    }
}

/// A response line, ready to render.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A successful answer to a 1-query request.
    Answer {
        /// Echo of the request `id`, if one was sent.
        id: Option<u64>,
        /// The session that answered.
        session: String,
        /// The LCA's answer.
        answer: bool,
        /// Oracle probes spent on this request, read from its own query
        /// meter: exact even when the same session is being queried
        /// concurrently.
        probes: u64,
        /// Wall-clock service time in microseconds (queue wait excluded).
        micros: u64,
    },
    /// A successful answer to a batch request.
    Answers {
        /// Echo of the request `id`, if one was sent.
        id: Option<u64>,
        /// The session that answered.
        session: String,
        /// Per-query answers, in request order.
        answers: Vec<bool>,
        /// Oracle probes spent on this request.
        probes: u64,
        /// Wall-clock service time in microseconds.
        micros: u64,
    },
    /// Any failure, including backpressure.
    Error {
        /// Echo of the request `id`, if one was parsed.
        id: Option<u64>,
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Reply to `ping` and `shutdown`.
    Ok {
        /// `true` iff this reply acknowledges a shutdown (drain started).
        draining: bool,
    },
    /// Reply to `stats`: a pre-rendered JSON object (built by the metrics
    /// module, which owns the schema).
    Stats(Json),
}

/// Appends an unsigned field value as the JSON number of the `f64` it
/// converts to, the way every number on the wire is written: exact up to
/// 9e15, rounded to the nearest `f64` (without an exponent) past it.
fn write_u64(out: &mut String, v: u64) {
    serde::write_num(out, v as f64);
}

fn write_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Appends the key of an object member, after a comma unless the object
/// was just opened (no value ends in `{`).
fn key(out: &mut String, name: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
}

/// Opens a response object, with the `id` echo first when there is one.
fn open(out: &mut String, id: Option<u64>) {
    out.push('{');
    if let Some(id) = id {
        key(out, "id");
        write_u64(out, id);
    }
}

/// Closes an answer object with its cost members.
fn close_with_cost(out: &mut String, probes: u64, micros: u64) {
    key(out, "probes");
    write_u64(out, probes);
    key(out, "micros");
    write_u64(out, micros);
    out.push('}');
}

impl Response {
    /// Appends the response to `out` as one compact JSON object, with no
    /// trailing newline. Every response but `stats` is written member by
    /// member; `stats` renders its tree.
    pub fn write(&self, out: &mut String) {
        match self {
            Response::Answer {
                id,
                session,
                answer,
                probes,
                micros,
            } => {
                open(out, *id);
                key(out, "session");
                serde::write_str(out, session);
                key(out, "answer");
                write_bool(out, *answer);
                close_with_cost(out, *probes, *micros);
            }
            Response::Answers {
                id,
                session,
                answers,
                probes,
                micros,
            } => {
                open(out, *id);
                key(out, "session");
                serde::write_str(out, session);
                key(out, "answers");
                out.push('[');
                for (i, &answer) in answers.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_bool(out, answer);
                }
                out.push(']');
                close_with_cost(out, *probes, *micros);
            }
            Response::Error { id, code, message } => {
                open(out, *id);
                key(out, "error");
                serde::write_str(out, code.as_str());
                key(out, "message");
                serde::write_str(out, message);
                out.push('}');
            }
            Response::Ok { draining } => {
                open(out, None);
                key(out, "ok");
                write_bool(out, true);
                key(out, "draining");
                write_bool(out, *draining);
                out.push('}');
            }
            Response::Stats(json) => json.render(out),
        }
    }

    /// Bytes [`Response::write`] needs for this response with plain
    /// strings and the largest numbers: a capacity that holds the line in
    /// one allocation.
    pub(crate) fn len_hint(&self) -> usize {
        match self {
            Response::Answer { session, .. } => 128 + session.len(),
            Response::Answers {
                session, answers, ..
            } => 128 + session.len() + 6 * answers.len(),
            Response::Error { message, .. } => 64 + message.len(),
            Response::Ok { .. } => 32,
            Response::Stats(_) => 4096,
        }
    }

    /// Renders the response as one compact JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.len_hint());
        self.write(&mut out);
        out
    }

    /// Shorthand for an [`ErrorCode::Overloaded`] response.
    pub fn overloaded(id: Option<u64>) -> Response {
        Response::Error {
            id,
            code: ErrorCode::Overloaded,
            message: "admission queue full, retry later".to_owned(),
        }
    }

    /// The `error` member of a line [`Response::write`] wrote, read in
    /// place: an error object opens with it, after the `id` echo when there
    /// is one. `None` for every other line, answers included.
    pub fn error_member(line: &str) -> Option<&str> {
        let rest = line.strip_prefix('{')?;
        let rest = match rest.strip_prefix("\"id\":") {
            // An `id` is a number: the first comma ends it.
            Some(id) => id.split_once(',')?.1,
            None => rest,
        };
        let code = rest.strip_prefix("\"error\":\"")?;
        code.split_once('"').map(|(code, _)| code)
    }
}

fn write_payload(out: &mut String, q: QueryPayload) {
    match q {
        QueryPayload::Vertex(v) => write_u64(out, v),
        QueryPayload::Edge(u, v) => {
            out.push('[');
            write_u64(out, u);
            out.push(',');
            write_u64(out, v);
            out.push(']');
        }
    }
}

impl Request {
    /// Appends the request to `out` as one compact JSON object, with no
    /// trailing newline: the line [`Request::parse`] reads back as this
    /// request. Members come in a fixed order; a spec is written whole,
    /// `seed` included, with `kind` and `family` by their registered names.
    pub fn write(&self, out: &mut String) {
        let op = match self {
            Request::Query {
                session,
                spec,
                queries,
                id,
                max_probes,
                deadline_ms,
                budget_policy,
            } => {
                open(out, *id);
                key(out, "session");
                serde::write_str(out, session);
                if let Some(spec) = spec {
                    key(out, "kind");
                    serde::write_str(out, spec.kind.name());
                    key(out, "family");
                    serde::write_str(out, spec.family.name());
                    key(out, "n");
                    write_u64(out, spec.n as u64);
                    key(out, "seed");
                    write_u64(out, spec.seed);
                    if let Some(knob) = spec.knob {
                        key(out, "knob");
                        serde::write_num(out, knob);
                    }
                }
                match &**queries {
                    [q] => {
                        key(out, "query");
                        write_payload(out, *q);
                    }
                    batch => {
                        key(out, "queries");
                        out.push('[');
                        for (i, &q) in batch.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            write_payload(out, q);
                        }
                        out.push(']');
                    }
                }
                for (name, value) in [("max_probes", max_probes), ("deadline_ms", deadline_ms)] {
                    if let Some(value) = value {
                        key(out, name);
                        write_u64(out, *value);
                    }
                }
                if let Some(policy) = budget_policy {
                    key(out, "budget_policy");
                    match policy {
                        BudgetPolicy::Off => serde::write_str(out, "off"),
                        BudgetPolicy::Adaptive(None) => serde::write_str(out, "adaptive"),
                        BudgetPolicy::Adaptive(Some(pct)) => {
                            out.push_str("\"p");
                            serde::write_num(out, *pct);
                            out.push('"');
                        }
                    }
                }
                out.push('}');
                return;
            }
            Request::Stats => "stats",
            Request::Sessions => "sessions",
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
        };
        open(out, None);
        key(out, "op");
        serde::write_str(out, op);
        out.push('}');
    }

    /// Bytes [`Request::write`] needs for this request with a plain
    /// session name and the largest numbers: a capacity that holds the
    /// line in one allocation.
    pub fn len_hint(&self) -> usize {
        match self {
            Request::Query {
                session, queries, ..
            } => 256 + session.len() + 40 * queries.len(),
            _ => 32,
        }
    }
}

/// What an integer field accepts: the integers an `f64` holds exactly,
/// up to 9e15 (JSON numbers are read as `f64`s).
const U64: &str = "a non-negative integer no larger than 9e15";
const STRING: &str = "a string";
const PAYLOAD: &str = "`query` must be a vertex id or a two-element [u, v] array";

/// A parse failure: the error response to send plus nothing else — parsing
/// never has side effects.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Request id, when one could be extracted before the failure.
    pub id: Option<u64>,
    /// Error class.
    pub code: ErrorCode,
    /// Detail message.
    pub message: String,
}

impl ParseError {
    fn new(id: Option<u64>, code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            id,
            code,
            message: message.into(),
        }
    }

    /// The response line for this failure.
    pub fn response(&self) -> Response {
        self.clone().into_response()
    }

    /// The response line for this failure, taking its message.
    pub fn into_response(self) -> Response {
        Response::Error {
            id: self.id,
            code: self.code,
            message: self.message,
        }
    }
}

/// Nesting ceiling for the values a line may carry: protocol messages are
/// flat, so anything deeper is garbage, not load. A value may sit this
/// many levels below the top-level object.
const MAX_DEPTH: usize = 64;

/// A JSON syntax error: where the scan stopped and what it expected there.
struct Syntax {
    pos: usize,
    msg: &'static str,
}

impl Syntax {
    fn into_error(self) -> ParseError {
        ParseError::new(
            None,
            ErrorCode::BadRequest,
            format!("JSON parse error at byte {}: {}", self.pos, self.msg),
        )
    }
}

type Scan<T> = Result<T, Syntax>;

/// A scanned string literal: its body between the quotes, escapes still
/// in it, and whether it has any.
#[derive(Clone, Copy)]
struct RawStr<'a> {
    body: &'a str,
    escaped: bool,
}

impl<'a> RawStr<'a> {
    /// The string's value: the body itself unless it has escapes.
    fn text(self) -> Cow<'a, str> {
        if !self.escaped {
            return Cow::Borrowed(self.body);
        }
        let mut out = String::with_capacity(self.body.len());
        let mut rest = self.body;
        while let Some(at) = rest.find('\\') {
            out.push_str(rest.get(..at).unwrap_or_default());
            let escape = rest.get(at + 1..).unwrap_or_default();
            let mut taken = 2;
            out.push(match escape.as_bytes().first() {
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    taken = 6;
                    // Surrogate pairs are out of scope for the protocol;
                    // a lone surrogate reads as U+FFFD.
                    hex4(escape.as_bytes().get(1..5))
                        .and_then(char::from_u32)
                        .unwrap_or('\u{FFFD}')
                }
                // `"`, `\` and `/` stand for themselves.
                Some(&b) => char::from(b),
                None => break,
            });
            rest = rest.get(at + taken..).unwrap_or_default();
        }
        out.push_str(rest);
        Cow::Owned(out)
    }
}

/// The four hex digits of a `\u` escape, read as `u32::from_str_radix`
/// reads them (which lets a leading `+` stand in for the first digit).
fn hex4(digits: Option<&[u8]>) -> Option<u32> {
    let digits = std::str::from_utf8(digits?).ok()?;
    u32::from_str_radix(digits, 16).ok()
}

/// A field value as the reader keeps it: numbers and strings as read,
/// anything else only as present.
#[derive(Clone, Copy)]
enum Val<'a> {
    Num(f64),
    Str(RawStr<'a>),
    Other,
}

impl<'a> Val<'a> {
    fn as_f64(&self) -> Option<f64> {
        match self {
            Val::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// A non-negative integer no larger than 9e15: exact as an `f64`, so
    /// `-0` reads as 0 and anything rounded or overflowed is refused.
    fn as_u64(&self) -> Option<u64> {
        match self {
            Val::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 9.0e15 => Some(*x as u64),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<Cow<'a, str>> {
        match self {
            Val::Str(s) => Some(s.text()),
            _ => None,
        }
    }
}

/// The fields a request line can carry, each as its first occurrence in
/// the line (a later duplicate is checked and skipped).
#[derive(Default)]
struct Fields<'a> {
    id: Option<Val<'a>>,
    op: Option<Val<'a>>,
    session: Option<Val<'a>>,
    kind: Option<Val<'a>>,
    n: Option<Val<'a>>,
    family: Option<Val<'a>>,
    seed: Option<Val<'a>>,
    knob: Option<Val<'a>>,
    max_probes: Option<Val<'a>>,
    deadline_ms: Option<Val<'a>>,
    budget_policy: Option<Val<'a>>,
    /// `query`: its payload, or `None` when it is not one.
    query: Option<Option<QueryPayload>>,
    /// `queries`: its payloads, or why they are not a batch.
    queries: Option<Result<Queries, &'static str>>,
}

impl<'a> Fields<'a> {
    /// The slot of a scalar field named `key`, if the line may carry one.
    fn slot(&mut self, key: &str) -> Option<&mut Option<Val<'a>>> {
        Some(match key {
            "id" => &mut self.id,
            "op" => &mut self.op,
            "session" => &mut self.session,
            "kind" => &mut self.kind,
            "n" => &mut self.n,
            "family" => &mut self.family,
            "seed" => &mut self.seed,
            "knob" => &mut self.knob,
            "max_probes" => &mut self.max_probes,
            "deadline_ms" => &mut self.deadline_ms,
            "budget_policy" => &mut self.budget_policy,
            _ => return None,
        })
    }

    /// Reads the value of the object member `key` at `depth`.
    fn read(&mut self, r: &mut Reader<'a>, key: RawStr<'a>, depth: usize) -> Scan<()> {
        let key = key.text();
        match key.as_ref() {
            "query" if self.query.is_none() => self.query = Some(r.payload(depth)?),
            "queries" if self.queries.is_none() => self.queries = Some(r.queries(depth)?),
            key => match self.slot(key) {
                Some(slot @ None) => *slot = Some(r.value(depth)?),
                _ => {
                    r.value(depth)?;
                }
            },
        }
        Ok(())
    }
}

/// Reads the optional `name` field through `read`: absent is `None`, but a
/// present value `read` rejects is `bad-request` naming the field — never
/// a silent fall back to the default.
fn field<'a, T>(
    v: Option<Val<'a>>,
    name: &str,
    id: Option<u64>,
    expected: &str,
    read: impl FnOnce(&Val<'a>) -> Option<T>,
) -> Result<Option<T>, ParseError> {
    match v {
        None => Ok(None),
        Some(x) => read(&x).map(Some).ok_or_else(|| {
            ParseError::new(
                id,
                ErrorCode::BadRequest,
                format!("`{name}` must be {expected}"),
            )
        }),
    }
}

/// The one-pass scanner behind [`Request::parse`]. It accepts exactly
/// JSON (RFC 8259 values, with numbers read as `f64`) and reports a
/// syntax error at the byte and with the words of the first construct it
/// cannot read.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn fail<T>(&self, msg: &'static str) -> Scan<T> {
        Err(Syntax { pos: self.pos, msg })
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Scan<()> {
        if self.peek() != Some(b) {
            return self.fail(msg);
        }
        self.pos += 1;
        Ok(())
    }

    fn enter(&self, depth: usize) -> Scan<()> {
        if depth > MAX_DEPTH {
            return self.fail("nesting too deep");
        }
        Ok(())
    }

    /// The whole line: one value, surrounded by nothing but whitespace.
    /// A top-level object's members are read into [`Fields`]; any other
    /// value carries none.
    fn line(&mut self) -> Scan<Fields<'a>> {
        let mut fields = Fields::default();
        self.ws();
        if self.peek() == Some(b'{') {
            self.object(0, |r, key, depth| fields.read(r, key, depth))?;
        } else {
            self.value(0)?;
        }
        self.ws();
        if self.pos != self.text.len() {
            return self.fail("trailing characters after value");
        }
        Ok(fields)
    }

    /// Reads any value at `depth`, keeping numbers and strings.
    fn value(&mut self, depth: usize) -> Scan<Val<'a>> {
        self.enter(depth)?;
        let literal = |r: &mut Self, lit: &str, msg| {
            let rest = r.text.get(r.pos..).unwrap_or_default();
            if !rest.starts_with(lit) {
                return r.fail(msg);
            }
            r.pos += lit.len();
            Ok(Val::Other)
        };
        match self.peek() {
            Some(b'{') => self.object(depth, |r, _, d| r.value(d).map(drop))?,
            Some(b'[') => self.array(depth, |r, d| r.value(d).map(drop))?,
            Some(b'"') => return self.string().map(Val::Str),
            Some(b't') => return literal(self, "true", "expected `true`"),
            Some(b'f') => return literal(self, "false", "expected `false`"),
            Some(b'n') => return literal(self, "null", "expected `null`"),
            Some(b'-' | b'0'..=b'9') => return self.number().map(Val::Num),
            _ => return self.fail("expected a JSON value"),
        }
        Ok(Val::Other)
    }

    /// Reads the object at the cursor, handing each member's key and the
    /// depth of its value to `member`, which must consume the value.
    fn object(
        &mut self,
        depth: usize,
        mut member: impl FnMut(&mut Self, RawStr<'a>, usize) -> Scan<()>,
    ) -> Scan<()> {
        self.eat(b'{', "expected `{`")?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':', "expected `:` after object key")?;
            self.ws();
            member(self, key, depth + 1)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.fail("expected `,` or `}` in object"),
            }
        }
    }

    /// Reads the array at the cursor, handing the depth of each item to
    /// `item`, which must consume it.
    fn array(
        &mut self,
        depth: usize,
        mut item: impl FnMut(&mut Self, usize) -> Scan<()>,
    ) -> Scan<()> {
        self.eat(b'[', "expected `[`")?;
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.ws();
            item(self, depth + 1)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.fail("expected `,` or `]` in array"),
            }
        }
    }

    /// Reads a string literal, checking its escapes; decoding waits until
    /// the value is wanted ([`RawStr::text`]).
    fn string(&mut self) -> Scan<RawStr<'a>> {
        self.eat(b'"', "expected `\"`")?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            match self.peek() {
                Some(b'"') => {
                    let body = self.text.get(start..self.pos).unwrap_or_default();
                    self.pos += 1;
                    return Ok(RawStr { body, escaped });
                }
                Some(b'\\') => {
                    escaped = true;
                    self.pos += 1;
                    let Some(escape) = self.peek() else {
                        return self.fail("unterminated escape");
                    };
                    self.pos += 1;
                    match escape {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                        b'u' => {
                            let digits = self.text.as_bytes().get(self.pos..self.pos + 4);
                            if hex4(digits).is_none() {
                                return self.fail("malformed \\u escape");
                            }
                            self.pos += 4;
                        }
                        _ => {
                            return Err(Syntax {
                                pos: self.pos - 1,
                                msg: "unknown escape",
                            })
                        }
                    }
                }
                _ => return self.fail("unterminated string"),
            }
        }
    }

    /// Reads a number as the `f64` its text parses to. The text runs over
    /// every digit, `.`, `e`, `E`, `+` and `-` after an optional sign, so
    /// `1-2` is one malformed number rather than two tokens.
    fn number(&mut self) -> Scan<f64> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = self.text.get(start..self.pos).unwrap_or_default();
        // Up to 15 plain digits are below 2^53: summing them is exact and
        // equals the parse.
        if (1..=15).contains(&text.len()) && text.bytes().all(|b| b.is_ascii_digit()) {
            return Ok(text.bytes().fold(0u64, |n, b| n * 10 + u64::from(b - b'0')) as f64);
        }
        text.parse().map_err(|_| Syntax {
            pos: start,
            msg: "malformed number",
        })
    }

    /// Reads a `query` value: `None` unless it is a vertex id or a
    /// two-element `[u, v]` edge of vertex ids.
    fn payload(&mut self, depth: usize) -> Scan<Option<QueryPayload>> {
        if self.peek() != Some(b'[') {
            return Ok(self.value(depth)?.as_u64().map(QueryPayload::Vertex));
        }
        self.enter(depth)?;
        let (mut ends, mut len) = ([None; 2], 0usize);
        self.array(depth, |r, d| {
            let v = r.value(d)?;
            if let Some(end) = ends.get_mut(len) {
                *end = v.as_u64();
            }
            len += 1;
            Ok(())
        })?;
        Ok(match (len, ends) {
            (2, [Some(u), Some(w)]) => Some(QueryPayload::Edge(u, w)),
            _ => None,
        })
    }

    /// Reads a `queries` value: its payloads, or why it is not a batch.
    fn queries(&mut self, depth: usize) -> Scan<Result<Queries, &'static str>> {
        if self.peek() != Some(b'[') {
            self.value(depth)?;
            return Ok(Err("`queries` must be an array"));
        }
        self.enter(depth)?;
        let (mut batch, mut bad) = (None, false);
        self.array(depth, |r, d| {
            match r.payload(d)? {
                Some(q) if !bad => Queries::push(&mut batch, q),
                _ => bad = true,
            }
            Ok(())
        })?;
        Ok(match batch {
            _ if bad => Err(PAYLOAD),
            None => Err("`queries` must not be empty"),
            Some(batch) => Ok(batch),
        })
    }
}

impl Request {
    /// Parses one request line.
    ///
    /// The `op` field selects the request type and defaults to `"query"`.
    /// A query request needs `session` plus either `query` (one vertex id
    /// or `[u, v]` edge) or `queries` (an array of those); `kind`, `n` and
    /// optionally `family`/`seed`/`knob` describe the instance and are
    /// required the first time a session name is used.
    ///
    /// Malformed JSON anywhere in the line fails before any field is
    /// judged, and echoes no `id`. Unknown fields are checked and skipped;
    /// of duplicate fields the first counts.
    pub fn parse(line: &str) -> Result<Request, ParseError> {
        let fields = Reader { text: line, pos: 0 }
            .line()
            .map_err(Syntax::into_error)?;
        // An unreadable `id` cannot be echoed, so its error carries none.
        let id = field(fields.id, "id", None, U64, Val::as_u64)?;
        let op = field(fields.op, "op", id, STRING, Val::as_str)?;
        match op.as_deref().unwrap_or("query") {
            "stats" => Ok(Request::Stats),
            "sessions" => Ok(Request::Sessions),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "query" => Self::query(fields, id),
            other => Err(ParseError::new(
                id,
                ErrorCode::BadRequest,
                format!("unknown op {other:?}"),
            )),
        }
    }

    fn query(fields: Fields<'_>, id: Option<u64>) -> Result<Request, ParseError> {
        let bad = |message: &str| ParseError::new(id, ErrorCode::BadRequest, message);
        let session = fields
            .session
            .as_ref()
            .and_then(Val::as_str)
            .ok_or_else(|| bad("missing string field `session`"))?
            .into_owned();

        let spec = Self::spec(&fields, id)?;

        let queries = match (fields.query, fields.queries) {
            (Some(q), None) => Queries::One(q.ok_or_else(|| bad(PAYLOAD))?),
            (None, Some(batch)) => batch.map_err(bad)?,
            (Some(_), Some(_)) => return Err(bad("send `query` or `queries`, not both")),
            (None, None) => return Err(bad("missing `query` (vertex id or [u, v]) or `queries`")),
        };
        let max_probes = field(fields.max_probes, "max_probes", id, U64, Val::as_u64)?;
        let deadline_ms = field(fields.deadline_ms, "deadline_ms", id, U64, Val::as_u64)?;
        let budget_policy = match field(
            fields.budget_policy,
            "budget_policy",
            id,
            STRING,
            Val::as_str,
        )? {
            None => None,
            Some(s) => Some(BudgetPolicy::parse(&s).ok_or_else(|| {
                bad(&format!(
                    "unknown budget_policy {:?} (use off, adaptive, or pNN like p95)",
                    s.as_ref()
                ))
            })?),
        };
        Ok(Request::Query {
            session,
            spec,
            queries,
            id,
            max_probes,
            deadline_ms,
            budget_policy,
        })
    }

    /// Reads the spec fields if any are present; `kind` + `n` make a spec,
    /// anything partial (including a stray `family`/`seed`/`knob` without
    /// them) is an error — a typo would otherwise silently fall back to the
    /// pinned instance.
    fn spec(fields: &Fields<'_>, id: Option<u64>) -> Result<Option<SessionSpec>, ParseError> {
        let kind = field(fields.kind, "kind", id, STRING, Val::as_str)?;
        let n = field(fields.n, "n", id, U64, Val::as_u64)?;
        let (kind, n) = match (kind, n) {
            (Some(kind), Some(n)) => (kind, n),
            (None, None) => {
                let stray = [
                    ("family", fields.family.is_some()),
                    ("seed", fields.seed.is_some()),
                    ("knob", fields.knob.is_some()),
                ];
                if let Some((stray, _)) = stray.iter().find(|(_, present)| *present) {
                    return Err(ParseError::new(
                        id,
                        ErrorCode::BadRequest,
                        format!("`{stray}` without `kind` and `n` — send the full spec or none"),
                    ));
                }
                return Ok(None);
            }
            _ => {
                return Err(ParseError::new(
                    id,
                    ErrorCode::BadRequest,
                    "a session spec needs both `kind` and `n`",
                ))
            }
        };
        let kind = AlgorithmKind::parse(&kind).ok_or_else(|| {
            ParseError::new(
                id,
                ErrorCode::UnknownSpec,
                format!("unknown kind {:?}", kind.as_ref()),
            )
        })?;
        let family = match field(fields.family, "family", id, STRING, Val::as_str)? {
            None => ImplicitFamily::Gnp,
            Some(name) => ImplicitFamily::parse(&name).ok_or_else(|| {
                ParseError::new(
                    id,
                    ErrorCode::UnknownSpec,
                    format!("unknown family {:?}", name.as_ref()),
                )
            })?,
        };
        let seed = field(fields.seed, "seed", id, U64, Val::as_u64)?.unwrap_or(0);
        let knob = field(fields.knob, "knob", id, "a finite number", |x| {
            x.as_f64().filter(|k| k.is_finite())
        })?;
        let n = n as usize;
        // A shape the family cannot build is refused here, naming the
        // field: building it would panic inside the registry.
        family
            .check(n, knob)
            .map_err(|message| ParseError::new(id, ErrorCode::BadRequest, message))?;
        Ok(Some(SessionSpec {
            kind,
            family,
            n,
            seed,
            knob,
        }))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests assert; unwrap IS the assertion
mod tests {
    use super::*;
    use lca::prelude::{ClassicKind, SpannerKind};

    #[test]
    fn parses_the_issue_example_shape() {
        let req = Request::parse(
            r#"{"session": "s", "kind": "mis", "n": 1000000, "seed": 7, "query": 42}"#,
        )
        .unwrap();
        let Request::Query {
            session,
            spec,
            queries,
            id,
            max_probes,
            deadline_ms,
            budget_policy,
        } = req
        else {
            panic!("not a query")
        };
        assert_eq!(session, "s");
        assert_eq!(max_probes, None);
        assert_eq!(deadline_ms, None);
        assert_eq!(budget_policy, None);
        assert_eq!(id, None);
        let spec = spec.unwrap();
        assert_eq!(spec.kind, AlgorithmKind::Classic(ClassicKind::Mis));
        assert_eq!(spec.family, ImplicitFamily::Gnp);
        assert_eq!(spec.n, 1_000_000);
        assert_eq!(spec.seed, 7);
        assert_eq!(queries, vec![QueryPayload::Vertex(42)]);
    }

    #[test]
    fn parses_edge_queries_batches_and_ids() {
        let req = Request::parse(
            r#"{"id": 9, "session": "sp", "kind": "spanner3", "family": "regular",
                "n": 4096, "knob": 6, "queries": [[1, 2], [3, 4]]}"#,
        )
        .unwrap();
        let Request::Query {
            spec, queries, id, ..
        } = req
        else {
            panic!("not a query")
        };
        assert_eq!(id, Some(9));
        let spec = spec.unwrap();
        assert_eq!(spec.kind, AlgorithmKind::Spanner(SpannerKind::Three));
        assert_eq!(spec.family, ImplicitFamily::Regular);
        assert_eq!(spec.knob, Some(6.0));
        assert_eq!(
            queries,
            vec![QueryPayload::Edge(1, 2), QueryPayload::Edge(3, 4)]
        );
    }

    #[test]
    fn budget_fields_parse_and_codes_render() {
        let req = Request::parse(
            r#"{"session": "s", "kind": "mis", "n": 100, "max_probes": 64,
                "deadline_ms": 250, "query": 1}"#,
        )
        .unwrap();
        let Request::Query {
            max_probes,
            deadline_ms,
            ..
        } = req
        else {
            panic!("not a query")
        };
        assert_eq!(max_probes, Some(64));
        assert_eq!(deadline_ms, Some(250));
        assert_eq!(ErrorCode::BudgetExhausted.as_str(), "budget-exhausted");
        assert_eq!(ErrorCode::DeadlineExceeded.as_str(), "deadline-exceeded");
    }

    #[test]
    fn budget_policy_parses_and_rejects_junk() {
        for (policy, expect) in [
            ("off", BudgetPolicy::Off),
            ("none", BudgetPolicy::Off),
            ("adaptive", BudgetPolicy::Adaptive(None)),
            ("p95", BudgetPolicy::Adaptive(Some(95.0))),
            ("p99.9", BudgetPolicy::Adaptive(Some(99.9))),
        ] {
            let line = format!(
                r#"{{"session": "s", "kind": "mis", "n": 100, "budget_policy": "{policy}", "query": 1}}"#
            );
            let Request::Query { budget_policy, .. } = Request::parse(&line).unwrap() else {
                panic!("not a query")
            };
            assert_eq!(budget_policy, Some(expect), "{policy}");
        }
        for line in [
            r#"{"session": "s", "kind": "mis", "n": 100, "budget_policy": "p0", "query": 1}"#,
            r#"{"session": "s", "kind": "mis", "n": 100, "budget_policy": "banana", "query": 1}"#,
            r#"{"session": "s", "kind": "mis", "n": 100, "budget_policy": 99, "query": 1}"#,
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
            assert!(err.message.contains("budget_policy"), "{line}");
        }
    }

    #[test]
    fn spec_is_optional_after_first_use() {
        let req = Request::parse(r#"{"session": "s", "query": 1}"#).unwrap();
        let Request::Query { spec, .. } = req else {
            panic!("not a query")
        };
        assert_eq!(spec, None);
    }

    #[test]
    fn stray_spec_fields_without_kind_and_n_are_rejected() {
        // A typo'd spec must not silently fall back to the pinned instance.
        for line in [
            r#"{"session": "s", "seed": 9, "query": 1}"#,
            r#"{"session": "s", "family": "gnp", "query": 1}"#,
            r#"{"session": "s", "knob": 3.5, "query": 1}"#,
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
        }
    }

    #[test]
    fn ops_parse() {
        assert_eq!(
            Request::parse(r#"{"op": "stats"}"#).unwrap(),
            Request::Stats
        );
        assert_eq!(
            Request::parse(r#"{"op": "sessions"}"#).unwrap(),
            Request::Sessions
        );
        assert_eq!(Request::parse(r#"{"op": "ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            Request::parse(r#"{"op": "shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn malformed_requests_carry_codes_and_ids() {
        let cases = [
            ("not json", ErrorCode::BadRequest),
            (r#"{"op": "frobnicate"}"#, ErrorCode::BadRequest),
            (
                r#"{"op": "hello", "frame": "binary"}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"session": "s", "kind": "mis", "query": 1}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"session": "s", "kind": "nope", "n": 10, "query": 1}"#,
                ErrorCode::UnknownSpec,
            ),
            (
                r#"{"session": "s", "kind": "mis", "n": 10, "family": "petersen", "query": 1}"#,
                ErrorCode::UnknownSpec,
            ),
            (
                r#"{"session": "s", "kind": "mis", "n": 10}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"session": "s", "kind": "mis", "n": 10, "query": [1, 2, 3]}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"session": "s", "kind": "mis", "n": 10, "queries": []}"#,
                ErrorCode::BadRequest,
            ),
        ];
        for (line, code) in cases {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code, code, "{line}");
        }
        let err = Request::parse(r#"{"id": 5, "op": "frobnicate"}"#).unwrap_err();
        assert_eq!(err.id, Some(5));
        assert!(err.response().render().contains("\"id\":5"));
    }

    #[test]
    fn specs_no_family_can_build_are_bad_requests_that_echo_the_id() {
        for (family, n, knob) in [
            ("chung-lu", "1000", "0"),
            ("torus", "4", "1"),
            ("hypercube", "1", "1"),
            ("gnp", "1000", "-1"),
            ("gnp", "1000", "1e9"),
            ("regular", "1000", "1e9"),
            ("gnp", "0", "4"),
            ("grid", "8589934592", "1"),
        ] {
            let line = format!(
                r#"{{"id": 7, "session": "a", "kind": "mis", "n": {n}, "family": "{family}", "knob": {knob}, "query": 1}}"#
            );
            let err = Request::parse(&line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
            assert_eq!(err.id, Some(7), "{line}");
            assert!(
                err.message.contains("`n`") || err.message.contains("`knob`"),
                "{line}: {err:?}"
            );
        }
        // The lattices ignore their knob, so any finite one is served.
        for family in ["grid", "torus", "hypercube"] {
            let line = format!(
                r#"{{"session": "a", "kind": "mis", "n": 1000, "family": "{family}", "knob": -5, "query": 1}}"#
            );
            assert!(Request::parse(&line).is_ok(), "{line}");
        }
    }

    #[test]
    fn ill_typed_fields_are_named_bad_requests_not_defaults() {
        // Each value is present but unreadable as its field's type, so it
        // must fail by name rather than be served as if absent.
        let spec = r#""session": "s", "kind": "mis", "n": 100, "query": 1"#;
        for (name, value) in [
            ("seed", r#""7""#),
            ("seed", "18446744073709551615"),
            ("seed", "-1"),
            ("seed", "1.5"),
            ("max_probes", r#""1""#),
            ("max_probes", "null"),
            ("deadline_ms", "true"),
            ("deadline_ms", "1e16"),
            ("knob", r#""3""#),
            ("knob", "1e400"),
            ("knob", "-1e400"),
            ("id", r#""9""#),
            ("id", "[9]"),
            ("family", "3"),
            ("op", "7"),
        ] {
            let line = format!(r#"{{{spec}, "{name}": {value}}}"#);
            let err = Request::parse(&line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
            assert!(
                err.message.contains(&format!("`{name}`")),
                "{line}: {err:?}"
            );
        }
        // A bad field after a good `id` still echoes it.
        let err = Request::parse(&format!(r#"{{{spec}, "id": 4, "seed": "7"}}"#)).unwrap_err();
        assert_eq!(err.id, Some(4));
        // The edges of the accepted ranges still parse.
        let line = format!(r#"{{{spec}, "seed": 9e15, "knob": -0, "max_probes": 0}}"#);
        let Request::Query {
            spec, max_probes, ..
        } = Request::parse(&line).unwrap()
        else {
            panic!("not a query")
        };
        let spec = spec.unwrap();
        assert_eq!(spec.seed, 9_000_000_000_000_000);
        assert_eq!(spec.knob, Some(0.0));
        assert_eq!(max_probes, Some(0));
    }

    #[test]
    fn stats_response_round_trips_through_the_wire_format() {
        use crate::metrics::{GlobalMetrics, GlobalSnapshot, SessionMetrics, SessionSnapshot};
        use std::sync::atomic::Ordering;

        // Build a stats response exactly the way the server does, render it
        // to one wire line, parse that line back, and check every new
        // field survives the round trip with its value intact.
        let global = GlobalMetrics::default();
        global.requests.store(42, Ordering::Relaxed);
        global.reactor.connections.store(1200, Ordering::Relaxed);
        global
            .reactor
            .connections_open
            .store(1024, Ordering::Relaxed);
        global.reactor.reactor_wakeups.store(77, Ordering::Relaxed);
        global
            .reactor
            .completions_delivered
            .store(308, Ordering::Relaxed);
        global.reactor.write_syscalls.store(50, Ordering::Relaxed);
        global.reactor.responses.store(40, Ordering::Relaxed);
        global.reactor.bytes_written.store(9001, Ordering::Relaxed);
        let snap = GlobalSnapshot {
            backend_id: "b0".into(),
            queue_len: 3,
            draining: false,
            sessions: 2,
            registry_shards: 4,
            registry_shard_hits: vec![5, 0, 9, 1],
            cache_hits_total: 30,
            cache_misses_total: 10,
            list_store_bytes: 4096,
        };
        let session = SessionMetrics::default();
        session.record(10, 4, 250, 99);
        session.record_store(30, 10);
        let response = Response::Stats(Json::Obj(vec![
            ("stats".into(), global.render(&snap)),
            (
                "sessions".into(),
                Json::Obj(vec![(
                    "s".into(),
                    session.render(&SessionSnapshot { uptime_s: 1.0 }),
                )]),
            ),
        ]));
        let line = response.render();
        let parsed = serde_json::from_str(&line).expect("stats line parses");
        let g = parsed.get("stats").expect("global object");
        // The fleet-tagging fields: protocol version, operator-assigned
        // backend identity, and millisecond-precision uptime.
        assert_eq!(
            g.get("version").and_then(Json::as_u64),
            Some(PROTOCOL_VERSION)
        );
        assert_eq!(g.get("backend_id").and_then(Json::as_str), Some("b0"));
        assert!(
            g.get("uptime_ms").and_then(Json::as_u64).is_some(),
            "uptime_ms present and integral"
        );
        assert_eq!(g.get("requests").and_then(Json::as_u64), Some(42));
        assert_eq!(g.get("connections").and_then(Json::as_u64), Some(1200));
        assert_eq!(g.get("connections_open").and_then(Json::as_u64), Some(1024));
        assert_eq!(g.get("reactor_wakeups").and_then(Json::as_u64), Some(77));
        // The syscall-budget fields: raw counters plus the two derived
        // ratios the bench trajectory gates on.
        assert_eq!(
            g.get("completions_delivered").and_then(Json::as_u64),
            Some(308)
        );
        assert_eq!(g.get("write_syscalls").and_then(Json::as_u64), Some(50));
        assert_eq!(g.get("responses").and_then(Json::as_u64), Some(40));
        assert_eq!(g.get("bytes_written").and_then(Json::as_u64), Some(9001));
        assert_eq!(
            g.get("completions_per_wake").and_then(Json::as_f64),
            Some(4.0)
        );
        assert_eq!(
            g.get("syscalls_per_response").and_then(Json::as_f64),
            Some(1.25)
        );
        assert_eq!(g.get("queue_len").and_then(Json::as_u64), Some(3));
        assert_eq!(g.get("sessions").and_then(Json::as_u64), Some(2));
        assert_eq!(g.get("registry_shards").and_then(Json::as_u64), Some(4));
        let hits = g
            .get("registry_shard_hits")
            .and_then(Json::as_array)
            .expect("shard hit array");
        let hits: Vec<u64> = hits.iter().map(|h| h.as_u64().unwrap()).collect();
        assert_eq!(hits, vec![5, 0, 9, 1]);
        assert_eq!(g.get("cache_hits_total").and_then(Json::as_u64), Some(30));
        assert_eq!(g.get("cache_misses_total").and_then(Json::as_u64), Some(10));
        assert_eq!(g.get("list_store_bytes").and_then(Json::as_u64), Some(4096));
        assert_eq!(
            g.get("cache_hit_rate_total").and_then(Json::as_f64),
            Some(0.75)
        );
        assert_eq!(g.get("draining").and_then(Json::as_bool), Some(false));
        let s = parsed.get("sessions").and_then(|s| s.get("s")).expect("s");
        assert_eq!(s.get("queries").and_then(Json::as_u64), Some(10));
        assert_eq!(s.get("cache_hits").and_then(Json::as_u64), Some(30));
        assert_eq!(s.get("cache_misses").and_then(Json::as_u64), Some(10));
        assert_eq!(s.get("cache_hit_rate").and_then(Json::as_f64), Some(0.75));
    }

    #[test]
    fn empty_global_snapshot_renders_zero_rollups() {
        use crate::metrics::{GlobalMetrics, GlobalSnapshot};
        let json = GlobalMetrics::default().render(&GlobalSnapshot {
            backend_id: String::new(),
            queue_len: 0,
            draining: true,
            sessions: 0,
            registry_shards: 16,
            registry_shard_hits: vec![0; 16],
            cache_hits_total: 0,
            cache_misses_total: 0,
            list_store_bytes: 0,
        });
        let mut line = String::new();
        json.render(&mut line);
        let parsed = serde_json::from_str(&line).expect("parses");
        // No traffic: the hit rate must render 0, not NaN/null.
        assert_eq!(
            parsed.get("cache_hit_rate_total").and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(parsed.get("draining").and_then(Json::as_bool), Some(true));
        assert_eq!(
            parsed.get("connections_open").and_then(Json::as_u64),
            Some(0)
        );
        // The derived ratios must also render 0 (not NaN/null) pre-traffic.
        assert_eq!(
            parsed.get("completions_per_wake").and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            parsed.get("syscalls_per_response").and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn responses_render_the_documented_shapes() {
        let r = Response::Answer {
            id: Some(3),
            session: "s".into(),
            answer: true,
            probes: 12,
            micros: 87,
        };
        assert_eq!(
            r.render(),
            r#"{"id":3,"session":"s","answer":true,"probes":12,"micros":87}"#
        );
        let r = Response::overloaded(None);
        assert!(r.render().starts_with(r#"{"error":"overloaded""#));
        let r = Response::Ok { draining: true };
        assert_eq!(r.render(), r#"{"ok":true,"draining":true}"#);
        let r = Response::Answers {
            id: None,
            session: "s".into(),
            answers: vec![true, false],
            probes: 4,
            micros: 9,
        };
        assert_eq!(
            r.render(),
            r#"{"session":"s","answers":[true,false],"probes":4,"micros":9}"#
        );
    }
}
