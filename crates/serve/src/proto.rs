//! The newline-JSON wire protocol.
//!
//! One request per line, one response line per request — the full field
//! reference with `nc` examples lives in `docs/PROTOCOL.md`. This module
//! owns parsing ([`Request::parse`]) and rendering ([`Response`]); it knows
//! nothing about sockets or sessions.

#![warn(clippy::unwrap_used)]
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
        queries: Vec<QueryPayload>,
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
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownSpec => "unknown-spec",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::SessionMismatch => "session-mismatch",
            ErrorCode::BadQuery => "bad-query",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Draining => "draining",
            ErrorCode::Internal => "internal",
            ErrorCode::BudgetExhausted => "budget-exhausted",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
        }
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

impl Response {
    /// Renders the response as one compact JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let json = match self {
            Response::Answer {
                id,
                session,
                answer,
                probes,
                micros,
            } => {
                let mut fields = Vec::new();
                if let Some(id) = id {
                    fields.push(("id".to_owned(), Json::Num(*id as f64)));
                }
                fields.push(("session".to_owned(), Json::Str(session.clone())));
                fields.push(("answer".to_owned(), Json::Bool(*answer)));
                fields.push(("probes".to_owned(), Json::Num(*probes as f64)));
                fields.push(("micros".to_owned(), Json::Num(*micros as f64)));
                Json::Obj(fields)
            }
            Response::Answers {
                id,
                session,
                answers,
                probes,
                micros,
            } => {
                let mut fields = Vec::new();
                if let Some(id) = id {
                    fields.push(("id".to_owned(), Json::Num(*id as f64)));
                }
                fields.push(("session".to_owned(), Json::Str(session.clone())));
                fields.push((
                    "answers".to_owned(),
                    Json::Arr(answers.iter().map(|a| Json::Bool(*a)).collect()),
                ));
                fields.push(("probes".to_owned(), Json::Num(*probes as f64)));
                fields.push(("micros".to_owned(), Json::Num(*micros as f64)));
                Json::Obj(fields)
            }
            Response::Error { id, code, message } => {
                let mut fields = Vec::new();
                if let Some(id) = id {
                    fields.push(("id".to_owned(), Json::Num(*id as f64)));
                }
                fields.push(("error".to_owned(), Json::Str(code.as_str().to_owned())));
                fields.push(("message".to_owned(), Json::Str(message.clone())));
                Json::Obj(fields)
            }
            Response::Ok { draining } => Json::Obj(vec![
                ("ok".to_owned(), Json::Bool(true)),
                ("draining".to_owned(), Json::Bool(*draining)),
            ]),
            Response::Stats(json) => json.clone(),
        };
        let mut out = String::new();
        json.render(&mut out);
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
}

/// What [`Json::as_u64`] accepts: the integers the JSON reader's `f64`
/// numbers hold exactly.
const U64: &str = "a non-negative integer no larger than 9e15";
const STRING: &str = "a string";

/// Reads the optional `name` field through `read`: absent is `None`, but a
/// present value `read` rejects is `bad-request` naming the field — never
/// a silent fall back to the default.
fn field<'a, T>(
    v: &'a Json,
    name: &str,
    id: Option<u64>,
    expected: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, ParseError> {
    match v.get(name) {
        None => Ok(None),
        Some(x) => read(x).map(Some).ok_or_else(|| {
            ParseError::new(
                id,
                ErrorCode::BadRequest,
                format!("`{name}` must be {expected}"),
            )
        }),
    }
}

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
        Response::Error {
            id: self.id,
            code: self.code,
            message: self.message.clone(),
        }
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
    pub fn parse(line: &str) -> Result<Request, ParseError> {
        let v = serde_json::from_str(line)
            .map_err(|e| ParseError::new(None, ErrorCode::BadRequest, e.to_string()))?;
        // An unreadable `id` cannot be echoed, so its error carries none.
        let id = field(&v, "id", None, U64, Json::as_u64)?;
        let op = field(&v, "op", id, STRING, Json::as_str)?.unwrap_or("query");
        match op {
            "stats" => Ok(Request::Stats),
            "sessions" => Ok(Request::Sessions),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "query" => Self::parse_query(&v, id),
            other => Err(ParseError::new(
                id,
                ErrorCode::BadRequest,
                format!("unknown op {other:?}"),
            )),
        }
    }

    fn parse_query(v: &Json, id: Option<u64>) -> Result<Request, ParseError> {
        let session = v
            .get("session")
            .and_then(Json::as_str)
            .ok_or_else(|| {
                ParseError::new(id, ErrorCode::BadRequest, "missing string field `session`")
            })?
            .to_owned();

        let spec = Self::parse_spec(v, id)?;

        let mut queries = Vec::new();
        match (v.get("query"), v.get("queries")) {
            (Some(q), None) => queries.push(Self::parse_payload(q, id)?),
            (None, Some(qs)) => {
                let items = qs.as_array().ok_or_else(|| {
                    ParseError::new(id, ErrorCode::BadRequest, "`queries` must be an array")
                })?;
                if items.is_empty() {
                    return Err(ParseError::new(
                        id,
                        ErrorCode::BadRequest,
                        "`queries` must not be empty",
                    ));
                }
                for q in items {
                    queries.push(Self::parse_payload(q, id)?);
                }
            }
            (Some(_), Some(_)) => {
                return Err(ParseError::new(
                    id,
                    ErrorCode::BadRequest,
                    "send `query` or `queries`, not both",
                ))
            }
            (None, None) => {
                return Err(ParseError::new(
                    id,
                    ErrorCode::BadRequest,
                    "missing `query` (vertex id or [u, v]) or `queries`",
                ))
            }
        }
        let max_probes = field(v, "max_probes", id, U64, Json::as_u64)?;
        let deadline_ms = field(v, "deadline_ms", id, U64, Json::as_u64)?;
        let budget_policy = match field(v, "budget_policy", id, STRING, Json::as_str)? {
            None => None,
            Some(s) => Some(BudgetPolicy::parse(s).ok_or_else(|| {
                ParseError::new(
                    id,
                    ErrorCode::BadRequest,
                    format!("unknown budget_policy {s:?} (use off, adaptive, or pNN like p95)"),
                )
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

    /// Parses the spec fields if any are present; `kind` + `n` make a spec,
    /// anything partial (including a stray `family`/`seed`/`knob` without
    /// them) is an error — a typo would otherwise silently fall back to the
    /// pinned instance.
    fn parse_spec(v: &Json, id: Option<u64>) -> Result<Option<SessionSpec>, ParseError> {
        let kind = field(v, "kind", id, STRING, Json::as_str)?;
        let n = field(v, "n", id, U64, Json::as_u64)?;
        let (kind, n) = match (kind, n) {
            (Some(kind), Some(n)) => (kind, n),
            (None, None) => {
                if let Some(stray) = ["family", "seed", "knob"]
                    .iter()
                    .find(|k| v.get(k).is_some())
                {
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
        let kind = AlgorithmKind::parse(kind).ok_or_else(|| {
            ParseError::new(id, ErrorCode::UnknownSpec, format!("unknown kind {kind:?}"))
        })?;
        let family = match field(v, "family", id, STRING, Json::as_str)? {
            None => ImplicitFamily::Gnp,
            Some(name) => ImplicitFamily::parse(name).ok_or_else(|| {
                ParseError::new(
                    id,
                    ErrorCode::UnknownSpec,
                    format!("unknown family {name:?}"),
                )
            })?,
        };
        let seed = field(v, "seed", id, U64, Json::as_u64)?.unwrap_or(0);
        let knob = field(v, "knob", id, "a finite number", |x| {
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

    fn parse_payload(q: &Json, id: Option<u64>) -> Result<QueryPayload, ParseError> {
        if let Some(v) = q.as_u64() {
            return Ok(QueryPayload::Vertex(v));
        }
        if let Some([a, b]) = q.as_array() {
            if let (Some(u), Some(w)) = (a.as_u64(), b.as_u64()) {
                return Ok(QueryPayload::Edge(u, w));
            }
        }
        Err(ParseError::new(
            id,
            ErrorCode::BadRequest,
            "`query` must be a vertex id or a two-element [u, v] array",
        ))
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
