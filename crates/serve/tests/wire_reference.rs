//! Differential tests for the wire path: the one-pass request reader and
//! the direct response writer against the JSON-tree reader and renderer
//! they replaced, kept here, and only here, as references.
//!
//! The reader must give the same [`Request`], or the same [`ParseError`]
//! (code, `id` echo and message, syntax positions included), for every
//! line of a corpus of valid requests, every strict prefix of those lines,
//! and seeded byte flips of them. The writer must give the reference
//! render's bytes for every [`Response`] variant, with and without `id`,
//! at the edges of the numbers and with every character a string escapes.
//! The request writer must write a line both readers read back as the
//! request it wrote, for every request the corpus parses to and every
//! query shape at the edges of its fields.

use lca::prelude::{AlgorithmKind, ImplicitFamily};
use lca_serve::budget::BudgetPolicy;
use lca_serve::proto::{
    ErrorCode, ParseError, Queries, QueryPayload, Request, Response, SessionSpec,
};
use serde::Json;

// ---------------------------------------------------------------------------
// The reference reader: parse the line into a `Json` tree, then pick the
// fields out of it.

const U64: &str = "a non-negative integer no larger than 9e15";
const STRING: &str = "a string";

fn error(id: Option<u64>, code: ErrorCode, message: impl Into<String>) -> ParseError {
    ParseError {
        id,
        code,
        message: message.into(),
    }
}

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
            error(
                id,
                ErrorCode::BadRequest,
                format!("`{name}` must be {expected}"),
            )
        }),
    }
}

fn reference_parse(line: &str) -> Result<Request, ParseError> {
    let v = serde_json::from_str(line)
        .map_err(|e| error(None, ErrorCode::BadRequest, e.to_string()))?;
    let id = field(&v, "id", None, U64, Json::as_u64)?;
    let op = field(&v, "op", id, STRING, Json::as_str)?.unwrap_or("query");
    match op {
        "stats" => Ok(Request::Stats),
        "sessions" => Ok(Request::Sessions),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "query" => reference_query(&v, id),
        other => Err(error(
            id,
            ErrorCode::BadRequest,
            format!("unknown op {other:?}"),
        )),
    }
}

fn reference_query(v: &Json, id: Option<u64>) -> Result<Request, ParseError> {
    let session = v
        .get("session")
        .and_then(Json::as_str)
        .ok_or_else(|| error(id, ErrorCode::BadRequest, "missing string field `session`"))?
        .to_owned();
    let spec = reference_spec(v, id)?;
    let mut queries = Vec::new();
    match (v.get("query"), v.get("queries")) {
        (Some(q), None) => queries.push(reference_payload(q, id)?),
        (None, Some(qs)) => {
            let items = qs
                .as_array()
                .ok_or_else(|| error(id, ErrorCode::BadRequest, "`queries` must be an array"))?;
            if items.is_empty() {
                return Err(error(
                    id,
                    ErrorCode::BadRequest,
                    "`queries` must not be empty",
                ));
            }
            for q in items {
                queries.push(reference_payload(q, id)?);
            }
        }
        (Some(_), Some(_)) => {
            return Err(error(
                id,
                ErrorCode::BadRequest,
                "send `query` or `queries`, not both",
            ))
        }
        (None, None) => {
            return Err(error(
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
            error(
                id,
                ErrorCode::BadRequest,
                format!("unknown budget_policy {s:?} (use off, adaptive, or pNN like p95)"),
            )
        })?),
    };
    Ok(Request::Query {
        session,
        spec,
        queries: queries.into(),
        id,
        max_probes,
        deadline_ms,
        budget_policy,
    })
}

fn reference_spec(v: &Json, id: Option<u64>) -> Result<Option<SessionSpec>, ParseError> {
    let kind = field(v, "kind", id, STRING, Json::as_str)?;
    let n = field(v, "n", id, U64, Json::as_u64)?;
    let (kind, n) = match (kind, n) {
        (Some(kind), Some(n)) => (kind, n),
        (None, None) => {
            if let Some(stray) = ["family", "seed", "knob"]
                .iter()
                .find(|k| v.get(k).is_some())
            {
                return Err(error(
                    id,
                    ErrorCode::BadRequest,
                    format!("`{stray}` without `kind` and `n` — send the full spec or none"),
                ));
            }
            return Ok(None);
        }
        _ => {
            return Err(error(
                id,
                ErrorCode::BadRequest,
                "a session spec needs both `kind` and `n`",
            ))
        }
    };
    let kind = AlgorithmKind::parse(kind)
        .ok_or_else(|| error(id, ErrorCode::UnknownSpec, format!("unknown kind {kind:?}")))?;
    let family = match field(v, "family", id, STRING, Json::as_str)? {
        None => ImplicitFamily::Gnp,
        Some(name) => ImplicitFamily::parse(name).ok_or_else(|| {
            error(
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
    family
        .check(n, knob)
        .map_err(|message| error(id, ErrorCode::BadRequest, message))?;
    Ok(Some(SessionSpec {
        kind,
        family,
        n,
        seed,
        knob,
    }))
}

fn reference_payload(q: &Json, id: Option<u64>) -> Result<QueryPayload, ParseError> {
    if let Some(v) = q.as_u64() {
        return Ok(QueryPayload::Vertex(v));
    }
    if let Some([a, b]) = q.as_array() {
        if let (Some(u), Some(w)) = (a.as_u64(), b.as_u64()) {
            return Ok(QueryPayload::Edge(u, w));
        }
    }
    Err(error(
        id,
        ErrorCode::BadRequest,
        "`query` must be a vertex id or a two-element [u, v] array",
    ))
}

// ---------------------------------------------------------------------------
// The reference writer: build the response's `Json` tree and render it.

fn reference_render(response: &Response) -> String {
    let num = |x: u64| Json::Num(x as f64);
    let with_id = |id: &Option<u64>| -> Vec<(String, Json)> {
        id.iter().map(|&id| ("id".to_owned(), num(id))).collect()
    };
    let json = match response {
        Response::Answer {
            id,
            session,
            answer,
            probes,
            micros,
        } => {
            let mut fields = with_id(id);
            fields.push(("session".to_owned(), Json::Str(session.clone())));
            fields.push(("answer".to_owned(), Json::Bool(*answer)));
            fields.push(("probes".to_owned(), num(*probes)));
            fields.push(("micros".to_owned(), num(*micros)));
            Json::Obj(fields)
        }
        Response::Answers {
            id,
            session,
            answers,
            probes,
            micros,
        } => {
            let mut fields = with_id(id);
            fields.push(("session".to_owned(), Json::Str(session.clone())));
            fields.push((
                "answers".to_owned(),
                Json::Arr(answers.iter().map(|a| Json::Bool(*a)).collect()),
            ));
            fields.push(("probes".to_owned(), num(*probes)));
            fields.push(("micros".to_owned(), num(*micros)));
            Json::Obj(fields)
        }
        Response::Error { id, code, message } => {
            let mut fields = with_id(id);
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

// ---------------------------------------------------------------------------
// The corpus.

/// `framing_torture.rs`'s samples: one valid line of every request shape.
const TORTURE_SAMPLES: &[&str] = &[
    r#"{"session":"s","kind":"mis","n":1000000,"seed":7,"query":42}"#,
    r#"{"id":9,"session":"sp","kind":"spanner3","family":"regular","n":4096,"knob":6,"queries":[[1,2],[3,4]]}"#,
    r#"{"id":3,"session":"b","kind":"k2","family":"chung-lu","n":5000,"seed":1,"knob":2.5,"max_probes":64,"deadline_ms":250,"budget_policy":"p95","query":[7,8]}"#,
    r#"{"session":"warm","queries":[1,2,3],"budget_policy":"off"}"#,
    r#"{ "session" : "esc\"aped\\ é αβγ" , "query" : 0 }"#,
    r#"{"op":"stats"}"#,
    r#"{"id":12,"op":"sessions"}"#,
    r#"{"op":"ping","id":0}"#,
    r#"{"op":"shutdown"}"#,
];

/// Lines aimed at the reader's corners: escaped keys and values, duplicate
/// keys, skipped nested values, every scalar type in every field, numbers
/// at the edges of exactness, and top-level values that are not objects.
const EDGE_LINES: &[&str] = &[
    r#"{"\u0069d":5,"\u0073ession":"\u00e9\n\t\/\b\f\r","que\u0072y":1}"#,
    r#"{"session":"s","query":1,"session":"t","query":2}"#,
    r#"{"session":7,"session":"s","query":1}"#,
    r#"{"id":"x","id":5,"op":"ping"}"#,
    r#"{"id":5,"id":"x","op":"ping"}"#,
    r#"{"session":"s","query":null}"#,
    r#"{"session":"s","query":[1]}"#,
    r#"{"session":"s","query":[1,2,3]}"#,
    r#"{"session":"s","query":[1,"2"]}"#,
    r#"{"session":"s","query":[[1],2]}"#,
    r#"{"session":"s","query":{"u":1}}"#,
    r#"{"session":"s","query":1.5}"#,
    r#"{"session":"s","queries":[5]}"#,
    r#"{"session":"s","queries":[5,[1,2],"x",7]}"#,
    r#"{"session":"s","queries":{}}"#,
    r#"{"session":"s","queries":[]}"#,
    r#"{"session":"s","query":1,"queries":[1]}"#,
    r#"{"session":"s"}"#,
    r#"{"query":1}"#,
    r#"{"session":"s","query":1,"extra":{"a":[1,{"b":null}],"c":true,"d":false}}"#,
    r#"{"session":"s","query":-0,"seed":-0,"kind":"mis","n":100}"#,
    r#"{"session":"s","query":9000000000000000}"#,
    r#"{"session":"s","query":9000000000000001}"#,
    r#"{"session":"s","query":9007199254740993}"#,
    r#"{"session":"s","query":1e400}"#,
    r#"{"session":"s","query":1E2,"max_probes":1e+2,"deadline_ms":100.0}"#,
    r#"{"session":"s","query":007}"#,
    r#"{"session":"s","query":1.}"#,
    r#"{"session":"s","query":-.5}"#,
    r#"{"session":"s","query":1-2}"#,
    r#"{"session":"s","query":--3}"#,
    r#"{"session":"s","query":1,"knob":-1e400,"kind":"mis","n":10}"#,
    r#"{"session":"s","query":1,"knob":"3","kind":"mis","n":10}"#,
    r#"{"session":"s","query":1,"kind":"mis"}"#,
    r#"{"session":"s","query":1,"n":10}"#,
    r#"{"session":"s","query":1,"family":"gnp"}"#,
    r#"{"session":"s","query":1,"knob":1,"seed":2}"#,
    r#"{"session":"s","query":1,"kind":"nope","n":10}"#,
    r#"{"session":"s","query":1,"kind":"mis","n":10,"family":"petersen"}"#,
    r#"{"session":"s","query":1,"kind":"mis","n":0}"#,
    r#"{"session":"s","query":1,"kind":"mis","n":8589934592,"family":"grid"}"#,
    r#"{"session":"s","query":1,"kind":"k\u0032","n":1000,"family":"GNP"}"#,
    r#"{"session":"s","query":1,"budget_policy":"p\u0039\u0035"}"#,
    r#"{"session":"s","query":1,"budget_policy":"p0"}"#,
    r#"{"session":"s","query":1,"budget_policy":"banana\""}"#,
    r#"{"op":"frobnicate\u0000","id":4}"#,
    r#"{"op":7}"#,
    r#"{"op":"query","session":"s","query":1}"#,
    r#"{"session":"\ud800\udc00","query":1}"#,
    r#"{"session":"\u+041","query":1}"#,
    r#"{"session":"\u-041","query":1}"#,
    r#"{"session":"\u12","query":1}"#,
    r#"{"session":"\x","query":1}"#,
    r#"{"session":"s","query":1}  "#,
    r#"{"session":"s","query":1} x"#,
    r#"{"session":"s","query":1,}"#,
    r#"{"session":"s","query":1 "id":2}"#,
    r#"{"session" "s"}"#,
    r#"{,}"#,
    r#"{}"#,
    r#"[]"#,
    r#"[1,2"#,
    r#"[1,]"#,
    r#""just a string""#,
    r#"42"#,
    r#"true"#,
    r#"tru"#,
    r#"nul"#,
    r#"null"#,
    r#"fals"#,
    "",
    " ",
    "{\"session\":\"tab\there\",\"query\":1}",
    "{\"session\":\"nl\nhere\",\"query\":1}",
    "{\t\"session\"\r:\n\"s\" , \"query\":1}",
];

/// The reference reader's nesting ceiling, from both sides, in skipped
/// values, in `query` and in `queries`, and past it by a long way.
fn nesting_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for depth in [63, 64, 65, 66, 200] {
        let open = "[".repeat(depth);
        let close = "]".repeat(depth);
        lines.push(format!(
            r#"{{"session":"s","query":1,"deep":{open}{close}}}"#
        ));
        lines.push(format!(
            r#"{{"session":"s","query":1,"deep":{open}7{close}}}"#
        ));
        lines.push(format!(r#"{{"session":"s","query":{open}{close}}}"#));
        lines.push(format!(r#"{{"session":"s","queries":{open}{close}}}"#));
        lines.push(format!(
            r#"{{"session":"s","query":1,"deep":{}{}}}"#,
            r#"{"a":"#.repeat(depth),
            "}".repeat(depth)
        ));
        lines.push(format!("{open}{close}"));
    }
    lines
}

/// The standard SplitMix64 stream, as in `framing_torture.rs`.
struct SplitMix64(u64);

impl SplitMix64 {
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

/// Both readers on `line`: the whole outcome must match, message included.
fn same_outcome(line: &str) -> bool {
    let (fast, reference) = (Request::parse(line), reference_parse(line));
    assert_eq!(fast, reference, "readers differ on {line:?}");
    fast.is_ok()
}

#[test]
fn every_corpus_line_parses_as_the_tree_reader_parses_it() {
    let nesting = nesting_lines();
    let lines = TORTURE_SAMPLES
        .iter()
        .chain(EDGE_LINES)
        .copied()
        .chain(nesting.iter().map(String::as_str));
    let mut outcomes = [0usize; 2];
    for line in lines {
        outcomes[usize::from(same_outcome(line))] += 1;
    }
    assert!(outcomes[0] > 20 && outcomes[1] > 20, "{outcomes:?}");
}

#[test]
fn every_strict_prefix_fails_as_the_tree_reader_fails() {
    for line in TORTURE_SAMPLES.iter().chain(EDGE_LINES) {
        for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            same_outcome(&line[..cut]);
        }
    }
}

#[test]
fn seeded_byte_flips_parse_as_the_tree_reader_parses_them() {
    // Flip 1–3 random bytes of a random sample, 20 000 times; a flip that
    // breaks UTF-8 is read lossily, as in `framing_torture.rs`.
    let samples: Vec<&str> = TORTURE_SAMPLES.iter().chain(EDGE_LINES).copied().collect();
    let mut outcomes = [0usize; 2];
    for seed in 0..20_000u64 {
        let mut rng = SplitMix64(0xD1FF_F11B ^ (seed << 16));
        let mut bytes = samples[rng.below(samples.len())].as_bytes().to_vec();
        if bytes.is_empty() {
            continue;
        }
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(bytes.len());
            bytes[at] ^= 1 + rng.below(255) as u8;
        }
        let line = String::from_utf8_lossy(&bytes);
        outcomes[usize::from(same_outcome(&line))] += 1;
    }
    assert!(outcomes[0] > 1000 && outcomes[1] > 200, "{outcomes:?}");
}

// ---------------------------------------------------------------------------
// The writer.

/// Strings that exercise every escape: `"`, `\`, each control character
/// U+0001–U+001F (named and `\u00xx` ones), DEL and multi-byte text.
fn hostile_strings() -> Vec<String> {
    let controls: String = (1u8..0x20).map(char::from).collect();
    vec![
        String::new(),
        "s".to_owned(),
        "quote\"back\\slash".to_owned(),
        controls.clone(),
        format!("mixed {controls} é αβγ 🦀 \u{7f} end"),
        "é αβγ 🦀".to_owned(),
        "\\\\\"\"".to_owned(),
    ]
}

#[test]
fn every_response_writes_the_reference_bytes() {
    let nine_e15 = 9_000_000_000_000_000;
    let two53 = 1u64 << 53;
    let ids = [
        None,
        Some(0),
        Some(7),
        Some(nine_e15),
        Some(nine_e15 + 1),
        Some(u64::MAX),
    ];
    let costs = [(0, 0), (12, 87), (two53, two53), (u64::MAX, nine_e15)];
    let mut responses = vec![
        Response::Ok { draining: false },
        Response::Ok { draining: true },
        Response::overloaded(None),
        Response::overloaded(Some(3)),
        Response::Stats(Json::Obj(vec![(
            "stats".to_owned(),
            Json::Obj(vec![("\"k\"".to_owned(), Json::Num(1.5))]),
        )])),
    ];
    for (i, text) in hostile_strings().into_iter().enumerate() {
        for (j, &id) in ids.iter().enumerate() {
            let (probes, micros) = costs[(i + j) % costs.len()];
            responses.push(Response::Answer {
                id,
                session: text.clone(),
                answer: (i + j) % 2 == 0,
                probes,
                micros,
            });
            responses.push(Response::Answers {
                id,
                session: text.clone(),
                answers: (0..(i + j) % 4).map(|k| k % 3 == 0).collect(),
                probes,
                micros,
            });
            for code in [
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
            ] {
                responses.push(Response::Error {
                    id,
                    code,
                    message: text.clone(),
                });
            }
        }
    }
    for response in &responses {
        let written = response.render();
        assert_eq!(written, reference_render(response), "{response:?}");
        let mut appended = String::from("prefix");
        response.write(&mut appended);
        assert_eq!(appended, format!("prefix{written}"));
    }
    // The documented shapes, spelled out once.
    let answer = Response::Answer {
        id: Some(nine_e15),
        session: "s".to_owned(),
        answer: true,
        probes: 0,
        micros: two53,
    };
    assert_eq!(
        answer.render(),
        r#"{"id":9000000000000000,"session":"s","answer":true,"probes":0,"micros":9007199254740992}"#
    );
}

// ---------------------------------------------------------------------------
// The request writer.

/// `request` written after a prefix, which the writer must keep.
fn written(request: &Request) -> String {
    let mut out = String::from("prefix");
    request.write(&mut out);
    out.split_off("prefix".len())
}

/// Query requests of every shape: vertex and edge queries, single and
/// batched; ids and vertices at 0 and 9e15; every kind over every family,
/// with fractional knobs; every `budget_policy` form; hostile session names.
fn query_requests() -> Vec<Request> {
    let nine_e15 = 9_000_000_000_000_000;
    let shapes = [
        Queries::One(QueryPayload::Vertex(0)),
        Queries::One(QueryPayload::Vertex(nine_e15)),
        Queries::One(QueryPayload::Edge(3, 17)),
        Queries::Batch(vec![QueryPayload::Vertex(1), QueryPayload::Vertex(2)]),
        Queries::Batch(vec![
            QueryPayload::Edge(0, 1),
            QueryPayload::Edge(nine_e15, 5),
            QueryPayload::Edge(7, 7),
        ]),
        Queries::Batch(vec![QueryPayload::Vertex(4)]),
    ];
    let policies = [
        None,
        Some(BudgetPolicy::Off),
        Some(BudgetPolicy::Adaptive(None)),
        Some(BudgetPolicy::Adaptive(Some(95.0))),
        Some(BudgetPolicy::Adaptive(Some(99.5))),
        Some(BudgetPolicy::Adaptive(Some(0.001))),
        Some(BudgetPolicy::Adaptive(Some(100.0))),
    ];
    let limits = [None, Some(0), Some(250), Some(nine_e15)];
    let mut specs = vec![None];
    for (i, kind) in AlgorithmKind::all().into_iter().enumerate() {
        for (j, family) in ImplicitFamily::all().into_iter().enumerate() {
            let knob = match family {
                ImplicitFamily::Gnp => [Some(0.5), Some(4.0), None][(i + j) % 3],
                ImplicitFamily::Regular => Some(6.0),
                ImplicitFamily::ChungLu => [Some(2.5), Some(1.0 / 3.0)][(i + j) % 2],
                ImplicitFamily::Grid | ImplicitFamily::Torus => Some(-1.25),
                ImplicitFamily::Hypercube => None,
            };
            specs.push(Some(SessionSpec {
                kind,
                family,
                // The largest `n` each family builds is the third.
                n: match family {
                    ImplicitFamily::Hypercube => [2, 1024, (1 << 31) - 1][(i + j) % 3],
                    _ => [9, 1_000_000, 1 << 32][(i + j) % 3],
                },
                seed: [0, 7, nine_e15][(i + 2 * j) % 3],
                knob,
            }));
        }
    }
    let mut requests = Vec::new();
    let mut k = 0usize;
    for session in hostile_strings() {
        for id in [None, Some(0), Some(nine_e15)] {
            for queries in &shapes {
                for spec in &specs {
                    k += 1;
                    requests.push(Request::Query {
                        session: session.clone(),
                        spec: spec.clone(),
                        queries: queries.clone(),
                        id,
                        max_probes: limits[k % limits.len()],
                        deadline_ms: limits[k / 3 % limits.len()],
                        budget_policy: policies[k % policies.len()],
                    });
                }
            }
        }
    }
    requests
}

#[test]
fn every_request_reads_back_from_its_written_line() {
    let nesting = nesting_lines();
    let corpus: Vec<Request> = TORTURE_SAMPLES
        .iter()
        .chain(EDGE_LINES)
        .copied()
        .chain(nesting.iter().map(String::as_str))
        .filter_map(|line| Request::parse(line).ok())
        .collect();
    assert!(corpus.len() > 20, "{}", corpus.len());
    let requests = query_requests();
    assert!(requests.len() > 5000, "{}", requests.len());
    for request in corpus.iter().chain(&requests) {
        let line = written(request);
        assert!(same_outcome(&line), "{line}");
        assert_eq!(Request::parse(&line).as_ref(), Ok(request), "{line}");
        // Written lines are the canonical spelling: writing again is a
        // fixed point.
        assert_eq!(written(&Request::parse(&line).unwrap()), line);
    }
    // The documented shapes, spelled out once.
    let spelled = [
        (Request::Ping, r#"{"op":"ping"}"#),
        (Request::Stats, r#"{"op":"stats"}"#),
        (
            Request::parse(r#"{"query":[1,2],"session":"s","id":3,"kind":"spanner3","n":1e3,"knob":2.5,"budget_policy":"p99.5","extra":[]}"#)
                .unwrap(),
            r#"{"id":3,"session":"s","kind":"three-spanner","family":"implicit-gnp","n":1000,"seed":0,"knob":2.5,"query":[1,2],"budget_policy":"p99.5"}"#,
        ),
    ];
    for (request, line) in spelled {
        assert_eq!(written(&request), line);
    }
}

#[test]
fn a_written_id_past_9e15_is_refused_as_a_sent_one_is() {
    // The reader refuses numbers past 9e15 rather than round them; the
    // writer spells them exactly, so the refusal is the same either way.
    let over = 9_000_000_000_000_001;
    let request = Request::Query {
        session: "s".to_owned(),
        spec: None,
        queries: Queries::One(QueryPayload::Vertex(1)),
        id: Some(over),
        max_probes: None,
        deadline_ms: None,
        budget_policy: None,
    };
    let line = written(&request);
    assert_eq!(line, r#"{"id":9000000000000001,"session":"s","query":1}"#);
    assert!(!same_outcome(&line));
    let refused = Request::parse(&line).unwrap_err();
    assert_eq!((refused.id, refused.code), (None, ErrorCode::BadRequest));
    assert!(refused.message.contains("`id`"), "{refused:?}");
}
