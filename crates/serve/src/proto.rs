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
pub const PROTOCOL_VERSION: u64 = 1;

/// Largest accepted binary frame payload, matching the newline framer's
/// line cap: anything bigger is a corrupt or hostile length prefix, not a
/// plausible response.
pub const MAX_FRAME: usize = 16 << 20;

/// How responses are framed on a connection.
///
/// Every connection starts in [`FrameFormat::Json`]; a client may switch
/// the *response* direction to length-prefixed binary frames with a
/// `{"op": "hello", "frame": "binary"}` request. Requests stay
/// newline-JSON in both modes — only the server→client leg changes, which
/// is where the rendering and parsing cost concentrates on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrameFormat {
    /// One compact JSON object per `\n`-terminated line (the default).
    #[default]
    Json,
    /// u32-LE payload length followed by a tag-based compact payload (see
    /// the frame layout section in `docs/PROTOCOL.md`).
    Binary,
}

impl FrameFormat {
    /// The wire spelling (`"json"` / `"binary"`).
    pub fn as_str(self) -> &'static str {
        match self {
            FrameFormat::Json => "json",
            FrameFormat::Binary => "binary",
        }
    }

    /// Parses a wire spelling.
    pub fn parse(s: &str) -> Option<FrameFormat> {
        match s {
            "json" => Some(FrameFormat::Json),
            "binary" => Some(FrameFormat::Binary),
            _ => None,
        }
    }
}

/// The hello line a client sends to negotiate response framing.
pub fn hello_line(frame: FrameFormat) -> String {
    format!("{{\"op\":\"hello\",\"frame\":\"{}\"}}", frame.as_str())
}

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
    /// Negotiate the connection's response framing. The acknowledgement is
    /// sent in the *current* framing; every response after it uses the
    /// requested one.
    Hello {
        /// The framing the client wants for responses.
        frame: FrameFormat,
    },
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
    /// The query panicked inside the worker — a server bug, not a client
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

    /// The binary-frame spelling of the code (one byte, nonzero).
    pub fn to_u8(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::UnknownSpec => 2,
            ErrorCode::UnknownSession => 3,
            ErrorCode::SessionMismatch => 4,
            ErrorCode::BadQuery => 5,
            ErrorCode::Overloaded => 6,
            ErrorCode::Draining => 7,
            ErrorCode::Internal => 8,
            ErrorCode::BudgetExhausted => 9,
            ErrorCode::DeadlineExceeded => 10,
        }
    }

    /// Inverse of [`ErrorCode::to_u8`].
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::UnknownSpec,
            3 => ErrorCode::UnknownSession,
            4 => ErrorCode::SessionMismatch,
            5 => ErrorCode::BadQuery,
            6 => ErrorCode::Overloaded,
            7 => ErrorCode::Draining,
            8 => ErrorCode::Internal,
            9 => ErrorCode::BudgetExhausted,
            10 => ErrorCode::DeadlineExceeded,
            _ => return None,
        })
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
        /// Oracle probes spent on this request (approximate when the same
        /// session is being queried concurrently).
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
    /// Acknowledgement of a `hello`, echoing the framing that every
    /// *subsequent* response will use.
    Hello {
        /// The negotiated response framing.
        frame: FrameFormat,
    },
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
            Response::Hello { frame } => Json::Obj(vec![
                ("ok".to_owned(), Json::Bool(true)),
                ("frame".to_owned(), Json::Str(frame.as_str().to_owned())),
            ]),
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

// ---------------------------------------------------------------------------
// Binary frames.
//
// Layout: a u32-LE payload length (1..=MAX_FRAME), then the payload. The
// payload's first byte is a tag selecting the response variant; integers
// are little-endian, strings are a u32-LE byte length plus UTF-8 bytes,
// and batch answers pack into an LSB-first bitset. Stats responses carry
// their rendered JSON verbatim — they are off the hot path and their
// schema belongs to the metrics module, not the framer.

const TAG_ANSWER: u8 = 1;
const TAG_ANSWERS: u8 = 2;
const TAG_ERROR: u8 = 3;
const TAG_OK: u8 = 4;
const TAG_STATS: u8 = 5;
const TAG_HELLO: u8 = 6;

const FLAG_HAS_ID: u8 = 1;
const FLAG_ANSWER: u8 = 2;

/// Why a binary frame failed to decode. Every variant is a protocol
/// violation: the connection carrying it cannot be resynchronized and must
/// be dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix was zero or exceeded [`MAX_FRAME`].
    BadLength {
        /// The offending prefix value.
        len: u32,
    },
    /// The payload's leading tag byte named no response variant.
    BadTag(u8),
    /// An error payload carried an unknown [`ErrorCode`] byte.
    BadCode(u8),
    /// The payload ended before the field named here was complete.
    Truncated(&'static str),
    /// The payload decoded cleanly but bytes were left over.
    TrailingBytes {
        /// How many bytes followed the decoded value.
        extra: usize,
    },
    /// A string field was not UTF-8, or an embedded stats object was not
    /// valid JSON.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadLength { len } => {
                write!(f, "bad frame length {len} (must be 1..={MAX_FRAME})")
            }
            FrameError::BadTag(tag) => write!(f, "unknown frame tag {tag}"),
            FrameError::BadCode(code) => write!(f, "unknown error code byte {code}"),
            FrameError::Truncated(what) => write!(f, "frame payload truncated in {what}"),
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame payload")
            }
            FrameError::Malformed(what) => write!(f, "malformed frame field: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked little-endian reader over one frame payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(FrameError::Truncated(what))?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(FrameError::Truncated(what))?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?.first().copied().unwrap_or(0))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, FrameError> {
        let bytes = self.take(4, what)?;
        let arr = bytes.try_into().map_err(|_| FrameError::Truncated(what))?;
        Ok(u32::from_le_bytes(arr))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, FrameError> {
        let bytes = self.take(8, what)?;
        let arr = bytes.try_into().map_err(|_| FrameError::Truncated(what))?;
        Ok(u64::from_le_bytes(arr))
    }

    fn str(&mut self, what: &'static str) -> Result<String, FrameError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Malformed(what))
    }

    fn opt_id(&mut self, flags: u8) -> Result<Option<u64>, FrameError> {
        if flags & FLAG_HAS_ID != 0 {
            Ok(Some(self.u64("id")?))
        } else {
            Ok(None)
        }
    }
}

impl Response {
    /// Encodes the response as one complete binary frame, length prefix
    /// included.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(64);
        match self {
            Response::Answer {
                id,
                session,
                answer,
                probes,
                micros,
            } => {
                p.push(TAG_ANSWER);
                let mut flags = if *answer { FLAG_ANSWER } else { 0 };
                if id.is_some() {
                    flags |= FLAG_HAS_ID;
                }
                p.push(flags);
                if let Some(id) = id {
                    p.extend_from_slice(&id.to_le_bytes());
                }
                put_str(&mut p, session);
                p.extend_from_slice(&probes.to_le_bytes());
                p.extend_from_slice(&micros.to_le_bytes());
            }
            Response::Answers {
                id,
                session,
                answers,
                probes,
                micros,
            } => {
                p.push(TAG_ANSWERS);
                p.push(if id.is_some() { FLAG_HAS_ID } else { 0 });
                if let Some(id) = id {
                    p.extend_from_slice(&id.to_le_bytes());
                }
                put_str(&mut p, session);
                p.extend_from_slice(&(answers.len() as u32).to_le_bytes());
                let mut bits = vec![0u8; answers.len().div_ceil(8)];
                for (i, &a) in answers.iter().enumerate() {
                    if a {
                        if let Some(byte) = bits.get_mut(i / 8) {
                            *byte |= 1 << (i % 8);
                        }
                    }
                }
                p.extend_from_slice(&bits);
                p.extend_from_slice(&probes.to_le_bytes());
                p.extend_from_slice(&micros.to_le_bytes());
            }
            Response::Error { id, code, message } => {
                p.push(TAG_ERROR);
                p.push(if id.is_some() { FLAG_HAS_ID } else { 0 });
                if let Some(id) = id {
                    p.extend_from_slice(&id.to_le_bytes());
                }
                p.push(code.to_u8());
                put_str(&mut p, message);
            }
            Response::Ok { draining } => {
                p.push(TAG_OK);
                p.push(u8::from(*draining));
            }
            Response::Stats(json) => {
                p.push(TAG_STATS);
                let mut rendered = String::new();
                json.render(&mut rendered);
                p.extend_from_slice(rendered.as_bytes());
            }
            Response::Hello { frame } => {
                p.push(TAG_HELLO);
                p.push(match frame {
                    FrameFormat::Json => 0,
                    FrameFormat::Binary => 1,
                });
            }
        }
        let mut frame = Vec::with_capacity(p.len() + 4);
        frame.extend_from_slice(&(p.len() as u32).to_le_bytes());
        frame.extend_from_slice(&p);
        frame
    }

    /// Decodes one frame payload (the bytes *after* the length prefix).
    /// Strict: every byte must be consumed.
    pub fn decode_payload(payload: &[u8]) -> Result<Response, FrameError> {
        let mut c = Cursor {
            bytes: payload,
            pos: 0,
        };
        let tag = c.u8("tag")?;
        let response = match tag {
            TAG_ANSWER => {
                let flags = c.u8("flags")?;
                let id = c.opt_id(flags)?;
                let session = c.str("session")?;
                let probes = c.u64("probes")?;
                let micros = c.u64("micros")?;
                Response::Answer {
                    id,
                    session,
                    answer: flags & FLAG_ANSWER != 0,
                    probes,
                    micros,
                }
            }
            TAG_ANSWERS => {
                let flags = c.u8("flags")?;
                let id = c.opt_id(flags)?;
                let session = c.str("session")?;
                let count = c.u32("answer count")? as usize;
                let bits = c.take(count.div_ceil(8), "answer bitset")?;
                let answers = (0..count)
                    .map(|i| bits.get(i / 8).is_some_and(|b| b >> (i % 8) & 1 != 0))
                    .collect();
                let probes = c.u64("probes")?;
                let micros = c.u64("micros")?;
                Response::Answers {
                    id,
                    session,
                    answers,
                    probes,
                    micros,
                }
            }
            TAG_ERROR => {
                let flags = c.u8("flags")?;
                let id = c.opt_id(flags)?;
                let byte = c.u8("error code")?;
                let code = ErrorCode::from_u8(byte).ok_or(FrameError::BadCode(byte))?;
                let message = c.str("message")?;
                Response::Error { id, code, message }
            }
            TAG_OK => Response::Ok {
                draining: c.u8("draining")? != 0,
            },
            TAG_STATS => {
                let rest = c.take(payload.len() - c.pos, "stats body")?;
                let text = std::str::from_utf8(rest)
                    .map_err(|_| FrameError::Malformed("stats body utf-8"))?;
                let json = serde_json::from_str(text)
                    .map_err(|_| FrameError::Malformed("stats body json"))?;
                Response::Stats(json)
            }
            TAG_HELLO => Response::Hello {
                frame: match c.u8("frame format")? {
                    0 => FrameFormat::Json,
                    1 => FrameFormat::Binary,
                    _ => return Err(FrameError::Malformed("frame format byte")),
                },
            },
            other => return Err(FrameError::BadTag(other)),
        };
        if c.pos != payload.len() {
            return Err(FrameError::TrailingBytes {
                extra: payload.len() - c.pos,
            });
        }
        Ok(response)
    }
}

/// An incremental binary-frame reassembler: feed it arbitrary byte chunks
/// (partial frames, many frames at once — whatever the socket produced)
/// and pull complete responses out.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends raw bytes from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered while waiting for a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete response, `Ok(None)` when more bytes are
    /// needed. After any `Err` the stream is unrecoverable — drop the
    /// connection.
    pub fn next_frame(&mut self) -> Result<Option<Response>, FrameError> {
        let Some(&prefix) = self.buf.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(prefix);
        if len == 0 || len as usize > MAX_FRAME {
            return Err(FrameError::BadLength { len });
        }
        let total = 4 + len as usize;
        let Some(payload) = self.buf.get(4..total) else {
            return Ok(None);
        };
        let response = Response::decode_payload(payload)?;
        self.buf.drain(..total);
        Ok(Some(response))
    }
}

/// Reads one binary frame off a blocking reader. `Ok(None)` means clean
/// EOF at a frame boundary; EOF inside a frame and every [`FrameError`]
/// surface as `io::Error`.
pub fn read_binary_frame(r: &mut impl std::io::Read) -> std::io::Result<Option<Response>> {
    use std::io::{Error, ErrorKind};
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let Some(rest) = prefix.get_mut(got..) else {
            break;
        };
        match r.read(rest) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(Error::new(
                    ErrorKind::UnexpectedEof,
                    "eof inside frame length prefix",
                ))
            }
            Ok(k) => got += k,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len == 0 || len as usize > MAX_FRAME {
        return Err(Error::new(
            ErrorKind::InvalidData,
            FrameError::BadLength { len }.to_string(),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Response::decode_payload(&payload)
        .map(Some)
        .map_err(|e| Error::new(ErrorKind::InvalidData, e.to_string()))
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
        let id = v.get("id").and_then(Json::as_u64);
        let op = v.get("op").and_then(Json::as_str).unwrap_or("query");
        match op {
            "stats" => Ok(Request::Stats),
            "sessions" => Ok(Request::Sessions),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "hello" => {
                let name = v.get("frame").and_then(Json::as_str).ok_or_else(|| {
                    ParseError::new(id, ErrorCode::BadRequest, "missing string field `frame`")
                })?;
                let frame = FrameFormat::parse(name).ok_or_else(|| {
                    ParseError::new(
                        id,
                        ErrorCode::BadRequest,
                        format!("unknown frame {name:?} (use \"json\" or \"binary\")"),
                    )
                })?;
                Ok(Request::Hello { frame })
            }
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
        let max_probes = v.get("max_probes").and_then(Json::as_u64);
        let deadline_ms = v.get("deadline_ms").and_then(Json::as_u64);
        let budget_policy = match v.get("budget_policy") {
            None => None,
            Some(policy) => {
                let s = policy.as_str().ok_or_else(|| {
                    ParseError::new(
                        id,
                        ErrorCode::BadRequest,
                        "`budget_policy` must be a string",
                    )
                })?;
                Some(BudgetPolicy::parse(s).ok_or_else(|| {
                    ParseError::new(
                        id,
                        ErrorCode::BadRequest,
                        format!("unknown budget_policy {s:?} (use off, adaptive, or pNN like p95)"),
                    )
                })?)
            }
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
        let kind = v.get("kind").and_then(Json::as_str);
        let n = v.get("n").and_then(Json::as_u64);
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
        let family = match v.get("family").and_then(Json::as_str) {
            None => ImplicitFamily::Gnp,
            Some(name) => ImplicitFamily::parse(name).ok_or_else(|| {
                ParseError::new(
                    id,
                    ErrorCode::UnknownSpec,
                    format!("unknown family {name:?}"),
                )
            })?,
        };
        let seed = v.get("seed").and_then(Json::as_u64).unwrap_or(0);
        let knob = v.get("knob").and_then(Json::as_f64);
        Ok(Some(SessionSpec {
            kind,
            family,
            n: n as usize,
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
    fn hello_parses_and_acks_render() {
        assert_eq!(
            Request::parse(r#"{"op": "hello", "frame": "binary"}"#).unwrap(),
            Request::Hello {
                frame: FrameFormat::Binary
            }
        );
        assert_eq!(
            Request::parse(r#"{"op": "hello", "frame": "json"}"#).unwrap(),
            Request::Hello {
                frame: FrameFormat::Json
            }
        );
        for line in [
            r#"{"op": "hello"}"#,
            r#"{"op": "hello", "frame": "msgpack"}"#,
            r#"{"op": "hello", "frame": 3}"#,
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
        }
        assert_eq!(
            Response::Hello {
                frame: FrameFormat::Binary
            }
            .render(),
            r#"{"ok":true,"frame":"binary"}"#
        );
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Answer {
                id: Some(7),
                session: "s".into(),
                answer: true,
                probes: 12,
                micros: 87,
            },
            Response::Answer {
                id: None,
                session: "αβγ".into(),
                answer: false,
                probes: 0,
                micros: u64::MAX,
            },
            Response::Answers {
                id: Some(u64::MAX),
                session: "batch".into(),
                answers: vec![true, false, true, true, false, false, true, false, true],
                probes: 99,
                micros: 3,
            },
            Response::Answers {
                id: None,
                session: String::new(),
                answers: vec![false],
                probes: 1,
                micros: 1,
            },
            Response::Error {
                id: Some(4),
                code: ErrorCode::BudgetExhausted,
                message: "probe budget exhausted".into(),
            },
            Response::Error {
                id: None,
                code: ErrorCode::BadRequest,
                message: String::new(),
            },
            Response::Ok { draining: false },
            Response::Ok { draining: true },
            Response::Hello {
                frame: FrameFormat::Binary,
            },
            Response::Stats(Json::Obj(vec![
                ("requests".into(), Json::Num(42.0)),
                ("backend_id".into(), Json::Str("b0".into())),
            ])),
        ]
    }

    #[test]
    fn binary_frames_round_trip_every_response_shape() {
        for response in sample_responses() {
            let frame = response.encode_frame();
            let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            assert_eq!(len + 4, frame.len(), "length prefix covers the payload");
            let decoded = Response::decode_payload(&frame[4..]).unwrap();
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn error_codes_round_trip_through_bytes() {
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
        ] {
            assert_eq!(ErrorCode::from_u8(code.to_u8()), Some(code));
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        assert_eq!(ErrorCode::from_u8(11), None);
    }

    #[test]
    fn malformed_payloads_fail_with_typed_errors() {
        // Unknown tag.
        assert_eq!(
            Response::decode_payload(&[200]),
            Err(FrameError::BadTag(200))
        );
        // Empty payload cannot even carry a tag.
        assert_eq!(
            Response::decode_payload(&[]),
            Err(FrameError::Truncated("tag"))
        );
        // Answer truncated mid-session-string.
        let mut frame = Response::Answer {
            id: None,
            session: "hello".into(),
            answer: true,
            probes: 1,
            micros: 1,
        }
        .encode_frame();
        let cut = frame.len() - 20;
        assert!(matches!(
            Response::decode_payload(&frame[4..cut]),
            Err(FrameError::Truncated(_))
        ));
        // Trailing garbage after a well-formed payload.
        frame.push(0xFF);
        assert_eq!(
            Response::decode_payload(&frame[4..]),
            Err(FrameError::TrailingBytes { extra: 1 })
        );
        // Unknown error-code byte.
        let mut err_frame = Response::Error {
            id: None,
            code: ErrorCode::Internal,
            message: String::new(),
        }
        .encode_frame();
        err_frame[6] = 0; // tag, flags, then the code byte at payload offset 2
        assert_eq!(
            Response::decode_payload(&err_frame[4..]),
            Err(FrameError::BadCode(0))
        );
        // Non-UTF-8 session bytes.
        let mut bad_utf8 = vec![TAG_ANSWER, 0];
        bad_utf8.extend_from_slice(&2u32.to_le_bytes());
        bad_utf8.extend_from_slice(&[0xFF, 0xFE]);
        bad_utf8.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            Response::decode_payload(&bad_utf8),
            Err(FrameError::Malformed("session"))
        );
    }

    #[test]
    fn decoder_rejects_zero_and_oversized_length_prefixes() {
        let mut d = FrameDecoder::new();
        d.push(&0u32.to_le_bytes());
        assert_eq!(d.next_frame(), Err(FrameError::BadLength { len: 0 }));

        let mut d = FrameDecoder::new();
        let huge = (MAX_FRAME as u32) + 1;
        d.push(&huge.to_le_bytes());
        assert_eq!(d.next_frame(), Err(FrameError::BadLength { len: huge }));
    }

    #[test]
    fn read_binary_frame_distinguishes_clean_eof_from_truncation() {
        use std::io::Cursor;
        let response = Response::Ok { draining: false };
        let frame = response.encode_frame();

        // Clean EOF at a frame boundary: one frame, then None.
        let mut r = Cursor::new(frame.clone());
        assert_eq!(read_binary_frame(&mut r).unwrap(), Some(response));
        assert_eq!(read_binary_frame(&mut r).unwrap(), None);

        // EOF mid-prefix and mid-payload are both errors.
        let mut r = Cursor::new(frame[..2].to_vec());
        assert!(read_binary_frame(&mut r).is_err());
        let mut r = Cursor::new(frame[..frame.len() - 1].to_vec());
        assert!(read_binary_frame(&mut r).is_err());
    }

    #[test]
    fn stats_response_round_trips_through_the_wire_format() {
        use crate::metrics::{
            global_stats_json, session_stats_json, GlobalMetrics, GlobalSnapshot, SessionMetrics,
        };
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
            cache_total: lca_probe::CacheStats {
                hits: 30,
                misses: 10,
                entries: 10,
            },
        };
        let session = SessionMetrics::default();
        session.record(10, 4, 250, 99);
        let response = Response::Stats(Json::Obj(vec![
            ("stats".into(), global_stats_json(&global, &snap)),
            (
                "sessions".into(),
                Json::Obj(vec![(
                    "s".into(),
                    session_stats_json(
                        &session,
                        snap.cache_total,
                        lca_probe::ProbeCounts::default(),
                        1.0,
                    ),
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
        assert_eq!(
            g.get("cache_hit_rate_total").and_then(Json::as_f64),
            Some(0.75)
        );
        assert_eq!(g.get("draining").and_then(Json::as_bool), Some(false));
        let s = parsed.get("sessions").and_then(|s| s.get("s")).expect("s");
        assert_eq!(s.get("queries").and_then(Json::as_u64), Some(10));
        assert_eq!(s.get("cache_hits").and_then(Json::as_u64), Some(30));
    }

    #[test]
    fn empty_global_snapshot_renders_zero_rollups() {
        use crate::metrics::{global_stats_json, GlobalMetrics, GlobalSnapshot};
        let json = global_stats_json(
            &GlobalMetrics::default(),
            &GlobalSnapshot {
                backend_id: String::new(),
                queue_len: 0,
                draining: true,
                sessions: 0,
                registry_shards: 16,
                registry_shard_hits: vec![0; 16],
                cache_total: lca_probe::CacheStats {
                    hits: 0,
                    misses: 0,
                    entries: 0,
                },
            },
        );
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
