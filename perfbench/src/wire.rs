//! The client side of the wire: request lines, reply parsing, and the
//! closed-loop traffic loop.
//!
//! [`closed`] keeps `window` requests in flight on one connection: a window
//! of 1 is the classic closed loop (a caller waiting for each reply), a
//! wider one pipelines. Every reply is checked against the answer computed
//! in-process before the run (see [`Traffic`]); an error reply, a wrong
//! answer, or a reply that never came counts as failed.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lca::prelude::{AlgorithmKind, DynQuery};

/// One kind's share of a workload: its session and sampled queries, with
/// the answer each query must get.
pub struct Plan {
    /// Algorithm the session runs.
    pub kind: AlgorithmKind,
    /// Session name on the daemon.
    pub session: String,
    /// Spec fields (`"kind":…,"family":…,"n":…,"seed":…`) the first request
    /// carries, which is when the daemon builds the session.
    pub spec: String,
    /// The query pool, cycled in order.
    pub queries: Vec<DynQuery>,
    /// `expected[i]` is the answer to `queries[i]`.
    pub expected: Vec<bool>,
}

/// A workload's traffic: schedule position `id` asks kind `id % K` its next
/// query, so kinds interleave and each kind walks its pool in order.
pub struct Traffic {
    /// One plan per kind.
    pub plans: Vec<Plan>,
}

impl Traffic {
    /// `(plan index, query index)` of schedule position `id`.
    pub fn slot(&self, id: u64) -> (usize, usize) {
        let kinds = self.plans.len() as u64;
        let ki = (id % kinds) as usize;
        let qi = ((id / kinds) % self.plans[ki].queries.len() as u64) as usize;
        (ki, qi)
    }

    /// Appends the request line for schedule position `id`; `with_spec`
    /// adds the session's spec fields.
    pub fn push_request(&self, id: u64, with_spec: bool, out: &mut String) {
        use std::fmt::Write as _;
        let (ki, qi) = self.slot(id);
        let plan = &self.plans[ki];
        let _ = write!(out, "{{\"id\":{id},\"session\":\"{}\"", plan.session);
        if with_spec {
            let _ = write!(out, ",{}", plan.spec);
        }
        let _ = match plan.queries[qi] {
            DynQuery::Vertex(v) => writeln!(out, ",\"query\":{}}}", v.index()),
            DynQuery::Edge(u, v) => writeln!(out, ",\"query\":[{},{}]}}", u.index(), v.index()),
        };
    }

    /// The answer schedule position `id` must get.
    pub fn expected(&self, id: u64) -> bool {
        let (ki, qi) = self.slot(id);
        self.plans[ki].expected[qi]
    }
}

/// The fields of one reply line the benchmark reads.
#[derive(Debug, Default, PartialEq)]
pub struct Reply {
    /// Echoed request id.
    pub id: Option<u64>,
    /// The answer; `None` for an error reply.
    pub answer: Option<bool>,
    /// Probes the server charged the request.
    pub probes: u64,
    /// Service time on the worker, as the server measured it.
    pub micros: u64,
}

/// The raw text of `"key":<value>` in a flat JSON line, up to the next `,`
/// or `}`. Replies are one flat object whose string values are session
/// names and error text this benchmark controls or does not read.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let start = line.find(&pattern)? + pattern.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// A numeric field of a flat JSON line.
pub fn number_field(line: &str, key: &str) -> Option<f64> {
    raw_field(line, key)?.parse().ok()
}

/// Reads the fields the benchmark uses out of one reply line.
pub fn parse_reply(line: &str) -> Reply {
    let int = |key| raw_field(line, key).and_then(|v| v.parse::<u64>().ok());
    let answer = if line.contains("\"error\":") {
        None
    } else {
        match raw_field(line, "answer") {
            Some("true") => Some(true),
            Some("false") => Some(false),
            _ => None,
        }
    };
    Reply {
        id: int("id"),
        answer,
        probes: int("probes").unwrap_or(0),
        micros: int("micros").unwrap_or(0),
    }
}

/// One correct reply, as the client saw it. Times are nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the reply arrived, since the run's epoch.
    pub done_ns: u64,
    /// From the send to the reply: what the caller waited.
    pub rtt_ns: u64,
    /// Service time the server reported.
    pub service_ns: u64,
    /// Probes the server reported.
    pub probes: u64,
}

/// What one connection saw.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that got no reply, an error reply, or a wrong answer.
    pub failed: u64,
    /// The correct replies.
    pub samples: Vec<Sample>,
    /// The first failure, for the diagnostic on stderr.
    pub first_failure: Option<String>,
}

impl Tally {
    fn fail(&mut self, count: u64, why: impl FnOnce() -> String) {
        self.failed += count;
        if count > 0 && self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// Folds another connection's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.samples.extend(other.samples);
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// A loopback connection with Nagle off and a read timeout, so a daemon
/// that stops answering fails the run instead of hanging it.
pub fn connect(addr: &str) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Sends one line and reads the one-line reply.
pub fn call(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &str,
) -> io::Result<String> {
    writer.write_all(request.as_bytes())?;
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "daemon closed the connection",
        ));
    }
    Ok(line)
}

/// Closed-loop traffic on one connection: keeps `window` requests in
/// flight, taking schedule positions from `next`, until `stop`; then
/// collects the replies still owed.
pub fn closed(
    addr: &str,
    traffic: &Traffic,
    window: usize,
    next: &AtomicU64,
    stop: Instant,
    epoch: Instant,
) -> Tally {
    let mut tally = Tally::default();
    let (mut writer, mut reader) = match connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            tally.attempted = 1;
            tally.fail(1, || format!("connect: {e}"));
            return tally;
        }
    };
    let mut in_flight: Vec<(u64, Instant)> = Vec::with_capacity(window);
    let mut batch = String::new();
    let mut line = String::new();
    loop {
        batch.clear();
        let now = Instant::now();
        while in_flight.len() < window && now < stop {
            let id = next.fetch_add(1, Ordering::Relaxed);
            traffic.push_request(id, false, &mut batch);
            in_flight.push((id, now));
            tally.attempted += 1;
        }
        if !batch.is_empty() {
            if let Err(e) = writer.write_all(batch.as_bytes()) {
                tally.fail(in_flight.len() as u64, || format!("send: {e}"));
                return tally;
            }
        }
        if in_flight.is_empty() {
            return tally;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                tally.fail(in_flight.len() as u64, || "daemon closed".to_owned());
                return tally;
            }
            Err(e) => {
                tally.fail(in_flight.len() as u64, || format!("read: {e}"));
                return tally;
            }
            Ok(_) => {}
        }
        let done = Instant::now();
        let reply = parse_reply(&line);
        let Some(pos) = reply
            .id
            .and_then(|id| in_flight.iter().position(|f| f.0 == id))
        else {
            tally.fail(in_flight.len() as u64, || {
                format!("reply for no request: {}", line.trim())
            });
            return tally;
        };
        let (id, sent) = in_flight.swap_remove(pos);
        match reply.answer {
            Some(answer) if answer == traffic.expected(id) => tally.samples.push(Sample {
                done_ns: nanos(epoch, done),
                rtt_ns: nanos(sent, done),
                service_ns: reply.micros.saturating_mul(1_000),
                probes: reply.probes,
            }),
            _ => tally.fail(1, || format!("request {id}: {}", line.trim())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse() {
        let ok = parse_reply(r#"{"id":3,"session":"m","answer":true,"probes":12,"micros":87}"#);
        assert_eq!(
            ok,
            Reply {
                id: Some(3),
                answer: Some(true),
                probes: 12,
                micros: 87
            }
        );
        let err = parse_reply(r#"{"id":7,"error":"bad-query","message":"x"}"#);
        assert_eq!(err.id, Some(7));
        assert_eq!(err.answer, None);
        assert_eq!(number_field(r#"{"a":1,"rate":0.25}"#, "rate"), Some(0.25));
    }
}
