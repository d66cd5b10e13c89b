//! Persistent pooled newline-JSON clients for one `lca-serve` backend.
//!
//! A round trip is one request line out and one response line back — the
//! same protocol any other `lca-serve` client speaks.
//!
//! The gateway's workers do blocking one-request/one-response round trips
//! against backends; this module keeps the TCP connections those round
//! trips ride on warm. Each [`BackendPool`] owns a stack of idle
//! connections to one backend address: a worker checks one out (or dials
//! a new one when the stack is empty), does its round trip, and returns
//! the connection for reuse. A connection that errored mid-round-trip is
//! simply dropped — the pool never tries to resurrect a broken stream,
//! and the *router* decides whether the request is retried on a fresh
//! connection (once, because queries are idempotent: answers are a pure
//! function of `(spec, query)`).

#![warn(clippy::unwrap_used)]
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

/// How long a dial may take before the backend counts as unreachable.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// How long one round trip may wait on a response. Generous — a backend
/// that takes longer than this on one request line is not serving.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Idle connections kept per backend; beyond this, returned connections
/// are closed instead of pooled (workers bound the concurrent demand, so
/// the stack never usefully exceeds the worker count by much).
const MAX_IDLE: usize = 16;

/// One checked-out connection: a writer half plus a buffered reader half
/// of the same socket.
pub struct BackendConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl BackendConn {
    /// Dials `addr` with the connect/read timeouts installed.
    pub fn connect(addr: &str) -> io::Result<BackendConn> {
        let sock_addr = addr
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: {e}")))?;
        let stream = TcpStream::connect_timeout(&sock_addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(BackendConn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one `\n`-terminated request line in one write and reads one
    /// response line, without its line ending. An EOF before the response
    /// is an error (the backend went away mid-request).
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "backend closed the connection before responding",
            ));
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }
}

/// A pool of persistent connections to one backend.
pub struct BackendPool {
    addr: String,
    idle: Mutex<Vec<BackendConn>>,
}

impl BackendPool {
    /// A pool for the backend at `addr` (`host:port`); no connection is
    /// dialed until first use.
    pub fn new(addr: impl Into<String>) -> BackendPool {
        BackendPool {
            addr: addr.into(),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The backend's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Checks a connection out: an idle pooled one, or a fresh dial.
    pub fn get(&self) -> io::Result<BackendConn> {
        // lint:allow(panic) — poison means a sibling worker panicked; propagate
        if let Some(conn) = self.idle.lock().expect("pool poisoned").pop() {
            return Ok(conn);
        }
        BackendConn::connect(&self.addr)
    }

    /// Returns a healthy connection for reuse (dropped when the idle
    /// stack is full).
    pub fn put(&self, conn: BackendConn) {
        // lint:allow(panic) — poison means a sibling worker panicked; propagate
        let mut idle = self.idle.lock().expect("pool poisoned");
        if idle.len() < MAX_IDLE {
            idle.push(conn);
        }
    }

    /// One round trip with the pool's check-out/check-in discipline: a
    /// connection that completed its round trip goes back to the pool, a
    /// connection that errored is dropped and the error surfaces to the
    /// caller (who owns the retry policy).
    pub fn roundtrip(&self, line: &str) -> io::Result<String> {
        let mut conn = self.get()?;
        match conn.roundtrip(line) {
            Ok(response) => {
                self.put(conn);
                Ok(response)
            }
            Err(e) => Err(e), // conn drops here: never pool a broken stream
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests assert; unwrap IS the assertion
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn roundtrip_pools_and_reuses_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // One accepted connection must serve both round trips.
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            for _ in 0..2 {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                writer
                    .write_all(format!("echo:{}\n", line.trim()).as_bytes())
                    .unwrap();
            }
        });
        let pool = BackendPool::new(&addr);
        assert_eq!(pool.roundtrip("a\n").unwrap(), "echo:a");
        assert_eq!(pool.roundtrip("b\n").unwrap(), "echo:b");
        server.join().unwrap();
    }

    #[test]
    fn an_unreachable_backend_reports_the_dial_error() {
        // A port nothing listens on: bind to grab a free port, then drop
        // the listener before dialing.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let pool = BackendPool::new(&addr);
        assert!(pool.roundtrip("x\n").is_err());
    }
}
