//! The `lca-serve` daemon under test, as a child process.

use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::wire;

/// A running daemon on an ephemeral loopback port. Dropping it kills the
/// process; [`Daemon::stop`] drains it the way an operator would.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    /// `host:port` the daemon listens on.
    pub addr: String,
}

impl Daemon {
    /// Starts `bin` with `workers` pool workers and waits until it listens.
    pub fn start(bin: &Path, workers: usize) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // Owned by the guard from here on, so an early return kills it.
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        // The first stdout line is `{"listening":"127.0.0.1:PORT"}`.
        let mut line = String::new();
        daemon.stdout.read_line(&mut line)?;
        daemon.addr = line
            .split('"')
            .nth(3)
            .filter(|addr| addr.contains(':'))
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected first line from lca-serve: {line:?}"),
                )
            })?
            .to_owned();
        Ok(daemon)
    }

    /// Sends one request on a fresh connection and returns the reply line.
    pub fn request(&self, line: &str) -> io::Result<String> {
        let (mut writer, mut reader) = wire::connect(&self.addr)?;
        wire::call(&mut writer, &mut reader, line)
    }

    /// Asks the daemon to drain and waits up to ten seconds for it to exit.
    pub fn stop(mut self) -> io::Result<()> {
        self.request("{\"op\":\"shutdown\"}\n")?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "lca-serve did not exit after shutdown",
        ))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Already reaped after a clean `stop`; otherwise kill and reap.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
