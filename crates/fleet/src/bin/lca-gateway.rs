//! `lca-gateway` — the HTTP/JSON front end over a fleet of `lca-serve`
//! backends.
//!
//! ```text
//! lca-gateway --addr 127.0.0.1:7500 \
//!             --backends 127.0.0.1:7400,127.0.0.1:7401
//! ```
//!
//! Prints `{"listening":"<addr>"}` once bound (port 0 picks an ephemeral
//! port), then serves `POST /v1/query`, `GET /v1/stats`,
//! `GET /v1/sessions`, and `POST /v1/shutdown` until drained. Sessions
//! route to backends by deterministic name hash; restarting the gateway
//! with the same `--backends` list (same order) routes identically.
//!
//! Pooled backend connections speak the same newline-JSON protocol as any
//! other `lca-serve` client.

// This binary's product is its stdout; the workspace print ban
// applies to library code, not report/CLI entry points.
#![allow(clippy::print_stdout)]
use std::process::ExitCode;

use lca_fleet::{Fleet, Gateway, GatewayConfig};

struct Args {
    addr: String,
    backends: Vec<String>,
    config: GatewayConfig,
    max_connections: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7500".to_owned(),
        backends: Vec::new(),
        config: GatewayConfig::default(),
        max_connections: 10_240,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--backends" => {
                args.backends = value("--backends")?
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--workers" => {
                args.config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue" => {
                args.config.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--max-connections" => {
                args.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?
            }
            "--help" | "-h" => {
                return Err(
                    "usage: lca-gateway --backends host:port[,host:port…] [--addr host:port] \
                     [--workers N] [--queue N] [--max-connections C]"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if args.backends.is_empty() {
        return Err("--backends is required (comma-separated host:port list)".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = lca_serve::raise_fd_limit(args.max_connections + 128) {
        eprintln!("warning: could not raise fd limit: {e}");
    }
    let gateway = Gateway::new(Fleet::new(args.backends), args.config);
    let listener = match std::net::TcpListener::bind(&*args.addr) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(addr) => println!("{{\"listening\":\"{addr}\"}}"),
        Err(e) => {
            eprintln!("failed to read bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = gateway.serve(listener) {
        eprintln!("gateway error: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "drained: {} HTTP responses served across {} backends",
        gateway.responses_served(),
        gateway.fleet().backend_count()
    );
    ExitCode::SUCCESS
}
