//! The serving daemon.
//!
//! ```text
//! lca-serve [--addr 127.0.0.1:7400] [--workers N] [--queue N]
//!           [--max-probes P] [--deadline-ms MS] [--adaptive-budgets]
//!           [--budget-percentile P] [--budget-floor F]
//!           [--max-connections C] [--backend epoll|sweep]
//!           [--backend-id ID] [--stdin]
//! ```
//!
//! `--max-probes`/`--deadline-ms` install a server-side default query
//! budget; requests carrying their own `max_probes`/`deadline_ms` fields
//! override it field-by-field.
//!
//! `--adaptive-budgets` starts every session with adaptive budget fitting
//! enabled: the server fits each session's `max_probes` to
//! `--budget-percentile` (default p99) of its observed probe distribution,
//! clamped to `[--budget-floor, --max-probes]`. Explicit request
//! `max_probes` always wins, and sessions can opt in or out per request
//! with the `budget_policy` field.
//!
//! TCP connections are served by `--workers` event-driven reactor loops,
//! one thread each (default: available parallelism; no per-connection
//! threads). The first loop accepts and hands each connection to the loop
//! with the fewest open; every loop answers its own connections' queries
//! inline. `--queue` bounds the queries one loop holds admitted but not yet
//! started; past it a query is answered `overloaded`. `--max-connections`
//! (default 10240) sizes the process's fd soft limit accordingly, and
//! `--backend` forces a readiness backend (default: epoll on Linux, the
//! portable sweep elsewhere).
//!
//! Every response is one newline-JSON line, on every transport.
//!
//! TCP mode prints one `{"listening": "<addr>"}` line to stdout once bound
//! (with `--addr host:0` the kernel picks the port — scrape it from that
//! line), then serves until a `{"op": "shutdown"}` request drains it.
//! `--stdin` serves requests from stdin to stdout instead — no socket, same
//! protocol — which is what the docs examples and CI smoke use.
//!
//! Protocol reference: `docs/PROTOCOL.md`.

// This binary's product is its stdout; the workspace print ban
// applies to library code, not report/CLI entry points.
#![allow(clippy::print_stdout)]
use std::process::ExitCode;
use std::sync::atomic::Ordering;

use lca_serve::server::{bind, Server, ServerConfig};

struct Args {
    addr: String,
    config: ServerConfig,
    stdin: bool,
    max_connections: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7400".to_owned(),
        config: ServerConfig::default(),
        stdin: false,
        max_connections: 10_240,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
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
            "--max-probes" => {
                args.config.default_budget.max_probes = Some(
                    value("--max-probes")?
                        .parse()
                        .map_err(|e| format!("--max-probes: {e}"))?,
                )
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
                args.config.default_budget.timeout = Some(std::time::Duration::from_millis(ms));
            }
            "--adaptive-budgets" => args.config.adaptive_budgets = true,
            "--budget-percentile" => {
                let pct: f64 = value("--budget-percentile")?
                    .parse()
                    .map_err(|e| format!("--budget-percentile: {e}"))?;
                if !(pct > 0.0 && pct <= 100.0) {
                    return Err(format!(
                        "--budget-percentile must be in (0, 100], got {pct}"
                    ));
                }
                args.config.budget_percentile = pct;
            }
            "--budget-floor" => {
                args.config.budget_floor = value("--budget-floor")?
                    .parse()
                    .map_err(|e| format!("--budget-floor: {e}"))?
            }
            "--max-connections" => {
                args.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?
            }
            "--backend" => {
                let backend = value("--backend")?;
                if backend != "epoll" && backend != "sweep" {
                    return Err(format!("--backend must be epoll or sweep, got {backend:?}"));
                }
                // The reactor's poller reads this env var at startup.
                std::env::set_var("LCA_SERVE_BACKEND", backend);
            }
            "--backend-id" => args.config.backend_id = value("--backend-id")?,
            "--stdin" => args.stdin = true,
            "--help" | "-h" => {
                return Err(
                    "usage: lca-serve [--addr host:port] [--workers N] [--queue N] \
                     [--max-probes P] [--deadline-ms MS] [--adaptive-budgets] \
                     [--budget-percentile P] [--budget-floor F] \
                     [--max-connections C] [--backend epoll|sweep] \
                     [--backend-id ID] [--stdin]"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
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
    let server = Server::new(args.config);
    if args.stdin {
        server.serve_stdio();
        return ExitCode::SUCCESS;
    }
    // Thousands of open sockets need fds: grow the soft limit toward the
    // target before binding (best-effort — the hard limit caps it).
    if let Err(e) = lca_serve::raise_fd_limit(args.max_connections + 128) {
        eprintln!("warning: could not raise fd limit: {e}");
    }
    let listener = match bind(&*args.addr) {
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
    if let Err(e) = server.serve(listener) {
        eprintln!("serve error: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "drained: {} requests served, {} sessions resident",
        server.global.requests.load(Ordering::Relaxed),
        server.registry.len()
    );
    ExitCode::SUCCESS
}
