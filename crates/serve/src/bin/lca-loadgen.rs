//! The load generator.
//!
//! ```text
//! lca-loadgen --addr 127.0.0.1:7400 [--requests 1000] [--concurrency 4]
//!             [--connections C] [--mix mis,spanner3] [--family gnp]
//!             [--n 1000000] [--seed 7] [--knob C] [--rate QPS]
//!             [--max-probes P] [--budget-policy POLICY] [--verify]
//!             [--session PREFIX] [--pool N] [--shutdown]
//!             [--target http://host:port]
//! ```
//!
//! `--budget-policy` sends the `budget_policy` field with every request
//! (`off`, `adaptive`, or a percentile like `p95`), asking the server to
//! fit each session's probe budget to its observed distribution; `--verify`
//! stays sound because server-chosen budgets are tolerated exactly like
//! server-side defaults (answers must still match).
//!
//! `--target http://host:port` points the same traffic shapes at an
//! `lca-gateway` over HTTP/1.1 (`POST /v1/query` per request) instead of
//! raw newline-JSON — one tool measures both serving tiers. `--shutdown`
//! then drains the *gateway* (`POST /v1/shutdown`), not its backends.
//!
//! Drives an `lca-serve` daemon closed-loop (default), open-loop
//! (`--rate`), or in high-fan-in mode (`--connections C`: C sockets held
//! open simultaneously across the `--concurrency` sender threads, one
//! in-flight request per socket — the C10k probe; the process raises its
//! own fd soft limit to fit). Prints the machine-readable [`LoadReport`]
//! as one JSON line,
//! then the server's `stats` object on a second line. `--verify` recomputes
//! every answer locally through `LcaBuilder` and counts mismatches;
//! `--shutdown` drains the daemon afterwards. Exit code is nonzero when
//! anything went wrong: protocol errors, mismatches, or zero throughput —
//! which is what the CI smoke step asserts.

use std::process::ExitCode;

use lca::prelude::{AlgorithmKind, ImplicitFamily};
use lca_serve::loadgen::{run, send_shutdown, LoadReport, LoadgenConfig};

struct Args {
    addr: String,
    cfg: LoadgenConfig,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7400".to_owned(),
        cfg: LoadgenConfig::default(),
        shutdown: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--target" => {
                let target = value("--target")?;
                let Some(addr) = target.strip_prefix("http://") else {
                    return Err(format!(
                        "--target must be http://host:port, got {target:?} \
                         (use --addr for raw newline-JSON)"
                    ));
                };
                args.addr = addr.trim_end_matches('/').to_owned();
                args.cfg.http = true;
            }
            "--requests" => {
                args.cfg.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--concurrency" => {
                args.cfg.concurrency = value("--concurrency")?
                    .parse()
                    .map_err(|e| format!("--concurrency: {e}"))?
            }
            "--connections" => {
                args.cfg.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("--connections: {e}"))?
            }
            "--mix" => {
                let spec = value("--mix")?;
                let mut kinds = Vec::new();
                for name in spec.split(',') {
                    kinds.push(
                        AlgorithmKind::parse(name.trim())
                            .ok_or_else(|| format!("--mix: unknown kind {name:?}"))?,
                    );
                }
                if kinds.is_empty() {
                    return Err("--mix needs at least one kind".to_owned());
                }
                args.cfg.kinds = kinds;
            }
            "--family" => {
                let name = value("--family")?;
                args.cfg.family = ImplicitFamily::parse(&name)
                    .ok_or_else(|| format!("--family: unknown family {name:?}"))?;
            }
            "--n" => args.cfg.n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
            "--seed" => {
                args.cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--knob" => {
                args.cfg.knob = Some(
                    value("--knob")?
                        .parse()
                        .map_err(|e| format!("--knob: {e}"))?,
                )
            }
            "--rate" => {
                args.cfg.rate = Some(
                    value("--rate")?
                        .parse()
                        .map_err(|e| format!("--rate: {e}"))?,
                )
            }
            "--max-probes" => {
                args.cfg.max_probes = Some(
                    value("--max-probes")?
                        .parse()
                        .map_err(|e| format!("--max-probes: {e}"))?,
                )
            }
            "--budget-policy" => {
                let policy = value("--budget-policy")?;
                if lca_serve::budget::BudgetPolicy::parse(&policy).is_none() {
                    return Err(format!(
                        "--budget-policy: unknown policy {policy:?} \
                         (use off, adaptive, or pNN like p95)"
                    ));
                }
                args.cfg.budget_policy = Some(policy);
            }
            "--verify" => args.cfg.verify = true,
            "--session" => args.cfg.session_prefix = value("--session")?,
            "--pool" => {
                args.cfg.query_pool = value("--pool")?
                    .parse()
                    .map_err(|e| format!("--pool: {e}"))?
            }
            "--shutdown" => args.shutdown = true,
            "--help" | "-h" => {
                return Err(
                    "usage: lca-loadgen --addr host:port [--requests N] [--concurrency C] \
                     [--connections C] [--mix k1,k2] [--family F] [--n N] [--seed S] [--knob X] \
                     [--rate QPS] [--max-probes P] [--budget-policy POLICY] [--verify] \
                     [--session PREFIX] [--pool N] \
                     [--shutdown] [--target http://host:port]"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn healthy(report: &LoadReport) -> bool {
    report.ok > 0 && report.qps > 0.0 && report.errors == 0 && report.mismatches == 0
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.cfg.connections > 0 {
        // Fan-in mode needs its sockets to fit under the fd soft limit;
        // each connection costs two fds (the stream plus its try_clone
        // writer dup).
        if let Err(e) = lca_serve::raise_fd_limit(2 * args.cfg.connections as u64 + 128) {
            eprintln!("warning: could not raise fd limit: {e}");
        }
    }
    let outcome = run(&args.addr, &args.cfg);
    if args.shutdown {
        let result = if args.cfg.http {
            lca_serve::loadgen::send_shutdown_http(&args.addr)
        } else {
            send_shutdown(&args.addr)
        };
        if let Err(e) = result {
            eprintln!("shutdown request failed: {e}");
        }
    }
    match outcome {
        Ok(run) => {
            // Reports are routinely piped (`| head`, `| jq`): a closed pipe
            // must not panic the exit-code contract away.
            use std::io::Write as _;
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            let report = serde_json::to_string(&run.report).expect("report renders");
            let _ = writeln!(out, "{report}");
            if let Some(stats) = &run.server_stats {
                let mut line = String::new();
                stats.render(&mut line);
                let _ = writeln!(out, "{line}");
            }
            let _ = out.flush();
            drop(out);
            if healthy(&run.report) {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "unhealthy run: ok={} errors={} mismatches={} qps={:.1}",
                    run.report.ok, run.report.errors, run.report.mismatches, run.report.qps
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("loadgen transport error: {e}");
            ExitCode::FAILURE
        }
    }
}
