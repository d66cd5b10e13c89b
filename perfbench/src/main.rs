//! `lca-perfbench` — the end-to-end serving benchmark for `lca-serve`.
//!
//! ```text
//! lca-perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One run samples the workload's queries from `--seed` and computes every
//! answer in-process. It then starts the daemon at `--server` [`SETUPS`]
//! times, timing each start until every session has answered its first
//! query, and keeps the last one. It drives that daemon for `--seconds`
//! over loopback TCP, checks every reply, and prints one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//!
//! `--trace 0` reports what a user sees: latency, throughput, set-up time.
//! `--trace 1` runs the same traffic and reports the probe-to-wire ledger
//! instead, measured from outside the daemon:
//!
//! ```text
//! round trip  = service (the `micros` the daemon reports: LCA compute)
//!             + outside service (wire, reactor, parse, queue, render, write)
//! service     ≈ the in-process ladder's session rung (see `ladder`)
//! ```
//!
//! plus the idle wire floor (`ping`), the daemon's own serving-cache and
//! reactor counters from `stats`, and the ladder's cost per probe at each
//! layer of the oracle stack.

mod daemon;
mod ladder;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use lca::prelude::{
    AlgorithmKind, BoxedImplicitOracle, ClassicKind, DynQuery, ImplicitFamily, LcaBuilder,
    QuerySource, Seed, SpannerKind,
};
use lca_serve::{algo_seed, input_seed};

use daemon::Daemon;
use wire::{Plan, Tally, Traffic};

/// Daemon starts per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Length of the time segments the end-to-end figures are taken over (see
/// [`end_to_end`]).
const SEGMENT_S: f64 = 1.0;

/// Worker threads the daemon runs (fixed, so results do not depend on the
/// host's core count).
const WORKERS: usize = 2;

/// Sequential pings the ledger times for the idle wire floor.
const PINGS: usize = 2_000;

/// Threads answering the query pools in-process before a run.
const PREP_THREADS: usize = 2;

/// Every session's input: implicit G(n, 4/n), never materialized.
const FAMILY: ImplicitFamily = ImplicitFamily::Gnp;
const N: usize = 1_000_000;

/// The implicit input every session of a `seed` runs over, as the daemon
/// builds it.
fn input(seed: u64) -> BoxedImplicitOracle {
    FAMILY.build(N, input_seed(seed))
}

/// One workload: the sessions, and the closed-loop traffic that reaches
/// them (each connection sends its next request as soon as a reply frees
/// a slot in its window).
struct Workload {
    name: &'static str,
    /// One session per kind; requests alternate between them.
    kinds: &'static [AlgorithmKind],
    /// Client connections, one thread each.
    conns: usize,
    /// Requests each connection keeps in flight.
    window: usize,
    /// Queries sampled per kind, cycled through in order.
    pool: usize,
    /// Schedule positions the ledger's in-process ladder replays.
    ladder_requests: u64,
}

const WORKLOADS: [Workload; 3] = [
    // Memos and the serving cache absorb almost every probe: the steady,
    // wire-bound path of a warmed session.
    Workload {
        name: "hot-classic",
        kinds: &[
            AlgorithmKind::Classic(ClassicKind::Mis),
            AlgorithmKind::Classic(ClassicKind::Matching),
        ],
        conns: 4,
        window: 1,
        pool: 256,
        ladder_requests: 20_000,
    },
    // Hundreds of probes per query, no cross-query memo: LCA compute over
    // the serving cache dominates each round trip.
    Workload {
        name: "heavy-k2",
        kinds: &[AlgorithmKind::Spanner(SpannerKind::K2)],
        conns: 2,
        window: 1,
        pool: 4_096,
        ladder_requests: 2_000,
    },
    // Few-probe spanner queries, pipelined: the reactor, parser and writer
    // carry the load, not the LCA.
    Workload {
        name: "wire-pipelined",
        kinds: &[
            AlgorithmKind::Spanner(SpannerKind::Three),
            AlgorithmKind::Spanner(SpannerKind::Five),
        ],
        conns: 2,
        window: 16,
        pool: 1_024,
        ladder_requests: 20_000,
    },
];

struct Args {
    server: PathBuf,
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Samples each kind's queries from `seed` and answers them in-process over
/// the same implicit input the daemon will build.
fn traffic(w: &Workload, seed: u64) -> Traffic {
    let oracle = input(seed);
    let pools: Vec<Vec<DynQuery>> = w
        .kinds
        .iter()
        .enumerate()
        .map(|(ki, &kind)| {
            let sampling = Seed::new(seed).derive2(0x5045_5246, ki as u64);
            QuerySource::sample(w.pool, sampling).queries(kind, &oracle)
        })
        .collect();
    // An answer is a pure function of its query, so independent instances
    // can answer chunks of a pool in parallel.
    let oracle = &oracle;
    let answers: Vec<Vec<bool>> = std::thread::scope(|s| {
        let handles: Vec<Vec<_>> = w
            .kinds
            .iter()
            .zip(&pools)
            .map(|(&kind, pool)| {
                pool.chunks(pool.len().div_ceil(PREP_THREADS).max(1))
                    .map(|chunk| {
                        s.spawn(move || {
                            let algo = LcaBuilder::new(kind).seed(algo_seed(seed)).build(oracle);
                            chunk
                                .iter()
                                .map(|&q| algo.query(q).expect("unbudgeted in-process query"))
                                .collect::<Vec<bool>>()
                        })
                    })
                    .collect()
            })
            .collect();
        handles
            .into_iter()
            .map(|chunks| {
                chunks
                    .into_iter()
                    .flat_map(|h| h.join().expect("answering thread panicked"))
                    .collect()
            })
            .collect()
    });
    let plans = w
        .kinds
        .iter()
        .zip(pools.into_iter().zip(answers))
        .map(|(&kind, (queries, expected))| Plan {
            kind,
            session: format!("perfbench-{}", kind.name()),
            spec: format!(
                "\"kind\":\"{}\",\"family\":\"{}\",\"n\":{N},\"seed\":{seed}",
                kind.name(),
                FAMILY.name(),
            ),
            queries,
            expected,
        })
        .collect();
    Traffic { plans }
}

/// Starts a daemon and sends each session its first, spec-bearing request
/// (which builds the session). Returns the daemon and the seconds it took.
fn set_up(args: &Args, traffic: &Traffic) -> Result<(Daemon, f64), String> {
    let start = Instant::now();
    let daemon = Daemon::start(&args.server, WORKERS)
        .map_err(|e| format!("starting {}: {e}", args.server.display()))?;
    let (mut writer, mut reader) =
        wire::connect(&daemon.addr).map_err(|e| format!("connecting: {e}"))?;
    let mut line = String::new();
    for id in 0..traffic.plans.len() as u64 {
        line.clear();
        traffic.push_request(id, true, &mut line);
        let reply = wire::call(&mut writer, &mut reader, &line)
            .map_err(|e| format!("first request: {e}"))?;
        if wire::parse_reply(&reply).answer != Some(traffic.expected(id)) {
            return Err(format!("first request {id} answered {}", reply.trim()));
        }
    }
    Ok((daemon, start.elapsed().as_secs_f64()))
}

/// Drives the timed window against `addr`.
fn drive(addr: &str, w: &Workload, traffic: &Traffic, seconds: f64) -> Tally {
    let epoch = Instant::now();
    let stop = epoch + Duration::from_secs_f64(seconds);
    let next = AtomicU64::new(0);
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.conns)
            .map(|_| {
                let next = &next;
                s.spawn(move || wire::closed(addr, traffic, w.window, next, stop, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traffic thread panicked"))
            .collect()
    });
    let mut total = Tally::default();
    for tally in tallies {
        total.merge(tally);
    }
    total
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The first quartile of `values` counted from the better end: the
/// figure that a quarter of the measurements matched or beat.
fn quiet_quartile(mut values: Vec<f64>, lower_is_better: bool) -> f64 {
    values.sort_by(f64::total_cmp);
    if !lower_is_better {
        values.reverse();
    }
    values[values.len() / 4]
}

fn mean(values: impl Iterator<Item = u64>) -> f64 {
    let (sum, count) = values.fold((0u128, 0u64), |(s, c), v| (s + u128::from(v), c + 1));
    sum as f64 / count.max(1) as f64
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What a user of the daemon sees.
fn end_to_end(tally: &Tally, seconds: f64, setup_s: f64) -> Vec<Metric> {
    // Figures per time segment, then the quartile of segments least
    // disturbed by a shared host's stolen time: a slow stretch of the run
    // moves that far less than it moves whole-window figures, while a
    // slower program moves every segment. Replies drained after the window
    // count in the last segment.
    let count = ((seconds / SEGMENT_S).round() as usize).max(4);
    let segment_s = seconds / count as f64;
    let mut segments: Vec<Vec<u64>> = vec![Vec::new(); count];
    for s in &tally.samples {
        let i = ((s.done_ns as f64 / 1e9 / segment_s) as usize).min(count - 1);
        segments[i].push(s.rtt_ns);
    }
    for segment in &mut segments {
        segment.sort_unstable();
    }
    let least_disturbed = |per_segment: &dyn Fn(&[u64]) -> f64, lower_is_better: bool| {
        quiet_quartile(
            segments.iter().map(|s| per_segment(s)).collect(),
            lower_is_better,
        )
    };
    let latency_us = |q: f64| move |segment: &[u64]| percentile(segment, q) as f64 / 1e3;
    let throughput = |segment: &[u64]| segment.len() as f64 / segment_s;
    vec![
        (
            "latency_p50_us",
            least_disturbed(&latency_us(0.50), true),
            "us",
        ),
        (
            "latency_p90_us",
            least_disturbed(&latency_us(0.90), true),
            "us",
        ),
        ("throughput_rps", least_disturbed(&throughput, false), "1/s"),
        ("setup_s", setup_s, "s"),
    ]
}

/// The ledger's measurements that need the live daemon after the timed
/// window: the idle wire floor and the daemon's own counters.
struct Probed {
    ping_p50_ns: u64,
    cache_hit_rate: f64,
    completions_per_wake: f64,
    syscalls_per_response: f64,
}

fn probe_daemon(daemon: &Daemon) -> Result<Probed, String> {
    let stats = daemon
        .request("{\"op\":\"stats\"}\n")
        .map_err(|e| format!("stats: {e}"))?;
    let field =
        |key| wire::number_field(&stats, key).ok_or_else(|| format!("stats lacks {key}: {stats}"));
    let (mut writer, mut reader) = wire::connect(&daemon.addr).map_err(|e| format!("ping: {e}"))?;
    let mut pings = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let sent = Instant::now();
        wire::call(&mut writer, &mut reader, "{\"op\":\"ping\"}\n")
            .map_err(|e| format!("ping: {e}"))?;
        pings.push(sent.elapsed().as_nanos() as u64);
    }
    pings.sort_unstable();
    Ok(Probed {
        ping_p50_ns: percentile(&pings, 0.50),
        cache_hit_rate: field("cache_hit_rate_total")?,
        completions_per_wake: field("completions_per_wake")?,
        syscalls_per_response: field("syscalls_per_response")?,
    })
}

/// The probe-to-wire ledger.
fn per_layer(tally: &Tally, probed: &Probed, ladder: &ladder::Ladder) -> Vec<Metric> {
    let samples = &tally.samples;
    let rtt_us = mean(samples.iter().map(|s| s.rtt_ns)) / 1e3;
    let service_us = mean(samples.iter().map(|s| s.service_ns)) / 1e3;
    let service_ns_total: u64 = samples.iter().map(|s| s.service_ns).sum();
    let probes_total: u64 = samples.iter().map(|s| s.probes).sum();
    let probes_per_request = mean(samples.iter().map(|s| s.probes));
    let ns_per_probe = service_ns_total as f64 / probes_total.max(1) as f64;
    vec![
        ("rtt_mean_us", rtt_us, "us"),
        ("service_mean_us", service_us, "us"),
        ("outside_service_mean_us", rtt_us - service_us, "us"),
        (
            "outside_service_share",
            (rtt_us - service_us) / rtt_us,
            "ratio",
        ),
        ("ping_rtt_p50_us", probed.ping_p50_ns as f64 / 1e3, "us"),
        ("served_probes_per_request", probes_per_request, "count"),
        ("service_ns_per_probe", ns_per_probe, "ns"),
        ("serving_cache_hit_rate", probed.cache_hit_rate, "ratio"),
        ("completions_per_wake", probed.completions_per_wake, "count"),
        (
            "write_syscalls_per_response",
            probed.syscalls_per_response,
            "count",
        ),
        (
            "ladder_implicit_ns_per_probe",
            ladder.implicit_ns_per_probe,
            "ns",
        ),
        (
            "ladder_cached_ns_per_probe",
            ladder.cached_ns_per_probe,
            "ns",
        ),
        (
            "ladder_session_ns_per_probe",
            ladder.session_ns_per_probe,
            "ns",
        ),
        (
            "ladder_session_us_per_request",
            ladder.session_us_per_request,
            "us",
        ),
        (
            "ladder_probes_per_request",
            ladder.probes_per_request,
            "count",
        ),
    ]
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let prep = Instant::now();
    let traffic = traffic(w, args.seed);
    eprintln!(
        "perfbench {}: {} queries sampled and answered in-process in {:.2} s",
        w.name,
        traffic.plans.iter().map(|p| p.queries.len()).sum::<usize>(),
        prep.elapsed().as_secs_f64()
    );

    let mut setups = Vec::with_capacity(SETUPS);
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some(previous) = daemon.take() {
            Daemon::stop(previous).map_err(|e| format!("stopping a set-up daemon: {e}"))?;
        }
        let (started, seconds) = set_up(args, &traffic)?;
        setups.push(seconds);
        daemon = Some(started);
    }
    let daemon = daemon.expect("at least one set-up");
    setups.sort_by(f64::total_cmp);
    let setup_s = setups[SETUPS / 2];

    let tally = drive(&daemon.addr, w, &traffic, args.seconds);
    if let Some(why) = &tally.first_failure {
        eprintln!("perfbench {}: first failure: {why}", w.name);
    }
    let mut failed = tally.failed;
    let metrics = if args.trace {
        let probed = probe_daemon(&daemon)?;
        let requests = w.ladder_requests.min(tally.attempted);
        let ladder = ladder::climb(&traffic, args.seed, requests);
        if ladder.mismatches > 0 {
            eprintln!(
                "perfbench {}: {} in-process ladder answers differ",
                w.name, ladder.mismatches
            );
            failed += ladder.mismatches;
        }
        per_layer(&tally, &probed, &ladder)
    } else {
        end_to_end(&tally, args.seconds, setup_s)
    };
    daemon
        .stop()
        .map_err(|e| format!("stopping the daemon: {e}"))?;

    eprintln!(
        "perfbench {}: {} attempted, {} answered, {} failed, set-up median {:.4} s",
        w.name,
        tally.attempted,
        tally.samples.len(),
        failed,
        setup_s
    );
    let mut rendered = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        rendered.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    let correct = failed == 0 && tally.attempted > 0 && !tally.samples.is_empty();
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        rendered.join(",")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lca-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lca-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
