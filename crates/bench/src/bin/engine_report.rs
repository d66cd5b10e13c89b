//! The unified-API serving report: every registered algorithm, constructed
//! through the registry and served through the `QueryEngine`, with raw and
//! distinct probe measures for the spanners and batch timings for all.
//!
//! Run: `cargo run --release -p lca-bench --bin engine_report`
//!
//! With `--implicit`, the same seven algorithms are served against a
//! generator-backed implicit G(n, c/n) oracle at n = 10⁷ instead of a
//! materialized graph — sampled query batches, measured probes, and peak
//! RSS as the no-materialization witness.
//! Run: `cargo run --release -p lca-bench --bin engine_report -- --implicit`
//!
//! With `--serve`, an `lca-serve` daemon is spun up in-process on an
//! ephemeral port and driven end-to-end by the closed-loop load generator
//! (mixed algorithm traffic over an implicit G(n, c/n) session per kind,
//! every answer verified against a direct `LcaBuilder` query), then its
//! `stats` are reported per session. See `docs/PROTOCOL.md` for the wire
//! format.
//! Run: `cargo run --release -p lca-bench --bin engine_report -- --serve`
//!
//! With `--fleet`, two backends plus the `lca-gateway` HTTP front end run
//! in-process and the same verified mixed load is driven twice — once
//! directly at a backend over raw TCP, once through the gateway over
//! HTTP — so the snapshot records fleet qps/latency *and* the gateway's
//! overhead against the direct path, plus the per-shard routing
//! histogram. See the fleet-topology section of `docs/ARCHITECTURE.md`.
//! Run: `cargo run --release -p lca-bench --bin engine_report -- --fleet`

// This binary's product is its stdout; the workspace print ban
// applies to library code, not report/CLI entry points.
#![allow(clippy::print_stdout)]
use std::time::Instant;

use lca::core::DynQuery;
use lca::prelude::*;
use lca_bench::{peak_rss_bytes, record_json, write_json, Table};
use lca_core::{measure_queries_distinct, QueryEngine};

/// One algorithm's row of the machine-readable `BENCH_engine*.json`
/// trajectory snapshot: throughput, probe/latency percentiles, and the
/// exhaustion rate under a median probe budget.
#[derive(serde::Serialize)]
struct TrajectoryRow {
    algorithm: String,
    query_kind: String,
    queries: usize,
    qps: f64,
    ns_per_probe: f64,
    probes_p50: u64,
    probes_p99: u64,
    latency_p50_us: u64,
    latency_p99_us: u64,
    budget_probes: u64,
    exhaustion_rate: f64,
}

#[derive(serde::Serialize)]
struct Trajectory {
    mode: String,
    n: usize,
    rows: Vec<TrajectoryRow>,
}

fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Measures one kind's trajectory row in three passes: a serial pass over
/// one shared instance for serving qps and latency percentiles; a *cold*
/// probe pass (fresh instance per query, so cross-query memos cannot hide
/// costs) for the probe percentiles; and a budgeted serial batch capped
/// at the cold median for the exhaustion rate. That batch runs on one
/// thread over one instance: a classic kind's memo then fills in query
/// order, so the rate is the same on every run (shared by threads, the
/// memo filled in whatever order they ran, and so did the rate).
fn trajectory_row(
    config: &LcaConfig,
    oracle: &(impl Oracle + Clone + Send + Sync),
    queries: &[DynQuery],
) -> TrajectoryRow {
    // The serial pass runs through a counting decorator so the snapshot can
    // report amortized wall time per probe actually issued — the probe
    // pipeline's headline number (counter overhead is two relaxed atomic
    // adds per probe, noise next to a query).
    let probe_counter = CountingOracle::new(oracle);
    let shared = config.build(&probe_counter);
    let mut lats: Vec<u64> = Vec::with_capacity(queries.len());
    let t = Instant::now();
    for &q in queries {
        let started = Instant::now();
        shared.query(q).expect("trajectory query in range");
        lats.push(started.elapsed().as_micros() as u64);
    }
    let elapsed = t.elapsed().as_secs_f64();
    let probes_total = probe_counter.counts().total();
    lats.sort_unstable();

    let cold_sample = &queries[..queries.len().min(256)];
    let mut probes: Vec<u64> = Vec::with_capacity(cold_sample.len());
    for &q in cold_sample {
        let cold = config.build(oracle);
        let ctx = QueryCtx::unlimited();
        cold.query_ctx(q, &ctx).expect("trajectory query in range");
        probes.push(ctx.spent());
    }
    probes.sort_unstable();
    let budget_probes = pct(&probes, 0.5).max(1);

    let budgeted = config.build(oracle);
    let run = QueryEngine::serial().query_batch_budgeted(
        &budgeted,
        queries,
        &QueryBudget::max_probes(budget_probes),
    );
    TrajectoryRow {
        algorithm: config.kind.name().to_owned(),
        query_kind: config.kind.query_kind().to_string(),
        queries: queries.len(),
        qps: if elapsed > 0.0 {
            queries.len() as f64 / elapsed
        } else {
            0.0
        },
        ns_per_probe: if probes_total > 0 {
            elapsed * 1e9 / probes_total as f64
        } else {
            0.0
        },
        probes_p50: pct(&probes, 0.5),
        probes_p99: pct(&probes, 0.99),
        latency_p50_us: pct(&lats, 0.5),
        latency_p99_us: pct(&lats, 0.99),
        budget_probes,
        exhaustion_rate: run.exhaustion_rate(),
    }
}

#[derive(serde::Serialize)]
struct Row {
    algorithm: String,
    query_kind: String,
    probe_bound: String,
    queries: usize,
    yes_answers: usize,
    batch_ms: f64,
    probe_mean: f64,
    probe_max: u64,
    distinct_mean: f64,
    distinct_max: u64,
    shards: usize,
}

#[derive(serde::Serialize)]
struct ImplicitRow {
    algorithm: &'static str,
    query_kind: String,
    n: usize,
    queries: usize,
    yes_answers: usize,
    batch_ms: f64,
    probe_mean: f64,
    probe_max: u64,
    shards: usize,
    peak_rss_mb: f64,
}

/// The `--implicit` report: sampled batches over a G(n, c/n) oracle that is
/// never materialized.
fn implicit_report() {
    let n = 10_000_000;
    let c = 6.0;
    let seed = Seed::new(0x11CB);
    let oracle = ImplicitGnp::new(n, c, seed.derive(0));
    let engine = QueryEngine::with_threads(4);
    println!(
        "implicit serving report: G(n = {n}, c = {c}), {} slots, engine threads = {}",
        oracle.slots(),
        engine.threads()
    );

    let mut table = Table::new([
        "algorithm",
        "kind",
        "queries",
        "yes",
        "batch ms",
        "probes mean",
        "probes max",
        "shards",
        "peak RSS MB",
    ]);
    let mut trajectory = Vec::new();
    for kind in AlgorithmKind::all() {
        let config = LcaConfig::new(kind, seed);
        let queries: Vec<DynQuery> =
            kind.queries_from(&oracle, QuerySource::sample(512, seed.derive(1)));
        trajectory.push(trajectory_row(&config, &&oracle, &queries));

        let algo = config.build(&oracle);
        let t = Instant::now();
        let answers = engine.query_batch(&algo, &queries);
        let batch_ms = t.elapsed().as_secs_f64() * 1e3;
        let yes = answers.iter().filter(|a| **a == Ok(true)).count();

        let run = engine.measure_batch(&queries, &oracle, |counted| config.build(counted));

        let row = ImplicitRow {
            algorithm: kind.name(),
            query_kind: kind.query_kind().to_string(),
            n,
            queries: queries.len(),
            yes_answers: yes,
            batch_ms,
            probe_mean: run.per_query_mean,
            probe_max: run.per_query_max,
            shards: run.per_shard.len(),
            peak_rss_mb: peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1 << 20) as f64),
        };
        table.row([
            row.algorithm.to_string(),
            row.query_kind.clone(),
            row.queries.to_string(),
            row.yes_answers.to_string(),
            format!("{:.1}", row.batch_ms),
            format!("{:.1}", row.probe_mean),
            row.probe_max.to_string(),
            row.shards.to_string(),
            format!("{:.0}", row.peak_rss_mb),
        ]);
        record_json("engine_report_implicit", &row);
    }
    write_json(
        "BENCH_engine_implicit",
        &Trajectory {
            mode: "implicit".to_owned(),
            n,
            rows: trajectory,
        },
    );
    table.print("Unified API over an implicit oracle — no graph was materialized");
    println!("\n(queries are sampled through O(1) probes each; RSS is the whole process —");
    println!("the 10^7-vertex input itself occupies zero bytes beyond its seed.)");
}

#[derive(serde::Serialize)]
struct ServeRow {
    session: String,
    kind: String,
    queries: u64,
    qps: f64,
    latency_p50_us: u64,
    latency_p99_us: u64,
    probes_p50: u64,
    probes_p99: u64,
    cache_hit_rate: f64,
    errors: u64,
}

/// The `--serve` report: daemon + load generator end-to-end, in-process.
/// Five passes — unbudgeted, budget-starved, many-connection fan-in (the
/// C10k witness, with the syscall-budget ratios measured over its window),
/// and a fixed-vs-adaptive budget pair on the heavy-tailed kinds (cold-median client budget against a `--adaptive-budgets` daemon
/// fitting p99) — all fully verified.
fn serve_report() {
    use lca_serve::loadgen::{self, LoadgenConfig};
    use lca_serve::server::{bind, Server, ServerConfig};

    // The fan-in pass holds >2000 sockets (both ends in-process).
    lca_serve::raise_fd_limit(8192).expect("raise fd limit");
    let listener = bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = Server::new(ServerConfig::default());
    let serve_loop = {
        let server = server.clone();
        std::thread::spawn(move || server.serve(listener).expect("serve loop"))
    };

    let cfg = LoadgenConfig {
        requests: 4_000,
        concurrency: 4,
        kinds: vec![
            AlgorithmKind::Classic(ClassicKind::Mis),
            AlgorithmKind::Classic(ClassicKind::Matching),
            AlgorithmKind::Spanner(SpannerKind::Three),
            AlgorithmKind::Spanner(SpannerKind::Five),
        ],
        family: ImplicitFamily::Gnp,
        n: 1_000_000,
        seed: 0x11CC,
        verify: true,
        ..LoadgenConfig::default()
    };
    println!(
        "serving report: lca-serve @ {addr}, {} requests x {} connections, implicit G(n = {}, c/n), verify on",
        cfg.requests, cfg.concurrency, cfg.n
    );
    let run = loadgen::run(&addr, &cfg).expect("loadgen run");

    let r = &run.report;
    assert_eq!(r.errors, 0, "protocol errors during serve report");
    assert_eq!(
        r.mismatches, 0,
        "served answers diverged from direct queries"
    );
    println!(
        "loadgen: {} ok / {} requests, {:.0} qps, p50 {} µs, p99 {} µs, {} overloaded",
        r.ok, r.requests, r.qps, r.p50_us, r.p99_us, r.overloaded
    );
    record_json("engine_report_serve_load", r);

    // A second, budget-starved pass: fresh sessions under a tight per-query
    // probe cap, still fully verified (budget trips are tolerated exactly
    // when a cold local run trips too). This is the tail-latency story of
    // the budget redesign, recorded in the trajectory snapshot.
    let budgeted_cfg = LoadgenConfig {
        max_probes: Some(48),
        session_prefix: "budgeted".to_owned(),
        ..cfg.clone()
    };
    let budgeted = loadgen::run(&addr, &budgeted_cfg).expect("budgeted loadgen run");
    let b = &budgeted.report;
    assert_eq!(b.errors, 0, "protocol errors during budgeted serve report");
    assert_eq!(b.mismatches, 0, "budgeted answers diverged");
    println!(
        "budgeted loadgen (max_probes=48): {} ok, {} budget-exhausted ({:.1}%), {:.0} qps",
        b.ok,
        b.budget_exhausted,
        100.0 * b.budget_exhausted as f64 / b.requests.max(1) as f64,
        b.qps
    );

    // Third pass: the many-connection fan-in scenario. 1000 sockets held
    // open simultaneously against the default number of reactor loops, one
    // in-flight request per socket, every answer verified — the C10k
    // claim measured rather than asserted (`connections_open` is sampled
    // from the server's stats while all sockets are open). A stats
    // snapshot taken just before lets the syscall-budget ratios be
    // computed over exactly the fan-in window.
    let pre_fan = loadgen::fetch_stats(&addr).expect("pre-fan-in stats snapshot");
    let fan_cfg = LoadgenConfig {
        requests: 4_000,
        concurrency: 4,
        connections: 1_000,
        session_prefix: "fanin".to_owned(),
        max_probes: None,
        ..cfg.clone()
    };
    let fan = loadgen::run(&addr, &fan_cfg).expect("fan-in loadgen run");
    let f = &fan.report;
    assert_eq!(f.errors, 0, "protocol errors during fan-in serve report");
    assert_eq!(f.mismatches, 0, "fan-in answers diverged");
    let connections_open_at_peak = fan
        .server_stats
        .as_ref()
        .and_then(|s| s.get("stats"))
        .and_then(|g| g.get("connections_open"))
        .and_then(serde::Json::as_u64)
        .unwrap_or(0);
    assert!(
        connections_open_at_peak >= fan_cfg.connections as u64,
        "held {connections_open_at_peak} connections, wanted ≥ {}",
        fan_cfg.connections
    );
    println!(
        "fan-in loadgen ({} connections): {} ok, {:.0} qps, p99 {} µs, {} open at stats time",
        f.connections, f.ok, f.qps, f.p99_us, connections_open_at_peak
    );

    // The syscall budget over the fan-in window: counter deltas between
    // the pre-pass snapshot and the mid-run capture. Batched completion
    // drains plus coalesced vectored flushes must keep the hot path under
    // 1.5 write syscalls per response (1.0 = every response shared or
    // owned exactly one writev).
    let counter = |stats: &serde::Json, key: &str| {
        stats
            .get("stats")
            .and_then(|g| g.get(key))
            .and_then(serde::Json::as_u64)
            .unwrap_or(0)
    };
    let fan_stats = fan.server_stats.as_ref().expect("mid-run fan-in stats");
    let delta = |key: &str| counter(fan_stats, key).saturating_sub(counter(&pre_fan, key)) as f64;
    let syscalls_per_response = delta("write_syscalls") / delta("responses").max(1.0);
    let completions_per_wake = delta("completions_delivered") / delta("reactor_wakeups").max(1.0);
    assert!(
        syscalls_per_response < 1.5,
        "fan-in hot path spent {syscalls_per_response:.3} write syscalls per response (want < 1.5)"
    );
    println!(
        "syscall budget (fan-in window): {syscalls_per_response:.3} write syscalls/response, \
         {completions_per_wake:.2} completions/wake"
    );

    // Fourth pass pair: fixed versus adaptive budgets on the heavy-tailed
    // kinds. A hand-picked budget equal to the *cold median* probe cost
    // exhausts roughly half of all-distinct cold traffic by construction;
    // a server fitting each session's budget to its observed p99 should
    // claw almost all of that back — at zero verified-answer mismatches.
    let tail_kinds = vec![
        AlgorithmKind::Spanner(SpannerKind::K2),
        AlgorithmKind::Classic(ClassicKind::Coloring),
    ];

    // The cold median, measured exactly the way the daemon executes: the
    // session's derived seeds, a fresh instance per query (no cross-query
    // memos), an unlimited probe context.
    let tail_oracle = ImplicitFamily::Gnp.build(cfg.n, lca_serve::input_seed(cfg.seed));
    let mut tail_probes: Vec<u64> = Vec::new();
    for &kind in &tail_kinds {
        let config = LcaConfig::new(kind, lca_serve::algo_seed(cfg.seed));
        let queries = kind.queries_from(&tail_oracle, QuerySource::sample(128, Seed::new(0xC01D)));
        for &q in &queries {
            let cold = config.build(&tail_oracle);
            let ctx = QueryCtx::unlimited();
            cold.query_ctx(q, &ctx).expect("cold tail query");
            tail_probes.push(ctx.spent());
        }
    }
    tail_probes.sort_unstable();
    let tail_budget_probes = pct(&tail_probes, 0.5).max(1);

    let tail_requests = 1_200;
    let fixed_cfg = LoadgenConfig {
        requests: tail_requests,
        kinds: tail_kinds.clone(),
        max_probes: Some(tail_budget_probes),
        session_prefix: "fixedtail".to_owned(),
        query_pool: tail_requests,
        connections: 0,
        ..cfg.clone()
    };
    let fixed = loadgen::run(&addr, &fixed_cfg).expect("fixed-tail loadgen run");
    let fx = &fixed.report;
    assert_eq!(fx.errors, 0, "protocol errors during fixed-tail report");
    assert_eq!(fx.mismatches, 0, "fixed-tail answers diverged");
    let fixed_exhaustion_rate = fx.budget_exhausted as f64 / fx.requests.max(1) as f64;
    println!(
        "fixed tail (max_probes={tail_budget_probes}, cold median): {} ok, {} budget-exhausted ({:.1}%)",
        fx.ok,
        fx.budget_exhausted,
        100.0 * fixed_exhaustion_rate
    );

    // The adaptive daemon: same workload, no client budget — the server
    // observes each session's probe histogram and fits max_probes to p99.
    let adaptive_listener = bind("127.0.0.1:0").expect("bind adaptive port");
    let adaptive_addr = adaptive_listener
        .local_addr()
        .expect("local addr")
        .to_string();
    let adaptive_server = Server::new(ServerConfig {
        adaptive_budgets: true,
        ..ServerConfig::default()
    });
    let adaptive_loop = {
        let server = adaptive_server.clone();
        std::thread::spawn(move || {
            server
                .serve(adaptive_listener)
                .expect("adaptive serve loop")
        })
    };
    let adaptive_cfg = LoadgenConfig {
        max_probes: None,
        session_prefix: "adaptivetail".to_owned(),
        ..fixed_cfg.clone()
    };
    let adaptive = loadgen::run(&adaptive_addr, &adaptive_cfg).expect("adaptive-tail loadgen run");
    let ad = &adaptive.report;
    assert_eq!(ad.errors, 0, "protocol errors during adaptive-tail report");
    assert_eq!(ad.mismatches, 0, "adaptive-tail answers diverged");
    let adaptive_exhaustion_rate = ad.budget_exhausted as f64 / ad.requests.max(1) as f64;
    assert!(
        adaptive_exhaustion_rate < fixed_exhaustion_rate,
        "adaptive budgets must beat the fixed cold-median budget: \
         adaptive {adaptive_exhaustion_rate:.3} vs fixed {fixed_exhaustion_rate:.3}"
    );
    println!(
        "adaptive tail (--adaptive-budgets, p99 fit): {} ok, {} budget-exhausted ({:.1}%) — vs {:.1}% fixed",
        ad.ok,
        ad.budget_exhausted,
        100.0 * adaptive_exhaustion_rate,
        100.0 * fixed_exhaustion_rate
    );
    loadgen::send_shutdown(&adaptive_addr).expect("adaptive shutdown");
    adaptive_loop.join().expect("adaptive drains");

    #[derive(serde::Serialize)]
    struct ServeTrajectory {
        mode: String,
        n: usize,
        unbudgeted: lca_serve::loadgen::LoadReport,
        budgeted: lca_serve::loadgen::LoadReport,
        budget_probes: u64,
        exhaustion_rate: f64,
        fan_in: lca_serve::loadgen::LoadReport,
        fan_in_connections: usize,
        connections_open_at_peak: u64,
        syscalls_per_response: f64,
        completions_per_wake: f64,
        fixed_tail: lca_serve::loadgen::LoadReport,
        adaptive_tail: lca_serve::loadgen::LoadReport,
        tail_budget_probes: u64,
        fixed_exhaustion_rate: f64,
        adaptive_exhaustion_rate: f64,
    }
    write_json(
        "BENCH_engine_serve",
        &ServeTrajectory {
            mode: "serve".to_owned(),
            n: cfg.n,
            unbudgeted: r.clone(),
            budgeted: b.clone(),
            budget_probes: 48,
            exhaustion_rate: b.budget_exhausted as f64 / b.requests.max(1) as f64,
            fan_in: f.clone(),
            fan_in_connections: fan_cfg.connections,
            connections_open_at_peak,
            syscalls_per_response,
            completions_per_wake,
            fixed_tail: fx.clone(),
            adaptive_tail: ad.clone(),
            tail_budget_probes,
            fixed_exhaustion_rate,
            adaptive_exhaustion_rate,
        },
    );

    loadgen::send_shutdown(&addr).expect("shutdown");
    serve_loop.join().expect("drain");

    let stats = run.server_stats.expect("server stats");
    let sessions = stats.get("sessions").expect("sessions object");
    let serde::Json::Obj(entries) = sessions else {
        panic!("sessions is not an object")
    };
    let mut table = Table::new([
        "session",
        "kind",
        "queries",
        "qps",
        "p50 µs",
        "p99 µs",
        "probes p50",
        "probes p99",
        "cache hit rate",
        "errors",
    ]);
    let field = |s: &serde::Json, k: &str| s.get(k).and_then(serde::Json::as_u64).unwrap_or(0);
    for (name, s) in entries {
        let row = ServeRow {
            session: name.clone(),
            kind: s
                .get("kind")
                .and_then(serde::Json::as_str)
                .unwrap_or("?")
                .to_owned(),
            queries: field(s, "queries"),
            qps: s.get("qps").and_then(serde::Json::as_f64).unwrap_or(0.0),
            latency_p50_us: field(s, "latency_p50_us"),
            latency_p99_us: field(s, "latency_p99_us"),
            probes_p50: field(s, "probes_p50"),
            probes_p99: field(s, "probes_p99"),
            cache_hit_rate: s
                .get("cache_hit_rate")
                .and_then(serde::Json::as_f64)
                .unwrap_or(0.0),
            errors: field(s, "errors"),
        };
        table.row([
            row.session.clone(),
            row.kind.clone(),
            row.queries.to_string(),
            format!("{:.0}", row.qps),
            row.latency_p50_us.to_string(),
            row.latency_p99_us.to_string(),
            row.probes_p50.to_string(),
            row.probes_p99.to_string(),
            format!("{:.2}", row.cache_hit_rate),
            row.errors.to_string(),
        ]);
        record_json("engine_report_serve", &row);
    }
    table.print("lca-serve end-to-end — per-session stats after the verified load run");
    println!("\n(every answer was checked against a direct LcaBuilder query; latencies are");
    println!("service time inside the daemon, the loadgen line above includes the wire.)");
}

/// The `--fleet` report: two backends + the HTTP gateway, in-process.
/// The same 4k-request verified mixed load runs twice — direct raw-TCP
/// against one backend, then through the gateway — yielding the HTTP
/// tier's qps/latency, its overhead vs the direct path, and the
/// per-shard routing histogram from the fleet stats rollup.
fn fleet_report() {
    use lca_fleet::{Fleet, Gateway, GatewayConfig};
    use lca_serve::loadgen::{self, LoadgenConfig};
    use lca_serve::server::{bind, Server, ServerConfig};

    lca_serve::raise_fd_limit(8192).expect("raise fd limit");

    // Two backends, one gateway, all in-process on ephemeral ports.
    let mut backends = Vec::new();
    for id in ["b0", "b1"] {
        let listener = bind("127.0.0.1:0").expect("bind backend");
        let addr = listener.local_addr().expect("local addr").to_string();
        let server = Server::new(ServerConfig {
            backend_id: id.to_owned(),
            ..ServerConfig::default()
        });
        let handle = {
            let server = server.clone();
            std::thread::spawn(move || server.serve(listener).expect("backend serve loop"))
        };
        backends.push((addr, handle));
    }
    let backend_addrs: Vec<String> = backends.iter().map(|(a, _)| a.clone()).collect();
    let gw_listener = bind("127.0.0.1:0").expect("bind gateway");
    let gw_addr = gw_listener.local_addr().expect("local addr").to_string();
    let gateway = Gateway::new(Fleet::new(backend_addrs.clone()), GatewayConfig::default());
    let gw_loop = {
        let gateway = gateway.clone();
        std::thread::spawn(move || gateway.serve(gw_listener).expect("gateway serve loop"))
    };

    let cfg = LoadgenConfig {
        requests: 4_000,
        concurrency: 4,
        kinds: vec![
            AlgorithmKind::Classic(ClassicKind::Mis),
            AlgorithmKind::Classic(ClassicKind::Matching),
            AlgorithmKind::Spanner(SpannerKind::Three),
            AlgorithmKind::Spanner(SpannerKind::Five),
        ],
        family: ImplicitFamily::Gnp,
        n: 1_000_000,
        seed: 0x11CC,
        verify: true,
        ..LoadgenConfig::default()
    };
    println!(
        "fleet report: 2 x lca-serve + lca-gateway @ {gw_addr}, {} requests x {} connections, implicit G(n = {}, c/n), verify on",
        cfg.requests, cfg.concurrency, cfg.n
    );

    // Baseline: the same load straight at one backend over raw TCP.
    let direct_cfg = LoadgenConfig {
        session_prefix: "direct".to_owned(),
        ..cfg.clone()
    };
    let direct = loadgen::run(&backends[0].0, &direct_cfg).expect("direct loadgen run");
    let d = &direct.report;
    assert_eq!(d.errors, 0, "protocol errors during direct pass");
    assert_eq!(d.mismatches, 0, "direct answers diverged");
    println!(
        "direct TCP:   {} ok / {} requests, {:.0} qps, p50 {} µs, p99 {} µs",
        d.ok, d.requests, d.qps, d.p50_us, d.p99_us
    );

    // The fleet pass: identical load through the HTTP gateway, every
    // answer still verified against a direct LcaBuilder query (the
    // gateway forwards backend response lines verbatim, so the loadgen's
    // verification machinery needs no changes).
    // Prefix chosen so the four session names split 2/2 across the two
    // shards under `shard_for_str` — the histogram below then witnesses
    // genuinely multi-backend routing, not a lucky single-shard run.
    let fleet_cfg = LoadgenConfig {
        http: true,
        session_prefix: "fleets".to_owned(),
        ..cfg.clone()
    };
    let fleet = loadgen::run(&gw_addr, &fleet_cfg).expect("fleet loadgen run");
    let f = &fleet.report;
    assert_eq!(f.errors, 0, "protocol errors during fleet pass");
    assert_eq!(f.mismatches, 0, "fleet answers diverged");
    println!(
        "via gateway:  {} ok / {} requests, {:.0} qps, p50 {} µs, p99 {} µs, {} overloaded",
        f.ok, f.requests, f.qps, f.p50_us, f.p99_us, f.overloaded
    );

    // Per-shard routing histogram from the fleet rollup: every query the
    // gateway saw must be routed somewhere, and with 4+ sessions both
    // shards must see traffic.
    let stats = loadgen::fetch_stats_http(&gw_addr).expect("fleet stats");
    let rollup = stats.get("fleet").expect("fleet rollup");
    let routed: Vec<u64> = rollup
        .get("routed")
        .and_then(serde::Json::as_array)
        .expect("routed histogram")
        .iter()
        .map(|x| x.as_u64().unwrap())
        .collect();
    let routed_total: u64 = routed.iter().sum();
    assert!(
        routed_total >= cfg.requests as u64,
        "every gateway query is routed: {routed:?}"
    );
    assert!(
        routed.iter().all(|&r| r > 0),
        "both shards see traffic: {routed:?}"
    );
    assert_eq!(
        rollup.get("backends_up").and_then(serde::Json::as_u64),
        Some(2),
        "both backends report stats"
    );
    let overhead_p50 = f.p50_us as i64 - d.p50_us as i64;
    let overhead_p99 = f.p99_us as i64 - d.p99_us as i64;
    println!(
        "routing: {routed:?} ({routed_total} routed), gateway overhead p50 {overhead_p50:+} µs, p99 {overhead_p99:+} µs, qps ratio {:.2}",
        f.qps / d.qps.max(1.0)
    );

    #[derive(serde::Serialize)]
    struct FleetTrajectory {
        mode: String,
        n: usize,
        backends: usize,
        direct: lca_serve::loadgen::LoadReport,
        gateway: lca_serve::loadgen::LoadReport,
        routed: Vec<u64>,
        gateway_overhead_p50_us: i64,
        gateway_overhead_p99_us: i64,
        qps_ratio: f64,
    }
    write_json(
        "BENCH_engine_fleet",
        &FleetTrajectory {
            mode: "fleet".to_owned(),
            n: cfg.n,
            backends: backends.len(),
            direct: d.clone(),
            gateway: f.clone(),
            routed,
            gateway_overhead_p50_us: overhead_p50,
            gateway_overhead_p99_us: overhead_p99,
            qps_ratio: f.qps / d.qps.max(1.0),
        },
    );

    loadgen::send_shutdown_http(&gw_addr).expect("gateway shutdown");
    gw_loop.join().expect("gateway drains");
    for (addr, handle) in backends {
        loadgen::send_shutdown(&addr).expect("backend shutdown");
        handle.join().expect("backend drains");
    }
    println!("\n(the gateway pass went client → HTTP gateway → routed backend and back;");
    println!("the direct pass skipped the middle hop — the deltas above are the HTTP tier.)");
}

fn main() {
    if std::env::args().any(|a| a == "--implicit") {
        implicit_report();
        return;
    }
    if std::env::args().any(|a| a == "--serve") {
        serve_report();
        return;
    }
    if std::env::args().any(|a| a == "--fleet") {
        fleet_report();
        return;
    }
    let n = 600;
    let g = RegularBuilder::new(n, 8)
        .seed(Seed::new(0x5E4))
        .build()
        .expect("regular graph");
    let seed = Seed::new(0x11CA);
    let engine = QueryEngine::with_threads(4);
    println!(
        "serving report: n = {n}, m = {}, engine threads = {}",
        g.edge_count(),
        engine.threads()
    );

    let mut table = Table::new([
        "algorithm",
        "queries",
        "yes",
        "batch ms",
        "probes mean",
        "probes max",
        "distinct mean",
        "distinct max",
        "shards",
        "probe bound",
    ]);
    let mut trajectory = Vec::new();
    for kind in AlgorithmKind::all() {
        let config = LcaConfig::new(kind, seed);
        let queries = kind.queries(&g);
        trajectory.push(trajectory_row(&config, &&g, &queries));

        // Batched parallel serving through one shared instance.
        let algo = config.build(&g);
        let t = Instant::now();
        let answers = engine.query_batch(&algo, &queries);
        let batch_ms = t.elapsed().as_secs_f64() * 1e3;
        let yes = answers.iter().filter(|a| **a == Ok(true)).count();

        // Probe accounting: per-shard parallel measurement plus the
        // distinct-probe measure (per-query memo) for the spanners.
        let (probe_mean, probe_max, distinct_mean, distinct_max, shards) =
            if config.build_spanner(&g).is_some() {
                let run = engine
                    .measure_queries(&g, &g, |c| config.build_spanner(c).expect("spanner"))
                    .expect("engine measurement");
                let memo = MemoOracle::new(&g);
                let counter = CountingOracle::new(&memo);
                let lca = config.build_spanner(&counter).expect("spanner");
                let d = measure_queries_distinct(&g, &counter, &lca).expect("distinct measurement");
                (
                    run.per_query_mean,
                    run.per_query_max,
                    d.distinct_mean,
                    d.distinct_max as u64,
                    run.per_shard.len(),
                )
            } else {
                (0.0, 0, 0.0, 0, 0)
            };

        let row = Row {
            algorithm: algo.name().to_owned(),
            query_kind: kind.query_kind().to_string(),
            probe_bound: algo.probe_bound().to_owned(),
            queries: queries.len(),
            yes_answers: yes,
            batch_ms,
            probe_mean,
            probe_max,
            distinct_mean,
            distinct_max,
            shards,
        };
        table.row([
            row.algorithm.clone(),
            row.queries.to_string(),
            row.yes_answers.to_string(),
            format!("{:.1}", row.batch_ms),
            format!("{:.1}", row.probe_mean),
            row.probe_max.to_string(),
            format!("{:.1}", row.distinct_mean),
            row.distinct_max.to_string(),
            row.shards.to_string(),
            row.probe_bound.clone(),
        ]);
        record_json("engine_report", &row);
    }
    write_json(
        "BENCH_engine",
        &Trajectory {
            mode: "materialized".to_owned(),
            n,
            rows: trajectory,
        },
    );
    table.print("Unified API — registry construction, engine serving, probe measures");
    println!("\n(distinct = per-query memoized probes, the Definition 1.4 local-memory measure;");
    println!("classic vertex LCAs report batch timing only — their probe costs are exponential-in-Δ envelopes.)");
}
