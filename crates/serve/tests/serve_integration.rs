//! End-to-end daemon tests: spawn the server on an ephemeral port, drive
//! it over real sockets, and check every answer against a direct
//! `LcaBuilder` query for the same `(kind, family, n, seed, query)` — the
//! acceptance criterion of the serving layer.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use lca::core::DynQuery;
use lca::prelude::*;
use lca_serve::loadgen::{self, LoadgenConfig};
use lca_serve::server::{bind, Server, ServerConfig};
use lca_serve::{algo_seed, input_seed};
use serde::Json;

/// Spawns a daemon on an ephemeral port; returns its address and the
/// serve-loop handle (joined by sending a shutdown request).
fn spawn_server(config: ServerConfig) -> (String, std::thread::JoinHandle<()>, Arc<Server>) {
    let listener = bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = Server::new(config);
    let handle = {
        let server = server.clone();
        std::thread::spawn(move || {
            server.serve(listener).expect("serve loop");
        })
    };
    (addr, handle, server)
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
        Client {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn roundtrip(&mut self, line: &str) -> Json {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        serde_json::from_str(response.trim())
            .unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
    }
}

#[test]
fn hundred_mixed_queries_match_direct_builder_queries() {
    let (addr, handle, _server) = spawn_server(ServerConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr);

    let n = 50_000;
    let seed = 21u64;
    let family = ImplicitFamily::Gnp;
    let kinds = [
        AlgorithmKind::Classic(ClassicKind::Mis),
        AlgorithmKind::Classic(ClassicKind::Matching),
        AlgorithmKind::Spanner(SpannerKind::Three),
        AlgorithmKind::Spanner(SpannerKind::Five),
    ];

    // Direct instances: same derived seeds the daemon uses.
    let oracle = family.build(n, input_seed(seed));
    let direct: Vec<_> = kinds
        .iter()
        .map(|&kind| LcaBuilder::new(kind).seed(algo_seed(seed)).build(&oracle))
        .collect();

    let mut compared = 0;
    for i in 0..100 {
        let ki = i % kinds.len();
        let kind = kinds[ki];
        let query = QuerySource::sample(1, Seed::new(1000 + i as u64))
            .queries(kind, &oracle)
            .pop()
            .expect("sampled query");
        let (wire, expect) = match query {
            DynQuery::Vertex(v) => (
                format!("{}", v.raw()),
                direct[ki].query(DynQuery::Vertex(v)).unwrap(),
            ),
            DynQuery::Edge(u, v) => (
                format!("[{},{}]", u.raw(), v.raw()),
                direct[ki].query(DynQuery::Edge(u, v)).unwrap(),
            ),
        };
        let response = client.roundtrip(&format!(
            "{{\"id\":{i},\"session\":\"it-{}\",\"kind\":\"{}\",\"family\":\"gnp\",\
             \"n\":{n},\"seed\":{seed},\"query\":{wire}}}",
            kind.name(),
            kind.name()
        ));
        assert_eq!(
            response.get("id").and_then(Json::as_u64),
            Some(i as u64),
            "{response:?}"
        );
        let answer = response
            .get("answer")
            .and_then(Json::as_bool)
            .unwrap_or_else(|| panic!("no answer in {response:?}"));
        assert_eq!(answer, expect, "request {i} ({})", kind.name());
        assert!(response.get("probes").and_then(Json::as_u64).is_some());
        assert!(response.get("micros").and_then(Json::as_u64).is_some());
        compared += 1;
    }
    assert_eq!(compared, 100);

    // Stats must show traffic and serving-cache hits.
    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    let global = stats.get("stats").expect("global stats");
    assert!(global.get("requests").and_then(Json::as_u64).unwrap() >= 100);
    let sessions = stats.get("sessions").expect("sessions");
    let mut cache_hits = 0;
    for kind in kinds {
        let s = sessions
            .get(&format!("it-{}", kind.name()))
            .unwrap_or_else(|| panic!("session it-{} missing in {stats:?}", kind.name()));
        assert_eq!(s.get("errors").and_then(Json::as_u64), Some(0));
        cache_hits += s.get("cache_hits").and_then(Json::as_u64).unwrap();
    }
    assert!(cache_hits > 0, "expected serving-cache hits: {stats:?}");

    // Graceful drain.
    let bye = client.roundtrip(r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("draining").and_then(Json::as_bool), Some(true));
    handle.join().expect("serve loop exits after drain");
}

#[test]
fn protocol_errors_are_typed_and_session_pinning_is_enforced() {
    let (addr, handle, _server) = spawn_server(ServerConfig {
        workers: 1,
        queue_capacity: 16,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr);

    // Unknown session (no spec yet).
    let r = client.roundtrip(r#"{"session":"ghost","query":1}"#);
    assert_eq!(
        r.get("error").and_then(Json::as_str),
        Some("unknown-session")
    );

    // Create, then contradict the pinned spec.
    let r = client.roundtrip(r#"{"session":"p","kind":"mis","n":1000,"seed":1,"query":3}"#);
    assert!(r.get("answer").is_some(), "{r:?}");
    let r = client.roundtrip(r#"{"session":"p","kind":"mis","n":2000,"seed":1,"query":3}"#);
    assert_eq!(
        r.get("error").and_then(Json::as_str),
        Some("session-mismatch")
    );

    // Wrong query shape and out-of-range vertex.
    let r = client.roundtrip(r#"{"session":"p","query":[1,2]}"#);
    assert_eq!(r.get("error").and_then(Json::as_str), Some("bad-query"));
    let r = client.roundtrip(r#"{"session":"p","query":999999}"#);
    assert_eq!(r.get("error").and_then(Json::as_str), Some("bad-query"));

    // Unknown kind/family are typed.
    let r = client.roundtrip(r#"{"session":"q","kind":"dijkstra","n":10,"query":1}"#);
    assert_eq!(r.get("error").and_then(Json::as_str), Some("unknown-spec"));

    // Malformed JSON answers instead of hanging up.
    let r = client.roundtrip("}{nope");
    assert_eq!(r.get("error").and_then(Json::as_str), Some("bad-request"));

    // Batch queries answer in order.
    let r = client.roundtrip(r#"{"session":"p","queries":[1,2,3]}"#);
    let answers = r.get("answers").and_then(Json::as_array).expect("answers");
    assert_eq!(answers.len(), 3);

    client.roundtrip(r#"{"op":"shutdown"}"#);
    handle.join().expect("drain");
}

#[test]
fn loadgen_closed_loop_verifies_against_the_daemon() {
    let (addr, handle, _server) = spawn_server(ServerConfig {
        workers: 2,
        queue_capacity: 128,
        ..ServerConfig::default()
    });
    let cfg = LoadgenConfig {
        requests: 300,
        concurrency: 3,
        kinds: vec![
            AlgorithmKind::Classic(ClassicKind::Mis),
            AlgorithmKind::Spanner(SpannerKind::Three),
        ],
        family: ImplicitFamily::Gnp,
        n: 100_000,
        seed: 5,
        verify: true,
        query_pool: 64,
        ..LoadgenConfig::default()
    };
    let run = loadgen::run(&addr, &cfg).expect("loadgen run");
    assert_eq!(run.report.ok, 300, "{:?}", run.report);
    assert_eq!(run.report.errors, 0, "{:?}", run.report);
    assert_eq!(run.report.mismatches, 0, "{:?}", run.report);
    assert!(run.report.qps > 0.0);
    let stats = run.server_stats.expect("stats fetched");
    let sessions = stats.get("sessions").expect("sessions");
    let mis = sessions.get("loadgen-mis").expect("mis session");
    // The pool cycles 64 queries through 150 MIS requests: hits guaranteed.
    assert!(
        mis.get("cache_hits").and_then(Json::as_u64).unwrap() > 0
            || sessions
                .get("loadgen-three-spanner")
                .and_then(|s| s.get("cache_hits"))
                .and_then(Json::as_u64)
                .unwrap()
                > 0,
        "{stats:?}"
    );
    loadgen::send_shutdown(&addr).expect("shutdown");
    handle.join().expect("drain");
}

#[test]
fn open_loop_latency_includes_the_senders_own_lag() {
    let (addr, handle, _server) = spawn_server(ServerConfig {
        workers: 2,
        queue_capacity: 1024,
        ..ServerConfig::default()
    });
    // One sender asked for a billion requests per second: every send lands
    // behind its schedule, and the lag must show up in both numbers.
    let cfg = LoadgenConfig {
        requests: 400,
        concurrency: 1,
        rate: Some(1e9),
        n: 10_000,
        query_pool: 32,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&addr, &cfg).expect("open-loop run").report;
    assert_eq!(report.ok, 400, "{report:?}");
    assert!(report.send_lag_p99_us > 0, "{report:?}");
    assert!(report.p99_us >= report.send_lag_p99_us, "{report:?}");
    loadgen::send_shutdown(&addr).expect("shutdown");
    handle.join().expect("drain");
}

#[test]
fn loadgen_fan_in_verifies_and_witnesses_simultaneous_connections() {
    lca_serve::raise_fd_limit(2048).expect("fd limit");
    let (addr, handle, _server) = spawn_server(ServerConfig {
        workers: 2,
        queue_capacity: 1024,
        ..ServerConfig::default()
    });
    let cfg = LoadgenConfig {
        requests: 600,
        concurrency: 3,
        connections: 300,
        kinds: vec![
            AlgorithmKind::Classic(ClassicKind::Mis),
            AlgorithmKind::Spanner(SpannerKind::Three),
        ],
        family: ImplicitFamily::Gnp,
        n: 50_000,
        seed: 11,
        verify: true,
        query_pool: 64,
        ..LoadgenConfig::default()
    };
    let run = loadgen::run(&addr, &cfg).expect("fan-in run");
    assert_eq!(run.report.ok, 600, "{:?}", run.report);
    assert_eq!(run.report.errors, 0, "{:?}", run.report);
    assert_eq!(run.report.mismatches, 0, "{:?}", run.report);
    assert_eq!(run.report.connections, 300);
    // Stats were snapshotted while every socket was still open: the gauge
    // is the witness (+1 for the stats connection itself is possible).
    let stats = run.server_stats.expect("mid-run stats");
    let open = stats
        .get("stats")
        .and_then(|g| g.get("connections_open"))
        .and_then(Json::as_u64)
        .expect("connections_open");
    assert!(
        open >= 300,
        "expected ≥ 300 open connections at stats time, saw {open}"
    );
    loadgen::send_shutdown(&addr).expect("shutdown");
    handle.join().expect("drain");
}

#[test]
fn budget_exhaustion_is_typed_deterministic_and_counted() {
    let (addr, handle, server) = spawn_server(ServerConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr);
    let spec = "\"session\":\"b\",\"kind\":\"mis\",\"family\":\"gnp\",\"n\":100000,\"seed\":9";

    // Measure one query's real cost via the response's ctx-metered probes.
    let r = client.roundtrip(&format!("{{{spec},\"query\":12345}}"));
    let answer = r.get("answer").and_then(Json::as_bool).expect("answer");
    let probes = r.get("probes").and_then(Json::as_u64).expect("probes");

    // Fresh session, same instance: a 1-probe budget must trip (a fresh MIS
    // walk costs at least one degree probe), typed on the wire.
    let spec2 = "\"session\":\"b2\",\"kind\":\"mis\",\"family\":\"gnp\",\"n\":100000,\"seed\":9";
    let r = client.roundtrip(&format!("{{{spec2},\"max_probes\":1,\"query\":12345}}"));
    assert_eq!(
        r.get("error").and_then(Json::as_str),
        Some("budget-exhausted"),
        "{r:?}"
    );
    assert!(r
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("spent 1 of 1"));

    // An exact budget on a third fresh session succeeds with the same
    // answer and the same meter reading — exhaustion is deterministic.
    let spec3 = "\"session\":\"b3\",\"kind\":\"mis\",\"family\":\"gnp\",\"n\":100000,\"seed\":9";
    let r = client.roundtrip(&format!(
        "{{{spec3},\"max_probes\":{probes},\"query\":12345}}"
    ));
    assert_eq!(r.get("answer").and_then(Json::as_bool), Some(answer));
    assert_eq!(r.get("probes").and_then(Json::as_u64), Some(probes));

    // The memoized session answers the same query within any budget now.
    let r = client.roundtrip(r#"{"session":"b","max_probes":1,"query":12345}"#);
    assert_eq!(r.get("answer").and_then(Json::as_bool), Some(answer));

    // Stats carry the exhaustion counters and the utilization histogram.
    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    let global = stats.get("stats").expect("global");
    assert_eq!(
        global.get("budget_exhausted").and_then(Json::as_u64),
        Some(1)
    );
    let b2 = stats.get("sessions").and_then(|s| s.get("b2")).expect("b2");
    assert_eq!(b2.get("budget_exhausted").and_then(Json::as_u64), Some(1));
    assert_eq!(b2.get("errors").and_then(Json::as_u64), Some(0));
    let b3 = stats.get("sessions").and_then(|s| s.get("b3")).expect("b3");
    assert_eq!(b3.get("budgeted_queries").and_then(Json::as_u64), Some(1));
    // Exact budget ⇒ 100% utilization lands in the covering log₂ bucket.
    assert!(
        b3.get("budget_utilization_pct_p50")
            .and_then(Json::as_u64)
            .unwrap()
            >= 100
    );
    assert_eq!(
        server
            .global
            .budget_exhausted
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    client.roundtrip(r#"{"op":"shutdown"}"#);
    handle.join().expect("drain");
}

#[test]
fn budget_policy_on_the_wire_fits_reports_and_yields_to_explicit_budgets() {
    let (addr, handle, _server) = spawn_server(ServerConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr);
    let spec = "\"session\":\"ap\",\"kind\":\"mis\",\"family\":\"gnp\",\"n\":50000,\"seed\":3";

    // Cold all-distinct traffic under a requested p95 policy: every request
    // re-asserts the policy (latest wins) and feeds the windowed histogram.
    // Once fitted, a tail query may legitimately trip the fitted budget —
    // tolerated, but nothing else may fail.
    let mut answered = 0;
    let mut exhausted = 0;
    for v in 0..200u64 {
        let r = client.roundtrip(&format!(
            "{{{spec},\"budget_policy\":\"p95\",\"query\":{v}}}"
        ));
        match r.get("error").and_then(Json::as_str) {
            None => answered += 1,
            Some("budget-exhausted") => exhausted += 1,
            Some(other) => panic!("unexpected error {other}: {r:?}"),
        }
    }
    assert!(answered > 150, "answered {answered}, exhausted {exhausted}");

    // The per-session stats block reports the live policy and a real fit.
    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    let budget = stats
        .get("sessions")
        .and_then(|s| s.get("ap"))
        .and_then(|s| s.get("budget"))
        .unwrap_or_else(|| panic!("budget block missing: {stats:?}"));
    assert_eq!(budget.get("policy").and_then(Json::as_str), Some("p95"));
    assert_eq!(
        budget.get("target_percentile").and_then(Json::as_f64),
        Some(95.0)
    );
    let fitted = budget
        .get("fitted_max_probes")
        .and_then(Json::as_u64)
        .expect("fitted value");
    assert!(fitted > 0, "no fit after 200 observations: {stats:?}");
    assert!(budget.get("refits").and_then(Json::as_u64).unwrap() >= 1);
    assert!(budget.get("samples").and_then(Json::as_u64).unwrap() >= 200);

    // An explicit request budget overrides the fitted one: a generous
    // max_probes must answer even where the tight fit could trip.
    let r = client.roundtrip(r#"{"session":"ap","max_probes":1000000,"query":49999}"#);
    assert!(r.get("answer").is_some(), "{r:?}");

    // Switching the policy off on the wire is reflected in stats.
    let r = client.roundtrip(r#"{"session":"ap","budget_policy":"off","query":7}"#);
    assert!(
        r.get("answer").is_some() || r.get("error").and_then(Json::as_str).is_none(),
        "{r:?}"
    );
    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    let budget = stats
        .get("sessions")
        .and_then(|s| s.get("ap"))
        .and_then(|s| s.get("budget"))
        .expect("budget block");
    assert_eq!(budget.get("policy").and_then(Json::as_str), Some("off"));

    // A junk policy is a typed parse error.
    let r = client.roundtrip(r#"{"session":"ap","budget_policy":"p0","query":7}"#);
    assert_eq!(r.get("error").and_then(Json::as_str), Some("bad-request"));

    client.roundtrip(r#"{"op":"shutdown"}"#);
    handle.join().expect("drain");
}

#[test]
fn adaptive_server_tightens_cold_sessions_and_verify_stays_green() {
    // A server started with --adaptive-budgets fits every session's budget
    // to p99 of observed spend. Cold all-distinct traffic (pool == request
    // count) is the workload that used to exhaust ~50% at a hand-picked
    // cold-median budget; under the fitted budget exhaustion must be rare
    // and every completed answer must still verify against a direct local
    // computation.
    let (addr, handle, _server) = spawn_server(ServerConfig {
        workers: 2,
        queue_capacity: 128,
        adaptive_budgets: true,
        ..ServerConfig::default()
    });
    let requests = 400;
    let cfg = LoadgenConfig {
        requests,
        concurrency: 2,
        kinds: vec![AlgorithmKind::Classic(ClassicKind::Mis)],
        family: ImplicitFamily::Gnp,
        n: 100_000,
        seed: 13,
        verify: true,
        query_pool: requests,
        ..LoadgenConfig::default()
    };
    let run = loadgen::run(&addr, &cfg).expect("adaptive run");
    assert_eq!(run.report.errors, 0, "{:?}", run.report);
    assert_eq!(run.report.mismatches, 0, "{:?}", run.report);
    assert_eq!(
        run.report.ok + run.report.budget_exhausted,
        requests as u64,
        "{:?}",
        run.report
    );
    // p99 fit + log₂ bucket-upper-bound headroom: trips stay a small tail,
    // nowhere near the ~50% a cold-median fixed budget produces.
    assert!(
        run.report.budget_exhausted <= requests as u64 / 10,
        "adaptive budget exhausted too often: {:?}",
        run.report
    );
    let stats = run.server_stats.expect("stats fetched");
    let budget = stats
        .get("sessions")
        .and_then(|s| s.get("loadgen-mis"))
        .and_then(|s| s.get("budget"))
        .unwrap_or_else(|| panic!("budget block missing: {stats:?}"));
    assert_eq!(budget.get("policy").and_then(Json::as_str), Some("p99"));
    assert!(
        budget
            .get("fitted_max_probes")
            .and_then(Json::as_u64)
            .unwrap()
            > 0,
        "server-wide adaptive mode never fitted: {stats:?}"
    );
    loadgen::send_shutdown(&addr).expect("shutdown");
    handle.join().expect("drain");
}

#[test]
fn overload_backpressure_answers_instead_of_buffering() {
    // One worker, queue of one: pipelined requests behind a slow batch must
    // see `overloaded` rather than unbounded queueing.
    let (addr, handle, _server) = spawn_server(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // Two big MIS batches (several ms each) occupy the worker and the
    // 1-slot queue; the singles behind them race dispatch (<1 ms) against
    // the running batch, so at least one must bounce.
    let batch: Vec<String> = (0..3_000).map(|v| v.to_string()).collect();
    let spec = "\"session\":\"burst\",\"kind\":\"mis\",\"family\":\"gnp\",\"n\":1000000,\"seed\":2";
    for id in 0..2 {
        writer
            .write_all(
                format!("{{\"id\":{id},{spec},\"queries\":[{}]}}\n", batch.join(",")).as_bytes(),
            )
            .expect("write batch");
    }
    let singles = 16;
    for id in 2..2 + singles {
        writer
            .write_all(format!("{{\"id\":{id},{spec},\"query\":{id}}}\n").as_bytes())
            .expect("write single");
    }

    let total = 2 + singles;
    let mut answered = 0;
    let mut overloaded = 0;
    let mut line = String::new();
    for _ in 0..total {
        line.clear();
        if reader.read_line(&mut line).expect("read") == 0 {
            break;
        }
        let v: Json = serde_json::from_str(line.trim()).expect("json");
        match v.get("error").and_then(Json::as_str) {
            Some("overloaded") => overloaded += 1,
            Some(other) => panic!("unexpected error {other}: {line}"),
            None => answered += 1,
        }
    }
    assert_eq!(answered + overloaded, total);
    assert!(answered > 0, "nothing served");
    assert!(overloaded > 0, "backpressure never engaged");

    let mut client = Client::connect(&addr);
    client.roundtrip(r#"{"op":"shutdown"}"#);
    handle.join().expect("drain");
}

#[test]
fn idle_stats_polls_render_fresh_uptime() {
    let (addr, handle, _server) = spawn_server(ServerConfig {
        workers: 1,
        queue_capacity: 16,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr);
    let answer = client
        .roundtrip(r#"{"session":"sc","kind":"mis","family":"gnp","n":10000,"seed":3,"query":7}"#);
    assert!(answer.get("answer").and_then(Json::as_bool).is_some());

    // Nothing happens between the two polls but the clock: each one is
    // rendered on request, so uptime must move.
    let uptime_ms = |stats: &Json| {
        stats
            .get("stats")
            .and_then(|g| g.get("uptime_ms"))
            .and_then(Json::as_u64)
            .expect("uptime_ms")
    };
    let first = uptime_ms(&client.roundtrip(r#"{"op":"stats"}"#));
    std::thread::sleep(std::time::Duration::from_millis(25));
    let second = uptime_ms(&client.roundtrip(r#"{"op":"stats"}"#));
    assert!(
        second > first,
        "idle poll reported stale uptime: {first} then {second}"
    );

    client.roundtrip(r#"{"op":"shutdown"}"#);
    handle.join().expect("drain");
}

#[test]
fn session_probe_totals_sum_every_metered_query() {
    // The session total is the sum of its queries' meters, failed queries
    // included. It must equal what a CountingOracle under the same budgets
    // sees: refused probes never reach the oracle, so there is nothing the
    // meters could miss.
    let (addr, handle, _server) = spawn_server(ServerConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr);
    let (n, seed) = (20_000, 5u64);
    let kind = AlgorithmKind::Spanner(SpannerKind::Three);
    let oracle = ImplicitFamily::Gnp.build(n, input_seed(seed));
    let counter = CountingOracle::new(&oracle);
    let reference = LcaBuilder::new(kind).seed(algo_seed(seed)).build(&counter);
    let spend = |q: DynQuery, budget: &QueryBudget| {
        let ctx = budget.ctx();
        let outcome = reference.query_ctx(q, &ctx);
        (outcome, ctx.spent())
    };
    let edges = QuerySource::sample(2, Seed::new(77)).queries(kind, &oracle);
    let wire = |q: DynQuery| match q {
        DynQuery::Edge(u, v) => format!("[{},{}]", u.raw(), v.raw()),
        DynQuery::Vertex(v) => format!("{}", v.raw()),
    };
    let spec = format!(
        "\"session\":\"p\",\"kind\":\"{}\",\"family\":\"gnp\",\"n\":{n},\"seed\":{seed}",
        kind.name()
    );

    // An answered query reports its meter in `probes`.
    let (expect, cost) = spend(edges[0], &QueryBudget::unlimited());
    let r = client.roundtrip(&format!("{{{spec},\"query\":{}}}", wire(edges[0])));
    assert_eq!(r.get("answer").and_then(Json::as_bool), expect.ok());
    assert_eq!(r.get("probes").and_then(Json::as_u64), Some(cost));

    // A budget one probe short of the query's cost trips it.
    let (_, full) = spend(edges[1], &QueryBudget::unlimited());
    assert!(full >= 2, "query too cheap to trip: {full}");
    let limit = full - 1;
    let (tripped, spent) = spend(edges[1], &QueryBudget::max_probes(limit));
    assert!(matches!(tripped, Err(LcaError::BudgetExhausted { .. })));
    let r = client.roundtrip(&format!(
        "{{{spec},\"max_probes\":{limit},\"query\":{}}}",
        wire(edges[1])
    ));
    assert_eq!(
        r.get("error").and_then(Json::as_str),
        Some("budget-exhausted")
    );
    assert!(r
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains(&format!("spent {spent} of {limit}")));

    // A pair that is not an edge costs the probes that found that out.
    let DynQuery::Edge(u, _) = edges[0] else {
        unreachable!("spanner queries are edges")
    };
    let w = (0..n)
        .map(VertexId::new)
        .find(|&w| w != u && oracle.adjacency(u, w).is_none())
        .unwrap();
    let (refused, _) = spend(DynQuery::Edge(u, w), &QueryBudget::unlimited());
    assert!(matches!(refused, Err(LcaError::NotAnEdge { .. })));
    let r = client.roundtrip(&format!("{{{spec},\"query\":[{},{}]}}", u.raw(), w.raw()));
    assert_eq!(r.get("error").and_then(Json::as_str), Some("bad-query"));

    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    let p = stats.get("sessions").and_then(|s| s.get("p")).expect("p");
    // The reference counter saw the full unlimited runs of edges[1] too;
    // take those back out, leaving the three served queries.
    let served = counter.counts().total() - full;
    assert_eq!(p.get("probes_total").and_then(Json::as_u64), Some(served));
    assert_eq!(p.get("errors").and_then(Json::as_u64), Some(1));
    assert_eq!(p.get("budget_exhausted").and_then(Json::as_u64), Some(1));
    // Every metered probe passes through the serving cache exactly once.
    let cache = |k: &str| p.get(k).and_then(Json::as_u64).expect(k);
    assert_eq!(cache("cache_hits") + cache("cache_misses"), served);

    client.roundtrip(r#"{"op":"shutdown"}"#);
    handle.join().expect("drain");
}

/// Runs `lca-serve --stdin` over `lines` (stdin closed after the last) and
/// returns its response lines.
fn stdio_session(lines: &[&str]) -> Vec<Json> {
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_lca-serve"))
        .args(["--stdin", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn lca-serve --stdin");
    {
        let mut stdin = child.stdin.take().expect("stdin");
        for line in lines {
            writeln!(stdin, "{line}").expect("write stdin");
        }
    }
    let output = child.wait_with_output().expect("lca-serve --stdin exits");
    assert!(output.status.success(), "{output:?}");
    String::from_utf8(output.stdout)
        .expect("UTF-8 stdout")
        .lines()
        .map(|line| serde_json::from_str(line).unwrap_or_else(|e| panic!("{line:?}: {e}")))
        .collect()
}

#[test]
fn hello_is_an_unknown_op_on_tcp_and_stdio() {
    // `hello` is an ordinary unknown op: the connection keeps speaking
    // newline-JSON afterwards.
    let (addr, handle, _server) = spawn_server(ServerConfig {
        workers: 1,
        queue_capacity: 16,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr);
    let r = client.roundtrip(r#"{"id":11,"op":"hello","frame":"binary"}"#);
    assert_eq!(r.get("error").and_then(Json::as_str), Some("bad-request"));
    assert_eq!(r.get("id").and_then(Json::as_u64), Some(11), "{r:?}");
    let r = client.roundtrip(r#"{"id":12,"session":"h","kind":"mis","n":1000,"query":3}"#);
    assert_eq!(r.get("id").and_then(Json::as_u64), Some(12), "{r:?}");
    assert!(r.get("answer").and_then(Json::as_bool).is_some(), "{r:?}");
    client.roundtrip(r#"{"op":"shutdown"}"#);
    handle.join().expect("drain");

    let out = stdio_session(&[r#"{"op":"hello","frame":"binary"}"#]);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(
        out[0].get("error").and_then(Json::as_str),
        Some("bad-request")
    );
}

#[test]
fn ill_typed_spec_and_budget_fields_are_bad_requests_over_stdio() {
    // A present but ill-typed field fails by name; it is never served as
    // if absent (a string or out-of-range seed pinning seed 0, a string
    // budget running the query unbudgeted).
    let out = stdio_session(&[
        r#"{"id":1,"session":"a","kind":"mis","n":1000,"seed":"7","query":3}"#,
        r#"{"id":2,"session":"a","kind":"mis","n":1000,"seed":18446744073709551615,"query":3}"#,
        r#"{"id":3,"session":"b","kind":"mis","n":1000,"max_probes":"1","query":3}"#,
        r#"{"op":"sessions"}"#,
        r#"{"id":5,"session":"b","kind":"mis","n":1000,"max_probes":1,"query":3}"#,
    ]);
    assert_eq!(out.len(), 5, "{out:?}");
    for (r, (id, field)) in out
        .iter()
        .zip([(1, "seed"), (2, "seed"), (3, "max_probes")])
    {
        assert_eq!(r.get("id").and_then(Json::as_u64), Some(id), "{r:?}");
        assert_eq!(r.get("error").and_then(Json::as_str), Some("bad-request"));
        let message = r.get("message").and_then(Json::as_str).unwrap_or("");
        assert!(message.contains(&format!("`{field}`")), "{r:?}");
    }
    // No rejected request pinned a session.
    let sessions = out[3].get("sessions").expect("sessions object");
    assert_eq!(sessions, &Json::Obj(vec![]), "{sessions:?}");
    // The well-typed budget is honoured: one probe cannot answer.
    assert_eq!(out[4].get("id").and_then(Json::as_u64), Some(5));
    assert_eq!(
        out[4].get("error").and_then(Json::as_str),
        Some("budget-exhausted"),
        "{:?}",
        out[4]
    );
}
