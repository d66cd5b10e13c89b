//! Buffered-vs-allocating differential suite.
//!
//! The probe pipeline gives every oracle two equivalent entry points: the
//! allocating point probes (`degree`, `neighbor(·, i)`) and the buffered
//! bulk scan (`neighbors_into`). The contract — the transcript-identity
//! law — is that one buffered scan IS `degree(v)` followed by
//! `neighbor(v, 0..d)`: same answers, same probe records, same meter
//! charges, whichever entry point the caller (or any decorator in the
//! stack) picked. This suite pins that law differentially:
//!
//! * per vertex: the bulk scan and the hand-decomposed scan produce the
//!   same neighbor list AND the same probe trace through a
//!   [`TracingOracle`], over every randomized implicit family;
//! * per algorithm: all seven registered algorithms answer identically
//!   with identical per-query probe counts whether the oracle stack
//!   forwards `neighbors_into` natively or a shim forces the decomposed
//!   path everywhere;
//! * per meter: a buffered scan through `QueryCtx::budgeted` charges the
//!   context exactly `deg(v) + 1` — once per logical probe, agreeing with
//!   a `CountingOracle` in the same stack;
//! * per forwarding path: the budgeted view hands a scan that cannot trip
//!   to the oracle below as ONE `neighbors_into` call (metered or not),
//!   and splits a scan the budget cuts short into point probes, so the
//!   refused probe never reaches the oracle below.

use std::cell::Cell;

use lca::core::BudgetedOracle;
use lca::prelude::*;
use lca::probe::TracingOracle;

const N: usize = 1024;
const QUERIES: usize = 32;

/// The randomized implicit families (the lattice families share the same
/// code path via the trait default and are covered by the oracle-laws
/// suite).
fn families() -> [ImplicitFamily; 3] {
    [
        ImplicitFamily::Gnp,
        ImplicitFamily::Regular,
        ImplicitFamily::ChungLu,
    ]
}

/// A shim that hides the inner oracle's `neighbors_into` override: point
/// probes forward, so the trait-default decomposition above it is the ONLY
/// way a bulk scan can reach the inner oracle. Stacking an algorithm on
/// this is exactly the pre-pipeline allocating behavior.
struct DecomposedOracle<O>(O);

impl<O: Oracle> Oracle for DecomposedOracle<O> {
    fn vertex_count(&self) -> usize {
        self.0.vertex_count()
    }
    fn degree(&self, v: VertexId) -> usize {
        self.0.degree(v)
    }
    fn neighbor(&self, v: VertexId, i: usize) -> Option<VertexId> {
        self.0.neighbor(v, i)
    }
    fn adjacency(&self, u: VertexId, v: VertexId) -> Option<usize> {
        self.0.adjacency(u, v)
    }
    fn label(&self, v: VertexId) -> u64 {
        self.0.label(v)
    }
    fn probe_cost_hint(&self) -> ProbeCost {
        self.0.probe_cost_hint()
    }
    // NO neighbors_into override: the trait default decomposes.
}

/// Sample of probe targets spread over the vertex range.
fn sample_vertices(n: usize) -> Vec<VertexId> {
    (0..64).map(|i| VertexId::new(i * n / 64)).collect()
}

#[test]
fn bulk_scan_matches_decomposed_scan_per_vertex() {
    for family in families() {
        let oracle = family.build(N, Seed::new(0xBEEF));
        for v in sample_vertices(oracle.vertex_count()) {
            // Bulk path: one neighbors_into through a tracer.
            let traced = TracingOracle::new(&oracle);
            let mut bulk = Vec::new();
            let d_bulk = traced.neighbors_into(v, &mut bulk);
            let bulk_trace = traced.take_trace();

            // Allocating path: hand-written degree + neighbor loop.
            let traced = TracingOracle::new(&oracle);
            let d_manual = traced.degree(v);
            let mut manual = Vec::new();
            for i in 0..d_manual {
                match traced.neighbor(v, i) {
                    Some(w) => manual.push(w),
                    None => break,
                }
            }
            let manual_trace = traced.take_trace();

            assert_eq!(d_bulk, d_manual, "{family}: degree disagrees at {v}");
            assert_eq!(bulk, manual, "{family}: neighbor list disagrees at {v}");
            assert_eq!(
                bulk_trace, manual_trace,
                "{family}: probe transcript disagrees at {v}"
            );
        }
    }
}

#[test]
fn algorithms_agree_across_entry_points() {
    for family in families() {
        let oracle = family.build(N, Seed::new(0x90_1D));
        for kind in AlgorithmKind::all() {
            let direct_counter = CountingOracle::new(&oracle);
            let direct = LcaBuilder::new(kind)
                .seed(Seed::new(0xA1_60))
                .build(&direct_counter);
            let decomposed_counter = CountingOracle::new(DecomposedOracle(&oracle));
            let decomposed = LcaBuilder::new(kind)
                .seed(Seed::new(0xA1_60))
                .build(&decomposed_counter);
            let queries = LcaBuilder::new(kind)
                .queries(&oracle, QuerySource::sample(QUERIES, Seed::new(0x5A)));
            for q in queries {
                let before_a = direct_counter.counts();
                let before_b = decomposed_counter.counts();
                let a = direct.query(q);
                let b = decomposed.query(q);
                match (a, b) {
                    (Ok(x), Ok(y)) => assert_eq!(
                        x,
                        y,
                        "{} over {family}: answer diverged on {q:?}",
                        kind.name()
                    ),
                    (a, b) => panic!(
                        "{} over {family}: query {q:?} failed: {a:?} vs {b:?}",
                        kind.name()
                    ),
                }
                assert_eq!(
                    direct_counter.counts().since(before_a),
                    decomposed_counter.counts().since(before_b),
                    "{} over {family}: probe counts diverged on {q:?}",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn buffered_scan_charges_meter_once_per_probe() {
    for family in families() {
        let oracle = family.build(N, Seed::new(0xC0DE));
        let counter = CountingOracle::new(&oracle);
        let ctx = QueryCtx::unlimited();
        let budgeted = ctx.budgeted(&counter);
        let mut buf = Vec::new();
        let mut expected_spent = 0u64;
        for v in sample_vertices(oracle.vertex_count()) {
            let before = counter.counts();
            let d = budgeted.neighbors_into(v, &mut buf);
            assert_eq!(buf.len(), d, "{family}: unbudgeted scan must complete");
            // Exactly one degree + d neighbor probes, charged once each:
            // the context meter and the counter below it agree probe for
            // probe.
            let delta = counter.counts().since(before);
            assert_eq!(delta.degree, 1, "{family}: degree probes at {v}");
            assert_eq!(delta.neighbor, d as u64, "{family}: neighbor probes at {v}");
            expected_spent += 1 + d as u64;
            assert_eq!(
                ctx.spent(),
                expected_spent,
                "{family}: meter drifted from counter at {v}"
            );
        }
    }
}

/// A shim counting the calls that reach it: point probes and buffered
/// scans.
struct CallCounter<O> {
    inner: O,
    points: Cell<u64>,
    scans: Cell<u64>,
}

impl<O> CallCounter<O> {
    fn new(inner: O) -> Self {
        CallCounter {
            inner,
            points: Cell::new(0),
            scans: Cell::new(0),
        }
    }

    /// `(point probes, buffered scans)` seen so far, then zeroed.
    fn take(&self) -> (u64, u64) {
        (self.points.replace(0), self.scans.replace(0))
    }
}

impl<O: Oracle> Oracle for CallCounter<O> {
    fn vertex_count(&self) -> usize {
        self.inner.vertex_count()
    }
    fn degree(&self, v: VertexId) -> usize {
        self.points.set(self.points.get() + 1);
        self.inner.degree(v)
    }
    fn neighbor(&self, v: VertexId, i: usize) -> Option<VertexId> {
        self.points.set(self.points.get() + 1);
        self.inner.neighbor(v, i)
    }
    fn adjacency(&self, u: VertexId, v: VertexId) -> Option<usize> {
        self.points.set(self.points.get() + 1);
        self.inner.adjacency(u, v)
    }
    fn neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> usize {
        self.scans.set(self.scans.get() + 1);
        self.inner.neighbors_into(v, out)
    }
    fn label(&self, v: VertexId) -> u64 {
        self.inner.label(v)
    }
}

/// The sampled vertex of largest degree (every family has one above 1).
fn widest_vertex(oracle: &impl Oracle) -> (VertexId, usize) {
    sample_vertices(oracle.vertex_count())
        .into_iter()
        .map(|v| (v, oracle.degree(v)))
        .max_by_key(|&(_, d)| d)
        .expect("sample is non-empty")
}

#[test]
fn scan_with_room_is_one_inner_call() {
    for family in families() {
        let oracle = family.build(N, Seed::new(0x5CA7));
        let shim = CallCounter::new(&oracle);
        let mut buf = Vec::new();
        let mut want = Vec::new();
        // Unlimited, and limited so that exactly `N` probes of room remain
        // before the last scan: the boundary at which a scan cannot trip.
        let samples = sample_vertices(N);
        let total: u64 = samples.iter().map(|&v| oracle.degree(v) as u64 + 1).sum();
        let last = samples.last().map_or(0, |&v| oracle.degree(v) as u64 + 1);
        for limit in [None, Some(total - last + N as u64)] {
            let ctx = QueryCtx::new(limit, None, None);
            let view = ctx.budgeted(&shim);
            let mut expected_spent = 0u64;
            for &v in &samples {
                let d = view.neighbors_into(v, &mut buf);
                oracle.neighbors_into(v, &mut want);
                assert_eq!((d, &buf), (want.len(), &want), "{family}: answer at {v}");
                assert_eq!(shim.take(), (0, 1), "{family}: one bulk call at {v}");
                expected_spent += d as u64 + 1;
                assert_eq!(ctx.spent(), expected_spent, "{family}: meter at {v}");
            }
            assert!(ctx.checkpoint().is_ok());
        }
    }
}

#[test]
fn scan_the_budget_cuts_short_never_reaches_the_refused_probe() {
    for family in families() {
        let oracle = family.build(N, Seed::new(0x7219));
        let (v, d) = widest_vertex(&oracle);
        assert!(d >= 2, "{family}: widest sampled vertex has degree {d}");
        let mut want = Vec::new();
        oracle.neighbors_into(v, &mut want);
        // Room for `degree` and half the neighbor probes: the scan trips.
        let limit = 1 + d as u64 / 2;
        let shim = CallCounter::new(&oracle);
        let ctx = QueryCtx::with_probe_limit(limit);
        let mut buf = Vec::new();
        assert_eq!(ctx.budgeted(&shim).neighbors_into(v, &mut buf), d);
        assert_eq!(
            buf,
            want[..limit as usize - 1],
            "{family}: buffer holds the answered prefix"
        );
        assert_eq!(ctx.spent(), limit, "{family}: meter stops at the limit");
        assert!(matches!(
            ctx.checkpoint(),
            Err(LcaError::BudgetExhausted { .. })
        ));
        assert_eq!(
            shim.take(),
            (limit, 0),
            "{family}: `degree` + {} answered neighbor calls, and not the refused one",
            limit - 1
        );

        // With less than `N` probes of room a scan is split even when it
        // fits: the view cannot know `deg(v)` before asking.
        let ctx = QueryCtx::with_probe_limit(N as u64 - 1);
        assert_eq!(ctx.budgeted(&shim).neighbors_into(v, &mut buf), d);
        assert_eq!(buf, want, "{family}: a scan that fits completes");
        assert_eq!(ctx.spent(), d as u64 + 1);
        assert!(ctx.checkpoint().is_ok());
        assert_eq!(shim.take(), (d as u64 + 1, 0), "{family}: split scan");
    }
}

#[test]
fn unmetered_view_forwards_scans_in_bulk() {
    for family in families() {
        let oracle = family.build(N, Seed::new(0xB01C));
        let shim = CallCounter::new(&oracle);
        let view = BudgetedOracle::unmetered(&shim);
        let mut buf = Vec::new();
        let mut want = Vec::new();
        for v in sample_vertices(N) {
            view.neighbors_into(v, &mut buf);
            oracle.neighbors_into(v, &mut want);
            assert_eq!(buf, want, "{family}: answer at {v}");
            assert_eq!(shim.take(), (0, 1), "{family}: one bulk call at {v}");
        }
    }
}
