//! Answer golden regression test.
//!
//! `probe_golden.rs` pins how many probes every algorithm spends; this file
//! pins what it answers. For the same seeded 64-query batch over the same
//! two implicit families at n = 1024, each `(algorithm, family)` cell
//! stores the number of `true` answers and an FNV-1a fingerprint of the
//! answer bits in query order. Any change to a coin, a rank, a tie-break
//! or a hash evaluation that moves even one answer moves the fingerprint.
//!
//! At n = 1024 the O(k²)-spanner samples almost every vertex as a Voronoi
//! center, so its dense machinery (clusters, boundaries, rule 3) never
//! runs. One extra cell therefore pins the k2 answers on implicit G(n, c/n)
//! at n = 10⁶ for 256 sampled edges, the regime where most endpoints sit in
//! multi-vertex cells. On that sparse input a spanner keeps every sampled
//! edge, so a last cell runs k2 over a denser G(n, c/n) (n = 4096, c = 64)
//! where it drops some: that fingerprint moves if any answer flips either
//! way.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! cargo test --test answer_golden -- --ignored --nocapture print_answer_fingerprints
//! ```

// Stdout is this target's output channel; the print ban is for library code.
#![allow(clippy::print_stdout)]
use lca::core::K2Spanner;
use lca::prelude::*;

const N: usize = 1024;
const QUERIES: usize = 64;

/// The dense-regime k2 cell: n and batch size.
const DENSE_N: usize = 1_000_000;
const DENSE_QUERIES: usize = 256;

/// The pruning k2 cell: n, expected degree and batch size.
const PRUNE_N: usize = 4096;
const PRUNE_DEGREE: f64 = 64.0;
const PRUNE_QUERIES: usize = 64;

/// The two input families of the golden table (default knobs), the same
/// as `probe_golden.rs`.
fn families() -> [ImplicitFamily; 2] {
    [ImplicitFamily::Gnp, ImplicitFamily::Regular]
}

/// `(algorithm, family, true answers, FNV-1a of the answer bits)` for the
/// seeded batch. Regenerate with `print_answer_fingerprints`.
const GOLDEN: &[(&str, &str, u64, u64)] = &[
    ("three-spanner", "implicit-gnp", 64, 0xea7805377dec9065),
    ("three-spanner", "implicit-regular", 64, 0xea7805377dec9065),
    ("five-spanner", "implicit-gnp", 64, 0xea7805377dec9065),
    ("five-spanner", "implicit-regular", 64, 0xea7805377dec9065),
    ("k2-spanner", "implicit-gnp", 64, 0xea7805377dec9065),
    ("k2-spanner", "implicit-regular", 64, 0xea7805377dec9065),
    ("mis", "implicit-gnp", 24, 0xf3b3db5448ca1c2d),
    ("mis", "implicit-regular", 10, 0xcc673d9735b1cefb),
    ("maximal-matching", "implicit-gnp", 52, 0x13f2c29501dc8609),
    (
        "maximal-matching",
        "implicit-regular",
        59,
        0x2ccee4f0120ed4dc,
    ),
    ("vertex-cover", "implicit-gnp", 52, 0x13f2c29501dc8609),
    ("vertex-cover", "implicit-regular", 59, 0x2ccee4f0120ed4dc),
    ("greedy-coloring", "implicit-gnp", 17, 0xed92ab428222ca50),
    ("greedy-coloring", "implicit-regular", 9, 0x42d4c459dd4316e2),
];

/// The k2 cell at n = 10⁶ on implicit G(n, c/n): `(true answers, FNV-1a)`.
const DENSE_K2: (u64, u64) = (256, 0xf579dcf3347b5825);

/// The k2 cell on G(4096, 64/n): `(true answers, FNV-1a)`.
const PRUNE_K2: (u64, u64) = (61, 0xb492d92fb2693344);

/// FNV-1a over one byte per answer (`1` for `true`, `0` for `false`).
fn fingerprint(answers: impl IntoIterator<Item = bool>) -> (u64, u64) {
    let mut kept = 0u64;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for a in answers {
        kept += a as u64;
        h ^= a as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (kept, h)
}

/// Answers one cell's seeded batch (the seeds of `probe_golden.rs`);
/// `knob` overrides the family's default shape.
fn answers(
    kind: AlgorithmKind,
    family: ImplicitFamily,
    n: usize,
    knob: Option<f64>,
    count: usize,
) -> Vec<bool> {
    let oracle = family.build_with(n, Seed::new(0x90_1D), knob);
    let algo = LcaBuilder::new(kind)
        .seed(Seed::new(0xA1_60))
        .build(&oracle);
    LcaBuilder::new(kind)
        .queries(&oracle, QuerySource::sample(count, Seed::new(0x5A)))
        .into_iter()
        .map(|q| algo.query(q).expect("golden queries are in range"))
        .collect()
}

fn dense_k2_answers() -> Vec<bool> {
    answers(
        AlgorithmKind::Spanner(SpannerKind::K2),
        ImplicitFamily::Gnp,
        DENSE_N,
        None,
        DENSE_QUERIES,
    )
}

fn prune_k2_answers() -> Vec<bool> {
    answers(
        AlgorithmKind::Spanner(SpannerKind::K2),
        ImplicitFamily::Gnp,
        PRUNE_N,
        Some(PRUNE_DEGREE),
        PRUNE_QUERIES,
    )
}

#[test]
fn answers_match_golden_table() {
    let mut missing = Vec::new();
    for kind in AlgorithmKind::all() {
        for family in families() {
            let got = fingerprint(answers(kind, family, N, None, QUERIES));
            match GOLDEN
                .iter()
                .find(|(k, f, _, _)| *k == kind.name() && *f == family.name())
            {
                Some(&(_, _, kept, fnv)) => assert_eq!(
                    got,
                    (kept, fnv),
                    "answer fingerprint drifted for {} over {} — if intended, rerun \
                     `cargo test --test answer_golden -- --ignored --nocapture \
                     print_answer_fingerprints` and update GOLDEN",
                    kind.name(),
                    family.name()
                ),
                None => missing.push((kind.name(), family.name())),
            }
        }
    }
    assert!(missing.is_empty(), "GOLDEN lacks entries for {missing:?}");
    assert_eq!(GOLDEN.len(), AlgorithmKind::all().len() * families().len());
}

#[test]
fn dense_regime_k2_answers_match_golden() {
    assert_eq!(
        fingerprint(dense_k2_answers()),
        DENSE_K2,
        "dense-regime k2 answer fingerprint drifted"
    );
}

#[test]
fn pruning_k2_answers_match_golden() {
    let got = fingerprint(prune_k2_answers());
    assert_eq!(got, PRUNE_K2, "pruning k2 answer fingerprint drifted");
    assert!(got.0 < PRUNE_QUERIES as u64, "the cell must drop some edge");
}

/// The dense cell is only worth its runtime if its batch exercises the
/// dense path: some queried edge must join two dense endpoints in
/// different Voronoi cells, the case rules (1)–(3) decide.
#[test]
fn dense_regime_batch_reaches_the_dense_rules() {
    let kind = AlgorithmKind::Spanner(SpannerKind::K2);
    let oracle = ImplicitFamily::Gnp.build(DENSE_N, Seed::new(0x90_1D));
    let lca = K2Spanner::with_defaults(&oracle, 2, Seed::new(0xA1_60));
    let cross_cell = LcaBuilder::new(kind)
        .queries(&oracle, QuerySource::sample(DENSE_QUERIES, Seed::new(0x5A)))
        .into_iter()
        .filter(|q| {
            let DynQuery::Edge(u, v) = *q else {
                return false;
            };
            let (cu, cv) = (lca.vertex_status(u).center(), lca.vertex_status(v).center());
            cu.is_some() && cv.is_some() && cu != cv
        })
        .count();
    assert!(
        cross_cell > 0,
        "no queried edge crosses two dense cells: the cell pins no dense rule"
    );
}

/// The updater: prints both tables ready to paste.
#[test]
#[ignore = "updater helper — run with --ignored --nocapture to regenerate GOLDEN"]
fn print_answer_fingerprints() {
    println!("const GOLDEN: &[(&str, &str, u64, u64)] = &[");
    for kind in AlgorithmKind::all() {
        for family in families() {
            let (kept, fnv) = fingerprint(answers(kind, family, N, None, QUERIES));
            println!(
                "    (\"{}\", \"{}\", {kept}, {fnv:#018x}),",
                kind.name(),
                family.name()
            );
        }
    }
    println!("];");
    let (kept, fnv) = fingerprint(dense_k2_answers());
    println!("const DENSE_K2: (u64, u64) = ({kept}, {fnv:#018x});");
    let (kept, fnv) = fingerprint(prune_k2_answers());
    println!("const PRUNE_K2: (u64, u64) = ({kept}, {fnv:#018x});");
}
