//! Shared measurement harness for the table/figure binaries and benches.
//!
//! Every binary in `src/bin/` regenerates one of the paper's evaluation
//! artifacts (see `DESIGN.md` §3 and `EXPERIMENTS.md`): it prints an aligned
//! table to stdout and mirrors the rows as JSON lines under
//! `bench-results/` so EXPERIMENTS.md numbers stay regenerable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Reporting is this crate's purpose: every binary renders its table to
// stdout, so the workspace-wide print ban does not apply here.
#![allow(clippy::print_stdout)]

use std::io::Write as _;

use lca_core::{meter, EdgeSubgraphLca};
use lca_graph::{Graph, Subgraph, VertexId};
use lca_probe::{CountingOracle, Oracle};
use lca_rand::{Seed, SplitMix64};

/// Per-query probe statistics over a sample of edge queries.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct ProbeStats {
    /// Maximum probes over the sampled queries (the paper's probe
    /// complexity measure).
    pub max: u64,
    /// Mean probes per query.
    pub mean: f64,
    /// Number of sampled queries.
    pub samples: usize,
}

impl ProbeStats {
    /// The statistics of per-query probe `costs` (as [`lca_core::meter`]
    /// records them); max and mean are 0 for no queries.
    pub fn of(costs: &[u64]) -> ProbeStats {
        ProbeStats {
            max: costs.iter().copied().max().unwrap_or(0),
            mean: if costs.is_empty() {
                0.0
            } else {
                costs.iter().sum::<u64>() as f64 / costs.len() as f64
            },
            samples: costs.len(),
        }
    }
}

/// Samples `count` distinct edges of `graph` uniformly.
pub fn sample_edges(graph: &Graph, count: usize, seed: Seed) -> Vec<(VertexId, VertexId)> {
    let m = graph.edge_count();
    let mut rng = SplitMix64::new(seed.value());
    if m == 0 {
        return Vec::new();
    }
    if count >= m {
        return graph.edges().collect();
    }
    let mut picked = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let i = rng.next_below(m as u64) as usize;
        if picked.insert(i) {
            out.push(graph.edge_endpoints(i));
        }
    }
    out
}

/// Measures per-query probe costs of `lca` (whose oracle must be `counter`)
/// over the given sample.
pub fn probe_stats<O: Oracle, L: EdgeSubgraphLca>(
    counter: &CountingOracle<O>,
    lca: &L,
    sample: &[(VertexId, VertexId)],
) -> ProbeStats {
    let run = meter(counter, sample.iter().copied(), |(u, v)| {
        lca.contains(u, v).expect("sampled pairs are edges")
    });
    ProbeStats::of(&run.costs)
}

/// Sampled stretch check: for up to `samples` host edges *not* kept by
/// `subgraph`, measure the detour; returns the maximum (`None` ⇒ some
/// sampled edge had no detour within `cap`).
pub fn sampled_stretch(
    graph: &Graph,
    subgraph: &Subgraph,
    samples: usize,
    cap: u32,
    seed: Seed,
) -> Option<u32> {
    let omitted: Vec<(VertexId, VertexId)> = graph
        .edges()
        .filter(|&(u, v)| !subgraph.has_edge(u, v))
        .collect();
    if omitted.is_empty() {
        return Some(1);
    }
    let mut rng = SplitMix64::new(seed.value());
    let mut worst = 1u32;
    let take = samples.min(omitted.len());
    for _ in 0..take {
        let (u, v) = omitted[rng.next_below(omitted.len() as u64) as usize];
        match subgraph.distance_within(u, v, cap) {
            Some(d) => worst = worst.max(d),
            None => return None,
        }
    }
    Some(worst)
}

/// Least-squares slope of `ln y` against `ln x` — the measured exponent of
/// a power-law scaling series.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Peak resident set size of this process (Linux `VmHWM`) in bytes, or
/// `None` where the platform does not expose it. The implicit-oracle
/// reports print it as the "did we materialize anything?" witness.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// A simple aligned-column table printer.
#[derive(Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len().max(1);
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                if i < cols {
                    width[i] = width[i].max(c.len());
                }
            }
        }
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = width.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &width));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout with a title.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        print!("{}", self.render());
    }
}

/// Overwrites `bench-results/<name>.json` with one JSON document (best
/// effort) — the machine-readable snapshot a perf trajectory diffs across
/// PRs, as opposed to the append-only [`record_json`] run logs.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("bench-results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    if let Ok(line) = serde_json::to_string(value) {
        let _ = std::fs::write(dir.join(format!("{name}.json")), format!("{line}\n"));
    }
}

/// Appends a JSON line to `bench-results/<name>.jsonl` (best effort; bench
/// output must not fail the run).
pub fn record_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("bench-results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.jsonl"));
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        if let Ok(line) = serde_json::to_string(value) {
            let _ = writeln!(f, "{line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lca_core::{ThreeSpanner, ThreeSpannerParams};
    use lca_graph::gen::GnpBuilder;

    #[test]
    fn sample_edges_within_bounds() {
        let g = GnpBuilder::new(40, 0.2).seed(Seed::new(1)).build();
        let s = sample_edges(&g, 10, Seed::new(2));
        assert_eq!(s.len(), 10);
        for (u, v) in s {
            assert!(g.has_edge(u, v));
        }
        let all = sample_edges(&g, usize::MAX, Seed::new(2));
        assert_eq!(all.len(), g.edge_count());
    }

    #[test]
    fn probe_stats_are_positive() {
        let g = GnpBuilder::new(60, 0.3).seed(Seed::new(3)).build();
        let counter = CountingOracle::new(&g);
        let lca = ThreeSpanner::new(&counter, ThreeSpannerParams::for_n(60), Seed::new(4));
        let sample = sample_edges(&g, 20, Seed::new(5));
        let st = probe_stats(&counter, &lca, &sample);
        assert!(st.max >= 1);
        assert!(st.mean >= 1.0);
        assert_eq!(st.samples, 20);
    }

    #[test]
    fn loglog_slope_recovers_exponents() {
        let pts: Vec<(f64, f64)> = (1..=6)
            .map(|i| {
                let x = (1u64 << (i + 4)) as f64;
                (x, 3.0 * x.powf(0.75))
            })
            .collect();
        assert!((loglog_slope(&pts) - 0.75).abs() < 1e-9);
        assert!(loglog_slope(&[]).is_nan());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["n", "value"]);
        t.row(["100", "1.5"]);
        t.row(["100000", "2.25"]);
        let s = t.render();
        assert!(s.contains("100000"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn sampled_stretch_on_full_subgraph_is_one() {
        let g = GnpBuilder::new(30, 0.3).seed(Seed::new(6)).build();
        let all = Subgraph::from_edges(&g, g.edges());
        assert_eq!(sampled_stretch(&g, &all, 50, 5, Seed::new(7)), Some(1));
    }
}
