//! Generator-backed implicit oracles: serve probes on graphs too large to
//! materialize.
//!
//! The whole point of the LCA model is that the input is accessed only
//! through probes — yet a materialized [`Graph`] caps every workload at
//! whatever fits in memory. The oracles here close that gap: each is a pure
//! function of `(seed, n)` that answers `Degree`/`Neighbor`/`Adjacency`
//! probes by *recomputing* the relevant slice of the graph on demand, in
//! O(K) time and O(1) memory per probe, for `n` up to the `u32` handle
//! limit (4.2 billion vertices).
//!
//! | Oracle | Family | Mechanism |
//! |--------|--------|-----------|
//! | [`ImplicitRegular`] | random d-regular | union of `d` pairing-function matchings (§6 table model) |
//! | [`ImplicitGnp`] | sparse G(n, c/n)-style | matchings thinned by a symmetric hash coin |
//! | [`ImplicitChungLu`] | power-law Chung–Lu | matchings thinned by weight-product hash coins |
//! | [`ImplicitGrid`] / [`ImplicitTorus`] / [`ImplicitHypercube`] | lattices | closed-form neighborhoods |
//!
//! Every oracle satisfies the oracle laws (see `tests/oracle_laws.rs` at the
//! workspace root) by construction, and [`ImplicitOracle::materialize`]
//! builds the probe-for-probe identical [`Graph`] — same adjacency order,
//! same labels — so equivalence with the materialized path is testable
//! exactly, answers and probe transcripts alike.
//!
//! # Example: a billion-vertex query
//!
//! ```
//! use lca_graph::implicit::ImplicitGnp;
//! use lca_graph::{Oracle, VertexId};
//! use lca_rand::Seed;
//!
//! let oracle = ImplicitGnp::new(1_000_000_000, 3.0, Seed::new(7));
//! let v = VertexId::new(123_456_789);
//! for i in 0..oracle.degree(v) {
//!     let w = oracle.neighbor(v, i).unwrap();
//!     assert_eq!(oracle.neighbor(w, oracle.adjacency(w, v).unwrap()), Some(v));
//! }
//! ```

mod chung_lu;
mod lattice;
mod matchings;
mod permute;
mod regular;
mod scratch;
mod sparse;

pub use chung_lu::ImplicitChungLu;
pub use lattice::{ImplicitGrid, ImplicitHypercube, ImplicitTorus};
pub use regular::ImplicitRegular;
pub use scratch::{Access, ListStore, StoreStats};
pub use sparse::ImplicitGnp;

use crate::{Graph, Oracle, VertexId};

/// Largest `n` [`ImplicitOracle::materialize`] accepts — materialization is
/// a test/verification device, not a serving path.
pub const MATERIALIZE_CAP: usize = 1 << 24;

/// An [`Oracle`] that is generated, not stored: a deterministic function of
/// `(seed, n)` whose small-`n` instances can be materialized exactly for
/// equivalence testing.
pub trait ImplicitOracle: Oracle {
    /// A short family name for reports (e.g. `"implicit-gnp"`).
    fn family(&self) -> &'static str;

    /// Builds the [`Graph`] this oracle describes, probe-for-probe
    /// identical: same vertex count, same labels, and each `Γ(v)` in the
    /// oracle's own adjacency order — so any algorithm run against the
    /// materialized graph issues the same probes and gets the same answers.
    ///
    /// # Panics
    ///
    /// Panics if `vertex_count()` exceeds [`MATERIALIZE_CAP`]: asking to
    /// materialize a graph this subsystem exists to avoid materializing is a
    /// bug at the call site.
    fn materialize(&self) -> Graph {
        let n = self.vertex_count();
        assert!(
            n <= MATERIALIZE_CAP,
            "refusing to materialize n = {n} > {MATERIALIZE_CAP} vertices"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut adjacency = Vec::new();
        let mut edges = Vec::new();
        for u in 0..n {
            let vu = VertexId::new(u);
            let d = self.degree(vu);
            for i in 0..d {
                let w = self
                    .neighbor(vu, i)
                    .expect("oracle law violated: neighbor(v, i) = ⊥ for i < degree(v)");
                adjacency.push(w);
                if vu < w {
                    edges.push((vu, w));
                }
            }
            offsets.push(adjacency.len());
        }
        let labels = (0..n).map(|v| self.label(VertexId::new(v))).collect();
        Graph::from_parts(offsets, adjacency, labels, edges)
    }
}

impl<O: ImplicitOracle + ?Sized> ImplicitOracle for &O {
    fn family(&self) -> &'static str {
        (**self).family()
    }

    fn materialize(&self) -> Graph {
        (**self).materialize()
    }
}

impl<O: ImplicitOracle + ?Sized> ImplicitOracle for Box<O> {
    fn family(&self) -> &'static str {
        (**self).family()
    }

    fn materialize(&self) -> Graph {
        (**self).materialize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lca_rand::Seed;

    fn assert_materialization_matches<O: ImplicitOracle>(o: &O) {
        let g = o.materialize();
        assert_eq!(g.vertex_count(), o.vertex_count(), "{}", o.family());
        for v in g.vertices() {
            assert_eq!(g.degree(v), o.degree(v), "{} degree({v})", o.family());
            assert_eq!(g.label(v), o.label(v), "{} label({v})", o.family());
            for i in 0..g.degree(v) {
                assert_eq!(
                    g.neighbor(v, i),
                    o.neighbor(v, i),
                    "{} neighbor({v}, {i})",
                    o.family()
                );
                let w = g.neighbor(v, i).unwrap();
                assert_eq!(
                    g.adjacency_index(v, w),
                    o.adjacency(v, w),
                    "{} adjacency({v}, {w})",
                    o.family()
                );
            }
        }
    }

    #[test]
    fn materialization_is_probe_for_probe_identical() {
        let seed = Seed::new(0xABC);
        assert_materialization_matches(&ImplicitRegular::new(300, 4, seed));
        assert_materialization_matches(&ImplicitGnp::new(300, 3.0, seed));
        assert_materialization_matches(&ImplicitChungLu::power_law(300, 2.5, 5.0, seed));
        assert_materialization_matches(&ImplicitGrid::new(9, 11));
        assert_materialization_matches(&ImplicitTorus::new(5, 6));
        assert_materialization_matches(&ImplicitHypercube::new(6));
    }

    #[test]
    fn materialized_graphs_are_valid_and_symmetric() {
        let o = ImplicitGnp::new(500, 4.0, Seed::new(1));
        let g = o.materialize();
        let handshake: usize = g.vertices().map(|v| g.degree(v)).sum();
        assert_eq!(handshake, 2 * g.edge_count());
        for (u, v) in g.edges() {
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    #[should_panic(expected = "refusing to materialize")]
    fn materialize_cap_is_enforced() {
        let o = ImplicitRegular::new(MATERIALIZE_CAP + 1, 3, Seed::new(0));
        let _ = o.materialize();
    }
}
