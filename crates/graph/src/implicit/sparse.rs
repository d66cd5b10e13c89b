//! Implicit sparse G(n, c/n)-style graphs.

use lca_rand::Seed;

use crate::{Oracle, VertexId};

use super::matchings::MatchingSlots;
use super::scratch::{stored_probes, Generator};
use super::{Access, ImplicitOracle, ListStore};

/// A sparse random graph with expected degree `c` served implicitly — the
/// G(n, c/n) regime of the paper, on graphs far too large to materialize.
///
/// Construction: `K` seeded perfect matchings, each matched pair kept with
/// probability `c/K` by a symmetric per-`(slot, pair)` hash coin. Degrees
/// are `Binomial(K, c/K)`, which converges to the `Poisson(c)` degree law of
/// G(n, c/n) as `K` grows (default `K = max(8, ⌈4c⌉)`), and the graph is
/// locally tree-like exactly as G(n, c/n) is. The distribution is not
/// *literally* Erdős–Rényi — edges are confined to the matching union, so
/// the maximum degree is `K` — but every per-vertex adjacency is generated
/// on demand from the seed, which is the property the LCA model needs.
///
/// Probe cost: O(K) permutation evaluations. Memory: O(K), independent
/// of `n`.
///
/// # Example
///
/// ```
/// use lca_graph::implicit::ImplicitGnp;
/// use lca_graph::{Oracle, VertexId};
/// use lca_rand::Seed;
///
/// let o = ImplicitGnp::new(100_000_000, 4.0, Seed::new(1));
/// let v = VertexId::new(99_999_999);
/// let d = o.degree(v); // generated, not looked up
/// assert!(d <= o.slots());
/// ```
#[derive(Debug, Clone)]
pub struct ImplicitGnp {
    core: MatchingSlots,
    n: usize,
    keep: f64,
    /// This oracle's key in the per-thread [`ListStore`].
    store_id: u32,
}

impl ImplicitGnp {
    /// Builds the oracle for `n` vertices with expected degree `c ≥ 0`
    /// (edge probability `c/n`), using `max(8, ⌈4c⌉)` matching slots.
    ///
    /// # Panics
    ///
    /// Panics if `c` is negative or not finite.
    pub fn new(n: usize, c: f64, seed: Seed) -> Self {
        assert!(
            c.is_finite() && c >= 0.0,
            "expected degree must be finite and >= 0"
        );
        let slots = (c * 4.0).ceil().max(8.0) as usize;
        Self::with_slots(n, c, slots, seed)
    }

    /// Builds with an explicit slot count `K ≥ 1`; the per-slot keep
    /// probability is `min(1, c/K)`.
    pub fn with_slots(n: usize, c: f64, slots: usize, seed: Seed) -> Self {
        assert!(slots >= 1, "at least one matching slot is required");
        assert!(
            c.is_finite() && c >= 0.0,
            "expected degree must be finite and >= 0"
        );
        Self {
            core: MatchingSlots::new(n, slots, seed),
            n,
            keep: (c / slots as f64).min(1.0),
            store_id: ListStore::next_oracle_id(),
        }
    }

    /// The number of matching slots `K` (also the maximum possible degree).
    pub fn slots(&self) -> usize {
        self.core.slots()
    }

    /// The expected degree `c` the oracle was built for.
    pub fn expected_degree(&self) -> f64 {
        self.keep * self.core.slots() as f64
    }

    #[cfg(test)]
    fn list(&self, v: VertexId) -> Vec<VertexId> {
        self.read(v, Access::Point, <[VertexId]>::to_vec)
    }
}

impl Generator for ImplicitGnp {
    fn store_id(&self) -> u32 {
        self.store_id
    }

    fn generate(&self, v: VertexId, out: &mut Vec<VertexId>) {
        assert!(v.index() < self.n, "vertex {v} out of range");
        let raw = v.raw() as u64;
        self.core.neighbors_into(
            v,
            |slot, w| self.core.pair_unit(slot, raw, w) < self.keep,
            out,
        );
    }
}

impl Oracle for ImplicitGnp {
    fn vertex_count(&self) -> usize {
        self.n
    }

    stored_probes!();

    fn label(&self, v: VertexId) -> u64 {
        v.index() as u64
    }
    fn probe_cost_hint(&self) -> crate::ProbeCost {
        crate::ProbeCost::Compute
    }
}

impl ImplicitOracle for ImplicitGnp {
    fn family(&self) -> &'static str {
        "implicit-gnp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_degree_tracks_c() {
        let (n, c) = (4_000usize, 5.0);
        let o = ImplicitGnp::new(n, c, Seed::new(11));
        let total: usize = (0..n).map(|v| o.degree(VertexId::new(v))).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - c).abs() < 0.5, "mean degree {mean}, target {c}");
    }

    #[test]
    fn adjacency_is_symmetric_at_scale() {
        let o = ImplicitGnp::new(50_000_000, 3.0, Seed::new(2));
        let v = VertexId::new(31_415_926);
        for i in 0..o.degree(v) {
            let w = o.neighbor(v, i).unwrap();
            let back = o.adjacency(w, v).expect("missing reverse edge");
            assert_eq!(o.neighbor(w, back), Some(v));
        }
    }

    #[test]
    fn zero_degree_graph_is_empty() {
        let o = ImplicitGnp::new(100, 0.0, Seed::new(3));
        assert!((0..100).all(|v| o.degree(VertexId::new(v)) == 0));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ImplicitGnp::new(1_000, 4.0, Seed::new(5));
        let b = ImplicitGnp::new(1_000, 4.0, Seed::new(5));
        let c = ImplicitGnp::new(1_000, 4.0, Seed::new(6));
        let same = (0..1_000).all(|v| a.list(VertexId::new(v)) == b.list(VertexId::new(v)));
        assert!(same);
        let differs = (0..1_000).any(|v| a.list(VertexId::new(v)) != c.list(VertexId::new(v)));
        assert!(differs);
    }
}
