//! Implicit random d-regular graphs.

use lca_rand::Seed;

use crate::{Oracle, VertexId};

use super::matchings::MatchingSlots;
use super::scratch::{stored_probes, Generator};
use super::{Access, ImplicitOracle, ListStore};

/// A random (near-)d-regular graph served implicitly: the union of `d`
/// seeded perfect matchings (the paper's §6 matching-table model), with
/// partner lookup by pairing-function inversion instead of materialization.
///
/// Every vertex has degree exactly `d` except for two rare, deterministic
/// deficiencies: when `n` is odd each matching leaves one cell unmatched,
/// and when two slots match the same pair `{u, v}` the duplicate collapses
/// (probability `O(d²/n)` per vertex). Unlike [`crate::gen::RegularBuilder`]
/// there is no repair pass — repair is a global operation, and this oracle
/// never sees the whole graph.
///
/// Probe cost: O(d) permutation evaluations per probe. Memory: O(d) seeds,
/// independent of `n`.
///
/// # Example
///
/// ```
/// use lca_graph::implicit::ImplicitRegular;
/// use lca_graph::{Oracle, VertexId};
/// use lca_rand::Seed;
///
/// let o = ImplicitRegular::new(1_000_000_000, 4, Seed::new(7));
/// assert_eq!(o.vertex_count(), 1_000_000_000);
/// let v = VertexId::new(123_456_789);
/// let w = o.neighbor(v, 0).unwrap();
/// assert!(o.adjacency(w, v).is_some()); // symmetric, probe-for-probe
/// ```
#[derive(Debug, Clone)]
pub struct ImplicitRegular {
    core: MatchingSlots,
    n: usize,
    d: usize,
    /// This oracle's key in the per-thread [`ListStore`].
    store_id: u32,
}

impl ImplicitRegular {
    /// Builds the oracle for `n` vertices and target degree `d`.
    pub fn new(n: usize, d: usize, seed: Seed) -> Self {
        Self {
            core: MatchingSlots::new(n, d, seed),
            n,
            d,
            store_id: ListStore::next_oracle_id(),
        }
    }

    /// The target degree `d` (an upper bound on every actual degree).
    pub fn target_degree(&self) -> usize {
        self.d
    }

    #[cfg(test)]
    fn list(&self, v: VertexId) -> Vec<VertexId> {
        self.read(v, Access::Point, <[VertexId]>::to_vec)
    }
}

impl Generator for ImplicitRegular {
    fn store_id(&self) -> u32 {
        self.store_id
    }

    fn generate(&self, v: VertexId, out: &mut Vec<VertexId>) {
        assert!(v.index() < self.n, "vertex {v} out of range");
        self.core.neighbors_into(v, |_, _| true, out);
    }
}

impl Oracle for ImplicitRegular {
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

impl ImplicitOracle for ImplicitRegular {
    fn family(&self) -> &'static str {
        "implicit-regular"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrees_are_d_or_slightly_below() {
        let (n, d) = (2_000usize, 4usize);
        let o = ImplicitRegular::new(n, d, Seed::new(1));
        let mut full = 0;
        for v in 0..n {
            let deg = o.degree(VertexId::new(v));
            assert!(deg <= d);
            full += usize::from(deg == d);
        }
        assert!(full > n * 9 / 10, "only {full}/{n} vertices reach degree d");
    }

    #[test]
    fn huge_n_probes_in_constant_memory() {
        let o = ImplicitRegular::new(3_000_000_000, 3, Seed::new(2));
        let v = VertexId::new(2_999_999_999);
        let d = o.degree(v);
        assert!(d <= 3);
        for i in 0..d {
            let w = o.neighbor(v, i).unwrap();
            let back = o.adjacency(w, v).unwrap();
            assert_eq!(o.neighbor(w, back), Some(v));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ImplicitRegular::new(500, 5, Seed::new(3));
        let b = ImplicitRegular::new(500, 5, Seed::new(3));
        let c = ImplicitRegular::new(500, 5, Seed::new(4));
        let va = VertexId::new(77);
        assert_eq!(a.list(va), b.list(va));
        let differs = (0..500).any(|v| a.list(VertexId::new(v)) != c.list(VertexId::new(v)));
        assert!(differs);
    }
}
