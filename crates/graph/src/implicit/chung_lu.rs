//! Implicit Chung–Lu power-law graphs.

use lca_rand::Seed;

use crate::{Oracle, VertexId};

use super::matchings::MatchingSlots;
use super::scratch::{stored_probes, Generator};
use super::{Access, ImplicitOracle, ListStore};

/// Exact weight-sum cutoff: below this `n` the normalizing sum is computed
/// term by term; above it the tail is integrated (Euler–Maclaurin leading
/// term), so construction stays O(min(n, 2²⁰)) even at `n = 10⁹`.
const EXACT_SUM_CAP: usize = 1 << 20;

/// A Chung–Lu power-law graph served implicitly: vertex `i` carries weight
/// `w_i ∝ (i+1)^{−1/(β−1)}` scaled to a target average degree, and pair
/// `{u, v}` matched in one of `K` seeded matchings is kept with probability
/// `min(1, w_u·w_v / (K·w̄))` — a hash coin both endpoints can evaluate, so
/// adjacency stays symmetric without materialization. Expected degrees track
/// the weights (`E[deg v] ≈ w_v`) except that hubs saturate at `K`: a truly
/// unbounded hub would force the oracle to enumerate `Θ(w_max)` neighbors,
/// which is exactly the non-local behavior an implicit oracle must avoid, so
/// the slot count doubles as an explicit degree cutoff.
///
/// Probe cost: O(K). Memory: O(K), independent of `n`.
///
/// # Example
///
/// ```
/// use lca_graph::implicit::ImplicitChungLu;
/// use lca_graph::{Oracle, VertexId};
/// use lca_rand::Seed;
///
/// let o = ImplicitChungLu::power_law(10_000_000, 2.5, 6.0, Seed::new(1));
/// // Low-index vertices are the hubs; the tail has small degrees.
/// assert!(o.degree(VertexId::new(0)) >= o.degree(VertexId::new(9_999_999)));
/// ```
#[derive(Debug, Clone)]
pub struct ImplicitChungLu {
    core: MatchingSlots,
    n: usize,
    gamma: f64,
    scale: f64,
    /// `K · w̄` — the keep-probability denominator.
    denom: f64,
    /// This oracle's key in the per-thread [`ListStore`].
    store_id: u32,
}

impl ImplicitChungLu {
    /// Builds the oracle with power-law exponent `beta > 2`, target average
    /// degree `avg_degree > 0` and the default 64 matching slots.
    ///
    /// # Panics
    ///
    /// Panics if `beta <= 2` or `avg_degree <= 0` (mirrors
    /// [`crate::gen::ChungLuBuilder::power_law`]).
    pub fn power_law(n: usize, beta: f64, avg_degree: f64, seed: Seed) -> Self {
        Self::with_slots(n, beta, avg_degree, 64, seed)
    }

    /// Builds with an explicit slot count `K ≥ 1` (the hub degree cutoff).
    pub fn with_slots(n: usize, beta: f64, avg_degree: f64, slots: usize, seed: Seed) -> Self {
        assert!(beta > 2.0, "beta must exceed 2 for a finite mean");
        assert!(avg_degree > 0.0, "avg_degree must be positive");
        assert!(slots >= 1, "at least one matching slot is required");
        let gamma = 1.0 / (beta - 1.0);
        let sum = weight_sum(n, gamma);
        let scale = if sum > 0.0 {
            avg_degree * n as f64 / sum
        } else {
            0.0
        };
        Self {
            core: MatchingSlots::new(n, slots, seed),
            n,
            gamma,
            scale,
            denom: slots as f64 * avg_degree,
            store_id: ListStore::next_oracle_id(),
        }
    }

    /// The number of matching slots `K` (also the hub degree cutoff).
    pub fn slots(&self) -> usize {
        self.core.slots()
    }

    /// The Chung–Lu weight of vertex `v` (its expected degree, up to the
    /// hub cutoff).
    pub fn weight(&self, v: VertexId) -> f64 {
        self.scale * ((v.index() + 1) as f64).powf(-self.gamma)
    }
}

impl Generator for ImplicitChungLu {
    fn store_id(&self) -> u32 {
        self.store_id
    }

    /// One weight/coin setup per generation instead of per probe.
    fn generate(&self, v: VertexId, out: &mut Vec<VertexId>) {
        assert!(v.index() < self.n, "vertex {v} out of range");
        let raw = v.raw() as u64;
        let wv = self.weight(v);
        self.core.neighbors_into(
            v,
            |slot, w| {
                // Keep the exact float expression of the original per-probe
                // path: reassociating would flip ULP-edge coins and silently
                // regenerate a different graph.
                let q = (wv * self.weight(VertexId::from(w as u32)) / self.denom).min(1.0);
                self.core.pair_unit(slot, raw, w) < q
            },
            out,
        );
    }
}

/// `Σ_{t=1}^{n} t^{-γ}`: exact below [`EXACT_SUM_CAP`], integral tail above.
fn weight_sum(n: usize, gamma: f64) -> f64 {
    let head = n.min(EXACT_SUM_CAP);
    let mut sum: f64 = (1..=head).map(|t| (t as f64).powf(-gamma)).sum();
    if n > head {
        let e = 1.0 - gamma;
        sum += ((n as f64).powf(e) - (head as f64).powf(e)) / e;
    }
    sum
}

impl Oracle for ImplicitChungLu {
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

impl ImplicitOracle for ImplicitChungLu {
    fn family(&self) -> &'static str {
        "implicit-chung-lu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_degree_tracks_target() {
        let (n, target) = (4_000usize, 6.0);
        let o = ImplicitChungLu::power_law(n, 2.8, target, Seed::new(1));
        let total: usize = (0..n).map(|v| o.degree(VertexId::new(v))).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - target).abs() < 1.5,
            "mean degree {mean}, target {target}"
        );
    }

    #[test]
    fn hubs_and_tail_coexist() {
        let n = 4_000;
        let o = ImplicitChungLu::power_law(n, 2.2, 6.0, Seed::new(2));
        let hub_mean: f64 = (0..10)
            .map(|v| o.degree(VertexId::new(v)) as f64)
            .sum::<f64>()
            / 10.0;
        let tail_low = (n - 500..n)
            .filter(|&v| o.degree(VertexId::new(v)) <= 3)
            .count();
        assert!(hub_mean > 15.0, "hub mean degree {hub_mean}");
        assert!(tail_low > 250, "tail too dense: {tail_low}/500 low-degree");
    }

    #[test]
    fn adjacency_is_symmetric_including_hubs() {
        let o = ImplicitChungLu::power_law(20_000_000, 2.5, 8.0, Seed::new(3));
        for probe in [0usize, 1, 5, 19_999_999, 10_000_000] {
            let v = VertexId::new(probe);
            for i in 0..o.degree(v) {
                let w = o.neighbor(v, i).unwrap();
                let back = o.adjacency(w, v).expect("missing reverse edge");
                assert_eq!(o.neighbor(w, back), Some(v));
            }
        }
    }

    #[test]
    fn weight_sum_tail_approximation_is_close() {
        // Compare the hybrid sum against the exact sum just above the cap.
        let n = EXACT_SUM_CAP + 50_000;
        let gamma = 0.6;
        let exact: f64 = (1..=n).map(|t| (t as f64).powf(-gamma)).sum();
        let approx = weight_sum(n, gamma);
        assert!(
            ((approx - exact) / exact).abs() < 1e-4,
            "approx {approx} vs exact {exact}"
        );
    }
}
