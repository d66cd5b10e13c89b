//! The matching-table core behind the randomized implicit families.
//!
//! The paper's Section 6 instances are unions of perfect matchings on the
//! cells of an `n × d` table. That construction is *locally invertible*: if
//! each matching pairs table positions `2k ↔ 2k+1` under a seeded
//! permutation `π_j` of `[0, n)` ([`SeededPermutation`]), then the partner of
//! `v` in slot `j` is `π_j(π_j⁻¹(v) XOR 1)` — one O(1) computation, no
//! materialization. Every randomized implicit oracle here is a union of `K`
//! such matchings, *thinned* by a per-`(slot, pair)` hash coin:
//!
//! * d-regular: `K = d` slots, every matched pair kept;
//! * sparse G(n, c/n)-style: keep with probability `c / K`, so degrees are
//!   `Binomial(K, c/K) → Poisson(c)`;
//! * Chung–Lu: keep pair `{u, v}` with probability
//!   `min(1, w_u·w_v / (K·w̄))`, so `E[deg v] ≈ w_v`.
//!
//! Thinning by an *unordered-pair* coin keeps the construction symmetric —
//! both endpoints compute the same coin — which is what makes every family
//! satisfy the oracle laws (adjacency symmetry, inverse-index consistency)
//! by construction.

use lca_rand::Seed;

use crate::VertexId;

use super::permute::SeededPermutation;

/// Derivation tag for per-slot permutation seeds.
const TAG_PERM: u64 = 0x004D_4154_4348_5F50;
/// Derivation tag for the pair-coin seed.
const TAG_COIN: u64 = 0x004D_4154_4348_5F43;

/// `K` seeded perfect matchings on `[0, n)` with O(1) partner lookup and a
/// per-`(slot, unordered pair)` uniform coin.
#[derive(Debug, Clone)]
pub(crate) struct MatchingSlots {
    n: u64,
    perms: Vec<SeededPermutation>,
    coin: Seed,
}

impl MatchingSlots {
    /// Builds `slots` matchings over `[0, n)` from a seed.
    pub(crate) fn new(n: usize, slots: usize, seed: Seed) -> Self {
        let n = n as u64;
        let perms = (0..slots)
            .map(|j| SeededPermutation::new(n.max(1), seed.derive2(TAG_PERM, j as u64)))
            .collect();
        Self {
            n,
            perms,
            coin: seed.derive(TAG_COIN),
        }
    }

    /// Number of matching slots `K`.
    pub(crate) fn slots(&self) -> usize {
        self.perms.len()
    }

    /// The partner of `v` in matching `slot`, or `None` if `v` sits in the
    /// unmatched last cell of an odd-sized table.
    pub(crate) fn partner(&self, v: u64, slot: usize) -> Option<u64> {
        if self.n < 2 {
            return None;
        }
        let perm = &self.perms[slot];
        let pos = perm.backward(v);
        let mate = pos ^ 1;
        if mate >= self.n {
            return None; // n odd: position n−1 is unmatched in this slot
        }
        Some(perm.forward(mate))
    }

    /// A uniform value in `[0, 1)`, deterministic per `(slot, {u, w})` and
    /// identical from both endpoints (the thinning coin).
    pub(crate) fn pair_unit(&self, slot: usize, u: u64, w: u64) -> f64 {
        let (a, b) = if u <= w { (u, w) } else { (w, u) };
        let h = self.coin.derive2(slot as u64, (a << 32) | b).value();
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The full neighbor list of `v`: partners of all slots whose pair passes
    /// `keep`, in slot order, with duplicate pairs (the same `{v, w}` matched
    /// in several slots) reported once at their first kept slot.
    ///
    /// Cost: O(K) permutation evaluations — this is the per-*generation*
    /// work bound of every matching-backed oracle (the per-thread
    /// [`super::ListStore`] amortizes it across repeated probes of one vertex).
    #[cfg(test)]
    pub(crate) fn neighbors_of(
        &self,
        v: VertexId,
        keep: impl FnMut(usize, u64) -> bool,
    ) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.neighbors_into(v, keep, &mut out);
        out
    }

    /// Buffered form of [`MatchingSlots::neighbors_of`]: clears `out` and
    /// fills it with the kept partners of `v`, in slot order, deduplicated.
    /// One permutation-table walk per call — the single place the Feistel
    /// setup is paid, whatever buffer the caller brings.
    pub(crate) fn neighbors_into(
        &self,
        v: VertexId,
        mut keep: impl FnMut(usize, u64) -> bool,
        out: &mut Vec<VertexId>,
    ) {
        let v = v.raw() as u64;
        out.clear();
        for slot in 0..self.perms.len() {
            let Some(w) = self.partner(v, slot) else {
                continue;
            };
            if !keep(slot, w) {
                continue;
            }
            let w = VertexId::from(w as u32);
            if !out.contains(&w) {
                out.push(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partner_is_an_involution_without_fixed_points() {
        for n in [2usize, 9, 64, 257] {
            let m = MatchingSlots::new(n, 5, Seed::new(3));
            for slot in 0..m.slots() {
                let mut unmatched = 0;
                for v in 0..n as u64 {
                    match m.partner(v, slot) {
                        Some(w) => {
                            assert_ne!(w, v, "self-loop at n={n}");
                            assert_eq!(m.partner(w, slot), Some(v), "not an involution");
                        }
                        None => unmatched += 1,
                    }
                }
                assert_eq!(unmatched, n % 2, "n={n}: wrong unmatched count");
            }
        }
    }

    #[test]
    fn pair_coin_is_symmetric_and_slot_sensitive() {
        let m = MatchingSlots::new(100, 4, Seed::new(9));
        assert_eq!(m.pair_unit(2, 3, 77), m.pair_unit(2, 77, 3));
        assert_ne!(m.pair_unit(0, 3, 77), m.pair_unit(1, 3, 77));
        let u = m.pair_unit(0, 1, 2);
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn neighbors_dedup_and_preserve_slot_order() {
        let m = MatchingSlots::new(50, 6, Seed::new(5));
        let v = VertexId::new(7);
        let all = m.neighbors_of(v, |_, _| true);
        let mut seen = std::collections::HashSet::new();
        for w in &all {
            assert!(seen.insert(*w), "duplicate neighbor {w}");
        }
        assert!(all.len() <= 6);
        // Keeping nothing yields the empty list.
        assert!(m.neighbors_of(v, |_, _| false).is_empty());
    }
}
