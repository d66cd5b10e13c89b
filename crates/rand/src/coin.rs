//! Per-ID biased coins and pseudorandom index sequences.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::field::MERSENNE_PRIME_61;
use crate::kwise::KWiseHash;
use crate::splitmix::Seed;

/// A per-ID biased coin with bounded independence.
///
/// `Coin` realizes the paper's hitting-set sampler (Section 5, “Bounded
/// independence for hitting set procedures”): each ID `x` flips an independent
/// coin with success probability `p`, the flips are d-wise independent, and —
/// crucially for the LCA model — the outcome for any ID is recomputable from
/// the seed with **no probes** (Observation 2.3).
///
/// # Example
///
/// ```
/// use lca_rand::{Coin, Seed};
/// let coin = Coin::new(Seed::new(1), 0.5, 8);
/// let heads = (0..10_000).filter(|&x| coin.flip(x)).count();
/// assert!((4_000..6_000).contains(&heads));
/// ```
#[derive(Debug, Clone)]
pub struct Coin {
    hash: KWiseHash,
    threshold: u64,
    prob: f64,
}

impl Coin {
    /// Creates a coin with success probability `prob` (clamped to `[0, 1]`)
    /// and the given independence.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is NaN or `independence == 0`.
    pub fn new(seed: Seed, prob: f64, independence: usize) -> Self {
        assert!(!prob.is_nan(), "probability must not be NaN");
        let prob = prob.clamp(0.0, 1.0);
        let threshold = if prob >= 1.0 {
            MERSENNE_PRIME_61
        } else {
            (prob * MERSENNE_PRIME_61 as f64) as u64
        };
        Self {
            hash: KWiseHash::new(seed, independence),
            threshold,
            prob,
        }
    }

    /// The success probability this coin was built with (after clamping).
    pub fn prob(&self) -> f64 {
        self.prob
    }

    /// Flips the coin for ID `x`.
    pub fn flip(&self, x: u64) -> bool {
        self.hash.hash(x) < self.threshold
    }
}

/// A [`Coin`] that remembers its flips: each id below
/// min(`ids`, [`MemoCoin::MAX_COVERED`]) keeps two bits (known, value) in
/// shared `AtomicU64` words, so a repeated flip is one relaxed load instead
/// of a Θ(log n)-wise hash. A first flip hashes and then sets both bits in
/// one `fetch_or`; ids outside the covered range hash every time.
///
/// The memo is safe to share across threads and across queries, because a
/// flip is a pure function of the seed and the id: a racing first flip
/// computes the same bits, and a reader sees either both bits or neither.
/// Nothing here changes any flip, so an LCA keeps the state bound of its
/// seed (Observation 2.3); the memo only spends up to 1 MiB per coin to
/// skip recomputation.
///
/// # Example
///
/// ```
/// use lca_rand::{Coin, MemoCoin, Seed};
/// let coin = Coin::new(Seed::new(1), 0.3, 16);
/// let memo = MemoCoin::new(coin.clone(), 1000);
/// for x in 0..2000 {
///     assert_eq!(memo.flip(x), coin.flip(x));
///     assert_eq!(memo.flip(x), coin.flip(x)); // remembered below 1000
/// }
/// ```
#[derive(Debug)]
pub struct MemoCoin {
    coin: Coin,
    /// Two bits per covered id, 32 ids per word: bit `2i + 1` says id
    /// `32w + i` was flipped, bit `2i` holds the outcome.
    words: Box<[AtomicU64]>,
}

impl MemoCoin {
    /// Ids at or above this never get a memo slot: 2²² ids × 2 bits is
    /// 1 MiB.
    pub const MAX_COVERED: u64 = 1 << 22;

    /// Wraps `coin`, remembering flips of the ids below
    /// min(`ids`, [`MemoCoin::MAX_COVERED`]).
    pub fn new(coin: Coin, ids: u64) -> Self {
        let words = ids.min(Self::MAX_COVERED).div_ceil(32) as usize;
        Self {
            coin,
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The wrapped coin.
    pub fn coin(&self) -> &Coin {
        &self.coin
    }

    /// Flips the coin for ID `x`: exactly [`Coin::flip`], remembered.
    pub fn flip(&self, x: u64) -> bool {
        let Some(word) = usize::try_from(x / 32).ok().and_then(|w| self.words.get(w)) else {
            return self.coin.flip(x);
        };
        let shift = 2 * (x % 32);
        let bits = word.load(Ordering::Relaxed) >> shift;
        if bits & 0b10 != 0 {
            return bits & 1 != 0;
        }
        let heads = self.coin.flip(x);
        word.fetch_or((0b10 | u64::from(heads)) << shift, Ordering::Relaxed);
        heads
    }
}

/// A per-ID sequence of pseudorandom indices in `[0, bound)`.
///
/// This implements the representative method's index sampling (Section 3 /
/// Section 5.1): vertex `v` draws `Θ(log n)` random positions inside its first
/// ∆_med neighbors, reproducibly from the seed and `ID(v)` alone. Index `j` of
/// ID `x` is `h((x, j))` for a d-wise independent `h`, so the whole collection
/// of draws across vertices retains bounded independence.
///
/// # Example
///
/// ```
/// use lca_rand::{IndexSampler, Seed};
/// let s = IndexSampler::new(Seed::new(2), 16);
/// let picks: Vec<u64> = s.indices(/*id=*/5, /*count=*/4, /*bound=*/10).collect();
/// assert_eq!(picks.len(), 4);
/// assert!(picks.iter().all(|&i| i < 10));
/// ```
#[derive(Debug, Clone)]
pub struct IndexSampler {
    hash: KWiseHash,
}

impl IndexSampler {
    /// Creates a sampler with the given independence.
    pub fn new(seed: Seed, independence: usize) -> Self {
        Self {
            hash: KWiseHash::new(seed, independence),
        }
    }

    /// Returns the `j`-th pseudorandom index for ID `x`, uniform in
    /// `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn index(&self, x: u64, j: u64, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Pair (x, j) → single key. Keys stay distinct as long as j < 2^20
        // and x < 2^44, which holds for every use in this workspace.
        let key = x
            .wrapping_mul(0x100_0000)
            .wrapping_add(j)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23)
            ^ x;
        self.hash.hash_below(key, bound)
    }

    /// Returns `count` pseudorandom indices for ID `x`, each uniform in
    /// `[0, bound)` (not necessarily distinct, matching the paper's R_v).
    pub fn indices(&self, x: u64, count: usize, bound: u64) -> Indices<'_> {
        Indices {
            sampler: self,
            x,
            bound,
            next: 0,
            count,
        }
    }
}

/// Iterator over the pseudorandom indices of one ID.
///
/// Produced by [`IndexSampler::indices`].
#[derive(Debug)]
pub struct Indices<'a> {
    sampler: &'a IndexSampler,
    x: u64,
    bound: u64,
    next: u64,
    count: usize,
}

impl Iterator for Indices<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if (self.next as usize) >= self.count {
            return None;
        }
        let v = self.sampler.index(self.x, self.next, self.bound);
        self.next += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.count - self.next as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Indices<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coin_bias_is_respected() {
        for &p in &[0.01f64, 0.1, 0.5, 0.9] {
            let coin = Coin::new(Seed::new(4), p, 16);
            let n = 60_000u64;
            let heads = (0..n).filter(|&x| coin.flip(x)).count() as f64;
            let expect = p * n as f64;
            let sigma = (n as f64 * p * (1.0 - p)).sqrt();
            assert!(
                (heads - expect).abs() < 5.0 * sigma + 5.0,
                "p={p}: heads {heads}, expected {expect}"
            );
        }
    }

    #[test]
    fn coin_extremes() {
        let never = Coin::new(Seed::new(1), 0.0, 4);
        let always = Coin::new(Seed::new(1), 1.0, 4);
        for x in 0..1000 {
            assert!(!never.flip(x));
            assert!(always.flip(x));
        }
    }

    #[test]
    fn coin_clamps_out_of_range() {
        assert_eq!(Coin::new(Seed::new(1), -0.5, 4).prob(), 0.0);
        assert_eq!(Coin::new(Seed::new(1), 7.0, 4).prob(), 1.0);
    }

    #[test]
    #[should_panic(expected = "probability must not be NaN")]
    fn coin_rejects_nan() {
        let _ = Coin::new(Seed::new(1), f64::NAN, 4);
    }

    #[test]
    fn coin_is_deterministic() {
        let a = Coin::new(Seed::new(10), 0.3, 8);
        let b = Coin::new(Seed::new(10), 0.3, 8);
        for x in 0..500 {
            assert_eq!(a.flip(x), b.flip(x));
        }
    }

    #[test]
    fn memo_coin_flips_equal_the_coin_inside_and_outside_its_range() {
        let coin = Coin::new(Seed::new(21), 0.4, 12);
        let memo = MemoCoin::new(coin.clone(), 100);
        for round in 0..3 {
            for x in (0..300).chain([u64::MAX, 1 << 40]) {
                assert_eq!(memo.flip(x), coin.flip(x), "round {round} id {x}");
            }
        }
        // Covered ids hold their bits; uncovered ones never get a word.
        assert_eq!(memo.words.len(), 4);
        let known = memo
            .words
            .iter()
            .map(|w| (w.load(Ordering::Relaxed) & 0xAAAA_AAAA_AAAA_AAAA).count_ones())
            .sum::<u32>();
        assert_eq!(known, 128, "every id of the four words was flipped");
    }

    #[test]
    fn memo_coin_is_capped_at_one_mebibyte() {
        let memo = MemoCoin::new(Coin::new(Seed::new(1), 0.5, 4), u64::MAX);
        assert_eq!(memo.words.len() * 8, 1 << 20);
        let x = MemoCoin::MAX_COVERED;
        assert_eq!(memo.flip(x), memo.coin().flip(x));
    }

    #[test]
    fn memo_coin_is_shared_safely_across_threads() {
        // Threads race on first flips of the same ids and must all read
        // the coin's own outcome, whichever thread set the bits.
        let coin = Coin::new(Seed::new(8), 0.25, 16);
        let memo = MemoCoin::new(coin.clone(), 4096);
        let seen: Vec<Vec<bool>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let memo = &memo;
                    s.spawn(move || {
                        (0..5000u64)
                            .map(|i| memo.flip((i * (t + 1) * 7919) % 5000))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, flips) in seen.iter().enumerate() {
            for (i, &got) in flips.iter().enumerate() {
                let x = (i as u64 * (t as u64 + 1) * 7919) % 5000;
                assert_eq!(got, coin.flip(x), "thread {t} id {x}");
            }
        }
    }

    #[test]
    fn indices_deterministic_and_in_bound() {
        let s = IndexSampler::new(Seed::new(3), 8);
        let a: Vec<u64> = s.indices(42, 16, 100).collect();
        let b: Vec<u64> = s.indices(42, 16, 100).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&i| i < 100));
    }

    #[test]
    fn indices_differ_across_ids_and_positions() {
        let s = IndexSampler::new(Seed::new(3), 16);
        let a: Vec<u64> = s.indices(1, 32, 1_000_000).collect();
        let b: Vec<u64> = s.indices(2, 32, 1_000_000).collect();
        assert_ne!(a, b);
        // Positions within one ID are not all equal.
        assert!(a.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn indices_iterator_len() {
        let s = IndexSampler::new(Seed::new(3), 4);
        let it = s.indices(9, 7, 10);
        assert_eq!(it.len(), 7);
        assert_eq!(it.count(), 7);
    }

    #[test]
    fn indices_hit_large_sets_with_high_probability() {
        // Property (HII)-style check: Θ(log n) draws into [0, 2m) hit the
        // lower half [0, m) for almost every ID.
        let s = IndexSampler::new(Seed::new(8), 32);
        let draws = 24usize;
        let ids = 2_000u64;
        let misses = (0..ids)
            .filter(|&x| s.indices(x, draws, 64).all(|i| i >= 32))
            .count();
        assert!(misses <= 2, "{misses} ids missed the half-range");
    }

    #[test]
    fn index_rejects_zero_bound() {
        let s = IndexSampler::new(Seed::new(3), 4);
        let r = std::panic::catch_unwind(|| s.index(1, 0, 0));
        assert!(r.is_err());
    }
}
