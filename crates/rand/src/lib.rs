//! Bounded-independence randomness for local computation algorithms.
//!
//! LCAs answer every query with respect to one *fixed* random tape, so all of
//! their randomness must be reproducible from a short seed: given the ID of a
//! vertex, an LCA must decide — with **no probes** — whether that vertex was
//! sampled as a center, which random indices it drew, what its random rank is,
//! and so on (paper, Observation 2.3 and Section 5).
//!
//! This crate provides exactly that substrate:
//!
//! * [`Seed`] — a 64-bit master seed with deterministic derivation of
//!   independent sub-seeds per context (SplitMix64 mixing).
//! * [`KWiseHash`] — a d-wise independent hash family implemented as random
//!   degree-(d−1) polynomials over the Mersenne prime field GF(2⁶¹−1)
//!   (the classical construction behind Lemma 5.2 of the paper).
//! * [`Coin`] — per-ID biased coins (“is v a center?”) built on a hash, and
//!   [`MemoCoin`], which remembers a coin's flips across queries.
//! * [`IndexSampler`] — per-ID pseudorandom index sequences (the Θ(log n)
//!   random neighbor-list indices used by the representative method, §3).
//! * [`RankAssigner`] — the block-concatenated rank function
//!   r(v) = h₁(ID(v)) ∘ … ∘ h_T(ID(v)) of Section 5.2, with per-block access
//!   for the inductive O(k)-step argument of Lemma 5.5.
//!
//! # Example
//!
//! ```
//! use lca_rand::{Seed, Coin};
//!
//! let seed = Seed::new(42);
//! // Sample vertices as centers with probability 0.25, 16-wise independently.
//! let coin = Coin::new(seed.derive(1), 0.25, 16);
//! let centers: Vec<u64> = (0..1000).filter(|&v| coin.flip(v)).collect();
//! assert!(!centers.is_empty());
//! // The decision never changes for a fixed seed.
//! assert_eq!(coin.flip(7), Coin::new(Seed::new(42).derive(1), 0.25, 16).flip(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coin;
mod field;
mod kwise;
mod rank;
mod splitmix;

pub use coin::{Coin, IndexSampler, MemoCoin};
pub use field::{add_mod, mul_mod, pow_mod, MERSENNE_PRIME_61};
pub use kwise::KWiseHash;
pub use rank::{Rank, RankAssigner};
pub use splitmix::{Seed, SplitMix64};
