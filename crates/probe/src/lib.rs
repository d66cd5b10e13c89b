//! The adjacency-list oracle model (paper Section 1.4).
//!
//! An LCA never reads the graph directly: it accesses the oracle `O_G`
//! through three probe types, and its *probe complexity* — the maximum number
//! of probes per query — is the headline cost measure of every theorem in the
//! paper.
//!
//! * `Neighbor⟨v, i⟩` — the i-th neighbor of `v`, or ⊥ if `i ≥ deg(v)`.
//! * `Degree⟨v⟩` — `deg(v)`.
//! * `Adjacency⟨u, v⟩` — the index of `v` inside `Γ(u)`, or ⊥. (Returning the
//!   *index* is what makes the single-probe cluster-membership test of
//!   Idea (I) possible.)
//!
//! [`Oracle`] is the probe interface (defined in `lca-graph`, which owns
//! both backing stores: the materialized [`lca_graph::Graph`] and the
//! [`lca_graph::implicit`] generator-backed oracles for graphs too large to
//! materialize). This crate layers accounting and caching on top without
//! changing semantics:
//!
//! * [`CountingOracle`] — per-kind totals ([`ProbeCounts`]) and a
//!   [`CountingOracle::scoped`] helper for per-query costs.
//! * [`TracingOracle`] — records the full probe sequence for debugging and
//!   for the lower-bound experiment's probe-answer histories.
//! * [`MemoOracle`] — counts only *distinct* probes, modelling an LCA that
//!   caches oracle answers in its local memory during one query.
//! * [`CachedOracle`] — a sharded **serving-layer** cache that persists
//!   across queries.
//!
//! [`MulShift`] is the keyed vertex-key hasher behind the serving cache's
//! slab and the per-query maps of the spanner walks ([`VertexMap`],
//! [`VertexSet`]).
//!
//! # Two caches, two meanings
//!
//! [`MemoOracle`] and [`CachedOracle`] look alike and must not be confused:
//!
//! * **[`MemoOracle`] is part of the model.** Definition 1.4 gives the LCA
//!   read-write memory *for the duration of one query*; memoizing within a
//!   query is what turns the raw probe count into the distinct-probe
//!   measure, which is why only `MemoOracle` participates in probe
//!   accounting (`measure_queries_distinct` in `lca-core` installs one
//!   per query). It must be [`MemoOracle::clear`]ed between queries —
//!   persisting it would quietly turn the LCA into a global algorithm with
//!   precomputed state.
//! * **[`CachedOracle`] is part of the serving stack.** When the input
//!   oracle is expensive — an implicit generator recomputing adjacency per
//!   probe, a remote store — the *server* may cache input answers across
//!   queries, because probes are pure reads and caching cannot change any
//!   answer. It deliberately never appears in a probe-cost report: it
//!   reduces the cost of answering probes, not the number of probes the
//!   algorithm needs.
//!
//! # Example
//!
//! ```
//! use lca_graph::{gen::structured, VertexId};
//! use lca_probe::{CountingOracle, Oracle};
//!
//! let g = structured::star(8);
//! let o = CountingOracle::new(&g);
//! assert_eq!(o.degree(VertexId::new(0)), 7);
//! let w = o.neighbor(VertexId::new(0), 3).unwrap();
//! assert_eq!(o.adjacency(VertexId::new(0), w), Some(3));
//! assert_eq!(o.counts().total(), 3);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cached;
mod counting;
mod keyhash;
mod memo;
mod tracing;

pub use cached::{CacheStats, CachedOracle};
pub use counting::{CountingOracle, ProbeCounts, QueryScope};
pub use keyhash::{MulShift, MulShiftHasher, VertexMap, VertexSet};
pub use memo::{measure_distinct, MemoOracle};
pub use tracing::{ProbeRecord, TracingOracle};

pub use lca_graph::{Oracle, ProbeCost};

/// Routes a 64-bit key to one of `len` shards (Fibonacci hashing: the
/// golden-ratio multiply spreads consecutive keys across shards while
/// staying a pure function of the key). This is **the** workspace shard
/// router — [`MemoOracle`], [`CachedOracle`], and the serve layer's session
/// registry all route through it, so a key lands on the same shard index
/// no matter which layer asks.
pub fn shard_for_key(key: u64, len: usize) -> usize {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 32) as usize % len.max(1)
}

/// Routes a string key (e.g. a serving-session name) to one of `len`
/// shards: an FNV-1a fold of the bytes, then the same Fibonacci multiply as
/// [`shard_for_key`].
pub fn shard_for_str(key: &str, len: usize) -> usize {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in key.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    shard_for_key(h, len)
}

/// Routes a vertex to one of `len` shards — the [`shard_for_key`]
/// specialization the sharded caches use.
pub(crate) fn shard_index(v: u32, len: usize) -> usize {
    shard_for_key(v as u64, len)
}

/// The three probe types of the LCA model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeKind {
    /// `Neighbor⟨v, i⟩`.
    Neighbor,
    /// `Degree⟨v⟩`.
    Degree,
    /// `Adjacency⟨u, v⟩`.
    Adjacency,
}

impl std::fmt::Display for ProbeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProbeKind::Neighbor => "neighbor",
            ProbeKind::Degree => "degree",
            ProbeKind::Adjacency => "adjacency",
        };
        f.write_str(s)
    }
}
