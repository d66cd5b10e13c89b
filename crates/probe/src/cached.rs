//! The serving-layer input cache.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::sync::{Mutex, MutexGuard};

use lca_graph::VertexId;

use crate::Oracle;

/// Default number of cache shards.
const DEFAULT_SHARDS: usize = 16;

/// Default byte budget of one shard's slab; 16 shards × 1 MiB = 16 MiB per
/// cache.
const DEFAULT_SLAB_BYTES: usize = 1024 * 1024;

/// Accounted footprint of one slab entry: the `Box` header + hash-map slot
/// overhead, charged on top of the neighbor payload itself.
const LIST_OVERHEAD_BYTES: usize = 48;

/// An [`Oracle`] wrapper that caches whole adjacency lists **across
/// queries**, sharded by vertex so concurrent `query_batch` workers rarely
/// contend on one lock.
///
/// This is serving-layer infrastructure, *not* part of the LCA model — and
/// the distinction matters:
///
/// * [`crate::MemoOracle`] models the algorithm's **per-query local
///   memory** (Definition 1.4): it must be [`clear`](crate::MemoOracle::clear)ed
///   between queries, and it is what defines the distinct-probe measure the
///   bench harness reports.
/// * `CachedOracle` models the **input side**: when the oracle itself is
///   expensive (an implicit generator recomputing adjacency per probe, a
///   remote store, a parsed file), the serving stack may cache its answers
///   across queries without changing any answer — probes are pure reads.
///   It never participates in probe accounting; a [`crate::CountingOracle`]
///   *inside* the cache sees `deg(v) + 1` probes per filled list, one
///   *outside* sees every logical probe.
///
/// The store is a per-shard slab of decoded lists `Γ(v)`. Every probe kind
/// reads the resident list of its vertex (`degree` is its length,
/// `neighbor` an index, `adjacency` a scan). A miss fills `Γ(v)` once
/// through the inner oracle's [`Oracle::neighbors_into`] while holding the
/// shard lock, so racing probes of one vertex fill it exactly once. The
/// slab is byte-bounded per shard ([`CachedOracle::with_slab_bytes`]) and
/// evicts with a *second-chance* sweep: a hit sets the list's referenced
/// bit, and admission at the budget re-queues referenced lists (bit
/// cleared) and evicts cold ones, so the hit rate degrades smoothly at the
/// capacity boundary. A list larger than a whole shard's budget, or one
/// the inner oracle returned truncated, answers its probe from the fill
/// buffer and is not admitted.
///
/// [`CacheStats`] counts probes: a *miss* is a probe that filled a list, a
/// *hit* one answered by a resident (or just-filled) list. Counters live in
/// each shard, under the lock the probe already holds.
///
/// # Example
///
/// ```
/// use lca_graph::implicit::ImplicitGnp;
/// use lca_graph::VertexId;
/// use lca_probe::{CachedOracle, Oracle};
/// use lca_rand::Seed;
///
/// let gen = ImplicitGnp::new(1_000_000, 4.0, Seed::new(1));
/// let cached = CachedOracle::new(&gen);
/// let v = VertexId::new(123);
/// let d = cached.degree(v); // miss: fills Γ(v) once
/// for i in 0..d {
///     assert_eq!(cached.neighbor(v, i), gen.neighbor(v, i)); // hits
/// }
/// let stats = cached.stats();
/// assert_eq!((stats.misses, stats.hits), (1, d as u64));
/// assert_eq!(stats.entries, 1);
/// ```
#[derive(Debug)]
pub struct CachedOracle<O> {
    inner: O,
    shards: Vec<Mutex<Shard>>,
    slab_bytes_per_shard: usize,
}

/// A slab entry: the full `Γ(v)` plus its second-chance bit.
#[derive(Debug)]
struct ListEntry {
    nbrs: Box<[VertexId]>,
    referenced: bool,
}

/// Accounted bytes of a resident list of `len` neighbors.
fn list_bytes(len: usize) -> usize {
    len * std::mem::size_of::<VertexId>() + LIST_OVERHEAD_BYTES
}

/// Multiply-shift hashing of vertex keys: the Fibonacci-style multiply of
/// [`crate::shard_for_key`], one multiplication instead of SipHash's
/// rounds, but with a random odd multiplier per shard. Clients choose the
/// vertices they query, and with a public multiplier they could pick ids
/// that all land in one bucket chain; a random multiplier makes that a
/// guess (multiply-shift is universal). The product's high half, its
/// well-mixed bits, is rotated down to where the map takes bucket indices.
#[derive(Debug, Clone, Copy)]
struct MulShift(u64);

impl Default for MulShift {
    fn default() -> Self {
        MulShift(std::collections::hash_map::RandomState::new().hash_one(0u64) | 1)
    }
}

impl BuildHasher for MulShift {
    type Hasher = MulShiftHasher;

    fn build_hasher(&self) -> MulShiftHasher {
        MulShiftHasher { mul: self.0, h: 0 }
    }
}

/// The [`MulShift`] state for one key.
#[derive(Debug)]
struct MulShiftHasher {
    mul: u64,
    h: u64,
}

impl Hasher for MulShiftHasher {
    fn finish(&self) -> u64 {
        self.h
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(self.h as u32 ^ b as u32);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.h = (v as u64).wrapping_mul(self.mul).rotate_left(32);
    }
}

#[derive(Debug, Default)]
struct Shard {
    lists: HashMap<u32, ListEntry, MulShift>,
    /// Vertices in admission order (the second-chance clock).
    queue: VecDeque<u32>,
    /// Accounted bytes of the resident lists.
    bytes: usize,
    /// Reused buffer every miss fills `Γ(v)` into.
    fill: Vec<VertexId>,
    hits: u64,
    misses: u64,
}

impl Shard {
    /// Admits the fill buffer as `Γ(v)` if it fits in `budget` bytes,
    /// evicting cold lists to make room.
    fn admit(&mut self, v: u32, budget: usize) {
        let bytes = list_bytes(self.fill.len());
        let Some(room) = budget.checked_sub(bytes) else {
            return;
        };
        self.evict_to(room);
        if self.bytes <= room {
            let entry = ListEntry {
                nbrs: self.fill.as_slice().into(),
                referenced: false,
            };
            self.lists.insert(v, entry);
            self.queue.push_back(v);
            self.bytes += bytes;
        }
    }

    /// Shrinks the slab to at most `budget` bytes in second-chance order.
    /// Each step evicts or clears one referenced bit, so `2 × queue.len()`
    /// steps empty the slab if they must.
    fn evict_to(&mut self, budget: usize) {
        let mut sweeps = 2 * self.queue.len();
        while self.bytes > budget && sweeps > 0 {
            let Some(v) = self.queue.pop_front() else {
                break;
            };
            match self.lists.get_mut(&v) {
                Some(e) if e.referenced => {
                    e.referenced = false;
                    self.queue.push_back(v);
                }
                _ => {
                    if let Some(e) = self.lists.remove(&v) {
                        self.bytes -= list_bytes(e.nbrs.len());
                    }
                }
            }
            sweeps -= 1;
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.lists.len(),
            bytes: self.bytes,
        }
    }
}

/// Hit/miss/size counters of a [`CachedOracle`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered by a resident (or just-filled) list.
    pub hits: u64,
    /// Probes that filled a list from the inner oracle.
    pub misses: u64,
    /// Adjacency lists currently resident across all shards.
    pub entries: usize,
    /// Accounted bytes of the resident lists (neighbor payload plus a fixed
    /// per-list overhead), bounded by shards × the per-shard budget.
    pub bytes: usize,
}

impl CacheStats {
    /// Fraction of probes served from cache (`NaN` before any probe).
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses) as f64
    }

    /// Total probes that went through the cache (hits + misses).
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    /// Component-wise aggregation, so a serving layer can roll per-session
    /// cache stats up into a fleet-wide view.
    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            entries: self.entries + rhs.entries,
            bytes: self.bytes + rhs.bytes,
        }
    }
}

impl<O: Oracle> CachedOracle<O> {
    /// Wraps an oracle with 16 shards and the default 1 MiB slab per shard.
    pub fn new(inner: O) -> Self {
        Self::with_shards(inner, DEFAULT_SHARDS)
    }

    /// Wraps with an explicit shard count (the concurrency knob; the
    /// memory bound is shards × [`with_slab_bytes`](Self::with_slab_bytes)).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_shards(inner: O, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard is required");
        Self {
            inner,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            slab_bytes_per_shard: DEFAULT_SLAB_BYTES,
        }
    }

    /// Sets the per-shard byte budget of the slab (`0` admits nothing:
    /// every probe fills its list and answers from the fill buffer).
    pub fn with_slab_bytes(mut self, bytes_per_shard: usize) -> Self {
        self.slab_bytes_per_shard = bytes_per_shard;
        self
    }

    /// Current hit/miss/occupancy counters (one lock per shard).
    pub fn stats(&self) -> CacheStats {
        self.shards
            .iter()
            .map(|s| lock_shard(s).stats())
            .fold(CacheStats::default(), |a, b| a + b)
    }

    /// Drops every resident list (counters are kept).
    pub fn flush(&self) {
        for shard in &self.shards {
            let mut s = lock_shard(shard);
            s.lists.clear();
            s.queue.clear();
            s.bytes = 0;
        }
    }

    /// A reference to the wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    fn shard(&self, v: u32) -> MutexGuard<'_, Shard> {
        let i = crate::shard_index(v, self.shards.len());
        match self.shards.get(i).or_else(|| self.shards.first()) {
            Some(s) => lock_shard(s),
            // `shards` is never empty (asserted at construction); satisfy
            // the panic-free contract without indexing.
            None => unreachable_shard(),
        }
    }

    /// Hands `read` the list `Γ(v)` and `deg(v)`, filling the list on a
    /// miss. `read` answers `probes(deg(v))` logical probes: the first is a
    /// miss if it filled the list, every other one a hit.
    fn with_list<T>(
        &self,
        v: VertexId,
        probes: impl FnOnce(usize) -> u64,
        read: impl FnOnce(&[VertexId], usize) -> T,
    ) -> T {
        let mut guard = self.shard(v.raw());
        let s = &mut *guard;
        let (answer, d, filled) = match s.lists.get_mut(&v.raw()) {
            Some(e) => {
                e.referenced = true;
                (read(&e.nbrs, e.nbrs.len()), e.nbrs.len(), 0)
            }
            None => {
                let d = self.inner.neighbors_into(v, &mut s.fill);
                let answer = read(&s.fill, d);
                // A truncated fill (a budgeted inner view ran dry) must not
                // masquerade as `Γ(v)` for future probes.
                if s.fill.len() == d {
                    s.admit(v.raw(), self.slab_bytes_per_shard);
                }
                (answer, d, 1)
            }
        };
        s.misses += filled;
        s.hits += probes(d) - filled;
        answer
    }
}

/// Locks a shard, recovering the guard if a holder panicked: every cached
/// value is a pure probe answer, so a poisoned shard is still valid data.
fn lock_shard(m: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Cold stub for the impossible empty-shard-vector case.
#[cold]
fn unreachable_shard() -> ! {
    // lint:allow(panic) — construction asserts shards > 0; this path is dead.
    unreachable!("CachedOracle has at least one shard")
}

impl<O: Oracle> Oracle for CachedOracle<O> {
    fn vertex_count(&self) -> usize {
        self.inner.vertex_count()
    }

    fn degree(&self, v: VertexId) -> usize {
        self.with_list(v, |_| 1, |_, d| d)
    }

    fn neighbor(&self, v: VertexId, i: usize) -> Option<VertexId> {
        self.with_list(v, |_| 1, |l, _| l.get(i).copied())
    }

    fn adjacency(&self, u: VertexId, v: VertexId) -> Option<usize> {
        self.with_list(u, |_| 1, |l, _| l.iter().position(|&w| w == v))
    }

    fn neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> usize {
        // One buffered scan is deg + 1 logical probes.
        self.with_list(
            v,
            |d| d as u64 + 1,
            |l, d| {
                out.clear();
                out.extend_from_slice(l);
                d
            },
        )
    }

    fn label(&self, v: VertexId) -> u64 {
        self.inner.label(v)
    }

    fn probe_cost_hint(&self) -> lca_graph::ProbeCost {
        self.inner.probe_cost_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CountingOracle;
    use lca_graph::gen::structured;

    #[test]
    fn answers_match_and_each_list_fills_once() {
        let g = structured::cycle(8);
        let counted = CountingOracle::new(&g);
        let cached = CachedOracle::new(&counted);
        for _ in 0..3 {
            for v in g.vertices() {
                assert_eq!(cached.degree(v), g.degree(v));
                assert_eq!(cached.neighbor(v, 0), g.neighbor(v, 0));
                assert_eq!(cached.neighbor(v, 99), g.neighbor(v, 99));
                assert_eq!(cached.adjacency(v, v), None);
            }
        }
        // The inner oracle saw one `deg + 1` fill per vertex, nothing more.
        assert_eq!(counted.counts().total(), 8 * 3);
        let stats = cached.stats();
        assert_eq!(stats.misses, 8, "a miss is a probe that filled a list");
        assert_eq!(stats.requests(), 3 * 8 * 4);
        assert_eq!(stats.entries, 8);
        assert_eq!(stats.bytes, 8 * list_bytes(2));
    }

    #[test]
    fn cache_survives_across_queries_unlike_memo() {
        let g = structured::star(10);
        let counted = CountingOracle::new(&g);
        let cached = CachedOracle::new(&counted);
        // Two "queries" probing the same vertex: the second costs nothing.
        cached.degree(VertexId::new(0));
        cached.degree(VertexId::new(0));
        assert_eq!(counted.counts().degree, 1);
    }

    #[test]
    fn tiny_slab_keeps_answers_correct() {
        let g = structured::complete(12);
        // 200 bytes per shard holds two 11-neighbor lists (92 bytes each).
        let cached = CachedOracle::with_shards(&g, 2).with_slab_bytes(200);
        for round in 0..3 {
            for v in g.vertices() {
                assert_eq!(cached.degree(v), 11, "round {round}");
                for i in 0..11 {
                    assert_eq!(cached.neighbor(v, i), g.neighbor(v, i));
                }
            }
        }
        let stats = cached.stats();
        assert!(stats.entries <= 2 * 2, "capacity exceeded: {stats:?}");
        assert!(stats.bytes <= 2 * 200, "byte budget exceeded: {stats:?}");
    }

    #[test]
    fn eviction_is_incremental_not_wholesale() {
        // A hot set (12 vertices, re-probed every round) under constant cold
        // pressure (4 fresh vertices per round from a 16-vertex pool, so the
        // slab sits pinned at its 16-list budget). The second-chance sweep
        // must keep re-referenced hot lists resident and evict only cold
        // ones, so every round after warmup serves all 12 hot probes from
        // cache.
        let g = structured::complete(28);
        let cached = CachedOracle::with_shards(&g, 1).with_slab_bytes(16 * list_bytes(27));
        let hot: Vec<VertexId> = (0..12).map(VertexId::new).collect();
        for &v in &hot {
            cached.degree(v); // warmup: hot set resident
        }
        let mut worst_round_rate = f64::INFINITY;
        for round in 0..12 {
            let before = cached.stats();
            for &v in &hot {
                cached.degree(v);
            }
            for i in 0..4u32 {
                let cold = 12 + (4 * round + i) % 16;
                cached.degree(VertexId::from(cold));
            }
            let after = cached.stats();
            let hits = (after.hits - before.hits) as f64;
            let reqs = (after.requests() - before.requests()) as f64;
            worst_round_rate = worst_round_rate.min(hits / reqs);
            assert!(after.entries <= 16, "capacity exceeded: {}", after.entries);
        }
        // Second chance retains the full hot set: 12 of 16 probes per round.
        assert!(
            worst_round_rate >= 12.0 / 16.0,
            "hot set evicted under cold pressure: worst round {worst_round_rate}"
        );
    }

    #[test]
    fn one_list_serves_all_probe_kinds() {
        let g = structured::cycle(9);
        let counted = CountingOracle::new(&g);
        let cached = CachedOracle::new(&counted);
        let v = VertexId::new(4);
        // A point probe fills the whole list...
        assert_eq!(cached.degree(v), 2);
        let after_fill = counted.counts().total();
        assert_eq!(after_fill, 3);
        // ...and every later probe of v, bulk included, reads it.
        let mut buf = Vec::new();
        assert_eq!(cached.neighbors_into(v, &mut buf), 2);
        assert_eq!(cached.neighbor(v, 0), Some(buf[0]));
        assert_eq!(cached.neighbor(v, 1), Some(buf[1]));
        assert_eq!(cached.neighbor(v, 2), None);
        assert_eq!(cached.adjacency(v, buf[1]), Some(1));
        assert_eq!(cached.adjacency(v, v), None);
        assert_eq!(counted.counts().total(), after_fill, "all hits after fill");
        // The bulk scan counted as deg + 1 = 3 hits.
        let stats = cached.stats();
        assert_eq!((stats.misses, stats.hits), (1, 3 + 5));
    }

    #[test]
    fn a_bulk_miss_counts_like_its_decomposed_probes() {
        let g = structured::star(6);
        let cached = CachedOracle::new(&g);
        let mut buf = Vec::new();
        assert_eq!(cached.neighbors_into(VertexId::new(0), &mut buf), 5);
        assert_eq!(buf.len(), 5);
        let stats = cached.stats();
        // Degree⟨0⟩ filled the list; the five Neighbor probes read it.
        assert_eq!((stats.misses, stats.hits), (1, 5));
    }

    #[test]
    fn slab_respects_byte_budget() {
        let g = structured::complete(64);
        // Budget fits only a couple of 63-neighbor lists per shard.
        let cached = CachedOracle::with_shards(&g, 1).with_slab_bytes(700);
        let mut buf = Vec::new();
        for v in g.vertices() {
            cached.neighbors_into(v, &mut buf);
        }
        let stats = cached.stats();
        assert!(stats.entries >= 1, "budget admits at least one list");
        assert!(stats.entries <= 3, "byte budget exceeded: {stats:?}");
        assert!(stats.bytes <= 700, "byte budget exceeded: {stats:?}");
        // Answers stay correct regardless of residency.
        for v in g.vertices() {
            assert_eq!(cached.degree(v), 63);
        }
    }

    #[test]
    fn oversized_lists_answer_from_the_fill_buffer() {
        let g = structured::star(6);
        let counted = CountingOracle::new(&g);
        let cached = CachedOracle::new(&counted).with_slab_bytes(0);
        let hub = VertexId::new(0);
        assert_eq!(cached.degree(hub), 5);
        assert_eq!(cached.neighbor(hub, 4), g.neighbor(hub, 4));
        assert_eq!(cached.stats().entries, 0);
        assert_eq!(
            cached.stats().misses,
            2,
            "nothing resident: every probe fills"
        );
        assert_eq!(counted.counts().total(), 2 * 6);
    }

    /// Reports the full degree but answers only half of `Γ(v)`, like a
    /// budgeted view that ran dry mid-scan.
    struct Truncating<'a>(&'a lca_graph::Graph);

    impl Oracle for Truncating<'_> {
        fn vertex_count(&self) -> usize {
            self.0.vertex_count()
        }
        fn degree(&self, v: VertexId) -> usize {
            self.0.degree(v)
        }
        fn neighbor(&self, v: VertexId, i: usize) -> Option<VertexId> {
            (i < self.0.degree(v) / 2)
                .then(|| self.0.neighbor(v, i))
                .flatten()
        }
        fn adjacency(&self, u: VertexId, v: VertexId) -> Option<usize> {
            self.0.adjacency(u, v)
        }
        fn label(&self, v: VertexId) -> u64 {
            self.0.label(v)
        }
    }

    #[test]
    fn truncated_fills_are_not_admitted() {
        let g = structured::star(6);
        let cached = CachedOracle::new(Truncating(&g));
        let hub = VertexId::new(0);
        assert_eq!(cached.degree(hub), 5);
        assert_eq!(cached.neighbor(hub, 1), g.neighbor(hub, 1));
        assert_eq!(cached.neighbor(hub, 3), None, "refused, not invented");
        assert_eq!(cached.stats().entries, 0);
    }

    #[test]
    fn keys_sharing_low_bits_spread_across_buckets() {
        // Multiples of 2^16 share every low bit, so a hash whose low bits
        // follow the key's (an unkeyed multiply) sends them all to bucket
        // 0; the rotated product's high half spreads them.
        let h = MulShift(0x9E37_79B9_7F4A_7C15);
        let buckets: std::collections::HashSet<u64> =
            (0..1024u32).map(|k| h.hash_one(k << 16) & 1023).collect();
        assert!(buckets.len() > 512, "{} buckets", buckets.len());
    }

    #[test]
    fn stats_aggregate_componentwise() {
        let a = CacheStats {
            hits: 3,
            misses: 1,
            entries: 2,
            bytes: 100,
        };
        let b = CacheStats {
            hits: 7,
            misses: 9,
            entries: 4,
            bytes: 50,
        };
        let sum = a + b;
        assert_eq!(sum.hits, 10);
        assert_eq!(sum.misses, 10);
        assert_eq!(sum.entries, 6);
        assert_eq!(sum.bytes, 150);
        assert_eq!(sum.requests(), 20);
        assert_eq!(sum.hit_rate(), 0.5);
    }

    #[test]
    fn flush_empties_the_cache_and_keeps_counters() {
        let g = structured::path(5);
        let cached = CachedOracle::new(&g);
        cached.degree(VertexId::new(1));
        assert_eq!(cached.stats().entries, 1);
        cached.flush();
        let stats = cached.stats();
        assert_eq!((stats.entries, stats.bytes), (0, 0));
        assert_eq!(stats.misses, 1);
    }
}
