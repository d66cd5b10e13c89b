//! The serving-layer input cache: an adapter onto the per-thread list store.

use lca_graph::implicit::{Access, ListStore};
use lca_graph::VertexId;

use crate::Oracle;

/// An [`Oracle`] wrapper that keeps whole adjacency lists **across
/// queries** in the calling thread's [`ListStore`], the same byte-bounded
/// store the implicit generators read. It routes an arbitrary inner oracle
/// (a parsed file, a remote store, a metering wrapper) through that store.
/// The implicit families need no wrapper, because they read it themselves;
/// wrapping one keeps each of its lists twice, once under each id.
///
/// This is serving-layer infrastructure, *not* part of the LCA model — and
/// the distinction matters:
///
/// * [`crate::MemoOracle`] models the algorithm's **per-query local
///   memory** (Definition 1.4): it must be [`clear`](crate::MemoOracle::clear)ed
///   between queries, and it is what defines the distinct-probe measure the
///   bench harness reports.
/// * `CachedOracle` models the **input side**: when the oracle itself is
///   expensive, the serving stack may keep its answers across queries
///   without changing any answer — probes are pure reads. It never
///   participates in probe accounting; a [`crate::CountingOracle`]
///   *inside* the cache sees `deg(v) + 1` probes per filled list, one
///   *outside* sees every logical probe.
///
/// Every probe kind reads the resident list of its vertex (`degree` is its
/// length, `neighbor` an index, `adjacency` a scan). A miss fills `Γ(v)`
/// once through the inner oracle's [`Oracle::neighbors_into`], outside the
/// store's borrow, so the inner oracle may itself be store-backed. Each
/// thread fills its own copy: a list probed on two threads is filled twice,
/// and no probe ever waits on another thread. A list the inner oracle
/// returned truncated answers its probe and is not kept.
///
/// The thread's [`ListStore::stats`] count probes: a *miss* is a probe that
/// filled a list, a *hit* one answered by a resident (or just-filled) list.
///
/// # Example
///
/// ```
/// use lca_graph::implicit::ListStore;
/// use lca_graph::{gen::structured, VertexId};
/// use lca_probe::{CachedOracle, CountingOracle, Oracle};
///
/// let g = structured::star(6);
/// let counted = CountingOracle::new(&g);
/// let cached = CachedOracle::new(&counted);
/// let hub = VertexId::new(0);
/// let before = ListStore::stats();
/// let d = cached.degree(hub); // miss: fills Γ(hub) once
/// for i in 0..d {
///     assert_eq!(cached.neighbor(hub, i), g.neighbor(hub, i)); // hits
/// }
/// assert_eq!(counted.counts().total(), d as u64 + 1, "one fill");
/// let after = ListStore::stats();
/// assert_eq!((after.misses - before.misses, after.hits - before.hits), (1, 5));
/// ```
#[derive(Debug)]
pub struct CachedOracle<O> {
    inner: O,
    store_id: u32,
}

impl<O: Oracle> CachedOracle<O> {
    /// Wraps an oracle under a fresh store id.
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            store_id: ListStore::next_oracle_id(),
        }
    }

    /// A reference to the wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Hands `read` the list `Γ(v)` and `deg(v)`, filling the list from
    /// the inner oracle on a miss.
    fn with_list<T>(
        &self,
        v: VertexId,
        access: Access,
        read: impl FnOnce(&[VertexId], usize) -> T,
    ) -> T {
        ListStore::with_list(
            self.store_id,
            v,
            access,
            |buf| self.inner.neighbors_into(v, buf),
            read,
        )
    }
}

impl<O: Oracle> Oracle for CachedOracle<O> {
    fn vertex_count(&self) -> usize {
        self.inner.vertex_count()
    }

    fn degree(&self, v: VertexId) -> usize {
        self.with_list(v, Access::Point, |_, d| d)
    }

    fn neighbor(&self, v: VertexId, i: usize) -> Option<VertexId> {
        self.with_list(v, Access::Point, |l, _| l.get(i).copied())
    }

    fn adjacency(&self, u: VertexId, v: VertexId) -> Option<usize> {
        self.with_list(u, Access::Point, |l, _| l.iter().position(|&w| w == v))
    }

    fn neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> usize {
        self.with_list(v, Access::Scan, |l, d| {
            out.clear();
            out.extend_from_slice(l);
            d
        })
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
        let before = ListStore::stats();
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
        let after = ListStore::stats();
        assert_eq!(after.misses - before.misses, 8, "a miss fills a list");
        assert_eq!(after.requests() - before.requests(), 3 * 8 * 4);
        assert_eq!(after.entries - before.entries, 8);
    }

    #[test]
    fn one_list_serves_all_probe_kinds() {
        let g = structured::cycle(9);
        let counted = CountingOracle::new(&g);
        let cached = CachedOracle::new(&counted);
        let v = VertexId::new(4);
        let before = ListStore::stats();
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
        let after = ListStore::stats();
        assert_eq!(
            (after.misses - before.misses, after.hits - before.hits),
            (1, 3 + 5)
        );
    }

    #[test]
    fn a_bound_of_zero_fills_on_every_probe() {
        let g = structured::star(6);
        let counted = CountingOracle::new(&g);
        let cached = CachedOracle::new(&counted);
        let default = ListStore::set_byte_bound(0);
        let hub = VertexId::new(0);
        assert_eq!(cached.degree(hub), 5);
        assert_eq!(cached.neighbor(hub, 4), g.neighbor(hub, 4));
        assert_eq!(ListStore::stats().entries, 0);
        assert_eq!(counted.counts().total(), 2 * 6);
        ListStore::set_byte_bound(default);
    }

    #[test]
    fn an_adapter_over_an_adapter_fills_each_list_once() {
        // The outer fill probes the inner adapter from inside its own miss;
        // each keeps its copy under its own id.
        let g = structured::complete(5);
        let counted = CountingOracle::new(&g);
        let inner = CachedOracle::new(&counted);
        let outer = CachedOracle::new(&inner);
        let before = ListStore::stats();
        for _ in 0..3 {
            for v in g.vertices() {
                assert_eq!(outer.degree(v), 4);
                assert_eq!(outer.neighbor(v, 3), g.neighbor(v, 3));
            }
        }
        assert_eq!(counted.counts().total(), 5 * 5, "one fill per list");
        assert_eq!(ListStore::stats().entries - before.entries, 2 * 5);
    }

    #[test]
    fn a_fill_through_a_store_backed_oracle_runs_outside_the_borrow() {
        // The implicit oracle reads the store itself, so the adapter's fill
        // probes the store from inside a miss.
        let g = lca_graph::implicit::ImplicitGnp::new(200, 4.0, lca_rand::Seed::new(1));
        let counted = CountingOracle::new(&g);
        let cached = CachedOracle::new(&counted);
        let v = VertexId::new(7);
        for _ in 0..3 {
            assert_eq!(cached.degree(v), g.degree(v));
        }
        assert_eq!(counted.counts().total(), g.degree(v) as u64 + 1);
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
        let before = ListStore::stats();
        assert_eq!(cached.degree(hub), 5);
        assert_eq!(cached.neighbor(hub, 1), g.neighbor(hub, 1));
        assert_eq!(cached.neighbor(hub, 3), None, "refused, not invented");
        assert_eq!(ListStore::stats().entries, before.entries);
    }
}
