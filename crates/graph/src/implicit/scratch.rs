//! The per-thread list store: the one cache of generated adjacency lists.
//!
//! An implicit oracle regenerates `Γ(v)` from its seed on every probe —
//! O(K) Feistel cycle-walks plus hash-coin thinning — while query workloads
//! probe the same vertices over and over, within one query and across
//! queries. The LCA model charges for probes to the input, not for local
//! recomputation, so remembering generated lists is free in-model: a list
//! is a pure function of `(oracle, vertex)`, so a remembered list is
//! bit-identical to a regenerated one and no answer or probe transcript can
//! change.
//!
//! The store is thread-local, so a server that answers every query on the
//! thread that read it (one reactor loop per thread) keeps one store per
//! loop, shared by every session that loop serves, and bounds its list
//! memory at loops × the byte bound whatever the session count. Nothing is
//! shared between threads: no lock, no atomic operation, no cache line
//! passed between cores.
//!
//! # Layout
//!
//! Each thread holds two *generations*. A generation is one contiguous
//! arena of neighbors (`Vec<VertexId>`, no allocation per list) plus an
//! open-addressing index of 16-byte `{key, start, len}` slots, kept at most
//! half full, keyed by `(oracle id, vertex)`. A hit in the current
//! generation is one index probe plus one read of `arena[start..start+len]`
//! and writes nothing to the store but its hit counter. Lists are admitted
//! into the current generation; when it would outgrow half the byte bound,
//! the old generation is dropped and the current one becomes old. A hit in
//! the old generation copies the list forward into the current one, so
//! lists in use survive a turnover and cold ones age out two turnovers
//! after their last use.
//!
//! The accounted bytes are the allocations themselves: each index slot is
//! 16 bytes and each arena position 4, capacity included, and both
//! generations together stay within the bound ([`ListStore::DEFAULT_BYTES`]
//! per thread). Nothing is allocated before the first admission: an index
//! starts at [`MIN_SLOTS`] slots and an arena at [`MIN_ARENA`] neighbors,
//! each doubling on demand.
//!
//! Oracle ids come from a process-global counter handed out at construction
//! ([`ListStore::next_oracle_id`]), so two distinct oracles never alias;
//! clones share an id, which is sound because clones are field-for-field
//! identical generators. Once the 32-bit counter runs out, later oracles
//! get id 0, which the store never keeps. A dropped oracle's lists stay
//! resident until their generation is dropped.
//!
//! A miss generates the list *outside* the store's borrow, into a reused
//! fill buffer, then admits it. A generator may therefore probe the store
//! itself, as `lca_probe::CachedOracle` does when it wraps another
//! store-backed oracle; a nested miss takes a buffer of its own from the
//! same pool. A fill that returns fewer neighbors than its degree (a
//! budgeted inner view ran dry) answers its access and is not admitted.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::VertexId;

/// Slots of a generation's index when it first allocates (4 KiB).
const MIN_SLOTS: usize = 256;

/// Neighbors a generation's arena holds when it first allocates (4 KiB).
const MIN_ARENA: usize = 1024;

/// Accounted bytes of one index slot.
const SLOT_BYTES: usize = std::mem::size_of::<Slot>();

/// Accounted bytes of one arena position.
const NEIGHBOR_BYTES: usize = std::mem::size_of::<VertexId>();

/// The empty-slot key. Real keys carry an oracle id ≥ 1 in their high half.
const EMPTY: u64 = 0;

/// Process-global id well; ids start at 1 and 0 means "never kept".
static NEXT_ORACLE_ID: AtomicU32 = AtomicU32::new(1);

/// How many logical probes one store access answers, for the hit and miss
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// One `degree`, `neighbor` or `adjacency` probe.
    Point,
    /// A whole `neighbors_into` scan: `deg(v) + 1` probes.
    Scan,
}

impl Access {
    fn probes(self, degree: usize) -> u64 {
        match self {
            Access::Point => 1,
            Access::Scan => degree as u64 + 1,
        }
    }
}

/// Counters and occupancy of the calling thread's store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Probes answered by a resident list (or by the list their own access
    /// just generated, after the first).
    pub hits: u64,
    /// Probes that generated a list: one per store miss.
    pub misses: u64,
    /// Index entries in both generations. A list copied forward counts
    /// twice until its old generation is dropped.
    pub entries: usize,
    /// Bytes both generations have allocated (16 per index slot, 4 per
    /// arena position), at most the thread's byte bound.
    pub bytes: usize,
}

impl StoreStats {
    /// Probes that went through the store (hits + misses).
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }
}

/// One index slot: where the list of `key` sits in its generation's arena.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    start: u32,
    len: u32,
}

const EMPTY_SLOT: Slot = Slot {
    key: EMPTY,
    start: 0,
    len: 0,
};

/// The store key of `(oracle, v)`.
fn key(oracle: u32, v: VertexId) -> u64 {
    (u64::from(oracle) << 32) | u64::from(v.raw())
}

/// One generation: an index over one contiguous arena.
struct Generation {
    /// Open addressing with linear probing; the length is 0 or a power of
    /// two, and at most half the slots are taken.
    slots: Vec<Slot>,
    /// `64 − log₂(slots.len())`: Fibonacci hashing keeps the top bits.
    shift: u32,
    arena: Vec<VertexId>,
    entries: usize,
}

impl Generation {
    const fn new() -> Self {
        Generation {
            slots: Vec::new(),
            // Any shift below 64 will do while the index is empty.
            shift: 63,
            arena: Vec::new(),
            entries: 0,
        }
    }

    fn bytes(&self) -> usize {
        self.slots.len() * SLOT_BYTES + self.arena.capacity() * NEIGHBOR_BYTES
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The resident list of `key`, if any.
    fn find(&self, key: u64) -> Option<&[VertexId]> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut i = self.home(key);
        loop {
            let slot = self.slots.get(i)?;
            if slot.key == key {
                let start = slot.start as usize;
                return self.arena.get(start..start + slot.len as usize);
            }
            if slot.key == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Puts `slot` into the first free slot of its probe sequence. The
    /// index always has a free slot (it is at most half full).
    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len().wrapping_sub(1);
        let mut i = self.home(slot.key);
        while let Some(s) = self.slots.get_mut(i) {
            if s.key == EMPTY {
                *s = slot;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Rebuilds the index at `len` slots (a power of two).
    fn resize_index(&mut self, len: usize) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; len]);
        self.shift = 64 - len.trailing_zeros();
        for slot in old.into_iter().filter(|s| s.key != EMPTY) {
            self.place(slot);
        }
    }

    /// Admits `list` under `key` if the generation can hold it within
    /// `budget` bytes, growing its index and arena as needed. Returns
    /// whether it did.
    fn insert(&mut self, key: u64, list: &[VertexId], budget: usize) -> bool {
        let slots = if (self.entries + 1) * 2 > self.slots.len() {
            (self.slots.len() * 2).max(MIN_SLOTS)
        } else {
            self.slots.len()
        };
        let start = self.arena.len();
        let end = start + list.len();
        let Some(room) = budget.checked_sub(slots * SLOT_BYTES) else {
            return false;
        };
        let most = room / NEIGHBOR_BYTES;
        let (Ok(start32), Ok(len32)) = (u32::try_from(start), u32::try_from(list.len())) else {
            return false;
        };
        if end > most {
            return false;
        }
        if end > self.arena.capacity() {
            let grown = (self.arena.capacity() * 2)
                .max(MIN_ARENA)
                .max(end)
                .min(most);
            self.arena.reserve_exact(grown - start);
        }
        if slots != self.slots.len() {
            self.resize_index(slots);
        }
        self.arena.extend_from_slice(list);
        self.place(Slot {
            key,
            start: start32,
            len: len32,
        });
        self.entries += 1;
        true
    }

    /// Forgets every list, keeping the allocations for the next fill.
    fn clear(&mut self) {
        self.slots.fill(EMPTY_SLOT);
        self.arena.clear();
        self.entries = 0;
    }
}

struct Store {
    cur: Generation,
    old: Generation,
    bound: usize,
    /// Reused fill buffers: a miss takes one, a nested miss another.
    fills: Vec<Vec<VertexId>>,
    hits: u64,
    misses: u64,
}

impl Store {
    const fn new() -> Self {
        Store {
            cur: Generation::new(),
            old: Generation::new(),
            bound: ListStore::DEFAULT_BYTES,
            fills: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Answers a hit inside the borrow, or hands `read` back with a fill
    /// buffer for the miss path.
    fn lookup<R, F>(&mut self, key: u64, access: Access, read: F) -> Result<R, (F, Vec<VertexId>)>
    where
        F: FnOnce(&[VertexId], usize) -> R,
    {
        if let Some(list) = self.cur.find(key) {
            self.hits += access.probes(list.len());
            return Ok(read(list, list.len()));
        }
        let mut buf = self.fills.pop().unwrap_or_default();
        buf.clear();
        match self.old.find(key) {
            Some(list) => {
                // Copy forward, so the list outlives its generation.
                buf.extend_from_slice(list);
                self.hits += access.probes(buf.len());
                let answer = read(&buf, buf.len());
                self.admit(key, &buf);
                self.fills.push(buf);
                Ok(answer)
            }
            None => Err((read, buf)),
        }
    }

    /// Counts a miss that generated `degree` neighbors into `buf`, admits
    /// the list unless the generator truncated it, and keeps the buffer.
    fn finish_miss(&mut self, key: u64, access: Access, degree: usize, buf: Vec<VertexId>) {
        self.misses += 1;
        self.hits += access.probes(degree) - 1;
        // A truncated fill must not masquerade as `Γ(v)` for future probes;
        // a nested fill may already have admitted the same key.
        if buf.len() == degree && self.cur.find(key).is_none() {
            self.admit(key, &buf);
        }
        self.fills.push(buf);
    }

    /// Admits `list` into the current generation, turning the generations
    /// over when it is full. A list too large for half the bound is not
    /// kept.
    fn admit(&mut self, key: u64, list: &[VertexId]) {
        let half = self.bound / 2;
        if key >> 32 == 0 || self.cur.insert(key, list, half) {
            return;
        }
        if MIN_SLOTS * SLOT_BYTES + list.len() * NEIGHBOR_BYTES > half {
            return;
        }
        std::mem::swap(&mut self.cur, &mut self.old);
        self.cur.clear();
        if !self.cur.insert(key, list, half) {
            // The reused index left no room for this list: start afresh.
            self.cur = Generation::new();
            self.cur.insert(key, list, half);
        }
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.cur.entries + self.old.entries,
            bytes: self.cur.bytes() + self.old.bytes(),
        }
    }
}

thread_local! {
    static STORE: RefCell<Store> = const { RefCell::new(Store::new()) };
}

/// The calling thread's list store (see the module docs). Every function
/// acts on the store of the thread that calls it.
#[derive(Debug, Clone, Copy)]
pub struct ListStore;

impl ListStore {
    /// Default byte bound of one thread's store (both generations).
    pub const DEFAULT_BYTES: usize = 16 << 20;

    /// Allocates a fresh oracle id (called once per oracle construction).
    pub fn next_oracle_id() -> u32 {
        NEXT_ORACLE_ID
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |id| id.checked_add(1))
            .unwrap_or(0)
    }

    /// Runs `read` on the list of `(oracle, v)` and its degree. On a miss,
    /// `fill` generates the list into the cleared buffer it is handed and
    /// returns the degree; it must be a pure function of `(oracle, v)`. A
    /// fill that returns fewer neighbors than its degree answers this
    /// access and is not admitted. `read` runs inside the store's borrow
    /// on a hit and must not probe; `fill` runs outside it and may.
    ///
    /// `access` says how many logical probes the call answers: the first
    /// probe of a miss counts as the miss, every other one as a hit.
    pub fn with_list<R>(
        oracle: u32,
        v: VertexId,
        access: Access,
        fill: impl FnOnce(&mut Vec<VertexId>) -> usize,
        read: impl FnOnce(&[VertexId], usize) -> R,
    ) -> R {
        let key = key(oracle, v);
        let looked_up = STORE.with(|store| match store.try_borrow_mut() {
            Ok(mut store) => store.lookup(key, access, read),
            // Only a probing `read` gets here; answer it uncached.
            Err(_) => Err((read, Vec::new())),
        });
        let (read, mut buf) = match looked_up {
            Ok(answer) => return answer,
            Err(miss) => miss,
        };
        let degree = fill(&mut buf);
        let answer = read(&buf, degree);
        STORE.with(|store| {
            if let Ok(mut store) = store.try_borrow_mut() {
                store.finish_miss(key, access, degree, buf);
            }
        });
        answer
    }

    /// This thread's counters and occupancy.
    pub fn stats() -> StoreStats {
        STORE.with(|store| store.try_borrow().map(|s| s.stats()).unwrap_or_default())
    }

    /// Sets this thread's byte bound and returns the previous one. Every
    /// resident list is dropped and the allocations freed. `0` admits
    /// nothing: every probe generates its list.
    pub fn set_byte_bound(bytes: usize) -> usize {
        STORE.with(|store| match store.try_borrow_mut() {
            Ok(mut store) => {
                store.cur = Generation::new();
                store.old = Generation::new();
                std::mem::replace(&mut store.bound, bytes)
            }
            Err(_) => bytes,
        })
    }
}

/// An implicit family whose adjacency lists are generated from its seed
/// and read through the calling thread's [`ListStore`]. [`stored_probes!`]
/// writes its four list probes.
pub(crate) trait Generator {
    /// This oracle's key in the store.
    fn store_id(&self) -> u32;

    /// Appends `Γ(v)`, in the oracle's adjacency order, to the empty `out`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn generate(&self, v: VertexId, out: &mut Vec<VertexId>);

    /// Runs `read` on `Γ(v)`, generating it only when the calling thread's
    /// store holds no copy.
    fn read<R>(&self, v: VertexId, access: Access, read: impl FnOnce(&[VertexId]) -> R) -> R {
        ListStore::with_list(
            self.store_id(),
            v,
            access,
            |out| {
                self.generate(v, out);
                out.len()
            },
            |list, _| read(list),
        )
    }
}

/// The `degree`, `neighbor`, `adjacency` and `neighbors_into` probes of a
/// [`Generator`], for its `Oracle` impl: each reads the vertex's list.
macro_rules! stored_probes {
    () => {
        fn degree(&self, v: VertexId) -> usize {
            self.read(v, Access::Point, <[VertexId]>::len)
        }

        fn neighbor(&self, v: VertexId, i: usize) -> Option<VertexId> {
            self.read(v, Access::Point, |l| l.get(i).copied())
        }

        fn adjacency(&self, u: VertexId, v: VertexId) -> Option<usize> {
            self.read(u, Access::Point, |l| l.iter().position(|&w| w == v))
        }

        fn neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> usize {
            self.read(v, Access::Scan, |l| {
                out.clear();
                out.extend_from_slice(l);
                l.len()
            })
        }
    };
}
pub(crate) use stored_probes;

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(i: u32) -> VertexId {
        VertexId::from(i)
    }

    /// Probes `(oracle, v)` whose list is `[v ^ 1; len]`, counting fills.
    fn probe(oracle: u32, v: u32, len: usize, fills: &mut usize) -> usize {
        ListStore::with_list(
            oracle,
            vid(v),
            Access::Point,
            |out| {
                *fills += 1;
                out.resize(len, vid(v ^ 1));
                len
            },
            |list, d| {
                assert!(list.iter().all(|&w| w == vid(v ^ 1)));
                d
            },
        )
    }

    #[test]
    fn oracle_ids_are_unique() {
        let a = ListStore::next_oracle_id();
        let b = ListStore::next_oracle_id();
        assert_ne!(a, b);
        assert_ne!(a, 0);
    }

    #[test]
    fn slots_are_sixteen_bytes() {
        assert_eq!(SLOT_BYTES, 16);
    }

    #[test]
    fn nothing_is_allocated_before_the_first_admission() {
        let fresh = std::thread::spawn(|| {
            let idle = ListStore::stats();
            let mut fills = 0;
            probe(ListStore::next_oracle_id(), 1, 3, &mut fills);
            (idle, ListStore::stats())
        })
        .join()
        .unwrap();
        assert_eq!(fresh.0, StoreStats::default());
        assert_eq!(
            fresh.1.bytes,
            MIN_SLOTS * SLOT_BYTES + MIN_ARENA * NEIGHBOR_BYTES
        );
    }

    #[test]
    fn repeats_are_served_without_regenerating() {
        let id = ListStore::next_oracle_id();
        let before = ListStore::stats();
        let mut fills = 0;
        for _ in 0..5 {
            assert_eq!(probe(id, 7, 2, &mut fills), 2);
        }
        assert_eq!(fills, 1, "repeat probes must hit the store");
        // A scan counts deg + 1 probes, all hits once the list is resident.
        let mut out = Vec::new();
        let d = ListStore::with_list(
            id,
            vid(7),
            Access::Scan,
            |_| unreachable!("resident"),
            |l, d| {
                out.extend_from_slice(l);
                d
            },
        );
        assert_eq!((d, out.len()), (2, 2));
        let after = ListStore::stats();
        assert_eq!(after.misses - before.misses, 1);
        assert_eq!(after.hits - before.hits, 4 + 3);
        assert_eq!(after.entries - before.entries, 1);
    }

    #[test]
    fn a_scan_miss_counts_like_its_decomposed_probes() {
        let id = ListStore::next_oracle_id();
        let before = ListStore::stats();
        let d = ListStore::with_list(
            id,
            vid(0),
            Access::Scan,
            |out| {
                out.extend((1..=5).map(vid));
                5
            },
            |_, d| d,
        );
        assert_eq!(d, 5);
        let after = ListStore::stats();
        // Degree⟨0⟩ generated the list; the five Neighbor probes read it.
        assert_eq!(
            (after.misses - before.misses, after.hits - before.hits),
            (1, 5)
        );
    }

    #[test]
    fn distinct_oracles_do_not_alias() {
        let a = ListStore::next_oracle_id();
        let b = ListStore::next_oracle_id();
        let list = |id, w| {
            ListStore::with_list(
                id,
                vid(3),
                Access::Point,
                |out| {
                    out.push(vid(w));
                    1
                },
                |l, _| l.to_vec(),
            )
        };
        assert_eq!(list(a, 10), vec![vid(10)]);
        assert_eq!(list(b, 20), vec![vid(20)]);
        assert_eq!(list(a, 99), vec![vid(10)], "resident under a's id");
    }

    #[test]
    fn id_zero_is_never_kept() {
        let mut fills = 0;
        probe(0, 4, 2, &mut fills);
        probe(0, 4, 2, &mut fills);
        assert_eq!(fills, 2);
    }

    #[test]
    fn the_index_grows_past_its_first_size_and_keeps_every_list() {
        let id = ListStore::next_oracle_id();
        let mut fills = 0;
        let many = 4 * MIN_SLOTS as u32;
        for v in 0..many {
            probe(id, v, 3, &mut fills);
        }
        for v in 0..many {
            probe(id, v, 3, &mut fills);
        }
        assert_eq!(fills, many as usize, "a list was lost while the index grew");
    }

    #[test]
    fn the_byte_bound_holds_and_answers_stay_correct() {
        let id = ListStore::next_oracle_id();
        // Two generations of 8 KiB: each holds its 4 KiB index plus an
        // arena of at most 1024 neighbors.
        let bound = 16 << 10;
        let default = ListStore::set_byte_bound(bound);
        let mut fills = 0;
        for round in 0..3 {
            for v in 0..400 {
                assert_eq!(probe(id, v, 11, &mut fills), 11, "round {round}");
                let stats = ListStore::stats();
                assert!(stats.bytes <= bound, "bound exceeded: {stats:?}");
            }
        }
        assert!(fills > 400, "the bound never forced a turnover");
        // The most recent lists are still resident.
        let before = fills;
        probe(id, 399, 11, &mut fills);
        assert_eq!(fills, before);
        ListStore::set_byte_bound(0);
        assert_eq!(ListStore::stats().bytes, 0, "a new bound frees the store");
        probe(id, 399, 11, &mut fills);
        probe(id, 399, 11, &mut fills);
        assert_eq!(fills, before + 2, "a bound of 0 keeps nothing");
        ListStore::set_byte_bound(default);
    }

    #[test]
    fn lists_in_use_survive_turnovers_and_cold_ones_age_out() {
        // A hot set re-probed every round under a stream of cold lists that
        // turns the generations over several times: each hot list is
        // copied forward before its generation is dropped, so after the
        // warmup no hot probe generates.
        let id = ListStore::next_oracle_id();
        let default = ListStore::set_byte_bound(16 << 10);
        let mut fills = 0;
        let hot = 0..12u32;
        for v in hot.clone() {
            probe(id, v, 27, &mut fills);
        }
        let mut cold = 1000u32;
        for _round in 0..40 {
            let before = fills;
            for v in hot.clone() {
                probe(id, v, 27, &mut fills);
            }
            assert_eq!(fills, before, "a hot list was evicted");
            for _ in 0..4 {
                probe(id, cold, 27, &mut fills);
                cold += 1;
            }
        }
        // 160 cold lists of 27 neighbors are far more than two generations
        // hold: the first ones are gone.
        let before = fills;
        probe(id, 1000, 27, &mut fills);
        assert_eq!(fills, before + 1, "a cold list outlived two turnovers");
        ListStore::set_byte_bound(default);
    }

    #[test]
    fn truncated_and_oversized_fills_are_not_admitted() {
        let id = ListStore::next_oracle_id();
        let mut fills = 0;
        // Degree 4, but only two neighbors generated: answered, not kept.
        for _ in 0..2 {
            let d = ListStore::with_list(
                id,
                vid(1),
                Access::Point,
                |out| {
                    fills += 1;
                    out.extend([vid(2), vid(3)]);
                    4
                },
                |l, d| (l.len(), d),
            );
            assert_eq!(d, (2, 4));
        }
        assert_eq!(fills, 2);
        // A list larger than half the bound answers from the fill buffer.
        let default = ListStore::set_byte_bound(2 * (MIN_SLOTS * SLOT_BYTES + 64));
        let mut fills = 0;
        probe(id, 9, 17, &mut fills);
        probe(id, 9, 17, &mut fills);
        assert_eq!(fills, 2);
        assert_eq!(ListStore::stats().entries, 0);
        probe(id, 9, 16, &mut fills);
        probe(id, 9, 16, &mut fills);
        assert_eq!(fills, 3, "a list of exactly half the bound is kept");
        ListStore::set_byte_bound(default);
    }

    #[test]
    fn a_fill_may_probe_the_store() {
        // An adapter's fill reads another store-backed list: the nested
        // miss fills its own buffer, and both lists end up resident.
        let (outer, inner) = (ListStore::next_oracle_id(), ListStore::next_oracle_id());
        let before = ListStore::stats();
        let mut inner_fills = 0;
        let mut outer_fills = 0;
        for _ in 0..3 {
            let got = ListStore::with_list(
                outer,
                vid(5),
                Access::Scan,
                |out| {
                    outer_fills += 1;
                    ListStore::with_list(
                        inner,
                        vid(5),
                        Access::Scan,
                        |out| {
                            inner_fills += 1;
                            out.extend([vid(6), vid(7)]);
                            2
                        },
                        |l, d| {
                            out.extend_from_slice(l);
                            d
                        },
                    )
                },
                |l, _| l.to_vec(),
            );
            assert_eq!(got, vec![vid(6), vid(7)]);
        }
        assert_eq!((outer_fills, inner_fills), (1, 1));
        assert_eq!(ListStore::stats().entries - before.entries, 2);
    }

    #[test]
    fn threads_keep_separate_stores() {
        let id = ListStore::next_oracle_id();
        let mut fills = 0;
        probe(id, 1, 3, &mut fills);
        let other = std::thread::spawn(move || {
            let mut fills = 0;
            probe(id, 1, 3, &mut fills);
            probe(id, 1, 3, &mut fills);
            (fills, ListStore::stats().entries)
        })
        .join()
        .unwrap();
        assert_eq!(other, (1, 1), "a fresh thread fills its own copy once");
        assert_eq!(fills, 1);
    }
}
