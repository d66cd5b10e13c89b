//! Per-query execution context: the probe/time budget and the unified
//! probe meter every query is charged against.
//!
//! The paper's headline guarantee is a *per-query* probe bound, yet a plain
//! `query()` call has no way to enforce one — a single unlucky recursion
//! (a Chung-Lu hub, an adversarial query) can stall a serve worker for an
//! unbounded number of probes. [`QueryCtx`] makes the bound a first-class,
//! enforceable API concept:
//!
//! * a **probe budget** — the query may issue at most `max_probes` oracle
//!   probes; the probe that would exceed the budget is *refused* and the
//!   query fails with [`LcaError::BudgetExhausted`];
//! * a **wall-clock deadline** — polled on the first probe and then every
//!   `poll_stride` probes (default [`POLL_STRIDE`]; adapt it to the
//!   oracle's probe cost with [`QueryCtx::with_poll_stride`] — between
//!   polls the deadline is invisible, see the [`POLL_STRIDE`] docs for the
//!   blind-spot analysis), failing with [`LcaError::DeadlineExceeded`];
//! * a **cancellation flag** — an [`AtomicBool`] a caller may flip from
//!   another thread, failing the query with [`LcaError::Cancelled`];
//! * the **meter** — one shared per-query probe counter. Every probe an
//!   algorithm issues is charged here exactly once, at the top of the
//!   oracle decorator stack (above any `CountingOracle` or `CachedOracle`
//!   and the input oracle, whose lists may be served from the calling
//!   thread's list store), so [`QueryCtx::spent`] is the authoritative
//!   per-query probe cost regardless of which accounting or caching
//!   layers sit below.
//!
//! # How enforcement works
//!
//! Algorithms access their input through [`BudgetedOracle`], a per-query
//! view created by [`QueryCtx::budgeted`]. Each probe first calls
//! [`QueryCtx::charge`]. A buffered scan (`neighbors_into`) is `deg(v) + 1`
//! probes; when no probe of it can be refused (the remaining budget covers
//! a scan of any vertex), the view forwards it to the inner oracle as one
//! call and charges its probes in one step, so a caching layer below sees
//! one call per scan instead of `deg(v) + 1`. A scan the budget could cut
//! short is charged probe by probe. Once the budget trips, the view stops
//! forwarding and returns the model's ⊥ answers (`degree = 0`,
//! `neighbor = None`, `adjacency = None`), which drains every probe loop in
//! the workspace immediately — a budgeted query can never hang. Any answer
//! computed after the trip is garbage by construction, so `Lca::query_ctx`
//! implementations call [`QueryCtx::checkpoint`] before trusting a result:
//! an interrupted context always reports the typed budget error, never a
//! wrong answer.
//! Algorithms with cross-query memo tables (the classic LCAs) checkpoint
//! *before every memo insert*, so a partially-computed decision is never
//! persisted — budget exhaustion is a clean partial failure.
//!
//! An unbudgeted context ([`QueryCtx::unlimited`]) never refuses a probe,
//! so the unlimited path reproduces pre-budget answers and probe
//! transcripts bit-for-bit.
//!
//! # Example
//!
//! ```
//! use lca_core::{Lca, LcaError, QueryCtx, ThreeSpanner};
//! use lca_graph::gen::GnpBuilder;
//! use lca_rand::Seed;
//!
//! let g = GnpBuilder::new(300, 0.2).seed(Seed::new(1)).build();
//! let lca = ThreeSpanner::with_defaults(&g, Seed::new(2));
//! let q = g.edge_endpoints(0);
//!
//! // Measure the real cost once…
//! let ctx = QueryCtx::unlimited();
//! let answer = lca.query_ctx(q, &ctx)?;
//! let cost = ctx.spent();
//!
//! // …then the exact budget succeeds and one probe less fails typed.
//! let exact = QueryCtx::with_probe_limit(cost);
//! assert_eq!(lca.query_ctx(q, &exact)?, answer);
//! if cost > 1 {
//!     let tight = QueryCtx::with_probe_limit(cost - 1);
//!     assert!(matches!(
//!         lca.query_ctx(q, &tight),
//!         Err(LcaError::BudgetExhausted { .. })
//!     ));
//! }
//! # Ok::<(), lca_core::LcaError>(())
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lca_graph::VertexId;
use lca_probe::Oracle;

use crate::{Lca, LcaError};

const INTERRUPT_NONE: u8 = 0;
const INTERRUPT_BUDGET: u8 = 1;
const INTERRUPT_DEADLINE: u8 = 2;
const INTERRUPT_CANCELLED: u8 = 3;

/// The *default* deadline/cancellation poll stride (in probes): polls
/// happen on the first probe and then every `stride`-th. Polling costs an
/// `Instant::now`, so it is amortized; a query that issues no probes (pure
/// memo hits) is never interrupted mid-flight, which is fine — it is also
/// never slow.
///
/// This constant is the stride for [`lca_graph::ProbeCost::Memory`]-class
/// oracles. Each [`QueryCtx`] carries its own stride
/// ([`QueryCtx::with_poll_stride`]), which callers that know their oracle
/// derive from its probe-cost hint:
/// `ctx.with_poll_stride(oracle.probe_cost_hint().poll_stride())` — 64 for
/// in-memory probes, 16 for generator-recomputed (implicit) probes, 1 for
/// remote stores. The serving daemon does this per session.
///
/// # The sub-stride blind spot
///
/// Between polls the deadline is *invisible*: a query that issues fewer
/// than `stride` probes after its last poll can overshoot its deadline by
/// up to `stride − 1` probes' worth of wall-clock. With the default stride
/// of 64 and nanosecond in-memory probes that overshoot is microseconds —
/// harmless; with millisecond remote probes it would be ~63 ms per miss,
/// which is why expensive oracles must lower the stride (to 1, every probe
/// pays a clock read, and the blind spot vanishes).
///
/// A buffered scan charged in one step (see [`BudgetedOracle`]) keeps the
/// same schedule — it polls once, *after* the scan, if its charged range
/// `(spent, spent + deg + 1]` holds the first probe or a multiple of the
/// stride — but it cannot be interrupted half-way: its probes have already
/// reached the stack, so they stay charged, and a failed poll refuses the
/// *next* probe. The blind spot is therefore the larger of `stride − 1`
/// probes and one scan, even at stride 1. The probe *budget* has no blind
/// spot — a scan the budget could cut short is charged probe by probe.
pub const POLL_STRIDE: u64 = 64;

/// The per-query execution context: budget limits plus the shared probe
/// meter (see the [module docs](self) for the full model).
///
/// A context meters **one** query. Create a fresh one per query (creation
/// is allocation-free) or [`QueryCtx::reset`] between sequential queries;
/// sharing one context across concurrent queries pools their budgets,
/// which is rarely what you want.
#[derive(Debug)]
pub struct QueryCtx {
    /// Probe budget; `u64::MAX` means unlimited.
    limit: u64,
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
    /// Deadline/cancel poll stride (≥ 1); see [`POLL_STRIDE`].
    poll_stride: u64,
    spent: AtomicU64,
    interrupt: AtomicU8,
}

impl QueryCtx {
    /// A context with no limits — reproduces pre-budget behavior
    /// bit-for-bit while still metering probes ([`QueryCtx::spent`]).
    pub fn unlimited() -> QueryCtx {
        QueryCtx::new(None, None, None)
    }

    /// A context allowing at most `limit` probes.
    pub fn with_probe_limit(limit: u64) -> QueryCtx {
        QueryCtx::new(Some(limit), None, None)
    }

    /// A context with explicit parts: probe budget, absolute deadline, and
    /// cancellation flag (each optional). Batch executors use this to share
    /// one deadline across many per-query contexts.
    pub fn new(
        max_probes: Option<u64>,
        deadline: Option<Instant>,
        cancel: Option<Arc<AtomicBool>>,
    ) -> QueryCtx {
        QueryCtx {
            limit: max_probes.unwrap_or(u64::MAX),
            deadline,
            cancel,
            poll_stride: POLL_STRIDE,
            spent: AtomicU64::new(0),
            interrupt: AtomicU8::new(INTERRUPT_NONE),
        }
    }

    /// Sets the deadline/cancellation poll stride (clamped to ≥ 1) and
    /// returns the context — builder-style, applied before the query runs.
    ///
    /// Derive the stride from the input oracle's probe-cost hint when you
    /// have the oracle in hand:
    /// `ctx.with_poll_stride(oracle.probe_cost_hint().poll_stride())`.
    /// Cheap in-memory probes afford a long stride (the default
    /// [`POLL_STRIDE`]); expensive probes need a short one or deadlines
    /// develop a blind spot of up to `stride − 1` probes (see the
    /// [`POLL_STRIDE`] docs).
    pub fn with_poll_stride(mut self, stride: u64) -> QueryCtx {
        self.poll_stride = stride.max(1);
        self
    }

    /// The deadline/cancellation poll stride in effect.
    pub fn poll_stride(&self) -> u64 {
        self.poll_stride
    }

    /// Wraps an oracle in the per-query budgeted view; every probe through
    /// it charges this context's meter.
    pub fn budgeted<'a, O: Oracle>(&'a self, oracle: &'a O) -> BudgetedOracle<'a, O> {
        BudgetedOracle {
            inner: oracle,
            ctx: Some(self),
        }
    }

    /// Charges one probe against the budget. Returns `false` — and records
    /// the interruption — when the probe must be refused (budget exhausted,
    /// deadline passed, or cancelled). Oracle wrappers call this; algorithm
    /// code should only need [`QueryCtx::checkpoint`].
    #[inline]
    pub fn charge(&self) -> bool {
        if self.interrupt.load(Ordering::Relaxed) != INTERRUPT_NONE {
            return false;
        }
        let spent = self.spent.fetch_add(1, Ordering::Relaxed) + 1;
        if spent > self.limit {
            // The refused probe is not part of the query's cost.
            self.spent.fetch_sub(1, Ordering::Relaxed);
            self.interrupt.store(INTERRUPT_BUDGET, Ordering::Relaxed);
            return false;
        }
        if (spent == 1 || spent.is_multiple_of(self.poll_stride)) && !self.poll() {
            self.spent.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Whether a buffered scan over an `n`-vertex oracle can be charged in
    /// one step: the context is live and the remaining budget covers
    /// `deg + 1 ≤ n` probes, so no probe of the scan can be refused.
    #[inline]
    fn scan_cannot_trip(&self, n: usize) -> bool {
        self.interrupt.load(Ordering::Relaxed) == INTERRUPT_NONE
            && self.limit.saturating_sub(self.spent()) >= n as u64
    }

    /// Charges `probes` that already reached the inner oracle as one scan,
    /// polling once afterwards if the charged range `(spent, spent +
    /// probes]` holds the first probe or a stride multiple — the polls
    /// [`QueryCtx::charge`] would have made. A failed poll refuses the next
    /// probe, not these.
    fn charge_scan(&self, probes: u64) {
        let before = self.spent.fetch_add(probes, Ordering::Relaxed);
        let after = before + probes;
        if after > self.limit {
            // Only a context shared by concurrent queries can get here
            // (another query charged between the check and this add); fail
            // the query rather than report success over its limit.
            self.interrupt.store(INTERRUPT_BUDGET, Ordering::Relaxed);
        }
        if before == 0 || after / self.poll_stride > before / self.poll_stride {
            self.poll();
        }
    }

    /// Polls deadline and cancellation; records the interruption on trip.
    fn poll(&self) -> bool {
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Relaxed) {
                self.interrupt.store(INTERRUPT_CANCELLED, Ordering::Relaxed);
                return false;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.interrupt.store(INTERRUPT_DEADLINE, Ordering::Relaxed);
                return false;
            }
        }
        true
    }

    /// `Ok` while the query may keep going; the typed budget error once it
    /// was interrupted. `Lca` implementations call this before returning an
    /// answer (so garbage computed from refused probes is never surfaced)
    /// and before persisting anything derived from probes (memo inserts).
    ///
    /// Also observes the cancellation flag directly, so probe-free stretches
    /// (memo-hit loops) remain cancellable.
    ///
    /// # Errors
    ///
    /// [`LcaError::BudgetExhausted`], [`LcaError::DeadlineExceeded`] or
    /// [`LcaError::Cancelled`], matching what tripped the context.
    #[inline]
    pub fn checkpoint(&self) -> Result<(), LcaError> {
        match self.interrupt.load(Ordering::Relaxed) {
            INTERRUPT_NONE => {
                if let Some(cancel) = &self.cancel {
                    if cancel.load(Ordering::Relaxed) {
                        self.interrupt.store(INTERRUPT_CANCELLED, Ordering::Relaxed);
                        return Err(LcaError::Cancelled {
                            spent: self.spent(),
                        });
                    }
                }
                Ok(())
            }
            code => Err(self.interrupt_error(code)),
        }
    }

    /// The interruption as a typed error, if the context tripped.
    pub fn interruption(&self) -> Option<LcaError> {
        match self.interrupt.load(Ordering::Relaxed) {
            INTERRUPT_NONE => None,
            code => Some(self.interrupt_error(code)),
        }
    }

    fn interrupt_error(&self, code: u8) -> LcaError {
        let spent = self.spent();
        match code {
            INTERRUPT_BUDGET => LcaError::BudgetExhausted {
                spent,
                limit: self.limit,
            },
            INTERRUPT_DEADLINE => LcaError::DeadlineExceeded { spent },
            _ => LcaError::Cancelled { spent },
        }
    }

    /// Probes charged so far — the unified per-query meter. After a
    /// successful query this is the query's exact probe cost; after a
    /// [`LcaError::BudgetExhausted`] it equals the limit.
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// The probe budget, `None` when unlimited.
    pub fn probe_limit(&self) -> Option<u64> {
        (self.limit != u64::MAX).then_some(self.limit)
    }

    /// Whether the context has tripped (budget, deadline or cancellation).
    pub fn interrupted(&self) -> bool {
        self.interrupt.load(Ordering::Relaxed) != INTERRUPT_NONE
    }

    /// Re-arms the context for the next sequential query: zeroes the meter
    /// and clears the interruption (deadline and cancel flag stay).
    pub fn reset(&self) {
        self.spent.store(0, Ordering::Relaxed);
        self.interrupt.store(INTERRUPT_NONE, Ordering::Relaxed);
    }
}

/// A reusable budget *specification* — what a builder, batch engine, or
/// wire request carries; [`QueryBudget::ctx`] mints the per-query
/// [`QueryCtx`] (which owns the actual meter).
#[derive(Debug, Clone, Default)]
pub struct QueryBudget {
    /// Maximum oracle probes per query (`None` = unlimited).
    pub max_probes: Option<u64>,
    /// Wall-clock allowance; the deadline is taken from `Instant::now()`
    /// when the context is minted (`None` = no deadline).
    pub timeout: Option<Duration>,
    /// Cooperative cancellation flag, shared with the caller.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl QueryBudget {
    /// The no-limits budget (the default).
    pub fn unlimited() -> QueryBudget {
        QueryBudget::default()
    }

    /// A budget of at most `n` probes per query.
    pub fn max_probes(n: u64) -> QueryBudget {
        QueryBudget {
            max_probes: Some(n),
            ..QueryBudget::default()
        }
    }

    /// Adds a wall-clock allowance per minted context.
    pub fn with_timeout(mut self, timeout: Duration) -> QueryBudget {
        self.timeout = Some(timeout);
        self
    }

    /// Adds a cancellation flag.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> QueryBudget {
        self.cancel = Some(cancel);
        self
    }

    /// Whether this budget imposes no limit of any sort.
    pub fn is_unlimited(&self) -> bool {
        self.max_probes.is_none() && self.timeout.is_none() && self.cancel.is_none()
    }

    /// Mints a fresh per-query context (deadline = now + timeout).
    pub fn ctx(&self) -> QueryCtx {
        self.ctx_at(self.timeout.map(|t| Instant::now() + t))
    }

    /// Mints a context with an explicit (possibly shared) deadline instead
    /// of deriving one from [`QueryBudget::timeout`] — how a batch applies
    /// one deadline to every query while keeping per-query probe caps.
    pub fn ctx_at(&self, deadline: Option<Instant>) -> QueryCtx {
        QueryCtx::new(self.max_probes, deadline, self.cancel.clone())
    }
}

/// The per-query oracle view charging one [`QueryCtx`] meter.
///
/// Until the context trips, every probe is charged then forwarded — answers
/// and probe order are bit-identical to the bare oracle. Once tripped, no
/// further probe reaches the inner oracle; the view answers with the
/// model's ⊥ (`degree = 0`, `neighbor = None`, `adjacency = None`), which
/// terminates every probe loop promptly. `label` and `vertex_count` are
/// probe-free in the model and always forward.
///
/// A buffered scan (`neighbors_into`) takes one of two paths:
///
/// * **one inner call** when no probe of it can be refused — the view is
///   unmetered, or its context is live with at least `vertex_count()`
///   probes of budget left (a scan is `deg + 1 ≤ n` probes). The view
///   forwards the scan to the inner oracle's `neighbors_into` and charges
///   its `deg + 1` probes in one step ([`POLL_STRIDE`] describes the
///   deadline poll that follows). Every wrapper below accounts a scan as
///   those probes, so counters, transcripts and list-store hit counts
///   read exactly what the decomposed scan would produce, while the list
///   store is entered once per scan rather than once per probe;
/// * **probe by probe** otherwise: `degree(v)` then `neighbor(v, 0..d)`,
///   each charged on its own, so the probe that trips the budget is
///   refused before it reaches the inner oracle and the buffer keeps the
///   answered prefix.
///
/// Constructed by [`QueryCtx::budgeted`], or [`BudgetedOracle::unmetered`]
/// for code paths that share the plumbing without a budget.
#[derive(Debug, Clone, Copy)]
pub struct BudgetedOracle<'a, O> {
    inner: &'a O,
    ctx: Option<&'a QueryCtx>,
}

impl<'a, O: Oracle> BudgetedOracle<'a, O> {
    /// A view that forwards everything and charges nothing.
    pub fn unmetered(inner: &'a O) -> BudgetedOracle<'a, O> {
        BudgetedOracle { inner, ctx: None }
    }

    /// A view charging `ctx` if present, [`BudgetedOracle::unmetered`]
    /// otherwise.
    pub fn maybe(inner: &'a O, ctx: Option<&'a QueryCtx>) -> BudgetedOracle<'a, O> {
        BudgetedOracle { inner, ctx }
    }

    #[inline]
    fn charge(&self) -> bool {
        match self.ctx {
            Some(ctx) => ctx.charge(),
            None => true,
        }
    }

    /// The scan as `degree(v)` + `neighbor(v, 0..d)` through the charged
    /// point probes: a refusal mid-scan leaves the answered prefix in `out`.
    fn neighbors_per_probe(&self, v: VertexId, out: &mut Vec<VertexId>) -> usize {
        out.clear();
        let d = self.degree(v);
        out.reserve(d);
        for i in 0..d {
            match self.neighbor(v, i) {
                Some(w) => out.push(w),
                None => break,
            }
        }
        d
    }
}

impl<O: Oracle> Oracle for BudgetedOracle<'_, O> {
    fn vertex_count(&self) -> usize {
        self.inner.vertex_count()
    }

    fn degree(&self, v: VertexId) -> usize {
        if self.charge() {
            self.inner.degree(v)
        } else {
            0
        }
    }

    fn neighbor(&self, v: VertexId, i: usize) -> Option<VertexId> {
        if self.charge() {
            self.inner.neighbor(v, i)
        } else {
            None
        }
    }

    fn adjacency(&self, u: VertexId, v: VertexId) -> Option<usize> {
        if self.charge() {
            self.inner.adjacency(u, v)
        } else {
            None
        }
    }

    fn neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> usize {
        match self.ctx {
            None => self.inner.neighbors_into(v, out),
            Some(ctx) if ctx.scan_cannot_trip(self.inner.vertex_count()) => {
                let d = self.inner.neighbors_into(v, out);
                // `degree` plus the `neighbor` probes the per-probe loop
                // would issue: all `d`, or up to the first ⊥ if the inner
                // oracle truncated the scan.
                ctx.charge_scan(1 + d.min(out.len() + 1) as u64);
                d
            }
            Some(_) => self.neighbors_per_probe(v, out),
        }
    }

    fn label(&self, v: VertexId) -> u64 {
        self.inner.label(v)
    }

    fn probe_cost_hint(&self) -> lca_graph::ProbeCost {
        self.inner.probe_cost_hint()
    }
}

/// An [`Lca`] wrapper installing a default [`QueryBudget`]: plain
/// [`Lca::query`] calls run under the configured budget, while an explicit
/// [`Lca::query_ctx`] context always wins. This is how
/// `LcaBuilder`/`LcaConfig` defaults reach every outer layer without
/// changing call sites.
#[derive(Debug)]
pub struct WithBudget<L> {
    inner: L,
    budget: QueryBudget,
}

impl<L> WithBudget<L> {
    /// Wraps `inner` so budget-less queries run under `budget`.
    pub fn new(inner: L, budget: QueryBudget) -> WithBudget<L> {
        WithBudget { inner, budget }
    }

    /// The default budget in effect.
    pub fn budget(&self) -> &QueryBudget {
        &self.budget
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &L {
        &self.inner
    }
}

impl<L: Lca> Lca for WithBudget<L> {
    type Query = L::Query;
    type Answer = L::Answer;

    fn query_ctx(&self, q: Self::Query, ctx: &QueryCtx) -> Result<Self::Answer, LcaError> {
        self.inner.query_ctx(q, ctx)
    }

    fn query(&self, q: Self::Query) -> Result<Self::Answer, LcaError> {
        self.inner.query_ctx(q, &self.budget.ctx())
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn probe_bound(&self) -> &'static str {
        self.inner.probe_bound()
    }
}

impl<L: crate::EdgeSubgraphLca> crate::EdgeSubgraphLca for WithBudget<L> {
    fn stretch_bound(&self) -> usize {
        self.inner.stretch_bound()
    }
}

impl<L: crate::VertexSubsetLca> crate::VertexSubsetLca for WithBudget<L> {}

#[cfg(test)]
mod tests {
    use super::*;
    use lca_graph::gen::structured;

    #[test]
    fn unlimited_never_refuses_and_meters() {
        let g = structured::star(10);
        let ctx = QueryCtx::unlimited();
        let o = ctx.budgeted(&g);
        for _ in 0..1000 {
            assert_eq!(o.degree(VertexId::new(0)), 9);
        }
        assert_eq!(ctx.spent(), 1000);
        assert!(!ctx.interrupted());
        assert_eq!(ctx.probe_limit(), None);
        assert!(ctx.checkpoint().is_ok());
        assert!(ctx.interruption().is_none());
    }

    #[test]
    fn budget_refuses_the_probe_over_the_limit() {
        let g = structured::star(10);
        let ctx = QueryCtx::with_probe_limit(3);
        let o = ctx.budgeted(&g);
        assert_eq!(o.degree(VertexId::new(0)), 9);
        assert!(o.neighbor(VertexId::new(0), 0).is_some());
        assert!(o.adjacency(VertexId::new(0), VertexId::new(1)).is_some());
        // Fourth probe: refused, degenerate answer, typed interruption.
        assert_eq!(o.degree(VertexId::new(0)), 0);
        assert!(o.neighbor(VertexId::new(0), 0).is_none());
        assert_eq!(ctx.spent(), 3);
        assert_eq!(
            ctx.checkpoint(),
            Err(LcaError::BudgetExhausted { spent: 3, limit: 3 })
        );
        assert_eq!(ctx.probe_limit(), Some(3));
    }

    #[test]
    fn labels_and_vertex_count_are_free_even_after_exhaustion() {
        let g = structured::path(5);
        let ctx = QueryCtx::with_probe_limit(0);
        let o = ctx.budgeted(&g);
        assert_eq!(o.degree(VertexId::new(1)), 0); // refused
        assert_eq!(o.vertex_count(), 5);
        assert_eq!(o.label(VertexId::new(2)), g.label(VertexId::new(2)));
        assert_eq!(ctx.spent(), 0);
    }

    #[test]
    fn deadline_in_the_past_trips_on_the_first_probe() {
        let g = structured::path(5);
        let ctx = QueryCtx::new(None, Some(Instant::now() - Duration::from_secs(1)), None);
        let o = ctx.budgeted(&g);
        assert_eq!(o.degree(VertexId::new(1)), 0);
        assert!(matches!(
            ctx.checkpoint(),
            Err(LcaError::DeadlineExceeded { spent: 0 })
        ));
    }

    #[test]
    fn cancellation_flag_trips_probes_and_checkpoints() {
        let g = structured::path(5);
        let flag = Arc::new(AtomicBool::new(false));
        let ctx = QueryCtx::new(None, None, Some(flag.clone()));
        let o = ctx.budgeted(&g);
        assert_eq!(o.degree(VertexId::new(1)), 2);
        flag.store(true, Ordering::Relaxed);
        // checkpoint observes the flag even without another probe.
        assert!(matches!(ctx.checkpoint(), Err(LcaError::Cancelled { .. })));
        assert_eq!(o.degree(VertexId::new(1)), 0);
    }

    #[test]
    fn reset_rearms_the_meter() {
        let g = structured::path(5);
        let ctx = QueryCtx::with_probe_limit(1);
        let o = ctx.budgeted(&g);
        o.degree(VertexId::new(1));
        o.degree(VertexId::new(1));
        assert!(ctx.interrupted());
        ctx.reset();
        assert!(!ctx.interrupted());
        assert_eq!(ctx.spent(), 0);
        assert_eq!(o.degree(VertexId::new(1)), 2);
    }

    #[test]
    fn budget_spec_mints_contexts() {
        assert!(QueryBudget::unlimited().is_unlimited());
        let b = QueryBudget::max_probes(7).with_timeout(Duration::from_secs(60));
        assert!(!b.is_unlimited());
        let ctx = b.ctx();
        assert_eq!(ctx.probe_limit(), Some(7));
        let shared = Instant::now() + Duration::from_secs(1);
        let ctx = b.ctx_at(Some(shared));
        assert_eq!(ctx.probe_limit(), Some(7));
        let b = QueryBudget::unlimited().with_cancel(Arc::new(AtomicBool::new(false)));
        assert!(!b.is_unlimited());
    }

    #[test]
    fn poll_stride_adapts_to_probe_cost_hints() {
        use lca_graph::implicit::ImplicitGnp;
        use lca_graph::ProbeCost;
        // The hint classes map to their documented strides…
        assert_eq!(ProbeCost::Memory.poll_stride(), POLL_STRIDE);
        assert_eq!(ProbeCost::Compute.poll_stride(), 16);
        assert_eq!(ProbeCost::Remote.poll_stride(), 1);
        // …materialized graphs are Memory-class, implicit oracles Compute-,
        // and wrappers forward the inner hint.
        let g = structured::path(8);
        assert_eq!(g.probe_cost_hint(), ProbeCost::Memory);
        let implicit = ImplicitGnp::new(1000, 3.0, lca_rand::Seed::new(1));
        assert_eq!(implicit.probe_cost_hint(), ProbeCost::Compute);
        let ctx = QueryCtx::unlimited();
        assert_eq!(
            ctx.budgeted(&implicit).probe_cost_hint(),
            ProbeCost::Compute
        );
        assert_eq!(ctx.poll_stride(), POLL_STRIDE);
        let ctx = ctx.with_poll_stride(implicit.probe_cost_hint().poll_stride());
        assert_eq!(ctx.poll_stride(), 16);
        // Stride 0 clamps to 1 instead of dividing by zero in charge().
        assert_eq!(QueryCtx::unlimited().with_poll_stride(0).poll_stride(), 1);
    }

    #[test]
    fn short_stride_closes_the_deadline_blind_spot() {
        let g = structured::star(64);
        // The first probe polls while the deadline is still comfortably
        // ahead (200 ms — wide enough that scheduler preemption between
        // construction and the probe cannot expire it first); the sleep
        // then expires it, and the stride decides which later probe
        // notices: every one (stride 1) or only the 64th (default).
        let mk = |stride: u64| {
            QueryCtx::new(
                None,
                Some(Instant::now() + Duration::from_millis(200)),
                None,
            )
            .with_poll_stride(stride)
        };
        let ctx = mk(1);
        let o = ctx.budgeted(&g);
        assert_eq!(o.degree(VertexId::new(0)), 63); // first probe: deadline still ahead
        std::thread::sleep(Duration::from_millis(250));
        // Stride 1: the very next probe observes the expired deadline.
        assert_eq!(o.degree(VertexId::new(0)), 0);
        assert!(matches!(
            ctx.checkpoint(),
            Err(LcaError::DeadlineExceeded { .. })
        ));
        // Default stride: probes 2..63 fall in the blind spot and still
        // answer; the 64th polls and trips.
        let ctx = mk(POLL_STRIDE);
        let o = ctx.budgeted(&g);
        assert_eq!(o.degree(VertexId::new(0)), 63);
        std::thread::sleep(Duration::from_millis(250));
        for _ in 1..POLL_STRIDE - 1 {
            assert_eq!(o.degree(VertexId::new(0)), 63, "blind-spot probe answers");
        }
        assert_eq!(o.degree(VertexId::new(0)), 0, "stride boundary polls");
        assert!(matches!(
            ctx.checkpoint(),
            Err(LcaError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn buffered_scan_charges_exactly_degree_plus_one() {
        let g = structured::star(9);
        let ctx = QueryCtx::unlimited();
        let o = ctx.budgeted(&g);
        let mut buf = Vec::new();
        let d = o.neighbors_into(VertexId::new(0), &mut buf);
        assert_eq!(d, 8);
        assert_eq!(buf.len(), 8);
        // One degree probe plus one neighbor probe per entry — the same
        // meter reading a hand-written scan loop would produce.
        assert_eq!(ctx.spent(), 9);
    }

    #[test]
    fn buffered_scan_truncates_at_the_budget() {
        let g = structured::star(9);
        // Budget covers degree + 3 neighbors; the 4th neighbor probe trips.
        let ctx = QueryCtx::with_probe_limit(4);
        let o = ctx.budgeted(&g);
        let mut buf = Vec::new();
        o.neighbors_into(VertexId::new(0), &mut buf);
        assert_eq!(buf.len(), 3, "answered prefix survives the refusal");
        assert_eq!(ctx.spent(), 4);
        assert!(matches!(
            ctx.checkpoint(),
            Err(LcaError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn bulk_scan_polls_after_crossing_a_stride_boundary() {
        let small = structured::star(8); // centre degree 7: an 8-probe scan
        let big = structured::star(64); // centre degree 63: a 64-probe scan
        let centre = VertexId::new(0);
        let mut buf = Vec::new();
        let mk = || {
            QueryCtx::new(
                None,
                Some(Instant::now() + Duration::from_millis(200)),
                None,
            )
        };

        // Spent 1 → 9 crosses no multiple of 64: the expired deadline stays
        // in the blind spot and the scan's answer stands.
        let ctx = mk();
        let o = ctx.budgeted(&small);
        assert_eq!(o.degree(centre), 7); // first probe polls, deadline ahead
        std::thread::sleep(Duration::from_millis(250));
        assert_eq!(o.neighbors_into(centre, &mut buf), 7);
        assert_eq!(ctx.spent(), 9);
        assert!(ctx.checkpoint().is_ok());

        // Spent 1 → 65 crosses 64: the scan completes and stays charged,
        // the poll after it records the deadline, and the next probe is
        // refused.
        let ctx = mk();
        let o = ctx.budgeted(&big);
        assert_eq!(o.degree(centre), 63);
        std::thread::sleep(Duration::from_millis(250));
        assert_eq!(o.neighbors_into(centre, &mut buf), 63);
        assert_eq!(buf, big.neighbors(centre), "the scan's answer is complete");
        assert_eq!(
            ctx.checkpoint(),
            Err(LcaError::DeadlineExceeded { spent: 65 })
        );
        assert_eq!(o.degree(centre), 0, "the next probe is refused");
        assert_eq!(ctx.spent(), 65);
    }

    /// A graph whose scans stop after `k` neighbors through both entry
    /// points, as a budgeted view that ran dry answers.
    struct Truncated {
        g: lca_graph::Graph,
        k: usize,
    }

    impl Oracle for Truncated {
        fn vertex_count(&self) -> usize {
            self.g.vertex_count()
        }
        fn degree(&self, v: VertexId) -> usize {
            self.g.degree(v)
        }
        fn neighbor(&self, v: VertexId, i: usize) -> Option<VertexId> {
            (i < self.k).then(|| self.g.neighbor(v, i)).flatten()
        }
        fn adjacency(&self, u: VertexId, v: VertexId) -> Option<usize> {
            self.g.adjacency_index(u, v)
        }
        fn neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> usize {
            let d = Oracle::neighbors_into(&self.g, v, out);
            out.truncate(self.k);
            d
        }
        fn label(&self, v: VertexId) -> u64 {
            self.g.label(v)
        }
    }

    #[test]
    fn bulk_and_split_scans_charge_a_truncated_scan_alike() {
        let o = Truncated {
            g: structured::star(9),
            k: 3,
        };
        let centre = VertexId::new(0);
        let (mut bulk, mut split) = (Vec::new(), Vec::new());
        let roomy = QueryCtx::unlimited();
        let d = roomy.budgeted(&o).neighbors_into(centre, &mut bulk);
        // Less than n = 9 probes of room: the view splits the scan.
        let tight = QueryCtx::with_probe_limit(8);
        assert_eq!(tight.budgeted(&o).neighbors_into(centre, &mut split), d);
        assert_eq!((d, bulk.len()), (8, 3));
        assert_eq!(bulk, split);
        // degree + 3 answered neighbors + the neighbor probe that met ⊥.
        assert_eq!((roomy.spent(), tight.spent()), (5, 5));
        assert!(tight.checkpoint().is_ok());
    }

    #[test]
    fn bulk_scan_over_its_limit_fails_the_query() {
        // Two queries sharing one context can both pass the room check and
        // together charge past the limit; the overrun is reported, not
        // swallowed.
        let ctx = QueryCtx::with_probe_limit(10);
        ctx.charge_scan(6);
        assert!(ctx.checkpoint().is_ok());
        ctx.charge_scan(6);
        assert_eq!(
            ctx.checkpoint(),
            Err(LcaError::BudgetExhausted {
                spent: 12,
                limit: 10
            })
        );
    }

    #[test]
    fn unmetered_view_is_transparent() {
        let g = structured::cycle(6);
        let o = BudgetedOracle::unmetered(&g);
        for v in g.vertices() {
            assert_eq!(o.degree(v), g.degree(v));
            assert_eq!(o.neighbor(v, 0), g.neighbor(v, 0));
        }
        let ctx = QueryCtx::unlimited();
        let m = BudgetedOracle::maybe(&g, Some(&ctx));
        m.degree(VertexId::new(0));
        assert_eq!(ctx.spent(), 1);
    }
}
