//! Self-tuning probe budgets: the observe→fit→admit loop.
//!
//! The paper's defining resource is the per-query probe bound. PR 4 made it
//! an enforceable wire-level budget, but picking the number by hand is a
//! losing game: the hub-driven probe tails of Levi–Rubinfeld–Yodpinyanee
//! (arXiv:1502.04022) mean a cold-median budget exhausts roughly half the
//! implicit-workload queries. This module closes the loop instead — each
//! session observes its own probe spend into a *windowed* histogram and
//! periodically re-fits `max_probes` to a target percentile of what it has
//! actually seen.
//!
//! Windowing matters because the serving [`Histogram`](crate::metrics::Histogram)
//! is cumulative: it can never forget a cold start, so a fit against it would
//! be permanently anchored to the first expensive queries. The
//! [`WindowedHistogram`] here rotates at fixed observation-count epochs and
//! halves the carried counts on every rotation, so old mass decays
//! geometrically (weight `2^-k` after `k` windows) while recent windows
//! dominate the fit.
//!
//! Determinism story: the fitted budget is just a server-chosen `max_probes`.
//! The loadgen `--verify` invariant from PR 4 is unchanged — answers under a
//! budget must match the unbudgeted answer whenever the query completes, and
//! exhaustion is tolerated exactly where a deterministic cold replay admits
//! it. Adaptive fitting changes *how often* the budget trips, never *what*
//! a completed query answers.

#![warn(clippy::unwrap_used)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::{bucket, bucket_quantile, num, Json, BUCKETS};

/// Default number of observations per window before a rotation.
const DEFAULT_WINDOW: u64 = 256;

/// Default number of observations between budget re-fits.
const DEFAULT_REFIT_EVERY: u64 = 64;

/// A log2-bucketed histogram that forgets: observations accumulate into a
/// current window, and every `window` observations the window is folded into
/// a decayed carry with `carry = carry/2 + window`, so mass from `k` windows
/// ago contributes with weight `2^-k`.
///
/// Recording is lock-free in the common case; the fold at a window boundary
/// takes a private mutex so exactly one thread performs the rotation.
pub struct WindowedHistogram {
    cur: [AtomicU64; BUCKETS],
    decayed: [AtomicU64; BUCKETS],
    window: u64,
    in_window: AtomicU64,
    epochs: AtomicU64,
    rotate: Mutex<()>,
}

impl WindowedHistogram {
    /// Creates an empty windowed histogram rotating every `window`
    /// observations (values below 1 are clamped to 1).
    pub fn new(window: u64) -> Self {
        Self {
            cur: std::array::from_fn(|_| AtomicU64::new(0)),
            decayed: std::array::from_fn(|_| AtomicU64::new(0)),
            window: window.max(1),
            in_window: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
            rotate: Mutex::new(()),
        }
    }

    /// Records one observation, rotating the window if this observation
    /// fills it.
    pub fn record(&self, value: u64) {
        // bucket() < BUCKETS by construction; get() keeps the hot path panic-free.
        if let Some(counter) = self.cur.get(bucket(value)) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        let seen = self.in_window.fetch_add(1, Ordering::Relaxed) + 1;
        if seen >= self.window {
            self.try_rotate();
        }
    }

    fn try_rotate(&self) {
        // lint:allow(panic) — poison means a sibling recorder panicked; propagate
        let _guard = self.rotate.lock().expect("rotate mutex poisoned");
        // Double-check under the lock: a racing thread may have already
        // rotated on behalf of this window.
        if self.in_window.load(Ordering::Relaxed) < self.window {
            return;
        }
        for (cur, decayed) in self.cur.iter().zip(&self.decayed) {
            let fresh = cur.swap(0, Ordering::Relaxed);
            let old = decayed.load(Ordering::Relaxed);
            decayed.store(old / 2 + fresh, Ordering::Relaxed);
        }
        self.in_window.store(0, Ordering::Relaxed);
        self.epochs.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of completed window rotations.
    pub fn epochs(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }

    /// The q-quantile (`0.0 < q <= 1.0`) over the combined decayed carry and
    /// current window, reported as the upper bound of the covering bucket.
    /// Returns 0 when empty. Allocation-free.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = || {
            (self.decayed.iter().zip(&self.cur))
                .map(|(decayed, cur)| decayed.load(Ordering::Relaxed) + cur.load(Ordering::Relaxed))
        };
        bucket_quantile(counts, q)
    }
}

/// How a session asks the server to manage its probe budget, parsed from the
/// wire-level `budget_policy` request field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetPolicy {
    /// Disable adaptive fitting; only explicit or server-default budgets apply.
    Off,
    /// Fit the budget to a target percentile; `None` uses the server default.
    Adaptive(Option<f64>),
}

impl BudgetPolicy {
    /// Parses the wire grammar: `"off"` / `"none"` disable, `"adaptive"`
    /// enables at the server's default percentile, and `"pNN"` / `"pNN.N"`
    /// (with `0 < NN <= 100`) pins the target percentile. Returns `None` for
    /// anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" | "none" => Some(Self::Off),
            "adaptive" => Some(Self::Adaptive(None)),
            _ => {
                let pct: f64 = s.strip_prefix('p')?.parse().ok()?;
                if pct > 0.0 && pct <= 100.0 {
                    Some(Self::Adaptive(Some(pct)))
                } else {
                    None
                }
            }
        }
    }
}

/// Server-side defaults for per-session budget controllers.
#[derive(Debug, Clone, Copy)]
pub struct BudgetPolicyConfig {
    /// Whether new sessions start with adaptive fitting enabled.
    pub enabled: bool,
    /// Target percentile for the fit (e.g. `99.0` for p99).
    pub percentile: f64,
    /// The fitted budget never drops below this floor.
    pub floor: u64,
    /// The fitted budget never exceeds this cap (typically the server's
    /// `--max-probes`); the cap wins if floor and cap conflict.
    pub cap: u64,
}

impl Default for BudgetPolicyConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            percentile: 99.0,
            floor: 8,
            cap: u64::MAX,
        }
    }
}

crate::stats_object! {
    /// The counters of a session's `budget` stats block, which renders them
    /// with the controller's policy and window state.
    #[derive(Debug)]
    pub struct BudgetStats {}
    render(s, c: BudgetController) {
        policy => Json::Str(c.policy()),
        target_percentile => Json::Num(c.target_percentile()),
        /// The fitted budget; 0 until the first fit.
        fitted_max_probes: counter,
        /// Completed re-fits.
        refits: counter,
        window_epochs => num(c.hist.epochs()),
        /// Observations since the session was built.
        samples: counter,
    }
}

/// Per-session controller closing the observe→fit→admit loop: successful
/// queries feed their probe spend into a [`WindowedHistogram`], and every
/// `refit_every` observations the controller re-fits `max_probes` to the
/// target percentile, clamped to `[floor, cap]`.
///
/// Exhausted queries are censored observations — the true spend is unknown
/// but at least the limit — so they are recorded at twice the tripped limit.
/// This lets an over-tight fit recover upward instead of locking in.
///
/// The target percentile is stored in basis points (p99 → 9900); zero means
/// adaptive fitting is off. A fitted value of zero means "not fitted yet".
pub struct BudgetController {
    hist: WindowedHistogram,
    target_bp: AtomicU64,
    floor: u64,
    cap: u64,
    since_refit: AtomicU64,
    refit_every: u64,
    stats: BudgetStats,
}

impl BudgetController {
    /// Creates a controller with the default window (256) and refit cadence
    /// (every 64 observations).
    pub fn new(cfg: BudgetPolicyConfig) -> Self {
        Self::with_tuning(cfg, DEFAULT_WINDOW, DEFAULT_REFIT_EVERY)
    }

    /// Creates a controller with explicit window / refit cadence, mainly for
    /// tests that want fast rotation.
    pub fn with_tuning(cfg: BudgetPolicyConfig, window: u64, refit_every: u64) -> Self {
        let target_bp = if cfg.enabled {
            percentile_to_bp(cfg.percentile)
        } else {
            0
        };
        Self {
            hist: WindowedHistogram::new(window),
            target_bp: AtomicU64::new(target_bp),
            floor: cfg.floor,
            cap: cfg.cap,
            since_refit: AtomicU64::new(0),
            refit_every: refit_every.max(1),
            stats: BudgetStats::default(),
        }
    }

    /// Applies a wire-level policy request; `default_percentile` fills in
    /// `"adaptive"` with the server's configured target. Enabling (or
    /// retargeting) re-fits immediately so the next query sees the new
    /// policy.
    pub fn set_policy(&self, policy: BudgetPolicy, default_percentile: f64) {
        match policy {
            BudgetPolicy::Off => {
                self.target_bp.store(0, Ordering::Relaxed);
            }
            BudgetPolicy::Adaptive(pct) => {
                let bp = percentile_to_bp(pct.unwrap_or(default_percentile));
                self.target_bp.store(bp, Ordering::Relaxed);
                self.refit();
            }
        }
    }

    /// Records the probe spend of a successfully completed query and re-fits
    /// on cadence.
    pub fn observe(&self, spent: u64) {
        self.hist.record(spent);
        self.stats.samples.fetch_add(1, Ordering::Relaxed);
        let since = self.since_refit.fetch_add(1, Ordering::Relaxed) + 1;
        if since >= self.refit_every && self.enabled() {
            self.since_refit.store(0, Ordering::Relaxed);
            self.refit();
        }
    }

    /// Records a budget-exhausted query as a censored observation at twice
    /// the tripped limit.
    pub fn observe_exhausted(&self, limit: u64) {
        self.observe(limit.saturating_mul(2));
    }

    /// Re-fits the budget to the target percentile of the windowed histogram,
    /// clamped to `[floor, cap]` (cap wins). No-op while disabled or before
    /// any observations.
    pub fn refit(&self) {
        let bp = self.target_bp.load(Ordering::Relaxed);
        if bp == 0 {
            return;
        }
        let q = self.hist.quantile(bp as f64 / 10_000.0);
        if q == 0 && self.stats.samples.load(Ordering::Relaxed) == 0 {
            return;
        }
        let fitted = q.max(self.floor).min(self.cap);
        self.stats
            .fitted_max_probes
            .store(fitted, Ordering::Relaxed);
        self.stats.refits.fetch_add(1, Ordering::Relaxed);
    }

    /// The fitted budget, if adaptive fitting is enabled and a fit has
    /// happened.
    pub fn fitted(&self) -> Option<u64> {
        if !self.enabled() {
            return None;
        }
        match self.stats.fitted_max_probes.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        }
    }

    /// Whether adaptive fitting is currently enabled.
    pub fn enabled(&self) -> bool {
        self.target_bp.load(Ordering::Relaxed) != 0
    }

    /// The target percentile (e.g. `99.0`), or 0.0 while disabled.
    pub fn target_percentile(&self) -> f64 {
        self.target_bp.load(Ordering::Relaxed) as f64 / 100.0
    }

    /// The wire policy: `"off"` or the active target percentile (`"p99"`,
    /// `"p99.5"`).
    fn policy(&self) -> String {
        let bp = self.target_bp.load(Ordering::Relaxed);
        if bp == 0 {
            "off".to_string()
        } else if bp.is_multiple_of(100) {
            format!("p{}", bp / 100)
        } else {
            format!("p{}", bp as f64 / 100.0)
        }
    }

    /// Renders the per-session `budget` stats block.
    pub fn stats_json(&self) -> Json {
        self.stats.render(self)
    }
}

fn percentile_to_bp(pct: f64) -> u64 {
    ((pct.clamp(0.01, 100.0)) * 100.0).round() as u64
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests assert; unwrap IS the assertion
mod tests {
    use super::*;

    #[test]
    fn windowed_histogram_rotates_and_decays_geometrically() {
        let h = WindowedHistogram::new(4);
        // Window 1: four large values fill the window and rotate.
        for _ in 0..4 {
            h.record(1000);
        }
        assert_eq!(h.epochs(), 1);
        // Large values dominate: p50 covers the 1000-bucket upper bound.
        assert_eq!(h.quantile(0.5), 1023);
        // Two windows of small values: the carry halves twice (4 → 2 → 1)
        // while 8 fresh small observations accumulate, so the median and
        // even p80 move to the small bucket.
        for _ in 0..8 {
            h.record(3);
        }
        assert_eq!(h.epochs(), 3);
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(0.8), 3);
        // The decayed large mass still shows at the extreme tail.
        assert_eq!(h.quantile(1.0), 1023);
    }

    #[test]
    fn windowed_histogram_is_empty_safe_and_partial_windows_count() {
        let h = WindowedHistogram::new(100);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.epochs(), 0);
        h.record(7);
        // A partial window still contributes to quantiles before rotation.
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.epochs(), 0);
    }

    #[test]
    fn refit_converges_when_the_distribution_shifts_down() {
        let cfg = BudgetPolicyConfig {
            enabled: true,
            percentile: 99.0,
            floor: 1,
            cap: u64::MAX,
        };
        let c = BudgetController::with_tuning(cfg, 8, 8);
        for _ in 0..16 {
            c.observe(5000);
        }
        let hot = c.fitted().expect("fitted after cold window");
        assert!(hot >= 5000, "p99 fit covers the observed cold spend");
        // The workload warms up: spends drop two orders of magnitude. After
        // enough windows the cold mass decays below the p99 rank.
        for _ in 0..800 {
            c.observe(12);
        }
        let warm = c.fitted().expect("fitted after warm windows");
        assert!(
            warm <= 15,
            "fit follows the shifted distribution down, got {warm}"
        );
        assert!(
            c.stats_json()
                .get("refits")
                .and_then(|j| j.as_u64())
                .unwrap()
                >= 2
        );
    }

    #[test]
    fn exhausted_observations_are_censored_upward() {
        let cfg = BudgetPolicyConfig {
            enabled: true,
            percentile: 50.0,
            floor: 1,
            cap: u64::MAX,
        };
        let c = BudgetController::with_tuning(cfg, 4, 4);
        // Every query trips a limit of 10: censored records at 20 push the
        // fit above the tripped limit so it can recover.
        for _ in 0..8 {
            c.observe_exhausted(10);
        }
        let fitted = c.fitted().expect("fitted from censored observations");
        assert!(fitted > 10, "censored fit must exceed the tripped limit");
    }

    #[test]
    fn clamps_apply_floor_then_cap_and_cap_wins() {
        let floor_cfg = BudgetPolicyConfig {
            enabled: true,
            percentile: 99.0,
            floor: 64,
            cap: u64::MAX,
        };
        let c = BudgetController::with_tuning(floor_cfg, 4, 4);
        for _ in 0..4 {
            c.observe(1);
        }
        assert_eq!(c.fitted(), Some(64), "floor lifts a tiny fit");

        let cap_cfg = BudgetPolicyConfig {
            enabled: true,
            percentile: 99.0,
            floor: 8,
            cap: 100,
        };
        let c = BudgetController::with_tuning(cap_cfg, 4, 4);
        for _ in 0..4 {
            c.observe(1_000_000);
        }
        assert_eq!(c.fitted(), Some(100), "cap bounds a huge fit");

        let conflict = BudgetPolicyConfig {
            enabled: true,
            percentile: 99.0,
            floor: 500,
            cap: 100,
        };
        let c = BudgetController::with_tuning(conflict, 4, 4);
        for _ in 0..4 {
            c.observe(10);
        }
        assert_eq!(c.fitted(), Some(100), "cap wins over a conflicting floor");
    }

    #[test]
    fn disabled_controller_observes_but_never_fits() {
        let c = BudgetController::with_tuning(BudgetPolicyConfig::default(), 4, 4);
        for _ in 0..16 {
            c.observe(100);
        }
        assert_eq!(c.fitted(), None);
        assert!(!c.enabled());
        // Enabling via a wire policy fits immediately from the history.
        c.set_policy(BudgetPolicy::Adaptive(None), 95.0);
        assert!(c.enabled());
        assert!(c.fitted().is_some());
        assert!((c.target_percentile() - 95.0).abs() < 1e-9);
        // Turning it back off hides the fit without erasing history.
        c.set_policy(BudgetPolicy::Off, 95.0);
        assert_eq!(c.fitted(), None);
    }

    #[test]
    fn policy_grammar_parses_and_rejects() {
        assert_eq!(BudgetPolicy::parse("off"), Some(BudgetPolicy::Off));
        assert_eq!(BudgetPolicy::parse("none"), Some(BudgetPolicy::Off));
        assert_eq!(
            BudgetPolicy::parse("adaptive"),
            Some(BudgetPolicy::Adaptive(None))
        );
        assert_eq!(
            BudgetPolicy::parse("p99"),
            Some(BudgetPolicy::Adaptive(Some(99.0)))
        );
        assert_eq!(
            BudgetPolicy::parse("p99.5"),
            Some(BudgetPolicy::Adaptive(Some(99.5)))
        );
        assert_eq!(
            BudgetPolicy::parse("p100"),
            Some(BudgetPolicy::Adaptive(Some(100.0)))
        );
        for junk in ["", "p0", "p101", "p-5", "percentile", "99", "P99"] {
            assert_eq!(BudgetPolicy::parse(junk), None, "junk {junk:?} must fail");
        }
    }

    #[test]
    fn stats_block_renders_policy_and_counters() {
        let cfg = BudgetPolicyConfig {
            enabled: true,
            percentile: 99.5,
            floor: 8,
            cap: u64::MAX,
        };
        let c = BudgetController::with_tuning(cfg, 4, 4);
        for _ in 0..8 {
            c.observe(100);
        }
        let stats = c.stats_json();
        assert_eq!(stats.get("policy").and_then(|j| j.as_str()), Some("p99.5"));
        assert_eq!(stats.get("samples").and_then(|j| j.as_u64()), Some(8));
        assert!(
            stats
                .get("fitted_max_probes")
                .and_then(|j| j.as_u64())
                .unwrap()
                >= 100
        );
        assert!(stats.get("refits").and_then(|j| j.as_u64()).unwrap() >= 1);
        assert_eq!(stats.get("window_epochs").and_then(|j| j.as_u64()), Some(2));
    }
}
