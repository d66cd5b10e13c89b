//! `lca-serve` — a persistent query-serving daemon for local computation
//! algorithms, plus its load generator.
//!
//! The paper's model is an online one: an LCA is a long-lived oracle
//! answering an adversarial *stream* of queries about one fixed legal
//! solution, consistently across queries (Rubinfeld et al., ICS 2011; Alon
//! et al. for the bounded-state serving regime). The rest of the workspace
//! can *construct* oracles at n = 10⁸ and *batch* queries; this crate is
//! the process that stays up and serves them:
//!
//! * **Protocol** ([`proto`]) — newline-JSON over TCP or stdin; one request
//!   line in, one response line out. Spec: `docs/PROTOCOL.md`.
//! * **Sessions** ([`session`]) — lazily built, pinned
//!   `(kind, family, n, seed)` instances, each owning an algorithm over
//!   its implicit oracle, metered per query; generated lists live in each
//!   reactor loop's own list store.
//! * **Reactor** ([`reactor`], [`sys`]) — the event-driven TCP core: N
//!   readiness loops, one thread each, multiplex the connections over
//!   nonblocking sockets (epoll on Linux via a thin `extern "C"` layer, a
//!   portable poll-with-timeout sweep elsewhere), generic over a wire
//!   [`reactor::Codec`] — this crate's newline-JSON protocol, and the
//!   fleet gateway's HTTP/1.1. No per-connection threads at any load;
//!   thousands of open connections cost buffers, not stacks.
//! * **Admission** — each loop answers the queries it frames, inline on
//!   its own thread, and bounds the queries it holds admitted but not yet
//!   started; past the bound a query is answered `overloaded` instead of
//!   buffered. A query never crosses threads.
//! * **Worker pool** ([`pool`]) — a fixed pool behind a bounded queue, for
//!   a codec whose requests block (the fleet gateway's backend round
//!   trips). Workers return responses to their loop through a completion
//!   queue plus a wake — they never block on a client socket.
//! * **Budgets** — requests carry `max_probes`/`deadline_ms`; every query
//!   runs in a `QueryCtx` enforcing them, over-budget queries fail with the
//!   typed `budget-exhausted` code (never hang a loop), and `stats`
//!   reports exhaustion counters plus a budget-utilization histogram.
//!   Operators can install server-wide defaults
//!   (`lca-serve --max-probes/--deadline-ms`).
//! * **Adaptive budgets** ([`budget`]) — per-session controllers that fit
//!   `max_probes` to a target percentile of the *observed* probe
//!   distribution (windowed, decay-on-rotate histograms), requested per
//!   session via the `budget_policy` field or server-wide via
//!   `lca-serve --adaptive-budgets`. Explicit request budgets always win.
//! * **Metrics** ([`metrics`]) — per-session and global qps, log₂ latency
//!   and probe histograms (p50/p99), cache hit rates; served by the
//!   `stats` request.
//! * **Server** ([`server`]) — the daemon loop with graceful drain.
//! * **Load generator** ([`loadgen`]) — closed/open-loop driver with a
//!   machine-readable throughput report and optional answer verification
//!   against direct [`lca::prelude::LcaBuilder`] queries.
//!
//! Binaries: `lca-serve` (the daemon) and `lca-loadgen` (the driver); see
//! the serving section of `examples/quickstart.rs` for one-liners.

// `deny`, not `forbid`: the sanctioned exceptions are `sys.rs`, which
// declares the epoll syscalls against the libc std already links (see its
// module docs), and the test-only counting allocator in `alloc_budget.rs`;
// everything else stays safe Rust.
#![deny(unsafe_code)]
#![deny(missing_docs)]

#[cfg(test)]
mod alloc_budget;
pub mod budget;
pub mod loadgen;
pub mod metrics;
pub mod pool;
pub mod proto;
pub mod reactor;
pub mod server;
pub mod session;
pub mod sys;

pub use sys::raise_fd_limit;

use lca_rand::Seed;

/// The input oracle's seed for a session seed: the two sides of a session
/// (random input, random algorithm choices) draw from independent derived
/// streams so neither can correlate with the other.
pub fn input_seed(seed: u64) -> Seed {
    Seed::new(seed).derive(0x494E_5055) // "INPU"
}

/// The algorithm's seed for a session seed — see [`input_seed`].
pub fn algo_seed(seed: u64) -> Seed {
    Seed::new(seed).derive(0x414C_474F) // "ALGO"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivations_are_distinct_and_deterministic() {
        assert_eq!(input_seed(7), input_seed(7));
        assert_eq!(algo_seed(7), algo_seed(7));
        assert_ne!(input_seed(7), algo_seed(7));
        assert_ne!(input_seed(7), input_seed(8));
    }
}
