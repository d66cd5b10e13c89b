//! `lca-fleet` — an HTTP/JSON gateway and multi-process fleet router
//! presenting one session namespace over N `lca-serve` backends.
//!
//! The serve crate made one process a long-lived LCA oracle; this crate
//! makes *several* of them look like one. The trick is the paper's own:
//! an LCA session is rebuildable from its `(kind, family, n, seed)` spec
//! alone — state is a seed, not a tape — so "replication" degenerates to
//! *spec exchange* and the fleet needs no shared storage, no session
//! migration, and no consensus. Deterministic routing does the rest:
//!
//! * **HTTP framing** ([`http`]) — a minimal std-only HTTP/1.1 subset
//!   (`POST /v1/query`, `GET /v1/stats`, `GET /v1/sessions`,
//!   `POST /v1/shutdown`); status codes map from the wire protocol's
//!   typed error codes per the table in `docs/PROTOCOL.md`.
//! * **Backend clients** ([`client`]) — pooled persistent newline-JSON
//!   connections to each backend.
//! * **Router** ([`router`]) — sessions land on
//!   `shard_for_str(name, N)`, the same Fibonacci-hash sharding the
//!   backends use internally, so any gateway (or restart of one) routes
//!   identically with zero coordination; specs a backend accepted are
//!   cached and injected into spec-less requests; connection failures retry
//!   once (queries are idempotent) then answer the typed
//!   `backend-unavailable`; `stats` aggregates per-backend snapshots
//!   into a fleet rollup.
//! * **Gateway** ([`gateway`]) — an HTTP/1.1 codec on the serve crate's
//!   reactor core ([`lca_serve::reactor`]): the core multiplexes every
//!   client connection, a bounded worker pool ([`lca_serve::pool`]) does
//!   the blocking backend round trips, and the codec's one-in-flight rule
//!   keeps HTTP/1.1 pipelined responses in request order.
//! * **MCP adapter** ([`mcp`]) — `lca_query`/`lca_stats` tools over
//!   newline JSON-RPC stdio, for MCP hosts.
//!
//! Binaries: `lca-gateway` (the HTTP front end) and `lca-mcp` (the stdio
//! adapter). `lca-loadgen --target http://…` drives the gateway with the
//! same traffic shapes and verification it aims at single backends.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod gateway;
pub mod http;
pub mod mcp;
pub mod router;

pub use gateway::{Gateway, GatewayConfig};
pub use router::{Fleet, FleetReply};
