//! Distributed solve tier: a sharded, replicated router in front of a
//! fleet of `trisolv serve` backends.
//!
//! The router speaks the same wire protocol as a single server, through
//! the same client-facing front end (`trisolv_server::frontend`) — any
//! client points at it unchanged — and shards *matrices* (not
//! connections) across backends with a consistent-hash ring keyed on the
//! matrix fingerprint. Each factor is `LOAD`ed on `R` replicas; `SOLVE`s
//! go to the first healthy replica and deterministically fail over to the
//! next on shed (`ERR Busy`), stall (`ERR Timeout` / backstop expiry), a
//! stale cache (`ERR UnknownFingerprint`), or connection loss. A per-
//! backend circuit breaker schedules reconnects with exponential backoff,
//! and a rejoining backend is replayed its share of retained `LOAD`s
//! before it takes traffic again (warm standby).
//!
//! Module map:
//!
//! * [`ring`] — the placement function (consistent hashing, vnodes,
//!   ordered replica sets).
//! * [`router`] — the event-loop proxy itself ([`Router::spawn`] →
//!   [`RunningRouter`]).
//! * [`launch`] — process supervision for spawning a local backend fleet
//!   ([`Fleet`]).
//!
//! See `DESIGN.md` §15 for the full design discussion.

mod backend;
pub mod launch;
pub mod ring;
pub mod router;

pub use launch::Fleet;
pub use ring::Ring;
pub use router::{Router, RouterOptions, RunningRouter};
