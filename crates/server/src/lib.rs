//! `trisolv-server`: a factor-caching, RHS-batching solve service.
//!
//! The paper's experimental point is that triangular-solve throughput is
//! limited by per-solve overhead, not arithmetic: on the T3D one RHS ran at
//! 435 MFLOPS while 30 blocked RHS exceeded 3 GFLOPS. This crate reproduces
//! that amortization curve *at the service level*: a long-lived process
//! keeps factorizations resident ([`cache`]), merges concurrent single-RHS
//! requests on the same factor into blocked `n×k` solves ([`batch`],
//! [`engine`]), and exposes the whole thing over a std-only length-prefixed
//! TCP protocol ([`protocol`]) behind an event-driven front end — a
//! `poll(2)` readiness loop ([`poller`]), per-connection state machines
//! with request pipelining ([`conn`]) owned by the client-facing front end
//! the router shares ([`frontend`]), and a solver-worker pool ([`server`])
//! — with a matching blocking client and load generator ([`client`],
//! [`loadgen`]). Every `STATS` key is a row of one counter table per
//! tier ([`stats_table!`]).
//!
//! Failure is a first-class input ([`fault`]): a seeded fault plan can
//! inject torn frames, stalls, panics, and connection drops at named sites,
//! and the hardening it exercises — deadlines, admission control, panic
//! isolation with a sequential-executor fallback, and client retry — is on
//! by default (DESIGN.md §11).
//!
//! Numeric trust is also first-class (DESIGN.md §13): cached factors are
//! checksummed at insert and re-verified on a configurable cadence, with a
//! corrupted factor transparently refactored from the retained matrix
//! (self-healing, bit-identical by determinism), and a client can
//! request a *certified* solve — iterative refinement whose reply
//! carries the componentwise backward error it achieved.
//!
//! Everything is `std`-only; the workspace builds offline with zero
//! external dependencies.

pub mod batch;
pub mod cache;
pub mod client;
pub mod conn;
pub mod engine;
pub mod fault;
pub mod fingerprint;
pub mod frontend;
pub mod loadgen;
pub mod poller;
pub mod protocol;
pub mod server;
pub mod signal;
pub mod stats;
pub mod store;

pub use batch::{BatchLane, BatchOptions, LaneError};
pub use cache::{CacheStats, FactorCache, FactorEntry, SolverLane};
pub use client::{
    CertifiedReply, Client, ClientError, ClientOptions, ClientPool, EvictReply, LoadReply,
    PooledClient, ReplicaEvict, RetryStats,
};
pub use engine::{
    CertifiedOutcome, Engine, EngineError, EngineOptions, EngineStats, ExecMode, LoadOutcome,
    PrecisionMode,
};
pub use fault::{FaultAction, FaultPlan, FaultSite};
pub use fingerprint::Fingerprint;
pub use loadgen::{run_load, LoadGenOptions, LoadGenReport};
pub use server::{RunningServer, Server, ServerOptions};
pub use store::{DropReason, FactorStore, RecoveredFactor, StoreOptions};
