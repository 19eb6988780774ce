//! The solve engine: cache + batcher + blocked executor, protocol-agnostic.
//!
//! [`Engine`] is the in-process heart of the service; the TCP front end and
//! the in-process client/benchmark harness both drive it through the same
//! four operations (`load`, `solve`, `stats`, `evict`). All failures are
//! structured [`EngineError`]s — a malformed matrix or a wrong-length RHS
//! must never panic a worker thread, and (new in the hardening pass) even a
//! *panicking executor* is converted to a structured error behind
//! `catch_unwind` rather than poisoning the lane.
//!
//! The degradation ladder (DESIGN.md §11) runs threaded → sequential →
//! shed: a threaded-executor panic falls back to the sequential executor
//! for that batch (counted in `exec_fallbacks`); a request arriving while
//! `max_pending` requests are already in flight is shed with
//! [`EngineError::Busy`] and a `retry_after_ms` hint instead of growing
//! memory without bound.

use std::collections::HashSet;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use trisolv_core::{SolveReport, SparseCholeskySolver, SubtreeSchedule, ThreadedSolver};
use trisolv_factor::FactorBlocks;
use trisolv_matrix::{CscMatrix, DenseMatrix};

use crate::batch::{BatchLane, BatchOptions, LaneError};
use crate::cache::{CacheStats, FactorCache, FactorEntry, SolverLane, WorkspacePool};
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::fingerprint::Fingerprint;
use crate::frontend::FrontStats;
use crate::stats::bump;
use crate::store::FactorStore;

/// Which executor runs the blocked solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Level-scheduled task-pool solver (`ThreadedSolver`); the default.
    #[default]
    Threaded,
    /// Sequential supernodal solver; answers are bit-identical to
    /// [`SparseCholeskySolver::solve`] on the same inputs.
    Seq,
}

impl ExecMode {
    /// Parse `"seq"` / `"threaded"`.
    pub fn parse(s: &str) -> Result<ExecMode, String> {
        match s {
            "seq" => Ok(ExecMode::Seq),
            "threaded" => Ok(ExecMode::Threaded),
            other => Err(format!("unknown exec mode {other:?} (seq|threaded)")),
        }
    }
}

/// Which precision lane newly loaded factors are cached in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrecisionMode {
    /// Full-precision resident factors; the default and the historical
    /// behavior.
    #[default]
    F64,
    /// Demote every factor to `f32` at cache insert. Direct solves run on
    /// the narrow lane; certified solves refine back to the `f64` target,
    /// refactoring in `f64` per request when refinement stagnates.
    F32,
    /// Like `F32`, but a factor whose certified solve ever needed the
    /// `f64` fallback is **promoted**: it stays `f64`-resident from then
    /// on (including across re-loads and self-heals).
    Auto,
}

impl PrecisionMode {
    /// Parse `"f64"` / `"f32"` / `"auto"`.
    pub fn parse(s: &str) -> Result<PrecisionMode, String> {
        match s {
            "f64" => Ok(PrecisionMode::F64),
            "f32" => Ok(PrecisionMode::F32),
            "auto" => Ok(PrecisionMode::Auto),
            other => Err(format!("unknown precision mode {other:?} (f64|f32|auto)")),
        }
    }

    /// Does this mode demote at insert time?
    fn demotes(self) -> bool {
        !matches!(self, PrecisionMode::F64)
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Factor-cache byte budget (estimated resident bytes).
    pub budget_bytes: usize,
    /// Micro-batching policy applied to every factor's lane.
    pub batch: BatchOptions,
    /// Executor for the blocked solves.
    pub exec: ExecMode,
    /// Admission-control high-water mark: solve requests arriving while
    /// this many are already in flight are shed with [`EngineError::Busy`].
    /// `0` disables shedding.
    pub max_pending: usize,
    /// Threads per blocked solve in the threaded executor (distinct from
    /// the front end's worker pool). `0` means
    /// `std::thread::available_parallelism`.
    pub solver_threads: usize,
    /// Factor-integrity cadence: re-digest a cached factor's values every
    /// this many solves against it and compare with the checksum taken at
    /// insert; a mismatch evicts the entry and transparently refactors from
    /// the retained matrix. `0` disables the check.
    pub verify_every: u64,
    /// Which precision lane newly loaded factors are cached in.
    pub precision: PrecisionMode,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            budget_bytes: 512 << 20,
            batch: BatchOptions::default(),
            exec: ExecMode::Threaded,
            max_pending: 1024,
            solver_threads: 0,
            verify_every: 0,
            precision: PrecisionMode::F64,
        }
    }
}

/// Structured failure of an engine operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// `SOLVE`/`EVICT` referenced a fingerprint that is not resident.
    UnknownFingerprint(Fingerprint),
    /// A `SOLVE` RHS length does not match the cached factor's dimension.
    DimensionMismatch {
        /// The cached factor's matrix order.
        expected: usize,
        /// The request's RHS length.
        got: usize,
    },
    /// `LOAD` payload was not a valid lower-triangular CSC SPD matrix.
    BadMatrix(String),
    /// Numeric factorization failed (matrix not positive definite).
    NotSpd(String),
    /// A batched request timed out waiting for its results.
    Timeout,
    /// The request's deadline expired inside the service.
    DeadlineExceeded,
    /// The engine is over its pending-request high-water mark; retry after
    /// the hinted backoff.
    Busy {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The input contained NaN or infinite values (`what` names the field).
    NonFinite {
        /// Which input was non-finite (`"matrix values"` or `"rhs"`).
        what: &'static str,
    },
    /// The solve produced NaN or infinite entries (numeric breakdown of
    /// the cached factor on this input).
    NumericBreakdown,
    /// Invariant violation inside the service.
    Internal(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownFingerprint(fp) => {
                write!(f, "unknown fingerprint {fp} (LOAD the matrix first)")
            }
            EngineError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "rhs length {got} does not match factor dimension {expected}"
                )
            }
            EngineError::BadMatrix(m) => write!(f, "bad matrix: {m}"),
            EngineError::NotSpd(m) => write!(f, "factorization failed: {m}"),
            EngineError::Timeout => write!(f, "request timed out in the batcher"),
            EngineError::DeadlineExceeded => write!(f, "request deadline expired in the service"),
            EngineError::Busy { retry_after_ms } => {
                write!(f, "server over capacity; retry after {retry_after_ms} ms")
            }
            EngineError::NonFinite { what } => {
                write!(f, "{what} contain NaN or infinite entries")
            }
            EngineError::NumericBreakdown => {
                write!(f, "solve produced non-finite values (numeric breakdown)")
            }
            EngineError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

/// What `load` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Content hash the matrix is now cached under.
    pub fingerprint: Fingerprint,
    /// Matrix order.
    pub n: usize,
    /// Nonzeros in the numeric factor.
    pub factor_nnz: usize,
    /// Whether the factor was already resident (no factorization ran).
    pub already_cached: bool,
}

/// Result of a certified solve: the solution plus the refinement
/// certificate carried in the `SOLVE` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct CertifiedOutcome {
    /// The refined solution.
    pub x: Vec<f64>,
    /// Refinement iterations performed (0 when the first solve already met
    /// the target).
    pub iterations: u32,
    /// Final componentwise (Oettli–Prager) backward error.
    pub backward_error: f64,
    /// Whether the backward error reached the certification target.
    pub certified: bool,
}

crate::stats_table! {
    impl Engine {
        counters: Counters at counters,
        snapshot: pub fn stats,
        pairs: pub(crate) fn stats_pairs,
    }
    /// Aggregated engine counters (cache + batcher + failure ladder). One
    /// row per `STATS` key, in reply order; README.md's STATS table
    /// describes each key.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct EngineStats {
        /// Cache occupancy and hit/miss/eviction counters.
        part cache: CacheStats = |e| e.cache.stats();
        wire hits = |_, s| s.cache.hits;
        wire misses = |_, s| s.cache.misses;
        wire evictions = |_, s| s.cache.evictions;
        wire entries = |_, s| s.cache.entries as u64;
        wire resident_bytes = |_, s| s.cache.resident_bytes as u64;
        // Stable cache-occupancy gauges for the router tier's
        // balance/placement decisions (aliases of the two above, which
        // predate the router and keep their names).
        wire cache_entries = |_, s| s.cache.entries as u64;
        wire cache_bytes = |_, s| s.cache.resident_bytes as u64;
        wire budget_bytes = |e, _| e.opts.budget_bytes as u64;
        /// Solve requests answered successfully.
        live solves_ok: u64;
        /// Solve requests answered with an error.
        live solves_err: u64;
        /// Blocked solves executed.
        live batches: u64;
        /// RHS columns carried by those blocked solves.
        live batched_cols: u64;
        /// Largest blocked solve executed.
        live max_batch: usize;
        wire max_pending = |e, _| e.opts.max_pending as u64;
        /// Requests shed with `Busy` by admission control.
        live shed: u64;
        /// Requests that missed their deadline inside the service.
        live deadline_misses: u64;
        /// Panics caught and converted to structured errors.
        live panics_caught: u64;
        /// Threaded-executor failures served by the sequential fallback.
        live exec_fallbacks: u64;
        /// Requests rejected for NaN/Inf inputs.
        live nonfinite_rejected: u64;
        /// Solves that produced non-finite output (numeric breakdown).
        live breakdowns: u64;
        /// Worker threads respawned by the front-end supervisor.
        live worker_respawns: u64;
        /// Faults injected by the configured [`FaultPlan`].
        read faults_injected: u64 = |e| e.fault.injected();
        /// Factor-integrity verifications run by the `verify_every` cadence.
        live integrity_checks: u64;
        /// Corrupted cached factors detected, evicted, and refactored.
        live self_heals: u64;
        /// Certified solves (iterative refinement) answered successfully.
        live certified_solves: u64;
        /// Connections currently in service (gauge, not a counter).
        read connections_open: u64 = |e| e.front.conns_open.load(Ordering::Relaxed);
        /// Connections ever admitted into service.
        read connections_total: u64 = |e| e.front.conns_total.load(Ordering::Relaxed);
        /// Frames parsed while earlier requests on the same connection were
        /// still in flight (pipelining depth signal).
        read frames_pipelined: u64 = |e| e.front.frames_pipelined.load(Ordering::Relaxed);
        /// `LOAD`s answered from the resident cache without refactorization
        /// (checksum verified, full pipeline skipped).
        live load_hits: u64;
        /// Snapshot files committed by the persistence write-behind thread.
        read persist_writes: u64 = |e| e.store.as_ref().map_or(0, |s| s.writes());
        /// Snapshots loaded by the startup recovery scan.
        read persist_recovered: u64 = |e| e.store.as_ref().map_or(0, |s| s.recovered_count());
        /// Snapshot files the recovery scan unlinked (torn/corrupt/stale).
        read persist_dropped: u64 = |e| e.store.as_ref().map_or(0, |s| s.dropped_count());
        /// Solves (direct or certified) served on an `f32`-resident factor.
        live f32_solves: u64;
        /// Certified solves whose `f32` refinement stagnated and were
        /// transparently re-answered by an `f64` refactorization.
        live precision_fallbacks: u64;
        /// Factors demoted to `f32` at cache-insert time.
        live demoted_factors: u64;
        /// Frames rejected by the payload-checksum trailer (wire corruption
        /// caught before the request was parsed).
        read crc_rejects: u64 = |e| e.front.crc_rejects.load(Ordering::Relaxed);
    }
}

/// Factor-caching, micro-batching solve engine.
pub struct Engine {
    opts: EngineOptions,
    cache: FactorCache,
    fault: FaultPlan,
    store: Option<Arc<FactorStore>>,
    pending: AtomicUsize,
    counters: Counters,
    /// The front end's counters, reported through [`Engine::stats`].
    front: Arc<FrontStats>,
    /// Fingerprints promoted to permanent `f64` residency by the `auto`
    /// precision mode (their certified solves needed the fallback).
    promoted: Mutex<HashSet<Fingerprint>>,
}

/// RAII in-flight counter for admission control.
struct PendingGuard<'a>(&'a AtomicUsize);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Engine {
    /// A fresh engine with the given configuration and no fault injection.
    pub fn new(opts: EngineOptions) -> Engine {
        Engine::with_fault(opts, FaultPlan::none())
    }

    /// A fresh engine that trips the given fault plan at its `solve` and
    /// `factor` sites.
    pub fn with_fault(opts: EngineOptions, fault: FaultPlan) -> Engine {
        Engine::with_store(opts, fault, None)
    }

    /// A fresh engine backed by an optional crash-consistent factor store.
    /// When a store is given, its recovery scan has already classified the
    /// on-disk snapshots; every survivor is inserted into the cache here, so
    /// the engine starts warm — without re-running symbolic analysis *or*
    /// numeric factorization (only the solve plan and subtree schedule are
    /// recomputed, which DESIGN.md §12 guarantees is bit-identical).
    pub fn with_store(
        opts: EngineOptions,
        fault: FaultPlan,
        store: Option<Arc<FactorStore>>,
    ) -> Engine {
        let eng = Engine {
            opts,
            cache: FactorCache::new(opts.budget_bytes),
            fault,
            store,
            pending: AtomicUsize::new(0),
            counters: Counters::default(),
            front: Arc::default(),
            promoted: Mutex::new(HashSet::new()),
        };
        if let Some(store) = eng.store.clone() {
            // Warm restart: every snapshot that survived the recovery scan
            // becomes a resident cache entry. The entry's integrity checksum
            // is re-digested from the rebuilt factor, which the scan already
            // verified equals the persisted one.
            for rec in store.recover() {
                let entry = eng.entry(rec.fingerprint, rec.matrix, rec.solver);
                // A cache budget tighter than the disk budget can evict
                // while warming; keep disk and RAM coherent.
                for victim in eng.cache.insert(entry).evicted {
                    store.delete(victim);
                }
            }
        }
        eng
    }

    /// The engine configuration.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// The fault plan this engine trips (empty in production).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// Record a worker-thread respawn (called by the front-end supervisor
    /// so the count lands in `STATS`).
    pub fn note_worker_respawn(&self) {
        bump(&self.counters.worker_respawns, 1);
    }

    /// The counters the front end serving this engine writes to, so they
    /// land in `STATS`.
    pub fn front_stats(&self) -> &Arc<FrontStats> {
        &self.front
    }

    /// The backoff hint attached to `Busy` responses: two batching windows,
    /// floored at 1 ms — long enough for an in-flight batch to drain.
    pub fn retry_after_ms(&self) -> u64 {
        (self.opts.batch.window.as_millis() as u64 * 2).max(1)
    }

    /// The resolved threaded-executor width: the configured
    /// `solver_threads`, or `available_parallelism` when it is `0`.
    pub fn solver_threads(&self) -> usize {
        if self.opts.solver_threads == 0 {
            trisolv_core::default_threads()
        } else {
            self.opts.solver_threads
        }
    }

    /// The residency lane for a freshly factored matrix. `f32` and `auto`
    /// modes demote at insert time — except for fingerprints a prior
    /// certified-solve fallback has promoted to permanent `f64` residency.
    fn insert_lane(&self, fp: Fingerprint, solver: SparseCholeskySolver) -> SolverLane {
        if self.opts.precision.demotes() && !self.is_promoted(fp) {
            bump(&self.counters.demoted_factors, 1);
            SolverLane::F32(solver.demote())
        } else {
            SolverLane::F64(solver)
        }
    }

    /// A cache entry for the engine's executor width and batching policy.
    fn entry(
        &self,
        fp: Fingerprint,
        matrix: CscMatrix,
        solver: impl Into<SolverLane>,
    ) -> Arc<FactorEntry> {
        Arc::new(FactorEntry::new(
            fp,
            matrix,
            solver,
            self.solver_threads(),
            BatchLane::new(self.opts.batch),
        ))
    }

    /// Run `f` behind `catch_unwind`: a panic (a kernel bug, or an injected
    /// fault) becomes `Internal("{what} panicked: …")`, counted in
    /// `panics_caught`, instead of a dead worker.
    fn caught<T>(
        &self,
        what: &str,
        f: impl FnOnce() -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
            bump(&self.counters.panics_caught, 1);
            Err(EngineError::Internal(format!(
                "{what} panicked: {}",
                panic_message(&*payload)
            )))
        })
    }

    fn is_promoted(&self, fp: Fingerprint) -> bool {
        self.promoted.lock().unwrap().contains(&fp)
    }

    /// Precision fallback: a certified solve on an `f32`-resident factor
    /// stagnated short of its certificate. Refactor in `f64` from the
    /// retained matrix, swap the full-precision entry in (keeping the LRU
    /// position), and — in `auto` mode — pin the fingerprint so later
    /// re-loads never demote it again.
    fn promote(&self, bad: &FactorEntry) -> Result<Arc<FactorEntry>, EngineError> {
        let solver = self.caught("precision-fallback refactorization", || factor(&bad.matrix))?;
        let entry = self.entry(bad.fingerprint, bad.matrix.clone(), solver);
        self.cache.replace(Arc::clone(&entry));
        if self.opts.precision == PrecisionMode::Auto {
            self.promoted.lock().unwrap().insert(bad.fingerprint);
        }
        bump(&self.counters.precision_fallbacks, 1);
        if let Some(store) = &self.store {
            // the on-disk snapshot still holds the f32 payload; re-snapshot
            // the promoted factor so a restart keeps full precision
            store.save(Arc::clone(&entry));
        }
        Ok(entry)
    }

    /// Factor `a` and cache it under its content hash (idempotent: a
    /// resident matrix is not re-factored).
    pub fn load(&self, a: &CscMatrix) -> Result<LoadOutcome, EngineError> {
        if !a.values().iter().all(|v| v.is_finite()) {
            bump(&self.counters.nonfinite_rejected, 1);
            return Err(EngineError::NonFinite {
                what: "matrix values",
            });
        }
        let fingerprint = Fingerprint::of_matrix(a);
        if let Some(entry) = self.cache.peek(fingerprint) {
            // Fast path — and what makes router rejoin replay cheap: verify
            // the resident factor's checksum instead of re-running symbolic
            // analysis + numeric factorization. A failed check self-heals
            // before replying, so the OK still vouches for a good factor.
            let entry = if entry.verify() {
                entry
            } else {
                self.heal(&entry)?
            };
            bump(&self.counters.load_hits, 1);
            return Ok(LoadOutcome {
                fingerprint,
                n: entry.n,
                factor_nnz: entry.solver.factor_nnz(),
                already_cached: true,
            });
        }
        // The only factorization that trips the `factor` fault site.
        let solver = self.caught("factorization", || {
            self.fault.trip(FaultSite::Factor);
            factor(a)
        })?;
        let factor_nnz = solver.factor_matrix().nnz();
        let lane = self.insert_lane(fingerprint, solver);
        let entry = self.entry(fingerprint, a.clone(), lane);
        let n = entry.n;
        let admitted = self.cache.insert(Arc::clone(&entry));
        if let Some(store) = &self.store {
            if admitted.fresh {
                // write-behind: an Arc clone and a channel send; the disk
                // work happens on the store's writer thread
                store.save(entry);
            }
            for victim in &admitted.evicted {
                store.delete(*victim);
            }
        }
        Ok(LoadOutcome {
            fingerprint,
            n,
            factor_nnz,
            already_cached: !admitted.fresh,
        })
    }

    /// Solve `A·x = rhs` against the cached factor for `fp` with no
    /// deadline. Concurrent calls with the same fingerprint share blocked
    /// solves via the entry's [`BatchLane`].
    pub fn solve(&self, fp: Fingerprint, rhs: Vec<f64>) -> Result<Vec<f64>, EngineError> {
        self.solve_deadline(fp, rhs, None)
    }

    /// Solve with an optional end-to-end deadline. A request that cannot
    /// produce its answer by `deadline` comes back with
    /// [`EngineError::DeadlineExceeded`] instead of stalling its batch.
    pub fn solve_deadline(
        &self,
        fp: Fingerprint,
        rhs: Vec<f64>,
        deadline: Option<Instant>,
    ) -> Result<Vec<f64>, EngineError> {
        let out = self.solve_inner(fp, rhs, deadline);
        match &out {
            Ok(_) => {
                bump(&self.counters.solves_ok, 1);
            }
            Err(e) => self.note_solve_error(e),
        }
        out
    }

    /// Solve `A·x = rhs` with iterative refinement and return the solution
    /// together with its certificate (iterations, componentwise backward
    /// error, certified flag). Refinement is a per-request loop — each
    /// iterate depends on the previous residual — so it bypasses the batch
    /// lane and runs sequentially behind `catch_unwind`.
    pub fn solve_certified(
        &self,
        fp: Fingerprint,
        rhs: Vec<f64>,
        deadline: Option<Instant>,
    ) -> Result<CertifiedOutcome, EngineError> {
        let out = self.solve_certified_inner(fp, rhs, deadline);
        match &out {
            Ok(_) => {
                bump(&self.counters.solves_ok, 1);
                bump(&self.counters.certified_solves, 1);
            }
            Err(e) => self.note_solve_error(e),
        }
        out
    }

    /// Bump the per-cause failure counters for one failed solve.
    fn note_solve_error(&self, e: &EngineError) {
        match e {
            EngineError::Busy { .. } => bump(&self.counters.shed, 1),
            EngineError::DeadlineExceeded => bump(&self.counters.deadline_misses, 1),
            EngineError::NonFinite { .. } => bump(&self.counters.nonfinite_rejected, 1),
            EngineError::NumericBreakdown => bump(&self.counters.breakdowns, 1),
            _ => {}
        }
        bump(&self.counters.solves_err, 1);
    }

    /// The admission prologue both solve paths share, cheapest check first
    /// (shedding must be cheap precisely when the server is drowning):
    /// pending high-water mark, expired deadline, non-finite RHS, cache
    /// lookup with the integrity ladder, dimension check. The guard holds
    /// the request's in-flight slot until it is dropped.
    fn admit(
        &self,
        fp: Fingerprint,
        rhs: &[f64],
        deadline: Option<Instant>,
    ) -> Result<(PendingGuard<'_>, Arc<FactorEntry>), EngineError> {
        let in_flight = self.pending.fetch_add(1, Ordering::AcqRel);
        let guard = PendingGuard(&self.pending);
        if self.opts.max_pending > 0 && in_flight >= self.opts.max_pending {
            return Err(EngineError::Busy {
                retry_after_ms: self.retry_after_ms(),
            });
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(EngineError::DeadlineExceeded);
        }
        if !rhs.iter().all(|v| v.is_finite()) {
            return Err(EngineError::NonFinite { what: "rhs" });
        }
        let entry = self.checked_entry(fp)?;
        if rhs.len() != entry.n {
            return Err(EngineError::DimensionMismatch {
                expected: entry.n,
                got: rhs.len(),
            });
        }
        Ok((guard, entry))
    }

    fn solve_inner(
        &self,
        fp: Fingerprint,
        rhs: Vec<f64>,
        deadline: Option<Instant>,
    ) -> Result<Vec<f64>, EngineError> {
        let (_guard, entry) = self.admit(fp, &rhs, deadline)?;
        let exec_entry = Arc::clone(&entry);
        entry
            .lane
            .solve(rhs, deadline, move |batch| self.execute(&exec_entry, batch))
            .map_err(|e| match e {
                LaneError::Exec(inner) => inner,
                LaneError::Timeout => EngineError::Timeout,
                LaneError::Deadline => EngineError::DeadlineExceeded,
            })
    }

    fn solve_certified_inner(
        &self,
        fp: Fingerprint,
        rhs: Vec<f64>,
        deadline: Option<Instant>,
    ) -> Result<CertifiedOutcome, EngineError> {
        let (_guard, entry) = self.admit(fp, &rhs, deadline)?;
        let n = entry.n;
        // Lane dispatch behind one catch_unwind shape: the f64 lane runs
        // classic refinement, the f32 lane runs the mixed-precision driver
        // (f32 correction solves, f64 residuals against the retained
        // matrix).
        let run_refine = |e: &FactorEntry| -> Result<(DenseMatrix, SolveReport), EngineError> {
            self.caught("certified solve", || {
                let mut b = DenseMatrix::zeros(n, 1);
                b.col_mut(0).copy_from_slice(&rhs);
                let opts = trisolv_core::RefineOptions::default();
                match &e.solver {
                    SolverLane::F64(s) => trisolv_core::refine::refine(s, &e.matrix, &b, &opts),
                    SolverLane::F32(s) => trisolv_core::refine::refine(s, &e.matrix, &b, &opts),
                }
                .map_err(|e| EngineError::Internal(format!("refinement failed: {e}")))
            })
        };
        let was_f32 = entry.solver.is_f32();
        let (x, report) = run_refine(&entry)?;
        let (x, report) = if was_f32 && !report.certified {
            // The narrow factor cannot carry refinement to the certificate
            // (κ(A)·ε_f32 ≳ 1). Fall back: refactor in f64 and re-answer.
            // Counted, transparent, never an error.
            let promoted = self.promote(&entry)?;
            run_refine(&promoted)?
        } else {
            if was_f32 {
                bump(&self.counters.f32_solves, 1);
            }
            (x, report)
        };
        // The refinement loop ran to completion; a deadline that expired
        // while it was running still counts as a miss.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(EngineError::DeadlineExceeded);
        }
        let xcol = x.col(0).to_vec();
        if !xcol.iter().all(|v| v.is_finite()) {
            return Err(EngineError::NumericBreakdown);
        }
        Ok(CertifiedOutcome {
            x: xcol,
            iterations: report.iterations as u32,
            backward_error: report.backward_error,
            certified: report.certified,
        })
    }

    /// Cache lookup plus the integrity ladder: trip the `cache.torn` fault
    /// (which silently corrupts the resident factor while keeping its
    /// original checksum), then on the configured cadence re-digest the
    /// factor values and self-heal on mismatch.
    fn checked_entry(&self, fp: Fingerprint) -> Result<Arc<FactorEntry>, EngineError> {
        let mut entry = self
            .cache
            .get(fp)
            .ok_or(EngineError::UnknownFingerprint(fp))?;
        if self.fault.trip(FaultSite::Cache) == Some(FaultAction::Torn) {
            let bad = Arc::new(
                entry.corrupted_clone(self.solver_threads(), BatchLane::new(self.opts.batch)),
            );
            self.cache.replace(Arc::clone(&bad));
            entry = bad;
        }
        let cadence = self.opts.verify_every;
        if cadence > 0 && entry.note_solve() % cadence == 0 {
            bump(&self.counters.integrity_checks, 1);
            if !entry.verify() {
                entry = self.heal(&entry)?;
            }
        }
        Ok(entry)
    }

    /// Self-healing: the resident factor for `bad.fingerprint` failed its
    /// integrity check. Refactor from the retained original matrix — the
    /// factorization pipeline is deterministic, so the rebuilt factor is
    /// bit-identical to the one originally inserted — and swap it in
    /// without perturbing the entry's LRU position.
    fn heal(&self, bad: &FactorEntry) -> Result<Arc<FactorEntry>, EngineError> {
        let solver = self.caught("self-heal refactorization", || factor(&bad.matrix))?;
        // Heal back into the lane the entry occupied: a corrupted f32
        // resident comes back as a freshly demoted copy of the (bit-wise
        // reproducible) f64 refactorization.
        let lane = if bad.solver.is_f32() {
            SolverLane::F32(solver.demote())
        } else {
            SolverLane::F64(solver)
        };
        let entry = self.entry(bad.fingerprint, bad.matrix.clone(), lane);
        self.cache.replace(Arc::clone(&entry));
        bump(&self.counters.self_heals, 1);
        if let Some(store) = &self.store {
            // the on-disk snapshot may be the corrupted copy (or missing);
            // re-snapshot the healed factor
            store.save(Arc::clone(&entry));
        }
        Ok(entry)
    }

    /// Run one blocked solve for a sealed batch (leader thread only).
    /// A panic in the threaded executor (including injected `solve.panic`
    /// faults) is caught and the batch re-runs on the sequential executor;
    /// only a second panic surfaces as `ERR Internal`.
    fn execute(
        &self,
        entry: &FactorEntry,
        batch: Vec<Vec<f64>>,
    ) -> Result<Vec<Vec<f64>>, EngineError> {
        let k = batch.len();
        bump(&self.counters.batches, 1);
        bump(&self.counters.batched_cols, k as u64);
        self.counters
            .max_batch
            .fetch_max(k as u64, Ordering::Relaxed);
        let cols = match self.opts.exec {
            ExecMode::Seq => self.execute_seq_caught(entry, &batch)?,
            ExecMode::Threaded => {
                let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
                    self.fault.trip(FaultSite::Solve);
                    self.execute_threaded(entry, &batch)
                }));
                match attempt {
                    Ok(cols) => cols,
                    Err(_) => {
                        // Degradation ladder: threaded panicked → answer
                        // this batch on the sequential executor instead of
                        // failing every rider.
                        bump(&self.counters.panics_caught, 1);
                        bump(&self.counters.exec_fallbacks, 1);
                        self.execute_seq_caught(entry, &batch)?
                    }
                }
            }
        };
        if cols.iter().any(|c| !c.iter().all(|v| v.is_finite())) {
            return Err(EngineError::NumericBreakdown);
        }
        if entry.solver.is_f32() {
            bump(&self.counters.f32_solves, k as u64);
        }
        Ok(cols)
    }

    /// The sequential executor behind `catch_unwind`: the last rung of the
    /// ladder before a structured internal error.
    fn execute_seq_caught(
        &self,
        entry: &FactorEntry,
        batch: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, EngineError> {
        let n = entry.n;
        let k = batch.len();
        self.caught("sequential solve", || {
            let mut b = DenseMatrix::zeros(n, k);
            for (c, col) in batch.iter().enumerate() {
                b.col_mut(c).copy_from_slice(col);
            }
            let x = entry.solver.solve(&b);
            Ok((0..k).map(|c| x.col(c).to_vec()).collect())
        })
    }

    /// The threaded blocked solve (may panic; callers catch).
    fn execute_threaded(&self, entry: &FactorEntry, batch: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let n = entry.n;
        let k = batch.len();
        // Permute each column into the factor's index space
        // (pb[perm(i)] = b[i]), exactly as `solver.solve` does.
        let perm = entry.solver.perm();
        let mut pb = DenseMatrix::zeros(n, k);
        for (c, col) in batch.iter().enumerate() {
            let dst = pb.col_mut(c);
            for i in 0..n {
                dst[perm.apply(i)] = col[i];
            }
        }
        let px = match &entry.solver {
            SolverLane::F64(s) => solve_threaded(s, &entry.schedule, &entry.workspaces, &pb),
            SolverLane::F32(s) => solve_threaded(s, &entry.schedule, &entry.workspaces32, &pb),
        };
        // Unpermute into fresh output columns.
        let mut out = vec![vec![0.0f64; n]; k];
        for (c, col) in out.iter_mut().enumerate() {
            let src = px.col(c);
            for (i, v) in col.iter_mut().enumerate() {
                *v = src[perm.apply(i)];
            }
        }
        out
    }

    /// Drop a cached factor (and its on-disk snapshot, when persistence is
    /// on). Returns whether it was resident.
    pub fn evict(&self, fp: Fingerprint) -> bool {
        if let Some(store) = &self.store {
            store.delete(fp);
        }
        self.cache.evict(fp)
    }

    /// The persistence store, when configured.
    pub fn store(&self) -> Option<&Arc<FactorStore>> {
        self.store.as_ref()
    }

    /// Block until every queued snapshot write/delete has been applied.
    /// Called on graceful shutdown so a SIGTERM cannot strand a pending
    /// snapshot. No-op (`true`) without a store.
    pub fn flush_store(&self, timeout: Duration) -> bool {
        match &self.store {
            Some(store) => store.flush(timeout),
            None => true,
        }
    }

    /// True when every resident lane holds no in-flight state (no boarding
    /// columns, sealed batches, unclaimed results, or abandoned claims).
    /// The chaos soak asserts this after draining all clients.
    pub fn lanes_quiescent(&self) -> bool {
        self.cache.entries().iter().all(|e| e.lane.is_quiescent())
    }

    /// The batching window currently configured (used by the front end to
    /// derive per-request socket timeouts).
    pub fn batch_window(&self) -> Duration {
        self.opts.batch.window
    }
}

/// Factor `a` in `f64`; a non-SPD matrix is a structured error.
fn factor(a: &CscMatrix) -> Result<SparseCholeskySolver, EngineError> {
    SparseCholeskySolver::factor(a).map_err(|e| EngineError::NotSpd(e.to_string()))
}

/// One threaded forward + backward solve of the permuted block `pb` on
/// either lane, through a workspace from that lane's pool.
fn solve_threaded<F: FactorBlocks>(
    s: &SparseCholeskySolver<F>,
    schedule: &SubtreeSchedule,
    pool: &WorkspacePool<F::S>,
    pb: &DenseMatrix,
) -> DenseMatrix {
    let solver = ThreadedSolver::with_plan_schedule(s.factor_matrix(), s.plan(), schedule);
    let mut ws = pool.take(s.plan(), pb.ncols());
    let px = solver.forward_backward_with(pb, &mut ws);
    pool.put(ws);
    px
}

/// Best-effort human-readable panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolv_matrix::gen;

    fn opts(exec: ExecMode, max_batch: usize) -> EngineOptions {
        EngineOptions {
            exec,
            batch: BatchOptions {
                max_batch,
                window: Duration::from_millis(1),
                wait_timeout: Duration::from_secs(10),
            },
            ..EngineOptions::default()
        }
    }

    fn engine(exec: ExecMode, max_batch: usize) -> Engine {
        Engine::new(opts(exec, max_batch))
    }

    #[test]
    fn load_solve_round_trip_both_modes() {
        for exec in [ExecMode::Seq, ExecMode::Threaded] {
            let eng = engine(exec, 4);
            let a = gen::grid2d_laplacian(8, 8);
            let out = eng.load(&a).unwrap();
            assert!(!out.already_cached);
            assert_eq!(out.n, 64);
            let again = eng.load(&a).unwrap();
            assert!(again.already_cached);
            assert_eq!(again.fingerprint, out.fingerprint);

            let b = gen::random_rhs(64, 1, 9);
            let x = eng.solve(out.fingerprint, b.col(0).to_vec()).unwrap();
            // residual against the original matrix
            let mut xm = DenseMatrix::zeros(64, 1);
            xm.col_mut(0).copy_from_slice(&x);
            let ax = a.spmv_sym_lower(&xm).unwrap();
            assert!(ax.max_abs_diff(&b).unwrap() < 1e-10, "{exec:?}");
            let s = eng.stats();
            assert_eq!(s.solves_ok, 1);
            assert_eq!(s.batches, 1);
            assert!(eng.lanes_quiescent());
        }
    }

    #[test]
    fn dimension_mismatch_is_structured() {
        let eng = engine(ExecMode::Threaded, 4);
        let a = gen::grid2d_laplacian(6, 6);
        let fp = eng.load(&a).unwrap().fingerprint;
        let err = eng.solve(fp, vec![1.0; 35]).unwrap_err();
        assert_eq!(
            err,
            EngineError::DimensionMismatch {
                expected: 36,
                got: 35
            }
        );
        let err = eng.solve(fp, Vec::new()).unwrap_err();
        assert_eq!(
            err,
            EngineError::DimensionMismatch {
                expected: 36,
                got: 0
            }
        );
        assert_eq!(eng.stats().solves_err, 2);
    }

    #[test]
    fn unknown_fingerprint_and_evict() {
        let eng = engine(ExecMode::Threaded, 1);
        let fp = Fingerprint(1, 2);
        assert_eq!(
            eng.solve(fp, vec![0.0]).unwrap_err(),
            EngineError::UnknownFingerprint(fp)
        );
        let a = gen::grid2d_laplacian(5, 5);
        let loaded = eng.load(&a).unwrap();
        assert!(eng.evict(loaded.fingerprint));
        assert!(!eng.evict(loaded.fingerprint));
        assert!(matches!(
            eng.solve(loaded.fingerprint, vec![0.0; 25]).unwrap_err(),
            EngineError::UnknownFingerprint(_)
        ));
    }

    #[test]
    fn non_spd_matrix_is_rejected() {
        // -identity is symmetric but not positive definite
        let n = 8;
        let colptr: Vec<usize> = (0..=n).collect();
        let rowidx: Vec<usize> = (0..n).collect();
        let a = CscMatrix::from_parts(n, n, colptr, rowidx, vec![-1.0; n]).unwrap();
        let eng = engine(ExecMode::Threaded, 1);
        assert!(matches!(eng.load(&a).unwrap_err(), EngineError::NotSpd(_)));
    }

    #[test]
    fn nonfinite_inputs_rejected_at_the_boundary() {
        let eng = engine(ExecMode::Threaded, 1);
        // NaN in the matrix values
        let n = 4;
        let colptr: Vec<usize> = (0..=n).collect();
        let rowidx: Vec<usize> = (0..n).collect();
        let mut vals = vec![2.0; n];
        vals[2] = f64::NAN;
        let a = CscMatrix::from_parts(n, n, colptr, rowidx, vals).unwrap();
        assert_eq!(
            eng.load(&a).unwrap_err(),
            EngineError::NonFinite {
                what: "matrix values"
            }
        );
        // Inf in the RHS
        let good = gen::grid2d_laplacian(4, 4);
        let fp = eng.load(&good).unwrap().fingerprint;
        let mut rhs = vec![1.0; 16];
        rhs[7] = f64::INFINITY;
        assert_eq!(
            eng.solve(fp, rhs).unwrap_err(),
            EngineError::NonFinite { what: "rhs" }
        );
        let s = eng.stats();
        assert_eq!(s.nonfinite_rejected, 2);
    }

    #[test]
    fn numeric_breakdown_is_detected_in_the_output() {
        // Subnormal diagonal: factorization succeeds (sqrt of a positive
        // subnormal is a normal float) but x = b/a overflows to +inf.
        let n = 2;
        let colptr: Vec<usize> = (0..=n).collect();
        let rowidx: Vec<usize> = (0..n).collect();
        let a = CscMatrix::from_parts(n, n, colptr, rowidx, vec![1e-310; n]).unwrap();
        for exec in [ExecMode::Seq, ExecMode::Threaded] {
            let eng = engine(exec, 1);
            let fp = eng.load(&a).unwrap().fingerprint;
            let err = eng.solve(fp, vec![1.0; n]).unwrap_err();
            assert_eq!(err, EngineError::NumericBreakdown, "{exec:?}");
            assert_eq!(eng.stats().breakdowns, 1);
        }
    }

    #[test]
    fn admission_control_sheds_over_the_high_water_mark() {
        let eng = Engine::new(EngineOptions {
            max_pending: 2,
            ..opts(ExecMode::Seq, 1)
        });
        // Saturate the pending counter by hand (as if 2 requests were
        // parked in the batcher), then observe the third being shed.
        eng.pending.store(2, Ordering::SeqCst);
        let a = gen::grid2d_laplacian(4, 4);
        let fp = {
            // load is not admission-controlled
            eng.load(&a).unwrap().fingerprint
        };
        let err = eng.solve(fp, vec![1.0; 16]).unwrap_err();
        match err {
            EngineError::Busy { retry_after_ms } => assert!(retry_after_ms >= 1),
            other => panic!("expected Busy, got {other:?}"),
        }
        assert_eq!(eng.stats().shed, 1);
        // Back under the mark, the same request succeeds.
        eng.pending.store(0, Ordering::SeqCst);
        assert!(eng.solve(fp, vec![1.0; 16]).is_ok());
    }

    #[test]
    fn expired_deadline_is_rejected_before_boarding() {
        let eng = engine(ExecMode::Seq, 4);
        let a = gen::grid2d_laplacian(4, 4);
        let fp = eng.load(&a).unwrap().fingerprint;
        let past = Instant::now() - Duration::from_millis(1);
        let err = eng
            .solve_deadline(fp, vec![1.0; 16], Some(past))
            .unwrap_err();
        assert_eq!(err, EngineError::DeadlineExceeded);
        assert_eq!(eng.stats().deadline_misses, 1);
        // a generous deadline sails through
        let future = Instant::now() + Duration::from_secs(30);
        assert!(eng.solve_deadline(fp, vec![1.0; 16], Some(future)).is_ok());
    }

    #[test]
    fn injected_solve_panic_falls_back_to_seq() {
        let fault = FaultPlan::parse("solve.panic=every:1").unwrap();
        let eng = Engine::with_fault(opts(ExecMode::Threaded, 1), fault);
        let a = gen::grid2d_laplacian(6, 6);
        let fp = eng.load(&a).unwrap().fingerprint;
        let reference = SparseCholeskySolver::factor(&a).unwrap();
        let b = gen::random_rhs(36, 1, 3);
        // every solve panics in the threaded branch; the seq fallback must
        // answer bit-identically to the reference sequential solver
        let x = eng.solve(fp, b.col(0).to_vec()).unwrap();
        assert_eq!(x.as_slice(), reference.solve(&b).col(0));
        let s = eng.stats();
        assert_eq!(s.solves_ok, 1);
        assert!(s.panics_caught >= 1);
        assert_eq!(s.exec_fallbacks, 1);
        assert!(s.faults_injected >= 1);
    }

    #[test]
    fn certified_solve_reports_backward_error() {
        let eng = engine(ExecMode::Threaded, 4);
        let a = gen::grid2d_laplacian(8, 8);
        let fp = eng.load(&a).unwrap().fingerprint;
        let b = gen::random_rhs(64, 1, 17);
        let out = eng.solve_certified(fp, b.col(0).to_vec(), None).unwrap();
        assert!(out.certified, "well-conditioned solve must certify");
        assert!(out.backward_error <= 1e-10, "{}", out.backward_error);
        assert_eq!(out.x.len(), 64);
        let s = eng.stats();
        assert_eq!(s.certified_solves, 1);
        assert_eq!(s.solves_ok, 1);
        // structured errors still apply on the certified path
        let err = eng.solve_certified(fp, vec![1.0; 63], None).unwrap_err();
        assert!(matches!(err, EngineError::DimensionMismatch { .. }));
        let err = eng
            .solve_certified(Fingerprint(7, 7), vec![0.0; 64], None)
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownFingerprint(_)));
        assert_eq!(eng.stats().certified_solves, 1);
    }

    #[test]
    fn corrupted_cached_factor_is_detected_and_healed() {
        // Fault: corrupt the resident factor on the 2nd cache lookup.
        // Cadence: verify on every solve. The corrupted solve must be
        // detected, healed, and answered bit-identically to a fresh
        // sequential solver on the same inputs.
        let fault = FaultPlan::parse("cache.torn=every:2").unwrap();
        let eng = Engine::with_fault(
            EngineOptions {
                verify_every: 1,
                ..opts(ExecMode::Threaded, 1)
            },
            fault,
        );
        let a = gen::grid2d_laplacian(9, 9);
        let fp = eng.load(&a).unwrap().fingerprint;
        let reference = SparseCholeskySolver::factor(&a).unwrap();
        let b = gen::random_rhs(81, 1, 21);
        let expect = reference.solve(&b).col(0).to_vec();

        let clean = eng.solve(fp, b.col(0).to_vec()).unwrap();
        assert_eq!(clean, expect, "uncorrupted solve is bit-identical");
        let healed = eng.solve(fp, b.col(0).to_vec()).unwrap();
        assert_eq!(healed, expect, "self-healed solve is bit-identical");
        let s = eng.stats();
        assert_eq!(s.self_heals, 1, "exactly one heal: {s:?}");
        assert!(s.integrity_checks >= 2);
        assert!(s.faults_injected >= 1);
        assert_eq!(s.solves_ok, 2);
        // After the heal, the resident entry verifies again.
        let entry = eng.cache.peek(fp).unwrap();
        assert!(entry.verify());
    }

    #[test]
    fn verify_cadence_zero_skips_integrity_checks() {
        // With the cadence disabled, even a corrupted factor goes unnoticed
        // (and un-healed) — the check must cost nothing when off.
        let fault = FaultPlan::parse("cache.torn=every:1").unwrap();
        let eng = Engine::with_fault(
            EngineOptions {
                verify_every: 0,
                ..opts(ExecMode::Seq, 1)
            },
            fault,
        );
        let a = gen::grid2d_laplacian(5, 5);
        let fp = eng.load(&a).unwrap().fingerprint;
        let b = gen::random_rhs(25, 1, 4);
        eng.solve(fp, b.col(0).to_vec()).unwrap();
        let s = eng.stats();
        assert_eq!(s.integrity_checks, 0);
        assert_eq!(s.self_heals, 0);
        assert!(!eng.cache.peek(fp).unwrap().verify(), "corruption persists");
    }

    #[test]
    fn injected_factor_panic_is_structured() {
        let fault = FaultPlan::parse("factor.panic=every:1").unwrap();
        let eng = Engine::with_fault(EngineOptions::default(), fault);
        let a = gen::grid2d_laplacian(5, 5);
        let err = eng.load(&a).unwrap_err();
        assert!(
            matches!(&err, EngineError::Internal(m) if m.contains("panicked: injected fault")),
            "{err:?}"
        );
        assert_eq!(eng.stats().panics_caught, 1);
    }

    fn precision_engine(exec: ExecMode, precision: PrecisionMode) -> Engine {
        Engine::new(EngineOptions {
            precision,
            ..opts(exec, 2)
        })
    }

    #[test]
    fn f32_mode_demotes_at_insert_and_serves_plain_solves() {
        for exec in [ExecMode::Seq, ExecMode::Threaded] {
            let eng = precision_engine(exec, PrecisionMode::F32);
            let a = gen::grid2d_laplacian(10, 10);
            let fp = eng.load(&a).unwrap().fingerprint;
            let entry = eng.cache.peek(fp).unwrap();
            assert!(entry.solver.is_f32(), "{exec:?}");
            assert!(entry.verify(), "f32 digest matches at insert");
            let b = gen::random_rhs(100, 1, 11);
            let x = eng.solve(fp, b.col(0).to_vec()).unwrap();
            let mut xm = DenseMatrix::zeros(100, 1);
            xm.col_mut(0).copy_from_slice(&x);
            let ax = a.spmv_sym_lower(&xm).unwrap();
            // a direct f32 solve carries f32 accuracy, nothing better
            let resid = ax.max_abs_diff(&b).unwrap() / b.norm_max().max(1.0);
            assert!(resid < 1e-3, "{exec:?}: {resid:e}");
            let s = eng.stats();
            assert_eq!(s.demoted_factors, 1, "{exec:?}");
            assert_eq!(s.f32_solves, 1, "{exec:?}");
            assert_eq!(s.precision_fallbacks, 0, "{exec:?}");
        }
    }

    #[test]
    fn f32_certified_solve_certifies_well_conditioned_systems() {
        let eng = precision_engine(ExecMode::Threaded, PrecisionMode::F32);
        let a = gen::grid2d_laplacian(10, 10);
        let fp = eng.load(&a).unwrap().fingerprint;
        let b = gen::random_rhs(100, 1, 5);
        let out = eng.solve_certified(fp, b.col(0).to_vec(), None).unwrap();
        assert!(out.certified);
        assert!(out.backward_error <= 1e-10, "{:e}", out.backward_error);
        let s = eng.stats();
        assert_eq!(s.precision_fallbacks, 0);
        assert_eq!(s.f32_solves, 1);
        assert!(eng.cache.peek(fp).unwrap().solver.is_f32(), "stays narrow");
    }

    #[test]
    fn auto_mode_fallback_promotes_the_fingerprint_permanently() {
        let eng = precision_engine(ExecMode::Threaded, PrecisionMode::Auto);
        // Near-singular: smallest eigenvalue 1e-12, so κ(A)·ε_f32 ≫ 1 and
        // the narrow lane must stagnate; f64 refinement still converges.
        let a = gen::rank_deficient_grid(12, 12, 1e-12);
        let fp = eng.load(&a).unwrap().fingerprint;
        assert_eq!(eng.stats().demoted_factors, 1);
        assert!(eng.cache.peek(fp).unwrap().solver.is_f32());
        let b = gen::random_rhs(144, 1, 5);
        let out = eng.solve_certified(fp, b.col(0).to_vec(), None).unwrap();
        assert!(out.certified, "the fallback answer must still certify");
        let s = eng.stats();
        assert_eq!(s.precision_fallbacks, 1);
        assert_eq!(
            s.f32_solves, 0,
            "the abandoned f32 attempt is not a solve served"
        );
        assert!(
            !eng.cache.peek(fp).unwrap().solver.is_f32(),
            "the resident entry was promoted to f64"
        );
        // A promoted fingerprint never demotes again, even through evict +
        // re-load...
        assert!(eng.evict(fp));
        let again = eng.load(&a).unwrap();
        assert!(!again.already_cached);
        assert_eq!(eng.stats().demoted_factors, 1, "no second demotion");
        assert!(!eng.cache.peek(fp).unwrap().solver.is_f32());
        // ...and its certified solves no longer need the fallback.
        let out2 = eng.solve_certified(fp, b.col(0).to_vec(), None).unwrap();
        assert!(out2.certified);
        assert_eq!(eng.stats().precision_fallbacks, 1);
    }

    #[test]
    fn f32_mode_without_auto_demotes_again_after_fallback_eviction() {
        // Forced-f32 mode answers the hard system correctly through the
        // fallback, but does not pin the fingerprint: residency policy is
        // the user's call, correctness is not.
        let eng = precision_engine(ExecMode::Threaded, PrecisionMode::F32);
        let a = gen::rank_deficient_grid(12, 12, 1e-12);
        let fp = eng.load(&a).unwrap().fingerprint;
        let b = gen::random_rhs(144, 1, 5);
        let out = eng.solve_certified(fp, b.col(0).to_vec(), None).unwrap();
        assert!(out.certified);
        assert_eq!(eng.stats().precision_fallbacks, 1);
        assert!(eng.evict(fp));
        eng.load(&a).unwrap();
        assert_eq!(eng.stats().demoted_factors, 2, "f32 mode demotes again");
        assert!(eng.cache.peek(fp).unwrap().solver.is_f32());
    }

    #[test]
    fn corrupted_f32_factor_heals_back_into_the_narrow_lane() {
        let fault = FaultPlan::parse("cache.torn=every:2").unwrap();
        let eng = Engine::with_fault(
            EngineOptions {
                precision: PrecisionMode::F32,
                verify_every: 1,
                ..opts(ExecMode::Threaded, 1)
            },
            fault,
        );
        let a = gen::grid2d_laplacian(9, 9);
        let fp = eng.load(&a).unwrap().fingerprint;
        // reference: a fresh f64 factor demoted the same way
        let expect = {
            let solver32 = SparseCholeskySolver::factor(&a).unwrap().demote();
            let b = gen::random_rhs(81, 1, 21);
            solver32.solve(&b).col(0).to_vec()
        };
        let b = gen::random_rhs(81, 1, 21);
        let clean = eng.solve(fp, b.col(0).to_vec()).unwrap();
        assert_eq!(clean, expect, "uncorrupted f32 solve is bit-identical");
        let healed = eng.solve(fp, b.col(0).to_vec()).unwrap();
        assert_eq!(healed, expect, "healed f32 solve is bit-identical");
        let s = eng.stats();
        assert_eq!(s.self_heals, 1);
        let entry = eng.cache.peek(fp).unwrap();
        assert!(entry.solver.is_f32(), "heal preserved the resident lane");
        assert!(entry.verify());
    }
}
