//! Shared-memory parallel triangular solves (extension, not part of the
//! paper reproduction path).
//!
//! A modern counterpart to the paper's distributed-memory algorithms.
//! The paper's core observation — triangular solves perform so few flops
//! that scheduling and memory overhead dominate — drives the design, and
//! its remedy (subtree-to-subcube mapping) has a direct thread-level
//! analogue implemented here:
//!
//! * a [`SubtreeSchedule`] cuts the elimination forest at a cost-balanced
//!   frontier and bin-packs the disjoint subtrees below the cut onto the
//!   worker slots; each subtree executes as ONE sequential task with no
//!   atomics, queue operations, or wakeups inside it, writing into a
//!   per-slot arena that no other thread touches;
//! * only the few supernodes *above* the cut go through fine-grained
//!   dependency dispatch: per-thread ready lists fed by atomic dependency
//!   counters, with spin-then-park idling instead of a global
//!   mutex + condvar round-trip per supernode;
//! * an effectively serial schedule (one task holding every supernode,
//!   as built for one worker or a single supernode) skips the pool and
//!   runs the sequential solver's own forward and backward sweeps through
//!   the workspace's one arena;
//! * every intermediate lives in a reusable [`SolveWorkspace`], so
//!   repeated solves against one factor allocate only their output.
//!
//! This module decides only *where* and *in what order* supernodes run.
//! What one supernode computes — gather, children extend-added in
//! ascending order, triangle, rectangle, blocked over all right-hand
//! sides — is the crate's one shared per-supernode body, the same one
//! [`crate::seq`] calls, so results are bit-identical to the sequential
//! solver for any `nthreads` and either storage lane.

use std::borrow::Cow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use trisolv_factor::{FScalar, FactorBlocks, SupernodalFactor};
use trisolv_matrix::DenseMatrix;

use crate::sweep;

pub use crate::plan::{PlanError, SolvePlan, SubtreeSchedule};

/// Sentinel for "not assigned to any slot arena".
const NONE: usize = usize::MAX;

/// Consecutive empty scans before a worker parks instead of spinning.
const SPIN_ROUNDS: u32 = 64;

/// Lock a workspace mutex, recovering from poison. Every task starts by
/// clearing and resizing its buffer, so data left behind by a panicked
/// task is never observed — inheriting a poisoned guard is safe, and it
/// keeps a pooled workspace usable after a caught panic instead of
/// cascading `unwrap` failures through every later solve.
fn lock_ws<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One slot's private working storage: a contiguous arena holding the
/// working vectors of every supernode in the slot's subtree tasks, plus a
/// scratch block for the widest top-copy / below-gather either pass needs.
/// Only the owning worker thread ever touches it. Stored in the factor's
/// scalar — the narrow lane's intermediates stay narrow.
struct Arena<S: FScalar> {
    buf: Vec<S>,
    rows: usize,
    scratch: Vec<S>,
    max_h: usize,
}

/// A dispatch unit: a whole subtree task, or one supernode above the cut.
#[derive(Clone, Copy)]
enum Unit {
    Task(usize),
    Top(usize),
}

/// Reusable per-factor solve buffers. Subtree-task supernodes live in
/// per-slot arenas (no locks); supernodes above the cut — and subtree
/// roots handing their update across threads — use mutex-guarded shared
/// buffers, uncontended except for brief child reads at gather time.
/// Repeated solves through one workspace do not allocate.
///
/// Generic over the factor's storage scalar (default `f64`); an `f32`
/// factor's workspace holds `f32` buffers — the whole solve's working set
/// halves along with the factor.
pub struct SolveWorkspace<S: FScalar = f64> {
    nrhs: usize,
    /// Thread count of the schedule the arena layout was built for
    /// (`0` = not built yet). Schedules are deterministic per
    /// `(plan, nthreads)`, so this is the only cache key needed.
    sched_threads: usize,
    bufs: Vec<Mutex<Vec<S>>>,
    /// Dependency counters for dispatch units (subtree tasks first, then
    /// top supernodes).
    deps: Vec<AtomicUsize>,
    /// Per-slot ready lists for subtree tasks: anyone may push, only the
    /// owning worker pops (its arena is single-owner).
    task_ready: Vec<Mutex<Vec<usize>>>,
    /// Per-worker ready lists for top units; idle workers steal from any.
    top_ready: Vec<Mutex<Vec<usize>>>,
    arenas: Vec<Arena<S>>,
    /// Row offset of each supernode inside its slot arena (`NONE` on top).
    arena_off: Vec<usize>,
    /// Slot owning each supernode's arena region (`NONE` on top).
    arena_slot: Vec<usize>,
}

impl<S: FScalar> SolveWorkspace<S> {
    /// Build a workspace for solves with up to `nrhs` right-hand sides.
    /// Arena layout is derived from the solver's schedule on first use.
    pub fn new(plan: &SolvePlan, nrhs: usize) -> SolveWorkspace<S> {
        SolveWorkspace {
            nrhs,
            sched_threads: 0,
            bufs: (0..plan.nsup()).map(|_| Mutex::new(Vec::new())).collect(),
            deps: Vec::new(),
            task_ready: Vec::new(),
            top_ready: Vec::new(),
            arenas: Vec::new(),
            arena_off: Vec::new(),
            arena_slot: Vec::new(),
        }
    }

    /// Grow the workspace if `nrhs` exceeds the constructed width (the
    /// only case where a solve through this workspace reallocates).
    fn ensure(&mut self, plan: &SolvePlan, nrhs: usize) {
        assert_eq!(self.bufs.len(), plan.nsup(), "workspace/plan mismatch");
        if nrhs <= self.nrhs {
            return;
        }
        self.nrhs = nrhs;
        for a in &mut self.arenas {
            a.buf.clear();
            a.buf.resize(a.rows * nrhs, S::ZERO);
            a.scratch.clear();
            a.scratch.resize(a.max_h * nrhs, S::ZERO);
        }
    }

    /// (Re)build the arena layout for `sched`. Cached on the schedule's
    /// thread count — schedules are deterministic, so two solvers over the
    /// same plan with the same thread count share one layout.
    fn ensure_schedule(&mut self, plan: &SolvePlan, sched: &SubtreeSchedule) {
        let t = sched.nthreads();
        if self.sched_threads == t {
            return;
        }
        let nsup = plan.nsup();
        self.arena_off = vec![NONE; nsup];
        self.arena_slot = vec![NONE; nsup];
        self.arenas.clear();
        for i in 0..t {
            let mut rows = 0usize;
            let mut max_h = 0usize;
            for &task in sched.slot(i) {
                for &s in sched.task(task) {
                    self.arena_off[s] = rows;
                    self.arena_slot[s] = i;
                    rows += plan.height(s);
                    max_h = max_h.max(plan.height(s));
                }
            }
            self.arenas.push(Arena {
                buf: vec![S::ZERO; rows * self.nrhs],
                rows,
                scratch: vec![S::ZERO; max_h * self.nrhs],
                max_h,
            });
        }
        let units = sched.n_tasks() + sched.top().len();
        self.deps = (0..units).map(|_| AtomicUsize::new(0)).collect();
        self.task_ready = (0..t).map(|_| Mutex::new(Vec::new())).collect();
        self.top_ready = (0..t).map(|_| Mutex::new(Vec::new())).collect();
        self.sched_threads = t;
    }
}

/// The default executor width: `std::thread::available_parallelism`,
/// falling back to 1 when the parallelism cannot be queried.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Subtree-mapped shared-memory solver over one supernodal factor.
///
/// Construction validates the factor's structure and precomputes both the
/// [`SolvePlan`] and the [`SubtreeSchedule`];
/// [`forward`](ThreadedSolver::forward) /
/// [`backward`](ThreadedSolver::backward) then run allocation-free
/// (modulo their output) through a caller-held [`SolveWorkspace`].
///
/// Generic over the factor representation (default: the `f64`
/// [`SupernodalFactor`]); instantiating with `SupernodalFactorF32` gives
/// the mixed-precision solve lane the same subtree-mapped executor with
/// `f32` arenas. Per-supernode operation order is precision-independent,
/// so each lane stays bit-identical to its sequential counterpart at any
/// thread count.
pub struct ThreadedSolver<'f, F: FactorBlocks = SupernodalFactor> {
    factor: &'f F,
    plan: Cow<'f, SolvePlan>,
    schedule: Cow<'f, SubtreeSchedule>,
}

impl<'f, F: FactorBlocks> ThreadedSolver<'f, F> {
    /// Plan solves over `factor`. Fails with a structured error if a
    /// child supernode's below-rows do not nest in its parent's pattern
    /// (the old fork-join solver walked off the end of an array instead).
    pub fn new(factor: &'f F) -> Result<ThreadedSolver<'f, F>, PlanError> {
        let plan = SolvePlan::new(factor.partition())?;
        let schedule = plan.subtree_schedule(default_threads());
        Ok(ThreadedSolver {
            factor,
            plan: Cow::Owned(plan),
            schedule: Cow::Owned(schedule),
        })
    }

    /// Reuse a plan built earlier for this same factor (e.g. one held in a
    /// factor cache) instead of rebuilding it. Plan construction is
    /// `O(|L| pattern)`, so long-lived services that keep a factor
    /// resident should build the plan once and borrow it per solve.
    ///
    /// # Panics
    /// If `plan` was built from a different partition (order or supernode
    /// count mismatch).
    pub fn with_plan(factor: &'f F, plan: &'f SolvePlan) -> ThreadedSolver<'f, F> {
        assert_eq!(plan.n(), factor.n(), "plan/factor order mismatch");
        assert_eq!(
            plan.nsup(),
            factor.nsup(),
            "plan/factor supernode count mismatch"
        );
        let schedule = plan.subtree_schedule(default_threads());
        ThreadedSolver {
            factor,
            plan: Cow::Borrowed(plan),
            schedule: Cow::Owned(schedule),
        }
    }

    /// Reuse both a plan and a schedule built earlier for this factor.
    /// Building the schedule is `O(nsup log nsup)`, so services that solve
    /// against a cached factor should build it once per (factor, thread
    /// count) and borrow it per solve.
    ///
    /// # Panics
    /// If `plan` or `schedule` were built for a different partition.
    pub fn with_plan_schedule(
        factor: &'f F,
        plan: &'f SolvePlan,
        schedule: &'f SubtreeSchedule,
    ) -> ThreadedSolver<'f, F> {
        assert_eq!(plan.n(), factor.n(), "plan/factor order mismatch");
        assert_eq!(
            plan.nsup(),
            factor.nsup(),
            "plan/factor supernode count mismatch"
        );
        assert_eq!(
            schedule.n_snodes(),
            plan.nsup(),
            "schedule/plan supernode count mismatch"
        );
        ThreadedSolver {
            factor,
            plan: Cow::Borrowed(plan),
            schedule: Cow::Borrowed(schedule),
        }
    }

    /// Override the worker-pool width (default: available parallelism).
    /// `1` yields a single whole-forest task: fully sequential, zero
    /// synchronization. Rebuilds the subtree schedule if the width
    /// changes.
    pub fn with_threads(mut self, nthreads: usize) -> ThreadedSolver<'f, F> {
        let nthreads = nthreads.max(1);
        if self.schedule.nthreads() != nthreads {
            self.schedule = Cow::Owned(self.plan.subtree_schedule(nthreads));
        }
        self
    }

    /// The precomputed schedule.
    pub fn plan(&self) -> &SolvePlan {
        &self.plan
    }

    /// The subtree-to-thread mapping in effect.
    pub fn schedule(&self) -> &SubtreeSchedule {
        &self.schedule
    }

    /// Worker-pool width in effect.
    pub fn nthreads(&self) -> usize {
        self.schedule.nthreads()
    }

    /// A workspace sized for `nrhs` right-hand sides, with the arena
    /// layout for this solver's schedule already built.
    pub fn workspace(&self, nrhs: usize) -> SolveWorkspace<F::S> {
        let mut ws = SolveWorkspace::new(&self.plan, nrhs);
        ws.ensure_schedule(&self.plan, &self.schedule);
        ws
    }

    /// Whether the schedule is effectively serial: one subtree task holding
    /// every supernode in ascending order, nothing above the cut. Both
    /// passes then run the shared serial sweeps through that task's arena
    /// instead of the pool. [`SubtreeSchedule`] builds exactly this shape
    /// for one worker or at most one supernode.
    fn serial(&self) -> bool {
        self.schedule.n_tasks() == 1 && self.schedule.top().is_empty()
    }

    /// Whether supernode `s`'s forward result goes to its shared buffer:
    /// top supernodes, plus subtree roots whose parent is above the cut
    /// (the cross-thread handoff edge).
    fn publishes_forward(&self, s: usize) -> bool {
        self.schedule.task_of(s).is_none()
            || matches!(self.plan.parent(s), Some(p) if self.schedule.task_of(p).is_none())
    }

    /// Solve `L·Y = B` into `y` through `ws`, allocation-free.
    pub fn forward_into(
        &self,
        b: &DenseMatrix,
        ws: &mut SolveWorkspace<F::S>,
        y: &mut DenseMatrix,
    ) {
        let n = self.plan.n();
        let nrhs = b.ncols();
        assert_eq!(b.nrows(), n, "rhs must have n rows");
        assert_eq!(y.shape(), (n, nrhs), "output shape mismatch");
        ws.ensure(&self.plan, nrhs);
        ws.ensure_schedule(&self.plan, &self.schedule);
        if nrhs == 0 || n == 0 {
            return;
        }
        if self.serial() {
            // The one task holds every supernode in ascending order, so its
            // arena offsets are exactly the sequential sweep's.
            let arena = &mut ws.arenas[self.schedule.slot_of(0)];
            sweep::forward_sweep(
                self.factor,
                &self.plan,
                b,
                &mut arena.buf,
                &ws.arena_off,
                &mut arena.scratch,
                y,
            );
        } else {
            self.run(ws, true, b, nrhs, None);
            self.publish(ws, true, nrhs, y);
        }
    }

    /// Solve `Lᵀ·X = Y` into `x` through `ws`, allocation-free.
    pub fn backward_into(
        &self,
        y: &DenseMatrix,
        ws: &mut SolveWorkspace<F::S>,
        x: &mut DenseMatrix,
    ) {
        let n = self.plan.n();
        let nrhs = y.ncols();
        assert_eq!(y.nrows(), n, "rhs must have n rows");
        assert_eq!(x.shape(), (n, nrhs), "output shape mismatch");
        ws.ensure(&self.plan, nrhs);
        ws.ensure_schedule(&self.plan, &self.schedule);
        if nrhs == 0 || n == 0 {
            return;
        }
        if self.serial() {
            // Straight into `x`: the arena's head is the compact work panel
            // (leading dimension = the tallest supernode), its scratch the
            // below-row gather buffer.
            let arena = &mut ws.arenas[self.schedule.slot_of(0)];
            sweep::backward_sweep(
                self.factor,
                y,
                &mut arena.buf,
                arena.max_h,
                &mut arena.scratch,
                x,
            );
        } else {
            self.run(ws, false, y, nrhs, None);
            self.publish(ws, false, nrhs, x);
        }
    }

    /// After a pool pass: copy every supernode's solved top rows from
    /// wherever the pass left them — its shared buffer or its slot arena —
    /// into `out`. Each supernode owns its columns.
    fn publish(
        &self,
        ws: &SolveWorkspace<F::S>,
        forward: bool,
        nrhs: usize,
        out: &mut DenseMatrix,
    ) {
        for s in 0..self.plan.nsup() {
            let ns = self.plan.height(s);
            let cols = self.plan.cols(s);
            let shared = if forward {
                self.publishes_forward(s)
            } else {
                self.schedule.task_of(s).is_none()
            };
            let guard;
            let w: &[F::S] = if shared {
                guard = lock_ws(&ws.bufs[s]);
                &guard
            } else {
                &ws.arenas[ws.arena_slot[s]].buf[ws.arena_off[s] * nrhs..]
            };
            for r in 0..nrhs {
                sweep::publish_col(&mut out.col_mut(r)[cols.clone()], &w[r * ns..]);
            }
        }
    }

    /// Solve `L·Y = B` through `ws`, allocating only the output.
    pub fn forward_with(&self, b: &DenseMatrix, ws: &mut SolveWorkspace<F::S>) -> DenseMatrix {
        let mut y = DenseMatrix::zeros(self.plan.n(), b.ncols());
        self.forward_into(b, ws, &mut y);
        y
    }

    /// Solve `Lᵀ·X = Y` through `ws`, allocating only the output.
    pub fn backward_with(&self, y: &DenseMatrix, ws: &mut SolveWorkspace<F::S>) -> DenseMatrix {
        let mut x = DenseMatrix::zeros(self.plan.n(), y.ncols());
        self.backward_into(y, ws, &mut x);
        x
    }

    /// Solve `L·Y = B` with a one-shot workspace.
    pub fn forward(&self, b: &DenseMatrix) -> DenseMatrix {
        let mut ws = self.workspace(b.ncols());
        self.forward_with(b, &mut ws)
    }

    /// Solve `Lᵀ·X = Y` with a one-shot workspace.
    pub fn backward(&self, y: &DenseMatrix) -> DenseMatrix {
        let mut ws = self.workspace(y.ncols());
        self.backward_with(y, &mut ws)
    }

    /// Forward + backward through one workspace.
    pub fn forward_backward_with(
        &self,
        b: &DenseMatrix,
        ws: &mut SolveWorkspace<F::S>,
    ) -> DenseMatrix {
        let y = self.forward_with(b, ws);
        self.backward_with(&y, ws)
    }

    /// One fine-grained forward unit: a supernode above the cut. All of
    /// its children are above the cut too or are publishing subtree
    /// roots, so every operand lives in a shared buffer.
    fn forward_top(&self, s: usize, b: &DenseMatrix, nrhs: usize, bufs: &[Mutex<Vec<F::S>>]) {
        let plan = &*self.plan;
        let ns = plan.height(s);
        let t = plan.width(s);
        let mut buf = lock_ws(&bufs[s]);
        buf.clear();
        buf.resize(ns * nrhs + t * nrhs, F::S::ZERO);
        let (w, top_copy) = buf.split_at_mut(ns * nrhs);
        sweep::forward_gather(w, ns, b, plan.cols(s), nrhs);
        for &c in plan.children(s) {
            sweep::extend_add(w, ns, &lock_ws(&bufs[c]), plan, c, nrhs);
        }
        sweep::forward_solve(self.factor.values(s), ns, t, nrhs, w, top_copy);
    }

    /// One forward subtree task: every member in ascending (topological)
    /// order, entirely inside the slot arena — no locks, no atomics — bar
    /// a root with a parent above the cut, which works in its shared
    /// buffer for the cross-thread handoff.
    fn forward_subtree(
        &self,
        task: usize,
        b: &DenseMatrix,
        nrhs: usize,
        arena: &mut Arena<F::S>,
        arena_off: &[usize],
        bufs: &[Mutex<Vec<F::S>>],
        hook: Option<&(dyn Fn(usize) + Sync)>,
    ) {
        let plan = &*self.plan;
        let Arena { buf, scratch, .. } = arena;
        for &s in self.schedule.task(task) {
            if let Some(h) = hook {
                h(s);
            }
            let ns = plan.height(s);
            let t = plan.width(s);
            // children sit at lower arena offsets
            let (done, rest) = buf.split_at_mut(arena_off[s] * nrhs);
            let mut shared;
            let w = if self.publishes_forward(s) {
                shared = lock_ws(&bufs[s]);
                shared.clear();
                shared.resize(ns * nrhs, F::S::ZERO);
                &mut shared[..]
            } else {
                &mut rest[..ns * nrhs]
            };
            sweep::forward_gather(w, ns, b, plan.cols(s), nrhs);
            for &c in plan.children(s) {
                sweep::extend_add(w, ns, &done[arena_off[c] * nrhs..], plan, c, nrhs);
            }
            sweep::forward_solve(self.factor.values(s), ns, t, nrhs, w, scratch);
        }
    }

    /// Backward, gather: supernode `s`'s solved below-rows, read out of its
    /// parent `p`'s full-height working vector `pw` through the scatter map.
    fn gather_below(&self, s: usize, p: usize, nrhs: usize, pw: &[F::S], below: &mut [F::S]) {
        let nsp = self.plan.height(p);
        let scat = self.plan.scatter(s);
        let nb = scat.len();
        for r in 0..nrhs {
            let src = &pw[r * nsp..(r + 1) * nsp];
            for (d, &pos) in below[r * nb..(r + 1) * nb].iter_mut().zip(scat) {
                *d = src[pos];
            }
        }
    }

    /// Backward, the rest of one supernode in its full-height working
    /// vector `w` (leading dimension `height(s)`): the shared body, then
    /// the gathered below-rows copied back under the solved top so the
    /// children find their parent's full-height solution.
    fn backward_body(
        &self,
        s: usize,
        y: &DenseMatrix,
        nrhs: usize,
        w: &mut [F::S],
        below: &[F::S],
    ) {
        let ns = self.plan.height(s);
        let cols = self.plan.cols(s);
        let t = cols.len();
        let nb = ns - t;
        let below = &below[..nb * nrhs];
        sweep::backward_solve(self.factor.values(s), ns, nrhs, w, ns, y, cols, below);
        for r in 0..nrhs {
            w[r * ns + t..(r + 1) * ns].copy_from_slice(&below[r * nb..(r + 1) * nb]);
        }
    }

    /// One fine-grained backward unit: a supernode above the cut, its
    /// working vector and below-row buffer both in its shared buffer. The
    /// parent's buffer is locked only for the gather.
    fn backward_top(&self, s: usize, y: &DenseMatrix, nrhs: usize, bufs: &[Mutex<Vec<F::S>>]) {
        let ns = self.plan.height(s);
        let nb = ns - self.plan.width(s);
        let mut buf = lock_ws(&bufs[s]);
        buf.clear();
        buf.resize(ns * nrhs + nb * nrhs, F::S::ZERO);
        let (w, below) = buf.split_at_mut(ns * nrhs);
        if let Some(p) = self.plan.parent(s) {
            self.gather_below(s, p, nrhs, &lock_ws(&bufs[p]), below);
        }
        self.backward_body(s, y, nrhs, w, below);
    }

    /// One backward subtree task: every member in descending
    /// (reverse-topological) order inside the slot arena. The root reads
    /// its parent's shared buffer (the cross-thread edge); everyone else
    /// reads its parent's arena region.
    fn backward_subtree(
        &self,
        task: usize,
        y: &DenseMatrix,
        nrhs: usize,
        arena: &mut Arena<F::S>,
        arena_off: &[usize],
        bufs: &[Mutex<Vec<F::S>>],
        hook: Option<&(dyn Fn(usize) + Sync)>,
    ) {
        let plan = &*self.plan;
        let sched = &*self.schedule;
        let Arena { buf, scratch, .. } = arena;
        for &s in sched.task(task).iter().rev() {
            if let Some(h) = hook {
                h(s);
            }
            let off = arena_off[s] * nrhs;
            let end = off + plan.height(s) * nrhs;
            let (head, tail) = buf.split_at_mut(end);
            if let Some(p) = plan.parent(s) {
                if sched.task_of(p).is_none() {
                    self.gather_below(s, p, nrhs, &lock_ws(&bufs[p]), scratch);
                } else {
                    // parents sit at strictly larger arena offsets
                    self.gather_below(s, p, nrhs, &tail[arena_off[p] * nrhs - end..], scratch);
                }
            }
            self.backward_body(s, y, nrhs, &mut head[off..], scratch);
        }
    }

    /// Drain the two-phase task graph on the worker pool (never called for
    /// a serial schedule). `forward` selects the dependency direction.
    /// `hook`, when set, runs before each supernode's processing (test
    /// seam for panic containment).
    fn run(
        &self,
        ws: &mut SolveWorkspace<F::S>,
        forward: bool,
        rhs: &DenseMatrix,
        nrhs: usize,
        hook: Option<&(dyn Fn(usize) + Sync)>,
    ) {
        let plan = &*self.plan;
        let sched = &*self.schedule;
        let ntasks = sched.n_tasks();
        let top = sched.top();
        let units = ntasks + top.len();
        let nthreads = sched.nthreads();
        // Dependency counters: unit ids are tasks 0..ntasks, then
        // ntasks + top_rank for supernodes above the cut.
        for t in 0..ntasks {
            let d = if forward {
                0
            } else {
                usize::from(plan.parent(sched.task_root(t)).is_some())
            };
            ws.deps[t].store(d, Ordering::Relaxed);
        }
        for (j, &s) in top.iter().enumerate() {
            let d = if forward {
                plan.n_children(s)
            } else {
                usize::from(plan.parent(s).is_some())
            };
            ws.deps[ntasks + j].store(d, Ordering::Relaxed);
        }
        // Initial ready sets (we hold &mut: no locking needed).
        for l in ws.task_ready.iter_mut() {
            l.get_mut().unwrap_or_else(|e| e.into_inner()).clear();
        }
        for l in ws.top_ready.iter_mut() {
            l.get_mut().unwrap_or_else(|e| e.into_inner()).clear();
        }
        let mut rr = 0usize;
        if forward {
            for i in 0..nthreads {
                // reversed so the worker's LIFO pop runs heaviest first
                let list = ws.task_ready[i]
                    .get_mut()
                    .unwrap_or_else(|e| e.into_inner());
                list.extend(sched.slot(i).iter().rev());
            }
            for (j, &s) in top.iter().enumerate() {
                if plan.n_children(s) == 0 {
                    let list = ws.top_ready[rr % nthreads]
                        .get_mut()
                        .unwrap_or_else(|e| e.into_inner());
                    list.push(ntasks + j);
                    rr += 1;
                }
            }
        } else {
            for t in 0..ntasks {
                if plan.parent(sched.task_root(t)).is_none() {
                    let list = ws.task_ready[sched.slot_of(t)]
                        .get_mut()
                        .unwrap_or_else(|e| e.into_inner());
                    list.push(t);
                }
            }
            for (j, &s) in top.iter().enumerate() {
                if plan.parent(s).is_none() {
                    let list = ws.top_ready[rr % nthreads]
                        .get_mut()
                        .unwrap_or_else(|e| e.into_inner());
                    list.push(ntasks + j);
                    rr += 1;
                }
            }
        }

        let bufs = &ws.bufs;
        let deps = &ws.deps;
        let task_ready = &ws.task_ready;
        let top_ready = &ws.top_ready;
        let arena_off = &ws.arena_off;
        let remaining = AtomicUsize::new(units);
        let remaining = &remaining;
        // Spin-then-park idling: a worker that finds every list empty spins
        // briefly, registers itself in `sleepers`, RE-CHECKS the lists (so a
        // push that raced its registration is never missed), and only then
        // parks. Producers wake a specific sleeper (the home slot of a
        // subtree task — nobody else may run it) or any sleeper (stealable
        // top units, termination).
        let sleepers: Mutex<Vec<(usize, std::thread::Thread)>> = Mutex::new(Vec::new());
        let sleepers = &sleepers;
        let n_sleep = AtomicUsize::new(0);
        let n_sleep = &n_sleep;
        // Panic containment: a task that panics must not leave the other
        // workers parked waiting for dependency decrements that will never
        // come. The first panic is stashed, the `aborted` flag drains every
        // worker, and the payload is re-thrown on the calling thread where
        // `catch_unwind` at the engine boundary can see it. `remaining` is
        // left alone — a sibling finishing concurrently still decrements
        // it, and forcing it to zero here would race that decrement into an
        // underflow.
        let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let panicked = &panicked;
        let aborted = AtomicBool::new(false);
        let aborted = &aborted;

        let wake_all = move || {
            let mut sl = lock_ws(sleepers);
            n_sleep.store(0, Ordering::Release);
            for (_, th) in sl.drain(..) {
                th.unpark();
            }
        };
        let wake_one = move || {
            if n_sleep.load(Ordering::Acquire) > 0 {
                let mut sl = lock_ws(sleepers);
                if let Some((_, th)) = sl.pop() {
                    n_sleep.store(sl.len(), Ordering::Release);
                    th.unpark();
                }
            }
        };
        let wake_slot = move |i: usize| {
            if n_sleep.load(Ordering::Acquire) > 0 {
                let mut sl = lock_ws(sleepers);
                if let Some(k) = sl.iter().position(|e| e.0 == i) {
                    let (_, th) = sl.swap_remove(k);
                    n_sleep.store(sl.len(), Ordering::Release);
                    th.unpark();
                }
            }
        };

        std::thread::scope(|scope| {
            for (i, arena) in ws.arenas.iter_mut().enumerate() {
                scope.spawn(move || {
                    let mut spins = 0u32;
                    loop {
                        if aborted.load(Ordering::Acquire) || remaining.load(Ordering::Acquire) == 0
                        {
                            wake_all();
                            return;
                        }
                        // own subtree tasks first (bulk, lock-free inside),
                        // then own top units, then steal top units
                        let unit = lock_ws(&task_ready[i])
                            .pop()
                            .map(Unit::Task)
                            .or_else(|| lock_ws(&top_ready[i]).pop().map(|u| Unit::Top(u - ntasks)))
                            .or_else(|| {
                                (0..nthreads).filter(|&j| j != i).find_map(|j| {
                                    lock_ws(&top_ready[j]).pop().map(|u| Unit::Top(u - ntasks))
                                })
                            });
                        let Some(unit) = unit else {
                            spins += 1;
                            if spins < SPIN_ROUNDS {
                                std::hint::spin_loop();
                                continue;
                            }
                            {
                                let mut sl = lock_ws(sleepers);
                                sl.push((i, std::thread::current()));
                                n_sleep.store(sl.len(), Ordering::Release);
                            }
                            let visible = aborted.load(Ordering::Acquire)
                                || remaining.load(Ordering::Acquire) == 0
                                || !lock_ws(&task_ready[i]).is_empty()
                                || top_ready.iter().any(|l| !lock_ws(l).is_empty());
                            if !visible {
                                std::thread::park();
                            }
                            {
                                let mut sl = lock_ws(sleepers);
                                let before = sl.len();
                                sl.retain(|e| e.0 != i);
                                if sl.len() != before {
                                    n_sleep.store(sl.len(), Ordering::Release);
                                }
                            }
                            spins = 0;
                            continue;
                        };
                        spins = 0;
                        let res = panic::catch_unwind(AssertUnwindSafe(|| match unit {
                            Unit::Task(t) => {
                                if forward {
                                    self.forward_subtree(t, rhs, nrhs, arena, arena_off, bufs, hook)
                                } else {
                                    self.backward_subtree(
                                        t, rhs, nrhs, arena, arena_off, bufs, hook,
                                    )
                                }
                            }
                            Unit::Top(j) => {
                                let s = top[j];
                                if let Some(h) = hook {
                                    h(s);
                                }
                                if forward {
                                    self.forward_top(s, rhs, nrhs, bufs)
                                } else {
                                    self.backward_top(s, rhs, nrhs, bufs)
                                }
                            }
                        }));
                        if let Err(payload) = res {
                            if !aborted.swap(true, Ordering::SeqCst) {
                                *lock_ws(panicked) = Some(payload);
                            }
                            wake_all();
                            return;
                        }
                        // notify successors
                        let dec_top = |p: usize| {
                            let j = sched.top_rank(p).expect("cut parent is above the cut");
                            if deps[ntasks + j].fetch_sub(1, Ordering::AcqRel) == 1 {
                                lock_ws(&top_ready[i]).push(ntasks + j);
                                wake_one();
                            }
                        };
                        match unit {
                            Unit::Task(t) => {
                                if forward {
                                    if let Some(p) = plan.parent(sched.task_root(t)) {
                                        dec_top(p);
                                    }
                                }
                            }
                            Unit::Top(j) => {
                                let s = top[j];
                                if forward {
                                    if let Some(p) = plan.parent(s) {
                                        dec_top(p);
                                    }
                                } else {
                                    for &c in plan.children(s) {
                                        match sched.task_of(c) {
                                            Some(tc) => {
                                                if deps[tc].fetch_sub(1, Ordering::AcqRel) == 1 {
                                                    let home = sched.slot_of(tc);
                                                    lock_ws(&task_ready[home]).push(tc);
                                                    if home != i {
                                                        wake_slot(home);
                                                    }
                                                }
                                            }
                                            None => dec_top(c),
                                        }
                                    }
                                }
                            }
                        }
                        if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            wake_all();
                            return;
                        }
                    }
                });
            }
        });
        let payload = lock_ws(panicked).take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

/// Solve `L·Y = B` over the supernodal tree with the subtree-mapped
/// worker pool. Bit-identical to [`crate::seq::forward`]: every supernode
/// performs the same arithmetic in the same order regardless of which
/// thread or buffer it runs in.
///
/// Convenience wrapper that plans on every call; batch workloads should
/// hold a [`ThreadedSolver`] and a [`SolveWorkspace`] instead.
pub fn forward(f: &SupernodalFactor, b: &DenseMatrix) -> DenseMatrix {
    ThreadedSolver::new(f)
        .expect("factor partition is structurally valid")
        .forward(b)
}

/// Solve `Lᵀ·X = Y` with the subtree-mapped worker pool (see [`forward`]).
pub fn backward(f: &SupernodalFactor, y: &DenseMatrix) -> DenseMatrix {
    ThreadedSolver::new(f)
        .expect("factor partition is structurally valid")
        .backward(y)
}

/// Forward + backward with the threaded solvers.
pub fn forward_backward(f: &SupernodalFactor, b: &DenseMatrix) -> DenseMatrix {
    let solver = ThreadedSolver::new(f).expect("factor partition is structurally valid");
    let mut ws = solver.workspace(b.ncols());
    solver.forward_backward_with(b, &mut ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use trisolv_factor::seqchol::{analyze_with_perm, factor_supernodal};
    use trisolv_graph::{nd, Graph};
    use trisolv_matrix::gen;

    fn build(a: &trisolv_matrix::CscMatrix) -> SupernodalFactor {
        let g = Graph::from_sym_lower(a);
        let p = nd::nested_dissection(&g, nd::NdOptions::default());
        let an = analyze_with_perm(a, &p);
        factor_supernodal(&an.pa, &an.part).unwrap()
    }

    #[test]
    fn threaded_forward_matches_seq() {
        let a = gen::grid2d_laplacian(12, 12);
        let f = build(&a);
        let b = gen::random_rhs(f.n(), 3, 1);
        let seq_y = seq::forward(&f, &b);
        let par_y = forward(&f, &b);
        assert_eq!(par_y.as_slice(), seq_y.as_slice());
    }

    #[test]
    fn threaded_backward_matches_seq() {
        let a = gen::grid3d_laplacian(4, 4, 4);
        let f = build(&a);
        let y = gen::random_rhs(f.n(), 2, 2);
        let seq_x = seq::backward(&f, &y);
        let par_x = backward(&f, &y);
        assert_eq!(par_x.as_slice(), seq_x.as_slice());
    }

    #[test]
    fn threaded_roundtrip_solves() {
        let a = gen::fem2d(5, 5, 2);
        let f = build(&a);
        let x_true = gen::random_rhs(f.n(), 2, 3);
        let b = f.llt_times(&x_true);
        let x = forward_backward(&f, &b);
        assert!(x.max_abs_diff(&x_true).unwrap() < 1e-8);
    }

    #[test]
    fn handles_forest_of_roots() {
        // block-diagonal matrix → multiple etree roots
        let mut t = trisolv_matrix::TripletMatrix::new(8, 8);
        for i in 0..8 {
            t.push(i, i, 4.0).unwrap();
        }
        for i in [0, 2, 4, 6] {
            t.push(i + 1, i, -1.0).unwrap();
        }
        let a = t.to_csc();
        let f = build(&a);
        let b = gen::random_rhs(8, 1, 4);
        let seq_y = seq::forward(&f, &b);
        let par_y = forward(&f, &b);
        assert_eq!(par_y.as_slice(), seq_y.as_slice());
    }

    #[test]
    fn workspace_reuse_matches_one_shot() {
        let a = gen::grid2d_laplacian(10, 9);
        let f = build(&a);
        let solver = ThreadedSolver::new(&f).unwrap();
        let mut ws = solver.workspace(4);
        for seed in 0..4 {
            let b = gen::random_rhs(f.n(), 4, seed);
            let expect = seq::forward_backward(&f, &b);
            let got = solver.forward_backward_with(&b, &mut ws);
            assert_eq!(got.as_slice(), expect.as_slice(), "seed {seed}");
        }
        // narrower and wider blocks through the same workspace
        for nrhs in [1usize, 2, 8] {
            let b = gen::random_rhs(f.n(), nrhs, 17 + nrhs as u64);
            let expect = seq::forward(&f, &b);
            let got = solver.forward_with(&b, &mut ws);
            assert_eq!(got.as_slice(), expect.as_slice(), "nrhs {nrhs}");
        }
    }

    #[test]
    fn explicit_thread_counts_bit_identical() {
        let a = gen::fem2d(6, 5, 2);
        let f = build(&a);
        let b = gen::random_rhs(f.n(), 3, 9);
        let expect = seq::forward_backward(&f, &b);
        for nthreads in [1usize, 2, 3, 8] {
            let solver = ThreadedSolver::new(&f).unwrap().with_threads(nthreads);
            assert_eq!(solver.nthreads(), nthreads);
            let mut ws = solver.workspace(3);
            let got = solver.forward_backward_with(&b, &mut ws);
            // every supernode runs identical arithmetic regardless of
            // thread count → identical bits, not just close values
            assert_eq!(got.as_slice(), expect.as_slice(), "nthreads {nthreads}");
        }
    }

    #[test]
    fn f32_threaded_bit_identical_to_f32_seq_at_any_thread_count() {
        // the f32 lane keeps the bit-identity contract of the f64 lane:
        // every supernode runs identical arithmetic whether executed by
        // the sequential solver or any number of pool threads
        let a = gen::fem2d(6, 5, 2);
        let f = build(&a).demote();
        let plan = SolvePlan::new(f.partition()).unwrap();
        let b = gen::random_rhs(f.n(), 3, 9);
        let seq_y = seq::forward_with_plan_any(&f, &plan, &b);
        let seq_x = seq::backward_any(&f, &seq_y);
        for nthreads in [1usize, 2, 4] {
            let solver = ThreadedSolver::new(&f).unwrap().with_threads(nthreads);
            let mut ws = solver.workspace(3);
            let y = solver.forward_with(&b, &mut ws);
            assert_eq!(y.as_slice(), seq_y.as_slice(), "nthreads {nthreads}");
            let x = solver.backward_with(&y, &mut ws);
            assert_eq!(x.as_slice(), seq_x.as_slice(), "nthreads {nthreads}");
        }
    }

    #[test]
    fn f32_threaded_solve_reaches_f32_accuracy() {
        let a = gen::grid2d_laplacian(12, 12);
        let f64_factor = build(&a);
        let f = f64_factor.demote();
        let x_true = gen::random_rhs(f.n(), 2, 7);
        let b = f64_factor.llt_times(&x_true);
        let solver = ThreadedSolver::new(&f).unwrap().with_threads(2);
        let mut ws = solver.workspace(2);
        let x = solver.forward_backward_with(&b, &mut ws);
        assert!(x.max_abs_diff(&x_true).unwrap() < 1e-3);
    }

    #[test]
    fn zero_rhs_block() {
        let a = gen::grid2d_laplacian(6, 6);
        let f = build(&a);
        let b = DenseMatrix::zeros(f.n(), 0);
        let y = forward(&f, &b);
        assert_eq!(y.shape(), (f.n(), 0));
        let x = backward(&f, &b);
        assert_eq!(x.shape(), (f.n(), 0));
    }

    #[test]
    fn single_supernode_factor() {
        // a fully dense SPD matrix collapses to one supernode: one unit, so
        // every width takes the serial route, on both lanes
        let n = 12;
        let mut t = trisolv_matrix::TripletMatrix::new(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = if i == j { 2.0 * n as f64 } else { -0.5 };
                t.push(i, j, v).unwrap();
            }
        }
        let a = t.to_csc();
        let f = build(&a);
        let b = gen::random_rhs(n, 2, 5);
        let seq_y = seq::forward(&f, &b);
        let seq_x = seq::backward(&f, &seq_y);
        for nthreads in [1usize, 4] {
            let solver = ThreadedSolver::new(&f).unwrap().with_threads(nthreads);
            assert_eq!(solver.plan().nlevels(), 1);
            assert_eq!(
                solver.schedule().n_tasks() + solver.schedule().top().len(),
                1
            );
            let y = solver.forward(&b);
            assert_eq!(y.as_slice(), seq_y.as_slice(), "nthreads {nthreads}");
            let x = solver.backward(&y);
            assert_eq!(x.as_slice(), seq_x.as_slice(), "nthreads {nthreads}");
        }
        let f32 = f.demote();
        let plan = SolvePlan::new(f32.partition()).unwrap();
        let seq_y = seq::forward_with_plan_any(&f32, &plan, &b);
        let seq_x = seq::backward_any(&f32, &seq_y);
        for nthreads in [1usize, 4] {
            let solver = ThreadedSolver::new(&f32).unwrap().with_threads(nthreads);
            let y = solver.forward(&b);
            assert_eq!(y.as_slice(), seq_y.as_slice(), "f32 nthreads {nthreads}");
            let x = solver.backward(&y);
            assert_eq!(x.as_slice(), seq_x.as_slice(), "f32 nthreads {nthreads}");
        }
    }

    #[test]
    fn borrowed_plan_matches_owned_plan() {
        let a = gen::grid2d_laplacian(11, 7);
        let f = build(&a);
        let plan = SolvePlan::new(f.partition()).unwrap();
        let owned = ThreadedSolver::new(&f).unwrap();
        let borrowed = ThreadedSolver::with_plan(&f, &plan);
        let b = gen::random_rhs(f.n(), 3, 11);
        let mut ws = SolveWorkspace::new(&plan, 3);
        let x1 = owned.forward_backward_with(&b, &mut ws);
        let x2 = borrowed.forward_backward_with(&b, &mut ws);
        // identical plan + identical kernels → identical bits
        assert_eq!(x1.as_slice(), x2.as_slice());
    }

    #[test]
    fn borrowed_schedule_matches_owned_schedule() {
        let a = gen::grid2d_laplacian(13, 9);
        let f = build(&a);
        let plan = SolvePlan::new(f.partition()).unwrap();
        let sched = plan.subtree_schedule(4);
        let cached = ThreadedSolver::with_plan_schedule(&f, &plan, &sched);
        assert_eq!(cached.nthreads(), 4);
        let owned = ThreadedSolver::with_plan(&f, &plan).with_threads(4);
        let b = gen::random_rhs(f.n(), 2, 23);
        let mut ws1 = cached.workspace(2);
        let mut ws2 = owned.workspace(2);
        let x1 = cached.forward_backward_with(&b, &mut ws1);
        let x2 = owned.forward_backward_with(&b, &mut ws2);
        assert_eq!(x1.as_slice(), x2.as_slice());
    }

    #[test]
    fn panicking_task_aborts_pool_without_hanging() {
        let a = gen::grid2d_laplacian(12, 12);
        let f = build(&a);
        let solver = ThreadedSolver::new(&f).unwrap().with_threads(4);
        let mut ws = solver.workspace(2);
        let b = gen::random_rhs(f.n(), 2, 19);
        // Every supernode panics via the test hook; pre-hardening this
        // deadlocked the pool (workers waited forever on dependency
        // decrements that never came). Now the panic must propagate out of
        // `run`...
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            solver.run(&mut ws, true, &b, 2, Some(&|_s| panic!("boom in task")));
        }));
        assert!(caught.is_err(), "task panic must propagate, not hang");
        // ...and the same (possibly poison-recovered) workspace must still
        // serve correct solves afterwards.
        let b = gen::random_rhs(f.n(), 2, 21);
        let expect = seq::forward_backward(&f, &b);
        let got = solver.forward_backward_with(&b, &mut ws);
        assert_eq!(got.as_slice(), expect.as_slice());
    }

    #[test]
    fn plan_exposes_schedule_stats() {
        let a = gen::grid2d_laplacian(16, 16);
        let f = build(&a);
        let solver = ThreadedSolver::new(&f).unwrap();
        let plan = solver.plan();
        assert!(plan.nlevels() >= 2, "grid tree must have depth");
        assert!(plan.max_level_width() >= 2, "grid tree must have breadth");
        let total: usize = (0..plan.nlevels()).map(|l| plan.level(l).len()).sum();
        assert_eq!(total, plan.nsup());
        // the subtree schedule is exposed for diagnostics too
        let sched = solver.schedule();
        let covered: usize = (0..sched.n_tasks())
            .map(|t| sched.task(t).len())
            .sum::<usize>()
            + sched.top().len();
        assert_eq!(covered, plan.nsup());
    }
}
