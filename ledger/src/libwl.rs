//! In-process drivers of the solver library: the full set-up pipeline,
//! the sequential and threaded solves as a library user calls them, and
//! the kernel replay that sits under both.

use std::time::{Duration, Instant};

use trisolv_core::{
    default_threads, SolvePlan, SolveWorkspace, SparseCholeskySolver, SubtreeSchedule,
    ThreadedSolver,
};
use trisolv_factor::{blas, seqchol, FScalar, FactorBlocks};
use trisolv_graph::{nd, Graph, Permutation};
use trisolv_matrix::{CscMatrix, DenseMatrix};

use crate::metrics::Values;
use crate::stats;
use crate::trace::Tracer;

/// The backward error every verified answer must meet.
pub const OMEGA_MAX: f64 = 1e-10;

/// Whether a backward error certifies its answer; NaN does not.
pub fn meets_target(omega: f64) -> bool {
    omega <= OMEGA_MAX
}

/// Everything a solve needs, built the way `Engine::load` builds it.
pub struct Built {
    pub solver: SparseCholeskySolver,
    pub schedule: SubtreeSchedule,
}

/// Order → analyze → factor → plan → schedule at the shipped defaults.
pub fn build(a: &CscMatrix) -> Built {
    let solver = SparseCholeskySolver::factor(a).expect("generator matrices are SPD");
    let schedule = solver.plan().subtree_schedule(default_threads());
    Built { solver, schedule }
}

/// Seconds of each set-up phase, calling the pipeline's public pieces one
/// by one (the same calls `SparseCholeskySolver::factor` makes).
pub fn build_phases(a: &CscMatrix, tracer: &Tracer, out: &mut Values) {
    let mut at = Instant::now();
    let mut lap = |name: &'static str| {
        let now = Instant::now();
        tracer.record(name, "setup", 0, -1, at, now);
        let ms = now.duration_since(at).as_secs_f64() * 1e3;
        at = now;
        ms
    };
    let g = Graph::from_sym_lower(a);
    let perm = nd::nested_dissection(&g, nd::NdOptions::default());
    out.set("setup.order_ms", lap("order"));
    let an = seqchol::analyze_with_perm(a, &perm);
    out.set("setup.symbolic_ms", lap("symbolic"));
    let factor = seqchol::factor_supernodal(&an.pa, &an.part).expect("generator matrices are SPD");
    let factor_ms = lap("factor");
    out.set("setup.factor_ms", factor_ms);
    out.set(
        "setup.factor_gflops",
        an.part.factor_flops() as f64 / (factor_ms * 1e6),
    );
    let plan = SolvePlan::new(factor.partition()).expect("nested supernodes");
    let plan_ms = lap("plan");
    out.set("plan.build_ms", plan_ms);
    let schedule = plan.subtree_schedule(default_threads());
    out.set("setup.plan_ms", plan_ms + lap("schedule"));

    out.set("plan.nsup", plan.nsup() as f64);
    out.set("plan.mean_width", plan.n() as f64 / plan.nsup() as f64);
    out.set("plan.nlevels", plan.nlevels() as f64);
    out.set("plan.max_level_width", plan.max_level_width() as f64);
    out.set("plan.n_tasks", schedule.n_tasks() as f64);
    out.set("plan.n_top", schedule.top().len() as f64);
    let slots: Vec<f64> = schedule.slot_flops().iter().map(|&f| f as f64).collect();
    let max = slots.iter().copied().fold(0.0, f64::max);
    out.set("plan.imbalance", max / stats::mean(&slots));
    let top = schedule.top_flops() as f64;
    out.set(
        "plan.top_flops_frac",
        top / (top + slots.iter().sum::<f64>()),
    );
}

/// The threaded solve as a caller of the library makes it: permute the
/// right-hand side into the factor's index space, run
/// `ThreadedSolver::forward_backward_with` at the default width through a
/// reused workspace, permute the answer back.
pub struct Threaded<'a> {
    solver: ThreadedSolver<'a>,
    perm: &'a Permutation,
    ws: SolveWorkspace,
    pb: DenseMatrix,
}

impl<'a> Threaded<'a> {
    pub fn new(built: &'a Built, nrhs: usize) -> Threaded<'a> {
        let s = &built.solver;
        let solver =
            ThreadedSolver::with_plan_schedule(s.factor_matrix(), s.plan(), &built.schedule);
        Threaded {
            ws: solver.workspace(nrhs),
            pb: DenseMatrix::zeros(s.plan().n(), nrhs),
            perm: s.perm(),
            solver,
        }
    }

    pub fn width(&self) -> usize {
        self.solver.nthreads()
    }

    fn permute_in(&mut self, b: &DenseMatrix) {
        for r in 0..b.ncols() {
            let (src, dst) = (b.col(r), self.pb.col_mut(r));
            for (i, &v) in src.iter().enumerate() {
                dst[self.perm.apply(i)] = v;
            }
        }
    }

    pub fn solve(&mut self, b: &DenseMatrix) -> DenseMatrix {
        self.permute_in(b);
        let px = self.solver.forward_backward_with(&self.pb, &mut self.ws);
        let mut x = DenseMatrix::zeros(b.nrows(), b.ncols());
        for r in 0..b.ncols() {
            let (src, dst) = (px.col(r), x.col_mut(r));
            for (i, v) in dst.iter_mut().enumerate() {
                *v = src[self.perm.apply(i)];
            }
        }
        x
    }

    /// Median ms of the forward and of the backward sweep alone.
    pub fn sweeps(&mut self, b: &DenseMatrix, secs: f64) -> (f64, f64) {
        self.permute_in(b);
        let y = self.solver.forward_with(&self.pb, &mut self.ws);
        let fwd = time_calls(secs, || self.solver.forward_with(&self.pb, &mut self.ws));
        let bwd = time_calls(secs, || self.solver.backward_with(&y, &mut self.ws));
        (stats::median(&fwd), stats::median(&bwd))
    }
}

/// Call `f` back to back for `secs` seconds (at least three times) and
/// return each call's duration in ms.
pub fn time_calls<T>(secs: f64, mut f: impl FnMut() -> T) -> Vec<f64> {
    let end = Instant::now() + Duration::from_secs_f64(secs);
    let mut ms = Vec::new();
    while ms.len() < 3 || Instant::now() < end {
        let t = Instant::now();
        std::hint::black_box(f());
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    ms
}

pub fn same_bits(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Sequential baseline of a served workload's matrix: `secs` seconds of
/// `SparseCholeskySolver::solve` on one thread before any server exists.
pub fn seq_baseline(a: &CscMatrix, rhs: &[f64], secs: f64) -> Vec<f64> {
    let solver = SparseCholeskySolver::factor(a).expect("generator matrices are SPD");
    let b = DenseMatrix::column_vector(rhs);
    solver.solve(&b); // touch the factor once before timing
    time_calls(secs, || solver.solve(&b))
}

/// What the measured phase of a library workload saw.
pub struct LibOut {
    pub threaded_ms: Vec<f64>,
    pub seq_ms: Vec<f64>,
    /// Seconds spent inside threaded blocks.
    pub threaded_wall_s: f64,
    pub mismatches: u64,
    pub omega: f64,
}

/// Time the threaded and the sequential solve in round-robin blocks
/// (0.3 s threaded, 0.1 s sequential) so a slow stretch of the machine
/// hits both. Every 16th answer is compared bit for bit, outside the
/// timed region, with the sequential reference; the reference itself
/// must meet [`OMEGA_MAX`].
pub fn run(
    a: &CscMatrix,
    built: &Built,
    b: &DenseMatrix,
    warm: f64,
    secs: f64,
    tracer: &Tracer,
) -> LibOut {
    let reference = built.solver.solve(b);
    let mut threaded = Threaded::new(built, b.ncols());
    let mut out = LibOut {
        threaded_ms: Vec::new(),
        seq_ms: Vec::new(),
        threaded_wall_s: 0.0,
        mismatches: 0,
        omega: trisolv_core::refine::componentwise_backward_error(a, &reference, b)
            .expect("matching dimensions"),
    };
    let start = Instant::now();
    let open = start + Duration::from_secs_f64(warm);
    let close = open + Duration::from_secs_f64(secs);
    let mut turn_threaded = true;
    let mut calls = 0u64;
    while Instant::now() < close {
        let block_start = Instant::now();
        let block_end =
            (block_start + Duration::from_millis(if turn_threaded { 300 } else { 100 })).min(close);
        // warm-up runs the same blocks and reports none of them
        let measured = block_start >= open;
        loop {
            let t = Instant::now();
            let x = if turn_threaded {
                threaded.solve(b)
            } else {
                built.solver.solve(b)
            };
            let done = Instant::now();
            if measured {
                let ms = done.duration_since(t).as_secs_f64() * 1e3;
                if turn_threaded {
                    out.threaded_ms.push(ms);
                    tracer.record("solve", "exec", calls, -1, t, done);
                } else {
                    out.seq_ms.push(ms);
                }
                calls += 1;
                if calls % 16 == 0 && !same_bits(&x, &reference) {
                    out.mismatches += 1;
                }
            }
            if Instant::now() >= block_end {
                break;
            }
        }
        if turn_threaded && measured {
            out.threaded_wall_s += block_start.elapsed().as_secs_f64();
        }
        turn_threaded = !turn_threaded;
    }
    out
}

/// The four dense kernels on every factor block in plan order — forward
/// (`trsm_lower_left`, `gemm_update`) leaf to root, backward
/// (`gemm_tn_update`, `trsm_lower_trans_left`) root to leaf — with the
/// working vector refilled from a constant source by one contiguous copy
/// per supernode instead of the executor's gather, extend-add and
/// scatter. The refill keeps values finite and away from the kernels'
/// zero-skip; what the replay leaves out is exactly what `exec.self_ms`
/// measures.
pub struct Replay<'a, F: FactorBlocks> {
    factor: &'a F,
    plan: &'a SolvePlan,
    nrhs: usize,
    src: Vec<F::S>,
    w: Vec<F::S>,
    top: Vec<F::S>,
}

impl<'a, F: FactorBlocks> Replay<'a, F> {
    pub fn new(factor: &'a F, plan: &'a SolvePlan, nrhs: usize) -> Replay<'a, F> {
        let max_h = (0..plan.nsup()).map(|s| plan.height(s)).max().unwrap_or(0);
        let src: Vec<F::S> = (0..max_h * nrhs)
            .map(|i| F::S::from_f64(0.5 + (i % 7) as f64 * 0.125))
            .collect();
        Replay {
            factor,
            plan,
            nrhs,
            w: src.clone(),
            top: src.clone(),
            src,
        }
    }

    pub fn sweep(&mut self, trsm: bool, gemm: bool) {
        let nrhs = self.nrhs;
        for s in 0..self.plan.nsup() {
            let (ns, t) = (self.plan.height(s), self.plan.width(s));
            let blk = self.factor.values(s);
            let w = &mut self.w[..ns * nrhs];
            w.copy_from_slice(&self.src[..ns * nrhs]);
            if trsm {
                blas::trsm_lower_left(blk, ns, w, ns, t, nrhs);
            }
            if gemm && ns > t {
                for r in 0..nrhs {
                    self.top[r * t..(r + 1) * t].copy_from_slice(&w[r * ns..r * ns + t]);
                }
                blas::gemm_update(
                    &mut w[t..],
                    ns,
                    &blk[t..],
                    ns,
                    &self.top[..t * nrhs],
                    t,
                    ns - t,
                    nrhs,
                    t,
                );
            }
        }
        for s in (0..self.plan.nsup()).rev() {
            let (ns, t) = (self.plan.height(s), self.plan.width(s));
            let blk = self.factor.values(s);
            let w = &mut self.w[..ns * nrhs];
            w.copy_from_slice(&self.src[..ns * nrhs]);
            if gemm && ns > t {
                let nb = ns - t;
                blas::gemm_tn_update(
                    w,
                    ns,
                    &blk[t..],
                    ns,
                    &self.src[..nb * nrhs],
                    nb,
                    t,
                    nrhs,
                    nb,
                );
            }
            if trsm {
                blas::trsm_lower_trans_left(blk, ns, w, ns, t, nrhs);
            }
        }
        std::hint::black_box(&self.w);
    }

    /// Computed `(flops, bytes)` of one full sweep: each supernode's
    /// triangle (`t²` per column) and rectangle (`2·(ns−t)·t` per column)
    /// forward and again backward; bytes are the factor values read once
    /// per direction plus the working vector read and written once per
    /// direction. Cache misses are not in it.
    pub fn computed_work(&self) -> (f64, f64) {
        let (mut flops, mut bytes) = (0.0, 0.0);
        for s in 0..self.plan.nsup() {
            let (ns, t) = (self.plan.height(s) as f64, self.plan.width(s) as f64);
            let k = self.nrhs as f64;
            flops += 2.0 * (t * t + 2.0 * (ns - t) * t) * k;
            bytes += 2.0 * (ns * t + 2.0 * ns * k) * F::S::BYTES as f64;
        }
        (flops, bytes)
    }
}
