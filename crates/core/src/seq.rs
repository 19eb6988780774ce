//! Sequential supernodal triangular solves and the end-to-end solver.
//!
//! These are the single-processor baselines of every speedup and MFLOPS
//! figure in the paper, and the references the parallel solvers are
//! validated against **bit-for-bit**. To make that exact, forward
//! elimination uses the *relay* (multifrontal-style) accumulation order:
//! each supernode's below-diagonal update is kept in its own working
//! vector and extend-added into its parent, children in ascending order.
//! A flat global accumulator would fold contributions in an order no
//! tree-parallel executor can reproduce (floating-point addition is not
//! associative); the relay order is reproducible by construction, on any
//! thread count.
//!
//! The per-supernode arithmetic and the serial sweeps live in the
//! crate-private `sweep` module; [`forward_with_plan_any`] and [`backward_any`] run
//! those sweeps through freshly allocated buffers. The plan-less
//! [`forward`] keeps its own gather and extend-add bookkeeping, so it
//! stays an independent reference for everything around the kernels.
//! [`SparseCholeskySolver`] is one type for both storage lanes: its
//! default factor is the `f64` [`SupernodalFactor`], and
//! [`SparseCholeskySolverF32`] names the demoted lane.

use crate::plan::SolvePlan;
use crate::sweep;
use trisolv_factor::{seqchol, FScalar, FactorBlocks, SupernodalFactor, SupernodalFactorF32};
use trisolv_graph::Permutation;
use trisolv_matrix::{CscMatrix, DenseMatrix, MatrixError};

/// Solve `L·Y = B` (forward elimination) over a supernodal factor.
///
/// Walks supernodes leaf-to-root (ascending index — the partition is
/// postordered). For each supernode: gather its right-hand-side rows,
/// extend-add each child's below-diagonal update (children ascending),
/// solve the dense `t×t` triangle, then compute the `(n−t)×t` rectangle's
/// update into the supernode's own working vector for its parent to
/// consume (paper §2.1, relay accumulation order).
pub fn forward(f: &SupernodalFactor, b: &DenseMatrix) -> DenseMatrix {
    let part = f.partition();
    let n = part.n();
    let nrhs = b.ncols();
    assert_eq!(b.nrows(), n, "rhs must have n rows");
    let nsup = part.nsup();
    let mut y = DenseMatrix::zeros(n, nrhs);
    if nrhs == 0 || n == 0 {
        return y;
    }

    // arena: one full-height working vector per supernode
    let mut off = Vec::with_capacity(nsup + 1);
    let mut rows_total = 0usize;
    let mut max_t = 0usize;
    for s in 0..nsup {
        off.push(rows_total);
        rows_total += part.height(s);
        max_t = max_t.max(part.width(s));
    }
    let mut arena = vec![0.0f64; rows_total * nrhs];
    let mut top_copy = vec![0.0f64; max_t * nrhs];

    // children lists (counting sort over parents keeps them ascending)
    let mut child_ptr = vec![0usize; nsup + 1];
    for s in 0..nsup {
        if let Some(p) = part.parent(s) {
            child_ptr[p + 1] += 1;
        }
    }
    for s in 0..nsup {
        child_ptr[s + 1] += child_ptr[s];
    }
    let mut next = child_ptr.clone();
    let mut child_idx = vec![0usize; child_ptr[nsup]];
    for s in 0..nsup {
        if let Some(p) = part.parent(s) {
            child_idx[next[p]] = s;
            next[p] += 1;
        }
    }
    // position of each global row inside the current supernode's pattern
    let mut pos = vec![0usize; n];

    for s in 0..nsup {
        let rows = part.rows(s);
        let t = part.width(s);
        let ns = rows.len();
        let blk = f.block(s);
        // children sit at lower indices, hence lower arena offsets
        let (done, rest) = arena.split_at_mut(off[s] * nrhs);
        let w = &mut rest[..ns * nrhs];
        for r in 0..nrhs {
            let bc = b.col(r);
            for (k, &gi) in rows[..t].iter().enumerate() {
                w[r * ns + k] = bc[gi];
            }
            w[r * ns + t..(r + 1) * ns].fill(0.0);
        }
        let children = &child_idx[child_ptr[s]..child_ptr[s + 1]];
        if !children.is_empty() {
            for (k, &gi) in rows.iter().enumerate() {
                pos[gi] = k;
            }
            for &c in children {
                let crows = part.rows(c);
                let tc = part.width(c);
                let nsc = crows.len();
                let src_all = &done[off[c] * nrhs..off[c] * nrhs + nsc * nrhs];
                for r in 0..nrhs {
                    let src = &src_all[r * nsc + tc..r * nsc + nsc];
                    let dst = &mut w[r * ns..(r + 1) * ns];
                    for (i, &gi) in crows[tc..].iter().enumerate() {
                        dst[pos[gi]] += src[i];
                    }
                }
            }
        }
        sweep::forward_solve(blk.as_slice(), ns, t, nrhs, w, &mut top_copy);
        for r in 0..nrhs {
            let yc = y.col_mut(r);
            for (k, &gi) in rows[..t].iter().enumerate() {
                yc[gi] = w[r * ns + k];
            }
        }
    }
    y
}

/// [`forward`] driven by a prebuilt [`SolvePlan`]: the plan's children
/// lists and scatter maps replace the on-the-fly position bookkeeping, so
/// per-solve overhead is just the arena fill. Bit-identical to
/// [`forward`].
pub fn forward_with_plan(f: &SupernodalFactor, plan: &SolvePlan, b: &DenseMatrix) -> DenseMatrix {
    forward_with_plan_any(f, plan, b)
}

/// [`forward_with_plan`] over any storage precision: the shared serial
/// forward sweep through freshly allocated buffers. The right-hand side
/// and output stay `f64`; the per-supernode arithmetic runs in the
/// factor's scalar `F::S`. For `S = f32` every published value widens
/// exactly, so re-narrowing downstream (the backward gather) recovers the
/// same bits.
pub fn forward_with_plan_any<F: FactorBlocks>(
    f: &F,
    plan: &SolvePlan,
    b: &DenseMatrix,
) -> DenseMatrix {
    let n = plan.n();
    let nrhs = b.ncols();
    assert_eq!(b.nrows(), n, "rhs must have n rows");
    assert_eq!(f.n(), n, "plan/factor order mismatch");
    let nsup = plan.nsup();
    assert_eq!(f.nsup(), nsup, "plan/factor supernode count mismatch");
    let mut y = DenseMatrix::zeros(n, nrhs);
    if nrhs == 0 || n == 0 {
        return y;
    }
    let mut off = Vec::with_capacity(nsup);
    let mut rows_total = 0usize;
    let mut max_t = 0usize;
    for s in 0..nsup {
        off.push(rows_total);
        rows_total += plan.height(s);
        max_t = max_t.max(plan.width(s));
    }
    let mut arena = vec![F::S::ZERO; rows_total * nrhs];
    let mut top_copy = vec![F::S::ZERO; max_t * nrhs];
    sweep::forward_sweep(f, plan, b, &mut arena, &off, &mut top_copy, &mut y);
    y
}

/// Solve `Lᵀ·X = Y` (back substitution) over a supernodal factor.
///
/// Walks supernodes root-to-leaf (descending index). For each supernode:
/// read the already-solved values for its below-triangle rows, subtract the
/// rectangle product from the top `t` right-hand-side entries, and solve
/// the transposed dense triangle (paper §2.2).
pub fn backward(f: &SupernodalFactor, y: &DenseMatrix) -> DenseMatrix {
    backward_any(f, y)
}

/// [`backward`] over any storage precision: the shared serial backward
/// sweep through freshly allocated buffers. Solved values ride in the
/// `f64` output; the below-row gather re-narrows them with `from_f64`,
/// which is exact for values that originated in `F::S` — so the narrow
/// lane is as deterministic as the wide one.
pub fn backward_any<F: FactorBlocks>(f: &F, y: &DenseMatrix) -> DenseMatrix {
    let part = f.partition();
    let n = part.n();
    let nrhs = y.ncols();
    assert_eq!(y.nrows(), n, "rhs must have n rows");
    let mut x = DenseMatrix::zeros(n, nrhs);
    let max_h = (0..part.nsup()).map(|s| part.height(s)).max().unwrap_or(0);
    let max_b = (0..part.nsup())
        .map(|s| part.height(s) - part.width(s))
        .max()
        .unwrap_or(0);
    let mut work = vec![F::S::ZERO; max_h * nrhs];
    let mut below = vec![F::S::ZERO; max_b * nrhs];
    sweep::backward_sweep(f, y, &mut work, max_h, &mut below, &mut x);
    x
}

/// Forward + backward solve in the permuted index space.
pub fn forward_backward(f: &SupernodalFactor, b: &DenseMatrix) -> DenseMatrix {
    let y = forward(f, b);
    backward(f, &y)
}

/// Simplicial forward elimination on a CSC lower-triangular factor
/// (`L·Y = B`, diagonal stored). The column-at-a-time baseline the
/// supernodal kernels are measured against.
pub fn forward_csc(l: &CscMatrix, b: &DenseMatrix) -> DenseMatrix {
    let n = l.ncols();
    assert_eq!(l.nrows(), n);
    assert_eq!(b.nrows(), n);
    let mut y = b.clone();
    for c in 0..b.ncols() {
        let col = y.col_mut(c);
        for j in 0..n {
            let rows = l.col_rows(j);
            let vals = l.col_values(j);
            debug_assert_eq!(rows[0], j, "missing diagonal");
            let xj = col[j] / vals[0];
            col[j] = xj;
            if xj != 0.0 {
                for (k, &i) in rows.iter().enumerate().skip(1) {
                    col[i] -= vals[k] * xj;
                }
            }
        }
    }
    y
}

/// Simplicial back substitution on a CSC lower-triangular factor
/// (`Lᵀ·X = Y`).
pub fn backward_csc(l: &CscMatrix, y: &DenseMatrix) -> DenseMatrix {
    let n = l.ncols();
    assert_eq!(y.nrows(), n);
    let mut x = y.clone();
    for c in 0..y.ncols() {
        let col = x.col_mut(c);
        for j in (0..n).rev() {
            let rows = l.col_rows(j);
            let vals = l.col_values(j);
            let mut s = col[j];
            for (k, &i) in rows.iter().enumerate().skip(1) {
                s -= vals[k] * col[i];
            }
            col[j] = s / vals[0];
        }
    }
    x
}

/// Solve `L·D·Lᵀ·X = B` from a simplicial LDLᵀ factorization (unit-lower
/// `L` in CSC form, diagonal `D`).
pub fn solve_ldlt_csc(l: &CscMatrix, d: &[f64], b: &DenseMatrix) -> DenseMatrix {
    let n = l.ncols();
    assert_eq!(d.len(), n);
    let mut z = forward_csc(l, b);
    for c in 0..z.ncols() {
        let col = z.col_mut(c);
        for j in 0..n {
            col[j] /= d[j];
        }
    }
    // Lᵀ x = z with unit diagonal: reuse backward_csc (diagonal is 1)
    backward_csc(l, &z)
}

/// Order → analyse: nested dissection on the matrix graph, then the
/// symbolic pipeline under that ordering. Every solver this crate builds
/// from a bare matrix — factored or rebuilt from persisted values — comes
/// through here, so the partition a snapshot was written under is the one
/// it is re-analysed to.
pub(crate) fn analyze(a: &CscMatrix) -> seqchol::Analysis {
    let g = trisolv_graph::Graph::from_sym_lower(a);
    let p = trisolv_graph::nd::nested_dissection(&g, trisolv_graph::nd::NdOptions::default());
    seqchol::analyze_with_perm(a, &p)
}

/// End-to-end sequential sparse SPD solver: ordering + symbolic +
/// factorization are done once at construction, after which any number of
/// right-hand-side blocks can be solved.
///
/// Generic over the factor's storage lane (default: the `f64`
/// [`SupernodalFactor`]). Factorization always runs in `f64`;
/// [`Self::demote`] gives the `f32` lane ([`SparseCholeskySolverF32`]),
/// which streams half the factor bytes per solve sweep and carries roughly
/// single-precision accuracy until `refine::refine` certifies it back to
/// the `f64` ω ≤ target standard against the retained matrix.
///
/// ```
/// use trisolv_core::SparseCholeskySolver;
/// use trisolv_matrix::gen;
///
/// let a = gen::grid2d_laplacian(10, 10);
/// let solver = SparseCholeskySolver::factor(&a).unwrap();
/// let x_true = gen::random_rhs(100, 2, 7);
/// let b = a.spmv_sym_lower(&x_true).unwrap();
/// let x = solver.solve(&b);
/// assert!(x.max_abs_diff(&x_true).unwrap() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct SparseCholeskySolver<F: FactorBlocks = SupernodalFactor> {
    perm: Permutation,
    factor: F,
    plan: SolvePlan,
}

/// [`SparseCholeskySolver`] with the factor stored in `f32`. Built by
/// [`SparseCholeskySolver::demote`] or rebuilt from a persisted snapshot
/// via [`SparseCholeskySolver::from_factor_values`].
pub type SparseCholeskySolverF32 = SparseCholeskySolver<SupernodalFactorF32>;

impl SparseCholeskySolver {
    /// Factor a symmetric positive-definite matrix (lower triangle) under a
    /// caller-chosen fill-reducing permutation.
    pub fn factor_with_perm(a: &CscMatrix, fill_perm: &Permutation) -> Result<Self, MatrixError> {
        Self::factor_with_perm_opts(a, fill_perm, seqchol::FactorOptions::default())
    }

    /// [`Self::factor_with_perm`] with an explicit factorization policy
    /// (e.g. dynamic regularization for matrices that are not numerically
    /// positive definite).
    pub fn factor_with_perm_opts(
        a: &CscMatrix,
        fill_perm: &Permutation,
        opts: seqchol::FactorOptions,
    ) -> Result<Self, MatrixError> {
        Self::factor_analysis(seqchol::analyze_with_perm(a, fill_perm), opts)
    }

    /// Factor with a nested-dissection ordering computed from the matrix
    /// graph (the default choice; the paper's analysis assumes it).
    pub fn factor(a: &CscMatrix) -> Result<Self, MatrixError> {
        Self::factor_opts(a, seqchol::FactorOptions::default())
    }

    /// [`Self::factor`] with an explicit factorization policy.
    pub fn factor_opts(a: &CscMatrix, opts: seqchol::FactorOptions) -> Result<Self, MatrixError> {
        Self::factor_analysis(analyze(a), opts)
    }

    fn factor_analysis(
        an: seqchol::Analysis,
        opts: seqchol::FactorOptions,
    ) -> Result<Self, MatrixError> {
        let factor = seqchol::factor_supernodal_opts(&an.pa, &an.part, opts)?;
        Ok(Self::assemble(an.perm, factor))
    }

    /// Demote the solver's factor to `f32` storage, keeping the
    /// permutation and solve plan (both precision-independent). The `f64`
    /// factor is not retained — the caller decides whether to keep it
    /// (mixed-precision refinement only needs the original matrix).
    pub fn demote(&self) -> SparseCholeskySolverF32 {
        SparseCholeskySolver {
            perm: self.perm.clone(),
            factor: self.factor.demote(),
            plan: self.plan.clone(),
        }
    }
}

impl<F: FactorBlocks> SparseCholeskySolver<F> {
    fn assemble(perm: Permutation, factor: F) -> Self {
        let plan = SolvePlan::new(factor.partition())
            .expect("internally built factors have nested supernode structure");
        SparseCholeskySolver { perm, factor, plan }
    }

    /// Rebuild a solver from a matrix plus the flat numeric factor values a
    /// snapshot persisted: the per-supernode trapezoids of a solver built
    /// by [`SparseCholeskySolver::factor`] (or demoted from one),
    /// concatenated in supernode order. Callers name the lane, e.g.
    /// `SparseCholeskySolverF32::from_factor_values`.
    ///
    /// Re-runs the deterministic symbolic pipeline — nested dissection,
    /// supernode analysis, plan construction — and skips only the numeric
    /// factorization, so the rebuilt solver is bit-identical to the one the
    /// values were taken from: the permutation, partition, and plan are
    /// pure functions of the matrix structure, and the values are restored
    /// verbatim. Fails with `InvalidStructure` when the value count does
    /// not match the partition the matrix analyzes to (a stale or foreign
    /// snapshot).
    pub fn from_factor_values(
        a: &CscMatrix,
        values: &[F::S],
        perturbations: Vec<(usize, f64)>,
    ) -> Result<Self, MatrixError> {
        let an = analyze(a);
        let factor = F::from_flat_values(an.part, values, perturbations)?;
        Ok(Self::assemble(an.perm, factor))
    }

    /// The combined permutation (fill-reducing ∘ postorder).
    pub fn perm(&self) -> &Permutation {
        &self.perm
    }

    /// The supernodal factor (in the permuted index space).
    pub fn factor_matrix(&self) -> &F {
        &self.factor
    }

    /// Mutable access to the factor. Exists for integrity drills (flipping
    /// factor bits to simulate silent corruption) and tests; normal solves
    /// never mutate the factor.
    pub fn factor_matrix_mut(&mut self) -> &mut F {
        &mut self.factor
    }

    /// The solve plan built for the factor at construction time.
    pub fn plan(&self) -> &SolvePlan {
        &self.plan
    }

    /// Solve `A·X = B` with iterative refinement: after the direct solve,
    /// up to `max_iters` residual-correction sweeps
    /// (`r = B − A·X; X += A⁻¹·r`) run until the relative residual drops
    /// below `tol`. Returns the solution and the final relative residual.
    ///
    /// Refinement needs the original matrix (the factor alone cannot form
    /// residuals), so `a` must be the matrix this solver was built from.
    pub fn solve_refined(
        &self,
        a: &CscMatrix,
        b: &DenseMatrix,
        max_iters: usize,
        tol: f64,
    ) -> (DenseMatrix, f64) {
        let mut x = self.solve(b);
        let bnorm = b.norm_max().max(f64::MIN_POSITIVE);
        let mut rel = f64::INFINITY;
        for _ in 0..max_iters {
            let ax = a.spmv_sym_lower(&x).expect("matching dimensions");
            let mut r = b.clone();
            r.axpy(-1.0, &ax).expect("same shape");
            rel = r.norm_max() / bnorm;
            if rel <= tol {
                break;
            }
            let dx = self.solve(&r);
            x.axpy(1.0, &dx).expect("same shape");
        }
        if rel.is_infinite() {
            // max_iters == 0: report the unrefined residual
            let ax = a.spmv_sym_lower(&x).expect("matching dimensions");
            let mut r = b.clone();
            r.axpy(-1.0, &ax).expect("same shape");
            rel = r.norm_max() / bnorm;
        }
        (x, rel)
    }

    /// Solve `A·X = B` for a dense right-hand-side block.
    pub fn solve(&self, b: &DenseMatrix) -> DenseMatrix {
        let n = self.factor.n();
        assert_eq!(b.nrows(), n);
        let nrhs = b.ncols();
        // permute rhs: pb[perm[i]] = b[i]
        let mut pb = DenseMatrix::zeros(n, nrhs);
        for r in 0..nrhs {
            let src = b.col(r);
            let dst = pb.col_mut(r);
            for i in 0..n {
                dst[self.perm.apply(i)] = src[i];
            }
        }
        let py = forward_with_plan_any(&self.factor, &self.plan, &pb);
        let px = backward_any(&self.factor, &py);
        // unpermute: x[i] = px[perm[i]]
        let mut x = DenseMatrix::zeros(n, nrhs);
        for r in 0..nrhs {
            let src = px.col(r);
            let dst = x.col_mut(r);
            for i in 0..n {
                dst[i] = src[self.perm.apply(i)];
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolv_factor::seqchol::{analyze_with_perm, factor_supernodal};
    use trisolv_graph::{nd, Graph};
    use trisolv_matrix::gen;

    fn factor_grid(k: usize) -> SupernodalFactor {
        let a = gen::grid2d_laplacian(k, k);
        let g = Graph::from_sym_lower(&a);
        let p =
            nd::nested_dissection_coords(&g, &nd::grid2d_coords(k, k, 1), nd::NdOptions::default());
        let an = analyze_with_perm(&a, &p);
        factor_supernodal(&an.pa, &an.part).unwrap()
    }

    #[test]
    fn from_factor_values_rebuilds_bit_identical_solver() {
        let a = gen::grid2d_laplacian(9, 9);
        let original = SparseCholeskySolver::factor(&a).unwrap();
        let f = original.factor_matrix();
        let mut values = Vec::new();
        for s in 0..f.nsup() {
            values.extend_from_slice(f.block(s).as_slice());
        }
        let rebuilt = SparseCholeskySolver::<SupernodalFactor>::from_factor_values(
            &a,
            &values,
            f.perturbations().to_vec(),
        )
        .unwrap();
        let b = gen::random_rhs(81, 3, 5);
        assert_eq!(
            original.solve(&b).as_slice(),
            rebuilt.solve(&b).as_slice(),
            "recovered solver must answer bit-identically"
        );
        // wrong value count is a structured error, not a panic
        let err = SparseCholeskySolver::<SupernodalFactor>::from_factor_values(
            &a,
            &values[..values.len() - 1],
            vec![],
        );
        assert!(matches!(err, Err(MatrixError::InvalidStructure(_))));
    }

    #[test]
    fn demoted_solver_solves_to_f32_accuracy() {
        for (name, a) in [
            ("grid2d", gen::grid2d_laplacian(9, 7)),
            ("grid3d", gen::grid3d_laplacian(4, 4, 4)),
            ("fem2d", gen::fem2d(5, 4, 3)),
        ] {
            let n = a.ncols();
            let solver = SparseCholeskySolver::factor(&a).unwrap();
            let s32 = solver.demote();
            let x_true = gen::random_rhs(n, 2, 7);
            let b = a.spmv_sym_lower(&x_true).unwrap();
            let x = s32.solve(&b);
            let err = x.max_abs_diff(&x_true).unwrap();
            assert!(err < 1e-3, "{name}: f32-lane error {err}");
            // deterministic: same rhs, same bits
            assert_eq!(x.as_slice(), s32.solve(&b).as_slice(), "{name}");
        }
    }

    #[test]
    fn f32_from_factor_values_rebuilds_bit_identical_solver() {
        let a = gen::grid2d_laplacian(9, 9);
        let s32 = SparseCholeskySolver::factor(&a).unwrap().demote();
        let f = s32.factor_matrix();
        let mut values = Vec::new();
        for s in 0..f.nsup() {
            values.extend_from_slice(f.values(s));
        }
        let rebuilt =
            SparseCholeskySolverF32::from_factor_values(&a, &values, f.perturbations().to_vec())
                .unwrap();
        let b = gen::random_rhs(81, 3, 5);
        assert_eq!(
            s32.solve(&b).as_slice(),
            rebuilt.solve(&b).as_slice(),
            "recovered f32 solver must answer bit-identically"
        );
        let err =
            SparseCholeskySolverF32::from_factor_values(&a, &values[..values.len() - 1], vec![]);
        assert!(matches!(err, Err(MatrixError::InvalidStructure(_))));
    }

    #[test]
    fn forward_inverts_l() {
        let f = factor_grid(7);
        let n = f.n();
        let x_true = gen::random_rhs(n, 3, 1);
        let b = f.l_times(&x_true);
        let y = forward(&f, &b);
        assert!(y.max_abs_diff(&x_true).unwrap() < 1e-10);
    }

    #[test]
    fn forward_with_plan_bit_identical_to_forward() {
        for (f, nrhs) in [
            (factor_grid(9), 1usize),
            (factor_grid(9), 5),
            (factor_grid(1), 2),
        ] {
            let plan = SolvePlan::new(f.partition()).unwrap();
            let b = gen::random_rhs(f.n(), nrhs, 17);
            let plain = forward(&f, &b);
            let planned = forward_with_plan(&f, &plan, &b);
            assert_eq!(plain.as_slice(), planned.as_slice());
        }
    }

    #[test]
    fn backward_inverts_lt() {
        let f = factor_grid(7);
        let n = f.n();
        let x_true = gen::random_rhs(n, 2, 2);
        let l = f.to_csc();
        let b = l.transpose().spmv(&x_true).unwrap();
        let x = backward(&f, &b);
        assert!(x.max_abs_diff(&x_true).unwrap() < 1e-10);
    }

    #[test]
    fn forward_backward_solves_permuted_system() {
        let f = factor_grid(8);
        let n = f.n();
        let x_true = gen::random_rhs(n, 4, 3);
        let b = f.llt_times(&x_true);
        let x = forward_backward(&f, &b);
        assert!(x.max_abs_diff(&x_true).unwrap() < 1e-9);
    }

    #[test]
    fn driver_solves_original_system() {
        for (name, a) in [
            ("grid2d", gen::grid2d_laplacian(9, 7)),
            ("grid3d", gen::grid3d_laplacian(4, 4, 4)),
            ("fem2d", gen::fem2d(5, 4, 3)),
            ("random", gen::random_spd(80, 4, 7)),
        ] {
            let n = a.ncols();
            let solver = SparseCholeskySolver::factor(&a).unwrap();
            let x_true = gen::random_rhs(n, 3, 11);
            let b = a.spmv_sym_lower(&x_true).unwrap();
            let x = solver.solve(&b);
            assert!(
                x.max_abs_diff(&x_true).unwrap() < 1e-7,
                "{name}: error {}",
                x.max_abs_diff(&x_true).unwrap()
            );
        }
    }

    #[test]
    fn driver_multiple_solves_reuse_factor() {
        let a = gen::grid2d_laplacian(6, 6);
        let solver = SparseCholeskySolver::factor(&a).unwrap();
        for seed in 0..3 {
            let x_true = gen::random_rhs(36, 1, seed);
            let b = a.spmv_sym_lower(&x_true).unwrap();
            let x = solver.solve(&b);
            assert!(x.max_abs_diff(&x_true).unwrap() < 1e-9);
        }
    }

    #[test]
    fn single_rhs_matches_multi_rhs_column() {
        let f = factor_grid(6);
        let n = f.n();
        let b = gen::random_rhs(n, 3, 5);
        let y_all = forward(&f, &b);
        for r in 0..3 {
            let br = DenseMatrix::column_vector(b.col(r));
            let yr = forward(&f, &br);
            for i in 0..n {
                assert_eq!(yr[(i, 0)], y_all[(i, r)], "rhs {r} row {i}");
            }
        }
    }

    #[test]
    fn iterative_refinement_tightens_residual() {
        let a = gen::fem3d(4, 3, 3, 2);
        let n = a.ncols();
        let solver = SparseCholeskySolver::factor(&a).unwrap();
        let x_true = gen::random_rhs(n, 2, 4);
        let b = a.spmv_sym_lower(&x_true).unwrap();
        let (x, rel) = solver.solve_refined(&a, &b, 3, 1e-14);
        assert!(rel < 1e-12, "relative residual {rel}");
        assert!(x.max_abs_diff(&x_true).unwrap() < 1e-9);
        // zero iterations still reports the plain-solve residual
        let (_, rel0) = solver.solve_refined(&a, &b, 0, 0.0);
        assert!(rel0.is_finite() && rel0 < 1e-8);
    }

    #[test]
    fn csc_solvers_match_supernodal() {
        let a = gen::grid2d_laplacian(8, 7);
        let an = analyze_with_perm(&a, &Permutation::identity(56));
        let f = factor_supernodal(&an.pa, &an.part).unwrap();
        let l_csc = trisolv_factor::seqchol::factor_simplicial(&an.pa, &an.sym).unwrap();
        let b = gen::random_rhs(56, 2, 8);
        let y_sn = forward(&f, &b);
        let y_csc = forward_csc(&l_csc, &b);
        assert!(y_sn.max_abs_diff(&y_csc).unwrap() < 1e-11);
        let x_sn = backward(&f, &y_sn);
        let x_csc = backward_csc(&l_csc, &y_csc);
        assert!(x_sn.max_abs_diff(&x_csc).unwrap() < 1e-10);
    }

    #[test]
    fn ldlt_solves_spd_system() {
        let a = gen::fem2d(5, 4, 2);
        let n = a.ncols();
        let an = analyze_with_perm(&a, &Permutation::identity(n));
        let (l, d) = trisolv_factor::seqchol::factor_simplicial_ldlt(&an.pa, &an.sym).unwrap();
        assert!(d.iter().all(|&v| v > 0.0), "SPD gives positive D");
        let x_true = gen::random_rhs(n, 3, 9);
        let b = an.pa.spmv_sym_lower(&x_true).unwrap();
        let x = solve_ldlt_csc(&l, &d, &b);
        assert!(x.max_abs_diff(&x_true).unwrap() < 1e-8);
    }

    #[test]
    fn ldlt_matches_cholesky_solution() {
        let a = gen::random_spd(50, 3, 12);
        let an = analyze_with_perm(&a, &Permutation::identity(50));
        let f = factor_supernodal(&an.pa, &an.part).unwrap();
        let (l, d) = trisolv_factor::seqchol::factor_simplicial_ldlt(&an.pa, &an.sym).unwrap();
        let b = gen::random_rhs(50, 1, 13);
        let x_chol = forward_backward(&f, &b);
        let x_ldlt = solve_ldlt_csc(&l, &d, &b);
        assert!(x_chol.max_abs_diff(&x_ldlt).unwrap() < 1e-9);
    }

    #[test]
    fn identity_factor_passthrough() {
        // a diagonal matrix: L = sqrt(D); forward/backward just scale
        let mut t = trisolv_matrix::TripletMatrix::new(5, 5);
        for i in 0..5 {
            t.push(i, i, 4.0).unwrap();
        }
        let a = t.to_csc();
        let solver = SparseCholeskySolver::factor(&a).unwrap();
        let b = DenseMatrix::column_vector(&[4.0, 8.0, 12.0, 16.0, 20.0]);
        let x = solver.solve(&b);
        let expect = DenseMatrix::column_vector(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(x.max_abs_diff(&expect).unwrap() < 1e-12);
    }
}
