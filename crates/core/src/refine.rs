//! Certified solves: iterative refinement with a componentwise
//! backward-error certificate.
//!
//! A direct solve returns *some* `x`; this module turns it into a
//! **certified** answer. After the triangular solves, refinement forms the
//! true residual `r = b − A·x` against the original matrix, measures the
//! componentwise (Oettli–Prager) backward error
//!
//! ```text
//! ω = max_i |r_i| / (|A|·|x| + |b|)_i
//! ```
//!
//! and, while ω is above the target, corrects `x += A⁻¹·r` using the
//! already-computed factor — each sweep costs one symmetric SpMV plus one
//! extra forward/backward solve on the cached [`crate::plan::SolvePlan`],
//! nothing is refactored. ω ≤ target means `x` exactly solves a system
//! whose entries are within a relative `ω` of `(A, b)`: a certificate, not
//! a heuristic. Refinement is what makes dynamic regularization safe: the
//! factor of `A + Σδ_j·e_j·e_jᵀ` is only a preconditioner here, and the
//! residual is always measured against the *unperturbed* `A`.
//!
//! The full pipeline ([`certified_solve`]) optionally equilibrates first
//! (`D·A·D`, see [`trisolv_matrix::equilibrate_sym`]); the componentwise
//! backward error is invariant under that symmetric scaling (the residual
//! and the denominator both pick up the same row factor `D`), so the ω
//! reported for the scaled system *is* the ω of the original one.
//!
//! [`refine`] is one loop for both storage lanes: the `f32` lane differs
//! only in applying its first correction sweep unconditionally, chosen
//! from the factor's scalar width. [`certified_solve_mixed`] runs it on a
//! demoted factor and falls back to an `f64` refactorization when the
//! narrow lane stagnates.

use crate::estimate;
use crate::seq::SparseCholeskySolver;
use trisolv_factor::seqchol::FactorOptions;
use trisolv_factor::{FScalar, FactorBlocks};
use trisolv_matrix::{equilibrate_sym, validate_finite, CscMatrix, DenseMatrix, MatrixError};

/// Stopping policy for the refinement loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineOptions {
    /// Maximum number of correction sweeps (each one SpMV + one solve).
    pub max_iters: usize,
    /// Componentwise backward error at or below which the solve is
    /// **certified**.
    pub target: f64,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            max_iters: 20,
            target: 1e-10,
        }
    }
}

/// What a (possibly refined) solve achieved.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Correction sweeps actually applied (0 = the direct solve already
    /// met the target, or refinement could not improve it).
    pub iterations: usize,
    /// Final componentwise backward error ω of the returned solution.
    pub backward_error: f64,
    /// `backward_error <= target`: the solution is certified. When
    /// `false` the result is still the best iterate found — a structured
    /// *NotCertified* outcome, never a silent bad answer.
    pub certified: bool,
    /// ω after the direct solve and after each *accepted* correction, in
    /// order; non-increasing by construction (a sweep that fails to
    /// improve ω is discarded and stops the loop).
    pub omega_history: Vec<f64>,
    /// Diagonal boosts the (regularized) factorization applied; `0` for a
    /// plain factor.
    pub perturbations: usize,
    /// `dmax/dmin` of the equilibration scaling, when scaling ran.
    pub scaling_ratio: Option<f64>,
    /// 1-norm condition estimate `κ₁(A)`, when requested.
    pub condition_estimate: Option<f64>,
}

/// Componentwise (Oettli–Prager) backward error of `x` for `A·x = b`:
/// `max_i |b − A·x|_i / (|A|·|x| + |b|)_i`, maximized over all
/// right-hand-side columns. A zero residual component contributes 0 even
/// where the denominator vanishes; a nonzero residual over a zero
/// denominator is `+∞` (no perturbation of `(A, b)` explains it).
pub fn componentwise_backward_error(
    a: &CscMatrix,
    x: &DenseMatrix,
    b: &DenseMatrix,
) -> Result<f64, MatrixError> {
    let r = a.residual_sym_lower(x, b)?;
    let denom = a.spmv_sym_lower_abs(x)?;
    let mut omega = 0.0f64;
    for ((&ri, &di), &bi) in r.as_slice().iter().zip(denom.as_slice()).zip(b.as_slice()) {
        let d = di + bi.abs();
        let w = if ri == 0.0 {
            0.0
        } else if d == 0.0 {
            f64::INFINITY
        } else {
            ri.abs() / d
        };
        omega = omega.max(w);
    }
    Ok(omega)
}

/// Iteratively refine `solver.solve(b)` against the original matrix `a`
/// until the componentwise backward error meets `opts.target`, the sweep
/// budget runs out, or refinement stagnates (a sweep that fails to halve ω
/// — or worsens it — ends the loop; a worsening iterate is discarded).
///
/// `a` must be the matrix the solver was factored from — or, for a
/// regularized factor, the *unperturbed* original: the residual test is
/// what compensates for the recorded diagonal boosts.
///
/// One loop for both storage lanes. Residuals are always formed in `f64`
/// against `a`; only the `A⁻¹`-application runs in the factor's scalar.
/// On a lane narrower than `f64` the first correction sweep is applied
/// *unconditionally*: an `f32` direct solve carries ~`1e-7` relative error
/// and never meets a `1e-10` componentwise target, so measuring ω before
/// the first sweep only buys two wasted SpMVs. There `omega_history`
/// starts at the ω *after* the first sweep and `iterations` counts that
/// sweep (it is ≥ 1 on every call); on the `f64` lane
/// `omega_history.len() == iterations + 1`.
///
/// A narrow-lane result with `report.certified == false` means the narrow
/// factor cannot carry the refinement to the target (severe
/// ill-conditioning: `κ(A)·ε_f32 ≳ 1`); callers fall back to an `f64`
/// refactorization — see [`certified_solve_mixed`]. Never a panic, never
/// a silent bad answer.
pub fn refine<F: FactorBlocks>(
    solver: &SparseCholeskySolver<F>,
    a: &CscMatrix,
    b: &DenseMatrix,
    opts: &RefineOptions,
) -> Result<(DenseMatrix, SolveReport), MatrixError> {
    validate_finite("rhs", b.as_slice())?;
    let mut x = solver.solve(b);
    let mut iterations = 0usize;
    if F::S::BYTES < f64::BYTES {
        let r = a.residual_sym_lower(&x, b)?;
        let dx = solver.solve(&r);
        x.axpy(1.0, &dx).expect("same shape");
        iterations = 1;
    }
    let mut omega = componentwise_backward_error(a, &x, b)?;
    let mut history = vec![omega];
    while omega > opts.target && iterations < opts.max_iters && omega.is_finite() {
        let r = a.residual_sym_lower(&x, b)?;
        let dx = solver.solve(&r);
        let mut xn = x.clone();
        xn.axpy(1.0, &dx).expect("same shape");
        let on = componentwise_backward_error(a, &xn, b)?;
        // NaN-safe "failed to improve" test: a NaN ω also ends the loop
        if on.partial_cmp(&omega) != Some(std::cmp::Ordering::Less) {
            // no progress: keep the previous (better) iterate
            break;
        }
        x = xn;
        let stagnated = on > 0.5 * omega;
        omega = on;
        history.push(omega);
        iterations += 1;
        if stagnated {
            break;
        }
    }
    let certified = omega <= opts.target;
    Ok((
        x,
        SolveReport {
            iterations,
            backward_error: omega,
            certified,
            omega_history: history,
            perturbations: solver.factor_matrix().perturbations().len(),
            scaling_ratio: None,
            condition_estimate: None,
        },
    ))
}

/// Policy for the end-to-end certified pipeline ([`certified_solve`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CertifyOptions {
    /// Symmetrically equilibrate (`D·A·D`) before factoring.
    pub scale: bool,
    /// Dynamic regularization: boost breakdown pivots instead of failing.
    pub regularize: bool,
    /// Pivot floor is `beta · max|a_ij|` when regularizing.
    pub beta: f64,
    /// Also compute a Hager–Higham 1-norm condition estimate (costs a few
    /// extra solves).
    pub condition: bool,
    /// Refinement stopping policy.
    pub refine: RefineOptions,
}

impl Default for CertifyOptions {
    fn default() -> Self {
        CertifyOptions {
            scale: false,
            regularize: false,
            beta: f64::EPSILON,
            condition: false,
            refine: RefineOptions::default(),
        }
    }
}

/// A certified (or best-effort, with `report.certified == false`)
/// solution.
#[derive(Debug, Clone)]
pub struct CertifiedSolve {
    /// The solution in the original (unscaled) variables.
    pub x: DenseMatrix,
    /// What the pipeline did and how good the answer is.
    pub report: SolveReport,
}

/// End-to-end certified solve of `A·X = B`: optionally equilibrate,
/// factor (optionally with dynamic regularization), then iteratively
/// refine to a componentwise backward-error certificate.
///
/// Every outcome is structured: numerical breakdown without
/// `regularize` surfaces as [`MatrixError::NotPositiveDefinite`], and a
/// solve that cannot reach the target returns normally with
/// `report.certified == false` — never a panic, never a silently bad
/// answer.
pub fn certified_solve(
    a: &CscMatrix,
    b: &DenseMatrix,
    opts: &CertifyOptions,
) -> Result<CertifiedSolve, MatrixError> {
    validate_finite("rhs", b.as_slice())?;
    let scaling = if opts.scale {
        Some(equilibrate_sym(a)?)
    } else {
        validate_finite("matrix values", a.values())?;
        None
    };
    let work_a = scaling.as_ref().map_or(a, |s| &s.scaled);
    let fopts = FactorOptions {
        regularize: opts.regularize,
        beta: opts.beta,
    };
    let solver = SparseCholeskySolver::factor_opts(work_a, fopts)?;
    let work_b = match &scaling {
        Some(s) => s.scale_rhs(b)?,
        None => b.clone(),
    };
    let (xs, mut report) = refine(&solver, work_a, &work_b, &opts.refine)?;
    report.scaling_ratio = scaling.as_ref().map(|s| s.ratio());
    if opts.condition {
        report.condition_estimate =
            Some(estimate::condition_estimate(work_a, solver.factor_matrix()));
    }
    let x = match &scaling {
        Some(s) => s.unscale_solution(&xs)?,
        None => xs,
    };
    Ok(CertifiedSolve { x, report })
}

/// A certified solution from the mixed-precision pipeline
/// ([`certified_solve_mixed`]).
#[derive(Debug, Clone)]
pub struct MixedSolve {
    /// The solution in the original (unscaled) variables.
    pub x: DenseMatrix,
    /// What the pipeline did and how good the answer is. When
    /// `fell_back` is set this reports the `f64` lane that produced the
    /// answer, not the abandoned `f32` attempt.
    pub report: SolveReport,
    /// `true` when the `f32` lane stagnated short of the certificate and
    /// the pipeline transparently refactored in `f64`. A fallback is a
    /// counted outcome, never an error.
    pub fell_back: bool,
}

/// End-to-end **mixed-precision** certified solve of `A·X = B`: factor in
/// `f64`, demote the factor to `f32` (halving the resident bytes the
/// solve streams), then run [`refine`] on the narrow lane — `f32`
/// triangular solves, `f64` residuals — to the same componentwise
/// certificate as
/// [`certified_solve`]. If the narrow lane stagnates short of the target,
/// the pipeline transparently refactors in `f64` and refines there
/// (`fell_back = true`); the caller always gets either a certified answer
/// or an honest `certified == false` report from the wide lane.
///
/// The `f64` factor is dropped as soon as it is demoted — deliberately
/// mirroring cache residency in the server tier, where only the narrow
/// factor stays resident and a fallback really does refactor.
pub fn certified_solve_mixed(
    a: &CscMatrix,
    b: &DenseMatrix,
    opts: &CertifyOptions,
) -> Result<MixedSolve, MatrixError> {
    validate_finite("rhs", b.as_slice())?;
    let scaling = if opts.scale {
        Some(equilibrate_sym(a)?)
    } else {
        validate_finite("matrix values", a.values())?;
        None
    };
    let work_a = scaling.as_ref().map_or(a, |s| &s.scaled);
    let fopts = FactorOptions {
        regularize: opts.regularize,
        beta: opts.beta,
    };
    let solver32 = {
        let solver = SparseCholeskySolver::factor_opts(work_a, fopts)?;
        solver.demote()
        // f64 factor dropped here: only the narrow lane stays resident
    };
    let work_b = match &scaling {
        Some(s) => s.scale_rhs(b)?,
        None => b.clone(),
    };
    let (xs, report32) = refine(&solver32, work_a, &work_b, &opts.refine)?;
    let (xs, mut report, fell_back) = if report32.certified {
        (xs, report32, false)
    } else {
        let solver = SparseCholeskySolver::factor_opts(work_a, fopts)?;
        let (xw, repw) = refine(&solver, work_a, &work_b, &opts.refine)?;
        (xw, repw, true)
    };
    report.scaling_ratio = scaling.as_ref().map(|s| s.ratio());
    if opts.condition {
        // estimate on a fresh f64 factor: the narrow factor would skew the
        // Hager–Higham probe solves
        let est = SparseCholeskySolver::factor_opts(work_a, fopts)?;
        report.condition_estimate = Some(estimate::condition_estimate(work_a, est.factor_matrix()));
    }
    let x = match &scaling {
        Some(s) => s.unscale_solution(&xs)?,
        None => xs,
    };
    Ok(MixedSolve {
        x,
        report,
        fell_back,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolv_matrix::gen;

    #[test]
    fn exact_solution_certifies_immediately() {
        let a = gen::grid2d_laplacian(8, 8);
        let solver = SparseCholeskySolver::factor(&a).unwrap();
        let x_true = gen::random_rhs(64, 2, 3);
        let b = a.spmv_sym_lower(&x_true).unwrap();
        let (x, rep) = refine(&solver, &a, &b, &RefineOptions::default()).unwrap();
        assert!(rep.certified, "ω = {}", rep.backward_error);
        assert!(rep.backward_error <= 1e-10);
        assert!(x.max_abs_diff(&x_true).unwrap() < 1e-8);
        assert_eq!(rep.omega_history.len(), rep.iterations + 1);
    }

    #[test]
    fn refinement_repairs_a_perturbed_factor() {
        // Factor a nearby matrix (values off by 1e-4 relative) and refine
        // against the true one: the factor is only a preconditioner, the
        // certificate must still be reached and ω must fall monotonically.
        let a = gen::fem2d(6, 5, 2);
        let mut near = a.clone();
        for (k, v) in near.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + 1e-4 * ((k % 7) as f64 - 3.0);
        }
        let solver = SparseCholeskySolver::factor(&near).unwrap();
        let n = a.ncols();
        let x_true = gen::random_rhs(n, 1, 9);
        let b = a.spmv_sym_lower(&x_true).unwrap();
        let (x, rep) = refine(&solver, &a, &b, &RefineOptions::default()).unwrap();
        assert!(rep.certified, "ω = {}", rep.backward_error);
        assert!(rep.iterations >= 1, "perturbed factor needs refinement");
        for w in rep.omega_history.windows(2) {
            assert!(w[1] <= w[0], "ω must not increase: {:?}", rep.omega_history);
        }
        assert!(x.max_abs_diff(&x_true).unwrap() < 1e-6);
    }

    #[test]
    fn certified_solve_full_pipeline_with_scaling() {
        // badly scaled SPD matrix: graded diagonal spanning 8 decades
        let a = gen::graded_diagonal(60, 8);
        let x_true = gen::random_rhs(60, 1, 5);
        let b = a.spmv_sym_lower(&x_true).unwrap();
        let opts = CertifyOptions {
            scale: true,
            condition: true,
            ..CertifyOptions::default()
        };
        let out = certified_solve(&a, &b, &opts).unwrap();
        assert!(out.report.certified, "ω = {}", out.report.backward_error);
        let ratio = out.report.scaling_ratio.unwrap();
        assert!(ratio > 1e3, "graded matrix should report heavy scaling");
        assert!(out.report.condition_estimate.unwrap() >= 1.0);
        // solution is recovered in the *original* variables
        let r = a.residual_sym_lower(&out.x, &b).unwrap();
        assert!(r.norm_max() / b.norm_max() < 1e-9);
    }

    #[test]
    fn regularized_indefinite_matrix_is_refined_against_original() {
        // flip one diagonal entry: plain Cholesky breaks down, the
        // regularized pipeline factors A + δe_jeⱼᵀ and refinement measures
        // against the original A — outcome is structured either way.
        let mut a = gen::grid2d_laplacian(5, 5);
        let j = 12;
        let base = a.colptr()[j];
        let pos = a.col_rows(j).iter().position(|&i| i == j).unwrap();
        a.values_mut()[base + pos] = -2.0;
        let b = gen::random_rhs(25, 1, 7);
        // default policy: structured breakdown error
        assert!(matches!(
            certified_solve(&a, &b, &CertifyOptions::default()),
            Err(MatrixError::NotPositiveDefinite { .. })
        ));
        // regularized: runs to a structured report
        let opts = CertifyOptions {
            regularize: true,
            ..CertifyOptions::default()
        };
        let out = certified_solve(&a, &b, &opts).unwrap();
        assert!(out.report.perturbations >= 1);
        // the boost here is O(|pivot|), so refinement may or may not reach
        // the certificate — but the outcome must be structured either way:
        // a report with an honest ω, never a panic or a silent bad answer
        if out.report.certified {
            assert!(out.report.backward_error <= 1e-10);
            let r = a.residual_sym_lower(&out.x, &b).unwrap();
            assert!(r.norm_max() / b.norm_max() < 1e-6);
        } else {
            assert!(out.report.backward_error > 1e-10);
        }
        assert_eq!(
            out.report.omega_history.len(),
            out.report.iterations + 1,
            "history tracks accepted sweeps"
        );
    }

    #[test]
    fn non_finite_rhs_is_a_structured_error() {
        let a = gen::grid2d_laplacian(4, 4);
        let mut b = gen::random_rhs(16, 1, 1);
        b[(3, 0)] = f64::NAN;
        assert!(matches!(
            certified_solve(&a, &b, &CertifyOptions::default()),
            Err(MatrixError::NonFinite { .. })
        ));
        let solver = SparseCholeskySolver::factor(&a).unwrap();
        assert!(matches!(
            refine(&solver, &a, &b, &RefineOptions::default()),
            Err(MatrixError::NonFinite { .. })
        ));
    }

    #[test]
    fn mixed_refine_certifies_well_conditioned_systems() {
        for a in [gen::grid2d_laplacian(16, 16), gen::fem2d(8, 8, 3)] {
            let n = a.ncols();
            let solver = SparseCholeskySolver::factor(&a).unwrap();
            let solver32 = solver.demote();
            let x_true = gen::random_rhs(n, 2, 11);
            let b = a.spmv_sym_lower(&x_true).unwrap();
            let (x, rep) = refine(&solver32, &a, &b, &RefineOptions::default()).unwrap();
            assert!(rep.certified, "ω = {}", rep.backward_error);
            assert!(rep.backward_error <= 1e-10);
            assert!(rep.iterations >= 1, "first sweep is unconditional");
            assert!(x.max_abs_diff(&x_true).unwrap() < 1e-7);
            // deterministic: same inputs, same bits
            let (x2, rep2) = refine(&solver32, &a, &b, &RefineOptions::default()).unwrap();
            assert_eq!(x.as_slice(), x2.as_slice());
            assert_eq!(rep.omega_history, rep2.omega_history);
        }
    }

    #[test]
    fn mixed_pipeline_falls_back_on_near_singular_matrix_and_still_certifies() {
        // smallest eigenvalue exactly 1e-12: κ ≈ 1e13 is *spectral*
        // ill-conditioning (no diagonal scaling fixes it). Refinement on
        // the demoted factor stagnates near ω ≈ 1e-7 — backward-error
        // refinement is forgiving, but not thirteen decades forgiving —
        // while the f64 lane (κ·ε₆₄ ≈ 2e-3) still converges, so the
        // pipeline must transparently refactor and certify there.
        let a = gen::rank_deficient_grid(12, 12, 1e-12);
        let x_true = gen::random_rhs(144, 1, 3);
        let b = a.spmv_sym_lower(&x_true).unwrap();
        let out = certified_solve_mixed(&a, &b, &CertifyOptions::default()).unwrap();
        assert!(out.fell_back, "f32 lane should stagnate at κ ≈ 1e13");
        assert!(out.report.certified, "ω = {}", out.report.backward_error);
        let r = a.residual_sym_lower(&out.x, &b).unwrap();
        assert!(r.norm_max() / b.norm_max() < 1e-9);
    }

    #[test]
    fn equilibration_composes_with_demotion() {
        // the same graded matrix, scaled first: equilibration tames the
        // value range before demotion, so the narrow lane certifies
        // without falling back
        let a = gen::graded_diagonal(80, 10);
        let x_true = gen::random_rhs(80, 1, 3);
        let b = a.spmv_sym_lower(&x_true).unwrap();
        let opts = CertifyOptions {
            scale: true,
            condition: true,
            ..CertifyOptions::default()
        };
        let out = certified_solve_mixed(&a, &b, &opts).unwrap();
        assert!(!out.fell_back, "equilibration should rescue the f32 lane");
        assert!(out.report.certified, "ω = {}", out.report.backward_error);
        assert!(out.report.scaling_ratio.unwrap() > 1e3);
        assert!(out.report.condition_estimate.unwrap() >= 1.0);
        let r = a.residual_sym_lower(&out.x, &b).unwrap();
        assert!(r.norm_max() / b.norm_max() < 1e-9);
    }

    #[test]
    fn mixed_zero_rhs_certifies_after_one_free_sweep() {
        let a = gen::grid2d_laplacian(4, 4);
        let b = DenseMatrix::zeros(16, 1);
        let out = certified_solve_mixed(&a, &b, &CertifyOptions::default()).unwrap();
        assert!(out.report.certified);
        assert!(!out.fell_back);
        assert_eq!(out.report.backward_error, 0.0);
        assert!(out.x.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_rhs_certifies_trivially() {
        let a = gen::grid2d_laplacian(4, 4);
        let b = DenseMatrix::zeros(16, 1);
        let out = certified_solve(&a, &b, &CertifyOptions::default()).unwrap();
        assert!(out.report.certified);
        assert_eq!(out.report.backward_error, 0.0);
        assert_eq!(out.report.iterations, 0);
        assert!(out.x.as_slice().iter().all(|&v| v == 0.0));
    }
}
