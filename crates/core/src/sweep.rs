//! What one supernode computes in forward and back substitution, written
//! once per direction.
//!
//! Every formulation in this crate — the sequential sweeps, the threaded
//! executor's subtree tasks and fine-grained top units, both storage
//! lanes — does the same per-supernode work (paper §2.1/§2.2) and differs
//! only in which supernodes it visits in what order and where their working
//! vectors live. The helpers here are that work:
//!
//! * forward: [`forward_gather`] the supernode's own right-hand-side rows,
//!   [`extend_add`] each child's update (children ascending), then
//!   [`forward_solve`] — dense triangle, then the rectangle update;
//! * backward: gather the solved below-rows (the caller knows where they
//!   live), then [`backward_solve`] — transposed rectangle, then the
//!   transposed triangle.
//!
//! Because every path calls these and nothing else touches the kernels,
//! the bit-identity of seq and threaded results per lane holds by
//! construction. [`forward_sweep`] and [`backward_sweep`] are the serial
//! orderings, writing into caller-held buffers so the sequential solver
//! (fresh buffers) and the threaded executor's serial route (workspace
//! buffers) share them.

use std::ops::Range;

use trisolv_factor::{blas, FScalar, FactorBlocks};
use trisolv_matrix::DenseMatrix;

use crate::plan::SolvePlan;

/// Widen a solved column of storage-scalar values into an `f64` output
/// slice (as many values as `dst` holds). Identity for `f64`; exact
/// widening for `f32`.
#[inline]
pub(crate) fn publish_col<S: FScalar>(dst: &mut [f64], src: &[S]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s.to_f64();
    }
}

/// Forward, first step: load `b`'s rows `cols` into the top of each
/// working column of `w` (leading dimension `ns`) and zero the rows below,
/// the extend-add target. Narrows per element when the storage scalar is
/// narrower than `f64`.
#[inline]
pub(crate) fn forward_gather<S: FScalar>(
    w: &mut [S],
    ns: usize,
    b: &DenseMatrix,
    cols: Range<usize>,
    nrhs: usize,
) {
    let t = cols.len();
    for r in 0..nrhs {
        let wc = &mut w[r * ns..(r + 1) * ns];
        for (d, &v) in wc[..t].iter_mut().zip(&b.col(r)[cols.clone()]) {
            *d = S::from_f64(v);
        }
        wc[t..].fill(S::ZERO);
    }
}

/// Forward, once per child: add child `c`'s below block (`cbuf` starts at
/// its full-height working vector) into its parent's working vector `w`
/// (leading dimension `ns`) through the plan's scatter map.
#[inline]
pub(crate) fn extend_add<S: FScalar>(
    w: &mut [S],
    ns: usize,
    cbuf: &[S],
    plan: &SolvePlan,
    c: usize,
    nrhs: usize,
) {
    let nsc = plan.height(c);
    let tc = plan.width(c);
    let scat = plan.scatter(c);
    for r in 0..nrhs {
        let src = &cbuf[r * nsc + tc..(r + 1) * nsc];
        let dst = &mut w[r * ns..(r + 1) * ns];
        for (&v, &p) in src.iter().zip(scat) {
            dst[p] += v;
        }
    }
}

/// Forward, last step: `w_top ← L11⁻¹·w_top`, then `w_below −= L21·w_top`
/// over all right-hand sides. The top is copied into `top_copy` (at least
/// `t·nrhs` long) so the GEMM sees disjoint operand slices.
#[inline]
pub(crate) fn forward_solve<S: FScalar>(
    blk: &[S],
    ns: usize,
    t: usize,
    nrhs: usize,
    w: &mut [S],
    top_copy: &mut [S],
) {
    blas::trsm_lower_left(blk, ns, w, ns, t, nrhs);
    if ns > t {
        for r in 0..nrhs {
            top_copy[r * t..(r + 1) * t].copy_from_slice(&w[r * ns..r * ns + t]);
        }
        blas::gemm_update(
            &mut w[t..],
            ns,
            &blk[t..],
            ns,
            &top_copy[..t * nrhs],
            t,
            ns - t,
            nrhs,
            t,
        );
    }
}

/// Backward, after the caller gathered the solved below-rows into `below`
/// (`(ns − t) × nrhs`, leading dimension `ns − t`): load `y`'s rows `cols`
/// into the top of `w` (leading dimension `ldw`), subtract `L21ᵀ·below`,
/// then solve `L11ᵀ·x_top = w_top` in place. Each inner product keeps a
/// single accumulator over ascending rows, so the blocked kernel and the
/// one-column fast path agree bit for bit.
#[inline]
pub(crate) fn backward_solve<S: FScalar>(
    blk: &[S],
    ns: usize,
    nrhs: usize,
    w: &mut [S],
    ldw: usize,
    y: &DenseMatrix,
    cols: Range<usize>,
    below: &[S],
) {
    let t = cols.len();
    for r in 0..nrhs {
        for (d, &v) in w[r * ldw..r * ldw + t]
            .iter_mut()
            .zip(&y.col(r)[cols.clone()])
        {
            *d = S::from_f64(v);
        }
    }
    let nb = ns - t;
    if nb > 0 {
        blas::gemm_tn_update(w, ldw, &blk[t..], ns, below, nb, t, nrhs, nb);
    }
    blas::trsm_lower_trans_left(blk, ns, w, ldw, t, nrhs);
}

/// Serial forward sweep, leaf to root (ascending index — the partition is
/// postordered), into caller-held buffers: supernode `s`'s working vector
/// lives at `arena[off[s]·nrhs..]` (leading dimension `height(s)`), and
/// `top_copy` holds at least the widest supernode's `t·nrhs` values. Each
/// supernode's solved top rows are written to `y` as soon as they exist.
pub(crate) fn forward_sweep<F: FactorBlocks>(
    f: &F,
    plan: &SolvePlan,
    b: &DenseMatrix,
    arena: &mut [F::S],
    off: &[usize],
    top_copy: &mut [F::S],
    y: &mut DenseMatrix,
) {
    let nrhs = b.ncols();
    for s in 0..plan.nsup() {
        let ns = plan.height(s);
        let cols = plan.cols(s);
        // children sit at lower indices, hence lower arena offsets
        let (done, rest) = arena.split_at_mut(off[s] * nrhs);
        let w = &mut rest[..ns * nrhs];
        forward_gather(w, ns, b, cols.clone(), nrhs);
        for &c in plan.children(s) {
            extend_add(w, ns, &done[off[c] * nrhs..], plan, c, nrhs);
        }
        forward_solve(f.values(s), ns, cols.len(), nrhs, w, top_copy);
        for r in 0..nrhs {
            publish_col(&mut y.col_mut(r)[cols.clone()], &w[r * ns..]);
        }
    }
}

/// Serial backward sweep, root to leaf, straight into `x`: one compact
/// work panel `work` (leading dimension `ldw` ≥ the tallest supernode) and
/// a `below` buffer holding the largest `(height − width)·nrhs`. The
/// below-rows are read from `x` itself — ancestors sit later in postorder,
/// so they are already solved — and narrowed once per row.
pub(crate) fn backward_sweep<F: FactorBlocks>(
    f: &F,
    y: &DenseMatrix,
    work: &mut [F::S],
    ldw: usize,
    below: &mut [F::S],
    x: &mut DenseMatrix,
) {
    let part = f.partition();
    let nrhs = y.ncols();
    for s in (0..part.nsup()).rev() {
        let rows = part.rows(s);
        let cols = part.cols(s);
        let below_rows = &rows[cols.len()..];
        let nb = below_rows.len();
        for r in 0..nrhs {
            let xc = x.col(r);
            for (d, &gi) in below[r * nb..(r + 1) * nb].iter_mut().zip(below_rows) {
                *d = F::S::from_f64(xc[gi]);
            }
        }
        backward_solve(
            f.values(s),
            rows.len(),
            nrhs,
            work,
            ldw,
            y,
            cols.clone(),
            &below[..nb * nrhs],
        );
        for r in 0..nrhs {
            publish_col(&mut x.col_mut(r)[cols.clone()], &work[r * ldw..]);
        }
    }
}
