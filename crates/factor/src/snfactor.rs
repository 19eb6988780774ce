//! Supernodal storage of the Cholesky factor.

use crate::fscalar::FactorBlocks;
use trisolv_matrix::{CscMatrix, DenseMatrix, MatrixError, TripletMatrix};
use trisolv_symbolic::SupernodePartition;

/// The Cholesky factor `L` stored supernode by supernode.
///
/// Each supernode `s` owns a dense `n_s × t_s` **trapezoidal block** in
/// column-major order: rows are the supernode's row pattern
/// (`partition.rows(s)`, global indices), columns are its `t_s` columns.
/// The top `t_s × t_s` part is lower-triangular (its strict upper triangle
/// is stored as zeros), the rest is the dense rectangular sub-diagonal
/// part. This is exactly the unit the paper's pipelined kernels operate on.
#[derive(Debug, Clone)]
pub struct SupernodalFactor {
    part: SupernodePartition,
    blocks: Vec<DenseMatrix>,
    /// Diagonal boosts applied by dynamic regularization, as
    /// `(global column, added perturbation)` in the permuted ordering;
    /// empty for a plain factorization.
    perturbations: Vec<(usize, f64)>,
}

impl SupernodalFactor {
    /// Assemble from a partition and per-supernode blocks (validated for
    /// shape).
    pub fn new(part: SupernodePartition, blocks: Vec<DenseMatrix>) -> Self {
        assert_eq!(blocks.len(), part.nsup());
        for s in 0..part.nsup() {
            assert_eq!(
                blocks[s].shape(),
                (part.height(s), part.width(s)),
                "block {s} shape mismatch"
            );
        }
        SupernodalFactor {
            part,
            blocks,
            perturbations: Vec::new(),
        }
    }

    /// Record the diagonal perturbations a regularized factorization
    /// applied (see `seqchol::factor_supernodal_opts`).
    pub fn set_perturbations(&mut self, perturbations: Vec<(usize, f64)>) {
        self.perturbations = perturbations;
    }

    /// Diagonal perturbations applied by dynamic regularization:
    /// `(global column, boost added to the pivot)` pairs in the permuted
    /// ordering, empty for a plain factorization. This factor represents
    /// `A + Σ δ_j·e_j·e_jᵀ`, not `A` — iterative refinement against the
    /// *original* matrix compensates for the difference.
    pub fn perturbations(&self) -> &[(usize, f64)] {
        &self.perturbations
    }

    /// The supernode partition.
    pub fn partition(&self) -> &SupernodePartition {
        &self.part
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.part.n()
    }

    /// Number of supernodes.
    pub fn nsup(&self) -> usize {
        self.part.nsup()
    }

    /// The dense trapezoid of supernode `s`.
    pub fn block(&self, s: usize) -> &DenseMatrix {
        &self.blocks[s]
    }

    /// Mutable access to the trapezoid of supernode `s`.
    pub fn block_mut(&mut self, s: usize) -> &mut DenseMatrix {
        &mut self.blocks[s]
    }

    /// Reconstruct `L` as a CSC matrix (for verification and export).
    pub fn to_csc(&self) -> CscMatrix {
        let n = self.n();
        let mut t = TripletMatrix::new(n, n);
        for s in 0..self.nsup() {
            let rows = self.part.rows(s);
            let cols = self.part.cols(s);
            let blk = &self.blocks[s];
            for (lj, j) in cols.enumerate() {
                for (li, &i) in rows.iter().enumerate().skip(lj) {
                    let v = blk[(li, lj)];
                    if v != 0.0 {
                        t.push(i, j, v).unwrap();
                    }
                }
            }
        }
        t.to_csc()
    }

    /// Compute `L·X` for a dense block (reference helper for tests).
    pub fn l_times(&self, x: &DenseMatrix) -> DenseMatrix {
        let l = self.to_csc();
        l.spmv(x).expect("dimension checked by caller")
    }

    /// Compute `L·Lᵀ·X` (reference helper: verifies `L` against `A` via
    /// matrix-vector products without forming `L·Lᵀ`).
    pub fn llt_times(&self, x: &DenseMatrix) -> DenseMatrix {
        let l = self.to_csc();
        let y = l.transpose().spmv(x).expect("shape ok");
        l.spmv(&y).expect("shape ok")
    }

    /// Nonzeros stored (trapezoid entries at or below the diagonal).
    pub fn nnz(&self) -> usize {
        self.part.nnz()
    }

    /// Total stored values across all trapezoids (Σ height·width — larger
    /// than [`Self::nnz`] because the strict upper triangle of each top
    /// block is stored as explicit zeros).
    pub fn value_count(&self) -> usize {
        self.blocks.iter().map(|b| b.as_slice().len()).sum()
    }

    /// Demote the factor to `f32` storage (round-to-nearest per entry).
    ///
    /// The partition is shared structure and the recorded perturbations are
    /// kept verbatim in `f64` — they describe what the *factorization* did,
    /// not how the result is stored. This is the cache-insert step of the
    /// mixed-precision lane: factorization always runs in `f64`, only the
    /// resident representation narrows.
    pub fn demote(&self) -> SupernodalFactorF32 {
        let blocks = self
            .blocks
            .iter()
            .map(|b| b.as_slice().iter().map(|&v| v as f32).collect())
            .collect();
        SupernodalFactorF32 {
            part: self.part.clone(),
            blocks,
            perturbations: self.perturbations.clone(),
        }
    }
}

impl FactorBlocks for SupernodalFactor {
    type S = f64;

    fn partition(&self) -> &SupernodePartition {
        &self.part
    }

    fn values(&self, s: usize) -> &[f64] {
        self.blocks[s].as_slice()
    }

    fn perturbations(&self) -> &[(usize, f64)] {
        &self.perturbations
    }

    fn from_flat_values(
        part: SupernodePartition,
        values: &[f64],
        perturbations: Vec<(usize, f64)>,
    ) -> Result<Self, MatrixError> {
        let blocks = split_flat(&part, values)?
            .into_iter()
            .enumerate()
            .map(|(s, v)| DenseMatrix::from_column_major(part.height(s), part.width(s), v.to_vec()))
            .collect::<Result<_, _>>()?;
        let mut factor = SupernodalFactor::new(part, blocks);
        factor.set_perturbations(perturbations);
        Ok(factor)
    }
}

/// Cut flat persisted values into per-supernode trapezoids
/// (`height(s)·width(s)` values each, supernode order), failing with
/// `InvalidStructure` when the count does not match the partition.
fn split_flat<'v, S>(
    part: &SupernodePartition,
    values: &'v [S],
) -> Result<Vec<&'v [S]>, MatrixError> {
    let total: usize = (0..part.nsup())
        .map(|s| part.height(s) * part.width(s))
        .sum();
    if total != values.len() {
        return Err(MatrixError::InvalidStructure(format!(
            "persisted factor has {} values but the partition holds {}",
            values.len(),
            total
        )));
    }
    let mut rest = values;
    Ok((0..part.nsup())
        .map(|s| {
            let (head, tail) = rest.split_at(part.height(s) * part.width(s));
            rest = tail;
            head
        })
        .collect())
}

/// An `f32`-storage twin of [`SupernodalFactor`]: same partition, same
/// column-major trapezoids, half the bytes per value. Produced by
/// [`SupernodalFactor::demote`] — never factored directly — and consumed
/// by the generic solve kernels through [`FactorBlocks`].
#[derive(Debug, Clone)]
pub struct SupernodalFactorF32 {
    part: SupernodePartition,
    blocks: Vec<Vec<f32>>,
    /// Perturbations inherited from the f64 factorization (see
    /// [`SupernodalFactor::perturbations`]); kept in `f64`.
    perturbations: Vec<(usize, f64)>,
}

impl SupernodalFactorF32 {
    /// The supernode partition.
    pub fn partition(&self) -> &SupernodePartition {
        &self.part
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.part.n()
    }

    /// Number of supernodes.
    pub fn nsup(&self) -> usize {
        self.part.nsup()
    }

    /// The flat column-major values of supernode `s`'s trapezoid.
    pub fn values(&self, s: usize) -> &[f32] {
        &self.blocks[s]
    }

    /// Perturbations inherited from the originating f64 factorization.
    pub fn perturbations(&self) -> &[(usize, f64)] {
        &self.perturbations
    }

    /// Nonzeros stored (trapezoid entries at or below the diagonal).
    pub fn nnz(&self) -> usize {
        self.part.nnz()
    }

    /// Total stored values across all trapezoids (Σ height·width).
    pub fn value_count(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// Mutable access to supernode `s`'s values. Exists for integrity
    /// drills (bit flips simulating silent corruption); normal solves
    /// never mutate the factor.
    pub fn values_mut(&mut self, s: usize) -> &mut [f32] {
        &mut self.blocks[s]
    }
}

impl FactorBlocks for SupernodalFactorF32 {
    type S = f32;

    fn partition(&self) -> &SupernodePartition {
        &self.part
    }

    fn values(&self, s: usize) -> &[f32] {
        &self.blocks[s]
    }

    fn perturbations(&self) -> &[(usize, f64)] {
        &self.perturbations
    }

    fn from_flat_values(
        part: SupernodePartition,
        values: &[f32],
        perturbations: Vec<(usize, f64)>,
    ) -> Result<Self, MatrixError> {
        let blocks = split_flat(&part, values)?
            .into_iter()
            .map(<[f32]>::to_vec)
            .collect();
        Ok(SupernodalFactorF32 {
            part,
            blocks,
            perturbations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolv_graph::EliminationTree;
    use trisolv_matrix::gen;
    use trisolv_symbolic::{SupernodePartition, SymbolicFactor};

    fn small_partition() -> SupernodePartition {
        let a = gen::grid2d_laplacian(3, 3);
        let t = EliminationTree::from_sym_lower(&a);
        let post = t.postorder();
        let pa = a.permute_sym_lower(post.as_slice()).unwrap();
        let t = EliminationTree::from_sym_lower(&pa);
        let sym = SymbolicFactor::analyze(&pa, &t);
        SupernodePartition::from_symbolic(&sym)
    }

    fn identity_factor(part: SupernodePartition) -> SupernodalFactor {
        let blocks: Vec<DenseMatrix> = (0..part.nsup())
            .map(|s| {
                let mut b = DenseMatrix::zeros(part.height(s), part.width(s));
                for k in 0..part.width(s) {
                    b[(k, k)] = 1.0;
                }
                b
            })
            .collect();
        SupernodalFactor::new(part, blocks)
    }

    #[test]
    fn identity_blocks_give_identity_l() {
        let part = small_partition();
        let n = part.n();
        let f = identity_factor(part);
        let l = f.to_csc();
        assert_eq!(l.nnz(), n);
        for j in 0..n {
            assert_eq!(l.get(j, j), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_block_shape_rejected() {
        let part = small_partition();
        let blocks: Vec<DenseMatrix> = (0..part.nsup()).map(|_| DenseMatrix::zeros(1, 1)).collect();
        SupernodalFactor::new(part, blocks);
    }

    #[test]
    fn demote_truncates_values_and_keeps_structure() {
        let part = small_partition();
        let mut f = identity_factor(part);
        // plant a value that is not f32-representable
        let fine = 1.0 + f64::EPSILON;
        f.block_mut(0)[(0, 0)] = fine;
        f.set_perturbations(vec![(3, 0.25)]);
        let d = f.demote();
        assert_eq!(d.nsup(), f.nsup());
        assert_eq!(d.n(), f.n());
        assert_eq!(d.value_count(), f.value_count());
        assert_eq!(d.values(0)[0], 1.0f32, "round-to-nearest demotion");
        assert_eq!(d.perturbations(), f.perturbations(), "perturbations kept");
        // flat round-trip reassembles bit-identically
        let mut flat = Vec::new();
        for s in 0..d.nsup() {
            flat.extend_from_slice(d.values(s));
        }
        let re = SupernodalFactorF32::from_flat_values(
            d.partition().clone(),
            &flat,
            d.perturbations().to_vec(),
        )
        .unwrap();
        for s in 0..d.nsup() {
            assert_eq!(re.values(s), d.values(s));
        }
        // wrong value count is a structured error, not a panic
        let err = SupernodalFactorF32::from_flat_values(d.partition().clone(), &flat[1..], vec![]);
        assert!(matches!(err, Err(MatrixError::InvalidStructure(_))));
    }

    #[test]
    fn l_times_matches_csc() {
        let part = small_partition();
        let n = part.n();
        let f = identity_factor(part);
        let x = gen::random_rhs(n, 2, 1);
        let y = f.l_times(&x);
        assert!(y.max_abs_diff(&x).unwrap() < 1e-15);
    }
}
