//! Seeded inputs. The program under test sees only these matrices and
//! right-hand sides; the workload seed never reaches it any other way.

use trisolv_matrix::rng::Rng;
use trisolv_matrix::{gen, CscMatrix, DenseMatrix};

/// The generator matrix for `spec` with a seeded shift in `[0, 0.25)`
/// added to every diagonal entry: same structure (and so the same
/// ordering, supernodes and plan) for every seed, different values and a
/// different fingerprint, still symmetric positive definite.
pub fn matrix(spec: &str, seed: u64) -> CscMatrix {
    let mut a = gen::from_spec(spec).unwrap_or_else(|e| panic!("matrix spec {spec:?}: {e}"));
    let mut rng = Rng::seed_from_u64(seed);
    let diag: Vec<usize> = (0..a.ncols())
        .map(|j| {
            let at = a.col_rows(j).iter().position(|&i| i == j);
            a.colptr()[j] + at.expect("generator matrices store their diagonal")
        })
        .collect();
    let values = a.values_mut();
    for k in diag {
        values[k] += rng.range_f64(0.0, 0.25);
    }
    a
}

/// Right-hand sides a served stream cycles through.
pub const POOL: usize = 64;

/// `count` right-hand sides of length `n` with entries in `[-1, 1)`.
pub fn rhs_pool(n: usize, count: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed_f00d);
    (0..count)
        .map(|_| (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect())
        .collect()
}

/// The `n × nrhs` right-hand-side block of a library workload.
pub fn rhs_block(n: usize, nrhs: usize, seed: u64) -> DenseMatrix {
    let cols = rhs_pool(n, nrhs, seed);
    DenseMatrix::from_column_major(n, nrhs, cols.concat()).expect("n × nrhs values")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_values_and_nothing_else() {
        let a = matrix("grid2d:6", 1);
        let b = matrix("grid2d:6", 2);
        assert_eq!(a.values(), matrix("grid2d:6", 1).values());
        assert_eq!((a.colptr(), a.rowidx()), (b.colptr(), b.rowidx()));
        assert_ne!(a.values(), b.values());
        let plain = gen::from_spec("grid2d:6").unwrap();
        for j in 0..36 {
            assert!((4.0..4.25).contains(&a.get(j, j)));
        }
        assert_eq!(a.get(1, 0), plain.get(1, 0));
        assert_ne!(rhs_pool(5, 2, 1), rhs_pool(5, 2, 2));
        assert_eq!(rhs_pool(5, 2, 1), rhs_pool(5, 2, 1));
    }
}
