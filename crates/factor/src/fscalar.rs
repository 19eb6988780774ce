//! Storage-precision abstraction for the numeric factor and solve kernels.
//!
//! The solve hot path is memory-bandwidth-bound — the factor is streamed
//! once per substitution sweep — so halving the bytes per stored nonzero
//! is a direct win no scheduling change can match. [`FScalar`] abstracts
//! the *storage* scalar of the factor (`f64` or `f32`) for the four solve
//! kernels in [`crate::blas`] and the substitution drivers built on them;
//! factorization itself always runs in `f64` and is demoted afterwards
//! (see `SupernodalFactor::demote`). Right-hand sides, residuals, and
//! certificates stay in `f64` end to end — only the factor's resident
//! representation changes width.
//!
//! [`FactorBlocks`] is the read-only view the generic solvers consume: a
//! supernode partition plus one column-major trapezoid of `S` values per
//! supernode. It is implemented by both `SupernodalFactor` (`S = f64`) and
//! `SupernodalFactorF32` (`S = f32`), so one solver body monomorphizes to
//! both lanes with identical operation order — the `f64` instantiation is
//! bit-identical to the pre-generic code.

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use trisolv_matrix::MatrixError;
use trisolv_symbolic::SupernodePartition;

/// Scalar type a factor can be stored and streamed in.
///
/// The conversions define the mixed-precision contract: `from_f64`
/// truncates (rounds to nearest) on narrow types, `to_f64` is exact for
/// every type implemented here. Because `f32 → f64 → f32` round-trips to
/// the same bits, handing intermediate values through `f64`-typed buffers
/// never perturbs an `f32`-lane result.
pub trait FScalar:
    Copy
    + PartialEq
    + PartialOrd
    + Debug
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + SubAssign
{
    /// Additive identity (the zero-skip sentinel of the kernels).
    const ZERO: Self;
    /// Bytes per stored value (4 for `f32`, 8 for `f64`) — the quantity
    /// the cache byte budget charges.
    const BYTES: usize;
    /// Narrowing (or identity) conversion from the working precision.
    fn from_f64(v: f64) -> Self;
    /// Exact widening (or identity) conversion to the working precision.
    fn to_f64(self) -> f64;
}

impl FScalar for f64 {
    const ZERO: f64 = 0.0;
    const BYTES: usize = 8;
    #[inline(always)]
    fn from_f64(v: f64) -> f64 {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
}

impl FScalar for f32 {
    const ZERO: f32 = 0.0;
    const BYTES: usize = 4;
    #[inline(always)]
    fn from_f64(v: f64) -> f32 {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
}

/// Read-only supernodal factor view the generic substitution drivers
/// consume: the partition (structure) plus, per supernode, a column-major
/// `height(s) × width(s)` trapezoid of values with leading dimension
/// `height(s)`.
pub trait FactorBlocks: Sync {
    /// Storage scalar of the trapezoid values.
    type S: FScalar;

    /// The supernode partition (structure is precision-independent).
    fn partition(&self) -> &SupernodePartition;

    /// The flat column-major values of supernode `s`'s trapezoid
    /// (`height(s) * width(s)` entries, leading dimension `height(s)`).
    fn values(&self, s: usize) -> &[Self::S];

    /// Diagonal boosts the (always `f64`) factorization applied, as
    /// `(global column, perturbation)` pairs; empty for a plain factor.
    fn perturbations(&self) -> &[(usize, f64)];

    /// Reassemble from a partition plus flat persisted values — the
    /// per-supernode trapezoids concatenated in supernode order, exactly
    /// the layout [`Self::values`] exposes. Fails with `InvalidStructure`
    /// on a value-count mismatch (stale or foreign snapshot).
    fn from_flat_values(
        part: SupernodePartition,
        values: &[Self::S],
        perturbations: Vec<(usize, f64)>,
    ) -> Result<Self, MatrixError>
    where
        Self: Sized;

    /// Matrix order.
    fn n(&self) -> usize {
        self.partition().n()
    }

    /// Number of supernodes.
    fn nsup(&self) -> usize {
        self.partition().nsup()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip_exactly() {
        // f32 → f64 is exact, and truncating back recovers the same bits:
        // the invariant that lets f32-lane intermediates ride in f64
        // buffers without perturbation.
        for bits in [
            0x3f80_0001u32, // 1.0 + ulp
            0x0000_0001,    // smallest subnormal
            0x7f7f_ffff,    // largest finite
            0x8000_0000,    // -0.0
            0xc2c8_0000,    // -100.0
        ] {
            let v = f32::from_bits(bits);
            assert_eq!(f32::from_f64(v.to_f64()).to_bits(), bits);
        }
        assert_eq!(f64::from_f64(1.5f64.to_f64()), 1.5);
    }

    #[test]
    fn from_f64_truncates_to_nearest() {
        let fine = 1.0f64 + f64::EPSILON;
        assert_eq!(f32::from_f64(fine), 1.0f32);
        assert_eq!(<f32 as FScalar>::BYTES, 4);
        assert_eq!(<f64 as FScalar>::BYTES, 8);
        assert_eq!(<f32 as FScalar>::ZERO, 0.0f32);
    }
}
