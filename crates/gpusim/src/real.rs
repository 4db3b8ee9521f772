//! The scalar the pair kernels are written over.
//!
//! Every production [`crate::SplitKernel`] body is generic over `T:
//! Real` and runs at `f64`, where every method below is the identity or
//! the `f64` method of the same name, so the monomorphised body is the
//! hand-written `f64` one, bit for bit. The same bodies instantiated at
//! [`crate::reference::Counted`] count the arithmetic they run, which is
//! what pins each kernel's `pair_flops()` table (DESIGN.md, "FLOP
//! tables").

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A floating-point scalar: the operators the kernels use, constants,
/// and the few methods they call.
pub trait Real:
    Copy
    + Default
    + PartialOrd
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
{
    /// The constant `x`. Fold constant expressions inside the call
    /// (`T::c(35.0 / 3.0)`): the compiler folds them in `f64` code, and
    /// a counting scalar must not bill them per pair.
    fn c(x: f64) -> Self;
    /// The methods of `f64` by the same names.
    fn sqrt(self) -> Self;
    fn min(self, other: Self) -> Self;
    fn max(self, other: Self) -> Self;
    fn powi(self, n: i32) -> Self;
    /// `self * a + b` with one rounding: the one place an FMA is written.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// The value as an `f64`, for what stays `f64` (reaches, table
    /// indices); `to_bits` of that value.
    fn to_f64(self) -> f64;
    fn to_bits(self) -> u64;
}

// Every method is `#[inline]`: the kernels that call them live in other
// crates, and the release profile has no LTO.
impl Real for f64 {
    #[inline]
    fn c(x: f64) -> f64 {
        x
    }
    #[inline]
    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }
    #[inline]
    fn min(self, other: f64) -> f64 {
        f64::min(self, other)
    }
    #[inline]
    fn max(self, other: f64) -> f64 {
        f64::max(self, other)
    }
    #[inline]
    fn powi(self, n: i32) -> f64 {
        f64::powi(self, n)
    }
    #[inline]
    fn mul_add(self, a: f64, b: f64) -> f64 {
        f64::mul_add(self, a, b)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
}
