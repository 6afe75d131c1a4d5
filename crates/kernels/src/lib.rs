//! # sod2-kernels — executable operator kernels
//!
//! Reference CPU implementations of every executable operator in the
//! [`sod2_ir::Op`] set, plus the tiled GEMM/Conv variants whose
//! configurations the multi-version code generator (paper §4.4.2) searches.
//!
//! The single entry point for engines is [`execute_op`]; individual kernels
//! are also exported for direct use by fused-group execution and tests.
//!
//! # Examples
//!
//! ```
//! use sod2_ir::{Op, BinaryOp};
//! use sod2_tensor::Tensor;
//! use sod2_kernels::execute_op;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = Tensor::from_f32(&[2], vec![1.0, 2.0]);
//! let b = Tensor::from_f32(&[2], vec![3.0, 4.0]);
//! let out = execute_op(&Op::Binary(BinaryOp::Add), &[&a, &b])?;
//! assert_eq!(out[0].as_f32()?, &[4.0, 6.0]);
//! # Ok(())
//! # }
//! ```

// Kernels sit on the inference hot path: every failure must surface as a
// typed `KernelError`, never a panic. Provably-infallible sites carry a
// scoped `allow` with the invariant that makes them so.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

/// Size cutoff (output elements × per-element inner-loop operations)
/// below which kernels run their loop nests serially instead of paying
/// the pool's region-submission overhead. The chunk decomposition above
/// the cutoff never depends on the thread count, so outputs are bitwise
/// identical either way.
pub(crate) const PAR_CUTOFF_OPS: usize = 1 << 14;

/// Writes every NaN in `out` as the canonical quiet NaN `f32::NAN`.
///
/// Which NaN an IEEE operation returns depends on its operands' order:
/// on x86 an invalid operation yields a negative default NaN, and adding
/// two NaNs returns the first operand's. The compiler may swap the
/// operands of a float add or multiply, so without this pass the sign of
/// a NaN output would depend on code generation. The GEMM and conv
/// kernels run it over each finished pool chunk, and f32 `Binary` and
/// each `Binary` step of a fused chain apply [`canonical_nan`] to every
/// value they compute, which keeps their bitwise contract in every build
/// profile.
pub(crate) fn canonical_nans(out: &mut [f32]) {
    for v in out {
        *v = canonical_nan(*v);
    }
}

/// `v`, or `f32::NAN` when `v` is any NaN (see [`canonical_nans`]).
#[inline]
pub(crate) fn canonical_nan(v: f32) -> f32 {
    if v.is_nan() {
        f32::NAN
    } else {
        v
    }
}

pub mod conv;
pub mod dynamic;
pub mod elementwise;
mod error;
mod exec;
pub mod fused;
pub mod linalg;
pub mod math;
pub mod numerics;
pub mod reduce;
pub mod shape_ops;

pub use conv::{conv2d_naive, conv2d_with_params, ConvLoopOrder, ConvParams, PoolMode};
pub use error::KernelError;
pub use exec::{execute_op, execute_op_with_gemm, execute_op_with_variants};
pub use fused::{fused_elementwise, fused_output_shape, FusedStep};
pub use linalg::{
    gemm_naive, gemm_tiled, gemm_with_params, matmul_with_params, GemmParams, LoopOrder,
    MicroKernel,
};
