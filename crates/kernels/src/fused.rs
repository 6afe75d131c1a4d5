//! Fused element-wise chain execution.
//!
//! The paper's RDP-enabled fusion culminates in *fused code generation*
//! (§4.2, Fig. 4): a chain of element-wise operators compiles to one loop
//! nest that never materializes intermediate tensors. This module is that
//! generated code's interpreter equivalent: it evaluates a whole chain one
//! output element at a time, reading every operand through the runs of one
//! broadcast [`RunWalk`] — the memory behaviour of the paper's fused kernel.
//!
//! Because element-wise operators are pointwise, the value of the chain at
//! an output coordinate depends only on the seed and operand values at the
//! broadcast-projected coordinate, regardless of the shapes intermediate
//! results *would* have had — which is what makes single-pass fusion sound
//! even across broadcasts.

use crate::canonical_nan;
use crate::elementwise::{binary_fn_f32, unary_fn};
use crate::error::{dtype_err, shape_err, KernelError};
use sod2_ir::{BinaryOp, UnaryOp};
use sod2_tensor::{broadcast_output_shape, RunWalk, Tensor};

/// One step of a fused element-wise chain.
#[derive(Debug, Clone)]
pub enum FusedStep<'a> {
    /// Apply a unary function to the flowing value.
    Unary(UnaryOp),
    /// Clamp the flowing value.
    Clip {
        /// Lower bound.
        min: f32,
        /// Upper bound.
        max: f32,
    },
    /// Combine the flowing value with an operand tensor (broadcast).
    Binary {
        /// The arithmetic operation.
        op: BinaryOp,
        /// The other operand.
        other: &'a Tensor,
        /// `true` when the flowing value is the left operand.
        chain_is_lhs: bool,
    },
}

/// Computes the output shape a fused chain produces.
///
/// # Errors
///
/// Returns an error when some operand is not broadcast-compatible.
pub fn fused_output_shape(
    seed: &Tensor,
    steps: &[FusedStep<'_>],
) -> Result<Vec<usize>, KernelError> {
    let mut shape = seed.shape().to_vec();
    for s in steps {
        if let FusedStep::Binary { other, .. } = s {
            shape = broadcast_output_shape(&shape, other.shape())
                .ok_or_else(|| shape_err("Fused", "operand not broadcastable"))?;
        }
    }
    Ok(shape)
}

/// Executes a fused element-wise chain in a single pass, materializing only
/// the final output.
///
/// Each value is bitwise what node-by-node execution computes: every step
/// is the kernel's scalar function, and a `Binary` step writes a NaN as
/// `f32::NAN`, as [`crate::elementwise::binary`] does.
///
/// # Errors
///
/// Returns kernel errors for non-f32 operands or incompatible broadcasts.
pub fn fused_elementwise(seed: &Tensor, steps: &[FusedStep<'_>]) -> Result<Tensor, KernelError> {
    let out_shape = fused_output_shape(seed, steps)?;
    let n: usize = out_shape.iter().product();
    // Operand 0 is the seed, operand k the k-th `Binary` step's tensor.
    let mut shapes = vec![seed.shape()];
    let mut values = vec![seed
        .as_f32()
        .map_err(|e| dtype_err("Fused", e.to_string()))?];
    for s in steps {
        if let FusedStep::Binary { other, .. } = s {
            shapes.push(other.shape());
            values.push(
                other
                    .as_f32()
                    .map_err(|e| dtype_err("Fused", e.to_string()))?,
            );
        }
    }
    let walk = RunWalk::new(&out_shape, &shapes);
    let moves: Vec<usize> = (0..values.len()).map(|k| walk.step(k)).collect();
    let mut out = vec![0f32; n];
    // Pointwise: output chunks are fully independent, so split at
    // thread-count-independent grain boundaries.
    sod2_pool::scope_chunks(&mut out, crate::PAR_CUTOFF_OPS, |off, chunk| {
        walk.for_each_run(off, chunk.len(), |o, len, src| {
            for (i, slot) in chunk[o - off..o - off + len].iter_mut().enumerate() {
                let at = |k: usize| values[k][src[k] + i * moves[k]];
                let mut v = at(0);
                let mut operand = 0;
                for s in steps {
                    v = match s {
                        FusedStep::Unary(u) => unary_fn(*u)(v),
                        FusedStep::Clip { min, max } => v.clamp(*min, *max),
                        FusedStep::Binary {
                            op, chain_is_lhs, ..
                        } => {
                            operand += 1;
                            let (x, f) = (at(operand), binary_fn_f32(*op));
                            canonical_nan(if *chain_is_lhs { f(v, x) } else { f(x, v) })
                        }
                    };
                }
                *slot = v;
            }
        });
    });
    Tensor::new(&out_shape, sod2_tensor::Data::F32(out))
        .map_err(|e| shape_err("Fused", e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elementwise::{binary, unary};

    #[test]
    fn chain_matches_stepwise_execution() {
        let x = Tensor::from_f32(&[2, 3], vec![-1.0, 0.5, 2.0, -3.0, 4.0, 0.0]);
        let bias = Tensor::from_f32(&[3], vec![0.1, -0.2, 0.3]);
        // relu(x) * 2 + bias, then sigmoid.
        let two = Tensor::from_f32(&[1], vec![2.0]);
        let steps = [
            FusedStep::Unary(UnaryOp::Relu),
            FusedStep::Binary {
                op: BinaryOp::Mul,
                other: &two,
                chain_is_lhs: true,
            },
            FusedStep::Binary {
                op: BinaryOp::Add,
                other: &bias,
                chain_is_lhs: true,
            },
            FusedStep::Unary(UnaryOp::Sigmoid),
        ];
        let fused = fused_elementwise(&x, &steps).expect("fused");

        let a = unary(UnaryOp::Relu, &x).expect("relu");
        let b = binary(BinaryOp::Mul, &a, &two).expect("mul");
        let c = binary(BinaryOp::Add, &b, &bias).expect("add");
        let want = unary(UnaryOp::Sigmoid, &c).expect("sigmoid");
        assert_eq!(fused.payload_le_bytes(), want.payload_le_bytes());
    }

    #[test]
    fn broadcast_grows_through_chain() {
        // Seed [1] broadcasts against [2, 2]: the output adopts the larger
        // shape mid-chain (the Fig. 4 situation).
        let x = Tensor::from_f32(&[1], vec![3.0]);
        let big = Tensor::from_f32(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let steps = [
            FusedStep::Unary(UnaryOp::Neg),
            FusedStep::Binary {
                op: BinaryOp::Add,
                other: &big,
                chain_is_lhs: true,
            },
        ];
        let fused = fused_elementwise(&x, &steps).expect("fused");
        assert_eq!(fused.shape(), &[2, 2]);
        assert_eq!(fused.as_f32().expect("f32"), &[-2.0, -1.0, 0.0, 1.0]);
    }

    #[test]
    fn rhs_position_respected() {
        // 10 - x: the chain value is the RIGHT operand.
        let x = Tensor::from_f32(&[2], vec![1.0, 4.0]);
        let ten = Tensor::from_f32(&[1], vec![10.0]);
        let steps = [FusedStep::Binary {
            op: BinaryOp::Sub,
            other: &ten,
            chain_is_lhs: false,
        }];
        let fused = fused_elementwise(&x, &steps).expect("fused");
        assert_eq!(fused.as_f32().expect("f32"), &[9.0, 6.0]);
    }

    #[test]
    fn incompatible_operand_rejected() {
        let x = Tensor::zeros(&[2]);
        let bad = Tensor::zeros(&[3]);
        let steps = [FusedStep::Binary {
            op: BinaryOp::Add,
            other: &bad,
            chain_is_lhs: true,
        }];
        assert!(fused_elementwise(&x, &steps).is_err());
    }
}
