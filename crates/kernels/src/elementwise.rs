//! Element-wise kernels: unary, binary (broadcasting), compare, select.
//!
//! Each op has one named scalar function. [`unary_fn`], [`binary_fn_f32`]
//! and [`binary_fn_i64`] return it as a `fn` pointer for callers that
//! evaluate one value at a time (constant folding, fused chains); the
//! kernels instantiate their loops from the same function item, so LLVM
//! inlines it and vectorizes the contiguous cases. Broadcast operands are
//! read through a [`RunWalk`]: a loop per contiguous run, specialized on
//! each operand's step (0 or 1), instead of index arithmetic per element.

use crate::canonical_nan;
use crate::error::{dtype_err, shape_err, KernelError};
use crate::math;
use sod2_ir::{BinaryOp, CompareOp, DType, UnaryOp};
use sod2_tensor::{broadcast_output_shape, BroadcastIndexer, Data, RunWalk, Tensor};

/// Pool grain for element-wise loops: tensors at or below this size run
/// as a single (inline, serial) chunk, larger ones are split at
/// grain-multiple boundaries independent of the thread count.
const EW_GRAIN: usize = crate::PAR_CUTOFF_OPS;

/// Evaluates `$body` with `$f` bound to the function of the arm `$op`
/// matches, so each loop in `$body` is monomorphized over that function.
macro_rules! bind_op {
    ($op:expr, $f:ident => $body:expr, { $($arm:path => $fun:expr),+ $(,)? }) => {
        match $op {
            $($arm => {
                let $f = $fun;
                $body
            })+
        }
    };
}

/// [`bind_op!`] over the named scalar function of each [`UnaryOp`].
macro_rules! with_unary {
    ($op:expr, $f:ident => $body:expr) => {
        bind_op!($op, $f => $body, {
            UnaryOp::Relu => relu,
            UnaryOp::LeakyRelu => leaky_relu,
            UnaryOp::Sigmoid => sigmoid,
            UnaryOp::Tanh => math::tanh,
            UnaryOp::Gelu => gelu,
            UnaryOp::Erf => erf_f32,
            UnaryOp::Exp => math::exp,
            UnaryOp::Log => f32::ln,
            UnaryOp::Sqrt => f32::sqrt,
            UnaryOp::Neg => neg,
            UnaryOp::Abs => f32::abs,
            UnaryOp::Round => f32::round_ties_even,
            UnaryOp::Floor => f32::floor,
            UnaryOp::Ceil => f32::ceil,
            UnaryOp::Softplus => softplus,
            UnaryOp::Silu => silu,
            UnaryOp::HardSigmoid => hard_sigmoid,
            UnaryOp::HardSwish => hard_swish,
            UnaryOp::Elu => elu,
            UnaryOp::Selu => selu,
            UnaryOp::Sign => sign,
            UnaryOp::Reciprocal => reciprocal,
            UnaryOp::Sin => f32::sin,
            UnaryOp::Cos => f32::cos,
        })
    };
}

/// [`bind_op!`] over the f32 scalar function of each [`BinaryOp`].
macro_rules! with_binary_f32 {
    ($op:expr, $f:ident => $body:expr) => {
        bind_op!($op, $f => $body, {
            BinaryOp::Add => add_f32,
            BinaryOp::Sub => sub_f32,
            BinaryOp::Mul => mul_f32,
            BinaryOp::Div => div_f32,
            BinaryOp::Pow => f32::powf,
            BinaryOp::Min => f32::min,
            BinaryOp::Max => f32::max,
            BinaryOp::Mod => mod_f32,
        })
    };
}

/// [`bind_op!`] over the i64 scalar function of each [`BinaryOp`].
macro_rules! with_binary_i64 {
    ($op:expr, $f:ident => $body:expr) => {
        bind_op!($op, $f => $body, {
            BinaryOp::Add => i64::wrapping_add,
            BinaryOp::Sub => i64::wrapping_sub,
            BinaryOp::Mul => i64::wrapping_mul,
            BinaryOp::Div => div_i64,
            BinaryOp::Pow => pow_i64,
            BinaryOp::Min => i64::min,
            BinaryOp::Max => i64::max,
            BinaryOp::Mod => mod_i64,
        })
    };
}

/// Applies a unary function element-wise.
pub fn unary(op: UnaryOp, x: &Tensor) -> Result<Tensor, KernelError> {
    let xs = x.as_f32().map_err(|e| dtype_err("Unary", e.to_string()))?;
    Ok(Tensor::from_f32(
        x.shape(),
        with_unary!(op, f => map_f32(xs, f)),
    ))
}

/// `f` over every element of `xs`, in pool chunks of [`EW_GRAIN`].
fn map_f32(xs: &[f32], f: impl Fn(f32) -> f32 + Sync) -> Vec<f32> {
    let mut out = vec![0f32; xs.len()];
    sod2_pool::scope_chunks(&mut out, EW_GRAIN, |off, chunk| {
        let src = &xs[off..off + chunk.len()];
        for (o, &v) in chunk.iter_mut().zip(src) {
            *o = f(v);
        }
    });
    out
}

/// The scalar function for a [`UnaryOp`] (exactly the kernel's).
pub fn unary_fn(op: UnaryOp) -> fn(f32) -> f32 {
    with_unary!(op, f => f)
}

fn relu(v: f32) -> f32 {
    v.max(0.0)
}

fn leaky_relu(v: f32) -> f32 {
    if v >= 0.0 {
        v
    } else {
        0.01 * v
    }
}

// The functions that call `math::exp`/`math::tanh` are
// `#[inline(always)]`: a call left in `map_f32`'s loop keeps it scalar
// (GELU on 1×400×32 took 146 µs with a call per element, 37 µs inlined),
// and the attribute keeps that from resting on LLVM's inlining heuristic.

#[inline(always)]
fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + math::exp(-v))
}

/// A NaN input gives `f32::NAN`: the product would otherwise meet the
/// input's NaN and `tanh`'s in an order code generation may swap.
#[inline(always)]
fn gelu(v: f32) -> f32 {
    let u = (2.0f32 / std::f32::consts::PI).sqrt() * (v + 0.044_715 * v * v * v);
    canonical_nan(0.5 * v * (1.0 + math::tanh(u)))
}

fn neg(v: f32) -> f32 {
    -v
}

#[inline(always)]
fn softplus(v: f32) -> f32 {
    (1.0 + math::exp(v)).ln()
}

#[inline(always)]
fn silu(v: f32) -> f32 {
    v / (1.0 + math::exp(-v))
}

fn hard_sigmoid(v: f32) -> f32 {
    (v / 6.0 + 0.5).clamp(0.0, 1.0)
}

fn hard_swish(v: f32) -> f32 {
    v * (v / 6.0 + 0.5).clamp(0.0, 1.0)
}

fn elu(v: f32) -> f32 {
    if v >= 0.0 {
        v
    } else {
        v.exp_m1()
    }
}

fn selu(v: f32) -> f32 {
    const ALPHA: f32 = 1.673_263_2;
    const SCALE: f32 = 1.050_701;
    if v >= 0.0 {
        SCALE * v
    } else {
        SCALE * ALPHA * v.exp_m1()
    }
}

fn sign(v: f32) -> f32 {
    if v > 0.0 {
        1.0
    } else if v < 0.0 {
        -1.0
    } else {
        0.0
    }
}

fn reciprocal(v: f32) -> f32 {
    1.0 / v
}

/// Abramowitz–Stegun rational approximation of `erf` (|err| < 1.5e-7). A
/// NaN input gives `f32::NAN`, as in [`gelu`].
#[allow(clippy::excessive_precision)] // published coefficients, kept verbatim
#[inline(always)]
fn erf_f32(x: f32) -> f32 {
    let sign = x.signum();
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    canonical_nan(sign * (1.0 - poly * math::exp(-x * x)))
}

/// Element-wise binary arithmetic with broadcasting (f32 or i64).
///
/// f32 outputs write every NaN as `f32::NAN`: vectorized code may swap
/// the operands of a commutative op, which changes which NaN comes out.
pub fn binary(op: BinaryOp, a: &Tensor, b: &Tensor) -> Result<Tensor, KernelError> {
    let out_shape = broadcast_output_shape(a.shape(), b.shape())
        .ok_or_else(|| shape_err("Binary", format!("{:?} vs {:?}", a.shape(), b.shape())))?;
    let n: usize = out_shape.iter().product();
    let walk = RunWalk::new(&out_shape, &[a.shape(), b.shape()]);
    match (a.data(), b.data()) {
        (Data::F32(av), Data::F32(bv)) => {
            let mut out = vec![0f32; n];
            sod2_pool::scope_chunks(&mut out, EW_GRAIN, |off, chunk| {
                with_binary_f32!(op, f => {
                    zip_runs(&walk, av, bv, off, chunk, |x, y| canonical_nan(f(x, y)));
                });
            });
            Ok(Tensor::from_f32(&out_shape, out))
        }
        (Data::I64(av), Data::I64(bv)) => {
            let mut out = vec![0i64; n];
            with_binary_i64!(op, f => zip_runs(&walk, av, bv, 0, &mut out, f));
            Ok(Tensor::from_i64(&out_shape, out))
        }
        _ => Err(dtype_err(
            "Binary",
            format!("{} vs {}", a.dtype_name(), b.dtype_name()),
        )),
    }
}

/// Writes `f(a, b)` into `out`, which holds output offsets
/// `[off, off + out.len())` of `walk`. Each run's loop is specialized on
/// the two operands' steps, so the contiguous cases vectorize.
fn zip_runs<T: Copy, U: Copy>(
    walk: &RunWalk,
    av: &[T],
    bv: &[T],
    off: usize,
    out: &mut [U],
    f: impl Fn(T, T) -> U,
) {
    let (a_moves, b_moves) = (walk.step(0) == 1, walk.step(1) == 1);
    walk.for_each_run(off, out.len(), |o, len, src| {
        let dst = &mut out[o - off..o - off + len];
        let (ia, ib) = (src[0], src[1]);
        match (a_moves, b_moves) {
            (true, true) => {
                for ((d, &x), &y) in dst.iter_mut().zip(&av[ia..ia + len]).zip(&bv[ib..ib + len]) {
                    *d = f(x, y);
                }
            }
            (true, false) => {
                let y = bv[ib];
                for (d, &x) in dst.iter_mut().zip(&av[ia..ia + len]) {
                    *d = f(x, y);
                }
            }
            (false, true) => {
                let x = av[ia];
                for (d, &y) in dst.iter_mut().zip(&bv[ib..ib + len]) {
                    *d = f(x, y);
                }
            }
            (false, false) => dst.fill(f(av[ia], bv[ib])),
        }
    });
}

/// The per-element reference for [`binary`]: serial, every operand offset
/// computed by [`BroadcastIndexer`], the op called through its `fn`
/// pointer, and NaN outputs left as the arithmetic produced them. No
/// dispatch path runs it; tests and `bench_kernels` compare against it.
pub fn binary_naive(op: BinaryOp, a: &Tensor, b: &Tensor) -> Result<Tensor, KernelError> {
    let out_shape = broadcast_output_shape(a.shape(), b.shape())
        .ok_or_else(|| shape_err("Binary", format!("{:?} vs {:?}", a.shape(), b.shape())))?;
    let n: usize = out_shape.iter().product();
    let ia = BroadcastIndexer::new(&out_shape, a.shape());
    let ib = BroadcastIndexer::new(&out_shape, b.shape());
    match (a.data(), b.data()) {
        (Data::F32(av), Data::F32(bv)) => {
            let f = binary_fn_f32(op);
            let out = (0..n)
                .map(|i| f(av[ia.src_offset(i)], bv[ib.src_offset(i)]))
                .collect();
            Ok(Tensor::from_f32(&out_shape, out))
        }
        (Data::I64(av), Data::I64(bv)) => {
            let f = binary_fn_i64(op);
            let out = (0..n)
                .map(|i| f(av[ia.src_offset(i)], bv[ib.src_offset(i)]))
                .collect();
            Ok(Tensor::from_i64(&out_shape, out))
        }
        _ => Err(dtype_err(
            "Binary",
            format!("{} vs {}", a.dtype_name(), b.dtype_name()),
        )),
    }
}

/// The scalar f32 function for a [`BinaryOp`] (exactly the kernel's).
pub fn binary_fn_f32(op: BinaryOp) -> fn(f32, f32) -> f32 {
    with_binary_f32!(op, f => f)
}

/// The scalar i64 function for a [`BinaryOp`] (exactly the kernel's).
pub fn binary_fn_i64(op: BinaryOp) -> fn(i64, i64) -> i64 {
    with_binary_i64!(op, f => f)
}

fn add_f32(x: f32, y: f32) -> f32 {
    x + y
}

fn sub_f32(x: f32, y: f32) -> f32 {
    x - y
}

fn mul_f32(x: f32, y: f32) -> f32 {
    x * y
}

fn div_f32(x: f32, y: f32) -> f32 {
    x / y
}

fn mod_f32(x: f32, y: f32) -> f32 {
    x - y * (x / y).floor()
}

// Integer `Div`, `Pow` and `Mod` wrap on overflow, like `Add`/`Sub`/`Mul`
// (`i64::MIN / -1 = i64::MIN`, `i64::MIN mod -1 = 0`, `3^63` wraps), so
// debug and release builds — and constant folding — agree and never panic.

fn div_i64(x: i64, y: i64) -> i64 {
    if y == 0 {
        0
    } else {
        x.wrapping_div_euclid(y)
    }
}

fn pow_i64(x: i64, y: i64) -> i64 {
    x.wrapping_pow(y.clamp(0, 63) as u32)
}

fn mod_i64(x: i64, y: i64) -> i64 {
    if y == 0 {
        0
    } else {
        x.wrapping_rem_euclid(y)
    }
}

/// Element-wise comparison with broadcasting; returns a `bool` tensor.
pub fn compare(op: CompareOp, a: &Tensor, b: &Tensor) -> Result<Tensor, KernelError> {
    let out_shape = broadcast_output_shape(a.shape(), b.shape())
        .ok_or_else(|| shape_err("Compare", format!("{:?} vs {:?}", a.shape(), b.shape())))?;
    let n: usize = out_shape.iter().product();
    let walk = RunWalk::new(&out_shape, &[a.shape(), b.shape()]);
    let mut out = vec![false; n];
    match (a.data(), b.data()) {
        (Data::F32(av), Data::F32(bv)) => compare_runs(op, &walk, av, bv, &mut out),
        (Data::I64(av), Data::I64(bv)) => compare_runs(op, &walk, av, bv, &mut out),
        _ => {
            return Err(dtype_err(
                "Compare",
                format!("{} vs {}", a.dtype_name(), b.dtype_name()),
            ))
        }
    }
    Ok(Tensor::from_bool(&out_shape, out))
}

fn compare_runs<T: PartialOrd + Copy>(
    op: CompareOp,
    walk: &RunWalk,
    av: &[T],
    bv: &[T],
    out: &mut [bool],
) {
    match op {
        CompareOp::Equal => zip_runs(walk, av, bv, 0, out, |x, y| x == y),
        CompareOp::Less => zip_runs(walk, av, bv, 0, out, |x, y| x < y),
        CompareOp::Greater => zip_runs(walk, av, bv, 0, out, |x, y| x > y),
    }
}

/// `Where(cond, a, b)` with broadcasting.
pub fn where_select(cond: &Tensor, a: &Tensor, b: &Tensor) -> Result<Tensor, KernelError> {
    let ab = broadcast_output_shape(a.shape(), b.shape())
        .ok_or_else(|| shape_err("Where", "a/b not compatible"))?;
    let out_shape = broadcast_output_shape(cond.shape(), &ab)
        .ok_or_else(|| shape_err("Where", "cond not compatible"))?;
    let cv = cond
        .as_bool()
        .map_err(|e| dtype_err("Where", e.to_string()))?;
    let av = a.as_f32().map_err(|e| dtype_err("Where", e.to_string()))?;
    let bv = b.as_f32().map_err(|e| dtype_err("Where", e.to_string()))?;
    let n: usize = out_shape.iter().product();
    let walk = RunWalk::new(&out_shape, &[cond.shape(), a.shape(), b.shape()]);
    let (sc, sa, sb) = (walk.step(0), walk.step(1), walk.step(2));
    let mut out = vec![0f32; n];
    sod2_pool::scope_chunks(&mut out, EW_GRAIN, |off, chunk| {
        walk.for_each_run(off, chunk.len(), |o, len, src| {
            for (i, slot) in chunk[o - off..o - off + len].iter_mut().enumerate() {
                *slot = if cv[src[0] + i * sc] {
                    av[src[1] + i * sa]
                } else {
                    bv[src[2] + i * sb]
                };
            }
        });
    });
    Ok(Tensor::from_f32(&out_shape, out))
}

/// `Clip(x, min, max)`.
pub fn clip(x: &Tensor, min: f32, max: f32) -> Result<Tensor, KernelError> {
    let xs = x.as_f32().map_err(|e| dtype_err("Clip", e.to_string()))?;
    Ok(Tensor::from_f32(
        x.shape(),
        map_f32(xs, |v| v.clamp(min, max)),
    ))
}

/// `Cast(x)` to a target dtype.
pub fn cast(x: &Tensor, to: DType) -> Result<Tensor, KernelError> {
    let shape = x.shape().to_vec();
    let out = match (x.data(), to) {
        (Data::F32(v), DType::F32) => Data::F32(v.clone()),
        (Data::F32(v), DType::I64) => Data::I64(v.iter().map(|&x| x as i64).collect()),
        (Data::F32(v), DType::Bool) => Data::Bool(v.iter().map(|&x| x != 0.0).collect()),
        (Data::F32(v), DType::U8) => {
            Data::U8(v.iter().map(|&x| x.clamp(0.0, 255.0) as u8).collect())
        }
        (Data::I64(v), DType::F32) => Data::F32(v.iter().map(|&x| x as f32).collect()),
        (Data::I64(v), DType::I64) => Data::I64(v.clone()),
        (Data::I64(v), DType::Bool) => Data::Bool(v.iter().map(|&x| x != 0).collect()),
        (Data::I64(v), DType::U8) => Data::U8(v.iter().map(|&x| x.clamp(0, 255) as u8).collect()),
        (Data::Bool(v), DType::F32) => {
            Data::F32(v.iter().map(|&x| if x { 1.0 } else { 0.0 }).collect())
        }
        (Data::Bool(v), DType::I64) => Data::I64(v.iter().map(|&x| i64::from(x)).collect()),
        (Data::Bool(v), DType::Bool) => Data::Bool(v.clone()),
        (Data::Bool(v), DType::U8) => Data::U8(v.iter().map(|&x| u8::from(x)).collect()),
        (Data::U8(v), DType::F32) => Data::F32(v.iter().map(|&x| f32::from(x)).collect()),
        (Data::U8(v), DType::I64) => Data::I64(v.iter().map(|&x| i64::from(x)).collect()),
        (Data::U8(v), DType::Bool) => Data::Bool(v.iter().map(|&x| x != 0).collect()),
        (Data::U8(v), DType::U8) => Data::U8(v.clone()),
    };
    Tensor::new(&shape, out).map_err(|e| shape_err("Cast", e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_and_sigmoid() {
        let x = Tensor::from_f32(&[3], vec![-1.0, 0.0, 2.0]);
        let r = unary(UnaryOp::Relu, &x).expect("relu");
        assert_eq!(r.as_f32().expect("f32"), &[0.0, 0.0, 2.0]);
        let s = unary(UnaryOp::Sigmoid, &x).expect("sigmoid");
        assert!((s.as_f32().expect("f32")[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn broadcast_add_row() {
        let a = Tensor::from_f32(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_f32(&[3], vec![10., 20., 30.]);
        let c = binary(BinaryOp::Add, &a, &b).expect("add");
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.as_f32().expect("f32"), &[11., 22., 33., 14., 25., 36.]);
    }

    #[test]
    fn broadcast_incompatible_errors() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(binary(BinaryOp::Add, &a, &b).is_err());
    }

    #[test]
    fn i64_arithmetic() {
        let a = Tensor::from_i64(&[2], vec![10, 20]);
        let b = Tensor::from_i64(&[2], vec![3, 5]);
        let c = binary(BinaryOp::Div, &a, &b).expect("div");
        assert_eq!(c.as_i64().expect("i64"), &[3, 4]);
    }

    #[test]
    fn i64_overflow_wraps_in_kernels_and_folding() {
        let cases = [
            (BinaryOp::Div, i64::MIN, -1, i64::MIN),
            (BinaryOp::Mod, i64::MIN, -1, 0),
            (BinaryOp::Pow, 3, 63, 3i64.wrapping_pow(63)),
            (BinaryOp::Pow, 3, 1_000, 3i64.wrapping_pow(63)),
        ];
        for (op, x, y, want) in cases {
            let (a, b) = (
                Tensor::from_i64(&[1], vec![x]),
                Tensor::from_i64(&[1], vec![y]),
            );
            let got = binary(op, &a, &b).expect("binary");
            assert_eq!(got.as_i64().expect("i64"), &[want], "{op:?}({x}, {y})");
            assert_eq!(binary_fn_i64(op)(x, y), want, "folded {op:?}({x}, {y})");
        }
    }

    #[test]
    fn compare_and_where() {
        let a = Tensor::from_f32(&[3], vec![1., 5., 3.]);
        let b = Tensor::from_f32(&[3], vec![2., 2., 3.]);
        let m = compare(CompareOp::Greater, &a, &b).expect("cmp");
        assert_eq!(m.as_bool().expect("bool"), &[false, true, false]);
        let w = where_select(&m, &a, &b).expect("where");
        assert_eq!(w.as_f32().expect("f32"), &[2., 5., 3.]);
    }

    #[test]
    fn cast_roundtrip() {
        let x = Tensor::from_f32(&[2], vec![1.7, -2.3]);
        let i = cast(&x, DType::I64).expect("cast");
        assert_eq!(i.as_i64().expect("i64"), &[1, -2]);
        let f = cast(&i, DType::F32).expect("cast");
        assert_eq!(f.as_f32().expect("f32"), &[1.0, -2.0]);
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf_f32(0.0)).abs() < 1e-6);
        assert!((erf_f32(1.0) - 0.8427008).abs() < 1e-5);
        assert!((erf_f32(-1.0) + 0.8427008).abs() < 1e-5);
    }

    #[test]
    fn clip_bounds() {
        let x = Tensor::from_f32(&[3], vec![-5., 0.5, 5.]);
        let c = clip(&x, 0.0, 1.0).expect("clip");
        assert_eq!(c.as_f32().expect("f32"), &[0.0, 0.5, 1.0]);
    }
}
