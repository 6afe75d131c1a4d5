//! Compact binary serialization for graphs.
//!
//! Lets compiled pipelines persist and reload models (weights included)
//! without a textual format dependency. The encoding is a simple
//! little-endian tag-length-value layout over plain byte slices; it
//! round-trips every graph the builder can produce, including symbolic
//! input annotations.

use crate::dtype::{ConstData, DType};
use crate::graph::{Graph, TensorId};
use crate::op::{is_permutation, BinaryOp, CompareOp, Op, ReduceOp, Spatial2d, UnaryOp};
use sod2_sym::{DimExpr, DimValue, ShapeValue};
use std::fmt;

const MAGIC: &[u8; 4] = b"SOD2";
const VERSION: u8 = 1;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Wrong magic bytes or version.
    BadHeader,
    /// Truncated input.
    Truncated,
    /// An unknown tag byte.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// Payload inconsistency (length mismatch, invalid UTF-8, …).
    Corrupt(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadHeader => write!(f, "bad magic or unsupported version"),
            DecodeError::Truncated => write!(f, "unexpected end of input"),
            DecodeError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            DecodeError::Corrupt(what) => write!(f, "corrupt {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian appends onto the encoder's output buffer.
trait PutLe {
    fn put_u8(&mut self, v: u8);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
    fn put_i64_le(&mut self, v: i64);
    fn put_f32_le(&mut self, v: f32);
}

impl PutLe for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_i64_le(&mut self, v: i64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f32_le(&mut self, v: f32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

/// A consuming little-endian cursor over the decoder's input. Reads do
/// not bounds-check: the input comes from outside the program, so every
/// read is preceded by a [`need`] check that turns a short buffer into
/// [`DecodeError::Truncated`].
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn get_slice(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        head
    }

    fn get_array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        out.copy_from_slice(self.get_slice(N));
        out
    }

    fn get_u8(&mut self) -> u8 {
        self.get_array::<1>()[0]
    }
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.get_array())
    }
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.get_array())
    }
    fn get_i64_le(&mut self) -> i64 {
        i64::from_le_bytes(self.get_array())
    }
    fn get_f32_le(&mut self) -> f32 {
        f32::from_le_bytes(self.get_array())
    }
}

fn need(buf: &Reader<'_>, n: usize) -> Result<(), DecodeError> {
    if buf.remaining() < n {
        Err(DecodeError::Truncated)
    } else {
        Ok(())
    }
}

/// Bounds check for `count` elements of `elem` bytes each, guarding the
/// multiplication against corrupted (huge) length fields.
fn need_elems(buf: &Reader<'_>, count: usize, elem: usize) -> Result<(), DecodeError> {
    let total = count.checked_mul(elem).ok_or(DecodeError::Truncated)?;
    need(buf, total)
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &mut Reader<'_>) -> Result<String, DecodeError> {
    need(buf, 4)?;
    let n = buf.get_u32_le() as usize;
    need(buf, n)?;
    String::from_utf8(buf.get_slice(n).to_vec()).map_err(|_| DecodeError::Corrupt("utf8 string"))
}

fn put_expr(out: &mut Vec<u8>, e: &DimExpr) {
    match e {
        DimExpr::Const(v) => {
            out.put_u8(0);
            out.put_i64_le(*v);
        }
        DimExpr::Sym(s) => {
            out.put_u8(1);
            put_str(out, s);
        }
        DimExpr::Add(v) | DimExpr::Mul(v) | DimExpr::Min(v) | DimExpr::Max(v) => {
            out.put_u8(match e {
                DimExpr::Add(_) => 2,
                DimExpr::Mul(_) => 3,
                DimExpr::Min(_) => 7,
                _ => 8,
            });
            out.put_u32_le(v.len() as u32);
            for x in v {
                put_expr(out, x);
            }
        }
        DimExpr::FloorDiv(a, b) | DimExpr::CeilDiv(a, b) | DimExpr::Mod(a, b) => {
            out.put_u8(match e {
                DimExpr::FloorDiv(..) => 4,
                DimExpr::CeilDiv(..) => 5,
                _ => 6,
            });
            put_expr(out, a);
            put_expr(out, b);
        }
    }
}

fn get_expr(buf: &mut Reader<'_>) -> Result<DimExpr, DecodeError> {
    need(buf, 1)?;
    let tag = buf.get_u8();
    Ok(match tag {
        0 => {
            need(buf, 8)?;
            DimExpr::Const(buf.get_i64_le())
        }
        1 => DimExpr::sym(get_str(buf)?),
        2 | 3 | 7 | 8 => {
            need(buf, 4)?;
            let n = buf.get_u32_le() as usize;
            if !(2..=(1 << 20)).contains(&n) {
                return Err(DecodeError::Corrupt("n-ary expression arity"));
            }
            let mut parts = Vec::with_capacity(n);
            for _ in 0..n {
                parts.push(get_expr(buf)?);
            }
            // Rebuild through the canonicalizing constructors to restore
            // the invariants (they are no-ops on well-formed input).
            let combine = |a: DimExpr, b: DimExpr| match tag {
                2 => DimExpr::add(a, b),
                3 => DimExpr::mul(a, b),
                7 => DimExpr::min(a, b),
                _ => DimExpr::max(a, b),
            };
            parts
                .into_iter()
                .reduce(combine)
                .ok_or(DecodeError::Corrupt("empty n-ary expression"))?
        }
        4..=6 => {
            let a = get_expr(buf)?;
            let b = get_expr(buf)?;
            if b.as_const() == Some(0) {
                return Err(DecodeError::Corrupt("zero divisor"));
            }
            match tag {
                4 => DimExpr::floor_div(a, b),
                5 => DimExpr::ceil_div(a, b),
                _ => DimExpr::modulo(a, b),
            }
        }
        t => {
            return Err(DecodeError::BadTag {
                what: "expr",
                tag: t,
            })
        }
    })
}

fn put_shape(out: &mut Vec<u8>, s: &ShapeValue) {
    match s {
        ShapeValue::Undef => out.put_u8(0),
        ShapeValue::Nac => out.put_u8(2),
        ShapeValue::Ranked(dims) => {
            out.put_u8(1);
            out.put_u32_le(dims.len() as u32);
            for d in dims {
                match d {
                    DimValue::Undef => out.put_u8(0),
                    DimValue::Nac => out.put_u8(2),
                    DimValue::Expr(e) => {
                        out.put_u8(1);
                        put_expr(out, e);
                    }
                }
            }
        }
    }
}

fn get_shape(buf: &mut Reader<'_>) -> Result<ShapeValue, DecodeError> {
    need(buf, 1)?;
    Ok(match buf.get_u8() {
        0 => ShapeValue::Undef,
        2 => ShapeValue::Nac,
        1 => {
            need(buf, 4)?;
            let n = buf.get_u32_le() as usize;
            if n > 64 {
                return Err(DecodeError::Corrupt("rank"));
            }
            let mut dims = Vec::with_capacity(n);
            for _ in 0..n {
                need(buf, 1)?;
                dims.push(match buf.get_u8() {
                    0 => DimValue::Undef,
                    2 => DimValue::Nac,
                    1 => DimValue::Expr(get_expr(buf)?),
                    t => {
                        return Err(DecodeError::BadTag {
                            what: "dim",
                            tag: t,
                        })
                    }
                });
            }
            ShapeValue::Ranked(dims)
        }
        t => {
            return Err(DecodeError::BadTag {
                what: "shape",
                tag: t,
            })
        }
    })
}

fn dtype_tag(d: DType) -> u8 {
    match d {
        DType::F32 => 0,
        DType::I64 => 1,
        DType::Bool => 2,
        DType::U8 => 3,
    }
}

fn dtype_from(tag: u8) -> Result<DType, DecodeError> {
    Ok(match tag {
        0 => DType::F32,
        1 => DType::I64,
        2 => DType::Bool,
        3 => DType::U8,
        t => {
            return Err(DecodeError::BadTag {
                what: "dtype",
                tag: t,
            })
        }
    })
}

fn put_const(out: &mut Vec<u8>, d: &ConstData) {
    match d {
        ConstData::F32(v) => {
            out.put_u8(0);
            out.put_u64_le(v.len() as u64);
            for x in v {
                out.put_f32_le(*x);
            }
        }
        ConstData::I64(v) => {
            out.put_u8(1);
            out.put_u64_le(v.len() as u64);
            for x in v {
                out.put_i64_le(*x);
            }
        }
        ConstData::Bool(v) => {
            out.put_u8(2);
            out.put_u64_le(v.len() as u64);
            for x in v {
                out.put_u8(u8::from(*x));
            }
        }
        ConstData::U8(v) => {
            out.put_u8(3);
            out.put_u64_le(v.len() as u64);
            out.extend_from_slice(v);
        }
    }
}

fn get_const(buf: &mut Reader<'_>) -> Result<ConstData, DecodeError> {
    need(buf, 9)?;
    let tag = buf.get_u8();
    let n = buf.get_u64_le() as usize;
    Ok(match tag {
        0 => {
            need_elems(buf, n, 4)?;
            ConstData::F32((0..n).map(|_| buf.get_f32_le()).collect())
        }
        1 => {
            need_elems(buf, n, 8)?;
            ConstData::I64((0..n).map(|_| buf.get_i64_le()).collect())
        }
        2 => {
            need(buf, n)?;
            ConstData::Bool((0..n).map(|_| buf.get_u8() != 0).collect())
        }
        3 => {
            need(buf, n)?;
            ConstData::U8(buf.get_slice(n).to_vec())
        }
        t => {
            return Err(DecodeError::BadTag {
                what: "const",
                tag: t,
            })
        }
    })
}

fn put_i64s(out: &mut Vec<u8>, v: &[i64]) {
    out.put_u32_le(v.len() as u32);
    for x in v {
        out.put_i64_le(*x);
    }
}

fn get_i64s(buf: &mut Reader<'_>) -> Result<Vec<i64>, DecodeError> {
    need(buf, 4)?;
    let n = buf.get_u32_le() as usize;
    need_elems(buf, n, 8)?;
    Ok((0..n).map(|_| buf.get_i64_le()).collect())
}

fn put_spatial(out: &mut Vec<u8>, s: &Spatial2d) {
    for v in [
        s.kernel[0],
        s.kernel[1],
        s.stride[0],
        s.stride[1],
        s.padding[0],
        s.padding[1],
    ] {
        out.put_u32_le(v as u32);
    }
}

fn get_spatial(buf: &mut Reader<'_>) -> Result<Spatial2d, DecodeError> {
    need(buf, 24)?;
    let mut v = [0usize; 6];
    for slot in &mut v {
        *slot = buf.get_u32_le() as usize;
    }
    Ok(Spatial2d {
        kernel: [v[0], v[1]],
        stride: [v[2], v[3]],
        padding: [v[4], v[5]],
    })
}

fn unary_tag(u: UnaryOp) -> u8 {
    use UnaryOp::*;
    match u {
        Relu => 0,
        LeakyRelu => 1,
        Sigmoid => 2,
        Tanh => 3,
        Gelu => 4,
        Erf => 5,
        Exp => 6,
        Log => 7,
        Sqrt => 8,
        Neg => 9,
        Abs => 10,
        Round => 11,
        Floor => 12,
        Ceil => 13,
        Softplus => 14,
        Silu => 15,
        HardSigmoid => 16,
        HardSwish => 17,
        Elu => 18,
        Selu => 19,
        Sign => 20,
        Reciprocal => 21,
        Sin => 22,
        Cos => 23,
    }
}

fn unary_from(tag: u8) -> Result<UnaryOp, DecodeError> {
    use UnaryOp::*;
    Ok(match tag {
        0 => Relu,
        1 => LeakyRelu,
        2 => Sigmoid,
        3 => Tanh,
        4 => Gelu,
        5 => Erf,
        6 => Exp,
        7 => Log,
        8 => Sqrt,
        9 => Neg,
        10 => Abs,
        11 => Round,
        12 => Floor,
        13 => Ceil,
        14 => Softplus,
        15 => Silu,
        16 => HardSigmoid,
        17 => HardSwish,
        18 => Elu,
        19 => Selu,
        20 => Sign,
        21 => Reciprocal,
        22 => Sin,
        23 => Cos,
        t => {
            return Err(DecodeError::BadTag {
                what: "unary",
                tag: t,
            })
        }
    })
}

#[allow(clippy::too_many_lines)]
fn put_op(out: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Shape => out.put_u8(0),
        Op::Size => out.put_u8(1),
        Op::ConstantOfShape { value } => {
            out.put_u8(2);
            out.put_f32_le(*value);
        }
        Op::EyeLike => out.put_u8(3),
        Op::Binary(b) => {
            out.put_u8(4);
            out.put_u8(*b as u8);
        }
        Op::Compare(c) => {
            out.put_u8(5);
            out.put_u8(*c as u8);
        }
        Op::Unary(u) => {
            out.put_u8(6);
            out.put_u8(unary_tag(*u));
        }
        Op::Cast { to } => {
            out.put_u8(7);
            out.put_u8(dtype_tag(*to));
        }
        Op::Clip { min, max } => {
            out.put_u8(8);
            out.put_f32_le(*min);
            out.put_f32_le(*max);
        }
        Op::Where => out.put_u8(9),
        Op::Softmax { axis } => {
            out.put_u8(10);
            out.put_i64_le(*axis);
        }
        Op::Conv2d { spatial, groups } => {
            out.put_u8(11);
            put_spatial(out, spatial);
            out.put_u32_le(*groups as u32);
        }
        Op::MatMul => out.put_u8(12),
        Op::Gemm { trans_a, trans_b } => {
            out.put_u8(13);
            out.put_u8(u8::from(*trans_a));
            out.put_u8(u8::from(*trans_b));
        }
        Op::MaxPool2d { spatial } => {
            out.put_u8(14);
            put_spatial(out, spatial);
        }
        Op::AvgPool2d { spatial } => {
            out.put_u8(15);
            put_spatial(out, spatial);
        }
        Op::GlobalAvgPool => out.put_u8(16),
        Op::Reduce {
            op,
            axes,
            keep_dims,
        } => {
            out.put_u8(17);
            out.put_u8(*op as u8);
            put_i64s(out, axes);
            out.put_u8(u8::from(*keep_dims));
        }
        Op::ArgMax { axis, keep_dims } => {
            out.put_u8(18);
            out.put_i64_le(*axis);
            out.put_u8(u8::from(*keep_dims));
        }
        Op::Concat { axis } => {
            out.put_u8(19);
            out.put_i64_le(*axis);
        }
        Op::Transpose { perm } => {
            out.put_u8(20);
            put_i64s(out, &perm.iter().map(|&p| p as i64).collect::<Vec<_>>());
        }
        Op::Flatten { axis } => {
            out.put_u8(21);
            out.put_i64_le(*axis);
        }
        Op::LayerNorm { epsilon } => {
            out.put_u8(22);
            out.put_f32_le(*epsilon);
        }
        Op::BatchNorm { epsilon } => {
            out.put_u8(23);
            out.put_f32_le(*epsilon);
        }
        Op::Gather { axis } => {
            out.put_u8(24);
            out.put_i64_le(*axis);
        }
        Op::Pad { pads, value } => {
            out.put_u8(25);
            put_i64s(out, pads);
            out.put_f32_le(*value);
        }
        Op::Slice { starts, ends } => {
            out.put_u8(26);
            put_i64s(out, starts);
            put_i64s(out, ends);
        }
        Op::Unsqueeze { axes } => {
            out.put_u8(27);
            put_i64s(out, axes);
        }
        Op::Squeeze { axes } => {
            out.put_u8(28);
            put_i64s(out, axes);
        }
        Op::Identity => out.put_u8(29),
        Op::Reshape => out.put_u8(30),
        Op::Expand => out.put_u8(31),
        Op::Range => out.put_u8(32),
        Op::SliceDyn => out.put_u8(33),
        Op::TopK { axis } => {
            out.put_u8(34);
            out.put_i64_le(*axis);
        }
        Op::Resize => out.put_u8(35),
        Op::Tile => out.put_u8(36),
        Op::OneHot => out.put_u8(37),
        Op::NonZero => out.put_u8(38),
        Op::NonMaxSuppression { max_output } => {
            out.put_u8(39);
            out.put_u32_le(*max_output as u32);
        }
        Op::Switch { num_branches } => {
            out.put_u8(40);
            out.put_u32_le(*num_branches as u32);
        }
        Op::Combine { num_branches } => {
            out.put_u8(41);
            out.put_u32_le(*num_branches as u32);
        }
        Op::Split { axis, splits } => {
            out.put_u8(42);
            out.put_i64_le(*axis);
            put_i64s(out, splits);
        }
        Op::CumSum { axis } => {
            out.put_u8(43);
            out.put_i64_le(*axis);
        }
        Op::LogSoftmax { axis } => {
            out.put_u8(44);
            out.put_i64_le(*axis);
        }
        Op::InstanceNorm { epsilon } => {
            out.put_u8(45);
            out.put_f32_le(*epsilon);
        }
    }
}

#[allow(clippy::too_many_lines)]
fn get_op(buf: &mut Reader<'_>) -> Result<Op, DecodeError> {
    fn binary_from(tag: u8) -> Result<BinaryOp, DecodeError> {
        use BinaryOp::*;
        Ok(match tag {
            0 => Add,
            1 => Sub,
            2 => Mul,
            3 => Div,
            4 => Pow,
            5 => Min,
            6 => Max,
            7 => Mod,
            t => {
                return Err(DecodeError::BadTag {
                    what: "binary",
                    tag: t,
                })
            }
        })
    }
    fn compare_from(tag: u8) -> Result<CompareOp, DecodeError> {
        use CompareOp::*;
        Ok(match tag {
            0 => Equal,
            1 => Less,
            2 => Greater,
            t => {
                return Err(DecodeError::BadTag {
                    what: "compare",
                    tag: t,
                })
            }
        })
    }
    fn reduce_from(tag: u8) -> Result<ReduceOp, DecodeError> {
        use ReduceOp::*;
        Ok(match tag {
            0 => Sum,
            1 => Mean,
            2 => Max,
            3 => Min,
            4 => Prod,
            t => {
                return Err(DecodeError::BadTag {
                    what: "reduce",
                    tag: t,
                })
            }
        })
    }
    need(buf, 1)?;
    let tag = buf.get_u8();
    Ok(match tag {
        0 => Op::Shape,
        1 => Op::Size,
        2 => {
            need(buf, 4)?;
            Op::ConstantOfShape {
                value: buf.get_f32_le(),
            }
        }
        3 => Op::EyeLike,
        4 => {
            need(buf, 1)?;
            Op::Binary(binary_from(buf.get_u8())?)
        }
        5 => {
            need(buf, 1)?;
            Op::Compare(compare_from(buf.get_u8())?)
        }
        6 => {
            need(buf, 1)?;
            Op::Unary(unary_from(buf.get_u8())?)
        }
        7 => {
            need(buf, 1)?;
            Op::Cast {
                to: dtype_from(buf.get_u8())?,
            }
        }
        8 => {
            need(buf, 8)?;
            Op::Clip {
                min: buf.get_f32_le(),
                max: buf.get_f32_le(),
            }
        }
        9 => Op::Where,
        10 => {
            need(buf, 8)?;
            Op::Softmax {
                axis: buf.get_i64_le(),
            }
        }
        11 => {
            let spatial = get_spatial(buf)?;
            need(buf, 4)?;
            Op::Conv2d {
                spatial,
                groups: buf.get_u32_le() as usize,
            }
        }
        12 => Op::MatMul,
        13 => {
            need(buf, 2)?;
            Op::Gemm {
                trans_a: buf.get_u8() != 0,
                trans_b: buf.get_u8() != 0,
            }
        }
        14 => Op::MaxPool2d {
            spatial: get_spatial(buf)?,
        },
        15 => Op::AvgPool2d {
            spatial: get_spatial(buf)?,
        },
        16 => Op::GlobalAvgPool,
        17 => {
            need(buf, 1)?;
            let op = reduce_from(buf.get_u8())?;
            let axes = get_i64s(buf)?;
            need(buf, 1)?;
            Op::Reduce {
                op,
                axes,
                keep_dims: buf.get_u8() != 0,
            }
        }
        18 => {
            need(buf, 9)?;
            Op::ArgMax {
                axis: buf.get_i64_le(),
                keep_dims: buf.get_u8() != 0,
            }
        }
        19 => {
            need(buf, 8)?;
            Op::Concat {
                axis: buf.get_i64_le(),
            }
        }
        20 => {
            let perm = get_i64s(buf)?
                .into_iter()
                .map(usize::try_from)
                .collect::<Result<Vec<_>, _>>()
                .ok()
                .filter(|p| is_permutation(p))
                .ok_or(DecodeError::Corrupt("transpose perm"))?;
            Op::Transpose { perm }
        }
        21 => {
            need(buf, 8)?;
            Op::Flatten {
                axis: buf.get_i64_le(),
            }
        }
        22 => {
            need(buf, 4)?;
            Op::LayerNorm {
                epsilon: buf.get_f32_le(),
            }
        }
        23 => {
            need(buf, 4)?;
            Op::BatchNorm {
                epsilon: buf.get_f32_le(),
            }
        }
        24 => {
            need(buf, 8)?;
            Op::Gather {
                axis: buf.get_i64_le(),
            }
        }
        25 => {
            let pads = get_i64s(buf)?;
            need(buf, 4)?;
            Op::Pad {
                pads,
                value: buf.get_f32_le(),
            }
        }
        26 => Op::Slice {
            starts: get_i64s(buf)?,
            ends: get_i64s(buf)?,
        },
        27 => Op::Unsqueeze {
            axes: get_i64s(buf)?,
        },
        28 => Op::Squeeze {
            axes: get_i64s(buf)?,
        },
        29 => Op::Identity,
        30 => Op::Reshape,
        31 => Op::Expand,
        32 => Op::Range,
        33 => Op::SliceDyn,
        34 => {
            need(buf, 8)?;
            Op::TopK {
                axis: buf.get_i64_le(),
            }
        }
        35 => Op::Resize,
        36 => Op::Tile,
        37 => Op::OneHot,
        38 => Op::NonZero,
        39 => {
            need(buf, 4)?;
            Op::NonMaxSuppression {
                max_output: buf.get_u32_le() as usize,
            }
        }
        40 => {
            need(buf, 4)?;
            Op::Switch {
                num_branches: buf.get_u32_le() as usize,
            }
        }
        41 => {
            need(buf, 4)?;
            Op::Combine {
                num_branches: buf.get_u32_le() as usize,
            }
        }
        42 => {
            need(buf, 8)?;
            let axis = buf.get_i64_le();
            Op::Split {
                axis,
                splits: get_i64s(buf)?,
            }
        }
        43 => {
            need(buf, 8)?;
            Op::CumSum {
                axis: buf.get_i64_le(),
            }
        }
        44 => {
            need(buf, 8)?;
            Op::LogSoftmax {
                axis: buf.get_i64_le(),
            }
        }
        45 => {
            need(buf, 4)?;
            Op::InstanceNorm {
                epsilon: buf.get_f32_le(),
            }
        }
        t => return Err(DecodeError::BadTag { what: "op", tag: t }),
    })
}

/// Encodes a graph (structure, annotations, and constant payloads).
pub fn encode_graph(g: &Graph) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.put_u8(VERSION);
    // Tensors.
    out.put_u32_le(g.num_tensors() as u32);
    for t in g.tensor_ids() {
        let info = g.tensor(t);
        put_str(&mut out, &info.name);
        out.put_u8(dtype_tag(info.dtype));
        put_shape(&mut out, &info.shape);
        match &info.const_data {
            Some(d) => {
                out.put_u8(1);
                put_const(&mut out, d);
            }
            None => out.put_u8(0),
        }
    }
    // Nodes.
    out.put_u32_le(g.num_nodes() as u32);
    for n in g.nodes() {
        put_str(&mut out, &n.name);
        put_op(&mut out, &n.op);
        out.put_u32_le(n.inputs.len() as u32);
        for t in &n.inputs {
            out.put_u32_le(t.0);
        }
        out.put_u32_le(n.outputs.len() as u32);
        for t in &n.outputs {
            out.put_u32_le(t.0);
        }
    }
    // Graph inputs / outputs.
    out.put_u32_le(g.inputs().len() as u32);
    for t in g.inputs() {
        out.put_u32_le(t.0);
    }
    out.put_u32_le(g.outputs().len() as u32);
    for t in g.outputs() {
        out.put_u32_le(t.0);
    }
    out
}

/// Decodes a graph produced by [`encode_graph`].
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input; the decoded graph is
/// revalidated structurally before being returned.
pub fn decode_graph(data: &[u8]) -> Result<Graph, DecodeError> {
    let mut buf = Reader { rest: data };
    need(&buf, 5)?;
    if buf.get_array::<4>() != *MAGIC || buf.get_u8() != VERSION {
        return Err(DecodeError::BadHeader);
    }
    need(&buf, 4)?;
    let num_tensors = buf.get_u32_le() as usize;
    let mut tensors = Vec::with_capacity(num_tensors);
    for _ in 0..num_tensors {
        let name = get_str(&mut buf)?;
        need(&buf, 1)?;
        let dtype = dtype_from(buf.get_u8())?;
        let shape = get_shape(&mut buf)?;
        need(&buf, 1)?;
        let const_data = if buf.get_u8() == 1 {
            let d = get_const(&mut buf)?;
            if d.dtype() != dtype {
                return Err(DecodeError::Corrupt("const dtype"));
            }
            Some(d)
        } else {
            None
        };
        tensors.push((name, dtype, shape, const_data));
    }
    need(&buf, 4)?;
    let num_nodes = buf.get_u32_le() as usize;
    let mut nodes = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        let name = get_str(&mut buf)?;
        let op = get_op(&mut buf)?;
        need(&buf, 4)?;
        let n_in = buf.get_u32_le() as usize;
        need_elems(&buf, n_in, 4)?;
        let inputs: Vec<TensorId> = (0..n_in).map(|_| TensorId(buf.get_u32_le())).collect();
        need(&buf, 4)?;
        let n_out = buf.get_u32_le() as usize;
        need_elems(&buf, n_out, 4)?;
        let outputs: Vec<TensorId> = (0..n_out).map(|_| TensorId(buf.get_u32_le())).collect();
        nodes.push((name, op, inputs, outputs));
    }
    need(&buf, 4)?;
    let n_in = buf.get_u32_le() as usize;
    need_elems(&buf, n_in, 4)?;
    let inputs: Vec<TensorId> = (0..n_in).map(|_| TensorId(buf.get_u32_le())).collect();
    need(&buf, 4)?;
    let n_out = buf.get_u32_le() as usize;
    need_elems(&buf, n_out, 4)?;
    let outputs: Vec<TensorId> = (0..n_out).map(|_| TensorId(buf.get_u32_le())).collect();

    Graph::from_parts(tensors, nodes, inputs, outputs)
        .map_err(|_| DecodeError::Corrupt("graph structure"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BinaryOp, UnaryOp};
    use sod2_sym::DimExpr;

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input(
            "x",
            DType::F32,
            vec![DimExpr::sym("N"), DimExpr::from(2) * DimExpr::sym("C")],
        );
        let w = g.add_const("w", &[3], ConstData::F32(vec![1.0, -2.0, 0.5]));
        let ids = g.add_i64_const("ids", &[0, 2]);
        let r = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
        let gth = g.add_simple("g", Op::Gather { axis: 0 }, &[w, ids], DType::F32);
        let a = g.add_simple("add", Op::Binary(BinaryOp::Add), &[r, gth], DType::F32);
        let outs = g.add_node(
            "split",
            Op::Split {
                axis: 1,
                splits: vec![1, 1],
            },
            &[a],
            DType::F32,
        );
        g.mark_output(outs[0]);
        g.mark_output(outs[1]);
        g
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample_graph();
        let bytes = encode_graph(&g);
        let back = decode_graph(&bytes).expect("decode");
        assert_eq!(back.num_tensors(), g.num_tensors());
        assert_eq!(back.num_nodes(), g.num_nodes());
        assert_eq!(back.inputs(), g.inputs());
        assert_eq!(back.outputs(), g.outputs());
        for t in g.tensor_ids() {
            let a = g.tensor(t);
            let b = back.tensor(t);
            assert_eq!(a.name, b.name);
            assert_eq!(a.dtype, b.dtype);
            assert_eq!(a.shape, b.shape);
            assert_eq!(a.const_data, b.const_data);
        }
        for (x, y) in g.nodes().iter().zip(back.nodes()) {
            assert_eq!(x.op, y.op);
            assert_eq!(x.inputs, y.inputs);
            assert_eq!(x.outputs, y.outputs);
            assert_eq!(x.name, y.name);
        }
        crate::validate(&back).expect("decoded graph valid");
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode_graph(&sample_graph());
        for cut in [0, 3, 5, 20, bytes.len() - 1] {
            assert!(decode_graph(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_graph(&sample_graph());
        bytes[0] = b'X';
        assert!(matches!(decode_graph(&bytes), Err(DecodeError::BadHeader)));
    }

    #[test]
    fn transpose_perm_must_be_a_permutation() {
        let graph = |perm: Vec<usize>| {
            let mut g = Graph::new();
            let dims = vec![DimExpr::from(2); perm.len()];
            let x = g.add_input("x", DType::F32, dims);
            let t = g.add_simple("t", Op::Transpose { perm }, &[x], DType::F32);
            g.mark_output(t);
            encode_graph(&g)
        };
        assert!(decode_graph(&graph(vec![2, 0, 1])).is_ok());
        for bad in [vec![0, 1, 5], vec![0, 0]] {
            assert!(
                matches!(
                    decode_graph(&graph(bad.clone())),
                    Err(DecodeError::Corrupt("transpose perm"))
                ),
                "perm {bad:?}"
            );
        }
    }

    #[test]
    fn flipped_tag_rejected_or_valid() {
        // Fuzz a few byte positions: decode must never panic — it either
        // errors or returns a structurally valid graph.
        let bytes = encode_graph(&sample_graph());
        for pos in (5..bytes.len()).step_by(7) {
            let mut m = bytes.clone();
            m[pos] ^= 0xFF;
            if let Ok(g) = decode_graph(&m) {
                let _ = crate::validate(&g);
            }
        }
    }
}
