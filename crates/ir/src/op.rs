//! The operator set.
//!
//! Each variant corresponds to an ONNX-style operator (plus the paper's
//! customized `<Switch, Combine>` control-flow pair, §7 / Fig. 1d). Operator
//! attributes are embedded in the variant so that both the RDP transfer
//! functions and the kernels can pattern-match on a single type.

use std::fmt;

/// Element-wise binary arithmetic with NumPy broadcasting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `a ^ b`
    Pow,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// Euclidean remainder `a mod b`.
    Mod,
}

/// Element-wise comparison with broadcasting; outputs `Bool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `a == b`
    Equal,
    /// `a < b`
    Less,
    /// `a > b`
    Greater,
}

/// Element-wise unary functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with slope 0.01.
    LeakyRelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Error function.
    Erf,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Square root.
    Sqrt,
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Round to nearest even.
    Round,
    /// Round toward negative infinity.
    Floor,
    /// Round toward positive infinity.
    Ceil,
    /// Softplus `ln(1 + e^x)`.
    Softplus,
    /// SiLU / swish `x * sigmoid(x)`.
    Silu,
    /// Hard sigmoid `clamp(x/6 + 0.5, 0, 1)`.
    HardSigmoid,
    /// Hard swish `x * hard_sigmoid(x)`.
    HardSwish,
    /// Exponential linear unit (α = 1).
    Elu,
    /// Scaled ELU with the standard constants.
    Selu,
    /// Sign (−1, 0, 1).
    Sign,
    /// Reciprocal `1/x`.
    Reciprocal,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
}

/// Reduction kinds for `Reduce`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Sum of elements.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Maximum element.
    Max,
    /// Minimum element.
    Min,
    /// Product of elements.
    Prod,
}

/// 2-D spatial parameters shared by convolution and pooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Spatial2d {
    /// Kernel size `[kh, kw]`.
    pub kernel: [usize; 2],
    /// Stride `[sh, sw]`.
    pub stride: [usize; 2],
    /// Symmetric zero padding `[ph, pw]`.
    pub padding: [usize; 2],
}

impl Spatial2d {
    /// Uniform square kernel with stride 1 and "same"-ish padding `k/2`.
    pub fn same(kernel: usize) -> Self {
        Spatial2d {
            kernel: [kernel, kernel],
            stride: [1, 1],
            padding: [kernel / 2, kernel / 2],
        }
    }

    /// Uniform square kernel/stride/padding.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        Spatial2d {
            kernel: [kernel, kernel],
            stride: [stride, stride],
            padding: [padding, padding],
        }
    }

    /// Output spatial extent for an input extent (floor convention).
    pub fn out_extent(&self, axis: usize, input: i64) -> i64 {
        (input + 2 * self.padding[axis] as i64 - self.kernel[axis] as i64)
            / self.stride[axis] as i64
            + 1
    }
}

/// A DNN operator with its static attributes.
///
/// Input/output tensor arity conventions are documented per variant and
/// enforced by [`Op::input_arity`] / [`Op::num_outputs`] during graph
/// validation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    // ===== Input Shape Determined Output (ISDO) =====
    /// `Shape(data) -> i64[rank]` — the shape of the input as a tensor.
    Shape,
    /// `Size(data) -> i64[1]` — total element count.
    Size,
    /// `ConstantOfShape(shape) -> T[...]` filled with `value`.
    ConstantOfShape {
        /// Fill value.
        value: f32,
    },
    /// `EyeLike(data) -> T[n, m]` — identity matrix of the input's shape.
    EyeLike,

    // ===== Input Shape Determined Output Shape (ISDOS) =====
    /// Element-wise binary arithmetic with broadcasting: `(a, b) -> c`.
    Binary(BinaryOp),
    /// Element-wise comparison with broadcasting: `(a, b) -> Bool`.
    Compare(CompareOp),
    /// Element-wise unary function: `(x) -> y`.
    Unary(UnaryOp),
    /// `Cast(x) -> to[...]`.
    Cast {
        /// Target element type.
        to: crate::DType,
    },
    /// `Clip(x) -> y`, clamping to `[min, max]`.
    Clip {
        /// Lower bound.
        min: f32,
        /// Upper bound.
        max: f32,
    },
    /// `Where(cond, a, b) -> c` with broadcasting.
    Where,
    /// `Softmax(x) -> y` along `axis`.
    Softmax {
        /// Normalization axis (may be negative).
        axis: i64,
    },
    /// 2-D convolution, NCHW: `(x, w[, b]) -> y`.
    Conv2d {
        /// Spatial parameters.
        spatial: Spatial2d,
        /// Number of filter groups (`1` = dense, `C_in` = depthwise).
        groups: usize,
    },
    /// Batched matrix multiply `(a, b) -> c` with broadcasting over leading
    /// batch dims.
    MatMul,
    /// `Gemm(a, b[, c]) -> y = a' * b' + c` on rank-2 inputs.
    Gemm {
        /// Transpose `a` first.
        trans_a: bool,
        /// Transpose `b` first.
        trans_b: bool,
    },
    /// 2-D max pooling, NCHW.
    MaxPool2d {
        /// Spatial parameters.
        spatial: Spatial2d,
    },
    /// 2-D average pooling, NCHW.
    AvgPool2d {
        /// Spatial parameters.
        spatial: Spatial2d,
    },
    /// Global average pool: `(N,C,H,W) -> (N,C,1,1)`.
    GlobalAvgPool,
    /// Reduction over `axes` (empty = all axes).
    Reduce {
        /// Reduction kind.
        op: ReduceOp,
        /// Axes to reduce (may be negative). Empty reduces all.
        axes: Vec<i64>,
        /// Keep reduced axes as size-1 dims.
        keep_dims: bool,
    },
    /// Index of the maximum along `axis`; outputs `I64`.
    ArgMax {
        /// Reduction axis.
        axis: i64,
        /// Keep reduced axis as a size-1 dim.
        keep_dims: bool,
    },
    /// Concatenation along `axis`: `(a, b, ...) -> c`.
    Concat {
        /// Concatenation axis (may be negative).
        axis: i64,
    },
    /// Axis permutation.
    Transpose {
        /// Permutation of input axes.
        perm: Vec<usize>,
    },
    /// Flattens to 2-D: dims before `axis` collapse into dim 0.
    Flatten {
        /// Split point.
        axis: i64,
    },
    /// Layer normalization over the last axis: `(x, scale, bias) -> y`.
    LayerNorm {
        /// Numerical stabilizer.
        epsilon: f32,
    },
    /// Inference-mode batch normalization:
    /// `(x, scale, bias, mean, var) -> y` over the channel axis (1).
    BatchNorm {
        /// Numerical stabilizer.
        epsilon: f32,
    },
    /// `Gather(data, indices) -> y` along `axis`.
    Gather {
        /// Gather axis.
        axis: i64,
    },
    /// Static zero/value padding: per-axis `(before, after)` pairs.
    Pad {
        /// `2 * rank` values: all `before`s then all `after`s (ONNX order).
        pads: Vec<i64>,
        /// Fill value.
        value: f32,
    },
    /// Static slice with per-axis bounds (`None` = full extent).
    Slice {
        /// Start per axis.
        starts: Vec<i64>,
        /// End per axis (exclusive; `i64::MAX` = to end).
        ends: Vec<i64>,
    },
    /// Inserts size-1 axes at `axes`.
    Unsqueeze {
        /// Positions in the output shape.
        axes: Vec<i64>,
    },
    /// Removes size-1 axes at `axes` (empty = all size-1 axes).
    Squeeze {
        /// Axes to remove.
        axes: Vec<i64>,
    },
    /// Pass-through.
    Identity,
    /// Splits along `axis` into parts of the given sizes:
    /// `Split(x) -> (y_0, …, y_{k-1})`.
    Split {
        /// Split axis (may be negative).
        axis: i64,
        /// Part sizes (must sum to the axis extent).
        splits: Vec<i64>,
    },
    /// Cumulative sum along `axis`.
    CumSum {
        /// Scan axis.
        axis: i64,
    },
    /// `log(softmax(x))` along `axis`.
    LogSoftmax {
        /// Normalization axis.
        axis: i64,
    },
    /// Instance normalization over spatial dims, NCHW:
    /// `(x, scale, bias) -> y`.
    InstanceNorm {
        /// Numerical stabilizer.
        epsilon: f32,
    },

    // ===== Input Shape & Value Determined Output Shape (ISVDOS) =====
    /// `Reshape(data, shape) -> y`; `shape` may contain `-1` (infer) and
    /// `0` (copy input dim).
    Reshape,
    /// `Expand(data, shape) -> y` — broadcast to the target shape.
    Expand,
    /// `Range(start, limit, delta) -> i64[n]`.
    Range,
    /// `SliceDyn(data, starts, ends) -> y` — runtime slice bounds.
    SliceDyn,
    /// `TopK(x, k) -> (values, indices)` along `axis`.
    TopK {
        /// Selection axis.
        axis: i64,
    },
    /// `Resize(x, sizes) -> y` — nearest-neighbour resize of the two
    /// trailing spatial dims to the target sizes (i64 tensor of length 2).
    Resize,
    /// `Tile(data, repeats) -> y`.
    Tile,
    /// `OneHot(indices, depth) -> y` with `depth` a scalar i64 tensor.
    OneHot,

    // ===== Execution Determined Output (EDO) =====
    /// `NonZero(x) -> i64[rank, n]` — indices of non-zero elements.
    NonZero,
    /// Simplified non-max suppression:
    /// `(boxes[n,4], scores[n], iou_threshold) -> i64[k]` selected indices.
    NonMaxSuppression {
        /// Max boxes to keep.
        max_output: usize,
    },
    /// Dynamic branch: `Switch(data, selector) -> (out_0, …, out_{n-1})`.
    /// Exactly one output is *live* per execution (selected by the i64
    /// scalar `selector`); the rest are dead and their consumers skipped.
    Switch {
        /// Number of gated branch outputs.
        num_branches: usize,
    },
    /// Merge of branch results: `Combine(in_0, …, in_{n-1}, selector) -> y`.
    /// Forwards the live input.
    Combine {
        /// Number of gated branch inputs.
        num_branches: usize,
    },
}

/// Arity specification for validation: `(min_inputs, max_inputs)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arity {
    /// Minimum number of inputs.
    pub min: usize,
    /// Maximum number of inputs.
    pub max: usize,
}

impl Arity {
    const fn exact(n: usize) -> Self {
        Arity { min: n, max: n }
    }

    const fn range(min: usize, max: usize) -> Self {
        Arity { min, max }
    }

    /// `true` if `n` inputs are acceptable.
    pub fn accepts(&self, n: usize) -> bool {
        (self.min..=self.max).contains(&n)
    }
}

impl Op {
    /// Number of inputs this operator accepts.
    pub fn input_arity(&self) -> Arity {
        use Op::*;
        match self {
            Shape | Size | ConstantOfShape { .. } | EyeLike => Arity::exact(1),
            Binary(_) | Compare(_) => Arity::exact(2),
            Unary(_) | Cast { .. } | Clip { .. } | Softmax { .. } => Arity::exact(1),
            Where => Arity::exact(3),
            Conv2d { .. } => Arity::range(2, 3),
            MatMul => Arity::exact(2),
            Gemm { .. } => Arity::range(2, 3),
            MaxPool2d { .. } | AvgPool2d { .. } | GlobalAvgPool => Arity::exact(1),
            Reduce { .. } | ArgMax { .. } => Arity::exact(1),
            Concat { .. } => Arity::range(1, usize::MAX),
            Transpose { .. } | Flatten { .. } => Arity::exact(1),
            LayerNorm { .. } => Arity::exact(3),
            BatchNorm { .. } => Arity::exact(5),
            Gather { .. } => Arity::exact(2),
            Pad { .. } | Slice { .. } | Unsqueeze { .. } | Squeeze { .. } | Identity => {
                Arity::exact(1)
            }
            Split { .. } | CumSum { .. } | LogSoftmax { .. } => Arity::exact(1),
            InstanceNorm { .. } => Arity::exact(3),
            Reshape | Expand => Arity::exact(2),
            Range => Arity::exact(3),
            SliceDyn => Arity::exact(3),
            TopK { .. } => Arity::exact(2),
            Resize => Arity::exact(2),
            Tile => Arity::exact(2),
            OneHot => Arity::exact(2),
            NonZero => Arity::exact(1),
            NonMaxSuppression { .. } => Arity::exact(3),
            Switch { .. } => Arity::exact(2),
            Combine { num_branches } => Arity::exact(num_branches + 1),
        }
    }

    /// Number of outputs this operator produces.
    pub fn num_outputs(&self) -> usize {
        match self {
            Op::TopK { .. } => 2,
            Op::Split { splits, .. } => splits.len(),
            Op::Switch { num_branches } => *num_branches,
            _ => 1,
        }
    }

    /// `true` for the control-flow pair that extends the computational
    /// graph (paper §4.1).
    pub fn is_control_flow(&self) -> bool {
        matches!(self, Op::Switch { .. } | Op::Combine { .. })
    }

    /// A short mnemonic used in displays and traces.
    pub fn mnemonic(&self) -> &'static str {
        use Op::*;
        match self {
            Shape => "Shape",
            Size => "Size",
            ConstantOfShape { .. } => "ConstantOfShape",
            EyeLike => "EyeLike",
            Binary(BinaryOp::Add) => "Add",
            Binary(BinaryOp::Sub) => "Sub",
            Binary(BinaryOp::Mul) => "Mul",
            Binary(BinaryOp::Div) => "Div",
            Binary(BinaryOp::Pow) => "Pow",
            Binary(BinaryOp::Min) => "Min",
            Binary(BinaryOp::Max) => "Max",
            Binary(BinaryOp::Mod) => "Mod",
            Compare(CompareOp::Equal) => "Equal",
            Compare(CompareOp::Less) => "Less",
            Compare(CompareOp::Greater) => "Greater",
            Unary(UnaryOp::Relu) => "Relu",
            Unary(UnaryOp::LeakyRelu) => "LeakyRelu",
            Unary(UnaryOp::Sigmoid) => "Sigmoid",
            Unary(UnaryOp::Tanh) => "Tanh",
            Unary(UnaryOp::Gelu) => "Gelu",
            Unary(UnaryOp::Erf) => "Erf",
            Unary(UnaryOp::Exp) => "Exp",
            Unary(UnaryOp::Log) => "Log",
            Unary(UnaryOp::Sqrt) => "Sqrt",
            Unary(UnaryOp::Neg) => "Neg",
            Unary(UnaryOp::Abs) => "Abs",
            Unary(UnaryOp::Round) => "Round",
            Unary(UnaryOp::Floor) => "Floor",
            Unary(UnaryOp::Ceil) => "Ceil",
            Unary(UnaryOp::Softplus) => "Softplus",
            Unary(UnaryOp::Silu) => "Silu",
            Unary(UnaryOp::HardSigmoid) => "HardSigmoid",
            Unary(UnaryOp::HardSwish) => "HardSwish",
            Unary(UnaryOp::Elu) => "Elu",
            Unary(UnaryOp::Selu) => "Selu",
            Unary(UnaryOp::Sign) => "Sign",
            Unary(UnaryOp::Reciprocal) => "Reciprocal",
            Unary(UnaryOp::Sin) => "Sin",
            Unary(UnaryOp::Cos) => "Cos",
            Cast { .. } => "Cast",
            Clip { .. } => "Clip",
            Where => "Where",
            Softmax { .. } => "Softmax",
            Conv2d { .. } => "Conv",
            MatMul => "MatMul",
            Gemm { .. } => "Gemm",
            MaxPool2d { .. } => "MaxPool",
            AvgPool2d { .. } => "AveragePool",
            GlobalAvgPool => "GlobalAveragePool",
            Reduce {
                op: ReduceOp::Sum, ..
            } => "ReduceSum",
            Reduce {
                op: ReduceOp::Mean, ..
            } => "ReduceMean",
            Reduce {
                op: ReduceOp::Max, ..
            } => "ReduceMax",
            Reduce {
                op: ReduceOp::Min, ..
            } => "ReduceMin",
            Reduce {
                op: ReduceOp::Prod, ..
            } => "ReduceProd",
            ArgMax { .. } => "ArgMax",
            Concat { .. } => "Concat",
            Transpose { .. } => "Transpose",
            Flatten { .. } => "Flatten",
            LayerNorm { .. } => "LayerNormalization",
            BatchNorm { .. } => "BatchNormalization",
            Gather { .. } => "Gather",
            Pad { .. } => "Pad",
            Slice { .. } => "Slice",
            Unsqueeze { .. } => "Unsqueeze",
            Squeeze { .. } => "Squeeze",
            Identity => "Identity",
            Split { .. } => "Split",
            CumSum { .. } => "CumSum",
            LogSoftmax { .. } => "LogSoftmax",
            InstanceNorm { .. } => "InstanceNormalization",
            Reshape => "Reshape",
            Expand => "Expand",
            Range => "Range",
            SliceDyn => "SliceDyn",
            TopK { .. } => "TopK",
            Resize => "Resize",
            Tile => "Tile",
            OneHot => "OneHot",
            NonZero => "NonZero",
            NonMaxSuppression { .. } => "NMS",
            Switch { .. } => "Switch",
            Combine { .. } => "Combine",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

/// Normalizes a possibly negative axis against a rank.
///
/// Returns `None` when the axis is out of bounds.
pub fn normalize_axis(axis: i64, rank: usize) -> Option<usize> {
    let r = rank as i64;
    let a = if axis < 0 { axis + r } else { axis };
    if (0..r).contains(&a) {
        Some(a as usize)
    } else {
        None
    }
}

/// True when `perm` holds each of `0..perm.len()` exactly once: the axis
/// permutations a `Transpose` accepts.
pub fn is_permutation(perm: &[usize]) -> bool {
    let mut seen = vec![false; perm.len()];
    perm.iter()
        .all(|&p| p < seen.len() && !std::mem::replace(&mut seen[p], true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_checks() {
        assert!(Op::MatMul.input_arity().accepts(2));
        assert!(!Op::MatMul.input_arity().accepts(3));
        assert!(Op::Conv2d {
            spatial: Spatial2d::same(3),
            groups: 1
        }
        .input_arity()
        .accepts(3));
        assert!(Op::Concat { axis: 0 }.input_arity().accepts(7));
        assert!(Op::Combine { num_branches: 3 }.input_arity().accepts(4));
        assert!(!Op::Combine { num_branches: 3 }.input_arity().accepts(3));
    }

    #[test]
    fn output_counts() {
        assert_eq!(Op::TopK { axis: -1 }.num_outputs(), 2);
        assert_eq!(Op::Switch { num_branches: 3 }.num_outputs(), 3);
        assert_eq!(Op::MatMul.num_outputs(), 1);
    }

    #[test]
    fn spatial_out_extent() {
        // 224 input, 7x7 kernel, stride 2, pad 3 -> 112 (ResNet stem).
        let s = Spatial2d::new(7, 2, 3);
        assert_eq!(s.out_extent(0, 224), 112);
        // 3x3 stride 1 pad 1 keeps the extent.
        let s = Spatial2d::same(3);
        assert_eq!(s.out_extent(0, 56), 56);
    }

    #[test]
    fn axis_normalization() {
        assert_eq!(normalize_axis(-1, 3), Some(2));
        assert_eq!(normalize_axis(0, 3), Some(0));
        assert_eq!(normalize_axis(3, 3), None);
        assert_eq!(normalize_axis(-4, 3), None);
    }

    #[test]
    fn permutation_check() {
        assert!(is_permutation(&[]));
        assert!(is_permutation(&[2, 0, 1]));
        assert!(!is_permutation(&[0, 0]));
        assert!(!is_permutation(&[0, 1, 5]));
    }

    #[test]
    fn control_flow_detection() {
        assert!(Op::Switch { num_branches: 2 }.is_control_flow());
        assert!(Op::Combine { num_branches: 2 }.is_control_flow());
        assert!(!Op::MatMul.is_control_flow());
    }
}
