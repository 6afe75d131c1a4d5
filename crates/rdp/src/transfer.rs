//! Forward transfer functions (the `F^fs` / `F^fv` families, paper Table 3).
//!
//! Each function maps the input tensors' shape- and value-lattice states to
//! proposals for the node's outputs. Proposals are *partial*: a dimension
//! the operator cannot determine is `Undef` (if more information may arrive
//! later) or `Nac` (if it is execution-determined). The solver installs
//! proposals with a fill-only-undef policy (paper Alg. 1 line 20-21: a
//! transfer returns early when the outputs are already resolved).

use sod2_ir::{is_permutation, normalize_axis, BinaryOp, DType, Node, Op, Spatial2d};
use sod2_sym::{broadcast_shapes, DimExpr, DimValue, ShapeValue, SymValue};

/// Proposed analysis state for a node's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputProposal {
    /// One shape per output tensor.
    pub shapes: Vec<ShapeValue>,
    /// One value per output tensor.
    pub values: Vec<SymValue>,
}

impl OutputProposal {
    fn single(shape: ShapeValue, value: SymValue) -> Self {
        OutputProposal {
            shapes: vec![shape],
            values: vec![value],
        }
    }

    fn unknown(n: usize) -> Self {
        OutputProposal {
            shapes: vec![ShapeValue::Undef; n],
            values: vec![SymValue::Undef; n],
        }
    }
}

/// Computes the forward transfer for `node`.
///
/// `in_shapes[i]` / `in_values[i]` are the current lattice states of the
/// node's i-th input tensor. Output dtype of each output is passed for
/// value-tracking decisions (only integer tensors carry values).
pub fn forward(
    node: &Node,
    in_shapes: &[ShapeValue],
    in_values: &[SymValue],
    out_dtypes: &[DType],
) -> OutputProposal {
    let n_out = node.op.num_outputs();
    match &node.op {
        // ===== ISDO =====
        Op::Shape => {
            let (shape, value) = match &in_shapes[0] {
                ShapeValue::Undef => (ShapeValue::Undef, SymValue::Undef),
                ShapeValue::Nac => (ShapeValue::Nac, SymValue::Nac),
                ShapeValue::Ranked(dims) => (
                    ShapeValue::known(&[dims.len() as i64]),
                    SymValue::Elems(dims.clone()),
                ),
            };
            OutputProposal::single(shape, value)
        }
        Op::Size => {
            let value = match &in_shapes[0] {
                ShapeValue::Undef => SymValue::Undef,
                ShapeValue::Nac => SymValue::Nac,
                s => match s.num_elements() {
                    Some(e) => SymValue::Elems(vec![DimValue::Expr(e)]),
                    None => SymValue::Elems(vec![DimValue::Nac]),
                },
            };
            OutputProposal::single(ShapeValue::known(&[1]), value)
        }
        Op::ConstantOfShape { .. } => {
            let shape = shape_from_value(&in_values[0], &in_shapes[0]);
            OutputProposal::single(shape, SymValue::Nac)
        }
        Op::EyeLike => OutputProposal::single(in_shapes[0].clone(), SymValue::Nac),

        // ===== ISDOS: element-wise with broadcasting =====
        Op::Binary(bin) => {
            let shape = broadcast_shapes(&in_shapes[0], &in_shapes[1]).unwrap_or(ShapeValue::Nac);
            let value = binary_value(*bin, &in_values[0], &in_values[1], out_dtypes[0]);
            OutputProposal::single(shape, value)
        }
        Op::Compare(_) => {
            let shape = broadcast_shapes(&in_shapes[0], &in_shapes[1]).unwrap_or(ShapeValue::Nac);
            OutputProposal::single(shape, SymValue::Nac)
        }
        Op::Where => {
            let ab = broadcast_shapes(&in_shapes[1], &in_shapes[2]).unwrap_or(ShapeValue::Nac);
            let shape = broadcast_shapes(&in_shapes[0], &ab).unwrap_or(ShapeValue::Nac);
            OutputProposal::single(shape, SymValue::Nac)
        }
        Op::Unary(_)
        | Op::Clip { .. }
        | Op::Softmax { .. }
        | Op::CumSum { .. }
        | Op::LogSoftmax { .. } => OutputProposal::single(in_shapes[0].clone(), SymValue::Nac),
        Op::Cast { to } => {
            // Casting preserves tracked integer values.
            let value = if to.is_integer() {
                in_values[0].clone()
            } else {
                SymValue::Nac
            };
            OutputProposal::single(in_shapes[0].clone(), value)
        }
        Op::Identity => OutputProposal::single(in_shapes[0].clone(), in_values[0].clone()),

        // ===== ISDOS: structured =====
        Op::Conv2d { spatial, groups: _ } => {
            let shape = conv_like_shape(&in_shapes[0], Some(&in_shapes[1]), spatial);
            OutputProposal::single(shape, SymValue::Nac)
        }
        Op::MaxPool2d { spatial } | Op::AvgPool2d { spatial } => {
            let shape = conv_like_shape(&in_shapes[0], None, spatial);
            OutputProposal::single(shape, SymValue::Nac)
        }
        Op::GlobalAvgPool => {
            let shape = match in_shapes[0].dims() {
                Some(d) if d.len() == 4 => ShapeValue::Ranked(vec![
                    d[0].clone(),
                    d[1].clone(),
                    DimValue::known(1),
                    DimValue::known(1),
                ]),
                Some(_) => ShapeValue::Nac,
                None => in_shapes[0].clone(),
            };
            OutputProposal::single(shape, SymValue::Nac)
        }
        Op::MatMul => {
            OutputProposal::single(matmul_shape(&in_shapes[0], &in_shapes[1]), SymValue::Nac)
        }
        Op::Gemm { trans_a, trans_b } => {
            let shape = gemm_shape(&in_shapes[0], &in_shapes[1], *trans_a, *trans_b);
            OutputProposal::single(shape, SymValue::Nac)
        }
        Op::Reduce {
            axes,
            keep_dims,
            op,
        } => {
            let shape = reduce_shape(&in_shapes[0], axes, *keep_dims);
            // Value transfer for full reductions of tracked 1-D integer
            // vectors: ReduceProd(Shape(x)) is the common "numel" idiom.
            let value = reduce_value(*op, &in_values[0], &in_shapes[0], axes, out_dtypes[0]);
            OutputProposal::single(shape, value)
        }
        Op::ArgMax { axis, keep_dims } => {
            let shape = reduce_shape(&in_shapes[0], &[*axis], *keep_dims);
            OutputProposal::single(shape, SymValue::Nac)
        }
        Op::Concat { axis } => {
            let shape = concat_shape(in_shapes, *axis);
            let value = concat_value(in_values, *axis, out_dtypes[0]);
            OutputProposal::single(shape, value)
        }
        Op::Transpose { perm } => {
            let shape = match in_shapes[0].dims() {
                Some(d) if d.len() == perm.len() && is_permutation(perm) => {
                    ShapeValue::Ranked(perm.iter().map(|&p| d[p].clone()).collect())
                }
                Some(_) => ShapeValue::Nac,
                None => in_shapes[0].clone(),
            };
            OutputProposal::single(shape, SymValue::Nac)
        }
        Op::Flatten { axis } => {
            let shape = flatten_shape(&in_shapes[0], *axis);
            OutputProposal::single(shape, SymValue::Nac)
        }
        Op::LayerNorm { .. } | Op::InstanceNorm { .. } => {
            OutputProposal::single(in_shapes[0].clone(), SymValue::Nac)
        }
        Op::Split { axis, splits } => {
            let shapes: Vec<ShapeValue> = match in_shapes[0].dims() {
                Some(dims) => match sod2_ir::normalize_axis(*axis, dims.len()) {
                    Some(ax) => splits
                        .iter()
                        .map(|&len| {
                            let mut d = dims.to_vec();
                            d[ax] = DimValue::known(len);
                            ShapeValue::Ranked(d)
                        })
                        .collect(),
                    None => vec![ShapeValue::Nac; splits.len()],
                },
                None => vec![in_shapes[0].clone(); splits.len()],
            };
            OutputProposal {
                values: vec![SymValue::Nac; shapes.len()],
                shapes,
            }
        }
        Op::BatchNorm { .. } => OutputProposal::single(in_shapes[0].clone(), SymValue::Nac),
        Op::Gather { axis } => {
            let shape = gather_shape(&in_shapes[0], &in_shapes[1], *axis);
            let value = gather_value(&in_values[0], &in_values[1], &in_shapes[0], *axis);
            OutputProposal::single(shape, value)
        }
        Op::Pad { pads, .. } => {
            let shape = pad_shape(&in_shapes[0], pads);
            OutputProposal::single(shape, SymValue::Nac)
        }
        Op::Slice { starts, ends } => {
            let shape = slice_shape(&in_shapes[0], starts, ends);
            let value = slice_value(&in_values[0], starts, ends);
            OutputProposal::single(shape, value)
        }
        Op::Unsqueeze { axes } => {
            let shape = unsqueeze_shape(&in_shapes[0], axes);
            OutputProposal::single(shape, in_values[0].clone())
        }
        Op::Squeeze { axes } => {
            let shape = squeeze_shape(&in_shapes[0], axes);
            OutputProposal::single(shape, in_values[0].clone())
        }

        // ===== ISVDOS =====
        Op::Reshape => {
            let shape = reshape_shape(&in_shapes[0], &in_values[1], &in_shapes[1]);
            OutputProposal::single(shape, in_values[0].clone())
        }
        Op::Expand => {
            let target = shape_from_value(&in_values[1], &in_shapes[1]);
            let shape = broadcast_shapes(&in_shapes[0], &target).unwrap_or(ShapeValue::Nac);
            OutputProposal::single(shape, SymValue::Nac)
        }
        Op::Range => {
            let shape = range_shape(&in_values[0], &in_values[1], &in_values[2]);
            let value = range_value(&in_values[0], &in_values[1], &in_values[2]);
            OutputProposal::single(shape, value)
        }
        Op::SliceDyn => {
            let shape = slice_dyn_shape(&in_shapes[0], &in_values[1], &in_values[2]);
            OutputProposal::single(shape, SymValue::Nac)
        }
        Op::TopK { axis } => {
            let shape = topk_shape(&in_shapes[0], &in_values[1], *axis);
            OutputProposal {
                shapes: vec![shape.clone(), shape],
                values: vec![SymValue::Nac, SymValue::Nac],
            }
        }
        Op::Resize => {
            let shape = resize_shape(&in_shapes[0], &in_values[1]);
            OutputProposal::single(shape, SymValue::Nac)
        }
        Op::Tile => {
            let shape = tile_shape(&in_shapes[0], &in_values[1]);
            OutputProposal::single(shape, SymValue::Nac)
        }
        Op::OneHot => {
            let shape = onehot_shape(&in_shapes[0], &in_values[1]);
            OutputProposal::single(shape, SymValue::Nac)
        }

        // ===== EDO =====
        Op::NonZero => {
            // Output is [rank, n] where n is execution-determined but the
            // rank is statically known — a useful partial result.
            let shape = match in_shapes[0].rank() {
                Some(r) => ShapeValue::Ranked(vec![DimValue::known(r as i64), DimValue::Nac]),
                None => ShapeValue::ranked_nac(2),
            };
            OutputProposal::single(shape, SymValue::Nac)
        }
        Op::NonMaxSuppression { .. } => {
            OutputProposal::single(ShapeValue::Ranked(vec![DimValue::Nac]), SymValue::Nac)
        }
        Op::Switch { num_branches } => {
            // Every branch output carries the data tensor when live.
            OutputProposal {
                shapes: vec![in_shapes[0].clone(); *num_branches],
                values: vec![in_values[0].clone(); *num_branches],
            }
        }
        Op::Combine { num_branches } => {
            // Merge (meet) over the branch inputs (paper's Merge transfer).
            let mut shape = ShapeValue::Undef;
            let mut value = SymValue::Undef;
            for i in 0..*num_branches {
                shape = shape.meet(&in_shapes[i]);
                value = value.meet(&in_values[i]);
            }
            let _ = OutputProposal::unknown(n_out);
            OutputProposal::single(shape, value)
        }
    }
}

/// Interprets a value-lattice state as a shape (for shape-carrying inputs of
/// `ConstantOfShape`, `Expand`, …). Falls back to rank information from the
/// carrier tensor's own 1-D shape when the contents are unknown.
fn shape_from_value(value: &SymValue, carrier_shape: &ShapeValue) -> ShapeValue {
    match value {
        SymValue::Elems(elems) => ShapeValue::Ranked(elems.clone()),
        SymValue::Undef => ShapeValue::Undef,
        SymValue::Nac => {
            // Rank = length of the 1-D carrier, if known.
            match carrier_shape.as_known() {
                Some(d) if d.len() == 1 && d[0] >= 0 => ShapeValue::ranked_nac(d[0] as usize),
                _ => ShapeValue::Nac,
            }
        }
    }
}

/// Element-wise arithmetic over tracked integer values (shape arithmetic
/// sub-graphs: `Shape → Gather → Mul → Concat → Reshape`).
fn binary_value(op: BinaryOp, a: &SymValue, b: &SymValue, out_dtype: DType) -> SymValue {
    if !out_dtype.is_integer() {
        return SymValue::Nac;
    }
    let (ea, eb) = match (a, b) {
        (SymValue::Undef, _) | (_, SymValue::Undef) => return SymValue::Undef,
        (SymValue::Nac, _) | (_, SymValue::Nac) => return SymValue::Nac,
        (SymValue::Elems(x), SymValue::Elems(y)) => (x, y),
    };
    // Support equal-length and scalar-broadcast combinations.
    let n = ea.len().max(eb.len());
    if !(ea.len() == eb.len() || ea.len() == 1 || eb.len() == 1) {
        return SymValue::Nac;
    }
    let get = |v: &[DimValue], i: usize| -> DimValue {
        if v.len() == 1 {
            v[0].clone()
        } else {
            v[i].clone()
        }
    };
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let (x, y) = (get(ea, i), get(eb, i));
        let r = match (x.as_expr(), y.as_expr()) {
            (Some(xe), Some(ye)) => {
                let e = match op {
                    BinaryOp::Add => DimExpr::add(xe.clone(), ye.clone()),
                    BinaryOp::Sub => DimExpr::sub(xe.clone(), ye.clone()),
                    BinaryOp::Mul => DimExpr::mul(xe.clone(), ye.clone()),
                    BinaryOp::Div => {
                        if ye.as_const() == Some(0) {
                            return SymValue::Nac;
                        }
                        DimExpr::floor_div(xe.clone(), ye.clone())
                    }
                    BinaryOp::Min => DimExpr::min(xe.clone(), ye.clone()),
                    BinaryOp::Max => DimExpr::max(xe.clone(), ye.clone()),
                    BinaryOp::Mod => {
                        if ye.as_const() == Some(0) {
                            return SymValue::Nac;
                        }
                        DimExpr::modulo(xe.clone(), ye.clone())
                    }
                    BinaryOp::Pow => return SymValue::Nac,
                };
                DimValue::Expr(e)
            }
            _ => DimValue::Nac,
        };
        out.push(r);
    }
    SymValue::Elems(out)
}

/// Symbolic full-reduction over a tracked 1-D integer vector.
fn reduce_value(
    op: sod2_ir::ReduceOp,
    value: &SymValue,
    carrier: &ShapeValue,
    axes: &[i64],
    out_dtype: DType,
) -> SymValue {
    if !out_dtype.is_integer() || carrier.rank() != Some(1) {
        return SymValue::Nac;
    }
    let full = axes.is_empty() || axes == [0] || axes == [-1];
    if !full {
        return SymValue::Nac;
    }
    let elems = match value {
        SymValue::Undef => return SymValue::Undef,
        SymValue::Nac => return SymValue::Nac,
        SymValue::Elems(e) => e,
    };
    let mut acc: Option<DimExpr> = None;
    for d in elems {
        let Some(e) = d.as_expr() else {
            return SymValue::Elems(vec![DimValue::Nac]);
        };
        acc = Some(match (acc, op) {
            (None, _) => e.clone(),
            (Some(a), sod2_ir::ReduceOp::Sum) => DimExpr::add(a, e.clone()),
            (Some(a), sod2_ir::ReduceOp::Prod) => DimExpr::mul(a, e.clone()),
            (Some(a), sod2_ir::ReduceOp::Max) => DimExpr::max(a, e.clone()),
            (Some(a), sod2_ir::ReduceOp::Min) => DimExpr::min(a, e.clone()),
            (Some(_), sod2_ir::ReduceOp::Mean) => return SymValue::Nac,
        });
    }
    match acc {
        Some(e) => SymValue::Elems(vec![DimValue::Expr(e)]),
        None => SymValue::Nac,
    }
}

/// Conv / pooling output shape (NCHW).
fn conv_like_shape(
    input: &ShapeValue,
    weight: Option<&ShapeValue>,
    spatial: &Spatial2d,
) -> ShapeValue {
    let dims = match input.dims() {
        Some(d) if d.len() == 4 => d,
        Some(_) => return ShapeValue::Nac,
        None => return input.clone(),
    };
    let channels = match weight {
        // Conv output channels = weight dim 0.
        Some(w) => match w.dims() {
            Some(wd) if wd.len() == 4 => wd[0].clone(),
            _ => DimValue::Undef,
        },
        // Pooling keeps channels.
        None => dims[1].clone(),
    };
    let spatial_out = |axis: usize, d: &DimValue| -> DimValue {
        match d.as_expr() {
            Some(e) => {
                let k = spatial.kernel[axis] as i64;
                let s = spatial.stride[axis] as i64;
                let p = spatial.padding[axis] as i64;
                let adj = DimExpr::add(e.clone(), DimExpr::Const(2 * p - k));
                DimValue::Expr(DimExpr::add(
                    DimExpr::floor_div(adj, DimExpr::Const(s)),
                    DimExpr::Const(1),
                ))
            }
            None => d.clone(),
        }
    };
    ShapeValue::Ranked(vec![
        dims[0].clone(),
        channels,
        spatial_out(0, &dims[2]),
        spatial_out(1, &dims[3]),
    ])
}

/// Batched matrix-multiply output shape.
fn matmul_shape(a: &ShapeValue, b: &ShapeValue) -> ShapeValue {
    let (da, db) = match (a.dims(), b.dims()) {
        (Some(x), Some(y)) if x.len() >= 2 && y.len() >= 2 => (x, y),
        (None, _) | (_, None) => {
            return if a.is_undef() || b.is_undef() {
                ShapeValue::Undef
            } else {
                ShapeValue::Nac
            }
        }
        _ => return ShapeValue::Nac,
    };
    let batch_a = ShapeValue::Ranked(da[..da.len() - 2].to_vec());
    let batch_b = ShapeValue::Ranked(db[..db.len() - 2].to_vec());
    let batch = match broadcast_shapes(&batch_a, &batch_b) {
        Ok(ShapeValue::Ranked(d)) => d,
        _ => return ShapeValue::Nac,
    };
    let m = da[da.len() - 2].clone();
    let n = db[db.len() - 1].clone();
    let mut out = batch;
    out.push(m);
    out.push(n);
    ShapeValue::Ranked(out)
}

fn gemm_shape(a: &ShapeValue, b: &ShapeValue, trans_a: bool, trans_b: bool) -> ShapeValue {
    let (da, db) = match (a.dims(), b.dims()) {
        (Some(x), Some(y)) if x.len() == 2 && y.len() == 2 => (x, y),
        (None, _) | (_, None) => {
            return if a.is_undef() || b.is_undef() {
                ShapeValue::Undef
            } else {
                ShapeValue::Nac
            }
        }
        _ => return ShapeValue::Nac,
    };
    let m = if trans_a {
        da[1].clone()
    } else {
        da[0].clone()
    };
    let n = if trans_b {
        db[0].clone()
    } else {
        db[1].clone()
    };
    ShapeValue::Ranked(vec![m, n])
}

fn reduce_shape(input: &ShapeValue, axes: &[i64], keep_dims: bool) -> ShapeValue {
    let dims = match input.dims() {
        Some(d) => d,
        None => return input.clone(),
    };
    let rank = dims.len();
    let reduced: Vec<usize> = if axes.is_empty() {
        (0..rank).collect()
    } else {
        match axes
            .iter()
            .map(|&a| normalize_axis(a, rank))
            .collect::<Option<Vec<_>>>()
        {
            Some(v) => v,
            None => return ShapeValue::Nac,
        }
    };
    let mut out = Vec::new();
    for (i, d) in dims.iter().enumerate() {
        if reduced.contains(&i) {
            if keep_dims {
                out.push(DimValue::known(1));
            }
        } else {
            out.push(d.clone());
        }
    }
    ShapeValue::Ranked(out)
}

fn concat_shape(in_shapes: &[ShapeValue], axis: i64) -> ShapeValue {
    // Establish rank from any ranked input.
    let rank = match in_shapes.iter().find_map(ShapeValue::rank) {
        Some(r) => r,
        None => {
            return if in_shapes.iter().any(|s| matches!(s, ShapeValue::Nac)) {
                ShapeValue::Nac
            } else {
                ShapeValue::Undef
            }
        }
    };
    let ax = match normalize_axis(axis, rank) {
        Some(a) => a,
        None => return ShapeValue::Nac,
    };
    let mut out: Vec<DimValue> = vec![DimValue::Undef; rank];
    let mut concat_dim = DimExpr::Const(0);
    let mut concat_known = true;
    for s in in_shapes {
        match s.dims() {
            Some(d) if d.len() == rank => {
                for i in 0..rank {
                    if i == ax {
                        match d[i].as_expr() {
                            Some(e) if concat_known => {
                                concat_dim = DimExpr::add(concat_dim.clone(), e.clone());
                            }
                            _ => concat_known = false,
                        }
                    } else {
                        // Non-axis dims must agree: refine toward defined.
                        out[i] = match (&out[i], &d[i]) {
                            (DimValue::Undef, v) => v.clone(),
                            (v, DimValue::Undef) => v.clone(),
                            (a, b) => a.meet(b),
                        };
                    }
                }
            }
            Some(_) => return ShapeValue::Nac,
            None => {
                concat_known = false;
                if matches!(s, ShapeValue::Nac) {
                    // A nac input still constrains nothing further.
                }
            }
        }
    }
    out[ax] = if concat_known {
        DimValue::Expr(concat_dim)
    } else {
        DimValue::Nac
    };
    ShapeValue::Ranked(out)
}

fn concat_value(in_values: &[SymValue], axis: i64, out_dtype: DType) -> SymValue {
    // Value tracking only for 1-D integer concat (shape assembly).
    if axis != 0 || !out_dtype.is_integer() {
        return SymValue::Nac;
    }
    let mut out = Vec::new();
    for v in in_values {
        match v {
            SymValue::Undef => return SymValue::Undef,
            SymValue::Nac => return SymValue::Nac,
            SymValue::Elems(e) => out.extend(e.iter().cloned()),
        }
    }
    SymValue::Elems(out)
}

fn flatten_shape(input: &ShapeValue, axis: i64) -> ShapeValue {
    let dims = match input.dims() {
        Some(d) => d,
        None => return input.clone(),
    };
    let rank = dims.len();
    let ax = if axis == rank as i64 {
        rank
    } else {
        match normalize_axis(axis, rank.max(1)) {
            Some(a) => a,
            None => return ShapeValue::Nac,
        }
    };
    let prod = |ds: &[DimValue]| -> DimValue {
        let mut acc = DimExpr::Const(1);
        for d in ds {
            match d.as_expr() {
                Some(e) => acc = DimExpr::mul(acc, e.clone()),
                None => return d.clone(),
            }
        }
        DimValue::Expr(acc)
    };
    ShapeValue::Ranked(vec![prod(&dims[..ax]), prod(&dims[ax..])])
}

fn gather_shape(data: &ShapeValue, indices: &ShapeValue, axis: i64) -> ShapeValue {
    let dd = match data.dims() {
        Some(d) => d,
        None => return data.clone(),
    };
    let ax = match normalize_axis(axis, dd.len()) {
        Some(a) => a,
        None => return ShapeValue::Nac,
    };
    let id = match indices.dims() {
        Some(d) => d,
        None => return indices.clone(),
    };
    let mut out = Vec::with_capacity(dd.len() - 1 + id.len());
    out.extend(dd[..ax].iter().cloned());
    out.extend(id.iter().cloned());
    out.extend(dd[ax + 1..].iter().cloned());
    ShapeValue::Ranked(out)
}

fn gather_value(
    data: &SymValue,
    indices: &SymValue,
    data_shape: &ShapeValue,
    axis: i64,
) -> SymValue {
    // Track only 1-D gathers with known integer indices (shape slicing).
    if axis != 0 || data_shape.rank() != Some(1) {
        return SymValue::Nac;
    }
    let (de, idx) = match (data, indices.as_known_elems()) {
        (SymValue::Undef, _) => return SymValue::Undef,
        (SymValue::Elems(de), Some(idx)) => (de, idx),
        _ => return SymValue::Nac,
    };
    let mut out = Vec::with_capacity(idx.len());
    for i in idx {
        let i = if i < 0 { i + de.len() as i64 } else { i };
        match de.get(i as usize) {
            Some(v) => out.push(v.clone()),
            None => return SymValue::Nac,
        }
    }
    SymValue::Elems(out)
}

trait KnownElems {
    fn as_known_elems(&self) -> Option<Vec<i64>>;
}

impl KnownElems for SymValue {
    fn as_known_elems(&self) -> Option<Vec<i64>> {
        self.as_known()
    }
}

fn pad_shape(input: &ShapeValue, pads: &[i64]) -> ShapeValue {
    let dims = match input.dims() {
        Some(d) => d,
        None => return input.clone(),
    };
    let rank = dims.len();
    if pads.len() != 2 * rank {
        return ShapeValue::Nac;
    }
    let mut out = Vec::with_capacity(rank);
    for (i, d) in dims.iter().enumerate() {
        let total = pads[i] + pads[i + rank];
        out.push(match d.as_expr() {
            Some(e) => DimValue::Expr(DimExpr::add(e.clone(), DimExpr::Const(total))),
            None => d.clone(),
        });
    }
    ShapeValue::Ranked(out)
}

fn slice_bound_dim(d: &DimValue, start: i64, end: i64) -> DimValue {
    match d.as_expr() {
        Some(e) => {
            let end_expr = if end == i64::MAX {
                e.clone()
            } else if end < 0 {
                DimExpr::add(e.clone(), DimExpr::Const(end))
            } else {
                DimExpr::min(DimExpr::Const(end), e.clone())
            };
            let start_expr = if start < 0 {
                DimExpr::add(e.clone(), DimExpr::Const(start))
            } else {
                DimExpr::Const(start)
            };
            DimValue::Expr(DimExpr::max(
                DimExpr::Const(0),
                DimExpr::sub(end_expr, start_expr),
            ))
        }
        None => d.clone(),
    }
}

fn slice_shape(input: &ShapeValue, starts: &[i64], ends: &[i64]) -> ShapeValue {
    let dims = match input.dims() {
        Some(d) => d,
        None => return input.clone(),
    };
    let mut out = Vec::with_capacity(dims.len());
    for (i, d) in dims.iter().enumerate() {
        let s = starts.get(i).copied().unwrap_or(0);
        let e = ends.get(i).copied().unwrap_or(i64::MAX);
        out.push(slice_bound_dim(d, s, e));
    }
    ShapeValue::Ranked(out)
}

fn slice_value(input: &SymValue, starts: &[i64], ends: &[i64]) -> SymValue {
    // 1-D value slicing with non-negative static bounds.
    let elems = match input {
        SymValue::Elems(e) => e,
        other => return other.clone(),
    };
    if starts.len() > 1 || ends.len() > 1 {
        return SymValue::Nac;
    }
    let s = starts.first().copied().unwrap_or(0);
    let e = ends.first().copied().unwrap_or(i64::MAX);
    let n = elems.len() as i64;
    let s = if s < 0 { s + n } else { s }.clamp(0, n);
    let e = if e == i64::MAX {
        n
    } else if e < 0 {
        e + n
    } else {
        e.min(n)
    };
    if s > e {
        return SymValue::Elems(vec![]);
    }
    SymValue::Elems(elems[s as usize..e as usize].to_vec())
}

fn unsqueeze_shape(input: &ShapeValue, axes: &[i64]) -> ShapeValue {
    let dims = match input.dims() {
        Some(d) => d,
        None => return input.clone(),
    };
    let out_rank = dims.len() + axes.len();
    let norm: Option<Vec<usize>> = axes.iter().map(|&a| normalize_axis(a, out_rank)).collect();
    let norm = match norm {
        Some(v) => v,
        None => return ShapeValue::Nac,
    };
    let mut out = Vec::with_capacity(out_rank);
    let mut src = dims.iter();
    for i in 0..out_rank {
        if norm.contains(&i) {
            out.push(DimValue::known(1));
        } else {
            match src.next() {
                Some(d) => out.push(d.clone()),
                None => return ShapeValue::Nac,
            }
        }
    }
    ShapeValue::Ranked(out)
}

fn squeeze_shape(input: &ShapeValue, axes: &[i64]) -> ShapeValue {
    let dims = match input.dims() {
        Some(d) => d,
        None => return input.clone(),
    };
    let rank = dims.len();
    let to_remove: Vec<usize> = if axes.is_empty() {
        dims.iter()
            .enumerate()
            .filter(|(_, d)| d.as_const() == Some(1))
            .map(|(i, _)| i)
            .collect()
    } else {
        match axes
            .iter()
            .map(|&a| normalize_axis(a, rank))
            .collect::<Option<Vec<_>>>()
        {
            Some(v) => v,
            None => return ShapeValue::Nac,
        }
    };
    ShapeValue::Ranked(
        dims.iter()
            .enumerate()
            .filter(|(i, _)| !to_remove.contains(i))
            .map(|(_, d)| d.clone())
            .collect(),
    )
}

fn reshape_shape(
    input: &ShapeValue,
    target_value: &SymValue,
    target_carrier: &ShapeValue,
) -> ShapeValue {
    let target = match target_value {
        SymValue::Elems(e) => e.clone(),
        SymValue::Undef => return ShapeValue::Undef,
        SymValue::Nac => {
            // Rank may still be known from the carrier's length.
            return match target_carrier.as_known() {
                Some(d) if d.len() == 1 && d[0] >= 0 => ShapeValue::ranked_nac(d[0] as usize),
                _ => ShapeValue::Nac,
            };
        }
    };
    let in_dims = input.dims();
    let mut out: Vec<DimValue> = Vec::with_capacity(target.len());
    let mut infer_pos: Option<usize> = None;
    for (i, t) in target.iter().enumerate() {
        match t.as_const() {
            Some(-1) => {
                if infer_pos.is_some() {
                    return ShapeValue::Nac; // two -1s: malformed
                }
                infer_pos = Some(i);
                out.push(DimValue::Undef);
            }
            Some(0) => {
                // Copy the corresponding input dimension.
                match in_dims.and_then(|d| d.get(i)) {
                    Some(d) => out.push(d.clone()),
                    None => out.push(DimValue::Undef),
                }
            }
            _ => out.push(t.clone()),
        }
    }
    if let Some(pos) = infer_pos {
        // inferred = numel(input) / prod(other target dims)
        let numel = input.num_elements();
        let mut denom = DimExpr::Const(1);
        let mut ok = true;
        for (i, d) in out.iter().enumerate() {
            if i == pos {
                continue;
            }
            match d.as_expr() {
                Some(e) => denom = DimExpr::mul(denom, e.clone()),
                None => ok = false,
            }
        }
        out[pos] = match (numel, ok) {
            (Some(n), true) => DimValue::Expr(DimExpr::floor_div(n, denom)),
            _ => DimValue::Nac,
        };
    }
    ShapeValue::Ranked(out)
}

fn range_shape(start: &SymValue, limit: &SymValue, delta: &SymValue) -> ShapeValue {
    let one = |v: &SymValue| -> Option<DimValue> { v.elems().and_then(|e| e.first().cloned()) };
    match (one(start), one(limit), one(delta)) {
        (Some(s), Some(l), Some(d)) => match (s.as_expr(), l.as_expr(), d.as_expr()) {
            (Some(se), Some(le), Some(de)) => {
                if de.as_const() == Some(0) {
                    return ShapeValue::Nac;
                }
                let n = DimExpr::max(
                    DimExpr::Const(0),
                    DimExpr::ceil_div(DimExpr::sub(le.clone(), se.clone()), de.clone()),
                );
                ShapeValue::Ranked(vec![DimValue::Expr(n)])
            }
            _ => ShapeValue::Ranked(vec![DimValue::Nac]),
        },
        _ => {
            if start.is_undef() || limit.is_undef() || delta.is_undef() {
                ShapeValue::Undef
            } else {
                ShapeValue::Ranked(vec![DimValue::Nac])
            }
        }
    }
}

fn range_value(start: &SymValue, limit: &SymValue, delta: &SymValue) -> SymValue {
    // Enumerate only when fully known and small.
    const CAP: i64 = 1024;
    match (
        start.as_known().as_deref(),
        limit.as_known().as_deref(),
        delta.as_known().as_deref(),
    ) {
        (Some([s]), Some([l]), Some([d])) if *d != 0 => {
            let n = ((l - s) as f64 / *d as f64).ceil().max(0.0) as i64;
            if n > CAP {
                return SymValue::Nac;
            }
            let mut out = Vec::with_capacity(n as usize);
            let mut v = *s;
            for _ in 0..n {
                out.push(DimValue::known(v));
                v += d;
            }
            SymValue::Elems(out)
        }
        _ => SymValue::Nac,
    }
}

fn slice_dyn_shape(input: &ShapeValue, starts: &SymValue, ends: &SymValue) -> ShapeValue {
    let dims = match input.dims() {
        Some(d) => d,
        None => return input.clone(),
    };
    let (se, ee) = match (starts.elems(), ends.elems()) {
        (Some(s), Some(e)) => (s, e),
        _ => {
            return if starts.is_undef() || ends.is_undef() {
                ShapeValue::Undef
            } else {
                ShapeValue::ranked_nac(dims.len())
            }
        }
    };
    let mut out = Vec::with_capacity(dims.len());
    for (i, d) in dims.iter().enumerate() {
        let s = se.get(i).cloned().unwrap_or(DimValue::known(0));
        let e = ee.get(i).cloned().unwrap_or(DimValue::Nac);
        out.push(match (d.as_expr(), s.as_expr(), e.as_expr()) {
            (Some(de), Some(sx), Some(ex)) => {
                // out = max(0, min(e, d) - max(s, 0))
                let hi = DimExpr::min(ex.clone(), de.clone());
                let lo = DimExpr::max(sx.clone(), DimExpr::Const(0));
                DimValue::Expr(DimExpr::max(DimExpr::Const(0), DimExpr::sub(hi, lo)))
            }
            _ => DimValue::Nac,
        });
    }
    ShapeValue::Ranked(out)
}

fn topk_shape(input: &ShapeValue, k: &SymValue, axis: i64) -> ShapeValue {
    let dims = match input.dims() {
        Some(d) => d,
        None => return input.clone(),
    };
    let ax = match normalize_axis(axis, dims.len()) {
        Some(a) => a,
        None => return ShapeValue::Nac,
    };
    let kd = match k.elems().and_then(|e| e.first().cloned()) {
        Some(v) => v,
        None => {
            if k.is_undef() {
                DimValue::Undef
            } else {
                DimValue::Nac
            }
        }
    };
    let mut out = dims.to_vec();
    out[ax] = kd;
    ShapeValue::Ranked(out)
}

fn resize_shape(input: &ShapeValue, sizes: &SymValue) -> ShapeValue {
    let dims = match input.dims() {
        Some(d) if d.len() == 4 => d,
        Some(_) => return ShapeValue::Nac,
        None => return input.clone(),
    };
    let (h, w) = match sizes.elems() {
        Some(e) if e.len() == 2 => (e[0].clone(), e[1].clone()),
        Some(_) => return ShapeValue::Nac,
        None => {
            if sizes.is_undef() {
                return ShapeValue::Undef;
            }
            (DimValue::Nac, DimValue::Nac)
        }
    };
    ShapeValue::Ranked(vec![dims[0].clone(), dims[1].clone(), h, w])
}

fn tile_shape(input: &ShapeValue, repeats: &SymValue) -> ShapeValue {
    let dims = match input.dims() {
        Some(d) => d,
        None => return input.clone(),
    };
    let reps = match repeats.elems() {
        Some(e) if e.len() == dims.len() => e,
        Some(_) => return ShapeValue::Nac,
        None => {
            return if repeats.is_undef() {
                ShapeValue::Undef
            } else {
                ShapeValue::ranked_nac(dims.len())
            }
        }
    };
    let mut out = Vec::with_capacity(dims.len());
    for (d, r) in dims.iter().zip(reps) {
        out.push(match (d.as_expr(), r.as_expr()) {
            (Some(de), Some(re)) => DimValue::Expr(DimExpr::mul(de.clone(), re.clone())),
            _ => DimValue::Nac,
        });
    }
    ShapeValue::Ranked(out)
}

fn onehot_shape(indices: &ShapeValue, depth: &SymValue) -> ShapeValue {
    let dims = match indices.dims() {
        Some(d) => d,
        None => return indices.clone(),
    };
    let dd = match depth.elems().and_then(|e| e.first().cloned()) {
        Some(v) => v,
        None => {
            if depth.is_undef() {
                return ShapeValue::Undef;
            }
            DimValue::Nac
        }
    };
    let mut out = dims.to_vec();
    out.push(dd);
    ShapeValue::Ranked(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod2_ir::{Graph, UnaryOp};

    fn node_of(op: Op, n_in: usize) -> Node {
        // Build a throwaway graph to materialize a node with correct arity.
        let mut g = Graph::new();
        let mut ins = Vec::new();
        for i in 0..n_in {
            ins.push(g.add_input(format!("i{i}"), DType::F32, vec![]));
        }
        g.add_node("n", op, &ins, DType::F32);
        g.nodes()[0].clone()
    }

    fn sym_shape(names: &[&str]) -> ShapeValue {
        ShapeValue::Ranked(names.iter().map(|n| DimValue::sym(*n)).collect())
    }

    #[test]
    fn shape_op_produces_value() {
        let n = node_of(Op::Shape, 1);
        let p = forward(
            &n,
            &[sym_shape(&["a", "b"])],
            &[SymValue::Nac],
            &[DType::I64],
        );
        assert_eq!(p.shapes[0], ShapeValue::known(&[2]));
        assert_eq!(
            p.values[0],
            SymValue::Elems(vec![DimValue::sym("a"), DimValue::sym("b")])
        );
    }

    #[test]
    fn transpose_with_invalid_perm_is_nac() {
        for (perm, rank) in [(vec![0, 1, 5], 3), (vec![0, 0], 2)] {
            let n = node_of(Op::Transpose { perm }, 1);
            let names = ["a", "b", "c"];
            let p = forward(
                &n,
                &[sym_shape(&names[..rank])],
                &[SymValue::Nac],
                &[DType::F32],
            );
            assert_eq!(p.shapes[0], ShapeValue::Nac);
        }
    }

    #[test]
    fn conv_shape_symbolic() {
        let op = Op::Conv2d {
            spatial: Spatial2d::new(3, 2, 1),
            groups: 1,
        };
        let n = node_of(op, 2);
        let input = ShapeValue::Ranked(vec![
            DimValue::known(1),
            DimValue::known(3),
            DimValue::sym("H"),
            DimValue::sym("W"),
        ]);
        let weight = ShapeValue::known(&[16, 3, 3, 3]);
        let p = forward(
            &n,
            &[input, weight],
            &[SymValue::Nac, SymValue::Nac],
            &[DType::F32],
        );
        let dims = p.shapes[0].dims().expect("ranked");
        assert_eq!(dims[0], DimValue::known(1));
        assert_eq!(dims[1], DimValue::known(16));
        // (H + 2 - 3)/2 + 1
        let h = DimExpr::add(
            DimExpr::floor_div(
                DimExpr::add(DimExpr::sym("H"), DimExpr::Const(-1)),
                DimExpr::Const(2),
            ),
            DimExpr::Const(1),
        );
        assert_eq!(dims[2], DimValue::Expr(h));
    }

    #[test]
    fn matmul_shape_batched() {
        let n = node_of(Op::MatMul, 2);
        let a = ShapeValue::Ranked(vec![
            DimValue::sym("B"),
            DimValue::sym("M"),
            DimValue::known(64),
        ]);
        let b = ShapeValue::known(&[64, 128]);
        let p = forward(&n, &[a, b], &[SymValue::Nac, SymValue::Nac], &[DType::F32]);
        assert_eq!(
            p.shapes[0],
            ShapeValue::Ranked(vec![
                DimValue::sym("B"),
                DimValue::sym("M"),
                DimValue::known(128)
            ])
        );
    }

    #[test]
    fn reshape_with_minus_one() {
        let n = node_of(Op::Reshape, 2);
        let input = ShapeValue::Ranked(vec![
            DimValue::sym("N"),
            DimValue::known(4),
            DimValue::known(8),
        ]);
        let target = SymValue::Elems(vec![DimValue::known(-1), DimValue::known(32)]);
        let p = forward(
            &n,
            &[input, ShapeValue::known(&[2])],
            &[SymValue::Nac, target],
            &[DType::F32],
        );
        // inferred dim = N*4*8 / 32 = N
        assert_eq!(
            p.shapes[0],
            ShapeValue::Ranked(vec![DimValue::sym("N"), DimValue::known(32)])
        );
    }

    #[test]
    fn range_symbolic_length() {
        let n = node_of(Op::Range, 3);
        let p = forward(
            &n,
            &[
                ShapeValue::known(&[1]),
                ShapeValue::known(&[1]),
                ShapeValue::known(&[1]),
            ],
            &[
                SymValue::scalar(0),
                SymValue::Elems(vec![DimValue::sym("L")]),
                SymValue::scalar(1),
            ],
            &[DType::I64],
        );
        // length = max(0, ceil((L - 0)/1)) = max(0, L)
        let want = DimExpr::max(DimExpr::Const(0), DimExpr::sym("L"));
        assert_eq!(p.shapes[0], ShapeValue::Ranked(vec![DimValue::Expr(want)]));
    }

    #[test]
    fn nonzero_partial_shape() {
        let n = node_of(Op::NonZero, 1);
        let p = forward(
            &n,
            &[ShapeValue::known(&[3, 4])],
            &[SymValue::Nac],
            &[DType::I64],
        );
        assert_eq!(
            p.shapes[0],
            ShapeValue::Ranked(vec![DimValue::known(2), DimValue::Nac])
        );
    }

    #[test]
    fn combine_merges_branches() {
        let n = node_of(Op::Combine { num_branches: 2 }, 3);
        let s1 = sym_shape(&["a", "b"]);
        let s2 = sym_shape(&["a", "b"]);
        let p = forward(
            &n,
            &[s1.clone(), s2, ShapeValue::known(&[1])],
            &[SymValue::Nac, SymValue::Nac, SymValue::Nac],
            &[DType::F32],
        );
        assert_eq!(p.shapes[0], s1);

        // Disagreeing branches merge to per-dim nac.
        let s3 = sym_shape(&["a", "c"]);
        let p = forward(
            &n,
            &[sym_shape(&["a", "b"]), s3, ShapeValue::known(&[1])],
            &[SymValue::Nac, SymValue::Nac, SymValue::Nac],
            &[DType::F32],
        );
        assert_eq!(
            p.shapes[0],
            ShapeValue::Ranked(vec![DimValue::sym("a"), DimValue::Nac])
        );
    }

    #[test]
    fn unary_keeps_shape() {
        let n = node_of(Op::Unary(UnaryOp::Relu), 1);
        let s = sym_shape(&["x"]);
        let p = forward(
            &n,
            std::slice::from_ref(&s),
            &[SymValue::Nac],
            &[DType::F32],
        );
        assert_eq!(p.shapes[0], s);
    }

    #[test]
    fn concat_sums_axis() {
        let n = node_of(Op::Concat { axis: 1 }, 2);
        let a = ShapeValue::Ranked(vec![DimValue::sym("n"), DimValue::known(3)]);
        let b = ShapeValue::Ranked(vec![DimValue::sym("n"), DimValue::sym("m")]);
        let p = forward(&n, &[a, b], &[SymValue::Nac, SymValue::Nac], &[DType::F32]);
        assert_eq!(
            p.shapes[0],
            ShapeValue::Ranked(vec![
                DimValue::sym("n"),
                DimValue::Expr(DimExpr::add(DimExpr::Const(3), DimExpr::sym("m")))
            ])
        );
    }

    #[test]
    fn binary_value_arithmetic() {
        let v = binary_value(
            BinaryOp::Mul,
            &SymValue::Elems(vec![DimValue::sym("n")]),
            &SymValue::known(&[2]),
            DType::I64,
        );
        assert_eq!(
            v,
            SymValue::Elems(vec![DimValue::Expr(DimExpr::mul(
                DimExpr::sym("n"),
                DimExpr::Const(2)
            ))])
        );
    }
}
