//! Shape-manipulating kernels: reshape, transpose, concat, slice, pad,
//! gather, expand, tile, and the shape-producing ISDO operators.

use crate::error::{dtype_err, shape_err, KernelError};
use sod2_ir::{is_permutation, normalize_axis};
use sod2_tensor::{broadcast_output_shape, Data, Indexer, RunWalk, Tensor};

/// `Shape(x)` — returns the input's shape as an `i64` tensor.
pub fn shape_of(x: &Tensor) -> Tensor {
    let dims: Vec<i64> = x.shape().iter().map(|&d| d as i64).collect();
    Tensor::from_i64(&[dims.len()], dims)
}

/// `Size(x)` — total element count.
pub fn size_of(x: &Tensor) -> Tensor {
    Tensor::from_i64(&[1], vec![x.numel() as i64])
}

/// `ConstantOfShape(shape)` — filled f32 tensor.
pub fn constant_of_shape(shape: &Tensor, value: f32) -> Result<Tensor, KernelError> {
    let dims = tensor_as_dims(shape, "ConstantOfShape")?;
    Ok(Tensor::full(&dims, value))
}

/// `EyeLike(x)` — identity matrix with the input's 2-D shape.
pub fn eye_like(x: &Tensor) -> Result<Tensor, KernelError> {
    let dims = x.shape();
    if dims.len() != 2 {
        return Err(shape_err("EyeLike", "input must be rank 2"));
    }
    let (n, m) = (dims[0], dims[1]);
    let mut out = vec![0f32; n * m];
    for i in 0..n.min(m) {
        out[i * m + i] = 1.0;
    }
    Ok(Tensor::from_f32(dims, out))
}

/// Interprets a 1-D i64 tensor as concrete dimensions.
pub fn tensor_as_dims(t: &Tensor, op: &'static str) -> Result<Vec<usize>, KernelError> {
    let v = t.as_i64().map_err(|e| dtype_err(op, e.to_string()))?;
    v.iter()
        .map(|&d| {
            if d < 0 {
                Err(shape_err(op, format!("negative dim {d}")))
            } else {
                Ok(d as usize)
            }
        })
        .collect()
}

/// `Reshape(x, target)` with ONNX `0` (copy) and `-1` (infer) semantics.
pub fn reshape(x: &Tensor, target: &Tensor) -> Result<Tensor, KernelError> {
    let tv = target
        .as_i64()
        .map_err(|e| dtype_err("Reshape", e.to_string()))?;
    let mut dims: Vec<usize> = Vec::with_capacity(tv.len());
    let mut infer: Option<usize> = None;
    for (i, &d) in tv.iter().enumerate() {
        match d {
            -1 => {
                if infer.is_some() {
                    return Err(shape_err("Reshape", "multiple -1 dims"));
                }
                infer = Some(i);
                dims.push(1);
            }
            0 => {
                let src = x
                    .shape()
                    .get(i)
                    .ok_or_else(|| shape_err("Reshape", "0-dim out of range"))?;
                dims.push(*src);
            }
            d if d > 0 => dims.push(d as usize),
            d => return Err(shape_err("Reshape", format!("bad dim {d}"))),
        }
    }
    if let Some(pos) = infer {
        let known: usize = dims
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != pos)
            .map(|(_, &d)| d)
            .product();
        if known == 0 || !x.numel().is_multiple_of(known) {
            return Err(shape_err("Reshape", "cannot infer -1 dim"));
        }
        dims[pos] = x.numel() / known;
    }
    let total: usize = dims.iter().product();
    if total != x.numel() {
        return Err(shape_err(
            "Reshape",
            format!("{} elements into shape {:?}", x.numel(), dims),
        ));
    }
    Ok(x.reshape(&dims))
}

/// `Transpose(x, perm)`: output axis `i` is input axis `perm[i]`.
///
/// Walks the output in order with an odometer over its axes, stepping the
/// input offset by each axis's input stride.
pub fn transpose(x: &Tensor, perm: &[usize]) -> Result<Tensor, KernelError> {
    let dims = x.shape();
    if perm.len() != dims.len() || !is_permutation(perm) {
        return Err(shape_err(
            "Transpose",
            format!(
                "perm {perm:?} is not a permutation of the {} axes",
                dims.len()
            ),
        ));
    }
    let out_shape: Vec<usize> = perm.iter().map(|&p| dims[p]).collect();
    let strides: Vec<usize> = perm
        .iter()
        .map(|&p| dims[p + 1..].iter().product())
        .collect();
    let data = match x.data() {
        Data::F32(v) => Data::F32(permute(v, &out_shape, &strides)),
        Data::I64(v) => Data::I64(permute(v, &out_shape, &strides)),
        Data::Bool(v) => Data::Bool(permute(v, &out_shape, &strides)),
        Data::U8(v) => Data::U8(permute(v, &out_shape, &strides)),
    };
    Tensor::new(&out_shape, data).map_err(|e| shape_err("Transpose", e.to_string()))
}

/// Gathers `v` into the row-major order of `shape`, where a step along
/// output axis `i` moves `strides[i]` elements in `v`.
fn permute<T: Copy>(v: &[T], shape: &[usize], strides: &[usize]) -> Vec<T> {
    let numel: usize = shape.iter().product();
    let mut out = Vec::with_capacity(numel);
    let Some((&inner, outer)) = shape.split_last() else {
        // Rank 0: the one element.
        out.extend_from_slice(v);
        return out;
    };
    if numel == 0 {
        return out;
    }
    let step = strides[outer.len()];
    let mut idx = vec![0usize; outer.len()];
    let mut base = 0;
    loop {
        out.extend((0..inner).map(|t| v[base + t * step]));
        // Advance the odometer over the outer axes, innermost first.
        let mut ax = outer.len();
        loop {
            if ax == 0 {
                return out;
            }
            ax -= 1;
            idx[ax] += 1;
            base += strides[ax];
            if idx[ax] < outer[ax] {
                break;
            }
            base -= strides[ax] * outer[ax];
            idx[ax] = 0;
        }
    }
}

/// `Concat(inputs, axis)`.
pub fn concat(inputs: &[&Tensor], axis: i64) -> Result<Tensor, KernelError> {
    let first = inputs
        .first()
        .ok_or_else(|| shape_err("Concat", "no inputs"))?;
    let rank = first.rank();
    let ax = normalize_axis(axis, rank).ok_or_else(|| shape_err("Concat", "bad axis"))?;
    let mut out_shape = first.shape().to_vec();
    let mut axis_total = 0usize;
    for t in inputs {
        if t.rank() != rank {
            return Err(shape_err("Concat", "rank mismatch"));
        }
        for (i, (&a, &b)) in t.shape().iter().zip(first.shape()).enumerate() {
            if i != ax && a != b {
                return Err(shape_err("Concat", "non-axis dim mismatch"));
            }
        }
        axis_total += t.shape()[ax];
    }
    out_shape[ax] = axis_total;
    let outer: usize = out_shape[..ax].iter().product();
    let inner: usize = out_shape[ax + 1..].iter().product();
    macro_rules! do_concat {
        ($get:ident, $ctor:path, $zero:expr) => {{
            let mut out = vec![$zero; out_shape.iter().product::<usize>()];
            let mut axis_off = 0usize;
            for t in inputs {
                let v = t.$get().map_err(|e| dtype_err("Concat", e.to_string()))?;
                let alen = t.shape()[ax];
                for o in 0..outer {
                    let src = &v[o * alen * inner..(o + 1) * alen * inner];
                    let dst_base = (o * axis_total + axis_off) * inner;
                    out[dst_base..dst_base + alen * inner].clone_from_slice(src);
                }
                axis_off += alen;
            }
            Tensor::new(&out_shape, $ctor(out)).map_err(|e| shape_err("Concat", e.to_string()))
        }};
    }
    match first.data() {
        Data::F32(_) => do_concat!(as_f32, Data::F32, 0f32),
        Data::I64(_) => do_concat!(as_i64, Data::I64, 0i64),
        Data::Bool(_) => do_concat!(as_bool, Data::Bool, false),
        Data::U8(_) => Err(dtype_err("Concat", "u8 not supported")),
    }
}

/// Static or dynamic slice with per-axis `[start, end)` (missing axes keep
/// the full extent; negative indices count from the end; `i64::MAX` = end).
pub fn slice(x: &Tensor, starts: &[i64], ends: &[i64]) -> Result<Tensor, KernelError> {
    let dims = x.shape();
    let rank = dims.len();
    let mut s = vec![0usize; rank];
    let mut e = dims.to_vec();
    for i in 0..rank {
        let d = dims[i] as i64;
        if let Some(&st) = starts.get(i) {
            let st = if st < 0 { st + d } else { st };
            s[i] = st.clamp(0, d) as usize;
        }
        if let Some(&en) = ends.get(i) {
            let en = if en == i64::MAX {
                d
            } else if en < 0 {
                en + d
            } else {
                en
            };
            e[i] = en.clamp(0, d) as usize;
        }
        if s[i] > e[i] {
            e[i] = s[i];
        }
    }
    let out_shape: Vec<usize> = s.iter().zip(&e).map(|(a, b)| b - a).collect();
    let out_ix = Indexer::new(&out_shape);
    let in_ix = Indexer::new(dims);
    let n: usize = out_shape.iter().product();
    macro_rules! do_slice {
        ($get:ident, $ctor:path, $zero:expr) => {{
            let v = x.$get().map_err(|er| dtype_err("Slice", er.to_string()))?;
            let mut out = vec![$zero; n];
            for (o, slot) in out.iter_mut().enumerate() {
                let mut c = out_ix.coords(o);
                for i in 0..rank {
                    c[i] += s[i];
                }
                *slot = v[in_ix.offset(&c)].clone();
            }
            Tensor::new(&out_shape, $ctor(out)).map_err(|er| shape_err("Slice", er.to_string()))
        }};
    }
    match x.data() {
        Data::F32(_) => do_slice!(as_f32, Data::F32, 0f32),
        Data::I64(_) => do_slice!(as_i64, Data::I64, 0i64),
        Data::Bool(_) => do_slice!(as_bool, Data::Bool, false),
        Data::U8(_) => Err(dtype_err("Slice", "u8 not supported")),
    }
}

/// `Pad(x, pads, value)` with ONNX ordering (`before`s then `after`s).
pub fn pad(x: &Tensor, pads: &[i64], value: f32) -> Result<Tensor, KernelError> {
    let dims = x.shape();
    let rank = dims.len();
    if pads.len() != 2 * rank {
        return Err(shape_err("Pad", "pads must have 2*rank entries"));
    }
    let xv = x.as_f32().map_err(|e| dtype_err("Pad", e.to_string()))?;
    let before: Vec<i64> = pads[..rank].to_vec();
    let mut out_shape = Vec::with_capacity(rank);
    for i in 0..rank {
        let total = dims[i] as i64 + pads[i] + pads[i + rank];
        if total < 0 {
            return Err(shape_err("Pad", "negative output dim"));
        }
        out_shape.push(total as usize);
    }
    let out_ix = Indexer::new(&out_shape);
    let in_ix = Indexer::new(dims);
    let n: usize = out_shape.iter().product();
    let mut out = vec![value; n];
    for (o, slot) in out.iter_mut().enumerate() {
        let oc = out_ix.coords(o);
        let mut ic = vec![0usize; rank];
        let mut inside = true;
        for i in 0..rank {
            let c = oc[i] as i64 - before[i];
            if c < 0 || c >= dims[i] as i64 {
                inside = false;
                break;
            }
            ic[i] = c as usize;
        }
        if inside {
            *slot = xv[in_ix.offset(&ic)];
        }
    }
    Ok(Tensor::from_f32(&out_shape, out))
}

/// `Gather(data, indices, axis)`.
pub fn gather(data: &Tensor, indices: &Tensor, axis: i64) -> Result<Tensor, KernelError> {
    let dims = data.shape();
    let ax = normalize_axis(axis, dims.len()).ok_or_else(|| shape_err("Gather", "bad axis"))?;
    let iv = indices
        .as_i64()
        .map_err(|e| dtype_err("Gather", e.to_string()))?;
    let axis_len = dims[ax] as i64;
    let outer: usize = dims[..ax].iter().product();
    let inner: usize = dims[ax + 1..].iter().product();
    let mut out_shape: Vec<usize> = Vec::new();
    out_shape.extend(&dims[..ax]);
    out_shape.extend(indices.shape());
    out_shape.extend(&dims[ax + 1..]);
    let k = iv.len();
    macro_rules! do_gather {
        ($get:ident, $ctor:path, $zero:expr) => {{
            let v = data
                .$get()
                .map_err(|e| dtype_err("Gather", e.to_string()))?;
            let mut out = vec![$zero; outer * k * inner];
            for o in 0..outer {
                for (j, &raw) in iv.iter().enumerate() {
                    let idx = if raw < 0 { raw + axis_len } else { raw };
                    if idx < 0 || idx >= axis_len {
                        return Err(shape_err("Gather", format!("index {raw} out of range")));
                    }
                    let src = (o * axis_len as usize + idx as usize) * inner;
                    let dst = (o * k + j) * inner;
                    out[dst..dst + inner].clone_from_slice(&v[src..src + inner]);
                }
            }
            Tensor::new(&out_shape, $ctor(out)).map_err(|e| shape_err("Gather", e.to_string()))
        }};
    }
    match data.data() {
        Data::F32(_) => do_gather!(as_f32, Data::F32, 0f32),
        Data::I64(_) => do_gather!(as_i64, Data::I64, 0i64),
        Data::Bool(_) => do_gather!(as_bool, Data::Bool, false),
        Data::U8(_) => Err(dtype_err("Gather", "u8 not supported")),
    }
}

/// `Expand(x, target_shape)` — broadcast to the target.
pub fn expand(x: &Tensor, target: &Tensor) -> Result<Tensor, KernelError> {
    let tdims = tensor_as_dims(target, "Expand")?;
    let out_shape = broadcast_output_shape(x.shape(), &tdims)
        .ok_or_else(|| shape_err("Expand", "not broadcastable"))?;
    let xv = x.as_f32().map_err(|e| dtype_err("Expand", e.to_string()))?;
    let walk = RunWalk::new(&out_shape, &[x.shape()]);
    let n: usize = out_shape.iter().product();
    let mut out = vec![0f32; n];
    walk.for_each_run(0, n, |o, len, src| {
        let dst = &mut out[o..o + len];
        if walk.step(0) == 1 {
            dst.copy_from_slice(&xv[src[0]..src[0] + len]);
        } else {
            dst.fill(xv[src[0]]);
        }
    });
    Ok(Tensor::from_f32(&out_shape, out))
}

/// `Tile(x, repeats)`.
pub fn tile(x: &Tensor, repeats: &Tensor) -> Result<Tensor, KernelError> {
    let reps = tensor_as_dims(repeats, "Tile")?;
    let dims = x.shape();
    if reps.len() != dims.len() {
        return Err(shape_err("Tile", "repeats rank mismatch"));
    }
    let out_shape: Vec<usize> = dims.iter().zip(&reps).map(|(&d, &r)| d * r).collect();
    let xv = x.as_f32().map_err(|e| dtype_err("Tile", e.to_string()))?;
    let out_ix = Indexer::new(&out_shape);
    let in_ix = Indexer::new(dims);
    let n: usize = out_shape.iter().product();
    let mut out = vec![0f32; n];
    for (o, slot) in out.iter_mut().enumerate() {
        let mut c = out_ix.coords(o);
        for i in 0..dims.len() {
            c[i] %= dims[i].max(1);
        }
        *slot = xv[in_ix.offset(&c)];
    }
    Ok(Tensor::from_f32(&out_shape, out))
}

/// `Range(start, limit, delta)` over i64 scalars.
pub fn range(start: &Tensor, limit: &Tensor, delta: &Tensor) -> Result<Tensor, KernelError> {
    let s = scalar_i64(start, "Range")?;
    let l = scalar_i64(limit, "Range")?;
    let d = scalar_i64(delta, "Range")?;
    if d == 0 {
        return Err(shape_err("Range", "delta must be nonzero"));
    }
    let n = (((l - s) as f64) / (d as f64)).ceil().max(0.0) as usize;
    let mut out = Vec::with_capacity(n);
    let mut v = s;
    for _ in 0..n {
        out.push(v);
        v += d;
    }
    Ok(Tensor::from_i64(&[n], out))
}

/// `OneHot(indices, depth)` — f32 one-hot on a trailing axis.
pub fn one_hot(indices: &Tensor, depth: &Tensor) -> Result<Tensor, KernelError> {
    let iv = indices
        .as_i64()
        .map_err(|e| dtype_err("OneHot", e.to_string()))?;
    let d = scalar_i64(depth, "OneHot")?;
    if d <= 0 {
        return Err(shape_err("OneHot", "depth must be positive"));
    }
    let d = d as usize;
    let mut out_shape = indices.shape().to_vec();
    out_shape.push(d);
    let mut out = vec![0f32; iv.len() * d];
    for (i, &idx) in iv.iter().enumerate() {
        let idx = if idx < 0 { idx + d as i64 } else { idx };
        if idx >= 0 && (idx as usize) < d {
            out[i * d + idx as usize] = 1.0;
        }
    }
    Ok(Tensor::from_f32(&out_shape, out))
}

/// Nearest-neighbour `Resize(x, sizes)` of the trailing two spatial dims.
pub fn resize_nearest(x: &Tensor, sizes: &Tensor) -> Result<Tensor, KernelError> {
    let dims = x.shape();
    if dims.len() != 4 {
        return Err(shape_err("Resize", "input must be NCHW"));
    }
    let t = tensor_as_dims(sizes, "Resize")?;
    if t.len() != 2 {
        return Err(shape_err("Resize", "sizes must have 2 entries [H', W']"));
    }
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let (oh, ow) = (t[0], t[1]);
    let xv = x.as_f32().map_err(|e| dtype_err("Resize", e.to_string()))?;
    let mut out = vec![0f32; n * c * oh * ow];
    for b in 0..n {
        for ch in 0..c {
            let src = &xv[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
            for oy in 0..oh {
                let iy = (oy * h) / oh.max(1);
                for ox in 0..ow {
                    let ix = (ox * w) / ow.max(1);
                    out[((b * c + ch) * oh + oy) * ow + ox] = src[iy * w + ix];
                }
            }
        }
    }
    Ok(Tensor::from_f32(&[n, c, oh, ow], out))
}

/// `Split(x, axis, splits)` — parts along `axis` with the given sizes.
pub fn split(x: &Tensor, axis: i64, splits: &[i64]) -> Result<Vec<Tensor>, KernelError> {
    let rank = x.rank();
    let ax = normalize_axis(axis, rank).ok_or_else(|| shape_err("Split", "bad axis"))?;
    let total: i64 = splits.iter().sum();
    if total != x.shape()[ax] as i64 || splits.iter().any(|&s| s < 0) {
        return Err(shape_err(
            "Split",
            format!(
                "splits {splits:?} do not sum to axis extent {}",
                x.shape()[ax]
            ),
        ));
    }
    let mut outs = Vec::with_capacity(splits.len());
    let mut start = 0i64;
    for &len in splits {
        let mut starts = vec![0i64; rank];
        let mut ends = vec![i64::MAX; rank];
        starts[ax] = start;
        ends[ax] = start + len;
        outs.push(slice(x, &starts, &ends)?);
        start += len;
    }
    Ok(outs)
}

/// `Flatten(x, axis)`.
pub fn flatten(x: &Tensor, axis: i64) -> Result<Tensor, KernelError> {
    let rank = x.rank();
    let ax = if axis == rank as i64 {
        rank
    } else {
        normalize_axis(axis, rank.max(1)).ok_or_else(|| shape_err("Flatten", "bad axis"))?
    };
    let d0: usize = x.shape()[..ax].iter().product();
    let d1: usize = x.shape()[ax..].iter().product();
    Ok(x.reshape(&[d0, d1]))
}

/// `Unsqueeze(x, axes)`.
pub fn unsqueeze(x: &Tensor, axes: &[i64]) -> Result<Tensor, KernelError> {
    let out_rank = x.rank() + axes.len();
    let norm: Vec<usize> = axes
        .iter()
        .map(|&a| normalize_axis(a, out_rank).ok_or_else(|| shape_err("Unsqueeze", "bad axis")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out_shape = Vec::with_capacity(out_rank);
    let mut src = x.shape().iter();
    for i in 0..out_rank {
        if norm.contains(&i) {
            out_shape.push(1);
        } else {
            out_shape.push(*src.next().ok_or_else(|| shape_err("Unsqueeze", "rank"))?);
        }
    }
    Ok(x.reshape(&out_shape))
}

/// `Squeeze(x, axes)` (empty = all unit axes).
pub fn squeeze(x: &Tensor, axes: &[i64]) -> Result<Tensor, KernelError> {
    let dims = x.shape();
    let rank = dims.len();
    let to_remove: Vec<usize> = if axes.is_empty() {
        dims.iter()
            .enumerate()
            .filter(|&(_, &d)| d == 1)
            .map(|(i, _)| i)
            .collect()
    } else {
        axes.iter()
            .map(|&a| normalize_axis(a, rank).ok_or_else(|| shape_err("Squeeze", "bad axis")))
            .collect::<Result<Vec<_>, _>>()?
    };
    let out_shape: Vec<usize> = dims
        .iter()
        .enumerate()
        .filter(|(i, _)| !to_remove.contains(i))
        .map(|(_, &d)| d)
        .collect();
    Ok(x.reshape(&out_shape))
}

fn scalar_i64(t: &Tensor, op: &'static str) -> Result<i64, KernelError> {
    let v = t.as_i64().map_err(|e| dtype_err(op, e.to_string()))?;
    v.first()
        .copied()
        .ok_or_else(|| shape_err(op, "expected a scalar"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_size() {
        let x = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(shape_of(&x).as_i64().expect("i64"), &[2, 3, 4]);
        assert_eq!(size_of(&x).as_i64().expect("i64"), &[24]);
    }

    #[test]
    fn reshape_semantics() {
        let x = Tensor::from_f32(&[2, 6], (0..12).map(|i| i as f32).collect());
        let t = Tensor::from_i64(&[3], vec![0, -1, 2]);
        let y = reshape(&x, &t).expect("reshape");
        assert_eq!(y.shape(), &[2, 3, 2]);
        let bad = Tensor::from_i64(&[2], vec![-1, -1]);
        assert!(reshape(&x, &bad).is_err());
    }

    #[test]
    fn transpose_2d() {
        let x = Tensor::from_f32(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let y = transpose(&x, &[1, 0]).expect("transpose");
        assert_eq!(y.shape(), &[3, 2]);
        assert_eq!(y.as_f32().expect("f32"), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn concat_axis1() {
        let a = Tensor::from_f32(&[2, 1], vec![1., 2.]);
        let b = Tensor::from_f32(&[2, 2], vec![3., 4., 5., 6.]);
        let y = concat(&[&a, &b], 1).expect("concat");
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.as_f32().expect("f32"), &[1., 3., 4., 2., 5., 6.]);
    }

    #[test]
    fn slice_negative_and_max() {
        let x = Tensor::from_f32(&[5], vec![0., 1., 2., 3., 4.]);
        let y = slice(&x, &[1], &[i64::MAX]).expect("slice");
        assert_eq!(y.as_f32().expect("f32"), &[1., 2., 3., 4.]);
        let y = slice(&x, &[-2], &[i64::MAX]).expect("slice");
        assert_eq!(y.as_f32().expect("f32"), &[3., 4.]);
    }

    #[test]
    fn pad_2d() {
        let x = Tensor::from_f32(&[1, 1], vec![5.0]);
        let y = pad(&x, &[1, 1, 1, 1], 0.0).expect("pad");
        assert_eq!(y.shape(), &[3, 3]);
        assert_eq!(y.as_f32().expect("f32")[4], 5.0);
        assert_eq!(y.as_f32().expect("f32").iter().sum::<f32>(), 5.0);
    }

    #[test]
    fn gather_rows() {
        let x = Tensor::from_f32(&[3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let idx = Tensor::from_i64(&[2], vec![2, 0]);
        let y = gather(&x, &idx, 0).expect("gather");
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.as_f32().expect("f32"), &[5., 6., 1., 2.]);
    }

    #[test]
    fn gather_out_of_range() {
        let x = Tensor::from_f32(&[2], vec![1., 2.]);
        let idx = Tensor::from_i64(&[1], vec![5]);
        assert!(gather(&x, &idx, 0).is_err());
    }

    #[test]
    fn expand_broadcasts() {
        let x = Tensor::from_f32(&[1, 2], vec![1., 2.]);
        let t = Tensor::from_i64(&[2], vec![3, 2]);
        let y = expand(&x, &t).expect("expand");
        assert_eq!(y.shape(), &[3, 2]);
        assert_eq!(y.as_f32().expect("f32"), &[1., 2., 1., 2., 1., 2.]);
    }

    #[test]
    fn tile_repeats() {
        let x = Tensor::from_f32(&[2], vec![1., 2.]);
        let r = Tensor::from_i64(&[1], vec![3]);
        let y = tile(&x, &r).expect("tile");
        assert_eq!(y.as_f32().expect("f32"), &[1., 2., 1., 2., 1., 2.]);
    }

    #[test]
    fn range_basic() {
        let y = range(
            &Tensor::scalar_i64(2),
            &Tensor::scalar_i64(9),
            &Tensor::scalar_i64(3),
        )
        .expect("range");
        assert_eq!(y.as_i64().expect("i64"), &[2, 5, 8]);
    }

    #[test]
    fn one_hot_trailing() {
        let idx = Tensor::from_i64(&[2], vec![0, 2]);
        let y = one_hot(&idx, &Tensor::scalar_i64(3)).expect("onehot");
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.as_f32().expect("f32"), &[1., 0., 0., 0., 0., 1.]);
    }

    #[test]
    fn resize_doubles() {
        let x = Tensor::from_f32(&[1, 1, 1, 2], vec![1., 2.]);
        let s = Tensor::from_i64(&[2], vec![1, 4]);
        let y = resize_nearest(&x, &s).expect("resize");
        assert_eq!(y.as_f32().expect("f32"), &[1., 1., 2., 2.]);
    }

    #[test]
    fn squeeze_unsqueeze_roundtrip() {
        let x = Tensor::zeros(&[2, 3]);
        let y = unsqueeze(&x, &[0, 3]).expect("unsqueeze");
        assert_eq!(y.shape(), &[1, 2, 3, 1]);
        let z = squeeze(&y, &[]).expect("squeeze");
        assert_eq!(z.shape(), &[2, 3]);
    }

    #[test]
    fn eye_like_identity() {
        let x = Tensor::zeros(&[2, 3]);
        let y = eye_like(&x).expect("eye");
        assert_eq!(y.as_f32().expect("f32"), &[1., 0., 0., 0., 1., 0.]);
    }

    #[test]
    fn flatten_axis() {
        let x = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(flatten(&x, 1).expect("flatten").shape(), &[2, 12]);
        assert_eq!(flatten(&x, 0).expect("flatten").shape(), &[1, 24]);
    }
}
