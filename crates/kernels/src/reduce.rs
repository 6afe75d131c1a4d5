//! Reductions, normalizations, softmax, and top-k.

use crate::error::{dtype_err, shape_err, KernelError};
use crate::math;
use sod2_ir::{normalize_axis, ReduceOp};
use sod2_tensor::{Indexer, Tensor};

/// Lane grain for parallel reductions/normalizations: a region is split
/// only when it spans more than this many scalar reads.
const LANE_GRAIN_OPS: usize = crate::PAR_CUTOFF_OPS;

/// Row-major strides for a shape.
fn row_major_strides(shape: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * shape[i + 1];
    }
    s
}

/// Reduction over the given axes (empty = all axes).
///
/// Implemented as a per-output-lane gather: each output element folds its
/// contributors in ascending input-offset order — the same order the
/// element-scatter formulation visits them — so results are bitwise
/// stable while lanes parallelize freely.
pub fn reduce(
    op: ReduceOp,
    x: &Tensor,
    axes: &[i64],
    keep_dims: bool,
) -> Result<Tensor, KernelError> {
    let xv = x.as_f32().map_err(|e| dtype_err("Reduce", e.to_string()))?;
    let rank = x.rank();
    let mut reduced: Vec<usize> = if axes.is_empty() {
        (0..rank).collect()
    } else {
        axes.iter()
            .map(|&a| normalize_axis(a, rank).ok_or_else(|| shape_err("Reduce", "bad axis")))
            .collect::<Result<Vec<_>, _>>()?
    };
    reduced.sort_unstable();
    reduced.dedup();
    let mut out_shape: Vec<usize> = Vec::new();
    let mut out_full: Vec<usize> = Vec::new(); // with kept 1s, for index math
    for (i, &d) in x.shape().iter().enumerate() {
        if reduced.contains(&i) {
            out_full.push(1);
            if keep_dims {
                out_shape.push(1);
            }
        } else {
            out_full.push(d);
            out_shape.push(d);
        }
    }
    let out_ix = Indexer::new(&out_full);
    let n_out = out_ix.numel();
    let init = match op {
        ReduceOp::Sum | ReduceOp::Mean => 0.0,
        ReduceOp::Max => f32::NEG_INFINITY,
        ReduceOp::Min => f32::INFINITY,
        ReduceOp::Prod => 1.0,
    };
    let in_strides = row_major_strides(x.shape());
    let red_dims: Vec<usize> = reduced.iter().map(|&r| x.shape()[r]).collect();
    let red_strides: Vec<usize> = reduced.iter().map(|&r| in_strides[r]).collect();
    let count: usize = red_dims.iter().product();
    let mut acc = vec![init; n_out];
    let lanes_per_chunk = (LANE_GRAIN_OPS / count.max(1)).max(1);
    sod2_pool::scope_chunks(&mut acc, lanes_per_chunk, |off, chunk| {
        let mut rc = vec![0usize; red_dims.len()];
        for (li, a) in chunk.iter_mut().enumerate() {
            // Base input offset of this lane (reduced coords are 0 in
            // `out_full`, so they contribute nothing).
            let coords = out_ix.coords(off + li);
            let base: usize = coords.iter().zip(&in_strides).map(|(c, s)| c * s).sum();
            if count == 0 {
                continue; // a reduced axis has extent 0: lane keeps `init`
            }
            // Odometer over the reduced dims (ascending axis order =
            // ascending input offset for this lane).
            rc.iter_mut().for_each(|c| *c = 0);
            let mut idx = base;
            let mut v = *a;
            loop {
                let e = xv[idx];
                match op {
                    ReduceOp::Sum | ReduceOp::Mean => v += e,
                    ReduceOp::Max => v = v.max(e),
                    ReduceOp::Min => v = v.min(e),
                    ReduceOp::Prod => v *= e,
                }
                let mut d = red_dims.len();
                loop {
                    if d == 0 {
                        break;
                    }
                    d -= 1;
                    rc[d] += 1;
                    idx += red_strides[d];
                    if rc[d] < red_dims[d] {
                        break;
                    }
                    idx -= rc[d] * red_strides[d];
                    rc[d] = 0;
                }
                if rc.iter().all(|&c| c == 0) {
                    break; // odometer wrapped: all combinations visited
                }
            }
            if op == ReduceOp::Mean {
                v /= count as f32;
            }
            *a = v;
        }
    });
    Ok(Tensor::from_f32(&out_shape, acc))
}

/// Index of the maximum along `axis` (ONNX `ArgMax`), output `i64`.
pub fn argmax(x: &Tensor, axis: i64, keep_dims: bool) -> Result<Tensor, KernelError> {
    let xv = x.as_f32().map_err(|e| dtype_err("ArgMax", e.to_string()))?;
    let rank = x.rank();
    let ax = normalize_axis(axis, rank).ok_or_else(|| shape_err("ArgMax", "bad axis"))?;
    let dims = x.shape();
    let axis_len = dims[ax];
    let outer: usize = dims[..ax].iter().product();
    let inner: usize = dims[ax + 1..].iter().product();
    let mut out = vec![0i64; outer * inner];
    for o in 0..outer {
        for i in 0..inner {
            let mut best = f32::NEG_INFINITY;
            let mut best_idx = 0i64;
            for a in 0..axis_len {
                let v = xv[(o * axis_len + a) * inner + i];
                if v > best {
                    best = v;
                    best_idx = a as i64;
                }
            }
            out[o * inner + i] = best_idx;
        }
    }
    let mut out_shape: Vec<usize> = Vec::new();
    for (i, &d) in dims.iter().enumerate() {
        if i == ax {
            if keep_dims {
                out_shape.push(1);
            }
        } else {
            out_shape.push(d);
        }
    }
    Ok(Tensor::from_i64(&out_shape, out))
}

/// Softmax's lane count: element `a` of a row folds into partial max and
/// sum `a % SOFTMAX_LANES`, so both folds vectorize.
const SOFTMAX_LANES: usize = 8;

/// Numerically stable softmax along `axis`.
///
/// Each row (the `axis_len` values of one `(outer, inner)` lane) is, in
/// order: its maximum `m`; `e_a = exp(x_a - m)` (`math::exp`) and their
/// sum, as [`exp_lane_sum`] defines it; and `e_a · (1 / sum)`. Rows on a
/// strided axis are gathered into a contiguous buffer first, so every
/// axis computes the same bits.
pub fn softmax(x: &Tensor, axis: i64) -> Result<Tensor, KernelError> {
    let xv = x
        .as_f32()
        .map_err(|e| dtype_err("Softmax", e.to_string()))?;
    let rank = x.rank();
    let ax = normalize_axis(axis, rank).ok_or_else(|| shape_err("Softmax", "bad axis"))?;
    let dims = x.shape();
    let axis_len = dims[ax];
    let inner: usize = dims[ax + 1..].iter().product();
    let mut out = vec![0f32; xv.len()];
    // One outer block (axis_len * inner contiguous elements) is the unit
    // of parallelism, so a row never spans two chunks.
    let block = axis_len * inner;
    let blocks_per_chunk = (LANE_GRAIN_OPS / block.max(1)).max(1);
    sod2_pool::scope_chunks(&mut out, blocks_per_chunk * block, |off, chunk| {
        let src = &xv[off..off + chunk.len()];
        if inner == 1 {
            // The axis is innermost: each block is one contiguous row.
            for (orow, row) in chunk.chunks_exact_mut(block).zip(src.chunks_exact(block)) {
                softmax_row(row, orow);
            }
            return;
        }
        let mut lane = vec![0f32; 2 * axis_len];
        let (row, orow) = lane.split_at_mut(axis_len);
        for (obuf, xb) in chunk.chunks_exact_mut(block).zip(src.chunks_exact(block)) {
            for i in 0..inner {
                for (a, r) in row.iter_mut().enumerate() {
                    *r = xb[a * inner + i];
                }
                softmax_row(row, orow);
                for (a, &o) in orow.iter().enumerate() {
                    obuf[a * inner + i] = o;
                }
            }
        }
    });
    Ok(Tensor::from_f32(dims, out))
}

/// Softmax of one contiguous row into `out`, as [`softmax`] defines it.
fn softmax_row(row: &[f32], out: &mut [f32]) {
    let inv = 1.0 / exp_lane_sum(row, lane_max(row), out);
    for o in out {
        *o *= inv;
    }
}

/// The maximum of `row`, skipping NaNs (−∞ if there is none). Max is
/// exact, so the lane split changes no value; it only lets the fold
/// vectorize. A ±0 tie may come out as either zero, which no `exp`
/// difference can tell apart.
fn lane_max(row: &[f32]) -> f32 {
    // `v > m` is false for a NaN `v`, and `m` is never NaN, so this is
    // `f32::max` without its NaN fix-up.
    let max = |m: f32, v: f32| if v > m { v } else { m };
    let mut m = [f32::NEG_INFINITY; SOFTMAX_LANES];
    let lanes = row.chunks_exact(SOFTMAX_LANES);
    let rest = lanes.remainder();
    for c in lanes {
        for (m, &v) in m.iter_mut().zip(c) {
            *m = max(*m, v);
        }
    }
    m.iter()
        .chain(rest)
        .fold(f32::NEG_INFINITY, |a, &v| max(a, v))
}

/// Writes `e_a = math::exp(row[a] - mx)` into `out` and returns the sum of
/// the `e_a` in a fixed order: `e_a` of the first `len - len % 8` adds
/// into partial sum `a % 8` in ascending `a`; the eight partials combine
/// as `((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))`; the remaining
/// `len % 8` add in ascending order. The partials keep the exp loop
/// vectorized (a sequential `sum += e` would not), and summing in the
/// same pass saves a second walk over the row.
fn exp_lane_sum(row: &[f32], mx: f32, out: &mut [f32]) -> f32 {
    let mut s = [0f32; SOFTMAX_LANES];
    let mut outs = out.chunks_exact_mut(SOFTMAX_LANES);
    let mut rows = row.chunks_exact(SOFTMAX_LANES);
    for (o, r) in (&mut outs).zip(&mut rows) {
        for ((o, &v), s) in o.iter_mut().zip(r).zip(&mut s) {
            *o = math::exp(v - mx);
            *s += *o;
        }
    }
    let mut sum = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
    for (o, &v) in outs.into_remainder().iter_mut().zip(rows.remainder()) {
        *o = math::exp(v - mx);
        sum += *o;
    }
    sum
}

/// `log(softmax(x))` along `axis`, numerically stable.
pub fn log_softmax(x: &Tensor, axis: i64) -> Result<Tensor, KernelError> {
    let sm = softmax(x, axis)?;
    let v = sm
        .as_f32()
        .map_err(|e| dtype_err("LogSoftmax", e.to_string()))?;
    Ok(Tensor::from_f32(
        x.shape(),
        v.iter().map(|&p| p.max(1e-30).ln()).collect(),
    ))
}

/// Cumulative sum along `axis`.
pub fn cumsum(x: &Tensor, axis: i64) -> Result<Tensor, KernelError> {
    let xv = x.as_f32().map_err(|e| dtype_err("CumSum", e.to_string()))?;
    let rank = x.rank();
    let ax = normalize_axis(axis, rank).ok_or_else(|| shape_err("CumSum", "bad axis"))?;
    let dims = x.shape();
    let axis_len = dims[ax];
    let outer: usize = dims[..ax].iter().product();
    let inner: usize = dims[ax + 1..].iter().product();
    let mut out = xv.to_vec();
    for o in 0..outer {
        for i in 0..inner {
            for a in 1..axis_len {
                let cur = (o * axis_len + a) * inner + i;
                let prev = (o * axis_len + a - 1) * inner + i;
                out[cur] += out[prev];
            }
        }
    }
    Ok(Tensor::from_f32(dims, out))
}

/// Instance normalization over spatial dims per (n, c), NCHW:
/// `(x - μ_{n,c}) / σ_{n,c} * scale_c + bias_c`.
pub fn instance_norm(
    x: &Tensor,
    scale: &Tensor,
    bias: &Tensor,
    epsilon: f32,
) -> Result<Tensor, KernelError> {
    let xv = x
        .as_f32()
        .map_err(|e| dtype_err("InstanceNorm", e.to_string()))?;
    let sv = scale
        .as_f32()
        .map_err(|e| dtype_err("InstanceNorm", e.to_string()))?;
    let bv = bias
        .as_f32()
        .map_err(|e| dtype_err("InstanceNorm", e.to_string()))?;
    let dims = x.shape();
    if dims.len() < 3 {
        return Err(shape_err("InstanceNorm", "rank must be >= 3"));
    }
    let c = dims[1];
    if sv.len() != c || bv.len() != c {
        return Err(shape_err("InstanceNorm", "scale/bias must match C"));
    }
    let spatial: usize = dims[2..].iter().product();
    let mut out = vec![0f32; xv.len()];
    // One (n, c) plane per unit; whole planes per chunk.
    let planes_per_chunk = (LANE_GRAIN_OPS / spatial.max(1)).max(1);
    sod2_pool::scope_chunks(&mut out, planes_per_chunk * spatial, |off, chunk| {
        let p0 = off / spatial.max(1);
        for (pi, obuf) in chunk.chunks_exact_mut(spatial).enumerate() {
            let p = p0 + pi;
            let ch = p % c;
            let base = p * spatial;
            let plane = &xv[base..base + spatial];
            let mean: f32 = plane.iter().sum::<f32>() / spatial as f32;
            let var: f32 =
                plane.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / spatial as f32;
            let inv = 1.0 / (var + epsilon).sqrt();
            for (o, v) in obuf.iter_mut().zip(plane) {
                *o = (v - mean) * inv * sv[ch] + bv[ch];
            }
        }
    });
    Ok(Tensor::from_f32(dims, out))
}

/// Layer normalization over the last axis: `(x - μ)/σ * scale + bias`.
pub fn layer_norm(
    x: &Tensor,
    scale: &Tensor,
    bias: &Tensor,
    epsilon: f32,
) -> Result<Tensor, KernelError> {
    let xv = x
        .as_f32()
        .map_err(|e| dtype_err("LayerNorm", e.to_string()))?;
    let sv = scale
        .as_f32()
        .map_err(|e| dtype_err("LayerNorm", e.to_string()))?;
    let bv = bias
        .as_f32()
        .map_err(|e| dtype_err("LayerNorm", e.to_string()))?;
    let dims = x.shape();
    let d = *dims
        .last()
        .ok_or_else(|| shape_err("LayerNorm", "rank 0"))?;
    if sv.len() != d || bv.len() != d {
        return Err(shape_err("LayerNorm", "scale/bias must match last dim"));
    }
    let mut out = vec![0f32; xv.len()];
    // Whole rows per chunk.
    let rows_per_chunk = (LANE_GRAIN_OPS / d.max(1)).max(1);
    sod2_pool::scope_chunks(&mut out, rows_per_chunk * d, |off, chunk| {
        let r0 = off / d.max(1);
        for (ri, obuf) in chunk.chunks_exact_mut(d).enumerate() {
            let r = r0 + ri;
            let row = &xv[r * d..(r + 1) * d];
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv = 1.0 / (var + epsilon).sqrt();
            for j in 0..d {
                obuf[j] = (row[j] - mean) * inv * sv[j] + bv[j];
            }
        }
    });
    Ok(Tensor::from_f32(dims, out))
}

/// Inference-mode batch normalization over the channel axis (1) of NCHW.
pub fn batch_norm(
    x: &Tensor,
    scale: &Tensor,
    bias: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    epsilon: f32,
) -> Result<Tensor, KernelError> {
    let xv = x
        .as_f32()
        .map_err(|e| dtype_err("BatchNorm", e.to_string()))?;
    let sv = scale
        .as_f32()
        .map_err(|e| dtype_err("BatchNorm", e.to_string()))?;
    let bv = bias
        .as_f32()
        .map_err(|e| dtype_err("BatchNorm", e.to_string()))?;
    let mv = mean
        .as_f32()
        .map_err(|e| dtype_err("BatchNorm", e.to_string()))?;
    let vv = var
        .as_f32()
        .map_err(|e| dtype_err("BatchNorm", e.to_string()))?;
    let dims = x.shape();
    if dims.len() < 2 {
        return Err(shape_err("BatchNorm", "rank must be >= 2"));
    }
    let c = dims[1];
    if [sv.len(), bv.len(), mv.len(), vv.len()] != [c, c, c, c] {
        return Err(shape_err("BatchNorm", "per-channel params must match C"));
    }
    let spatial: usize = dims[2..].iter().product();
    let mut out = vec![0f32; xv.len()];
    // One (n, c) plane per unit; whole planes per chunk.
    let planes_per_chunk = (LANE_GRAIN_OPS / spatial.max(1)).max(1);
    sod2_pool::scope_chunks(&mut out, planes_per_chunk * spatial, |off, chunk| {
        let p0 = off / spatial.max(1);
        for (pi, obuf) in chunk.chunks_exact_mut(spatial).enumerate() {
            let p = p0 + pi;
            let ch = p % c;
            let inv = 1.0 / (vv[ch] + epsilon).sqrt();
            let base = p * spatial;
            for (i, o) in obuf.iter_mut().enumerate() {
                *o = (xv[base + i] - mv[ch]) * inv * sv[ch] + bv[ch];
            }
        }
    });
    Ok(Tensor::from_f32(dims, out))
}

/// `TopK` along `axis`: returns `(values, indices)`, sorted descending.
pub fn topk(x: &Tensor, k: usize, axis: i64) -> Result<(Tensor, Tensor), KernelError> {
    let xv = x.as_f32().map_err(|e| dtype_err("TopK", e.to_string()))?;
    let rank = x.rank();
    let ax = normalize_axis(axis, rank).ok_or_else(|| shape_err("TopK", "bad axis"))?;
    let dims = x.shape();
    let axis_len = dims[ax];
    if k > axis_len {
        return Err(shape_err("TopK", format!("k={k} > axis len {axis_len}")));
    }
    let outer: usize = dims[..ax].iter().product();
    let inner: usize = dims[ax + 1..].iter().product();
    let mut out_shape = dims.to_vec();
    out_shape[ax] = k;
    let mut values = vec![0f32; outer * k * inner];
    let mut indices = vec![0i64; outer * k * inner];
    let mut lane: Vec<(f32, usize)> = Vec::with_capacity(axis_len);
    for o in 0..outer {
        for i in 0..inner {
            lane.clear();
            for a in 0..axis_len {
                lane.push((xv[(o * axis_len + a) * inner + i], a));
            }
            lane.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(std::cmp::Ordering::Equal));
            for (j, &(v, idx)) in lane.iter().take(k).enumerate() {
                values[(o * k + j) * inner + i] = v;
                indices[(o * k + j) * inner + i] = idx as i64;
            }
        }
    }
    Ok((
        Tensor::from_f32(&out_shape, values),
        Tensor::from_i64(&out_shape, indices),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_sum_axis() {
        let x = Tensor::from_f32(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let y = reduce(ReduceOp::Sum, &x, &[1], false).expect("sum");
        assert_eq!(y.shape(), &[2]);
        assert_eq!(y.as_f32().expect("f32"), &[6., 15.]);
        let y = reduce(ReduceOp::Sum, &x, &[0], true).expect("sum");
        assert_eq!(y.shape(), &[1, 3]);
        assert_eq!(y.as_f32().expect("f32"), &[5., 7., 9.]);
    }

    #[test]
    fn reduce_mean_all() {
        let x = Tensor::from_f32(&[2, 2], vec![1., 2., 3., 4.]);
        let y = reduce(ReduceOp::Mean, &x, &[], false).expect("mean");
        assert_eq!(y.shape(), &[] as &[usize]);
        assert_eq!(y.as_f32().expect("f32"), &[2.5]);
    }

    #[test]
    fn argmax_rows() {
        let x = Tensor::from_f32(&[2, 3], vec![1., 9., 3., 7., 5., 6.]);
        let y = argmax(&x, 1, false).expect("argmax");
        assert_eq!(y.as_i64().expect("i64"), &[1, 0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_f32(&[2, 4], vec![1., 2., 3., 4., -1., 0., 1., 2.]);
        let y = softmax(&x, -1).expect("softmax");
        let v = y.as_f32().expect("f32");
        let s1: f32 = v[..4].iter().sum();
        let s2: f32 = v[4..].iter().sum();
        assert!((s1 - 1.0).abs() < 1e-6 && (s2 - 1.0).abs() < 1e-6);
        assert!(v[3] > v[2] && v[2] > v[1]);
    }

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let x = Tensor::from_f32(&[1, 4], vec![1., 2., 3., 4.]);
        let scale = Tensor::from_f32(&[4], vec![1.0; 4]);
        let bias = Tensor::from_f32(&[4], vec![0.0; 4]);
        let y = layer_norm(&x, &scale, &bias, 1e-5).expect("ln");
        let v = y.as_f32().expect("f32");
        let mean: f32 = v.iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
    }

    #[test]
    fn batchnorm_applies_stats() {
        let x = Tensor::from_f32(&[1, 2, 1, 1], vec![10.0, 20.0]);
        let one = Tensor::from_f32(&[2], vec![1.0, 1.0]);
        let zero = Tensor::from_f32(&[2], vec![0.0, 0.0]);
        let mean = Tensor::from_f32(&[2], vec![10.0, 10.0]);
        let var = Tensor::from_f32(&[2], vec![1.0, 1.0]);
        let y = batch_norm(&x, &one, &zero, &mean, &var, 0.0).expect("bn");
        let v = y.as_f32().expect("f32");
        assert!((v[0] - 0.0).abs() < 1e-5 && (v[1] - 10.0).abs() < 1e-4);
    }

    #[test]
    fn topk_sorted_descending() {
        let x = Tensor::from_f32(&[5], vec![3., 1., 4., 1., 5.]);
        let (v, i) = topk(&x, 3, 0).expect("topk");
        assert_eq!(v.as_f32().expect("f32"), &[5., 4., 3.]);
        assert_eq!(i.as_i64().expect("i64"), &[4, 2, 0]);
    }

    #[test]
    fn topk_k_too_large() {
        let x = Tensor::from_f32(&[2], vec![1., 2.]);
        assert!(topk(&x, 3, 0).is_err());
    }
}
