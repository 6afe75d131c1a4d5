//! Convolution and pooling kernels (NCHW layout).

use crate::error::{dtype_err, shape_err, KernelError};
use sod2_ir::Spatial2d;
use sod2_tensor::Tensor;

/// Loop-order permutation of the convolution's per-part traversal: which
/// of output channel and output row is the outer loop. Every output row
/// strip accumulates its terms in the same `(ic, ky, kx)` order whichever
/// strip runs first, so every order is bitwise-equal to [`conv2d_naive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvLoopOrder {
    /// `oy → ox-strip → (ic, ky, kx) → oc` (the default): each tap's
    /// input slice serves the whole oc block.
    SpatialFirst,
    /// `oc → oy → ox-strip → (ic, ky, kx)`: one output channel's weights
    /// stay resident across the whole spatial plane.
    OcFirst,
}

impl ConvLoopOrder {
    /// All orders, in a fixed deterministic enumeration order.
    pub const ALL: [ConvLoopOrder; 2] = [ConvLoopOrder::SpatialFirst, ConvLoopOrder::OcFirst];

    /// Stable token used by the on-disk tuning cache and CLI output.
    pub fn token(self) -> &'static str {
        match self {
            ConvLoopOrder::SpatialFirst => "spatial",
            ConvLoopOrder::OcFirst => "oc",
        }
    }

    /// Inverse of [`ConvLoopOrder::token`].
    pub fn from_token(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|o| o.token() == s)
    }
}

/// Tiling configuration for the convolution kernel (multi-version codegen).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvParams {
    /// Output-channel block size: one pool part per block.
    pub block_oc: usize,
    /// Width of the output-column strip accumulated at once.
    pub tile_w: usize,
    /// Per-part traversal order.
    pub loop_order: ConvLoopOrder,
}

impl Default for ConvParams {
    fn default() -> Self {
        ConvParams {
            block_oc: 8,
            tile_w: 16,
            loop_order: ConvLoopOrder::SpatialFirst,
        }
    }
}

/// Validated NCHW convolution geometry and operand views, shared by the
/// row kernel and [`conv2d_naive`].
struct ConvProblem<'a> {
    x: &'a [f32],
    w: &'a [f32],
    bias: Option<&'a [f32]>,
    n: usize,
    ci: usize,
    h: usize,
    wd: usize,
    co: usize,
    cig: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    sh: usize,
    sw: usize,
    ph: usize,
    pw: usize,
}

impl<'a> ConvProblem<'a> {
    fn new(
        x: &'a Tensor,
        w: &'a Tensor,
        bias: Option<&'a Tensor>,
        spatial: &Spatial2d,
        groups: usize,
    ) -> Result<Self, KernelError> {
        let xv = x.as_f32().map_err(|e| dtype_err("Conv", e.to_string()))?;
        let wv = w.as_f32().map_err(|e| dtype_err("Conv", e.to_string()))?;
        let xs = x.shape();
        let ws = w.shape();
        if xs.len() != 4 || ws.len() != 4 {
            return Err(shape_err("Conv", "x and w must be rank 4"));
        }
        let (n, ci, h, wd) = (xs[0], xs[1], xs[2], xs[3]);
        let (co, cig, kh, kw) = (ws[0], ws[1], ws[2], ws[3]);
        if groups == 0 || ci % groups != 0 || co % groups != 0 {
            return Err(shape_err("Conv", format!("bad groups {groups} for C={ci}")));
        }
        if cig != ci / groups {
            return Err(shape_err(
                "Conv",
                format!("weight C/g {cig} != input C/g {}", ci / groups),
            ));
        }
        if kh != spatial.kernel[0] || kw != spatial.kernel[1] {
            return Err(shape_err("Conv", "weight kernel dims disagree with attrs"));
        }
        let oh = spatial.out_extent(0, h as i64);
        let ow = spatial.out_extent(1, wd as i64);
        if oh <= 0 || ow <= 0 {
            return Err(shape_err("Conv", format!("non-positive output {oh}x{ow}")));
        }
        let bias = match bias {
            Some(b) => Some(b.as_f32().map_err(|e| dtype_err("Conv", e.to_string()))?),
            None => None,
        };
        Ok(ConvProblem {
            x: xv,
            w: wv,
            bias,
            n,
            ci,
            h,
            wd,
            co,
            cig,
            kh,
            kw,
            oh: oh as usize,
            ow: ow as usize,
            sh: spatial.stride[0],
            sw: spatial.stride[1],
            ph: spatial.padding[0],
            pw: spatial.padding[1],
        })
    }

    fn bias_of(&self, oc: usize) -> f32 {
        self.bias.map_or(0.0, |v| v[oc])
    }

    /// Input row `iy` read by kernel row `ky` of output row `oy`, or `None`
    /// when it lies in the padding.
    fn input_row(&self, oy: usize, ky: usize) -> Option<usize> {
        (oy * self.sh + ky)
            .checked_sub(self.ph)
            .filter(|&iy| iy < self.h)
    }

    /// Output columns `[lo, hi)` whose tap at kernel column `kx` reads
    /// inside the input row: `0 <= ox * sw + kx - pw < wd`.
    fn tap_cols(&self, kx: usize) -> (usize, usize) {
        let lo = self.pw.saturating_sub(kx).div_ceil(self.sw);
        let hi = (self.wd + self.pw).saturating_sub(kx).div_ceil(self.sw);
        (lo.min(self.ow), hi.min(self.ow))
    }

    fn out_shape(&self) -> [usize; 4] {
        [self.n, self.co, self.oh, self.ow]
    }
}

/// Direct 2-D convolution: `x[N,Ci,H,W] * w[Co,Ci/g,kh,kw] (+ b[Co])`.
pub fn conv2d(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    spatial: &Spatial2d,
    groups: usize,
) -> Result<Tensor, KernelError> {
    conv2d_with_params(x, w, bias, spatial, groups, ConvParams::default())
}

/// Per-element direct 2-D convolution (reference kernel).
///
/// Each output element is computed from scratch: the bias, then every
/// in-image tap in ascending `(ic, ky, kx)` order as a separate multiply
/// and add onto a local accumulator. Serial, with a bounds test per tap;
/// every variant of [`conv2d_with_params`] is bitwise-equal to it, NaN
/// outputs included (all written as `f32::NAN`).
pub fn conv2d_naive(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    spatial: &Spatial2d,
    groups: usize,
) -> Result<Tensor, KernelError> {
    let p = ConvProblem::new(x, w, bias, spatial, groups)?;
    let (cig, kh, kw) = (p.cig, p.kh, p.kw);
    let co_per_g = p.co / groups;
    let mut out = Vec::with_capacity(p.n * p.co * p.oh * p.ow);
    for b in 0..p.n {
        for oc in 0..p.co {
            let g = oc / co_per_g;
            for oy in 0..p.oh {
                for ox in 0..p.ow {
                    let mut acc = p.bias_of(oc);
                    for icg in 0..cig {
                        let ic = g * cig + icg;
                        for ky in 0..kh {
                            let Some(iy) = p.input_row(oy, ky) else {
                                continue;
                            };
                            let xrow = ((b * p.ci + ic) * p.h + iy) * p.wd;
                            let wrow = ((oc * cig + icg) * kh + ky) * kw;
                            for kx in 0..kw {
                                let Some(ix) =
                                    (ox * p.sw + kx).checked_sub(p.pw).filter(|&ix| ix < p.wd)
                                else {
                                    continue;
                                };
                                acc += p.x[xrow + ix] * p.w[wrow + kx];
                            }
                        }
                    }
                    out.push(acc);
                }
            }
        }
    }
    crate::canonical_nans(&mut out);
    Ok(Tensor::from_f32(&p.out_shape(), out))
}

/// Direct 2-D convolution with an explicit kernel configuration: output
/// channels are processed in blocks of `params.block_oc` and output rows
/// in column strips of `params.tile_w` — the loop structure the
/// multi-version code generator specializes per shape class.
///
/// Row-accumulating loop nest: each strip is filled with the bias, then
/// for every input channel, `ky` and `kx` in ascending order, `x * w` is
/// added to exactly the strip columns whose tap lies inside the image.
/// Every output element therefore receives the terms of [`conv2d_naive`]
/// in the same order, each as a separate multiply and add, and is
/// bitwise-equal to it; with stride 1 the innermost loop is a contiguous
/// multiply-add over a slice, which the compiler vectorizes.
pub fn conv2d_with_params(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    spatial: &Spatial2d,
    groups: usize,
    params: ConvParams,
) -> Result<Tensor, KernelError> {
    let p = ConvProblem::new(x, w, bias, spatial, groups)?;
    let (co, oh, ow) = (p.co, p.oh, p.ow);
    let co_per_g = co / groups;
    let block_oc = params.block_oc.max(1);
    let tile_w = params.tile_w.max(1);
    let mut out = vec![0f32; p.n * co * oh * ow];

    // Parallel decomposition: one part per (batch, group, oc-block).
    // Each part owns a contiguous run of output planes (block_oc whole
    // channels of one image), so parts partition `out` exactly and every
    // output element is written by one part — results are independent of
    // how parts land on threads.
    let mut parts: Vec<(usize, usize, usize, usize)> = Vec::new();
    let mut bounds: Vec<usize> = Vec::new();
    for b in 0..p.n {
        for g in 0..groups {
            for oc0 in (0..co_per_g).step_by(block_oc) {
                let oc1 = (oc0 + block_oc).min(co_per_g);
                parts.push((b, g, oc0, oc1));
                bounds.push(((b * co + g * co_per_g + oc1) * oh * ow).min(out.len()));
            }
        }
    }
    if let Some(last) = bounds.last_mut() {
        *last = out.len();
    }
    let run = |out: &mut Vec<f32>| {
        sod2_pool::scope_parts(out, &bounds, |part, off, chunk| {
            let (b, g, oc0, oc1) = parts[part];
            // Valid output columns per kernel column, hoisted out of the
            // loop nest on the stack; wider kernels compute the rest inline.
            let mut cols = [(0usize, 0usize); 8];
            for (kx, c) in cols.iter_mut().enumerate().take(p.kw) {
                *c = p.tap_cols(kx);
            }
            // Accumulates the strip `[ox0, ox0 + tile_w)` of output row `oy`
            // for the channels `ocgs` of this group. The channel loop sits
            // inside the tap loop, so one tap's input slice serves every
            // channel; each element still sees its taps in `(ic, ky, kx)`
            // order.
            let mut strips = |ocgs: std::ops::Range<usize>, oy: usize, ox0: usize| {
                let ox1 = (ox0 + tile_w).min(ow);
                let row = |ocg: usize| ((b * co + g * co_per_g + ocg) * oh + oy) * ow - off;
                for ocg in ocgs.clone() {
                    let r = row(ocg);
                    chunk[r + ox0..r + ox1].fill(p.bias_of(g * co_per_g + ocg));
                }
                for icg in 0..p.cig {
                    let ic = g * p.cig + icg;
                    for ky in 0..p.kh {
                        let Some(iy) = p.input_row(oy, ky) else {
                            continue;
                        };
                        let xrow = &p.x[((b * p.ci + ic) * p.h + iy) * p.wd..][..p.wd];
                        for kx in 0..p.kw {
                            let (lo, hi) = cols.get(kx).copied().unwrap_or_else(|| p.tap_cols(kx));
                            let (lo, hi) = (lo.max(ox0), hi.min(ox1));
                            if lo >= hi {
                                continue;
                            }
                            let xs = &xrow[lo * p.sw + kx - p.pw..];
                            for ocg in ocgs.clone() {
                                let oc = g * co_per_g + ocg;
                                let wk = p.w[((oc * p.cig + icg) * p.kh + ky) * p.kw + kx];
                                let r = row(ocg);
                                axpy(&mut chunk[r + lo..r + hi], xs, p.sw, wk);
                            }
                        }
                    }
                }
            };
            match params.loop_order {
                ConvLoopOrder::SpatialFirst => {
                    for oy in 0..oh {
                        for ox0 in (0..ow).step_by(tile_w) {
                            strips(oc0..oc1, oy, ox0);
                        }
                    }
                }
                ConvLoopOrder::OcFirst => {
                    for ocg in oc0..oc1 {
                        for oy in 0..oh {
                            for ox0 in (0..ow).step_by(tile_w) {
                                strips(ocg..ocg + 1, oy, ox0);
                            }
                        }
                    }
                }
            }
            crate::canonical_nans(chunk);
        });
    };
    // Below the grain cutoff the region overhead outweighs the work.
    let flops_per_elem = p.cig * p.kh * p.kw;
    if out.len() * flops_per_elem < crate::PAR_CUTOFF_OPS {
        sod2_pool::with_threads(1, || run(&mut out));
    } else {
        run(&mut out);
    }
    Ok(Tensor::from_f32(&p.out_shape(), out))
}

/// `dst[i] += xs[i * stride] * wk` for every `i` of `dst`: one term of each
/// element's reduction, as a separate multiply and add. With stride 1 this
/// is a contiguous multiply-add the compiler vectorizes.
#[inline(always)]
fn axpy(dst: &mut [f32], xs: &[f32], stride: usize, wk: f32) {
    if stride == 1 {
        for (o, &xv) in dst.iter_mut().zip(xs) {
            *o += xv * wk;
        }
    } else {
        for (o, &xv) in dst.iter_mut().zip(xs.iter().step_by(stride)) {
            *o += xv * wk;
        }
    }
}

/// Pooling mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolMode {
    /// Maximum.
    Max,
    /// Average (count includes only in-bounds elements).
    Avg,
}

/// 2-D max/average pooling on NCHW.
pub fn pool2d(x: &Tensor, spatial: &Spatial2d, mode: PoolMode) -> Result<Tensor, KernelError> {
    let xv = x.as_f32().map_err(|e| dtype_err("Pool", e.to_string()))?;
    let xs = x.shape();
    if xs.len() != 4 {
        return Err(shape_err("Pool", "x must be rank 4"));
    }
    let (n, c, h, w) = (xs[0], xs[1], xs[2], xs[3]);
    let oh = spatial.out_extent(0, h as i64);
    let ow = spatial.out_extent(1, w as i64);
    if oh <= 0 || ow <= 0 {
        return Err(shape_err("Pool", format!("non-positive output {oh}x{ow}")));
    }
    let (oh, ow) = (oh as usize, ow as usize);
    let (kh, kw) = (spatial.kernel[0], spatial.kernel[1]);
    let (sh, sw) = (spatial.stride[0] as i64, spatial.stride[1] as i64);
    let (ph, pw) = (spatial.padding[0] as i64, spatial.padding[1] as i64);
    let mut out = vec![0f32; n * c * oh * ow];
    for b in 0..n {
        for ch in 0..c {
            let plane = &xv[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = if mode == PoolMode::Max {
                        f32::NEG_INFINITY
                    } else {
                        0.0
                    };
                    let mut count = 0usize;
                    for ky in 0..kh {
                        let iy = oy as i64 * sh - ph + ky as i64;
                        if iy < 0 || iy >= h as i64 {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = ox as i64 * sw - pw + kx as i64;
                            if ix < 0 || ix >= w as i64 {
                                continue;
                            }
                            let v = plane[iy as usize * w + ix as usize];
                            match mode {
                                PoolMode::Max => acc = acc.max(v),
                                PoolMode::Avg => acc += v,
                            }
                            count += 1;
                        }
                    }
                    out[((b * c + ch) * oh + oy) * ow + ox] = match mode {
                        PoolMode::Max => acc,
                        PoolMode::Avg => {
                            if count == 0 {
                                0.0
                            } else {
                                acc / count as f32
                            }
                        }
                    };
                }
            }
        }
    }
    Ok(Tensor::from_f32(&[n, c, oh, ow], out))
}

/// Global average pooling: `[N,C,H,W] -> [N,C,1,1]`.
pub fn global_avg_pool(x: &Tensor) -> Result<Tensor, KernelError> {
    let xv = x.as_f32().map_err(|e| dtype_err("GAP", e.to_string()))?;
    let xs = x.shape();
    if xs.len() != 4 {
        return Err(shape_err("GAP", "x must be rank 4"));
    }
    let (n, c, h, w) = (xs[0], xs[1], xs[2], xs[3]);
    let hw = (h * w) as f32;
    let mut out = vec![0f32; n * c];
    for i in 0..n * c {
        let s: f32 = xv[i * h * w..(i + 1) * h * w].iter().sum();
        out[i] = s / hw;
    }
    Ok(Tensor::from_f32(&[n, c, 1, 1], out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_params_do_not_change_results() {
        let x = Tensor::from_f32(
            &[1, 3, 9, 9],
            (0..243).map(|i| (i % 11) as f32 - 5.0).collect(),
        );
        // A 3x3 kernel, and a 1x11 one: wider than the per-part stack
        // cache of column ranges, so its last taps take the inline path.
        let cases = [
            (Spatial2d::new(3, 2, 1), [6, 3, 3, 3]),
            (
                Spatial2d {
                    kernel: [1, 11],
                    stride: [1, 2],
                    padding: [0, 5],
                },
                [6, 3, 1, 11],
            ),
        ];
        for (s, wshape) in cases {
            let wlen: usize = wshape.iter().product();
            let w = Tensor::from_f32(&wshape, (0..wlen).map(|i| (i % 7) as f32 * 0.1).collect());
            let reference = conv2d_naive(&x, &w, None, &s, 1).expect("conv");
            for order in ConvLoopOrder::ALL {
                for (block_oc, tile_w) in [(1, 1), (4, 3), (64, 64)] {
                    let params = ConvParams {
                        block_oc,
                        tile_w,
                        loop_order: order,
                    };
                    let got = conv2d_with_params(&x, &w, None, &s, 1, params).expect("conv");
                    let (rv, gv) = (reference.as_f32().expect("f32"), got.as_f32().expect("f32"));
                    for (x, y) in rv.iter().zip(gv) {
                        assert_eq!(x.to_bits(), y.to_bits(), "{s:?} {params:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 conv with identity weight passes channels through.
        let x = Tensor::from_f32(&[1, 2, 2, 2], (0..8).map(|i| i as f32).collect());
        let w = Tensor::from_f32(&[2, 2, 1, 1], vec![1., 0., 0., 1.]);
        let s = Spatial2d::new(1, 1, 0);
        let y = conv2d(&x, &w, None, &s, 1).expect("conv");
        assert_eq!(y.shape(), &[1, 2, 2, 2]);
        assert_eq!(y.as_f32().expect("f32"), x.as_f32().expect("f32"));
    }

    #[test]
    fn conv_3x3_sum_kernel() {
        // All-ones 3x3 kernel with pad 1 computes neighborhood sums.
        let x = Tensor::from_f32(&[1, 1, 3, 3], (1..=9).map(|i| i as f32).collect());
        let w = Tensor::from_f32(&[1, 1, 3, 3], vec![1.0; 9]);
        let s = Spatial2d::same(3);
        let y = conv2d(&x, &w, None, &s, 1).expect("conv");
        // Center output = sum 1..9 = 45.
        assert_eq!(y.as_f32().expect("f32")[4], 45.0);
        // Corner output = 1+2+4+5 = 12.
        assert_eq!(y.as_f32().expect("f32")[0], 12.0);
    }

    #[test]
    fn conv_stride_shape() {
        let x = Tensor::zeros(&[1, 3, 224, 224]);
        let w = Tensor::zeros(&[16, 3, 7, 7]);
        let s = Spatial2d::new(7, 2, 3);
        let y = conv2d(&x, &w, None, &s, 1).expect("conv");
        assert_eq!(y.shape(), &[1, 16, 112, 112]);
    }

    #[test]
    fn depthwise_groups() {
        let x = Tensor::from_f32(&[1, 2, 2, 2], vec![1., 2., 3., 4., 10., 20., 30., 40.]);
        let w = Tensor::from_f32(&[2, 1, 1, 1], vec![2.0, 3.0]);
        let s = Spatial2d::new(1, 1, 0);
        let y = conv2d(&x, &w, None, &s, 2).expect("conv");
        assert_eq!(
            y.as_f32().expect("f32"),
            &[2., 4., 6., 8., 30., 60., 90., 120.]
        );
    }

    #[test]
    fn maxpool_and_avgpool() {
        let x = Tensor::from_f32(&[1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let s = Spatial2d::new(2, 2, 0);
        let mx = pool2d(&x, &s, PoolMode::Max).expect("max");
        assert_eq!(mx.as_f32().expect("f32"), &[4.0]);
        let av = pool2d(&x, &s, PoolMode::Avg).expect("avg");
        assert_eq!(av.as_f32().expect("f32"), &[2.5]);
    }

    #[test]
    fn global_avg() {
        let x = Tensor::from_f32(&[1, 2, 1, 2], vec![1., 3., 10., 30.]);
        let y = global_avg_pool(&x).expect("gap");
        assert_eq!(y.shape(), &[1, 2, 1, 1]);
        assert_eq!(y.as_f32().expect("f32"), &[2.0, 20.0]);
    }

    #[test]
    fn conv_with_bias() {
        let x = Tensor::zeros(&[1, 1, 1, 1]);
        let w = Tensor::from_f32(&[1, 1, 1, 1], vec![1.0]);
        let b = Tensor::from_f32(&[1], vec![5.0]);
        let s = Spatial2d::new(1, 1, 0);
        let y = conv2d(&x, &w, Some(&b), &s, 1).expect("conv");
        assert_eq!(y.as_f32().expect("f32"), &[5.0]);
    }
}
