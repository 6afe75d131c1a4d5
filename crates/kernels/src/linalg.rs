//! Matrix-multiply kernels, including the tiled variants searched by the
//! multi-version code generator (paper §4.4.2).

use crate::error::{dtype_err, shape_err, KernelError};
use sod2_tensor::{broadcast_output_shape, Tensor};
use std::borrow::Cow;
use std::ops::Range;

/// Order of the three block loops inside one pool part of [`gemm_tiled`]:
/// row blocks (`i`), `tile_k` reduction blocks (`k`) and `tile_n` column
/// tiles (`j`).
///
/// Every order meets each output element's reduction blocks in ascending
/// order, and each block adds its terms in ascending `k` onto the live C
/// value, so all orders are bitwise-equal to [`gemm_naive`]; they differ
/// only in memory traversal (see DESIGN.md §17.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopOrder {
    /// Row block → column tile → reduction block: one tile of C finishes
    /// its whole reduction before the next tile starts.
    Ijk,
    /// Row block → reduction block → column tile (the default): one
    /// reduction block sweeps the row block's full width.
    Ikj,
    /// Reduction block → row block → column tile: one block of B rows
    /// serves every row of the part before the next block.
    Kij,
}

impl LoopOrder {
    /// All orders, in a fixed deterministic enumeration order.
    pub const ALL: [LoopOrder; 3] = [LoopOrder::Ijk, LoopOrder::Ikj, LoopOrder::Kij];

    /// Stable token used by the on-disk tuning cache and CLI output.
    pub fn token(self) -> &'static str {
        match self {
            LoopOrder::Ijk => "ijk",
            LoopOrder::Ikj => "ikj",
            LoopOrder::Kij => "kij",
        }
    }

    /// Inverse of [`LoopOrder::token`].
    pub fn from_token(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|o| o.token() == s)
    }
}

/// Register-blocking micro-kernel shape. [`gemm_tiled`] holds blocks of
/// `MR` rows of C in local accumulators while a reduction block is added
/// onto them; rows that do not fill a block go one at a time.
///
/// `NR` names the variant for the tuner and its cost model
/// (`sod2_device::gemm_efficiency`); the kernel's block width comes from
/// the `tile_n` column tile instead (DESIGN.md §17.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MicroKernel {
    /// One row per block (the default).
    Scalar,
    /// 4-row blocks, priced as 4 x 1.
    Mr4Nr1,
    /// 4-row blocks, priced as 4 x 4.
    Mr4Nr4,
    /// 8-row blocks, priced as 8 x 1.
    Mr8Nr1,
}

impl MicroKernel {
    /// All shapes, in a fixed deterministic enumeration order.
    pub const ALL: [MicroKernel; 4] = [
        MicroKernel::Scalar,
        MicroKernel::Mr4Nr1,
        MicroKernel::Mr4Nr4,
        MicroKernel::Mr8Nr1,
    ];

    /// `(MR, NR)`: the register-block height the kernel uses and the block
    /// width the tuner's cost model prices.
    pub fn dims(self) -> (usize, usize) {
        match self {
            MicroKernel::Scalar => (1, 1),
            MicroKernel::Mr4Nr1 => (4, 1),
            MicroKernel::Mr4Nr4 => (4, 4),
            MicroKernel::Mr8Nr1 => (8, 1),
        }
    }

    /// Stable token used by the on-disk tuning cache and CLI output.
    pub fn token(self) -> &'static str {
        match self {
            MicroKernel::Scalar => "scalar",
            MicroKernel::Mr4Nr1 => "4x1",
            MicroKernel::Mr4Nr4 => "4x4",
            MicroKernel::Mr8Nr1 => "8x1",
        }
    }

    /// Inverse of [`MicroKernel::token`].
    pub fn from_token(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.token() == s)
    }
}

/// Tiling/unrolling/variant configuration for the tiled GEMM kernel — the
/// search space of the genetic auto-tuner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmParams {
    /// Rows of C per pool part.
    pub tile_m: usize,
    /// Column tile of C. No register block crosses a tile edge, so this
    /// caps the block width.
    pub tile_n: usize,
    /// Reduction block: a register block loads C, adds this many terms and
    /// stores it back.
    pub tile_k: usize,
    /// Unroll factor (1, 2, 4, or 8), searched and priced by the tuner;
    /// the kernel does not read it (DESIGN.md §17.1).
    pub unroll: usize,
    /// Order of the row-block, reduction-block and column-tile loops.
    pub loop_order: LoopOrder,
    /// Register-block height `MR`.
    pub micro: MicroKernel,
}

impl Default for GemmParams {
    fn default() -> Self {
        GemmParams {
            tile_m: 32,
            tile_n: 32,
            tile_k: 32,
            unroll: 4,
            loop_order: LoopOrder::Ikj,
            micro: MicroKernel::Scalar,
        }
    }
}

/// Plain rank-2 GEMM: `C[m,n] = A[m,k] * B[k,n]` (reference kernel).
///
/// Every `a[i,p] * b[p,j]` product is accumulated unconditionally — no
/// sparsity short-circuit — so NaN/inf propagation (`0 * NaN = NaN`)
/// matches [`gemm_tiled`] bitwise, with every NaN written as `f32::NAN`.
/// Rows are partitioned across the [`sod2_pool`] when it helps; each
/// output element's accumulation order is the serial one regardless of
/// thread count.
pub fn gemm_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0f32; m * n];
    if n == 0 {
        return c;
    }
    // Whole rows per chunk so chunk boundaries never split a row.
    let rows_per_chunk = (crate::PAR_CUTOFF_OPS / (n * k.max(1)).max(1)).max(1);
    sod2_pool::scope_chunks(&mut c, rows_per_chunk * n, |off, chunk| {
        let i0 = off / n;
        for (ri, crow) in chunk.chunks_exact_mut(n).enumerate() {
            let i = i0 + ri;
            for p in 0..k {
                let av = a[i * k + p];
                let brow = &b[p * n..(p + 1) * n];
                for j in 0..n {
                    crow[j] += av * brow[j];
                }
            }
        }
        crate::canonical_nans(chunk);
    });
    c
}

/// Multiply-adds (`m * k * n`) below which [`gemm_tiled`] runs its parts
/// serially: there the pool region costs more than a second thread saves
/// (break-even measured in DESIGN.md §9.1).
const GEMM_SERIAL_MACS: usize = 1 << 16;

/// Tiled GEMM with a configurable loop nest. Bitwise-equal to
/// [`gemm_naive`] for every `params`, NaN outputs included (each is
/// written as `f32::NAN`).
pub fn gemm_tiled(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    params: GemmParams,
) -> Vec<f32> {
    let mut c = vec![0f32; m * n];
    gemm_into(a, b, &mut c, m, k, n, params);
    c
}

/// Adds `A[m,k] * B[k,n]` onto the zeroed `c[m*n]`: the body of
/// [`gemm_tiled`], which batched callers point at their output slices.
///
/// Each pool part owns `tile_m` whole rows of C. Inside a part, register
/// blocks of `MR` rows by 16, 8, 4 or 1 columns walk the part's rows, the
/// `tile_k` reduction blocks and the `tile_n` column tiles in the order
/// `loop_order` names (see [`gemm_part`]).
fn gemm_into(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    params: GemmParams,
) {
    if n == 0 {
        return;
    }
    let (tm, tk, tn) = (
        params.tile_m.max(1),
        params.tile_k.max(1),
        params.tile_n.max(1),
    );
    let order = params.loop_order;
    let run = |c: &mut [f32]| {
        sod2_pool::scope_chunks(c, tm * n, |off, part| {
            let rows = &a[off / n * k..];
            match params.micro.dims().0 {
                8 => gemm_part::<8>(rows, b, part, k, n, tk, tn, order),
                4 => gemm_part::<4>(rows, b, part, k, n, tk, tn, order),
                _ => gemm_part::<1>(rows, b, part, k, n, tk, tn, order),
            }
            crate::canonical_nans(part);
        });
    };
    if m.saturating_mul(k).saturating_mul(n) < GEMM_SERIAL_MACS {
        sod2_pool::with_threads(1, || run(c));
    } else {
        run(c);
    }
}

/// One pool part: C rows `c` (whole rows of width `n`) from the A rows
/// starting at `a`. Row blocks of `MR` rows (then the remainder rows one
/// at a time), ascending `tile_k` reduction blocks and `tile_n` column
/// tiles nest in the order `order` names. Blocks are disjoint and every
/// element meets its reduction blocks in ascending order in all three
/// orders, so the order changes traversal only.
#[allow(clippy::too_many_arguments)]
fn gemm_part<const MR: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    tk: usize,
    tn: usize,
    order: LoopOrder,
) {
    let rows = c.len() / n;
    let full = rows - rows % MR;
    let row_blocks = (0..full)
        .step_by(MR)
        .map(|r| (r, MR))
        .chain((full..rows).map(|r| (r, 1)));
    let k_blocks = (0..k).step_by(tk).map(|p0| p0..(p0 + tk).min(k));
    let col_tiles = (0..n).step_by(tn).map(|j0| j0..(j0 + tn).min(n));
    let mut tile = |(r, h): (usize, usize), ks: Range<usize>, js: Range<usize>| {
        if h == MR {
            strips::<MR>(a, b, c, r, ks, js, k, n);
        } else {
            strips::<1>(a, b, c, r, ks, js, k, n);
        }
    };
    match order {
        LoopOrder::Ijk => {
            for rb in row_blocks {
                for js in col_tiles.clone() {
                    for ks in k_blocks.clone() {
                        tile(rb, ks, js.clone());
                    }
                }
            }
        }
        LoopOrder::Ikj => {
            for rb in row_blocks {
                for ks in k_blocks.clone() {
                    for js in col_tiles.clone() {
                        tile(rb, ks.clone(), js);
                    }
                }
            }
        }
        LoopOrder::Kij => {
            for ks in k_blocks {
                for rb in row_blocks.clone() {
                    for js in col_tiles.clone() {
                        tile(rb, ks.clone(), js);
                    }
                }
            }
        }
    }
}

/// Covers the columns `js` of rows `r..r + MR` with register blocks 16,
/// 8, 4 and then 1 column wide, adding the reduction block `ks` to each.
#[allow(clippy::too_many_arguments)]
fn strips<const MR: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    r: usize,
    ks: Range<usize>,
    js: Range<usize>,
    k: usize,
    n: usize,
) {
    let mut j = js.start;
    while j + 16 <= js.end {
        block::<MR, 16>(a, b, c, r, j, ks.clone(), k, n);
        j += 16;
    }
    if j + 8 <= js.end {
        block::<MR, 8>(a, b, c, r, j, ks.clone(), k, n);
        j += 8;
    }
    if j + 4 <= js.end {
        block::<MR, 4>(a, b, c, r, j, ks.clone(), k, n);
        j += 4;
    }
    for j in j..js.end {
        block::<MR, 1>(a, b, c, r, j, ks.clone(), k, n);
    }
}

/// One `MR x W` register block of C at rows `r..r + MR`, columns
/// `j..j + W`: loads it, adds `a[i,p] * b[p,j]` for every `p` of `ks` in
/// ascending order (B rows read in place), and stores it back. Per element
/// that is [`gemm_naive`]'s multiply-then-add sequence; the fixed-width
/// inner loop is what the compiler vectorizes.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn block<const MR: usize, const W: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    r: usize,
    j: usize,
    ks: Range<usize>,
    k: usize,
    n: usize,
) {
    let mut acc = [[0f32; W]; MR];
    for (i, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[(r + i) * n + j..][..W]);
    }
    let arows: [&[f32]; MR] = std::array::from_fn(|i| &a[(r + i) * k..][ks.clone()]);
    for (q, p) in ks.enumerate() {
        let brow = &b[p * n + j..][..W];
        for (row, arow) in acc.iter_mut().zip(&arows) {
            let av = arow[q];
            for (cv, &bv) in row.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        c[(r + i) * n + j..][..W].copy_from_slice(row);
    }
}

/// Batched `MatMul` with broadcasting over leading batch dimensions.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, KernelError> {
    matmul_with_params(a, b, GemmParams::default())
}

/// Batched `MatMul` using a specific tiled-kernel configuration.
pub fn matmul_with_params(
    a: &Tensor,
    b: &Tensor,
    params: GemmParams,
) -> Result<Tensor, KernelError> {
    let av = a.as_f32().map_err(|e| dtype_err("MatMul", e.to_string()))?;
    let bv = b.as_f32().map_err(|e| dtype_err("MatMul", e.to_string()))?;
    let (ash, bsh) = (a.shape(), b.shape());
    if ash.len() < 2 || bsh.len() < 2 {
        return Err(shape_err("MatMul", "inputs must be rank >= 2"));
    }
    let (m, ka) = (ash[ash.len() - 2], ash[ash.len() - 1]);
    let (kb, n) = (bsh[bsh.len() - 2], bsh[bsh.len() - 1]);
    if ka != kb {
        return Err(shape_err("MatMul", format!("inner dims {ka} vs {kb}")));
    }
    let batch_a = &ash[..ash.len() - 2];
    let batch_b = &bsh[..bsh.len() - 2];
    let batch = broadcast_output_shape(batch_a, batch_b)
        .ok_or_else(|| shape_err("MatMul", "batch dims not broadcastable"))?;
    let batch_count: usize = batch.iter().product();

    // Map a batch index in the output to flat matrix offsets in a and b.
    let idx_of = |batch_coords: &[usize], src_batch: &[usize]| -> usize {
        let mut off = 0;
        let mut stride = 1;
        for i in (0..src_batch.len()).rev() {
            let out_axis = batch.len() - src_batch.len() + i;
            let c = if src_batch[i] == 1 {
                0
            } else {
                batch_coords[out_axis]
            };
            off += c * stride;
            stride *= src_batch[i];
        }
        off
    };

    let mut out = vec![0f32; batch_count * m * n];
    let mut coords = vec![0usize; batch.len()];
    for bi in 0..batch_count {
        // Decode bi into coords.
        let mut rem = bi;
        for i in (0..batch.len()).rev() {
            coords[i] = rem % batch[i];
            rem /= batch[i];
        }
        let ao = idx_of(&coords, batch_a) * m * ka;
        let bo = idx_of(&coords, batch_b) * kb * n;
        gemm_into(
            &av[ao..ao + m * ka],
            &bv[bo..bo + kb * n],
            &mut out[bi * m * n..(bi + 1) * m * n],
            m,
            ka,
            n,
            params,
        );
    }
    let mut out_shape = batch;
    out_shape.push(m);
    out_shape.push(n);
    Ok(Tensor::from_f32(&out_shape, out))
}

/// `Gemm(a, b[, c])` on rank-2 inputs with optional transposes and bias.
pub fn gemm(
    a: &Tensor,
    b: &Tensor,
    c: Option<&Tensor>,
    trans_a: bool,
    trans_b: bool,
) -> Result<Tensor, KernelError> {
    gemm_with_params(a, b, c, trans_a, trans_b, GemmParams::default())
}

/// [`gemm`] using a specific tiled-kernel configuration (bitwise-equal to
/// the default for every configuration).
pub fn gemm_with_params(
    a: &Tensor,
    b: &Tensor,
    c: Option<&Tensor>,
    trans_a: bool,
    trans_b: bool,
    params: GemmParams,
) -> Result<Tensor, KernelError> {
    let av = a.as_f32().map_err(|e| dtype_err("Gemm", e.to_string()))?;
    let bv = b.as_f32().map_err(|e| dtype_err("Gemm", e.to_string()))?;
    if a.rank() != 2 || b.rank() != 2 {
        return Err(shape_err("Gemm", "inputs must be rank 2"));
    }
    let (at, m, ka) = maybe_transpose(av, a.shape(), trans_a);
    let (bt, kb, n) = maybe_transpose(bv, b.shape(), trans_b);
    if ka != kb {
        return Err(shape_err("Gemm", format!("inner dims {ka} vs {kb}")));
    }
    let mut out = gemm_tiled(&at, &bt, m, ka, n, params);
    if let Some(bias) = c {
        let bvv = bias
            .as_f32()
            .map_err(|e| dtype_err("Gemm", e.to_string()))?;
        // Bias broadcasts over rows ([n] or [m, n] or scalar).
        match bias.numel() {
            x if x == n => {
                for i in 0..m {
                    for j in 0..n {
                        out[i * n + j] += bvv[j];
                    }
                }
            }
            x if x == m * n => {
                for (o, bb) in out.iter_mut().zip(bvv) {
                    *o += bb;
                }
            }
            1 => {
                for o in out.iter_mut() {
                    *o += bvv[0];
                }
            }
            _ => return Err(shape_err("Gemm", "bias shape not broadcastable")),
        }
    }
    Ok(Tensor::from_f32(&[m, n], out))
}

/// Returns `(data, rows, cols)`, materializing a transpose only when
/// requested and borrowing `v` otherwise.
fn maybe_transpose<'a>(
    v: &'a [f32],
    shape: &[usize],
    trans: bool,
) -> (Cow<'a, [f32]>, usize, usize) {
    let (r, c) = (shape[0], shape[1]);
    if !trans {
        (Cow::Borrowed(v), r, c)
    } else {
        let mut out = vec![0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = v[i * c + j];
            }
        }
        (Cow::Owned(out), c, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiled_matches_naive() {
        let m = 17;
        let k = 23;
        let n = 13;
        let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 - 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 - 2.0).collect();
        let want = gemm_naive(&a, &b, m, k, n);
        let mut configs = vec![
            GemmParams::default(),
            GemmParams {
                tile_m: 4,
                tile_n: 8,
                tile_k: 16,
                unroll: 1,
                ..GemmParams::default()
            },
            GemmParams {
                tile_m: 64,
                tile_n: 2,
                tile_k: 3,
                unroll: 8,
                ..GemmParams::default()
            },
        ];
        for order in LoopOrder::ALL {
            for micro in MicroKernel::ALL {
                configs.push(GemmParams {
                    loop_order: order,
                    micro,
                    ..GemmParams::default()
                });
                configs.push(GemmParams {
                    tile_m: 8,
                    tile_n: 4,
                    tile_k: 5,
                    unroll: 2,
                    loop_order: order,
                    micro,
                });
            }
        }
        for params in configs {
            let got = gemm_tiled(&a, &b, m, k, n, params);
            for (x, y) in want.iter().zip(&got) {
                assert_eq!(x.to_bits(), y.to_bits(), "params {params:?}");
            }
        }
    }

    #[test]
    fn matmul_rank2() {
        let a = Tensor::from_f32(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_f32(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b).expect("matmul");
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_f32().expect("f32"), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_batched_broadcast() {
        // a: [2, 1, 2, 2], b: [2, 2] -> out [2, 1, 2, 2]
        let a = Tensor::from_f32(&[2, 1, 2, 2], vec![1., 0., 0., 1., 2., 0., 0., 2.]);
        let b = Tensor::from_f32(&[2, 2], vec![1., 2., 3., 4.]);
        let c = matmul(&a, &b).expect("matmul");
        assert_eq!(c.shape(), &[2, 1, 2, 2]);
        assert_eq!(c.as_f32().expect("f32"), &[1., 2., 3., 4., 2., 4., 6., 8.]);
    }

    #[test]
    fn matmul_inner_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn gemm_with_transpose_and_bias() {
        let a = Tensor::from_f32(&[3, 2], vec![1., 4., 2., 5., 3., 6.]); // a^T = [[1,2,3],[4,5,6]]
        let b = Tensor::from_f32(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let bias = Tensor::from_f32(&[2], vec![100., 200.]);
        let c = gemm(&a, &b, Some(&bias), true, false).expect("gemm");
        assert_eq!(c.shape(), &[2, 2]);
        // a^T·b = [[58, 64], [139, 154]] plus bias [100, 200] per column.
        assert_eq!(c.as_f32().expect("f32"), &[158., 264., 239., 354.]);
    }
}
