//! Matrix-multiply kernels, including the tiled variants searched by the
//! multi-version code generator (paper §4.4.2).

use crate::error::{dtype_err, shape_err, KernelError};
use sod2_tensor::{broadcast_output_shape, Tensor};

/// Permutation of the within-tile `(i, p, j)` loop nest of [`gemm_tiled`]
/// (`i` = output row, `p` = reduction index, `j` = output column).
///
/// Every permutation keeps each output element's reduction in ascending-`p`
/// order onto the live running value, so all orders are bitwise-equal to
/// [`gemm_naive`]; they differ only in memory traversal (see DESIGN.md §17).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopOrder {
    /// `i → j → p`: dot-product form; the accumulator stays in a register
    /// across the whole k-tile, packed B is read column-strided.
    Ijk,
    /// `i → p → j`: axpy form streaming packed B rows (the default).
    Ikj,
    /// `p → i → j`: B-row-resident form; one packed row serves every `i`.
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

/// Register-blocked micro-kernel shape: an `MR x NR` block of C is held in
/// local accumulators while the k-tile is folded onto it.
///
/// The block is *loaded* from C, accumulated in ascending-`p` order, and
/// stored back — per element the identical `acc += a * b` sequence as the
/// scalar kernels, so every shape is bitwise-equal to [`gemm_naive`]. Edge
/// rows/columns that do not fill a block fall back to the scalar kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MicroKernel {
    /// No register blocking (the default): plain scalar inner loops.
    Scalar,
    /// 4 rows x 1 column of C per accumulator block.
    Mr4Nr1,
    /// 4 rows x 4 columns of C per accumulator block.
    Mr4Nr4,
    /// 8 rows x 1 column of C per accumulator block.
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

    /// `(MR, NR)` accumulator block dimensions.
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
    /// Tile height (rows of A / C).
    pub tile_m: usize,
    /// Tile width (cols of B / C).
    pub tile_n: usize,
    /// Reduction tile depth.
    pub tile_k: usize,
    /// Inner-loop unroll factor (1, 2, 4, or 8).
    pub unroll: usize,
    /// Within-tile loop-order permutation.
    pub loop_order: LoopOrder,
    /// Register-blocking micro-kernel shape.
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
    let rows_per_chunk = (PAR_GRAIN_ELEMS / (n * k.max(1)).max(1)).max(1);
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

/// Above roughly this many output-element-times-depth operations, kernels
/// hand chunks to the pool; below it the queueing overhead dominates.
const PAR_GRAIN_ELEMS: usize = 1 << 14;

/// Tiled GEMM with configurable tile sizes and unrolling. Bitwise-equal
/// to [`gemm_naive`] for every `params`, NaN outputs included (each is
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
    if n == 0 {
        return c;
    }
    let (tm, tn, tk) = (
        params.tile_m.max(1),
        params.tile_n.max(1),
        params.tile_k.max(1),
    );
    // One M-tile (tm whole rows) per pool chunk: tiles only ever share
    // B, so they are independent, and restricting the serial i0/p0/j0
    // loop nest to one tile preserves each element's accumulation order.
    sod2_pool::scope_chunks(&mut c, tm * n, |off, chunk| {
        let i0 = off / n;
        let i1 = i0 + chunk.len() / n;
        // Panel buffer for the current `(p0, j0)` tile of B, packed
        // contiguously so the i-loop streams it instead of reading
        // `n`-strided rows; packed once per tile-column, reused across
        // all `i` of the tile. Values and accumulation order are the
        // unpacked ones, so results stay bitwise identical.
        let mut packed = vec![0f32; tk * tn];
        for p0 in (0..k).step_by(tk) {
            let p1 = (p0 + tk).min(k);
            for j0 in (0..n).step_by(tn) {
                let j1 = (j0 + tn).min(n);
                let w = j1 - j0;
                for p in p0..p1 {
                    packed[(p - p0) * w..(p - p0) * w + w]
                        .copy_from_slice(&b[p * n + j0..p * n + j1]);
                }
                tile_dispatch(a, &packed, chunk, i0, i1, p0, p1, j0, w, k, n, params);
            }
        }
        crate::canonical_nans(chunk);
    });
    c
}

/// Executes one `(i0..i1) x (p0..p1) x (j0..j0+w)` tile against the packed
/// B panel, dispatching to the monomorphized variant selected by `params`.
///
/// Every variant performs, per output element, the identical sequence of
/// `acc += a * b` operations in ascending-`p` order onto the live C value,
/// so all dispatch outcomes are bitwise-equal (DESIGN.md §17).
#[allow(clippy::too_many_arguments)]
fn tile_dispatch(
    a: &[f32],
    packed: &[f32],
    chunk: &mut [f32],
    i0: usize,
    i1: usize,
    p0: usize,
    p1: usize,
    j0: usize,
    w: usize,
    k: usize,
    n: usize,
    params: GemmParams,
) {
    let unroll = params.unroll.max(1);
    match (params.loop_order, params.micro) {
        (LoopOrder::Ikj, MicroKernel::Scalar) => {
            scalar_patch(
                a, packed, chunk, i0, i0, i1, p0, p1, j0, 0, w, w, k, n, unroll,
            );
        }
        (LoopOrder::Ijk, MicroKernel::Scalar) => {
            tile_scalar_ijk(a, packed, chunk, i0, i1, p0, p1, j0, w, k, n, unroll);
        }
        (LoopOrder::Kij, MicroKernel::Scalar) => {
            tile_scalar_kij(a, packed, chunk, i0, i1, p0, p1, j0, w, k, n, unroll);
        }
        (order, MicroKernel::Mr4Nr1) => {
            tile_micro::<4, 1>(a, packed, chunk, i0, i1, p0, p1, j0, w, k, n, unroll, order);
        }
        (order, MicroKernel::Mr4Nr4) => {
            tile_micro::<4, 4>(a, packed, chunk, i0, i1, p0, p1, j0, w, k, n, unroll, order);
        }
        (order, MicroKernel::Mr8Nr1) => {
            tile_micro::<8, 1>(a, packed, chunk, i0, i1, p0, p1, j0, w, k, n, unroll, order);
        }
    }
}

/// `crow[j] += av * brow[j]` over the whole row, manually unrolled.
#[inline(always)]
fn scalar_axpy(crow: &mut [f32], brow: &[f32], av: f32, unroll: usize) {
    let w = crow.len();
    let mut j = 0;
    while j + unroll <= w {
        for u in 0..unroll {
            crow[j + u] += av * brow[j + u];
        }
        j += unroll;
    }
    while j < w {
        crow[j] += av * brow[j];
        j += 1;
    }
}

/// Scalar `i → p → j` (ikj) update of the `[ilo, ihi) x [jlo, jhi)` patch of
/// the tile — the reference inner kernel, also used for micro-kernel edge
/// remainders. `ibase` anchors row indexing into `chunk`; `jlo`/`jhi` are
/// offsets within the packed panel of width `w`.
#[allow(clippy::too_many_arguments)]
fn scalar_patch(
    a: &[f32],
    packed: &[f32],
    chunk: &mut [f32],
    ibase: usize,
    ilo: usize,
    ihi: usize,
    p0: usize,
    p1: usize,
    j0: usize,
    jlo: usize,
    jhi: usize,
    w: usize,
    k: usize,
    n: usize,
    unroll: usize,
) {
    for i in ilo..ihi {
        for p in p0..p1 {
            let av = a[i * k + p];
            let brow = &packed[(p - p0) * w + jlo..(p - p0) * w + jhi];
            let crow = &mut chunk[(i - ibase) * n + j0 + jlo..(i - ibase) * n + j0 + jhi];
            scalar_axpy(crow, brow, av, unroll);
        }
    }
}

/// Scalar `i → j → p` (ijk, dot-product form): the C element rides in a
/// register across the whole k-tile; ascending-`p` accumulation preserved.
#[allow(clippy::too_many_arguments)]
fn tile_scalar_ijk(
    a: &[f32],
    packed: &[f32],
    chunk: &mut [f32],
    i0: usize,
    i1: usize,
    p0: usize,
    p1: usize,
    j0: usize,
    w: usize,
    k: usize,
    n: usize,
    unroll: usize,
) {
    let d = p1 - p0;
    for i in i0..i1 {
        let arow = &a[i * k + p0..i * k + p1];
        let crow = &mut chunk[(i - i0) * n + j0..(i - i0) * n + j0 + w];
        for (j, cj) in crow.iter_mut().enumerate() {
            let mut acc = *cj;
            let mut p = 0;
            while p + unroll <= d {
                for u in 0..unroll {
                    acc += arow[p + u] * packed[(p + u) * w + j];
                }
                p += unroll;
            }
            while p < d {
                acc += arow[p] * packed[p * w + j];
                p += 1;
            }
            *cj = acc;
        }
    }
}

/// Scalar `p → i → j` (kij): one packed B row stays resident while every
/// tile row consumes it; per-element accumulation order unchanged because
/// `p` still ascends outermost.
#[allow(clippy::too_many_arguments)]
fn tile_scalar_kij(
    a: &[f32],
    packed: &[f32],
    chunk: &mut [f32],
    i0: usize,
    i1: usize,
    p0: usize,
    p1: usize,
    j0: usize,
    w: usize,
    k: usize,
    n: usize,
    unroll: usize,
) {
    for p in p0..p1 {
        let brow = &packed[(p - p0) * w..(p - p0) * w + w];
        for i in i0..i1 {
            let av = a[i * k + p];
            let crow = &mut chunk[(i - i0) * n + j0..(i - i0) * n + j0 + w];
            scalar_axpy(crow, brow, av, unroll);
        }
    }
}

/// Register-blocked tile walk: full `MR x NR` blocks go through
/// [`micro_block`]; remainder rows/columns fall back to the scalar patch
/// kernel (per-element accumulation order is ascending-`p` in both, so the
/// split is invisible in the bits). `Kij` walks column-blocks outermost,
/// the other orders walk row-blocks outermost — block regions are disjoint
/// so traversal order cannot change any element's value.
#[allow(clippy::too_many_arguments)]
fn tile_micro<const MR: usize, const NR: usize>(
    a: &[f32],
    packed: &[f32],
    chunk: &mut [f32],
    i0: usize,
    i1: usize,
    p0: usize,
    p1: usize,
    j0: usize,
    w: usize,
    k: usize,
    n: usize,
    unroll: usize,
    order: LoopOrder,
) {
    let rows = i1 - i0;
    let bi_end = i0 + (rows / MR) * MR;
    let bj_end = (w / NR) * NR;
    match order {
        LoopOrder::Kij => {
            let mut jb = 0;
            while jb < bj_end {
                let mut ib = i0;
                while ib < bi_end {
                    micro_block::<MR, NR>(
                        a, packed, chunk, i0, ib, p0, p1, j0, jb, w, k, n, unroll,
                    );
                    ib += MR;
                }
                jb += NR;
            }
        }
        LoopOrder::Ijk | LoopOrder::Ikj => {
            let mut ib = i0;
            while ib < bi_end {
                let mut jb = 0;
                while jb < bj_end {
                    micro_block::<MR, NR>(
                        a, packed, chunk, i0, ib, p0, p1, j0, jb, w, k, n, unroll,
                    );
                    jb += NR;
                }
                ib += MR;
            }
        }
    }
    // Remainder columns of the fully-blocked rows, then remainder rows over
    // the whole tile width — together with the blocks this partitions the
    // tile exactly once.
    if bj_end < w {
        scalar_patch(
            a, packed, chunk, i0, i0, bi_end, p0, p1, j0, bj_end, w, w, k, n, unroll,
        );
    }
    if bi_end < i1 {
        scalar_patch(
            a, packed, chunk, i0, bi_end, i1, p0, p1, j0, 0, w, w, k, n, unroll,
        );
    }
}

/// One `MR x NR` register block: load the live C values, fold the whole
/// k-tile onto them in ascending-`p` order, store back once. Per element
/// this is the same `acc += a * b` sequence as the scalar kernels, so the
/// result is bitwise identical.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_block<const MR: usize, const NR: usize>(
    a: &[f32],
    packed: &[f32],
    chunk: &mut [f32],
    ibase: usize,
    ib: usize,
    p0: usize,
    p1: usize,
    j0: usize,
    jb: usize,
    w: usize,
    k: usize,
    n: usize,
    unroll: usize,
) {
    let mut acc = [[0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        let base = (ib + r - ibase) * n + j0 + jb;
        row.copy_from_slice(&chunk[base..base + NR]);
    }
    let d = p1 - p0;
    let mut p = 0;
    while p < d {
        // Unrolled over p; `steps` shrinks only at the tail of the k-tile.
        let steps = unroll.min(d - p);
        for s in 0..steps {
            let brow = &packed[(p + s) * w + jb..(p + s) * w + jb + NR];
            for (r, row) in acc.iter_mut().enumerate() {
                let av = a[(ib + r) * k + p0 + p + s];
                for (cc, bb) in row.iter_mut().zip(brow) {
                    *cc += av * bb;
                }
            }
        }
        p += steps;
    }
    for (r, row) in acc.iter().enumerate() {
        let base = (ib + r - ibase) * n + j0 + jb;
        chunk[base..base + NR].copy_from_slice(row);
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

    let mut out = Vec::with_capacity(batch_count * m * n);
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
        let c = gemm_tiled(&av[ao..ao + m * ka], &bv[bo..bo + kb * n], m, ka, n, params);
        out.extend(c);
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
    let at = maybe_transpose(av, a.shape(), trans_a);
    let bt = maybe_transpose(bv, b.shape(), trans_b);
    let (m, ka) = (at.1, at.2);
    let (kb, n) = (bt.1, bt.2);
    if ka != kb {
        return Err(shape_err("Gemm", format!("inner dims {ka} vs {kb}")));
    }
    let mut out = gemm_tiled(&at.0, &bt.0, m, ka, n, params);
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

/// Returns `(data, rows, cols)`, materializing a transpose when requested.
fn maybe_transpose(v: &[f32], shape: &[usize], trans: bool) -> (Vec<f32>, usize, usize) {
    let (r, c) = (shape[0], shape[1]);
    if !trans {
        (v.to_vec(), r, c)
    } else {
        let mut out = vec![0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = v[i * c + j];
            }
        }
        (out, c, r)
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
