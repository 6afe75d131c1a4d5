//! Differential suite for the multi-version kernel variants: every point
//! of the (loop order × micro-kernel × tiling/unroll) space must be
//! bitwise-equal to the naive reference (`gemm_naive`, `conv2d_naive`) —
//! the invariant that lets the tuner select any variant without changing
//! results. Each output element's accumulation runs ascending over the
//! reduction onto the live running value with the same `acc += a*b` op
//! sequence, and every NaN output is written as `f32::NAN`, so the
//! identity holds exactly, including NaN/inf inputs, and across thread
//! counts.

use proptest::prelude::*;
use sod2_ir::Spatial2d;
use sod2_kernels::{
    conv2d_naive, conv2d_with_params, gemm_naive, gemm_tiled, ConvLoopOrder, ConvParams,
    GemmParams, LoopOrder, MicroKernel,
};
use sod2_pool::with_threads;
use sod2_tensor::Tensor;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Deterministic values with occasional specials (NaN, ±inf, zero) so the
/// equivalence covers non-finite propagation, not just happy-path floats.
fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            match s % 61 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => 0.0,
                _ => ((s >> 40) as f32 / (1u64 << 23) as f32 - 0.5) * 8.0,
            }
        })
        .collect()
}

proptest! {
    /// Every (loop order × micro-kernel) combination matches `gemm_naive`
    /// bitwise on random shapes — including dims smaller than the tiles
    /// and the register blocks, where remainder handling does all the
    /// work — at 1 and 4 pool threads. Widths up to 40 under column tiles
    /// up to 64 produce register blocks 16, 8, 4 and 1 columns wide and
    /// their remainders; the picks include the three tiles the tuner
    /// selects (`4x4x128`, `16x2x16`, `8x64x2`).
    #[test]
    fn all_gemm_variants_match_naive_bitwise(
        m in 1usize..24,
        k in 0usize..24,
        n in 1usize..41,
        tile_pick in 0usize..7,
        unroll_pick in 0usize..4,
        seed in any::<u64>(),
    ) {
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0xABCD, k * n);
        let naive = gemm_naive(&a, &b, m, k, n);
        // Tiles deliberately straddle the problem size in both directions.
        let (tile_m, tile_n, tile_k) = [
            (2, 2, 2),
            (4, 8, 4),
            (16, 4, 8),
            (32, 32, 32),
            (4, 4, 128),
            (16, 2, 16),
            (8, 64, 2),
        ][tile_pick];
        let unroll = [1usize, 2, 4, 8][unroll_pick];
        for order in LoopOrder::ALL {
            for micro in MicroKernel::ALL {
                let params = GemmParams { tile_m, tile_n, tile_k, unroll, loop_order: order, micro };
                let t1 = with_threads(1, || gemm_tiled(&a, &b, m, k, n, params));
                prop_assert_eq!(
                    bits(&naive), bits(&t1),
                    "variant {:?}/{:?} tiles {}x{}x{} u{} diverged from naive (serial)",
                    order, micro, tile_m, tile_n, tile_k, unroll
                );
                let t4 = with_threads(4, || gemm_tiled(&a, &b, m, k, n, params));
                prop_assert_eq!(
                    bits(&t1), bits(&t4),
                    "variant {:?}/{:?} not thread-invariant", order, micro
                );
            }
        }
    }

    /// Every conv variant matches the independent per-element reference
    /// `conv2d_naive` bitwise at 1 and 4 pool threads, on random shapes
    /// with non-square kernels, strides and padding per axis (padding up
    /// to the kernel extent, so whole output rows and columns read only
    /// padding), non-square inputs down to one output column, grouped and
    /// depthwise convolution, and no bias or a bias with `-0.0` entries.
    #[test]
    fn all_conv_variants_match_reference_bitwise(
        batch in 1usize..3,
        cig in 1usize..4,
        cog in 1usize..4,
        groups in 1usize..4,
        depthwise in any::<bool>(),
        kh in 1usize..=5,
        kw in 1usize..=5,
        sh in 1usize..=3,
        sw in 1usize..=3,
        pad_pick in (0usize..=5, 0usize..=5),
        extra in (0usize..7, 0usize..7),
        bias_pick in 0usize..3,
        block_pick in 0usize..3,
        tile_pick in 0usize..3,
        seed in any::<u64>(),
    ) {
        let (cig, cog) = if depthwise { (1, 1) } else { (cig, cog) };
        let (ph, pw) = (pad_pick.0 % (kh + 1), pad_pick.1 % (kw + 1));
        // The smallest extent with a positive output (one output row or
        // column), plus a random margin.
        let h = kh.saturating_sub(2 * ph).max(1) + extra.0;
        let wd = kw.saturating_sub(2 * pw).max(1) + extra.1;
        let block_oc = [1usize, 2, 8][block_pick];
        let tile_w = [1usize, 4, 64][tile_pick];
        let (ci, co) = (cig * groups, cog * groups);
        let x = Tensor::from_f32(&[batch, ci, h, wd], fill(seed, batch * ci * h * wd));
        let w = Tensor::from_f32(&[co, cig, kh, kw], fill(seed ^ 0x5EED, co * cig * kh * kw));
        let bias = match bias_pick {
            0 => None,
            1 => Some(Tensor::from_f32(&[co], fill(seed ^ 0xB1A5, co))),
            _ => Some(Tensor::from_f32(
                &[co],
                fill(seed ^ 0xB1A5, co)
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| if i % 2 == 0 { -0.0 } else { v })
                    .collect(),
            )),
        };
        let sp = Spatial2d { kernel: [kh, kw], stride: [sh, sw], padding: [ph, pw] };
        let conv = |params: ConvParams| {
            conv2d_with_params(&x, &w, bias.as_ref(), &sp, groups, params)
                .expect("conv")
                .as_f32()
                .expect("f32")
                .to_vec()
        };
        let reference = conv2d_naive(&x, &w, bias.as_ref(), &sp, groups)
            .expect("conv")
            .as_f32()
            .expect("f32")
            .to_vec();
        for order in ConvLoopOrder::ALL {
            let params = ConvParams { block_oc, tile_w, loop_order: order };
            for threads in [1, 4] {
                let got = with_threads(threads, || conv(params));
                prop_assert_eq!(
                    bits(&reference), bits(&got),
                    "conv variant {:?} bo={} tw={} diverged from naive at {} threads",
                    order, block_oc, tile_w, threads
                );
            }
        }
    }
}

/// Shapes large enough to clear the parallel cutoff so the pool really
/// splits the loop nests: every variant must still match the naive
/// reference bitwise (the chunk decomposition is variant-independent).
#[test]
fn large_gemm_variants_split_and_match_naive() {
    let (m, k, n) = (96, 40, 72);
    let a = fill(11, m * k);
    let b = fill(12, k * n);
    let naive = gemm_naive(&a, &b, m, k, n);
    for order in LoopOrder::ALL {
        for micro in MicroKernel::ALL {
            let params = GemmParams {
                tile_m: 16,
                tile_n: 16,
                tile_k: 8,
                unroll: 4,
                loop_order: order,
                micro,
            };
            let out = with_threads(4, || gemm_tiled(&a, &b, m, k, n, params));
            assert_eq!(
                bits(&naive),
                bits(&out),
                "large {order:?}/{micro:?} diverged from naive"
            );
        }
    }
}

#[test]
fn large_conv_variants_split_and_match_reference() {
    let (batch, ci, co, hw, kernel) = (2, 8, 16, 16, 3);
    let x = Tensor::from_f32(&[batch, ci, hw, hw], fill(13, batch * ci * hw * hw));
    let w = Tensor::from_f32(
        &[co, ci, kernel, kernel],
        fill(14, co * ci * kernel * kernel),
    );
    let sp = Spatial2d::same(kernel);
    let reference = conv2d_naive(&x, &w, None, &sp, 1)
        .expect("conv")
        .as_f32()
        .expect("f32")
        .to_vec();
    for order in ConvLoopOrder::ALL {
        let params = ConvParams {
            block_oc: 4,
            tile_w: 8,
            loop_order: order,
        };
        let out = with_threads(4, || {
            conv2d_with_params(&x, &w, None, &sp, 1, params)
                .expect("conv")
                .as_f32()
                .expect("f32")
                .to_vec()
        });
        assert_eq!(
            bits(&reference),
            bits(&out),
            "large conv {order:?} diverged"
        );
    }
}
