//! Parallel kernels must be bitwise-deterministic across thread counts:
//! the chunk decomposition depends only on the problem shape, and each
//! output element's accumulation order matches the serial loop nest, so
//! results at 1, 2, and 4 threads — and NaN/inf payloads — are identical.

use proptest::prelude::*;
use sod2_ir::{BinaryOp, ReduceOp, Spatial2d, UnaryOp};
use sod2_kernels::{conv2d_with_params, gemm_naive, gemm_tiled, ConvParams, GemmParams};
use sod2_pool::with_threads;
use sod2_tensor::Tensor;

/// Bit-exact view of an f32 slice (NaN-safe comparison).
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

/// Runs `f` at 1, 2, and 4 threads and asserts all runs agree bitwise.
fn assert_thread_invariant(f: impl Fn() -> Vec<f32>) -> Vec<f32> {
    let t1 = with_threads(1, &f);
    let t2 = with_threads(2, &f);
    let t4 = with_threads(4, &f);
    assert_eq!(bits(&t1), bits(&t2), "1 vs 2 threads");
    assert_eq!(bits(&t1), bits(&t4), "1 vs 4 threads");
    t1
}

proptest! {
    /// GEMM: tiled and naive agree with each other and across thread
    /// counts on random shapes with special values mixed in: small ones,
    /// which run serially, and ones of at least 2^16 multiply-adds, which
    /// the tiled kernel splits across the pool.
    #[test]
    fn gemm_bitwise_stable(
        (m, k, n) in prop_oneof![
            (1usize..20, 0usize..20, 1usize..20),
            (64usize..96, 32usize..48, 32usize..48),
        ],
        seed in any::<u64>(),
    ) {
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0xABCD, k * n);
        let tiled = |threads: usize| {
            with_threads(threads, || gemm_tiled(&a, &b, m, k, n, GemmParams::default()))
        };
        let t1 = tiled(1);
        prop_assert_eq!(bits(&t1), bits(&tiled(2)));
        prop_assert_eq!(bits(&t1), bits(&tiled(4)));
        let naive = with_threads(4, || gemm_naive(&a, &b, m, k, n));
        prop_assert_eq!(bits(&t1), bits(&naive), "tiled vs naive reference");
    }

    /// Conv2d agrees across thread counts on random shapes, groups, and
    /// strides.
    #[test]
    fn conv_bitwise_stable(
        batch in 1usize..3,
        cig in 1usize..4,
        cog in 1usize..4,
        groups in 1usize..3,
        hw in 3usize..8,
        kernel in 1usize..4,
        stride in 1usize..3,
        seed in any::<u64>(),
    ) {
        let (ci, co) = (cig * groups, cog * groups);
        let x = Tensor::from_f32(
            &[batch, ci, hw, hw],
            fill(seed, batch * ci * hw * hw),
        );
        let w = Tensor::from_f32(
            &[co, cig, kernel, kernel],
            fill(seed ^ 0x5EED, co * cig * kernel * kernel),
        );
        let bias = Tensor::from_f32(&[co], fill(seed ^ 0xB1A5, co));
        let sp = Spatial2d::new(kernel, stride, kernel / 2);
        let run = |threads: usize| {
            with_threads(threads, || {
                conv2d_with_params(&x, &w, Some(&bias), &sp, groups, ConvParams::default())
                    .expect("conv")
                    .as_f32()
                    .expect("f32")
                    .to_vec()
            })
        };
        let t1 = run(1);
        prop_assert_eq!(bits(&t1), bits(&run(2)));
        prop_assert_eq!(bits(&t1), bits(&run(4)));
    }

    /// Reductions and softmax agree across thread counts on random shapes
    /// and axes.
    #[test]
    fn reduce_and_softmax_bitwise_stable(
        shape in proptest::collection::vec(1usize..6, 1..4),
        axis_pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let numel: usize = shape.iter().product();
        let x = Tensor::from_f32(&shape, fill(seed, numel));
        let axis = (axis_pick % shape.len() as u64) as i64;
        for op in [ReduceOp::Sum, ReduceOp::Mean, ReduceOp::Max, ReduceOp::Prod] {
            let run = |threads: usize| {
                with_threads(threads, || {
                    sod2_kernels::reduce::reduce(op, &x, &[axis], false)
                        .expect("reduce")
                        .as_f32()
                        .expect("f32")
                        .to_vec()
                })
            };
            let t1 = run(1);
            prop_assert_eq!(bits(&t1), bits(&run(2)));
            prop_assert_eq!(bits(&t1), bits(&run(4)));
        }
        let soft = |threads: usize| {
            with_threads(threads, || {
                sod2_kernels::reduce::softmax(&x, axis)
                    .expect("softmax")
                    .as_f32()
                    .expect("f32")
                    .to_vec()
            })
        };
        let s1 = soft(1);
        prop_assert_eq!(bits(&s1), bits(&soft(2)));
        prop_assert_eq!(bits(&s1), bits(&soft(4)));
    }
}

/// Shapes large enough to clear the parallel cutoff, so the pool really
/// splits work (the proptest shapes above mostly exercise the serial
/// fallback path).
#[test]
fn large_gemm_splits_and_stays_bitwise_identical() {
    let (m, k, n) = (128, 48, 64);
    let a = fill(1, m * k);
    let b = fill(2, k * n);
    let out = assert_thread_invariant(|| gemm_tiled(&a, &b, m, k, n, GemmParams::default()));
    let naive = assert_thread_invariant(|| gemm_naive(&a, &b, m, k, n));
    assert_eq!(bits(&out), bits(&naive));
}

#[test]
fn large_conv_splits_and_stays_bitwise_identical() {
    let (batch, ci, co, hw, kernel) = (2, 8, 16, 16, 3);
    let x = Tensor::from_f32(&[batch, ci, hw, hw], fill(3, batch * ci * hw * hw));
    let w = Tensor::from_f32(
        &[co, ci, kernel, kernel],
        fill(4, co * ci * kernel * kernel),
    );
    let sp = Spatial2d::same(kernel);
    assert_thread_invariant(|| {
        conv2d_with_params(&x, &w, None, &sp, 1, ConvParams::default())
            .expect("conv")
            .as_f32()
            .expect("f32")
            .to_vec()
    });
}

#[test]
fn large_elementwise_reduce_and_norms_stay_bitwise_identical() {
    let x = Tensor::from_f32(&[64, 512], fill(5, 64 * 512));
    let b = Tensor::from_f32(&[512], fill(6, 512));
    assert_thread_invariant(|| {
        sod2_kernels::elementwise::unary(UnaryOp::Exp, &x)
            .expect("unary")
            .as_f32()
            .expect("f32")
            .to_vec()
    });
    assert_thread_invariant(|| {
        sod2_kernels::elementwise::binary(BinaryOp::Add, &x, &b)
            .expect("binary")
            .as_f32()
            .expect("f32")
            .to_vec()
    });
    assert_thread_invariant(|| {
        sod2_kernels::reduce::reduce(ReduceOp::Sum, &x, &[1], false)
            .expect("reduce")
            .as_f32()
            .expect("f32")
            .to_vec()
    });
    assert_thread_invariant(|| {
        sod2_kernels::reduce::softmax(&x, 1)
            .expect("softmax")
            .as_f32()
            .expect("f32")
            .to_vec()
    });
    let gamma = Tensor::from_f32(&[512], fill(7, 512));
    let beta = Tensor::from_f32(&[512], fill(8, 512));
    assert_thread_invariant(|| {
        sod2_kernels::reduce::layer_norm(&x, &gamma, &beta, 1e-5)
            .expect("layer_norm")
            .as_f32()
            .expect("f32")
            .to_vec()
    });
}
