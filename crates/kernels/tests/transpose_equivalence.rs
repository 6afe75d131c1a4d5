//! Differential suite for `Transpose`: the stride-walking kernel must match
//! a per-element reference that maps every output coordinate back to its
//! input offset, on every dtype, ranks 0–5 and zero-size dimensions; and a
//! `perm` that is not a permutation of the input's axes is a typed error.

use proptest::prelude::*;
use sod2_ir::Op;
use sod2_kernels::{execute_op, shape_ops::transpose, KernelError};
use sod2_tensor::{Data, Indexer, Tensor};

/// Per-element reference: decode each output offset into coordinates,
/// permute them back onto the input axes and read that input element.
fn reference(x: &Tensor, perm: &[usize]) -> Tensor {
    let dims = x.shape();
    let out_shape: Vec<usize> = perm.iter().map(|&p| dims[p]).collect();
    let in_ix = Indexer::new(dims);
    let out_ix = Indexer::new(&out_shape);
    fn walk<T: Clone>(v: &[T], n: usize, src: impl Fn(usize) -> usize) -> Vec<T> {
        (0..n).map(|o| v[src(o)].clone()).collect()
    }
    let src = |o: usize| {
        let oc = out_ix.coords(o);
        let mut ic = vec![0usize; dims.len()];
        for (i, &p) in perm.iter().enumerate() {
            ic[p] = oc[i];
        }
        in_ix.offset(&ic)
    };
    let n = x.numel();
    let data = match x.data() {
        Data::F32(v) => Data::F32(walk(v, n, src)),
        Data::I64(v) => Data::I64(walk(v, n, src)),
        Data::Bool(v) => Data::Bool(walk(v, n, src)),
        Data::U8(v) => Data::U8(walk(v, n, src)),
    };
    Tensor::new(&out_shape, data).expect("reference shape")
}

/// A tensor of `dims` with distinct-ish values of the picked dtype; f32
/// payloads include a NaN so the comparison is on payload bytes.
fn tensor(dims: &[usize], dtype: usize, seed: u64) -> Tensor {
    let n: usize = dims.iter().product();
    let vals: Vec<u64> = (0..n as u64)
        .map(|i| (i + seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40)
        .collect();
    let data = match dtype {
        0 => Data::F32(
            vals.iter()
                .enumerate()
                .map(|(i, &v)| if i == 1 { f32::NAN } else { v as f32 - 7.5 })
                .collect(),
        ),
        1 => Data::I64(vals.iter().map(|&v| v as i64 - 1000).collect()),
        2 => Data::Bool(vals.iter().map(|&v| v % 2 == 1).collect()),
        _ => Data::U8(vals.iter().map(|&v| v as u8).collect()),
    };
    Tensor::new(dims, data).expect("shape")
}

/// A Fisher–Yates shuffle of `0..rank` driven by `seed`.
fn perm_of(rank: usize, mut seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..rank).collect();
    for i in (1..rank).rev() {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        perm.swap(i, (seed >> 33) as usize % (i + 1));
    }
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random shapes of rank 0–5 (dimensions 0–4, so some are empty),
    /// random perms, all four dtypes.
    #[test]
    fn transpose_matches_per_element_reference(
        dims in proptest::collection::vec(0usize..5, 0..=5),
        dtype in 0usize..4,
        seed in any::<u64>(),
    ) {
        let x = tensor(&dims, dtype, seed);
        let perm = perm_of(dims.len(), seed);
        let got = transpose(&x, &perm).expect("valid perm");
        let want = reference(&x, &perm);
        prop_assert_eq!(got.shape(), want.shape(), "perm {:?}", perm);
        prop_assert_eq!(got.dtype_name(), want.dtype_name());
        prop_assert_eq!(got.payload_le_bytes(), want.payload_le_bytes(), "perm {:?}", perm);
    }
}

#[test]
fn perms_that_are_not_permutations_are_typed_errors() {
    let x = Tensor::from_f32(&[2, 2, 2], (0..8).map(|i| i as f32).collect());
    for perm in [vec![0, 1, 5], vec![0, 0, 1], vec![1, 0]] {
        let err = transpose(&x, &perm).expect_err("not a permutation");
        assert!(
            matches!(
                err,
                KernelError::ShapeError {
                    op: "Transpose",
                    ..
                }
            ),
            "perm {perm:?}: {err:?}"
        );
        assert!(execute_op(&Op::Transpose { perm }, &[&x]).is_err());
    }
    let sq = Tensor::from_f32(&[2, 2], vec![1., 2., 3., 4.]);
    assert!(transpose(&sq, &[0, 0]).is_err());
}
