//! The element-wise kernels walk contiguous runs and inline each op's
//! scalar function; this suite pins them, as raw bits at 1 and 4 threads,
//! to per-element references on random broadcast shapes (rank 0–5, dims
//! 0–5, squashed size-1 axes, dropped leading axes, and shapes above 2^14
//! elements so pool chunks start in the middle of a run) with NaN, ±0,
//! ±inf and subnormal values mixed in:
//!
//! - `binary` against `binary_naive`, NaNs made canonical;
//! - `compare`, `where_select` and `expand` against per-element loops here;
//! - `unary` and `clip` against their scalar functions mapped one by one;
//! - fused chains against node-by-node kernel execution;
//! - `softmax` on every axis against its definition written out per lane
//!   here.

use proptest::prelude::*;
use sod2_ir::{BinaryOp, CompareOp, UnaryOp};
use sod2_kernels::elementwise::{
    binary, binary_naive, clip, compare, unary, unary_fn, where_select,
};
use sod2_kernels::math;
use sod2_kernels::reduce::softmax;
use sod2_kernels::shape_ops::expand;
use sod2_kernels::{fused_elementwise, FusedStep};
use sod2_pool::with_threads;
use sod2_tensor::{broadcast_output_shape, BroadcastIndexer, Tensor};

const BINARY_OPS: [BinaryOp; 8] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Pow,
    BinaryOp::Min,
    BinaryOp::Max,
    BinaryOp::Mod,
];

const UNARY_OPS: [UnaryOp; 24] = [
    UnaryOp::Relu,
    UnaryOp::LeakyRelu,
    UnaryOp::Sigmoid,
    UnaryOp::Tanh,
    UnaryOp::Gelu,
    UnaryOp::Erf,
    UnaryOp::Exp,
    UnaryOp::Log,
    UnaryOp::Sqrt,
    UnaryOp::Neg,
    UnaryOp::Abs,
    UnaryOp::Round,
    UnaryOp::Floor,
    UnaryOp::Ceil,
    UnaryOp::Softplus,
    UnaryOp::Silu,
    UnaryOp::HardSigmoid,
    UnaryOp::HardSwish,
    UnaryOp::Elu,
    UnaryOp::Selu,
    UnaryOp::Sign,
    UnaryOp::Reciprocal,
    UnaryOp::Sin,
    UnaryOp::Cos,
];

/// Values that are not ordinary finite floats: NaNs of both signs and
/// another payload, signed zeros, infinities and subnormals; and the edges
/// of `math::exp` and `math::tanh`.
const SPECIALS: [f32; 20] = [
    f32::NAN,
    -f32::NAN,
    f32::from_bits(0x7fc0_1234),
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::from_bits(1),
    -f32::from_bits(0x0040_0000),
    f32::MIN_POSITIVE,
    // Largest subnormal.
    f32::from_bits(0x007f_ffff),
    // `exp` overflow: the largest input with a finite result, and the next.
    f32::from_bits(0x42b1_7217),
    f32::from_bits(0x42b1_7218),
    // `exp` flush to zero: the smallest input with a normal result, and
    // the next below.
    f32::from_bits(0xc2ae_ac4f),
    f32::from_bits(0xc2ae_ac50),
    -104.0,
    // `tanh`'s branch point between polynomial and exponential, both sides.
    0.5625,
    -f32::from_bits(0x3f0f_ffff),
    // The cut-offs below which `exp` gives 1 (2^-25) and `tanh` its input
    // (2^-12).
    f32::from_bits(0x3300_0000),
    -f32::from_bits(0x3980_0000),
];

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    move || {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        s >> 16
    }
}

/// f32 values in [-4, 4) with one in five drawn from [`SPECIALS`].
fn f32s(seed: u64, len: usize) -> Vec<f32> {
    let mut next = lcg(seed);
    (0..len)
        .map(|_| {
            let s = next();
            if s.is_multiple_of(5) {
                SPECIALS[(s / 5) as usize % SPECIALS.len()]
            } else {
                ((s >> 8) % 65_536) as f32 / 8_192.0 - 4.0
            }
        })
        .collect()
}

/// i64 values in `lo..hi`, with zero common so `Div`/`Mod` by zero and
/// equal operands both occur, and the overflow edges mixed in: `MIN / -1`,
/// `MIN mod -1`, `MAX * MAX` and `Pow` by exponents ≥ 63 all wrap.
fn i64s(seed: u64, len: usize, lo: i64, hi: i64) -> Vec<i64> {
    const EDGES: [i64; 4] = [i64::MIN, i64::MAX, -1, 63];
    let mut next = lcg(seed);
    (0..len)
        .map(|_| {
            let s = next();
            if s.is_multiple_of(7) {
                0
            } else if s.is_multiple_of(5) {
                EDGES[(s / 5) as usize % EDGES.len()]
            } else {
                lo + ((s >> 8) % (hi - lo) as u64) as i64
            }
        })
        .collect()
}

fn bools(seed: u64, len: usize) -> Vec<bool> {
    let mut next = lcg(seed);
    (0..len).map(|_| next().is_multiple_of(2)).collect()
}

fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_f32()
        .expect("f32")
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

fn canonical(v: f32) -> f32 {
    if v.is_nan() {
        f32::NAN
    } else {
        v
    }
}

/// Runs `f` at 1 and 4 threads, asserts the two agree byte for byte, and
/// returns the one-thread result.
fn thread_invariant(f: impl Fn() -> Tensor) -> Tensor {
    let t1 = with_threads(1, &f);
    let t4 = with_threads(4, &f);
    assert_eq!(t1.shape(), t4.shape(), "shape at 1 vs 4 threads");
    assert!(
        t1.payload_le_bytes() == t4.payload_le_bytes(),
        "payload at 1 vs 4 threads"
    );
    t1
}

/// Each operand of an output shape: `drop` leading axes removed and the
/// axes flagged in `squash` set to 1.
fn derive(out: &[usize], specs: Vec<(usize, Vec<bool>)>) -> Vec<Vec<usize>> {
    specs
        .into_iter()
        .map(|(drop, squash)| {
            (drop.min(out.len())..out.len())
                .map(|d| if squash[d] { 1 } else { out[d] })
                .collect()
        })
        .collect()
}

/// `count` operand shapes broadcast-compatible with each other: derived
/// from one output shape, either small (rank 0–5, dims 1–5 with an
/// occasional 0) or above 2^14 elements with long innermost runs.
fn operand_shapes(count: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    let small = || {
        let dim = (0usize..30).prop_map(|d| if d == 0 { 0 } else { 1 + d % 5 });
        proptest::collection::vec(dim, 0..6)
    };
    let large = (3usize..6, 5usize..9, 1_100usize..1_400).prop_map(|(a, b, c)| vec![a, b, c]);
    prop_oneof![small(), small(), large].prop_flat_map(move |out: Vec<usize>| {
        let rank = out.len();
        let spec = (
            0..=rank,
            proptest::collection::vec(any::<bool>(), rank..=rank),
        );
        (Just(out), proptest::collection::vec(spec, count..=count))
            .prop_map(|(out, specs): (Vec<usize>, _)| derive(&out, specs))
    })
}

/// Per-element projection of each operand onto the broadcast output.
fn indexers(out: &[usize], shapes: &[&[usize]]) -> Vec<BroadcastIndexer> {
    shapes
        .iter()
        .map(|s| BroadcastIndexer::new(out, s))
        .collect()
}

/// `softmax` as its documentation defines it, serial, one `(outer,
/// inner)` lane at a time and written out here apart from the kernel: the
/// lane's maximum (first over the partial maxima `a % 8` of the first
/// `len - len % 8` elements, then the rest); `math::exp(x - max)`; the sum
/// with the same split, the eight partials combined as `((s0 + s1) + (s2 +
/// s3)) + ((s4 + s5) + (s6 + s7))`; then each value times `1 / sum`.
fn softmax_reference(x: &Tensor, axis: usize) -> Vec<f32> {
    let xv = x.as_f32().expect("f32");
    let dims = x.shape();
    let axis_len = dims[axis];
    let outer: usize = dims[..axis].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();
    let split = axis_len - axis_len % 8;
    let mut out = vec![0f32; xv.len()];
    for o in 0..outer {
        for i in 0..inner {
            let at = |a: usize| (o * axis_len + a) * inner + i;
            let mut m = [f32::NEG_INFINITY; 8];
            for a in 0..split {
                m[a % 8] = m[a % 8].max(xv[at(a)]);
            }
            let mut mx = f32::NEG_INFINITY;
            for v in m.into_iter().chain((split..axis_len).map(|a| xv[at(a)])) {
                mx = mx.max(v);
            }
            for a in 0..axis_len {
                out[at(a)] = math::exp(xv[at(a)] - mx);
            }
            let mut s = [0f32; 8];
            for a in 0..split {
                s[a % 8] += out[at(a)];
            }
            let mut sum = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
            for a in split..axis_len {
                sum += out[at(a)];
            }
            let inv = 1.0 / sum;
            for a in 0..axis_len {
                out[at(a)] *= inv;
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every f32 and i64 `BinaryOp` equals the per-element reference.
    #[test]
    fn binary_matches_naive(shapes in operand_shapes(2), seed in any::<u64>()) {
        let (sa, sb) = (&shapes[0], &shapes[1]);
        let a = Tensor::from_f32(sa, f32s(seed, numel(sa)));
        let b = Tensor::from_f32(sb, f32s(seed ^ 0xB, numel(sb)));
        for op in BINARY_OPS {
            let got = thread_invariant(|| binary(op, &a, &b).expect("binary"));
            let want = binary_naive(op, &a, &b).expect("binary_naive");
            prop_assert_eq!(got.shape(), want.shape());
            let want: Vec<u32> = want
                .as_f32()
                .expect("f32")
                .iter()
                .map(|&v| canonical(v).to_bits())
                .collect();
            prop_assert!(bits(&got) == want, "{:?} {:?} x {:?}", op, sa, sb);
        }
        for op in BINARY_OPS {
            // Small bases keep some `Pow` results exact; exponents reach
            // past 63, where the kernel clamps and wraps.
            let (a_range, b_range) = if op == BinaryOp::Pow {
                ((-3, 4), (-3, 70))
            } else {
                ((-1_000_000, 1_000_000), (-1_000_000, 1_000_000))
            };
            let a = Tensor::from_i64(sa, i64s(seed, numel(sa), a_range.0, a_range.1));
            let b = Tensor::from_i64(sb, i64s(seed ^ 0xB, numel(sb), b_range.0, b_range.1));
            let got = thread_invariant(|| binary(op, &a, &b).expect("binary"));
            let want = binary_naive(op, &a, &b).expect("binary_naive");
            prop_assert_eq!(got.shape(), want.shape());
            prop_assert!(got.as_i64().expect("i64") == want.as_i64().expect("i64"), "{:?}", op);
        }
    }

    /// `compare`, `where_select` and `expand` equal per-element loops.
    #[test]
    fn compare_where_expand_match_per_element(
        shapes in operand_shapes(3),
        seed in any::<u64>(),
    ) {
        let (sc, sa, sb) = (&shapes[0], &shapes[1], &shapes[2]);
        let ab = broadcast_output_shape(sa, sb).expect("compatible");
        let ix = indexers(&ab, &[sa, sb]);
        let (af, bf) = (f32s(seed, numel(sa)), f32s(seed ^ 0xB, numel(sb)));
        let (ai, bi) = (i64s(seed, numel(sa), -3, 3), i64s(seed ^ 0xB, numel(sb), -3, 3));
        let (ta, tb) = (Tensor::from_f32(sa, af.clone()), Tensor::from_f32(sb, bf.clone()));
        let (ia, ib) = (Tensor::from_i64(sa, ai.clone()), Tensor::from_i64(sb, bi.clone()));
        for op in [CompareOp::Equal, CompareOp::Less, CompareOp::Greater] {
            fn cmp<T: PartialOrd>(op: CompareOp, x: T, y: T) -> bool {
                match op {
                    CompareOp::Equal => x == y,
                    CompareOp::Less => x < y,
                    CompareOp::Greater => x > y,
                }
            }
            let want_f: Vec<bool> = (0..numel(&ab))
                .map(|i| cmp(op, af[ix[0].src_offset(i)], bf[ix[1].src_offset(i)]))
                .collect();
            let want_i: Vec<bool> = (0..numel(&ab))
                .map(|i| cmp(op, ai[ix[0].src_offset(i)], bi[ix[1].src_offset(i)]))
                .collect();
            let got_f = thread_invariant(|| compare(op, &ta, &tb).expect("compare"));
            let got_i = thread_invariant(|| compare(op, &ia, &ib).expect("compare"));
            prop_assert_eq!(got_f.shape(), &ab[..]);
            prop_assert!(got_f.as_bool().expect("bool") == &want_f[..], "{:?} f32", op);
            prop_assert!(got_i.as_bool().expect("bool") == &want_i[..], "{:?} i64", op);
        }

        let out = broadcast_output_shape(sc, &ab).expect("compatible");
        let ix = indexers(&out, &[sc, sa, sb]);
        let cv = bools(seed ^ 0xC, numel(sc));
        let cond = Tensor::from_bool(sc, cv.clone());
        let want: Vec<u32> = (0..numel(&out))
            .map(|i| {
                let v = if cv[ix[0].src_offset(i)] {
                    af[ix[1].src_offset(i)]
                } else {
                    bf[ix[2].src_offset(i)]
                };
                v.to_bits()
            })
            .collect();
        let got = thread_invariant(|| where_select(&cond, &ta, &tb).expect("where"));
        prop_assert_eq!(got.shape(), &out[..]);
        prop_assert!(bits(&got) == want, "where {:?} {:?} {:?}", sc, sa, sb);

        let target: Vec<i64> = out.iter().map(|&d| d as i64).collect();
        let target = Tensor::from_i64(&[target.len()], target);
        let ix = BroadcastIndexer::new(&out, sa);
        let want: Vec<u32> = (0..numel(&out)).map(|i| af[ix.src_offset(i)].to_bits()).collect();
        let got = thread_invariant(|| expand(&ta, &target).expect("expand"));
        prop_assert_eq!(got.shape(), &out[..]);
        prop_assert!(bits(&got) == want, "expand {:?} to {:?}", sa, out);
    }

    /// Every `UnaryOp` and `Clip` equal their scalar functions mapped one
    /// element at a time.
    #[test]
    fn unary_and_clip_match_scalar_functions(
        shapes in operand_shapes(1),
        seed in any::<u64>(),
        (lo, hi) in (-3.0f32..3.0, 0.0f32..3.0).prop_map(|(lo, w)| (lo, lo + w)),
    ) {
        let shape = &shapes[0];
        let x = Tensor::from_f32(shape, f32s(seed, numel(shape)));
        let xv = x.as_f32().expect("f32");
        for op in UNARY_OPS {
            let f = unary_fn(op);
            let want: Vec<u32> = xv.iter().map(|&v| f(v).to_bits()).collect();
            let got = thread_invariant(|| unary(op, &x).expect("unary"));
            prop_assert!(bits(&got) == want, "{:?}", op);
        }
        let want: Vec<u32> = xv.iter().map(|&v| v.clamp(lo, hi).to_bits()).collect();
        let got = thread_invariant(|| clip(&x, lo, hi).expect("clip"));
        prop_assert!(bits(&got) == want, "clip [{}, {}]", lo, hi);
    }

    /// A random fused chain equals the same steps run node by node.
    #[test]
    fn fused_chain_matches_nodewise(
        shapes in operand_shapes(5),
        seed in any::<u64>(),
        picks in proptest::collection::vec((0usize..3, any::<u64>(), any::<bool>()), 1..7),
    ) {
        let seed_t = Tensor::from_f32(&shapes[0], f32s(seed, numel(&shapes[0])));
        let others: Vec<Tensor> = shapes[1..]
            .iter()
            .enumerate()
            .map(|(k, s)| Tensor::from_f32(s, f32s(seed ^ (k as u64 + 1), numel(s))))
            .collect();
        let steps: Vec<FusedStep<'_>> = picks
            .iter()
            .map(|&(kind, r, lhs)| match kind {
                0 => FusedStep::Unary(UNARY_OPS[r as usize % UNARY_OPS.len()]),
                1 => {
                    let lo = (r % 7) as f32 - 3.0;
                    FusedStep::Clip { min: lo, max: lo + ((r >> 8) % 4) as f32 }
                }
                _ => FusedStep::Binary {
                    op: BINARY_OPS[r as usize % BINARY_OPS.len()],
                    other: &others[(r >> 8) as usize % others.len()],
                    chain_is_lhs: lhs,
                },
            })
            .collect();
        let fused = thread_invariant(|| fused_elementwise(&seed_t, &steps).expect("fused"));
        let mut v = seed_t.clone();
        for s in &steps {
            v = match s {
                FusedStep::Unary(op) => unary(*op, &v),
                FusedStep::Clip { min, max } => clip(&v, *min, *max),
                FusedStep::Binary { op, other, chain_is_lhs: true } => binary(*op, &v, other),
                FusedStep::Binary { op, other, chain_is_lhs: false } => binary(*op, other, &v),
            }
            .expect("node");
        }
        prop_assert_eq!(fused.shape(), v.shape());
        prop_assert!(bits(&fused) == bits(&v), "{:?}", steps);
    }

    /// `softmax` on every axis equals its definition.
    #[test]
    fn softmax_matches_lane_loop_on_every_axis(
        shape in prop_oneof![
            proptest::collection::vec(1usize..6, 1..5),
            (1usize..4, 5_000usize..7_000).prop_map(|(a, b)| vec![a, b]),
            (2usize..4, 40usize..60, 60usize..120).prop_map(|(a, b, c)| vec![a, b, c]),
        ],
        seed in any::<u64>(),
    ) {
        let x = Tensor::from_f32(&shape, f32s(seed, numel(&shape)));
        for axis in 0..shape.len() {
            let want: Vec<u32> = softmax_reference(&x, axis).iter().map(|v| v.to_bits()).collect();
            for a in [axis as i64, axis as i64 - shape.len() as i64] {
                let got = thread_invariant(|| softmax(&x, a).expect("softmax"));
                prop_assert!(bits(&got) == want, "{:?} axis {}", shape, a);
            }
        }
    }
}
