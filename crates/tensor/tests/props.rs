//! Property tests for index arithmetic: the broadcast indexer and the run
//! walk must agree with naive multi-dimensional coordinate math on random
//! shapes.

use proptest::prelude::*;
use sod2_tensor::{broadcast_output_shape, BroadcastIndexer, Indexer, RunWalk};

/// A random source shape plus a broadcast-compatible output shape: each
/// source dim is either kept or set to 1, and extra leading dims may be
/// prepended.
fn compatible_shapes() -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
    proptest::collection::vec((1usize..5, any::<bool>()), 1..4).prop_flat_map(|spec| {
        let out_tail: Vec<usize> = spec.iter().map(|&(d, _)| d).collect();
        let src: Vec<usize> = spec
            .iter()
            .map(|&(d, squash)| if squash { 1 } else { d })
            .collect();
        proptest::collection::vec(1usize..4, 0..3).prop_map(move |lead| {
            let mut out = lead;
            out.extend(&out_tail);
            (src.clone(), out)
        })
    })
}

/// Source offset of output offset `off` in `src`, by projecting output
/// coordinates: drop leading dims, clamp broadcast (size-1) dims.
fn project(out: &[usize], src: &[usize], off: usize) -> usize {
    let coords = Indexer::new(out).coords(off);
    let proj: Vec<usize> = coords[out.len() - src.len()..]
        .iter()
        .zip(src)
        .map(|(&c, &d)| if d == 1 { 0 } else { c })
        .collect();
    Indexer::new(src).offset(&proj)
}

/// A random output shape (rank 0–5, dims 0–5), 1–3 operand shapes
/// broadcast into it (leading dims dropped, others squashed to 1), and an
/// output range `[start, start + len)`.
fn walk_case() -> impl Strategy<Value = (Vec<usize>, Vec<Vec<usize>>, usize, usize)> {
    // Dims 1–5, with an occasional 0.
    let dim = (0usize..30).prop_map(|d| if d == 0 { 0 } else { 1 + d % 5 });
    proptest::collection::vec(dim, 0..6)
        .prop_flat_map(|out| {
            let rank = out.len();
            let operand = (
                0..=rank,
                proptest::collection::vec(any::<bool>(), rank..=rank),
            );
            (Just(out), proptest::collection::vec(operand, 1..4))
        })
        .prop_map(|(out, specs)| {
            let operands = specs
                .into_iter()
                .map(|(drop, squash)| {
                    (drop..out.len())
                        .map(|d| if squash[d] { 1 } else { out[d] })
                        .collect()
                })
                .collect();
            (out, operands)
        })
        .prop_flat_map(|(out, operands)| {
            let n: usize = out.iter().product();
            (Just(out), Just(operands), 0..=n).prop_flat_map(|(out, operands, start)| {
                let n: usize = out.iter().product();
                (Just(out), Just(operands), Just(start), 0..=n - start)
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The runs of `[start, start + len)` tile the range in order, and at
    /// every offset each operand's `src + i * step` is the naive projection.
    #[test]
    fn run_walk_matches_naive_projection((out, operands, start, len) in walk_case()) {
        let shapes: Vec<&[usize]> = operands.iter().map(Vec::as_slice).collect();
        let walk = RunWalk::new(&out, &shapes);
        let mut next = start;
        let mut failures = Vec::new();
        walk.for_each_run(start, len, |o, l, src| {
            if o != next || l == 0 {
                failures.push(format!("run ({o}, {l}) where {next} was due"));
            }
            next = o + l;
            for i in 0..l {
                for (k, shape) in operands.iter().enumerate() {
                    let got = src[k] + i * walk.step(k);
                    let want = project(&out, shape, o + i);
                    if got != want {
                        failures.push(format!("offset {} operand {k}: {got} != {want}", o + i));
                    }
                }
            }
        });
        prop_assert!(failures.is_empty(), "{:?}", &failures[..failures.len().min(4)]);
        prop_assert_eq!(next, start + len);
        for k in 0..operands.len() {
            prop_assert!(walk.step(k) <= 1);
        }
    }
}

proptest! {
    /// `BroadcastIndexer` returns exactly the offset computed by projecting
    /// output coordinates onto the source shape.
    #[test]
    fn broadcast_indexer_matches_naive((src, out) in compatible_shapes()) {
        prop_assume!(broadcast_output_shape(&src, &out) == Some(out.clone()));
        let bi = BroadcastIndexer::new(&out, &src);
        let n: usize = out.iter().product();
        for off in 0..n {
            prop_assert_eq!(bi.src_offset(off), project(&out, &src, off));
        }
    }

    /// Round trip: `coords(offset(c)) == c` for every coordinate.
    #[test]
    fn indexer_roundtrips(shape in proptest::collection::vec(1usize..5, 1..4)) {
        let ix = Indexer::new(&shape);
        let n: usize = shape.iter().product();
        for off in 0..n {
            let c = ix.coords(off);
            prop_assert_eq!(ix.offset(&c), off);
            for (ci, di) in c.iter().zip(&shape) {
                prop_assert!(ci < di);
            }
        }
    }
}
