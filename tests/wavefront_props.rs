//! Wavefront ≡ serial equivalence: for random branchy graphs, wavefront
//! execution must produce bitwise-identical outputs to serial execution,
//! across worker counts (1 and 4) and arena/heap tensor backing, and the
//! reported serial-schedule memory metrics must not change either.

use proptest::prelude::*;
use sod2_device::DeviceProfile;
use sod2_frameworks::{Engine, Sod2Engine, Sod2Options};
use sod2_ir::{BinaryOp, DType, Graph, Op, TensorId, UnaryOp};
use sod2_pool::with_threads;
use sod2_tensor::Tensor;

fn unary_of(i: u8) -> UnaryOp {
    [
        UnaryOp::Relu,
        UnaryOp::Sigmoid,
        UnaryOp::Tanh,
        UnaryOp::Abs,
        UnaryOp::Softplus,
        UnaryOp::HardSigmoid,
    ][(i as usize) % 6]
}

fn binary_of(i: u8) -> BinaryOp {
    [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Max][(i as usize) % 4]
}

/// A branchy graph: several independent unary chains off one `[N, C]`
/// input, folded together pairwise — exactly the shape whose independent
/// chains a wavefront schedule runs concurrently.
fn build_branchy(c: usize, chains: &[Vec<u8>], folds: &[u8]) -> Graph {
    let mut g = Graph::new();
    let x = g.add_input(
        "x",
        DType::F32,
        vec![sod2_sym::DimExpr::sym("N"), (c as i64).into()],
    );
    let mut heads: Vec<TensorId> = Vec::new();
    for (bi, chain) in chains.iter().enumerate() {
        let mut cur = x;
        for (i, u) in chain.iter().enumerate() {
            cur = g.add_simple(
                format!("b{bi}u{i}"),
                Op::Unary(unary_of(*u)),
                &[cur],
                DType::F32,
            );
        }
        heads.push(cur);
    }
    let mut acc = heads[0];
    for (i, h) in heads[1..].iter().enumerate() {
        let f = folds.get(i).copied().unwrap_or(0);
        acc = g.add_simple(
            format!("fold{i}"),
            Op::Binary(binary_of(f)),
            &[acc, *h],
            DType::F32,
        );
    }
    g.mark_output(acc);
    g
}

fn chains_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..6), 2..5)
}

fn input_for(n: usize, c: usize, seed: u64) -> Tensor {
    let vals: Vec<f32> = (0..n * c)
        .map(|i| {
            let h = (i as u64).wrapping_mul(seed.wrapping_add(0x9E37_79B9)) % 997;
            (h as f32 - 498.0) / 300.0
        })
        .collect();
    Tensor::from_f32(&[n, c], vals)
}

/// Runs one engine configuration and returns (output payloads, reported
/// peak bytes, heap-allocation events).
fn run_mode(
    graph: &Graph,
    input: &Tensor,
    wavefront: bool,
    threads: usize,
) -> (Vec<Vec<u8>>, usize, usize) {
    with_threads(threads, || {
        let mut engine = Sod2Engine::new(
            graph.clone(),
            DeviceProfile::s888_cpu(),
            Sod2Options {
                wavefront_exec: wavefront,
                ..Sod2Options::default()
            },
            &Default::default(),
        );
        let run = engine.infer(std::slice::from_ref(input)).expect("infer");
        let stats = engine.price(&run);
        (
            run.outputs.iter().map(|t| t.payload_le_bytes()).collect(),
            stats.peak_memory_bytes,
            stats.alloc_events,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Wavefront execution is bitwise-identical to serial execution at
    /// every worker count, and it does not perturb the deterministic
    /// serial-schedule stats.
    #[test]
    fn wavefront_matches_serial_bitwise(chains in chains_strategy(),
                                        folds in proptest::collection::vec(any::<u8>(), 4),
                                        n in 1usize..6, c in 2usize..5, seed in 0u64..1000) {
        let g = build_branchy(c, &chains, &folds);
        sod2_ir::validate(&g).expect("generated graph valid");
        let input = input_for(n, c, seed);
        let (serial_out, serial_peak, serial_allocs) = run_mode(&g, &input, false, 1);
        for threads in [1usize, 4] {
            let (wave_out, wave_peak, wave_allocs) = run_mode(&g, &input, true, threads);
            prop_assert_eq!(&wave_out, &serial_out, "outputs diverged (threads={})", threads);
            prop_assert_eq!(wave_peak, serial_peak, "reported peak diverged (threads={})", threads);
            prop_assert_eq!(wave_allocs, serial_allocs,
                "alloc events diverged (threads={})", threads);
        }
    }
}
