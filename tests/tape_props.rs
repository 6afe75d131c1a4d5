//! Tape ≡ reference: compiling a plan and running it on the
//! register-machine tape must be unobservable. For random branchy graphs
//! with `<Switch, Combine>` control flow, the engine must produce the
//! serial heap reference interpreter's outputs bitwise, with memory
//! metrics that do not vary across worker counts (1 and 4) or wavefront
//! scheduling on/off, under arena and heap tensor backing — and every
//! fault class (deadline, budget, NaN guard, kernel error) must surface as
//! the same typed error in serial and wavefront mode.

use proptest::prelude::*;
use sod2::{DeviceProfile, Engine, ExecError, Sod2Engine, Sod2Options, Tensor};
use sod2_faults::{FaultPlan, Site, Trigger};
use sod2_ir::{BinaryOp, DType, Graph, Op, TensorId, UnaryOp};
use sod2_pool::with_threads;
use sod2_runtime::{execute, ExecConfig};

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

/// A branchy graph with both dynamism kinds: several independent unary
/// chains off one `[N, C]` input folded together pairwise (wavefront
/// parallelism → tape wave ranges), then routed through a
/// `<Switch, Combine>` pair whose arms are short unary chains (control
/// flow → tape `Branch`/`Select` instructions).
fn build_graph(c: usize, chains: &[Vec<u8>], folds: &[u8], arms: &[Vec<u8>]) -> Graph {
    let mut g = Graph::new();
    let x = g.add_input(
        "x",
        DType::F32,
        vec![sod2_sym::DimExpr::sym("N"), (c as i64).into()],
    );
    let sel = g.add_input("sel", DType::I64, vec![1.into()]);
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
    let n = arms.len();
    let br = g.add_node(
        "sw",
        Op::Switch { num_branches: n },
        &[acc, sel],
        DType::F32,
    );
    let mut arm_outs = Vec::new();
    for (ai, arm) in arms.iter().enumerate() {
        let mut cur = br[ai];
        for (i, u) in arm.iter().enumerate() {
            cur = g.add_simple(
                format!("a{ai}u{i}"),
                Op::Unary(unary_of(*u)),
                &[cur],
                DType::F32,
            );
        }
        arm_outs.push(cur);
    }
    arm_outs.push(sel);
    let y = g.add_simple(
        "comb",
        Op::Combine { num_branches: n },
        &arm_outs,
        DType::F32,
    );
    g.mark_output(y);
    g
}

fn chains_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..5), 2..4)
}

fn arms_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..4), 2..4)
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
/// peak bytes, priced allocation events, intermediates the plan covers).
fn run_mode(
    graph: &Graph,
    inputs: &[Tensor],
    wavefront: bool,
    threads: usize,
) -> (Vec<Vec<u8>>, usize, usize, usize) {
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
        let run = engine.infer(inputs).expect("infer");
        let stats = engine.price(&run);
        (
            run.outputs.iter().map(|t| t.payload_le_bytes()).collect(),
            stats.peak_memory_bytes,
            stats.alloc_events,
            stats.arena_backed,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The engine is bitwise-identical to the reference for every
    /// combination of wavefront scheduling and worker count, and its
    /// deterministic memory metrics depend on neither.
    #[test]
    fn tape_matches_tree_walk_bitwise(chains in chains_strategy(),
                                      folds in proptest::collection::vec(any::<u8>(), 3),
                                      arms in arms_strategy(),
                                      sel_raw in any::<u8>(),
                                      n in 1usize..6, c in 2usize..5, seed in 0u64..1000) {
        // The fault-parity tests below install process-global fault plans;
        // hold the same lock so none fires inside these clean runs.
        let _x = sod2_faults::exclusive();
        let g = build_graph(c, &chains, &folds, &arms);
        sod2_ir::validate(&g).expect("generated graph valid");
        let sel = (sel_raw as usize % arms.len()) as i64;
        let inputs = [input_for(n, c, seed), Tensor::from_i64(&[1], vec![sel])];
        let reference: Vec<Vec<u8>> = execute(&g, &inputs, &ExecConfig::default())
            .expect("reference run")
            .outputs
            .iter()
            .map(|t| t.payload_le_bytes())
            .collect();
        let serial = run_mode(&g, &inputs, false, 1);
        for wavefront in [false, true] {
            for threads in [1usize, 4] {
                let run = run_mode(&g, &inputs, wavefront, threads);
                prop_assert_eq!(&run.0, &reference,
                    "outputs diverged (wavefront={}, threads={})", wavefront, threads);
                prop_assert_eq!(run.1, serial.1,
                    "peak diverged (wavefront={}, threads={})", wavefront, threads);
                prop_assert_eq!(run.2, serial.2,
                    "alloc events diverged (wavefront={}, threads={})", wavefront, threads);
                prop_assert_eq!(run.3, serial.3,
                    "plan coverage diverged (wavefront={}, threads={})", wavefront, threads);
            }
        }
    }
}

// ---- Fault parity: each failure class surfaces identically in serial ----
// ---- and wavefront mode, and the engine stays reusable afterwards.   ----

fn fault_graph() -> (Graph, Vec<Tensor>) {
    let g = build_graph(
        3,
        &[vec![0, 1, 2], vec![3, 4]],
        &[0, 1],
        &[vec![0, 1], vec![2]],
    );
    let inputs = vec![input_for(4, 3, 99), Tensor::from_i64(&[1], vec![1])];
    (g, inputs)
}

fn engine_mode(g: &Graph, wavefront: bool, opts: Sod2Options) -> Sod2Engine {
    Sod2Engine::new(
        g.clone(),
        DeviceProfile::s888_cpu(),
        Sod2Options {
            wavefront_exec: wavefront,
            ..opts
        },
        &Default::default(),
    )
}

#[test]
fn deadline_parity_across_modes() {
    let _x = sod2_faults::exclusive();
    let (g, inputs) = fault_graph();
    for wavefront in [false, true] {
        let opts = Sod2Options {
            deadline: Some(std::time::Duration::from_nanos(1)),
            ..Sod2Options::default()
        };
        let mut e = engine_mode(&g, wavefront, opts);
        let err = e.infer(&inputs);
        assert!(
            matches!(err, Err(ExecError::DeadlineExceeded)),
            "wavefront={wavefront}: got {err:?}"
        );
        e.set_deadline(None);
        e.infer(&inputs).expect("engine reusable after deadline");
    }
}

#[test]
fn budget_parity_across_modes() {
    let _x = sod2_faults::exclusive();
    let (g, inputs) = fault_graph();
    for wavefront in [false, true] {
        let opts = Sod2Options {
            memory_budget: Some(1),
            ..Sod2Options::default()
        };
        let mut e = engine_mode(&g, wavefront, opts);
        let err = e.infer(&inputs);
        assert!(
            matches!(err, Err(ExecError::BudgetExceeded { budget: 1, .. })),
            "wavefront={wavefront}: got {err:?}"
        );
        e.set_memory_budget(None);
        e.infer(&inputs).expect("engine reusable after budget");
    }
}

#[test]
fn nan_guard_parity_across_modes() {
    let _x = sod2_faults::exclusive();
    let (g, inputs) = fault_graph();
    for wavefront in [false, true] {
        sod2_faults::clear();
        let opts = Sod2Options {
            nan_guard: true,
            ..Sod2Options::default()
        };
        let mut e = engine_mode(&g, wavefront, opts);
        sod2_faults::install(FaultPlan::new(1).rule(Site::KernelNan, Trigger::Every(1), 0));
        let err = e.infer(&inputs);
        let fired = sod2_faults::fired_count();
        sod2_faults::clear();
        assert!(fired > 0, "wavefront={wavefront}: kernel.nan never fired");
        assert!(
            matches!(err, Err(ExecError::NumericFault(_))),
            "wavefront={wavefront}: got {err:?}"
        );
        e.set_nan_guard(false);
        e.infer(&inputs)
            .expect("engine reusable after numeric fault");
    }
}

#[test]
fn kernel_error_parity_across_modes() {
    let _x = sod2_faults::exclusive();
    let (g, inputs) = fault_graph();
    for wavefront in [false, true] {
        sod2_faults::clear();
        let mut e = engine_mode(&g, wavefront, Sod2Options::default());
        sod2_faults::install(FaultPlan::new(1).rule(Site::KernelError, Trigger::Every(1), 0));
        let err = e.infer(&inputs);
        let fired = sod2_faults::fired_count();
        sod2_faults::clear();
        assert!(fired > 0, "wavefront={wavefront}: kernel.error never fired");
        assert!(
            matches!(err, Err(ExecError::Kernel(_))),
            "wavefront={wavefront}: got {err:?}"
        );
        e.infer(&inputs)
            .expect("engine reusable after kernel error");
    }
}
