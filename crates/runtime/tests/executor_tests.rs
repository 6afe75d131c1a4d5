//! Executor integration tests: correctness and control flow on the
//! reference, and — on a serial heap tape, the one executor that accounts
//! — the accounting effects that power the paper's optimization
//! comparisons.

use sod2_device::DeviceProfile;
use sod2_fusion::{fuse, FusionPlan, FusionPolicy};
use sod2_ir::{BinaryOp, ConstData, DType, Graph, NodeId, Op, TensorId, UnaryOp};
use sod2_mem::{Arena, ArenaLayout, MemoryPlan, TensorLife};
use sod2_mvc::VersionTable;
use sod2_plan::{naive_unit_order, UnitGraph};
use sod2_rdp::analyze;
use sod2_runtime::{
    compile_tape, execute, execute_tape, ExecConfig, ExecError, RunOutcome, WaveExecPlan,
};
use sod2_sym::DimExpr;
use sod2_tensor::Tensor;

fn relu_chain(n: usize) -> Graph {
    let mut g = Graph::new();
    let mut t = g.add_input("x", DType::F32, vec![DimExpr::sym("N")]);
    for i in 0..n {
        t = g.add_simple(
            format!("relu{i}"),
            Op::Unary(UnaryOp::Relu),
            &[t],
            DType::F32,
        );
    }
    g.mark_output(t);
    g
}

/// Runs `g` on a serial heap tape lowered with `fusion` (and its chains)
/// in naive unit order — topological order without a plan.
fn run_tape(
    g: &Graph,
    inputs: &[Tensor],
    fusion: Option<&FusionPlan>,
    cfg: &ExecConfig<'_>,
) -> RunOutcome {
    let order: Vec<NodeId> = match fusion {
        Some(f) => {
            let units = UnitGraph::build(g, f);
            units.node_order(&naive_unit_order(&units))
        }
        None => g.topo_order(),
    };
    let tape = compile_tape(g, &order, fusion, None, None, None).expect("compile tape");
    execute_tape(g, inputs, &tape, cfg, None, false).expect("tape run")
}

/// Runs `g` on the tape, serially in topological order, with its
/// intermediates served from an arena giving each `(tensor, offset,
/// planned size)` its slot.
fn run_tape_on_arena(
    g: &Graph,
    inputs: &[Tensor],
    slots: &[(TensorId, usize, usize)],
    peak: usize,
) -> Result<RunOutcome, ExecError> {
    let lives: Vec<TensorLife> = slots
        .iter()
        .map(|&(t, _, size)| TensorLife::new(t.0 as usize, size, 0, vec![]))
        .collect();
    let plan = MemoryPlan {
        offsets: slots
            .iter()
            .map(|&(t, off, _)| (t.0 as usize, off))
            .collect(),
        peak,
    };
    let mut arena = Arena::new(std::sync::Arc::new(ArenaLayout::new(&lives, &plan, &[])));
    let tape = compile_tape(g, &g.topo_order(), None, None, None, None).expect("compile tape");
    execute_tape(
        g,
        inputs,
        &tape,
        &ExecConfig::default(),
        Some(&mut arena),
        false,
    )
}

#[test]
fn chain_executes_correctly() {
    let g = relu_chain(3);
    let inputs = [Tensor::from_f32(&[4], vec![-2.0, -1.0, 0.5, 3.0])];
    let out = execute(&g, &inputs, &ExecConfig::default()).expect("run");
    assert_eq!(out.outputs[0].as_f32().expect("f32"), &[0.0, 0.0, 0.5, 3.0]);
    let run = run_tape(&g, &inputs, None, &ExecConfig::default());
    assert_eq!(
        run.outputs[0].payload_le_bytes(),
        out.outputs[0].payload_le_bytes()
    );
    assert_eq!(run.trace.kernel_count(), 3);
}

#[test]
fn switch_combine_selects_branch() {
    // Switch routes x to relu (branch 0) or neg (branch 1).
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![2.into()]);
    let sel = g.add_input("sel", DType::I64, vec![1.into()]);
    let br = g.add_node("sw", Op::Switch { num_branches: 2 }, &[x, sel], DType::F32);
    let b0 = g.add_simple("b0", Op::Unary(UnaryOp::Relu), &[br[0]], DType::F32);
    let b1 = g.add_simple("b1", Op::Unary(UnaryOp::Neg), &[br[1]], DType::F32);
    let y = g.add_simple(
        "cmb",
        Op::Combine { num_branches: 2 },
        &[b0, b1, sel],
        DType::F32,
    );
    g.mark_output(y);

    let x_val = Tensor::from_f32(&[2], vec![-1.0, 2.0]);
    let run = |s: i64, all: bool| {
        let cfg = ExecConfig {
            execute_all_branches: all,
            ..Default::default()
        };
        let inputs = [x_val.clone(), Tensor::from_i64(&[1], vec![s])];
        let want = execute(&g, &inputs, &cfg).expect("reference run");
        let got = run_tape(&g, &inputs, None, &cfg);
        assert_eq!(
            got.outputs[0].payload_le_bytes(),
            want.outputs[0].payload_le_bytes()
        );
        got
    };

    let r0 = run(0, false);
    assert_eq!(r0.outputs[0].as_f32().expect("f32"), &[0.0, 2.0]);
    let r1 = run(1, false);
    assert_eq!(r1.outputs[0].as_f32().expect("f32"), &[1.0, -2.0]);
    // Dead branch skipped: only one branch kernel ran.
    assert_eq!(r0.trace.kernel_count(), 1);
    assert_eq!(r0.branches_executed, 1);

    // Execute-all mode: both branches run, same final answer.
    let ra = run(0, true);
    assert_eq!(ra.outputs[0].as_f32().expect("f32"), &[0.0, 2.0]);
    assert_eq!(ra.trace.kernel_count(), 2);
    assert_eq!(ra.branches_executed, 2);
}

#[test]
fn fusion_reduces_materialized_memory_not_results() {
    let g = relu_chain(6);
    let input = [Tensor::from_f32(&[1024], vec![0.5; 1024])];
    let plain = run_tape(&g, &input, None, &ExecConfig::default());

    let rdp = analyze(&g);
    let plan = fuse(&g, &rdp, FusionPolicy::Rdp);
    let fused = run_tape(&g, &input, Some(&plan), &ExecConfig::default());
    assert!(plain.outputs[0].approx_eq(&fused.outputs[0], 0.0));
    assert!(fused.peak_live_bytes < plain.peak_live_bytes);
    assert!(fused.trace.kernel_count() < plain.trace.kernel_count());
    assert!(fused.alloc_sizes.len() < plain.alloc_sizes.len());
}

#[test]
fn version_table_changes_cost_not_output() {
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![DimExpr::sym("M"), 64.into()]);
    let w = g.add_const(
        "w",
        &[64, 32],
        ConstData::F32((0..64 * 32).map(|i| (i % 13) as f32 * 0.01).collect()),
    );
    let y = g.add_simple("mm", Op::MatMul, &[x, w], DType::F32);
    g.mark_output(y);

    let input = [Tensor::from_f32(
        &[128, 64],
        (0..128 * 64).map(|i| (i % 7) as f32).collect(),
    )];
    let plain = run_tape(&g, &input, None, &ExecConfig::default());
    let profile = DeviceProfile::s888_cpu();
    let table = VersionTable::tune(&profile, 42);
    let cfg = ExecConfig {
        version_table: Some(&table),
        ..Default::default()
    };
    let tuned = run_tape(&g, &input, None, &cfg);
    let reference = execute(&g, &input, &cfg).expect("reference run");
    assert_eq!(
        tuned.outputs[0].payload_le_bytes(),
        reference.outputs[0].payload_le_bytes()
    );
    assert!(plain.outputs[0].approx_eq(&tuned.outputs[0], 1e-3));
    // Tuned latency is lower on the same device profile.
    let t_plain = plain.trace.price(&profile).total();
    let t_tuned = tuned.trace.price(&profile).total();
    assert!(t_tuned < t_plain, "tuned {t_tuned} vs plain {t_plain}");
}

#[test]
fn concrete_shapes_recorded_and_match_rdp() {
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![DimExpr::sym("N"), 8.into()]);
    let s = g.add_simple("shape", Op::Shape, &[x], DType::I64);
    let c = g.add_simple("cos", Op::ConstantOfShape { value: 1.0 }, &[s], DType::F32);
    let y = g.add_simple("mul", Op::Binary(BinaryOp::Mul), &[x, c], DType::F32);
    g.mark_output(y);
    let rdp = analyze(&g);

    let run = execute(
        &g,
        &[Tensor::from_f32(&[5, 8], vec![2.0; 40])],
        &ExecConfig::default(),
    )
    .expect("run");
    // RDP's symbolic prediction evaluated at N=5 matches observed shapes.
    let mut b = sod2_sym::Bindings::new();
    b.insert("N".into(), 5);
    for t in [s, c, y] {
        let predicted = rdp.shape(t).eval(&b).expect("fully symbolic");
        let observed: Vec<i64> = run.concrete_shapes[&t].iter().map(|&d| d as i64).collect();
        assert_eq!(predicted, observed, "tensor {t}");
    }
}

#[test]
fn dead_outputs_error() {
    // A graph output inside a dead branch must error, not silently vanish.
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![1.into()]);
    let sel = g.add_input("sel", DType::I64, vec![1.into()]);
    let br = g.add_node("sw", Op::Switch { num_branches: 2 }, &[x, sel], DType::F32);
    let b0 = g.add_simple("b0", Op::Unary(UnaryOp::Relu), &[br[0]], DType::F32);
    g.mark_output(b0);
    let err = execute(
        &g,
        &[
            Tensor::from_f32(&[1], vec![1.0]),
            Tensor::from_i64(&[1], vec![1]),
        ],
        &ExecConfig::default(),
    );
    assert!(err.is_err());
}

#[test]
fn peak_accounting_frees_dead_tensors() {
    let g = relu_chain(8);
    let input = Tensor::from_f32(&[256], vec![1.0; 256]);
    let run = execute(&g, &[input], &ExecConfig::default()).expect("run");
    // At most two intermediates live at once in a chain (producer+consumer).
    assert!(run.peak_live_bytes <= 2 * 256 * 4);
    let _ = TensorId(0);
}

#[test]
fn fused_interpreter_matches_nodewise_execution() {
    use sod2_runtime::TraceEvent;
    // relu → mul-by-scalar → add-residual → sigmoid chains appear all over
    // the zoo; check the single-pass interpreter agrees with node-wise
    // execution and actually engages.
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![DimExpr::sym("N"), 8.into()]);
    let scale = g.add_const("s", &[1], ConstData::F32(vec![0.5]));
    let r = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
    let m = g.add_simple("mul", Op::Binary(BinaryOp::Mul), &[r, scale], DType::F32);
    let a = g.add_simple("add", Op::Binary(BinaryOp::Add), &[m, x], DType::F32);
    let y = g.add_simple("sig", Op::Unary(UnaryOp::Sigmoid), &[a], DType::F32);
    g.mark_output(y);

    let rdp = analyze(&g);
    let plan = fuse(&g, &rdp, FusionPolicy::Rdp);
    assert_eq!(plan.layer_count(), 1, "the whole graph should fuse");
    let input = [Tensor::from_f32(
        &[3, 8],
        (0..24).map(|i| i as f32 - 12.0).collect(),
    )];

    let nodewise = execute(&g, &input, &ExecConfig::default()).expect("nodewise");
    let fused = run_tape(&g, &input, Some(&plan), &ExecConfig::default());
    assert_eq!(
        nodewise.outputs[0].payload_le_bytes(),
        fused.outputs[0].payload_le_bytes()
    );
    // The fused path emits a single fused kernel event.
    let fused_events: Vec<_> = fused
        .trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Kernel {
                name, fused_ops, ..
            } if name.starts_with("fused[") => Some(*fused_ops),
            _ => None,
        })
        .collect();
    assert_eq!(fused_events, vec![4]);
    // Only the chain's final output materializes.
    assert_eq!(fused.alloc_sizes.len(), 1);
}

#[test]
fn fused_interpreter_agrees_on_zoo_models() {
    use sod2_fusion::{fuse as fuse_plan, FusionPolicy as FP};
    for model in sod2_models::all_models(sod2_models::ModelScale::Tiny) {
        let rdp = analyze(&model.graph);
        let plan = fuse_plan(&model.graph, &rdp, FP::Rdp);
        let mut rng = sod2_prng::SeedableRng::seed_from_u64(77);
        let (_, inputs) = model.sample_inputs(&mut rng);
        let a = execute(&model.graph, &inputs, &ExecConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        let b = run_tape(&model.graph, &inputs, Some(&plan), &ExecConfig::default());
        for (x, y) in a.outputs.iter().zip(&b.outputs) {
            assert!(
                x.payload_le_bytes() == y.payload_le_bytes(),
                "{} fused-interp differs",
                model.name
            );
        }
    }
}

#[test]
fn three_way_switch_routes_correctly() {
    // Multi-branch routing (RaNet-style): selector picks among relu / neg /
    // tanh; only the chosen branch executes natively.
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![3.into()]);
    let sel = g.add_input("sel", DType::I64, vec![1.into()]);
    let br = g.add_node("sw", Op::Switch { num_branches: 3 }, &[x, sel], DType::F32);
    let b0 = g.add_simple("b0", Op::Unary(UnaryOp::Relu), &[br[0]], DType::F32);
    let b1 = g.add_simple("b1", Op::Unary(UnaryOp::Neg), &[br[1]], DType::F32);
    let b2 = g.add_simple("b2", Op::Unary(UnaryOp::Tanh), &[br[2]], DType::F32);
    let y = g.add_simple(
        "cmb",
        Op::Combine { num_branches: 3 },
        &[b0, b1, b2, sel],
        DType::F32,
    );
    g.mark_output(y);

    let x_val = Tensor::from_f32(&[3], vec![-1.0, 0.0, 2.0]);
    let expect: [&dyn Fn(f32) -> f32; 3] = [&|v| v.max(0.0), &|v| -v, &|v| v.tanh()];
    for s in 0..3i64 {
        let inputs = [x_val.clone(), Tensor::from_i64(&[1], vec![s])];
        let reference = execute(&g, &inputs, &ExecConfig::default()).expect("runs");
        let out = run_tape(&g, &inputs, None, &ExecConfig::default());
        assert_eq!(
            out.outputs[0].payload_le_bytes(),
            reference.outputs[0].payload_le_bytes()
        );
        let got = out.outputs[0].as_f32().expect("f32");
        for (g_v, &x_v) in got.iter().zip(&[-1.0f32, 0.0, 2.0]) {
            assert!((g_v - expect[s as usize](x_v)).abs() < 1e-6, "sel={s}");
        }
        assert_eq!(out.trace.kernel_count(), 1, "exactly one branch ran");
        assert_eq!(out.branches_executed, 1);
    }
}

#[test]
fn arena_backing_shrinks_alloc_stream_and_matches_heap() {
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![4.into()]);
    let a = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
    let b = g.add_simple("exp", Op::Unary(UnaryOp::Exp), &[a], DType::F32);
    let c = g.add_simple("neg", Op::Unary(UnaryOp::Neg), &[b], DType::F32);
    g.mark_output(c);
    let inputs = [Tensor::from_f32(&[4], vec![-2.0, -0.5, 0.5, 3.0])];

    let heap = run_tape(&g, &inputs, None, &ExecConfig::default());
    assert_eq!(heap.alloc_sizes.len(), 3);
    assert_eq!(heap.arena_backed, 0);

    // Every intermediate gets a private 16-byte slot.
    let slots = [(a, 0, 16), (b, 16, 16), (c, 32, 16)];
    let run = run_tape_on_arena(&g, &inputs, &slots, 48).expect("arena run");
    assert!(run.alloc_sizes.is_empty(), "all intermediates planned");
    assert_eq!(run.arena_backed, 3);
    assert_eq!(
        run.outputs[0].payload_le_bytes(),
        heap.outputs[0].payload_le_bytes(),
        "arena-served output must match the heap run bitwise"
    );
}

#[test]
fn arena_size_mismatch_falls_back_to_heap() {
    let g = relu_chain(1);
    let t_out = *g.outputs().first().expect("one output");
    // The plan believed the tensor was 8 bytes; at runtime it is 16.
    let run = run_tape_on_arena(
        &g,
        &[Tensor::from_f32(&[4], vec![1.0, 2.0, 3.0, 4.0])],
        &[(t_out, 0, 8)],
        8,
    )
    .expect("run");
    assert_eq!(run.arena_backed, 0);
    assert_eq!(
        run.alloc_sizes,
        vec![16],
        "mismatched tensor heap-allocated"
    );
    assert_eq!(run.outputs[0].as_f32().expect("f32"), &[1.0, 2.0, 3.0, 4.0]);
}

#[test]
fn arena_aliasing_of_live_tensors_is_detected() {
    // a and b are simultaneously live (both feed the add); an unsound
    // plan placing them at the same offset must be caught by readback
    // verification, not silently corrupt the result.
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![4.into()]);
    let a = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
    let b = g.add_simple("exp", Op::Unary(UnaryOp::Exp), &[x], DType::F32);
    let c = g.add_simple("add", Op::Binary(BinaryOp::Add), &[a, b], DType::F32);
    g.mark_output(c);

    let err = run_tape_on_arena(
        &g,
        &[Tensor::from_f32(&[4], vec![1.0, 2.0, 3.0, 4.0])],
        &[(a, 0, 16), (b, 0, 16)],
        16,
    )
    .expect_err("aliasing plan must fail");
    assert!(
        matches!(err, ExecError::Memory(_)),
        "expected Memory error, got: {err}"
    );
}

#[test]
fn wave_plan_off_the_execution_order_is_a_typed_lowering_error() {
    // The engine returns this error from every inference instead of
    // switching to another executor, so it must be typed, not a panic.
    let g = relu_chain(3);
    let order = g.topo_order();
    let swapped = WaveExecPlan {
        waves: vec![vec![vec![order[1]], vec![order[0]]], vec![vec![order[2]]]],
    };
    let err = compile_tape(&g, &order, None, None, Some(&swapped), None)
        .expect_err("a wave plan must flatten to the execution order");
    assert!(matches!(err, ExecError::Internal(_)), "got: {err}");
}

#[test]
fn control_flow_passthrough_shares_payloads() {
    // Switch and Combine route tensors without computing: with Arc-shared
    // payloads the routed output is the same allocation as the input, not
    // a deep copy.
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![3.into()]);
    let sel = g.add_input("sel", DType::I64, vec![1.into()]);
    let br = g.add_node("sw", Op::Switch { num_branches: 2 }, &[x, sel], DType::F32);
    let y = g.add_simple(
        "cmb",
        Op::Combine { num_branches: 2 },
        &[br[0], br[1], sel],
        DType::F32,
    );
    g.mark_output(y);

    let x_val = Tensor::from_f32(&[3], vec![1.0, 2.0, 3.0]);
    let out = execute(
        &g,
        &[x_val.clone(), Tensor::from_i64(&[1], vec![0])],
        &ExecConfig::default(),
    )
    .expect("run");
    assert!(
        out.outputs[0].shares_payload(&x_val),
        "pass-through output must share the input's payload"
    );
}
