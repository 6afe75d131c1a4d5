//! Randomized whole-pipeline properties: for arbitrary generated graphs,
//! RDP's symbolic predictions must match observed execution, fusion must
//! preserve semantics (on the tape, through its fused chains), and
//! planners must stay sound.

use proptest::prelude::*;
use sod2_frameworks::bindings_from_inputs;
use sod2_fusion::{fuse, FusionPolicy};
use sod2_ir::{BinaryOp, ConstData, DType, Graph, Op, TensorId, UnaryOp};
use sod2_plan::{naive_unit_order, UnitGraph};
use sod2_rdp::analyze;
use sod2_runtime::{compile_tape, execute, execute_tape, price_tape, ExecConfig};
use sod2_tensor::Tensor;

/// A recipe for one generated node.
#[derive(Debug, Clone)]
enum NodeKind {
    Unary(u8),
    BinaryPrev(u8), // combine two existing tensors
    AddConstRow,    // broadcast a [C]-const against the running tensor
    Softmax,
    ReduceMeanAxis0,
    Transpose2d,
    ShapeReshapeFlip, // Shape → Gather-swap → Reshape (ISVDOS round trip)
}

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

/// Builds a random graph over a `[N, C]` symbolic input from a recipe.
/// Every generated tensor stays rank-2, which keeps all ops applicable.
fn build_graph(recipe: &[NodeKind], c: usize) -> Graph {
    let mut g = Graph::new();
    let x = g.add_input(
        "x",
        DType::F32,
        vec![sod2_sym::DimExpr::sym("N"), (c as i64).into()],
    );
    let mut frontier: Vec<TensorId> = vec![x];
    let mut square = false; // becomes true after a transpose-to-[C,N]? No — keep [N, C].
    let _ = &mut square;
    for (i, k) in recipe.iter().enumerate() {
        let last = *frontier.last().expect("nonempty");
        let t = match k {
            NodeKind::Unary(u) => g.add_simple(
                format!("u{i}"),
                Op::Unary(unary_of(*u)),
                &[last],
                DType::F32,
            ),
            NodeKind::BinaryPrev(b) => {
                // Pick an earlier same-shape tensor: only those produced by
                // shape-preserving steps; frontier tracks exactly those.
                let other = frontier[i % frontier.len()];
                g.add_simple(
                    format!("b{i}"),
                    Op::Binary(binary_of(*b)),
                    &[last, other],
                    DType::F32,
                )
            }
            NodeKind::AddConstRow => {
                let row = g.add_const(
                    format!("row{i}"),
                    &[c as i64],
                    ConstData::F32((0..c).map(|j| (j as f32 - 1.5) * 0.25).collect()),
                );
                g.add_simple(
                    format!("bc{i}"),
                    Op::Binary(BinaryOp::Add),
                    &[last, row],
                    DType::F32,
                )
            }
            NodeKind::Softmax => g.add_simple(
                format!("sm{i}"),
                Op::Softmax { axis: -1 },
                &[last],
                DType::F32,
            ),
            NodeKind::ReduceMeanAxis0 => {
                // Keep rank 2 with keep_dims, then broadcast-add back.
                let m = g.add_simple(
                    format!("rm{i}"),
                    Op::Reduce {
                        op: sod2_ir::ReduceOp::Mean,
                        axes: vec![0],
                        keep_dims: true,
                    },
                    &[last],
                    DType::F32,
                );
                g.add_simple(
                    format!("rmadd{i}"),
                    Op::Binary(BinaryOp::Sub),
                    &[last, m],
                    DType::F32,
                )
            }
            NodeKind::Transpose2d => {
                // Transpose and back: exercises perm inference, preserves shape.
                let t1 = g.add_simple(
                    format!("t{i}a"),
                    Op::Transpose { perm: vec![1, 0] },
                    &[last],
                    DType::F32,
                );
                g.add_simple(
                    format!("t{i}b"),
                    Op::Transpose { perm: vec![1, 0] },
                    &[t1],
                    DType::F32,
                )
            }
            NodeKind::ShapeReshapeFlip => {
                // tgt = reversed shape, reshape, transpose back to [N, C]:
                // a genuine ISVDOS round trip RDP must resolve.
                let s = g.add_simple(format!("sh{i}"), Op::Shape, &[last], DType::I64);
                let idx = g.add_i64_const(format!("swap{i}"), &[1, 0]);
                let rev = g.add_simple(
                    format!("rev{i}"),
                    Op::Gather { axis: 0 },
                    &[s, idx],
                    DType::I64,
                );
                let r = g.add_simple(format!("rs{i}"), Op::Reshape, &[last, rev], DType::F32);
                g.add_simple(
                    format!("tb{i}"),
                    Op::Transpose { perm: vec![1, 0] },
                    &[r],
                    DType::F32,
                )
            }
        };
        frontier.push(t);
    }
    g.mark_output(*frontier.last().expect("nonempty"));
    g
}

fn recipe_strategy() -> impl Strategy<Value = Vec<NodeKind>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u8>().prop_map(NodeKind::Unary),
            any::<u8>().prop_map(NodeKind::BinaryPrev),
            Just(NodeKind::AddConstRow),
            Just(NodeKind::Softmax),
            Just(NodeKind::ReduceMeanAxis0),
            Just(NodeKind::Transpose2d),
            Just(NodeKind::ShapeReshapeFlip),
        ],
        1..12,
    )
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// RDP's symbolic shapes evaluated at the actual binding match every
    /// observed tensor shape, for random graphs at random input sizes.
    #[test]
    fn rdp_sound_on_random_graphs(recipe in recipe_strategy(),
                                  n in 1usize..6, c in 2usize..5, seed in 0u64..1000) {
        let g = build_graph(&recipe, c);
        sod2_ir::validate(&g).expect("generated graph valid");
        let rdp = analyze(&g);
        let input = input_for(n, c, seed);
        let bindings = bindings_from_inputs(&g, std::slice::from_ref(&input)).expect("bind");
        let out = execute(&g, &[input], &ExecConfig::default()).expect("runs");
        for (t, observed) in &out.concrete_shapes {
            if let Some(predicted) = rdp.shape(*t).eval(&bindings) {
                let got: Vec<i64> = observed.iter().map(|&d| d as i64).collect();
                prop_assert_eq!(predicted, got, "tensor {}", t);
            }
        }
        // Everything in these graphs is statically resolvable.
        prop_assert!(rdp.resolution_rate() > 0.99);
    }

    /// Fusion on a serial heap tape (its groups, fused chains and
    /// naive unit order) never changes a result bit, and never increases
    /// live memory over the reference.
    #[test]
    fn fusion_semantics_preserved_on_random_graphs(
        recipe in recipe_strategy(), n in 1usize..6, c in 2usize..5, seed in 0u64..1000,
    ) {
        let g = build_graph(&recipe, c);
        let rdp = analyze(&g);
        let input = input_for(n, c, seed);
        let base = execute(&g, std::slice::from_ref(&input), &ExecConfig::default()).expect("base");
        for policy in [FusionPolicy::Static, FusionPolicy::Rdp] {
            let plan = fuse(&g, &rdp, policy);
            let units = UnitGraph::build(&g, &plan);
            let order = units.node_order(&naive_unit_order(&units));
            let tape = compile_tape(&g, &order, Some(&plan), None, None).expect("lowers");
            let got = execute_tape(
                &g,
                std::slice::from_ref(&input),
                &tape,
                &ExecConfig::default(),
            )
            .expect("fused run");
            prop_assert!(
                base.outputs[0].payload_le_bytes() == got.outputs[0].payload_le_bytes(),
                "{policy:?} changed the result"
            );
            let priced = price_tape(&g, &tape, &got.record, None, None);
            prop_assert!(priced.peak_live_bytes <= base.peak_live_bytes);
        }
    }

    /// The engine's results while the profiler is recording match the
    /// unprofiled ones on random graphs — observability must be purely
    /// read-only.
    #[test]
    fn profiled_engine_matches_unprofiled(
        recipe in recipe_strategy(), n in 1usize..6, seed in 0u64..1000,
    ) {
        let c = 3;
        let g = build_graph(&recipe, c);
        let run = || {
            let mut engine = sod2_frameworks::Sod2Engine::new(
                g.clone(),
                sod2_device::DeviceProfile::s888_cpu(),
                sod2_frameworks::Sod2Options::default(),
                &Default::default(),
            );
            let run = sod2_frameworks::Engine::infer(&mut engine, &[input_for(n, c, seed)])
                .expect("infer");
            let stats = sod2_frameworks::Engine::price(&engine, &run);
            (run, stats)
        };
        let _session = sod2_obs::session_guard();
        sod2_obs::set_enabled(true);
        sod2_obs::begin();
        let (on_run, on) = run();
        let _ = sod2_obs::take();
        sod2_obs::set_enabled(false);
        let (off_run, off) = run();

        prop_assert_eq!(
            on_run.outputs[0].payload_le_bytes(),
            off_run.outputs[0].payload_le_bytes(),
            "profiling changed the result"
        );
        prop_assert_eq!(on.alloc_events, off.alloc_events);
        prop_assert_eq!(on.arena_backed, off.arena_backed);
        prop_assert_eq!(on.peak_memory_bytes, off.peak_memory_bytes);
    }

    /// The full SoD² engine agrees bitwise with plain execution on random
    /// graphs at two different input sizes (no re-initialization in
    /// between).
    #[test]
    fn engine_matches_plain_execution(recipe in recipe_strategy(), seed in 0u64..1000) {
        let c = 3;
        let g = build_graph(&recipe, c);
        let mut engine = sod2_frameworks::Sod2Engine::new(
            g.clone(),
            sod2_device::DeviceProfile::s888_cpu(),
            sod2_frameworks::Sod2Options::default(),
            &Default::default(),
        );
        for n in [2usize, 5] {
            let input = input_for(n, c, seed);
            let plain = execute(&g, std::slice::from_ref(&input), &ExecConfig::default()).expect("plain");
            let stats = sod2_frameworks::Engine::infer(&mut engine, &[input]).expect("engine");
            prop_assert_eq!(
                stats.outputs[0].payload_le_bytes(),
                plain.outputs[0].payload_le_bytes()
            );
            prop_assert!(!stats.reinitialized);
        }
    }
}
