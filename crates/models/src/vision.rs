//! Vision models with control-flow dynamism: SkipNet, DGNet, ConvNet-AIG,
//! BlockDrop, and RaNet.
//!
//! All are structure-faithful synthetic reconstructions (see DESIGN.md):
//! gated residual networks whose per-block execute/skip decisions are
//! computed from the input via `<Switch, Combine>` (paper Fig. 1(d)), with
//! channel widths scaled down so paper-scale layer counts still execute on
//! a laptop.

use crate::blocks::{conv_bn_relu, dense, gated_residual_block, residual_block};
use crate::model::{DynModel, Dynamism, InputKind, ModelScale};
use sod2_ir::{CompareOp, ConstData, DType, Graph, Op, ReduceOp, TensorId, UnaryOp};
use sod2_sym::DimExpr;

const STEM_C: usize = 8;

fn classifier_head(
    g: &mut Graph,
    name: &str,
    x: TensorId,
    channels: usize,
    classes: usize,
) -> TensorId {
    let gap = g.add_simple(format!("{name}.gap"), Op::GlobalAvgPool, &[x], DType::F32);
    let flat = g.add_simple(
        format!("{name}.flat"),
        Op::Flatten { axis: 1 },
        &[gap],
        DType::F32,
    );
    let w = dense(g, &format!("{name}.fc"), &[channels as i64, classes as i64]);
    g.add_simple(
        format!("{name}.logits"),
        Op::Gemm {
            trans_a: false,
            trans_b: false,
        },
        &[flat, w],
        DType::F32,
    )
}

/// SkipNet \[63\]: a residual network that "decides, based on the input,
/// whether to include or exclude certain operators". S+C dynamism.
pub fn skipnet(scale: ModelScale) -> DynModel {
    let blocks = match scale {
        ModelScale::Tiny => 3,
        ModelScale::Full => 36,
    };
    let mut g = Graph::new();
    let s = DimExpr::sym("S");
    let x = g.add_input("image", DType::F32, vec![1.into(), 3.into(), s.clone(), s]);
    let mut t = conv_bn_relu(&mut g, "stem", x, 3, STEM_C, 3, 2);
    for i in 0..blocks {
        t = gated_residual_block(&mut g, &format!("block{i}"), t, STEM_C);
    }
    let logits = classifier_head(&mut g, "head", t, STEM_C, 10);
    g.mark_output(logits);
    DynModel {
        name: "SkipNet",
        dynamism: Dynamism::Both,
        graph: g,
        input_kind: InputKind::Image {
            channels: 3,
            min: 24,
            max: 64,
            multiple: 8,
        },
    }
}

/// ConvNet-AIG \[62\]: adaptive inference graphs — same gating family as
/// SkipNet with a shallower body. S+C dynamism.
pub fn convnet_aig(scale: ModelScale) -> DynModel {
    let blocks = match scale {
        ModelScale::Tiny => 3,
        ModelScale::Full => 18,
    };
    let mut g = Graph::new();
    let s = DimExpr::sym("S");
    let x = g.add_input("image", DType::F32, vec![1.into(), 3.into(), s.clone(), s]);
    let mut t = conv_bn_relu(&mut g, "stem", x, 3, STEM_C, 3, 2);
    for i in 0..blocks {
        t = gated_residual_block(&mut g, &format!("block{i}"), t, STEM_C);
    }
    let logits = classifier_head(&mut g, "head", t, STEM_C, 10);
    g.mark_output(logits);
    DynModel {
        name: "ConvNet-AIG",
        dynamism: Dynamism::Both,
        graph: g,
        input_kind: InputKind::Image {
            channels: 3,
            min: 24,
            max: 64,
            multiple: 8,
        },
    }
}

/// DGNet \[37\]: dynamic gating at fixed input resolution — control-flow
/// dynamism only (the paper only tests 224×224 inputs; we use the scaled
/// fixed side 32).
pub fn dgnet(scale: ModelScale) -> DynModel {
    let blocks = match scale {
        ModelScale::Tiny => 3,
        ModelScale::Full => 56,
    };
    let mut g = Graph::new();
    let x = g.add_input(
        "image",
        DType::F32,
        vec![1.into(), 3.into(), 32.into(), 32.into()],
    );
    let mut t = conv_bn_relu(&mut g, "stem", x, 3, STEM_C, 3, 2);
    for i in 0..blocks {
        t = gated_residual_block(&mut g, &format!("block{i}"), t, STEM_C);
    }
    let logits = classifier_head(&mut g, "head", t, STEM_C, 10);
    g.mark_output(logits);
    DynModel {
        name: "DGNet",
        dynamism: Dynamism::ControlFlow,
        graph: g,
        input_kind: InputKind::Image {
            channels: 3,
            min: 32,
            max: 32,
            multiple: 32,
        },
    }
}

/// BlockDrop \[65\]: a small policy network decides *upfront* which residual
/// blocks to execute; per-block decisions are sliced out of the policy
/// logits. S+C dynamism.
pub fn blockdrop(scale: ModelScale) -> DynModel {
    let blocks = match scale {
        ModelScale::Tiny => 3,
        ModelScale::Full => 33,
    };
    let mut g = Graph::new();
    let s = DimExpr::sym("S");
    let x = g.add_input("image", DType::F32, vec![1.into(), 3.into(), s.clone(), s]);
    // Policy network over the raw input.
    let p = conv_bn_relu(&mut g, "policy.conv", x, 3, STEM_C, 3, 2);
    let pg = g.add_simple("policy.gap", Op::GlobalAvgPool, &[p], DType::F32);
    let pf = g.add_simple("policy.flat", Op::Flatten { axis: 1 }, &[pg], DType::F32);
    let pw = dense(&mut g, "policy.fc", &[STEM_C as i64, blocks as i64]);
    let policy = g.add_simple(
        "policy.logits",
        Op::Gemm {
            trans_a: false,
            trans_b: false,
        },
        &[pf, pw],
        DType::F32,
    );
    let zero = g.add_const("policy.zero", &[1], ConstData::F32(vec![0.0]));

    let mut t = conv_bn_relu(&mut g, "stem", x, 3, STEM_C, 3, 2);
    for i in 0..blocks {
        // Per-block decision: policy[0, i] > 0 → execute (selector 0).
        let li = g.add_simple(
            format!("block{i}.pol"),
            Op::Slice {
                starts: vec![0, i as i64],
                ends: vec![1, i as i64 + 1],
            },
            &[policy],
            DType::F32,
        );
        let skip = g.add_simple(
            format!("block{i}.cmp"),
            Op::Compare(CompareOp::Less),
            &[li, zero],
            DType::Bool,
        );
        let sel = g.add_simple(
            format!("block{i}.sel"),
            Op::Cast { to: DType::I64 },
            &[skip],
            DType::I64,
        );
        let br = g.add_node(
            format!("block{i}.switch"),
            Op::Switch { num_branches: 2 },
            &[t, sel],
            DType::F32,
        );
        let body = residual_block(&mut g, &format!("block{i}.res"), br[0], STEM_C);
        let idn = g.add_simple(format!("block{i}.skip"), Op::Identity, &[br[1]], DType::F32);
        t = g.add_simple(
            format!("block{i}.combine"),
            Op::Combine { num_branches: 2 },
            &[body, idn, sel],
            DType::F32,
        );
    }
    let logits = classifier_head(&mut g, "head", t, STEM_C, 10);
    g.mark_output(logits);
    DynModel {
        name: "BlockDrop",
        dynamism: Dynamism::Both,
        graph: g,
        input_kind: InputKind::Image {
            channels: 3,
            min: 24,
            max: 64,
            multiple: 8,
        },
    }
}

/// RaNet \[68\]: resolution-adaptive early-exit network — a low-resolution
/// sub-network runs first; when its confidence is low, progressively
/// higher-resolution sub-networks refine the answer. S+C dynamism.
pub fn ranet(scale: ModelScale) -> DynModel {
    let (k1, k2, k3) = match scale {
        ModelScale::Tiny => (2, 2, 2),
        ModelScale::Full => (120, 120, 130),
    };
    let mut g = Graph::new();
    let s = DimExpr::sym("S");
    let x = g.add_input("image", DType::F32, vec![1.into(), 3.into(), s.clone(), s]);

    let subnet = |g: &mut Graph, name: &str, input: TensorId, blocks: usize| -> TensorId {
        let mut t = conv_bn_relu(g, &format!("{name}.stem"), input, 3, STEM_C, 3, 2);
        for i in 0..blocks {
            t = residual_block(g, &format!("{name}.b{i}"), t, STEM_C);
        }
        classifier_head(g, &format!("{name}.head"), t, STEM_C, 10)
    };

    // Sub-network 1 on a fixed low resolution.
    let lo = g.add_i64_const("size.lo", &[16, 16]);
    let x1 = g.add_simple("resize.lo", Op::Resize, &[x, lo], DType::F32);
    let logits1 = subnet(&mut g, "sub1", x1, k1);

    // Confidence gate 1: exit if max softmax > τ (selector 1 = exit).
    let gate = |g: &mut Graph, name: &str, logits: TensorId| -> TensorId {
        let sm = g.add_simple(
            format!("{name}.sm"),
            Op::Softmax { axis: -1 },
            &[logits],
            DType::F32,
        );
        let mx = g.add_simple(
            format!("{name}.max"),
            Op::Reduce {
                op: ReduceOp::Max,
                axes: vec![1],
                keep_dims: false,
            },
            &[sm],
            DType::F32,
        );
        let tau = g.add_const(format!("{name}.tau"), &[1], ConstData::F32(vec![0.5]));
        let conf = g.add_simple(
            format!("{name}.cmp"),
            Op::Compare(CompareOp::Greater),
            &[mx, tau],
            DType::Bool,
        );
        g.add_simple(
            format!("{name}.sel"),
            Op::Cast { to: DType::I64 },
            &[conf],
            DType::I64,
        )
    };
    let sel1 = gate(&mut g, "gate1", logits1);

    // Continue path: medium resolution (branch 0 live when sel == 0).
    let br1 = g.add_node(
        "switch1",
        Op::Switch { num_branches: 2 },
        &[x, sel1],
        DType::F32,
    );
    let mid = g.add_i64_const("size.mid", &[24, 24]);
    let x2 = g.add_simple("resize.mid", Op::Resize, &[br1[0], mid], DType::F32);
    let logits2 = subnet(&mut g, "sub2", x2, k2);

    let sel2 = gate(&mut g, "gate2", logits2);
    let br2 = g.add_node(
        "switch2",
        Op::Switch { num_branches: 2 },
        &[br1[0], sel2],
        DType::F32,
    );
    let logits3 = subnet(&mut g, "sub3", br2[0], k3);

    // Combine back-to-front: deepest refinement wins when it ran.
    let inner = g.add_simple(
        "combine2",
        Op::Combine { num_branches: 2 },
        &[logits3, logits2, sel2],
        DType::F32,
    );
    let out = g.add_simple(
        "combine1",
        Op::Combine { num_branches: 2 },
        &[inner, logits1, sel1],
        DType::F32,
    );
    g.mark_output(out);
    DynModel {
        name: "RaNet",
        dynamism: Dynamism::Both,
        graph: g,
        input_kind: InputKind::Image {
            channels: 3,
            min: 24,
            max: 64,
            multiple: 8,
        },
    }
}

/// Branchy demo (not part of the Table 5 zoo): a gated network whose
/// `Switch` selector is *provably constant* by range analysis but not by
/// constant folding.
///
/// The gate squashes the raw input through `Sigmoid` (range `[0, 1]`
/// regardless of input values), runs a deep conv stack over it, squashes
/// again, reduces to a scalar, and compares against `-1.0` — always true
/// for real inputs, and the interval analysis proves it (`max(sigmoid) ≥ 0
/// > -1`). Constant folding cannot: the comparison depends on a graph
/// input. With `absint` on, arm 0 and the entire (expensive) gate stack are
/// pruned at compile time; with it off, the gate executes on every
/// inference just to compute a selector that is always 1. The priced-cost
/// gap between the two configurations is the benchmark's demonstration
/// that certificates are consumed, and `bench_zoo` gates it.
///
/// Fixed 32×32 input (like DGNet) so spatial extents — and thus the pool
/// and reduce transfer functions — stay fully known to the analysis.
pub fn branchy_demo(scale: ModelScale) -> DynModel {
    let gate_blocks = match scale {
        ModelScale::Tiny => 4,
        ModelScale::Full => 32,
    };
    let mut g = Graph::new();
    let x = g.add_input(
        "image",
        DType::F32,
        vec![1.into(), 3.into(), 32.into(), 32.into()],
    );

    // Cheap main path: one stem block.
    let feat = conv_bn_relu(&mut g, "stem", x, 3, STEM_C, 3, 2);

    // Heavy gate path: Sigmoid bounds the input to [0, 1] so the interval
    // analysis carries finite ranges through the whole stack.
    let sq = g.add_simple("gate.squash", Op::Unary(UnaryOp::Sigmoid), &[x], DType::F32);
    let mut t = conv_bn_relu(&mut g, "gate.c0", sq, 3, STEM_C, 3, 1);
    for i in 1..gate_blocks {
        t = conv_bn_relu(&mut g, &format!("gate.c{i}"), t, STEM_C, STEM_C, 3, 1);
    }
    let gap = g.add_simple("gate.gap", Op::GlobalAvgPool, &[t], DType::F32);
    let sig = g.add_simple("gate.sig", Op::Unary(UnaryOp::Sigmoid), &[gap], DType::F32);
    let mx = g.add_simple(
        "gate.max",
        Op::Reduce {
            op: ReduceOp::Max,
            axes: vec![1, 2, 3],
            keep_dims: false,
        },
        &[sig],
        DType::F32,
    );
    // max(sigmoid(...)) ∈ [0, 1] is always greater than -1: provable by
    // interval analysis, opaque to constant folding.
    let tau = g.add_const("gate.tau", &[1], ConstData::F32(vec![-1.0]));
    let cmp = g.add_simple(
        "gate.cmp",
        Op::Compare(CompareOp::Greater),
        &[mx, tau],
        DType::Bool,
    );
    let sel = g.add_simple("gate.sel", Op::Cast { to: DType::I64 }, &[cmp], DType::I64);

    // Arm 0 (a residual block) is infeasible — the selector is provably 1.
    let br = g.add_node(
        "switch",
        Op::Switch { num_branches: 2 },
        &[feat, sel],
        DType::F32,
    );
    let heavy = residual_block(&mut g, "arm0.res", br[0], STEM_C);
    let skip = g.add_simple("arm1.skip", Op::Identity, &[br[1]], DType::F32);
    let merged = g.add_simple(
        "combine",
        Op::Combine { num_branches: 2 },
        &[heavy, skip, sel],
        DType::F32,
    );
    let logits = classifier_head(&mut g, "head", merged, STEM_C, 10);
    g.mark_output(logits);
    DynModel {
        name: "BranchyDemo",
        dynamism: Dynamism::ControlFlow,
        graph: g,
        input_kind: InputKind::Image {
            channels: 3,
            min: 32,
            max: 32,
            multiple: 32,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod2_prng::rngs::StdRng;
    use sod2_prng::SeedableRng;
    use sod2_runtime::{execute, ExecConfig};

    fn smoke(m: &DynModel) {
        sod2_ir::validate(&m.graph).expect("valid graph");
        let mut rng = StdRng::seed_from_u64(1);
        let (_, inputs) = m.sample_inputs(&mut rng);
        let out = execute(&m.graph, &inputs, &ExecConfig::default()).expect("runs");
        assert!(!out.outputs.is_empty());
    }

    #[test]
    fn skipnet_builds_and_runs() {
        smoke(&skipnet(ModelScale::Tiny));
    }

    #[test]
    fn convnet_aig_builds_and_runs() {
        smoke(&convnet_aig(ModelScale::Tiny));
    }

    #[test]
    fn dgnet_builds_and_runs() {
        smoke(&dgnet(ModelScale::Tiny));
    }

    #[test]
    fn blockdrop_builds_and_runs() {
        smoke(&blockdrop(ModelScale::Tiny));
    }

    #[test]
    fn ranet_builds_and_runs() {
        smoke(&ranet(ModelScale::Tiny));
    }

    #[test]
    fn branchy_demo_builds_and_always_takes_arm_one() {
        let m = branchy_demo(ModelScale::Tiny);
        sod2_ir::validate(&m.graph).expect("valid graph");
        let mut rng = StdRng::seed_from_u64(3);
        // The selector is 1 for every input, so the produced-tensor count
        // is fixed: the gate stack plus the skip arm, never the residual
        // block.
        let mut counts = std::collections::HashSet::new();
        for _ in 0..4 {
            let (_, inputs) = m.sample_inputs(&mut rng);
            let out = execute(&m.graph, &inputs, &ExecConfig::default()).expect("runs");
            counts.insert(out.concrete_shapes.len());
        }
        assert_eq!(counts.len(), 1, "gate must never vary: {counts:?}");
    }

    #[test]
    fn full_scale_layer_counts_match_paper_order() {
        assert!((500..=620).contains(&skipnet(ModelScale::Full).layer_count()));
        assert!((240..=330).contains(&convnet_aig(ModelScale::Full).layer_count()));
        assert!((780..=900).contains(&dgnet(ModelScale::Full).layer_count()));
        assert!((400..=500).contains(&blockdrop(ModelScale::Full).layer_count()));
        assert!((2500..=2750).contains(&ranet(ModelScale::Full).layer_count()));
    }

    #[test]
    fn gates_vary_with_input() {
        // Different inputs should exercise different branch patterns.
        let m = skipnet(ModelScale::Tiny);
        let mut rng = StdRng::seed_from_u64(2);
        let mut patterns = std::collections::HashSet::new();
        for _ in 0..8 {
            let (_, inputs) = m.sample_inputs(&mut rng);
            let out = execute(&m.graph, &inputs, &ExecConfig::default()).expect("runs");
            patterns.insert(out.concrete_shapes.len());
        }
        // Not all runs produce the same number of tensors.
        assert!(patterns.len() > 1, "gates never varied: {patterns:?}");
    }
}
