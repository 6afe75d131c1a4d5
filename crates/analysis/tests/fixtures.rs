//! Known-bad-graph fixtures: every diagnostic code the analyzer can emit
//! must actually fire on a graph (or plan) constructed to violate it.

use sod2_analysis::{
    check_monotonicity, compare_planners, lint_graph, report_inconsistencies, verify_fusion,
    verify_fusion_internals, verify_memory_plan, verify_node_order, verify_observed_shapes,
    verify_unit_order, verify_wavefront_schedule, Report,
};
use sod2_fusion::{fuse, FusionGroup, FusionPlan, FusionPolicy};
use sod2_ir::{BinaryOp, DType, Graph, NodeId, Op, TensorId, UnaryOp};
use sod2_mem::{MemoryPlan, TensorLife};
use sod2_plan::{UnitGraph, WavefrontSchedule};
use sod2_rdp::{analyze, RdpReport, RdpResult, RdpTrace};
use sod2_sym::{Bindings, DimValue, ShapeValue, SymValue};
use std::collections::{HashMap, HashSet};

fn report_of(diags: Vec<sod2_analysis::Diagnostic>) -> Report {
    let mut r = Report::new();
    r.extend(diags);
    r
}

fn chain_graph() -> (Graph, TensorId, TensorId, TensorId) {
    // x → relu → sigmoid → output
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![4.into()]);
    let a = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
    let b = g.add_simple("sig", Op::Unary(UnaryOp::Sigmoid), &[a], DType::F32);
    g.mark_output(b);
    (g, x, a, b)
}

// ---------------------------------------------------------------- IR lints

#[test]
fn fires_ir_structure_on_empty_graph_and_unproduced_operand() {
    let g = Graph::new();
    let r = report_of(lint_graph(&g));
    assert!(r.has_code("ir/structure"), "no-outputs must fire");

    // `ghost` exists but nothing produces it and it is neither a graph
    // input nor a constant (the builder can't express this; from_parts
    // does not reject it).
    let g = Graph::from_parts(
        vec![
            ("x".into(), DType::F32, ShapeValue::known(&[4]), None),
            ("ghost".into(), DType::F32, ShapeValue::known(&[4]), None),
            ("y".into(), DType::F32, ShapeValue::known(&[4]), None),
        ],
        vec![(
            "relu".into(),
            Op::Unary(UnaryOp::Relu),
            vec![TensorId(1)],
            vec![TensorId(2)],
        )],
        vec![TensorId(0)],
        vec![TensorId(2)],
    )
    .expect("from_parts does not track producedness of operands");
    let r = report_of(lint_graph(&g));
    assert!(r.has_code("ir/structure"), "unproduced operand must fire");
}

#[test]
fn fires_ir_cycle_on_mutually_dependent_nodes() {
    let g = Graph::from_parts(
        vec![
            ("x".into(), DType::F32, ShapeValue::known(&[4]), None),
            ("a".into(), DType::F32, ShapeValue::known(&[4]), None),
            ("b".into(), DType::F32, ShapeValue::known(&[4]), None),
        ],
        vec![
            (
                "n0".into(),
                Op::Unary(UnaryOp::Relu),
                vec![TensorId(2)],
                vec![TensorId(1)],
            ),
            (
                "n1".into(),
                Op::Unary(UnaryOp::Relu),
                vec![TensorId(1)],
                vec![TensorId(2)],
            ),
        ],
        vec![TensorId(0)],
        vec![TensorId(2)],
    )
    .expect("from_parts does not check acyclicity");
    let r = report_of(lint_graph(&g));
    assert!(r.has_code("ir/cycle"), "{}", r.render_text(None));
}

#[test]
fn fires_ir_dtype_mismatch_on_wrongly_typed_shape_output() {
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![4.into()]);
    // Shape must produce I64; declare F32.
    let s = g.add_simple("shape", Op::Shape, &[x], DType::F32);
    g.mark_output(s);
    let r = report_of(lint_graph(&g));
    assert!(r.has_code("ir/dtype-mismatch"), "{}", r.render_text(None));
}

#[test]
fn fires_ir_operand_dtype_on_float_reshape_spec() {
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![4.into()]);
    // Reshape's shape operand must be I64; feed it the F32 data tensor.
    let y = g.add_simple("reshape", Op::Reshape, &[x, x], DType::F32);
    g.mark_output(y);
    let r = report_of(lint_graph(&g));
    assert!(r.has_code("ir/operand-dtype"), "{}", r.render_text(None));
}

#[test]
fn fires_ir_dead_node_and_unused_output() {
    let (mut g, x, _, _) = chain_graph();
    // A node nothing depends on.
    g.add_simple("dead", Op::Unary(UnaryOp::Tanh), &[x], DType::F32);
    let r = report_of(lint_graph(&g));
    assert!(r.has_code("ir/dead-node"), "{}", r.render_text(None));

    // TopK is live through its values output; indices stay unconsumed.
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![8.into()]);
    let outs = g.add_node("topk", Op::TopK { axis: 0 }, &[x, x], DType::F32);
    g.mark_output(outs[0]);
    let r = report_of(lint_graph(&g));
    assert!(r.has_code("ir/unused-output"), "{}", r.render_text(None));
}

#[test]
fn fires_ir_switch_pairing_on_unmerged_branch_and_unguarded_combine() {
    // Switch whose second branch dead-ends in an unconsumed relu.
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![4.into()]);
    let sel = g.add_input("sel", DType::I64, vec![1.into()]);
    let outs = g.add_node("sw", Op::Switch { num_branches: 2 }, &[x, sel], DType::F32);
    g.mark_output(outs[0]);
    g.add_simple("lost", Op::Unary(UnaryOp::Relu), &[outs[1]], DType::F32);
    let r = report_of(lint_graph(&g));
    assert!(r.has_code("ir/switch-pairing"), "{}", r.render_text(None));

    // Combine fed by plain nodes — no Switch upstream.
    let mut g = Graph::new();
    let a = g.add_input("a", DType::F32, vec![4.into()]);
    let b = g.add_input("b", DType::F32, vec![4.into()]);
    let sel = g.add_input("sel", DType::I64, vec![1.into()]);
    let y = g.add_simple(
        "comb",
        Op::Combine { num_branches: 2 },
        &[a, b, sel],
        DType::F32,
    );
    g.mark_output(y);
    let r = report_of(lint_graph(&g));
    assert!(r.has_code("ir/switch-pairing"), "{}", r.render_text(None));
}

// ---------------------------------------------------------------- RDP

#[test]
fn fires_rdp_rank_and_dim_mismatch_and_unreached() {
    let (g, x, a, b) = chain_graph();
    let rdp = analyze(&g);
    let bindings = Bindings::new();

    // Execution observed rank 2 where RDP proved rank 1.
    let mut observed: HashMap<TensorId, Vec<usize>> = HashMap::new();
    observed.insert(a, vec![4, 1]);
    let r = report_of(verify_observed_shapes(&g, &rdp, &observed, &bindings));
    assert!(r.has_code("rdp/rank-mismatch"), "{}", r.render_text(None));

    // Execution observed 5 where RDP proved the constant 4.
    observed.clear();
    observed.insert(b, vec![5]);
    let r = report_of(verify_observed_shapes(&g, &rdp, &observed, &bindings));
    assert!(r.has_code("rdp/dim-mismatch"), "{}", r.render_text(None));

    // A lattice left at undef for an executed tensor.
    let fake = RdpResult {
        shapes: vec![ShapeValue::Undef; g.num_tensors()],
        values: vec![SymValue::Undef; g.num_tensors()],
        iterations: 1,
    };
    observed.clear();
    observed.insert(x, vec![4]);
    let r = report_of(verify_observed_shapes(&g, &fake, &observed, &bindings));
    assert!(r.has_code("rdp/unreached"), "{}", r.render_text(None));
}

#[test]
fn fires_rdp_non_monotone_on_lattice_ascent() {
    let (g, _, _, _) = chain_graph();
    let nt = g.num_tensors();
    let resolved = vec![ShapeValue::known(&[4]); nt];
    let mut regressed = resolved.clone();
    regressed[1] = ShapeValue::Undef; // resolved → undef: moved up
    let trace = RdpTrace {
        shape_sweeps: vec![resolved.clone(), regressed],
    };
    let r = report_of(check_monotonicity(&g, &trace));
    assert!(r.has_code("rdp/non-monotone"), "{}", r.render_text(None));

    // A rewritten (not refined) dimension expression is also an ascent.
    let mut rewritten = resolved.clone();
    rewritten[1] = ShapeValue::Ranked(vec![DimValue::known(7)]);
    let trace = RdpTrace {
        shape_sweeps: vec![resolved, rewritten],
    };
    let r = report_of(check_monotonicity(&g, &trace));
    assert!(r.has_code("rdp/non-monotone"), "{}", r.render_text(None));
}

#[test]
fn fires_rdp_inconsistency_from_solver_report() {
    let report = RdpReport {
        iterations: 2,
        inconsistencies: vec!["node x: rank disagreement 2 vs 3".into()],
    };
    let r = report_of(report_inconsistencies(&report));
    assert!(r.has_code("rdp/inconsistency"));
    assert!(!r.has_errors(), "inconsistencies are warnings");
}

// ---------------------------------------------------------------- memory

#[test]
fn fires_every_memory_plan_violation_code() {
    let lives = vec![
        TensorLife::new(0, 64, 0, vec![2]),
        TensorLife::new(1, 64, 1, vec![3]),
    ];
    // Key 1 missing, key 0 out of the declared arena.
    let plan = MemoryPlan {
        offsets: HashMap::from([(0, 16)]),
        peak: 32,
    };
    let r = report_of(verify_memory_plan(&lives, &plan, 1));
    assert!(r.has_code("mem/missing-offset"), "{}", r.render_text(None));
    assert!(r.has_code("mem/out-of-arena"), "{}", r.render_text(None));
    assert!(
        r.has_code("mem/below-lower-bound"),
        "{}",
        r.render_text(None)
    );

    // Two simultaneously live tensors at the same offset.
    let plan = MemoryPlan {
        offsets: HashMap::from([(0, 0), (1, 0)]),
        peak: 128,
    };
    let r = report_of(verify_memory_plan(&lives, &plan, 1));
    assert!(r.has_code("mem/overlap"), "{}", r.render_text(None));

    // Offset 16 breaks 64-byte alignment.
    let plan = MemoryPlan {
        offsets: HashMap::from([(0, 16), (1, 128)]),
        peak: 256,
    };
    let r = report_of(verify_memory_plan(&lives, &plan, 64));
    assert!(r.has_code("mem/misaligned"), "{}", r.render_text(None));
}

#[test]
fn planner_comparison_reports_fragmentation_info() {
    let lives = vec![
        TensorLife::new(0, 100, 0, vec![1]),
        TensorLife::new(1, 50, 1, vec![2]),
        TensorLife::new(2, 50, 2, vec![3]),
    ];
    let r = report_of(compare_planners(&lives));
    assert!(r.has_code("mem/fragmentation"));
    assert!(!r.has_errors(), "{}", r.render_text(None));
}

// ---------------------------------------------------------------- plans

fn two_unit_setup() -> (Graph, UnitGraph) {
    let (g, _, _, _) = chain_graph();
    let rdp = analyze(&g);
    let fusion = fuse(&g, &rdp, FusionPolicy::None);
    let ug = UnitGraph::build(&g, &fusion);
    (g, ug)
}

#[test]
fn fires_plan_order_codes_on_bad_unit_orders() {
    let (_, ug) = two_unit_setup();
    assert!(ug.units.len() >= 2);

    let r = report_of(verify_unit_order(&ug, &[]));
    assert!(r.has_code("plan/order-size"), "{}", r.render_text(None));

    let dup: Vec<usize> = vec![0; ug.units.len()];
    let r = report_of(verify_unit_order(&ug, &dup));
    assert!(
        r.has_code("plan/order-duplicate"),
        "{}",
        r.render_text(None)
    );

    let mut reversed: Vec<usize> = (0..ug.units.len()).collect();
    reversed.reverse();
    let r = report_of(verify_unit_order(&ug, &reversed));
    assert!(
        r.has_code("plan/order-dependency"),
        "{}",
        r.render_text(None)
    );
}

#[test]
fn fires_plan_order_codes_on_bad_node_orders() {
    let (g, _, _, _) = chain_graph();
    let ids: Vec<NodeId> = g.nodes().iter().map(|n| n.id).collect();
    let mut reversed = ids.clone();
    reversed.reverse();
    let r = report_of(verify_node_order(&g, &reversed));
    assert!(
        r.has_code("plan/order-dependency"),
        "{}",
        r.render_text(None)
    );

    let r = report_of(verify_node_order(&g, &vec![ids[0]; ids.len()]));
    assert!(
        r.has_code("plan/order-duplicate"),
        "{}",
        r.render_text(None)
    );
}

#[test]
fn fires_fusion_assignment_codes() {
    let (g, _, _, _) = chain_graph();
    let empty = FusionPlan::from_groups(vec![]);
    let r = report_of(verify_fusion(&g, &empty));
    assert!(
        r.has_code("fusion/unassigned-node"),
        "{}",
        r.render_text(None)
    );

    let n0 = g.nodes()[0].id;
    let n1 = g.nodes()[1].id;
    let dup = FusionPlan::from_groups(vec![
        FusionGroup {
            nodes: vec![n0, n1],
            num_versions: 1,
        },
        FusionGroup {
            nodes: vec![n0],
            num_versions: 1,
        },
    ]);
    let r = report_of(verify_fusion(&g, &dup));
    assert!(
        r.has_code("fusion/duplicate-node"),
        "{}",
        r.render_text(None)
    );
}

#[test]
fn fires_fusion_group_cycle_on_split_diamond() {
    // a → b → c with a and c forced into one group: group0 ⇄ group1.
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![4.into()]);
    let a = g.add_simple("a", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
    let b = g.add_simple("b", Op::Unary(UnaryOp::Sigmoid), &[a], DType::F32);
    let c = g.add_simple("c", Op::Binary(BinaryOp::Add), &[a, b], DType::F32);
    g.mark_output(c);
    let na = g.producer(a).unwrap();
    let nb = g.producer(b).unwrap();
    let nc = g.producer(c).unwrap();
    let plan = FusionPlan::from_groups(vec![
        FusionGroup {
            nodes: vec![na, nc],
            num_versions: 1,
        },
        FusionGroup {
            nodes: vec![nb],
            num_versions: 1,
        },
    ]);
    let r = report_of(verify_fusion(&g, &plan));
    assert!(r.has_code("fusion/group-cycle"), "{}", r.render_text(None));
}

#[test]
fn fires_fusion_internal_leak() {
    let (g, _, a, b) = chain_graph();
    let n0 = g.producer(a).unwrap();
    let n1 = g.producer(b).unwrap();
    // Claim the cross-group tensor a — and the graph output b — are fused
    // away.
    let plan = FusionPlan::from_groups(vec![
        FusionGroup {
            nodes: vec![n0],
            num_versions: 1,
        },
        FusionGroup {
            nodes: vec![n1],
            num_versions: 1,
        },
    ]);
    let internals: HashSet<TensorId> = [a, b].into_iter().collect();
    let r = report_of(verify_fusion_internals(&g, &plan, &internals));
    assert!(
        r.has_code("fusion/internal-leak"),
        "{}",
        r.render_text(None)
    );
    assert!(r.errors().count() >= 2, "both claims must be flagged");
}

// --------------------------------------------------- clean-graph baseline

#[test]
fn clean_pipeline_artifacts_verify() {
    let (g, _, _, _) = chain_graph();
    let r = report_of(lint_graph(&g));
    assert!(!r.has_errors(), "{}", r.render_text(Some(&g)));

    let rdp = analyze(&g);
    let fusion = fuse(&g, &rdp, FusionPolicy::Rdp);
    let r = report_of(verify_fusion(&g, &fusion));
    assert!(r.diagnostics.is_empty(), "{}", r.render_text(Some(&g)));
}

// ------------------------------------------------------ wavefront schedules

/// x fans out into two independent units that can share a wave.
fn fanout_setup() -> (Graph, UnitGraph, Vec<usize>) {
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![4.into()]);
    let a = g.add_simple("a", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
    let b = g.add_simple("b", Op::Unary(UnaryOp::Sigmoid), &[x], DType::F32);
    let c = g.add_simple("c", Op::Binary(BinaryOp::Add), &[a, b], DType::F32);
    g.mark_output(c);
    let rdp = analyze(&g);
    let fusion = fuse(&g, &rdp, FusionPolicy::None);
    let ug = UnitGraph::build(&g, &fusion);
    let order: Vec<usize> = (0..ug.units.len()).collect();
    (g, ug, order)
}

#[test]
fn fires_plan_wave_dependency_on_concurrent_producer_consumer() {
    let (g, ug, order) = fanout_setup();
    // Cram everything into one wave: the Add runs concurrently with its
    // own producers.
    let ws = WavefrontSchedule {
        waves: vec![order.clone()],
        serial_peak: usize::MAX / 2,
        parallel_peak: 0,
        max_width: order.len(),
        splits: 0,
    };
    let r = report_of(verify_wavefront_schedule(&g, &ug, &ws, &|_| 64, 0.5));
    assert!(
        r.has_code("plan/wave-dependency"),
        "{}",
        r.render_text(None)
    );
}

#[test]
fn fires_plan_wave_peak_on_understated_or_overbound_peak() {
    let (g, ug, order) = fanout_setup();
    let ws = sod2_plan::plan_wavefronts(
        &g,
        &ug,
        &order,
        &|_| 64,
        sod2_plan::WavefrontOptions::default(),
    );
    // Understate the declared parallel peak.
    let lied = WavefrontSchedule {
        parallel_peak: 0,
        ..ws.clone()
    };
    let r = report_of(verify_wavefront_schedule(&g, &ug, &lied, &|_| 64, 0.5));
    assert!(r.has_code("plan/wave-peak"), "{}", r.render_text(None));
    // Or shrink the claimed serial peak so the bound cannot hold.
    let overbound = WavefrontSchedule {
        serial_peak: 1,
        ..ws
    };
    let r = report_of(verify_wavefront_schedule(&g, &ug, &overbound, &|_| 64, 0.0));
    assert!(r.has_code("plan/wave-peak"), "{}", r.render_text(None));
}

#[test]
fn clean_wavefront_schedule_verifies() {
    let (g, ug, order) = fanout_setup();
    let opts = sod2_plan::WavefrontOptions::default();
    let ws = sod2_plan::plan_wavefronts(&g, &ug, &order, &|_| 64, opts);
    let r = report_of(verify_wavefront_schedule(&g, &ug, &ws, &|_| 64, opts.slack));
    assert!(!r.has_errors(), "{}", r.render_text(Some(&g)));
}

// ----------------------------------------------------------------- absint

fn certify_report(g: &Graph) -> Report {
    let rdp = analyze(g);
    let (_certs, report) = sod2_analysis::certify(g, &rdp);
    report
}

#[test]
fn fires_absint_contradictory_range_on_inverted_clip() {
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![4.into()]);
    let c = g.add_simple(
        "clip",
        Op::Clip {
            min: 1.0,
            max: -1.0,
        },
        &[x],
        DType::F32,
    );
    g.mark_output(c);
    let r = certify_report(&g);
    assert!(
        r.has_code("absint/contradictory-range"),
        "{}",
        r.render_text(Some(&g))
    );
}

#[test]
fn fires_absint_unreachable_arm_on_constant_selector() {
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![4.into()]);
    let sel = g.add_i64_const("sel", &[1]);
    let br = g.add_node("sw", Op::Switch { num_branches: 2 }, &[x, sel], DType::F32);
    let a = g.add_simple("a", Op::Unary(UnaryOp::Relu), &[br[0]], DType::F32);
    let b = g.add_simple("b", Op::Identity, &[br[1]], DType::F32);
    let m = g.add_simple(
        "m",
        Op::Combine { num_branches: 2 },
        &[a, b, sel],
        DType::F32,
    );
    g.mark_output(m);
    let r = certify_report(&g);
    assert!(
        r.has_code("absint/unreachable-arm"),
        "{}",
        r.render_text(Some(&g))
    );
}

#[test]
fn fires_absint_taint_reaches_output_on_log_of_unbounded_input() {
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![4.into()]);
    let l = g.add_simple("log", Op::Unary(UnaryOp::Log), &[x], DType::F32);
    g.mark_output(l);
    let r = certify_report(&g);
    assert!(
        r.has_code("absint/taint-reaches-output"),
        "{}",
        r.render_text(Some(&g))
    );
}

#[test]
fn fires_absint_non_monotone_transfer_via_fixpoint_audit() {
    // A transfer that flips a fact up and back down: the engine's audit
    // must flag the descent and `violations_to_diagnostics` must turn it
    // into the diagnostic `certify` would emit.
    struct Flapping {
        flips: usize,
    }
    impl sod2_rdp::System for Flapping {
        type State = Vec<usize>;
        fn initial(&mut self, graph: &Graph) -> Vec<usize> {
            vec![0; graph.num_tensors()]
        }
        fn relax(&mut self, graph: &Graph, nid: NodeId, state: &mut Vec<usize>) -> bool {
            let o = graph.node(nid).outputs[0].0 as usize;
            if self.flips >= 4 {
                return false;
            }
            self.flips += 1;
            state[o] = 1 - state[o];
            true
        }
        fn audit(&self, _g: &Graph, prev: &Vec<usize>, next: &Vec<usize>) -> Vec<String> {
            prev.iter()
                .zip(next)
                .enumerate()
                .filter(|(_, (p, n))| n < p)
                .map(|(i, (p, n))| format!("tensor {i} descended {p} -> {n}"))
                .collect()
        }
    }
    let (g, _, _, _) = chain_graph();
    let (_, stats) = sod2_rdp::fixpoint::solve(
        &g,
        &mut Flapping { flips: 0 },
        &sod2_rdp::FixpointOptions {
            strategy: sod2_rdp::Strategy::Sweeps,
            audit: true,
            ..sod2_rdp::FixpointOptions::default()
        },
    );
    let r = report_of(sod2_analysis::absint::violations_to_diagnostics(&stats));
    assert!(
        r.has_code("absint/non-monotone-transfer"),
        "{}",
        r.render_text(Some(&g))
    );
}

#[test]
fn fires_absint_prune_mismatch_on_semantically_different_graphs() {
    let (orig, _, _, _) = chain_graph();
    // A "pruned" graph that quietly negates the input instead: the
    // output-equivalence check must reject it.
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![4.into()]);
    let a = g.add_simple("neg", Op::Unary(UnaryOp::Neg), &[x], DType::F32);
    let b = g.add_simple("sig", Op::Unary(UnaryOp::Sigmoid), &[a], DType::F32);
    g.mark_output(b);
    let r = report_of(sod2_analysis::verify_arm_pruning(&orig, &g));
    assert!(
        r.has_code("absint/prune-mismatch"),
        "{}",
        r.render_text(Some(&g))
    );
}
