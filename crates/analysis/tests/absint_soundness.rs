//! Abstract-interpretation soundness: every certificate must cover concrete
//! execution (`abstract ⊒ concrete`).
//!
//! Two layers:
//!
//! - the 10-model zoo (plus the branchy demo) is certified and executed,
//!   and every graph-output value, NaN occurrence, and `nac` element count
//!   is checked against the claimed facts;
//! - a property test builds ≥1k random elementwise/reduce/compare graphs,
//!   marks *every* node output as a graph output so intermediates are
//!   observable, and checks each produced value against its abstract fact —
//!   across thread counts (1 and 4), on the reference and on the tape.
//!
//! Inputs are always finite: that is the premise the taint lattice is
//! defined under (the runtime input fence enforces it when `nan_guard` is
//! on). Non-finite values still arise *inside* the graphs (log of a
//! negative, division by zero, exp overflow), which is exactly what the
//! taint facts must cover.

use proptest::prelude::*;
use sod2_analysis::{certify, Certificates};
use sod2_ir::{BinaryOp, CompareOp, ConstData, DType, Graph, Op, ReduceOp, TensorId, UnaryOp};
use sod2_models::{all_models, branchy_demo, ModelScale};
use sod2_pool::with_threads;
use sod2_prng::rngs::StdRng;
use sod2_prng::{Rng, SeedableRng};
use sod2_rdp::analyze;
use sod2_runtime::{compile_tape, execute, execute_tape, ExecConfig, ReferenceRun, RunOutcome};
use sod2_sym::{Bindings, DimExpr, ShapeValue};
use sod2_tensor::Tensor;

/// Asserts one concrete tensor lies inside its abstract facts.
fn check_tensor(graph: &Graph, certs: &Certificates, t: TensorId, tensor: &Tensor, ctx: &str) {
    let key = t.0 as usize;
    let name = &graph.tensor(t).name;
    let range = certs.ranges[key];
    let check_value = |v: f64, finite: bool| {
        if finite {
            assert!(
                range.contains(v),
                "{ctx}: finite value {v} of '{name}' outside claimed range {range:?}"
            );
            if let Some(c) = certs.constants[key] {
                assert!(
                    v == c,
                    "{ctx}: value {v} of '{name}' contradicts claimed constant {c}"
                );
            }
        } else {
            assert!(
                certs.may_nonfinite[key],
                "{ctx}: non-finite value {v} in '{name}' claimed taint-free"
            );
            assert!(
                !certs.finite[key],
                "{ctx}: non-finite value {v} in '{name}' certified finite"
            );
        }
    };
    match graph.tensor(t).dtype {
        DType::F32 => {
            for &x in tensor.as_f32().expect("f32 payload") {
                check_value(x as f64, x.is_finite());
            }
        }
        DType::I64 => {
            for &x in tensor.as_i64().expect("i64 payload") {
                check_value(x as f64, true);
            }
        }
        DType::Bool => {
            for &x in tensor.as_bool().expect("bool payload") {
                check_value(x as i64 as f64, true);
            }
        }
        DType::U8 => {}
    }
}

/// Minimal symbol binding from input annotations (mirrors the engine's
/// `bindings_from_inputs`, which lives a crate above this one).
fn bind_inputs(graph: &Graph, inputs: &[Tensor]) -> Bindings {
    let mut b = Bindings::new();
    for (&tid, tensor) in graph.inputs().iter().zip(inputs) {
        if let ShapeValue::Ranked(dims) = &graph.tensor(tid).shape {
            for (dv, &actual) in dims.iter().zip(tensor.shape()) {
                if let Some(DimExpr::Sym(name)) = dv.as_expr() {
                    b.insert(name.to_string(), actual as i64);
                }
            }
        }
    }
    b
}

/// Checks `nac` element bounds against the concretely observed shapes.
fn check_elem_bounds(
    graph: &Graph,
    certs: &Certificates,
    outcome: &ReferenceRun,
    bindings: &Bindings,
    ctx: &str,
) -> usize {
    let mut checked = 0;
    for (&t, shape) in &outcome.concrete_shapes {
        let Some(expr) = &certs.elem_bounds[t.0 as usize] else {
            continue;
        };
        let Some(bound) = expr.eval(bindings) else {
            continue;
        };
        let elems: usize = shape.iter().product();
        assert!(
            elems as i64 <= bound,
            "{ctx}: '{}' materialized {elems} elements, bound claimed {bound}",
            graph.tensor(t).name
        );
        checked += 1;
    }
    checked
}

// --------------------------------------------------------------- zoo layer

#[test]
fn zoo_certificates_cover_concrete_execution() {
    let mut nac_checks = 0;
    let mut models = all_models(ModelScale::Tiny);
    models.push(branchy_demo(ModelScale::Tiny));
    for m in &models {
        let rdp = analyze(&m.graph);
        let (certs, report) = certify(&m.graph, &rdp);
        assert!(
            !report.has_errors(),
            "{}: certify errors:\n{}",
            m.name,
            report.render_text(Some(&m.graph))
        );
        assert!(
            certs.stats.violations.is_empty(),
            "{}: fixpoint audit violations: {:?}",
            m.name,
            certs.stats.violations
        );
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..3 {
            let (_, inputs) = m.sample_inputs(&mut rng);
            let ctx = format!("{} round {round}", m.name);
            let outcome = execute(&m.graph, &inputs, &ExecConfig::default())
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            for (&t, tensor) in m.graph.outputs().iter().zip(&outcome.outputs) {
                check_tensor(&m.graph, &certs, t, tensor, &ctx);
            }
            let bindings = bind_inputs(&m.graph, &inputs);
            nac_checks += check_elem_bounds(&m.graph, &certs, &outcome, &bindings, &ctx);
        }
    }
    // The zoo must actually exercise the bound lattice (YOLO's NMS/Gather).
    assert!(nac_checks > 0, "no nac-bounded tensor was ever checked");
}

// ------------------------------------------------------------ random layer

/// Builds a random static-shaped graph out of the value-bearing op pool and
/// marks every node output as a graph output, so concrete intermediates are
/// all observable.
fn build_random_graph(rng: &mut StdRng) -> (Graph, Vec<Tensor>) {
    let n = rng.gen_range(2usize..=6);
    let mut g = Graph::new();
    let num_inputs = rng.gen_range(1usize..=2);
    let mut f32s: Vec<TensorId> = Vec::new();
    for i in 0..num_inputs {
        f32s.push(g.add_input(format!("x{i}"), DType::F32, vec![(n as i64).into()]));
    }
    let cvals: Vec<f32> = (0..n).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
    f32s.push(g.add_const("c0", &[n as i64], ConstData::F32(cvals)));

    let mut produced: Vec<TensorId> = Vec::new();
    let num_ops = rng.gen_range(3usize..=12);
    for i in 0..num_ops {
        let a = f32s[rng.gen_range(0..f32s.len())];
        let b = f32s[rng.gen_range(0..f32s.len())];
        let t = match rng.gen_range(0u32..10) {
            0..=3 => {
                const UOPS: [UnaryOp; 8] = [
                    UnaryOp::Relu,
                    UnaryOp::Sigmoid,
                    UnaryOp::Tanh,
                    UnaryOp::Exp,
                    UnaryOp::Log,
                    UnaryOp::Sqrt,
                    UnaryOp::Neg,
                    UnaryOp::Abs,
                ];
                let u = UOPS[rng.gen_range(0..UOPS.len())];
                g.add_simple(format!("u{i}"), Op::Unary(u), &[a], DType::F32)
            }
            4..=6 => {
                const BOPS: [BinaryOp; 6] = [
                    BinaryOp::Add,
                    BinaryOp::Sub,
                    BinaryOp::Mul,
                    BinaryOp::Div,
                    BinaryOp::Min,
                    BinaryOp::Max,
                ];
                let bop = BOPS[rng.gen_range(0..BOPS.len())];
                g.add_simple(format!("b{i}"), Op::Binary(bop), &[a, b], DType::F32)
            }
            7 => {
                let lo = rng.gen_range(-3.0f32..0.0);
                let hi = rng.gen_range(0.0f32..3.0);
                g.add_simple(
                    format!("clip{i}"),
                    Op::Clip { min: lo, max: hi },
                    &[a],
                    DType::F32,
                )
            }
            8 => {
                const ROPS: [ReduceOp; 4] =
                    [ReduceOp::Sum, ReduceOp::Mean, ReduceOp::Max, ReduceOp::Min];
                let rop = ROPS[rng.gen_range(0..ROPS.len())];
                g.add_simple(
                    format!("r{i}"),
                    Op::Reduce {
                        op: rop,
                        axes: vec![0],
                        keep_dims: true,
                    },
                    &[a],
                    DType::F32,
                )
            }
            _ => {
                let cop = if rng.gen_range(0..2) == 0 {
                    CompareOp::Greater
                } else {
                    CompareOp::Less
                };
                let c = g.add_simple(format!("cmp{i}"), Op::Compare(cop), &[a, b], DType::Bool);
                produced.push(c);
                g.add_simple(
                    format!("cast{i}"),
                    Op::Cast { to: DType::F32 },
                    &[c],
                    DType::F32,
                )
            }
        };
        produced.push(t);
        f32s.push(t);
    }
    for &t in &produced {
        g.mark_output(t);
    }
    let inputs: Vec<Tensor> = (0..num_inputs)
        .map(|_| {
            let data: Vec<f32> = (0..n)
                .map(|_| match rng.gen_range(0u32..8) {
                    0 => 0.0,
                    1 => rng.gen_range(-100.0f32..100.0),
                    _ => rng.gen_range(-4.0f32..4.0),
                })
                .collect();
            Tensor::from_f32(&[n], data)
        })
        .collect();
    (g, inputs)
}

/// Runs the graph on a serial tape in topological order.
fn run_on_tape(g: &Graph, inputs: &[Tensor]) -> RunOutcome {
    let tape = compile_tape(g, &g.topo_order(), None, None, None, None).expect("compile tape");
    execute_tape(g, inputs, &tape, &ExecConfig::default(), false).expect("tape run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1200))]

    /// `abstract ⊒ concrete` on random graphs, for every intermediate, at
    /// 1 and 4 threads, on the reference and on the tape.
    #[test]
    fn random_graph_facts_cover_execution(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, inputs) = build_random_graph(&mut rng);
        let rdp = analyze(&g);
        let (certs, _report) = certify(&g, &rdp);
        prop_assert!(
            certs.stats.violations.is_empty(),
            "audit violations: {:?}",
            certs.stats.violations
        );

        let heap = with_threads(1, || execute(&g, &inputs, &ExecConfig::default()))
            .expect("heap run");
        for (&t, tensor) in g.outputs().iter().zip(&heap.outputs) {
            check_tensor(&g, &certs, t, tensor, "heap t1");
        }

        let heap4 = with_threads(4, || execute(&g, &inputs, &ExecConfig::default()))
            .expect("heap run at 4 threads");
        for (&t, tensor) in g.outputs().iter().zip(&heap4.outputs) {
            check_tensor(&g, &certs, t, tensor, "heap t4");
        }

        let tape = run_on_tape(&g, &inputs);
        for ((&t, tensor), heap_tensor) in
            g.outputs().iter().zip(&tape.outputs).zip(&heap.outputs)
        {
            check_tensor(&g, &certs, t, tensor, "tape t1");
            prop_assert_eq!(
                tensor.payload_le_bytes(),
                heap_tensor.payload_le_bytes(),
                "tape output diverged from the reference for {}",
                &g.tensor(t).name
            );
        }
    }
}
