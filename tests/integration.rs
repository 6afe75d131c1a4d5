//! Cross-crate integration: compile and execute every zoo model through
//! every engine; check the paper's qualitative orderings hold end-to-end.

use sod2::{Compiler, DeviceProfile};
use sod2_frameworks::{Engine, MnnLike, OrtLike, Sod2Engine, Sod2Options, TvmNimbleLike};
use sod2_fusion::{fuse, FusionPlan, FusionPolicy};
use sod2_mem::verify_plan;
use sod2_models::{all_models, ModelScale};
use sod2_plan::{
    naive_unit_order, order_peak_bytes, partition_units, plan_order, SepOptions, UnitGraph,
};
use sod2_prng::rngs::StdRng;
use sod2_prng::SeedableRng;
use sod2_runtime::{
    compile_tape, execute, execute_tape, price_tape, ExecConfig, ExecError, RunOutcome, TapePrice,
};
use sod2_tensor::Tensor;

/// Runs `model` on a serial heap tape lowered with `fusion` (and its
/// fused chains) in `order`, and prices the run.
fn run_on_tape(
    graph: &sod2_ir::Graph,
    inputs: &[Tensor],
    fusion: &FusionPlan,
    order: &[sod2_ir::NodeId],
) -> Result<(RunOutcome, TapePrice), ExecError> {
    let tape = compile_tape(graph, order, Some(fusion), None, None, None)?;
    let run = execute_tape(graph, inputs, &tape, &ExecConfig::default(), false)?;
    let price = price_tape(graph, &tape, &run.record, None, None);
    Ok((run, price))
}

#[test]
fn every_model_compiles_and_runs_through_the_facade() {
    for model in all_models(ModelScale::Tiny) {
        let mut compiled = Compiler::new(DeviceProfile::s888_cpu()).compile(model.graph.clone());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2 {
            let (_, inputs) = model.sample_inputs(&mut rng);
            let run = compiled
                .run(&inputs)
                .unwrap_or_else(|e| panic!("{} failed: {e}", model.name));
            assert!(!run.outputs.is_empty(), "{}", model.name);
            assert!(compiled.price(&run).latency.total() > 0.0);
        }
    }
}

#[test]
fn fusion_preserves_results_on_every_model() {
    for model in all_models(ModelScale::Tiny) {
        let rdp = sod2_rdp::analyze(&model.graph);
        let plan = fuse(&model.graph, &rdp, FusionPolicy::Rdp);
        let mut rng = StdRng::seed_from_u64(7);
        let (_, inputs) = model.sample_inputs(&mut rng);
        let base = execute(&model.graph, &inputs, &ExecConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        let ug = UnitGraph::build(&model.graph, &plan);
        let order = ug.node_order(&naive_unit_order(&ug));
        let (fused, priced) = run_on_tape(&model.graph, &inputs, &plan, &order)
            .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        for (a, b) in base.outputs.iter().zip(&fused.outputs) {
            assert!(a.approx_eq(b, 1e-4), "{} fused output differs", model.name);
        }
        assert!(priced.peak_live_bytes <= base.peak_live_bytes);
    }
}

#[test]
fn sep_order_preserves_results_and_never_hurts_peak() {
    for model in all_models(ModelScale::Tiny) {
        let rdp = sod2_rdp::analyze(&model.graph);
        let fusion = fuse(&model.graph, &rdp, FusionPolicy::Rdp);
        let ug = UnitGraph::build(&model.graph, &fusion);
        let parts = partition_units(&model.graph, &rdp, &fusion, &ug);
        let size = |t: sod2_ir::TensorId| {
            model
                .graph
                .tensor(t)
                .shape
                .as_known()
                .map(|d| d.iter().product::<i64>().unsigned_abs() as usize * 4)
                .unwrap_or(4096)
        };
        let ep = plan_order(&model.graph, &ug, &parts, &size, SepOptions::default());
        let naive = naive_unit_order(&ug);
        assert!(
            order_peak_bytes(&model.graph, &ug, &ep.unit_order, &size)
                <= order_peak_bytes(&model.graph, &ug, &naive, &size),
            "{}",
            model.name
        );

        let mut rng = StdRng::seed_from_u64(9);
        let (_, inputs) = model.sample_inputs(&mut rng);
        let (a, _) = run_on_tape(&model.graph, &inputs, &fusion, &ug.node_order(&naive))
            .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        let (b, _) = run_on_tape(&model.graph, &inputs, &fusion, &ep.node_order)
            .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        for (x, y) in a.outputs.iter().zip(&b.outputs) {
            assert!(x.approx_eq(y, 1e-4), "{} SEP output differs", model.name);
        }
    }
}

#[test]
fn memory_plans_validate_on_real_lifetimes() {
    for model in all_models(ModelScale::Tiny) {
        let rdp = sod2_rdp::analyze(&model.graph);
        let fusion = fuse(&model.graph, &rdp, FusionPolicy::Rdp);
        let ug = UnitGraph::build(&model.graph, &fusion);
        let order = naive_unit_order(&ug);
        let mut rng = StdRng::seed_from_u64(13);
        let (_, inputs) = model.sample_inputs(&mut rng);
        let outcome = execute(
            &model.graph,
            &inputs,
            &ExecConfig {
                execute_all_branches: true,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        let size = |t: sod2_ir::TensorId| {
            outcome
                .concrete_shapes
                .get(&t)
                .map(|s| s.iter().product::<usize>() * 4)
                .unwrap_or(0)
        };
        let lives: Vec<_> = sod2_plan::unit_lifetimes(&model.graph, &ug, &order, &size)
            .into_iter()
            .filter(|l| l.size > 0)
            .collect();
        for plan in [
            sod2_mem::plan_peak_first(&lives),
            sod2_mem::plan_best_fit(&lives),
        ] {
            let violations = verify_plan(&lives, &plan);
            assert!(
                violations.is_empty(),
                "{}: invalid plan: {:?}",
                model.name,
                violations
            );
            assert!(plan.peak >= sod2_mem::peak_live_bytes(&lives));
        }
    }
}

#[test]
fn paper_orderings_hold_across_the_zoo() {
    // Aggregated over all models and several inputs: SoD2 memory <= MNN <=
    // {ORT, TVM-N}, and SoD2 latency is the lowest.
    let profile = DeviceProfile::s888_cpu();
    let mut total = [0f64; 4]; // latency: sod2, ort, mnn, tvmn
    let mut mem = [0f64; 4];
    for model in all_models(ModelScale::Tiny) {
        let mut engines: Vec<Box<dyn Engine>> = vec![
            Box::new(Sod2Engine::new(
                model.graph.clone(),
                profile.clone(),
                Sod2Options::default(),
                &Default::default(),
            )),
            Box::new(OrtLike::new(model.graph.clone(), profile.clone())),
            Box::new(MnnLike::new(model.graph.clone(), profile.clone())),
            Box::new(TvmNimbleLike::new(model.graph.clone(), profile.clone())),
        ];
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..3 {
            let (_, inputs) = model.sample_inputs(&mut rng);
            for (i, e) in engines.iter_mut().enumerate() {
                let run = e
                    .infer(&inputs)
                    .unwrap_or_else(|err| panic!("{} on {}: {err}", e.name(), model.name));
                let s = e.price(&run);
                total[i] += s.latency.total();
                mem[i] += s.peak_memory_bytes as f64;
            }
        }
    }
    // Latency: SoD2 fastest overall; TVM-N and ORT slowest.
    assert!(total[0] < total[1] && total[0] < total[2] && total[0] < total[3]);
    // Memory: SoD2 < MNN < ORT < TVM-N (the paper's 1 / 1.37 / 3.64 / 8.62).
    assert!(mem[0] < mem[2], "SoD2 {} !< MNN {}", mem[0], mem[2]);
    assert!(mem[2] < mem[1], "MNN {} !< ORT {}", mem[2], mem[1]);
    assert!(mem[1] < mem[3], "ORT {} !< TVM-N {}", mem[1], mem[3]);
}

#[test]
fn serialized_models_roundtrip_and_execute_identically() {
    for model in all_models(ModelScale::Tiny) {
        let bytes = sod2_ir::serialize::encode_graph(&model.graph);
        let decoded = sod2_ir::serialize::decode_graph(&bytes)
            .unwrap_or_else(|e| panic!("{}: decode failed: {e}", model.name));
        sod2_ir::validate(&decoded).expect("decoded graph valid");
        let mut rng = StdRng::seed_from_u64(21);
        let (_, inputs) = model.sample_inputs(&mut rng);
        let a = execute(&model.graph, &inputs, &ExecConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        let b = execute(&decoded, &inputs, &ExecConfig::default())
            .unwrap_or_else(|e| panic!("{}: decoded run failed: {e}", model.name));
        for (x, y) in a.outputs.iter().zip(&b.outputs) {
            assert!(
                x.approx_eq(y, 0.0),
                "{}: decoded outputs differ",
                model.name
            );
        }
        // RDP over the decoded graph reaches the same fixpoint.
        let ra = sod2_rdp::analyze(&model.graph);
        let rb = sod2_rdp::analyze(&decoded);
        assert_eq!(ra.shapes, rb.shapes, "{}", model.name);
    }
}
