//! Engine-level fault-injection tests: every [`ExecError`] failure class
//! is induced deterministically via `sod2-faults` (or the deadline/budget
//! options), and after the failure the *same* engine must complete a clean
//! inference whose outputs are bitwise-identical to a fresh engine's —
//! i.e. no failure mode wedges or corrupts the engine.
//!
//! Fault state is process-global, so every test holds
//! [`sod2_faults::exclusive`] for its whole body.

use sod2::{DeviceProfile, Engine, ExecError, Sod2Engine, Sod2Options, Tensor};
use sod2_faults::{FaultPlan, Site, Trigger};
use sod2_ir::{DType, Graph, Op, UnaryOp};
use sod2_models::{model_by_name, DynModel, ModelScale};
use sod2_prng::rngs::StdRng;
use sod2_prng::SeedableRng;
use sod2_sym::DimExpr;

fn zoo_model() -> DynModel {
    model_by_name("codebert", ModelScale::Tiny).expect("codebert in zoo")
}

fn zoo_inputs(model: &DynModel) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(7);
    let (lo, hi) = model.size_range();
    model.make_inputs((lo + hi) / 2, &mut rng)
}

fn engine(model: &DynModel, opts: Sod2Options) -> Sod2Engine {
    Sod2Engine::new(
        model.graph.clone(),
        DeviceProfile::s888_cpu(),
        opts,
        &Default::default(),
    )
}

/// Asserts outputs of a clean inference on `engine` are bitwise-identical
/// to a fresh engine's on the same inputs — the engine-reuse guarantee.
fn assert_reusable(engine: &mut Sod2Engine, model: &DynModel, inputs: &[Tensor]) {
    let clean = engine.infer(inputs).expect("clean inference after fault");
    let mut fresh = self::engine(model, Sod2Options::default());
    let reference = fresh.infer(inputs).expect("fresh engine inference");
    assert_eq!(clean.outputs.len(), reference.outputs.len());
    for (a, b) in clean.outputs.iter().zip(&reference.outputs) {
        assert_eq!(
            a.payload_le_bytes(),
            b.payload_le_bytes(),
            "post-fault outputs must be bitwise-identical to a fresh engine"
        );
    }
}

/// Installs a single-rule plan, runs one inference, returns its result,
/// and clears the plan (asserting the rule actually fired).
fn infer_with_fault(
    engine: &mut Sod2Engine,
    inputs: &[Tensor],
    site: Site,
    trigger: Trigger,
    param: u64,
) -> Result<Vec<Tensor>, ExecError> {
    sod2_faults::install(FaultPlan::new(1).rule(site, trigger, param));
    let result = engine.infer(inputs).map(|s| s.outputs);
    let fired = sod2_faults::fired_count();
    sod2_faults::clear();
    assert!(fired > 0, "fault rule for {site:?} never fired");
    result
}

#[test]
fn kernel_error_then_engine_reusable() {
    let _x = sod2_faults::exclusive();
    let model = zoo_model();
    let inputs = zoo_inputs(&model);
    let mut e = engine(&model, Sod2Options::default());
    let err = infer_with_fault(&mut e, &inputs, Site::KernelError, Trigger::Nth(1), 0);
    assert!(matches!(err, Err(ExecError::Kernel(_))), "got {err:?}");
    assert_reusable(&mut e, &model, &inputs);
}

#[test]
fn pool_panic_becomes_typed_error_and_engine_reusable() {
    let _x = sod2_faults::exclusive();
    let model = zoo_model();
    let inputs = zoo_inputs(&model);
    let mut e = engine(&model, Sod2Options::default());
    let err = infer_with_fault(&mut e, &inputs, Site::PoolPanic, Trigger::Nth(1), 0);
    assert!(matches!(err, Err(ExecError::Panic(_))), "got {err:?}");
    assert_reusable(&mut e, &model, &inputs);
}

#[test]
fn panic_in_inference_n_does_not_fail_inference_n_plus_one() {
    // The engine-level counterpart of the pool's region-poisoning test:
    // inference N dies to an injected chunk panic, inference N+1 on the
    // same engine (same pool, possibly respawned workers) succeeds.
    let _x = sod2_faults::exclusive();
    let model = zoo_model();
    let inputs = zoo_inputs(&model);
    let mut e = engine(&model, Sod2Options::default());
    for _ in 0..3 {
        let err = infer_with_fault(&mut e, &inputs, Site::PoolPanic, Trigger::Nth(1), 0);
        assert!(matches!(err, Err(ExecError::Panic(_))));
        assert!(e.infer(&inputs).is_ok(), "next inference must succeed");
    }
}

#[test]
fn nan_guard_converts_poisoned_output_to_numeric_fault() {
    // A graph whose output IS the poisoned kernel's output, so the NaN
    // cannot be washed out downstream: the guard must fire.
    let _x = sod2_faults::exclusive();
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![DimExpr::sym("N"), 4.into()]);
    let y = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
    g.mark_output(y);
    let opts = Sod2Options {
        nan_guard: true,
        ..Sod2Options::default()
    };
    let mut e = Sod2Engine::new(
        g.clone(),
        DeviceProfile::s888_cpu(),
        opts,
        &Default::default(),
    );
    let inputs = vec![Tensor::from_f32(&[3, 4], vec![1.0; 12])];

    sod2_faults::install(FaultPlan::new(1).rule(Site::KernelNan, Trigger::Every(1), 0));
    let err = e.infer(&inputs);
    let fired = sod2_faults::fired_count();
    sod2_faults::clear();
    assert!(fired > 0, "kernel.nan never fired");
    assert!(
        matches!(err, Err(ExecError::NumericFault(_))),
        "got {err:?}"
    );

    // Guard off + fault cleared: same engine produces clean finite output.
    e.set_nan_guard(false);
    let clean = e.infer(&inputs).expect("reusable after numeric fault");
    let vals = clean.outputs[0].as_f32().expect("f32 output");
    assert!(vals.iter().all(|v| v.is_finite()));
}

#[test]
fn deadline_exceeded_then_engine_reusable() {
    let _x = sod2_faults::exclusive();
    sod2_faults::clear();
    let model = zoo_model();
    let inputs = zoo_inputs(&model);
    let opts = Sod2Options {
        deadline: Some(std::time::Duration::from_nanos(1)),
        ..Sod2Options::default()
    };
    let mut e = engine(&model, opts);
    let err = e.infer(&inputs);
    assert!(
        matches!(err, Err(ExecError::DeadlineExceeded)),
        "got {err:?}"
    );
    e.set_deadline(None);
    assert_reusable(&mut e, &model, &inputs);
}

#[test]
fn budget_exceeded_then_engine_reusable() {
    let _x = sod2_faults::exclusive();
    sod2_faults::clear();
    let model = zoo_model();
    let inputs = zoo_inputs(&model);
    let opts = Sod2Options {
        memory_budget: Some(1),
        ..Sod2Options::default()
    };
    let mut e = engine(&model, opts);
    let err = e.infer(&inputs);
    assert!(
        matches!(err, Err(ExecError::BudgetExceeded { budget: 1, .. })),
        "got {err:?}"
    );
    e.set_memory_budget(None);
    assert_reusable(&mut e, &model, &inputs);
}

#[test]
fn generous_deadline_and_budget_do_not_fail_inference() {
    let _x = sod2_faults::exclusive();
    sod2_faults::clear();
    let model = zoo_model();
    let inputs = zoo_inputs(&model);
    let opts = Sod2Options {
        deadline: Some(std::time::Duration::from_secs(3600)),
        memory_budget: Some(1 << 40),
        nan_guard: true,
        ..Sod2Options::default()
    };
    let mut e = engine(&model, opts);
    assert!(e.infer(&inputs).is_ok());
}

#[test]
fn corrupted_bindings_survive_with_identical_outputs() {
    let _x = sod2_faults::exclusive();
    let model = zoo_model();
    let inputs = zoo_inputs(&model);
    let mut e = engine(&model, Sod2Options::default());
    let out = infer_with_fault(&mut e, &inputs, Site::Bindings, Trigger::Nth(1), 0)
        .expect("corrupted bindings must degrade to an empty plan, not error");
    let mut fresh = engine(&model, Sod2Options::default());
    let reference = fresh.infer(&inputs).expect("fresh engine inference");
    for (a, b) in out.iter().zip(&reference.outputs) {
        assert_eq!(a.payload_le_bytes(), b.payload_le_bytes());
    }
    assert_reusable(&mut e, &model, &inputs);
}

#[test]
fn kernel_delay_is_survivable_without_deadline() {
    let _x = sod2_faults::exclusive();
    let model = zoo_model();
    let inputs = zoo_inputs(&model);
    let mut e = engine(&model, Sod2Options::default());
    let out = infer_with_fault(&mut e, &inputs, Site::KernelDelay, Trigger::Nth(1), 500);
    assert!(out.is_ok(), "a slow kernel alone is not a failure");
}
