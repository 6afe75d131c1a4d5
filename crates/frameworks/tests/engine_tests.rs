//! Cross-engine tests: the qualitative claims of the paper's evaluation
//! must hold on the zoo models — identical outputs, SoD² lowest memory and
//! latency under shape change, re-initialization only where the paper says
//! it happens.

use sod2_device::DeviceProfile;
use sod2_frameworks::{
    Engine, InferenceStats, MnnLike, OrtLike, Sod2Engine, Sod2Options, TfLiteLike, TvmNimbleLike,
};
use sod2_models::{all_models, codebert, skipnet, yolo_v6, DynModel, ModelScale};
use sod2_prng::rngs::StdRng;
use sod2_prng::SeedableRng;
use sod2_tensor::Tensor;

fn engines_for(model: &DynModel) -> Vec<Box<dyn Engine>> {
    let p = DeviceProfile::s888_cpu();
    vec![
        Box::new(Sod2Engine::new(
            model.graph.clone(),
            p.clone(),
            Sod2Options::default(),
            &Default::default(),
        )),
        Box::new(MnnLike::new(model.graph.clone(), p.clone())),
        Box::new(OrtLike::new(model.graph.clone(), p.clone())),
        Box::new(TvmNimbleLike::new(model.graph.clone(), p.clone())),
        Box::new(TfLiteLike::new(model.graph.clone(), p)),
    ]
}

/// One inference, priced by its engine.
fn priced<E: Engine + ?Sized>(e: &mut E, inputs: &[Tensor]) -> InferenceStats {
    let run = e
        .infer(inputs)
        .unwrap_or_else(|err| panic!("{} failed: {err}", e.name()));
    e.price(&run)
}

fn inputs_for(model: &DynModel, seed: u64, n: usize) -> Vec<Vec<Tensor>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| model.sample_inputs(&mut rng).1).collect()
}

#[test]
fn all_engines_agree_on_outputs() {
    for model in [
        codebert(ModelScale::Tiny),
        skipnet(ModelScale::Tiny),
        yolo_v6(ModelScale::Tiny),
    ] {
        let samples = inputs_for(&model, 11, 3);
        let mut engines = engines_for(&model);
        for inputs in &samples {
            let reference = engines[0].infer(inputs).expect("sod2 runs");
            for e in engines.iter_mut().skip(1) {
                let got = e
                    .infer(inputs)
                    .unwrap_or_else(|err| panic!("{} failed on {}: {err}", e.name(), model.name));
                assert_eq!(got.outputs.len(), reference.outputs.len());
                for (a, b) in got.outputs.iter().zip(&reference.outputs) {
                    assert!(
                        a.approx_eq(b, 1e-3),
                        "{} disagrees with SoD2 on {}",
                        e.name(),
                        model.name
                    );
                }
            }
        }
    }
}

#[test]
fn sod2_never_reinitializes_under_shape_change() {
    let model = codebert(ModelScale::Tiny);
    let samples = inputs_for(&model, 17, 8);
    // MNN re-initializes exactly once per distinct input-shape signature;
    // SoD2 never does. Count the distinct signatures in the sample set so
    // the assertion holds for any sampler distribution.
    let distinct: std::collections::HashSet<Vec<Vec<usize>>> = samples
        .iter()
        .map(|ins| ins.iter().map(|t| t.shape().to_vec()).collect())
        .collect();
    assert!(distinct.len() >= 2, "sampler must vary the input shape");
    let mut sod2 = Sod2Engine::new(
        model.graph.clone(),
        DeviceProfile::s888_cpu(),
        Sod2Options::default(),
        &Default::default(),
    );
    let mut mnn = MnnLike::new(model.graph.clone(), DeviceProfile::s888_cpu());
    let mut mnn_reinits = 0;
    for inputs in &samples {
        assert!(!sod2.infer(inputs).expect("sod2").reinitialized);
        if mnn.infer(inputs).expect("mnn").reinitialized {
            mnn_reinits += 1;
        }
    }
    assert_eq!(
        mnn_reinits,
        distinct.len(),
        "each distinct shape must re-init MNN exactly once"
    );
}

#[test]
fn mnn_amortizes_repeat_shapes() {
    let model = codebert(ModelScale::Tiny);
    let mut rng = StdRng::seed_from_u64(23);
    let inputs = model.make_inputs(32, &mut rng);
    let mut mnn = MnnLike::new(model.graph.clone(), DeviceProfile::s888_cpu());
    let first = priced(&mut mnn, &inputs);
    let second = priced(&mut mnn, &inputs);
    assert!(first.reinitialized && !second.reinitialized);
    assert!(
        first.latency.total() > 2.0 * second.latency.total(),
        "re-init must dominate: {} vs {}",
        first.latency.total(),
        second.latency.total()
    );
}

#[test]
fn sod2_has_lowest_memory_and_latency_under_changing_shapes() {
    for model in [codebert(ModelScale::Tiny), skipnet(ModelScale::Tiny)] {
        let samples = inputs_for(&model, 29, 4);
        let mut engines = engines_for(&model);
        let mut avg_latency = vec![0.0f64; engines.len()];
        let mut avg_memory = vec![0.0f64; engines.len()];
        for inputs in &samples {
            for (i, e) in engines.iter_mut().enumerate() {
                let s = priced(e.as_mut(), inputs);
                avg_latency[i] += s.latency.total();
                avg_memory[i] += s.peak_memory_bytes as f64;
            }
        }
        for i in 1..avg_latency.len() {
            assert!(
                avg_latency[0] < avg_latency[i],
                "{}: SoD2 latency {} !< engine{} {}",
                model.name,
                avg_latency[0],
                i,
                avg_latency[i]
            );
            assert!(
                avg_memory[0] <= avg_memory[i],
                "{}: SoD2 memory {} !<= engine{} {}",
                model.name,
                avg_memory[0],
                i,
                avg_memory[i]
            );
        }
    }
}

#[test]
fn optimization_ladder_is_monotone_in_memory() {
    // Fig. 5's ladder: +RDP-fusion, +SEP, +DMP each reduce (or keep) peak.
    let model = codebert(ModelScale::Tiny);
    let mut rng = StdRng::seed_from_u64(31);
    let inputs = model.make_inputs(48, &mut rng);
    let p = DeviceProfile::s888_cpu();
    let configs = [
        Sod2Options::no_opt(),
        Sod2Options {
            fusion: sod2_fusion::FusionPolicy::Rdp,
            sep: false,
            dmp: false,
            mvc: false,
            native_control_flow: true,
            ..Default::default()
        },
        Sod2Options {
            fusion: sod2_fusion::FusionPolicy::Rdp,
            sep: true,
            dmp: false,
            mvc: false,
            native_control_flow: true,
            ..Default::default()
        },
        Sod2Options {
            fusion: sod2_fusion::FusionPolicy::Rdp,
            sep: true,
            dmp: true,
            mvc: false,
            native_control_flow: true,
            ..Default::default()
        },
    ];
    let mut bindings = sod2_sym::Bindings::new();
    bindings.insert("L".into(), 48);
    let peaks: Vec<usize> = configs
        .iter()
        .map(|o| {
            let mut e = Sod2Engine::new(model.graph.clone(), p.clone(), *o, &bindings);
            priced(&mut e, &inputs).peak_memory_bytes
        })
        .collect();
    assert!(
        peaks[1] <= peaks[0],
        "RDP fusion must not increase memory: {peaks:?}"
    );
    // SEP is judged at compile time on representative sizes; allow a small
    // slack against the runtime-observed pooled peak.
    assert!(
        peaks[2] as f64 <= peaks[1] as f64 * 1.1,
        "SEP regressed memory: {peaks:?}"
    );
    assert!(
        peaks[3] <= peaks[2],
        "DMP must not increase memory: {peaks:?}"
    );
    assert!(
        peaks[3] < peaks[0],
        "full ladder must reduce memory: {peaks:?}"
    );
}

/// The DMP layout only moves materialized intermediates from the priced
/// per-tensor allocation stream into the plan: on every zoo model and at
/// every shape one engine sees, a DMP engine's plan covers some tensors,
/// and its covered and residual counts add up to what an engine without
/// DMP allocates, with bitwise-identical outputs.
#[test]
fn dmp_layout_splits_the_allocation_stream_across_zoo() {
    let p = DeviceProfile::s888_cpu();
    for model in all_models(ModelScale::Tiny) {
        let engine = |dmp: bool| {
            let opts = Sod2Options {
                dmp,
                ..Default::default()
            };
            Sod2Engine::new(model.graph.clone(), p.clone(), opts, &Default::default())
        };
        let (mut planned, mut unplanned) = (engine(true), engine(false));
        for (round, inputs) in inputs_for(&model, 11, 3).iter().enumerate() {
            let ctx = format!("{} (round {round})", model.name);
            let a_run = planned.infer(inputs).expect("dmp infer");
            let b_run = unplanned.infer(inputs).expect("no-dmp infer");
            for (x, y) in a_run.outputs.iter().zip(&b_run.outputs) {
                assert_eq!(x.payload_le_bytes(), y.payload_le_bytes(), "{ctx}");
            }
            let (a, b) = (planned.price(&a_run), unplanned.price(&b_run));
            assert!(a.arena_backed > 0, "{ctx}: the plan covered nothing");
            assert_eq!(b.arena_backed, 0, "{ctx}: no plan, nothing covered");
            assert_eq!(
                a.arena_backed + a.alloc_events,
                b.alloc_events,
                "{ctx}: the layout must only split the allocation stream"
            );
        }
    }
}

#[test]
fn mvc_reduces_latency_only() {
    let model = codebert(ModelScale::Tiny);
    let mut rng = StdRng::seed_from_u64(37);
    let inputs = model.make_inputs(64, &mut rng);
    let p = DeviceProfile::s888_cpu();
    let without = Sod2Options {
        mvc: false,
        ..Default::default()
    };
    let mut e1 = Sod2Engine::new(model.graph.clone(), p.clone(), without, &Default::default());
    let mut e2 = Sod2Engine::new(
        model.graph.clone(),
        p,
        Sod2Options::default(),
        &Default::default(),
    );
    let s1 = priced(&mut e1, &inputs);
    let s2 = priced(&mut e2, &inputs);
    assert!(s2.latency.total() < s1.latency.total());
    assert_eq!(s1.peak_memory_bytes, s2.peak_memory_bytes);
}

#[test]
fn tflite_budget_triggers_rematerialization() {
    let model = codebert(ModelScale::Tiny);
    let mut rng = StdRng::seed_from_u64(41);
    let inputs = model.make_inputs(64, &mut rng);
    let p = DeviceProfile::s888_cpu();
    let mut unbounded = TfLiteLike::new(model.graph.clone(), p.clone());
    let base = priced(&mut unbounded, &inputs);
    let budget = base.peak_memory_bytes / 2;
    let mut bounded = TfLiteLike::new(model.graph.clone(), p).with_memory_budget(budget);
    let capped = priced(&mut bounded, &inputs);
    assert!(capped.peak_memory_bytes <= base.peak_memory_bytes);
    // Same-shape second inference isolates the remat kernel cost.
    let base2 = priced(&mut unbounded, &inputs);
    let capped2 = priced(&mut bounded, &inputs);
    assert!(capped2.latency.total() >= base2.latency.total());
}

#[test]
fn native_control_flow_beats_execute_all() {
    // Fig. 9's complement: with gating enabled SoD2 skips dead branches.
    let model = skipnet(ModelScale::Tiny);
    let samples = inputs_for(&model, 43, 4);
    let p = DeviceProfile::s888_cpu();
    let mut native = Sod2Engine::new(
        model.graph.clone(),
        p.clone(),
        Sod2Options::default(),
        &Default::default(),
    );
    let mut all = Sod2Engine::new(
        model.graph.clone(),
        p,
        Sod2Options {
            native_control_flow: false,
            ..Default::default()
        },
        &Default::default(),
    );
    let mut t_native = 0.0;
    let mut t_all = 0.0;
    for inputs in &samples {
        t_native += priced(&mut native, inputs).latency.total();
        t_all += priced(&mut all, inputs).latency.total();
    }
    assert!(
        t_native <= t_all,
        "native {t_native} !<= execute-all {t_all}"
    );
}
