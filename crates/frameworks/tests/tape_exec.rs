//! The tape on the full zoo, checked against the serial heap reference.
//!
//! - Engine level: compiling a model and running it on the register-machine
//!   tape — with folding, pruning, fusion, DMP accounting, and wavefront
//!   scheduling — must produce the reference interpreter's outputs bitwise,
//!   and the engine's memory metrics must not depend on the schedule.
//! - Runtime level: a serial heap tape run — the executor the baselines,
//!   `diagnose` and the figures price — priced by replaying its record
//!   must account for exactly what the plain reference observes: bitwise
//!   outputs, one allocation per produced tensor that is not
//!   fusion-internal, one fused op per live compute node, and a live peak
//!   no higher than the reference's, under every fusion policy, with
//!   native and execute-all control flow. Serial and wave dispatch of one
//!   tape leave equal records, so they price equally.

use sod2_device::DeviceProfile;
use sod2_frameworks::{Engine, Sod2Engine, Sod2Options};
use sod2_fusion::{fuse, FusionPolicy};
use sod2_models::{all_models, branchy_demo, DynModel, ModelScale};
use sod2_mvc::VersionTable;
use sod2_plan::{naive_unit_order, UnitGraph};
use sod2_prng::rngs::StdRng;
use sod2_prng::SeedableRng;
use sod2_runtime::{compile_tape, execute, execute_tape, price_tape, ExecConfig, TraceEvent};
use sod2_tensor::Tensor;
use std::collections::HashSet;

fn inputs_for(model: &DynModel, seed: u64, n: usize) -> Vec<Vec<Tensor>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| model.sample_inputs(&mut rng).1).collect()
}

fn engine_with(model: &DynModel, opts: Sod2Options) -> Sod2Engine {
    Sod2Engine::new(
        model.graph.clone(),
        DeviceProfile::s888_cpu(),
        opts,
        &Default::default(),
    )
}

/// Every zoo model lowers to a non-trivial tape, and the tape covers the
/// whole plan (one register per planned tensor, at least one instruction
/// per non-constant node).
#[test]
fn tape_compiles_for_every_zoo_model() {
    for model in all_models(ModelScale::Tiny) {
        let engine = engine_with(&model, Sod2Options::default());
        let stats = engine
            .tape_stats()
            .unwrap_or_else(|| panic!("{}: tape did not compile", model.name));
        assert!(stats.tape_len > 0, "{}: empty tape", model.name);
        assert!(
            stats.register_count > 0,
            "{}: empty register file",
            model.name
        );
        assert!(
            stats.tape_len <= model.graph.nodes().len(),
            "{}: more instructions than nodes",
            model.name
        );
        assert!(
            stats.register_count >= stats.const_count,
            "{}: more prebuilt consts than registers",
            model.name
        );
    }
}

/// The engine's outputs equal the reference interpreter's bitwise on all
/// 10 zoo models plus the branchy demo, with wavefront scheduling on and
/// off; peak memory, allocation events, and the tensors the DMP plan
/// covers do not depend on the schedule.
#[test]
fn engine_matches_reference_on_zoo() {
    let mut models = all_models(ModelScale::Tiny);
    models.push(branchy_demo(ModelScale::Tiny));
    for model in models {
        let samples = inputs_for(&model, 23, 2);
        let mut engines = [false, true].map(|wavefront| {
            engine_with(
                &model,
                Sod2Options {
                    wavefront_exec: wavefront,
                    ..Sod2Options::default()
                },
            )
        });
        for inputs in &samples {
            let reference =
                execute(&model.graph, inputs, &ExecConfig::default()).expect("reference run");
            let [serial, waves] = &mut engines;
            let a = serial.infer(inputs).expect("serial infer");
            let b = waves.infer(inputs).expect("wavefront infer");
            for run in [&a, &b] {
                assert_eq!(run.outputs.len(), reference.outputs.len());
                for (x, y) in run.outputs.iter().zip(&reference.outputs) {
                    assert_eq!(
                        x.payload_le_bytes(),
                        y.payload_le_bytes(),
                        "{}: outputs diverged from the reference",
                        model.name
                    );
                }
            }
            let ctx = &model.name;
            let (a, b) = (serial.price(&a), waves.price(&b));
            assert_eq!(a.peak_memory_bytes, b.peak_memory_bytes, "{ctx}: peak");
            assert_eq!(a.alloc_events, b.alloc_events, "{ctx}: alloc events");
            assert_eq!(a.arena_backed, b.arena_backed, "{ctx}: plan coverage");
        }
    }
}

/// A serial heap tape run accounts for exactly what the plain reference
/// observes: every zoo model plus the branchy demo, under
/// `FusionPolicy::{None, Static, Rdp}` in naive unit order with fused
/// chains, with native and execute-all control flow.
#[test]
fn serial_tape_accounting_matches_reference_observations() {
    let profile = DeviceProfile::s888_cpu();
    let (table, _) =
        VersionTable::load_or_tune(&profile, 0xC0DE, sod2_mvc::cache::cache_dir().as_deref());
    let mut models = all_models(ModelScale::Tiny);
    models.push(branchy_demo(ModelScale::Tiny));
    for model in models {
        let g = &model.graph;
        let inputs = &inputs_for(&model, 41, 1)[0];
        let rdp = sod2_rdp::analyze(g);
        for policy in [FusionPolicy::None, FusionPolicy::Static, FusionPolicy::Rdp] {
            let fusion = fuse(g, &rdp, policy);
            let internal = fusion.internal_tensors(g);
            let units = UnitGraph::build(g, &fusion);
            let order = units.node_order(&naive_unit_order(&units));
            let tape = compile_tape(g, &order, Some(&fusion), None, None, None)
                .unwrap_or_else(|e| panic!("{}: lowering failed: {e}", model.name));
            for execute_all_branches in [false, true] {
                let cfg = ExecConfig {
                    version_table: Some(&table),
                    execute_all_branches,
                    ..ExecConfig::default()
                };
                let ctx = format!(
                    "{} ({policy:?}, execute_all={execute_all_branches})",
                    model.name
                );
                let want = execute(g, inputs, &cfg).expect("reference run");
                let got = execute_tape(g, inputs, &tape, &cfg, false).expect("tape run");
                let priced = price_tape(g, &tape, &got.record, None, cfg.version_table);
                let payloads = |outs: &[Tensor]| -> Vec<Vec<u8>> {
                    outs.iter().map(Tensor::payload_le_bytes).collect()
                };
                assert_eq!(
                    payloads(&got.outputs),
                    payloads(&want.outputs),
                    "{ctx}: outputs"
                );
                // The allocation stream is every produced tensor that is
                // not fusion-internal, by size.
                let mut produced: Vec<usize> = want
                    .concrete_shapes
                    .iter()
                    .filter(|(t, _)| !internal.contains(*t))
                    .map(|(&t, shape)| {
                        shape.iter().product::<usize>() * g.tensor(t).dtype.size_bytes()
                    })
                    .collect();
                let mut allocated = priced.alloc_sizes.clone();
                produced.sort_unstable();
                allocated.sort_unstable();
                assert_eq!(allocated, produced, "{ctx}: allocation stream");
                // Every live compute node is priced in exactly one kernel.
                let live_compute: HashSet<_> = want
                    .concrete_shapes
                    .keys()
                    .filter_map(|&t| g.producer(t))
                    .filter(|&n| !g.node(n).op.is_control_flow())
                    .collect();
                let fused_ops: usize = priced
                    .trace
                    .events
                    .iter()
                    .map(|e| match e {
                        TraceEvent::Kernel { fused_ops, .. } => *fused_ops,
                        _ => 0,
                    })
                    .sum();
                assert_eq!(fused_ops, live_compute.len(), "{ctx}: fused ops");
                assert!(
                    priced.peak_live_bytes <= want.peak_live_bytes,
                    "{ctx}: tape peak {} above the reference's {}",
                    priced.peak_live_bytes,
                    want.peak_live_bytes
                );
            }
        }
    }
}

/// Dispatch mode does not change what a run records: one wavefront-compiled
/// tape, run serially and in waves at one and four workers, leaves equal
/// records and so equal prices — every zoo model plus the branchy demo,
/// with native and execute-all control flow.
#[test]
fn dispatch_mode_does_not_change_the_record() {
    let profile = DeviceProfile::s888_cpu();
    let (table, _) =
        VersionTable::load_or_tune(&profile, 0xC0DE, sod2_mvc::cache::cache_dir().as_deref());
    let mut models = all_models(ModelScale::Tiny);
    models.push(branchy_demo(ModelScale::Tiny));
    for model in models {
        let inputs = &inputs_for(&model, 53, 1)[0];
        for native_control_flow in [true, false] {
            let engine = engine_with(
                &model,
                Sod2Options {
                    wavefront_exec: true,
                    native_control_flow,
                    ..Sod2Options::default()
                },
            );
            let (g, tape) = (engine.graph(), engine.tape().expect("lowers"));
            let cfg = ExecConfig {
                version_table: Some(&table),
                execute_all_branches: !native_control_flow,
                ..ExecConfig::default()
            };
            let record = |wavefront: bool, threads: usize| {
                sod2_pool::with_threads(threads, || {
                    execute_tape(g, inputs, tape, &cfg, wavefront).expect("tape run")
                })
                .record
            };
            let serial = record(false, 1);
            let want = price_tape(g, tape, &serial, None, Some(&table));
            for (wavefront, threads) in [(false, 4), (true, 1), (true, 4)] {
                let ctx = format!(
                    "{} (native={native_control_flow}, wavefront={wavefront}, threads={threads})",
                    model.name
                );
                let got = record(wavefront, threads);
                assert_eq!(got, serial, "{ctx}: record");
                assert_eq!(
                    price_tape(g, tape, &got, None, Some(&table)),
                    want,
                    "{ctx}: price"
                );
            }
        }
    }
}

/// The engine's debug verification runs `verify_tape` over every compiled
/// tape; `diagnose()` must come back clean for the whole zoo.
#[test]
fn tape_diagnostics_clean_on_zoo() {
    let mut rng = StdRng::seed_from_u64(7);
    for model in all_models(ModelScale::Tiny) {
        let inputs = model.sample_inputs(&mut rng).1;
        let mut engine = engine_with(&model, Sod2Options::default());
        let report = engine.diagnose(&inputs).expect("diagnose");
        assert!(
            !report.has_errors(),
            "{}: {}",
            model.name,
            report.render_text(Some(&model.graph))
        );
    }
}
