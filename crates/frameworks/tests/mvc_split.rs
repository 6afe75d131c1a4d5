//! Price one selection, run another.
//!
//! Two version tables that differ only in their executed choices — one
//! running the default kernel in every (family, class), one running every
//! priced winner — must give bitwise-equal outputs, equal run records and
//! equal prices over the same record, across the Tiny zoo and Full
//! StableDiffusion-Enc@40. Each tape bakes its own table's executed
//! variants, so the two tapes dispatch different kernels; pricing reads
//! only the priced side, so if it ever read the executed choice or the
//! variant a tape bakes, the two prices would part.

use sod2_device::{DeviceProfile, ShapeClass};
use sod2_frameworks::{Sod2Engine, Sod2Options};
use sod2_models::{all_models, stable_diffusion_encoder, ModelScale};
use sod2_mvc::{Family, Playoff, VersionTable};
use sod2_prng::rngs::StdRng;
use sod2_prng::SeedableRng;
use sod2_runtime::{bake_variants, compile_tape, execute_tape, price_tape, ExecConfig};
use sod2_tensor::Tensor;

/// `priced` with every (family, class) executing the priced winner
/// (`tuned`) or the default kernel.
fn executing(priced: &VersionTable, tuned: bool) -> VersionTable {
    let mut table = priced.clone();
    let playoff = if tuned {
        Playoff::decide(1.0, 2.0)
    } else {
        Playoff::decide(2.0, 1.0)
    };
    for class in ShapeClass::all() {
        for family in Family::ALL {
            table.set_playoff(family, class, playoff);
        }
    }
    table
}

#[test]
fn executed_choices_change_neither_outputs_nor_prices() {
    let profile = DeviceProfile::s888_cpu();
    let priced = VersionTable::tune(&profile, 0xC0DE);
    let (default, tuned) = (executing(&priced, false), executing(&priced, true));
    let mut rng = StdRng::seed_from_u64(61);
    let mut cases: Vec<_> = all_models(ModelScale::Tiny)
        .into_iter()
        .map(|m| {
            let inputs = m.sample_inputs(&mut rng).1;
            (m, inputs)
        })
        .collect();
    let sd = stable_diffusion_encoder(ModelScale::Full);
    let sd_inputs = sd.make_inputs(40, &mut rng);
    cases.push((sd, sd_inputs));

    let mut rebaked = 0;
    for (model, inputs) in &cases {
        let engine = Sod2Engine::new(
            model.graph.clone(),
            profile.clone(),
            Sod2Options::default(),
            &Default::default(),
        );
        let g = engine.graph();
        let run = |table: &VersionTable| {
            let baked = bake_variants(g, engine.rdp(), table);
            let tape = compile_tape(
                g,
                engine.node_order(),
                Some(engine.fusion_plan()),
                None,
                Some(&baked),
            )
            .unwrap_or_else(|e| panic!("{}: lowering failed: {e}", model.name));
            let cfg = ExecConfig {
                version_table: Some(table),
                ..ExecConfig::default()
            };
            let out = execute_tape(g, inputs, &tape, &cfg)
                .unwrap_or_else(|e| panic!("{}: tape run failed: {e}", model.name));
            (baked, tape, out)
        };
        let (baked_d, tape_d, out_d) = run(&default);
        let (baked_t, tape_t, out_t) = run(&tuned);
        if baked_d != baked_t {
            rebaked += 1;
        }
        let payloads = |outs: &[Tensor]| -> Vec<Vec<u8>> {
            outs.iter().map(Tensor::payload_le_bytes).collect()
        };
        let ctx = &model.name;
        assert_eq!(
            payloads(&out_d.outputs),
            payloads(&out_t.outputs),
            "{ctx}: outputs"
        );
        assert_eq!(out_d.record, out_t.record, "{ctx}: record");
        assert_eq!(
            price_tape(g, &tape_d, &out_d.record, None, Some(&default)),
            price_tape(g, &tape_t, &out_d.record, None, Some(&tuned)),
            "{ctx}: pricing read the executed choice"
        );
    }
    assert!(
        rebaked >= 2,
        "only {rebaked} model(s) baked different variants under the two tables"
    );
}
