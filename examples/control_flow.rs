//! Dynamic control flow: SkipNet-style gated residual blocks routed through
//! the paper's `<Switch, Combine>` operator pair. SoD² executes only the
//! live branches; the baseline strategy executes everything and strips
//! invalid results.
//!
//! ```sh
//! cargo run --release --example control_flow
//! ```

use sod2::{DeviceProfile, Engine, Sod2Engine, Sod2Options};
use sod2_models::{skipnet, ModelScale};
use sod2_prng::rngs::StdRng;
use sod2_prng::SeedableRng;
use sod2_runtime::{execute, ExecConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = skipnet(ModelScale::Tiny);
    println!(
        "model: {} ({} layers, dynamism {})",
        model.name,
        model.layer_count(),
        model.dynamism.label()
    );

    // Raw executor view: count the tensors each strategy produces.
    let mut rng = StdRng::seed_from_u64(3);
    for i in 0..4 {
        let (_, inputs) = model.sample_inputs(&mut rng);
        let native = execute(&model.graph, &inputs, &ExecConfig::default())?;
        let all = execute(
            &model.graph,
            &inputs,
            &ExecConfig {
                execute_all_branches: true,
                ..Default::default()
            },
        )?;
        println!(
            "input {i}: native path produced {} tensors, execute-all produced {}",
            native.concrete_shapes.len(),
            all.concrete_shapes.len()
        );
        // Both strategies agree on the final answer.
        assert!(native.outputs[0].approx_eq(&all.outputs[0], 1e-4));
    }

    // Engine view: latency gap between the two strategies.
    let profile = DeviceProfile::s888_cpu();
    let mut native = Sod2Engine::new(
        model.graph.clone(),
        profile.clone(),
        Sod2Options::default(),
        &Default::default(),
    );
    let mut execute_all = Sod2Engine::new(
        model.graph.clone(),
        profile,
        Sod2Options {
            native_control_flow: false,
            ..Default::default()
        },
        &Default::default(),
    );
    let (_, inputs) = model.sample_inputs(&mut rng);
    let (a, b) = (native.infer(&inputs)?, execute_all.infer(&inputs)?);
    let (a, b) = (native.price(&a), execute_all.price(&b));
    println!();
    println!(
        "native control flow : {:.2} ms, peak {} B",
        a.latency.total() * 1e3,
        a.peak_memory_bytes
    );
    println!(
        "execute-all branches: {:.2} ms, peak {} B",
        b.latency.total() * 1e3,
        b.peak_memory_bytes
    );
    Ok(())
}
