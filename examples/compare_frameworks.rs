//! Mini Table 5/6: compare SoD² against the ORT/MNN/TVM-Nimble strategy
//! simulators on one zoo model, reporting latency and peak intermediate
//! memory across a batch of randomly sized inputs.
//!
//! ```sh
//! cargo run --release --example compare_frameworks [model-name] [samples]
//! ```

use sod2::{DeviceProfile, Engine, MnnLike, OrtLike, Sod2Engine, Sod2Options, TvmNimbleLike};
use sod2_models::{model_by_name, ModelScale};
use sod2_prng::rngs::StdRng;
use sod2_prng::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("yolo");
    let samples: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(5);
    let model =
        model_by_name(name, ModelScale::Tiny).ok_or_else(|| format!("unknown model {name:?}"))?;
    let profile = DeviceProfile::s888_cpu();
    println!(
        "comparing engines on {} ({} layers), {} inputs, {}",
        model.name,
        model.layer_count(),
        samples,
        profile.name
    );

    let mut engines: Vec<Box<dyn Engine>> = vec![
        Box::new(Sod2Engine::new(
            model.graph.clone(),
            profile.clone(),
            Sod2Options::default(),
            &Default::default(),
        )),
        Box::new(OrtLike::new(model.graph.clone(), profile.clone())),
        Box::new(MnnLike::new(model.graph.clone(), profile.clone())),
        Box::new(TvmNimbleLike::new(model.graph.clone(), profile)),
    ];

    let mut rng = StdRng::seed_from_u64(42);
    let inputs: Vec<_> = (0..samples)
        .map(|_| model.sample_inputs(&mut rng).1)
        .collect();

    println!(
        "{:<8} {:>12} {:>12} {:>14}",
        "engine", "avg ms", "max ms", "avg peak MB"
    );
    for e in engines.iter_mut() {
        let mut lat = Vec::new();
        let mut mem = Vec::new();
        for i in &inputs {
            let run = e.infer(i)?;
            let s = e.price(&run);
            lat.push(s.latency.total() * 1e3);
            mem.push(s.peak_memory_bytes as f64 / (1024.0 * 1024.0));
        }
        let avg = lat.iter().sum::<f64>() / lat.len() as f64;
        let max = lat.iter().fold(0f64, |a, &b| a.max(b));
        let am = mem.iter().sum::<f64>() / mem.len() as f64;
        println!("{:<8} {:>12.2} {:>12.2} {:>14.3}", e.name(), avg, max, am);
    }
    Ok(())
}
