//! **Wall-clock sanity check**: the latency numbers in the tables come
//! from the device cost model, but the kernels really execute on the host.
//! This binary times the *actual* host execution of every engine on one
//! model, demonstrating that the substrate computes real tensors and that
//! the engines' relative host cost tracks their kernel-count differences.

use sod2_bench::{comparison_engines, sample_inputs, BenchConfig};
use sod2_device::DeviceProfile;
use sod2_models::model_by_name;
use std::time::Instant;

fn main() {
    let cfg = BenchConfig::from_args(4);
    let name = std::env::args().nth(1).unwrap_or_else(|| "codebert".into());
    let model = model_by_name(&name, cfg.scale).unwrap_or_else(|| {
        eprintln!("unknown model {name:?}");
        std::process::exit(2);
    });
    let profile = DeviceProfile::s888_cpu();
    let mut rng = cfg.rng();
    let inputs = sample_inputs(&model, cfg.samples, &mut rng);
    println!(
        "wall-clock host execution: {} ({} layers), {} inputs",
        model.name,
        model.layer_count(),
        cfg.samples
    );
    println!(
        "{:<8} {:>14} {:>16}",
        "engine", "host ms/inf", "modeled ms/inf"
    );
    for mut e in comparison_engines(&model, &profile) {
        // Warm once (compile-side caches, allocator warmup).
        let _ = e.infer(&inputs[0]);
        let start = Instant::now();
        let runs: Vec<_> = inputs.iter().map(|i| e.infer(i).expect("runs")).collect();
        let host_ms = start.elapsed().as_secs_f64() * 1e3 / cfg.samples as f64;
        let modeled: f64 = runs.iter().map(|r| e.price(r).latency.total()).sum();
        println!(
            "{:<8} {:>14.2} {:>16.3}",
            e.name(),
            host_ms,
            modeled * 1e3 / cfg.samples as f64
        );
    }
    println!();
    println!("(host times cover `infer` only — execution plus SoD2's pre-plan —");
    println!(" on a development machine; modeled times are the cost-model");
    println!(" milliseconds used throughout the tables, priced after the clock stops.)");
}
