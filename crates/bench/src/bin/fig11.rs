//! **Figure 11**: speedup over TFLite when TFLite's memory consumption is
//! capped at SoD²'s peak (overflow handled by XLA-style rematerialization).

use sod2_bench::{mean, priced, sample_inputs, BenchConfig};
use sod2_device::DeviceProfile;
use sod2_frameworks::{Engine, Sod2Engine, Sod2Options, TfLiteLike};
use sod2_models::{ranet, skipnet};

fn main() {
    let cfg = BenchConfig::from_args(4);
    for profile in [DeviceProfile::s888_cpu(), DeviceProfile::s888_gpu()] {
        println!(
            "Fig. 11 ({}): SoD2 speedup over TFLite at equal memory budget",
            profile.name
        );
        println!("{:<14} {:>10}", "model", "speedup");
        for model in [skipnet(cfg.scale), ranet(cfg.scale)] {
            let mut rng = cfg.rng();
            let inputs = sample_inputs(&model, cfg.samples, &mut rng);
            let mut sod2 = Sod2Engine::new(
                model.graph.clone(),
                profile.clone(),
                Sod2Options::default(),
                &Default::default(),
            );
            // First pass: find SoD2's peak to use as the budget.
            let peaks: Vec<usize> = inputs
                .iter()
                .map(|i| priced(&mut sod2, i).peak_memory_bytes)
                .collect();
            let budget = peaks.iter().copied().max().unwrap_or(0);
            let mut tflite =
                TfLiteLike::new(model.graph.clone(), profile.clone()).with_memory_budget(budget);
            let mut s_lat = Vec::new();
            let mut t_lat = Vec::new();
            for i in &inputs {
                let _ = tflite.infer(i); // warm: amortize re-initialization
                s_lat.push(priced(&mut sod2, i).latency.total());
                t_lat.push(priced(&mut tflite, i).latency.total());
            }
            println!("{:<14} {:>9.2}x", model.name, mean(&t_lat) / mean(&s_lat));
        }
        println!();
    }
    println!("(Paper Fig. 11: the margin over TFLite grows under a fixed budget,");
    println!(" more so on GPU where intermediate materialization costs more.)");
}
