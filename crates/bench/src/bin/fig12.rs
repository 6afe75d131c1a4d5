//! **Figure 12**: overhead of SoD² (compiled for *dynamic* shapes) against
//! the fully static DNNFusion-style compilation of a frozen model — same
//! inputs, shapes fixed ahead of time for the static build.

use sod2_bench::{mean, priced, BenchConfig};
use sod2_device::DeviceProfile;
use sod2_frameworks::{bindings_from_inputs, Sod2Engine, Sod2Options};
use sod2_models::{ranet, skipnet};

fn main() {
    let cfg = BenchConfig::from_args(4);
    for profile in [DeviceProfile::s888_cpu(), DeviceProfile::s888_gpu()] {
        println!(
            "Fig. 12 ({}): SoD2 latency overhead vs static DNNFusion build",
            profile.name
        );
        println!("{:<14} {:>12}", "model", "overhead");
        for model in [skipnet(cfg.scale), ranet(cfg.scale)] {
            let mut rng = cfg.rng();
            // Freeze at one fixed size; both engines see identical inputs.
            let (mid, _) = {
                let (lo, hi) = model.size_range();
                (model.round_size((lo + hi) / 2), hi)
            };
            let inputs: Vec<_> = (0..cfg.samples)
                .map(|_| model.make_inputs(mid, &mut rng))
                .collect();
            let bindings = bindings_from_inputs(&model.graph, &inputs[0]).expect("bindings");
            let frozen = sod2::freeze(&model.graph, &bindings);

            // Static reference: full information at compile time, static
            // memory plan baked in (no runtime plan generation).
            let mut static_build = Sod2Engine::new(
                frozen,
                profile.clone(),
                Sod2Options {
                    fusion: sod2_fusion::FusionPolicy::Static,
                    ..Default::default()
                },
                &bindings,
            );
            let mut dynamic_build = Sod2Engine::new(
                model.graph.clone(),
                profile.clone(),
                Sod2Options::default(),
                &bindings,
            );
            let mut s_lat = Vec::new();
            let mut d_lat = Vec::new();
            for i in &inputs {
                s_lat.push(priced(&mut static_build, i).latency.total());
                d_lat.push(priced(&mut dynamic_build, i).latency.total());
            }
            let overhead = mean(&d_lat) / mean(&s_lat) - 1.0;
            println!("{:<14} {:>11.1}%", model.name, overhead * 100.0);
        }
        println!();
    }
    println!("(Paper Fig. 12: SoD2 is within 3% (CPU) / 7% (GPU) of the fully");
    println!(" static DNNFusion build on frozen models.)");
}
