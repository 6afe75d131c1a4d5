//! **Figure 6**: execution speedup of the optimization ladder
//! (No-opt → +Fusion → +SEP → +DMP → +MVC) on CPU and GPU.

use sod2_bench::{mean, priced, sample_inputs, BenchConfig};
use sod2_device::DeviceProfile;
use sod2_frameworks::{Sod2Engine, Sod2Options};
use sod2_fusion::FusionPolicy;
use sod2_models::{blockdrop, codebert, ranet, stable_diffusion_encoder};

fn ladder() -> [(&'static str, Sod2Options); 5] {
    let rdp = |sep: bool, dmp: bool, mvc: bool| Sod2Options {
        fusion: FusionPolicy::Rdp,
        sep,
        dmp,
        mvc,
        native_control_flow: true,
        ..Default::default()
    };
    [
        ("No opt.", Sod2Options::no_opt()),
        ("+Fusion", rdp(false, false, false)),
        ("+SEP", rdp(true, false, false)),
        ("+DMP", rdp(true, true, false)),
        ("+MVC", rdp(true, true, true)),
    ]
}

fn main() {
    let cfg = BenchConfig::from_args(4);
    for profile in [DeviceProfile::s888_cpu(), DeviceProfile::s888_gpu()] {
        println!("Fig. 6 ({}): speedup over No-opt", profile.name);
        println!(
            "{:<22} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "model", "No opt.", "+Fusion", "+SEP", "+DMP", "+MVC"
        );
        for model in [
            stable_diffusion_encoder(cfg.scale),
            codebert(cfg.scale),
            ranet(cfg.scale),
            blockdrop(cfg.scale),
        ] {
            let mut rng = cfg.rng();
            let inputs = sample_inputs(&model, cfg.samples, &mut rng);
            let mut lats = Vec::new();
            for (_, opts) in ladder() {
                let mut e = Sod2Engine::new(
                    model.graph.clone(),
                    profile.clone(),
                    opts,
                    &Default::default(),
                );
                let ls: Vec<f64> = inputs
                    .iter()
                    .map(|i| priced(&mut e, i).latency.total())
                    .collect();
                lats.push(mean(&ls));
            }
            println!(
                "{:<22} {:>7.2}x {:>7.2}x {:>7.2}x {:>7.2}x {:>7.2}x",
                model.name,
                1.0,
                lats[0] / lats[1],
                lats[0] / lats[2],
                lats[0] / lats[3],
                lats[0] / lats[4]
            );
        }
        println!();
    }
    println!("(Paper Fig. 6: CPU fusion 1.3–1.9x, +SEP 1.1–1.3x, +DMP 1.04–1.1x,");
    println!(" +MVC 1.3–1.6x; GPU gains are larger.)");
}
