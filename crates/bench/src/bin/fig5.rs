//! **Figure 5**: memory reduction of the RDP-enabled optimization ladder
//! (No-opt → +Fusion → +SEP → +DMP) on four models, mobile CPU.

use sod2_bench::{mean, priced, sample_inputs, BenchConfig};
use sod2_device::DeviceProfile;
use sod2_frameworks::{Sod2Engine, Sod2Options};
use sod2_fusion::FusionPolicy;
use sod2_models::{blockdrop, codebert, ranet, stable_diffusion_encoder};

fn ladder() -> [(&'static str, Sod2Options); 4] {
    [
        ("No opt.", Sod2Options::no_opt()),
        (
            "RDP w/ Fusion",
            Sod2Options {
                fusion: FusionPolicy::Rdp,
                sep: false,
                dmp: false,
                mvc: false,
                native_control_flow: true,
                ..Default::default()
            },
        ),
        (
            "+SEP",
            Sod2Options {
                fusion: FusionPolicy::Rdp,
                sep: true,
                dmp: false,
                mvc: false,
                native_control_flow: true,
                ..Default::default()
            },
        ),
        (
            "+DMP",
            Sod2Options {
                fusion: FusionPolicy::Rdp,
                sep: true,
                dmp: true,
                mvc: false,
                native_control_flow: true,
                ..Default::default()
            },
        ),
    ]
}

fn main() {
    let cfg = BenchConfig::from_args(4);
    let profile = DeviceProfile::s888_cpu();
    println!("Fig. 5: normalized memory by optimization level (CPU)");
    println!(
        "{:<22} {:>9} {:>14} {:>9} {:>9}",
        "model", "No opt.", "RDP w/ Fusion", "+SEP", "+DMP"
    );
    for model in [
        stable_diffusion_encoder(cfg.scale),
        codebert(cfg.scale),
        ranet(cfg.scale),
        blockdrop(cfg.scale),
    ] {
        let mut rng = cfg.rng();
        let inputs = sample_inputs(&model, cfg.samples, &mut rng);
        let mut mems = Vec::new();
        for (_, opts) in ladder() {
            let mut e = Sod2Engine::new(
                model.graph.clone(),
                profile.clone(),
                opts,
                &Default::default(),
            );
            let ms: Vec<f64> = inputs
                .iter()
                .map(|i| priced(&mut e, i).peak_memory_bytes as f64)
                .collect();
            mems.push(mean(&ms));
        }
        println!(
            "{:<22} {:>9.2} {:>14.2} {:>9.2} {:>9.2}",
            model.name,
            1.0,
            mems[1] / mems[0],
            mems[2] / mems[0],
            mems[3] / mems[0]
        );
    }
    println!();
    println!("(Paper Fig. 5: fusion 18–30%, +SEP extra 22–37%, +DMP extra 3–7%");
    println!(" memory reduction over the No-opt baseline.)");
}
