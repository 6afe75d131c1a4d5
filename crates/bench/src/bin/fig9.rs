//! **Figure 9**: apples-to-apples comparison with MNN on the *same
//! execution path* — SoD²'s `<Switch, Combine>` support disabled, both
//! engines executing all branches and stripping invalid results.

use sod2_bench::{mean, priced, sample_inputs, BenchConfig};
use sod2_device::DeviceProfile;
use sod2_frameworks::{Engine, MnnLike, Sod2Engine, Sod2Options};
use sod2_models::{blockdrop, convnet_aig, ranet, skipnet};

fn main() {
    let cfg = BenchConfig::from_args(4);
    let profile = DeviceProfile::s888_cpu();
    println!("Fig. 9: SoD2 vs MNN with identical (execute-all) paths, CPU");
    println!("{:<14} {:>14} {:>16}", "model", "speedup", "memory ratio");
    for model in [
        skipnet(cfg.scale),
        convnet_aig(cfg.scale),
        ranet(cfg.scale),
        blockdrop(cfg.scale),
    ] {
        let mut rng = cfg.rng();
        let inputs = sample_inputs(&model, cfg.samples, &mut rng);
        let mut sod2 = Sod2Engine::new(
            model.graph.clone(),
            profile.clone(),
            Sod2Options {
                native_control_flow: false, // same execution path as MNN
                ..Default::default()
            },
            &Default::default(),
        );
        let mut mnn = MnnLike::new(model.graph.clone(), profile.clone());
        let mut s_lat = Vec::new();
        let mut s_mem = Vec::new();
        let mut m_lat = Vec::new();
        let mut m_mem = Vec::new();
        for i in &inputs {
            let _ = mnn.infer(i); // warm: amortize re-initialization
            let s = priced(&mut sod2, i);
            let m = priced(&mut mnn, i);
            s_lat.push(s.latency.total());
            s_mem.push(s.peak_memory_bytes as f64);
            m_lat.push(m.latency.total());
            m_mem.push(m.peak_memory_bytes as f64);
        }
        println!(
            "{:<14} {:>13.2}x {:>15.2}x",
            model.name,
            mean(&m_lat) / mean(&s_lat),
            mean(&m_mem) / mean(&s_mem)
        );
    }
    println!();
    println!("(Paper Fig. 9: 1.5–2.0x speedup and 1.2–1.5x memory reduction even");
    println!(" without dynamic branch selection — pure RDP-optimization effect.)");
}
