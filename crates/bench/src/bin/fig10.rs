//! **Figure 10**: latency vs input size for YOLO-V6, MNN vs SoD², on the
//! CPU and GPU profiles. Every size is new to the engines, so MNN pays a
//! re-initialization each time while SoD² stays flat.

use sod2_bench::{priced, BenchConfig};
use sod2_device::DeviceProfile;
use sod2_frameworks::{Engine, MnnLike, Sod2Engine, Sod2Options};
use sod2_models::yolo_v6;

fn main() {
    let cfg = BenchConfig::from_args(1);
    let model = yolo_v6(cfg.scale);
    let (min, max) = model.size_range();
    // 15 ascending sizes (deduplicated by the stride constraint).
    let mut sizes: Vec<usize> = (0..15)
        .map(|i| model.round_size(min + (max - min) * i / 14))
        .collect();
    sizes.dedup();
    for profile in [DeviceProfile::s888_cpu(), DeviceProfile::s888_gpu()] {
        println!("Fig. 10 ({}): YOLO-V6 latency vs input size", profile.name);
        println!("{:>6} {:>12} {:>12}", "size", "MNN(ms)", "SoD2(ms)");
        let mut mnn = MnnLike::new(model.graph.clone(), profile.clone());
        let mut sod2 = Sod2Engine::new(
            model.graph.clone(),
            profile.clone(),
            Sod2Options::default(),
            &Default::default(),
        );
        let mut rng = cfg.rng();
        for &s in &sizes {
            let inputs = model.make_inputs(s, &mut rng);
            // Warm pass per size: the paper's per-size latency excludes the
            // one-time re-initialization (reported in Table 1).
            let _ = mnn.infer(&inputs).expect("mnn warm");
            let _ = sod2.infer(&inputs).expect("sod2 warm");
            let m = priced(&mut mnn, &inputs);
            let d = priced(&mut sod2, &inputs);
            println!(
                "{:>6} {:>12.1} {:>12.1}",
                s,
                m.latency.total() * 1e3,
                d.latency.total() * 1e3
            );
        }
        println!();
    }
    println!("(Paper Fig. 10: SoD2 shows lower and far more stable latency across");
    println!(" input sizes; MNN varies wildly due to re-initialization.)");
}
