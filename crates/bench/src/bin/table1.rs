//! **Table 1**: inference overhead of execution re-initialization under
//! shape dynamism (MNN-style engine). Columns: SL (shape propagation +
//! layout selection), ST (schedule & tuning), Alloc, Infer — per device.

use sod2_bench::BenchConfig;
use sod2_device::DeviceProfile;
use sod2_frameworks::{Engine, MnnLike};
use sod2_models::{codebert, conformer, yolo_v6};
use sod2_runtime::TraceEvent;

fn main() {
    let cfg = BenchConfig::from_args(1);
    println!("Table 1: re-initialization overhead on input-shape change (MNN strategy)");
    println!("model            device   SL(ms)   ST(ms)  Alloc(ms)  Infer(ms)");
    for model in [
        yolo_v6(cfg.scale),
        conformer(cfg.scale),
        codebert(cfg.scale),
    ] {
        for profile in [DeviceProfile::s888_cpu(), DeviceProfile::s888_gpu()] {
            let mut rng = cfg.rng();
            let mut engine = MnnLike::new(model.graph.clone(), profile.clone());
            // A fresh shape forces a full re-initialization.
            let (_, inputs) = model.sample_inputs(&mut rng);
            let run = engine.infer(&inputs).expect("inference");
            let stats = engine.price(&run);
            let (sl, st, alloc) = stats
                .trace
                .events
                .iter()
                .find_map(|e| match *e {
                    TraceEvent::Reinit { sl, st, alloc } => Some((sl, st, alloc)),
                    _ => None,
                })
                .expect("first inference re-initializes");
            let infer_ms = (stats.latency.total() - (sl + st + alloc)) * 1e3;
            println!(
                "{:<16} {:<7} {:>8.1} {:>8.1} {:>10.1} {:>10.1}",
                model.name,
                if profile.kind == sod2_device::DeviceKind::Cpu {
                    "CPU"
                } else {
                    "GPU"
                },
                sl * 1e3,
                st * 1e3,
                alloc * 1e3,
                infer_ms
            );
        }
    }
    println!();
    println!("(Paper Table 1: re-initialization time, especially ST and the GPU Alloc");
    println!(" phase, dwarfs single-inference time — the same shape holds here.)");
}
