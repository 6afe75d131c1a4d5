//! Dynamic shapes end-to-end: run the CodeBERT zoo model across varying
//! sequence lengths and watch how SoD² avoids the re-initialization cost a
//! static engine (MNN strategy) pays on every new shape.
//!
//! ```sh
//! cargo run --release --example dynamic_shapes
//! ```

use sod2::{DeviceProfile, Engine, MnnLike, Sod2Engine, Sod2Options};
use sod2_models::{codebert, ModelScale};
use sod2_prng::rngs::StdRng;
use sod2_prng::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = codebert(ModelScale::Tiny);
    let profile = DeviceProfile::s888_cpu();
    println!(
        "model: {} ({} layers, dynamism {})",
        model.name,
        model.layer_count(),
        model.dynamism.label()
    );

    let mut sod2 = Sod2Engine::new(
        model.graph.clone(),
        profile.clone(),
        Sod2Options::default(),
        &Default::default(),
    );
    let mut mnn = MnnLike::new(model.graph.clone(), profile);

    let mut rng = StdRng::seed_from_u64(7);
    println!(
        "{:>6} {:>14} {:>14} {:>12}",
        "seqlen", "SoD2 (ms)", "MNN (ms)", "MNN reinit?"
    );
    for len in [16usize, 48, 96, 32, 48] {
        let inputs = model.make_inputs(len, &mut rng);
        let (s, m) = (sod2.infer(&inputs)?, mnn.infer(&inputs)?);
        let (s, m) = (sod2.price(&s), mnn.price(&m));
        println!(
            "{len:>6} {:>14.2} {:>14.2} {:>12}",
            s.latency.total() * 1e3,
            m.latency.total() * 1e3,
            m.reinitialized
        );
    }
    println!();
    println!("note: length 48 repeats — MNN amortizes its second visit, but any");
    println!("unseen length pays the full shape-propagation/tuning/alloc cost.");
    Ok(())
}
