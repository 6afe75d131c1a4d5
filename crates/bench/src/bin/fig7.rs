//! **Figure 7**: layer count and intermediate-result size under no fusion
//! (Original), static-only fusion (SFusion), and RDP-enabled fusion.

use sod2_bench::BenchConfig;
use sod2_fusion::{fuse, FusionPolicy};
use sod2_models::{blockdrop, codebert, ranet, stable_diffusion_encoder};
use sod2_plan::{naive_unit_order, UnitGraph};
use sod2_runtime::{compile_tape, execute_tape, price_tape, ExecConfig};

fn main() {
    let cfg = BenchConfig::from_args(1);
    println!("Fig. 7: fusion effect (normalized by no-fusion Original)");
    println!(
        "{:<22}  {:>9} {:>9} {:>9}   {:>9} {:>9} {:>9}",
        "model", "lay.Orig", "lay.SFus", "lay.RDP", "IR.Orig", "IR.SFus", "IR.RDP"
    );
    for model in [
        stable_diffusion_encoder(cfg.scale),
        codebert(cfg.scale),
        ranet(cfg.scale),
        blockdrop(cfg.scale),
    ] {
        let rdp = sod2_rdp::analyze(&model.graph);
        let mut rng = cfg.rng();
        let (_, inputs) = model.sample_inputs(&mut rng);

        let mut layer_counts = Vec::new();
        let mut ir_bytes = Vec::new();
        for policy in [FusionPolicy::None, FusionPolicy::Static, FusionPolicy::Rdp] {
            let plan = fuse(&model.graph, &rdp, policy);
            layer_counts.push(plan.layer_count() as f64);
            let units = UnitGraph::build(&model.graph, &plan);
            let order = units.node_order(&naive_unit_order(&units));
            let tape =
                compile_tape(&model.graph, &order, Some(&plan), None, None, None).expect("lowers");
            let outcome = execute_tape(&model.graph, &inputs, &tape, &ExecConfig::default(), false)
                .expect("runs");
            let priced = price_tape(&model.graph, &tape, &outcome.record, None, None);
            // Intermediate-result size: total materialized bytes this run.
            ir_bytes.push(priced.alloc_sizes.iter().sum::<usize>() as f64);
        }
        println!(
            "{:<22}  {:>9.2} {:>9.2} {:>9.2}   {:>9.2} {:>9.2} {:>9.2}",
            model.name,
            1.0,
            layer_counts[1] / layer_counts[0],
            layer_counts[2] / layer_counts[0],
            1.0,
            ir_bytes[1] / ir_bytes[0],
            ir_bytes[2] / ir_bytes[0],
        );
    }
    println!();
    println!("(Paper Fig. 7: SFusion cuts layer count 26–61%; RDP fusion removes a");
    println!(" further 16–46% of layers and 13–40% of IR size on dynamic models.)");
}
