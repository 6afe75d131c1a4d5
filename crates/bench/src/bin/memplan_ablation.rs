//! **§4.4.1 ablation**: peak memory of the memory planners relative to the
//! exhaustive optimum on ConvNet-AIG sub-graphs (paper: SoD²'s peak-first
//! planner reaches 1.05× of optimal, the MNN-style greedy 1.16×).

use sod2_bench::{mean, BenchConfig};
use sod2_fusion::{fuse, FusionPolicy};
use sod2_mem::{plan_best_fit, plan_exhaustive, plan_peak_first, TensorLife};
use sod2_models::convnet_aig;
use sod2_plan::{naive_unit_order, unit_lifetimes, UnitGraph};
use sod2_runtime::{execute, ExecConfig};

fn main() {
    let cfg = BenchConfig::from_args(1);
    let model = convnet_aig(cfg.scale);
    let rdp = sod2_rdp::analyze(&model.graph);
    let fusion = fuse(&model.graph, &rdp, FusionPolicy::Rdp);
    let ug = UnitGraph::build(&model.graph, &fusion);
    let order = naive_unit_order(&ug);
    let mut rng = cfg.rng();
    let (_, inputs) = model.sample_inputs(&mut rng);
    let outcome = execute(
        &model.graph,
        &inputs,
        &ExecConfig {
            execute_all_branches: true,
            ..Default::default()
        },
    )
    .expect("runs");
    let size_of = |t: sod2_ir::TensorId| -> usize {
        outcome
            .concrete_shapes
            .get(&t)
            .map(|s| s.iter().product::<usize>() * 4)
            .unwrap_or(0)
    };
    let lives: Vec<TensorLife> = unit_lifetimes(&model.graph, &ug, &order, &size_of)
        .into_iter()
        .filter(|l| l.size > 0)
        .collect();

    // Slide a window over the lifetime list to form sub-graphs small enough
    // for the exhaustive reference.
    let mut ratios_pf = Vec::new();
    let mut ratios_bf = Vec::new();
    let window = 8;
    let mut start = 0;
    while start + window <= lives.len() && ratios_pf.len() < 40 {
        let sub: Vec<TensorLife> = lives[start..start + window].to_vec();
        let opt = plan_exhaustive(&sub).peak.max(1);
        ratios_pf.push(plan_peak_first(&sub).peak as f64 / opt as f64);
        ratios_bf.push(plan_best_fit(&sub).peak as f64 / opt as f64);
        start += window;
    }
    println!("Memory-planner ablation on ConvNet-AIG sub-graphs (paper §4.4.1)");
    println!("  sub-graphs evaluated : {}", ratios_pf.len());
    println!(
        "  SoD2 peak-first      : {:.3}x of exhaustive optimum",
        mean(&ratios_pf)
    );
    println!(
        "  MNN-style best-fit   : {:.3}x of exhaustive optimum",
        mean(&ratios_bf)
    );
    println!();
    println!("(Paper: peak-first 1.05x, greedy 1.16x of optimal.)");
}
