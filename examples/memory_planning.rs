//! Memory-allocation planning in isolation: extract real tensor lifetimes
//! from a model run, then compare the paper's planners — SoD²'s peak-first
//! sweep, the MNN-style best-fit greedy, the no-reuse conservative plan,
//! and (on a small window) the exhaustive optimum.
//!
//! ```sh
//! cargo run --release --example memory_planning
//! ```

use sod2_fusion::{fuse, FusionPolicy};
use sod2_mem::{
    peak_live_bytes, plan_best_fit, plan_exhaustive, plan_peak_first, verify_plan, MemoryPlan,
    TensorLife,
};
use sod2_models::{convnet_aig, ModelScale};
use sod2_plan::{naive_unit_order, unit_lifetimes, UnitGraph};
use sod2_prng::rngs::StdRng;
use sod2_prng::SeedableRng;
use sod2_runtime::{execute, ExecConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = convnet_aig(ModelScale::Tiny);
    let rdp = sod2_rdp::analyze(&model.graph);
    let fusion = fuse(&model.graph, &rdp, FusionPolicy::Rdp);
    let ug = UnitGraph::build(&model.graph, &fusion);
    let order = naive_unit_order(&ug);

    // Real lifetimes from one execute-all run.
    let mut rng = StdRng::seed_from_u64(9);
    let (_, inputs) = model.sample_inputs(&mut rng);
    let outcome = execute(
        &model.graph,
        &inputs,
        &ExecConfig {
            execute_all_branches: true,
            ..Default::default()
        },
    )?;
    let size_of = |t: sod2_ir::TensorId| {
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

    let lower = peak_live_bytes(&lives);
    println!(
        "{}: {} materialized tensors, live-bytes lower bound {} KiB",
        model.name,
        lives.len(),
        lower / 1024
    );
    println!();
    println!(
        "{:<26} {:>10} {:>12}",
        "planner", "peak KiB", "vs lower bound"
    );
    for (name, plan) in [
        ("SoD2 peak-first", plan_peak_first(&lives)),
        ("MNN-style best-fit", plan_best_fit(&lives)),
        ("conservative (no reuse)", MemoryPlan::conservative(&lives)),
    ] {
        if let Some(v) = verify_plan(&lives, &plan).into_iter().next() {
            return Err(v.to_string().into());
        }
        println!(
            "{:<26} {:>10} {:>11.2}x",
            name,
            plan.peak / 1024,
            plan.peak as f64 / lower as f64
        );
    }

    // Exhaustive optimum on a small window (it is exponential).
    let window: Vec<TensorLife> = lives.iter().take(8).cloned().collect();
    let opt = plan_exhaustive(&window);
    let pf = plan_peak_first(&window);
    let bf = plan_best_fit(&window);
    println!();
    println!(
        "8-tensor window: exhaustive {} KiB, peak-first {:.2}x, best-fit {:.2}x of optimal",
        opt.peak / 1024,
        pf.peak as f64 / opt.peak as f64,
        bf.peak as f64 / opt.peak as f64
    );
    println!();
    println!("(Paper §4.4.1: the peak-first planner lands at 1.05x of the optimum");
    println!(" on ConvNet-AIG sub-graphs; the greedy baseline at 1.16x.)");
    Ok(())
}
