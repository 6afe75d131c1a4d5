//! Quickstart: build a small dynamic-shape graph, compile it with SoD²,
//! and run it at several input sizes with zero re-initialization.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use sod2::{Compiler, DeviceProfile};
use sod2_ir::{BinaryOp, DType, Graph, Op, UnaryOp};
use sod2_sym::DimExpr;
use sod2_tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a graph with a symbolic batch dimension `N`:
    //    y = relu(x @ W) + x_skip
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![DimExpr::sym("N"), 16.into()]);
    let w = g.add_const(
        "w",
        &[16, 16],
        sod2_ir::ConstData::F32((0..256).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect()),
    );
    let h = g.add_simple("matmul", Op::MatMul, &[x, w], DType::F32);
    let r = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[h], DType::F32);
    let y = g.add_simple("skip", Op::Binary(BinaryOp::Add), &[r, x], DType::F32);
    g.mark_output(y);

    // 2. What does RDP know statically?
    let summary = sod2::analyze_summary(&g);
    println!("RDP: {summary:?}");

    // 3. Compile once for a device profile.
    let mut model = Compiler::new(DeviceProfile::s888_cpu()).compile(g);
    println!(
        "compiled: {} fused layers from 3 operators",
        model.engine().fusion_plan().layer_count()
    );

    // 4. Run at several batch sizes — no re-initialization, stable latency.
    for n in [1usize, 16, 64, 7] {
        let input = Tensor::from_f32(&[n, 16], vec![0.5; n * 16]);
        let run = model.run(&[input])?;
        let stats = model.price(&run);
        println!(
            "N={n:>3}: out {:?}, latency {:.3} ms, peak intermediates {} B, reinit={}",
            run.outputs[0].shape(),
            stats.latency.total() * 1e3,
            stats.peak_memory_bytes,
            stats.reinitialized
        );
    }
    Ok(())
}
