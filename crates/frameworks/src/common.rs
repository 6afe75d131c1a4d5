//! The engine interface and shared helpers.

use sod2_ir::Graph;
use sod2_mem::ArenaLayout;
use sod2_runtime::{ExecError, ExecutionTrace, LatencyBreakdown, RunRecord};
use sod2_sym::{Bindings, DimExpr, ShapeValue};
use sod2_tensor::Tensor;
use std::sync::Arc;

/// One inference through an engine: its outputs plus what
/// [`Engine::price`] replays. Holds no intermediate tensor.
#[derive(Debug)]
pub struct Run {
    /// Output tensors.
    pub outputs: Vec<Tensor>,
    /// What the tape run observed: per register, produced or dead, with
    /// its shape and byte size.
    pub record: RunRecord,
    /// The DMP pre-plan the inference was admitted against (`None` for
    /// engines without DMP).
    pub layout: Option<Arc<ArenaLayout>>,
    /// Whether the pre-plan came from the engine's cache.
    pub pre_plan_hit: bool,
    /// Whether this inference triggered a re-initialization.
    pub reinitialized: bool,
}

/// One inference priced by its engine's cost model ([`Engine::price`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InferenceStats {
    /// Priced latency breakdown on the engine's device profile.
    pub latency: LatencyBreakdown,
    /// Peak intermediate-memory footprint the engine's allocator reserved
    /// (paper Table 5's metric; excludes weights).
    pub peak_memory_bytes: usize,
    /// Whether this inference triggered a re-initialization.
    pub reinitialized: bool,
    /// Per-tensor allocations in the priced model: materialized
    /// intermediates outside the engine's offset plan. With DMP this is
    /// the dynamic residue the plan could not cover (`nac` sizes);
    /// otherwise every materialized intermediate counts. It is not a
    /// count of host allocations, which kernels make for every payload
    /// (the host benchmark's `alloc.count_per_req` counts those).
    pub alloc_events: usize,
    /// Materialized intermediates the priced model places inside the DMP
    /// plan's one arena allocation (0 for engines without DMP).
    pub arena_backed: usize,
    /// The priced trace: the tape's kernel events plus the engine's
    /// strategy events (allocations, planning, re-initialization, shape
    /// functions).
    pub trace: ExecutionTrace,
}

/// A DNN execution engine — SoD² or one of the baselines.
///
/// Engines are stateful: they cache compiled artifacts across calls, which
/// is exactly where the strategies differ (re-initialization vs. static
/// plans vs. per-run dynamic work). Engines are `Send` so harnesses can
/// evaluate models on worker threads.
pub trait Engine: Send {
    /// Engine display name.
    fn name(&self) -> &'static str;

    /// Runs one inference: execution only, no pricing.
    ///
    /// # Errors
    ///
    /// Propagates executor errors.
    fn infer(&mut self, inputs: &[Tensor]) -> Result<Run, ExecError>;

    /// Prices a run on this engine's device profile: a pure replay
    /// of the run's record through the cost model. Pricing one run twice
    /// gives equal stats. `run` must come from this engine's
    /// [`Engine::infer`].
    fn price(&self, run: &Run) -> InferenceStats;
}

/// Bytes of `t` as a run produced it — its observed shape at the graph's
/// element size — or 0 when no instruction produced it: the size of `t` in
/// the lifetimes an engine plans after the fact.
pub(crate) fn observed_bytes(graph: &Graph, record: &RunRecord, t: sod2_ir::TensorId) -> usize {
    match record.shape(t) {
        Some(s) if record.produced(t) => {
            s.iter().product::<usize>() * graph.tensor(t).dtype.size_bytes()
        }
        _ => 0,
    }
}

/// Extracts symbol bindings by matching the graph's symbolic input
/// annotations against concrete input shapes.
///
/// # Errors
///
/// Returns an error message when a concrete shape contradicts a known
/// annotation dimension.
pub fn bindings_from_inputs(graph: &Graph, inputs: &[Tensor]) -> Result<Bindings, String> {
    let mut b = Bindings::new();
    for (&tid, tensor) in graph.inputs().iter().zip(inputs) {
        let info = graph.tensor(tid);
        let ShapeValue::Ranked(dims) = &info.shape else {
            continue;
        };
        if dims.len() != tensor.rank() {
            return Err(format!(
                "input {} rank {} != annotation rank {}",
                info.name,
                tensor.rank(),
                dims.len()
            ));
        }
        for (dv, &actual) in dims.iter().zip(tensor.shape()) {
            match dv.as_expr() {
                Some(DimExpr::Sym(name)) => {
                    let prev = b.insert(name.to_string(), actual as i64);
                    if let Some(p) = prev {
                        if p != actual as i64 {
                            return Err(format!("symbol {name} bound to both {p} and {actual}"));
                        }
                    }
                }
                Some(e) => {
                    if let Some(k) = e.as_const() {
                        if k != actual as i64 {
                            return Err(format!(
                                "input {} dim {k} != concrete {actual}",
                                info.name
                            ));
                        }
                    }
                }
                None => {}
            }
        }
    }
    Ok(b)
}

/// A key identifying a concrete input-shape configuration (what static
/// engines cache their compiled state under).
pub fn shape_key(inputs: &[Tensor]) -> Vec<Vec<usize>> {
    inputs.iter().map(|t| t.shape().to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod2_ir::DType;

    #[test]
    fn bindings_extracted_from_symbolic_inputs() {
        let mut g = Graph::new();
        let _ = g.add_input(
            "x",
            DType::F32,
            vec![1.into(), DimExpr::sym("H"), DimExpr::sym("W")],
        );
        let t = Tensor::zeros(&[1, 5, 7]);
        let b = bindings_from_inputs(&g, &[t]).expect("bind");
        assert_eq!(b.get("H"), Some(&5));
        assert_eq!(b.get("W"), Some(&7));
    }

    #[test]
    fn conflicting_bindings_rejected() {
        let mut g = Graph::new();
        let _ = g.add_input("x", DType::F32, vec![DimExpr::sym("S"), DimExpr::sym("S")]);
        assert!(bindings_from_inputs(&g, &[Tensor::zeros(&[3, 4])]).is_err());
        assert!(bindings_from_inputs(&g, &[Tensor::zeros(&[4, 4])]).is_ok());
    }

    #[test]
    fn const_annotation_mismatch_rejected() {
        let mut g = Graph::new();
        let _ = g.add_input("x", DType::F32, vec![3.into()]);
        assert!(bindings_from_inputs(&g, &[Tensor::zeros(&[4])]).is_err());
    }
}
