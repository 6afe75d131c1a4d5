//! Baseline engine simulators (paper §2 and §5.1).
//!
//! Each implements the execution *strategy* the paper ascribes to the
//! corresponding product framework, over the same kernels and cost model as
//! SoD² — so every measured difference comes from the strategy, exactly as
//! in the paper's comparison:
//!
//! - [`MnnLike`] — static engine with **execution re-initialization** on
//!   every input-shape change (shape propagation/layout selection, schedule
//!   tuning, allocation — Table 1's SL/ST/Alloc phases), well-fused stock
//!   (untuned) kernels once initialized, greedy best-fit memory.
//! - [`OrtLike`] — handles dynamic shapes without re-initialization but
//!   with per-tensor dynamic allocation, no fusion, untuned kernels.
//! - [`TvmNimbleLike`] — VM with a **shape function** evaluated per
//!   dynamic operator, dynamic allocation without reuse planning, fusion
//!   only where shapes are fully static.
//! - [`TfLiteLike`] — re-initialization like MNN plus an optional fixed
//!   memory budget honoured via XLA-style rematerialization (Fig. 11).
//!
//! All baselines execute **all** control-flow branches and strip invalid
//! results, as the paper observes of these frameworks.

use crate::common::{observed_bytes, shape_key, Engine, InferenceStats, Run};
use sod2_device::{price_reinit, DeviceProfile, OpCost};
use sod2_fusion::{fuse, FusionPolicy};
use sod2_ir::{Graph, TensorId};
use sod2_mem::{peak_live_bytes, plan_best_fit, rematerialize, size_class_peak, TensorLife};
use sod2_plan::{naive_unit_order, unit_lifetimes, UnitGraph};
use sod2_rdp::{analyze, RdpResult, ShapeClass};
use sod2_runtime::{
    compile_tape, execute_tape, price_tape, ExecConfig, ExecError, ExecutionTrace, RunRecord,
    TapePrice, TapeProgram, TraceEvent,
};
use sod2_tensor::Tensor;
use std::collections::HashSet;

/// Shared compiled state for a baseline.
struct Compiled {
    graph: Graph,
    profile: DeviceProfile,
    rdp: RdpResult,
    unit_graph: UnitGraph,
    unit_order: Vec<usize>,
    /// The plan lowered to a tape, or why lowering failed (every
    /// inference then fails with [`ExecError::Internal`]).
    tape: Result<TapeProgram, String>,
}

impl Compiled {
    fn new(graph: Graph, profile: DeviceProfile, fusion: FusionPolicy) -> Self {
        // Product engines fold constants at load time too.
        let (graph, _) = sod2_runtime::fold_constants(&graph);
        let rdp = analyze(&graph);
        let fusion_plan = fuse(&graph, &rdp, fusion);
        let unit_graph = UnitGraph::build(&graph, &fusion_plan);
        let unit_order = naive_unit_order(&unit_graph);
        // The strategy's fusion plan with its chains, in naive unit order;
        // no certificates, waves or baked variants.
        let node_order = unit_graph.node_order(&unit_order);
        let tape = compile_tape(&graph, &node_order, Some(&fusion_plan), None, None)
            .map_err(|e| e.to_string());
        Compiled {
            graph,
            profile,
            rdp,
            unit_graph,
            unit_order,
            tape,
        }
    }

    fn run(&self, inputs: &[Tensor], reinitialized: bool) -> Result<Run, ExecError> {
        let tape = self
            .tape
            .as_ref()
            .map_err(|e| ExecError::Internal(format!("tape lowering failed: {e}")))?;
        // Stock, untuned kernels (no version table); baselines execute all
        // branches and strip invalid results.
        let cfg = ExecConfig {
            execute_all_branches: true,
            ..ExecConfig::default()
        };
        let outcome = execute_tape(&self.graph, inputs, tape, &cfg)?;
        Ok(Run {
            outputs: outcome.outputs,
            record: outcome.record,
            layout: None,
            pre_plan_hit: false,
            reinitialized,
        })
    }

    /// The tape's priced replay of `run`: every materialized intermediate
    /// allocates, kernels priced untuned.
    fn price(&self, run: &Run) -> TapePrice {
        match &self.tape {
            Ok(tape) => price_tape(&self.graph, tape, &run.record, None, None),
            Err(_) => TapePrice::default(),
        }
    }

    fn observed_lifetimes(&self, record: &RunRecord) -> Vec<TensorLife> {
        let size_of = |t: TensorId| observed_bytes(&self.graph, record, t);
        unit_lifetimes(&self.graph, &self.unit_graph, &self.unit_order, &size_of)
            .into_iter()
            .filter(|l| l.size > 0)
            .collect()
    }

    /// The stats of a strategy's priced trace.
    fn stats(
        &self,
        run: &Run,
        alloc_events: usize,
        trace: ExecutionTrace,
        peak: usize,
    ) -> InferenceStats {
        InferenceStats {
            latency: trace.price(&self.profile),
            peak_memory_bytes: peak,
            reinitialized: run.reinitialized,
            alloc_events,
            arena_backed: 0,
            trace,
        }
    }
}

/// MNN-style static engine with re-initialization on shape change.
pub struct MnnLike {
    compiled: Compiled,
    seen_shapes: HashSet<Vec<Vec<usize>>>,
}

impl MnnLike {
    /// Compiles a graph for a device.
    pub fn new(graph: Graph, profile: DeviceProfile) -> Self {
        // Post-reinit MNN has full static shape information, so it fuses
        // like a static compiler — but its kernel codegen is the stock
        // engine's, not DNNFusion's tuned multi-version kernels.
        MnnLike {
            compiled: Compiled::new(graph, profile, FusionPolicy::Rdp),
            seen_shapes: HashSet::new(),
        }
    }
}

impl Engine for MnnLike {
    fn name(&self) -> &'static str {
        "MNN"
    }

    fn infer(&mut self, inputs: &[Tensor]) -> Result<Run, ExecError> {
        let reinit = self.seen_shapes.insert(shape_key(inputs));
        self.compiled.run(inputs, reinit)
    }

    fn price(&self, run: &Run) -> InferenceStats {
        let tp = self.compiled.price(run);
        let lives = self.compiled.observed_lifetimes(&run.record);
        let plan = plan_best_fit(&lives);
        let mut trace = tp.trace;
        if run.reinitialized {
            let (sl, st, alloc) = price_reinit(
                &self.compiled.profile,
                self.compiled.graph.num_nodes(),
                tp.alloc_sizes.len(),
                plan.peak,
            );
            trace.push(TraceEvent::Reinit { sl, st, alloc });
        }
        self.compiled
            .stats(run, tp.alloc_sizes.len(), trace, plan.peak)
    }
}

/// ONNX-Runtime-style engine: dynamic shapes without re-initialization,
/// per-tensor dynamic allocation, unfused untuned kernels.
pub struct OrtLike {
    compiled: Compiled,
}

impl OrtLike {
    /// Compiles a graph for a device.
    pub fn new(graph: Graph, profile: DeviceProfile) -> Self {
        OrtLike {
            compiled: Compiled::new(graph, profile, FusionPolicy::None),
        }
    }
}

impl Engine for OrtLike {
    fn name(&self) -> &'static str {
        "ORT"
    }

    fn infer(&mut self, inputs: &[Tensor]) -> Result<Run, ExecError> {
        self.compiled.run(inputs, false)
    }

    fn price(&self, run: &Run) -> InferenceStats {
        let tp = self.compiled.price(run);
        let lives = self.compiled.observed_lifetimes(&run.record);
        // Pooling (BFC-style) allocator without lifetime planning: requests
        // round up to power-of-two size classes, freed chunks stay in their
        // class — internal fragmentation plus per-class retention, over the
        // unfused lifetimes (more tensors than the fused engines hold).
        let peak = size_class_peak(&lives);
        let mut trace = tp.trace;
        for &b in &tp.alloc_sizes {
            trace.push(TraceEvent::Alloc { bytes: b });
        }
        self.compiled.stats(run, tp.alloc_sizes.len(), trace, peak)
    }
}

/// TVM-with-Nimble-style engine: per-dynamic-op shape functions, dynamic
/// allocation without reuse planning, static-only fusion.
pub struct TvmNimbleLike {
    compiled: Compiled,
    dynamic_ops: usize,
}

impl TvmNimbleLike {
    /// Compiles a graph for a device.
    pub fn new(graph: Graph, profile: DeviceProfile) -> Self {
        let compiled = Compiled::new(graph, profile, FusionPolicy::Static);
        // A shape function runs before every operator whose output shape is
        // not a static constant.
        let dynamic_ops = compiled
            .graph
            .nodes()
            .iter()
            .filter(|n| {
                n.outputs
                    .iter()
                    .any(|&t| compiled.rdp.shape_class(t) != ShapeClass::Known)
            })
            .count();
        TvmNimbleLike {
            compiled,
            dynamic_ops,
        }
    }
}

impl Engine for TvmNimbleLike {
    fn name(&self) -> &'static str {
        "TVM-N"
    }

    fn infer(&mut self, inputs: &[Tensor]) -> Result<Run, ExecError> {
        self.compiled.run(inputs, false)
    }

    fn price(&self, run: &Run) -> InferenceStats {
        let tp = self.compiled.price(run);
        let mut lives = self.compiled.observed_lifetimes(&run.record);
        // The VM's register file holds tensors to the end of the enclosing
        // sub-function scope rather than freeing at last use: extend every
        // lifetime, then serve from size-class pools without planning.
        const VM_SCOPE_STEPS: usize = 14;
        let last = lives.iter().map(TensorLife::last_use).max().unwrap_or(0);
        for l in &mut lives {
            let ext = (l.last_use() + VM_SCOPE_STEPS).min(last);
            if !l.uses.contains(&ext) {
                l.uses.push(ext);
            }
        }
        let peak = size_class_peak(&lives);
        let mut trace = tp.trace;
        for _ in 0..self.dynamic_ops {
            trace.push(TraceEvent::ShapeFunc);
        }
        for &b in &tp.alloc_sizes {
            trace.push(TraceEvent::Alloc { bytes: b });
        }
        self.compiled.stats(run, tp.alloc_sizes.len(), trace, peak)
    }
}

/// TFLite-style engine: re-initialization on shape change plus an optional
/// fixed memory budget honoured through XLA-style rematerialization.
pub struct TfLiteLike {
    compiled: Compiled,
    seen_shapes: HashSet<Vec<Vec<usize>>>,
    budget: Option<usize>,
}

impl TfLiteLike {
    /// Compiles a graph for a device.
    pub fn new(graph: Graph, profile: DeviceProfile) -> Self {
        TfLiteLike {
            compiled: Compiled::new(graph, profile, FusionPolicy::Rdp),
            seen_shapes: HashSet::new(),
            budget: None,
        }
    }

    /// Caps intermediate memory; overflow is handled by rematerialization
    /// (the Fig. 11 configuration).
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.budget = Some(bytes);
        self
    }
}

impl Engine for TfLiteLike {
    fn name(&self) -> &'static str {
        "TFLite"
    }

    fn infer(&mut self, inputs: &[Tensor]) -> Result<Run, ExecError> {
        let reinit = self.seen_shapes.insert(shape_key(inputs));
        self.compiled.run(inputs, reinit)
    }

    fn price(&self, run: &Run) -> InferenceStats {
        let tp = self.compiled.price(run);
        let mut lives = self.compiled.observed_lifetimes(&run.record);
        let mut trace = tp.trace;
        let mut remat_bytes = 0usize;
        if let Some(budget) = self.budget {
            if peak_live_bytes(&lives) > budget {
                let plan = rematerialize(&lives, budget);
                remat_bytes = plan.recompute_bytes;
                lives = plan.lives;
            }
        }
        if remat_bytes > 0 {
            // Recomputation: the dropped tensors' producers run again —
            // charge their data movement plus compute (approximated as a
            // memory-bound pass over the recomputed bytes).
            trace.push(TraceEvent::Kernel {
                name: "rematerialize".into(),
                cost: OpCost {
                    flops: 8.0 * remat_bytes as f64,
                    bytes_read: remat_bytes as f64,
                    bytes_written: remat_bytes as f64,
                },
                efficiency: None,
                working_set: remat_bytes,
                fused_ops: 1,
                group: 0,
            });
        }
        let plan = plan_best_fit(&lives);
        if run.reinitialized {
            let (sl, st, alloc) = price_reinit(
                &self.compiled.profile,
                self.compiled.graph.num_nodes(),
                tp.alloc_sizes.len(),
                plan.peak,
            );
            trace.push(TraceEvent::Reinit { sl, st, alloc });
        }
        self.compiled
            .stats(run, tp.alloc_sizes.len(), trace, plan.peak)
    }
}
