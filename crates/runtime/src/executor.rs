//! The reference graph executor.
//!
//! Executes an extended computational graph on concrete input tensors,
//! one node at a time in topological order, with every tensor on the heap:
//! it resolves `<Switch, Combine>` control flow (either natively — dead
//! branches are skipped — or in the baselines' "execute all paths, strip
//! invalid results" mode), selects tuned kernel variants, fences NaNs, and
//! enforces the memory budget over live node outputs. It plans, fuses and
//! accounts nothing, and records no span or counter: it is the output
//! oracle the tape and the engines are checked against.
//!
//! The register-machine tape ([`crate::tape`]) is the only executor that
//! plans and fuses, and the only one [`crate::price_tape`] prices. The
//! pieces both executors share — control-flow routing, fences, live-byte
//! accounting, variant selection — live here.

use sod2_ir::{ConstData, Graph, Node, Op, TensorId};
use sod2_kernels::{execute_op_with_variants, ConvParams, GemmParams, KernelError};
use sod2_mvc::VersionTable;
use sod2_tensor::{Data, Tensor};
use std::collections::HashMap;
use std::fmt;

/// The run-time configuration both executors honor. Plan decisions —
/// fusion, order, chains, certificates — belong to a compiled tape.
#[derive(Default)]
pub struct ExecConfig<'a> {
    /// Multi-version kernel table: `MatMul`/`Gemm`/`Conv` pick a tuned
    /// variant by shape.
    pub version_table: Option<&'a VersionTable>,
    /// Execute every `Switch` branch and strip invalid results at
    /// `Combine` (the strategy of ORT/MNN/TVM-N per the paper §5).
    pub execute_all_branches: bool,
    /// Scan tensors for non-finite values and fail with
    /// [`ExecError::NumericFault`] instead of returning poisoned results
    /// (catches injected `kernel.nan` faults and real divergence alike).
    /// The fence runs per node as results commit — poison is caught at the
    /// operator that produced it — plus once over the graph inputs and
    /// once over the final outputs.
    pub nan_guard: bool,
    /// Cap (bytes) on simultaneously live materialized intermediates,
    /// checked as tensors are installed: exceeding it aborts the run with
    /// [`ExecError::BudgetExceeded`]. This is the runtime rung of budget
    /// enforcement — the engine also rejects over-budget DMP plans before
    /// execution starts.
    pub memory_budget: Option<usize>,
}

/// Execution errors.
#[derive(Debug)]
pub enum ExecError {
    /// A kernel failed.
    Kernel(KernelError),
    /// Wrong number or dtype of graph inputs.
    BadInputs(String),
    /// Control flow was malformed at runtime (bad selector, dead output).
    ControlFlow(String),
    /// The cooperative per-inference deadline passed before completion
    /// (see [`sod2_pool::with_deadline`]); partial results are discarded.
    DeadlineExceeded,
    /// The inference's memory needs exceed the configured budget.
    BudgetExceeded {
        /// Bytes the inference would need.
        needed: usize,
        /// The configured cap.
        budget: usize,
    },
    /// A kernel or pool chunk panicked; the unwind was caught and converted
    /// so the engine stays usable.
    Panic(String),
    /// A non-finite value reached an output while the NaN guard was on.
    NumericFault(String),
    /// An internal executor invariant failed — a bug surfaced as a typed
    /// error instead of a panic.
    Internal(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Kernel(e) => write!(f, "kernel error: {e}"),
            ExecError::BadInputs(s) => write!(f, "bad inputs: {s}"),
            ExecError::ControlFlow(s) => write!(f, "control flow: {s}"),
            ExecError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ExecError::BudgetExceeded { needed, budget } => {
                write!(
                    f,
                    "memory budget exceeded: need {needed} bytes, cap {budget}"
                )
            }
            ExecError::Panic(s) => write!(f, "panic during execution: {s}"),
            ExecError::NumericFault(s) => write!(f, "numeric fault: {s}"),
            ExecError::Internal(s) => write!(f, "internal invariant violated: {s}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<KernelError> for ExecError {
    fn from(e: KernelError) -> Self {
        ExecError::Kernel(e)
    }
}

/// What one reference run observed.
#[derive(Debug)]
pub struct ReferenceRun {
    /// Output tensors, in `graph.outputs()` order.
    pub outputs: Vec<Tensor>,
    /// Concrete shape of every tensor that was produced.
    pub concrete_shapes: HashMap<TensorId, Vec<usize>>,
    /// Peak bytes of simultaneously live node outputs.
    pub peak_live_bytes: usize,
}

/// One tensor slot (= tape register) of an executing graph.
#[derive(Clone)]
pub(crate) enum Slot {
    Missing,
    Live(Tensor),
    Dead,
}

/// Read access to tensor slots: the committed environment itself, or the
/// tape's wave-phase view of it through a unit-local overlay.
pub(crate) trait SlotView {
    /// The slot of tensor `t`.
    fn slot(&self, t: TensorId) -> &Slot;
}

impl SlotView for [Slot] {
    fn slot(&self, t: TensorId) -> &Slot {
        &self[t.0 as usize]
    }
}

/// The live tensor in `t`'s slot, or the control-flow error naming why
/// there is none.
pub(crate) fn live<V: SlotView + ?Sized>(env: &V, t: TensorId) -> Result<&Tensor, ExecError> {
    match env.slot(t) {
        Slot::Live(ten) => Ok(ten),
        Slot::Dead => Err(ExecError::ControlFlow(format!("{t} is dead"))),
        Slot::Missing => Err(ExecError::ControlFlow(format!("{t} was never produced"))),
    }
}

/// Converts an IR constant payload into a runtime tensor.
pub(crate) fn const_tensor(shape: &[i64], data: &ConstData) -> Tensor {
    let dims: Vec<usize> = shape.iter().map(|&d| d as usize).collect();
    let payload = match data {
        ConstData::F32(v) => Data::F32(v.clone()),
        ConstData::I64(v) => Data::I64(v.clone()),
        ConstData::Bool(v) => Data::Bool(v.clone()),
        ConstData::U8(v) => Data::U8(v.clone()),
    };
    // Invariant: `sod2_ir::validate` checks every constant's payload length
    // against its declared shape before a graph reaches the executor.
    #[allow(clippy::expect_used)]
    Tensor::new(&dims, payload).expect("validated const payload")
}

/// Every constant of the graph as a prebuilt tensor.
pub(crate) fn const_tensors(graph: &Graph) -> Result<Vec<(TensorId, Tensor)>, ExecError> {
    let mut out = Vec::new();
    for t in graph.tensor_ids() {
        let info = graph.tensor(t);
        if let Some(data) = &info.const_data {
            let shape = info
                .shape
                .as_known()
                .ok_or_else(|| ExecError::BadInputs("constant with unknown shape".into()))?;
            out.push((t, const_tensor(&shape, data)));
        }
    }
    Ok(out)
}

/// Checks the input count and, under the NaN guard, fences the graph
/// inputs: the guard's contract (and the finite-inputs premise behind
/// certificate-based elision) starts at the boundary.
pub(crate) fn check_inputs(
    graph: &Graph,
    inputs: &[Tensor],
    nan_guard: bool,
) -> Result<(), ExecError> {
    if inputs.len() != graph.inputs().len() {
        return Err(ExecError::BadInputs(format!(
            "expected {} inputs, got {}",
            graph.inputs().len(),
            inputs.len()
        )));
    }
    if nan_guard {
        for (&t, tensor) in graph.inputs().iter().zip(inputs) {
            if let Ok(v) = tensor.as_f32() {
                if !v.iter().all(|x| x.is_finite()) {
                    return Err(ExecError::NumericFault(format!(
                        "non-finite value in graph input {t}"
                    )));
                }
            }
        }
    }
    Ok(())
}

/// The output NaN fence: no poisoned result leaves a guarded run.
pub(crate) fn fence_outputs(nan_guard: bool, outputs: &[Tensor]) -> Result<(), ExecError> {
    if nan_guard {
        for (i, out) in outputs.iter().enumerate() {
            if let Ok(v) = out.as_f32() {
                if !v.iter().all(|x| x.is_finite()) {
                    return Err(ExecError::NumericFault(format!(
                        "non-finite value in output {i}"
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Per-node NaN fence: under the guard, scans a freshly committed f32
/// result for non-finite values.
pub(crate) fn fence_value(
    nan_guard: bool,
    node_name: &str,
    t: TensorId,
    tensor: &Tensor,
) -> Result<(), ExecError> {
    if !nan_guard {
        return Ok(());
    }
    if let Ok(v) = tensor.as_f32() {
        if !v.iter().all(|x| x.is_finite()) {
            return Err(ExecError::NumericFault(format!(
                "non-finite value in output {t} of node '{node_name}'"
            )));
        }
    }
    Ok(())
}

/// Adds a freshly materialized tensor to live memory, enforcing the
/// runtime budget rung.
pub(crate) fn charge_live(
    live_bytes: &mut usize,
    bytes: usize,
    budget: Option<usize>,
) -> Result<(), ExecError> {
    *live_bytes += bytes;
    match budget {
        Some(budget) if *live_bytes > budget => Err(ExecError::BudgetExceeded {
            needed: *live_bytes,
            budget,
        }),
        _ => Ok(()),
    }
}

/// Releases one tensor slot whose uses are exhausted: un-accounts a
/// materialized intermediate from live memory and clears the slot
/// (outputs are held to the end of the run; dead slots stay dead so later
/// readers still observe deadness).
pub(crate) fn release_slot(
    t: TensorId,
    is_intermediate: bool,
    is_output: bool,
    env: &mut [Slot],
    live_bytes: &mut usize,
) {
    let key = t.0 as usize;
    if is_intermediate {
        if let Slot::Live(ten) = &env[key] {
            *live_bytes = live_bytes.saturating_sub(ten.byte_size());
        }
    }
    if !is_output {
        env[key] = match env[key] {
            Slot::Dead => Slot::Dead,
            _ => Slot::Missing,
        };
    }
}

/// Executes a graph on concrete inputs: the serial, heap-only output
/// oracle. Nodes run one at a time in topological order; each output is
/// fenced, recorded and charged against the budget as it commits, and
/// released after its last use.
///
/// # Errors
///
/// Returns [`ExecError`] on kernel failures, input mismatches, malformed
/// control flow, an exceeded memory budget, or a tripped NaN fence.
pub fn execute(
    graph: &Graph,
    inputs: &[Tensor],
    cfg: &ExecConfig<'_>,
) -> Result<ReferenceRun, ExecError> {
    check_inputs(graph, inputs, cfg.nan_guard)?;
    let mut env: Vec<Slot> = vec![Slot::Missing; graph.num_tensors()];
    for (t, tensor) in const_tensors(graph)? {
        env[t.0 as usize] = Slot::Live(tensor);
    }
    for (&t, tensor) in graph.inputs().iter().zip(inputs) {
        env[t.0 as usize] = Slot::Live(tensor.clone());
    }
    let order = graph.topo_order();
    let releases = sod2_plan::plan_tape_layout(graph, &order).releases;
    let (mut live_bytes, mut peak) = (0usize, 0usize);
    let mut concrete_shapes = HashMap::new();
    for (&nid, released) in order.iter().zip(&releases) {
        let node = graph.node(nid);
        // Deadness propagates (Combine handles its own).
        let dead = !matches!(node.op, Op::Combine { .. })
            && node
                .inputs
                .iter()
                .any(|&t| matches!(env[t.0 as usize], Slot::Dead));
        let results = if dead {
            vec![None; node.outputs.len()]
        } else {
            run_node(node, &env, cfg)?
        };
        for (&t, result) in node.outputs.iter().zip(results) {
            let Some(tensor) = result else {
                env[t.0 as usize] = Slot::Dead;
                continue;
            };
            fence_value(cfg.nan_guard, &node.name, t, &tensor)?;
            concrete_shapes.insert(t, tensor.shape().to_vec());
            charge_live(&mut live_bytes, tensor.byte_size(), cfg.memory_budget)?;
            peak = peak.max(live_bytes);
            env[t.0 as usize] = Slot::Live(tensor);
        }
        for &t in released {
            let is_output = graph.outputs().contains(&t);
            release_slot(
                t,
                graph.producer(t).is_some(),
                is_output,
                &mut env,
                &mut live_bytes,
            );
        }
    }
    let outputs = graph
        .outputs()
        .iter()
        .map(|&t| output_of(&env, t).cloned())
        .collect::<Result<Vec<Tensor>, ExecError>>()?;
    fence_outputs(cfg.nan_guard, &outputs)?;
    Ok(ReferenceRun {
        outputs,
        concrete_shapes,
        peak_live_bytes: peak,
    })
}

/// The tensor a graph output's slot holds at the end of a run.
pub(crate) fn output_of(env: &[Slot], t: TensorId) -> Result<&Tensor, ExecError> {
    match &env[t.0 as usize] {
        Slot::Live(ten) => Ok(ten),
        _ => Err(ExecError::ControlFlow(format!(
            "graph output {t} was never produced (dead branch?)"
        ))),
    }
}

/// `Switch` over slots: routes the data tensor to the selected branch
/// output — to every output in execute-all mode — and marks the rest dead.
/// The live results are the branches executed.
pub(crate) fn eval_switch<V: SlotView + ?Sized>(
    env: &V,
    inputs: &[TensorId],
    num_branches: usize,
    execute_all: bool,
) -> Result<Vec<Option<Tensor>>, ExecError> {
    let data = live(env, inputs[0])?;
    let sel = selector(live(env, inputs[1])?, num_branches)?;
    Ok((0..num_branches)
        .map(|k| (execute_all || k == sel).then(|| data.clone()))
        .collect())
}

/// `Combine` over slots: publishes the selected branch's tensor. A dead
/// selector means the whole merge region sits inside an outer dead branch
/// (nested gating), so the merge result is dead.
pub(crate) fn eval_combine<V: SlotView + ?Sized>(
    env: &V,
    inputs: &[TensorId],
    num_branches: usize,
) -> Result<Option<Tensor>, ExecError> {
    if matches!(env.slot(inputs[num_branches]), Slot::Dead) {
        return Ok(None);
    }
    let sel = selector(live(env, inputs[num_branches])?, num_branches)?;
    Ok(Some(live(env, inputs[sel])?.clone()))
}

/// Evaluates one node against the committed environment.
fn run_node(
    node: &Node,
    env: &[Slot],
    cfg: &ExecConfig<'_>,
) -> Result<Vec<Option<Tensor>>, ExecError> {
    match &node.op {
        Op::Switch { num_branches } => {
            eval_switch(env, &node.inputs, *num_branches, cfg.execute_all_branches)
        }
        Op::Combine { num_branches } => Ok(vec![eval_combine(env, &node.inputs, *num_branches)?]),
        op => {
            let ins = node
                .inputs
                .iter()
                .map(|&t| live(env, t))
                .collect::<Result<Vec<&Tensor>, ExecError>>()?;
            let (gemm, conv) = select_variants(op, &ins, cfg.version_table).unwrap_or_default();
            let outs = execute_op_with_variants(op, &ins, gemm, conv)?;
            Ok(outs.into_iter().map(Some).collect())
        }
    }
}

/// Chooses the tuned GEMM/CONV variants for a hotspot op from its *input*
/// shapes (runtime version selection, paper §4.4.2). `None` means the
/// default kernels: no table, an op without variants, or a hotspot whose
/// operand ranks admit no selection.
pub(crate) fn select_variants(
    op: &Op,
    ins: &[&Tensor],
    table: Option<&VersionTable>,
) -> Option<(GemmParams, ConvParams)> {
    let table = table?;
    match op {
        Op::MatMul => {
            let (a, b) = (ins[0].shape(), ins[1].shape());
            (a.len() >= 2 && b.len() >= 2).then(|| {
                let gemm = table.select(a[a.len() - 2], b[b.len() - 1]);
                (gemm, ConvParams::default())
            })
        }
        Op::Gemm { trans_a, trans_b } => {
            let (a, b) = (ins[0].shape(), ins[1].shape());
            (a.len() == 2 && b.len() == 2).then(|| {
                let m = if *trans_a { a[1] } else { a[0] };
                let n = if *trans_b { b[0] } else { b[1] };
                (table.select(m, n), ConvParams::default())
            })
        }
        Op::Conv2d { spatial, .. } => {
            let (x, w) = (ins[0].shape(), ins[1].shape());
            (x.len() == 4 && w.len() == 4).then(|| {
                let oh = spatial.out_extent(0, x[2] as i64).max(1) as usize;
                let ow = spatial.out_extent(1, x[3] as i64).max(1) as usize;
                (GemmParams::default(), table.select_conv(w[0], oh * ow))
            })
        }
        _ => None,
    }
}

/// Reads a `Switch`/`Combine` selector and range-checks it.
fn selector(t: &Tensor, num_branches: usize) -> Result<usize, ExecError> {
    let sel = t
        .as_i64()
        .map_err(|e| ExecError::ControlFlow(e.to_string()))?
        .first()
        .copied()
        .ok_or_else(|| ExecError::ControlFlow("empty selector".into()))?;
    usize::try_from(sel)
        .ok()
        .filter(|&s| s < num_branches)
        .ok_or_else(|| {
            ExecError::ControlFlow(format!(
                "selector {sel} out of range for {num_branches} branches"
            ))
        })
}
