//! The reference graph executor.
//!
//! Executes an extended computational graph on concrete input tensors,
//! one node at a time in the planned order, with every tensor on the heap:
//! it resolves `<Switch, Combine>` control flow (either natively — dead
//! branches are skipped — or in the baselines' "execute all paths, strip
//! invalid results" mode), accounts live intermediate memory, and emits
//! kernel [`TraceEvent`]s at fused-group granularity.
//!
//! The engine's production executor is the register-machine tape
//! ([`crate::tape`]); this interpreter is the serial reference the
//! baselines price and the differential suites check the tape against.
//! The pieces both executors share — fused chains, control-flow routing,
//! NaN fences, group cost accounting, variant selection — live here.

use crate::trace::{ExecutionTrace, TraceEvent};
use sod2_fusion::FusionPlan;
use sod2_ir::{ConstData, Graph, Node, NodeId, Op, TensorId};
use sod2_kernels::{
    execute_op_with_variants, fused::FusedStep, fused_elementwise, ConvParams, GemmParams,
    KernelError,
};
use sod2_mvc::VersionTable;
use sod2_tensor::{Data, Tensor};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Execution configuration.
#[derive(Default)]
pub struct ExecConfig<'a> {
    /// Fusion plan: members of a group execute as one accounted kernel and
    /// their internal tensors never count as materialized memory.
    pub fusion: Option<&'a FusionPlan>,
    /// Execution order from static execution planning (defaults to the
    /// graph's topological order).
    pub node_order: Option<&'a [NodeId]>,
    /// Multi-version kernel table: `MatMul`/`Gemm`/`Conv` pick a tuned
    /// variant by output shape.
    pub version_table: Option<&'a VersionTable>,
    /// Execute every `Switch` branch and strip invalid results at
    /// `Combine` (the strategy of ORT/MNN/TVM-N per the paper §5).
    pub execute_all_branches: bool,
    /// Execute eligible fused groups through the single-pass fused
    /// element-wise interpreter (`sod2_kernels::fused`): intermediates are
    /// genuinely never materialized, not just unaccounted. Off, every
    /// member runs node-wise — the oracle the chains are tested against.
    pub fused_interpreter: bool,
    /// Scan tensors for non-finite values and fail with
    /// [`ExecError::NumericFault`] instead of returning poisoned results
    /// (catches injected `kernel.nan` faults and real divergence alike).
    /// The fence runs per node as results commit — poison is caught at the
    /// operator that produced it — plus once over the graph inputs and
    /// once over the final outputs.
    pub nan_guard: bool,
    /// Per-tensor proven-finite flags from the abstract interpretation
    /// (`sod2_analysis::Certificates::finite`, indexed by `TensorId.0`).
    /// A proven-finite tensor's per-node fence cannot fire, so the scan is
    /// skipped (counted in `absint.guard_elisions`). The input fence makes
    /// the proof's finite-inputs premise hold at runtime.
    pub finite_outputs: Option<&'a [bool]>,
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
    /// Arena-backed memory was corrupted (an unsound offset plan aliased
    /// two simultaneously live tensors).
    Memory(String),
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
            ExecError::Memory(s) => write!(f, "memory: {s}"),
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

/// The result of one inference.
#[derive(Debug)]
pub struct RunOutcome {
    /// Output tensors, in `graph.outputs()` order.
    pub outputs: Vec<Tensor>,
    /// Kernel-only execution trace (engines add their overhead events).
    pub trace: ExecutionTrace,
    /// Peak bytes of simultaneously live materialized intermediates.
    pub peak_live_bytes: usize,
    /// Sizes (bytes) of every heap-allocated intermediate tensor, in
    /// allocation order — the allocation stream engines price.
    pub alloc_sizes: Vec<usize>,
    /// Concrete shape of every tensor that was produced.
    pub concrete_shapes: HashMap<TensorId, Vec<usize>>,
    /// How many `Switch` branches executed (live + dead-but-executed).
    pub branches_executed: usize,
    /// How many materialized intermediates were served from the arena slab
    /// instead of the heap (always 0 in the heap-only reference).
    pub arena_backed: usize,
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

/// Closes a run: re-checks the deadline (an expiry inside the last node's
/// pool region skipped chunk bodies with no later node boundary to catch
/// it, so expired runs never return outputs) and publishes the run's
/// memory and control-flow counters.
pub(crate) fn finish_run(
    peak: usize,
    alloc_sizes: &[usize],
    arena_backed: usize,
    branches_executed: usize,
) -> Result<(), ExecError> {
    if sod2_pool::deadline_exceeded() {
        return Err(ExecError::DeadlineExceeded);
    }
    sod2_obs::gauge_max("exec.peak_live_bytes", peak as u64);
    sod2_obs::counter_add("exec.heap_fallback_allocs", alloc_sizes.len() as u64);
    sod2_obs::counter_add(
        "exec.heap_fallback_bytes",
        alloc_sizes.iter().map(|&b| b as u64).sum(),
    );
    sod2_obs::counter_add("exec.arena_backed", arena_backed as u64);
    sod2_obs::counter_add("exec.branches_executed", branches_executed as u64);
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

/// Per-node NaN fence with the proven-finite bit already resolved:
/// scans a freshly committed f32 result for non-finite values unless the
/// certificate says the tensor is provably finite (the elision the
/// abstract interpretation pays for).
pub(crate) fn fence_value(
    nan_guard: bool,
    finite: bool,
    node_name: &str,
    t: TensorId,
    tensor: &Tensor,
) -> Result<(), ExecError> {
    if !nan_guard {
        return Ok(());
    }
    if finite {
        sod2_obs::counter_add("absint.guard_elisions", 1);
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

/// Adds a freshly materialized tensor to live memory, raising the peak
/// and enforcing the runtime budget rung.
pub(crate) fn charge_live(
    live_bytes: &mut usize,
    peak: &mut usize,
    bytes: usize,
    budget: Option<usize>,
) -> Result<(), ExecError> {
    *live_bytes += bytes;
    *peak = (*peak).max(*live_bytes);
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

/// Cost accumulated by one fusion group as its members commit; the group
/// emits one kernel trace event when its last member retires.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupAcc {
    /// Flops of every countable member.
    pub(crate) flops: f64,
    /// Countable (live, non-control-flow) members so far.
    pub(crate) ops: usize,
    /// Lowest tuned-variant efficiency among the group's hotspot members.
    pub(crate) eff: Option<f64>,
    /// Bytes read from tensors produced outside the group.
    pub(crate) ext_read: f64,
    /// Bytes written to tensors that leave the group.
    pub(crate) ext_write: f64,
}

impl GroupAcc {
    /// Folds a hotspot member's tuned-variant efficiency (looked up by its
    /// first live output) into the group's.
    pub(crate) fn note_efficiency(
        &mut self,
        table: Option<&VersionTable>,
        op: &Op,
        first_out: Option<&Tensor>,
    ) {
        let (Some(table), Some(out)) = (table, first_out) else {
            return;
        };
        if let Some((m, n)) = hotspot_mn(op, out) {
            let e = match op {
                Op::Conv2d { .. } => table.conv_efficiency_of(m, n),
                _ => table.efficiency(m, n),
            };
            self.eff = Some(self.eff.map_or(e, |prev| prev.min(e)));
        }
    }

    /// The group's kernel trace event.
    pub(crate) fn event(&self, name: String, working_set: usize, group: usize) -> TraceEvent {
        TraceEvent::Kernel {
            name,
            cost: sod2_device::OpCost {
                flops: self.flops,
                bytes_read: self.ext_read,
                bytes_written: self.ext_write,
            },
            efficiency: self.eff,
            working_set,
            fused_ops: self.ops,
            group,
        }
    }
}

/// Executes a graph on concrete inputs: the serial, heap-only reference.
///
/// # Errors
///
/// Returns [`ExecError`] on kernel failures, input mismatches, malformed
/// control flow, an expired deadline, an exceeded memory budget, or a
/// tripped NaN fence.
pub fn execute(
    graph: &Graph,
    inputs: &[Tensor],
    cfg: &ExecConfig<'_>,
) -> Result<RunOutcome, ExecError> {
    check_inputs(graph, inputs, cfg.nan_guard)?;
    let mut env: Vec<Slot> = vec![Slot::Missing; graph.num_tensors()];
    for (t, tensor) in const_tensors(graph)? {
        env[t.0 as usize] = Slot::Live(tensor);
    }
    for (&t, tensor) in graph.inputs().iter().zip(inputs) {
        env[t.0 as usize] = Slot::Live(tensor.clone());
    }

    let default_order;
    let order: &[NodeId] = match cfg.node_order {
        Some(o) => o,
        None => {
            default_order = graph.topo_order();
            &default_order
        }
    };
    let internal: HashSet<TensorId> = cfg
        .fusion
        .map(|f| f.internal_tensors(graph))
        .unwrap_or_default();
    let (chain_member, chains) = match (cfg.fused_interpreter, cfg.fusion) {
        (true, Some(f)) => build_chains(graph, f),
        _ => (HashMap::new(), Vec::new()),
    };
    // Refcounts for live-memory accounting: one per consumer *occurrence*
    // (a node listing a tensor twice counts twice, matching the
    // per-occurrence decrements of the release path) plus one for graph
    // outputs, which are held to the end of the run.
    let consumer_index = graph.consumer_index();
    let mut remaining_uses = vec![0u32; graph.num_tensors()];
    for t in graph.tensor_ids() {
        let n = consumer_index.get(&t).map(Vec::len).unwrap_or(0);
        remaining_uses[t.0 as usize] = (n + usize::from(graph.outputs().contains(&t))) as u32;
    }
    // Group nodes by fusion unit, preserving the given order: a unit's
    // kernel event is emitted when its last member completes.
    let mut group_members_left: HashMap<usize, usize> = HashMap::new();
    for &n in order {
        *group_members_left.entry(group_of(cfg, n)).or_insert(0) += 1;
    }

    let mut st = ExecState {
        env,
        chain_results: vec![None; chains.len()],
        remaining_uses,
        group_members_left,
        groups: HashMap::new(),
        trace: ExecutionTrace::new(),
        live_bytes: 0,
        peak: 0,
        alloc_sizes: Vec::new(),
        concrete_shapes: HashMap::new(),
        branches_executed: 0,
    };
    for &nid in order {
        commit_node(graph, cfg, &internal, &chain_member, &chains, &mut st, nid)?;
    }

    finish_run(st.peak, &st.alloc_sizes, 0, st.branches_executed)?;
    let _outputs_span = sod2_obs::span!("mem", "outputs readback");
    let outputs = graph
        .outputs()
        .iter()
        .map(|&t| match &st.env[t.0 as usize] {
            Slot::Live(ten) => Ok(ten.clone()),
            _ => Err(ExecError::ControlFlow(format!(
                "graph output {t} was never produced (dead branch?)"
            ))),
        })
        .collect::<Result<Vec<Tensor>, ExecError>>()?;
    fence_outputs(cfg.nan_guard, &outputs)?;
    Ok(RunOutcome {
        outputs,
        trace: st.trace,
        peak_live_bytes: st.peak,
        alloc_sizes: st.alloc_sizes,
        concrete_shapes: st.concrete_shapes,
        branches_executed: st.branches_executed,
        arena_backed: 0,
    })
}

/// The fusion group a node belongs to (its own id without a plan).
fn group_of(cfg: &ExecConfig<'_>, n: NodeId) -> usize {
    match cfg.fusion {
        Some(f) => f.group_of(n),
        None => n.0 as usize,
    }
}

/// Mutable reference-executor state, mutated only by [`commit_node`].
struct ExecState {
    env: Vec<Slot>,
    // Per-chain runtime state: computed final tensor or observed deadness.
    chain_results: Vec<Option<Option<Tensor>>>,
    remaining_uses: Vec<u32>,
    group_members_left: HashMap<usize, usize>,
    groups: HashMap<usize, GroupAcc>,
    trace: ExecutionTrace,
    live_bytes: usize,
    peak: usize,
    alloc_sizes: Vec<usize>,
    concrete_shapes: HashMap<TensorId, Vec<usize>>,
    branches_executed: usize,
}

impl ExecState {
    /// Fences, records, accounts, and publishes one live result.
    fn install(
        &mut self,
        cfg: &ExecConfig<'_>,
        node_name: &str,
        t: TensorId,
        materialized: bool,
        tensor: Tensor,
    ) -> Result<(), ExecError> {
        let finite = cfg
            .finite_outputs
            .and_then(|f| f.get(t.0 as usize).copied())
            .unwrap_or(false);
        fence_value(cfg.nan_guard, finite, node_name, t, &tensor)?;
        self.concrete_shapes.insert(t, tensor.shape().to_vec());
        if materialized {
            let b = tensor.byte_size();
            self.alloc_sizes.push(b);
            charge_live(&mut self.live_bytes, &mut self.peak, b, cfg.memory_budget)?;
        }
        self.env[t.0 as usize] = Slot::Live(tensor);
        Ok(())
    }

    /// Decrements the remaining-use counts of a node's inputs, releasing
    /// slots whose uses are exhausted, and retires the node from its
    /// group; returns the members the group has left.
    fn retire(
        &mut self,
        graph: &Graph,
        internal: &HashSet<TensorId>,
        node: &Node,
        gid: usize,
    ) -> Result<usize, ExecError> {
        for &t in &node.inputs {
            let uses = self
                .remaining_uses
                .get_mut(t.0 as usize)
                .ok_or_else(|| ExecError::Internal(format!("untracked tensor {t} released")))?;
            *uses = uses.saturating_sub(1);
            if *uses == 0 {
                let is_intermediate = graph.producer(t).is_some() && !internal.contains(&t);
                let is_output = graph.outputs().contains(&t);
                release_slot(
                    t,
                    is_intermediate,
                    is_output,
                    &mut self.env,
                    &mut self.live_bytes,
                );
            }
        }
        let left = self
            .group_members_left
            .get_mut(&gid)
            .ok_or_else(|| ExecError::Internal(format!("group {gid} missing from accounting")))?;
        *left -= 1;
        Ok(*left)
    }
}

/// Commits one node: evaluate, account cost, install results, release
/// exhausted inputs, and emit the group kernel event when its last member
/// retires.
fn commit_node(
    graph: &Graph,
    cfg: &ExecConfig<'_>,
    internal: &HashSet<TensorId>,
    chain_member: &HashMap<NodeId, usize>,
    chains: &[ChainPlan],
    st: &mut ExecState,
    nid: NodeId,
) -> Result<(), ExecError> {
    // Cooperative cancellation at node granularity: one thread-local
    // read when no deadline is installed.
    if sod2_pool::deadline_exceeded() {
        return Err(ExecError::DeadlineExceeded);
    }
    let node = graph.node(nid);
    let gid = group_of(cfg, nid);
    // Per-operator kernel span: covers execution, result installation,
    // and input release, all attributable to this operator. Fused-chain
    // mid-members do negligible work inside theirs.
    let _kernel_span = sod2_obs::span!("kernel", "{}", node.name);
    // Fused-chain members bypass per-node execution entirely.
    if let Some(&cidx) = chain_member.get(&nid) {
        let chain = &chains[cidx];
        if nid == chain.members[0] {
            // Execute (or kill) the whole chain once, at its head.
            let ev = eval_chain(st.env.as_slice(), chain)?;
            if let Some(event) = ev.event(chain.members.len(), st.live_bytes, gid) {
                st.trace.push(event);
            }
            st.chain_results[cidx] = Some(ev.result);
        }
        // Install only the final output; mid-members stay immaterial.
        let tail = *chain
            .members
            .last()
            .ok_or_else(|| ExecError::Internal("fused chain with no members".into()))?;
        if nid == tail {
            let result = st.chain_results[cidx]
                .clone()
                .ok_or_else(|| ExecError::Internal("fused chain tail ran before head".into()))?;
            match result {
                Some(tensor) => st.install(cfg, &node.name, chain.final_output, true, tensor)?,
                None => st.env[chain.final_output.0 as usize] = Slot::Dead,
            }
        } else if matches!(st.chain_results[cidx], Some(None)) {
            // Dead chain: every member output is dead.
            for &t in &node.outputs {
                st.env[t.0 as usize] = Slot::Dead;
            }
        }
        st.retire(graph, internal, node, gid)?;
        return Ok(());
    }
    // Propagate deadness (Combine handles its own).
    let dead = !matches!(node.op, Op::Combine { .. })
        && node
            .inputs
            .iter()
            .any(|&t| matches!(st.env[t.0 as usize], Slot::Dead));
    // Per-output results: `None` marks a dead branch output.
    let results = if dead {
        vec![None; node.outputs.len()]
    } else {
        run_node(node, st.env.as_slice(), cfg, &mut st.branches_executed)?
    };

    // Account flops and efficiency before moving results into env.
    if results.iter().any(Option::is_some) && !node.op.is_control_flow() {
        let in_shapes: Vec<Vec<usize>> = node
            .inputs
            .iter()
            .map(|&t| match &st.env[t.0 as usize] {
                Slot::Live(ten) => ten.shape().to_vec(),
                _ => Vec::new(),
            })
            .collect();
        let out_shapes: Vec<Vec<usize>> = results
            .iter()
            .flatten()
            .map(|t| t.shape().to_vec())
            .collect();
        let cost = sod2_device::op_cost(&node.op, &in_shapes, &out_shapes, 4);
        let acc = st.groups.entry(gid).or_default();
        acc.flops += cost.flops;
        acc.ops += 1;
        // External reads: inputs produced outside the group.
        for &t in &node.inputs {
            let external = graph.producer(t).is_none_or(|p| group_of(cfg, p) != gid);
            if let (true, Slot::Live(ten)) = (external, &st.env[t.0 as usize]) {
                acc.ext_read += ten.byte_size() as f64;
            }
        }
        for (k, ten) in results.iter().enumerate() {
            if let Some(ten) = ten {
                if !internal.contains(&node.outputs[k]) {
                    acc.ext_write += ten.byte_size() as f64;
                }
            }
        }
        // Multi-version selection for hotspot ops.
        acc.note_efficiency(cfg.version_table, &node.op, results.iter().flatten().next());
    }

    for (k, result) in results.into_iter().enumerate() {
        let t = node.outputs[k];
        match result {
            Some(tensor) => st.install(cfg, &node.name, t, !internal.contains(&t), tensor)?,
            None => st.env[t.0 as usize] = Slot::Dead,
        }
    }

    if st.retire(graph, internal, node, gid)? == 0 {
        if let Some(acc) = st.groups.get(&gid).filter(|a| a.ops > 0) {
            st.trace
                .push(acc.event(node.name.clone(), st.live_bytes, gid));
        }
    }
    Ok(())
}

/// One step of a pre-planned fused chain (operand held by tensor id).
#[derive(Debug, Clone)]
pub(crate) enum ChainStep {
    Unary(sod2_ir::UnaryOp),
    Clip {
        min: f32,
        max: f32,
    },
    Binary {
        op: sod2_ir::BinaryOp,
        other: TensorId,
        chain_is_lhs: bool,
    },
}

/// A fused-group execution plan: a linear element-wise chain.
#[derive(Debug, Clone)]
pub(crate) struct ChainPlan {
    pub(crate) members: Vec<NodeId>,
    pub(crate) seed: TensorId,
    pub(crate) steps: Vec<ChainStep>,
    pub(crate) final_output: TensorId,
}

/// Identifies fusion groups executable as single-pass element-wise chains:
/// every member is a unary/clip/binary f32 operator, each member consumes
/// the previous member's output, and all other operands come from outside
/// the group.
pub(crate) fn build_chains(
    graph: &Graph,
    fusion: &FusionPlan,
) -> (HashMap<NodeId, usize>, Vec<ChainPlan>) {
    let mut member_of: HashMap<NodeId, usize> = HashMap::new();
    let mut plans: Vec<ChainPlan> = Vec::new();
    'groups: for group in &fusion.groups {
        if group.nodes.len() < 2 {
            continue;
        }
        let mut steps: Vec<ChainStep> = Vec::new();
        let mut seed: Option<TensorId> = None;
        let mut prev_out: Option<TensorId> = None;
        for (i, &nid) in group.nodes.iter().enumerate() {
            let node = graph.node(nid);
            if node.outputs.len() != 1 || graph.tensor(node.outputs[0]).dtype != sod2_ir::DType::F32
            {
                continue 'groups;
            }
            // Determine the chain input for members after the first.
            let chain_in = prev_out;
            let step = match &node.op {
                Op::Unary(u) => {
                    if i == 0 {
                        seed = Some(node.inputs[0]);
                    } else if Some(node.inputs[0]) != chain_in {
                        continue 'groups;
                    }
                    ChainStep::Unary(*u)
                }
                Op::Clip { min, max } => {
                    if i == 0 {
                        seed = Some(node.inputs[0]);
                    } else if Some(node.inputs[0]) != chain_in {
                        continue 'groups;
                    }
                    ChainStep::Clip {
                        min: *min,
                        max: *max,
                    }
                }
                Op::Binary(b) => {
                    let (other, lhs) = if i == 0 {
                        seed = Some(node.inputs[0]);
                        (node.inputs[1], true)
                    } else if Some(node.inputs[0]) == chain_in {
                        (node.inputs[1], true)
                    } else if Some(node.inputs[1]) == chain_in {
                        (node.inputs[0], false)
                    } else {
                        continue 'groups;
                    };
                    // Operand must come from outside the group and be f32.
                    if graph.tensor(other).dtype != sod2_ir::DType::F32 {
                        continue 'groups;
                    }
                    if let Some(p) = graph.producer(other) {
                        if group.nodes.contains(&p) {
                            continue 'groups;
                        }
                    }
                    ChainStep::Binary {
                        op: *b,
                        other,
                        chain_is_lhs: lhs,
                    }
                }
                _ => continue 'groups,
            };
            steps.push(step);
            prev_out = Some(node.outputs[0]);
        }
        let Some(seed) = seed else { continue };
        let Some(final_output) = prev_out else {
            continue;
        };
        if graph.tensor(seed).dtype != sod2_ir::DType::F32 {
            continue;
        }
        let idx = plans.len();
        for &nid in &group.nodes {
            member_of.insert(nid, idx);
        }
        plans.push(ChainPlan {
            members: group.nodes.clone(),
            seed,
            steps,
            final_output,
        });
    }
    (member_of, plans)
}

/// The outcome of evaluating a fused chain: the final tensor (`None` when
/// an input branch was dead) plus the cost attribution its trace event
/// needs.
pub(crate) struct ChainEval {
    pub(crate) result: Option<Tensor>,
    pub(crate) flops: f64,
    pub(crate) ext_read: f64,
}

impl ChainEval {
    /// The chain's fused kernel event (`None` for a dead chain), with the
    /// working set measured before any member releases.
    pub(crate) fn event(
        &self,
        members: usize,
        live_bytes: usize,
        group: usize,
    ) -> Option<TraceEvent> {
        let out = self.result.as_ref()?;
        Some(TraceEvent::Kernel {
            name: format!("fused[{members}]"),
            cost: sod2_device::OpCost {
                flops: self.flops,
                bytes_read: self.ext_read,
                bytes_written: out.byte_size() as f64,
            },
            efficiency: None,
            working_set: live_bytes + out.byte_size(),
            fused_ops: members,
            group,
        })
    }
}

/// Evaluates (or kills) a whole fused chain. Pure: reads tensors through
/// the view, produces an owned result.
pub(crate) fn eval_chain<V: SlotView + ?Sized>(
    env: &V,
    chain: &ChainPlan,
) -> Result<ChainEval, ExecError> {
    let mut dead = matches!(env.slot(chain.seed), Slot::Dead);
    for st in &chain.steps {
        if let ChainStep::Binary { other, .. } = st {
            dead |= matches!(env.slot(*other), Slot::Dead);
        }
    }
    if dead {
        return Ok(ChainEval {
            result: None,
            flops: 0.0,
            ext_read: 0.0,
        });
    }
    let unavailable = |what: &str, t: TensorId| {
        ExecError::ControlFlow(format!("fused chain {what} {t} unavailable"))
    };
    let seed = live(env, chain.seed).map_err(|_| unavailable("seed", chain.seed))?;
    let mut steps: Vec<FusedStep<'_>> = Vec::with_capacity(chain.steps.len());
    let mut ext_read = seed.byte_size() as f64;
    let mut flops_per_elem = 0.0f64;
    for st in &chain.steps {
        steps.push(match st {
            ChainStep::Unary(u) => {
                flops_per_elem += 4.0;
                FusedStep::Unary(*u)
            }
            ChainStep::Clip { min, max } => {
                flops_per_elem += 1.0;
                FusedStep::Clip {
                    min: *min,
                    max: *max,
                }
            }
            ChainStep::Binary {
                op,
                other,
                chain_is_lhs,
            } => {
                flops_per_elem += 1.0;
                let t = live(env, *other).map_err(|_| unavailable("operand", *other))?;
                ext_read += t.byte_size() as f64;
                FusedStep::Binary {
                    op: *op,
                    other: t,
                    chain_is_lhs: *chain_is_lhs,
                }
            }
        });
    }
    let out = fused_elementwise(seed, &steps)?;
    Ok(ChainEval {
        flops: flops_per_elem * out.numel() as f64,
        ext_read,
        result: Some(out),
    })
}

/// Output-matrix dimensions for multi-version hotspot kernels, from the
/// first output.
fn hotspot_mn(op: &Op, out: &Tensor) -> Option<(usize, usize)> {
    let s = out.shape();
    match op {
        Op::MatMul | Op::Gemm { .. } if s.len() >= 2 => Some((s[s.len() - 2], s[s.len() - 1])),
        Op::Conv2d { .. } if s.len() == 4 => Some((s[1], s[2] * s[3])),
        _ => None,
    }
}

/// `Switch` over slots: routes the data tensor to the selected branch
/// output — to every output in execute-all mode — and marks the rest dead.
/// Returns the per-output results and the branches executed.
pub(crate) fn eval_switch<V: SlotView + ?Sized>(
    env: &V,
    inputs: &[TensorId],
    num_branches: usize,
    execute_all: bool,
) -> Result<(Vec<Option<Tensor>>, usize), ExecError> {
    let data = live(env, inputs[0])?;
    let sel = selector(live(env, inputs[1])?, num_branches)?;
    let out = (0..num_branches)
        .map(|k| (execute_all || k == sel).then(|| data.clone()))
        .collect();
    Ok((out, if execute_all { num_branches } else { 1 }))
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

/// Evaluates one plain node against the committed environment.
fn run_node(
    node: &Node,
    env: &[Slot],
    cfg: &ExecConfig<'_>,
    branches_executed: &mut usize,
) -> Result<Vec<Option<Tensor>>, ExecError> {
    match &node.op {
        Op::Switch { num_branches } => {
            let (out, branches) =
                eval_switch(env, &node.inputs, *num_branches, cfg.execute_all_branches)?;
            *branches_executed += branches;
            Ok(out)
        }
        Op::Combine { num_branches } => Ok(vec![eval_combine(env, &node.inputs, *num_branches)?]),
        op => {
            let ins = node
                .inputs
                .iter()
                .map(|&t| live(env, t))
                .collect::<Result<Vec<&Tensor>, ExecError>>()?;
            let (gemm, conv) = select_variants(op, &ins, cfg.version_table);
            let outs = execute_op_with_variants(op, &ins, gemm, conv)?;
            Ok(outs.into_iter().map(Some).collect())
        }
    }
}

/// Chooses the tuned GEMM/CONV variants for a hotspot op from its *input*
/// shapes (runtime version selection, paper §4.4.2).
pub(crate) fn select_variants(
    op: &Op,
    ins: &[&Tensor],
    table: Option<&VersionTable>,
) -> (GemmParams, ConvParams) {
    let defaults = (GemmParams::default(), ConvParams::default());
    let Some(table) = table else {
        if matches!(op, Op::MatMul | Op::Gemm { .. } | Op::Conv2d { .. }) {
            sod2_obs::counter_add("mvc.version_defaults", 1);
        }
        return defaults;
    };
    match op {
        Op::MatMul => {
            let a = ins[0].shape();
            let b = ins[1].shape();
            if a.len() >= 2 && b.len() >= 2 {
                sod2_obs::counter_add("mvc.version_hits", 1);
                return (table.select(a[a.len() - 2], b[b.len() - 1]), defaults.1);
            }
            sod2_obs::counter_add("mvc.version_defaults", 1);
            defaults
        }
        Op::Gemm { trans_a, trans_b } => {
            let a = ins[0].shape();
            let b = ins[1].shape();
            if a.len() == 2 && b.len() == 2 {
                let m = if *trans_a { a[1] } else { a[0] };
                let n = if *trans_b { b[0] } else { b[1] };
                sod2_obs::counter_add("mvc.version_hits", 1);
                return (table.select(m, n), defaults.1);
            }
            sod2_obs::counter_add("mvc.version_defaults", 1);
            defaults
        }
        Op::Conv2d { spatial, .. } => {
            let x = ins[0].shape();
            let w = ins[1].shape();
            if x.len() == 4 && w.len() == 4 {
                let co = w[0];
                let oh = spatial.out_extent(0, x[2] as i64).max(1) as usize;
                let ow = spatial.out_extent(1, x[3] as i64).max(1) as usize;
                sod2_obs::counter_add("mvc.version_hits", 1);
                return (defaults.0, table.select_conv(co, oh * ow));
            }
            sod2_obs::counter_add("mvc.version_defaults", 1);
            defaults
        }
        _ => defaults,
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
