//! Register-machine execution tape: the engine's executor.
//!
//! Compiles a planned graph **once** into a flat instruction stream
//! executed by a thin VM loop — the Nimble-style answer to interpreter
//! overhead for dynamic models. Everything a node-wise interpreter
//! re-derives per inference is precompiled into per-instruction fields:
//!
//! - **registers**: the register file is a dense `Vec<Slot>` indexed by
//!   `TensorId`, so operand/result "slots" are plain indices and two
//!   concurrently-live tensors can never alias a register by
//!   construction. The DMP layout is keyed by the same indices.
//! - **releases**: the per-occurrence refcount discipline is replayed at
//!   compile time (`sod2_plan::plan_tape_layout`, which the reference
//!   shares), so each instruction carries the list of registers whose
//!   last use it is — zero refcounts, zero hashing at run time.
//! - **fused chains** become single [`InstrKind::Chain`] instructions
//!   with inlined member lists; `Switch`/`Combine` lower to
//!   [`InstrKind::Branch`]/[`InstrKind::Select`] over register indices.
//!
//! One serial loop dispatches the tape in the planned order (SEP's, for
//! the engine); kernels parallelize inside themselves on `sod2-pool`.
//!
//! The tape is immutable and intended to be `Arc`-shared across replicas;
//! the register file and the run record are per-inference. It is the only
//! executor that plans and fuses: the engine runs it with its full plan,
//! and the baselines, `diagnose` and the figures run it serially on the
//! heap with theirs. A run does only what execution needs — kernels,
//! dead-branch routing, releases, NaN fences honoring absint certificates,
//! deadline checks and the live-byte memory budget — and returns its
//! outputs plus a [`RunRecord`]. Pricing is a separate replay of that
//! record ([`crate::price_tape`]), off the request path. Outputs are
//! bitwise those of the reference [`crate::execute`] —
//! `tests/tape_props.rs`, `crates/frameworks/tests/tape_exec.rs` and
//! `bench_zoo` enforce it — and the replayed accounting is checked against
//! what the reference observes: every produced tensor, every live compute
//! node, and the live peak.

use crate::executor::{
    charge_live, check_inputs, const_tensors, eval_combine, eval_switch, fence_outputs,
    fence_value, live, output_of, release_slot, select_variants, ExecConfig, ExecError, Slot,
};
use sod2_fusion::FusionPlan;
use sod2_ir::{Graph, NodeId, Op, TensorId};
use sod2_kernels::{
    execute_op_with_variants, fused::FusedStep, fused_elementwise, ConvParams, GemmParams,
};
use sod2_mvc::VersionTable;
use sod2_rdp::RdpResult;
use sod2_sym::Bindings;
use sod2_tensor::Tensor;
use std::collections::HashMap;

/// The result of one tape run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Output tensors, in `graph.outputs()` order.
    pub outputs: Vec<Tensor>,
    /// What the run observed, for [`crate::price_tape`] to replay.
    pub record: RunRecord,
}

/// How a run left one register.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum RegState {
    /// Never written: a constant, a fusion-internal chain member, or a
    /// register the run did not reach.
    #[default]
    Absent,
    /// A graph input.
    Input,
    /// Produced by an instruction.
    Produced,
    /// Killed by a dead branch.
    Dead,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RegEntry {
    bytes: usize,
    start: u32,
    rank: u16,
    state: RegState,
}

/// What one tape run observed, for [`crate::price_tape`] to replay: per
/// register, whether it held a graph input, was produced or died on a dead
/// branch, with its shape and byte size; plus the branch count. Shapes
/// share one flat dims buffer and no tensor is held, so keeping a record
/// keeps no payload alive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunRecord {
    regs: Vec<RegEntry>,
    dims: Vec<usize>,
    /// How many `Switch` branches executed (live + dead-but-executed).
    pub branches_executed: usize,
}

impl RunRecord {
    fn new(registers: usize) -> Self {
        RunRecord {
            regs: vec![RegEntry::default(); registers],
            ..RunRecord::default()
        }
    }

    /// Records `t` as an input or a produced result with `tensor`'s shape.
    pub(crate) fn note(&mut self, t: TensorId, state: RegState, tensor: &Tensor) {
        self.regs[t.0 as usize] = RegEntry {
            bytes: tensor.byte_size(),
            start: self.dims.len() as u32,
            rank: tensor.rank() as u16,
            state,
        };
        self.dims.extend_from_slice(tensor.shape());
    }

    fn kill(&mut self, t: TensorId) {
        self.regs[t.0 as usize].state = RegState::Dead;
    }

    /// Whether an instruction produced `t`.
    pub fn produced(&self, t: TensorId) -> bool {
        self.regs[t.0 as usize].state == RegState::Produced
    }

    /// Byte size of `t` when the run took it as input or produced it, else 0.
    pub fn bytes(&self, t: TensorId) -> usize {
        match self.regs[t.0 as usize] {
            RegEntry {
                state: RegState::Input | RegState::Produced,
                bytes,
                ..
            } => bytes,
            _ => 0,
        }
    }

    /// Shape of `t` when the run took it as input or produced it.
    pub fn shape(&self, t: TensorId) -> Option<&[usize]> {
        let e = self.regs[t.0 as usize];
        matches!(e.state, RegState::Input | RegState::Produced)
            .then(|| &self.dims[e.start as usize..e.start as usize + e.rank as usize])
    }

    /// Concrete shape of every tensor an instruction produced.
    pub fn concrete_shapes(&self) -> HashMap<TensorId, Vec<usize>> {
        (0..self.regs.len() as u32)
            .map(TensorId)
            .filter(|&t| self.produced(t))
            .filter_map(|t| Some((t, self.shape(t)?.to_vec())))
            .collect()
    }
}

/// Largest operand count marshalled through a stack array; rarer wider
/// nodes fall back to a heap vector.
const INLINE_ARITY: usize = 8;

/// One register release precompiled into an instruction: the register
/// index plus two flags resolved from the graph at compile time (is the
/// tensor a materialized intermediate? a graph output held to the end?).
#[derive(Debug, Clone)]
pub struct RegRelease {
    /// Register (= tensor id) to release.
    pub reg: TensorId,
    /// Materialized intermediate: un-account its bytes from live memory.
    pub is_intermediate: bool,
    /// Graph output: the slot is held to the end of the run.
    pub is_output: bool,
}

/// A fused chain lowered to one instruction: the member list inlined,
/// with each member's release list applied at its original commit
/// position so live-memory accounting is that of member-by-member commit.
#[derive(Debug, Clone)]
pub struct TapeChain {
    pub(crate) plan: ChainPlan,
    /// Member nodes in commit order (head first).
    pub members: Vec<NodeId>,
    /// Each member's single output register, in commit order (the last
    /// one is the chain's final output).
    pub member_outputs: Vec<TensorId>,
    /// Per-member release lists, applied in commit order.
    pub member_releases: Vec<Vec<RegRelease>>,
    /// The chain's final output register.
    pub final_reg: TensorId,
    /// Proven-finite bit for the final output (NaN-fence elision).
    pub final_finite: bool,
    /// The tail member (its name labels fence diagnostics: the tail
    /// performs the install).
    pub tail_nid: NodeId,
}

/// A kernel variant baked into an instruction at compile time.
///
/// When RDP proves a hotspot node's output shape (`Known` under empty
/// bindings), its shape class — and therefore its executed version — is a
/// compile-time constant, so the tape carries the executed parameters
/// directly and dispatch skips runtime selection entirely. Nodes whose
/// shapes stay data-dependent keep selecting per inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BakedVariant {
    /// A GEMM configuration (MatMul / Gemm anchors).
    Gemm(GemmParams),
    /// A convolution configuration (Conv2d anchors).
    Conv(ConvParams),
}

/// The variants to bake into a tape: for every hotspot node whose output
/// shape RDP proves concrete under empty bindings, the table's executed
/// configuration for that shape — the default kernel included, where the
/// host playoff chose it.
pub fn bake_variants(
    graph: &Graph,
    rdp: &RdpResult,
    table: &VersionTable,
) -> HashMap<NodeId, BakedVariant> {
    let empty = Bindings::default();
    let mut baked = HashMap::new();
    for node in graph.nodes() {
        let Some(&out) = node.outputs.first() else {
            continue;
        };
        let Some(shape) = rdp.concrete_shape(out, &empty) else {
            continue;
        };
        match &node.op {
            Op::MatMul | Op::Gemm { .. } if shape.len() >= 2 => {
                let m = shape[shape.len() - 2].max(1) as usize;
                let n = shape[shape.len() - 1].max(1) as usize;
                baked.insert(node.id, BakedVariant::Gemm(table.executed_gemm(m, n)));
            }
            Op::Conv2d { .. } if shape.len() == 4 => {
                let co = shape[1].max(1) as usize;
                let spatial = (shape[2] * shape[3]).max(1) as usize;
                baked.insert(
                    node.id,
                    BakedVariant::Conv(table.executed_conv(co, spatial)),
                );
            }
            _ => {}
        }
    }
    baked
}

/// Instruction opcode.
#[derive(Debug, Clone)]
pub enum InstrKind {
    /// Generic kernel dispatch (multi-version variant selection inline).
    Kernel,
    /// `Switch` lowered over registers: copy the data register into the
    /// selected branch's output register (all of them in
    /// execute-all-branches mode), marking the rest dead.
    Branch {
        /// Branch count (= output register count).
        num_branches: usize,
    },
    /// `Combine` lowered over registers: publish the selected branch's
    /// register to the output register.
    Select {
        /// Branch count (selector lives at input index `num_branches`).
        num_branches: usize,
    },
    /// A whole fused element-wise chain as one instruction.
    Chain(Box<TapeChain>),
}

/// One tape instruction. Every field the dispatch loop needs is
/// precompiled: no hashing, no string lookups, no graph-derived
/// decisions remain at run time (the anchor node is consulted only for
/// its operator payload and its name, both direct indexed loads).
#[derive(Debug, Clone)]
pub struct Instr {
    /// Anchor node (chain instructions anchor at the chain head).
    pub nid: NodeId,
    /// Opcode.
    pub kind: InstrKind,
    /// Operand registers (empty for chains — members carry their own).
    pub inputs: Vec<TensorId>,
    /// Result registers.
    pub outputs: Vec<TensorId>,
    /// Proven-finite bit per output (absint certificate, fence elision).
    pub out_finite: Vec<bool>,
    /// Fusion-internal bit per output (internal results are never
    /// materialized: no live-memory or allocation accounting).
    pub out_internal: Vec<bool>,
    /// Per input: produced outside this fusion group (external reads are
    /// what group cost accounting charges).
    pub in_external: Vec<bool>,
    /// Registers whose last use is this instruction.
    pub releases: Vec<RegRelease>,
    /// Original fusion group id (the `group` field of trace events).
    pub gid: usize,
    /// Dense group index into the pricing replay's accumulator array.
    pub gidx: u32,
    /// Statically the last member of its group in execution order: emits
    /// the group's kernel trace event when the group did countable work.
    pub group_tail: bool,
    /// Tuned kernel variant selected at compile time (RDP-known shapes);
    /// `None` falls back to runtime selection.
    pub variant: Option<BakedVariant>,
}

/// The compiled, immutable execution tape. `Arc`-share it across
/// replicas; each inference brings its own register file.
#[derive(Debug, Clone)]
pub struct TapeProgram {
    instrs: Vec<Instr>,
    /// Registers in the file (= `graph.num_tensors()`).
    register_count: usize,
    /// Constant registers, prebuilt once (per-inference installation is
    /// an `Arc` clone, not a payload rebuild).
    pub(crate) consts: Vec<(TensorId, Tensor)>,
    /// Dense group count (size of the pricing replay's accumulator array).
    pub(crate) num_groups: usize,
    /// Graph nodes the tape covers (chain members included).
    node_count: usize,
}

/// Summary of a compiled tape for profiling output.
#[derive(Debug, Clone)]
pub struct TapeStats {
    /// Instructions on the tape.
    pub tape_len: usize,
    /// Registers in the file.
    pub register_count: usize,
    /// Bytes of the per-inference register file itself (slot headers;
    /// tensor payloads are heap-allocated and accounted by DMP).
    pub register_file_bytes: usize,
    /// Chain instructions on the tape.
    pub chain_count: usize,
    /// Prebuilt constant registers.
    pub const_count: usize,
    /// Graph nodes the tape covers (chain members included).
    pub node_count: usize,
}

impl TapeProgram {
    /// The instruction stream (read-only; `verify_tape` walks it).
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Registers in the file.
    pub fn register_count(&self) -> usize {
        self.register_count
    }

    /// Profiling summary.
    pub fn stats(&self) -> TapeStats {
        TapeStats {
            tape_len: self.instrs.len(),
            register_count: self.register_count,
            register_file_bytes: self.register_count * std::mem::size_of::<Slot>(),
            chain_count: self
                .instrs
                .iter()
                .filter(|i| matches!(i.kind, InstrKind::Chain(_)))
                .count(),
            const_count: self.consts.len(),
            node_count: self.node_count,
        }
    }
}

/// Compiles a planned graph into an execution tape: the release schedule
/// comes from `sod2_plan::plan_tape_layout` over `node_order`, and every
/// fusion group that forms an element-wise chain becomes one chain
/// instruction. Without a fusion plan every node is its own group and no
/// chain forms.
///
/// # Errors
///
/// Returns [`ExecError::BadInputs`] for constants with unknown shapes
/// and [`ExecError::Internal`] when a fused chain is malformed.
pub fn compile_tape(
    graph: &Graph,
    node_order: &[NodeId],
    fusion: Option<&FusionPlan>,
    finite_outputs: Option<&[bool]>,
    baked_variants: Option<&HashMap<NodeId, BakedVariant>>,
) -> Result<TapeProgram, ExecError> {
    let layout = sod2_plan::plan_tape_layout(graph, node_order);
    let internal = fusion
        .map(|f| f.internal_tensors(graph))
        .unwrap_or_default();
    let (chain_member, chains) = match fusion {
        Some(f) => build_chains(graph, f),
        None => (HashMap::new(), Vec::new()),
    };
    let group_of = |n: NodeId| -> usize {
        match fusion {
            Some(f) => f.group_of(n),
            None => n.0 as usize,
        }
    };
    let finite_of = |t: TensorId| -> bool {
        finite_outputs
            .and_then(|f| f.get(t.0 as usize).copied())
            .unwrap_or(false)
    };
    let decorate = |t: TensorId| -> RegRelease {
        RegRelease {
            reg: t,
            is_intermediate: graph.producer(t).is_some() && !internal.contains(&t),
            is_output: graph.outputs().contains(&t),
        }
    };

    // The last execution-order position of each group marks the
    // instruction that retires it (the group-event emission point).
    let mut last_pos_of_group: HashMap<usize, usize> = HashMap::new();
    for (pos, &nid) in node_order.iter().enumerate() {
        last_pos_of_group.insert(group_of(nid), pos);
    }

    let mut gidx_of: HashMap<usize, u32> = HashMap::new();
    let mut instrs: Vec<Instr> = Vec::with_capacity(node_order.len());
    // Chain instructions under construction: chain idx → instr idx.
    let mut chain_instr: HashMap<usize, usize> = HashMap::new();

    for (pos, &nid) in node_order.iter().enumerate() {
        let node = graph.node(nid);
        let gid = group_of(nid);
        let next_gidx = gidx_of.len() as u32;
        let gidx = *gidx_of.entry(gid).or_insert(next_gidx);
        let group_tail = last_pos_of_group.get(&gid) == Some(&pos);
        let releases: Vec<RegRelease> = layout.releases[pos].iter().map(|&t| decorate(t)).collect();

        if let Some(&cidx) = chain_member.get(&nid) {
            let chain = &chains[cidx];
            let out_reg = *node
                .outputs
                .first()
                .ok_or_else(|| ExecError::Internal(format!("chain member {nid} with no output")))?;
            match chain_instr.get(&cidx) {
                None => {
                    if nid != chain.members[0] {
                        return Err(ExecError::Internal(format!(
                            "chain {cidx} entered at {nid}, not its head"
                        )));
                    }
                    let tail_nid = *chain
                        .members
                        .last()
                        .ok_or_else(|| ExecError::Internal("fused chain with no members".into()))?;
                    let idx = instrs.len();
                    chain_instr.insert(cidx, idx);
                    instrs.push(Instr {
                        nid,
                        kind: InstrKind::Chain(Box::new(TapeChain {
                            plan: chain.clone(),
                            members: vec![nid],
                            member_outputs: vec![out_reg],
                            member_releases: vec![releases],
                            final_reg: chain.final_output,
                            final_finite: finite_of(chain.final_output),
                            tail_nid,
                        })),
                        inputs: Vec::new(),
                        outputs: vec![chain.final_output],
                        out_finite: vec![finite_of(chain.final_output)],
                        out_internal: vec![internal.contains(&chain.final_output)],
                        in_external: Vec::new(),
                        releases: Vec::new(),
                        gid,
                        gidx,
                        group_tail,
                        variant: None,
                    });
                }
                Some(&idx) => {
                    let InstrKind::Chain(tc) = &mut instrs[idx].kind else {
                        return Err(ExecError::Internal(format!(
                            "chain {cidx} anchored at a non-chain instruction"
                        )));
                    };
                    tc.members.push(nid);
                    tc.member_outputs.push(out_reg);
                    tc.member_releases.push(releases);
                    instrs[idx].group_tail |= group_tail;
                }
            }
            continue;
        }

        let kind = match &node.op {
            Op::Switch { num_branches } => InstrKind::Branch {
                num_branches: *num_branches,
            },
            Op::Combine { num_branches } => InstrKind::Select {
                num_branches: *num_branches,
            },
            _ => InstrKind::Kernel,
        };
        let in_external = node
            .inputs
            .iter()
            .map(|&t| graph.producer(t).is_none_or(|p| group_of(p) != gid))
            .collect();
        instrs.push(Instr {
            nid,
            kind,
            inputs: node.inputs.clone(),
            outputs: node.outputs.clone(),
            out_finite: node.outputs.iter().map(|&t| finite_of(t)).collect(),
            out_internal: node
                .outputs
                .iter()
                .map(|&t| internal.contains(&t))
                .collect(),
            in_external,
            releases,
            gid,
            gidx,
            group_tail,
            variant: baked_variants.and_then(|m| m.get(&nid).copied()),
        });
    }

    // Every chain must have been walked end to end.
    for (cidx, chain) in chains.iter().enumerate() {
        if let Some(&idx) = chain_instr.get(&cidx) {
            if let InstrKind::Chain(tc) = &instrs[idx].kind {
                if tc.members != chain.members {
                    return Err(ExecError::Internal(format!(
                        "chain {cidx} lowered {} member(s), expected {}",
                        tc.members.len(),
                        chain.members.len()
                    )));
                }
            }
        }
    }

    Ok(TapeProgram {
        instrs,
        register_count: layout.register_count,
        consts: const_tensors(graph)?,
        num_groups: gidx_of.len(),
        node_count: node_order.len(),
    })
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
    members: Vec<NodeId>,
    pub(crate) seed: TensorId,
    pub(crate) steps: Vec<ChainStep>,
    final_output: TensorId,
}

/// Identifies fusion groups executable as single-pass element-wise chains:
/// every member is a unary/clip/binary f32 operator, each member consumes
/// the previous member's output, and all other operands come from outside
/// the group.
fn build_chains(graph: &Graph, fusion: &FusionPlan) -> (HashMap<NodeId, usize>, Vec<ChainPlan>) {
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

/// Evaluates (or kills) a whole fused chain: `None` when an input branch
/// was dead. Pure: reads the register file, produces an owned result.
fn eval_chain(env: &[Slot], chain: &ChainPlan) -> Result<Option<Tensor>, ExecError> {
    let mut dead = matches!(env[chain.seed.0 as usize], Slot::Dead);
    for st in &chain.steps {
        if let ChainStep::Binary { other, .. } = st {
            dead |= matches!(env[other.0 as usize], Slot::Dead);
        }
    }
    if dead {
        return Ok(None);
    }
    let unavailable = |what: &str, t: TensorId| {
        ExecError::ControlFlow(format!("fused chain {what} {t} unavailable"))
    };
    let seed = live(env, chain.seed).map_err(|_| unavailable("seed", chain.seed))?;
    let mut steps: Vec<FusedStep<'_>> = Vec::with_capacity(chain.steps.len());
    for st in &chain.steps {
        steps.push(match st {
            ChainStep::Unary(u) => FusedStep::Unary(*u),
            ChainStep::Clip { min, max } => FusedStep::Clip {
                min: *min,
                max: *max,
            },
            ChainStep::Binary {
                op,
                other,
                chain_is_lhs,
            } => FusedStep::Binary {
                op: *op,
                other: live(env, *other).map_err(|_| unavailable("operand", *other))?,
                chain_is_lhs: *chain_is_lhs,
            },
        });
    }
    Ok(Some(fused_elementwise(seed, &steps)?))
}

/// Mutable per-inference state of the tape VM.
struct TapeState {
    env: Vec<Slot>,
    record: RunRecord,
    live_bytes: usize,
}

impl TapeState {
    fn install_output(
        &mut self,
        cfg: &ExecConfig<'_>,
        name: &str,
        t: TensorId,
        finite: bool,
        materialized: bool,
        tensor: Tensor,
    ) -> Result<(), ExecError> {
        // A certificate-proven finite tensor cannot trip the fence, so its
        // scan is elided (the saving the abstract interpretation pays for).
        if cfg.nan_guard && finite {
            sod2_obs::counter_add("absint.guard_elisions", 1);
        } else {
            fence_value(cfg.nan_guard, name, t, &tensor)?;
        }
        self.record.note(t, RegState::Produced, &tensor);
        if materialized {
            charge_live(&mut self.live_bytes, tensor.byte_size(), cfg.memory_budget)?;
        }
        self.env[t.0 as usize] = Slot::Live(tensor);
        Ok(())
    }

    fn kill(&mut self, t: TensorId) {
        self.env[t.0 as usize] = Slot::Dead;
        self.record.kill(t);
    }

    /// Applies an instruction's precompiled releases.
    fn apply_releases(&mut self, releases: &[RegRelease]) {
        for r in releases {
            release_slot(
                r.reg,
                r.is_intermediate,
                r.is_output,
                &mut self.env,
                &mut self.live_bytes,
            );
        }
    }
}

/// Commits one instruction: evaluate it, install its results, record
/// them, and apply the precompiled releases. The single mutation point of
/// tape state.
fn commit_instr(
    graph: &Graph,
    cfg: &ExecConfig<'_>,
    st: &mut TapeState,
    instr: &Instr,
) -> Result<(), ExecError> {
    if sod2_pool::deadline_exceeded() {
        return Err(ExecError::DeadlineExceeded);
    }
    let node = graph.node(instr.nid);
    // The kernel span covers execution, installation, and release.
    let _kernel_span = sod2_obs::span!("kernel", "{}", node.name);
    let results = eval_instr(graph, cfg, instr, &st.env)?;
    if let InstrKind::Chain(tc) = &instr.kind {
        return commit_chain(graph, cfg, st, tc, results.into_iter().next().flatten());
    }
    if matches!(instr.kind, InstrKind::Branch { .. }) {
        st.record.branches_executed += results.iter().flatten().count();
    }
    for (k, result) in results.into_iter().enumerate() {
        let t = instr.outputs[k];
        match result {
            Some(tensor) => st.install_output(
                cfg,
                &node.name,
                t,
                instr.out_finite[k],
                !instr.out_internal[k],
                tensor,
            )?,
            None => st.kill(t),
        }
    }
    st.apply_releases(&instr.releases);
    Ok(())
}

/// Evaluates one instruction against the register file: one result per
/// output register (a chain's final output alone), `None` where a branch
/// is dead.
fn eval_instr(
    graph: &Graph,
    cfg: &ExecConfig<'_>,
    instr: &Instr,
    env: &[Slot],
) -> Result<Vec<Option<Tensor>>, ExecError> {
    // Dead-input propagation (Select handles its own deadness; chains
    // carry no operand list and check theirs in `eval_chain`).
    if !matches!(instr.kind, InstrKind::Select { .. })
        && instr
            .inputs
            .iter()
            .any(|&t| matches!(env[t.0 as usize], Slot::Dead))
    {
        return Ok(vec![None; instr.outputs.len()]);
    }
    match &instr.kind {
        InstrKind::Chain(tc) => Ok(vec![eval_chain(env, &tc.plan)?]),
        InstrKind::Branch { num_branches } => {
            eval_switch(env, &instr.inputs, *num_branches, cfg.execute_all_branches)
        }
        InstrKind::Select { num_branches } => {
            Ok(vec![eval_combine(env, &instr.inputs, *num_branches)?])
        }
        InstrKind::Kernel => {
            let op = &graph.node(instr.nid).op;
            let n_in = instr.inputs.len();
            let outs = if n_in > 0 && n_in <= INLINE_ARITY {
                let first = live(env, instr.inputs[0])?;
                let mut arr: [&Tensor; INLINE_ARITY] = [first; INLINE_ARITY];
                for (k, &t) in instr.inputs.iter().enumerate().skip(1) {
                    arr[k] = live(env, t)?;
                }
                let ins = &arr[..n_in];
                let (gemm, conv) = instr_variants(instr, op, ins, cfg);
                execute_op_with_variants(op, ins, gemm, conv)?
            } else {
                let ins = instr
                    .inputs
                    .iter()
                    .map(|&t| live(env, t))
                    .collect::<Result<Vec<&Tensor>, ExecError>>()?;
                let (gemm, conv) = instr_variants(instr, op, &ins, cfg);
                execute_op_with_variants(op, &ins, gemm, conv)?
            };
            Ok(outs.into_iter().map(Some).collect())
        }
    }
}

/// Resolves the GEMM/CONV configurations for a kernel instruction: the
/// compile-time baked variant when the tape carries one (zero runtime
/// selection work), else runtime selection by operand shape, counted as
/// a version hit or a fallback to the default kernel.
fn instr_variants(
    instr: &Instr,
    op: &Op,
    ins: &[&Tensor],
    cfg: &ExecConfig<'_>,
) -> (GemmParams, ConvParams) {
    match instr.variant {
        Some(BakedVariant::Gemm(g)) => {
            sod2_obs::counter_add("mvc.variant_hits", 1);
            (g, ConvParams::default())
        }
        Some(BakedVariant::Conv(c)) => {
            sod2_obs::counter_add("mvc.variant_hits", 1);
            (GemmParams::default(), c)
        }
        None => match select_variants(op, ins, cfg.version_table) {
            Some(variants) => {
                sod2_obs::counter_add("mvc.version_hits", 1);
                variants
            }
            None => {
                if matches!(op, Op::MatMul | Op::Gemm { .. } | Op::Conv2d { .. }) {
                    sod2_obs::counter_add("mvc.version_defaults", 1);
                }
                Default::default()
            }
        },
    }
}

/// Commits a fused-chain instruction member by member: each member's
/// releases at its original position, and the final-output install at the
/// tail.
fn commit_chain(
    graph: &Graph,
    cfg: &ExecConfig<'_>,
    st: &mut TapeState,
    tc: &TapeChain,
    result: Option<Tensor>,
) -> Result<(), ExecError> {
    let n = tc.member_releases.len();
    match result {
        Some(out) => {
            // Head and mid members release at their original positions;
            // the tail installs the final output first, then releases.
            for releases in tc.member_releases.iter().take(n.saturating_sub(1)) {
                st.apply_releases(releases);
            }
            let tail_name = &graph.node(tc.tail_nid).name;
            st.install_output(cfg, tail_name, tc.final_reg, tc.final_finite, true, out)?;
            if let Some(last) = tc.member_releases.last() {
                st.apply_releases(last);
            }
        }
        None => {
            // Dead chain: every member output dies, releases interleaved
            // in member order.
            for (k, releases) in tc.member_releases.iter().enumerate() {
                st.kill(tc.member_outputs[k]);
                st.apply_releases(releases);
            }
        }
    }
    Ok(())
}

/// Executes a compiled tape on concrete inputs and records what pricing
/// needs ([`RunRecord`]).
///
/// `cfg` supplies the run-time knobs the reference shares (version table,
/// execute-all-branches, NaN guard, memory budget); plan decisions were
/// baked into the tape at compile time. Instructions commit one at a time
/// in tape order.
///
/// # Errors
///
/// Kernel failures, input mismatches, malformed control flow, an expired
/// deadline, an exceeded memory budget or a tripped NaN fence.
pub fn execute_tape(
    graph: &Graph,
    inputs: &[Tensor],
    tape: &TapeProgram,
    cfg: &ExecConfig<'_>,
) -> Result<RunOutcome, ExecError> {
    check_inputs(graph, inputs, cfg.nan_guard)?;
    let mut env: Vec<Slot> = vec![Slot::Missing; tape.register_count];
    let mut record = RunRecord::new(tape.register_count);
    for (t, tensor) in &tape.consts {
        env[t.0 as usize] = Slot::Live(tensor.clone());
    }
    for (&t, tensor) in graph.inputs().iter().zip(inputs) {
        record.note(t, RegState::Input, tensor);
        env[t.0 as usize] = Slot::Live(tensor.clone());
    }
    let mut st = TapeState {
        env,
        record,
        live_bytes: 0,
    };

    sod2_obs::gauge_max("exec.tape_len", tape.instrs.len() as u64);
    sod2_obs::gauge_max("exec.register_count", tape.register_count as u64);

    for instr in &tape.instrs {
        commit_instr(graph, cfg, &mut st, instr)?;
    }

    // An expiry inside the last instruction's pool region skipped chunk
    // bodies with no later instruction boundary to catch it, so expired
    // runs never return outputs.
    if sod2_pool::deadline_exceeded() {
        return Err(ExecError::DeadlineExceeded);
    }
    sod2_obs::counter_add("exec.branches_executed", st.record.branches_executed as u64);
    let outputs = graph
        .outputs()
        .iter()
        .map(|&t| output_of(&st.env, t).cloned())
        .collect::<Result<Vec<Tensor>, ExecError>>()?;
    fence_outputs(cfg.nan_guard, &outputs)?;
    Ok(RunOutcome {
        outputs,
        record: st.record,
    })
}
