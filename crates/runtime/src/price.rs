//! Pricing a tape run, off the request path.
//!
//! [`price_tape`] replays a compiled tape's instruction stream over the
//! [`RunRecord`] one run left: the same commit order, releases and group
//! tails the executor walked, now with the cost accounting the device model
//! prices. It derives the kernel trace, the per-tensor allocation stream
//! outside the DMP layout, the count the layout admits and the live peak —
//! exactly what accounting inline produced, because it applies the same
//! rules in the same order to the same shapes.

use crate::tape::{ChainStep, InstrKind, RegRelease, RegState, RunRecord, TapeProgram};
use crate::trace::{ExecutionTrace, TraceEvent};
use sod2_ir::{Graph, Op, TensorId};
use sod2_mem::ArenaLayout;
use sod2_mvc::VersionTable;

/// What [`price_tape`] derives from one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TapePrice {
    /// Kernel-only trace (engines add their overhead events): one event
    /// per fusion group that did countable work, one per live fused chain.
    pub trace: ExecutionTrace,
    /// Peak bytes of simultaneously live materialized intermediates.
    pub peak_live_bytes: usize,
    /// Sizes (bytes) of every materialized intermediate the DMP layout
    /// does not admit, in production order — the per-tensor allocation
    /// stream engines price. A priced-model count: kernels heap-allocate
    /// every payload regardless.
    pub alloc_sizes: Vec<usize>,
    /// How many materialized intermediates the DMP layout admits: the
    /// tensors priced inside the plan's one arena allocation instead of
    /// one allocation each.
    pub arena_backed: usize,
}

/// Cost accumulated by one fusion group as its members commit; the group
/// emits one kernel trace event when its last member retires.
#[derive(Debug, Clone, Default)]
struct GroupAcc {
    /// Flops of every countable member.
    flops: f64,
    /// Countable (live, non-control-flow) members so far.
    ops: usize,
    /// Lowest tuned-variant efficiency among the group's hotspot members.
    eff: Option<f64>,
    /// Bytes read from tensors produced outside the group.
    ext_read: f64,
    /// Bytes written to tensors that leave the group.
    ext_write: f64,
}

/// Output-matrix dimensions for multi-version hotspot kernels, from the
/// first output's shape.
fn hotspot_mn(op: &Op, s: &[usize]) -> Option<(usize, usize)> {
    match op {
        Op::MatMul | Op::Gemm { .. } if s.len() >= 2 => Some((s[s.len() - 2], s[s.len() - 1])),
        Op::Conv2d { .. } if s.len() == 4 => Some((s[1], s[2] * s[3])),
        _ => None,
    }
}

/// The replayed memory accounting.
struct Replay<'a> {
    rec: RunRecord,
    layout: Option<&'a ArenaLayout>,
    live_bytes: usize,
    out: TapePrice,
}

impl Replay<'_> {
    /// A materialized result enters its register: planned or allocated,
    /// and charged to live memory.
    fn install(&mut self, t: TensorId) {
        let b = self.rec.bytes(t);
        if self.layout.is_some_and(|l| l.admits(t.0 as usize, b)) {
            self.out.arena_backed += 1;
        } else {
            self.out.alloc_sizes.push(b);
        }
        self.live_bytes += b;
        self.out.peak_live_bytes = self.out.peak_live_bytes.max(self.live_bytes);
    }

    /// The executor's releases: a register is released once, at its last
    /// use, so a materialized intermediate is still live exactly when the
    /// run produced it.
    fn release(&mut self, releases: &[RegRelease]) {
        for r in releases.iter().filter(|r| r.is_intermediate) {
            self.live_bytes = self.live_bytes.saturating_sub(self.rec.bytes(r.reg));
        }
    }
}

/// Prices one run of `tape` from its record: the kernel trace, the
/// allocation stream outside `layout` (every materialized intermediate
/// when `None`), the count `layout` admits and the live peak. `table`
/// supplies the tuned-variant efficiencies of hotspot kernels. Publishes
/// the run's memory counters.
///
/// `record` must come from running this `tape`.
pub fn price_tape(
    graph: &Graph,
    tape: &TapeProgram,
    record: &RunRecord,
    layout: Option<&ArenaLayout>,
    table: Option<&VersionTable>,
) -> TapePrice {
    // Constants are live throughout; the replay reads their shapes as it
    // reads the inputs'.
    let mut rec = record.clone();
    for (t, tensor) in &tape.consts {
        rec.note(*t, RegState::Input, tensor);
    }
    let mut rp = Replay {
        rec,
        layout,
        live_bytes: 0,
        out: TapePrice::default(),
    };
    let mut groups = vec![GroupAcc::default(); tape.num_groups];

    for instr in tape.instrs() {
        let node = graph.node(instr.nid);
        if let InstrKind::Chain(tc) = &instr.kind {
            let live = rp.rec.produced(tc.final_reg);
            if live {
                // The fused kernel event, with the working set measured
                // before any member releases.
                let mut ext_read = rp.rec.bytes(tc.plan.seed) as f64;
                let mut flops_per_elem = 0.0f64;
                for st in &tc.plan.steps {
                    match st {
                        ChainStep::Unary(_) => flops_per_elem += 4.0,
                        ChainStep::Clip { .. } => flops_per_elem += 1.0,
                        ChainStep::Binary { other, .. } => {
                            flops_per_elem += 1.0;
                            ext_read += rp.rec.bytes(*other) as f64;
                        }
                    }
                }
                let out_bytes = rp.rec.bytes(tc.final_reg);
                let numel: usize = rp.rec.shape(tc.final_reg).unwrap_or(&[]).iter().product();
                rp.out.trace.push(TraceEvent::Kernel {
                    name: format!("fused[{}]", tc.members.len()),
                    cost: sod2_device::OpCost {
                        flops: flops_per_elem * numel as f64,
                        bytes_read: ext_read,
                        bytes_written: out_bytes as f64,
                    },
                    efficiency: None,
                    working_set: rp.live_bytes + out_bytes,
                    fused_ops: tc.members.len(),
                    group: instr.gid,
                });
            }
            // Members release at their original positions; a live chain's
            // tail installs the final output first.
            let tail = tc.member_releases.len().saturating_sub(1);
            for (k, releases) in tc.member_releases.iter().enumerate() {
                if live && k == tail {
                    rp.install(tc.final_reg);
                }
                rp.release(releases);
            }
            continue;
        }

        // Group cost accounting, for live kernels (control flow costs
        // nothing). A live kernel read every operand, so each has its
        // recorded (or constant) shape.
        let produced = |t: &&TensorId| rp.rec.produced(**t);
        if matches!(instr.kind, InstrKind::Kernel) && instr.outputs.iter().any(|t| produced(&t)) {
            let shape_of = |t: &TensorId| rp.rec.shape(*t).unwrap_or(&[]).to_vec();
            let ins: Vec<Vec<usize>> = instr.inputs.iter().map(shape_of).collect();
            let outs: Vec<Vec<usize>> = instr
                .outputs
                .iter()
                .filter(produced)
                .map(shape_of)
                .collect();
            let cost = sod2_device::op_cost(&node.op, &ins, &outs, 4);
            let acc = &mut groups[instr.gidx as usize];
            acc.flops += cost.flops;
            acc.ops += 1;
            for (k, &t) in instr.inputs.iter().enumerate() {
                if instr.in_external[k] {
                    acc.ext_read += rp.rec.bytes(t) as f64;
                }
            }
            for (k, &t) in instr.outputs.iter().enumerate() {
                if !instr.out_internal[k] {
                    acc.ext_write += rp.rec.bytes(t) as f64;
                }
            }
            // A hotspot member's tuned-variant efficiency, looked up by
            // its first live output.
            let first = instr.outputs.iter().find(produced);
            let mn = first.and_then(|&t| hotspot_mn(&node.op, rp.rec.shape(t)?));
            if let (Some(table), Some((m, n))) = (table, mn) {
                let e = match node.op {
                    Op::Conv2d { .. } => table.conv_efficiency_of(m, n),
                    _ => table.efficiency(m, n),
                };
                acc.eff = Some(acc.eff.map_or(e, |prev| prev.min(e)));
            }
        }

        for (k, &t) in instr.outputs.iter().enumerate() {
            if rp.rec.produced(t) && !instr.out_internal[k] {
                rp.install(t);
            }
        }
        rp.release(&instr.releases);

        let acc = &groups[instr.gidx as usize];
        if instr.group_tail && acc.ops > 0 {
            rp.out.trace.push(TraceEvent::Kernel {
                name: node.name.clone(),
                cost: sod2_device::OpCost {
                    flops: acc.flops,
                    bytes_read: acc.ext_read,
                    bytes_written: acc.ext_write,
                },
                efficiency: acc.eff,
                working_set: rp.live_bytes,
                fused_ops: acc.ops,
                group: instr.gid,
            });
        }
    }

    let out = rp.out;
    sod2_obs::gauge_max("exec.peak_live_bytes", out.peak_live_bytes as u64);
    sod2_obs::counter_add("exec.heap_fallback_allocs", out.alloc_sizes.len() as u64);
    sod2_obs::counter_add(
        "exec.heap_fallback_bytes",
        out.alloc_sizes.iter().map(|&b| b as u64).sum(),
    );
    sod2_obs::counter_add("exec.arena_backed", out.arena_backed as u64);
    out
}
