//! Tape↔plan correspondence verification.
//!
//! The execution tape is a lowered artifact: the planned node order
//! compiled to a flat instruction stream with precompiled registers and
//! release lists. This pass re-derives, independently of the lowering
//! code, what the tape *must* look like for the compiled plan — every
//! node lowered exactly once in a dependence-valid order, operand and
//! result registers wired to the graph, the release schedule exactly
//! matching a replay of the executor's refcount discipline, and one group
//! tail per fusion group.

use crate::diag::{Anchor, Diagnostic};
use sod2_fusion::FusionPlan;
use sod2_ir::{Graph, NodeId, TensorId};
use sod2_runtime::{InstrKind, RegRelease, TapeProgram};
use std::collections::{HashMap, HashSet};

/// Verifies a compiled tape against the plan it was lowered from.
///
/// `fusion` must be the plan the tape was compiled with (it decides
/// which tensors are fusion-internal and therefore never materialized —
/// the `is_intermediate` release flag).
pub fn verify_tape(
    graph: &Graph,
    node_order: &[NodeId],
    fusion: Option<&FusionPlan>,
    tape: &TapeProgram,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let regs = tape.register_count();
    if regs < graph.num_tensors() {
        out.push(Diagnostic::error(
            "tape/register-file-too-small",
            Anchor::Graph,
            format!(
                "register file has {regs} slot(s) for {} graph tensor(s)",
                graph.num_tensors()
            ),
        ));
        return out;
    }
    let internal = fusion
        .map(|f| f.internal_tensors(graph))
        .unwrap_or_default();

    // Flatten the tape back to a node sequence with per-position release
    // lists, checking operand/result wiring as we go.
    let mut seq: Vec<NodeId> = Vec::with_capacity(node_order.len());
    let mut rels: Vec<&[RegRelease]> = Vec::with_capacity(node_order.len());
    for instr in tape.instrs() {
        match &instr.kind {
            InstrKind::Chain(tc) => {
                if tc.members.len() != tc.member_outputs.len()
                    || tc.members.len() != tc.member_releases.len()
                {
                    out.push(Diagnostic::error(
                        "tape/chain-malformed",
                        Anchor::Node(instr.nid),
                        format!(
                            "chain carries {} member(s), {} output register(s), {} release list(s)",
                            tc.members.len(),
                            tc.member_outputs.len(),
                            tc.member_releases.len()
                        ),
                    ));
                    continue;
                }
                for (m, &nid) in tc.members.iter().enumerate() {
                    seq.push(nid);
                    rels.push(&tc.member_releases[m]);
                    if graph.node(nid).outputs.first() != Some(&tc.member_outputs[m]) {
                        out.push(Diagnostic::error(
                            "tape/output-mismatch",
                            Anchor::Node(nid),
                            format!(
                                "chain member wired to register {}, node produces {:?}",
                                tc.member_outputs[m],
                                graph.node(nid).outputs
                            ),
                        ));
                    }
                }
                if tc.member_outputs.last() != Some(&tc.final_reg)
                    || instr.outputs.as_slice() != [tc.final_reg]
                {
                    out.push(Diagnostic::error(
                        "tape/output-mismatch",
                        Anchor::Node(instr.nid),
                        format!(
                            "chain publishes register {} but its tail produces {:?}",
                            tc.final_reg,
                            tc.member_outputs.last()
                        ),
                    ));
                }
                if tc.members.last() != Some(&tc.tail_nid) {
                    out.push(Diagnostic::error(
                        "tape/chain-malformed",
                        Anchor::Node(instr.nid),
                        format!("chain tail recorded as {} off the member list", tc.tail_nid),
                    ));
                }
            }
            _ => {
                seq.push(instr.nid);
                rels.push(&instr.releases);
                let node = graph.node(instr.nid);
                if instr.inputs != node.inputs || instr.outputs != node.outputs {
                    out.push(Diagnostic::error(
                        "tape/operand-mismatch",
                        Anchor::Node(instr.nid),
                        format!(
                            "instruction wired to {:?} -> {:?}, node has {:?} -> {:?}",
                            instr.inputs, instr.outputs, node.inputs, node.outputs
                        ),
                    ));
                }
            }
        }
    }
    // Register indices stay inside the file (inputs/outputs checked via
    // the graph wiring above; release lists are tape-only data).
    for (pos, released) in rels.iter().enumerate() {
        for r in *released {
            if r.reg.0 as usize >= regs {
                out.push(Diagnostic::error(
                    "tape/register-oob",
                    Anchor::Node(seq[pos]),
                    format!("release of register {} outside the {regs}-slot file", r.reg),
                ));
            }
        }
    }

    // Exactly-once coverage of the plan.
    let mut lowered_at: HashMap<NodeId, usize> = HashMap::new();
    for (pos, &nid) in seq.iter().enumerate() {
        if lowered_at.insert(nid, pos).is_some() {
            out.push(Diagnostic::error(
                "tape/node-duplicated",
                Anchor::Node(nid),
                "node lowered more than once",
            ));
        }
    }
    for &nid in node_order {
        if !lowered_at.contains_key(&nid) {
            out.push(Diagnostic::error(
                "tape/node-missing",
                Anchor::Node(nid),
                "planned node never lowered onto the tape",
            ));
        }
    }
    if seq.len() != node_order.len() {
        out.push(Diagnostic::error(
            "tape/coverage",
            Anchor::Graph,
            format!(
                "tape covers {} node position(s), plan has {}",
                seq.len(),
                node_order.len()
            ),
        ));
    }

    // Dependence-valid execution order: every operand's producer commits
    // at an earlier position.
    let mut done: HashSet<NodeId> = HashSet::new();
    for &nid in &seq {
        for &t in &graph.node(nid).inputs {
            if let Some(p) = graph.producer(t) {
                if p != nid && !done.contains(&p) {
                    out.push(Diagnostic::error(
                        "tape/order-violation",
                        Anchor::Node(nid),
                        format!("reads register {t} before its producer {p} commits"),
                    ));
                }
            }
        }
        done.insert(nid);
    }

    // Release schedule: replay the executor's refcount discipline over the
    // flattened sequence and require the tape's precompiled lists to match
    // it exactly — same registers, same order, correct flags. A release
    // while uses remain would free a live register; a missed one leaks it.
    let consumer_index = graph.consumer_index();
    let mut remaining = vec![0u32; graph.num_tensors()];
    for t in graph.tensor_ids() {
        let mut n = consumer_index.get(&t).map(Vec::len).unwrap_or(0);
        if graph.outputs().contains(&t) {
            n += 1;
        }
        remaining[t.0 as usize] = n as u32;
    }
    for (pos, &nid) in seq.iter().enumerate() {
        let mut expected: Vec<TensorId> = Vec::new();
        for &t in &graph.node(nid).inputs {
            let key = t.0 as usize;
            remaining[key] = remaining[key].saturating_sub(1);
            if remaining[key] == 0 && !expected.contains(&t) {
                expected.push(t);
            }
        }
        let got: Vec<TensorId> = rels[pos].iter().map(|r| r.reg).collect();
        if got != expected {
            out.push(Diagnostic::error(
                "tape/release-schedule",
                Anchor::Node(nid),
                format!("releases {got:?}, refcount replay expects {expected:?}"),
            ));
        }
        for r in rels[pos] {
            let is_output = graph.outputs().contains(&r.reg);
            let is_intermediate = graph.producer(r.reg).is_some() && !internal.contains(&r.reg);
            if r.is_output != is_output || r.is_intermediate != is_intermediate {
                out.push(Diagnostic::error(
                    "tape/release-flags",
                    Anchor::Tensor(r.reg),
                    format!(
                        "release flags (intermediate={}, output={}) disagree with the graph \
                         (intermediate={is_intermediate}, output={is_output})",
                        r.is_intermediate, r.is_output
                    ),
                ));
            }
        }
    }

    // The group trace event must be emitted exactly once per group, at the
    // group's statically-last instruction.
    let mut last_of_gid: HashMap<usize, usize> = HashMap::new();
    for (i, instr) in tape.instrs().iter().enumerate() {
        last_of_gid.insert(instr.gid, i);
    }
    for (i, instr) in tape.instrs().iter().enumerate() {
        let want = last_of_gid.get(&instr.gid) == Some(&i);
        if instr.group_tail != want {
            out.push(Diagnostic::error(
                "tape/group-tail",
                Anchor::Node(instr.nid),
                format!(
                    "group {} tail flag is {} at instruction {i}, expected {}",
                    instr.gid, instr.group_tail, want
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod2_fusion::{fuse, FusionPolicy};
    use sod2_ir::{BinaryOp, DType, Op, UnaryOp};
    use sod2_runtime::compile_tape;
    use sod2_sym::DimExpr;

    fn diamond() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![DimExpr::sym("N")]);
        let a = g.add_simple("a", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
        let b = g.add_simple("b", Op::Unary(UnaryOp::Neg), &[x], DType::F32);
        let c = g.add_simple("c", Op::Binary(BinaryOp::Add), &[a, b], DType::F32);
        g.mark_output(c);
        g
    }

    #[test]
    fn compiled_tape_verifies_clean() {
        let g = diamond();
        let rdp = sod2_rdp::analyze(&g);
        let fusion = fuse(&g, &rdp, FusionPolicy::Rdp);
        // Fusion units must stay contiguous in the execution order (a
        // chain evaluates whole at its head position), exactly as the
        // engine's unit-granularity planner guarantees.
        let ug = sod2_plan::UnitGraph::build(&g, &fusion);
        let order = ug.node_order(&sod2_plan::naive_unit_order(&ug));
        let tape = compile_tape(&g, &order, Some(&fusion), None, None).expect("compile");
        let diags = verify_tape(&g, &order, Some(&fusion), &tape);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unfused_tape_verifies_clean() {
        let g = diamond();
        let order: Vec<NodeId> = (0..g.num_nodes() as u32).map(NodeId).collect();
        let tape = compile_tape(&g, &order, None, None, None).expect("compile");
        let diags = verify_tape(&g, &order, None, &tape);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn truncated_plan_is_reported() {
        let g = diamond();
        let order: Vec<NodeId> = (0..g.num_nodes() as u32).map(NodeId).collect();
        let short = &order[..order.len() - 1];
        let tape = compile_tape(&g, short, None, None, None).expect("compile");
        let diags = verify_tape(&g, &order, None, &tape);
        assert!(
            diags.iter().any(|d| d.code == "tape/node-missing"),
            "{diags:?}"
        );
    }
}
