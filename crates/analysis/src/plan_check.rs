//! Execution-plan and fusion-plan verification: SEP orders must be
//! dependency-valid topological orders, no fusion group may fuse away
//! a tensor that a consumer outside the group (or the caller) still reads,
//! and wavefront schedules must be legal parallel schedules (dependence-
//! respecting waves, memory peak within the configured slack).

use crate::diag::{Anchor, Diagnostic};
use sod2_fusion::FusionPlan;
use sod2_ir::{Graph, NodeId, TensorId};
use sod2_mem::peak_live_bytes;
use sod2_plan::{wavefront_lifetimes, UnitGraph, WavefrontSchedule};
use std::collections::{HashMap, HashSet, VecDeque};

/// Verifies a unit execution order against the unit graph: it must be a
/// permutation of all units, and every unit's predecessors must run first.
pub fn verify_unit_order(ug: &UnitGraph, order: &[usize]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = ug.units.len();
    if order.len() != n {
        out.push(Diagnostic::error(
            "plan/order-size",
            Anchor::Graph,
            format!("order covers {} units, unit graph has {n}", order.len()),
        ));
    }
    let mut pos: HashMap<usize, usize> = HashMap::new();
    for (step, &u) in order.iter().enumerate() {
        if u >= n {
            out.push(Diagnostic::error(
                "plan/order-size",
                Anchor::Graph,
                format!("order step {step} names nonexistent unit {u}"),
            ));
            continue;
        }
        if pos.insert(u, step).is_some() {
            out.push(Diagnostic::error(
                "plan/order-duplicate",
                Anchor::Graph,
                format!("unit {u} scheduled more than once"),
            ));
        }
    }
    for (&u, &step) in &pos {
        for &p in &ug.preds[u] {
            match pos.get(&p) {
                Some(&ps) if ps < step => {}
                Some(_) => out.push(Diagnostic::error(
                    "plan/order-dependency",
                    Anchor::Graph,
                    format!("unit {u} (step {step}) runs before its predecessor {p}"),
                )),
                None => out.push(Diagnostic::error(
                    "plan/order-dependency",
                    Anchor::Graph,
                    format!("unit {u} depends on {p}, which is never scheduled"),
                )),
            }
        }
    }
    out.sort_by_key(|d| d.message.clone());
    out
}

/// Verifies a node execution order against the graph's data dependencies.
pub fn verify_node_order(graph: &Graph, order: &[NodeId]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = graph.num_nodes();
    if order.len() != n {
        out.push(Diagnostic::error(
            "plan/order-size",
            Anchor::Graph,
            format!("order covers {} nodes, graph has {n}", order.len()),
        ));
    }
    let mut pos: HashMap<NodeId, usize> = HashMap::new();
    for (step, &id) in order.iter().enumerate() {
        if (id.0 as usize) >= n {
            out.push(Diagnostic::error(
                "plan/order-size",
                Anchor::Graph,
                format!("order step {step} names nonexistent node {id}"),
            ));
            continue;
        }
        if pos.insert(id, step).is_some() {
            out.push(Diagnostic::error(
                "plan/order-duplicate",
                Anchor::Node(id),
                "node scheduled more than once",
            ));
        }
    }
    for (&id, &step) in &pos {
        for p in graph.predecessors(id) {
            match pos.get(&p) {
                Some(&ps) if ps < step => {}
                Some(_) => out.push(Diagnostic::error(
                    "plan/order-dependency",
                    Anchor::Node(id),
                    format!("runs before its producer {p}"),
                )),
                None => out.push(Diagnostic::error(
                    "plan/order-dependency",
                    Anchor::Node(id),
                    format!("producer {p} is never scheduled"),
                )),
            }
        }
    }
    out.sort_by_key(|d| d.message.clone());
    out
}

/// Verifies a wavefront schedule as a *parallel* schedule:
///
/// 1. the flattened waves form a valid unit order (coverage + topology),
/// 2. every unit's predecessors sit in a *strictly earlier* wave — units
///    sharing a wave run concurrently, so a same-wave dependency is a race,
/// 3. the schedule's concurrent peak (at wave granularity) matches its
///    declared `parallel_peak` and stays within `serial_peak × (1+slack)`.
pub fn verify_wavefront_schedule(
    graph: &Graph,
    ug: &UnitGraph,
    ws: &WavefrontSchedule,
    size_of: &dyn Fn(TensorId) -> usize,
    slack: f64,
) -> Vec<Diagnostic> {
    let flat: Vec<usize> = ws.waves.iter().flatten().copied().collect();
    let mut out = verify_unit_order(ug, &flat);

    // Wave-level dependence: strictly earlier wave, not just earlier step.
    let wave_of: HashMap<usize, usize> = ws
        .waves
        .iter()
        .enumerate()
        .flat_map(|(w, units)| units.iter().map(move |&u| (u, w)))
        .collect();
    for (&u, &w) in &wave_of {
        for &p in &ug.preds[u] {
            match wave_of.get(&p) {
                Some(&pw) if pw < w => {}
                Some(&pw) => out.push(Diagnostic::error(
                    "plan/wave-dependency",
                    Anchor::Graph,
                    format!(
                        "unit {u} (wave {w}) runs concurrently with or before \
                         its predecessor {p} (wave {pw})"
                    ),
                )),
                None => {} // already reported by verify_unit_order
            }
        }
    }

    // Memory bound at wave granularity.
    let lives = wavefront_lifetimes(graph, ug, &ws.waves, size_of);
    let peak = peak_live_bytes(&lives);
    if peak != ws.parallel_peak {
        out.push(Diagnostic::error(
            "plan/wave-peak",
            Anchor::Graph,
            format!(
                "schedule declares parallel peak {} but its wave lifetimes \
                 peak at {peak}",
                ws.parallel_peak
            ),
        ));
    }
    let bound = (ws.serial_peak as f64 * (1.0 + slack.max(0.0))).min(usize::MAX as f64) as usize;
    if peak > bound {
        out.push(Diagnostic::error(
            "plan/wave-peak",
            Anchor::Graph,
            format!(
                "concurrent peak {peak} exceeds the memory bound {bound} \
                 (serial peak {} × (1 + {slack}))",
                ws.serial_peak
            ),
        ));
    }

    out.sort_by_key(|d| d.message.clone());
    out
}

/// Verifies a fusion plan's structure: every node assigned to exactly one
/// group, and the group-level dependency graph acyclic (fusing across a
/// diamond can otherwise deadlock scheduling). When the structure holds,
/// the plan's own internal-tensor claim is checked for leaks.
pub fn verify_fusion(graph: &Graph, plan: &FusionPlan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut membership: HashMap<NodeId, usize> = HashMap::new();
    for (g, group) in plan.groups.iter().enumerate() {
        for &n in &group.nodes {
            if let Some(prev) = membership.insert(n, g) {
                out.push(Diagnostic::error(
                    "fusion/duplicate-node",
                    Anchor::Node(n),
                    format!("assigned to groups {prev} and {g}"),
                ));
            }
        }
    }
    for node in graph.nodes() {
        if !membership.contains_key(&node.id) {
            out.push(Diagnostic::error(
                "fusion/unassigned-node",
                Anchor::Node(node.id),
                "not assigned to any fusion group",
            ));
        }
    }
    if !out.is_empty() {
        return out; // the remaining checks need a total, unique assignment
    }

    // Group-level acyclicity (Kahn over cross-group edges).
    let ng = plan.groups.len();
    let mut succs: Vec<HashSet<usize>> = vec![HashSet::new(); ng];
    for node in graph.nodes() {
        let g = membership[&node.id];
        for &t in &node.inputs {
            if let Some(p) = graph.producer(t) {
                let pg = membership[&p];
                if pg != g {
                    succs[pg].insert(g);
                }
            }
        }
    }
    let mut in_deg = vec![0usize; ng];
    for s in &succs {
        for &g in s {
            in_deg[g] += 1;
        }
    }
    let mut queue: VecDeque<usize> = (0..ng).filter(|&g| in_deg[g] == 0).collect();
    let mut done = 0;
    while let Some(g) = queue.pop_front() {
        done += 1;
        for &s in &succs[g] {
            in_deg[s] -= 1;
            if in_deg[s] == 0 {
                queue.push_back(s);
            }
        }
    }
    if done != ng {
        out.push(Diagnostic::error(
            "fusion/group-cycle",
            Anchor::Graph,
            format!("{} fusion group(s) form a dependency cycle", ng - done),
        ));
        return out;
    }

    out.extend(verify_fusion_internals(
        graph,
        plan,
        &plan.internal_tensors(graph),
    ));
    out
}

/// Checks a claimed set of fused-away (never materialized) tensors: a
/// tensor in the set that a node outside its producer's group consumes, or
/// that the caller reads as a graph output, leaks out of its kernel.
pub fn verify_fusion_internals(
    graph: &Graph,
    plan: &FusionPlan,
    internals: &HashSet<TensorId>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let consumers = graph.consumer_index();
    // Membership derived from the group lists (never panics, even when the
    // plan's assignment is partial).
    let mut membership: HashMap<NodeId, usize> = HashMap::new();
    for (g, group) in plan.groups.iter().enumerate() {
        for &n in &group.nodes {
            membership.insert(n, g);
        }
    }
    for &t in internals {
        if graph.outputs().contains(&t) {
            out.push(Diagnostic::error(
                "fusion/internal-leak",
                Anchor::Tensor(t),
                "fused away but it is a graph output",
            ));
            continue;
        }
        let Some(p) = graph.producer(t) else {
            out.push(Diagnostic::error(
                "fusion/internal-leak",
                Anchor::Tensor(t),
                "claimed internal but has no producer node",
            ));
            continue;
        };
        let pg = membership.get(&p).copied();
        for &c in consumers.get(&t).map(Vec::as_slice).unwrap_or(&[]) {
            let cg = membership.get(&c).copied();
            if cg != pg || pg.is_none() {
                out.push(Diagnostic::error(
                    "fusion/internal-leak",
                    Anchor::Tensor(t),
                    format!(
                        "fused away inside group {pg:?} but consumed by {} in group {cg:?}",
                        graph.node(c).name
                    ),
                ));
            }
        }
    }
    out.sort_by_key(|d| d.message.clone());
    out
}
