//! Execution-order search (paper §4.3).
//!
//! For each partition: an exact bitmask-DP search over topologically valid
//! unit orders minimizing peak materialized bytes when the partition is
//! small enough ("the optimal execution plan for sg can be obtained
//! statically by an exhaustive search — a limited size of sg can further
//! make such a search feasible"), and a memory-aware greedy list scheduler
//! otherwise.

use crate::partition::Partition;
use crate::units::UnitGraph;
use sod2_ir::{Graph, NodeId, TensorId};
use sod2_mem::TensorLife;
use std::collections::HashMap;

/// Options for the execution planner.
#[derive(Debug, Clone, Copy)]
pub struct SepOptions {
    /// Partitions up to this many units get the exact DP search.
    pub exhaustive_limit: usize,
}

impl Default for SepOptions {
    fn default() -> Self {
        SepOptions {
            exhaustive_limit: 14,
        }
    }
}

/// A complete execution plan.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Scheduled unit order (global).
    pub unit_order: Vec<usize>,
    /// Expanded node order.
    pub node_order: Vec<NodeId>,
    /// The partitions that were planned independently.
    pub partitions: Vec<Partition>,
    /// How many partitions used the exact search.
    pub exact_partitions: usize,
}

/// The as-built (naive) unit order — the no-SEP baseline.
pub fn naive_unit_order(ug: &UnitGraph) -> Vec<usize> {
    (0..ug.len()).collect()
}

/// Plans the execution order, partition by partition.
pub fn plan_order(
    graph: &Graph,
    ug: &UnitGraph,
    partitions: &[Partition],
    size_of: &dyn Fn(TensorId) -> usize,
    opts: SepOptions,
) -> ExecutionPlan {
    let mut unit_order = Vec::with_capacity(ug.len());
    let mut exact = 0usize;
    for part in partitions {
        let local = if part.units.len() <= opts.exhaustive_limit {
            exact += 1;
            dp_order(graph, ug, &part.units, size_of)
        } else {
            greedy_order(graph, ug, &part.units, size_of)
        };
        unit_order.extend(local);
    }
    // The per-partition searches optimize a local objective; tensors whose
    // lifetimes cross partition boundaries can make the as-built order win
    // globally. Keep whichever order achieves the lower global peak.
    let naive = naive_unit_order(ug);
    if order_peak_bytes(graph, ug, &naive, size_of)
        < order_peak_bytes(graph, ug, &unit_order, size_of)
    {
        unit_order = naive;
    }
    let node_order = ug.node_order(&unit_order);
    ExecutionPlan {
        unit_order,
        node_order,
        partitions: partitions.to_vec(),
        exact_partitions: exact,
    }
}

/// Per-partition scheduling context.
struct Ctx<'a> {
    /// local index -> unit id
    units: &'a [usize],
    /// Bytes each local unit materializes.
    out_bytes: Vec<usize>,
    /// For each local unit, the local consumers of each of its outputs,
    /// plus whether the tensor must stay live past the partition.
    outputs: Vec<Vec<(usize, Vec<usize>, bool)>>, // (size, local consumers, escapes)
    /// Local predecessor masks.
    pred_mask: Vec<u64>,
}

impl<'a> Ctx<'a> {
    fn new(
        graph: &Graph,
        ug: &'a UnitGraph,
        units: &'a [usize],
        size_of: &dyn Fn(TensorId) -> usize,
    ) -> Self {
        let local: HashMap<usize, usize> = units.iter().enumerate().map(|(i, &u)| (u, i)).collect();
        let mut out_bytes = vec![0usize; units.len()];
        let mut outputs = vec![Vec::new(); units.len()];
        for (i, &uid) in units.iter().enumerate() {
            for &t in &ug.units[uid].outputs {
                let size = size_of(t);
                out_bytes[i] += size;
                let all_consumers = ug.consumers.get(&t).map(Vec::as_slice).unwrap_or(&[]);
                let local_consumers: Vec<usize> = all_consumers
                    .iter()
                    .filter_map(|c| local.get(c).copied())
                    .collect();
                let escapes = graph.outputs().contains(&t)
                    || all_consumers.iter().any(|c| !local.contains_key(c));
                outputs[i].push((size, local_consumers, escapes));
            }
        }
        let mut pred_mask = vec![0u64; units.len()];
        for (i, &uid) in units.iter().enumerate() {
            for &p in &ug.preds[uid] {
                if let Some(&lp) = local.get(&p) {
                    pred_mask[i] |= 1 << lp;
                }
            }
        }
        let _ = (ug, &local);
        Ctx {
            units,
            out_bytes,
            outputs,
            pred_mask,
        }
    }

    /// Materialized bytes held after the units in `mask` have run.
    fn mem_after(&self, mask: u64) -> usize {
        let mut total = 0usize;
        for i in 0..self.units.len() {
            if mask & (1 << i) == 0 {
                continue;
            }
            for (size, consumers, escapes) in &self.outputs[i] {
                let all_done = consumers.iter().all(|&c| mask & (1 << c) != 0);
                if *escapes || !all_done || consumers.is_empty() {
                    // escapes: held for later partitions/outputs;
                    // !all_done: a local consumer still needs it;
                    // no consumers at all: kept (dead code safety).
                    total += size;
                }
            }
        }
        total
    }

    fn ready(&self, mask: u64, i: usize) -> bool {
        mask & (1 << i) == 0 && (self.pred_mask[i] & !mask) == 0
    }
}

/// Exact bitmask DP minimizing peak materialized bytes.
fn dp_order(
    graph: &Graph,
    ug: &UnitGraph,
    units: &[usize],
    size_of: &dyn Fn(TensorId) -> usize,
) -> Vec<usize> {
    let n = units.len();
    if n == 0 {
        return Vec::new();
    }
    debug_assert!(n <= 24, "DP is exponential in partition size");
    let ctx = Ctx::new(graph, ug, units, size_of);
    let full: u64 = if n == 64 { u64::MAX } else { (1 << n) - 1 };
    let mut best_peak: Vec<u64> = vec![u64::MAX; (full + 1) as usize];
    let mut parent: Vec<u8> = vec![u8::MAX; (full + 1) as usize];
    best_peak[0] = 0;
    // Iterate masks in increasing order: every predecessor mask of a state
    // is numerically smaller.
    for mask in 0..=full {
        if best_peak[mask as usize] == u64::MAX {
            continue;
        }
        let cur_mem = ctx.mem_after(mask) as u64;
        for i in 0..n {
            if !ctx.ready(mask, i) {
                continue;
            }
            let during = cur_mem + ctx.out_bytes[i] as u64;
            let peak = best_peak[mask as usize].max(during);
            let next = mask | (1 << i);
            if peak < best_peak[next as usize] {
                best_peak[next as usize] = peak;
                parent[next as usize] = i as u8;
            }
        }
    }
    // Reconstruct.
    let mut order_local = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let i = parent[mask as usize] as usize;
        order_local.push(i);
        mask &= !(1 << i);
    }
    order_local.reverse();
    order_local.into_iter().map(|i| ctx.units[i]).collect()
}

/// Memory-aware greedy list scheduling: among ready units, pick the one
/// with the best (freed − allocated) byte delta.
fn greedy_order(
    graph: &Graph,
    ug: &UnitGraph,
    units: &[usize],
    size_of: &dyn Fn(TensorId) -> usize,
) -> Vec<usize> {
    let n = units.len();
    let local: HashMap<usize, usize> = units.iter().enumerate().map(|(i, &u)| (u, i)).collect();
    // Per local unit: bytes it materializes, and for each *input* tensor
    // produced inside the partition, (producer-local-tensor-slot, size).
    let mut out_bytes = vec![0usize; n];
    // tensor slot -> (size, remaining local consumers, escapes)
    let mut slots: Vec<(usize, usize, bool)> = Vec::new();
    let mut slot_of: HashMap<TensorId, usize> = HashMap::new();
    let mut consumed_slots: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut unmet_preds = vec![0usize; n];
    for (i, &uid) in units.iter().enumerate() {
        for &t in &ug.units[uid].outputs {
            out_bytes[i] += size_of(t);
            let all_consumers = ug.consumers.get(&t).map(Vec::as_slice).unwrap_or(&[]);
            let local_consumers = all_consumers
                .iter()
                .filter(|c| local.contains_key(c))
                .count();
            let escapes = graph.outputs().contains(&t)
                || all_consumers.iter().any(|c| !local.contains_key(c));
            slot_of.insert(t, slots.len());
            slots.push((size_of(t), local_consumers, escapes));
        }
        for &p in &ug.preds[uid] {
            if local.contains_key(&p) {
                unmet_preds[i] += 1;
            }
        }
    }
    for (i, &uid) in units.iter().enumerate() {
        for &t in &ug.units[uid].inputs {
            if let Some(&s) = slot_of.get(&t) {
                consumed_slots[i].push(s);
            }
        }
    }

    let mut scheduled = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        // Among ready units, minimize (allocated − freed), tie-break on the
        // smaller allocation, then on index for determinism.
        let mut best: Option<(i64, i64, usize)> = None;
        for i in 0..n {
            if scheduled[i] || unmet_preds[i] != 0 {
                continue;
            }
            let mut freed = 0i64;
            for &s in &consumed_slots[i] {
                let (size, remaining, escapes) = slots[s];
                if remaining == 1 && !escapes {
                    freed += size as i64;
                }
            }
            let key = (out_bytes[i] as i64 - freed, out_bytes[i] as i64, i);
            if best.map(|b| key < b).unwrap_or(true) {
                best = Some(key);
            }
        }
        let (_, _, i) = best.expect("DAG always has a ready unit");
        scheduled[i] = true;
        for &s in &consumed_slots[i] {
            slots[s].1 = slots[s].1.saturating_sub(1);
        }
        let uid = units[i];
        for (j, &vid) in units.iter().enumerate() {
            if !scheduled[j] && ug.preds[vid].contains(&uid) {
                unmet_preds[j] = unmet_preds[j].saturating_sub(1);
            }
        }
        order.push(uid);
    }
    order
}

/// Peak materialized bytes achieved by a unit order (for evaluation).
pub fn order_peak_bytes(
    graph: &Graph,
    ug: &UnitGraph,
    unit_order: &[usize],
    size_of: &dyn Fn(TensorId) -> usize,
) -> usize {
    let lives = unit_lifetimes(graph, ug, unit_order, size_of);
    sod2_mem::peak_live_bytes(&lives)
}

/// Builds lifetime records (one step per unit) for the materialized
/// intermediate tensors under a unit order. Inputs and constants are
/// excluded (the paper's Table 5 measures intermediate-result memory).
pub fn unit_lifetimes(
    graph: &Graph,
    ug: &UnitGraph,
    unit_order: &[usize],
    size_of: &dyn Fn(TensorId) -> usize,
) -> Vec<TensorLife> {
    let step_of: HashMap<usize, usize> = unit_order
        .iter()
        .enumerate()
        .map(|(step, &u)| (u, step))
        .collect();
    let last_step = unit_order.len().saturating_sub(1);
    let mut lives = Vec::new();
    for (t, &producer) in &ug.producer {
        let def = step_of[&producer];
        let mut uses: Vec<usize> = ug
            .consumers
            .get(t)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .filter_map(|c| step_of.get(c).copied())
            .collect();
        if graph.outputs().contains(t) {
            uses.push(last_step);
        }
        lives.push(TensorLife::new(t.0 as usize, size_of(*t), def, uses));
    }
    lives.sort_by_key(|l| l.key);
    lives
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_units;
    use sod2_fusion::{fuse, FusionPolicy};
    use sod2_ir::{BinaryOp, DType, Graph, Op, UnaryOp};
    use sod2_rdp::analyze;

    /// A wide fan-out where order matters: x feeds 3 branches of different
    /// sizes that merge pairwise.
    fn fanout_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![16.into()]);
        // Three heavy, unfusable branches (NonZero makes each opaque —
        // keep it simple with Softmax anchors instead).
        let b1 = g.add_simple("s1", Op::Softmax { axis: 0 }, &[x], DType::F32);
        let b2 = g.add_simple("s2", Op::Softmax { axis: 0 }, &[x], DType::F32);
        let b3 = g.add_simple("s3", Op::Softmax { axis: 0 }, &[x], DType::F32);
        let m1 = g.add_simple("m1", Op::Binary(BinaryOp::Add), &[b1, b2], DType::F32);
        let m2 = g.add_simple("m2", Op::Binary(BinaryOp::Add), &[m1, b3], DType::F32);
        g.mark_output(m2);
        g
    }

    fn setup(g: &Graph) -> (sod2_rdp::RdpResult, sod2_fusion::FusionPlan, UnitGraph) {
        let rdp = analyze(g);
        let plan = fuse(g, &rdp, FusionPolicy::Rdp);
        let ug = UnitGraph::build(g, &plan);
        (rdp, plan, ug)
    }

    #[test]
    fn dp_order_is_valid_topologically() {
        let g = fanout_graph();
        let (rdp, plan, ug) = setup(&g);
        let parts = partition_units(&g, &rdp, &plan, &ug);
        let size = |t: TensorId| {
            g.tensor(t)
                .shape
                .as_known()
                .map(|d| d.iter().product::<i64>() as usize * 4)
                .unwrap_or(64)
        };
        let _ = &rdp;
        let ep = plan_order(&g, &ug, &parts, &size, SepOptions::default());
        assert_eq!(ep.unit_order.len(), ug.len());
        // Topological validity: preds before succs.
        let pos: HashMap<usize, usize> = ep
            .unit_order
            .iter()
            .enumerate()
            .map(|(i, &u)| (u, i))
            .collect();
        for (u, preds) in ug.preds.iter().enumerate() {
            for &p in preds {
                assert!(pos[&p] < pos[&u]);
            }
        }
        assert!(ep.exact_partitions >= 1);
    }

    #[test]
    fn dp_no_worse_than_naive_or_greedy() {
        let g = fanout_graph();
        let (rdp, plan, ug) = setup(&g);
        let parts = partition_units(&g, &rdp, &plan, &ug);
        let size = |_t: TensorId| 64usize;
        let dp = plan_order(&g, &ug, &parts, &size, SepOptions::default());
        let naive = naive_unit_order(&ug);
        let dp_peak = order_peak_bytes(&g, &ug, &dp.unit_order, &size);
        let naive_peak = order_peak_bytes(&g, &ug, &naive, &size);
        assert!(dp_peak <= naive_peak);
        // Force the greedy path and check it is also valid.
        let opts = SepOptions {
            exhaustive_limit: 0,
        };
        let gr = plan_order(&g, &ug, &parts, &size, opts);
        assert_eq!(gr.unit_order.len(), ug.len());
        assert!(dp_peak <= order_peak_bytes(&g, &ug, &gr.unit_order, &size));
    }

    #[test]
    fn lifetimes_cover_all_materialized_tensors() {
        let g = fanout_graph();
        let (_rdp, plan, ug) = setup(&g);
        let size = |_t: TensorId| 64usize;
        let order = naive_unit_order(&ug);
        let lives = unit_lifetimes(&g, &ug, &order, &size);
        assert_eq!(lives.len(), ug.producer.len());
        let _ = plan;
    }

    #[test]
    fn chain_order_unchanged() {
        // A pure chain has a unique topo order; planners must return it.
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![8.into()]);
        let a = g.add_simple("a", Op::Softmax { axis: 0 }, &[x], DType::F32);
        let b = g.add_simple("b", Op::Softmax { axis: 0 }, &[a], DType::F32);
        let c = g.add_simple("c", Op::Unary(UnaryOp::Relu), &[b], DType::F32);
        g.mark_output(c);
        let (rdp, plan, ug) = setup(&g);
        let parts = partition_units(&g, &rdp, &plan, &ug);
        let size = |_t: TensorId| 32usize;
        let ep = plan_order(&g, &ug, &parts, &size, SepOptions::default());
        let mut sorted = ep.unit_order.clone();
        sorted.sort_unstable();
        assert_eq!(ep.unit_order, sorted);
    }
}
