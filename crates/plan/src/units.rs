//! Schedulable units: fused groups collapsed into super-nodes.
//!
//! Execution planning schedules *fusion groups*, not individual operators —
//! group members execute contiguously as one kernel, and only tensors
//! crossing group boundaries ever materialize.

use sod2_fusion::FusionPlan;
use sod2_ir::{Graph, NodeId, TensorId};
use std::collections::{HashMap, HashSet};

/// One schedulable unit (a fused group).
#[derive(Debug, Clone)]
pub struct Unit {
    /// Unit index (== fusion group index).
    pub id: usize,
    /// Member operators in topological order.
    pub nodes: Vec<NodeId>,
    /// External input tensors (read from outside the unit).
    pub inputs: Vec<TensorId>,
    /// External output tensors (materialized).
    pub outputs: Vec<TensorId>,
}

/// The unit-level DAG.
#[derive(Debug, Clone)]
pub struct UnitGraph {
    /// All units, indexed by id.
    pub units: Vec<Unit>,
    /// Unit-level predecessor lists (deduplicated).
    pub preds: Vec<Vec<usize>>,
    /// Unit-level successor lists (deduplicated).
    pub succs: Vec<Vec<usize>>,
    /// Which unit produces each materialized tensor.
    pub producer: HashMap<TensorId, usize>,
    /// Which units consume each materialized tensor.
    pub consumers: HashMap<TensorId, Vec<usize>>,
}

impl UnitGraph {
    /// Builds the unit graph for a fusion plan.
    pub fn build(graph: &Graph, fusion: &FusionPlan) -> UnitGraph {
        let internal = fusion.internal_tensors(graph);
        let n = fusion.groups.len();
        let mut units: Vec<Unit> = Vec::with_capacity(n);
        let mut producer: HashMap<TensorId, usize> = HashMap::new();
        for (id, group) in fusion.groups.iter().enumerate() {
            let members: HashSet<NodeId> = group.nodes.iter().copied().collect();
            let mut inputs: Vec<TensorId> = Vec::new();
            let mut outputs: Vec<TensorId> = Vec::new();
            for &nid in &group.nodes {
                let node = graph.node(nid);
                for &t in &node.inputs {
                    let from_inside = graph
                        .producer(t)
                        .map(|p| members.contains(&p))
                        .unwrap_or(false);
                    if !from_inside && !inputs.contains(&t) {
                        inputs.push(t);
                    }
                }
                for &t in &node.outputs {
                    if !internal.contains(&t) {
                        outputs.push(t);
                        producer.insert(t, id);
                    }
                }
            }
            units.push(Unit {
                id,
                nodes: group.nodes.clone(),
                inputs,
                outputs,
            });
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut consumers: HashMap<TensorId, Vec<usize>> = HashMap::new();
        for u in &units {
            for &t in &u.inputs {
                consumers.entry(t).or_default().push(u.id);
                if let Some(&p) = producer.get(&t) {
                    if p != u.id {
                        if !preds[u.id].contains(&p) {
                            preds[u.id].push(p);
                        }
                        if !succs[p].contains(&u.id) {
                            succs[p].push(u.id);
                        }
                    }
                }
            }
        }
        let ug = UnitGraph {
            units,
            preds,
            succs,
            producer,
            consumers,
        };
        ug.renumber_topologically()
    }

    /// Renumbers units so that ids form a (stable) topological order of the
    /// unit DAG — fusion groups are created in node order, but a group may
    /// gain late members that depend on later-created groups, so creation
    /// order alone is not schedulable.
    ///
    /// # Panics
    ///
    /// Panics if the unit graph is cyclic (the fusion pass prevents this).
    fn renumber_topologically(self) -> UnitGraph {
        let n = self.units.len();
        let mut indegree: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        // Stable Kahn: always pick the smallest available original id.
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
            .filter(|&i| indegree[i] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(u)) = ready.pop() {
            order.push(u);
            for &s in &self.succs[u] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    ready.push(std::cmp::Reverse(s));
                }
            }
        }
        assert_eq!(order.len(), n, "fusion produced a cyclic unit graph");
        // old id -> new id
        let mut new_id = vec![0usize; n];
        for (new, &old) in order.iter().enumerate() {
            new_id[old] = new;
        }
        let mut units: Vec<Unit> = order
            .iter()
            .map(|&old| {
                let mut u = self.units[old].clone();
                u.id = new_id[old];
                u
            })
            .collect();
        units.sort_by_key(|u| u.id);
        let remap = |v: &[usize]| -> Vec<usize> {
            let mut out: Vec<usize> = v.iter().map(|&x| new_id[x]).collect();
            out.sort_unstable();
            out
        };
        let preds = order.iter().map(|&old| remap(&self.preds[old])).collect();
        let succs = order.iter().map(|&old| remap(&self.succs[old])).collect();
        let producer = self
            .producer
            .into_iter()
            .map(|(t, u)| (t, new_id[u]))
            .collect();
        let consumers = self
            .consumers
            .into_iter()
            .map(|(t, v)| (t, remap(&v)))
            .collect();
        UnitGraph {
            units,
            preds,
            succs,
            producer,
            consumers,
        }
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// `true` when there are no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The node order a unit order flattens to: each unit's nodes in
    /// turn, so units stay contiguous (a fused chain evaluates whole at
    /// its head's position).
    pub fn node_order(&self, unit_order: &[usize]) -> Vec<NodeId> {
        unit_order
            .iter()
            .flat_map(|&u| self.units[u].nodes.iter().copied())
            .collect()
    }

    /// Bytes materialized by a unit (sum of its external outputs) under a
    /// size function.
    pub fn output_bytes(&self, unit: usize, size_of: &dyn Fn(TensorId) -> usize) -> usize {
        self.units[unit].outputs.iter().map(|&t| size_of(t)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod2_fusion::{fuse, FusionPolicy};
    use sod2_ir::{BinaryOp, DType, Op, UnaryOp};
    use sod2_rdp::analyze;

    #[test]
    fn unit_graph_collapses_groups() {
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![8.into()]);
        let r = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
        let s = g.add_simple("sig", Op::Unary(UnaryOp::Sigmoid), &[r], DType::F32);
        let nz = g.add_simple("nz", Op::NonZero, &[s], DType::I64);
        g.mark_output(nz);
        let rdp = analyze(&g);
        let plan = fuse(&g, &rdp, FusionPolicy::Rdp);
        let ug = UnitGraph::build(&g, &plan);
        // relu+sigmoid fuse; NonZero is opaque → 2 units.
        assert_eq!(ug.len(), 2);
        assert_eq!(ug.units[0].nodes.len(), 2);
        assert_eq!(ug.preds[1], vec![0]);
        assert_eq!(ug.succs[0], vec![1]);
    }

    #[test]
    fn diamond_dependencies() {
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![4.into()]);
        let s = g.add_simple("shape", Op::Shape, &[x], DType::I64); // opaque
        let c = g.add_simple("cos", Op::ConstantOfShape { value: 1.0 }, &[s], DType::F32);
        let y = g.add_simple("add", Op::Binary(BinaryOp::Add), &[x, c], DType::F32);
        g.mark_output(y);
        let rdp = analyze(&g);
        let plan = fuse(&g, &rdp, FusionPolicy::Rdp);
        let ug = UnitGraph::build(&g, &plan);
        assert_eq!(ug.len(), plan.groups.len());
        // No unit lists itself as a predecessor.
        for (i, ps) in ug.preds.iter().enumerate() {
            for &p in ps {
                assert!(p != i);
            }
        }
    }
}
