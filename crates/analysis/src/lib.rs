//! # sod2-analysis — static diagnostics over the whole SoD² pipeline
//!
//! A reusable diagnostics framework ([`Diagnostic`], [`Report`], text and
//! JSON renderers) plus analyses covering every compilation stage:
//!
//! - [`ir_lints`] — extended IR lints beyond `sod2_ir::validate`: dtype
//!   inference and mismatch detection, dead-node/unused-output detection,
//!   `<Switch, Combine>` pairing, and non-panicking cycle detection;
//! - [`rdp_check`] — RDP soundness: cross-validation of the inferred
//!   ranks/dimensions against concretely observed shapes, and a fixpoint
//!   monotonicity audit over [`sod2_rdp::RdpTrace`];
//! - [`mem_check`] — memory-plan verification lifting `sod2_mem`'s typed
//!   [`sod2_mem::PlanViolation`]s into diagnostics, plus a cross-planner
//!   comparison against the live-range lower bound;
//! - [`plan_check`] — execution/fusion-plan verification: SEP orders must
//!   be dependency-valid topological orders, fusion groups must not
//!   leak fused-away tensors to external consumers, and wavefront
//!   schedules must be legal parallel schedules (dependence-respecting
//!   waves, peak within slack);
//! - [`tape_check`] — tape↔plan correspondence: the lowered instruction
//!   stream must cover every planned node exactly once in a
//!   dependence-valid order, and its release schedule must match a
//!   refcount replay.
//!
//! [`analyze_static`] is the one-call driver used by `sod2-cli analyze`
//! and the engines' debug-mode verification stage.
//!
//! # Examples
//!
//! ```
//! use sod2_ir::{DType, Graph, Op, UnaryOp};
//! use sod2_analysis::analyze_static;
//!
//! let mut g = Graph::new();
//! let x = g.add_input("x", DType::F32, vec![4.into()]);
//! let y = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
//! g.mark_output(y);
//! let report = analyze_static(&g);
//! assert!(!report.has_errors());
//! ```

pub mod absint;
mod diag;
pub mod ir_lints;
pub mod mem_check;
pub mod plan_check;
pub mod rdp_check;
pub mod tape_check;

pub use absint::{certify, prune_dead_arms, verify_arm_pruning, Certificates, PruneOutcome};
pub use diag::{Anchor, Diagnostic, Report, Severity};
pub use ir_lints::{lint_graph, registry, Lint};
pub use mem_check::{compare_planners, verify_memory_plan};
pub use plan_check::{
    verify_fusion, verify_fusion_internals, verify_node_order, verify_unit_order,
    verify_wavefront_schedule,
};
pub use rdp_check::{check_monotonicity, report_inconsistencies, verify_observed_shapes};
pub use tape_check::verify_tape;

use sod2_fusion::{fuse, FusionPolicy};
use sod2_ir::Graph;
use sod2_plan::{
    naive_unit_order, partition_units, plan_order, plan_wavefronts, unit_lifetimes, SepOptions,
    UnitGraph, WavefrontOptions,
};
use sod2_rdp::analyze_traced;

/// Representative value for unresolved symbolic dimensions when the static
/// driver sizes tensors (mirrors the engines' planning default).
const REPRESENTATIVE_DIM: i64 = 32;

/// Fallback byte size for tensors RDP cannot size at all.
const FALLBACK_BYTES: usize = 4096;

/// Runs every static analysis stage over a graph and collects the findings:
/// IR lints, the RDP fixpoint audit, fusion- and execution-plan
/// verification, and the cross-planner memory comparison (sized at a
/// representative dimension binding).
///
/// Structural IR errors short-circuit the later stages — they assume an
/// indexable, acyclic graph.
pub fn analyze_static(graph: &Graph) -> Report {
    let mut report = Report::new();
    report.extend(lint_graph(graph));
    if report.has_errors() {
        return report;
    }

    // Stage 2: RDP, with fixpoint trace.
    let (rdp, solver_report, trace) = analyze_traced(graph);
    report.extend(check_monotonicity(graph, &trace));
    report.extend(report_inconsistencies(&solver_report));

    // Stage 3: fusion plan.
    let fusion = fuse(graph, &rdp, FusionPolicy::Rdp);
    report.extend(verify_fusion(graph, &fusion));

    // Stage 4: execution plan (SEP) at a representative size.
    let ug = UnitGraph::build(graph, &fusion);
    let bindings = sod2_sym::Bindings::new();
    let size_of = |t: sod2_ir::TensorId| -> usize {
        rdp.symbolic_bytes(graph, t)
            .and_then(|e| e.eval_with_default(&bindings, REPRESENTATIVE_DIM))
            .map(|b| b.max(0) as usize)
            .unwrap_or(FALLBACK_BYTES)
    };
    let partitions = partition_units(graph, &rdp, &fusion, &ug);
    let plan = plan_order(graph, &ug, &partitions, &size_of, SepOptions::default());
    report.extend(verify_unit_order(&ug, &plan.unit_order));
    report.extend(verify_node_order(graph, &plan.node_order));
    report.extend(verify_unit_order(&ug, &naive_unit_order(&ug)));

    // Stage 4b: wavefront schedule over the SEP order, verified as a
    // parallel schedule.
    let wave_opts = WavefrontOptions::default();
    let ws = plan_wavefronts(graph, &ug, &plan.unit_order, &size_of, wave_opts);
    report.extend(verify_wavefront_schedule(
        graph,
        &ug,
        &ws,
        &size_of,
        wave_opts.slack,
    ));

    // Stage 5: memory plans over the SEP order's lifetimes.
    let lives: Vec<sod2_mem::TensorLife> = unit_lifetimes(graph, &ug, &plan.unit_order, &size_of)
        .into_iter()
        .filter(|l| l.size > 0)
        .collect();
    report.extend(compare_planners(&lives));

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod2_ir::{BinaryOp, DType, Op};
    use sod2_sym::DimExpr;

    #[test]
    fn clean_graph_reports_no_errors() {
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![DimExpr::sym("N"), 8.into()]);
        let y = g.add_simple("dbl", Op::Binary(BinaryOp::Add), &[x, x], DType::F32);
        g.mark_output(y);
        let report = analyze_static(&g);
        assert!(!report.has_errors(), "{}", report.render_text(Some(&g)));
        // The planner comparison still contributes info findings.
        assert!(report.has_code("mem/fragmentation"));
    }
}
