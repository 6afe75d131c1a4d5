//! RDP soundness checks: cross-validation of the statically inferred
//! ranks/dimensions against shapes observed during a concrete execution,
//! plus a fixpoint monotonicity audit over the solver's per-sweep trace.

use crate::diag::{Anchor, Diagnostic};
use sod2_ir::{Graph, Op, TensorId};
use sod2_rdp::{RdpReport, RdpResult, RdpTrace};
use sod2_sym::{Bindings, DimValue, ShapeValue};
use std::collections::HashMap;

/// Cross-validates RDP's lattice state against shapes recorded by a
/// concrete execution (`observed` maps tensor → concrete dims, typically
/// `RunRecord::concrete_shapes` of a tape run).
///
/// - A `Ranked` lattice value whose rank differs from the observed rank is
///   unsound (`rdp/rank-mismatch`, error).
/// - A dimension that evaluates under `bindings` to a number different
///   from the observed one is unsound (`rdp/dim-mismatch`, error).
/// - `Nac` is the sound "don't know" — never flagged. `Undef` on an
///   executed tensor means the analysis never reached live code
///   (`rdp/unreached`, warning).
pub fn verify_observed_shapes(
    graph: &Graph,
    rdp: &RdpResult,
    observed: &HashMap<TensorId, Vec<usize>>,
    bindings: &Bindings,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Tensors output by a non-taken Switch branch are recorded with an
    // empty placeholder shape by the executor; their lattice rank is for
    // the *taken* case, so skip them.
    let switch_outputs: std::collections::HashSet<TensorId> = graph
        .nodes()
        .iter()
        .filter(|n| matches!(n.op, Op::Switch { .. }))
        .flat_map(|n| n.outputs.iter().copied())
        .collect();
    let mut keys: Vec<&TensorId> = observed.keys().collect();
    keys.sort();
    for &t in keys {
        let dims = &observed[&t];
        if (t.0 as usize) >= graph.num_tensors() {
            continue;
        }
        match rdp.shape(t) {
            ShapeValue::Undef => {
                out.push(Diagnostic::warning(
                    "rdp/unreached",
                    Anchor::Tensor(t),
                    "executed at runtime but RDP never reached it (undef)",
                ));
            }
            ShapeValue::Nac => {} // sound: execution-determined
            ShapeValue::Ranked(lattice) => {
                if switch_outputs.contains(&t) && dims.is_empty() {
                    continue;
                }
                if lattice.len() != dims.len() {
                    out.push(Diagnostic::error(
                        "rdp/rank-mismatch",
                        Anchor::Tensor(t),
                        format!(
                            "RDP inferred rank {} but execution observed rank {} ({dims:?})",
                            lattice.len(),
                            dims.len()
                        ),
                    ));
                    continue;
                }
                for (i, (lat, &obs)) in lattice.iter().zip(dims.iter()).enumerate() {
                    let DimValue::Expr(e) = lat else { continue };
                    let Some(predicted) = e.eval(bindings) else {
                        continue;
                    };
                    if predicted != obs as i64 {
                        out.push(Diagnostic::error(
                            "rdp/dim-mismatch",
                            Anchor::Tensor(t),
                            format!(
                                "dim {i}: RDP predicts {e} = {predicted} under the \
                                 input bindings, execution observed {obs}"
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Lattice level of a whole-shape value: `Undef` (⊤) is 0, `Nac` 1,
/// `Ranked` 2. Sound solver runs only ever move values downward.
fn shape_level(s: &ShapeValue) -> u8 {
    match s {
        ShapeValue::Undef => 0,
        ShapeValue::Nac => 1,
        ShapeValue::Ranked(_) => 2,
    }
}

fn dim_level(d: &DimValue) -> u8 {
    match d {
        DimValue::Undef => 0,
        DimValue::Nac => 1,
        DimValue::Expr(_) => 2,
    }
}

/// Audits an [`RdpTrace`] for monotone descent: between consecutive
/// sweeps no tensor's shape may move *up* the lattice (resolved → undef,
/// expr → nac), and no already-resolved dimension expression may be
/// rewritten to a different expression. `Combine` outputs are exempt —
/// their state is the meet over branches and legitimately descends and
/// re-forms as branches resolve.
pub fn check_monotonicity(graph: &Graph, trace: &RdpTrace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let combine_outputs: std::collections::HashSet<usize> = graph
        .nodes()
        .iter()
        .filter(|n| matches!(n.op, Op::Combine { .. }))
        .flat_map(|n| n.outputs.iter().map(|t| t.0 as usize))
        .collect();
    for w in trace.shape_sweeps.windows(2) {
        let (prev, next) = (&w[0], &w[1]);
        for (idx, (p, n)) in prev.iter().zip(next.iter()).enumerate() {
            if combine_outputs.contains(&idx) {
                continue;
            }
            if shape_level(n) < shape_level(p) {
                out.push(Diagnostic::error(
                    "rdp/non-monotone",
                    Anchor::Tensor(TensorId(idx as u32)),
                    format!("shape moved up the lattice between sweeps: {p:?} -> {n:?}"),
                ));
                continue;
            }
            if let (ShapeValue::Ranked(pd), ShapeValue::Ranked(nd)) = (p, n) {
                if pd.len() != nd.len() {
                    out.push(Diagnostic::error(
                        "rdp/non-monotone",
                        Anchor::Tensor(TensorId(idx as u32)),
                        format!("rank changed between sweeps: {} -> {}", pd.len(), nd.len()),
                    ));
                    continue;
                }
                for (i, (a, b)) in pd.iter().zip(nd.iter()).enumerate() {
                    if dim_level(b) < dim_level(a) {
                        out.push(Diagnostic::error(
                            "rdp/non-monotone",
                            Anchor::Tensor(TensorId(idx as u32)),
                            format!("dim {i} moved up the lattice: {a:?} -> {b:?}"),
                        ));
                    } else if let (DimValue::Expr(a), DimValue::Expr(b)) = (a, b) {
                        if a != b {
                            out.push(Diagnostic::error(
                                "rdp/non-monotone",
                                Anchor::Tensor(TensorId(idx as u32)),
                                format!("dim {i} expression rewritten: {a} -> {b}"),
                            ));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Lifts the solver's own forward/backward disagreement log into
/// diagnostics (`rdp/inconsistency`, warning — the solver keeps the first
/// resolution, so execution is still deterministic).
pub fn report_inconsistencies(report: &RdpReport) -> Vec<Diagnostic> {
    report
        .inconsistencies
        .iter()
        .map(|msg| Diagnostic::warning("rdp/inconsistency", Anchor::Graph, msg.clone()))
        .collect()
}
