//! Backward transfer functions (the `F^bs` / `F^bv` families, paper Table 3).
//!
//! Backward transfer propagates *known output* shapes to *unknown input*
//! shapes (paper §3: "we can (and need to) backward propagate the known
//! output shapes (either rank or dimension or both) to the unknown input
//! shapes"). Rules are deliberately conservative: a dimension is proposed
//! only when the operator semantics make it unambiguous — e.g. the input of
//! `Relu` has exactly the output's shape, but an input of a broadcasting
//! `Add` "might be 1 or identical to the corresponding output dimension"
//! and is left alone unless the other operand disambiguates it.

use sod2_ir::{is_permutation, normalize_axis, Node, Op};
use sod2_sym::{DimExpr, DimValue, ShapeValue};

/// Computes shape proposals for the inputs of `node` from its outputs.
///
/// Returns one optional proposal per input; `None` entries make no claim.
/// The solver fills only `Undef` portions of the current input state.
pub fn backward(
    node: &Node,
    in_shapes: &[ShapeValue],
    out_shapes: &[ShapeValue],
) -> Vec<Option<ShapeValue>> {
    let n_in = node.inputs.len();
    let mut props: Vec<Option<ShapeValue>> = vec![None; n_in];
    let out = &out_shapes[0];
    match &node.op {
        // Shape-preserving element-wise ops: input = output.
        Op::Unary(_)
        | Op::Clip { .. }
        | Op::Softmax { .. }
        | Op::LogSoftmax { .. }
        | Op::CumSum { .. }
        | Op::Cast { .. }
        | Op::Identity
        | Op::EyeLike => {
            props[0] = Some(out.clone());
        }
        Op::LayerNorm { .. } | Op::BatchNorm { .. } | Op::InstanceNorm { .. } => {
            props[0] = Some(out.clone());
        }
        // Broadcasting binary: refine an input only when the other operand
        // pins the dimension (other == 1 ⇒ this == out; see module docs).
        Op::Binary(_) | Op::Compare(_) => {
            for i in 0..2 {
                let other = &in_shapes[1 - i];
                props[i] = backward_broadcast(out, &in_shapes[i], other);
            }
        }
        Op::Conv2d { spatial, .. } => {
            // Invert the spatial arithmetic: in = (out - 1)*s - 2p + k.
            if let (Some(od), Some(wd)) = (out.dims(), in_shapes[1].dims()) {
                if od.len() == 4 && wd.len() == 4 {
                    let inv = |axis: usize, d: &DimValue| -> DimValue {
                        match d.as_expr() {
                            Some(e) => {
                                let s = spatial.stride[axis] as i64;
                                let p = spatial.padding[axis] as i64;
                                let k = spatial.kernel[axis] as i64;
                                if s == 1 {
                                    // Exact inverse for unit stride.
                                    DimValue::Expr(DimExpr::add(
                                        e.clone(),
                                        DimExpr::Const(k - 1 - 2 * p),
                                    ))
                                } else {
                                    // Strided convs lose information
                                    // (floor); make no claim.
                                    DimValue::Undef
                                }
                            }
                            None => DimValue::Undef,
                        }
                    };
                    // Input channels = weight dim 1 * groups; we only know
                    // groups from the op.
                    let cin = match (&node.op, wd[1].as_expr()) {
                        (Op::Conv2d { groups, .. }, Some(e)) => {
                            DimValue::Expr(DimExpr::mul(e.clone(), DimExpr::Const(*groups as i64)))
                        }
                        _ => DimValue::Undef,
                    };
                    props[0] = Some(ShapeValue::Ranked(vec![
                        od[0].clone(),
                        cin,
                        inv(0, &od[2]),
                        inv(1, &od[3]),
                    ]));
                }
            }
        }
        Op::MatMul => {
            // a: [..., M, K], b: [..., K, N], out: [..., M, N].
            if let Some(od) = out.dims() {
                if od.len() >= 2 {
                    let m = od[od.len() - 2].clone();
                    let n = od[od.len() - 1].clone();
                    if let Some(bd) = in_shapes[1].dims() {
                        if bd.len() >= 2 {
                            let k = bd[bd.len() - 2].clone();
                            // Refine a's trailing dims when a's rank known.
                            if let Some(ad) = in_shapes[0].dims() {
                                if ad.len() >= 2 {
                                    let mut prop = vec![DimValue::Undef; ad.len()];
                                    prop[ad.len() - 2] = m.clone();
                                    prop[ad.len() - 1] = k;
                                    props[0] = Some(ShapeValue::Ranked(prop));
                                }
                            }
                        }
                    }
                    if let Some(ad) = in_shapes[0].dims() {
                        if ad.len() >= 2 {
                            let k = ad[ad.len() - 1].clone();
                            if let Some(bd) = in_shapes[1].dims() {
                                if bd.len() >= 2 {
                                    let mut prop = vec![DimValue::Undef; bd.len()];
                                    prop[bd.len() - 2] = k;
                                    prop[bd.len() - 1] = n;
                                    props[1] = Some(ShapeValue::Ranked(prop));
                                }
                            }
                        }
                    }
                }
            }
        }
        Op::Transpose { perm } => {
            if let Some(od) = out.dims() {
                if od.len() == perm.len() && is_permutation(perm) {
                    let mut inv = vec![DimValue::Undef; od.len()];
                    for (i, &p) in perm.iter().enumerate() {
                        inv[p] = od[i].clone();
                    }
                    props[0] = Some(ShapeValue::Ranked(inv));
                }
            }
        }
        Op::Concat { axis } => {
            // Non-axis dimensions of every input equal the output's.
            if let Some(od) = out.dims() {
                if let Some(ax) = normalize_axis(*axis, od.len()) {
                    for (i, prop) in props.iter_mut().enumerate() {
                        let rank_ok = match in_shapes[i].rank() {
                            Some(r) => r == od.len(),
                            None => true,
                        };
                        if rank_ok {
                            let mut p = od.to_vec();
                            p[ax] = DimValue::Undef;
                            *prop = Some(ShapeValue::Ranked(p));
                        }
                    }
                }
            }
        }
        Op::Switch { num_branches } => {
            // The data input equals every branch output.
            let mut acc = ShapeValue::Undef;
            for s in out_shapes.iter().take(*num_branches) {
                acc = acc.refine(s);
            }
            props[0] = Some(acc);
        }
        Op::Combine { num_branches } => {
            // Each live branch input produced the output.
            for prop in props.iter_mut().take(*num_branches) {
                *prop = Some(out.clone());
            }
        }
        Op::Reshape => {
            // Rank of the target tensor (input 1) is the output's rank.
            if let Some(r) = out.rank() {
                props[1] = Some(ShapeValue::known(&[r as i64]));
            }
        }
        // All other operators: no backward claim.
        _ => {}
    }
    props
}

/// Backward rule for a broadcasting binary operand (paper §3 example).
fn backward_broadcast(
    out: &ShapeValue,
    this: &ShapeValue,
    other: &ShapeValue,
) -> Option<ShapeValue> {
    let od = out.dims()?;
    // Only refine when this input's rank is known to equal the output rank
    // (rank-extension would shift alignment).
    let rank = this.rank()?;
    if rank != od.len() {
        return None;
    }
    let other_dims = other.dims();
    let mut prop = Vec::with_capacity(rank);
    for i in 0..rank {
        let other_dim = other_dims.and_then(|d| {
            // Right-aligned correspondence.
            let off = od.len() as i64 - d.len() as i64;
            let j = i as i64 - off;
            if j >= 0 {
                d.get(j as usize)
            } else {
                None
            }
        });
        let pinned = match other_dim {
            // other == 1 ⇒ this dim must equal out dim.
            Some(dv) if dv.as_const() == Some(1) => Some(od[i].clone()),
            // other missing (rank-extended) ⇒ this supplied the dim.
            None => Some(od[i].clone()),
            _ => {
                // If out dim == 1 then this dim must be 1 too.
                if od[i].as_const() == Some(1) {
                    Some(DimValue::known(1))
                } else {
                    None
                }
            }
        };
        prop.push(pinned.unwrap_or(DimValue::Undef));
    }
    Some(ShapeValue::Ranked(prop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod2_ir::{BinaryOp, DType, Graph, UnaryOp};

    fn node_of(op: Op, n_in: usize) -> Node {
        let mut g = Graph::new();
        let mut ins = Vec::new();
        for i in 0..n_in {
            ins.push(g.add_input(format!("i{i}"), DType::F32, vec![]));
        }
        g.add_node("n", op, &ins, DType::F32);
        g.nodes()[0].clone()
    }

    #[test]
    fn unary_backward_copies_shape() {
        let n = node_of(Op::Unary(UnaryOp::Relu), 1);
        let out = ShapeValue::known(&[2, 3]);
        let props = backward(&n, &[ShapeValue::Undef], std::slice::from_ref(&out));
        assert_eq!(props[0], Some(out));
    }

    #[test]
    fn broadcast_backward_pins_when_other_is_one() {
        let n = node_of(Op::Binary(BinaryOp::Add), 2);
        let out = ShapeValue::Ranked(vec![DimValue::sym("a"), DimValue::sym("b")]);
        let this = ShapeValue::ranked_nac(2).refine(&ShapeValue::Undef); // rank known
        let this = match this {
            ShapeValue::Ranked(_) => ShapeValue::Ranked(vec![DimValue::Undef; 2]),
            other => other,
        };
        let other = ShapeValue::Ranked(vec![DimValue::known(1), DimValue::sym("b")]);
        let props = backward(&n, &[this, other], &[out]);
        let p = props[0].clone().expect("proposal");
        let dims = p.dims().expect("ranked");
        // dim0: other == 1 so pinned to out's "a"; dim1: ambiguous.
        assert_eq!(dims[0], DimValue::sym("a"));
        assert_eq!(dims[1], DimValue::Undef);
    }

    #[test]
    fn transpose_backward_inverts_perm() {
        let n = node_of(Op::Transpose { perm: vec![1, 0] }, 1);
        let out = ShapeValue::Ranked(vec![DimValue::sym("b"), DimValue::sym("a")]);
        let props = backward(&n, &[ShapeValue::Undef], &[out]);
        assert_eq!(
            props[0],
            Some(ShapeValue::Ranked(vec![
                DimValue::sym("a"),
                DimValue::sym("b")
            ]))
        );
    }

    #[test]
    fn transpose_backward_skips_invalid_perm() {
        for perm in [vec![0, 1, 5], vec![0, 0, 1]] {
            let n = node_of(Op::Transpose { perm }, 1);
            let out = ShapeValue::known(&[2, 3, 4]);
            let props = backward(&n, &[ShapeValue::Undef], &[out]);
            assert_eq!(props[0], None);
        }
    }

    #[test]
    fn combine_backward_fans_out() {
        let n = node_of(Op::Combine { num_branches: 2 }, 3);
        let out = ShapeValue::known(&[5]);
        let props = backward(
            &n,
            &[
                ShapeValue::Undef,
                ShapeValue::Undef,
                ShapeValue::known(&[1]),
            ],
            std::slice::from_ref(&out),
        );
        assert_eq!(props[0], Some(out.clone()));
        assert_eq!(props[1], Some(out));
        assert_eq!(props[2], None);
    }

    #[test]
    fn matmul_backward_refines_contracted_dim() {
        let n = node_of(Op::MatMul, 2);
        let a = ShapeValue::Ranked(vec![DimValue::Undef, DimValue::Undef]);
        let b = ShapeValue::known(&[64, 128]);
        let out = ShapeValue::Ranked(vec![DimValue::sym("M"), DimValue::known(128)]);
        let props = backward(&n, &[a, b], &[out]);
        assert_eq!(
            props[0],
            Some(ShapeValue::Ranked(vec![
                DimValue::sym("M"),
                DimValue::known(64)
            ]))
        );
    }
}
