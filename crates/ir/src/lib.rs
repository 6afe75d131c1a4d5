//! # sod2-ir — extended computational graph IR
//!
//! The intermediate representation shared by every SoD² component:
//!
//! - [`Op`]: the operator set (ONNX-style plus the paper's customized
//!   `<Switch, Combine>` control-flow pair) with typed attributes,
//! - [`DynamismClass`] and [`classify`]: the paper's four-way operator
//!   classification (§3, Table 2), including the contextual refinement for
//!   constant inputs,
//! - [`Graph`]: the extended computational DAG with builder methods,
//!   topological ordering, and validation,
//! - [`onnx_table`]: the full 150-operator ONNX classification table used
//!   by the Table 2 report.
//!
//! # Examples
//!
//! ```
//! use sod2_ir::{Graph, Op, BinaryOp, DType, classify, DynamismClass};
//! use sod2_sym::DimExpr;
//!
//! let mut g = Graph::new();
//! let x = g.add_input("x", DType::F32, vec![DimExpr::sym("N"), 16.into()]);
//! let y = g.add_simple("double", Op::Binary(BinaryOp::Add), &[x, x], DType::F32);
//! g.mark_output(y);
//! assert_eq!(classify(&Op::Binary(BinaryOp::Add)),
//!            DynamismClass::InputShapeDeterminedOutputShape);
//! assert_eq!(g.topo_order().len(), 1);
//! ```

mod classify;
mod dtype;
mod graph;
pub mod onnx_table;
mod op;
pub mod serialize;
mod validate;

pub use classify::{classify, classify_with_const_inputs, shape_determining_inputs, DynamismClass};
pub use dtype::{ConstData, DType};
pub use graph::{Graph, Node, NodeId, TensorId, TensorInfo};
pub use op::{
    is_permutation, normalize_axis, Arity, BinaryOp, CompareOp, Op, ReduceOp, Spatial2d, UnaryOp,
};
pub use validate::{validate, ValidateError};
