//! # sod2-runtime — the execution engine substrate
//!
//! Executes extended computational graphs on concrete tensors:
//!
//! - [`compile_tape`] / [`execute_tape`]: the production executor — the
//!   compiled plan lowered once to a register-machine tape, run serially
//!   or in wavefronts, with every materialized intermediate accounted
//!   against the DMP layout ([`sod2_mem::ArenaLayout`]) when one is
//!   given. It is the one executor that plans, fuses and accounts: the
//!   engine and the baselines all price its [`RunOutcome`],
//! - [`execute`]: the serial, heap-only reference interpreter — node by
//!   node in topological order, with native `<Switch, Combine>` control
//!   flow (dead branches skipped) or the baselines' execute-all-branches
//!   mode, multi-version kernel selection, NaN fences and the memory
//!   budget. It records only what it observes ([`ReferenceRun`]): the
//!   output oracle the tape and every engine are checked against,
//! - [`ExecutionTrace`] / [`TraceEvent`] / [`LatencyBreakdown`]: priceable
//!   event streams that the engines in `sod2-frameworks` extend with their
//!   strategy-specific overhead events (re-initialization, shape functions,
//!   per-tensor allocation).
//!
//! # Examples
//!
//! ```
//! use sod2_ir::{Graph, Op, DType, UnaryOp};
//! use sod2_tensor::Tensor;
//! use sod2_runtime::{execute, ExecConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = Graph::new();
//! let x = g.add_input("x", DType::F32, vec![sod2_sym::DimExpr::sym("N")]);
//! let y = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
//! g.mark_output(y);
//! let out = execute(&g, &[Tensor::from_f32(&[3], vec![-1.0, 0.0, 2.0])],
//!                   &ExecConfig::default())?;
//! assert_eq!(out.outputs[0].as_f32()?, &[0.0, 0.0, 2.0]);
//! # Ok(())
//! # }
//! ```

// The executor sits on the inference hot path: every failure must surface
// as a typed `ExecError`, never a panic. Provably-infallible sites carry a
// scoped `allow` with the invariant that makes them so.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod executor;
pub mod passes;
pub mod tape;
mod trace;

pub use executor::{execute, ExecConfig, ExecError, ReferenceRun};
pub use passes::{eliminate_dead_nodes, fold_constants, PassStats};
pub use tape::{
    compile_tape, execute_tape, BakedVariant, Instr, InstrKind, RegRelease, RunOutcome, TapeChain,
    TapeProgram, TapeStats, WaveExecPlan,
};
pub use trace::{ExecutionTrace, LatencyBreakdown, TraceEvent};
