//! # sod2-runtime — the execution engine substrate
//!
//! Executes extended computational graphs on concrete tensors:
//!
//! - [`compile_tape`] / [`execute_tape`]: the production executor — the
//!   compiled plan lowered once to a register-machine tape, run serially
//!   or in wavefronts. A run does only what execution needs and returns
//!   its outputs plus a [`RunRecord`]: per register, produced or dead,
//!   with its shape and byte size,
//! - [`price_tape`]: the cost model's side, off the request path — a
//!   replay of a run's record over the tape that yields the kernel trace,
//!   the allocation stream outside a DMP layout
//!   ([`sod2_mem::ArenaLayout`]), the count the layout admits and the live
//!   peak ([`TapePrice`]). The engine and the baselines all price through
//!   it,
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
mod price;
pub mod tape;
mod trace;

pub use executor::{execute, ExecConfig, ExecError, ReferenceRun};
pub use passes::{eliminate_dead_nodes, fold_constants, PassStats};
pub use price::{price_tape, TapePrice};
pub use tape::{
    compile_tape, execute_tape, BakedVariant, Instr, InstrKind, RegRelease, RunOutcome, RunRecord,
    TapeChain, TapeProgram, TapeStats, WaveExecPlan,
};
pub use trace::{ExecutionTrace, LatencyBreakdown, TraceEvent};
