//! # sod2 — Statically Optimizing Dynamic DNN Execution
//!
//! A Rust reproduction of *"SoD²: Statically Optimizing Dynamic Deep Neural
//! Network Execution"* (ASPLOS 2024). This façade crate wires the pipeline
//! together and re-exports the component crates:
//!
//! 1. **RDP** ([`sod2_rdp`]) — Rank and Dimension Propagation, the
//!    forward+backward data-flow analysis inferring every intermediate
//!    tensor's shape as known/symbolic/op-inferred constants,
//! 2. **Fusion** ([`sod2_fusion`]) — RDP-enabled operator fusion with
//!    bounded multi-versioning,
//! 3. **SEP** ([`sod2_plan`]) — static execution planning (operator order
//!    minimizing peak memory, partitioned at `nac` boundaries),
//! 4. **DMP** ([`sod2_mem`]) — runtime memory-allocation planning,
//! 5. **MVC** ([`sod2_mvc`]) — multi-version kernel generation via a
//!    genetic auto-tuner.
//!
//! # Quickstart
//!
//! ```
//! use sod2::{Compiler, DeviceProfile};
//! use sod2_ir::{Graph, Op, DType, UnaryOp, BinaryOp};
//! use sod2_sym::DimExpr;
//! use sod2_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A dynamic-shape graph: relu(x) + x with a symbolic batch size.
//! let mut g = Graph::new();
//! let x = g.add_input("x", DType::F32, vec![DimExpr::sym("N"), 4.into()]);
//! let r = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
//! let y = g.add_simple("add", Op::Binary(BinaryOp::Add), &[r, x], DType::F32);
//! g.mark_output(y);
//!
//! // Compile once, run at any input size — no re-initialization.
//! let mut model = Compiler::new(DeviceProfile::s888_cpu()).compile(g);
//! for n in [2usize, 8, 5] {
//!     let input = Tensor::from_f32(&[n, 4], vec![-1.0; n * 4]);
//!     let out = model.run(&[input])?;
//!     assert_eq!(out.outputs[0].shape(), &[n, 4]);
//! }
//! # Ok(())
//! # }
//! ```

pub use sod2_device::{DeviceKind, DeviceProfile};
pub use sod2_frameworks::{
    Engine, InferenceStats, MnnLike, OrtLike, Run, Sod2Engine, Sod2Options, TfLiteLike,
    TvmNimbleLike,
};
pub use sod2_fusion::FusionPolicy;
pub use sod2_ir::{Graph, Op};
pub use sod2_rdp::{analyze, RdpResult, ShapeClass};
pub use sod2_runtime::{ExecError, LatencyBreakdown};
pub use sod2_sym::{Bindings, DimExpr, DimValue, ShapeValue};
pub use sod2_tensor::Tensor;

/// Builder for compiling dynamic DNN graphs with SoD².
///
/// # Examples
///
/// ```
/// use sod2::{Compiler, DeviceProfile, Sod2Options};
///
/// let compiler = Compiler::new(DeviceProfile::s835_cpu())
///     .options(Sod2Options::default());
/// # let _ = compiler;
/// ```
#[derive(Clone)]
pub struct Compiler {
    profile: DeviceProfile,
    opts: Sod2Options,
    repr_bindings: Bindings,
}

impl Compiler {
    /// Creates a compiler targeting a device.
    pub fn new(profile: DeviceProfile) -> Self {
        Compiler {
            profile,
            opts: Sod2Options::default(),
            repr_bindings: Bindings::new(),
        }
    }

    /// Overrides the optimization set (see [`Sod2Options`]).
    pub fn options(mut self, opts: Sod2Options) -> Self {
        self.opts = opts;
        self
    }

    /// Provides representative symbol values for execution-order planning
    /// (e.g. the midpoint of an expected input-size range).
    pub fn representative_bindings(mut self, bindings: Bindings) -> Self {
        self.repr_bindings = bindings;
        self
    }

    /// Compiles a graph into a runnable model.
    pub fn compile(&self, graph: Graph) -> CompiledModel {
        CompiledModel {
            engine: Sod2Engine::new(graph, self.profile.clone(), self.opts, &self.repr_bindings),
        }
    }
}

/// A compiled dynamic model: run it at any input shape with no
/// re-initialization.
pub struct CompiledModel {
    engine: Sod2Engine,
}

impl CompiledModel {
    /// Runs one inference.
    ///
    /// # Errors
    ///
    /// Propagates executor errors (kernel failures, malformed inputs).
    pub fn run(&mut self, inputs: &[Tensor]) -> Result<Run, ExecError> {
        self.engine.infer(inputs)
    }

    /// Prices a run of this model on its device profile.
    pub fn price(&self, run: &Run) -> InferenceStats {
        self.engine.price(run)
    }

    /// The underlying engine (analysis results, fusion plan, partitions).
    pub fn engine(&self) -> &Sod2Engine {
        &self.engine
    }

    /// Mutable engine access.
    pub fn engine_mut(&mut self) -> &mut Sod2Engine {
        &mut self.engine
    }
}

/// Freezes a dynamic graph: substitutes concrete values for the symbolic
/// dimensions of every graph input (the Fig. 12 static-model comparison).
///
/// Tensors other than graph inputs are untouched — RDP re-derives them.
pub fn freeze(graph: &Graph, bindings: &Bindings) -> Graph {
    let mut g = graph.clone();
    let map: std::collections::BTreeMap<String, DimExpr> = bindings
        .iter()
        .map(|(k, &v)| (k.clone(), DimExpr::Const(v)))
        .collect();
    for t in graph.tensor_ids() {
        if !graph.inputs().contains(&t) {
            continue;
        }
        let info = g.tensor_mut(t);
        if let ShapeValue::Ranked(dims) = &info.shape {
            let new: Vec<DimValue> = dims
                .iter()
                .map(|d| match d.as_expr() {
                    Some(e) => DimValue::Expr(e.substitute(&map)),
                    None => d.clone(),
                })
                .collect();
            info.shape = ShapeValue::Ranked(new);
        }
    }
    g
}

/// Summary statistics of an RDP run over a graph — handy for reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisSummary {
    /// Tensors with fully known shapes.
    pub known: usize,
    /// Tensors with symbolic-constant shapes.
    pub symbolic: usize,
    /// Tensors with op-inferred shapes.
    pub op_inferred: usize,
    /// Tensors with execution-determined shapes.
    pub nac: usize,
    /// Solver sweeps to fixpoint.
    pub iterations: usize,
}

/// Runs RDP and summarizes the outcome.
pub fn analyze_summary(graph: &Graph) -> AnalysisSummary {
    let rdp = analyze(graph);
    let (known, symbolic, op_inferred, nac, unknown) = rdp.class_counts();
    AnalysisSummary {
        known,
        symbolic,
        op_inferred,
        nac: nac + unknown,
        iterations: rdp.iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod2_ir::{DType, UnaryOp};

    fn dyn_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![DimExpr::sym("N"), 4.into()]);
        let y = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
        g.mark_output(y);
        g
    }

    #[test]
    fn compile_and_run_multiple_shapes() {
        let mut m = Compiler::new(DeviceProfile::s888_cpu()).compile(dyn_graph());
        for n in [1usize, 3, 7] {
            let out = m.run(&[Tensor::zeros(&[n, 4])]).expect("runs");
            assert_eq!(out.outputs[0].shape(), &[n, 4]);
            assert!(!out.reinitialized);
        }
    }

    #[test]
    fn freeze_makes_shapes_static() {
        let g = dyn_graph();
        let mut b = Bindings::new();
        b.insert("N".into(), 6);
        let frozen = freeze(&g, &b);
        let summary = analyze_summary(&frozen);
        assert_eq!(summary.symbolic, 0);
        assert_eq!(summary.nac, 0);
        assert!(summary.known >= 2);
    }

    #[test]
    fn summary_counts_classes() {
        let s = analyze_summary(&dyn_graph());
        assert!(s.symbolic >= 2);
        assert!(s.iterations >= 1);
    }
}
