//! The SoD² engine: RDP → fusion → static execution planning → dynamic
//! memory planning → multi-version kernels, with native `<Switch,Combine>`
//! control flow. Each optimization can be toggled off for the Fig. 5/6
//! breakdown studies.

use crate::common::{bindings_from_inputs, observed_bytes, Engine, InferenceStats, Run};
use sod2_device::DeviceProfile;
use sod2_fusion::{fuse, FusionPlan, FusionPolicy};
use sod2_ir::{Graph, NodeId, TensorId};
use sod2_mem::{plan_sod2, size_class_peak, verify_plan, ArenaLayout, MemoryPlan, TensorLife};
use sod2_mvc::VersionTable;
use sod2_plan::{
    naive_unit_order, partition_units, plan_order, plan_wavefronts, unit_lifetimes, Partition,
    SepOptions, UnitGraph, WavefrontOptions,
};
use sod2_rdp::{analyze, RdpResult};
use sod2_runtime::{
    bake_variants, compile_tape, execute_tape, price_tape, ExecConfig, ExecError, ExecutionTrace,
    RunRecord, TapeProgram, TapeStats, TraceEvent,
};
use sod2_sym::Bindings;
use sod2_tensor::Tensor;
use std::collections::HashMap;
use std::sync::Arc;

/// Which optimizations the engine applies (paper §5.3's ladder).
#[derive(Debug, Clone, Copy)]
pub struct Sod2Options {
    /// Fusion policy (the "No opt." baseline keeps static fusion).
    pub fusion: FusionPolicy,
    /// Static execution planning (§4.3).
    pub sep: bool,
    /// Dynamic memory planning (§4.4.1): an offset plan per bindings
    /// value, built before any kernel runs. It decides budget admission,
    /// [`Sod2Engine::predict`]'s peak, and which intermediates are priced
    /// inside the plan's one arena allocation; tensors whose size RDP
    /// cannot resolve at the current bindings are priced one allocation
    /// each.
    pub dmp: bool,
    /// Multi-version code generation (§4.4.2).
    pub mvc: bool,
    /// Native control flow (dead branches skipped); `false` reproduces the
    /// "execute-all, strip-out-invalid" comparison of Fig. 9.
    pub native_control_flow: bool,
    /// Per-inference wall-clock deadline. Execution is cancelled
    /// cooperatively — at node boundaries and inside chunked pool loops —
    /// and the inference fails with [`ExecError::DeadlineExceeded`],
    /// leaving the engine reusable.
    pub deadline: Option<std::time::Duration>,
    /// Cap (bytes) on intermediate-tensor memory per inference, enforced
    /// both against the pre-execution DMP plan and against live heap
    /// allocations at runtime; exceeding it fails with
    /// [`ExecError::BudgetExceeded`].
    pub memory_budget: Option<usize>,
    /// Fail with [`ExecError::NumericFault`] when a non-finite value
    /// reaches an output instead of returning poisoned results.
    pub nan_guard: bool,
    /// Consume abstract-interpretation certificates: prune `Switch` arms
    /// with proven-constant selectors at compile time (requires
    /// `native_control_flow`; the pruned graph is verified
    /// output-equivalent first), plan bounded-`nac` tensors into the DMP
    /// plan from proven element bounds, and elide the per-node NaN fence for
    /// proven-finite tensors when `nan_guard` is on.
    pub absint: bool,
    /// Capacity of the per-engine DMP pre-plan cache (entries keyed by
    /// bindings). Serving replicas bound this to cap per-replica plan
    /// memory; `0` disables caching entirely (every inference re-plans,
    /// which is also how the cache's priced benefit is measured). The
    /// cache is semantically transparent — outputs and memory metrics are
    /// identical at any capacity.
    pub pre_plan_cache_cap: usize,
}

impl Default for Sod2Options {
    fn default() -> Self {
        Sod2Options {
            fusion: FusionPolicy::Rdp,
            sep: true,
            dmp: true,
            mvc: true,
            native_control_flow: true,
            deadline: None,
            memory_budget: None,
            nan_guard: false,
            absint: true,
            pre_plan_cache_cap: DEFAULT_PRE_PLAN_CACHE_CAP,
        }
    }
}

impl Sod2Options {
    /// The "No opt." baseline of Fig. 5/6: static fusion and constant
    /// folding only, no RDP-enabled optimization.
    pub fn no_opt() -> Self {
        Sod2Options {
            fusion: FusionPolicy::Static,
            sep: false,
            dmp: false,
            mvc: false,
            absint: false,
            ..Sod2Options::default()
        }
    }
}

/// Deterministic wavefront statistics of one inference: a priced analysis
/// of how far inter-op parallelism could shorten the serial run, never
/// executed. Derived from a wavefront schedule over the SEP order and the
/// run's priced kernel trace (no wallclock): the makespan is what greedy
/// list scheduling of the priced unit costs onto [`WAVE_WORKERS`] workers
/// achieves, wave by wave. Computed on demand by
/// [`Sod2Engine::wave_stats`], off the request path.
#[derive(Debug, Clone, Copy)]
pub struct WaveStats {
    /// Number of wavefronts in the schedule.
    pub wave_count: usize,
    /// Widest wavefront (units able to run concurrently).
    pub max_width: usize,
    /// Times the memory bound split a wave.
    pub splits: usize,
    /// Priced serial kernel seconds (sum over all units).
    pub serial_s: f64,
    /// Priced scheduled makespan at [`WAVE_WORKERS`] workers.
    pub makespan_s: f64,
    /// Critical-path seconds through the unit DAG — the lower bound no
    /// schedule (with any worker count) can beat.
    pub critical_s: f64,
    /// Peak bytes of the serial SEP order (at planning sizes).
    pub serial_peak: usize,
    /// Concurrent peak of the wavefront schedule (at planning sizes).
    pub parallel_peak: usize,
}

/// Worker count the deterministic scheduled makespan is quoted at.
pub const WAVE_WORKERS: usize = 4;

/// A static (pre-execution) cost prediction for one request's bindings,
/// from [`Sod2Engine::predict`]. Deterministic: pure functions of the
/// request shapes, the RDP result, and the device cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPrediction {
    /// Cost-model seconds summed over every node whose shapes resolve
    /// concretely at these bindings (an optimistic lower bound).
    pub priced_s: f64,
    /// The DMP pre-plan's peak intermediate bytes — the value the engine's
    /// own budget admission enforces (0 without DMP).
    pub peak_bytes: usize,
    /// Nodes that contributed to `priced_s`.
    pub priced_nodes: usize,
    /// Compute nodes considered (control-flow ops excluded).
    pub total_nodes: usize,
}

/// The SoD² execution engine: compiles a graph once, then runs every
/// inference through the compiled register-machine tape.
pub struct Sod2Engine {
    graph: Graph,
    profile: DeviceProfile,
    opts: Sod2Options,
    rdp: RdpResult,
    certs: sod2_analysis::Certificates,
    fusion_plan: FusionPlan,
    unit_graph: UnitGraph,
    partitions: Vec<Partition>,
    /// SEP's unit order (naive without SEP): the order the tape runs and
    /// the DMP plans cover.
    unit_order: Vec<usize>,
    node_order: Vec<NodeId>,
    /// The representative bindings order planning sized tensors at; the
    /// wavefront analysis sizes them the same way.
    repr_bindings: Bindings,
    /// `Arc`-shared so `fork_replica` hands every serving replica the same
    /// tuned table without re-tuning or copying.
    table: Option<Arc<VersionTable>>,
    /// The plan compiled to a flat instruction tape, or why lowering
    /// failed (every inference then fails with [`ExecError::Internal`]).
    tape: Result<Arc<TapeProgram>, String>,
    /// DMP pre-plans keyed by bindings, most recently used first. Given
    /// the compiled schedule a pre-plan depends only on the bindings, so
    /// each is built and checked once and then shared: a hit clones an
    /// `Arc`. Empty without DMP.
    pre_plan_cache: Vec<(Bindings, Arc<ArenaLayout>)>,
}

/// Default capacity of the per-bindings pre-plan cache (small and linear:
/// real serving traffic cycles through a handful of shape configurations).
pub const DEFAULT_PRE_PLAN_CACHE_CAP: usize = 8;

/// Value static planning gives symbols the representative bindings leave
/// unbound.
const DEFAULT_DIM: i64 = 32;

/// A tensor's byte size for static planning: its symbolic byte count at
/// `bindings` with unbound symbols at `dim`, and 4 KiB when RDP cannot
/// size it. Relative magnitudes are what planning compares.
fn repr_bytes(rdp: &RdpResult, graph: &Graph, bindings: &Bindings, dim: i64, t: TensorId) -> usize {
    rdp.symbolic_bytes(graph, t)
        .and_then(|e| e.eval_with_default(bindings, dim))
        .map(|b| b.max(0) as usize)
        .unwrap_or(4096)
}

impl Sod2Engine {
    /// Compiles a graph for a device (the pre-deployment phase, §4.1).
    ///
    /// `repr_bindings` provide representative symbol values used only to
    /// compare symbolic tensor sizes during execution-order planning (and
    /// later by [`Sod2Engine::wave_stats`]).
    pub fn new(
        graph: Graph,
        profile: DeviceProfile,
        opts: Sod2Options,
        repr_bindings: &Bindings,
    ) -> Self {
        let _compile_span = sod2_obs::span!("compile", "Sod2Engine::new");
        // General static optimizations first (the paper's baseline already
        // includes constant folding): fold + prune, then analyze.
        let (graph, _pass_stats) = {
            let _s = sod2_obs::span!("stage", "fold_constants");
            sod2_runtime::fold_constants(&graph)
        };
        let rdp = {
            let _s = sod2_obs::span!("stage", "rdp_solve");
            analyze(&graph)
        };
        // Abstract interpretation: typed certificates (ranges, finiteness,
        // constness, nac element bounds) over the folded graph. When a
        // Switch selector is proven constant, the dead arms are folded out
        // here — but only after an output-equivalence check of the pruned
        // graph, and the analyses are re-derived on what will actually run.
        let (graph, rdp, certs) = {
            let _s = sod2_obs::span!("stage", "absint");
            let (certs, certs_report) = sod2_analysis::certify(&graph, &rdp);
            let pruned = (opts.absint && opts.native_control_flow && !certs_report.has_errors())
                .then(|| sod2_analysis::prune_dead_arms(&graph, &certs))
                .flatten()
                .filter(|out| sod2_analysis::verify_arm_pruning(&graph, &out.graph).is_empty());
            match pruned {
                Some(out) => {
                    sod2_obs::counter_add("absint.pruned_arms", out.pruned_arms as u64);
                    let graph = out.graph;
                    let rdp = analyze(&graph);
                    let (certs, _) = sod2_analysis::certify(&graph, &rdp);
                    (graph, rdp, certs)
                }
                None => (graph, rdp, certs),
            }
        };
        let fusion_plan = {
            let _s = sod2_obs::span!("stage", "fusion");
            fuse(&graph, &rdp, opts.fusion)
        };
        let (unit_graph, partitions) = {
            let _s = sod2_obs::span!("stage", "partition");
            let unit_graph = UnitGraph::build(&graph, &fusion_plan);
            let partitions = partition_units(&graph, &rdp, &fusion_plan, &unit_graph);
            (unit_graph, partitions)
        };
        // Representative sizes for order planning.
        let size_of = |t: TensorId| repr_bytes(&rdp, &graph, repr_bindings, DEFAULT_DIM, t);
        let sep_span = sod2_obs::span!("stage", "sep_plan");
        let unit_order = if opts.sep {
            let planned = plan_order(
                &graph,
                &unit_graph,
                &partitions,
                &size_of,
                SepOptions::default(),
            )
            .unit_order;
            let naive = naive_unit_order(&unit_graph);
            // The search above minimizes live bytes at one representative
            // size, but the engine pays a different objective at runtime —
            // the achieved offset-plan peak (with DMP) or the pooling
            // allocator's high-water mark (without) — and the concrete
            // dynamic dims are unknown statically. Judge both candidate
            // orders by the runtime objective across a spread of dims and
            // keep the planned order only when it never loses: the static
            // plan must not regress against the as-built baseline.
            const DIM_SWEEP: [i64; 5] = [8, 16, 32, 64, 128];
            let objective = |order: &[usize], dim: i64| -> usize {
                let size_at = |t: TensorId| repr_bytes(&rdp, &graph, repr_bindings, dim, t);
                let lives: Vec<TensorLife> = unit_lifetimes(&graph, &unit_graph, order, &size_at)
                    .into_iter()
                    .filter(|l| l.size > 0)
                    .collect();
                if opts.dmp {
                    plan_sod2(&lives).peak
                } else {
                    size_class_peak(&lives)
                }
            };
            let dominates = DIM_SWEEP
                .iter()
                .all(|&d| objective(&planned, d) <= objective(&naive, d));
            if dominates {
                planned
            } else {
                naive
            }
        } else {
            naive_unit_order(&unit_graph)
        };
        let node_order = unit_graph.node_order(&unit_order);
        drop(sep_span);
        let table = if opts.mvc {
            let _s = sod2_obs::span!("stage", "mvc_tune");
            // Persistent-cache path: a warm cache loads the table — the
            // priced selections and the host playoff's executed choices —
            // with zero GA generations and zero playoff timings.
            let (table, status) = VersionTable::load_or_tune(
                &profile,
                0xC0DE,
                sod2_mvc::cache::cache_dir().as_deref(),
            );
            if status.rejected.is_some() {
                sod2_obs::counter_add("mvc.cache_rejected", 1);
            }
            Some(Arc::new(table))
        } else {
            None
        };
        // Bake the executed kernel variants into the tape for hotspot
        // nodes whose output shapes RDP proves concrete under empty
        // bindings: their shape class — hence their executed version — is
        // a compile-time constant, so dispatch skips runtime selection.
        // Data-dependent (`nac`-shaped) nodes keep selecting per inference.
        let baked_variants = table.as_ref().map(|t| bake_variants(&graph, &rdp, t));
        // Lower the compiled plan to the execution tape: a flat instruction
        // stream with registers, release lists and group tails all resolved
        // at compile time. A lowering failure is kept and returned by every
        // inference as a typed error; there is no other executor to fall
        // back to.
        let tape = {
            let _s = sod2_obs::span!("stage", "tape_compile");
            compile_tape(
                &graph,
                &node_order,
                Some(&fusion_plan),
                opts.absint.then_some(certs.finite.as_slice()),
                baked_variants.as_ref(),
            )
            .map(Arc::new)
            .map_err(|e| {
                sod2_obs::counter_add("tape.compile_failures", 1);
                e.to_string()
            })
        };
        // Debug-mode verification stage: the compiled artifacts must pass
        // the static verifiers before the engine is allowed to run.
        #[cfg(debug_assertions)]
        {
            let mut stage = sod2_analysis::Report::new();
            stage.extend(sod2_analysis::verify_fusion(&graph, &fusion_plan));
            stage.extend(sod2_analysis::verify_unit_order(&unit_graph, &unit_order));
            stage.extend(sod2_analysis::verify_node_order(&graph, &node_order));
            if let Ok(tp) = &tape {
                stage.extend(sod2_analysis::verify_tape(
                    &graph,
                    &node_order,
                    Some(&fusion_plan),
                    tp,
                ));
            }
            debug_assert!(
                !stage.has_errors(),
                "compiled plan failed verification:\n{}",
                stage.render_text(Some(&graph))
            );
        }
        Sod2Engine {
            graph,
            profile,
            opts,
            rdp,
            certs,
            fusion_plan,
            unit_graph,
            partitions,
            unit_order,
            node_order,
            repr_bindings: repr_bindings.clone(),
            table,
            tape,
            pre_plan_cache: Vec::new(),
        }
    }

    /// Stamps out an execution replica sharing this engine's compiled
    /// artifacts: the register-machine tape stays `Arc`-shared (one
    /// lowering serves every replica; each inference brings its own
    /// register file), tensor payloads inside the graph are `Arc`-shared,
    /// and the schedules/certificates are cheap vector clones. The replica
    /// starts from this engine's warm pre-plan cache, sharing its layouts,
    /// so a freshly forked replica serves known shape classes without
    /// re-planning. No recompilation happens — this is what makes serving
    /// replicas cheap to stamp out per worker thread.
    pub fn fork_replica(&self) -> Sod2Engine {
        Sod2Engine {
            graph: self.graph.clone(),
            profile: self.profile.clone(),
            opts: self.opts,
            rdp: self.rdp.clone(),
            certs: self.certs.clone(),
            fusion_plan: self.fusion_plan.clone(),
            unit_graph: self.unit_graph.clone(),
            partitions: self.partitions.clone(),
            unit_order: self.unit_order.clone(),
            node_order: self.node_order.clone(),
            repr_bindings: self.repr_bindings.clone(),
            table: self.table.clone(),
            tape: self.tape.clone(),
            pre_plan_cache: self.pre_plan_cache.clone(),
        }
    }

    /// Static statistics of the compiled execution tape (`None` when
    /// lowering failed).
    pub fn tape_stats(&self) -> Option<TapeStats> {
        self.tape().map(TapeProgram::stats)
    }

    /// The compiled execution tape itself, for external verification
    /// (`None` when lowering failed).
    pub fn tape(&self) -> Option<&TapeProgram> {
        self.tape.as_deref().ok()
    }

    /// The compiled graph the tape runs on: folded, with proven-dead
    /// `Switch` arms pruned when absint is on.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The planned node order the tape was lowered from.
    pub fn node_order(&self) -> &[NodeId] {
        &self.node_order
    }

    /// Wavefront statistics of one inference from its priced trace
    /// ([`InferenceStats::trace`], from [`Engine::price`]). Plans
    /// wavefronts over the unit order at the representative sizes
    /// [`Sod2Engine::new`] planned with, prices each kernel event,
    /// attributes it to its unit, list-schedules every wave onto
    /// [`WAVE_WORKERS`] workers and walks the unit DAG for the critical
    /// path. Purely trace-derived — no wallclock — so the makespan is
    /// reproducible across runs and machines.
    pub fn wave_stats(&self, trace: &ExecutionTrace) -> WaveStats {
        let size_of =
            |t: TensorId| repr_bytes(&self.rdp, &self.graph, &self.repr_bindings, DEFAULT_DIM, t);
        let ws = plan_wavefronts(
            &self.graph,
            &self.unit_graph,
            &self.unit_order,
            &size_of,
            WavefrontOptions::default(),
        );
        let unit_secs = self.priced_unit_seconds(trace);
        let serial_s: f64 = unit_secs.values().sum();
        let makespan_s: f64 = ws
            .waves
            .iter()
            .map(|wave| {
                let secs: Vec<f64> = wave
                    .iter()
                    .map(|&u| unit_secs.get(&u).copied().unwrap_or(0.0))
                    .collect();
                sod2_pool::scheduled_makespan(&secs, WAVE_WORKERS)
            })
            .sum();
        // Critical path over the unit DAG: `self.unit_order` is a
        // topological order, so one forward pass suffices.
        let mut cp: HashMap<usize, f64> = HashMap::new();
        let mut critical_s = 0.0f64;
        for &u in &self.unit_order {
            let own = unit_secs.get(&u).copied().unwrap_or(0.0);
            let from = self.unit_graph.preds[u]
                .iter()
                .map(|p| cp.get(p).copied().unwrap_or(0.0))
                .fold(0.0f64, f64::max);
            cp.insert(u, from + own);
            critical_s = critical_s.max(from + own);
        }
        WaveStats {
            wave_count: ws.waves.len(),
            max_width: ws.max_width,
            splits: ws.splits,
            serial_s,
            makespan_s,
            critical_s,
            serial_peak: ws.serial_peak,
            parallel_peak: ws.parallel_peak,
        }
    }

    /// Prices each kernel event individually and attributes the seconds to
    /// its schedulable unit via the event's fusion-group id.
    fn priced_unit_seconds(&self, trace: &ExecutionTrace) -> HashMap<usize, f64> {
        let mut gid_to_unit: HashMap<usize, usize> = HashMap::new();
        for (u, unit) in self.unit_graph.units.iter().enumerate() {
            if let Some(&n0) = unit.nodes.first() {
                gid_to_unit.insert(self.fusion_plan.group_of(n0), u);
            }
        }
        let mut out: HashMap<usize, f64> = HashMap::new();
        for e in &trace.events {
            if let TraceEvent::Kernel {
                cost,
                efficiency,
                working_set,
                group,
                ..
            } = e
            {
                let eff = efficiency.unwrap_or(self.profile.base_efficiency);
                let s = sod2_device::price_kernel(&self.profile, cost, eff, *working_set);
                if let Some(&u) = gid_to_unit.get(group) {
                    *out.entry(u).or_insert(0.0) += s;
                }
            }
        }
        out
    }

    /// The compiled fusion plan.
    pub fn fusion_plan(&self) -> &FusionPlan {
        &self.fusion_plan
    }

    /// The RDP analysis result.
    pub fn rdp(&self) -> &RdpResult {
        &self.rdp
    }

    /// The partitions (Fig. 8 data).
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// The planned unit order: SEP's (naive without SEP), the order the
    /// tape runs.
    pub fn unit_order(&self) -> &[usize] {
        &self.unit_order
    }

    /// The unit graph.
    pub fn unit_graph(&self) -> &UnitGraph {
        &self.unit_graph
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Adjusts the per-inference deadline at runtime (deadlines are an
    /// inference property, not a compile-time one — no recompilation).
    pub fn set_deadline(&mut self, deadline: Option<std::time::Duration>) {
        self.opts.deadline = deadline;
    }

    /// Adjusts the per-inference memory budget at runtime.
    pub fn set_memory_budget(&mut self, budget: Option<usize>) {
        self.opts.memory_budget = budget;
    }

    /// Toggles the output NaN guard at runtime.
    pub fn set_nan_guard(&mut self, on: bool) {
        self.opts.nan_guard = on;
    }

    /// Statically prices one request *without executing anything*: the
    /// paper's execution-time/memory prediction pillar used as an
    /// admission valve. Shapes come from RDP shape propagation at the
    /// request's bindings, seconds from the device cost model, and
    /// `peak_bytes` is the DMP pre-plan's peak — exactly the value the
    /// engine's own budget admission would enforce at dispatch.
    ///
    /// The priced seconds are an *optimistic* (lower-bound) estimate:
    /// nodes whose shapes stay symbolic or `nac` at these bindings are
    /// skipped (counted in `total_nodes - priced_nodes`), and every
    /// `Switch` arm is assumed reachable-but-free, so a predictor-driven
    /// admission gate only sheds requests that are certainly doomed.
    ///
    /// # Errors
    ///
    /// [`ExecError::BadInputs`] when the inputs don't bind the graph's
    /// symbols (wrong rank or contradictory dimensions).
    pub fn predict(&self, inputs: &[Tensor]) -> Result<CostPrediction, ExecError> {
        let bindings = bindings_from_inputs(&self.graph, inputs).map_err(ExecError::BadInputs)?;
        // Reuse a cached pre-plan when these bindings are warm; otherwise
        // price from a fresh (uncached — `&self`) pre-plan.
        let peak_bytes = if !self.opts.dmp {
            0
        } else {
            match self.pre_plan_cache.iter().find(|(b, _)| b == &bindings) {
                Some((_, layout)) => layout.peak(),
                None => self.build_pre_plan(&bindings).peak(),
            }
        };
        let concrete = |t: TensorId| -> Option<Vec<usize>> {
            self.rdp.concrete_shape(t, &bindings).map(|dims| {
                dims.into_iter()
                    .map(|d| usize::try_from(d).unwrap_or(0))
                    .collect()
            })
        };
        let mut priced_s = 0.0;
        let mut priced_nodes = 0;
        let mut total_nodes = 0;
        for &id in &self.node_order {
            let node = self.graph.node(id);
            if node.op.is_control_flow() {
                continue;
            }
            total_nodes += 1;
            let ins: Option<Vec<Vec<usize>>> = node.inputs.iter().map(|&t| concrete(t)).collect();
            let outs: Option<Vec<Vec<usize>>> = node.outputs.iter().map(|&t| concrete(t)).collect();
            let (Some(ins), Some(outs)) = (ins, outs) else {
                continue;
            };
            let elem = node
                .outputs
                .first()
                .map(|&t| self.graph.tensor(t).dtype.size_bytes())
                .unwrap_or(4);
            let cost = sod2_device::op_cost(&node.op, &ins, &outs, elem);
            let working_set = (cost.bytes_read + cost.bytes_written) as usize;
            priced_s += sod2_device::price_kernel(
                &self.profile,
                &cost,
                self.profile.base_efficiency,
                working_set,
            );
            priced_nodes += 1;
        }
        Ok(CostPrediction {
            priced_s,
            peak_bytes,
            priced_nodes,
            total_nodes,
        })
    }

    /// Lifetimes of the tensors a run produced, on the planned order
    /// (dead-branch tensors excluded — a native-control-flow win).
    fn observed_lifetimes(&self, record: &RunRecord) -> Vec<TensorLife> {
        let size_of = |t: TensorId| observed_bytes(&self.graph, record, t);
        unit_lifetimes(&self.graph, &self.unit_graph, &self.unit_order, &size_of)
            .into_iter()
            .filter(|l| l.size > 0)
            .collect()
    }

    /// Builds the DMP pre-plan for one bindings value: RDP sizes at these
    /// bindings, bounded-`nac` sizes, liveness and `plan_sod2`. The plan is
    /// checked against the lifetimes it was built from here, once; budget
    /// admission and counter emission stay per-inference in the caller.
    fn build_pre_plan(&self, bindings: &Bindings) -> Arc<ArenaLayout> {
        let rdp_size = |t: TensorId| -> usize {
            self.rdp
                .symbolic_bytes(&self.graph, t)
                .and_then(|e| e.eval(bindings))
                .map(|b| b.max(0) as usize)
                .unwrap_or(0)
        };
        // Bounded planning of the `nac` residue: the abstract
        // interpretation's element-bound lattice proves upper bounds for
        // execution-determined outputs (NMS keeps at most `max_output`
        // indices, a Gather indexed by a bounded tensor inherits the bound
        // times the slice size, and so on through any downstream op).
        // Planning the slot at the bound (the layout admits any payload
        // that fits a bounded slot) takes those tensors out of the priced
        // per-tensor allocation stream — no per-op special cases.
        // `(key, bytes)` pairs in ascending key order.
        let mut bounds: Vec<(usize, usize)> = Vec::new();
        if self.opts.absint {
            for t in self.graph.tensor_ids() {
                let key = t.0 as usize;
                let Some(expr) = &self.certs.elem_bounds[key] else {
                    continue;
                };
                if rdp_size(t) != 0 {
                    continue;
                }
                if let Some(elems) = expr.eval(bindings).and_then(|e| usize::try_from(e).ok()) {
                    bounds.push((key, elems * self.graph.tensor(t).dtype.size_bytes()));
                }
            }
        }
        let eff_size = |t: TensorId| -> usize {
            match rdp_size(t) {
                0 => bounds
                    .binary_search_by_key(&(t.0 as usize), |&(k, _)| k)
                    .map_or(0, |i| bounds[i].1),
                s => s,
            }
        };
        // Liveness over the order the tape runs.
        let lives: Vec<TensorLife> =
            unit_lifetimes(&self.graph, &self.unit_graph, &self.unit_order, &eff_size)
                .into_iter()
                .filter(|l| l.size > 0)
                .collect();
        let plan = plan_sod2(&lives);
        debug_assert!(
            verify_plan(&lives, &plan).is_empty(),
            "DMP pre-plan fails verification: {:?}",
            verify_plan(&lives, &plan)
        );
        let bounded: Vec<usize> = bounds.iter().map(|&(k, _)| k).collect();
        Arc::new(ArenaLayout::new(&lives, &plan, &bounded))
    }

    /// Runs the full diagnostic suite over the compiled pipeline and one
    /// concrete inference on the engine's own tape (serial, heap-backed):
    /// IR lints, the RDP fixpoint audit plus cross-validation against the
    /// shapes this execution observed, plan verification, and the
    /// memory-planner comparison.
    ///
    /// # Errors
    ///
    /// [`ExecError::BadInputs`] when the inputs don't bind the graph's
    /// symbols, [`ExecError::Internal`] when the plan failed to lower, and
    /// any error the inference itself raises.
    pub fn diagnose(&mut self, inputs: &[Tensor]) -> Result<sod2_analysis::Report, ExecError> {
        use sod2_analysis as an;
        let bindings = bindings_from_inputs(&self.graph, inputs).map_err(ExecError::BadInputs)?;
        let mut report = an::Report::new();
        report.extend(an::lint_graph(&self.graph));
        if report.has_errors() {
            return Ok(report);
        }
        let (_, solver_report, trace) = sod2_rdp::analyze_traced(&self.graph);
        report.extend(an::check_monotonicity(&self.graph, &trace));
        report.extend(an::report_inconsistencies(&solver_report));
        report.extend(an::verify_fusion(&self.graph, &self.fusion_plan));
        report.extend(an::verify_unit_order(&self.unit_graph, &self.unit_order));
        report.extend(an::verify_node_order(&self.graph, &self.node_order));
        if let Some(tp) = self.tape() {
            report.extend(an::verify_tape(
                &self.graph,
                &self.node_order,
                Some(&self.fusion_plan),
                tp,
            ));
        }
        let tape = self
            .tape
            .as_deref()
            .map_err(|e| ExecError::Internal(format!("tape lowering failed: {e}")))?;
        let cfg = ExecConfig {
            version_table: self.table.as_deref(),
            execute_all_branches: !self.opts.native_control_flow,
            nan_guard: self.opts.nan_guard,
            memory_budget: self.opts.memory_budget,
        };
        let outcome = execute_tape(&self.graph, inputs, tape, &cfg)?;
        report.extend(an::verify_observed_shapes(
            &self.graph,
            &self.rdp,
            &outcome.record.concrete_shapes(),
            &bindings,
        ));
        let lives = self.observed_lifetimes(&outcome.record);
        let plan = plan_sod2(&lives);
        report.extend(an::verify_memory_plan(&lives, &plan, 1));
        report.extend(an::compare_planners(&lives));
        Ok(report)
    }
}

impl Engine for Sod2Engine {
    fn name(&self) -> &'static str {
        "SoD2"
    }

    /// Bindings, the cached DMP pre-plan, budget admission and execution:
    /// the per-inference work SoD² does, each in its phase span. Nothing is
    /// priced here.
    fn infer(&mut self, inputs: &[Tensor]) -> Result<Run, ExecError> {
        let _infer_span = sod2_obs::span!("infer", "Sod2Engine::infer");
        sod2_obs::counter_add("infer.count", 1);
        // A plan that failed to lower cannot run: there is no second
        // executor to fall back to.
        let tape = self
            .tape
            .as_deref()
            .map_err(|e| ExecError::Internal(format!("tape lowering failed: {e}")))?;
        let mut bindings = {
            let _s = sod2_obs::span!("phase", "bindings");
            bindings_from_inputs(&self.graph, inputs).map_err(ExecError::BadInputs)?
        };
        // Injected binding corruption (`runtime.bindings`): the engine loses
        // every symbol binding, so the pre-execution plan covers nothing and
        // all intermediates are priced as heap allocations — outputs stay
        // correct because execution uses concrete tensors, not bindings.
        let bindings_corrupted = sod2_faults::probe(sod2_faults::Site::Bindings).is_some();
        if bindings_corrupted {
            bindings.clear();
        }
        // Pre-execution memory plan: RDP's symbolic byte counts evaluated
        // at this inference's bindings give exact sizes for every
        // shape-resolvable tensor *before any kernel runs* — the paper's
        // runtime DMP. Tensors RDP cannot resolve (`nac`) get size 0 here,
        // drop out of the plan, and are priced one allocation each: the
        // dynamic residue.
        let dmp_span = sod2_obs::span!("phase", "dmp_pre_plan");
        // The pre-plan — size evaluation, bounded-`nac` lookup, liveness,
        // offset planning — is a pure function of the bindings given the
        // compiled schedule, so its layout is built once per bindings value
        // and shared from the cache. The layout carries the counter the
        // build would emit, replayed here on hits and misses alike.
        let cache_cap = self.opts.pre_plan_cache_cap;
        let mut pre_plan_hit = false;
        let layout = if !self.opts.dmp {
            None
        } else if let Some(i) = self.pre_plan_cache.iter().position(|(b, _)| b == &bindings) {
            self.pre_plan_cache[..=i].rotate_right(1);
            sod2_obs::counter_add("dmp.pre_plan_cache_hits", 1);
            pre_plan_hit = true;
            Some(Arc::clone(&self.pre_plan_cache[0].1))
        } else {
            let layout = self.build_pre_plan(&bindings);
            if cache_cap > 0 {
                self.pre_plan_cache
                    .insert(0, (bindings.clone(), Arc::clone(&layout)));
                self.pre_plan_cache.truncate(cache_cap);
            }
            Some(layout)
        };
        if let Some(layout) = &layout {
            if self.opts.absint {
                sod2_obs::counter_add("absint.nac_bounds_used", layout.bounded_keys() as u64);
            }
            // The plan this inference is admitted against.
            sod2_obs::gauge_max("mem.plan_peak_bytes", layout.peak() as u64);
            // Budget admission at DMP time: the plan's peak is known before
            // any kernel runs, so an over-budget inference is rejected
            // without doing (or allocating) any work.
            if let Some(budget) = self.opts.memory_budget {
                if layout.peak() > budget {
                    return Err(ExecError::BudgetExceeded {
                        needed: layout.peak(),
                        budget,
                    });
                }
            }
        }
        drop(dmp_span);
        // The plan fields (fusion, order, chains, certificates) are baked
        // into the tape; only the runtime knobs are passed per inference.
        let cfg = ExecConfig {
            version_table: self.table.as_deref(),
            execute_all_branches: !self.opts.native_control_flow,
            nan_guard: self.opts.nan_guard,
            memory_budget: self.opts.memory_budget,
        };
        let deadline = self.opts.deadline.map(|d| std::time::Instant::now() + d);
        let outcome = {
            let _s = sod2_obs::span!("phase", "execute");
            // Panics from kernels or pool chunks are converted to a typed
            // error here so a failed inference can never wedge the engine.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sod2_pool::with_deadline(deadline, || execute_tape(&self.graph, inputs, tape, &cfg))
            }));
            match result {
                Ok(run) => run?,
                Err(payload) => {
                    let what = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic payload".to_string());
                    sod2_obs::counter_add("infer.panics_recovered", 1);
                    return Err(ExecError::Panic(what));
                }
            }
        };
        // Debug-mode verification: RDP's predictions must agree with what
        // execution observed.
        #[cfg(debug_assertions)]
        if !bindings_corrupted {
            let mut stage = sod2_analysis::Report::new();
            stage.extend(sod2_analysis::verify_observed_shapes(
                &self.graph,
                &self.rdp,
                &outcome.record.concrete_shapes(),
                &bindings,
            ));
            debug_assert!(
                !stage.has_errors(),
                "inference failed verification:\n{}",
                stage.render_text(Some(&self.graph))
            );
        }
        Ok(Run {
            outputs: outcome.outputs,
            record: outcome.record,
            layout,
            pre_plan_hit,
            reinitialized: false,
        })
    }

    /// The post-plan over observed lifetimes, the tape's priced replay
    /// against the admitted pre-plan, and the engine's allocation and
    /// planning events.
    fn price(&self, run: &Run) -> InferenceStats {
        let Ok(tape) = self.tape.as_deref() else {
            return InferenceStats::default();
        };
        let post_span = sod2_obs::span!("phase", "dmp_post_plan");
        let lives = self.observed_lifetimes(&run.record);
        // Dynamic memory planning (§4.4.1): with DMP the offset plan packs
        // tensors into one arena; without it the engine falls back to a
        // pooling allocator (size-class high-water marks — what running
        // without a plan actually costs).
        let plan = if self.opts.dmp {
            plan_sod2(&lives)
        } else {
            let mut p = MemoryPlan::conservative(&lives);
            p.peak = size_class_peak(&lives);
            p
        };
        drop(post_span);
        // Debug-mode verification: the offset plan must be sound.
        #[cfg(debug_assertions)]
        if self.opts.dmp {
            let mut stage = sod2_analysis::Report::new();
            stage.extend(sod2_analysis::verify_memory_plan(&lives, &plan, 1));
            debug_assert!(
                !stage.has_errors(),
                "post-plan failed verification:\n{}",
                stage.render_text(Some(&self.graph))
            );
        }
        let _price_span = sod2_obs::span!("phase", "price_trace");
        let tp = price_tape(
            &self.graph,
            tape,
            &run.record,
            run.layout.as_deref(),
            self.table.as_deref(),
        );
        let mut trace = tp.trace;
        if self.opts.dmp {
            // One arena allocation per inference, plus the (cheap) runtime
            // plan-generation work, proportional to the sub-graph count.
            // Plan generation is charged only when the operational offset
            // plan was built fresh this inference: a pre-plan cache hit
            // replays the stored plan and skips that work entirely, so the
            // priced model reflects what serving traffic actually pays on
            // repeat shapes.
            trace.push(TraceEvent::Alloc { bytes: plan.peak });
            if !run.pre_plan_hit {
                let plan_gen = self.unit_order.len() as f64 * self.profile.reinit_sl_per_node * 0.1;
                trace.push(TraceEvent::Reinit {
                    sl: plan_gen,
                    st: 0.0,
                    alloc: 0.0,
                });
            }
        }
        // Every intermediate outside the plan is paid per allocation: the
        // dynamic residue with DMP (empty unless some tensor resolved to
        // `nac`), every materialized intermediate without it.
        for &b in &tp.alloc_sizes {
            trace.push(TraceEvent::Alloc { bytes: b });
        }
        InferenceStats {
            latency: trace.price(&self.profile),
            peak_memory_bytes: plan.peak,
            reinitialized: run.reinitialized,
            alloc_events: tp.alloc_sizes.len(),
            arena_backed: tp.arena_backed,
            trace,
        }
    }
}
