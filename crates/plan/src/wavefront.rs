//! Wavefront scheduling: SEP generalized from "order minimizing peak" to
//! "schedule maximizing width subject to peak ≤ serial_peak × (1 + slack)".
//! A priced analysis of inter-op parallelism: the engine runs the SEP
//! order serially, and the schedule feeds only its wavefront statistics
//! and the static verifier.
//!
//! The SEP unit order (§4.3) is partitioned into *wavefronts* — sets of
//! mutually independent units that could execute concurrently. Waves are
//! packed greedily in SEP order: each wave admits every *ready* unit (all
//! predecessors in strictly earlier waves) whose admission keeps the
//! wave-granularity concurrent peak within `serial_peak × (1 + slack)`;
//! units the bound rejects are deferred to a later wave. Scanning in SEP
//! order staggers long parallel chains instead of hoisting all of them at
//! once (the failure mode of pure ASAP level sets, under which every
//! chain's intermediates are live simultaneously), so the number of
//! concurrently-inflight chains adapts to the memory bound. The packed
//! schedule is always within the bound; [`plan_wavefronts`] says why.
//!
//! The memory bound is priced over lifetimes at *wave* granularity
//! ([`wavefront_lifetimes`]): every tensor consumed by a wave stays live
//! through the whole wave, and every tensor produced by a wave is live from
//! that wave on — the granularity at which concurrent execution could
//! overlap lifetimes.

use crate::order::order_peak_bytes;
use crate::units::UnitGraph;
use sod2_ir::{Graph, TensorId};
use sod2_mem::{live_bytes_by_step, TensorLife};
use std::collections::HashMap;

/// Options for the wavefront planner.
#[derive(Debug, Clone, Copy)]
pub struct WavefrontOptions {
    /// Allowed peak-memory slack over the serial SEP peak: the parallel
    /// schedule's planned peak must satisfy
    /// `peak ≤ serial_peak × (1 + slack)`.
    pub slack: f64,
    /// Hard cap on units per wave (`usize::MAX` = unbounded).
    pub max_width: usize,
}

impl Default for WavefrontOptions {
    fn default() -> Self {
        WavefrontOptions {
            slack: 0.5,
            max_width: usize::MAX,
        }
    }
}

/// A static parallel schedule over SEP units.
#[derive(Debug, Clone)]
pub struct WavefrontSchedule {
    /// Unit ids per wave; units within a wave are mutually independent and
    /// kept in SEP relative order. Concatenated, the waves form a valid
    /// topological order of the unit graph.
    pub waves: Vec<Vec<usize>>,
    /// Peak materialized bytes of the serial SEP order (the baseline).
    pub serial_peak: usize,
    /// Peak concurrent live bytes of this schedule at wave granularity.
    pub parallel_peak: usize,
    /// Widest wave in the final schedule.
    pub max_width: usize,
    /// Ready units the memory bound deferred to a later wave.
    pub splits: usize,
}

/// Plans dependence-respecting wavefronts over `unit_order` (which must be
/// a topological order covering every unit of `ug`, normally the SEP
/// order), subject to the memory bound in `opts`.
///
/// The returned schedule's `parallel_peak` never exceeds the bound
/// `max(serial_peak, serial_peak × (1 + slack))`, so no fallback is
/// needed. Call *the candidate* the packed waves, then the current wave,
/// then every unscheduled unit as a singleton wave in `unit_order` order.
/// It is within the bound at every point of the packing:
///
/// - **At the start** no unit is packed and the candidate is the serial
///   order as singleton waves. Singleton waves build exactly the
///   lifetimes `unit_lifetimes` builds for `unit_order`, so the candidate
///   prices at `serial_peak`, which is within the bound.
/// - **When a round opens** its first unit is the first unscheduled unit
///   of `unit_order`, which is ready because `unit_order` is topological.
///   Admitting it without a probe leaves the candidate unchanged.
/// - **Every later admission** is the candidate the probe just priced
///   within the bound. A rejection restores the previous candidate.
/// - **When a round closes** the candidate becomes the next round's
///   starting candidate unchanged.
///
/// When no unit is left, the candidate is the schedule itself. The probe
/// prices exactly what `peak_live_bytes(&wavefront_lifetimes(..))`
/// would, which the reference packer in the tests pins.
/// `verify_wavefront_schedule` in `sod2-analysis` re-checks the bound
/// from the schedule alone.
pub fn plan_wavefronts(
    graph: &Graph,
    ug: &UnitGraph,
    unit_order: &[usize],
    size_of: &dyn Fn(TensorId) -> usize,
    opts: WavefrontOptions,
) -> WavefrontSchedule {
    let serial_peak = order_peak_bytes(graph, ug, unit_order, size_of);
    // `bound` in saturating arithmetic, never below `serial_peak`: a huge
    // serial peak must neither wrap nor round down.
    let slack = opts.slack.max(0.0);
    let bound =
        ((serial_peak as f64 * (1.0 + slack)).min(usize::MAX as f64) as usize).max(serial_peak);
    let width_cap = opts.max_width.max(1);

    // Greedy SEP-ordered packing. Each round scans the unscheduled units
    // in SEP order and admits every ready unit (all predecessors in
    // strictly earlier waves) whose admission keeps the wave-granularity
    // peak of the packed-so-far schedule — completed with the rest of the
    // SEP order as singleton waves — within the bound. The first ready
    // unit of a round is always admitted, so every round makes progress;
    // with a tight bound the packing degenerates toward the serial SEP
    // order, with a loose one toward maximal ready sets.
    //
    // A candidate is priced as `peak_live_bytes(&wavefront_lifetimes(..))`
    // would price it, without building either: `step[u]` holds unit `u`'s
    // wave in the candidate schedule (packed units keep theirs, each probe
    // rewrites the rest), and each tensor's producer, consumers, output
    // flag and size are resolved once, here. Indexing by unit relies on
    // `unit_order` covering every unit.
    let n = ug.len();
    debug_assert_eq!(unit_order.len(), n, "unit_order must cover every unit");
    let tensors: Vec<(usize, &[usize], bool, usize)> = ug
        .producer
        .iter()
        .map(|(t, &producer)| {
            let consumers = ug.consumers.get(t).map(Vec::as_slice).unwrap_or(&[]);
            (
                producer,
                consumers,
                graph.outputs().contains(t),
                size_of(*t),
            )
        })
        .collect();
    let probe_peak = |step: &[usize], last_step: usize| -> usize {
        let intervals = tensors.iter().map(|&(producer, consumers, output, size)| {
            let def = step[producer];
            let last = consumers
                .iter()
                .map(|&c| step[c])
                .chain(output.then_some(last_step))
                .max()
                .unwrap_or(def);
            (def, last, size)
        });
        live_bytes_by_step(intervals).into_iter().max().unwrap_or(0)
    };
    let mut step = vec![0usize; n];
    let mut in_wave = vec![false; n];
    let mut scheduled = vec![false; n];
    let mut remaining: Vec<usize> = unit_order.to_vec();
    let mut waves: Vec<Vec<usize>> = Vec::new();
    let mut splits = 0usize;
    while !remaining.is_empty() {
        let mut wave: Vec<usize> = Vec::new();
        for &u in &remaining {
            if wave.len() >= width_cap {
                break;
            }
            if ug.preds[u].iter().any(|p| !scheduled[*p]) {
                continue;
            }
            wave.push(u);
            in_wave[u] = true;
            if wave.len() == 1 {
                continue; // progress guarantee: first ready unit always in
            }
            // Tentative peak of [packed waves, this wave, rest serialized].
            let mut next = waves.len() + 1;
            for &r in &remaining {
                if in_wave[r] {
                    step[r] = waves.len();
                } else {
                    step[r] = next;
                    next += 1;
                }
            }
            if probe_peak(&step, next - 1) > bound {
                wave.pop();
                in_wave[u] = false;
                splits += 1;
            }
        }
        for &u in &wave {
            scheduled[u] = true;
            in_wave[u] = false;
            step[u] = waves.len();
        }
        remaining.retain(|&u| !scheduled[u]);
        waves.push(wave);
    }

    // `step` now holds every unit's final wave: the schedule is the last
    // candidate, within the bound (see the doc comment).
    let parallel_peak = probe_peak(&step, waves.len().saturating_sub(1));
    debug_assert!(
        parallel_peak <= bound,
        "wavefront packing exceeded its bound"
    );
    let max_width = waves.iter().map(Vec::len).max().unwrap_or(0);
    WavefrontSchedule {
        waves,
        serial_peak,
        parallel_peak,
        max_width,
        splits,
    }
}

/// Builds lifetime records at *wave* granularity: one step per wave, a
/// tensor's def at its producer's wave and uses at its consumers' waves
/// (graph outputs held through the last wave). Their peak is a schedule's
/// concurrent peak, which `verify_wavefront_schedule` in `sod2-analysis`
/// re-derives.
pub fn wavefront_lifetimes(
    graph: &Graph,
    ug: &UnitGraph,
    waves: &[Vec<usize>],
    size_of: &dyn Fn(TensorId) -> usize,
) -> Vec<TensorLife> {
    let step_of: HashMap<usize, usize> = waves
        .iter()
        .enumerate()
        .flat_map(|(step, wave)| wave.iter().map(move |&u| (u, step)))
        .collect();
    let last_step = waves.len().saturating_sub(1);
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
    use crate::order::{naive_unit_order, plan_order, SepOptions};
    use crate::partition::partition_units;
    use sod2_fusion::{fuse, FusionPolicy};
    use sod2_ir::{BinaryOp, DType, Graph, Op};
    use sod2_mem::peak_live_bytes;

    /// x fans out into 3 independent Softmax branches merged pairwise —
    /// the branches should land in one wave.
    fn fanout_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![16.into()]);
        let b1 = g.add_simple("s1", Op::Softmax { axis: 0 }, &[x], DType::F32);
        let b2 = g.add_simple("s2", Op::Softmax { axis: 0 }, &[x], DType::F32);
        let b3 = g.add_simple("s3", Op::Softmax { axis: 0 }, &[x], DType::F32);
        let m1 = g.add_simple("m1", Op::Binary(BinaryOp::Add), &[b1, b2], DType::F32);
        let m2 = g.add_simple("m2", Op::Binary(BinaryOp::Add), &[m1, b3], DType::F32);
        g.mark_output(m2);
        g
    }

    fn setup(g: &Graph) -> (UnitGraph, Vec<usize>) {
        let rdp = sod2_rdp::analyze(g);
        let plan = fuse(g, &rdp, FusionPolicy::Rdp);
        let ug = UnitGraph::build(g, &plan);
        let parts = partition_units(g, &rdp, &plan, &ug);
        let ep = plan_order(g, &ug, &parts, &|_t| 64, SepOptions::default());
        (ug, ep.unit_order)
    }

    fn assert_legal(ug: &UnitGraph, ws: &WavefrontSchedule) {
        // Every unit exactly once.
        let mut flat = ws.waves.concat();
        assert_eq!(flat.len(), ug.len());
        flat.sort_unstable();
        assert_eq!(flat, (0..ug.len()).collect::<Vec<_>>());
        // Dependence: every pred in a strictly earlier wave.
        let wave_of: HashMap<usize, usize> = ws
            .waves
            .iter()
            .enumerate()
            .flat_map(|(w, units)| units.iter().map(move |&u| (u, w)))
            .collect();
        for u in 0..ug.len() {
            for &p in &ug.preds[u] {
                assert!(wave_of[&p] < wave_of[&u], "pred {p} not before {u}");
            }
        }
    }

    #[test]
    fn fanout_branches_share_a_wave() {
        let g = fanout_graph();
        let (ug, order) = setup(&g);
        let ws = plan_wavefronts(&g, &ug, &order, &|_t| 64, WavefrontOptions::default());
        assert_legal(&ug, &ws);
        // Fusion may merge some branches, but at least two units must be
        // independent and share a wave.
        assert!(ws.max_width >= 2, "independent branches: {:?}", ws.waves);
        assert!(ws.parallel_peak as f64 <= ws.serial_peak as f64 * 1.5);
    }

    #[test]
    fn zero_slack_forces_serial_peak() {
        let g = fanout_graph();
        let (ug, order) = setup(&g);
        let opts = WavefrontOptions {
            slack: 0.0,
            ..Default::default()
        };
        let ws = plan_wavefronts(&g, &ug, &order, &|_t| 64, opts);
        assert_legal(&ug, &ws);
        assert!(ws.parallel_peak <= ws.serial_peak);
    }

    #[test]
    fn max_width_is_respected() {
        let g = fanout_graph();
        let (ug, order) = setup(&g);
        let opts = WavefrontOptions {
            max_width: 1,
            ..Default::default()
        };
        let ws = plan_wavefronts(&g, &ug, &order, &|_t| 64, opts);
        assert_legal(&ug, &ws);
        assert_eq!(ws.max_width, 1);
    }

    #[test]
    fn chain_degenerates_to_singletons() {
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![8.into()]);
        let a = g.add_simple("a", Op::Softmax { axis: 0 }, &[x], DType::F32);
        let b = g.add_simple("b", Op::Softmax { axis: 0 }, &[a], DType::F32);
        g.mark_output(b);
        let (ug, order) = setup(&g);
        let ws = plan_wavefronts(&g, &ug, &order, &|_t| 64, WavefrontOptions::default());
        assert_legal(&ug, &ws);
        assert_eq!(ws.max_width, 1);
        assert_eq!(ws.parallel_peak, ws.serial_peak);
    }

    #[test]
    fn wave_lifetimes_cover_all_materialized_tensors() {
        let g = fanout_graph();
        let (ug, order) = setup(&g);
        let ws = plan_wavefronts(&g, &ug, &order, &|_t| 64, WavefrontOptions::default());
        let lives = wavefront_lifetimes(&g, &ug, &ws.waves, &|_t| 64);
        assert_eq!(lives.len(), ug.producer.len());
        // Wave-granularity peak is never below the serial-order peak of the
        // flattened schedule (concurrency can only add live bytes).
        let flat = ws.waves.concat();
        let flat_peak = order_peak_bytes(&g, &ug, &flat, &|_t| 64);
        assert!(peak_live_bytes(&lives) >= flat_peak.min(ws.serial_peak));
    }

    /// The original packer, kept as the reference: it rebuilds the
    /// candidate schedule and its lifetimes for every probe and sums live
    /// bytes step by step. `plan_wavefronts` must reproduce it exactly.
    /// It keeps its exact re-validation with a serial fallback and reports
    /// whether the fallback fired, which it never may.
    fn reference_wavefronts(
        graph: &Graph,
        ug: &UnitGraph,
        unit_order: &[usize],
        size_of: &dyn Fn(TensorId) -> usize,
        opts: WavefrontOptions,
    ) -> (WavefrontSchedule, bool) {
        let peak = |lives: &[TensorLife]| -> usize {
            let max_step = lives.iter().map(TensorLife::last_use).max().unwrap_or(0);
            (0..=max_step)
                .map(|s| lives.iter().filter(|l| l.live_at(s)).map(|l| l.size).sum())
                .max()
                .unwrap_or(0)
        };
        let serial_peak = order_peak_bytes(graph, ug, unit_order, size_of);
        let bound =
            (serial_peak as f64 * (1.0 + opts.slack.max(0.0))).min(usize::MAX as f64) as usize;
        let width_cap = opts.max_width.max(1);
        let mut scheduled = vec![false; ug.len()];
        let mut remaining: Vec<usize> = unit_order.to_vec();
        let mut waves: Vec<Vec<usize>> = Vec::new();
        let mut splits = 0usize;
        while !remaining.is_empty() {
            let mut wave: Vec<usize> = Vec::new();
            for &u in &remaining {
                if wave.len() >= width_cap {
                    break;
                }
                if ug.preds[u].iter().any(|p| !scheduled[*p]) {
                    continue;
                }
                wave.push(u);
                if wave.len() == 1 {
                    continue;
                }
                let mut sched = waves.clone();
                sched.push(wave.clone());
                sched.extend(
                    remaining
                        .iter()
                        .filter(|r| !wave.contains(r))
                        .map(|&r| vec![r]),
                );
                if peak(&wavefront_lifetimes(graph, ug, &sched, size_of)) > bound {
                    wave.pop();
                    splits += 1;
                }
            }
            for &u in &wave {
                scheduled[u] = true;
            }
            remaining.retain(|u| !wave.contains(u));
            waves.push(wave);
        }
        let mut serial_fallback = false;
        let mut parallel_peak = peak(&wavefront_lifetimes(graph, ug, &waves, size_of));
        if parallel_peak > bound {
            serial_fallback = true;
            waves = unit_order.iter().map(|&u| vec![u]).collect();
            parallel_peak = serial_peak;
        }
        let max_width = waves.iter().map(Vec::len).max().unwrap_or(0);
        let schedule = WavefrontSchedule {
            waves,
            serial_peak,
            parallel_peak,
            max_width,
            splits,
        };
        (schedule, serial_fallback)
    }

    /// Plans `order` under several memory bounds and width caps, asserts
    /// every field equals the reference packer's and that the reference
    /// never fell back to the serial order, and returns the number of
    /// units the bounds deferred.
    fn assert_matches_reference(
        g: &Graph,
        ug: &UnitGraph,
        order: &[usize],
        size_of: &dyn Fn(TensorId) -> usize,
    ) -> usize {
        let mut splits = 0;
        for slack in [0.0, 0.1, 0.5, 2.0] {
            for max_width in [usize::MAX, 2] {
                let opts = WavefrontOptions { slack, max_width };
                let got = plan_wavefronts(g, ug, order, size_of, opts);
                let (want, fell_back) = reference_wavefronts(g, ug, order, size_of, opts);
                let ctx = format!("slack {slack}, max_width {max_width}");
                assert!(!fell_back, "reference fell back to serial: {ctx}");
                assert_eq!(got.waves, want.waves, "waves: {ctx}");
                assert_eq!(got.serial_peak, want.serial_peak, "serial_peak: {ctx}");
                assert_eq!(
                    got.parallel_peak, want.parallel_peak,
                    "parallel_peak: {ctx}"
                );
                assert_eq!(got.max_width, want.max_width, "max_width: {ctx}");
                assert_eq!(got.splits, want.splits, "splits: {ctx}");
                splits += got.splits;
            }
        }
        splits
    }

    /// A random DAG of Softmax anchors (one unit each), fusible Relus and
    /// Add merges over a 16-wide input, with a few extra graph outputs.
    fn random_graph(rng: &mut sod2_prng::StdRng) -> Graph {
        use sod2_ir::UnaryOp;
        use sod2_prng::Rng;
        let mut g = Graph::new();
        let mut tensors = vec![g.add_input("x", DType::F32, vec![16.into()])];
        for i in 0..rng.gen_range(2..40usize) {
            let a = tensors[rng.gen_range(0..tensors.len())];
            let (name, op, inputs) = match rng.gen_range(0..20u32) {
                0..=11 => (format!("s{i}"), Op::Softmax { axis: 0 }, vec![a]),
                12..=16 => {
                    let b = tensors[rng.gen_range(0..tensors.len())];
                    (format!("a{i}"), Op::Binary(BinaryOp::Add), vec![a, b])
                }
                _ => (format!("r{i}"), Op::Unary(UnaryOp::Relu), vec![a]),
            };
            let t = g.add_simple(name, op, &inputs, DType::F32);
            tensors.push(t);
        }
        g.mark_output(*tensors.last().expect("nonempty"));
        for &t in &tensors[1..tensors.len() - 1] {
            if rng.gen_bool(0.1) {
                g.mark_output(t);
            }
        }
        g
    }

    /// A random topological order of the unit DAG.
    fn random_topo_order(ug: &UnitGraph, rng: &mut sod2_prng::StdRng) -> Vec<usize> {
        use sod2_prng::Rng;
        let mut indegree: Vec<usize> = ug.preds.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = (0..ug.len()).filter(|&u| indegree[u] == 0).collect();
        let mut order = Vec::with_capacity(ug.len());
        while !ready.is_empty() {
            let u = ready.swap_remove(rng.gen_range(0..ready.len()));
            order.push(u);
            for &s in &ug.succs[u] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    ready.push(s);
                }
            }
        }
        order
    }

    #[test]
    fn matches_reference_packer_on_random_dags() {
        use sod2_prng::{Rng, SeedableRng};
        let mut rng = sod2_prng::StdRng::seed_from_u64(14);
        let mut splits = 0;
        for _ in 0..48 {
            let g = random_graph(&mut rng);
            // Tied, zero and varied sizes.
            let sizes: Vec<usize> = (0..g.tensor_ids().count())
                .map(|_| match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => 64,
                    _ => rng.gen_range(1..4096usize),
                })
                .collect();
            let size_of = |t: TensorId| sizes[t.0 as usize];
            let rdp = sod2_rdp::analyze(&g);
            let plan = fuse(&g, &rdp, FusionPolicy::Rdp);
            let ug = UnitGraph::build(&g, &plan);
            let parts = partition_units(&g, &rdp, &plan, &ug);
            let sep = plan_order(&g, &ug, &parts, &size_of, SepOptions::default()).unit_order;
            for order in [sep, naive_unit_order(&ug), random_topo_order(&ug, &mut rng)] {
                splits += assert_matches_reference(&g, &ug, &order, &size_of);
            }
        }
        assert!(splits > 0, "no memory bound ever deferred a unit");
    }

    #[test]
    fn matches_reference_packer_on_tiny_zoo() {
        use sod2_models::{all_models, branchy_demo, ModelScale};
        let bindings = sod2_sym::Bindings::new();
        let mut models = all_models(ModelScale::Tiny);
        models.push(branchy_demo(ModelScale::Tiny));
        for model in models {
            let g = &model.graph;
            let rdp = sod2_rdp::analyze(g);
            let size_of = |t: TensorId| -> usize {
                rdp.symbolic_bytes(g, t)
                    .and_then(|e| e.eval_with_default(&bindings, 32))
                    .map(|b| b.max(0) as usize)
                    .unwrap_or(4096)
            };
            let plan = fuse(g, &rdp, FusionPolicy::Rdp);
            let ug = UnitGraph::build(g, &plan);
            let parts = partition_units(g, &rdp, &plan, &ug);
            let sep = plan_order(g, &ug, &parts, &size_of, SepOptions::default()).unit_order;
            assert_matches_reference(g, &ug, &sep, &size_of);
        }
    }

    #[test]
    fn naive_order_also_plans() {
        // The planner accepts any topological order, not just SEP.
        let g = fanout_graph();
        let (ug, _) = setup(&g);
        let order = naive_unit_order(&ug);
        let ws = plan_wavefronts(&g, &ug, &order, &|_t| 64, WavefrontOptions::default());
        assert_legal(&ug, &ws);
    }
}
