//! Reads the per-layer split out of the `sod2-obs` spans the program
//! already emits (compile stages, inference phases, kernels, pool
//! regions), and writes the spans out with their request and parent.
//!
//! A span's self time is its duration minus its direct children on the
//! same thread; self times of a span tree add up to the root's duration,
//! which is what the accounting checks rely on.

use crate::stats::Json;
use sod2_obs::{Profile, SpanRec};
use std::collections::BTreeMap;
use std::io::Write;

/// Parent links and self times of every span in a profile.
pub struct Tree<'a> {
    pub spans: &'a [SpanRec],
    pub parent: Vec<Option<usize>>,
    pub self_ns: Vec<u64>,
}

impl<'a> Tree<'a> {
    /// Rebuilds the per-thread nesting from the recorded depths (spans are
    /// start-sorted, outermost first on ties).
    pub fn new(profile: &'a Profile) -> Tree<'a> {
        let spans = &profile.spans[..];
        let mut parent = vec![None; spans.len()];
        let mut self_ns: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
        let mut stacks: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let stack = stacks.entry(s.tid).or_default();
            stack.truncate(s.depth as usize);
            if stack.len() == s.depth as usize {
                if let Some(&p) = stack.last() {
                    parent[i] = Some(p);
                    self_ns[p] = self_ns[p].saturating_sub(s.dur_ns);
                }
            }
            stack.push(i);
        }
        Tree {
            spans,
            parent,
            self_ns,
        }
    }

    fn ancestors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(i), move |&j| self.parent[j])
    }

    /// The outermost ancestor-or-self of `i`.
    pub fn root(&self, i: usize) -> usize {
        self.ancestors(i)
            .last()
            .expect("a span is its own ancestor")
    }

    fn under_cat(&self, i: usize, cat: &str) -> bool {
        self.ancestors(i).any(|j| self.spans[j].cat == cat)
    }
}

const MS: f64 = 1e-6;

/// Compile stage span name → per-layer metric. Every span inside a stage
/// is booked to that stage; compile self time is the residue.
const STAGES: [(&str, &str); 9] = [
    ("fold_constants", "runtime.fold_ms"),
    ("rdp_solve", "rdp.solve_ms"),
    ("absint", "analysis.absint_ms"),
    ("fusion", "fusion.fuse_ms"),
    ("partition", "plan.partition_ms"),
    ("sep_plan", "plan.sep_ms"),
    ("wavefront_plan", "plan.wavefront_ms"),
    ("mvc_tune", "mvc.tune_ms"),
    ("tape_compile", "runtime.tape_compile_ms"),
];

/// The compile and warm-up split of one traced set-up, totalled over the
/// workload.
pub struct SetupSplit {
    pub compile_ms: f64,
    /// Compile self time: `Sod2Engine::new` outside every stage span.
    pub compile_residue_ms: f64,
    pub stages_ms: Vec<(&'static str, f64)>,
    /// `infer` spans during set-up (the warm-up requests).
    pub warmup_ms: f64,
}

pub fn setup_split(tree: &Tree) -> SetupSplit {
    let mut stage_ns = [0u64; STAGES.len()];
    let (mut compile_ns, mut residue_ns, mut warmup_ns) = (0u64, 0u64, 0u64);
    for (i, s) in tree.spans.iter().enumerate() {
        match (s.cat, tree.parent[i]) {
            ("compile", None) => compile_ns += s.dur_ns,
            ("infer", None) => warmup_ns += s.dur_ns,
            _ => {}
        }
        if tree.spans[tree.root(i)].cat != "compile" {
            continue;
        }
        let stage = tree.ancestors(i).find_map(|j| {
            let sj = &tree.spans[j];
            (sj.cat == "stage")
                .then(|| STAGES.iter().position(|(name, _)| *name == sj.name))
                .flatten()
        });
        match stage {
            Some(k) => stage_ns[k] += tree.self_ns[i],
            None => residue_ns += tree.self_ns[i],
        }
    }
    SetupSplit {
        compile_ms: compile_ns as f64 * MS,
        compile_residue_ms: residue_ns as f64 * MS,
        stages_ms: STAGES
            .iter()
            .zip(stage_ns)
            .map(|(&(_, metric), ns)| (metric, ns as f64 * MS))
            .collect(),
        warmup_ms: warmup_ns as f64 * MS,
    }
}

/// Where the time of the traced `infer` spans went, on the threads that
/// called `infer`. Buckets are self times, so they add up to `infer_ns`.
#[derive(Debug, Default)]
pub struct InferSplit {
    pub requests: usize,
    pub infer_ns: u64,
    /// `infer` self time: the engine outside every phase.
    pub residue_ns: u64,
    pub bindings_ns: u64,
    pub pre_plan_ns: u64,
    pub post_plan_ns: u64,
    pub price_ns: u64,
    /// `execute` self time: the tape's dispatch outside kernels.
    pub dispatch_ns: u64,
    /// `execute` inclusive.
    pub execute_ns: u64,
    /// Kernel spans and everything under them, on the calling thread.
    pub kernel_calling_ns: u64,
    /// Pool regions outside kernels (wave evaluation), on the calling thread.
    pub wave_pool_ns: u64,
    pub readback_ns: u64,
    pub other_ns: u64,
    /// Kernel spans on every thread (workers included).
    pub kernel_busy_ns: u64,
    pub kernel_calls: u64,
}

impl InferSplit {
    pub fn accounted_ns(&self) -> u64 {
        self.residue_ns
            + self.bindings_ns
            + self.pre_plan_ns
            + self.post_plan_ns
            + self.price_ns
            + self.dispatch_ns
            + self.kernel_calling_ns
            + self.wave_pool_ns
            + self.readback_ns
            + self.other_ns
    }

    pub fn residue_share(&self) -> f64 {
        self.residue_ns as f64 / self.infer_ns.max(1) as f64
    }
}

pub fn infer_split(tree: &Tree) -> InferSplit {
    let mut out = InferSplit::default();
    for (i, s) in tree.spans.iter().enumerate() {
        let kernel_here = s.cat == "kernel";
        if kernel_here && !tree.parent[i].is_some_and(|p| tree.under_cat(p, "kernel")) {
            out.kernel_busy_ns += s.dur_ns;
            out.kernel_calls += 1;
        }
        let root = &tree.spans[tree.root(i)];
        if root.cat != "infer" {
            continue;
        }
        let own = tree.self_ns[i];
        if tree.under_cat(i, "kernel") {
            out.kernel_calling_ns += own;
            continue;
        }
        match (s.cat, s.name.as_str()) {
            ("infer", _) => {
                out.requests += 1;
                out.infer_ns += s.dur_ns;
                out.residue_ns += own;
            }
            ("phase", "bindings") => out.bindings_ns += own,
            ("phase", "dmp_pre_plan") => out.pre_plan_ns += own,
            ("phase", "dmp_post_plan") => out.post_plan_ns += own,
            ("phase", "price_trace") => out.price_ns += own,
            ("phase", "execute") => {
                out.dispatch_ns += own;
                out.execute_ns += s.dur_ns;
            }
            ("mem", _) => out.readback_ns += own,
            ("pool", _) => out.wave_pool_ns += own,
            _ => out.other_ns += own,
        }
    }
    out
}

/// Writes every span as one JSON array per line, after a header line
/// naming the fields: the set-up or measurement phase, the span's index and
/// its parent's index within that phase (`-1` for none), the request it
/// served (`-1` for none), thread, category, name, start and duration.
pub fn write_spans(
    out: &mut impl Write,
    phase: &str,
    tree: &Tree,
    threads: &BTreeMap<u64, String>,
    request_of: impl Fn(usize) -> Option<usize>,
) -> std::io::Result<()> {
    for (i, s) in tree.spans.iter().enumerate() {
        let parent = tree.parent[i].map_or(-1, |p| p as i64);
        let req = request_of(i).map_or(-1, |r| r as i64);
        let thread = threads.get(&s.tid).map_or("", String::as_str);
        writeln!(
            out,
            "[\"{phase}\",{i},{parent},{req},{},{},{},{},{}]",
            Json::from(thread),
            Json::from(s.cat),
            Json::from(s.name.as_str()),
            s.start_ns,
            s.dur_ns
        )?;
    }
    Ok(())
}

/// The header line of the span file.
pub const SPAN_FIELDS: &str =
    r#"["phase","id","parent","req","thread","cat","name","start_ns","dur_ns"]"#;
