//! Host benchmark of the SoD² engine and server.
//!
//! ```text
//! sod2-hostbench --workload <short-seq|large-image|serve-open> --seed <n>
//!                --seconds <s> --trace <0|1> --mvc-cache <dir> [--spans-out <file>]
//! ```
//!
//! Runs one workload against the production engine (`Sod2Options::default()`,
//! Full-scale zoo) or the real `sod2-serve` server, checks every response
//! bitwise against the reference interpreter, and prints a detail object
//! followed, as the last line, by the result object
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--trace 0` reports the end-to-end metrics, measured untraced.
//! `--trace 1` reports the per-layer split read from the `sod2-obs` spans
//! the program emits, plus allocation counts from an untraced window of
//! the same run and the tracing overhead between the two windows.

mod alloc;
mod closed;
mod open;
mod spans;
mod stats;
mod workload;

use stats::{median, Json, Latency};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Pool, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median, since one compile is a
/// noisy clock.
const SETUP_REPS: usize = 3;
/// Largest share of the traced `infer` (or compile) total the residue
/// outside every phase (or stage) span may take.
const MAX_RESIDUE_SHARE: f64 = 0.05;
/// Capacity of the engine's per-bindings DMP pre-plan cache at its default
/// options, restated for the manifest.
const PRE_PLAN_CACHE_ENTRIES: usize = 8;
/// Variables the program reads that would change what is measured; each
/// is cleared so that the defaults users run are what runs here.
const CLEARED_ENV: [&str; 5] = [
    "SOD2_FAULTS",
    "SOD2_PROFILE",
    "SOD2_TAPE",
    "SOD2_WAVEFRONT",
    "SOD2_WAVE_SLACK",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    mvc_cache: PathBuf,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", kv["workload"]))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        mvc_cache: PathBuf::from(get("mvc-cache")?),
        spans_out: kv.get("spans-out").map(PathBuf::from),
    })
}

/// Pins everything the program reads from the environment, before any of
/// it is read, and returns the pinned values for the report.
fn pin_env(args: &Args) -> Json {
    let threads = args.workload.pool_width().to_string();
    let cache = args.mvc_cache.display().to_string();
    // Single-threaded at this point: nothing reads the environment
    // concurrently.
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
    std::env::set_var("SOD2_THREADS", &threads);
    std::env::set_var("SOD2_MVC_CACHE", &cache);
    sod2_obs::set_enabled(false);
    let mut pinned: Vec<(String, Json)> = CLEARED_ENV
        .iter()
        .map(|&v| (v.to_string(), Json::from("unset")))
        .collect();
    pinned.push(("SOD2_THREADS".into(), Json::from(threads.as_str())));
    pinned.push(("SOD2_MVC_CACHE".into(), Json::from(cache.as_str())));
    Json::Obj(pinned)
}

/// Fills the benchmark's MVC cache before anything is timed: compiling any
/// engine loads the tuned version table, tuning and storing it on a miss.
fn warm_mvc_cache() {
    let model = sod2_models::skipnet(sod2_models::ModelScale::Tiny);
    drop(closed::compile(model.graph));
}

/// Requests per window: the workload's nominal rate on a 2-core host times
/// `--seconds`. The count, not the clock, ends a closed-loop window, so
/// every run of a workload measures the same requests and the tail
/// percentile means the same thing before and after a change. A traced run
/// splits its time between an untraced and a traced window of half the
/// count each.
fn request_count(args: &Args) -> usize {
    let nominal_rps = match args.workload {
        Workload::ShortSeq => 20.0,
        Workload::LargeImage => 18.0,
        Workload::ServeOpen => open::RATE_RPS,
    };
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    (seconds * nominal_rps).ceil() as usize
}

/// Per-class request counts and the share of requests whose class was
/// already warm when they were served.
fn manifest(pool: &Pool, classes: impl Iterator<Item = usize>, warm_share: f64) -> Json {
    let mut counts = vec![0usize; pool.class_names.len()];
    for c in classes {
        counts[c] += 1;
    }
    // Shape classes a model can be asked for: the distinct sizes
    // `make_inputs` produces over the model's whole size range.
    let classes_in_range = |m: &sod2_models::DynModel| {
        let (min, max) = m.size_range();
        let mut sizes: Vec<usize> = (min..=max).map(|s| m.round_size(s)).collect();
        sizes.dedup();
        sizes.len()
    };
    let max_classes = pool.models.iter().map(classes_in_range).max().unwrap_or(0);
    Json::obj([
        (
            "requests_per_class",
            Json::Obj(
                pool.class_names
                    .iter()
                    .zip(&counts)
                    .map(|(name, &c)| (name.clone(), Json::from(c as f64)))
                    .collect(),
            ),
        ),
        (
            "inputs_per_class",
            Json::from(workload::INPUTS_PER_CLASS as f64),
        ),
        ("warm_class_share", Json::from(warm_share)),
        (
            "max_shape_classes_per_model",
            Json::from(max_classes as f64),
        ),
        (
            "note",
            Json::from(
                format!(
                    "No model of this workload has more than {max_classes} input shape classes \
                     over its whole size range, and the engine's DMP pre-plan cache holds \
                     {PRE_PLAN_CACHE_ENTRIES} entries, so no request here misses that cache; a \
                     claim about shape churn needs a new workload."
                )
                .as_str(),
            ),
        ),
    ])
}

/// Median latency of each shape class, one row per class, from
/// `(class, latency)` pairs.
fn per_class_p50(pool: &Pool, samples: impl Iterator<Item = (usize, u64)> + Clone) -> Json {
    Json::Obj(
        pool.class_names
            .iter()
            .enumerate()
            .map(|(c, name)| {
                let ms: Vec<f64> = samples
                    .clone()
                    .filter(|&(class, _)| class == c)
                    .map(|(_, ns)| ns as f64 / 1e6)
                    .collect();
                (name.clone(), Json::from(median(&ms)))
            })
            .collect(),
    )
}

/// The common request accounting of a measured window.
struct Outcome {
    attempted: usize,
    ok: usize,
    errors: usize,
    mismatches: usize,
    rejected: usize,
    good: usize,
    wall_s: f64,
    latency: Latency,
    peak_heap: usize,
}

impl Outcome {
    fn failed(&self) -> usize {
        self.errors + self.mismatches + self.rejected
    }

    fn e2e(&self, setup_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", setup_s, "s"),
            ("latency_p50_ms", self.latency.p50_ms, "ms"),
            ("latency_tail_ms", self.latency.tail_ms, "ms"),
            ("throughput_rps", self.ok as f64 / self.wall_s, "1/s"),
            ("goodput_rps", self.good as f64 / self.wall_s, "1/s"),
            ("peak_heap_bytes", self.peak_heap as f64, "B"),
            (
                "success_rate",
                self.ok as f64 / self.attempted as f64,
                "ratio",
            ),
        ]
    }

    fn requests_json(&self) -> Json {
        Json::obj([
            ("sent", Json::from(self.attempted as f64)),
            ("succeeded", Json::from(self.ok as f64)),
            ("failed", Json::from(self.failed() as f64)),
            ("typed_errors", Json::from(self.errors as f64)),
            ("mismatches", Json::from(self.mismatches as f64)),
            ("rejections", Json::from(self.rejected as f64)),
            (
                "error_rate",
                Json::from(self.failed() as f64 / self.attempted as f64),
            ),
        ])
    }
}

fn closed_outcome(w: &closed::Window) -> Outcome {
    let n = w.lat_ns.len();
    Outcome {
        attempted: n,
        ok: n - w.errors - w.mismatches,
        errors: w.errors,
        mismatches: w.mismatches,
        rejected: 0,
        good: w.good,
        wall_s: w.wall_s,
        latency: Latency::from_ns(&w.lat_ns),
        peak_heap: w.alloc.peak_above_start,
    }
}

fn open_outcome(w: &open::Window, sched: &open::Schedule, limit_ms: f64) -> Outcome {
    let limit_ns = (limit_ms * 1e6) as u64;
    let answered: Vec<u64> = w
        .records
        .iter()
        .zip(&sched.due_ns)
        .filter(|(r, _)| !r.rejected)
        .map(|(r, &due)| r.done_ns.saturating_sub(due))
        .collect();
    let count = |f: &dyn Fn(&open::Record) -> bool| w.records.iter().filter(|r| f(r)).count();
    let ok = count(&|r| r.ok);
    let rejected = count(&|r| r.rejected);
    let mismatches = count(&|r| r.mismatch);
    let good = w
        .records
        .iter()
        .zip(&sched.due_ns)
        .filter(|(r, &due)| r.ok && r.done_ns.saturating_sub(due) <= limit_ns)
        .count();
    Outcome {
        attempted: w.records.len(),
        ok,
        errors: w.records.len() - ok - rejected - mismatches,
        mismatches,
        rejected,
        good,
        wall_s: w.wall_s,
        latency: Latency::from_ns(&answered),
        peak_heap: w.alloc.peak_above_start,
    }
}

/// Everything one run reports.
struct Report {
    detail: Vec<(String, Json)>,
    metrics: Vec<(String, f64, &'static str)>,
    attempted: usize,
    failed: usize,
    correct: bool,
}

impl Report {
    fn new(args: &Args, pinned: Json, pool: &Pool) -> Report {
        let host = std::thread::available_parallelism().map_or(0, |n| n.get());
        Report {
            detail: vec![
                ("workload".into(), Json::from(args.workload.name())),
                ("seed".into(), Json::from(args.seed as f64)),
                ("seconds".into(), Json::from(args.seconds)),
                ("trace".into(), Json::from(args.trace)),
                ("available_parallelism".into(), Json::from(host as f64)),
                (
                    "engine".into(),
                    Json::from("Sod2Options::default(), ModelScale::Full"),
                ),
                ("pinned_env".into(), pinned),
                ("reference_s".into(), Json::from(pool.reference_s)),
            ],
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }

    fn detail(&mut self, key: &str, v: Json) {
        self.detail.push((key.to_string(), v));
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records the measured window's requests. A traced run passes its
    /// untraced window as `also`: its requests are checked and counted too.
    fn requests(&mut self, o: &Outcome, also: Option<&Outcome>, warmup_failures: usize) {
        self.attempted = o.attempted + also.map_or(0, |a| a.attempted);
        self.failed = o.failed() + also.map_or(0, Outcome::failed) + warmup_failures;
        self.correct &= self.failed == 0;
        self.detail("requests", o.requests_json());
        self.detail("warmup_failures", Json::from(warmup_failures as f64));
        self.detail("latency", o.latency.json());
    }

    /// Records a named check; a failed check makes the run incorrect.
    fn check(&mut self, name: &str, value: f64, ok: bool) {
        self.correct &= ok;
        self.detail(
            name,
            Json::obj([("value", Json::from(value)), ("ok", Json::from(ok))]),
        );
    }

    fn print(self) {
        println!("{}", Json::Obj(self.detail));
        let metrics = Json::Obj(
            self.metrics
                .into_iter()
                .map(|(k, v, unit)| {
                    (
                        k,
                        Json::obj([("value", Json::from(v)), ("unit", Json::from(unit))]),
                    )
                })
                .collect(),
        );
        println!(
            "{}",
            Json::obj([
                ("correct", Json::from(self.correct)),
                ("attempted", Json::from(self.attempted as f64)),
                ("failed", Json::from(self.failed as f64)),
                ("metrics", metrics),
            ])
        );
    }
}

/// Traced set-up: compiles and warms up with spans on, returning the
/// split and the profile.
fn traced<R>(f: impl FnOnce() -> R) -> (R, sod2_obs::Profile) {
    sod2_obs::set_enabled(true);
    sod2_obs::begin();
    let r = f();
    let profile = sod2_obs::take();
    sod2_obs::set_enabled(false);
    (r, profile)
}

fn setup_metrics(report: &mut Report, tree: &spans::Tree) {
    let split = spans::setup_split(tree);
    report.metric("frameworks.compile_ms", split.compile_ms, "ms");
    report.metric("frameworks.warmup_ms", split.warmup_ms, "ms");
    for (name, ms) in &split.stages_ms {
        report.metric(name, *ms, "ms");
    }
    report.metric(
        "frameworks.compile_residue_ms",
        split.compile_residue_ms,
        "ms",
    );
    let share = split.compile_residue_ms / split.compile_ms.max(f64::MIN_POSITIVE);
    report.check(
        "check_compile_residue_share",
        share,
        share <= MAX_RESIDUE_SHARE,
    );
}

/// Per-request layer metrics common to both loop kinds.
fn infer_metrics(
    report: &mut Report,
    split: &spans::InferSplit,
    counters: &BTreeMap<String, u64>,
    requests: usize,
    width: usize,
) {
    let per_req = |ns: u64| ns as f64 * 1e-6 / requests as f64;
    let counter = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
    report.metric("frameworks.residue_ms", per_req(split.residue_ns), "ms");
    report.metric("frameworks.bindings_ms", per_req(split.bindings_ns), "ms");
    report.metric("runtime.execute_ms", per_req(split.execute_ns), "ms");
    report.metric("runtime.dispatch_ms", per_req(split.dispatch_ns), "ms");
    report.metric("runtime.price_ms", per_req(split.price_ns), "ms");
    report.metric(
        "mvc.variant_hits_per_req",
        counter("mvc.variant_hits") / requests as f64,
        "count",
    );
    report.metric("mem.pre_plan_ms", per_req(split.pre_plan_ns), "ms");
    report.metric("mem.post_plan_ms", per_req(split.post_plan_ns), "ms");
    report.metric(
        "mem.pre_plan_hit_ratio",
        counter("dmp.pre_plan_cache_hits") / counter("infer.count").max(1.0),
        "ratio",
    );
    report.metric(
        "mem.planned_peak_bytes",
        counter("mem.plan_peak_bytes"),
        "B",
    );
    report.metric("kernels.busy_ms", per_req(split.kernel_busy_ns), "ms");
    report.metric(
        "kernels.calls_per_req",
        split.kernel_calls as f64 / requests as f64,
        "count",
    );
    report.metric(
        "pool.occupancy",
        counter("pool.busy_ns") / (width as f64 * split.execute_ns.max(1) as f64),
        "ratio",
    );
    report.detail(
        "infer_split_ms_per_req",
        Json::obj([
            ("infer", Json::from(per_req(split.infer_ns))),
            ("residue", Json::from(per_req(split.residue_ns))),
            ("bindings", Json::from(per_req(split.bindings_ns))),
            ("pre_plan", Json::from(per_req(split.pre_plan_ns))),
            ("dispatch", Json::from(per_req(split.dispatch_ns))),
            (
                "kernels_calling_thread",
                Json::from(per_req(split.kernel_calling_ns)),
            ),
            (
                "wave_pool_calling_thread",
                Json::from(per_req(split.wave_pool_ns)),
            ),
            ("readback", Json::from(per_req(split.readback_ns))),
            ("post_plan", Json::from(per_req(split.post_plan_ns))),
            ("price", Json::from(per_req(split.price_ns))),
            ("other", Json::from(per_req(split.other_ns))),
        ]),
    );
}

fn alloc_metrics(report: &mut Report, counts: &alloc::PhaseCounts, requests: usize) {
    report.metric(
        "alloc.count_per_req",
        counts.allocs as f64 / requests as f64,
        "count",
    );
    report.metric(
        "alloc.bytes_per_req",
        counts.bytes as f64 / requests as f64,
        "B",
    );
}

fn write_span_file(
    path: &PathBuf,
    setup: &sod2_obs::Profile,
    window: &sod2_obs::Profile,
    request_of: impl Fn(&spans::Tree, usize) -> Option<usize>,
) -> Result<(), String> {
    use std::io::Write;
    let err = |e: std::io::Error| format!("writing spans to {}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(err)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
    writeln!(out, "{}", spans::SPAN_FIELDS).map_err(err)?;
    let st = spans::Tree::new(setup);
    spans::write_spans(&mut out, "setup", &st, &setup.threads, |_| None).map_err(err)?;
    let wt = spans::Tree::new(window);
    spans::write_spans(&mut out, "measure", &wt, &window.threads, |i| {
        request_of(&wt, i)
    })
    .map_err(err)?;
    out.flush().map_err(err)
}

fn run_closed(args: &Args, pool: &Pool, report: &mut Report) -> Result<(), String> {
    let w = args.workload;
    let order = closed::order(pool, request_count(args), args.seed);
    let limit = w.latency_limit_ms();
    // Every class was warmed during set-up, and the order only holds
    // pool entries, so the warm share is 1 by construction.
    report.detail(
        "manifest",
        manifest(pool, order.iter().map(|&e| pool.entries[e].class), 1.0),
    );
    if !args.trace {
        let mut setup_s = Vec::with_capacity(SETUP_REPS);
        let mut warmup_failures = 0;
        let mut engines = Vec::new();
        for _ in 0..SETUP_REPS {
            drop(std::mem::take(&mut engines));
            let s = closed::setup(pool);
            setup_s.push(s.seconds);
            warmup_failures += s.warmup_failures;
            engines = s.engines;
        }
        let window = closed::measure(&mut engines, pool, &order, limit);
        let outcome = closed_outcome(&window);
        let setup_median = median(&setup_s);
        for (name, v, unit) in outcome.e2e(setup_median) {
            report.metric(name, v, unit);
        }
        report.detail(
            "setup_reps_s",
            Json::Arr(setup_s.into_iter().map(Json::from).collect()),
        );
        report.requests(&outcome, None, warmup_failures);
        let samples = order
            .iter()
            .map(|&e| pool.entries[e].class)
            .zip(window.lat_ns.iter().copied());
        report.detail("p50_ms_per_class", per_class_p50(pool, samples));
        return Ok(());
    }
    let (setup, setup_prof) = traced(|| closed::setup(pool));
    let mut engines = setup.engines;
    let untraced = closed::measure(&mut engines, pool, &order, limit);
    let (window, prof) = traced(|| closed::measure(&mut engines, pool, &order, limit));
    let outcome = closed_outcome(&window);
    let base = closed_outcome(&untraced);
    report.requests(&outcome, Some(&base), setup.warmup_failures);
    let n = order.len();

    setup_metrics(report, &spans::Tree::new(&setup_prof));
    let tree = spans::Tree::new(&prof);
    let split = spans::infer_split(&tree);
    infer_metrics(report, &split, &prof.counters, n, w.pool_width());
    let service_ms = split.infer_ns as f64 * 1e-6 / n as f64;
    let latency_mean_ms = window.lat_ns.iter().sum::<u64>() as f64 * 1e-6 / n as f64;
    // A closed loop is a server with one replica, no queue and batches of
    // one: what is left of a request after `infer` is the client's own time.
    report.metric("serve.service_ms", service_ms, "ms");
    report.metric("serve.queue_wait_ms", latency_mean_ms - service_ms, "ms");
    report.metric("serve.batch_size_mean", 1.0, "count");
    report.metric("serve.queue_depth_max", 0.0, "count");
    report.metric(
        "serve.replica_busy_share",
        split.infer_ns as f64 * 1e-9 / window.wall_s,
        "ratio",
    );
    report.metric("serve.gen_late_ms", 0.0, "ms");
    alloc_metrics(report, &untraced.alloc, n);
    report.metric(
        "trace.overhead_p50_ms",
        outcome.latency.p50_ms - base.latency.p50_ms,
        "ms",
    );
    report.detail("untraced_latency", base.latency.json());
    report.check(
        "check_traced_requests",
        split.requests as f64,
        split.requests == n,
    );
    report.check(
        "check_infer_residue_share",
        split.residue_share(),
        split.residue_share() <= MAX_RESIDUE_SHARE,
    );
    let gap = split.accounted_ns().abs_diff(split.infer_ns) as f64 / split.infer_ns.max(1) as f64;
    report.check("check_infer_accounted_gap", gap, gap <= 1e-3);
    if let Some(path) = &args.spans_out {
        let bounds = &window.bounds;
        write_span_file(path, &setup_prof, &prof, |t, i| {
            let start = t.spans[i].start_ns;
            let k = bounds.partition_point(|b| b.0 <= start);
            (k > 0 && start < bounds[k - 1].1).then(|| k - 1)
        })?;
    }
    Ok(())
}

/// Matches each traced `infer` span on a replica thread to the request it
/// served: a replica serves its requests one at a time and responds right
/// after each `infer` returns, so its spans in start order pair with its
/// responses in completion order. Returns span index → request index.
fn match_serve_spans(
    prof: &sod2_obs::Profile,
    tree: &spans::Tree,
    window: &open::Window,
) -> BTreeMap<usize, usize> {
    let replica_of_tid: BTreeMap<u64, usize> = prof
        .threads
        .iter()
        .filter_map(|(&tid, name)| Some((tid, name.strip_prefix("sod2-serve-")?.parse().ok()?)))
        .collect();
    let mut spans_by_replica: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, s) in tree.spans.iter().enumerate() {
        if s.cat == "infer" && tree.parent[i].is_none() {
            if let Some(&r) = replica_of_tid.get(&s.tid) {
                spans_by_replica.entry(r).or_default().push(i);
            }
        }
    }
    let mut matched = BTreeMap::new();
    for (r, span_ids) in spans_by_replica {
        let mut reqs: Vec<usize> = (0..window.records.len())
            .filter(|&q| window.records[q].replica == r && !window.records[q].rejected)
            .collect();
        reqs.sort_by_key(|&q| window.records[q].done_ns);
        for (s, q) in span_ids.into_iter().zip(reqs) {
            matched.insert(s, q);
        }
    }
    matched
}

fn run_open(args: &Args, pool: &Pool, report: &mut Report) -> Result<(), String> {
    let w = args.workload;
    let sched = open::Schedule::new(pool, request_count(args), args.seed);
    let limit = w.latency_limit_ms();
    if !args.trace {
        let mut setup_s = Vec::with_capacity(SETUP_REPS);
        let mut warmup_failures = 0;
        let mut last: Option<open::Setup> = None;
        for _ in 0..SETUP_REPS {
            if let Some(prev) = last.take() {
                prev.server.shutdown();
            }
            let s = open::setup(pool);
            setup_s.push(s.seconds);
            warmup_failures += s.warmup_failures;
            last = Some(s);
        }
        let setup = last.expect("at least one set-up");
        let window = open::measure(&setup.server, pool, &sched);
        let outcome = open_outcome(&window, &sched, limit);
        for (name, v, unit) in outcome.e2e(median(&setup_s)) {
            report.metric(name, v, unit);
        }
        report.detail(
            "setup_reps_s",
            Json::Arr(setup_s.into_iter().map(Json::from).collect()),
        );
        open_manifest(report, pool, &setup, &window, &sched);
        report.requests(&outcome, None, warmup_failures);
        let samples = window
            .records
            .iter()
            .zip(&sched.entry)
            .zip(&sched.due_ns)
            .filter(|((r, _), _)| !r.rejected)
            .map(|((r, &e), &due)| (pool.entries[e].class, r.done_ns.saturating_sub(due)));
        report.detail("p50_ms_per_class", per_class_p50(pool, samples));
        server_checks(report, setup.server.shutdown());
        return Ok(());
    }
    let (setup, setup_prof) = traced(|| open::setup(pool));
    let untraced = open::measure(&setup.server, pool, &sched);
    let (window, prof) = traced(|| open::measure(&setup.server, pool, &sched));
    let outcome = open_outcome(&window, &sched, limit);
    let base = open_outcome(&untraced, &sched, limit);
    report.requests(&outcome, Some(&base), setup.warmup_failures);
    open_manifest(report, pool, &setup, &window, &sched);
    let n = sched.due_ns.len();

    setup_metrics(report, &spans::Tree::new(&setup_prof));
    let tree = spans::Tree::new(&prof);
    let split = spans::infer_split(&tree);
    infer_metrics(report, &split, &prof.counters, n, w.pool_width());
    let matched = match_serve_spans(&prof, &tree, &window);
    let (mut wait_ns, mut service_ns, mut valid) = (0u64, 0u64, 0usize);
    for (&s, &q) in &matched {
        let span = &tree.spans[s];
        let rec = &window.records[q];
        let submit = window.start_session_ns + rec.submit_ns;
        let done = window.start_session_ns + rec.done_ns;
        // Start after submission and end before the response arrived
        // (with slack for the two clocks being read on different threads).
        let slack = 1_000_000;
        if span.start_ns + slack >= submit && span.end_ns() <= done + slack {
            valid += 1;
        }
        wait_ns += span.start_ns.saturating_sub(submit);
        service_ns += span.dur_ns;
    }
    let m = matched.len().max(1) as f64;
    report.metric("serve.service_ms", service_ns as f64 * 1e-6 / m, "ms");
    report.metric("serve.queue_wait_ms", wait_ns as f64 * 1e-6 / m, "ms");
    let answered: Vec<&open::Record> = window.records.iter().filter(|r| !r.rejected).collect();
    report.metric(
        "serve.batch_size_mean",
        answered.iter().map(|r| r.batch_size as f64).sum::<f64>() / answered.len().max(1) as f64,
        "count",
    );
    let late_ns: u64 = window
        .records
        .iter()
        .zip(&sched.due_ns)
        .map(|(r, &due)| r.submit_ns.saturating_sub(due))
        .sum();
    report.metric(
        "serve.replica_busy_share",
        split.infer_ns as f64 * 1e-9 / (open::REPLICAS as f64 * window.wall_s),
        "ratio",
    );
    report.metric("serve.gen_late_ms", late_ns as f64 * 1e-6 / n as f64, "ms");
    alloc_metrics(report, &untraced.alloc, n);
    report.metric(
        "trace.overhead_p50_ms",
        outcome.latency.p50_ms - base.latency.p50_ms,
        "ms",
    );
    report.detail("untraced_latency", base.latency.json());
    report.detail(
        "span_matching",
        Json::obj([
            ("matched", Json::from(matched.len() as f64)),
            ("consistent", Json::from(valid as f64)),
        ]),
    );
    let stats = setup.server.shutdown();
    report.metric(
        "serve.queue_depth_max",
        stats.max_queue_depth as f64,
        "count",
    );
    server_checks(report, stats);
    if let Some(path) = &args.spans_out {
        write_span_file(path, &setup_prof, &prof, |t, i| {
            matched.get(&t.root(i)).copied()
        })?;
    }
    Ok(())
}

fn open_manifest(
    report: &mut Report,
    pool: &Pool,
    setup: &open::Setup,
    window: &open::Window,
    sched: &open::Schedule,
) {
    let warm = window
        .records
        .iter()
        .zip(&sched.entry)
        .filter(|(r, &e)| setup.warm.contains(&(r.replica, pool.entries[e].class)))
        .count() as f64
        / window.records.len().max(1) as f64;
    report.detail(
        "manifest",
        manifest(
            pool,
            sched.entry.iter().map(|&e| pool.entries[e].class),
            warm,
        ),
    );
    report.detail(
        "warmed_replica_classes",
        Json::from(setup.warm.len() as f64),
    );
}

/// The server must end whole: no escaped replica panic, every thread joined.
fn server_checks(report: &mut Report, stats: sod2_serve::ServeStats) {
    report.check(
        "check_replica_panics",
        stats.replica_panics as f64,
        stats.replica_panics == 0,
    );
    report.check(
        "check_threads_joined",
        stats.threads_joined as f64,
        stats.threads_joined == stats.threads_spawned,
    );
    report.detail(
        "serve_max_queue_depth",
        Json::from(stats.max_queue_depth as f64),
    );
}

fn run(args: &Args, pinned: Json) -> Result<Report, String> {
    let pool = Pool::build(args.workload, args.seed)?;
    warm_mvc_cache();
    let mut report = Report::new(args, pinned, &pool);
    match args.workload {
        Workload::ShortSeq | Workload::LargeImage => run_closed(args, &pool, &mut report)?,
        Workload::ServeOpen => run_open(args, &pool, &mut report)?,
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sod2-hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let pinned = pin_env(&args);
    match run(&args, pinned) {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sod2-hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}
