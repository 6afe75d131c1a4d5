//! `sod2-cli` — inspect, compile, and run the dynamic-model zoo.
//!
//! ```sh
//! sod2-cli list
//! sod2-cli analyze  <model> [--scale tiny|full] [--facts] [--json]
//! sod2-cli analyze  --check [--all|<model>] [--min-finite N] [--expect-dead-arms MODEL=N]
//! sod2-cli run      <model> [--size N] [--device s888-cpu|s888-gpu|s835-cpu|s835-gpu]
//! sod2-cli profile  <model> [--iters N] [--serve] [--json | --chrome-trace PATH]
//! sod2-cli compare  <model> [--samples N]
//! sod2-cli chaos    <model|--all> [--seed S] [--json]
//! sod2-cli tune     [--device NAME] [--json] [--clear-cache]
//! ```
//!
//! `profile` compiles the model with the `sod2-obs` probes enabled, runs
//! `--iters` inferences, and reports where wall-clock time went: compile
//! stages, per-operator kernel spans, pool and memory phases, counters.
//! Kernel coverage books the outermost kernel spans inside inference on
//! the calling thread against the infer wall, as `bench_zoo` does, and
//! exits non-zero when it falls outside [0, 1]. `--chrome-trace` writes a
//! Chrome `trace_event` file loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>. `--serve` additionally
//! runs a short supervised serving session (replicas, circuit breakers,
//! predictive admission) inside the capture window so the serve health
//! gauges — `serve.replicas_healthy`, `serve.queue_depth`, and per-tenant
//! `serve.circuit_state.<tenant>` — appear in the report.
//!
//! `analyze` runs the full `sod2-analysis` diagnostic suite (IR lints, RDP
//! cross-validation against a concrete execution, plan and memory-plan
//! verification) and exits non-zero when any error-severity finding is
//! reported. With `--facts` it instead dumps the abstract-interpretation
//! certificates — tensors proven finite, constant, or nac-bounded, and
//! Switch arms proven unreachable — plus the fixpoint audit result.
//!
//! `chaos` sweeps every `sod2-faults` injection site (plus the deadline and
//! memory-budget hardening paths) against a model — or the whole zoo with
//! `--all` — and prints a survival matrix. Each cell must end in a typed
//! error or a recovered inference, and the engine must then produce
//! bitwise-identical clean outputs versus a fresh engine; a wedge (timeout
//! or unusable engine) or an escaped panic fails the run. The sweep is
//! deterministic for a fixed `--seed`. The `kernel.dispatch` cell sweeps
//! `kernel.error` across several dispatch positions and two device
//! profiles, so faults land under different selected kernel variants.
//! The sweep first checks its own coverage: a `sod2_faults::ALL_SITES`
//! site that no cell injects exits non-zero before any cell runs.
//!
//! Every engine the CLI builds starts from `Sod2Options::default()` and
//! runs its tape serially in SEP's order; the wavefront lines of `profile`
//! are a priced analysis of that run, never executed.
//!
//! `tune` runs (or warm-loads) the multi-version tuner for a device — the
//! GA over the hierarchized space, then the host playoff of each priced
//! winner against the default kernel — and prints, per class and family,
//! the priced selection with its modeled efficiency, the executed choice
//! and the stored playoff medians, with the host key, the work this
//! invocation ran and the cache provenance (`hit`/`miss`). The table
//! persists under the `SOD2_MVC_CACHE` directory (default
//! `target/sod2-cache/`); `--clear-cache` wipes it first, and a cache
//! write failure exits non-zero.

use sod2::{DeviceProfile, Engine, MnnLike, OrtLike, Sod2Engine, Sod2Options, TvmNimbleLike};
use sod2_models::{all_models, model_by_name, DynModel, ModelScale};
use sod2_prng::rngs::StdRng;
use sod2_prng::SeedableRng;
use sod2_rdp::ShapeClass;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cmd = args.get(1).map(String::as_str).unwrap_or("help");
    match cmd {
        "list" => list(),
        "analyze" => analyze(&args),
        "run" => run(&args),
        "profile" => profile_cmd(&args),
        "compare" => compare(&args),
        "export" => export(&args),
        "chaos" => chaos(&args),
        "tune" => tune(&args),
        _ => {
            eprintln!(
                "usage: sod2-cli <list|analyze|run|profile|compare|export|chaos|tune> [model|--all] \
                 [--scale tiny|full] [--size N] [--samples N] [--device NAME] \
                 [--iters N] [--seed S] [--json] [--chrome-trace FILE] [--out FILE] [--clear-cache]"
            );
            std::process::exit(2);
        }
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn scale_of(args: &[String]) -> ModelScale {
    match flag(args, "--scale").as_deref() {
        Some("full") => ModelScale::Full,
        _ => ModelScale::Tiny,
    }
}

fn device_of(args: &[String]) -> DeviceProfile {
    match flag(args, "--device").as_deref() {
        Some("s888-gpu") => DeviceProfile::s888_gpu(),
        Some("s835-cpu") => DeviceProfile::s835_cpu(),
        Some("s835-gpu") => DeviceProfile::s835_gpu(),
        _ => DeviceProfile::s888_cpu(),
    }
}

fn model_of(args: &[String], scale: ModelScale) -> DynModel {
    let name = args.get(2).map(String::as_str).unwrap_or_else(|| {
        eprintln!("missing model name; try `sod2-cli list`");
        std::process::exit(2);
    });
    model_by_name(name, scale).unwrap_or_else(|| {
        eprintln!("unknown model {name:?}; try `sod2-cli list`");
        std::process::exit(2);
    })
}

fn list() {
    println!("{:<22} {:>8} {:>6}   input", "model", "#layers", "dyn");
    for m in all_models(ModelScale::Full) {
        let (lo, hi) = m.size_range();
        println!(
            "{:<22} {:>8} {:>6}   size {lo}..{hi}",
            m.name,
            m.layer_count(),
            m.dynamism.label()
        );
    }
}

fn analyze(args: &[String]) {
    let scale = scale_of(args);
    let json = args.iter().any(|a| a == "--json");
    if args.iter().any(|a| a == "--check") {
        analyze_check(args, scale);
        return;
    }
    let model = model_of(args, scale);
    if args.iter().any(|a| a == "--facts") {
        analyze_facts(&model, json);
        return;
    }
    let rdp = sod2_rdp::analyze(&model.graph);
    if json {
        // Machine-readable mode: diagnostics only.
        let report = diagnose_model(&model);
        println!("{}", report.render_json());
        if report.has_errors() {
            std::process::exit(1);
        }
        return;
    }
    let (known, symbolic, op_inferred, nac, unknown) = rdp.class_counts();
    println!(
        "model      : {} ({} layers)",
        model.name,
        model.layer_count()
    );
    println!("dynamism   : {}", model.dynamism.label());
    println!("RDP sweeps : {}", rdp.iterations);
    println!("tensor shape classes:");
    println!("  known constants     : {known}");
    println!("  symbolic constants  : {symbolic}");
    println!("  op-inferred         : {op_inferred}");
    println!("  nac (exec-determined): {}", nac + unknown);
    println!(
        "  resolution rate     : {:.1}%",
        rdp.resolution_rate() * 100.0
    );

    let engine = Sod2Engine::new(
        model.graph.clone(),
        DeviceProfile::s888_cpu(),
        Sod2Options::default(),
        &Default::default(),
    );
    println!(
        "fusion     : {} layers → {} fused groups ({} code versions)",
        model.layer_count(),
        engine.fusion_plan().layer_count(),
        engine.fusion_plan().total_versions()
    );
    println!("partitions : {}", engine.partitions().len());
    if let Some(ts) = engine.tape_stats() {
        println!(
            "tape       : {} instruction(s) over {} register(s) ({} chain(s), {} const(s))",
            ts.tape_len, ts.register_count, ts.chain_count, ts.const_count
        );
    }
    // Show a few interesting symbolic shapes.
    let mut shown = 0;
    println!("sample symbolic shapes:");
    for t in model.graph.tensor_ids() {
        if shown >= 6 {
            break;
        }
        if rdp.shape_class(t) == ShapeClass::OpInferred {
            println!("  {:<28} {}", model.graph.tensor(t).name, rdp.shape(t));
            shown += 1;
        }
    }

    let report = diagnose_model(&model);
    println!("diagnostics:");
    print!("{}", report.render_text(Some(&model.graph)));
    if report.has_errors() {
        std::process::exit(1);
    }
}

/// `analyze --check`: typed CI assertions over the certificate sweep,
/// replacing grep-based JSON scraping in `ci.sh`. Runs `certify` on one
/// model (or the whole zoo with `--all`) and fails with a named reason
/// when any check does not hold:
///
///   * every model's fixpoint audit has zero violations;
///   * every model's diagnostic report is error-free;
///   * the aggregate proven-finite tensor count is at least `--min-finite`
///     (default 1 — the analysis must prove *something*);
///   * each `--expect-dead-arms MODEL=N` assertion holds exactly
///     (unreachable Switch arms proven for that model).
///
/// Exit code is the contract: 0 iff all checks pass.
fn analyze_check(args: &[String], scale: ModelScale) {
    let min_finite: u64 = flag(args, "--min-finite")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    // Collect every `--expect-dead-arms MODEL=N` occurrence.
    let mut dead_arm_expects: Vec<(String, usize)> = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == "--expect-dead-arms" {
            let spec = args.get(i + 1).unwrap_or_else(|| {
                eprintln!("analyze --check: --expect-dead-arms needs MODEL=N");
                std::process::exit(2);
            });
            let Some((name, n)) = spec.split_once('=') else {
                eprintln!("analyze --check: bad --expect-dead-arms {spec:?} (want MODEL=N)");
                std::process::exit(2);
            };
            let n: usize = n.parse().unwrap_or_else(|_| {
                eprintln!("analyze --check: bad count in --expect-dead-arms {spec:?}");
                std::process::exit(2);
            });
            dead_arm_expects.push((name.to_string(), n));
        }
    }

    let mut models: Vec<DynModel> = if args.iter().any(|a| a == "--all") {
        all_models(scale)
    } else {
        vec![model_of(args, scale)]
    };
    // Dead-arm expectations may name demo models that live outside the
    // zoo listing (e.g. BranchyDemo); pull them into the checked set.
    for (name, _) in &dead_arm_expects {
        if !models.iter().any(|m| m.name == *name) {
            let m = model_by_name(name, scale).unwrap_or_else(|| {
                eprintln!("analyze --check: --expect-dead-arms names unknown model {name:?}");
                std::process::exit(2);
            });
            models.push(m);
        }
    }

    let mut total_finite: u64 = 0;
    let mut failures: Vec<String> = Vec::new();
    for model in &models {
        let rdp = sod2_rdp::analyze(&model.graph);
        let (certs, report) = sod2_analysis::certify(&model.graph, &rdp);
        if !certs.stats.violations.is_empty() {
            failures.push(format!(
                "{}: {} fixpoint audit violation(s)",
                model.name,
                certs.stats.violations.len()
            ));
        }
        if report.has_errors() {
            failures.push(format!("{}: diagnostics reported errors", model.name));
            print!("{}", report.render_text(Some(&model.graph)));
        }
        total_finite += certs.finite_count() as u64;
        for (name, want) in &dead_arm_expects {
            if name == model.name && certs.unreachable_arms.len() != *want {
                failures.push(format!(
                    "{}: expected {} unreachable Switch arm(s), proved {}",
                    model.name,
                    want,
                    certs.unreachable_arms.len()
                ));
            }
        }
        println!(
            "check {:<22} violations={} finite={} dead_arms={}",
            model.name,
            certs.stats.violations.len(),
            certs.finite_count(),
            certs.unreachable_arms.len()
        );
    }
    if total_finite < min_finite {
        failures.push(format!(
            "aggregate: proved only {total_finite} finite tensor(s), need >= {min_finite}"
        ));
    }
    if failures.is_empty() {
        println!(
            "analyze --check: ok — {} model(s), {} finite tensor(s) proven",
            models.len(),
            total_finite
        );
    } else {
        eprintln!("analyze --check: FAILED");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

/// Dumps the abstract-interpretation certificates for a model: what the
/// four lattices proved, the fixpoint audit result, and the diagnostics.
/// Purely static — no inference runs. Exits non-zero on error findings.
fn analyze_facts(model: &DynModel, json: bool) {
    let rdp = sod2_rdp::analyze(&model.graph);
    let (certs, report) = sod2_analysis::certify(&model.graph, &rdp);
    if json {
        println!(
            "{{\n  \"model\": \"{}\",\n  \"fixpoint\": {{\"iterations\": {}, \
             \"changes\": {}, \"violations\": {}}},\n  \"finite\": {},\n  \
             \"constants\": {},\n  \"nac_bounds\": {},\n  \"unreachable_arms\": {},\n  \
             \"diagnostics\": {}\n}}",
            model.name,
            certs.stats.iterations,
            certs.stats.changes,
            certs.stats.violations.len(),
            certs.finite_count(),
            certs.constant_count(),
            certs.bounded_nac_count(),
            certs.unreachable_arms.len(),
            report.render_json()
        );
    } else {
        println!(
            "model            : {} ({} layers)",
            model.name,
            model.layer_count()
        );
        println!(
            "fixpoint         : {} iterations, {} changes, {} audit violations",
            certs.stats.iterations,
            certs.stats.changes,
            certs.stats.violations.len()
        );
        println!("proven finite    : {} f32 tensors", certs.finite_count());
        println!("proven constant  : {} tensors", certs.constant_count());
        println!("nac elem bounds  : {} tensors", certs.bounded_nac_count());
        println!("unreachable arms : {}", certs.unreachable_arms.len());
        for (nid, arm) in &certs.unreachable_arms {
            println!(
                "  {} arm {arm} can never be selected",
                model.graph.node(*nid).name
            );
        }
        let mut shown = 0;
        println!("sample facts:");
        for t in model.graph.tensor_ids() {
            let i = t.0 as usize;
            if shown >= 8 {
                break;
            }
            if let Some(c) = certs.constants[i] {
                println!("  {:<28} const {c}", model.graph.tensor(t).name);
                shown += 1;
            } else if let Some(b) = &certs.elem_bounds[i] {
                println!("  {:<28} |elems| <= {b}", model.graph.tensor(t).name);
                shown += 1;
            } else if certs.finite[i] {
                println!(
                    "  {:<28} finite, range {}",
                    model.graph.tensor(t).name,
                    certs.ranges[i]
                );
                shown += 1;
            }
        }
        println!("diagnostics:");
        print!("{}", report.render_text(Some(&model.graph)));
    }
    if report.has_errors() {
        std::process::exit(1);
    }
}

/// Runs the full diagnostic suite: static analysis plus one concrete
/// inference at a representative input size for RDP cross-validation.
fn diagnose_model(model: &DynModel) -> sod2_analysis::Report {
    let mut engine = Sod2Engine::new(
        model.graph.clone(),
        DeviceProfile::s888_cpu(),
        Sod2Options::default(),
        &Default::default(),
    );
    let mut rng = StdRng::seed_from_u64(42);
    let (_, inputs) = model.sample_inputs(&mut rng);
    engine.diagnose(&inputs).unwrap_or_else(|e| {
        eprintln!("diagnostic inference failed: {e}");
        std::process::exit(1);
    })
}

fn run(args: &[String]) {
    let scale = scale_of(args);
    let model = model_of(args, scale);
    let profile = device_of(args);
    let size = flag(args, "--size")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            let (lo, hi) = model.size_range();
            (lo + hi) / 2
        });
    let mut rng = StdRng::seed_from_u64(42);
    let inputs = model.make_inputs(size, &mut rng);
    let mut engine = Sod2Engine::new(
        model.graph.clone(),
        profile.clone(),
        Sod2Options::default(),
        &Default::default(),
    );
    match engine.infer(&inputs) {
        Ok(run) => {
            let stats = engine.price(&run);
            println!("model   : {} @ size {}", model.name, model.round_size(size));
            println!("device  : {}", profile.name);
            println!("output  : {:?}", run.outputs[0].shape());
            println!("latency : {:.3} ms", stats.latency.total() * 1e3);
            println!(
                "          kernels {:.3} ms, allocs {:.3} ms, planning {:.3} ms",
                stats.latency.kernels * 1e3,
                stats.latency.allocs * 1e3,
                stats.latency.reinit * 1e3
            );
            println!(
                "memory  : {:.3} MB peak intermediates",
                stats.peak_memory_bytes as f64 / (1024.0 * 1024.0)
            );
            println!(
                "allocs  : {} heap events, {} tensors in the DMP plan",
                stats.alloc_events, stats.arena_backed
            );
        }
        Err(e) => {
            eprintln!("inference failed: {e}");
            std::process::exit(1);
        }
    }
}

fn profile_cmd(args: &[String]) {
    let scale = scale_of(args);
    let model = model_of(args, scale);
    let profile = device_of(args);
    let iters: usize = flag(args, "--iters")
        .and_then(|s| s.parse().ok())
        .unwrap_or(10)
        .max(1);
    let size = flag(args, "--size")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            let (lo, hi) = model.size_range();
            (lo + hi) / 2
        });
    let json = args.iter().any(|a| a == "--json");
    let serve = args.iter().any(|a| a == "--serve");
    let chrome = flag(args, "--chrome-trace");

    let mut rng = StdRng::seed_from_u64(42);
    let inputs = model.make_inputs(size, &mut rng);

    // Hold the session lock for the whole measured region so concurrent
    // users of the process-global collector cannot interleave.
    let _session = sod2_obs::session_guard();
    sod2_obs::set_enabled(true);
    sod2_obs::begin();
    // NaN guarding on: the profile reports how many per-node fences the
    // finiteness certificates elided, which requires the guard active.
    let mut engine = Sod2Engine::new(
        model.graph.clone(),
        profile.clone(),
        Sod2Options {
            nan_guard: true,
            ..Sod2Options::default()
        },
        &Default::default(),
    );
    let mut last_run = None;
    // Compilation above ran absint's pool regions; occupancy books only
    // the pool work of the inference loop.
    let busy_before = sod2_obs::counter("pool.busy_ns");
    for _ in 0..iters {
        match engine.infer(&inputs) {
            Ok(run) => last_run = Some(run),
            Err(e) => {
                eprintln!("inference failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let busy_ns = sod2_obs::counter("pool.busy_ns") - busy_before;
    // Optionally exercise the serving layer inside the same capture window
    // so the `serve.*` health gauges land in this profile document. The
    // server must outlive the snapshot: a clean shutdown zeroes the gauges.
    let live_server = serve.then(|| profile_serve_session(&model, &profile, size));
    let prof = sod2_obs::take();
    sod2_obs::set_enabled(false);
    let serve_ok = live_server.as_ref().map(|(_, ok)| *ok);

    // The last inference, priced outside the capture window: the profile
    // shows the request path only.
    let stats = engine.price(&last_run.expect("at least one iteration ran"));
    // Kernel time is booked as `bench_zoo` books it: the outermost kernel
    // spans inside inference, on the calling thread.
    let infer_ns = prof.cat_total_ns("infer");
    let (kernel_ns, _) = prof.infer_kernel_dmp_ns();
    let coverage = if infer_ns > 0 {
        kernel_ns as f64 / infer_ns as f64
    } else {
        0.0
    };
    if !(0.0..=1.0).contains(&coverage) {
        eprintln!("kernel coverage {coverage} outside [0, 1]");
        std::process::exit(1);
    }
    // Pool occupancy: busy-worker time over (inference wall × workers) —
    // how much of the pool's theoretical capacity the run actually used.
    let workers = sod2_pool::current_threads().max(1);
    let occupancy = if infer_ns > 0 {
        busy_ns as f64 / (infer_ns as f64 * workers as f64)
    } else {
        0.0
    };
    let wave = engine.wave_stats(&stats.trace);
    let tape = engine.tape_stats();
    let counter = |name: &str| prof.counters.get(name).copied().unwrap_or(0);
    let (elisions, pruned, nac_used) = (
        counter("absint.guard_elisions"),
        counter("absint.pruned_arms"),
        counter("absint.nac_bounds_used"),
    );

    if let Some(path) = &chrome {
        if let Err(e) = std::fs::write(path, prof.render_chrome_trace()) {
            eprintln!("failed to write chrome trace to {path}: {e}");
            std::process::exit(1);
        }
    }

    if json {
        // Wrap the profile JSON with run metadata so downstream tools get
        // a single self-describing document.
        let wave_json = format!(
            "{{\"wave_count\": {}, \"max_width\": {}, \"splits\": {}, \
             \"serial_ms\": {:.6}, \"scheduled_makespan_ms\": {:.6}, \
             \"serial_peak_bytes\": {}, \"parallel_peak_bytes\": {}}}",
            wave.wave_count,
            wave.max_width,
            wave.splits,
            wave.serial_s * 1e3,
            wave.makespan_s * 1e3,
            wave.serial_peak,
            wave.parallel_peak,
        );
        let tape_json = match &tape {
            Some(t) => format!(
                "{{\"tape_len\": {}, \"register_count\": {}, \
                 \"register_file_bytes\": {}, \"chain_count\": {}, \
                 \"const_count\": {}}}",
                t.tape_len, t.register_count, t.register_file_bytes, t.chain_count, t.const_count,
            ),
            None => "null".to_string(),
        };
        let serve_json = match serve_ok {
            Some(ok) => {
                let g = |n: &str| prof.counters.get(n).copied().unwrap_or(0);
                let circuits: Vec<String> = prof
                    .counters
                    .iter()
                    .filter_map(|(k, v)| {
                        k.strip_prefix("serve.circuit_state.")
                            .map(|t| format!("\"{t}\": {v}"))
                    })
                    .collect();
                format!(
                    "{{\"requests_ok\": {ok}, \"replicas_healthy\": {}, \
                     \"queue_depth\": {}, \"circuit_state\": {{{}}}}}",
                    g("serve.replicas_healthy"),
                    g("serve.queue_depth"),
                    circuits.join(", ")
                )
            }
            None => "null".to_string(),
        };
        println!(
            "{{\n  \"model\": \"{}\",\n  \"device\": \"{}\",\n  \"size\": {},\n  \
             \"iters\": {},\n  \"priced_ms\": {:.6},\n  \"peak_memory_bytes\": {},\n  \
             \"kernel_coverage\": {:.4},\n  \"pool_workers\": {},\n  \
             \"pool_occupancy\": {:.4},\n  \"absint\": {{\"guard_elisions\": {}, \
             \"pruned_arms\": {}, \"nac_bounds_used\": {}}},\n  \
             \"wavefront\": {},\n  \"tape\": {},\n  \"serve\": {},\n  \"profile\": {}\n}}",
            model.name,
            profile.name,
            model.round_size(size),
            iters,
            stats.latency.total() * 1e3,
            stats.peak_memory_bytes,
            coverage,
            workers,
            occupancy,
            elisions,
            pruned,
            nac_used,
            wave_json,
            tape_json,
            serve_json,
            prof.render_json()
        );
    } else {
        println!(
            "model    : {} @ size {} ({} layers)",
            model.name,
            model.round_size(size),
            model.layer_count()
        );
        println!("device   : {}", profile.name);
        println!("iters    : {iters}");
        println!(
            "priced   : {:.3} ms/inference (deterministic cost model)",
            stats.latency.total() * 1e3
        );
        println!(
            "compile  : {:.3} ms wall ({} stage spans)",
            prof.cat_total_ns("compile") as f64 / 1e6,
            prof.cat_count("stage")
        );
        println!(
            "infer    : {:.3} ms wall across {} inferences",
            infer_ns as f64 / 1e6,
            prof.cat_count("infer")
        );
        println!(
            "kernels  : {:.3} ms wall in {} spans ({:.1}% of infer wall)",
            kernel_ns as f64 / 1e6,
            prof.cat_count("kernel"),
            coverage * 100.0
        );
        println!(
            "pool     : {:.1}% occupancy ({:.3} ms busy-worker time / {} workers)",
            occupancy * 100.0,
            busy_ns as f64 / 1e6,
            workers
        );
        println!(
            "absint   : {elisions} guard fences elided, {pruned} switch arm(s) pruned, \
             {nac_used} nac bounds applied"
        );
        if let Some(t) = &tape {
            println!(
                "tape     : {} instruction(s), {} register(s) ({} B register file), \
                 {} chain(s), {} prebuilt const(s)",
                t.tape_len, t.register_count, t.register_file_bytes, t.chain_count, t.const_count
            );
        }
        println!(
            "wavefront: {} waves, max width {}, {} split(s)",
            wave.wave_count, wave.max_width, wave.splits,
        );
        println!(
            "makespan : {:.3} ms scheduled @4 workers vs {:.3} ms serial ({:.2}x)",
            wave.makespan_s * 1e3,
            wave.serial_s * 1e3,
            if wave.makespan_s > 0.0 {
                wave.serial_s / wave.makespan_s
            } else {
                1.0
            },
        );
        println!(
            "wave mem : parallel peak {:.2} MB vs serial peak {:.2} MB",
            wave.parallel_peak as f64 / (1024.0 * 1024.0),
            wave.serial_peak as f64 / (1024.0 * 1024.0),
        );
        if let Some(ok) = serve_ok {
            let g = |n: &str| prof.counters.get(n).copied().unwrap_or(0);
            let circuits: Vec<String> = prof
                .counters
                .iter()
                .filter_map(|(k, v)| {
                    k.strip_prefix("serve.circuit_state.")
                        .map(|t| format!("{t}={v}"))
                })
                .collect();
            println!(
                "serve    : {ok} request(s) ok, {} replica(s) healthy, queue depth {}, \
                 circuits [{}] (0 closed / 1 half-open / 2 open)",
                g("serve.replicas_healthy"),
                g("serve.queue_depth"),
                circuits.join(" ")
            );
        }
        println!();
        print!("{}", prof.render_text());
        if let Some(path) = &chrome {
            println!();
            println!("chrome trace written to {path} (open in ui.perfetto.dev)");
        }
    }
    if let Some((server, _)) = live_server {
        server.shutdown();
    }
}

/// Runs a short supervised serving session — two replicas, circuit breakers
/// and predictive admission on — against the model so the `serve.*` health
/// gauges are live in the surrounding obs capture. Returns the still-running
/// server (the caller snapshots the profile first, then shuts it down) plus
/// the number of requests that completed cleanly.
fn profile_serve_session(
    model: &DynModel,
    device: &DeviceProfile,
    size: usize,
) -> (sod2_serve::Server, usize) {
    use sod2_serve::{BreakerConfig, Server, ServerConfig, TenantSpec};
    let template = Sod2Engine::new(
        model.graph.clone(),
        device.clone(),
        Sod2Options::default(),
        &Default::default(),
    );
    let tenants = vec![
        TenantSpec::new("standard").with_retry_budget(1),
        TenantSpec::new("premium")
            .with_deadline(std::time::Duration::from_secs(30))
            .with_retry_budget(2),
    ];
    let server = Server::start(
        template,
        tenants,
        ServerConfig {
            replicas: 2,
            stall_timeout: Some(std::time::Duration::from_secs(5)),
            breaker: Some(BreakerConfig::default()),
            predictive_admission: true,
            ..ServerConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(7);
    let tickets: Vec<_> = (0..6)
        .filter_map(|i| {
            let tenant = if i % 2 == 0 { "standard" } else { "premium" };
            server
                .submit(tenant, model.make_inputs(size, &mut rng))
                .ok()
        })
        .collect();
    let ok = tickets
        .into_iter()
        .map(|t| t.wait())
        .filter(|r| r.result.is_ok())
        .count();
    (server, ok)
}

fn export(args: &[String]) {
    let scale = scale_of(args);
    let model = model_of(args, scale);
    let out = flag(args, "--out").unwrap_or_else(|| format!("{}.sod2", model.name));
    let bytes = sod2_ir::serialize::encode_graph(&model.graph);
    match std::fs::write(&out, &bytes) {
        Ok(()) => println!(
            "wrote {} ({} layers, {} bytes incl. weights) to {out}",
            model.name,
            model.layer_count(),
            bytes.len()
        ),
        Err(e) => {
            eprintln!("write failed: {e}");
            std::process::exit(1);
        }
    }
}

/// One cell of the chaos survival matrix: a fault (or hardening option)
/// plus the set of acceptable outcomes.
#[derive(Clone, Copy)]
struct ChaosCell {
    name: &'static str,
    /// `SOD2_FAULTS`-grammar rule (the sweep seed is prepended), or `None`
    /// for cells driven purely by engine options (deadline, budget).
    spec: Option<&'static str>,
    deadline: Option<std::time::Duration>,
    budget: Option<usize>,
    nan_guard: bool,
    /// Acceptable outcome labels; anything else fails the sweep.
    expect: &'static [&'static str],
}

/// The sweep: every injection site, plus the option-driven hardening paths.
const CHAOS_CELLS: &[ChaosCell] = &[
    ChaosCell {
        name: "kernel.error",
        spec: Some("kernel.error:nth=1"),
        deadline: None,
        budget: None,
        nan_guard: false,
        expect: &["error:kernel"],
    },
    // NaN poisoning may be washed out before reaching an output (e.g. a
    // downstream max with a finite operand), so a recovered run is also a
    // survival; the guard must catch it whenever it does propagate.
    ChaosCell {
        name: "kernel.nan",
        spec: Some("kernel.nan:nth=1"),
        deadline: None,
        budget: None,
        nan_guard: true,
        expect: &["error:numeric-fault", "recovered"],
    },
    ChaosCell {
        name: "kernel.delay",
        spec: Some("kernel.delay:nth=1,us=200"),
        deadline: None,
        budget: None,
        nan_guard: false,
        expect: &["recovered"],
    },
    ChaosCell {
        name: "pool.panic",
        spec: Some("pool.panic:nth=1"),
        deadline: None,
        budget: None,
        nan_guard: false,
        expect: &["error:panic"],
    },
    // A stall holds the kernel thread for `us` before surfacing a typed
    // kernel error. Without a supervisor (the serving layer's job) the only
    // guarantee here is the typed abort plus an unpoisoned engine afterwards;
    // keep `us` small so the sweep stays fast.
    ChaosCell {
        name: "kernel.stall",
        spec: Some("kernel.stall:nth=1,us=500"),
        deadline: None,
        budget: None,
        nan_guard: false,
        expect: &["error:kernel"],
    },
    ChaosCell {
        name: "runtime.bindings",
        spec: Some("runtime.bindings:nth=1"),
        deadline: None,
        budget: None,
        nan_guard: false,
        expect: &["recovered"],
    },
    ChaosCell {
        name: "deadline",
        spec: None,
        deadline: Some(std::time::Duration::from_nanos(1)),
        budget: None,
        nan_guard: false,
        expect: &["error:deadline"],
    },
    ChaosCell {
        name: "budget",
        spec: None,
        deadline: None,
        budget: Some(1),
        nan_guard: false,
        expect: &["error:budget"],
    },
];

/// Fault sites no [`CHAOS_CELLS`] entry injects (a cell injects the site
/// its `spec` rule names).
fn uncovered_fault_sites() -> Vec<&'static str> {
    sod2_faults::ALL_SITES
        .iter()
        .map(|site| site.name())
        .filter(|&name| {
            !CHAOS_CELLS
                .iter()
                .any(|c| c.spec.and_then(|r| r.split(':').next()) == Some(name))
        })
        .collect()
}

fn exec_error_label(e: &sod2::ExecError) -> &'static str {
    use sod2::ExecError;
    match e {
        ExecError::Kernel(_) => "kernel",
        ExecError::BadInputs(_) => "bad-inputs",
        ExecError::ControlFlow(_) => "control-flow",
        ExecError::DeadlineExceeded => "deadline",
        ExecError::BudgetExceeded { .. } => "budget",
        ExecError::Panic(_) => "panic",
        ExecError::NumericFault(_) => "numeric-fault",
        ExecError::Internal(_) => "internal",
    }
}

/// Runs one chaos cell to completion: clean reference inference, faulted
/// inference, then a clean inference on the *same* engine which must match
/// the reference bitwise. Returns the outcome label.
fn chaos_cell_body(
    graph: sod2::Graph,
    inputs: Vec<sod2::Tensor>,
    cell: ChaosCell,
    seed: u64,
) -> String {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    sod2_faults::clear();

    // Reference output from a pristine engine, no faults installed.
    let mut reference = Sod2Engine::new(
        graph.clone(),
        DeviceProfile::s888_cpu(),
        Sod2Options::default(),
        &Default::default(),
    );
    let reference_out = match reference.infer(&inputs) {
        Ok(s) => s.outputs,
        Err(e) => return format!("WEDGED(clean reference failed: {e})"),
    };

    let opts = Sod2Options {
        deadline: cell.deadline,
        memory_budget: cell.budget,
        nan_guard: cell.nan_guard,
        ..Sod2Options::default()
    };
    let mut engine = Sod2Engine::new(graph, DeviceProfile::s888_cpu(), opts, &Default::default());

    if let Some(spec) = cell.spec {
        match sod2_faults::FaultPlan::parse(&format!("seed={seed};{spec}")) {
            Ok(plan) => sod2_faults::install(plan),
            Err(e) => return format!("WEDGED(bad spec: {e})"),
        }
    }
    let faulted = catch_unwind(AssertUnwindSafe(|| engine.infer(&inputs)));
    let fired = sod2_faults::fired_count();
    sod2_faults::clear();

    let outcome = match faulted {
        // The engine converts panics to `ExecError::Panic` itself; an
        // unwind escaping `infer` means that guard failed.
        Err(_) => return "PANICKED".into(),
        Ok(Ok(_)) if cell.spec.is_some() && fired == 0 => return "not-hit".into(),
        Ok(Ok(_)) => "recovered".to_string(),
        Ok(Err(e)) => format!("error:{}", exec_error_label(&e)),
    };

    // Engine-reuse check: lift the hardening limits and the same engine
    // must complete a clean inference with reference-identical outputs.
    engine.set_deadline(None);
    engine.set_memory_budget(None);
    engine.set_nan_guard(false);
    match catch_unwind(AssertUnwindSafe(|| engine.infer(&inputs))) {
        Ok(Ok(stats)) => {
            let same = stats.outputs.len() == reference_out.len()
                && stats
                    .outputs
                    .iter()
                    .zip(&reference_out)
                    .all(|(a, b)| a.payload_le_bytes() == b.payload_le_bytes());
            if !same {
                return "WEDGED(post-fault outputs differ from fresh engine)".into();
            }
        }
        Ok(Err(e)) => return format!("WEDGED(engine unusable after fault: {e})"),
        Err(_) => return "WEDGED(panic on clean inference after fault)".into(),
    }
    outcome
}

/// Body of the `kernel.dispatch` chaos cell: sweeps `kernel.error` across
/// several dispatch positions on two device profiles, so the typed fault
/// lands under different *selected kernel variants* (each device tunes its
/// own version table, and the tape bakes the selected variant into the
/// dispatch). Every firing must surface `ExecError::Kernel` and the engine
/// must then reproduce a pristine engine's outputs bitwise; positions past
/// the model's dispatch count simply never fire and are skipped.
fn chaos_dispatch_body(graph: sod2::Graph, inputs: Vec<sod2::Tensor>, seed: u64) -> String {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut exercised = 0u32;
    for device in [DeviceProfile::s888_cpu(), DeviceProfile::s835_gpu()] {
        sod2_faults::clear();
        let mut reference = Sod2Engine::new(
            graph.clone(),
            device.clone(),
            Sod2Options::default(),
            &Default::default(),
        );
        let reference_out = match reference.infer(&inputs) {
            Ok(s) => s.outputs,
            Err(e) => return format!("WEDGED(clean reference failed: {e})"),
        };
        for nth in [1u64, 2, 3, 5, 8] {
            let mut engine = Sod2Engine::new(
                graph.clone(),
                device.clone(),
                Sod2Options::default(),
                &Default::default(),
            );
            match sod2_faults::FaultPlan::parse(&format!("seed={seed};kernel.error:nth={nth}")) {
                Ok(plan) => sod2_faults::install(plan),
                Err(e) => return format!("WEDGED(bad spec: {e})"),
            }
            let faulted = catch_unwind(AssertUnwindSafe(|| engine.infer(&inputs)));
            let fired = sod2_faults::fired_count();
            sod2_faults::clear();
            match faulted {
                Err(_) => return "PANICKED".into(),
                // Fewer kernel dispatches than `nth`: nothing to test here.
                Ok(Ok(_)) if fired == 0 => continue,
                Ok(Ok(_)) => return format!("UNDETECTED(nth={nth} fired but inference succeeded)"),
                Ok(Err(sod2::ExecError::Kernel(_))) => {}
                Ok(Err(e)) => {
                    return format!("UNEXPECTED(nth={nth}: error:{})", exec_error_label(&e))
                }
            }
            exercised += 1;
            match catch_unwind(AssertUnwindSafe(|| engine.infer(&inputs))) {
                Ok(Ok(stats)) => {
                    let same = stats.outputs.len() == reference_out.len()
                        && stats
                            .outputs
                            .iter()
                            .zip(&reference_out)
                            .all(|(a, b)| a.payload_le_bytes() == b.payload_le_bytes());
                    if !same {
                        return format!("WEDGED(nth={nth}: post-fault outputs differ)");
                    }
                }
                Ok(Err(e)) => return format!("WEDGED(engine unusable after fault: {e})"),
                Err(_) => return "WEDGED(panic on clean inference after fault)".into(),
            }
        }
    }
    if exercised == 0 {
        return "not-hit".into();
    }
    format!("recovered({exercised} faulted dispatches)")
}

/// Runs the `kernel.dispatch` cell on a watchdog thread (it performs a
/// whole sweep internally, so it gets a longer budget than single cells).
fn chaos_run_dispatch(model: &DynModel, seed: u64) -> String {
    let size = {
        let (lo, hi) = model.size_range();
        (lo + hi) / 2
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs = model.make_inputs(size, &mut rng);
    let graph = model.graph.clone();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(chaos_dispatch_body(graph, inputs, seed));
    });
    match rx.recv_timeout(std::time::Duration::from_secs(120)) {
        Ok(outcome) => outcome,
        Err(_) => {
            sod2_faults::clear();
            "WEDGED(timeout after 120s)".into()
        }
    }
}

/// Runs a cell on a watchdog thread so a wedged inference cannot hang the
/// sweep; a timeout is reported as WEDGED.
fn chaos_run_cell(model: &DynModel, cell: ChaosCell, seed: u64) -> String {
    let size = {
        let (lo, hi) = model.size_range();
        (lo + hi) / 2
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs = model.make_inputs(size, &mut rng);
    let graph = model.graph.clone();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(chaos_cell_body(graph, inputs, cell, seed));
    });
    match rx.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(outcome) => outcome,
        Err(_) => {
            // The wedged thread may still hold the installed plan; disarm
            // it so later cells start from a clean slate.
            sod2_faults::clear();
            "WEDGED(timeout after 60s)".into()
        }
    }
}

fn chaos(args: &[String]) {
    let scale = scale_of(args);
    let json = args.iter().any(|a| a == "--json");
    let seed: u64 = flag(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let uncovered = uncovered_fault_sites();
    if !uncovered.is_empty() {
        eprintln!(
            "chaos: no cell injects fault site(s) {}; add them to CHAOS_CELLS",
            uncovered.join(", ")
        );
        std::process::exit(1);
    }
    let models = if args.get(2).map(String::as_str) == Some("--all") {
        all_models(scale)
    } else {
        vec![model_of(args, scale)]
    };

    // Injected pool-chunk panics are expected here; silence the default
    // hook's backtrace spam (the harness reports outcomes itself).
    std::panic::set_hook(Box::new(|_| {}));

    let mut rows: Vec<(String, &'static str, String, bool)> = Vec::new();
    for model in &models {
        for &cell in CHAOS_CELLS {
            let outcome = chaos_run_cell(model, cell, seed);
            let ok = cell.expect.contains(&outcome.as_str());
            rows.push((model.name.to_string(), cell.name, outcome, ok));
        }
        // Variant-kernel dispatch sweep: typed faults under every selected
        // kernel variant, with bitwise-identical recovery.
        let outcome = chaos_run_dispatch(model, seed);
        let ok = outcome.starts_with("recovered(");
        rows.push((model.name.to_string(), "kernel.dispatch", outcome, ok));
    }
    let _ = std::panic::take_hook();

    let failed = rows.iter().filter(|r| !r.3).count();
    if json {
        let cells: Vec<String> = rows
            .iter()
            .map(|(m, c, o, ok)| {
                format!("{{\"model\":\"{m}\",\"cell\":\"{c}\",\"outcome\":\"{o}\",\"ok\":{ok}}}")
            })
            .collect();
        println!(
            "{{\"seed\":{seed},\"cells\":[{}],\"failed\":{failed}}}",
            cells.join(",")
        );
    } else {
        println!("{:<22} {:<18} {:<44} ok", "model", "cell", "outcome");
        for (m, c, o, ok) in &rows {
            println!("{m:<22} {c:<18} {o:<44} {}", if *ok { "yes" } else { "NO" });
        }
        println!(
            "chaos: {}/{} cells ok (seed {seed})",
            rows.len() - failed,
            rows.len()
        );
    }
    if failed > 0 {
        std::process::exit(1);
    }
}

/// `tune`: run (or warm-load) the multi-version tuner for a device and
/// print, per class and family, the priced selection, the executed choice
/// and the playoff medians, with cache provenance. Exits non-zero when the
/// tuned table cannot be written to the cache directory.
fn tune(args: &[String]) {
    use sod2_device::ShapeClass;
    use sod2_mvc::Family;
    let profile = device_of(args);
    let json = args.iter().any(|a| a == "--json");
    let dir = sod2_mvc::cache::cache_dir();
    if args.iter().any(|a| a == "--clear-cache") {
        if let Some(d) = dir.as_ref().filter(|d| d.exists()) {
            if let Err(e) = std::fs::remove_dir_all(d) {
                eprintln!("failed to clear cache {}: {e}", d.display());
                std::process::exit(1);
            }
        }
    }

    // Capture counters around the load so the report can prove how much
    // work ran (a warm hit performs zero GA generations and zero playoff
    // timings).
    let _session = sod2_obs::session_guard();
    sod2_obs::set_enabled(true);
    sod2_obs::begin();
    let (table, status) = sod2_mvc::VersionTable::load_or_tune(&profile, 0xC0DE, dir.as_deref());
    let prof = sod2_obs::take();
    sod2_obs::set_enabled(false);
    let count = |k: &str| prof.counters.get(k).copied().unwrap_or(0);
    let (generations, timings) = (count("mvc.ga_generations"), count("mvc.playoff_timings"));
    let host = sod2_mvc::HostKey::current().line();

    let class_name = |c: ShapeClass| match c {
        ShapeClass::Skinny => "skinny",
        ShapeClass::Regular => "regular",
        ShapeClass::Fat => "fat",
    };
    // Per (class, family): the priced selection's description (text and
    // JSON fields), its modeled efficiency, and the playoff.
    let entry = |class: ShapeClass, family: Family| {
        let (text, fields, eff) = match family {
            Family::Gemm => {
                let (g, eff) = table.gemm_version(class);
                (
                    format!(
                        "tile {}x{}x{} unroll {} {} {}",
                        g.tile_m,
                        g.tile_n,
                        g.tile_k,
                        g.unroll,
                        g.loop_order.token(),
                        g.micro.token()
                    ),
                    format!(
                        "\"tile_m\": {}, \"tile_n\": {}, \"tile_k\": {}, \"unroll\": {}, \
                         \"loop_order\": \"{}\", \"micro\": \"{}\"",
                        g.tile_m,
                        g.tile_n,
                        g.tile_k,
                        g.unroll,
                        g.loop_order.token(),
                        g.micro.token()
                    ),
                    eff,
                )
            }
            Family::Conv => {
                let (c, eff) = table.conv_version(class);
                (
                    format!(
                        "block_oc {} tile_w {} {}",
                        c.block_oc,
                        c.tile_w,
                        c.loop_order.token()
                    ),
                    format!(
                        "\"block_oc\": {}, \"tile_w\": {}, \"loop_order\": \"{}\"",
                        c.block_oc,
                        c.tile_w,
                        c.loop_order.token()
                    ),
                    eff,
                )
            }
        };
        let playoff = table
            .playoff(family, class)
            .expect("load_or_tune returns a played-off table");
        (text, fields, eff, playoff)
    };

    if json {
        let classes: Vec<String> = ShapeClass::all()
            .into_iter()
            .map(|class| {
                let families: Vec<String> = Family::ALL
                    .into_iter()
                    .map(|family| {
                        let (_, fields, eff, p) = entry(class, family);
                        format!(
                            "\"{}\": {{{fields}, \"modeled_efficiency\": {eff:.6}, \
                             \"executed\": \"{}\", \"tuned_ms\": {:.4}, \"default_ms\": {:.4}}}",
                            family.token(),
                            p.executed(),
                            p.tuned_ms,
                            p.default_ms,
                        )
                    })
                    .collect();
                format!(
                    "{{\"class\": \"{}\", {}}}",
                    class_name(class),
                    families.join(", ")
                )
            })
            .collect();
        println!(
            "{{\n  \"device\": \"{}\",\n  \"host\": \"{host}\",\n  \"provenance\": \"{}\",\n  \
             \"cache_path\": {},\n  \"ga_generations\": {generations},\n  \
             \"playoff_timings\": {timings},\n  \"rejected\": {},\n  \"classes\": [{}]\n}}",
            profile.name,
            status.provenance.token(),
            match &status.path {
                Some(p) => format!("\"{}\"", p.display()),
                None => "null".to_string(),
            },
            match &status.rejected {
                Some(e) => format!("\"{e}\""),
                None => "null".to_string(),
            },
            classes.join(", ")
        );
    } else {
        println!("device      : {}", profile.name);
        println!("host        : {host}");
        match &status.path {
            Some(p) => println!(
                "cache       : {} ({})",
                p.display(),
                status.provenance.token()
            ),
            None => println!("cache       : disabled"),
        }
        if let Some(rej) = &status.rejected {
            println!("rejected    : {rej} (re-tuned)");
        }
        println!("generations : {generations} GA generation(s) this invocation");
        println!("timings     : {timings} playoff timing(s) this invocation");
        println!(
            "{:<8} {:<6} {:<38} {:>8} {:>9} {:>9} {:>11}",
            "class", "family", "priced selection", "modeled", "executed", "tuned ms", "default ms"
        );
        for class in ShapeClass::all() {
            for family in Family::ALL {
                let (text, _, eff, p) = entry(class, family);
                println!(
                    "{:<8} {:<6} {:<38} {:>8.4} {:>9} {:>9.3} {:>11.3}",
                    class_name(class),
                    family.token(),
                    text,
                    eff,
                    p.executed(),
                    p.tuned_ms,
                    p.default_ms,
                );
            }
        }
    }
    if let Some(err) = &status.write_error {
        eprintln!("cache write failed: {err}");
        std::process::exit(1);
    }
}

fn compare(args: &[String]) {
    let scale = scale_of(args);
    let model = model_of(args, scale);
    let profile = device_of(args);
    let samples: usize = flag(args, "--samples")
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let mut engines: Vec<Box<dyn Engine>> = vec![
        Box::new(Sod2Engine::new(
            model.graph.clone(),
            profile.clone(),
            Sod2Options::default(),
            &Default::default(),
        )),
        Box::new(OrtLike::new(model.graph.clone(), profile.clone())),
        Box::new(MnnLike::new(model.graph.clone(), profile.clone())),
        Box::new(TvmNimbleLike::new(model.graph.clone(), profile)),
    ];
    let mut rng = StdRng::seed_from_u64(42);
    let inputs: Vec<_> = (0..samples)
        .map(|_| model.sample_inputs(&mut rng).1)
        .collect();
    println!("{:<8} {:>10} {:>12}", "engine", "avg ms", "avg peak MB");
    for e in engines.iter_mut() {
        let mut lat = 0.0;
        let mut mem = 0.0;
        for i in &inputs {
            match e.infer(i) {
                Ok(run) => {
                    let s = e.price(&run);
                    lat += s.latency.total() * 1e3;
                    mem += s.peak_memory_bytes as f64 / (1024.0 * 1024.0);
                }
                Err(err) => {
                    eprintln!("{} failed: {err}", e.name());
                    std::process::exit(1);
                }
            }
        }
        println!(
            "{:<8} {:>10.2} {:>12.3}",
            e.name(),
            lat / samples as f64,
            mem / samples as f64
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fault_site_has_a_chaos_cell() {
        assert!(
            uncovered_fault_sites().is_empty(),
            "uncovered: {:?}",
            uncovered_fault_sites()
        );
    }
}
