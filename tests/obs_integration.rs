//! End-to-end checks of the `sod2-obs` observability layer against the real
//! pipeline: span nesting under both pool configurations, Chrome-trace
//! well-formedness, and — most importantly — that profiling is purely
//! observational (enabling it changes no numeric result).
//!
//! Every test takes `sod2_obs::session_guard()` because the collector is
//! process-global and `cargo test` runs tests on parallel threads within
//! one process.

use sod2_device::DeviceProfile;
use sod2_frameworks::{Engine, Sod2Engine, Sod2Options};
use sod2_models::{branchy_demo, codebert, ModelScale};
use sod2_obs::json::Value;
use sod2_pool::with_threads;
use sod2_prng::rngs::StdRng;
use sod2_prng::SeedableRng;
use sod2_serve::{Server, ServerConfig, TenantSpec};

/// One profiled session: compile CodeBERT (tiny) and run `iters`
/// inferences at a fixed input, pricing each inside the capture window,
/// returning the profile and the last stats.
fn profiled_run(
    threads: usize,
    iters: usize,
) -> (sod2_obs::Profile, sod2_frameworks::InferenceStats) {
    let model = codebert(ModelScale::Tiny);
    let mut rng = StdRng::seed_from_u64(7);
    let inputs = model.make_inputs(48, &mut rng);
    sod2_obs::set_enabled(true);
    sod2_obs::begin();
    let stats = with_threads(threads, || {
        let mut engine = Sod2Engine::new(
            model.graph.clone(),
            DeviceProfile::s888_cpu(),
            Sod2Options::default(),
            &Default::default(),
        );
        let mut stats = None;
        for _ in 0..iters {
            let run = engine.infer(&inputs).expect("infer");
            stats = Some(engine.price(&run));
        }
        stats.expect("at least one iter")
    });
    let profile = sod2_obs::take();
    sod2_obs::set_enabled(false);
    (profile, stats)
}

#[test]
fn spans_nest_properly_across_thread_configs() {
    let _session = sod2_obs::session_guard();
    for threads in [1usize, 4] {
        let (profile, _) = profiled_run(threads, 2);
        profile
            .check_nesting()
            .unwrap_or_else(|e| panic!("threads={threads}: bad nesting: {e}"));
        assert_eq!(profile.cat_count("compile"), 1, "threads={threads}");
        assert_eq!(profile.cat_count("infer"), 2, "threads={threads}");
        assert!(
            profile.cat_count("kernel") > 0,
            "threads={threads}: no kernel spans recorded"
        );
        assert!(
            profile.cat_count("stage") >= 5,
            "threads={threads}: expected compile stage spans (rdp/fusion/sep/...)"
        );
        // Kernel spans live strictly inside the infer spans, so their sum
        // cannot exceed the infer wall time; and they must account for the
        // bulk of it (the ISSUE acceptance bound is "within 20%" — assert a
        // looser 60% floor so a loaded CI host cannot flake the test).
        let infer_ns = profile.cat_total_ns("infer");
        let kernel_ns = profile.cat_total_ns("kernel");
        assert!(
            kernel_ns <= infer_ns,
            "threads={threads}: kernels exceed infer"
        );
        assert!(
            kernel_ns as f64 >= 0.6 * infer_ns as f64,
            "threads={threads}: kernel spans cover only {:.1}% of infer wall",
            100.0 * kernel_ns as f64 / infer_ns as f64
        );
        // Worker busy time is attributed for occupancy reporting.
        assert!(
            profile.counters.get("pool.busy_ns").copied().unwrap_or(0) > 0,
            "threads={threads}: pool busy-time counter missing"
        );
    }
}

/// Compile-time work books nothing as inference: compiling BranchyDemo
/// prunes its dead arm and verifies the pruning by running the reference
/// on both graphs, yet the capture window records no `kernel` span and no
/// `exec.*` or `mvc.version_*` counter.
#[test]
fn compile_time_work_leaves_nothing_in_inference_counters() {
    let _session = sod2_obs::session_guard();
    let model = branchy_demo(ModelScale::Tiny);
    sod2_obs::set_enabled(true);
    sod2_obs::begin();
    let engine = Sod2Engine::new(
        model.graph.clone(),
        DeviceProfile::s888_cpu(),
        Sod2Options::default(),
        &Default::default(),
    );
    let profile = sod2_obs::take();
    sod2_obs::set_enabled(false);
    assert!(engine.tape().is_some(), "BranchyDemo must lower");
    assert!(
        profile
            .counters
            .get("absint.pruned_arms")
            .copied()
            .unwrap_or(0)
            > 0,
        "compilation must prune the dead arm"
    );
    assert_eq!(
        profile.cat_count("kernel"),
        0,
        "compile time recorded kernel spans"
    );
    let leaked: Vec<&String> = profile
        .counters
        .keys()
        .filter(|k| k.starts_with("exec.") || k.starts_with("mvc.version_"))
        .collect();
    assert!(
        leaked.is_empty(),
        "compile time recorded inference counters: {leaked:?}"
    );
}

#[test]
fn chrome_trace_is_valid_json_with_monotonic_timestamps() {
    let _session = sod2_obs::session_guard();
    let (profile, _) = profiled_run(1, 2);
    let trace = profile.render_chrome_trace();
    let doc = sod2_obs::json::parse(&trace).expect("chrome trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut last_ts = f64::NEG_INFINITY;
    let mut complete = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph field");
        match ph {
            "X" => {
                let ts = ev.get("ts").and_then(Value::as_f64).expect("ts");
                let dur = ev.get("dur").and_then(Value::as_f64).expect("dur");
                assert!(ts >= last_ts, "timestamps must be monotonic");
                assert!(dur >= 0.0);
                assert!(ev.get("name").and_then(Value::as_str).is_some());
                assert!(ev.get("cat").and_then(Value::as_str).is_some());
                assert!(ev.get("tid").and_then(Value::as_f64).is_some());
                last_ts = ts;
                complete += 1;
            }
            "M" | "C" => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert_eq!(
        complete,
        profile.spans.len(),
        "every span must emit one complete event"
    );
}

#[test]
fn disabled_profiler_is_observationally_inert() {
    let _session = sod2_obs::session_guard();

    let run = || {
        let model = codebert(ModelScale::Tiny);
        let mut rng = StdRng::seed_from_u64(3);
        let inputs = model.make_inputs(32, &mut rng);
        let mut engine = Sod2Engine::new(
            model.graph.clone(),
            DeviceProfile::s888_cpu(),
            Sod2Options::default(),
            &Default::default(),
        );
        let run = engine.infer(&inputs).expect("infer");
        let stats = engine.price(&run);
        (run.outputs, stats)
    };

    sod2_obs::set_enabled(false);
    sod2_obs::begin();
    let off = run();
    let off_profile = sod2_obs::take();
    assert!(
        off_profile.spans.is_empty() && off_profile.counters.is_empty(),
        "disabled profiler must record nothing"
    );

    sod2_obs::set_enabled(true);
    sod2_obs::begin();
    let on = run();
    let on_profile = sod2_obs::take();
    sod2_obs::set_enabled(false);
    assert!(!on_profile.spans.is_empty());

    // Identical numeric results either way: profiling is read-only.
    let ((off_outputs, off), (on_outputs, on)) = (off, on);
    assert_eq!(off_outputs.len(), on_outputs.len());
    for (a, b) in off_outputs.iter().zip(&on_outputs) {
        assert_eq!(a.shape(), b.shape());
        assert_eq!(a.payload_le_bytes(), b.payload_le_bytes());
    }
    assert_eq!(off.alloc_events, on.alloc_events);
    assert_eq!(off.arena_backed, on.arena_backed);
    assert_eq!(off.peak_memory_bytes, on.peak_memory_bytes);
    assert_eq!(off.latency.total(), on.latency.total());
}

#[test]
fn profiled_metrics_are_deterministic_across_runs() {
    let _session = sod2_obs::session_guard();
    let (p1, s1) = profiled_run(1, 2);
    let (p2, s2) = profiled_run(1, 2);
    // Wallclock differs run to run; everything the CI gate consumes must not.
    assert_eq!(s1.latency.total(), s2.latency.total());
    assert_eq!(s1.peak_memory_bytes, s2.peak_memory_bytes);
    assert_eq!(s1.alloc_events, s2.alloc_events);
    assert_eq!(s1.arena_backed, s2.arena_backed);
    // Span structure is stable too: same spans in the same order.
    assert_eq!(p1.spans.len(), p2.spans.len());
    for (a, b) in p1.spans.iter().zip(&p2.spans) {
        assert_eq!((a.cat, &a.name), (b.cat, &b.name));
    }
    // Structural counters (not timing) match exactly.
    for key in ["exec.arena_backed", "pool.chunks", "pool.regions"] {
        assert_eq!(p1.counters.get(key), p2.counters.get(key), "counter {key}");
    }
}

/// The request path prices nothing: a traced `infer` records only the
/// bindings, pre-plan and execute phases and no priced counter, pricing
/// the run afterwards is a pure function of it, and a request served by
/// the real server records no pricing span on any thread.
#[test]
fn the_request_path_prices_nothing() {
    let _session = sod2_obs::session_guard();
    let model = codebert(ModelScale::Tiny);
    let inputs = model.make_inputs(32, &mut StdRng::seed_from_u64(5));
    let mut engine = Sod2Engine::new(
        model.graph.clone(),
        DeviceProfile::s888_cpu(),
        Sod2Options::default(),
        &Default::default(),
    );
    let priced_counters = |p: &sod2_obs::Profile| -> Vec<String> {
        p.counters
            .keys()
            .filter(|k| k.starts_with("exec.heap_fallback_") || *k == "exec.arena_backed")
            .cloned()
            .collect()
    };
    sod2_obs::set_enabled(true);
    sod2_obs::begin();
    let run = engine.infer(&inputs).expect("infer");
    let profile = sod2_obs::take();
    let phases: Vec<&str> = profile
        .spans
        .iter()
        .filter(|s| s.cat == "phase")
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(phases, ["bindings", "dmp_pre_plan", "execute"]);
    let leaked = priced_counters(&profile);
    assert!(
        leaked.is_empty(),
        "infer recorded priced counters: {leaked:?}"
    );

    // Pricing is a pure replay: twice over one run gives equal stats, and
    // it is where the priced counters come from.
    sod2_obs::begin();
    let first = engine.price(&run);
    let second = engine.price(&run);
    let profile = sod2_obs::take();
    assert_eq!(first, second);
    assert!(first.latency.total() > 0.0);
    assert!(priced_counters(&profile).contains(&"exec.arena_backed".to_string()));

    sod2_obs::begin();
    let server = Server::start(
        engine,
        vec![TenantSpec::new("t")],
        ServerConfig {
            replicas: 2,
            fault_injector: None,
            ..ServerConfig::default()
        },
    );
    let response = server.submit("t", inputs).expect("admitted").wait();
    let outputs = response.result.expect("served");
    server.shutdown();
    let profile = sod2_obs::take();
    sod2_obs::set_enabled(false);
    assert_eq!(outputs.len(), run.outputs.len());
    for (a, b) in outputs.iter().zip(&run.outputs) {
        assert_eq!(a.payload_le_bytes(), b.payload_le_bytes());
    }
    assert!(profile.cat_count("infer") >= 1, "the request ran no infer");
    let priced: Vec<&str> = profile
        .spans
        .iter()
        .map(|s| s.name.as_str())
        .filter(|n| matches!(*n, "dmp_post_plan" | "price_trace"))
        .collect();
    assert!(priced.is_empty(), "serving priced a request: {priced:?}");
}
