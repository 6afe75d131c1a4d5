//! Closed-loop workloads: one client calls `Sod2Engine::infer` back to
//! back, so every request starts when the previous one returns.

use crate::alloc;
use crate::workload::{bitwise_equal, shuffle, Pool};
use sod2_device::DeviceProfile;
use sod2_frameworks::{Engine, Sod2Engine, Sod2Options};
use sod2_ir::Graph;
use sod2_prng::{rngs::StdRng, SeedableRng};
use std::time::Instant;

/// Compiles one production engine: default options, the device profile
/// every zoo benchmark prices against, no representative bindings.
pub fn compile(graph: Graph) -> Sod2Engine {
    Sod2Engine::new(
        graph,
        DeviceProfile::s888_cpu(),
        Sod2Options::default(),
        &Default::default(),
    )
}

/// At least `n` requests as whole rounds over the pool, each round in a
/// seeded order: every entry runs equally often, so the mix is the same
/// for every seed.
pub fn order(pool: &Pool, n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC105_ED00);
    let len = pool.entries.len();
    let mut order = Vec::with_capacity(n.div_ceil(len) * len);
    for _ in 0..n.div_ceil(len) {
        let mut round: Vec<usize> = (0..len).collect();
        shuffle(&mut round, &mut rng);
        order.extend(round);
    }
    order
}

/// Outcome of one set-up: engines ready to serve every shape class.
pub struct Setup {
    /// One engine per pool model.
    pub engines: Vec<Sod2Engine>,
    /// Wall seconds from the first compile to the last warm-up response.
    pub seconds: f64,
    /// Warm-up requests whose output was wrong or that failed.
    pub warmup_failures: usize,
}

/// Compiles every engine the workload uses and sends one warm-up request
/// per shape class, so work moved from compile into the first inference
/// still counts as set-up. Graphs are cloned before the clock starts.
pub fn setup(pool: &Pool) -> Setup {
    let graphs: Vec<Graph> = pool.models.iter().map(|m| m.graph.clone()).collect();
    let warm = pool.class_representatives();
    let t0 = Instant::now();
    let mut engines: Vec<Sod2Engine> = graphs.into_iter().map(compile).collect();
    let mut warmup_failures = 0;
    for &e in &warm {
        let entry = &pool.entries[e];
        let ok = engines[entry.model]
            .infer(&entry.inputs)
            .is_ok_and(|s| bitwise_equal(&s.outputs, &entry.reference));
        warmup_failures += usize::from(!ok);
    }
    Setup {
        engines,
        seconds: t0.elapsed().as_secs_f64(),
        warmup_failures,
    }
}

/// One measured window of the closed loop.
pub struct Window {
    pub lat_ns: Vec<u64>,
    /// Per-request `[start, end)` on the `sod2-obs` session clock (used to
    /// attribute spans to requests in the traced window).
    pub bounds: Vec<(u64, u64)>,
    pub errors: usize,
    pub mismatches: usize,
    /// Correct responses within the workload's latency limit.
    pub good: usize,
    pub wall_s: f64,
    pub alloc: alloc::PhaseCounts,
}

/// Runs the requests `order` (pool entry indices) back to back. Nothing
/// in the loop allocates on the benchmark's behalf: latencies go into
/// preallocated buffers and outputs are compared in place.
pub fn measure(engines: &mut [Sod2Engine], pool: &Pool, order: &[usize], limit_ms: f64) -> Window {
    let n = order.len();
    let limit_ns = (limit_ms * 1e6) as u64;
    let mut lat_ns = vec![0u64; n];
    let mut bounds = vec![(0u64, 0u64); n];
    let (mut errors, mut mismatches, mut good) = (0, 0, 0);
    let counts = alloc::begin_phase();
    let t0 = Instant::now();
    for (i, &e) in order.iter().enumerate() {
        let entry = &pool.entries[e];
        let s = sod2_obs::session_ns();
        let t = Instant::now();
        let result = engines[entry.model].infer(&entry.inputs);
        let dt = t.elapsed().as_nanos() as u64;
        bounds[i] = (s, sod2_obs::session_ns());
        lat_ns[i] = dt;
        match result {
            Ok(stats) if bitwise_equal(&stats.outputs, &entry.reference) => {
                good += usize::from(dt <= limit_ns);
            }
            Ok(_) => mismatches += 1,
            Err(_) => errors += 1,
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let alloc = alloc::end_phase(counts);
    Window {
        lat_ns,
        bounds,
        errors,
        mismatches,
        good,
        wall_s,
        alloc,
    }
}
