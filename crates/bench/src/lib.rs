//! # sod2-bench — benchmark harness
//!
//! Shared machinery for the per-table / per-figure reproduction binaries in
//! `src/bin/` (see DESIGN.md §5 for the experiment index and EXPERIMENTS.md
//! for recorded results).
//!
//! Every binary accepts:
//!
//! - `--samples N` — inputs per model (default varies by experiment),
//! - `--scale tiny|full` — model scale (default `full`; `tiny` for smoke
//!   runs), also settable via the `SOD2_SCALE` environment variable,
//! - `--seed S` — RNG seed (default 42).

pub mod gate;

use sod2_device::DeviceProfile;
use sod2_frameworks::{
    Engine, InferenceStats, MnnLike, OrtLike, Sod2Engine, Sod2Options, TfLiteLike, TvmNimbleLike,
};
use sod2_models::{DynModel, ModelScale};
use sod2_prng::rngs::StdRng;
use sod2_prng::SeedableRng;
use sod2_tensor::Tensor;

/// Command-line configuration shared by the bench binaries.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Inputs sampled per model.
    pub samples: usize,
    /// Model scale.
    pub scale: ModelScale,
    /// RNG seed.
    pub seed: u64,
}

impl BenchConfig {
    /// Parses `std::env::args` with a per-experiment default sample count.
    pub fn from_args(default_samples: usize) -> Self {
        let mut cfg = BenchConfig {
            samples: default_samples,
            scale: match std::env::var("SOD2_SCALE").as_deref() {
                Ok("tiny") => ModelScale::Tiny,
                _ => ModelScale::Full,
            },
            seed: 42,
        };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--samples" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        cfg.samples = v;
                    }
                    i += 2;
                }
                "--scale" => {
                    cfg.scale = match args.get(i + 1).map(String::as_str) {
                        Some("tiny") => ModelScale::Tiny,
                        _ => ModelScale::Full,
                    };
                    i += 2;
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        cfg.seed = v;
                    }
                    i += 2;
                }
                _ => i += 1,
            }
        }
        cfg
    }

    /// A seeded RNG.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }
}

/// The engines compared in Tables 5–6, constructed for one device.
/// Order: `[SoD2, ORT, MNN, TVM-N]`.
pub fn comparison_engines(model: &DynModel, profile: &DeviceProfile) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(Sod2Engine::new(
            model.graph.clone(),
            profile.clone(),
            Sod2Options::default(),
            &Default::default(),
        )),
        Box::new(OrtLike::new(model.graph.clone(), profile.clone())),
        Box::new(MnnLike::new(model.graph.clone(), profile.clone())),
        Box::new(TvmNimbleLike::new(model.graph.clone(), profile.clone())),
    ]
}

/// A TFLite engine for the experiments that use it.
pub fn tflite_engine(model: &DynModel, profile: &DeviceProfile) -> TfLiteLike {
    TfLiteLike::new(model.graph.clone(), profile.clone())
}

/// Runs one inference and prices it on the engine's device profile.
///
/// # Panics
///
/// Panics (with the engine name) when the inference fails — bench
/// binaries treat that as a harness bug.
pub fn priced<E: Engine + ?Sized>(engine: &mut E, inputs: &[Tensor]) -> InferenceStats {
    let run = engine
        .infer(inputs)
        .unwrap_or_else(|e| panic!("{} failed: {e}", engine.name()));
    engine.price(&run)
}

/// Samples `n` model inputs (sizes vary per the model's spec).
pub fn sample_inputs(model: &DynModel, n: usize, rng: &mut StdRng) -> Vec<Vec<Tensor>> {
    (0..n).map(|_| model.sample_inputs(rng).1).collect()
}

/// Per-engine aggregate over a set of inputs.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Per-input latency seconds.
    pub latencies: Vec<f64>,
    /// Per-input peak intermediate memory bytes.
    pub memories: Vec<f64>,
}

impl Aggregate {
    /// Warms an engine with one inference per distinct input shape, then
    /// measures — the paper's Table 6 methodology: re-initialization cost
    /// is reported separately (Table 1), steady-state latency here.
    pub fn collect_warm(engine: &mut dyn Engine, inputs: &[Vec<Tensor>]) -> Aggregate {
        let mut seen = std::collections::HashSet::new();
        for ins in inputs {
            let key: Vec<Vec<usize>> = ins.iter().map(|t| t.shape().to_vec()).collect();
            if seen.insert(key) {
                let _ = engine.infer(ins);
            }
        }
        Aggregate::collect(engine, inputs)
    }

    /// Runs an engine over every input, collecting stats.
    ///
    /// # Panics
    ///
    /// Panics (with the engine name) when an inference fails — bench
    /// binaries treat that as a harness bug.
    pub fn collect(engine: &mut dyn Engine, inputs: &[Vec<Tensor>]) -> Aggregate {
        let mut agg = Aggregate::default();
        for ins in inputs {
            let stats = priced(engine, ins);
            agg.latencies.push(stats.latency.total());
            agg.memories.push(stats.peak_memory_bytes as f64);
        }
        agg
    }

    /// `(min, max)` latency in milliseconds.
    pub fn latency_min_max_ms(&self) -> (f64, f64) {
        min_max(&self.latencies, 1e3)
    }

    /// `(min, max)` memory in MB.
    pub fn memory_min_max_mb(&self) -> (f64, f64) {
        min_max(&self.memories, 1.0 / (1024.0 * 1024.0))
    }

    /// Mean latency (seconds).
    pub fn mean_latency(&self) -> f64 {
        mean(&self.latencies)
    }

    /// Mean memory (bytes).
    pub fn mean_memory(&self) -> f64 {
        mean(&self.memories)
    }
}

fn min_max(v: &[f64], scale: f64) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in v {
        lo = lo.min(x * scale);
        hi = hi.max(x * scale);
    }
    (lo, hi)
}

/// Arithmetic mean.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Geometric mean.
pub fn geo_mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        (v.iter().map(|x| x.max(1e-30).ln()).sum::<f64>() / v.len() as f64).exp()
    }
}

/// Evaluates a closure for every model on worker threads (order of the
/// returned rows matches the model order). Each worker owns its own
/// engines; the closure returns one row of results.
pub fn par_over_models<R, F>(models: Vec<DynModel>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&DynModel) -> R + Sync,
{
    let mut rows: Vec<Option<R>> = models.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, m) in models.iter().enumerate() {
            let f = &f;
            handles.push((i, scope.spawn(move || f(m))));
        }
        for (i, h) in handles {
            rows[i] = Some(h.join().expect("bench worker panicked"));
        }
    });
    rows.into_iter().map(|r| r.expect("row computed")).collect()
}

/// Formats a table row of fixed-width cells.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn engines_construct_for_tiny_models() {
        let model = sod2_models::codebert(ModelScale::Tiny);
        let engines = comparison_engines(&model, &DeviceProfile::s888_cpu());
        assert_eq!(engines.len(), 4);
    }

    #[test]
    fn aggregate_collects() {
        let model = sod2_models::codebert(ModelScale::Tiny);
        let mut rng = StdRng::seed_from_u64(1);
        let inputs = sample_inputs(&model, 2, &mut rng);
        let mut engines = comparison_engines(&model, &DeviceProfile::s888_cpu());
        let agg = Aggregate::collect(engines[0].as_mut(), &inputs);
        assert_eq!(agg.latencies.len(), 2);
        let (lo, hi) = agg.latency_min_max_ms();
        assert!(lo <= hi && lo > 0.0);
    }
}
