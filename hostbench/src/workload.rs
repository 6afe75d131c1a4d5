//! Workload definitions, the seeded input pool, and the reference outputs
//! every response is checked against.

use sod2_models::{model_by_name, DynModel, ModelScale};
use sod2_prng::{rngs::StdRng, Rng, SeedableRng};
use sod2_runtime::ExecConfig;
use sod2_tensor::{Data, Tensor};

/// The three workloads. Each stresses a different layer of the stack, so
/// a change to one layer has a workload that exercises it and one that
/// should not move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over short sequences: per-inference engine work (DMP,
    /// dispatch, allocation) dominates kernel time.
    ShortSeq,
    /// Closed loop over large images: kernel time on the 2-wide pool
    /// dominates, and per-input gates vary which branches run.
    LargeImage,
    /// Open loop against the real server: queueing, shape-class batching,
    /// and replicas competing for the cores.
    ServeOpen,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "short-seq" => Some(Workload::ShortSeq),
            "large-image" => Some(Workload::LargeImage),
            "serve-open" => Some(Workload::ServeOpen),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ShortSeq => "short-seq",
            Workload::LargeImage => "large-image",
            Workload::ServeOpen => "serve-open",
        }
    }

    /// `(model name fragment, primary sizes)`: every size is one shape
    /// class of that model.
    pub fn classes(self) -> &'static [(&'static str, &'static [usize])] {
        match self {
            Workload::ShortSeq => &[
                ("codebert", &[16, 32]),
                ("conformer", &[16, 32]),
                ("segmentanything", &[16, 24]),
            ],
            Workload::LargeImage => &[
                ("skipnet", &[56, 64]),
                ("blockdrop", &[56, 64]),
                ("convnet-aig", &[56, 64]),
                ("dgnet", &[32]),
                ("yolo", &[48, 64]),
                ("stablediffusion", &[32, 40]),
            ],
            Workload::ServeOpen => &[("codebert", &[16, 32, 48, 64, 80, 96])],
        }
    }

    /// `sod2-pool` width: 2 for the closed loops (the host's cores), 1 per
    /// replica when two replicas share those cores.
    pub fn pool_width(self) -> usize {
        match self {
            Workload::ShortSeq | Workload::LargeImage => 2,
            Workload::ServeOpen => 1,
        }
    }

    /// Latency limit for `goodput_rps`.
    pub fn latency_limit_ms(self) -> f64 {
        match self {
            Workload::ShortSeq | Workload::ServeOpen => 200.0,
            Workload::LargeImage => 500.0,
        }
    }
}

/// Distinct seeded inputs per shape class: enough that per-input gate
/// decisions average out across seeds.
pub const INPUTS_PER_CLASS: usize = 4;

/// One pool entry: inputs of one shape class and their reference outputs.
pub struct Entry {
    /// Index into [`Pool::models`].
    pub model: usize,
    /// Index into [`Pool::class_names`].
    pub class: usize,
    pub inputs: Vec<Tensor>,
    pub reference: Vec<Tensor>,
}

/// The workload's models, shape classes and generated inputs.
pub struct Pool {
    pub models: Vec<DynModel>,
    /// `"<model>@<size>"`, one per shape class.
    pub class_names: Vec<String>,
    pub entries: Vec<Entry>,
    /// Wall seconds spent computing reference outputs (not part of setup).
    pub reference_s: f64,
}

impl Pool {
    /// Builds the input pool from `seed` and computes each entry's
    /// reference with the plain interpreter over the unoptimized graph —
    /// independent of everything the engine compiles.
    pub fn build(workload: Workload, seed: u64) -> Result<Pool, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut models = Vec::new();
        let mut class_names = Vec::new();
        let mut entries = Vec::new();
        let t0 = std::time::Instant::now();
        for &(name, sizes) in workload.classes() {
            let model = model_by_name(name, ModelScale::Full)
                .ok_or_else(|| format!("no zoo model matches {name:?}"))?;
            let m = models.len();
            for &size in sizes {
                if model.round_size(size) != size {
                    return Err(format!("{} has no shape class at size {size}", model.name));
                }
                let class = class_names.len();
                class_names.push(format!("{}@{size}", model.name));
                for _ in 0..INPUTS_PER_CLASS {
                    let inputs = model.make_inputs(size, &mut rng);
                    let reference =
                        sod2_runtime::execute(&model.graph, &inputs, &ExecConfig::default())
                            .map_err(|e| format!("reference run of {}: {e:?}", model.name))?
                            .outputs;
                    entries.push(Entry {
                        model: m,
                        class,
                        inputs,
                        reference,
                    });
                }
            }
            models.push(model);
        }
        Ok(Pool {
            models,
            class_names,
            entries,
            reference_s: t0.elapsed().as_secs_f64(),
        })
    }

    /// The first entry of every shape class (the warm-up requests).
    pub fn class_representatives(&self) -> Vec<usize> {
        (0..self.class_names.len())
            .map(|c| {
                self.entries
                    .iter()
                    .position(|e| e.class == c)
                    .expect("every class has entries")
            })
            .collect()
    }
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Bitwise equality of two output lists, without allocating (floats are
/// compared by bit pattern, so `-0.0 != 0.0` and equal NaNs match).
pub fn bitwise_equal(got: &[Tensor], want: &[Tensor]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(a, b)| {
            a.shape() == b.shape()
                && match (a.data(), b.data()) {
                    (Data::F32(x), Data::F32(y)) => {
                        x.len() == y.len()
                            && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
                    }
                    (Data::I64(x), Data::I64(y)) => x == y,
                    (Data::Bool(x), Data::Bool(y)) => x == y,
                    (Data::U8(x), Data::U8(y)) => x == y,
                    _ => false,
                }
        })
}
