//! # sod2-frameworks — SoD² and the baseline engines
//!
//! The engines the paper compares (§5.1), all running over the same kernel
//! substrate and device cost model so that measured differences isolate
//! each framework's *strategy*:
//!
//! | Engine | Strategy (per the paper) |
//! |---|---|
//! | [`Sod2Engine`] | RDP-driven fusion + static execution planning + dynamic memory planning + multi-version kernels, native control flow |
//! | [`MnnLike`] | re-initialization on every input-shape change; fused stock kernels post-init; greedy best-fit memory |
//! | [`OrtLike`] | dynamic shapes without re-init; per-tensor allocation; no fusion |
//! | [`TvmNimbleLike`] | runtime shape functions per dynamic op; allocation without reuse planning |
//! | [`TfLiteLike`] | re-initialization, plus an optional memory budget honoured by rematerialization |
//!
//! # Examples
//!
//! ```
//! use sod2_frameworks::{Engine, Sod2Engine, Sod2Options};
//! use sod2_device::DeviceProfile;
//! use sod2_models::{codebert, ModelScale};
//! use sod2_prng::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = codebert(ModelScale::Tiny);
//! let mut rng = StdRng::seed_from_u64(0);
//! let (_, inputs) = model.sample_inputs(&mut rng);
//! let mut engine = Sod2Engine::new(
//!     model.graph.clone(),
//!     DeviceProfile::s888_cpu(),
//!     Sod2Options::default(),
//!     &Default::default(),
//! );
//! let stats = engine.infer(&inputs)?;
//! assert!(stats.latency.total() > 0.0);
//! # Ok(())
//! # }
//! ```

mod baselines;
mod common;
mod sod2_engine;

pub use baselines::{MnnLike, OrtLike, TfLiteLike, TvmNimbleLike};
pub use common::{bindings_from_inputs, shape_key, Engine, InferenceStats};
pub use sod2_engine::{CostPrediction, Sod2Engine, Sod2Options, DEFAULT_PRE_PLAN_CACHE_CAP};
