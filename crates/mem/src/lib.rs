//! # sod2-mem — memory allocation planning
//!
//! The paper's §4.4.1: offset-based allocation plans over tensor lifetimes.
//!
//! - [`plan_peak_first`] / [`plan_sod2`] — SoD²'s planner (start at the
//!   peak-usage location, sweep outward reusing freed slots; `plan_sod2`
//!   hardens it with a first-fit portfolio fallback),
//! - [`plan_best_fit`] — the MNN-style greedy baseline,
//! - [`plan_exhaustive`] — the small-sub-graph optimal reference,
//! - [`MemoryPlan::conservative`] — the static engines' no-reuse fallback,
//! - [`size_class_peak`] — the pooling/BFC allocator model (ORT baseline),
//! - [`rematerialize`] — the XLA-style budget-constrained policy used by
//!   the Fig. 11 TFLite comparison,
//! - [`ArenaLayout`] — what a plan covers at run time: the immutable
//!   per-bindings record of planned sizes and the arena peak, with the
//!   planned-size rule ([`ArenaLayout::admits`]).
//!
//! Plans are checked with [`verify_plan`], which returns typed
//! [`PlanViolation`]s (interval-sweep overlap detection, arena bounds,
//! optional alignment via [`verify_plan_aligned`]).
//!
//! # Examples
//!
//! ```
//! use sod2_mem::{TensorLife, plan_peak_first, verify_plan};
//!
//! // A 3-op chain: each tensor feeds the next step only.
//! let lives = vec![
//!     TensorLife::new(0, 1024, 0, vec![1]),
//!     TensorLife::new(1, 1024, 1, vec![2]),
//!     TensorLife::new(2, 1024, 2, vec![3]),
//! ];
//! let plan = plan_peak_first(&lives);
//! assert!(verify_plan(&lives, &plan).is_empty());
//! assert_eq!(plan.peak, 2048); // reuse, not 3072
//! ```

mod layout;
mod life;
mod offset;
mod remat;
mod size_class;

pub use layout::ArenaLayout;
pub use life::{
    live_bytes_by_step, peak_live_bytes, peak_step, verify_plan, verify_plan_aligned, MemoryPlan,
    PlanViolation, TensorLife,
};
pub use offset::{plan_best_fit, plan_exhaustive, plan_first_fit, plan_peak_first, plan_sod2};
pub use remat::{rematerialize, RematPlan};
pub use size_class::size_class_peak;
