//! Execution traces and their pricing on device profiles.
//!
//! Every engine produces a trace of priceable events; the device cost model
//! converts it to latency. This separation lets SoD² and the baseline
//! engines run the *same kernels* while differing — exactly as the paper's
//! systems do — in strategy overheads: allocations, re-initialization
//! phases, shape functions, and dead-branch execution.

use sod2_device::{price_alloc, price_kernel, DeviceProfile, OpCost};

/// One priceable event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A kernel (possibly a fused group) execution.
    Kernel {
        /// Display name (op mnemonic or fused-group label).
        name: String,
        /// Aggregate resource footprint.
        cost: OpCost,
        /// Kernel efficiency (fraction of device peak); `None` uses the
        /// profile's untuned baseline efficiency.
        efficiency: Option<f64>,
        /// Live working-set bytes at execution time (cache modeling).
        working_set: usize,
        /// Operators fused into this kernel.
        fused_ops: usize,
        /// Fusion-group id the kernel belongs to — lets schedulers
        /// attribute priced events back to schedulable units.
        group: usize,
    },
    /// A dynamic memory allocation.
    Alloc {
        /// Allocation size.
        bytes: usize,
    },
    /// A runtime shape-function evaluation (TVM/Nimble strategy).
    ShapeFunc,
    /// Re-initialization phases on input-shape change (MNN/TFLite
    /// strategy): seconds already priced by the engine.
    Reinit {
        /// Shape propagation + layout selection seconds.
        sl: f64,
        /// Schedule/tuning seconds.
        st: f64,
        /// Allocation seconds.
        alloc: f64,
    },
}

/// A priced breakdown of one inference.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyBreakdown {
    /// Kernel compute/memory seconds.
    pub kernels: f64,
    /// Dynamic allocation seconds.
    pub allocs: f64,
    /// Shape-function seconds.
    pub shape_funcs: f64,
    /// Re-initialization seconds (SL + ST + Alloc phases).
    pub reinit: f64,
}

impl LatencyBreakdown {
    /// Total seconds.
    pub fn total(&self) -> f64 {
        self.kernels + self.allocs + self.shape_funcs + self.reinit
    }
}

impl std::fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3} ms (kernels {:.3}, allocs {:.3}, shape-funcs {:.3}, init {:.3})",
            self.total() * 1e3,
            self.kernels * 1e3,
            self.allocs * 1e3,
            self.shape_funcs * 1e3,
            self.reinit * 1e3
        )
    }
}

/// An execution trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionTrace {
    /// The events, in execution order.
    pub events: Vec<TraceEvent>,
}

impl ExecutionTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        ExecutionTrace::default()
    }

    /// Appends an event.
    pub fn push(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    /// Appends all events of another trace.
    pub fn extend(&mut self, other: ExecutionTrace) {
        self.events.extend(other.events);
    }

    /// Prices the trace on a device profile.
    pub fn price(&self, profile: &DeviceProfile) -> LatencyBreakdown {
        let mut out = LatencyBreakdown::default();
        for e in &self.events {
            match e {
                TraceEvent::Kernel {
                    cost,
                    efficiency,
                    working_set,
                    ..
                } => {
                    let eff = efficiency.unwrap_or(profile.base_efficiency);
                    out.kernels += price_kernel(profile, cost, eff, *working_set);
                }
                TraceEvent::Alloc { bytes } => out.allocs += price_alloc(profile, *bytes),
                TraceEvent::ShapeFunc => out.shape_funcs += profile.shape_func_cost,
                TraceEvent::Reinit { sl, st, alloc } => out.reinit += sl + st + alloc,
            }
        }
        out
    }

    /// Number of kernel events.
    pub fn kernel_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Kernel { .. }))
            .count()
    }

    /// Number of allocation events.
    pub fn alloc_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Alloc { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pricing_sums_components() {
        let p = DeviceProfile::s888_cpu();
        let mut t = ExecutionTrace::new();
        t.push(TraceEvent::Kernel {
            name: "MatMul".into(),
            cost: OpCost {
                flops: 1e9,
                bytes_read: 1e6,
                bytes_written: 1e6,
            },
            efficiency: Some(0.5),
            working_set: 1 << 22,
            fused_ops: 1,
            group: 0,
        });
        t.push(TraceEvent::Alloc { bytes: 1 << 20 });
        t.push(TraceEvent::ShapeFunc);
        t.push(TraceEvent::Reinit {
            sl: 0.001,
            st: 0.002,
            alloc: 0.003,
        });
        let b = t.price(&p);
        assert!(b.kernels > 0.0);
        assert!(b.allocs > 0.0);
        assert!((b.shape_funcs - p.shape_func_cost).abs() < 1e-12);
        assert!((b.reinit - 0.006).abs() < 1e-12);
        assert!((b.total() - (b.kernels + b.allocs + b.shape_funcs + b.reinit)).abs() < 1e-15);
        assert_eq!(t.kernel_count(), 1);
        assert_eq!(t.alloc_count(), 1);
    }
}
