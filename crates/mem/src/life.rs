//! Tensor lifetimes and plan validation.

use std::collections::{HashMap, HashSet};
use std::fmt;

/// Lifetime of one intermediate tensor over an execution order.
///
/// Steps index the chosen operator order (0-based). A tensor is *live* from
/// its defining step through its last use, inclusive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorLife {
    /// Caller-chosen identifier (e.g. a `TensorId` index).
    pub key: usize,
    /// Payload size in bytes.
    pub size: usize,
    /// Step producing the tensor.
    pub def: usize,
    /// Steps consuming the tensor (possibly empty for outputs kept alive
    /// to the end).
    pub uses: Vec<usize>,
}

impl TensorLife {
    /// Creates a lifetime record.
    pub fn new(key: usize, size: usize, def: usize, uses: Vec<usize>) -> Self {
        TensorLife {
            key,
            size,
            def,
            uses,
        }
    }

    /// Last step at which the tensor must still exist.
    pub fn last_use(&self) -> usize {
        self.uses.iter().copied().max().unwrap_or(self.def)
    }

    /// `true` when the tensor is live at `step`.
    pub fn live_at(&self, step: usize) -> bool {
        step >= self.def && step <= self.last_use()
    }

    /// `true` when two lifetimes overlap.
    pub fn overlaps(&self, other: &TensorLife) -> bool {
        self.def <= other.last_use() && other.def <= self.last_use()
    }
}

/// An offset assignment into a single linear arena.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryPlan {
    /// Byte offset per tensor key.
    pub offsets: HashMap<usize, usize>,
    /// Total arena size (peak memory) in bytes.
    pub peak: usize,
}

impl MemoryPlan {
    /// A plan giving every tensor a private slot (no reuse) — the
    /// conservative strategy of static engines.
    pub fn conservative(lives: &[TensorLife]) -> MemoryPlan {
        let mut offsets = HashMap::new();
        let mut cursor = 0usize;
        for l in lives {
            offsets.insert(l.key, cursor);
            cursor += l.size;
        }
        MemoryPlan {
            offsets,
            peak: cursor,
        }
    }
}

/// Live bytes at every step `0..=max last_use`, from one event sweep over
/// `(def, last_use, size)` intervals: each interval adds its size at `def`
/// and drops it after `last_use`. An interval with `last_use < def` is live
/// at no step (the [`TensorLife::live_at`] rule) and contributes nothing.
///
/// `O(intervals + steps)`; [`peak_live_bytes`], [`peak_step`] and the
/// wavefront planner's candidate probe all read their peaks from it.
pub fn live_bytes_by_step(
    intervals: impl IntoIterator<Item = (usize, usize, usize)>,
) -> Vec<usize> {
    // Sizes entering at each step and leaving at each step.
    let mut born: Vec<usize> = Vec::new();
    let mut freed: Vec<usize> = Vec::new();
    for (def, last, size) in intervals {
        if last < def {
            continue;
        }
        if born.len() < last + 2 {
            born.resize(last + 2, 0);
            freed.resize(last + 2, 0);
        }
        born[def] += size;
        freed[last + 1] += size;
    }
    let steps = born.len().saturating_sub(1);
    let mut live = 0usize;
    (0..steps)
        .map(|s| {
            // Every size freed here was born at an earlier step.
            live = live + born[s] - freed[s];
            live
        })
        .collect()
}

fn live_bytes_of(lives: &[TensorLife]) -> Vec<usize> {
    live_bytes_by_step(lives.iter().map(|l| (l.def, l.last_use(), l.size)))
}

/// The information-theoretic lower bound: the largest sum of sizes of
/// simultaneously live tensors over all steps.
pub fn peak_live_bytes(lives: &[TensorLife]) -> usize {
    live_bytes_of(lives).into_iter().max().unwrap_or(0)
}

/// The step at which live bytes peak (the earliest such step; step 0 when
/// nothing is ever live).
pub fn peak_step(lives: &[TensorLife]) -> usize {
    let mut best = (0usize, 0usize);
    for (step, total) in live_bytes_of(lives).into_iter().enumerate() {
        if total > best.1 {
            best = (step, total);
        }
    }
    best.0
}

/// A defect found in an offset plan by [`verify_plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanViolation {
    /// A live tensor has no offset in the plan.
    MissingOffset {
        /// Tensor key.
        key: usize,
    },
    /// A tensor's byte range extends past the declared arena peak.
    ExceedsArena {
        /// Tensor key.
        key: usize,
        /// Assigned offset.
        offset: usize,
        /// End of the byte range (`offset + size`).
        end: usize,
        /// Declared arena size.
        peak: usize,
    },
    /// Two tensors are live at the same step and share bytes.
    Overlap {
        /// First tensor key (smaller).
        a: usize,
        /// Second tensor key.
        b: usize,
        /// A step at which both are live.
        step: usize,
    },
    /// A tensor's offset is not a multiple of the required alignment.
    Misaligned {
        /// Tensor key.
        key: usize,
        /// Assigned offset.
        offset: usize,
        /// Required alignment in bytes.
        alignment: usize,
    },
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::MissingOffset { key } => {
                write!(f, "tensor {key} missing from plan")
            }
            PlanViolation::ExceedsArena {
                key,
                offset,
                end,
                peak,
            } => {
                write!(f, "tensor {key} at [{offset}, {end}) exceeds peak {peak}")
            }
            PlanViolation::Overlap { a, b, step } => {
                write!(
                    f,
                    "live tensors {a} and {b} overlap in memory at step {step}"
                )
            }
            PlanViolation::Misaligned {
                key,
                offset,
                alignment,
            } => {
                write!(
                    f,
                    "tensor {key} at offset {offset} breaks {alignment}-byte alignment"
                )
            }
        }
    }
}

/// Verifies an offset plan against the lifetimes it claims to serve:
/// every tensor is placed, fits inside the arena, and no two tensors that
/// are live at the same step share bytes.
///
/// Overlaps are found by an interval sweep over execution steps: at each
/// step the live tensors are ordered by offset and only address-adjacent
/// neighbours are compared, so densely planned graphs verify in roughly
/// `O(steps · live · log live)` instead of all-pairs.
pub fn verify_plan(lives: &[TensorLife], plan: &MemoryPlan) -> Vec<PlanViolation> {
    verify_plan_aligned(lives, plan, 1)
}

/// [`verify_plan`] plus an offset-alignment requirement (in bytes).
pub fn verify_plan_aligned(
    lives: &[TensorLife],
    plan: &MemoryPlan,
    alignment: usize,
) -> Vec<PlanViolation> {
    let mut out = Vec::new();
    let mut placed: Vec<(&TensorLife, usize)> = Vec::with_capacity(lives.len());
    for l in lives {
        let Some(&off) = plan.offsets.get(&l.key) else {
            out.push(PlanViolation::MissingOffset { key: l.key });
            continue;
        };
        if off + l.size > plan.peak {
            out.push(PlanViolation::ExceedsArena {
                key: l.key,
                offset: off,
                end: off + l.size,
                peak: plan.peak,
            });
        }
        if alignment > 1 && off % alignment != 0 {
            out.push(PlanViolation::Misaligned {
                key: l.key,
                offset: off,
                alignment,
            });
        }
        placed.push((l, off));
    }
    // Interval sweep: per step, sort the live set by offset and compare
    // address-adjacent entries only.
    let max_step = placed.iter().map(|(l, _)| l.last_use()).max().unwrap_or(0);
    let mut reported: HashSet<(usize, usize)> = HashSet::new();
    for step in 0..=max_step {
        let mut active: Vec<&(&TensorLife, usize)> = placed
            .iter()
            .filter(|(l, _)| l.size > 0 && l.live_at(step))
            .collect();
        active.sort_by_key(|(l, off)| (*off, l.key));
        // Running farthest-end: a tensor starting before the farthest end
        // seen so far collides with the tensor that produced that end.
        let mut farthest: Option<(usize, usize)> = None; // (end, key)
        for (l, off) in active {
            if let Some((end, key)) = farthest {
                if *off < end {
                    let pair = (key.min(l.key), key.max(l.key));
                    if reported.insert(pair) {
                        out.push(PlanViolation::Overlap {
                            a: pair.0,
                            b: pair.1,
                            step,
                        });
                    }
                }
            }
            let end = off + l.size;
            if farthest.map(|(e, _)| end > e).unwrap_or(true) {
                farthest = Some((end, l.key));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_queries() {
        let l = TensorLife::new(0, 16, 2, vec![4, 6]);
        assert_eq!(l.last_use(), 6);
        assert!(l.live_at(2) && l.live_at(6));
        assert!(!l.live_at(1) && !l.live_at(7));
    }

    #[test]
    fn overlap_symmetry() {
        let a = TensorLife::new(0, 1, 0, vec![3]);
        let b = TensorLife::new(1, 1, 3, vec![5]);
        let c = TensorLife::new(2, 1, 4, vec![5]);
        assert!(a.overlaps(&b) && b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn peak_lower_bound() {
        let lives = vec![
            TensorLife::new(0, 100, 0, vec![2]),
            TensorLife::new(1, 50, 1, vec![3]),
            TensorLife::new(2, 25, 3, vec![4]),
        ];
        assert_eq!(peak_live_bytes(&lives), 150);
        assert_eq!(peak_step(&lives), 1);
    }

    #[test]
    fn conservative_never_reuses() {
        let lives = vec![
            TensorLife::new(0, 100, 0, vec![1]),
            TensorLife::new(1, 100, 2, vec![3]),
        ];
        let plan = MemoryPlan::conservative(&lives);
        assert_eq!(plan.peak, 200);
        assert!(verify_plan(&lives, &plan).is_empty());
    }

    #[test]
    fn verifier_catches_overlap() {
        let lives = vec![
            TensorLife::new(0, 10, 0, vec![2]),
            TensorLife::new(1, 10, 1, vec![3]),
        ];
        let mut plan = MemoryPlan::conservative(&lives);
        plan.offsets.insert(1, 5); // collide with tensor 0
        let violations = verify_plan(&lives, &plan);
        assert!(violations
            .iter()
            .any(|v| matches!(v, PlanViolation::Overlap { a: 0, b: 1, .. })));
    }

    #[test]
    fn verifier_catches_spanning_overlap() {
        // A wide tensor spans a small one that is not address-adjacent in
        // sorted order: 0:[0,100) 1:[10,20) 2:[30,40) — 2 overlaps 0.
        let lives = vec![
            TensorLife::new(0, 100, 0, vec![3]),
            TensorLife::new(1, 10, 0, vec![3]),
            TensorLife::new(2, 10, 0, vec![3]),
        ];
        let mut plan = MemoryPlan {
            offsets: HashMap::new(),
            peak: 100,
        };
        plan.offsets.insert(0, 0);
        plan.offsets.insert(1, 10);
        plan.offsets.insert(2, 30);
        let violations = verify_plan(&lives, &plan);
        assert!(violations
            .iter()
            .any(|v| matches!(v, PlanViolation::Overlap { a: 0, b: 2, .. })));
    }

    #[test]
    fn verifier_catches_missing_and_out_of_arena() {
        let lives = vec![
            TensorLife::new(0, 10, 0, vec![1]),
            TensorLife::new(1, 10, 2, vec![3]),
        ];
        let plan = MemoryPlan {
            offsets: [(0usize, 95usize)].into_iter().collect(),
            peak: 100,
        };
        let violations = verify_plan(&lives, &plan);
        assert!(violations
            .iter()
            .any(|v| matches!(v, PlanViolation::ExceedsArena { key: 0, .. })));
        assert!(violations
            .iter()
            .any(|v| matches!(v, PlanViolation::MissingOffset { key: 1 })));
    }

    #[test]
    fn verifier_checks_alignment() {
        let lives = vec![TensorLife::new(0, 8, 0, vec![1])];
        let plan = MemoryPlan {
            offsets: [(0usize, 4usize)].into_iter().collect(),
            peak: 64,
        };
        assert!(verify_plan_aligned(&lives, &plan, 4).is_empty());
        let violations = verify_plan_aligned(&lives, &plan, 64);
        assert!(violations.iter().any(|v| matches!(
            v,
            PlanViolation::Misaligned {
                key: 0,
                offset: 4,
                alignment: 64
            }
        )));
    }
}
