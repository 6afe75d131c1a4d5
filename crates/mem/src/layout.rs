//! What one DMP offset plan covers at run time.
//!
//! The offset planners in this crate assign every tensor an address in one
//! linear buffer — the "linear memory space" of the paper's §4.4.1. An
//! [`ArenaLayout`] is the immutable per-bindings artifact the engine keeps
//! of such a plan: the planned size of every tensor key the plan placed,
//! the arena peak, and how many keys were sized at an upper bound. It is
//! built once per bindings value and `Arc`-shared. Its one rule,
//! [`ArenaLayout::admits`], decides whether a materialized tensor is
//! covered by the plan; tensors it does not admit are the dynamic residue
//! the plan missed, priced as per-tensor heap allocations.

use crate::life::{MemoryPlan, TensorLife};

/// The planned size of one tensor in an [`ArenaLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlannedSlot {
    /// Planned size in bytes.
    size: usize,
    /// `size` is a proven upper bound on an execution-determined (`nac`)
    /// payload rather than its exact size.
    bounded: bool,
}

/// The planned tensors of one offset plan: a slot per planned tensor key,
/// the arena peak, and how many keys the caller sized at an upper bound.
#[derive(Debug, Default)]
pub struct ArenaLayout {
    /// Dense over tensor keys; `None` for keys without a slot.
    slots: Vec<Option<PlannedSlot>>,
    peak: usize,
    bounded_keys: usize,
}

impl ArenaLayout {
    /// Records the tensors `plan` placed, each slot sized by its lifetime
    /// record; keys without an offset get no slot. `bounded` lists, in
    /// ascending order, the keys whose size is an upper bound. Its length
    /// is kept as [`ArenaLayout::bounded_keys`] whether or not each key
    /// was planned. The plan is taken as given: callers check it against
    /// `lives` (with [`verify_plan`](crate::verify_plan)) when they build
    /// it.
    pub fn new(lives: &[TensorLife], plan: &MemoryPlan, bounded: &[usize]) -> Self {
        debug_assert!(
            bounded.windows(2).all(|w| w[0] < w[1]),
            "bounded keys unsorted"
        );
        let len = lives.iter().map(|l| l.key + 1).max().unwrap_or(0);
        let mut slots = vec![None; len];
        for l in lives {
            if plan.offsets.contains_key(&l.key) {
                slots[l.key] = Some(PlannedSlot {
                    size: l.size,
                    bounded: bounded.binary_search(&l.key).is_ok(),
                });
            }
        }
        ArenaLayout {
            slots,
            peak: plan.peak,
            bounded_keys: bounded.len(),
        }
    }

    /// The planned-size rule: whether a `len`-byte payload of tensor `key`
    /// is covered by the plan. A slot admits exactly its planned size, or
    /// at most that size when the size is an upper bound; a key without a
    /// slot admits nothing.
    pub fn admits(&self, key: usize, len: usize) -> bool {
        match self.slots.get(key).copied().flatten() {
            Some(PlannedSlot {
                size,
                bounded: true,
            }) => len <= size,
            Some(PlannedSlot { size, .. }) => len == size,
            None => false,
        }
    }

    /// The plan's peak: the size in bytes of the one buffer it lays out.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Keys the caller sized at an upper bound.
    pub fn bounded_keys(&self) -> usize {
        self.bounded_keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_admit_their_planned_size_or_less_when_bounded() {
        // Key 2 has a lifetime but no offset: the plan did not place it.
        let lives = vec![
            TensorLife::new(0, 8, 0, vec![1]),
            TensorLife::new(1, 8, 0, vec![1]),
            TensorLife::new(2, 8, 0, vec![1]),
        ];
        let plan = MemoryPlan {
            offsets: [(0usize, 0usize), (1, 8)].into_iter().collect(),
            peak: 16,
        };
        let layout = ArenaLayout::new(&lives, &plan, &[1, 5]);
        assert_eq!(layout.bounded_keys(), 2, "unplanned bounded keys count");
        assert_eq!(layout.peak(), 16);
        assert!(layout.admits(0, 8), "an exact slot takes its size");
        assert!(!layout.admits(0, 4) && !layout.admits(0, 9), "and no other");
        assert!(
            layout.admits(1, 8) && layout.admits(1, 0),
            "bounded takes less"
        );
        assert!(!layout.admits(1, 9), "bounded takes no more than its bound");
        assert!(!layout.admits(2, 8), "a key without an offset has no slot");
        assert!(!layout.admits(99, 1), "a key beyond the layout has no slot");
    }
}
