//! A linear arena that serves tensors at planned offsets.
//!
//! The offset planners in this crate only *assign* addresses; the arena is
//! the runtime object that actually backs them with one allocation — the
//! "linear memory space" of the paper's §4.4.1. An [`ArenaLayout`] is the
//! immutable per-shape artifact: every planned tensor's offset and size,
//! built once and `Arc`-shared with every arena that serves it. The arena
//! owns the slot rule ([`Arena::try_slot_mut`]): a payload takes its slot
//! only when its size is the planned one, so a stale or partial layout
//! degrades to the heap instead of overrunning a neighbour.

use crate::life::{MemoryPlan, TensorLife};
use std::sync::Arc;

/// Where one planned tensor lives in an [`ArenaLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlannedSlot {
    /// Byte offset into the arena.
    offset: usize,
    /// Planned size in bytes.
    size: usize,
    /// `size` is a proven upper bound on an execution-determined (`nac`)
    /// payload rather than its exact size.
    bounded: bool,
}

impl PlannedSlot {
    /// The planned-size rule: a `len`-byte payload may take the slot when
    /// `len` is the planned size or, for a bounded slot, at most that.
    fn admits(self, len: usize) -> bool {
        if self.bounded {
            len <= self.size
        } else {
            len == self.size
        }
    }
}

/// An immutable placement of planned tensors in one linear arena: a slot
/// per planned tensor key, the arena peak, and how many keys the caller
/// sized at an upper bound.
#[derive(Debug, Default)]
pub struct ArenaLayout {
    /// Dense over tensor keys; `None` for keys without a slot.
    slots: Vec<Option<PlannedSlot>>,
    peak: usize,
    bounded_keys: usize,
}

impl ArenaLayout {
    /// Lays out `lives` at `plan`'s offsets, each slot sized by its
    /// lifetime record; keys without an offset get no slot. `bounded`
    /// lists, in ascending order, the keys whose size is an upper bound.
    /// Its length is kept as [`ArenaLayout::bounded_keys`] whether or not
    /// each key was planned. The plan is taken as given: callers check it
    /// against `lives` (with [`verify_plan`](crate::verify_plan)) when
    /// they build it.
    pub fn new(lives: &[TensorLife], plan: &MemoryPlan, bounded: &[usize]) -> Self {
        debug_assert!(
            bounded.windows(2).all(|w| w[0] < w[1]),
            "bounded keys unsorted"
        );
        let len = lives.iter().map(|l| l.key + 1).max().unwrap_or(0);
        let mut slots = vec![None; len];
        for l in lives {
            if let Some(&offset) = plan.offsets.get(&l.key) {
                slots[l.key] = Some(PlannedSlot {
                    offset,
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

    /// The slot planned for a tensor key, when it has one.
    pub(crate) fn slot(&self, key: usize) -> Option<PlannedSlot> {
        self.slots.get(key).copied().flatten()
    }

    /// Arena size in bytes (the plan's peak).
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Keys the caller sized at an upper bound.
    pub fn bounded_keys(&self) -> usize {
        self.bounded_keys
    }
}

/// A single linear buffer backing all planned tensors.
#[derive(Debug)]
pub struct Arena {
    buf: Vec<u8>,
    layout: Arc<ArenaLayout>,
}

impl Arena {
    /// Allocates the arena for a layout (one allocation of its peak).
    pub fn new(layout: Arc<ArenaLayout>) -> Self {
        Arena {
            buf: vec![0; layout.peak],
            layout,
        }
    }

    /// [`Arena::new`] through the fault-injection probe: returns `None`
    /// when an armed [`Site::ArenaAlloc`](sod2_faults::Site) rule fires,
    /// simulating slab allocation failure. Callers degrade to per-tensor
    /// heap allocation — the first rung of the arena→heap→error ladder.
    pub fn try_new(layout: Arc<ArenaLayout>) -> Option<Self> {
        if sod2_faults::probe(sod2_faults::Site::ArenaAlloc).is_some() {
            return None;
        }
        Some(Arena::new(layout))
    }

    /// [`Arena::reset`] through the fault-injection probe: `false` (arena
    /// left on its previous layout) when a slab-growth failure is injected.
    pub fn try_reset(&mut self, layout: Arc<ArenaLayout>) -> bool {
        if sod2_faults::probe(sod2_faults::Site::ArenaAlloc).is_some() {
            return false;
        }
        self.reset(layout);
        true
    }

    /// Total backing size in bytes.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Re-targets the arena at a new layout, reusing the existing buffer.
    ///
    /// The backing allocation only ever grows: a layout with a smaller
    /// peak keeps the larger buffer so repeated inferences with varying
    /// dynamic shapes settle into a steady state with no allocator traffic
    /// (the paper's rationale for a single pre-allocated linear space).
    pub fn reset(&mut self, layout: Arc<ArenaLayout>) {
        if layout.peak > self.buf.len() {
            self.buf.resize(layout.peak, 0);
        }
        self.layout = layout;
    }

    /// The bytes a `len`-byte payload of tensor `key` is to be written to,
    /// or `None` — the caller's cue to keep the tensor on the heap — when
    /// the key has no slot, its slot does not admit `len` bytes, or an
    /// armed [`Site::ArenaWrite`](sod2_faults::Site) rule fires. A slot
    /// admits exactly its planned size, or at most that size when the size
    /// is an upper bound. The probe is reached only for admitted payloads.
    pub fn try_slot_mut(&mut self, key: usize, len: usize) -> Option<&mut [u8]> {
        let slot = self.layout.slot(key).filter(|s| s.admits(len))?;
        if sod2_faults::probe(sod2_faults::Site::ArenaWrite).is_some() {
            return None;
        }
        self.buf.get_mut(slot.offset..slot.offset + len)
    }

    /// Writes a tensor's payload into its slot ([`Arena::try_slot_mut`]),
    /// returning whether it was written.
    pub fn try_write(&mut self, key: usize, payload: &[u8]) -> bool {
        match self.try_slot_mut(key, payload.len()) {
            Some(dst) => {
                dst.copy_from_slice(payload);
                true
            }
            None => false,
        }
    }

    /// Reads `len` bytes at a tensor's planned offset, or `None` when the
    /// key has no slot or the range exceeds the buffer.
    pub fn try_read(&self, key: usize, len: usize) -> Option<&[u8]> {
        let off = self.layout.slot(key)?.offset;
        self.buf.get(off..off + len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offset::plan_peak_first;

    /// A layout giving each `(key, offset, size)` its slot, none bounded.
    fn layout(slots: &[(usize, usize, usize)], peak: usize) -> Arc<ArenaLayout> {
        let lives: Vec<TensorLife> = slots
            .iter()
            .map(|&(key, _, size)| TensorLife::new(key, size, 0, vec![]))
            .collect();
        let plan = MemoryPlan {
            offsets: slots.iter().map(|&(key, off, _)| (key, off)).collect(),
            peak,
        };
        Arc::new(ArenaLayout::new(&lives, &plan, &[]))
    }

    #[test]
    fn reuse_does_not_corrupt_live_data() {
        // t0 and t2 don't overlap in time: the planner may (and does) alias
        // them; t1 overlaps both and must stay intact throughout.
        let lives = vec![
            TensorLife::new(0, 8, 0, vec![1]),
            TensorLife::new(1, 8, 0, vec![3]),
            TensorLife::new(2, 8, 2, vec![3]),
        ];
        let plan = plan_peak_first(&lives);
        assert!(plan.peak <= 16, "expected aliasing of t0 and t2");
        let mut arena = Arena::new(Arc::new(ArenaLayout::new(&lives, &plan, &[])));
        assert!(arena.try_write(0, &[0xAA; 8]));
        assert!(arena.try_write(1, &[0xBB; 8]));
        assert_eq!(arena.try_read(0, 8), Some(&[0xAA; 8][..]));
        // t0 dies; t2 is born, possibly on t0's bytes.
        assert!(arena.try_write(2, &[0xCC; 8]));
        assert_eq!(
            arena.try_read(1, 8),
            Some(&[0xBB; 8][..]),
            "live tensor corrupted"
        );
        assert_eq!(arena.try_read(2, 8), Some(&[0xCC; 8][..]));
    }

    #[test]
    fn reset_grows_but_never_shrinks() {
        let small = layout(&[(0, 0, 8)], 8);
        let big = layout(&[(0, 0, 16), (1, 16, 16)], 32);
        let mut arena = Arena::new(Arc::clone(&small));
        assert_eq!(arena.capacity(), 8);
        arena.reset(big);
        assert_eq!(arena.capacity(), 32);
        assert!(arena.try_write(1, &[0x5A; 16]));
        assert_eq!(arena.try_read(1, 16), Some(&[0x5A; 16][..]));
        // Back to the small layout: the buffer keeps its high-water size.
        arena.reset(small);
        assert_eq!(arena.capacity(), 32);
        assert!(!arena.try_write(1, &[0x5A; 16]), "key 1 left the layout");
    }

    #[test]
    fn fallible_accessors_reject_bad_requests() {
        let mut arena = Arena::new(layout(&[(7, 0, 4)], 4));
        assert!(arena.try_write(7, &[1, 2, 3, 4]));
        assert!(!arena.try_write(8, &[1]), "unplanned key must not write");
        assert!(!arena.try_write(7, &[0; 5]), "overrun must not write");
        assert_eq!(arena.try_read(7, 4), Some(&[1u8, 2, 3, 4][..]));
        assert_eq!(arena.try_read(7, 5), None);
        assert_eq!(arena.try_read(8, 1), None);
    }

    #[test]
    fn slots_admit_their_planned_size_or_less_when_bounded() {
        let lives = vec![
            TensorLife::new(0, 8, 0, vec![1]),
            TensorLife::new(1, 8, 0, vec![1]),
        ];
        let plan = MemoryPlan {
            offsets: [(0usize, 0usize), (1, 8)].into_iter().collect(),
            peak: 16,
        };
        let layout = ArenaLayout::new(&lives, &plan, &[1, 5]);
        assert_eq!(layout.bounded_keys(), 2, "unplanned bounded keys count");
        let exact = layout.slot(0).expect("slot 0");
        let bounded = layout.slot(1).expect("slot 1");
        assert_eq!((exact.offset, exact.size, exact.bounded), (0, 8, false));
        assert!(bounded.bounded);
        assert!(exact.admits(8) && !exact.admits(4) && !exact.admits(9));
        assert!(bounded.admits(8) && bounded.admits(0) && !bounded.admits(9));
        let mut arena = Arena::new(Arc::new(layout));
        assert!(!arena.try_write(0, &[1; 4]), "exact slot takes exact sizes");
        assert!(arena.try_write(1, &[2; 4]), "bounded slot takes less");
        assert_eq!(arena.try_read(1, 4), Some(&[2u8; 4][..]));
    }

    #[test]
    fn injected_alloc_failure_degrades_gracefully() {
        use sod2_faults::{FaultPlan, Site, Trigger};
        let _serial = sod2_faults::exclusive();
        let one = layout(&[(0, 0, 8)], 8);
        sod2_faults::install(FaultPlan::new(1).rule(Site::ArenaAlloc, Trigger::Nth(1), 0));
        assert!(
            Arena::try_new(Arc::clone(&one)).is_none(),
            "injected alloc must fail"
        );
        // The rule was Nth(1): the second attempt succeeds.
        let mut arena = Arena::try_new(Arc::clone(&one)).expect("post-fault alloc succeeds");
        sod2_faults::install(FaultPlan::new(1).rule(Site::ArenaAlloc, Trigger::Nth(1), 0));
        assert!(
            !arena.try_reset(Arc::clone(&one)),
            "injected reset must fail"
        );
        assert!(arena.try_reset(one), "post-fault reset succeeds");
        sod2_faults::clear();
    }

    #[test]
    fn injected_write_failure_signals_heap_fallback() {
        use sod2_faults::{FaultPlan, Site, Trigger};
        let _serial = sod2_faults::exclusive();
        let mut arena = Arena::new(layout(&[(0, 0, 8)], 8));
        sod2_faults::install(FaultPlan::new(1).rule(Site::ArenaWrite, Trigger::Nth(1), 0));
        assert!(!arena.try_write(1, &[1; 8]), "unplanned key must not write");
        assert!(!arena.try_write(0, &[1; 4]), "refused size must not write");
        // Neither refusal reached the probe: the first admitted write
        // takes the injected failure, the next one succeeds.
        assert!(!arena.try_write(0, &[1; 8]), "injected write must fail");
        assert!(arena.try_write(0, &[2; 8]), "next write succeeds");
        assert_eq!(arena.try_read(0, 8), Some(&[2u8; 8][..]));
        sod2_faults::clear();
    }
}
