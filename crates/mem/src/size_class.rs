//! Size-class (pooling/BFC-style) allocator model.
//!
//! Runtime engines that keep dynamic shapes without a lifetime plan (the
//! paper's ORT baseline) typically serve allocations from power-of-two
//! size-class pools: requests round up to the class size, and freed chunks
//! return to their class rather than coalescing with neighbours. The
//! resulting footprint is the sum over classes of the class size times the
//! high-water mark of simultaneously live chunks — internal fragmentation
//! plus per-class retention, with no cross-class reuse.

use crate::life::{live_bytes_by_step, TensorLife};
use std::collections::BTreeMap;

/// Peak footprint of a size-class pooling allocator over the lifetimes.
pub fn size_class_peak(lives: &[TensorLife]) -> usize {
    let class_of = |size: usize| -> u32 {
        // Round up to the next power of two (minimum 256 B chunk).
        size.max(256).next_power_of_two().trailing_zeros()
    };
    // Per class, one count sweep (each chunk weighs 1) gives the high-water
    // mark of simultaneously live chunks.
    let mut by_class: BTreeMap<u32, Vec<(usize, usize, usize)>> = BTreeMap::new();
    for l in lives {
        by_class
            .entry(class_of(l.size))
            .or_default()
            .push((l.def, l.last_use(), 1));
    }
    by_class
        .into_iter()
        .map(|(class, chunks)| {
            let count = live_bytes_by_step(chunks).into_iter().max().unwrap_or(0);
            (1usize << class) * count
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::life::peak_live_bytes;
    use crate::offset::plan_peak_first;

    #[test]
    fn rounds_up_and_retains_classes() {
        // Two 300-byte tensors overlapping: 2 chunks of 512 = 1024 > 600.
        let lives = vec![
            TensorLife::new(0, 300, 0, vec![2]),
            TensorLife::new(1, 300, 1, vec![3]),
        ];
        assert_eq!(size_class_peak(&lives), 1024);
    }

    #[test]
    fn no_cross_class_reuse() {
        // A 1 KiB tensor dies before a 2 KiB one is born; a planning
        // allocator reuses the space, a pooling allocator cannot.
        let lives = vec![
            TensorLife::new(0, 1024, 0, vec![1]),
            TensorLife::new(1, 2048, 2, vec![3]),
        ];
        let pooled = size_class_peak(&lives);
        let planned = plan_peak_first(&lives).peak;
        assert_eq!(pooled, 1024 + 2048);
        assert_eq!(planned, 2048);
        assert!(pooled > planned);
    }

    #[test]
    fn at_least_live_bytes() {
        let lives = vec![
            TensorLife::new(0, 700, 0, vec![5]),
            TensorLife::new(1, 1500, 1, vec![4]),
            TensorLife::new(2, 300, 2, vec![3]),
        ];
        assert!(size_class_peak(&lives) >= peak_live_bytes(&lives));
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(size_class_peak(&[]), 0);
    }
}
