//! Offset-assignment planners (paper §4.4.1).
//!
//! Three strategies matching the paper's comparison:
//!
//! - [`plan_peak_first`] — SoD²'s planner: place the tensors live at the
//!   peak-usage step first, then sweep outward in both directions reusing
//!   freed slots. The paper reports 1.05× of the exhaustive optimum on
//!   ConvNet-AIG.
//! - [`plan_best_fit`] — the MNN-style greedy: allocate in execution order
//!   into the smallest free gap that fits (1.16× optimum in the paper).
//! - [`plan_exhaustive`] — permutation search with first-fit placement,
//!   feasible for small sub-graphs; the reference "optimal" of §4.4.1.

use crate::life::{peak_step, MemoryPlan, TensorLife};
use std::collections::HashMap;

/// First-fit placement of `size` bytes against the byte ranges of the
/// already-placed tensors whose lifetimes overlap it, sorted by offset.
fn first_fit(size: usize, occupied: &[(usize, usize)]) -> usize {
    let mut cursor = 0usize;
    for &(start, end) in occupied {
        if start >= cursor + size {
            break; // gap fits
        }
        cursor = cursor.max(end);
    }
    cursor
}

/// Best-fit placement: the smallest gap that holds `size` bytes (lowest
/// offset on ties), appending at the end when no gap fits. The running
/// maximum end of the sorted ranges finds the same gaps as merging them
/// first would.
fn best_fit(size: usize, occupied: &[(usize, usize)]) -> usize {
    let mut best: Option<(usize, usize)> = None; // (gap_size, offset)
    let mut cursor = 0usize;
    for &(s, e) in occupied {
        if s > cursor {
            let gap = s - cursor;
            if gap >= size && best.map(|(g, _)| gap < g).unwrap_or(true) {
                best = Some((gap, cursor));
            }
        }
        cursor = cursor.max(e);
    }
    match best {
        Some((_, off)) => off,
        None => cursor,
    }
}

/// `(def, last_use)` per tensor, computed once per planner call.
fn spans(lives: &[TensorLife]) -> Vec<(usize, usize)> {
    // Plans are keyed by `TensorLife::key`; every caller passes unique keys
    // (`TensorId` indices).
    debug_assert!(
        {
            let mut keys: Vec<usize> = lives.iter().map(|l| l.key).collect();
            keys.sort_unstable();
            keys.windows(2).all(|w| w[0] != w[1])
        },
        "lifetime keys must be unique"
    );
    lives.iter().map(|l| (l.def, l.last_use())).collect()
}

/// Places `lives[i]` for each index `i` of `order` in turn. Each tensor is
/// checked against a flat list of placed `(def, last_use, offset, end)`
/// records; the overlapping ones, sorted, are what `place` sees.
fn plan_with_order(
    lives: &[TensorLife],
    spans: &[(usize, usize)],
    order: &[usize],
    place: fn(usize, &[(usize, usize)]) -> usize,
) -> MemoryPlan {
    let mut placed: Vec<(usize, usize, usize, usize)> = Vec::with_capacity(order.len());
    let mut occupied: Vec<(usize, usize)> = Vec::new();
    let mut offsets = HashMap::with_capacity(order.len());
    let mut peak = 0usize;
    for &i in order {
        let (def, last) = spans[i];
        let size = lives[i].size;
        occupied.clear();
        occupied.extend(
            placed
                .iter()
                .filter(|&&(d, l, _, _)| d <= last && def <= l)
                .map(|&(_, _, off, end)| (off, end)),
        );
        occupied.sort_unstable();
        let off = place(size, &occupied);
        peak = peak.max(off + size);
        offsets.insert(lives[i].key, off);
        placed.push((def, last, off, off + size));
    }
    MemoryPlan { offsets, peak }
}

/// Indices of `lives` in definition order (the execution-order greedy's
/// placement order).
fn definition_order(lives: &[TensorLife]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..lives.len()).collect();
    order.sort_by_key(|&i| (lives[i].def, lives[i].key));
    order
}

/// SoD²'s peak-first planner (paper §4.4.1): tensors live at the step of
/// peak usage are placed first (largest first), then the remaining tensors
/// in order of distance from the peak step, each with first-fit.
pub fn plan_peak_first(lives: &[TensorLife]) -> MemoryPlan {
    if lives.is_empty() {
        return MemoryPlan::default();
    }
    let pstep = peak_step(lives);
    let spans = spans(lives);
    let mut order: Vec<usize> = (0..lives.len()).collect();
    order.sort_by_key(|&i| {
        let (def, last) = spans[i];
        let at_peak = def <= pstep && pstep <= last;
        let dist = if at_peak {
            0
        } else if def > pstep {
            def - pstep
        } else {
            pstep - last
        };
        // Peak residents first (by descending size), then by distance.
        (usize::from(!at_peak), dist, usize::MAX - lives[i].size)
    });
    plan_with_order(lives, &spans, &order, first_fit)
}

/// First-fit in definition order: the classic interval-graph strategy —
/// optimal whenever tensor sizes are uniform (rolling-buffer patterns),
/// and a strong portfolio member otherwise.
pub fn plan_first_fit(lives: &[TensorLife]) -> MemoryPlan {
    plan_with_order(lives, &spans(lives), &definition_order(lives), first_fit)
}

/// SoD²'s production planner: a portfolio of the peak-first sweep, the
/// first-fit interval strategy, and the best-fit greedy — the paper's
/// §4.4.1 planner seeded at the peak location, hardened so that dynamic
/// memory planning never loses to the greedy fallback it replaces.
pub fn plan_sod2(lives: &[TensorLife]) -> MemoryPlan {
    [
        plan_peak_first(lives),
        plan_first_fit(lives),
        plan_best_fit(lives),
    ]
    .into_iter()
    .min_by_key(|p| p.peak)
    .expect("nonempty portfolio")
}

/// MNN-style greedy: allocate in execution (definition) order, choosing the
/// minimal free slot that holds the tensor (paper §4.4.1's baseline).
pub fn plan_best_fit(lives: &[TensorLife]) -> MemoryPlan {
    plan_with_order(lives, &spans(lives), &definition_order(lives), best_fit)
}

/// Exhaustive reference: tries every placement order with first-fit and
/// keeps the best. Exponential — callers must bound the tensor count.
///
/// # Panics
///
/// Panics when `lives.len() > 9` (9! ≈ 363k orders is the practical cap).
pub fn plan_exhaustive(lives: &[TensorLife]) -> MemoryPlan {
    assert!(
        lives.len() <= 9,
        "exhaustive planning is capped at 9 tensors, got {}",
        lives.len()
    );
    if lives.is_empty() {
        return MemoryPlan::default();
    }
    let spans = spans(lives);
    let mut order: Vec<usize> = (0..lives.len()).collect();
    let mut best: Option<MemoryPlan> = None;
    permute(&mut order, 0, &mut |order| {
        let plan = plan_with_order(lives, &spans, order, first_fit);
        if best.as_ref().map(|b| plan.peak < b.peak).unwrap_or(true) {
            best = Some(plan);
        }
    });
    best.unwrap_or_default()
}

fn permute(order: &mut Vec<usize>, from: usize, visit: &mut impl FnMut(&[usize])) {
    if from == order.len() {
        visit(order);
        return;
    }
    for i in from..order.len() {
        order.swap(from, i);
        permute(order, from + 1, visit);
        order.swap(from, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::life::{peak_live_bytes, verify_plan};

    fn chain(sizes: &[usize]) -> Vec<TensorLife> {
        // t[i] defined at step i, used at step i+1 (a simple op chain).
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| TensorLife::new(i, s, i, vec![i + 1]))
            .collect()
    }

    #[test]
    fn chain_reuses_memory() {
        let lives = chain(&[100, 100, 100, 100]);
        let plan = plan_peak_first(&lives);
        assert!(verify_plan(&lives, &plan).is_empty());
        // Adjacent tensors overlap pairwise: peak = 200, far below 400.
        assert_eq!(plan.peak, 200);
        let bf = plan_best_fit(&lives);
        assert!(verify_plan(&lives, &bf).is_empty());
        assert_eq!(bf.peak, 200);
    }

    #[test]
    fn peak_first_at_least_lower_bound() {
        let lives = vec![
            TensorLife::new(0, 64, 0, vec![1, 5]),
            TensorLife::new(1, 32, 1, vec![2]),
            TensorLife::new(2, 128, 2, vec![3]),
            TensorLife::new(3, 32, 3, vec![4]),
            TensorLife::new(4, 64, 4, vec![5]),
            TensorLife::new(5, 16, 5, vec![6]),
        ];
        let lb = peak_live_bytes(&lives);
        let plan = plan_peak_first(&lives);
        assert!(verify_plan(&lives, &plan).is_empty());
        assert!(plan.peak >= lb);
        // And beats conservative.
        assert!(plan.peak < lives.iter().map(|l| l.size).sum());
    }

    #[test]
    fn exhaustive_is_no_worse() {
        let lives = vec![
            TensorLife::new(0, 60, 0, vec![2]),
            TensorLife::new(1, 40, 1, vec![3]),
            TensorLife::new(2, 100, 2, vec![4]),
            TensorLife::new(3, 30, 3, vec![5]),
            TensorLife::new(4, 70, 4, vec![5]),
        ];
        let opt = plan_exhaustive(&lives);
        let pf = plan_peak_first(&lives);
        let bf = plan_best_fit(&lives);
        assert!(verify_plan(&lives, &opt).is_empty());
        assert!(opt.peak <= pf.peak);
        assert!(opt.peak <= bf.peak);
    }

    #[test]
    #[should_panic(expected = "capped at 9")]
    fn exhaustive_bounds_input() {
        let lives = chain(&[1; 12]);
        let _ = plan_exhaustive(&lives);
    }

    #[test]
    fn empty_plans() {
        assert_eq!(plan_peak_first(&[]).peak, 0);
        assert_eq!(plan_best_fit(&[]).peak, 0);
        assert_eq!(plan_exhaustive(&[]).peak, 0);
    }
}
