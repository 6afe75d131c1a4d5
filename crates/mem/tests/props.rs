//! Property tests: every planner produces sound plans within known bounds,
//! and every planner and peak query matches a brute-force reference.

use proptest::prelude::*;
use sod2_mem::{
    peak_live_bytes, peak_step, plan_best_fit, plan_exhaustive, plan_first_fit, plan_peak_first,
    plan_sod2, rematerialize, size_class_peak, verify_plan, MemoryPlan, TensorLife,
};

/// Every offset planner, the engine's (`plan_sod2`) and its first-fit
/// candidate included.
fn all_planners(lives: &[TensorLife]) -> [MemoryPlan; 4] {
    [
        plan_peak_first(lives),
        plan_best_fit(lives),
        plan_first_fit(lives),
        plan_sod2(lives),
    ]
}

fn lives_strategy(max_tensors: usize) -> impl Strategy<Value = Vec<TensorLife>> {
    proptest::collection::vec(
        (
            0usize..20,
            1usize..256,
            proptest::collection::vec(1usize..8, 0..3),
        ),
        1..=max_tensors,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(key, (def, size, gaps))| {
                let mut uses = Vec::new();
                let mut step = def;
                for g in gaps {
                    step += g;
                    uses.push(step);
                }
                TensorLife::new(key, size, def, uses)
            })
            .collect()
    })
}

proptest! {
    /// All planners produce non-overlapping assignments whose peak is at
    /// least the live-bytes lower bound and at most the no-reuse sum. For
    /// `plan_sod2` this is the guarantee the engine relies on instead of
    /// re-verifying each plan at run time.
    #[test]
    fn planners_sound_and_bounded(lives in lives_strategy(14)) {
        let lb = peak_live_bytes(&lives);
        let total: usize = lives.iter().map(|l| l.size).sum();
        for plan in all_planners(&lives) {
            prop_assert!(verify_plan(&lives, &plan).is_empty());
            prop_assert!(plan.peak >= lb, "peak {} < lower bound {lb}", plan.peak);
            prop_assert!(plan.peak <= total);
        }
        let cons = MemoryPlan::conservative(&lives);
        prop_assert!(verify_plan(&lives, &cons).is_empty());
        prop_assert_eq!(cons.peak, total);
    }

    /// The exhaustive reference is valid and no worse than either greedy.
    #[test]
    fn exhaustive_dominates(lives in lives_strategy(6)) {
        let opt = plan_exhaustive(&lives);
        prop_assert!(verify_plan(&lives, &opt).is_empty());
        prop_assert!(opt.peak <= plan_peak_first(&lives).peak);
        prop_assert!(opt.peak <= plan_best_fit(&lives).peak);
        prop_assert!(opt.peak >= peak_live_bytes(&lives));
    }

    /// Rematerialization never increases peak live bytes and accounts its
    /// recompute bytes consistently.
    #[test]
    fn remat_reduces_or_preserves(lives in lives_strategy(10), frac in 0.3f64..1.0) {
        let peak = peak_live_bytes(&lives);
        let budget = ((peak as f64) * frac) as usize;
        let plan = rematerialize(&lives, budget);
        prop_assert!(plan.achieved_peak <= peak);
        // Splitting preserves total use steps.
        let orig_uses: usize = lives.iter().map(|l| l.uses.len()).sum();
        let new_uses: usize = plan.lives.iter().map(|l| l.uses.len()).sum();
        prop_assert_eq!(orig_uses, new_uses);
    }
}

proptest! {
    /// Behavioural soundness: replay every lifetime into one plain buffer
    /// at each planner's offsets — at every use step, each live tensor's
    /// bytes must be exactly what its definition wrote (address reuse
    /// never corrupts live data).
    #[test]
    fn arena_replay_never_corrupts(lives in lives_strategy(12)) {
        for plan in all_planners(&lives) {
            let mut buf = vec![0u8; plan.peak];
            // A tensor's bytes in the buffer, `None` when it has no offset
            // or would run past the plan's peak.
            let span = |l: &TensorLife| {
                let off = plan.offsets.get(&l.key).copied();
                off.filter(|&o| o + l.size <= plan.peak).map(|o| o..o + l.size)
            };
            let max_step = lives.iter().map(|l| l.last_use()).max().unwrap_or(0);
            for step in 0..=max_step {
                // Definitions first: write a per-tensor pattern.
                for l in &lives {
                    if l.def == step {
                        let range = span(l);
                        prop_assert!(range.is_some(), "tensor {} has no slot", l.key);
                        for (i, b) in buf[range.unwrap_or_default()].iter_mut().enumerate() {
                            *b = (l.key as u8) ^ (i as u8);
                        }
                    }
                }
                // Then check every live tensor's bytes are intact.
                for l in &lives {
                    if l.def <= step && step <= l.last_use() {
                        let range = span(l);
                        prop_assert!(range.is_some(), "tensor {} has no slot", l.key);
                        for (i, &b) in buf[range.unwrap_or_default()].iter().enumerate() {
                            prop_assert_eq!(
                                b,
                                (l.key as u8) ^ (i as u8),
                                "tensor {} corrupted at byte {} (step {})",
                                l.key, i, step
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Brute-force reference of the planners and peak queries: by-key
/// placement checked against every placed tensor through hash lookups,
/// and per-step live sums and size-class counts. Slow but obviously
/// faithful; the library must match it exactly, offsets included.
mod reference {
    use sod2_mem::{MemoryPlan, TensorLife};
    use std::collections::HashMap;

    type Place = fn(&TensorLife, &HashMap<usize, TensorLife>, &HashMap<usize, usize>) -> usize;

    fn occupied(
        t: &TensorLife,
        lives: &HashMap<usize, TensorLife>,
        offsets: &HashMap<usize, usize>,
    ) -> Vec<(usize, usize)> {
        let mut occupied: Vec<(usize, usize)> = offsets
            .iter()
            .filter(|(k, _)| lives[*k].overlaps(t))
            .map(|(k, &off)| (off, off + lives[k].size))
            .collect();
        occupied.sort_unstable();
        occupied
    }

    fn first_fit(
        t: &TensorLife,
        lives: &HashMap<usize, TensorLife>,
        offsets: &HashMap<usize, usize>,
    ) -> usize {
        let mut cursor = 0usize;
        for (start, end) in occupied(t, lives, offsets) {
            if start >= cursor + t.size {
                break;
            }
            cursor = cursor.max(end);
        }
        cursor
    }

    fn best_fit(
        t: &TensorLife,
        lives: &HashMap<usize, TensorLife>,
        offsets: &HashMap<usize, usize>,
    ) -> usize {
        // Merge the occupied ranges, then take the smallest gap that fits
        // (lowest offset on ties), else the end.
        let mut merged: Vec<(usize, usize)> = Vec::new();
        for (s, e) in occupied(t, lives, offsets) {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        let mut best: Option<(usize, usize)> = None;
        let mut cursor = 0usize;
        for &(s, e) in &merged {
            if s > cursor {
                let gap = s - cursor;
                if gap >= t.size && best.map(|(g, _)| gap < g).unwrap_or(true) {
                    best = Some((gap, cursor));
                }
            }
            cursor = cursor.max(e);
        }
        best.map(|(_, off)| off).unwrap_or(cursor)
    }

    fn plan_with_order(lives: &[TensorLife], keys: &[usize], place: Place) -> MemoryPlan {
        let by_key: HashMap<usize, TensorLife> = lives.iter().map(|l| (l.key, l.clone())).collect();
        let mut offsets = HashMap::new();
        let mut peak = 0usize;
        for key in keys {
            let t = &by_key[key];
            let off = place(t, &by_key, &offsets);
            peak = peak.max(off + t.size);
            offsets.insert(*key, off);
        }
        MemoryPlan { offsets, peak }
    }

    fn live_at_each_step(lives: &[TensorLife]) -> Vec<usize> {
        let max_step = lives.iter().map(TensorLife::last_use).max().unwrap_or(0);
        (0..=max_step)
            .map(|step| {
                lives
                    .iter()
                    .filter(|l| l.live_at(step))
                    .map(|l| l.size)
                    .sum()
            })
            .collect()
    }

    pub fn peak_live_bytes(lives: &[TensorLife]) -> usize {
        live_at_each_step(lives).into_iter().max().unwrap_or(0)
    }

    pub fn peak_step(lives: &[TensorLife]) -> usize {
        let mut best = (0usize, 0usize);
        for (step, total) in live_at_each_step(lives).into_iter().enumerate() {
            if total > best.1 {
                best = (step, total);
            }
        }
        best.0
    }

    pub fn size_class_peak(lives: &[TensorLife]) -> usize {
        let class_of = |size: usize| size.max(256).next_power_of_two().trailing_zeros();
        let max_step = lives.iter().map(TensorLife::last_use).max().unwrap_or(0);
        let mut peaks: HashMap<u32, usize> = HashMap::new();
        for step in 0..=max_step {
            let mut counts: HashMap<u32, usize> = HashMap::new();
            for l in lives.iter().filter(|l| l.live_at(step)) {
                *counts.entry(class_of(l.size)).or_insert(0) += 1;
            }
            for (class, count) in counts {
                let p = peaks.entry(class).or_insert(0);
                *p = (*p).max(count);
            }
        }
        peaks.into_iter().map(|(c, n)| (1usize << c) * n).sum()
    }

    pub fn plan_peak_first(lives: &[TensorLife]) -> MemoryPlan {
        if lives.is_empty() {
            return MemoryPlan::default();
        }
        let pstep = peak_step(lives);
        let mut order: Vec<&TensorLife> = lives.iter().collect();
        order.sort_by_key(|l| {
            let at_peak = l.live_at(pstep);
            let dist = if at_peak {
                0
            } else if l.def > pstep {
                l.def - pstep
            } else {
                pstep - l.last_use()
            };
            (usize::from(!at_peak), dist, usize::MAX - l.size)
        });
        let keys: Vec<usize> = order.iter().map(|l| l.key).collect();
        plan_with_order(lives, &keys, first_fit)
    }

    fn definition_keys(lives: &[TensorLife]) -> Vec<usize> {
        let mut order: Vec<&TensorLife> = lives.iter().collect();
        order.sort_by_key(|l| (l.def, l.key));
        order.iter().map(|l| l.key).collect()
    }

    pub fn plan_first_fit(lives: &[TensorLife]) -> MemoryPlan {
        plan_with_order(lives, &definition_keys(lives), first_fit)
    }

    pub fn plan_best_fit(lives: &[TensorLife]) -> MemoryPlan {
        plan_with_order(lives, &definition_keys(lives), best_fit)
    }

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

    pub fn plan_exhaustive(lives: &[TensorLife]) -> MemoryPlan {
        fn permute(keys: &mut Vec<usize>, from: usize, visit: &mut impl FnMut(&[usize])) {
            if from == keys.len() {
                visit(keys);
                return;
            }
            for i in from..keys.len() {
                keys.swap(from, i);
                permute(keys, from + 1, visit);
                keys.swap(from, i);
            }
        }
        let mut keys: Vec<usize> = lives.iter().map(|l| l.key).collect();
        let mut best: Option<MemoryPlan> = None;
        permute(&mut keys, 0, &mut |order| {
            let plan = plan_with_order(lives, order, first_fit);
            if best.as_ref().map(|b| plan.peak < b.peak).unwrap_or(true) {
                best = Some(plan);
            }
        });
        best.unwrap_or_default()
    }
}

/// Lifetimes that stress the planners' tie and edge rules: empty `uses`,
/// uses before `def` (live at no step), zero sizes, and many tied sizes.
/// Keys are unique but run opposite to index order, so a planner that
/// confuses the two cannot pass.
fn edge_lives_strategy(max_tensors: usize) -> impl Strategy<Value = Vec<TensorLife>> {
    let size = prop_oneof![
        Just(0usize),
        1usize..4,
        Just(64usize),
        Just(256usize),
        1usize..5000,
    ];
    let uses = proptest::collection::vec(0usize..48, 0..4);
    proptest::collection::vec((0usize..40, size, uses, any::<bool>()), 0..=max_tensors).prop_map(
        |raw| {
            let n = raw.len();
            raw.into_iter()
                .enumerate()
                .map(|(i, (def, size, uses, relative))| {
                    // Relative uses give short chain-like lifetimes;
                    // absolute ones give long spans and uses before `def`.
                    let uses = if relative {
                        uses.into_iter().map(|u| def + u % 6).collect()
                    } else {
                        uses
                    };
                    TensorLife::new(3 * (n - i) + 7, size, def, uses)
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every planner and peak query equals the brute-force reference:
    /// identical offsets and peaks, not merely equally valid plans.
    #[test]
    fn planners_match_reference(lives in edge_lives_strategy(300)) {
        prop_assert_eq!(plan_peak_first(&lives), reference::plan_peak_first(&lives));
        prop_assert_eq!(plan_first_fit(&lives), reference::plan_first_fit(&lives));
        prop_assert_eq!(plan_best_fit(&lives), reference::plan_best_fit(&lives));
        prop_assert_eq!(plan_sod2(&lives), reference::plan_sod2(&lives));
        prop_assert_eq!(peak_live_bytes(&lives), reference::peak_live_bytes(&lives));
        prop_assert_eq!(peak_step(&lives), reference::peak_step(&lives));
        prop_assert_eq!(size_class_peak(&lives), reference::size_class_peak(&lives));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Small sets: the same, plus the exhaustive search.
    #[test]
    fn small_planners_match_reference(lives in edge_lives_strategy(7)) {
        prop_assert_eq!(plan_exhaustive(&lives), reference::plan_exhaustive(&lives));
        prop_assert_eq!(plan_sod2(&lives), reference::plan_sod2(&lives));
        prop_assert_eq!(peak_step(&lives), reference::peak_step(&lives));
        prop_assert_eq!(size_class_peak(&lives), reference::size_class_peak(&lives));
    }
}
