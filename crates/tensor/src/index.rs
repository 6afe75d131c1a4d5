//! Row-major index arithmetic and broadcasting iterators.

/// Row-major strides for a shape.
fn strides(shape: &[usize]) -> Vec<usize> {
    let mut s = vec![1; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * shape[i + 1];
    }
    s
}

/// Computes the broadcast output shape of two concrete shapes.
///
/// Returns `None` when the shapes are incompatible.
pub fn broadcast_output_shape(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let rank = a.len().max(b.len());
    let mut out = vec![0; rank];
    for i in 0..rank {
        let x = if i < a.len() { a[a.len() - 1 - i] } else { 1 };
        let y = if i < b.len() { b[b.len() - 1 - i] } else { 1 };
        out[rank - 1 - i] = if x == y {
            x
        } else if x == 1 {
            y
        } else if y == 1 {
            x
        } else {
            return None;
        };
    }
    Some(out)
}

/// Converts between flat offsets and multi-dimensional coordinates for one
/// shape.
#[derive(Debug, Clone)]
pub struct Indexer {
    shape: Vec<usize>,
    strides: Vec<usize>,
}

impl Indexer {
    /// Builds an indexer for a shape.
    pub fn new(shape: &[usize]) -> Self {
        Indexer {
            shape: shape.to_vec(),
            strides: strides(shape),
        }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// Flat offset of a coordinate.
    pub fn offset(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.shape.len());
        coords.iter().zip(&self.strides).map(|(c, s)| c * s).sum()
    }

    /// Coordinates of a flat offset.
    pub fn coords(&self, mut offset: usize) -> Vec<usize> {
        let mut out = vec![0; self.shape.len()];
        for (i, s) in self.strides.iter().enumerate() {
            out[i] = offset / s;
            offset %= s;
        }
        out
    }
}

/// Maps flat offsets in a broadcast output shape back to flat offsets in a
/// (possibly lower-rank, possibly size-1-dim) source shape.
#[derive(Debug, Clone)]
pub struct BroadcastIndexer {
    out_strides: Vec<usize>,
    /// Per output axis: the source stride (0 when the source broadcasts
    /// along that axis).
    src_strides: Vec<usize>,
}

impl BroadcastIndexer {
    /// Builds a mapping from `out_shape` coordinates to offsets in
    /// `src_shape` (right-aligned, NumPy rules).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the shapes are not broadcast-compatible.
    pub fn new(out_shape: &[usize], src_shape: &[usize]) -> Self {
        let out_strides = strides(out_shape);
        let src_nat = strides(src_shape);
        let rank = out_shape.len();
        let mut src_strides = vec![0; rank];
        for i in 0..src_shape.len() {
            let out_axis = rank - 1 - i;
            let src_axis = src_shape.len() - 1 - i;
            debug_assert!(
                src_shape[src_axis] == out_shape[out_axis] || src_shape[src_axis] == 1,
                "not broadcast-compatible: {src_shape:?} into {out_shape:?}"
            );
            src_strides[out_axis] = if src_shape[src_axis] == 1 {
                0
            } else {
                src_nat[src_axis]
            };
        }
        BroadcastIndexer {
            out_strides,
            src_strides,
        }
    }

    /// Source flat offset for an output flat offset.
    pub fn src_offset(&self, mut out_offset: usize) -> usize {
        let mut src = 0;
        for (os, ss) in self.out_strides.iter().zip(&self.src_strides) {
            let c = out_offset / os;
            out_offset %= os;
            src += c * ss;
        }
        src
    }
}

/// Walks a broadcast output range as contiguous runs instead of elements.
///
/// Built from an output shape and N operand shapes (right-aligned, NumPy
/// rules), the walk drops size-1 output axes and merges adjacent axes whose
/// strides chain for every operand: `[1,L,L]` against `[1]` becomes one
/// axis of L², and `[1,C,H,W]` against `[1,C,1,1]` becomes `[C, H·W]`. A
/// run is a stretch of output offsets along the innermost merged axis;
/// along it each operand's source offset advances by its
/// [`step`](Self::step), which is 0 (the operand broadcasts) or 1.
#[derive(Debug, Clone)]
pub struct RunWalk {
    /// Merged extents, outermost first; the last is the run axis.
    extents: Vec<usize>,
    /// Axis-major source strides: `strides[d * operands + k]` is operand
    /// `k`'s stride along merged axis `d` (0 when it broadcasts there).
    strides: Vec<usize>,
    operands: usize,
}

/// Scratch slots [`RunWalk::for_each_run`] keeps on the stack; a walk that
/// needs more (outer axes plus operands) takes them from the heap.
const INLINE_SCRATCH: usize = 16;

impl RunWalk {
    /// Builds the walk of `out_shape` over `operands`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when an operand is not broadcast-compatible
    /// with `out_shape`.
    pub fn new(out_shape: &[usize], operands: &[&[usize]]) -> Self {
        let n = operands.len();
        let rank = out_shape.len();
        debug_assert!(
            operands.iter().all(|s| s.len() <= rank
                && s.iter()
                    .zip(&out_shape[rank - s.len()..])
                    .all(|(&a, &o)| a == o || a == 1)),
            "not broadcast-compatible: {operands:?} into {out_shape:?}"
        );
        // Built innermost axis first, reversed at the end.
        let mut extents: Vec<usize> = Vec::with_capacity(rank.max(1));
        let mut strides: Vec<usize> = Vec::with_capacity(rank.max(1) * n);
        for d in (0..rank).rev() {
            let e = out_shape[d];
            if e == 1 {
                continue;
            }
            // Each operand's stride along output axis `d`: 0 where it
            // broadcasts, else the product of its inner dims.
            let at = strides.len();
            strides.extend(operands.iter().map(
                |shape| match (d + shape.len()).checked_sub(rank) {
                    Some(a) if shape[a] != 1 => shape[a + 1..].iter().product(),
                    _ => 0,
                },
            ));
            // Merge into the inner neighbour when every operand's stride
            // chains across the two axes.
            if let Some(inner) = extents.last_mut() {
                let (inner_strides, axis) = strides[at - n..].split_at(n);
                if axis
                    .iter()
                    .zip(inner_strides)
                    .all(|(&s, &si)| s == si * *inner)
                {
                    *inner *= e;
                    strides.truncate(at);
                    continue;
                }
            }
            extents.push(e);
        }
        if extents.is_empty() {
            // Every axis has extent 1: one run of one element at offset 0.
            extents.push(1);
            strides.resize(n, 0);
        }
        extents.reverse();
        // Reverse the axis order, keeping each axis's operand order.
        strides.reverse();
        for axis in strides.chunks_mut(n.max(1)) {
            axis.reverse();
        }
        RunWalk {
            extents,
            strides,
            operands: n,
        }
    }

    /// Operand `k`'s source step along a run: 0 or 1.
    pub fn step(&self, k: usize) -> usize {
        self.strides[(self.extents.len() - 1) * self.operands + k]
    }

    /// Calls `f(out_offset, len, src)` for each run of the output range
    /// `[start, start + len)`, in order, where `src[k]` is operand `k`'s
    /// source offset at `out_offset`.
    ///
    /// `start`'s coordinates cost one division per merged axis; after that
    /// an odometer advances them. No heap allocation is made unless the
    /// walk has more than [`INLINE_SCRATCH`] outer axes plus operands.
    pub fn for_each_run(
        &self,
        start: usize,
        len: usize,
        mut f: impl FnMut(usize, usize, &[usize]),
    ) {
        if len == 0 {
            return;
        }
        let n = self.operands;
        let outer = self.extents.len() - 1;
        let inner = self.extents[outer];
        debug_assert!(start + len <= self.extents.iter().product::<usize>());
        let mut inline = [0usize; INLINE_SCRATCH];
        let mut heap = Vec::new();
        let scratch: &mut [usize] = if outer + n <= INLINE_SCRATCH {
            &mut inline[..outer + n]
        } else {
            heap.resize(outer + n, 0);
            &mut heap
        };
        let (coords, src) = scratch.split_at_mut(outer);
        let steps = &self.strides[outer * n..];
        let mut rest = start / inner;
        let mut r = start % inner;
        for d in (0..outer).rev() {
            let e = self.extents[d];
            coords[d] = rest % e;
            rest /= e;
            for (s, &stride) in src.iter_mut().zip(&self.strides[d * n..(d + 1) * n]) {
                *s += coords[d] * stride;
            }
        }
        for (s, &step) in src.iter_mut().zip(steps) {
            *s += r * step;
        }
        let end = start + len;
        let mut pos = start;
        loop {
            let run = (inner - r).min(end - pos);
            f(pos, run, src);
            pos += run;
            if pos == end {
                return;
            }
            // The run ended its row: rewind the run axis, then carry into
            // the outer axes, innermost first.
            for (s, &step) in src.iter_mut().zip(steps) {
                *s -= r * step;
            }
            r = 0;
            for d in (0..outer).rev() {
                let axis_strides = &self.strides[d * n..(d + 1) * n];
                coords[d] += 1;
                for (s, &stride) in src.iter_mut().zip(axis_strides) {
                    *s += stride;
                }
                if coords[d] < self.extents[d] {
                    break;
                }
                coords[d] = 0;
                for (s, &stride) in src.iter_mut().zip(axis_strides) {
                    *s -= stride * self.extents[d];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every run of `walk` over `[start, start + len)`, as
    /// `(out_offset, len, src)`.
    fn runs(walk: &RunWalk, start: usize, len: usize) -> Vec<(usize, usize, Vec<usize>)> {
        let mut out = Vec::new();
        walk.for_each_run(start, len, |o, l, src| out.push((o, l, src.to_vec())));
        out
    }

    #[test]
    fn run_walk_merges_chaining_axes() {
        // [1,L,L] × [1]: one run of L², the scalar broadcasting.
        let w = RunWalk::new(&[1, 4, 4], &[&[1, 4, 4], &[1]]);
        assert_eq!((w.step(0), w.step(1)), (1, 0));
        assert_eq!(runs(&w, 0, 16), vec![(0, 16, vec![0, 0])]);
        // [1,C,H,W] × [1,C,1,1]: C runs of H·W.
        let w = RunWalk::new(&[1, 2, 3, 3], &[&[1, 2, 3, 3], &[1, 2, 1, 1]]);
        assert_eq!(
            runs(&w, 0, 18),
            vec![(0, 9, vec![0, 0]), (9, 9, vec![9, 1])]
        );
        // A range starting mid-run.
        assert_eq!(runs(&w, 7, 4), vec![(7, 2, vec![7, 0]), (9, 2, vec![9, 1])]);
    }

    #[test]
    fn run_walk_of_a_scalar_output() {
        let w = RunWalk::new(&[1, 1], &[&[], &[1]]);
        assert_eq!(runs(&w, 0, 1), vec![(0, 1, vec![0, 0])]);
        assert!(runs(&RunWalk::new(&[0, 3], &[&[3]]), 0, 0).is_empty());
    }

    #[test]
    fn run_walk_beyond_inline_scratch() {
        // 17 operands alternate full and row-broadcast shapes: the scratch
        // (1 outer axis + 17 offsets) spills to the heap.
        let shapes: Vec<&[usize]> = (0..17)
            .map(|k| if k % 2 == 0 { &[2, 3][..] } else { &[3][..] })
            .collect();
        let w = RunWalk::new(&[2, 3], &shapes);
        let got = runs(&w, 2, 3);
        let src = |row: usize, col: usize| -> Vec<usize> {
            (0..17)
                .map(|k| if k % 2 == 0 { row * 3 + col } else { col })
                .collect()
        };
        assert_eq!(got, vec![(2, 1, src(0, 2)), (3, 2, src(1, 0))]);
    }

    #[test]
    fn broadcast_shapes_concrete() {
        assert_eq!(broadcast_output_shape(&[2, 3], &[3]), Some(vec![2, 3]));
        assert_eq!(
            broadcast_output_shape(&[2, 1, 4], &[3, 1]),
            Some(vec![2, 3, 4])
        );
        assert_eq!(broadcast_output_shape(&[2], &[3]), None);
        assert_eq!(broadcast_output_shape(&[], &[3]), Some(vec![3]));
    }

    #[test]
    fn indexer_roundtrip() {
        let ix = Indexer::new(&[2, 3, 4]);
        assert_eq!(ix.numel(), 24);
        for off in 0..24 {
            let c = ix.coords(off);
            assert_eq!(ix.offset(&c), off);
        }
        assert_eq!(ix.offset(&[1, 2, 3]), 23);
    }

    #[test]
    fn broadcast_indexer_scalar() {
        let bi = BroadcastIndexer::new(&[2, 2], &[]);
        for off in 0..4 {
            assert_eq!(bi.src_offset(off), 0);
        }
    }

    #[test]
    fn broadcast_indexer_row() {
        // src [3] into out [2,3]: offsets repeat 0,1,2,0,1,2.
        let bi = BroadcastIndexer::new(&[2, 3], &[3]);
        let got: Vec<usize> = (0..6).map(|o| bi.src_offset(o)).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn broadcast_indexer_col() {
        // src [2,1] into out [2,3]: 0,0,0,1,1,1.
        let bi = BroadcastIndexer::new(&[2, 3], &[2, 1]);
        let got: Vec<usize> = (0..6).map(|o| bi.src_offset(o)).collect();
        assert_eq!(got, vec![0, 0, 0, 1, 1, 1]);
    }
}
