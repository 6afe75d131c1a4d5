//! Per-operator numeric transfer metadata for abstract interpretation.
//!
//! `sod2-analysis`' value-range lattice needs, for every scalar kernel, a
//! *sound* image of an input interval: every value the f32 kernel can
//! produce from inputs inside `[lo, hi]` must land inside the returned
//! interval, and `nonfinite` must be `true` whenever the kernel can turn
//! finite inputs into NaN/∞ (domain violations, overflow, poles). Keeping
//! this metadata next to the kernels — and property-testing it against
//! them in this crate — is what makes the downstream certificates
//! trustworthy: a kernel change that shifts numeric behavior fails here,
//! not in a model.
//!
//! Interval endpoints are evaluated in f64 and widened outward by a slack
//! that covers f32 rounding (including cancellation in sums, which rounds
//! relative to the *operand* magnitudes, not the result). Any bound beyond
//! [`F32_SAT`] is treated as a possible f32 overflow: the bound becomes
//! infinite and the result is flagged `nonfinite`.

use sod2_ir::{BinaryOp, CompareOp, UnaryOp};

/// Magnitude beyond which an f64 bound may correspond to an f32 overflow
/// (kept well under `f32::MAX` so accumulated rounding cannot sneak past).
pub const F32_SAT: f64 = 1.0e37;

/// Relative slack covering a single f32 operation's rounding, and the
/// error of `math::exp`/`math::tanh` (at most `math::MAX_ULP` ulp, each at
/// most `f32::EPSILON` relative; asserted below).
const REL_SLACK: f64 = 1e-5;

/// Absolute slack floor (denormals, zero-crossing results).
const ABS_SLACK: f64 = 1e-9;

/// A sound interval image: finite kernel outputs lie in `[lo, hi]`;
/// `nonfinite` is set when NaN/∞ outputs are possible from in-interval
/// inputs. An *empty* image (no finite outputs possible) has `lo > hi`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumRange {
    /// Lower bound on finite outputs.
    pub lo: f64,
    /// Upper bound on finite outputs.
    pub hi: f64,
    /// The kernel may produce NaN or ±∞ from inputs in the given range.
    pub nonfinite: bool,
}

impl NumRange {
    /// The empty image (no finite outputs).
    pub fn empty(nonfinite: bool) -> Self {
        NumRange {
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            nonfinite,
        }
    }

    /// `true` when no finite output is possible.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }
}

/// How a unary scalar function's image over an interval is bounded — the
/// per-op metadata driving [`unary_interval`].
#[derive(Debug, Clone, Copy)]
pub enum UnaryShape {
    /// Monotone (either direction): the image hull is the hull of the two
    /// endpoint images.
    Monotone,
    /// Even reflection at 0 (`Abs`): image is `[0 or min-endpoint, max |e|]`.
    AbsLike,
    /// One interior minimum bounded below by the given value, no interior
    /// maximum (Gelu, Silu, HardSwish): endpoint hull extended down to it.
    DipMin(f64),
    /// Image always inside fixed bounds regardless of input (Sin, Cos).
    Bounded(f64, f64),
    /// Decreasing on each side of a pole at 0 (`Reciprocal`).
    Pole,
}

/// Static numeric profile of a unary kernel.
#[derive(Clone, Copy)]
pub struct UnaryProfile {
    /// f64 widening of the f32 scalar kernel (mimicking its overflow
    /// behavior where the f32 version diverges from the math, e.g.
    /// `Softplus` overflowing at ~88).
    pub map: fn(f64) -> f64,
    /// Image-bounding strategy.
    pub shape: UnaryShape,
    /// Mathematical output bounds to intersect with (e.g. Sigmoid `[0,1]`).
    pub clamp: Option<(f64, f64)>,
    /// Inputs below this produce NaN/−∞ (`Log`, `Sqrt` at 0).
    pub domain_min: Option<f64>,
    /// Sound lower bound for the image of the smallest *valid* f32 inputs,
    /// used when the input range dips below `domain_min` (Log of the
    /// smallest positive subnormal ≈ −103.3).
    pub domain_edge_lo: f64,
    /// The kernel's output for a NaN input, when it is *not* NaN. `Relu`
    /// is `v.max(0.0)` and `f32::max` ignores NaN, so `Relu(NaN) = 0`;
    /// `Sign`'s comparisons are all false on NaN, so `Sign(NaN) = 0`.
    /// Such kernels launder NaN into a finite value the plain interval
    /// image misses.
    pub nan_image: Option<f64>,
}

/// The numeric profile of a [`UnaryOp`] (see [`UnaryProfile`]).
pub fn unary_profile(op: UnaryOp) -> UnaryProfile {
    use UnaryOp::*;
    let mut p = UnaryProfile {
        map: |v| v,
        shape: UnaryShape::Monotone,
        clamp: None,
        domain_min: None,
        domain_edge_lo: f64::NEG_INFINITY,
        nan_image: None,
    };
    match op {
        Relu => {
            p.map = |v| v.max(0.0);
            p.clamp = Some((0.0, f64::INFINITY));
            p.nan_image = Some(0.0);
        }
        LeakyRelu => p.map = |v| if v >= 0.0 { v } else { 0.01 * v },
        Sigmoid => {
            p.map = |v| 1.0 / (1.0 + (-v).exp());
            p.clamp = Some((0.0, 1.0));
        }
        Tanh => {
            p.map = f64::tanh;
            p.clamp = Some((-1.0, 1.0));
        }
        Gelu => {
            p.map = |v| {
                0.5 * v
                    * (1.0
                        + ((2.0f64 / std::f64::consts::PI).sqrt() * (v + 0.044_715 * v * v * v))
                            .tanh())
            };
            p.shape = UnaryShape::DipMin(-0.2);
        }
        Erf => {
            p.map = |v| erf_f64(v);
            p.clamp = Some((-1.001, 1.001));
        }
        Exp => {
            p.map = f64::exp;
            p.clamp = Some((0.0, f64::INFINITY));
        }
        Log => {
            p.map = f64::ln;
            p.domain_min = Some(0.0);
            p.domain_edge_lo = -104.0;
        }
        Sqrt => {
            p.map = f64::sqrt;
            p.domain_min = Some(0.0);
            p.domain_edge_lo = 0.0;
            p.clamp = Some((0.0, f64::INFINITY));
        }
        Neg => p.map = |v| -v,
        Abs => {
            p.map = f64::abs;
            p.shape = UnaryShape::AbsLike;
            p.clamp = Some((0.0, f64::INFINITY));
        }
        Round => p.map = |v| v.round_ties_even(),
        Floor => p.map = f64::floor,
        Ceil => p.map = f64::ceil,
        Softplus => {
            // f32 kernel overflows to ∞ once e^x does (x ≳ 88.7).
            p.map = |v| {
                if v >= 88.0 {
                    f64::INFINITY
                } else {
                    (1.0 + v.exp()).ln()
                }
            };
            p.clamp = Some((0.0, f64::INFINITY));
        }
        Silu => {
            p.map = |v| v / (1.0 + (-v).exp());
            p.shape = UnaryShape::DipMin(-0.3);
        }
        HardSigmoid => {
            p.map = |v| (v / 6.0 + 0.5).clamp(0.0, 1.0);
            p.clamp = Some((0.0, 1.0));
        }
        HardSwish => {
            p.map = |v| v * (v / 6.0 + 0.5).clamp(0.0, 1.0);
            p.shape = UnaryShape::DipMin(-0.4);
        }
        Elu => {
            p.map = |v| if v >= 0.0 { v } else { v.exp_m1() };
            p.clamp = Some((-1.0, f64::INFINITY));
        }
        Selu => {
            p.map = |v| {
                const ALPHA: f64 = 1.673_263_2;
                const SCALE: f64 = 1.050_701;
                if v >= 0.0 {
                    SCALE * v
                } else {
                    SCALE * ALPHA * v.exp_m1()
                }
            };
            p.clamp = Some((-1.76, f64::INFINITY));
        }
        Sign => {
            p.map = |v| {
                if v > 0.0 {
                    1.0
                } else if v < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            };
            p.clamp = Some((-1.0, 1.0));
            p.nan_image = Some(0.0);
        }
        Reciprocal => {
            p.map = |v| 1.0 / v;
            p.shape = UnaryShape::Pole;
        }
        Sin => {
            p.map = f64::sin;
            p.shape = UnaryShape::Bounded(-1.0, 1.0);
            p.clamp = Some((-1.0, 1.0));
        }
        Cos => {
            p.map = f64::cos;
            p.shape = UnaryShape::Bounded(-1.0, 1.0);
            p.clamp = Some((-1.0, 1.0));
        }
    }
    p
}

/// Same Abramowitz–Stegun approximation the f32 kernel uses, in f64, so
/// profile and kernel agree to f32 rounding.
fn erf_f64(x: f64) -> f64 {
    let sign = x.signum();
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Widens `[lo, hi]` outward by f32-rounding slack scaled to `scale`, then
/// saturates bounds beyond [`F32_SAT`] to ±∞ (flagging `nonfinite`). NaN
/// bounds (e.g. from `∞ · 0` corner products) also flag `nonfinite` and
/// drop to the full range.
pub fn finalize(lo: f64, hi: f64, scale: f64, mut nonfinite: bool) -> NumRange {
    if lo.is_nan() || hi.is_nan() {
        return NumRange {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            nonfinite: true,
        };
    }
    if lo > hi {
        return NumRange::empty(nonfinite);
    }
    let pad = ABS_SLACK + REL_SLACK * scale.abs().max(lo.abs()).max(hi.abs());
    let mut lo = lo - pad;
    let mut hi = hi + pad;
    if lo < -F32_SAT {
        lo = f64::NEG_INFINITY;
        nonfinite = true;
    }
    if hi > F32_SAT {
        hi = f64::INFINITY;
        nonfinite = true;
    }
    NumRange { lo, hi, nonfinite }
}

/// Sound image of `[lo, hi]` under a unary f32 kernel. `tainted` marks
/// inputs that may already be NaN/∞ (propagated to the output flag).
pub fn unary_interval(op: UnaryOp, lo: f64, hi: f64, tainted: bool) -> NumRange {
    let p = unary_profile(op);
    if lo > hi {
        // Empty input: no finite input values (∞ inputs always widen the
        // interval's endpoints, so an empty tainted interval is all-NaN).
        // NaN-laundering kernels still emit their finite NaN image.
        return match p.nan_image {
            Some(v) if tainted => finalize(v, v, 0.0, tainted),
            _ => NumRange::empty(tainted),
        };
    }
    let mut nonfinite = tainted;
    let (mut lo, hi) = (lo, hi);
    // Domain clipping: inputs below the domain edge produce NaN/−∞.
    if let Some(dmin) = p.domain_min {
        if lo < dmin {
            nonfinite = true;
            if hi < dmin {
                return NumRange::empty(true);
            }
            lo = dmin;
        }
    }
    let f = p.map;
    let (mut out_lo, mut out_hi) = match p.shape {
        UnaryShape::Monotone => {
            let (a, b) = (f(lo), f(hi));
            (a.min(b), a.max(b))
        }
        UnaryShape::AbsLike => {
            let m = lo.abs().max(hi.abs());
            let l = if lo <= 0.0 && hi >= 0.0 {
                0.0
            } else {
                lo.abs().min(hi.abs())
            };
            (l, m)
        }
        UnaryShape::DipMin(dip) => {
            let (a, b) = (f(lo), f(hi));
            (a.min(b).min(dip), a.max(b))
        }
        UnaryShape::Bounded(a, b) => (a, b),
        UnaryShape::Pole => {
            if lo > 0.0 || hi < 0.0 {
                let (a, b) = (f(lo), f(hi));
                (a.min(b), a.max(b))
            } else {
                // Pole inside the range: 1/0 = ±∞.
                nonfinite = true;
                (f64::NEG_INFINITY, f64::INFINITY)
            }
        }
    };
    // The image of the clipped-away domain edge.
    if p.domain_min.is_some() && nonfinite {
        out_lo = out_lo.min(p.domain_edge_lo);
    }
    if let Some((clo, chi)) = p.clamp {
        out_lo = out_lo.max(clo);
        out_hi = out_hi.min(chi);
    }
    // A NaN lane in a tainted input comes out as the kernel's NaN image.
    if tainted {
        if let Some(v) = p.nan_image {
            out_lo = out_lo.min(v);
            out_hi = out_hi.max(v);
        }
    }
    let scale = out_lo.abs().max(out_hi.abs());
    let scale = if scale.is_finite() { scale } else { 0.0 };
    finalize(out_lo, out_hi, scale, nonfinite)
}

/// Sound image of `[alo, ahi] op [blo, bhi]` under an f32 binary kernel.
pub fn binary_interval_f32(
    op: BinaryOp,
    alo: f64,
    ahi: f64,
    blo: f64,
    bhi: f64,
    tainted: bool,
) -> NumRange {
    let (a_empty, b_empty) = (alo > ahi, blo > bhi);
    if a_empty || b_empty {
        // `f32::min`/`f32::max` ignore a NaN operand, so an all-NaN side
        // passes the live side's values through untouched. Every other
        // kernel propagates NaN.
        return match op {
            BinaryOp::Min | BinaryOp::Max if !(a_empty && b_empty) => {
                let (lo, hi) = if a_empty { (blo, bhi) } else { (alo, ahi) };
                finalize(lo, hi, 0.0, tainted)
            }
            _ => NumRange::empty(tainted),
        };
    }
    let ma = alo.abs().max(ahi.abs());
    let mb = blo.abs().max(bhi.abs());
    let corner = |f: fn(f64, f64) -> f64| {
        let c = [f(alo, blo), f(alo, bhi), f(ahi, blo), f(ahi, bhi)];
        let lo = c.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = c.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    match op {
        BinaryOp::Add => {
            // Cancellation rounds relative to operand magnitudes.
            finalize(alo + blo, ahi + bhi, ma + mb, tainted)
        }
        BinaryOp::Sub => finalize(alo - bhi, ahi - blo, ma + mb, tainted),
        BinaryOp::Mul => {
            let (lo, hi) = corner(|x, y| x * y);
            finalize(lo, hi, ma * mb, tainted)
        }
        BinaryOp::Div => {
            if blo <= 0.0 && bhi >= 0.0 {
                // Pole in the denominator: x/0 = ±∞ (or NaN at 0/0).
                NumRange {
                    lo: f64::NEG_INFINITY,
                    hi: f64::INFINITY,
                    nonfinite: true,
                }
            } else {
                let (lo, hi) = corner(|x, y| x / y);
                finalize(lo, hi, lo.abs().max(hi.abs()), tainted)
            }
        }
        BinaryOp::Pow => {
            if alo < 0.0 {
                // Negative base with a non-integer exponent is NaN in powf;
                // integer exponents can produce anything in ±|a|^|b|.
                NumRange {
                    lo: f64::NEG_INFINITY,
                    hi: f64::INFINITY,
                    nonfinite: true,
                }
            } else {
                // Base ≥ 0: x^y = e^(y ln x) is monotone in each argument
                // over a sign-fixed region of (y, ln x), so corners bound it.
                let mut nonfinite = tainted;
                if alo == 0.0 && blo < 0.0 {
                    nonfinite = true; // 0^negative = ∞
                }
                let (lo, hi) = corner(|x, y| {
                    let v = x.powf(y);
                    if v.is_nan() {
                        1.0 // 0^0 corner: f32 powf(0,0) = 1
                    } else {
                        v
                    }
                });
                // powf(0, 0) = 1 must be inside when both straddle zero.
                let (lo, hi) = if alo <= 0.0 && blo <= 0.0 && bhi >= 0.0 {
                    (lo.min(1.0), hi.max(1.0))
                } else {
                    (lo, hi)
                };
                finalize(lo, hi, lo.abs().max(hi.abs()), nonfinite)
            }
        }
        BinaryOp::Min => {
            // A NaN lane on either side passes the other side through, so
            // under taint the upper bound is the hull's, not the min's.
            let hi = if tainted { ahi.max(bhi) } else { ahi.min(bhi) };
            finalize(alo.min(blo), hi, 0.0, tainted)
        }
        BinaryOp::Max => {
            let lo = if tainted { alo.min(blo) } else { alo.max(blo) };
            finalize(lo, ahi.max(bhi), 0.0, tainted)
        }
        BinaryOp::Mod => {
            if blo <= 0.0 && bhi >= 0.0 {
                // x - y·⌊x/y⌋ with y = 0 → 0·∞ = NaN.
                NumRange {
                    lo: -mb,
                    hi: mb,
                    nonfinite: true,
                }
            } else {
                // Result has |r| ≤ |y| and follows y's sign.
                finalize(blo.min(0.0), bhi.max(0.0), mb, tainted)
            }
        }
    }
}

/// Bound beyond which i64 interval arithmetic gives up (wrapping kernels
/// plus f64's 2^53 exact-integer limit).
const I64_TOP: f64 = 9.0e15;

/// Sound image of an i64 binary kernel (wrapping arithmetic; division and
/// modulo by zero yield 0, so i64 results are never non-finite).
pub fn binary_interval_i64(op: BinaryOp, alo: f64, ahi: f64, blo: f64, bhi: f64) -> NumRange {
    if alo > ahi || blo > bhi {
        return NumRange::empty(false);
    }
    let top = NumRange {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
        nonfinite: false,
    };
    if alo.abs().max(ahi.abs()).max(blo.abs()).max(bhi.abs()) > I64_TOP {
        return top;
    }
    let done = |lo: f64, hi: f64| {
        if lo.abs().max(hi.abs()) > I64_TOP {
            top // possible wrap-around: all i64 values reachable
        } else {
            NumRange {
                lo,
                hi,
                nonfinite: false,
            }
        }
    };
    let corner = |f: fn(f64, f64) -> f64| {
        let c = [f(alo, blo), f(alo, bhi), f(ahi, blo), f(ahi, bhi)];
        (
            c.iter().cloned().fold(f64::INFINITY, f64::min),
            c.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        )
    };
    match op {
        BinaryOp::Add => done(alo + blo, ahi + bhi),
        BinaryOp::Sub => done(alo - bhi, ahi - blo),
        BinaryOp::Mul => {
            let (lo, hi) = corner(|x, y| x * y);
            done(lo, hi)
        }
        // Wrapping div_euclid/rem_euclid with y = 0 → 0; bounding
        // conservatively (`MIN / -1` wraps to `MIN`, but an operand at
        // `MIN` is beyond `I64_TOP`, so that image is already top).
        BinaryOp::Div => {
            let m = alo.abs().max(ahi.abs());
            done(-m, m)
        }
        BinaryOp::Mod => {
            let m = blo.abs().max(bhi.abs());
            done(-m, m) // rem_euclid is in [0, |y|), but 0-div gives 0
        }
        BinaryOp::Pow => {
            if alo >= 0.0 && ahi <= 1.0 && blo >= 0.0 {
                done(0.0, 1.0)
            } else {
                top
            }
        }
        BinaryOp::Min => done(alo.min(blo), ahi.min(bhi)),
        BinaryOp::Max => done(alo.max(blo), ahi.max(bhi)),
    }
}

/// Decides a comparison from disjoint ranges: `Some(true/false)` when every
/// element pair must compare that way, `None` when undecidable.
pub fn compare_decided(op: CompareOp, alo: f64, ahi: f64, blo: f64, bhi: f64) -> Option<bool> {
    match op {
        CompareOp::Greater => {
            if alo > bhi {
                Some(true)
            } else if ahi <= blo {
                Some(false)
            } else {
                None
            }
        }
        CompareOp::Less => {
            if ahi < blo {
                Some(true)
            } else if alo >= bhi {
                Some(false)
            } else {
                None
            }
        }
        CompareOp::Equal => {
            if ahi < blo || bhi < alo {
                Some(false)
            } else if alo == ahi && blo == bhi && alo == blo {
                Some(true)
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elementwise::unary_fn;

    fn check_unary(op: UnaryOp, lo: f32, hi: f32, samples: usize) {
        let r = unary_interval(op, lo as f64, hi as f64, false);
        let f = unary_fn(op);
        for i in 0..=samples {
            let x = lo + (hi - lo) * (i as f32 / samples as f32);
            let y = f(x);
            if y.is_finite() {
                assert!(
                    (y as f64) >= r.lo && (y as f64) <= r.hi,
                    "{op:?}({x}) = {y} outside [{}, {}]",
                    r.lo,
                    r.hi
                );
            } else {
                assert!(r.nonfinite, "{op:?}({x}) = {y} but range claims finite");
            }
        }
    }

    #[test]
    fn unary_images_cover_sampled_outputs() {
        use UnaryOp::*;
        let all = [
            Relu,
            LeakyRelu,
            Sigmoid,
            Tanh,
            Gelu,
            Erf,
            Exp,
            Log,
            Sqrt,
            Neg,
            Abs,
            Round,
            Floor,
            Ceil,
            Softplus,
            Silu,
            HardSigmoid,
            HardSwish,
            Elu,
            Selu,
            Sign,
            Reciprocal,
            Sin,
            Cos,
        ];
        for op in all {
            check_unary(op, -3.0, 5.0, 400);
            check_unary(op, -100.0, 100.0, 400);
            check_unary(op, 0.5, 2.0, 100);
            check_unary(op, -2.0, -0.5, 100);
        }
    }

    #[test]
    fn rel_slack_covers_the_owned_transcendentals() {
        // An ulp of a normal f32 result y is at most EPSILON · |y|.
        let bound = f64::from(crate::math::MAX_ULP) * f64::from(f32::EPSILON);
        assert!(bound < REL_SLACK, "{bound} ≥ {REL_SLACK}");
    }

    #[test]
    fn exp_overflow_flags_nonfinite() {
        let r = unary_interval(UnaryOp::Exp, 0.0, 100.0, false);
        assert!(r.nonfinite);
        assert_eq!(r.hi, f64::INFINITY);
        let soft = unary_interval(UnaryOp::Softplus, 0.0, 100.0, false);
        assert!(soft.nonfinite);
    }

    #[test]
    fn log_negative_domain_flags_nonfinite() {
        let r = unary_interval(UnaryOp::Log, -1.0, 4.0, false);
        assert!(r.nonfinite);
        assert!(r.lo <= -104.0 && r.hi >= (4f32.ln() as f64));
        let all_neg = unary_interval(UnaryOp::Sqrt, -5.0, -1.0, false);
        assert!(all_neg.is_empty() && all_neg.nonfinite);
    }

    #[test]
    fn reciprocal_pole() {
        let r = unary_interval(UnaryOp::Reciprocal, -1.0, 1.0, false);
        assert!(r.nonfinite);
        let pos = unary_interval(UnaryOp::Reciprocal, 0.5, 2.0, false);
        assert!(!pos.nonfinite && pos.lo <= 0.5 && pos.hi >= 2.0);
    }

    #[test]
    fn binary_f32_images_cover_sampled_outputs() {
        use crate::elementwise::binary;
        use sod2_tensor::Tensor;
        let ops = [
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
            BinaryOp::Pow,
            BinaryOp::Min,
            BinaryOp::Max,
            BinaryOp::Mod,
        ];
        let ranges = [(-2.0f32, 3.0f32, 0.5f32, 2.0f32), (0.0, 4.0, -3.0, -1.0)];
        for op in ops {
            for (alo, ahi, blo, bhi) in ranges {
                let r =
                    binary_interval_f32(op, alo as f64, ahi as f64, blo as f64, bhi as f64, false);
                for i in 0..=20 {
                    for j in 0..=20 {
                        let x = alo + (ahi - alo) * (i as f32 / 20.0);
                        let y = blo + (bhi - blo) * (j as f32 / 20.0);
                        let a = Tensor::from_f32(&[1], vec![x]);
                        let b = Tensor::from_f32(&[1], vec![y]);
                        let out = binary(op, &a, &b).expect("binary");
                        let v = out.as_f32().expect("f32")[0];
                        if v.is_finite() {
                            assert!(
                                (v as f64) >= r.lo && (v as f64) <= r.hi,
                                "{op:?}({x}, {y}) = {v} outside [{}, {}]",
                                r.lo,
                                r.hi
                            );
                        } else {
                            assert!(r.nonfinite, "{op:?}({x}, {y}) = {v} claimed finite");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn div_by_range_containing_zero_taints() {
        let r = binary_interval_f32(BinaryOp::Div, 1.0, 2.0, -1.0, 1.0, false);
        assert!(r.nonfinite);
    }

    #[test]
    fn compare_decisions() {
        assert_eq!(
            compare_decided(CompareOp::Greater, 1.0, 2.0, -5.0, 0.5),
            Some(true)
        );
        assert_eq!(
            compare_decided(CompareOp::Greater, -2.0, -1.0, 0.0, 3.0),
            Some(false)
        );
        assert_eq!(
            compare_decided(CompareOp::Greater, 0.0, 2.0, 1.0, 3.0),
            None
        );
        assert_eq!(
            compare_decided(CompareOp::Equal, 0.0, 1.0, 2.0, 3.0),
            Some(false)
        );
    }

    #[test]
    fn i64_wrapping_goes_top() {
        let r = binary_interval_i64(BinaryOp::Mul, 1.0, 1e10, 1.0, 1e10);
        assert_eq!(r.hi, f64::INFINITY);
        let small = binary_interval_i64(BinaryOp::Add, 0.0, 4.0, 1.0, 1.0);
        assert_eq!((small.lo, small.hi), (1.0, 5.0));
        // The kernels wrap `MIN / -1` to `MIN` and give `MIN mod -1 = 0`.
        let (min, m1) = (i64::MIN as f64, -1.0);
        let div = binary_interval_i64(BinaryOp::Div, min, min, m1, m1);
        assert!(div.lo <= min && min <= div.hi);
        let rem = binary_interval_i64(BinaryOp::Mod, min, min, m1, m1);
        assert!(rem.lo <= 0.0 && 0.0 <= rem.hi);
    }
}
