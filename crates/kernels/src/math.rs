//! The crate's own `exp` and `tanh` for f32.
//!
//! Every kernel that needs e^x or tanh (`Exp`, `Tanh`, `Sigmoid`, `Silu`,
//! `Gelu`, `Erf`, `Softplus`, `Softmax`) calls these two functions, and so
//! do [`crate::elementwise::unary_fn`] and the reference paths, so outputs
//! are bitwise equal across all of them and do not depend on the platform
//! libm. Both are range reduction plus a polynomial in plain f32
//! arithmetic: no fused multiply-add, intrinsic, table or branch (the edges
//! are selects), so a loop over them vectorizes on the baseline target once
//! they are inlined. That is why they, and the scalar functions that call
//! them, are `#[inline(always)]`.
//!
//! Accuracy: every normal result is within [`MAX_ULP`] units in the last
//! place of `f64::exp`/`f64::tanh` rounded to f32, over every f32 input
//! (checked exhaustively by `tests/math_accuracy.rs`). The edges are exact:
//!
//! - a NaN input gives `f32::NAN`;
//! - `exp(x)` is `+∞` exactly where the correctly rounded e^x overflows
//!   (`x > 88.72283`), and `+0` wherever e^x is below `f32::MIN_POSITIVE`
//!   (`x < -87.33654`): subnormal results are flushed to zero;
//! - `tanh(±0) = ±0` and `tanh(±∞) = ±1`.
//!
//! No subnormal value enters the arithmetic: x86 cores run subnormal
//! operands and results in slow microcode, so inputs whose result is
//! already decided (tiny `|x|`, exp's flushed range) are replaced before
//! any multiply.

/// The largest error of a normal result of [`exp`] or [`tanh`], in units
/// in the last place of the f64 function rounded to f32, over every f32
/// input.
pub const MAX_ULP: u32 = 1;

/// 1.5 · 2^23. For `|z| < 2^22`, `z + ROUND_SHIFT` rounds `z` to the
/// nearest integer (ties to even) and holds it in its low mantissa bits.
/// (`f32::round_ties_even` is a libm call on the baseline x86-64 target.)
const ROUND_SHIFT: f32 = 12_582_912.0;

/// `ln 2` split in two: `LN2_HI` has 9 significant bits, so `n * LN2_HI`
/// is exact for every `|n| ≤ 128` the reduction produces.
const LN2_HI: f32 = 0.693_359_4; // exactly 355/512
const LN2_LO: f32 = -2.121_944_4e-4;

/// The largest input whose correctly rounded e^x is finite.
const EXP_MAX_FINITE: f32 = f32::from_bits(0x42b1_7217); // 88.72283

/// The smallest input whose e^x is at least `f32::MIN_POSITIVE`.
const EXP_MIN_NORMAL: f32 = f32::from_bits(0xc2ae_ac4f); // -87.33654

/// Below this `|x|`, e^x rounds to 1.
const EXP_TINY: f32 = 2.980_232_2e-8; // 2^-25

/// Below this `|x|`, tanh x rounds to x.
const TANH_TINY: f32 = 2.441_406_3e-4; // 2^-12

/// Below this `|x|` [`tanh`] evaluates an odd polynomial; at and above it,
/// `1 - 2 / (e^{2|x|} + 1)`, whose cancellation is mild from here on.
const TANH_POLY_BELOW: f32 = 0.5625;

/// `e^x`.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // The clamp keeps the result finite and normal; the selects at the end
    // overwrite what it changed.
    let xc = if x.abs() < EXP_TINY {
        0.0
    } else {
        x.clamp(EXP_MIN_NORMAL, EXP_MAX_FINITE)
    };
    let shifted = xc * std::f32::consts::LOG2_E + ROUND_SHIFT;
    let n_f = shifted - ROUND_SHIFT;
    // r = x - n ln 2 in [-ln2/2, ln2/2] (Cody–Waite: the first product and
    // difference are exact).
    let r = (xc - n_f * LN2_HI) - n_f * LN2_LO;
    // e^r = 1 + r + r²·P(r), P a degree-4 Chebyshev fit (relative error
    // below 1e-8 on the reduced range) in Estrin's form, whose shorter
    // dependency chains pipeline better than Horner's.
    let r2 = r * r;
    let p =
        (1.392_617_6e-3 * r2 + (8.363_173e-3 * r + 4.166_655_6e-2)) * r2 + (0.166_665_78 * r + 0.5);
    let er = 1.0 + (r + r2 * p);
    // e^x = e^r · 2^n: add n to e^r's exponent field. The low 9 bits of
    // `shifted` hold n mod 512, so shifting them into place gives n << 23.
    // The clamp makes this exact: n = 128 only with r < 0 (e^r in [0.5,
    // 1)), n = -126 only with r > 0 (e^r in [1, 2)), so the exponent stays
    // in [1, 254].
    let y = f32::from_bits(er.to_bits().wrapping_add(shifted.to_bits() << 23));
    // The edges, written so each is one mask operation: `y` is positive
    // for every non-NaN `x`, so the `>` is a max with ∞ or 0.
    let y = if x < EXP_MIN_NORMAL { 0.0 } else { y };
    let inf = if x > EXP_MAX_FINITE {
        f32::INFINITY
    } else {
        0.0
    };
    let y = if inf > y { inf } else { y };
    if x.is_nan() {
        f32::NAN
    } else {
        y
    }
}

/// `tanh x`.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let s = if a < TANH_TINY { 0.0 } else { a };
    // a + a³·Q(a²), Q a degree-4 Chebyshev fit (relative error below 6e-9
    // on tanh for a < 0.5625), in Horner's form: Estrin's rounding costs an
    // ulp here.
    let w = s * s;
    let q = -6.525_572_4e-3;
    let q = q * w + 2.126_335_4e-2;
    let q = q * w - 5.390_175_4e-2;
    let q = q * w + 0.133_330_73;
    let q = q * w - 0.333_333_3;
    let small = s + s * w * q;
    // 1 - 2/(e^{2a} + 1) rounds to exactly 1 from a = 9.0109 on; capping a
    // at 10 keeps the quotient from going subnormal (or the exponential
    // from overflowing) without changing any result.
    let large = 1.0 - 2.0 / (exp(2.0 * s.min(10.0)) + 1.0);
    let t = if a < TANH_TINY {
        a
    } else if a < TANH_POLY_BELOW {
        small
    } else {
        large
    };
    if x.is_nan() {
        f32::NAN
    } else {
        t.copysign(x)
    }
}
