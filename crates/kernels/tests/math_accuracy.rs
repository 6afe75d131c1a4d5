//! `math::exp` and `math::tanh` against `f64::exp` and `f64::tanh`
//! rounded to f32, over every f32 bit pattern.
//!
//! Each normal result must lie within [`MAX_ULP`] representable values of
//! the reference, and the edges must be exact: a NaN input gives
//! `f32::NAN`; `exp` is `+∞` exactly where the reference is and `+0`
//! wherever the reference is below `f32::MIN_POSITIVE`; `tanh` keeps the
//! sign of zero and gives ±1 at ±∞. The sweep takes 2^32
//! evaluations of each side, so it runs only in optimized builds
//! (`cargo test --release -p sod2-kernels`).

use sod2_kernels::math::{self, MAX_ULP};

/// The f32 bit patterns in sign-magnitude order mapped onto one integer
/// line, so the distance between two values counts the floats between
/// them (±0 both map to 0).
fn key(v: f32) -> i64 {
    let b = v.to_bits();
    let mag = i64::from(b & 0x7fff_ffff);
    if b >> 31 == 1 {
        -mag
    } else {
        mag
    }
}

fn ulps(got: f32, want: f32) -> u64 {
    key(got).abs_diff(key(want))
}

/// The largest ulp distance seen per function, and the first failures.
#[derive(Default)]
struct Sweep {
    exp_max: u64,
    tanh_max: u64,
    failures: Vec<String>,
}

impl Sweep {
    fn fail(&mut self, msg: String) {
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    fn check_exp(&mut self, x: f32) {
        let got = math::exp(x);
        let want = f64::from(x).exp() as f32;
        if x.is_nan() {
            if got.to_bits() != f32::NAN.to_bits() {
                self.fail(format!(
                    "exp({:#x}) = {:#x}, not f32::NAN",
                    x.to_bits(),
                    got.to_bits()
                ));
            }
        } else if want.is_infinite() || got.is_infinite() {
            if got.to_bits() != want.to_bits() {
                self.fail(format!("exp({x:e}) = {got:e}, reference {want:e}"));
            }
        } else if want < f32::MIN_POSITIVE {
            // Zero, or a subnormal the function flushes to zero.
            if got.to_bits() != 0 {
                self.fail(format!("exp({x:e}) = {got:e}, reference {want:e}: not +0"));
            }
        } else {
            let d = ulps(got, want);
            self.exp_max = self.exp_max.max(d);
            if d > u64::from(MAX_ULP) {
                self.fail(format!("exp({x:e}) = {got:e}, reference {want:e}: {d} ulp"));
            }
        }
    }

    fn check_tanh(&mut self, x: f32) {
        let got = math::tanh(x);
        let want = f64::from(x).tanh() as f32;
        if x.is_nan() {
            if got.to_bits() != f32::NAN.to_bits() {
                self.fail(format!(
                    "tanh({:#x}) = {:#x}, not f32::NAN",
                    x.to_bits(),
                    got.to_bits()
                ));
            }
        } else if x == 0.0 || x.is_infinite() {
            if got.to_bits() != want.to_bits() {
                self.fail(format!("tanh({x:e}) = {got:e}, reference {want:e}"));
            }
        } else {
            let d = ulps(got, want);
            self.tanh_max = self.tanh_max.max(d);
            if d > u64::from(MAX_ULP) {
                self.fail(format!(
                    "tanh({x:e}) = {got:e}, reference {want:e}: {d} ulp"
                ));
            }
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "2^32 inputs: run in an optimized build")]
fn exp_and_tanh_within_max_ulp_on_every_f32() {
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(8)) as u64;
    let total = 1u64 << 32;
    let sweeps: Vec<Sweep> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let mut sweep = Sweep::default();
                    for b in (total * w / workers)..(total * (w + 1) / workers) {
                        let x = f32::from_bits(b as u32);
                        sweep.check_exp(x);
                        sweep.check_tanh(x);
                    }
                    sweep
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker"))
            .collect()
    });
    let exp_max = sweeps.iter().map(|s| s.exp_max).max().unwrap_or(0);
    let tanh_max = sweeps.iter().map(|s| s.tanh_max).max().unwrap_or(0);
    let failures: Vec<&String> = sweeps.iter().flat_map(|s| &s.failures).collect();
    eprintln!("max error: exp {exp_max} ulp, tanh {tanh_max} ulp (MAX_ULP {MAX_ULP})");
    assert!(failures.is_empty(), "{failures:#?}");
}
