//! Intra-op parallelism and multi-version kernel microbenchmarks.
//!
//! `bench_kernels [--json [PATH]]` measures GEMM/Conv/element-wise kernel
//! throughput at 1, 2, and 4 threads plus the tuned kernel variants, and
//! (with `--json`) writes the results to `BENCH_kernels.json`.
//!
//! Thread scaling is reported two ways, and the JSON says which is which
//! (`speedup_basis`): measured wallclock, which on a single-core host
//! cannot exceed 1×, and the *self-scheduled makespan* — the per-chunk
//! kernel times recorded serially, greedily list-scheduled onto N virtual
//! workers. The makespan number is what the pool's decomposition achieves
//! when N cores actually exist, independent of this host's core count.
//! Each chunk's time is the median of [`CHUNK_RECORDINGS`] serial
//! recordings, so one chunk slowed by host noise does not move it.
//!
//! Each conv, GEMM, broadcast-multiply, GELU and softmax row also records
//! `ratio_vs_naive`: the one-thread wall time of a reference over that of
//! the kernel, measured interleaved in this process as a median of runs.
//! The references are the independent naive kernels (`conv2d_naive`,
//! `gemm_naive`, `binary_naive`) and, for GELU and softmax, the libm
//! formulas those kernels ran before `sod2_kernels::math` (scalar `tanhf`
//! and `expf` calls, a sequential sum and a division; kept in this binary
//! only). The ratio is informational (never gated), but the binary
//! asserts a floor on it — 2.0 for conv (`MIN_CONV_RATIO`), 0.5 for GEMM
//! (`MIN_GEMM_RATIO`), 8.0 for the broadcast multiply (`MIN_EW_RATIO`),
//! 3.0 for GELU (`MIN_GELU_RATIO`) and 1.5 for softmax
//! (`MIN_SOFTMAX_RATIO`) — so a return to a per-element conv loop, a
//! packed GEMM tile walk, per-element broadcast index arithmetic, or
//! transcendental loops that no longer vectorize fails.
//!
//! Each `mvc_classes` row pairs the priced (modeled, gated) selection with
//! the host playoff that decides what executes: the executed GEMM and conv
//! choice and both playoff medians, informational. Where a class executes
//! a non-default variant, the binary re-times it against the default
//! kernel on the class's playoff problem, apart from the playoff, and
//! asserts it takes at most `MAX_EXECUTED_OVER_DEFAULT` (1.10) × the
//! default's time.

use sod2_device::{conv_efficiency, gemm_efficiency, DeviceProfile, ShapeClass};
use sod2_frameworks::{Engine, Sod2Engine, Sod2Options};
use sod2_ir::{BinaryOp, Spatial2d, UnaryOp};
use sod2_kernels::elementwise::{binary, binary_naive, unary};
use sod2_kernels::reduce::softmax;
use sod2_kernels::{
    conv2d_naive, conv2d_with_params, gemm_naive, gemm_tiled, ConvParams, GemmParams,
};
use sod2_models::{all_models, ModelScale};
use sod2_mvc::{
    playoff_conv, playoff_gemm, representative_conv, representative_shape, Family, Playoff,
    VersionTable,
};
use sod2_pool::{record_chunks, scheduled_makespan, with_threads};
use sod2_prng::rngs::StdRng;
use sod2_prng::SeedableRng;
use sod2_tensor::Tensor;
use std::time::Instant;

const THREADS: [usize; 3] = [1, 2, 4];

/// Serial chunk-time recordings whose per-chunk median is scheduled. On a
/// shared 2-vCPU host single chunk samples spread by about 30%; with 5 or
/// 11 recordings `speedup_makespan` still moved by up to 7% or 12%
/// between back-to-back runs, with 31 by at most 3.6%.
const CHUNK_RECORDINGS: usize = 31;

/// Floor asserted on every conv row's `ratio_vs_naive`.
const MIN_CONV_RATIO: f64 = 2.0;

/// Floor asserted on every GEMM row's `ratio_vs_naive`.
const MIN_GEMM_RATIO: f64 = 0.5;

/// Floor asserted on the broadcast multiply row's `ratio_vs_naive`.
const MIN_EW_RATIO: f64 = 8.0;

/// Floor asserted on the GELU row's `ratio_vs_naive`.
const MIN_GELU_RATIO: f64 = 3.0;

/// Floor asserted on the softmax row's `ratio_vs_naive`.
const MIN_SOFTMAX_RATIO: f64 = 1.5;

/// Ceiling asserted on a class's executed non-default variant over the
/// default kernel, re-timed on the class's playoff problem apart from the
/// playoff: a variant that is slower on a second measurement, or an
/// executed lookup that ignores the playoff, fails.
const MAX_EXECUTED_OVER_DEFAULT: f64 = 1.10;

fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (s >> 40) as f32 / (1u64 << 23) as f32 - 0.5
        })
        .collect()
}

/// Best-of-2 wallclock of `f`, in seconds.
fn wall(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Median over 7 interleaved runs on `threads` pool workers of `slow`'s
/// wall time over `fast`'s; each run times `calls` back-to-back calls of
/// either side.
fn interleaved_ratio(threads: usize, slow: impl Fn(), fast: impl Fn(), calls: usize) -> f64 {
    let time = |f: &dyn Fn()| {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        t0.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..7)
        .map(|_| with_threads(threads, || time(&slow) / time(&fast).max(1e-12)))
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

struct KernelEntry {
    name: &'static str,
    desc: String,
    flops: f64,
    chunks: usize,
    /// Measured wallclock at each real thread count.
    wall_secs: [f64; 3],
    /// Greedy list-schedule of the per-chunk median recorded times onto N
    /// virtual workers.
    makespan_secs: [f64; 3],
    /// Reference-over-kernel one-thread wall ratio (conv, GEMM, broadcast
    /// multiply, GELU and softmax rows).
    ratio_vs_naive: Option<f64>,
}

impl KernelEntry {
    fn measure(name: &'static str, desc: String, flops: f64, run: impl Fn() + Sync) -> KernelEntry {
        let recordings: Vec<Vec<f64>> = (0..CHUNK_RECORDINGS)
            .map(|_| record_chunks(&run).1)
            .collect();
        let chunk_count = recordings.iter().map(Vec::len).min().unwrap_or(0);
        let chunk_secs: Vec<f64> = (0..chunk_count)
            .map(|i| {
                let mut times: Vec<f64> = recordings.iter().map(|r| r[i]).collect();
                times.sort_by(f64::total_cmp);
                times[times.len() / 2]
            })
            .collect();
        let makespan_secs = [
            scheduled_makespan(&chunk_secs, 1),
            scheduled_makespan(&chunk_secs, 2),
            scheduled_makespan(&chunk_secs, 4),
        ];
        let mut wall_secs = [0.0; 3];
        for (slot, &t) in wall_secs.iter_mut().zip(&THREADS) {
            *slot = wall(|| with_threads(t, &run));
        }
        KernelEntry {
            name,
            desc,
            flops,
            chunks: chunk_secs.len(),
            wall_secs,
            makespan_secs,
            ratio_vs_naive: None,
        }
    }

    fn makespan_speedup(&self, idx: usize) -> f64 {
        if self.makespan_secs[idx] > 0.0 {
            self.makespan_secs[0] / self.makespan_secs[idx]
        } else {
            1.0
        }
    }

    fn json(&self) -> String {
        let ratio = self
            .ratio_vs_naive
            .map(|r| format!(", \"ratio_vs_naive\": {r:.2}"))
            .unwrap_or_default();
        format!(
            concat!(
                "    {{\"name\": \"{}\", \"desc\": \"{}\", \"chunks\": {}, ",
                "\"gflops_1t\": {:.3}, ",
                "\"wallclock_secs\": {{\"1\": {:.6}, \"2\": {:.6}, \"4\": {:.6}}}, ",
                "\"makespan_secs\": {{\"1\": {:.6}, \"2\": {:.6}, \"4\": {:.6}}}, ",
                "\"speedup_makespan\": {{\"1\": {:.3}, \"2\": {:.3}, \"4\": {:.3}}}{}}}"
            ),
            self.name,
            self.desc,
            self.chunks,
            self.flops / self.wall_secs[0].max(1e-12) / 1e9,
            self.wall_secs[0],
            self.wall_secs[1],
            self.wall_secs[2],
            self.makespan_secs[0],
            self.makespan_secs[1],
            self.makespan_secs[2],
            self.makespan_speedup(0),
            self.makespan_speedup(1),
            self.makespan_speedup(2),
            ratio,
        )
    }
}

/// `m x k x n` GEMM with default parameters; `calls` sets how many calls
/// each side of the interleaved ratio times per run.
fn gemm_entry(m: usize, k: usize, n: usize, calls: usize) -> KernelEntry {
    let a = fill(1, m * k);
    let b = fill(2, k * n);
    let tiled = || {
        std::hint::black_box(gemm_tiled(&a, &b, m, k, n, GemmParams::default()));
    };
    let naive = || {
        std::hint::black_box(gemm_naive(&a, &b, m, k, n));
    };
    let ratio = interleaved_ratio(1, naive, tiled, calls);
    let desc = format!("{m}x{k}x{n} f32");
    assert!(
        ratio >= MIN_GEMM_RATIO,
        "gemm_tiled {desc}: {ratio:.2}x the speed of gemm_naive (floor {MIN_GEMM_RATIO}x)"
    );
    let mut entry = KernelEntry::measure("gemm_tiled", desc, 2.0 * (m * k * n) as f64, tiled);
    entry.ratio_vs_naive = Some(ratio);
    entry
}

/// `N1 ci->co hw x hw` 3x3 same-padded conv; `calls` sets how many calls
/// each side of the interleaved ratio times per run.
fn conv_entry(ci: usize, co: usize, hw: usize, calls: usize) -> KernelEntry {
    let (n, k) = (1usize, 3usize);
    let x = Tensor::from_f32(&[n, ci, hw, hw], fill(3, n * ci * hw * hw));
    let w = Tensor::from_f32(&[co, ci, k, k], fill(4, co * ci * k * k));
    let sp = Spatial2d::same(k);
    let flops = 2.0 * (n * co * hw * hw * ci * k * k) as f64;
    let conv = || {
        std::hint::black_box(
            conv2d_with_params(&x, &w, None, &sp, 1, ConvParams::default()).expect("conv"),
        );
    };
    let naive = || {
        std::hint::black_box(conv2d_naive(&x, &w, None, &sp, 1).expect("conv"));
    };
    let ratio = interleaved_ratio(1, naive, conv, calls);
    let desc = format!("N{n} {ci}->{co} {hw}x{hw} k{k}");
    assert!(
        ratio >= MIN_CONV_RATIO,
        "conv2d {desc}: only {ratio:.2}x faster than conv2d_naive (floor {MIN_CONV_RATIO}x)"
    );
    let mut entry = KernelEntry::measure("conv2d", desc, flops, conv);
    entry.ratio_vs_naive = Some(ratio);
    entry
}

fn elementwise_entry() -> KernelEntry {
    let len = 1usize << 22;
    let x = Tensor::from_f32(&[len], fill(5, len));
    KernelEntry::measure(
        "unary_exp",
        format!("{len} f32 elements"),
        len as f64,
        move || {
            std::hint::black_box(unary(UnaryOp::Exp, &x).expect("unary"));
        },
    )
}

/// StableDiffusion-Enc@40's attention `scaled` Mul: `[1,400,400]` times a
/// one-element scale, against the per-element reference.
fn binary_mul_entry() -> KernelEntry {
    let l = 400usize;
    let x = Tensor::from_f32(&[1, l, l], fill(6, l * l));
    let scale = Tensor::from_f32(&[1], vec![0.125]);
    let walk = || {
        std::hint::black_box(binary(BinaryOp::Mul, &x, &scale).expect("binary"));
    };
    let naive = || {
        std::hint::black_box(binary_naive(BinaryOp::Mul, &x, &scale).expect("binary"));
    };
    let ratio = interleaved_ratio(1, naive, walk, 20);
    let desc = format!("1x{l}x{l} * 1 f32");
    assert!(
        ratio >= MIN_EW_RATIO,
        "binary_mul {desc}: only {ratio:.2}x faster than binary_naive (floor {MIN_EW_RATIO}x)"
    );
    let mut entry = KernelEntry::measure("binary_mul", desc, (l * l) as f64, walk);
    entry.ratio_vs_naive = Some(ratio);
    entry
}

/// GELU with libm's `tanhf`, one element at a time: the kernel's formula
/// before `sod2_kernels::math`.
fn gelu_libm(xs: &[f32]) -> Vec<f32> {
    let c = (2.0f32 / std::f32::consts::PI).sqrt();
    xs.iter()
        .map(|&v| 0.5 * v * (1.0 + (c * (v + 0.044_715 * v * v * v)).tanh()))
        .collect()
}

/// Softmax over rows of `len` with libm's `expf`, a sequential sum and a
/// division: the kernel's row loop before `sod2_kernels::math`.
fn softmax_libm(xs: &[f32], len: usize) -> Vec<f32> {
    let mut out = vec![0f32; xs.len()];
    for (orow, row) in out.chunks_exact_mut(len).zip(xs.chunks_exact(len)) {
        let mx = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut sum = 0f32;
        for (o, &v) in orow.iter_mut().zip(row) {
            *o = (v - mx).exp();
            sum += *o;
        }
        for o in orow {
            *o /= sum;
        }
    }
    out
}

/// GELU on StableDiffusion-Enc@40's MLP activation, `[1,400,32]`, against
/// [`gelu_libm`].
fn gelu_entry() -> KernelEntry {
    let (l, d) = (400usize, 32usize);
    let x = Tensor::from_f32(&[1, l, d], fill(8, l * d));
    let xs = x.as_f32().expect("f32");
    let kernel = || {
        std::hint::black_box(unary(UnaryOp::Gelu, &x).expect("gelu"));
    };
    let libm = || {
        std::hint::black_box(gelu_libm(xs));
    };
    let ratio = interleaved_ratio(1, libm, kernel, 100);
    let desc = format!("1x{l}x{d} f32");
    assert!(
        ratio >= MIN_GELU_RATIO,
        "gelu {desc}: only {ratio:.2}x faster than the libm formula (floor {MIN_GELU_RATIO}x)"
    );
    let mut entry = KernelEntry::measure("gelu", desc, (l * d) as f64, kernel);
    entry.ratio_vs_naive = Some(ratio);
    entry
}

/// Softmax over the last axis of StableDiffusion-Enc@40's attention
/// scores, against [`softmax_libm`].
fn softmax_entry() -> KernelEntry {
    let l = 400usize;
    let x = Tensor::from_f32(&[1, l, l], fill(7, l * l));
    let xs = x.as_f32().expect("f32");
    let kernel = || {
        std::hint::black_box(softmax(&x, -1).expect("softmax"));
    };
    let libm = || {
        std::hint::black_box(softmax_libm(xs, l));
    };
    let ratio = interleaved_ratio(1, libm, kernel, 10);
    let desc = format!("1x{l}x{l} axis -1");
    assert!(
        ratio >= MIN_SOFTMAX_RATIO,
        "softmax {desc}: only {ratio:.2}x faster than the libm formula \
         (floor {MIN_SOFTMAX_RATIO}x)"
    );
    let mut entry = KernelEntry::measure("softmax", desc, (l * l) as f64, kernel);
    entry.ratio_vs_naive = Some(ratio);
    entry
}

/// Per-shape-class multi-version codegen result: the priced (tuned)
/// variant versus the default parameters on the modeled efficiency the
/// tuner optimizes, and the host playoff that decides which of the two
/// executes. The modeled numbers and `non_default_variant` are
/// deterministic (and gated); the executed choices and playoff medians are
/// measured on this host and informational.
struct MvcClassEntry {
    name: String,
    gemm_desc: String,
    conv_desc: String,
    /// Modeled efficiency of the tuned GEMM variant (gated, lower-worse).
    modeled_efficiency: f64,
    /// Modeled efficiency of `GemmParams::default()` on the same shape.
    default_efficiency: f64,
    /// Tuned-over-default modeled gain, percent (gated, lower-worse).
    efficiency_gain_pct: f64,
    /// Modeled efficiency of the tuned conv variant (gated, lower-worse).
    conv_modeled_efficiency: f64,
    /// Modeled efficiency of `ConvParams::default()` on the same shape.
    conv_default_efficiency: f64,
    /// 1 when the tuner picked something other than the default parameters
    /// (gated, lower-worse: the tuner must keep finding real variants).
    non_default_variant: usize,
    /// The GEMM and conv playoffs: what executes, and both medians.
    gemm_playoff: Playoff,
    conv_playoff: Playoff,
}

impl MvcClassEntry {
    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\"name\": \"{}\", \"gemm\": \"{}\", \"conv\": \"{}\", ",
                "\"modeled_efficiency\": {:.4}, \"default_efficiency\": {:.4}, ",
                "\"efficiency_gain_pct\": {:.2}, \"conv_modeled_efficiency\": {:.4}, ",
                "\"conv_default_efficiency\": {:.4}, \"non_default_variant\": {}, ",
                "\"executed_gemm\": \"{}\", \"gemm_tuned_ms\": {:.4}, ",
                "\"gemm_default_ms\": {:.4}, \"executed_conv\": \"{}\", ",
                "\"conv_tuned_ms\": {:.4}, \"conv_default_ms\": {:.4}}}"
            ),
            self.name,
            self.gemm_desc,
            self.conv_desc,
            self.modeled_efficiency,
            self.default_efficiency,
            self.efficiency_gain_pct,
            self.conv_modeled_efficiency,
            self.conv_default_efficiency,
            self.non_default_variant,
            self.gemm_playoff.executed(),
            self.gemm_playoff.tuned_ms,
            self.gemm_playoff.default_ms,
            self.conv_playoff.executed(),
            self.conv_playoff.tuned_ms,
            self.conv_playoff.default_ms,
        )
    }
}

/// The executed variant's wall time over the default kernel's on `class`'s
/// playoff problem for `family`, timed here at the pool's width; `None`
/// where the executed lookup returns the default kernel.
fn executed_over_default(table: &VersionTable, family: Family, class: ShapeClass) -> Option<f64> {
    let threads = sod2_pool::max_threads();
    let playoff = table.playoff(family, class).expect("the playoff ran");
    // Runs of about 2 ms each.
    let calls = (2.0 / playoff.default_ms).ceil().clamp(1.0, 10_000.0) as usize;
    match family {
        Family::Gemm => {
            let (m, k, n) = playoff_gemm(class);
            let executed = table.executed_gemm(m, n);
            if executed == GemmParams::default() {
                return None;
            }
            let (a, b) = (fill(1, m * k), fill(2, k * n));
            let run = |p: GemmParams| {
                let (a, b) = (&a, &b);
                move || {
                    std::hint::black_box(gemm_tiled(a, b, m, k, n, p));
                }
            };
            Some(interleaved_ratio(
                threads,
                run(executed),
                run(GemmParams::default()),
                calls,
            ))
        }
        Family::Conv => {
            let (ci, co, side) = playoff_conv(class);
            let executed = table.executed_conv(co, side * side);
            if executed == ConvParams::default() {
                return None;
            }
            let x = Tensor::from_f32(&[1, ci, side, side], fill(3, ci * side * side));
            let w = Tensor::from_f32(&[co, ci, 3, 3], fill(4, co * ci * 9));
            let sp = Spatial2d::same(3);
            let run = |p: ConvParams| {
                let (x, w, sp) = (&x, &w, &sp);
                move || {
                    std::hint::black_box(conv2d_with_params(x, w, None, sp, 1, p).expect("conv"));
                }
            };
            Some(interleaved_ratio(
                threads,
                run(executed),
                run(ConvParams::default()),
                calls,
            ))
        }
    }
}

/// One row per shape class from a table whose playoff ran in this
/// process. Asserts that every non-default variant the class executes
/// takes at most [`MAX_EXECUTED_OVER_DEFAULT`] × the default kernel's time
/// ([`executed_over_default`]).
fn mvc_class_entries(table: &VersionTable, profile: &DeviceProfile) -> Vec<MvcClassEntry> {
    let mut out = Vec::new();
    for class in ShapeClass::all() {
        let (gemm, modeled) = table.gemm_version(class);
        let (conv, conv_modeled) = table.conv_version(class);
        let (m, k, n) = representative_shape(class);
        let (co, spatial, kk) = representative_conv(class);
        let default_eff = gemm_efficiency(GemmParams::default(), m, k, n, profile);
        let conv_default = conv_efficiency(ConvParams::default(), co, spatial, kk, profile);
        for family in Family::ALL {
            if let Some(ratio) = executed_over_default(table, family, class) {
                eprintln!("{class:?} {}: executed/default {ratio:.3}", family.token());
                assert!(
                    ratio <= MAX_EXECUTED_OVER_DEFAULT,
                    "{class:?} {}: the executed variant took {ratio:.2}x the default's time \
                     (ceiling {MAX_EXECUTED_OVER_DEFAULT}x)",
                    family.token()
                );
            }
        }
        let playoff = |family| table.playoff(family, class).expect("the playoff ran");
        out.push(MvcClassEntry {
            name: format!("mvc_{}", format!("{class:?}").to_lowercase()),
            gemm_desc: format!(
                "tile {}x{}x{} unroll {} {:?} {:?}",
                gemm.tile_m, gemm.tile_n, gemm.tile_k, gemm.unroll, gemm.loop_order, gemm.micro
            ),
            conv_desc: format!(
                "block_oc {} tile_w {} {:?}",
                conv.block_oc, conv.tile_w, conv.loop_order
            ),
            modeled_efficiency: modeled,
            default_efficiency: default_eff,
            efficiency_gain_pct: (modeled - default_eff) / default_eff.max(1e-9) * 100.0,
            conv_modeled_efficiency: conv_modeled,
            conv_default_efficiency: conv_default,
            non_default_variant: usize::from(
                gemm != GemmParams::default() || conv != ConvParams::default(),
            ),
            gemm_playoff: playoff(Family::Gemm),
            conv_playoff: playoff(Family::Conv),
        });
    }
    out
}

/// Zoo-model MVC equivalence: each model runs with multi-version codegen on
/// and off; the outputs must agree bitwise (the variants are exact), and
/// the tuned path must actually dispatch baked variants (`variant_hits`
/// counts kernels executed from a baked tape selection, the default
/// kernel included where the playoff chose it).
struct MvcModelEntry {
    model: String,
    /// Baked-variant kernel dispatches in one tuned inference, the default
    /// kernel included (gated, lower-worse: baked selections must keep
    /// executing on real models).
    variant_hits: u64,
    /// 1 when tuned and default outputs agreed bitwise (gated; asserted
    /// in-binary too, so a mismatch aborts the bench before the gate).
    bitwise_equal_default: usize,
}

impl MvcModelEntry {
    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\"model\": \"{}\", \"variant_hits\": {}, ",
                "\"bitwise_equal_default\": {}}}"
            ),
            self.model, self.variant_hits, self.bitwise_equal_default,
        )
    }
}

fn mvc_model_entries() -> Vec<MvcModelEntry> {
    let mut out = Vec::new();
    for model in all_models(ModelScale::Tiny) {
        let mut rng = StdRng::seed_from_u64(17);
        let (_, inputs) = model.sample_inputs(&mut rng);
        let run = |mvc: bool| {
            let mut engine = Sod2Engine::new(
                model.graph.clone(),
                DeviceProfile::s888_cpu(),
                Sod2Options {
                    mvc,
                    ..Default::default()
                },
                &Default::default(),
            );
            engine.infer(&inputs).expect("infer").outputs
        };
        let (tuned, hits) = {
            let _session = sod2_obs::session_guard();
            sod2_obs::set_enabled(true);
            sod2_obs::begin();
            let tuned = run(true);
            let prof = sod2_obs::take();
            sod2_obs::set_enabled(false);
            (
                tuned,
                prof.counters.get("mvc.variant_hits").copied().unwrap_or(0),
            )
        };
        let default = run(false);
        let equal = tuned.len() == default.len()
            && tuned
                .iter()
                .zip(&default)
                .all(|(a, b)| a.payload_le_bytes() == b.payload_le_bytes());
        assert!(
            equal,
            "{}: MVC-tuned outputs diverged from default variants",
            model.name
        );
        out.push(MvcModelEntry {
            model: format!("mvc_{}", model.name),
            variant_hits: hits,
            bitwise_equal_default: usize::from(equal),
        });
    }
    assert!(
        out.iter().filter(|e| e.variant_hits > 0).count() >= 2,
        "baked MVC variants (the default kernel included) must execute on at least two zoo models"
    );
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| "BENCH_kernels.json".to_string())
    });

    let kernels = vec![
        gemm_entry(256, 256, 256, 1),
        gemm_entry(512, 512, 512, 1),
        // The hot short-seq shape (CodeBERT/Conformer at length 32).
        gemm_entry(32, 16, 32, 2000),
        conv_entry(32, 64, 56, 1),
        // The hot 3x3 shape of the large-image CNN classes.
        conv_entry(8, 8, 32, 20),
        elementwise_entry(),
        binary_mul_entry(),
        gelu_entry(),
        softmax_entry(),
    ];
    let mvc_profile = DeviceProfile::s888_cpu();
    // Cache off: the playoff runs here, on this build and pool width.
    let (mvc_table, _) = VersionTable::load_or_tune(&mvc_profile, 0xC0DE, None);
    let mvc_classes = mvc_class_entries(&mvc_table, &mvc_profile);
    let mvc_models = mvc_model_entries();

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("host cores: {host_cores}");
    for e in &kernels {
        eprintln!(
            "{:<10} {:<24} chunks={:<3} wall(1t)={:.4}s makespan speedup 2w={:.2}x 4w={:.2}x{}",
            e.name,
            e.desc,
            e.chunks,
            e.wall_secs[0],
            e.makespan_speedup(1),
            e.makespan_speedup(2),
            e.ratio_vs_naive
                .map(|r| format!(" vs naive {r:.2}x"))
                .unwrap_or_default(),
        );
    }
    for e in &mvc_classes {
        eprintln!(
            "{:<14} {:<36} eff={:.4} (default {:.4}, {:+.1}%) conv eff={:.4} \
             playoff gemm {:.3}/{:.3} ms conv {:.3}/{:.3} ms (tuned/default)",
            e.name,
            e.gemm_desc,
            e.modeled_efficiency,
            e.default_efficiency,
            e.efficiency_gain_pct,
            e.conv_modeled_efficiency,
            e.gemm_playoff.tuned_ms,
            e.gemm_playoff.default_ms,
            e.conv_playoff.tuned_ms,
            e.conv_playoff.default_ms,
        );
    }
    for e in &mvc_models {
        eprintln!(
            "{:<28} variant_hits={:<4} bitwise_equal_default={}",
            e.model, e.variant_hits, e.bitwise_equal_default,
        );
    }

    if let Some(path) = json_path {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"host_cores\": {host_cores},\n"));
        s.push_str(&format!(
            concat!(
                "  \"speedup_basis\": \"speedup_makespan is the greedy list-schedule of ",
                "per-chunk times, each the median of {} serial recordings, onto N ",
                "virtual workers (the pool's decomposition quality); wallclock_secs is ",
                "measured on this host and cannot exceed 1x scaling when host_cores is 1\",\n"
            ),
            CHUNK_RECORDINGS
        ));
        s.push_str("  \"kernels\": [\n");
        let k: Vec<String> = kernels.iter().map(KernelEntry::json).collect();
        s.push_str(&k.join(",\n"));
        s.push_str("\n  ],\n  \"mvc_classes\": [\n");
        let c: Vec<String> = mvc_classes.iter().map(MvcClassEntry::json).collect();
        s.push_str(&c.join(",\n"));
        s.push_str("\n  ],\n  \"mvc_models\": [\n");
        let m: Vec<String> = mvc_models.iter().map(MvcModelEntry::json).collect();
        s.push_str(&m.join(",\n"));
        s.push_str("\n  ]\n}\n");
        std::fs::write(&path, s).expect("write json");
        eprintln!("wrote {path}");
    }
}
