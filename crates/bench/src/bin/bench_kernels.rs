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
//! Each conv, GEMM and broadcast-multiply row also records
//! `ratio_vs_naive`: the one-thread wall time of the independent
//! reference (`conv2d_naive`, `gemm_naive`, `binary_naive`) over that of
//! the kernel, measured interleaved in this process as a median of runs.
//! It is informational (never gated), but the binary asserts a floor on
//! it — 2.0 for conv (`MIN_CONV_RATIO`), 0.5 for GEMM (`MIN_GEMM_RATIO`),
//! 8.0 for the broadcast multiply (`MIN_EW_RATIO`) — so a return to a
//! per-element conv loop, a packed GEMM tile walk or per-element
//! broadcast index arithmetic fails. The softmax row is informational.

use sod2_device::{conv_efficiency, gemm_efficiency, DeviceProfile, ShapeClass};
use sod2_frameworks::{Engine, Sod2Engine, Sod2Options};
use sod2_ir::{BinaryOp, Spatial2d};
use sod2_kernels::elementwise::{binary, binary_naive};
use sod2_kernels::reduce::softmax;
use sod2_kernels::{
    conv2d_naive, conv2d_with_params, gemm_naive, gemm_tiled, ConvParams, GemmParams,
};
use sod2_models::{all_models, ModelScale};
use sod2_mvc::{representative_conv, representative_shape, time_gemm_ms, VersionTable};
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

/// Median over 7 interleaved one-thread runs of `slow`'s wall time over
/// `fast`'s; each run times `calls` back-to-back calls of either side.
fn interleaved_ratio(slow: impl Fn(), fast: impl Fn(), calls: usize) -> f64 {
    let time = |f: &dyn Fn()| {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        t0.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..7)
        .map(|_| with_threads(1, || time(&slow) / time(&fast).max(1e-12)))
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
    /// Reference-over-kernel one-thread wall ratio (conv, GEMM and
    /// broadcast multiply rows).
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
    let ratio = interleaved_ratio(naive, tiled, calls);
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
    let ratio = interleaved_ratio(naive, conv, calls);
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
            std::hint::black_box(
                sod2_kernels::elementwise::unary(sod2_ir::UnaryOp::Exp, &x).expect("unary"),
            );
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
    let ratio = interleaved_ratio(naive, walk, 20);
    let desc = format!("1x{l}x{l} * 1 f32");
    assert!(
        ratio >= MIN_EW_RATIO,
        "binary_mul {desc}: only {ratio:.2}x faster than binary_naive (floor {MIN_EW_RATIO}x)"
    );
    let mut entry = KernelEntry::measure("binary_mul", desc, (l * l) as f64, walk);
    entry.ratio_vs_naive = Some(ratio);
    entry
}

/// Softmax over the last axis of StableDiffusion-Enc@40's attention
/// scores (informational).
fn softmax_entry() -> KernelEntry {
    let l = 400usize;
    let x = Tensor::from_f32(&[1, l, l], fill(7, l * l));
    KernelEntry::measure(
        "softmax",
        format!("1x{l}x{l} axis -1"),
        (l * l) as f64,
        move || {
            std::hint::black_box(softmax(&x, -1).expect("softmax"));
        },
    )
}

/// Per-shape-class multi-version codegen result: the tuned variant versus
/// the default parameters, on the modeled efficiency the tuner optimizes.
/// The modeled numbers and `non_default_variant` are deterministic (and
/// gated); the wallclock pair is measured on this host and informational.
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
    /// Host wallclock of the tuned / default variant (informational).
    selected_wall_secs: f64,
    default_wall_secs: f64,
}

impl MvcClassEntry {
    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\"name\": \"{}\", \"gemm\": \"{}\", \"conv\": \"{}\", ",
                "\"modeled_efficiency\": {:.4}, \"default_efficiency\": {:.4}, ",
                "\"efficiency_gain_pct\": {:.2}, \"conv_modeled_efficiency\": {:.4}, ",
                "\"conv_default_efficiency\": {:.4}, \"non_default_variant\": {}, ",
                "\"selected_wall_secs\": {:.6}, \"default_wall_secs\": {:.6}}}"
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
            self.selected_wall_secs,
            self.default_wall_secs,
        )
    }
}

fn mvc_class_entries(table: &VersionTable, profile: &DeviceProfile) -> Vec<MvcClassEntry> {
    let mut out = Vec::new();
    for class in ShapeClass::all() {
        let (gemm, modeled) = table.gemm_version(class);
        let (conv, conv_modeled) = table.conv_version(class);
        let (m, k, n) = representative_shape(class);
        let (co, spatial, kk) = representative_conv(class);
        let default_eff = gemm_efficiency(GemmParams::default(), m, k, n, profile);
        let conv_default = conv_efficiency(ConvParams::default(), co, spatial, kk, profile);
        // Scaled-down shape keeps the informational timing cheap.
        let (tm, tk, tn) = ((m / 4).max(1), (k / 4).max(1), (n / 4).max(1));
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
            selected_wall_secs: time_gemm_ms(gemm, tm, tk, tn, 3) / 1e3,
            default_wall_secs: time_gemm_ms(GemmParams::default(), tm, tk, tn, 3) / 1e3,
        });
    }
    out
}

/// Zoo-model MVC equivalence: each model runs with multi-version codegen on
/// and off; the outputs must agree bitwise (the variants are exact), and
/// the tuned path must actually dispatch non-default variants
/// (`variant_hits` counts kernels executed from a baked tape selection).
struct MvcModelEntry {
    model: String,
    /// Baked-variant kernel dispatches in one tuned inference (gated,
    /// lower-worse: variants must keep executing on real models).
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
        "non-default MVC variants must execute on at least two zoo models"
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
        softmax_entry(),
    ];
    let mvc_profile = DeviceProfile::s888_cpu();
    let mvc_table = VersionTable::tune(&mvc_profile, 0xC0DE);
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
            "{:<14} {:<36} eff={:.4} (default {:.4}, {:+.1}%) conv eff={:.4}",
            e.name,
            e.gemm_desc,
            e.modeled_efficiency,
            e.default_efficiency,
            e.efficiency_gain_pct,
            e.conv_modeled_efficiency,
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
