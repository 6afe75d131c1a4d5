//! # sod2-mvc — multi-version code generation
//!
//! The paper's §4.4.2: hotspot operators (CONV/GEMM) get several tuned
//! kernel versions, selected at runtime by tensor shape. SoD² "relies on an
//! auto-tuner based on Genetic Algorithm to generate the exploration space
//! (e.g., tiling shapes, loop permutation, and unrolling settings)" and,
//! thanks to RDP, only needs versions per *shape class* (fat / regular /
//! skinny) instead of per concrete shape.
//!
//! The tuner is two-stage:
//! 1. a Vortex-style hierarchized space ([`KernelSpace::hierarchized`]):
//!    legality and cache-footprint pruning from the [`DeviceProfile`]
//!    removes dominated configurations *before* any sampling;
//! 2. the seeded GA explores the pruned space against the analytic
//!    efficiency model. Its winner per class is the **priced** selection:
//!    the cost model reads only it, so figures stay deterministic.
//!
//! What kernels **execute** is decided on the host: a playoff times each
//! (family, class)'s priced winner against the default kernel on the
//! class's playoff problem ([`playoff_gemm`], [`playoff_conv`]), and
//! execution runs the winner only when its median beats the default's by
//! [`PLAYOFF_MARGIN`]. Every variant is bitwise-equal to the default, so
//! this changes speed, never outputs.
//!
//! Tuned tables persist on disk ([`cache`]) under a device and host key:
//! production engines hit warm cache and perform zero GA generations and
//! zero playoff timings (`mvc.cache_hit`, `mvc.ga_generations` and
//! `mvc.playoff_timings` counters prove it).
//!
//! - [`tune_for_class`]: the GA search over [`GemmParams`] for one shape
//!   class on one device,
//! - [`grid_search`]: an exhaustive reference over the same pruned space,
//! - [`VersionTable`]: the per-device version table, priced and executed,
//! - [`VersionTable::load_or_tune`]: the cache-aware entry point, which
//!   also runs the playoff,
//! - [`versions_without_rdp`]: how many versions a shape-oblivious engine
//!   would need (one per distinct concrete shape).
//!
//! # Examples
//!
//! ```
//! use sod2_device::{DeviceProfile, ShapeClass};
//! use sod2_mvc::{GemmParams, VersionTable};
//!
//! let table = VersionTable::tune(&DeviceProfile::s888_cpu(), 42);
//! // The priced selection for a 2048 × 64 output:
//! let (params, _) = table.gemm_version(ShapeClass::of(2048, 64));
//! assert!(params.tile_m >= params.tile_n); // skinny → tall tiles
//! // `tune` runs no playoff, so execution keeps the default kernel:
//! assert_eq!(table.executed_gemm(2048, 64), GemmParams::default());
//! ```

pub mod cache;

pub use cache::{CacheError, CacheStatus, HostKey, Provenance};
// Re-export the kernel parameter types so tuner consumers (CLI, bench)
// need not depend on sod2-kernels directly for table introspection.
pub use sod2_kernels::{ConvLoopOrder, ConvParams, GemmParams, LoopOrder, MicroKernel};

use sod2_device::{conv_efficiency, gemm_efficiency, DeviceProfile, ShapeClass};
use sod2_ir::Spatial2d;
use sod2_prng::rngs::StdRng;
use sod2_prng::{Rng, SeedableRng};
use sod2_tensor::Tensor;
use std::collections::HashMap;
use std::path::Path;

/// Representative problem sizes per shape class, used as tuning targets.
pub fn representative_shape(class: ShapeClass) -> (usize, usize, usize) {
    match class {
        ShapeClass::Skinny => (2048, 256, 64),
        ShapeClass::Regular => (512, 512, 512),
        ShapeClass::Fat => (64, 256, 2048),
    }
}

const TILE_CHOICES: [usize; 7] = [2, 4, 8, 16, 32, 64, 128];
const UNROLL_CHOICES: [usize; 4] = [1, 2, 4, 8];

/// Bump when the searchable space changes shape (choices, enums, pruning
/// rules) — cached tables tuned over the old space are then stale.
const SPACE_VERSION: u32 = 1;

/// The hierarchized GEMM search space (Vortex-style, PAPERS.md): the full
/// cross product of tile triples × micro-kernels is pruned *sample-free*
/// against the device before the GA ever draws a candidate.
///
/// Two pruning levels:
/// 1. **legality** — a register block must fit inside its tile
///    (`tile_m ≥ MR`, `tile_n ≥ NR`), otherwise every block is remainder
///    and the micro-kernel degenerates to scalar;
/// 2. **cache footprint** — tile working sets beyond the L2/SLC budget are
///    dominated in the analytic model (the fit factor decays past half the
///    cache) and are dropped outright.
///
/// Loop order and unroll stay orthogonal axes: they never affect legality
/// or footprint.
#[derive(Debug, Clone)]
pub struct KernelSpace {
    /// Surviving `(tile_m, tile_n, tile_k, micro)` combinations, sorted.
    combos: Vec<(usize, usize, usize, MicroKernel)>,
    unrolls: Vec<usize>,
    orders: Vec<LoopOrder>,
}

/// A point in the pruned space: indices into the space's axes. Mutation
/// steps indices, so the step function is total by construction — there is
/// no raw parameter value that could fall outside the choice lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Genome {
    combo: usize,
    unroll: usize,
    order: usize,
}

impl KernelSpace {
    /// Builds the pruned space for a device.
    pub fn hierarchized(profile: &DeviceProfile) -> KernelSpace {
        let mut combos = Vec::new();
        for &tm in &TILE_CHOICES {
            for &tn in &TILE_CHOICES {
                for &tk in &TILE_CHOICES {
                    // Level 1: cache footprint (A + B + C tiles, f32).
                    // Past a quarter of the cache the analytic fit factor
                    // has already decayed — those points are dominated.
                    let footprint = 4 * (tm * tk + tk * tn + tm * tn);
                    if footprint > profile.cache_bytes / 4 {
                        continue;
                    }
                    for micro in MicroKernel::ALL {
                        // Level 2: legality — block fits the tile.
                        let (mr, nr) = micro.dims();
                        if tm < mr || tn < nr {
                            continue;
                        }
                        combos.push((tm, tn, tk, micro));
                    }
                }
            }
        }
        KernelSpace {
            combos,
            unrolls: UNROLL_CHOICES.to_vec(),
            orders: LoopOrder::ALL.to_vec(),
        }
    }

    /// Number of points in the pruned space.
    pub fn len(&self) -> usize {
        self.combos.len() * self.unrolls.len() * self.orders.len()
    }

    /// True when pruning removed everything (cannot happen for the stock
    /// profiles, but the GA guards on it).
    pub fn is_empty(&self) -> bool {
        self.combos.is_empty()
    }

    /// Stable hash of the searchable space: choices, enum tokens, pruning
    /// outcome, and [`SPACE_VERSION`]. Part of the cache key — a space
    /// change invalidates every cached table.
    pub fn version_hash(&self) -> u64 {
        let mut desc = format!("v{SPACE_VERSION};");
        for &(tm, tn, tk, micro) in &self.combos {
            desc.push_str(&format!("{tm}.{tn}.{tk}.{};", micro.token()));
        }
        for &u in &self.unrolls {
            desc.push_str(&format!("u{u};"));
        }
        for &o in &self.orders {
            desc.push_str(o.token());
            desc.push(';');
        }
        for &bo in &CONV_BLOCKS {
            desc.push_str(&format!("b{bo};"));
        }
        for &tw in &CONV_TILES {
            desc.push_str(&format!("t{tw};"));
        }
        for o in ConvLoopOrder::ALL {
            desc.push_str(o.token());
            desc.push(';');
        }
        cache::fnv1a(desc.as_bytes())
    }

    fn params_of(&self, g: Genome) -> GemmParams {
        let (tile_m, tile_n, tile_k, micro) = self.combos[g.combo];
        GemmParams {
            tile_m,
            tile_n,
            tile_k,
            unroll: self.unrolls[g.unroll],
            loop_order: self.orders[g.order],
            micro,
        }
    }

    fn random_genome(&self, rng: &mut StdRng) -> Genome {
        Genome {
            combo: rng.gen_range(0..self.combos.len()),
            unroll: rng.gen_range(0..self.unrolls.len()),
            order: rng.gen_range(0..self.orders.len()),
        }
    }

    /// Total mutation: one gene steps (combo ±1 within bounds) or
    /// resamples — every input genome maps to a valid genome.
    fn mutate(&self, g: Genome, rng: &mut StdRng) -> Genome {
        let mut q = g;
        match rng.gen_range(0..3) {
            0 => {
                let d = rng.gen_range(-1i64..=1);
                let ni = (q.combo as i64 + d).clamp(0, self.combos.len() as i64 - 1);
                q.combo = ni as usize;
            }
            1 => q.unroll = rng.gen_range(0..self.unrolls.len()),
            _ => q.order = rng.gen_range(0..self.orders.len()),
        }
        q
    }

    fn crossover(&self, a: Genome, b: Genome, rng: &mut StdRng) -> Genome {
        Genome {
            combo: if rng.gen_bool(0.5) { a.combo } else { b.combo },
            unroll: if rng.gen_bool(0.5) {
                a.unroll
            } else {
                b.unroll
            },
            order: if rng.gen_bool(0.5) { a.order } else { b.order },
        }
    }

    /// Deterministic stratified sample of `count` genomes, evenly spaced
    /// over the flattened index space — the sample-free exploration seed
    /// for the GA population.
    fn stratified(&self, count: usize) -> Vec<Genome> {
        let total = self.len().max(1);
        let count = count.min(total).max(1);
        (0..count)
            .map(|s| {
                let flat = s * total / count;
                let per_combo = self.unrolls.len() * self.orders.len();
                Genome {
                    combo: flat / per_combo,
                    unroll: (flat % per_combo) / self.orders.len(),
                    order: flat % self.orders.len(),
                }
            })
            .collect()
    }
}

const POP: usize = 24;
const GENERATIONS: usize = 30;

/// GA over the pruned space; returns the population's distinct best
/// configurations sorted by descending fitness (analytic efficiency).
fn ga_search(
    space: &KernelSpace,
    m: usize,
    k: usize,
    n: usize,
    profile: &DeviceProfile,
    seed: u64,
) -> Vec<(GemmParams, f64)> {
    if space.is_empty() {
        return vec![(
            GemmParams::default(),
            gemm_efficiency(GemmParams::default(), m, k, n, profile),
        )];
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let fitness = |g: Genome| gemm_efficiency(space.params_of(g), m, k, n, profile);

    // Seed the population with a stratified sweep (deterministic, sample-
    // free) so the GA starts from broad coverage of the pruned space, then
    // fill with random draws.
    let mut seeds: Vec<(Genome, f64)> = space
        .stratified(4 * POP)
        .into_iter()
        .map(|g| (g, fitness(g)))
        .collect();
    seeds.sort_by(|a, b| b.1.total_cmp(&a.1));
    seeds.truncate(POP / 2);
    let mut pop = seeds;
    while pop.len() < POP {
        let g = space.random_genome(&mut rng);
        pop.push((g, fitness(g)));
    }
    for _ in 0..GENERATIONS {
        sod2_obs::counter_add("mvc.ga_generations", 1);
        // NaN-proof elite selection: total_cmp gives a total order, so a
        // pathological fitness can never scramble the sort.
        pop.sort_by(|a, b| b.1.total_cmp(&a.1));
        pop.truncate(POP / 2);
        let elite = pop.len();
        while pop.len() < POP {
            let i = rng.gen_range(0..elite);
            let j = rng.gen_range(0..elite);
            let mut child = space.crossover(pop[i].0, pop[j].0, &mut rng);
            if rng.gen_bool(0.5) {
                child = space.mutate(child, &mut rng);
            }
            let f = fitness(child);
            pop.push((child, f));
        }
    }
    pop.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out: Vec<(GemmParams, f64)> = Vec::new();
    for (g, f) in pop {
        let p = space.params_of(g);
        if !out.iter().any(|(q, _)| *q == p) {
            out.push((p, f));
        }
    }
    out
}

/// Genetic-algorithm search for the best [`GemmParams`] for one shape
/// class on one device, over the hierarchized pruned space. Deterministic
/// for a given `seed`.
///
/// Returns the best configuration and its modeled efficiency.
pub fn tune_for_class(class: ShapeClass, profile: &DeviceProfile, seed: u64) -> (GemmParams, f64) {
    let space = KernelSpace::hierarchized(profile);
    let (m, k, n) = representative_shape(class);
    ga_search(&space, m, k, n, profile, seed ^ class as u64)[0]
}

/// Exhaustive search over the same pruned space — the reference optimum
/// used to validate the GA.
pub fn grid_search(class: ShapeClass, profile: &DeviceProfile) -> (GemmParams, f64) {
    let space = KernelSpace::hierarchized(profile);
    let (m, k, n) = representative_shape(class);
    let mut best = (GemmParams::default(), f64::MIN);
    for ci in 0..space.combos.len() {
        for ui in 0..space.unrolls.len() {
            for oi in 0..space.orders.len() {
                let p = space.params_of(Genome {
                    combo: ci,
                    unroll: ui,
                    order: oi,
                });
                let f = gemm_efficiency(p, m, k, n, profile);
                if f > best.1 {
                    best = (p, f);
                }
            }
        }
    }
    best
}

/// Representative conv workloads per shape class (`co`, `spatial`, `k`).
pub fn representative_conv(class: ShapeClass) -> (usize, usize, usize) {
    match class {
        // Deep & narrow: many channels, small feature map (late stages).
        ShapeClass::Skinny => (256, 64, 1152),
        ShapeClass::Regular => (64, 1024, 576),
        // Shallow & wide: few channels, large feature map (early stages).
        ShapeClass::Fat => (16, 16384, 27),
    }
}

const CONV_BLOCKS: [usize; 6] = [1, 2, 4, 8, 16, 32];
const CONV_TILES: [usize; 5] = [4, 8, 16, 32, 64];

/// Exhaustive search for the best conv configuration per class (the space
/// is tiny, so a grid suffices where GEMM uses the GA).
pub fn tune_conv_for_class(class: ShapeClass, profile: &DeviceProfile) -> (ConvParams, f64) {
    let (co, spatial, k) = representative_conv(class);
    let mut best = (ConvParams::default(), f64::MIN);
    for &bo in &CONV_BLOCKS {
        for &tw in &CONV_TILES {
            for lo in ConvLoopOrder::ALL {
                let p = ConvParams {
                    block_oc: bo,
                    tile_w: tw,
                    loop_order: lo,
                };
                let e = conv_efficiency(p, co, spatial, k, profile);
                if e > best.1 {
                    best = (p, e);
                }
            }
        }
    }
    best
}

/// Execution runs a priced winner only when its playoff median is below
/// this share of the default kernel's median.
pub const PLAYOFF_MARGIN: f64 = 0.95;

/// Timed runs per candidate in a playoff, at least; the median decides.
pub const PLAYOFF_RUNS: usize = 7;

/// Host time each candidate of a playoff runs for, at least, in
/// milliseconds. Short problems get more than [`PLAYOFF_RUNS`] runs, so a
/// burst of host noise lasting a few runs cannot decide them.
pub const PLAYOFF_MIN_MS: f64 = 100.0;

/// A hotspot operator family with tuned versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// MatMul / Gemm.
    Gemm,
    /// Conv2d.
    Conv,
}

impl Family {
    /// Both families.
    pub const ALL: [Family; 2] = [Family::Gemm, Family::Conv];

    /// Stable token for cache files and CLI/JSON output.
    pub fn token(self) -> &'static str {
        match self {
            Family::Gemm => "gemm",
            Family::Conv => "conv",
        }
    }
}

/// The host playoff's outcome for one (family, shape class): the medians
/// of the priced winner and of the default kernel on the class's
/// playoff problem, and which of the two execution runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Playoff {
    /// True when execution runs the priced winner; false runs the default
    /// kernel.
    pub tuned: bool,
    /// Median host wall time of the priced winner, milliseconds.
    pub tuned_ms: f64,
    /// Median host wall time of the default kernel, milliseconds.
    pub default_ms: f64,
}

impl Playoff {
    /// Applies the margin rule: the priced winner runs only when its
    /// median is below [`PLAYOFF_MARGIN`] × the default's.
    pub fn decide(tuned_ms: f64, default_ms: f64) -> Playoff {
        Playoff {
            tuned: tuned_ms < PLAYOFF_MARGIN * default_ms,
            tuned_ms,
            default_ms,
        }
    }

    /// Stable token for what executes: `tuned` or `default`.
    pub fn executed(&self) -> &'static str {
        if self.tuned {
            "tuned"
        } else {
            "default"
        }
    }
}

/// Times the priced winner against the default kernel with `time_ms`
/// (`true` runs the winner), interleaved, and decides by the medians of
/// their runs: at least [`PLAYOFF_RUNS`] each, and more until each has run
/// for [`PLAYOFF_MIN_MS`]. Each timed run counts once in
/// `mvc.playoff_timings`.
fn playoff(time_ms: &mut dyn FnMut(bool) -> f64) -> Playoff {
    let mut runs = [Vec::new(), Vec::new()];
    let mut spent = [0.0; 2];
    let mut r = 0;
    while r < PLAYOFF_RUNS || spent.iter().any(|&ms| ms < PLAYOFF_MIN_MS) {
        // Alternate which candidate goes first, so neither always runs
        // on caches the other warmed.
        for i in [r % 2, 1 - r % 2] {
            let ms = time_ms(i == 0);
            spent[i] += ms;
            runs[i].push(ms);
            sod2_obs::counter_add("mvc.playoff_timings", 1);
        }
        r += 1;
    }
    let [tuned_ms, default_ms] = runs.map(|mut t| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    });
    Playoff::decide(tuned_ms, default_ms)
}

/// The GEMM `(m, k, n)` each class's playoff times: the zoo's heaviest
/// GEMM of that class, or [`representative_shape`] where the zoo runs no
/// real work in the class. Each lies in its class.
pub fn playoff_gemm(class: ShapeClass) -> (usize, usize, usize) {
    match class {
        // StableDiffusion-Enc@40's attention context.
        ShapeClass::Skinny => (400, 400, 16),
        // StableDiffusion-Enc@40's attention scores.
        ShapeClass::Regular => (400, 16, 400),
        // The zoo's fat GEMMs are classifier heads of at most 264 MACs.
        ShapeClass::Fat => representative_shape(ShapeClass::Fat),
    }
}

/// The conv each class's playoff times, as `(ci, co, side)`: a 3×3,
/// stride-1, pad-1 conv from `ci` to `co` channels over a `side × side`
/// map. The zoo's heaviest conv of that class, or [`representative_conv`]
/// (`k / 9` input channels over a square map) where the zoo has none.
/// Each lies in its class.
pub fn playoff_conv(class: ShapeClass) -> (usize, usize, usize) {
    match class {
        // No zoo conv is skinny.
        ShapeClass::Skinny => {
            let (co, spatial, k) = representative_conv(class);
            (k / 9, co, spatial.isqrt())
        }
        // YOLO-V6@64's 4×4 neck convs.
        ShapeClass::Regular => (8, 8, 4),
        // SkipNet, BlockDrop and ConvNet-AIG@64's 32×32 block convs.
        ShapeClass::Fat => (8, 8, 32),
    }
}

/// One (family, class)'s playoff problem and its priced winner, built once
/// so every timed run reads the same inputs.
enum Problem {
    Gemm {
        a: Vec<f32>,
        b: Vec<f32>,
        mkn: (usize, usize, usize),
        tuned: GemmParams,
    },
    Conv {
        x: Tensor,
        w: Tensor,
        tuned: ConvParams,
    },
}

impl Problem {
    /// [`playoff_gemm`] or [`playoff_conv`] of `class`, with `table`'s
    /// priced winner there.
    fn new(table: &VersionTable, family: Family, class: ShapeClass) -> Problem {
        // Deterministic inputs; values don't matter for timing.
        let fill = |len: usize, salt: u32| -> Vec<f32> {
            let mut s = salt.wrapping_mul(0x9e37_79b9).wrapping_add(1);
            (0..len)
                .map(|_| {
                    s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    ((s >> 8) & 0xffff) as f32 / 65536.0 - 0.5
                })
                .collect()
        };
        match family {
            Family::Gemm => {
                let (m, k, n) = playoff_gemm(class);
                Problem::Gemm {
                    a: fill(m * k, 1),
                    b: fill(k * n, 2),
                    mkn: (m, k, n),
                    tuned: table.versions[&class].0,
                }
            }
            Family::Conv => {
                let (ci, co, side) = playoff_conv(class);
                Problem::Conv {
                    x: Tensor::from_f32(&[1, ci, side, side], fill(ci * side * side, 1)),
                    w: Tensor::from_f32(&[co, ci, 3, 3], fill(co * ci * 9, 2)),
                    tuned: table.conv_versions[&class].0,
                }
            }
        }
    }

    /// One host run of the priced winner (`tuned`) or the default kernel,
    /// in milliseconds, on the calling thread's pool width.
    fn time_ms(&self, tuned: bool) -> f64 {
        let t0 = std::time::Instant::now();
        match self {
            Problem::Gemm {
                a,
                b,
                mkn: (m, k, n),
                tuned: p,
            } => {
                let params = if tuned { *p } else { GemmParams::default() };
                std::hint::black_box(sod2_kernels::gemm_tiled(a, b, *m, *k, *n, params));
            }
            Problem::Conv { x, w, tuned: p } => {
                let params = if tuned { *p } else { ConvParams::default() };
                let y =
                    sod2_kernels::conv2d_with_params(x, w, None, &Spatial2d::same(3), 1, params);
                std::hint::black_box(y.expect("playoff conv is well-formed"));
            }
        }
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// A per-device table of tuned kernel versions, one per shape class, for
/// both hotspot operator families (GEMM and CONV — paper §4.4.2).
///
/// The table has two sides. The **priced** side ([`Self::gemm_version`],
/// [`Self::conv_version`], [`Self::efficiency`],
/// [`Self::conv_efficiency_of`]) holds the analytic winners; the cost
/// model reads only it, so it is deterministic for a (device, seed). The
/// **executed** side ([`Self::executed_gemm`], [`Self::executed_conv`])
/// is what kernels run: a priced winner only where the host playoff
/// showed it beating the default kernel, else the default.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionTable {
    versions: HashMap<ShapeClass, (GemmParams, f64)>,
    conv_versions: HashMap<ShapeClass, (ConvParams, f64)>,
    /// The device's untuned baseline efficiency.
    pub base_efficiency: f64,
    /// Host playoff outcomes per (family, class). A class without one
    /// executes the default kernel.
    playoffs: HashMap<(Family, ShapeClass), Playoff>,
}

impl VersionTable {
    /// Tunes the priced side of all shape classes (GA for GEMM, grid for
    /// CONV). No caching, no playoff: the deterministic core, which
    /// executes the default kernel everywhere.
    pub fn tune(profile: &DeviceProfile, seed: u64) -> VersionTable {
        let _span = sod2_obs::span!("mvc", "tune");
        let space = KernelSpace::hierarchized(profile);
        let mut versions = HashMap::new();
        let mut conv_versions = HashMap::new();
        for class in ShapeClass::all() {
            let (m, k, n) = representative_shape(class);
            versions.insert(
                class,
                ga_search(&space, m, k, n, profile, seed ^ class as u64)[0],
            );
            conv_versions.insert(class, tune_conv_for_class(class, profile));
        }
        VersionTable {
            versions,
            conv_versions,
            base_efficiency: profile.base_efficiency,
            playoffs: HashMap::new(),
        }
    }

    /// Cache-aware construction: loads the table for (device, space, seed,
    /// host) from `dir` when a valid entry exists (zero GA generations,
    /// zero playoff timings), else tunes, runs the host playoff and
    /// installs the result. `dir = None` disables caching: every call
    /// tunes and runs the playoff.
    ///
    /// Counters: `mvc.cache_hit` / `mvc.cache_miss`,
    /// `mvc.ga_generations`, `mvc.playoff_timings`.
    pub fn load_or_tune(
        profile: &DeviceProfile,
        seed: u64,
        dir: Option<&Path>,
    ) -> (VersionTable, CacheStatus) {
        Self::load_or_tune_on(
            profile,
            seed,
            dir,
            &HostKey::current(),
            &mut Self::run_host_playoffs,
        )
    }

    /// [`Self::load_or_tune`] for an explicit host key, with `play` running
    /// the playoffs of a freshly tuned table.
    fn load_or_tune_on(
        profile: &DeviceProfile,
        seed: u64,
        dir: Option<&Path>,
        host: &HostKey,
        play: &mut dyn FnMut(&mut VersionTable),
    ) -> (VersionTable, CacheStatus) {
        let mut tune = || {
            let mut table = Self::tune(profile, seed);
            play(&mut table);
            table
        };
        let Some(dir) = dir else {
            return (
                tune(),
                CacheStatus {
                    provenance: Provenance::Disabled,
                    rejected: None,
                    write_error: None,
                    path: None,
                },
            );
        };
        let space_hash = KernelSpace::hierarchized(profile).version_hash();
        let path = cache::cache_file(dir, profile, space_hash, seed, host);
        let rejected = match cache::load(dir, profile, space_hash, seed, host) {
            Ok(table) => {
                sod2_obs::counter_add("mvc.cache_hit", 1);
                return (
                    table,
                    CacheStatus {
                        provenance: Provenance::Hit,
                        rejected: None,
                        write_error: None,
                        path: Some(path),
                    },
                );
            }
            // A missing file is the ordinary cold-start miss; anything
            // else is a corrupt/stale entry worth reporting.
            Err(CacheError::Io { .. }) => None,
            Err(e) => Some(e),
        };
        sod2_obs::counter_add("mvc.cache_miss", 1);
        let table = tune();
        let write_error = cache::store(dir, profile, space_hash, seed, host, &table).err();
        (
            table,
            CacheStatus {
                provenance: Provenance::Miss,
                rejected,
                write_error,
                path: Some(path),
            },
        )
    }

    /// Runs the playoff of every (family, class), its priced winner against
    /// the default kernel, with `time_ms(family, class, tuned)` timing one
    /// run of either.
    fn run_playoffs(&mut self, time_ms: &mut dyn FnMut(Family, ShapeClass, bool) -> f64) {
        let _span = sod2_obs::span!("mvc", "playoff");
        for class in ShapeClass::all() {
            for family in Family::ALL {
                let p = playoff(&mut |tuned| time_ms(family, class, tuned));
                self.playoffs.insert((family, class), p);
            }
        }
    }

    /// [`Self::run_playoffs`] on the host, each (family, class) on its
    /// playoff problem.
    fn run_host_playoffs(&mut self) {
        let problems: HashMap<(Family, ShapeClass), Problem> = ShapeClass::all()
            .into_iter()
            .flat_map(|c| Family::ALL.map(|f| ((f, c), Problem::new(self, f, c))))
            .collect();
        self.run_playoffs(&mut |family, class, tuned| problems[&(family, class)].time_ms(tuned));
    }

    /// Records a playoff outcome for one (family, class), which sets what
    /// execution runs there. The priced side does not change.
    pub fn set_playoff(&mut self, family: Family, class: ShapeClass, playoff: Playoff) {
        self.playoffs.insert((family, class), playoff);
    }

    /// The playoff outcome for one (family, class), if one ran.
    pub fn playoff(&self, family: Family, class: ShapeClass) -> Option<Playoff> {
        self.playoffs.get(&(family, class)).copied()
    }

    /// Whether execution runs the priced winner for (family, class).
    fn runs_tuned(&self, family: Family, class: ShapeClass) -> bool {
        self.playoff(family, class).is_some_and(|p| p.tuned)
    }

    /// Number of kernel versions in the table (the paper's point: RDP
    /// bounds this at the number of shape classes).
    pub fn num_versions(&self) -> usize {
        self.versions.len() + self.conv_versions.len()
    }

    /// Executed: the GEMM configuration kernels run for an output matrix
    /// `m × n`. Pricing never reads it.
    pub fn executed_gemm(&self, m: usize, n: usize) -> GemmParams {
        let class = ShapeClass::of(m, n);
        if self.runs_tuned(Family::Gemm, class) {
            self.versions[&class].0
        } else {
            GemmParams::default()
        }
    }

    /// Executed: the CONV configuration kernels run for an output of `co`
    /// channels by `spatial` positions. Pricing never reads it.
    pub fn executed_conv(&self, co: usize, spatial: usize) -> ConvParams {
        let class = ShapeClass::of(co, spatial);
        if self.runs_tuned(Family::Conv, class) {
            self.conv_versions[&class].0
        } else {
            ConvParams::default()
        }
    }

    /// Priced: the tuned GEMM version and modeled efficiency for a class.
    pub fn gemm_version(&self, class: ShapeClass) -> (GemmParams, f64) {
        self.versions[&class]
    }

    /// Priced: the tuned CONV version and modeled efficiency for a class.
    pub fn conv_version(&self, class: ShapeClass) -> (ConvParams, f64) {
        self.conv_versions[&class]
    }

    /// Priced: the modeled efficiency of the tuned GEMM version for
    /// `m × n`.
    pub fn efficiency(&self, m: usize, n: usize) -> f64 {
        self.versions[&ShapeClass::of(m, n)].1
    }

    /// Priced: the modeled efficiency of the tuned CONV version.
    pub fn conv_efficiency_of(&self, co: usize, spatial: usize) -> f64 {
        self.conv_versions[&ShapeClass::of(co, spatial)].1
    }
}

/// Versions a shape-oblivious multi-version scheme needs: one per distinct
/// concrete output shape observed (what static engines pre-generate, or
/// re-tune on every re-initialization).
pub fn versions_without_rdp(shapes: &[(usize, usize)]) -> usize {
    let mut distinct: Vec<(usize, usize)> = shapes.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.len()
}

#[cfg(test)]
mod tests {
    //! Every test that runs the GA or touches the cache holds
    //! `sod2_obs::session_guard()`: the counters they bump
    //! (`mvc.ga_generations`, `mvc.playoff_timings`, `mvc.cache_hit`,
    //! `mvc.cache_miss`) are process-global, and
    //! `warm_load_runs_zero_ga_generations_and_zero_timings` reads them
    //! with profiling enabled.
    //!
    //! Cache tests time the playoff with [`fake_ms`], not the host, so
    //! they are fast and their executed choices are deterministic.
    use super::*;

    /// A deterministic stand-in for host timing: the default kernel takes
    /// a second; the priced winner takes a per-(family, class) share of
    /// that spanning both sides of the margin. Every run exceeds
    /// `PLAYOFF_MIN_MS`, so each playoff makes exactly `PLAYOFF_RUNS` runs
    /// per candidate.
    fn fake_ms(family: Family, class: ShapeClass, tuned: bool) -> f64 {
        if !tuned {
            return 1e3;
        }
        1e3 * match (family, class) {
            (Family::Gemm, ShapeClass::Skinny) => 3.0,
            (Family::Gemm, ShapeClass::Regular) => PLAYOFF_MARGIN,
            (Family::Gemm, ShapeClass::Fat) => 0.5,
            (Family::Conv, ShapeClass::Skinny) => 1.4,
            (Family::Conv, ShapeClass::Regular) => 0.949,
            (Family::Conv, ShapeClass::Fat) => 0.88,
        }
    }

    /// `load_or_tune` with the fake timer under `host`.
    fn load_or_tune_fake(
        p: &DeviceProfile,
        seed: u64,
        dir: &Path,
        host: &HostKey,
    ) -> (VersionTable, CacheStatus) {
        VersionTable::load_or_tune_on(p, seed, Some(dir), host, &mut |t| {
            t.run_playoffs(&mut fake_ms)
        })
    }

    /// The priced side alone: the table as `tune` builds it.
    fn priced(t: &VersionTable) -> VersionTable {
        VersionTable {
            playoffs: HashMap::new(),
            ..t.clone()
        }
    }

    #[test]
    fn ga_matches_grid_search_closely() {
        let _serial = sod2_obs::session_guard();
        let p = DeviceProfile::s888_cpu();
        for class in ShapeClass::all() {
            let (_, ga) = tune_for_class(class, &p, 7);
            let (_, grid) = grid_search(class, &p);
            assert!(ga >= 0.95 * grid, "{class:?}: GA {ga:.3} vs grid {grid:.3}");
        }
    }

    #[test]
    fn tuned_beats_baseline() {
        let _serial = sod2_obs::session_guard();
        let p = DeviceProfile::s835_gpu();
        let table = VersionTable::tune(&p, 11);
        for class in ShapeClass::all() {
            let (m, _, n) = representative_shape(class);
            assert!(table.efficiency(m, n) > p.base_efficiency);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let _serial = sod2_obs::session_guard();
        let p = DeviceProfile::s888_cpu();
        let a = tune_for_class(ShapeClass::Regular, &p, 3);
        let b = tune_for_class(ShapeClass::Regular, &p, 3);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn table_has_versions_per_family_and_class() {
        let _serial = sod2_obs::session_guard();
        let table = VersionTable::tune(&DeviceProfile::s888_cpu(), 1);
        assert_eq!(table.num_versions(), 6); // 3 GEMM + 3 CONV
    }

    #[test]
    fn conv_tuning_beats_baseline() {
        let _serial = sod2_obs::session_guard();
        let p = DeviceProfile::s835_cpu();
        let table = VersionTable::tune(&p, 2);
        for class in ShapeClass::all() {
            let (co, spatial, _) = super::representative_conv(class);
            assert!(table.conv_efficiency_of(co, spatial) > p.base_efficiency);
        }
    }

    #[test]
    fn version_counting_without_rdp() {
        let shapes = vec![(224, 64), (224, 64), (256, 64), (320, 64)];
        assert_eq!(versions_without_rdp(&shapes), 3);
    }

    #[test]
    fn selection_by_shape_class() {
        let _serial = sod2_obs::session_guard();
        let table = VersionTable::tune(&DeviceProfile::s888_cpu(), 5);
        let (skinny, _) = table.gemm_version(ShapeClass::of(4096, 32));
        let (fat, _) = table.gemm_version(ShapeClass::of(32, 4096));
        // Tuned tiles should track the aspect.
        assert!(skinny.tile_m >= skinny.tile_n);
        assert!(fat.tile_n >= fat.tile_m);
    }

    #[test]
    fn hierarchized_space_prunes_illegal_combos() {
        let space = KernelSpace::hierarchized(&DeviceProfile::s888_cpu());
        assert!(!space.is_empty());
        // Full unpruned cross product: 343 triples × 4 micros.
        assert!(space.combos.len() < 343 * 4, "nothing pruned");
        for &(tm, tn, _, micro) in &space.combos {
            let (mr, nr) = micro.dims();
            assert!(tm >= mr && tn >= nr, "illegal combo survived");
        }
        // Small-cache devices prune more.
        let small = KernelSpace::hierarchized(&DeviceProfile::s835_gpu());
        assert!(small.combos.len() < space.combos.len());
    }

    #[test]
    fn space_hash_differs_per_device_pruning() {
        let a = KernelSpace::hierarchized(&DeviceProfile::s888_cpu()).version_hash();
        let b = KernelSpace::hierarchized(&DeviceProfile::s835_gpu()).version_hash();
        assert_ne!(a, b);
    }

    /// Every playoff problem lies in the class whose decision it makes.
    #[test]
    fn playoff_problems_lie_in_their_class() {
        for class in ShapeClass::all() {
            let (m, _, n) = playoff_gemm(class);
            assert_eq!(ShapeClass::of(m, n), class, "GEMM {m}x{n}");
            let (_, co, side) = playoff_conv(class);
            assert_eq!(
                ShapeClass::of(co, side * side),
                class,
                "conv {co}@{side}x{side}"
            );
        }
    }

    /// The playoff sets what executes and nothing else: the priced side
    /// after a playoff equals the table `tune` builds, and the executed
    /// lookups follow the playoff.
    #[test]
    fn playoff_never_changes_the_priced_table() {
        let _serial = sod2_obs::session_guard();
        let p = DeviceProfile::s888_cpu();
        let plain = VersionTable::tune(&p, 9);
        let mut timed = plain.clone();
        timed.run_playoffs(&mut fake_ms);
        assert_eq!(priced(&timed), plain, "the playoff moved the priced side");
        for class in ShapeClass::all() {
            assert_eq!(timed.gemm_version(class), plain.gemm_version(class));
            assert_eq!(timed.conv_version(class), plain.conv_version(class));
            let (m, _, n) = representative_shape(class);
            let (co, spatial, _) = representative_conv(class);
            assert_eq!(timed.efficiency(m, n), plain.efficiency(m, n));
            assert_eq!(
                timed.conv_efficiency_of(co, spatial),
                plain.conv_efficiency_of(co, spatial)
            );
            // `tune` executes the default everywhere.
            assert_eq!(plain.executed_gemm(m, n), GemmParams::default());
            assert_eq!(plain.executed_conv(co, spatial), ConvParams::default());
            let want_gemm = if timed.runs_tuned(Family::Gemm, class) {
                plain.gemm_version(class).0
            } else {
                GemmParams::default()
            };
            assert_eq!(timed.executed_gemm(m, n), want_gemm);
            let want_conv = if timed.runs_tuned(Family::Conv, class) {
                plain.conv_version(class).0
            } else {
                ConvParams::default()
            };
            assert_eq!(timed.executed_conv(co, spatial), want_conv);
        }
        // The fake timer puts the priced winner ahead in three of six.
        let tuned = ShapeClass::all()
            .into_iter()
            .flat_map(|c| Family::ALL.map(|f| timed.runs_tuned(f, c)))
            .filter(|&t| t)
            .count();
        assert_eq!(tuned, 3);
    }

    /// The margin rule on the stored numbers: every `exec` line a cold
    /// tune writes says `tuned` if and only if its stored tuned median is
    /// below `PLAYOFF_MARGIN` × its stored default median, and a line
    /// whose choice disagrees with its medians is rejected.
    #[test]
    fn tuned_is_recorded_iff_below_the_margin() {
        let _serial = sod2_obs::session_guard();
        let dir = tempdir("margin");
        let p = DeviceProfile::s888_cpu();
        let host = HostKey::current();
        let (_, s1) = load_or_tune_fake(&p, 21, &dir, &host);
        let path = s1.path.expect("path");
        let text = std::fs::read_to_string(&path).expect("read");
        let bits = |s: &str| f64::from_bits(u64::from_str_radix(s, 16).expect("hex"));
        let mut lines = 0;
        let mut flipped = None;
        for l in text.lines().filter(|l| l.starts_with("exec ")) {
            let toks: Vec<&str> = l.split_whitespace().collect();
            let (tuned_ms, default_ms) = (bits(toks[4]), bits(toks[5]));
            let below = tuned_ms < PLAYOFF_MARGIN * default_ms;
            assert_eq!(toks[3] == "tuned", below, "{l}");
            assert!(toks[3] == "tuned" || toks[3] == "default", "{l}");
            let other = if below { "default" } else { "tuned" };
            flipped.get_or_insert_with(|| text.replace(l, &l.replace(toks[3], other)));
            lines += 1;
        }
        assert_eq!(lines, 6, "one exec line per (family, class)");
        std::fs::write(&path, flipped.expect("exec lines")).expect("write");
        let (_, s2) = load_or_tune_fake(&p, 21, &dir, &host);
        assert!(
            matches!(s2.rejected, Some(CacheError::Parse { .. })),
            "a choice that disagrees with its medians must be rejected, got {:?}",
            s2.rejected
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutation_is_total_over_the_space() {
        let space = KernelSpace::hierarchized(&DeviceProfile::s835_gpu());
        let mut rng = StdRng::seed_from_u64(99);
        let mut g = space.random_genome(&mut rng);
        for _ in 0..2000 {
            g = space.mutate(g, &mut rng);
            assert!(g.combo < space.combos.len());
            assert!(g.unroll < space.unrolls.len());
            assert!(g.order < space.orders.len());
            // params_of must never panic.
            let _ = space.params_of(g);
        }
    }

    /// A warm load returns the stored table exactly, executed side
    /// included. This runs the real host playoff once.
    #[test]
    fn cache_round_trip_identical_table() {
        let _serial = sod2_obs::session_guard();
        let dir = tempdir("round-trip");
        let p = DeviceProfile::s888_cpu();
        let (cold, s1) = VersionTable::load_or_tune(&p, 0xC0DE, Some(&dir));
        assert_eq!(s1.provenance, Provenance::Miss);
        assert!(s1.write_error.is_none(), "{:?}", s1.write_error);
        let (warm, s2) = VersionTable::load_or_tune(&p, 0xC0DE, Some(&dir));
        assert_eq!(s2.provenance, Provenance::Hit);
        assert_eq!(cold, warm);
        assert_eq!(priced(&cold), VersionTable::tune(&p, 0xC0DE));
        for class in ShapeClass::all() {
            for family in Family::ALL {
                let po = cold.playoff(family, class).expect("playoff ran");
                assert!(po.tuned_ms > 0.0 && po.default_ms > 0.0, "{po:?}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_keys_isolate_devices_and_seeds() {
        let _serial = sod2_obs::session_guard();
        let dir = tempdir("keys");
        let host = HostKey::current();
        let (a, _) = load_or_tune_fake(&DeviceProfile::s888_cpu(), 1, &dir, &host);
        let (b, sb) = load_or_tune_fake(&DeviceProfile::s835_gpu(), 1, &dir, &host);
        assert_eq!(sb.provenance, Provenance::Miss, "cross-device hit");
        let (_, sc) = load_or_tune_fake(&DeviceProfile::s888_cpu(), 2, &dir, &host);
        assert_eq!(sc.provenance, Provenance::Miss, "cross-seed hit");
        assert_ne!(a, b);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An entry written under another host key misses: another pool
    /// width, or a v1 file. Neither is overwritten by the v2 store.
    #[test]
    fn cache_keys_isolate_hosts_and_format_versions() {
        let _serial = sod2_obs::session_guard();
        let dir = tempdir("hosts");
        let p = DeviceProfile::s888_cpu();
        let wide = HostKey {
            threads: 2,
            ..HostKey::current()
        };
        let narrow = HostKey {
            threads: 1,
            ..wide.clone()
        };
        let (_, s_wide) = load_or_tune_fake(&p, 4, &dir, &wide);
        let wide_path = s_wide.path.expect("path");
        let wide_bytes = std::fs::read(&wide_path).expect("read");
        let (_, s_narrow) = load_or_tune_fake(&p, 4, &dir, &narrow);
        assert_eq!(s_narrow.provenance, Provenance::Miss, "cross-width hit");
        assert_ne!(s_narrow.path.as_ref(), Some(&wide_path));
        assert_eq!(std::fs::read(&wide_path).expect("read"), wide_bytes);
        let (_, again) = load_or_tune_fake(&p, 4, &dir, &wide);
        assert_eq!(again.provenance, Provenance::Hit);

        // A v1 file under its own name is never read, and survives.
        let space = KernelSpace::hierarchized(&p).version_hash();
        let v1_name = format!(
            "vtable-{}-{space:016x}-5.txt",
            cache::device_fingerprint(&p)
        );
        let v1_path = dir.join(v1_name);
        let v1_text = as_v1(&String::from_utf8(wide_bytes).expect("utf8"));
        std::fs::write(&v1_path, &v1_text).expect("write v1");
        let (_, s_v1) = load_or_tune_fake(&p, 5, &dir, &wide);
        assert_eq!(s_v1.provenance, Provenance::Miss, "v1 file hit");
        assert_eq!(std::fs::read_to_string(&v1_path).expect("read v1"), v1_text);

        // A v1 file at the v2 path is stale on its magic line.
        let v2_path = s_v1.path.expect("path");
        std::fs::write(&v2_path, &v1_text).expect("write v1 at v2 path");
        let (_, s_stale) = load_or_tune_fake(&p, 5, &dir, &wide);
        assert!(
            matches!(
                s_stale.rejected,
                Some(CacheError::Stale { field: "magic", .. })
            ),
            "want Stale magic, got {:?}",
            s_stale.rejected
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The v1 layout of a v2 file's body: no host line, no exec lines.
    fn as_v1(v2: &str) -> String {
        v2.lines()
            .filter(|l| !l.starts_with("host ") && !l.starts_with("exec "))
            .map(|l| l.replace("sod2-mvc-cache v2", "sod2-mvc-cache v1") + "\n")
            .collect()
    }

    #[test]
    fn truncated_cache_file_is_rejected_and_retuned() {
        let _serial = sod2_obs::session_guard();
        let dir = tempdir("truncated");
        let p = DeviceProfile::s888_cpu();
        let host = HostKey::current();
        let (cold, s1) = load_or_tune_fake(&p, 5, &dir, &host);
        let path = s1.path.expect("path");
        let text = std::fs::read_to_string(&path).expect("read");
        let half: String = text.lines().take(5).collect::<Vec<_>>().join("\n");
        std::fs::write(&path, half).expect("truncate");
        let (again, s2) = load_or_tune_fake(&p, 5, &dir, &host);
        assert_eq!(s2.provenance, Provenance::Miss);
        assert!(
            matches!(s2.rejected, Some(CacheError::Parse { .. })),
            "want Parse diagnostic, got {:?}",
            s2.rejected
        );
        assert_eq!(
            priced(&cold),
            priced(&again),
            "retune must reproduce the priced table"
        );
        // The retune repaired the file: next load hits.
        let (_, s3) = load_or_tune_fake(&p, 5, &dir, &host);
        assert_eq!(s3.provenance, Provenance::Hit);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_cache_file_is_rejected_and_retuned() {
        let _serial = sod2_obs::session_guard();
        let dir = tempdir("garbage");
        let p = DeviceProfile::s835_cpu();
        let host = HostKey::current();
        let (cold, s1) = load_or_tune_fake(&p, 8, &dir, &host);
        std::fs::write(s1.path.expect("path"), b"\x00\xffnot a table\nat all\n").expect("scribble");
        let (again, s2) = load_or_tune_fake(&p, 8, &dir, &host);
        assert_eq!(s2.provenance, Provenance::Miss);
        assert!(s2.rejected.is_some(), "garbage must surface a diagnostic");
        assert_eq!(priced(&cold), priced(&again));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_seed_header_is_typed() {
        let _serial = sod2_obs::session_guard();
        let dir = tempdir("stale");
        let p = DeviceProfile::s888_cpu();
        let host = HostKey::current();
        let (_, s1) = load_or_tune_fake(&p, 3, &dir, &host);
        let path = s1.path.expect("path");
        // Corrupt the seed header only.
        let text = std::fs::read_to_string(&path).expect("read");
        let swapped = text.replace("seed 3", "seed 4");
        std::fs::write(&path, swapped).expect("write");
        let (_, s2) = load_or_tune_fake(&p, 3, &dir, &host);
        assert!(
            matches!(s2.rejected, Some(CacheError::Stale { field: "seed", .. })),
            "want Stale seed, got {:?}",
            s2.rejected
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_load_runs_zero_ga_generations_and_zero_timings() {
        let _serial = sod2_obs::session_guard();
        let dir = tempdir("zero-gen");
        let p = DeviceProfile::s888_cpu();
        let host = HostKey::current();
        sod2_obs::set_enabled(true);
        sod2_obs::begin();
        let (cold, _) = load_or_tune_fake(&p, 0xBEEF, &dir, &host);
        let cold_prof = sod2_obs::take();
        let count = |prof: &sod2_obs::Profile, k: &str| prof.counters.get(k).copied();
        assert!(
            count(&cold_prof, "mvc.ga_generations").unwrap_or(0) > 0,
            "cold tune must run the GA"
        );
        assert_eq!(
            count(&cold_prof, "mvc.playoff_timings"),
            Some(2 * 6 * PLAYOFF_RUNS as u64),
            "cold tune must time both candidates of every (family, class)"
        );
        assert_eq!(count(&cold_prof, "mvc.cache_miss"), Some(1));
        sod2_obs::begin();
        let (warm, _) = load_or_tune_fake(&p, 0xBEEF, &dir, &host);
        let warm_prof = sod2_obs::take();
        sod2_obs::set_enabled(false);
        assert_eq!(
            count(&warm_prof, "mvc.ga_generations"),
            None,
            "warm load must run zero GA generations"
        );
        assert_eq!(
            count(&warm_prof, "mvc.playoff_timings"),
            None,
            "warm load must run zero playoff timings"
        );
        assert_eq!(count(&warm_prof, "mvc.cache_hit"), Some(1));
        assert_eq!(cold, warm);
        for class in ShapeClass::all() {
            for family in Family::ALL {
                assert_eq!(warm.playoff(family, class), cold.playoff(family, class));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Unique per-test scratch directory under the system temp dir.
    fn tempdir(tag: &str) -> std::path::PathBuf {
        let base = std::env::temp_dir().join(format!("sod2-mvc-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        std::fs::create_dir_all(&base).expect("mk tempdir");
        base
    }
}
