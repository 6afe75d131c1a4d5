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
//!    efficiency model, and an optional final top-K playoff times the
//!    survivors on host wallclock (median-of-R). The playoff is reported
//!    but never selects — selection stays analytic so tuning is
//!    deterministic and a warm cache load reproduces a cold tune exactly.
//!
//! Tuned tables persist on disk ([`cache`]): production engines hit warm
//! cache and perform zero GA generations (`mvc.cache_hit` /
//! `mvc.ga_generations` counters prove it).
//!
//! - [`tune_for_class`]: the GA search over [`GemmParams`] for one shape
//!   class on one device,
//! - [`grid_search`]: an exhaustive reference over the same pruned space,
//! - [`VersionTable`]: the per-device version table with runtime selection,
//! - [`VersionTable::load_or_tune`]: the cache-aware entry point,
//! - [`versions_without_rdp`]: how many versions a shape-oblivious engine
//!   would need (one per distinct concrete shape).
//!
//! # Examples
//!
//! ```
//! use sod2_device::DeviceProfile;
//! use sod2_mvc::VersionTable;
//!
//! let table = VersionTable::tune(&DeviceProfile::s888_cpu(), 42);
//! // Runtime selection by output-matrix shape:
//! let params = table.select(2048, 64);
//! assert!(params.tile_m >= params.tile_n); // skinny → tall tiles
//! ```

pub mod cache;

pub use cache::{CacheError, CacheStatus, Provenance};
// Re-export the kernel parameter types so tuner consumers (CLI, bench)
// need not depend on sod2-kernels directly for table introspection.
pub use sod2_kernels::{ConvLoopOrder, ConvParams, GemmParams, LoopOrder, MicroKernel};

use sod2_device::{conv_efficiency, gemm_efficiency, DeviceProfile, ShapeClass};
use sod2_prng::rngs::StdRng;
use sod2_prng::{Rng, SeedableRng};
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

/// Configuration for the wallclock playoff — the second tuner stage.
#[derive(Debug, Clone, Copy)]
pub struct PlayoffOptions {
    /// How many of the GA's best distinct candidates to time.
    pub top_k: usize,
    /// Timing repetitions per candidate; the median is reported.
    pub reps: usize,
    /// Divisor applied to the representative dims (tests use > 1 to keep
    /// the timed problems tiny).
    pub scale: usize,
}

impl Default for PlayoffOptions {
    fn default() -> Self {
        PlayoffOptions {
            top_k: 3,
            reps: 5,
            scale: 1,
        }
    }
}

/// One timed playoff candidate.
#[derive(Debug, Clone, Copy)]
pub struct PlayoffEntry {
    /// The candidate configuration.
    pub params: GemmParams,
    /// Its analytic (selection-driving) efficiency.
    pub modeled: f64,
    /// Median-of-R wallclock for the representative problem, milliseconds.
    /// Informational only — never gated, never selecting.
    pub wallclock_ms: f64,
}

/// Per-class tuning report (what `sod2-cli tune` prints).
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// The shape class.
    pub class: ShapeClass,
    /// Selected GEMM version and its modeled efficiency.
    pub gemm: (GemmParams, f64),
    /// Selected CONV version and its modeled efficiency.
    pub conv: (ConvParams, f64),
    /// Wallclock playoff of the GA's top candidates (empty when the
    /// playoff stage was not requested). The first entry is the selected
    /// version.
    pub playoff: Vec<PlayoffEntry>,
}

/// Full tuning report across classes.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// One report per shape class.
    pub classes: Vec<ClassReport>,
    /// GA generations executed by this tune (0 for a warm cache load).
    pub ga_generations: u64,
}

/// Times one GEMM configuration on an `m × k × n` problem: median-of-reps
/// host wallclock in milliseconds. Informational only — wallclock never
/// participates in version selection (that would break determinism).
pub fn time_gemm_ms(params: GemmParams, m: usize, k: usize, n: usize, reps: usize) -> f64 {
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
    let a = fill(m * k, 1);
    let b = fill(k * n, 2);
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            let c = sod2_kernels::gemm_tiled(&a, &b, m, k, n, params);
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(c);
            dt
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// A per-device table of tuned kernel versions, one per shape class, for
/// both hotspot operator families (GEMM and CONV — paper §4.4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct VersionTable {
    versions: HashMap<ShapeClass, (GemmParams, f64)>,
    conv_versions: HashMap<ShapeClass, (ConvParams, f64)>,
    /// The device's untuned baseline efficiency.
    pub base_efficiency: f64,
}

impl VersionTable {
    /// Tunes all shape classes (GA for GEMM, grid for CONV). No caching,
    /// no playoff — the deterministic core.
    pub fn tune(profile: &DeviceProfile, seed: u64) -> VersionTable {
        Self::tune_with_report(profile, seed, None).0
    }

    /// Tunes all shape classes and reports per-class detail, optionally
    /// timing the GA's top-K candidates on host wallclock. The playoff is
    /// informational: selection is always the analytic best, so the
    /// resulting table is identical with and without it.
    pub fn tune_with_report(
        profile: &DeviceProfile,
        seed: u64,
        playoff: Option<PlayoffOptions>,
    ) -> (VersionTable, TuneReport) {
        let span = sod2_obs::span!("mvc", "tune");
        let space = KernelSpace::hierarchized(profile);
        let mut versions = HashMap::new();
        let mut conv_versions = HashMap::new();
        let mut classes = Vec::new();
        let mut ga_generations = 0u64;
        for class in ShapeClass::all() {
            let (m, k, n) = representative_shape(class);
            let ranked = ga_search(&space, m, k, n, profile, seed ^ class as u64);
            ga_generations += GENERATIONS as u64;
            let best = ranked[0];
            let conv = tune_conv_for_class(class, profile);
            let entries = match playoff {
                Some(opts) => {
                    let scale = opts.scale.max(1);
                    let (pm, pk, pn) = ((m / scale).max(1), (k / scale).max(1), (n / scale).max(1));
                    ranked
                        .iter()
                        .take(opts.top_k.max(1))
                        .map(|&(params, modeled)| PlayoffEntry {
                            params,
                            modeled,
                            wallclock_ms: time_gemm_ms(params, pm, pk, pn, opts.reps),
                        })
                        .collect()
                }
                None => Vec::new(),
            };
            versions.insert(class, best);
            conv_versions.insert(class, conv);
            classes.push(ClassReport {
                class,
                gemm: best,
                conv,
                playoff: entries,
            });
        }
        drop(span);
        (
            VersionTable {
                versions,
                conv_versions,
                base_efficiency: profile.base_efficiency,
            },
            TuneReport {
                classes,
                ga_generations,
            },
        )
    }

    /// Cache-aware construction: loads the table for (device, space, seed)
    /// from `dir` when a valid entry exists (zero GA generations), else
    /// tunes and installs the result. `dir = None` disables caching.
    ///
    /// Counters: `mvc.cache_hit` / `mvc.cache_miss`.
    pub fn load_or_tune(
        profile: &DeviceProfile,
        seed: u64,
        dir: Option<&Path>,
    ) -> (VersionTable, CacheStatus) {
        let Some(dir) = dir else {
            return (
                Self::tune(profile, seed),
                CacheStatus {
                    provenance: Provenance::Disabled,
                    rejected: None,
                    write_error: None,
                    path: None,
                },
            );
        };
        let space_hash = KernelSpace::hierarchized(profile).version_hash();
        let path = cache::cache_file(dir, profile, space_hash, seed);
        let rejected = match cache::load(dir, profile, space_hash, seed) {
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
        let table = Self::tune(profile, seed);
        let write_error = cache::store(dir, profile, space_hash, seed, &table).err();
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

    /// Number of kernel versions in the table (the paper's point: RDP
    /// bounds this at the number of shape classes).
    pub fn num_versions(&self) -> usize {
        self.versions.len() + self.conv_versions.len()
    }

    /// Selects the tuned GEMM configuration for an output matrix `m × n`.
    pub fn select(&self, m: usize, n: usize) -> GemmParams {
        self.versions[&ShapeClass::of(m, n)].0
    }

    /// Selects the tuned CONV configuration for an output of `co` channels
    /// by `spatial` positions.
    pub fn select_conv(&self, co: usize, spatial: usize) -> ConvParams {
        self.conv_versions[&ShapeClass::of(co, spatial)].0
    }

    /// The tuned GEMM version and modeled efficiency for a class.
    pub fn gemm_version(&self, class: ShapeClass) -> (GemmParams, f64) {
        self.versions[&class]
    }

    /// The tuned CONV version and modeled efficiency for a class.
    pub fn conv_version(&self, class: ShapeClass) -> (ConvParams, f64) {
        self.conv_versions[&class]
    }

    /// The modeled efficiency of the selected GEMM version for `m × n`.
    pub fn efficiency(&self, m: usize, n: usize) -> f64 {
        self.versions[&ShapeClass::of(m, n)].1
    }

    /// The modeled efficiency of the selected CONV version.
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
    //! (`mvc.ga_generations`, `mvc.cache_hit`, `mvc.cache_miss`) are
    //! process-global, and `warm_load_runs_zero_ga_generations` reads them
    //! with profiling enabled.
    use super::*;

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
        let skinny = table.select(4096, 32);
        let fat = table.select(32, 4096);
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

    #[test]
    fn playoff_reports_but_never_selects() {
        let _serial = sod2_obs::session_guard();
        let p = DeviceProfile::s888_cpu();
        let (plain, _) = VersionTable::tune_with_report(&p, 9, None);
        let (timed, report) = VersionTable::tune_with_report(
            &p,
            9,
            Some(PlayoffOptions {
                top_k: 2,
                reps: 1,
                scale: 16,
            }),
        );
        assert_eq!(plain, timed, "wallclock must not influence selection");
        for cr in &report.classes {
            assert!(!cr.playoff.is_empty());
            assert_eq!(cr.playoff[0].params, cr.gemm.0);
            for e in &cr.playoff {
                assert!(e.wallclock_ms >= 0.0);
            }
        }
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
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_keys_isolate_devices_and_seeds() {
        let _serial = sod2_obs::session_guard();
        let dir = tempdir("keys");
        let (a, _) = VersionTable::load_or_tune(&DeviceProfile::s888_cpu(), 1, Some(&dir));
        let (b, sb) = VersionTable::load_or_tune(&DeviceProfile::s835_gpu(), 1, Some(&dir));
        assert_eq!(sb.provenance, Provenance::Miss, "cross-device hit");
        let (_, sc) = VersionTable::load_or_tune(&DeviceProfile::s888_cpu(), 2, Some(&dir));
        assert_eq!(sc.provenance, Provenance::Miss, "cross-seed hit");
        assert_ne!(a, b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_cache_file_is_rejected_and_retuned() {
        let _serial = sod2_obs::session_guard();
        let dir = tempdir("truncated");
        let p = DeviceProfile::s888_cpu();
        let (cold, s1) = VersionTable::load_or_tune(&p, 5, Some(&dir));
        let path = s1.path.expect("path");
        let text = std::fs::read_to_string(&path).expect("read");
        let half: String = text.lines().take(5).collect::<Vec<_>>().join("\n");
        std::fs::write(&path, half).expect("truncate");
        let (again, s2) = VersionTable::load_or_tune(&p, 5, Some(&dir));
        assert_eq!(s2.provenance, Provenance::Miss);
        assert!(
            matches!(s2.rejected, Some(CacheError::Parse { .. })),
            "want Parse diagnostic, got {:?}",
            s2.rejected
        );
        assert_eq!(cold, again, "retune must reproduce the table");
        // The retune repaired the file: next load hits.
        let (_, s3) = VersionTable::load_or_tune(&p, 5, Some(&dir));
        assert_eq!(s3.provenance, Provenance::Hit);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_cache_file_is_rejected_and_retuned() {
        let _serial = sod2_obs::session_guard();
        let dir = tempdir("garbage");
        let p = DeviceProfile::s835_cpu();
        let (cold, s1) = VersionTable::load_or_tune(&p, 8, Some(&dir));
        std::fs::write(s1.path.expect("path"), b"\x00\xffnot a table\nat all\n").expect("scribble");
        let (again, s2) = VersionTable::load_or_tune(&p, 8, Some(&dir));
        assert_eq!(s2.provenance, Provenance::Miss);
        assert!(s2.rejected.is_some(), "garbage must surface a diagnostic");
        assert_eq!(cold, again);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_seed_header_is_typed() {
        let _serial = sod2_obs::session_guard();
        let dir = tempdir("stale");
        let p = DeviceProfile::s888_cpu();
        let (_, s1) = VersionTable::load_or_tune(&p, 3, Some(&dir));
        let path = s1.path.expect("path");
        // Corrupt the seed header only.
        let text = std::fs::read_to_string(&path).expect("read");
        let swapped = text.replace("seed 3", "seed 4");
        std::fs::write(&path, swapped).expect("write");
        let (_, s2) = VersionTable::load_or_tune(&p, 3, Some(&dir));
        assert!(
            matches!(s2.rejected, Some(CacheError::Stale { field: "seed", .. })),
            "want Stale seed, got {:?}",
            s2.rejected
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_load_runs_zero_ga_generations() {
        let _serial = sod2_obs::session_guard();
        let dir = tempdir("zero-gen");
        let p = DeviceProfile::s888_cpu();
        sod2_obs::set_enabled(true);
        sod2_obs::begin();
        let (cold, _) = VersionTable::load_or_tune(&p, 0xBEEF, Some(&dir));
        let cold_prof = sod2_obs::take();
        assert!(
            cold_prof
                .counters
                .get("mvc.ga_generations")
                .copied()
                .unwrap_or(0)
                > 0,
            "cold tune must run the GA"
        );
        assert_eq!(cold_prof.counters.get("mvc.cache_miss"), Some(&1));
        sod2_obs::begin();
        let (warm, _) = VersionTable::load_or_tune(&p, 0xBEEF, Some(&dir));
        let warm_prof = sod2_obs::take();
        sod2_obs::set_enabled(false);
        assert_eq!(
            warm_prof.counters.get("mvc.ga_generations"),
            None,
            "warm load must run zero GA generations"
        );
        assert_eq!(warm_prof.counters.get("mvc.cache_hit"), Some(&1));
        assert_eq!(cold, warm);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Unique per-test scratch directory under the workspace target dir.
    fn tempdir(tag: &str) -> std::path::PathBuf {
        let base = std::env::temp_dir().join(format!("sod2-mvc-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        std::fs::create_dir_all(&base).expect("mk tempdir");
        base
    }
}
