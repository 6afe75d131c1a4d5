//! # sod2-faults — deterministic fault injection for the SoD² runtime
//!
//! A hermetic (std-only) fault-injection subsystem in the style of
//! `sod2-obs`: **zero-cost when disarmed** (one relaxed atomic load per
//! probe) and compile-out-able with the `compile-off` feature. Probes are
//! threaded through the layers a production inference can fail in:
//!
//! | site                  | fault simulated                   | hardening exercised                |
//! |-----------------------|-----------------------------------|------------------------------------|
//! | [`Site::KernelError`] | a kernel returning an error       | typed `ExecError::Kernel`          |
//! | [`Site::KernelNan`]   | NaN-poisoned kernel output        | `nan_guard` numeric fence          |
//! | [`Site::KernelDelay`] | an artificially slow kernel       | deadline / cancellation            |
//! | [`Site::KernelStall`] | a hung kernel (stall, then abort) | replica supervision / rebuild      |
//! | [`Site::PoolPanic`]   | a panic inside a pool chunk       | worker survival + node unwind      |
//! | [`Site::Bindings`]    | corrupted symbol bindings         | empty DMP layout, all-heap pricing |
//!
//! A [`FaultPlan`] decides *when* a probe fires: on the k-th hit
//! (`nth=K`), on every k-th hit (`every=K`), or with probability `p`
//! (`prob=P`, drawn from a seeded [`sod2_prng`] stream so sweeps are
//! reproducible). Plans are built programmatically ([`FaultPlan::new`] +
//! [`FaultPlan::rule`]) or parsed from the `SOD2_FAULTS` environment
//! variable at the first probe:
//!
//! ```text
//! SOD2_FAULTS="kernel.error:nth=3;kernel.delay:every=2,us=500;seed=7"
//! ```
//!
//! Every fired fault is also reported to `sod2-obs` as a
//! `faults.fired.<site>` counter, so chaos runs show up in profiles.
//!
//! # Examples
//!
//! ```
//! use sod2_faults::{FaultPlan, Site, Trigger};
//!
//! let _x = sod2_faults::exclusive(); // fault state is process-global
//! let plan = FaultPlan::new(42).rule(Site::KernelError, Trigger::Nth(2), 0);
//! sod2_faults::install(plan);
//! assert!(sod2_faults::probe(Site::KernelError).is_none()); // hit 1
//! assert!(sod2_faults::probe(Site::KernelError).is_some()); // hit 2 fires
//! assert!(sod2_faults::probe(Site::KernelError).is_none()); // hit 3
//! sod2_faults::clear();
//! assert!(!sod2_faults::armed());
//! ```

use sod2_prng::{Rng, SeedableRng, StdRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Whether any plan is installed (runtime switch; see also `compile-off`).
static ARMED: AtomicBool = AtomicBool::new(false);
/// Whether `SOD2_FAULTS` has been consulted yet.
static ENV_CHECKED: AtomicBool = AtomicBool::new(false);
/// Total faults fired since the last [`install`]/[`clear`].
static FIRED: AtomicU64 = AtomicU64::new(0);

/// An injection point. Each site names both *where* the probe sits and
/// *what* failure it simulates — the acting code at the site knows how to
/// realize the fault (return an error, sleep, panic, corrupt a value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// `sod2-kernels`: the dispatched kernel returns an injected error.
    KernelError,
    /// `sod2-kernels`: the kernel's f32 outputs are poisoned with NaN.
    KernelNan,
    /// `sod2-kernels`: the kernel sleeps `param` microseconds first.
    KernelDelay,
    /// `sod2-kernels`: the kernel *stalls* — it holds its thread for
    /// `param` microseconds (default 250ms) and then aborts the request
    /// with an injected error, modelling a hung kernel that a watchdog
    /// eventually kills. Unlike [`Site::KernelDelay`] the request does not
    /// recover; the hardening exercised is replica supervision (condemn
    /// the stalled replica, rebuild, retry elsewhere).
    KernelStall,
    /// `sod2-pool`: the claimed chunk body panics.
    PoolPanic,
    /// engine: one symbol binding is corrupted after extraction.
    Bindings,
}

/// Every site, in sweep order (the chaos harness iterates this).
pub const ALL_SITES: &[Site] = &[
    Site::KernelError,
    Site::KernelNan,
    Site::KernelDelay,
    Site::KernelStall,
    Site::PoolPanic,
    Site::Bindings,
];

impl Site {
    /// The `SOD2_FAULTS` name of this site.
    pub fn name(self) -> &'static str {
        match self {
            Site::KernelError => "kernel.error",
            Site::KernelNan => "kernel.nan",
            Site::KernelDelay => "kernel.delay",
            Site::KernelStall => "kernel.stall",
            Site::PoolPanic => "pool.panic",
            Site::Bindings => "runtime.bindings",
        }
    }

    fn from_name(s: &str) -> Option<Site> {
        ALL_SITES.iter().copied().find(|site| site.name() == s)
    }
}

/// When a rule fires, relative to the site's hit counter (1-based).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire exactly once, on the k-th hit.
    Nth(u64),
    /// Fire on every k-th hit (k=1 → every hit).
    Every(u64),
    /// Fire independently with probability `p`, drawn from the plan's
    /// seeded stream (deterministic for a fixed seed and hit sequence).
    Prob(f64),
}

/// A fired fault, handed back to the probing site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The site that fired.
    pub site: Site,
    /// Site-specific parameter (e.g. delay microseconds), 0 if unset.
    pub param: u64,
}

#[derive(Debug, Clone)]
struct Rule {
    site: Site,
    trigger: Trigger,
    param: u64,
}

/// A deterministic fault schedule: a set of per-site rules plus the seed
/// feeding probabilistic triggers.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rules: Vec<Rule>,
    seed: u64,
}

impl FaultPlan {
    /// An empty plan with the given seed for `prob=` triggers.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rules: Vec::new(),
            seed,
        }
    }

    /// Adds a rule (builder style). `param` is site-specific: delay/stall
    /// microseconds for [`Site::KernelDelay`] and [`Site::KernelStall`],
    /// ignored elsewhere.
    pub fn rule(mut self, site: Site, trigger: Trigger, param: u64) -> Self {
        self.rules.push(Rule {
            site,
            trigger,
            param,
        });
        self
    }

    /// Parses the `SOD2_FAULTS` grammar:
    /// `site:key=val[,key=val];...` with keys `nth`, `every`, `prob`, `us`,
    /// plus a bare `seed=S` entry. Unknown sites or malformed specs are
    /// errors — a mistyped chaos run must not silently test nothing.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending fragment.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0);
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if let Some(seed) = part.strip_prefix("seed=") {
                plan.seed = seed
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad seed {seed:?}"))?;
                continue;
            }
            let (site_name, spec) = part
                .split_once(':')
                .ok_or_else(|| format!("missing ':' in fault rule {part:?}"))?;
            let site = Site::from_name(site_name.trim())
                .ok_or_else(|| format!("unknown fault site {site_name:?}"))?;
            let mut trigger = None;
            let mut param = 0u64;
            for kv in spec.split(',') {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("missing '=' in {kv:?}"))?;
                let (k, v) = (k.trim(), v.trim());
                match k {
                    "nth" => {
                        trigger = Some(Trigger::Nth(
                            v.parse().map_err(|_| format!("bad nth {v:?}"))?,
                        ))
                    }
                    "every" => {
                        trigger = Some(Trigger::Every(
                            v.parse().map_err(|_| format!("bad every {v:?}"))?,
                        ))
                    }
                    "prob" => {
                        let p: f64 = v.parse().map_err(|_| format!("bad prob {v:?}"))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(format!("prob {p} out of [0,1]"));
                        }
                        trigger = Some(Trigger::Prob(p));
                    }
                    "us" => param = v.parse().map_err(|_| format!("bad us {v:?}"))?,
                    _ => return Err(format!("unknown fault key {k:?}")),
                }
            }
            let trigger = trigger.ok_or_else(|| format!("rule {part:?} needs nth/every/prob"))?;
            plan.rules.push(Rule {
                site,
                trigger,
                param,
            });
        }
        Ok(plan)
    }
}

/// One installed rule with its live hit counter.
struct ActiveRule {
    rule: Rule,
    hits: AtomicU64,
}

struct ActivePlan {
    rules: Vec<ActiveRule>,
    /// Seeded stream for `prob=` triggers; locked because probes race.
    rng: Mutex<StdRng>,
}

fn state() -> &'static Mutex<Option<ActivePlan>> {
    static STATE: OnceLock<Mutex<Option<ActivePlan>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

/// Serializes tests and chaos cells that install process-global plans.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Installs a plan, arming every probe. Replaces any previous plan and
/// resets hit and fired counters.
pub fn install(plan: FaultPlan) {
    ENV_CHECKED.store(true, Ordering::Relaxed);
    let active = ActivePlan {
        rules: plan
            .rules
            .iter()
            .map(|r| ActiveRule {
                rule: r.clone(),
                hits: AtomicU64::new(0),
            })
            .collect(),
        rng: Mutex::new(StdRng::seed_from_u64(plan.seed)),
    };
    *state().lock().unwrap_or_else(|e| e.into_inner()) = Some(active);
    FIRED.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
}

/// Removes the installed plan; every probe disarms back to one atomic load.
pub fn clear() {
    ENV_CHECKED.store(true, Ordering::Relaxed);
    ARMED.store(false, Ordering::SeqCst);
    *state().lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Whether any fault plan is armed.
///
/// With the `compile-off` feature this is a constant `false`, which makes
/// every probe in dependent crates statically dead code.
#[inline(always)]
pub fn armed() -> bool {
    if cfg!(feature = "compile-off") {
        return false;
    }
    if !ENV_CHECKED.load(Ordering::Relaxed) {
        env_init();
    }
    ARMED.load(Ordering::Relaxed)
}

/// One-time `SOD2_FAULTS` environment check (cold path).
#[cold]
fn env_init() {
    if !ENV_CHECKED.swap(true, Ordering::Relaxed) {
        if let Ok(spec) = std::env::var("SOD2_FAULTS") {
            match FaultPlan::parse(&spec) {
                Ok(plan) => install(plan),
                Err(e) => {
                    // Loud but non-fatal: a malformed spec disables itself.
                    eprintln!("sod2-faults: ignoring SOD2_FAULTS: {e}");
                }
            }
        }
    }
}

/// Total faults fired since the last [`install`] (or [`clear`]).
pub fn fired_count() -> u64 {
    FIRED.load(Ordering::SeqCst)
}

/// The probe every injection point calls: returns the fault to realize, if
/// a rule for `site` fires on this hit. Costs one relaxed atomic load when
/// no plan is armed.
#[inline]
pub fn probe(site: Site) -> Option<Fault> {
    if !armed() {
        return None;
    }
    probe_slow(site)
}

#[cold]
fn probe_slow(site: Site) -> Option<Fault> {
    let guard = state().lock().unwrap_or_else(|e| e.into_inner());
    let plan = guard.as_ref()?;
    for r in &plan.rules {
        if r.rule.site != site {
            continue;
        }
        let hit = r.hits.fetch_add(1, Ordering::SeqCst) + 1;
        let fires = match r.rule.trigger {
            Trigger::Nth(k) => hit == k.max(1),
            Trigger::Every(k) => hit % k.max(1) == 0,
            Trigger::Prob(p) => plan
                .rng
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .gen_bool(p),
        };
        if fires {
            FIRED.fetch_add(1, Ordering::SeqCst);
            sod2_obs::counter_add(&format!("faults.fired.{}", site.name()), 1);
            return Some(Fault {
                site,
                param: r.rule.param,
            });
        }
        // First matching rule owns the site's hit stream.
        return None;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn nth_fires_exactly_once() {
        let _x = exclusive();
        install(FaultPlan::new(0).rule(Site::KernelError, Trigger::Nth(3), 0));
        let fired: Vec<bool> = (0..6).map(|_| probe(Site::KernelError).is_some()).collect();
        assert_eq!(fired, [false, false, true, false, false, false]);
        assert_eq!(fired_count(), 1);
        clear();
    }

    #[test]
    fn every_fires_periodically_and_sites_are_independent() {
        let _x = exclusive();
        install(
            FaultPlan::new(0)
                .rule(Site::KernelDelay, Trigger::Every(2), 250)
                .rule(Site::PoolPanic, Trigger::Nth(1), 0),
        );
        let delays: Vec<bool> = (0..4).map(|_| probe(Site::KernelDelay).is_some()).collect();
        assert_eq!(delays, [false, true, false, true]);
        assert_eq!(probe(Site::KernelDelay).map(|f| f.param), None);
        assert_eq!(
            probe(Site::KernelDelay),
            Some(Fault {
                site: Site::KernelDelay,
                param: 250
            })
        );
        assert!(probe(Site::PoolPanic).is_some());
        assert!(probe(Site::KernelNan).is_none(), "unruled site never fires");
        clear();
    }

    #[test]
    fn prob_stream_is_deterministic_per_seed() {
        let _x = exclusive();
        let run = |seed| -> Vec<bool> {
            install(FaultPlan::new(seed).rule(Site::KernelError, Trigger::Prob(0.5), 0));
            let v = (0..32)
                .map(|_| probe(Site::KernelError).is_some())
                .collect();
            clear();
            v
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn parse_grammar_round_trips() {
        let plan =
            FaultPlan::parse("kernel.error:nth=3; kernel.delay:every=2,us=500 ; seed=7").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0].site, Site::KernelError);
        assert_eq!(plan.rules[0].trigger, Trigger::Nth(3));
        assert_eq!(plan.rules[1].site, Site::KernelDelay);
        assert_eq!(plan.rules[1].trigger, Trigger::Every(2));
        assert_eq!(plan.rules[1].param, 500);
        assert_eq!(FaultPlan::parse("").unwrap().rules.len(), 0);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "bogus.site:nth=1",
            "kernel.error",
            "kernel.error:nth=x",
            "kernel.error:prob=1.5",
            "kernel.error:frob=1",
            "kernel.error:nth",
            "seed=zzz",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn site_names_round_trip() {
        for &s in ALL_SITES {
            assert_eq!(Site::from_name(s.name()), Some(s));
        }
        assert_eq!(Site::from_name("nope"), None);
    }

    #[test]
    fn disarmed_probe_is_cheap() {
        // The disarmed probe is one relaxed atomic load + branch — the same
        // bound the obs layer holds its disabled spans to. A generous
        // absolute ceiling keeps the assertion load-tolerant on CI hosts.
        let _x = exclusive();
        clear();
        let n = 100_000u64;
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            for i in 0..n {
                std::hint::black_box(probe(Site::KernelError));
                std::hint::black_box(i);
            }
            best = best.min(t0.elapsed().as_secs_f64());
        }
        let per_probe_ns = best / n as f64 * 1e9;
        assert!(
            per_probe_ns < 200.0,
            "disarmed fault probe costs {per_probe_ns:.1}ns"
        );
    }
}
