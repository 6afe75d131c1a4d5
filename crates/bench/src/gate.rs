//! Perf-regression gate: compares a freshly generated bench JSON against a
//! checked-in baseline and fails when a *deterministic* metric regresses
//! beyond a tolerance.
//!
//! Wallclock numbers vary across hosts and runs, so they are deliberately
//! not gated. The gated metrics are the ones the pipeline computes
//! deterministically from the graph and the cost model:
//!
//! | metric               | direction    | meaning                           |
//! |----------------------|--------------|-----------------------------------|
//! | `priced_ms`          | higher-worse | cost-model latency per inference  |
//! | `peak_memory_bytes`  | higher-worse | DMP peak intermediate footprint   |
//! | `alloc_events`       | higher-worse | priced per-tensor allocations     |
//! | `chunks`             | higher-worse | pool chunk count per kernel       |
//! | `arena_backed`       | lower-worse  | tensors priced inside the DMP plan|
//! | `wavefront_count`    | higher-worse | waves in the static schedule      |
//! | `max_wave_width`     | lower-worse  | widest wave (parallelism exposed) |
//! | `scheduled_makespan_ms` | higher-worse | priced makespan at 4 workers   |
//! | `makespan_speedup`   | lower-worse  | serial over scheduled makespan    |
//! | `guard_elisions`     | lower-worse  | NaN fences elided via certificates|
//! | `nac_bounds_used`    | lower-worse  | nac tensors DMP-planned via certs |
//! | `pruned_arms`        | lower-worse  | Switch arms pruned at compile time|
//! | `tape_len`           | higher-worse | register-machine instructions     |
//! | `modeled_efficiency` | lower-worse  | tuned GEMM variant, analytic model|
//! | `efficiency_gain_pct`| lower-worse  | tuned-over-default modeled gain   |
//! | `conv_modeled_efficiency` | lower-worse | tuned conv variant, analytic model |
//! | `non_default_variant`| lower-worse  | tuner picked a real variant (0/1) |
//! | `variant_hits`       | lower-worse  | baked-variant kernel dispatches   |
//! | `bitwise_equal_default` | lower-worse | MVC outputs match default (0/1) |
//!
//! Serving metrics (`BENCH_serve.json`) come from a discrete-event replay
//! of the serving policy in priced *virtual* time, so despite looking like
//! load metrics they are bit-for-bit deterministic and gate like any
//! cost-model number:
//!
//! | metric               | direction    | meaning                           |
//! |----------------------|--------------|-----------------------------------|
//! | `priced_throughput_rps` | lower-worse | served requests per virtual second |
//! | `throughput_speedup_vs_nobatch` | lower-worse | batched over FIFO throughput |
//! | `priced_service_us_per_request` | higher-worse | mean priced work per served request |
//! | `plan_reuse_gain_pct` | lower-worse | service work batching saves over FIFO |
//! | `batch_occupancy`    | lower-worse  | mean requests per shape-class batch |
//! | `batches`            | higher-worse | batches dispatched for the fixed workload |
//! | `plan_cache_hits`    | lower-worse  | dispatches served from a warm pre-plan |
//! | `accepted_requests`  | lower-worse  | workload admitted by the bounded queue |
//! | `rejected_queue_full`| higher-worse | admissions shed at capacity       |
//! | `p50_latency_ms`     | higher-worse | median end-to-end sojourn         |
//! | `p95_latency_ms`     | higher-worse | tail sojourn                      |
//! | `p99_latency_ms`     | higher-worse | tail sojourn                      |
//! | `deadline_misses`    | higher-worse | SLO misses for deadline tenants   |
//! | `max_queue_depth`    | higher-worse | high-water queue depth            |
//! | `faults_injected`    | higher-worse | scripted faults fired in the resilience replay |
//! | `retries`            | higher-worse | backoff retries scheduled         |
//! | `retries_exhausted`  | higher-worse | failures returned with budget spent |
//! | `replicas_rebuilt`   | lower-worse  | condemned replicas replaced       |
//! | `stalls_detected`    | lower-worse  | stalls supervision caught         |
//! | `recovered_requests` | lower-worse  | faulted requests completing clean |
//! | `shed_circuit_open`  | higher-worse | requests shed by open breakers    |
//! | `rejected_predicted_deadline` | higher-worse | predictive deadline sheds |
//! | `rejected_predicted_budget`   | higher-worse | predictive budget sheds   |
//! | `mean_recovery_ms`   | higher-worse | fault-to-clean-completion time    |
//! | `wedged_replicas`    | higher-worse | unsupervised wedges (must stay 0) |
//!
//! Entries are aligned by their `"name"` / `"model"` key inside any JSON
//! array of objects, so the same comparator handles `BENCH_kernels.json`
//! and `BENCH_zoo.json`. An entry present in the baseline but missing from
//! the current run is a failure (something stopped being measured); a new
//! entry is reported but does not fail the gate.

use sod2_obs::json::{self, Value};
use std::fmt::Write as _;

/// Which way "worse" points for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger values are regressions (latency, memory, allocations).
    HigherWorse,
    /// Smaller values are regressions (tensor count inside the DMP plan).
    LowerWorse,
}

/// The metrics the gate inspects. Everything else in the JSON is ignored.
pub const GATED_METRICS: &[(&str, Direction)] = &[
    ("priced_ms", Direction::HigherWorse),
    ("peak_memory_bytes", Direction::HigherWorse),
    ("alloc_events", Direction::HigherWorse),
    ("chunks", Direction::HigherWorse),
    ("arena_backed", Direction::LowerWorse),
    ("wavefront_count", Direction::HigherWorse),
    ("max_wave_width", Direction::LowerWorse),
    ("scheduled_makespan_ms", Direction::HigherWorse),
    ("makespan_speedup", Direction::LowerWorse),
    ("guard_elisions", Direction::LowerWorse),
    ("nac_bounds_used", Direction::LowerWorse),
    ("pruned_arms", Direction::LowerWorse),
    ("tape_len", Direction::HigherWorse),
    // Multi-version codegen metrics (analytic model, fully deterministic;
    // the wallclock playoff numbers are deliberately NOT in this list).
    ("modeled_efficiency", Direction::LowerWorse),
    ("efficiency_gain_pct", Direction::LowerWorse),
    ("conv_modeled_efficiency", Direction::LowerWorse),
    ("non_default_variant", Direction::LowerWorse),
    ("variant_hits", Direction::LowerWorse),
    ("bitwise_equal_default", Direction::LowerWorse),
    // Serving metrics (deterministic virtual-time simulation; see
    // `sod2_serve::simulate`).
    ("priced_throughput_rps", Direction::LowerWorse),
    ("throughput_speedup_vs_nobatch", Direction::LowerWorse),
    ("priced_service_us_per_request", Direction::HigherWorse),
    ("plan_reuse_gain_pct", Direction::LowerWorse),
    ("batch_occupancy", Direction::LowerWorse),
    ("batches", Direction::HigherWorse),
    ("plan_cache_hits", Direction::LowerWorse),
    ("accepted_requests", Direction::LowerWorse),
    ("rejected_queue_full", Direction::HigherWorse),
    ("p50_latency_ms", Direction::HigherWorse),
    ("p95_latency_ms", Direction::HigherWorse),
    ("p99_latency_ms", Direction::HigherWorse),
    ("deadline_misses", Direction::HigherWorse),
    ("max_queue_depth", Direction::HigherWorse),
    // Self-healing metrics (deterministic scripted-fault replay under
    // supervision, retry budgets, breakers and predictive admission).
    // More faults/retries/sheds than the baseline pattern produced is a
    // behaviour change; fewer rebuilds or recoveries means the machinery
    // stopped healing what it used to heal.
    ("faults_injected", Direction::HigherWorse),
    ("retries", Direction::HigherWorse),
    ("retries_exhausted", Direction::HigherWorse),
    ("replicas_rebuilt", Direction::LowerWorse),
    ("stalls_detected", Direction::LowerWorse),
    ("recovered_requests", Direction::LowerWorse),
    ("shed_circuit_open", Direction::HigherWorse),
    ("rejected_predicted_deadline", Direction::HigherWorse),
    ("rejected_predicted_budget", Direction::HigherWorse),
    ("mean_recovery_ms", Direction::HigherWorse),
    ("wedged_replicas", Direction::HigherWorse),
];

/// Outcome for one (entry, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance of the baseline.
    Ok,
    /// Better than the baseline by more than the tolerance.
    Improved,
    /// Worse than the baseline by more than the tolerance.
    Regressed,
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Entry key (`"name"`/`"model"` value, prefixed with its array path).
    pub entry: String,
    /// Metric key.
    pub metric: &'static str,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub cur: f64,
    /// Signed relative change, positive = moved in the "worse" direction.
    pub rel: f64,
    /// Gate verdict at the configured tolerance.
    pub verdict: Verdict,
}

/// Full comparison result.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Per-metric deltas, in document order.
    pub deltas: Vec<Delta>,
    /// Baseline entries absent from the current run (failures).
    pub missing: Vec<String>,
    /// Current entries absent from the baseline (informational).
    pub added: Vec<String>,
}

impl GateReport {
    /// True when the gate should fail the build.
    pub fn failed(&self) -> bool {
        !self.missing.is_empty() || self.deltas.iter().any(|d| d.verdict == Verdict::Regressed)
    }

    /// Regression count.
    pub fn regressions(&self) -> usize {
        self.deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Regressed)
            .count()
    }

    /// Renders the per-entry delta table plus a verdict line.
    pub fn render(&self, label: &str, tol: f64) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "perf gate [{label}] tolerance {:.1}%  ({} metrics compared)",
            tol * 100.0,
            self.deltas.len()
        );
        let _ = writeln!(
            s,
            "{:<44} {:<20} {:>14} {:>14} {:>8}  verdict",
            "entry", "metric", "baseline", "current", "delta"
        );
        for d in &self.deltas {
            let verdict = match d.verdict {
                Verdict::Ok => "ok",
                Verdict::Improved => "IMPROVED",
                Verdict::Regressed => "REGRESSED",
            };
            let _ = writeln!(
                s,
                "{:<44} {:<20} {:>14} {:>14} {:>+7.1}%  {verdict}",
                truncate(&d.entry, 44),
                d.metric,
                fmt_num(d.base),
                fmt_num(d.cur),
                d.rel * 100.0,
            );
        }
        for m in &self.missing {
            let _ = writeln!(
                s,
                "{:<44} MISSING from current run  REGRESSED",
                truncate(m, 44)
            );
        }
        for a in &self.added {
            let _ = writeln!(s, "{:<44} new entry (not in baseline)", truncate(a, 44));
        }
        if self.failed() {
            let _ = writeln!(
                s,
                "FAIL: {} regression(s), {} missing entr(ies). \
                 If intentional, re-record with ./ci.sh --update-baselines",
                self.regressions(),
                self.missing.len()
            );
        } else {
            let _ = writeln!(
                s,
                "PASS: no deterministic metric regressed beyond tolerance"
            );
        }
        s
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!(
            "{}…",
            &s[..s
                .char_indices()
                .map(|(i, _)| i)
                .take_while(|&i| i < n - 1)
                .last()
                .unwrap_or(0)]
        )
    }
}

fn fmt_num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.4}")
    }
}

/// Entry identity inside an array of objects.
fn entry_key(v: &Value) -> Option<String> {
    let obj = v.as_object()?;
    obj.get("name")
        .or_else(|| obj.get("model"))
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// Collects every `(path/key, object)` entry from arrays-of-objects in the
/// document, recursively. `path` is the chain of object keys leading to the
/// array, so the same entry name in different arrays stays distinct.
fn collect_entries<'a>(v: &'a Value, path: &str, out: &mut Vec<(String, &'a Value)>) {
    match v {
        Value::Obj(map) => {
            for (k, child) in map {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                collect_entries(child, &sub, out);
            }
        }
        Value::Arr(items) => {
            for item in items {
                if let Some(key) = entry_key(item) {
                    out.push((format!("{path}/{key}"), item));
                }
            }
        }
        _ => {}
    }
}

/// Renames duplicate keys to `key#2`, `key#3`, … in occurrence order, so two
/// entries sharing a display name (e.g. `gemm_tiled` at two problem sizes)
/// align Nth-baseline-to-Nth-current instead of both hitting the first.
fn disambiguate(entries: &mut [(String, &Value)]) {
    let mut seen: std::collections::BTreeMap<String, usize> = Default::default();
    for (key, _) in entries.iter_mut() {
        let n = seen.entry(key.clone()).or_insert(0);
        *n += 1;
        if *n > 1 {
            *key = format!("{key}#{n}");
        }
    }
}

/// Compares one metric value pair under the configured tolerance.
fn judge(dir: Direction, base: f64, cur: f64, tol: f64) -> (f64, Verdict) {
    // A metric that appears from zero is an unconditional regression for
    // higher-worse metrics (e.g. heap allocs on a previously alloc-free
    // path) — the relative formula cannot express it.
    if base == 0.0 {
        return match dir {
            Direction::HigherWorse if cur > 0.0 => (f64::INFINITY, Verdict::Regressed),
            _ => (0.0, Verdict::Ok),
        };
    }
    let rel = (cur - base) / base.abs();
    // Normalize so positive `worse` always means "moved in the bad direction".
    let worse = match dir {
        Direction::HigherWorse => rel,
        Direction::LowerWorse => -rel,
    };
    let verdict = if worse > tol {
        Verdict::Regressed
    } else if worse < -tol {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Compares two parsed bench documents.
pub fn compare(baseline: &Value, current: &Value, tol: f64) -> GateReport {
    let mut base_entries = Vec::new();
    let mut cur_entries = Vec::new();
    collect_entries(baseline, "", &mut base_entries);
    collect_entries(current, "", &mut cur_entries);
    disambiguate(&mut base_entries);
    disambiguate(&mut cur_entries);

    let mut report = GateReport::default();
    for (key, base_obj) in &base_entries {
        let Some((_, cur_obj)) = cur_entries.iter().find(|(k, _)| k == key) else {
            report.missing.push(key.clone());
            continue;
        };
        let (Some(b), Some(c)) = (base_obj.as_object(), cur_obj.as_object()) else {
            continue;
        };
        for &(metric, dir) in GATED_METRICS {
            let (Some(bv), Some(cv)) = (
                b.get(metric).and_then(Value::as_f64),
                c.get(metric).and_then(Value::as_f64),
            ) else {
                continue;
            };
            let (rel, verdict) = judge(dir, bv, cv, tol);
            report.deltas.push(Delta {
                entry: key.clone(),
                metric,
                base: bv,
                cur: cv,
                rel,
                verdict,
            });
        }
    }
    for (key, _) in &cur_entries {
        if !base_entries.iter().any(|(k, _)| k == key) {
            report.added.push(key.clone());
        }
    }
    report
}

/// Parses both files and compares them. Returns an error string on I/O or
/// parse failure so callers can print it and exit non-zero.
pub fn compare_files(baseline: &str, current: &str, tol: f64) -> Result<GateReport, String> {
    let read = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
    };
    Ok(compare(&read(baseline)?, &read(current)?, tol))
}

/// Tolerance from `SOD2_BENCH_TOL` (fraction, e.g. `0.10`), default 10%.
pub fn default_tolerance() -> f64 {
    std::env::var("SOD2_BENCH_TOL")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.10)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
        "host_cores": 4,
        "kernels": [
            {"name": "gemm", "chunks": 12, "wallclock_secs": 0.5},
            {"name": "conv", "chunks": 8}
        ],
        "models": [
            {"model": "CodeBERT", "alloc_events": 10,
             "peak_memory_bytes": 40, "arena_backed": 30}
        ]
    }"#;

    #[test]
    fn identical_documents_pass() {
        let v = json::parse(BASE).unwrap();
        let r = compare(&v, &v, 0.10);
        assert!(!r.failed(), "{}", r.render("self", 0.10));
        assert!(r.deltas.iter().all(|d| d.verdict == Verdict::Ok));
        assert!(r.missing.is_empty() && r.added.is_empty());
    }

    #[test]
    fn injected_regression_fails() {
        let base = json::parse(BASE).unwrap();
        // chunks 12 -> 14 is +16.7% > 10% tolerance.
        let cur = json::parse(&BASE.replace("\"chunks\": 12", "\"chunks\": 14")).unwrap();
        let r = compare(&base, &cur, 0.10);
        assert!(r.failed());
        assert_eq!(r.regressions(), 1);
        let d = r
            .deltas
            .iter()
            .find(|d| d.verdict == Verdict::Regressed)
            .unwrap();
        assert_eq!(d.metric, "chunks");
        assert!(d.entry.contains("gemm"));
    }

    #[test]
    fn within_tolerance_passes() {
        let base = json::parse(BASE).unwrap();
        // 40 -> 43 peak bytes is +7.5% < 10%.
        let cur =
            json::parse(&BASE.replace("\"peak_memory_bytes\": 40", "\"peak_memory_bytes\": 43"))
                .unwrap();
        assert!(!compare(&base, &cur, 0.10).failed());
    }

    #[test]
    fn lower_worse_direction() {
        let base = json::parse(BASE).unwrap();
        // arena_backed dropping 30 -> 20 (-33%) is a regression...
        let cur =
            json::parse(&BASE.replace("\"arena_backed\": 30", "\"arena_backed\": 20")).unwrap();
        assert!(compare(&base, &cur, 0.10).failed());
        // ...but rising 30 -> 40 is an improvement, not a failure.
        let cur =
            json::parse(&BASE.replace("\"arena_backed\": 30", "\"arena_backed\": 40")).unwrap();
        let r = compare(&base, &cur, 0.10);
        assert!(!r.failed());
        assert!(r.deltas.iter().any(|d| d.verdict == Verdict::Improved));
    }

    #[test]
    fn appearing_from_zero_regresses() {
        let base =
            json::parse(&BASE.replace("\"alloc_events\": 10", "\"alloc_events\": 0")).unwrap();
        let cur = json::parse(BASE).unwrap();
        let r = compare(&base, &cur, 0.10);
        assert!(r.failed(), "0 -> 10 residual allocs must regress");
    }

    #[test]
    fn missing_entry_fails_added_entry_does_not() {
        let base = json::parse(BASE).unwrap();
        let cur = json::parse(&BASE.replace(
            "{\"name\": \"conv\", \"chunks\": 8}",
            "{\"name\": \"conv2\", \"chunks\": 8}",
        ))
        .unwrap();
        let r = compare(&base, &cur, 0.10);
        assert!(r.failed());
        assert_eq!(r.missing, vec!["kernels/conv".to_string()]);
        assert_eq!(r.added, vec!["kernels/conv2".to_string()]);

        let r2 = compare(&cur, &cur, 0.10);
        assert!(!r2.failed());
    }

    #[test]
    fn duplicate_names_align_by_occurrence() {
        // Two entries named "gemm" at different sizes: a regression in the
        // SECOND must be caught against the second baseline entry, not
        // masked by comparing both against the first.
        let base = json::parse(
            r#"{"kernels": [{"name": "gemm", "chunks": 8},
                            {"name": "gemm", "chunks": 16}]}"#,
        )
        .unwrap();
        let cur = json::parse(
            r#"{"kernels": [{"name": "gemm", "chunks": 8},
                            {"name": "gemm", "chunks": 32}]}"#,
        )
        .unwrap();
        let r = compare(&base, &cur, 0.10);
        assert!(r.failed());
        let d = r
            .deltas
            .iter()
            .find(|d| d.verdict == Verdict::Regressed)
            .unwrap();
        assert_eq!(d.entry, "kernels/gemm#2");
        assert_eq!((d.base, d.cur), (16.0, 32.0));
        // Identity still passes with duplicates present.
        assert!(!compare(&base, &base, 0.10).failed());
    }

    #[test]
    fn wallclock_is_not_gated() {
        let base = json::parse(BASE).unwrap();
        let cur = json::parse(&BASE.replace("\"wallclock_secs\": 0.5", "\"wallclock_secs\": 50.0"))
            .unwrap();
        assert!(!compare(&base, &cur, 0.10).failed());
    }

    #[test]
    fn render_mentions_update_path_on_failure() {
        let base = json::parse(BASE).unwrap();
        let cur = json::parse(&BASE.replace("\"chunks\": 12", "\"chunks\": 999")).unwrap();
        let r = compare(&base, &cur, 0.10);
        let text = r.render("kernels", 0.10);
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("--update-baselines"));
    }
}
