//! # sod2-obs — runtime observability for the SoD² pipeline
//!
//! A hermetic (std-only) profiling and metrics subsystem threaded through
//! the compiler stages, the kernel thread pool, and both executor paths.
//! It collects three kinds of signal into a per-session [`Profile`]:
//!
//! - **Spans** — scoped wall-clock intervals with thread attribution and
//!   nesting depth, recorded by RAII guards from the [`span!`] macro.
//!   Compile stages (RDP solve, fusion, SEP, DMP planning), per-operator /
//!   per-fused-group kernel execution, pool task run time, and arena
//!   install/readback all appear as spans.
//! - **Counters and gauges** — monotonically added counts
//!   ([`counter_add`]), last-value gauges ([`gauge_set`]) and high-water
//!   marks ([`gauge_max`]): arena bytes, peak live bytes, residual heap
//!   allocations, pool chunk counts, MVC version-table selections.
//! - **Exporters** — a human text summary ([`Profile::render_text`]),
//!   machine JSON ([`Profile::render_json`]), and the Chrome `trace_event`
//!   format ([`Profile::render_chrome_trace`]) loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! # Kill switches
//!
//! Observability is **off by default** and costs one relaxed atomic load
//! per probe on the disabled path. Two switches control it:
//!
//! - runtime: [`set_enabled`] / [`enabled`] (also settable through the
//!   `SOD2_PROFILE=1` environment variable at first probe),
//! - compile time: building this crate with the `compile-off` feature
//!   turns [`enabled`] into a constant `false`, making every probe
//!   statically dead — the optimizer removes the instrumentation outright.
//!
//! # Sessions
//!
//! [`begin`] clears all buffers and starts a capture window; [`take`]
//! drains every thread's records into a [`Profile`]. The two are process
//! global — concurrent capture sessions observe each other, so tests that
//! profile serialize on a lock (see `session_guard`).
//!
//! # Examples
//!
//! ```
//! let _lock = sod2_obs::session_guard();
//! sod2_obs::set_enabled(true);
//! sod2_obs::begin();
//! {
//!     let _outer = sod2_obs::span!("demo", "outer");
//!     let _inner = sod2_obs::span!("demo", "inner {}", 1);
//!     sod2_obs::counter_add("demo.events", 2);
//! }
//! let profile = sod2_obs::take();
//! sod2_obs::set_enabled(false);
//! assert_eq!(profile.spans.len(), 2);
//! assert_eq!(profile.counters["demo.events"], 2);
//! assert!(profile.check_nesting().is_ok());
//! ```

pub mod export;
pub mod json;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Whether probes record (runtime switch; see also `compile-off`).
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Whether `SOD2_PROFILE` has been consulted yet.
static ENV_CHECKED: AtomicBool = AtomicBool::new(false);

/// Returns whether probes currently record.
///
/// With the `compile-off` feature this is a constant `false`, which makes
/// every probe in dependent crates statically dead code.
#[inline(always)]
pub fn enabled() -> bool {
    if cfg!(feature = "compile-off") {
        return false;
    }
    if !ENV_CHECKED.load(Ordering::Relaxed) {
        env_init();
    }
    ENABLED.load(Ordering::Relaxed)
}

/// One-time `SOD2_PROFILE` environment check (cold path).
#[cold]
fn env_init() {
    if let Ok(v) = std::env::var("SOD2_PROFILE") {
        let on = matches!(v.trim(), "1" | "true" | "on");
        if on {
            ENABLED.store(true, Ordering::Relaxed);
        }
    }
    ENV_CHECKED.store(true, Ordering::Relaxed);
}

/// Turns recording on or off at runtime (a no-op under `compile-off`).
pub fn set_enabled(on: bool) {
    ENV_CHECKED.store(true, Ordering::Relaxed);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Process epoch all span timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Category (e.g. `"compile"`, `"kernel"`, `"pool"`, `"infer"`).
    pub cat: &'static str,
    /// Display name (op mnemonic, stage name, ...).
    pub name: String,
    /// Recording thread's stable index (0 = first thread seen).
    pub tid: u64,
    /// Nesting depth on the recording thread at entry (0 = top level).
    pub depth: u32,
    /// Start, nanoseconds since the session began.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanRec {
    /// Exclusive end timestamp.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Per-thread record buffer, registered globally so [`take`] can drain
/// buffers owned by pool workers that outlive any one session.
struct ThreadBuf {
    tid: u64,
    name: Mutex<String>,
    records: Mutex<Vec<SpanRec>>,
}

struct Registry {
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
    counters: Mutex<BTreeMap<String, u64>>,
    /// Session start, nanoseconds since the process epoch.
    session_start: AtomicU64,
    /// Serializes capture sessions (tests, CLI vs. background use).
    session_lock: Mutex<()>,
}

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        threads: Mutex::new(Vec::new()),
        counters: Mutex::new(BTreeMap::new()),
        session_start: AtomicU64::new(0),
        session_lock: Mutex::new(()),
    })
}

thread_local! {
    static TBUF: std::cell::OnceCell<Arc<ThreadBuf>> = const { std::cell::OnceCell::new() };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn thread_buf() -> Arc<ThreadBuf> {
    TBUF.with(|b| {
        b.get_or_init(|| {
            let reg = registry();
            let mut threads = reg.threads.lock().unwrap_or_else(|e| e.into_inner());
            let tid = threads.len() as u64;
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let buf = Arc::new(ThreadBuf {
                tid,
                name: Mutex::new(name),
                records: Mutex::new(Vec::new()),
            });
            threads.push(buf.clone());
            buf
        })
        .clone()
    })
}

/// Locks out other capture sessions in this process for the guard's
/// lifetime. Tests that enable profiling take this first so parallel test
/// threads do not drain each other's records.
pub fn session_guard() -> MutexGuard<'static, ()> {
    registry()
        .session_lock
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Starts a capture session: clears every thread's records and all
/// counters, and re-bases session timestamps at "now".
pub fn begin() {
    let reg = registry();
    for t in reg.threads.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        t.records.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
    reg.counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
    reg.session_start.store(now_ns(), Ordering::SeqCst);
}

/// Ends the capture session: drains every thread's records and counter
/// values into a [`Profile`]. Spans are sorted by `(start, longest-first)`.
pub fn take() -> Profile {
    let reg = registry();
    let t0 = reg.session_start.load(Ordering::SeqCst);
    let wall_ns = now_ns().saturating_sub(t0);
    let mut spans = Vec::new();
    let mut threads = BTreeMap::new();
    for t in reg.threads.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        let mut recs = t.records.lock().unwrap_or_else(|e| e.into_inner());
        if !recs.is_empty() {
            threads.insert(
                t.tid,
                t.name.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            );
        }
        spans.append(&mut recs);
    }
    // Records are pushed at span *end*; re-order to start order, ties
    // broken outermost (longest) first so nesting checks can use a stack.
    spans.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(b.dur_ns.cmp(&a.dur_ns))
            .then(a.depth.cmp(&b.depth))
    });
    let counters = reg
        .counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    Profile {
        spans,
        counters,
        threads,
        wall_ns,
    }
}

/// Nanoseconds since the current session began (see [`begin`]). Useful for
/// callers that time an interval themselves and report it as a counter
/// (e.g. the pool's task queue latency).
pub fn session_ns() -> u64 {
    now_ns().saturating_sub(registry().session_start.load(Ordering::SeqCst))
}

/// An in-flight span; records itself on drop. Construct via [`span!`].
pub struct Span {
    /// `None` = disabled at entry: drop is a no-op.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    cat: &'static str,
    name: String,
    start_ns: u64,
    depth: u32,
}

impl Span {
    /// A span that records nothing (the disabled path).
    #[inline(always)]
    pub fn noop() -> Span {
        Span { live: None }
    }

    /// Opens a live span. Callers should go through [`span!`], which skips
    /// the name construction entirely when recording is disabled.
    pub fn begin(cat: &'static str, name: String) -> Span {
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        let base = registry().session_start.load(Ordering::SeqCst);
        Span {
            live: Some(LiveSpan {
                cat,
                name,
                start_ns: now_ns().saturating_sub(base),
                depth,
            }),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let base = registry().session_start.load(Ordering::SeqCst);
        let end_ns = now_ns().saturating_sub(base);
        let buf = thread_buf();
        buf.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(SpanRec {
                cat: live.cat,
                name: live.name,
                tid: buf.tid,
                depth: live.depth,
                start_ns: live.start_ns,
                dur_ns: end_ns.saturating_sub(live.start_ns),
            });
    }
}

/// Opens a scoped span: `span!("cat", "name fmt {}", args...)`. Returns a
/// guard recording the span when it drops; when recording is disabled the
/// name is never even formatted.
#[macro_export]
macro_rules! span {
    ($cat:expr, $($name:tt)*) => {
        if $crate::enabled() {
            $crate::Span::begin($cat, format!($($name)*))
        } else {
            $crate::Span::noop()
        }
    };
}

fn counter_apply(name: &str, f: impl FnOnce(&mut u64)) {
    let mut counters = registry()
        .counters
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    match counters.get_mut(name) {
        Some(v) => f(v),
        None => {
            let mut v = 0u64;
            f(&mut v);
            counters.insert(name.to_string(), v);
        }
    }
}

/// The current value of a counter or gauge in this session, without
/// draining anything (0 when it was never touched). Lets a caller book
/// only what accrued over one interval: read before and after it.
pub fn counter(name: &str) -> u64 {
    registry()
        .counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Adds `v` to a monotonically increasing counter.
#[inline]
pub fn counter_add(name: &str, v: u64) {
    if enabled() {
        counter_apply(name, |c| *c = c.saturating_add(v));
    }
}

/// Sets a gauge to its latest value.
#[inline]
pub fn gauge_set(name: &str, v: u64) {
    if enabled() {
        counter_apply(name, |c| *c = v);
    }
}

/// Raises a gauge to `v` if `v` is larger (a high-water mark).
#[inline]
pub fn gauge_max(name: &str, v: u64) {
    if enabled() {
        counter_apply(name, |c| *c = (*c).max(v));
    }
}

/// A drained capture session.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// All spans, sorted by start time (outermost first on ties).
    pub spans: Vec<SpanRec>,
    /// Final counter and gauge values.
    pub counters: BTreeMap<String, u64>,
    /// Thread index → thread name, for threads that recorded spans.
    pub threads: BTreeMap<u64, String>,
    /// Wall-clock nanoseconds between [`begin`] and [`take`].
    pub wall_ns: u64,
}

impl Profile {
    /// Sum of span durations in a category, across all threads.
    ///
    /// Spans of one category are expected not to nest within each other
    /// (categories are picked that way: per-operator kernel spans are
    /// siblings, compile stages are siblings, ...), so the sum is the
    /// category's true busy time.
    pub fn cat_total_ns(&self, cat: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.cat == cat)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Number of spans in a category.
    pub fn cat_count(&self, cat: &str) -> usize {
        self.spans.iter().filter(|s| s.cat == cat).count()
    }

    /// Wall time booked to inference on the thread that called `infer`, as
    /// `(kernel_ns, dmp_ns)`: the outermost `kernel` spans nested in an
    /// `infer` span, and the `dmp_pre_plan` / `dmp_post_plan` phase spans.
    /// Kernel spans at compile time (constant folding, arm-prune
    /// verification) and on pool workers (wave units evaluated in
    /// parallel) are excluded, so neither sum exceeds the infer wall it is
    /// compared with.
    pub fn infer_kernel_dmp_ns(&self) -> (u64, u64) {
        let mut stacks: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
        let (mut kernel, mut dmp) = (0, 0);
        // Spans are start-sorted, outermost first on ties, so a per-thread
        // stack truncated to each span's depth holds exactly its ancestors.
        for s in &self.spans {
            let stack = stacks.entry(s.tid).or_default();
            stack.truncate(s.depth as usize);
            if stack.contains(&"infer") {
                if s.cat == "kernel" && !stack.contains(&"kernel") {
                    kernel += s.dur_ns;
                }
                if s.cat == "phase" && matches!(s.name.as_str(), "dmp_pre_plan" | "dmp_post_plan") {
                    dmp += s.dur_ns;
                }
            }
            stack.push(s.cat);
        }
        (kernel, dmp)
    }

    /// Verifies that spans on each thread nest properly: any two spans on
    /// one thread are either disjoint or one contains the other, and the
    /// recorded depths are consistent with that containment.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_nesting(&self) -> Result<(), String> {
        let mut by_tid: BTreeMap<u64, Vec<&SpanRec>> = BTreeMap::new();
        for s in &self.spans {
            by_tid.entry(s.tid).or_default().push(s);
        }
        for (tid, spans) in by_tid {
            // `self.spans` is already start-sorted with outermost first.
            // Recorded depth is the authority for the enclosure structure;
            // timestamps must then be consistent with it.
            let mut stack: Vec<&SpanRec> = Vec::new();
            for s in spans {
                while stack.len() > s.depth as usize {
                    let closed = stack.pop().expect("len checked");
                    if closed.end_ns() > s.start_ns {
                        return Err(format!(
                            "thread {tid}: span {:?} [{}, {}) overlaps sibling {:?} [{}, {})",
                            s.name,
                            s.start_ns,
                            s.end_ns(),
                            closed.name,
                            closed.start_ns,
                            closed.end_ns()
                        ));
                    }
                }
                if stack.len() < s.depth as usize {
                    return Err(format!(
                        "thread {tid}: span {:?} at depth {} has no enclosing span \
                         (stack depth {})",
                        s.name,
                        s.depth,
                        stack.len()
                    ));
                }
                if let Some(top) = stack.last() {
                    if s.start_ns < top.start_ns || s.end_ns() > top.end_ns() {
                        return Err(format!(
                            "thread {tid}: span {:?} [{}, {}) escapes parent {:?} [{}, {})",
                            s.name,
                            s.start_ns,
                            s.end_ns(),
                            top.name,
                            top.start_ns,
                            top.end_ns()
                        ));
                    }
                }
                stack.push(s);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture<R>(f: impl FnOnce() -> R) -> (R, Profile) {
        let _lock = session_guard();
        set_enabled(true);
        begin();
        let r = f();
        let p = take();
        set_enabled(false);
        (r, p)
    }

    #[test]
    fn spans_record_and_nest() {
        let ((), p) = capture(|| {
            let _a = span!("t", "a");
            {
                let _b = span!("t", "b");
                std::hint::black_box(0);
            }
            let _c = span!("t", "c");
        });
        assert_eq!(p.spans.len(), 3);
        assert!(p.check_nesting().is_ok());
        let a = p.spans.iter().find(|s| s.name == "a").unwrap();
        let b = p.spans.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(a.depth, 0);
        assert_eq!(b.depth, 1);
        assert!(a.start_ns <= b.start_ns && b.end_ns() <= a.end_ns());
    }

    #[test]
    fn counters_and_gauges() {
        let ((), p) = capture(|| {
            counter_add("c", 3);
            counter_add("c", 4);
            gauge_set("g", 10);
            gauge_set("g", 5);
            gauge_max("m", 5);
            gauge_max("m", 2);
        });
        assert_eq!(p.counters["c"], 7);
        assert_eq!(p.counters["g"], 5);
        assert_eq!(p.counters["m"], 5);
    }

    #[test]
    fn disabled_records_nothing() {
        let _lock = session_guard();
        set_enabled(false);
        begin();
        {
            let _s = span!("t", "invisible");
            counter_add("c", 1);
        }
        let p = take();
        assert!(p.spans.is_empty());
        assert!(p.counters.is_empty());
    }

    #[test]
    fn begin_clears_previous_session() {
        let _lock = session_guard();
        set_enabled(true);
        begin();
        {
            let _s = span!("t", "first");
        }
        begin();
        {
            let _s = span!("t", "second");
        }
        let p = take();
        set_enabled(false);
        assert_eq!(p.spans.len(), 1);
        assert_eq!(p.spans[0].name, "second");
    }

    #[test]
    fn cross_thread_records_are_collected() {
        let ((), p) = capture(|| {
            let h = std::thread::spawn(|| {
                let _s = span!("t", "worker");
            });
            let _s = span!("t", "main");
            h.join().unwrap();
        });
        assert_eq!(p.spans.len(), 2);
        let tids: std::collections::BTreeSet<u64> = p.spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 2, "two distinct threads attributed");
        assert!(p.check_nesting().is_ok());
    }

    #[test]
    fn cat_totals_sum_durations() {
        let ((), p) = capture(|| {
            let _a = span!("k", "a");
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert_eq!(p.cat_count("k"), 1);
        assert!(p.cat_total_ns("k") >= 1_000_000);
        assert!(p.wall_ns >= p.cat_total_ns("k"));
    }

    #[test]
    fn nesting_check_rejects_overlap() {
        let p = Profile {
            spans: vec![
                SpanRec {
                    cat: "t",
                    name: "x".into(),
                    tid: 0,
                    depth: 0,
                    start_ns: 0,
                    dur_ns: 10,
                },
                SpanRec {
                    cat: "t",
                    name: "y".into(),
                    tid: 0,
                    depth: 1,
                    start_ns: 5,
                    dur_ns: 10,
                },
            ],
            ..Default::default()
        };
        assert!(p.check_nesting().is_err());
    }

    #[test]
    fn infer_time_books_outermost_kernels_on_the_calling_thread() {
        let rec = |cat, name: &str, tid, depth, start_ns, dur_ns| SpanRec {
            cat,
            name: name.into(),
            tid,
            depth,
            start_ns,
            dur_ns,
        };
        let p = Profile {
            spans: vec![
                // Compile time: outside any infer span.
                rec("kernel", "fold", 0, 0, 0, 5),
                rec("infer", "infer", 0, 0, 10, 100),
                rec("kernel", "conv", 0, 1, 12, 20),
                // Nested inside a kernel span: already counted.
                rec("kernel", "inner", 0, 2, 14, 5),
                rec("phase", "dmp_pre_plan", 0, 1, 40, 7),
                rec("phase", "execute", 0, 1, 50, 30),
                rec("kernel", "gemm", 0, 2, 55, 10),
                // A pool worker: not the calling thread.
                rec("kernel", "unit", 1, 0, 56, 20),
                rec("phase", "dmp_post_plan", 0, 1, 90, 3),
            ],
            ..Default::default()
        };
        assert!(p.check_nesting().is_ok());
        assert_eq!(p.infer_kernel_dmp_ns(), (30, 10));
    }

    #[test]
    fn disabled_span_is_cheap() {
        // The disabled probe is one relaxed atomic load + branch. Assert a
        // generous absolute bound so the no-op property is load-tolerant:
        // even slow CI machines do this in well under 200ns/probe.
        let _lock = session_guard();
        set_enabled(false);
        let n = 100_000u64;
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            for i in 0..n {
                let _s = span!("t", "hot {i}");
                std::hint::black_box(i);
            }
            best = best.min(t0.elapsed().as_secs_f64());
        }
        let per_probe_ns = best / n as f64 * 1e9;
        assert!(
            per_probe_ns < 200.0,
            "disabled span costs {per_probe_ns:.1}ns per probe"
        );
    }
}
