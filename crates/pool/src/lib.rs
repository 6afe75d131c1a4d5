//! # sod2-pool — work-sharing thread pool for intra-op parallelism
//!
//! A hermetic (std-only) thread pool that kernels use to partition
//! row/channel/lane ranges across threads. The design is *work-sharing*:
//! every parallel region is decomposed into a fixed sequence of chunks
//! (independent of the thread count), and the calling thread plus the pool
//! workers claim chunks from a shared atomic counter until none remain.
//! Because the decomposition never depends on how many threads participate,
//! and each chunk computes exactly the elements the serial loop would,
//! kernel outputs are **bitwise identical at every thread count**.
//!
//! Thread count resolution:
//!
//! 1. a thread-local override installed by [`with_threads`] (tests and the
//!    bench harness use this to pin 1/2/4 threads inside one process),
//! 2. otherwise the `SOD2_THREADS` environment variable,
//! 3. otherwise [`std::thread::available_parallelism`].
//!
//! At an effective width of 1 every region runs inline on the caller with
//! no queue traffic at all — the graceful serial fallback.
//!
//! Workers are spawned lazily (up to `width - 1` for the widest region seen
//! so far, hard-capped) and persist for the life of the process, parked on a
//! condition variable when idle. The caller always participates in its own
//! region and returns only after every chunk has completed, which is what
//! makes the lifetime erasure of the region body sound (see `Job`).

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on pool workers (the caller thread adds one more).
const MAX_WORKERS: usize = 63;

/// One queued parallel region.
///
/// `body` is a raw pointer to a chunk closure living on the submitting
/// thread's stack. The submitter blocks in [`parallel_for`] until
/// `done == chunks`, and a participant dereferences `body` only after
/// claiming a chunk index `< chunks` — every such claim is followed by a
/// `done` increment the submitter waits for. Hence the closure outlives
/// every dereference, even though the pointer is typed `'static`.
struct Job {
    body: *const (dyn Fn(usize) + Sync),
    chunks: usize,
    /// Submission timestamp (`sod2_obs::session_ns`), 0 when profiling is
    /// off — lets the first claim report queue latency.
    submitted_ns: u64,
    /// The submitter's cooperative deadline (see [`with_deadline`]): once
    /// past it, claimed chunks skip their body (accounting still runs) so
    /// the region drains quickly instead of finishing doomed work.
    deadline: Option<Instant>,
    /// Next unclaimed chunk index (may grow past `chunks` under probing).
    next: AtomicUsize,
    /// Completed chunk count.
    done: AtomicUsize,
    /// Set when a chunk body panicked on a worker thread.
    poisoned: AtomicBool,
    /// Pairs with `cv` to signal the submitter on completion.
    lock: Mutex<()>,
    cv: Condvar,
}

// SAFETY: `body` is only dereferenced under the claim protocol documented
// on `Job`; all other fields are atomics or sync primitives.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

struct Pool {
    queue: Mutex<Vec<Arc<Job>>>,
    cv: Condvar,
    spawned: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(Vec::new()),
        cv: Condvar::new(),
        spawned: AtomicUsize::new(0),
    })
}

/// The process-wide default thread count: `SOD2_THREADS` if set to a
/// positive integer, otherwise the machine's available parallelism.
/// Read once and cached.
pub fn max_threads() -> usize {
    static MAX: OnceLock<usize> = OnceLock::new();
    *MAX.get_or_init(|| {
        std::env::var("SOD2_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
            .min(MAX_WORKERS + 1)
    })
}

thread_local! {
    /// 0 = no override.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// When set, serial chunk executions record their wallclock seconds
    /// (see [`record_chunks`]).
    static RECORDER: RefCell<Option<Vec<f64>>> = const { RefCell::new(None) };
    /// Cooperative deadline for regions *submitted* by this thread.
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Runs `f` with a cooperative deadline installed on this thread (restored
/// afterwards, including on panic). Parallel regions submitted under the
/// deadline stop executing chunk bodies once it passes — the region still
/// completes its accounting and returns, but remaining chunks are skipped,
/// so the caller must treat the result as abandoned (the runtime returns
/// `DeadlineExceeded` and discards it).
///
/// `None` clears any inherited deadline for the scope of `f`.
pub fn with_deadline<R>(deadline: Option<Instant>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Instant>);
    impl Drop for Restore {
        fn drop(&mut self) {
            DEADLINE.with(|d| d.set(self.0));
        }
    }
    let prev = DEADLINE.with(Cell::get);
    let _restore = Restore(prev);
    DEADLINE.with(|d| d.set(deadline));
    f()
}

/// Whether this thread's cooperative deadline has passed. Cheap when no
/// deadline is installed (one thread-local read); executors call this at
/// node boundaries to cancel doomed inferences.
pub fn deadline_exceeded() -> bool {
    DEADLINE
        .with(Cell::get)
        .is_some_and(|d| Instant::now() >= d)
}

/// The thread count parallel regions on this thread will use.
pub fn current_threads() -> usize {
    let o = OVERRIDE.with(Cell::get);
    if o >= 1 {
        o.min(MAX_WORKERS + 1)
    } else {
        max_threads()
    }
}

/// Runs `f` with parallel regions on this thread pinned to `n` threads
/// (restores the previous override afterwards, including on panic).
///
/// The override is thread-local: it governs regions *submitted* by this
/// thread, which is exactly what equivalence tests need to compare one
/// kernel at several widths inside one process.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(Cell::get);
    let _restore = Restore(prev);
    OVERRIDE.with(|o| o.set(n.max(1)));
    f()
}

/// Runs `f` serially (1 thread) while recording the wallclock seconds of
/// every chunk its parallel regions would have distributed. Returns the
/// closure result and the per-chunk timings, in chunk order.
///
/// The bench harness replays these timings through a greedy self-scheduling
/// simulation to report the decomposition's achievable speedup even when
/// the host has fewer cores than the requested width.
pub fn record_chunks<R>(f: impl FnOnce() -> R) -> (R, Vec<f64>) {
    RECORDER.with(|r| *r.borrow_mut() = Some(Vec::new()));
    let out = with_threads(1, f);
    let times = RECORDER.with(|r| r.borrow_mut().take()).unwrap_or_default();
    (out, times)
}

/// Greedy list-scheduling makespan of `chunk_secs` onto `workers` — the
/// completion time the work-sharing pool achieves with ideal hardware
/// (each chunk goes to the earliest-free worker, in chunk order, which is
/// exactly the shared-counter claim order).
pub fn scheduled_makespan(chunk_secs: &[f64], workers: usize) -> f64 {
    let workers = workers.max(1);
    let mut busy = vec![0f64; workers];
    for &c in chunk_secs {
        let (i, _) = busy
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("workers >= 1");
        busy[i] += c;
    }
    busy.iter().cloned().fold(0f64, f64::max)
}

/// Claims and executes chunks of `job` until none remain.
fn run_job_chunks(job: &Job) {
    loop {
        let idx = job.next.fetch_add(1, Ordering::SeqCst);
        if idx >= job.chunks {
            return;
        }
        if idx == 0 && job.submitted_ns > 0 {
            // First claim: how long the region sat in the queue.
            sod2_obs::counter_add(
                "pool.queue_ns",
                sod2_obs::session_ns().saturating_sub(job.submitted_ns),
            );
        }
        // Completion is signalled even if the body panics, so the
        // submitter can observe the poison instead of deadlocking.
        struct DoneGuard<'a>(&'a Job);
        impl Drop for DoneGuard<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.poisoned.store(true, Ordering::SeqCst);
                }
                let d = self.0.done.fetch_add(1, Ordering::SeqCst) + 1;
                if d == self.0.chunks {
                    let _held = self.0.lock.lock().unwrap_or_else(|e| e.into_inner());
                    self.0.cv.notify_all();
                }
            }
        }
        let _guard = DoneGuard(job);
        // Past the region's deadline the result is already abandoned:
        // keep the accounting (the DoneGuard above) but skip the work.
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            continue;
        }
        // SAFETY: idx < chunks, so the submitter is still blocked in
        // `parallel_for` and the closure behind `body` is alive.
        unsafe { (*job.body)(idx) };
    }
}

/// Claims every remaining chunk of `job` as a no-op (completing its
/// accounting) and waits until all claimed chunks are done. Called by the
/// submitter's unwind guard: after this returns, no participant can still
/// be inside the region body, so the submitter may safely leave the stack
/// frame the body lives on.
fn drain_job(job: &Job) {
    loop {
        let idx = job.next.fetch_add(1, Ordering::SeqCst);
        if idx >= job.chunks {
            break;
        }
        let d = job.done.fetch_add(1, Ordering::SeqCst) + 1;
        if d == job.chunks {
            let _held = job.lock.lock().unwrap_or_else(|e| e.into_inner());
            job.cv.notify_all();
        }
    }
    let mut held = job.lock.lock().unwrap_or_else(|e| e.into_inner());
    while job.done.load(Ordering::SeqCst) < job.chunks {
        held = job.cv.wait(held).unwrap_or_else(|e| e.into_inner());
    }
}

fn worker_loop() {
    let p = pool();
    loop {
        let job: Arc<Job> = {
            let mut q = p.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(j) = q.iter().find(|j| j.next.load(Ordering::SeqCst) < j.chunks) {
                    break j.clone();
                }
                q.retain(|j| j.next.load(Ordering::SeqCst) < j.chunks);
                q = p.cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let _span = sod2_obs::span!("pool", "worker chunks x{}", job.chunks);
        // A panicking chunk poisons its own job (see `DoneGuard`) but must
        // not take the worker with it: catching the unwind here keeps the
        // thread in the pool at full capacity for subsequent regions —
        // respawn-in-place, without the spawn cost or a `spawned`-count
        // leak.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job_chunks(&job)));
        if r.is_err() {
            sod2_obs::counter_add("pool.worker_recoveries", 1);
        }
    }
}

/// Ensures at least `n` pool workers exist (bounded by [`MAX_WORKERS`]).
fn ensure_workers(n: usize) {
    let p = pool();
    let n = n.min(MAX_WORKERS);
    loop {
        let cur = p.spawned.load(Ordering::SeqCst);
        if cur >= n {
            return;
        }
        if p.spawned
            .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            let res = std::thread::Builder::new()
                .name(format!("sod2-pool-{cur}"))
                .spawn(worker_loop);
            if res.is_err() {
                // Could not spawn (resource limits): undo and degrade to
                // whatever exists — callers still make progress themselves.
                p.spawned.fetch_sub(1, Ordering::SeqCst);
                return;
            }
        }
    }
}

/// Partitions `0..items` into grain-sized chunks and executes `body` over
/// every chunk range, in parallel when the current width allows it.
///
/// The chunk decomposition depends only on `items` and `grain`, never on
/// the thread count, so any body whose per-element work is independent of
/// chunk boundaries produces bitwise-identical results at every width.
///
/// # Panics
///
/// Panics if a chunk body panicked (the panic is propagated from worker
/// threads as a new panic on the caller).
pub fn parallel_for(items: usize, grain: usize, body: impl Fn(Range<usize>) + Sync) {
    let grain = grain.max(1);
    if items == 0 {
        return;
    }
    let chunks = items.div_ceil(grain);
    let chunk_body = |idx: usize| {
        if sod2_faults::probe(sod2_faults::Site::PoolPanic).is_some() {
            panic!("sod2-faults: injected chunk panic (pool.panic)");
        }
        let start = idx * grain;
        let end = (start + grain).min(items);
        let recording = RECORDER.with(|r| r.borrow().is_some());
        // Busy-time attribution: with profiling on, every chunk's wallclock
        // feeds `pool.busy_ns`, so occupancy (busy / (wall × workers)) is
        // observable regardless of which thread ran the chunk.
        let busy_t0 = if sod2_obs::enabled() {
            Some(Instant::now())
        } else {
            None
        };
        if recording {
            let t0 = Instant::now();
            body(start..end);
            let dt = t0.elapsed().as_secs_f64();
            RECORDER.with(|r| {
                if let Some(v) = r.borrow_mut().as_mut() {
                    v.push(dt);
                }
            });
        } else {
            body(start..end);
        }
        if let Some(t0) = busy_t0 {
            sod2_obs::counter_add("pool.busy_ns", t0.elapsed().as_nanos() as u64);
        }
    };
    let width = current_threads().min(chunks);
    let _region = sod2_obs::span!("pool", "region x{chunks} w{width}");
    sod2_obs::counter_add("pool.regions", 1);
    sod2_obs::counter_add("pool.chunks", chunks as u64);
    let deadline = DEADLINE.with(Cell::get);
    if width <= 1 {
        for idx in 0..chunks {
            // Same cooperative cancellation as the parallel path: a region
            // past its deadline stops computing (the caller discards the
            // partial result via `deadline_exceeded`).
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return;
            }
            chunk_body(idx);
        }
        return;
    }
    ensure_workers(width - 1);
    let body_ref: &(dyn Fn(usize) + Sync) = &chunk_body;
    // SAFETY: the 'static lifetime is a lie the completion barrier makes
    // true in practice — see the `Job` docs.
    let body_ptr: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body_ref)
    };
    let job = Arc::new(Job {
        body: body_ptr,
        chunks,
        submitted_ns: if sod2_obs::enabled() {
            sod2_obs::session_ns().max(1)
        } else {
            0
        },
        deadline,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        poisoned: AtomicBool::new(false),
        lock: Mutex::new(()),
        cv: Condvar::new(),
    });
    let p = pool();
    {
        let mut q = p.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.push(job.clone());
    }
    p.cv.notify_all();
    // If the submitter's own chunk body panics, control would unwind out of
    // this frame while workers may still be dereferencing `body` — a stack
    // closure. The guard makes that sound: on unwind it claims the
    // remaining chunks as no-ops, waits for every in-flight chunk, and
    // dequeues the job before the frame is torn down.
    struct SubmitGuard<'a> {
        job: &'a Arc<Job>,
        armed: bool,
    }
    impl Drop for SubmitGuard<'_> {
        fn drop(&mut self) {
            if !self.armed {
                return;
            }
            drain_job(self.job);
            let p = pool();
            let mut q = p.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.retain(|j| !Arc::ptr_eq(j, self.job));
        }
    }
    let mut guard = SubmitGuard {
        job: &job,
        armed: true,
    };
    run_job_chunks(&job);
    // Wait for chunks claimed by workers.
    {
        let mut held = job.lock.lock().unwrap_or_else(|e| e.into_inner());
        while job.done.load(Ordering::SeqCst) < job.chunks {
            held = job.cv.wait(held).unwrap_or_else(|e| e.into_inner());
        }
    }
    {
        let mut q = p.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.retain(|j| !Arc::ptr_eq(j, &job));
    }
    guard.armed = false;
    if job.poisoned.load(Ordering::SeqCst) {
        panic!("sod2-pool: a parallel chunk panicked on a worker thread");
    }
}

/// Pointer wrapper making a raw slice base shareable across the region.
struct SlicePtr<T>(*mut T);
// SAFETY: participants only form non-overlapping subslices from it.
unsafe impl<T: Send> Sync for SlicePtr<T> {}

impl<T> SlicePtr<T> {
    // Accessor (rather than a direct field read) so closures capture the
    // Sync wrapper, not the raw pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Splits `data` into grain-sized disjoint chunks and executes
/// `body(offset, chunk)` over each, in parallel when possible. `offset` is
/// the chunk's element offset into `data`; chunks are disjoint by
/// construction, which is what makes handing out `&mut [T]` sound.
pub fn scope_chunks<T: Send>(data: &mut [T], grain: usize, body: impl Fn(usize, &mut [T]) + Sync) {
    let len = data.len();
    let base = SlicePtr(data.as_mut_ptr());
    parallel_for(len, grain, |range| {
        // SAFETY: ranges from `parallel_for` partition 0..len disjointly.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(range.start), range.len()) };
        body(range.start, chunk);
    });
}

/// Like [`scope_chunks`] but with caller-chosen (possibly uneven) part
/// boundaries: `bounds[i]` is the exclusive end offset of part `i`, and
/// the last bound must equal `data.len()`. Executes
/// `body(part_index, offset, part)` over every part, in parallel when the
/// width allows.
///
/// # Panics
///
/// Panics when `bounds` is not ascending or does not cover `data` exactly.
pub fn scope_parts<T: Send>(
    data: &mut [T],
    bounds: &[usize],
    body: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    let len = data.len();
    if bounds.is_empty() {
        assert_eq!(len, 0, "scope_parts: no bounds for non-empty data");
        return;
    }
    let mut prev = 0usize;
    for &b in bounds {
        assert!(b >= prev && b <= len, "scope_parts: bounds must ascend");
        prev = b;
    }
    assert_eq!(prev, len, "scope_parts: bounds must cover data");
    let base = SlicePtr(data.as_mut_ptr());
    parallel_for(bounds.len(), 1, |range| {
        for part in range {
            let start = if part == 0 { 0 } else { bounds[part - 1] };
            let end = bounds[part];
            // SAFETY: [start, end) ranges are disjoint across parts by the
            // ascending-bounds check above.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
            body(part, start, chunk);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn serial_and_parallel_sum_agree() {
        let n = 10_000usize;
        for width in [1, 2, 4] {
            let total = AtomicU64::new(0);
            with_threads(width, || {
                parallel_for(n, 128, |r| {
                    let s: u64 = r.map(|i| i as u64).sum();
                    total.fetch_add(s, Ordering::SeqCst);
                });
            });
            assert_eq!(
                total.load(Ordering::SeqCst),
                (n as u64 - 1) * n as u64 / 2,
                "width {width}"
            );
        }
    }

    #[test]
    fn scope_chunks_fills_disjointly() {
        let mut v = vec![0usize; 1000];
        with_threads(4, || {
            scope_chunks(&mut v, 64, |off, chunk| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x = off + i;
                }
            });
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i);
        }
    }

    #[test]
    fn scope_parts_uneven_boundaries() {
        let mut v = vec![0usize; 100];
        let bounds = [10, 10, 37, 100];
        with_threads(4, || {
            scope_parts(&mut v, &bounds, |part, off, chunk| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x = part * 1000 + off + i;
                }
            });
        });
        assert_eq!(v[0], 0);
        assert_eq!(v[9], 9);
        assert_eq!(v[10], 2010);
        assert_eq!(v[36], 2036);
        assert_eq!(v[37], 3037);
        assert_eq!(v[99], 3099);
    }

    #[test]
    fn zero_items_is_a_noop() {
        parallel_for(0, 16, |_| panic!("must not run"));
    }

    #[test]
    fn override_restored_after_panic() {
        let before = current_threads();
        let r = std::panic::catch_unwind(|| with_threads(3, || panic!("boom")));
        assert!(r.is_err());
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let r = std::panic::catch_unwind(|| {
            with_threads(4, || {
                parallel_for(64, 1, |range| {
                    if range.start == 13 {
                        panic!("chunk 13 fails");
                    }
                });
            });
        });
        assert!(r.is_err());
    }

    #[test]
    fn panicked_region_does_not_fail_next_region() {
        // Region N: every chunk panics, on workers and submitter alike.
        let r = std::panic::catch_unwind(|| {
            with_threads(4, || {
                parallel_for(64, 1, |_| panic!("region N fails"));
            });
        });
        assert!(r.is_err());
        // Region N+1 on the same pool: full capacity, correct output.
        let mut v = vec![0usize; 1000];
        with_threads(4, || {
            scope_chunks(&mut v, 8, |off, chunk| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x = off + i;
                }
            });
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i, "region N+1 corrupted at {i}");
        }
    }

    #[test]
    fn expired_deadline_skips_chunk_bodies() {
        for width in [1, 4] {
            let ran = AtomicU64::new(0);
            with_threads(width, || {
                with_deadline(Some(Instant::now()), || {
                    assert!(deadline_exceeded());
                    parallel_for(64, 1, |_| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                });
            });
            assert_eq!(ran.load(Ordering::SeqCst), 0, "width {width}");
        }
        assert!(!deadline_exceeded(), "deadline must not leak past scope");
    }

    #[test]
    fn far_deadline_does_not_skip_work() {
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let ran = AtomicU64::new(0);
        with_threads(4, || {
            with_deadline(Some(far), || {
                parallel_for(64, 1, |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            });
        });
        assert_eq!(ran.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn injected_pool_panic_poisons_then_recovers() {
        use sod2_faults::{FaultPlan, Site, Trigger};
        let _serial = sod2_faults::exclusive();
        sod2_faults::install(FaultPlan::new(7).rule(Site::PoolPanic, Trigger::Nth(1), 0));
        let r = std::panic::catch_unwind(|| {
            with_threads(4, || parallel_for(32, 1, |_| {}));
        });
        sod2_faults::clear();
        assert!(r.is_err(), "injected chunk panic must poison the region");
        // The pool keeps working after the injected panic.
        let total = AtomicU64::new(0);
        with_threads(4, || {
            parallel_for(32, 1, |r| {
                total.fetch_add(r.start as u64, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), (0..32).sum::<u64>());
    }

    #[test]
    fn nested_regions_complete() {
        let total = AtomicU64::new(0);
        with_threads(4, || {
            parallel_for(8, 1, |outer| {
                parallel_for(8, 1, |inner| {
                    total.fetch_add((outer.start * 8 + inner.start) as u64, Ordering::SeqCst);
                });
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), (0..64).sum::<u64>());
    }

    #[test]
    fn recorder_captures_chunk_times() {
        let ((), times) = record_chunks(|| {
            parallel_for(100, 10, |r| {
                std::hint::black_box(r.map(|i| i as f64).sum::<f64>());
            });
        });
        assert_eq!(times.len(), 10);
        assert!(times.iter().all(|&t| t >= 0.0));
    }

    #[test]
    fn makespan_scales_with_workers() {
        let chunks = vec![1.0; 16];
        let s1 = scheduled_makespan(&chunks, 1);
        let s4 = scheduled_makespan(&chunks, 4);
        assert!((s1 - 16.0).abs() < 1e-9);
        assert!((s4 - 4.0).abs() < 1e-9);
    }
}
