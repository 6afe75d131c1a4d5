//! A counting global allocator: every allocation the process makes (the
//! engine's, the server's and the benchmark's own) is counted, and live
//! heap bytes are tracked with a resettable high-water mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The system allocator plus relaxed counters. The counters publish no
/// other data, so `Relaxed` is enough.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    /// A reallocation counts as one allocation of the new size.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

/// Allocation counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Allocations (including reallocations) since process start.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// Live heap bytes.
    pub live: usize,
}

/// Reads the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
    }
}

/// Starts a measured phase: resets the high-water mark to the current live
/// level and returns the counters the phase is measured from.
pub fn begin_phase() -> Snapshot {
    let s = snapshot();
    PEAK.store(s.live, Ordering::Relaxed);
    s
}

/// Counts over a measured phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseCounts {
    /// Allocations made during the phase.
    pub allocs: u64,
    /// Bytes requested during the phase.
    pub bytes: u64,
    /// Peak live heap during the phase, above its level at the start.
    pub peak_above_start: usize,
}

/// Ends a measured phase started with [`begin_phase`].
pub fn end_phase(start: Snapshot) -> PhaseCounts {
    let end = snapshot();
    PhaseCounts {
        allocs: end.allocs - start.allocs,
        bytes: end.bytes - start.bytes,
        peak_above_start: PEAK.load(Ordering::Relaxed).saturating_sub(start.live),
    }
}
