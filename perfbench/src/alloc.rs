//! A counting global allocator: live and peak heap bytes of this process.
//! Installed in the benchmark binary only; each workload runs in its own
//! process, so one peak never mixes two workloads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes. `Relaxed` throughout: the counters are statistics and
/// publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread allocates or frees the benchmark's own
    /// sample buffers, which the heap figures leave out.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Forwards to [`System`] and keeps [`LIVE`]/[`PEAK`] current.
pub struct Counting;

fn counted() -> bool {
    !UNCOUNTED.with(Cell::get)
}

fn grew(bytes: usize) {
    if !counted() {
        return;
    }
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    if !counted() {
        return;
    }
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards the caller's arguments unchanged to
// `System`, which upholds the `GlobalAlloc` requirements; the bookkeeping
// only touches atomics and never the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's (valid, non-zero-size) layout.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block from this allocator and `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Run `f` with this thread's allocations left out of the heap figures.
/// Every allocation, growth and release of one buffer must go through
/// here, or the live count drifts.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    UNCOUNTED.with(|u| u.set(true));
    let out = f();
    UNCOUNTED.with(|u| u.set(false));
    out
}

/// Peak live heap bytes since start-up.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}
