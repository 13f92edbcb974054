//! A counting global allocator wrapping [`System`].
//!
//! It keeps three process-wide counters: bytes ever requested, bytes live
//! now, and the peak of live bytes since the last [`reset_peak`]. The
//! benchmark drives the engine from one client thread with one executor
//! worker, so the difference of [`allocated`] around a call is exactly the
//! bytes that call requested.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The allocator installed as `#[global_allocator]` by this crate.
pub struct CountingAlloc;

// The counters publish no other data, so relaxed ordering suffices.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    let size = size as u64;
    ALLOCATED.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

fn on_free(size: usize) {
    LIVE.fetch_sub(size as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates atomic counters besides, so `System`'s
// guarantees carry over; the counters never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as `GlobalAlloc::dealloc` requires of the caller.
        unsafe { System.dealloc(ptr, layout) };
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Bytes requested so far: every `alloc`, `alloc_zeroed`, and the new size
/// of every `realloc`.
#[must_use]
pub fn allocated() -> u64 {
    ALLOCATED.load(Relaxed)
}

/// The largest live byte count since the last [`reset_peak`].
#[must_use]
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}

/// Restarts peak tracking from the current live byte count.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}
