//! Allocation counting for the traced run.
//!
//! [`CountingAlloc`] is installed as the global allocator only by the
//! `csbench-traced` binary; the end-to-end binary keeps the system
//! allocator unchanged. Counts are per thread, so fleet workers never
//! contend on a shared counter, and they only move while counting is
//! switched on (the traced half of each iteration pair). A `realloc`
//! counts as one allocation of its new size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, plus a per-thread count of allocations and bytes.
pub struct CountingAlloc;

fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        // `try_with`: a thread being torn down may still free and allocate.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees for `GlobalAlloc` carry over; the bookkeeping only
// touches const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// This thread's running `(allocations, bytes)` totals.
pub fn thread_counts() -> (u64, u64) {
    (
        ALLOCS.try_with(Cell::get).unwrap_or(0),
        BYTES.try_with(Cell::get).unwrap_or(0),
    )
}

/// Runs `f` without charging its allocations to this thread, so the
/// benchmark's own bookkeeping never shows up in a layer's counts.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let (allocs, bytes) = thread_counts();
    let out = f();
    let _ = ALLOCS.try_with(|c| c.set(allocs));
    let _ = BYTES.try_with(|c| c.set(bytes));
    out
}
