//! The benchmark's counting allocator. Live bytes and their high-water
//! mark are process-wide atomics, so `peak_heap_mb` stays exact when the
//! streamed workload's two shards allocate at once; allocation counts
//! are per thread, so a callback's count excludes the other shard's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The counters are statistics that publish no other data, so every
/// access is `Relaxed`.
static LIVE: AtomicU64 = AtomicU64::new(0);
static HIGH_WATER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAlloc;

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    HIGH_WATER.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` with the caller's
// arguments unchanged, so `System` upholds the `GlobalAlloc` contract;
// the counter updates touch no allocated memory and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        shrink(layout.size());
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations the calling thread has made so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Starts a peak measurement: re-arms the high-water mark at the current
/// live level and returns that level.
pub fn start_peak() -> u64 {
    let live = LIVE.load(Ordering::Relaxed);
    HIGH_WATER.store(live, Ordering::Relaxed);
    live
}

/// Bytes the live heap climbed above `base` since [`start_peak`].
pub fn peak_since(base: u64) -> u64 {
    HIGH_WATER.load(Ordering::Relaxed).saturating_sub(base)
}
