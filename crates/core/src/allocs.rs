//! Allocation hooks: counting for the hot-path zero-allocation assertions,
//! live and peak bytes for the heap-footprint ones.
//!
//! The library never installs an allocator itself: the `hotpath_alloc`
//! integration test and the benchmark's traced binary install
//! [`CountingAllocator`] as their `#[global_allocator]` and read
//! [`counters`] around a code region to measure its heap traffic. The
//! counters are process-global and monotone; callers snapshot before and
//! after the region and subtract. The `footprint` integration test and the
//! `repro` binary install [`PeakAllocator`] instead and read [`heap`] after
//! [`reset_peak`] to measure the most a region held at once.
//!
//! ```
//! use p2pdc::allocs;
//!
//! let before = allocs::counters();
//! let v = vec![0u8; 64]; // not counted here — no counting allocator installed
//! drop(v);
//! let after = allocs::counters();
//! assert!(after.allocations >= before.allocations);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// A `GlobalAlloc` that forwards to the system allocator and counts every
/// allocation event. `realloc` counts as one event (the data may move);
/// frees are not tracked — the counter measures allocation *pressure*, not
/// live heap.
pub struct CountingAllocator;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A snapshot of the process-global allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCounters {
    /// Allocation events (alloc + alloc_zeroed + realloc) since start.
    pub allocations: u64,
}

impl AllocCounters {
    /// Counter increments since an earlier snapshot.
    pub fn since(&self, earlier: AllocCounters) -> AllocCounters {
        AllocCounters {
            allocations: self.allocations - earlier.allocations,
        }
    }
}

/// Read the current counters. Zeros (forever) unless [`CountingAllocator`]
/// is installed as the process's `#[global_allocator]`.
pub fn counters() -> AllocCounters {
    AllocCounters {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
    }
}

/// A `GlobalAlloc` that forwards to the system allocator and tracks the
/// bytes the process holds live and their high-water mark (requested sizes,
/// not the allocator's own overhead).
pub struct PeakAllocator;

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the byte tallies have no effect on the returned
// memory.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => shrank(layout.size() - new_size),
            }
        }
        moved
    }
}

/// Live heap bytes and their high-water mark since the last [`reset_peak`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapBytes {
    /// Bytes allocated and not yet freed.
    pub live: usize,
    /// The most bytes live at once.
    pub peak: usize,
}

/// Read the heap tallies. Zeros (forever) unless [`PeakAllocator`] is
/// installed as the process's `#[global_allocator]`.
pub fn heap() -> HeapBytes {
    HeapBytes {
        live: LIVE_BYTES.load(Ordering::Relaxed),
        peak: PEAK_BYTES.load(Ordering::Relaxed),
    }
}

/// Restart the high-water mark at what is live now, so the next [`heap`]
/// reads the peak of the region in between.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}
