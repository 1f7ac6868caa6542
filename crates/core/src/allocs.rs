//! Allocation-counting hook for the hot-path zero-allocation assertions.
//!
//! The library never installs an allocator itself: the `hotpath_alloc`
//! integration test and the benchmark's traced binary install
//! [`CountingAllocator`] as their `#[global_allocator]` and read
//! [`counters`] around a code region to measure its heap traffic. The
//! counters are process-global and monotone; callers snapshot before and
//! after the region and subtract.
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
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

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
