//! Peak live heap of the benchmark process.
//!
//! A global allocator that forwards every call to the system allocator
//! and keeps the bytes currently allocated in blocks of at least
//! [`LARGE`] bytes, and their high-water mark. Those blocks (filter
//! counters, trace and journal buffers) hold this program's memory; the
//! small ones are left uncounted so that the simulator's per-cycle
//! allocations on several threads do not contend on the counters.
//! Unlike VmHWM, the live-heap peak does not depend on which freed chunks
//! the C allocator happens to recycle (and therefore zero and fault in),
//! so it repeats from run to run while still following allocation sizes
//! such as the BlockHammer filters'.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct Counting;

/// Smallest block counted, in bytes.
pub const LARGE: usize = 64 << 10;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// Both counters are statistics that publish no other data, so every
// access is Relaxed.
fn grew(bytes: usize) {
    if bytes < LARGE {
        return;
    }
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if bytes < LARGE {
        return;
    }
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged, so `Counting` upholds the
// `GlobalAlloc` contract exactly when `System` does; the counters are only
// updated after a successful call.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` carry over.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`; forwarding keeps the system's calloc path
        // (lazily zeroed pages), which the benchmark must not change.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through this allocator)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` carry over to `System`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        moved
    }
}

/// Starts a new high-water mark at the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The live-heap high-water mark since the last [`reset_peak`], in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / f64::from(1u32 << 20)
}
