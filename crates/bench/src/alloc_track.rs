//! Peak-allocation accounting for `perf_report` (BENCH schema v4).
//!
//! With the `alloc-track` feature, [`CountingAlloc`] wraps the system
//! allocator and keeps two atomic counters: bytes currently live and the
//! high-water mark since the last [`mark`]. `perf_report` installs it as
//! the `#[global_allocator]`, brackets each measured phase with
//! [`mark`]/[`peak_since`], and records the *delta* peak — how far above
//! the phase's starting residency the heap climbed — as
//! `peak_alloc_bytes`. The delta form matters because the workspace pools
//! dropped arenas (`Mrct`/`Bcat` recycling): pooled buffers stay live
//! between phases, and charging them to whichever phase runs next would
//! make the numbers order-dependent.
//!
//! Without the feature every function is a no-op stub
//! ([`enabled`] returns `false`) so the reporting code needs no `cfg`s.
//!
//! The counters are plain `std::sync::atomic` (permitted by the sync-shim
//! lint, which scopes only the blocking primitives): a global allocator
//! must not call into the modeled shim, and the bench binaries are
//! single-threaded where it matters anyway.

#[cfg(feature = "alloc-track")]
#[allow(unsafe_code)]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static CURRENT: AtomicU64 = AtomicU64::new(0);
    static PEAK: AtomicU64 = AtomicU64::new(0);

    /// A [`System`]-wrapping allocator that tracks live bytes and their
    /// high-water mark.
    #[derive(Debug)]
    pub struct CountingAlloc;

    fn grow(bytes: usize) {
        let bytes = bytes as u64;
        let now = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }

    fn shrink(bytes: usize) {
        CURRENT.fetch_sub(bytes as u64, Ordering::Relaxed);
    }

    // SAFETY: every method delegates verbatim to `System` and only adds
    // counter bookkeeping around the call, so `CountingAlloc` upholds
    // exactly the contract `System` does.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                grow(layout.size());
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                grow(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            shrink(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                if new_size >= layout.size() {
                    grow(new_size - layout.size());
                } else {
                    shrink(layout.size() - new_size);
                }
            }
            p
        }
    }

    pub fn enabled() -> bool {
        true
    }

    pub fn mark() -> u64 {
        let now = CURRENT.load(Ordering::Relaxed);
        PEAK.store(now, Ordering::Relaxed);
        now
    }

    pub fn peak_since(mark: u64) -> u64 {
        PEAK.load(Ordering::Relaxed).saturating_sub(mark)
    }
}

#[cfg(feature = "alloc-track")]
pub use imp::CountingAlloc;

/// `true` when the build carries the `alloc-track` feature and the
/// counters are live.
#[must_use]
pub fn enabled() -> bool {
    #[cfg(feature = "alloc-track")]
    {
        imp::enabled()
    }
    #[cfg(not(feature = "alloc-track"))]
    {
        false
    }
}

/// Resets the high-water mark to the current residency and returns that
/// residency, for [`peak_since`]. Always `0` without the feature.
#[must_use]
pub fn mark() -> u64 {
    #[cfg(feature = "alloc-track")]
    {
        imp::mark()
    }
    #[cfg(not(feature = "alloc-track"))]
    {
        0
    }
}

/// Bytes the heap climbed above `mark` since the matching [`mark`] call.
/// Always `0` without the feature.
#[must_use]
pub fn peak_since(mark: u64) -> u64 {
    #[cfg(feature = "alloc-track")]
    {
        imp::peak_since(mark)
    }
    #[cfg(not(feature = "alloc-track"))]
    {
        let _ = mark;
        0
    }
}

#[cfg(all(test, feature = "alloc-track"))]
mod tests {
    use super::*;

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn peak_tracks_a_large_allocation() {
        let m = mark();
        let buf = vec![7u8; 1 << 20];
        let peak = peak_since(m);
        drop(buf);
        assert!(peak >= 1 << 20, "peak {peak} missed the 1 MiB allocation");
        // After the drop the *peak* stays; a fresh mark resets it below.
        let m2 = mark();
        assert!(peak_since(m2) < 1 << 20);
    }
}
