//! Allocation profiling: a counting global-allocator wrapper plus
//! thread-local counters the pipeline samples around each stage.
//!
//! The module is always compiled and costs nothing unless a binary actually
//! installs [`CountingAlloc`] as its `#[global_allocator]` — without it the
//! counters stay at zero, [`snapshot`] deltas are zero, and the profile
//! renders the alloc column as `-`. The benchmark suite (`coevo-bench`,
//! feature `count-allocs`, on by default) installs it in its bench and test
//! binaries; the production `coevo` binary never does, so the study's hot
//! path keeps the system allocator with zero indirection.
//!
//! Counters are **thread-local**: a worker thread measuring its own stage
//! spans sees only its own allocations, so parallel workers never contend on
//! a shared atomic and per-stage attribution stays exact. The trade-off is
//! that a delta taken on thread A says nothing about thread B — which is
//! precisely the semantics [`crate::pipeline::process`] wants, since one
//! project's whole pipeline runs on one worker.

use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide live-byte accounting, unlike the per-stage counters above:
/// every thread's allocs and deallocs flow into one signed total, and the
/// high-water mark is maintained with `fetch_max`. Signed because a block
/// can be freed on a different thread than it was allocated on (and after a
/// [`reset_peak_live`], more bytes can die than were born since). The peak
/// is what the streamed-study memory assertions read: it bounds the live
/// heap of the whole process, exactly the bounded-memory claim under test.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE: AtomicI64 = AtomicI64::new(0);

fn note_live(delta: i64) {
    let now = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    if delta > 0 {
        PEAK_LIVE.fetch_max(now, Ordering::Relaxed);
    }
}

/// A `#[global_allocator]` wrapper that counts allocations and allocated
/// bytes into thread-local counters before delegating to the inner
/// allocator.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: coevo_engine::allocs::CountingAlloc<std::alloc::System> =
///     coevo_engine::allocs::CountingAlloc(std::alloc::System);
/// ```
pub struct CountingAlloc<A>(pub A);

/// Bump the thread's counters. `try_with` because the allocator runs during
/// thread teardown, after the TLS slots may already be destroyed.
fn note(bytes: usize) {
    let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: delegates every operation unchanged to the inner allocator; the
// counter bumps touch only plain thread-local `Cell`s and never allocate.
unsafe impl<A: GlobalAlloc> GlobalAlloc for CountingAlloc<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_live(layout.size() as i64);
        self.0.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_live(layout.size() as i64);
        self.0.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is the moment a fresh block may be obtained; count the new
        // size so repeated `Vec` doubling shows up in the byte counter.
        note(new_size);
        note_live(new_size as i64 - layout.size() as i64);
        self.0.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as i64));
        self.0.dealloc(ptr, layout)
    }
}

/// A point-in-time reading of the current thread's allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Allocations (including zeroed allocs and reallocs) since thread
    /// start.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// The counter delta from `earlier` to `self` (saturating, so a
    /// snapshot pair taken across threads degrades to zero instead of
    /// wrapping).
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Read the current thread's allocation counters. All zeros unless the
/// binary installed a [`CountingAlloc`] as its global allocator.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOC_COUNT.try_with(Cell::get).unwrap_or(0),
        bytes: ALLOC_BYTES.try_with(Cell::get).unwrap_or(0),
    }
}

/// Live heap bytes right now, process-wide. Zero (or meaningless) unless a
/// [`CountingAlloc`] is installed.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The live-byte high-water mark since process start (or the last
/// [`reset_peak_live`]). Zero unless a [`CountingAlloc`] is installed.
pub fn peak_live_bytes() -> i64 {
    PEAK_LIVE.load(Ordering::Relaxed)
}

/// Restart the peak at the *current* live level, so the next reading bounds
/// only the allocations of the region under measurement. Racy against
/// concurrent allocators by nature; call it from quiescent points (between
/// runs), which is all the memory assertions need.
pub fn reset_peak_live() {
    PEAK_LIVE.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak resident set size of this process, self-sampled from
/// `/proc/self/status` (`VmHWM`). `None` off Linux or if the field is
/// unavailable. This is the OS's view — it includes code, stacks and
/// allocator slack, and (being a high-water mark) never decreases — so the
/// profile reports it alongside, not instead of, peak live bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// The process's peak-memory readings, sampled at profile-snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryProfile {
    /// Peak resident set size (`VmHWM`), when the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
    /// Live-heap high-water mark from [`CountingAlloc`], when one is
    /// installed (`None` when the counters never moved).
    pub peak_live_bytes: Option<u64>,
}

impl MemoryProfile {
    /// Sample both peaks right now.
    pub fn sample() -> Self {
        let live = peak_live_bytes();
        Self {
            peak_rss_bytes: peak_rss_bytes(),
            peak_live_bytes: (live > 0).then_some(live as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The engine's own test binary does not install the counting allocator,
    // so these tests pin the *inert* behavior: snapshots read zero and
    // deltas are zero — the production-path contract.
    #[test]
    fn snapshots_are_zero_without_installed_allocator() {
        let before = snapshot();
        let v: Vec<u64> = (0..1024).collect();
        let after = snapshot();
        assert_eq!(v.len(), 1024);
        assert_eq!(after.since(before), AllocSnapshot::default());
    }

    #[test]
    fn since_saturates() {
        let a = AllocSnapshot { allocs: 3, bytes: 100 };
        let b = AllocSnapshot { allocs: 5, bytes: 90 };
        assert_eq!(b.since(a), AllocSnapshot { allocs: 2, bytes: 0 });
        assert_eq!(a.since(b), AllocSnapshot { allocs: 0, bytes: 10 });
    }

    // The wrapper itself is exercised (counts and delegates) without
    // installing it globally, by calling the `GlobalAlloc` methods directly.
    #[test]
    fn wrapper_counts_and_delegates() {
        let alloc = CountingAlloc(std::alloc::System);
        let layout = Layout::from_size_align(64, 8).unwrap();
        let before = snapshot();
        unsafe {
            let p = alloc.alloc(layout);
            assert!(!p.is_null());
            alloc.dealloc(p, layout);
        }
        let delta = snapshot().since(before);
        assert_eq!(delta.allocs, 1);
        assert_eq!(delta.bytes, 64);
    }

    #[test]
    fn live_bytes_track_alloc_and_dealloc() {
        let alloc = CountingAlloc(std::alloc::System);
        let layout = Layout::from_size_align(256, 8).unwrap();
        let before_live = live_bytes();
        reset_peak_live();
        unsafe {
            let p = alloc.alloc(layout);
            assert!(!p.is_null());
            assert!(live_bytes() >= before_live + 256);
            assert!(peak_live_bytes() >= before_live + 256);
            alloc.dealloc(p, layout);
        }
        // Balanced: the block's 256 bytes were returned.
        assert_eq!(live_bytes(), before_live);
        // The peak keeps the high-water mark after the free.
        assert!(peak_live_bytes() >= before_live + 256);
    }

    #[test]
    fn realloc_adjusts_live_by_the_difference() {
        let alloc = CountingAlloc(std::alloc::System);
        let small = Layout::from_size_align(128, 8).unwrap();
        unsafe {
            let p = alloc.alloc(small);
            assert!(!p.is_null());
            let before = live_bytes();
            let q = alloc.realloc(p, small, 512);
            assert!(!q.is_null());
            assert_eq!(live_bytes(), before + (512 - 128));
            alloc.dealloc(q, Layout::from_size_align(512, 8).unwrap());
        }
    }

    #[test]
    fn peak_rss_is_present_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            let rss = rss.expect("VmHWM available on Linux");
            // A running test binary surely holds more than a megabyte.
            assert!(rss > 1 << 20, "{rss}");
        } else {
            assert!(rss.is_none());
        }
    }

    #[test]
    fn memory_profile_samples_without_panic() {
        let m = MemoryProfile::sample();
        // peak_live may be None (no installed allocator) — just must not lie.
        if let Some(live) = m.peak_live_bytes {
            assert!(live > 0);
        }
    }
}
