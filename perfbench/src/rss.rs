//! Peak-RSS attribution for the timed region.
//!
//! Set-up frees large transient allocations (a `Vec<Vec<u32>>` packed into
//! a CSR store, superseded set-up repetitions). The allocator keeps that
//! freed heap resident, and the timed work would reuse it without raising
//! the RSS, so a naive peak would hide its allocations. [`Floor::take`]
//! therefore hands free heap pages back to the kernel first, then rebases
//! the kernel's high-water mark. The peak since then is reported whole
//! (what the process needs while working, set-up state included, so work
//! moved into set-up still shows) and above the floor (what the work
//! itself added).

use goldfinger_obs::mem;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` is glibc's own entry point (this block only
    // builds for the gnu target environment). It takes no pointers, only
    // returns unused pages of the allocator's arenas to the kernel, and is
    // safe to call at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// The RSS at the start of a timed region.
#[derive(Debug, Clone, Copy)]
pub struct Floor {
    rss_kb: u64,
}

impl Floor {
    /// Releases freed heap, rebases the high-water mark and records the
    /// current RSS. Returns `None` where `/proc/self/clear_refs` or
    /// `/proc/self/status` is unavailable: a peak could not be attributed.
    pub fn take() -> Option<Floor> {
        release_free_heap();
        if !mem::reset_rss_peak() {
            return None;
        }
        mem::snapshot().map(|s| Floor { rss_kb: s.rss_kb })
    }

    /// `(peak, peak above the floor)` RSS since [`Floor::take`], in MiB.
    pub fn peak_mib(&self) -> (f64, f64) {
        let peak = mem::snapshot().map_or(0, |s| s.peak_kb);
        let mib = |kb: u64| kb as f64 / 1024.0;
        (mib(peak), mib(peak.saturating_sub(self.rss_kb)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Many small blocks, like a generated population before packing.
    fn small_blocks(total_mib: usize) -> Vec<Vec<u32>> {
        let per = 256; // 1 KiB per block
        (0..total_mib * 1024).map(|i| vec![i as u32; per]).collect()
    }

    #[test]
    fn allocation_after_freed_setup_heap_shows_in_the_peak() {
        if Floor::take().is_none() {
            return; // no /proc: nothing to attribute
        }
        // Set-up leaves 96 MiB of freed small blocks behind.
        drop(std::hint::black_box(small_blocks(96)));
        let floor = Floor::take().expect("floor");
        // A known 48 MiB allocation in the timed region must show.
        let work = std::hint::black_box(small_blocks(48));
        let (peak, above) = floor.peak_mib();
        drop(work);
        assert!(
            above >= 40.0,
            "48 MiB allocation measured as {above:.1} MiB"
        );
        assert!(peak >= above);
    }
}
