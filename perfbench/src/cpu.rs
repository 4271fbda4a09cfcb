//! CPU affinity of the calling thread, so serial work runs on one CPU.
//!
//! On a 2-vCPU VM the first vCPU also takes the interrupts, and a serial
//! build that lands there ran up to 30% slower (Cluster, five runs on each
//! vCPU: 0.167–0.223 s on the first, 0.168–0.186 s on the second), so an
//! unpinned run's speed depended on where the scheduler put it. Serial
//! work is therefore pinned to the last CPU the process may use.

/// A CPU set as the kernel's `cpu_set_t` lays it out (1024 CPUs).
#[derive(Clone, Copy)]
pub struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    /// The calling thread's CPU set, or `None` where it cannot be read.
    #[cfg(target_os = "linux")]
    pub fn current() -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: the mask points to 16 writable u64 words (128 bytes),
        // exactly the `cpusetsize` passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    #[cfg(not(target_os = "linux"))]
    pub fn current() -> Option<CpuSet> {
        None
    }

    /// Binds the calling thread (and threads it spawns later) to this set.
    #[cfg(target_os = "linux")]
    pub fn apply(&self) -> bool {
        // SAFETY: the mask points to 16 readable u64 words (128 bytes),
        // exactly the `cpusetsize` passed; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
    }

    #[cfg(not(target_os = "linux"))]
    pub fn apply(&self) -> bool {
        false
    }

    /// The highest-numbered CPU of the set, alone.
    pub fn last(&self) -> Option<CpuSet> {
        let word = self.0.iter().rposition(|&w| w != 0)?;
        let bit = 63 - self.0[word].leading_zeros();
        let mut one = CpuSet([0; 16]);
        one.0[word] = 1 << bit;
        Some(one)
    }
}

/// Pins the calling thread to the last CPU it may use and returns the set
/// it had, for [`CpuSet::apply`] to restore; `None` when affinity is
/// unavailable (the thread then stays where it was).
pub fn pin_to_last() -> Option<CpuSet> {
    let all = CpuSet::current()?;
    all.last()?.apply().then_some(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_keeps_only_the_highest_cpu() {
        let mut set = CpuSet([0; 16]);
        set.0[0] = 0b1011;
        set.0[2] = 1 << 5;
        let last = set.last().expect("non-empty");
        assert_eq!(last.0[2], 1 << 5);
        assert_eq!(last.0.iter().filter(|&&w| w != 0).count(), 1);
        assert!(CpuSet([0; 16]).last().is_none());
    }
}
