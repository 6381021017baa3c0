//! Pins the benchmark to one processor.
//!
//! `FleetService::run_epoch` spawns its worker threads afresh in every
//! epoch phase, one worker included. On a virtual machine, a thread
//! woken on an idle virtual processor waits until the host schedules
//! that processor, which on a busy host takes milliseconds: unpinned,
//! fleet_calm's epochs read 6.2–8.0 ms where pinned runs read 4.6–4.9 ms
//! on the same busy host (see README.md). Pinned, every thread the
//! program spawns runs on the processor that spawned it.

#[cfg(target_os = "linux")]
mod affinity {
    use std::os::raw::{c_int, c_ulong};

    /// Words in the affinity mask: the C library's 1024-bit `cpu_set_t`.
    const WORDS: usize = 16;
    /// Bits per mask word.
    const BITS: usize = c_ulong::BITS as usize;

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
    }

    /// Pins the calling thread to the highest-numbered processor it may
    /// run on; returns that processor, or `None` when the system refuses.
    pub fn pin() -> Option<usize> {
        let mut allowed: [c_ulong; WORDS] = [0; WORDS];
        let size = std::mem::size_of_val(&allowed);
        // SAFETY: `allowed` is a live, writable buffer of exactly `size`
        // bytes, and pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..WORDS * BITS).rev().find(|&cpu| {
            allowed
                .get(cpu / BITS)
                .is_some_and(|w| (w >> (cpu % BITS)) & 1 == 1)
        })?;
        let mut one: [c_ulong; WORDS] = [0; WORDS];
        *one.get_mut(cpu / BITS)? = 1 << (cpu % BITS);
        // SAFETY: `one` is a live buffer of exactly `size` bytes, and
        // pid 0 names the calling thread.
        let status = unsafe { sched_setaffinity(0, size, one.as_ptr()) };
        (status == 0).then_some(cpu)
    }
}

/// Pins the calling thread, and so every thread it spawns afterwards,
/// to one processor. Call it before any thread is spawned. Returns the
/// processor, or `None` where pinning is unavailable (the run then
/// goes on unpinned, and its provenance says so).
pub fn pin_to_one_processor() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        affinity::pin()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}
