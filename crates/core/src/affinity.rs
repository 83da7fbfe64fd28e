//! Core pinning behind a shim, so builds without `sched_setaffinity`
//! still compile and run. Re-exported through [`crate::steal`].

/// Pins the calling thread to `core`, returning whether the kernel
/// accepted the mask. Always `false` (a no-op) on platforms without
/// `sched_setaffinity`, so `pin_threads` configurations degrade to
/// unpinned threads instead of failing to build or run.
pub fn pin_to_core(core: usize) -> bool {
    sys::pin(core)
}

/// The number of cores available to this process (≥ 1).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    /// 1024-bit CPU mask, matching the kernel's default `cpu_set_t`.
    const MASK_WORDS: usize = 16;

    // Declared directly so the workspace needs no `libc` crate: std
    // already links the platform C library, which exports this symbol.
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub(super) fn pin(core: usize) -> bool {
        if core >= MASK_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; MASK_WORDS];
        mask[core / 64] |= 1u64 << (core % 64);
        // SAFETY: the mask buffer outlives the call and the size passed
        // matches it; pid 0 targets the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub(super) fn pin(_core: usize) -> bool {
        false
    }
}
