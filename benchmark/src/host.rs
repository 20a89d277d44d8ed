//! What the benchmark reads about its own process and host, from `/proc`,
//! plus the counting allocator of the traced `explore_*` runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `USER_HZ`: the unit of the CPU-time fields of `/proc/<pid>/stat`, fixed at
/// 100 on every Linux architecture the toolchain targets.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed by this process (all threads).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_S
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Allocation counter behind the process's global allocator. Counting is
/// off except inside the step calls of a traced `explore_*` run, so the
/// untraced run pays one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.5);
        assert!(cores() >= 1);
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..200_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
    }
}
