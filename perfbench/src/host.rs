//! Host measurements without extra crates: per-thread CPU time from
//! `/proc/thread-self/schedstat`, peak resident memory from `VmHWM` in
//! `/proc/self/status` (reset through `/proc/self/clear_refs`), and the
//! worker count.

use std::time::Instant;

/// CPU time this thread has spent running, in seconds: the first field of
/// `/proc/thread-self/schedstat` (nanoseconds on a CPU).
pub fn thread_cpu_s() -> f64 {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable on Linux");
    let ns: u64 = text
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with the on-CPU nanoseconds");
    ns as f64 / 1e9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Reset the peak-RSS mark to the current RSS, so the next
/// [`peak_rss_mb`] covers only what runs after this call. Where the kernel
/// refuses the reset, the mark keeps covering the process from its start,
/// which for a one-workload run differs only by the argument parsing.
pub fn reset_peak_rss() {
    // "5" resets VmHWM (see proc(5), /proc/pid/clear_refs).
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: cannot reset the peak-RSS mark ({e}); it covers the whole process");
    }
}

/// Worker threads: the available parallelism (on Linux the CPUs in this
/// thread's affinity mask, as `nproc` counts them), at least 1.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seconds since `t0`.
pub fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_advances_with_work() {
        let a = thread_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_s() > a);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
