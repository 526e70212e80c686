//! The machine under the benchmark: CPU pinning, resident-set readings and
//! the `env` block printed with every run.

use std::path::PathBuf;
use std::process::{Command, Stdio};

#[cfg(target_os = "linux")]
mod affinity {
    /// 1024 CPUs, the size of glibc's `cpu_set_t`.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn pin_to_highest_cpu() -> Option<usize> {
        let mut allowed = [0u64; WORDS];
        let bytes = std::mem::size_of_val(&allowed);
        // SAFETY: `allowed` is a live, writable buffer of exactly `bytes`
        // bytes and pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = allowed.iter().rposition(|&w| w != 0)?;
        let cpu = word * 64 + 63 - allowed[word].leading_zeros() as usize;
        let mut only = [0u64; WORDS];
        only[word] = 1u64 << (cpu % 64);
        // SAFETY: `only` is a live buffer of `bytes` bytes that the call
        // only reads.
        (unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn pin_to_highest_cpu() -> Option<usize> {
        None
    }
}

/// Pin the calling thread — and every thread it spawns afterwards — to the
/// highest-numbered CPU of its allowed set. Client, executor and pool worker
/// block on each other, so one CPU runs them without queueing while the rest
/// of the machine absorbs the OS and the neighbours. `None` when the
/// platform refuses; the run is then marked `unpinned`.
pub fn pin_to_highest_cpu() -> Option<usize> {
    affinity::pin_to_highest_cpu()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod heap {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    const M_ARENA_MAX: i32 = -8;

    pub fn retain_freed_memory() -> bool {
        // SAFETY: `mallopt` only sets allocator parameters; it is called
        // before this process has spawned a thread.
        unsafe {
            mallopt(M_ARENA_MAX, 1) == 1
                && mallopt(M_MMAP_MAX, 0) == 1
                && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod heap {
    pub fn retain_freed_memory() -> bool {
        false
    }
}

/// Make the allocator keep freed memory mapped: one heap for every thread,
/// no `mmap` per large allocation, no trimming. A first touch of a fresh page
/// costs 2-3 us in this VM (ten times bare metal) and varies with the host,
/// and a serving-state build or a compaction touches tens of thousands of
/// them: half their time and most of their run-to-run spread was page
/// faults. With freed memory retained the warm-up pays them once. `false`
/// when the allocator cannot be told; the run is then marked `heap=default`.
pub fn retain_freed_memory() -> bool {
    heap::retain_freed_memory()
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM").map(|kb| kb / 1024.0)
}

/// Current resident set of this process in bytes (`VmRSS`).
pub fn rss_bytes() -> Option<f64> {
    status_kb("VmRSS").map(|kb| kb * 1024.0)
}

/// Where the benchmark keeps what it writes (generated datasets, traces):
/// the directory of its own executable, which is inside the build directory
/// and so inside the checkout and ignored by git.
pub fn scratch_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Short git revision of the working directory, `unknown` outside a
/// repository (the driver's checkout is not one).
pub fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler that built this binary (captured by `build.rs`).
pub fn rustc_version() -> &'static str {
    env!("BENCH_RUSTC_VERSION")
}

/// CPUs this process may run on before pinning.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
