//! What the benchmark reads from the operating system: core count, process CPU
//! time, peak resident memory, and the toolchain / commit for the header.

use std::process::Command;

/// Cores available to this process; every result that depends on threads is
/// printed beside it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU seconds of the whole process so far: every thread, the exited ones
/// too, at the scheduler's nanosecond resolution
/// (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`), so that the difference across
/// one operation is that operation's CPU cost.
///
/// Unlike a wall clock it does not count time the hypervisor gave the vCPU to
/// another guest (the kernel's task clock skips stolen time) or time a thread
/// sat runnable behind another. Zero where the clock cannot be read (not
/// 64-bit Linux).
pub fn cpu_seconds() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct timespec` of the 64-bit Linux ABIs.
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `timespec` in the layout the C
        // library of every 64-bit Linux target expects; the call writes to it
        // and to nothing else, and `std` already links that library.
        let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if status == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9;
        }
    }
    0.0
}

/// Peak resident set size of the process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc -V`, or `unknown` where no toolchain is on the path.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"])
}

/// The checked-out commit, or `unknown` outside a git repository.
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "--short=12", "HEAD"])
}
