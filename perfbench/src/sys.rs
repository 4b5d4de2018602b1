//! Process-level probes: a counting allocator and `/proc` readers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations (and reallocations) of every
/// thread while [`count_allocs`] has counting switched on.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the only addition is
// a relaxed counter update, which touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Runs `f` with allocation counting on; returns its result and the number
/// of allocations the whole process made meanwhile.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Relaxed);
    COUNTING.store(true, Relaxed);
    let r = f();
    COUNTING.store(false, Relaxed);
    (r, ALLOCS.load(Relaxed) - before)
}

fn status_kb(pid: Option<u32>, key: &str) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb(None, "VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Current resident set (`VmRSS`) of process `pid`, in MB.
pub fn rss_mb(pid: u32) -> Option<f64> {
    status_kb(Some(pid), "VmRSS:").map(|kb| kb / 1024.0)
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, which
/// Linux fixes at 100 for user space).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of all threads of process `pid` (this
/// process for `None`), from `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 (utime) and 15 (stime), counted from 1 over the whole line;
    // `rest` starts at field 3.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Online CPUs as the process sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Trimmed standard output of a command, or `None` when it cannot run or
/// fails.
pub fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}
