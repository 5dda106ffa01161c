//! Host-side probes: process CPU time and context switches from
//! `getrusage`, and memory and thread counts from `/proc/self/status`.

use std::time::Duration;

/// `struct timeval` as laid out by 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as laid out by 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

const RUSAGE_SELF: i32 = 0;

const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// Whole-process resource counters at one instant (every thread, live or
/// exited, is included).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User CPU time.
    pub user: Duration,
    /// Kernel CPU time.
    pub sys: Duration,
    /// Voluntary context switches (a thread blocked).
    pub vcsw: u64,
    /// Involuntary context switches (a thread was preempted).
    pub ivcsw: u64,
}

fn tv(t: Timeval) -> Duration {
    Duration::from_secs(t.tv_sec.max(0) as u64) + Duration::from_micros(t.tv_usec.max(0) as u64)
}

impl Usage {
    /// Read the process's counters now.
    pub fn now() -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
        // Linux layout, and RUSAGE_SELF is a valid `who`; getrusage writes
        // only inside that struct.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        Usage {
            user: tv(ru.ru_utime),
            sys: tv(ru.ru_stime),
            vcsw: ru.ru_nvcsw.max(0) as u64,
            ivcsw: ru.ru_nivcsw.max(0) as u64,
        }
    }

    /// Counters accumulated between `earlier` and `self`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            vcsw: self.vcsw.saturating_sub(earlier.vcsw),
            ivcsw: self.ivcsw.saturating_sub(earlier.ivcsw),
        }
    }

    /// User plus kernel CPU time.
    pub fn cpu(&self) -> Duration {
        self.user + self.sys
    }
}

/// CPU time the hypervisor gave to other guests while this machine's CPUs
/// wanted to run, summed over all CPUs since boot (the `steal` column of
/// `/proc/stat`). Zero where the kernel does not account it.
pub fn steal() -> Duration {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: u64 = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|t| t.parse().ok())
        .unwrap_or(0);
    // SAFETY: sysconf takes no pointers; _SC_CLK_TCK is a valid name.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    Duration::from_secs(ticks / hz) + Duration::from_nanos(ticks % hz * 1_000_000_000 / hz)
}

/// One numeric field of `/proc/self/status` (e.g. `VmHWM`, `Threads`).
fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of the process so far, MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// OS threads alive in the process right now.
pub fn os_threads() -> u64 {
    status_field("Threads").unwrap_or(0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
