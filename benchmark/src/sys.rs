//! Process-level counters read from outside the program: CPU time, context
//! switches and peak resident set. The two libc calls are declared by hand
//! (std already links the platform C library), the same way
//! `vendor/polling` declares `epoll_*` — no new dependency.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals followed by 14 longs.
#[repr(C)]
struct RUsage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_longs: [i64; 14],
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_SELF: i32 = 0;
/// Index of `ru_nvcsw` / `ru_nivcsw` within the trailing longs.
const RU_NVCSW: usize = 12;
const RU_NIVCSW: usize = 13;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// CPU seconds (user + system, every thread) this process has consumed.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`; the clock id is a
    // constant the kernel supports for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A `getrusage(RUSAGE_SELF)` snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    /// Snapshot the process's resource usage.
    pub fn now() -> Self {
        let mut ru = RUsage {
            ru_utime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            ru_stime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            ru_longs: [0; 14],
        };
        // SAFETY: `ru` is a valid, writable `struct rusage` of the 64-bit
        // Linux layout declared above.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let secs = |tv: &Timeval| tv.tv_sec as f64 + tv.tv_usec as f64 * 1e-6;
        Self {
            user_s: secs(&ru.ru_utime),
            sys_s: secs(&ru.ru_stime),
            ctx_switches: (ru.ru_longs[RU_NVCSW] + ru.ru_longs[RU_NIVCSW]) as u64,
        }
    }

    /// Increments since an earlier snapshot.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}
