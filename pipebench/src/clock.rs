//! The clock both benchmark processes share, and the `/proc` readers
//! that measure the hub process and the generator threads.
//!
//! Tuples are stamped with their due time on `CLOCK_MONOTONIC`, which
//! every process on the host reads identically, so the generator can
//! compute delivery latency against the hub's timeline without a sync
//! protocol. The reading is shifted by [`SHIFT_US`] so that recorded
//! history, which ends before the run starts, still has positive
//! timestamps however recently the host booted.

use std::sync::Arc;

use gel::{Clock, TimeStamp, WakeFlag};

/// Added to every monotonic reading (about 12.7 days).
pub const SHIFT_US: u64 = 1 << 40;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const CLOCK_MONOTONIC: i32 = 1;
const POLLIN: i16 = 1;

/// Microseconds on the host-wide monotonic clock, plus [`SHIFT_US`].
pub fn shared_now_us() -> u64 {
    shared_now_ns() / 1_000
}

/// [`shared_now_us`] in nanoseconds, for sub-microsecond latencies.
pub fn shared_now_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that lives across the call, and
    // CLOCK_MONOTONIC is always available, so the call only writes it.
    let rc = unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_MONOTONIC) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64 + SHIFT_US * 1_000
}

/// Sleeps until the shared clock reads `deadline_us` (returns at once
/// when it already has).
pub fn sleep_until(deadline_us: u64) {
    let now = shared_now_us();
    if deadline_us > now {
        std::thread::sleep(std::time::Duration::from_micros(deadline_us - now));
    }
}

/// Waits until one of `fds` has something to read (or has hung up), or
/// the shared clock reads `deadline_us` (`None`: no deadline). Returns
/// which of `fds` are ready, in order; none at the deadline or when a
/// signal interrupted the wait.
pub fn wait_readable<const N: usize>(fds: [i32; N], deadline_us: Option<u64>) -> [bool; N] {
    let mut polled = fds.map(|fd| PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    });
    let timeout = deadline_us.map(|d| {
        let left = (d * 1_000).saturating_sub(shared_now_ns());
        Timespec {
            tv_sec: (left / 1_000_000_000) as i64,
            tv_nsec: (left % 1_000_000_000) as i64,
        }
    });
    let timeout_ptr = timeout
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `polled` is an array of `N` valid `struct pollfd`s and
    // `timeout` (when present) a valid `struct timespec`, both alive
    // across the call; a null signal mask leaves the mask unchanged.
    let rc = unsafe { ppoll(polled.as_mut_ptr(), N as u64, timeout_ptr, std::ptr::null()) };
    polled.map(|p| rc > 0 && p.revents != 0)
}

/// The shared clock as a `gel` clock, so the hub's scope and main loop
/// run on the timeline the generator stamps tuples with.
#[derive(Debug, Default)]
pub struct SharedClock;

impl SharedClock {
    /// A shareable handle.
    pub fn shared() -> Arc<dyn Clock> {
        Arc::new(SharedClock)
    }
}

impl Clock for SharedClock {
    fn now(&self) -> TimeStamp {
        TimeStamp::from_micros(shared_now_us())
    }

    fn wait_until(&self, deadline: TimeStamp, waker: &WakeFlag) -> TimeStamp {
        loop {
            let now = self.now();
            if now >= deadline {
                return now;
            }
            if waker.wait_timeout(deadline.saturating_since(now).to_std()) {
                return self.now();
            }
        }
    }
}

/// CPU seconds this process's live threads have used, to the
/// nanosecond (`/proc/self/task/*/schedstat`; the process-wide
/// `/proc/self/stat` counts in 10 ms ticks, too coarse for one-second
/// slices).
pub fn process_cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// Resident set size of this process, MiB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds the calling thread has spent on a CPU.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}
