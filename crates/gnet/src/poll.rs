//! Readiness polling for shard loops.
//!
//! Each shard owns one [`Poller`]: an `epoll` instance on Linux
//! (reached through raw syscalls — the workspace links no libc
//! wrapper crates), or nothing elsewhere, in which case the shard
//! falls back to scanning its clients. Level-triggered `EPOLLIN` is
//! all the shard needs: writes are attempted opportunistically every
//! cycle and short writes simply stay queued, so write-readiness
//! events would only add wakeups.
//!
//! Simulated connections (`netsim` shaped links) have no descriptor;
//! they advertise readiness through `StreamConn::readable_hint`, and
//! the shard scans those regardless of the poller.
//!
//! Every poller also owns an `eventfd` waker registered under
//! [`WAKE_TOKEN`]: another thread calls [`Poller::wake`] to end a
//! blocking [`Poller::wait`] early (a connection handed to the shard,
//! or the hub shutting down). The waker is level-triggered like the
//! rest, so a wake that lands between two waits is not lost — the
//! next wait returns at once.

/// Token a [`Poller::wait`] reports when [`Poller::wake`] ended it.
pub(crate) const WAKE_TOKEN: u64 = u64::MAX;

/// Token reserved for a listening socket watched by a shard's poller.
pub(crate) const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// Readiness interest registration and waiting, level-triggered.
#[derive(Debug)]
pub struct Poller {
    #[cfg_attr(
        not(all(target_os = "linux", target_arch = "x86_64")),
        allow(dead_code)
    )]
    epfd: i32,
    #[cfg_attr(
        not(all(target_os = "linux", target_arch = "x86_64")),
        allow(dead_code)
    )]
    wakefd: i32,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    const SYS_READ: i64 = 0;
    const SYS_WRITE: i64 = 1;
    const SYS_CLOSE: i64 = 3;
    const SYS_EPOLL_WAIT: i64 = 232;
    const SYS_EPOLL_CTL: i64 = 233;
    const SYS_EVENTFD2: i64 = 290;
    const SYS_EPOLL_CREATE1: i64 = 291;
    /// `EFD_NONBLOCK | EFD_CLOEXEC`.
    const EFD_FLAGS: i64 = 0o4000 | 0o2000000;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// Kernel `struct epoll_event` on x86_64 is packed to 12 bytes.
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[inline]
    unsafe fn syscall4(n: i64, a: i64, b: i64, c: i64, d: i64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    pub fn epoll_create1() -> i64 {
        unsafe { syscall4(SYS_EPOLL_CREATE1, 0, 0, 0, 0) }
    }

    pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: Option<&mut EpollEvent>) -> i64 {
        let ptr = event.map_or(0i64, |e| e as *mut EpollEvent as i64);
        unsafe { syscall4(SYS_EPOLL_CTL, epfd as i64, op as i64, fd as i64, ptr) }
    }

    pub fn epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> i64 {
        unsafe {
            syscall4(
                SYS_EPOLL_WAIT,
                epfd as i64,
                events.as_mut_ptr() as i64,
                events.len() as i64,
                timeout_ms as i64,
            )
        }
    }

    pub fn eventfd() -> i64 {
        unsafe { syscall4(SYS_EVENTFD2, 0, EFD_FLAGS, 0, 0) }
    }

    /// Adds one to an eventfd counter.
    pub fn eventfd_signal(fd: i32) {
        let n = 1u64;
        unsafe {
            syscall4(SYS_WRITE, fd as i64, &n as *const u64 as i64, 8, 0);
        }
    }

    /// Resets an eventfd counter to zero (no-op when already zero).
    pub fn eventfd_drain(fd: i32) {
        let mut n = 0u64;
        unsafe {
            syscall4(SYS_READ, fd as i64, &mut n as *mut u64 as i64, 8, 0);
        }
    }

    pub fn close(fd: i32) {
        unsafe {
            syscall4(SYS_CLOSE, fd as i64, 0, 0, 0);
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl Poller {
    /// Creates an epoll instance with its waker registered; `None`
    /// when the kernel refuses either.
    pub fn new() -> Option<Poller> {
        let epfd = sys::epoll_create1();
        if epfd < 0 {
            return None;
        }
        let wakefd = sys::eventfd();
        if wakefd < 0 {
            sys::close(epfd as i32);
            return None;
        }
        let poller = Poller {
            epfd: epfd as i32,
            wakefd: wakefd as i32,
        };
        // On failure `poller` drops here and closes both descriptors.
        poller.add(poller.wakefd, WAKE_TOKEN).then_some(poller)
    }

    /// Registers `fd` for level-triggered read readiness, tagged with
    /// `token`. Returns false when the kernel refuses (the caller
    /// falls back to scanning that connection).
    pub fn add(&self, fd: i32, token: u64) -> bool {
        let mut ev = sys::EpollEvent {
            events: sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP,
            data: token,
        };
        sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, Some(&mut ev)) == 0
    }

    /// Unregisters `fd`. Safe to call for never-registered fds.
    pub fn del(&self, fd: i32) {
        sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, None);
    }

    /// Waits up to `timeout_ms` (0 = non-blocking) and appends ready
    /// tokens to `ready`; a wake shows up as [`WAKE_TOKEN`] and is
    /// consumed. Returns the number of events.
    pub fn wait(&self, ready: &mut Vec<u64>, timeout_ms: i32) -> usize {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 128];
        let n = sys::epoll_wait(self.epfd, &mut events, timeout_ms);
        if n <= 0 {
            return 0;
        }
        let n = n as usize;
        for ev in &events[..n] {
            if ev.data == WAKE_TOKEN {
                sys::eventfd_drain(self.wakefd);
            }
            ready.push(ev.data);
        }
        n
    }

    /// Ends the current (or the next) [`Poller::wait`] early. Safe to
    /// call from any thread.
    pub fn wake(&self) {
        sys::eventfd_signal(self.wakefd);
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl Drop for Poller {
    fn drop(&mut self) {
        sys::close(self.wakefd);
        sys::close(self.epfd);
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
impl Poller {
    /// No kernel poller on this platform; shards scan instead.
    pub fn new() -> Option<Poller> {
        None
    }

    /// Unreachable (`new` never returns a Poller here).
    pub fn add(&self, _fd: i32, _token: u64) -> bool {
        false
    }

    /// Unreachable (`new` never returns a Poller here).
    pub fn del(&self, _fd: i32) {}

    /// Unreachable (`new` never returns a Poller here).
    pub fn wait(&self, _ready: &mut Vec<u64>, _timeout_ms: i32) -> usize {
        0
    }

    /// Unreachable (`new` never returns a Poller here).
    pub fn wake(&self) {}
}

#[cfg(all(test, target_os = "linux", target_arch = "x86_64"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn epoll_reports_readable_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let poller = Poller::new().expect("epoll available on linux");
        assert!(poller.add(rx.as_raw_fd(), 42));

        let mut ready = Vec::new();
        assert_eq!(poller.wait(&mut ready, 0), 0, "idle socket: no events");

        tx.write_all(b"ping\n").unwrap();
        tx.flush().unwrap();
        let mut ready = Vec::new();
        let mut waited = 0;
        while poller.wait(&mut ready, 100) == 0 && waited < 20 {
            waited += 1;
        }
        assert_eq!(ready, vec![42]);

        // Level-triggered: still ready until drained.
        let mut ready2 = Vec::new();
        assert!(poller.wait(&mut ready2, 0) > 0);

        poller.del(rx.as_raw_fd());
        let mut ready3 = Vec::new();
        assert_eq!(poller.wait(&mut ready3, 0), 0, "deleted fd: no events");
    }

    #[test]
    fn hup_wakes_the_poller() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        assert!(poller.add(rx.as_raw_fd(), 7));
        drop(tx);
        let mut ready = Vec::new();
        let mut waited = 0;
        while poller.wait(&mut ready, 100) == 0 && waited < 20 {
            waited += 1;
        }
        assert_eq!(ready, vec![7], "peer close surfaces as readiness");
    }

    #[test]
    fn wake_ends_a_blocking_wait() {
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        let poller = Arc::new(Poller::new().unwrap());
        let waiter = {
            let poller = Arc::clone(&poller);
            std::thread::spawn(move || {
                let mut ready = Vec::new();
                poller.wait(&mut ready, 5_000);
                (ready, Instant::now())
            })
        };
        // Let the waiter block before waking it.
        std::thread::sleep(Duration::from_millis(50));
        let woke_at = Instant::now();
        poller.wake();
        let (ready, returned_at) = waiter.join().unwrap();
        assert_eq!(ready, vec![WAKE_TOKEN]);
        assert!(
            returned_at.duration_since(woke_at) < Duration::from_millis(100),
            "wait returned {:?} after wake",
            returned_at.duration_since(woke_at)
        );
        // The wake was consumed: the next wait sees nothing.
        let mut ready = Vec::new();
        assert_eq!(poller.wait(&mut ready, 0), 0);

        // A wake that lands before the wait is not lost.
        poller.wake();
        let begin = Instant::now();
        assert_eq!(poller.wait(&mut ready, 5_000), 1);
        assert!(begin.elapsed() < Duration::from_millis(100));
        assert_eq!(ready, vec![WAKE_TOKEN]);
    }
}
