//! The thin OS-readiness layer under the reactor: epoll on Linux, a
//! poll-with-timeout sweep everywhere else — both behind one [`Poller`]
//! facade so `reactor.rs` contains zero platform code.
//!
//! This is the only module in the workspace allowed to use `unsafe`: the
//! Linux backend declares the four epoll syscalls (plus `prlimit64` for
//! [`raise_fd_limit`] and `listen` for [`deepen_accept_queue`]) as
//! `extern "C"` against the libc the Rust standard
//! library already links — no external crate, no new dependency. Every
//! unsafe block wraps exactly one syscall on file descriptors this module
//! owns or borrows for the duration of the call.
//!
//! Two backends:
//!
//! * **Epoll** (`linux`): level-triggered `epoll_wait` over the registered
//!   descriptors, plus a self-wake socketpair (`UnixStream::pair`) so
//!   other threads can interrupt a blocked wait: a worker with a response
//!   to flush, the accepting loop with a connection to hand over, or the
//!   loop that took a shutdown.
//! * **Sweep** (portable fallback, also selectable on Linux with
//!   `LCA_SERVE_BACKEND=sweep`): no kernel readiness at all — `wait`
//!   parks on a condvar for a few milliseconds (or until a waker fires)
//!   and then reports *every* registered token as maybe-ready; the
//!   reactor's nonblocking reads/writes turn "maybe" into fact. This is a
//!   poll-with-timeout over the fd set: strictly more wakeups than epoll,
//!   but std-only, portable, and with identical observable semantics —
//!   the integration suite runs against both.

#![allow(unsafe_code)]

use std::collections::BTreeSet;
use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

#[cfg(unix)]
use std::os::fd::RawFd;

/// One readiness event: the token the fd was registered under, plus what
/// it is ready for. The sweep backend reports both flags set (the reactor
/// must treat readiness as a hint, never a guarantee — true for epoll
/// level-triggered semantics too).
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The caller-chosen registration token.
    pub token: u64,
    /// Reading (or accepting) would make progress.
    pub readable: bool,
    /// Writing would make progress.
    pub writable: bool,
}

/// The readiness a registration asks to be woken for. Errors and hangups
/// are reported whatever it asks (epoll always includes them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when reading (or accepting) would make progress.
    pub read: bool,
    /// Wake when writing would make progress.
    pub write: bool,
}

impl Interest {
    /// Read interest only: a fresh connection or a listener.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// A cheap, clonable handle that interrupts a concurrent [`Poller::wait`].
/// Worker threads and the other reactor loops hold one; waking an idle
/// poller is one `write(2)` (epoll backend) or one condvar notify (sweep
/// backend).
#[derive(Clone)]
pub struct Waker(WakerInner);

#[derive(Clone)]
enum WakerInner {
    #[cfg(all(unix, target_os = "linux"))]
    Pipe(Arc<std::os::unix::net::UnixStream>),
    Sweep(Arc<SweepShared>),
}

impl Waker {
    /// Interrupts the poller's current (or next) wait. Idempotent and
    /// lock-light; safe to call from any thread, any number of times.
    pub fn wake(&self) {
        match &self.0 {
            #[cfg(all(unix, target_os = "linux"))]
            WakerInner::Pipe(tx) => {
                use std::io::Write as _;
                // A full pipe means a wake is already pending — exactly the
                // state we want, so WouldBlock (and any other error: the
                // reactor is gone) is ignored.
                let _ = (&**tx).write(&[1u8]);
            }
            WakerInner::Sweep(shared) => {
                *shared.woken.lock().expect("sweep waker poisoned") = true;
                shared.cv.notify_all();
            }
        }
    }
}

struct SweepShared {
    woken: Mutex<bool>,
    cv: Condvar,
}

/// The readiness facade the reactor runs on. Construct with
/// [`Poller::new`]; backend choice is automatic (epoll on Linux, sweep
/// elsewhere) unless `LCA_SERVE_BACKEND=sweep|epoll` overrides it.
pub enum Poller {
    /// Linux epoll backend.
    #[cfg(all(unix, target_os = "linux"))]
    Epoll(EpollPoller),
    /// Portable poll-with-timeout sweep backend.
    Sweep(SweepPoller),
}

impl Poller {
    /// Builds the platform's preferred backend (see env override above).
    pub fn new() -> io::Result<Poller> {
        let forced = std::env::var("LCA_SERVE_BACKEND").ok();
        match forced.as_deref() {
            Some("sweep") => return Ok(Poller::Sweep(SweepPoller::new())),
            Some("epoll") => {
                // Forcing epoll must fail loudly where it does not exist —
                // a silent sweep fallback would hand an operator (or a
                // backend-comparison test) the wrong backend.
                #[cfg(all(unix, target_os = "linux"))]
                return Ok(Poller::Epoll(EpollPoller::new()?));
                #[cfg(not(all(unix, target_os = "linux")))]
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "LCA_SERVE_BACKEND=epoll is unavailable on this platform (use sweep)",
                ));
            }
            Some(other) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("LCA_SERVE_BACKEND must be epoll or sweep, got {other:?}"),
                ))
            }
            None => {}
        }
        #[cfg(all(unix, target_os = "linux"))]
        {
            Ok(Poller::Epoll(EpollPoller::new()?))
        }
        #[cfg(not(all(unix, target_os = "linux")))]
        {
            Ok(Poller::Sweep(SweepPoller::new()))
        }
    }

    /// The backend's name, for logs and stats.
    pub fn backend(&self) -> &'static str {
        match self {
            #[cfg(all(unix, target_os = "linux"))]
            Poller::Epoll(_) => "epoll",
            Poller::Sweep(_) => "sweep",
        }
    }

    /// A waker for this poller.
    pub fn waker(&self) -> Waker {
        match self {
            #[cfg(all(unix, target_os = "linux"))]
            Poller::Epoll(p) => Waker(WakerInner::Pipe(p.wake_tx.clone())),
            Poller::Sweep(p) => Waker(WakerInner::Sweep(p.shared.clone())),
        }
    }

    /// Registers `fd` under `token` with `interest`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(all(unix, target_os = "linux"))]
            Poller::Epoll(p) => p.ctl(ffi::EPOLL_CTL_ADD, fd, token, interest),
            Poller::Sweep(p) => {
                p.tokens.insert(token);
                Ok(())
            }
        }
    }

    /// Replaces the interest of an already-registered fd. The sweep
    /// backend reports every fd anyway, so it ignores interest.
    pub fn set_interest(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(all(unix, target_os = "linux"))]
            Poller::Epoll(p) => p.ctl(ffi::EPOLL_CTL_MOD, fd, token, interest),
            Poller::Sweep(_) => Ok(()),
        }
    }

    /// Removes an fd (by its registration token) from the interest set.
    pub fn deregister(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
        match self {
            #[cfg(all(unix, target_os = "linux"))]
            Poller::Epoll(p) => p.ctl(ffi::EPOLL_CTL_DEL, fd, token, Interest::READ),
            Poller::Sweep(p) => {
                p.tokens.remove(&token);
                Ok(())
            }
        }
    }

    /// Blocks until readiness, a wake, or `timeout`; fills `events`
    /// (cleared first). Returns `true` iff a [`Waker`] fired during the
    /// wait — the loop's signal to take its mailboxes.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<bool> {
        events.clear();
        match self {
            #[cfg(all(unix, target_os = "linux"))]
            Poller::Epoll(p) => p.wait(events, timeout),
            Poller::Sweep(p) => p.wait(events, timeout),
        }
    }
}

/// The portable backend: a registered-token set plus a condvar nap. Every
/// wait reports every token as maybe-ready, so the reactor's nonblocking
/// syscalls do the actual readiness discovery. See the module docs for the
/// trade-off.
pub struct SweepPoller {
    tokens: BTreeSet<u64>,
    shared: Arc<SweepShared>,
    /// Upper bound on one nap; keeps worst-case response latency bounded
    /// even if a waker is lost.
    stride: Duration,
}

impl SweepPoller {
    fn new() -> SweepPoller {
        SweepPoller {
            tokens: BTreeSet::new(),
            shared: Arc::new(SweepShared {
                woken: Mutex::new(false),
                cv: Condvar::new(),
            }),
            stride: Duration::from_millis(4),
        }
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<bool> {
        let nap = timeout.min(self.stride);
        let woken = {
            let guard = self.shared.woken.lock().expect("sweep poisoned");
            let (mut guard, _) = self
                .shared
                .cv
                .wait_timeout_while(guard, nap, |woken| !*woken)
                .expect("sweep poisoned");
            std::mem::take(&mut *guard)
        };
        events.extend(self.tokens.iter().map(|&token| Event {
            token,
            readable: true,
            writable: true,
        }));
        Ok(woken)
    }
}

/// Raises the process's soft `RLIMIT_NOFILE` toward `target` (capped at
/// the hard limit) and returns the resulting soft limit. A no-op
/// returning `target` on non-Linux platforms. High-fan-in harnesses (the
/// 1000-connection tests, `engine_report --serve`, `lca-loadgen
/// --connections`) call this so "thousands of sockets" does not die on the
/// default 1024-fd soft limit.
pub fn raise_fd_limit(target: u64) -> io::Result<u64> {
    #[cfg(all(unix, target_os = "linux"))]
    {
        let mut cur = ffi::Rlimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        // SAFETY: prlimit64(0, …) reads this process's limit into the
        // struct we own; no pointers outlive the call.
        let rc = unsafe { ffi::prlimit64(0, ffi::RLIMIT_NOFILE, std::ptr::null(), &mut cur) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        if cur.rlim_cur >= target {
            return Ok(cur.rlim_cur);
        }
        let want = ffi::Rlimit {
            rlim_cur: target.min(cur.rlim_max),
            rlim_max: cur.rlim_max,
        };
        // SAFETY: same as above; the new-limit struct is ours and outlives
        // the call.
        let rc = unsafe { ffi::prlimit64(0, ffi::RLIMIT_NOFILE, &want, std::ptr::null_mut()) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(want.rlim_cur)
    }
    #[cfg(not(all(unix, target_os = "linux")))]
    {
        Ok(target)
    }
}

/// Writes as many of `bufs` as the socket accepts in **one** syscall and
/// returns the byte count, exactly like `write(2)` but gather-style. On
/// Linux this is `writev(2)` over an iovec array (capped at
/// [`MAX_IOVECS`]; the caller retries for the rest, as with any short
/// write). The portable fallback concatenates the buffers into one scratch
/// allocation and issues a single `write` — same single-syscall contract,
/// one extra copy.
///
/// The reactor counts every call to this function in `write_syscalls`, so
/// the `syscalls_per_response` stat stays truthful on both paths.
pub fn write_vectored(stream: &std::net::TcpStream, bufs: &[&[u8]]) -> io::Result<usize> {
    #[cfg(all(unix, target_os = "linux"))]
    {
        use std::os::fd::AsRawFd;
        let iov: Vec<ffi::Iovec> = bufs
            .iter()
            .take(MAX_IOVECS)
            .map(|b| ffi::Iovec {
                iov_base: b.as_ptr(),
                iov_len: b.len(),
            })
            .collect();
        // SAFETY: every iovec points into a borrowed slice that outlives
        // the call; the kernel only reads through them.
        let n = unsafe { ffi::writev(stream.as_raw_fd(), iov.as_ptr(), iov.len() as i32) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }
    #[cfg(not(all(unix, target_os = "linux")))]
    {
        use std::io::Write as _;
        let total: usize = bufs.iter().take(MAX_IOVECS).map(|b| b.len()).sum();
        let mut scratch = Vec::with_capacity(total);
        for b in bufs.iter().take(MAX_IOVECS) {
            scratch.extend_from_slice(b);
        }
        (&*stream).write(&scratch)
    }
}

/// Most buffers one [`write_vectored`] call will gather. Linux's
/// `UIO_MAXIOV` is 1024; 64 keeps the iovec array cache-friendly while
/// still coalescing a deep per-connection backlog into one syscall.
pub const MAX_IOVECS: usize = 64;

/// Deepens a listening socket's accept queue past std's fixed 128. The
/// reactor's accepting loop also answers queries, so a burst of connects
/// can arrive while it computes; a connect that finds the queue full has
/// its handshake dropped and is retried only after a one-second SYN-ACK
/// timeout. Calling `listen(2)` again on a listening socket only changes
/// its backlog. No-op outside Linux.
pub fn deepen_accept_queue(listener: &std::net::TcpListener) -> io::Result<()> {
    #[cfg(all(unix, target_os = "linux"))]
    {
        use std::os::fd::AsRawFd;
        // The kernel caps this at `net.core.somaxconn`.
        const BACKLOG: i32 = 4096;
        // SAFETY: plain syscall on the listener's fd, which it owns for
        // the whole call; no pointers are passed.
        let rc = unsafe { ffi::listen(listener.as_raw_fd(), BACKLOG) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
    #[cfg(not(all(unix, target_os = "linux")))]
    {
        let _ = listener;
        Ok(())
    }
}

/// Shrinks (or grows) the socket's kernel receive buffer. The framing
/// torture tests set a tiny `SO_RCVBUF` on the *client* side to force the
/// server into partial writes; production code has no reason to call this.
/// No-op outside Linux — the tests that rely on it are gated accordingly.
pub fn set_recv_buffer(stream: &std::net::TcpStream, bytes: usize) -> io::Result<()> {
    #[cfg(all(unix, target_os = "linux"))]
    {
        use std::os::fd::AsRawFd;
        let val: i32 = bytes.min(i32::MAX as usize) as i32;
        // SAFETY: setsockopt reads 4 bytes from our stack-owned value.
        let rc = unsafe {
            ffi::setsockopt(
                stream.as_raw_fd(),
                ffi::SOL_SOCKET,
                ffi::SO_RCVBUF,
                &val as *const i32 as *const std::os::raw::c_void,
                std::mem::size_of::<i32>() as u32,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
    #[cfg(not(all(unix, target_os = "linux")))]
    {
        let _ = (stream, bytes);
        Ok(())
    }
}

#[cfg(all(unix, target_os = "linux"))]
pub use epoll::EpollPoller;

#[cfg(all(unix, target_os = "linux"))]
mod ffi {
    use std::os::raw::{c_int, c_long};

    // The kernel packs epoll_event on x86-64 (and x86) only.
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const RLIMIT_NOFILE: c_int = 7;

    pub const SOL_SOCKET: c_int = 1;
    pub const SO_RCVBUF: c_int = 8;

    #[repr(C)]
    pub struct Rlimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }

    /// `struct iovec` from `<sys/uio.h>`: base pointer + length.
    #[repr(C)]
    pub struct Iovec {
        pub iov_base: *const u8,
        pub iov_len: usize,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn listen(fd: c_int, backlog: c_int) -> c_int;
        pub fn writev(fd: c_int, iov: *const Iovec, iovcnt: c_int) -> isize;
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const std::os::raw::c_void,
            optlen: u32,
        ) -> c_int;
        pub fn prlimit64(
            pid: c_long,
            resource: c_int,
            new_limit: *const Rlimit,
            old_limit: *mut Rlimit,
        ) -> c_int;
    }
}

#[cfg(all(unix, target_os = "linux"))]
mod epoll {
    use super::ffi;
    use super::{Event, Interest};
    use std::io::{self, Read as _};
    use std::os::fd::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;
    use std::time::Duration;

    /// Token the wake socketpair's read end is registered under; fds never
    /// collide with it because the reactor's tokens are small integers.
    const WAKE_TOKEN: u64 = u64::MAX;

    /// The Linux readiness backend: one level-triggered epoll instance
    /// plus the self-wake socketpair.
    pub struct EpollPoller {
        epfd: RawFd,
        buf: Vec<ffi::EpollEvent>,
        wake_rx: UnixStream,
        pub(super) wake_tx: Arc<UnixStream>,
    }

    impl EpollPoller {
        pub(super) fn new() -> io::Result<EpollPoller> {
            // SAFETY: plain syscall; we own the returned fd for life.
            let epfd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            let (wake_rx, wake_tx) = match UnixStream::pair() {
                Ok(pair) => pair,
                Err(e) => {
                    // SAFETY: closing the epoll fd we just created.
                    unsafe { ffi::close(epfd) };
                    return Err(e);
                }
            };
            wake_rx.set_nonblocking(true)?;
            wake_tx.set_nonblocking(true)?;
            let mut poller = EpollPoller {
                epfd,
                buf: vec![ffi::EpollEvent { events: 0, data: 0 }; 1024],
                wake_rx,
                wake_tx: Arc::new(wake_tx),
            };
            poller.ctl(
                ffi::EPOLL_CTL_ADD,
                poller.wake_rx.as_raw_fd(),
                WAKE_TOKEN,
                Interest::READ,
            )?;
            Ok(poller)
        }

        pub(super) fn ctl(
            &mut self,
            op: i32,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let read = if interest.read {
                ffi::EPOLLIN | ffi::EPOLLRDHUP
            } else {
                0
            };
            let write = if interest.write { ffi::EPOLLOUT } else { 0 };
            let mut ev = ffi::EpollEvent {
                events: read | write,
                data: token,
            };
            // SAFETY: `ev` lives across the call; the kernel copies it.
            let rc = unsafe { ffi::epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Duration,
        ) -> io::Result<bool> {
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            // SAFETY: `buf` outlives the call and maxevents matches its
            // length; the kernel writes at most that many entries.
            let n = unsafe {
                ffi::epoll_wait(self.epfd, self.buf.as_mut_ptr(), self.buf.len() as i32, ms)
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(false);
                }
                return Err(e);
            }
            let mut woken = false;
            for raw in &self.buf[..n as usize] {
                let (token, bits) = (raw.data, raw.events);
                if token == WAKE_TOKEN {
                    woken = true;
                    // Drain every pending wake byte so the next write
                    // re-arms readability.
                    let mut sink = [0u8; 64];
                    while matches!((&self.wake_rx).read(&mut sink), Ok(k) if k > 0) {}
                    continue;
                }
                events.push(Event {
                    token,
                    // Errors/hangups surface as readable: the next read
                    // returns 0 or the real error and the reactor closes.
                    readable: bits
                        & (ffi::EPOLLIN | ffi::EPOLLRDHUP | ffi::EPOLLERR | ffi::EPOLLHUP)
                        != 0,
                    writable: bits & (ffi::EPOLLOUT | ffi::EPOLLERR | ffi::EPOLLHUP) != 0,
                });
            }
            Ok(woken)
        }
    }

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            // SAFETY: closing the epoll fd we created; the UnixStreams
            // close themselves.
            unsafe { ffi::close(self.epfd) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    #[cfg(unix)]
    use std::os::fd::AsRawFd;

    #[test]
    fn backend_selection_and_waker() {
        let mut poller = Poller::new().expect("poller");
        // The variable picks the backend; unset, Linux must get epoll.
        match std::env::var("LCA_SERVE_BACKEND").ok().as_deref() {
            Some(forced) => assert_eq!(poller.backend(), forced),
            #[cfg(target_os = "linux")]
            None => assert_eq!(poller.backend(), "epoll"),
            #[cfg(not(target_os = "linux"))]
            None => assert_eq!(poller.backend(), "sweep"),
        }
        let waker = poller.waker();
        // A wake fired before the wait must be observed by the wait.
        waker.wake();
        let mut events = Vec::new();
        let woken = poller
            .wait(&mut events, Duration::from_millis(50))
            .expect("wait");
        assert!(woken, "pre-armed wake was lost");
        // And a wait with nothing pending times out quietly.
        let woken = poller
            .wait(&mut events, Duration::from_millis(5))
            .expect("wait");
        assert!(!woken);
    }

    #[cfg(unix)]
    #[test]
    fn readiness_on_a_real_socket() {
        let mut poller = Poller::new().expect("poller");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        listener.set_nonblocking(true).expect("nonblocking");
        poller
            .register(listener.as_raw_fd(), 7, Interest::READ)
            .expect("register");

        let mut events = Vec::new();
        // Nothing pending yet (sweep backend will report the token anyway —
        // the accept below disambiguates, as in the real reactor).
        let _ = poller.wait(&mut events, Duration::from_millis(1));

        let mut client = TcpStream::connect(addr).expect("connect");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let accepted = loop {
            poller
                .wait(&mut events, Duration::from_millis(20))
                .expect("wait");
            if events.iter().any(|e| e.token == 7 && e.readable) {
                match listener.accept() {
                    Ok((stream, _)) => break stream,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("accept: {e}"),
                }
            }
            assert!(std::time::Instant::now() < deadline, "no readiness event");
        };

        // Data readiness on the accepted stream.
        accepted.set_nonblocking(true).expect("nonblocking");
        poller
            .register(accepted.as_raw_fd(), 9, Interest::READ)
            .expect("register conn");
        client.write_all(b"hi").expect("write");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Duration::from_millis(20))
                .expect("wait");
            if events.iter().any(|e| e.token == 9 && e.readable) {
                let mut buf = [0u8; 8];
                if let Ok(2) = (&accepted).read(&mut buf) {
                    break;
                }
            }
            assert!(std::time::Instant::now() < deadline, "no data readiness");
        }
        poller
            .deregister(accepted.as_raw_fd(), 9)
            .expect("deregister");
        drop(client);
    }

    #[test]
    fn write_vectored_gathers_across_buffers() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (mut server_side, _) = listener.accept().expect("accept");

        let bufs: [&[u8]; 3] = [b"alpha ", b"", b"beta"];
        let n = write_vectored(&client, &bufs).expect("writev");
        assert_eq!(n, 10, "small gather completes in one call");

        let mut got = vec![0u8; 10];
        server_side.read_exact(&mut got).expect("read");
        assert_eq!(&got, b"alpha beta");
    }

    /// A burst of connects past std's 128-deep accept queue, with nobody
    /// accepting meanwhile (a loop busy computing), must all be waiting in
    /// the queue afterwards instead of having their handshakes dropped.
    #[cfg(target_os = "linux")]
    #[test]
    fn deepened_accept_queue_holds_a_connect_burst() {
        raise_fd_limit(1024).expect("fd limit");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        deepen_accept_queue(&listener).expect("listen");
        let addr = listener.local_addr().expect("addr");
        const BURST: usize = 300;
        // A connect whose handshake the kernel dropped hangs in SYN
        // retransmits; the timeout turns that into a failure.
        let clients: Vec<TcpStream> = (0..BURST)
            .map(|i| {
                TcpStream::connect_timeout(&addr, std::time::Duration::from_secs(2))
                    .unwrap_or_else(|e| panic!("connect {i} of a {BURST}-connect burst: {e}"))
            })
            .collect();
        listener.set_nonblocking(true).expect("nonblocking");
        let mut accepted = Vec::new();
        while let Ok((stream, _)) = listener.accept() {
            accepted.push(stream);
        }
        assert_eq!(accepted.len(), clients.len(), "handshakes were dropped");
    }

    #[test]
    fn fd_limit_raise_is_monotone() {
        let before = raise_fd_limit(256).expect("query limit");
        assert!(before >= 256);
        let after = raise_fd_limit(before).expect("idempotent");
        assert!(after >= before);
    }
}
