//! A libc-free epoll/eventfd shim: the four raw Linux syscalls the
//! reactor needs, wrapped in safe RAII types.
//!
//! The workspace vendors no `libc` crate, and `std` exposes no readiness
//! API — so the event loop's kernel interface lives here, behind the only
//! `#[allow(unsafe_code)]` in the crate. The unsafe surface is four
//! syscall wrappers (`epoll_create1`, `epoll_ctl`, `epoll_pwait`,
//! `eventfd2`) plus `read`/`write`/`close` on the eventfd; everything
//! above this module handles plain `io::Result`s and owned fds.
//!
//! Supported targets are x86-64 and AArch64 Linux (the hosts this repo
//! builds on). Elsewhere the same API exists so the workspace still
//! compiles, but every constructor returns
//! [`std::io::ErrorKind::Unsupported`], and `Server::run` fails with that
//! error.

#![allow(unsafe_code)]

/// Readiness: the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half.
pub const EPOLLRDHUP: u32 = 0x2000;

/// One readiness report from [`Epoll::wait`]. The layout matches the
/// kernel's `struct epoll_event`, which is packed on x86-64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    /// `EPOLL*` readiness bits.
    pub events: u32,
    /// The caller's token, echoed back verbatim.
    pub token: u64,
}

impl EpollEvent {
    /// The readiness bits (reading a field of a packed struct through a
    /// reference is UB-adjacent; copy out instead).
    pub fn bits(&self) -> u32 {
        let e = *self;
        e.events
    }

    /// The caller's token.
    pub fn data(&self) -> u64 {
        let e = *self;
        e.token
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::EpollEvent;
    use std::io;
    use std::os::unix::io::RawFd;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const READ: usize = 0;
        pub const WRITE: usize = 1;
        pub const CLOSE: usize = 3;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EVENTFD2: usize = 290;
        pub const EPOLL_CREATE1: usize = 291;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const READ: usize = 63;
        pub const WRITE: usize = 64;
        pub const CLOSE: usize = 57;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const EVENTFD2: usize = 19;
        pub const EPOLL_CREATE1: usize = 20;
    }

    const EPOLL_CLOEXEC: usize = 0x80000;
    const EFD_CLOEXEC: usize = 0x80000;
    const EFD_NONBLOCK: usize = 0x800;
    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_DEL: usize = 2;
    const EPOLL_CTL_MOD: usize = 3;

    /// One raw syscall with up to six arguments. Safety: the caller must
    /// pass arguments valid for the syscall number (live fds, pointers to
    /// memory of the stated length).
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    /// One raw syscall with up to six arguments (AArch64 `svc 0` ABI).
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
        ret
    }

    /// Maps the kernel's negative-errno convention to `io::Result`.
    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    /// An owned epoll instance.
    #[derive(Debug)]
    pub struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        /// A fresh close-on-exec epoll instance.
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: no pointer arguments.
            let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
            Ok(Epoll { fd: fd as RawFd })
        }

        fn ctl(&self, op: usize, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut event = EpollEvent { events, token };
            let ptr = if op == EPOLL_CTL_DEL {
                std::ptr::null_mut()
            } else {
                &mut event as *mut EpollEvent
            };
            // SAFETY: `ptr` is null (DEL) or points at a live epoll_event;
            // the kernel only reads it during the call.
            check(unsafe {
                syscall6(
                    nr::EPOLL_CTL,
                    self.fd as usize,
                    op,
                    fd as usize,
                    ptr as usize,
                    0,
                    0,
                )
            })?;
            Ok(())
        }

        /// Starts watching `fd` for `events`, tagging reports with `token`.
        pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        /// Changes the watched event set of an already-added `fd`.
        pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        /// Stops watching `fd`.
        pub fn del(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks up to `timeout_ms` (-1 = forever) for readiness, filling
        /// `events` and returning how many entries are valid.
        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            loop {
                // SAFETY: `events` is a live, writable slice of
                // epoll_event-layout structs; len bounds the kernel write.
                let ret = unsafe {
                    syscall6(
                        nr::EPOLL_PWAIT,
                        self.fd as usize,
                        events.as_mut_ptr() as usize,
                        events.len(),
                        timeout_ms as usize,
                        0, // no signal mask
                        8, // sigsetsize (ignored when the mask is null)
                    )
                };
                match check(ret) {
                    Ok(n) => return Ok(n),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: closing an owned fd exactly once.
            let _ = unsafe { syscall6(nr::CLOSE, self.fd as usize, 0, 0, 0, 0, 0) };
        }
    }

    /// A nonblocking eventfd: a one-word kernel counter used to wake an
    /// [`Epoll::wait`] from another thread.
    #[derive(Debug)]
    pub struct EventFd {
        fd: RawFd,
    }

    impl EventFd {
        /// A fresh nonblocking close-on-exec eventfd with counter 0.
        pub fn new() -> io::Result<EventFd> {
            // SAFETY: no pointer arguments.
            let fd = check(unsafe {
                syscall6(nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0)
            })?;
            Ok(EventFd { fd: fd as RawFd })
        }

        /// The fd to register with an epoll instance.
        pub fn raw_fd(&self) -> RawFd {
            self.fd
        }

        /// Bumps the counter, waking any epoll watching this fd. A full
        /// counter (`EAGAIN`) already guarantees a pending wake.
        pub fn notify(&self) {
            let one: u64 = 1;
            // SAFETY: writing 8 bytes from a live u64.
            let _ = unsafe {
                syscall6(
                    nr::WRITE,
                    self.fd as usize,
                    (&one as *const u64) as usize,
                    8,
                    0,
                    0,
                    0,
                )
            };
        }

        /// Resets the counter to 0 so the next [`notify`](Self::notify)
        /// wakes again. `EAGAIN` (already 0) is fine.
        pub fn drain(&self) {
            let mut buf: u64 = 0;
            // SAFETY: reading 8 bytes into a live u64.
            let _ = unsafe {
                syscall6(
                    nr::READ,
                    self.fd as usize,
                    (&mut buf as *mut u64) as usize,
                    8,
                    0,
                    0,
                    0,
                )
            };
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            // SAFETY: closing an owned fd exactly once.
            let _ = unsafe { syscall6(nr::CLOSE, self.fd as usize, 0, 0, 0, 0, 0) };
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    //! The stub fallback: same API, every constructor refuses with the one
    //! `Unsupported` error.

    use super::EpollEvent;
    use std::io;
    use std::os::unix::io::RawFd;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll reactor requires x86-64 or AArch64 Linux",
        )
    }

    /// Stub epoll handle (never constructed).
    #[derive(Debug)]
    pub struct Epoll {}

    impl Epoll {
        /// Always refuses on unsupported targets.
        pub fn new() -> io::Result<Epoll> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn add(&self, _fd: RawFd, _events: u32, _token: u64) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn modify(&self, _fd: RawFd, _events: u32, _token: u64) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn del(&self, _fd: RawFd) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn wait(&self, _events: &mut [EpollEvent], _timeout_ms: i32) -> io::Result<usize> {
            Err(unsupported())
        }
    }

    /// Stub eventfd handle (never constructed).
    #[derive(Debug)]
    pub struct EventFd {}

    impl EventFd {
        /// Always refuses on unsupported targets.
        pub fn new() -> io::Result<EventFd> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn raw_fd(&self) -> RawFd {
            -1
        }

        /// Unreachable (no instance can exist).
        pub fn notify(&self) {}

        /// Unreachable (no instance can exist).
        pub fn drain(&self) {}
    }
}

pub use imp::{Epoll, EventFd};

#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn eventfd_wakes_an_epoll_wait() {
        let epoll = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        epoll.add(efd.raw_fd(), EPOLLIN, 7).unwrap();

        // Nothing pending: a zero-timeout wait reports nothing.
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        efd.notify();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].data(), 7);
        assert_ne!(events[0].bits() & EPOLLIN, 0);

        // Drained, the level-triggered readiness clears.
        efd.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        // And a second notify wakes again.
        efd.notify();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
    }

    #[test]
    fn socket_readability_and_writability_are_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let epoll = Epoll::new().unwrap();
        epoll
            .add(server.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 42)
            .unwrap();

        let mut events = [EpollEvent::default(); 4];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "idle socket");

        client.write_all(b"hello\n").unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].data(), 42);
        assert_ne!(events[0].bits() & EPOLLIN, 0);

        // MOD to write-interest: an idle socket is immediately writable.
        epoll.modify(server.as_raw_fd(), EPOLLOUT, 43).unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].data(), 43);
        assert_ne!(events[0].bits() & EPOLLOUT, 0);

        // Hangup from the peer surfaces on read-interest.
        epoll
            .modify(server.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 44)
            .unwrap();
        drop(client);
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert_ne!(events[0].bits() & (EPOLLIN | EPOLLRDHUP | EPOLLHUP), 0);

        epoll.del(server.as_raw_fd()).unwrap();
    }
}
