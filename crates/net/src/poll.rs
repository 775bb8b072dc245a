//! Minimal readiness polling for the event-driven server (DESIGN.md
//! §14): a small self-built epoll wrapper, std-only — the four epoll
//! syscalls are declared directly (std already links libc on Linux),
//! so no external crate is needed.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// What a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Readable only (the steady state of an idle connection).
    Read,
    /// Readable and writable (a connection with unflushed output).
    ReadWrite,
}

/// One readiness notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// Bytes (or EOF) are waiting to be read.
    pub readable: bool,
    /// The socket can accept more output.
    pub writable: bool,
    /// The peer hung up or the descriptor errored; the connection is
    /// done regardless of buffered data.
    pub hangup: bool,
}

mod sys {
    //! The raw epoll surface. `epoll_event` is packed on x86-64 (the
    //! kernel ABI) and naturally aligned elsewhere.

    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

/// A thin epoll(7) wrapper. Level-triggered (a ready descriptor keeps
/// reporting until drained), close-on-exec, owned fd closed on drop.
pub struct Epoll {
    epfd: RawFd,
    /// Event buffer for `wait`, allocated by its first call.
    buf: Vec<sys::EpollEvent>,
}

impl Epoll {
    /// Creates a fresh epoll instance.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 has no memory side effects; the result
        // is checked before use.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            epfd,
            buf: Vec::new(),
        })
    }

    fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: match interest {
                Interest::Read => sys::EPOLLIN | sys::EPOLLRDHUP,
                Interest::ReadWrite => sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP,
            },
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// Propagates the underlying syscall error.
    pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest set of an already registered descriptor.
    ///
    /// # Errors
    ///
    /// Propagates the underlying syscall error.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes a registration (closing the fd also removes it; this is
    /// for descriptors that outlive their registration).
    ///
    /// # Errors
    ///
    /// Propagates the underlying syscall error.
    pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
        // EPOLL_CTL_DEL before Linux 2.6.9 required a non-null event;
        // pass one unconditionally for compatibility.
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::Read)
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout` elapses, filling `out` (cleared first). A spurious
    /// empty wake-up is allowed.
    ///
    /// # Errors
    ///
    /// Propagates the underlying syscall error (`EINTR` is never
    /// surfaced: it returns as an empty wake-up).
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let timeout_ms = match timeout {
            None => -1,
            Some(d) => i32::try_from(d.as_millis()).unwrap_or(i32::MAX).max(0),
        };
        if self.buf.is_empty() {
            // Allocated here, by the thread that waits, not in `new`:
            // the server binds every loop's poller on one thread, and
            // buffers allocated there raised `billing_small`'s peak RSS
            // by ~0.4 MiB (glibc's per-thread malloc arenas).
            self.buf = vec![sys::EpollEvent { events: 0, data: 0 }; 256];
        }
        // SAFETY: `buf` is a live allocation of `buf.len()` events;
        // the kernel writes at most `maxevents` entries.
        let rc = unsafe {
            sys::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                timeout_ms,
            )
        };
        let n = if rc >= 0 {
            rc as usize
        } else {
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
            // EINTR: surface as a spurious empty wake-up so callers
            // re-check their shutdown flag instead of re-sleeping the
            // full timeout.
            0
        };
        for ev in &self.buf[..n] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: epfd is a fd this struct owns exclusively.
        unsafe { sys::close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn epoll_reports_readable_when_bytes_arrive() {
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        b.set_nonblocking(true).unwrap();
        let mut p = Epoll::new().expect("epoll");
        p.add(b.as_raw_fd(), 7, Interest::Read).expect("add");
        let mut out = Vec::new();

        // Nothing written yet: the wait times out empty.
        p.wait(&mut out, Some(Duration::from_millis(10))).unwrap();
        assert!(out.iter().all(|e| e.token != 7 || !e.readable));

        a.write_all(b"x").unwrap();
        p.wait(&mut out, Some(Duration::from_secs(5))).unwrap();
        let ev = out.iter().find(|e| e.token == 7).expect("event for b");
        assert!(ev.readable);

        // Level-triggered: still readable until drained.
        p.wait(&mut out, Some(Duration::from_millis(10))).unwrap();
        assert!(out.iter().any(|e| e.token == 7 && e.readable));
        let mut byte = [0u8; 8];
        let n = (&b).read(&mut byte).unwrap();
        assert_eq!(n, 1);
        p.wait(&mut out, Some(Duration::from_millis(10))).unwrap();
        assert!(out.iter().all(|e| e.token != 7 || !e.readable));
    }

    #[test]
    fn epoll_modify_adds_writable_and_remove_silences() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let mut p = Epoll::new().expect("epoll");
        p.add(b.as_raw_fd(), 1, Interest::Read).expect("add");
        let mut out = Vec::new();

        // Read-only interest: an idle writable socket reports nothing.
        p.wait(&mut out, Some(Duration::from_millis(10))).unwrap();
        assert!(out.iter().all(|e| e.token != 1 || !e.writable));

        p.modify(b.as_raw_fd(), 1, Interest::ReadWrite).unwrap();
        p.wait(&mut out, Some(Duration::from_secs(5))).unwrap();
        assert!(out.iter().any(|e| e.token == 1 && e.writable));

        p.remove(b.as_raw_fd()).unwrap();
        p.wait(&mut out, Some(Duration::from_millis(10))).unwrap();
        assert!(out.iter().all(|e| e.token != 1));
        drop(a);
    }

    #[test]
    fn epoll_reports_peer_hangup() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let mut p = Epoll::new().expect("epoll");
        p.add(b.as_raw_fd(), 3, Interest::Read).expect("add");
        drop(a);
        let mut out = Vec::new();
        p.wait(&mut out, Some(Duration::from_secs(5))).unwrap();
        // A closed peer is at least readable (EOF); RDHUP/HUP may also
        // be set depending on the socket type.
        assert!(out.iter().any(|e| e.token == 3 && e.readable));
    }
}
