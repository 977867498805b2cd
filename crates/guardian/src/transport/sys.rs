//! Minimal raw-syscall surface for the transports and the executor.
//!
//! The workspace deliberately carries no `libc` crate; this module
//! declares exactly the handful of Linux calls the data plane needs —
//! `eventfd` for the executor's shutdown bell, `epoll` for readiness,
//! `poll` for single-connection parking, `send`/`recv` with
//! `MSG_DONTWAIT` for the shm wake bytes, `sendmsg`/`recvmsg` with
//! `SCM_RIGHTS` to hand the daemon's memfds to a client, `memfd_create`
//! and `fcntl` seals to make those memfds, `mmap` to map them, and
//! `read` into a buffer's unused capacity for bulk frames. Everything is
//! wrapped in safe helpers returning `io::Result`, except the raw
//! pointer of a [`SharedMap`], which only the ring and the window
//! dereference.

use std::ffi::CStr;
use std::fs::File;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicU32, AtomicU64};

#[allow(non_camel_case_types)]
type c_int = i32;
#[allow(non_camel_case_types)]
type c_uint = u32;
#[allow(non_camel_case_types)]
type c_void = std::ffi::c_void;

extern "C" {
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn sendmsg(fd: c_int, msg: *const MsgHdr, flags: c_int) -> isize;
    fn recvmsg(fd: c_int, msg: *mut MsgHdr, flags: c_int) -> isize;
    fn send(fd: c_int, buf: *const c_void, len: usize, flags: c_int) -> isize;
    fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
    fn memfd_create(name: *const std::ffi::c_char, flags: c_uint) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

// asm-generic flag values (x86_64/aarch64 Linux).
const EFD_NONBLOCK: c_int = 0o4000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EPOLL_CLOEXEC: c_int = 0o2000000;

/// Readability.
pub const EPOLLIN: u32 = 0x1;
/// Peer closed its write half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// One-shot delivery: the fd is disarmed after each event and must be
/// rearmed with [`Epoll::rearm`] — the executor's single-drainer
/// exclusivity lever.
pub const EPOLLONESHOT: u32 = 1 << 30;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

/// `poll(2)` readability.
pub const POLLIN: i16 = 0x1;
/// `poll(2)` writability.
pub const POLLOUT: i16 = 0x4;

const SOL_SOCKET: c_int = 1;
const SCM_RIGHTS: c_int = 1;
const MSG_CMSG_CLOEXEC: c_int = 0x4000_0000;
const MSG_DONTWAIT: c_int = 0x40;
const MSG_NOSIGNAL: c_int = 0x4000;

const MFD_CLOEXEC: c_uint = 1;
const MFD_ALLOW_SEALING: c_uint = 2;
const F_ADD_SEALS: c_int = 1033;
const F_SEAL_SEAL: c_int = 1;
const F_SEAL_SHRINK: c_int = 2;
const F_SEAL_GROW: c_int = 4;

const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_SHARED: c_int = 1;

/// `struct epoll_event`. Packed on x86_64 (the kernel ABI), natural
/// alignment elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Event mask (`EPOLLIN` | ...).
    pub events: u32,
    /// Caller cookie, returned verbatim by `epoll_wait`.
    pub data: u64,
}

/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    /// Descriptor to poll.
    pub fd: RawFd,
    /// Requested events.
    pub events: i16,
    /// Returned events.
    pub revents: i16,
}

#[repr(C)]
struct IoVec {
    base: *mut c_void,
    len: usize,
}

// 64-bit Linux msghdr layout (int msg_flags padded to the end).
#[repr(C)]
struct MsgHdr {
    msg_name: *mut c_void,
    msg_namelen: u32,
    msg_iov: *mut IoVec,
    msg_iovlen: usize,
    msg_control: *mut c_void,
    msg_controllen: usize,
    msg_flags: c_int,
}

// 64-bit cmsghdr: size_t len, int level, int type — 16 bytes, data
// follows at the next usize boundary (i.e. immediately).
const CMSG_HDR: usize = 16;
const fn cmsg_align(n: usize) -> usize {
    (n + 7) & !7
}

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

/// Take ownership of a descriptor a syscall just returned.
fn owned(fd: c_int) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(last_os_error());
    }
    // SAFETY: `fd` is a fresh descriptor nothing else owns.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// A fresh non-blocking, close-on-exec eventfd at count 0.
pub fn eventfd_new() -> io::Result<OwnedFd> {
    // SAFETY: plain syscall with no pointer arguments.
    owned(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })
}

/// Ring the bell: add 1 to the eventfd counter. Never blocks (the
/// counter saturating at `u64::MAX - 1` would return `EAGAIN`, which is
/// fine — the waiters are already signalled).
pub fn eventfd_signal(fd: RawFd) {
    let one = 1u64.to_ne_bytes();
    // SAFETY: `one` is 8 readable bytes for the duration of the call.
    unsafe {
        write(fd, one.as_ptr() as *const c_void, 8);
    }
}

/// Wake the peer of a connected stream socket: one byte on our end,
/// sent with `MSG_DONTWAIT`, so the call never blocks whatever the peer
/// does with its end (stops reading, closes it). A full socket buffer
/// means wake bytes are already pending there, so the lost byte is
/// harmless and every error is ignored.
pub fn wake(sock: RawFd) {
    let byte = [1u8];
    // SAFETY: `byte` is 1 readable byte for the duration of the call.
    unsafe {
        send(
            sock,
            byte.as_ptr() as *const c_void,
            1,
            MSG_DONTWAIT | MSG_NOSIGNAL,
        );
    }
}

/// Consume pending wake bytes on `sock` with one `recv(MSG_DONTWAIT)`,
/// which never blocks. Returns `true` once the peer has closed its end
/// (EOF or a connection error). Bytes beyond one read stay queued and
/// keep the socket readable, so a peer that floods wake bytes costs its
/// reader one bounded read per poll, not a loop.
pub fn drain_wakes(sock: RawFd) -> bool {
    let mut buf = [0u8; 256];
    // SAFETY: `buf` is writable for its whole length during the call.
    let n = unsafe {
        recv(
            sock,
            buf.as_mut_ptr() as *mut c_void,
            buf.len(),
            MSG_DONTWAIT,
        )
    };
    if n > 0 {
        return false;
    }
    if n == 0 {
        return true;
    }
    let e = last_os_error();
    !matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
    )
}

/// A close-on-exec memfd of `len` bytes, sealed so that nobody — in
/// particular a process it is handed to — can shrink or grow it, or
/// change its seals: a mapping of it can never fault on a truncated
/// page.
pub fn sealed_memfd(name: &CStr, len: u64) -> io::Result<File> {
    // SAFETY: `name` is a NUL-terminated string for the whole call.
    let fd = owned(unsafe { memfd_create(name.as_ptr(), MFD_CLOEXEC | MFD_ALLOW_SEALING) })?;
    let file = File::from(fd);
    file.set_len(len)?;
    // SAFETY: plain syscall on a descriptor we own; the variadic
    // argument is the `int` seal mask F_ADD_SEALS expects.
    let rc = unsafe {
        fcntl(
            file.as_raw_fd(),
            F_ADD_SEALS,
            F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_SEAL,
        )
    };
    if rc < 0 {
        return Err(last_os_error());
    }
    Ok(file)
}

/// A shared read/write mapping of the first `len` bytes of a file,
/// unmapped on drop. Page-aligned. The owner decides how the bytes are
/// accessed; this type only keeps the mapping alive and in bounds.
pub struct SharedMap {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is plain memory that stays valid until drop, and
// neither field is ever written after construction. Every access to
// the bytes goes through the owner's own discipline (the ring's atomics
// and SPSC protocol, the window's one-copy rule).
unsafe impl Send for SharedMap {}
// SAFETY: as for `Send`; `&SharedMap` exposes only the pointer and the
// length, and the atomic accessors.
unsafe impl Sync for SharedMap {}

impl SharedMap {
    /// Map `len` bytes of `file`, which must be at least that long —
    /// a shorter file would fault on access past its end, so it is
    /// refused here.
    pub fn new(file: &File, len: usize) -> io::Result<SharedMap> {
        let have = file.metadata()?.len();
        if len == 0 || have < len as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("cannot map {len} bytes of a {have}-byte file"),
            ));
        }
        // SAFETY: a fresh mapping at a kernel-chosen address; it aliases
        // no Rust object.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 || ptr.is_null() {
            return Err(last_os_error());
        }
        Ok(SharedMap {
            ptr: ptr.cast(),
            len,
        })
    }

    /// The first byte of the mapping.
    pub fn ptr(&self) -> *mut u8 {
        self.ptr
    }

    /// The mapping's length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The atomic u64 at byte offset `off`.
    ///
    /// # Panics
    ///
    /// If `off` is misaligned or the word lies past the mapping.
    pub fn atomic_u64(&self, off: usize) -> &AtomicU64 {
        assert!(off.is_multiple_of(8) && off + 8 <= self.len);
        // SAFETY: in bounds and 8-aligned (the mapping is page-aligned),
        // valid for the borrow of `self`; every access to these bytes,
        // by either process, is atomic.
        unsafe { &*(self.ptr.add(off) as *const AtomicU64) }
    }

    /// The atomic u32 at byte offset `off` (see [`SharedMap::atomic_u64`]).
    ///
    /// # Panics
    ///
    /// If `off` is misaligned or the word lies past the mapping.
    pub fn atomic_u32(&self, off: usize) -> &AtomicU32 {
        assert!(off.is_multiple_of(4) && off + 4 <= self.len);
        // SAFETY: as in `atomic_u64`, for a 4-aligned word.
        unsafe { &*(self.ptr.add(off) as *const AtomicU32) }
    }
}

impl Drop for SharedMap {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the region `new` mapped; nothing
        // borrows it past the drop of `self`.
        unsafe {
            munmap(self.ptr.cast(), self.len);
        }
    }
}

/// `read(2)` into the unused capacity of `buf`, extending its length by
/// the bytes received: bytes land in their final buffer with no
/// zero-filled staging in between. `Ok(0)` (with spare capacity) is EOF.
pub fn read_spare(fd: RawFd, buf: &mut Vec<u8>) -> io::Result<usize> {
    let len = buf.len();
    let spare = buf.capacity() - len;
    // SAFETY: the kernel writes at most `spare` bytes into the
    // allocation's unused tail, and only the bytes it reports written
    // become part of the vector.
    let n = unsafe { read(fd, buf.as_mut_ptr().add(len) as *mut c_void, spare) };
    if n < 0 {
        return Err(last_os_error());
    }
    // SAFETY: `n <= spare`, and the kernel initialized those `n` bytes.
    unsafe { buf.set_len(len + n as usize) };
    Ok(n as usize)
}

/// `poll(2)` the given (fd, events) pairs. Returns the revents of each
/// entry (0 = not ready); all-zero means the timeout elapsed. EINTR is
/// treated as a timeout — callers loop anyway.
pub fn poll_fds(entries: &[(RawFd, i16)], timeout_ms: i32) -> Vec<i16> {
    let mut fds: Vec<PollFd> = entries
        .iter()
        .map(|&(fd, events)| PollFd {
            fd,
            events,
            revents: 0,
        })
        .collect();
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
    if n <= 0 {
        return vec![0; entries.len()];
    }
    fds.iter().map(|p| p.revents).collect()
}

/// An owned epoll instance.
pub struct Epoll(OwnedFd);

impl Epoll {
    /// A fresh close-on-exec epoll instance.
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall with no pointer arguments.
        Ok(Epoll(owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?))
    }

    /// Register `fd` with `events` and the caller cookie `data`.
    pub fn add(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, data)
    }

    /// Rearm a one-shot registration (EPOLL_CTL_MOD).
    pub fn rearm(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, data)
    }

    /// Deregister `fd`. Errors are ignored — the fd may already be
    /// closed, which deregisters implicitly.
    pub fn del(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Wait up to `timeout_ms` (-1 = forever) for events. EINTR yields
    /// an empty set.
    pub fn wait(&self, max_events: usize, timeout_ms: i32) -> Vec<(u32, u64)> {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; max_events.max(1)];
        let n = unsafe {
            epoll_wait(
                self.0.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as c_int,
                timeout_ms,
            )
        };
        if n <= 0 {
            return Vec::new();
        }
        events[..n as usize]
            .iter()
            .map(|e| {
                let ev = *e;
                (ev.events, ev.data)
            })
            .collect()
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        let rc = unsafe { epoll_ctl(self.0.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(last_os_error());
        }
        Ok(())
    }
}

/// `sendmsg` `bytes` on `sock` with `fds` attached as one `SCM_RIGHTS`
/// control message. Returns the number of payload bytes sent.
pub fn send_with_fds(sock: RawFd, bytes: &[u8], fds: &[RawFd]) -> io::Result<usize> {
    let mut iov = IoVec {
        base: bytes.as_ptr() as *mut c_void,
        len: bytes.len(),
    };
    let space = CMSG_HDR + cmsg_align(fds.len() * 4);
    // u64 storage guarantees the kernel's cmsg alignment.
    let mut control = vec![0u64; space.div_ceil(8)];
    {
        let ctrl = control.as_mut_ptr() as *mut u8;
        let len_field = (CMSG_HDR + fds.len() * 4) as u64;
        unsafe {
            std::ptr::copy_nonoverlapping(len_field.to_ne_bytes().as_ptr(), ctrl, 8);
            std::ptr::copy_nonoverlapping(SOL_SOCKET.to_ne_bytes().as_ptr(), ctrl.add(8), 4);
            std::ptr::copy_nonoverlapping(SCM_RIGHTS.to_ne_bytes().as_ptr(), ctrl.add(12), 4);
            for (i, fd) in fds.iter().enumerate() {
                std::ptr::copy_nonoverlapping(
                    fd.to_ne_bytes().as_ptr(),
                    ctrl.add(CMSG_HDR + i * 4),
                    4,
                );
            }
        }
    }
    let msg = MsgHdr {
        msg_name: std::ptr::null_mut(),
        msg_namelen: 0,
        msg_iov: &mut iov,
        msg_iovlen: 1,
        msg_control: if fds.is_empty() {
            std::ptr::null_mut()
        } else {
            control.as_mut_ptr() as *mut c_void
        },
        msg_controllen: if fds.is_empty() { 0 } else { space },
        msg_flags: 0,
    };
    let n = unsafe { sendmsg(sock, &msg, 0) };
    if n < 0 {
        return Err(last_os_error());
    }
    Ok(n as usize)
}

/// `recvmsg` into `buf`, collecting up to `max_fds` descriptors from an
/// attached `SCM_RIGHTS` control message (close-on-exec). Returns the
/// payload byte count and the received fds (owned — unclaimed fds are
/// closed when the vec drops).
pub fn recv_with_fds(
    sock: RawFd,
    buf: &mut [u8],
    max_fds: usize,
) -> io::Result<(usize, Vec<OwnedFd>)> {
    let mut iov = IoVec {
        base: buf.as_mut_ptr() as *mut c_void,
        len: buf.len(),
    };
    let space = CMSG_HDR + cmsg_align(max_fds * 4);
    let mut control = vec![0u64; space.div_ceil(8)];
    let mut msg = MsgHdr {
        msg_name: std::ptr::null_mut(),
        msg_namelen: 0,
        msg_iov: &mut iov,
        msg_iovlen: 1,
        msg_control: control.as_mut_ptr() as *mut c_void,
        msg_controllen: space,
        msg_flags: 0,
    };
    let n = unsafe { recvmsg(sock, &mut msg, MSG_CMSG_CLOEXEC) };
    if n < 0 {
        return Err(last_os_error());
    }
    let mut fds = Vec::new();
    if msg.msg_controllen >= CMSG_HDR {
        let ctrl = control.as_ptr() as *const u8;
        let mut len_bytes = [0u8; 8];
        let mut level_bytes = [0u8; 4];
        let mut ty_bytes = [0u8; 4];
        unsafe {
            std::ptr::copy_nonoverlapping(ctrl, len_bytes.as_mut_ptr(), 8);
            std::ptr::copy_nonoverlapping(ctrl.add(8), level_bytes.as_mut_ptr(), 4);
            std::ptr::copy_nonoverlapping(ctrl.add(12), ty_bytes.as_mut_ptr(), 4);
        }
        let cmsg_len = u64::from_ne_bytes(len_bytes) as usize;
        let level = c_int::from_ne_bytes(level_bytes);
        let ty = c_int::from_ne_bytes(ty_bytes);
        if level == SOL_SOCKET && ty == SCM_RIGHTS && cmsg_len > CMSG_HDR {
            let count = ((cmsg_len - CMSG_HDR) / 4).min(max_fds);
            for i in 0..count {
                let mut fd_bytes = [0u8; 4];
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        ctrl.add(CMSG_HDR + i * 4),
                        fd_bytes.as_mut_ptr(),
                        4,
                    );
                }
                // SAFETY: the kernel installed this descriptor for us
                // with the message; nothing else owns it.
                fds.push(unsafe { OwnedFd::from_raw_fd(RawFd::from_ne_bytes(fd_bytes)) });
            }
        }
    }
    Ok((n as usize, fds))
}

/// Fill `buf` from `sock` with `recvmsg`, collecting up to `max_fds`
/// descriptors attached to any of its bytes. EOF before `buf` is full
/// is `UnexpectedEof`.
pub fn recv_exact_with_fds(
    sock: RawFd,
    buf: &mut [u8],
    max_fds: usize,
) -> io::Result<Vec<OwnedFd>> {
    let mut got = 0;
    let mut fds = Vec::new();
    while got < buf.len() {
        match recv_with_fds(sock, &mut buf[got..], max_fds.saturating_sub(fds.len())) {
            Ok((0, _)) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok((n, mut more)) => {
                got += n;
                fds.append(&mut more);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(fds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::os::unix::net::UnixStream;

    /// Read an eventfd's counter back to 0: `Some(count)` when a signal
    /// was pending.
    fn eventfd_drain(fd: &OwnedFd) -> Option<u64> {
        let mut buf = [0u8; 8];
        let mut file = File::from(fd.try_clone().unwrap());
        file.read_exact(&mut buf)
            .ok()
            .map(|_| u64::from_ne_bytes(buf))
    }

    #[test]
    fn eventfd_signal_drain_round_trip() {
        let efd = eventfd_new().unwrap();
        assert_eq!(eventfd_drain(&efd), None, "fresh eventfd has no signal");
        eventfd_signal(efd.as_raw_fd());
        eventfd_signal(efd.as_raw_fd());
        assert_eq!(eventfd_drain(&efd), Some(2), "signalled eventfd drains");
        assert_eq!(eventfd_drain(&efd), None, "drain resets the counter");
    }

    #[test]
    fn poll_sees_eventfd_readability() {
        let efd = eventfd_new().unwrap();
        let idle = poll_fds(&[(efd.as_raw_fd(), POLLIN)], 0);
        assert_eq!(idle[0] & POLLIN, 0);
        eventfd_signal(efd.as_raw_fd());
        let ready = poll_fds(&[(efd.as_raw_fd(), POLLIN)], 1000);
        assert_ne!(ready[0] & POLLIN, 0);
    }

    #[test]
    fn epoll_oneshot_delivers_then_disarms_then_rearms() {
        let ep = Epoll::new().unwrap();
        let efd = eventfd_new().unwrap();
        ep.add(efd.as_raw_fd(), EPOLLIN | EPOLLONESHOT, 42).unwrap();
        eventfd_signal(efd.as_raw_fd());
        let evs = ep.wait(8, 1000);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].1, 42);
        // One-shot: without a rearm the (still readable) fd stays quiet.
        assert!(ep.wait(8, 50).is_empty());
        ep.rearm(efd.as_raw_fd(), EPOLLIN | EPOLLONESHOT, 42)
            .unwrap();
        assert_eq!(ep.wait(8, 1000).len(), 1);
        ep.del(efd.as_raw_fd());
    }

    #[test]
    fn scm_rights_passes_eventfds_across_a_socket() {
        let (a, b) = UnixStream::pair().unwrap();
        let e1 = eventfd_new().unwrap();
        let e2 = eventfd_new().unwrap();
        eventfd_signal(e1.as_raw_fd());
        let sent = send_with_fds(a.as_raw_fd(), b"hi", &[e1.as_raw_fd(), e2.as_raw_fd()]).unwrap();
        assert_eq!(sent, 2);
        let mut buf = [0u8; 2];
        let fds = recv_exact_with_fds(b.as_raw_fd(), &mut buf, 2).unwrap();
        assert_eq!(&buf, b"hi");
        assert_eq!(fds.len(), 2);
        // The duplicated descriptor shares the eventfd object: the signal
        // written before the transfer is visible through the new fd.
        assert_eq!(eventfd_drain(&fds[0]), Some(1));
        assert_eq!(eventfd_drain(&fds[1]), None);
    }

    #[test]
    fn read_spare_fills_only_unused_capacity() {
        let (mut a, b) = UnixStream::pair().unwrap();
        a.write_all(b"abcdefgh").unwrap();
        let mut buf = Vec::with_capacity(6);
        buf.push(b'>');
        // Five bytes of room: the rest stays in the socket.
        assert_eq!(read_spare(b.as_raw_fd(), &mut buf).unwrap(), 5);
        assert_eq!(buf, b">abcde");
        let mut rest = Vec::with_capacity(8);
        assert_eq!(read_spare(b.as_raw_fd(), &mut rest).unwrap(), 3);
        assert_eq!(rest, b"fgh");
        drop(a);
        assert_eq!(read_spare(b.as_raw_fd(), &mut rest).unwrap(), 0, "EOF");
    }

    #[test]
    fn plain_stream_bytes_carry_no_fds() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let mut a2 = a.try_clone().unwrap();
        a2.write_all(b"xyz").unwrap();
        let mut buf = [0u8; 3];
        let (n, fds) = recv_with_fds(b.as_raw_fd(), &mut buf, 2).unwrap();
        assert_eq!((n, &buf), (3, b"xyz"));
        assert!(fds.is_empty());
        // And the reverse interleaving: recvmsg'd bytes then plain read.
        send_with_fds(a.as_raw_fd(), b"pq", &[]).unwrap();
        let mut rest = [0u8; 2];
        b.read_exact(&mut rest).unwrap();
        assert_eq!(&rest, b"pq");
    }

    /// Wake bytes never block the sender, even once the peer has stopped
    /// reading and its buffer is full, and the reader sees them — then
    /// EOF — without blocking either.
    #[test]
    fn wakes_never_block_and_drain_reports_eof() {
        let (a, b) = UnixStream::pair().unwrap();
        assert!(!drain_wakes(b.as_raw_fd()), "idle socket is not EOF");
        // Far more wakes than any socket buffer holds: each returns.
        for _ in 0..100_000 {
            wake(a.as_raw_fd());
        }
        assert_ne!(poll_fds(&[(b.as_raw_fd(), POLLIN)], 0)[0] & POLLIN, 0);
        while poll_fds(&[(b.as_raw_fd(), POLLIN)], 0)[0] & POLLIN != 0 {
            assert!(!drain_wakes(b.as_raw_fd()));
        }
        drop(a);
        assert!(drain_wakes(b.as_raw_fd()), "closed peer reads as EOF");
    }

    /// A sealed memfd keeps its size against anyone holding it, and a
    /// mapping longer than a file is refused instead of faulting later.
    #[test]
    fn sealed_memfd_cannot_be_resized() {
        let file = sealed_memfd(c"grd-test", 8192).unwrap();
        let dup = file.try_clone().unwrap();
        for len in [0, 4096, 1 << 20] {
            let e = dup.set_len(len).unwrap_err();
            assert_eq!(e.raw_os_error(), Some(1), "EPERM for set_len({len})");
        }
        let map = SharedMap::new(&file, 8192).unwrap();
        map.atomic_u64(8184)
            .store(7, std::sync::atomic::Ordering::SeqCst);
        assert_eq!(map.len(), 8192);
        assert!(SharedMap::new(&file, 8193).is_err());
    }
}
