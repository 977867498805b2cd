//! Unix-domain-socket transport: tenants as real OS processes.
//!
//! Frames travel length-prefixed over `std::os::unix::net` streams (the
//! [`super::frame`] codec handles partial-read reassembly, so however the
//! kernel splits a write, the receiver sees whole frames). EOF — a tenant
//! that exited, crashed, or was `SIGKILL`ed — surfaces as
//! [`TransportError::Disconnected`], which is exactly what the session
//! layer treats as an implicit disconnect: the partition is drained and
//! freed through the same path a polite `Disconnect` frame takes.
//!
//! Each direction of a fresh connection opens with the 4-byte
//! [`frame::PREAMBLE`] so version skew fails the handshake instead of
//! corrupting mid-session frames. The server's preamble carries the
//! descriptor of the connection's [`Window`] (`SCM_RIGHTS`), which the
//! client maps before its dial returns.

use super::frame::{self, FrameDecoder, FrameView, BATCH_FLAG, MAX_FRAME, PREAMBLE};
use super::peercred::UidPolicy;
use super::{sys, Connection, Dialer, Listener, TransportError, Window};
use parking_lot::Mutex;
use std::fs::File;
use std::io::{IoSlice, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long a freshly accepted peer may take to complete the preamble
/// exchange before its session gives up on it. The handshake runs on
/// the connection's own session thread (never the accept loop), so this
/// bounds how long a wedged client can pin one thread, not the daemon.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

fn io_err(op: &'static str, e: &std::io::Error) -> TransportError {
    TransportError::from_io(op, e)
}

/// Server half of the preamble exchange: create the connection's
/// window, send our preamble with its descriptor attached, then read and
/// validate the client's. Order is safe because both sides write first
/// — 4 bytes always fit in the socket buffer.
fn serve_handshake(stream: &UnixStream) -> Result<Window, TransportError> {
    let hs = |e: std::io::Error| io_err("handshake", &e);
    stream
        .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
        .map_err(hs)?;
    let (window, fd) = Window::create().map_err(hs)?;
    let sent = sys::send_with_fds(stream.as_raw_fd(), &PREAMBLE, &[fd.as_raw_fd()]).map_err(hs)?;
    drop(fd);
    if sent != PREAMBLE.len() {
        return Err(TransportError::Io {
            op: "handshake",
            kind: std::io::ErrorKind::WriteZero,
            detail: format!("short preamble sendmsg ({sent} of 4 bytes)"),
        });
    }
    let mut got = [0u8; 4];
    (&*stream).read_exact(&mut got).map_err(hs)?;
    frame::check_preamble(&got)?;
    stream.set_read_timeout(None).map_err(hs)?;
    Ok(window)
}

/// Client half: send our preamble, read and validate the server's, and
/// map the window whose descriptor rides on it.
fn dial_handshake(stream: &UnixStream) -> Result<Window, TransportError> {
    let hs = |e: std::io::Error| io_err("handshake", &e);
    stream
        .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
        .map_err(hs)?;
    (&*stream).write_all(&PREAMBLE).map_err(hs)?;
    let mut got = [0u8; 4];
    let fds = sys::recv_exact_with_fds(stream.as_raw_fd(), &mut got, 1).map_err(hs)?;
    frame::check_preamble(&got)?;
    let Ok([fd]) = <[_; 1]>::try_from(fds) else {
        return Err(TransportError::Io {
            op: "handshake",
            kind: std::io::ErrorKind::InvalidData,
            detail: "server preamble carries no window".into(),
        });
    };
    let window = Window::open(&File::from(fd)).map_err(hs)?;
    stream.set_read_timeout(None).map_err(hs)?;
    Ok(window)
}

/// Per-connection send state: the writer lock plus a reusable scratch
/// buffer holding the length prefixes for vectored writes, so a
/// steady-state sender allocates nothing per frame or batch.
#[derive(Default)]
struct SendState {
    /// Length-prefix scratch: `[outer word][sub-len][sub-len]…` for a
    /// batch, just the prefix for a single frame. Capacity is retained
    /// across sends.
    prefixes: Vec<u8>,
}

/// One framed Unix-socket connection (either half).
pub struct UdsConnection {
    stream: UnixStream,
    /// Serializes writers so interleaved sends cannot shear a frame;
    /// carries the reusable prefix scratch.
    send_lock: Mutex<SendState>,
    /// Reassembly state; also serializes readers.
    recv_state: Mutex<FrameDecoder>,
    /// The transfer window. `None` on a freshly accepted server half
    /// until its preamble exchange, which is deferred to the
    /// connection's own session thread, so a wedged or hostile client
    /// stalls only itself — never the accept loop.
    window: Mutex<Option<Arc<Window>>>,
    /// `true` once `window` is set: after the handshake, checking for it
    /// is one atomic load, with no lock.
    handshaken: AtomicBool,
    /// `true` once an epoll executor adopted this connection: the stream
    /// goes non-blocking (after the handshake) and frames are pulled via
    /// [`Connection::try_recv`].
    event_mode: AtomicBool,
    /// `SO_PEERCRED` uid, captured at accept on server halves; `None` on
    /// client halves (the peer there is the manager, not a tenant).
    peer_uid: Option<u32>,
}

/// How long a send may sit in `poll(POLLOUT)` waiting for a peer that
/// reads nothing before the connection is declared wedged. Generous: a
/// live manager drains its socket continuously.
const SEND_STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Bytes one socket read pulls into the decoder's staging; a plain frame
/// longer than this is read straight into a buffer of its own.
const READ_SIZE: usize = 16 * 1024;

impl UdsConnection {
    /// A connection half: a handshaken client's (with its window) or a
    /// freshly accepted server's (whose handshake is deferred).
    fn new(stream: UnixStream, window: Option<Window>, peer_uid: Option<u32>) -> Self {
        UdsConnection {
            stream,
            send_lock: Mutex::new(SendState::default()),
            recv_state: Mutex::new(FrameDecoder::with_read_size(MAX_FRAME, READ_SIZE)),
            handshaken: AtomicBool::new(window.is_some()),
            window: Mutex::new(window.map(Arc::new)),
            event_mode: AtomicBool::new(false),
            peer_uid,
        }
    }

    /// Run the deferred preamble exchange once, on whichever thread
    /// touches the connection first (in the manager: the session thread
    /// or executor worker).
    fn ensure_handshaken(&self) -> Result<(), TransportError> {
        if self.handshaken.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut window = self.window.lock();
        if window.is_none() {
            let fresh = serve_handshake(&self.stream)?;
            // Event-mode adoption may have happened before the deferred
            // handshake ran; the stream only goes non-blocking now, so
            // the handshake itself could use read timeouts.
            if self.event_mode.load(Ordering::SeqCst) {
                self.stream
                    .set_nonblocking(true)
                    .map_err(|e| io_err("handshake", &e))?;
            }
            *window = Some(Arc::new(fresh));
            self.handshaken.store(true, Ordering::Release);
        }
        Ok(())
    }

    /// One read from the socket into the decoder: straight into the
    /// frame it is receiving in place, if any, else a `READ_SIZE` chunk.
    /// `Ok(0)` is EOF.
    fn read_into(&self, dec: &mut FrameDecoder) -> std::io::Result<usize> {
        if let Some(frame) = dec.in_place() {
            return sys::read_spare(self.stream.as_raw_fd(), frame);
        }
        let mut chunk = [0u8; READ_SIZE];
        let n = (&self.stream).read(&mut chunk)?;
        dec.push(&chunk[..n]);
        Ok(n)
    }

    /// Gather-write every byte of `parts` in order — one `writev(2)` per
    /// trip to the kernel (via `write_vectored`), so a whole batch of
    /// frames plus its length prefixes goes out as a single syscall in
    /// the common case. Rides out `WouldBlock` on a non-blocking stream
    /// by parking in `poll(POLLOUT)` — bounded so a peer that stops
    /// reading cannot pin an executor worker forever.
    fn send_vectored(&self, parts: &[&[u8]]) -> Result<(), TransportError> {
        /// Linux IOV_MAX; longer part lists loop.
        const MAX_IOV: usize = 1024;
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let mut written = 0usize;
        let mut stalled = Duration::ZERO;
        let mut iovs: Vec<IoSlice> = Vec::with_capacity(parts.len().min(MAX_IOV));
        while written < total {
            // Rebuild the iov list from the first unwritten byte; cheap
            // relative to the syscall, and partial writes are rare.
            iovs.clear();
            let mut skip = written;
            for p in parts {
                if skip >= p.len() {
                    skip -= p.len();
                    continue;
                }
                iovs.push(IoSlice::new(&p[skip..]));
                skip = 0;
                if iovs.len() == MAX_IOV {
                    break;
                }
            }
            match (&self.stream).write_vectored(&iovs) {
                Ok(0) => return Err(TransportError::Disconnected),
                Ok(n) => {
                    written += n;
                    stalled = Duration::ZERO;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if stalled >= SEND_STALL_TIMEOUT {
                        return Err(TransportError::Io {
                            op: "send",
                            kind: std::io::ErrorKind::TimedOut,
                            detail: "peer stopped reading".into(),
                        });
                    }
                    let step = 100;
                    sys::poll_fds(&[(self.stream.as_raw_fd(), sys::POLLOUT)], step);
                    stalled += Duration::from_millis(step as u64);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(io_err("send", &e)),
            }
        }
        Ok(())
    }
}

impl Connection for UdsConnection {
    fn send(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.ensure_handshaken()?;
        if frame.len() as u64 > MAX_FRAME as u64 {
            return Err(TransportError::FrameTooLarge {
                len: frame.len() as u64,
                max: MAX_FRAME as u64,
            });
        }
        // Vectored write: prefix + payload, no coalescing copy.
        let mut st = self.send_lock.lock();
        st.prefixes.clear();
        st.prefixes
            .extend_from_slice(&(frame.len() as u32).to_le_bytes());
        self.send_vectored(&[&st.prefixes[..], &frame])
    }

    fn window(&self) -> Option<Arc<Window>> {
        self.window.lock().clone()
    }

    fn recv(&self) -> Result<Vec<u8>, TransportError> {
        self.ensure_handshaken()?;
        let mut dec = self.recv_state.lock();
        loop {
            if let Some(f) = dec.next_frame()? {
                return Ok(f.into_vec());
            }
            match self.read_into(&mut dec) {
                // EOF. Whether the peer exited cleanly or was SIGKILLed
                // mid-frame, the session's answer is the same: treat the
                // tenant as gone so its partition is reclaimed.
                Ok(0) => return Err(TransportError::Disconnected),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(io_err("recv", &e)),
            }
        }
    }

    fn send_batch(&self, frames: Vec<Vec<u8>>) -> Result<(), TransportError> {
        if frames.len() <= 1 {
            return match frames.into_iter().next() {
                Some(f) => self.send(f),
                None => Ok(()),
            };
        }
        self.ensure_handshaken()?;
        let mut body_len = 0u64;
        for f in &frames {
            if f.len() as u64 > MAX_FRAME as u64 {
                return Err(TransportError::FrameTooLarge {
                    len: f.len() as u64,
                    max: MAX_FRAME as u64,
                });
            }
            body_len += 4 + f.len() as u64;
        }
        let mut st = self.send_lock.lock();
        if body_len > MAX_FRAME as u64 {
            // Too big to coalesce: fall back to frame-by-frame sends
            // under one writer lock so the run stays contiguous. Each
            // frame still goes out as one vectored write.
            for f in &frames {
                st.prefixes.clear();
                st.prefixes
                    .extend_from_slice(&(f.len() as u32).to_le_bytes());
                self.send_vectored(&[&st.prefixes[..], f])?;
            }
            return Ok(());
        }
        // Lay every length word into the reusable scratch — outer batch
        // word first, then one sub-length per frame — and gather-write
        // the lot with the payloads in place: the whole batch is one
        // writev, zero payload copies, zero steady-state allocations.
        st.prefixes.clear();
        st.prefixes
            .extend_from_slice(&(body_len as u32 | BATCH_FLAG).to_le_bytes());
        for f in &frames {
            st.prefixes
                .extend_from_slice(&(f.len() as u32).to_le_bytes());
        }
        let mut parts: Vec<&[u8]> = Vec::with_capacity(1 + 2 * frames.len());
        // First part spans the outer word *and* the first sub-length —
        // they are contiguous in scratch.
        parts.push(&st.prefixes[0..8]);
        parts.push(&frames[0]);
        for (i, f) in frames.iter().enumerate().skip(1) {
            parts.push(&st.prefixes[4 + 4 * i..8 + 4 * i]);
            parts.push(f);
        }
        self.send_vectored(&parts)
    }

    fn try_recv(&self) -> Result<Option<FrameView>, TransportError> {
        self.ensure_handshaken()?;
        let mut dec = self.recv_state.lock();
        loop {
            if let Some(f) = dec.next_frame()? {
                return Ok(Some(f));
            }
            match self.read_into(&mut dec) {
                Ok(0) => return Err(TransportError::Disconnected),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(io_err("recv", &e)),
            }
        }
    }

    fn enter_event_mode(&self) -> bool {
        self.event_mode.store(true, Ordering::SeqCst);
        // If the handshake already ran (client halves), flip to
        // non-blocking now; otherwise `ensure_handshaken` does it.
        if self.window.lock().is_some() && self.stream.set_nonblocking(true).is_err() {
            return false;
        }
        true
    }

    fn event_fds(&self) -> Vec<i32> {
        vec![self.stream.as_raw_fd()]
    }

    fn peer_uid(&self) -> Option<u32> {
        self.peer_uid
    }
}

/// Server side: a bound Unix socket accepting framed connections.
pub struct UdsListener {
    listener: UnixListener,
    path: PathBuf,
    stop: Arc<AtomicBool>,
    policy: UidPolicy,
    /// Optional per-uid connect-rate gate, checked right after the
    /// credential policy — an over-rate peer is dropped before any
    /// protocol byte.
    admission: Option<Arc<crate::control::Admission>>,
}

impl UdsListener {
    /// Bind at `path`, replacing any stale socket file from a previous
    /// run. Returns the listener and an `unblock` closure that makes a
    /// blocked [`Listener::accept`] return `Disconnected` (used by the
    /// manager at shutdown — a kernel-blocked accept cannot be woken by
    /// dropping a dialer the way the in-process transport is).
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] when binding fails.
    pub fn bind(path: &Path) -> Result<(Self, super::UnblockFn), TransportError> {
        Self::bind_with_policy(path, UidPolicy::AllowAll)
    }

    /// [`UdsListener::bind`] with an `SO_PEERCRED` uid policy: peers the
    /// policy rejects are dropped at `accept`, before any protocol byte
    /// is read, and the accept loop moves on to the next connection.
    ///
    /// # Errors
    ///
    /// As [`UdsListener::bind`].
    pub fn bind_with_policy(
        path: &Path,
        policy: UidPolicy,
    ) -> Result<(Self, super::UnblockFn), TransportError> {
        Self::bind_gated(path, policy, None)
    }

    /// [`UdsListener::bind_with_policy`] with an optional per-uid
    /// connect-rate gate ([`Admission`](crate::control::Admission)):
    /// peers whose uid is over its token bucket are dropped at `accept`,
    /// so a reconnect storm cannot starve other tenants' connects.
    ///
    /// # Errors
    ///
    /// As [`UdsListener::bind`].
    pub fn bind_gated(
        path: &Path,
        policy: UidPolicy,
        admission: Option<Arc<crate::control::Admission>>,
    ) -> Result<(Self, super::UnblockFn), TransportError> {
        if path.exists() {
            std::fs::remove_file(path).map_err(|e| io_err("bind", &e))?;
        }
        let listener = UnixListener::bind(path).map_err(|e| io_err("bind", &e))?;
        let stop = Arc::new(AtomicBool::new(false));
        let unblock = {
            let stop = stop.clone();
            let path = path.to_path_buf();
            Box::new(move || {
                stop.store(true, Ordering::SeqCst);
                // Wake the kernel-blocked accept with a throwaway
                // connection; the listener sees the flag and bails.
                let _ = UnixStream::connect(&path);
            })
        };
        Ok((
            UdsListener {
                listener,
                path: path.to_path_buf(),
                stop,
                policy,
                admission,
            },
            unblock,
        ))
    }

    /// The socket path this listener serves.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Listener for UdsListener {
    fn accept(&self) -> Result<Box<dyn Connection>, TransportError> {
        loop {
            let (stream, _) = self.listener.accept().map_err(|e| io_err("accept", &e))?;
            if self.stop.load(Ordering::SeqCst) {
                return Err(TransportError::Disconnected);
            }
            // Credential gate first: a peer the uid policy rejects is
            // dropped (it observes EOF) and never reaches the protocol.
            if !self.policy.check(&stream) {
                drop(stream);
                continue;
            }
            let uid = super::peercred::peer_uid(&stream).ok();
            // Rate gate next: an over-rate uid is dropped just as a
            // policy-rejected one is, and the loop moves on.
            if let (Some(adm), Some(uid)) = (&self.admission, uid) {
                if !adm.admit(uid) {
                    drop(stream);
                    continue;
                }
            }
            // The preamble exchange is deferred to the connection's first
            // send/recv — i.e. its session thread — so a client that
            // connects and then stalls (or speaks garbage) costs the
            // accept loop nothing; its own session fails the handshake
            // and exits.
            return Ok(Box::new(UdsConnection::new(stream, None, uid)));
        }
    }
}

impl Drop for UdsListener {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Client side: dials framed connections to a [`UdsListener`].
pub struct UdsDialer {
    path: PathBuf,
}

impl UdsDialer {
    /// A dialer for the manager socket at `path`.
    pub fn new(path: impl AsRef<Path>) -> Self {
        UdsDialer {
            path: path.as_ref().to_path_buf(),
        }
    }
}

impl Dialer for UdsDialer {
    fn dial(&self) -> Result<Box<dyn Connection>, TransportError> {
        let stream = UnixStream::connect(&self.path).map_err(|e| io_err("dial", &e))?;
        // Clients handshake eagerly: the server side completes its half
        // as soon as the connection's session thread starts reading.
        let window = dial_handshake(&stream)?;
        Ok(Box::new(UdsConnection::new(stream, Some(window), None)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_sock(tag: &str) -> PathBuf {
        crate::fixtures::temp_socket_path(&format!("uds-test-{tag}"))
    }

    #[test]
    fn frames_round_trip_over_socket() {
        let path = temp_sock("rt");
        let (listener, _unblock) = UdsListener::bind(&path).unwrap();
        let dialer = UdsDialer::new(&path);
        let server_thread = std::thread::spawn(move || {
            let server = listener.accept().unwrap();
            let got = server.recv().unwrap();
            server.send(got.iter().rev().copied().collect()).unwrap();
            // Big frame forces multiple reads on the client side.
            server.send(vec![0x5A; 1 << 20]).unwrap();
            server
        });
        let client = dialer.dial().unwrap();
        client.send(vec![1, 2, 3]).unwrap();
        assert_eq!(client.recv().unwrap(), vec![3, 2, 1]);
        assert_eq!(client.recv().unwrap(), vec![0x5A; 1 << 20]);
        let server = server_thread.join().unwrap();
        // Both halves map the one window the server's preamble carried.
        client.window().unwrap().write(b"bulk");
        assert_eq!(server.window().unwrap().span(4).unwrap().as_ref(), b"bulk");
        drop(client);
        assert_eq!(server.recv(), Err(TransportError::Disconnected));
    }

    #[test]
    fn unblock_wakes_a_kernel_blocked_accept() {
        let path = temp_sock("eof");
        let (listener, unblock) = UdsListener::bind(&path).unwrap();
        let accept_thread = std::thread::spawn(move || (listener.accept().err(), listener));
        std::thread::sleep(Duration::from_millis(20));
        unblock();
        let (woken, listener) = accept_thread.join().unwrap();
        assert_eq!(woken, Some(TransportError::Disconnected));
        drop(listener); // removes the socket file
        assert!(!path.exists());
    }

    /// A client speaking the wrong framing version is rejected — by the
    /// accepted connection's own first recv (i.e. its session thread),
    /// not by the accept loop, which stays free for other clients.
    #[test]
    fn version_skew_fails_the_session_not_the_listener() {
        let path = temp_sock("ver");
        let (listener, _unblock) = UdsListener::bind(&path).unwrap();
        let session_thread = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            (conn.recv(), listener)
        });
        // Hand-rolled dial with a wrong version byte.
        let stream = UnixStream::connect(&path).unwrap();
        (&stream).write_all(&[b'G', b'R', b'D', 0x7F]).unwrap();
        // The server half still sends its (valid) preamble first.
        let mut got = [0u8; 4];
        (&stream).read_exact(&mut got).unwrap();
        assert!(frame::check_preamble(&got).is_ok());
        let (r, _listener) = session_thread.join().unwrap();
        assert_eq!(
            r,
            Err(TransportError::VersionMismatch {
                got: 0x7F,
                want: frame::TRANSPORT_VERSION
            })
        );
        // The rejected connection was dropped: we observe EOF.
        let mut probe = [0u8; 1];
        assert_eq!((&stream).read(&mut probe).unwrap(), 0);
    }

    /// A client that connects and then goes silent wedges only its own
    /// connection: the accept loop keeps serving, and a well-behaved
    /// client dialing *afterwards* completes immediately.
    #[test]
    fn stalled_client_does_not_block_the_accept_loop() {
        let path = temp_sock("stall");
        let (listener, _unblock) = UdsListener::bind(&path).unwrap();
        // The wedge: connect and send nothing, forever.
        let _stalled = UnixStream::connect(&path).unwrap();
        let server_thread = std::thread::spawn(move || {
            let first = listener.accept().unwrap(); // the stalled client
            let second = listener.accept().unwrap(); // the real one
            let got = second.recv().unwrap();
            (first, got)
        });
        let client = UdsDialer::new(&path).dial().unwrap();
        client.send(vec![42]).unwrap();
        let (_first, got) = server_thread.join().unwrap();
        assert_eq!(got, vec![42]);
    }

    /// A same-user `SO_PEERCRED` policy admits this process's own dials
    /// end-to-end; a deny-list policy drops the connection before the
    /// handshake (the dialer observes EOF → `Disconnected`) and leaves
    /// the accept loop alive for admitted peers.
    #[test]
    fn peercred_policy_gates_accept() {
        use super::super::peercred::{current_uid, UidPolicy};

        // Admitted: same-user policy, normal round trip.
        let path = temp_sock("cred-ok");
        let (listener, _unblock) =
            UdsListener::bind_with_policy(&path, UidPolicy::same_user()).unwrap();
        let server_thread = std::thread::spawn(move || {
            let server = listener.accept().unwrap();
            let got = server.recv().unwrap();
            server.send(got).unwrap();
        });
        let client = UdsDialer::new(&path).dial().unwrap();
        client.send(vec![9]).unwrap();
        assert_eq!(client.recv().unwrap(), vec![9]);
        server_thread.join().unwrap();

        // Rejected: an allowlist naming a different uid. The server
        // drops us pre-handshake; dialing fails as a disconnect. The
        // accept loop must keep running (it skips rejected peers), so
        // unblock() still wakes it cleanly.
        let path = temp_sock("cred-no");
        let (listener, unblock) = UdsListener::bind_with_policy(
            &path,
            UidPolicy::Allow(vec![current_uid().wrapping_add(1)]),
        )
        .unwrap();
        let accept_thread = std::thread::spawn(move || listener.accept().err());
        for _ in 0..3 {
            assert_eq!(
                UdsDialer::new(&path).dial().err(),
                Some(TransportError::Disconnected),
                "rejected peer should observe a disconnect"
            );
        }
        unblock();
        assert_eq!(
            accept_thread.join().unwrap(),
            Some(TransportError::Disconnected)
        );
    }

    /// A batch send arrives as the same sequence of individual frames —
    /// coalescing is invisible above the transport.
    #[test]
    fn batch_send_preserves_frame_boundaries() {
        let path = temp_sock("batch");
        let (listener, _unblock) = UdsListener::bind(&path).unwrap();
        let server_thread = std::thread::spawn(move || {
            let server = listener.accept().unwrap();
            let frames: Vec<Vec<u8>> = (0..4).map(|_| server.recv().unwrap()).collect();
            server
                .send_batch(vec![vec![10], vec![], vec![20, 21]])
                .unwrap();
            frames
        });
        let client = UdsDialer::new(&path).dial().unwrap();
        client
            .send_batch(vec![vec![1], vec![2, 2], vec![], vec![3; 300]])
            .unwrap();
        assert_eq!(client.recv().unwrap(), vec![10]);
        assert_eq!(client.recv().unwrap(), Vec::<u8>::new());
        assert_eq!(client.recv().unwrap(), vec![20, 21]);
        let got = server_thread.join().unwrap();
        assert_eq!(got, vec![vec![1], vec![2, 2], vec![], vec![3; 300]]);
    }

    /// Event mode: try_recv yields Ok(None) while the socket is idle and
    /// the queued frames once bytes arrive — the executor's contract.
    #[test]
    fn event_mode_try_recv_is_nonblocking() {
        let path = temp_sock("event");
        let (listener, _unblock) = UdsListener::bind(&path).unwrap();
        let client = std::thread::spawn({
            let path = path.clone();
            move || UdsDialer::new(&path).dial().unwrap()
        });
        let server = listener.accept().unwrap();
        assert!(server.enter_event_mode());
        assert_eq!(server.event_fds().len(), 1);
        // First try_recv performs the deferred handshake (unblocking the
        // client's eager dial), then sees an empty socket.
        assert_eq!(server.try_recv().unwrap(), None);
        let client = client.join().unwrap();
        client.send_batch(vec![vec![7], vec![8, 9]]).unwrap();
        // Poll until the kernel delivers the bytes.
        let mut got = Vec::new();
        for _ in 0..500 {
            match server.try_recv().unwrap() {
                Some(f) => {
                    got.push(f);
                    if got.len() == 2 {
                        break;
                    }
                }
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        assert_eq!(got, vec![vec![7], vec![8, 9]]);
        // Peer death surfaces as Disconnected from try_recv.
        drop(client);
        let mut end = None;
        for _ in 0..500 {
            match server.try_recv() {
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                other => {
                    end = Some(other);
                    break;
                }
            }
        }
        assert_eq!(end, Some(Err(TransportError::Disconnected)));
    }

    /// A frame longer than one read arrives as one frame, through the
    /// in-place receive path, on both the blocking and the event-mode
    /// receiver; a frame over the limit fails at the sender.
    #[test]
    fn large_frame_arrives_as_one_frame() {
        let path = temp_sock("large");
        let (listener, _unblock) = UdsListener::bind(&path).unwrap();
        let expect: Vec<u8> = (0..3 * READ_SIZE as u32 + 9).map(|i| i as u8).collect();
        let server_thread = {
            let expect = expect.clone();
            std::thread::spawn(move || {
                let server = listener.accept().unwrap();
                assert_eq!(server.recv().unwrap(), expect);
                assert!(server.enter_event_mode());
                loop {
                    match server.try_recv().unwrap() {
                        Some(f) => break assert_eq!(f, expect),
                        None => {
                            sys::poll_fds(&[(server.event_fds()[0], sys::POLLIN)], 1000);
                        }
                    }
                }
            })
        };
        let client = UdsDialer::new(&path).dial().unwrap();
        client.send(expect.clone()).unwrap();
        client.send(expect).unwrap();
        server_thread.join().unwrap();
        assert!(matches!(
            client.send(vec![0; MAX_FRAME as usize + 1]),
            Err(TransportError::FrameTooLarge { .. })
        ));
    }

    /// A peer that claims a maximal frame, trickles a few bytes and
    /// hangs up is a disconnect mid-frame — not a frame, not a hang.
    #[test]
    fn claimed_max_frame_then_trickle_then_eof_is_disconnected() {
        let path = temp_sock("trickle");
        let (listener, _unblock) = UdsListener::bind(&path).unwrap();
        let server_thread = std::thread::spawn(move || listener.accept().unwrap().recv());
        let stream = UnixStream::connect(&path).unwrap();
        let mut got = [0u8; 4];
        (&stream).write_all(&PREAMBLE).unwrap();
        (&stream).read_exact(&mut got).unwrap();
        (&stream).write_all(&MAX_FRAME.to_le_bytes()).unwrap();
        for _ in 0..3 {
            (&stream).write_all(&[0xAA; 7]).unwrap();
        }
        drop(stream);
        assert_eq!(
            server_thread.join().unwrap(),
            Err(TransportError::Disconnected)
        );
    }

    #[test]
    fn dial_to_missing_socket_is_io_error() {
        let dialer = UdsDialer::new("/nonexistent/grd.sock");
        assert!(matches!(
            dialer.dial(),
            Err(TransportError::Io { op: "dial", .. })
        ));
    }
}
