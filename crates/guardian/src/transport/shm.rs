//! Shared-memory ring transport: syscall-free frame exchange between
//! processes.
//!
//! Each connection is a memfd holding one fixed-capacity SPSC byte ring
//! per direction. Head and tail are monotonically increasing 64-bit byte
//! counters in dedicated cache lines; the producer publishes a frame
//! (4-byte length + payload, wrapping at byte granularity) with a single
//! release store of the tail, the consumer retires it with a release
//! store of the head. A send on the hot path is therefore two bounded
//! `memcpy`s and one atomic store — no syscall, no lock shared with the
//! peer — which is what makes this the transport of choice for the
//! high-rate one-way deferred-launch path.
//!
//! A Unix domain socket carries the handshake. The dialer sends the
//! preamble and the ring capacity it wants; the listener validates it,
//! creates the ring and the connection's [`Window`] as two sealed memfds
//! (neither can shrink or grow, and their seals are final), maps both,
//! and answers with a ready byte carrying both descriptors
//! (`SCM_RIGHTS`). Each side closes the descriptors once mapped. The
//! daemon never opens a path a tenant names or maps a file a tenant
//! made, so no tenant can truncate memory the daemon reads, and a ring
//! serves only the connection it was made for.
//!
//! The socket then serves as the **liveness and wake channel**. Socket
//! EOF means the peer is gone — including by `SIGKILL`, where the kernel
//! closes the socket for the corpse. The receiver drains frames still in
//! the ring before reporting [`TransportError::Disconnected`] (tail is
//! published only after a frame is fully written, so everything up to
//! tail is intact even after a mid-storm kill).
//!
//! **Parking.** A waiter — consumer out of frames, or producer out of
//! ring space — publishes a *parked* flag in the ring header, re-checks
//! the counters (Dekker style, with seq-cst fences on both sides), and
//! then sleeps in `poll(2)` on its end of the socket. The peer, after
//! publishing, wakes a parked side with one byte on its own end, sent
//! with `MSG_DONTWAIT`; the sleeper drains wake bytes with
//! `MSG_DONTWAIT`. The hot path stays syscall-free, a parked side wakes
//! at once on new data, new space or peer death, and — the flags being
//! per call — nothing a peer does to its flag, its end of the socket or
//! its reading can make the other side block on a wake.

use super::frame::{self, BufPool, FrameView, BATCH_FLAG, PREAMBLE};
use super::peercred::UidPolicy;
use super::sys::{self, SharedMap};
use super::{Connection, Dialer, Listener, TransportError, Window};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default per-direction ring capacity (1 MiB: thousands of launch
/// frames in flight before the producer ever waits).
pub const DEFAULT_RING_CAPACITY: u32 = 1 << 20;

/// Bounds on the capacity a dialer may request (validated by the
/// listener before it creates the ring).
const MIN_CAPACITY: u32 = 4096;
const MAX_CAPACITY: u32 = 1 << 30;

// ---- fixed ring layout -----------------------------------------------------
// Heads and tails live 64 bytes apart so the producer's tail line and the
// consumer's head line never false-share.

const OFF_C2S_TAIL: usize = 64;
const OFF_C2S_HEAD: usize = 128;
const OFF_S2C_TAIL: usize = 192;
const OFF_S2C_HEAD: usize = 256;
/// Parked flags (u32, 0|1): set by a side before it sleeps in `poll` on
/// its socket, checked by the peer after publishing — the peer only
/// pays the wake syscall when someone is actually asleep.
const OFF_CLIENT_PARKED: usize = 320;
const OFF_SERVER_PARKED: usize = 384;
const OFF_DATA: usize = 4096;

fn file_len(capacity: u32) -> u64 {
    OFF_DATA as u64 + 2 * capacity as u64
}

const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

fn io_err(op: &'static str, e: &std::io::Error) -> TransportError {
    TransportError::from_io(op, e)
}

/// One direction of the ring: where its data lives and which counters
/// belong to it. `head`/`tail` are byte offsets into the header area.
#[derive(Clone, Copy)]
struct RingRef {
    data: usize,
    cap: u64,
    head: usize,
    tail: usize,
}

/// Copy `bytes` into the ring at logical position `pos`, wrapping.
fn ring_write(map: &SharedMap, r: RingRef, pos: u64, bytes: &[u8]) {
    let idx = (pos & (r.cap - 1)) as usize;
    let first = bytes.len().min(r.cap as usize - idx);
    // SAFETY: `r.data + r.cap` lies inside the mapping (the ring's
    // length is derived from the capacity), `idx < cap`, and the caller
    // bounds `bytes.len()` by the capacity; the producer owns these
    // slots until it publishes the tail.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), map.ptr().add(r.data + idx), first);
        if first < bytes.len() {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr().add(first),
                map.ptr().add(r.data),
                bytes.len() - first,
            );
        }
    }
}

/// Copy from the ring at logical position `pos` into `out`, wrapping.
fn ring_read(map: &SharedMap, r: RingRef, pos: u64, out: &mut [u8]) {
    let idx = (pos & (r.cap - 1)) as usize;
    let first = out.len().min(r.cap as usize - idx);
    // SAFETY: as in `ring_write`, with the caller bounding `out.len()`
    // by the published bytes; the consumer owns these slots until it
    // retires the head.
    unsafe {
        std::ptr::copy_nonoverlapping(map.ptr().add(r.data + idx), out.as_mut_ptr(), first);
        if first < out.len() {
            std::ptr::copy_nonoverlapping(
                map.ptr().add(r.data),
                out.as_mut_ptr().add(first),
                out.len() - first,
            );
        }
    }
}

// ---- parking ---------------------------------------------------------------

/// Iterations of `spin_loop`/`yield_now` before a waiter parks for real.
/// Short: a socket wake costs ~a microsecond, so burning long spin
/// phases per idle tenant is exactly what this transport no longer does.
const SPIN_ITERS: u32 = 128;
const YIELD_ITERS: u32 = 32;

/// Safety-net timeout for a park. The Dekker protocol makes a lost
/// wakeup impossible in theory; the bound makes a latent bug cost
/// 100 ms instead of a hang (and re-checks liveness on the way out).
const PARK_TIMEOUT_MS: i32 = 100;

// ---- connection ------------------------------------------------------------

/// Which half of the ring this endpoint is.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Client,
    Server,
}

/// One shared-memory connection endpoint.
pub struct ShmConnection {
    map: SharedMap,
    sock: UnixStream,
    send_ring: RingRef,
    recv_ring: RingRef,
    /// Serializes local senders (the ring is SPSC per direction; the
    /// lock makes one endpoint's concurrent callers look like the single
    /// producer the ring requires).
    send_lock: Mutex<()>,
    /// Serializes local receivers; also queues the tail of a decoded
    /// batch frame so every `recv`/`try_recv` returns one payload.
    recv_lock: Mutex<VecDeque<FrameView>>,
    /// Recycles the receive-copy buffers frames are lifted into off the
    /// ring, so a steady-state receiver allocates nothing per frame.
    recv_pool: Arc<BufPool>,
    /// Header offset of *our* parked flag (set before we sleep).
    my_parked: usize,
    /// Header offset of the *peer's* parked flag (checked after we
    /// publish).
    peer_parked: usize,
    /// The connection's transfer window.
    window: Arc<Window>,
}

impl ShmConnection {
    fn new(map: SharedMap, sock: UnixStream, capacity: u32, side: Side, window: Window) -> Self {
        let cap = capacity as u64;
        let c2s = RingRef {
            data: OFF_DATA,
            cap,
            head: OFF_C2S_HEAD,
            tail: OFF_C2S_TAIL,
        };
        let s2c = RingRef {
            data: OFF_DATA + capacity as usize,
            cap,
            head: OFF_S2C_HEAD,
            tail: OFF_S2C_TAIL,
        };
        let (send_ring, recv_ring, my_parked, peer_parked) = match side {
            Side::Client => (c2s, s2c, OFF_CLIENT_PARKED, OFF_SERVER_PARKED),
            Side::Server => (s2c, c2s, OFF_SERVER_PARKED, OFF_CLIENT_PARKED),
        };
        ShmConnection {
            map,
            sock,
            send_ring,
            recv_ring,
            send_lock: Mutex::new(()),
            recv_lock: Mutex::new(VecDeque::new()),
            recv_pool: BufPool::new(),
            my_parked,
            peer_parked,
            window: Arc::new(window),
        }
    }

    /// A client endpoint over the daemon's `ring` and `window` memfds,
    /// from a completed hello on `sock`.
    fn client(
        sock: UnixStream,
        ring: &File,
        window: &File,
        capacity: u32,
    ) -> Result<Self, TransportError> {
        let hs = |e: std::io::Error| io_err("handshake", &e);
        let map = SharedMap::new(ring, file_len(capacity) as usize).map_err(hs)?;
        let window = Window::open(window).map_err(hs)?;
        Ok(ShmConnection::new(
            map,
            sock,
            capacity,
            Side::Client,
            window,
        ))
    }

    /// After publishing (tail advance) or retiring (head advance): wake
    /// the peer iff it declared itself parked. The seq-cst fence pairs
    /// with the one in [`ShmConnection::park`] — either we see their
    /// parked flag, or they see our counter update.
    fn wake_peer_if_parked(&self) {
        fence(Ordering::SeqCst);
        if self.map.atomic_u32(self.peer_parked).load(Ordering::SeqCst) == 1 {
            sys::wake(self.sock.as_raw_fd());
        }
    }

    /// Park until a wake byte arrives, the peer dies, or `ready()` turns
    /// true. Returns `Err(Disconnected)` only on peer death with
    /// `ready()` still false (so a receiver drains the ring first).
    ///
    /// One endpoint can have a sender (out of space) and a receiver (out
    /// of frames) parked at once on one socket; a wake meant for one may
    /// be consumed by the other. The bounded park makes that a latency
    /// blip, not a hang.
    fn park(&self, ready: impl Fn() -> bool) -> Result<(), TransportError> {
        let sock = self.sock.as_raw_fd();
        // Stale wake bytes would end the poll at once: drain them before
        // declaring ourselves parked, so a wake sent after the flag is
        // never consumed before the poll sees it.
        if sys::drain_wakes(sock) && !ready() {
            return Err(TransportError::Disconnected);
        }
        let parked = self.map.atomic_u32(self.my_parked);
        parked.store(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if ready() {
            parked.store(0, Ordering::SeqCst);
            return Ok(());
        }
        sys::poll_fds(&[(sock, sys::POLLIN)], PARK_TIMEOUT_MS);
        parked.store(0, Ordering::SeqCst);
        if sys::drain_wakes(sock) && !ready() {
            return Err(TransportError::Disconnected);
        }
        Ok(())
    }

    /// Spin briefly, then park until `ready()`. The caller re-derives
    /// whatever state it needs after this returns.
    fn wait_until(&self, ready: impl Fn() -> bool) -> Result<(), TransportError> {
        loop {
            for _ in 0..SPIN_ITERS {
                if ready() {
                    return Ok(());
                }
                std::hint::spin_loop();
            }
            for _ in 0..YIELD_ITERS {
                if ready() {
                    return Ok(());
                }
                std::thread::yield_now();
            }
            self.park(&ready)?;
            if ready() {
                return Ok(());
            }
        }
    }

    /// Sole producer (send lock held): write `word` (length prefix,
    /// possibly batch-flagged) + `body`, waiting for ring space.
    fn raw_send(&self, word: u32, body: &[u8]) -> Result<(), TransportError> {
        let r = self.send_ring;
        let need = body.len() as u64 + 4;
        debug_assert!(need <= r.cap, "caller checks capacity");
        let tail_a = self.map.atomic_u64(r.tail);
        let head_a = self.map.atomic_u64(r.head);
        // Sole producer under the lock: our own tail is stable.
        let tail = tail_a.load(Ordering::Relaxed);
        let hostile = std::cell::Cell::new(false);
        self.wait_until(|| {
            // The consumer's head counter lives in memory the peer can
            // scribble on; treat it as untrusted input, exactly like the
            // recv path treats the producer's counters. A head "ahead"
            // of our tail can only mean a hostile or corrupted peer.
            let head = head_a.load(Ordering::Acquire);
            let used = tail.wrapping_sub(head);
            if used > r.cap {
                hostile.set(true);
                return true;
            }
            r.cap - used >= need
        })?;
        if hostile.get() {
            let head = head_a.load(Ordering::Acquire);
            return Err(TransportError::Io {
                op: "send",
                kind: std::io::ErrorKind::InvalidData,
                detail: format!("ring consumer head {head} ahead of producer tail {tail}"),
            });
        }
        ring_write(&self.map, r, tail, &word.to_le_bytes());
        ring_write(&self.map, r, tail + 4, body);
        // Publish: the consumer's acquire load of tail sees the frame
        // bytes fully written.
        tail_a.store(tail + need, Ordering::Release);
        self.wake_peer_if_parked();
        Ok(())
    }

    /// With the recv lock held and the ring non-empty at `(head, tail)`:
    /// consume one wire frame, pushing its payload(s) onto `pending`
    /// (one for a plain frame, each sub-frame for a batch).
    fn consume_wire_frame(
        &self,
        pending: &mut VecDeque<FrameView>,
        head: u64,
        tail: u64,
    ) -> Result<(), TransportError> {
        let r = self.recv_ring;
        // The producer's tail is peer-writable memory: untrusted. A tail
        // "behind" our head (published > cap after wrapping) means a
        // hostile or corrupted producer.
        let published = tail.wrapping_sub(head);
        let mut len_bytes = [0u8; 4];
        ring_read(&self.map, r, head, &mut len_bytes);
        let word = u32::from_le_bytes(len_bytes);
        let len = (word & !BATCH_FLAG) as u64;
        if published > r.cap || len + 4 > published {
            // Only a corrupted (or hostile) producer can publish a length
            // beyond its own published bytes; don't trust the stream.
            return Err(TransportError::Io {
                op: "recv",
                kind: std::io::ErrorKind::InvalidData,
                detail: format!("ring frame length {len} exceeds published bytes"),
            });
        }
        // Lift the payload off the ring into a pooled buffer: the one
        // unavoidable copy (ring slots recycle under the producer), but
        // the buffer itself is reused across frames.
        let mut payload = self.recv_pool.take();
        payload.resize(len as usize, 0);
        ring_read(&self.map, r, head + 4, &mut payload);
        self.map
            .atomic_u64(r.head)
            .store(head + 4 + len, Ordering::Release);
        // A producer parked on backpressure wants to know space opened.
        self.wake_peer_if_parked();
        let view = FrameView::pooled(payload, &self.recv_pool);
        if word & BATCH_FLAG == 0 {
            pending.push_back(view);
        } else {
            // Sub-frames are bounded by the batch body, which the check
            // above already bounded by the ring capacity. Each sub-frame
            // is a zero-copy sub-view of the shared body block.
            frame::split_batch_views(&view, r.cap.min(u32::MAX as u64) as u32, pending)?;
        }
        Ok(())
    }
}

impl Connection for ShmConnection {
    fn send(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        // A frame and its length word must fit the ring at once.
        let (len, max) = (frame.len() as u64, self.send_ring.cap - 4);
        if len > max {
            return Err(TransportError::FrameTooLarge { len, max });
        }
        let _guard = self.send_lock.lock();
        self.raw_send(len as u32, &frame)
    }

    fn window(&self) -> Option<Arc<Window>> {
        Some(self.window.clone())
    }

    fn recv(&self) -> Result<Vec<u8>, TransportError> {
        let r = self.recv_ring;
        let mut pending = self.recv_lock.lock();
        loop {
            if let Some(f) = pending.pop_front() {
                return Ok(f.into_vec());
            }
            let tail_a = self.map.atomic_u64(r.tail);
            let head_a = self.map.atomic_u64(r.head);
            let head = head_a.load(Ordering::Relaxed);
            // Ring drained: only a dead peer may end the stream — frames
            // written before the peer died are still delivered.
            self.wait_until(|| tail_a.load(Ordering::Acquire) != head)?;
            let tail = tail_a.load(Ordering::Acquire);
            self.consume_wire_frame(&mut pending, head, tail)?;
        }
    }

    fn send_batch(&self, frames: Vec<Vec<u8>>) -> Result<(), TransportError> {
        if frames.len() <= 1 {
            return match frames.into_iter().next() {
                Some(f) => self.send(f),
                None => Ok(()),
            };
        }
        let r = self.send_ring;
        let body = frame::batch_body(&frames);
        if body.len() as u64 + 4 > r.cap {
            // Run too large for one publish: send frame-by-frame under
            // one producer lock so the run stays contiguous.
            let _guard = self.send_lock.lock();
            for f in frames {
                let need = f.len() as u64 + 4;
                if need > r.cap {
                    return Err(TransportError::FrameTooLarge {
                        len: f.len() as u64,
                        max: r.cap - 4,
                    });
                }
                self.raw_send(f.len() as u32, &f)?;
            }
            return Ok(());
        }
        let _guard = self.send_lock.lock();
        self.raw_send(body.len() as u32 | BATCH_FLAG, &body)
    }

    fn try_recv(&self) -> Result<Option<FrameView>, TransportError> {
        let r = self.recv_ring;
        let mut pending = self.recv_lock.lock();
        // Reset park state from a previous None: clear the flag so
        // producers go back to syscall-free publishes, and consume the
        // wake bytes that made the socket readable (EOF stays readable,
        // so a dead peer is still seen once the ring is drained).
        self.map
            .atomic_u32(self.my_parked)
            .store(0, Ordering::SeqCst);
        let gone = sys::drain_wakes(self.sock.as_raw_fd());
        loop {
            if let Some(f) = pending.pop_front() {
                return Ok(Some(f));
            }
            let tail_a = self.map.atomic_u64(r.tail);
            let head_a = self.map.atomic_u64(r.head);
            let head = head_a.load(Ordering::Relaxed);
            let tail = tail_a.load(Ordering::Acquire);
            if tail != head {
                self.consume_wire_frame(&mut pending, head, tail)?;
                continue;
            }
            // Empty. Declare ourselves parked *before* the final check —
            // the Dekker handshake with the producer's publish path —
            // so the executor's next poll cannot miss a frame published
            // in between.
            self.map
                .atomic_u32(self.my_parked)
                .store(1, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if tail_a.load(Ordering::SeqCst) != head {
                self.map
                    .atomic_u32(self.my_parked)
                    .store(0, Ordering::SeqCst);
                continue;
            }
            if gone {
                return Err(TransportError::Disconnected);
            }
            return Ok(None);
        }
    }

    fn enter_event_mode(&self) -> bool {
        true
    }

    fn event_fds(&self) -> Vec<i32> {
        vec![self.sock.as_raw_fd()]
    }
}

// ---- handshake -------------------------------------------------------------

/// Client half of the handshake: ask for rings of `capacity` bytes per
/// direction and collect the listener's answer — the ready byte with the
/// ring and window memfds attached. Returns the socket (non-blocking
/// from here on) and both descriptors, unmapped.
fn hello(path: &Path, capacity: u32) -> Result<(UnixStream, File, File), TransportError> {
    let hs = |e: std::io::Error| io_err("handshake", &e);
    let sock = UnixStream::connect(path).map_err(|e| io_err("dial", &e))?;
    sock.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).map_err(hs)?;
    let mut msg = [0u8; 8];
    msg[..4].copy_from_slice(&PREAMBLE);
    msg[4..].copy_from_slice(&capacity.to_le_bytes());
    (&sock).write_all(&msg).map_err(hs)?;
    let mut ready = [0u8; 1];
    let fds = sys::recv_exact_with_fds(sock.as_raw_fd(), &mut ready, 2).map_err(hs)?;
    let Ok([ring, window]) = <[_; 2]>::try_from(fds) else {
        return Err(TransportError::Io {
            op: "handshake",
            kind: std::io::ErrorKind::InvalidData,
            detail: format!("listener refused the hello (ready byte {})", ready[0]),
        });
    };
    sock.set_nonblocking(true).map_err(hs)?;
    Ok((sock, File::from(ring), File::from(window)))
}

/// Server half: read and validate the hello, create and map the ring
/// and the window, and answer with the ready byte carrying both. Runs on
/// the accepted connection's own session thread (see
/// [`PendingShmConnection`]), never on the accept loop.
fn complete_server_handshake(sock: UnixStream) -> Result<ShmConnection, TransportError> {
    let hs = |e: std::io::Error| io_err("handshake", &e);
    sock.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).map_err(hs)?;
    // Plain reads: descriptors a client attaches to its hello are
    // discarded by the kernel, never installed here.
    let mut hello = [0u8; 8];
    (&sock).read_exact(&mut hello).map_err(hs)?;
    let (preamble, cap) = hello.split_at(4);
    frame::check_preamble(preamble.try_into().expect("4-byte split"))?;
    let capacity = u32::from_le_bytes(cap.try_into().expect("4-byte split"));
    if !capacity.is_power_of_two() || !(MIN_CAPACITY..=MAX_CAPACITY).contains(&capacity) {
        return Err(TransportError::Io {
            op: "handshake",
            kind: std::io::ErrorKind::InvalidData,
            detail: format!("ring capacity {capacity} invalid"),
        });
    }
    let ring = sys::sealed_memfd(c"grd-ring", file_len(capacity)).map_err(hs)?;
    let map = SharedMap::new(&ring, file_len(capacity) as usize).map_err(hs)?;
    let (window, window_fd) = Window::create().map_err(hs)?;
    let sent = sys::send_with_fds(
        sock.as_raw_fd(),
        &[1],
        &[ring.as_raw_fd(), window_fd.as_raw_fd()],
    )
    .map_err(hs)?;
    if sent != 1 {
        return Err(TransportError::Io {
            op: "handshake",
            kind: std::io::ErrorKind::WriteZero,
            detail: "ready byte not sent".into(),
        });
    }
    sock.set_nonblocking(true).map_err(hs)?;
    Ok(ShmConnection::new(
        map,
        sock,
        capacity,
        Side::Server,
        window,
    ))
}

// ---- listener / dialer -----------------------------------------------------

/// Server side: accepts shared-memory connections handshaken over a Unix
/// socket at a well-known path.
pub struct ShmListener {
    listener: UnixListener,
    path: PathBuf,
    stop: Arc<AtomicBool>,
    policy: UidPolicy,
    /// Optional per-uid connect-rate gate on the handshake socket.
    admission: Option<Arc<crate::control::Admission>>,
}

impl ShmListener {
    /// Bind the handshake socket at `path` (replacing any stale file).
    /// Returns the listener and an `unblock` closure for shutdown, as
    /// [`UdsListener::bind`](super::uds::UdsListener::bind) does.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] when binding fails.
    pub fn bind(path: &Path) -> Result<(Self, super::UnblockFn), TransportError> {
        Self::bind_with_policy(path, UidPolicy::AllowAll)
    }

    /// [`ShmListener::bind`] with an `SO_PEERCRED` uid policy on the
    /// handshake socket — a ring is only ever made for peers the policy
    /// admits.
    ///
    /// # Errors
    ///
    /// As [`ShmListener::bind`].
    pub fn bind_with_policy(
        path: &Path,
        policy: UidPolicy,
    ) -> Result<(Self, super::UnblockFn), TransportError> {
        Self::bind_gated(path, policy, None)
    }

    /// [`ShmListener::bind_with_policy`] with an optional per-uid
    /// connect-rate gate ([`Admission`](crate::control::Admission)) on
    /// the handshake socket: over-rate peers are dropped before their
    /// hello is read (no ring is ever made for them).
    ///
    /// # Errors
    ///
    /// As [`ShmListener::bind`].
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
                let _ = UnixStream::connect(&path);
            })
        };
        Ok((
            ShmListener {
                listener,
                path: path.to_path_buf(),
                stop,
                policy,
                admission,
            },
            unblock,
        ))
    }
}

/// A freshly accepted server half whose hello has not been read yet.
/// The handshake runs on the first send/recv — in the manager, that is
/// the connection's own session thread — so a client that connects and
/// stalls wedges only itself, never the accept loop.
struct PendingShmConnection {
    state: Mutex<ShmServerState>,
    /// `SO_PEERCRED` uid captured from the handshake socket at accept.
    peer_uid: Option<u32>,
}

enum ShmServerState {
    Pending(UnixStream),
    Ready(ShmConnection),
    /// Handshake failed; every subsequent op repeats the refusal.
    Failed,
}

impl PendingShmConnection {
    /// Run the handshake if it hasn't happened, then apply `f` to the
    /// live connection. The state lock is held across `f`; server-side
    /// connections are driven by a single session thread, so this
    /// serializes nothing that was concurrent before.
    fn with_ready<R>(
        &self,
        f: impl FnOnce(&ShmConnection) -> Result<R, TransportError>,
    ) -> Result<R, TransportError> {
        let mut state = self.state.lock();
        if matches!(*state, ShmServerState::Pending(_)) {
            // A failed handshake leaves `Failed` behind, and the dropped
            // socket tells the client.
            let ShmServerState::Pending(sock) =
                std::mem::replace(&mut *state, ShmServerState::Failed)
            else {
                unreachable!("state checked above");
            };
            *state = ShmServerState::Ready(complete_server_handshake(sock)?);
        }
        match &*state {
            ShmServerState::Ready(conn) => f(conn),
            ShmServerState::Failed => Err(TransportError::Disconnected),
            ShmServerState::Pending(_) => unreachable!("handshake just ran"),
        }
    }
}

impl Connection for PendingShmConnection {
    fn send(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.with_ready(|c| c.send(frame))
    }

    fn recv(&self) -> Result<Vec<u8>, TransportError> {
        self.with_ready(|c| c.recv())
    }

    fn send_batch(&self, frames: Vec<Vec<u8>>) -> Result<(), TransportError> {
        self.with_ready(|c| c.send_batch(frames))
    }

    fn window(&self) -> Option<Arc<Window>> {
        match &*self.state.lock() {
            ShmServerState::Ready(c) => c.window(),
            _ => None,
        }
    }

    fn try_recv(&self) -> Result<Option<FrameView>, TransportError> {
        // The first call runs the deferred handshake (bounded by
        // HANDSHAKE_TIMEOUT) on the executor worker that saw the hello
        // bytes arrive.
        self.with_ready(|c| c.try_recv())
    }

    fn enter_event_mode(&self) -> bool {
        // Adoptable: before the handshake the hello's arrival makes the
        // socket readable, and after it wake bytes and EOF do.
        true
    }

    fn event_fds(&self) -> Vec<i32> {
        match &*self.state.lock() {
            ShmServerState::Pending(sock) => vec![sock.as_raw_fd()],
            ShmServerState::Ready(c) => c.event_fds(),
            ShmServerState::Failed => Vec::new(),
        }
    }

    fn peer_uid(&self) -> Option<u32> {
        self.peer_uid
    }
}

impl Listener for ShmListener {
    fn accept(&self) -> Result<Box<dyn Connection>, TransportError> {
        loop {
            let (sock, _) = self.listener.accept().map_err(|e| io_err("accept", &e))?;
            if self.stop.load(Ordering::SeqCst) {
                return Err(TransportError::Disconnected);
            }
            // Credential gate: a peer the uid policy rejects is dropped
            // before the hello — no ring is ever made for it.
            if !self.policy.check(&sock) {
                drop(sock);
                continue;
            }
            let uid = super::peercred::peer_uid(&sock).ok();
            // Rate gate next: an over-rate uid is dropped before its
            // hello is read, and the loop moves on.
            if let (Some(adm), Some(uid)) = (&self.admission, uid) {
                if !adm.admit(uid) {
                    drop(sock);
                    continue;
                }
            }
            // The hello is deferred to the connection's first send/recv
            // (its session thread), keeping the accept loop un-wedgeable.
            return Ok(Box::new(PendingShmConnection {
                state: Mutex::new(ShmServerState::Pending(sock)),
                peer_uid: uid,
            }));
        }
    }
}

impl Drop for ShmListener {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Client side: asks the listener for a ring per connection over the
/// handshake socket.
pub struct ShmDialer {
    path: PathBuf,
    capacity: u32,
}

impl ShmDialer {
    /// A dialer for the handshake socket at `path` with the default ring
    /// capacity.
    pub fn new(path: impl AsRef<Path>) -> Self {
        Self::with_capacity(path, DEFAULT_RING_CAPACITY)
    }

    /// A dialer asking for rings of `capacity` bytes per direction
    /// (power of two, 4 KiB – 1 GiB).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range capacity — a build-time configuration
    /// error, not a runtime condition.
    pub fn with_capacity(path: impl AsRef<Path>, capacity: u32) -> Self {
        assert!(
            capacity.is_power_of_two() && (MIN_CAPACITY..=MAX_CAPACITY).contains(&capacity),
            "ring capacity {capacity} must be a power of two in [{MIN_CAPACITY}, {MAX_CAPACITY}]"
        );
        ShmDialer {
            path: path.as_ref().to_path_buf(),
            capacity,
        }
    }
}

impl Dialer for ShmDialer {
    fn dial(&self) -> Result<Box<dyn Connection>, TransportError> {
        let (sock, ring, window) = hello(&self.path, self.capacity)?;
        // The mappings are all this side keeps: the descriptors close
        // here.
        let conn = ShmConnection::client(sock, &ring, &window, self.capacity)?;
        Ok(Box::new(conn))
    }
}

/// A shm client that keeps the daemon's ring and window descriptors
/// after mapping them and can hold its parked flag up: the tenant that
/// hostile-client tests play. Test support; frames travel through a
/// real client endpoint.
pub struct RawShmClient {
    conn: ShmConnection,
    ring: File,
    window: File,
}

impl RawShmClient {
    /// Complete the hello at `path` for a ring of `capacity` bytes.
    ///
    /// # Errors
    ///
    /// As [`ShmDialer::dial`].
    pub fn dial(path: impl AsRef<Path>, capacity: u32) -> Result<Self, TransportError> {
        let (sock, ring, window) = hello(path.as_ref(), capacity)?;
        let conn = ShmConnection::client(sock, &ring, &window, capacity)?;
        Ok(RawShmClient { conn, ring, window })
    }

    /// The ring memfd the daemon sent.
    pub fn ring(&self) -> &File {
        &self.ring
    }

    /// The window memfd the daemon sent.
    pub fn window(&self) -> &File {
        &self.window
    }

    /// Declare this side parked — it never clears the flag itself — so
    /// the daemon sends a wake after every frame it consumes.
    pub fn hold_parked(&self) {
        self.conn
            .map
            .atomic_u32(self.conn.my_parked)
            .store(1, Ordering::SeqCst);
    }

    /// The client endpoint, for sending and receiving frames.
    pub fn conn(&self) -> &dyn Connection {
        &self.conn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn temp_sock(tag: &str) -> PathBuf {
        crate::fixtures::temp_socket_path(&format!("shm-test-{tag}"))
    }

    #[test]
    fn frames_round_trip_through_the_ring() {
        let path = temp_sock("rt");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let dialer = ShmDialer::with_capacity(&path, 4096);
        let server_thread = std::thread::spawn(move || {
            let server = listener.accept().unwrap();
            for _ in 0..3 {
                let f = server.recv().unwrap();
                server.send(f.iter().rev().copied().collect()).unwrap();
            }
            server
        });
        let client = dialer.dial().unwrap();
        for len in [0usize, 5, 1000] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            client.send(payload.clone()).unwrap();
            let mut expect = payload;
            expect.reverse();
            assert_eq!(client.recv().unwrap(), expect);
        }
        drop(client);
        let server = server_thread.join().unwrap();
        assert_eq!(server.recv(), Err(TransportError::Disconnected));
    }

    #[test]
    fn wraparound_and_backpressure() {
        // Ring holds 4096 bytes/direction; push far more than a ring's
        // worth of frames with a slow consumer so the producer both wraps
        // and waits.
        let path = temp_sock("wrap");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let dialer = ShmDialer::with_capacity(&path, 4096);
        let server_thread = std::thread::spawn(move || {
            let server = listener.accept().unwrap();
            let mut total = 0u64;
            for i in 0..200u32 {
                let f = server.recv().unwrap();
                assert_eq!(f.len(), 300);
                assert!(f.iter().all(|&b| b == i as u8), "frame {i} corrupted");
                total += f.len() as u64;
                if i % 16 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            total
        });
        let client = dialer.dial().unwrap();
        for i in 0..200u32 {
            client.send(vec![i as u8; 300]).unwrap();
        }
        assert_eq!(server_thread.join().unwrap(), 200 * 300);
        drop(client);
    }

    #[test]
    fn oversized_frame_fails_locally() {
        let path = temp_sock("big");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        // The server half completes the deferred handshake via its first
        // op (in the manager this is the session thread's first recv).
        let accept_thread = std::thread::spawn(move || {
            let c = listener.accept().unwrap();
            c.send(Vec::new()).unwrap();
            c
        });
        let client = ShmDialer::with_capacity(&path, 4096).dial().unwrap();
        assert!(matches!(
            client.send(vec![0u8; 5000]),
            Err(TransportError::FrameTooLarge { len: 5000, .. })
        ));
        drop(client);
        drop(accept_thread.join().unwrap());
    }

    #[test]
    fn frames_survive_peer_death_until_drained() {
        // The producer writes frames then vanishes (drop = socket EOF);
        // the consumer must still drain every published frame before
        // reporting Disconnected.
        let path = temp_sock("drain");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        // First server op completes the deferred handshake so the dial
        // below can return; the marker frame is never read by anyone.
        let accept_thread = std::thread::spawn(move || {
            let c = listener.accept().unwrap();
            c.send(vec![0xFE]).unwrap();
            c
        });
        let client = ShmDialer::with_capacity(&path, 65536).dial().unwrap();
        for i in 0..10u8 {
            client.send(vec![i; 64]).unwrap();
        }
        drop(client);
        let server = accept_thread.join().unwrap();
        for i in 0..10u8 {
            assert_eq!(server.recv().unwrap(), vec![i; 64]);
        }
        assert_eq!(server.recv(), Err(TransportError::Disconnected));
    }

    /// The ring is a daemon-made memfd: a dial leaves nothing behind in
    /// the filesystem.
    #[test]
    fn ring_file_is_unlinked_after_handshake() {
        let path = temp_sock("unlink");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let accept_thread = std::thread::spawn(move || {
            let c = listener.accept().unwrap();
            c.send(Vec::new()).unwrap();
            c
        });
        let client = ShmDialer::with_capacity(&path, 4096).dial().unwrap();
        let _server = accept_thread.join().unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&format!("grd-ring-{}-", std::process::id())))
            .collect();
        assert!(leftovers.is_empty(), "ring files leaked: {leftovers:?}");
        drop(client);
    }

    /// Peer-writable counters are untrusted input: a consumer head
    /// stored "ahead" of the producer's tail must fail the send with a
    /// protocol error, not underflow the free-space computation. The
    /// hostile client writes its mapping of the ring directly, exactly
    /// as a malicious tenant would.
    #[test]
    fn hostile_head_counter_fails_send_without_panic() {
        let path = temp_sock("hostile");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let accept_thread = std::thread::spawn(move || {
            let c = listener.accept().unwrap();
            // First op runs the deferred handshake (unblocking the
            // client's wait for the ready byte) and proves a clean send.
            c.send(vec![9]).unwrap();
            c
        });
        let raw = RawShmClient::dial(&path, 4096).unwrap();
        let server = accept_thread.join().unwrap();
        // The attack: publish an impossible s2c consumer head.
        raw.conn
            .map
            .atomic_u64(OFF_S2C_HEAD)
            .store(u64::MAX / 2, Ordering::Release);
        match server.send(vec![1, 2, 3]) {
            Err(TransportError::Io { op: "send", .. }) => {}
            other => panic!("hostile head produced {other:?}"),
        }
    }

    /// The ring and the window are sealed: the tenant holding their
    /// descriptors can neither shrink nor grow them (so the daemon's
    /// mappings never fault), and the connection keeps serving after
    /// the attempt.
    #[test]
    fn tenant_cannot_resize_the_ring_or_the_window() {
        let path = temp_sock("resize");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let server_thread = std::thread::spawn(move || {
            let server = listener.accept().unwrap();
            let f = server.recv().unwrap();
            server.send(f).unwrap();
            server
        });
        let raw = RawShmClient::dial(&path, 4096).unwrap();
        for file in [raw.ring(), raw.window()] {
            for len in [0, 1 << 12, 1 << 40] {
                let e = file.set_len(len).unwrap_err();
                assert_eq!(e.raw_os_error(), Some(1), "EPERM for set_len({len})");
            }
        }
        raw.conn().send(vec![7; 100]).unwrap();
        assert_eq!(raw.conn().recv().unwrap(), vec![7; 100]);
        let server = server_thread.join().unwrap();
        assert!(server.window().is_some());
    }

    /// A tenant that holds its parked flag up and never reads its socket
    /// gets a wake byte for every frame the server consumes, and its
    /// socket buffer fills. The server's wakes still never block: it
    /// consumes every frame.
    #[test]
    fn wakes_to_a_tenant_that_never_reads_do_not_block_the_server() {
        const FRAMES: usize = 100_000;
        let path = temp_sock("noread");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let server_thread = std::thread::spawn(move || {
            let server = listener.accept().unwrap();
            (0..FRAMES).all(|i| server.recv().unwrap() == (i as u32).to_le_bytes())
        });
        let raw = RawShmClient::dial(&path, 4096).unwrap();
        for i in 0..FRAMES {
            raw.hold_parked();
            raw.conn().send((i as u32).to_le_bytes().to_vec()).unwrap();
        }
        assert!(server_thread.join().unwrap(), "frames arrived out of order");
    }

    /// A SIGKILLed (here: dropped — the kernel closes the socket either
    /// way) peer must be detected in well under 100 ms by a receiver
    /// that is idle-parked, because the park polls the socket that
    /// carries both wake bytes and EOF.
    #[test]
    fn dead_peer_is_detected_quickly_from_an_idle_park() {
        let path = temp_sock("deadpeer");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let accept_thread = std::thread::spawn(move || {
            let c = listener.accept().unwrap();
            c.send(Vec::new()).unwrap(); // completes the deferred handshake
            let start = Instant::now();
            let r = c.recv();
            (r, start.elapsed())
        });
        let client = ShmDialer::with_capacity(&path, 4096).dial().unwrap();
        assert!(client.enter_event_mode());
        // Give the server time to pass the spin/yield phases and park.
        std::thread::sleep(Duration::from_millis(50));
        drop(client);
        let (r, elapsed) = accept_thread.join().unwrap();
        assert_eq!(r, Err(TransportError::Disconnected));
        assert!(
            elapsed < Duration::from_millis(100),
            "parked receiver took {elapsed:?} to notice the dead peer"
        );
    }

    /// A batched send must arrive as the individual frames, in order,
    /// and a wake byte wakes the parked receiver for it.
    #[test]
    fn batch_round_trips_through_the_ring() {
        let path = temp_sock("batch");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let server_thread = std::thread::spawn(move || {
            let server = listener.accept().unwrap();
            let mut got = Vec::new();
            for _ in 0..4 {
                got.push(server.recv().unwrap());
            }
            server
                .send_batch(vec![vec![7; 9], vec![], vec![8]])
                .unwrap();
            got
        });
        let client = ShmDialer::with_capacity(&path, 4096).dial().unwrap();
        let frames = vec![vec![1u8, 2, 3], Vec::new(), vec![4u8; 500], vec![5u8]];
        client.send_batch(frames.clone()).unwrap();
        for expect in [vec![7u8; 9], Vec::new(), vec![8u8]] {
            assert_eq!(client.recv().unwrap(), expect);
        }
        assert_eq!(server_thread.join().unwrap(), frames);
    }

    /// A batch whose combined body exceeds the ring capacity degrades
    /// to sequential plain sends instead of failing.
    #[test]
    fn oversized_batch_degrades_to_sequential_sends() {
        let path = temp_sock("bigbatch");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let server_thread = std::thread::spawn(move || {
            let server = listener.accept().unwrap();
            (0..4)
                .map(|_| server.recv().unwrap().len())
                .collect::<Vec<_>>()
        });
        let client = ShmDialer::with_capacity(&path, 4096).dial().unwrap();
        // 4 × 1500 B > 4096 B ring: the combined body can never fit in
        // one wire frame, but each member fits on its own.
        client.send_batch(vec![vec![0u8; 1500]; 4]).unwrap();
        assert_eq!(server_thread.join().unwrap(), vec![1500; 4]);
        drop(client);
    }

    /// Event-mode contract: `try_recv` never blocks, returns queued
    /// frames in order, and reports `Disconnected` once the peer is
    /// gone and the ring is drained.
    #[test]
    fn try_recv_is_nonblocking_and_drains_before_disconnect() {
        let path = temp_sock("tryrecv");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let accept_thread = std::thread::spawn(move || {
            let c = listener.accept().unwrap();
            c.send(Vec::new()).unwrap();
            c
        });
        let client = ShmDialer::with_capacity(&path, 4096).dial().unwrap();
        let server = accept_thread.join().unwrap();
        assert!(server.enter_event_mode());
        assert_eq!(server.event_fds().len(), 1, "the socket");
        assert_eq!(server.try_recv().unwrap(), None);
        client.send_batch(vec![vec![1], vec![2, 2]]).unwrap();
        client.send(vec![3, 3, 3]).unwrap();
        // The frames are already published when the sends return; no
        // polling loop is needed on the consumer side.
        assert_eq!(
            server.try_recv().unwrap().map(|f| f.into_vec()),
            Some(vec![1])
        );
        assert_eq!(
            server.try_recv().unwrap().map(|f| f.into_vec()),
            Some(vec![2, 2])
        );
        assert_eq!(
            server.try_recv().unwrap().map(|f| f.into_vec()),
            Some(vec![3, 3, 3])
        );
        drop(client);
        // Drained + dead peer → Disconnected (possibly after the close
        // propagates through the socket).
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match server.try_recv() {
                Err(TransportError::Disconnected) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                other => panic!("expected eventual Disconnected, got {other:?}"),
            }
        }
    }

    /// A hello asking for a ring the listener will not make — or
    /// speaking another transport version — is refused at the
    /// handshake (the client reads EOF, no ready byte), and the listener
    /// goes on serving dialers that ask properly.
    #[test]
    fn hello_with_a_bad_capacity_is_refused() {
        let path = temp_sock("badcap");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let bad: [([u8; 4], u32); 4] = [
            (PREAMBLE, 4097),
            (PREAMBLE, MIN_CAPACITY / 2),
            (PREAMBLE, MAX_CAPACITY * 2),
            ([b'G', b'R', b'D', 1], 4096),
        ];
        let server_thread = std::thread::spawn(move || {
            let mut refusals = Vec::new();
            for _ in 0..bad.len() {
                let c = listener.accept().unwrap();
                refusals.push(c.recv());
                // A refused connection stays refused, with nothing left
                // to poll.
                assert_eq!(c.try_recv(), Err(TransportError::Disconnected));
                assert!(c.event_fds().is_empty() && c.window().is_none());
            }
            let good = listener.accept().unwrap();
            let f = good.recv().unwrap();
            good.send(f).unwrap();
            refusals
        });
        for (preamble, capacity) in bad {
            let sock = UnixStream::connect(&path).unwrap();
            (&sock).write_all(&preamble).unwrap();
            (&sock).write_all(&capacity.to_le_bytes()).unwrap();
            let mut ready = [0u8; 1];
            assert_eq!((&sock).read(&mut ready).unwrap_or(0), 0, "{capacity}");
        }
        let client = ShmDialer::with_capacity(&path, 4096).dial().unwrap();
        client.send(vec![42; 10]).unwrap();
        assert_eq!(client.recv().unwrap(), vec![42; 10]);
        let refusals = server_thread.join().unwrap();
        for r in &refusals[..3] {
            assert!(
                matches!(
                    r,
                    Err(TransportError::Io {
                        op: "handshake",
                        kind: std::io::ErrorKind::InvalidData,
                        ..
                    })
                ),
                "{r:?}"
            );
        }
        assert_eq!(
            refusals[3],
            Err(TransportError::VersionMismatch {
                got: 1,
                want: frame::TRANSPORT_VERSION
            })
        );
    }
}
