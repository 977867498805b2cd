//! Transport abstraction between `grdLib` and the grdManager.
//!
//! The wire protocol ([`crate::proto`]) produces self-contained byte
//! frames; this module defines how frames travel. Three small traits model
//! a connection-oriented transport the way sockets do:
//!
//! * [`Connection`] — a bidirectional, ordered, reliable frame pipe. One
//!   connection per tenant: the manager derives the client identity from
//!   the connection, not from message contents.
//! * [`Listener`] — the manager side: yields the server half of each new
//!   connection.
//! * [`Dialer`] — the client side: opens new connections.
//!
//! Three implementations exist, spanning the deployment spectrum:
//!
//! * [`channel`] — in-process byte-frame channels: zero-copy within one
//!   address space, used by tests and single-process deployments.
//! * [`uds`] — Unix domain sockets with length-prefixed framing
//!   ([`frame`]): tenants as real OS processes, the kernel as the IPC
//!   boundary. A crashed tenant's socket closes, so its session observes
//!   [`TransportError::Disconnected`] and the manager reclaims the
//!   partition through the normal vanished-connection path.
//! * [`shm`] — a lock-free shared-memory byte ring per direction in a
//!   memfd the daemon creates, with a Unix socket carrying the handshake,
//!   peer liveness and wake bytes. Built for the high-rate one-way
//!   deferred-launch path: a send is two bounded memcpys and one atomic
//!   release store.
//!
//! Every connection, on every transport, also has one [`Window`]: a
//! sealed shared-memory region the daemon creates at the handshake and
//! hands to the client (over `SCM_RIGHTS` on the socket transports, as
//! one shared mapping between the two in-process channel halves). Copy
//! payloads move through it instead of through frames, so frames stay
//! small; see [`window`](Window) for the rules.
//!
//! Nothing above this layer sees anything but byte frames and the
//! window, so `grdLib`, the session layer, and the manager are identical
//! across all three.

use std::fmt;
use std::io;

pub mod channel;
pub mod frame;
pub mod peercred;
pub mod shm;
pub(crate) mod sys;
pub mod uds;
pub(crate) mod window;

pub use channel::{channel_transport, ChannelConnection, ChannelDialer, ChannelListener};
pub use peercred::UidPolicy;
pub use window::Window;

/// Transport-level failures.
///
/// [`Disconnected`](TransportError::Disconnected) is the one every caller
/// must handle — it is how sessions learn their tenant is gone (including
/// by `SIGKILL`). The remaining variants carry enough context to
/// distinguish an I/O failure from a protocol violation without parsing
/// strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer (or the listener) has gone away.
    Disconnected,
    /// An operating-system I/O error that is not a plain disconnect.
    Io {
        /// The transport operation that failed (`"send"`, `"recv"`,
        /// `"accept"`, `"dial"`, `"handshake"`, …).
        op: &'static str,
        /// The OS error category.
        kind: io::ErrorKind,
        /// Human-readable detail from the OS error.
        detail: String,
    },
    /// A frame exceeded the transport's size limit. Raised on send
    /// (before any bytes travel) and on receive (a hostile or corrupt
    /// length prefix must not trigger a giant allocation).
    FrameTooLarge {
        /// The offending frame length in bytes.
        len: u64,
        /// The transport's limit in bytes.
        max: u64,
    },
    /// The peer speaks a different transport framing version.
    VersionMismatch {
        /// Version byte the peer presented.
        got: u8,
        /// Version this build speaks ([`frame::TRANSPORT_VERSION`]).
        want: u8,
    },
}

impl TransportError {
    /// Classify an OS error from `op`: disconnect-like errors collapse to
    /// [`TransportError::Disconnected`] (so every transport reports a
    /// vanished peer identically), the rest keep their context.
    pub fn from_io(op: &'static str, e: &io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected => TransportError::Disconnected,
            kind => TransportError::Io {
                op,
                kind,
                detail: e.to_string(),
            },
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected => f.write_str("transport disconnected"),
            TransportError::Io { op, kind, detail } => {
                write!(f, "transport {op} failed ({kind:?}): {detail}")
            }
            TransportError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds transport limit {max}")
            }
            TransportError::VersionMismatch { got, want } => {
                write!(
                    f,
                    "peer speaks transport version {got}, this build wants {want}"
                )
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// A bidirectional, ordered, reliable byte-frame pipe.
pub trait Connection: Send {
    /// Send one frame to the peer.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] if the peer is gone;
    /// [`TransportError::FrameTooLarge`] if the frame exceeds the
    /// transport's limit; [`TransportError::Io`] on other OS failures.
    fn send(&self, frame: Vec<u8>) -> Result<(), TransportError>;

    /// The connection's transfer [`Window`], shared with the peer. `None`
    /// only before the handshake has run (a server half that has not
    /// received a frame yet) or after it failed.
    fn window(&self) -> Option<std::sync::Arc<Window>>;

    /// Block until the peer's next frame arrives.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] if the peer is gone and no frames
    /// remain; other variants on I/O or framing violations.
    fn recv(&self) -> Result<Vec<u8>, TransportError>;

    /// Send several frames as one transport operation where the wire
    /// supports it (a single batch write on uds/shm); the default just
    /// sends them one by one, so every [`Connection`] stays correct.
    /// Frame boundaries are preserved — the peer's decoder yields the
    /// same frame sequence either way.
    ///
    /// # Errors
    ///
    /// As [`Connection::send`]; on error, a prefix of `frames` may have
    /// been delivered.
    fn send_batch(&self, frames: Vec<Vec<u8>>) -> Result<(), TransportError> {
        for f in frames {
            self.send(f)?;
        }
        Ok(())
    }

    /// Non-blocking receive for event-driven callers: `Ok(Some(frame))`
    /// when a frame is ready, `Ok(None)` when the caller should wait for
    /// the next readiness event. Only meaningful after
    /// [`Connection::enter_event_mode`] returned `true`.
    ///
    /// Frames come back as zero-copy [`frame::FrameView`]s into the
    /// transport's receive buffer, so the executor's drain loop never
    /// copies payload bytes; cold callers recover owned bytes with
    /// [`frame::FrameView::into_vec`].
    ///
    /// # Errors
    ///
    /// As [`Connection::recv`]; transports that do not support event
    /// mode report an `Unsupported` [`TransportError::Io`].
    fn try_recv(&self) -> Result<Option<frame::FrameView>, TransportError> {
        Err(TransportError::Io {
            op: "try_recv",
            kind: io::ErrorKind::Unsupported,
            detail: "connection does not support event-driven receive".into(),
        })
    }

    /// Switch the connection into non-blocking event mode. Returns
    /// `true` when the connection can be driven by an epoll executor
    /// (readiness fds from [`Connection::event_fds`] + frames from
    /// [`Connection::try_recv`]); `false` means the caller must dedicate
    /// a blocking thread. The default — and the in-process channel
    /// transport — stays blocking.
    fn enter_event_mode(&self) -> bool {
        false
    }

    /// File descriptors whose readability means "poll [`try_recv`]
    /// again". Re-queried after every drain: a shm server half that
    /// refused its handshake has none left.
    ///
    /// [`try_recv`]: Connection::try_recv
    fn event_fds(&self) -> Vec<i32> {
        Vec::new()
    }

    /// The peer's uid, where the transport can establish it
    /// (`SO_PEERCRED` on server halves of socket transports). `None` for
    /// in-process transports and client halves; the session layer then
    /// falls back to the process's own uid.
    fn peer_uid(&self) -> Option<u32> {
        None
    }
}

/// The accepting (manager) side of a transport.
pub trait Listener: Send {
    /// Block until a client opens a connection; returns the server half.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] once no dialer can ever connect
    /// again (shutdown).
    fn accept(&self) -> Result<Box<dyn Connection>, TransportError>;
}

/// The connecting (client) side of a transport.
pub trait Dialer: Send + Sync {
    /// Open a new connection to the manager; returns the client half.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] if the listener is gone.
    fn dial(&self) -> Result<Box<dyn Connection>, TransportError>;
}

/// A bound server-side transport, ready to hand to
/// [`spawn_manager_over`](crate::manager::spawn_manager_over): the
/// listener the acceptor will serve, a dialer for the manager's own
/// one-shot connections (stats probes), and an optional `unblock` hook
/// that forces a blocked `accept` to return `Disconnected` at shutdown
/// (socket listeners block in the kernel, so dropping the dialer alone
/// cannot wake them the way the in-process channel transport does).
pub struct BoundTransport {
    /// Server half: the acceptor loop serves this.
    pub listener: Box<dyn Listener>,
    /// Loopback dialer owned by the manager handle.
    pub dialer: Box<dyn Dialer>,
    /// Called once at shutdown, before joining the acceptor.
    pub unblock: Option<UnblockFn>,
}

/// A one-shot shutdown hook returned by the socket listeners: makes a
/// kernel-blocked `accept` return `Disconnected`.
pub type UnblockFn = Box<dyn FnOnce() + Send + Sync>;

impl BoundTransport {
    /// The in-process channel transport (the default for tests and
    /// single-process deployments).
    pub fn channel() -> Self {
        let (listener, dialer) = channel_transport();
        BoundTransport {
            listener: Box::new(listener),
            dialer: Box::new(dialer),
            unblock: None,
        }
    }

    /// Bind a Unix-domain-socket transport at `path` (replacing any stale
    /// socket file left by a previous run).
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] when the socket cannot be bound.
    pub fn uds(path: impl AsRef<std::path::Path>) -> Result<Self, TransportError> {
        Self::uds_with_policy(path, UidPolicy::AllowAll)
    }

    /// [`BoundTransport::uds`] with an `SO_PEERCRED` uid allowlist:
    /// connections from uids the policy rejects are dropped at accept,
    /// before any protocol byte. This is how `guardiand` restricts its
    /// socket to the daemon's own uid (or an explicit `--allow-uid`
    /// list).
    ///
    /// # Errors
    ///
    /// As [`BoundTransport::uds`].
    pub fn uds_with_policy(
        path: impl AsRef<std::path::Path>,
        policy: UidPolicy,
    ) -> Result<Self, TransportError> {
        Self::uds_gated(path, policy, None)
    }

    /// [`BoundTransport::uds_with_policy`] with an optional connect-rate
    /// [`Admission`](crate::control::Admission) gate: connections from a
    /// uid exceeding its token bucket are dropped at accept, so a
    /// reconnect storm cannot starve the accept loop.
    ///
    /// # Errors
    ///
    /// As [`BoundTransport::uds`].
    pub fn uds_gated(
        path: impl AsRef<std::path::Path>,
        policy: UidPolicy,
        admission: Option<std::sync::Arc<crate::control::Admission>>,
    ) -> Result<Self, TransportError> {
        let path = path.as_ref();
        let (listener, unblock) = uds::UdsListener::bind_gated(path, policy, admission)?;
        Ok(BoundTransport {
            listener: Box::new(listener),
            dialer: Box::new(uds::UdsDialer::new(path)),
            unblock: Some(unblock),
        })
    }

    /// Bind a shared-memory-ring transport whose handshake/liveness
    /// socket lives at `path`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] when the handshake socket cannot be bound.
    pub fn shm(path: impl AsRef<std::path::Path>) -> Result<Self, TransportError> {
        Self::shm_with_policy(path, UidPolicy::AllowAll)
    }

    /// [`BoundTransport::shm`] with an `SO_PEERCRED` uid allowlist on
    /// the handshake socket (see [`BoundTransport::uds_with_policy`]).
    ///
    /// # Errors
    ///
    /// As [`BoundTransport::shm`].
    pub fn shm_with_policy(
        path: impl AsRef<std::path::Path>,
        policy: UidPolicy,
    ) -> Result<Self, TransportError> {
        Self::shm_gated(path, policy, None)
    }

    /// [`BoundTransport::shm_with_policy`] with an optional connect-rate
    /// [`Admission`](crate::control::Admission) gate on the handshake
    /// socket (see [`BoundTransport::uds_gated`]).
    ///
    /// # Errors
    ///
    /// As [`BoundTransport::shm`].
    pub fn shm_gated(
        path: impl AsRef<std::path::Path>,
        policy: UidPolicy,
        admission: Option<std::sync::Arc<crate::control::Admission>>,
    ) -> Result<Self, TransportError> {
        let path = path.as_ref();
        let (listener, unblock) = shm::ShmListener::bind_gated(path, policy, admission)?;
        Ok(BoundTransport {
            listener: Box::new(listener),
            dialer: Box::new(shm::ShmDialer::new(path)),
            unblock: Some(unblock),
        })
    }

    /// Merge several bound transports into one: a single acceptor serves
    /// every listener (e.g. `guardiand` offering uds *and* shm endpoints
    /// over one manager). The merged dialer is the first transport's.
    ///
    /// # Panics
    ///
    /// Panics if `transports` is empty.
    pub fn merge(transports: Vec<BoundTransport>) -> Self {
        assert!(!transports.is_empty(), "merge of zero transports");
        let mut listeners = Vec::new();
        let mut unblocks = Vec::new();
        let mut dialer = None;
        for t in transports {
            listeners.push(t.listener);
            if let Some(u) = t.unblock {
                unblocks.push(u);
            }
            if dialer.is_none() {
                dialer = Some(t.dialer);
            }
        }
        let merged = MultiListener::new(listeners);
        BoundTransport {
            listener: Box::new(merged),
            dialer: dialer.expect("at least one transport"),
            unblock: Some(Box::new(move || {
                for u in unblocks {
                    u();
                }
            })),
        }
    }
}

/// Fans several listeners into one accept stream: one forwarder thread
/// per inner listener pushes accepted connections into a channel; the
/// merged `accept` drains it. `accept` fails once every inner listener
/// has shut down.
pub struct MultiListener {
    rx: crossbeam::channel::Receiver<Box<dyn Connection>>,
}

impl MultiListener {
    /// Merge `listeners` into a single accept stream.
    pub fn new(listeners: Vec<Box<dyn Listener>>) -> Self {
        let (tx, rx) = crossbeam::channel::unbounded();
        for listener in listeners {
            let tx = tx.clone();
            std::thread::Builder::new()
                .name("grdMultiAccept".into())
                .spawn(move || {
                    while let Ok(conn) = listener.accept() {
                        if tx.send(conn).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn grdMultiAccept thread");
        }
        MultiListener { rx }
    }
}

impl Listener for MultiListener {
    fn accept(&self) -> Result<Box<dyn Connection>, TransportError> {
        self.rx.recv().map_err(|_| TransportError::Disconnected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_errors_classify_disconnect_kinds() {
        let gone = io::Error::new(io::ErrorKind::BrokenPipe, "pipe");
        assert_eq!(
            TransportError::from_io("send", &gone),
            TransportError::Disconnected
        );
        let denied = io::Error::new(io::ErrorKind::PermissionDenied, "no");
        match TransportError::from_io("dial", &denied) {
            TransportError::Io { op, kind, .. } => {
                assert_eq!(op, "dial");
                assert_eq!(kind, io::ErrorKind::PermissionDenied);
            }
            other => panic!("classified as {other:?}"),
        }
    }

    #[test]
    fn multi_listener_serves_all_inner_listeners() {
        let (l1, d1) = channel_transport();
        let (l2, d2) = channel_transport();
        let multi = MultiListener::new(vec![Box::new(l1), Box::new(l2)]);
        let c1 = d1.dial().unwrap();
        let c2 = d2.dial().unwrap();
        c1.send(vec![1]).unwrap();
        c2.send(vec![2]).unwrap();
        // Both connections surface through the one accept stream (order
        // unspecified across inner listeners).
        let mut seen = Vec::new();
        for _ in 0..2 {
            let s = multi.accept().unwrap();
            seen.push(s.recv().unwrap()[0]);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
        drop((d1, d2));
        assert!(multi.accept().is_err());
    }
}
