//! Streams, commands, and events.
//!
//! A stream is an in-order queue of device commands; commands in different
//! streams may execute concurrently (§2.1 of the paper). These types are
//! consumed by the device's discrete-event engine in [`crate::device`].

use crate::compile::{CompiledKernel, CompiledModule};
use crate::fault::Fault;
use crate::interp::{LaunchConfig, MemGuard};
use crate::mem::Dram;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Identifies a context on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtxId(pub u32);

/// Identifies a stream on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

/// A handle to a kernel within its loaded module (the `CUfunction`
/// analogue; keeps the sibling `.func`s reachable for `call`).
#[derive(Debug, Clone)]
pub struct CudaFunction {
    /// The kernel to execute.
    pub kernel: Arc<CompiledKernel>,
    /// The module it was loaded from.
    pub module: Arc<CompiledModule>,
}

/// Bytes a [`ParamBuf`] carries inside itself; a longer parameter
/// buffer lives on the heap. The largest sandboxed kernel in this
/// repository takes 72 bytes (its own parameters plus the two bounds);
/// every byte more makes each queued [`Command`] longer.
const PARAM_INLINE: usize = 80;

/// A kernel's flat parameter buffer. Up to 80 bytes travel inside the
/// buffer itself — and so inside the [`Command`] — so building one takes
/// no allocation, no lock and no shared counter; a longer one is a plain
/// `Vec`.
#[derive(Clone)]
pub struct ParamBuf(ParamRepr);

#[derive(Clone)]
enum ParamRepr {
    Inline { len: u8, bytes: [u8; PARAM_INLINE] },
    Heap(Vec<u8>),
}

impl ParamBuf {
    /// A buffer of `len` zero bytes.
    pub fn zeroed(len: usize) -> Self {
        ParamBuf(match u8::try_from(len) {
            Ok(n) if len <= PARAM_INLINE => ParamRepr::Inline {
                len: n,
                bytes: [0; PARAM_INLINE],
            },
            _ => ParamRepr::Heap(vec![0; len]),
        })
    }
}

impl From<&[u8]> for ParamBuf {
    fn from(data: &[u8]) -> Self {
        let mut buf = ParamBuf::zeroed(data.len());
        buf.copy_from_slice(data);
        buf
    }
}

impl From<Vec<u8>> for ParamBuf {
    fn from(data: Vec<u8>) -> Self {
        ParamBuf(ParamRepr::Heap(data))
    }
}

impl std::ops::Deref for ParamBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            ParamRepr::Inline { len, bytes } => &bytes[..*len as usize],
            ParamRepr::Heap(v) => v,
        }
    }
}

impl std::ops::DerefMut for ParamBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        match &mut self.0 {
            ParamRepr::Inline { len, bytes } => &mut bytes[..*len as usize],
            ParamRepr::Heap(v) => v,
        }
    }
}

impl AsRef<[u8]> for ParamBuf {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for ParamBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ParamBuf").field(&&**self).finish()
    }
}

/// A recordable timestamp (the `cudaEvent_t` analogue). The device stores
/// the cycle count at which the `EventRecord` command executed.
#[derive(Debug, Clone, Default)]
pub struct Event {
    cycles: Arc<Mutex<Option<u64>>>,
}

impl Event {
    /// Create an unrecorded event.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded device timestamp in cycles, if recorded.
    pub fn cycles(&self) -> Option<u64> {
        *self.cycles.lock()
    }

    pub(crate) fn record(&self, cycles: u64) {
        *self.cycles.lock() = Some(cycles);
    }
}

/// The bytes a host-to-device copy carries: a refcounted, immutable
/// handle, so a producer that already holds them in a shared buffer (the
/// manager's receive block) hands them to the device without a copy.
/// `From<Vec<u8>>` wraps an owned buffer the same way.
pub struct HostBytes(Arc<dyn AsRef<[u8]> + Send + Sync>);

impl HostBytes {
    /// Share `bytes` with the device.
    pub fn new(bytes: impl AsRef<[u8]> + Send + Sync + 'static) -> Self {
        HostBytes(Arc::new(bytes))
    }
}

impl From<Vec<u8>> for HostBytes {
    fn from(data: Vec<u8>) -> Self {
        HostBytes::new(data)
    }
}

impl std::ops::Deref for HostBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        (*self.0).as_ref()
    }
}

impl std::fmt::Debug for HostBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HostBytes({} bytes)", self.len())
    }
}

/// Where a device-to-host copy lands at execution time: a buffer of the
/// sink's own that grows by the copied bytes ([`HostSink::new`]), or a
/// caller-owned region written from its start ([`HostSink::region`]) —
/// the mirror of [`HostBytes`], so a producer that already holds the
/// destination in shared memory receives the bytes there, with no copy
/// in between.
#[derive(Debug, Clone, Default)]
pub struct HostSink {
    data: Arc<Mutex<SinkBuf>>,
}

enum SinkBuf {
    Grown(Vec<u8>),
    Region {
        region: Box<dyn AsMut<[u8]> + Send>,
        filled: usize,
    },
}

impl Default for SinkBuf {
    fn default() -> Self {
        SinkBuf::Grown(Vec::new())
    }
}

impl std::fmt::Debug for SinkBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkBuf::Grown(v) => write!(f, "Grown({} bytes)", v.len()),
            SinkBuf::Region { filled, .. } => write!(f, "Region({filled} bytes filled)"),
        }
    }
}

impl HostSink {
    /// Create an empty sink with a buffer of its own.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink that writes into `region`, from its start. A copy that
    /// would run past the region's end faults and writes nothing.
    pub fn region(region: impl AsMut<[u8]> + Send + 'static) -> Self {
        HostSink {
            data: Arc::new(Mutex::new(SinkBuf::Region {
                region: Box::new(region),
                filled: 0,
            })),
        }
    }

    /// Take the received bytes out of a sink made by [`HostSink::new`]
    /// (nothing is appended until the copy has executed). A region sink
    /// has nothing to give: its bytes are in the caller's region.
    pub fn take(&self) -> Vec<u8> {
        match &mut *self.data.lock() {
            SinkBuf::Grown(v) => std::mem::take(v),
            SinkBuf::Region { .. } => Vec::new(),
        }
    }

    /// Bytes received so far.
    pub fn filled(&self) -> u64 {
        match &*self.data.lock() {
            SinkBuf::Grown(v) => v.len() as u64,
            SinkBuf::Region { filled, .. } => *filled as u64,
        }
    }

    /// Append `len` bytes of device memory at `src` (nothing on error).
    pub(crate) fn append_from(&self, dram: &Dram, src: u64, len: u64) -> Result<(), Fault> {
        match &mut *self.data.lock() {
            SinkBuf::Grown(v) => dram.read_append(src, len, v),
            SinkBuf::Region { region, filled } => {
                let region: &mut [u8] = (**region).as_mut();
                let end = usize::try_from(len)
                    .ok()
                    .and_then(|n| filled.checked_add(n))
                    .filter(|&end| end <= region.len())
                    .ok_or(Fault::TransferOutOfBounds { addr: src, len })?;
                dram.read(src, &mut region[*filled..end])?;
                *filled = end;
                Ok(())
            }
        }
    }
}

/// One device command. Deliberately not `Clone`: the device takes each
/// command off its queue, so a payload is never copied to execute it.
#[derive(Debug)]
pub enum Command {
    /// Execute a kernel grid.
    Launch {
        /// Function handle.
        func: CudaFunction,
        /// Grid/block geometry.
        cfg: LaunchConfig,
        /// Flat parameter buffer.
        params: ParamBuf,
        /// Memory-protection mode for this launch.
        guard: MemGuard,
    },
    /// Host-to-device copy (data captured at enqueue).
    MemcpyH2D {
        /// Destination device address.
        dst: u64,
        /// Bytes to write.
        data: HostBytes,
    },
    /// Device-to-host copy, appended to a [`HostSink`].
    MemcpyD2H {
        /// Source device address.
        src: u64,
        /// Length in bytes.
        len: u64,
        /// Where the bytes land.
        sink: HostSink,
    },
    /// Device-to-device copy.
    MemcpyD2D {
        /// Destination device address.
        dst: u64,
        /// Source device address.
        src: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Fill a device range with a byte.
    Memset {
        /// Destination device address.
        dst: u64,
        /// Fill byte.
        byte: u8,
        /// Length in bytes.
        len: u64,
    },
    /// Record a timestamp into an [`Event`].
    EventRecord {
        /// The event to record into.
        event: Event,
    },
}

impl Command {
    /// Short human-readable tag for logs and fault records.
    pub fn kind(&self) -> &'static str {
        match self {
            Command::Launch { .. } => "launch",
            Command::MemcpyH2D { .. } => "memcpyH2D",
            Command::MemcpyD2H { .. } => "memcpyD2H",
            Command::MemcpyD2D { .. } => "memcpyD2D",
            Command::Memset { .. } => "memset",
            Command::EventRecord { .. } => "eventRecord",
        }
    }
}

/// A stream's mutable state inside the device.
#[derive(Debug)]
pub(crate) struct StreamState {
    pub ctx: CtxId,
    pub queue: VecDeque<Command>,
    /// Whether the head command is currently executing.
    pub busy: bool,
    /// Completion time of the most recently finished command.
    pub last_done: u64,
    /// Host wall-clock stamp ([`crate::mono_ns`]) of that completion, so
    /// the manager's telemetry can close launch→device-complete spans
    /// against its own host-side timestamps.
    pub last_done_wall_ns: u64,
    /// Whether the stream sits in the engine's ready/blocked queues
    /// (dedup flag, so a stream is tracked at most once).
    pub in_ready: bool,
    /// Latency-class (priority) stream: it enters the ready queue at
    /// the front instead of the back, and its running kernels are
    /// scheduled onto free SM capacity ahead of best-effort work at
    /// each slice boundary. Set by the manager from the tenant's
    /// granted QoS class; defaults to best-effort.
    pub latency: bool,
}

impl StreamState {
    pub fn new(ctx: CtxId) -> Self {
        StreamState {
            ctx,
            queue: VecDeque::new(),
            busy: false,
            last_done: 0,
            last_done_wall_ns: 0,
            in_ready: false,
            latency: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_records_once() {
        let e = Event::new();
        assert_eq!(e.cycles(), None);
        e.record(42);
        assert_eq!(e.cycles(), Some(42));
    }

    #[test]
    fn host_sink_takes_data() {
        let mut dram = Dram::new(crate::mem::PAGE_SIZE);
        let addr = crate::fault::window::DEVICE_BASE + 8;
        dram.write(addr, &[1, 2, 3]).unwrap();
        let s = HostSink::new();
        assert!(s.take().is_empty());
        s.append_from(&dram, addr, 3).unwrap();
        assert_eq!(s.filled(), 3);
        assert_eq!(s.take(), vec![1, 2, 3]);
        assert!(s.take().is_empty());
        // A region sink writes into the caller's region from its start,
        // and a faulting copy — off the end of DRAM, or past the region
        // — writes nothing.
        struct Region(Vec<u8>, std::sync::mpsc::Sender<Vec<u8>>);
        impl AsMut<[u8]> for Region {
            fn as_mut(&mut self) -> &mut [u8] {
                &mut self.0
            }
        }
        impl Drop for Region {
            fn drop(&mut self) {
                let _ = self.1.send(std::mem::take(&mut self.0));
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let s = HostSink::region(Region(vec![0; 4], tx));
        assert!(s.append_from(&dram, addr, crate::mem::PAGE_SIZE).is_err());
        s.append_from(&dram, addr, 3).unwrap();
        assert!(s.append_from(&dram, addr, 2).is_err(), "past the region");
        s.append_from(&dram, addr, 1).unwrap();
        assert_eq!(s.filled(), 4);
        assert!(s.take().is_empty());
        drop(s);
        assert_eq!(rx.recv().unwrap(), [1, 2, 3, 1]);
    }

    #[test]
    fn param_bufs_live_inline_up_to_their_cap() {
        let short: ParamBuf = [1u8, 2, 3][..].into();
        assert_eq!(&*short, &[1, 2, 3]);
        assert!(matches!(short.0, ParamRepr::Inline { len: 3, .. }));
        let mut edge = ParamBuf::zeroed(PARAM_INLINE);
        assert!(matches!(edge.0, ParamRepr::Inline { .. }));
        edge[PARAM_INLINE - 1] = 7;
        assert_eq!(edge.len(), PARAM_INLINE);
        assert_eq!(edge[PARAM_INLINE - 1], 7);
        let long = ParamBuf::from(&[5u8; PARAM_INLINE + 1][..]);
        assert!(matches!(long.0, ParamRepr::Heap(_)));
        assert_eq!(&*long, &[5; PARAM_INLINE + 1][..]);
        let owned: ParamBuf = vec![9u8; 4].into();
        assert_eq!(&*owned, &[9, 9, 9, 9]);
        assert!(ParamBuf::zeroed(0).is_empty());
    }

    #[test]
    fn command_kinds() {
        let c = Command::Memset {
            dst: 0,
            byte: 0,
            len: 1,
        };
        assert_eq!(c.kind(), "memset");
    }
}
