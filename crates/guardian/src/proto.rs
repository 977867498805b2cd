//! The grdManager wire protocol: typed request/response messages that
//! serialize to self-contained byte frames.
//!
//! This is the bottom layer of Guardian's RPC stack. Messages carry only
//! plain data — no closures, no reply channels, no shared handles — so a
//! frame produced by [`Request::encode`] could cross a Unix socket or a
//! shared-memory ring unchanged; the in-process transport in
//! [`crate::transport`] is just the cheapest carrier. One connection
//! corresponds to one tenant, so frames do not repeat the client id: the
//! connection *is* the identity, exactly as a per-process socket would be
//! (§4.1 of the paper: applications reach the GPU only through the IPC
//! boundary to the grdManager).
//!
//! Framing is version-prefixed, little-endian, and length-delimited for
//! all variable-size fields. Decoding is total: malformed input yields a
//! [`ProtoError`], never a panic, because the manager must survive a
//! misbehaving tenant (it is the isolation boundary).
//!
//! Each message family — [`Request`], [`Response`], [`AdminRequest`] and
//! [`AdminResponse`] — is one table. A row declares a variant, its opcode
//! and its fields in wire order; `wire_enum!` derives the enum, the opcode
//! constants, `encode` and the decoder from the row. Every field type has
//! one wire form (the `Wire` trait), so an encoder and its decoder cannot
//! disagree on a layout. To add a message, add a row, bump
//! [`PROTO_VERSION`] and re-capture the golden fixture under `testdata/`.

use crate::manager::{InterceptionStats, LaunchStats};
use crate::placement::{Affinity, PlacementHint};
use crate::telemetry::TraceEvent;
use crate::transport::frame::FrameView;
use cuda_rt::{CudaError, DevicePtr};
use gpu_sim::LaunchConfig;
use std::fmt;
use std::ops::Range;

/// A byte payload inside a decoded [`Request`].
///
/// Backed by a refcounted [`FrameView`]: [`Request::decode_view`] makes
/// payloads *borrow* the receive buffer (zero-copy — a launch's argument
/// bytes are never duplicated between socket and device queue), while
/// the `From<Vec<u8>>` construction path owns its bytes through the same
/// representation. Equality is by byte
/// content, so `Request` round-trips compare naturally in tests.
#[derive(Clone, PartialEq, Eq)]
pub struct Payload(FrameView);

impl Payload {
    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Recover owned bytes (zero-copy when the payload solely owns its
    /// backing block).
    pub fn into_vec(self) -> Vec<u8> {
        self.0.into_vec()
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload(FrameView::from(v))
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload(FrameView::from(v.to_vec()))
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.len())
    }
}

/// A guaranteed-UTF-8 string field inside a decoded [`Request`] (kernel
/// symbol names). Same zero-copy backing as [`Payload`], so decoding a
/// `Launch` frame allocates no `String`; validation happens once at
/// decode time and `Deref<Target = str>` is free thereafter.
#[derive(Clone, PartialEq, Eq)]
pub struct Symbol(FrameView);

impl Symbol {
    /// The symbol text.
    pub fn as_str(&self) -> &str {
        // UTF-8 was validated when the Symbol was constructed.
        unsafe { std::str::from_utf8_unchecked(&self.0) }
    }
}

impl std::ops::Deref for Symbol {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol(FrameView::from(s.as_bytes().to_vec()))
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol(FrameView::from(s.into_bytes()))
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The one wire-format version this build speaks. Every frame carries
/// it in its first byte; a frame of any other version — older or newer —
/// is refused with [`ProtoError::BadVersion`].
pub const PROTO_VERSION: u8 = 7;

// ---- field types -----------------------------------------------------------

/// A type with a wire form. Every message field is one of these, so a
/// message's encoder and decoder are its fields' `put`s and `get`s in
/// declaration order, monomorphised per field type.
trait Wire: Sized {
    /// Append the wire form to `buf`.
    fn put(&self, buf: &mut Vec<u8>);
    /// Read one value, or refuse the frame.
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError>;
}

/// Checked little-endian reader over one frame. `view` is the frame's
/// refcounted backing when it has one: [`Payload`] and [`Symbol`] fields
/// are then sub-views of it instead of copies.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    view: Option<&'a FrameView>,
}

impl<'a> From<&'a [u8]> for Reader<'a> {
    fn from(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            view: None,
        }
    }
}

impl<'a> From<&'a FrameView> for Reader<'a> {
    fn from(view: &'a FrameView) -> Self {
        Reader {
            buf: view,
            pos: 0,
            view: Some(view),
        }
    }
}

impl<'a> Reader<'a> {
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(ProtoError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// The frame span of the next length-prefixed byte string.
    #[inline]
    fn blob(&mut self) -> Result<Range<usize>, ProtoError> {
        let len = usize::try_from(u64::get(self)?).map_err(|_| ProtoError::Truncated)?;
        let start = self.pos;
        self.take(len)?;
        Ok(start..self.pos)
    }

    /// `span` of the frame as a view: zero-copy when the frame has a
    /// backing view, an owned copy otherwise.
    #[inline]
    fn view(&self, span: Range<usize>) -> FrameView {
        match self.view {
            Some(v) => v.slice(span),
            None => FrameView::from(self.buf[span].to_vec()),
        }
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}
wire_int!(u8, u32, u64);

impl Wire for f32 {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.to_bits().put(buf);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        u32::get(r).map(f32::from_bits)
    }
}

impl Wire for f64 {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.to_bits().put(buf);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        u64::get(r).map(f64::from_bits)
    }
}

impl Wire for bool {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        u8::from(*self).put(buf);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(u8::get(r)? != 0)
    }
}

/// A byte string: a `u64` length (so a >= 4 GiB payload cannot wrap its
/// prefix), then the bytes.
#[inline]
fn put_bytes(bytes: &[u8], buf: &mut Vec<u8>) {
    (bytes.len() as u64).put(buf);
    buf.extend_from_slice(bytes);
}

impl Wire for String {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(self.as_bytes(), buf);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        let span = r.blob()?;
        String::from_utf8(r.buf[span].to_vec()).map_err(|_| ProtoError::BadUtf8)
    }
}

impl Wire for Payload {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(self, buf);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        let span = r.blob()?;
        Ok(Payload(r.view(span)))
    }
}

impl Wire for Symbol {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(self.as_bytes(), buf);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        let span = r.blob()?;
        std::str::from_utf8(&r.buf[span.clone()]).map_err(|_| ProtoError::BadUtf8)?;
        Ok(Symbol(r.view(span)))
    }
}

/// A `u8` tag, 0 for `None` (any other value reads as `Some`), then the
/// value.
impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            None => 0u8.put(buf),
            Some(v) => {
                1u8.put(buf);
                v.put(buf);
            }
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(match u8::get(r)? {
            0 => None,
            _ => Some(T::get(r)?),
        })
    }
}

/// A `u32` count, then the items.
impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for v in self {
            v.put(buf);
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        let n = u32::get(r)?;
        // The frame bounds preallocation: a hostile count cannot
        // reserve GiBs.
        let mut out = Vec::with_capacity((n as usize).min(64));
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
        self.2.put(buf);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// A struct whose wire form is its fields in order: declared here, or
/// (`impl Name { fields }`) declared elsewhere and given that form.
macro_rules! wire_struct {
    (impl $Name:ident { $($f:ident),* $(,)? }) => {
        impl Wire for $Name {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                $( self.$f.put(buf); )*
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
                Ok($Name { $( $f: Wire::get(r)? ),* })
            }
        }
        #[cfg(test)]
        impl tests::Sample for $Name {
            fn sample() -> Self {
                $Name { $( $f: tests::Sample::sample() ),* }
            }
        }
    };
    (
        $(#[$m:meta])*
        pub struct $Name:ident { $( $(#[$fm:meta])* pub $f:ident : $ft:ty ),* $(,)? }
    ) => {
        $(#[$m])*
        pub struct $Name { $( $(#[$fm])* pub $f: $ft ),* }
        wire_struct!(impl $Name { $($f),* });
    };
}

/// A tagged enum: one `u8` code per row, then the row's fields in order.
/// The declaring form is a message family's table: it also defines the
/// enum and its `encode` and decoder. `impl Name in codes { .. }` gives
/// an enum declared elsewhere its wire form. Either way the row codes
/// become constants in module `codes`, and an unknown code is refused
/// with [`ProtoError::BadOpcode`].
macro_rules! wire_enum {
    (impl $Enum:ident in $codes:ident {
        $( $Var:ident = $op:literal $({ $($f:ident : $ft:ty),* })? $(($tf:ident : $tt:ty))? ),*
        $(,)?
    }) => {
        #[allow(non_upper_case_globals)]
        mod $codes {
            $( pub(super) const $Var: u8 = $op; )*
        }
        impl Wire for $Enum {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $( Self::$Var $({ $($f),* })? $(($tf))? => {
                        $codes::$Var.put(buf);
                        $( $( $f.put(buf); )* )?
                        $( $tf.put(buf); )?
                    } )*
                }
            }
            // Two rows with one code would leave the second unreachable.
            #[inline]
            #[deny(unreachable_patterns)]
            fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
                Ok(match u8::get(r)? {
                    $( $codes::$Var => Self::$Var
                        $({ $( $f: <$ft>::get(r)? ),* })?
                        $(( <$tt>::get(r)? ))?, )*
                    op => return Err(ProtoError::BadOpcode(op)),
                })
            }
        }
        #[cfg(test)]
        impl tests::Sample for $Enum {
            fn sample() -> Self {
                Self::every_row().pop().expect("a table has rows")
            }
            fn every_row() -> Vec<Self> {
                vec![$( Self::$Var
                    $({ $( $f: <$ft>::sample() ),* })?
                    $(( <$tt>::sample() ))? ),*]
            }
        }
    };
    (
        $(#[$m:meta])*
        pub enum $Enum:ident in $codes:ident, fn $decode:ident(&$Src:ty) {
            $(
                $(#[$vm:meta])*
                $Var:ident = $op:literal
                $({ $( $(#[$fm:meta])* $f:ident : $ft:ty ),* $(,)? })?
                $(( $tf:ident : $tt:ty ))?
            ),* $(,)?
        }
    ) => {
        $(#[$m])*
        pub enum $Enum {
            $( $(#[$vm])* $Var $({ $( $(#[$fm])* $f: $ft ),* })? $(($tt))? ),*
        }
        wire_enum!(impl $Enum in $codes {
            $( $Var = $op $({ $($f: $ft),* })? $(($tf: $tt))? ),*
        });
        impl $Enum {
            /// Serialize to a byte frame: [`PROTO_VERSION`], the opcode,
            /// then the fields.
            pub fn encode(&self) -> Vec<u8> {
                encode_frame(self)
            }

            /// Decode one frame. From a [`FrameView`], the [`Payload`]
            /// and [`Symbol`] fields are refcounted sub-views of it: no
            /// payload byte is copied.
            ///
            /// # Errors
            ///
            /// [`ProtoError`] on truncation, version/opcode mismatch, bad
            /// UTF-8, or trailing bytes. Never panics on malformed input.
            pub fn $decode(frame: &$Src) -> Result<Self, ProtoError> {
                decode_frame(Reader::from(frame))
            }
        }
    };
}

#[inline]
fn encode_frame(m: &impl Wire) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    PROTO_VERSION.put(&mut buf);
    m.put(&mut buf);
    buf
}

#[inline]
fn decode_frame<M: Wire>(mut r: Reader<'_>) -> Result<M, ProtoError> {
    let version = u8::get(&mut r)?;
    if version != PROTO_VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let m = M::get(&mut r)?;
    match r.buf.len() - r.pos {
        0 => Ok(m),
        n => Err(ProtoError::TrailingBytes(n)),
    }
}

wire_struct!(impl LaunchConfig { grid, block });
wire_struct!(impl InterceptionStats { launches, lookup_ns, augment_ns, enqueue_ns });
wire_struct!(impl LaunchStats { runtime, driver });
wire_struct!(impl PlacementHint { device, affinity });
wire_struct!(impl TraceEvent {
    seq, op, outcome, client, uid, stream,
    t_decode_ns, t_admit_ns, t_flush_ns, t_enqueue_ns, t_complete_ns,
});

wire_enum!(impl Affinity in affinity_code { Strict = 0, Prefer = 1 });

wire_enum!(impl CudaError in error_code {
    OutOfMemory = 1,
    InvalidValue = 2,
    InvalidDeviceFunction = 3 (symbol: String),
    ContextPoisoned = 4,
    ModuleLoad = 5 (msg: String),
    MissingExportTable = 6 (id: u32),
    Rejected = 7 (msg: String),
    Disconnected = 8,
});

// ---- the tenant plane ------------------------------------------------------

wire_enum! {
    /// A client-to-manager message (one per CUDA call crossing the boundary).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request in req_op, fn decode_view(&FrameView) {
        /// Open a tenancy: reserve a partition of at least `mem_requirement`
        /// bytes (§4.2.1 — applications declare memory up front).
        Connect = 1 {
            /// Bytes of device memory the tenant requires.
            mem_requirement: u64,
            /// Multi-GPU placement request. `None` routes by the manager's
            /// policy.
            hint: Option<PlacementHint>,
            /// Requested scheduling class, wire-encoded per
            /// [`crate::control::QosClass::to_wire`]: 0 = best-effort (the
            /// default), 1 = latency — granted only if the tenant's lease
            /// permits it.
            qos: u8,
        },
        /// Close the tenancy, releasing the partition. One-way: the client
        /// does not wait for a reply (it may already be tearing down).
        Disconnect = 2,
        /// Register a fatbin; the manager sandboxes and loads every PTX image
        /// inside it (§4.2.3).
        RegisterFatbin = 3 {
            /// Raw fatbin container bytes.
            bytes: Payload,
        },
        /// Register one PTX translation unit (`cuModuleLoadData`).
        RegisterPtx = 4 {
            /// Module name (diagnostic only).
            name: String,
            /// PTX source text.
            text: String,
        },
        /// Allocate from the tenant's partition heap.
        Malloc = 5 {
            /// Requested size in bytes.
            bytes: u64,
        },
        /// Release a partition-heap allocation.
        Free = 6 {
            /// Pointer previously returned by `Malloc`.
            ptr: DevicePtr,
        },
        /// Release a partition-heap allocation, **one-way**: no frame comes
        /// back. Deferred-launch clients free this way, so a free rides in
        /// front of the next round trip instead of costing one; a bad
        /// pointer's error sticks to the tenant and surfaces at the next
        /// `Sync`, like a `MemcpyH2DAsync`'s.
        FreeAsync = 22 {
            /// Pointer previously returned by `Malloc`.
            ptr: DevicePtr,
        },
        /// Fill `[dst, dst+len)` with `byte`.
        Memset = 7 {
            /// Destination device address.
            dst: DevicePtr,
            /// Fill byte.
            byte: u8,
            /// Length in bytes.
            len: u64,
        },
        /// Host-to-device copy of the first `len` bytes of the connection's
        /// transfer [`Window`](crate::transport::Window): the frame carries
        /// only the descriptor, the bytes wait in the window.
        MemcpyH2D = 8 {
            /// Destination device address.
            dst: DevicePtr,
            /// Bytes to copy from the window's start.
            len: u64,
        },
        /// Host-to-device copy, **one-way**: no frame comes back. Used
        /// by deferred-launch clients for small payloads so copies batch
        /// with the launches around them; errors stick to the tenant and
        /// surface at the next `Sync`, like a deferred `Launch`'s.
        MemcpyH2DAsync = 21 {
            /// Destination device address.
            dst: DevicePtr,
            /// Bytes to write.
            data: Payload,
        },
        /// Device-to-host copy into the first `len` bytes of the
        /// connection's transfer [`Window`](crate::transport::Window); the
        /// reply is [`Response::Unit`] once the bytes are there.
        MemcpyD2H = 9 {
            /// Source device address.
            src: DevicePtr,
            /// Length in bytes.
            len: u64,
        },
        /// Device-to-device copy within the tenant's partition.
        MemcpyD2D = 10 {
            /// Destination device address.
            dst: DevicePtr,
            /// Source device address.
            src: DevicePtr,
            /// Length in bytes.
            len: u64,
        },
        /// Launch a kernel on the tenant's stream. The manager swaps in the
        /// sandboxed twin and appends the partition bounds (§4.2.3).
        Launch = 11 {
            /// Kernel symbol name.
            kernel: Symbol,
            /// Grid/block geometry.
            cfg: LaunchConfig,
            /// Flat argument buffer in driver layout.
            args: Payload,
            /// `true` for `cuLaunchKernel`, `false` for `cudaLaunchKernel`;
            /// the manager accounts the two interception paths separately
            /// (Table 5).
            driver_level: bool,
        },
        /// Drain the device and surface any pending fault or deferred launch
        /// error (`cudaDeviceSynchronize`).
        Sync = 12,
        /// Create a timing event (`cudaEventCreate`).
        EventCreate = 13,
        /// Record an event on the tenant's stream (`cudaEventRecord`).
        EventRecord = 14 {
            /// Event id from `EventCreate`.
            event: u32,
        },
        /// Elapsed milliseconds between two recorded events.
        EventElapsed = 15 {
            /// Start event id.
            start: u32,
            /// End event id.
            end: u32,
        },
        /// Current device time in cycles (benchmarking; no tenancy needed).
        DeviceNow = 16,
        /// Interception/dispatch statistics (benchmarking; no tenancy needed).
        Stats = 17,
        /// Enumerate the manager's device set: per-GPU pool capacity, load,
        /// and tenant count (no tenancy needed).
        DeviceInfo = 18,
        /// Migrate this tenant's partition to another GPU. The manager
        /// drains the source, copies live allocations offset-stable into a
        /// fresh partition on the destination, rebinds the session, and
        /// replies with a new [`ConnectInfo`] — the tenant translates its
        /// device pointers by `new_base - old_base`.
        Migrate = 19 {
            /// Destination device index.
            device: u32,
        },
        /// Re-read this tenant's current binding: device, partition
        /// base/size. A tenant migrated *by the manager* (rebalancing) has a
        /// stale pointer frame until it asks; the reply is the same
        /// [`ConnectInfo`] shape `Connect`/`Migrate` return.
        Binding = 20,
    }
}

wire_struct! {
    /// Connection handshake data returned for [`Request::Connect`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ConnectInfo {
        /// The client id the manager assigned to this connection.
        pub client: u32,
        /// Device core clock in GHz (for `cudaGetDeviceProperties`-style use).
        pub clock_ghz: f64,
        /// Absolute base address of the tenant's partition.
        pub partition_base: u64,
        /// Partition size in bytes (power of two).
        pub partition_size: u64,
        /// When `true` the manager runs launches in deferred-ack mode: the
        /// client must not wait for a `Launch` response; launch errors are
        /// sticky and surface at the next `Sync`.
        pub deferred_launch: bool,
        /// Index of the GPU the tenant was placed on.
        pub device: u32,
        /// Memory cap of the lease this tenancy was admitted under
        /// (`u64::MAX` = uncapped).
        pub lease_mem: u64,
        /// Wall-clock TTL of the lease in milliseconds (0 = the lease never
        /// expires).
        pub lease_ttl_ms: u64,
        /// Granted scheduling class, wire-encoded: 0 = best-effort,
        /// 1 = latency.
        pub qos: u8,
    }
}

wire_struct! {
    /// One device's row in a [`Response::Devices`] answer.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DeviceInfo {
        /// Device index in the manager's set.
        pub index: u32,
        /// GPU model name.
        pub name: String,
        /// Core clock in GHz.
        pub clock_ghz: f64,
        /// Partition-pool capacity on this device, bytes.
        pub pool_bytes: u64,
        /// Pool bytes currently held by partitions.
        pub used_bytes: u64,
        /// Tenants currently bound to this device.
        pub tenants: u32,
    }
}

wire_enum! {
    /// A manager-to-client message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response in resp_op, fn decode(&[u8]) {
        /// Success with no payload.
        Unit = 1,
        /// Successful `Connect`.
        Connected = 2 (info: ConnectInfo),
        /// A device pointer (`Malloc`).
        Ptr = 3 (ptr: DevicePtr),
        // 4 is retired: v5's inline D2H data reply.
        /// A new event id (`EventCreate`).
        EventId = 5 (event: u32),
        /// Elapsed milliseconds (`EventElapsed`).
        ElapsedMs = 6 (ms: f32),
        /// Device cycles (`DeviceNow`).
        Cycles = 7 (cycles: u64),
        /// Per-path launch interception costs, Table 5 (`Stats`).
        Stats = 8 (stats: LaunchStats),
        /// The manager's device set (`DeviceInfo`).
        Devices = 10 (devices: Vec<DeviceInfo>),
        /// The call failed.
        Error = 9 (error: CudaError),
    }
}

/// Encode a [`Request::Launch`] frame directly from borrowed fields: the
/// bytes `Request::Launch { .. }.encode()` would produce, without first
/// copying the kernel name and argument buffer into an owned `Request`.
pub fn encode_launch(kernel: &str, cfg: &LaunchConfig, args: &[u8], driver_level: bool) -> Vec<u8> {
    let mut buf = encode_frame(&req_op::Launch);
    put_bytes(kernel.as_bytes(), &mut buf);
    cfg.put(&mut buf);
    put_bytes(args, &mut buf);
    driver_level.put(&mut buf);
    buf
}

/// Encode a [`Request::MemcpyH2DAsync`] frame directly from a borrowed
/// payload (hot-path helper; see [`encode_launch`]).
pub fn encode_memcpy_h2d_async(dst: DevicePtr, data: &[u8]) -> Vec<u8> {
    let mut buf = encode_frame(&req_op::MemcpyH2DAsync);
    dst.put(&mut buf);
    put_bytes(data, &mut buf);
    buf
}

// ---- the admin plane -------------------------------------------------------

wire_struct! {
    /// One tenant's row in an [`AdminResponse::Tenants`] answer.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TenantInfo {
        /// Client id the manager assigned at connect.
        pub client: u32,
        /// Unix uid of the owning process (`SO_PEERCRED`).
        pub uid: u32,
        /// Device index the tenant is currently bound to.
        pub device: u32,
        /// Partition size in bytes.
        pub partition_size: u64,
        /// Lease memory cap in bytes (`u64::MAX` = uncapped).
        pub lease_mem: u64,
        /// Lease TTL in milliseconds (0 = no expiry).
        pub lease_ttl_ms: u64,
        /// Milliseconds since the lease was granted.
        pub age_ms: u64,
        /// Partition-heap bytes currently held.
        pub bytes_held: u64,
        /// Kernel launches dispatched so far.
        pub launches: u64,
        /// Host/device transfers dispatched so far.
        pub transfers: u64,
        /// Bytes moved by those transfers.
        pub transfer_bytes: u64,
        /// Granted scheduling class, wire-encoded: 0 = best-effort,
        /// 1 = latency.
        pub qos: u8,
        /// Launches admitted but not yet completed — compared against
        /// the executor's best-effort inflight budget.
        pub inflight: u64,
    }
}

wire_struct! {
    /// One per-uid usage row in an [`AdminResponse::Quota`] answer,
    /// aggregated per device and including usage retired by tenants that
    /// already disconnected (or were killed).
    #[derive(Debug, Clone, PartialEq)]
    pub struct UsageInfo {
        /// Unix uid the usage belongs to.
        pub uid: u32,
        /// Device index the usage accrued on.
        pub device: u32,
        /// Tenants of this uid currently live on this device.
        pub live: u32,
        /// Partition-heap bytes currently held by live tenants.
        pub bytes_held: u64,
        /// Kernel launches, live + retired.
        pub launches: u64,
        /// Transfers, live + retired.
        pub transfers: u64,
        /// Transfer bytes, live + retired.
        pub transfer_bytes: u64,
        /// Milliseconds of tenancy occupancy, live + retired.
        pub occupancy_ms: u64,
    }
}

wire_enum! {
    /// An operator-to-manager message on the **admin plane**: the
    /// separate uds socket `guardiand --admin-socket` binds, spoken by
    /// `guardianctl`. Admin frames never travel on tenant connections —
    /// the session layer has no decoder for them — so a tenant cannot
    /// grant itself a lease.
    #[derive(Debug, Clone, PartialEq)]
    pub enum AdminRequest in admin_req_op, fn decode(&[u8]) {
        /// Enumerate the device set (pool capacity, load, tenant count).
        Devices = 1,
        /// List live tenants with their leases and usage counters.
        Tenants = 2,
        /// Set the lease future connects by `uid` are admitted under.
        LeaseSet = 3 {
            /// Unix uid the lease applies to.
            uid: u32,
            /// Memory cap in bytes (`u64::MAX` = uncapped).
            mem_bytes: u64,
            /// Device streams the tenant may hold (0 denies admission).
            streams: u32,
            /// Wall-clock TTL in milliseconds (0 = no expiry).
            ttl_ms: u64,
            /// Highest scheduling class the lease grants, wire-encoded:
            /// 0 = best-effort, 1 = latency.
            /// Lowering a live lease to best-effort demotes its tenants in
            /// place.
            qos: u8,
        },
        /// Revoke a live tenancy: drain it, reclaim the partition, and
        /// retire its usage into the uid's quota aggregate.
        LeaseRevoke = 4 {
            /// Client id from the tenants table.
            client: u32,
        },
        /// Per-uid usage accounting, aggregated per device; `None` reports
        /// every uid.
        Quota = 5 {
            /// Restrict the answer to one uid.
            uid: Option<u32>,
        },
        /// Prometheus-text exposition of every node metric.
        Metrics = 6,
        /// Dump the flight recorders: every live session's ring of
        /// recent trace events; `None` reports every tenant.
        Trace = 7 {
            /// Restrict the dump to sessions owned by one uid.
            uid: Option<u32>,
        },
    }
}

wire_enum! {
    /// A manager-to-operator message on the admin plane. Every
    /// variant carries the node id so responses stay attributable when a
    /// future federation layer fans `guardianctl` out across a fleet.
    #[derive(Debug, Clone, PartialEq)]
    pub enum AdminResponse in admin_resp_op, fn decode(&[u8]) {
        /// The device set ([`AdminRequest::Devices`]).
        Devices = 1 {
            /// Responding node.
            node: String,
            /// One row per GPU.
            devices: Vec<DeviceInfo>,
        },
        /// The live-tenant table ([`AdminRequest::Tenants`]).
        Tenants = 2 {
            /// Responding node.
            node: String,
            /// One row per live tenancy.
            tenants: Vec<TenantInfo>,
        },
        /// Success with no payload (lease set / revoke).
        Ok = 3 {
            /// Responding node.
            node: String,
        },
        /// Usage accounting ([`AdminRequest::Quota`]).
        Quota = 4 {
            /// Responding node.
            node: String,
            /// One row per (uid, device) with any recorded usage.
            entries: Vec<UsageInfo>,
        },
        /// Prometheus-text metrics ([`AdminRequest::Metrics`]).
        Metrics = 5 {
            /// Responding node.
            node: String,
            /// The exposition body.
            text: String,
        },
        /// A flight-recorder dump ([`AdminRequest::Trace`]).
        Trace = 7 {
            /// Responding node.
            node: String,
            /// Trace events across the selected sessions, oldest first.
            events: Vec<TraceEvent>,
        },
        /// The admin call failed (unknown client, malformed lease, …).
        Error = 6 {
            /// Responding node.
            node: String,
            /// Human-readable failure reason.
            msg: String,
        },
    }
}

/// Errors produced when decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The frame ended before the message did.
    Truncated,
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown message opcode.
    BadOpcode(u8),
    /// The message decoded but bytes were left over.
    TrailingBytes(usize),
    /// A string field held invalid UTF-8.
    BadUtf8,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => f.write_str("frame truncated"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            ProtoError::BadUtf8 => f.write_str("invalid UTF-8 in string field"),
        }
    }
}

impl std::error::Error for ProtoError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(frame: &[u8]) -> FrameView {
        FrameView::from(frame.to_vec())
    }

    /// A representative value of a wire type. Every table row gets one
    /// value built from its fields' samples (`every_row`), so a new row
    /// is covered by the row-wide checks below without new test code.
    pub(super) trait Sample: Sized {
        fn sample() -> Self;
        /// For a tagged enum, one value per row, every field at its
        /// sample value.
        fn every_row() -> Vec<Self> {
            vec![Self::sample()]
        }
    }

    macro_rules! sample {
        ($($t:ty => $v:expr),* $(,)?) => {
            $(impl Sample for $t {
                fn sample() -> Self {
                    $v
                }
            })*
        };
    }

    sample! {
        u8 => 0xA5,
        u32 => 0xDEAD_BEEF,
        u64 => u64::MAX - 1,
        f32 => 3.25,
        f64 => 1.56,
        bool => true,
        String => "sample".into(),
        Payload => vec![1, 2, 3].into(),
        Symbol => "kernel".into(),
    }

    impl<T: Sample> Sample for Option<T> {
        fn sample() -> Self {
            Some(T::sample())
        }
    }

    impl<T: Sample> Sample for Vec<T> {
        fn sample() -> Self {
            vec![T::sample(), T::sample()]
        }
    }

    impl<A: Sample, B: Sample, C: Sample> Sample for (A, B, C) {
        fn sample() -> Self {
            (A::sample(), B::sample(), C::sample())
        }
    }

    /// For one sample value per row: encode → decode is the identity,
    /// every strict prefix of the frame is refused as `Truncated`, and
    /// one trailing byte is refused as `TrailingBytes(1)`.
    fn check_every_row<M: Wire + PartialEq + fmt::Debug>(rows: Vec<M>) {
        let decode = |f: &[u8]| decode_frame::<M>(Reader::from(&view(f)));
        for m in rows {
            let frame = encode_frame(&m);
            assert_eq!(decode(&frame).as_ref(), Ok(&m), "round trip");
            for cut in 0..frame.len() {
                let prefix = &frame[..cut];
                assert_eq!(
                    decode(prefix),
                    Err(ProtoError::Truncated),
                    "{m:?} cut at {cut}"
                );
            }
            let mut long = frame;
            long.push(0);
            assert_eq!(decode(&long), Err(ProtoError::TrailingBytes(1)), "{m:?}");
        }
    }

    #[test]
    fn every_row_round_trips_and_refuses_truncation_and_trailing_bytes() {
        check_every_row(Request::every_row());
        check_every_row(Response::every_row());
        check_every_row(AdminRequest::every_row());
        check_every_row(AdminResponse::every_row());
        check_every_row(CudaError::every_row());
        check_every_row(Affinity::every_row());
    }

    /// Edge values for every `Request` variant.
    fn request_cases() -> Vec<Request> {
        vec![
            Request::Connect {
                mem_requirement: u64::MAX,
                hint: None,
                qos: 0,
            },
            Request::Connect {
                mem_requirement: 1 << 20,
                hint: Some(PlacementHint::pin(3)),
                qos: 1,
            },
            Request::Connect {
                mem_requirement: 1 << 20,
                hint: Some(PlacementHint {
                    device: None,
                    affinity: Affinity::Prefer,
                }),
                qos: 0,
            },
            Request::Disconnect,
            Request::RegisterFatbin {
                bytes: vec![].into(),
            },
            Request::RegisterFatbin {
                bytes: vec![0xFF; 1024].into(),
            },
            Request::RegisterPtx {
                name: String::new(),
                text: ".version 7.7\n".into(),
            },
            Request::Malloc { bytes: 0 },
            Request::Free { ptr: 1 << 40 },
            Request::FreeAsync { ptr: u64::MAX },
            Request::Memset {
                dst: 0,
                byte: 0xAB,
                len: u64::MAX,
            },
            Request::MemcpyH2D {
                dst: 7,
                len: u64::MAX,
            },
            Request::MemcpyH2DAsync {
                dst: u64::MAX,
                data: vec![].into(),
            },
            Request::MemcpyD2H { src: 9, len: 4096 },
            Request::MemcpyD2D {
                dst: 1,
                src: 2,
                len: 3,
            },
            Request::Launch {
                kernel: "gemm".into(),
                cfg: LaunchConfig {
                    grid: (1, 2, 3),
                    block: (4, 5, 6),
                },
                args: vec![0u8; 64].into(),
                driver_level: true,
            },
            Request::Sync,
            Request::EventCreate,
            Request::EventRecord { event: u32::MAX },
            Request::EventElapsed { start: 1, end: 2 },
            Request::DeviceNow,
            Request::Stats,
            Request::DeviceInfo,
            Request::Migrate { device: u32::MAX },
            Request::Binding,
        ]
    }

    #[test]
    fn request_round_trip_edge_values() {
        for req in request_cases() {
            let frame = req.encode();
            assert_eq!(Request::decode_view(&view(&frame)).unwrap(), req, "{req:?}");
        }
    }

    /// Edge values for every `Response` variant and every `CudaError`.
    fn response_cases() -> Vec<Response> {
        vec![
            Response::Unit,
            Response::Connected(ConnectInfo {
                client: 3,
                clock_ghz: 1.56,
                partition_base: 1 << 40,
                partition_size: 1 << 26,
                deferred_launch: true,
                device: 2,
                lease_mem: 16 << 20,
                lease_ttl_ms: 30_000,
                qos: 1,
            }),
            Response::Devices(vec![]),
            Response::Devices(vec![
                DeviceInfo {
                    index: 0,
                    name: "Quadro RTX A4000".into(),
                    clock_ghz: 1.56,
                    pool_bytes: 8 << 30,
                    used_bytes: 2 << 30,
                    tenants: 3,
                },
                DeviceInfo {
                    index: 1,
                    name: String::new(),
                    clock_ghz: 0.0,
                    pool_bytes: u64::MAX,
                    used_bytes: 0,
                    tenants: u32::MAX,
                },
            ]),
            Response::Ptr(u64::MAX),
            Response::EventId(0),
            Response::ElapsedMs(3.25),
            Response::Cycles(123_456),
            Response::Stats(LaunchStats {
                runtime: InterceptionStats {
                    launches: 1,
                    lookup_ns: 2,
                    augment_ns: 3,
                    enqueue_ns: 4,
                },
                driver: InterceptionStats {
                    launches: 5,
                    lookup_ns: 6,
                    augment_ns: 7,
                    enqueue_ns: 8,
                },
            }),
            Response::Error(CudaError::OutOfMemory),
            Response::Error(CudaError::InvalidValue),
            Response::Error(CudaError::InvalidDeviceFunction("missing".into())),
            Response::Error(CudaError::ContextPoisoned),
            Response::Error(CudaError::ModuleLoad("bad ptx".into())),
            Response::Error(CudaError::MissingExportTable(42)),
            Response::Error(CudaError::Rejected("out of partition".into())),
            Response::Error(CudaError::Disconnected),
        ]
    }

    #[test]
    fn response_round_trip_edge_values() {
        for resp in response_cases() {
            let frame = resp.encode();
            assert_eq!(Response::decode(&frame).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn borrowing_encoders_match_owned_encoding() {
        // The hot-path helpers write the row's fields themselves, so they
        // must stay frame-identical to the owned Request encoding.
        let cfg = LaunchConfig {
            grid: (3, 2, 1),
            block: (32, 1, 1),
        };
        let owned = Request::Launch {
            kernel: "gemm".into(),
            cfg,
            args: vec![7u8; 48].into(),
            driver_level: true,
        };
        assert_eq!(
            owned.encode(),
            encode_launch("gemm", &cfg, &[7u8; 48], true)
        );
        let owned = Request::MemcpyH2DAsync {
            dst: 0xABCD,
            data: vec![1, 2, 3].into(),
        };
        assert_eq!(owned.encode(), encode_memcpy_h2d_async(0xABCD, &[1, 2, 3]));
    }

    #[test]
    fn stats_snapshot_split_survives_round_trip() {
        // The driver/runtime split (Table 5) must not collapse on the
        // wire: each path's counters come back in their own slot.
        let snap = LaunchStats {
            runtime: InterceptionStats {
                launches: 10,
                lookup_ns: 100,
                augment_ns: 200,
                enqueue_ns: 300,
            },
            driver: InterceptionStats {
                launches: 7,
                lookup_ns: 70,
                augment_ns: 140,
                enqueue_ns: 210,
            },
        };
        let frame = Response::Stats(snap).encode();
        match Response::decode(&frame).unwrap() {
            Response::Stats(back) => {
                assert_eq!(back.runtime.launches, 10);
                assert_eq!(back.driver.launches, 7);
                assert_eq!(back.combined().launches, 17);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    /// This build speaks one wire version, v7. A frame of any other
    /// version byte — v6, whose `Stats` reply carried a dispatch-overlap
    /// counter, v5, whose copies carried their bytes inline, the retired
    /// v1–v4, or a future one — is refused by every decoder of every
    /// message family, before its body is read.
    #[test]
    fn frames_of_any_other_version_are_refused() {
        assert_eq!(PROTO_VERSION, 7);
        type Decode = fn(&[u8]) -> Result<(), ProtoError>;
        let ok = AdminResponse::Ok { node: "n".into() };
        let cases: [(&str, Vec<u8>, Decode); 4] = [
            ("Request", Request::Sync.encode(), |f| {
                Request::decode_view(&view(f)).map(drop)
            }),
            ("Response", Response::Unit.encode(), |f| {
                Response::decode(f).map(drop)
            }),
            ("AdminRequest", AdminRequest::Metrics.encode(), |f| {
                AdminRequest::decode(f).map(drop)
            }),
            ("AdminResponse", ok.encode(), |f| {
                AdminResponse::decode(f).map(drop)
            }),
        ];
        for v in (0..PROTO_VERSION).chain([PROTO_VERSION + 1, u8::MAX]) {
            for (family, frame, decode) in &cases {
                let mut f = frame.clone();
                f[0] = v;
                assert_eq!(decode(&f), Err(ProtoError::BadVersion(v)), "{family} v{v}");
                f[0] = PROTO_VERSION;
                assert_eq!(decode(&f), Ok(()), "{family}");
            }
        }
    }

    /// Edge values for every `AdminRequest` variant.
    fn admin_request_cases() -> Vec<AdminRequest> {
        vec![
            AdminRequest::Devices,
            AdminRequest::Tenants,
            AdminRequest::LeaseSet {
                uid: u32::MAX,
                mem_bytes: u64::MAX,
                streams: 0,
                ttl_ms: 1,
                qos: 1,
            },
            AdminRequest::LeaseRevoke { client: 7 },
            AdminRequest::Quota { uid: None },
            AdminRequest::Quota { uid: Some(1000) },
            AdminRequest::Metrics,
            AdminRequest::Trace { uid: None },
            AdminRequest::Trace {
                uid: Some(u32::MAX),
            },
        ]
    }

    /// Edge values for every `AdminResponse` variant.
    fn admin_response_cases() -> Vec<AdminResponse> {
        vec![
            AdminResponse::Devices {
                node: "node-a".into(),
                devices: vec![DeviceInfo {
                    index: 1,
                    name: "A4000".into(),
                    clock_ghz: 1.56,
                    pool_bytes: 8 << 30,
                    used_bytes: 0,
                    tenants: 0,
                }],
            },
            AdminResponse::Tenants {
                node: String::new(),
                tenants: vec![TenantInfo {
                    client: 3,
                    uid: 1000,
                    device: 1,
                    partition_size: 1 << 22,
                    lease_mem: u64::MAX,
                    lease_ttl_ms: 0,
                    age_ms: 1234,
                    bytes_held: 4096,
                    launches: u64::MAX,
                    transfers: 9,
                    transfer_bytes: 1 << 40,
                    qos: 1,
                    inflight: 17,
                }],
            },
            AdminResponse::Ok {
                node: "node-a".into(),
            },
            AdminResponse::Quota {
                node: "node-a".into(),
                entries: vec![UsageInfo {
                    uid: 0,
                    device: u32::MAX,
                    live: 2,
                    bytes_held: 1,
                    launches: 2,
                    transfers: 3,
                    transfer_bytes: 4,
                    occupancy_ms: 5,
                }],
            },
            AdminResponse::Metrics {
                node: "node-a".into(),
                text: "# HELP guardian_tenants Live tenants.\nguardian_tenants 2\n".into(),
            },
            AdminResponse::Trace {
                node: "node-a".into(),
                events: vec![
                    crate::telemetry::TraceEvent::default(),
                    crate::telemetry::TraceEvent {
                        seq: u64::MAX,
                        op: 4,
                        outcome: 1,
                        client: u32::MAX,
                        uid: 1000,
                        stream: 3,
                        t_decode_ns: 1,
                        t_admit_ns: 2,
                        t_flush_ns: 3,
                        t_enqueue_ns: u64::MAX,
                        t_complete_ns: 5,
                    },
                ],
            },
            AdminResponse::Error {
                node: "node-a".into(),
                msg: "no such client 99".into(),
            },
        ]
    }

    #[test]
    fn admin_round_trip_edge_values() {
        for req in admin_request_cases() {
            let frame = req.encode();
            assert_eq!(AdminRequest::decode(&frame).unwrap(), req, "{req:?}");
        }
        for resp in admin_response_cases() {
            let frame = resp.encode();
            assert_eq!(AdminResponse::decode(&frame).unwrap(), resp, "{resp:?}");
        }
        // Tenant-plane frames are not admin frames: an admin socket fed
        // a tenant Sync (opcode 12) must reject it, not misparse it.
        assert!(AdminRequest::decode(&Request::Sync.encode()).is_err());
    }

    #[test]
    fn malformed_frames_error_without_panic() {
        assert_eq!(Request::decode_view(&view(&[])), Err(ProtoError::Truncated));
        assert_eq!(
            Request::decode_view(&view(&[9, req_op::Sync])),
            Err(ProtoError::BadVersion(9))
        );
        // A hint with an unknown affinity discriminant is rejected.
        let mut f = encode_frame(&req_op::Connect);
        f.extend_from_slice(&0u64.to_le_bytes());
        f.extend_from_slice(&[1, 0, 99]); // has_hint, no device, bad affinity
        assert_eq!(
            Request::decode_view(&view(&f)),
            Err(ProtoError::BadOpcode(99))
        );
        assert_eq!(
            Request::decode_view(&view(&[PROTO_VERSION, 250])),
            Err(ProtoError::BadOpcode(250))
        );
        // Truncated string length prefix.
        assert_eq!(
            Request::decode_view(&view(&[PROTO_VERSION, req_op::Launch, 0xFF, 0xFF])),
            Err(ProtoError::Truncated)
        );
        // Length prefix larger than the frame.
        let mut f = vec![PROTO_VERSION, req_op::RegisterFatbin];
        f.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Request::decode_view(&view(&f)), Err(ProtoError::Truncated));
        // Trailing garbage.
        let mut f = Request::Sync.encode();
        f.push(0);
        assert_eq!(
            Request::decode_view(&view(&f)),
            Err(ProtoError::TrailingBytes(1))
        );
        // Bad UTF-8 in a string field.
        let mut f = encode_frame(&req_op::RegisterPtx);
        put_bytes(&[0xFF, 0xFE], &mut f);
        put_bytes(b"", &mut f);
        assert_eq!(Request::decode_view(&view(&f)), Err(ProtoError::BadUtf8));
    }

    /// The checked-in wire fixture: one line per edge-value case,
    /// `<family> <frame as hex> <value as Debug>`.
    const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/proto_v7.golden");

    fn hex(frame: &[u8]) -> String {
        frame.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    /// A golden line, paired with a check that its frame decodes back to
    /// the case it was encoded from.
    type GoldenCase = (String, Box<dyn Fn(&[u8]) -> bool>);

    /// Every edge-value case of the four families as a golden line.
    fn golden_lines() -> Vec<GoldenCase> {
        fn line<T: fmt::Debug>(family: &str, frame: &[u8], value: &T) -> String {
            format!("{family} {} {value:?}", hex(frame))
        }
        let mut out: Vec<GoldenCase> = Vec::new();
        for v in request_cases() {
            let l = line("Request", &v.encode(), &v);
            out.push((
                l,
                Box::new(move |f| Request::decode_view(&view(f)) == Ok(v.clone())),
            ));
        }
        for v in response_cases() {
            let l = line("Response", &v.encode(), &v);
            out.push((l, Box::new(move |f| Response::decode(f) == Ok(v.clone()))));
        }
        for v in admin_request_cases() {
            let l = line("AdminRequest", &v.encode(), &v);
            out.push((
                l,
                Box::new(move |f| AdminRequest::decode(f) == Ok(v.clone())),
            ));
        }
        for v in admin_response_cases() {
            let l = line("AdminResponse", &v.encode(), &v);
            out.push((
                l,
                Box::new(move |f| AdminResponse::decode(f) == Ok(v.clone())),
            ));
        }
        out
    }

    /// Every case encodes to exactly the checked-in bytes, and every
    /// checked-in frame decodes to its case: the wire format cannot move
    /// without this file moving with it.
    #[test]
    fn frames_match_golden_file() {
        let fixture = std::fs::read_to_string(GOLDEN).expect("read golden fixture");
        let want: Vec<&str> = fixture.lines().collect();
        let cases = golden_lines();
        assert_eq!(want.len(), cases.len(), "golden line count");
        for (want, (got, decodes_back)) in want.iter().zip(&cases) {
            assert_eq!(*want, got, "encoding moved");
            let frame = unhex(want.split(' ').nth(1).expect("hex column"));
            assert!(decodes_back(&frame), "decode of golden frame: {want}");
        }
    }

    /// Rewrites the golden fixture from the current encoder. Run only
    /// after a deliberate wire change (with a `PROTO_VERSION` bump):
    /// `cargo test -p guardian golden_recapture -- --ignored`.
    #[test]
    #[ignore]
    fn golden_recapture() {
        let text: String = golden_lines().into_iter().map(|(l, _)| l + "\n").collect();
        std::fs::write(GOLDEN, text).expect("write golden fixture");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;

    fn view(frame: &[u8]) -> FrameView {
        FrameView::from(frame.to_vec())
    }
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;
    use proptest::strategy::BoxedStrategy;

    fn arb_string() -> BoxedStrategy<String> {
        // Printable ASCII is enough to exercise the length-prefixed
        // framing; UTF-8 *rejection* is covered by the unit tests.
        pvec(0x20u8..0x7F, 0..24)
            .prop_map(|b| b.into_iter().map(char::from).collect())
            .boxed()
    }

    fn arb_blob() -> BoxedStrategy<Vec<u8>> {
        pvec(any::<u8>(), 0..200).boxed()
    }

    fn arb_cfg() -> BoxedStrategy<LaunchConfig> {
        (
            (any::<u32>(), any::<u32>(), any::<u32>()),
            (any::<u32>(), any::<u32>(), any::<u32>()),
        )
            .prop_map(|(grid, block)| LaunchConfig { grid, block })
            .boxed()
    }

    fn arb_error() -> BoxedStrategy<CudaError> {
        prop_oneof![
            Just(CudaError::OutOfMemory).boxed(),
            Just(CudaError::InvalidValue).boxed(),
            arb_string()
                .prop_map(CudaError::InvalidDeviceFunction)
                .boxed(),
            Just(CudaError::ContextPoisoned).boxed(),
            arb_string().prop_map(CudaError::ModuleLoad).boxed(),
            any::<u32>().prop_map(CudaError::MissingExportTable).boxed(),
            arb_string().prop_map(CudaError::Rejected).boxed(),
            Just(CudaError::Disconnected).boxed(),
        ]
        .boxed()
    }

    fn arb_hint() -> BoxedStrategy<Option<PlacementHint>> {
        (
            (any::<bool>(), any::<bool>()),
            (any::<u32>(), any::<bool>()),
        )
            .prop_map(|((has_hint, has_device), (device, strict))| {
                has_hint.then(|| PlacementHint {
                    device: has_device.then_some(device),
                    affinity: if strict {
                        Affinity::Strict
                    } else {
                        Affinity::Prefer
                    },
                })
            })
            .boxed()
    }

    /// Every request variant, fields drawn at random.
    fn arb_request() -> BoxedStrategy<Request> {
        prop_oneof![
            (any::<u64>(), arb_hint(), 0u8..2)
                .prop_map(|(mem_requirement, hint, qos)| Request::Connect {
                    mem_requirement,
                    hint,
                    qos,
                })
                .boxed(),
            Just(Request::Disconnect).boxed(),
            arb_blob()
                .prop_map(|bytes: Vec<u8>| Request::RegisterFatbin {
                    bytes: bytes.into()
                })
                .boxed(),
            (arb_string(), arb_string())
                .prop_map(|(name, text)| Request::RegisterPtx { name, text })
                .boxed(),
            any::<u64>()
                .prop_map(|bytes| Request::Malloc { bytes })
                .boxed(),
            any::<u64>().prop_map(|ptr| Request::Free { ptr }).boxed(),
            any::<u64>()
                .prop_map(|ptr| Request::FreeAsync { ptr })
                .boxed(),
            (any::<u64>(), any::<u8>(), any::<u64>())
                .prop_map(|(dst, byte, len)| Request::Memset { dst, byte, len })
                .boxed(),
            (any::<u64>(), any::<u64>())
                .prop_map(|(dst, len)| Request::MemcpyH2D { dst, len })
                .boxed(),
            (any::<u64>(), arb_blob())
                .prop_map(|(dst, data): (u64, Vec<u8>)| Request::MemcpyH2DAsync {
                    dst,
                    data: data.into()
                })
                .boxed(),
            (any::<u64>(), any::<u64>())
                .prop_map(|(src, len)| Request::MemcpyD2H { src, len })
                .boxed(),
            (any::<u64>(), any::<u64>(), any::<u64>())
                .prop_map(|(dst, src, len)| Request::MemcpyD2D { dst, src, len })
                .boxed(),
            (arb_string(), arb_cfg(), arb_blob(), any::<bool>())
                .prop_map(|(kernel, cfg, args, driver_level)| Request::Launch {
                    kernel: kernel.into(),
                    cfg,
                    args: args.into(),
                    driver_level,
                })
                .boxed(),
            Just(Request::Sync).boxed(),
            Just(Request::EventCreate).boxed(),
            any::<u32>()
                .prop_map(|event| Request::EventRecord { event })
                .boxed(),
            (any::<u32>(), any::<u32>())
                .prop_map(|(start, end)| Request::EventElapsed { start, end })
                .boxed(),
            Just(Request::DeviceNow).boxed(),
            Just(Request::Stats).boxed(),
            Just(Request::DeviceInfo).boxed(),
            any::<u32>()
                .prop_map(|device| Request::Migrate { device })
                .boxed(),
            Just(Request::Binding).boxed(),
        ]
        .boxed()
    }

    fn arb_istats() -> BoxedStrategy<InterceptionStats> {
        ((any::<u64>(), any::<u64>()), (any::<u64>(), any::<u64>()))
            .prop_map(
                |((launches, lookup_ns), (augment_ns, enqueue_ns))| InterceptionStats {
                    launches,
                    lookup_ns,
                    augment_ns,
                    enqueue_ns,
                },
            )
            .boxed()
    }

    /// Every response variant, fields drawn at random (floats cover all
    /// bit patterns, NaN included — hence the frame-level equality law).
    fn arb_response() -> BoxedStrategy<Response> {
        prop_oneof![
            Just(Response::Unit).boxed(),
            (
                (any::<u32>(), any::<u64>()),
                (any::<u64>(), any::<u64>()),
                (any::<bool>(), any::<u32>()),
                (any::<u64>(), any::<u64>(), 0u8..2)
            )
                .prop_map(
                    |(
                        (client, ghz_bits),
                        (partition_base, partition_size),
                        (deferred, device),
                        (lease_mem, lease_ttl_ms, qos),
                    )| {
                        Response::Connected(ConnectInfo {
                            client,
                            clock_ghz: f64::from_bits(ghz_bits),
                            partition_base,
                            partition_size,
                            deferred_launch: deferred,
                            device,
                            lease_mem,
                            lease_ttl_ms,
                            qos,
                        })
                    }
                )
                .boxed(),
            pvec(
                (
                    (any::<u32>(), arb_string(), any::<u64>()),
                    (any::<u64>(), any::<u64>(), any::<u32>())
                )
                    .prop_map(
                        |((index, name, ghz_bits), (pool_bytes, used_bytes, tenants))| {
                            DeviceInfo {
                                index,
                                name,
                                clock_ghz: f64::from_bits(ghz_bits),
                                pool_bytes,
                                used_bytes,
                                tenants,
                            }
                        }
                    ),
                0..5
            )
            .prop_map(Response::Devices)
            .boxed(),
            any::<u64>().prop_map(Response::Ptr).boxed(),
            any::<u32>().prop_map(Response::EventId).boxed(),
            any::<u32>()
                .prop_map(|bits| Response::ElapsedMs(f32::from_bits(bits)))
                .boxed(),
            any::<u64>().prop_map(Response::Cycles).boxed(),
            (arb_istats(), arb_istats())
                .prop_map(|(runtime, driver)| Response::Stats(LaunchStats { runtime, driver }))
                .boxed(),
            arb_error().prop_map(Response::Error).boxed(),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// encode → decode is the identity for every request message.
        #[test]
        fn request_encode_decode_round_trips(req in arb_request()) {
            let frame = req.encode();
            let back = Request::decode_view(&view(&frame)).expect("decode");
            prop_assert_eq!(&back, &req);
            // And re-encoding is byte-stable (canonical encoding).
            prop_assert_eq!(back.encode(), frame);
        }

        /// encode → decode → encode reproduces the exact frame for every
        /// response message. Frame-level equality is NaN-safe: float
        /// fields compare by bit pattern, not by PartialEq.
        #[test]
        fn response_encode_decode_round_trips(resp in arb_response()) {
            let frame = resp.encode();
            let back = Response::decode(&frame).expect("decode");
            prop_assert_eq!(back.encode(), frame);
        }

        /// Decoding arbitrary bytes never panics — the manager must
        /// survive any garbage a hostile tenant sends.
        #[test]
        fn decode_total_on_garbage(frame in pvec(any::<u8>(), 0..64)) {
            let _ = Request::decode_view(&view(&frame));
            let _ = Response::decode(&frame);
            let _ = AdminRequest::decode(&frame);
            let _ = AdminResponse::decode(&frame);
        }
    }
}
