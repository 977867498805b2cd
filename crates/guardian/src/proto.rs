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

use crate::manager::{InterceptionStats, LaunchStats};
use crate::placement::{Affinity, PlacementHint};
use crate::transport::frame::FrameView;
use bytes::BufMut;
use cuda_rt::{CudaError, DevicePtr};
use gpu_sim::LaunchConfig;
use std::fmt;

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

/// A client-to-manager message (one per CUDA call crossing the boundary).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a tenancy: reserve a partition of at least `mem_requirement`
    /// bytes (§4.2.1 — applications declare memory up front).
    Connect {
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
    Disconnect,
    /// Register a fatbin; the manager sandboxes and loads every PTX image
    /// inside it (§4.2.3).
    RegisterFatbin {
        /// Raw fatbin container bytes.
        bytes: Payload,
    },
    /// Register one PTX translation unit (`cuModuleLoadData`).
    RegisterPtx {
        /// Module name (diagnostic only).
        name: String,
        /// PTX source text.
        text: String,
    },
    /// Allocate from the tenant's partition heap.
    Malloc {
        /// Requested size in bytes.
        bytes: u64,
    },
    /// Release a partition-heap allocation.
    Free {
        /// Pointer previously returned by `Malloc`.
        ptr: DevicePtr,
    },
    /// Release a partition-heap allocation, **one-way**: no frame comes
    /// back. Deferred-launch clients free this way, so a free rides in
    /// front of the next round trip instead of costing one; a bad
    /// pointer's error sticks to the tenant and surfaces at the next
    /// `Sync`, like a `MemcpyH2DAsync`'s. (A new opcode, not a new frame
    /// shape: managers that predate it refuse it as unknown.)
    FreeAsync {
        /// Pointer previously returned by `Malloc`.
        ptr: DevicePtr,
    },
    /// Fill `[dst, dst+len)` with `byte`.
    Memset {
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
    MemcpyH2D {
        /// Destination device address.
        dst: DevicePtr,
        /// Bytes to copy from the window's start.
        len: u64,
    },
    /// Host-to-device copy, **one-way**: no frame comes back. Used
    /// by deferred-launch clients for small payloads so copies batch
    /// with the launches around them; errors stick to the tenant and
    /// surface at the next `Sync`, like a deferred `Launch`'s.
    MemcpyH2DAsync {
        /// Destination device address.
        dst: DevicePtr,
        /// Bytes to write.
        data: Payload,
    },
    /// Device-to-host copy into the first `len` bytes of the
    /// connection's transfer [`Window`](crate::transport::Window); the
    /// reply is [`Response::Unit`] once the bytes are there.
    MemcpyD2H {
        /// Source device address.
        src: DevicePtr,
        /// Length in bytes.
        len: u64,
    },
    /// Device-to-device copy within the tenant's partition.
    MemcpyD2D {
        /// Destination device address.
        dst: DevicePtr,
        /// Source device address.
        src: DevicePtr,
        /// Length in bytes.
        len: u64,
    },
    /// Launch a kernel on the tenant's stream. The manager swaps in the
    /// sandboxed twin and appends the partition bounds (§4.2.3).
    Launch {
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
    Sync,
    /// Create a timing event (`cudaEventCreate`).
    EventCreate,
    /// Record an event on the tenant's stream (`cudaEventRecord`).
    EventRecord {
        /// Event id from `EventCreate`.
        event: u32,
    },
    /// Elapsed milliseconds between two recorded events.
    EventElapsed {
        /// Start event id.
        start: u32,
        /// End event id.
        end: u32,
    },
    /// Current device time in cycles (benchmarking; no tenancy needed).
    DeviceNow,
    /// Interception/dispatch statistics (benchmarking; no tenancy needed).
    Stats,
    /// Enumerate the manager's device set: per-GPU pool capacity, load,
    /// and tenant count (no tenancy needed).
    DeviceInfo,
    /// Migrate this tenant's partition to another GPU. The manager
    /// drains the source, copies live allocations offset-stable into a
    /// fresh partition on the destination, rebinds the session, and
    /// replies with a new [`ConnectInfo`] — the tenant translates its
    /// device pointers by `new_base - old_base`.
    Migrate {
        /// Destination device index.
        device: u32,
    },
    /// Re-read this tenant's current binding: device, partition
    /// base/size. A tenant migrated *by the manager* (rebalancing) has a
    /// stale pointer frame until it asks; the reply is the same
    /// [`ConnectInfo`] shape `Connect`/`Migrate` return.
    Binding,
}

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

/// A manager-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success with no payload.
    Unit,
    /// Successful `Connect`.
    Connected(ConnectInfo),
    /// A device pointer (`Malloc`).
    Ptr(DevicePtr),
    /// A new event id (`EventCreate`).
    EventId(u32),
    /// Elapsed milliseconds (`EventElapsed`).
    ElapsedMs(f32),
    /// Device cycles (`DeviceNow`).
    Cycles(u64),
    /// Per-path launch interception costs, Table 5 (`Stats`).
    Stats(LaunchStats),
    /// The manager's device set (`DeviceInfo`).
    Devices(Vec<DeviceInfo>),
    /// The call failed.
    Error(CudaError),
}

/// An operator-to-manager message on the **admin plane**: the
/// separate uds socket `guardiand --admin-socket` binds, spoken by
/// `guardianctl`. Admin frames never travel on tenant connections —
/// the session layer has no decoder for them — so a tenant cannot
/// grant itself a lease.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminRequest {
    /// Enumerate the device set (pool capacity, load, tenant count).
    Devices,
    /// List live tenants with their leases and usage counters.
    Tenants,
    /// Set the lease future connects by `uid` are admitted under.
    LeaseSet {
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
    LeaseRevoke {
        /// Client id from the tenants table.
        client: u32,
    },
    /// Per-uid usage accounting, aggregated per device; `None` reports
    /// every uid.
    Quota {
        /// Restrict the answer to one uid.
        uid: Option<u32>,
    },
    /// Prometheus-text exposition of every node metric.
    Metrics,
    /// Dump the flight recorders: every live session's ring of
    /// recent trace events; `None` reports every tenant.
    Trace {
        /// Restrict the dump to sessions owned by one uid.
        uid: Option<u32>,
    },
}

/// A manager-to-operator message on the admin plane. Every
/// variant carries the node id so responses stay attributable when a
/// future federation layer fans `guardianctl` out across a fleet.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminResponse {
    /// The device set ([`AdminRequest::Devices`]).
    Devices {
        /// Responding node.
        node: String,
        /// One row per GPU.
        devices: Vec<DeviceInfo>,
    },
    /// The live-tenant table ([`AdminRequest::Tenants`]).
    Tenants {
        /// Responding node.
        node: String,
        /// One row per live tenancy.
        tenants: Vec<TenantInfo>,
    },
    /// Success with no payload (lease set / revoke).
    Ok {
        /// Responding node.
        node: String,
    },
    /// Usage accounting ([`AdminRequest::Quota`]).
    Quota {
        /// Responding node.
        node: String,
        /// One row per (uid, device) with any recorded usage.
        entries: Vec<UsageInfo>,
    },
    /// Prometheus-text metrics ([`AdminRequest::Metrics`]).
    Metrics {
        /// Responding node.
        node: String,
        /// The exposition body.
        text: String,
    },
    /// A flight-recorder dump ([`AdminRequest::Trace`]).
    Trace {
        /// Responding node.
        node: String,
        /// Trace events across the selected sessions, oldest first.
        events: Vec<crate::telemetry::TraceEvent>,
    },
    /// The admin call failed (unknown client, malformed lease, …).
    Error {
        /// Responding node.
        node: String,
        /// Human-readable failure reason.
        msg: String,
    },
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

// ---- request opcodes -------------------------------------------------------

const REQ_CONNECT: u8 = 1;
const REQ_DISCONNECT: u8 = 2;
const REQ_REGISTER_FATBIN: u8 = 3;
const REQ_REGISTER_PTX: u8 = 4;
const REQ_MALLOC: u8 = 5;
const REQ_FREE: u8 = 6;
const REQ_MEMSET: u8 = 7;
const REQ_MEMCPY_H2D: u8 = 8;
const REQ_MEMCPY_D2H: u8 = 9;
const REQ_MEMCPY_D2D: u8 = 10;
const REQ_LAUNCH: u8 = 11;
const REQ_SYNC: u8 = 12;
const REQ_EVENT_CREATE: u8 = 13;
const REQ_EVENT_RECORD: u8 = 14;
const REQ_EVENT_ELAPSED: u8 = 15;
const REQ_DEVICE_NOW: u8 = 16;
const REQ_STATS: u8 = 17;
const REQ_DEVICE_INFO: u8 = 18;
const REQ_MIGRATE: u8 = 19;
const REQ_BINDING: u8 = 20;
const REQ_MEMCPY_H2D_ASYNC: u8 = 21;
const REQ_FREE_ASYNC: u8 = 22;

// ---- response opcodes ------------------------------------------------------

const RESP_UNIT: u8 = 1;
const RESP_CONNECTED: u8 = 2;
const RESP_PTR: u8 = 3;
// 4 was the v5 data reply; D2H bytes now land in the transfer window.
const RESP_EVENT_ID: u8 = 5;
const RESP_ELAPSED_MS: u8 = 6;
const RESP_CYCLES: u8 = 7;
const RESP_STATS: u8 = 8;
const RESP_ERROR: u8 = 9;
const RESP_DEVICES: u8 = 10;

// ---- admin-plane opcodes (separate message family, own socket) -------------

const ADMIN_REQ_DEVICES: u8 = 1;
const ADMIN_REQ_TENANTS: u8 = 2;
const ADMIN_REQ_LEASE_SET: u8 = 3;
const ADMIN_REQ_LEASE_REVOKE: u8 = 4;
const ADMIN_REQ_QUOTA: u8 = 5;
const ADMIN_REQ_METRICS: u8 = 6;
const ADMIN_REQ_TRACE: u8 = 7;

const ADMIN_RESP_DEVICES: u8 = 1;
const ADMIN_RESP_TENANTS: u8 = 2;
const ADMIN_RESP_OK: u8 = 3;
const ADMIN_RESP_QUOTA: u8 = 4;
const ADMIN_RESP_METRICS: u8 = 5;
const ADMIN_RESP_ERROR: u8 = 6;
const ADMIN_RESP_TRACE: u8 = 7;

// ---- placement-hint affinity codes -----------------------------------------

const AFFINITY_STRICT: u8 = 0;
const AFFINITY_PREFER: u8 = 1;

// ---- error codes -----------------------------------------------------------

const ERR_OOM: u8 = 1;
const ERR_INVALID_VALUE: u8 = 2;
const ERR_INVALID_DEVICE_FUNCTION: u8 = 3;
const ERR_CONTEXT_POISONED: u8 = 4;
const ERR_MODULE_LOAD: u8 = 5;
const ERR_MISSING_EXPORT_TABLE: u8 = 6;
const ERR_REJECTED: u8 = 7;
const ERR_DISCONNECTED: u8 = 8;

// ---- encoding helpers ------------------------------------------------------

fn put_blob(buf: &mut Vec<u8>, data: &[u8]) {
    // 64-bit length prefix: a >= 4 GiB payload (huge H2D copy, fatbin)
    // must not silently truncate the prefix and corrupt the frame.
    buf.put_u64_le(data.len() as u64);
    buf.extend_from_slice(data);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_blob(buf, s.as_bytes());
}

fn put_cfg(buf: &mut Vec<u8>, cfg: &LaunchConfig) {
    for d in [
        cfg.grid.0,
        cfg.grid.1,
        cfg.grid.2,
        cfg.block.0,
        cfg.block.1,
        cfg.block.2,
    ] {
        buf.put_u32_le(d);
    }
}

fn put_istats(buf: &mut Vec<u8>, s: &InterceptionStats) {
    buf.put_u64_le(s.launches);
    buf.put_u64_le(s.lookup_ns);
    buf.put_u64_le(s.augment_ns);
    buf.put_u64_le(s.enqueue_ns);
}

fn put_hint(buf: &mut Vec<u8>, hint: &Option<PlacementHint>) {
    match hint {
        None => buf.put_u8(0),
        Some(h) => {
            buf.put_u8(1);
            match h.device {
                None => buf.put_u8(0),
                Some(d) => {
                    buf.put_u8(1);
                    buf.put_u32_le(d);
                }
            }
            buf.put_u8(match h.affinity {
                Affinity::Strict => AFFINITY_STRICT,
                Affinity::Prefer => AFFINITY_PREFER,
            });
        }
    }
}

fn put_device_info(buf: &mut Vec<u8>, d: &DeviceInfo) {
    buf.put_u32_le(d.index);
    put_str(buf, &d.name);
    buf.put_u64_le(d.clock_ghz.to_bits());
    buf.put_u64_le(d.pool_bytes);
    buf.put_u64_le(d.used_bytes);
    buf.put_u32_le(d.tenants);
}

fn put_tenant_info(buf: &mut Vec<u8>, t: &TenantInfo) {
    buf.put_u32_le(t.client);
    buf.put_u32_le(t.uid);
    buf.put_u32_le(t.device);
    buf.put_u64_le(t.partition_size);
    buf.put_u64_le(t.lease_mem);
    buf.put_u64_le(t.lease_ttl_ms);
    buf.put_u64_le(t.age_ms);
    buf.put_u64_le(t.bytes_held);
    buf.put_u64_le(t.launches);
    buf.put_u64_le(t.transfers);
    buf.put_u64_le(t.transfer_bytes);
    buf.put_u8(t.qos);
    buf.put_u64_le(t.inflight);
}

fn put_usage_info(buf: &mut Vec<u8>, u: &UsageInfo) {
    buf.put_u32_le(u.uid);
    buf.put_u32_le(u.device);
    buf.put_u32_le(u.live);
    buf.put_u64_le(u.bytes_held);
    buf.put_u64_le(u.launches);
    buf.put_u64_le(u.transfers);
    buf.put_u64_le(u.transfer_bytes);
    buf.put_u64_le(u.occupancy_ms);
}

fn put_trace_event(buf: &mut Vec<u8>, e: &crate::telemetry::TraceEvent) {
    buf.put_u64_le(e.seq);
    buf.put_u8(e.op);
    buf.put_u8(e.outcome);
    buf.put_u32_le(e.client);
    buf.put_u32_le(e.uid);
    buf.put_u32_le(e.stream);
    buf.put_u64_le(e.t_decode_ns);
    buf.put_u64_le(e.t_admit_ns);
    buf.put_u64_le(e.t_flush_ns);
    buf.put_u64_le(e.t_enqueue_ns);
    buf.put_u64_le(e.t_complete_ns);
}

fn put_error(buf: &mut Vec<u8>, e: &CudaError) {
    match e {
        CudaError::OutOfMemory => buf.put_u8(ERR_OOM),
        CudaError::InvalidValue => buf.put_u8(ERR_INVALID_VALUE),
        CudaError::InvalidDeviceFunction(s) => {
            buf.put_u8(ERR_INVALID_DEVICE_FUNCTION);
            put_str(buf, s);
        }
        CudaError::ContextPoisoned => buf.put_u8(ERR_CONTEXT_POISONED),
        CudaError::ModuleLoad(s) => {
            buf.put_u8(ERR_MODULE_LOAD);
            put_str(buf, s);
        }
        CudaError::MissingExportTable(id) => {
            buf.put_u8(ERR_MISSING_EXPORT_TABLE);
            buf.put_u32_le(*id);
        }
        CudaError::Rejected(s) => {
            buf.put_u8(ERR_REJECTED);
            put_str(buf, s);
        }
        CudaError::Disconnected => buf.put_u8(ERR_DISCONNECTED),
    }
}

// ---- decoding helpers ------------------------------------------------------

/// Checked little-endian reader over a frame.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f32(&mut self) -> Result<f32, ProtoError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn blob(&mut self) -> Result<Vec<u8>, ProtoError> {
        let len = usize::try_from(self.u64()?).map_err(|_| ProtoError::Truncated)?;
        Ok(self.take(len)?.to_vec())
    }

    /// The byte span of the next blob within the frame (consuming it).
    fn blob_range(&mut self) -> Result<std::ops::Range<usize>, ProtoError> {
        let len = usize::try_from(self.u64()?).map_err(|_| ProtoError::Truncated)?;
        let start = self.pos;
        self.take(len)?;
        Ok(start..self.pos)
    }

    /// A blob as a [`Payload`]: a zero-copy sub-view when `src` is the
    /// frame's backing view, an owned copy otherwise.
    fn payload(&mut self, src: &FrameView) -> Result<Payload, ProtoError> {
        Ok(Payload(src.slice(self.blob_range()?)))
    }

    /// A blob as a [`Symbol`]: UTF-8 validated in place, zero-copy when
    /// `src` is the frame's backing view.
    fn symbol(&mut self, src: &FrameView) -> Result<Symbol, ProtoError> {
        let range = self.blob_range()?;
        std::str::from_utf8(&self.buf[range.clone()]).map_err(|_| ProtoError::BadUtf8)?;
        Ok(Symbol(src.slice(range)))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        String::from_utf8(self.blob()?).map_err(|_| ProtoError::BadUtf8)
    }

    fn cfg(&mut self) -> Result<LaunchConfig, ProtoError> {
        Ok(LaunchConfig {
            grid: (self.u32()?, self.u32()?, self.u32()?),
            block: (self.u32()?, self.u32()?, self.u32()?),
        })
    }

    fn istats(&mut self) -> Result<InterceptionStats, ProtoError> {
        Ok(InterceptionStats {
            launches: self.u64()?,
            lookup_ns: self.u64()?,
            augment_ns: self.u64()?,
            enqueue_ns: self.u64()?,
        })
    }

    fn hint(&mut self) -> Result<Option<PlacementHint>, ProtoError> {
        if self.u8()? == 0 {
            return Ok(None);
        }
        let device = if self.u8()? == 0 {
            None
        } else {
            Some(self.u32()?)
        };
        let affinity = match self.u8()? {
            AFFINITY_STRICT => Affinity::Strict,
            AFFINITY_PREFER => Affinity::Prefer,
            op => return Err(ProtoError::BadOpcode(op)),
        };
        Ok(Some(PlacementHint { device, affinity }))
    }

    fn device_info(&mut self) -> Result<DeviceInfo, ProtoError> {
        Ok(DeviceInfo {
            index: self.u32()?,
            name: self.string()?,
            clock_ghz: self.f64()?,
            pool_bytes: self.u64()?,
            used_bytes: self.u64()?,
            tenants: self.u32()?,
        })
    }

    fn tenant_info(&mut self) -> Result<TenantInfo, ProtoError> {
        Ok(TenantInfo {
            client: self.u32()?,
            uid: self.u32()?,
            device: self.u32()?,
            partition_size: self.u64()?,
            lease_mem: self.u64()?,
            lease_ttl_ms: self.u64()?,
            age_ms: self.u64()?,
            bytes_held: self.u64()?,
            launches: self.u64()?,
            transfers: self.u64()?,
            transfer_bytes: self.u64()?,
            qos: self.u8()?,
            inflight: self.u64()?,
        })
    }

    fn usage_info(&mut self) -> Result<UsageInfo, ProtoError> {
        Ok(UsageInfo {
            uid: self.u32()?,
            device: self.u32()?,
            live: self.u32()?,
            bytes_held: self.u64()?,
            launches: self.u64()?,
            transfers: self.u64()?,
            transfer_bytes: self.u64()?,
            occupancy_ms: self.u64()?,
        })
    }

    fn trace_event(&mut self) -> Result<crate::telemetry::TraceEvent, ProtoError> {
        Ok(crate::telemetry::TraceEvent {
            seq: self.u64()?,
            op: self.u8()?,
            outcome: self.u8()?,
            client: self.u32()?,
            uid: self.u32()?,
            stream: self.u32()?,
            t_decode_ns: self.u64()?,
            t_admit_ns: self.u64()?,
            t_flush_ns: self.u64()?,
            t_enqueue_ns: self.u64()?,
            t_complete_ns: self.u64()?,
        })
    }

    fn error(&mut self) -> Result<CudaError, ProtoError> {
        Ok(match self.u8()? {
            ERR_OOM => CudaError::OutOfMemory,
            ERR_INVALID_VALUE => CudaError::InvalidValue,
            ERR_INVALID_DEVICE_FUNCTION => CudaError::InvalidDeviceFunction(self.string()?),
            ERR_CONTEXT_POISONED => CudaError::ContextPoisoned,
            ERR_MODULE_LOAD => CudaError::ModuleLoad(self.string()?),
            ERR_MISSING_EXPORT_TABLE => CudaError::MissingExportTable(self.u32()?),
            ERR_REJECTED => CudaError::Rejected(self.string()?),
            ERR_DISCONNECTED => CudaError::Disconnected,
            op => return Err(ProtoError::BadOpcode(op)),
        })
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(self.buf.len() - self.pos))
        }
    }
}

fn frame_header(opcode: u8) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    buf.put_u8(PROTO_VERSION);
    buf.put_u8(opcode);
    buf
}

fn open_frame(frame: &[u8]) -> Result<(u8, Reader<'_>), ProtoError> {
    let mut r = Reader::new(frame);
    let version = r.u8()?;
    if version != PROTO_VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let opcode = r.u8()?;
    Ok((opcode, r))
}

/// Encode a [`Request::Launch`] frame directly from borrowed fields.
///
/// Hot-path helper for clients: produces exactly the frame
/// `Request::Launch { .. }.encode()` would, without first copying the
/// kernel name and argument buffer into an owned `Request`.
pub fn encode_launch(kernel: &str, cfg: &LaunchConfig, args: &[u8], driver_level: bool) -> Vec<u8> {
    let mut buf = frame_header(REQ_LAUNCH);
    put_str(&mut buf, kernel);
    put_cfg(&mut buf, cfg);
    put_blob(&mut buf, args);
    buf.put_u8(u8::from(driver_level));
    buf
}

/// Encode a [`Request::MemcpyH2DAsync`] frame directly from a borrowed
/// payload (hot-path helper; see [`encode_launch`]).
pub fn encode_memcpy_h2d_async(dst: DevicePtr, data: &[u8]) -> Vec<u8> {
    let mut buf = frame_header(REQ_MEMCPY_H2D_ASYNC);
    buf.put_u64_le(dst);
    put_blob(&mut buf, data);
    buf
}

impl Request {
    /// Serialize to a byte frame.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Connect {
                mem_requirement,
                hint,
                qos,
            } => {
                let mut buf = frame_header(REQ_CONNECT);
                buf.put_u64_le(*mem_requirement);
                put_hint(&mut buf, hint);
                buf.put_u8(*qos);
                buf
            }
            Request::Disconnect => frame_header(REQ_DISCONNECT),
            Request::RegisterFatbin { bytes } => {
                let mut buf = frame_header(REQ_REGISTER_FATBIN);
                put_blob(&mut buf, bytes);
                buf
            }
            Request::RegisterPtx { name, text } => {
                let mut buf = frame_header(REQ_REGISTER_PTX);
                put_str(&mut buf, name);
                put_str(&mut buf, text);
                buf
            }
            Request::Malloc { bytes } => {
                let mut buf = frame_header(REQ_MALLOC);
                buf.put_u64_le(*bytes);
                buf
            }
            Request::Free { ptr } => {
                let mut buf = frame_header(REQ_FREE);
                buf.put_u64_le(*ptr);
                buf
            }
            Request::FreeAsync { ptr } => {
                let mut buf = frame_header(REQ_FREE_ASYNC);
                buf.put_u64_le(*ptr);
                buf
            }
            Request::Memset { dst, byte, len } => {
                let mut buf = frame_header(REQ_MEMSET);
                buf.put_u64_le(*dst);
                buf.put_u8(*byte);
                buf.put_u64_le(*len);
                buf
            }
            Request::MemcpyH2D { dst, len } => {
                let mut buf = frame_header(REQ_MEMCPY_H2D);
                buf.put_u64_le(*dst);
                buf.put_u64_le(*len);
                buf
            }
            Request::MemcpyH2DAsync { dst, data } => encode_memcpy_h2d_async(*dst, data),
            Request::MemcpyD2H { src, len } => {
                let mut buf = frame_header(REQ_MEMCPY_D2H);
                buf.put_u64_le(*src);
                buf.put_u64_le(*len);
                buf
            }
            Request::MemcpyD2D { dst, src, len } => {
                let mut buf = frame_header(REQ_MEMCPY_D2D);
                buf.put_u64_le(*dst);
                buf.put_u64_le(*src);
                buf.put_u64_le(*len);
                buf
            }
            Request::Launch {
                kernel,
                cfg,
                args,
                driver_level,
            } => encode_launch(kernel, cfg, args, *driver_level),
            Request::Sync => frame_header(REQ_SYNC),
            Request::EventCreate => frame_header(REQ_EVENT_CREATE),
            Request::EventRecord { event } => {
                let mut buf = frame_header(REQ_EVENT_RECORD);
                buf.put_u32_le(*event);
                buf
            }
            Request::EventElapsed { start, end } => {
                let mut buf = frame_header(REQ_EVENT_ELAPSED);
                buf.put_u32_le(*start);
                buf.put_u32_le(*end);
                buf
            }
            Request::DeviceNow => frame_header(REQ_DEVICE_NOW),
            Request::Stats => frame_header(REQ_STATS),
            Request::DeviceInfo => frame_header(REQ_DEVICE_INFO),
            Request::Migrate { device } => {
                let mut buf = frame_header(REQ_MIGRATE);
                buf.put_u32_le(*device);
                buf
            }
            Request::Binding => frame_header(REQ_BINDING),
        }
    }

    /// Decode a received [`FrameView`] **zero-copy**: the `bytes`/`data`/
    /// `args`/`kernel` fields of the decoded request are refcounted
    /// sub-views of `frame` — no payload bytes are duplicated.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on truncation, version/opcode mismatch, bad UTF-8,
    /// or trailing bytes. Never panics on malformed input.
    pub fn decode_view(frame: &FrameView) -> Result<Self, ProtoError> {
        let (opcode, mut r) = open_frame(frame)?;
        let req = match opcode {
            REQ_CONNECT => Request::Connect {
                mem_requirement: r.u64()?,
                hint: r.hint()?,
                qos: r.u8()?,
            },
            REQ_DISCONNECT => Request::Disconnect,
            REQ_REGISTER_FATBIN => Request::RegisterFatbin {
                bytes: r.payload(frame)?,
            },
            REQ_REGISTER_PTX => Request::RegisterPtx {
                name: r.string()?,
                text: r.string()?,
            },
            REQ_MALLOC => Request::Malloc { bytes: r.u64()? },
            REQ_FREE => Request::Free { ptr: r.u64()? },
            REQ_FREE_ASYNC => Request::FreeAsync { ptr: r.u64()? },
            REQ_MEMSET => Request::Memset {
                dst: r.u64()?,
                byte: r.u8()?,
                len: r.u64()?,
            },
            REQ_MEMCPY_H2D => Request::MemcpyH2D {
                dst: r.u64()?,
                len: r.u64()?,
            },
            REQ_MEMCPY_H2D_ASYNC => Request::MemcpyH2DAsync {
                dst: r.u64()?,
                data: r.payload(frame)?,
            },
            REQ_MEMCPY_D2H => Request::MemcpyD2H {
                src: r.u64()?,
                len: r.u64()?,
            },
            REQ_MEMCPY_D2D => Request::MemcpyD2D {
                dst: r.u64()?,
                src: r.u64()?,
                len: r.u64()?,
            },
            REQ_LAUNCH => Request::Launch {
                kernel: r.symbol(frame)?,
                cfg: r.cfg()?,
                args: r.payload(frame)?,
                driver_level: r.u8()? != 0,
            },
            REQ_SYNC => Request::Sync,
            REQ_EVENT_CREATE => Request::EventCreate,
            REQ_EVENT_RECORD => Request::EventRecord { event: r.u32()? },
            REQ_EVENT_ELAPSED => Request::EventElapsed {
                start: r.u32()?,
                end: r.u32()?,
            },
            REQ_DEVICE_NOW => Request::DeviceNow,
            REQ_STATS => Request::Stats,
            REQ_DEVICE_INFO => Request::DeviceInfo,
            REQ_MIGRATE => Request::Migrate { device: r.u32()? },
            REQ_BINDING => Request::Binding,
            op => return Err(ProtoError::BadOpcode(op)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serialize to a byte frame.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Unit => frame_header(RESP_UNIT),
            Response::Connected(info) => {
                let mut buf = frame_header(RESP_CONNECTED);
                buf.put_u32_le(info.client);
                buf.put_u64_le(info.clock_ghz.to_bits());
                buf.put_u64_le(info.partition_base);
                buf.put_u64_le(info.partition_size);
                buf.put_u8(u8::from(info.deferred_launch));
                buf.put_u32_le(info.device);
                buf.put_u64_le(info.lease_mem);
                buf.put_u64_le(info.lease_ttl_ms);
                buf.put_u8(info.qos);
                buf
            }
            Response::Ptr(p) => {
                let mut buf = frame_header(RESP_PTR);
                buf.put_u64_le(*p);
                buf
            }
            Response::EventId(id) => {
                let mut buf = frame_header(RESP_EVENT_ID);
                buf.put_u32_le(*id);
                buf
            }
            Response::ElapsedMs(ms) => {
                let mut buf = frame_header(RESP_ELAPSED_MS);
                buf.put_u32_le(ms.to_bits());
                buf
            }
            Response::Cycles(c) => {
                let mut buf = frame_header(RESP_CYCLES);
                buf.put_u64_le(*c);
                buf
            }
            Response::Stats(s) => {
                let mut buf = frame_header(RESP_STATS);
                put_istats(&mut buf, &s.runtime);
                put_istats(&mut buf, &s.driver);
                buf
            }
            Response::Devices(devs) => {
                let mut buf = frame_header(RESP_DEVICES);
                buf.put_u32_le(devs.len() as u32);
                for d in devs {
                    put_device_info(&mut buf, d);
                }
                buf
            }
            Response::Error(e) => {
                let mut buf = frame_header(RESP_ERROR);
                put_error(&mut buf, e);
                buf
            }
        }
    }

    /// Decode a byte frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on truncation, version/opcode mismatch, bad UTF-8,
    /// or trailing bytes. Never panics on malformed input.
    pub fn decode(frame: &[u8]) -> Result<Self, ProtoError> {
        let (opcode, mut r) = open_frame(frame)?;
        let resp = match opcode {
            RESP_UNIT => Response::Unit,
            RESP_CONNECTED => Response::Connected(ConnectInfo {
                client: r.u32()?,
                clock_ghz: r.f64()?,
                partition_base: r.u64()?,
                partition_size: r.u64()?,
                deferred_launch: r.u8()? != 0,
                device: r.u32()?,
                lease_mem: r.u64()?,
                lease_ttl_ms: r.u64()?,
                qos: r.u8()?,
            }),
            RESP_PTR => Response::Ptr(r.u64()?),
            RESP_EVENT_ID => Response::EventId(r.u32()?),
            RESP_ELAPSED_MS => Response::ElapsedMs(r.f32()?),
            RESP_CYCLES => Response::Cycles(r.u64()?),
            RESP_STATS => Response::Stats(LaunchStats {
                runtime: r.istats()?,
                driver: r.istats()?,
            }),
            RESP_DEVICES => {
                let n = r.u32()?;
                // Bound preallocation by the frame itself: a hostile
                // length cannot trigger a giant reserve.
                let mut devs = Vec::with_capacity((n as usize).min(64));
                for _ in 0..n {
                    devs.push(r.device_info()?);
                }
                Response::Devices(devs)
            }
            RESP_ERROR => Response::Error(r.error()?),
            op => return Err(ProtoError::BadOpcode(op)),
        };
        r.finish()?;
        Ok(resp)
    }
}

impl AdminRequest {
    /// Serialize to a byte frame.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            AdminRequest::Devices => frame_header(ADMIN_REQ_DEVICES),
            AdminRequest::Tenants => frame_header(ADMIN_REQ_TENANTS),
            AdminRequest::LeaseSet {
                uid,
                mem_bytes,
                streams,
                ttl_ms,
                qos,
            } => {
                let mut buf = frame_header(ADMIN_REQ_LEASE_SET);
                buf.put_u32_le(*uid);
                buf.put_u64_le(*mem_bytes);
                buf.put_u32_le(*streams);
                buf.put_u64_le(*ttl_ms);
                buf.put_u8(*qos);
                buf
            }
            AdminRequest::LeaseRevoke { client } => {
                let mut buf = frame_header(ADMIN_REQ_LEASE_REVOKE);
                buf.put_u32_le(*client);
                buf
            }
            AdminRequest::Quota { uid } => {
                let mut buf = frame_header(ADMIN_REQ_QUOTA);
                match uid {
                    None => buf.put_u8(0),
                    Some(u) => {
                        buf.put_u8(1);
                        buf.put_u32_le(*u);
                    }
                }
                buf
            }
            AdminRequest::Metrics => frame_header(ADMIN_REQ_METRICS),
            AdminRequest::Trace { uid } => {
                let mut buf = frame_header(ADMIN_REQ_TRACE);
                match uid {
                    None => buf.put_u8(0),
                    Some(u) => {
                        buf.put_u8(1);
                        buf.put_u32_le(*u);
                    }
                }
                buf
            }
        }
    }

    /// Decode a byte frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on truncation, version/opcode mismatch, bad UTF-8,
    /// or trailing bytes. Never panics on malformed input — the admin
    /// socket is same-uid by default, but it still faces raw bytes.
    pub fn decode(frame: &[u8]) -> Result<Self, ProtoError> {
        let (opcode, mut r) = open_frame(frame)?;
        let req = match opcode {
            ADMIN_REQ_DEVICES => AdminRequest::Devices,
            ADMIN_REQ_TENANTS => AdminRequest::Tenants,
            ADMIN_REQ_LEASE_SET => AdminRequest::LeaseSet {
                uid: r.u32()?,
                mem_bytes: r.u64()?,
                streams: r.u32()?,
                ttl_ms: r.u64()?,
                qos: r.u8()?,
            },
            ADMIN_REQ_LEASE_REVOKE => AdminRequest::LeaseRevoke { client: r.u32()? },
            ADMIN_REQ_QUOTA => AdminRequest::Quota {
                uid: if r.u8()? == 0 { None } else { Some(r.u32()?) },
            },
            ADMIN_REQ_METRICS => AdminRequest::Metrics,
            ADMIN_REQ_TRACE => AdminRequest::Trace {
                uid: if r.u8()? == 0 { None } else { Some(r.u32()?) },
            },
            op => return Err(ProtoError::BadOpcode(op)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl AdminResponse {
    /// Serialize to a byte frame.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            AdminResponse::Devices { node, devices } => {
                let mut buf = frame_header(ADMIN_RESP_DEVICES);
                put_str(&mut buf, node);
                buf.put_u32_le(devices.len() as u32);
                for d in devices {
                    put_device_info(&mut buf, d);
                }
                buf
            }
            AdminResponse::Tenants { node, tenants } => {
                let mut buf = frame_header(ADMIN_RESP_TENANTS);
                put_str(&mut buf, node);
                buf.put_u32_le(tenants.len() as u32);
                for t in tenants {
                    put_tenant_info(&mut buf, t);
                }
                buf
            }
            AdminResponse::Ok { node } => {
                let mut buf = frame_header(ADMIN_RESP_OK);
                put_str(&mut buf, node);
                buf
            }
            AdminResponse::Quota { node, entries } => {
                let mut buf = frame_header(ADMIN_RESP_QUOTA);
                put_str(&mut buf, node);
                buf.put_u32_le(entries.len() as u32);
                for e in entries {
                    put_usage_info(&mut buf, e);
                }
                buf
            }
            AdminResponse::Metrics { node, text } => {
                let mut buf = frame_header(ADMIN_RESP_METRICS);
                put_str(&mut buf, node);
                put_str(&mut buf, text);
                buf
            }
            AdminResponse::Trace { node, events } => {
                let mut buf = frame_header(ADMIN_RESP_TRACE);
                put_str(&mut buf, node);
                buf.put_u32_le(events.len() as u32);
                for e in events {
                    put_trace_event(&mut buf, e);
                }
                buf
            }
            AdminResponse::Error { node, msg } => {
                let mut buf = frame_header(ADMIN_RESP_ERROR);
                put_str(&mut buf, node);
                put_str(&mut buf, msg);
                buf
            }
        }
    }

    /// Decode a byte frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on truncation, version/opcode mismatch, bad UTF-8,
    /// or trailing bytes. Never panics on malformed input.
    pub fn decode(frame: &[u8]) -> Result<Self, ProtoError> {
        let (opcode, mut r) = open_frame(frame)?;
        let resp = match opcode {
            ADMIN_RESP_DEVICES => {
                let node = r.string()?;
                let n = r.u32()?;
                let mut devices = Vec::with_capacity((n as usize).min(64));
                for _ in 0..n {
                    devices.push(r.device_info()?);
                }
                AdminResponse::Devices { node, devices }
            }
            ADMIN_RESP_TENANTS => {
                let node = r.string()?;
                let n = r.u32()?;
                // Bound preallocation by the frame itself, as for
                // RESP_DEVICES: a hostile count must not reserve GiBs.
                let mut tenants = Vec::with_capacity((n as usize).min(64));
                for _ in 0..n {
                    tenants.push(r.tenant_info()?);
                }
                AdminResponse::Tenants { node, tenants }
            }
            ADMIN_RESP_OK => AdminResponse::Ok { node: r.string()? },
            ADMIN_RESP_QUOTA => {
                let node = r.string()?;
                let n = r.u32()?;
                let mut entries = Vec::with_capacity((n as usize).min(64));
                for _ in 0..n {
                    entries.push(r.usage_info()?);
                }
                AdminResponse::Quota { node, entries }
            }
            ADMIN_RESP_METRICS => AdminResponse::Metrics {
                node: r.string()?,
                text: r.string()?,
            },
            ADMIN_RESP_ERROR => AdminResponse::Error {
                node: r.string()?,
                msg: r.string()?,
            },
            ADMIN_RESP_TRACE => {
                let node = r.string()?;
                let n = r.u32()?;
                let mut events = Vec::with_capacity((n as usize).min(64));
                for _ in 0..n {
                    events.push(r.trace_event()?);
                }
                AdminResponse::Trace { node, events }
            }
            op => return Err(ProtoError::BadOpcode(op)),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(frame: &[u8]) -> FrameView {
        FrameView::from(frame.to_vec())
    }

    #[test]
    fn request_round_trip_edge_values() {
        let cases = vec![
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
        ];
        for req in cases {
            let frame = req.encode();
            assert_eq!(Request::decode_view(&view(&frame)).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn response_round_trip_edge_values() {
        let cases = vec![
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
            Response::Error(CudaError::InvalidDeviceFunction("missing".into())),
            Response::Error(CudaError::MissingExportTable(42)),
            Response::Error(CudaError::Rejected("out of partition".into())),
        ];
        for resp in cases {
            let frame = resp.encode();
            assert_eq!(Response::decode(&frame).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn borrowing_encoders_match_owned_encoding() {
        // The hot-path helpers must stay frame-identical to the owned
        // Request encoding (Request::encode delegates, but lock that in).
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

    #[test]
    fn admin_round_trip_edge_values() {
        let reqs = vec![
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
        ];
        for req in reqs {
            let frame = req.encode();
            assert_eq!(AdminRequest::decode(&frame).unwrap(), req, "{req:?}");
        }
        let resps = vec![
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
        ];
        for resp in resps {
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
            Request::decode_view(&view(&[9, REQ_SYNC])),
            Err(ProtoError::BadVersion(9))
        );
        // A hint with an unknown affinity discriminant is rejected.
        let mut f = frame_header(REQ_CONNECT);
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
            Request::decode_view(&view(&[PROTO_VERSION, REQ_LAUNCH, 0xFF, 0xFF])),
            Err(ProtoError::Truncated)
        );
        // Length prefix larger than the frame.
        let mut f = vec![PROTO_VERSION, REQ_REGISTER_FATBIN];
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
        let mut f = frame_header(REQ_REGISTER_PTX);
        put_blob(&mut f, &[0xFF, 0xFE]);
        put_blob(&mut f, b"");
        assert_eq!(Request::decode_view(&view(&f)), Err(ProtoError::BadUtf8));
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
