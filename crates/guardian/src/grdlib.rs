//! `grdLib`: Guardian's client-side interposer (§4.1).
//!
//! Implements the full [`CudaApi`] surface by encoding every call as a
//! wire-protocol frame ([`crate::proto`]) and exchanging it over a
//! transport connection ([`crate::transport`]) with the grdManager.
//! Installing a [`GrdLib`] where a `NativeRuntime` would go is this
//! reproduction's equivalent of the paper's `LD_PRELOAD` substitution: the
//! application (and the accelerated libraries it links) observe an
//! identical API, but no call can reach the GPU without passing Guardian's
//! checks — including the *implicit* calls libraries make internally,
//! because those flow through the same trait object.
//!
//! The stub is transport-agnostic: it holds nothing but a boxed
//! [`Connection`], so the same code would drive a socket or shared-memory
//! transport. Kernel launches (and frees) are either acknowledged at
//! enqueue time (deterministic ordering; the default) or sent one-way
//! with errors surfacing at the next synchronization, depending on the
//! manager's [`LaunchAck`](crate::manager::LaunchAck) policy — the
//! handshake tells the stub which contract is in force. A copy's bytes
//! move through the connection's transfer [`Window`], not through
//! frames: the stub copies an H2D payload in and a D2H result out, and
//! a copy larger than the window goes as several.

use crate::control::QosClass;
use crate::manager::{ClientId, ManagerHandle};
use crate::placement::PlacementHint;
use crate::proto::{self, DeviceInfo, Request, Response};
use crate::transport::{
    shm::ShmDialer, uds::UdsDialer, Connection, Dialer, TransportError, Window,
};
use cuda_rt::{CudaApi, CudaError, CudaResult, DevicePtr, EventHandle, ModuleHandle, Stream};
use gpu_sim::LaunchConfig;
use parking_lot::Mutex;
use std::path::Path;
use std::sync::Arc;

/// One-way frames buffered before a forced flush. Round-trip calls
/// always flush regardless, so this only bounds memory (and transport
/// batch size) for long fire-and-forget runs.
const PENDING_FLUSH: usize = 64;

/// Largest host-to-device payload sent one-way (and therefore batched
/// with the launches around it) under deferred-launch mode. Larger
/// copies keep the synchronous round trip: their transfer time dwarfs
/// the RPC latency, and the immediate bounds-check error is worth more
/// than batching.
const H2D_ASYNC_MAX: usize = 4096;

/// Map a transport failure onto the CUDA error surface: a vanished peer
/// is [`CudaError::Disconnected`]; everything else (oversized frame,
/// version skew, OS error) keeps its context instead of masquerading as
/// a disconnect.
fn transport_to_cuda(e: TransportError) -> CudaError {
    match e {
        TransportError::Disconnected => CudaError::Disconnected,
        other => CudaError::Rejected(format!("transport failure: {other}")),
    }
}

/// The client-side stub. One per tenant application.
pub struct GrdLib {
    conn: Box<dyn Connection>,
    id: ClientId,
    clock_ghz: f64,
    partition_base: u64,
    partition_size: u64,
    /// Index of the GPU the manager placed this tenant on.
    device: u32,
    /// The connection's transfer window: every `MemcpyH2D`/`MemcpyD2H`
    /// payload passes through it.
    window: Arc<Window>,
    /// Manager runs launches in deferred-ack (true async) mode.
    deferred_launch: bool,
    /// QoS class the manager granted (requested class clamped to the
    /// uid's lease ceiling), on its wire encoding.
    qos: u8,
    /// Encoded one-way frames (deferred launches, small async H2D
    /// copies) awaiting coalescing into one transport send. Flushed by
    /// every round-trip call — so a `Sync`, event op, or read-back acts
    /// as an explicit flush boundary — and at [`PENDING_FLUSH`] frames.
    pending: Mutex<Vec<Vec<u8>>>,
    next_module: u32,
    next_stream: u32,
}

impl GrdLib {
    /// Connect to a grdManager, declaring the tenant's memory requirement
    /// (Guardian applications specify memory up front, §4.2.1 — "normal in
    /// cloud environments, where users buy instances with specific
    /// resources").
    ///
    /// # Errors
    ///
    /// [`CudaError::OutOfMemory`] when no partition of the requested size
    /// is available; [`CudaError::Disconnected`] if the manager is gone.
    pub fn connect(handle: &ManagerHandle, mem_requirement: u64) -> CudaResult<Self> {
        Self::connect_hinted(handle, mem_requirement, None)
    }

    /// [`GrdLib::connect`] with an explicit multi-GPU [`PlacementHint`]
    /// — pin to a device ([`PlacementHint::pin`]) or prefer one with
    /// policy fallback ([`PlacementHint::prefer`]).
    ///
    /// # Errors
    ///
    /// As [`GrdLib::connect`]; a strict hint whose device cannot host the
    /// tenant fails with [`CudaError::OutOfMemory`] instead of spilling.
    pub fn connect_hinted(
        handle: &ManagerHandle,
        mem_requirement: u64,
        hint: Option<PlacementHint>,
    ) -> CudaResult<Self> {
        Self::connect_opts(handle, mem_requirement, hint, QosClass::BestEffort)
    }

    /// [`GrdLib::connect`] with every option spelled out: placement hint
    /// plus the requested QoS class. The granted class (the request
    /// clamped by the uid's lease ceiling) is readable via
    /// [`GrdLib::qos`] afterwards.
    ///
    /// # Errors
    ///
    /// As [`GrdLib::connect`].
    pub fn connect_opts(
        handle: &ManagerHandle,
        mem_requirement: u64,
        hint: Option<PlacementHint>,
        qos: QosClass,
    ) -> CudaResult<Self> {
        let conn = handle.dial().map_err(transport_to_cuda)?;
        Self::connect_over_opts(conn, mem_requirement, hint, qos)
    }

    /// Connect to a grdManager serving a Unix-domain-socket transport at
    /// `socket` — typically a `guardiand` daemon in another OS process.
    ///
    /// # Errors
    ///
    /// As [`GrdLib::connect`], plus transport-level failures (daemon not
    /// listening, version skew) surfaced as
    /// [`CudaError::Disconnected`]/[`CudaError::Rejected`].
    pub fn dial_uds(socket: impl AsRef<Path>, mem_requirement: u64) -> CudaResult<Self> {
        Self::dial_uds_hinted(socket, mem_requirement, None)
    }

    /// [`GrdLib::dial_uds`] with a multi-GPU [`PlacementHint`].
    ///
    /// # Errors
    ///
    /// As [`GrdLib::dial_uds`].
    pub fn dial_uds_hinted(
        socket: impl AsRef<Path>,
        mem_requirement: u64,
        hint: Option<PlacementHint>,
    ) -> CudaResult<Self> {
        let conn = UdsDialer::new(socket).dial().map_err(transport_to_cuda)?;
        Self::connect_over_hinted(conn, mem_requirement, hint)
    }

    /// [`GrdLib::dial_uds`] requesting a QoS class. The grant is the
    /// request clamped to the uid's lease ceiling (`qos=latency` leases
    /// only) — check [`GrdLib::qos`] for what the manager actually
    /// granted.
    ///
    /// # Errors
    ///
    /// As [`GrdLib::dial_uds`].
    pub fn dial_uds_qos(
        socket: impl AsRef<Path>,
        mem_requirement: u64,
        qos: QosClass,
    ) -> CudaResult<Self> {
        Self::dial_uds_opts(socket, mem_requirement, None, qos)
    }

    /// [`GrdLib::dial_uds`] with both a [`PlacementHint`] and a QoS
    /// request.
    ///
    /// # Errors
    ///
    /// As [`GrdLib::dial_uds`].
    pub fn dial_uds_opts(
        socket: impl AsRef<Path>,
        mem_requirement: u64,
        hint: Option<PlacementHint>,
        qos: QosClass,
    ) -> CudaResult<Self> {
        let conn = UdsDialer::new(socket).dial().map_err(transport_to_cuda)?;
        Self::connect_over_opts(conn, mem_requirement, hint, qos)
    }

    /// Connect to a grdManager over the shared-memory ring transport,
    /// handshaking on the Unix socket at `socket`. Same process model as
    /// [`GrdLib::dial_uds`] but frames cross an mmap'd SPSC ring instead
    /// of the kernel — the fast path for launch-heavy tenants.
    ///
    /// # Errors
    ///
    /// As [`GrdLib::dial_uds`].
    pub fn dial_shm(socket: impl AsRef<Path>, mem_requirement: u64) -> CudaResult<Self> {
        Self::dial_shm_hinted(socket, mem_requirement, None)
    }

    /// [`GrdLib::dial_shm`] with a multi-GPU [`PlacementHint`].
    ///
    /// # Errors
    ///
    /// As [`GrdLib::dial_shm`].
    pub fn dial_shm_hinted(
        socket: impl AsRef<Path>,
        mem_requirement: u64,
        hint: Option<PlacementHint>,
    ) -> CudaResult<Self> {
        let conn = ShmDialer::new(socket).dial().map_err(transport_to_cuda)?;
        Self::connect_over_hinted(conn, mem_requirement, hint)
    }

    /// [`GrdLib::dial_shm`] requesting a QoS class (see
    /// [`GrdLib::dial_uds_qos`]).
    ///
    /// # Errors
    ///
    /// As [`GrdLib::dial_shm`].
    pub fn dial_shm_qos(
        socket: impl AsRef<Path>,
        mem_requirement: u64,
        qos: QosClass,
    ) -> CudaResult<Self> {
        Self::dial_shm_opts(socket, mem_requirement, None, qos)
    }

    /// [`GrdLib::dial_shm`] with both a [`PlacementHint`] and a QoS
    /// request.
    ///
    /// # Errors
    ///
    /// As [`GrdLib::dial_shm`].
    pub fn dial_shm_opts(
        socket: impl AsRef<Path>,
        mem_requirement: u64,
        hint: Option<PlacementHint>,
        qos: QosClass,
    ) -> CudaResult<Self> {
        let conn = ShmDialer::new(socket).dial().map_err(transport_to_cuda)?;
        Self::connect_over_opts(conn, mem_requirement, hint, qos)
    }

    /// [`GrdLib::dial_shm`] with an explicit per-direction ring capacity
    /// in bytes (power of two, 4 KiB – 1 GiB). The largest frame is
    /// `ring_capacity - 4` bytes: a fatbin must fit it (copies travel
    /// through the window, not the ring).
    ///
    /// # Errors
    ///
    /// As [`GrdLib::dial_uds`].
    ///
    /// # Panics
    ///
    /// On an out-of-range capacity — a configuration error, not a
    /// runtime condition.
    pub fn dial_shm_with_capacity(
        socket: impl AsRef<Path>,
        mem_requirement: u64,
        ring_capacity: u32,
    ) -> CudaResult<Self> {
        let conn = ShmDialer::with_capacity(socket, ring_capacity)
            .dial()
            .map_err(transport_to_cuda)?;
        Self::connect_over(conn, mem_requirement)
    }

    /// Connect over an already-established transport connection. This is
    /// the transport-agnostic entry point: anything that speaks the wire
    /// protocol over a [`Connection`] can host a tenant.
    ///
    /// # Errors
    ///
    /// As [`GrdLib::connect`].
    pub fn connect_over(conn: Box<dyn Connection>, mem_requirement: u64) -> CudaResult<Self> {
        Self::connect_over_hinted(conn, mem_requirement, None)
    }

    /// [`GrdLib::connect_over`] with a multi-GPU [`PlacementHint`].
    ///
    /// # Errors
    ///
    /// As [`GrdLib::connect`].
    pub fn connect_over_hinted(
        conn: Box<dyn Connection>,
        mem_requirement: u64,
        hint: Option<PlacementHint>,
    ) -> CudaResult<Self> {
        Self::connect_over_opts(conn, mem_requirement, hint, QosClass::BestEffort)
    }

    /// The fully-parameterized connect: transport, memory requirement,
    /// placement hint, and requested QoS class. Every other connect
    /// variant funnels here (requesting best-effort unless stated).
    ///
    /// # Errors
    ///
    /// As [`GrdLib::connect`].
    pub fn connect_over_opts(
        conn: Box<dyn Connection>,
        mem_requirement: u64,
        hint: Option<PlacementHint>,
        qos: QosClass,
    ) -> CudaResult<Self> {
        let window = conn
            .window()
            .ok_or_else(|| CudaError::Rejected("connection has no transfer window".into()))?;
        let mut lib = GrdLib {
            conn,
            id: ClientId(0),
            clock_ghz: 0.0,
            partition_base: 0,
            partition_size: 0,
            device: 0,
            window,
            deferred_launch: false,
            qos: QosClass::BestEffort.to_wire(),
            pending: Mutex::new(Vec::new()),
            next_module: 1,
            next_stream: 1,
        };
        match lib.call(&Request::Connect {
            mem_requirement,
            hint,
            qos: qos.to_wire(),
        })? {
            Response::Connected(info) => {
                lib.id = ClientId(info.client);
                lib.clock_ghz = info.clock_ghz;
                lib.partition_base = info.partition_base;
                lib.partition_size = info.partition_size;
                lib.device = info.device;
                lib.deferred_launch = info.deferred_launch;
                lib.qos = info.qos;
                Ok(lib)
            }
            _ => Err(CudaError::Disconnected),
        }
    }

    /// The client id the manager assigned to this tenant.
    pub fn client_id(&self) -> ClientId {
        self.id
    }

    /// The tenant's partition, as (base, size). Exposed for tests and
    /// examples; applications do not need it.
    pub fn partition(&self) -> (u64, u64) {
        (self.partition_base, self.partition_size)
    }

    /// Index of the GPU the manager placed (or last migrated) this
    /// tenant onto.
    pub fn device(&self) -> u32 {
        self.device
    }

    /// The QoS class the manager granted this tenant (the requested
    /// class clamped to the uid's lease ceiling). Refreshed by
    /// [`GrdLib::refresh`], so a tenant can observe a live demotion.
    pub fn qos(&self) -> QosClass {
        QosClass::from_wire(self.qos)
    }

    /// Enumerate the manager's device set: per-GPU pool capacity, load,
    /// and tenant counts.
    ///
    /// # Errors
    ///
    /// Transport failures as [`CudaError::Disconnected`]/`Rejected`.
    pub fn device_infos(&self) -> CudaResult<Vec<DeviceInfo>> {
        match self.call(&Request::DeviceInfo)? {
            Response::Devices(d) => Ok(d),
            _ => Err(CudaError::Disconnected),
        }
    }

    /// Number of GPUs behind this manager.
    ///
    /// # Errors
    ///
    /// As [`GrdLib::device_infos`].
    pub fn device_count(&self) -> CudaResult<u32> {
        Ok(self.device_infos()?.len() as u32)
    }

    /// Migrate this tenant's partition to `device`, live. The manager
    /// drains outstanding work, copies every live allocation to an
    /// equally-sized partition on the destination (offsets preserved),
    /// and rebinds the session. Returns the pointer delta to add to any
    /// device pointers the application still holds — `cudaMalloc`
    /// results obtained before the move stay valid after
    /// `ptr.wrapping_add(delta)`.
    ///
    /// # Errors
    ///
    /// [`CudaError::OutOfMemory`] when the destination pool cannot host
    /// the partition (the tenant stays where it was);
    /// [`CudaError::Rejected`] for unknown devices.
    pub fn migrate(&mut self, device: u32) -> CudaResult<u64> {
        let resp = self.call(&Request::Migrate { device })?;
        self.adopt_binding(resp)
    }

    /// Re-read this tenant's current binding from the manager and adopt
    /// it, returning the pointer delta since the last known frame (0
    /// when nothing moved). A tenant the *manager* migrated — rebalance
    /// ([`ManagerHandle::rebalance`](crate::ManagerHandle::rebalance)) or
    /// an operator's [`migrate_partition`](crate::ManagerHandle::migrate_partition)
    /// — holds stale pointers until it calls this.
    ///
    /// # Errors
    ///
    /// Transport failures as [`CudaError::Disconnected`]/`Rejected`.
    pub fn refresh(&mut self) -> CudaResult<u64> {
        let resp = self.call(&Request::Binding)?;
        self.adopt_binding(resp)
    }

    fn adopt_binding(&mut self, resp: Response) -> CudaResult<u64> {
        match resp {
            Response::Connected(info) => {
                let delta = info.partition_base.wrapping_sub(self.partition_base);
                self.clock_ghz = info.clock_ghz;
                self.partition_base = info.partition_base;
                self.partition_size = info.partition_size;
                self.device = info.device;
                self.qos = info.qos;
                Ok(delta)
            }
            _ => Err(CudaError::Disconnected),
        }
    }

    /// Full RPC round trip: encode, send, await and decode the response.
    fn call(&self, req: &Request) -> CudaResult<Response> {
        self.call_frame(req.encode())
    }

    /// Round trip for an already-encoded frame (hot paths encode straight
    /// from borrowed buffers via `proto::encode_*`, skipping the owned
    /// `Request`). Buffered one-way frames ride along in front of the
    /// request, in one batched send — order on the wire is exactly the
    /// order the application issued.
    fn call_frame(&self, frame: Vec<u8>) -> CudaResult<Response> {
        let batch = {
            let mut pending = self.pending.lock();
            if pending.is_empty() {
                // The common (non-deferred) shape: a one-frame batch is
                // a plain send on every transport, bit-identical to the
                // pre-batching wire traffic.
                vec![frame]
            } else {
                pending.push(frame);
                std::mem::take(&mut *pending)
            }
        };
        self.conn.send_batch(batch).map_err(transport_to_cuda)?;
        self.reply()
    }

    /// Await and decode the reply to a round trip.
    fn reply(&self) -> CudaResult<Response> {
        let frame = self.conn.recv().map_err(transport_to_cuda)?;
        match Response::decode(&frame).map_err(|_| CudaError::Disconnected)? {
            Response::Error(e) => Err(e),
            resp => Ok(resp),
        }
    }

    /// Queue a one-way frame for coalescing, flushing at the batch cap.
    fn push_one_way(&self, frame: Vec<u8>) -> CudaResult<()> {
        let batch = {
            let mut pending = self.pending.lock();
            pending.push(frame);
            if pending.len() < PENDING_FLUSH {
                return Ok(());
            }
            std::mem::take(&mut *pending)
        };
        self.conn.send_batch(batch).map_err(transport_to_cuda)
    }

    fn call_unit(&self, req: &Request) -> CudaResult<()> {
        self.call_frame_unit(req.encode())
    }

    fn call_frame_unit(&self, frame: Vec<u8>) -> CudaResult<()> {
        match self.call_frame(frame)? {
            Response::Unit => Ok(()),
            _ => Err(CudaError::Disconnected),
        }
    }

    /// One window's worth of H2D copy (see [`CudaApi::cuda_memcpy_h2d`]).
    fn memcpy_h2d(&self, dst: DevicePtr, data: &[u8]) -> CudaResult<()> {
        if self.deferred_launch && data.len() <= H2D_ASYNC_MAX {
            // Small staging copies between deferred launches go one-way
            // and inline so the whole enqueue run coalesces into a single
            // transport send; bounds errors become sticky and surface at
            // the next sync, matching the async launch error model.
            self.push_one_way(proto::encode_memcpy_h2d_async(dst, data))
        } else {
            // The window is free: every earlier copy through it was a
            // round trip that has completed.
            self.window.write(data);
            self.call_unit(&Request::MemcpyH2D {
                dst,
                len: data.len() as u64,
            })
        }
    }

    /// One window's worth of D2H copy, appended to `out` (see
    /// [`CudaApi::cuda_memcpy_d2h`]).
    fn memcpy_d2h(&self, src: DevicePtr, len: u64, out: &mut Vec<u8>) -> CudaResult<()> {
        self.call_unit(&Request::MemcpyD2H { src, len })?;
        // `len` fits the window: the callers split larger copies.
        self.window.read_append(len as usize, out);
        Ok(())
    }

    fn call_ptr(&self, req: &Request) -> CudaResult<DevicePtr> {
        match self.call(req)? {
            Response::Ptr(p) => Ok(p),
            _ => Err(CudaError::Disconnected),
        }
    }

    fn launch(
        &self,
        kernel: &str,
        cfg: LaunchConfig,
        args: &[u8],
        driver_level: bool,
    ) -> CudaResult<()> {
        let frame = crate::proto::encode_launch(kernel, &cfg, args, driver_level);
        if self.deferred_launch {
            // True async enqueue: fire and forget; launch errors surface
            // at the next synchronization point (CUDA's async error
            // model). Coalesced with neighbouring one-way frames.
            self.push_one_way(frame)
        } else {
            self.call_frame_unit(frame)
        }
    }
}

impl CudaApi for GrdLib {
    fn cuda_malloc(&mut self, bytes: u64) -> CudaResult<DevicePtr> {
        self.call_ptr(&Request::Malloc { bytes })
    }

    fn cuda_free(&mut self, ptr: DevicePtr) -> CudaResult<()> {
        if self.deferred_launch {
            // One-way, like a deferred launch: the free rides in front of
            // the next round trip, and a bad pointer's error surfaces at
            // the next sync.
            self.push_one_way(Request::FreeAsync { ptr }.encode())
        } else {
            self.call_unit(&Request::Free { ptr })
        }
    }

    fn cuda_memset(&mut self, dst: DevicePtr, byte: u8, len: u64) -> CudaResult<()> {
        self.call_unit(&Request::Memset { dst, byte, len })
    }

    fn cuda_memcpy_h2d(&mut self, dst: DevicePtr, data: &[u8]) -> CudaResult<()> {
        // A copy larger than the window goes as several; the manager
        // bounds-checks each on its own.
        let chunk = self.window.size();
        if data.len() <= chunk {
            return self.memcpy_h2d(dst, data);
        }
        for (i, part) in data.chunks(chunk).enumerate() {
            self.memcpy_h2d(dst.wrapping_add((i * chunk) as u64), part)?;
        }
        Ok(())
    }

    fn cuda_memcpy_d2h(&mut self, src: DevicePtr, len: u64) -> CudaResult<Vec<u8>> {
        let chunk = self.window.size() as u64;
        let mut out = Vec::new();
        if len <= chunk {
            self.memcpy_d2h(src, len, &mut out)?;
            return Ok(out);
        }
        // No copy can exceed the partition, whatever `len` claims.
        out.reserve(len.min(self.partition_size) as usize);
        let mut done = 0;
        while done < len {
            let n = chunk.min(len - done);
            self.memcpy_d2h(src.wrapping_add(done), n, &mut out)?;
            done += n;
        }
        Ok(out)
    }

    fn cuda_memcpy_d2d(&mut self, dst: DevicePtr, src: DevicePtr, len: u64) -> CudaResult<()> {
        self.call_unit(&Request::MemcpyD2D { dst, src, len })
    }

    fn cuda_launch_kernel(
        &mut self,
        kernel: &str,
        cfg: LaunchConfig,
        args: &[u8],
        _stream: Stream,
    ) -> CudaResult<()> {
        // All of one application's work is executed in order by its
        // data-plane session (§4.2.4), so per-app stream handles collapse
        // onto the tenant's single manager-side stream.
        self.launch(kernel, cfg, args, false)
    }

    fn cuda_stream_create(&mut self) -> CudaResult<Stream> {
        let s = self.next_stream;
        self.next_stream += 1;
        Ok(Stream(s))
    }

    fn cuda_stream_synchronize(&mut self, _stream: Stream) -> CudaResult<()> {
        self.cuda_device_synchronize()
    }

    fn cuda_device_synchronize(&mut self) -> CudaResult<()> {
        self.call_unit(&Request::Sync)
    }

    fn cuda_event_create_with_flags(&mut self, _flags: u32) -> CudaResult<EventHandle> {
        match self.call(&Request::EventCreate)? {
            Response::EventId(id) => Ok(EventHandle(id)),
            _ => Err(CudaError::Disconnected),
        }
    }

    fn cuda_event_record(&mut self, event: EventHandle, _stream: Stream) -> CudaResult<()> {
        self.call_unit(&Request::EventRecord { event: event.0 })
    }

    fn cuda_event_elapsed_ms(&mut self, start: EventHandle, end: EventHandle) -> CudaResult<f32> {
        match self.call(&Request::EventElapsed {
            start: start.0,
            end: end.0,
        })? {
            Response::ElapsedMs(ms) => Ok(ms),
            _ => Err(CudaError::Disconnected),
        }
    }

    fn cuda_stream_get_capture_info(&mut self, _stream: Stream) -> CudaResult<bool> {
        Ok(false)
    }

    fn cuda_stream_is_capturing(&mut self, _stream: Stream) -> CudaResult<bool> {
        Ok(false)
    }

    fn cuda_get_export_table(&mut self, table_id: u32) -> CudaResult<Vec<String>> {
        // Guardian provides a minimal implementation of the hidden tables
        // (§4.1); they are static, so the stub answers locally.
        cuda_rt::export::table(table_id)
            .map(|fns| fns.iter().map(|s| s.to_string()).collect())
            .ok_or(CudaError::MissingExportTable(table_id))
    }

    fn export_table_call(&mut self, table_id: u32, func: &str) -> CudaResult<()> {
        if cuda_rt::export::table_has(table_id, func) {
            Ok(())
        } else {
            Err(CudaError::InvalidValue)
        }
    }

    fn cu_module_load_data(&mut self, name: &str, ptx_text: &str) -> CudaResult<ModuleHandle> {
        self.call_unit(&Request::RegisterPtx {
            name: name.to_string(),
            text: ptx_text.to_string(),
        })?;
        let id = self.next_module;
        self.next_module += 1;
        Ok(ModuleHandle(id))
    }

    fn cu_mem_alloc(&mut self, bytes: u64) -> CudaResult<DevicePtr> {
        self.cuda_malloc(bytes)
    }

    fn cu_mem_free(&mut self, ptr: DevicePtr) -> CudaResult<()> {
        self.cuda_free(ptr)
    }

    fn cu_memcpy_htod(&mut self, dst: DevicePtr, data: &[u8]) -> CudaResult<()> {
        self.cuda_memcpy_h2d(dst, data)
    }

    fn cu_launch_kernel(
        &mut self,
        kernel: &str,
        cfg: LaunchConfig,
        args: &[u8],
        _stream: Stream,
    ) -> CudaResult<()> {
        self.launch(kernel, cfg, args, true)
    }

    fn register_fatbin(&mut self, fatbin: &[u8]) -> CudaResult<()> {
        self.call_unit(&Request::RegisterFatbin {
            bytes: fatbin.to_vec().into(),
        })
    }

    fn device_now_cycles(&mut self) -> u64 {
        match self.call(&Request::DeviceNow) {
            Ok(Response::Cycles(c)) => c,
            _ => 0,
        }
    }

    fn device_clock_ghz(&self) -> f64 {
        self.clock_ghz
    }
}

impl Drop for GrdLib {
    fn drop(&mut self) {
        // Best-effort disconnect; the manager frees the partition. The
        // session also treats a vanished connection as a disconnect, so a
        // crashed tenant cannot leak its partition.
        let mut batch = std::mem::take(&mut *self.pending.lock());
        batch.push(Request::Disconnect.encode());
        let _ = self.conn.send_batch(batch);
    }
}

#[cfg(test)]
mod tests {
    //! The same tenant workload over every transport: the stub is
    //! transport-agnostic, so the only thing these tests vary is how the
    //! manager was bound and how the tenant dialed.

    use crate::manager::{spawn_manager_over, ManagerConfig};
    use crate::transport::BoundTransport;
    use crate::GrdLib;
    use cuda_rt::{share_device, ArgPack, CudaApi, CudaError};
    use gpu_sim::spec::test_gpu;
    use gpu_sim::{Device, LaunchConfig};
    use ptx::fatbin::FatBin;
    use std::path::PathBuf;

    fn temp_sock(tag: &str) -> PathBuf {
        crate::fixtures::temp_socket_path(&format!("lib-{tag}"))
    }

    fn fill_fatbin() -> Vec<u8> {
        let mut fb = FatBin::new();
        fb.push_ptx("app", crate::fixtures::FILL);
        fb.to_bytes().to_vec()
    }

    /// Run the end-to-end tenant workload (register, malloc, launch,
    /// sync, read back, bounds rejection) over an already-bound manager.
    fn exercise(mut lib: GrdLib) {
        lib.register_fatbin(&fill_fatbin()).unwrap();
        let buf = lib.cuda_malloc(4 * 64).unwrap();
        let args = ArgPack::new().ptr(buf).u32(64).finish();
        lib.cuda_launch_kernel(
            "fill",
            LaunchConfig::linear(2, 32),
            &args,
            Default::default(),
        )
        .unwrap();
        lib.cuda_device_synchronize().unwrap();
        let out = lib.cuda_memcpy_d2h(buf, 4 * 64).unwrap();
        for i in 0..64u32 {
            let v = u32::from_le_bytes(out[i as usize * 4..][..4].try_into().unwrap());
            assert_eq!(v, i);
        }
        // Out-of-partition transfer still rejected across the boundary.
        let (base, size) = lib.partition();
        assert!(matches!(
            lib.cuda_memcpy_h2d(base + size, &[0u8; 4]),
            Err(CudaError::Rejected(_))
        ));
    }

    #[test]
    fn tenant_runs_over_uds_manager() {
        let path = temp_sock("uds");
        let mgr = spawn_manager_over(
            share_device(Device::new(test_gpu())),
            ManagerConfig {
                pool_bytes: Some(8 << 20),
                ..ManagerConfig::default()
            },
            &[],
            BoundTransport::uds(&path).unwrap(),
        )
        .unwrap();
        exercise(GrdLib::dial_uds(&path, 4 << 20).unwrap());
        // Shutdown must join cleanly despite the kernel-blocked accept.
        mgr.shutdown();
        assert!(!path.exists(), "socket file not removed at shutdown");
    }

    #[test]
    fn tenant_runs_over_shm_manager() {
        let path = temp_sock("shm");
        let mgr = spawn_manager_over(
            share_device(Device::new(test_gpu())),
            ManagerConfig {
                pool_bytes: Some(8 << 20),
                ..ManagerConfig::default()
            },
            &[],
            BoundTransport::shm(&path).unwrap(),
        )
        .unwrap();
        exercise(GrdLib::dial_shm(&path, 4 << 20).unwrap());
        mgr.shutdown();
        assert!(!path.exists(), "handshake socket not removed at shutdown");
    }

    /// A copy larger than the connection's frame limit is split into
    /// frames that fit — 4 MiB through a default (1 MiB) shm ring used
    /// to be refused on H2D and to kill the tenant on D2H — and a free
    /// goes one-way under deferred acks without losing its effect.
    #[test]
    fn copies_larger_than_a_frame_round_trip() {
        use crate::manager::LaunchAck;
        for (wire, ack) in [("uds", LaunchAck::Eager), ("shm", LaunchAck::Deferred)] {
            let path = temp_sock(&format!("big-{wire}"));
            let transport = match wire {
                "uds" => BoundTransport::uds(&path),
                _ => BoundTransport::shm(&path),
            }
            .unwrap();
            let mgr = spawn_manager_over(
                share_device(Device::new(test_gpu())),
                ManagerConfig {
                    pool_bytes: Some(16 << 20),
                    launch_ack: ack,
                    ..ManagerConfig::default()
                },
                &[],
                transport,
            )
            .unwrap();
            let mut lib = match wire {
                "uds" => GrdLib::dial_uds(&path, 8 << 20),
                _ => GrdLib::dial_shm(&path, 8 << 20),
            }
            .unwrap();
            let len = 4 << 20;
            let data: Vec<u8> = (0..len as u32).map(|i| (i * 7 + i / 4096) as u8).collect();
            let buf = lib.cuda_malloc(len as u64).unwrap();
            lib.cuda_memcpy_h2d(buf, &data).unwrap();
            assert!(
                lib.cuda_memcpy_d2h(buf, len as u64).unwrap() == data,
                "{wire}"
            );
            // An unaligned window inside it, across a chunk boundary.
            let back = lib.cuda_memcpy_d2h(buf + 3, (1 << 20) + 5).unwrap();
            assert!(back[..] == data[3..(1 << 20) + 8], "{wire}");
            lib.cuda_free(buf).unwrap();
            // The whole partition heap is free again.
            let again = lib.cuda_malloc(8 << 20).unwrap();
            assert_eq!(again, buf, "{wire}");
            lib.cuda_device_synchronize().unwrap();
            drop(lib);
            mgr.shutdown();
        }
    }

    #[test]
    fn merged_transport_serves_uds_and_shm_tenants() {
        let uds_path = temp_sock("m-uds");
        let shm_path = temp_sock("m-shm");
        let transport = BoundTransport::merge(vec![
            BoundTransport::uds(&uds_path).unwrap(),
            BoundTransport::shm(&shm_path).unwrap(),
        ]);
        let mgr = spawn_manager_over(
            share_device(Device::new(test_gpu())),
            ManagerConfig {
                pool_bytes: Some(8 << 20),
                ..ManagerConfig::default()
            },
            &[],
            transport,
        )
        .unwrap();
        let a = GrdLib::dial_uds(&uds_path, 2 << 20).unwrap();
        let b = GrdLib::dial_shm(&shm_path, 2 << 20).unwrap();
        // Distinct tenants of one manager: disjoint partitions.
        assert_ne!(a.partition().0, b.partition().0);
        drop((a, b));
        mgr.shutdown();
    }

    /// One step of a copy sequence: `((d2h, large), size, offset, seed)`.
    /// Small sizes straddle the inline/window split under deferred acks
    /// (0 B to 3 × `H2D_ASYNC_MAX`), large ones are 1–5 MiB; the offset
    /// is reduced into the buffer.
    type Step = ((bool, bool), usize, u64, u8);

    /// Apply `steps` to an 8 MiB buffer through `api`, returning every
    /// D2H result in order.
    fn run_copies(api: &mut dyn CudaApi, steps: &[Step]) -> Vec<Vec<u8>> {
        const BUF: u64 = 8 << 20;
        let buf = api.cuda_malloc(BUF).unwrap();
        let mut reads = Vec::new();
        for &((d2h, large), size, offset, seed) in steps {
            let len = if large {
                (1 << 20) + size % (4 << 20)
            } else {
                size % (3 * super::H2D_ASYNC_MAX + 1)
            };
            let at = buf + offset % (BUF - len as u64 + 1);
            if d2h {
                reads.push(api.cuda_memcpy_d2h(at, len as u64).unwrap());
            } else {
                let data: Vec<u8> = (0..len)
                    .map(|i| (i as u8).wrapping_mul(seed | 1) ^ (i >> 12) as u8)
                    .collect();
                api.cuda_memcpy_h2d(at, &data).unwrap();
            }
        }
        api.cuda_device_synchronize().unwrap();
        reads.push(api.cuda_memcpy_d2h(buf, BUF).unwrap());
        reads
    }

    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Random H2D/D2H sequences through the window — over uds and
        /// shm under deferred acks, and the in-process channel under
        /// eager ones — read back byte-identical to the native arm.
        #[test]
        fn window_copies_match_native_on_every_transport(
            steps in pvec(
                ((any::<bool>(), any::<bool>()), any::<usize>(), any::<u64>(), any::<u8>()),
                1..8,
            )
        ) {
            use crate::manager::LaunchAck;
            let mut native = cuda_rt::NativeRuntime::new(share_device(Device::new(test_gpu()))).unwrap();
            let want = run_copies(&mut native, &steps);
            for wire in ["uds", "shm", "channel"] {
                let path = temp_sock(&format!("prop-{wire}"));
                let transport = match wire {
                    "uds" => BoundTransport::uds(&path).unwrap(),
                    "shm" => BoundTransport::shm(&path).unwrap(),
                    _ => BoundTransport::channel(),
                };
                let launch_ack = if wire == "channel" { LaunchAck::Eager } else { LaunchAck::Deferred };
                let mgr = spawn_manager_over(
                    share_device(Device::new(test_gpu())),
                    ManagerConfig {
                        pool_bytes: Some(8 << 20),
                        launch_ack,
                        ..ManagerConfig::default()
                    },
                    &[],
                    transport,
                )
                .unwrap();
                let mut lib = match wire {
                    "uds" => GrdLib::dial_uds(&path, 8 << 20),
                    "shm" => GrdLib::dial_shm(&path, 8 << 20),
                    _ => GrdLib::connect(&mgr, 8 << 20),
                }
                .unwrap();
                let got = run_copies(&mut lib, &steps);
                prop_assert!(got == want, "{wire} diverged from native");
                drop(lib);
                mgr.shutdown();
            }
        }
    }
}
