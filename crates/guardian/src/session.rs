//! Per-tenant data-plane sessions: the concurrent half of the dispatch
//! core.
//!
//! Every accepted transport connection gets its own session — a cell in
//! the epoll executor pool ([`crate::exec`]), or a thread when the
//! connection has no fd to poll. The session decodes frames and executes
//! **data-plane** operations (memset, memcpy, launch, sync, events, and
//! malloc/free from the tenant's own partition heap) directly against
//! fine-grained shared state, so
//! independent tenants no longer serialize through one manager queue;
//! **control-plane** operations (connect/disconnect, fatbin/PTX
//! registration, migration) are forwarded to the serialized control
//! thread in [`crate::manager`], which remains the only mutator of the
//! partition table and kernel registry.
//!
//! Shared state is read-mostly where tenants share it — the
//! `pointerToSymbol` table behind an `RwLock`, partition bounds immutable
//! per client — and per-client where it is hot (each tenant's heap and
//! event table live in its own `ClientShared`, so sessions of different
//! tenants never contend on them).

use crate::alloc::{Partition, RegionAllocator, SUBALLOC_ALIGN};
use crate::control::{QosClass, TenantCounters};
use crate::manager::{ctrl_call, CtrlMsg, CtrlOp, CtrlOut, LaunchAck, LaunchStatsAtomic};
use crate::proto::{self, ConnectInfo, Payload, Request, Response, StatsSnapshot, Symbol};
use crate::telemetry::{self, ExecGauges, OpClass, TenantTelemetry, TraceEvent};
use crate::transport::frame::FrameView;
use crate::transport::{Connection, Listener};
use crate::ClientId;
use crossbeam::channel::Sender;
use cuda_rt::{CudaError, CudaResult, SharedDevice};
use gpu_sim::stream::{CudaFunction, ParamBuf, ParamPool};
use gpu_sim::{Command, CtxId, Event, HostBytes, HostSink, LaunchConfig, MemGuard, StreamId};
use parking_lot::{Mutex, RwLock};
use ptx_patcher::Protection;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Kernel registries shared by all sessions (read-mostly: written only
/// during registration, read on every launch).
#[derive(Default)]
pub(crate) struct KernelTable {
    /// `pointerToSymbol`: kernel name → sandboxed CUfunction (§4.2.3).
    pub pointer_to_symbol: HashMap<String, CudaFunction>,
    /// Native (unpatched) kernels for the no-protection / standalone path.
    pub native: HashMap<String, CudaFunction>,
}

/// Per-client event table (`cudaEvent_t` handles).
#[derive(Default)]
pub(crate) struct EventTable {
    pub events: HashMap<u32, Event>,
    pub next: u32,
}

/// Everything the manager keeps **per GPU**: the device itself, the
/// manager's one context on it, the sandboxed-kernel registry (each
/// device JITs its own copy of every module), and the fault-reaping
/// cursor into that device's log. Sessions of tenants on *different*
/// GPUs share none of this — that independence is what makes a second
/// device add throughput instead of lock contention.
pub(crate) struct GpuShared {
    pub device: SharedDevice,
    pub ctx: CtxId,
    pub kernels: RwLock<KernelTable>,
    /// Bumped on every registry write; session-side kernel caches
    /// compare against it so a re-registered name is never served from
    /// a stale resolved handle.
    pub kernels_gen: AtomicU64,
    /// How far into this device's fault log reaping has progressed.
    pub fault_cursor: Mutex<usize>,
}

/// A tenant's current placement: which GPU, which stream on it, and the
/// partition carved from that GPU's pool. Data-plane operations hold the
/// read lock for their whole duration; migration takes the write lock —
/// that acquisition is the **migration barrier** (it waits out in-flight
/// ops, and every later op sees the new device).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Binding {
    pub gpu: u32,
    pub stream: StreamId,
    pub partition: Partition,
}

/// State owned by one tenant but reachable by every session (for fault
/// reaping) — hot fields are per-client so tenants never contend.
pub(crate) struct ClientShared {
    pub id: ClientId,
    /// Set when Guardian terminates the client after OOB detection.
    pub dead: AtomicBool,
    /// Bumped by the control thread (under the binding write lock,
    /// *before* it drains the device) whenever this tenant's placement
    /// is about to change — migration or teardown. Sessions cache the
    /// binding and resolved kernels under the epoch they read, and
    /// re-validate it under the device lock at flush, so the steady
    /// state skips `binding.read()` entirely without weakening the
    /// migration barrier.
    pub epoch: AtomicU64,
    /// Deferred-mode launch error, surfaced at the next `Sync`.
    pub sticky: Mutex<Option<CudaError>>,
    pub heap: Mutex<RegionAllocator>,
    pub events: Mutex<EventTable>,
    /// Where the tenant currently lives; see [`Binding`].
    pub binding: RwLock<Binding>,
    /// Lock-free mirrors of `binding.gpu` / `binding.stream`, updated
    /// under the binding write lock. Fault reaping matches on these so it
    /// never takes a binding lock — a session reaping another device's
    /// faults while a migration holds a write lock must not deadlock.
    pub gpu_tag: AtomicU32,
    pub stream_tag: AtomicU32,
    /// Memory cap of the lease this tenancy was granted under
    /// (`u64::MAX` = uncapped); immutable for the tenancy's lifetime.
    pub lease_mem: u64,
    /// Lease TTL in milliseconds (0 = never expires); immutable.
    pub lease_ttl_ms: u64,
    /// Granted QoS class on the wire encoding ([`QosClass::to_wire`]).
    /// Written by the control thread — at admission, and again when a
    /// lease override demotes a live latency tenant — and read by the
    /// executor's drain gate, so demotion takes effect on the very next
    /// drain round without a reconnect.
    pub qos: AtomicU8,
    /// Usage counters the data plane bumps and the admin plane reads.
    pub counters: Arc<TenantCounters>,
    /// Latency histograms + flight recorder for this tenancy; `None`
    /// when the manager runs with telemetry disabled — the hot path
    /// then skips even the clock reads.
    pub telemetry: Option<Arc<TenantTelemetry>>,
}

impl ClientShared {
    /// Store a new binding (write lock already held by the caller) and
    /// refresh the reap tags.
    pub(crate) fn set_binding(&self, guard: &mut Binding, new: Binding) {
        *guard = new;
        self.gpu_tag.store(new.gpu, Ordering::SeqCst);
        self.stream_tag.store(new.stream.0, Ordering::SeqCst);
    }
}

/// State shared between the control plane and all data-plane sessions.
pub(crate) struct Shared {
    /// The device set, indexed by GPU ordinal.
    pub gpus: Vec<GpuShared>,
    pub protection: Protection,
    pub native_when_standalone: bool,
    pub launch_ack: LaunchAck,
    pub clients: RwLock<HashMap<ClientId, Arc<ClientShared>>>,
    pub stats: LaunchStatsAtomic,
    /// Data-plane ops currently executing, and the high-water mark — the
    /// observable witness that tenants' dispatch genuinely overlaps.
    pub inflight: AtomicU32,
    pub max_inflight: AtomicU32,
    /// Executor instrumentation (drain batches, parks/wakes, re-arms),
    /// owned by the control plane so `/metrics` can read it.
    pub exec_gauges: Arc<ExecGauges>,
    /// Launches a best-effort tenant may hold in flight (admitted since
    /// its last sync) before the executor rate-gates its drain rounds.
    pub qos_inflight_budget: u64,
}

impl Shared {
    pub(crate) fn check_alive(client: &ClientShared) -> CudaResult<()> {
        if client.dead.load(Ordering::SeqCst) {
            Err(CudaError::Rejected(
                "client terminated by Guardian after out-of-bounds detection".into(),
            ))
        } else {
            Ok(())
        }
    }

    pub(crate) fn gpu(&self, index: u32) -> &GpuShared {
        &self.gpus[index as usize]
    }

    /// Scan new faults on one device; a contained trap kills only the
    /// offending client (§4.2.4 / §5 — OOB fault isolation). Any session
    /// may reap; the cursor lock is held until the dead flags are stored,
    /// so a fault consumed by one session's reap is always visible to the
    /// offender's next `check_alive` (cursor-advanced-but-not-yet-marked
    /// would let the offender's own sync slip through and return Ok).
    /// Matching uses the clients' lock-free `(gpu_tag, stream_tag)`
    /// mirrors: a fault can only be attributed to a tenant while it is
    /// bound to the faulting device, and migration drains the source
    /// device (and reaps it) before retagging, so no fault slips through
    /// a rebind.
    pub(crate) fn reap_faults(&self, gpu: u32) {
        let g = self.gpu(gpu);
        let mut cursor = g.fault_cursor.lock();
        let hits: Vec<StreamId> = {
            let dev = g.device.lock();
            let log = dev.fault_log();
            let start = (*cursor).min(log.len());
            *cursor = log.len();
            log[start..].iter().map(|f| f.stream).collect()
        };
        if hits.is_empty() {
            return;
        }
        let clients = self.clients.read();
        for state in clients.values() {
            if state.gpu_tag.load(Ordering::SeqCst) == gpu
                && hits.contains(&StreamId(state.stream_tag.load(Ordering::SeqCst)))
            {
                state.dead.store(true, Ordering::SeqCst);
            }
        }
    }
}

/// What the caller driving a session should do after feeding it one
/// frame.
pub(crate) enum Step {
    /// Send this reply frame back to the peer.
    Reply(Vec<u8>),
    /// One-way request: nothing goes back.
    None,
    /// Send this reply, then drop the connection (malformed frame —
    /// the peer is broken or hostile; report once and hang up, as a
    /// socket server would).
    ReplyThenClose(Vec<u8>),
}

/// Launch descriptors admitted but not yet enqueued are flushed at this
/// many, bounding per-session memory and device-queue burstiness.
const LAUNCH_BUF: usize = 64;

/// One admitted-but-unflushed launch: the resolved kernel handle, the
/// geometry, and the raw (unaugmented) argument bytes — still a zero-copy
/// view into the receive buffer. Partition bounds are applied at flush,
/// under the epoch-validated binding.
struct LaunchItem {
    func: CudaFunction,
    cfg: LaunchConfig,
    args: Payload,
    driver_level: bool,
}

/// A session's epoch-validated snapshot of its tenant's placement and the
/// kernels it has resolved on that placement's device. Valid exactly
/// while `ClientShared::epoch` still equals `epoch` — the control thread
/// bumps it under the binding write lock before any migration/teardown
/// drain, so steady-state launches skip `binding.read()` and
/// `kernels.read()` entirely.
struct FastCache {
    epoch: u64,
    /// The device registry generation `funcs` was resolved against.
    kgen: u64,
    binding: Binding,
    funcs: HashMap<String, CudaFunction>,
}

/// Stage stamps for one admitted-but-unflushed launch; lives in a
/// scratch vector preallocated alongside `pending` so steady-state
/// pushes never touch the heap.
#[derive(Clone, Copy)]
struct LaunchSpan {
    t_decode: u64,
    t_admit: u64,
}

/// A session as a transport-agnostic state machine: everything one
/// tenant's server side *is*, minus the connection it is fed from. A
/// channel session's blocking loop ([`run_session`]) and the epoll
/// executor ([`crate::exec`]) both drive one of these.
pub(crate) struct SessionCtx {
    shared: Arc<Shared>,
    ctrl: Sender<CtrlMsg>,
    client: Option<Arc<ClientShared>>,
    /// Peer uid the transport established at accept (`SO_PEERCRED` for
    /// sockets; our own uid in-process) — the quota identity a Connect
    /// on this session is admitted under.
    uid: u32,
    /// See [`FastCache`]; populated on the first buffered launch.
    cache: Option<FastCache>,
    /// Launches admitted but not yet enqueued (deferred+concurrent only).
    pending: Vec<LaunchItem>,
    /// Recycles kernel parameter buffers across flushes.
    params: Arc<ParamPool>,
    /// Augmented parameter buffers staged during one flush (storage
    /// reused across flushes).
    staged: Vec<ParamBuf>,
    /// Whether this manager's configuration admits launch buffering:
    /// deferred acks (no per-launch reply) and no standalone-native
    /// switching (its kernel choice depends on the live client count).
    buffering: bool,
    /// Per-pending-launch stage stamps (only pushed when the tenant has
    /// telemetry); parallel to `pending`.
    spans: Vec<LaunchSpan>,
    /// Decode stamp of the frame currently being dispatched; 0 when the
    /// tenant has no telemetry.
    t_decode: u64,
    /// Decode stamp of the oldest launch not yet covered by a sync —
    /// the open edge the launch-to-device-complete histogram closes.
    batch_open_ns: u64,
    /// Launches enqueued since the last sync closed the completion edge.
    unsynced_launches: u64,
}

impl SessionCtx {
    pub(crate) fn new(shared: Arc<Shared>, ctrl: Sender<CtrlMsg>, uid: u32) -> Self {
        let buffering = shared.launch_ack == LaunchAck::Deferred
            && !(shared.native_when_standalone && shared.protection != Protection::None);
        SessionCtx {
            shared,
            ctrl,
            client: None,
            uid,
            cache: None,
            pending: Vec::with_capacity(if buffering { LAUNCH_BUF } else { 0 }),
            params: ParamPool::new(),
            staged: Vec::new(),
            buffering,
            spans: Vec::with_capacity(if buffering { LAUNCH_BUF } else { 0 }),
            t_decode: 0,
            batch_open_ns: 0,
            unsynced_launches: 0,
        }
    }

    /// Credit `n` handled frames to this session's tenant. The epoll
    /// executor calls this once per drain batch — one relaxed add for
    /// up to a whole batch of frames.
    pub(crate) fn note_frames(&self, n: u64) {
        if n > 0 {
            if let Some(c) = &self.client {
                c.counters.frames.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Decode and execute one frame. The decode borrows payloads from
    /// the frame's backing block, so bulk bytes (H2D data, launch args)
    /// are never copied on the way in.
    /// Credit one executor drain batch to the shared gauges.
    pub(crate) fn note_drain(&self, frames: u64) {
        if frames > 0 {
            self.shared.exec_gauges.note_drain(frames);
        }
    }

    /// Whether this session's tenant holds the latency QoS class right
    /// now (demotion flips the atomic mid-session). Tenancy-less
    /// sessions are best-effort.
    pub(crate) fn qos_is_latency(&self) -> bool {
        self.client
            .as_ref()
            .map(|c| c.qos.load(Ordering::Relaxed) == QosClass::Latency.to_wire())
            .unwrap_or(false)
    }

    /// Whether this session's tenant has admitted more launches since
    /// its last sync than the best-effort inflight budget allows.
    pub(crate) fn qos_over_budget(&self) -> bool {
        match &self.client {
            Some(c) => {
                c.counters.inflight.load(Ordering::Relaxed) >= self.shared.qos_inflight_budget
            }
            None => false,
        }
    }

    /// The executor gauge block shared with the control plane.
    pub(crate) fn exec_gauges(&self) -> Arc<ExecGauges> {
        self.shared.exec_gauges.clone()
    }

    /// Decode and execute one frame received on `conn`.
    pub(crate) fn handle_frame(&mut self, frame: &FrameView, conn: &dyn Connection) -> Step {
        #[cfg(debug_assertions)]
        crate::alloc_audit::mark();
        // Stage stamp: frame decode. Tenants without telemetry skip the
        // clock read entirely, keeping the off arm honest for the
        // overhead gate.
        self.t_decode = match &self.client {
            Some(c) if c.telemetry.is_some() => telemetry::now_ns(),
            _ => 0,
        };
        let req = match Request::decode_view(frame) {
            Ok(req) => req,
            Err(e) => {
                let resp = Response::Error(CudaError::Rejected(format!("malformed frame: {e}")));
                return Step::ReplyThenClose(resp.encode());
            }
        };
        match dispatch(req, self, conn) {
            Some(reply) => Step::Reply(reply),
            None => Step::None,
        }
    }

    /// Release the session's tenant, if any — the implicit disconnect
    /// when the connection drops, so crashed tenants cannot leak
    /// partitions. Idempotent.
    pub(crate) fn finish(&mut self) {
        self.flush_pending();
        if let Some(c) = self.client.take() {
            let _ = ctrl_call(&self.ctrl, CtrlOp::Disconnect { client: c.id });
        }
    }

    /// (Re)snapshot the tenant's binding and epoch under a brief read
    /// lock. Loading the epoch while the read lock is held pins the
    /// pair: no writer is active, so the epoch matches the binding.
    fn rebuild_cache(&mut self, c: &ClientShared) {
        let guard = c.binding.read();
        let binding = *guard;
        let epoch = c.epoch.load(Ordering::SeqCst);
        drop(guard);
        // Reuse the map's storage; `kgen: MAX` forces re-resolution
        // against the (possibly different) device's registry.
        let funcs = self
            .cache
            .take()
            .map(|f| {
                let mut m = f.funcs;
                m.clear();
                m
            })
            .unwrap_or_default();
        self.cache = Some(FastCache {
            epoch,
            kgen: u64::MAX,
            binding,
            funcs,
        });
    }

    /// Admit one launch onto the buffered hot path: resolve the kernel
    /// through the epoch-validated cache and queue a descriptor; the
    /// device is only touched at the next flush. Steady state this takes
    /// no locks (two relaxed-ish atomic loads) and no heap allocations.
    fn buffer_launch(
        &mut self,
        c: &Arc<ClientShared>,
        kernel: Symbol,
        cfg: LaunchConfig,
        args: Payload,
        driver_level: bool,
    ) {
        if let Err(e) = Shared::check_alive(c) {
            stick(c, e);
            return;
        }
        let mut warm = true;
        let epoch = c.epoch.load(Ordering::SeqCst);
        if self.cache.as_ref().map(|f| f.epoch) != Some(epoch) {
            warm = false;
            self.rebuild_cache(c);
        }
        let cache = self.cache.as_mut().expect("cache just built");
        let g = &self.shared.gpus[cache.binding.gpu as usize];
        let kgen = g.kernels_gen.load(Ordering::Acquire);
        if cache.kgen != kgen {
            cache.funcs.clear();
            cache.kgen = kgen;
            warm = false;
        }
        let func = match cache.funcs.get(kernel.as_str()) {
            Some(f) => f.clone(),
            None => {
                warm = false;
                match resolve_func(&self.shared, g, kernel.as_str()) {
                    Some(f) => {
                        cache.funcs.insert(kernel.as_str().to_string(), f.clone());
                        f
                    }
                    None => {
                        stick(
                            c,
                            CudaError::InvalidDeviceFunction(kernel.as_str().to_string()),
                        );
                        return;
                    }
                }
            }
        };
        // The op counts as in flight from admission until its flush —
        // that window is the pipelining depth the concurrency high-water
        // mark witnesses.
        let now = self.shared.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        self.shared.max_inflight.fetch_max(now, Ordering::SeqCst);
        // QoS bookkeeping: one launch admitted since the tenant's last
        // sync. A single relaxed add — inside the audited no-alloc
        // window — compared against the best-effort inflight budget by
        // the executor's drain gate.
        c.counters.inflight.fetch_add(1, Ordering::Relaxed);
        self.pending.push(LaunchItem {
            func,
            cfg,
            args,
            driver_level,
        });
        if c.telemetry.is_some() {
            // Stage stamp: session admission. Pushed within `spans`'
            // preallocated capacity, so it stays inside the audited
            // no-alloc window below.
            self.spans.push(LaunchSpan {
                t_decode: self.t_decode,
                t_admit: telemetry::now_ns(),
            });
        }
        // The steady state (warm cache, buffer below its preallocated
        // cap) must not touch the heap; armed by the stress tests'
        // counting allocator.
        #[cfg(debug_assertions)]
        if warm {
            crate::alloc_audit::assert_unchanged("steady-state launch admission");
        }
        let _ = warm;
        if self.pending.len() >= LAUNCH_BUF {
            self.flush_pending();
        }
        // Over-budget admission control (outside the audited no-alloc
        // window — event processing may touch the heap): a best-effort
        // tenant past its inflight budget flushes and drains its *own*
        // stream before another launch is admitted. This is what keeps
        // the device queue shallow for latency-class work — a storm's
        // un-synced backlog is bounded by the budget instead of by the
        // transport, so a priority sync never wades through thousands
        // of queued best-effort commands. Latency tenants are never
        // throttled.
        if !self.qos_is_latency() && self.qos_over_budget() {
            self.flush_pending();
            if let Some(c) = self.client.clone() {
                let b = *c.binding.read();
                self.shared
                    .gpu(b.gpu)
                    .device
                    .lock()
                    .synchronize_stream(b.stream);
                // Everything this tenant admitted has completed: the
                // budget refills.
                c.counters.inflight.store(0, Ordering::Relaxed);
                self.shared
                    .exec_gauges
                    .qos_gated_rounds
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Enqueue every buffered launch under **one** device-lock
    /// acquisition, re-validating the cached binding under that lock.
    /// Errors stick to the tenant (buffering only happens under deferred
    /// acks, where CUDA's asynchronous error model applies).
    pub(crate) fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let n = self.pending.len() as u32;
        let r = match self.client.clone() {
            Some(c) => {
                let r = self.flush_inner(&c);
                if let Err(e) = r {
                    stick(&c, e);
                }
                Ok(())
            }
            None => Ok(()),
        };
        let _: CudaResult<()> = r;
        self.shared.inflight.fetch_sub(n, Ordering::SeqCst);
        self.pending.clear();
        self.staged.clear();
        self.spans.clear();
    }

    fn flush_inner(&mut self, c: &Arc<ClientShared>) -> CudaResult<()> {
        loop {
            Shared::check_alive(c)?;
            let cache = self.cache.as_ref().expect("pending implies cache");
            let (epoch, b) = (cache.epoch, cache.binding);
            let g = &self.shared.gpus[b.gpu as usize];

            // Stage stamp: batch flush start (shared by every launch in
            // the batch).
            let t_flush = if c.telemetry.is_some() {
                telemetry::now_ns()
            } else {
                0
            };

            // (2) Augment every parameter array with the partition
            // bounds, outside the device lock (pure CPU work; Table 5
            // "Augment kernel params", amortized over the batch).
            let t0 = Instant::now();
            self.staged.clear();
            for item in &self.pending {
                self.staged
                    .push(build_params(&self.shared, &self.params, b.partition, item));
            }
            let augment_ns = t0.elapsed().as_nanos() as u64;

            // (3) One lock, whole batch (Table 5 "Launch kernel").
            let t1 = Instant::now();
            let mut dev = g.device.lock();
            if c.epoch.load(Ordering::SeqCst) != epoch {
                // Placement changed after the params were built. The
                // device mutex orders us against the migration/teardown
                // drain, so re-snapshot and re-resolve on the (possibly
                // new) device, then try again.
                drop(dev);
                self.rebuild_cache(c);
                self.re_resolve_pending()?;
                continue;
            }
            let mut first_err: CudaResult<()> = Ok(());
            let mut ok: u64 = 0;
            for (item, params) in self.pending.iter().zip(self.staged.drain(..)) {
                match dev.enqueue(
                    b.stream,
                    Command::Launch {
                        func: item.func.clone(),
                        cfg: item.cfg,
                        params,
                        guard: MemGuard::None,
                    },
                ) {
                    Ok(()) => ok += 1,
                    Err(e) => {
                        if first_err.is_ok() {
                            first_err = Err(e.into());
                        }
                    }
                }
            }
            drop(dev);
            let enqueue_ns = t1.elapsed().as_nanos() as u64;

            if let Some(tel) = &c.telemetry {
                // Stage stamp: device enqueue done. Close the enqueue
                // histogram for every launch in the batch and lay its
                // stage stamps into the flight recorder; the completion
                // edge stays open until the tenant's next sync.
                let t_enq = telemetry::now_ns();
                if self.unsynced_launches == 0 {
                    self.batch_open_ns = self.spans.first().map_or(t_flush, |s| s.t_decode);
                }
                self.unsynced_launches += ok;
                for (i, span) in self.spans.iter().enumerate() {
                    tel.record(OpClass::LaunchEnqueue, t_enq.saturating_sub(span.t_decode));
                    tel.recorder.record(TraceEvent {
                        seq: 0,
                        op: OpClass::LaunchEnqueue as u8,
                        outcome: u8::from(i as u64 >= ok),
                        client: c.id.0,
                        uid: self.uid,
                        stream: b.stream.0,
                        t_decode_ns: span.t_decode,
                        t_admit_ns: span.t_admit,
                        t_flush_ns: t_flush,
                        t_enqueue_ns: t_enq,
                        t_complete_ns: 0,
                    });
                }
            }

            // One atomic round per batch; cache hits make the lookup
            // cost ~0, and the shared ns totals are attributed to the
            // two API levels by launch count.
            let n = self.pending.len() as u64;
            let drv = self.pending.iter().filter(|i| i.driver_level).count() as u64;
            let rt = n - drv;
            self.shared
                .stats
                .record_batch(false, rt, 0, augment_ns * rt / n, enqueue_ns * rt / n);
            self.shared.stats.record_batch(
                true,
                drv,
                0,
                augment_ns * drv / n,
                enqueue_ns * drv / n,
            );
            c.counters.launches.fetch_add(ok, Ordering::Relaxed);
            return first_err;
        }
    }

    /// After a migration invalidated the cache, the buffered handles
    /// still point at the source GPU's modules: resolve each kernel by
    /// name on the new device before retrying the flush.
    fn re_resolve_pending(&mut self) -> CudaResult<()> {
        let cache = self.cache.as_mut().expect("cache rebuilt");
        let g = &self.shared.gpus[cache.binding.gpu as usize];
        cache.kgen = g.kernels_gen.load(Ordering::Acquire);
        cache.funcs.clear();
        let ks = g.kernels.read();
        let native = self.shared.protection == Protection::None;
        for item in &mut self.pending {
            let name = item.func.kernel.name.as_str();
            let f = if native {
                ks.native.get(name)
            } else {
                ks.pointer_to_symbol.get(name)
            };
            match f {
                Some(f) => item.func = f.clone(),
                None => return Err(CudaError::InvalidDeviceFunction(name.to_string())),
            }
        }
        Ok(())
    }
}

/// Record one op-class latency sample against the tenant, if its
/// telemetry is armed. `t0` is the frame's decode stamp.
fn note_op(c: &ClientShared, op: OpClass, t0: u64) {
    if let Some(tel) = &c.telemetry {
        tel.record(op, telemetry::now_ns().saturating_sub(t0));
    }
}

/// Record a deferred-path error against the tenant; it surfaces at the
/// next `Sync` (CUDA's asynchronous error model).
fn stick(c: &ClientShared, e: CudaError) {
    let mut sticky = c.sticky.lock();
    sticky.get_or_insert(e);
}

/// Resolve a kernel in the device's read-mostly registry (the slow path
/// behind the session cache).
fn resolve_func(shared: &Shared, g: &GpuShared, kernel: &str) -> Option<CudaFunction> {
    let ks = g.kernels.read();
    if shared.protection == Protection::None {
        ks.native.get(kernel).cloned()
    } else {
        ks.pointer_to_symbol.get(kernel).cloned()
    }
}

/// Build one launch's augmented parameter array from a pooled buffer.
fn build_params(
    shared: &Shared,
    pool: &Arc<ParamPool>,
    part: Partition,
    item: &LaunchItem,
) -> ParamBuf {
    let mut buf = pool.take();
    let data = buf.data_mut();
    if shared.protection == Protection::None {
        data.extend_from_slice(&item.args);
        return buf;
    }
    let psize = item.func.kernel.param_size;
    data.resize(psize, 0);
    let n = item.args.len().min(psize);
    data[..n].copy_from_slice(&item.args[..n]);
    let nparams = item.func.kernel.params.len();
    debug_assert!(nparams >= 2, "patched kernels carry 2 extra params");
    let (_, _, base_off) = item.func.kernel.params[nparams - 2];
    let (_, _, bound_off) = item.func.kernel.params[nparams - 1];
    let bound = match shared.protection {
        Protection::FenceBitwise => part.mask(),
        Protection::FenceModulo => part.size,
        Protection::Check => part.end(),
        Protection::None => 0,
    };
    data[base_off as usize..base_off as usize + 8].copy_from_slice(&part.base.to_le_bytes());
    data[bound_off as usize..bound_off as usize + 8].copy_from_slice(&bound.to_le_bytes());
    buf
}

/// Spawn the acceptor thread: accepts connections for the listener's
/// lifetime and hands each one to a session driver. A connection that
/// can enter event mode (Unix sockets, shm rings) becomes a cell in the
/// shared epoll executor pool; any other — the fd-less in-process
/// channel — gets [`run_session`] on a dedicated thread. Exits only
/// after every session has ended (sessions end when their client half
/// drops).
pub(crate) fn spawn_acceptor(
    listener: Box<dyn Listener>,
    shared: Arc<Shared>,
    ctrl: Sender<CtrlMsg>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("grdAcceptor".into())
        .spawn(move || {
            // The pool is built lazily on the first adopted connection,
            // so channel-transport managers (most tests) never pay for
            // idle epoll workers.
            let mut pool: Option<crate::exec::EventPool> = None;
            let mut sessions: Vec<JoinHandle<()>> = Vec::new();
            while let Ok(conn) = listener.accept() {
                // Reap completed sessions as we go: short-lived
                // connections (stats polls, departed tenants) must not
                // accumulate handles for the manager's whole lifetime.
                sessions.retain(|s| !s.is_finished());
                // SO_PEERCRED-style transports report the peer's uid at
                // accept; in-process transports (channel) have no peer —
                // the tenant is us, so fall back to our own uid.
                let uid = conn
                    .peer_uid()
                    .unwrap_or_else(crate::transport::peercred::current_uid);
                let ctx = SessionCtx::new(shared.clone(), ctrl.clone(), uid);
                if conn.enter_event_mode() {
                    pool.get_or_insert_with(|| {
                        crate::exec::EventPool::new(shared.exec_gauges.clone())
                    })
                    .adopt(conn, ctx);
                    continue;
                }
                let session = std::thread::Builder::new()
                    .name("grdSession".into())
                    .spawn(move || run_session(conn, ctx))
                    .expect("spawn grdSession thread");
                sessions.push(session);
            }
            drop(ctrl);
            for s in sessions {
                let _ = s.join();
            }
            if let Some(pool) = pool {
                pool.shutdown();
            }
        })
        .expect("spawn grdAcceptor thread")
}

/// One tenant's server loop: decode → dispatch → reply, until the client
/// half of the connection drops.
pub(crate) fn run_session(conn: Box<dyn Connection>, mut ctx: SessionCtx) {
    while let Ok(frame) = conn.recv() {
        ctx.note_frames(1);
        let frame = FrameView::from(frame);
        let step = ctx.handle_frame(&frame, &*conn);
        // The blocking transport has no "more input queued" signal, so
        // a threaded session flushes after every frame — the
        // batching win comes from the event-driven executor's drains.
        ctx.flush_pending();
        match step {
            Step::Reply(r) => {
                if conn.send(r).is_err() {
                    break;
                }
            }
            Step::None => {}
            Step::ReplyThenClose(r) => {
                let _ = conn.send(r);
                break;
            }
        }
    }
    ctx.finish();
}

/// Resolve the session's tenant, or reply with the error for calls that
/// require a completed `Connect`.
macro_rules! require {
    ($client:expr) => {
        match $client.as_ref() {
            Some(c) => c.clone(),
            None => return Some(Response::Error(CudaError::InvalidValue)),
        }
    };
}

/// Dispatch one request received on `conn`, returning the encoded reply.
/// `None` means the request is one-way (no frame goes back).
fn dispatch(req: Request, ctx: &mut SessionCtx, conn: &dyn Connection) -> Option<Vec<u8>> {
    // Any non-Launch request is an ordering point: buffered launches
    // must reach the device before e.g. a Sync or D2H copy observes it.
    if !ctx.pending.is_empty() && !matches!(req, Request::Launch { .. }) {
        ctx.flush_pending();
    }
    let Request::MemcpyD2H { src, len } = req else {
        return respond(req, ctx).map(|resp| resp.encode());
    };
    // The one reply built in place: the device appends the bytes behind
    // the reply header, and that buffer is the frame sent back.
    let Some(c) = ctx.client.clone() else {
        return Some(Response::Error(CudaError::InvalidValue).encode());
    };
    let shared = &ctx.shared;
    let r = with_dispatch(shared, || {
        memcpy_d2h(shared, &c, src, len, conn.max_frame())
    });
    note_op(&c, OpClass::Memcpy, ctx.t_decode);
    Some(r.unwrap_or_else(|e| Response::Error(e).encode()))
}

/// Execute one request other than `MemcpyD2H`. `None` means the request
/// is one-way: `Disconnect` and the async copies and frees always,
/// `Launch` under deferred acks. Takes the request by value so bulk
/// payloads (H2D data, fatbins, PTX text) move to their destination
/// instead of being cloned on the hot path.
fn respond(req: Request, ctx: &mut SessionCtx) -> Option<Response> {
    let shared = ctx.shared.clone();
    let ctrl = ctx.ctrl.clone();
    let uid = ctx.uid;
    let client = &mut ctx.client;
    let shared = &shared;
    let ctrl = &ctrl;
    match req {
        // ---- control plane: forwarded to the serialized manager -------
        Request::Connect {
            mem_requirement,
            hint,
            qos,
        } => {
            // One connection is one tenant: a second Connect on a live
            // session would orphan the first tenant's partition (the
            // session cleanup only disconnects the client it tracks), so
            // a hostile peer could drain the pool. Reject it.
            if client.is_some() {
                return Some(Response::Error(CudaError::InvalidValue));
            }
            let t0 = telemetry::now_ns();
            let r = ctrl_call(
                ctrl,
                CtrlOp::Connect {
                    mem_requirement,
                    hint,
                    uid,
                    qos_request: qos,
                },
            );
            Some(match r {
                Ok(CtrlOut::Connected(info)) => {
                    *client = shared.clients.read().get(&info.id).cloned();
                    // Connect/admission latency: the control-thread
                    // round-trip that granted the tenancy.
                    if let Some(c) = client.as_ref() {
                        note_op(c, OpClass::Connect, t0);
                    }
                    Response::Connected(connect_info(shared, &info))
                }
                Ok(_) => Response::Error(CudaError::InvalidValue),
                Err(e) => Response::Error(e),
            })
        }
        Request::Migrate { device } => {
            let c = require!(client);
            Some(
                match ctrl_call(
                    ctrl,
                    CtrlOp::Migrate {
                        client: c.id,
                        dst_gpu: device,
                    },
                ) {
                    Ok(CtrlOut::Connected(info)) => {
                        Response::Connected(connect_info(shared, &info))
                    }
                    Ok(_) => Response::Error(CudaError::InvalidValue),
                    Err(e) => Response::Error(e),
                },
            )
        }
        Request::DeviceInfo => Some(match ctrl_call(ctrl, CtrlOp::DeviceInfo) {
            Ok(CtrlOut::Devices(devs)) => Response::Devices(devs),
            Ok(_) => Response::Error(CudaError::InvalidValue),
            Err(e) => Response::Error(e),
        }),
        Request::Binding => {
            let c = require!(client);
            let b = *c.binding.read();
            let clock_ghz = shared.gpu(b.gpu).device.lock().spec().clock_ghz;
            Some(Response::Connected(ConnectInfo {
                client: c.id.0,
                clock_ghz,
                partition_base: b.partition.base,
                partition_size: b.partition.size,
                deferred_launch: shared.launch_ack == LaunchAck::Deferred,
                device: b.gpu,
                lease_mem: c.lease_mem,
                lease_ttl_ms: c.lease_ttl_ms,
                qos: c.qos.load(Ordering::Relaxed),
            }))
        }
        Request::Disconnect => {
            if let Some(c) = client.take() {
                let _ = ctrl_call(ctrl, CtrlOp::Disconnect { client: c.id });
            }
            None
        }
        Request::RegisterFatbin { bytes } => {
            let c = require!(client);
            Some(unit_reply(ctrl_call(
                ctrl,
                CtrlOp::RegisterFatbin {
                    client: c.id,
                    bytes: bytes.into_vec(),
                },
            )))
        }
        Request::RegisterPtx { name, text } => {
            let c = require!(client);
            Some(unit_reply(ctrl_call(
                ctrl,
                CtrlOp::RegisterPtx {
                    client: c.id,
                    name,
                    text,
                },
            )))
        }

        // ---- data plane: executed here, concurrently across tenants ---
        Request::Malloc { bytes } => {
            let c = require!(client);
            Some(match with_dispatch(shared, || malloc(&c, bytes)) {
                Ok(p) => Response::Ptr(p),
                Err(e) => Response::Error(e),
            })
        }
        Request::Free { ptr } => {
            let c = require!(client);
            Some(result_reply(with_dispatch(shared, || free(&c, ptr))))
        }
        Request::FreeAsync { ptr } => {
            // One-way by definition, like `MemcpyH2DAsync`: a bad
            // pointer's error sticks and surfaces at the next Sync.
            let c = client.as_ref().cloned()?;
            if let Err(e) = with_dispatch(shared, || free(&c, ptr)) {
                stick(&c, e);
            }
            None
        }
        Request::Memset { dst, byte, len } => {
            let c = require!(client);
            let r = with_dispatch(shared, || memset(shared, &c, dst, byte, len));
            note_op(&c, OpClass::Memcpy, ctx.t_decode);
            Some(result_reply(r))
        }
        Request::MemcpyH2D { dst, data } => {
            let c = require!(client);
            let r = with_dispatch(shared, || memcpy_h2d(shared, &c, dst, data));
            note_op(&c, OpClass::Memcpy, ctx.t_decode);
            Some(result_reply(r))
        }
        Request::MemcpyH2DAsync { dst, data } => {
            // One-way by definition (not by ack mode): replying — even
            // with an error, even with no tenant — would desynchronize
            // the peer's request/response stream. Failures stick to the
            // tenant and surface at its next Sync, like a deferred
            // launch's.
            let c = client.as_ref().cloned()?;
            if let Err(e) = with_dispatch(shared, || memcpy_h2d(shared, &c, dst, data)) {
                stick(&c, e);
            }
            note_op(&c, OpClass::Memcpy, ctx.t_decode);
            None
        }
        Request::MemcpyD2H { .. } => unreachable!("dispatch replies to D2H copies in place"),
        Request::MemcpyD2D { dst, src, len } => {
            let c = require!(client);
            let r = with_dispatch(shared, || memcpy_d2d(shared, &c, dst, src, len));
            note_op(&c, OpClass::Memcpy, ctx.t_decode);
            Some(result_reply(r))
        }
        Request::Launch {
            kernel,
            cfg,
            args,
            driver_level,
        } => {
            let Some(c) = client.as_ref().cloned() else {
                // Launch is one-way under deferred acks even with no
                // tenancy: replying would desynchronize the peer's
                // request/response stream (its next round-trip call
                // would read this frame as its own reply).
                return match shared.launch_ack {
                    LaunchAck::Eager => Some(Response::Error(CudaError::InvalidValue)),
                    LaunchAck::Deferred => None,
                };
            };
            if ctx.buffering {
                // Hot path: admit into the session-local batch without
                // touching the binding lock, kernel registry, or device.
                ctx.buffer_launch(&c, kernel, cfg, args, driver_level);
                return None;
            }
            let r = with_dispatch(shared, || {
                launch(shared, &c, &kernel, cfg, &args, driver_level)
            });
            note_op(&c, OpClass::LaunchEnqueue, ctx.t_decode);
            match shared.launch_ack {
                LaunchAck::Eager => Some(result_reply(r)),
                LaunchAck::Deferred => {
                    // True async enqueue: no frame goes back. Errors stick
                    // to the client and surface at the next Sync, matching
                    // CUDA's asynchronous error model.
                    if let Err(e) = r {
                        let mut sticky = c.sticky.lock();
                        sticky.get_or_insert(e);
                    }
                    None
                }
            }
        }
        Request::Sync => {
            let c = require!(client);
            let r = with_dispatch(shared, || sync(shared, &c));
            if let Some(tel) = &c.telemetry {
                let t0 = ctx.t_decode;
                let now = telemetry::now_ns();
                tel.record(OpClass::Sync, now.saturating_sub(t0));
                let mut t_complete = now;
                if ctx.unsynced_launches > 0 {
                    // Close the launch-to-device-complete edge: the
                    // device engine wall-stamped the last command it
                    // finished on this tenant's stream, and the sync
                    // just guaranteed that stamp covers every launch
                    // admitted since the edge opened.
                    let b = *c.binding.read();
                    let done = shared
                        .gpu(b.gpu)
                        .device
                        .lock()
                        .stream_last_done_wall_ns(b.stream);
                    let done = if done == 0 { now } else { done };
                    tel.hist(OpClass::LaunchComplete).record_n(
                        done.saturating_sub(ctx.batch_open_ns),
                        ctx.unsynced_launches,
                    );
                    ctx.unsynced_launches = 0;
                    ctx.batch_open_ns = 0;
                    t_complete = done;
                }
                tel.recorder.record(TraceEvent {
                    seq: 0,
                    op: OpClass::Sync as u8,
                    outcome: u8::from(r.is_err()),
                    client: c.id.0,
                    uid: ctx.uid,
                    stream: c.stream_tag.load(Ordering::Relaxed),
                    t_decode_ns: t0,
                    t_admit_ns: t0,
                    t_flush_ns: 0,
                    t_enqueue_ns: 0,
                    t_complete_ns: t_complete,
                });
            }
            Some(result_reply(r))
        }
        Request::EventCreate => {
            let c = require!(client);
            Some(match with_dispatch(shared, || event_create(&c)) {
                Ok(id) => Response::EventId(id),
                Err(e) => Response::Error(e),
            })
        }
        Request::EventRecord { event } => {
            let c = require!(client);
            Some(result_reply(with_dispatch(shared, || {
                event_record(shared, &c, event)
            })))
        }
        Request::EventElapsed { start, end } => {
            let c = require!(client);
            Some(
                match with_dispatch(shared, || event_elapsed(shared, &c, start, end)) {
                    Ok(ms) => Response::ElapsedMs(ms),
                    Err(e) => Response::Error(e),
                },
            )
        }

        // ---- connection-scoped queries (no tenancy required) ----------
        Request::DeviceNow => {
            // Each device has an independent virtual clock: a bound
            // tenant gets *its* GPU's time (anything else makes its
            // cycle deltas meaningless); tenancy-less probes read GPU 0.
            let gpu = client.as_ref().map(|c| c.binding.read().gpu).unwrap_or(0);
            Some(Response::Cycles(shared.gpu(gpu).device.lock().now()))
        }
        Request::Stats => Some(Response::Stats(StatsSnapshot {
            launch: shared.stats.snapshot(),
            max_concurrent_data_ops: shared.max_inflight.load(Ordering::SeqCst),
        })),
    }
}

fn connect_info(shared: &Shared, info: &crate::manager::ClientInfo) -> ConnectInfo {
    ConnectInfo {
        client: info.id.0,
        clock_ghz: info.clock_ghz,
        partition_base: info.partition_base,
        partition_size: info.partition_size,
        deferred_launch: shared.launch_ack == LaunchAck::Deferred,
        device: info.device,
        lease_mem: info.lease_mem,
        lease_ttl_ms: info.lease_ttl_ms,
        qos: info.qos,
    }
}

fn unit_reply(r: CudaResult<CtrlOut>) -> Response {
    match r {
        Ok(_) => Response::Unit,
        Err(e) => Response::Error(e),
    }
}

fn result_reply(r: CudaResult<()>) -> Response {
    match r {
        Ok(()) => Response::Unit,
        Err(e) => Response::Error(e),
    }
}

/// Run a data-plane op, tracking the concurrency high-water mark — the
/// witness that tenants' data planes genuinely overlap.
fn with_dispatch<R>(shared: &Shared, f: impl FnOnce() -> R) -> R {
    let now = shared.inflight.fetch_add(1, Ordering::SeqCst) + 1;
    shared.max_inflight.fetch_max(now, Ordering::SeqCst);
    let r = f();
    shared.inflight.fetch_sub(1, Ordering::SeqCst);
    r
}

// ---- data-plane operations -------------------------------------------------
//
// Every operation reads the client's binding once, up front, and holds
// the read guard for its whole duration: the op executes entirely against
// one (gpu, stream, partition) triple, and a concurrent migration — which
// needs the write lock — waits for it to finish (and vice versa).

/// Verify every `(addr, len)` range lies in the caller's partition
/// (§4.2.2 — the host-transfer bounds table).
fn transfer_checked(
    client: &ClientShared,
    part: Partition,
    ranges: &[(u64, u64)],
) -> CudaResult<()> {
    Shared::check_alive(client)?;
    for &(addr, len) in ranges {
        if !part.contains_range(addr, len) {
            return Err(CudaError::Rejected(format!(
                "transfer [{addr:#x}, +{len}) outside partition [{:#x}, +{})",
                part.base, part.size
            )));
        }
    }
    Ok(())
}

fn enqueue_and_sync(shared: &Shared, b: &Binding, cmd: Command) -> CudaResult<()> {
    {
        let g = shared.gpu(b.gpu);
        let mut dev = g.device.lock();
        dev.enqueue(b.stream, cmd)?;
        dev.synchronize();
    }
    shared.reap_faults(b.gpu);
    Ok(())
}

fn memset(shared: &Shared, c: &ClientShared, dst: u64, byte: u8, len: u64) -> CudaResult<()> {
    let b = c.binding.read();
    transfer_checked(c, b.partition, &[(dst, len)])?;
    c.counters.note_transfer(len);
    enqueue_and_sync(shared, &b, Command::Memset { dst, byte, len })
}

/// Serve `cudaMalloc` from the tenant's own partition heap. The binding
/// read lock orders it against migration, whose write lock rebases the
/// heap, so the pointer returned lies in the binding current at return.
fn malloc(c: &ClientShared, bytes: u64) -> CudaResult<u64> {
    let _binding = c.binding.read();
    Shared::check_alive(c)?;
    let mut heap = c.heap.lock();
    // Lease cap: checked against what the heap would hold after this
    // allocation (rounded to the heap's grain, so the check and the
    // allocator agree byte-for-byte).
    if c.lease_mem != u64::MAX {
        let want = bytes
            .max(1)
            .checked_next_multiple_of(SUBALLOC_ALIGN)
            .unwrap_or(u64::MAX);
        if heap.used_bytes().saturating_add(want) > c.lease_mem {
            return Err(CudaError::OutOfMemory);
        }
    }
    let r = heap.alloc(bytes);
    c.counters
        .bytes_held
        .store(heap.used_bytes(), Ordering::Relaxed);
    r.map_err(|_| CudaError::OutOfMemory)
}

/// Serve `cudaFree` from the tenant's own heap (see [`malloc`]): only a
/// pointer this tenant's heap handed out, and still holds, is freed.
fn free(c: &ClientShared, ptr: u64) -> CudaResult<()> {
    let _binding = c.binding.read();
    Shared::check_alive(c)?;
    let mut heap = c.heap.lock();
    let r = heap.free(ptr);
    c.counters
        .bytes_held
        .store(heap.used_bytes(), Ordering::Relaxed);
    r.map_err(|_| CudaError::InvalidValue)
}

/// Hand the received payload to the device as it is: the command holds
/// a reference to the frame's buffer, so the one copy is into DRAM.
fn memcpy_h2d(shared: &Shared, c: &ClientShared, dst: u64, data: Payload) -> CudaResult<()> {
    let b = c.binding.read();
    transfer_checked(c, b.partition, &[(dst, data.len() as u64)])?;
    c.counters.note_transfer(data.len() as u64);
    enqueue_and_sync(
        shared,
        &b,
        Command::MemcpyH2D {
            dst,
            data: HostBytes::new(data),
        },
    )
}

/// Copy `len` device bytes into a ready-to-send `Data` reply frame. A
/// reply that would not fit the connection's `max_frame` is refused
/// before anything is allocated; the tenant's library splits its copies
/// to stay within it.
fn memcpy_d2h(
    shared: &Shared,
    c: &ClientShared,
    src: u64,
    len: u64,
    max_frame: u64,
) -> CudaResult<Vec<u8>> {
    let b = c.binding.read();
    transfer_checked(c, b.partition, &[(src, len)])?;
    let frame_len = len.saturating_add(proto::DATA_REPLY_HEADER as u64);
    if frame_len > max_frame {
        return Err(CudaError::Rejected(format!(
            "D2H reply of {frame_len} bytes exceeds this connection's frame limit {max_frame}"
        )));
    }
    c.counters.note_transfer(len);
    let sink = HostSink::with_prefix(proto::data_reply_header(len));
    enqueue_and_sync(
        shared,
        &b,
        Command::MemcpyD2H {
            src,
            len,
            sink: sink.clone(),
        },
    )?;
    let reply = sink.take();
    if reply.len() as u64 != frame_len {
        // The copy never ran: the shared context was poisoned (or this
        // tenant killed) after the enqueue.
        Shared::check_alive(c)?;
        return Err(CudaError::ContextPoisoned);
    }
    Ok(reply)
}

fn memcpy_d2d(shared: &Shared, c: &ClientShared, dst: u64, src: u64, len: u64) -> CudaResult<()> {
    let b = c.binding.read();
    transfer_checked(c, b.partition, &[(dst, len), (src, len)])?;
    c.counters.note_transfer(len);
    enqueue_and_sync(shared, &b, Command::MemcpyD2D { dst, src, len })
}

/// The interception path of §4.2.3: `pointerToSymbol` lookup, parameter
/// augmentation with the caller's bounds, enqueue on the caller's stream.
/// Each step is timed into the per-path Table 5 statistics.
fn launch(
    shared: &Shared,
    c: &ClientShared,
    kernel: &str,
    cfg: LaunchConfig,
    args: &[u8],
    driver_level: bool,
) -> CudaResult<()> {
    Shared::check_alive(c)?;
    let b = c.binding.read();
    let g = shared.gpu(b.gpu);
    let use_native = shared.protection == Protection::None
        || (shared.native_when_standalone && shared.clients.read().len() == 1);

    // (1) pointerToSymbol lookup in the bound GPU's registry (timed;
    // Table 5 "Lookup GPU kernel").
    let t0 = Instant::now();
    let func = {
        let kernels = g.kernels.read();
        if use_native {
            kernels.native.get(kernel).cloned()
        } else {
            kernels.pointer_to_symbol.get(kernel).cloned()
        }
    }
    .ok_or_else(|| CudaError::InvalidDeviceFunction(kernel.to_string()))?;
    let lookup_ns = t0.elapsed().as_nanos() as u64;

    // (2) Augment the parameter array with the partition bounds
    // (timed; Table 5 "Augment kernel params").
    let t1 = Instant::now();
    let part = b.partition;
    let params = if use_native {
        args.to_vec()
    } else {
        let mut buf = vec![0u8; func.kernel.param_size];
        let n = args.len().min(buf.len());
        buf[..n].copy_from_slice(&args[..n]);
        let nparams = func.kernel.params.len();
        debug_assert!(nparams >= 2, "patched kernels carry 2 extra params");
        let (_, _, base_off) = func.kernel.params[nparams - 2];
        let (_, _, bound_off) = func.kernel.params[nparams - 1];
        let bound = match shared.protection {
            Protection::FenceBitwise => part.mask(),
            Protection::FenceModulo => part.size,
            Protection::Check => part.end(),
            Protection::None => 0,
        };
        buf[base_off as usize..base_off as usize + 8].copy_from_slice(&part.base.to_le_bytes());
        buf[bound_off as usize..bound_off as usize + 8].copy_from_slice(&bound.to_le_bytes());
        buf
    };
    let augment_ns = t1.elapsed().as_nanos() as u64;

    // (3) Issue on the tenant's stream (Table 5 "Launch kernel").
    let t2 = Instant::now();
    let r = g.device.lock().enqueue(
        b.stream,
        Command::Launch {
            func,
            cfg,
            params: params.into(),
            guard: MemGuard::None,
        },
    );
    let enqueue_ns = t2.elapsed().as_nanos() as u64;

    shared
        .stats
        .record(driver_level, lookup_ns, augment_ns, enqueue_ns);
    if r.is_ok() {
        c.counters.launches.fetch_add(1, Ordering::Relaxed);
        c.counters.inflight.fetch_add(1, Ordering::Relaxed);
        // Same over-budget admission control as the buffered path: a
        // best-effort tenant past its inflight budget drains its own
        // stream before the next launch, keeping the device queue
        // shallow for latency-class work.
        if c.qos.load(Ordering::Relaxed) != QosClass::Latency.to_wire()
            && c.counters.inflight.load(Ordering::Relaxed) >= shared.qos_inflight_budget
        {
            shared.gpu(b.gpu).device.lock().synchronize_stream(b.stream);
            c.counters.inflight.store(0, Ordering::Relaxed);
            shared
                .exec_gauges
                .qos_gated_rounds
                .fetch_add(1, Ordering::Relaxed);
        }
    }
    r.map_err(CudaError::from)
}

fn sync(shared: &Shared, c: &ClientShared) -> CudaResult<()> {
    Shared::check_alive(c)?;
    let b = c.binding.read();
    // Latency tenants wait only on their own stream: with the priority ready
    // lane and kernel-slice preemption their work finishes promptly, and a
    // sync must not be held hostage draining other tenants' backlog.
    // Best-effort tenants keep the device-wide drain.
    if c.qos.load(Ordering::Relaxed) == QosClass::Latency.to_wire() {
        shared.gpu(b.gpu).device.lock().synchronize_stream(b.stream);
    } else {
        shared.gpu(b.gpu).device.lock().synchronize();
    }
    // Everything admitted up to here has completed: the tenant's
    // inflight-launch budget refills.
    c.counters.inflight.store(0, Ordering::Relaxed);
    shared.reap_faults(b.gpu);
    if let Some(e) = c.sticky.lock().take() {
        return Err(e);
    }
    Shared::check_alive(c)
}

fn event_create(c: &ClientShared) -> CudaResult<u32> {
    Shared::check_alive(c)?;
    let mut table = c.events.lock();
    let id = table.next;
    table.next += 1;
    table.events.insert(id, Event::new());
    Ok(id)
}

fn event_record(shared: &Shared, c: &ClientShared, event: u32) -> CudaResult<()> {
    Shared::check_alive(c)?;
    let b = c.binding.read();
    let ev = c
        .events
        .lock()
        .events
        .get(&event)
        .cloned()
        .ok_or(CudaError::InvalidValue)?;
    shared
        .gpu(b.gpu)
        .device
        .lock()
        .enqueue(b.stream, Command::EventRecord { event: ev })
        .map_err(CudaError::from)
}

fn event_elapsed(shared: &Shared, c: &ClientShared, start: u32, end: u32) -> CudaResult<f32> {
    Shared::check_alive(c)?;
    let bind = c.binding.read();
    let (a, b) = {
        let table = c.events.lock();
        let a = table
            .events
            .get(&start)
            .and_then(Event::cycles)
            .ok_or(CudaError::InvalidValue)?;
        let b = table
            .events
            .get(&end)
            .and_then(Event::cycles)
            .ok_or(CudaError::InvalidValue)?;
        (a, b)
    };
    let ghz = shared.gpu(bind.gpu).device.lock().spec().clock_ghz;
    Ok(((b.saturating_sub(a)) as f64 / (ghz * 1e6)) as f32)
}

#[cfg(test)]
mod tests {
    //! Raw-protocol sessions: behaviours only reachable by a peer that
    //! speaks frames directly (the in-tree `GrdLib` always connects
    //! exactly once, first), which is exactly what a socket transport
    //! would expose.

    use crate::manager::{spawn_manager, LaunchAck, ManagerConfig};
    use crate::proto::{Request, Response};
    use crate::GrdLib;
    use cuda_rt::{share_device, ArgPack, CudaApi, CudaError};
    use gpu_sim::spec::test_gpu;
    use gpu_sim::{Device, LaunchConfig};
    use ptx::fatbin::FatBin;

    fn mgr(pool: u64, ack: LaunchAck) -> crate::ManagerHandle {
        spawn_manager(
            share_device(Device::new(test_gpu())),
            ManagerConfig {
                pool_bytes: Some(pool),
                launch_ack: ack,
                ..ManagerConfig::default()
            },
            &[],
        )
        .unwrap()
    }

    /// A departing tenant's unsynchronized launches must be drained at
    /// disconnect, *before* its partition returns to the pool — else the
    /// stale commands would execute later, into whichever tenant the
    /// partition is reallocated to.
    #[test]
    fn disconnect_drains_pending_launches_before_partition_reuse() {
        let mut fb = FatBin::new();
        fb.push_ptx("app", crate::fixtures::FILL);
        let fb = fb.to_bytes().to_vec();
        // Pool holds exactly one partition, so B provably reuses A's.
        let mgr = spawn_manager(
            share_device(Device::new(test_gpu())),
            ManagerConfig {
                pool_bytes: Some(4 << 20),
                ..ManagerConfig::default()
            },
            &[&fb],
        )
        .unwrap();
        let (a_base, a_buf) = {
            let mut a = GrdLib::connect(&mgr, 4 << 20).unwrap();
            let buf = a.cuda_malloc(4 * 64).unwrap();
            let args = ArgPack::new().ptr(buf).u32(64).finish();
            a.cuda_launch_kernel(
                "fill",
                LaunchConfig::linear(2, 32),
                &args,
                Default::default(),
            )
            .unwrap();
            // No sync: the launch is still queued when A drops here.
            (a.partition().0, buf)
        };
        // B can only connect once A's partition is back in the pool.
        let mut b = None;
        for _ in 0..100 {
            if let Ok(lib) = GrdLib::connect(&mgr, 4 << 20) {
                b = Some(lib);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let mut b = b.expect("partition not reclaimed");
        assert_eq!(b.partition().0, a_base, "expected partition reuse");
        let buf = b.cuda_malloc(4 * 64).unwrap();
        assert_eq!(buf, a_buf, "expected allocation reuse");
        b.cuda_memcpy_h2d(buf, &[0u8; 4 * 64]).unwrap();
        b.cuda_device_synchronize().unwrap();
        let out = b.cuda_memcpy_d2h(buf, 4 * 64).unwrap();
        assert_eq!(
            out,
            vec![0u8; 4 * 64],
            "A's stale launch executed into B's partition"
        );
        drop(b);
        mgr.shutdown();
    }

    /// A second `Connect` on a live session is rejected instead of
    /// silently replacing the tracked tenant — otherwise the first
    /// tenant's partition would leak and a hostile peer could drain the
    /// pool one orphan at a time.
    #[test]
    fn double_connect_is_rejected_and_leaks_nothing() {
        let mgr = mgr(8 << 20, LaunchAck::Eager);
        let conn = mgr.dial().unwrap();
        conn.send(
            Request::Connect {
                mem_requirement: 4 << 20,
                hint: None,
                qos: 0,
            }
            .encode(),
        )
        .unwrap();
        let first = Response::decode(&conn.recv().unwrap()).unwrap();
        assert!(matches!(first, Response::Connected(_)), "{first:?}");
        conn.send(
            Request::Connect {
                mem_requirement: 4 << 20,
                hint: None,
                qos: 0,
            }
            .encode(),
        )
        .unwrap();
        let second = Response::decode(&conn.recv().unwrap()).unwrap();
        assert!(
            matches!(second, Response::Error(CudaError::InvalidValue)),
            "{second:?}"
        );
        // Dropping the connection disconnects the one real tenant; the
        // whole pool must come back (a leaked orphan would pin 4 MiB).
        drop(conn);
        let mut reclaimed = false;
        for _ in 0..100 {
            if GrdLib::connect(&mgr, 8 << 20).is_ok() {
                reclaimed = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(reclaimed, "partition leaked by rejected double connect");
        mgr.shutdown();
    }

    /// Under deferred acks, `Launch` must be one-way even when the
    /// session has no tenant: an error frame here would be read by the
    /// peer as the reply to its *next* round-trip call, desynchronizing
    /// the stream permanently.
    #[test]
    fn deferred_launch_without_tenancy_sends_no_frame() {
        let mgr = mgr(4 << 20, LaunchAck::Deferred);
        let conn = mgr.dial().unwrap();
        conn.send(
            Request::Launch {
                kernel: "nope".into(),
                cfg: LaunchConfig::linear(1, 1),
                args: vec![].into(),
                driver_level: false,
            }
            .encode(),
        )
        .unwrap();
        // The next round-trip call must receive *its own* reply, not a
        // stale launch error.
        conn.send(Request::DeviceNow.encode()).unwrap();
        let resp = Response::decode(&conn.recv().unwrap()).unwrap();
        assert!(matches!(resp, Response::Cycles(_)), "{resp:?}");
        // Eager mode keeps the synchronous error for the same probe.
        drop(conn);
        mgr.shutdown();
        let mgr = self::mgr(4 << 20, LaunchAck::Eager);
        let conn = mgr.dial().unwrap();
        conn.send(
            Request::Launch {
                kernel: "nope".into(),
                cfg: LaunchConfig::linear(1, 1),
                args: vec![].into(),
                driver_level: false,
            }
            .encode(),
        )
        .unwrap();
        let resp = Response::decode(&conn.recv().unwrap()).unwrap();
        assert!(
            matches!(resp, Response::Error(CudaError::InvalidValue)),
            "{resp:?}"
        );
        drop(conn);
        mgr.shutdown();
    }

    /// A raw `MemcpyD2H` whose reply could not fit the connection's frame
    /// limit (a default 1 MiB shm ring here) is refused with `Rejected`
    /// before anything is allocated, and the session goes on serving —
    /// the reply used to be unsendable, which closed the session and
    /// reclaimed the tenant's partition.
    #[test]
    fn d2h_reply_larger_than_a_frame_is_rejected_and_session_survives() {
        use crate::transport::Dialer;
        let path = crate::fixtures::temp_socket_path("sess-bigd2h");
        let mgr = crate::manager::spawn_manager_over(
            share_device(Device::new(test_gpu())),
            ManagerConfig {
                pool_bytes: Some(8 << 20),
                ..ManagerConfig::default()
            },
            &[],
            crate::transport::BoundTransport::shm(&path).unwrap(),
        )
        .unwrap();
        let conn = crate::transport::shm::ShmDialer::new(&path).dial().unwrap();
        let call = |req: Request| {
            conn.send(req.encode()).unwrap();
            Response::decode(&conn.recv().unwrap()).unwrap()
        };
        let Response::Connected(info) = call(Request::Connect {
            mem_requirement: 4 << 20,
            hint: None,
            qos: 0,
        }) else {
            panic!("connect failed");
        };
        let base = info.partition_base;
        let fits = conn.max_frame() - crate::proto::DATA_REPLY_HEADER as u64;
        let resp = call(Request::MemcpyD2H {
            src: base,
            len: fits + 1,
        });
        assert!(
            matches!(&resp, Response::Error(CudaError::Rejected(m)) if m.contains("frame limit")),
            "{resp:?}"
        );
        // Same session, next call: still served.
        let resp = call(Request::MemcpyD2H {
            src: base,
            len: fits,
        });
        assert!(
            matches!(&resp, Response::Data(d) if d.len() as u64 == fits),
            "{resp:?}"
        );
        assert!(matches!(call(Request::Sync), Response::Unit));
        drop(conn);
        mgr.shutdown();
    }

    /// Hostile length fields — `dst`/`len` chosen so `dst + len` wraps
    /// past `u64::MAX` — must come back `Rejected`, not panic the session
    /// or wrap into another tenant's partition. Raw frames, because the
    /// in-tree stub never emits these.
    #[test]
    fn hostile_transfer_lengths_are_rejected_not_wrapped() {
        let mgr = mgr(8 << 20, LaunchAck::Eager);
        let conn = mgr.dial().unwrap();
        conn.send(
            Request::Connect {
                mem_requirement: 4 << 20,
                hint: None,
                qos: 0,
            }
            .encode(),
        )
        .unwrap();
        let Response::Connected(info) = Response::decode(&conn.recv().unwrap()).unwrap() else {
            panic!("connect failed");
        };
        let base = info.partition_base;
        let rejected = |resp: Response| {
            assert!(
                matches!(resp, Response::Error(CudaError::Rejected(_))),
                "{resp:?}"
            );
        };
        // In-partition start address, wrapping length.
        for req in [
            Request::Memset {
                dst: base,
                byte: 0xA5,
                len: u64::MAX,
            },
            Request::Memset {
                dst: base + 1,
                byte: 0,
                len: u64::MAX - base,
            },
            Request::MemcpyD2H {
                src: base,
                len: u64::MAX - 7,
            },
            Request::MemcpyD2D {
                dst: base,
                src: base,
                len: u64::MAX,
            },
            // Start address itself near the top of the address space.
            Request::Memset {
                dst: u64::MAX - 4,
                byte: 0,
                len: 64,
            },
            Request::MemcpyH2D {
                dst: u64::MAX,
                data: vec![0u8; 16].into(),
            },
        ] {
            conn.send(req.encode()).unwrap();
            rejected(Response::decode(&conn.recv().unwrap()).unwrap());
        }
        // The one-way async H2D path must not wrap either: the error is
        // sticky and surfaces at the next Sync instead of replying.
        conn.send(
            Request::MemcpyH2DAsync {
                dst: u64::MAX - 3,
                data: vec![0u8; 16].into(),
            }
            .encode(),
        )
        .unwrap();
        conn.send(Request::Sync.encode()).unwrap();
        rejected(Response::decode(&conn.recv().unwrap()).unwrap());
        // A heap request whose rounding would overflow is plain OOM.
        conn.send(Request::Malloc { bytes: u64::MAX }.encode())
            .unwrap();
        let resp = Response::decode(&conn.recv().unwrap()).unwrap();
        assert!(
            matches!(resp, Response::Error(CudaError::OutOfMemory)),
            "{resp:?}"
        );
        // The session survived all of it: a well-formed op still works.
        conn.send(
            Request::Memset {
                dst: base,
                byte: 0,
                len: 64,
            }
            .encode(),
        )
        .unwrap();
        let resp = Response::decode(&conn.recv().unwrap()).unwrap();
        assert!(matches!(resp, Response::Unit), "{resp:?}");
        drop(conn);
        mgr.shutdown();
    }

    /// The manager speaks one wire version. A `Connect` frame of any
    /// other version — a v4 client's, a zero byte, the next version —
    /// gets one `Rejected` naming the version, then the session closes;
    /// the manager goes on serving its neighbours. Over uds, so the
    /// sessions run on the event pool.
    #[test]
    fn other_version_frames_are_refused_and_the_manager_keeps_serving() {
        use crate::proto::PROTO_VERSION;
        let mut fb = FatBin::new();
        fb.push_ptx("app", crate::fixtures::FILL);
        let fb = fb.to_bytes().to_vec();
        let path = crate::fixtures::temp_socket_path("sess-version");
        let mgr = crate::manager::spawn_manager_over(
            share_device(Device::new(test_gpu())),
            ManagerConfig {
                pool_bytes: Some(8 << 20),
                ..ManagerConfig::default()
            },
            &[&fb],
            crate::transport::BoundTransport::uds(&path).unwrap(),
        )
        .unwrap();
        let connect = Request::Connect {
            mem_requirement: 4 << 20,
            hint: None,
            qos: 0,
        }
        .encode();
        // A v4 Connect ended at its hint byte: no requested class.
        let v4 = [&[4u8], &connect[1..connect.len() - 1]].concat();
        let zero = [&[0u8], &connect[1..]].concat();
        let next = [&[PROTO_VERSION + 1], &connect[1..]].concat();
        for frame in [v4, zero, next] {
            let conn = mgr.dial().unwrap();
            conn.send(frame.clone()).unwrap();
            let resp = Response::decode(&conn.recv().unwrap()).unwrap();
            let want = format!("malformed frame: unsupported protocol version {}", frame[0]);
            assert_eq!(resp, Response::Error(CudaError::Rejected(want)));
            assert!(
                conn.recv().is_err(),
                "session stayed open after v{}",
                frame[0]
            );
        }
        // A neighbour connects and launches normally.
        let mut lib = GrdLib::connect(&mgr, 4 << 20).unwrap();
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
        for (i, v) in out.chunks_exact(4).enumerate() {
            assert_eq!(u32::from_le_bytes(v.try_into().unwrap()), i as u32);
        }
        drop(lib);
        mgr.shutdown();
    }
}
