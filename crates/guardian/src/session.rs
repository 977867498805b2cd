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
use crate::proto::{ConnectInfo, Payload, Request, Response, Symbol};
use crate::telemetry::{self, ExecGauges, OpClass, TenantTelemetry, TraceEvent};
use crate::transport::frame::FrameView;
use crate::transport::window::WindowSpan;
use crate::transport::{Connection, Listener};
use crate::ClientId;
use crossbeam::channel::Sender;
use cuda_rt::{CudaError, CudaResult, SharedDevice};
use gpu_sim::stream::{CudaFunction, ParamBuf};
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
    /// Native (unpatched) kernels, launched under `Protection::None`.
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
    pub launch_ack: LaunchAck,
    pub clients: RwLock<HashMap<ClientId, Arc<ClientShared>>>,
    pub stats: LaunchStatsAtomic,
    /// Executor instrumentation (drain batches, parks/wakes, re-arms),
    /// owned by the control plane so `/metrics` can read it.
    pub exec_gauges: Arc<ExecGauges>,
    /// Launches a best-effort tenant may hold in flight (admitted since
    /// its last sync) before the executor rate-gates its drain rounds.
    pub qos_inflight_budget: u64,
    /// Called by every session serving a `Malloc`, before the heap is
    /// touched: lets a test hold two tenants' ops inside the data plane
    /// at once.
    #[cfg(test)]
    pub malloc_hook: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
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
    /// The tenant's argument bytes, a view of the frame they came in;
    /// released (with the frame) as soon as the flush has augmented them.
    args: Option<Payload>,
    driver_level: bool,
    /// What the `pointerToSymbol` probe cost at admission (Table 5
    /// "Lookup GPU kernel"), recorded with the batch at flush.
    lookup_ns: u64,
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
    /// See [`FastCache`]; populated on the first launch.
    cache: Option<FastCache>,
    /// Launches admitted but not yet enqueued. Under eager acks a launch
    /// is flushed as soon as it is admitted, so this holds at most one.
    pending: Vec<LaunchItem>,
    /// Augmented parameter buffers staged during one flush, parallel to
    /// `pending`: the session's parameter slab. A buffer holds its bytes
    /// inline, so staging one touches no allocator, lock or atomic.
    staged: Vec<ParamBuf>,
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
        SessionCtx {
            shared,
            ctrl,
            client: None,
            uid,
            cache: None,
            pending: Vec::with_capacity(LAUNCH_BUF),
            staged: Vec::with_capacity(LAUNCH_BUF),
            spans: Vec::with_capacity(LAUNCH_BUF),
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

    /// Admit one launch — the interception path of §4.2.3, whatever the
    /// ack policy: resolve the kernel through the epoch-validated
    /// `pointerToSymbol` cache and queue a descriptor. Parameter
    /// augmentation and the enqueue on the tenant's stream happen at the
    /// next flush: at once under eager acks, at [`LAUNCH_BUF`] or the
    /// next non-launch frame under deferred ones. Steady state this takes
    /// no locks (two relaxed-ish atomic loads) and no heap allocations.
    ///
    /// Returns the launch's admission error, or the error of a flush
    /// this admission forced; the caller decides whether it is replied
    /// or stuck to the tenant.
    fn admit_launch(
        &mut self,
        c: &Arc<ClientShared>,
        kernel: Symbol,
        cfg: LaunchConfig,
        args: Payload,
        driver_level: bool,
    ) -> CudaResult<()> {
        Shared::check_alive(c)?;
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
        // (1) pointerToSymbol lookup, timed hit or miss (Table 5 "Lookup
        // GPU kernel"). Its closing stamp doubles as the admission stamp.
        let t_probe = telemetry::now_ns();
        let func = match cache.funcs.get(kernel.as_str()) {
            Some(f) => f.clone(),
            None => {
                warm = false;
                let f = resolve_func(&self.shared, g, kernel.as_str())?;
                cache.funcs.insert(kernel.as_str().to_string(), f.clone());
                f
            }
        };
        let t_admit = telemetry::now_ns();
        // QoS bookkeeping: one launch admitted since the tenant's last
        // sync. A single relaxed add — inside the audited no-alloc
        // window — compared against the best-effort inflight budget by
        // the executor's drain gate.
        c.counters.inflight.fetch_add(1, Ordering::Relaxed);
        self.pending.push(LaunchItem {
            func,
            cfg,
            args: Some(args),
            driver_level,
            lookup_ns: t_admit - t_probe,
        });
        if c.telemetry.is_some() {
            // Stage stamp: session admission. Pushed within `spans`'
            // preallocated capacity, so it stays inside the audited
            // no-alloc window below.
            self.spans.push(LaunchSpan {
                t_decode: self.t_decode,
                t_admit,
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
        // Over-budget admission control (outside the audited no-alloc
        // window — event processing may touch the heap): a best-effort
        // tenant past its inflight budget flushes and drains its *own*
        // stream before another launch is admitted. This is what keeps
        // the device queue shallow for latency-class work — a storm's
        // un-synced backlog is bounded by the budget instead of by the
        // transport, so a priority sync never wades through thousands
        // of queued best-effort commands. Latency tenants are never
        // throttled.
        let over_budget = !self.qos_is_latency() && self.qos_over_budget();
        let r = if over_budget || self.pending.len() >= LAUNCH_BUF {
            self.flush()
        } else {
            Ok(())
        };
        if over_budget {
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
        r
    }

    /// Flush at an ordering point of the deferred path (end of a drain,
    /// a non-launch frame, teardown): errors stick to the tenant and
    /// surface at its next `Sync` (CUDA's asynchronous error model).
    pub(crate) fn flush_pending(&mut self) {
        if let Err(e) = self.flush() {
            if let Some(c) = &self.client {
                stick(c, e);
            }
        }
    }

    /// Enqueue every admitted launch under **one** device-lock
    /// acquisition, re-validating the cached binding under that lock,
    /// and return the first error.
    fn flush(&mut self) -> CudaResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let r = match self.client.clone() {
            Some(c) => self.flush_inner(&c),
            None => Ok(()),
        };
        self.pending.clear();
        self.staged.clear();
        self.spans.clear();
        r
    }

    fn flush_inner(&mut self, c: &Arc<ClientShared>) -> CudaResult<()> {
        Shared::check_alive(c)?;
        // Stage stamp: batch flush start (shared by every launch in the
        // batch).
        let t_flush = if c.telemetry.is_some() {
            telemetry::now_ns()
        } else {
            0
        };

        // (2) Augment every parameter array with the partition bounds,
        // outside the device lock (pure CPU work; Table 5 "Augment kernel
        // params", amortized over the batch). Each launch's argument
        // bytes — and with them its frame — are released here, not under
        // the lock.
        let t0 = Instant::now();
        let part = self
            .cache
            .as_ref()
            .expect("pending implies cache")
            .binding
            .partition;
        self.staged.clear();
        for item in &mut self.pending {
            let args = item.args.take().expect("each launch is augmented once");
            self.staged.push(build_params(
                self.shared.protection,
                part,
                &item.func,
                &args,
            ));
        }
        let augment_ns = t0.elapsed().as_nanos() as u64;

        loop {
            let cache = self.cache.as_ref().expect("pending implies cache");
            let (epoch, b) = (cache.epoch, cache.binding);
            let g = &self.shared.gpus[b.gpu as usize];

            // (3) One lock, whole batch (Table 5 "Launch kernel").
            let t1 = Instant::now();
            let mut dev = g.device.lock();
            if c.epoch.load(Ordering::SeqCst) != epoch {
                // Placement changed after the params were built. The
                // device mutex orders us against the migration/teardown
                // drain, so re-snapshot and re-resolve on the (possibly
                // new) device, then try again. The tenant's arguments are
                // gone, but each staged array still holds them: built
                // again from it, it takes the new partition's bounds.
                drop(dev);
                Shared::check_alive(c)?;
                self.rebuild_cache(c);
                self.re_resolve_pending()?;
                let part = self
                    .cache
                    .as_ref()
                    .expect("cache rebuilt")
                    .binding
                    .partition;
                for (item, params) in self.pending.iter().zip(&mut self.staged) {
                    *params = build_params(self.shared.protection, part, &item.func, params);
                }
                continue;
            }
            let mut first_err: CudaResult<()> = Ok(());
            let mut ok: u64 = 0;
            // The batch is consumed here, past the epoch check's retry:
            // each item's function moves into its command, and the
            // driver/runtime split is counted on the way.
            let n = self.pending.len() as u64;
            let (mut drv, mut drv_lookup, mut rt_lookup) = (0, 0, 0);
            for (item, params) in self.pending.drain(..).zip(self.staged.drain(..)) {
                if item.driver_level {
                    drv += 1;
                    drv_lookup += item.lookup_ns;
                } else {
                    rt_lookup += item.lookup_ns;
                }
                match dev.enqueue(
                    b.stream,
                    Command::Launch {
                        func: item.func,
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

            // One atomic round per path per batch. Lookups were timed
            // one by one at admission; the batch's augment and enqueue
            // ns are attributed to the two API levels by launch count.
            let rt = n - drv;
            self.shared.stats.record_batch(
                false,
                rt,
                rt_lookup,
                augment_ns * rt / n,
                enqueue_ns * rt / n,
            );
            self.shared.stats.record_batch(
                true,
                drv,
                drv_lookup,
                augment_ns * drv / n,
                enqueue_ns * drv / n,
            );
            c.counters.launches.fetch_add(ok, Ordering::Relaxed);
            return first_err;
        }
    }

    /// After a migration invalidated the cache, the admitted handles
    /// still point at the source GPU's modules: resolve each kernel by
    /// name on the new device before retrying the flush.
    fn re_resolve_pending(&mut self) -> CudaResult<()> {
        let cache = self.cache.as_mut().expect("cache rebuilt");
        let g = &self.shared.gpus[cache.binding.gpu as usize];
        cache.kgen = g.kernels_gen.load(Ordering::Acquire);
        cache.funcs.clear();
        for item in &mut self.pending {
            item.func = resolve_func(&self.shared, g, item.func.kernel.name.as_str())?;
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
/// behind the session cache): the native module when nothing is
/// enforced, the sandboxed one otherwise.
fn resolve_func(shared: &Shared, g: &GpuShared, kernel: &str) -> CudaResult<CudaFunction> {
    let ks = g.kernels.read();
    let table = if shared.protection == Protection::None {
        &ks.native
    } else {
        &ks.pointer_to_symbol
    };
    table
        .get(kernel)
        .cloned()
        .ok_or_else(|| CudaError::InvalidDeviceFunction(kernel.to_string()))
}

/// Build one launch's augmented parameter array: the tenant's arguments,
/// laid out to the sandboxed kernel's parameter size, with the partition
/// bounds in its two trailing parameters.
fn build_params(
    protection: Protection,
    part: Partition,
    func: &CudaFunction,
    args: &[u8],
) -> ParamBuf {
    if protection == Protection::None {
        return ParamBuf::from(args);
    }
    let psize = func.kernel.param_size;
    let mut buf = ParamBuf::zeroed(psize);
    let n = args.len().min(psize);
    buf[..n].copy_from_slice(&args[..n]);
    let nparams = func.kernel.params.len();
    debug_assert!(nparams >= 2, "patched kernels carry 2 extra params");
    let (_, _, base_off) = func.kernel.params[nparams - 2];
    let (_, _, bound_off) = func.kernel.params[nparams - 1];
    let bound = match protection {
        Protection::FenceBitwise => part.mask(),
        Protection::FenceModulo => part.size,
        Protection::Check => part.end(),
        Protection::None => 0,
    };
    buf[base_off as usize..base_off as usize + 8].copy_from_slice(&part.base.to_le_bytes());
    buf[bound_off as usize..bound_off as usize + 8].copy_from_slice(&bound.to_le_bytes());
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
    // Any non-Launch request is an ordering point: admitted launches
    // must reach the device before e.g. a Sync or D2H copy observes it.
    if !ctx.pending.is_empty() && !matches!(req, Request::Launch { .. }) {
        ctx.flush_pending();
    }
    respond(req, ctx, conn).map(|resp| resp.encode())
}

/// Execute one request. `None` means the request is one-way:
/// `Disconnect` and the async copies and frees always, `Launch` under
/// deferred acks. Takes the request by value so bulk payloads (inline
/// H2D data, fatbins, PTX text) move to their destination instead of
/// being cloned on the hot path. `conn`'s window carries the bytes of
/// `MemcpyH2D` and `MemcpyD2H`.
fn respond(req: Request, ctx: &mut SessionCtx, conn: &dyn Connection) -> Option<Response> {
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
            // Test hook, cloned out so no lock is held while it runs.
            #[cfg(test)]
            {
                let hook = shared.malloc_hook.lock().clone();
                if let Some(hook) = hook {
                    hook();
                }
            }
            Some(match malloc(&c, bytes) {
                Ok(p) => Response::Ptr(p),
                Err(e) => Response::Error(e),
            })
        }
        Request::Free { ptr } => {
            let c = require!(client);
            Some(result_reply(free(&c, ptr)))
        }
        Request::FreeAsync { ptr } => {
            // One-way by definition, like `MemcpyH2DAsync`: a bad
            // pointer's error sticks and surfaces at the next Sync.
            let c = client.as_ref().cloned()?;
            if let Err(e) = free(&c, ptr) {
                stick(&c, e);
            }
            None
        }
        Request::Memset { dst, byte, len } => {
            let c = require!(client);
            let r = memset(shared, &c, dst, byte, len);
            note_op(&c, OpClass::Memcpy, ctx.t_decode);
            Some(result_reply(r))
        }
        Request::MemcpyH2D { dst, len } => {
            let c = require!(client);
            let r = window_span(conn, len)
                .and_then(|data| memcpy_h2d(shared, &c, dst, HostBytes::new(data)));
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
            let data = HostBytes::new(data);
            if let Err(e) = memcpy_h2d(shared, &c, dst, data) {
                stick(&c, e);
            }
            note_op(&c, OpClass::Memcpy, ctx.t_decode);
            None
        }
        Request::MemcpyD2H { src, len } => {
            let c = require!(client);
            let r =
                window_span(conn, len).and_then(|region| memcpy_d2h(shared, &c, src, len, region));
            note_op(&c, OpClass::Memcpy, ctx.t_decode);
            Some(result_reply(r))
        }
        Request::MemcpyD2D { dst, src, len } => {
            let c = require!(client);
            let r = memcpy_d2d(shared, &c, dst, src, len);
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
            // One admission path for both ack policies; the policy only
            // decides whether a reply frame goes back.
            let r = ctx.admit_launch(&c, kernel, cfg, args, driver_level);
            match shared.launch_ack {
                // Flush the batch of one now and reply with this
                // launch's own result — replied, so never also stuck.
                LaunchAck::Eager => Some(result_reply(r.and_then(|()| ctx.flush()))),
                LaunchAck::Deferred => {
                    // True async enqueue: no frame goes back. Errors stick
                    // to the client and surface at the next Sync, matching
                    // CUDA's asynchronous error model.
                    if let Err(e) = r {
                        stick(&c, e);
                    }
                    None
                }
            }
        }
        Request::Sync => {
            let c = require!(client);
            let r = sync(shared, &c);
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
            Some(match event_create(&c) {
                Ok(id) => Response::EventId(id),
                Err(e) => Response::Error(e),
            })
        }
        Request::EventRecord { event } => {
            let c = require!(client);
            Some(result_reply(event_record(shared, &c, event)))
        }
        Request::EventElapsed { start, end } => {
            let c = require!(client);
            Some(match event_elapsed(shared, &c, start, end) {
                Ok(ms) => Response::ElapsedMs(ms),
                Err(e) => Response::Error(e),
            })
        }

        // ---- connection-scoped queries (no tenancy required) ----------
        Request::DeviceNow => {
            // Each device has an independent virtual clock: a bound
            // tenant gets *its* GPU's time (anything else makes its
            // cycle deltas meaningless); tenancy-less probes read GPU 0.
            let gpu = client.as_ref().map(|c| c.binding.read().gpu).unwrap_or(0);
            Some(Response::Cycles(shared.gpu(gpu).device.lock().now()))
        }
        Request::Stats => Some(Response::Stats(shared.stats.snapshot())),
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

/// The first `len` bytes of `conn`'s transfer window, or `Rejected`
/// when the copy is longer than the window: a descriptor never reaches
/// past the window, whatever the tenant sends.
fn window_span(conn: &dyn Connection, len: u64) -> CudaResult<WindowSpan> {
    let window = conn
        .window()
        .ok_or_else(|| CudaError::Rejected("connection has no transfer window".into()))?;
    window.span(len).ok_or_else(|| {
        CudaError::Rejected(format!(
            "copy of {len} bytes exceeds the {}-byte transfer window",
            window.size()
        ))
    })
}

/// Hand the copy's bytes to the device as they are — the connection's
/// window, or an inline payload's receive buffer — so the one copy on
/// this side is into DRAM.
fn memcpy_h2d(shared: &Shared, c: &ClientShared, dst: u64, data: HostBytes) -> CudaResult<()> {
    let b = c.binding.read();
    transfer_checked(c, b.partition, &[(dst, data.len() as u64)])?;
    c.counters.note_transfer(data.len() as u64);
    enqueue_and_sync(shared, &b, Command::MemcpyH2D { dst, data })
}

/// Copy `len` device bytes straight into the connection's window.
fn memcpy_d2h(
    shared: &Shared,
    c: &ClientShared,
    src: u64,
    len: u64,
    region: WindowSpan,
) -> CudaResult<()> {
    let b = c.binding.read();
    transfer_checked(c, b.partition, &[(src, len)])?;
    c.counters.note_transfer(len);
    let sink = HostSink::region(region);
    enqueue_and_sync(
        shared,
        &b,
        Command::MemcpyD2H {
            src,
            len,
            sink: sink.clone(),
        },
    )?;
    if sink.filled() != len {
        // The copy never ran: the shared context was poisoned (or this
        // tenant killed) after the enqueue.
        Shared::check_alive(c)?;
        return Err(CudaError::ContextPoisoned);
    }
    Ok(())
}

fn memcpy_d2d(shared: &Shared, c: &ClientShared, dst: u64, src: u64, len: u64) -> CudaResult<()> {
    let b = c.binding.read();
    transfer_checked(c, b.partition, &[(dst, len), (src, len)])?;
    c.counters.note_transfer(len);
    enqueue_and_sync(shared, &b, Command::MemcpyD2D { dst, src, len })
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
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// A flush that must retry after a migration builds each launch's
    /// parameters again from the array it staged, since the tenant's
    /// argument bytes are already released: that must give what the new
    /// partition would have given the arguments themselves.
    #[test]
    fn params_rebuilt_from_a_staged_array_take_the_new_partition() {
        use super::{build_params, Partition};
        use gpu_sim::stream::CudaFunction;
        use ptx_patcher::Protection;

        let module = ptx::parse(crate::fixtures::FILL).unwrap();
        let args = ArgPack::new().ptr(0x7000_0040_0010).u32(64).finish();
        let (old, new) = (
            Partition {
                base: 0x7000_0040_0000,
                size: 1 << 22,
            },
            Partition {
                base: 0x7000_0100_0000,
                size: 1 << 24,
            },
        );
        for protection in [
            Protection::None,
            Protection::FenceBitwise,
            Protection::FenceModulo,
            Protection::Check,
        ] {
            let patched = ptx_patcher::patch_module(&module, protection).unwrap();
            let compiled = Arc::new(gpu_sim::compile::compile_module(&patched.module, 0).unwrap());
            let func = CudaFunction {
                kernel: compiled.kernel("fill").unwrap(),
                module: compiled.clone(),
            };
            let staged = build_params(protection, old, &func, &args);
            let rebuilt = build_params(protection, new, &func, &staged);
            let fresh = build_params(protection, new, &func, &args);
            assert_eq!(&*rebuilt, &*fresh, "{protection:?}");
            if protection != Protection::None {
                assert_ne!(&*staged, &*fresh, "{protection:?}: the bounds must move");
            }
        }
    }

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

    /// Two tenants' data-plane ops execute at the same time: each
    /// tenant's `cudaMalloc` waits inside its session, at
    /// `Shared::malloc_hook`, until the other's arrives. Channel sessions
    /// are threads, so this holds on one CPU. A dispatch that serialized
    /// tenants would leave the first malloc waiting alone until the
    /// deadline, and the test fails naming the hook instead of hanging.
    #[test]
    fn two_tenants_meet_inside_the_data_plane() {
        use std::sync::{Condvar, Mutex};
        const DEADLINE: Duration = Duration::from_secs(10);
        let mgr = mgr(8 << 20, LaunchAck::Eager);
        let meet = Arc::new((Mutex::new(0u32), Condvar::new()));
        let met = Arc::new(AtomicU32::new(0));
        {
            let (meet, met) = (meet.clone(), met.clone());
            *mgr.shared().malloc_hook.lock() = Some(Arc::new(move || {
                let (arrived, cv) = &*meet;
                let mut n = arrived.lock().unwrap();
                *n += 1;
                cv.notify_all();
                let (n, wait) = cv.wait_timeout_while(n, DEADLINE, |n| *n < 2).unwrap();
                drop(n);
                if !wait.timed_out() {
                    met.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        let tenants: Vec<_> = (0..2)
            .map(|_| {
                let mut lib = GrdLib::connect(&mgr, 4 << 20).unwrap();
                std::thread::spawn(move || {
                    lib.cuda_malloc(256).expect("malloc");
                    lib
                })
            })
            .collect();
        let libs: Vec<GrdLib> = tenants.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(
            met.load(Ordering::SeqCst),
            2,
            "the two tenants' mallocs never met at Shared::malloc_hook within \
             {DEADLINE:?}: data-plane dispatch is serialized"
        );
        drop(libs);
        mgr.shutdown();
    }

    /// Drive one tenant through the launch errors the shared admission
    /// path produces, under `ack`: an unknown kernel beside a good
    /// launch, then a launch after the tenant is revoked.
    fn launch_errors_under(ack: LaunchAck) {
        let mut fb = FatBin::new();
        fb.push_ptx("app", crate::fixtures::FILL);
        let fb = fb.to_bytes().to_vec();
        let mgr = spawn_manager(
            share_device(Device::new(test_gpu())),
            ManagerConfig {
                pool_bytes: Some(8 << 20),
                launch_ack: ack,
                ..ManagerConfig::default()
            },
            &[&fb],
        )
        .unwrap();
        let mut lib = GrdLib::connect(&mgr, 4 << 20).unwrap();
        let buf = lib.cuda_malloc(4 * 64).unwrap();
        let args = ArgPack::new().ptr(buf).u32(64).finish();
        let cfg = LaunchConfig::linear(2, 32);
        let unknown = lib.cuda_launch_kernel("no_such_kernel", cfg, &args, Default::default());
        lib.cuda_launch_kernel("fill", cfg, &args, Default::default())
            .expect("good launch");
        let first_sync = lib.cuda_device_synchronize();
        let missing = CudaError::InvalidDeviceFunction("no_such_kernel".into());
        match ack {
            LaunchAck::Eager => {
                assert_eq!(unknown, Err(missing));
                assert_eq!(first_sync, Ok(()), "eager launch error also stuck");
            }
            LaunchAck::Deferred => {
                assert_eq!(unknown, Ok(()));
                assert_eq!(first_sync, Err(missing));
            }
        }
        assert_eq!(
            lib.cuda_device_synchronize(),
            Ok(()),
            "{ack:?}: a launch error was reported twice"
        );
        let out = lib.cuda_memcpy_d2h(buf, 4 * 64).unwrap();
        for (i, v) in out.chunks_exact(4).enumerate() {
            assert_eq!(u32::from_le_bytes(v.try_into().unwrap()), i as u32);
        }

        mgr.revoke(lib.client_id()).unwrap();
        let launch = lib.cuda_launch_kernel("fill", cfg, &args, Default::default());
        let sync = lib.cuda_device_synchronize();
        let rejected = |r: &Result<(), CudaError>| matches!(r, Err(CudaError::Rejected(_)));
        match ack {
            LaunchAck::Eager => assert!(rejected(&launch), "{launch:?}"),
            LaunchAck::Deferred => assert_eq!(launch, Ok(())),
        }
        assert!(rejected(&sync), "{sync:?}");
        drop(lib);
        mgr.shutdown();
    }

    /// Under eager acks a launch's error is its reply, and only that: an
    /// unknown kernel fails the call and the next `Sync` is clean; a
    /// revoked tenant's launch is `Rejected` at once.
    #[test]
    fn eager_launch_errors_are_replied_not_stuck() {
        launch_errors_under(LaunchAck::Eager);
    }

    /// Under deferred acks the same launches return at once, and each
    /// error surfaces once, at the next `Sync`.
    #[test]
    fn deferred_launch_errors_surface_once_at_sync() {
        launch_errors_under(LaunchAck::Deferred);
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

    /// A raw copy descriptor longer than the connection's transfer
    /// window (64 MiB, the largest frame) is refused with `Rejected`
    /// before anything is copied, in either direction, and the session
    /// goes on serving: a whole-partition round trip through the window
    /// follows on the same connection (an shm one, whose 1 MiB ring no
    /// longer bounds a copy).
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
        let window = conn.window().unwrap();
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
        let (base, size) = (info.partition_base, info.partition_size);
        let past = window.size() as u64 + 1;
        for req in [
            Request::MemcpyD2H {
                src: base,
                len: past,
            },
            Request::MemcpyH2D {
                dst: base,
                len: past,
            },
        ] {
            let resp = call(req);
            assert!(
                matches!(&resp, Response::Error(CudaError::Rejected(m)) if m.contains("transfer window")),
                "{resp:?}"
            );
        }
        // Same session, next calls: still served, through the window.
        let data: Vec<u8> = (0..size).map(|i| (i * 7 + i / 4096) as u8).collect();
        window.write(&data);
        assert_eq!(
            call(Request::MemcpyH2D {
                dst: base,
                len: size
            }),
            Response::Unit
        );
        window.write(&vec![0; size as usize]);
        assert_eq!(
            call(Request::MemcpyD2H {
                src: base,
                len: size
            }),
            Response::Unit
        );
        let mut back = Vec::new();
        window.read_append(size as usize, &mut back);
        assert!(back == data, "window round trip changed the bytes");
        assert!(matches!(call(Request::Sync), Response::Unit));
        drop(conn);
        mgr.shutdown();
    }

    /// A tenant that rewrites its window from a second thread while its
    /// own H2D copies read it changes only bytes bound for its own
    /// partition: a neighbour's bytes stay as they were, and the
    /// session keeps serving. Over uds, so the two sides of the race
    /// use separate mappings of the window, as two processes would.
    #[test]
    fn window_rewritten_mid_copy_leaves_the_neighbour_untouched() {
        use crate::transport::Dialer;
        use std::sync::atomic::{AtomicBool, Ordering};
        let path = crate::fixtures::temp_socket_path("sess-race");
        let mgr = crate::manager::spawn_manager_over(
            share_device(Device::new(test_gpu())),
            ManagerConfig {
                pool_bytes: Some(16 << 20),
                ..ManagerConfig::default()
            },
            &[],
            crate::transport::BoundTransport::uds(&path).unwrap(),
        )
        .unwrap();
        let mut neighbour = GrdLib::dial_uds(&path, 4 << 20).unwrap();
        let nbuf = neighbour.cuda_malloc(4 << 20).unwrap();
        let pattern: Vec<u8> = (0..4u32 << 20).map(|i| (i % 251) as u8).collect();
        neighbour.cuda_memcpy_h2d(nbuf, &pattern).unwrap();

        let conn = crate::transport::uds::UdsDialer::new(&path).dial().unwrap();
        let window = conn.window().unwrap();
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
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let fills = [vec![0xAA; 4 << 20], vec![0x55; 4 << 20]];
                for k in 0.. {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    window.write(&fills[k % 2]);
                }
            });
            for _ in 0..20 {
                let resp = call(Request::MemcpyH2D {
                    dst: info.partition_base,
                    len: info.partition_size,
                });
                assert_eq!(resp, Response::Unit);
            }
            stop.store(true, Ordering::SeqCst);
        });
        assert!(
            neighbour.cuda_memcpy_d2h(nbuf, 4 << 20).unwrap() == pattern,
            "a window race reached the neighbour's partition"
        );
        drop((conn, neighbour));
        mgr.shutdown();
    }

    /// Hostile length fields — `dst`/`len` chosen so `dst + len` wraps
    /// past `u64::MAX`, a copy one byte past the partition, a window
    /// descriptor longer than the window — must come back `Rejected`,
    /// not panic the session or wrap into another tenant's partition.
    /// Raw frames, because the in-tree stub never emits these.
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
        let (base, size) = (info.partition_base, info.partition_size);
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
                len: 16,
            },
            Request::MemcpyD2H {
                src: u64::MAX - 3,
                len: 16,
            },
            // One past the partition, either direction.
            Request::MemcpyH2D {
                dst: base + size,
                len: 1,
            },
            Request::MemcpyD2H {
                src: base + size - 1,
                len: 2,
            },
            // Window descriptors no window holds.
            Request::MemcpyH2D {
                dst: base,
                len: u64::MAX,
            },
            Request::MemcpyD2H {
                src: base,
                len: (crate::transport::frame::MAX_FRAME as u64) + 1,
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
        // An empty D2H is still a well-formed copy.
        conn.send(Request::MemcpyD2H { src: base, len: 0 }.encode())
            .unwrap();
        let resp = Response::decode(&conn.recv().unwrap()).unwrap();
        assert!(matches!(resp, Response::Unit), "{resp:?}");
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
    /// other version — a v6 or v4 client's, a zero byte, the next
    /// version —
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
        // A v6 Connect had today's layout; a v4 one ended at its hint
        // byte: no requested class.
        assert_eq!(PROTO_VERSION, 7);
        let v6 = [&[6u8], &connect[1..]].concat();
        let v4 = [&[4u8], &connect[1..connect.len() - 1]].concat();
        let zero = [&[0u8], &connect[1..]].concat();
        let next = [&[PROTO_VERSION + 1], &connect[1..]].concat();
        for frame in [v6, v4, zero, next] {
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
