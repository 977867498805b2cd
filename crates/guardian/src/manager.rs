//! The GPU manager (`grdManager`, §4.2): the only entity with GPU access.
//!
//! Applications never touch the device; their `grdLib` forwards every CUDA
//! runtime/driver call as a wire-protocol frame ([`crate::proto`]) over a
//! transport connection ([`crate::transport`]). Server-side the work is
//! split into two planes:
//!
//! * the **control plane** (this module): one serialized thread owning the
//!   partition table and kernel registry. It assigns each tenant a
//!   contiguous power-of-two **partition** and serves its allocations from
//!   it (§4.2.1), and sandboxes + pre-loads every registered fatbin/PTX
//!   image (§4.2.3, §4.4);
//! * the **data plane** ([`crate::session`]): one session thread per
//!   connected tenant, executing transfers, launches, syncs, and events
//!   concurrently across tenants against fine-grained shared state —
//!   checking every host transfer against the partition bounds (§4.2.2),
//!   swapping every launch for its sandboxed twin with the bounds
//!   appended, and issuing it on the tenant's stream (§4.2.3-4.2.4).
//!
//! Out-of-bounds detection terminates — only — the offending tenant,
//! regardless of which session observes the fault.

use crate::alloc::{PartitionAllocator, RegionAllocator, SUBALLOC_ALIGN};
use crate::control::{Admission, ControlPlane, LeaseSpec, QosClass, TenantCounters};
use crate::placement::{choose_device, DeviceLoad, PlacementError, PlacementHint, PlacementPolicy};
use crate::proto::{AdminRequest, AdminResponse};
use crate::session::{self, Binding, ClientShared, EventTable, GpuShared, KernelTable, Shared};
use crate::transport::{BoundTransport, Connection, Dialer};
use crate::{proto, transport};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use cuda_rt::{CudaError, CudaResult, DevicePtr, SharedDevice};
use gpu_sim::stream::CudaFunction;
use parking_lot::{Mutex, RwLock};
use ptx_patcher::{fence, Protection};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Identifies a connected tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientId(pub u32);

/// Nominal host clock used to convert measured nanoseconds into the
/// "CPU cycles" unit of the paper's Table 5.
pub const HOST_GHZ: f64 = 3.0;

/// Host-side interception cost statistics for one launch path (Table 5).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InterceptionStats {
    /// Launches measured.
    pub launches: u64,
    /// Total nanoseconds spent looking up the sandboxed kernel in the
    /// `pointerToSymbol` map.
    pub lookup_ns: u64,
    /// Total nanoseconds spent building the augmented parameter array.
    pub augment_ns: u64,
    /// Total nanoseconds spent enqueueing to the device.
    pub enqueue_ns: u64,
}

impl InterceptionStats {
    /// Average lookup cost in nominal CPU cycles.
    pub fn lookup_cycles(&self) -> f64 {
        cycles(self.lookup_ns, self.launches)
    }

    /// Average parameter-augmentation cost in nominal CPU cycles.
    pub fn augment_cycles(&self) -> f64 {
        cycles(self.augment_ns, self.launches)
    }

    /// Average enqueue cost in nominal CPU cycles.
    pub fn enqueue_cycles(&self) -> f64 {
        cycles(self.enqueue_ns, self.launches)
    }
}

fn cycles(ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64 * HOST_GHZ
    }
}

/// Launch interception costs split by API level, so Table 5 can
/// distinguish driver-level (`cuLaunchKernel`) from runtime-level
/// (`cudaLaunchKernel`) costs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LaunchStats {
    /// Runtime-level launches (`cudaLaunchKernel`).
    pub runtime: InterceptionStats,
    /// Driver-level launches (`cuLaunchKernel`).
    pub driver: InterceptionStats,
}

impl LaunchStats {
    /// Both paths merged (the pre-split aggregate view).
    pub fn combined(&self) -> InterceptionStats {
        InterceptionStats {
            launches: self.runtime.launches + self.driver.launches,
            lookup_ns: self.runtime.lookup_ns + self.driver.lookup_ns,
            augment_ns: self.runtime.augment_ns + self.driver.augment_ns,
            enqueue_ns: self.runtime.enqueue_ns + self.driver.enqueue_ns,
        }
    }
}

/// One launch path's counters as lock-free atomics, so the hot path
/// records with relaxed adds instead of a global mutex. Readers fold the
/// fields into an [`InterceptionStats`] snapshot; the fields are updated
/// independently, so a snapshot racing a record may be off by one
/// in-flight launch — fine for statistics, free for the data plane.
#[derive(Debug, Default)]
struct PathStatsAtomic {
    launches: AtomicU64,
    lookup_ns: AtomicU64,
    augment_ns: AtomicU64,
    enqueue_ns: AtomicU64,
}

impl PathStatsAtomic {
    fn add(&self, n: u64, lookup_ns: u64, augment_ns: u64, enqueue_ns: u64) {
        self.launches.fetch_add(n, Ordering::Relaxed);
        self.lookup_ns.fetch_add(lookup_ns, Ordering::Relaxed);
        self.augment_ns.fetch_add(augment_ns, Ordering::Relaxed);
        self.enqueue_ns.fetch_add(enqueue_ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> InterceptionStats {
        InterceptionStats {
            launches: self.launches.load(Ordering::Relaxed),
            lookup_ns: self.lookup_ns.load(Ordering::Relaxed),
            augment_ns: self.augment_ns.load(Ordering::Relaxed),
            enqueue_ns: self.enqueue_ns.load(Ordering::Relaxed),
        }
    }
}

/// [`LaunchStats`] as shared atomics (see [`PathStatsAtomic`]).
#[derive(Debug, Default)]
pub(crate) struct LaunchStatsAtomic {
    runtime: PathStatsAtomic,
    driver: PathStatsAtomic,
}

impl LaunchStatsAtomic {
    pub(crate) fn record(
        &self,
        driver_level: bool,
        lookup_ns: u64,
        augment_ns: u64,
        enqueue_ns: u64,
    ) {
        self.record_batch(driver_level, 1, lookup_ns, augment_ns, enqueue_ns);
    }

    /// Record `n` launches of one path in a single atomic round — the
    /// per-batch form the deferred flush path uses.
    pub(crate) fn record_batch(
        &self,
        driver_level: bool,
        n: u64,
        lookup_ns: u64,
        augment_ns: u64,
        enqueue_ns: u64,
    ) {
        if n == 0 {
            return;
        }
        if driver_level {
            self.driver.add(n, lookup_ns, augment_ns, enqueue_ns);
        } else {
            self.runtime.add(n, lookup_ns, augment_ns, enqueue_ns);
        }
    }

    pub(crate) fn snapshot(&self) -> LaunchStats {
        LaunchStats {
            runtime: self.runtime.snapshot(),
            driver: self.driver.snapshot(),
        }
    }
}

/// How data-plane operations are scheduled across tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// One data-plane op at a time, globally — the old single-threaded
    /// dispatch core. Kept as the measurable baseline.
    Serial,
    /// Sessions of different tenants execute data-plane ops concurrently.
    #[default]
    Concurrent,
}

/// How data-plane sessions are driven on the server side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SessionDriver {
    /// Pick per dispatch mode: [`DispatchMode::Serial`] keeps one OS
    /// thread per session (the lockstep-deterministic baseline),
    /// [`DispatchMode::Concurrent`] uses the event pool.
    #[default]
    Auto,
    /// One OS thread per connection — the original data plane. Simple
    /// and fair at small tenant counts; stops scaling once tenants far
    /// outnumber cores.
    ThreadPerSession,
    /// A small epoll-driven executor pool multiplexing every
    /// event-capable connection (Unix sockets, doorbell shm rings);
    /// other transports still get dedicated threads. `workers == 0`
    /// means one worker per available core.
    EventPool {
        /// Pump threads to start (`0` = one per core).
        workers: usize,
    },
}

/// When a kernel-launch RPC is acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaunchAck {
    /// Reply once the command is enqueued on the tenant's stream. The
    /// client observes enqueue-order errors synchronously, and —
    /// because the client blocks until the enqueue happened — the global
    /// device arrival order stays pinned under `cuda_rt::lockstep`, which
    /// the figure/table benches rely on for determinism.
    #[default]
    Eager,
    /// True asynchronous enqueue: `Launch` frames are one-way, the client
    /// returns immediately, and errors stick to the tenant until its next
    /// `Sync` (CUDA's asynchronous error model). Highest throughput, but
    /// cross-tenant enqueue order — and thus simulated timing — is no
    /// longer reproducible under lockstep.
    Deferred,
}

/// Manager configuration.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Bounds-enforcement mode applied to kernels.
    pub protection: Protection,
    /// Pool reserved for partitions on each device (power of two).
    /// `None` = largest power of two ≤ half of that device's memory.
    pub pool_bytes: Option<u64>,
    /// Per-device pool sizes, overriding `pool_bytes` index-by-index when
    /// set (heterogeneous device sets want heterogeneous pools). Length
    /// must match the device count.
    pub pool_bytes_per_gpu: Option<Vec<u64>>,
    /// Issue native (unpatched) kernels when only one client is connected
    /// (§4.2.3: standalone applications incur no overhead). Off by default
    /// so overhead experiments measure protection costs.
    pub native_when_standalone: bool,
    /// Data-plane scheduling across tenants (default: concurrent).
    pub dispatch: DispatchMode,
    /// Launch acknowledgement policy (default: eager).
    pub launch_ack: LaunchAck,
    /// How un-hinted tenants are routed across the device set (default:
    /// least-loaded pool bytes).
    pub placement: PlacementPolicy,
    /// How sessions are driven: threads, the epoll executor pool, or
    /// picked automatically from the dispatch mode (default).
    pub session_driver: SessionDriver,
    /// Lease terms for uids without an explicit override (`None` =
    /// unlimited: uncapped memory, no expiry — the pre-control-plane
    /// behaviour). `guardiand --lease-default` feeds this.
    pub lease_default: Option<LeaseSpec>,
    /// Node identity echoed in every admin response (`None` =
    /// `grd-<pid>`), so a fleet of managers stays distinguishable to a
    /// future federated control plane.
    pub node_id: Option<String>,
    /// The per-uid connect rate limiter, when one gates this manager's
    /// transports. The gate itself runs in the socket accept loops
    /// (see [`BoundTransport::uds_gated`]); the manager only needs the
    /// handle so `/metrics` can report its rejection counter.
    pub admission: Option<Arc<Admission>>,
    /// Per-tenant latency histograms, dispatch spans, and flight
    /// recorders ([`crate::telemetry`]). On by default; the off arm
    /// exists so the telemetry-overhead CI gate has a baseline.
    pub telemetry: bool,
    /// Minimum severity of structured one-line event logs on stderr
    /// (connect/teardown/revoke/migrate with tenant uid + node id).
    /// [`LogLevel::Off`] by default; `guardiand --log-level` raises it.
    pub log_level: LogLevel,
    /// Launches a best-effort tenant may hold in flight (enqueued but not
    /// yet synced) before the executor rate-gates its drain rounds while
    /// latency-class tenants are active. `guardiand --qos-budget` feeds
    /// this; the default is high enough that single-class workloads never
    /// notice it.
    pub qos_inflight_budget: u64,
}

/// Severity floor for the manager's structured stderr event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum LogLevel {
    /// No event logging (library default).
    #[default]
    Off,
    /// Tenancy lifecycle events: connect, disconnect, teardown, lease
    /// expiry, revocation, migration.
    Info,
    /// Info plus per-decision detail (placement, admission).
    Debug,
}

impl LogLevel {
    /// Parse a `--log-level` value.
    pub fn parse(s: &str) -> Result<LogLevel, String> {
        match s {
            "off" => Ok(LogLevel::Off),
            "info" => Ok(LogLevel::Info),
            "debug" => Ok(LogLevel::Debug),
            _ => Err(format!("bad log level `{s}` (want off|info|debug)")),
        }
    }
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            protection: Protection::FenceBitwise,
            pool_bytes: None,
            pool_bytes_per_gpu: None,
            native_when_standalone: false,
            dispatch: DispatchMode::default(),
            launch_ack: LaunchAck::default(),
            placement: PlacementPolicy::default(),
            session_driver: SessionDriver::default(),
            lease_default: None,
            node_id: None,
            admission: None,
            telemetry: true,
            log_level: LogLevel::Off,
            qos_inflight_budget: 256,
        }
    }
}

/// Connection info returned to a new client by the control plane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClientInfo {
    pub id: ClientId,
    pub clock_ghz: f64,
    pub partition_base: u64,
    pub partition_size: u64,
    pub device: u32,
    pub lease_mem: u64,
    pub lease_ttl_ms: u64,
    /// Granted QoS class on its wire encoding (0 = best-effort,
    /// 1 = latency): the *minimum* of what the tenant requested at
    /// `Connect` and what its lease's `qos=` ceiling allows.
    pub qos: u8,
}

/// A control-plane operation (serialized through the manager thread).
pub(crate) enum CtrlOp {
    Connect {
        mem_requirement: u64,
        hint: Option<PlacementHint>,
        /// Peer uid the transport established (`SO_PEERCRED` for the
        /// socket transports; the process's own uid in-process) — the
        /// identity leases and quotas are keyed by.
        uid: u32,
        /// QoS class the tenant *requested* (wire encoding; pre-v5
        /// clients decode as 0 = best-effort). The grant is clamped to
        /// the uid's lease ceiling.
        qos_request: u8,
    },
    Disconnect {
        client: ClientId,
    },
    /// End a tenancy by force: mark it dead, drain its device through
    /// the migration barrier, reclaim the partition, retire its usage.
    /// `expired` distinguishes TTL expiry from operator revocation in
    /// the metrics.
    Revoke {
        client: ClientId,
        expired: bool,
    },
    RegisterFatbin {
        client: ClientId,
        bytes: Vec<u8>,
    },
    RegisterPtx {
        client: ClientId,
        name: String,
        text: String,
    },
    Malloc {
        client: ClientId,
        bytes: u64,
    },
    Free {
        client: ClientId,
        ptr: DevicePtr,
    },
    /// Enumerate the device set (per-GPU pool load and tenant counts).
    DeviceInfo,
    /// Move a tenant's partition to another GPU, live.
    Migrate {
        client: ClientId,
        dst_gpu: u32,
    },
    /// One rebalance step: migrate one tenant from the most- to the
    /// least-loaded device if that narrows the spread.
    Rebalance,
    /// Re-apply a uid's lease QoS ceiling to its *live* tenants after a
    /// lease override changed: demotes latency-class tenants whose
    /// ceiling dropped (their session qos flag and device stream
    /// priority flip immediately, no reconnect). Demote-only — raising
    /// a ceiling never promotes live tenants, they asked at `Connect`.
    Reclass {
        uid: u32,
    },
}

/// A control-plane result.
pub(crate) enum CtrlOut {
    Connected(ClientInfo),
    Unit,
    Ptr(DevicePtr),
    Devices(Vec<proto::DeviceInfo>),
    /// What a rebalance step did: `(client, src_gpu, dst_gpu)`, or `None`
    /// when the placement was already balanced.
    Rebalanced(Option<(ClientId, u32, u32)>),
}

/// One message on the control channel. The reply channel is an internal
/// detail of the in-process control thread — unlike the wire protocol,
/// control messages never cross the tenant boundary.
pub(crate) struct CtrlMsg {
    pub op: CtrlOp,
    pub reply: Sender<CudaResult<CtrlOut>>,
}

/// Round-trip one operation through the control plane.
pub(crate) fn ctrl_call(ctrl: &Sender<CtrlMsg>, op: CtrlOp) -> CudaResult<CtrlOut> {
    let (tx, rx) = bounded(1);
    ctrl.send(CtrlMsg { op, reply: tx })
        .map_err(|_| CudaError::Disconnected)?;
    rx.recv().map_err(|_| CudaError::Disconnected)?
}

/// The serialized control plane: sole owner of the per-GPU partition
/// tables and the fatbin registry, sole writer of the client map, and
/// the only thread that migrates bindings.
struct Control {
    shared: Arc<Shared>,
    /// One partition pool per GPU, indexed like `shared.gpus`.
    pools: Vec<PartitionAllocator>,
    policy: PlacementPolicy,
    rr_cursor: u32,
    next_client: u32,
    registered_fatbins: Vec<u64>, // hashes, to dedupe repeat registrations
    /// The node's lease/quota registry, shared with the admin plane.
    plane: Arc<ControlPlane>,
    /// Per-client launch counts as of the last rebalance step, so the
    /// rebalancer can rank candidates by activity *since* then.
    activity_marks: HashMap<ClientId, u64>,
    /// Whether new tenants get latency histograms + a flight recorder.
    telemetry: bool,
    /// Severity floor for structured stderr event logs.
    log_level: LogLevel,
}

/// How often the control thread wakes to sweep expired leases when no
/// control traffic arrives (and the floor between two sweeps when it
/// does). TTL precision is bounded by this.
const LEASE_SWEEP: std::time::Duration = std::time::Duration::from_millis(25);

fn placement_to_cuda(e: PlacementError) -> CudaError {
    match e {
        PlacementError::NoSuchDevice(d) => CudaError::Rejected(format!("no such device {d}")),
        PlacementError::NoCapacity => CudaError::OutOfMemory,
    }
}

impl Control {
    /// One structured line per tenancy event on stderr:
    /// `guardiand event=<what> node=<id> <key=value...>`. This is the
    /// single logging seat for connect/disconnect/teardown/expiry/
    /// revoke/migrate, so operators grep one stable format.
    fn log_event(&self, event: &str, detail: std::fmt::Arguments<'_>) {
        if self.log_level >= LogLevel::Info {
            eprintln!(
                "guardiand event={event} node={} {detail}",
                self.plane.node()
            );
        }
    }

    fn run(mut self, rx: Receiver<CtrlMsg>) {
        // `recv_timeout` instead of `recv`: leases expire on wall-clock
        // time, so the control thread must wake even when no tenant is
        // talking to it.
        let mut last_sweep = std::time::Instant::now();
        loop {
            match rx.recv_timeout(LEASE_SWEEP) {
                Ok(msg) => {
                    let r = self.handle(msg.op);
                    let _ = msg.reply.send(r);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if last_sweep.elapsed() >= LEASE_SWEEP {
                for client in self.plane.expired() {
                    let _ = self.handle(CtrlOp::Revoke {
                        client: ClientId(client),
                        expired: true,
                    });
                }
                last_sweep = std::time::Instant::now();
            }
        }
        // All control senders dropped (manager handle + every session):
        // release each device's context.
        for g in &self.shared.gpus {
            let _ = g.device.lock().destroy_context(g.ctx);
        }
    }

    fn handle(&mut self, op: CtrlOp) -> CudaResult<CtrlOut> {
        match op {
            CtrlOp::Connect {
                mem_requirement,
                hint,
                uid,
                qos_request,
            } => self
                .connect(mem_requirement, hint, uid, qos_request)
                .map(CtrlOut::Connected),
            CtrlOp::Disconnect { client } => {
                let uid = self.plane.uid_of(client.0);
                self.log_event(
                    "disconnect",
                    format_args!("uid={} client={}", uid.unwrap_or(0), client.0),
                );
                self.teardown(client);
                Ok(CtrlOut::Unit)
            }
            CtrlOp::Revoke { client, expired } => {
                let uid = self.plane.uid_of(client.0);
                self.log_event(
                    if expired { "expire" } else { "revoke" },
                    format_args!("uid={} client={}", uid.unwrap_or(0), client.0),
                );
                let state = self.client(client)?;
                // Mark the tenant dead first: data-plane ops started
                // after this point fail their liveness check before
                // touching the partition; the teardown barrier below
                // waits out the ones already in flight.
                state.dead.store(true, Ordering::SeqCst);
                self.teardown(client);
                if expired {
                    self.plane.expired_total.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.plane.revoked_total.fetch_add(1, Ordering::Relaxed);
                }
                Ok(CtrlOut::Unit)
            }
            CtrlOp::RegisterFatbin { client, bytes } => {
                self.check_alive(client)?;
                self.register_fatbin(&bytes).map(|()| CtrlOut::Unit)
            }
            CtrlOp::RegisterPtx { client, name, text } => {
                self.check_alive(client)?;
                self.register_ptx(&name, &text).map(|()| CtrlOut::Unit)
            }
            CtrlOp::Malloc { client, bytes } => {
                self.check_alive(client)?;
                let state = self.client(client)?;
                let mut heap = state.heap.lock();
                // Lease cap: checked against what the heap would hold
                // after this allocation (rounded to the heap's grain,
                // so the check and the allocator agree byte-for-byte).
                if state.lease_mem != u64::MAX {
                    let want = bytes.max(1).next_multiple_of(SUBALLOC_ALIGN);
                    if heap.used_bytes().saturating_add(want) > state.lease_mem {
                        return Err(CudaError::OutOfMemory);
                    }
                }
                let r = heap.alloc(bytes);
                state
                    .counters
                    .bytes_held
                    .store(heap.used_bytes(), Ordering::Relaxed);
                r.map(CtrlOut::Ptr).map_err(|_| CudaError::OutOfMemory)
            }
            CtrlOp::Free { client, ptr } => {
                self.check_alive(client)?;
                let state = self.client(client)?;
                let mut heap = state.heap.lock();
                let r = heap.free(ptr);
                state
                    .counters
                    .bytes_held
                    .store(heap.used_bytes(), Ordering::Relaxed);
                r.map(|()| CtrlOut::Unit)
                    .map_err(|_| CudaError::InvalidValue)
            }
            CtrlOp::DeviceInfo => Ok(CtrlOut::Devices(self.device_infos())),
            CtrlOp::Migrate { client, dst_gpu } => {
                self.migrate(client, dst_gpu).map(CtrlOut::Connected)
            }
            CtrlOp::Rebalance => self.rebalance().map(CtrlOut::Rebalanced),
            CtrlOp::Reclass { uid } => {
                self.reclass(uid);
                Ok(CtrlOut::Unit)
            }
        }
    }

    /// Demote this uid's live latency-class tenants to the (possibly
    /// lowered) lease ceiling. The session-side qos flag takes effect at
    /// the tenant's next drain round; the device stream loses its
    /// priority position for every launch enqueued from here on (kernels
    /// already running keep their launch-time class).
    fn reclass(&mut self, uid: u32) {
        let ceiling = self.plane.lease_for(uid).qos;
        for client in self.plane.reclass(uid, ceiling) {
            let Ok(state) = self.client(ClientId(client)) else {
                continue;
            };
            let was = state
                .qos
                .swap(QosClass::BestEffort.to_wire(), Ordering::SeqCst);
            if was == QosClass::Latency.to_wire() {
                self.shared
                    .exec_gauges
                    .qos_latency_sessions
                    .fetch_sub(1, Ordering::SeqCst);
            }
            let b = *state.binding.read();
            self.shared
                .gpu(b.gpu)
                .device
                .lock()
                .set_stream_latency(b.stream, false);
            self.log_event(
                "reclass",
                format_args!("uid={uid} client={client} qos=besteffort"),
            );
        }
    }

    fn device_infos(&self) -> Vec<proto::DeviceInfo> {
        let clients = self.shared.clients.read();
        self.shared
            .gpus
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let tenants = clients
                    .values()
                    .filter(|c| c.gpu_tag.load(Ordering::SeqCst) == i as u32)
                    .count() as u32;
                let (name, clock_ghz) = {
                    let dev = g.device.lock();
                    (dev.spec().name.clone(), dev.spec().clock_ghz)
                };
                proto::DeviceInfo {
                    index: i as u32,
                    name,
                    clock_ghz,
                    pool_bytes: self.pools[i].capacity(),
                    used_bytes: self.pools[i].used_bytes(),
                    tenants,
                }
            })
            .collect()
    }

    /// End a tenancy and reclaim everything it held. Serves disconnects
    /// (voluntary or crashed — the session's last act either way),
    /// operator revocation, and TTL expiry; idempotent for unknown
    /// clients, so a revoked tenant's trailing disconnect is a no-op.
    ///
    /// The binding **write lock** is the barrier (as in [`Control::
    /// migrate`]): in-flight data-plane ops of this tenant finish before
    /// the drain, and none can start again before the partition is
    /// freed — a revoked tenant mid-launch-storm cannot write into
    /// memory that has already been handed to someone else. The drain +
    /// fault-reap before the free keeps stale enqueued commands from
    /// executing into the partition's next owner.
    fn teardown(&mut self, client: ClientId) {
        let state = self.shared.clients.read().get(&client).cloned();
        let Some(state) = state else { return };
        let binding = state.binding.write();
        // Invalidate session fast caches *before* the drain: a flush that
        // acquires the device lock after our synchronize must observe the
        // bump and fall back to the locked slow path (where the destroyed
        // stream rejects stale enqueues); one that got the lock first has
        // its commands drained right here, before the partition is freed.
        state.epoch.fetch_add(1, Ordering::SeqCst);
        let b = *binding;
        self.shared.gpu(b.gpu).device.lock().synchronize();
        self.shared.reap_faults(b.gpu);
        // Both this teardown and `reclass` run on the serialized control
        // thread, so the connected-latency-sessions gauge never double
        // decrements for one demote-then-disconnect client.
        if state.qos.load(Ordering::SeqCst) == QosClass::Latency.to_wire() {
            self.shared
                .exec_gauges
                .qos_latency_sessions
                .fetch_sub(1, Ordering::SeqCst);
        }
        self.shared.clients.write().remove(&client);
        let _ = self.pools[b.gpu as usize].free(b.partition.base);
        let _ = self
            .shared
            .gpu(b.gpu)
            .device
            .lock()
            .destroy_stream(b.stream);
        drop(binding);
        let uid = self.plane.uid_of(client.0);
        self.plane.retire(client.0);
        self.activity_marks.remove(&client);
        self.log_event(
            "teardown",
            format_args!(
                "uid={} client={} device={}",
                uid.unwrap_or(0),
                client.0,
                b.gpu
            ),
        );
    }

    /// Live partition migration (the cross-GPU rebalance primitive):
    ///
    /// 1. take the binding **write lock** — the migration barrier. New
    ///    data-plane ops from the tenant's session block here; in-flight
    ///    ones finish first (write acquisition waits out readers). Other
    ///    tenants' data planes are untouched throughout.
    /// 2. drain the source device and reap its faults, so nothing of the
    ///    tenant's is still executing and a just-faulted tenant is not
    ///    migrated (its kill must stand).
    /// 3. carve an equally-sized partition on the destination, copy every
    ///    live allocation at its same offset, rebase the heap.
    /// 4. retire the source stream and partition, store the new binding,
    ///    refresh the reap tags.
    ///
    /// The reply carries the new base so the tenant can translate its
    /// device pointers by `new_base - old_base` (offsets are preserved).
    fn migrate(&mut self, client: ClientId, dst_gpu: u32) -> CudaResult<ClientInfo> {
        if dst_gpu as usize >= self.shared.gpus.len() {
            return Err(CudaError::Rejected(format!("no such device {dst_gpu}")));
        }
        let state = self.client(client)?;
        Shared::check_alive(&state)?;

        // (1) The barrier. Only the control thread ever write-locks a
        // binding, so this cannot deadlock with another migration.
        let mut binding = state.binding.write();
        let src = *binding;
        if src.gpu == dst_gpu {
            return Ok(self.client_info(&state, &src));
        }
        // Invalidate session fast caches before the drain (same ordering
        // argument as in [`Control::teardown`]): any flush serialized
        // after our synchronize re-reads the binding and lands on the
        // destination.
        state.epoch.fetch_add(1, Ordering::SeqCst);

        // (2) Drain and reap the source. reap_faults matches on the
        // lock-free tags, not the binding lock we hold.
        self.shared.gpu(src.gpu).device.lock().synchronize();
        self.shared.reap_faults(src.gpu);
        Shared::check_alive(&state)?;

        // (3) Destination partition + stream.
        let dst_part = self.pools[dst_gpu as usize]
            .alloc(src.partition.size)
            .map_err(|_| CudaError::OutOfMemory)?;
        debug_assert_eq!(dst_part.size, src.partition.size);
        let g_dst = self.shared.gpu(dst_gpu);
        let dst_stream = match g_dst.device.lock().create_stream(g_dst.ctx) {
            Ok(s) => s,
            Err(e) => {
                let _ = self.pools[dst_gpu as usize].free(dst_part.base);
                return Err(e.into());
            }
        };
        // The destination stream inherits the tenant's granted QoS class.
        g_dst.device.lock().set_stream_latency(
            dst_stream,
            state.qos.load(Ordering::SeqCst) == QosClass::Latency.to_wire(),
        );

        // Copy live allocations offset-stable. The source is drained and
        // the tenant's data plane is blocked on the barrier, so a plain
        // host-side read/write is a consistent snapshot.
        let mut heap = state.heap.lock();
        let copy_result = {
            let g_src = self.shared.gpu(src.gpu);
            let mut r: CudaResult<()> = Ok(());
            for (addr, len) in heap.live_allocations() {
                let mut buf = vec![0u8; len as usize];
                let off = addr - src.partition.base;
                let step = g_src
                    .device
                    .lock()
                    .read_memory(addr, &mut buf)
                    .and_then(|()| g_dst.device.lock().write_memory(dst_part.base + off, &buf));
                if let Err(e) = step {
                    r = Err(e.into());
                    break;
                }
            }
            r
        };
        if let Err(e) = copy_result {
            // Failed migration leaves the tenant exactly where it was.
            drop(heap);
            let _ = self.pools[dst_gpu as usize].free(dst_part.base);
            let _ = g_dst.device.lock().destroy_stream(dst_stream);
            return Err(e);
        }
        heap.rebase(dst_part);
        drop(heap);

        // (4) Retire the source, publish the new binding. Recorded
        // events are invalidated wholesale: their timestamps are cycle
        // counts of the *source* device's clock, incomparable with
        // anything the destination will record (real CUDA events are
        // likewise context-bound). Stale handles now answer
        // InvalidValue instead of garbage elapsed times.
        state.events.lock().events.clear();
        let _ = self.pools[src.gpu as usize].free(src.partition.base);
        let _ = self
            .shared
            .gpu(src.gpu)
            .device
            .lock()
            .destroy_stream(src.stream);
        state.set_binding(
            &mut binding,
            Binding {
                gpu: dst_gpu,
                stream: dst_stream,
                partition: dst_part,
            },
        );
        let new = *binding;
        drop(binding);
        self.plane.rebind(client.0, dst_gpu);
        self.log_event(
            "migrate",
            format_args!(
                "uid={} client={} from={} to={dst_gpu}",
                self.plane.uid_of(client.0).unwrap_or(0),
                client.0,
                src.gpu
            ),
        );
        Ok(self.client_info(&state, &new))
    }

    /// One rebalance step: if moving one tenant from the most-loaded to
    /// the least-loaded pool narrows the byte spread, migrate the
    /// **least active** such tenant (fewest launches since the last
    /// rebalance step; partition size breaks ties toward smaller) and
    /// report it. Activity outranks size: migrating an idle 8 MiB
    /// tenant pauses nobody, while moving a hot 2 MiB one stalls its
    /// launch stream behind the copy barrier. A no-op on balanced (or
    /// single-GPU) sets.
    fn rebalance(&mut self) -> CudaResult<Option<(ClientId, u32, u32)>> {
        if self.shared.gpus.len() < 2 {
            return Ok(None);
        }
        let used: Vec<u64> = self.pools.iter().map(|p| p.used_bytes()).collect();
        let (src, _) = used
            .iter()
            .enumerate()
            .max_by_key(|(i, u)| (**u, usize::MAX - *i))
            .expect("non-empty");
        let (dst, _) = used
            .iter()
            .enumerate()
            .min_by_key(|(i, u)| (**u, *i))
            .expect("non-empty");
        if src == dst {
            return Ok(None);
        }
        // Least-active live tenant on the most-loaded device whose move
        // narrows the spread and fits on the destination. Every live
        // tenant's launch count is re-marked, so the next step ranks by
        // activity since *this* one.
        let mut marks = HashMap::new();
        let candidate = {
            let clients = self.shared.clients.read();
            let mut best: Option<(u64, u64, ClientId)> = None;
            for state in clients.values() {
                let launches = state.counters.launches.load(Ordering::Relaxed);
                marks.insert(state.id, launches);
                if state.dead.load(Ordering::SeqCst)
                    || state.gpu_tag.load(Ordering::SeqCst) != src as u32
                {
                    continue;
                }
                let activity = launches
                    .saturating_sub(self.activity_marks.get(&state.id).copied().unwrap_or(0));
                let size = state.binding.read().partition.size;
                let narrows = used[dst] + size < used[src];
                if narrows && self.pools[dst].can_alloc(size) {
                    let better = best
                        .map(|(a, s, _)| (activity, size) < (a, s))
                        .unwrap_or(true);
                    if better {
                        best = Some((activity, size, state.id));
                    }
                }
            }
            best
        };
        self.activity_marks = marks;
        match candidate {
            Some((_, _, id)) => {
                self.migrate(id, dst as u32)?;
                Ok(Some((id, src as u32, dst as u32)))
            }
            None => Ok(None),
        }
    }

    fn client_info(&self, state: &ClientShared, b: &Binding) -> ClientInfo {
        let clock_ghz = self.shared.gpu(b.gpu).device.lock().spec().clock_ghz;
        ClientInfo {
            id: state.id,
            clock_ghz,
            partition_base: b.partition.base,
            partition_size: b.partition.size,
            device: b.gpu,
            lease_mem: state.lease_mem,
            lease_ttl_ms: state.lease_ttl_ms,
            qos: state.qos.load(Ordering::SeqCst),
        }
    }

    fn client(&self, client: ClientId) -> CudaResult<Arc<ClientShared>> {
        self.shared
            .clients
            .read()
            .get(&client)
            .cloned()
            .ok_or(CudaError::InvalidValue)
    }

    fn check_alive(&self, client: ClientId) -> CudaResult<()> {
        let state = self.client(client)?;
        Shared::check_alive(&state)
    }

    fn connect(
        &mut self,
        mem_requirement: u64,
        hint: Option<PlacementHint>,
        uid: u32,
        qos_request: u8,
    ) -> CudaResult<ClientInfo> {
        // Admission under the uid's lease terms, before anything is
        // carved: a zero-stream lease denies outright, and a partition
        // request beyond the memory cap is OOM to the tenant (the same
        // error an honest over-asker would see from the pool).
        let mut lease = self.plane.lease_for(uid);
        // QoS grant: the class the tenant asked for, clamped to the
        // lease's ceiling. Tenants that did not ask (or pre-v5 clients,
        // whose frames decode as best-effort) stay best-effort even
        // under a latency-ceiling lease.
        let granted = match QosClass::from_wire(qos_request) {
            QosClass::Latency if lease.qos == QosClass::Latency => QosClass::Latency,
            _ => QosClass::BestEffort,
        };
        lease.qos = granted;
        if lease.streams == 0 {
            return Err(CudaError::Rejected(
                "lease denies admission (streams=0)".into(),
            ));
        }
        if mem_requirement > lease.mem_bytes {
            return Err(CudaError::OutOfMemory);
        }
        // Route first: the policy sees every pool's fit-probe, so the
        // device it returns can always carve the partition (the placement
        // proptests pin this down against the real buddy allocator).
        let loads: Vec<DeviceLoad> = self
            .pools
            .iter()
            .map(|p| DeviceLoad {
                used_bytes: p.used_bytes(),
                can_fit: p.can_alloc(mem_requirement),
            })
            .collect();
        let gpu = choose_device(self.policy, &mut self.rr_cursor, hint, &loads)
            .map_err(placement_to_cuda)?;
        let partition = self.pools[gpu as usize]
            .alloc(mem_requirement)
            .map_err(|_| CudaError::OutOfMemory)?;
        let g = self.shared.gpu(gpu);
        let stream = {
            let mut dev = g.device.lock();
            match dev.create_stream(g.ctx) {
                Ok(s) => {
                    // A latency-class tenant's stream jumps the device's
                    // ready queue and claims freed SM capacity first at
                    // slice boundaries (gpu-sim's preemption lever).
                    dev.set_stream_latency(s, granted == QosClass::Latency);
                    s
                }
                Err(e) => {
                    drop(dev);
                    let _ = self.pools[gpu as usize].free(partition.base);
                    return Err(e.into());
                }
            }
        };
        let id = ClientId(self.next_client);
        self.next_client += 1;
        let binding = Binding {
            gpu,
            stream,
            partition,
        };
        let counters = Arc::new(TenantCounters::default());
        let telemetry = self
            .telemetry
            .then(|| crate::telemetry::TenantTelemetry::new(crate::telemetry::FLIGHT_RING));
        let state = Arc::new(ClientShared {
            id,
            dead: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            sticky: Mutex::new(None),
            heap: Mutex::new(RegionAllocator::new(partition)),
            events: Mutex::new(EventTable {
                events: HashMap::new(),
                next: 1,
            }),
            binding: RwLock::new(binding),
            gpu_tag: AtomicU32::new(gpu),
            stream_tag: AtomicU32::new(stream.0),
            lease_mem: lease.mem_bytes,
            lease_ttl_ms: lease.ttl_ms(),
            qos: AtomicU8::new(granted.to_wire()),
            counters: counters.clone(),
            telemetry: telemetry.clone(),
        });
        let info = self.client_info(&state, &binding);
        if granted == QosClass::Latency {
            self.shared
                .exec_gauges
                .qos_latency_sessions
                .fetch_add(1, Ordering::SeqCst);
        }
        self.shared.clients.write().insert(id, state);
        self.plane
            .admit(id.0, uid, gpu, partition.size, lease, counters, telemetry);
        self.log_event(
            "connect",
            format_args!("uid={uid} client={} device={gpu} qos={granted}", id.0),
        );
        Ok(info)
    }

    fn register_fatbin(&mut self, bytes: &[u8]) -> CudaResult<()> {
        let hash = fxhash(bytes);
        if self.registered_fatbins.contains(&hash) {
            return Ok(());
        }
        let images =
            ptx::fatbin::extract_ptx(bytes).map_err(|e| CudaError::ModuleLoad(e.to_string()))?;
        for (name, text) in images {
            self.register_ptx(&name, &text)?;
        }
        self.registered_fatbins.push(hash);
        Ok(())
    }

    /// Sandbox one PTX translation unit and load it on **every** GPU,
    /// registering the patched and native kernels into each device's
    /// (read-mostly) registry — a tenant may be placed on, or migrate
    /// to, any device, and its kernels must already be resident there
    /// (the §4.4 compile-at-init discipline, per device).
    fn register_ptx(&mut self, _name: &str, text: &str) -> CudaResult<()> {
        let module = ptx::parse(text).map_err(|e| CudaError::ModuleLoad(e.to_string()))?;
        let patched =
            fence::patch_module(&module, self.shared.protection).map_err(|e| match e {
                // Not a malformed module: one whose accesses the sandbox
                // cannot confine, turned away before anything is loaded.
                fence::PatchError::SymbolOutOfBounds { .. } => CudaError::Rejected(e.to_string()),
                _ => CudaError::ModuleLoad(e.to_string()),
            })?;
        for g in &self.shared.gpus {
            let (native, sandboxed) = {
                let mut dev = g.device.lock();
                let native = dev.load_module(g.ctx, &module)?;
                let sandboxed = dev.load_module(g.ctx, &patched.module)?;
                (native, sandboxed)
            };
            let mut kernels = g.kernels.write();
            for (kname, k) in &native.functions {
                if k.kind == ptx::FunctionKind::Entry {
                    kernels.native.insert(
                        kname.clone(),
                        CudaFunction {
                            kernel: k.clone(),
                            module: native.clone(),
                        },
                    );
                }
            }
            for (kname, k) in &sandboxed.functions {
                if k.kind == ptx::FunctionKind::Entry {
                    kernels.pointer_to_symbol.insert(
                        kname.clone(),
                        CudaFunction {
                            kernel: k.clone(),
                            module: sandboxed.clone(),
                        },
                    );
                }
            }
            drop(kernels);
            // Registry changed: sessions drop their resolved-kernel
            // caches on the next launch (a re-registered name must not
            // keep serving the old module).
            g.kernels_gen.fetch_add(1, Ordering::Release);
        }
        Ok(())
    }
}

/// A handle to a running grdManager. Cloning is cheap; the manager's
/// threads are joined when the last handle drops (after every client has
/// disconnected) or eagerly via [`ManagerHandle::shutdown`].
///
/// **Drop order matters**: dropping the last handle *blocks* until every
/// connected [`GrdLib`](crate::GrdLib) (and raw connection) has dropped,
/// because joining the session threads is what guarantees no thread
/// leaks. Drop clients before the handle — on the same thread,
/// `drop(manager)` with a live client is a deadlock. [`Tenancy`]
/// (crate::Tenancy)'s field order encodes the safe sequence.
#[derive(Clone)]
pub struct ManagerHandle {
    inner: Arc<ManagerInner>,
}

struct ManagerInner {
    /// The node's lease/quota registry (shared with the control thread
    /// and any admin endpoints serving this manager).
    plane: Arc<ControlPlane>,
    /// Dropped first on shutdown: closes the listener so the acceptor
    /// stops taking new connections.
    dialer: Option<Box<dyn Dialer>>,
    /// Forces a kernel-blocked `accept` (socket transports) to return at
    /// shutdown; the in-process channel transport needs none.
    unblock: Option<transport::UnblockFn>,
    devices: Vec<SharedDevice>,
    ctrl_tx: Option<Sender<CtrlMsg>>,
    acceptor: Option<JoinHandle<()>>,
    control: Option<JoinHandle<()>>,
}

impl Drop for ManagerInner {
    fn drop(&mut self) {
        // 1. Close the listener: no new connections. Socket listeners
        //    block in the kernel, so fire their wake-up hook too.
        self.dialer.take();
        if let Some(unblock) = self.unblock.take() {
            unblock();
        }
        // 2. Join the acceptor; it joins every session, and sessions end
        //    when their client half drops — so this blocks until all
        //    tenants have disconnected, like the old explicit shutdown.
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // 3. All session-held control senders are gone now; dropping ours
        //    lets the control thread drain and exit.
        self.ctrl_tx.take();
        if let Some(c) = self.control.take() {
            let _ = c.join();
        }
    }
}

impl ManagerHandle {
    /// Open a new transport connection to this manager.
    pub(crate) fn dial(&self) -> Result<Box<dyn Connection>, transport::TransportError> {
        match &self.inner.dialer {
            Some(d) => d.dial(),
            None => Err(transport::TransportError::Disconnected),
        }
    }

    /// One-shot query over a fresh connection (cold paths: stats and
    /// benchmarking probes).
    fn query(&self, req: &proto::Request) -> Option<proto::Response> {
        let conn = self.dial().ok()?;
        conn.send(req.encode()).ok()?;
        let frame = conn.recv().ok()?;
        proto::Response::decode(&frame).ok()
    }

    fn stats_rpc(&self) -> Option<proto::StatsSnapshot> {
        match self.query(&proto::Request::Stats)? {
            proto::Response::Stats(s) => Some(s),
            _ => None,
        }
    }

    /// Interception statistics accumulated so far, both launch paths
    /// merged (Table 5's historical aggregate view).
    pub fn interception_stats(&self) -> InterceptionStats {
        self.launch_stats().combined()
    }

    /// Interception statistics split by launch path: runtime-level
    /// `cudaLaunchKernel` vs driver-level `cuLaunchKernel` (Table 5).
    pub fn launch_stats(&self) -> LaunchStats {
        self.stats_rpc().map(|s| s.launch).unwrap_or_default()
    }

    /// High-water mark of data-plane operations executing simultaneously
    /// across tenants (stays 1 under [`DispatchMode::Serial`]).
    pub fn max_concurrent_data_ops(&self) -> u32 {
        self.stats_rpc()
            .map(|s| s.max_concurrent_data_ops)
            .unwrap_or(0)
    }

    /// Current device time (cycles), for benchmarking.
    pub fn device_now(&self) -> u64 {
        match self.query(&proto::Request::DeviceNow) {
            Some(proto::Response::Cycles(c)) => c,
            _ => 0,
        }
    }

    /// The first (or only) shared device, for out-of-band inspection in
    /// tests/benches — the single-GPU view of [`ManagerHandle::devices`].
    pub fn device(&self) -> &SharedDevice {
        &self.inner.devices[0]
    }

    /// The whole device set, indexed by GPU ordinal.
    pub fn devices(&self) -> &[SharedDevice] {
        &self.inner.devices
    }

    /// Number of GPUs this manager owns.
    pub fn device_count(&self) -> usize {
        self.inner.devices.len()
    }

    /// Per-device pool load and tenant counts, as the control plane sees
    /// them (the same answer a tenant gets from `Request::DeviceInfo`).
    pub fn device_infos(&self) -> CudaResult<Vec<proto::DeviceInfo>> {
        match self.ctrl(CtrlOp::DeviceInfo)? {
            CtrlOut::Devices(d) => Ok(d),
            _ => Err(CudaError::InvalidValue),
        }
    }

    /// Migrate a tenant's partition to `dst_gpu`, live: drains the
    /// source, copies allocations offset-stable, rebinds the session.
    /// Returns the new `(partition_base, partition_size)`. This is the
    /// operator-side entry (tests, rebalancers); tenants use
    /// [`GrdLib::migrate`](crate::GrdLib::migrate), which also refreshes
    /// their cached pointers.
    ///
    /// # Errors
    ///
    /// [`CudaError::OutOfMemory`] when `dst_gpu`'s pool cannot host the
    /// partition; [`CudaError::Rejected`] for unknown devices or a tenant
    /// already killed by Guardian.
    pub fn migrate_partition(&self, client: ClientId, dst_gpu: u32) -> CudaResult<(u64, u64)> {
        match self.ctrl(CtrlOp::Migrate { client, dst_gpu })? {
            CtrlOut::Connected(info) => Ok((info.partition_base, info.partition_size)),
            _ => Err(CudaError::InvalidValue),
        }
    }

    /// One rebalance step: migrate one tenant from the most- to the
    /// least-loaded device if that narrows the pool-byte spread. Returns
    /// what moved, or `None` when already balanced. Call in a loop (or
    /// from a periodic supervisor) to converge.
    ///
    /// # Errors
    ///
    /// Propagates migration failures; `Disconnected` once the manager is
    /// gone.
    pub fn rebalance(&self) -> CudaResult<Option<(ClientId, u32, u32)>> {
        match self.ctrl(CtrlOp::Rebalance)? {
            CtrlOut::Rebalanced(moved) => Ok(moved),
            _ => Err(CudaError::InvalidValue),
        }
    }

    fn ctrl(&self, op: CtrlOp) -> CudaResult<CtrlOut> {
        match &self.inner.ctrl_tx {
            Some(tx) => ctrl_call(tx, op),
            None => Err(CudaError::Disconnected),
        }
    }

    /// The node's lease/quota registry — lease defaults and overrides,
    /// live-tenant and per-uid usage tables, metrics rendering.
    pub fn control_plane(&self) -> &Arc<ControlPlane> {
        &self.inner.plane
    }

    /// The admin plane's handle into this manager, for serving
    /// `guardianctl` (see [`crate::control::serve_admin`]) or driving
    /// lease operations programmatically.
    pub fn admin(&self) -> AdminApi {
        AdminApi {
            plane: self.inner.plane.clone(),
            ctrl: self
                .inner
                .ctrl_tx
                .clone()
                .expect("ctrl_tx lives as long as ManagerInner"),
        }
    }

    /// Revoke a tenant's lease by force: the session is drained through
    /// the migration barrier, the partition reclaimed, and the tenant's
    /// next operation answers `Rejected`.
    ///
    /// # Errors
    ///
    /// [`CudaError::InvalidValue`] for unknown clients.
    pub fn revoke(&self, client: ClientId) -> CudaResult<()> {
        self.ctrl(CtrlOp::Revoke {
            client,
            expired: false,
        })
        .map(|_| ())
    }

    /// Eagerly shut down: drop this handle and, if it is the last one,
    /// join the manager's threads once every client has disconnected.
    /// Plain `drop` does the same; this method exists to make teardown
    /// points explicit in tests and benches.
    pub fn shutdown(self) {
        drop(self);
    }
}

/// The admin plane's view of one manager: answers the
/// [`AdminRequest`] message family by combining the lease/quota
/// registry with one-shot queries through the serialized control
/// thread. Cloneable; [`crate::control::serve_admin`] takes one per
/// endpoint.
#[derive(Clone)]
pub struct AdminApi {
    plane: Arc<ControlPlane>,
    ctrl: Sender<CtrlMsg>,
}

impl AdminApi {
    /// The registry this API serves.
    pub fn control_plane(&self) -> &Arc<ControlPlane> {
        &self.plane
    }

    fn devices(&self) -> CudaResult<Vec<proto::DeviceInfo>> {
        match ctrl_call(&self.ctrl, CtrlOp::DeviceInfo)? {
            CtrlOut::Devices(d) => Ok(d),
            _ => Err(CudaError::InvalidValue),
        }
    }

    /// Answer one admin request. Never panics on hostile input — errors
    /// come back as [`AdminResponse::Error`] with this node's id, like
    /// every other response.
    pub fn handle(&self, req: AdminRequest) -> AdminResponse {
        let node = self.plane.node().to_string();
        let err = |msg: String| AdminResponse::Error {
            node: node.clone(),
            msg,
        };
        match req {
            AdminRequest::Devices => match self.devices() {
                Ok(devices) => AdminResponse::Devices { node, devices },
                Err(e) => err(e.to_string()),
            },
            AdminRequest::Tenants => AdminResponse::Tenants {
                node,
                tenants: self.plane.tenants_table(),
            },
            AdminRequest::LeaseSet {
                uid,
                mem_bytes,
                streams,
                ttl_ms,
                qos,
            } => {
                self.plane
                    .set_override(uid, LeaseSpec::from_wire(mem_bytes, streams, ttl_ms, qos));
                // Re-apply the (possibly lowered) QoS ceiling to the
                // uid's live tenants through the serialized control
                // thread — it owns the client map and device streams.
                match ctrl_call(&self.ctrl, CtrlOp::Reclass { uid }) {
                    Ok(_) => AdminResponse::Ok { node },
                    Err(e) => err(format!("reclass uid {uid}: {e}")),
                }
            }
            AdminRequest::LeaseRevoke { client } => {
                let r = ctrl_call(
                    &self.ctrl,
                    CtrlOp::Revoke {
                        client: ClientId(client),
                        expired: false,
                    },
                );
                match r {
                    Ok(_) => AdminResponse::Ok { node },
                    Err(e) => err(format!("revoke client {client}: {e}")),
                }
            }
            AdminRequest::Quota { uid } => AdminResponse::Quota {
                node,
                entries: self.plane.quota_table(uid),
            },
            AdminRequest::Metrics => match self.devices() {
                Ok(devices) => AdminResponse::Metrics {
                    node,
                    text: self.plane.render_metrics(&devices),
                },
                Err(e) => err(e.to_string()),
            },
            AdminRequest::Trace { uid } => AdminResponse::Trace {
                node,
                events: self.plane.trace_snapshot(uid),
            },
        }
    }
}

/// Spawn a grdManager on a device.
///
/// `fatbins` are sandboxed and pre-compiled at initialization (the offline
/// phase + "compile at init to avoid JIT overhead", §4.4). Clients may
/// register more fatbins later.
///
/// # Errors
///
/// Fails when the partition pool cannot be reserved or any initial fatbin
/// fails to sandbox/load.
pub fn spawn_manager(
    device: SharedDevice,
    config: ManagerConfig,
    fatbins: &[&[u8]],
) -> CudaResult<ManagerHandle> {
    spawn_manager_over(device, config, fatbins, BoundTransport::channel())
}

/// Spawn a grdManager serving an explicit transport — this is how the
/// manager ends up behind a Unix socket ([`BoundTransport::uds`]) or a
/// shared-memory ring ([`BoundTransport::shm`]) so tenants can be real OS
/// processes; [`spawn_manager`] is the in-process special case.
///
/// # Errors
///
/// As [`spawn_manager`].
pub fn spawn_manager_over(
    device: SharedDevice,
    config: ManagerConfig,
    fatbins: &[&[u8]],
    transport_over: BoundTransport,
) -> CudaResult<ManagerHandle> {
    spawn_manager_multi(vec![device], config, fatbins, transport_over)
}

/// Spawn a grdManager owning a whole **device set**: one partition pool,
/// kernel registry, and fault cursor per GPU. Tenants are routed across
/// the set at `Connect` by [`ManagerConfig::placement`] or an explicit
/// [`PlacementHint`], and can be migrated between devices live
/// ([`ManagerHandle::migrate_partition`]). A one-element set is exactly
/// the old single-GPU manager — [`spawn_manager_over`] delegates here.
///
/// # Errors
///
/// As [`spawn_manager`]; additionally fails on an empty device set or a
/// `pool_bytes_per_gpu` whose length does not match it.
pub fn spawn_manager_multi(
    devices: Vec<SharedDevice>,
    config: ManagerConfig,
    fatbins: &[&[u8]],
    transport_over: BoundTransport,
) -> CudaResult<ManagerHandle> {
    if devices.is_empty() {
        return Err(CudaError::Rejected("empty device set".into()));
    }
    if let Some(per) = &config.pool_bytes_per_gpu {
        if per.len() != devices.len() {
            return Err(CudaError::Rejected(format!(
                "pool_bytes_per_gpu has {} entries for {} devices",
                per.len(),
                devices.len()
            )));
        }
    }
    let mut gpus = Vec::with_capacity(devices.len());
    let mut pools = Vec::with_capacity(devices.len());
    for (i, device) in devices.iter().enumerate() {
        let ctx = device.lock().create_context()?;
        // Reserve this device's partition pool: all of free memory
        // rounded down to a power of two (or the configured size),
        // self-aligned for fencing.
        let pool_bytes = match (&config.pool_bytes_per_gpu, config.pool_bytes) {
            (Some(per), _) => per[i],
            (None, Some(b)) => b,
            (None, None) => {
                // Target the largest power of two ≤ half of the
                // device's *total* memory, then halve until it fits in
                // what is actually free. Sizing from free memory alone
                // undercounts: the context's scratch allocation (1 MiB)
                // has already been carved, so `free/2` lands just under
                // the power-of-two boundary and the pool silently loses
                // a whole doubling.
                let (spec_mem, free) = {
                    let dev = device.lock();
                    let spec_mem = dev.spec().global_mem_bytes;
                    (spec_mem, spec_mem - dev.used_bytes())
                };
                let mut pool = 1u64 << (63 - (spec_mem / 2).leading_zeros());
                while pool > free {
                    pool >>= 1;
                }
                pool
            }
        };
        let pool_base = device.lock().malloc_aligned(ctx, pool_bytes, pool_bytes)?;
        gpus.push(GpuShared {
            device: device.clone(),
            ctx,
            kernels: RwLock::new(KernelTable::default()),
            kernels_gen: AtomicU64::new(0),
            fault_cursor: Mutex::new(0),
        });
        pools.push(PartitionAllocator::new(pool_base, pool_bytes));
    }
    let node_id = config
        .node_id
        .clone()
        .unwrap_or_else(|| format!("grd-{}", std::process::id()));
    let plane = Arc::new(ControlPlane::new(
        node_id,
        config.lease_default.unwrap_or_default(),
        config.admission.clone(),
    ));
    let shared = Arc::new(Shared {
        gpus,
        protection: config.protection,
        native_when_standalone: config.native_when_standalone,
        dispatch: config.dispatch,
        launch_ack: config.launch_ack,
        clients: RwLock::new(HashMap::new()),
        stats: LaunchStatsAtomic::default(),
        serial_gate: Mutex::new(()),
        inflight: AtomicU32::new(0),
        max_inflight: AtomicU32::new(0),
        exec_gauges: plane.exec_gauges(),
        qos_inflight_budget: config.qos_inflight_budget,
    });
    let mut control = Control {
        shared: shared.clone(),
        pools,
        policy: config.placement,
        rr_cursor: 0,
        next_client: 1,
        registered_fatbins: Vec::new(),
        plane: plane.clone(),
        activity_marks: HashMap::new(),
        telemetry: config.telemetry,
        log_level: config.log_level,
    };
    // Offline phase: sandbox + load the initial fatbins (on every GPU)
    // before any tenant can connect, so registration errors surface here.
    for fb in fatbins {
        control.register_fatbin(fb)?;
    }
    let BoundTransport {
        listener,
        dialer,
        unblock,
    } = transport_over;
    let (ctrl_tx, ctrl_rx) = unbounded();
    let control_join = std::thread::Builder::new()
        .name("grdManager".into())
        .spawn(move || control.run(ctrl_rx))
        .expect("spawn grdManager thread");
    // Resolve the automatic driver here so the acceptor gets a concrete
    // choice: serial dispatch keeps threads (a blocked lockstep enqueue
    // must never stall an executor worker that other sessions share,
    // and per-session threads keep its makespans bit-for-bit
    // reproducible); concurrent dispatch gets the executor pool.
    let driver = match config.session_driver {
        SessionDriver::Auto => match config.dispatch {
            DispatchMode::Serial => SessionDriver::ThreadPerSession,
            DispatchMode::Concurrent => SessionDriver::EventPool { workers: 0 },
        },
        d => d,
    };
    let acceptor_join = session::spawn_acceptor(listener, shared, ctrl_tx.clone(), driver);
    Ok(ManagerHandle {
        inner: Arc::new(ManagerInner {
            plane,
            dialer: Some(dialer),
            unblock,
            devices,
            ctrl_tx: Some(ctrl_tx),
            acceptor: Some(acceptor_join),
            control: Some(control_join),
        }),
    })
}

fn fxhash(bytes: &[u8]) -> u64 {
    // FNV-1a; used only to dedupe repeat fatbin registrations.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}
