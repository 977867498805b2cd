//! The node control plane: tenant leases, per-uid quotas, rate-limited
//! admission, and the admin/metrics plane behind `guardianctl`.
//!
//! The data plane ([`crate::manager`] + sessions) shares one GPU set
//! among many tenants; this module is what makes that sharing
//! *operable*. Four pieces, mirroring the lease/ticket model of
//! federated GPU managers (GPUnion) and the admission-above-spatial-
//! sharing argument of large-scale serving systems (ParvaGPU):
//!
//! * [`LeaseSpec`] — the terms a `Connect` is admitted under: a memory
//!   cap, a stream cap, and a wall-clock TTL. The tenant's session
//!   enforces the cap at `malloc`, and the control thread sweeps expired leases,
//!   draining the session through the same barrier + fault-reap path
//!   migration uses, then reclaiming the partition.
//! * [`TenantCounters`] / [`ControlPlane`] — per-tenant usage counters
//!   (bytes held, launches, transfers, frames) rolled up per uid — the
//!   identity the `SO_PEERCRED` gate already established — and per
//!   device, surviving tenant exit in a retired ledger so quota queries
//!   see lifetime usage, not just the current instant.
//! * [`Admission`] — a per-uid token bucket on connects, checked in the
//!   socket accept loops before any protocol byte, so a reconnect storm
//!   cannot starve the accept path for other uids.
//! * [`serve_admin`] / [`serve_http_metrics`] — the admin plane: a
//!   Unix-socket endpoint speaking the [`crate::proto::AdminRequest`]
//!   message family (a separate opcode space — tenant sessions can never
//!   utter it), plus an optional plain-HTTP `/metrics` endpoint serving
//!   the same Prometheus text exposition. Every response carries the
//!   node id so the protocol can later federate a fleet of `guardiand`
//!   nodes.

use crate::proto::{AdminRequest, AdminResponse, DeviceInfo, TenantInfo, UsageInfo};
use crate::telemetry::{
    ExecGauges, HistSnapshot, OpClass, TenantTelemetry, TraceEvent, OP_CLASSES,
};
use crate::transport::BoundTransport;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The scheduling class a tenant runs under.
///
/// `Latency` tenants get priority treatment along the whole launch
/// path: the executor rate-gates best-effort drain rounds while a
/// latency session has pending frames, the session flushes their
/// launches into the device's priority lane (front of the ready
/// queue), and the simulator preempts best-effort kernels for them at
/// the next slice boundary. `BestEffort` tenants backfill whatever the
/// latency class leaves idle. The default is `BestEffort`; the class a
/// tenant may hold is capped by its lease (`qos=latency|besteffort`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum QosClass {
    /// Latency-sensitive: priority dispatch, preempts best-effort
    /// kernel slices, exempt from the inflight-launch budget.
    Latency,
    /// Throughput-oriented backfill: bounded inflight budget, drain
    /// rounds gated while latency work is pending.
    #[default]
    BestEffort,
}

impl QosClass {
    /// Parse a class name as it appears in a lease term.
    ///
    /// # Errors
    ///
    /// A message naming the offending value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "latency" => Ok(QosClass::Latency),
            "besteffort" | "best-effort" => Ok(QosClass::BestEffort),
            other => Err(format!(
                "bad qos class `{other}` (want latency or besteffort)"
            )),
        }
    }

    /// The canonical lease-term spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            QosClass::Latency => "latency",
            QosClass::BestEffort => "besteffort",
        }
    }

    /// Wire form: 1 = latency, 0 = besteffort.
    pub fn to_wire(self) -> u8 {
        match self {
            QosClass::Latency => 1,
            QosClass::BestEffort => 0,
        }
    }

    /// Inverse of [`QosClass::to_wire`]; unknown values decode as
    /// best-effort so a hostile peer can never grant priority by accident.
    pub fn from_wire(v: u8) -> Self {
        if v == 1 {
            QosClass::Latency
        } else {
            QosClass::BestEffort
        }
    }
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The terms a tenant is admitted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseSpec {
    /// Maximum bytes the tenant may hold from its partition heap
    /// (`u64::MAX` = uncapped). The partition itself must also fit
    /// under this cap at connect time.
    pub mem_bytes: u64,
    /// Maximum streams the tenant may use (0 denies admission outright;
    /// the current data plane grants one stream per tenant, so any
    /// value ≥ 1 admits).
    pub streams: u32,
    /// Wall-clock time-to-live; `None` never expires. An expired lease
    /// is revoked by the manager without operator action.
    pub ttl: Option<Duration>,
    /// The highest scheduling class this lease grants. A connect
    /// requesting `latency` is clamped to best-effort unless the lease
    /// says `qos=latency`; lowering a live lease to `besteffort`
    /// demotes its tenants in place.
    pub qos: QosClass,
}

impl LeaseSpec {
    /// The no-op lease: uncapped memory, one stream, no expiry, and
    /// the latency class permitted (callers that never mention QoS
    /// still default-request best-effort at connect).
    pub fn unlimited() -> Self {
        LeaseSpec {
            mem_bytes: u64::MAX,
            streams: u32::MAX,
            ttl: None,
            qos: QosClass::Latency,
        }
    }

    /// Parse a lease from `key=value` pairs separated by commas, e.g.
    /// `mem=16M,streams=4,ttl=30s,qos=latency`. Sizes accept `K`/`M`/`G`
    /// suffixes; TTLs accept `ms`, `s`, or `m` (minutes) suffixes, and
    /// `ttl=0` means no expiry. `qos` is the highest class the lease
    /// grants (`latency` or `besteffort`). Omitted keys keep their
    /// unlimited defaults.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending key and value.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut lease = LeaseSpec::unlimited();
        for pair in s.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("lease term `{pair}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            if value.is_empty() {
                return Err(format!("lease term `{key}` has an empty value"));
            }
            match key {
                "mem" => lease.mem_bytes = parse_size(value)?,
                "streams" => {
                    lease.streams = value
                        .parse()
                        .map_err(|_| format!("bad stream count `{value}` for `streams`"))?;
                }
                "ttl" => lease.ttl = parse_ttl(value)?,
                "qos" => lease.qos = QosClass::parse(value)?,
                other => {
                    return Err(format!(
                        "unknown lease term `{other}` (want mem, streams, ttl, or qos)"
                    ))
                }
            }
        }
        Ok(lease)
    }

    /// The TTL in wire form: milliseconds, 0 = no expiry.
    pub fn ttl_ms(&self) -> u64 {
        self.ttl.map(|t| t.as_millis() as u64).unwrap_or(0)
    }

    /// Build a lease from wire fields (`u64::MAX` mem = uncapped,
    /// `ttl_ms` 0 = no expiry, `qos` per [`QosClass::from_wire`]).
    /// Inverse of [`LeaseSpec::ttl_ms`] and the `mem_bytes` convention.
    pub fn from_wire(mem_bytes: u64, streams: u32, ttl_ms: u64, qos: u8) -> Self {
        LeaseSpec {
            mem_bytes,
            streams,
            ttl: (ttl_ms > 0).then(|| Duration::from_millis(ttl_ms)),
            qos: QosClass::from_wire(qos),
        }
    }
}

impl Default for LeaseSpec {
    fn default() -> Self {
        LeaseSpec::unlimited()
    }
}

impl fmt::Display for LeaseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.mem_bytes == u64::MAX {
            f.write_str("mem=unlimited")?;
        } else {
            write!(f, "mem={}", self.mem_bytes)?;
        }
        if self.streams == u32::MAX {
            f.write_str(",streams=unlimited")?;
        } else {
            write!(f, ",streams={}", self.streams)?;
        }
        match self.ttl {
            None => f.write_str(",ttl=none")?,
            Some(t) => write!(f, ",ttl={}ms", t.as_millis())?,
        }
        write!(f, ",qos={}", self.qos)
    }
}

fn parse_size(s: &str) -> Result<u64, String> {
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'K' | b'k') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'M' | b'm') => (&s[..s.len() - 1], 1 << 20),
        Some(b'G' | b'g') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad size `{s}` (want e.g. 4096, 16M, 1G)"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("size `{s}` overflows"))
}

fn parse_ttl(s: &str) -> Result<Option<Duration>, String> {
    let bad = || format!("bad ttl `{s}` (want e.g. 500ms, 30s, 5m, 0)");
    let (digits, per) = if let Some(d) = s.strip_suffix("ms") {
        (d, Duration::from_millis(1))
    } else if let Some(d) = s.strip_suffix('s') {
        (d, Duration::from_secs(1))
    } else if let Some(d) = s.strip_suffix('m') {
        (d, Duration::from_secs(60))
    } else {
        (s, Duration::from_secs(1))
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    Ok((n > 0).then(|| per * n as u32))
}

/// Per-tenant usage counters, written lock-free from the data plane
/// (launches from the dispatch path, frames from the executor drain
/// loop, bytes held from malloc/free), read by the admin plane at scrape
/// time. Relaxed ordering throughout: these are statistics, not
/// synchronization.
#[derive(Debug, Default)]
pub struct TenantCounters {
    /// Partition-heap bytes currently held (stored under the tenant's
    /// heap lock on malloc/free, so lease-cap checks and scrapes agree).
    pub bytes_held: AtomicU64,
    /// Kernel launches dispatched.
    pub launches: AtomicU64,
    /// Host/device transfers (h2d, d2h, d2d, memset) dispatched.
    pub transfers: AtomicU64,
    /// Bytes moved by those transfers.
    pub transfer_bytes: AtomicU64,
    /// Wire frames handled for this tenant (bumped in batches by the
    /// executor drain loop — the one seat that sees every frame).
    pub frames: AtomicU64,
    /// Launches admitted but not yet completed (ticked on admission,
    /// drained when the stream synchronizes). The executor compares
    /// this against the best-effort inflight budget before draining
    /// more of the tenant's frames.
    pub inflight: AtomicU64,
}

impl TenantCounters {
    /// Record one transfer of `bytes` (h2d, d2h, d2d, or memset).
    pub fn note_transfer(&self, bytes: u64) {
        self.transfers.fetch_add(1, Relaxed);
        self.transfer_bytes.fetch_add(bytes, Relaxed);
    }
}

/// A live tenancy as the control plane tracks it.
#[derive(Debug, Clone)]
struct TenantEntry {
    uid: u32,
    device: u32,
    partition_size: u64,
    lease: LeaseSpec,
    granted_at: Instant,
    counters: Arc<TenantCounters>,
    /// Latency histograms + flight recorder, shared with the session
    /// (`None` when the manager runs with telemetry disabled).
    telemetry: Option<Arc<TenantTelemetry>>,
}

/// Usage retired when a tenancy ends, keyed per `(uid, device)` so
/// quota queries report lifetime totals.
#[derive(Debug, Default, Clone, Copy)]
struct RetiredUsage {
    launches: u64,
    transfers: u64,
    transfer_bytes: u64,
    frames: u64,
    occupancy_ms: u64,
}

/// The node-level lease/quota registry shared between the manager's
/// control thread (admission, revocation, accounting) and the admin
/// plane (tables, metrics). All methods take `&self`; interior state is
/// behind short-lived mutexes sized for hundreds of tenants.
#[derive(Debug)]
pub struct ControlPlane {
    node: String,
    default_lease: LeaseSpec,
    overrides: Mutex<HashMap<u32, LeaseSpec>>,
    tenants: Mutex<HashMap<u32, TenantEntry>>,
    retired: Mutex<HashMap<(u32, u32), RetiredUsage>>,
    /// Latency histograms of departed tenants, folded in at retire so
    /// per-uid quantiles survive disconnect (mirrors `retired`).
    retired_hists: Mutex<HashMap<u32, [HistSnapshot; OP_CLASSES]>>,
    /// Event-executor health counters, written by the executor threads.
    exec: Arc<ExecGauges>,
    admission: Option<Arc<Admission>>,
    /// Leases revoked by operator request.
    pub revoked_total: AtomicU64,
    /// Leases revoked by TTL expiry.
    pub expired_total: AtomicU64,
}

impl ControlPlane {
    /// A control plane for node `node` admitting unknown uids under
    /// `default_lease`, optionally reporting an [`Admission`] gate's
    /// reject counter in its metrics.
    pub fn new(
        node: impl Into<String>,
        default_lease: LeaseSpec,
        admission: Option<Arc<Admission>>,
    ) -> Self {
        ControlPlane {
            node: node.into(),
            default_lease,
            overrides: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            retired: Mutex::new(HashMap::new()),
            retired_hists: Mutex::new(HashMap::new()),
            exec: Arc::new(ExecGauges::default()),
            admission,
            revoked_total: AtomicU64::new(0),
            expired_total: AtomicU64::new(0),
        }
    }

    /// This node's identity, echoed in every admin response.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// The lease terms a connect from `uid` is admitted under: the uid's
    /// override if one was set (`guardianctl lease set`), else the node
    /// default. Live tenancies keep the terms they were granted.
    pub fn lease_for(&self, uid: u32) -> LeaseSpec {
        self.overrides
            .lock()
            .get(&uid)
            .copied()
            .unwrap_or(self.default_lease)
    }

    /// Set (or replace) the lease terms for future connects from `uid`.
    pub fn set_override(&self, uid: u32, lease: LeaseSpec) {
        self.overrides.lock().insert(uid, lease);
    }

    /// Record a granted tenancy. Called by the control thread right
    /// after the partition is carved.
    #[allow(clippy::too_many_arguments)]
    pub fn admit(
        &self,
        client: u32,
        uid: u32,
        device: u32,
        partition_size: u64,
        lease: LeaseSpec,
        counters: Arc<TenantCounters>,
        telemetry: Option<Arc<TenantTelemetry>>,
    ) {
        self.tenants.lock().insert(
            client,
            TenantEntry {
                uid,
                device,
                partition_size,
                lease,
                granted_at: Instant::now(),
                counters,
                telemetry,
            },
        );
    }

    /// The uid a live client connected as, if it is still admitted.
    pub fn uid_of(&self, client: u32) -> Option<u32> {
        self.tenants.lock().get(&client).map(|t| t.uid)
    }

    /// Move a tenancy's accounting to a new device after migration.
    pub fn rebind(&self, client: u32, device: u32) {
        if let Some(t) = self.tenants.lock().get_mut(&client) {
            t.device = device;
        }
    }

    /// Apply a lowered qos ceiling to every live tenancy of `uid`: a
    /// lease revoked down to `besteffort` demotes its latency tenants
    /// in place. Raising the ceiling never promotes live tenants (they
    /// keep what they were granted; a reconnect can request more).
    /// Returns the demoted client ids so the control thread can
    /// re-class the data plane too.
    pub fn reclass(&self, uid: u32, ceiling: QosClass) -> Vec<u32> {
        let mut demoted = Vec::new();
        if ceiling != QosClass::BestEffort {
            return demoted;
        }
        for (&client, t) in self.tenants.lock().iter_mut() {
            if t.uid == uid && t.lease.qos == QosClass::Latency {
                t.lease.qos = QosClass::BestEffort;
                demoted.push(client);
            }
        }
        demoted
    }

    /// The granted class of a live client, if still admitted.
    pub fn qos_of(&self, client: u32) -> Option<QosClass> {
        self.tenants.lock().get(&client).map(|t| t.lease.qos)
    }

    /// End a tenancy (disconnect, crash, revocation, or expiry): fold
    /// its counters and occupancy into the retired per-uid ledger.
    /// Idempotent — unknown clients are a no-op.
    pub fn retire(&self, client: u32) {
        let Some(t) = self.tenants.lock().remove(&client) else {
            return;
        };
        let mut retired = self.retired.lock();
        let r = retired.entry((t.uid, t.device)).or_default();
        r.launches += t.counters.launches.load(Relaxed);
        r.transfers += t.counters.transfers.load(Relaxed);
        r.transfer_bytes += t.counters.transfer_bytes.load(Relaxed);
        r.frames += t.counters.frames.load(Relaxed);
        r.occupancy_ms += t.granted_at.elapsed().as_millis() as u64;
        if let Some(tel) = &t.telemetry {
            let snap = tel.snapshot();
            let mut hists = self.retired_hists.lock();
            let agg = hists
                .entry(t.uid)
                .or_insert_with(|| [HistSnapshot::default(); OP_CLASSES]);
            for (a, s) in agg.iter_mut().zip(snap.iter()) {
                a.merge(s);
            }
        }
    }

    /// The executor gauges this plane exposes in `/metrics`; the
    /// manager hands clones to its executor threads.
    pub fn exec_gauges(&self) -> Arc<ExecGauges> {
        self.exec.clone()
    }

    /// Per-uid latency histograms, live sessions merged with the
    /// retired ledger, sorted by uid.
    pub fn latency_by_uid(&self) -> Vec<(u32, [HistSnapshot; OP_CLASSES])> {
        let mut agg: HashMap<u32, [HistSnapshot; OP_CLASSES]> = HashMap::new();
        for t in self.tenants.lock().values() {
            let Some(tel) = &t.telemetry else { continue };
            let snap = tel.snapshot();
            let e = agg
                .entry(t.uid)
                .or_insert_with(|| [HistSnapshot::default(); OP_CLASSES]);
            for (a, s) in e.iter_mut().zip(snap.iter()) {
                a.merge(s);
            }
        }
        for (&uid, hists) in self.retired_hists.lock().iter() {
            let e = agg
                .entry(uid)
                .or_insert_with(|| [HistSnapshot::default(); OP_CLASSES]);
            for (a, s) in e.iter_mut().zip(hists.iter()) {
                a.merge(s);
            }
        }
        let mut rows: Vec<_> = agg.into_iter().collect();
        rows.sort_by_key(|(uid, _)| *uid);
        rows
    }

    /// Flight-recorder snapshots across live sessions, optionally
    /// filtered to one uid, ordered by decode timestamp so interleaved
    /// tenants read chronologically.
    pub fn trace_snapshot(&self, uid: Option<u32>) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for t in self.tenants.lock().values() {
            if uid.is_some_and(|u| u != t.uid) {
                continue;
            }
            if let Some(tel) = &t.telemetry {
                tel.recorder.snapshot(&mut out);
            }
        }
        out.sort_by_key(|e| e.t_decode_ns);
        out
    }

    /// Client ids whose lease TTL has elapsed — the control thread's
    /// sweep revokes each of these.
    pub fn expired(&self) -> Vec<u32> {
        self.tenants
            .lock()
            .iter()
            .filter(|(_, t)| t.lease.ttl.is_some_and(|ttl| t.granted_at.elapsed() >= ttl))
            .map(|(&c, _)| c)
            .collect()
    }

    /// The live-tenant table, one row per tenancy, sorted by client id.
    pub fn tenants_table(&self) -> Vec<TenantInfo> {
        let mut rows: Vec<TenantInfo> = self
            .tenants
            .lock()
            .iter()
            .map(|(&client, t)| TenantInfo {
                client,
                uid: t.uid,
                device: t.device,
                partition_size: t.partition_size,
                lease_mem: t.lease.mem_bytes,
                lease_ttl_ms: t.lease.ttl_ms(),
                age_ms: t.granted_at.elapsed().as_millis() as u64,
                bytes_held: t.counters.bytes_held.load(Relaxed),
                launches: t.counters.launches.load(Relaxed),
                transfers: t.counters.transfers.load(Relaxed),
                transfer_bytes: t.counters.transfer_bytes.load(Relaxed),
                qos: t.lease.qos.to_wire(),
                inflight: t.counters.inflight.load(Relaxed),
            })
            .collect();
        rows.sort_by_key(|r| r.client);
        rows
    }

    /// Per-`(uid, device)` usage — live tenants plus the retired ledger
    /// — optionally filtered to one uid, sorted by (uid, device).
    pub fn quota_table(&self, uid: Option<u32>) -> Vec<UsageInfo> {
        let mut agg: HashMap<(u32, u32), UsageInfo> = HashMap::new();
        for t in self.tenants.lock().values() {
            let e = agg.entry((t.uid, t.device)).or_insert_with(|| UsageInfo {
                uid: t.uid,
                device: t.device,
                live: 0,
                bytes_held: 0,
                launches: 0,
                transfers: 0,
                transfer_bytes: 0,
                occupancy_ms: 0,
            });
            e.live += 1;
            e.bytes_held += t.counters.bytes_held.load(Relaxed);
            e.launches += t.counters.launches.load(Relaxed);
            e.transfers += t.counters.transfers.load(Relaxed);
            e.transfer_bytes += t.counters.transfer_bytes.load(Relaxed);
            e.occupancy_ms += t.granted_at.elapsed().as_millis() as u64;
        }
        for (&(u, d), r) in self.retired.lock().iter() {
            let e = agg.entry((u, d)).or_insert_with(|| UsageInfo {
                uid: u,
                device: d,
                live: 0,
                bytes_held: 0,
                launches: 0,
                transfers: 0,
                transfer_bytes: 0,
                occupancy_ms: 0,
            });
            e.launches += r.launches;
            e.transfers += r.transfers;
            e.transfer_bytes += r.transfer_bytes;
            e.occupancy_ms += r.occupancy_ms;
        }
        let mut rows: Vec<UsageInfo> = agg
            .into_values()
            .filter(|r| uid.is_none_or(|u| r.uid == u))
            .collect();
        rows.sort_by_key(|r| (r.uid, r.device));
        rows
    }

    /// Render the Prometheus text exposition: device gauges from
    /// `devices` (the manager's live [`DeviceInfo`] probe) plus the
    /// per-uid usage counters and control-plane totals.
    pub fn render_metrics(&self, devices: &[DeviceInfo]) -> String {
        use fmt::Write;
        let mut out = String::with_capacity(1024);
        let node = &self.node;
        let gauge = |o: &mut String, name: &str, help: &str| {
            let _ = writeln!(o, "# HELP {name} {help}\n# TYPE {name} gauge");
        };
        let counter = |o: &mut String, name: &str, help: &str| {
            let _ = writeln!(o, "# HELP {name} {help}\n# TYPE {name} counter");
        };
        gauge(
            &mut out,
            "guardian_device_pool_bytes",
            "Partition-pool capacity per device.",
        );
        for d in devices {
            let _ = writeln!(
                out,
                "guardian_device_pool_bytes{{node=\"{node}\",device=\"{}\"}} {}",
                d.index, d.pool_bytes
            );
        }
        gauge(
            &mut out,
            "guardian_device_used_bytes",
            "Pool bytes held by partitions per device.",
        );
        for d in devices {
            let _ = writeln!(
                out,
                "guardian_device_used_bytes{{node=\"{node}\",device=\"{}\"}} {}",
                d.index, d.used_bytes
            );
        }
        gauge(
            &mut out,
            "guardian_device_tenants",
            "Tenants bound per device.",
        );
        for d in devices {
            let _ = writeln!(
                out,
                "guardian_device_tenants{{node=\"{node}\",device=\"{}\"}} {}",
                d.index, d.tenants
            );
        }
        let usage = self.quota_table(None);
        gauge(
            &mut out,
            "guardian_uid_bytes_held",
            "Heap bytes held by live tenants per uid and device.",
        );
        for u in &usage {
            let _ = writeln!(
                out,
                "guardian_uid_bytes_held{{node=\"{node}\",uid=\"{}\",device=\"{}\"}} {}",
                u.uid, u.device, u.bytes_held
            );
        }
        counter(
            &mut out,
            "guardian_uid_launches_total",
            "Kernel launches per uid and device, live + retired.",
        );
        for u in &usage {
            let _ = writeln!(
                out,
                "guardian_uid_launches_total{{node=\"{node}\",uid=\"{}\",device=\"{}\"}} {}",
                u.uid, u.device, u.launches
            );
        }
        counter(
            &mut out,
            "guardian_uid_transfer_bytes_total",
            "Bytes transferred per uid and device, live + retired.",
        );
        for u in &usage {
            let _ = writeln!(
                out,
                "guardian_uid_transfer_bytes_total{{node=\"{node}\",uid=\"{}\",device=\"{}\"}} {}",
                u.uid, u.device, u.transfer_bytes
            );
        }
        counter(
            &mut out,
            "guardian_uid_occupancy_ms_total",
            "Milliseconds of tenancy occupancy per uid and device.",
        );
        for u in &usage {
            let _ = writeln!(
                out,
                "guardian_uid_occupancy_ms_total{{node=\"{node}\",uid=\"{}\",device=\"{}\"}} {}",
                u.uid, u.device, u.occupancy_ms
            );
        }
        counter(
            &mut out,
            "guardian_leases_revoked_total",
            "Leases ended by operator revocation.",
        );
        let _ = writeln!(
            out,
            "guardian_leases_revoked_total{{node=\"{node}\"}} {}",
            self.revoked_total.load(Relaxed)
        );
        counter(
            &mut out,
            "guardian_leases_expired_total",
            "Leases ended by TTL expiry.",
        );
        let _ = writeln!(
            out,
            "guardian_leases_expired_total{{node=\"{node}\"}} {}",
            self.expired_total.load(Relaxed)
        );
        if let Some(adm) = &self.admission {
            counter(
                &mut out,
                "guardian_admission_rejected_total",
                "Connections dropped by the per-uid admission rate limit.",
            );
            let _ = writeln!(
                out,
                "guardian_admission_rejected_total{{node=\"{node}\"}} {}",
                adm.rejected_total()
            );
        }
        // Telemetry plane: node-wide latency histograms per op class
        // (live + retired tenants merged), per-uid quantile gauges, and
        // the event-executor health counters.
        let by_uid = self.latency_by_uid();
        let _ = writeln!(
            out,
            "# HELP guardian_op_latency_seconds Dispatch-path latency per op class, all tenants.\n\
             # TYPE guardian_op_latency_seconds histogram"
        );
        for op in OpClass::ALL {
            let mut agg = HistSnapshot::default();
            for (_, hists) in &by_uid {
                agg.merge(&hists[op as usize]);
            }
            let top = (0..crate::telemetry::HIST_BUCKETS)
                .rev()
                .find(|&i| agg.buckets[i] > 0)
                .unwrap_or(0);
            let mut cum = 0u64;
            for (i, b) in agg.buckets.iter().enumerate().take(top + 1) {
                cum += b;
                let le = crate::telemetry::bucket_upper_ns(i) as f64 / 1e9;
                let _ = writeln!(
                    out,
                    "guardian_op_latency_seconds_bucket{{node=\"{node}\",op=\"{}\",le=\"{le}\"}} {cum}",
                    op.name()
                );
            }
            let _ = writeln!(
                out,
                "guardian_op_latency_seconds_bucket{{node=\"{node}\",op=\"{}\",le=\"+Inf\"}} {}",
                op.name(),
                agg.count()
            );
            let _ = writeln!(
                out,
                "guardian_op_latency_seconds_sum{{node=\"{node}\",op=\"{}\"}} {}",
                op.name(),
                agg.sum_ns as f64 / 1e9
            );
            let _ = writeln!(
                out,
                "guardian_op_latency_seconds_count{{node=\"{node}\",op=\"{}\"}} {}",
                op.name(),
                agg.count()
            );
        }
        gauge(
            &mut out,
            "guardian_uid_latency_seconds",
            "Estimated latency quantiles per uid and op class, live + retired.",
        );
        for (uid, hists) in &by_uid {
            for op in OpClass::ALL {
                let h = &hists[op as usize];
                if h.count() == 0 {
                    continue;
                }
                for q in [0.5, 0.95, 0.99] {
                    let _ = writeln!(
                        out,
                        "guardian_uid_latency_seconds{{node=\"{node}\",uid=\"{uid}\",op=\"{}\",quantile=\"{q}\"}} {}",
                        op.name(),
                        h.quantile(q) as f64 / 1e9
                    );
                }
            }
        }
        gauge(
            &mut out,
            "guardian_exec_queue_depth",
            "Frames waiting when the executor last drained a session.",
        );
        let _ = writeln!(
            out,
            "guardian_exec_queue_depth{{node=\"{node}\"}} {}",
            self.exec.queue_depth.load(Relaxed)
        );
        counter(
            &mut out,
            "guardian_exec_drain_batches_total",
            "Executor drain batches run.",
        );
        let _ = writeln!(
            out,
            "guardian_exec_drain_batches_total{{node=\"{node}\"}} {}",
            self.exec.drain_batches.load(Relaxed)
        );
        counter(
            &mut out,
            "guardian_exec_drained_frames_total",
            "Frames drained across all executor batches.",
        );
        let _ = writeln!(
            out,
            "guardian_exec_drained_frames_total{{node=\"{node}\"}} {}",
            self.exec.drained_frames.load(Relaxed)
        );
        gauge(
            &mut out,
            "guardian_exec_drain_batch_size",
            "Mean frames per executor drain batch.",
        );
        let batches = self.exec.drain_batches.load(Relaxed);
        let _ = writeln!(
            out,
            "guardian_exec_drain_batch_size{{node=\"{node}\"}} {}",
            if batches == 0 {
                0.0
            } else {
                self.exec.drained_frames.load(Relaxed) as f64 / batches as f64
            }
        );
        counter(
            &mut out,
            "guardian_exec_parks_total",
            "Executor threads parking in epoll_wait.",
        );
        let _ = writeln!(
            out,
            "guardian_exec_parks_total{{node=\"{node}\"}} {}",
            self.exec.parks.load(Relaxed)
        );
        counter(
            &mut out,
            "guardian_exec_wakes_total",
            "Doorbell wakeups delivered to executor threads.",
        );
        let _ = writeln!(
            out,
            "guardian_exec_wakes_total{{node=\"{node}\"}} {}",
            self.exec.wakes.load(Relaxed)
        );
        counter(
            &mut out,
            "guardian_exec_rearms_total",
            "Session doorbell re-arms after a drained batch.",
        );
        let _ = writeln!(
            out,
            "guardian_exec_rearms_total{{node=\"{node}\"}} {}",
            self.exec.rearms.load(Relaxed)
        );
        // QoS plane: per-class tenancy/inflight gauges, the executor's
        // gated-round counter, and per-class latency histograms (live
        // tenants only — the retired ledger is keyed by uid, not class).
        let classes = [QosClass::Latency, QosClass::BestEffort];
        let mut class_tenants = [0u64; 2];
        let mut class_inflight = [0u64; 2];
        let mut class_hists = [[HistSnapshot::default(); OP_CLASSES]; 2];
        for t in self.tenants.lock().values() {
            let c = (t.lease.qos == QosClass::BestEffort) as usize;
            class_tenants[c] += 1;
            class_inflight[c] += t.counters.inflight.load(Relaxed);
            if let Some(tel) = &t.telemetry {
                for (a, s) in class_hists[c].iter_mut().zip(tel.snapshot().iter()) {
                    a.merge(s);
                }
            }
        }
        gauge(
            &mut out,
            "guardian_qos_tenants",
            "Live tenants per scheduling class.",
        );
        for (i, class) in classes.iter().enumerate() {
            let _ = writeln!(
                out,
                "guardian_qos_tenants{{node=\"{node}\",class=\"{class}\"}} {}",
                class_tenants[i]
            );
        }
        gauge(
            &mut out,
            "guardian_qos_inflight_launches",
            "Launches admitted but not yet completed per scheduling class.",
        );
        for (i, class) in classes.iter().enumerate() {
            let _ = writeln!(
                out,
                "guardian_qos_inflight_launches{{node=\"{node}\",class=\"{class}\"}} {}",
                class_inflight[i]
            );
        }
        counter(
            &mut out,
            "guardian_qos_gated_rounds_total",
            "Best-effort work rate-gated: drain rounds capped behind pending latency frames, plus launches throttled at the inflight budget.",
        );
        let _ = writeln!(
            out,
            "guardian_qos_gated_rounds_total{{node=\"{node}\"}} {}",
            self.exec.qos_gated_rounds.load(Relaxed)
        );
        gauge(
            &mut out,
            "guardian_qos_latency_sessions_pending",
            "Latency-class sessions with undrained frames right now.",
        );
        let _ = writeln!(
            out,
            "guardian_qos_latency_sessions_pending{{node=\"{node}\"}} {}",
            self.exec.qos_latency_pending.load(Relaxed)
        );
        gauge(
            &mut out,
            "guardian_qos_latency_sessions",
            "Latency-class sessions connected; while any exist, best-effort drain rounds are paced at the gated cap.",
        );
        let _ = writeln!(
            out,
            "guardian_qos_latency_sessions{{node=\"{node}\"}} {}",
            self.exec.qos_latency_sessions.load(Relaxed)
        );
        let _ = writeln!(
            out,
            "# HELP guardian_qos_latency_seconds Dispatch-path latency per scheduling class and op, live tenants.\n\
             # TYPE guardian_qos_latency_seconds histogram"
        );
        for (i, class) in classes.iter().enumerate() {
            for op in OpClass::ALL {
                let h = &class_hists[i][op as usize];
                let top = (0..crate::telemetry::HIST_BUCKETS)
                    .rev()
                    .find(|&j| h.buckets[j] > 0)
                    .unwrap_or(0);
                let mut cum = 0u64;
                for (j, b) in h.buckets.iter().enumerate().take(top + 1) {
                    cum += b;
                    let le = crate::telemetry::bucket_upper_ns(j) as f64 / 1e9;
                    let _ = writeln!(
                        out,
                        "guardian_qos_latency_seconds_bucket{{node=\"{node}\",class=\"{class}\",op=\"{}\",le=\"{le}\"}} {cum}",
                        op.name()
                    );
                }
                let _ = writeln!(
                    out,
                    "guardian_qos_latency_seconds_bucket{{node=\"{node}\",class=\"{class}\",op=\"{}\",le=\"+Inf\"}} {}",
                    op.name(),
                    h.count()
                );
                let _ = writeln!(
                    out,
                    "guardian_qos_latency_seconds_sum{{node=\"{node}\",class=\"{class}\",op=\"{}\"}} {}",
                    op.name(),
                    h.sum_ns as f64 / 1e9
                );
                let _ = writeln!(
                    out,
                    "guardian_qos_latency_seconds_count{{node=\"{node}\",class=\"{class}\",op=\"{}\"}} {}",
                    op.name(),
                    h.count()
                );
            }
        }
        out
    }
}

/// A per-uid token bucket on connection admission, checked in the
/// socket accept loops *before* any protocol byte is read. Each uid
/// starts with `burst` tokens and refills at `rate_per_sec`; a connect
/// with no token available is dropped (the peer observes EOF, exactly
/// like a [`crate::transport::UidPolicy`] rejection), so one uid's
/// reconnect storm cannot starve the accept loop for everyone else.
#[derive(Debug)]
pub struct Admission {
    rate_per_sec: f64,
    burst: f64,
    buckets: Mutex<HashMap<u32, (f64, Instant)>>,
    rejected: AtomicU64,
}

impl Admission {
    /// A bucket admitting `burst` immediate connects per uid, refilling
    /// at `rate_per_sec`.
    pub fn new(rate_per_sec: f64, burst: u32) -> Self {
        Admission {
            rate_per_sec: rate_per_sec.max(0.0),
            burst: f64::from(burst.max(1)),
            buckets: Mutex::new(HashMap::new()),
            rejected: AtomicU64::new(0),
        }
    }

    /// Whether a connect from `uid` is admitted now; a `false` is
    /// counted in [`Admission::rejected_total`].
    pub fn admit(&self, uid: u32) -> bool {
        let now = Instant::now();
        let mut buckets = self.buckets.lock();
        let (tokens, last) = buckets.entry(uid).or_insert((self.burst, now));
        *tokens =
            (*tokens + now.duration_since(*last).as_secs_f64() * self.rate_per_sec).min(self.burst);
        *last = now;
        if *tokens >= 1.0 {
            *tokens -= 1.0;
            true
        } else {
            drop(buckets);
            self.rejected.fetch_add(1, Relaxed);
            false
        }
    }

    /// Connections dropped so far.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.load(Relaxed)
    }
}

/// Handle to a running admin endpoint; dropping it (or calling
/// [`AdminServer::shutdown`]) unblocks the acceptor and joins it.
pub struct AdminServer {
    unblock: Option<crate::transport::UnblockFn>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    // Held so an in-process listener stays dialable; dropping it is what
    // unblocks a channel transport's accept (socket listeners use
    // `unblock` instead).
    dialer: Option<Box<dyn crate::transport::Dialer>>,
}

impl AdminServer {
    /// Unblock the acceptor and join it. In-flight per-connection
    /// handlers finish with their peers.
    pub fn shutdown(&mut self) {
        if let Some(u) = self.unblock.take() {
            u();
        }
        drop(self.dialer.take());
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve the admin message family on `transport`: every accepted
/// connection gets a handler thread looping recv → decode
/// [`AdminRequest`] → `handler` → send [`AdminResponse`]. Undecodable
/// frames end that connection (the admin socket is same-uid by policy;
/// a garbled peer is a bug, not a negotiation).
pub fn serve_admin<F>(transport: BoundTransport, handler: F) -> AdminServer
where
    F: Fn(AdminRequest) -> AdminResponse + Send + Sync + 'static,
{
    let BoundTransport {
        listener,
        dialer,
        unblock,
    } = transport;
    let handler = Arc::new(handler);
    let accept_thread = std::thread::Builder::new()
        .name("grdAdmin".into())
        .spawn(move || {
            while let Ok(conn) = listener.accept() {
                let handler = handler.clone();
                let _ = std::thread::Builder::new()
                    .name("grdAdminConn".into())
                    .spawn(move || {
                        while let Ok(frame) = conn.recv() {
                            let Ok(req) = AdminRequest::decode(&frame) else {
                                break;
                            };
                            if conn.send(handler(req).encode()).is_err() {
                                break;
                            }
                        }
                    });
            }
        })
        .expect("spawn grdAdmin thread");
    AdminServer {
        unblock,
        accept_thread: Some(accept_thread),
        dialer: Some(dialer),
    }
}

/// Handle to a running HTTP metrics endpoint; dropping it stops the
/// acceptor (via a self-connect wake).
pub struct HttpMetricsServer {
    stop: Arc<AtomicBool>,
    addr: std::net::SocketAddr,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HttpMetricsServer {
    /// The bound address (useful when port 0 was requested).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting and join the acceptor.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Relaxed);
        // Wake the blocked accept with a throwaway connection.
        let _ = std::net::TcpStream::connect(self.addr);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HttpMetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve a minimal plain-HTTP `GET /metrics` endpoint at `addr` (e.g.
/// `127.0.0.1:9115`), rendering `metrics()` per scrape. Anything but
/// `GET /metrics` gets a 404. This is the "optional HTTP" leg of the
/// admin plane — the uds admin socket remains the authoritative API.
///
/// # Errors
///
/// [`std::io::Error`] when the address cannot be bound.
pub fn serve_http_metrics<F>(addr: &str, metrics: F) -> std::io::Result<HttpMetricsServer>
where
    F: Fn() -> String + Send + Sync + 'static,
{
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let thread = std::thread::Builder::new()
        .name("grdMetricsHttp".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if stop2.load(Relaxed) {
                    break;
                }
                let Ok(mut stream) = stream else { continue };
                let mut line = String::new();
                if BufReader::new(&stream).read_line(&mut line).is_err() {
                    continue;
                }
                let ok = line.starts_with("GET /metrics ");
                let (status, body) = if ok {
                    ("200 OK", metrics())
                } else {
                    ("404 Not Found", String::from("not found\n"))
                };
                let _ = write!(
                    stream,
                    "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
            }
        })
        .expect("spawn grdMetricsHttp thread");
    Ok(HttpMetricsServer {
        stop,
        addr,
        thread: Some(thread),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_parse_round_trips_terms() {
        let l = LeaseSpec::parse("mem=16M,streams=4,ttl=30s").unwrap();
        assert_eq!(l.mem_bytes, 16 << 20);
        assert_eq!(l.streams, 4);
        assert_eq!(l.ttl, Some(Duration::from_secs(30)));
        assert_eq!(l.ttl_ms(), 30_000);

        let l = LeaseSpec::parse("ttl=500ms").unwrap();
        assert_eq!(l.ttl, Some(Duration::from_millis(500)));
        assert_eq!(l.mem_bytes, u64::MAX, "omitted terms stay unlimited");

        let l = LeaseSpec::parse("mem=1G,ttl=0").unwrap();
        assert_eq!(l.mem_bytes, 1 << 30);
        assert_eq!(l.ttl, None, "ttl=0 means no expiry");

        let l = LeaseSpec::parse("qos=besteffort,mem=4M").unwrap();
        assert_eq!(l.qos, QosClass::BestEffort);
        let l = LeaseSpec::parse("qos=latency").unwrap();
        assert_eq!(l.qos, QosClass::Latency);

        assert_eq!(LeaseSpec::parse("").unwrap(), LeaseSpec::unlimited());

        let wire = LeaseSpec::from_wire(l.mem_bytes, l.streams, l.ttl_ms(), l.qos.to_wire());
        assert_eq!(wire, l);
    }

    /// Every malformed lease form is rejected with a message naming
    /// the offending key or value.
    #[test]
    fn lease_parse_errors_name_the_offender() {
        // Not key=value at all.
        let e = LeaseSpec::parse("mem").unwrap_err();
        assert!(e.contains("`mem`"), "{e}");
        // Unknown key.
        let e = LeaseSpec::parse("cpus=4").unwrap_err();
        assert!(e.contains("`cpus`"), "{e}");
        // Bad size value / unit.
        let e = LeaseSpec::parse("mem=soon").unwrap_err();
        assert!(e.contains("`soon`"), "{e}");
        let e = LeaseSpec::parse("mem=12T").unwrap_err();
        assert!(e.contains("`12T`"), "{e}");
        // Bad stream count.
        let e = LeaseSpec::parse("streams=many").unwrap_err();
        assert!(e.contains("`many`") && e.contains("streams"), "{e}");
        // Bad ttl unit.
        let e = LeaseSpec::parse("ttl=5h").unwrap_err();
        assert!(e.contains("`5h`"), "{e}");
        // Bad qos class.
        let e = LeaseSpec::parse("qos=turbo").unwrap_err();
        assert!(e.contains("`turbo`"), "{e}");
        // Empty values name the key they belong to.
        for key in ["mem", "streams", "ttl", "qos"] {
            let e = LeaseSpec::parse(&format!("{key}=")).unwrap_err();
            assert!(e.contains(&format!("`{key}`")), "{key}: {e}");
            assert!(e.contains("empty"), "{key}: {e}");
        }
    }

    #[test]
    fn qos_class_wire_and_display_round_trip() {
        for class in [QosClass::Latency, QosClass::BestEffort] {
            assert_eq!(QosClass::from_wire(class.to_wire()), class);
            assert_eq!(QosClass::parse(class.as_str()).unwrap(), class);
            assert_eq!(format!("{class}"), class.as_str());
        }
        // Unknown wire bytes degrade to best-effort, never to priority.
        assert_eq!(QosClass::from_wire(7), QosClass::BestEffort);
        // A demoting reclass hits only latency tenants of that uid.
        let plane = ControlPlane::new("n0", LeaseSpec::unlimited(), None);
        let mut lat = LeaseSpec::unlimited();
        lat.qos = QosClass::Latency;
        let mut be = LeaseSpec::unlimited();
        be.qos = QosClass::BestEffort;
        plane.admit(1, 42, 0, 0, lat, Arc::new(TenantCounters::default()), None);
        plane.admit(2, 42, 0, 0, be, Arc::new(TenantCounters::default()), None);
        plane.admit(3, 43, 0, 0, lat, Arc::new(TenantCounters::default()), None);
        assert!(plane.reclass(42, QosClass::Latency).is_empty());
        assert_eq!(plane.reclass(42, QosClass::BestEffort), vec![1]);
        assert_eq!(plane.qos_of(1), Some(QosClass::BestEffort));
        assert_eq!(plane.qos_of(3), Some(QosClass::Latency));
    }

    #[test]
    fn admission_bucket_limits_per_uid() {
        let adm = Admission::new(0.0, 3);
        // uid 1 burns its burst; uid 2 is unaffected.
        assert!(adm.admit(1));
        assert!(adm.admit(1));
        assert!(adm.admit(1));
        assert!(!adm.admit(1));
        assert!(!adm.admit(1));
        assert!(adm.admit(2));
        assert_eq!(adm.rejected_total(), 2);
    }

    #[test]
    fn admission_bucket_refills_over_time() {
        let adm = Admission::new(1000.0, 1);
        assert!(adm.admit(7));
        // At 1000 tokens/s a few milliseconds refill the bucket.
        let deadline = Instant::now() + Duration::from_secs(2);
        while !adm.admit(7) {
            assert!(Instant::now() < deadline, "bucket never refilled");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn control_plane_tracks_lease_lifecycle() {
        let plane = ControlPlane::new("n0", LeaseSpec::unlimited(), None);
        assert_eq!(plane.lease_for(42), LeaseSpec::unlimited());
        let tight = LeaseSpec::parse("mem=2M,ttl=10ms").unwrap();
        plane.set_override(42, tight);
        assert_eq!(plane.lease_for(42), tight);
        assert_eq!(plane.lease_for(43), LeaseSpec::unlimited());

        let counters = Arc::new(TenantCounters::default());
        counters.launches.store(5, Relaxed);
        counters.bytes_held.store(4096, Relaxed);
        let telemetry = TenantTelemetry::new(16);
        telemetry.record(OpClass::LaunchEnqueue, 1_000);
        plane.admit(1, 42, 0, 2 << 20, tight, counters.clone(), Some(telemetry));
        let rows = plane.tenants_table();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].uid, 42);
        assert_eq!(rows[0].lease_mem, 2 << 20);
        assert_eq!(rows[0].launches, 5);

        // The 10ms TTL elapses.
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(plane.expired(), vec![1]);

        // Retiring folds usage into the quota ledger; tables empty out.
        plane.retire(1);
        plane.retire(1); // idempotent
        assert!(plane.tenants_table().is_empty());
        assert!(plane.expired().is_empty());
        let q = plane.quota_table(Some(42));
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].live, 0);
        assert_eq!(q[0].launches, 5);
        assert!(q[0].occupancy_ms >= 10);
        assert_eq!(q[0].bytes_held, 0, "held bytes are not lifetime usage");
        assert!(plane.quota_table(Some(9)).is_empty());
        // The retired ledger kept the latency histograms too.
        let lat = plane.latency_by_uid();
        assert_eq!(lat.len(), 1);
        assert_eq!(lat[0].0, 42);
        assert_eq!(lat[0].1[OpClass::LaunchEnqueue as usize].count(), 1);
    }

    #[test]
    fn metrics_exposition_is_prometheus_text() {
        let adm = Arc::new(Admission::new(0.0, 1));
        assert!(adm.admit(10));
        assert!(!adm.admit(10));
        let plane = ControlPlane::new("nodeA", LeaseSpec::unlimited(), Some(adm));
        let counters = Arc::new(TenantCounters::default());
        counters.launches.store(3, Relaxed);
        let telemetry = TenantTelemetry::new(16);
        for ns in [800, 1_200, 50_000] {
            telemetry.record(OpClass::LaunchEnqueue, ns);
        }
        telemetry.record(OpClass::Sync, 2_000_000);
        plane.admit(
            1,
            10,
            0,
            1 << 20,
            LeaseSpec::unlimited(),
            counters,
            Some(telemetry),
        );
        let devices = [DeviceInfo {
            index: 0,
            name: "TestGPU".into(),
            clock_ghz: 1.0,
            pool_bytes: 32 << 20,
            used_bytes: 1 << 20,
            tenants: 1,
        }];
        let text = plane.render_metrics(&devices);
        assert!(text.contains("# TYPE guardian_device_pool_bytes gauge"));
        assert!(text.contains("guardian_device_pool_bytes{node=\"nodeA\",device=\"0\"} 33554432"));
        assert!(
            text.contains("guardian_uid_launches_total{node=\"nodeA\",uid=\"10\",device=\"0\"} 3")
        );
        assert!(text.contains("guardian_admission_rejected_total{node=\"nodeA\"} 1"));
        // Telemetry families render: a histogram with a +Inf bucket and
        // per-uid quantile gauges.
        assert!(text.contains("# TYPE guardian_op_latency_seconds histogram"));
        assert!(text
            .contains("guardian_op_latency_seconds_bucket{node=\"nodeA\",op=\"launch_enqueue\",le=\"+Inf\"} 3"));
        assert!(text.contains("guardian_op_latency_seconds_count{node=\"nodeA\",op=\"sync\"} 1"));
        assert!(text.contains(
            "guardian_uid_latency_seconds{node=\"nodeA\",uid=\"10\",op=\"launch_enqueue\",quantile=\"0.5\"}"
        ));
        assert!(text.contains("# TYPE guardian_exec_drained_frames_total counter"));
        // QoS families: per-class gauges and histograms are present and
        // labeled by class (the unlimited lease grants latency here).
        assert!(text.contains("# TYPE guardian_qos_tenants gauge"));
        assert!(text.contains("guardian_qos_tenants{node=\"nodeA\",class=\"latency\"} 1"));
        assert!(text.contains("guardian_qos_tenants{node=\"nodeA\",class=\"besteffort\"} 0"));
        assert!(text.contains("# TYPE guardian_qos_gated_rounds_total counter"));
        assert!(text.contains("# TYPE guardian_qos_latency_seconds histogram"));
        assert!(text.contains(
            "guardian_qos_latency_seconds_bucket{node=\"nodeA\",class=\"latency\",op=\"launch_enqueue\",le=\"+Inf\"} 3"
        ));
        // Histogram bucket counts are cumulative, hence monotonic.
        for op in OpClass::ALL {
            let prefix = format!(
                "guardian_op_latency_seconds_bucket{{node=\"nodeA\",op=\"{}\"",
                op.name()
            );
            let mut last = 0u64;
            for line in text.lines().filter(|l| l.starts_with(&prefix)) {
                let count: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
                assert!(count >= last, "non-monotonic bucket: {line}");
                last = count;
            }
        }
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (metric, value) = line.rsplit_once(' ').expect("metric line");
            assert!(metric.contains("node=\"nodeA\""), "unlabeled: {line}");
            value.parse::<f64>().expect("numeric value");
        }
    }

    #[test]
    fn admin_server_answers_over_a_transport() {
        let plane = Arc::new(ControlPlane::new("n1", LeaseSpec::unlimited(), None));
        let transport = BoundTransport::channel();
        let dialer = transport.dialer.dial();
        let plane2 = plane.clone();
        let mut server = serve_admin(transport, move |req| match req {
            AdminRequest::Tenants => AdminResponse::Tenants {
                node: plane2.node().to_string(),
                tenants: plane2.tenants_table(),
            },
            _ => AdminResponse::Error {
                node: plane2.node().to_string(),
                msg: "unsupported".into(),
            },
        });
        let conn = dialer.unwrap();
        conn.send(AdminRequest::Tenants.encode()).unwrap();
        let resp = AdminResponse::decode(&conn.recv().unwrap()).unwrap();
        match resp {
            AdminResponse::Tenants { node, tenants } => {
                assert_eq!(node, "n1");
                assert!(tenants.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        // A tenant-family frame must not be interpreted: the connection
        // is dropped, not answered.
        conn.send(crate::proto::Request::Sync.encode()).unwrap();
        assert!(conn.recv().is_err());
        server.shutdown();
    }

    #[test]
    fn http_metrics_endpoint_serves_scrapes() {
        use std::io::{Read, Write};
        let server = serve_http_metrics("127.0.0.1:0", || String::from("guardian_up 1\n")).unwrap();
        let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
        write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 200 OK"));
        assert!(buf.ends_with("guardian_up 1\n"));

        let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
        write!(s, "GET /other HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 404"));
        drop(server);
    }
}
