//! # guardiand — Guardian's manager as an OS daemon
//!
//! The paper's deployment model (§4): one trusted `grdManager` process
//! owns the GPU; untrusted tenants are *separate OS processes* whose
//! intercepted CUDA calls cross a real IPC boundary. This crate packages
//! that model:
//!
//! * the **`guardiand`** binary serves a manager over a Unix-domain
//!   socket and/or a shared-memory-ring endpoint;
//! * the **`grd-tenant`** binary is a tenant process: it dials a daemon,
//!   registers its kernels, and runs one of a few canned workloads
//!   (well-behaved fill loops, an out-of-bounds attack, an unbounded
//!   launch storm) — the raw material of the cross-process isolation
//!   suite in `tests/process_isolation.rs`;
//! * this library holds the argument parsing and workload logic both
//!   binaries share, so the test suite can reason about exit codes and
//!   stdout lines instead of duplicating workload code.
//!
//! Exit-code contract for `grd-tenant` (asserted by the tests):
//! `0` — workload completed as intended (for `oob` that means Guardian
//! terminated *us*, and only us); `2` — bad usage; `3` — unexpected
//! runtime failure.

#![warn(missing_docs)]

use cuda_rt::{ArgPack, CudaApi, CudaError, CudaResult};
use gpu_sim::LaunchConfig;
use guardian::{GrdLib, PlacementHint, Protection, QosClass};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Which wire the tenant uses to reach the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// Unix-domain-socket framing.
    Uds,
    /// Shared-memory rings (handshake over the socket path).
    Shm,
}

impl Wire {
    /// Parse `"uds"` / `"shm"`.
    ///
    /// # Errors
    ///
    /// A usage message for anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "uds" => Ok(Wire::Uds),
            "shm" => Ok(Wire::Shm),
            other => Err(format!("unknown transport `{other}` (want uds|shm)")),
        }
    }
}

/// A canned tenant workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `iters` fill launches with periodic syncs; verifies results.
    Fill,
    /// One out-of-bounds stomp aimed just past the tenant's own
    /// partition; expects Guardian to terminate this tenant.
    Oob,
    /// Unbounded launch storm (runs until killed or the daemon is gone).
    Storm,
    /// Unbounded migration ping-pong across the daemon's GPUs, verifying
    /// a data checksum after every hop (runs until killed or the daemon
    /// is gone). Prints `migrated <n> <device>` per hop.
    Migrate,
}

impl Workload {
    /// Parse `"fill"` / `"oob"` / `"storm"` / `"migrate"`.
    ///
    /// # Errors
    ///
    /// A usage message for anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "fill" => Ok(Workload::Fill),
            "oob" => Ok(Workload::Oob),
            "storm" => Ok(Workload::Storm),
            "migrate" => Ok(Workload::Migrate),
            other => Err(format!(
                "unknown workload `{other}` (want fill|oob|storm|migrate)"
            )),
        }
    }
}

/// Parsed `grd-tenant` command line.
#[derive(Debug, Clone)]
pub struct TenantOpts {
    /// Transport to dial.
    pub wire: Wire,
    /// Daemon socket path.
    pub socket: PathBuf,
    /// Partition size to request at connect.
    pub mem: u64,
    /// Workload to run after connecting.
    pub workload: Workload,
    /// Iteration count for bounded workloads.
    pub iters: u32,
    /// Milliseconds to hold the tenancy idle between the `ready` banner
    /// and the workload. Lets a supervisor observe several tenants
    /// holding partitions *concurrently* (the isolation tests use this
    /// so a fast tenant cannot finish — and free its partition — before
    /// a slow sibling even connects).
    pub hold_ms: u64,
    /// GPU index to pin the tenancy to (strict placement hint), if any.
    pub hint: Option<u32>,
    /// QoS class to request at connect (`--qos latency|besteffort`,
    /// default best-effort). The daemon clamps the grant to the uid's
    /// lease ceiling.
    pub qos: QosClass,
}

impl TenantOpts {
    /// Parse `grd-tenant` arguments:
    /// `--transport uds|shm --socket PATH [--mem BYTES] [--workload W]
    /// [--iters N] [--hold-ms N] [--hint GPU] [--qos latency|besteffort]`.
    ///
    /// # Errors
    ///
    /// A usage message naming the offending flag.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut wire = None;
        let mut socket = None;
        let mut mem = 4 << 20;
        let mut workload = Workload::Fill;
        let mut iters = 50;
        let mut hold_ms = 0;
        let mut hint = None;
        let mut qos = QosClass::BestEffort;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--transport" => wire = Some(Wire::parse(&value("--transport")?)?),
                "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
                "--mem" => {
                    mem = value("--mem")?.parse().map_err(|e| format!("--mem: {e}"))?;
                }
                "--workload" => workload = Workload::parse(&value("--workload")?)?,
                "--iters" => {
                    iters = value("--iters")?
                        .parse()
                        .map_err(|e| format!("--iters: {e}"))?;
                }
                "--hold-ms" => {
                    hold_ms = value("--hold-ms")?
                        .parse()
                        .map_err(|e| format!("--hold-ms: {e}"))?;
                }
                "--hint" => {
                    hint = Some(
                        value("--hint")?
                            .parse()
                            .map_err(|e| format!("--hint: {e}"))?,
                    );
                }
                "--qos" => {
                    qos = QosClass::parse(&value("--qos")?).map_err(|e| format!("--qos: {e}"))?;
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(TenantOpts {
            wire: wire.ok_or("--transport is required")?,
            socket: socket.ok_or("--socket is required")?,
            mem,
            workload,
            iters,
            hold_ms,
            hint,
            qos,
        })
    }
}

/// Parsed `guardiand` command line.
#[derive(Debug, Clone)]
pub struct DaemonOpts {
    /// Unix-socket endpoint to serve, if any.
    pub uds: Option<PathBuf>,
    /// Shared-memory endpoint (handshake socket path) to serve, if any.
    pub shm: Option<PathBuf>,
    /// Number of simulated GPUs the daemon owns (default 1).
    pub gpus: u32,
    /// Partition pool sizes: empty = half of each device's memory; one
    /// entry = that size on every device; else one entry per device
    /// (`--pool-bytes` accepts a comma-separated list).
    pub pool_bytes: Vec<u64>,
    /// Bounds-enforcement mode.
    pub protection: Protection,
    /// Acknowledge launches at enqueue (`false`) or run them as one-way
    /// deferred sends (`true`).
    pub deferred: bool,
    /// Peer uids admitted at the sockets (`SO_PEERCRED`). Empty = only
    /// the uid the daemon runs as.
    pub allow_uids: Vec<u32>,
    /// Lease every connect is admitted under unless a per-uid override
    /// exists (`--lease-default mem=16M,streams=4,ttl=30s`). `None` =
    /// uncapped, never-expiring leases.
    pub lease_default: Option<guardian::LeaseSpec>,
    /// Admin-plane uds socket (`guardianctl` endpoint), if any.
    pub admin_socket: Option<PathBuf>,
    /// Sustained connects-per-second each uid may attempt; `None` =
    /// unmetered admission.
    pub max_connect_rate: Option<f64>,
    /// Node id stamped into every admin response (default `grd-<pid>`).
    pub node_id: Option<String>,
    /// Plaintext-HTTP `/metrics` listen address (`127.0.0.1:9090`).
    pub admin_http: Option<String>,
    /// Severity floor for structured one-line-per-event stderr logging
    /// (`--log-level off|info|debug`, default `off`).
    pub log_level: guardian::LogLevel,
    /// In-flight launch budget for best-effort tenants while latency
    /// tenants are active (`--qos-budget N`); `None` = the manager's
    /// default.
    pub qos_budget: Option<u64>,
    /// Kernel-slice preemption grain in device cycles (`--slice-cycles
    /// N`, 0 = off): long kernels yield their SMs to latency-class work
    /// at each slice boundary.
    pub slice_cycles: u64,
}

impl DaemonOpts {
    /// Parse `guardiand` arguments:
    /// `[--uds PATH] [--shm PATH] [--gpus N] [--pool-bytes N[,N...]]
    /// [--protection fence|modulo|check|none] [--deferred]
    /// [--allow-uid UID[,UID...]] [--lease-default SPEC] [--admin-socket PATH]
    /// [--max-connect-rate N] [--node-id NAME] [--admin-http ADDR]
    /// [--log-level off|info|debug] [--qos-budget N] [--slice-cycles N]`.
    ///
    /// # Errors
    ///
    /// A usage message; at least one of `--uds`/`--shm` is required, and
    /// a multi-entry `--pool-bytes` must match `--gpus`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = DaemonOpts {
            uds: None,
            shm: None,
            gpus: 1,
            pool_bytes: Vec::new(),
            protection: Protection::FenceBitwise,
            deferred: false,
            allow_uids: Vec::new(),
            lease_default: None,
            admin_socket: None,
            max_connect_rate: None,
            node_id: None,
            admin_http: None,
            log_level: guardian::LogLevel::Off,
            qos_budget: None,
            slice_cycles: 0,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--uds" => opts.uds = Some(PathBuf::from(value("--uds")?)),
                "--shm" => opts.shm = Some(PathBuf::from(value("--shm")?)),
                "--gpus" => {
                    opts.gpus = value("--gpus")?
                        .parse()
                        .map_err(|e| format!("--gpus: {e}"))?;
                }
                "--pool-bytes" => {
                    opts.pool_bytes = value("--pool-bytes")?
                        .split(',')
                        .map(|s| s.trim().parse::<u64>())
                        .collect::<Result<_, _>>()
                        .map_err(|e| format!("--pool-bytes: {e}"))?;
                }
                "--allow-uid" => {
                    let uids: Vec<u32> = value("--allow-uid")?
                        .split(',')
                        .map(|s| s.trim().parse::<u32>())
                        .collect::<Result<_, _>>()
                        .map_err(|e| format!("--allow-uid: {e}"))?;
                    opts.allow_uids.extend(uids);
                }
                "--protection" => {
                    opts.protection = match value("--protection")?.as_str() {
                        "fence" => Protection::FenceBitwise,
                        "modulo" => Protection::FenceModulo,
                        "check" => Protection::Check,
                        "none" => Protection::None,
                        other => {
                            return Err(format!(
                                "unknown protection `{other}` (want fence|modulo|check|none)"
                            ))
                        }
                    };
                }
                "--deferred" => opts.deferred = true,
                "--lease-default" => {
                    opts.lease_default = Some(
                        guardian::LeaseSpec::parse(&value("--lease-default")?)
                            .map_err(|e| format!("--lease-default: {e}"))?,
                    );
                }
                "--admin-socket" => {
                    opts.admin_socket = Some(PathBuf::from(value("--admin-socket")?));
                }
                "--max-connect-rate" => {
                    let rate: f64 = value("--max-connect-rate")?
                        .parse()
                        .map_err(|e| format!("--max-connect-rate: {e}"))?;
                    if !rate.is_finite() || rate <= 0.0 {
                        return Err("--max-connect-rate must be a positive number".into());
                    }
                    opts.max_connect_rate = Some(rate);
                }
                "--node-id" => opts.node_id = Some(value("--node-id")?),
                "--admin-http" => opts.admin_http = Some(value("--admin-http")?),
                "--log-level" => {
                    opts.log_level = guardian::LogLevel::parse(&value("--log-level")?)
                        .map_err(|e| format!("--log-level: {e}"))?;
                }
                "--qos-budget" => {
                    opts.qos_budget = Some(
                        value("--qos-budget")?
                            .parse()
                            .map_err(|e| format!("--qos-budget: {e}"))?,
                    );
                }
                "--slice-cycles" => {
                    opts.slice_cycles = value("--slice-cycles")?
                        .parse()
                        .map_err(|e| format!("--slice-cycles: {e}"))?;
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if opts.uds.is_none() && opts.shm.is_none() {
            return Err("at least one of --uds/--shm is required".into());
        }
        if opts.gpus == 0 {
            return Err("--gpus must be at least 1".into());
        }
        if opts.pool_bytes.len() > 1 && opts.pool_bytes.len() != opts.gpus as usize {
            return Err(format!(
                "--pool-bytes lists {} sizes for {} gpus",
                opts.pool_bytes.len(),
                opts.gpus
            ));
        }
        Ok(opts)
    }

    /// The per-device pool configuration for `ManagerConfig`:
    /// `(uniform pool_bytes, per-device override)`.
    pub fn pool_config(&self) -> (Option<u64>, Option<Vec<u64>>) {
        match self.pool_bytes.len() {
            0 => (None, None),
            1 => (Some(self.pool_bytes[0]), None),
            _ => (None, Some(self.pool_bytes.clone())),
        }
    }

    /// The `SO_PEERCRED` policy for the daemon's sockets: the explicit
    /// `--allow-uid` list, or — by default — only the daemon's own uid.
    pub fn uid_policy(&self) -> guardian::transport::UidPolicy {
        if self.allow_uids.is_empty() {
            guardian::transport::UidPolicy::same_user()
        } else {
            guardian::transport::UidPolicy::Allow(self.allow_uids.clone())
        }
    }

    /// The per-uid connect-rate gate from `--max-connect-rate`, shared
    /// between the uds and shm accept loops so both sockets meter one
    /// token budget per uid. Burst is one second's worth of connects.
    pub fn admission(&self) -> Option<std::sync::Arc<guardian::Admission>> {
        self.max_connect_rate
            .map(|rate| std::sync::Arc::new(guardian::Admission::new(rate, rate.ceil() as u32)))
    }
}

/// The PTX every tenant registers: the well-behaved `fill` kernel plus
/// the `stomp` attack (both from `guardian::fixtures`), packaged as one
/// fatbin — registration itself thus crosses the process boundary.
pub fn tenant_fatbin() -> Vec<u8> {
    let mut fb = ptx::fatbin::FatBin::new();
    fb.push_ptx("app", guardian::fixtures::FILL);
    fb.push_ptx("attack", guardian::fixtures::STOMP);
    fb.to_bytes().to_vec()
}

/// Dial the daemon, retrying while it finishes starting up (the parent
/// spawns daemon and tenants concurrently; a bounded retry window
/// de-races them without any out-of-band synchronization). `hint` pins
/// the tenancy to a GPU (strict).
///
/// # Errors
///
/// The last dial error once `window` is exhausted.
pub fn dial_retry(
    wire: Wire,
    socket: &std::path::Path,
    mem: u64,
    hint: Option<u32>,
    qos: QosClass,
    window: Duration,
) -> CudaResult<GrdLib> {
    let deadline = Instant::now() + window;
    let hint = hint.map(PlacementHint::pin);
    loop {
        let r = match wire {
            Wire::Uds => GrdLib::dial_uds_opts(socket, mem, hint, qos),
            Wire::Shm => GrdLib::dial_shm_opts(socket, mem, hint, qos),
        };
        match r {
            Ok(lib) => return Ok(lib),
            // Pool exhaustion is a real answer, not a startup race.
            Err(CudaError::OutOfMemory) => return Err(CudaError::OutOfMemory),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Run a tenant workload to its exit code (the `grd-tenant` contract).
/// Emits `fill-ok` / `oob-terminated` progress lines on stdout.
pub fn run_workload(lib: &mut GrdLib, workload: Workload, iters: u32) -> i32 {
    match workload {
        Workload::Fill => run_fill(lib, iters),
        Workload::Oob => run_oob(lib),
        Workload::Storm => run_storm(lib),
        Workload::Migrate => run_migrate(lib),
    }
}

fn run_fill(lib: &mut GrdLib, iters: u32) -> i32 {
    let n = 64u32;
    let buf = match lib.cuda_malloc(4 * n as u64) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("grd-tenant: malloc failed: {e}");
            return 3;
        }
    };
    let args = ArgPack::new().ptr(buf).u32(n).finish();
    for i in 0..iters {
        let r = lib.cuda_launch_kernel(
            "fill",
            LaunchConfig::linear(2, 32),
            &args,
            Default::default(),
        );
        if let Err(e) = r {
            eprintln!("grd-tenant: launch {i} failed: {e}");
            return 3;
        }
        if i % 10 == 9 {
            if let Err(e) = lib.cuda_device_synchronize() {
                eprintln!("grd-tenant: sync at {i} failed: {e}");
                return 3;
            }
        }
    }
    if let Err(e) = lib.cuda_device_synchronize() {
        eprintln!("grd-tenant: final sync failed: {e}");
        return 3;
    }
    match lib.cuda_memcpy_d2h(buf, 4 * n as u64) {
        Ok(out) => {
            for i in 0..n {
                let got = u32::from_le_bytes(out[i as usize * 4..][..4].try_into().expect("4"));
                if got != i {
                    eprintln!("grd-tenant: out[{i}] = {got}, isolation broken?");
                    return 3;
                }
            }
            println!("fill-ok");
            0
        }
        Err(e) => {
            eprintln!("grd-tenant: readback failed: {e}");
            3
        }
    }
}

/// Launch `stomp` at the first byte past our own partition; Guardian
/// must terminate exactly this tenant. Success (exit 0) means we
/// observed our own death certificate.
fn run_oob(lib: &mut GrdLib) -> i32 {
    let (base, size) = lib.partition();
    let args = ArgPack::new().ptr(base + size).u32(0x4141_4141).finish();
    if let Err(e) = lib.cuda_launch_kernel(
        "stomp",
        LaunchConfig::linear(1, 1),
        &args,
        Default::default(),
    ) {
        eprintln!("grd-tenant: oob launch rejected at enqueue: {e}");
        return 3;
    }
    // Under checking-mode protection the fault surfaces at sync; under
    // fencing the store wraps into our own partition and we stay alive —
    // both are correct confinement, but this workload is only meaningful
    // under `--protection check`.
    if lib.cuda_device_synchronize().is_ok() {
        eprintln!("grd-tenant: oob sync succeeded (fencing mode? wrong daemon config)");
        return 3;
    }
    // Guardian must keep rejecting us — the kill is sticky.
    match lib.cuda_malloc(16) {
        Err(CudaError::Rejected(_)) => {
            println!("oob-terminated");
            0
        }
        r => {
            eprintln!("grd-tenant: expected sticky rejection, got {r:?}");
            3
        }
    }
}

/// Migration ping-pong: bounce the tenancy across the daemon's GPUs as
/// fast as migrations complete, carrying a seeded data pattern and
/// verifying it after every hop. Runs until killed or the daemon is
/// gone; data corruption is a tenant failure (exit 3).
fn run_migrate(lib: &mut GrdLib) -> i32 {
    let n_gpus = match lib.device_count() {
        Ok(n) if n >= 2 => n,
        Ok(n) => {
            eprintln!("grd-tenant: migrate workload needs >= 2 gpus, daemon has {n}");
            return 3;
        }
        Err(e) => {
            eprintln!("grd-tenant: device_count failed: {e}");
            return 3;
        }
    };
    let len = 4096usize;
    let pattern: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8).collect();
    let mut buf = match lib.cuda_malloc(len as u64) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("grd-tenant: malloc failed: {e}");
            return 3;
        }
    };
    if let Err(e) = lib.cuda_memcpy_h2d(buf, &pattern) {
        eprintln!("grd-tenant: seed h2d failed: {e}");
        return 3;
    }
    let mut hops = 0u64;
    loop {
        let dst = (lib.device() + 1) % n_gpus;
        match lib.migrate(dst) {
            Ok(delta) => {
                buf = buf.wrapping_add(delta);
                hops += 1;
            }
            // The daemon went away (or the pool is momentarily taken);
            // a vanished daemon ends the ping-pong, not the tenant.
            Err(CudaError::Disconnected) => return 0,
            Err(e) => {
                eprintln!("grd-tenant: migrate to {dst} failed: {e}");
                return 3;
            }
        }
        match lib.cuda_memcpy_d2h(buf, len as u64) {
            Ok(back) => {
                if back != pattern {
                    eprintln!("grd-tenant: data corrupted after hop {hops}");
                    return 3;
                }
            }
            Err(CudaError::Disconnected) => return 0,
            Err(e) => {
                eprintln!("grd-tenant: readback after hop {hops} failed: {e}");
                return 3;
            }
        }
        println!("migrated {hops} {}", lib.device());
        use std::io::Write;
        let _ = std::io::stdout().flush();
    }
}

/// Launch storm: as fast as the transport carries frames, until killed.
/// Syncs only every 4096 launches, so under deferred acks this is nearly
/// pure one-way traffic. Prints `storm-synced` once, after the first
/// sync that succeeds: from then on frames are in flight.
fn run_storm(lib: &mut GrdLib) -> i32 {
    let buf = match lib.cuda_malloc(4 * 64) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("grd-tenant: malloc failed: {e}");
            return 3;
        }
    };
    let args = ArgPack::new().ptr(buf).u32(64).finish();
    let mut n = 0u64;
    let mut synced = false;
    loop {
        let r = lib.cuda_launch_kernel(
            "fill",
            LaunchConfig::linear(2, 32),
            &args,
            Default::default(),
        );
        if r.is_err() {
            // The daemon went away first; that's the end of the storm,
            // not a tenant bug.
            return 0;
        }
        n += 1;
        if n.is_multiple_of(4096) {
            // Bound the one-way queue so a deferred-mode storm cannot
            // outrun the device unboundedly.
            if lib.cuda_device_synchronize().is_ok() && !synced {
                synced = true;
                println!("storm-synced");
                use std::io::Write;
                let _ = std::io::stdout().flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_args_parse() {
        let args: Vec<String> = [
            "--transport",
            "shm",
            "--socket",
            "/tmp/g.sock",
            "--mem",
            "1048576",
            "--workload",
            "storm",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = TenantOpts::parse(&args).unwrap();
        assert_eq!(opts.wire, Wire::Shm);
        assert_eq!(opts.mem, 1 << 20);
        assert_eq!(opts.workload, Workload::Storm);
        assert!(TenantOpts::parse(&["--socket".into(), "/tmp/x".into()]).is_err());
        assert!(TenantOpts::parse(&["--bogus".into()]).is_err());
    }

    #[test]
    fn daemon_args_parse() {
        let args: Vec<String> = [
            "--uds",
            "/tmp/g.sock",
            "--pool-bytes",
            "8388608",
            "--deferred",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = DaemonOpts::parse(&args).unwrap();
        assert_eq!(
            opts.uds.as_deref(),
            Some(std::path::Path::new("/tmp/g.sock"))
        );
        assert_eq!(opts.gpus, 1);
        assert_eq!(opts.pool_config(), (Some(8 << 20), None));
        assert!(opts.deferred);
        // No endpoint at all is a usage error.
        assert!(DaemonOpts::parse(&[]).is_err());
        // The data plane has one driver; there is nothing to choose.
        let driver: Vec<String> = ["--uds", "/tmp/g.sock", "--driver", "threads"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            DaemonOpts::parse(&driver).unwrap_err(),
            "unknown flag `--driver`"
        );
    }

    #[test]
    fn daemon_control_plane_args_parse() {
        let args: Vec<String> = [
            "--uds",
            "/tmp/g.sock",
            "--lease-default",
            "mem=16M,streams=4,ttl=30s",
            "--admin-socket",
            "/tmp/g.admin",
            "--max-connect-rate",
            "50",
            "--node-id",
            "node-a",
            "--admin-http",
            "127.0.0.1:9090",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = DaemonOpts::parse(&args).unwrap();
        let lease = opts.lease_default.unwrap();
        assert_eq!(lease.mem_bytes, 16 << 20);
        assert_eq!(lease.streams, 4);
        assert_eq!(lease.ttl_ms(), 30_000);
        assert_eq!(
            opts.admin_socket.as_deref(),
            Some(std::path::Path::new("/tmp/g.admin"))
        );
        assert_eq!(opts.max_connect_rate, Some(50.0));
        assert!(opts.admission().is_some());
        assert_eq!(opts.node_id.as_deref(), Some("node-a"));
        assert_eq!(opts.admin_http.as_deref(), Some("127.0.0.1:9090"));
        // A daemon without the flags runs unleased and unmetered.
        let bare = DaemonOpts::parse(&["--uds".into(), "/tmp/g.sock".into()]).unwrap();
        assert!(bare.lease_default.is_none());
        assert!(bare.admission().is_none());
        // Malformed values are usage errors, not panics.
        let bad = |flag: &str, v: &str| {
            DaemonOpts::parse(&["--uds".into(), "/tmp/g.sock".into(), flag.into(), v.into()])
        };
        assert!(bad("--lease-default", "mem=banana").is_err());
        assert!(bad("--max-connect-rate", "0").is_err());
        assert!(bad("--max-connect-rate", "nan").is_err());
    }

    #[test]
    fn qos_args_parse() {
        let t = TenantOpts::parse(&[
            "--transport".into(),
            "uds".into(),
            "--socket".into(),
            "/tmp/x".into(),
            "--qos".into(),
            "latency".into(),
        ])
        .unwrap();
        assert_eq!(t.qos, QosClass::Latency);
        // Default request is best-effort; bad classes are usage errors.
        let bare = TenantOpts::parse(&[
            "--transport".into(),
            "uds".into(),
            "--socket".into(),
            "/tmp/x".into(),
        ])
        .unwrap();
        assert_eq!(bare.qos, QosClass::BestEffort);
        assert!(TenantOpts::parse(&[
            "--transport".into(),
            "uds".into(),
            "--socket".into(),
            "/tmp/x".into(),
            "--qos".into(),
            "turbo".into(),
        ])
        .is_err());

        let d = DaemonOpts::parse(&[
            "--uds".into(),
            "/tmp/g.sock".into(),
            "--qos-budget".into(),
            "32".into(),
            "--slice-cycles".into(),
            "2000".into(),
        ])
        .unwrap();
        assert_eq!(d.qos_budget, Some(32));
        assert_eq!(d.slice_cycles, 2000);
        let bare = DaemonOpts::parse(&["--uds".into(), "/tmp/g.sock".into()]).unwrap();
        assert_eq!(bare.qos_budget, None);
        assert_eq!(bare.slice_cycles, 0);
        let bad = |flag: &str, v: &str| {
            DaemonOpts::parse(&["--uds".into(), "/tmp/g.sock".into(), flag.into(), v.into()])
        };
        assert!(bad("--qos-budget", "many").is_err());
        assert!(bad("--slice-cycles", "-1").is_err());
    }

    #[test]
    fn daemon_multi_gpu_args_parse() {
        let args: Vec<String> = [
            "--uds",
            "/tmp/g.sock",
            "--gpus",
            "2",
            "--pool-bytes",
            "8388608,4194304",
            "--allow-uid",
            "1000,1001",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = DaemonOpts::parse(&args).unwrap();
        assert_eq!(opts.gpus, 2);
        assert_eq!(opts.pool_config(), (None, Some(vec![8 << 20, 4 << 20])));
        match opts.uid_policy() {
            guardian::transport::UidPolicy::Allow(uids) => assert_eq!(uids, vec![1000, 1001]),
            other => panic!("expected explicit allowlist, got {other:?}"),
        }
        // Default policy is same-uid.
        let bare = DaemonOpts::parse(&["--uds".into(), "/tmp/g.sock".into()]).unwrap();
        match bare.uid_policy() {
            guardian::transport::UidPolicy::Allow(uids) => {
                assert_eq!(uids, vec![guardian::transport::peercred::current_uid()]);
            }
            other => panic!("expected same-uid default, got {other:?}"),
        }
        // Per-device pool list must match the gpu count.
        assert!(DaemonOpts::parse(&[
            "--uds".into(),
            "/tmp/g.sock".into(),
            "--gpus".into(),
            "3".into(),
            "--pool-bytes".into(),
            "1,2".into(),
        ])
        .is_err());
        // Tenant --hint parses.
        let t = TenantOpts::parse(&[
            "--transport".into(),
            "uds".into(),
            "--socket".into(),
            "/tmp/x".into(),
            "--hint".into(),
            "1".into(),
            "--workload".into(),
            "migrate".into(),
        ])
        .unwrap();
        assert_eq!(t.hint, Some(1));
        assert_eq!(t.workload, Workload::Migrate);
    }
}
