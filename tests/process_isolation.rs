//! Cross-process isolation: the multi-tenant, OOB-offender-only, and
//! crash-reaping guarantees re-run with tenants as **real OS processes**
//! against a **real `guardiand` daemon process**, over both socket
//! transports.
//!
//! Everything the in-process suites assert about Guardian's isolation
//! story is only credible if it survives a genuine IPC boundary: here
//! every CUDA call crosses a Unix socket or a shared-memory ring between
//! processes, tenants are spawned with `spawn_tenant`, and the harshest
//! case — `kill -9` of a tenant mid-launch-storm — must still end with
//! the manager reclaiming the dead tenant's partition.
//!
//! Wired as an integration test of the `guardiand` crate so
//! `CARGO_BIN_EXE_*` resolves to the daemon and tenant binaries. CI runs
//! it in release under a hard timeout: a deadlocked cross-process
//! handshake fails the job fast instead of hanging it.

use cuda_rt::CudaApi;
use guardian::GrdLib;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

const DAEMON_BIN: &str = env!("CARGO_BIN_EXE_guardiand");
const TENANT_BIN: &str = env!("CARGO_BIN_EXE_grd-tenant");
const CTL_BIN: &str = env!("CARGO_BIN_EXE_guardianctl");

/// Generous deadline for any single cross-process step (debug builds on
/// loaded CI machines are slow; correctness, not latency, is on trial).
const STEP_TIMEOUT: Duration = Duration::from_secs(60);

fn temp_sock(tag: &str) -> PathBuf {
    guardian::fixtures::temp_socket_path(&format!("pi-{tag}"))
}

/// A `guardiand` child process; killed and cleaned up on drop.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawn a daemon serving `wire` at a fresh socket path.
    fn spawn(wire: &str, extra_args: &[&str]) -> Daemon {
        Self::spawn_on(None, wire, extra_args)
    }

    /// [`Daemon::spawn`], under `taskset -c <cpu>` when `cpu` is set: the
    /// daemon sees one CPU, so its executor runs one worker.
    fn spawn_on(cpu: Option<&str>, wire: &str, extra_args: &[&str]) -> Daemon {
        let socket = temp_sock(wire);
        let endpoint_flag = match wire {
            "uds" => "--uds",
            "shm" => "--shm",
            other => panic!("unknown wire {other}"),
        };
        let mut cmd = match cpu {
            Some(cpu) => {
                let mut cmd = Command::new("taskset");
                cmd.args(["-c", cpu, DAEMON_BIN]);
                cmd
            }
            None => Command::new(DAEMON_BIN),
        };
        let child = cmd
            .arg(endpoint_flag)
            .arg(&socket)
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn guardiand");
        Daemon { child, socket }
    }

    /// Block until the daemon prints its `guardiand: listening` line —
    /// every endpoint is bound, so dials need no retry loop. The rest of
    /// its stdout is drained on a thread of its own.
    fn await_listening(&mut self) {
        let out = self.child.stdout.take().expect("daemon stdout");
        let mut lines = BufReader::new(out).lines();
        loop {
            match lines.next() {
                Some(Ok(line)) if line.starts_with("guardiand: listening") => break,
                Some(Ok(_)) => {}
                _ => panic!("guardiand exited before listening"),
            }
        }
        std::thread::spawn(move || lines.for_each(drop));
    }

    /// Panic unless the daemon process is still running.
    fn assert_alive(&mut self) {
        let status = self.child.try_wait().expect("wait guardiand");
        assert!(status.is_none(), "guardiand died: {status:?}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// A tenant child process plus a non-blocking view of its stdout.
struct Tenant {
    child: Child,
    lines: Receiver<String>,
}

/// Fork a real tenant process running `workload` against the daemon at
/// `socket` — the cross-process analogue of `GrdLib::connect`.
/// `hold_ms` keeps the tenancy idle between `ready` and the workload so
/// the caller can observe several tenants holding partitions at once.
fn spawn_tenant(
    wire: &str,
    socket: &PathBuf,
    mem: u64,
    workload: &str,
    iters: u32,
    hold_ms: u64,
) -> Tenant {
    spawn_tenant_hinted(wire, socket, mem, workload, iters, hold_ms, None)
}

/// [`spawn_tenant`] with a GPU pin (`--hint`) for multi-GPU daemons.
#[allow(clippy::too_many_arguments)]
fn spawn_tenant_hinted(
    wire: &str,
    socket: &PathBuf,
    mem: u64,
    workload: &str,
    iters: u32,
    hold_ms: u64,
    hint: Option<u32>,
) -> Tenant {
    let mut cmd = Command::new(TENANT_BIN);
    cmd.args(["--transport", wire])
        .arg("--socket")
        .arg(socket)
        .args(["--mem", &mem.to_string()])
        .args(["--workload", workload])
        .args(["--iters", &iters.to_string()])
        .args(["--hold-ms", &hold_ms.to_string()]);
    if let Some(h) = hint {
        cmd.args(["--hint", &h.to_string()]);
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn grd-tenant");
    let stdout = child.stdout.take().expect("tenant stdout");
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    Tenant { child, lines: rx }
}

impl Tenant {
    /// Wait for the tenant's `ready <client> <base> <size> <device>`
    /// banner; returns `(client, base, size)`.
    fn ready(&self) -> (u32, u64, u64) {
        let (client, base, size, _device) = self.ready_on();
        (client, base, size)
    }

    /// As [`Tenant::ready`], also returning the GPU index the daemon
    /// placed the tenant on.
    fn ready_on(&self) -> (u32, u64, u64, u32) {
        let deadline = Instant::now() + STEP_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = self
                .lines
                .recv_timeout(left)
                .expect("tenant never became ready");
            if let Some(rest) = line.strip_prefix("ready ") {
                let mut parts = rest.split_whitespace();
                let client = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("client id");
                let base = parts.next().and_then(|s| s.parse().ok()).expect("base");
                let size = parts.next().and_then(|s| s.parse().ok()).expect("size");
                let device = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                return (client, base, size, device);
            }
        }
    }

    /// Wait until the tenant has printed at least `n` lines starting
    /// with `prefix` (e.g. migration-hop progress).
    fn await_lines(&self, prefix: &str, n: usize) {
        let deadline = Instant::now() + STEP_TIMEOUT;
        let mut seen = 0;
        while seen < n {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = self.lines.recv_timeout(left).unwrap_or_else(|_| {
                panic!("tenant printed only {seen}/{n} `{prefix}` lines in {STEP_TIMEOUT:?}")
            });
            if line.starts_with(prefix) {
                seen += 1;
            }
        }
    }

    /// Wait for exit, collecting the rest of stdout.
    fn join(mut self) -> (i32, Vec<String>) {
        let deadline = Instant::now() + STEP_TIMEOUT;
        let status = loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("tenant did not exit within {STEP_TIMEOUT:?}");
                }
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        // Drain the rest of stdout without racing the reader thread: the
        // child may have exited before its buffered pipe data was
        // forwarded. The reader drops its sender at pipe EOF, so wait
        // for the disconnect rather than snapshotting with try_recv.
        let mut out = Vec::new();
        let drain_deadline = Instant::now() + STEP_TIMEOUT;
        loop {
            match self.lines.recv_timeout(Duration::from_millis(50)) {
                Ok(line) => out.push(line),
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    if Instant::now() > drain_deadline {
                        break;
                    }
                }
            }
        }
        (status.code().unwrap_or(-1), out)
    }

    /// SIGKILL, mid-whatever-it-was-doing.
    fn kill9(&mut self) {
        self.child.kill().expect("kill -9 tenant");
        let _ = self.child.wait();
    }
}

/// Dial the daemon from this (test) process, retrying through startup
/// races and not-yet-reclaimed partitions.
fn dial_until(wire: &str, socket: &PathBuf, mem: u64) -> GrdLib {
    dial_until_hinted(wire, socket, mem, None)
}

/// [`dial_until`] pinned to a GPU (strict placement hint).
fn dial_until_hinted(wire: &str, socket: &PathBuf, mem: u64, hint: Option<u32>) -> GrdLib {
    let hint = hint.map(guardian::PlacementHint::pin);
    let deadline = Instant::now() + STEP_TIMEOUT;
    loop {
        let r = match wire {
            "uds" => GrdLib::dial_uds_hinted(socket, mem, hint),
            "shm" => GrdLib::dial_shm_hinted(socket, mem, hint),
            other => panic!("unknown wire {other}"),
        };
        match r {
            Ok(lib) => return lib,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "could not connect to daemon over {wire} within {STEP_TIMEOUT:?}: {e}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Run `guardianctl` against `admin`, retrying dial failures through
/// the daemon's startup window. Returns `(exit_code, stdout)`.
fn ctl(admin: &PathBuf, args: &[&str]) -> (i32, String) {
    let deadline = Instant::now() + STEP_TIMEOUT;
    loop {
        let out = Command::new(CTL_BIN)
            .arg("--socket")
            .arg(admin)
            .args(args)
            .output()
            .expect("run guardianctl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        if stderr.contains("cannot dial") && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        return (
            out.status.code().unwrap_or(-1),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        );
    }
}

// ---- multi-tenant isolation -------------------------------------------------

/// Three concurrent tenant *processes* all run their fill workloads to
/// verified completion: partitions are disjoint and transfers/launches
/// are confined even with every call crossing the process boundary.
fn multi_tenant_isolation(wire: &str) {
    let daemon = Daemon::spawn(wire, &["--pool-bytes", &(32u64 << 20).to_string()]);
    let tenants: Vec<Tenant> = (0..3)
        .map(|_| spawn_tenant(wire, &daemon.socket, 4 << 20, "fill", 40, 1500))
        .collect();
    let mut partitions = Vec::new();
    for t in &tenants {
        let (_, base, size) = t.ready();
        partitions.push((base, size));
    }
    // Disjoint partitions across processes.
    for (i, &(a_base, a_size)) in partitions.iter().enumerate() {
        for &(b_base, b_size) in &partitions[i + 1..] {
            assert!(
                a_base + a_size <= b_base || b_base + b_size <= a_base,
                "partitions overlap: {partitions:?}"
            );
        }
    }
    for t in tenants {
        let (code, out) = t.join();
        assert_eq!(code, 0, "tenant failed; stdout: {out:?}");
        assert!(out.iter().any(|l| l == "fill-ok"), "no fill-ok in {out:?}");
    }
}

#[test]
fn multi_tenant_isolation_across_processes_uds() {
    multi_tenant_isolation("uds");
}

#[test]
fn multi_tenant_isolation_across_processes_shm() {
    multi_tenant_isolation("shm");
}

// ---- OOB kills only the offender ---------------------------------------------

/// An out-of-bounds attacker process is terminated by Guardian — and
/// *only* it: the victim process, connected over the same daemon, keeps
/// computing and verifying results.
fn oob_kills_only_the_offender(wire: &str) {
    let daemon = Daemon::spawn(
        wire,
        &[
            "--pool-bytes",
            &(16u64 << 20).to_string(),
            "--protection",
            "check",
        ],
    );
    let victim = spawn_tenant(wire, &daemon.socket, 4 << 20, "fill", 80, 500);
    victim.ready();
    let offender = spawn_tenant(wire, &daemon.socket, 4 << 20, "oob", 1, 0);
    offender.ready();

    let (code, out) = offender.join();
    assert_eq!(code, 0, "offender saw the wrong ending; stdout: {out:?}");
    assert!(
        out.iter().any(|l| l == "oob-terminated"),
        "offender was not terminated by Guardian: {out:?}"
    );
    let (code, out) = victim.join();
    assert_eq!(code, 0, "victim must be unaffected; stdout: {out:?}");
    assert!(out.iter().any(|l| l == "fill-ok"), "no fill-ok in {out:?}");
}

#[test]
fn oob_kills_only_the_offender_uds() {
    oob_kills_only_the_offender("uds");
}

#[test]
fn oob_kills_only_the_offender_shm() {
    oob_kills_only_the_offender("shm");
}

// ---- crash reaping / kill -9 mid-storm ---------------------------------------

/// `kill -9` a tenant in the middle of a launch storm; the manager must
/// notice the vanished connection, drain the dead tenant's queued work,
/// and return its partition to the pool — proven by a new tenant
/// acquiring the *same* partition and using it. The pool holds exactly
/// one partition, so reclamation is the only way the second connect can
/// succeed.
fn sigkill_mid_storm_reclaims_partition(wire: &str, daemon_extra: &[&str]) {
    let pool = (4u64 << 20).to_string();
    let mut args = vec!["--pool-bytes", pool.as_str()];
    args.extend_from_slice(daemon_extra);
    let daemon = Daemon::spawn(wire, &args);

    let mut storm = spawn_tenant(wire, &daemon.socket, 4 << 20, "storm", 0, 0);
    let (_, storm_base, _) = storm.ready();
    // Let the storm rage long enough that frames are genuinely in flight
    // when the SIGKILL lands.
    std::thread::sleep(Duration::from_millis(200));
    storm.kill9();

    // The partition comes back (dial_until retries through OutOfMemory
    // while the manager reaps), and it is the same one.
    let mut lib = dial_until(wire, &daemon.socket, 4 << 20);
    assert_eq!(
        lib.partition().0,
        storm_base,
        "expected the dead tenant's partition to be reused"
    );
    // And it is fully usable: the dead tenant's drained storm left no
    // stale commands behind.
    let buf = lib
        .cuda_malloc(4096)
        .expect("malloc in reclaimed partition");
    lib.cuda_memcpy_h2d(buf, &[7u8; 64]).expect("h2d");
    lib.cuda_device_synchronize().expect("sync");
    assert_eq!(
        lib.cuda_memcpy_d2h(buf, 64).expect("d2h"),
        vec![7u8; 64],
        "reclaimed partition corrupted"
    );
}

#[test]
fn sigkill_mid_storm_reclaims_partition_uds() {
    sigkill_mid_storm_reclaims_partition("uds", &[]);
}

#[test]
fn sigkill_mid_storm_reclaims_partition_shm() {
    // Deferred acks: the storm is pure one-way ring traffic, the hardest
    // case for crash detection (no reply ever un-blocks the tenant).
    sigkill_mid_storm_reclaims_partition("shm", &["--deferred"]);
}

// ---- crash mid-migration ------------------------------------------------------

/// `kill -9` a tenant while it ping-pongs its partition between two
/// GPUs. Whatever instant the SIGKILL lands at — mid-copy, between
/// hops, mid-verify — the manager must end up with **both** devices'
/// pools fully reclaimed: the migration path frees the source as part
/// of the move, and the vanished-connection path frees wherever the
/// tenant died. Each device's pool holds exactly one partition, so a
/// pinned full-pool connect on *each* GPU is possible only if nothing
/// leaked on either side.
fn sigkill_mid_migration_reclaims_both_partitions(wire: &str) {
    let pool = (4u64 << 20).to_string();
    let daemon = Daemon::spawn(wire, &["--gpus", "2", "--pool-bytes", pool.as_str()]);

    let mut mig = spawn_tenant_hinted(wire, &daemon.socket, 4 << 20, "migrate", 0, 0, Some(0));
    let (_, _, _, device) = mig.ready_on();
    assert_eq!(device, 0, "hint-pinned tenant must start on device 0");
    // Let it complete a few hops so the kill genuinely races live
    // migration machinery, then strike.
    mig.await_lines("migrated ", 3);
    mig.kill9();

    // Both GPUs' pools come back whole (dial retries through the reap).
    let a = dial_until_hinted(wire, &daemon.socket, 4 << 20, Some(0));
    assert_eq!(a.device(), 0);
    let mut b = dial_until_hinted(wire, &daemon.socket, 4 << 20, Some(1));
    assert_eq!(b.device(), 1);
    // And the reclaimed partitions are usable: no stale copies or
    // commands from the dead migrator land in them.
    let buf = b.cuda_malloc(4096).expect("malloc on reclaimed device 1");
    b.cuda_memcpy_h2d(buf, &[0x5Au8; 256]).expect("h2d");
    b.cuda_device_synchronize().expect("sync");
    assert_eq!(
        b.cuda_memcpy_d2h(buf, 256).expect("d2h"),
        vec![0x5Au8; 256],
        "reclaimed partition corrupted"
    );
    drop((a, b));
}

#[test]
fn sigkill_mid_migration_reclaims_both_partitions_uds() {
    sigkill_mid_migration_reclaims_both_partitions("uds");
}

#[test]
fn sigkill_mid_migration_reclaims_both_partitions_shm() {
    sigkill_mid_migration_reclaims_both_partitions("shm");
}

// ---- lease lifecycle under crashes --------------------------------------------

/// A tenant *process* admitted under a short default TTL is reclaimed
/// by the manager alone when the lease lapses: the pool's only
/// partition becomes re-allocatable with no operator (and no tenant
/// cooperation — the tenant is mid-hold when the lease ends), and the
/// evicted process observes its tenancy as dead rather than hanging.
#[test]
fn ttl_expiry_evicts_tenant_process_and_reclaims_partition() {
    let pool = (4u64 << 20).to_string();
    let daemon = Daemon::spawn(
        "uds",
        &["--pool-bytes", &pool, "--lease-default", "ttl=400ms"],
    );
    // The tenant holds its partition idle well past the TTL before
    // trying to compute.
    let t = spawn_tenant("uds", &daemon.socket, 4 << 20, "fill", 10, 3000);
    t.ready();
    // Reclamation happens while the tenant still *thinks* it is holding:
    // this full-pool connect succeeds only once the lease was swept.
    let mut lib = dial_until("uds", &daemon.socket, 4 << 20);
    let buf = lib.cuda_malloc(4096).expect("malloc after expiry");
    lib.cuda_memcpy_h2d(buf, &[6u8; 64]).expect("h2d");
    lib.cuda_device_synchronize().expect("sync");
    assert_eq!(lib.cuda_memcpy_d2h(buf, 64).expect("d2h"), vec![6u8; 64]);
    // The evicted process fails fast (exit 3: runtime failure) instead
    // of computing on a partition it no longer owns.
    let (code, out) = t.join();
    assert_eq!(code, 3, "evicted tenant must fail its workload: {out:?}");
    assert!(
        !out.iter().any(|l| l == "fill-ok"),
        "evicted tenant must not verify a fill: {out:?}"
    );
}

/// `guardianctl lease revoke` of a tenant mid-launch-storm drains and
/// kills only the offender: a victim process computing alongside on the
/// same daemon finishes its workload untouched.
#[test]
fn revocation_mid_storm_kills_only_the_offender() {
    let admin = temp_sock("revoke-admin");
    let pool = (16u64 << 20).to_string();
    let admin_s = admin.display().to_string();
    let daemon = Daemon::spawn(
        "uds",
        &["--pool-bytes", &pool, "--admin-socket", admin_s.as_str()],
    );
    let victim = spawn_tenant("uds", &daemon.socket, 4 << 20, "fill", 80, 500);
    victim.ready();
    let storm = spawn_tenant("uds", &daemon.socket, 4 << 20, "storm", 0, 0);
    let (offender, _, _) = storm.ready();
    // Let frames be genuinely in flight when the revocation lands.
    std::thread::sleep(Duration::from_millis(200));
    let (code, out) = ctl(&admin, &["lease", "revoke", &offender.to_string()]);
    assert_eq!(code, 0, "revoke failed: {out}");

    // The storm ends (the tenant sees its tenancy die and exits clean —
    // same contract as daemon shutdown), the victim never notices.
    let (code, out) = storm.join();
    assert_eq!(code, 0, "revoked storm must exit cleanly: {out:?}");
    let (code, out) = victim.join();
    assert_eq!(code, 0, "victim must be unaffected: {out:?}");
    assert!(out.iter().any(|l| l == "fill-ok"), "no fill-ok in {out:?}");
    let _ = std::fs::remove_file(&admin);
}

/// `kill -9` of a *leased* tenant releases its quota hold: the usage it
/// accrued stays on the books (retired launches survive), but its held
/// bytes drop to zero and the partition returns to the pool.
#[test]
fn sigkill_of_leased_tenant_releases_quota() {
    let admin = temp_sock("quota-admin");
    let pool = (4u64 << 20).to_string();
    let admin_s = admin.display().to_string();
    let daemon = Daemon::spawn(
        "uds",
        &[
            "--pool-bytes",
            &pool,
            "--lease-default",
            "mem=8M",
            "--admin-socket",
            admin_s.as_str(),
        ],
    );
    let mut storm = spawn_tenant("uds", &daemon.socket, 4 << 20, "storm", 0, 0);
    storm.ready();
    std::thread::sleep(Duration::from_millis(200));
    storm.kill9();

    // Partition reclaimed (the pool holds exactly one), then released
    // again by a graceful disconnect.
    let lib = dial_until("uds", &daemon.socket, 4 << 20);
    drop(lib);

    // The uid's quota row converges to zero live tenancy and zero held
    // bytes while keeping the dead tenant's retired launches.
    let uid = guardian::transport::peercred::current_uid().to_string();
    let deadline = Instant::now() + STEP_TIMEOUT;
    loop {
        let (code, out) = ctl(&admin, &["quota", &uid]);
        assert_eq!(code, 0, "quota query failed: {out}");
        let row: Vec<&str> = out
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .find(|f| f.first() == Some(&uid.as_str()))
            .unwrap_or_default();
        // uid dev live held launches xfers xfer-bytes occupancy
        if row.len() >= 5 && row[2] == "0" && row[3] == "0B" {
            let launches: u64 = row[4].parse().expect("launch count");
            assert!(launches > 0, "retired launches lost: {out}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "quota never released after SIGKILL: {out}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = std::fs::remove_file(&admin);
}

// ---- daemon robustness --------------------------------------------------------

/// A hostile peer speaking garbage at the socket must not take the
/// daemon down or wedge its accept loop: a well-behaved tenant connects
/// and works afterwards.
#[test]
fn garbage_handshake_does_not_wedge_the_daemon() {
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    let daemon = Daemon::spawn("uds", &["--pool-bytes", &(8u64 << 20).to_string()]);
    // Wait until the daemon accepts connections at all.
    let probe = dial_until("uds", &daemon.socket, 1 << 20);
    drop(probe);
    // Garbage preamble, then an abrupt hangup mid-"frame".
    if let Ok(mut s) = UnixStream::connect(&daemon.socket) {
        let _ = s.write_all(b"HTTP/1.1 GET /gpu\r\n");
    }
    if let Ok(mut s) = UnixStream::connect(&daemon.socket) {
        let _ = s.write_all(&[b'G', b'R', b'D', 250]); // wrong version
    }
    // The daemon still serves real tenants.
    let t = spawn_tenant("uds", &daemon.socket, 4 << 20, "fill", 10, 0);
    t.ready();
    let (code, out) = t.join();
    assert_eq!(code, 0, "tenant failed after garbage clients: {out:?}");
}

// ---- shm handshake attacks -----------------------------------------------------

/// A tenant holding the shm ring and window descriptors cannot resize
/// either: both are daemon-made memfds sealed against shrinking and
/// growing, so `ftruncate` fails with `EPERM`, and the daemon — whose
/// mappings would fault on a truncated page, taking every tenant with
/// it — stays up and keeps serving, the attacker and a neighbour alike.
#[test]
fn truncating_the_shm_ring_or_window_is_refused() {
    use guardian::proto::{Request, Response};
    use guardian::transport::shm::RawShmClient;

    let mut daemon = Daemon::spawn("shm", &["--pool-bytes", &(8u64 << 20).to_string()]);
    daemon.await_listening();
    let raw = RawShmClient::dial(&daemon.socket, 1 << 20).expect("hand-rolled hello");
    for (name, file) in [("ring", raw.ring()), ("window", raw.window())] {
        for len in [0, 1 << 40] {
            let e = file.set_len(len).expect_err(name);
            assert_eq!(e.raw_os_error(), Some(1), "{name} set_len({len}): {e}");
        }
    }
    // The daemon reads the ring it was meant to fault on, and answers.
    raw.conn().send(Request::DeviceNow.encode()).unwrap();
    let reply = Response::decode(&raw.conn().recv().unwrap()).unwrap();
    assert!(matches!(reply, Response::Cycles(_)), "{reply:?}");
    let mut neighbour = GrdLib::dial_shm(&daemon.socket, 4 << 20).unwrap();
    let buf = neighbour.cuda_malloc(1 << 20).unwrap();
    let data: Vec<u8> = (0..1u32 << 20).map(|i| (i % 253) as u8).collect();
    neighbour.cuda_memcpy_h2d(buf, &data).unwrap();
    assert!(neighbour.cuda_memcpy_d2h(buf, 1 << 20).unwrap() == data);
    daemon.assert_alive();
}

/// A shm tenant that holds its parked flag up and never reads its
/// socket gets a wake byte for every frame the daemon consumes, and its
/// socket buffer fills within a few hundred. The daemon sends each wake
/// with `MSG_DONTWAIT`, so even pinned to one CPU — one executor worker
/// — it drains the tenant's whole storm of one-way frames and answers
/// its next call, and a uds neighbour keeps completing round trips.
#[test]
fn a_tenant_that_never_reads_its_wakes_cannot_pin_the_worker() {
    use guardian::proto::{Request, Response};
    use guardian::transport::shm::RawShmClient;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// Far more wakes than any socket buffer holds, in frames few
    /// enough to fit the ring, so the tenant never waits (and so never
    /// drains its socket) while sending them.
    const FRAMES: usize = 20_000;
    let uds = temp_sock("pin-uds");
    let mut daemon = Daemon::spawn_on(
        Some("0"),
        "shm",
        &["--uds", uds.to_str().unwrap(), "--deferred"],
    );
    daemon.await_listening();
    let raw = RawShmClient::dial(&daemon.socket, 1 << 20).expect("hand-rolled hello");
    let mut neighbour = GrdLib::dial_uds(&uds, 4 << 20).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let (trip_tx, trip_rx) = channel();
    let n = std::thread::spawn({
        let stop = stop.clone();
        move || {
            while !stop.load(Ordering::SeqCst) {
                neighbour.cuda_device_synchronize().unwrap();
                let _ = trip_tx.send(());
            }
        }
    });
    let (done_tx, done_rx) = channel();
    std::thread::spawn(move || {
        let frame = Request::FreeAsync { ptr: 0 }.encode();
        for _ in 0..FRAMES {
            raw.hold_parked();
            raw.conn().send(frame.clone()).unwrap();
        }
        // Answered only once the daemon consumed every frame before it.
        raw.conn().send(Request::DeviceNow.encode()).unwrap();
        let _ = done_tx.send(Response::decode(&raw.conn().recv().unwrap()));
    });
    let reply = done_rx
        .recv_timeout(STEP_TIMEOUT)
        .expect("the daemon stopped draining the shm tenant's frames");
    assert!(matches!(reply, Ok(Response::Cycles(_))), "{reply:?}");
    // Count only round trips that start after the storm was drained.
    while trip_rx.try_recv().is_ok() {}
    for i in 0..20 {
        trip_rx
            .recv_timeout(STEP_TIMEOUT)
            .unwrap_or_else(|_| panic!("uds neighbour stalled after {i} round trips"));
    }
    stop.store(true, Ordering::SeqCst);
    n.join().unwrap();
    daemon.assert_alive();
}

/// A partition pool that is not a power of two is a configuration
/// error: `guardiand` names the size on stderr and exits 1 instead of
/// panicking in the allocator (which would exit 101).
#[test]
fn bad_pool_size_exits_with_a_message() {
    let mut daemon = Daemon::spawn("uds", &["--pool-bytes", "3000000"]);
    let deadline = Instant::now() + STEP_TIMEOUT;
    let status = loop {
        if let Some(status) = daemon.child.try_wait().expect("wait guardiand") {
            break status;
        }
        assert!(Instant::now() < deadline, "guardiand kept running");
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(
        daemon.child.stderr.as_mut().expect("piped stderr"),
        &mut stderr,
    )
    .expect("read stderr");
    assert_eq!(status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("pool size 3000000 bytes must be a power of two"),
        "stderr: {stderr}"
    );
}

// ---- graceful exit frees the partition ----------------------------------------

/// A tenant process that exits cleanly (Drop sends `Disconnect`) frees
/// its partition for the next process — the polite twin of the SIGKILL
/// case, across both transports in one scenario.
#[test]
fn graceful_exit_frees_partition_for_next_process() {
    let pool = (4u64 << 20).to_string();
    let uds_sock = temp_sock("both-uds");
    let shm_sock = temp_sock("both-shm");
    let child = Command::new(DAEMON_BIN)
        .arg("--uds")
        .arg(&uds_sock)
        .arg("--shm")
        .arg(&shm_sock)
        .args(["--pool-bytes", pool.as_str()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn guardiand");
    let daemon = Daemon {
        child,
        socket: uds_sock.clone(),
    };
    // First tenant over uds takes the whole pool and exits cleanly.
    let t = spawn_tenant("uds", &uds_sock, 4 << 20, "fill", 10, 0);
    t.ready();
    let (code, _) = t.join();
    assert_eq!(code, 0);
    // Second tenant over *shm* gets the freed partition: both endpoints
    // front one pool.
    let t = spawn_tenant("shm", &shm_sock, 4 << 20, "fill", 10, 0);
    t.ready();
    let (code, out) = t.join();
    assert_eq!(code, 0, "shm tenant failed: {out:?}");
    drop(daemon);
    let _ = std::fs::remove_file(&shm_sock);
}

// ---- hostile frame lengths ----------------------------------------------------

/// Resident memory of process `pid`, in bytes.
fn rss_bytes(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("proc status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmRSS line");
    kib * 1024
}

/// A peer that claims a maximal frame and then sends a small part of it
/// is received in place — into a buffer sized by the claim — but costs
/// the daemon only the bytes it actually sent: resident memory does not
/// grow by the claimed length, the daemon keeps serving, and the hang-up
/// is an ordinary disconnect.
#[test]
fn claimed_max_frame_does_not_grow_daemon_rss() {
    use guardian::transport::frame::{MAX_FRAME, PREAMBLE};
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let daemon = Daemon::spawn("uds", &["--pool-bytes", &(8u64 << 20).to_string()]);
    let mut probe = dial_until("uds", &daemon.socket, 1 << 20);
    let pid = daemon.child.id();
    let mut s = UnixStream::connect(&daemon.socket).unwrap();
    s.write_all(&PREAMBLE).unwrap();
    let mut preamble = [0u8; 4];
    s.read_exact(&mut preamble).unwrap();
    let before = rss_bytes(pid);
    s.write_all(&MAX_FRAME.to_le_bytes()).unwrap();
    // Several socket buffers' worth: `write_all` returns only once the
    // daemon has read all but the last bufferful, so the claim has been
    // acted on by the time we look.
    let sent = 2u64 << 20;
    s.write_all(&vec![0xAA; sent as usize]).unwrap();
    let grown = rss_bytes(pid).saturating_sub(before);
    assert!(
        grown < sent + (4 << 20),
        "daemon RSS grew {grown} bytes on a {MAX_FRAME}-byte claim after {sent} bytes"
    );
    // The daemon keeps serving, during the claim and after the hang-up.
    let p = probe.cuda_malloc(4096).unwrap();
    probe.cuda_free(p).unwrap();
    drop(s);
    let p = probe.cuda_malloc(4096).unwrap();
    probe.cuda_free(p).unwrap();
}
