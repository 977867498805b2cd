//! Node control plane, end to end over real OS processes: a live
//! `guardiand` with an admin socket, operated by the real `guardianctl`
//! binary, with tenants dialing over uds.
//!
//! Covers the control-plane acceptance story: `guardianctl` lists
//! devices and tenants, sets and revokes leases, and scrapes
//! Prometheus-text metrics; a TTL-expired lease is reclaimed by the
//! manager without any operator action (the partition becomes
//! re-allocatable); and a per-uid connect-rate gate sheds a reconnect
//! storm without wedging the daemon for later, slower clients.
//!
//! Wired as an integration test of the `guardiand` crate so
//! `CARGO_BIN_EXE_*` resolves to the daemon and ctl binaries. CI runs
//! it in release under a hard timeout.

use cuda_rt::CudaApi;
use guardian::GrdLib;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

const DAEMON_BIN: &str = env!("CARGO_BIN_EXE_guardiand");
const CTL_BIN: &str = env!("CARGO_BIN_EXE_guardianctl");

/// Generous deadline for any single cross-process step.
const STEP_TIMEOUT: Duration = Duration::from_secs(60);

fn temp_sock(tag: &str) -> PathBuf {
    guardian::fixtures::temp_socket_path(&format!("cp-{tag}"))
}

/// A `guardiand` child with a tenant socket and an admin socket; killed
/// and cleaned up on drop.
struct Daemon {
    child: Child,
    socket: PathBuf,
    admin: PathBuf,
    /// The daemon's stderr, line by line (its `--log-level` event log).
    events: Receiver<String>,
}

impl Daemon {
    /// Spawn a daemon serving uds tenants plus the admin plane, and
    /// return once it prints its `guardiand: listening` line: every
    /// endpoint is bound, so dials and `guardianctl` need no retry.
    fn spawn(tag: &str, extra_args: &[&str]) -> Daemon {
        let socket = temp_sock(&format!("{tag}-t"));
        let admin = temp_sock(&format!("{tag}-a"));
        let mut child = Command::new(DAEMON_BIN)
            .arg("--uds")
            .arg(&socket)
            .arg("--admin-socket")
            .arg(&admin)
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn guardiand");
        let (tx, events) = mpsc::channel();
        let stderr = BufReader::new(child.stderr.take().expect("daemon stderr"));
        std::thread::spawn(move || {
            for line in stderr.lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut lines = BufReader::new(child.stdout.take().expect("daemon stdout")).lines();
        loop {
            match lines.next() {
                Some(Ok(line)) if line.starts_with("guardiand: listening") => break,
                Some(Ok(_)) => {}
                _ => panic!("guardiand exited before listening"),
            }
        }
        std::thread::spawn(move || lines.for_each(drop));
        Daemon {
            child,
            socket,
            admin,
            events,
        }
    }

    /// Block until the daemon logs a stderr line containing `needle`.
    fn await_event(&self, needle: &str) {
        let deadline = Instant::now() + STEP_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.events.recv_timeout(left) {
                Ok(line) if line.contains(needle) => return,
                Ok(_) => {}
                Err(e) => panic!("guardiand never logged `{needle}` ({e:?})"),
            }
        }
    }

    /// Run `guardianctl` against this daemon's admin socket. Returns
    /// `(exit_code, stdout)`.
    fn ctl(&self, args: &[&str]) -> (i32, String) {
        let out = Command::new(CTL_BIN)
            .arg("--socket")
            .arg(&self.admin)
            .args(args)
            .output()
            .expect("run guardianctl");
        (
            out.status.code().unwrap_or(-1),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    }

    /// As [`Daemon::ctl`], asserting success.
    fn ctl_ok(&self, args: &[&str]) -> String {
        let (code, out) = self.ctl(args);
        assert_eq!(code, 0, "guardianctl {args:?} failed; stdout: {out}");
        out
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_file(&self.admin);
    }
}

/// Dial the daemon's tenant socket for a tenancy of `mem` bytes.
fn dial(socket: &PathBuf, mem: u64) -> GrdLib {
    GrdLib::dial_uds(socket, mem).unwrap_or_else(|e| panic!("could not connect to daemon: {e}"))
}

// ---- admin tables and metrics -------------------------------------------------

/// `guardianctl devices|tenants|quota|metrics` against a live daemon:
/// every table carries the node id, the tenant table shows the live
/// tenancy with its uid and usage, and the metrics scrape is
/// well-formed Prometheus text exposition.
#[test]
fn guardianctl_lists_devices_tenants_and_scrapes_metrics() {
    let pool = (8u64 << 20).to_string();
    let daemon = Daemon::spawn("tables", &["--pool-bytes", &pool, "--node-id", "ctl-node"]);
    let mut lib = dial(&daemon.socket, 2 << 20);
    // Generate some accountable usage.
    let buf = lib.cuda_malloc(4096).expect("malloc");
    lib.cuda_memcpy_h2d(buf, &[1u8; 256]).expect("h2d");
    lib.cuda_device_synchronize().expect("sync");

    let devices = daemon.ctl_ok(&["devices"]);
    assert!(devices.contains("node ctl-node"), "no node id: {devices}");
    assert!(devices.contains("8M"), "no pool column: {devices}");

    let uid = guardian::transport::peercred::current_uid().to_string();
    let tenants = daemon.ctl_ok(&["tenants"]);
    assert!(tenants.contains("1 tenant(s)"), "wrong count: {tenants}");
    assert!(
        tenants.split_whitespace().any(|w| w == uid),
        "tenant row missing uid {uid}: {tenants}"
    );

    let quota = daemon.ctl_ok(&["quota", &uid]);
    assert!(
        quota.split_whitespace().any(|w| w == uid),
        "quota row missing uid {uid}: {quota}"
    );

    let metrics = daemon.ctl_ok(&["metrics"]);
    assert!(
        metrics.contains("# TYPE guardian_device_pool_bytes gauge"),
        "not Prometheus text: {metrics}"
    );
    assert!(
        metrics.contains("guardian_device_pool_bytes{node=\"ctl-node\",device=\"0\"} 8388608"),
        "pool gauge missing: {metrics}"
    );
    assert!(
        metrics.contains("guardian_uid_transfer_bytes_total"),
        "transfer counter missing: {metrics}"
    );
    drop(lib);
}

// ---- lease set / revoke -------------------------------------------------------

/// `guardianctl lease set` changes admission terms for future connects
/// (streams=0 denies outright), and `lease revoke` of a live tenancy
/// reclaims its partition for the next tenant.
#[test]
fn lease_set_gates_admission_and_revoke_reclaims() {
    let pool = (4u64 << 20).to_string();
    let daemon = Daemon::spawn("lease", &["--pool-bytes", &pool]);
    let uid = guardian::transport::peercred::current_uid().to_string();
    daemon.ctl_ok(&["lease", "set", &uid, "streams=0"]);
    assert!(
        GrdLib::dial_uds(&daemon.socket, 1 << 20).is_err(),
        "streams=0 lease must deny admission"
    );

    // Restore admission and take the whole pool.
    daemon.ctl_ok(&["lease", "set", &uid, "streams=4"]);
    let mut held = dial(&daemon.socket, 4 << 20);
    let client = held.client_id().0.to_string();
    let ptr = held.cuda_malloc(4096).expect("malloc under lease");
    held.cuda_memcpy_h2d(ptr, &[9u8; 64]).expect("h2d");

    // Revoke it by client id; the pool's single partition comes back.
    daemon.ctl_ok(&["lease", "revoke", &client]);
    let mut next = dial(&daemon.socket, 4 << 20);
    let buf = next.cuda_malloc(4096).expect("malloc in reclaimed pool");
    next.cuda_memcpy_h2d(buf, &[3u8; 64]).expect("h2d");
    next.cuda_device_synchronize().expect("sync");
    assert_eq!(next.cuda_memcpy_d2h(buf, 64).expect("d2h"), vec![3u8; 64]);

    // The revoked tenancy is dead: its next device call fails.
    assert!(
        held.cuda_device_synchronize().is_err(),
        "revoked tenant must not keep computing"
    );
    // Revoking an unknown client is an error, not a panic.
    let (code, _) = daemon.ctl(&["lease", "revoke", "99999"]);
    assert_eq!(code, 1, "bogus revoke must fail");
    drop((held, next));
}

// ---- TTL expiry ---------------------------------------------------------------

/// A tenancy admitted under `--lease-default ttl=…` is reclaimed by the
/// manager when the TTL lapses — no operator in the loop — and its
/// memory is immediately re-allocatable. The expiry shows up in the
/// metrics exposition.
#[test]
fn ttl_expiry_reclaims_partition_without_operator() {
    let pool = (4u64 << 20).to_string();
    let daemon = Daemon::spawn(
        "ttl",
        &[
            "--pool-bytes",
            &pool,
            "--lease-default",
            "ttl=400ms",
            "--log-level",
            "info",
        ],
    );
    let mut leased = dial(&daemon.socket, 4 << 20);
    let ptr = leased.cuda_malloc(4096).expect("malloc under lease");
    leased.cuda_memcpy_h2d(ptr, &[5u8; 64]).expect("h2d");

    // No admin call from here on: the sweep alone must reclaim. The
    // control thread logs the expiry inside the same step that tears
    // the tenancy down, and serves the next connect only after it, so
    // once the line is out the pool's one partition is free again.
    daemon.await_event("event=expire");
    let mut next = dial(&daemon.socket, 4 << 20);
    let buf = next.cuda_malloc(4096).expect("malloc after expiry");
    next.cuda_memcpy_h2d(buf, &[8u8; 64]).expect("h2d");
    next.cuda_device_synchronize().expect("sync");
    assert_eq!(next.cuda_memcpy_d2h(buf, 64).expect("d2h"), vec![8u8; 64]);
    assert!(
        leased.cuda_device_synchronize().is_err(),
        "expired tenant must not keep computing"
    );

    let metrics = daemon.ctl_ok(&["metrics"]);
    let expired = metrics
        .lines()
        .find(|l| l.starts_with("guardian_leases_expired_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    assert!(expired >= 1, "expiry not accounted: {metrics}");
    drop((leased, next));
}

// ---- connect-rate admission ---------------------------------------------------

/// With `--max-connect-rate`, a reconnect storm from one uid is shed at
/// the accept loop (dropped pre-handshake, counted in metrics) while
/// the daemon keeps serving: a patient client still gets in afterwards.
#[test]
fn connect_rate_gate_sheds_reconnect_storm() {
    let pool = (32u64 << 20).to_string();
    let daemon = Daemon::spawn("rate", &["--pool-bytes", &pool, "--max-connect-rate", "1"]);
    // The daemon is listening, so any dial failure from here on is the
    // daemon talking. This first connect takes the bucket's one token.
    let mut held = vec![dial(&daemon.socket, 256 << 10)];
    // Hammer connects, holding every admitted one alive — with nothing
    // released, a failed dial can only be the rate gate (never an
    // allocator still reclaiming a just-dropped partition). At one
    // token a second the gate must shed a burst's worth long before
    // the loaded-machine deadline.
    let mut rejected = 0;
    let deadline = Instant::now() + STEP_TIMEOUT;
    while rejected < 5 {
        assert!(
            Instant::now() < deadline,
            "rate gate shed only {rejected} connects in {STEP_TIMEOUT:?} \
             ({} admitted)",
            held.len()
        );
        // 256 KiB partitions: the 32 MiB pool outlasts a worst-case
        // minute of 1/s admissions, so exhaustion is impossible here.
        match GrdLib::dial_uds(&daemon.socket, 256 << 10) {
            Ok(lib) => held.push(lib),
            Err(cuda_rt::CudaError::OutOfMemory) => {
                panic!("pool exhausted — the rate gate admitted everything")
            }
            Err(_) => rejected += 1,
        }
    }

    // The rejections are visible to operators, and the gate meters
    // rather than wedges: a client connects once a token refills.
    let metrics = daemon.ctl_ok(&["metrics"]);
    let shed = metrics
        .lines()
        .find(|l| l.starts_with("guardian_admission_rejected_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    assert!(shed >= 5, "rejections not accounted: {metrics}");
    drop(held);
    // One token period at 1 connect/s: whatever the bucket held at the
    // last shed connect, it now holds a whole token. This is the
    // gate's own refill time, not a wait for readiness.
    std::thread::sleep(Duration::from_secs(1));
    let lib = dial(&daemon.socket, 1 << 20);
    drop(lib);
}
