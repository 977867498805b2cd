//! QoS classes, end to end over real OS processes: a latency-class
//! inference tenant keeps its (generous) launch-complete SLO while 15
//! best-effort tenant processes run an unbounded launch storm against
//! the same daemon, and an operator demoting a lease re-classes the
//! live tenant without a reconnect.
//!
//! Wired as an integration test of the `guardiand` crate so
//! `CARGO_BIN_EXE_*` resolves to the daemon/tenant/ctl binaries. CI
//! runs it in release under a hard timeout.

use cuda_rt::{ArgPack, CudaApi};
use gpu_sim::LaunchConfig;
use guardian::{GrdLib, QosClass};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const DAEMON_BIN: &str = env!("CARGO_BIN_EXE_guardiand");
const TENANT_BIN: &str = env!("CARGO_BIN_EXE_grd-tenant");
const CTL_BIN: &str = env!("CARGO_BIN_EXE_guardianctl");

/// Best-effort storm processes contending with the priority tenant.
const STORM_TENANTS: usize = 15;

fn temp_sock(tag: &str) -> PathBuf {
    guardian::fixtures::temp_socket_path(&format!("qos-{tag}"))
}

/// A `guardiand` child with a tenant socket and an admin socket; killed
/// and cleaned up on drop.
struct Daemon {
    child: Child,
    socket: PathBuf,
    admin: PathBuf,
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
        }
    }

    /// Run `guardianctl` against this daemon's admin socket, asserting
    /// success.
    fn ctl_ok(&self, args: &[&str]) -> String {
        let out = Command::new(CTL_BIN)
            .arg("--socket")
            .arg(&self.admin)
            .args(args)
            .output()
            .expect("run guardianctl");
        assert_eq!(
            out.status.code(),
            Some(0),
            "guardianctl {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
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

/// A best-effort storm tenant process, killed on drop.
struct Storm(Child);

impl Drop for Storm {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_storm(socket: &PathBuf) -> Storm {
    let child = Command::new(TENANT_BIN)
        .args(["--transport", "uds"])
        .arg("--socket")
        .arg(socket)
        .args(["--mem", "1048576"])
        .args(["--workload", "storm"])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn grd-tenant storm");
    Storm(child)
}

/// Dial the daemon's tenant socket with a QoS request.
fn dial_qos(socket: &PathBuf, mem: u64, qos: QosClass) -> GrdLib {
    GrdLib::dial_uds_qos(socket, mem, qos)
        .unwrap_or_else(|e| panic!("could not connect to daemon: {e}"))
}

/// Parse the value of the first metrics line starting with `name`.
fn metric(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
        .unwrap_or(0)
}

// ---- SLO under a best-effort storm -------------------------------------------

/// One latency-class inference tenant against 15 best-effort storm
/// processes: every inference round (launch + sync) completes inside a
/// generous SLO because the executor rate-gates the storm's drain
/// rounds (visible in `guardian_qos_gated_rounds_total`), and the
/// tenants table reports both classes.
#[test]
fn priority_tenant_meets_slo_under_best_effort_storm() {
    let pool = (32u64 << 20).to_string();
    // Deferred launch acks let the storm pipeline its launches — the
    // regime where an ungated backlog actually buries the device — and
    // kernel slicing lets the latency stream preempt mid-kernel.
    let daemon = Daemon::spawn(
        "slo",
        &[
            "--pool-bytes",
            &pool,
            "--deferred",
            "--qos-budget",
            "8",
            "--slice-cycles",
            "2000",
        ],
    );

    // The priority tenant connects first, then the storm fills in
    // around it.
    let mut prio = dial_qos(&daemon.socket, 1 << 20, QosClass::Latency);
    assert_eq!(prio.qos(), QosClass::Latency, "latency grant refused");
    prio.register_fatbin(&guardiand::tenant_fatbin())
        .expect("register");
    let buf = prio.cuda_malloc(4 * 64).expect("malloc");
    let args = ArgPack::new().ptr(buf).u32(64).finish();

    let storms: Vec<Storm> = (0..STORM_TENANTS)
        .map(|_| spawn_storm(&daemon.socket))
        .collect();
    // Let the storm actually build up before measuring.
    std::thread::sleep(Duration::from_millis(300));

    // Inference rounds: launch + sync, paced like a serving loop. The
    // SLO is deliberately generous (this is CI, not a latency rig) —
    // without gating, a 15-tenant storm backlog stalls a device-wide
    // sync for far longer than this.
    let rounds = 40;
    let mut worst = Duration::ZERO;
    for _ in 0..rounds {
        let t0 = Instant::now();
        prio.cuda_launch_kernel(
            "fill",
            LaunchConfig::linear(2, 32),
            &args,
            Default::default(),
        )
        .expect("priority launch");
        prio.cuda_device_synchronize().expect("priority sync");
        worst = worst.max(t0.elapsed());
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        worst < Duration::from_secs(5),
        "priority tenant broke its SLO: worst round {worst:?}"
    );

    // The gate actually fired, and both classes are visible to the
    // operator.
    let metrics = daemon.ctl_ok(&["metrics"]);
    assert!(
        metric(&metrics, "guardian_qos_gated_rounds_total") > 0,
        "storm was never rate-gated: {metrics}"
    );
    assert!(
        metric(&metrics, "guardian_qos_tenants{node=") > 0
            || metrics.contains("guardian_qos_tenants"),
        "qos tenant gauge missing: {metrics}"
    );
    let tenants = daemon.ctl_ok(&["tenants"]);
    assert!(
        tenants.contains("latency"),
        "no latency row in tenants table: {tenants}"
    );
    assert!(
        tenants.contains("besteffort"),
        "no besteffort row in tenants table: {tenants}"
    );

    // The storm never died under the gate (rate-limited, not starved).
    for mut s in storms {
        assert!(
            s.0.try_wait().expect("try_wait").is_none(),
            "a storm tenant exited during the run"
        );
    }
    drop(prio);
}

// ---- live demotion via lease override ----------------------------------------

/// `guardianctl lease set UID qos=besteffort` demotes a live
/// latency-class tenant in place: the tenants table re-classes it, the
/// tenant observes the demotion on refresh (no reconnect), and future
/// latency requests from that uid are clamped to best-effort.
#[test]
fn lease_demotion_reclasses_live_tenant() {
    let pool = (8u64 << 20).to_string();
    let daemon = Daemon::spawn("demote", &["--pool-bytes", &pool]);
    let mut lib = dial_qos(&daemon.socket, 1 << 20, QosClass::Latency);
    assert_eq!(lib.qos(), QosClass::Latency);
    let uid = guardian::transport::peercred::current_uid().to_string();

    let tenants = daemon.ctl_ok(&["tenants"]);
    assert!(tenants.contains("latency"), "grant not visible: {tenants}");

    daemon.ctl_ok(&["lease", "set", &uid, "qos=besteffort"]);
    let tenants = daemon.ctl_ok(&["tenants"]);
    assert!(
        tenants.contains("besteffort") && !tenants.contains("latency"),
        "live tenant not demoted: {tenants}"
    );
    // The tenant sees it too, on its next binding refresh — the
    // session was never torn down.
    lib.refresh().expect("refresh over live session");
    assert_eq!(
        lib.qos(),
        QosClass::BestEffort,
        "demotion invisible to tenant"
    );
    lib.cuda_device_synchronize()
        .expect("demoted tenant must keep computing");

    // The lowered ceiling clamps future grants for this uid.
    let lib2 = dial_qos(&daemon.socket, 1 << 20, QosClass::Latency);
    assert_eq!(
        lib2.qos(),
        QosClass::BestEffort,
        "ceiling did not clamp a new latency request"
    );
    drop((lib, lib2));
}
