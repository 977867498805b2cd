//! One benchmark arm: set the tenants up (against a fresh `guardiand`
//! child, or on an in-process native device), run the workload's timed
//! section on one thread per tenant, read the outputs back.
//!
//! An arm runs on its own thread under a hard timeout, so a deadlock in
//! the system under test ends as a failed arm, not a hung benchmark.

use crate::daemon::{self, Daemon};
use crate::surface::{self, CudaApi, CudaResult, NativeHost, Wire};
use crate::traced::{Class, ClassTotals, Phase, Span, Traced};
use crate::verify::Fingerprint;
use crate::workloads::{self, Inputs, TenantOutput, Workload};
use std::path::Path;
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

/// Hard limit on one arm, set-up to read-back. A healthy arm takes a few
/// seconds; past this the daemon is killed and the arm counts as failed.
const ARM_TIMEOUT: Duration = Duration::from_secs(60);
/// After the daemon is killed its clients see a disconnect and return;
/// how long to wait for that before giving the arm's thread up.
const KILL_GRACE: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Through a live `guardiand`; `fenced = false` is `--protection none`.
    Guardian { wire: Wire, fenced: bool },
    /// The same job on in-process `NativeRuntime`s.
    Native,
}

impl Arm {
    pub const GUARDIAN: Arm = Arm::Guardian {
        wire: Wire::Uds,
        fenced: true,
    };

    pub fn name(self) -> &'static str {
        match self {
            Arm::Guardian { fenced: false, .. } => "guardian-unfenced",
            Arm::Guardian {
                wire: Wire::Shm, ..
            } => "guardian-shm",
            Arm::Guardian { .. } => "guardian",
            Arm::Native => "native",
        }
    }
}

/// What one tenant of one arm did.
pub struct TenantResult {
    pub run_start: Instant,
    pub run_end: Instant,
    pub output: TenantOutput,
    /// Error that ended the timed section or the read-back early.
    pub error: Option<String>,
    pub fingerprint: Fingerprint,
    pub totals: [ClassTotals; 7],
    pub calls: u64,
    pub errors: u64,
    /// Device time that passed during the timed section, simulated cycles.
    pub sim_cycles: u64,
    pub spans: Vec<Span>,
    pub dropped_spans: u64,
}

impl TenantResult {
    pub fn wall_s(&self) -> f64 {
        (self.run_end - self.run_start).as_secs_f64()
    }

    /// Time inside API calls during the timed section (traced arms only).
    pub fn busy_s(&self) -> f64 {
        self.totals.iter().map(|t| t.busy_ns).sum::<u64>() as f64 / 1e9
    }
}

pub struct ArmResult {
    pub arm: Arm,
    pub tenants: Vec<TenantResult>,
    /// Daemon spawn to every tenant ready for its first timed operation
    /// (Guardian arms; for the native arm, from arm start).
    pub setup_s: f64,
    /// Peak resident set of the daemon, MiB (Guardian arms).
    pub daemon_rss_mib: f64,
    /// CPU seconds the daemon and this process used during the timed
    /// section and read-back.
    pub daemon_cpu_s: f64,
    pub client_cpu_s: f64,
    /// Dynamic instructions interpreted (native arm).
    pub instructions: u64,
}

impl ArmResult {
    /// First tenant start to last tenant end.
    pub fn makespan_s(&self) -> f64 {
        let start = self.tenants.iter().map(|t| t.run_start).min();
        let end = self.tenants.iter().map(|t| t.run_end).max();
        match (start, end) {
            (Some(s), Some(e)) => (e - s).as_secs_f64(),
            _ => 0.0,
        }
    }

    pub fn class(&self, class: Class) -> ClassTotals {
        let mut sum = ClassTotals::default();
        for t in &self.tenants {
            let c = t.totals[class as usize];
            sum.calls += c.calls;
            sum.errors += c.errors;
            sum.busy_ns += c.busy_ns;
            sum.bytes += c.bytes;
            sum.run_calls += c.run_calls;
        }
        sum
    }

    pub fn sim_cycles(&self) -> u64 {
        self.tenants.iter().map(|t| t.sim_cycles).max().unwrap_or(0)
    }

    /// Operations attempted (API calls plus the jobs' own checks) and how
    /// many of them failed.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let mut attempted = 0;
        let mut failed = 0;
        for t in &self.tenants {
            attempted += t.calls + t.output.checks;
            failed += t.errors + t.output.failed;
            // A job that stopped early failed whatever it had left to do;
            // its failing call is already in `errors`.
            if t.error.is_some() && t.errors == 0 {
                failed += 1;
            }
        }
        (attempted, failed)
    }
}

/// Why an arm produced no result.
#[derive(Debug)]
pub enum ArmFailure {
    /// The daemon could not be brought up, or set-up failed.
    Setup(String),
    /// The arm did not finish within [`ARM_TIMEOUT`]. `stuck` means its
    /// thread is still blocked and the process must exit without it.
    Timeout { stuck: bool },
    /// The arm's thread panicked.
    Panicked,
}

impl std::fmt::Display for ArmFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArmFailure::Setup(e) => write!(f, "set-up failed: {e}"),
            ArmFailure::Timeout { stuck } => write!(
                f,
                "no result within {ARM_TIMEOUT:?}{}",
                if *stuck {
                    " (thread still blocked)"
                } else {
                    ""
                }
            ),
            ArmFailure::Panicked => f.write_str("arm thread panicked"),
        }
    }
}

/// Run one arm of `w`.
///
/// # Errors
///
/// [`ArmFailure`] when there is no result to report; failures of single
/// operations are inside the result.
pub fn run_arm(
    arm: Arm,
    w: Workload,
    inputs: &Arc<Inputs>,
    trace: bool,
    daemon_bin: &Path,
) -> Result<ArmResult, ArmFailure> {
    let mut daemon = match arm {
        Arm::Guardian { wire, fenced } => {
            Some(Daemon::spawn(daemon_bin, wire, fenced).map_err(ArmFailure::Setup)?)
        }
        Arm::Native => None,
    };
    let started = daemon.as_ref().map_or_else(Instant::now, Daemon::spawned);
    let socket = daemon.as_ref().map(|d| d.socket().to_path_buf());
    let (daemon_cpu_before, client_cpu_before) = (
        daemon.as_ref().map_or(0.0, Daemon::cpu_s),
        daemon::cpu_s_of("self"),
    );

    let (tx, rx) = mpsc::channel();
    let inputs = Arc::clone(inputs);
    let thread = std::thread::spawn(move || {
        let r = match (arm, &socket) {
            (Arm::Guardian { wire, .. }, Some(socket)) => {
                let dial = || surface::dial(wire, socket, w.partition_bytes());
                arm_body(w, &inputs, trace, started, dial).map(|(s, t)| (s, t, 0))
            }
            _ => {
                let host = NativeHost::new(w.tenants() > 1);
                arm_body(w, &inputs, trace, started, || host.runtime())
                    .map(|(s, t)| (s, t, host.instructions()))
            }
        };
        let _ = tx.send(r);
    });

    let body = match rx.recv_timeout(ARM_TIMEOUT) {
        Ok(body) => body,
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let _ = thread.join();
            return Err(ArmFailure::Panicked);
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // Killing the daemon disconnects its clients, which unblocks
            // a Guardian arm; a native arm has nothing to kill.
            if let Some(d) = &mut daemon {
                d.kill();
            }
            let stuck = rx.recv_timeout(KILL_GRACE).is_err();
            if !stuck {
                let _ = thread.join();
            }
            return Err(ArmFailure::Timeout { stuck });
        }
    };
    let _ = thread.join();
    let (setup_s, tenants, instructions) = body.map_err(ArmFailure::Setup)?;

    let mut result = ArmResult {
        arm,
        tenants,
        setup_s,
        daemon_rss_mib: 0.0,
        daemon_cpu_s: 0.0,
        client_cpu_s: daemon::cpu_s_of("self") - client_cpu_before,
        instructions,
    };
    if let Some(d) = &mut daemon {
        if !d.alive() {
            return Err(ArmFailure::Setup(
                "guardiand exited before the arm ended".into(),
            ));
        }
        result.daemon_rss_mib = d.rss_hwm_mib();
        result.daemon_cpu_s = d.cpu_s() - daemon_cpu_before;
    }
    Ok(result)
}

/// Set-up time and every tenant's result.
type ArmBody = Result<(f64, Vec<TenantResult>), String>;
type Prepared<A> = (Traced<A>, Option<surface::DevicePtr>);

/// Connect the tenants one after another (so the second registration of
/// a fatbin is always the deduplicated one), set each up, then run them.
fn arm_body<A: CudaApi>(
    w: Workload,
    inputs: &Inputs,
    trace: bool,
    started: Instant,
    connect: impl Fn() -> CudaResult<A>,
) -> ArmBody {
    let mut tenants: Vec<Prepared<A>> = Vec::new();
    for i in 0..w.tenants() {
        let fail = |what: &str, e: &dyn std::fmt::Display| format!("tenant {i}: {what}: {e}");
        let mut api = Traced::new(connect().map_err(|e| fail("connect", &e))?, trace);
        for fb in &inputs.fatbins {
            api.register_fatbin(fb).map_err(|e| fail("register", &e))?;
        }
        let prepared = workloads::prepare(w, inputs, &mut api).map_err(|e| fail("prepare", &e))?;
        tenants.push((api, prepared));
    }
    let setup_s = started.elapsed().as_secs_f64();
    Ok((setup_s, run_tenants(w, inputs, tenants)))
}

/// Run every tenant's timed section — one thread per tenant, released
/// together — then its read-back.
fn run_tenants<A: CudaApi>(
    w: Workload,
    inputs: &Inputs,
    tenants: Vec<Prepared<A>>,
) -> Vec<TenantResult> {
    let gate = Barrier::new(tenants.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = tenants
            .into_iter()
            .enumerate()
            .map(|(i, (api, prepared))| {
                let gate = &gate;
                s.spawn(move || run_tenant(w, inputs, i, api, prepared, gate))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    })
}

fn run_tenant<A: CudaApi>(
    w: Workload,
    inputs: &Inputs,
    tenant: usize,
    mut api: Traced<A>,
    prepared: Option<surface::DevicePtr>,
    gate: &Barrier,
) -> TenantResult {
    let mut output = TenantOutput::default();
    let cycles_before = api.device_now_cycles();
    gate.wait();
    api.enter(Phase::Run);
    let run_start = Instant::now();
    let ran = workloads::run(w, inputs, tenant, prepared, &mut api, &mut output);
    let run_end = Instant::now();
    api.enter(Phase::Verify);

    // Device time first: the read-back below moves the device clock too.
    let read_back = |api: &mut Traced<A>, reported| -> CudaResult<(Fingerprint, u64)> {
        let cycles = api.device_now_cycles().saturating_sub(cycles_before);
        let live = api.live().to_vec();
        Ok((Fingerprint::take(api, &live, reported)?, cycles))
    };
    let reported = std::mem::take(&mut output.reported);
    let (fingerprint, sim_cycles, error) = match (ran, read_back(&mut api, reported)) {
        (Ok(()), Ok((fp, cycles))) => (fp, cycles, None),
        (Err(e), _) => (Fingerprint::default(), 0, Some(format!("run: {e}"))),
        (Ok(()), Err(e)) => (Fingerprint::default(), 0, Some(format!("read-back: {e}"))),
    };

    let totals = Class::ALL.map(|c| api.totals(c));
    let (calls, errors) = (api.calls(), api.errors());
    let (spans, dropped_spans) = api.finish();
    TenantResult {
        run_start,
        run_end,
        output,
        error,
        fingerprint,
        totals,
        calls,
        errors,
        sim_cycles,
        spans,
        dropped_spans,
    }
}
