//! One run of one workload: rounds of arms until `--seconds` is spent,
//! output verification after every round, and the metrics of the pass
//! that was asked for.
//!
//! `--trace 0` measures the end-to-end metrics and nothing else: every
//! round is a Guardian arm and a native arm, both untraced. `--trace 1`
//! is the separate pass for everything per-layer: every round adds a
//! traced Guardian arm, a traced native arm and an unfenced Guardian arm
//! (`--protection none`), then the layer pass runs once.

use crate::harness::{run_arm, Arm, ArmFailure, ArmResult};
use crate::layers;
use crate::metrics::Values;
use crate::stats::{median, percentile_or_lower};
use crate::surface::Wire;
use crate::traced::{chrome_events, Class};
use crate::workloads::{Inputs, Workload};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    pub daemon_bin: PathBuf,
}

pub struct RunOutcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// What went wrong, one line each; empty on a correct run.
    pub problems: Vec<String>,
    /// An arm's thread is still blocked: exit without waiting for it.
    pub stuck: bool,
}

/// Rounds a run makes even when `--seconds` is already spent: a median
/// needs three samples, and set-up is measured once per round.
const MIN_ROUNDS: usize = 3;
const MIN_ROUNDS_TRACED: usize = 2;
/// Rounds that start this soon after the run began are run and verified
/// but not measured. Right after the build and process start the guest
/// scheduler still keeps a tenant and the daemon worker that serves it on
/// one CPU, where a blocking round trip is a context switch (≈6 µs on the
/// reference box); within ≈3 s it spreads them over both CPUs and the same
/// round trip crosses CPUs (≈40 µs) for the rest of the run. `memcpy_mix`
/// is 40 % faster in the first state; the others do not notice.
const WARMUP: Duration = Duration::from_secs(5);

/// The arms of one round, in the order they ran.
struct Round {
    guardian: ArmResult,
    native: ArmResult,
    traced: Option<TracedArms>,
}

struct TracedArms {
    guardian: ArmResult,
    native: ArmResult,
    unfenced: ArmResult,
    /// The storm's second phase, over shm.
    shm: Option<ArmResult>,
}

impl Round {
    /// Every arm but the untraced native one, which is their reference.
    fn checked_against_native(&self) -> impl Iterator<Item = &ArmResult> {
        let traced = self.traced.iter().flat_map(|t| {
            [&t.guardian, &t.native, &t.unfenced]
                .into_iter()
                .chain(&t.shm)
        });
        std::iter::once(&self.guardian).chain(traced)
    }
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn problem(&mut self, failed: u64, what: String) {
        self.failed += failed;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Count an arm's operations; report the ones that failed.
    fn arm(&mut self, r: &ArmResult) {
        let (attempted, failed) = r.attempted_failed();
        self.attempted += attempted;
        if failed > 0 {
            let errors: Vec<&str> = r
                .tenants
                .iter()
                .filter_map(|t| t.error.as_deref())
                .collect();
            self.problem(
                failed,
                format!("{}: {failed} operations failed {errors:?}", r.arm.name()),
            );
        }
    }

    /// `r`'s outputs must equal the native arm's, tenant by tenant.
    fn compare(&mut self, r: &ArmResult, reference: &ArmResult) {
        for (i, (t, n)) in r.tenants.iter().zip(&reference.tenants).enumerate() {
            self.attempted += t.fingerprint.checks(&n.fingerprint);
            let bad = t.fingerprint.mismatches(&n.fingerprint);
            if bad > 0 {
                self.problem(
                    bad,
                    format!(
                        "{} tenant {i}: {bad} outputs differ from the native arm",
                        r.arm.name()
                    ),
                );
            }
        }
    }
}

/// One round: the end-to-end arms, and with `traced` the traced pass's.
fn run_round(cfg: &RunConfig, inputs: &Arc<Inputs>, traced: bool) -> Result<Round, ArmFailure> {
    let w = cfg.workload;
    let arm = |arm, trace| run_arm(arm, w, inputs, trace, &cfg.daemon_bin);
    let guardian = |wire, fenced| arm(Arm::Guardian { wire, fenced }, false);
    Ok(Round {
        guardian: arm(Arm::GUARDIAN, false)?,
        native: arm(Arm::Native, false)?,
        traced: if traced {
            Some(TracedArms {
                guardian: arm(Arm::GUARDIAN, true)?,
                native: arm(Arm::Native, true)?,
                unfenced: guardian(Wire::Uds, false)?,
                shm: if w == Workload::LaunchStorm {
                    Some(guardian(Wire::Shm, true)?)
                } else {
                    None
                },
            })
        } else {
            None
        },
    })
}

pub fn run(cfg: &RunConfig) -> RunOutcome {
    let w = cfg.workload;
    let inputs = Arc::new(Inputs::new(w, cfg.seed, cfg.quick));
    let budget = Duration::from_secs(cfg.seconds);
    let min_rounds = match (cfg.quick, cfg.trace) {
        (true, _) => 1,
        (false, false) => MIN_ROUNDS,
        (false, true) => MIN_ROUNDS_TRACED,
    };

    let started = Instant::now();
    let mut tally = Tally::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut failure: Option<ArmFailure> = None;
    loop {
        let warming_up = !cfg.quick && started.elapsed() < WARMUP;
        let spent = cfg.quick || started.elapsed() >= budget;
        if !warming_up && rounds.len() >= min_rounds && spent {
            break;
        }
        match run_round(cfg, &inputs, cfg.trace && !warming_up) {
            Ok(round) => {
                eprintln!(
                    "grdbench: {} {}: guardian {} native {}",
                    w.name(),
                    if warming_up {
                        "warm-up".to_string()
                    } else {
                        format!("round {}", rounds.len() + 1)
                    },
                    describe(&round.guardian),
                    describe(&round.native)
                );
                // Warm-up rounds are verified like any other.
                tally.arm(&round.native);
                for r in round.checked_against_native() {
                    tally.arm(r);
                    tally.compare(r, &round.native);
                }
                if tally.failed > 0 {
                    // Timings of a round with failed operations mean
                    // nothing, and neither would any that followed.
                    break;
                }
                if !warming_up {
                    rounds.push(round);
                }
            }
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }

    let mut stuck = false;
    if let Some(e) = failure {
        // An arm without a result failed everything it was going to do.
        stuck = matches!(e, ArmFailure::Timeout { stuck: true });
        tally.attempted += 1;
        tally.problem(1, format!("after {} measured rounds: {e}", rounds.len()));
        tally.failed = tally.failed.max(tally.attempted);
    }

    let mut values = Values::default();
    if !rounds.is_empty() {
        end_to_end(&rounds, &mut values);
        if cfg.trace {
            traced_pass(&rounds, &tally, &mut values);
            write_trace(w, &rounds);
            match layers::run(&cfg.daemon_bin, cfg.quick) {
                Ok(layer_values) => {
                    for (name, v) in layer_values {
                        values.set(name, v);
                    }
                }
                Err(e) => {
                    tally.attempted += 1;
                    tally.problem(1, format!("layer pass: {e}"));
                }
            }
        }
    }
    RunOutcome {
        values,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        problems: tally.problems,
        stuck,
    }
}

/// An arm's makespan and, behind it, each tenant's own wall time.
fn describe(r: &ArmResult) -> String {
    let tenants: Vec<String> = r
        .tenants
        .iter()
        .map(|t| format!("{:.3}", t.wall_s()))
        .collect();
    format!("{:.3} s [{}]", r.makespan_s(), tenants.join(" "))
}

fn med(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(rounds: &[Round], v: &mut Values) {
    v.set("wall_s", med(rounds, |r| r.guardian.makespan_s()));
    v.set("native_wall_s", med(rounds, |r| r.native.makespan_s()));
    // Paired within a round, so drift of the machine between rounds
    // cancels; the median then drops a round either arm lost to noise.
    v.set(
        "overhead_x",
        med(rounds, |r| r.guardian.makespan_s() / r.native.makespan_s()),
    );
    v.set("setup_s", med(rounds, |r| r.guardian.setup_s));
    v.set("daemon_rss_mib", med(rounds, |r| r.guardian.daemon_rss_mib));
}

/// Every sample named `name`, over all rounds and tenants of the
/// untraced Guardian arm.
fn samples(rounds: &[Round], name: &str) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| &r.guardian.tenants)
        .filter_map(|t| t.output.samples.get(name))
        .flatten()
        .copied()
        .collect()
}

fn sum(r: &ArmResult, name: &str) -> f64 {
    r.tenants
        .iter()
        .filter_map(|t| t.output.sums.get(name))
        .sum()
}

fn traced_pass(rounds: &[Round], tally: &Tally, v: &mut Values) {
    fn traced(r: &Round) -> &TracedArms {
        r.traced.as_ref().expect("traced round")
    }
    let tmed = |f: &dyn Fn(&TracedArms) -> f64| med(rounds, |r| f(traced(r)));
    let secs = |ns: u64| ns as f64 / 1e9;

    for class in Class::ALL {
        let c = class.name();
        v.set(
            format!("grdlib.{c}.calls"),
            tmed(&|t| t.guardian.class(class).run_calls as f64),
        );
        v.set(
            format!("grdlib.{c}.busy_s"),
            tmed(&|t| secs(t.guardian.class(class).busy_ns)),
        );
        v.set(
            format!("native.{c}.calls"),
            tmed(&|t| t.native.class(class).run_calls as f64),
        );
        v.set(
            format!("native.{c}.busy_s"),
            tmed(&|t| secs(t.native.class(class).busy_ns)),
        );
    }
    // Per tenant, wall = self + busy by construction; summed over tenants.
    let wall_sum = |r: &ArmResult| r.tenants.iter().map(|t| t.wall_s()).sum::<f64>();
    let self_s = |r: &ArmResult| wall_sum(r) - r.tenants.iter().map(|t| t.busy_s()).sum::<f64>();
    v.set("app.self_s", tmed(&|t| self_s(&t.guardian)));
    v.set("native.app.self_s", tmed(&|t| self_s(&t.native)));
    v.set(
        "grdlib.h2d.bytes",
        tmed(&|t| t.guardian.class(Class::H2d).bytes as f64),
    );
    v.set(
        "grdlib.d2h.bytes",
        tmed(&|t| t.guardian.class(Class::D2h).bytes as f64),
    );
    v.set("guardiand.cpu_s", tmed(&|t| t.guardian.daemon_cpu_s));
    v.set("client.cpu_s", tmed(&|t| t.guardian.client_cpu_s));
    v.set(
        "gpu_sim.instructions",
        tmed(&|t| t.native.instructions as f64),
    );
    // Interpretation happens inside whichever native call drains the
    // device queue, so the denominator is all time inside the runtime.
    v.set(
        "gpu_sim.interp_minstr_per_s",
        tmed(&|t| {
            let busy: f64 = t.native.tenants.iter().map(|t| t.busy_s()).sum();
            t.native.instructions as f64 / 1e6 / busy
        }),
    );
    v.set(
        "gpu_sim.sim_cycles.guardian",
        med(rounds, |r| r.guardian.sim_cycles() as f64),
    );
    v.set(
        "gpu_sim.sim_cycles.native",
        med(rounds, |r| r.native.sim_cycles() as f64),
    );
    v.set(
        "sim_overhead_x",
        med(rounds, |r| {
            r.guardian.sim_cycles() as f64 / r.native.sim_cycles() as f64
        }),
    );
    v.set(
        "stack_overhead_x",
        med(rounds, |r| {
            traced(r).unfenced.makespan_s() / r.native.makespan_s()
        }),
    );
    v.set(
        "fence_overhead_x",
        med(rounds, |r| {
            r.guardian.makespan_s() / traced(r).unfenced.makespan_s()
        }),
    );
    // Reconciliation: the traced arms' overhead, the per-class deltas
    // above, and what no call span accounts for (the difference in time
    // the application spent outside the API, e.g. descheduled).
    let overhead_s = tmed(&|t| wall_sum(&t.guardian) - wall_sum(&t.native));
    let class_deltas: f64 = Class::ALL
        .iter()
        .map(|c| {
            let c = c.name();
            v.get(&format!("grdlib.{c}.busy_s")).unwrap_or(0.0)
                - v.get(&format!("native.{c}.busy_s")).unwrap_or(0.0)
        })
        .sum();
    v.set("traced.overhead_s", overhead_s);
    v.set("unattributed_s", overhead_s - class_deltas);
    v.set(
        "bench.trace_overhead_x",
        med(rounds, |r| {
            traced(r).guardian.makespan_s() / r.guardian.makespan_s()
        }),
    );
    v.set("bench.rounds", rounds.len() as f64);

    // The workload's own tenant-side numbers, from untraced arms.
    let launches_per_s = |r: &ArmResult| r.class(Class::Launch).run_calls as f64 / r.makespan_s();
    v.set(
        "launches_per_s",
        med(rounds, |r| launches_per_s(&r.guardian)),
    );
    v.set(
        "launches_per_s_shm",
        tmed(&|t| t.shm.as_ref().map_or(0.0, launches_per_s)),
    );
    for (name, tail) in [
        ("batch_sync_us", Some(0.99)),
        ("rtt_us", Some(0.99)),
        ("alloc_free_us", None),
    ] {
        let s = samples(rounds, name);
        v.set(format!("{name}_p50"), median(&s));
        if let Some(p) = tail {
            let (x, used) = percentile_or_lower(&s, p);
            if !s.is_empty() && used < p {
                eprintln!(
                    "grdbench: {name}: {} samples are too few for p{:.0}; reporting p{:.0} under its name",
                    s.len(),
                    p * 100.0,
                    used * 100.0
                );
            }
            v.set(format!("{name}_p99"), x);
        }
        v.set(format!("{name}.samples"), s.len() as f64);
    }
    let mbps = |bytes: &str, s: &str| {
        med(rounds, |r| {
            let secs = sum(&r.guardian, s);
            if secs > 0.0 {
                sum(&r.guardian, bytes) / 1e6 / secs
            } else {
                0.0
            }
        })
    };
    v.set("h2d_MBps", mbps("h2d_bytes", "h2d_s"));
    v.set("d2h_MBps", mbps("d2h_bytes", "d2h_s"));
    v.set(
        "fail_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
}

/// Write the last round's traced arms as one chrome-trace file.
fn write_trace(w: Workload, rounds: &[Round]) {
    let Some(t) = rounds.last().and_then(|r| r.traced.as_ref()) else {
        return;
    };
    let mut events = String::new();
    let mut dropped = 0;
    for (pid, r) in [(1, &t.guardian), (2, &t.native)] {
        for (i, tenant) in r.tenants.iter().enumerate() {
            chrome_events(&mut events, r.arm.name(), pid, i, &tenant.spans);
            dropped += tenant.dropped_spans;
        }
    }
    let path = format!("trace-{}.json", w.name());
    let head = format!(
        "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{}\",\
         \"dropped_spans\":{dropped}}},\"traceEvents\":[\n",
        w.name()
    );
    let written = std::fs::File::create(&path).and_then(|mut f| {
        use std::io::Write;
        f.write_all(head.as_bytes())?;
        f.write_all(events.as_bytes())?;
        f.write_all(b"\n]}\n")
    });
    match written {
        Ok(()) => eprintln!("grdbench: wrote {path} ({dropped} spans beyond the buffer dropped)"),
        Err(e) => eprintln!("grdbench: cannot write {path}: {e}"),
    }
}
