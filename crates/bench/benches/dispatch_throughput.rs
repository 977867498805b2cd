//! Dispatch throughput: launches/sec vs tenant count, across launch
//! acks, transports, device sets and tenant scale.
//!
//! The split dispatch core executes data-plane operations concurrently
//! across tenants. This bench measures its rate and emits
//! `BENCH_dispatch.json` so CI can track dispatch regressions.
//!
//! Sweeps:
//!
//! * **launch acks** (in-process channel transport):
//!   - `concurrent`  — eager acks: a launch returns once enqueued;
//!   - `concurrent+deferred` — one-way launch frames
//!     ([`LaunchAck::Deferred`]): true async enqueue, errors surface at
//!     sync.
//!
//! * **transports** (deferred launches, the transport-bound hot path):
//!   `channel` vs `uds` vs `shm`. Tenant threads stay in-process but
//!   every frame genuinely crosses the socket / ring, so this isolates
//!   per-frame transport cost. The shm ring must beat the uds socket on
//!   this one-way path — that's its reason to exist — and the bench
//!   hard-fails if it stops doing so.
//!
//! * **device sets** (deferred launches, 8 tenants, channel transport):
//!   `gpus ∈ {1, 2, 4}` under least-loaded routing. Tenants on distinct
//!   GPUs share no device lock, no turnstile, no fault cursor — so the
//!   aggregate deferred-launch rate must *scale*: the bench hard-fails
//!   if 2 GPUs fall measurably behind 1 GPU at 8 tenants.
//!
//! * **tenant scale** (deferred launches, uds transport): 64–256
//!   tenants on the event-pool executor — hundreds of mostly-idle
//!   sessions multiplexed onto ~cores pollers. The bench hard-fails if
//!   the 256-tenant rate falls off a cliff against the 64-tenant rate.
//!
//! * **control-plane hooks** (deferred launches, 64 tenants, uds): the
//!   64-tenant event-pool point re-measured with the node control plane
//!   fully engaged — a default lease on every admit, the per-uid
//!   connect-rate gate in the accept loop, and usage counters ticking on
//!   the drain path. Leases are bookkeeping, not a second data plane, so
//!   the bench hard-fails if the hooks tax deferred throughput by more
//!   than the shared 3% noise floor.
//!
//! * **telemetry overhead** (deferred launches, 64 tenants, uds): the
//!   same point A/B'd with per-tenant telemetry (latency histograms +
//!   flight recorder, the default) against telemetry off. Recording is
//!   a clock read and a relaxed bucket increment per stage, so the
//!   bench hard-fails if the on arm falls below the shared noise floor.
//!
//! Telemetry-on rows also report per-tenant launch-enqueue latency
//! quantiles (p50/p95/p99, merged across tenants) pulled from the
//! control plane's histograms into `BENCH_dispatch.json`.

use bench::stress_fatbin;
use cuda_rt::{share_device, ArgPack, CudaApi};
use gpu_sim::spec::test_gpu;
use gpu_sim::LaunchConfig;
use guardian::telemetry::{HistSnapshot, OpClass};
use guardian::transport::UidPolicy;
use guardian::{
    spawn_manager_multi, Admission, BoundTransport, GrdLib, LaunchAck, LeaseSpec, ManagerConfig,
    QosClass,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calibrated so each transport-sweep row runs long enough that the
/// pairwise rate gates below sit above scheduler noise — the hot-path
/// work (zero-copy frames, batched enqueue, the device engine's ready
/// queue) tripled absolute throughput, which shrank the rows measured
/// at the old count into the noise floor.
const LAUNCHES_PER_TENANT: usize = 2000;
const TENANT_COUNTS: [usize; 4] = [1, 2, 4, 8];
const GPU_COUNTS: [usize; 3] = [1, 2, 4];
/// Tenant count for the multi-GPU scaling sweep (and its CI gate).
const GPU_SWEEP_TENANTS: usize = 8;
/// Tenant counts for the tenant-scale sweep. Fewer launches
/// per tenant than the main sweeps: the point is many concurrent mostly
/// idle sessions, not per-session depth — and 256 × 1000 would dominate
/// the bench's wall clock.
const SCALE_TENANT_COUNTS: [usize; 3] = [64, 128, 256];
const SCALE_LAUNCHES: usize = 500;
/// Base tenant count of the 256-tenant cliff gate — also where the
/// control-plane-hooks and telemetry gates run (the accept loop and
/// drain path are busiest there, so hook cost is least hideable).
const SCALE_GATE_TENANTS: usize = 64;
/// Noise floor for rate-vs-rate CI gates: "A must keep pace with B"
/// flips on sub-permille scheduler noise when asserted strictly, so a
/// measured-equal pair passes and only a real regression (>3%) fails.
const GATE_NOISE_FLOOR: f64 = 0.97;
/// Floor for the event pool's 256-tenant rate against its own 64-tenant
/// rate. The cliff this guards against was 7× (2.6k vs 18.2k
/// launches/s); a healthy pool measures ≈ 0.97. Half is far outside
/// scheduler noise and far inside the cliff.
const CLIFF_FLOOR: f64 = 0.5;
/// Wider floor for the 2-vs-1 GPU gate. Historically 2 GPUs measured
/// 1.3–1.4x because eight tenants convoyed on the single device lock
/// and a second device relieved it; batched enqueue (one lock
/// acquisition per ≤64-launch batch) removed that contention, so the
/// expected ratio is parity — and on a single-core runner, where the
/// whole bench is host-CPU-bound, a second simulated device buys
/// nothing while costing a second context's cache footprint. The gate
/// still catches what it exists for: a global lock sneaking back into
/// the data plane costs tens of percent, far below this floor.
const GPU_GATE_FLOOR: f64 = 0.90;
/// Background training tenants in the QoS scenario sweep.
const QOS_STORM_TENANTS: usize = 8;
/// Paced inference rounds (launch + sync, client-side timed) per
/// scenario arm.
const QOS_PRIO_ROUNDS: usize = 200;
/// Kernel-slice preemption grain for the scenario arms — on in *both*
/// arms so the gates isolate the dispatch policy, not the slicer.
const QOS_SLICE_CYCLES: u64 = 2_000;
/// Best-effort inflight-launch budget in the QoS-on arms: the largest
/// unit of storm work a priority sync can end up waiting behind (the
/// admission throttle drains the storm's own stream at the budget, as
/// one atomic device pass).
const QOS_BUDGET: u64 = 4;
/// Deferred launches per storm burst — exactly the client library's
/// one-way flush threshold, so each burst hits the wire (and the
/// device queue) as a single clump, like one training iteration.
const QOS_STORM_BURST: usize = 64;
/// Storm threads sleep this long between bursts. The scenario measures
/// the *device-backlog* policy, not host CPU scheduling: offered load
/// has to leave even a single-core host enough headroom that the
/// inference tenant's process gets scheduled promptly, otherwise both
/// arms just measure the OS run queue. 8 storms x 64 kernels x 1024
/// threads per 250ms is ~2M simulated threads/s of device work.
const QOS_STORM_PAUSE: Duration = Duration::from_millis(250);
/// Elements each storm kernel writes (32 blocks x 32 threads): heavy
/// enough that an undrained clump of them is exactly what wrecks the
/// inference tenant's p99 in the ungated arm.
const QOS_STORM_KERNEL_N: u32 = 1024;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Transport {
    Channel,
    Uds,
    Shm,
}

impl Transport {
    fn name(self) -> &'static str {
        match self {
            Transport::Channel => "channel",
            Transport::Uds => "uds",
            Transport::Shm => "shm",
        }
    }
}

struct Row {
    tenants: usize,
    gpus: usize,
    mode: &'static str,
    transport: &'static str,
    launches: usize,
    elapsed_ms: f64,
    launches_per_sec: f64,
    /// Control plane engaged: default lease, connect-rate gate, usage
    /// accounting.
    admission: bool,
    /// Per-tenant telemetry armed (the manager default).
    telemetry: bool,
    /// Launch-enqueue latency quantiles in microseconds, merged across
    /// tenants from the control plane's histograms (0 when telemetry is
    /// off). QoS scenario rows repurpose these for the inference
    /// tenant's *client-side launch-complete* round quantiles.
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    /// QoS arm: `-` outside the scenario sweep (classes exist but every
    /// tenant is best-effort under the default budget), `on`/`off`/
    /// `backfill` for the scenario rows.
    qos: &'static str,
}

fn temp_sock(tag: &str) -> PathBuf {
    guardian::fixtures::temp_socket_path(&format!("bench-{tag}"))
}

fn measure(
    tenants: usize,
    gpus: usize,
    ack: LaunchAck,
    mode: &'static str,
    transport: Transport,
) -> Row {
    measure_with(
        tenants,
        gpus,
        ack,
        mode,
        transport,
        LAUNCHES_PER_TENANT,
        false,
        true,
    )
}

#[allow(clippy::too_many_arguments)]
fn measure_with(
    tenants: usize,
    gpus: usize,
    ack: LaunchAck,
    mode: &'static str,
    transport: Transport,
    launches: usize,
    control: bool,
    telemetry: bool,
) -> Row {
    // The stock 64 MiB test GPU pools at most 16 MiB by default (half of
    // free memory, floored to a power of two — the context's scratch
    // allocation costs a whole doubling); the 64–256-tenant scale sweep
    // holds a 2 MiB partition per tenant simultaneously, so it sizes the
    // device and pool explicitly (DRAM is paged lazily, so a bigger
    // simulated device is free). Tenant counts ≤ 16 keep the stock
    // device and default pool, bit-identical to the original sweeps.
    let mut spec = test_gpu();
    let pool_needed = ((tenants as u64) * (2 << 20)).next_power_of_two();
    let pool_bytes = if pool_needed * 2 > spec.global_mem_bytes {
        spec.global_mem_bytes = pool_needed * 2;
        Some(pool_needed)
    } else {
        None
    };
    let devices = gpu_sim::device_set(vec![spec; gpus])
        .into_iter()
        .map(share_device)
        .collect();
    let fb = stress_fatbin();
    // `control` engages the whole control plane with terms no tenant
    // here violates: a generous lease on every admit, plus an accept-
    // loop rate gate sized so the bench's own connect burst is never
    // shed — the point is hook *cost*, not hook *effect*.
    let admission = control.then(|| std::sync::Arc::new(Admission::new(1_000_000.0, 1_000_000)));
    let config = ManagerConfig {
        launch_ack: ack,
        pool_bytes,
        lease_default: control
            .then(|| LeaseSpec::parse("mem=16M,streams=4,ttl=30m").expect("bench lease")),
        admission: admission.clone(),
        telemetry,
        ..ManagerConfig::default()
    };
    let bound = match transport {
        Transport::Channel => BoundTransport::channel(),
        Transport::Uds => {
            BoundTransport::uds_gated(temp_sock("uds"), UidPolicy::AllowAll, admission)
                .expect("bind uds")
        }
        Transport::Shm => BoundTransport::shm(temp_sock("shm")).expect("bind shm"),
    };
    let mgr = spawn_manager_multi(devices, config, &[&fb], bound).expect("spawn manager");
    // GrdLib::connect dials through the manager's own dialer, so the same
    // code path exercises whichever transport the manager was bound to.
    let libs: Vec<GrdLib> = (0..tenants)
        .map(|_| GrdLib::connect(&mgr, 2 << 20).expect("connect"))
        .collect();
    let start = Instant::now();
    let mut handles = Vec::new();
    for mut lib in libs {
        handles.push(std::thread::spawn(move || {
            let buf = lib.cuda_malloc(4 * 64).expect("malloc");
            let args = ArgPack::new().ptr(buf).u32(64).finish();
            for i in 0..launches {
                lib.cuda_launch_kernel(
                    "fill",
                    LaunchConfig::linear(2, 32),
                    &args,
                    Default::default(),
                )
                .expect("launch");
                // Periodic syncs keep deferred mode's one-way queue
                // bounded and mirror real workloads' sync points.
                if i % 100 == 99 {
                    lib.cuda_device_synchronize().expect("sync");
                }
            }
            lib.cuda_device_synchronize().expect("final sync");
        }));
    }
    for h in handles {
        h.join().expect("tenant thread");
    }
    let elapsed = start.elapsed();
    // Launch-enqueue latency quantiles, merged across every tenant's
    // histogram (live + retired) before the manager goes away.
    let mut agg = HistSnapshot::default();
    for (_uid, hists) in mgr.control_plane().latency_by_uid() {
        agg.merge(&hists[OpClass::LaunchEnqueue as usize]);
    }
    let q = |p: f64| agg.quantile(p) as f64 / 1e3;
    let (p50_us, p95_us, p99_us) = (q(0.50), q(0.95), q(0.99));
    mgr.shutdown();
    let total = (tenants * launches) as f64;
    Row {
        tenants,
        gpus,
        mode,
        transport: transport.name(),
        launches,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        launches_per_sec: total / elapsed.as_secs_f64(),
        admission: control,
        telemetry,
        p50_us,
        p95_us,
        p99_us,
        qos: "-",
    }
}

/// Outcome of one QoS scenario arm: the table row plus the two numbers
/// the gates compare — best-effort aggregate completed-launch rate and
/// the inference tenant's client-side p99 round latency.
struct QosArm {
    row: Row,
    agg_rate: f64,
    p99_ms: f64,
}

/// The headline scenario: one inference tenant (paced launch + sync
/// rounds, client-side timed) sharing one sliced GPU with
/// [`QOS_STORM_TENANTS`] background training tenants flooding deferred
/// launches. `qos_on` arms the inflight budget and connects the
/// inference tenant latency-class; the off arm runs the identical
/// workload all-best-effort with the budget disarmed. `prio_active`
/// false keeps the inference tenant connected but idle (the backfill
/// arm).
fn qos_scenario(qos: &'static str, qos_on: bool, prio_active: bool) -> QosArm {
    let mut spec = test_gpu();
    spec.kernel_slice_cycles = QOS_SLICE_CYCLES;
    spec.global_mem_bytes = 128 << 20;
    let devices = gpu_sim::device_set(vec![spec])
        .into_iter()
        .map(share_device)
        .collect();
    let fb = stress_fatbin();
    let config = ManagerConfig {
        launch_ack: LaunchAck::Deferred,
        pool_bytes: Some(64 << 20),
        qos_inflight_budget: if qos_on { QOS_BUDGET } else { u64::MAX },
        ..ManagerConfig::default()
    };
    let bound =
        BoundTransport::uds_gated(temp_sock("qos"), UidPolicy::AllowAll, None).expect("bind uds");
    let mgr = spawn_manager_multi(devices, config, &[&fb], bound).expect("spawn manager");

    let mut prio = GrdLib::connect_opts(
        &mgr,
        2 << 20,
        None,
        if qos_on {
            QosClass::Latency
        } else {
            QosClass::BestEffort
        },
    )
    .expect("connect priority");

    let stop = Arc::new(AtomicBool::new(false));
    let storms: Vec<_> = (0..QOS_STORM_TENANTS)
        .map(|i| {
            let mut lib = GrdLib::connect(&mgr, 2 << 20).expect("connect storm");
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Stagger the burst phases: eight training jobs do not
                // step their iterations in lockstep, and phase-locked
                // clumps make both arms' tails a lottery.
                std::thread::sleep(QOS_STORM_PAUSE * i as u32 / QOS_STORM_TENANTS as u32);
                let buf = lib
                    .cuda_malloc(4 * u64::from(QOS_STORM_KERNEL_N))
                    .expect("malloc");
                let args = ArgPack::new().ptr(buf).u32(QOS_STORM_KERNEL_N).finish();
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // One training iteration: a flush-sized clump of
                    // heavy deferred launches, then think time. No
                    // periodic sync — in the ungated arm nothing bounds
                    // how much of this pile a priority sync must drain.
                    for _ in 0..QOS_STORM_BURST {
                        lib.cuda_launch_kernel(
                            "fill",
                            LaunchConfig::linear(32, 32),
                            &args,
                            Default::default(),
                        )
                        .expect("storm launch");
                    }
                    n += QOS_STORM_BURST as u64;
                    std::thread::sleep(QOS_STORM_PAUSE);
                }
                lib.cuda_device_synchronize().expect("storm final sync");
                n
            })
        })
        .collect();
    // Let the storm build a real backlog before the measurement window.
    std::thread::sleep(Duration::from_millis(200));

    let start = Instant::now();
    let mut round_ms: Vec<f64> = Vec::with_capacity(QOS_PRIO_ROUNDS);
    if prio_active {
        let buf = prio.cuda_malloc(4 * 64).expect("malloc priority");
        let args = ArgPack::new().ptr(buf).u32(64).finish();
        for _ in 0..QOS_PRIO_ROUNDS {
            let t0 = Instant::now();
            prio.cuda_launch_kernel(
                "fill",
                LaunchConfig::linear(2, 32),
                &args,
                Default::default(),
            )
            .expect("priority launch");
            prio.cuda_device_synchronize().expect("priority sync");
            round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            // Pace like a serving loop: the tenant is latency-bound,
            // not throughput-bound.
            std::thread::sleep(Duration::from_millis(5));
        }
    } else {
        // Backfill arm: the priority tenant holds its latency grant but
        // submits nothing; the storm should reclaim the whole device.
        std::thread::sleep(Duration::from_secs(2));
    }
    stop.store(true, Ordering::Relaxed);
    let storm_launches: u64 = storms
        .into_iter()
        .map(|h| h.join().expect("storm thread"))
        .sum();
    let elapsed = start.elapsed();
    drop(prio);
    mgr.shutdown();

    round_ms.sort_by(f64::total_cmp);
    let q = |p: f64| {
        if round_ms.is_empty() {
            0.0
        } else {
            round_ms[((round_ms.len() - 1) as f64 * p) as usize]
        }
    };
    let (p50, p95, p99) = (q(0.50), q(0.95), q(0.99));
    let agg_rate = storm_launches as f64 / elapsed.as_secs_f64();
    QosArm {
        row: Row {
            tenants: QOS_STORM_TENANTS + 1,
            gpus: 1,
            mode: "qos-scenario",
            transport: "uds",
            launches: storm_launches as usize,
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            launches_per_sec: agg_rate,
            admission: false,
            telemetry: true,
            p50_us: p50 * 1e3,
            p95_us: p95 * 1e3,
            p99_us: p99 * 1e3,
            qos,
        },
        agg_rate,
        p99_ms: p99,
    }
}

/// Evaluate (and print) the three QoS scenario gates, returning the
/// failure messages: QoS on must cut the inference tenant's p99 3x vs
/// off, must not starve best-effort aggregate (>= 0.9x ungated), and
/// must back off entirely when the priority tenant is idle (>= 0.95x
/// ungated). All three share the established 0.97 noise floor.
fn qos_gates(p99_off: f64, p99_on: f64, agg_off: f64, agg_on: f64, backfill: f64) -> Vec<String> {
    let mut failures = Vec::new();
    // (1) The inflight budget bounds the backlog any drain must chew
    // through, the latency-pending gate keeps storm frames from racing
    // ahead of a priority launch, and slice preemption stops a long
    // kernel from head-of-line blocking the latency stream.
    println!(
        "qos scenario inference p99: off {p99_off:.2}ms vs on {p99_on:.2}ms ({:.1}x)",
        p99_off / p99_on
    );
    if p99_off < 3.0 * GATE_NOISE_FLOOR * p99_on {
        failures.push(format!(
            "QoS gating cut inference p99 by less than 3x under the storm: \
             off {p99_off:.2}ms vs on {p99_on:.2}ms"
        ));
    }
    // (2) Priority must not starve the background class.
    println!(
        "qos scenario best-effort aggregate: off {agg_off:.0}/s vs on {agg_on:.0}/s ({:.2}x)",
        agg_on / agg_off
    );
    if agg_on < 0.9 * GATE_NOISE_FLOOR * agg_off {
        failures.push(format!(
            "QoS gating starves best-effort aggregate throughput: \
             on {agg_on:.0}/s < 0.9x off {agg_off:.0}/s"
        ));
    }
    // (3) Backfill: with the priority tenant idle, the armed QoS
    // machinery must hand the device back.
    println!(
        "qos scenario idle-priority backfill: {backfill:.0}/s vs no-QoS {agg_off:.0}/s ({:.2}x)",
        backfill / agg_off
    );
    if backfill < 0.95 * GATE_NOISE_FLOOR * agg_off {
        failures.push(format!(
            "idle-priority backfill fails to recover best-effort throughput: \
             {backfill:.0}/s < 0.95x of {agg_off:.0}/s"
        ));
    }
    failures
}

fn main() {
    // Dev loop: `cargo bench --bench dispatch_throughput -- --qos-only`
    // runs just the QoS scenario arms and their gates, leaving
    // `BENCH_dispatch.json` untouched.
    if std::env::args().any(|a| a == "--qos-only") {
        let off = qos_scenario("off", false, true);
        let on = qos_scenario("on", true, true);
        let backfill = qos_scenario("backfill", true, false);
        for a in [&off, &on, &backfill] {
            println!(
                "qos arm {:>8}: p50 {:.2}ms p99 {:.2}ms, best-effort {:.0}/s",
                a.row.qos,
                a.row.p50_us / 1e3,
                a.p99_ms,
                a.agg_rate
            );
        }
        let failures = qos_gates(
            off.p99_ms,
            on.p99_ms,
            off.agg_rate,
            on.agg_rate,
            backfill.agg_rate,
        );
        assert!(
            failures.is_empty(),
            "{} QoS gate(s) failed:\n  - {}",
            failures.len(),
            failures.join("\n  - ")
        );
        return;
    }
    let mut rows = Vec::new();
    // Sweep 1: launch acks over the in-process channel transport.
    for tenants in TENANT_COUNTS {
        rows.push(measure(
            tenants,
            1,
            LaunchAck::Eager,
            "concurrent",
            Transport::Channel,
        ));
        rows.push(measure(
            tenants,
            1,
            LaunchAck::Deferred,
            "concurrent+deferred",
            Transport::Channel,
        ));
    }
    // Sweep 2: transports under deferred launches (channel rows above
    // already cover channel+deferred; add the cross-process wires).
    // Best-of-three per point: the shm-vs-uds gate below compares two
    // timing measurements directly, so a single descheduled thread on a
    // shared runner must not decide the winner.
    for tenants in TENANT_COUNTS {
        for transport in [Transport::Uds, Transport::Shm] {
            let row = (0..3)
                .map(|_| {
                    measure(
                        tenants,
                        1,
                        LaunchAck::Deferred,
                        "concurrent+deferred",
                        transport,
                    )
                })
                .min_by(|a, b| a.elapsed_ms.total_cmp(&b.elapsed_ms))
                .expect("three runs");
            rows.push(row);
        }
    }
    // Sweep 3: device-set scaling — 8 tenants spread by least-loaded
    // routing over 1/2/4 GPUs, deferred launches. Three interleaved
    // rounds over the GPU counts (not three consecutive runs per
    // count), keeping the best per count: the 2-vs-1 GPU gate below
    // compares timings directly, and interleaving keeps slow machine
    // drift out of the ratio.
    let mut gpu_rows: Vec<Option<Row>> = GPU_COUNTS.iter().map(|_| None).collect();
    for _round in 0..3 {
        for (i, &gpus) in GPU_COUNTS.iter().enumerate() {
            let row = measure(
                GPU_SWEEP_TENANTS,
                gpus,
                LaunchAck::Deferred,
                "concurrent+deferred",
                Transport::Channel,
            );
            if gpu_rows[i]
                .as_ref()
                .is_none_or(|best| row.elapsed_ms < best.elapsed_ms)
            {
                gpu_rows[i] = Some(row);
            }
        }
    }
    rows.extend(gpu_rows.into_iter().map(|r| r.expect("three rounds")));
    // Sweep 4: tenant scale — 64/128/256 tenants over uds on the event
    // pool, deferred launches. Best-of-three: the cliff gate below
    // compares two timing measurements directly.
    for tenants in SCALE_TENANT_COUNTS {
        let row = (0..3)
            .map(|_| {
                measure_with(
                    tenants,
                    1,
                    LaunchAck::Deferred,
                    "deferred+event",
                    Transport::Uds,
                    SCALE_LAUNCHES,
                    false,
                    true,
                )
            })
            .min_by(|a, b| a.elapsed_ms.total_cmp(&b.elapsed_ms))
            .expect("three runs");
        rows.push(row);
    }
    // Sweep 5: control-plane hook cost — the 64-tenant event-pool point
    // with leases, admission metering, and usage accounting engaged.
    // The two arms are measured as back-to-back pairs (unleased, then
    // leased) and the gate compares per-arm minima: an A/B ratio taken
    // against a row measured tens of seconds earlier folds machine
    // drift into the hook cost, which is exactly what bit here once the
    // hot-path work tripled absolute throughput. The unleased arm is
    // gate-only; the table keeps sweep 4's row.
    let hook_arm = |control: bool| {
        measure_with(
            SCALE_GATE_TENANTS,
            1,
            LaunchAck::Deferred,
            if control {
                "deferred+event+leased"
            } else {
                "deferred+event"
            },
            Transport::Uds,
            SCALE_LAUNCHES,
            control,
            true,
        )
    };
    let pairs: Vec<(Row, Row)> = (0..3).map(|_| (hook_arm(false), hook_arm(true))).collect();
    let hooks_baseline_rate = pairs
        .iter()
        .map(|(unleased, _)| unleased.launches_per_sec)
        .fold(0.0_f64, f64::max);
    let leased = pairs
        .into_iter()
        .map(|(_, leased)| leased)
        .min_by(|a, b| a.elapsed_ms.total_cmp(&b.elapsed_ms))
        .expect("three runs");
    rows.push(leased);
    // Sweep 6: telemetry overhead — the same 64-tenant event-pool point
    // A/B'd with per-tenant telemetry off vs on (the manager default).
    // Interleaved off/on pairs for the same drift reason as sweep 5;
    // the gate compares the best on-rate against the best off-rate. The
    // off arm is gate-only; the on arm joins the table with its
    // quantiles.
    let telemetry_arm = |telemetry: bool| {
        measure_with(
            SCALE_GATE_TENANTS,
            1,
            LaunchAck::Deferred,
            if telemetry {
                "deferred+event+telemetry"
            } else {
                "deferred+event+tel-off"
            },
            Transport::Uds,
            SCALE_LAUNCHES,
            false,
            telemetry,
        )
    };
    let tel_pairs: Vec<(Row, Row)> = (0..3)
        .map(|_| (telemetry_arm(false), telemetry_arm(true)))
        .collect();
    let tel_off_rate = tel_pairs
        .iter()
        .map(|(off, _)| off.launches_per_sec)
        .fold(0.0_f64, f64::max);
    let tel_on = tel_pairs
        .into_iter()
        .map(|(_, on)| on)
        .min_by(|a, b| a.elapsed_ms.total_cmp(&b.elapsed_ms))
        .expect("three runs");
    let tel_on_rate = tel_on.launches_per_sec;
    rows.push(tel_on);
    // Sweep 7: the QoS scenario — one inference tenant with a p99 SLO
    // sharing a sliced GPU with 8 background training tenants. Three
    // arms: QoS off (all best-effort, budget disarmed), QoS on
    // (latency-class inference + inflight budget + latency-pending
    // drain gating), and backfill (QoS armed, inference tenant idle).
    let qos_off = qos_scenario("off", false, true);
    let qos_on = qos_scenario("on", true, true);
    let qos_backfill = qos_scenario("backfill", true, false);
    let (p99_off, p99_on) = (qos_off.p99_ms, qos_on.p99_ms);
    let (agg_off, agg_on) = (qos_off.agg_rate, qos_on.agg_rate);
    let backfill = qos_backfill.agg_rate;
    rows.push(qos_off.row);
    rows.push(qos_on.row);
    rows.push(qos_backfill.row);

    bench::print_table(
        "Dispatch throughput: launches/sec vs tenant count",
        &[
            "Tenants",
            "GPUs",
            "Mode",
            "Transport",
            "Elapsed (ms)",
            "Launches/sec",
            "Control",
            "QoS",
            "p50/p95/p99 (us)",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.tenants.to_string(),
                    r.gpus.to_string(),
                    r.mode.into(),
                    r.transport.into(),
                    format!("{:.1}", r.elapsed_ms),
                    format!("{:.0}", r.launches_per_sec),
                    if r.admission { "leased" } else { "-" }.into(),
                    r.qos.into(),
                    if r.telemetry {
                        format!("{:.0}/{:.0}/{:.0}", r.p50_us, r.p95_us, r.p99_us)
                    } else {
                        "-".into()
                    },
                ]
            })
            .collect::<Vec<_>>(),
    );

    // Machine-readable output for CI trend tracking.
    let mut json = String::from("{\n  \"bench\": \"dispatch_throughput\",\n");
    json.push_str(&format!(
        "  \"launches_per_tenant\": {LAUNCHES_PER_TENANT},\n  \"results\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tenants\": {}, \"gpus\": {}, \"mode\": \"{}\", \"transport\": \"{}\", \
             \"launches_per_tenant\": {}, \
             \"elapsed_ms\": {:.3}, \"launches_per_sec\": {:.1}, \
             \"admission\": {}, \
             \"telemetry\": {}, \"qos\": \"{}\", \
             \"launch_p50_us\": {:.3}, \"launch_p95_us\": {:.3}, \"launch_p99_us\": {:.3}}}{}\n",
            r.tenants,
            r.gpus,
            r.mode,
            r.transport,
            r.launches,
            r.elapsed_ms,
            r.launches_per_sec,
            r.admission,
            r.telemetry,
            r.qos,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    // Anchor to the workspace root regardless of cargo's bench cwd.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_dispatch.json");
    std::fs::write(&out, &json).expect("write BENCH_dispatch.json");
    println!("\nwrote {}", out.display());

    // Ratio gates below accumulate failures and panic once at the end:
    // on a noisy machine one marginal gate must not mask the verdicts of
    // the others (every gate still fails the run).
    let mut gate_failures: Vec<String> = Vec::new();
    macro_rules! gate {
        ($cond:expr, $($msg:tt)+) => {
            let ok: bool = $cond;
            if !ok {
                gate_failures.push(format!($($msg)+));
            }
        };
    }

    // Transport witness: across the deferred-launch sweep, the shm ring
    // must sustain at least the uds socket's throughput — a syscall per
    // frame has to cost more than two memcpys and an atomic store.
    // Compared on aggregate time over all tenant counts (per-point
    // comparisons are noise-bound on shared CI machines).
    let total_ms = |t: &str| -> f64 {
        rows.iter()
            .filter(|r| r.mode == "concurrent+deferred" && r.transport == t && r.gpus == 1)
            .map(|r| r.elapsed_ms)
            .sum()
    };
    let (uds_ms, shm_ms) = (total_ms("uds"), total_ms("shm"));
    let uds_rate =
        (TENANT_COUNTS.iter().sum::<usize>() * LAUNCHES_PER_TENANT) as f64 / (uds_ms / 1e3);
    let shm_rate =
        (TENANT_COUNTS.iter().sum::<usize>() * LAUNCHES_PER_TENANT) as f64 / (shm_ms / 1e3);
    println!(
        "deferred-launch aggregate: shm {shm_rate:.0}/s vs uds {uds_rate:.0}/s ({:.2}x)",
        shm_rate / uds_rate
    );
    // 3% tolerance: on runners where the simulated device dominates the
    // per-frame transport cost the two rates converge to ~1.00x, and a
    // strict >= flips on sub-permille noise. A *real* shm regression
    // (a syscall sneaking back into the ring path) costs far more.
    gate!(
        shm_rate >= GATE_NOISE_FLOOR * uds_rate,
        "shm ring slower than uds socket on deferred launches: \
         {shm_rate:.0}/s < {uds_rate:.0}/s"
    );

    // Device-set witness: at 8 tenants, two GPUs must out-run one —
    // that independence (per-device locks, pools, fault cursors) is the
    // whole point of the multi-GPU manager. Compared on the gpus-sweep
    // rows (all channel + deferred, 8 tenants, best-of-three).
    let gpu_rate = |g: usize| -> f64 {
        rows.iter()
            .filter(|r| {
                r.tenants == GPU_SWEEP_TENANTS
                    && r.gpus == g
                    && r.transport == "channel"
                    && r.mode == "concurrent+deferred"
            })
            .map(|r| r.launches_per_sec)
            // Sweep 1 also has an (8 tenants, 1 gpu) deferred row; the
            // best-of-three sweep-3 row comes last — prefer it.
            .next_back()
            .expect("gpu sweep row")
    };
    let (one, two) = (gpu_rate(1), gpu_rate(2));
    println!(
        "deferred-launch gpu scaling at {GPU_SWEEP_TENANTS} tenants: \
         2-gpu {two:.0}/s vs 1-gpu {one:.0}/s ({:.2}x)",
        two / one
    );
    // Best-of-three interleaved rounds plus the gate's own wider floor
    // (see `GPU_GATE_FLOOR`): with the device lock taken per batch
    // instead of per launch, 2-gpu-vs-1 converges to ~1.0x and a strict
    // `>` flips on scheduler noise. A real scaling regression (a global
    // lock back in the data plane) costs tens of percent, far below the
    // floor.
    gate!(
        two >= GPU_GATE_FLOOR * one,
        "2-GPU aggregate deferred-launch throughput ({two:.0}/s) fell \
         measurably behind 1-GPU ({one:.0}/s) at {GPU_SWEEP_TENANTS} tenants"
    );

    // The 256-tenant cliff: the event pool once served 256 tenants at
    // 2.6k launches/s against 18.2k at 64 — per-frame wakeup, re-arm,
    // and device-lock costs compounding where the executor should shine
    // brightest. Batched drains (one device-lock acquisition and one
    // re-arm per burst) are what fixed it; this gate keeps the cliff
    // from coming back.
    let rate_at = |tenants: usize, mode: &str| -> f64 {
        rows.iter()
            .filter(|r| r.tenants == tenants && r.mode == mode)
            .map(|r| r.launches_per_sec)
            .next()
            .expect("scale sweep row")
    };
    let heavy = SCALE_TENANT_COUNTS[SCALE_TENANT_COUNTS.len() - 1];
    let (base, heavy_rate) = (
        rate_at(SCALE_GATE_TENANTS, "deferred+event"),
        rate_at(heavy, "deferred+event"),
    );
    println!(
        "event-pool scaling: {heavy} tenants {heavy_rate:.0}/s vs \
         {SCALE_GATE_TENANTS} tenants {base:.0}/s ({:.2}x)",
        heavy_rate / base
    );
    gate!(
        heavy_rate >= CLIFF_FLOOR * base,
        "event pool fell off a cliff at {heavy} tenants: {heavy_rate:.0}/s < \
         {CLIFF_FLOOR} x {base:.0}/s at {SCALE_GATE_TENANTS} tenants"
    );

    // Control-plane witness: at 64 tenants, the fully engaged control
    // plane (lease admit + TTL sweep, accept-loop rate gate, usage
    // counters on the drain path) must cost no more than the noise
    // floor against the identical unleased configuration, measured as
    // interleaved pairs in sweep 5. Lease bookkeeping lives on the
    // control thread and per-batch counters are a handful of relaxed
    // atomics — if this gate trips, a hook leaked into the per-frame
    // hot path.
    let leased_rate = rate_at(SCALE_GATE_TENANTS, "deferred+event+leased");
    println!(
        "control-plane hooks at {SCALE_GATE_TENANTS} tenants: \
         leased {leased_rate:.0}/s vs unleased {hooks_baseline_rate:.0}/s ({:.2}x)",
        leased_rate / hooks_baseline_rate
    );
    gate!(
        leased_rate >= GATE_NOISE_FLOOR * hooks_baseline_rate,
        "control-plane hooks tax deferred throughput at \
         {SCALE_GATE_TENANTS} tenants: {leased_rate:.0}/s < {hooks_baseline_rate:.0}/s"
    );

    // Telemetry witness: the histograms and flight recorder must stay
    // off the hot path's cost profile — per launch they add one clock
    // read at decode/admit and a relaxed increment per batch stage. If
    // this gate trips, recording grew a lock, an allocation, or a
    // per-frame syscall.
    println!(
        "telemetry overhead at {SCALE_GATE_TENANTS} tenants: \
         on {tel_on_rate:.0}/s vs off {tel_off_rate:.0}/s ({:.2}x)",
        tel_on_rate / tel_off_rate
    );
    gate!(
        tel_on_rate >= GATE_NOISE_FLOOR * tel_off_rate,
        "telemetry taxes deferred throughput at {SCALE_GATE_TENANTS} \
         tenants: {tel_on_rate:.0}/s < {tel_off_rate:.0}/s"
    );

    // QoS witnesses — the headline scenario numbers.
    for f in qos_gates(p99_off, p99_on, agg_off, agg_on, backfill) {
        gate_failures.push(f);
    }

    assert!(
        gate_failures.is_empty(),
        "{} bench gate(s) failed:\n  - {}",
        gate_failures.len(),
        gate_failures.join("\n  - ")
    );
}
