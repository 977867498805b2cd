//! Multi-tenant dispatch stress: 4+ tenants hammer the grdManager from
//! concurrent OS threads with interleaved mallocs, memcpys, memsets, and
//! launches. Asserts the dispatch core is deadlock-free, isolation
//! invariants hold under contention, and out-of-bounds kills only the
//! offender. That tenants' data-plane ops genuinely overlap is forced,
//! not sampled, by a unit test in `guardian::session`.
//!
//! CI runs this suite in `--release` so dispatch regressions and
//! deadlocks fail the pipeline.

use bench::stress_fatbin;
use cuda_rt::{share_device, ArgPack, CudaApi, CudaError};
use gpu_sim::spec::test_gpu;
use gpu_sim::{Device, LaunchConfig};
use guardian::{spawn_manager, GrdLib, LaunchAck, ManagerConfig, ManagerHandle, Protection};
use std::alloc::{GlobalAlloc, Layout, System};

/// A pass-through allocator that reports every allocation into
/// `guardian::alloc_audit`, arming the library's debug assertion that
/// the steady-state launch admission path never touches the heap.
struct CountingAlloc;

// SAFETY: delegates entirely to `System`; the count bump is a
// thread-local Cell update and cannot itself allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        guardian::alloc_audit::note_alloc();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        guardian::alloc_audit::note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn manager(protection: Protection, ack: LaunchAck) -> ManagerHandle {
    let device = share_device(Device::new(test_gpu()));
    let fb = stress_fatbin();
    spawn_manager(
        device,
        ManagerConfig {
            protection,
            launch_ack: ack,
            ..ManagerConfig::default()
        },
        &[&fb],
    )
    .expect("spawn manager")
}

/// One tenant's stress loop: `iters` rounds of interleaved malloc /
/// memset / h2d / launch / sync / d2h-verify / free, with allocations
/// rotating so the per-client heap churns. Panics on any isolation or
/// correctness violation.
fn tenant_loop(mut lib: GrdLib, seed: u32, iters: usize) {
    const N: u32 = 64;
    let mut bufs: Vec<u64> = Vec::new();
    for i in 0..iters {
        let buf = lib.cuda_malloc(4 * N as u64).expect("malloc");
        // Pattern unique to this tenant and round.
        let tag = seed.wrapping_mul(0x9E37).wrapping_add(i as u32);
        lib.cuda_memset(buf, (tag & 0xFF) as u8, 4 * N as u64)
            .expect("memset");
        let host: Vec<u8> = (0..N).flat_map(|v| (v ^ tag).to_le_bytes()).collect();
        lib.cuda_memcpy_h2d(buf, &host).expect("h2d");
        let args = ArgPack::new().ptr(buf).u32(N).finish();
        lib.cuda_launch_kernel(
            "fill",
            LaunchConfig::linear(2, 32),
            &args,
            Default::default(),
        )
        .expect("launch");
        if i % 8 == 0 {
            lib.cuda_device_synchronize().expect("sync");
        }
        // Isolation/correctness invariant: after sync, the buffer holds
        // exactly what *this* tenant's kernel wrote — no cross-tenant
        // interference regardless of how the data planes interleave.
        if i % 16 == 0 {
            lib.cuda_device_synchronize().expect("sync before verify");
            let out = lib.cuda_memcpy_d2h(buf, 4 * N as u64).expect("d2h");
            for j in 0..N {
                let v = u32::from_le_bytes(out[j as usize * 4..][..4].try_into().unwrap());
                assert_eq!(v, j, "tenant {seed} round {i}: buffer corrupted");
            }
        }
        bufs.push(buf);
        // Free every other allocation to keep the heap churning without
        // unbounded growth.
        if bufs.len() >= 4 {
            let victim = bufs.remove(0);
            lib.cuda_free(victim).expect("free");
        }
    }
    lib.cuda_device_synchronize().expect("final sync");
    for b in bufs {
        lib.cuda_free(b).expect("final free");
    }
}

/// 4 tenants × hundreds of interleaved ops on concurrent OS threads:
/// deadlock-free, and every tenant reads back exactly what it wrote.
#[test]
fn four_tenants_interleaved_ops_stay_isolated() {
    let mgr = manager(Protection::FenceBitwise, LaunchAck::Eager);
    let mut handles = Vec::new();
    for t in 0..4u32 {
        let lib = GrdLib::connect(&mgr, 2 << 20).expect("connect");
        handles.push(std::thread::spawn(move || tenant_loop(lib, t, 200)));
    }
    for h in handles {
        h.join().expect("tenant thread");
    }
    mgr.shutdown();
}

/// Under full 4-tenant stress, an out-of-bounds attacker is terminated
/// while the other three tenants run to completion unharmed.
#[test]
fn oob_kills_only_the_offender_under_stress() {
    let mgr = manager(Protection::Check, LaunchAck::Eager);
    // Three well-behaved tenants under way...
    let mut handles = Vec::new();
    for t in 0..3u32 {
        let lib = GrdLib::connect(&mgr, 2 << 20).expect("connect");
        handles.push(std::thread::spawn(move || tenant_loop(lib, t, 100)));
    }
    // ...while the fourth aims a store outside its own partition.
    let mut evil = GrdLib::connect(&mgr, 2 << 20).expect("connect evil");
    let (base, size) = evil.partition();
    let args = ArgPack::new()
        .ptr(base + size + 4096)
        .u32(0x41414141)
        .finish();
    evil.cuda_launch_kernel(
        "stomp",
        LaunchConfig::linear(1, 1),
        &args,
        Default::default(),
    )
    .expect("attack enqueues");
    // Address checking detects the violation; Guardian terminates the
    // offender at its next synchronization point...
    assert!(evil.cuda_device_synchronize().is_err(), "offender survived");
    assert!(
        matches!(evil.cuda_malloc(16), Err(CudaError::Rejected(_))),
        "terminated client can still allocate"
    );
    // ...and the innocent tenants' stress loops finish clean (their
    // panics would propagate through join).
    for h in handles {
        h.join().expect("innocent tenant was harmed");
    }
    // Disconnect the offender before shutdown: the manager handle's drop
    // joins session threads, which end when their client half drops.
    drop(evil);
    mgr.shutdown();
}

/// Deferred-ack mode: launches are true one-way enqueues, and launch
/// errors surface at the next synchronization point (CUDA's asynchronous
/// error model) instead of at the call site.
#[test]
fn deferred_ack_surfaces_launch_errors_at_sync() {
    let mgr = manager(Protection::FenceBitwise, LaunchAck::Deferred);
    let mut lib = GrdLib::connect(&mgr, 2 << 20).expect("connect");
    // A launch of a nonexistent kernel "succeeds" at the call site...
    let r = lib.cuda_launch_kernel(
        "no_such_kernel",
        LaunchConfig::linear(1, 1),
        &[],
        Default::default(),
    );
    assert!(r.is_ok(), "deferred launch should not block on errors");
    // ...and the error arrives, sticky, at the synchronization point.
    assert!(
        matches!(
            lib.cuda_device_synchronize(),
            Err(CudaError::InvalidDeviceFunction(_))
        ),
        "deferred launch error did not surface at sync"
    );
    // The error is consumed: the tenant continues afterwards.
    lib.cuda_device_synchronize()
        .expect("error was not sticky-once");
    drop(lib);
    mgr.shutdown();
}

/// The steady-state launch admission path performs zero heap
/// allocations. After a warmup phase (session cache resolved, buffer
/// pools and stream queues at capacity), the audit is armed and every
/// subsequent warm admission `debug_assert!`s that the allocation
/// counter did not move between frame decode and batch admission
/// (see `guardian::alloc_audit`). Runs meaningfully in debug builds;
/// in release the assertions compile out and this degrades to a smoke
/// test of the same path.
#[test]
fn steady_state_launch_path_is_allocation_free() {
    let mgr = manager(Protection::FenceBitwise, LaunchAck::Deferred);
    let mut lib = GrdLib::connect(&mgr, 2 << 20).expect("connect");
    let buf = lib.cuda_malloc(4 * 64).expect("malloc");
    let args = ArgPack::new().ptr(buf).u32(64).finish();
    let burst = |lib: &mut GrdLib| {
        for _ in 0..256 {
            lib.cuda_launch_kernel(
                "fill",
                LaunchConfig::linear(2, 32),
                &args,
                Default::default(),
            )
            .expect("launch");
        }
        lib.cuda_device_synchronize().expect("sync");
    };
    // Warmup: resolve the kernel into the session cache, grow the
    // pending buffer, param pool, and device queue to steady state.
    burst(&mut lib);
    guardian::alloc_audit::arm(true);
    burst(&mut lib);
    guardian::alloc_audit::arm(false);
    lib.cuda_free(buf).expect("free");
    drop(lib);
    mgr.shutdown();
}

/// QoS bookkeeping rides the audited launch admission window without
/// adding heap touches: the per-tenant inflight tick, the class check,
/// and the executor gauge updates are all plain atomics. Same shape as
/// the steady-state test above, but with a latency-class tenant and a
/// deliberately tight inflight budget so the over-budget comparison is
/// exercised on every warm admission — if QoS bookkeeping ever grows an
/// allocation, this trips in debug builds before the integrated suite
/// does.
#[test]
fn qos_bookkeeping_is_allocation_free() {
    let device = share_device(Device::new(test_gpu()));
    let fb = stress_fatbin();
    let mgr = spawn_manager(
        device,
        ManagerConfig {
            launch_ack: LaunchAck::Deferred,
            qos_inflight_budget: 8,
            ..ManagerConfig::default()
        },
        &[&fb],
    )
    .expect("spawn manager");
    let mut lib =
        GrdLib::connect_opts(&mgr, 2 << 20, None, guardian::QosClass::Latency).expect("connect");
    assert_eq!(lib.qos(), guardian::QosClass::Latency);
    let buf = lib.cuda_malloc(4 * 64).expect("malloc");
    let args = ArgPack::new().ptr(buf).u32(64).finish();
    let burst = |lib: &mut GrdLib| {
        for _ in 0..256 {
            lib.cuda_launch_kernel(
                "fill",
                LaunchConfig::linear(2, 32),
                &args,
                Default::default(),
            )
            .expect("launch");
        }
        lib.cuda_device_synchronize().expect("sync");
    };
    burst(&mut lib);
    guardian::alloc_audit::arm(true);
    burst(&mut lib);
    guardian::alloc_audit::arm(false);
    drop(lib);
    mgr.shutdown();
}

/// Telemetry recording itself is allocation-free after construction:
/// histogram recording, quantile-free snapshots aside, and flight-ring
/// writes all run inside an armed audit window without moving the
/// counter. This is the direct witness behind running the steady-state
/// test above with telemetry on (the manager default) — if recording
/// ever grows a heap touch, this trips before the integrated path does.
#[test]
fn telemetry_recording_is_allocation_free() {
    use guardian::telemetry::{FlightRecorder, Histogram, TraceEvent};
    let hist = Histogram::new();
    let ring = FlightRecorder::new(64);
    // Touch both once so any lazy setup happens before arming.
    hist.record(1_000);
    ring.record(TraceEvent::default());
    guardian::alloc_audit::arm(true);
    guardian::alloc_audit::mark();
    for i in 0..10_000u64 {
        hist.record(i * 37 + 1);
        ring.record(TraceEvent {
            op: (i % 5) as u8,
            client: i as u32,
            t_decode_ns: i,
            t_enqueue_ns: i + 10,
            ..TraceEvent::default()
        });
    }
    guardian::alloc_audit::assert_unchanged("telemetry recording");
    guardian::alloc_audit::arm(false);
    assert_eq!(hist.snapshot().count(), 10_001);
    assert_eq!(ring.recorded(), 10_001);
}

/// Deferred-ack throughput path under multi-tenant stress: hundreds of
/// fire-and-forget launches from 4 tenants complete without deadlock and
/// with correct results at the synchronization points.
#[test]
fn deferred_ack_stress_completes() {
    let mgr = manager(Protection::FenceBitwise, LaunchAck::Deferred);
    let mut handles = Vec::new();
    for t in 0..4u32 {
        let lib = GrdLib::connect(&mgr, 2 << 20).expect("connect");
        handles.push(std::thread::spawn(move || tenant_loop(lib, t, 100)));
    }
    for h in handles {
        h.join().expect("tenant thread");
    }
    mgr.shutdown();
}
