//! Event-driven data-plane scaling: 64 tenants over a real Unix socket,
//! multiplexed onto the epoll executor pool — the regime the event
//! driver exists for (hundreds of mostly-idle sessions on ~cores
//! pollers) — plus the determinism contract of wire makespans on the
//! same configuration.
//!
//! CI runs this suite in `--release` under a kill-timeout, like the
//! cross-process isolation suite: a stuck epoll loop or a lost doorbell
//! wakeup shows up here as a hang, not a failure message.

use bench::stress_fatbin;
use cuda_rt::{share_device, ArgPack, CudaApi};
use gpu_sim::spec::test_gpu;
use gpu_sim::{Device, LaunchConfig};
use guardian::{
    spawn_manager_multi, BoundTransport, GrdLib, LaunchAck, ManagerConfig, ManagerHandle,
};

const TENANTS: usize = 64;
const LAUNCHES: usize = 40;

/// A uds-bound single-GPU manager with an explicit partition pool big
/// enough for one 2 MiB partition per tenant held *simultaneously*.
/// Explicit, because the default pool (half of free memory, floored to
/// a power of two) loses a whole doubling to the context's scratch
/// allocation. The DRAM is paged lazily, so the larger simulated device
/// costs nothing.
fn uds_manager(ack: LaunchAck, tag: &str) -> ManagerHandle {
    let pool = ((TENANTS as u64) * (2 << 20)).next_power_of_two();
    let mut spec = test_gpu();
    spec.global_mem_bytes = spec.global_mem_bytes.max(pool * 2);
    let fb = stress_fatbin();
    let bound = BoundTransport::uds(guardian::fixtures::temp_socket_path(&format!(
        "scale-{tag}"
    )))
    .expect("bind uds");
    spawn_manager_multi(
        vec![share_device(Device::new(spec))],
        ManagerConfig {
            launch_ack: ack,
            pool_bytes: Some(pool),
            ..ManagerConfig::default()
        },
        &[&fb],
        bound,
    )
    .expect("spawn manager")
}

/// One tenant's loop: fire-and-forget launches with periodic syncs, then
/// a read-back verifying the kernel's output — so a frame lost or
/// reordered anywhere in the batched event-driven path is a test
/// failure, not just a slowdown.
fn tenant_loop(mut lib: GrdLib) {
    const N: u32 = 64;
    let buf = lib.cuda_malloc(4 * N as u64).expect("malloc");
    let args = ArgPack::new().ptr(buf).u32(N).finish();
    for i in 0..LAUNCHES {
        lib.cuda_launch_kernel(
            "fill",
            LaunchConfig::linear(2, 32),
            &args,
            Default::default(),
        )
        .expect("launch");
        if i % 10 == 9 {
            lib.cuda_device_synchronize().expect("sync");
        }
    }
    lib.cuda_device_synchronize().expect("final sync");
    let out = lib.cuda_memcpy_d2h(buf, 4 * N as u64).expect("d2h");
    for j in 0..N {
        let v = u32::from_le_bytes(out[j as usize * 4..][..4].try_into().unwrap());
        assert_eq!(v, j, "buffer corrupted at {j}");
    }
}

/// Drive 64 concurrent tenant threads through a manager and join them.
/// All 64 connect *before* any workload starts, so the manager provably
/// holds 64 live sessions — and the event pool 64 registered fds — at
/// once (no credit for early tenants finishing and freeing partitions).
fn run_tenants(mgr: &ManagerHandle) {
    let libs: Vec<GrdLib> = (0..TENANTS)
        .map(|_| GrdLib::connect(mgr, 2 << 20).expect("connect"))
        .collect();
    let handles: Vec<_> = libs
        .into_iter()
        .map(|lib| std::thread::spawn(move || tenant_loop(lib)))
        .collect();
    for h in handles {
        h.join().expect("tenant thread");
    }
}

/// 64 tenants over uds on the epoll executor: every session is a state
/// machine on a ~cores worker pool, launches arrive in batched frames,
/// and all 64 read-backs verify.
#[test]
fn sixty_four_tenants_complete_on_the_event_pool() {
    let mgr = uds_manager(LaunchAck::Deferred, "event");
    run_tenants(&mgr);
    mgr.shutdown();
}

/// Wire determinism on the shipped configuration (concurrent dispatch,
/// the event pool, uds): a fixed multi-tenant workload, interleaved
/// deterministically, lands the simulated device on a bit-for-bit
/// identical cycle counter across independent manager instances —
/// under both eager acks and the deferred+batched path (frame
/// coalescing must not change what executes, only how frames travel).
#[test]
fn wire_makespans_are_bit_for_bit_reproducible() {
    fn makespan(ack: LaunchAck, tag: &str) -> u64 {
        let mgr = uds_manager(ack, tag);
        let mut libs: Vec<GrdLib> = (0..4)
            .map(|_| GrdLib::connect(&mgr, 2 << 20).expect("connect"))
            .collect();
        let bufs: Vec<u64> = libs
            .iter_mut()
            .map(|lib| lib.cuda_malloc(4 * 64).expect("malloc"))
            .collect();
        // One driver thread round-robins the tenants so the op order the
        // manager sees is fixed by construction: every op that reaches
        // the device before a tenant's sync rides that tenant's own
        // round trip (an eager launch, or the deferred batch its sync
        // flushes), so the device schedule is identical run to run.
        for round in 0..10 {
            for (lib, &buf) in libs.iter_mut().zip(&bufs) {
                let args = ArgPack::new().ptr(buf).u32(64).finish();
                lib.cuda_launch_kernel(
                    "fill",
                    LaunchConfig::linear(2, 32),
                    &args,
                    Default::default(),
                )
                .expect("launch");
                if round % 3 == 2 {
                    lib.cuda_device_synchronize().expect("sync");
                }
            }
        }
        for lib in &mut libs {
            lib.cuda_device_synchronize().expect("final sync");
        }
        let cycles = libs[0].device_now_cycles();
        drop(libs);
        mgr.shutdown();
        cycles
    }
    for ack in [LaunchAck::Eager, LaunchAck::Deferred] {
        let tag = match ack {
            LaunchAck::Eager => "wire-eager",
            LaunchAck::Deferred => "wire-deferred",
        };
        let first = makespan(ack, tag);
        let second = makespan(ack, tag);
        println!("{tag} makespan: {first} cycles");
        assert_eq!(
            first, second,
            "{tag} runs diverged: {first} vs {second} cycles"
        );
    }
}
