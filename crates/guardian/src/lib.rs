//! # guardian — safe GPU sharing in multi-tenant environments
//!
//! The reproduction of the paper's contribution: transparent memory and
//! fault isolation for tenants sharing a GPU spatially, with no static
//! partitioning and no special hardware.
//!
//! Architecture (Figure 3 of the paper, as a layered RPC stack):
//!
//! * [`GrdLib`] — the client-side interposer. Implements the whole
//!   `cuda_rt::CudaApi` trait by encoding every call as a wire frame;
//!   applications (and the closed-source-style accelerated libraries they
//!   use) cannot reach the GPU any other way.
//! * [`proto`] — the wire protocol: typed request/response messages that
//!   serialize to self-contained byte frames (no channels or closures
//!   inside messages), so the tenant boundary could genuinely be a socket
//!   or shared-memory ring. There is one wire version,
//!   [`proto::PROTO_VERSION`]; a frame of any other version is refused
//!   as malformed.
//! * [`transport`] — how frames travel: `Connection`/`Listener`/`Dialer`
//!   traits with three implementations — in-process channels, Unix domain
//!   sockets ([`transport::uds`]), and shared-memory rings
//!   ([`transport::shm`]); one connection per tenant, the connection is
//!   the identity. The socket transports make tenants real OS processes
//!   (see the `guardiand` daemon crate).
//! * [`manager`] — the `grdManager` **control plane**: a serialized
//!   thread owning one partition table (power-of-two, contiguous —
//!   [`alloc`]) and one sandboxed-kernel registry **per GPU** of its
//!   device set; handles connect (routed across devices by
//!   [`placement`] — least-loaded, round-robin, or an explicit
//!   [`PlacementHint`]), disconnect, fatbin/PTX registration,
//!   malloc/free, live partition **migration** between GPUs, and a
//!   one-step rebalancer. A one-device set is exactly the single-GPU
//!   manager.
//! * `session` (internal) — the **data plane**: one session per tenant
//!   executing transfers, launches, syncs, and events concurrently
//!   across tenants against read-mostly shared state. A socket or shm
//!   session is a cell in the epoll executor pool (`exec`, internal,
//!   one worker per core); an in-process channel session, having no fd
//!   to poll, runs on its own thread. A session checks every host
//!   transfer against the partition bounds, swaps launches for sandboxed
//!   kernels with the caller's bounds appended, and issues on the
//!   tenant's stream of its **bound GPU** (ops hold the binding read
//!   lock, so a migration's write acquisition is the barrier). OOB
//!   detection kills only the offender — keyed by `(gpu, stream)` —
//!   whichever session observes the fault.
//! * [`control`] — the node **control plane** riding above the manager:
//!   tenant leases ([`LeaseSpec`] — memory cap, stream cap, TTL with
//!   manager-side expiry sweep and operator revocation), per-uid quota
//!   and usage accounting that survives tenant death, a per-uid
//!   connect-rate token bucket ([`Admission`]) for the transport accept
//!   loops, and the admin plane (`guardianctl`'s uds endpoint plus an
//!   optional HTTP `/metrics` mirror) serving Prometheus-text metrics
//!   and live device/tenant tables.
//! * [`backends`] — deployment setups for the paper's comparisons:
//!   native time-sharing, MPS-style spatial sharing (protection without
//!   fault isolation), and Guardian in its three enforcement modes.
//!
//! The PTX-level instrumentation itself lives in the `ptx-patcher` crate;
//! the manager applies it to every registered fatbin at initialization.
//!
//! # Examples
//!
//! Two tenants, one GPU, full isolation:
//!
//! ```
//! use guardian::backends::{deploy, Deployment};
//! use gpu_sim::{spec::test_gpu, Device};
//!
//! let device = cuda_rt::share_device(Device::new(test_gpu()));
//! let tenancy = deploy(
//!     &device,
//!     Deployment::GuardianFencing,
//!     2,                 // tenants
//!     4 << 20,           // 4 MiB partition each
//!     &[],               // fatbins registered later
//! )?;
//! let mut tenants = tenancy.runtimes;
//! let a = tenants[0].cuda_malloc(4096)?;
//! let b = tenants[1].cuda_malloc(4096)?;
//! assert_ne!(a, b);
//! // Tenant 0 cannot copy into tenant 1's partition:
//! assert!(tenants[0].cuda_memcpy_h2d(b, &[0u8; 16]).is_err());
//! // Teardown is Drop-based: tenants disconnect, then the manager handle
//! // joins the manager threads. (`Tenancy::shutdown`/`ManagerHandle::
//! // shutdown` remain as explicit eager paths.)
//! # Ok::<(), cuda_rt::CudaError>(())
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod alloc_audit;
pub mod backends;
pub mod control;
mod exec;
pub mod grdlib;
pub mod manager;
pub mod placement;
pub mod proto;
mod session;
pub mod telemetry;
pub mod transport;

pub use alloc::{AllocError, Partition, PartitionAllocator, RegionAllocator};
pub use backends::{deploy, Capabilities, Deployment, MpsClient, Tenancy};
pub use control::{Admission, ControlPlane, LeaseSpec, QosClass};
pub use grdlib::GrdLib;
pub use manager::{
    spawn_manager, spawn_manager_multi, spawn_manager_over, ClientId, InterceptionStats, LaunchAck,
    LaunchStats, LogLevel, ManagerConfig, ManagerHandle,
};
pub use placement::{Affinity, PlacementHint, PlacementPolicy};
pub use ptx_patcher::Protection;
pub use transport::BoundTransport;

pub mod fixtures {
    //! PTX kernel fixtures shared by guardian's unit tests, the
    //! workspace stress suite, and the dispatch benches — one canonical
    //! copy so the kernels the security tests confine are byte-identical
    //! to the ones the stress/throughput harnesses drive. Also hosts the
    //! socket-path helper the transport tests and benches share.

    /// A fresh, collision-free socket path in the system temp directory.
    /// Test/bench support for the socket transports: unique per call
    /// (process id + counter) so concurrently running suites never race
    /// on a path.
    pub fn temp_socket_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("grd-{}-{tag}-{n}.sock", std::process::id()))
    }

    /// A well-behaved kernel writing `tid` into `out[tid]` (`fill`).
    pub const FILL: &str = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry fill(.param .u64 out, .param .u32 n)
{
    .reg .pred %p<2>;
    .reg .b32 %r<6>;
    .reg .b64 %rd<5>;
    ld.param.u64 %rd1, [out];
    ld.param.u32 %r1, [n];
    cvta.to.global.u64 %rd2, %rd1;
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r5, %r1;
    @%p1 bra $L_end;
    mul.wide.u32 %rd3, %r5, 4;
    add.s64 %rd4, %rd2, %rd3;
    st.global.u32 [%rd4], %r5;
$L_end:
    ret;
}
"#;

    /// A malicious kernel: writes a value at an arbitrary 64-bit address
    /// taken from its arguments (`stomp`, the Figure 1 attack).
    pub const STOMP: &str = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry stomp(.param .u64 target, .param .u32 v)
{
    .reg .b32 %r<2>;
    .reg .b64 %rd<2>;
    ld.param.u64 %rd1, [target];
    ld.param.u32 %r1, [v];
    st.global.u32 [%rd1], %r1;
    ret;
}
"#;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::mig_capabilities;
    use crate::fixtures::{FILL as GOOD, STOMP as EVIL};
    use cuda_rt::{share_device, ArgPack, CudaError};
    use gpu_sim::spec::test_gpu;
    use gpu_sim::{Device, LaunchConfig};
    use ptx::fatbin::FatBin;

    fn fatbin() -> Vec<u8> {
        let mut fb = FatBin::new();
        fb.push_ptx("app", GOOD);
        fb.push_ptx("attack", EVIL);
        fb.to_bytes().to_vec()
    }

    fn setup(deployment: Deployment, tenants: usize) -> Tenancy {
        let device = share_device(Device::new(test_gpu()));
        let fb = fatbin();
        deploy(&device, deployment, tenants, 4 << 20, &[&fb]).unwrap()
    }

    #[test]
    fn guardian_tenant_runs_end_to_end() {
        let mut t = setup(Deployment::GuardianFencing, 1);
        let api = &mut t.runtimes[0];
        let buf = api.cuda_malloc(4 * 64).unwrap();
        let args = ArgPack::new().ptr(buf).u32(64).finish();
        api.cuda_launch_kernel(
            "fill",
            LaunchConfig::linear(2, 32),
            &args,
            Default::default(),
        )
        .unwrap();
        api.cuda_device_synchronize().unwrap();
        let out = api.cuda_memcpy_d2h(buf, 4 * 64).unwrap();
        for i in 0..64u32 {
            let v = u32::from_le_bytes(out[i as usize * 4..][..4].try_into().unwrap());
            assert_eq!(v, i);
        }
        t.shutdown();
    }

    #[test]
    fn fencing_confines_the_figure1_attack() {
        let mut t = setup(Deployment::GuardianFencing, 2);
        // Victim writes a secret.
        let victim_buf = t.runtimes[1].cuda_malloc(4096).unwrap();
        t.runtimes[1]
            .cuda_memcpy_h2d(victim_buf, &0xDEAD_BEEFu32.to_le_bytes())
            .unwrap();
        // Attacker aims a store directly at the victim's buffer address.
        let args = ArgPack::new().ptr(victim_buf).u32(0x41414141).finish();
        t.runtimes[0]
            .cuda_launch_kernel(
                "stomp",
                LaunchConfig::linear(1, 1),
                &args,
                Default::default(),
            )
            .unwrap();
        t.runtimes[0].cuda_device_synchronize().unwrap();
        // The victim's data is intact: the store wrapped into the
        // attacker's own partition (Figure 4).
        let out = t.runtimes[1].cuda_memcpy_d2h(victim_buf, 4).unwrap();
        assert_eq!(u32::from_le_bytes(out.try_into().unwrap()), 0xDEAD_BEEF);
        // And the victim keeps running fine.
        t.runtimes[1].cuda_device_synchronize().unwrap();
        t.shutdown();
    }

    #[test]
    fn no_protection_lets_the_attack_corrupt() {
        let mut t = setup(Deployment::GuardianNoProtection, 2);
        let victim_buf = t.runtimes[1].cuda_malloc(4096).unwrap();
        t.runtimes[1]
            .cuda_memcpy_h2d(victim_buf, &0xDEAD_BEEFu32.to_le_bytes())
            .unwrap();
        let args = ArgPack::new().ptr(victim_buf).u32(0x41414141).finish();
        t.runtimes[0]
            .cuda_launch_kernel(
                "stomp",
                LaunchConfig::linear(1, 1),
                &args,
                Default::default(),
            )
            .unwrap();
        t.runtimes[0].cuda_device_synchronize().unwrap();
        let out = t.runtimes[1].cuda_memcpy_d2h(victim_buf, 4).unwrap();
        // Silent corruption: exactly the hazard Guardian exists to stop.
        assert_eq!(u32::from_le_bytes(out.try_into().unwrap()), 0x4141_4141);
        t.shutdown();
    }

    #[test]
    fn checking_detects_and_kills_only_the_offender() {
        let mut t = setup(Deployment::GuardianChecking, 2);
        let victim_buf = t.runtimes[1].cuda_malloc(4096).unwrap();
        t.runtimes[1]
            .cuda_memcpy_h2d(victim_buf, &7u32.to_le_bytes())
            .unwrap();
        let args = ArgPack::new().ptr(victim_buf).u32(0x41414141).finish();
        t.runtimes[0]
            .cuda_launch_kernel(
                "stomp",
                LaunchConfig::linear(1, 1),
                &args,
                Default::default(),
            )
            .unwrap();
        // The offender is terminated at its next synchronization point...
        assert!(t.runtimes[0].cuda_device_synchronize().is_err());
        let r = t.runtimes[0].cuda_malloc(16);
        assert!(matches!(r, Err(CudaError::Rejected(_))));
        // ...while the victim continues unharmed (OOB fault isolation).
        let out = t.runtimes[1].cuda_memcpy_d2h(victim_buf, 4).unwrap();
        assert_eq!(u32::from_le_bytes(out.try_into().unwrap()), 7);
        t.runtimes[1].cuda_device_synchronize().unwrap();
        t.shutdown();
    }

    #[test]
    fn mps_fault_takes_down_all_clients() {
        let mut t = setup(Deployment::Mps, 2);
        // Client 0 performs an ASID-violating access (aimed at client 1's
        // allocation address).
        let victim_buf = t.runtimes[1].cuda_malloc(4096).unwrap();
        let args = ArgPack::new().ptr(victim_buf).u32(1).finish();
        t.runtimes[0]
            .cuda_launch_kernel(
                "stomp",
                LaunchConfig::linear(1, 1),
                &args,
                Default::default(),
            )
            .unwrap();
        assert!(t.runtimes[0].cuda_device_synchronize().is_err());
        // The co-running *innocent* client is terminated too (§2.2).
        assert!(t.runtimes[1].cuda_device_synchronize().is_err());
        t.shutdown();
    }

    #[test]
    fn native_time_sharing_contains_faults() {
        let mut t = setup(Deployment::Native, 2);
        let victim_buf = t.runtimes[1].cuda_malloc(4096).unwrap();
        let args = ArgPack::new().ptr(victim_buf).u32(1).finish();
        t.runtimes[0]
            .cuda_launch_kernel(
                "stomp",
                LaunchConfig::linear(1, 1),
                &args,
                Default::default(),
            )
            .unwrap();
        assert!(t.runtimes[0].cuda_device_synchronize().is_err());
        // Time-sharing: the other context is unaffected.
        t.runtimes[1].cuda_device_synchronize().unwrap();
        t.shutdown();
    }

    #[test]
    fn transfers_outside_partition_are_rejected() {
        let mut t = setup(Deployment::GuardianFencing, 2);
        let own = t.runtimes[0].cuda_malloc(4096).unwrap();
        let other = t.runtimes[1].cuda_malloc(4096).unwrap();
        // Own partition: OK.
        t.runtimes[0].cuda_memcpy_h2d(own, &[1u8; 64]).unwrap();
        // Foreign destination: rejected by the bounds table.
        assert!(matches!(
            t.runtimes[0].cuda_memcpy_h2d(other, &[1u8; 64]),
            Err(CudaError::Rejected(_))
        ));
        // Foreign source for D2D: rejected.
        assert!(t.runtimes[0].cuda_memcpy_d2d(own, other, 64).is_err());
        // D2H from foreign memory (data theft): rejected.
        assert!(t.runtimes[0].cuda_memcpy_d2h(other, 64).is_err());
        t.shutdown();
    }

    #[test]
    fn kernel_reuse_attack_runs_in_callers_partition() {
        // §5: kernels are shared, but each launch gets the *caller's*
        // bounds. Tenant 0 launching the same sandboxed kernel as tenant 1
        // can only touch tenant 0's partition.
        let mut t = setup(Deployment::GuardianFencing, 2);
        let b0 = t.runtimes[0].cuda_malloc(256).unwrap();
        let b1 = t.runtimes[1].cuda_malloc(256).unwrap();
        t.runtimes[1].cuda_memcpy_h2d(b1, &[9u8; 4]).unwrap();
        // Both tenants use kernel `fill` (shared PTX), each on their own.
        for (i, buf) in [(0usize, b0), (1usize, b1)] {
            let args = ArgPack::new().ptr(buf).u32(8).finish();
            t.runtimes[i]
                .cuda_launch_kernel(
                    "fill",
                    LaunchConfig::linear(1, 8),
                    &args,
                    Default::default(),
                )
                .unwrap();
            t.runtimes[i].cuda_device_synchronize().unwrap();
        }
        let o0 = t.runtimes[0].cuda_memcpy_d2h(b0, 32).unwrap();
        let o1 = t.runtimes[1].cuda_memcpy_d2h(b1, 32).unwrap();
        assert_eq!(o0, o1, "same kernel, each confined to its own buffer");
        t.shutdown();
    }

    #[test]
    fn interception_stats_are_recorded() {
        let mut t = setup(Deployment::GuardianFencing, 1);
        let buf = t.runtimes[0].cuda_malloc(1024).unwrap();
        let args = ArgPack::new().ptr(buf).u32(16).finish();
        for _ in 0..10 {
            t.runtimes[0]
                .cuda_launch_kernel(
                    "fill",
                    LaunchConfig::linear(1, 16),
                    &args,
                    Default::default(),
                )
                .unwrap();
        }
        t.runtimes[0].cuda_device_synchronize().unwrap();
        let stats = t.manager.as_ref().unwrap().interception_stats();
        assert_eq!(stats.launches, 10);
        assert!(stats.lookup_cycles() > 0.0);
        t.shutdown();
    }

    #[test]
    fn partition_exhaustion_is_oom() {
        let device = share_device(Device::new(test_gpu()));
        let manager = spawn_manager(
            device,
            ManagerConfig {
                pool_bytes: Some(4 << 20),
                ..Default::default()
            },
            &[],
        )
        .unwrap();
        let _a = GrdLib::connect(&manager, 2 << 20).unwrap();
        let _b = GrdLib::connect(&manager, 2 << 20).unwrap();
        assert!(matches!(
            GrdLib::connect(&manager, 1 << 20),
            Err(CudaError::OutOfMemory)
        ));
        drop((_a, _b));
        manager.shutdown();
    }

    #[test]
    fn partition_is_reclaimed_after_disconnect() {
        let device = share_device(Device::new(test_gpu()));
        let manager = spawn_manager(
            device,
            ManagerConfig {
                pool_bytes: Some(4 << 20),
                ..Default::default()
            },
            &[],
        )
        .unwrap();
        {
            let _a = GrdLib::connect(&manager, 4 << 20).unwrap();
            assert!(GrdLib::connect(&manager, 4 << 20).is_err());
        }
        // After drop the partition can be granted again (allow the
        // manager thread a moment to process the disconnect).
        let mut ok = false;
        for _ in 0..100 {
            if GrdLib::connect(&manager, 4 << 20).is_ok() {
                ok = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(ok, "partition not reclaimed");
        manager.shutdown();
    }

    #[test]
    fn table1_capability_matrix_matches_paper() {
        use Deployment::*;
        assert!(Native.capabilities().oob_fault_isolation);
        assert!(!Native.capabilities().spatial_sharing);
        assert!(!Mps.capabilities().oob_fault_isolation);
        assert!(Mps.capabilities().spatial_sharing);
        let g = GuardianFencing.capabilities();
        assert!(
            g.oob_fault_isolation
                && g.dynamic_resource_allocation
                && g.no_hw_support
                && g.spatial_sharing
        );
        let mig = mig_capabilities();
        assert!(mig.oob_fault_isolation && !mig.dynamic_resource_allocation);
    }

    #[test]
    fn concurrent_tenants_from_threads() {
        // Tenants drive the manager from separate threads, as real
        // processes would.
        let mut t = setup(Deployment::GuardianFencing, 3);
        let mut handles = Vec::new();
        for (i, mut rt) in t.runtimes.drain(..).enumerate() {
            handles.push(std::thread::spawn(move || {
                let buf = rt.cuda_malloc(4 * 128).unwrap();
                let args = ArgPack::new().ptr(buf).u32(128).finish();
                for _ in 0..5 {
                    rt.cuda_launch_kernel(
                        "fill",
                        LaunchConfig::linear(4, 32),
                        &args,
                        Default::default(),
                    )
                    .unwrap();
                }
                rt.cuda_device_synchronize().unwrap();
                let out = rt.cuda_memcpy_d2h(buf, 4 * 128).unwrap();
                for j in 0..128u32 {
                    let v = u32::from_le_bytes(out[j as usize * 4..][..4].try_into().unwrap());
                    assert_eq!(v, j, "tenant {i}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        if let Some(m) = t.manager.take() {
            m.shutdown();
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::alloc::{PartitionAllocator, RegionAllocator, MIN_PARTITION};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Buddy invariant: live partitions never overlap and are always
        /// self-aligned, under arbitrary alloc/free interleavings.
        #[test]
        fn buddy_never_overlaps(ops in proptest::collection::vec((0u8..2, 0usize..8, 1u64..8), 1..60)) {
            let mut pa = PartitionAllocator::new(1 << 40, 64 * MIN_PARTITION);
            let mut live: Vec<super::alloc::Partition> = Vec::new();
            for (op, idx, size_mult) in ops {
                if op == 0 {
                    if let Ok(p) = pa.alloc(size_mult * MIN_PARTITION) {
                        for q in &live {
                            prop_assert!(p.end() <= q.base || q.end() <= p.base);
                        }
                        prop_assert_eq!(p.base % p.size, 0);
                        live.push(p);
                    }
                } else if !live.is_empty() {
                    let p = live.swap_remove(idx % live.len());
                    prop_assert!(pa.free(p.base).is_ok());
                }
            }
            // Cleanup: everything freeable, pool fully restored.
            for p in live.drain(..) {
                prop_assert!(pa.free(p.base).is_ok());
            }
            prop_assert!(pa.alloc(64 * MIN_PARTITION).is_ok());
        }

        /// Region allocator: allocations stay in-partition and never
        /// overlap.
        #[test]
        fn region_allocs_disjoint(sizes in proptest::collection::vec(1u64..100_000, 1..40)) {
            let part = super::alloc::Partition { base: 1 << 40, size: 16 * MIN_PARTITION };
            let mut ra = RegionAllocator::new(part);
            let mut live: Vec<(u64, u64)> = Vec::new();
            for s in sizes {
                if let Ok(a) = ra.alloc(s) {
                    prop_assert!(part.contains_range(a, s));
                    for &(b, l) in &live {
                        prop_assert!(a + s <= b || b + l <= a, "overlap");
                    }
                    live.push((a, s));
                }
            }
        }
    }
}
