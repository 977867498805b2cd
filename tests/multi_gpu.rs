//! Multi-GPU manager acceptance: one grdManager owning a **device set**,
//! exercised end to end in a single scenario family —
//!
//! * hint-pinned placement (strict hints land exactly where asked, or
//!   fail rather than spill),
//! * least-loaded default routing,
//! * one **live migration** with the tenant's data checksummed before
//!   and after the move, while other tenants keep launching,
//! * an OOB fault on GPU 0 killing only the offender while GPU 1's
//!   tenants make verified progress,
//! * and the control-plane rebalancer converging a skewed placement.

use cuda_rt::{share_device, ArgPack, CudaApi, CudaError};
use gpu_sim::spec::test_gpu;
use gpu_sim::LaunchConfig;
use guardian::{
    spawn_manager_multi, BoundTransport, GrdLib, ManagerConfig, PlacementHint, PlacementPolicy,
    Protection,
};
use ptx::fatbin::FatBin;

fn fatbin() -> Vec<u8> {
    let mut fb = FatBin::new();
    fb.push_ptx("app", guardian::fixtures::FILL);
    fb.push_ptx("attack", guardian::fixtures::STOMP);
    fb.to_bytes().to_vec()
}

fn two_gpu_manager(protection: Protection, pool: u64) -> guardian::ManagerHandle {
    let devices = gpu_sim::device_set(vec![test_gpu(), test_gpu()])
        .into_iter()
        .map(share_device)
        .collect();
    let fb = fatbin();
    spawn_manager_multi(
        devices,
        ManagerConfig {
            protection,
            pool_bytes: Some(pool),
            placement: PlacementPolicy::LeastLoaded,
            ..ManagerConfig::default()
        },
        &[&fb],
        BoundTransport::channel(),
    )
    .unwrap()
}

fn run_fill(lib: &mut GrdLib, n: u32) -> Vec<u8> {
    let buf = lib.cuda_malloc(4 * n as u64).unwrap();
    let args = ArgPack::new().ptr(buf).u32(n).finish();
    lib.cuda_launch_kernel(
        "fill",
        LaunchConfig::linear(n.div_ceil(32), 32),
        &args,
        Default::default(),
    )
    .unwrap();
    lib.cuda_device_synchronize().unwrap();
    let out = lib.cuda_memcpy_d2h(buf, 4 * n as u64).unwrap();
    for i in 0..n {
        let v = u32::from_le_bytes(out[i as usize * 4..][..4].try_into().unwrap());
        assert_eq!(v, i);
    }
    // Churn loops call this unboundedly; don't leak the partition heap.
    lib.cuda_free(buf).unwrap();
    out
}

/// The ISSUE's 4-tenant / 2-GPU scenario, in one test: pinning, default
/// routing, live migration with checksum, and cross-GPU fault isolation.
#[test]
fn four_tenants_two_gpus_end_to_end() {
    // Protection::Check so the OOB act is *detected* (fencing would wrap
    // it harmlessly) — the paper's detection/debugging mode.
    let mgr = two_gpu_manager(Protection::Check, 16 << 20);
    assert_eq!(mgr.device_count(), 2);

    // --- hint-pinned placement --------------------------------------
    let mut t0 = GrdLib::connect_hinted(&mgr, 4 << 20, Some(PlacementHint::pin(0))).unwrap();
    let mut t1 = GrdLib::connect_hinted(&mgr, 4 << 20, Some(PlacementHint::pin(1))).unwrap();
    assert_eq!(t0.device(), 0, "strict hint must land on device 0");
    assert_eq!(t1.device(), 1, "strict hint must land on device 1");

    // --- least-loaded default routing --------------------------------
    // Both devices carry one 4 MiB tenant; the next two un-hinted
    // connects must spread, one per device.
    let mut t2 = GrdLib::connect(&mgr, 4 << 20).unwrap();
    let t3 = GrdLib::connect(&mgr, 4 << 20).unwrap();
    assert_ne!(
        t2.device(),
        t3.device(),
        "least-loaded routing must spread equal tenants across devices"
    );
    let infos = mgr.device_infos().unwrap();
    assert_eq!(infos.len(), 2);
    for info in &infos {
        assert_eq!(info.tenants, 2, "two tenants per device: {infos:?}");
        assert_eq!(info.used_bytes, 8 << 20);
        assert_eq!(info.pool_bytes, 16 << 20);
    }

    // --- live migration with data intact ------------------------------
    // t2 seeds a recognizable pattern, checksums it, migrates to the
    // other GPU — while t0 and t1 hammer their own data planes from
    // other threads — and verifies the checksum at the new address.
    let payload: Vec<u8> = (0..8192u32).flat_map(|i| i.to_le_bytes()).collect();
    let before_buf = t2.cuda_malloc(payload.len() as u64).unwrap();
    t2.cuda_memcpy_h2d(before_buf, &payload).unwrap();
    let checksum = |bytes: &[u8]| -> u64 {
        bytes
            .iter()
            .fold(0u64, |h, &b| h.wrapping_mul(131).wrapping_add(b as u64))
    };
    let sum_before = checksum(
        &t2.cuda_memcpy_d2h(before_buf, payload.len() as u64)
            .unwrap(),
    );

    let src_device = t2.device();
    let dst_device = 1 - src_device;
    let (old_base, old_size) = t2.partition();

    // Other tenants' data planes must be undisturbed during the move.
    // The churn thread reports each round, so the move below provably
    // runs amid churn even when every thread shares one CPU.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (round_tx, rounds) = std::sync::mpsc::channel();
    let churn = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut n = 0u32;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                run_fill(&mut t0, 64);
                run_fill(&mut t1, 64);
                n += 1;
                let _ = round_tx.send(n);
            }
            (t0, t1, n)
        })
    };

    rounds.recv().expect("churn thread died");
    let delta = t2.migrate(dst_device).unwrap();
    assert_eq!(t2.device(), dst_device, "migration must rebind the device");
    let (new_base, new_size) = t2.partition();
    assert_eq!(new_size, old_size, "migration is a same-size move");
    assert_eq!(delta, new_base.wrapping_sub(old_base));

    let after_buf = before_buf.wrapping_add(delta);
    let sum_after = checksum(&t2.cuda_memcpy_d2h(after_buf, payload.len() as u64).unwrap());
    assert_eq!(sum_before, sum_after, "data corrupted by migration");
    // The migrated tenant's data plane works on the new device.
    run_fill(&mut t2, 128);

    // And the others kept going after it.
    let before_stop = rounds.try_iter().last().unwrap_or(0);
    while rounds.recv().expect("churn thread died") <= before_stop + 1 {}
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let (t0, t1, churn_rounds) = churn.join().unwrap();
    assert!(churn_rounds > 1, "churn thread never ran");

    // Source pool bytes were reclaimed; destination gained them.
    let infos = mgr.device_infos().unwrap();
    assert_eq!(infos[src_device as usize].used_bytes, 4 << 20);
    assert_eq!(infos[dst_device as usize].used_bytes, 12 << 20);

    // --- OOB on GPU 0 kills only the offender -------------------------
    // t2 migrated off src_device; the tenant still on device 0 attacks.
    let (attacker, mut survivor) = if t0.device() == 0 { (t0, t1) } else { (t1, t0) };
    let mut attacker = attacker;
    let (base, size) = attacker.partition();
    let args = ArgPack::new().ptr(base + size).u32(0x4141_4141).finish();
    attacker
        .cuda_launch_kernel(
            "stomp",
            LaunchConfig::linear(1, 1),
            &args,
            Default::default(),
        )
        .unwrap();
    assert!(
        attacker.cuda_device_synchronize().is_err(),
        "checking mode must detect the OOB store"
    );
    assert!(
        matches!(attacker.cuda_malloc(16), Err(CudaError::Rejected(_))),
        "the kill must be sticky"
    );
    // GPU 1 tenants make verified progress after the fault on GPU 0.
    assert_eq!(survivor.device(), 1);
    run_fill(&mut survivor, 256);
    run_fill(&mut t2, 256);

    drop((attacker, survivor, t2, t3));
    mgr.shutdown();
}

/// Migration invalidates events recorded on the source device: their
/// timestamps are that device's cycle counts, incomparable with the
/// destination's clock — a stale handle must error, never produce a
/// garbage elapsed time.
#[test]
fn migration_invalidates_recorded_events() {
    let mgr = two_gpu_manager(Protection::FenceBitwise, 8 << 20);
    let mut t = GrdLib::connect_hinted(&mgr, 2 << 20, Some(PlacementHint::pin(0))).unwrap();
    let before = t.cuda_event_create_with_flags(0).unwrap();
    t.cuda_event_record(before, Default::default()).unwrap();
    t.cuda_device_synchronize().unwrap();
    t.migrate(1).unwrap();
    let after = t.cuda_event_create_with_flags(0).unwrap();
    t.cuda_event_record(after, Default::default()).unwrap();
    t.cuda_device_synchronize().unwrap();
    assert!(
        t.cuda_event_elapsed_ms(before, after).is_err(),
        "cross-device elapsed must be rejected"
    );
    // Fresh events on the destination work normally.
    let after2 = t.cuda_event_create_with_flags(0).unwrap();
    t.cuda_event_record(after2, Default::default()).unwrap();
    t.cuda_device_synchronize().unwrap();
    assert!(t.cuda_event_elapsed_ms(after, after2).is_ok());
    drop(t);
    mgr.shutdown();
}

/// A strict hint whose device cannot host the tenant fails instead of
/// spilling; a `prefer` hint spills to the policy's choice.
#[test]
fn strict_hints_fail_instead_of_spilling() {
    let mgr = two_gpu_manager(Protection::FenceBitwise, 8 << 20);
    // Fill device 0 completely.
    let _pin = GrdLib::connect_hinted(&mgr, 8 << 20, Some(PlacementHint::pin(0))).unwrap();
    // Strict: no capacity on 0 → OutOfMemory, even though 1 is empty.
    assert!(matches!(
        GrdLib::connect_hinted(&mgr, 1 << 20, Some(PlacementHint::pin(0))),
        Err(CudaError::OutOfMemory)
    ));
    // Prefer: spills onto device 1.
    let spilled = GrdLib::connect_hinted(&mgr, 1 << 20, Some(PlacementHint::prefer(0))).unwrap();
    assert_eq!(spilled.device(), 1);
    // Unknown device: rejected outright.
    assert!(matches!(
        GrdLib::connect_hinted(&mgr, 1 << 20, Some(PlacementHint::pin(9))),
        Err(CudaError::Rejected(_))
    ));
    drop(spilled);
    drop(_pin);
    mgr.shutdown();
}

/// The control-plane rebalancer narrows a skewed placement one migration
/// at a time, and reports balance once converged.
#[test]
fn rebalancer_converges_skewed_placement() {
    let mgr = two_gpu_manager(Protection::FenceBitwise, 16 << 20);
    // Pin four tenants onto device 0; device 1 idles.
    let mut tenants: Vec<GrdLib> = (0..4)
        .map(|_| GrdLib::connect_hinted(&mgr, 2 << 20, Some(PlacementHint::pin(0))).unwrap())
        .collect();
    // Seed each with a distinct pattern so moves are data-checked.
    let mut bufs = Vec::new();
    for (i, t) in tenants.iter_mut().enumerate() {
        let buf = t.cuda_malloc(1024).unwrap();
        t.cuda_memcpy_h2d(buf, &[i as u8 + 1; 1024]).unwrap();
        bufs.push(buf);
    }
    let mut moves = 0;
    while let Some((_client, src, dst)) = mgr.rebalance().unwrap() {
        assert_eq!((src, dst), (0, 1));
        moves += 1;
        assert!(moves <= 4, "rebalancer failed to converge");
    }
    // 8 MiB vs 0 → two moves lands at 4 MiB vs 4 MiB; a third would
    // only re-skew, so the rebalancer must stop at two.
    assert_eq!(moves, 2, "expected exactly two migrations to balance");
    let infos = mgr.device_infos().unwrap();
    assert_eq!(infos[0].used_bytes, infos[1].used_bytes);
    assert_eq!(infos[0].tenants, 2);
    assert_eq!(infos[1].tenants, 2);
    // Every tenant — moved or not — still sees its own pattern. Moved
    // tenants' cached pointers are stale until they `refresh()`; the
    // delta translates pre-move allocations to the new frame.
    // (delta may be 0 even for a moved tenant — the two devices' address
    // spaces are independent and can coincide numerically — so count
    // moves by device, not by delta.)
    let mut moved_tenants = 0;
    for (i, t) in tenants.iter_mut().enumerate() {
        let delta = t.refresh().unwrap();
        if t.device() == 1 {
            moved_tenants += 1;
        }
        let data = t
            .cuda_memcpy_d2h(bufs[i].wrapping_add(delta), 1024)
            .unwrap();
        assert_eq!(data, vec![i as u8 + 1; 1024], "tenant {i} data lost");
    }
    assert_eq!(moved_tenants, 2, "exactly two tenants now live on device 1");
    drop(tenants);
    mgr.shutdown();
}

/// Candidate choice is activity-aware: with an idle 8 MiB tenant and a
/// hot 2 MiB one crowding device 0, the rebalancer migrates the idle
/// tenant even though the hot one is smaller — moving it pauses nobody,
/// while moving the hot tenant would stall its launch stream behind the
/// copy barrier.
#[test]
fn rebalancer_prefers_idle_tenant_over_hot_smaller_one() {
    let mgr = two_gpu_manager(Protection::FenceBitwise, 16 << 20);
    let mut idle = GrdLib::connect_hinted(&mgr, 8 << 20, Some(PlacementHint::pin(0))).unwrap();
    let mut hot = GrdLib::connect_hinted(&mgr, 2 << 20, Some(PlacementHint::pin(0))).unwrap();
    // Make the small tenant unambiguously hot: a burst of launches the
    // idle tenant never matches.
    let buf = hot.cuda_malloc(4 * 64).unwrap();
    let args = ArgPack::new().ptr(buf).u32(64).finish();
    for _ in 0..16 {
        hot.cuda_launch_kernel(
            "fill",
            LaunchConfig::linear(2, 32),
            &args,
            Default::default(),
        )
        .unwrap();
    }
    hot.cuda_device_synchronize().unwrap();

    let (_client, src, dst) = mgr
        .rebalance()
        .unwrap()
        .expect("skewed placement must produce a migration");
    assert_eq!((src, dst), (0, 1));
    idle.refresh().unwrap();
    hot.refresh().unwrap();
    assert_eq!(idle.device(), 1, "the idle tenant is the one that moved");
    assert_eq!(hot.device(), 0, "the hot tenant stays put");
    drop((idle, hot));
    mgr.shutdown();
}

/// Default pool sizing targets half of the device's *total* memory: on
/// the 64 MiB test GPU the context's 1 MiB scratch must not demote the
/// pool to 16 MiB (sizing from free memory alone loses a whole
/// power-of-two doubling).
#[test]
fn default_pool_is_half_of_total_memory_despite_context_overhead() {
    let devices = vec![share_device(gpu_sim::Device::new(test_gpu()))];
    let fb = fatbin();
    let mgr = spawn_manager_multi(
        devices,
        ManagerConfig::default(), // pool_bytes: None — the sizing under test
        &[&fb],
        BoundTransport::channel(),
    )
    .unwrap();
    let infos = mgr.device_infos().unwrap();
    assert_eq!(
        infos[0].pool_bytes,
        32 << 20,
        "64 MiB device must yield a 32 MiB default pool"
    );
    mgr.shutdown();
}

/// Session-served `malloc`/`free` racing live migrations and a teardown.
/// The tenant's two partitions (GPU 0 and GPU 1) are numerically disjoint
/// — a filler tenant holds GPU 1's first — so every pointer names the
/// binding it was carved from, and a stale one is refused, never
/// misdirected. A shared phase counter (odd while a migration is in
/// flight) tells the allocating thread which bindings a call could have
/// seen. Checked: every returned pointer lies in the binding current at
/// return; a refused address or free only ever follows a migration;
/// `bytes_held` equals the heap's usage; the lease cap holds to the byte;
/// a tenant revoked mid-churn gets typed errors from then on and its
/// partition comes back.
#[test]
fn session_malloc_free_race_migration_and_teardown() {
    use guardian::LeaseSpec;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
    use std::sync::Arc;

    const CAP: u64 = 640 << 10;
    const GRAIN: u64 = 256;
    let devices = gpu_sim::device_set(vec![test_gpu(), test_gpu()])
        .into_iter()
        .map(share_device)
        .collect();
    let mgr = spawn_manager_multi(
        devices,
        ManagerConfig {
            pool_bytes: Some(8 << 20),
            lease_default: Some(LeaseSpec::parse("mem=640K").unwrap()),
            ..ManagerConfig::default()
        },
        &[],
        BoundTransport::channel(),
    )
    .unwrap();
    let _filler = GrdLib::connect_hinted(&mgr, CAP, Some(PlacementHint::pin(1))).unwrap();
    let mut t = GrdLib::connect_hinted(&mgr, CAP, Some(PlacementHint::pin(0))).unwrap();
    let id = t.client_id();
    let held = |mgr: &guardian::ManagerHandle| {
        mgr.control_plane()
            .tenants_table()
            .into_iter()
            .find(|r| r.client == id.0)
            .map(|r| r.bytes_held)
    };
    let (size, bases) = {
        let (b0, size) = t.partition();
        let (b1, _) = mgr.migrate_partition(id, 1).unwrap();
        assert_eq!(mgr.migrate_partition(id, 0).unwrap().0, b0);
        assert!(
            b1 >= b0 + size || b1 + size <= b0,
            "partitions must be disjoint"
        );
        (size, [b0, b1])
    };
    let gpu_of = |phase: u64| ((phase / 2) % 2) as usize;
    let home = move |p: u64| (0..2).find(|&g| p >= bases[g] && p < bases[g] + size);
    let phase = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));

    let worker = {
        let (phase, stop, ops) = (phase.clone(), stop.clone(), ops.clone());
        std::thread::spawn(move || {
            // Live blocks as (partition offset, rounded size, tag).
            let mut live: Vec<(u64, u64, u64)> = Vec::new();
            let mut rng = 0x2545_F491_4F6C_DD1Du64;
            // Retry an address-taking call until it lands on the current
            // binding; a refusal must be explained by a migration.
            let at_current = |off: u64, f: &mut dyn FnMut(u64) -> Result<(), CudaError>| loop {
                let ph = phase.load(SeqCst);
                if ph % 2 == 1 {
                    std::thread::yield_now();
                    continue;
                }
                match f(bases[gpu_of(ph)] + off) {
                    Ok(()) => return,
                    Err(e) => {
                        assert_ne!(phase.load(SeqCst), ph, "refused without a migration: {e}")
                    }
                }
            };
            while !stop.load(SeqCst) {
                ops.fetch_add(1, SeqCst);
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let used: u64 = live.iter().map(|b| b.1).sum();
                if live.len() < 6 || !rng.is_multiple_of(3) {
                    let bytes: u64 = [1, 200, 256, 1000, 4096, 20_000][(rng >> 8) as usize % 6];
                    let rounded = bytes.next_multiple_of(GRAIN);
                    let ph0 = phase.load(SeqCst);
                    let r = t.cuda_malloc(bytes);
                    let ph1 = phase.load(SeqCst);
                    let p = match r {
                        Ok(p) => p,
                        Err(CudaError::OutOfMemory) if used + rounded > CAP => continue,
                        Err(CudaError::OutOfMemory) => continue, // fragmentation
                        Err(e) => panic!("malloc failed: {e}"),
                    };
                    assert!(used + rounded <= CAP, "lease cap exceeded");
                    let g = home(p).unwrap_or_else(|| panic!("{p:#x} is in no partition"));
                    if ph0 == ph1 && ph0 % 2 == 0 {
                        assert_eq!(g, gpu_of(ph0), "pointer from a binding not current");
                    }
                    assert!(p + rounded <= bases[g] + size && p % GRAIN == 0);
                    let off = p - bases[g];
                    let tag = rng;
                    at_current(off, &mut |a| t.cuda_memcpy_h2d(a, &tag.to_le_bytes()));
                    live.push((off, rounded, tag));
                } else {
                    let (off, _, tag) = live.swap_remove((rng >> 8) as usize % live.len());
                    let mut seen = 0;
                    at_current(off, &mut |a| {
                        seen = u64::from_le_bytes(t.cuda_memcpy_d2h(a, 8)?.try_into().unwrap());
                        Ok(())
                    });
                    assert_eq!(seen, tag, "a live block was overwritten");
                    at_current(off, &mut |a| t.cuda_free(a));
                }
            }
            (t, live)
        })
    };
    // Migrate back and forth 24 times. The worker keeps operating during
    // each move, and gets a few operations in between moves — on one CPU,
    // back-to-back moves would otherwise starve it of the binding lock.
    let mut seen = 0;
    for _ in 0..12 {
        for dst in [1, 0] {
            while ops.load(SeqCst) < seen + 8 && !worker.is_finished() {
                std::thread::yield_now();
            }
            seen = ops.load(SeqCst);
            phase.fetch_add(1, SeqCst);
            mgr.migrate_partition(id, dst).unwrap();
            phase.fetch_add(1, SeqCst);
            assert!(held(&mgr).unwrap() <= CAP);
        }
    }
    stop.store(true, SeqCst);
    let (mut t, live) = worker.join().unwrap();
    let base = t.partition().0;
    assert_eq!(base, bases[0]);
    assert_eq!(
        held(&mgr),
        Some(live.iter().map(|b| b.1).sum()),
        "bytes_held != heap usage"
    );
    for (off, _, _) in live {
        t.cuda_free(base + off).unwrap();
    }
    assert_eq!(held(&mgr), Some(0));
    // The cap to the byte: CAP / GRAIN smallest blocks fit, one more not.
    for _ in 0..CAP / GRAIN {
        t.cuda_malloc(1).unwrap();
    }
    assert_eq!(held(&mgr), Some(CAP));
    assert_eq!(t.cuda_malloc(1), Err(CudaError::OutOfMemory));

    // Teardown mid-churn: a revoked tenant's next call fails typed, and
    // so does every call after it; its partition returns to the pool.
    let mut u = GrdLib::connect_hinted(&mgr, CAP, Some(PlacementHint::pin(0))).unwrap();
    let uid = u.client_id();
    let gpu0_used = mgr.device_infos().unwrap()[0].used_bytes;
    let churn = std::thread::spawn(move || {
        let mut ok = 0u64;
        loop {
            let r = u.cuda_malloc(4096).and_then(|p| u.cuda_free(p));
            match r {
                Ok(()) => ok += 1,
                Err(CudaError::Rejected(_)) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        for _ in 0..3 {
            assert!(matches!(u.cuda_malloc(16), Err(CudaError::Rejected(_))));
            assert!(matches!(u.cuda_free(0), Err(CudaError::Rejected(_))));
        }
        ok
    });
    mgr.revoke(uid).unwrap();
    churn.join().unwrap();
    assert!(mgr
        .control_plane()
        .tenants_table()
        .iter()
        .all(|r| r.client != uid.0));
    assert_eq!(
        mgr.device_infos().unwrap()[0].used_bytes,
        gpu0_used - (1 << 20)
    );
    drop((t, _filler));
    mgr.shutdown();
}
