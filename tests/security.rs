//! End-to-end security matrix (paper §5): the Figure 1 attack and data
//! exfiltration attempts under every deployment, with a victim actively
//! training alongside the attacker.

use cuda_rt::{share_device, ArgPack, CudaApi};
use frameworks::{train, Network, TrainConfig};
use gpu_sim::spec::test_gpu;
use gpu_sim::{Device, LaunchConfig};
use guardian::backends::{deploy, Deployment};
use ptx::fatbin::FatBin;

const EVIL: &str = r#"
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
.visible .entry peek(.param .u64 target, .param .u64 out)
{
    .reg .b32 %r<2>;
    .reg .b64 %rd<3>;
    ld.param.u64 %rd1, [target];
    ld.param.u64 %rd2, [out];
    ld.global.u32 %r1, [%rd1];
    st.global.u32 [%rd2], %r1;
    ret;
}
"#;

fn evil_fatbin() -> Vec<u8> {
    let mut fb = FatBin::new();
    fb.push_ptx("attack", EVIL);
    fb.to_bytes().to_vec()
}

/// Under fencing, a malicious *read* of another tenant's memory returns
/// data from the attacker's own partition — never the victim's bytes.
#[test]
fn fencing_blocks_data_exfiltration() {
    let device = share_device(Device::new(test_gpu()));
    let fb = evil_fatbin();
    let mut t = deploy(&device, Deployment::GuardianFencing, 2, 4 << 20, &[&fb]).unwrap();
    let secret_buf = t.runtimes[1].cuda_malloc(4096).unwrap();
    t.runtimes[1]
        .cuda_memcpy_h2d(secret_buf, &0x5EC2E7u32.to_le_bytes())
        .unwrap();
    let out = t.runtimes[0].cuda_malloc(4096).unwrap();
    t.runtimes[0].cuda_memset(out, 0, 4).unwrap();
    let args = ArgPack::new().ptr(secret_buf).ptr(out).finish();
    t.runtimes[0]
        .cuda_launch_kernel(
            "peek",
            LaunchConfig::linear(1, 1),
            &args,
            Default::default(),
        )
        .unwrap();
    t.runtimes[0].cuda_device_synchronize().unwrap();
    let stolen = t.runtimes[0].cuda_memcpy_d2h(out, 4).unwrap();
    assert_ne!(
        u32::from_le_bytes(stolen.try_into().unwrap()),
        0x5EC2E7,
        "fenced load must not return the victim's secret"
    );
    drop(t.runtimes);
    t.manager.unwrap().shutdown();
}

/// Full matrix: who survives the Figure 1 attack, per deployment.
#[test]
fn fault_isolation_matrix() {
    // (deployment, attacker survives, victim survives, victim data intact)
    let expectations = [
        (Deployment::GuardianNoProtection, true, true, false),
        (Deployment::Mps, false, false, true),
        (Deployment::Native, false, true, true),
        (Deployment::GuardianFencing, true, true, true),
        (Deployment::GuardianModulo, true, true, true),
        (Deployment::GuardianChecking, false, true, true),
    ];
    for (deployment, exp_attacker, exp_victim, exp_intact) in expectations {
        let device = share_device(Device::new(test_gpu()));
        let fb = evil_fatbin();
        let mut t = deploy(&device, deployment, 2, 4 << 20, &[&fb]).unwrap();
        let secret = 0xDEAD_BEEFu32;
        let victim_buf = t.runtimes[1].cuda_malloc(4096).unwrap();
        t.runtimes[1]
            .cuda_memcpy_h2d(victim_buf, &secret.to_le_bytes())
            .unwrap();
        let args = ArgPack::new().ptr(victim_buf).u32(0x41414141).finish();
        let _ = t.runtimes[0].cuda_launch_kernel(
            "stomp",
            LaunchConfig::linear(1, 1),
            &args,
            Default::default(),
        );
        let attacker_alive = t.runtimes[0].cuda_device_synchronize().is_ok();
        let (victim_alive, intact) = match t.runtimes[1].cuda_memcpy_d2h(victim_buf, 4) {
            Ok(bytes) => (
                t.runtimes[1].cuda_device_synchronize().is_ok(),
                u32::from_le_bytes(bytes.try_into().unwrap()) == secret,
            ),
            Err(_) => (false, true /* unreadable, not corrupted */),
        };
        assert_eq!(attacker_alive, exp_attacker, "{deployment}: attacker");
        assert_eq!(victim_alive, exp_victim, "{deployment}: victim");
        assert_eq!(intact, exp_intact, "{deployment}: data");
        drop(t.runtimes);
        if let Some(m) = t.manager {
            m.shutdown();
        }
    }
}

/// Negative control: the same `stomp`/`peek` binaries **succeed** when no
/// isolation mechanism is present, proving this suite detects missing
/// isolation rather than vacuously passing.
///
/// The unprotected setting is the paper's Figure 1 native stream sharing:
/// tenants share the GPU through plain contexts with no per-access guard
/// (`NativeRuntime::new`, `MemGuard::None` — what `Deployment::Native`
/// degenerates to once apps share spatially without MPS/Guardian).
#[test]
fn attack_succeeds_without_isolation() {
    use cuda_rt::NativeRuntime;

    let device = share_device(Device::new(test_gpu()));
    let fb = evil_fatbin();
    let mut attacker = NativeRuntime::new(device.clone()).unwrap();
    let mut victim = NativeRuntime::new(device.clone()).unwrap();
    attacker.register_fatbin(&fb).unwrap();

    let secret = 0x5EC2E7u32;
    let victim_buf = victim.cuda_malloc(4096).unwrap();
    victim
        .cuda_memcpy_h2d(victim_buf, &secret.to_le_bytes())
        .unwrap();

    // peek: exfiltration of the victim's secret succeeds verbatim.
    let out = attacker.cuda_malloc(4096).unwrap();
    attacker.cuda_memset(out, 0, 4).unwrap();
    let args = ArgPack::new().ptr(victim_buf).ptr(out).finish();
    attacker
        .cuda_launch_kernel(
            "peek",
            LaunchConfig::linear(1, 1),
            &args,
            Default::default(),
        )
        .unwrap();
    attacker.cuda_device_synchronize().unwrap();
    let stolen = attacker.cuda_memcpy_d2h(out, 4).unwrap();
    assert_eq!(
        u32::from_le_bytes(stolen.try_into().unwrap()),
        secret,
        "without isolation, peek must read the victim's secret"
    );

    // stomp: the victim's data is silently corrupted and nobody faults.
    let args = ArgPack::new().ptr(victim_buf).u32(0x41414141).finish();
    attacker
        .cuda_launch_kernel(
            "stomp",
            LaunchConfig::linear(1, 1),
            &args,
            Default::default(),
        )
        .unwrap();
    assert!(
        attacker.cuda_device_synchronize().is_ok(),
        "no fault raised"
    );
    let bytes = victim.cuda_memcpy_d2h(victim_buf, 4).unwrap();
    assert_eq!(
        u32::from_le_bytes(bytes.try_into().unwrap()),
        0x41414141,
        "without isolation, stomp must corrupt the victim's buffer"
    );
}

/// Negative control for MPS-style sharing: per-client memory protection
/// stops the write, but the fault escalates to the shared server and the
/// *victim* is killed too — the attack succeeds as denial of service
/// (§2.2 shared fate), which Guardian's fault isolation prevents.
#[test]
fn attack_kills_victim_under_mps() {
    let device = share_device(Device::new(test_gpu()));
    let fb = evil_fatbin();
    let mut t = deploy(&device, Deployment::Mps, 2, 4 << 20, &[&fb]).unwrap();
    let victim_buf = t.runtimes[1].cuda_malloc(4096).unwrap();
    t.runtimes[1]
        .cuda_memcpy_h2d(victim_buf, &1u32.to_le_bytes())
        .unwrap();
    let args = ArgPack::new().ptr(victim_buf).u32(0x41414141).finish();
    let _ = t.runtimes[0].cuda_launch_kernel(
        "stomp",
        LaunchConfig::linear(1, 1),
        &args,
        Default::default(),
    );
    assert!(
        t.runtimes[0].cuda_device_synchronize().is_err(),
        "the ASID guard must fault the attacker"
    );
    assert!(
        t.runtimes[1].cuda_device_synchronize().is_err(),
        "MPS shared fate must kill the innocent victim as well"
    );
}

/// A victim *training a network* is undisturbed by a concurrent attacker
/// under Guardian fencing (transparency + isolation together).
#[test]
fn training_survives_concurrent_attack() {
    let device = share_device(Device::new(test_gpu()));
    let fb = evil_fatbin();
    let t = deploy(&device, Deployment::GuardianFencing, 2, 8 << 20, &[&fb]).unwrap();
    let mut rts = t.runtimes;
    let mut attacker = rts.remove(0);
    let mut victim = rts.remove(0);

    let trainer = std::thread::spawn(move || {
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            batches_per_epoch: 2,
            lr: 0.1,
            seed: 5,
        };
        train(victim.as_mut(), Network::Lenet, &cfg).expect("victim trains")
    });
    let attacks = std::thread::spawn(move || {
        for i in 0..50u64 {
            let target = 0x7000_0000_0000u64 + i * 0x10_0000;
            let args = ArgPack::new().ptr(target).u32(0xFFFF_FFFF).finish();
            let _ = attacker.cuda_launch_kernel(
                "stomp",
                LaunchConfig::linear(1, 1),
                &args,
                Default::default(),
            );
        }
        let _ = attacker.cuda_device_synchronize();
    });
    let report = trainer.join().unwrap();
    attacks.join().unwrap();
    assert!(report.last_epoch_loss.is_finite());
    drop(rts);
    t.manager.unwrap().shutdown();
}

// ---------------------------------------------------------------------------
// Fence bypasses: accesses the patcher's arithmetic alone does not confine.
// Each attack runs under every protection mode with a live neighbour in the
// adjacent partition, and each has a negative control showing the legitimate
// form of the same access still works.
// ---------------------------------------------------------------------------

use cuda_rt::{CudaError, SharedDevice};
use guardian::backends::Tenancy;

const PROTECTED: [Deployment; 3] = [
    Deployment::GuardianFencing,
    Deployment::GuardianModulo,
    Deployment::GuardianChecking,
];
const PARTITION: u64 = 4 << 20;
const SENTINEL: u64 = 0x1111_2222_3333_4444;

fn sentinel() -> Vec<u8> {
    [SENTINEL.to_le_bytes(), SENTINEL.to_le_bytes()].concat()
}

/// Two tenants in adjacent 4 MiB partitions: the attacker in the lower one,
/// the victim — whose first 16 bytes hold [`SENTINEL`] twice — right above.
struct Neighbours {
    device: SharedDevice,
    tenancy: Tenancy,
    attacker: usize,
    victim: usize,
    /// The attacker's partition base; its first 4 KiB are allocated, zeroed.
    base: u64,
    /// The victim's partition base, and its sentinel buffer.
    edge: u64,
}

fn neighbours(deployment: Deployment, ptx: &str) -> Neighbours {
    let device = share_device(Device::new(test_gpu()));
    let mut fb = FatBin::new();
    fb.push_ptx("attack", EVIL);
    fb.push_ptx("probe", ptx);
    let fb = fb.to_bytes().to_vec();
    let mut tenancy = deploy(&device, deployment, 2, PARTITION, &[&fb]).unwrap();
    let bufs: Vec<u64> = tenancy
        .runtimes
        .iter_mut()
        .map(|rt| rt.cuda_malloc(4096).unwrap())
        .collect();
    let (attacker, victim) = if bufs[0] < bufs[1] { (0, 1) } else { (1, 0) };
    let (base, edge) = (bufs[attacker], bufs[victim]);
    assert_eq!(
        base % PARTITION,
        0,
        "a first allocation opens its partition"
    );
    assert_eq!(edge, base + PARTITION, "the partitions are adjacent");
    tenancy.runtimes[attacker]
        .cuda_memset(base, 0, 4096)
        .unwrap();
    tenancy.runtimes[victim]
        .cuda_memcpy_h2d(edge, &sentinel())
        .unwrap();
    Neighbours {
        device,
        tenancy,
        attacker,
        victim,
        base,
        edge,
    }
}

impl Neighbours {
    /// Launch `kernel(target, out = base)` as the attacker; whether it
    /// survived the launch.
    fn attack(&mut self, kernel: &str, target: u64) -> bool {
        let args = ArgPack::new().ptr(target).ptr(self.base).finish();
        let rt = &mut self.tenancy.runtimes[self.attacker];
        let _ = rt.cuda_launch_kernel(
            kernel,
            LaunchConfig::linear(1, 1),
            &args,
            Default::default(),
        );
        rt.cuda_device_synchronize().is_ok()
    }

    /// Device memory as the hardware holds it, whoever owns it.
    fn peek(&self, addr: u64) -> u64 {
        let mut word = [0u8; 8];
        self.device.lock().read_memory(addr, &mut word).unwrap();
        u64::from_le_bytes(word)
    }

    /// The victim's bytes are what it wrote and it can still launch; the
    /// attacker's output word holds `out` — for an attack that died, the
    /// zero it started as, so nothing it loaded got out.
    fn assert_victim_untouched(&mut self, out: u64, ctx: &str) {
        let victim = &mut self.tenancy.runtimes[self.victim];
        let bytes = victim.cuda_memcpy_d2h(self.edge, 16).unwrap();
        assert_eq!(bytes, sentinel(), "{ctx}: the neighbour's bytes changed");
        let args = ArgPack::new().ptr(self.edge + 64).u32(7).finish();
        victim
            .cuda_launch_kernel(
                "stomp",
                LaunchConfig::linear(1, 1),
                &args,
                Default::default(),
            )
            .unwrap();
        victim
            .cuda_device_synchronize()
            .unwrap_or_else(|e| panic!("{ctx}: the neighbour was hurt: {e}"));
        assert_eq!(self.peek(self.base), out, "{ctx}: the attacker's output");
    }

    fn shutdown(self) {
        self.tenancy.shutdown();
    }
}

/// `probe(target, out)`: one access of `width` bytes at `target` through
/// `space` (`""` is generic), whatever it loaded stored to `out`.
fn probe_ptx(op: &str, space: &str, width: u64) -> String {
    let (ty, v, old) = match width {
        2 => ("u16", "%rs1", "%rs2"),
        4 => ("u32", "%r1", "%r2"),
        _ => ("u64", "%rd3", "%rd4"),
    };
    let access = match op {
        "st" => format!("st{space}.{ty} [%rd1], {v};"),
        "ld" => format!("ld{space}.{ty} {old}, [%rd1];"),
        _ => format!("atom{space}.add.{ty} {old}, [%rd1], {v};"),
    };
    format!(
        r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry probe(.param .u64 target, .param .u64 out)
{{
    .shared .align 8 .u64 tile[8];
    .local .align 8 .u64 scr[8];
    .reg .b16 %rs<3>;
    .reg .b32 %r<3>;
    .reg .b64 %rd<5>;
    ld.param.u64 %rd1, [target];
    ld.param.u64 %rd2, [out];
    mov.{ty} {v}, -1;
    {access}
    st.global.{ty} [%rd2], {old};
    ret;
}}
"#
    )
}

/// ROADMAP item 1: a misaligned access whose first byte is the partition's
/// last passes every fence and check, and its tail lands next door. The
/// device faults it, as real hardware does.
#[test]
fn straddling_access_cannot_cross_the_partition_edge() {
    for deployment in PROTECTED {
        for op in ["st", "ld", "atom"] {
            for width in [2u64, 4, 8] {
                let ptx = probe_ptx(op, ".global", width);
                for back in [1, width - 1] {
                    let ctx = format!("{deployment}: {op} of {width} at edge-{back}");
                    let mut n = neighbours(deployment, &ptx);
                    let target = n.edge - back;
                    assert!(!n.attack("probe", target), "{ctx}: the offender lives");
                    n.assert_victim_untouched(0, &ctx);
                    n.shutdown();
                }

                // Negative control: the last aligned slot is the
                // attacker's own, and the access to it goes through.
                let ctx = format!("{deployment}: {op} of {width} at edge-{width}");
                let mut n = neighbours(deployment, &ptx);
                let target = n.edge - width;
                assert!(n.attack("probe", target), "{ctx}: a legal access faulted");
                // The slot held 0: a store or an atomic add of all-ones
                // leaves all-ones there, and every form reports 0 loaded.
                let ones = u64::MAX >> (64 - 8 * width);
                let left = if op == "ld" { 0 } else { ones };
                assert_eq!(n.peek(n.edge - 8) >> (64 - 8 * width), left, "{ctx}");
                n.assert_victim_untouched(0, &ctx);
                n.shutdown();
            }
        }
    }
}

/// The patcher leaves `.shared` and `.local` accesses alone because the
/// hardware confines them to their windows. A neighbour's global address
/// behind such an instruction must fault, not resolve.
#[test]
fn shared_and_local_instructions_cannot_reach_global_memory() {
    for deployment in PROTECTED {
        for space in [".shared", ".local"] {
            for op in ["st", "ld", "atom"] {
                let ctx = format!("{deployment}: {op}{space} at the neighbour's buffer");
                let mut n = neighbours(deployment, &probe_ptx(op, space, 8));
                let target = n.edge;
                assert!(!n.attack("probe", target), "{ctx}: the offender lives");
                n.assert_victim_untouched(0, &ctx);
                n.shutdown();
            }
        }
    }
}

/// Negative control: scratch accesses inside their windows still work.
#[test]
fn shared_tiles_and_local_arrays_still_work() {
    let ptx = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry scratch(.param .u64 target, .param .u64 out)
{
    .shared .align 8 .u64 tile[8];
    .local .align 8 .u64 scr[8];
    .reg .b64 %rd<8>;
    ld.param.u64 %rd2, [out];
    mov.u64 %rd3, tile;
    mov.u64 %rd4, scr;
    mov.u64 %rd5, 40;
    st.shared.u64 [%rd3+16], %rd5;
    st.local.u64 [%rd4+56], %rd5;
    atom.shared.add.u64 %rd6, [tile+16], %rd5;
    ld.shared.u64 %rd6, [%rd3+16];
    ld.local.u64 %rd7, [scr+56];
    add.u64 %rd6, %rd6, %rd7;
    st.global.u64 [%rd2], %rd6;
    ret;
}
"#;
    for deployment in PROTECTED {
        let mut n = neighbours(deployment, ptx);
        assert!(n.attack("scratch", 0), "{deployment}");
        assert_eq!(n.peek(n.base), 120, "{deployment}");
        n.shutdown();
    }
}

/// What the module-scope `g` is initialized to.
const G_INIT: u64 = 0x1122_3344_5566_7788;

/// `where_is_g` tells a tenant where the module's `.global` landed;
/// `through_g` then reaches `K` bytes away from it with no address
/// register for the patcher to fence.
fn symbol_ptx(access: &str) -> String {
    format!(
        r#"
.version 7.7
.target sm_86
.address_size 64
.global .align 8 .u64 g[1] = {{ {G_INIT} }};
.visible .entry where_is_g(.param .u64 target, .param .u64 out)
{{
    .reg .b64 %rd<3>;
    ld.param.u64 %rd1, [out];
    mov.u64 %rd2, g;
    st.global.u64 [%rd1], %rd2;
    ret;
}}
.visible .entry through_g(.param .u64 target, .param .u64 out)
{{
    .reg .b32 %r<3>;
    .reg .b64 %rd<4>;
    ld.param.u64 %rd1, [out];
    mov.u64 %rd2, -1;
    {access}
    st.global.u64 [%rd1], %rd3;
    st.global.u32 [%rd1+8], %r1;
    ret;
}}
"#
    )
}

/// A symbol-direct access is bounded when the module is registered: the
/// offset is a constant of the PTX, and the PTX is tenant input.
#[test]
fn symbol_direct_access_cannot_leave_its_variable() {
    for deployment in PROTECTED {
        let mut n = neighbours(deployment, &symbol_ptx("ld.global.u64 %rd3, [g];"));
        assert!(n.attack("where_is_g", 0));
        let g = n.peek(n.base);
        // Aimed at the neighbour if the next module lands where this one
        // did; wherever it lands, `K` is nowhere near inside `g`.
        let aimed = n.edge.wrapping_sub(g) as i64;
        for k in [aimed, 8, 1, -8, i64::MAX - 7, -i64::MAX] {
            for access in [
                format!("st.global.u64 [g+{k}], %rd2;"),
                format!("ld.global.u64 %rd3, [g+{k}];"),
                format!("atom.global.add.u64 %rd3, [g+{k}], %rd2;"),
                format!("st.u64 [g+{k}], %rd2;"),
            ] {
                let ctx = format!("{deployment}: {access}");
                let attacker = &mut n.tenancy.runtimes[n.attacker];
                let r = attacker.cu_module_load_data("hostile", &symbol_ptx(&access));
                assert!(
                    matches!(r, Err(CudaError::Rejected(_))),
                    "{ctx}: registered ({r:?})"
                );
                // The rejection is not a fault: the tenant lives on, and
                // the kernels it already had are the ones that run.
                assert!(n.attack("through_g", 0), "{ctx}");
                n.assert_victim_untouched(G_INIT, &ctx);
            }
        }
        n.shutdown();
    }
}

/// Negative control: accesses inside the variable register and run.
#[test]
fn symbol_direct_access_inside_its_variable_still_works() {
    for deployment in PROTECTED {
        let ptx = symbol_ptx("ld.global.u64 %rd3, [g];\n    ld.global.u32 %r1, [g+4];");
        let mut n = neighbours(deployment, &ptx);
        assert!(n.attack("through_g", 0), "{deployment}");
        assert_eq!(n.peek(n.base), G_INIT, "{deployment}");
        assert_eq!(n.peek(n.base + 8), G_INIT >> 32, "{deployment}");
        n.shutdown();
    }
}

// ---------------------------------------------------------------------------
// One-way frees: under deferred acks `cudaFree` sends a `FreeAsync` frame
// that gets no reply, so a bad pointer can only be reported later. Each
// attack must surface at the attacker's next sync and leave the
// neighbour's heap and bytes exactly as they were.
// ---------------------------------------------------------------------------

use guardian::{spawn_manager, GrdLib, LaunchAck, ManagerConfig};

/// `bytes_held` of client `id`, as the control plane accounts it.
fn bytes_held(mgr: &guardian::ManagerHandle, id: u32) -> u64 {
    mgr.control_plane()
        .tenants_table()
        .into_iter()
        .find(|t| t.client == id)
        .expect("live tenant")
        .bytes_held
}

#[test]
fn one_way_free_of_a_bad_pointer_fails_at_sync_and_spares_the_neighbour() {
    let mgr = spawn_manager(
        share_device(Device::new(test_gpu())),
        ManagerConfig {
            pool_bytes: Some(8 << 20),
            launch_ack: LaunchAck::Deferred,
            ..ManagerConfig::default()
        },
        &[],
    )
    .unwrap();
    let mut attacker = GrdLib::connect(&mgr, 4 << 20).unwrap();
    let mut victim = GrdLib::connect(&mgr, 4 << 20).unwrap();
    let victim_buf = victim.cuda_malloc(4096).unwrap();
    victim.cuda_memcpy_h2d(victim_buf, &sentinel()).unwrap();
    victim.cuda_device_synchronize().unwrap();
    let victim_held = bytes_held(&mgr, victim.client_id().0);
    let own = attacker.cuda_malloc(4096).unwrap();

    // Each free "succeeds" locally (nothing comes back) and fails at the
    // attacker's next sync.
    let attacks: [(&str, u64); 3] = [
        ("foreign", victim_buf),
        ("interior", own + 256),
        ("double free", own),
    ];
    for (what, ptr) in attacks {
        if what == "double free" {
            attacker.cuda_free(own).unwrap();
            attacker.cuda_device_synchronize().unwrap();
        }
        attacker.cuda_free(ptr).unwrap();
        assert_eq!(
            attacker.cuda_device_synchronize(),
            Err(CudaError::InvalidValue),
            "{what}"
        );
        // The error is reported once; the attacker's session goes on.
        attacker.cuda_device_synchronize().unwrap();
        let held = bytes_held(&mgr, victim.client_id().0);
        assert_eq!(held, victim_held, "{what}: the neighbour's heap changed");
        assert_eq!(
            victim.cuda_memcpy_d2h(victim_buf, 16).unwrap(),
            sentinel(),
            "{what}: the neighbour's bytes changed"
        );
    }
    // Control: the neighbour's allocation was never freed by anyone else,
    // so its own free succeeds — and a good one-way free syncs clean.
    victim.cuda_free(victim_buf).unwrap();
    victim.cuda_device_synchronize().unwrap();
    assert_eq!(bytes_held(&mgr, victim.client_id().0), 0);
    let again = attacker.cuda_malloc(4096).unwrap();
    attacker.cuda_free(again).unwrap();
    attacker.cuda_device_synchronize().unwrap();
    drop((attacker, victim));
    mgr.shutdown();
}
