//! End-to-end transparency: the same training run produces *bit-identical*
//! results under the native runtime and under Guardian fencing, because
//! fencing is the identity for in-bounds addresses (§4.3) and Guardian is
//! call-for-call transparent (§4.1).

use cuda_rt::{share_device, NativeRuntime};
use frameworks::{train, Network, TrainConfig};
use gpu_sim::spec::test_gpu;
use gpu_sim::Device;
use guardian::backends::{deploy, Deployment};

fn cfg() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 4,
        batches_per_epoch: 2,
        lr: 0.15,
        seed: 31,
    }
}

#[test]
fn guardian_training_is_bit_identical_to_native() {
    // Native.
    let dev_native = share_device(Device::new(test_gpu()));
    let mut native = NativeRuntime::new(dev_native).unwrap();
    let r_native = train(&mut native, Network::Lenet, &cfg()).unwrap();

    // Guardian fencing.
    let dev_grd = share_device(Device::new(test_gpu()));
    let mut t = deploy(&dev_grd, Deployment::GuardianFencing, 1, 8 << 20, &[]).unwrap();
    let r_grd = train(t.runtimes[0].as_mut(), Network::Lenet, &cfg()).unwrap();
    drop(t.runtimes);
    t.manager.unwrap().shutdown();

    assert_eq!(
        r_native.last_epoch_loss, r_grd.last_epoch_loss,
        "fencing must not perturb in-bounds computation"
    );
    assert_eq!(r_native.final_accuracy, r_grd.final_accuracy);
}

#[test]
fn all_three_protection_modes_are_numerically_transparent() {
    let dev = share_device(Device::new(test_gpu()));
    let mut native = NativeRuntime::new(dev).unwrap();
    let reference = train(&mut native, Network::Cifar10, &cfg()).unwrap();

    for d in [
        Deployment::GuardianNoProtection,
        Deployment::GuardianFencing,
        Deployment::GuardianModulo,
        Deployment::GuardianChecking,
    ] {
        let dev = share_device(Device::new(test_gpu()));
        let mut t = deploy(&dev, d, 1, 8 << 20, &[]).unwrap();
        let r = train(t.runtimes[0].as_mut(), Network::Cifar10, &cfg()).unwrap();
        assert_eq!(
            r.last_epoch_loss, reference.last_epoch_loss,
            "{d}: protected run diverged numerically"
        );
        drop(t.runtimes);
        if let Some(m) = t.manager {
            m.shutdown();
        }
    }
}

#[test]
fn rodinia_apps_run_under_guardian() {
    for app in rodinia::App::ALL {
        let dev = share_device(Device::new(test_gpu()));
        let mut t = deploy(&dev, Deployment::GuardianFencing, 1, 8 << 20, &[]).unwrap();
        rodinia::run(t.runtimes[0].as_mut(), app, 1)
            .unwrap_or_else(|e| panic!("{app:?} under guardian: {e}"));
        drop(t.runtimes);
        t.manager.unwrap().shutdown();
    }
}

/// The simulator's macro-op fusion is a host-side optimisation: it may never
/// change a simulated number. These are the dynamic instruction counts and
/// the device clock of a fenced `hotspot` and a fenced `gaussian` run as
/// recorded before fusion existed; a patcher change that emits different
/// PTX moves them on purpose, a `gpu-sim` change must not.
#[test]
fn fenced_rodinia_accounting_is_pinned() {
    // (kernel, dynamic instructions, summed thread cycles)
    type Kernel = (&'static str, u64, u64);
    let pinned: [(rodinia::App, u64, &[Kernel]); 2] = [
        (
            rodinia::App::Hotspot,
            34_095,
            &[("hotspot_step", 720_896, 7_981_360)],
        ),
        (
            rodinia::App::Gaussian,
            55_939,
            &[
                ("gaussian_fan1", 41_160, 275_251),
                ("gaussian_fan2", 140_440, 1_295_172),
            ],
        ),
    ];
    for (app, device_cycles, kernels) in pinned {
        let dev = share_device(Device::new(test_gpu()));
        let mut t = deploy(&dev, Deployment::GuardianFencing, 1, 8 << 20, &[]).unwrap();
        rodinia::run(t.runtimes[0].as_mut(), app, 1).unwrap();
        assert_eq!(
            t.runtimes[0].device_now_cycles(),
            device_cycles,
            "{app:?}: device clock"
        );
        for &(kernel, instructions, thread_cycles) in kernels {
            let stats = dev.lock().kernel_stats()[kernel];
            assert_eq!(stats.instructions, instructions, "{kernel}: instructions");
            assert_eq!(
                stats.thread_cycles, thread_cycles,
                "{kernel}: thread cycles"
            );
        }
        drop(t.runtimes);
        t.manager.unwrap().shutdown();
    }
}
