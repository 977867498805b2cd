//! End-to-end transparency: the same training run produces *bit-identical*
//! results under the native runtime and under Guardian fencing, because
//! fencing is the identity for in-bounds addresses (§4.3) and Guardian is
//! call-for-call transparent (§4.1).

use cuda_rt::{share_device, CudaApi, NativeRuntime, SharedDevice};
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

/// `(kernel, instructions, thread_cycles, loads, stores)` of every kernel a
/// run launched, by name.
type KernelPin = (&'static str, u64, u64, u64, u64);

fn kernel_pins(dev: &SharedDevice) -> Vec<(String, u64, u64, u64, u64)> {
    let dev = dev.lock();
    let mut pins: Vec<_> = dev
        .kernel_stats()
        .iter()
        .map(|(name, s)| {
            let (i, c, l, st) = (s.instructions, s.thread_cycles, s.loads, s.stores);
            (name.clone(), i, c, l, st)
        })
        .collect();
    pins.sort();
    pins
}

fn owned(pins: &[KernelPin]) -> Vec<(String, u64, u64, u64, u64)> {
    pins.iter()
        .map(|&(n, i, c, l, s)| (n.to_string(), i, c, l, s))
        .collect()
}

/// The interpreter's host-side speed is not a simulated number: one epoch
/// of Lenet, natively and fenced, must charge the device clock and every
/// kernel's counters exactly what they were recorded at before the
/// interpreter's per-instruction path was reworked.
#[test]
fn lenet_accounting_is_pinned() {
    const NATIVE_CLOCK: u64 = 2_191_392;
    const NATIVE: &[KernelPin] = &[
        ("accuracyfw", 5608, 36542, 88, 0),
        ("channel_div", 5152, 55102, 88, 80),
        ("channel_max", 4912, 35316, 80, 8),
        ("channel_subtract", 5152, 54142, 88, 80),
        ("channel_sum", 4912, 34948, 80, 8),
        ("col2im", 547_328, 9_095_072, 25600, 12800),
        ("exp", 4880, 52980, 80, 80),
        ("im2col", 1_094_656, 16_318_048, 25600, 25600),
        ("kernel_val", 43008, 802_816, 0, 2048),
        ("maxpoolbw_1", 68537, 874_066, 3731, 659),
        ("maxpoolfw", 118_784, 1_301_120, 4096, 1024),
        ("relubw", 76032, 1_148_112, 4608, 2304),
        ("relufw", 117_504, 1_937_320, 4352, 4352),
        ("sgdupdate", 166_200, 2_479_016, 9872, 4936),
        ("sgemm_1", 12_384_992, 122_172_616, 53792, 4896),
        ("sgemm_2", 5_869_536, 60_424_608, 27296, 17536),
        ("sgemm_3", 2_597_136, 25_660_288, 13040, 1104),
        ("softmaxlossbw", 6624, 64766, 160, 80),
        ("softmaxlossfw", 4768, 31784, 24, 8),
        ("transpose", 577_840, 9_244_024, 18672, 18672),
    ];
    const FENCED_CLOCK: u64 = 2_248_529;
    const FENCED: &[KernelPin] = &[
        ("accuracyfw", 6296, 39294, 88, 0),
        ("channel_div", 6000, 58494, 88, 80),
        ("channel_max", 5600, 37884, 80, 8),
        ("channel_subtract", 6000, 57534, 88, 80),
        ("channel_sum", 5600, 37700, 80, 8),
        ("col2im", 625_152, 9_406_368, 25600, 12800),
        ("exp", 5712, 56308, 80, 80),
        ("im2col", 1_250_304, 16_940_272, 25600, 25600),
        ("kernel_val", 51200, 835_584, 0, 2048),
        ("maxpoolbw_1", 78047, 912_106, 3731, 659),
        ("maxpoolfw", 133_120, 1_358_464, 4096, 1024),
        ("relubw", 94464, 1_221_840, 4608, 2304),
        ("relufw", 143_616, 2_041_768, 4352, 4352),
        ("sgdupdate", 206_056, 2_638_440, 9872, 4936),
        ("sgemm_1", 12_543_328, 122_804_856, 53792, 4896),
        ("sgemm_2", 6_002_208, 60_954_192, 27296, 17536),
        ("sgemm_3", 2_634_640, 25_808_648, 13040, 1104),
        ("softmaxlossbw", 7616, 68734, 160, 80),
        ("softmaxlossfw", 5328, 33840, 24, 8),
        ("transpose", 691_952, 9_700_104, 18672, 18672),
    ];
    let one_epoch = TrainConfig { epochs: 1, ..cfg() };

    let dev = share_device(Device::new(test_gpu()));
    let mut native = NativeRuntime::new(dev.clone()).unwrap();
    train(&mut native, Network::Lenet, &one_epoch).unwrap();
    let native_clock = native.device_now_cycles();
    assert_eq!(kernel_pins(&dev), owned(NATIVE), "native kernels");
    assert_eq!(native_clock, NATIVE_CLOCK, "native device clock");

    let dev = share_device(Device::new(test_gpu()));
    let mut t = deploy(&dev, Deployment::GuardianFencing, 1, 8 << 20, &[]).unwrap();
    train(t.runtimes[0].as_mut(), Network::Lenet, &one_epoch).unwrap();
    let fenced_clock = t.runtimes[0].device_now_cycles();
    assert_eq!(kernel_pins(&dev), owned(FENCED), "fenced kernels");
    assert_eq!(fenced_clock, FENCED_CLOCK, "fenced device clock");
    drop(t.runtimes);
    t.manager.unwrap().shutdown();
}
