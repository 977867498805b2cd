//! The four workloads: what each tenant sets up, what it runs in the
//! timed section, and what it checks. Arm-agnostic — the same code drives
//! `GrdLib` and `NativeRuntime` through `&mut dyn CudaApi`.
//!
//! All four are closed loops (a CUDA caller blocks on each reply) over a
//! fixed unit of work; a run repeats the unit until `--seconds` is spent.

use crate::gen::{self, MixOp};
use crate::surface::{
    self, ArgPack, CudaApi, CudaResult, DevicePtr, LaunchConfig, RodiniaApp, Stream, TrainConfig,
};
use crate::verify;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SoloTrain,
    PairRodinia,
    LaunchStorm,
    MemcpyMix,
}

/// Launches between two synchronisations of a storm tenant: the client
/// library's one-way flush threshold, so each clump is one transport send.
pub const STORM_CLUMP: usize = 64;
/// Elements the storm's `fill` kernel writes (`linear(2, 32)` covers them).
const STORM_N: u32 = 64;
/// Copies at least this large count towards `h2d_MBps` / `d2h_MBps`.
const BULK_BYTES: usize = 64 << 10;
/// The copy size whose D2H is the round-trip probe of `memcpy_mix`.
const RTT_BYTES: usize = 4 << 10;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SoloTrain,
        Workload::PairRodinia,
        Workload::LaunchStorm,
        Workload::MemcpyMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloTrain => "solo_train",
            Workload::PairRodinia => "pair_rodinia",
            Workload::LaunchStorm => "launch_storm",
            Workload::MemcpyMix => "memcpy_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One line for `BENCHMARK.json`: why this workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SoloTrain => {
                "one tenant trains Lenet: >90% interpreter time, so only fencing cost shows (Fig. 7)"
            }
            Workload::PairRodinia => {
                "hotspot + gaussian co-located on one daemon: big early-exit grids, shared device lock, dedupe registration (Fig. 6, mix M)"
            }
            Workload::LaunchStorm => {
                "two tenants flood tiny deferred launches: the per-launch RPC path does all the work, the interpreter none"
            }
            Workload::MemcpyMix => {
                "no kernels: payload frames, small blocking round trips and malloc/free pairs, the stack used the other way"
            }
        }
    }

    pub fn tenants(self) -> usize {
        match self {
            Workload::SoloTrain | Workload::MemcpyMix => 1,
            Workload::PairRodinia | Workload::LaunchStorm => 2,
        }
    }

    /// Partition each tenant asks for at connect.
    pub fn partition_bytes(self) -> u64 {
        match self {
            Workload::LaunchStorm => 2 << 20,
            _ => 16 << 20,
        }
    }

    /// Fatbins each tenant registers during set-up, so the timed section
    /// starts with its kernels known to the daemon.
    fn fatbins(self) -> Vec<Vec<u8>> {
        match self {
            Workload::SoloTrain => surface::train_fatbins()
                .into_iter()
                .map(<[u8]>::to_vec)
                .collect(),
            Workload::PairRodinia => vec![surface::rodinia_fatbin().to_vec()],
            Workload::LaunchStorm => vec![surface::fill_fatbin()],
            Workload::MemcpyMix => Vec::new(),
        }
    }
}

/// How much work one unit is. `quick` is a tenth, for smoke runs only.
#[derive(Debug, Clone, Copy)]
struct Size {
    train_epochs: u32,
    hotspot_scale: u32,
    gaussian_scale: u32,
    storm_clumps: usize,
    mix_hundreds: usize,
}

const FULL: Size = Size {
    train_epochs: 4,
    hotspot_scale: 10,
    gaussian_scale: 9,
    storm_clumps: 512,
    mix_hundreds: 15,
};

const QUICK: Size = Size {
    train_epochs: 1,
    hotspot_scale: 3,
    gaussian_scale: 4,
    storm_clumps: 51,
    mix_hundreds: 2,
};

/// Everything a run feeds the system, made from the seed once.
pub struct Inputs {
    size: Size,
    /// What every tenant registers during set-up.
    pub fatbins: Vec<Vec<u8>>,
    pub train: TrainConfig,
    pub mix_ops: Vec<MixOp>,
    pub mix_pool: Vec<u8>,
    /// What a storm tenant's buffer holds before the first launch.
    pub storm_garbage: Vec<u8>,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64, quick: bool) -> Self {
        let size = if quick { QUICK } else { FULL };
        Inputs {
            size,
            fatbins: workload.fatbins(),
            train: TrainConfig {
                epochs: size.train_epochs,
                batch_size: 4,
                batches_per_epoch: 2,
                lr: 0.1,
                seed,
            },
            mix_ops: gen::mix_ops(seed, size.mix_hundreds),
            mix_pool: gen::payload_pool(seed),
            storm_garbage: gen::Rng::new(seed).bytes(4 * STORM_N as usize),
        }
    }
}

/// What one tenant's timed section produced besides its side effects.
#[derive(Debug, Default)]
pub struct TenantOutput {
    /// Checks the job made on its own data, and how many failed.
    pub checks: u64,
    pub failed: u64,
    /// Values that must match the other arm bit for bit.
    pub reported: Vec<u32>,
    /// Per-op timings, microseconds, by sample name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Accumulators (bytes, seconds) by name.
    pub sums: BTreeMap<&'static str, f64>,
}

/// Set-up work after registration; returns the buffer the timed section
/// works on, if it needs one.
pub fn prepare(
    w: Workload,
    inputs: &Inputs,
    api: &mut dyn CudaApi,
) -> CudaResult<Option<DevicePtr>> {
    match w {
        Workload::LaunchStorm => {
            let buf = api.cuda_malloc(4 * u64::from(STORM_N))?;
            api.cuda_memcpy_h2d(buf, &inputs.storm_garbage)?;
            api.cuda_device_synchronize()?;
            Ok(Some(buf))
        }
        _ => Ok(None),
    }
}

/// The timed section of tenant `tenant`.
pub fn run(
    w: Workload,
    inputs: &Inputs,
    tenant: usize,
    prepared: Option<DevicePtr>,
    api: &mut dyn CudaApi,
    out: &mut TenantOutput,
) -> CudaResult<()> {
    match w {
        Workload::SoloTrain => {
            let report = surface::train_lenet(api, &inputs.train)?;
            out.reported = vec![
                report.first_epoch_loss.to_bits(),
                report.last_epoch_loss.to_bits(),
                report.final_accuracy.to_bits(),
            ];
            Ok(())
        }
        Workload::PairRodinia => {
            let (app, scale) = if tenant == 0 {
                (RodiniaApp::Hotspot, inputs.size.hotspot_scale)
            } else {
                (RodiniaApp::Gaussian, inputs.size.gaussian_scale)
            };
            surface::rodinia_run(api, app, scale)
        }
        Workload::LaunchStorm => {
            let buf = prepared.expect("storm buffer");
            storm(inputs.size.storm_clumps, buf, api, out)
        }
        Workload::MemcpyMix => mix(&inputs.mix_ops, &inputs.mix_pool, api, out),
    }
}

fn storm(
    clumps: usize,
    buf: DevicePtr,
    api: &mut dyn CudaApi,
    out: &mut TenantOutput,
) -> CudaResult<()> {
    let args = ArgPack::new().ptr(buf).u32(STORM_N).finish();
    let cfg = LaunchConfig::linear(2, 32);
    let mut sync_us = Vec::with_capacity(clumps);
    for _ in 0..clumps {
        for _ in 0..STORM_CLUMP {
            api.cuda_launch_kernel(surface::FILL_KERNEL, cfg, &args, Stream::DEFAULT)?;
        }
        let t = Instant::now();
        api.cuda_device_synchronize()?;
        sync_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let back = api.cuda_memcpy_d2h(buf, 4 * u64::from(STORM_N))?;
    out.checks = 1;
    out.failed = u64::from(!verify::check_fill(&back, STORM_N));
    out.samples.insert("batch_sync_us", sync_us);
    Ok(())
}

fn mix(
    ops: &[MixOp],
    pool: &[u8],
    api: &mut dyn CudaApi,
    out: &mut TenantOutput,
) -> CudaResult<()> {
    let mut rtt_us = Vec::with_capacity(ops.len());
    let mut alloc_free_us = Vec::with_capacity(ops.len());
    let (mut h2d_bytes, mut h2d_s, mut d2h_bytes, mut d2h_s) = (0.0, 0.0, 0.0, 0.0);
    for op in ops {
        let data = &pool[op.offset..op.offset + op.size];
        let t0 = Instant::now();
        let ptr = api.cuda_malloc(op.size as u64)?;
        let t1 = Instant::now();
        api.cuda_memcpy_h2d(ptr, data)?;
        let t2 = Instant::now();
        let back = api.cuda_memcpy_d2h(ptr, op.size as u64)?;
        let t3 = Instant::now();
        out.failed += u64::from(back != data);
        let t4 = Instant::now();
        api.cuda_free(ptr)?;
        let t5 = Instant::now();
        alloc_free_us.push(((t1 - t0) + (t5 - t4)).as_secs_f64() * 1e6);
        if op.size >= BULK_BYTES {
            h2d_bytes += op.size as f64;
            h2d_s += (t2 - t1).as_secs_f64();
            d2h_bytes += op.size as f64;
            d2h_s += (t3 - t2).as_secs_f64();
        } else if op.size == RTT_BYTES {
            rtt_us.push((t3 - t2).as_secs_f64() * 1e6);
        }
    }
    out.checks = ops.len() as u64;
    out.samples.insert("rtt_us", rtt_us);
    out.samples.insert("alloc_free_us", alloc_free_us);
    for (name, v) in [
        ("h2d_bytes", h2d_bytes),
        ("h2d_s", h2d_s),
        ("d2h_bytes", d2h_bytes),
        ("d2h_s", d2h_s),
    ] {
        out.sums.insert(name, v);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::NativeHost;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (
            Inputs::new(Workload::MemcpyMix, 11, true),
            Inputs::new(Workload::MemcpyMix, 11, true),
        );
        assert_eq!(format!("{:?}", a.train), format!("{:?}", b.train));
        assert_eq!(a.mix_ops, b.mix_ops);
        assert_eq!(a.mix_pool, b.mix_pool);
        assert_eq!(a.storm_garbage, b.storm_garbage);
        let c = Inputs::new(Workload::MemcpyMix, 12, true);
        assert_ne!(a.mix_ops, c.mix_ops);
        assert_ne!(a.storm_garbage, c.storm_garbage);
        assert_eq!((a.train.seed, c.train.seed), (11, 12));
    }

    #[test]
    fn names_round_trip_and_whys_fit_the_manifest() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    /// Every workload's quick unit runs and verifies on the native arm.
    #[test]
    fn quick_units_run_natively() {
        for w in Workload::ALL {
            let inputs = Inputs::new(w, 5, true);
            let host = NativeHost::new(w.tenants() > 1);
            for tenant in 0..w.tenants() {
                let mut api = host.runtime().unwrap();
                for fb in &inputs.fatbins {
                    api.register_fatbin(fb).unwrap();
                }
                let prepared = prepare(w, &inputs, &mut api).unwrap();
                let mut out = TenantOutput::default();
                run(w, &inputs, tenant, prepared, &mut api, &mut out).unwrap();
                assert_eq!(out.failed, 0, "{}", w.name());
            }
        }
    }
}
