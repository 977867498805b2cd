//! The layer pass: each layer's public functions, timed from outside with
//! fixed operation counts. Independent of the workload; it runs once at
//! the end of every traced run.
//!
//! The control-plane and session numbers come from a live `guardiand`
//! over uds, like the workloads; everything else runs in-process. The
//! whole pass — its threads and its daemons too — is pinned to one CPU
//! (see [`crate::affinity`]), so a round trip here is the code's own cost:
//! two context switches and no cross-CPU wake-up, and a one-way rate is
//! one over the CPU time of both ends.

use crate::affinity::Pinned;
use crate::daemon::Daemon;
use crate::stats::median;
use crate::surface::layer::{self, Conn};
use crate::surface::{
    self, ArgPack, CudaApi, GrdLib, LaunchConfig, NativeHost, NativeRuntime, Stream, Wire,
};
use crate::workloads::STORM_CLUMP;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

type Out = Vec<(String, f64)>;

/// Times each number is measured; the median is reported.
const REPS: usize = 3;

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| f()).collect::<Vec<_>>())
}

/// Run the layer pass. `quick` divides the operation counts by ten.
///
/// # Errors
///
/// When the daemon cannot be brought up or a call through it fails.
pub fn run(daemon_bin: &Path, quick: bool) -> Result<Out, String> {
    let scale = |n: usize| if quick { (n / 10).max(1) } else { n };
    let _one_cpu = Pinned::to_first_cpu();
    let mut out = Out::new();
    ptx_layers(&mut out);
    let launch_ns = gpu_sim_layers(&mut out, scale(16_384)).map_err(|e| e.to_string())?;
    proto_layers(&mut out, scale(100_000));
    for kind in layer::TRANSPORTS {
        transport_layer(&mut out, kind, scale(2_000), scale(64_000), scale(64));
    }
    alloc_layers(&mut out, scale(100_000));
    daemon_layers(&mut out, daemon_bin, launch_ns, &scale)?;
    let record = layer::telemetry_recorder();
    let n = scale(1_000_000);
    out.push((
        "telemetry.record_ns".into(),
        median_of(REPS, || {
            secs(|| (0..n).for_each(|_| record())) * 1e9 / n as f64
        }),
    ));
    Ok(out)
}

/// Parse, patch and compile the PTX the workloads register.
fn ptx_layers(out: &mut Out) {
    let texts = layer::workload_ptx();
    let modules: Vec<_> = texts.iter().map(|t| layer::parse(t)).collect();
    let patched: Vec<_> = modules.iter().map(layer::patch).collect();
    let kernels: usize = modules.iter().map(layer::kernels).sum();
    let per_kernel_us = |total_s: f64| total_s * 1e6 / kernels as f64;
    out.push((
        "ptx.parse_us_per_kernel".into(),
        per_kernel_us(median_of(REPS, || {
            secs(|| texts.iter().for_each(|t| drop(black_box(layer::parse(t)))))
        })),
    ));
    out.push((
        "ptx_patcher.patch_us_per_kernel".into(),
        per_kernel_us(median_of(REPS, || {
            secs(|| {
                modules
                    .iter()
                    .for_each(|m| drop(black_box(layer::patch(m))))
            })
        })),
    ));
    let count = |ms: &[layer::Module]| ms.iter().map(layer::instructions).sum::<usize>() as f64;
    out.push((
        "ptx_patcher.instr_growth_x".into(),
        count(&patched) / count(&modules),
    ));
    // The fenced variants are what the daemon compiles for its tenants.
    out.push((
        "gpu_sim.compile_us_per_kernel".into(),
        per_kernel_us(median_of(REPS, || {
            secs(|| {
                patched.iter().for_each(|m| {
                    black_box(layer::compile(m));
                })
            })
        })),
    ));
}

/// Clumps of `fill` launches followed by a sync; seconds for all of them
/// and seconds spent inside the launch calls alone.
fn fill_storm(api: &mut dyn CudaApi, launches: usize) -> surface::CudaResult<(f64, f64)> {
    let buf = api.cuda_malloc(4 * 64)?;
    let args = ArgPack::new().ptr(buf).u32(64).finish();
    let cfg = LaunchConfig::linear(2, 32);
    let mut pushing = 0.0;
    let start = Instant::now();
    for _ in 0..launches.div_ceil(STORM_CLUMP) {
        let t = Instant::now();
        for _ in 0..STORM_CLUMP {
            api.cuda_launch_kernel(surface::FILL_KERNEL, cfg, &args, Stream::DEFAULT)?;
        }
        pushing += t.elapsed().as_secs_f64();
        api.cuda_device_synchronize()?;
    }
    let total = start.elapsed().as_secs_f64();
    api.cuda_free(buf)?;
    Ok((total, pushing))
}

/// Returns `gpu_sim.launch_ns`, which the session residual subtracts.
fn gpu_sim_layers(out: &mut Out, launches: usize) -> surface::CudaResult<f64> {
    // Enqueue + execute of one tiny kernel, no RPC stack in the way.
    let host = NativeHost::new(false);
    let mut rt = host.runtime()?;
    rt.register_fatbin(&surface::fill_fatbin())?;
    let clumped = launches.div_ceil(STORM_CLUMP) * STORM_CLUMP;
    let mut runs = Vec::new();
    for _ in 0..REPS {
        runs.push(fill_storm(&mut rt, launches)?.0 * 1e9 / clumped as f64);
    }
    let launch_ns = median(&runs);
    out.push(("gpu_sim.launch_ns".into(), launch_ns));

    // The same stencil kernel, unfenced and fenced with an identity fence
    // (base 0, mask all ones), interpreted on the same grid.
    const W: u32 = 128;
    let cells = u64::from(W * W);
    let hotspot = |rt: &mut NativeRuntime, fence: bool| -> surface::CudaResult<f64> {
        let bufs = [
            rt.cuda_malloc(4 * cells)?,
            rt.cuda_malloc(4 * cells)?,
            rt.cuda_malloc(4 * cells)?,
        ];
        let mut args = ArgPack::new().ptr(bufs[0]).ptr(bufs[1]).ptr(bufs[2]).u32(W);
        if fence {
            args = args.u64(0).u64(u64::MAX);
        }
        let args = args.finish();
        let mut runs = Vec::new();
        for _ in 0..REPS {
            let t = Instant::now();
            for _ in 0..4 {
                rt.cuda_launch_kernel(
                    "hotspot_step",
                    LaunchConfig::linear(32, 128),
                    &args,
                    Stream::DEFAULT,
                )?;
            }
            rt.cuda_device_synchronize()?;
            runs.push(t.elapsed().as_secs_f64());
        }
        Ok(median(&runs))
    };
    let plain = layer::rodinia_module();
    let mut unfenced = NativeHost::new(false).runtime()?;
    layer::load(&mut unfenced, plain)?;
    let mut fenced = NativeHost::new(false).runtime()?;
    layer::load(&mut fenced, &layer::patch(plain))?;
    out.push((
        "gpu_sim.fenced_interp_x".into(),
        hotspot(&mut fenced, true)? / hotspot(&mut unfenced, false)?,
    ));
    Ok(launch_ns)
}

fn proto_layers(out: &mut Out, n: usize) {
    let args = ArgPack::new().ptr(0x7000_0000_0000).u32(64).finish();
    let cfg = LaunchConfig::linear(2, 32);
    let encode = || layer::encode_launch(surface::FILL_KERNEL, &cfg, &args);
    out.push((
        "proto.encode_launch_ns".into(),
        median_of(REPS, || {
            secs(|| (0..n).for_each(|_| drop(black_box(encode())))) * 1e9 / n as f64
        }),
    ));
    let views: Vec<_> = (0..n.min(10_000))
        .map(|_| layer::frame_view(encode()))
        .collect();
    out.push((
        "proto.decode_launch_ns".into(),
        median_of(REPS, || {
            secs(|| {
                views.iter().for_each(|v| {
                    black_box(layer::decode_view(v));
                })
            }) * 1e9
                / views.len() as f64
        }),
    ));
    // One batched transport write of a full clump, reassembled and split.
    let frames: Vec<Vec<u8>> = (0..STORM_CLUMP).map(|_| encode()).collect();
    let stream = layer::batch_stream(&frames);
    let batches = (n / STORM_CLUMP).max(1);
    let mut decoder = layer::frame_decoder();
    out.push((
        "frame.decode_ns_per_frame".into(),
        median_of(REPS, || {
            let mut decoded = 0;
            let s = secs(|| {
                for _ in 0..batches {
                    decoded += layer::decode_stream(&mut decoder, &stream);
                }
            });
            assert_eq!(decoded, batches * STORM_CLUMP, "frame decoder lost frames");
            s * 1e9 / decoded as f64
        }),
    ));
}

/// First byte of a frame tells the echo server what to do with it.
const ECHO: u8 = 0;
const SINK: u8 = 1;
const ACK: u8 = 2;

fn echo_server(conn: Conn) {
    while let Ok(frame) = conn.recv() {
        let reply = match frame.first() {
            Some(&ECHO) => frame,
            Some(&ACK) => vec![ACK],
            _ => continue,
        };
        if conn.send(reply).is_err() {
            break;
        }
    }
}

/// Ping-pong latency, one-way small-frame rate and one-way payload
/// bandwidth of one transport, against an in-process echo thread.
fn transport_layer(out: &mut Out, kind: &str, pings: usize, frames: usize, big_frames: usize) {
    let socket = surface::temp_socket_path(&format!("layer-{kind}"));
    let (echo, client) = layer::connect_pair(kind, &socket, echo_server);
    let small = |tag: u8| {
        let mut f = vec![0u8; 64];
        f[0] = tag;
        f
    };
    let wait_ack = |client: &Conn| {
        client.send(vec![ACK]).expect("transport send");
        client.recv().expect("transport recv");
    };

    let rtt = median_of(REPS, || {
        secs(|| {
            for _ in 0..pings {
                client.send(small(ECHO)).expect("transport send");
                black_box(client.recv().expect("transport recv"));
            }
        }) / pings as f64
    });
    out.push((format!("transport.{kind}.rtt_us"), rtt * 1e6));

    let batches = (frames / STORM_CLUMP).max(1);
    let rate = median_of(REPS, || {
        let s = secs(|| {
            for _ in 0..batches {
                let batch = (0..STORM_CLUMP).map(|_| small(SINK)).collect();
                client.send_batch(batch).expect("transport send");
            }
            wait_ack(&client);
        });
        (batches * STORM_CLUMP) as f64 / s
    });
    out.push((format!("transport.{kind}.frames_per_s"), rate));

    let mbps = median_of(REPS, || {
        let s = secs(|| {
            for _ in 0..big_frames {
                let mut f = vec![0u8; layer::TRANSPORT_BIG_FRAME];
                f[0] = SINK;
                client.send(f).expect("transport send");
            }
            wait_ack(&client);
        });
        (big_frames * layer::TRANSPORT_BIG_FRAME) as f64 / 1e6 / s
    });
    out.push((format!("transport.{kind}.MBps"), mbps));

    drop(client);
    echo.join().expect("echo thread");
}

fn alloc_layers(out: &mut Out, pairs: usize) {
    let mut buddy = layer::PartitionAllocator::new(1 << 40, 64 * layer::MIN_PARTITION);
    out.push((
        "alloc.buddy_ns".into(),
        median_of(REPS, || {
            secs(|| {
                for _ in 0..pairs {
                    let p = buddy.alloc(2 * layer::MIN_PARTITION).expect("buddy alloc");
                    buddy.free(black_box(p).base).expect("buddy free");
                }
            }) * 1e9
                / pairs as f64
        }),
    ));
    let mut region = layer::RegionAllocator::new(layer::Partition {
        base: 1 << 40,
        size: 16 * layer::MIN_PARTITION,
    });
    out.push((
        "alloc.region_ns".into(),
        median_of(REPS, || {
            secs(|| {
                for _ in 0..pairs {
                    let a = region.alloc(4096).expect("region alloc");
                    region.free(black_box(a)).expect("region free");
                }
            }) * 1e9
                / pairs as f64
        }),
    ));
}

/// Control plane and session, through a live daemon over uds.
fn daemon_layers(
    out: &mut Out,
    daemon_bin: &Path,
    gpu_launch_ns: f64,
    scale: &dyn Fn(usize) -> usize,
) -> Result<(), String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    let dial = |d: &Daemon, mem: u64| -> Result<GrdLib, String> {
        surface::dial(Wire::Uds, d.socket(), mem).map_err(|e| err("dial", &e))
    };

    // Registration: the first tenant of a fresh daemon parses, patches
    // and compiles; the second sends the same bytes and is deduplicated.
    let mut fatbins: Vec<Vec<u8>> = surface::train_fatbins()
        .into_iter()
        .map(<[u8]>::to_vec)
        .collect();
    fatbins.push(surface::rodinia_fatbin().to_vec());
    let (mut first_ms, mut repeat_ms) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let daemon = Daemon::spawn(daemon_bin, Wire::Uds, true)?;
        for ms in [&mut first_ms, &mut repeat_ms] {
            let mut lib = dial(&daemon, 1 << 20)?;
            let t = Instant::now();
            for fb in &fatbins {
                lib.register_fatbin(fb).map_err(|e| err("register", &e))?;
            }
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    out.push(("manager.register_first_ms".into(), median(&first_ms)));
    out.push(("manager.register_repeat_ms".into(), median(&repeat_ms)));

    let daemon = Daemon::spawn(daemon_bin, Wire::Uds, true)?;
    let connects = scale(200);
    let mut connect_us = Vec::with_capacity(connects);
    for _ in 0..connects {
        let t = Instant::now();
        let lib = dial(&daemon, 1 << 20)?;
        connect_us.push(t.elapsed().as_secs_f64() * 1e6);
        drop(lib);
    }
    out.push(("manager.connect_us".into(), median(&connect_us)));

    let mut lib = dial(&daemon, 2 << 20)?;
    let pairs = scale(2_000);
    let mut pair_us = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let t = Instant::now();
        let p = lib.cuda_malloc(4096).map_err(|e| err("malloc", &e))?;
        lib.cuda_free(p).map_err(|e| err("free", &e))?;
        pair_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.push(("manager.malloc_free_us".into(), median(&pair_us)));

    let syncs = scale(2_000);
    let mut sync_us = Vec::with_capacity(syncs);
    for _ in 0..syncs {
        let t = Instant::now();
        lib.cuda_device_synchronize().map_err(|e| err("sync", &e))?;
        sync_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.push(("session.idle_sync_us".into(), median(&sync_us)));

    // What the daemon adds to one launch: a one-tenant storm's time per
    // launch, less the client's push and the device's own launch cost.
    lib.register_fatbin(&surface::fill_fatbin())
        .map_err(|e| err("register", &e))?;
    let launches = scale(16_384).div_ceil(STORM_CLUMP) * STORM_CLUMP;
    let mut residual_ns = Vec::new();
    for _ in 0..REPS {
        let (total, pushing) = fill_storm(&mut lib, launches).map_err(|e| err("storm", &e))?;
        residual_ns.push((total - pushing) * 1e9 / launches as f64 - gpu_launch_ns);
    }
    out.push(("exec_session.launch_ns".into(), median(&residual_ns)));
    Ok(())
}
