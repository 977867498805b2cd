//! The repository API the benchmark binds to — all of it, and nothing
//! else in this package names a crate of the repository.
//!
//! The list is kept to what ROADMAP item 3 says survives: the `guardiand`
//! command line (`--uds`/`--shm`/`--deferred`/`--protection`), the
//! `GrdLib::dial_*` constructors, the `CudaApi` trait, `NativeRuntime`,
//! the application crates, and — for the layer pass only — the public
//! functions of each layer, timed from outside. No `DispatchMode`,
//! `SessionDriver` or `LaunchAck`, and `decode_view` rather than the owned
//! `decode`. A rename in the repository is a change to this file alone.

use std::path::{Path, PathBuf};

pub use cuda_rt::{
    ArgPack, CudaApi, CudaResult, DevicePtr, EventHandle, ModuleHandle, NativeRuntime, Stream,
};
pub use frameworks::{TrainConfig, TrainReport};
pub use gpu_sim::LaunchConfig;
pub use guardian::GrdLib;
pub use rodinia::App as RodiniaApp;

// ---- guardiand, the process ------------------------------------------------

/// Which transport a daemon serves and its tenants dial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    Uds,
    Shm,
}

impl Wire {
    pub fn name(self) -> &'static str {
        match self {
            Wire::Uds => "uds",
            Wire::Shm => "shm",
        }
    }
}

/// First words of the line `guardiand` prints once every endpoint is bound.
pub const DAEMON_READY_PREFIX: &str = "guardiand: listening";

/// The `guardiand` command line of one benchmark arm: the endpoint,
/// deferred launches, and shipped defaults for everything else.
/// `fenced = false` is the `--protection none` arm that separates the cost
/// of the RPC stack from the cost of the fence instrumentation.
pub fn daemon_args(wire: Wire, socket: &Path, fenced: bool) -> Vec<String> {
    let mut args = vec![
        format!("--{}", wire.name()),
        socket.display().to_string(),
        "--deferred".to_string(),
    ];
    if !fenced {
        args.extend(["--protection".to_string(), "none".to_string()]);
    }
    args
}

/// A fresh socket path under the temp directory (which `main` points
/// inside the checkout).
pub fn temp_socket_path(tag: &str) -> PathBuf {
    guardian::fixtures::temp_socket_path(tag)
}

/// Per-direction ring size of shm tenants: the transport's default.
const SHM_RING_BYTES: u32 = 1 << 20;

/// Connect one tenant with a partition of `mem` bytes.
pub fn dial(wire: Wire, socket: &Path, mem: u64) -> CudaResult<GrdLib> {
    match wire {
        Wire::Uds => GrdLib::dial_uds(socket, mem),
        Wire::Shm => GrdLib::dial_shm_with_capacity(socket, mem, SHM_RING_BYTES),
    }
}

// ---- the native reference --------------------------------------------------

/// An in-process simulated GPU of the model `guardiand` owns, for the
/// native arm: tenants are `NativeRuntime`s calling the device directly.
pub struct NativeHost {
    device: cuda_rt::SharedDevice,
}

impl NativeHost {
    /// `time_sharing` puts the device in exclusive-context mode, the way
    /// co-located native processes share a GPU without MPS.
    pub fn new(time_sharing: bool) -> Self {
        let mut device = gpu_sim::Device::new(gpu_sim::spec::test_gpu());
        device.exclusive_contexts(time_sharing);
        NativeHost {
            device: cuda_rt::share_device(device),
        }
    }

    pub fn runtime(&self) -> CudaResult<NativeRuntime> {
        NativeRuntime::new(self.device.clone())
    }

    /// Dynamic PTX instructions interpreted so far, over all kernels.
    pub fn instructions(&self) -> u64 {
        let dev = self.device.lock();
        dev.kernel_stats().values().map(|k| k.instructions).sum()
    }
}

// ---- applications ----------------------------------------------------------

/// Train Lenet (`frameworks::train`), the paper's Fig. 7 job.
pub fn train_lenet(api: &mut dyn CudaApi, cfg: &TrainConfig) -> CudaResult<TrainReport> {
    frameworks::train(api, frameworks::Network::Lenet, cfg)
}

/// The library fatbins `train_lenet` registers on first use.
pub fn train_fatbins() -> Vec<&'static [u8]> {
    vec![
        culibs::fatbins::cublas_fatbin(),
        culibs::fatbins::cudnn_fatbin(),
    ]
}

pub fn rodinia_run(api: &mut dyn CudaApi, app: RodiniaApp, scale: u32) -> CudaResult<()> {
    rodinia::run(api, app, scale)
}

pub fn rodinia_fatbin() -> &'static [u8] {
    rodinia::fatbin()
}

/// Name of the kernel in [`fill_fatbin`]: `fill(out, n)` writes
/// `out[i] = i` for `i < n`.
pub const FILL_KERNEL: &str = "fill";

pub fn fill_fatbin() -> Vec<u8> {
    let mut fb = ptx::fatbin::FatBin::new();
    fb.push_ptx("app", guardian::fixtures::FILL);
    fb.to_bytes().to_vec()
}

// ---- single layers, for the layer pass -------------------------------------

pub mod layer {
    //! Thin adapters over each layer's public functions, so the layer
    //! pass can time them from outside.

    use super::{CudaApi, CudaResult, LaunchConfig, ModuleHandle, NativeRuntime};
    use guardian::transport::frame::{FrameDecoder, FrameView, BATCH_FLAG, MAX_FRAME};
    use guardian::transport::{BoundTransport, Connection, Dialer};
    use std::path::Path;

    pub use guardian::alloc::{Partition, PartitionAllocator, RegionAllocator, MIN_PARTITION};
    pub use ptx::Module;

    /// The PTX of every module the workloads register (cuBLAS, cuDNN,
    /// Rodinia, `fill`), as `guardiand` receives it.
    pub fn workload_ptx() -> Vec<String> {
        let mut fatbins = super::train_fatbins();
        fatbins.push(super::rodinia_fatbin());
        let fill = super::fill_fatbin();
        fatbins.push(&fill);
        fatbins
            .into_iter()
            .flat_map(|fb| ptx::fatbin::extract_ptx(fb).expect("workload fatbin"))
            .map(|(_, text)| text)
            .collect()
    }

    pub fn parse(text: &str) -> Module {
        ptx::parse(text).expect("workload ptx parses")
    }

    pub fn kernels(m: &Module) -> usize {
        m.kernel_names().len()
    }

    /// Static instruction count of a module.
    pub fn instructions(m: &Module) -> usize {
        m.functions.iter().map(|f| f.instructions().count()).sum()
    }

    /// The fenced variant `guardiand` builds under its default protection.
    pub fn patch(m: &Module) -> Module {
        ptx_patcher::patch_module(m, ptx_patcher::Protection::FenceBitwise)
            .expect("workload ptx patches")
            .module
    }

    pub fn compile(m: &Module) -> usize {
        gpu_sim::compile::compile_module(m, 0)
            .expect("workload ptx compiles")
            .functions
            .len()
    }

    /// Load a module's printed PTX into a native runtime.
    pub fn load(rt: &mut NativeRuntime, m: &Module) -> CudaResult<ModuleHandle> {
        rt.cu_module_load_data("layer", &m.to_string())
    }

    pub fn rodinia_module() -> &'static Module {
        rodinia::module()
    }

    pub fn encode_launch(kernel: &str, cfg: &LaunchConfig, args: &[u8]) -> Vec<u8> {
        guardian::proto::encode_launch(kernel, cfg, args, false)
    }

    /// A received frame as the session sees it.
    pub fn frame_view(frame: Vec<u8>) -> FrameView {
        FrameView::from(frame)
    }

    /// Zero-copy decode of one request frame; true if it decoded.
    pub fn decode_view(frame: &FrameView) -> bool {
        guardian::proto::Request::decode_view(frame).is_ok()
    }

    /// The bytes one batched transport write of `frames` puts on a stream.
    pub fn batch_stream(frames: &[Vec<u8>]) -> Vec<u8> {
        let body = guardian::transport::frame::batch_body(frames);
        let mut stream = ((body.len() as u32) | BATCH_FLAG).to_le_bytes().to_vec();
        stream.extend_from_slice(&body);
        stream
    }

    /// Reassemble `stream` and pull every frame out; returns how many.
    pub fn decode_stream(decoder: &mut FrameDecoder, stream: &[u8]) -> usize {
        decoder.push(stream);
        let mut n = 0;
        while let Ok(Some(_)) = decoder.next_frame() {
            n += 1;
        }
        n
    }

    pub fn frame_decoder() -> FrameDecoder {
        FrameDecoder::new(MAX_FRAME)
    }

    /// The three transports, by the names the metrics use.
    pub const TRANSPORTS: [&str; 3] = ["uds", "shm", "channel"];

    /// Largest frame the transport benches send; shm rings are sized to
    /// hold a few of them.
    pub const TRANSPORT_BIG_FRAME: usize = 1 << 20;

    pub type Conn = Box<dyn Connection>;

    /// Bind `kind` at `socket`, hand the accepted server half to `serve`
    /// on a thread of its own, and connect one client to it in-process.
    /// (The server half must be served before the dial returns: the shm
    /// handshake completes on the server's first receive.)
    pub fn connect_pair(
        kind: &str,
        socket: &Path,
        serve: impl FnOnce(Conn) + Send + 'static,
    ) -> (std::thread::JoinHandle<()>, Conn) {
        let bound = match kind {
            "uds" => BoundTransport::uds(socket),
            "shm" => BoundTransport::shm(socket),
            "channel" => Ok(BoundTransport::channel()),
            other => panic!("unknown transport {other}"),
        }
        .expect("bind transport");
        let listener = bound.listener;
        let server = std::thread::spawn(move || {
            serve(listener.accept().expect("accept transport"));
        });
        let client = if kind == "shm" {
            guardian::transport::shm::ShmDialer::with_capacity(
                socket,
                (4 * TRANSPORT_BIG_FRAME) as u32,
            )
            .dial()
        } else {
            bound.dialer.dial()
        }
        .expect("dial transport");
        let _ = std::fs::remove_file(socket);
        (server, client)
    }

    /// What a session does per launch for telemetry: one clock read and
    /// one histogram increment.
    pub fn telemetry_recorder() -> impl Fn() {
        let tel = guardian::telemetry::TenantTelemetry::new(guardian::telemetry::FLIGHT_RING);
        move || {
            tel.record(
                guardian::telemetry::OpClass::LaunchEnqueue,
                guardian::telemetry::now_ns(),
            )
        }
    }
}
