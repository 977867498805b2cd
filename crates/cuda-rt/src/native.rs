//! [`NativeRuntime`]: the default [`CudaApi`] implementation, talking to
//! the simulated device directly (the un-intercepted CUDA stack).
//!
//! One `NativeRuntime` corresponds to one application process in the
//! paper's baselines: it owns a CUDA context on the device, a default
//! stream, and the modules registered by the application and its
//! libraries. In the MPS deployment the runtime carries an ASID guard so
//! the device enforces MPS-style memory protection (without fault
//! isolation); in plain time-sharing the device is put in exclusive-
//! context mode externally.

use crate::api::{CudaApi, DevicePtr, EventHandle, ModuleHandle, Stream};
use crate::error::{CudaError, CudaResult};
use crate::export;
use gpu_sim::stream::CudaFunction;
use gpu_sim::{Command, CtxId, Device, Event, HostSink, LaunchConfig, MemGuard};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A shared handle to the simulated device.
pub type SharedDevice = Arc<Mutex<Device>>;

/// Wrap a device for sharing between runtimes/tenants.
pub fn share_device(device: Device) -> SharedDevice {
    Arc::new(Mutex::new(device))
}

/// The native CUDA runtime+driver implementation.
pub struct NativeRuntime {
    device: SharedDevice,
    ctx: CtxId,
    guard: MemGuard,
    streams: HashMap<u32, gpu_sim::StreamId>,
    next_stream: u32,
    events: HashMap<u32, Event>,
    next_event: u32,
    modules: HashMap<u32, Arc<gpu_sim::compile::CompiledModule>>,
    next_module: u32,
    kernels: HashMap<String, CudaFunction>,
}

impl NativeRuntime {
    /// Create a runtime (and its CUDA context) on a shared device with no
    /// per-access memory guard — the single-context spatial-sharing model
    /// where nothing stops cross-tenant accesses (Figure 1).
    ///
    /// # Errors
    ///
    /// Propagates device context-creation failures (e.g. OOM).
    pub fn new(device: SharedDevice) -> CudaResult<Self> {
        Self::with_guard_mode(device, false)
    }

    /// Create a runtime whose launches carry an MPS-style ASID guard: the
    /// device faults on any access to another context's pages.
    ///
    /// # Errors
    ///
    /// Propagates device context-creation failures.
    pub fn new_mps_client(device: SharedDevice) -> CudaResult<Self> {
        Self::with_guard_mode(device, true)
    }

    fn with_guard_mode(device: SharedDevice, asid_guard: bool) -> CudaResult<Self> {
        let (ctx, default_stream, guard) = {
            let mut dev = device.lock();
            let ctx = dev.create_context()?;
            let stream = dev.create_stream(ctx)?;
            let guard = if asid_guard {
                MemGuard::Asid(dev.context_asid(ctx)?)
            } else {
                MemGuard::None
            };
            (ctx, stream, guard)
        };
        let mut streams = HashMap::new();
        streams.insert(0, default_stream);
        Ok(NativeRuntime {
            device,
            ctx,
            guard,
            streams,
            next_stream: 1,
            events: HashMap::new(),
            next_event: 1,
            modules: HashMap::new(),
            next_module: 1,
            kernels: HashMap::new(),
        })
    }

    /// The runtime's device context id.
    pub fn ctx(&self) -> CtxId {
        self.ctx
    }

    /// The shared device handle.
    pub fn device(&self) -> &SharedDevice {
        &self.device
    }

    fn dev_stream(&self, stream: Stream) -> CudaResult<gpu_sim::StreamId> {
        self.streams
            .get(&stream.0)
            .copied()
            .ok_or(CudaError::InvalidValue)
    }

    fn check_poison(&self) -> CudaResult<()> {
        if self.device.lock().context_poisoned(self.ctx) {
            Err(CudaError::ContextPoisoned)
        } else {
            Ok(())
        }
    }

    fn launch_impl(
        &mut self,
        kernel: &str,
        cfg: LaunchConfig,
        args: &[u8],
        stream: Stream,
    ) -> CudaResult<()> {
        let func = self
            .kernels
            .get(kernel)
            .cloned()
            .ok_or_else(|| CudaError::InvalidDeviceFunction(kernel.to_string()))?;
        let sid = self.dev_stream(stream)?;
        self.device.lock().enqueue(
            sid,
            Command::Launch {
                func,
                cfg,
                params: args.to_vec().into(),
                guard: self.guard,
            },
        )?;
        Ok(())
    }

    fn load_module_impl(&mut self, name: &str, ptx_text: &str) -> CudaResult<ModuleHandle> {
        let parsed = ptx::parse(ptx_text).map_err(|e| CudaError::ModuleLoad(e.to_string()))?;
        let compiled = self.device.lock().load_module(self.ctx, &parsed)?;
        for (kname, k) in &compiled.functions {
            if k.kind == ptx::FunctionKind::Entry {
                self.kernels.insert(
                    kname.clone(),
                    CudaFunction {
                        kernel: k.clone(),
                        module: compiled.clone(),
                    },
                );
            }
        }
        let id = self.next_module;
        self.next_module += 1;
        self.modules.insert(id, compiled);
        let _ = name;
        Ok(ModuleHandle(id))
    }
}

impl CudaApi for NativeRuntime {
    fn cuda_malloc(&mut self, bytes: u64) -> CudaResult<DevicePtr> {
        Ok(self.device.lock().malloc(self.ctx, bytes)?)
    }

    fn cuda_free(&mut self, ptr: DevicePtr) -> CudaResult<()> {
        Ok(self.device.lock().free(self.ctx, ptr)?)
    }

    fn cuda_memset(&mut self, dst: DevicePtr, byte: u8, len: u64) -> CudaResult<()> {
        let sid = self.dev_stream(Stream::DEFAULT)?;
        {
            let mut dev = self.device.lock();
            dev.enqueue(sid, Command::Memset { dst, byte, len })?;
            dev.synchronize();
        }
        self.check_poison()
    }

    fn cuda_memcpy_h2d(&mut self, dst: DevicePtr, data: &[u8]) -> CudaResult<()> {
        let sid = self.dev_stream(Stream::DEFAULT)?;
        {
            let mut dev = self.device.lock();
            dev.enqueue(
                sid,
                Command::MemcpyH2D {
                    dst,
                    data: data.to_vec().into(),
                },
            )?;
            dev.synchronize();
        }
        self.check_poison()
    }

    fn cuda_memcpy_d2h(&mut self, src: DevicePtr, len: u64) -> CudaResult<Vec<u8>> {
        let sid = self.dev_stream(Stream::DEFAULT)?;
        let sink = HostSink::new();
        {
            let mut dev = self.device.lock();
            dev.enqueue(
                sid,
                Command::MemcpyD2H {
                    src,
                    len,
                    sink: sink.clone(),
                },
            )?;
            dev.synchronize();
        }
        self.check_poison()?;
        Ok(sink.take())
    }

    fn cuda_memcpy_d2d(&mut self, dst: DevicePtr, src: DevicePtr, len: u64) -> CudaResult<()> {
        let sid = self.dev_stream(Stream::DEFAULT)?;
        {
            let mut dev = self.device.lock();
            dev.enqueue(sid, Command::MemcpyD2D { dst, src, len })?;
            dev.synchronize();
        }
        self.check_poison()
    }

    fn cuda_launch_kernel(
        &mut self,
        kernel: &str,
        cfg: LaunchConfig,
        args: &[u8],
        stream: Stream,
    ) -> CudaResult<()> {
        self.launch_impl(kernel, cfg, args, stream)
    }

    fn cuda_stream_create(&mut self) -> CudaResult<Stream> {
        let sid = self.device.lock().create_stream(self.ctx)?;
        let handle = self.next_stream;
        self.next_stream += 1;
        self.streams.insert(handle, sid);
        Ok(Stream(handle))
    }

    fn cuda_stream_synchronize(&mut self, stream: Stream) -> CudaResult<()> {
        let _ = self.dev_stream(stream)?;
        self.device.lock().synchronize();
        self.check_poison()
    }

    fn cuda_device_synchronize(&mut self) -> CudaResult<()> {
        self.device.lock().synchronize();
        self.check_poison()
    }

    fn cuda_event_create_with_flags(&mut self, _flags: u32) -> CudaResult<EventHandle> {
        let handle = self.next_event;
        self.next_event += 1;
        self.events.insert(handle, Event::new());
        Ok(EventHandle(handle))
    }

    fn cuda_event_record(&mut self, event: EventHandle, stream: Stream) -> CudaResult<()> {
        let ev = self
            .events
            .get(&event.0)
            .cloned()
            .ok_or(CudaError::InvalidValue)?;
        let sid = self.dev_stream(stream)?;
        self.device
            .lock()
            .enqueue(sid, Command::EventRecord { event: ev })?;
        Ok(())
    }

    fn cuda_event_elapsed_ms(&mut self, start: EventHandle, end: EventHandle) -> CudaResult<f32> {
        let a = self
            .events
            .get(&start.0)
            .and_then(|e| e.cycles())
            .ok_or(CudaError::InvalidValue)?;
        let b = self
            .events
            .get(&end.0)
            .and_then(|e| e.cycles())
            .ok_or(CudaError::InvalidValue)?;
        let ghz = self.device_clock_ghz();
        Ok(((b.saturating_sub(a)) as f64 / (ghz * 1e6)) as f32)
    }

    fn cuda_stream_get_capture_info(&mut self, _stream: Stream) -> CudaResult<bool> {
        Ok(false)
    }

    fn cuda_stream_is_capturing(&mut self, _stream: Stream) -> CudaResult<bool> {
        Ok(false)
    }

    fn cuda_get_export_table(&mut self, table_id: u32) -> CudaResult<Vec<String>> {
        export::table(table_id)
            .map(|fns| fns.iter().map(|s| s.to_string()).collect())
            .ok_or(CudaError::MissingExportTable(table_id))
    }

    fn export_table_call(&mut self, table_id: u32, func: &str) -> CudaResult<()> {
        if export::table_has(table_id, func) {
            Ok(())
        } else {
            Err(CudaError::InvalidValue)
        }
    }

    fn cu_module_load_data(&mut self, name: &str, ptx_text: &str) -> CudaResult<ModuleHandle> {
        self.load_module_impl(name, ptx_text)
    }

    fn cu_mem_alloc(&mut self, bytes: u64) -> CudaResult<DevicePtr> {
        self.cuda_malloc(bytes)
    }

    fn cu_mem_free(&mut self, ptr: DevicePtr) -> CudaResult<()> {
        self.cuda_free(ptr)
    }

    fn cu_memcpy_htod(&mut self, dst: DevicePtr, data: &[u8]) -> CudaResult<()> {
        self.cuda_memcpy_h2d(dst, data)
    }

    fn cu_launch_kernel(
        &mut self,
        kernel: &str,
        cfg: LaunchConfig,
        args: &[u8],
        stream: Stream,
    ) -> CudaResult<()> {
        self.launch_impl(kernel, cfg, args, stream)
    }

    fn register_fatbin(&mut self, fatbin: &[u8]) -> CudaResult<()> {
        let images =
            ptx::fatbin::extract_ptx(fatbin).map_err(|e| CudaError::ModuleLoad(e.to_string()))?;
        for (name, text) in images {
            self.load_module_impl(&name, &text)?;
        }
        Ok(())
    }

    fn device_now_cycles(&mut self) -> u64 {
        self.device.lock().now()
    }

    fn device_clock_ghz(&self) -> f64 {
        self.device.lock().spec().clock_ghz
    }
}

impl Drop for NativeRuntime {
    fn drop(&mut self) {
        // Destructors never fail: ignore errors on teardown.
        let _ = self.device.lock().destroy_context(self.ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::spec::test_gpu;
    use ptx::fatbin::FatBin;

    const SAXPY: &str = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry saxpy(
    .param .u64 x,
    .param .u64 y,
    .param .f32 a,
    .param .u32 n)
{
    .reg .pred %p<2>;
    .reg .b32 %r<6>;
    .reg .f32 %f<5>;
    .reg .b64 %rd<8>;
    ld.param.u64 %rd1, [x];
    ld.param.u64 %rd2, [y];
    ld.param.f32 %f1, [a];
    ld.param.u32 %r1, [n];
    cvta.to.global.u64 %rd3, %rd1;
    cvta.to.global.u64 %rd4, %rd2;
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r5, %r1;
    @%p1 bra $L_end;
    mul.wide.u32 %rd5, %r5, 4;
    add.s64 %rd6, %rd3, %rd5;
    add.s64 %rd7, %rd4, %rd5;
    ld.global.f32 %f2, [%rd6];
    ld.global.f32 %f3, [%rd7];
    fma.rn.f32 %f4, %f2, %f1, %f3;
    st.global.f32 [%rd7], %f4;
$L_end:
    ret;
}
"#;

    fn runtime() -> NativeRuntime {
        let dev = share_device(Device::new(test_gpu()));
        NativeRuntime::new(dev).unwrap()
    }

    #[test]
    fn saxpy_end_to_end() {
        let mut rt = runtime();
        let mut fb = FatBin::new();
        fb.push_ptx("app", SAXPY);
        rt.register_fatbin(&fb.to_bytes()).unwrap();

        let n = 256u32;
        let x = rt.cuda_malloc(4 * n as u64).unwrap();
        let y = rt.cuda_malloc(4 * n as u64).unwrap();
        let xs: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        let ys: Vec<u8> = (0..n).flat_map(|_| 1.0f32.to_le_bytes()).collect();
        rt.cuda_memcpy_h2d(x, &xs).unwrap();
        rt.cuda_memcpy_h2d(y, &ys).unwrap();

        let args = crate::api::ArgPack::new()
            .ptr(x)
            .ptr(y)
            .f32(2.0)
            .u32(n)
            .finish();
        rt.cuda_launch_kernel("saxpy", LaunchConfig::linear(4, 64), &args, Stream::DEFAULT)
            .unwrap();
        rt.cuda_device_synchronize().unwrap();

        let out = rt.cuda_memcpy_d2h(y, 4 * n as u64).unwrap();
        for i in 0..n as usize {
            let v = f32::from_le_bytes(out[i * 4..i * 4 + 4].try_into().unwrap());
            assert_eq!(v, 2.0 * i as f32 + 1.0);
        }
    }

    #[test]
    fn unknown_kernel_is_invalid_device_function() {
        let mut rt = runtime();
        let r = rt.cuda_launch_kernel("missing", LaunchConfig::linear(1, 1), &[], Stream::DEFAULT);
        assert!(matches!(r, Err(CudaError::InvalidDeviceFunction(_))));
    }

    #[test]
    fn events_measure_elapsed_device_time() {
        let mut rt = runtime();
        let mut fb = FatBin::new();
        fb.push_ptx("app", SAXPY);
        rt.register_fatbin(&fb.to_bytes()).unwrap();
        let x = rt.cuda_malloc(1024).unwrap();
        let y = rt.cuda_malloc(1024).unwrap();

        let e0 = rt.cuda_event_create_with_flags(0).unwrap();
        let e1 = rt.cuda_event_create_with_flags(0).unwrap();
        rt.cuda_event_record(e0, Stream::DEFAULT).unwrap();
        let args = crate::api::ArgPack::new()
            .ptr(x)
            .ptr(y)
            .f32(1.0)
            .u32(256)
            .finish();
        rt.cuda_launch_kernel("saxpy", LaunchConfig::linear(4, 64), &args, Stream::DEFAULT)
            .unwrap();
        rt.cuda_event_record(e1, Stream::DEFAULT).unwrap();
        rt.cuda_device_synchronize().unwrap();
        let ms = rt.cuda_event_elapsed_ms(e0, e1).unwrap();
        assert!(ms > 0.0);
    }

    #[test]
    fn elapsed_on_unrecorded_event_errors() {
        let mut rt = runtime();
        let e0 = rt.cuda_event_create_with_flags(0).unwrap();
        let e1 = rt.cuda_event_create_with_flags(0).unwrap();
        assert_eq!(
            rt.cuda_event_elapsed_ms(e0, e1),
            Err(CudaError::InvalidValue)
        );
    }

    #[test]
    fn memset_fills_device_memory() {
        let mut rt = runtime();
        let p = rt.cuda_malloc(64).unwrap();
        rt.cuda_memset(p, 0xAB, 64).unwrap();
        let out = rt.cuda_memcpy_d2h(p, 64).unwrap();
        assert!(out.iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn oversized_memset_and_copies_are_errors() {
        type Call = fn(&mut NativeRuntime, DevicePtr) -> CudaResult<()>;
        let calls: [Call; 3] = [
            |rt, p| rt.cuda_memset(p, 7, u64::MAX - 4096),
            |rt, p| rt.cuda_memcpy_d2d(p, p + 64, u64::MAX - 4096),
            |rt, p| rt.cuda_memcpy_d2d(p, p + 64, 1 << 40),
        ];
        for call in calls {
            let mut rt = runtime();
            let p = rt.cuda_malloc(4096).unwrap();
            assert!(call(&mut rt, p).is_err());
        }
    }

    #[test]
    fn two_runtimes_share_one_device() {
        let dev = share_device(Device::new(test_gpu()));
        let mut a = NativeRuntime::new(dev.clone()).unwrap();
        let mut b = NativeRuntime::new(dev.clone()).unwrap();
        let pa = a.cuda_malloc(4096).unwrap();
        let pb = b.cuda_malloc(4096).unwrap();
        assert_ne!(pa, pb);
        assert!(dev.lock().used_bytes() > 0);
        // Without protection, runtime B can read A's memory through d2d —
        // the Figure 1 hazard that Guardian exists to fix.
        a.cuda_memcpy_h2d(pa, b"secret!!").unwrap();
        b.cuda_memcpy_d2d(pb, pa, 8).unwrap();
        let leaked = b.cuda_memcpy_d2h(pb, 8).unwrap();
        assert_eq!(&leaked, b"secret!!");
    }

    #[test]
    fn export_tables_are_served() {
        let mut rt = runtime();
        let fns = rt.cuda_get_export_table(0x01).unwrap();
        assert!(!fns.is_empty());
        rt.export_table_call(0x01, &fns[0]).unwrap();
        assert!(rt.cuda_get_export_table(0x99).is_err());
        assert!(rt.export_table_call(0x01, "nope").is_err());
    }

    #[test]
    fn streams_are_per_runtime() {
        let mut rt = runtime();
        let s1 = rt.cuda_stream_create().unwrap();
        let s2 = rt.cuda_stream_create().unwrap();
        assert_ne!(s1, s2);
        rt.cuda_stream_synchronize(s1).unwrap();
        assert!(rt.cuda_stream_synchronize(Stream(99)).is_err());
    }

    #[test]
    fn driver_api_variants_work() {
        let mut rt = runtime();
        let m = rt.cu_module_load_data("m", SAXPY).unwrap();
        assert_eq!(m, ModuleHandle(1));
        let p = rt.cu_mem_alloc(1024).unwrap();
        rt.cu_memcpy_htod(p, &[0u8; 16]).unwrap();
        let args = crate::api::ArgPack::new()
            .ptr(p)
            .ptr(p)
            .f32(0.0)
            .u32(0)
            .finish();
        rt.cu_launch_kernel("saxpy", LaunchConfig::linear(1, 32), &args, Stream::DEFAULT)
            .unwrap();
        rt.cuda_device_synchronize().unwrap();
        rt.cu_mem_free(p).unwrap();
    }
}
