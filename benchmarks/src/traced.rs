//! [`Traced`]: the decorator every tenant's `CudaApi` is wrapped in, on
//! both arms (modelled on `cuda_rt::CallRecorder`).
//!
//! Always on, and cheap: per-class call and error counts, and the table
//! of live allocations that output verification reads back. Only with
//! tracing on: one span per call — name, class, start, end, and the phase
//! span that contains it — pushed into a buffer allocated up front, plus
//! per-class busy time and bytes.

use crate::surface::{
    CudaApi, CudaResult, DevicePtr, EventHandle, LaunchConfig, ModuleHandle, Stream,
};
use std::sync::OnceLock;
use std::time::Instant;

/// Call classes the per-layer metrics are reported by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Launch,
    Sync,
    H2d,
    D2h,
    Alloc,
    Register,
    Other,
}

impl Class {
    pub const ALL: [Class; 7] = [
        Class::Launch,
        Class::Sync,
        Class::H2d,
        Class::D2h,
        Class::Alloc,
        Class::Register,
        Class::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Launch => "launch",
            Class::Sync => "sync",
            Class::H2d => "h2d",
            Class::D2h => "d2h",
            Class::Alloc => "alloc",
            Class::Register => "register",
            Class::Other => "other",
        }
    }
}

/// The phases of one tenant's arm; every call span has one as parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Setup,
    Run,
    Verify,
    Teardown,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Run => "run",
            Phase::Verify => "verify",
            Phase::Teardown => "teardown",
        }
    }
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded call, or — with `class == None` — one phase.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub class: Option<Class>,
    pub phase: Phase,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-class totals of one tenant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassTotals {
    pub calls: u64,
    pub errors: u64,
    /// Time inside calls of this class during [`Phase::Run`]; 0 with
    /// tracing off.
    pub busy_ns: u64,
    /// Payload bytes moved by calls of this class during [`Phase::Run`].
    pub bytes: u64,
    /// Calls of this class during [`Phase::Run`].
    pub run_calls: u64,
}

/// Spans a tenant can record before the buffer stops growing (the
/// totals keep counting). 32 B each.
const SPAN_CAPACITY: usize = 1 << 18;

pub struct Traced<A> {
    inner: A,
    phase: Phase,
    phase_start_ns: u64,
    totals: [ClassTotals; 7],
    /// Live allocations in allocation order: (pointer, bytes).
    live: Vec<(DevicePtr, u64)>,
    spans: Option<Vec<Span>>,
    dropped_spans: u64,
}

impl<A: CudaApi> Traced<A> {
    /// Wrap a runtime; `trace` turns span recording on.
    pub fn new(inner: A, trace: bool) -> Self {
        Traced {
            inner,
            phase: Phase::Setup,
            phase_start_ns: now_ns(),
            totals: Default::default(),
            live: Vec::new(),
            spans: trace.then(|| Vec::with_capacity(SPAN_CAPACITY)),
            dropped_spans: 0,
        }
    }

    /// Close the current phase span and open `next`.
    pub fn enter(&mut self, next: Phase) {
        let now = now_ns();
        let closed = Span {
            name: self.phase.name(),
            class: None,
            phase: self.phase,
            start_ns: self.phase_start_ns,
            end_ns: now,
        };
        self.push(closed);
        self.phase = next;
        self.phase_start_ns = now;
    }

    pub fn totals(&self, class: Class) -> ClassTotals {
        self.totals[class as usize]
    }

    pub fn calls(&self) -> u64 {
        self.totals.iter().map(|t| t.calls).sum()
    }

    pub fn errors(&self) -> u64 {
        self.totals.iter().map(|t| t.errors).sum()
    }

    /// Buffers the application left allocated, in allocation order.
    pub fn live(&self) -> &[(DevicePtr, u64)] {
        &self.live
    }

    /// Drop the runtime inside a teardown phase and hand the spans over
    /// (none with tracing off), with the number that did not fit the
    /// buffer.
    pub fn finish(mut self) -> (Vec<Span>, u64) {
        self.enter(Phase::Teardown);
        let Traced {
            inner,
            spans,
            mut dropped_spans,
            phase_start_ns,
            ..
        } = self;
        drop(inner);
        let Some(mut spans) = spans else {
            return (Vec::new(), 0);
        };
        if spans.len() < SPAN_CAPACITY {
            spans.push(Span {
                name: Phase::Teardown.name(),
                class: None,
                phase: Phase::Teardown,
                start_ns: phase_start_ns,
                end_ns: now_ns(),
            });
        } else {
            dropped_spans += 1;
        }
        (spans, dropped_spans)
    }

    fn push(&mut self, span: Span) {
        if let Some(spans) = &mut self.spans {
            if spans.len() < SPAN_CAPACITY {
                spans.push(span);
            } else {
                self.dropped_spans += 1;
            }
        }
    }

    fn call<T>(
        &mut self,
        name: &'static str,
        class: Class,
        bytes: u64,
        f: impl FnOnce(&mut A) -> CudaResult<T>,
    ) -> CudaResult<T> {
        let in_run = self.phase == Phase::Run;
        let r = if self.spans.is_some() {
            let start_ns = now_ns();
            let r = f(&mut self.inner);
            let end_ns = now_ns();
            if in_run {
                self.totals[class as usize].busy_ns += end_ns - start_ns;
            }
            self.push(Span {
                name,
                class: Some(class),
                phase: self.phase,
                start_ns,
                end_ns,
            });
            r
        } else {
            f(&mut self.inner)
        };
        let t = &mut self.totals[class as usize];
        t.calls += 1;
        t.errors += u64::from(r.is_err());
        if in_run {
            t.run_calls += 1;
            t.bytes += bytes;
        }
        r
    }

    fn track_alloc(&mut self, r: &CudaResult<DevicePtr>, bytes: u64) {
        if let Ok(ptr) = r {
            self.live.push((*ptr, bytes));
        }
    }

    fn track_free(&mut self, r: &CudaResult<()>, ptr: DevicePtr) {
        if r.is_ok() {
            if let Some(i) = self.live.iter().rposition(|&(p, _)| p == ptr) {
                self.live.remove(i);
            }
        }
    }
}

impl<A: CudaApi> CudaApi for Traced<A> {
    fn cuda_malloc(&mut self, bytes: u64) -> CudaResult<DevicePtr> {
        let r = self.call("cudaMalloc", Class::Alloc, 0, |a| a.cuda_malloc(bytes));
        self.track_alloc(&r, bytes);
        r
    }

    fn cuda_free(&mut self, ptr: DevicePtr) -> CudaResult<()> {
        let r = self.call("cudaFree", Class::Alloc, 0, |a| a.cuda_free(ptr));
        self.track_free(&r, ptr);
        r
    }

    fn cuda_memset(&mut self, dst: DevicePtr, byte: u8, len: u64) -> CudaResult<()> {
        self.call("cudaMemset", Class::Other, 0, |a| {
            a.cuda_memset(dst, byte, len)
        })
    }

    fn cuda_memcpy_h2d(&mut self, dst: DevicePtr, data: &[u8]) -> CudaResult<()> {
        self.call("cudaMemcpyH2D", Class::H2d, data.len() as u64, |a| {
            a.cuda_memcpy_h2d(dst, data)
        })
    }

    fn cuda_memcpy_d2h(&mut self, src: DevicePtr, len: u64) -> CudaResult<Vec<u8>> {
        self.call("cudaMemcpyD2H", Class::D2h, len, |a| {
            a.cuda_memcpy_d2h(src, len)
        })
    }

    fn cuda_memcpy_d2d(&mut self, dst: DevicePtr, src: DevicePtr, len: u64) -> CudaResult<()> {
        self.call("cudaMemcpyD2D", Class::Other, 0, |a| {
            a.cuda_memcpy_d2d(dst, src, len)
        })
    }

    fn cuda_launch_kernel(
        &mut self,
        kernel: &str,
        cfg: LaunchConfig,
        args: &[u8],
        stream: Stream,
    ) -> CudaResult<()> {
        self.call("cudaLaunchKernel", Class::Launch, 0, |a| {
            a.cuda_launch_kernel(kernel, cfg, args, stream)
        })
    }

    fn cuda_stream_create(&mut self) -> CudaResult<Stream> {
        self.call("cudaStreamCreate", Class::Other, 0, |a| {
            a.cuda_stream_create()
        })
    }

    fn cuda_stream_synchronize(&mut self, stream: Stream) -> CudaResult<()> {
        self.call("cudaStreamSynchronize", Class::Sync, 0, |a| {
            a.cuda_stream_synchronize(stream)
        })
    }

    fn cuda_device_synchronize(&mut self) -> CudaResult<()> {
        self.call("cudaDeviceSynchronize", Class::Sync, 0, |a| {
            a.cuda_device_synchronize()
        })
    }

    fn cuda_event_create_with_flags(&mut self, flags: u32) -> CudaResult<EventHandle> {
        self.call("cudaEventCreateWithFlags", Class::Other, 0, |a| {
            a.cuda_event_create_with_flags(flags)
        })
    }

    fn cuda_event_record(&mut self, event: EventHandle, stream: Stream) -> CudaResult<()> {
        self.call("cudaEventRecord", Class::Other, 0, |a| {
            a.cuda_event_record(event, stream)
        })
    }

    fn cuda_event_elapsed_ms(&mut self, start: EventHandle, end: EventHandle) -> CudaResult<f32> {
        self.call("cudaEventElapsedTime", Class::Other, 0, |a| {
            a.cuda_event_elapsed_ms(start, end)
        })
    }

    fn cuda_stream_get_capture_info(&mut self, stream: Stream) -> CudaResult<bool> {
        self.call("cudaStreamGetCaptureInfo", Class::Other, 0, |a| {
            a.cuda_stream_get_capture_info(stream)
        })
    }

    fn cuda_stream_is_capturing(&mut self, stream: Stream) -> CudaResult<bool> {
        self.call("cudaStreamIsCapturing", Class::Other, 0, |a| {
            a.cuda_stream_is_capturing(stream)
        })
    }

    fn cuda_get_export_table(&mut self, table_id: u32) -> CudaResult<Vec<String>> {
        self.call("cudaGetExportTable", Class::Other, 0, |a| {
            a.cuda_get_export_table(table_id)
        })
    }

    fn export_table_call(&mut self, table_id: u32, func: &str) -> CudaResult<()> {
        self.call("exportTableCall", Class::Other, 0, |a| {
            a.export_table_call(table_id, func)
        })
    }

    fn cu_module_load_data(&mut self, name: &str, ptx_text: &str) -> CudaResult<ModuleHandle> {
        self.call("cuModuleLoadData", Class::Register, 0, |a| {
            a.cu_module_load_data(name, ptx_text)
        })
    }

    fn cu_mem_alloc(&mut self, bytes: u64) -> CudaResult<DevicePtr> {
        let r = self.call("cuMemAlloc", Class::Alloc, 0, |a| a.cu_mem_alloc(bytes));
        self.track_alloc(&r, bytes);
        r
    }

    fn cu_mem_free(&mut self, ptr: DevicePtr) -> CudaResult<()> {
        let r = self.call("cuMemFree", Class::Alloc, 0, |a| a.cu_mem_free(ptr));
        self.track_free(&r, ptr);
        r
    }

    fn cu_memcpy_htod(&mut self, dst: DevicePtr, data: &[u8]) -> CudaResult<()> {
        self.call("cuMemcpyHtoD", Class::H2d, data.len() as u64, |a| {
            a.cu_memcpy_htod(dst, data)
        })
    }

    fn cu_launch_kernel(
        &mut self,
        kernel: &str,
        cfg: LaunchConfig,
        args: &[u8],
        stream: Stream,
    ) -> CudaResult<()> {
        self.call("cuLaunchKernel", Class::Launch, 0, |a| {
            a.cu_launch_kernel(kernel, cfg, args, stream)
        })
    }

    fn register_fatbin(&mut self, fatbin: &[u8]) -> CudaResult<()> {
        self.call("__cudaRegisterFatBinary", Class::Register, 0, |a| {
            a.register_fatbin(fatbin)
        })
    }

    fn device_now_cycles(&mut self) -> u64 {
        self.call("deviceNowCycles", Class::Other, 0, |a| {
            Ok(a.device_now_cycles())
        })
        .unwrap_or(0)
    }

    fn device_clock_ghz(&self) -> f64 {
        self.inner.device_clock_ghz()
    }
}

/// Append `spans` of one tenant of one arm to a chrome-trace event list
/// (`pid` = arm, `tid` = tenant; phases and the calls inside them nest by
/// time, and each call also names its parent phase).
pub fn chrome_events(out: &mut String, arm: &str, pid: u32, tenant: usize, spans: &[Span]) {
    use std::fmt::Write;
    for s in spans {
        if !out.is_empty() {
            out.push_str(",\n");
        }
        let cat = s.class.map_or("phase", Class::name);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{},\"tid\":{},\"args\":{{\"arm\":\"{}\",\"tenant\":{},\"parent\":\"{}\"}}}}",
            s.name,
            cat,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            pid,
            tenant,
            arm,
            tenant,
            s.phase.name(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::NativeHost;

    fn traced(trace: bool) -> Traced<crate::surface::NativeRuntime> {
        Traced::new(NativeHost::new(false).runtime().unwrap(), trace)
    }

    #[test]
    fn tracks_live_allocations_in_order() {
        let mut t = traced(false);
        let a = t.cuda_malloc(256).unwrap();
        let b = t.cu_mem_alloc(512).unwrap();
        let c = t.cuda_malloc(1024).unwrap();
        t.cuda_free(b).unwrap();
        assert_eq!(t.live(), &[(a, 256), (c, 1024)]);
        assert_eq!(t.totals(Class::Alloc).calls, 4);
        assert!(t.cuda_free(0xdead).is_err());
        assert_eq!(t.errors(), 1);
        assert_eq!(t.live().len(), 2);
    }

    #[test]
    fn spans_carry_their_phase_and_only_run_counts_as_busy() {
        let mut t = traced(true);
        let p = t.cuda_malloc(64).unwrap();
        t.enter(Phase::Run);
        t.cuda_memcpy_h2d(p, &[7u8; 64]).unwrap();
        assert_eq!(t.cuda_memcpy_d2h(p, 64).unwrap(), vec![7u8; 64]);
        t.enter(Phase::Verify);
        t.cuda_device_synchronize().unwrap();
        assert_eq!(t.totals(Class::H2d).bytes, 64);
        assert_eq!(t.totals(Class::Sync).run_calls, 0);
        assert_eq!(t.totals(Class::Alloc).busy_ns, 0);
        let (spans, dropped) = t.finish();
        assert_eq!(dropped, 0);
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.phase)).collect();
        assert_eq!(
            names,
            [
                ("cudaMalloc", Phase::Setup),
                ("setup", Phase::Setup),
                ("cudaMemcpyH2D", Phase::Run),
                ("cudaMemcpyD2H", Phase::Run),
                ("run", Phase::Run),
                ("cudaDeviceSynchronize", Phase::Verify),
                ("verify", Phase::Verify),
                ("teardown", Phase::Teardown),
            ]
        );
        assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
        let mut json = String::new();
        chrome_events(&mut json, "native", 2, 0, &spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), spans.len());
    }

    #[test]
    fn untraced_wrapper_records_no_spans() {
        let mut t = traced(false);
        t.enter(Phase::Run);
        t.cuda_device_synchronize().unwrap();
        assert_eq!(t.totals(Class::Sync).run_calls, 1);
        assert_eq!(t.totals(Class::Sync).busy_ns, 0);
        assert!(t.finish().0.is_empty());
    }
}
