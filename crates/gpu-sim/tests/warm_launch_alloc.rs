//! A warm launch does not allocate: once one launch has sized the device's
//! thread arena, its running-kernel slot and its stats entry, draining a
//! queue of identical launches costs the heap nothing per launch.
//!
//! The counting allocator is this binary's own, and it counts only on the
//! thread that armed it, so the test harness's threads cannot disturb it.
//! Keep this file to one test.

use gpu_sim::spec::test_gpu;
use gpu_sim::{Command, CudaFunction, Device, LaunchConfig, MemGuard};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if ARMED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates entirely to `System`; the count is a const
// thread-local `Cell` read and a relaxed add, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.load(Ordering::Relaxed), r)
}

const FILL: &str = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry fill(.param .u64 out, .param .u32 n)
{
    .reg .pred %p<2>;
    .reg .b32 %r<8>;
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

#[test]
fn warm_launches_drain_without_allocating() {
    let mut dev = Device::new(test_gpu());
    let ctx = dev.create_context().unwrap();
    let stream = dev.create_stream(ctx).unwrap();
    let module = dev.load_module(ctx, &ptx::parse(FILL).unwrap()).unwrap();
    let func = CudaFunction {
        kernel: module.kernel("fill").unwrap(),
        module: module.clone(),
    };
    let n = 256u32;
    let out = dev.malloc(ctx, n as u64 * 4).unwrap();
    let mut params = out.to_le_bytes().to_vec();
    params.extend_from_slice(&n.to_le_bytes());
    let launch = || Command::Launch {
        func: func.clone(),
        cfg: LaunchConfig::linear(n / 64, 64),
        params: params.clone().into(),
        guard: MemGuard::None,
    };
    let mut drain = |launches: usize| {
        for _ in 0..launches {
            dev.enqueue(stream, launch()).unwrap();
        }
        allocations(|| dev.synchronize())
    };

    // Warm-up: sizes the arena, the running slot and the stats entry.
    assert_eq!(drain(1).1, 0, "no fault");
    let (one, _) = drain(1);
    let (many, faults) = drain(64);
    assert_eq!(faults, 0);
    // O(1) per sync, nothing per launch.
    assert!(one <= 2, "a warm sync of one launch allocated {one} times");
    assert!(
        many <= one,
        "64 warm launches allocated {many} times, one launch {one}"
    );
    assert_eq!(dev.kernel_stats()["fill"].launches, 66);
}
