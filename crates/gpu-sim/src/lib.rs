//! # gpu-sim — a functional + timing GPU simulator
//!
//! The hardware substrate of the Guardian reproduction. A simulated NVIDIA
//! GPU with:
//!
//! * sparse device DRAM with page-granular ASID ownership ([`mem`]);
//! * an L1/L2 cache model with the paper's published latencies ([`cache`]);
//! * a PTX interpreter executing real (possibly instrumented) kernels with
//!   per-instruction cycle accounting ([`interp`]);
//! * driver-style module JIT ([`compile`]);
//! * contexts, streams, events, and a discrete-event execution engine with
//!   SM occupancy, PCIe transfers, context-switch costs, and MPS-style
//!   dispatch serialization ([`device`]).
//!
//! Because kernels execute *functionally* against shared DRAM, the safety
//! phenomena the paper studies are directly observable: an out-of-bounds
//! store from one tenant really corrupts another tenant's buffer unless a
//! protection mechanism (ASID guard or Guardian's PTX fencing) stops it.
//!
//! # Examples
//!
//! ```
//! use gpu_sim::device::Device;
//! use gpu_sim::interp::{LaunchConfig, MemGuard};
//! use gpu_sim::spec::test_gpu;
//! use gpu_sim::stream::{Command, CudaFunction};
//!
//! let mut dev = Device::new(test_gpu());
//! let ctx = dev.create_context()?;
//! let stream = dev.create_stream(ctx)?;
//! let buf = dev.malloc(ctx, 4096)?;
//!
//! let module = ptx::parse(r#"
//! .version 7.7
//! .target sm_86
//! .address_size 64
//! .visible .entry fill(.param .u64 out)
//! {
//!     .reg .b32 %r<2>;
//!     .reg .b64 %rd<4>;
//!     ld.param.u64 %rd1, [out];
//!     mov.u32 %r1, %tid.x;
//!     mul.wide.u32 %rd2, %r1, 4;
//!     add.s64 %rd3, %rd1, %rd2;
//!     st.global.u32 [%rd3], %r1;
//!     ret;
//! }
//! "#).unwrap();
//! let loaded = dev.load_module(ctx, &module)?;
//! dev.enqueue(stream, Command::Launch {
//!     func: CudaFunction { kernel: loaded.kernel("fill").unwrap(), module: loaded },
//!     cfg: LaunchConfig::linear(1, 64),
//!     params: buf.to_le_bytes().to_vec().into(),
//!     guard: MemGuard::None,
//! })?;
//! dev.synchronize();
//!
//! let mut word = [0u8; 4];
//! dev.read_memory(buf + 5 * 4, &mut word)?;
//! assert_eq!(u32::from_le_bytes(word), 5);
//! # Ok::<(), gpu_sim::device::DeviceError>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod compile;
pub mod device;
pub mod fault;
#[cfg(test)]
mod fuzz_tests;
pub mod interp;
pub mod mem;
pub mod spec;
pub mod stream;

pub use device::{Device, DeviceError, FaultRecord};

/// Construct a multi-GPU host: one fully independent [`Device`] per spec
/// (own DRAM, caches, clock, event engine), ordinals assigned in order.
/// Heterogeneous sets are fine — the paper's evaluation spans an RTX
/// A4000 and an RTX 3080 Ti (Table 2).
pub fn device_set(specs: Vec<GpuSpec>) -> Vec<Device> {
    specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| Device::new_indexed(spec, i as u32))
        .collect()
}
pub use fault::Fault;
pub use interp::{LaunchConfig, MemGuard};
pub use spec::GpuSpec;
pub use stream::{Command, CtxId, CudaFunction, Event, HostBytes, HostSink, ParamBuf, StreamId};

/// Nanoseconds on the process-wide monotonic telemetry clock.
///
/// Every host-side timestamp in the stack — the manager's dispatch spans
/// and the device's completion edges — reads this one clock, so durations
/// computed across layers are meaningful. The epoch is the first call in
/// the process; absolute values are only comparable within one run.
pub fn mono_ns() -> u64 {
    use std::sync::OnceLock;
    static BASE: OnceLock<std::time::Instant> = OnceLock::new();
    BASE.get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

#[cfg(test)]
mod tests {
    /// Test builds compile this crate optimised (the workspace's
    /// `[profile.dev.package.gpu-sim]`), but an optimised test build must
    /// still trap integer overflow: opt-level leaves `overflow-checks` on.
    #[test]
    #[should_panic(expected = "overflow")]
    #[cfg_attr(not(debug_assertions), ignore = "needs overflow checks")]
    fn integer_overflow_panics_in_test_builds() {
        let x = std::hint::black_box(u32::MAX);
        let _ = std::hint::black_box(x + 1);
    }
}

#[cfg(test)]
mod proptests {
    use crate::compile::truncate_to;
    use crate::interp::{binary, compare, convert, mul_wide};
    use proptest::prelude::*;
    use ptx::types::{BinKind, CmpOp, Type};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Integer binary semantics agree with host arithmetic on u32.
        #[test]
        fn u32_add_matches_host(a in any::<u32>(), b in any::<u32>()) {
            let r = binary(BinKind::Add, Type::U32, a as u64, b as u64);
            prop_assert_eq!(r as u32, a.wrapping_add(b));
        }

        #[test]
        fn s32_mul_matches_host(a in any::<i32>(), b in any::<i32>()) {
            let r = binary(BinKind::MulLo, Type::S32, a as u32 as u64, b as u32 as u64);
            prop_assert_eq!(r as u32 as i32, a.wrapping_mul(b));
        }

        #[test]
        fn u64_div_matches_host(a in any::<u64>(), b in any::<u64>()) {
            let r = binary(BinKind::Div, Type::U64, a, b);
            let expect = a.checked_div(b).unwrap_or(0);
            prop_assert_eq!(r, expect);
        }

        #[test]
        fn f32_ops_match_host(a in any::<f32>(), b in any::<f32>()) {
            let ab = a.to_bits() as u64;
            let bb = b.to_bits() as u64;
            let sum = f32::from_bits(binary(BinKind::Add, Type::F32, ab, bb) as u32);
            let expect = a + b;
            prop_assert!(sum == expect || (sum.is_nan() && expect.is_nan()));
        }

        #[test]
        fn mul_wide_is_exact(a in any::<u32>(), b in any::<u32>()) {
            prop_assert_eq!(mul_wide(Type::U32, a as u64, b as u64), a as u64 * b as u64);
            let sa = a as i32;
            let sb = b as i32;
            prop_assert_eq!(
                mul_wide(Type::S32, a as u64, b as u64) as i64,
                sa as i64 * sb as i64
            );
        }

        #[test]
        fn compare_is_total_on_ints(a in any::<i32>(), b in any::<i32>()) {
            let ab = a as u32 as u64;
            let bb = b as u32 as u64;
            prop_assert_eq!(compare(CmpOp::Lt, Type::S32, ab, bb), a < b);
            prop_assert_eq!(compare(CmpOp::Ge, Type::S32, ab, bb), a >= b);
            prop_assert_eq!(compare(CmpOp::Eq, Type::S32, ab, bb), a == b);
        }

        #[test]
        fn convert_s32_f32_round_trips_small(v in -1_000_000i32..1_000_000) {
            let f = convert(Type::F32, Type::S32, v as u32 as u64);
            let back = convert(Type::S32, Type::F32, f);
            prop_assert_eq!(back as u32 as i32, v);
        }

        #[test]
        fn truncate_is_idempotent(bits in any::<u64>()) {
            for ty in [Type::U8, Type::U16, Type::U32, Type::U64] {
                let once = truncate_to(ty, bits);
                prop_assert_eq!(truncate_to(ty, once), once);
            }
        }
    }
}
