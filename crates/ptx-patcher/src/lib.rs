//! # ptx-patcher — Guardian's offline kernel sandboxing
//!
//! The instrumentation half of the paper's contribution: given the PTX of
//! any kernel (including kernels extracted from closed-source accelerated
//! libraries), emit a *sandboxed* variant whose every global load, store,
//! atomic, and indirect branch is confined to the launching tenant's
//! memory partition.
//!
//! Three enforcement modes are provided, matching the paper's §4.4
//! trade-off study: bitwise [fencing] (2 instructions / ~8 cycles per
//! access), modulo fencing (3 instructions, arbitrary partition sizes),
//! and address [checking] (conditional traps, detection at ~80 cycles per
//! access). See [`fence::Protection`].
//!
//! [fencing]: fence::Protection::FenceBitwise
//! [checking]: fence::Protection::Check
//!
//! # Examples
//!
//! Sandboxing the paper's Listing 1 kernel:
//!
//! ```
//! use ptx_patcher::{patch_module, Protection};
//!
//! let module = ptx::parse(r#"
//! .version 7.7
//! .target sm_86
//! .address_size 64
//! .visible .entry kernel(.param .u64 out, .param .u32 v)
//! {
//!     .reg .b32 %r<3>;
//!     .reg .b64 %rd<5>;
//!     ld.param.u64 %rd1, [out];
//!     ld.param.u32 %r1, [v];
//!     cvta.to.global.u64 %rd2, %rd1;
//!     mov.u32 %r2, %tid.x;
//!     mul.wide.s32 %rd3, %r1, 4;
//!     add.s64 %rd4, %rd2, %rd3;
//!     st.global.u32 [%rd4], %r2;
//!     ret;
//! }
//! "#)?;
//!
//! let sandboxed = patch_module(&module, Protection::FenceBitwise)
//!     .expect("instrumentation succeeds");
//! let text = sandboxed.module.to_string();
//! assert!(text.contains("and.b64")); // the mask fence
//! assert!(text.contains("or.b64"));  // the base fence
//! # Ok::<(), ptx::PtxError>(())
//! ```

#![warn(missing_docs)]

pub mod census;
pub mod fence;
pub mod regalloc;
pub mod sandbox;

pub use census::Census;
pub use fence::{
    apply_fence, fence_mask, patch_module, PatchError, PatchInfo, Patched, Protection,
};
pub use regalloc::{report, report_module, ExtraRegHistogram, RegisterReport};
pub use sandbox::{sandbox_fatbin, sandbox_ptx, SandboxError, SandboxedImage};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Fencing always lands inside the partition, and is the identity
        /// for in-partition addresses — the §4.3 invariants.
        #[test]
        fn fence_confines_and_preserves(
            size_log in 12u32..34,
            base_mult in 0u64..1024,
            addr in any::<u64>(),
        ) {
            let size = 1u64 << size_log;
            let base = base_mult * size; // power-of-two aligned
            let mask = fence_mask(size);
            let fenced = apply_fence(addr, base, mask);
            // Confinement.
            prop_assert!(fenced >= base);
            prop_assert!(fenced < base + size);
            // Identity inside the partition.
            if addr >= base && addr < base + size {
                prop_assert_eq!(fenced, addr);
            }
            // Idempotence.
            prop_assert_eq!(apply_fence(fenced, base, mask), fenced);
        }

        /// Modulo fencing (arbitrary sizes) has the same confinement and
        /// identity properties.
        #[test]
        fn modulo_fence_confines(
            size in 1u64..(1 << 40),
            base in 0u64..(1 << 40),
            addr in any::<u64>(),
        ) {
            let fenced = base.wrapping_add(addr.wrapping_sub(base) % size);
            prop_assert!(fenced >= base && fenced < base + size);
            if addr >= base && addr < base + size {
                prop_assert_eq!(fenced, addr);
            }
        }
    }

    // End-to-end property: an adversarial kernel from `ptx::fuzz` (the
    // programs gpu-sim's differential tests execute), once patched, still
    // validates, and its instrumented access count matches the census.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn patched_random_kernels_validate(seed in any::<u64>(), hostile in any::<bool>()) {
            use ptx::fuzz::{kernel, Temper};

            let temper = if hostile { Temper::Hostile } else { Temper::Tame };
            let m = kernel(seed, temper);
            ptx::validate(&m).expect("generated kernel validates");

            let census = Census::of_modules("fuzz", [&m]);
            for mode in Protection::ACTIVE {
                let patched = patch_module(&m, mode).expect("patch");
                ptx::validate(&patched.module).expect("validate");
                let instrumented: u64 = patched.info.iter()
                    .map(|i| (i.loads + i.stores + i.atomics) as u64)
                    .sum();
                prop_assert_eq!(instrumented, census.total_accesses(), "seed {}", seed);
                // Re-parse of printed output still validates.
                let text = patched.module.to_string();
                let re = ptx::parse(&text).expect("reparse");
                ptx::validate(&re).expect("revalidate");
            }
        }
    }
}
