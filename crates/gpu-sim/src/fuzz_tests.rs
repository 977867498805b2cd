//! Differential fuzzing of the fusion pass and of the patcher's confinement,
//! over the adversarial kernels of [`ptx::fuzz`].
//!
//! Two properties, both a pure function of the seed:
//!
//! * **fusion ≡ no fusion** — a kernel (as written, and patched in each
//!   protection mode) compiled with and without the fusion pass leaves the
//!   same memory, block cycles, statistics and fault;
//! * **confinement** — a patched kernel changes no byte outside its
//!   partition and its partition ends up the same whatever the rest of
//!   memory held (so nothing foreign was observed), and a kernel that stays
//!   in bounds computes what it computes unpatched.
//!
//! Tier-1 runs seeds `0..TIER1_SEEDS`; the `#[ignore]` tests, which the
//! nightly job runs in release, the `NIGHTLY_SEEDS` after those. Every
//! failure names its seed, and a seed is all there is to a case: the same
//! test fails at it again, and `fusion_changes_nothing(seed)` or
//! `patched_kernels_are_confined(seed, ..)` replays it alone.

use crate::cache::CacheHierarchy;
use crate::compile::{compile_module, lower_module, CompileError, CompiledModule};
use crate::fault::window::DEVICE_BASE;
use crate::interp::{Executor, LaunchConfig, LaunchOutcome, MemGuard};
use crate::mem::Dram;
use crate::spec::test_gpu;
use ptx::fuzz::{self, Rng, Temper};
use ptx::Module;
use ptx_patcher::fence::{PARAM_A, PARAM_B};
use ptx_patcher::{patch_module, Protection};

const TIER1_SEEDS: u64 = 300;
const NIGHTLY_SEEDS: u64 = 20_000;

/// One DRAM page holds the whole scene.
const CAPACITY: u64 = crate::mem::PAGE_SIZE;
/// The offender's partition starts here, aligned for bitwise fencing.
const LO: u64 = DEVICE_BASE + 0x4000;
/// An address in the middle of the neighbour's partition.
const FOE: u64 = DEVICE_BASE + 0x8100;
/// The kernel's buffer, inside the partition.
const BUF: u64 = LO + 0x400;

/// Partition size: a power of two where the mode needs one, and otherwise
/// not, so that modulo fencing is held to an arbitrary (16-byte-multiple)
/// size with a poisoned gap between it and the neighbour.
fn partition_size(mode: Protection) -> u64 {
    match mode {
        Protection::FenceModulo => 0x3000,
        _ => 0x4000,
    }
}

type Compile = fn(&Module, u64) -> Result<CompiledModule, CompileError>;

struct Run {
    outcome: LaunchOutcome,
    /// All of DRAM after the launch.
    memory: Vec<u8>,
}

impl Run {
    fn partition(&self, mode: Protection) -> &[u8] {
        let lo = (LO - DEVICE_BASE) as usize;
        &self.memory[lo..lo + partition_size(mode) as usize]
    }

    /// Offset of the first byte outside the partition that is not `poison`.
    fn first_foreign_change(&self, mode: Protection, poison: u8) -> Option<usize> {
        let lo = (LO - DEVICE_BASE) as usize;
        let hi = lo + partition_size(mode) as usize;
        (0..lo)
            .chain(hi..self.memory.len())
            .find(|&i| self.memory[i] != poison)
    }
}

/// Launch the module's entry on a fresh device: the partition holds data
/// drawn from `seed`, every other byte is `poison`. `mode` says where the
/// partition ends and which bounds a patched kernel is handed.
fn launch(module: &Module, compile: Compile, mode: Protection, seed: u64, poison: u8) -> Run {
    let compiled = compile(module, 0).expect("generated kernel compiles");
    let kernel = compiled.kernel(fuzz::ENTRY).expect("entry point");
    let size = partition_size(mode);

    let mut dram = Dram::new(CAPACITY);
    dram.fill(DEVICE_BASE, poison, CAPACITY).unwrap();
    let mut rng = Rng::new(seed ^ 0xD1CE);
    let own: Vec<u8> = (0..size).map(|_| rng.next_u64() as u8).collect();
    dram.write(LO, &own).unwrap();

    let bound = match mode {
        Protection::FenceBitwise => size - 1,
        Protection::FenceModulo => size,
        Protection::Check => LO + size,
        Protection::None => 0,
    };
    let mut params = vec![0u8; kernel.param_size];
    for (name, ty, offset) in &kernel.params {
        let value = match name.as_str() {
            "buf" => BUF,
            "lo" => LO,
            "edge" => LO + size,
            "foe" => FOE,
            "sel" => rng.below(6),
            PARAM_A => LO,
            PARAM_B => bound,
            other => panic!("unexpected parameter `{other}`"),
        };
        let at = *offset as usize;
        params[at..at + ty.size()].copy_from_slice(&value.to_le_bytes()[..ty.size()]);
    }

    let spec = test_gpu();
    let mut cache = CacheHierarchy::new(spec.l1_bytes, spec.l2_bytes);
    let cfg = LaunchConfig::linear(1 + (seed % 2) as u32, 1 + (seed / 2 % 3) as u32);
    let outcome = Executor {
        dram: &mut dram,
        cache: &mut cache,
        spec: &spec,
        functions: &compiled.functions,
    }
    .run(&kernel, cfg, &params, MemGuard::None);
    let mut memory = vec![0u8; CAPACITY as usize];
    dram.read(DEVICE_BASE, &mut memory).unwrap();
    Run { outcome, memory }
}

fn patched(module: &Module, mode: Protection) -> Module {
    patch_module(module, mode)
        .expect("generated kernel patches")
        .module
}

/// Property (a) for one seed.
fn fusion_changes_nothing(seed: u64) {
    for temper in [Temper::Tame, Temper::Hostile] {
        let original = fuzz::kernel(seed, temper);
        let modes = [Protection::None].into_iter().chain(Protection::ACTIVE);
        for mode in modes {
            let module = patched(&original, mode);
            let fused = launch(&module, compile_module, mode, seed, 0xA5);
            let plain = launch(&module, lower_module, mode, seed, 0xA5);
            let ctx = format!("seed {seed}, {temper:?}, {mode:?}");
            assert_eq!(fused.outcome.fault, plain.outcome.fault, "fault: {ctx}");
            assert_eq!(fused.outcome.stats, plain.outcome.stats, "stats: {ctx}");
            assert_eq!(
                fused.outcome.block_cycles, plain.outcome.block_cycles,
                "block cycles: {ctx}"
            );
            assert!(fused.memory == plain.memory, "memory: {ctx}");
        }
    }
}

/// The negative control: whether the hostile kernel of `seed`, unpatched,
/// (wrote, observed) memory outside its partition.
fn unpatched_kernel_escapes(seed: u64) -> (bool, bool) {
    let hostile = fuzz::kernel(seed, Temper::Hostile);
    let none = Protection::None;
    let [a, b] = [0xA5, 0x3C].map(|p| launch(&hostile, compile_module, none, seed, p));
    (
        a.first_foreign_change(none, 0xA5).is_some(),
        a.partition(none) != b.partition(none),
    )
}

/// Property (b) for one seed.
fn patched_kernels_are_confined(seed: u64) {
    let hostile = fuzz::kernel(seed, Temper::Hostile);
    let tame = fuzz::kernel(seed, Temper::Tame);
    for mode in Protection::ACTIVE {
        let ctx = format!("seed {seed}, {mode:?}");

        let module = patched(&hostile, mode);
        let [a, b] = [0xA5, 0x3C].map(|p| launch(&module, compile_module, mode, seed, p));
        for (run, poison) in [(&a, 0xA5), (&b, 0x3C)] {
            if let Some(at) = run.first_foreign_change(mode, poison) {
                panic!("byte {at:#x} outside the partition changed: {ctx}");
            }
        }
        assert!(
            a.partition(mode) == b.partition(mode),
            "foreign bytes reached the partition: {ctx}"
        );
        assert_eq!(a.outcome.fault, b.outcome.fault, "fault: {ctx}");

        let native = launch(&tame, compile_module, mode, seed, 0xA5);
        let fenced = launch(&patched(&tame, mode), compile_module, mode, seed, 0xA5);
        assert_eq!(native.outcome.fault, None, "tame kernel faulted: {ctx}");
        assert_eq!(fenced.outcome.fault, None, "patching broke it: {ctx}");
        assert!(
            fenced.memory == native.memory,
            "patching changed an in-bounds program: {ctx}"
        );
    }
}

fn nightly_seeds() -> std::ops::Range<u64> {
    TIER1_SEEDS..TIER1_SEEDS + NIGHTLY_SEEDS
}

#[test]
fn fuzz_fusion_changes_nothing() {
    (0..TIER1_SEEDS).for_each(fusion_changes_nothing);
}

#[test]
fn fuzz_patched_kernels_are_confined() {
    (0..TIER1_SEEDS).for_each(patched_kernels_are_confined);
}

/// The generator does attack: unpatched, a fair share of its kernels write
/// foreign memory and a fair share read it.
#[test]
fn fuzz_generator_has_teeth() {
    let escapes: Vec<(bool, bool)> = (0..TIER1_SEEDS).map(unpatched_kernel_escapes).collect();
    let wrote = escapes.iter().filter(|e| e.0).count() as u64;
    let observed = escapes.iter().filter(|e| e.1).count() as u64;
    assert!(
        wrote > TIER1_SEEDS / 20 && observed > TIER1_SEEDS / 20,
        "of {TIER1_SEEDS} unpatched kernels {wrote} wrote foreign memory, {observed} observed it"
    );
}

#[test]
#[ignore = "nightly budget"]
fn fuzz_nightly_fusion_changes_nothing() {
    nightly_seeds().for_each(fusion_changes_nothing);
}

#[test]
#[ignore = "nightly budget"]
fn fuzz_nightly_patched_kernels_are_confined() {
    nightly_seeds().for_each(patched_kernels_are_confined);
}
