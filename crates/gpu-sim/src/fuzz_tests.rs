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
use crate::interp::{Executor, LaunchConfig, LaunchOutcome, MemGuard, ThreadArena};
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
    let cfg = LaunchConfig::linear(1 + (seed % 2) as u32, 1 + (seed / 2 % 3) as u32);
    launch_on(module, compile, mode, seed, poison, cfg, 1)
}

/// [`launch`] under `cfg`, its blocks fanned out over `workers`.
fn launch_on(
    module: &Module,
    compile: Compile,
    mode: Protection,
    seed: u64,
    poison: u8,
    cfg: LaunchConfig,
    workers: usize,
) -> Run {
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
    let outcome = Executor {
        dram: &mut dram,
        cache: &mut cache,
        spec: &spec,
        functions: &compiled.functions,
        arena: &mut ThreadArena::default(),
    }
    .run_on(&kernel, cfg, &params, MemGuard::None, workers);
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

/// Property (c) for one seed: 1–8 blocks of the kernel — every block
/// aims at the same buffer, so they read, write and `atom` each other's
/// lines — leave the same memory, statistics, block durations and fault
/// fanned out over 2–4 workers as in order.
fn fan_out_changes_nothing(seed: u64) {
    let mut rng = Rng::new(seed ^ 0xFA2);
    let blocks = 1 + rng.below(8) as u32;
    let cfg = LaunchConfig::linear(blocks, 1 + rng.below(4) as u32);
    let workers = 2 + rng.below(3) as usize;
    for temper in [Temper::Tame, Temper::Hostile] {
        let original = fuzz::kernel(seed, temper);
        for mode in [Protection::None, Protection::FenceBitwise] {
            let module = patched(&original, mode);
            let [ordered, fanned] =
                [1, workers].map(|w| launch_on(&module, compile_module, mode, seed, 0xA5, cfg, w));
            let ctx = format!("seed {seed}, {temper:?}, {mode:?}, {blocks} blocks on {workers}");
            assert_same_run(&ordered, &fanned, &ctx);
        }
    }
}

/// Everything a launch leaves agrees between two runs.
fn assert_same_run(a: &Run, b: &Run, ctx: &str) {
    assert_eq!(a.outcome.fault, b.outcome.fault, "fault: {ctx}");
    assert_eq!(a.outcome.stats, b.outcome.stats, "stats: {ctx}");
    assert_eq!(
        a.outcome.block_cycles, b.outcome.block_cycles,
        "block cycles: {ctx}"
    );
    assert!(a.memory == b.memory, "memory: {ctx}");
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
fn fuzz_fan_out_changes_nothing() {
    (0..TIER1_SEEDS).for_each(fan_out_changes_nothing);
}

#[test]
#[ignore = "nightly budget"]
fn fuzz_nightly_fan_out_changes_nothing() {
    nightly_seeds().for_each(fan_out_changes_nothing);
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

/// Hand-written cases of property (c): each kernel is run on 2, 3 and 4
/// workers and in order, and also checked against what in-order
/// execution must leave.
mod fan_out {
    use super::*;
    use crate::fault::Fault;
    use crate::interp::INSTRUCTION_BUDGET;

    const OUT: u64 = DEVICE_BASE + 0x1000;

    /// Run `entry` of `src` in order and on 2–4 workers, each on a fresh
    /// device; all of them must agree. Returns the in-order run.
    fn agree(src: &str, entry: &str, cfg: LaunchConfig, params: &[u8]) -> Run {
        let m = ptx::parse(src).unwrap();
        ptx::validate(&m).unwrap();
        let cm = compile_module(&m, 0).unwrap();
        let k = cm.kernel(entry).unwrap();
        let spec = test_gpu();
        let run = |workers| {
            let mut dram = Dram::new(CAPACITY);
            let mut cache = CacheHierarchy::new(spec.l1_bytes, spec.l2_bytes);
            let outcome = Executor {
                dram: &mut dram,
                cache: &mut cache,
                spec: &spec,
                functions: &cm.functions,
                arena: &mut ThreadArena::default(),
            }
            .run_on(&k, cfg, params, MemGuard::None, workers);
            let mut memory = vec![0u8; CAPACITY as usize];
            dram.read(DEVICE_BASE, &mut memory).unwrap();
            Run { outcome, memory }
        };
        let ordered = run(1);
        for workers in 2..=4 {
            assert_same_run(&ordered, &run(workers), &format!("{entry} on {workers}"));
        }
        ordered
    }

    fn word(run: &Run, at: u64) -> u32 {
        let at = (at - DEVICE_BASE) as usize;
        u32::from_le_bytes(run.memory[at..at + 4].try_into().unwrap())
    }

    fn params(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    const HEADER: &str = ".version 7.7\n.target sm_86\n.address_size 64\n";

    /// Block `b` reads the word at `out + 128·b` and stores one more
    /// 128 bytes on: each block reads the line the block before wrote.
    #[test]
    fn a_read_of_an_earlier_blocks_write_sees_it() {
        let src = format!(
            "{HEADER}{}",
            r#"
.visible .entry chain(.param .u64 out)
{
    .reg .pred %p<2>;
    .reg .b32 %r<6>;
    .reg .b64 %rd<5>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    setp.ne.u32 %p1, %r1, 0;
    @%p1 bra $L_end;
    mov.u32 %r2, %ctaid.x;
    mul.wide.u32 %rd2, %r2, 128;
    add.s64 %rd3, %rd1, %rd2;
    ld.global.u32 %r3, [%rd3];
    add.u32 %r4, %r3, 1;
    st.global.u32 [%rd3+128], %r4;
$L_end:
    ret;
}
"#
        );
        let run = agree(&src, "chain", LaunchConfig::linear(8, 32), &params(&[OUT]));
        assert_eq!(run.outcome.fault, None);
        for b in 0..=8 {
            assert_eq!(word(&run, OUT + 128 * b), b as u32, "word {b}");
        }
    }

    /// Every thread of every block stores its block's index to one word.
    #[test]
    fn the_last_block_to_write_a_word_wins() {
        let src = format!(
            "{HEADER}{}",
            r#"
.visible .entry last(.param .u64 out)
{
    .reg .b32 %r<2>;
    .reg .b64 %rd<2>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %ctaid.x;
    st.global.u32 [%rd1], %r1;
    ret;
}
"#
        );
        for blocks in [2, 5, 8] {
            let run = agree(
                &src,
                "last",
                LaunchConfig::linear(blocks, 16),
                &params(&[OUT]),
            );
            assert_eq!(word(&run, OUT), blocks - 1);
        }
    }

    /// Every thread adds one to a counter and keeps the value it saw.
    #[test]
    fn atomics_count_across_blocks_in_block_order() {
        let src = format!(
            "{HEADER}{}",
            r#"
.visible .entry count(.param .u64 ctr, .param .u64 olds)
{
    .reg .b32 %r<6>;
    .reg .b64 %rd<5>;
    ld.param.u64 %rd1, [ctr];
    ld.param.u64 %rd2, [olds];
    atom.global.add.u32 %r1, [%rd1], 1;
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    mul.wide.u32 %rd3, %r5, 4;
    add.s64 %rd4, %rd2, %rd3;
    st.global.u32 [%rd4], %r1;
    ret;
}
"#
        );
        let olds = OUT + 128;
        let cfg = LaunchConfig::linear(6, 24);
        let run = agree(&src, "count", cfg, &params(&[OUT, olds]));
        assert_eq!(run.outcome.stats.atomics, 6 * 24);
        assert_eq!(word(&run, OUT), 6 * 24);
        for g in 0..6 * 24 {
            assert_eq!(word(&run, olds + 4 * g), g as u32, "thread {g}");
        }
    }

    /// Block `b` stores `b + 1` to word `b`; block `bad` then traps, or
    /// (`spin`) loops until its instruction budget trips.
    fn stops_in_a_middle_block(spin: bool, want: Fault) {
        let stop = if spin {
            "$L_spin:\n    bra $L_spin;"
        } else {
            "trap;"
        };
        let src = format!(
            "{HEADER}{}{stop}{}",
            r#"
.visible .entry stop(.param .u64 out, .param .u32 bad)
{
    .reg .pred %p<2>;
    .reg .b32 %r<4>;
    .reg .b64 %rd<4>;
    ld.param.u64 %rd1, [out];
    ld.param.u32 %r1, [bad];
    mov.u32 %r2, %ctaid.x;
    mul.wide.u32 %rd2, %r2, 4;
    add.s64 %rd3, %rd1, %rd2;
    add.u32 %r3, %r2, 1;
    st.global.u32 [%rd3], %r3;
    setp.ne.u32 %p1, %r2, %r1;
    @%p1 bra $L_end;
    "#,
            r#"
$L_end:
    ret;
}
"#
        );
        let bad = 2u64;
        let run = agree(
            &src,
            "stop",
            LaunchConfig::linear(7, 1),
            &params(&[OUT, bad]),
        );
        assert_eq!(run.outcome.fault, Some(want));
        assert_eq!(run.outcome.block_cycles.len(), bad as usize);
        for b in 0..7 {
            let want = if b <= bad { b as u32 + 1 } else { 0 };
            assert_eq!(word(&run, OUT + 4 * b), want, "word {b}");
        }
    }

    #[test]
    fn a_trap_in_a_middle_block_discards_the_blocks_after_it() {
        let kernel = "stop".into();
        stops_in_a_middle_block(false, Fault::Trap { kernel });
    }

    #[test]
    fn a_budget_trip_in_a_middle_block_discards_the_blocks_after_it() {
        let budget = INSTRUCTION_BUDGET;
        stops_in_a_middle_block(true, Fault::InstructionBudgetExceeded { budget });
    }

    /// Block `b` counts to `300·b²` before each thread stores its count and
    /// reads the word the block before stored.
    #[test]
    fn blocks_of_very_unequal_length_agree() {
        let src = format!(
            "{HEADER}{}",
            r#"
.visible .entry uneven(.param .u64 out)
{
    .reg .pred %p<2>;
    .reg .b32 %r<8>;
    .reg .b64 %rd<5>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %ctaid.x;
    mul.lo.u32 %r2, %r1, %r1;
    mul.lo.u32 %r2, %r2, 300;
    mov.u32 %r3, 0;
$L_loop:
    setp.ge.u32 %p1, %r3, %r2;
    @%p1 bra $L_done;
    add.u32 %r3, %r3, 1;
    bra $L_loop;
$L_done:
    mov.u32 %r4, %ntid.x;
    mov.u32 %r5, %tid.x;
    mad.lo.u32 %r6, %r1, %r4, %r5;
    mul.wide.u32 %rd2, %r6, 4;
    add.s64 %rd3, %rd1, %rd2;
    ld.global.u32 %r7, [%rd3+-64];
    add.u32 %r7, %r7, %r3;
    st.global.u32 [%rd3], %r7;
    ret;
}
"#
        );
        let cfg = LaunchConfig::linear(8, 16);
        let run = agree(&src, "uneven", cfg, &params(&[OUT + 64]));
        assert_eq!(run.outcome.fault, None);
        let lengths: Vec<u64> = run.outcome.block_cycles.clone();
        assert!(lengths[7] > 40 * lengths[1], "{lengths:?}");
        // Word `g` holds the counts of blocks `g / 16`, `g / 16 - 1`, ...
        let count = |b: u64| 300 * (b * b) as u32;
        for g in 0..8 * 16u64 {
            let want: u32 = (0..=g / 16).map(count).sum();
            assert_eq!(word(&run, OUT + 64 + 4 * g), want, "word {g}");
        }
    }
}
