//! The PTX interpreter: functional execution with cycle accounting.
//!
//! Kernels execute block-by-block. Threads within a block run cooperatively
//! (round-robin between `bar.sync` points), so barrier semantics are exact;
//! memory side effects land in the shared [`Dram`], so cross-tenant
//! corruption, MPS-style ASID faults, and Guardian's fencing wrap-around are
//! all *observable behaviours*, not modelled flags.
//!
//! A launch whose kernel ran long blocks before fans its blocks out over
//! the host's cores, in waves of one block per worker (see
//! [`Executor::run`]); what it leaves — memory, statistics, block
//! durations, fault — is what running the blocks in order leaves.
//!
//! Timing: every instruction charges the issuing thread its latency (ALU
//! 4 cycles, predicated branches 36, L1/L2/global loads 28/193/285, ...).
//! A block's duration is `max(critical thread path, total cycles /
//! cores_per_sm)` — perfectly-hidden latency bounded by lane throughput —
//! which preserves the paper's overhead ratios while letting the device
//! scheduler reason about SM occupancy.

use crate::cache::{CacheHierarchy, CacheStats, HitLevel, TagArray, LINE_SIZE};
use crate::compile::{CAddr, CInstr, COp, CSrc, CompiledKernel, FenceKind};
use crate::fault::window::{DEVICE_BASE, LOCAL_BASE, SHARED_BASE, WINDOW_SIZE};
use crate::fault::Fault;
use crate::mem::{AccessLog, Dram, LineBytes, NO_OWNER};
use crate::spec::GpuSpec;
use ptx::types::{AtomKind, BinKind, CmpOp, Dim, Space, SpecialReg, Type, UnaryKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};

/// Grid/block geometry of a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Grid dimensions (blocks).
    pub grid: (u32, u32, u32),
    /// Block dimensions (threads).
    pub block: (u32, u32, u32),
}

impl LaunchConfig {
    /// 1-D convenience constructor.
    pub fn linear(blocks: u32, threads: u32) -> Self {
        LaunchConfig {
            grid: (blocks.max(1), 1, 1),
            block: (threads.max(1), 1, 1),
        }
    }

    /// Total number of blocks.
    pub fn num_blocks(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64 * self.grid.2 as u64
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u64 {
        self.block.0 as u64 * self.block.1 as u64 * self.block.2 as u64
    }

    /// The block at `index` in block-linear order (x fastest).
    fn ctaid(&self, index: u64) -> (u32, u32, u32) {
        let (gx, gy) = (self.grid.0 as u64, self.grid.1 as u64);
        (
            (index % gx) as u32,
            (index / gx % gy) as u32,
            (index / (gx * gy)) as u32,
        )
    }
}

/// Memory-protection mode applied by the device during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemGuard {
    /// No hardware check (single shared context: plain GPU-streams
    /// sharing — out-of-bounds accesses silently corrupt, Figure 1).
    None,
    /// MPS-style per-client address-space id: an access to a page owned by
    /// a different ASID faults (§2.2).
    Asid(u32),
}

/// Dynamic statistics of one kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Dynamic global/generic loads.
    pub loads: u64,
    /// Dynamic global/generic stores.
    pub stores: u64,
    /// Dynamic atomics.
    pub atomics: u64,
    /// Cache behaviour of global loads.
    pub cache: CacheStats,
    /// Sum of per-thread cycles.
    pub thread_cycles: u64,
}

impl KernelStats {
    /// Add `other`'s counts to these.
    pub(crate) fn merge(&mut self, other: &KernelStats) {
        self.instructions += other.instructions;
        self.loads += other.loads;
        self.stores += other.stores;
        self.atomics += other.atomics;
        self.cache.merge(&other.cache);
        self.thread_cycles += other.thread_cycles;
    }
}

/// The outcome of functionally executing a launch.
#[derive(Debug, Clone)]
pub struct LaunchOutcome {
    /// Duration of each block, in cycles, in block-linear order.
    pub block_cycles: Vec<u64>,
    /// Aggregate statistics.
    pub stats: KernelStats,
    /// The first fault encountered, if any (execution stops at it).
    pub fault: Option<Fault>,
}

/// Per-thread instruction budget; a kernel exceeding it is deemed runaway
/// (the grdManager may revoke it, §4.3).
pub const INSTRUCTION_BUDGET: u64 = 50_000_000;

/// Cycles of a 32-bit integer `div`/`rem`; the 64-bit forms cost twice
/// that (the CUDA ISA implements them via a function call, §4.4).
const INT_DIV_CYCLES: u64 = 20;

/// Instructions a kernel's blocks must have averaged in its previous
/// launch for the next one to fan out. Spawning and joining a worker
/// costs 25–30 µs, and a hand-off between waves a few µs; a block of this
/// many instructions runs ≈ 0.1 ms, so a launch of two already pays for
/// its worker. (Lenet's `im2col`, `col2im` and `transpose` blocks run
/// 4–6 k; its `sgemm` blocks 70–160 k.)
const FAN_OUT_BLOCK_INSTRUCTIONS: u64 = 4096;

/// The average instructions of a block in its kernel's latest launch:
/// what decides whether the next launch fans out. A hint only — the
/// outcome of a launch does not depend on it. Once a block of the kernel
/// has outgrown its slot, `SPILLED`: the kernel runs in order from then
/// on, rather than run part of a block twice at every launch.
#[derive(Debug, Default)]
pub(crate) struct BlockCost(AtomicU64);

impl BlockCost {
    const SPILLED: u64 = u64::MAX;

    fn pays_for_fan_out(&self) -> bool {
        (FAN_OUT_BLOCK_INSTRUCTIONS..Self::SPILLED).contains(&self.0.load(Ordering::Relaxed))
    }

    /// Record a launch's average. The kernel is shared by every tenant
    /// that loaded it, and its other fields are read on every launch, so
    /// an unchanged average is not stored again.
    fn note(&self, instructions: u64, blocks: u64) {
        let average = instructions / blocks.max(1);
        let cost = self.0.load(Ordering::Relaxed);
        if cost != average && cost != Self::SPILLED {
            self.0.store(average, Ordering::Relaxed);
        }
    }

    fn spilled(&self) {
        self.0.store(Self::SPILLED, Ordering::Relaxed);
    }
}

impl Clone for BlockCost {
    fn clone(&self) -> Self {
        BlockCost(AtomicU64::new(self.0.load(Ordering::Relaxed)))
    }
}

/// Workers a launch may fan out over, the caller's thread included: the
/// cores this process may run on (1 under `taskset -c 0`).
fn available_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Executes launches against a DRAM + cache + spec.
pub struct Executor<'a> {
    /// Device DRAM (functional state).
    pub dram: &'a mut Dram,
    /// Cache hierarchy (timing state).
    pub cache: &'a mut CacheHierarchy,
    /// GPU model parameters.
    pub spec: &'a GpuSpec,
    /// Device functions visible to `call` (same module).
    pub functions: &'a HashMap<String, Arc<CompiledKernel>>,
    /// Where each block's thread state lives (the device's own arena).
    pub arena: &'a mut ThreadArena,
}

/// Where a launch's thread state lives, in buffers that outlive it. The
/// [`Device`](crate::Device) owns one and lends it to each [`Executor`],
/// so a warm launch allocates nothing for its threads. It holds one
/// `Worker` per thread a launch has fanned out over (the first is also
/// the in-order path's) and one `Slot` per block of a fan-out wave, as
/// many as workers; each retains what the largest block it held needed,
/// a slot no more than `SLOT_PROBES` and `SLOT_LINES` allow.
#[derive(Debug, Default)]
pub struct ThreadArena {
    workers: Vec<Mutex<Worker>>,
    slots: Vec<Mutex<Slot>>,
    /// Bytes written by the blocks of the current wave committed so far.
    dirty: LineBytes,
    /// Storage for the next [`LaunchOutcome::block_cycles`]; handed back
    /// with [`ThreadArena::recycle`].
    block_cycles: Vec<u64>,
}

impl ThreadArena {
    /// Take back a launch's block durations once they are consumed, so
    /// the next launch fills the same storage.
    pub(crate) fn recycle(&mut self, block_cycles: Vec<u64>) {
        self.block_cycles = block_cycles;
    }

    /// Bytes of storage held between launches.
    #[cfg(test)]
    fn retained_bytes(&mut self) -> usize {
        let workers: usize = self
            .workers
            .iter_mut()
            .map(|w| w.get_mut().unwrap().retained_bytes())
            .sum();
        let slots: usize = self
            .slots
            .iter_mut()
            .map(|s| s.get_mut().unwrap().retained_bytes())
            .sum();
        workers + slots + self.dirty.capacity() * 24 + self.block_cycles.capacity() * 8
    }
}

/// What a thread needs only while it runs a block: the block's thread
/// state, and the L1 a block run beside others starts empty.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Worker {
    block: BlockState,
    l1: TagArray,
}

impl Worker {
    /// Run block `index` of `l` beside others, against `dram` as the wave
    /// found it: its writes, L2 probes, statistics and thread cycles wait
    /// in `slot` for [`commit`].
    fn run(&mut self, l: &Launch, index: u64, dram: &Dram, slot: &mut Slot) {
        let Slot {
            cycles,
            mem,
            stats,
            fault,
        } = slot;
        *stats = KernelStats::default();
        let mut core = Core {
            spec: l.spec,
            functions: l.functions,
            mem: Logged {
                dram,
                spec: l.spec,
                l1: &mut self.l1,
                mem,
            },
        };
        let ctaid = l.cfg.ctaid(index);
        let block = &mut self.block;
        *fault = core
            .run_block(l.kernel, l.cfg, ctaid, l.params, l.guard, block, stats)
            .err();
        cycles.clear();
        cycles.extend(block.threads.iter().map(|t| t.cycles));
    }

    #[cfg(test)]
    fn retained_bytes(&self) -> usize {
        self.block.retained_bytes()
    }
}

/// What a block run beside others leaves for its commit.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Slot {
    /// Each thread's cycles, less the L2 and DRAM latencies of its trace.
    cycles: Vec<u64>,
    mem: SlotMem,
    stats: KernelStats,
    fault: Option<Fault>,
}

impl Slot {
    #[cfg(test)]
    fn retained_bytes(&self) -> usize {
        self.cycles.capacity() * 8
            + self.mem.log.retained_bytes()
            + self.mem.trace.capacity() * 8
            + self.mem.runs.capacity() * 8
    }
}

/// A worker's or a slot's lock; what a panicking worker left behind is
/// re-zeroed by the next block like anything else.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The thread state of one block — registers, predicates, `.local` bytes,
/// the `.shared` tile and `.func` frames — in flat buffers: every block
/// re-zeroes the prefix it uses.
#[derive(Debug, Default)]
struct BlockState {
    regs: Vec<u64>,
    preds: Vec<bool>,
    local: Vec<u8>,
    shared: Vec<u8>,
    threads: Vec<ThreadState>,
    frames: Frames,
}

impl BlockState {
    /// Zero the state of a block of `kernel` under `cfg`.
    fn reset(&mut self, kernel: &CompiledKernel, cfg: LaunchConfig) {
        let tpb = cfg.threads_per_block() as usize;
        zeroed(&mut self.regs, tpb * kernel.num_regs as usize);
        zeroed(&mut self.preds, tpb * kernel.num_preds as usize);
        zeroed(&mut self.local, tpb * kernel.local_size as usize);
        zeroed(&mut self.shared, kernel.shared_size as usize);
        self.threads.clear();
        for tz in 0..cfg.block.2 {
            for ty in 0..cfg.block.1 {
                for tx in 0..cfg.block.0 {
                    self.threads.push(ThreadState {
                        tid: (tx, ty, tz),
                        ..ThreadState::default()
                    });
                }
            }
        }
    }

    #[cfg(test)]
    fn retained_bytes(&self) -> usize {
        self.regs.capacity() * 8
            + self.preds.capacity()
            + self.local.capacity()
            + self.shared.capacity()
            + self.threads.capacity() * std::mem::size_of::<ThreadState>()
            + self.frames.retained_bytes()
    }
}

/// The frame of a `.func` call at one depth — its registers, predicates,
/// `.local` bytes and parameter buffer — and the frames deeper calls use,
/// kept from call to call.
#[derive(Debug, Default)]
struct Frames {
    regs: Vec<u64>,
    preds: Vec<bool>,
    local: Vec<u8>,
    params: Vec<u8>,
    deeper: Option<Box<Frames>>,
}

impl Frames {
    #[cfg(test)]
    fn retained_bytes(&self) -> usize {
        self.regs.capacity() * 8
            + self.preds.capacity()
            + self.local.capacity()
            + self.params.capacity()
            + self.deeper.as_ref().map_or(0, |d| d.retained_bytes())
    }
}

/// `v` holds `len` zeroes; it reallocates only to grow past its capacity.
fn zeroed<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
    v.clear();
    v.resize(len, T::default());
}

enum ThreadStop {
    Done,
    Barrier,
}

/// What a thread keeps between cooperative rounds besides its arena
/// slices.
#[derive(Debug, Default, Clone, Copy)]
struct ThreadState {
    pc: usize,
    cycles: u64,
    instructions: u64,
    done: bool,
    tid: (u32, u32, u32),
}

/// One thread while it runs: its own slices of the block's state.
struct Thread<'s> {
    regs: &'s mut [u64],
    preds: &'s mut [bool],
    pc: usize,
    cycles: u64,
    instructions: u64,
    local: &'s mut [u8],
    tid: (u32, u32, u32),
    /// The thread's index in its block (a `.func` frame's is its caller's).
    slot: u32,
}

/// What every block of a launch shares.
#[derive(Clone, Copy)]
struct Launch<'a> {
    kernel: &'a CompiledKernel,
    cfg: LaunchConfig,
    params: &'a [u8],
    guard: MemGuard,
    spec: &'a GpuSpec,
    functions: &'a HashMap<String, Arc<CompiledKernel>>,
}

impl Executor<'_> {
    /// Run a full launch; the returned block durations feed the device's
    /// SM scheduler.
    ///
    /// When the kernel's blocks averaged `FAN_OUT_BLOCK_INSTRUCTIONS` or
    /// more in its previous launch, the blocks run on up to
    /// [`std::thread::available_parallelism`] workers (this thread one of
    /// them); otherwise, and always on one core, in block order. Either
    /// way the result is the in-order one.
    pub fn run(
        &mut self,
        kernel: &CompiledKernel,
        cfg: LaunchConfig,
        params: &[u8],
        guard: MemGuard,
    ) -> LaunchOutcome {
        let workers = if kernel.block_cost.pays_for_fan_out() {
            available_workers()
        } else {
            1
        };
        self.run_on(kernel, cfg, params, guard, workers)
    }

    /// [`run`](Self::run) on `workers` workers (1: in block order), as
    /// many as the grid has blocks at most.
    pub(crate) fn run_on(
        &mut self,
        kernel: &CompiledKernel,
        cfg: LaunchConfig,
        params: &[u8],
        guard: MemGuard,
        workers: usize,
    ) -> LaunchOutcome {
        let l = Launch {
            kernel,
            cfg,
            params,
            guard,
            spec: self.spec,
            functions: self.functions,
        };
        let workers = (workers as u64).clamp(1, cfg.num_blocks().max(1)) as usize;
        let cache_before = self.cache.stats();
        let mut stats = KernelStats::default();
        let arena = &mut *self.arena;
        let mut block_cycles = std::mem::take(&mut arena.block_cycles);
        block_cycles.clear();
        if arena.workers.len() < workers {
            arena.workers.resize_with(workers, Default::default);
        }
        let fault = if workers == 1 {
            let worker = arena.workers[0].get_mut();
            let worker = worker.unwrap_or_else(PoisonError::into_inner);
            in_order(
                &l,
                0,
                self.dram,
                self.cache,
                worker,
                &mut stats,
                &mut block_cycles,
            )
        } else {
            if arena.slots.len() < workers {
                arena.slots.resize_with(workers, Default::default);
            }
            let (workers, slots) = (&mut arena.workers[..workers], &arena.slots[..workers]);
            let (dram, cache, dirty) = (&mut *self.dram, &mut *self.cache, &mut arena.dirty);
            fan_out(
                &l,
                dram,
                cache,
                workers,
                slots,
                dirty,
                &mut stats,
                &mut block_cycles,
            )
        };
        let ran = block_cycles.len() as u64 + fault.is_some() as u64;
        kernel.block_cost.note(stats.instructions, ran);

        let after = self.cache.stats();
        stats.cache = CacheStats {
            accesses: after.accesses - cache_before.accesses,
            l1_hits: after.l1_hits - cache_before.l1_hits,
            l2_hits: after.l2_hits - cache_before.l2_hits,
        };
        LaunchOutcome {
            block_cycles,
            stats,
            fault,
        }
    }
}

/// Run the blocks of `l` from `first` on in block order, straight against
/// the device; the first fault stops the launch.
fn in_order(
    l: &Launch,
    first: u64,
    dram: &mut Dram,
    cache: &mut CacheHierarchy,
    worker: &mut Worker,
    stats: &mut KernelStats,
    block_cycles: &mut Vec<u64>,
) -> Option<Fault> {
    let spec = l.spec;
    let mut core = Core {
        spec,
        functions: l.functions,
        mem: Direct { dram, cache, spec },
    };
    for index in first..l.cfg.num_blocks() {
        let ctaid = l.cfg.ctaid(index);
        let block = &mut worker.block;
        if let Err(fault) = core.run_block(l.kernel, l.cfg, ctaid, l.params, l.guard, block, stats)
        {
            return Some(fault);
        }
        block_cycles.push(block_time(
            block.threads.iter().map(|t| t.cycles),
            spec,
            stats,
        ));
    }
    None
}

/// Run the blocks of `l` in waves of one block per worker: this thread
/// and a scoped helper per other worker claim the blocks of a wave one at
/// a time and run each against DRAM as the wave found it, with an L1 of
/// its own and its writes and L2 probes held in its slot. Then this
/// thread [`commit`]s the wave in block order. Any block that read a byte
/// an earlier block of its wave wrote runs again at its turn, and a fault
/// ends the launch where in-order execution would have ended it. A block
/// that filled its slot has had no effect yet: it and every block after
/// it run [`in_order`], as do the kernel's later launches.
#[allow(clippy::too_many_arguments)]
fn fan_out(
    l: &Launch,
    dram: &mut Dram,
    cache: &mut CacheHierarchy,
    workers: &mut [Mutex<Worker>],
    slots: &[Mutex<Slot>],
    dirty: &mut LineBytes,
    stats: &mut KernelStats,
    block_cycles: &mut Vec<u64>,
) -> Option<Fault> {
    for worker in workers.iter_mut() {
        let worker = worker.get_mut().unwrap_or_else(PoisonError::into_inner);
        cache.fresh_l1(&mut worker.l1);
    }
    let (workers, blocks, wave) = (&*workers, l.cfg.num_blocks(), slots.len() as u64);
    let dram = RwLock::new(dram);
    // Blocks below `next` are claimed, blocks below `limit` (the end of
    // the current wave) may be, and `done` have run.
    let (next, limit, done, stop) = (
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicBool::new(false),
    );
    let claim = || {
        let limit = limit.load(Ordering::Acquire);
        next.fetch_update(Ordering::AcqRel, Ordering::Acquire, |i| {
            (i < limit).then_some(i + 1)
        })
        .ok()
    };
    let run_claimed = |worker: &Mutex<Worker>| {
        while let Some(index) = claim() {
            let dram = dram.read().unwrap_or_else(PoisonError::into_inner);
            let slot = &mut lock(&slots[(index % wave) as usize]);
            lock(worker).run(l, index, &dram, slot);
            drop(dram);
            done.fetch_add(1, Ordering::Release);
        }
    };
    // What the waves leave: the launch's end, or the first block to run in
    // order.
    let ended = std::thread::scope(|s| {
        let _stop = StopOnDrop(&stop);
        let helpers: Vec<_> = workers[1..]
            .iter()
            .map(|worker| {
                let (run_claimed, next, limit, stop) = (&run_claimed, &next, &limit, &stop);
                s.spawn(move || loop {
                    run_claimed(worker);
                    let mut stopped = false;
                    spin_until(|| {
                        stopped = stop.load(Ordering::Acquire);
                        stopped || next.load(Ordering::Acquire) < limit.load(Ordering::Acquire)
                    });
                    if stopped {
                        return;
                    }
                })
            })
            .collect();
        let mut first = 0;
        while first < blocks {
            // Waves start at multiples of `wave`: block `i` is in slot
            // `i % wave`.
            let end = (first + wave).min(blocks);
            limit.store(end, Ordering::Release);
            run_claimed(&workers[0]);
            spin_until(|| {
                done.load(Ordering::Acquire) == end || helpers.iter().any(|h| h.is_finished())
            });
            assert_eq!(
                done.load(Ordering::Acquire),
                end,
                "a fan-out worker panicked"
            );
            let mut dram = dram.write().unwrap_or_else(PoisonError::into_inner);
            dirty.clear();
            for index in first..end {
                let slot = &mut lock(&slots[(index % wave) as usize]);
                if !dirty.is_empty() && slot.mem.log.read_any(dirty) {
                    lock(&workers[0]).run(l, index, &dram, slot);
                }
                if slot.mem.full() {
                    l.kernel.block_cost.spilled();
                    return Err(index);
                }
                let more = index + 1 < end;
                match commit(l, &mut dram, cache, slot, dirty, more, stats) {
                    Ok(cycles) => block_cycles.push(cycles),
                    Err(fault) => return Ok(Some(fault)),
                }
            }
            first = end;
        }
        Ok(None)
    });
    ended.unwrap_or_else(|first| {
        let dram = dram.into_inner().unwrap_or_else(PoisonError::into_inner);
        let worker = &mut lock(&workers[0]);
        in_order(l, first, dram, cache, worker, stats, block_cycles)
    })
}

/// Raises its flag when the launch ends, however it ends, so that the
/// helpers return and the scope's join finds them gone.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Wait until `ready()` without sleeping. A hand-off between the workers
/// of a launch waits microseconds, and a thread that sleeps — on a virtual
/// machine, a core that halts — takes up to a millisecond to wake; so the
/// waiter spins, and past a few spins yields, so that a thread sharing
/// its core gets it.
fn spin_until(mut ready: impl FnMut() -> bool) {
    let mut spins = 0;
    while !ready() {
        if spins < 128 {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Make a fanned-out block's effects the device's, as if it ran now (it
/// read nothing an earlier block of its wave wrote): its L2 probes replay
/// into the shared L2 in issue order, each charging its thread the L2 or
/// DRAM latency, and its writes land in DRAM; with `more` blocks to come
/// in the wave, the bytes it wrote join `dirty`. Returns its duration, or
/// the fault it stopped at.
fn commit(
    l: &Launch,
    dram: &mut Dram,
    cache: &mut CacheHierarchy,
    slot: &mut Slot,
    dirty: &mut LineBytes,
    more: bool,
    stats: &mut KernelStats,
) -> Result<u64, Fault> {
    let Slot {
        cycles,
        mem,
        stats: block,
        fault,
    } = slot;
    cache.count_block_l1(mem.accesses, mem.l1_hits);
    mem.replay(cache, l.spec, cycles);
    mem.log.apply(dram);
    if more {
        mem.log.note_writes(dirty);
    }
    stats.merge(block);
    match fault.take() {
        Some(fault) => Err(fault),
        None => Ok(block_time(cycles.iter().copied(), l.spec, stats)),
    }
}

/// A finished block's duration, from its threads' cycles; those join the
/// kernel's.
fn block_time(cycles: impl Iterator<Item = u64>, spec: &GpuSpec, stats: &mut KernelStats) -> u64 {
    let (total, max) = cycles.fold((0u64, 0u64), |(t, m), c| (t + c, m.max(c)));
    stats.thread_cycles += total;
    max.max(total / spec.cores_per_sm as u64)
}

/// The latency of a load served at `level`.
fn load_cycles(spec: &GpuSpec, level: HitLevel) -> u64 {
    match level {
        HitLevel::L1 => spec.l1_hit_cycles,
        HitLevel::L2 => spec.l2_hit_cycles,
        HitLevel::Global => spec.global_load_cycles,
    }
}

/// Where a block's global loads and stores go: the device itself
/// ([`Direct`]), or a block run beside others ([`Logged`]).
trait GlobalMem {
    /// The DRAM page owners live in.
    fn dram(&self) -> &Dram;
    /// A block starts: its L1 is empty.
    fn new_block(&mut self);
    /// Probe the caches for a load by thread `slot`; the latency charged
    /// now.
    fn probe_load(&mut self, addr: u64, slot: u32) -> u64;
    /// Account a store by thread `slot` to the L2.
    fn probe_store(&mut self, addr: u64, slot: u32);
    fn read(&mut self, addr: u64, size: usize) -> Result<u64, Fault>;
    fn write(&mut self, addr: u64, size: usize, bits: u64) -> Result<(), Fault>;
}

/// In block order: the device's DRAM and caches, as the block goes.
struct Direct<'a> {
    dram: &'a mut Dram,
    cache: &'a mut CacheHierarchy,
    spec: &'a GpuSpec,
}

impl GlobalMem for Direct<'_> {
    fn dram(&self) -> &Dram {
        self.dram
    }

    fn new_block(&mut self) {
        self.cache.new_block();
    }

    #[inline(always)]
    fn probe_load(&mut self, addr: u64, _slot: u32) -> u64 {
        load_cycles(self.spec, self.cache.load(addr))
    }

    #[inline(always)]
    fn probe_store(&mut self, addr: u64, _slot: u32) {
        self.cache.store(addr);
    }

    #[inline(always)]
    fn read(&mut self, addr: u64, size: usize) -> Result<u64, Fault> {
        self.dram.read_scalar(addr, size)
    }

    #[inline(always)]
    fn write(&mut self, addr: u64, size: usize, bits: u64) -> Result<(), Fault> {
        self.dram.write_scalar(addr, size, bits)
    }
}

/// Beside other blocks: DRAM as the wave found it, read through the
/// block's own writes, which wait in its log. The L1 is the worker's own
/// (every block starts with an empty one), so only the L2 half of an
/// access waits for the commit, in the trace, with its latency.
struct Logged<'a> {
    dram: &'a Dram,
    spec: &'a GpuSpec,
    l1: &'a mut TagArray,
    mem: &'a mut SlotMem,
}

/// The most L2 probes a block run beside others may hold for its
/// commit: 512 KiB of trace. (The largest blocks of the Rodinia and Lenet
/// kernels probe 16 k and 300 times.)
const SLOT_PROBES: usize = 1 << 16;

/// The most cache lines a block run beside others may write, and the most
/// it may read from DRAM: ≈ 1 MiB of log. (Those kernels' largest
/// blocks write 100 lines and read 440.)
const SLOT_LINES: usize = 1 << 12;

/// A block's global memory traffic, run beside others. A block whose
/// trace or log reaches its bound stops there, and runs again in order.
#[derive(Debug, Default)]
struct SlotMem {
    log: AccessLog,
    /// What needs the shared L2 — loads that missed the block's L1, and
    /// stores — in issue order: each the line number shifted left once,
    /// the low bit set for a store.
    trace: Vec<u64>,
    /// The runs of `trace` one thread issued: the thread's index in its
    /// block and the run's first entry (below `SLOT_PROBES`).
    runs: Vec<(u32, u32)>,
    /// Loads probed, and the L1 hits among them.
    accesses: u64,
    l1_hits: u64,
}

impl SlotMem {
    /// Whether the trace or the log reached its bound.
    fn full(&self) -> bool {
        self.trace.len() >= SLOT_PROBES || self.log.lines() >= SLOT_LINES
    }

    /// Stop the block at the access that filled its trace or log, with a
    /// fault that never leaves the launch: [`fan_out`] runs the block
    /// again in order.
    #[inline(always)]
    fn room(&self) -> Result<(), Fault> {
        if self.full() {
            Err(budget_exceeded())
        } else {
            Ok(())
        }
    }

    fn probe(&mut self, addr: u64, thread: u32, store: bool) {
        if self.runs.last().is_none_or(|run| run.0 != thread) {
            self.runs.push((thread, self.trace.len() as u32));
        }
        self.trace.push((addr / LINE_SIZE) << 1 | store as u64);
    }

    /// Replay the trace into `cache`'s L2, in order; each load charges
    /// its thread in `cycles` the latency of the level that served it.
    fn replay(&self, cache: &mut CacheHierarchy, spec: &GpuSpec, cycles: &mut [u64]) {
        for (i, &(thread, first)) in self.runs.iter().enumerate() {
            let end = self
                .runs
                .get(i + 1)
                .map_or(self.trace.len(), |r| r.1 as usize);
            for &probe in &self.trace[first as usize..end] {
                let addr = (probe >> 1) * LINE_SIZE;
                if probe & 1 == 1 {
                    cache.store(addr);
                } else {
                    cycles[thread as usize] += load_cycles(spec, cache.load_past_l1(addr));
                }
            }
        }
    }
}

impl GlobalMem for Logged<'_> {
    fn dram(&self) -> &Dram {
        self.dram
    }

    fn new_block(&mut self) {
        self.l1.invalidate();
        let m = &mut *self.mem;
        m.log.clear();
        m.trace.clear();
        m.runs.clear();
        (m.accesses, m.l1_hits) = (0, 0);
    }

    #[inline(always)]
    fn probe_load(&mut self, addr: u64, slot: u32) -> u64 {
        let m = &mut *self.mem;
        m.accesses += 1;
        if self.l1.access(addr) {
            m.l1_hits += 1;
            return self.spec.l1_hit_cycles;
        }
        m.probe(addr, slot, false);
        0
    }

    #[inline(always)]
    fn probe_store(&mut self, addr: u64, slot: u32) {
        self.mem.probe(addr, slot, true);
    }

    #[inline(always)]
    fn read(&mut self, addr: u64, size: usize) -> Result<u64, Fault> {
        let bits = self.mem.log.read(self.dram, addr, size)?;
        self.mem.room()?;
        Ok(bits)
    }

    #[inline(always)]
    fn write(&mut self, addr: u64, size: usize, bits: u64) -> Result<(), Fault> {
        self.dram.check_scalar(addr, size)?;
        self.mem.log.write(addr, size, bits);
        self.mem.room()
    }
}

/// The interpreter proper: one block at a time, its global memory `M`.
struct Core<'a, M> {
    spec: &'a GpuSpec,
    functions: &'a HashMap<String, Arc<CompiledKernel>>,
    mem: M,
}

impl<M: GlobalMem> Core<'_, M> {
    /// Run one block to its end or its first fault; its threads' cycles
    /// are left in `block.threads`.
    #[allow(clippy::too_many_arguments)]
    fn run_block(
        &mut self,
        kernel: &CompiledKernel,
        cfg: LaunchConfig,
        ctaid: (u32, u32, u32),
        params: &[u8],
        guard: MemGuard,
        block: &mut BlockState,
        stats: &mut KernelStats,
    ) -> Result<(), Fault> {
        self.mem.new_block();
        block.reset(kernel, cfg);
        let BlockState {
            regs,
            preds,
            local,
            shared,
            threads,
            frames,
        } = block;
        let (nr, np, nl) = (
            kernel.num_regs as usize,
            kernel.num_preds as usize,
            kernel.local_size as usize,
        );

        // Cooperative rounds: run every live thread to its next barrier or
        // to completion; repeat until all threads are done.
        loop {
            let mut any_live = false;
            let mut any_barrier = false;
            for (i, st) in threads.iter_mut().enumerate() {
                if st.done {
                    continue;
                }
                any_live = true;
                let mut t = Thread {
                    regs: &mut regs[i * nr..(i + 1) * nr],
                    preds: &mut preds[i * np..(i + 1) * np],
                    pc: st.pc,
                    cycles: st.cycles,
                    instructions: st.instructions,
                    local: &mut local[i * nl..(i + 1) * nl],
                    tid: st.tid,
                    slot: i as u32,
                };
                let stop = self.resume(
                    kernel, cfg, ctaid, params, guard, shared, &mut t, frames, stats,
                );
                (st.pc, st.cycles, st.instructions) = (t.pc, t.cycles, t.instructions);
                match stop? {
                    ThreadStop::Done => st.done = true,
                    ThreadStop::Barrier => any_barrier = true,
                }
            }
            if !any_live || !any_barrier {
                break;
            }
        }
        Ok(())
    }

    /// Run `t` to its next barrier, its end or its fault, then fold the
    /// instructions it executed meanwhile into the kernel's count (the
    /// dispatch loop counts only the thread's own).
    #[allow(clippy::too_many_arguments)]
    fn resume(
        &mut self,
        kernel: &CompiledKernel,
        cfg: LaunchConfig,
        ctaid: (u32, u32, u32),
        params: &[u8],
        guard: MemGuard,
        shared: &mut [u8],
        t: &mut Thread,
        calls: &mut Frames,
        stats: &mut KernelStats,
    ) -> Result<ThreadStop, Fault> {
        let before = t.instructions;
        let stop = self.run_thread(kernel, cfg, ctaid, params, guard, shared, t, calls, stats);
        stats.instructions += t.instructions - before;
        stop
    }

    #[allow(clippy::too_many_arguments)]
    fn run_thread(
        &mut self,
        kernel: &CompiledKernel,
        cfg: LaunchConfig,
        ctaid: (u32, u32, u32),
        params: &[u8],
        guard: MemGuard,
        shared: &mut [u8],
        t: &mut Thread,
        calls: &mut Frames,
        stats: &mut KernelStats,
    ) -> Result<ThreadStop, Fault> {
        let spec = self.spec;
        let code: &[CInstr] = &kernel.code;
        loop {
            let Some(instr) = code.get(t.pc) else {
                return Ok(ThreadStop::Done);
            };
            t.instructions += 1;
            if t.instructions > INSTRUCTION_BUDGET {
                return Err(budget_exceeded());
            }

            // Guard predicate. A predicated *branch* pays the Address
            // Divergence Unit cost whether or not it fires (the check
            // itself is what costs, §4.4); other predicated ops cost one
            // ALU slot when skipped.
            if let Some((slot, negated)) = instr.pred {
                if t.preds[slot as usize] == negated {
                    t.cycles += match instr.op {
                        COp::Bra { .. } | COp::BrxIdx { .. } => spec.branch_cycles,
                        _ => spec.alu_cycles,
                    };
                    t.pc += 1;
                    continue;
                }
            }

            let mut next_pc = t.pc + 1;
            match &instr.op {
                COp::LdParam { ty, dst, offset } => {
                    t.regs[*dst as usize] = ld_param(params, *ty, *offset);
                    t.cycles += spec.alu_cycles;
                }
                COp::LdParamRun { n, .. } => {
                    charge_fused(t, *n as u64 - 1)?;
                    ld_param_run(code, params, t);
                    t.cycles += *n as u64 * spec.alu_cycles;
                    next_pc = t.pc + *n as usize;
                }
                COp::FenceAddr {
                    kind,
                    t: reg,
                    lead,
                    bound,
                    base,
                } => {
                    let n = lead.is_some() as u64 + kind.instructions() as u64;
                    charge_fused(t, n - 1)?;
                    fence_addr(t.regs, *kind, *reg, *lead, *bound, *base);
                    // Every constituent is an ALU op but the 64-bit `rem`.
                    t.cycles += match kind {
                        FenceKind::Bitwise => n * spec.alu_cycles,
                        FenceKind::Modulo => (n - 1) * spec.alu_cycles + 2 * INT_DIV_CYCLES,
                    };
                    next_pc = t.pc + n as usize;
                }
                COp::Ld {
                    space,
                    ty,
                    dst,
                    addr,
                } => {
                    let acc = self.access(*space, addr, *ty, t);
                    let bits = self.mem_load(acc, guard, shared, t, stats)?;
                    t.regs[*dst as usize] = bits;
                }
                COp::St {
                    space,
                    ty,
                    addr,
                    src,
                } => {
                    let acc = self.access(*space, addr, *ty, t);
                    let bits = self.value(src, t, cfg, ctaid);
                    self.mem_store(acc, bits, guard, shared, t, stats)?;
                }
                COp::Mov { ty, dst, src } => {
                    let v = crate::compile::truncate_to(*ty, self.value(src, t, cfg, ctaid));
                    t.regs[*dst as usize] = v;
                    t.cycles += spec.alu_cycles;
                }
                COp::SetPred { dst, src } => {
                    let v = self.value(src, t, cfg, ctaid);
                    t.preds[*dst as usize] = v != 0;
                    t.cycles += spec.alu_cycles;
                }
                COp::Cvt { dty, sty, dst, a } => {
                    let v = self.value(a, t, cfg, ctaid);
                    t.regs[*dst as usize] = convert(*dty, *sty, v);
                    t.cycles += spec.alu_cycles;
                }
                COp::Binary {
                    kind,
                    ty,
                    dst,
                    a,
                    b,
                } => {
                    let va = self.value(a, t, cfg, ctaid);
                    let vb = self.value(b, t, cfg, ctaid);
                    t.regs[*dst as usize] = binary(*kind, *ty, va, vb);
                    t.cycles += match kind {
                        BinKind::Div | BinKind::Rem => {
                            if *ty == Type::F64 {
                                2 * spec.sfu_cycles
                            } else if ty.is_float() {
                                spec.sfu_cycles
                            } else if ty.size() == 8 {
                                2 * INT_DIV_CYCLES
                            } else {
                                INT_DIV_CYCLES
                            }
                        }
                        _ => spec.alu_cycles,
                    };
                }
                COp::Unary { kind, ty, dst, a } => {
                    let v = self.value(a, t, cfg, ctaid);
                    t.regs[*dst as usize] = unary(*kind, *ty, v);
                    t.cycles += if kind.is_special_function() {
                        spec.sfu_cycles
                    } else {
                        spec.alu_cycles
                    };
                }
                COp::MulWide { sty, dst, a, b } => {
                    let va = self.value(a, t, cfg, ctaid);
                    let vb = self.value(b, t, cfg, ctaid);
                    t.regs[*dst as usize] = mul_wide(*sty, va, vb);
                    t.cycles += spec.alu_cycles;
                }
                COp::Mad { ty, dst, a, b, c } => {
                    let va = self.value(a, t, cfg, ctaid);
                    let vb = self.value(b, t, cfg, ctaid);
                    let vc = self.value(c, t, cfg, ctaid);
                    let prod = binary(BinKind::MulLo, *ty, va, vb);
                    t.regs[*dst as usize] = binary(BinKind::Add, *ty, prod, vc);
                    t.cycles += spec.alu_cycles;
                }
                COp::MadWide { sty, dst, a, b, c } => {
                    let va = self.value(a, t, cfg, ctaid);
                    let vb = self.value(b, t, cfg, ctaid);
                    let vc = self.value(c, t, cfg, ctaid);
                    let wide_ty = if sty.is_signed() {
                        Type::S64
                    } else {
                        Type::U64
                    };
                    let prod = mul_wide(*sty, va, vb);
                    t.regs[*dst as usize] = binary(BinKind::Add, wide_ty, prod, vc);
                    t.cycles += spec.alu_cycles;
                }
                COp::Fma { ty, dst, a, b, c } => {
                    let va = self.value(a, t, cfg, ctaid);
                    let vb = self.value(b, t, cfg, ctaid);
                    let vc = self.value(c, t, cfg, ctaid);
                    t.regs[*dst as usize] = match ty {
                        Type::F32 => {
                            let r = f32::from_bits(va as u32)
                                .mul_add(f32::from_bits(vb as u32), f32::from_bits(vc as u32));
                            r.to_bits() as u64
                        }
                        _ => {
                            let r =
                                f64::from_bits(va).mul_add(f64::from_bits(vb), f64::from_bits(vc));
                            r.to_bits()
                        }
                    };
                    t.cycles += spec.alu_cycles;
                }
                COp::Setp { cmp, ty, dst, a, b } => {
                    let va = self.value(a, t, cfg, ctaid);
                    let vb = self.value(b, t, cfg, ctaid);
                    t.preds[*dst as usize] = compare(*cmp, *ty, va, vb);
                    t.cycles += spec.alu_cycles;
                }
                COp::Selp { ty, dst, a, b, p } => {
                    let va = self.value(a, t, cfg, ctaid);
                    let vb = self.value(b, t, cfg, ctaid);
                    let v = if t.preds[*p as usize] { va } else { vb };
                    t.regs[*dst as usize] = crate::compile::truncate_to(*ty, v);
                    t.cycles += spec.alu_cycles;
                }
                COp::Bra { target } => {
                    next_pc = *target as usize;
                    t.cycles += if instr.pred.is_some() {
                        spec.branch_cycles
                    } else {
                        spec.alu_cycles
                    };
                }
                COp::BrxIdx { index, targets } => {
                    let idx = t.regs[*index as usize] & 0xFFFF_FFFF;
                    t.cycles += spec.branch_cycles;
                    match targets.get(idx as usize) {
                        Some(pc) => next_pc = *pc as usize,
                        None => {
                            return Err(Fault::IndirectBranchOutOfRange {
                                index: idx,
                                table_len: targets.len(),
                            });
                        }
                    }
                }
                COp::Call { func, args } => {
                    t.cycles += spec.alu_cycles;
                    let callee = self
                        .functions
                        .get(func)
                        .cloned()
                        .ok_or_else(|| Fault::Trap {
                            kernel: format!("call to unknown function `{func}`"),
                        })?;
                    self.run_call(&callee, args, cfg, ctaid, guard, shared, t, calls, stats)?;
                }
                COp::Ret | COp::Exit => {
                    t.cycles += 2;
                    t.pc = code.len();
                    return Ok(ThreadStop::Done);
                }
                COp::Trap => {
                    return Err(Fault::Trap {
                        kernel: kernel.name.clone(),
                    });
                }
                COp::BarSync => {
                    t.cycles += 20;
                    t.pc = next_pc;
                    return Ok(ThreadStop::Barrier);
                }
                COp::Membar => {
                    t.cycles += 20;
                }
                COp::Atom {
                    op,
                    space,
                    ty,
                    dst,
                    addr,
                    src,
                    cmp,
                } => {
                    let acc = self.access(*space, addr, *ty, t);
                    let old = self.mem_load(acc, guard, shared, t, stats)?;
                    let operand = self.value(src, t, cfg, ctaid);
                    let new = match op {
                        AtomKind::Add => binary(BinKind::Add, *ty, old, operand),
                        AtomKind::Min => binary(BinKind::Min, *ty, old, operand),
                        AtomKind::Max => binary(BinKind::Max, *ty, old, operand),
                        AtomKind::Exch => operand,
                        AtomKind::Cas => {
                            let comparand = cmp
                                .as_ref()
                                .map(|c| self.value(c, t, cfg, ctaid))
                                .unwrap_or(0);
                            if crate::compile::truncate_to(*ty, old)
                                == crate::compile::truncate_to(*ty, comparand)
                            {
                                operand
                            } else {
                                old
                            }
                        }
                    };
                    self.mem_store(acc, new, guard, shared, t, stats)?;
                    t.regs[*dst as usize] = old;
                    stats.atomics += 1;
                    // Loads/stores above already charged latency; add the
                    // serialization cost of the atomic unit.
                    t.cycles += spec.atomic_cycles;
                }
            }
            t.pc = next_pc;
        }
    }

    /// Execute a `.func` body inline on the caller's thread, in the frame
    /// `calls` keeps for this depth.
    #[allow(clippy::too_many_arguments)]
    fn run_call(
        &mut self,
        callee: &CompiledKernel,
        args: &[(Type, CSrc)],
        cfg: LaunchConfig,
        ctaid: (u32, u32, u32),
        guard: MemGuard,
        shared: &mut [u8],
        caller: &mut Thread,
        calls: &mut Frames,
        stats: &mut KernelStats,
    ) -> Result<(), Fault> {
        let Frames {
            regs,
            preds,
            local,
            params,
            deeper,
        } = calls;
        // Marshal args into the callee parameter buffer using the callee's
        // own layout.
        zeroed(params, callee.param_size);
        for ((_, src), (_, pty, off)) in args.iter().zip(&callee.params) {
            let bytes = self.value(src, caller, cfg, ctaid).to_le_bytes();
            let (off, sz) = (*off as usize, pty.size());
            params[off..off + sz].copy_from_slice(&bytes[..sz]);
        }
        zeroed(regs, callee.num_regs as usize);
        zeroed(preds, callee.num_preds as usize);
        zeroed(local, callee.local_size as usize);
        let mut frame = Thread {
            regs,
            preds,
            pc: 0,
            cycles: 0,
            instructions: caller.instructions,
            local,
            tid: caller.tid,
            slot: caller.slot,
        };
        let deeper = deeper.get_or_insert_with(Default::default);
        // Barriers inside .func are not supported (they cannot suspend a
        // call frame); the validator-level kernels in this repo never use
        // them. A barrier here simply costs cycles and continues.
        let ended = loop {
            let stop = self.run_thread(
                callee, cfg, ctaid, params, guard, shared, &mut frame, deeper, stats,
            );
            match stop {
                Ok(ThreadStop::Done) => break Ok(()),
                Ok(ThreadStop::Barrier) => continue,
                Err(fault) => break Err(fault),
            }
        };
        // The frame's instructions are the caller's, faulting or not: the
        // caller's resume folds them into the kernel's count.
        caller.instructions = frame.instructions;
        ended?;
        caller.cycles += frame.cycles;
        Ok(())
    }

    fn access(&self, space: Space, addr: &CAddr, ty: Type, t: &Thread) -> Access {
        let addr = match addr {
            CAddr::Reg { slot, offset } => t.regs[*slot as usize].wrapping_add_signed(*offset),
            CAddr::Abs(a) => *a,
            CAddr::Param(off) => *off as u64, // unreachable for ld/st non-param
        };
        Access {
            space,
            addr,
            size: ty.size(),
        }
    }

    /// An operand's bits: a register or an immediate is read in place, and
    /// only a special register leaves the dispatch loop.
    #[inline(always)]
    fn value(&self, src: &CSrc, t: &Thread, cfg: LaunchConfig, ctaid: (u32, u32, u32)) -> u64 {
        match *src {
            CSrc::Reg(slot) => t.regs[slot as usize],
            CSrc::Imm(v) => v,
            CSrc::Special(s) => special(s, t.tid, cfg, ctaid),
        }
    }

    fn mem_load(
        &mut self,
        acc: Access,
        guard: MemGuard,
        shared: &mut [u8],
        t: &mut Thread,
        stats: &mut KernelStats,
    ) -> Result<u64, Fault> {
        let Access { addr, size, .. } = acc;
        let window = window_of(addr);
        if !acc.permitted(window) {
            return Err(acc.refused(window));
        }
        match window {
            Window::Shared => {
                let off = (addr - SHARED_BASE) as usize;
                if off + size > shared.len() {
                    return Err(Fault::ScratchOutOfBounds {
                        addr: addr - SHARED_BASE,
                        size: shared.len() as u64,
                    });
                }
                t.cycles += self.spec.shared_cycles;
                let mut buf = [0u8; 8];
                buf[..size].copy_from_slice(&shared[off..off + size]);
                Ok(u64::from_le_bytes(buf))
            }
            Window::Local => {
                let off = (addr - LOCAL_BASE) as usize;
                if off + size > t.local.len() {
                    return Err(Fault::ScratchOutOfBounds {
                        addr: addr - LOCAL_BASE,
                        size: t.local.len() as u64,
                    });
                }
                t.cycles += self.spec.shared_cycles;
                let mut buf = [0u8; 8];
                buf[..size].copy_from_slice(&t.local[off..off + size]);
                Ok(u64::from_le_bytes(buf))
            }
            Window::Global => {
                self.check_guard(addr, guard)?;
                stats.loads += 1;
                t.cycles += self.mem.probe_load(addr, t.slot);
                self.mem.read(addr, size)
            }
            Window::Invalid => Err(Fault::Unmapped { addr }),
        }
    }

    fn mem_store(
        &mut self,
        acc: Access,
        bits: u64,
        guard: MemGuard,
        shared: &mut [u8],
        t: &mut Thread,
        stats: &mut KernelStats,
    ) -> Result<(), Fault> {
        let Access { addr, size, .. } = acc;
        let window = window_of(addr);
        if !acc.permitted(window) {
            return Err(acc.refused(window));
        }
        match window {
            Window::Shared => {
                let off = (addr - SHARED_BASE) as usize;
                if off + size > shared.len() {
                    return Err(Fault::ScratchOutOfBounds {
                        addr: addr - SHARED_BASE,
                        size: shared.len() as u64,
                    });
                }
                t.cycles += self.spec.shared_cycles;
                shared[off..off + size].copy_from_slice(&bits.to_le_bytes()[..size]);
                Ok(())
            }
            Window::Local => {
                let off = (addr - LOCAL_BASE) as usize;
                if off + size > t.local.len() {
                    return Err(Fault::ScratchOutOfBounds {
                        addr: addr - LOCAL_BASE,
                        size: t.local.len() as u64,
                    });
                }
                t.cycles += self.spec.shared_cycles;
                t.local[off..off + size].copy_from_slice(&bits.to_le_bytes()[..size]);
                Ok(())
            }
            Window::Global => {
                self.check_guard(addr, guard)?;
                stats.stores += 1;
                self.mem.probe_store(addr, t.slot);
                t.cycles += self.spec.global_store_cycles;
                self.mem.write(addr, size, bits)
            }
            Window::Invalid => Err(Fault::Unmapped { addr }),
        }
    }

    fn check_guard(&self, addr: u64, guard: MemGuard) -> Result<(), Fault> {
        match guard {
            MemGuard::None => Ok(()),
            MemGuard::Asid(asid) => {
                let owner = self.mem.dram().owner_of(addr)?;
                if owner == NO_OWNER {
                    Err(Fault::Unmapped { addr })
                } else if owner != asid {
                    Err(Fault::AsidViolation {
                        addr,
                        accessor: asid,
                        owner,
                    })
                } else {
                    Ok(())
                }
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Window {
    Shared,
    Local,
    Global,
    Invalid,
}

fn window_of(addr: u64) -> Window {
    if addr >= DEVICE_BASE {
        Window::Global
    } else if (SHARED_BASE..SHARED_BASE + WINDOW_SIZE).contains(&addr) {
        Window::Shared
    } else if (LOCAL_BASE..LOCAL_BASE + WINDOW_SIZE).contains(&addr) {
        Window::Local
    } else {
        Window::Invalid
    }
}

/// One `ld`/`st`/`atom` as the memory system sees it.
#[derive(Clone, Copy)]
struct Access {
    space: Space,
    addr: u64,
    size: usize,
}

impl Access {
    /// The two checks the hardware makes before a byte moves. A `.shared`,
    /// `.local` or `.global` instruction addresses that space only — the
    /// patcher leaves `.shared`/`.local` unfenced on exactly this
    /// guarantee — and only a generic access resolves by address. A global
    /// access must be naturally aligned, so one whose first byte is inside
    /// a partition (whose bounds are multiples of every width) lies inside
    /// it whole. (An address in no window is the memory system's to fault.)
    #[inline(always)]
    fn permitted(self, window: Window) -> bool {
        let Access { space, addr, size } = self;
        match window {
            // Widths are powers of two.
            Window::Global => {
                matches!(space, Space::Global | Space::Generic) && addr & (size as u64 - 1) == 0
            }
            Window::Shared => matches!(space, Space::Shared | Space::Generic),
            Window::Local => matches!(space, Space::Local | Space::Generic),
            Window::Invalid => true,
        }
    }

    /// The fault of an access that is not [`permitted`](Self::permitted).
    #[cold]
    #[inline(never)]
    fn refused(self, window: Window) -> Fault {
        let Access { space, addr, size } = self;
        let names_window = match space {
            Space::Generic => true,
            Space::Global => window == Window::Global,
            Space::Shared => window == Window::Shared,
            Space::Local => window == Window::Local,
            Space::Param => false,
        };
        if names_window {
            Fault::Misaligned {
                addr,
                width: size as u64,
            }
        } else {
            Fault::WrongSpace { addr, space }
        }
    }
}

/// The loads of the `ld.param` run whose head is at `t.pc`. Out of line,
/// like [`fence_addr`]: inlined into `run_thread`, the two macro-op bodies
/// cost every kernel — fenced or not — 8 % of its host time (what they
/// add to the dispatch loop's frame, each plain instruction pays for).
#[inline(never)]
fn ld_param_run(code: &[CInstr], params: &[u8], t: &mut Thread) {
    let COp::LdParamRun { ty, dst, offset, n } = code[t.pc].op else {
        unreachable!("called at the head of a run");
    };
    t.regs[dst as usize] = ld_param(params, ty, offset);
    for behind in &code[t.pc + 1..t.pc + n as usize] {
        let COp::LdParam { ty, dst, offset } = behind.op else {
            unreachable!("fusion leaves the run behind its head");
        };
        t.regs[dst as usize] = ld_param(params, ty, offset);
    }
}

/// The arithmetic of a [`COp::FenceAddr`]: `regs[t]` becomes what the
/// sequence would leave in it.
#[inline(never)]
fn fence_addr(
    regs: &mut [u64],
    kind: FenceKind,
    t: u16,
    lead: Option<(u16, i64)>,
    bound: u16,
    base: u16,
) {
    let addr = match lead {
        Some((r, imm)) => regs[r as usize].wrapping_add_signed(imm),
        None => regs[t as usize],
    };
    let (bound, base) = (regs[bound as usize], regs[base as usize]);
    regs[t as usize] = match kind {
        FenceKind::Bitwise => (addr & bound) | base,
        // `rem` by zero is pinned to 0, as in `integer_binary`.
        FenceKind::Modulo => addr
            .wrapping_sub(base)
            .checked_rem(bound)
            .unwrap_or(0)
            .wrapping_add(base),
    };
}

/// `ld.param`: read `ty` at `offset` of the parameter buffer (bytes the
/// launch did not supply read as zero). Where a whole word lies in the
/// buffer it is read at once and masked, with no length-dependent copy.
fn ld_param(params: &[u8], ty: Type, offset: u32) -> u64 {
    let sz = ty.size();
    let off = offset as usize;
    if let Some(word) = params.get(off..off.wrapping_add(8)) {
        let v = u64::from_le_bytes(word.try_into().expect("a word"));
        return if sz >= 8 {
            v
        } else {
            v & ((1 << (8 * sz)) - 1)
        };
    }
    let mut buf = [0u8; 8];
    let avail = params.len().saturating_sub(off).min(sz);
    if avail > 0 {
        buf[..avail].copy_from_slice(&params[off..off + avail]);
    }
    u64::from_le_bytes(buf)
}

/// Count the `extra` instructions a macro-op stands for behind its head
/// (which the dispatch loop has counted and checked already), as if each
/// had been dispatched: one at a time, until the budget trips.
fn charge_fused(t: &mut Thread, extra: u64) -> Result<(), Fault> {
    let room = INSTRUCTION_BUDGET - t.instructions;
    t.instructions += extra.min(room + 1);
    if extra > room {
        return Err(budget_exceeded());
    }
    Ok(())
}

#[cold]
fn budget_exceeded() -> Fault {
    Fault::InstructionBudgetExceeded {
        budget: INSTRUCTION_BUDGET,
    }
}

/// A special register's value for the thread `tid` of block `ctaid`.
#[cold]
#[inline(never)]
fn special(s: SpecialReg, tid: (u32, u32, u32), cfg: LaunchConfig, ctaid: (u32, u32, u32)) -> u64 {
    let (tx, ty, tz) = tid;
    let linear = || {
        tx as u64
            + ty as u64 * cfg.block.0 as u64
            + tz as u64 * cfg.block.0 as u64 * cfg.block.1 as u64
    };
    match s {
        SpecialReg::Tid(Dim::X) => tx as u64,
        SpecialReg::Tid(Dim::Y) => ty as u64,
        SpecialReg::Tid(Dim::Z) => tz as u64,
        SpecialReg::Ntid(Dim::X) => cfg.block.0 as u64,
        SpecialReg::Ntid(Dim::Y) => cfg.block.1 as u64,
        SpecialReg::Ntid(Dim::Z) => cfg.block.2 as u64,
        SpecialReg::Ctaid(Dim::X) => ctaid.0 as u64,
        SpecialReg::Ctaid(Dim::Y) => ctaid.1 as u64,
        SpecialReg::Ctaid(Dim::Z) => ctaid.2 as u64,
        SpecialReg::Nctaid(Dim::X) => cfg.grid.0 as u64,
        SpecialReg::Nctaid(Dim::Y) => cfg.grid.1 as u64,
        SpecialReg::Nctaid(Dim::Z) => cfg.grid.2 as u64,
        SpecialReg::LaneId => linear() % 32,
        SpecialReg::WarpId => linear() / 32,
    }
}

// ----- scalar semantics ----------------------------------------------------

/// Sign- or zero-extend a bit image according to its type.
fn as_i64(ty: Type, bits: u64) -> i64 {
    match ty {
        Type::S8 => bits as u8 as i8 as i64,
        Type::S16 => bits as u16 as i16 as i64,
        Type::S32 => bits as u32 as i32 as i64,
        Type::S64 => bits as i64,
        Type::U8 | Type::B8 => (bits & 0xFF) as i64,
        Type::U16 | Type::B16 => (bits & 0xFFFF) as i64,
        Type::U32 | Type::B32 => (bits & 0xFFFF_FFFF) as i64,
        _ => bits as i64,
    }
}

/// Evaluate a binary operation on bit images, returning a bit image
/// truncated to the result width.
pub fn binary(kind: BinKind, ty: Type, a: u64, b: u64) -> u64 {
    use BinKind::*;
    if ty == Type::F32 {
        let x = f32::from_bits(a as u32);
        let y = f32::from_bits(b as u32);
        let r = match kind {
            Add => x + y,
            Sub => x - y,
            MulLo => x * y,
            Div => x / y,
            Min => x.min(y),
            Max => x.max(y),
            Rem => x % y,
            _ => f32::from_bits(integer_binary(kind, Type::B32, a, b) as u32),
        };
        return r.to_bits() as u64;
    }
    if ty == Type::F64 {
        let x = f64::from_bits(a);
        let y = f64::from_bits(b);
        let r = match kind {
            Add => x + y,
            Sub => x - y,
            MulLo => x * y,
            Div => x / y,
            Min => x.min(y),
            Max => x.max(y),
            Rem => x % y,
            _ => f64::from_bits(integer_binary(kind, Type::B64, a, b)),
        };
        return r.to_bits();
    }
    integer_binary(kind, ty, a, b)
}

fn integer_binary(kind: BinKind, ty: Type, a: u64, b: u64) -> u64 {
    use BinKind::*;
    // The low `w` bits of a two's-complement sum, difference or product, and
    // of a bitwise op, depend only on the low `w` bits of the operands: these
    // skip the extension and truncate only the result.
    match kind {
        Add => return crate::compile::truncate_to(ty, a.wrapping_add(b)),
        Sub => return crate::compile::truncate_to(ty, a.wrapping_sub(b)),
        MulLo => return crate::compile::truncate_to(ty, a.wrapping_mul(b)),
        And => return crate::compile::truncate_to(ty, a & b),
        Or => return crate::compile::truncate_to(ty, a | b),
        Xor => return crate::compile::truncate_to(ty, a ^ b),
        _ => {}
    }
    let width_bits = (ty.size() * 8) as u32;
    let sa = as_i64(ty, a);
    let sb = as_i64(ty, b);
    let ua = crate::compile::truncate_to(ty, a);
    let ub = crate::compile::truncate_to(ty, b);
    let signed = ty.is_signed();
    let r: u64 = match kind {
        Add | Sub | MulLo | And | Or | Xor => unreachable!("returned above"),
        MulHi => {
            if signed {
                (((sa as i128 * sb as i128) >> width_bits) & 0xFFFF_FFFF_FFFF_FFFF) as u64
            } else {
                (((ua as u128 * ub as u128) >> width_bits) & 0xFFFF_FFFF_FFFF_FFFF) as u64
            }
        }
        Div => {
            // PTX integer division by zero yields an unspecified value; the
            // simulator pins it to 0.
            if signed {
                if sb == 0 {
                    0
                } else {
                    sa.wrapping_div(sb) as u64
                }
            } else {
                ua.checked_div(ub).unwrap_or(0)
            }
        }
        Rem => {
            if signed {
                if sb == 0 {
                    0
                } else {
                    sa.wrapping_rem(sb) as u64
                }
            } else if ub == 0 {
                0
            } else {
                ua % ub
            }
        }
        Shl => {
            let sh = (ub & 0xFFFF_FFFF) as u32;
            if sh >= width_bits {
                0
            } else {
                ua << sh
            }
        }
        Shr => {
            let sh = (ub & 0xFFFF_FFFF) as u32;
            if signed {
                if sh >= width_bits {
                    (sa >> 63) as u64
                } else {
                    (sa >> sh) as u64
                }
            } else if sh >= width_bits {
                0
            } else {
                ua >> sh
            }
        }
        Min => {
            if signed {
                sa.min(sb) as u64
            } else {
                ua.min(ub)
            }
        }
        Max => {
            if signed {
                sa.max(sb) as u64
            } else {
                ua.max(ub)
            }
        }
    };
    crate::compile::truncate_to(ty, r)
}

/// Evaluate a unary operation.
pub fn unary(kind: UnaryKind, ty: Type, a: u64) -> u64 {
    use UnaryKind::*;
    if ty == Type::F32 {
        let x = f32::from_bits(a as u32);
        let r = match kind {
            Neg => -x,
            Abs => x.abs(),
            Sqrt => x.sqrt(),
            Rsqrt => 1.0 / x.sqrt(),
            Rcp => 1.0 / x,
            Ex2 => x.exp2(),
            Lg2 => x.log2(),
            Sin => x.sin(),
            Cos => x.cos(),
            Tanh => x.tanh(),
            Not => f32::from_bits(!(a as u32)),
        };
        return r.to_bits() as u64;
    }
    if ty == Type::F64 {
        let x = f64::from_bits(a);
        let r = match kind {
            Neg => -x,
            Abs => x.abs(),
            Sqrt => x.sqrt(),
            Rsqrt => 1.0 / x.sqrt(),
            Rcp => 1.0 / x,
            Ex2 => x.exp2(),
            Lg2 => x.log2(),
            Sin => x.sin(),
            Cos => x.cos(),
            Tanh => x.tanh(),
            Not => f64::from_bits(!a),
        };
        return r.to_bits();
    }
    let v = as_i64(ty, a);
    let r = match kind {
        Neg => v.wrapping_neg() as u64,
        Abs => v.wrapping_abs() as u64,
        Not => !crate::compile::truncate_to(ty, a),
        // Special functions on integer types are not part of the subset;
        // treat as identity.
        _ => a,
    };
    crate::compile::truncate_to(ty, r)
}

/// `mul.wide`: double-width product of the source type.
pub fn mul_wide(sty: Type, a: u64, b: u64) -> u64 {
    if sty.is_signed() {
        (as_i64(sty, a) * as_i64(sty, b)) as u64
    } else {
        crate::compile::truncate_to(sty, a) * crate::compile::truncate_to(sty, b)
    }
}

/// `setp` comparison semantics.
pub fn compare(cmp: CmpOp, ty: Type, a: u64, b: u64) -> bool {
    use std::cmp::Ordering;
    let ord = if ty == Type::F32 {
        f32::from_bits(a as u32).partial_cmp(&f32::from_bits(b as u32))
    } else if ty == Type::F64 {
        f64::from_bits(a).partial_cmp(&f64::from_bits(b))
    } else if ty.is_signed() {
        Some(as_i64(ty, a).cmp(&as_i64(ty, b)))
    } else {
        Some(crate::compile::truncate_to(ty, a).cmp(&crate::compile::truncate_to(ty, b)))
    };
    match (cmp, ord) {
        // Unordered (NaN) comparisons: only `ne` is true.
        (CmpOp::Ne, None) => true,
        (_, None) => false,
        (CmpOp::Eq, Some(o)) => o == Ordering::Equal,
        (CmpOp::Ne, Some(o)) => o != Ordering::Equal,
        (CmpOp::Lt, Some(o)) => o == Ordering::Less,
        (CmpOp::Le, Some(o)) => o != Ordering::Greater,
        (CmpOp::Gt, Some(o)) => o == Ordering::Greater,
        (CmpOp::Ge, Some(o)) => o != Ordering::Less,
    }
}

/// `cvt` conversion semantics (C-style, saturating float→int).
pub fn convert(dty: Type, sty: Type, bits: u64) -> u64 {
    let out: u64 = match (dty.is_float(), sty.is_float()) {
        (true, true) => {
            let v = if sty == Type::F32 {
                f32::from_bits(bits as u32) as f64
            } else {
                f64::from_bits(bits)
            };
            if dty == Type::F32 {
                (v as f32).to_bits() as u64
            } else {
                v.to_bits()
            }
        }
        (true, false) => {
            let v = as_i64(sty, bits);
            let vf = if sty.is_signed() {
                v as f64
            } else {
                crate::compile::truncate_to(sty, bits) as f64
            };
            if dty == Type::F32 {
                (vf as f32).to_bits() as u64
            } else {
                vf.to_bits()
            }
        }
        (false, true) => {
            let v = if sty == Type::F32 {
                f32::from_bits(bits as u32) as f64
            } else {
                f64::from_bits(bits)
            };
            if dty.is_signed() {
                match dty.size() {
                    1 => (v as i8) as u64,
                    2 => (v as i16) as u64,
                    4 => (v as i32) as u64,
                    _ => (v as i64) as u64,
                }
            } else {
                match dty.size() {
                    1 => (v as u8) as u64,
                    2 => (v as u16) as u64,
                    4 => (v as u32) as u64,
                    _ => v as u64,
                }
            }
        }
        (false, false) => as_i64(sty, bits) as u64,
    };
    crate::compile::truncate_to(dty, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_module, lower_module, CompiledModule};
    use crate::fault::window::DEVICE_BASE;
    use crate::mem::Dram;
    use crate::spec::test_gpu;

    fn run_kernel(
        src: &str,
        kernel: &str,
        cfg: LaunchConfig,
        params: &[u8],
        dram: &mut Dram,
        guard: MemGuard,
    ) -> LaunchOutcome {
        let m = ptx::parse(src).unwrap();
        ptx::validate(&m).unwrap();
        let cm = compile_module(&m, 0).unwrap();
        run_compiled(&cm, kernel, cfg, params, dram, guard)
    }

    fn run_compiled(
        cm: &CompiledModule,
        kernel: &str,
        cfg: LaunchConfig,
        params: &[u8],
        dram: &mut Dram,
        guard: MemGuard,
    ) -> LaunchOutcome {
        let spec = test_gpu();
        let mut cache = CacheHierarchy::new(spec.l1_bytes, spec.l2_bytes);
        let mut ex = Executor {
            dram,
            cache: &mut cache,
            spec: &spec,
            functions: &cm.functions,
            arena: &mut ThreadArena::default(),
        };
        let k = cm.kernel(kernel).unwrap();
        ex.run(&k, cfg, params, guard)
    }

    /// Run `kernel` compiled with and without the fusion pass, each on a
    /// fresh DRAM; everything the simulation can see must agree. Returns
    /// the fused run and the first 4 KiB it left in memory.
    fn run_fused_and_lowered(
        src: &str,
        kernel: &str,
        cfg: LaunchConfig,
        params: &[u8],
    ) -> (LaunchOutcome, Vec<u8>) {
        let m = ptx::parse(src).unwrap();
        ptx::validate(&m).unwrap();
        let fused = compile_module(&m, 0).unwrap();
        let lowered = lower_module(&m, 0).unwrap();
        assert_ne!(
            fused.kernel(kernel).unwrap().code,
            lowered.kernel(kernel).unwrap().code,
            "nothing fused: the case does not test what it means to"
        );
        let [a, b] = [&fused, &lowered].map(|cm| {
            let mut dram = Dram::new(1 << 20);
            let out = run_compiled(cm, kernel, cfg, params, &mut dram, MemGuard::None);
            let mut memory = vec![0u8; 4096];
            dram.read(DEVICE_BASE, &mut memory).unwrap();
            (out, memory)
        });
        assert_eq!(a.0.fault, b.0.fault);
        assert_eq!(a.0.stats, b.0.stats);
        assert_eq!(a.0.block_cycles, b.0.block_cycles);
        assert_eq!(a.1, b.1);
        a
    }

    fn params_of(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    fn params_u64_u32(p: u64, n: u32) -> Vec<u8> {
        let mut buf = vec![0u8; 12];
        buf[..8].copy_from_slice(&p.to_le_bytes());
        buf[8..].copy_from_slice(&n.to_le_bytes());
        buf
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
    fn arena_retains_what_the_largest_block_needed() {
        let m = ptx::parse(FILL).unwrap();
        let cm = compile_module(&m, 0).unwrap();
        let k = cm.kernel("fill").unwrap();
        let spec = test_gpu();
        let (mut dram, mut arena) = (Dram::new(1 << 20), ThreadArena::default());
        let mut cache = CacheHierarchy::new(spec.l1_bytes, spec.l2_bytes);
        let mut launch = |blocks, threads| {
            let out = Executor {
                dram: &mut dram,
                cache: &mut cache,
                spec: &spec,
                functions: &cm.functions,
                arena: &mut arena,
            }
            .run(
                &k,
                LaunchConfig::linear(blocks, threads),
                &params_u64_u32(DEVICE_BASE, 1024),
                MemGuard::None,
            );
            assert!(out.fault.is_none());
            arena.recycle(out.block_cycles);
            arena.retained_bytes()
        };
        let largest = launch(4, 256);
        assert!(largest >= 256 * k.num_regs as usize * 8);
        assert_eq!(
            launch(2, 16),
            largest,
            "a smaller block neither frees nor grows"
        );
        assert_eq!(
            launch(4, 256),
            largest,
            "the largest block is already sized"
        );
    }

    /// Thread `t` of block `b` stores `i` to word `i·stride + b·ntid + t`
    /// for `i` below `n` if `b` is block `long`, else below 1.
    const SWEEP: &str = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry sweep(.param .u64 out, .param .u32 n, .param .u32 stride, .param .u32 long)
{
    .reg .pred %p<3>;
    .reg .b32 %r<10>;
    .reg .b64 %rd<4>;
    ld.param.u64 %rd1, [out];
    ld.param.u32 %r1, [n];
    ld.param.u32 %r2, [stride];
    ld.param.u32 %r3, [long];
    mov.u32 %r4, %ctaid.x;
    mov.u32 %r5, %ntid.x;
    mov.u32 %r6, %tid.x;
    setp.eq.u32 %p1, %r4, %r3;
    selp.u32 %r1, %r1, 1, %p1;
    mad.lo.u32 %r7, %r4, %r5, %r6;
    mov.u32 %r8, 0;
$L_loop:
    setp.ge.u32 %p2, %r8, %r1;
    @%p2 bra $L_end;
    mad.lo.u32 %r9, %r8, %r2, %r7;
    mul.wide.u32 %rd2, %r9, 4;
    add.s64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r8;
    add.u32 %r8, %r8, 1;
    bra $L_loop;
$L_end:
    ret;
}
"#;

    /// A block that stores more than its slot may hold — more L2 probes
    /// (`stride` 0: one line, stored over and over) or more lines than a
    /// slot takes — stops at the bound, and it and the blocks after it run
    /// in order: the launch leaves what in-order execution leaves, and no
    /// slot holds more than its bound.
    #[test]
    fn a_block_past_its_slots_bound_runs_in_order() {
        let m = ptx::parse(SWEEP).unwrap();
        ptx::validate(&m).unwrap();
        let cm = compile_module(&m, 0).unwrap();
        let k = cm.kernel("sweep").unwrap();
        let spec = test_gpu();
        let (blocks, threads) = (5, 64);
        let cfg = LaunchConfig::linear(blocks, threads);
        let probes = (SLOT_PROBES as u32 / threads + 10, 0);
        let lines = (SLOT_LINES as u32 / 2 + 10, blocks * threads);
        for (n, stride) in [probes, lines] {
            let mut params = params_of(&[DEVICE_BASE]);
            for word in [n, stride, 2] {
                params.extend(word.to_le_bytes());
            }
            let run = |workers| {
                let (mut dram, mut arena) = (Dram::new(1 << 22), ThreadArena::default());
                let mut cache = CacheHierarchy::new(spec.l1_bytes, spec.l2_bytes);
                let outcome = Executor {
                    dram: &mut dram,
                    cache: &mut cache,
                    spec: &spec,
                    functions: &cm.functions,
                    arena: &mut arena,
                }
                .run_on(&k, cfg, &params, MemGuard::None, workers);
                let mut memory = vec![0u8; 1 << 22];
                dram.read(DEVICE_BASE, &mut memory).unwrap();
                (outcome, memory, arena)
            };
            let (ordered, memory, _) = run(1);
            assert_eq!(ordered.fault, None);
            assert_eq!(ordered.stats.stores, (n + blocks - 1) as u64 * 64);
            for workers in 2..=4 {
                let (fanned, fanned_memory, mut arena) = run(workers);
                let ctx = format!("n {n}, stride {stride}, {workers} workers");
                assert_eq!(fanned.fault, ordered.fault, "{ctx}");
                assert_eq!(fanned.stats, ordered.stats, "{ctx}");
                assert_eq!(fanned.block_cycles, ordered.block_cycles, "{ctx}");
                assert!(fanned_memory == memory, "memory: {ctx}");
                let slots: Vec<&mut Slot> = arena
                    .slots
                    .iter_mut()
                    .map(|s| s.get_mut().unwrap())
                    .collect();
                assert!(slots.iter().any(|s| s.mem.full()), "no block filled: {ctx}");
                assert!(!k.block_cost.pays_for_fan_out(), "{ctx}");
                for slot in slots {
                    assert!(slot.mem.trace.capacity() <= SLOT_PROBES, "{ctx}");
                    assert!(slot.mem.runs.capacity() <= SLOT_PROBES, "{ctx}");
                    let bound = SLOT_PROBES * 16 + SLOT_LINES * 256 + threads as usize * 8;
                    assert!(slot.retained_bytes() <= bound, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn ld_param_reads_supplied_bytes_and_zeros_past_them() {
        let bytes: Vec<u8> = (1..=20).collect();
        for len in 0..=bytes.len() {
            let params = &bytes[..len];
            for offset in 0..28u32 {
                for ty in [Type::U8, Type::U16, Type::U32, Type::U64] {
                    let want = (0..ty.size()).fold(0u64, |v, i| {
                        let b = params.get(offset as usize + i).copied().unwrap_or(0);
                        v | (b as u64) << (8 * i)
                    });
                    assert_eq!(ld_param(params, ty, offset), want, "{len} {offset} {ty:?}");
                }
            }
        }
    }

    #[test]
    fn fill_kernel_writes_indices() {
        let mut dram = Dram::new(1 << 20);
        let out = run_kernel(
            FILL,
            "fill",
            LaunchConfig::linear(4, 8),
            &params_u64_u32(DEVICE_BASE, 32),
            &mut dram,
            MemGuard::None,
        );
        assert!(out.fault.is_none());
        assert_eq!(out.block_cycles.len(), 4);
        for i in 0..32u64 {
            assert_eq!(dram.read_scalar(DEVICE_BASE + i * 4, 4).unwrap(), i);
        }
        assert_eq!(out.stats.stores, 32);
    }

    #[test]
    fn guard_none_allows_silent_oob_corruption() {
        // Figure 1 scenario: without protection a kernel can write anywhere
        // in the device address space.
        let mut dram = Dram::new(1 << 20);
        // "Victim" data at 0x8000.
        dram.write_scalar(DEVICE_BASE + 0x8000, 4, 0x1234).unwrap();
        let out = run_kernel(
            FILL,
            "fill",
            LaunchConfig::linear(1, 1),
            &params_u64_u32(DEVICE_BASE + 0x8000, 1),
            &mut dram,
            MemGuard::None,
        );
        assert!(out.fault.is_none());
        // The victim value was overwritten.
        assert_eq!(dram.read_scalar(DEVICE_BASE + 0x8000, 4).unwrap(), 0);
    }

    #[test]
    fn asid_guard_faults_on_foreign_page() {
        let mut dram = Dram::new(1 << 20);
        // Page at offset 0 owned by ASID 1; accessor is ASID 2.
        dram.set_owner(0, 64 * 1024, 1);
        let out = run_kernel(
            FILL,
            "fill",
            LaunchConfig::linear(1, 1),
            &params_u64_u32(DEVICE_BASE, 1),
            &mut dram,
            MemGuard::Asid(2),
        );
        match out.fault {
            Some(Fault::AsidViolation {
                accessor, owner, ..
            }) => {
                assert_eq!(accessor, 2);
                assert_eq!(owner, 1);
            }
            other => panic!("expected ASID fault, got {other:?}"),
        }
    }

    #[test]
    fn asid_guard_allows_own_page() {
        let mut dram = Dram::new(1 << 20);
        dram.set_owner(0, 64 * 1024, 2);
        let out = run_kernel(
            FILL,
            "fill",
            LaunchConfig::linear(1, 1),
            &params_u64_u32(DEVICE_BASE, 1),
            &mut dram,
            MemGuard::Asid(2),
        );
        assert!(out.fault.is_none());
    }

    #[test]
    fn unmapped_access_faults() {
        let mut dram = Dram::new(1 << 20);
        let out = run_kernel(
            FILL,
            "fill",
            LaunchConfig::linear(1, 1),
            &params_u64_u32(DEVICE_BASE + (1 << 30), 1),
            &mut dram,
            MemGuard::None,
        );
        assert!(matches!(out.fault, Some(Fault::Unmapped { .. })));
    }

    const REDUCE: &str = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry reduce(.param .u64 x, .param .u64 out, .param .u32 n)
{
    .shared .align 4 .f32 tile[64];
    .reg .pred %p<3>;
    .reg .b32 %r<10>;
    .reg .f32 %f<6>;
    .reg .b64 %rd<12>;
    ld.param.u64 %rd1, [x];
    ld.param.u64 %rd2, [out];
    ld.param.u32 %r1, [n];
    cvta.to.global.u64 %rd3, %rd1;
    cvta.to.global.u64 %rd4, %rd2;
    mov.u32 %r2, %tid.x;
    // tile[tid] = tid < n ? x[tid] : 0
    mov.f32 %f1, 0f00000000;
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra $L_store;
    mul.wide.u32 %rd5, %r2, 4;
    add.s64 %rd6, %rd3, %rd5;
    ld.global.f32 %f1, [%rd6];
$L_store:
    mov.u64 %rd7, tile;
    mul.wide.u32 %rd8, %r2, 4;
    add.s64 %rd9, %rd7, %rd8;
    st.shared.f32 [%rd9], %f1;
    bar.sync 0;
    // thread 0 sums the tile
    setp.ne.u32 %p2, %r2, 0;
    @%p2 bra $L_end;
    mov.f32 %f2, 0f00000000;
    mov.u32 %r3, 0;
$L_loop:
    setp.ge.u32 %p2, %r3, %r1;
    @%p2 bra $L_done;
    mul.wide.u32 %rd10, %r3, 4;
    add.s64 %rd11, %rd7, %rd10;
    ld.shared.f32 %f3, [%rd11];
    add.f32 %f2, %f2, %f3;
    add.u32 %r3, %r3, 1;
    bra.uni $L_loop;
$L_done:
    st.global.f32 [%rd4], %f2;
$L_end:
    ret;
}
"#;

    #[test]
    fn barrier_reduction_sums_correctly() {
        let mut dram = Dram::new(1 << 20);
        // x[i] = i+1 for 16 elements -> sum = 136.
        for i in 0..16u64 {
            dram.write_scalar(DEVICE_BASE + i * 4, 4, ((i + 1) as f32).to_bits() as u64)
                .unwrap();
        }
        let out_addr = DEVICE_BASE + 4096;
        let mut params = vec![0u8; 20];
        params[..8].copy_from_slice(&DEVICE_BASE.to_le_bytes());
        params[8..16].copy_from_slice(&out_addr.to_le_bytes());
        params[16..20].copy_from_slice(&16u32.to_le_bytes());
        let out = run_kernel(
            REDUCE,
            "reduce",
            LaunchConfig::linear(1, 16),
            &params,
            &mut dram,
            MemGuard::None,
        );
        assert!(out.fault.is_none(), "{:?}", out.fault);
        let bits = dram.read_scalar(out_addr, 4).unwrap();
        assert_eq!(f32::from_bits(bits as u32), 136.0);
    }

    #[test]
    fn trap_raises_contained_fault() {
        let src = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry t() { trap; }
"#;
        let mut dram = Dram::new(1 << 20);
        let out = run_kernel(
            src,
            "t",
            LaunchConfig::linear(1, 1),
            &[],
            &mut dram,
            MemGuard::None,
        );
        assert!(matches!(out.fault, Some(Fault::Trap { .. })));
    }

    #[test]
    fn runaway_kernel_exceeds_budget() {
        let src = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry spin()
{
$L:
    bra $L;
}
"#;
        let mut dram = Dram::new(1 << 20);
        let out = run_kernel(
            src,
            "spin",
            LaunchConfig::linear(1, 1),
            &[],
            &mut dram,
            MemGuard::None,
        );
        assert!(matches!(
            out.fault,
            Some(Fault::InstructionBudgetExceeded { .. })
        ));
    }

    #[test]
    fn brx_idx_out_of_range_faults() {
        let src = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry b(.param .u32 sel)
{
    .reg .b32 %r<2>;
    ld.param.u32 %r1, [sel];
    brx.idx %r1, { $L0, $L1 };
$L0:
    ret;
$L1:
    ret;
}
"#;
        let mut dram = Dram::new(1 << 20);
        let out = run_kernel(
            src,
            "b",
            LaunchConfig::linear(1, 1),
            &5u32.to_le_bytes(),
            &mut dram,
            MemGuard::None,
        );
        assert!(matches!(
            out.fault,
            Some(Fault::IndirectBranchOutOfRange { index: 5, .. })
        ));
    }

    #[test]
    fn fencing_cycles_cost_8_per_access() {
        // The same store executed with and without the two bitwise fencing
        // instructions costs exactly 8 more cycles per thread.
        let plain = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry k(.param .u64 p)
{
    .reg .b32 %r<2>;
    .reg .b64 %rd<3>;
    ld.param.u64 %rd1, [p];
    mov.u32 %r1, 7;
    st.global.u32 [%rd1], %r1;
    ret;
}
"#;
        let fenced = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry k(.param .u64 p, .param .u64 base, .param .u64 mask)
{
    .reg .b32 %r<2>;
    .reg .b64 %rd<3>;
    .reg .b64 %g<3>;
    ld.param.u64 %rd1, [p];
    ld.param.u64 %g1, [base];
    ld.param.u64 %g2, [mask];
    mov.u32 %r1, 7;
    and.b64 %rd1, %rd1, %g2;
    or.b64 %rd1, %rd1, %g1;
    st.global.u32 [%rd1], %r1;
    ret;
}
"#;
        let mut dram = Dram::new(1 << 20);
        let o1 = run_kernel(
            plain,
            "k",
            LaunchConfig::linear(1, 1),
            &DEVICE_BASE.to_le_bytes(),
            &mut dram,
            MemGuard::None,
        );
        let mut params = vec![0u8; 24];
        params[..8].copy_from_slice(&DEVICE_BASE.to_le_bytes());
        params[8..16].copy_from_slice(&DEVICE_BASE.to_le_bytes());
        params[16..24].copy_from_slice(&0xFFFFu64.to_le_bytes());
        let mut dram2 = Dram::new(1 << 20);
        let o2 = run_kernel(
            fenced,
            "k",
            LaunchConfig::linear(1, 1),
            &params,
            &mut dram2,
            MemGuard::None,
        );
        // fenced adds: 2 ld.param (4+4) + and (4) + or (4) = 16 extra;
        // the *per-access* steady-state cost is the and+or = 8.
        let d = o2.block_cycles[0] - o1.block_cycles[0];
        assert_eq!(d, 16);
    }

    #[test]
    fn scalar_semantics_match_host() {
        // Spot-check the arithmetic helpers directly.
        assert_eq!(
            binary(BinKind::Add, Type::U32, 0xFFFF_FFFF, 1),
            0 // wraps at 32 bits
        );
        assert_eq!(binary(BinKind::Sub, Type::S32, 0, 1), 0xFFFF_FFFF);
        assert_eq!(
            binary(BinKind::MulHi, Type::U32, 0x8000_0000, 4),
            2 // (2^31 * 4) >> 32
        );
        assert_eq!(binary(BinKind::Div, Type::U32, 7, 0), 0); // div-by-0 -> 0
        assert_eq!(
            binary(BinKind::Shr, Type::S32, 0x8000_0000, 31),
            0xFFFF_FFFF
        );
        assert_eq!(binary(BinKind::Shr, Type::U32, 0x8000_0000, 31), 1);
        assert_eq!(binary(BinKind::Shl, Type::B32, 1, 40), 0); // overshift
        assert_eq!(
            mul_wide(Type::S32, (-2i32) as u32 as u64, 3),
            (-6i64) as u64
        );
        assert_eq!(mul_wide(Type::U32, 0xFFFF_FFFF, 2), 0x1_FFFF_FFFE);
        let pi = std::f32::consts::PI.to_bits() as u64;
        assert!(compare(CmpOp::Gt, Type::F32, pi, 1.0f32.to_bits() as u64));
        let nan = f32::NAN.to_bits() as u64;
        assert!(!compare(CmpOp::Eq, Type::F32, nan, nan));
        assert!(compare(CmpOp::Ne, Type::F32, nan, nan));
        // cvt f32 -> s32 truncates toward zero.
        assert_eq!(
            convert(Type::S32, Type::F32, (-2.7f32).to_bits() as u64),
            (-2i32) as u32 as u64
        );
        // cvt s32 -> s64 sign-extends.
        assert_eq!(convert(Type::S64, Type::S32, 0xFFFF_FFFF), u64::MAX);
        // cvt u32 -> u64 zero-extends.
        assert_eq!(convert(Type::U64, Type::U32, 0xFFFF_FFFF), 0xFFFF_FFFF);
    }

    #[test]
    fn atomics_accumulate_across_threads() {
        let src = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry acc(.param .u64 out)
{
    .reg .b32 %r<3>;
    .reg .b64 %rd<2>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, 1;
    atom.global.add.u32 %r2, [%rd1], %r1;
    ret;
}
"#;
        let mut dram = Dram::new(1 << 20);
        let out = run_kernel(
            src,
            "acc",
            LaunchConfig::linear(4, 32),
            &DEVICE_BASE.to_le_bytes(),
            &mut dram,
            MemGuard::None,
        );
        assert!(out.fault.is_none());
        assert_eq!(dram.read_scalar(DEVICE_BASE, 4).unwrap(), 128);
        assert_eq!(out.stats.atomics, 128);
    }

    /// `FILL` as the patcher fences it: two more `ld.param`s in front, and
    /// `and`/`or` on the address before the store.
    const FENCED_FILL: &str = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry fill(.param .u64 out, .param .u32 n, .param .u64 base, .param .u64 mask)
{
    .reg .b64 %grd<3>;
    .reg .pred %p<2>;
    .reg .b32 %r<8>;
    .reg .b64 %rd<5>;
    ld.param.u64 %grd0, [base];
    ld.param.u64 %grd1, [mask];
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
    and.b64 %rd4, %rd4, %grd1;
    or.b64 %rd4, %rd4, %grd0;
    st.global.u32 [%rd4], %r5;
$L_end:
    ret;
}
"#;

    /// `FENCED_FILL`'s arguments: `n` words at `DEVICE_BASE`, fenced into
    /// the 4 KiB there.
    fn fenced_fill_params(n: u32) -> Vec<u8> {
        // `n` is a `.u32` padded to the next `.u64`: a zero-extended word.
        params_of(&[DEVICE_BASE, n as u64, DEVICE_BASE, 0xFFF])
    }

    #[test]
    fn fenced_fill_is_the_same_fused_and_unfused() {
        // 32 threads, n = 30: two exit early.
        let params = fenced_fill_params(30);
        let (out, memory) =
            run_fused_and_lowered(FENCED_FILL, "fill", LaunchConfig::linear(4, 8), &params);
        assert_eq!(out.fault, None);
        assert_eq!(out.stats.stores, 30);
        for i in 0..30usize {
            let word = u32::from_le_bytes(memory[4 * i..4 * i + 4].try_into().unwrap());
            assert_eq!(word as usize, i);
        }
        // The fence is 2 ld.param + and + or: 4 instructions and 16 cycles
        // on top of the 13 and 328 of a storing `FILL` thread (10 ALU ops,
        // the predicated branch, the store, `ret`).
        assert_eq!(out.stats.instructions, 30 * (13 + 4) + 2 * 12);
        assert_eq!(out.block_cycles[0], (10 * 4 + 36 + 250 + 2) + 16);
    }

    /// One kernel with a fence of every shape, entered at its head or — by
    /// `sel` — at its second or third instruction, with a predicated store
    /// directly behind the first fence. Parameters: out, m, b (`.u64`), sel.
    const SHAPES: &str = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry shapes(.param .u64 out, .param .u64 m, .param .u64 b, .param .u32 sel)
{
    .reg .pred %p<4>;
    .reg .b32 %r<3>;
    .reg .b64 %rd<8>;
    ld.param.u32 %r1, [sel];
    setp.eq.u32 %p1, %r1, 1;
    setp.eq.u32 %p2, %r1, 2;
    setp.eq.u32 %p3, %r1, 3;
    @%p3 bra $L_params;
    ld.param.u64 %rd1, [out];
$L_params:
    ld.param.u64 %rd2, [m];
    ld.param.u64 %rd3, [b];
    mov.u64 %rd4, 1311768467294899695;
    mov.u64 %rd5, %rd4;
    mov.u64 %rd6, %rd4;
    @%p3 ret;
    // bitwise pair, and a store that fires only when sel == 1
    @%p1 bra $L_or;
    and.b64 %rd4, %rd4, %rd2;
$L_or:
    or.b64 %rd4, %rd4, %rd3;
    @%p1 st.global.u64 [%rd1+24], %rd4;
    st.global.u64 [%rd1], %rd4;
    // offset-mode triple
    @%p2 bra $L_and2;
    add.s64 %rd5, %rd6, 16;
$L_and2:
    and.b64 %rd5, %rd5, %rd2;
    or.b64 %rd5, %rd5, %rd3;
    st.global.u64 [%rd1+8], %rd5;
    // modulo triple
    @%p1 bra $L_rem;
    @%p2 bra $L_add;
    sub.u64 %rd6, %rd6, %rd3;
$L_rem:
    rem.u64 %rd6, %rd6, %rd2;
$L_add:
    add.u64 %rd6, %rd6, %rd3;
    st.global.u64 [%rd1+16], %rd6;
    ret;
}
"#;

    #[test]
    fn fences_entered_anywhere_compute_and_cost_what_their_instructions_do() {
        const V: u64 = 1311768467294899695;
        let (m, b) = (0xFF8u64, 0x7000u64);
        let word = |memory: &[u8], i: usize| {
            u64::from_le_bytes(memory[8 * i..8 * i + 8].try_into().unwrap())
        };
        let run = |sel: u64| {
            let mut params = params_of(&[DEVICE_BASE, m, b]);
            params.extend_from_slice(&(sel as u32).to_le_bytes());
            run_fused_and_lowered(SHAPES, "shapes", LaunchConfig::linear(1, 2), &params)
        };

        // sel 0: every fence from its head.
        let (head, memory) = run(0);
        assert_eq!(head.fault, None);
        assert_eq!(word(&memory, 0), (V & m) | b);
        assert_eq!(word(&memory, 1), ((V + 16) & m) | b);
        assert_eq!(word(&memory, 2), (V - b) % m + b);
        assert_eq!(word(&memory, 3), 0, "the predicated store stayed off");

        // sel 1: in at the `or` and at the `rem`; the predicated store fires.
        let (mid, memory) = run(1);
        assert_eq!(word(&memory, 0), V | b);
        assert_eq!(word(&memory, 3), V | b);
        assert_eq!(word(&memory, 2), V % m + b);
        // Per thread: no `and`, no `sub`, no `@%p2 bra` (a predicated
        // branch costs its 36 taken or not), and a store where a skipped
        // instruction cost one ALU slot.
        let per_thread = |o: &LaunchOutcome| o.stats.thread_cycles / 2;
        assert_eq!(per_thread(&mid), per_thread(&head) - 4 - 4 - 36 + (250 - 4));
        assert_eq!(mid.stats.instructions, head.stats.instructions - 2 * 3);

        // sel 2: in behind the folded `add` and at the modulo's last `add`.
        let (late, memory) = run(2);
        assert_eq!(word(&memory, 1), (V & m) | b);
        assert_eq!(word(&memory, 2), V + b);
        // No folded `add`, no `sub`, and no `rem` with its 2 x 20 cycles.
        assert_eq!(per_thread(&late), per_thread(&head) - 4 - 4 - 40);

        // sel 3: into the middle of the `ld.param` run, then out.
        let (early, memory) = run(3);
        assert_eq!(early.fault, None);
        assert_eq!(&memory[..32], &[0u8; 32]);
    }

    #[test]
    fn budget_trips_inside_a_macro_op_where_it_would_unfused() {
        // Start a thread `room` instructions short of its budget on a
        // prologue of macro-ops: the fault, and the count at the fault,
        // must not depend on how the code was compiled.
        let m = ptx::parse(FENCED_FILL).unwrap();
        let fused = compile_module(&m, 0).unwrap();
        let lowered = lower_module(&m, 0).unwrap();
        let params = fenced_fill_params(1);
        let spec = test_gpu();
        for room in 0..20 {
            let [a, b] = [&fused, &lowered].map(|cm| {
                let k = cm.kernel("fill").unwrap();
                let mut dram = Dram::new(1 << 20);
                let mut cache = CacheHierarchy::new(spec.l1_bytes, spec.l2_bytes);
                let mut core = Core {
                    spec: &spec,
                    functions: &cm.functions,
                    mem: Direct {
                        dram: &mut dram,
                        cache: &mut cache,
                        spec: &spec,
                    },
                };
                let mut t = Thread {
                    regs: &mut vec![0; k.num_regs as usize],
                    preds: &mut vec![false; k.num_preds as usize],
                    pc: 0,
                    cycles: 0,
                    instructions: INSTRUCTION_BUDGET - room,
                    local: &mut [],
                    tid: (0, 0, 0),
                    slot: 0,
                };
                let mut stats = KernelStats::default();
                let fault = core
                    .resume(
                        &k,
                        LaunchConfig::linear(1, 1),
                        (0, 0, 0),
                        &params,
                        MemGuard::None,
                        &mut [],
                        &mut t,
                        &mut Frames::default(),
                        &mut stats,
                    )
                    .err();
                (fault, stats.instructions, t.instructions)
            });
            assert_eq!(a, b, "{room} instructions of budget left");
            assert_eq!(a.0.is_some(), room < 17, "the thread needs 17");
            // Exact: the tripping instruction counts, none after it does.
            assert_eq!(a.1, room.min(16) + 1, "{room} left: kernel count");
            assert_eq!(a.2, INSTRUCTION_BUDGET - room + a.1, "{room} left");
        }
    }

    #[test]
    fn misaligned_global_access_faults() {
        for (addr, fault) in [
            (DEVICE_BASE + 4, None),
            (
                DEVICE_BASE + 2,
                Some(Fault::Misaligned {
                    addr: DEVICE_BASE + 2,
                    width: 4,
                }),
            ),
        ] {
            let mut dram = Dram::new(1 << 20);
            let out = run_kernel(
                FILL,
                "fill",
                LaunchConfig::linear(1, 1),
                &params_u64_u32(addr, 1),
                &mut dram,
                MemGuard::None,
            );
            assert_eq!(out.fault, fault);
        }
    }

    #[test]
    fn state_space_of_the_instruction_is_enforced() {
        // `%rd1` holds a global address, `%rd2` a `.shared` and `%rd3` a
        // `.local` one.
        let kernel = |access: &str| {
            format!(
                r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry k(.param .u64 at)
{{
    .shared .align 8 .u64 tile[4];
    .local .align 8 .u64 scr[4];
    .reg .b64 %rd<5>;
    ld.param.u64 %rd1, [at];
    mov.u64 %rd2, tile;
    mov.u64 %rd3, scr;
    {access}
    ret;
}}
"#
            )
        };
        // `Some(space)`: the access must fault as outside `space`.
        for (access, wrong) in [
            // A global address behind a `.shared`/`.local` instruction.
            ("st.shared.u64 [%rd1], %rd4;", Some(Space::Shared)),
            ("ld.local.u64 %rd4, [%rd1];", Some(Space::Local)),
            (
                "atom.shared.add.u64 %rd4, [%rd1], %rd4;",
                Some(Space::Shared),
            ),
            // The right window for each space, and generic anywhere.
            ("st.global.u64 [%rd1], %rd4;", None),
            ("st.u64 [%rd1], %rd4;", None),
            ("st.shared.u64 [%rd2+8], %rd4;", None),
            ("st.u64 [%rd2+8], %rd4;", None),
            ("ld.local.u64 %rd4, [%rd3+24];", None),
            ("ld.u64 %rd4, [scr+24];", None),
        ] {
            let mut dram = Dram::new(1 << 20);
            let out = run_kernel(
                &kernel(access),
                "k",
                LaunchConfig::linear(1, 1),
                &DEVICE_BASE.to_le_bytes(),
                &mut dram,
                MemGuard::None,
            );
            let fault = wrong.map(|space| Fault::WrongSpace {
                addr: DEVICE_BASE,
                space,
            });
            assert_eq!(out.fault, fault, "{access}");
        }
        // A `.shared` address behind a `.global` or `.local` instruction.
        for (access, space) in [
            ("st.global.u64 [%rd2], %rd4;", Space::Global),
            ("st.local.u64 [%rd2], %rd4;", Space::Local),
        ] {
            let mut dram = Dram::new(1 << 20);
            let out = run_kernel(
                &kernel(access),
                "k",
                LaunchConfig::linear(1, 1),
                &DEVICE_BASE.to_le_bytes(),
                &mut dram,
                MemGuard::None,
            );
            assert_eq!(
                out.fault,
                Some(Fault::WrongSpace {
                    addr: SHARED_BASE,
                    space
                }),
                "{access}"
            );
        }
    }

    #[test]
    fn instruction_count_is_exact_across_a_barrier_yield() {
        // 16 threads, 16 elements: every thread runs the 19 instructions up
        // to the second branch, 15 then `ret`, and thread 0 sums the tile
        // (2 + 16 x 8 loop + 2 exit + store + `ret` = 134 more). Each thread
        // yields once at `bar.sync` and is folded in twice.
        let mut dram = Dram::new(1 << 20);
        let mut params = params_of(&[DEVICE_BASE, DEVICE_BASE + 4096]);
        params.extend_from_slice(&16u32.to_le_bytes());
        let out = run_kernel(
            REDUCE,
            "reduce",
            LaunchConfig::linear(1, 16),
            &params,
            &mut dram,
            MemGuard::None,
        );
        assert_eq!(out.fault, None);
        assert_eq!(out.stats.instructions, 15 * 20 + 19 + 134);
    }

    /// `caller` forwards its pointer to `writer`, which stores through it.
    const CALL_STORE: &str = r#"
.version 7.7
.target sm_86
.address_size 64
.func writer(.param .u64 dst)
{
    .reg .b32 %r<2>;
    .reg .b64 %rd<2>;
    ld.param.u64 %rd1, [dst];
    mov.u32 %r1, 7;
    st.global.u32 [%rd1], %r1;
    ret;
}
.visible .entry caller(.param .u64 p)
{
    .reg .b64 %rd<2>;
    ld.param.u64 %rd1, [p];
    call writer, (%rd1);
    ret;
}
"#;

    #[test]
    fn instruction_count_is_exact_across_a_fault_in_a_func_frame() {
        let run = |p: u64, threads: u32| {
            let mut dram = Dram::new(1 << 20);
            let cfg = LaunchConfig::linear(1, threads);
            let out = run_kernel(
                CALL_STORE,
                "caller",
                cfg,
                &p.to_le_bytes(),
                &mut dram,
                MemGuard::None,
            );
            (out.fault, out.stats.instructions)
        };
        // Caller `ld.param` + `call` + `ret`, writer's four: 7 a thread.
        assert_eq!(run(DEVICE_BASE, 2), (None, 14));
        // The first thread's store faults in the frame: its 2 + 3 count,
        // and the second thread never runs.
        let wild = DEVICE_BASE + (1 << 30);
        assert_eq!(run(wild, 2), (Some(Fault::Unmapped { addr: wild }), 5));
    }

    /// `integer_binary` before the modular kinds skipped operand extension:
    /// the semantics the fast path is held to.
    fn reference_integer_binary(kind: BinKind, ty: Type, a: u64, b: u64) -> u64 {
        use crate::compile::truncate_to;
        use BinKind::*;
        let width_bits = (ty.size() * 8) as u32;
        let (sa, sb) = (as_i64(ty, a), as_i64(ty, b));
        let (ua, ub) = (truncate_to(ty, a), truncate_to(ty, b));
        let signed = ty.is_signed();
        let r: u64 = match kind {
            Add => sa.wrapping_add(sb) as u64,
            Sub => sa.wrapping_sub(sb) as u64,
            MulLo => sa.wrapping_mul(sb) as u64,
            MulHi if signed => ((sa as i128 * sb as i128) >> width_bits) as u64,
            MulHi => ((ua as u128 * ub as u128) >> width_bits) as u64,
            Div | Rem if signed && sb == 0 => 0,
            Div if signed => sa.wrapping_div(sb) as u64,
            Div => ua.checked_div(ub).unwrap_or(0),
            Rem if signed => sa.wrapping_rem(sb) as u64,
            Rem => ua.checked_rem(ub).unwrap_or(0),
            And => ua & ub,
            Or => ua | ub,
            Xor => ua ^ ub,
            Shl => {
                let sh = (ub & 0xFFFF_FFFF) as u32;
                if sh >= width_bits {
                    0
                } else {
                    ua << sh
                }
            }
            Shr => {
                let sh = (ub & 0xFFFF_FFFF) as u32;
                match (signed, sh >= width_bits) {
                    (true, true) => (sa >> 63) as u64,
                    (true, false) => (sa >> sh) as u64,
                    (false, true) => 0,
                    (false, false) => ua >> sh,
                }
            }
            Min if signed => sa.min(sb) as u64,
            Min => ua.min(ub),
            Max if signed => sa.max(sb) as u64,
            Max => ua.max(ub),
        };
        truncate_to(ty, r)
    }

    const BIN_KINDS: [BinKind; 13] = {
        use BinKind::*;
        [
            Add, Sub, MulLo, MulHi, Div, Rem, And, Or, Xor, Shl, Shr, Min, Max,
        ]
    };

    const INT_TYPES: [Type; 12] = {
        use Type::*;
        [B8, B16, B32, B64, U8, U16, U32, U64, S8, S16, S32, S64]
    };

    /// An operand of `ty`'s width: 0, 1, 2, -1, the signed minimum and
    /// maximum, or `raw`; with `garbage` above the width when `dirty`.
    fn edge_operand(ty: Type, pick: u8, raw: u64, dirty: bool, garbage: u64) -> u64 {
        let mask = crate::compile::truncate_to(ty, u64::MAX);
        let smin = 1u64 << (ty.size() * 8 - 1);
        let low = match pick {
            0 => 0,
            1 => 1,
            2 => 2,
            3 => mask,
            4 => smin,
            5 => smin - 1,
            _ => raw & mask,
        };
        if dirty {
            low | (garbage & !mask)
        } else {
            low
        }
    }

    fn alu_matches_reference(ops: [(u8, u64, bool, u64); 2]) {
        let [(pa, ra, da, ga), (pb, rb, db, gb)] = ops;
        for ty in INT_TYPES {
            let a = edge_operand(ty, pa, ra, da, ga);
            let b = edge_operand(ty, pb, rb, db, gb);
            for kind in BIN_KINDS {
                assert_eq!(
                    binary(kind, ty, a, b),
                    reference_integer_binary(kind, ty, a, b),
                    "{kind:?}.{ty:?} {a:#x}, {b:#x}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn integer_fast_path_matches_the_full_semantics(
            a in (0u8..8, proptest::prelude::any::<u64>(), proptest::prelude::any::<bool>(), proptest::prelude::any::<u64>()),
            b in (0u8..8, proptest::prelude::any::<u64>(), proptest::prelude::any::<bool>(), proptest::prelude::any::<u64>()),
        ) {
            alu_matches_reference([a, b]);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1_000_000))]

        #[test]
        #[ignore = "nightly budget"]
        fn alu_equiv_nightly(
            a in (0u8..8, proptest::prelude::any::<u64>(), proptest::prelude::any::<bool>(), proptest::prelude::any::<u64>()),
            b in (0u8..8, proptest::prelude::any::<u64>(), proptest::prelude::any::<bool>(), proptest::prelude::any::<u64>()),
        ) {
            alu_matches_reference([a, b]);
        }
    }
}
