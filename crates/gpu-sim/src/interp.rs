//! The PTX interpreter: functional execution with cycle accounting.
//!
//! Kernels execute block-by-block. Threads within a block run cooperatively
//! (round-robin between `bar.sync` points), so barrier semantics are exact;
//! memory side effects land in the shared [`Dram`], so cross-tenant
//! corruption, MPS-style ASID faults, and Guardian's fencing wrap-around are
//! all *observable behaviours*, not modelled flags.
//!
//! Timing: every instruction charges the issuing thread its latency (ALU
//! 4 cycles, predicated branches 36, L1/L2/global loads 28/193/285, ...).
//! A block's duration is `max(critical thread path, total cycles /
//! cores_per_sm)` — perfectly-hidden latency bounded by lane throughput —
//! which preserves the paper's overhead ratios while letting the device
//! scheduler reason about SM occupancy.

use crate::cache::{CacheHierarchy, CacheStats, HitLevel};
use crate::compile::{CAddr, CInstr, COp, CSrc, CompiledKernel, FenceKind};
use crate::fault::window::{DEVICE_BASE, LOCAL_BASE, SHARED_BASE, WINDOW_SIZE};
use crate::fault::Fault;
use crate::mem::{Dram, NO_OWNER};
use crate::spec::GpuSpec;
use ptx::types::{AtomKind, BinKind, CmpOp, Dim, Space, SpecialReg, Type, UnaryKind};
use std::collections::HashMap;
use std::sync::Arc;

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

/// The thread state of one block — registers, predicates, `.local` bytes
/// and the `.shared` tile — in flat buffers that outlive the launch. The
/// [`Device`](crate::Device) owns one and lends it to each [`Executor`],
/// so a launch allocates nothing for its threads: every block re-zeroes
/// the prefix it uses, and what is retained is the largest block seen.
#[derive(Debug, Default)]
pub struct ThreadArena {
    regs: Vec<u64>,
    preds: Vec<bool>,
    local: Vec<u8>,
    shared: Vec<u8>,
    threads: Vec<ThreadState>,
    /// Storage for the next [`LaunchOutcome::block_cycles`]; handed back
    /// with [`ThreadArena::recycle`].
    block_cycles: Vec<u64>,
}

impl ThreadArena {
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

    /// Take back a launch's block durations once they are consumed, so
    /// the next launch fills the same storage.
    pub(crate) fn recycle(&mut self, block_cycles: Vec<u64>) {
        self.block_cycles = block_cycles;
    }

    /// Bytes of storage held between launches.
    #[cfg(test)]
    fn retained_bytes(&self) -> usize {
        self.regs.capacity() * 8
            + self.preds.capacity()
            + self.local.capacity()
            + self.shared.capacity()
            + self.threads.capacity() * std::mem::size_of::<ThreadState>()
            + self.block_cycles.capacity() * 8
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
}

impl<'a> Executor<'a> {
    /// Run a full launch. Functional effects apply to DRAM in block order;
    /// the returned block durations feed the device's SM scheduler.
    pub fn run(
        &mut self,
        kernel: &CompiledKernel,
        cfg: LaunchConfig,
        params: &[u8],
        guard: MemGuard,
    ) -> LaunchOutcome {
        let mut stats = KernelStats::default();
        let cache_before = self.cache.stats();
        // The arena leaves `self` for the launch, so the running thread
        // can borrow its slices while `self` stays mutable.
        let mut arena = std::mem::take(&mut *self.arena);
        let mut block_cycles = std::mem::take(&mut arena.block_cycles);
        block_cycles.clear();
        let mut fault = None;

        'grid: for bz in 0..cfg.grid.2 {
            for by in 0..cfg.grid.1 {
                for bx in 0..cfg.grid.0 {
                    let ctaid = (bx, by, bz);
                    match self.run_block(kernel, cfg, ctaid, params, guard, &mut arena, &mut stats)
                    {
                        Ok(cycles) => block_cycles.push(cycles),
                        Err(f) => {
                            fault = Some(f);
                            break 'grid;
                        }
                    }
                }
            }
        }
        *self.arena = arena;

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

    #[allow(clippy::too_many_arguments)]
    fn run_block(
        &mut self,
        kernel: &CompiledKernel,
        cfg: LaunchConfig,
        ctaid: (u32, u32, u32),
        params: &[u8],
        guard: MemGuard,
        arena: &mut ThreadArena,
        stats: &mut KernelStats,
    ) -> Result<u64, Fault> {
        self.cache.new_block();
        arena.reset(kernel, cfg);
        let ThreadArena {
            regs,
            preds,
            local,
            shared,
            threads,
            ..
        } = arena;
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
                };
                let stop = self.resume(kernel, cfg, ctaid, params, guard, shared, &mut t, stats);
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

        let total: u64 = threads.iter().map(|t| t.cycles).sum();
        let max = threads.iter().map(|t| t.cycles).max().unwrap_or(0);
        stats.thread_cycles += total;
        let lanes = self.spec.cores_per_sm as u64;
        Ok(max.max(total / lanes))
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
        stats: &mut KernelStats,
    ) -> Result<ThreadStop, Fault> {
        let before = t.instructions;
        let stop = self.run_thread(kernel, cfg, ctaid, params, guard, shared, t, stats);
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
                    // Marshal args into the callee parameter buffer using
                    // the callee's own layout.
                    let mut pbuf = vec![0u8; callee.param_size];
                    for (i, (_, src)) in args.iter().enumerate() {
                        if let Some((_, pty, off)) = callee.params.get(i) {
                            let bits = self.value(src, t, cfg, ctaid);
                            let bytes = bits.to_le_bytes();
                            let sz = pty.size();
                            pbuf[*off as usize..*off as usize + sz].copy_from_slice(&bytes[..sz]);
                        }
                    }
                    self.run_call(&callee, cfg, ctaid, &pbuf, guard, shared, t, stats)?;
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

    /// Execute a `.func` body inline on the caller's thread.
    #[allow(clippy::too_many_arguments)]
    fn run_call(
        &mut self,
        callee: &CompiledKernel,
        cfg: LaunchConfig,
        ctaid: (u32, u32, u32),
        params: &[u8],
        guard: MemGuard,
        shared: &mut [u8],
        caller: &mut Thread,
        stats: &mut KernelStats,
    ) -> Result<(), Fault> {
        let mut regs = vec![0u64; callee.num_regs as usize];
        let mut preds = vec![false; callee.num_preds as usize];
        let mut local = vec![0u8; callee.local_size as usize];
        let mut frame = Thread {
            regs: &mut regs,
            preds: &mut preds,
            pc: 0,
            cycles: 0,
            instructions: caller.instructions,
            local: &mut local,
            tid: caller.tid,
        };
        // Barriers inside .func are not supported (they cannot suspend a
        // call frame); the validator-level kernels in this repo never use
        // them. A barrier here simply costs cycles and continues.
        let ended = loop {
            match self.run_thread(callee, cfg, ctaid, params, guard, shared, &mut frame, stats) {
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
                let level = self.cache.load(addr);
                t.cycles += match level {
                    HitLevel::L1 => self.spec.l1_hit_cycles,
                    HitLevel::L2 => self.spec.l2_hit_cycles,
                    HitLevel::Global => self.spec.global_load_cycles,
                };
                self.dram.read_scalar(addr, size)
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
                self.cache.store(addr);
                t.cycles += self.spec.global_store_cycles;
                self.dram.write_scalar(addr, size, bits)
            }
            Window::Invalid => Err(Fault::Unmapped { addr }),
        }
    }

    fn check_guard(&self, addr: u64, guard: MemGuard) -> Result<(), Fault> {
        match guard {
            MemGuard::None => Ok(()),
            MemGuard::Asid(asid) => {
                let owner = self.dram.owner_of(addr)?;
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
                let mut ex = Executor {
                    dram: &mut dram,
                    cache: &mut cache,
                    spec: &spec,
                    functions: &cm.functions,
                    arena: &mut ThreadArena::default(),
                };
                let mut t = Thread {
                    regs: &mut vec![0; k.num_regs as usize],
                    preds: &mut vec![false; k.num_preds as usize],
                    pc: 0,
                    cycles: 0,
                    instructions: INSTRUCTION_BUDGET - room,
                    local: &mut [],
                    tid: (0, 0, 0),
                };
                let mut stats = KernelStats::default();
                let fault = ex
                    .resume(
                        &k,
                        LaunchConfig::linear(1, 1),
                        (0, 0, 0),
                        &params,
                        MemGuard::None,
                        &mut [],
                        &mut t,
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
