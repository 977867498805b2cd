//! "JIT" compilation of parsed PTX into a dense executable form.
//!
//! Mirrors what the CUDA driver does with PTX at `cuModuleLoadData` time
//! (paper §2.3): resolve virtual registers to slots, labels to instruction
//! indices, parameter names to buffer offsets, and module-scope globals to
//! device addresses. The result is what the interpreter executes.
//!
//! Compilation is two passes. *Lowering* maps each PTX instruction to one
//! [`COp`]. *Fusion* (`fuse`) then rewrites the head of two recurring
//! sequences — a run of `ld.param`s and an address fence (`and`/`or`, or
//! `sub`/`rem`/`add`, optionally behind the `add` that folds a constant
//! offset) — into one macro-op that does the work of the whole sequence in
//! one interpreter dispatch. Fusion is invisible to the simulation: a macro-op
//! charges the cycles, instruction counts and budget of its constituents
//! exactly, and the constituents stay in place behind the head, so pcs are
//! unchanged and a branch into the middle of a sequence executes the
//! original instructions.

use crate::fault::window::{LOCAL_BASE, SHARED_BASE};
use ptx::ast::{AddrBase, Function, FunctionKind, Module, Op, Operand, Statement};
use ptx::types::{AtomKind, BinKind, CmpOp, RegClass, Space, SpecialReg, Type, UnaryKind};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An error produced while lowering PTX to executable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError(pub String);

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PTX compile error: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

/// A compiled source operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CSrc {
    /// General register slot.
    Reg(u16),
    /// Immediate bit image (already converted for the consuming op's type).
    Imm(u64),
    /// Special register, resolved from thread geometry at run time.
    Special(SpecialReg),
}

/// A compiled memory address.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CAddr {
    /// `[reg + offset]`.
    Reg {
        /// Register slot holding the base address.
        slot: u16,
        /// Constant byte offset.
        offset: i64,
    },
    /// Absolute virtual address known at compile time (module globals,
    /// shared/local symbols + offset).
    Abs(u64),
    /// Offset into the kernel parameter buffer.
    Param(u32),
}

/// One compiled instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct CInstr {
    /// Optional guard: (predicate slot, negated).
    pub pred: Option<(u16, bool)>,
    /// The operation.
    pub op: COp,
}

/// Compiled operations. Register names have become slots, labels have
/// become instruction indices, and types are concrete widths.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings mirror `ptx::ast::Op`
pub enum COp {
    LdParam {
        ty: Type,
        dst: u16,
        offset: u32,
    },
    Ld {
        space: Space,
        ty: Type,
        dst: u16,
        addr: CAddr,
    },
    St {
        space: Space,
        ty: Type,
        addr: CAddr,
        src: CSrc,
    },
    Mov {
        ty: Type,
        dst: u16,
        src: CSrc,
    },
    Cvt {
        dty: Type,
        sty: Type,
        dst: u16,
        a: CSrc,
    },
    SetPred {
        dst: u16,
        src: CSrc,
    },
    Binary {
        kind: BinKind,
        ty: Type,
        dst: u16,
        a: CSrc,
        b: CSrc,
    },
    Unary {
        kind: UnaryKind,
        ty: Type,
        dst: u16,
        a: CSrc,
    },
    MulWide {
        sty: Type,
        dst: u16,
        a: CSrc,
        b: CSrc,
    },
    Mad {
        ty: Type,
        dst: u16,
        a: CSrc,
        b: CSrc,
        c: CSrc,
    },
    MadWide {
        sty: Type,
        dst: u16,
        a: CSrc,
        b: CSrc,
        c: CSrc,
    },
    Fma {
        ty: Type,
        dst: u16,
        a: CSrc,
        b: CSrc,
        c: CSrc,
    },
    Setp {
        cmp: CmpOp,
        ty: Type,
        dst: u16,
        a: CSrc,
        b: CSrc,
    },
    Selp {
        ty: Type,
        dst: u16,
        a: CSrc,
        b: CSrc,
        p: u16,
    },
    Bra {
        target: u32,
    },
    BrxIdx {
        index: u16,
        targets: Vec<u32>,
    },
    Call {
        func: String,
        args: Vec<(Type, CSrc)>,
    },
    Ret,
    Exit,
    Trap,
    BarSync,
    Membar,
    Atom {
        op: AtomKind,
        space: Space,
        ty: Type,
        dst: u16,
        addr: CAddr,
        src: CSrc,
        cmp: Option<CSrc>,
    },
    /// Fusion: head of `n >= 2` consecutive unpredicated `ld.param`s. Does
    /// its own load, then those of the `n - 1` [`COp::LdParam`]s behind it.
    LdParamRun {
        ty: Type,
        dst: u16,
        offset: u32,
        n: u16,
    },
    /// Fusion: head of an address fence on register `t`, standing for
    /// `[add.s64 t, r, imm;]` then `and.b64 t, t, bound; or.b64 t, t, base`
    /// ([`FenceKind::Bitwise`]) or `sub.u64 t, t, base; rem.u64 t, t, bound;
    /// add.u64 t, t, base` ([`FenceKind::Modulo`]).
    FenceAddr {
        kind: FenceKind,
        t: u16,
        /// The folded `add.s64 t, r, imm`, as `(r, imm)`.
        lead: Option<(u16, i64)>,
        bound: u16,
        base: u16,
    },
}

/// Which arithmetic a [`COp::FenceAddr`] stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceKind {
    /// `(t & bound) | base`: two ALU instructions.
    Bitwise,
    /// `base + (t - base) % bound`: two ALU instructions and a 64-bit `rem`.
    Modulo,
}

impl FenceKind {
    /// Instructions in the sequence, without the optional leading `add`.
    pub fn instructions(self) -> usize {
        match self {
            FenceKind::Bitwise => 2,
            FenceKind::Modulo => 3,
        }
    }
}

/// A compiled kernel or device function.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Kernel name.
    pub name: String,
    /// `.entry` or `.func`.
    pub kind: FunctionKind,
    /// Parameter metadata: (name, type, buffer offset).
    pub params: Vec<(String, Type, u32)>,
    /// Total parameter-buffer size in bytes.
    pub param_size: usize,
    /// Flattened instruction stream.
    pub code: Vec<CInstr>,
    /// Number of general (non-predicate) register slots.
    pub num_regs: u16,
    /// Number of predicate slots.
    pub num_preds: u16,
    /// Bytes of `.shared` storage per block.
    pub shared_size: u64,
    /// Bytes of `.local` storage per thread.
    pub local_size: u64,
    /// Static count of global/generic loads+stores+atomics in the code
    /// (used by the Table 3 census cross-check).
    pub protected_access_count: u32,
    /// How long its blocks ran last launch (whether the next fans out).
    pub(crate) block_cost: crate::interp::BlockCost,
}

/// A module after driver "JIT": all kernels compiled, globals placed.
#[derive(Debug, Clone)]
pub struct CompiledModule {
    /// Kernels and device functions by name.
    pub functions: HashMap<String, Arc<CompiledKernel>>,
    /// Total bytes of module-scope `.global` variables.
    pub globals_size: u64,
    /// Initial bytes to copy into the module-global block at load.
    pub global_image: Vec<u8>,
    /// Symbol → offset within the module-global block.
    pub global_offsets: HashMap<String, u64>,
}

impl CompiledModule {
    /// Look up an `.entry` kernel.
    pub fn kernel(&self, name: &str) -> Option<Arc<CompiledKernel>> {
        self.functions
            .get(name)
            .filter(|k| k.kind == FunctionKind::Entry)
            .cloned()
    }
}

/// Compile a parsed module. `globals_base` is the device address where the
/// loader will place the module-scope `.global` block (pass the address
/// returned by the driver allocation; 0 if the module has no globals).
///
/// # Errors
///
/// Returns [`CompileError`] on constructs outside the supported subset
/// (e.g. `call` with a return value) or inconsistent register usage.
pub fn compile_module(m: &Module, globals_base: u64) -> Result<CompiledModule, CompileError> {
    build_module(m, globals_base, true)
}

/// Lowering alone, so tests can hold the fused code against it.
#[cfg(test)]
pub(crate) fn lower_module(m: &Module, globals_base: u64) -> Result<CompiledModule, CompileError> {
    build_module(m, globals_base, false)
}

fn build_module(
    m: &Module,
    globals_base: u64,
    fused: bool,
) -> Result<CompiledModule, CompileError> {
    // Lay out module globals.
    let mut global_offsets = HashMap::new();
    let mut off = 0u64;
    for g in &m.globals {
        let align = g.align.unwrap_or(g.ty.size() as u32) as u64;
        off = off.next_multiple_of(align.max(1));
        global_offsets.insert(g.name.clone(), off);
        off += g.size_bytes();
    }
    let globals_size = off;
    let mut global_image = vec![0u8; globals_size as usize];
    for g in &m.globals {
        let base = global_offsets[&g.name] as usize;
        for (i, bits) in g.init.iter().enumerate() {
            let sz = g.ty.size();
            let bytes = bits.to_le_bytes();
            global_image[base + i * sz..base + (i + 1) * sz].copy_from_slice(&bytes[..sz]);
        }
    }

    let mut functions = HashMap::new();
    for f in &m.functions {
        let mut ck = lower_function(f, globals_base, &global_offsets)?;
        if fused {
            fuse(&mut ck.code);
        }
        functions.insert(f.name.clone(), Arc::new(ck));
    }
    Ok(CompiledModule {
        functions,
        globals_size,
        global_image,
        global_offsets,
    })
}

struct FnCtx {
    reg_slots: HashMap<String, u16>,
    pred_slots: HashMap<String, u16>,
    param_offsets: HashMap<String, u32>,
    #[allow(dead_code)] // retained for diagnostics
    param_types: HashMap<String, Type>,
    shared_offsets: HashMap<String, u64>,
    local_offsets: HashMap<String, u64>,
    globals_base: u64,
    global_offsets: HashMap<String, u64>,
}

impl FnCtx {
    fn reg(&self, name: &str) -> Result<u16, CompileError> {
        self.reg_slots
            .get(name)
            .copied()
            .ok_or_else(|| CompileError(format!("unknown register `{name}`")))
    }

    fn pred(&self, name: &str) -> Result<u16, CompileError> {
        self.pred_slots
            .get(name)
            .copied()
            .ok_or_else(|| CompileError(format!("unknown predicate `{name}`")))
    }

    /// Convert an AST operand to a compiled source for an op of type `ty`.
    fn src(&self, o: &Operand, ty: Type) -> Result<CSrc, CompileError> {
        Ok(match o {
            Operand::Reg(r) => {
                if ty == Type::Pred {
                    CSrc::Reg(self.pred(r)?)
                } else {
                    CSrc::Reg(self.reg(r)?)
                }
            }
            Operand::ImmInt(v) => CSrc::Imm(imm_bits_int(*v, ty)),
            Operand::ImmFloat(v) => CSrc::Imm(imm_bits_float(*v, ty)),
            Operand::Special(s) => CSrc::Special(*s),
        })
    }

    /// Resolve a symbol (shared / local / module global) to an absolute
    /// virtual address.
    fn symbol_addr(&self, name: &str) -> Result<u64, CompileError> {
        if let Some(&o) = self.shared_offsets.get(name) {
            return Ok(SHARED_BASE + o);
        }
        if let Some(&o) = self.local_offsets.get(name) {
            return Ok(LOCAL_BASE + o);
        }
        if let Some(&o) = self.global_offsets.get(name) {
            return Ok(self.globals_base + o);
        }
        Err(CompileError(format!("unknown symbol `{name}`")))
    }

    fn addr(&self, a: &ptx::ast::Address, space: Space) -> Result<CAddr, CompileError> {
        match (&a.base, space) {
            (AddrBase::Reg(r), _) => Ok(CAddr::Reg {
                slot: self.reg(r)?,
                offset: a.offset,
            }),
            (AddrBase::Var(v), Space::Param) => {
                let off = self
                    .param_offsets
                    .get(v)
                    .ok_or_else(|| CompileError(format!("unknown parameter `{v}`")))?;
                Ok(CAddr::Param(*off + a.offset as u32))
            }
            (AddrBase::Var(v), _) => {
                let base = self.symbol_addr(v)?;
                Ok(CAddr::Abs(base.wrapping_add_signed(a.offset)))
            }
        }
    }
}

fn imm_bits_int(v: i64, ty: Type) -> u64 {
    match ty {
        Type::F32 => (v as f32).to_bits() as u64,
        Type::F64 => (v as f64).to_bits(),
        _ => truncate_to(ty, v as u64),
    }
}

fn imm_bits_float(v: f64, ty: Type) -> u64 {
    match ty {
        Type::F32 => (v as f32).to_bits() as u64,
        Type::F64 => v.to_bits(),
        _ => truncate_to(ty, v as i64 as u64),
    }
}

/// Truncate a bit image to the width of `ty` (no sign extension; the
/// interpreter re-interprets per op).
pub fn truncate_to(ty: Type, bits: u64) -> u64 {
    match ty.size() {
        1 => bits & 0xFF,
        2 => bits & 0xFFFF,
        4 => bits & 0xFFFF_FFFF,
        _ => bits,
    }
}

fn lower_function(
    f: &Function,
    globals_base: u64,
    global_offsets: &HashMap<String, u64>,
) -> Result<CompiledKernel, CompileError> {
    // Slot assignment for declared registers.
    let mut reg_slots = HashMap::new();
    let mut pred_slots = HashMap::new();
    let mut shared_offsets = HashMap::new();
    let mut local_offsets = HashMap::new();
    let mut shared_size = 0u64;
    let mut local_size = 0u64;
    for s in &f.body {
        match s {
            Statement::RegDecl {
                class,
                prefix,
                count,
            } => {
                for i in 0..*count {
                    let name = format!("{prefix}{i}");
                    if *class == RegClass::Pred {
                        let slot = pred_slots.len() as u16;
                        pred_slots.entry(name).or_insert(slot);
                    } else {
                        let slot = reg_slots.len() as u16;
                        reg_slots.entry(name).or_insert(slot);
                    }
                }
            }
            Statement::VarDecl(v) => {
                let align = v.align.unwrap_or(v.ty.size() as u32) as u64;
                match v.space {
                    Space::Shared => {
                        shared_size = shared_size.next_multiple_of(align.max(1));
                        shared_offsets.insert(v.name.clone(), shared_size);
                        shared_size += v.size_bytes();
                    }
                    Space::Local => {
                        local_size = local_size.next_multiple_of(align.max(1));
                        local_offsets.insert(v.name.clone(), local_size);
                        local_size += v.size_bytes();
                    }
                    _ => {
                        return Err(CompileError(format!(
                            "function-scope variable `{}` must be .shared or .local",
                            v.name
                        )));
                    }
                }
            }
            _ => {}
        }
    }

    // Parameter layout.
    let offsets = f.param_offsets();
    let mut params = Vec::new();
    let mut param_offsets = HashMap::new();
    let mut param_types = HashMap::new();
    for (p, off) in f.params.iter().zip(offsets) {
        params.push((p.name.clone(), p.ty, off as u32));
        param_offsets.insert(p.name.clone(), off as u32);
        param_types.insert(p.name.clone(), p.ty);
    }

    let ctx = FnCtx {
        reg_slots,
        pred_slots,
        param_offsets,
        param_types,
        shared_offsets,
        local_offsets,
        globals_base,
        global_offsets: global_offsets.clone(),
    };

    // First pass: map statement index -> pc; record label pcs.
    let mut label_pc: HashMap<&str, u32> = HashMap::new();
    let mut pc = 0u32;
    for s in &f.body {
        match s {
            Statement::Label(l) => {
                label_pc.insert(l.as_str(), pc);
            }
            Statement::Instr(_) => pc += 1,
            _ => {}
        }
    }
    let resolve_label = |l: &str| -> Result<u32, CompileError> {
        label_pc
            .get(l)
            .copied()
            .ok_or_else(|| CompileError(format!("unknown label `{l}`")))
    };

    // Second pass: lower instructions.
    let mut code = Vec::with_capacity(pc as usize);
    let mut protected = 0u32;
    for s in &f.body {
        let Statement::Instr(ins) = s else { continue };
        let pred = match &ins.pred {
            Some(p) => Some((ctx.pred(&p.reg)?, p.negated)),
            None => None,
        };
        if ins.op.is_protected_access() {
            protected += 1;
        }
        let op = match &ins.op {
            Op::Ld {
                space: Space::Param,
                ty,
                dst,
                addr,
            } => {
                let CAddr::Param(offset) = ctx.addr(addr, Space::Param)? else {
                    return Err(CompileError("ld.param requires a parameter symbol".into()));
                };
                COp::LdParam {
                    ty: *ty,
                    dst: ctx.reg(dst)?,
                    offset,
                }
            }
            Op::Ld {
                space,
                ty,
                dst,
                addr,
            } => COp::Ld {
                space: *space,
                ty: *ty,
                dst: ctx.reg(dst)?,
                addr: ctx.addr(addr, *space)?,
            },
            Op::St {
                space,
                ty,
                addr,
                src,
            } => COp::St {
                space: *space,
                ty: *ty,
                addr: ctx.addr(addr, *space)?,
                src: ctx.src(src, *ty)?,
            },
            Op::Mov { ty, dst, src } => {
                if *ty == Type::Pred {
                    COp::SetPred {
                        dst: ctx.pred(dst)?,
                        src: ctx.src(src, Type::Pred)?,
                    }
                } else {
                    COp::Mov {
                        ty: *ty,
                        dst: ctx.reg(dst)?,
                        src: ctx.src(src, *ty)?,
                    }
                }
            }
            Op::MovAddr { ty, dst, var } => COp::Mov {
                ty: *ty,
                dst: ctx.reg(dst)?,
                src: CSrc::Imm(ctx.symbol_addr(var)?),
            },
            Op::Cvta { dst, src, .. } => {
                // Address-space conversion is a no-op in our flat VA model
                // (windows are disjoint); it still costs one ALU cycle, so
                // keep it as a 64-bit move.
                COp::Mov {
                    ty: Type::U64,
                    dst: ctx.reg(dst)?,
                    src: ctx.src(src, Type::U64)?,
                }
            }
            Op::Cvt { dty, sty, dst, src } => COp::Cvt {
                dty: *dty,
                sty: *sty,
                dst: ctx.reg(dst)?,
                a: ctx.src(src, *sty)?,
            },
            Op::Binary {
                kind,
                ty,
                dst,
                a,
                b,
            } => COp::Binary {
                kind: *kind,
                ty: *ty,
                dst: ctx.reg(dst)?,
                a: ctx.src(a, *ty)?,
                b: ctx.src(b, *ty)?,
            },
            Op::Unary { kind, ty, dst, a } => {
                if *ty == Type::Pred {
                    return Err(CompileError("predicate `not` is unsupported".into()));
                }
                COp::Unary {
                    kind: *kind,
                    ty: *ty,
                    dst: ctx.reg(dst)?,
                    a: ctx.src(a, *ty)?,
                }
            }
            Op::MulWide { sty, dst, a, b } => COp::MulWide {
                sty: *sty,
                dst: ctx.reg(dst)?,
                a: ctx.src(a, *sty)?,
                b: ctx.src(b, *sty)?,
            },
            Op::Mad { ty, dst, a, b, c } => COp::Mad {
                ty: *ty,
                dst: ctx.reg(dst)?,
                a: ctx.src(a, *ty)?,
                b: ctx.src(b, *ty)?,
                c: ctx.src(c, *ty)?,
            },
            Op::MadWide { sty, dst, a, b, c } => COp::MadWide {
                sty: *sty,
                dst: ctx.reg(dst)?,
                a: ctx.src(a, *sty)?,
                b: ctx.src(b, *sty)?,
                c: ctx.src(c, *sty)?,
            },
            Op::Fma { ty, dst, a, b, c } => COp::Fma {
                ty: *ty,
                dst: ctx.reg(dst)?,
                a: ctx.src(a, *ty)?,
                b: ctx.src(b, *ty)?,
                c: ctx.src(c, *ty)?,
            },
            Op::Setp { cmp, ty, dst, a, b } => COp::Setp {
                cmp: *cmp,
                ty: *ty,
                dst: ctx.pred(dst)?,
                a: ctx.src(a, *ty)?,
                b: ctx.src(b, *ty)?,
            },
            Op::Selp { ty, dst, a, b, p } => COp::Selp {
                ty: *ty,
                dst: ctx.reg(dst)?,
                a: ctx.src(a, *ty)?,
                b: ctx.src(b, *ty)?,
                p: ctx.pred(p)?,
            },
            Op::Bra { target, .. } => COp::Bra {
                target: resolve_label(target)?,
            },
            Op::BrxIdx { index, targets } => COp::BrxIdx {
                index: ctx.reg(index)?,
                targets: targets
                    .iter()
                    .map(|t| resolve_label(t))
                    .collect::<Result<_, _>>()?,
            },
            Op::Call { ret, func, args } => {
                if ret.is_some() {
                    return Err(CompileError(
                        "call with return value is outside the supported subset".into(),
                    ));
                }
                // Arg types are resolved against the callee at execution
                // time; pass 64-bit bit images.
                COp::Call {
                    func: func.clone(),
                    args: args
                        .iter()
                        .map(|a| Ok((Type::B64, ctx.src(a, Type::B64)?)))
                        .collect::<Result<Vec<_>, CompileError>>()?,
                }
            }
            Op::Ret => COp::Ret,
            Op::Exit => COp::Exit,
            Op::Trap => COp::Trap,
            Op::BarSync { .. } => COp::BarSync,
            Op::Membar => COp::Membar,
            Op::Atom {
                op,
                space,
                ty,
                dst,
                addr,
                src,
                cmp,
            } => COp::Atom {
                op: *op,
                space: *space,
                ty: *ty,
                dst: ctx.reg(dst)?,
                addr: ctx.addr(addr, *space)?,
                src: ctx.src(src, *ty)?,
                cmp: match cmp {
                    Some(c) => Some(ctx.src(c, *ty)?),
                    None => None,
                },
            },
        };
        code.push(CInstr { pred, op });
    }

    Ok(CompiledKernel {
        name: f.name.clone(),
        kind: f.kind,
        params,
        param_size: f.param_buffer_size(),
        code,
        num_regs: ctx.reg_slots.len() as u16,
        num_preds: ctx.pred_slots.len() as u16,
        shared_size,
        local_size,
        protected_access_count: protected,
        block_cost: Default::default(),
    })
}

/// The fusion pass. Matching is structural — any registers, no knowledge of
/// the patcher's names — so it preserves the meaning of arbitrary PTX. Only
/// the head of a sequence is replaced; the scan resumes behind the sequence,
/// so the instructions it covers stay as they were lowered.
fn fuse(code: &mut [CInstr]) {
    let mut pc = 0;
    while pc < code.len() {
        let window = &code[pc..];
        pc += match ld_param_run_at(window).or_else(|| fence_at(window)) {
            Some((op, n)) => {
                code[pc].op = op;
                n
            }
            None => 1,
        };
    }
}

fn ld_param_run_at(window: &[CInstr]) -> Option<(COp, usize)> {
    let is_plain_ld_param = |i: &CInstr| i.pred.is_none() && matches!(i.op, COp::LdParam { .. });
    let n = window
        .iter()
        .take(u16::MAX as usize)
        .take_while(|i| is_plain_ld_param(i))
        .count();
    match window.first()?.op {
        COp::LdParam { ty, dst, offset } if n >= 2 => Some((
            COp::LdParamRun {
                ty,
                dst,
                offset,
                n: n as u16,
            },
            n,
        )),
        _ => None,
    }
}

/// An unpredicated `<kind>.<ty> t, t, x` with `x` a register other than `t`
/// (were `x` the register being rewritten, the sequence would read its own
/// intermediate values): returns `(t, x)`.
fn in_place(i: &CInstr, kind: BinKind, ty: Type) -> Option<(u16, u16)> {
    match *i {
        CInstr {
            pred: None,
            op:
                COp::Binary {
                    kind: k,
                    ty: y,
                    dst,
                    a: CSrc::Reg(a),
                    b: CSrc::Reg(x),
                },
        } if k == kind && y == ty && dst == a && x != dst => Some((dst, x)),
        _ => None,
    }
}

type Fence = (FenceKind, u16, u16, u16); // kind, t, bound, base

fn bitwise_fence_at(body: &[CInstr]) -> Option<Fence> {
    let [i0, i1, ..] = body else { return None };
    let (t, bound) = in_place(i0, BinKind::And, Type::B64)?;
    let (t1, base) = in_place(i1, BinKind::Or, Type::B64)?;
    (t == t1).then_some((FenceKind::Bitwise, t, bound, base))
}

fn modulo_fence_at(body: &[CInstr]) -> Option<Fence> {
    let [i0, i1, i2, ..] = body else { return None };
    let (t, base) = in_place(i0, BinKind::Sub, Type::U64)?;
    let (t1, bound) = in_place(i1, BinKind::Rem, Type::U64)?;
    let (t2, base2) = in_place(i2, BinKind::Add, Type::U64)?;
    (t == t1 && t == t2 && base == base2).then_some((FenceKind::Modulo, t, bound, base))
}

fn fence_at(window: &[CInstr]) -> Option<(COp, usize)> {
    // `add.s64 t, r, imm` in front of a fence on the same `t` folds in.
    let lead = match window.first()? {
        CInstr {
            pred: None,
            op:
                COp::Binary {
                    kind: BinKind::Add,
                    ty: Type::S64,
                    dst,
                    a: CSrc::Reg(r),
                    b: CSrc::Imm(imm),
                },
        } => Some((*dst, *r, *imm as i64)),
        _ => None,
    };
    let body = &window[lead.is_some() as usize..];
    let (kind, t, bound, base) = bitwise_fence_at(body).or_else(|| modulo_fence_at(body))?;
    let lead = match lead {
        Some((dst, r, imm)) if dst == t => Some((r, imm)),
        Some(_) => return None,
        None => None,
    };
    let n = lead.is_some() as usize + kind.instructions();
    Some((
        COp::FenceAddr {
            kind,
            t,
            lead,
            bound,
            base,
        },
        n,
    ))
}

impl COp {
    /// Static cost class used by the timing model.
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            COp::Ld { .. }
                | COp::St { .. }
                | COp::Atom { .. }
                | COp::LdParam { .. }
                | COp::LdParamRun { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_src(src: &str) -> CompiledModule {
        let m = ptx::parse(src).unwrap();
        ptx::validate(&m).unwrap();
        compile_module(&m, 0x7100_0000_0000).unwrap()
    }

    #[test]
    fn compiles_listing1_kernel() {
        let cm = compile_src(
            r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry kernel(
    .param .u64 p0, .param .u32 p1, .param .u64 base, .param .u64 mask)
{
    .reg .b32 %r<3>;
    .reg .b64 %rd<5>;
    .reg .b64 %grdreg<3>;
    ld.param.u64 %rd1, [p0];
    ld.param.u32 %r1, [p1];
    ld.param.u64 %grdreg1, [base];
    ld.param.u64 %grdreg2, [mask];
    cvta.to.global.u64 %rd2, %rd1;
    mov.u32 %r2, %tid.x;
    mul.wide.s32 %rd3, %r1, 4;
    add.s64 %rd4, %rd2, %rd3;
    and.b64 %rd4, %rd4, %grdreg2;
    or.b64 %rd4, %rd4, %grdreg1;
    st.global.u32 [%rd4], %r2;
    ret;
}
"#,
        );
        let k = cm.kernel("kernel").unwrap();
        assert_eq!(k.param_size, 8 + 4 + 4 /*pad*/ + 8 + 8);
        assert_eq!(k.code.len(), 12);
        assert_eq!(k.protected_access_count, 1);
        // Param offsets: u64@0, u32@8, u64@16, u64@24.
        assert_eq!(k.params[2].2, 16);
        assert_eq!(k.params[3].2, 24);
    }

    #[test]
    fn labels_resolve_to_pcs() {
        let cm = compile_src(
            r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry l(.param .u32 n)
{
    .reg .pred %p<2>;
    .reg .b32 %r<4>;
    ld.param.u32 %r1, [n];
    mov.u32 %r2, 0;
$L_top:
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra $L_done;
    add.u32 %r2, %r2, 1;
    bra.uni $L_top;
$L_done:
    ret;
}
"#,
        );
        let k = cm.kernel("l").unwrap();
        // pc2 = setp; pc3 = predicated bra -> 6 (ret); pc5 = bra -> 2.
        match &k.code[3].op {
            COp::Bra { target } => assert_eq!(*target, 6),
            other => panic!("expected bra, got {other:?}"),
        }
        match &k.code[5].op {
            COp::Bra { target } => assert_eq!(*target, 2),
            other => panic!("expected bra, got {other:?}"),
        }
        assert_eq!(k.num_preds, 2);
    }

    #[test]
    fn module_globals_are_laid_out_and_initialized() {
        let cm = compile_src(
            r#"
.version 7.7
.target sm_86
.address_size 64
.global .align 4 .f32 lut[2] = { 0f3F800000, 0f40000000 };
.global .align 8 .u64 counter;
.visible .entry g() { ret; }
"#,
        );
        assert_eq!(cm.global_offsets["lut"], 0);
        assert_eq!(cm.global_offsets["counter"], 8);
        assert_eq!(cm.globals_size, 16);
        assert_eq!(
            f32::from_le_bytes(cm.global_image[0..4].try_into().unwrap()),
            1.0
        );
        assert_eq!(
            f32::from_le_bytes(cm.global_image[4..8].try_into().unwrap()),
            2.0
        );
    }

    #[test]
    fn shared_and_local_layout() {
        let cm = compile_src(
            r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry s()
{
    .shared .align 4 .f32 tile[64];
    .shared .align 8 .f64 acc[8];
    .local .align 4 .b8 scratch[32];
    .reg .b64 %rd<3>;
    mov.u64 %rd1, tile;
    mov.u64 %rd2, acc;
    ret;
}
"#,
        );
        let k = cm.kernel("s").unwrap();
        assert_eq!(k.shared_size, 64 * 4 + 8 * 8);
        assert_eq!(k.local_size, 32);
        // mov of symbol addresses became immediates in the right windows.
        match &k.code[0].op {
            COp::Mov {
                src: CSrc::Imm(a), ..
            } => assert_eq!(*a, SHARED_BASE),
            o => panic!("{o:?}"),
        }
        match &k.code[1].op {
            COp::Mov {
                src: CSrc::Imm(a), ..
            } => assert_eq!(*a, SHARED_BASE + 256),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn call_with_return_value_is_rejected() {
        let m = ptx::parse(
            r#"
.version 7.7
.target sm_86
.address_size 64
.func h() { ret; }
.visible .entry c()
{
    .reg .b32 %r<2>;
    call (%r1), h;
    ret;
}
"#,
        )
        .unwrap();
        assert!(compile_module(&m, 0).is_err());
    }

    #[test]
    fn f32_immediate_for_f32_op_is_32bit_image() {
        let cm = compile_src(
            r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry f()
{
    .reg .f32 %f<2>;
    mov.f32 %f1, 0f3F800000;
    ret;
}
"#,
        );
        let k = cm.kernel("f").unwrap();
        match &k.code[0].op {
            COp::Mov {
                src: CSrc::Imm(bits),
                ..
            } => assert_eq!(*bits, 0x3F80_0000),
            o => panic!("{o:?}"),
        }
    }

    /// Lowered and fused code of the one kernel in `body`, whose parameters
    /// are `a`, `b`, `c` (`.u64`) and `n` (`.u32`); `%rdN` is slot `N`.
    fn both(body: &str) -> (Vec<CInstr>, Vec<CInstr>) {
        let src = format!(
            r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry k(.param .u64 a, .param .u64 b, .param .u64 c, .param .u32 n)
{{
    .reg .b64 %rd<8>;
    .reg .b32 %r<4>;
    .reg .pred %p<2>;
{body}
    ret;
}}
"#
        );
        let m = ptx::parse(&src).unwrap();
        ptx::validate(&m).unwrap();
        let code = |cm: CompiledModule| cm.kernel("k").unwrap().code.clone();
        (
            code(lower_module(&m, 0).unwrap()),
            code(compile_module(&m, 0).unwrap()),
        )
    }

    /// Pcs at which fusion put a macro-op; everywhere else the fused code
    /// must still be the lowered code.
    fn fused_heads(body: &str) -> Vec<(usize, COp)> {
        let (lowered, fused) = both(body);
        assert_eq!(lowered.len(), fused.len(), "fusion never moves a pc");
        let mut heads = Vec::new();
        for (pc, (l, f)) in lowered.iter().zip(&fused).enumerate() {
            if l != f {
                assert_eq!(l.pred, None);
                assert_eq!(f.pred, None);
                heads.push((pc, f.op.clone()));
            }
        }
        heads
    }

    #[test]
    fn fusion_replaces_heads_and_leaves_landing_pads() {
        let heads = fused_heads(
            "
    ld.param.u64 %rd1, [a];
    ld.param.u64 %rd2, [b];
    ld.param.u64 %rd3, [c];
    ld.param.u32 %r1, [n];
    mov.u32 %r2, 7;
    and.b64 %rd1, %rd1, %rd3;
    or.b64 %rd1, %rd1, %rd2;
    st.global.u32 [%rd1], %r2;
    add.s64 %rd4, %rd1, 16;
    and.b64 %rd4, %rd4, %rd3;
    or.b64 %rd4, %rd4, %rd2;
    st.global.u32 [%rd4], %r2;
    sub.u64 %rd5, %rd5, %rd2;
    rem.u64 %rd5, %rd5, %rd3;
    add.u64 %rd5, %rd5, %rd2;
    add.s64 %rd6, %rd6, -8;
    sub.u64 %rd6, %rd6, %rd2;
    rem.u64 %rd6, %rd6, %rd3;
    add.u64 %rd6, %rd6, %rd2;",
        );
        let fence = |kind, t, lead| COp::FenceAddr {
            kind,
            t,
            lead,
            bound: 3,
            base: 2,
        };
        assert_eq!(
            heads,
            vec![
                (
                    0,
                    COp::LdParamRun {
                        ty: Type::U64,
                        dst: 1,
                        offset: 0,
                        n: 4
                    }
                ),
                (5, fence(FenceKind::Bitwise, 1, None)),
                (8, fence(FenceKind::Bitwise, 4, Some((1, 16)))),
                (12, fence(FenceKind::Modulo, 5, None)),
                (15, fence(FenceKind::Modulo, 6, Some((6, -8)))),
            ]
        );
    }

    #[test]
    fn look_alikes_are_left_alone() {
        for (why, body) in [
            (
                "and whose destination is not its source",
                "and.b64 %rd1, %rd4, %rd3;\n or.b64 %rd1, %rd1, %rd2;",
            ),
            (
                "or on another register",
                "and.b64 %rd1, %rd1, %rd3;\n or.b64 %rd4, %rd4, %rd2;",
            ),
            (
                "mask is the fenced register",
                "and.b64 %rd1, %rd1, %rd1;\n or.b64 %rd1, %rd1, %rd2;",
            ),
            (
                "base is the fenced register",
                "and.b64 %rd1, %rd1, %rd3;\n or.b64 %rd1, %rd1, %rd1;",
            ),
            (
                "predicated and",
                "@%p1 and.b64 %rd1, %rd1, %rd3;\n or.b64 %rd1, %rd1, %rd2;",
            ),
            (
                "predicated or",
                "and.b64 %rd1, %rd1, %rd3;\n @!%p1 or.b64 %rd1, %rd1, %rd2;",
            ),
            (
                "32-bit and",
                "and.b32 %rd1, %rd1, %rd3;\n or.b64 %rd1, %rd1, %rd2;",
            ),
            (
                "immediate mask",
                "and.b64 %rd1, %rd1, 4095;\n or.b64 %rd1, %rd1, %rd2;",
            ),
            (
                "signed rem",
                "sub.u64 %rd1, %rd1, %rd2;\n rem.s64 %rd1, %rd1, %rd3;\n add.u64 %rd1, %rd1, %rd2;",
            ),
            (
                "modulo re-based on another register",
                "sub.u64 %rd1, %rd1, %rd2;\n rem.u64 %rd1, %rd1, %rd3;\n add.u64 %rd1, %rd1, %rd4;",
            ),
            (
                "modulo whose size is the fenced register",
                "sub.u64 %rd1, %rd1, %rd2;\n rem.u64 %rd1, %rd1, %rd1;\n add.u64 %rd1, %rd1, %rd2;",
            ),
            (
                "a lone ld.param",
                "ld.param.u64 %rd1, [a];\n mov.u32 %r1, 1;",
            ),
            (
                "ld.param run broken by a predicate",
                "ld.param.u64 %rd1, [a];\n @%p1 ld.param.u64 %rd2, [b];\n mov.u32 %r1, 1;",
            ),
        ] {
            assert_eq!(fused_heads(body), vec![], "{why}");
        }
        // An `add` that does not feed the fence stays out of it; the pair
        // behind it still fuses, on its own.
        for (why, lead) in [
            ("lead writes another register", "add.s64 %rd4, %rd1, 16;"),
            ("predicated lead", "@%p1 add.s64 %rd1, %rd1, 16;"),
            ("lead adds a register", "add.s64 %rd1, %rd1, %rd4;"),
            ("unsigned lead", "add.u64 %rd1, %rd1, 16;"),
        ] {
            let body = format!("{lead}\n and.b64 %rd1, %rd1, %rd3;\n or.b64 %rd1, %rd1, %rd2;");
            let heads = fused_heads(&body);
            assert!(
                matches!(heads[..], [(1, COp::FenceAddr { lead: None, .. })]),
                "{why}: {heads:?}"
            );
        }
    }

    #[test]
    fn macro_ops_do_not_grow_an_instruction() {
        // `COp::Atom` set the size before fusion; a bigger instruction
        // would cost every kernel cache footprint and the daemon memory.
        assert_eq!(std::mem::size_of::<CInstr>(), 64);
    }

    #[test]
    fn truncate_widths() {
        assert_eq!(truncate_to(Type::U8, 0x1FF), 0xFF);
        assert_eq!(truncate_to(Type::U16, 0x1_FFFF), 0xFFFF);
        assert_eq!(truncate_to(Type::U32, u64::MAX), 0xFFFF_FFFF);
        assert_eq!(truncate_to(Type::U64, u64::MAX), u64::MAX);
    }
}
