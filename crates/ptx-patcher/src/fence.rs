//! The PTX patcher: Guardian's three bounds-enforcement transformations
//! (§4.3 / §4.4 of the paper).
//!
//! * **bitwise fencing** — `addr' = (addr & mask) | base`: two bitwise
//!   instructions per access (Listing 1); out-of-partition addresses wrap
//!   around into the offender's own partition (Figure 4). Requires
//!   power-of-two-aligned partitions.
//! * **modulo fencing** — `addr' = base + ((addr - base) % size)`: three
//!   arithmetic instructions; works for arbitrary partition sizes at a
//!   higher per-access cost.
//! * **address checking** — compare against `[base, end)` and `trap` on
//!   violation: detects (rather than contains) the out-of-bounds access,
//!   at conditional-branch cost (~80 cycles per check).
//!
//! All modes additionally clamp `brx.idx` indices into their target tables
//! (indirect branches are unsafe per the threat model, §3) and forward the
//! bounds arguments through `call`s so `.func`s are instrumented exactly
//! like kernels.

use ptx::ast::*;
use ptx::types::{BinKind, CmpOp, RegClass, Space, Type};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Names of the parameters the patcher appends (Listing 1 appends
/// `kernel_base` / `kernel_mask`; we keep them kernel-independent).
pub const PARAM_A: &str = "grd_param_base";
/// Second appended parameter: the mask (bitwise), size (modulo), or
/// partition end (checking).
pub const PARAM_B: &str = "grd_param_bound";

const REG_PREFIX: &str = "%grd";
const PRED_PREFIX: &str = "%grdp";
const OOB_LABEL: &str = "$GRD_OOB";

/// Which bounds-enforcement transformation to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protection {
    /// No instrumentation (pass-through).
    None,
    /// Address fencing with bitwise AND/OR (the paper's main mode).
    FenceBitwise,
    /// Address fencing with an inline modulo.
    FenceModulo,
    /// Address checking with conditional traps (debugging mode).
    Check,
}

impl Protection {
    /// All active modes (excludes `None`).
    pub const ACTIVE: [Protection; 3] = [
        Protection::FenceBitwise,
        Protection::FenceModulo,
        Protection::Check,
    ];
}

impl fmt::Display for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Protection::None => "no protection",
            Protection::FenceBitwise => "address fencing (bitwise op.)",
            Protection::FenceModulo => "address fencing (modulo op.)",
            Protection::Check => "address checking",
        };
        f.write_str(s)
    }
}

/// Errors produced by the patcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// The function already uses a reserved name (`grd_*` / `%grd*`).
    ReservedName(String),
    /// The module failed re-validation after patching (a patcher bug).
    Revalidation(String),
    /// A global or generic access through a symbol (`[g+K]`) does not lie
    /// inside the variable it names. Such an access has no address register
    /// to fence, so it is bounded here, where both the offset and the size
    /// are constants; the PTX is tenant input like any launch argument.
    SymbolOutOfBounds {
        /// The symbol named by the access (size 0 if nothing declares it).
        symbol: String,
        /// The constant byte offset.
        offset: i64,
        /// Width of the access in bytes.
        width: u64,
        /// Size in bytes of the variable's declaration.
        size: u64,
    },
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::ReservedName(n) => {
                write!(f, "function uses reserved Guardian name `{n}`")
            }
            PatchError::Revalidation(e) => {
                write!(f, "patched module failed validation: {e}")
            }
            PatchError::SymbolOutOfBounds {
                symbol,
                offset,
                width,
                size,
            } => write!(
                f,
                "{width}-byte access at `{symbol}`{offset:+} is outside its {size} bytes"
            ),
        }
    }
}

impl std::error::Error for PatchError {}

/// Instrumentation statistics for one function.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatchInfo {
    /// Function name.
    pub name: String,
    /// Whether it is an `.entry` (false for `.func`).
    pub is_entry: bool,
    /// Protected loads instrumented.
    pub loads: u32,
    /// Protected stores instrumented.
    pub stores: u32,
    /// Protected atomics instrumented.
    pub atomics: u32,
    /// Indirect branches clamped.
    pub indirect_branches: u32,
    /// Call sites rewritten to forward bounds.
    pub calls_forwarded: u32,
    /// Total instructions added.
    pub added_instructions: u32,
}

/// The result of patching a module.
#[derive(Debug, Clone)]
pub struct Patched {
    /// The instrumented module.
    pub module: Module,
    /// Per-function statistics.
    pub info: Vec<PatchInfo>,
    /// The mode that was applied.
    pub mode: Protection,
}

/// Instrument every function of a module with the given protection mode.
///
/// With [`Protection::None`] the module is returned unchanged (the
/// grdManager issues native kernels for standalone applications, §4.2.3).
///
/// # Errors
///
/// [`PatchError::ReservedName`] if the module already uses Guardian's
/// reserved parameter/register names; [`PatchError::SymbolOutOfBounds`] if
/// a symbol-direct access leaves its variable; [`PatchError::Revalidation`]
/// if the instrumented module fails `ptx::validate` (internal invariant).
pub fn patch_module(module: &Module, mode: Protection) -> Result<Patched, PatchError> {
    if mode == Protection::None {
        return Ok(Patched {
            module: module.clone(),
            info: module
                .functions
                .iter()
                .map(|f| PatchInfo {
                    name: f.name.clone(),
                    is_entry: f.kind == FunctionKind::Entry,
                    loads: 0,
                    stores: 0,
                    atomics: 0,
                    indirect_branches: 0,
                    calls_forwarded: 0,
                    added_instructions: 0,
                })
                .collect(),
            mode,
        });
    }
    let mut out = module.clone();
    let mut info = Vec::with_capacity(out.functions.len());
    for f in &mut out.functions {
        info.push(patch_function(f, &module.globals, mode)?);
    }
    ptx::validate(&out).map_err(|e| PatchError::Revalidation(e.to_string()))?;
    Ok(Patched {
        module: out,
        info,
        mode,
    })
}

/// Bound every global or generic access made through a symbol
/// (`[g+K]`): the assembler resolves the symbol, so there is no address
/// register to fence, but the offset and the variable's size are both
/// constants. The variable is a module-scope declaration or one of the
/// function's own.
fn check_symbol_accesses(f: &Function, globals: &[GlobalVar]) -> Result<(), PatchError> {
    let locals = f.body.iter().filter_map(|s| match s {
        Statement::VarDecl(v) => Some(v),
        _ => None,
    });
    let vars: Vec<&GlobalVar> = globals.iter().chain(locals).collect();
    for (_, ins) in f.instructions() {
        let (addr, ty) = match &ins.op {
            Op::Ld { addr, ty, .. } | Op::St { addr, ty, .. } | Op::Atom { addr, ty, .. }
                if ins.op.is_protected_access() =>
            {
                (addr, ty)
            }
            _ => continue,
        };
        let AddrBase::Var(symbol) = &addr.base else {
            continue;
        };
        let width = ty.size() as u64;
        let size = vars
            .iter()
            .find(|v| v.name == *symbol)
            .map_or(0, |v| v.size_bytes());
        let inside = u64::try_from(addr.offset)
            .ok()
            .and_then(|o| o.checked_add(width))
            .is_some_and(|end| end <= size);
        if !inside {
            return Err(PatchError::SymbolOutOfBounds {
                symbol: symbol.clone(),
                offset: addr.offset,
                width,
                size,
            });
        }
    }
    Ok(())
}

fn patch_function(
    f: &mut Function,
    globals: &[GlobalVar],
    mode: Protection,
) -> Result<PatchInfo, PatchError> {
    // Reserved-name collision checks.
    for p in &f.params {
        if p.name.starts_with("grd_param") {
            return Err(PatchError::ReservedName(p.name.clone()));
        }
    }
    for s in &f.body {
        if let Statement::RegDecl { prefix, .. } = s {
            if prefix.starts_with(REG_PREFIX) {
                return Err(PatchError::ReservedName(prefix.clone()));
            }
        }
        if let Statement::Label(l) = s {
            if l.starts_with(OOB_LABEL) {
                return Err(PatchError::ReservedName(l.clone()));
            }
        }
    }
    check_symbol_accesses(f, globals)?;

    let mut info = PatchInfo {
        name: f.name.clone(),
        is_entry: f.kind == FunctionKind::Entry,
        loads: 0,
        stores: 0,
        atomics: 0,
        indirect_branches: 0,
        calls_forwarded: 0,
        added_instructions: 0,
    };

    // (1) Two extra parameters (Listing 1 lines 5, 7).
    f.params.push(Param {
        ty: Type::U64,
        name: PARAM_A.to_string(),
    });
    f.params.push(Param {
        ty: Type::U64,
        name: PARAM_B.to_string(),
    });

    // Register names used by the instrumentation.
    let r_base = format!("{REG_PREFIX}0"); // partition base
    let r_bound = format!("{REG_PREFIX}1"); // mask / size / end
    let r_tmp = format!("{REG_PREFIX}2"); // scratch for base+offset mode
    let r_idx = format!("{REG_PREFIX}idx0"); // brx clamp scratch (b32)
    let p_chk = format!("{PRED_PREFIX}0"); // checking-mode predicate

    let mut needs_idx_reg = false;
    let mut needs_oob_label = false;

    // (4) Rewrite the body.
    let mut new_body: Vec<Statement> = Vec::with_capacity(f.body.len() * 2);

    // (2)+(3) declarations and bound loads at the top (lines 15, 17-18).
    new_body.push(Statement::RegDecl {
        class: RegClass::B64,
        prefix: REG_PREFIX.to_string(),
        count: 3,
    });
    if mode == Protection::Check {
        new_body.push(Statement::RegDecl {
            class: RegClass::Pred,
            prefix: PRED_PREFIX.to_string(),
            count: 1,
        });
    }
    new_body.push(Statement::Instr(Instruction::new(Op::Ld {
        space: Space::Param,
        ty: Type::U64,
        dst: r_base.clone(),
        addr: Address::var(PARAM_A),
    })));
    new_body.push(Statement::Instr(Instruction::new(Op::Ld {
        space: Space::Param,
        ty: Type::U64,
        dst: r_bound.clone(),
        addr: Address::var(PARAM_B),
    })));
    info.added_instructions += 2;

    for stmt in f.body.drain(..) {
        match stmt {
            Statement::Instr(mut ins) => {
                let protected = ins.op.is_protected_access();
                if protected {
                    match &ins.op {
                        Op::Ld { .. } => info.loads += 1,
                        Op::St { .. } => info.stores += 1,
                        Op::Atom { .. } => info.atomics += 1,
                        _ => {}
                    }
                    let addr = match &mut ins.op {
                        Op::Ld { addr, .. } | Op::St { addr, .. } | Op::Atom { addr, .. } => addr,
                        _ => unreachable!("protected access is ld/st/atom"),
                    };
                    // Parameter-symbol addresses cannot occur here (param
                    // space is not protected), so the base is a register.
                    let (reg, offset) = match (&addr.base, addr.offset) {
                        (AddrBase::Reg(r), off) => (r.clone(), off),
                        (AddrBase::Var(_), _) => {
                            // No register to fence; `check_symbol_accesses`
                            // has shown it lies inside the variable.
                            new_body.push(Statement::Instr(ins));
                            continue;
                        }
                    };
                    let target = if offset != 0 {
                        // base+offset mode (§4.3): fold the offset into a
                        // temporary, fence the temporary.
                        new_body.push(Statement::Instr(Instruction::new(Op::Binary {
                            kind: BinKind::Add,
                            ty: Type::S64,
                            dst: r_tmp.clone(),
                            a: Operand::reg(&reg),
                            b: Operand::ImmInt(offset),
                        })));
                        info.added_instructions += 1;
                        *addr = Address::reg(&r_tmp);
                        r_tmp.clone()
                    } else {
                        reg
                    };
                    match mode {
                        Protection::FenceBitwise => {
                            // and.b64 t, t, mask ; or.b64 t, t, base
                            new_body.push(Statement::Instr(Instruction::new(Op::Binary {
                                kind: BinKind::And,
                                ty: Type::B64,
                                dst: target.clone(),
                                a: Operand::reg(&target),
                                b: Operand::reg(&r_bound),
                            })));
                            new_body.push(Statement::Instr(Instruction::new(Op::Binary {
                                kind: BinKind::Or,
                                ty: Type::B64,
                                dst: target.clone(),
                                a: Operand::reg(&target),
                                b: Operand::reg(&r_base),
                            })));
                            info.added_instructions += 2;
                        }
                        Protection::FenceModulo => {
                            // sub t, t, base ; rem t, t, size ; add t, t, base
                            new_body.push(Statement::Instr(Instruction::new(Op::Binary {
                                kind: BinKind::Sub,
                                ty: Type::U64,
                                dst: target.clone(),
                                a: Operand::reg(&target),
                                b: Operand::reg(&r_base),
                            })));
                            new_body.push(Statement::Instr(Instruction::new(Op::Binary {
                                kind: BinKind::Rem,
                                ty: Type::U64,
                                dst: target.clone(),
                                a: Operand::reg(&target),
                                b: Operand::reg(&r_bound),
                            })));
                            new_body.push(Statement::Instr(Instruction::new(Op::Binary {
                                kind: BinKind::Add,
                                ty: Type::U64,
                                dst: target.clone(),
                                a: Operand::reg(&target),
                                b: Operand::reg(&r_base),
                            })));
                            info.added_instructions += 3;
                        }
                        Protection::Check => {
                            // setp.lt p, t, base ; @p bra OOB
                            // setp.ge p, t, end  ; @p bra OOB
                            needs_oob_label = true;
                            new_body.push(Statement::Instr(Instruction::new(Op::Setp {
                                cmp: CmpOp::Lt,
                                ty: Type::U64,
                                dst: p_chk.clone(),
                                a: Operand::reg(&target),
                                b: Operand::reg(&r_base),
                            })));
                            new_body.push(Statement::Instr(Instruction::predicated(
                                &p_chk,
                                false,
                                Op::Bra {
                                    uni: false,
                                    target: OOB_LABEL.to_string(),
                                },
                            )));
                            new_body.push(Statement::Instr(Instruction::new(Op::Setp {
                                cmp: CmpOp::Ge,
                                ty: Type::U64,
                                dst: p_chk.clone(),
                                a: Operand::reg(&target),
                                b: Operand::reg(&r_bound),
                            })));
                            new_body.push(Statement::Instr(Instruction::predicated(
                                &p_chk,
                                false,
                                Op::Bra {
                                    uni: false,
                                    target: OOB_LABEL.to_string(),
                                },
                            )));
                            info.added_instructions += 4;
                        }
                        Protection::None => unreachable!("handled earlier"),
                    }
                    new_body.push(Statement::Instr(ins));
                    continue;
                }
                // Indirect branches: clamp the index into the table (§3).
                if let Op::BrxIdx { index, targets } = &mut ins.op {
                    info.indirect_branches += 1;
                    needs_idx_reg = true;
                    let n = targets.len() as i64;
                    new_body.push(Statement::Instr(Instruction::new(Op::Binary {
                        kind: BinKind::Min,
                        ty: Type::U32,
                        dst: r_idx.clone(),
                        a: Operand::reg(index.clone()),
                        b: Operand::ImmInt(n - 1),
                    })));
                    info.added_instructions += 1;
                    *index = r_idx.clone();
                    new_body.push(Statement::Instr(ins));
                    continue;
                }
                // Forward bounds to instrumented callees.
                if let Op::Call { args, .. } = &mut ins.op {
                    info.calls_forwarded += 1;
                    args.push(Operand::reg(&r_base));
                    args.push(Operand::reg(&r_bound));
                    new_body.push(Statement::Instr(ins));
                    continue;
                }
                new_body.push(Statement::Instr(ins));
            }
            other => new_body.push(other),
        }
    }

    if needs_idx_reg {
        new_body.insert(
            0,
            Statement::RegDecl {
                class: RegClass::B32,
                prefix: format!("{REG_PREFIX}idx"),
                count: 1,
            },
        );
    }
    if needs_oob_label {
        new_body.push(Statement::Label(OOB_LABEL.to_string()));
        new_body.push(Statement::Instr(Instruction::new(Op::Trap)));
        info.added_instructions += 1;
    }

    f.body = new_body;
    Ok(info)
}

/// Compute the bitwise-fencing mask for a partition (§4.3): for a
/// power-of-two `size`, the mask keeps the offset bits (`size - 1`).
///
/// # Panics
///
/// Panics if `size` is not a power of two (the bitwise mode's
/// precondition; use modulo fencing for arbitrary sizes).
pub fn fence_mask(size: u64) -> u64 {
    assert!(
        size.is_power_of_two(),
        "bitwise fencing requires power-of-two partitions"
    );
    size - 1
}

/// Apply the bitwise fence in host code (the same arithmetic the patched
/// PTX performs): `(addr & mask) | base`.
pub fn apply_fence(addr: u64, base: u64, mask: u64) -> u64 {
    (addr & mask) | base
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptx::parse;

    const KERNEL: &str = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry kernel(
    .param .u64 kernel_param_0,
    .param .u32 kernel_param_1)
{
    .reg .b32 %r<3>;
    .reg .b64 %rd<5>;
    ld.param.u64 %rd1, [kernel_param_0];
    ld.param.u32 %r1, [kernel_param_1];
    cvta.to.global.u64 %rd2, %rd1;
    mov.u32 %r2, %tid.x;
    mul.wide.s32 %rd3, %r1, 4;
    add.s64 %rd4, %rd2, %rd3;
    st.global.u32 [%rd4], %r2;
    ret;
}
"#;

    #[test]
    fn bitwise_mode_reproduces_listing1_shape() {
        let m = parse(KERNEL).unwrap();
        let patched = patch_module(&m, Protection::FenceBitwise).unwrap();
        let k = patched.module.function("kernel").unwrap();
        // Two extra parameters appended.
        assert_eq!(k.params.len(), 4);
        assert_eq!(k.params[2].name, PARAM_A);
        assert_eq!(k.params[3].name, PARAM_B);
        // The store is now preceded by and.b64 + or.b64 on its address reg.
        let text = patched.module.to_string();
        assert!(text.contains("and.b64 %rd4, %rd4, %grd1"));
        assert!(text.contains("or.b64 %rd4, %rd4, %grd0"));
        // Exactly 2 bitwise instructions + 2 param loads added.
        assert_eq!(patched.info[0].added_instructions, 4);
        assert_eq!(patched.info[0].stores, 1);
        assert_eq!(patched.info[0].loads, 0);
        // The patched module re-parses and validates.
        let re = parse(&text).unwrap();
        ptx::validate(&re).unwrap();
    }

    #[test]
    fn offset_mode_uses_temporary_register() {
        let src = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry k(.param .u64 p)
{
    .reg .b64 %rd<2>;
    .reg .f32 %f<2>;
    ld.param.u64 %rd1, [p];
    ld.global.f32 %f1, [%rd1+16];
    st.global.f32 [%rd1+32], %f1;
    ret;
}
"#;
        let m = parse(src).unwrap();
        let patched = patch_module(&m, Protection::FenceBitwise).unwrap();
        let text = patched.module.to_string();
        // add into %grd2 then fence %grd2; the access reads [%grd2].
        assert!(text.contains("add.s64 %grd2, %rd1, 16"));
        assert!(text.contains("ld.global.f32 %f1, [%grd2]"));
        assert!(text.contains("st.global.f32 [%grd2]"));
        // Per access: add + and + or = 3; two accesses + 2 param loads = 8.
        assert_eq!(patched.info[0].added_instructions, 8);
    }

    #[test]
    fn modulo_mode_emits_sub_rem_add() {
        let m = parse(KERNEL).unwrap();
        let patched = patch_module(&m, Protection::FenceModulo).unwrap();
        let text = patched.module.to_string();
        assert!(text.contains("sub.u64 %rd4, %rd4, %grd0"));
        assert!(text.contains("rem.u64 %rd4, %rd4, %grd1"));
        assert!(text.contains("add.u64 %rd4, %rd4, %grd0"));
        assert_eq!(patched.info[0].added_instructions, 5);
    }

    #[test]
    fn check_mode_emits_guarded_traps() {
        let m = parse(KERNEL).unwrap();
        let patched = patch_module(&m, Protection::Check).unwrap();
        let text = patched.module.to_string();
        assert!(text.contains("setp.lt.u64 %grdp0, %rd4, %grd0"));
        assert!(text.contains("setp.ge.u64 %grdp0, %rd4, %grd1"));
        assert!(text.contains("@%grdp0 bra $GRD_OOB"));
        assert!(text.contains("$GRD_OOB:"));
        assert!(text.contains("trap;"));
        // 4 check instructions + trap + 2 param loads.
        assert_eq!(patched.info[0].added_instructions, 7);
        ptx::validate(&patched.module).unwrap();
    }

    #[test]
    fn none_mode_is_identity() {
        let m = parse(KERNEL).unwrap();
        let patched = patch_module(&m, Protection::None).unwrap();
        assert_eq!(patched.module, m);
        assert_eq!(patched.info[0].added_instructions, 0);
    }

    #[test]
    fn shared_and_param_accesses_are_untouched() {
        let src = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry s(.param .u64 p)
{
    .shared .align 4 .f32 tile[32];
    .reg .b64 %rd<3>;
    .reg .f32 %f<2>;
    ld.param.u64 %rd1, [p];
    mov.u64 %rd2, tile;
    ld.shared.f32 %f1, [%rd2];
    st.shared.f32 [%rd2+4], %f1;
    ret;
}
"#;
        let m = parse(src).unwrap();
        let patched = patch_module(&m, Protection::FenceBitwise).unwrap();
        assert_eq!(patched.info[0].loads, 0);
        assert_eq!(patched.info[0].stores, 0);
        // Only the two bound param loads were added.
        assert_eq!(patched.info[0].added_instructions, 2);
    }

    #[test]
    fn brx_idx_gets_clamped() {
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
        let m = parse(src).unwrap();
        let patched = patch_module(&m, Protection::FenceBitwise).unwrap();
        let text = patched.module.to_string();
        assert!(text.contains("min.u32 %grdidx0, %r1, 1"));
        assert!(text.contains("brx.idx %grdidx0"));
        assert_eq!(patched.info[0].indirect_branches, 1);
    }

    #[test]
    fn calls_forward_bounds_and_funcs_are_patched() {
        let src = r#"
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
        let m = parse(src).unwrap();
        let patched = patch_module(&m, Protection::FenceBitwise).unwrap();
        let writer = patched.module.function("writer").unwrap();
        assert_eq!(writer.params.len(), 3); // dst + base + bound
        let text = patched.module.to_string();
        assert!(text.contains("call writer, (%rd1, %grd0, %grd1)"));
        let caller_info = patched.info.iter().find(|i| i.name == "caller").unwrap();
        assert_eq!(caller_info.calls_forwarded, 1);
        let writer_info = patched.info.iter().find(|i| i.name == "writer").unwrap();
        assert_eq!(writer_info.stores, 1);
    }

    #[test]
    fn reserved_names_are_rejected() {
        let src = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry k(.param .u64 grd_param_base) { ret; }
"#;
        let m = parse(src).unwrap();
        assert!(matches!(
            patch_module(&m, Protection::FenceBitwise),
            Err(PatchError::ReservedName(_))
        ));
    }

    #[test]
    fn patching_is_idempotent_per_access_count() {
        // Patching an already-patched module is rejected (reserved names),
        // preventing double instrumentation.
        let m = parse(KERNEL).unwrap();
        let once = patch_module(&m, Protection::FenceBitwise).unwrap();
        assert!(patch_module(&once.module, Protection::FenceBitwise).is_err());
    }

    #[test]
    fn mask_arithmetic_matches_paper_example() {
        // §4.3: base 0x7fa2d0000000, size 16 MB -> mask 0x000000FFFFFF.
        let size = 16 * 1024 * 1024u64;
        let mask = fence_mask(size);
        assert_eq!(mask, 0xFF_FFFF);
        let base = 0x7fa2_d000_0000u64;
        // In-partition addresses are unchanged.
        let a = base + 0x1234;
        assert_eq!(apply_fence(a, base, mask), a);
        // The paper's Figure 4: an address in partition 1 wraps into
        // partition 2 (the offender's own partition).
        let foreign = 0x7fa1_d000_0042u64;
        let fenced = apply_fence(foreign, base, mask);
        assert!(fenced >= base && fenced < base + size);
        assert_eq!(fenced, base + 0x42);
    }

    #[test]
    fn fence_mask_rejects_non_power_of_two() {
        let r = std::panic::catch_unwind(|| fence_mask(3 * 1024 * 1024));
        assert!(r.is_err());
    }
}
