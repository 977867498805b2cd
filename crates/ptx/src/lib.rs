//! # ptx — PTX virtual ISA tooling
//!
//! Parser, AST, printer, analyses, and a fatbin container for the subset of
//! NVIDIA's Parallel Thread eXecution (PTX) virtual assembly used throughout
//! the Guardian reproduction.
//!
//! PTX is the level at which Guardian instruments GPU kernels: it is
//! embedded even in closed-source CUDA libraries for forward compatibility
//! (paper §2.3), it is fully documented, and every load/store is visible in
//! it (paper §3). This crate provides:
//!
//! * [`parse`] / [`Module`]'s `Display` — text ↔ AST, round-trip stable;
//! * [`validate()`] — the `ptxas`-style semantic checks that make *direct*
//!   branches safe in the threat model;
//! * [`cfg::Cfg`] and [`liveness::Liveness`] — register-pressure analysis
//!   backing the paper's §7.3 register-usage experiment;
//! * [`builder::KernelBuilder`] — the code generator the mini accelerated
//!   libraries use to ship kernels as PTX;
//! * [`fatbin::FatBin`] / [`fatbin::extract_ptx`] — the fatBIN container
//!   and the `cuobjdump --dump-ptx` analogue used by the offline patcher.
//!
//! # Examples
//!
//! Parse a Listing-1 style kernel and inspect its loads/stores:
//!
//! ```
//! let src = r#"
//! .version 7.7
//! .target sm_86
//! .address_size 64
//! .visible .entry kernel(.param .u64 out, .param .u32 v)
//! {
//!     .reg .b32 %r<3>;
//!     .reg .b64 %rd<3>;
//!     ld.param.u64 %rd1, [out];
//!     ld.param.u32 %r1, [v];
//!     cvta.to.global.u64 %rd2, %rd1;
//!     st.global.u32 [%rd2], %r1;
//!     ret;
//! }
//! "#;
//! let module = ptx::parse(src)?;
//! ptx::validate(&module)?;
//! let kernel = module.function("kernel").unwrap();
//! let protected = kernel
//!     .instructions()
//!     .filter(|(_, i)| i.op.is_protected_access())
//!     .count();
//! assert_eq!(protected, 1); // only the global store needs fencing
//! # Ok::<(), ptx::PtxError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod builder;
pub mod cfg;
pub mod error;
pub mod fatbin;
pub mod fuzz;
pub mod lexer;
pub mod liveness;
pub mod parser;
pub mod printer;
pub mod types;
pub mod validate;

pub use ast::{
    AddrBase, Address, Function, FunctionKind, GlobalVar, Instruction, Module, Op, Operand, Param,
    Predicate, Statement,
};
pub use error::{PtxError, Result};
pub use parser::parse;
pub use validate::validate;

#[cfg(test)]
mod proptests {
    use crate::ast::*;
    use crate::builder::{KernelBuilder, ModuleBuilder};
    use crate::types::*;
    use proptest::prelude::*;

    /// Generate a random but well-formed straight-line kernel using the
    /// builder, then check print -> parse round-trip equality.
    fn arb_kernel() -> impl Strategy<Value = Module> {
        let step = prop_oneof![
            Just(0u8),
            Just(1),
            Just(2),
            Just(3),
            Just(4),
            Just(5),
            Just(6)
        ];
        (proptest::collection::vec((step, any::<i32>()), 1..40)).prop_map(|steps| {
            let mut k = KernelBuilder::entry("prop_kernel");
            let p = k.param(Type::U64, "buf");
            let n = k.param(Type::U32, "n");
            let bp = k.ld_param(Type::U64, &p);
            let g = k.cvta_global(&bp);
            let nv = k.ld_param(Type::U32, &n);
            let mut cur32 = k.imm_u32(1);
            let mut curf = k.imm_f32(1.5);
            for (s, imm) in steps {
                match s {
                    0 => cur32 = k.binary_imm(BinKind::Add, Type::U32, &cur32, imm as i64),
                    1 => cur32 = k.binary_imm(BinKind::And, Type::B32, &cur32, imm as i64),
                    2 => curf = k.unary(UnaryKind::Neg, Type::F32, &curf),
                    3 => {
                        let tmp = k.imm_f32(imm as f32);
                        curf = k.binary(BinKind::Add, Type::F32, &curf, &tmp);
                    }
                    4 => {
                        let idx = k.binary(BinKind::Rem, Type::U32, &cur32, &nv);
                        let v = k.load_elem(&g, &idx, Type::F32);
                        curf = k.binary(BinKind::MulLo, Type::F32, &curf, &v);
                    }
                    5 => {
                        let idx = k.binary(BinKind::Rem, Type::U32, &cur32, &nv);
                        k.store_elem(&g, &idx, Type::F32, &curf);
                    }
                    _ => {
                        cur32 = k.binary_imm(BinKind::Shl, Type::B32, &cur32, (imm & 7) as i64);
                    }
                }
            }
            k.ret();
            ModuleBuilder::new().push(k).build()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn print_parse_round_trip(m in arb_kernel()) {
            let text = m.to_string();
            let back = crate::parse(&text).expect("printed module must parse");
            prop_assert_eq!(m, back);
        }

        #[test]
        fn built_kernels_validate(m in arb_kernel()) {
            crate::validate(&m).expect("builder output must validate");
        }

        #[test]
        fn float_immediates_round_trip_bit_exact(bits in any::<u32>()) {
            let v = f32::from_bits(bits) as f64;
            prop_assume!(!v.is_nan());
            let op = Op::Mov { ty: Type::F32, dst: "%f1".into(), src: Operand::ImmFloat(v) };
            let m = module_with(op);
            let text = m.to_string();
            let back = crate::parse(&text).unwrap();
            prop_assert_eq!(m, back);
        }

        #[test]
        fn int_immediates_round_trip(v in any::<i64>()) {
            let op = Op::Mov { ty: Type::U64, dst: "%rd1".into(), src: Operand::ImmInt(v) };
            let m = module_with(op);
            let text = m.to_string();
            let back = crate::parse(&text).unwrap();
            prop_assert_eq!(m, back);
        }
    }

    fn module_with(op: Op) -> Module {
        let mut m = Module::new();
        m.functions.push(Function {
            kind: FunctionKind::Entry,
            visible: true,
            name: "t".into(),
            params: vec![],
            body: vec![
                Statement::RegDecl {
                    class: RegClass::B32,
                    prefix: "%f".into(),
                    count: 2,
                },
                Statement::RegDecl {
                    class: RegClass::B64,
                    prefix: "%rd".into(),
                    count: 2,
                },
                Statement::Instr(Instruction::new(op)),
                Statement::Instr(Instruction::new(Op::Ret)),
            ],
        });
        m
    }
}
