//! Seeded generator of adversarial kernels.
//!
//! The differential tests of the patcher and the simulator all draw their
//! programs from here: [`kernel`] builds, from a seed alone, one module
//! whose entry point aims loads, stores and atomics at whatever the harness
//! passes as parameters — its own buffer, the edges of its partition, a
//! neighbour's memory — through every addressing form the subset has.
//! A [`Temper::Tame`] kernel stays inside its buffer and its state spaces,
//! so protected and unprotected runs must agree bit for bit; a
//! [`Temper::Hostile`] one does not try to.
//!
//! A failure is replayed from its seed; nothing here reads a clock or the
//! environment.

use crate::ast::*;
use crate::builder::{KernelBuilder, ModuleBuilder};
use crate::types::*;

/// SplitMix64: small, seedable, and good enough to pick instructions.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole stream is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True `num` times out of `den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// One element of a non-empty slice.
    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// Whether a generated kernel keeps to its own memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Temper {
    /// Every access is aligned, inside `buf` (or inside the kernel's own
    /// `.shared`/`.local` arrays) and made through a matching state space;
    /// every `brx.idx` index is inside its table.
    Tame,
    /// Anything goes.
    Hostile,
}

/// Name of the generated entry point.
pub const ENTRY: &str = "fuzz";

/// The entry point's parameters, in order. The first four are `.u64`
/// addresses — the kernel's own buffer of [`BUF_BYTES`], the first byte of
/// its partition, the first byte after it, and some address a neighbour
/// owns — and `sel` is a `.u32` the kernel branches and predicates on.
pub const PARAMS: [&str; 5] = ["buf", "lo", "edge", "foe", "sel"];

/// Bytes at `buf` a tame kernel may touch: 256 of data, then 64 eight-byte
/// slots the kernel reports what it loaded in, then its running checksum.
pub const BUF_BYTES: u64 = DATA_BYTES + 8 * SLOTS + 8;

const DATA_BYTES: u64 = 256;
const SLOTS: u64 = 64;
/// Bytes of the `.shared` and of the `.local` array.
const SCRATCH_BYTES: u64 = 128;
const HELPER: &str = "fuzz_wr";

/// The address a generated access starts from, before any `[reg+imm]`.
#[derive(Clone, Copy)]
enum Aim {
    Own,
    /// The kernel's own `.shared` or `.local` array.
    Scratch,
    Edge,
    Lo,
    Foe,
    Wild,
}

struct Gen {
    k: KernelBuilder,
    rng: Rng,
    temper: Temper,
    buf: String,
    lo: String,
    edge: String,
    foe: String,
    sel: String,
    tile: String,
    scr: String,
    /// `(sel & 2) != 0`.
    p: String,
    /// `(sel & 1) != 0`.
    q: String,
    /// Running `.u64` checksum, stored last.
    v: String,
    slot: u64,
}

/// Build the module for `seed`: the [`ENTRY`] kernel and the `.func` it may
/// call with a pointer.
pub fn kernel(seed: u64, temper: Temper) -> Module {
    let mut k = KernelBuilder::entry(ENTRY);
    for name in &PARAMS[..4] {
        k.param(Type::U64, *name);
    }
    k.param(Type::U32, PARAMS[4]);
    let tile_sym = k.shared_array("tile", Type::U64, SCRATCH_BYTES / 8);
    let scr_sym = k.local_array("scr", Type::U64, SCRATCH_BYTES / 8);
    let [buf, lo, edge, foe] = [0, 1, 2, 3].map(|i| k.ld_param(Type::U64, PARAMS[i]));
    let sel = k.ld_param(Type::U32, PARAMS[4]);
    let [tile, scr] = [tile_sym, scr_sym].map(|var| {
        let r = k.reg(Type::U64);
        k.emit(Op::MovAddr {
            ty: Type::U64,
            dst: r.clone(),
            var,
        });
        r
    });
    let [p, q] = [2, 1].map(|mask| {
        let bit = k.binary_imm(BinKind::And, Type::B32, &sel, mask);
        k.setp(CmpOp::Ne, Type::U32, &bit, Operand::ImmInt(0))
    });
    let mut rng = Rng::new(seed);
    let v = k.mov(Type::U64, Operand::ImmInt(rng.next_u64() as i64));

    let mut g = Gen {
        k,
        rng,
        temper,
        buf,
        lo,
        edge,
        foe,
        sel,
        tile,
        scr,
        p,
        q,
        v,
        slot: 0,
    };
    for _ in 0..1 + g.rng.below(10) {
        match g.rng.below(10) {
            0..=3 => g.access(),
            4 => g.call_helper(),
            5 => g.indirect_branch(),
            6 | 7 => g.fence_lookalike(),
            8 => g.counted_loop(),
            _ => g.reload_params(),
        }
        g.stir();
    }
    let out = g.k.binary_imm(
        BinKind::Add,
        Type::S64,
        &g.buf,
        (DATA_BYTES + 8 * SLOTS) as i64,
    );
    g.k.emit(Op::St {
        space: Space::Global,
        ty: Type::U64,
        addr: Address::reg(out),
        src: Operand::reg(&g.v),
    });
    g.k.ret();
    ModuleBuilder::new().push(helper()).push(g.k).build()
}

/// `.func fuzz_wr(dst, val)`: one `.global` and one generic store through a
/// forwarded pointer.
fn helper() -> KernelBuilder {
    let mut f = KernelBuilder::func(HELPER);
    f.param(Type::U64, "dst");
    f.param(Type::U32, "val");
    let dst = f.ld_param(Type::U64, "dst");
    let val = f.ld_param(Type::U32, "val");
    f.emit(Op::St {
        space: Space::Global,
        ty: Type::U32,
        addr: Address::reg(&dst),
        src: Operand::reg(&val),
    });
    f.emit(Op::St {
        space: Space::Generic,
        ty: Type::U32,
        addr: Address::reg_off(&dst, 4),
        src: Operand::reg(&val),
    });
    f.ret();
    f
}

impl Gen {
    fn hostile(&self) -> bool {
        self.temper == Temper::Hostile
    }

    fn add_imm(&mut self, base: &str, imm: i64) -> String {
        self.k.binary_imm(BinKind::Add, Type::S64, base, imm)
    }

    /// Fold a register into the checksum so every path taken shows in it.
    fn stir(&mut self) {
        let mul = self.rng.next_u64() | 1;
        let scaled = self
            .k
            .binary_imm(BinKind::MulLo, Type::U64, &self.v, mul as i64);
        self.v = self
            .k
            .binary_imm(BinKind::Xor, Type::B64, &scaled, self.slot as i64 + 1);
    }

    /// A register holding an address `width` bytes can be aimed at, and the
    /// state space that address belongs to.
    fn aim(&mut self, width: u64) -> (String, Space) {
        let aims: &[Aim] = if self.hostile() {
            &[
                Aim::Own,
                Aim::Own,
                Aim::Scratch,
                Aim::Scratch,
                Aim::Edge,
                Aim::Edge,
                Aim::Lo,
                Aim::Foe,
                Aim::Foe,
                Aim::Wild,
            ]
        } else {
            &[Aim::Own, Aim::Scratch]
        };
        let w = width as i64;
        match self.rng.pick(aims) {
            Aim::Own => {
                let at = self.rng.below(DATA_BYTES / width) as i64 * w;
                (self.add_imm(&self.buf.clone(), at), Space::Global)
            }
            Aim::Scratch => {
                let (base, space) = if self.rng.chance(1, 2) {
                    (self.tile.clone(), Space::Shared)
                } else {
                    (self.scr.clone(), Space::Local)
                };
                // A hostile kernel also runs off the end of the array.
                let span = if self.hostile() { 2 } else { 1 } * SCRATCH_BYTES;
                let at = self.rng.below(span / width) as i64 * w;
                (self.add_imm(&base, at), space)
            }
            Aim::Edge => {
                let delta = self.rng.pick(&[-w, 1 - w, -1, 0, 1, w]);
                (self.add_imm(&self.edge.clone(), delta), Space::Global)
            }
            Aim::Lo => {
                let delta = self.rng.pick(&[-w, -1, 0, 1]);
                (self.add_imm(&self.lo.clone(), delta), Space::Global)
            }
            Aim::Foe => {
                let at = self.rng.below(8) as i64 * w + self.rng.pick(&[0, 0, 0, 1]);
                (self.add_imm(&self.foe.clone(), at), Space::Global)
            }
            Aim::Wild => {
                let anywhere = self.rng.next_u64() as i64;
                let bits = self.rng.pick(&[
                    0,
                    8,
                    -8,
                    0x5000_0000_0000,
                    0x6000_0000_0000,
                    0x6FFF_FFFF_FFF8,
                    0x7000_0000_0000,
                    anywhere,
                ]);
                (self.k.mov(Type::U64, Operand::ImmInt(bits)), Space::Global)
            }
        }
    }

    /// `[reg]`, or `[reg+imm]` reaching the same byte, or — hostile only —
    /// `[reg+imm]` reaching wherever a wild immediate leads.
    fn address(&mut self, at: &str, width: u64) -> Address {
        let w = width as i64;
        match self.rng.below(if self.hostile() { 4 } else { 3 }) {
            0 => Address::reg(at),
            1 | 2 => {
                let imm = self
                    .rng
                    .pick(&[w, -w, 16, -8, 1 << 40, -(1 << 40), i64::MAX]);
                let base = self.add_imm(at, imm.wrapping_neg());
                Address::reg_off(base, imm)
            }
            _ => {
                let imm = self
                    .rng
                    .pick(&[1, -1, w, -w, 0x4000, -0x4000, 1 << 40, -i64::MAX]);
                Address::reg_off(at, imm)
            }
        }
    }

    fn emit_maybe_predicated(&mut self, op: Op) {
        if self.rng.chance(1, 4) {
            let negated = self.rng.chance(1, 2);
            self.k.emit_pred(&self.p.clone(), negated, op);
        } else {
            self.k.emit(op);
        }
    }

    /// Report a loaded value in the next output slot.
    fn report(&mut self, ty: Type, value: &str) {
        let at = (DATA_BYTES + 8 * (self.slot % SLOTS)) as i64;
        self.slot += 1;
        let out = self.add_imm(&self.buf.clone(), at);
        self.k.emit(Op::St {
            space: Space::Global,
            ty,
            addr: Address::reg(out),
            src: Operand::reg(value),
        });
    }

    /// One load, store or atomic.
    fn access(&mut self) {
        let kind = self.rng.below(3);
        // There is no 8-bit register class: a byte travels in 16 bits, and
        // only loads and stores come that narrow.
        let ty = self
            .rng
            .pick(&[Type::U8, Type::U16, Type::U32, Type::U64, Type::U64]);
        let ty = if kind == 2 && ty == Type::U8 {
            Type::U16
        } else {
            ty
        };
        let width = ty.size() as u64;
        let (at, home) = self.aim(width);
        let space = if self.hostile() {
            self.rng.pick(&[
                Space::Global,
                Space::Generic,
                Space::Generic,
                Space::Shared,
                Space::Local,
                home,
            ])
        } else if home == Space::Global && self.rng.chance(1, 2) {
            // The patcher fences every generic access into the partition,
            // so a tame kernel reaches only global memory that way.
            Space::Generic
        } else {
            home
        };
        let addr = self.address(&at, width);
        match kind {
            0 => {
                let dst = self.k.reg(ty);
                self.emit_maybe_predicated(Op::Ld {
                    space,
                    ty,
                    dst: dst.clone(),
                    addr,
                });
                self.report(ty, &dst);
            }
            1 => {
                let bits = self.rng.next_u64() & (u64::MAX >> (64 - 8 * width));
                let reg_ty = if ty == Type::U8 { Type::U16 } else { ty };
                let src = self.k.mov(reg_ty, Operand::ImmInt(bits as i64));
                self.emit_maybe_predicated(Op::St {
                    space,
                    ty,
                    addr,
                    src: Operand::reg(src),
                });
            }
            _ => {
                let src = self
                    .k
                    .mov(ty, Operand::ImmInt(1 + self.rng.below(9) as i64));
                let dst = self.k.reg(ty);
                self.emit_maybe_predicated(Op::Atom {
                    op: AtomKind::Add,
                    space,
                    ty,
                    dst: dst.clone(),
                    addr,
                    src: Operand::reg(src),
                    cmp: None,
                });
                self.report(ty, &dst);
            }
        }
    }

    /// `call fuzz_wr, (ptr, val)`: the pointer crosses a call boundary.
    fn call_helper(&mut self) {
        let (at, home) = self.aim(8);
        // The helper stores `.global`; only a hostile kernel hands it
        // anything else.
        let ptr = if home == Space::Global || self.hostile() {
            at
        } else {
            self.buf.clone()
        };
        let val = self.k.imm_u32(self.rng.next_u64() as u32);
        self.k.emit(Op::Call {
            ret: None,
            func: HELPER.to_string(),
            args: vec![Operand::reg(ptr), Operand::reg(val)],
        });
    }

    /// `brx.idx` over three targets; a hostile index may miss the table.
    fn indirect_branch(&mut self) {
        let index = if self.hostile() {
            let skew = self.rng.below(4) as i64;
            self.k.binary_imm(BinKind::Add, Type::U32, &self.sel, skew)
        } else {
            self.k.binary_imm(BinKind::And, Type::B32, &self.sel, 1)
        };
        let targets: Vec<String> = (0..3).map(|_| self.k.fresh_label("case")).collect();
        let join = self.k.fresh_label("join");
        self.k.emit(Op::BrxIdx {
            index,
            targets: targets.clone(),
        });
        for (i, target) in targets.into_iter().enumerate() {
            self.k.label(target);
            self.k.emit(Op::Binary {
                kind: BinKind::Add,
                ty: Type::U64,
                dst: self.v.clone(),
                a: Operand::reg(&self.v),
                b: Operand::ImmInt(0x101 * (i as i64 + 1)),
            });
            self.k.emit(Op::Bra {
                uni: true,
                target: join.clone(),
            });
        }
        self.k.label(join);
    }

    /// Sequences shaped like the patcher's own — and near misses of them —
    /// written by the kernel itself on a register of its own, some with a
    /// branch landing in their middle. What they compute is reported, and a
    /// hostile kernel then stores through it.
    fn fence_lookalike(&mut self) {
        let x = self.k.mov(Type::U64, Operand::reg(&self.foe));
        let bound = self.k.mov(
            Type::U64,
            Operand::ImmInt(self.rng.pick(&[0, 0xFF8, -1, 24])),
        );
        let base = self.rng.pick(&[&self.buf, &self.foe, &self.lo]).clone();
        let in_place = |kind, ty, b: &str| Op::Binary {
            kind,
            ty,
            dst: x.clone(),
            a: Operand::reg(&x),
            b: Operand::reg(b),
        };
        let mut seq = if self.rng.chance(1, 2) {
            vec![
                in_place(BinKind::And, Type::B64, &bound),
                in_place(BinKind::Or, Type::B64, &base),
            ]
        } else {
            vec![
                in_place(BinKind::Sub, Type::U64, &base),
                in_place(BinKind::Rem, Type::U64, &bound),
                in_place(BinKind::Add, Type::U64, &base),
            ]
        };
        let lead = self.rng.chance(1, 2);
        if lead {
            // The `add` that folds a constant offset.
            seq.insert(
                0,
                Op::Binary {
                    kind: BinKind::Add,
                    ty: Type::S64,
                    dst: x.clone(),
                    a: Operand::reg(self.rng.pick(&[&x, &self.edge])),
                    b: Operand::ImmInt(self.rng.pick(&[16, -8, 1 << 40])),
                },
            );
        }
        // Spoil the shape, about half the time, in one of the ways fusion
        // must notice: an operand that is the register being rewritten, a
        // source or a destination that is some other register, a narrower
        // type, a different bound, a predicate.
        let other = self.k.mov(Type::U64, Operand::ImmInt(0x1234_5678));
        let spoiled = self.rng.below(seq.len() as u64) as usize;
        let mut predicated = None;
        if let Op::Binary { ty, dst, a, b, .. } = &mut seq[spoiled] {
            match self.rng.below(12) {
                0 if !(lead && spoiled == 0) => *b = Operand::reg(&x),
                1 => *a = Operand::reg(&other),
                2 => *ty = Type::B32,
                3 => *dst = other.clone(),
                4 => (*dst, *a) = (other.clone(), Operand::reg(&other)),
                5 if !(lead && spoiled == 0) => *b = Operand::reg(&other),
                6 => predicated = Some(spoiled),
                _ => {}
            }
        }
        let land_at = self.rng.below(seq.len() as u64 + 1) as usize;
        let landing = self.k.fresh_label("mid");
        self.k.emit_pred(
            &self.q.clone(),
            false,
            Op::Bra {
                uni: false,
                target: landing.clone(),
            },
        );
        let len = seq.len();
        for (i, op) in seq.into_iter().enumerate() {
            if i == land_at {
                self.k.label(landing.clone());
            }
            if predicated == Some(i) {
                let negated = self.rng.chance(1, 2);
                self.k.emit_pred(&self.p.clone(), negated, op);
            } else {
                self.k.emit(op);
            }
        }
        if land_at == len {
            self.k.label(landing);
        }
        self.report(Type::U64, &x);
        if self.hostile() {
            let src = self.k.imm_u32(0xBAD);
            let space = self.rng.pick(&[Space::Global, Space::Generic]);
            self.emit_maybe_predicated(Op::St {
                space,
                ty: Type::U32,
                addr: Address::reg(&x),
                src: Operand::reg(src),
            });
        }
    }

    /// A short counted loop around an access to `buf[i]`.
    fn counted_loop(&mut self) {
        let i = self.k.imm_u32(0);
        let top = self.k.fresh_label("top");
        let done = self.k.fresh_label("done");
        let trips = 1 + self.rng.below(3) as i64;
        self.k.label(top.clone());
        let p = self
            .k
            .setp(CmpOp::Ge, Type::U32, &i, Operand::ImmInt(trips));
        self.k.emit_pred(
            &p,
            false,
            Op::Bra {
                uni: false,
                target: done.clone(),
            },
        );
        let at = self.k.elem_addr(&self.buf.clone(), &i, Type::U64);
        let old = self.k.reg(Type::U64);
        self.k.emit(Op::Atom {
            op: AtomKind::Add,
            space: Space::Global,
            ty: Type::U64,
            dst: old,
            addr: Address::reg_off(at, 8),
            src: Operand::reg(&self.v),
            cmp: None,
        });
        self.k.emit(Op::Binary {
            kind: BinKind::Add,
            ty: Type::U32,
            dst: i.clone(),
            a: Operand::reg(&i),
            b: Operand::ImmInt(1),
        });
        self.k.emit(Op::Bra {
            uni: true,
            target: top,
        });
        self.k.label(done);
    }

    /// `ld.param`s in mid-code: a run, or a run broken by a predicate.
    fn reload_params(&mut self) {
        self.buf = self.k.ld_param(Type::U64, PARAMS[0]);
        if self.rng.chance(1, 2) {
            let sel = self.k.reg(Type::U32);
            self.k.emit_pred(
                &self.p.clone(),
                false,
                Op::Ld {
                    space: Space::Param,
                    ty: Type::U32,
                    dst: sel.clone(),
                    addr: Address::var(PARAMS[4]),
                },
            );
            self.report(Type::U32, &sel);
        }
        self.edge = self.k.ld_param(Type::U64, PARAMS[2]);
        self.foe = self.k.ld_param(Type::U64, PARAMS[3]);
    }
}
