//! Instructions: an opcode plus destination, register sources, and
//! immediate/memory metadata.

use crate::opcode::Op;
use crate::program::RegionId;
use crate::reg::{Reg, RegClass};
use std::fmt;

/// Compile-time cache-behaviour knowledge attached to a load by locality
/// analysis (paper §3.3). `Unknown` loads are balanced-scheduled; `Hit`
/// loads keep the optimistic latency and *donate* their issue slot as
/// latency-hiding parallelism for other loads; `Miss` loads are
/// balanced-scheduled and anchor the miss→hit ordering arcs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum LocalityHint {
    /// No reuse information (the default for every instruction).
    #[default]
    Unknown,
    /// Locality analysis proved this reference hits in the cache.
    Hit,
    /// Locality analysis expects this reference to miss (first touch of a
    /// cache line or first iteration of a temporal-reuse loop).
    Miss,
}

/// Memory metadata carried by loads and stores, used by the code DAG's
/// dependence disambiguation and by locality analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// The program region (array) this access is known to touch, if the
    /// frontend could prove one. Accesses to *different* regions never
    /// alias; this models the Multiflow compiler's array dependence
    /// analysis (paper §5.5).
    pub region: Option<RegionId>,
    /// Cache-line reuse group assigned by locality analysis: within a
    /// scheduling region, the `Miss`-marked load of a group must stay ahead
    /// of the `Hit`-marked loads of the same group ("dependence arcs were
    /// added in the code DAG between each miss load and its corresponding
    /// hit loads", paper §4.2).
    pub line_group: Option<u32>,
}

/// Maximum number of register sources any opcode takes.
const MAX_SRCS: usize = 3;

/// A single IR instruction.
///
/// Sources are registers; integer ALU binary operations, shifts, loads and
/// stores may carry an immediate ([`Inst::imm`]): for ALU ops it replaces
/// the second register source, for memory ops it is the Alpha-style
/// displacement off the base register.
///
/// Equality is field by field, with the float immediate compared by bit
/// pattern: `fli 0.0` and `fli -0.0` load different values.
#[derive(Clone)]
pub struct Inst {
    /// The opcode.
    pub op: Op,
    /// Destination register, if the opcode defines one (stores do not).
    pub dst: Option<Reg>,
    srcs: [Reg; MAX_SRCS],
    nsrcs: u8,
    /// Immediate operand (ALU second operand / load-store displacement /
    /// [`Op::Li`] value).
    pub imm: Option<i64>,
    /// Floating-point immediate for [`Op::FLi`].
    pub fimm: f64,
    /// Memory metadata (present exactly on loads, stores and
    /// [`Op::LdAddr`]).
    pub mem: Option<MemAccess>,
    /// Locality-analysis cache hint (loads only).
    pub hint: LocalityHint,
    /// `true` for spill/restore instructions inserted by the register
    /// allocator; these are counted separately (paper §4.3).
    pub spill: bool,
}

impl Inst {
    fn raw(op: Op, dst: Option<Reg>, srcs: &[Reg]) -> Self {
        assert!(srcs.len() <= MAX_SRCS, "too many sources");
        let mut s = [Reg::phys(RegClass::Int, 0); MAX_SRCS];
        s[..srcs.len()].copy_from_slice(srcs);
        Inst {
            op,
            dst,
            srcs: s,
            nsrcs: srcs.len() as u8,
            imm: None,
            fimm: 0.0,
            mem: None,
            hint: LocalityHint::Unknown,
            spill: false,
        }
    }

    /// Builds a register-register operation (unary or binary ALU/FP op).
    ///
    /// # Panics
    ///
    /// Panics if the source count does not match [`Op::num_srcs`] or the
    /// opcode is a memory/immediate opcode.
    #[must_use]
    pub fn op(op: Op, dst: Reg, srcs: &[Reg]) -> Self {
        assert!(
            !op.is_memory(),
            "use Inst::load / Inst::store for memory ops"
        );
        assert!(
            !matches!(op, Op::Li | Op::FLi | Op::LdAddr),
            "use the dedicated immediate constructors"
        );
        assert_eq!(srcs.len(), op.num_srcs(), "wrong source count for {op}");
        Inst::raw(op, Some(dst), srcs)
    }

    /// Builds a binary operation whose second operand is an immediate.
    ///
    /// # Panics
    ///
    /// Panics unless the opcode is a two-source integer ALU op or multiply.
    #[must_use]
    pub fn op_imm(op: Op, dst: Reg, a: Reg, imm: i64) -> Self {
        assert!(
            matches!(
                op,
                Op::Add
                    | Op::Sub
                    | Op::And
                    | Op::Or
                    | Op::Xor
                    | Op::Shl
                    | Op::Shr
                    | Op::CmpEq
                    | Op::CmpLt
                    | Op::CmpLe
                    | Op::Mul
            ),
            "{op} cannot take an immediate"
        );
        let mut i = Inst::raw(op, Some(dst), &[a]);
        i.imm = Some(imm);
        i
    }

    /// Builds `dst = imm`.
    #[must_use]
    pub fn li(dst: Reg, imm: i64) -> Self {
        assert_eq!(dst.class(), RegClass::Int);
        let mut i = Inst::raw(Op::Li, Some(dst), &[]);
        i.imm = Some(imm);
        i
    }

    /// Builds `dst = fimm`.
    #[must_use]
    pub fn fli(dst: Reg, fimm: f64) -> Self {
        assert_eq!(dst.class(), RegClass::Float);
        let mut i = Inst::raw(Op::FLi, Some(dst), &[]);
        i.fimm = fimm;
        i
    }

    /// Builds `dst = &region` (region base address).
    #[must_use]
    pub fn ldaddr(dst: Reg, region: RegionId) -> Self {
        assert_eq!(dst.class(), RegClass::Int);
        let mut i = Inst::raw(Op::LdAddr, Some(dst), &[]);
        i.mem = Some(MemAccess {
            region: Some(region),
            line_group: None,
        });
        i
    }

    /// Builds `dst = mem[base + disp]`.
    #[must_use]
    pub fn load(dst: Reg, base: Reg, disp: i64) -> Self {
        assert_eq!(base.class(), RegClass::Int);
        let mut i = Inst::raw(Op::Ld, Some(dst), &[base]);
        i.imm = Some(disp);
        i.mem = Some(MemAccess::default());
        i
    }

    /// Builds `mem[base + disp] = val`.
    #[must_use]
    pub fn store(val: Reg, base: Reg, disp: i64) -> Self {
        assert_eq!(base.class(), RegClass::Int);
        let mut i = Inst::raw(Op::St, None, &[val, base]);
        i.imm = Some(disp);
        i.mem = Some(MemAccess::default());
        i
    }

    /// Builds an integer or floating select `dst = cond != 0 ? a : b`.
    ///
    /// # Panics
    ///
    /// Panics if the operand classes do not match the opcode.
    #[must_use]
    pub fn select(dst: Reg, cond: Reg, a: Reg, b: Reg) -> Self {
        assert_eq!(cond.class(), RegClass::Int);
        assert_eq!(a.class(), dst.class());
        assert_eq!(b.class(), dst.class());
        let op = match dst.class() {
            RegClass::Int => Op::Cmov,
            RegClass::Float => Op::FCmov,
        };
        Inst::raw(op, Some(dst), &[cond, a, b])
    }

    /// Builds a register copy of the appropriate class.
    #[must_use]
    pub fn copy(dst: Reg, src: Reg) -> Self {
        assert_eq!(dst.class(), src.class());
        let op = match dst.class() {
            RegClass::Int => Op::Mov,
            RegClass::Float => Op::FMov,
        };
        Inst::raw(op, Some(dst), &[src])
    }

    /// The register sources.
    #[must_use]
    pub fn srcs(&self) -> &[Reg] {
        &self.srcs[..self.nsrcs as usize]
    }

    /// Mutable access to the register sources (used by renaming passes).
    pub fn srcs_mut(&mut self) -> &mut [Reg] {
        let n = self.nsrcs as usize;
        &mut self.srcs[..n]
    }

    /// The base-address register of a load or store.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not a memory access.
    #[must_use]
    pub fn mem_base(&self) -> Reg {
        match self.op {
            Op::Ld => self.srcs[0],
            Op::St => self.srcs[1],
            _ => panic!("mem_base on non-memory instruction {self}"),
        }
    }

    /// The displacement of a load or store (0 when absent).
    #[must_use]
    pub fn mem_disp(&self) -> i64 {
        debug_assert!(self.op.is_memory());
        self.imm.unwrap_or(0)
    }

    /// Marks the memory access as touching `region` (builder-style).
    #[must_use]
    pub fn with_region(mut self, region: RegionId) -> Self {
        let mem = self.mem.get_or_insert_with(MemAccess::default);
        mem.region = Some(region);
        self
    }

    /// Marks the instruction as allocator-inserted spill code.
    #[must_use]
    pub fn as_spill(mut self) -> Self {
        self.spill = true;
        self
    }

    /// Number of registers this instruction *consumes* minus the number it
    /// *defines* — the Multiflow register-pressure tie-break key
    /// (paper §4.2, first heuristic).
    #[must_use]
    pub fn pressure_delta(&self) -> i32 {
        self.nsrcs as i32 - i32::from(self.dst.is_some())
    }
}

impl PartialEq for Inst {
    fn eq(&self, other: &Self) -> bool {
        self.op == other.op
            && self.dst == other.dst
            && self.srcs() == other.srcs()
            && self.imm == other.imm
            && self.fimm.to_bits() == other.fimm.to_bits()
            && self.mem == other.mem
            && self.hint == other.hint
            && self.spill == other.spill
    }
}

impl fmt::Debug for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            Op::Ld => write!(
                f,
                "ld {}, [{} + {}]",
                self.dst.unwrap(),
                self.srcs[0],
                self.mem_disp()
            )?,
            Op::St => write!(
                f,
                "st {}, [{} + {}]",
                self.srcs[0],
                self.srcs[1],
                self.mem_disp()
            )?,
            Op::Li => write!(f, "li {}, {}", self.dst.unwrap(), self.imm.unwrap_or(0))?,
            Op::FLi => write!(f, "fli {}, {}", self.dst.unwrap(), self.fimm)?,
            Op::LdAddr => write!(
                f,
                "ldaddr {}, region{}",
                self.dst.unwrap(),
                self.mem
                    .and_then(|m| m.region)
                    .map_or(u32::MAX, |r| r.index())
            )?,
            _ => {
                write!(f, "{}", self.op)?;
                if let Some(d) = self.dst {
                    write!(f, " {d}")?;
                }
                for (k, s) in self.srcs().iter().enumerate() {
                    if k > 0 || self.dst.is_some() {
                        write!(f, ",")?;
                    }
                    write!(f, " {s}")?;
                }
                if let Some(imm) = self.imm {
                    write!(f, ", #{imm}")?;
                }
            }
        }
        match self.hint {
            LocalityHint::Unknown => {}
            LocalityHint::Hit => write!(f, "  ; hit")?,
            LocalityHint::Miss => write!(f, "  ; miss")?,
        }
        if self.spill {
            write!(f, "  ; spill")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u32) -> Reg {
        Reg::virt(RegClass::Int, n)
    }
    fn fr(n: u32) -> Reg {
        Reg::virt(RegClass::Float, n)
    }

    #[test]
    fn load_store_accessors() {
        let ld = Inst::load(fr(0), r(1), 16);
        assert_eq!(ld.mem_base(), r(1));
        assert_eq!(ld.mem_disp(), 16);
        assert_eq!(ld.srcs(), &[r(1)]);

        let st = Inst::store(fr(0), r(1), 8);
        assert_eq!(st.mem_base(), r(1));
        assert_eq!(st.dst, None);
        assert_eq!(st.srcs().len(), 2);
    }

    #[test]
    fn pressure_delta_matches_paper_heuristic() {
        // add r0, r1, r2 consumes 2, defines 1 => +1.
        let add = Inst::op(Op::Add, r(0), &[r(1), r(2)]);
        assert_eq!(add.pressure_delta(), 1);
        // li r0, #5 consumes 0, defines 1 => -1.
        assert_eq!(Inst::li(r(0), 5).pressure_delta(), -1);
        // st consumes 2, defines 0 => +2.
        assert_eq!(Inst::store(r(0), r(1), 0).pressure_delta(), 2);
    }

    #[test]
    fn select_picks_class() {
        let s = Inst::select(fr(0), r(1), fr(2), fr(3));
        assert_eq!(s.op, Op::FCmov);
        let s = Inst::select(r(0), r(1), r(2), r(3));
        assert_eq!(s.op, Op::Cmov);
    }

    #[test]
    #[should_panic(expected = "wrong source count")]
    fn op_validates_arity() {
        let _ = Inst::op(Op::Add, r(0), &[r(1)]);
    }

    #[test]
    fn display_is_nonempty() {
        for i in [
            Inst::li(r(0), 1),
            Inst::load(r(0), r(1), 0),
            Inst::store(r(0), r(1), 0),
            Inst::op(Op::FAdd, fr(0), &[fr(1), fr(2)]),
        ] {
            assert!(!i.to_string().is_empty());
        }
    }
}
