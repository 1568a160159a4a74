//! Linear-form analysis: expressing integer register values as affine
//! functions of a loop counter.
//!
//! `value = opaque + a * counter + b`, where `opaque` stands for an
//! arbitrary *loop-invariant* quantity (a region base, an outer-loop row
//! offset, any combination of invariants). Unrolling uses the form to fold
//! per-copy address recomputations into load/store displacements — only
//! the coefficient `a` matters, because copy `c` reuses copy 0's address
//! register and adds `a·c·step` to the displacement. Locality analysis
//! uses it to classify array references as spatial (`a` equals a small
//! element stride) or temporal (`a == 0`).

use bsched_ir::{Inst, Op, Reg, RegSet};
use bsched_util::FastHashMap;

/// An affine value: `(opaque invariant part) + a * counter + b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinForm {
    /// Coefficient of the loop counter.
    pub a: i64,
    /// Constant term.
    pub b: i64,
    /// `true` when the value additionally contains an unresolved
    /// loop-invariant part.
    pub opaque: bool,
}

impl LinForm {
    /// A pure constant.
    #[must_use]
    pub fn constant(b: i64) -> Self {
        LinForm {
            a: 0,
            b,
            opaque: false,
        }
    }

    /// The counter itself.
    #[must_use]
    pub fn counter() -> Self {
        LinForm {
            a: 1,
            b: 0,
            opaque: false,
        }
    }

    /// An opaque loop-invariant value.
    #[must_use]
    pub fn invariant() -> Self {
        LinForm {
            a: 0,
            b: 0,
            opaque: true,
        }
    }

    /// `true` when the value does not vary with the counter.
    #[must_use]
    pub fn is_invariant(&self) -> bool {
        self.a == 0
    }

    fn add(self, o: LinForm) -> Option<LinForm> {
        Some(LinForm {
            a: self.a.checked_add(o.a)?,
            b: self.b.checked_add(o.b)?,
            opaque: self.opaque || o.opaque,
        })
    }

    fn sub(self, o: LinForm) -> Option<LinForm> {
        Some(LinForm {
            a: self.a.checked_sub(o.a)?,
            b: self.b.checked_sub(o.b)?,
            // The difference of invariants is still invariant.
            opaque: self.opaque || o.opaque,
        })
    }

    fn shl(self, k: i64) -> Option<LinForm> {
        if !(0..63).contains(&k) {
            return None;
        }
        if self.opaque {
            // (inv + a·j + b) << k distributes only when a == 0:
            // the result is again invariant.
            return self.is_invariant().then(LinForm::invariant);
        }
        Some(LinForm {
            a: self.a.checked_shl(k as u32)?,
            b: self.b.checked_shl(k as u32)?,
            opaque: false,
        })
    }

    fn mul(self, m: i64) -> Option<LinForm> {
        if self.opaque {
            return self.is_invariant().then(LinForm::invariant);
        }
        Some(LinForm {
            a: self.a.checked_mul(m)?,
            b: self.b.checked_mul(m)?,
            opaque: false,
        })
    }
}

/// Forward linear-form environment over a straight-line region.
#[derive(Debug)]
pub struct LinEnv {
    counter: Reg,
    /// Registers defined inside the region (everything else is invariant).
    defined_in_region: RegSet,
    map: FastHashMap<Reg, Option<LinForm>>,
}

impl LinEnv {
    /// Creates an environment for a region whose loop counter is
    /// `counter`. `defined_in_region` must contain every register the
    /// region defines, so outside registers are treated as loop-invariant.
    #[must_use]
    pub fn new(counter: Reg, defined_in_region: RegSet) -> Self {
        LinEnv {
            counter,
            defined_in_region,
            map: FastHashMap::default(),
        }
    }

    /// The linear form of `r` at the current scan point, if known.
    #[must_use]
    pub fn lookup(&self, r: Reg) -> Option<LinForm> {
        if r == self.counter {
            return Some(LinForm::counter());
        }
        if !self.defined_in_region.contains(r) {
            return Some(LinForm::invariant());
        }
        self.map.get(&r).copied().flatten()
    }

    /// Advances the scan over one instruction, recording the destination's
    /// linear form (or poisoning it when the operation is not affine).
    pub fn step(&mut self, inst: &Inst) {
        let Some(dst) = inst.dst else { return };
        if dst.class() != bsched_ir::RegClass::Int {
            self.map.insert(dst, None);
            return;
        }
        let mut form = self.eval(inst);
        if form.is_none() && !inst.op.is_memory() {
            // Fallback: a pure op over loop-invariant inputs is invariant.
            // Registers defined in the region are invariant only when
            // their tracked (integer) form says so; region-defined floats
            // are never invariant.
            let all_invariant = inst.srcs().iter().all(|&s| {
                if s.class() == bsched_ir::RegClass::Int {
                    // lookup() handles the counter and out-of-region regs.
                    self.lookup(s).is_some_and(|f| f.is_invariant())
                } else {
                    !self.defined_in_region.contains(s)
                }
            });
            if all_invariant {
                form = Some(LinForm::invariant());
            }
        }
        self.map.insert(dst, form);
    }

    fn eval(&self, inst: &Inst) -> Option<LinForm> {
        let src = |k: usize| self.lookup(inst.srcs()[k]);
        let rhs = || -> Option<LinForm> {
            match inst.imm {
                Some(v) => Some(LinForm::constant(v)),
                None => src(1),
            }
        };
        match inst.op {
            Op::Li => Some(LinForm::constant(inst.imm?)),
            Op::Mov => src(0),
            Op::Add => src(0)?.add(rhs()?),
            Op::Sub => src(0)?.sub(rhs()?),
            Op::Shl => {
                let sh = rhs()?;
                if sh.opaque || sh.a != 0 {
                    return None;
                }
                src(0)?.shl(sh.b)
            }
            Op::Mul => {
                let m = rhs()?;
                if !m.opaque && m.a == 0 {
                    return src(0)?.mul(m.b);
                }
                let l = src(0)?;
                if !l.opaque && l.a == 0 {
                    return rhs()?.mul(l.b);
                }
                None
            }
            _ => None,
        }
    }
}

/// Computes the linear form of every instruction's destination over a
/// straight-line instruction sequence; entry `i` corresponds to
/// instruction `i`'s destination (None for stores / non-affine results).
#[must_use]
pub fn scan_block(insts: &[Inst], counter: Reg, defined_in_region: RegSet) -> Vec<Option<LinForm>> {
    let mut env = LinEnv::new(counter, defined_in_region);
    let mut out = Vec::with_capacity(insts.len());
    for inst in insts {
        env.step(inst);
        out.push(inst.dst.and_then(|d| env.lookup(d)));
    }
    out
}

/// Collects every register defined by the given instruction slices.
#[must_use]
pub fn defined_regs<'a>(regions: impl IntoIterator<Item = &'a [Inst]>) -> RegSet {
    let mut set = RegSet::new();
    for insts in regions {
        for i in insts {
            if let Some(d) = i.dst {
                set.insert(d);
            }
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::{RegClass, RegionId};

    fn r(n: u32) -> Reg {
        Reg::virt(RegClass::Int, n)
    }

    #[test]
    fn address_chain_is_affine_in_counter() {
        // j = counter; t = j << 3; addr = base + t; (base invariant)
        let j = r(0);
        let t = r(1);
        let base = r(2);
        let addr = r(3);
        let insts = vec![
            Inst::op_imm(Op::Shl, t, j, 3),
            Inst::op(Op::Add, addr, &[base, t]),
        ];
        let defs = defined_regs([insts.as_slice()]);
        let forms = scan_block(&insts, j, defs);
        assert_eq!(
            forms[0],
            Some(LinForm {
                a: 8,
                b: 0,
                opaque: false
            })
        );
        assert_eq!(
            forms[1],
            Some(LinForm {
                a: 8,
                b: 0,
                opaque: true
            })
        );
    }

    #[test]
    fn two_dimensional_row_major_chain() {
        // Inner loop over j, outer counter i invariant:
        // ti = i << 6; acc = add ti, tj; tj = j << 3; addr = base + acc.
        let j = r(0);
        let i = r(9); // invariant here
        let ti = r(1);
        let tj = r(2);
        let acc = r(3);
        let base = r(8);
        let addr = r(4);
        let insts = vec![
            Inst::op_imm(Op::Shl, ti, i, 6),
            Inst::op_imm(Op::Shl, tj, j, 3),
            Inst::op(Op::Add, acc, &[ti, tj]),
            Inst::op(Op::Add, addr, &[base, acc]),
        ];
        let defs = defined_regs([insts.as_slice()]);
        let forms = scan_block(&insts, j, defs);
        assert_eq!(
            forms[0],
            Some(LinForm::invariant()),
            "i<<6 is invariant in j"
        );
        assert_eq!(
            forms[2],
            Some(LinForm {
                a: 8,
                b: 0,
                opaque: true
            })
        );
        assert_eq!(
            forms[3],
            Some(LinForm {
                a: 8,
                b: 0,
                opaque: true
            })
        );
    }

    #[test]
    fn constants_and_offsets() {
        let j = r(0);
        let x = r(1);
        let y = r(2);
        let insts = vec![
            Inst::op_imm(Op::Add, x, j, 5), // j + 5
            Inst::op_imm(Op::Mul, y, x, 3), // 3j + 15
        ];
        let defs = defined_regs([insts.as_slice()]);
        let forms = scan_block(&insts, j, defs);
        assert_eq!(
            forms[0],
            Some(LinForm {
                a: 1,
                b: 5,
                opaque: false
            })
        );
        assert_eq!(
            forms[1],
            Some(LinForm {
                a: 3,
                b: 15,
                opaque: false
            })
        );
    }

    #[test]
    fn invariant_combinations_stay_invariant() {
        let j = r(0);
        let a = r(8);
        let b = r(9);
        let s = r(1);
        let m = r(2);
        let insts = vec![
            Inst::op(Op::Add, s, &[a, b]),  // inv + inv
            Inst::op_imm(Op::Shl, m, s, 4), // inv << 4
        ];
        let defs = defined_regs([insts.as_slice()]);
        let forms = scan_block(&insts, j, defs);
        assert!(forms[0].unwrap().is_invariant());
        assert!(forms[1].unwrap().is_invariant());
    }

    #[test]
    fn non_affine_poisons() {
        let j = r(0);
        let x = r(1);
        let y = r(2);
        let insts = vec![
            Inst::op(Op::Mul, x, &[j, j]),  // j*j: not affine
            Inst::op_imm(Op::Add, y, x, 1), // poisoned transitively
        ];
        let defs = defined_regs([insts.as_slice()]);
        let forms = scan_block(&insts, j, defs);
        assert_eq!(forms[0], None);
        assert_eq!(forms[1], None);
    }

    #[test]
    fn scaled_counter_with_opaque_part_fails_to_shift() {
        // (base + j) << 3: coefficient of the opaque part would change.
        let j = r(0);
        let base = r(8);
        let s = r(1);
        let t = r(2);
        let insts = vec![
            Inst::op(Op::Add, s, &[base, j]),
            Inst::op_imm(Op::Shl, t, s, 3),
        ];
        let defs = defined_regs([insts.as_slice()]);
        let forms = scan_block(&insts, j, defs);
        assert_eq!(forms[1], None);
    }

    #[test]
    fn redefinition_updates_form() {
        let j = r(0);
        let x = r(1);
        let insts = vec![
            Inst::op_imm(Op::Add, x, j, 1), // x = j+1
            Inst::op_imm(Op::Add, x, x, 1), // x = j+2
        ];
        let defs = defined_regs([insts.as_slice()]);
        let forms = scan_block(&insts, j, defs);
        assert_eq!(
            forms[1],
            Some(LinForm {
                a: 1,
                b: 2,
                opaque: false
            })
        );
    }

    #[test]
    fn loads_poison_their_destination() {
        let j = r(0);
        let x = r(1);
        let insts = vec![Inst::load(x, j, 0).with_region(RegionId::new(0))];
        let defs = defined_regs([insts.as_slice()]);
        let forms = scan_block(&insts, j, defs);
        assert_eq!(forms[0], None);
    }
}
