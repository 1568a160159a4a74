//! Register liveness (backward dataflow over the CFG).
//!
//! Consumers: the register allocator (live intervals come from per-block
//! liveness plus a local walk) and trace scheduling, whose speculation
//! safety rule forbids hoisting an instruction above a split when its
//! destination is live into the off-trace path (paper §3.2).

use crate::block::BlockId;
use crate::cfg::Cfg;
use crate::func::Function;
use crate::regset::RegSet;

/// Per-block live-in / live-out register sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
}

impl Liveness {
    /// Computes liveness for `func` given its `cfg`.
    #[must_use]
    pub fn new(func: &Function, cfg: &Cfg) -> Self {
        let n = func.blocks().len();
        let mut uses: Vec<RegSet> = vec![RegSet::for_function(func); n];
        let mut defs: Vec<RegSet> = uses.clone();

        for (id, block) in func.iter_blocks() {
            let (u, d) = (&mut uses[id.index()], &mut defs[id.index()]);
            for inst in &block.insts {
                for &s in inst.srcs() {
                    if !d.contains(s) {
                        u.insert(s);
                    }
                }
                if let Some(dst) = inst.dst {
                    d.insert(dst);
                }
            }
            if let Some(c) = block.term.cond_reg() {
                if !d.contains(c) {
                    u.insert(c);
                }
            }
        }

        // The word-wise dataflow needs one width. A register beyond the
        // function's counters (built with `Reg::virt`, not `new_reg`)
        // widened its set on insert; widen the rest to match.
        let words = uses
            .iter()
            .chain(&defs)
            .map(|s| s.words.len())
            .max()
            .unwrap_or(0);
        for set in uses.iter_mut().chain(&mut defs) {
            set.words.resize(words, 0);
        }
        let empty = RegSet {
            words: vec![0; words],
        };
        let mut live_in: Vec<RegSet> = vec![empty.clone(); n];
        let mut live_out: Vec<RegSet> = vec![empty.clone(); n];
        let mut out = empty;
        let mut changed = true;
        while changed {
            changed = false;
            // Reverse RPO converges quickly for reducible CFGs.
            for &b in cfg.rpo().iter().rev() {
                let bi = b.index();
                out.words.fill(0);
                for &s in cfg.succs(b) {
                    for (o, &w) in out.words.iter_mut().zip(&live_in[s.index()].words) {
                        *o |= w;
                    }
                }
                if out != live_out[bi] {
                    live_out[bi].words.copy_from_slice(&out.words);
                    changed = true;
                }
                // in = use ∪ (out − def)
                let (u, d) = (&uses[bi].words, &defs[bi].words);
                for (k, w) in live_in[bi].words.iter_mut().enumerate() {
                    let inn = u[k] | (out.words[k] & !d[k]);
                    changed |= *w != inn;
                    *w = inn;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Registers live on entry to `b`.
    #[must_use]
    pub fn live_in(&self, b: BlockId) -> &RegSet {
        &self.live_in[b.index()]
    }

    /// Registers live on exit from `b`.
    #[must_use]
    pub fn live_out(&self, b: BlockId) -> &RegSet {
        &self.live_out[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BrCond, Terminator};
    use crate::inst::Inst;
    use crate::opcode::Op;
    use crate::reg::{Reg, RegClass};

    #[test]
    fn straight_line_liveness() {
        // entry: x = li 1 ; jmp b1
        // b1:    y = add x, #2 ; st y, [x+0]; ret
        let mut f = Function::new("t");
        let x = f.new_reg(RegClass::Int);
        let y = f.new_reg(RegClass::Int);
        let b1 = f.add_block(Block::new(Terminator::Ret));
        f.block_mut(f.entry()).insts.push(Inst::li(x, 1));
        f.block_mut(f.entry()).term = Terminator::Jmp(b1);
        f.block_mut(b1).insts.push(Inst::op_imm(Op::Add, y, x, 2));
        f.block_mut(b1).insts.push(Inst::store(y, x, 0));
        let cfg = Cfg::new(&f);
        let l = Liveness::new(&f, &cfg);
        assert!(l.live_out(f.entry()).contains(x));
        assert!(l.live_in(b1).contains(x));
        assert!(!l.live_in(b1).contains(y));
        assert!(l.live_out(b1).is_empty());
        assert!(l.live_in(f.entry()).is_empty());
    }

    #[test]
    fn loop_carried_value_stays_live() {
        // entry: s = li 0 ; jmp h
        // h: br c -> body | exit
        // body: s = add s, #1 ; jmp h
        // exit: st s, [s+0] ; ret
        let mut f = Function::new("t");
        let s = f.new_reg(RegClass::Int);
        let c = f.new_reg(RegClass::Int);
        let h = f.add_block(Block::new(Terminator::Ret));
        let body = f.add_block(Block::new(Terminator::Jmp(h)));
        let exit = f.add_block(Block::new(Terminator::Ret));
        f.block_mut(f.entry()).insts.push(Inst::li(s, 0));
        f.block_mut(f.entry()).term = Terminator::Jmp(h);
        f.block_mut(h).term = Terminator::Br {
            cond: c,
            when: BrCond::NonZero,
            taken: body,
            fall: exit,
        };
        f.block_mut(body).insts.push(Inst::op_imm(Op::Add, s, s, 1));
        f.block_mut(exit).insts.push(Inst::store(s, s, 0));
        let cfg = Cfg::new(&f);
        let l = Liveness::new(&f, &cfg);
        assert!(l.live_in(h).contains(s));
        assert!(l.live_in(h).contains(c), "branch condition is a use");
        assert!(l.live_out(body).contains(s));
        assert!(l.live_in(exit).contains(s));
    }

    #[test]
    fn registers_beyond_the_counters_are_tracked() {
        // entry: x = li 1 ; jmp b1 / b1: st y, [x+0] ; ret, with y made
        // by `Reg::virt` far past the function's vreg counter.
        let mut f = Function::new("t");
        let x = f.new_reg(RegClass::Int);
        let y = Reg::virt(RegClass::Float, 500);
        let b1 = f.add_block(Block::new(Terminator::Ret));
        f.block_mut(f.entry()).insts.push(Inst::li(x, 1));
        f.block_mut(f.entry()).term = Terminator::Jmp(b1);
        f.block_mut(b1).insts.push(Inst::store(y, x, 0));
        let cfg = Cfg::new(&f);
        let l = Liveness::new(&f, &cfg);
        assert!(l.live_in(b1).contains(y) && l.live_in(b1).contains(x));
        assert!(l.live_out(f.entry()).contains(y));
        assert!(l.live_in(f.entry()).contains(y) && !l.live_in(f.entry()).contains(x));
    }

    #[test]
    fn branch_condition_defined_locally_is_not_live_in() {
        let mut f = Function::new("t");
        let c = f.new_reg(RegClass::Int);
        let t1 = f.add_block(Block::new(Terminator::Ret));
        let t2 = f.add_block(Block::new(Terminator::Ret));
        f.block_mut(f.entry()).insts.push(Inst::li(c, 1));
        f.block_mut(f.entry()).term = Terminator::Br {
            cond: c,
            when: BrCond::NonZero,
            taken: t1,
            fall: t2,
        };
        let cfg = Cfg::new(&f);
        let l = Liveness::new(&f, &cfg);
        assert!(!l.live_in(f.entry()).contains(c));
    }
}
