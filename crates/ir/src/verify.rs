//! Structural verification of functions and programs.
//!
//! The verifier is run by the pipeline after every pass; it catches
//! malformed block references, operand-class mismatches, missing
//! immediates/memory metadata, and stale counted-loop metadata.

use crate::block::Terminator;
use crate::func::{Bound, Function};
use crate::inst::Inst;
use crate::opcode::Op;
use crate::program::Program;
use crate::reg::RegClass;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Human-readable description of the defect.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IR verification failed: {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

fn err<T>(message: impl Into<String>) -> Result<T, VerifyError> {
    Err(VerifyError {
        message: message.into(),
    })
}

/// Checks one instruction; on failure returns the defect without its
/// location.
fn check_inst(inst: &Inst) -> Result<(), String> {
    // Destination presence/class.
    match inst.op {
        Op::St => {
            if inst.dst.is_some() {
                return Err("store must not define a register".into());
            }
        }
        _ => {
            let Some(dst) = inst.dst else {
                return Err("missing destination".into());
            };
            if let Some(c) = inst.op.fixed_dst_class() {
                if dst.class() != c {
                    return Err(format!("destination class must be {c}"));
                }
            }
        }
    }
    // Source counts (immediate may replace one ALU source).
    let want = inst.op.num_srcs();
    let got = inst.srcs().len();
    let imm_ok = inst.imm.is_some();
    let arity_ok = match inst.op {
        Op::Ld | Op::St => got == want && imm_ok,
        Op::Li => got == 0 && imm_ok,
        Op::FLi | Op::LdAddr => got == 0,
        _ => got == want || (imm_ok && got + 1 == want),
    };
    if !arity_ok {
        return Err(format!("bad operand count ({got} srcs, imm={imm_ok})"));
    }
    // Memory metadata.
    if inst.op.is_memory() && inst.mem.is_none() {
        return Err("memory access without MemAccess metadata".into());
    }
    if inst.op == Op::LdAddr && inst.mem.and_then(|m| m.region).is_none() {
        return Err("ldaddr without region".into());
    }
    // Class checks for selected ops.
    match inst.op {
        Op::Ld | Op::St if inst.mem_base().class() != RegClass::Int => {
            return Err("memory base must be an integer register".into());
        }
        Op::Cmov | Op::FCmov if inst.srcs()[0].class() != RegClass::Int => {
            return Err("select condition must be integer".into());
        }
        _ => {}
    }
    // Locality hints only belong on loads.
    if inst.hint != crate::inst::LocalityHint::Unknown && !inst.op.is_load() {
        return Err("locality hint on non-load".into());
    }
    Ok(())
}

/// Verifies one function.
///
/// # Errors
///
/// Returns the first structural defect found.
pub fn verify_function(func: &Function) -> Result<(), VerifyError> {
    let nblocks = func.blocks().len();
    if func.entry().index() >= nblocks {
        return err("entry block out of range");
    }
    for (id, block) in func.iter_blocks() {
        for (k, inst) in block.insts.iter().enumerate() {
            // The location prefix is formatted only for a failing
            // instruction: this runs after every pass.
            if let Err(defect) = check_inst(inst) {
                return err(format!("{id}[{k}] `{inst}`: {defect}"));
            }
        }
        // Terminator targets in range.
        for s in block.term.successors() {
            if s.index() >= nblocks {
                return err(format!("{id}: terminator targets out-of-range block {s}"));
            }
        }
        if let Some(c) = block.term.cond_reg() {
            if c.class() != RegClass::Int {
                return err(format!("{id}: branch condition must be integer"));
            }
        }
    }

    // Counted-loop metadata sanity.
    for (i, l) in func.loops.iter().enumerate() {
        let in_range = |b: crate::block::BlockId| b.index() < nblocks;
        if !(in_range(l.header) && in_range(l.latch) && in_range(l.exit) && in_range(l.preheader)) {
            return err(format!("loop {i}: block id out of range"));
        }
        if l.counter.class() != RegClass::Int {
            return err(format!("loop {i}: counter must be integer"));
        }
        if l.step <= 0 {
            return err(format!("loop {i}: step must be positive"));
        }
        if let Bound::Reg(r) = l.bound {
            if r.class() != RegClass::Int {
                return err(format!("loop {i}: bound register must be integer"));
            }
        }
        match &func.block(l.latch).term {
            Terminator::Jmp(t) if *t == l.header => {}
            t => return err(format!("loop {i}: latch must jump to header, found {t:?}")),
        }
        if let Some(p) = l.parent {
            if p >= func.loops.len() {
                return err(format!("loop {i}: parent index out of range"));
            }
        }
    }
    Ok(())
}

/// Verifies a whole program (main function plus region references).
///
/// # Errors
///
/// Returns the first structural defect found.
pub fn verify_program(program: &Program) -> Result<(), VerifyError> {
    verify_function(program.main())?;
    let nregions = program.regions().len();
    for (id, block) in program.main().iter_blocks() {
        for inst in &block.insts {
            if let Some(m) = inst.mem {
                if let Some(r) = m.region {
                    if r.index() as usize >= nregions {
                        return err(format!("{id}: instruction references unknown {r:?}"));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::Inst;
    use crate::program::Program;

    #[test]
    fn accepts_well_formed_program() {
        let mut p = Program::new("t");
        let r = p.add_region("a", 64);
        let mut b = FuncBuilder::new("main");
        let base = b.load_region_addr(r);
        let x = b.load_f(base, 0).with_region(r).emit(&mut b);
        b.store(x, base, 8).with_region(r).emit(&mut b);
        b.ret();
        p.set_main(b.finish());
        assert!(verify_program(&p).is_ok());
    }

    #[test]
    fn rejects_missing_mem_metadata() {
        let mut f = Function::new("m");
        let base = f.new_reg(RegClass::Int);
        let x = f.new_reg(RegClass::Float);
        let e = f.entry();
        let mut ld = Inst::load(x, base, 0);
        ld.mem = None; // corrupt it
        f.block_mut(e).insts.push(ld);
        assert!(verify_function(&f).is_err());
    }

    #[test]
    fn rejects_wrong_dst_class() {
        let mut f = Function::new("m");
        let i = f.new_reg(RegClass::Int);
        let x = f.new_reg(RegClass::Float);
        let e = f.entry();
        // add writing a float register is malformed.
        let mut bad = Inst::op(Op::Add, i, &[i, i]);
        bad.dst = Some(x);
        f.block_mut(e).insts.push(bad);
        assert_eq!(
            verify_function(&f).unwrap_err().to_string(),
            "IR verification failed: bb0[0] `add %f0, %r0, %r0`: destination class must be int"
        );
    }

    #[test]
    fn rejects_out_of_range_region() {
        let mut p = Program::new("t");
        let mut f = Function::new("main");
        let base = f.new_reg(RegClass::Int);
        let dst = f.new_reg(RegClass::Float);
        let e = f.entry();
        f.block_mut(e)
            .insts
            .push(Inst::load(dst, base, 0).with_region(crate::program::RegionId::new(3)));
        p.set_main(f);
        assert!(verify_program(&p).is_err());
    }

    #[test]
    fn rejects_bad_latch() {
        use crate::block::BlockId;
        use crate::func::{Bound, CountedLoop};
        let mut f = Function::new("m");
        let c = f.new_reg(RegClass::Int);
        f.loops.push(CountedLoop {
            header: BlockId::new(0),
            body: vec![],
            latch: BlockId::new(0), // entry ends in Ret, not Jmp header
            exit: BlockId::new(0),
            preheader: BlockId::new(0),
            counter: c,
            step: 1,
            bound: Bound::Imm(4),
            parent: None,
        });
        assert!(verify_function(&f).is_err());
    }
}
