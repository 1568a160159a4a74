//! Functional (untimed) reference interpreter.
//!
//! Two roles in the reproduction:
//!
//! * **Correctness oracle**: every optimization and scheduling pass must
//!   leave the program's observable behaviour — the final memory image —
//!   unchanged. The pipeline runs each configuration through this
//!   interpreter and compares [`Outcome::checksum`] with the baseline.
//! * **Profiler**: basic-block and edge execution counts feed trace
//!   selection, mirroring the paper's use of profiling to guide the
//!   Multiflow trace picker (§4.2).

use crate::block::{BlockId, Terminator};
use crate::func::Function;
use crate::opcode::Op;
use crate::program::Program;
use crate::reg::{Reg, RegClass};
use crate::value::{self, Value};
use std::fmt;

/// Execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The instruction budget was exhausted (runaway loop or miscompile).
    OutOfFuel {
        /// The budget that was exceeded.
        fuel: u64,
    },
    /// A store targeted an address outside the program's memory image.
    WildStore {
        /// The faulting address.
        addr: u64,
    },
    /// A sampled-simulation estimator produced a non-finite value for a
    /// metric. Surfaced as an error (rather than silently rounded) so
    /// the fuzzer can report estimator bugs.
    NonFiniteEstimate {
        /// Which metric went non-finite.
        metric: &'static str,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfFuel { fuel } => write!(f, "instruction budget of {fuel} exhausted"),
            ExecError::WildStore { addr } => write!(f, "store outside memory image at {addr:#x}"),
            ExecError::NonFiniteEstimate { metric } => {
                write!(f, "sampled estimator produced a non-finite {metric}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Block and edge execution counts gathered during a run.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Executions of each block, indexed by block id.
    pub block_counts: Vec<u64>,
    /// Executions of each control-flow edge, kept per source block as
    /// up to two `(successor, count)` slots (a zero count is a free slot).
    edge_counts: Vec<[(BlockId, u64); 2]>,
}

impl Profile {
    /// Execution count of `b` (0 if never reached).
    #[must_use]
    pub fn block(&self, b: BlockId) -> u64 {
        self.block_counts.get(b.index()).copied().unwrap_or(0)
    }

    /// Execution count of the edge `from -> to`.
    #[must_use]
    pub fn edge(&self, from: BlockId, to: BlockId) -> u64 {
        self.edge_counts.get(from.index()).map_or(0, |slots| {
            slots
                .iter()
                .find(|&&(t, n)| t == to && n > 0)
                .map_or(0, |&(_, n)| n)
        })
    }

    /// Counts one traversal of `from -> to`. A block has at most two
    /// successors, and slot 0 fills first.
    fn record_edge(&mut self, from: BlockId, to: BlockId) {
        let slots = &mut self.edge_counts[from.index()];
        let k = usize::from(slots[0].1 != 0 && slots[0].0 != to);
        debug_assert!(
            slots[k].1 == 0 || slots[k].0 == to,
            "more than two successors"
        );
        slots[k] = (to, slots[k].1 + 1);
    }
}

/// The result of a successful run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// FNV-1a hash of the final memory image — the observable behaviour.
    pub checksum: u64,
    /// Number of instructions executed (terminators excluded).
    pub inst_count: u64,
    /// Number of branches executed.
    pub branch_count: u64,
    /// Execution profile.
    pub profile: Profile,
}

/// Register file sized for one function: physical slots first, then
/// virtual. Shared with the timing simulator in `bsched-sim`.
/// `Clone` so the sampled simulator can checkpoint architectural state
/// at interval boundaries.
#[derive(Debug, Clone)]
pub struct RegFile {
    ints: Vec<i64>,
    floats: Vec<f64>,
}

impl RegFile {
    /// Creates a zeroed register file sized for `func`.
    #[must_use]
    pub fn new(func: &Function) -> Self {
        let ni = Reg::NUM_PHYS as usize + func.vreg_count(RegClass::Int) as usize;
        let nf = Reg::NUM_PHYS as usize + func.vreg_count(RegClass::Float) as usize;
        RegFile {
            ints: vec![0; ni],
            floats: vec![0.0; nf],
        }
    }

    /// Dense slot index of a register (physical first, then virtual).
    #[must_use]
    pub fn slot(r: Reg) -> usize {
        r.slot()
    }

    /// Reads a register.
    #[must_use]
    pub fn get(&self, r: Reg) -> Value {
        match r.class() {
            RegClass::Int => Value::Int(self.ints[Self::slot(r)]),
            RegClass::Float => Value::Float(self.floats[Self::slot(r)]),
        }
    }

    /// Writes a register.
    pub fn set(&mut self, r: Reg, v: Value) {
        match r.class() {
            RegClass::Int => self.ints[Self::slot(r)] = v.as_int(),
            RegClass::Float => self.floats[Self::slot(r)] = v.as_float(),
        }
    }
}

/// Linear memory image with the program's regions laid out and
/// initialised. Shared with the timing simulator in `bsched-sim`.
#[derive(Debug, Clone)]
pub struct MemImage {
    /// The raw bytes of the laid-out address space.
    pub bytes: Vec<u8>,
    /// Base address of each region, by region index.
    pub region_bases: Vec<u64>,
    /// `(base, size)` of each *observable* region; only these bytes enter
    /// the checksum (scratch regions like the spill area are excluded).
    observable: Vec<(u64, u64)>,
}

impl MemImage {
    /// Lays out and initialises the program's regions.
    #[must_use]
    pub fn new(program: &Program) -> Self {
        let region_bases = program.region_bases();
        let mut bytes = vec![0u8; program.memory_size() as usize];
        let mut observable = Vec::new();
        for (region, &base) in program.regions().iter().zip(&region_bases) {
            let init = region.init();
            bytes[base as usize..base as usize + init.len()].copy_from_slice(init);
            if region.is_observable() {
                observable.push((base, region.size()));
            }
        }
        MemImage {
            bytes,
            region_bases,
            observable,
        }
    }

    /// Loads 8 bytes; addresses outside the image read as zero (this keeps
    /// speculative loads hoisted above their guards by trace scheduling
    /// well-defined — see DESIGN.md).
    #[must_use]
    pub fn load(&self, addr: u64) -> u64 {
        let a = addr as usize;
        match self.bytes.get(a..a + 8) {
            Some(s) => u64::from_le_bytes(s.try_into().unwrap()),
            None => 0,
        }
    }

    /// Stores 8 bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::WildStore`] outside the image.
    pub fn store(&mut self, addr: u64, bits: u64) -> Result<(), ExecError> {
        let a = addr as usize;
        match self.bytes.get_mut(a..a + 8) {
            Some(s) => {
                s.copy_from_slice(&bits.to_le_bytes());
                Ok(())
            }
            None => Err(ExecError::WildStore { addr }),
        }
    }

    /// FNV-1a hash of the observable regions of the memory image.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &(base, size) in &self.observable {
            for &b in &self.bytes[base as usize..(base + size) as usize] {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// The interpreter. Construct once per program, then [`Interp::run`].
#[derive(Debug)]
pub struct Interp<'p> {
    program: &'p Program,
    fuel: u64,
}

impl<'p> Interp<'p> {
    /// Default instruction budget (generous for the scaled-down kernels).
    pub const DEFAULT_FUEL: u64 = 500_000_000;

    /// Creates an interpreter for `program` with the default budget.
    #[must_use]
    pub fn new(program: &'p Program) -> Self {
        Interp {
            program,
            fuel: Self::DEFAULT_FUEL,
        }
    }

    /// Overrides the instruction budget.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Runs the program's main function to completion.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::OutOfFuel`] if the budget is exhausted and
    /// [`ExecError::WildStore`] on a store outside the memory image.
    pub fn run(&self) -> Result<Outcome, ExecError> {
        let func = self.program.main();
        let mut regs = RegFile::new(func);
        let mut mem = MemImage::new(self.program);
        let mut profile = Profile {
            block_counts: vec![0; func.blocks().len()],
            edge_counts: vec![[(func.entry(), 0); 2]; func.blocks().len()],
        };
        let mut inst_count: u64 = 0;
        let mut branch_count: u64 = 0;
        let mut cur = func.entry();
        let bases = mem.region_bases.clone();

        loop {
            profile.block_counts[cur.index()] += 1;
            let block = func.block(cur);
            for inst in &block.insts {
                inst_count += 1;
                if inst_count > self.fuel {
                    return Err(ExecError::OutOfFuel { fuel: self.fuel });
                }
                step(inst, &mut regs, &mut mem, &bases)?;
            }
            let next = match &block.term {
                Terminator::Jmp(t) => *t,
                Terminator::Br {
                    cond,
                    when,
                    taken,
                    fall,
                } => {
                    branch_count += 1;
                    if when.holds(regs.get(*cond).as_int()) {
                        *taken
                    } else {
                        *fall
                    }
                }
                Terminator::Ret => {
                    return Ok(Outcome {
                        checksum: mem.checksum(),
                        inst_count,
                        branch_count,
                        profile,
                    });
                }
            };
            profile.record_edge(cur, next);
            cur = next;
        }
    }
}

/// Executes one instruction against the register file and memory.
///
/// # Errors
///
/// Returns [`ExecError::WildStore`] when a store leaves the memory image.
///
/// # Panics
///
/// Panics on malformed instructions (run the verifier first).
pub fn step(
    inst: &crate::inst::Inst,
    regs: &mut RegFile,
    mem: &mut MemImage,
    region_bases: &[u64],
) -> Result<(), ExecError> {
    match inst.op {
        Op::Ld => {
            let base = regs.get(inst.mem_base()).as_int();
            let addr = base.wrapping_add(inst.mem_disp()) as u64;
            let dst = inst.dst.unwrap();
            regs.set(dst, Value::from_bits(dst.class(), mem.load(addr)));
        }
        Op::St => {
            let base = regs.get(inst.mem_base()).as_int();
            let addr = base.wrapping_add(inst.mem_disp()) as u64;
            let bits = regs.get(inst.srcs()[0]).to_bits();
            mem.store(addr, bits)?;
        }
        Op::LdAddr => {
            let region = inst
                .mem
                .and_then(|m| m.region)
                .expect("ldaddr without region");
            let base = region_bases[region.index() as usize];
            regs.set(inst.dst.unwrap(), Value::Int(base as i64));
        }
        _ => {
            let mut vals = [Value::Int(0); 3];
            for (slot, &s) in vals.iter_mut().zip(inst.srcs()) {
                *slot = regs.get(s);
            }
            let v = value::eval(inst.op, &vals[..inst.srcs().len()], inst.imm, inst.fimm);
            regs.set(inst.dst.unwrap(), v);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BrCond};
    use crate::inst::Inst;

    /// sum the integers 0..10 into region "out".
    fn sum_program() -> Program {
        let mut p = Program::new("sum");
        let out = p.add_region("out", 8);
        let mut f = Function::new("main");
        let i = f.new_reg(RegClass::Int);
        let n = f.new_reg(RegClass::Int);
        let s = f.new_reg(RegClass::Int);
        let c = f.new_reg(RegClass::Int);
        let base = f.new_reg(RegClass::Int);

        let header = f.add_block(Block::new(Terminator::Ret));
        let body = f.add_block(Block::new(Terminator::Jmp(header)));
        let exit = f.add_block(Block::new(Terminator::Ret));

        let e = f.entry();
        f.block_mut(e).insts.extend([
            Inst::li(i, 0),
            Inst::li(n, 10),
            Inst::li(s, 0),
            Inst::ldaddr(base, out),
        ]);
        f.block_mut(e).term = Terminator::Jmp(header);
        f.block_mut(header)
            .insts
            .push(Inst::op(Op::CmpLt, c, &[i, n]));
        f.block_mut(header).term = Terminator::Br {
            cond: c,
            when: BrCond::Zero,
            taken: exit,
            fall: body,
        };
        f.block_mut(body).insts.extend([
            Inst::op(Op::Add, s, &[s, i]),
            Inst::op_imm(Op::Add, i, i, 1),
        ]);
        f.block_mut(exit)
            .insts
            .push(Inst::store(s, base, 0).with_region(out));
        p.set_main(f);
        p
    }

    #[test]
    fn sums_correctly_and_profiles() {
        let p = sum_program();
        let out = Interp::new(&p).run().unwrap();
        // 0+1+..+9 = 45; read it back out of a fresh image? Use checksum
        // equality with a hand-built expected image.
        let mut expected = MemImage::new(&p);
        expected.store(p.region_bases()[0], 45).unwrap();
        assert_eq!(out.checksum, expected.checksum());
        // header runs 11 times, body 10.
        assert_eq!(out.profile.block(BlockId::new(1)), 11);
        assert_eq!(out.profile.block(BlockId::new(2)), 10);
        assert_eq!(out.profile.edge(BlockId::new(1), BlockId::new(2)), 10);
        assert_eq!(out.branch_count, 11);
        assert!(out.inst_count > 20);
    }

    #[test]
    fn fuel_limit_detects_runaway() {
        let mut p = Program::new("spin");
        let mut f = Function::new("main");
        let e = f.entry();
        let r0 = f.new_reg(RegClass::Int);
        f.block_mut(e).insts.push(Inst::li(r0, 0));
        f.block_mut(e).term = Terminator::Jmp(e);
        p.set_main(f);
        let err = Interp::new(&p).with_fuel(100).run().unwrap_err();
        assert_eq!(err, ExecError::OutOfFuel { fuel: 100 });
    }

    #[test]
    fn wild_load_reads_zero_wild_store_errors() {
        let mut p = Program::new("wild");
        let out = p.add_region("out", 8);
        let mut f = Function::new("main");
        let a = f.new_reg(RegClass::Int);
        let v = f.new_reg(RegClass::Int);
        let base = f.new_reg(RegClass::Int);
        let e = f.entry();
        f.block_mut(e).insts.extend([
            Inst::li(a, 1 << 40),
            Inst::load(v, a, 0), // wild load: reads 0
            Inst::ldaddr(base, out),
            Inst::store(v, base, 0).with_region(out),
        ]);
        p.set_main(f);
        let outcm = Interp::new(&p).run().unwrap();
        let expected = MemImage::new(&p);
        assert_eq!(outcm.checksum, expected.checksum(), "wild load read zero");

        // Now a wild store.
        let mut p2 = Program::new("wild2");
        let _ = p2.add_region("out", 8);
        let mut f2 = Function::new("main");
        let a2 = f2.new_reg(RegClass::Int);
        let e2 = f2.entry();
        f2.block_mut(e2)
            .insts
            .extend([Inst::li(a2, 1 << 40), Inst::store(a2, a2, 0)]);
        p2.set_main(f2);
        assert!(matches!(
            Interp::new(&p2).run(),
            Err(ExecError::WildStore { .. })
        ));
    }

    #[test]
    fn float_round_trip_through_memory() {
        let mut p = Program::new("f");
        let r = p.push_region(crate::program::Region::from_f64s("a", &[2.5, 4.0]));
        let mut f = Function::new("main");
        let base = f.new_reg(RegClass::Int);
        let x = f.new_reg(RegClass::Float);
        let y = f.new_reg(RegClass::Float);
        let z = f.new_reg(RegClass::Float);
        let e = f.entry();
        f.block_mut(e).insts.extend([
            Inst::ldaddr(base, r),
            Inst::load(x, base, 0).with_region(r),
            Inst::load(y, base, 8).with_region(r),
            Inst::op(Op::FMul, z, &[x, y]),
            Inst::store(z, base, 0).with_region(r),
        ]);
        p.set_main(f);
        let out = Interp::new(&p).run().unwrap();
        let mut expected = MemImage::new(&p);
        expected
            .store(p.region_bases()[0], (10.0f64).to_bits())
            .unwrap();
        assert_eq!(out.checksum, expected.checksum());
    }
}
