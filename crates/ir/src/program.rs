//! Programs: a main function plus named, cache-line-aligned memory regions.

use crate::func::Function;
use std::fmt;
use std::sync::Arc;

/// Cache-line size used for region alignment (Alpha 21164 first-level
/// cache: 32-byte lines; paper §3.3 "we align the arrays on cache-line
/// boundaries").
pub const LINE_ALIGN: u64 = 32;

/// Identifier of a memory region (array) within a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(u32);

impl RegionId {
    /// Creates a region id from a raw index.
    #[must_use]
    pub fn new(index: usize) -> Self {
        RegionId(u32::try_from(index).expect("region index overflow"))
    }

    /// The raw index.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region{}", self.0)
    }
}

/// A named, statically sized block of memory (an array).
///
/// Regions are laid out sequentially, each aligned to [`LINE_ALIGN`];
/// [`crate::Op::LdAddr`] materialises a region's base address.
///
/// The initial bytes are shared, never copied: no pass rewrites them,
/// so every clone of a program (each compile starts from one) points
/// at the kernel's one copy of its data.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    name: String,
    size: u64,
    init: Arc<[u8]>,
    observable: bool,
}

impl Region {
    /// Creates a zero-initialised region of `size` bytes.
    #[must_use]
    pub fn zeroed(name: impl Into<String>, size: u64) -> Self {
        Region {
            name: name.into(),
            size,
            init: Arc::from([]),
            observable: true,
        }
    }

    /// Marks the region as *scratch*: excluded from the observable-memory
    /// checksum. Used for the register allocator's spill area, whose
    /// residue is not program output.
    #[must_use]
    pub fn hidden(mut self) -> Self {
        self.observable = false;
        self
    }

    /// `true` when the region participates in the observable-memory
    /// checksum.
    #[must_use]
    pub fn is_observable(&self) -> bool {
        self.observable
    }

    /// Creates a region initialised from 64-bit float values.
    #[must_use]
    pub fn from_f64s(name: impl Into<String>, values: &[f64]) -> Self {
        Region::from_words(name, values.iter().map(|v| v.to_le_bytes()))
    }

    /// Creates a region initialised from 64-bit integer values.
    #[must_use]
    pub fn from_i64s(name: impl Into<String>, values: &[i64]) -> Self {
        Region::from_words(name, values.iter().map(|v| v.to_le_bytes()))
    }

    /// A region holding `words` in order, written straight into the
    /// shared buffer: one allocation, no copy.
    fn from_words(name: impl Into<String>, words: impl ExactSizeIterator<Item = [u8; 8]>) -> Self {
        let mut init: Arc<[u8]> = std::iter::repeat_n(0, words.len() * 8).collect();
        let bytes = Arc::get_mut(&mut init).expect("a fresh buffer is unique");
        for (slot, word) in bytes.chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&word);
        }
        Region {
            name: name.into(),
            size: init.len() as u64,
            init,
            observable: true,
        }
    }

    /// The region's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The region's size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The initial contents (shorter than `size`: the tail is zero).
    #[must_use]
    pub fn init(&self) -> &[u8] {
        &self.init
    }
}

/// A whole program: one (fully inlined) main function and its memory
/// regions.
///
/// Two programs are equal when they execute identically: same name,
/// same regions (initial bytes included) and equal main functions (see
/// [`Function`]'s equality, which ignores loop metadata). The harness
/// relies on this to simulate each distinct compiled program once.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    name: String,
    regions: Vec<Region>,
    main: Function,
}

impl Program {
    /// Creates an empty program with a trivial main function.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            regions: Vec::new(),
            main: Function::new("main"),
        }
    }

    /// The program's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a zero-initialised region of `size` bytes.
    pub fn add_region(&mut self, name: impl Into<String>, size: u64) -> RegionId {
        self.push_region(Region::zeroed(name, size))
    }

    /// Adds a fully specified region.
    pub fn push_region(&mut self, region: Region) -> RegionId {
        let id = RegionId::new(self.regions.len());
        self.regions.push(region);
        id
    }

    /// The regions, in declaration order.
    #[must_use]
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// A region by id.
    #[must_use]
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0 as usize]
    }

    /// Replaces the main function.
    pub fn set_main(&mut self, main: Function) {
        self.main = main;
    }

    /// The main function.
    #[must_use]
    pub fn main(&self) -> &Function {
        &self.main
    }

    /// The main function, mutably.
    pub fn main_mut(&mut self) -> &mut Function {
        &mut self.main
    }

    /// Base address of each region after sequential, line-aligned layout.
    /// Address 0 is reserved (null); the first region starts at
    /// [`LINE_ALIGN`].
    #[must_use]
    pub fn region_bases(&self) -> Vec<u64> {
        let mut bases = Vec::with_capacity(self.regions.len());
        let mut addr = LINE_ALIGN;
        for r in &self.regions {
            bases.push(addr);
            addr += r.size;
            addr = addr.div_ceil(LINE_ALIGN) * LINE_ALIGN;
        }
        bases
    }

    /// Total bytes of the laid-out address space.
    #[must_use]
    pub fn memory_size(&self) -> u64 {
        match (self.region_bases().last(), self.regions.last()) {
            (Some(base), Some(r)) => (base + r.size).div_ceil(LINE_ALIGN) * LINE_ALIGN,
            _ => LINE_ALIGN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_line_aligned_and_disjoint() {
        let mut p = Program::new("t");
        let _a = p.add_region("a", 40); // straddles 2 lines
        let _b = p.add_region("b", 8);
        let bases = p.region_bases();
        assert_eq!(bases[0] % LINE_ALIGN, 0);
        assert_eq!(bases[1] % LINE_ALIGN, 0);
        assert!(bases[1] >= bases[0] + 40);
        assert!(p.memory_size() >= bases[1] + 8);
        assert!(bases[0] >= LINE_ALIGN, "address 0 is reserved");
    }

    #[test]
    fn clones_share_initial_bytes() {
        let mut p = Program::new("t");
        p.push_region(Region::from_i64s("x", &[1, 2, 3]));
        let q = p.clone();
        assert_eq!(q.regions()[0].init(), p.regions()[0].init());
        assert!(std::ptr::eq(q.regions()[0].init(), p.regions()[0].init()));
    }

    /// `a[0..4] = a[i] * 2` as a counted loop, with an `li` whose
    /// immediate, a load hint and a spill flag the tests can vary.
    fn looping(init: &[i64]) -> Program {
        use crate::func::{Bound, CountedLoop};
        use crate::{BrCond, FuncBuilder, Inst, Op, RegClass};
        let mut p = Program::new("eq");
        let a = p.push_region(Region::from_i64s("a", init));
        let mut b = FuncBuilder::new("main");
        let preheader = b.current_block();
        let base = b.load_region_addr(a);
        let two = b.iconst(2);
        let i = b.iconst(0);
        let (header, body, exit) = (b.add_block(), b.add_block(), b.add_block());
        b.jmp(header);
        b.switch_to(header);
        let t = b.binop_imm(Op::CmpLt, i, 4);
        b.br(t, BrCond::Zero, exit, body);
        b.switch_to(body);
        let off = b.binop_imm(Op::Shl, i, 3);
        let addr = b.binop(Op::Add, base, off);
        let v = b.load_i(addr, 0).with_region(a).emit(&mut b);
        let w = b.binop(Op::Mul, v, two);
        b.store(w, addr, 0).with_region(a).emit(&mut b);
        let next = b.new_reg(RegClass::Int);
        b.push(Inst::op_imm(Op::Add, next, i, 1));
        b.push(Inst::copy(i, next));
        b.jmp(header);
        b.switch_to(exit);
        b.ret();
        let mut main = b.finish();
        main.loops.push(CountedLoop {
            header,
            body: vec![],
            latch: body,
            exit,
            preheader,
            counter: i,
            step: 1,
            bound: Bound::Imm(4),
            parent: None,
        });
        p.set_main(main);
        p
    }

    fn edit(p: &Program, f: impl FnOnce(&mut crate::Inst)) -> Program {
        let mut q = p.clone();
        let block = q.main().entry();
        let inst = q.main_mut().block_mut(block).insts.last_mut().unwrap();
        f(inst);
        q
    }

    #[test]
    fn programs_differing_only_in_loop_metadata_are_equal() {
        let p = looping(&[1, 2, 3, 4]);
        crate::verify_program(&p).unwrap();
        let mut q = p.clone();
        q.main_mut().loops.clear();
        assert!(p == q, "loop metadata is not executed");
        assert!(p == looping(&[1, 2, 3, 4]), "independently built");
    }

    #[test]
    fn programs_differing_in_what_executes_are_not_equal() {
        use crate::LocalityHint;
        let p = looping(&[1, 2, 3, 4]);
        assert!(p != edit(&p, |i| i.imm = Some(1)), "one immediate");
        assert!(p != edit(&p, |i| i.spill = true), "one spill flag");
        assert!(p != looping(&[1, 2, 3, 5]), "one initial byte");
        let mut q = p.clone();
        let body = &mut q.main_mut().block_mut(crate::BlockId::new(2)).insts;
        let load = body.iter_mut().find(|i| i.op.is_load()).expect("body loads");
        load.hint = LocalityHint::Hit;
        assert!(p != q, "one hint");
        let f = crate::Reg::virt(crate::RegClass::Float, 0);
        let (zero, negzero) = (crate::Inst::fli(f, 0.0), crate::Inst::fli(f, -0.0));
        assert!(zero != negzero, "float immediates compare by bits");
    }

    #[test]
    fn f64_init_round_trips() {
        let r = Region::from_f64s("x", &[1.5, -2.0]);
        assert_eq!(r.size(), 16);
        let got = f64::from_le_bytes(r.init()[0..8].try_into().unwrap());
        assert_eq!(got, 1.5);
    }
}
