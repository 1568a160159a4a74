//! Register assignment by interference-graph coloring, and the
//! spill-code rewriter.

use bsched_ir::{BlockId, Function, Inst, Program, Reg, RegClass, Terminator};

/// Number of allocatable integer registers: 31 architectural minus three
/// restore temporaries minus the spill frame pointer.
pub const INT_ALLOCATABLE: u32 = Reg::NUM_PHYS - 4;
/// Number of allocatable floating-point registers: 31 minus three
/// restore temporaries.
pub const FLOAT_ALLOCATABLE: u32 = Reg::NUM_PHYS - 3;

fn allocatable(class: RegClass) -> u32 {
    match class {
        RegClass::Int => INT_ALLOCATABLE,
        RegClass::Float => FLOAT_ALLOCATABLE,
    }
}

fn temp(class: RegClass, k: u32) -> Reg {
    debug_assert!(k < 3);
    Reg::phys(class, allocatable(class) + k)
}

/// The spill-frame pointer register.
fn frame_ptr() -> Reg {
    Reg::phys(RegClass::Int, Reg::NUM_PHYS - 1)
}

/// Where a virtual register ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Phys(Reg),
    Spill(u32),
}

/// Allocation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Virtual registers assigned to physical registers.
    pub assigned: u64,
    /// Virtual registers spilled to stack slots.
    pub spilled: u64,
    /// Restore loads inserted.
    pub restores: u64,
    /// Spill stores inserted.
    pub spill_stores: u64,
}

/// Where each register ended up, indexed by [`Reg::dense`] (`None` for
/// physical registers).
type Locs = Vec<Option<Loc>>;

fn loc(locs: &Locs, r: Reg) -> Option<Loc> {
    locs.get(r.dense()).copied().flatten()
}

/// Exact-interference assignment: colors each class's virtual registers
/// with the allocatable register count and spills the uncolorable
/// remainder (see [`crate::coloring`]).
fn assign_by_coloring(func: &Function) -> (Locs, u32, AllocStats) {
    let g = crate::coloring::interference(func);
    let mut locs: Locs = vec![None; g.nodes.iter().map(|r| r.dense() + 1).max().unwrap_or(0)];
    let mut slots: u32 = 0;
    let mut stats = AllocStats::default();
    for class in RegClass::ALL {
        let k = allocatable(class);
        let (colors, spilled) = crate::coloring::color_class(&g, class, k);
        for (reg, c) in g.nodes.iter().zip(colors) {
            if let Some(c) = c {
                locs[reg.dense()] = Some(Loc::Phys(Reg::phys(class, c)));
                stats.assigned += 1;
            }
        }
        for reg in spilled {
            locs[reg.dense()] = Some(Loc::Spill(slots));
            slots += 1;
            stats.spilled += 1;
        }
    }
    (locs, slots, stats)
}

fn rewrite_block(
    func: &mut Function,
    id: BlockId,
    locs: &Locs,
    spill_region: Option<bsched_ir::RegionId>,
    stats: &mut AllocStats,
) {
    let fp = frame_ptr();
    let old = std::mem::take(&mut func.block_mut(id).insts);
    let mut out: Vec<Inst> = Vec::with_capacity(old.len());
    // Block-local temp cache: which spilled register each temp currently
    // holds. Values are written through to their slots eagerly, so a
    // cached temp can always be discarded; a repeated use within the
    // block reuses the temp instead of reloading.
    let mut cache: [[Option<Reg>; 3]; 2] = [[None; 3]; 2];
    let mut lru: [[u64; 3]; 2] = [[0; 3]; 2];
    let mut tick: u64 = 0;
    let class_ix = |c: RegClass| match c {
        RegClass::Int => 0usize,
        RegClass::Float => 1usize,
    };
    for mut inst in old {
        tick += 1;
        // Map spilled sources to cached temps, restoring at most once per
        // distinct register.
        let srcs_snapshot: Vec<Reg> = inst.srcs().to_vec();
        let mut claimed: Vec<(Reg, Reg)> = Vec::new(); // (vreg, temp)
        for &s in &srcs_snapshot {
            if let Some(Loc::Spill(slot)) = loc(locs, s) {
                if claimed.iter().any(|&(v, _)| v == s) {
                    continue;
                }
                let ci = class_ix(s.class());
                // Already cached?
                if let Some(k) = (0..3).find(|&k| cache[ci][k] == Some(s)) {
                    lru[ci][k] = tick;
                    claimed.push((s, temp(s.class(), k as u32)));
                    continue;
                }
                // Pick a victim temp not claimed by this instruction.
                let k = (0..3)
                    .filter(|&k| !claimed.iter().any(|&(_, t)| t == temp(s.class(), k as u32)))
                    .min_by_key(|&k| lru[ci][k])
                    .expect("three temps, at most three sources");
                let t = temp(s.class(), k as u32);
                let ld = Inst::load(t, fp, i64::from(slot) * 8)
                    .with_region(spill_region.expect("spills imply a region"))
                    .as_spill();
                out.push(ld);
                stats.restores += 1;
                cache[ci][k] = Some(s);
                lru[ci][k] = tick;
                claimed.push((s, t));
            }
        }
        for s in inst.srcs_mut() {
            match loc(locs, *s) {
                Some(Loc::Phys(p)) => *s = p,
                Some(Loc::Spill(_)) => {
                    *s = claimed
                        .iter()
                        .find(|&&(v, _)| v == *s)
                        .expect("claimed above")
                        .1;
                }
                None => debug_assert!(s.is_phys(), "unallocated virtual register {s}"),
            }
        }
        // Destination: write into a temp, store through to the slot, and
        // keep the temp cached for later uses.
        let mut post_store: Option<(u32, Reg)> = None;
        if let Some(d) = inst.dst {
            match loc(locs, d) {
                Some(Loc::Phys(p)) => inst.dst = Some(p),
                Some(Loc::Spill(slot)) => {
                    let ci = class_ix(d.class());
                    let k = (0..3)
                        .filter(|&k| !claimed.iter().any(|&(_, t)| t == temp(d.class(), k as u32)))
                        .min_by_key(|&k| lru[ci][k])
                        .unwrap_or(0);
                    let t = temp(d.class(), k as u32);
                    inst.dst = Some(t);
                    // The redefinition invalidates any other cached copy.
                    for (slot_k, entry) in cache[ci].iter_mut().enumerate() {
                        if slot_k != k && *entry == Some(d) {
                            *entry = None;
                        }
                    }
                    cache[ci][k] = Some(d);
                    lru[ci][k] = tick;
                    post_store = Some((slot, t));
                }
                None => debug_assert!(d.is_phys(), "unallocated virtual register {d}"),
            }
        } else if inst.dst.is_none() {
            // no destination
        }
        // Any non-spilled def that happens to BE a temp register (from a
        // previous allocation pass) would invalidate the cache; physical
        // temps never appear in unallocated input, so nothing to do.
        out.push(inst);
        if let Some((slot, t)) = post_store {
            let st = Inst::store(t, fp, i64::from(slot) * 8)
                .with_region(spill_region.expect("spills imply a region"))
                .as_spill();
            out.push(st);
            stats.spill_stores += 1;
        }
    }
    // Terminator condition.
    if let Terminator::Br { cond, .. } = &func.block(id).term.clone() {
        match loc(locs, *cond) {
            Some(Loc::Phys(p)) => {
                if let Terminator::Br { cond, .. } = &mut func.block_mut(id).term {
                    *cond = p;
                }
            }
            Some(Loc::Spill(slot)) => {
                let t = temp(RegClass::Int, 2);
                let ld = Inst::load(t, fp, i64::from(slot) * 8)
                    .with_region(spill_region.expect("spills imply a region"))
                    .as_spill();
                out.push(ld);
                stats.restores += 1;
                if let Terminator::Br { cond, .. } = &mut func.block_mut(id).term {
                    *cond = t;
                }
            }
            None => {}
        }
    }
    func.block_mut(id).insts = out;
}

/// Allocates registers for the program's main function, inserting spill
/// code against a fresh `spill` region when the virtual registers exceed
/// the architectural register file.
///
/// # Panics
///
/// Panics (debug) if an unallocated virtual register survives.
pub fn allocate(program: &mut Program) -> AllocStats {
    let (locs, slots, mut stats) = assign_by_coloring(program.main());
    let spill_region = (slots > 0).then(|| {
        program
            .push_region(bsched_ir::Region::zeroed("spill", u64::from(slots.max(1)) * 8).hidden())
    });

    let func = program.main_mut();
    let nblocks = func.blocks().len();
    for bi in 0..nblocks {
        rewrite_block(func, BlockId::new(bi), &locs, spill_region, &mut stats);
    }
    if let Some(region) = spill_region {
        // Materialise the frame pointer at function entry.
        let entry = func.entry();
        func.block_mut(entry)
            .insts
            .insert(0, Inst::ldaddr(frame_ptr(), region));
    }
    // The loop metadata's registers are now stale; later passes must not
    // consume it.
    func.loops.clear();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::{Interp, Op, Program};
    use bsched_workloads::lang::ast::{Expr, Index};
    use bsched_workloads::lang::{ArrayInit, Kernel};

    fn all_physical(func: &Function) -> bool {
        func.iter_blocks().all(|(_, b)| {
            b.insts
                .iter()
                .all(|i| i.srcs().iter().all(|s| s.is_phys()) && i.dst.is_none_or(|d| d.is_phys()))
                && b.term.cond_reg().is_none_or(|c| c.is_phys())
        })
    }

    fn axpy(n: i64) -> Program {
        let mut k = Kernel::new("axpy");
        let x = k.array("x", n as u64, ArrayInit::Ramp(0.0, 1.0));
        let y = k.array("y", n as u64, ArrayInit::Ramp(1.0, 0.5));
        let i = k.int_var("i");
        let body = vec![k.store(
            y,
            Index::of(i),
            Expr::load(x, Index::of(i)) * Expr::Float(2.0) + Expr::load(y, Index::of(i)),
        )];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(n), body));
        k.lower()
    }

    #[test]
    fn small_kernel_allocates_without_spills() {
        let mut p = axpy(16);
        let want = Interp::new(&p).run().unwrap().checksum;
        let stats = allocate(&mut p);
        assert_eq!(stats.spilled, 0);
        assert!(all_physical(p.main()));
        assert!(bsched_ir::verify_program(&p).is_ok());
        assert_eq!(Interp::new(&p).run().unwrap().checksum, want);
    }

    /// Dozens of simultaneously live float accumulators force spills.
    fn pressure_kernel(nacc: usize) -> Program {
        let mut k = Kernel::new("pressure");
        let a = k.array("a", 64, ArrayInit::Random(5));
        let out = k.array("out", nacc as u64, ArrayInit::Zero);
        let i = k.int_var("i");
        let accs: Vec<_> = (0..nacc).map(|q| k.float_var(format!("s{q}"))).collect();
        for (q, &s) in accs.iter().enumerate() {
            k.push(k.assign(s, Expr::Float(q as f64)));
        }
        let mut body = Vec::new();
        for (q, &s) in accs.iter().enumerate() {
            body.push(k.assign(
                s,
                Expr::Var(s) + Expr::load(a, Index::of_plus(i, (q % 4) as i64)),
            ));
        }
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(16), body));
        for (q, &s) in accs.iter().enumerate() {
            k.push(k.store(out, Index::constant(q as i64), Expr::Var(s)));
        }
        k.lower()
    }

    #[test]
    fn high_pressure_spills_and_stays_correct() {
        let mut p = pressure_kernel(40); // 40 live accumulators > 28 fp regs
        let want = Interp::new(&p).run().unwrap().checksum;
        let stats = allocate(&mut p);
        assert!(stats.spilled > 0, "{stats:?}");
        assert!(stats.restores > 0 && stats.spill_stores > 0);
        assert!(all_physical(p.main()));
        assert!(bsched_ir::verify_program(&p).is_ok());
        assert_eq!(Interp::new(&p).run().unwrap().checksum, want);
        // Spill code is marked for the simulator's separate accounting.
        let spill_marked = p
            .main()
            .iter_blocks()
            .flat_map(|(_, b)| &b.insts)
            .filter(|i| i.spill)
            .count();
        assert!(spill_marked as u64 >= stats.restores + stats.spill_stores);
    }

    #[test]
    fn unrolled_code_allocates_correctly() {
        use bsched_opt::{unroll_function, UnrollLimits};
        let mut p = axpy(37);
        let want = Interp::new(&p).run().unwrap().checksum;
        unroll_function(p.main_mut(), &UnrollLimits::for_factor(8));
        bsched_opt::copy_propagate(p.main_mut());
        bsched_opt::dead_code_elim(p.main_mut());
        let _stats = allocate(&mut p);
        assert!(all_physical(p.main()));
        assert_eq!(Interp::new(&p).run().unwrap().checksum, want);
    }

    #[test]
    fn scheduled_then_allocated_is_still_correct() {
        use bsched_core::{schedule_function, SchedulerKind, WeightConfig};
        let mut p = pressure_kernel(35);
        let want = Interp::new(&p).run().unwrap().checksum;
        schedule_function(p.main_mut(), &WeightConfig::new(SchedulerKind::Balanced));
        allocate(&mut p);
        assert_eq!(Interp::new(&p).run().unwrap().checksum, want);
    }

    #[test]
    fn spilled_branch_condition() {
        // Force an integer spill with many live int scalars used across a
        // branch.
        let mut k = Kernel::new("intpress");
        let out = k.array("out", 64, ArrayInit::Zero);
        let vars: Vec<_> = (0..40).map(|q| k.int_var(format!("v{q}"))).collect();
        for (q, &v) in vars.iter().enumerate() {
            k.push(k.assign(v, Expr::Int(q as i64)));
        }
        let i = k.int_var("i");
        let mut body = Vec::new();
        for &v in &vars {
            body.push(k.assign(v, Expr::Var(v) + Expr::Int(1)));
        }
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(8), body));
        for (q, &v) in vars.iter().enumerate() {
            k.push(k.store(
                out,
                Index::constant(q as i64),
                Expr::IntToFloat(Box::new(Expr::Var(v))),
            ));
        }
        let mut p = k.lower();
        let want = Interp::new(&p).run().unwrap().checksum;
        let stats = allocate(&mut p);
        assert!(stats.spilled > 0);
        assert!(all_physical(p.main()));
        assert_eq!(Interp::new(&p).run().unwrap().checksum, want);
    }

    #[test]
    fn allocation_is_idempotent_on_physical_code() {
        let mut p = axpy(8);
        allocate(&mut p);
        let snapshot = format!("{}", p.main());
        let stats = allocate(&mut p);
        assert_eq!(stats.spilled, 0);
        assert_eq!(snapshot, format!("{}", p.main()));
    }

    #[test]
    fn temp_registers_do_not_collide_with_allocatable() {
        for class in RegClass::ALL {
            for k in 0..3 {
                assert!(temp(class, k).index() >= allocatable(class));
            }
        }
        assert_eq!(frame_ptr().index(), Reg::NUM_PHYS - 1);
        let _ = Op::Add;
    }
}
