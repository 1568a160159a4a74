//! Cleanup passes run between the structural optimizations: local copy
//! propagation, global dead-code elimination, straight-chain block
//! merging, and counted-loop metadata refresh.

use bsched_ir::{Cfg, Dominators, Function, LoopForest, Op, Reg, RegSet};
use bsched_util::{FastHashMap, FastHashSet};

/// Local (per-block) copy propagation: uses of `mov dst, src` results are
/// rewritten to `src` until either register is redefined. Run
/// [`dead_code_elim`] afterwards to drop the dead moves.
pub fn copy_propagate(func: &mut Function) {
    let nblocks = func.blocks().len();
    for bi in 0..nblocks {
        let id = bsched_ir::BlockId::new(bi);
        let mut map: FastHashMap<Reg, Reg> = FastHashMap::default();
        let block = func.block_mut(id);
        for inst in &mut block.insts {
            for s in inst.srcs_mut() {
                if let Some(&to) = map.get(s) {
                    *s = to;
                }
            }
            if let Some(d) = inst.dst {
                // Any mapping through the redefined register dies.
                map.retain(|_, v| *v != d);
                map.remove(&d);
                if matches!(inst.op, Op::Mov | Op::FMov) {
                    map.insert(d, inst.srcs()[0]);
                }
            }
        }
        // The terminator condition can also be rewritten.
        if let bsched_ir::Terminator::Br { cond, .. } = &mut block.term {
            if let Some(&to) = map.get(cond) {
                *cond = to;
            }
        }
    }
}

/// Global dead-code elimination: removes instructions whose destination is
/// never used anywhere in the function (sources, store values, branch
/// conditions). Stores are never removed; dead loads are (they have no
/// architectural side effect). Iterates to a fixpoint.
///
/// Returns the number of instructions removed.
pub fn dead_code_elim(func: &mut Function) -> usize {
    let mut removed = 0;
    loop {
        let mut used = RegSet::for_function(func);
        for (_, block) in func.iter_blocks() {
            for inst in &block.insts {
                used.extend(inst.srcs().iter().copied());
            }
            if let Some(c) = block.term.cond_reg() {
                used.insert(c);
            }
        }
        let mut removed_this_round = 0;
        let nblocks = func.blocks().len();
        for bi in 0..nblocks {
            let id = bsched_ir::BlockId::new(bi);
            let block = func.block_mut(id);
            let before = block.insts.len();
            block.insts.retain(|inst| match inst.dst {
                Some(d) => inst.op.is_store() || used.contains(d),
                None => true,
            });
            removed_this_round += before - block.insts.len();
        }
        removed += removed_this_round;
        if removed_this_round == 0 {
            return removed;
        }
    }
}

/// Merges straight chains: when `X` ends in an unconditional jump to `Y`,
/// `Y` has no other predecessors, and `Y` is not a loop header/latch or
/// the entry, `Y`'s contents are folded into `X`. Emptied blocks become
/// unreachable `ret` stubs (block ids stay stable).
///
/// Returns the number of merges performed.
pub fn merge_straight_chains(func: &mut Function) -> usize {
    let mut merges = 0;
    loop {
        let cfg = Cfg::new(func);
        let protected: FastHashSet<bsched_ir::BlockId> = func
            .loops
            .iter()
            .flat_map(|l| [l.header, l.latch])
            .chain([func.entry()])
            .collect();
        let mut did = false;
        for &x in cfg.rpo() {
            let y = match func.block(x).term {
                bsched_ir::Terminator::Jmp(y) => y,
                _ => continue,
            };
            if y == x || protected.contains(&y) || cfg.preds(y).len() != 1 {
                continue;
            }
            // Fold Y into X.
            let y_block = func.block_mut(y);
            let insts = std::mem::take(&mut y_block.insts);
            let term = std::mem::replace(&mut y_block.term, bsched_ir::Terminator::Ret);
            let x_block = func.block_mut(x);
            x_block.insts.extend(insts);
            x_block.term = term;
            // Loop metadata naming the dissolved block now means X: a
            // loop whose preheader (or exit) was folded away would
            // otherwise send later passes — e.g. the unroller's bound
            // materialization — into an unreachable stub.
            for l in &mut func.loops {
                if l.preheader == y {
                    l.preheader = x;
                }
                if l.exit == y {
                    l.exit = x;
                }
            }
            merges += 1;
            did = true;
            break; // CFG changed; recompute.
        }
        if !did {
            return merges;
        }
    }
}

/// Recomputes each [`bsched_ir::CountedLoop`]'s `body` list from the
/// natural-loop structure (header/latch anchored), dropping blocks that
/// structural passes dissolved. Loops whose header no longer anchors a
/// natural loop are left untouched.
pub fn refresh_loop_bodies(func: &mut Function) {
    let cfg = Cfg::new(func);
    let dom = Dominators::new(func, &cfg);
    let forest = LoopForest::new(&cfg, &dom);
    let updates: Vec<(usize, Vec<bsched_ir::BlockId>)> = func
        .loops
        .iter()
        .enumerate()
        .filter_map(|(i, meta)| {
            let nat = forest
                .loops()
                .iter()
                .find(|l| l.header == meta.header && l.contains(meta.latch))?;
            let mut body: Vec<_> = nat
                .blocks
                .iter()
                .copied()
                .filter(|&b| b != meta.header && b != meta.latch)
                .collect();
            body.sort_by_key(|b| b.index());
            Some((i, body))
        })
        .collect();
    for (i, body) in updates {
        func.loops[i].body = body;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::{BrCond, FuncBuilder, Inst, Op, Program};

    #[test]
    fn dce_removes_dead_chain_keeps_stores() {
        let mut p = Program::new("t");
        let r = p.add_region("a", 64);
        let mut b = FuncBuilder::new("main");
        let base = b.load_region_addr(r);
        let x = b.iconst(1);
        let dead1 = b.binop_imm(Op::Add, x, 2);
        let _dead2 = b.binop_imm(Op::Mul, dead1, 3);
        let live = b.binop_imm(Op::Add, x, 5);
        b.store(live, base, 0).with_region(r).emit(&mut b);
        let _dead_load = b.load_f(base, 8).with_region(r).emit(&mut b);
        b.ret();
        let mut f = b.finish();
        let removed = dead_code_elim(&mut f);
        assert_eq!(removed, 3);
        let ops: Vec<Op> = f.block(f.entry()).insts.iter().map(|i| i.op).collect();
        assert_eq!(ops, vec![Op::LdAddr, Op::Li, Op::Add, Op::St]);
    }

    #[test]
    fn copy_prop_then_dce_removes_moves() {
        let mut p = Program::new("t");
        let r = p.add_region("a", 64);
        let mut b = FuncBuilder::new("main");
        let base = b.load_region_addr(r);
        let x = b.iconst(7);
        let y = b.unop(Op::Mov, x);
        let z = b.binop_imm(Op::Add, y, 1);
        b.store(z, base, 0).with_region(r).emit(&mut b);
        b.ret();
        let mut f = b.finish();
        copy_propagate(&mut f);
        let removed = dead_code_elim(&mut f);
        assert_eq!(removed, 1, "the mov is dead after propagation");
        // The add now reads x directly.
        let add = f
            .block(f.entry())
            .insts
            .iter()
            .find(|i| i.op == Op::Add)
            .unwrap();
        assert_eq!(add.srcs()[0], x);
    }

    #[test]
    fn copy_prop_respects_redefinition() {
        let mut b = FuncBuilder::new("m");
        let x = b.iconst(1);
        let y = b.unop(Op::Mov, x);
        // redefine x, then use y: must NOT be rewritten to (new) x.
        b.push(Inst::li(x, 99));
        let z = b.binop_imm(Op::Add, y, 0);
        let _keep = b.binop(Op::Add, z, x);
        b.ret();
        let mut f = b.finish();
        copy_propagate(&mut f);
        let add = f
            .block(f.entry())
            .insts
            .iter()
            .find(|i| i.op == Op::Add)
            .unwrap();
        assert_eq!(
            add.srcs()[0],
            y,
            "mapping must die when the source is redefined"
        );
    }

    #[test]
    fn chain_merge_folds_diamond_tail() {
        let mut b = FuncBuilder::new("m");
        let mid = b.add_block();
        let tail = b.add_block();
        let c = b.iconst(0);
        let _u = c;
        b.jmp(mid);
        b.switch_to(mid);
        let v = b.iconst(5);
        b.jmp(tail);
        b.switch_to(tail);
        let _w = b.binop_imm(Op::Add, v, 1);
        b.ret();
        let mut f = b.finish();
        let merges = merge_straight_chains(&mut f);
        assert_eq!(merges, 2, "entry<-mid<-tail all fold");
        assert_eq!(f.block(f.entry()).insts.len(), 3);
        assert!(matches!(
            f.block(f.entry()).term,
            bsched_ir::Terminator::Ret
        ));
    }

    #[test]
    fn chain_merge_keeps_loop_headers_and_latches() {
        // entry -> header; header -> body|exit; body -> latch; latch -> header.
        let mut b = FuncBuilder::new("m");
        let header = b.add_block();
        let body = b.add_block();
        let latch = b.add_block();
        let exit = b.add_block();
        let j = b.iconst(0);
        let n = b.iconst(4);
        b.jmp(header);
        b.switch_to(header);
        let c = b.binop(Op::CmpLt, j, n);
        b.br(c, BrCond::Zero, exit, body);
        b.switch_to(body);
        let _w = b.iconst(9);
        b.jmp(latch);
        b.switch_to(latch);
        b.push(Inst::op_imm(Op::Add, j, j, 1));
        b.jmp(header);
        b.switch_to(exit);
        b.ret();
        let mut f = b.finish();
        f.loops.push(bsched_ir::CountedLoop {
            header,
            body: vec![body],
            latch,
            exit,
            preheader: f.entry(),
            counter: j,
            step: 1,
            bound: bsched_ir::Bound::Reg(n),
            parent: None,
        });
        let merges = merge_straight_chains(&mut f);
        // body -> latch must NOT merge (latch protected); entry -> header
        // must NOT merge (header protected).
        assert_eq!(merges, 0);
        assert!(bsched_ir::verify_function(&f).is_ok());
    }

    #[test]
    fn refresh_bodies_after_block_dissolves() {
        let mut b = FuncBuilder::new("m");
        let header = b.add_block();
        let body1 = b.add_block();
        let body2 = b.add_block();
        let latch = b.add_block();
        let exit = b.add_block();
        let j = b.iconst(0);
        let n = b.iconst(4);
        b.jmp(header);
        b.switch_to(header);
        let c = b.binop(Op::CmpLt, j, n);
        b.br(c, BrCond::Zero, exit, body1);
        b.switch_to(body1);
        let _w = b.iconst(9);
        b.jmp(body2);
        b.switch_to(body2);
        let _w2 = b.iconst(10);
        b.jmp(latch);
        b.switch_to(latch);
        b.push(Inst::op_imm(Op::Add, j, j, 1));
        b.jmp(header);
        b.switch_to(exit);
        b.ret();
        let mut f = b.finish();
        f.loops.push(bsched_ir::CountedLoop {
            header,
            body: vec![body1, body2],
            latch,
            exit,
            preheader: f.entry(),
            counter: j,
            step: 1,
            bound: bsched_ir::Bound::Reg(n),
            parent: None,
        });
        let merges = merge_straight_chains(&mut f);
        assert_eq!(merges, 1, "body1 <- body2 folds");
        refresh_loop_bodies(&mut f);
        assert_eq!(f.loops[0].body, vec![body1]);
    }
}

/// Block-local common-subexpression elimination by value numbering.
///
/// Pure operations (and loads, until a potentially aliasing store) whose
/// operands carry the same value numbers are replaced by copies of the
/// first computation; run [`copy_propagate`] + [`dead_code_elim`]
/// afterwards. This models the Multiflow compiler's local optimization
/// level — without it the frontend's repeated address chains double every
/// loop body.
///
/// Returns the number of instructions replaced by copies.
pub fn local_cse(func: &mut Function) -> usize {
    use bsched_ir::{Inst, RegionId};
    #[derive(PartialEq, Eq, Hash)]
    struct Key {
        op: Op,
        srcs: Vec<(Reg, u32)>,
        imm: Option<i64>,
        fimm_bits: u64,
        region: Option<RegionId>,
    }
    let mut replaced = 0;
    let nblocks = func.blocks().len();
    for bi in 0..nblocks {
        let id = bsched_ir::BlockId::new(bi);
        let mut version: FastHashMap<Reg, u32> = FastHashMap::default();
        // key -> (result reg, result version at definition time)
        let mut table: FastHashMap<Key, (Reg, u32)> = FastHashMap::default();
        // Copy forwarding so CSE-inserted copies share value numbers.
        let mut copies: FastHashMap<Reg, Reg> = FastHashMap::default();
        let block = func.block_mut(id);
        let mut load_epoch: u32 = 0;
        for inst in &mut block.insts {
            let ver =
                |version: &FastHashMap<Reg, u32>, r: Reg| version.get(&r).copied().unwrap_or(0);
            let canon =
                |copies: &FastHashMap<Reg, Reg>, r: Reg| copies.get(&r).copied().unwrap_or(r);
            let cse_able = match inst.op {
                Op::St | Op::LdAddr => false,
                Op::Ld => true,
                _ => true,
            };
            if cse_able && inst.dst.is_some() {
                let mut srcs: Vec<(Reg, u32)> = inst
                    .srcs()
                    .iter()
                    .map(|&s| {
                        let c = canon(&copies, s);
                        (c, ver(&version, c))
                    })
                    .collect();
                if inst.op.is_load() {
                    // Fold the store epoch into the key so loads never
                    // match across a potentially aliasing store.
                    srcs.push((Reg::phys(bsched_ir::RegClass::Int, 0), load_epoch));
                }
                let key = Key {
                    op: inst.op,
                    srcs,
                    imm: inst.imm,
                    fimm_bits: inst.fimm.to_bits(),
                    region: inst.mem.and_then(|m| m.region),
                };
                match table.get(&key) {
                    Some(&(prev, prev_ver)) if ver(&version, prev) == prev_ver => {
                        let dst = inst.dst.expect("cse-able op defines");
                        *inst = Inst::copy(dst, prev);
                        replaced += 1;
                    }
                    _ => {
                        let dst = inst.dst.expect("cse-able op defines");
                        let new_ver = ver(&version, dst) + 1;
                        table.insert(key, (dst, new_ver));
                    }
                }
            }
            if inst.op.is_store() {
                load_epoch += 1;
            }
            if let Some(d) = inst.dst {
                *version.entry(d).or_insert(0) += 1;
                copies.retain(|_, v| *v != d);
                copies.remove(&d);
                if matches!(inst.op, Op::Mov | Op::FMov) {
                    let src = inst.srcs()[0];
                    let resolved = copies.get(&src).copied().unwrap_or(src);
                    copies.insert(d, resolved);
                }
            }
        }
    }
    replaced
}

#[cfg(test)]
mod cse_tests {
    use super::*;
    use bsched_ir::{FuncBuilder, Inst, Interp, Op, Program, RegClass};

    #[test]
    fn duplicate_address_chains_collapse() {
        let mut p = Program::new("t");
        let r = p.add_region("a", 128);
        let mut b = FuncBuilder::new("main");
        let base = b.load_region_addr(r);
        let i = b.iconst(3);
        // Two identical chains: shl/add/load.
        let t1 = b.binop_imm(Op::Shl, i, 3);
        let a1 = b.binop(Op::Add, base, t1);
        let x1 = b.load_f(a1, 0).with_region(r).emit(&mut b);
        let t2 = b.binop_imm(Op::Shl, i, 3);
        let a2 = b.binop(Op::Add, base, t2);
        let x2 = b.load_f(a2, 0).with_region(r).emit(&mut b);
        let s = b.binop(Op::FAdd, x1, x2);
        b.store(s, base, 8).with_region(r).emit(&mut b);
        b.ret();
        p.set_main(b.finish());
        let want = Interp::new(&p).run().unwrap().checksum;
        let n = local_cse(p.main_mut());
        assert!(n >= 3, "shl, add and load all dedup, got {n}");
        copy_propagate(p.main_mut());
        dead_code_elim(p.main_mut());
        assert_eq!(Interp::new(&p).run().unwrap().checksum, want);
        let loads = p
            .main()
            .block(p.main().entry())
            .insts
            .iter()
            .filter(|x| x.op.is_load())
            .count();
        assert_eq!(loads, 1, "redundant load eliminated");
    }

    #[test]
    fn stores_invalidate_load_cse() {
        let mut p = Program::new("t");
        let r = p.add_region("a", 64);
        let mut b = FuncBuilder::new("main");
        let base = b.load_region_addr(r);
        let one = b.fconst(1.0);
        let x1 = b.load_f(base, 0).with_region(r).emit(&mut b);
        b.store(one, base, 0).with_region(r).emit(&mut b);
        let x2 = b.load_f(base, 0).with_region(r).emit(&mut b); // must reload
        let s = b.binop(Op::FAdd, x1, x2);
        b.store(s, base, 8).with_region(r).emit(&mut b);
        b.ret();
        p.set_main(b.finish());
        let want = Interp::new(&p).run().unwrap().checksum;
        local_cse(p.main_mut());
        copy_propagate(p.main_mut());
        dead_code_elim(p.main_mut());
        assert_eq!(Interp::new(&p).run().unwrap().checksum, want);
        let loads = p
            .main()
            .block(p.main().entry())
            .insts
            .iter()
            .filter(|x| x.op.is_load())
            .count();
        assert_eq!(loads, 2, "the store kills the first load's value");
    }

    #[test]
    fn redefinition_blocks_cse() {
        let mut b = FuncBuilder::new("m");
        let x = b.iconst(5);
        let y1 = b.binop_imm(Op::Add, x, 1);
        b.push(Inst::li(x, 9)); // redefine x
        let y2 = b.binop_imm(Op::Add, x, 1); // NOT the same value
        let _z = b.binop(Op::Add, y1, y2);
        b.ret();
        let mut f = b.finish();
        let n = local_cse(&mut f);
        assert_eq!(n, 0);
    }

    #[test]
    fn reuse_of_stale_result_register_blocked() {
        let mut b = FuncBuilder::new("m");
        let x = b.iconst(5);
        let y = b.new_reg(RegClass::Int);
        b.push(Inst::op_imm(Op::Add, y, x, 1)); // y = x+1
        b.push(Inst::li(y, 0)); // y redefined!
        let y2 = b.binop_imm(Op::Add, x, 1); // same expression, y stale
        let _z = b.binop(Op::Add, y2, y);
        b.ret();
        let mut f = b.finish();
        let n = local_cse(&mut f);
        assert_eq!(n, 0, "stale result register must not be reused");
    }
}
