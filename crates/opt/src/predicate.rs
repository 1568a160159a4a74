//! If-conversion of simple diamonds and triangles into conditional moves.
//!
//! The paper's Multiflow compiler "does predicated execution on simple
//! conditional branches" using the Alpha's `CMOV` (§4.2 footnote 2); this
//! is what makes single-conditional loop bodies straight-line and
//! therefore unrollable. We convert:
//!
//! ```text
//! A: br c -> T, F        A: ...; guard = c
//! T: t-code; jmp J   =>     t-code', f-code'   (defs renamed)
//! F: f-code; jmp J          r = select(guard, r_t, r_f)  for each def
//! J: ...                    jmp J
//! ```
//!
//! Arms must be straight-line, store-free, and small. Loads in arms become
//! unconditional (speculative); the machine model's loads are non-faulting
//! (out-of-image reads return zero), matching the "safe speculation"
//! assumption documented in DESIGN.md.

use bsched_ir::{BlockId, BrCond, Cfg, Function, Inst, Liveness, Reg, Terminator};
use bsched_util::{FastHashMap, FastHashSet};

/// Maximum instructions per predicated arm ("simple" conditionals only).
pub const MAX_ARM_INSTS: usize = 12;

/// `true` if a block can serve as a predicated arm.
fn arm_ok(func: &Function, b: BlockId, join: BlockId) -> bool {
    let blk = func.block(b);
    blk.term == Terminator::Jmp(join)
        && blk.insts.len() <= MAX_ARM_INSTS
        && blk.insts.iter().all(|i| !i.op.is_store())
}

/// Renames every def in an arm to fresh registers; returns the rewritten
/// instructions and the final name of each renamed register.
fn rename_arm(func: &mut Function, insts: &[Inst]) -> (Vec<Inst>, FastHashMap<Reg, Reg>) {
    let mut map: FastHashMap<Reg, Reg> = FastHashMap::default();
    let mut out = Vec::with_capacity(insts.len());
    for inst in insts {
        let mut ni = inst.clone();
        for s in ni.srcs_mut() {
            if let Some(&n) = map.get(s) {
                *s = n;
            }
        }
        if let Some(d) = ni.dst {
            let nd = func.new_reg(d.class());
            map.insert(d, nd);
            ni.dst = Some(nd);
        }
        out.push(ni);
    }
    (out, map)
}

/// Tries to if-convert the branch terminating `a`. Returns `true` on
/// success.
fn try_convert(func: &mut Function, cfg: &Cfg, live: &Liveness, a: BlockId) -> bool {
    let (cond, when, taken, fall) = match func.block(a).term {
        Terminator::Br {
            cond,
            when,
            taken,
            fall,
        } => (cond, when, taken, fall),
        _ => return false,
    };
    if taken == fall {
        return false;
    }
    let protected: FastHashSet<BlockId> = func
        .loops
        .iter()
        .flat_map(|l| [l.header, l.latch])
        .collect();

    // Identify the shape: diamond (both arms join at J) or triangle (one
    // arm is the join itself).
    let (t_arm, f_arm, join): (Option<BlockId>, Option<BlockId>, BlockId) = {
        let single_pred = |b: BlockId| cfg.preds(b).len() == 1 && !protected.contains(&b);
        let tj = match func.block(taken).term {
            Terminator::Jmp(j) => Some(j),
            _ => None,
        };
        let fj = match func.block(fall).term {
            Terminator::Jmp(j) => Some(j),
            _ => None,
        };
        if let (Some(tj), Some(fj)) = (tj, fj) {
            if tj == fj && single_pred(taken) && single_pred(fall) && tj != a {
                (Some(taken), Some(fall), tj)
            } else if tj == fall && single_pred(taken) {
                (Some(taken), None, fall) // triangle: fall IS the join
            } else if fj == taken && single_pred(fall) {
                (None, Some(fall), taken)
            } else {
                return false;
            }
        } else if tj == Some(fall) && single_pred(taken) {
            (Some(taken), None, fall)
        } else if fj == Some(taken) && single_pred(fall) {
            (None, Some(fall), taken)
        } else {
            return false;
        }
    };
    if let Some(t) = t_arm {
        if !arm_ok(func, t, join) {
            return false;
        }
    }
    if let Some(f) = f_arm {
        if !arm_ok(func, f, join) {
            return false;
        }
    }
    // A triangle's join gains no new predecessor count issues; a diamond's
    // join keeps its other predecessors.

    // Orient the arms by the branch sense: `nz` runs when cond != 0.
    let (nz_arm, z_arm) = match when {
        BrCond::NonZero => (t_arm, f_arm),
        BrCond::Zero => (f_arm, t_arm),
    };

    // Snapshot arm code.
    let nz_insts: Vec<Inst> = nz_arm
        .map(|b| func.block(b).insts.clone())
        .unwrap_or_default();
    let z_insts: Vec<Inst> = z_arm
        .map(|b| func.block(b).insts.clone())
        .unwrap_or_default();

    // Guard copy (protects the condition from arm redefinition).
    let guard = func.new_reg(bsched_ir::RegClass::Int);
    let (nz_code, nz_map) = rename_arm(func, &nz_insts);
    let (z_code, z_map) = rename_arm(func, &z_insts);

    // Registers needing a select: defined by an arm *and* live into the
    // join (arm-local temporaries need no merge), in first-def order.
    let join_live = live.live_in(join);
    let mut defined: Vec<Reg> = Vec::new();
    for i in nz_insts.iter().chain(&z_insts) {
        if let Some(d) = i.dst {
            if join_live.contains(d) && !defined.contains(&d) {
                defined.push(d);
            }
        }
    }

    let ab = func.block_mut(a);
    ab.insts.push(Inst::copy(guard, cond));
    ab.insts.extend(nz_code);
    ab.insts.extend(z_code);
    for r in defined {
        let tn = nz_map.get(&r).copied().unwrap_or(r);
        let fn_ = z_map.get(&r).copied().unwrap_or(r);
        ab.insts.push(Inst::select(r, guard, tn, fn_));
    }
    ab.term = Terminator::Jmp(join);

    // Dissolve consumed arm blocks into unreachable stubs.
    for arm in [nz_arm, z_arm].into_iter().flatten() {
        let blk = func.block_mut(arm);
        blk.insts.clear();
        blk.term = Terminator::Ret;
    }
    true
}

/// If-converts every simple diamond/triangle in the function, iterating so
/// that nested conditionals convert inside-out, then merges straight
/// chains and refreshes loop bodies. Returns the number of branches
/// eliminated.
pub fn predicate_function(func: &mut Function) -> usize {
    let mut converted = 0;
    loop {
        let mut changed = false;
        let cfg = Cfg::new(func);
        let live = Liveness::new(func, &cfg);
        let blocks: Vec<BlockId> = cfg.rpo().to_vec();
        for a in blocks {
            if try_convert(func, &cfg, &live, a) {
                converted += 1;
                changed = true;
                break; // CFG changed; recompute.
            }
        }
        if !changed {
            break;
        }
        // Fold the freshly linearised chains so enclosing conditionals
        // become convertible (inside-out conversion of nested ifs).
        crate::cleanup::merge_straight_chains(func);
    }
    if converted > 0 {
        // Selects were emitted for every arm-defined register; those whose
        // original register is dead after the join fold away here.
        crate::cleanup::dead_code_elim(func);
        crate::cleanup::refresh_loop_bodies(func);
    }
    converted
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::{Interp, Program};
    use bsched_workloads::lang::ast::{CmpOp, Expr, Index, Stmt};
    use bsched_workloads::lang::{ArrayInit, Kernel};

    /// for i in 0..n { if a[i] < 0.5 { s = s + a[i] } else { s = s - a[i] } }
    fn diamond_kernel(n: i64) -> Program {
        let mut k = Kernel::new("dia");
        let a = k.array("a", n as u64, ArrayInit::Random(7));
        let out = k.array("out", 8, ArrayInit::Zero);
        let i = k.int_var("i");
        let s = k.float_var("s");
        k.push(k.assign(s, Expr::Float(0.0)));
        let body = vec![Stmt::If {
            cond: Expr::cmp(CmpOp::Lt, Expr::load(a, Index::of(i)), Expr::Float(0.5)),
            then_: vec![k.assign(s, Expr::Var(s) + Expr::load(a, Index::of(i)))],
            else_: vec![k.assign(s, Expr::Var(s) - Expr::load(a, Index::of(i)))],
        }];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(n), body));
        k.push(k.store(out, Index::constant(0), Expr::Var(s)));
        k.lower()
    }

    #[test]
    fn diamond_converts_and_preserves_semantics() {
        let mut p = diamond_kernel(16);
        let want = Interp::new(&p).run().unwrap();
        let n = predicate_function(p.main_mut());
        assert_eq!(n, 1);
        assert!(bsched_ir::verify_program(&p).is_ok());
        let got = Interp::new(&p).run().unwrap();
        assert_eq!(got.checksum, want.checksum);
        assert!(
            got.branch_count < want.branch_count,
            "the if's branch is gone"
        );
        // The loop body is now a single straight-line block.
        assert_eq!(p.main().loops[0].body.len(), 1);
    }

    #[test]
    fn predication_enables_unrolling() {
        use crate::unroll::{unroll_loop, UnrollLimits};
        let mut p = diamond_kernel(13);
        let want = Interp::new(&p).run().unwrap().checksum;
        assert!(unroll_loop(p.main_mut(), 0, &UnrollLimits::for_factor(4)).is_none());
        predicate_function(p.main_mut());
        let r = unroll_loop(p.main_mut(), 0, &UnrollLimits::for_factor(4));
        assert!(r.is_some(), "predicated body must unroll");
        assert_eq!(Interp::new(&p).run().unwrap().checksum, want);
    }

    #[test]
    fn triangle_converts() {
        // if c { s = s + 1 } with no else.
        let mut k = Kernel::new("tri");
        let out = k.array("out", 8, ArrayInit::Zero);
        let i = k.int_var("i");
        let s = k.int_var("s");
        k.push(k.assign(s, Expr::Int(0)));
        let body = vec![Stmt::If {
            cond: Expr::cmp(CmpOp::Lt, Expr::Var(i), Expr::Int(3)),
            then_: vec![k.assign(s, Expr::Var(s) + Expr::Int(1))],
            else_: vec![],
        }];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(10), body));
        k.push(k.store(
            out,
            Index::constant(0),
            Expr::IntToFloat(Box::new(Expr::Var(s))),
        ));
        let mut p = k.lower();
        let want = Interp::new(&p).run().unwrap().checksum;
        // The frontend lowers else-less ifs with an empty else block, which
        // is also predicable.
        let n = predicate_function(p.main_mut());
        assert!(n >= 1);
        assert_eq!(Interp::new(&p).run().unwrap().checksum, want);
    }

    #[test]
    fn stores_in_arms_block_conversion() {
        let mut k = Kernel::new("st");
        let a = k.array("a", 16, ArrayInit::Zero);
        let i = k.int_var("i");
        let body = vec![Stmt::If {
            cond: Expr::cmp(CmpOp::Lt, Expr::Var(i), Expr::Int(8)),
            then_: vec![k.store(a, Index::of(i), Expr::Float(1.0))],
            else_: vec![],
        }];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(16), body));
        let mut p = k.lower();
        let want = Interp::new(&p).run().unwrap().checksum;
        let n = predicate_function(p.main_mut());
        assert_eq!(n, 0, "stores cannot be predicated");
        assert_eq!(Interp::new(&p).run().unwrap().checksum, want);
    }

    #[test]
    fn nested_ifs_convert_inside_out() {
        let mut k = Kernel::new("nest");
        let out = k.array("out", 8, ArrayInit::Zero);
        let i = k.int_var("i");
        let s = k.int_var("s");
        k.push(k.assign(s, Expr::Int(0)));
        let inner = Stmt::If {
            cond: Expr::cmp(CmpOp::Lt, Expr::Var(i), Expr::Int(3)),
            then_: vec![k.assign(s, Expr::Var(s) + Expr::Int(10))],
            else_: vec![k.assign(s, Expr::Var(s) + Expr::Int(1))],
        };
        let body = vec![Stmt::If {
            cond: Expr::cmp(CmpOp::Lt, Expr::Var(i), Expr::Int(7)),
            then_: vec![inner],
            else_: vec![k.assign(s, Expr::Var(s) + Expr::Int(100))],
        }];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(10), body));
        k.push(k.store(
            out,
            Index::constant(0),
            Expr::IntToFloat(Box::new(Expr::Var(s))),
        ));
        let mut p = k.lower();
        let want = Interp::new(&p).run().unwrap();
        let n = predicate_function(p.main_mut());
        assert!(n >= 2, "both levels convert, got {n}");
        let got = Interp::new(&p).run().unwrap();
        assert_eq!(got.checksum, want.checksum);
        assert_eq!(
            p.main().loops[0].body.len(),
            1,
            "body collapses to one block"
        );
    }

    #[test]
    fn condition_redefined_in_arm_is_safe() {
        // if (c = i < 5) { c = 0; s += 1 } else { s += 2 } — arm redefines
        // the condition register's source variable.
        let mut k = Kernel::new("redef");
        let out = k.array("out", 8, ArrayInit::Zero);
        let i = k.int_var("i");
        let c = k.int_var("c");
        let s = k.int_var("s");
        k.push(k.assign(s, Expr::Int(0)));
        let body = vec![
            k.assign(c, Expr::cmp(CmpOp::Lt, Expr::Var(i), Expr::Int(5))),
            Stmt::If {
                cond: Expr::Var(c),
                then_: vec![
                    k.assign(c, Expr::Int(0)),
                    k.assign(s, Expr::Var(s) + Expr::Int(1)),
                ],
                else_: vec![k.assign(s, Expr::Var(s) + Expr::Int(2))],
            },
        ];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(10), body));
        k.push(k.store(
            out,
            Index::constant(0),
            Expr::IntToFloat(Box::new(Expr::Var(s))),
        ));
        let mut p = k.lower();
        let want = Interp::new(&p).run().unwrap().checksum;
        let n = predicate_function(p.main_mut());
        assert!(n >= 1);
        assert_eq!(Interp::new(&p).run().unwrap().checksum, want);
    }
}
