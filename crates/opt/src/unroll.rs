//! Counted-loop unrolling (paper §3.1) with postconditioned remainder
//! iterations (§3.3, Figure 4).
//!
//! The transformation, for an unrolling factor *f*:
//!
//! 1. The main loop's bound becomes `bound - (f-1)*step` and its latch
//!    step becomes `f*step`, so a main iteration always runs *f* original
//!    iterations.
//! 2. The body block receives *f* concatenated copies. Registers with a
//!    single def in the body are renamed per copy (loop-carried uses see
//!    the previous copy's name), so the copies are free of false
//!    dependences; conditionally-shaped (multi-def) registers keep their
//!    names, which is sequentially correct but serialising.
//! 3. Memory accesses whose address is affine in the counter
//!    (`addr = base + a·j + b`, via [`crate::linform`]) are *folded*: copy
//!    `c` reuses copy 0's address register with displacement `+a·c·step`.
//!    Together with dead-code elimination this removes the per-iteration
//!    indexing overhead — the paper's "branch and loop indexing overhead"
//!    reduction — and exposes the copies' loads as independent to the
//!    memory disambiguator (same base register, disjoint displacements).
//! 4. The remainder runs through a *postconditioned* chain of `f-1`
//!    guarded single iterations placed after the loop (the nested-`if`
//!    shape of Figure 4), so the first main-loop copy keeps its
//!    cache-line alignment for locality analysis.

use crate::linform::{defined_regs, LinEnv};
use bsched_ir::{Block, BlockId, Bound, BrCond, Function, Inst, Op, Reg, RegSet, Terminator};
use bsched_util::FastHashMap;

/// Unrolling limits (paper §4.2: "We disabled loop unrolling when the
/// unrolled block reached 64 instructions (4) or 128 (8)").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnrollLimits {
    /// The unrolling factor (≥ 2).
    pub factor: u32,
    /// Maximum size of the unrolled body block, in instructions.
    pub max_body_insts: usize,
}

impl UnrollLimits {
    /// The paper's limits for a given factor: 64 instructions at factor 4,
    /// 128 at factor 8, `16·f` otherwise.
    #[must_use]
    pub fn for_factor(factor: u32) -> Self {
        let max_body_insts = match factor {
            4 => 64,
            8 => 128,
            f => 16 * f as usize,
        };
        UnrollLimits {
            factor,
            max_body_insts,
        }
    }
}

/// Where the copies of each original body instruction landed.
#[derive(Debug, Clone)]
pub struct UnrollResult {
    /// The unrolled body block.
    pub body: BlockId,
    /// `main_copy_map[c][i]` = index in the body block of copy `c` of
    /// original body instruction `i`.
    pub main_copy_map: Vec<Vec<usize>>,
    /// For each postcondition iteration `k` (0-based), its body block and
    /// the per-original-instruction indices inside it.
    pub post_copies: Vec<(BlockId, Vec<usize>)>,
}

fn fits_disp(d: i64) -> bool {
    (-32000..=32000).contains(&d)
}

/// True when every path from the function entry to `header` passes
/// through `preheader` — i.e. code placed in the preheader is guaranteed
/// to execute before the loop is entered. Checked by deleting the
/// preheader from the graph: if the header is still reachable, some
/// path bypasses it.
fn preheader_dominates_header(func: &Function, preheader: BlockId, header: BlockId) -> bool {
    if preheader == header {
        return false;
    }
    let mut seen = vec![false; func.blocks().len()];
    let mut stack = vec![func.entry()];
    while let Some(b) = stack.pop() {
        if b == preheader || std::mem::replace(&mut seen[b.index()], true) {
            continue;
        }
        if b == header {
            return false;
        }
        stack.extend(func.block(b).term.successors());
    }
    true
}

/// Checks a loop against the canonical shape and the limits; returns the
/// body block if unrollable.
fn unrollable_body(func: &Function, loop_idx: usize, limits: &UnrollLimits) -> Option<BlockId> {
    let l = &func.loops[loop_idx];
    if limits.factor < 2 || l.step <= 0 {
        return None;
    }
    // Innermost only.
    if func.loops.iter().any(|o| o.parent == Some(loop_idx)) {
        return None;
    }
    // Single-block body jumping to the latch (loops with internal
    // conditionals that predication could not remove are skipped, like the
    // paper's multi-conditional loops).
    if l.body.len() != 1 {
        return None;
    }
    let body = l.body[0];
    if func.block(body).term != Terminator::Jmp(l.latch) {
        return None;
    }
    // The unroller materializes the adjusted bound in the preheader, so
    // the preheader must gate every entry into the loop. A stale
    // preheader (one a structural pass dissolved without updating loop
    // metadata) is dead or bypassed and must be refused, not written
    // into. Peeling is still fine: its guard chain hangs off the real
    // preheader.
    if !preheader_dominates_header(func, l.preheader, l.header) {
        return None;
    }
    // Canonical latch: exactly the counter increment.
    let latch = func.block(l.latch);
    if latch.insts.len() != 1 {
        return None;
    }
    let inc = &latch.insts[0];
    if inc.op != Op::Add
        || inc.dst != Some(l.counter)
        || inc.srcs() != [l.counter]
        || inc.imm != Some(l.step)
    {
        return None;
    }
    // Canonical header: one compare, branch-on-zero to the exit.
    let header = func.block(l.header);
    if header.insts.len() != 1 || header.insts[0].op != Op::CmpLt {
        return None;
    }
    match header.term {
        Terminator::Br {
            when: BrCond::Zero,
            fall,
            ..
        } if fall == body => {}
        _ => return None,
    }
    // Counter must not be redefined in the body.
    if func
        .block(body)
        .insts
        .iter()
        .any(|i| i.dst == Some(l.counter))
    {
        return None;
    }
    // Size limit.
    if func.block(body).len() * limits.factor as usize > limits.max_body_insts {
        return None;
    }
    Some(body)
}

/// Unrolls one counted loop in place. Returns `None` (leaving the function
/// untouched) when the loop is not unrollable under the canonical-shape
/// rules or the size limit.
pub fn unroll_loop(
    func: &mut Function,
    loop_idx: usize,
    limits: &UnrollLimits,
) -> Option<UnrollResult> {
    let body_id = unrollable_body(func, loop_idx, limits)?;
    let l = func.loops[loop_idx].clone();
    let fac = limits.factor as usize;
    let s = l.step;

    // --- 1. Main-loop bound: bound - (f-1)*step, materialised in the
    // preheader (before its terminator).
    let bm = func.new_reg(bsched_ir::RegClass::Int);
    let bm_inst = match l.bound {
        Bound::Imm(v) => Inst::li(bm, v - (fac as i64 - 1) * s),
        Bound::Reg(r) => Inst::op_imm(Op::Sub, bm, r, (fac as i64 - 1) * s),
    };
    func.block_mut(l.preheader).insts.push(bm_inst);
    let cmp_dst = func.block(l.header).insts[0]
        .dst
        .expect("compare defines its flag");
    func.block_mut(l.header).insts[0] = Inst::op(Op::CmpLt, cmp_dst, &[l.counter, bm]);

    // --- 2. Linear forms and renamability over the original body.
    let orig_body: Vec<Inst> = func.block(body_id).insts.clone();
    let defined = defined_regs([
        orig_body.as_slice(),
        func.block(l.latch).insts.as_slice(),
        func.block(l.header).insts.as_slice(),
    ]);
    // Address forms *at each use site*: scan and capture before stepping.
    let mut env = LinEnv::new(l.counter, defined.clone());
    let mut addr_form = vec![None; orig_body.len()];
    for (i, inst) in orig_body.iter().enumerate() {
        if inst.op.is_memory() {
            addr_form[i] = env.lookup(inst.mem_base());
        }
        env.step(inst);
    }
    let mut def_count: FastHashMap<Reg, usize> = FastHashMap::default();
    for inst in &orig_body {
        if let Some(d) = inst.dst {
            *def_count.entry(d).or_insert(0) += 1;
        }
    }
    let renameable = |r: Reg| def_count.get(&r).copied() == Some(1);
    // An address register is reusable across copies if copy 0's name is
    // stable: invariant, the counter itself, or a single-def body reg.
    let addr_reusable = |r: Reg| r == l.counter || !defined.contains(r) || renameable(r);
    // Loop-carried (or used-after-loop) registers must hold their value in
    // the *original* name whenever control reaches the header, so the
    // final copy writes them back under their original names.
    let live = {
        let cfg = bsched_ir::Cfg::new(func);
        bsched_ir::Liveness::new(func, &cfg)
    };
    let writeback: RegSet = live
        .live_in(l.header)
        .iter()
        .filter(|&r| renameable(r))
        .collect();

    // --- 3. Emit the f copies.
    let mut new_insts: Vec<Inst> = Vec::with_capacity(orig_body.len() * fac + fac);
    let mut main_copy_map: Vec<Vec<usize>> = Vec::with_capacity(fac);
    // copy 0: identity.
    main_copy_map.push((0..orig_body.len()).collect());
    for inst in &orig_body {
        let mut ni = inst.clone();
        if let Some(m) = &mut ni.mem {
            m.line_group = None;
        }
        new_insts.push(ni);
    }

    let mut carried: FastHashMap<Reg, Reg> = FastHashMap::default();
    for c in 1..fac {
        let mut jc: Option<Reg> = None;
        let mut map = Vec::with_capacity(orig_body.len());
        for (i, inst) in orig_body.iter().enumerate() {
            let mut ni = inst.clone();
            if let Some(m) = &mut ni.mem {
                m.line_group = None;
            }
            // Address folding.
            let mut folded_src: Option<usize> = None;
            if ni.op.is_memory() {
                let a_idx = if ni.op.is_load() { 0 } else { 1 };
                let a = inst.srcs()[a_idx];
                if let Some(form) = addr_form[i] {
                    let delta = form.a * c as i64 * s;
                    let new_disp = inst.mem_disp() + delta;
                    if addr_reusable(a) && fits_disp(new_disp) {
                        ni.srcs_mut()[a_idx] = a; // copy 0's name
                        ni.imm = Some(new_disp);
                        folded_src = Some(a_idx);
                    }
                }
            }
            // Rename remaining sources.
            for (k, src) in ni.srcs_mut().iter_mut().enumerate() {
                if folded_src == Some(k) {
                    continue;
                }
                if *src == l.counter {
                    let j = *jc.get_or_insert_with(|| {
                        let j = func.new_reg(bsched_ir::RegClass::Int);
                        new_insts.push(Inst::op_imm(Op::Add, j, l.counter, c as i64 * s));
                        j
                    });
                    *src = j;
                } else if let Some(&nn) = carried.get(src) {
                    *src = nn;
                }
            }
            // Rename the destination; the final copy writes loop-carried
            // registers back under their original names.
            if let Some(d) = ni.dst {
                if renameable(d) {
                    if c == fac - 1 && writeback.contains(d) {
                        carried.insert(d, d);
                    } else {
                        let nd = func.new_reg(d.class());
                        carried.insert(d, nd);
                        ni.dst = Some(nd);
                    }
                }
            }
            map.push(new_insts.len());
            new_insts.push(ni);
        }
        main_copy_map.push(map);
    }
    func.block_mut(body_id).insts = new_insts;

    // --- 4. Latch step becomes f*s.
    func.block_mut(l.latch).insts[0] = Inst::op_imm(Op::Add, l.counter, l.counter, fac as i64 * s);

    // --- 5. Postcondition chain of f-1 guarded iterations.
    let final_exit = l.exit;
    let mut post_heads: Vec<BlockId> = Vec::new();
    let mut post_copies: Vec<(BlockId, Vec<usize>)> = Vec::new();
    for _ in 0..fac - 1 {
        let test = func.add_block(Block::new(Terminator::Ret));
        let pb = func.add_block(Block::new(Terminator::Ret));
        post_heads.push(test);
        post_copies.push((pb, Vec::new()));
    }
    for k in 0..fac - 1 {
        let test = post_heads[k];
        let (pb, _) = post_copies[k];
        let next = if k + 1 < fac - 1 {
            post_heads[k + 1]
        } else {
            final_exit
        };
        // Test block: `t = cmplt counter, bound; br.z -> exit`.
        let t = func.new_reg(bsched_ir::RegClass::Int);
        let cmp = match l.bound {
            Bound::Imm(v) => Inst::op_imm(Op::CmpLt, t, l.counter, v),
            Bound::Reg(r) => Inst::op(Op::CmpLt, t, &[l.counter, r]),
        };
        func.block_mut(test).insts.push(cmp);
        func.block_mut(test).term = Terminator::Br {
            cond: t,
            when: BrCond::Zero,
            taken: final_exit,
            fall: pb,
        };
        // Body copy: identity names, hints and groups stripped, plus the
        // counter increment.
        let mut idxs = Vec::with_capacity(orig_body.len());
        {
            let pb_block = func.block_mut(pb);
            for inst in &orig_body {
                let mut ni = inst.clone();
                ni.hint = bsched_ir::LocalityHint::Unknown;
                if let Some(m) = &mut ni.mem {
                    m.line_group = None;
                }
                idxs.push(pb_block.insts.len());
                pb_block.insts.push(ni);
            }
            pb_block
                .insts
                .push(Inst::op_imm(Op::Add, l.counter, l.counter, s));
            pb_block.term = Terminator::Jmp(next);
        }
        post_copies[k].1 = idxs;
    }
    // Retarget the header's exit edge into the chain.
    if let Terminator::Br { taken, .. } = &mut func.block_mut(l.header).term {
        *taken = post_heads[0];
    }

    // --- 6. Update the loop metadata to the transformed loop.
    let meta = &mut func.loops[loop_idx];
    meta.step = fac as i64 * s;
    meta.bound = Bound::Reg(bm);
    meta.exit = post_heads[0];

    Some(UnrollResult {
        body: body_id,
        main_copy_map,
        post_copies,
    })
}

/// Unrolls every innermost counted loop of the function. Returns the
/// results of the loops that were actually unrolled, keyed by loop index.
pub fn unroll_function(func: &mut Function, limits: &UnrollLimits) -> Vec<(usize, UnrollResult)> {
    let mut out = Vec::new();
    for idx in func.innermost_loops() {
        if let Some(r) = unroll_loop(func, idx, limits) {
            out.push((idx, r));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::{Interp, Program};
    use bsched_workloads::lang::ast::{Expr, Index, Stmt};
    use bsched_workloads::lang::{ArrayInit, Kernel};

    fn axpy(n: i64) -> Program {
        let mut k = Kernel::new("axpy");
        let x = k.array("x", n.max(1) as u64, ArrayInit::Ramp(0.0, 1.0));
        let y = k.array("y", n.max(1) as u64, ArrayInit::Ramp(1.0, 0.5));
        let i = k.int_var("i");
        let body = vec![k.store(
            y,
            Index::of(i),
            Expr::load(x, Index::of(i)) * Expr::Float(2.0) + Expr::load(y, Index::of(i)),
        )];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(n), body));
        k.lower()
    }

    fn checksum(p: &Program) -> u64 {
        Interp::new(p).run().unwrap().checksum
    }

    #[test]
    fn unroll_preserves_semantics_all_trip_counts() {
        for n in [0, 1, 3, 4, 5, 7, 8, 16, 17] {
            for factor in [2u32, 4, 8] {
                let mut p = axpy(n);
                let want = checksum(&p);
                let r = unroll_loop(p.main_mut(), 0, &UnrollLimits::for_factor(factor));
                assert!(r.is_some(), "axpy should be unrollable (n={n}, f={factor})");
                assert!(bsched_ir::verify_program(&p).is_ok());
                assert_eq!(checksum(&p), want, "n={n}, factor={factor}");
            }
        }
    }

    #[test]
    fn unroll_reduces_dynamic_instruction_count() {
        let mut p = axpy(64);
        let before = Interp::new(&p).run().unwrap();
        unroll_loop(p.main_mut(), 0, &UnrollLimits::for_factor(4)).unwrap();
        crate::cleanup::copy_propagate(p.main_mut());
        crate::cleanup::dead_code_elim(p.main_mut());
        let after = Interp::new(&p).run().unwrap();
        assert_eq!(checksum(&p), checksum(&axpy(64)));
        assert!(
            after.inst_count < before.inst_count,
            "unrolling + cleanup must remove overhead: {} -> {}",
            before.inst_count,
            after.inst_count
        );
        assert!(after.branch_count < before.branch_count);
    }

    #[test]
    fn addresses_fold_into_displacements() {
        let mut p = axpy(64);
        let r = unroll_loop(p.main_mut(), 0, &UnrollLimits::for_factor(4)).unwrap();
        let body = &p.main().block(r.body).insts;
        // The four copies of the x-load must reuse one address register
        // with displacements 0, 8, 16, 24.
        let x_loads: Vec<&bsched_ir::Inst> = body
            .iter()
            .filter(|i| {
                i.op.is_load() && i.mem.and_then(|m| m.region) == Some(bsched_ir::RegionId::new(0))
            })
            .collect();
        assert_eq!(x_loads.len(), 4);
        let base = x_loads[0].mem_base();
        let mut disps: Vec<i64> = x_loads.iter().map(|l| l.mem_disp()).collect();
        disps.sort_unstable();
        assert_eq!(disps, vec![0, 8, 16, 24]);
        assert!(
            x_loads.iter().all(|l| l.mem_base() == base),
            "all copies reuse one address register"
        );
    }

    #[test]
    fn accumulator_renaming_is_correct() {
        // s = 0; for i in 0..n { s = s + a[i] }; out[0] = s
        let n = 13;
        let mut k = Kernel::new("sum");
        let a = k.array("a", n as u64, ArrayInit::Ramp(1.0, 1.0));
        let out = k.array("out", 8, ArrayInit::Zero);
        let i = k.int_var("i");
        let s = k.float_var("s");
        k.push(k.assign(s, Expr::Float(0.0)));
        let body = vec![k.assign(s, Expr::Var(s) + Expr::load(a, Index::of(i)))];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(n), body));
        k.push(k.store(out, Index::constant(0), Expr::Var(s)));
        let mut p = k.lower();
        let want = checksum(&p);
        unroll_loop(p.main_mut(), 0, &UnrollLimits::for_factor(4)).unwrap();
        assert_eq!(checksum(&p), want);
        // The four adds must form a renamed chain, not four writes to one
        // register.
        let body_id = p.main().loops[0].body[0];
        let adds: Vec<_> = p
            .main()
            .block(body_id)
            .insts
            .iter()
            .filter(|x| x.op == bsched_ir::Op::FAdd)
            .collect();
        assert_eq!(adds.len(), 4);
        // Copies 1..3 are renamed; the final copy writes the accumulator
        // back under its original (loop-carried) name, which copy 0 also
        // wrote — so three distinct destinations.
        let dsts: std::collections::BTreeSet<_> = adds.iter().map(|x| x.dst.unwrap()).collect();
        assert_eq!(
            dsts.len(),
            3,
            "interior copies are renamed, tail writes back"
        );
        // The adds chain: each reads the previous add's destination.
        for w in adds.windows(2) {
            assert_eq!(w[1].srcs()[0], w[0].dst.unwrap(), "carried chain broken");
        }
    }

    #[test]
    fn refuses_non_innermost_and_oversized() {
        // Nest: outer loop is not innermost.
        let mut k = Kernel::new("nest");
        let a = k.array("a", 64, ArrayInit::Zero);
        let i = k.int_var("i");
        let j = k.int_var("j");
        let inner = vec![k.store(a, Index::two(i, 8, j, 1, 0), Expr::Float(1.0))];
        let outer = vec![k.for_loop(j, Expr::Int(0), Expr::Int(8), inner)];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(8), outer));
        let mut p = k.lower();
        assert!(unroll_loop(p.main_mut(), 0, &UnrollLimits::for_factor(4)).is_none());
        assert!(unroll_loop(p.main_mut(), 1, &UnrollLimits::for_factor(4)).is_some());

        // Oversized body.
        let mut k2 = Kernel::new("big");
        let a2 = k2.array("a", 64, ArrayInit::Zero);
        let i2 = k2.int_var("i");
        let body: Vec<Stmt> = (0..20)
            .map(|off| k2.store(a2, Index::of_plus(i2, off % 4), Expr::Float(off as f64)))
            .collect();
        k2.push(k2.for_loop(i2, Expr::Int(0), Expr::Int(4), body));
        let mut p2 = k2.lower();
        // body has ~20 stores + address code > 16 insts; factor 4 limit 64.
        let body_len = p2.main().block(p2.main().loops[0].body[0]).len();
        assert!(body_len * 4 > 64);
        assert!(unroll_loop(p2.main_mut(), 0, &UnrollLimits::for_factor(4)).is_none());
    }

    #[test]
    fn refuses_multi_block_bodies() {
        use bsched_workloads::lang::ast::CmpOp;
        let mut k = Kernel::new("branchy");
        let a = k.array("a", 16, ArrayInit::Zero);
        let i = k.int_var("i");
        let body = vec![Stmt::If {
            cond: Expr::cmp(CmpOp::Lt, Expr::Var(i), Expr::Int(8)),
            then_: vec![k.store(a, Index::of(i), Expr::Float(1.0))],
            else_: vec![k.store(a, Index::of(i), Expr::Float(2.0))],
        }];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(16), body));
        let mut p = k.lower();
        assert!(unroll_loop(p.main_mut(), 0, &UnrollLimits::for_factor(4)).is_none());
    }

    #[test]
    fn unroll_function_unrolls_inner_of_nest() {
        let mut k = Kernel::new("nest");
        let a = k.array("a", 64, ArrayInit::Zero);
        let i = k.int_var("i");
        let j = k.int_var("j");
        let inner = vec![k.store(a, Index::two(i, 8, j, 1, 0), Expr::Float(3.0))];
        let outer = vec![k.for_loop(j, Expr::Int(0), Expr::Int(8), inner)];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(8), outer));
        let mut p = k.lower();
        let want = checksum(&p);
        let done = unroll_function(p.main_mut(), &UnrollLimits::for_factor(4));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 1, "only the inner loop unrolls");
        assert_eq!(checksum(&p), want);
    }

    #[test]
    fn stale_preheader_metadata_is_refused_not_miscompiled() {
        // An `if` before a nested loop: predication dissolves the if's
        // join block — which is the inner loop's preheader — into the
        // outer body. Found by the bsched-verify fuzzer: unrolling then
        // materialized the adjusted bound into the dead stub, so the
        // main loop never ran. The merge pass now retargets the loop
        // metadata, and this shape must unroll *and* stay correct.
        use bsched_workloads::lang::ast::CmpOp;
        let mut k = Kernel::new("join_preheader");
        let a = k.array("a", 20, ArrayInit::Ramp(0.5, 0.25));
        let s0 = k.float_var("s0");
        let s1 = k.float_var("s1");
        let i = k.int_var("i");
        let j = k.int_var("j");
        k.push(k.assign(s0, Expr::Float(0.5)));
        k.push(k.assign(s1, Expr::Float(0.25)));
        let inner = vec![k.store(
            a,
            Index::of_plus(j, 1),
            Expr::IntToFloat(Box::new(Expr::Var(j))) * Expr::Float(2.0),
        )];
        let body = vec![
            Stmt::If {
                cond: Expr::cmp(CmpOp::Lt, Expr::Var(i), Expr::Int(1)),
                then_: vec![k.assign(s1, Expr::div(Expr::Var(s0), Expr::Float(1.5)))],
                else_: vec![],
            },
            k.for_loop(j, Expr::Int(0), Expr::Int(10), inner),
        ];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(3), body));
        k.push(k.store(a, Index::constant(0), Expr::Var(s1)));
        let mut p = k.lower();
        let want = checksum(&p);
        crate::predicate::predicate_function(p.main_mut());
        assert_eq!(checksum(&p), want);
        let inner_idx = p
            .main()
            .loops
            .iter()
            .position(|l| l.parent.is_some())
            .expect("nest survives predication");
        let r = unroll_loop(p.main_mut(), inner_idx, &UnrollLimits::for_factor(8));
        assert!(r.is_some(), "retargeted preheader metadata must unroll");
        assert!(bsched_ir::verify_program(&p).is_ok());
        assert_eq!(checksum(&p), want, "unrolled nest diverged");
    }

    #[test]
    fn copy_map_points_at_real_copies() {
        let mut p = axpy(32);
        let r = unroll_loop(p.main_mut(), 0, &UnrollLimits::for_factor(4)).unwrap();
        let body = &p.main().block(r.body).insts;
        let orig_len = r.main_copy_map[0].len();
        for c in 0..4 {
            assert_eq!(r.main_copy_map[c].len(), orig_len);
            for i in 0..orig_len {
                let inst = &body[r.main_copy_map[c][i]];
                // Same opcode as the original instruction.
                assert_eq!(
                    inst.op, body[r.main_copy_map[0][i]].op,
                    "copy {c} inst {i} changed opcode"
                );
            }
        }
        assert_eq!(r.post_copies.len(), 3);
        for (pb, idxs) in &r.post_copies {
            assert_eq!(idxs.len(), orig_len);
            // Post block ends with increment + jump.
            assert_eq!(p.main().block(*pb).insts.len(), orig_len + 1);
        }
    }
}
