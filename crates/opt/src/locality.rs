//! Locality analysis (paper §3.3): Mowry–Lam–Gupta-style reuse
//! classification of affine array references in inner loops, plus the
//! code transformations that let the scheduler exploit it:
//!
//! * **temporal reuse** (the address is invariant in the inner loop, like
//!   `B[i][0]`): peel the first iteration; the peeled copy's load is the
//!   compile-time *miss*, every in-loop instance becomes a *hit*
//!   (Figure 5);
//! * **spatial reuse** (the address advances by a small stride, like
//!   `A[i][j]`): unroll by `line / stride` (postconditioned so alignment
//!   holds, Figure 4), mark the first copy of each cache-line group as the
//!   *miss* and the rest as *hits*, and give each group a
//!   [`bsched_ir::MemAccess::line_group`] so the hits cannot float above
//!   their miss in the code DAG (§4.2);
//! * references whose alignment cannot be proven (unknown row pitch,
//!   dynamic indices) are left unmarked — the paper's four limitations
//!   (§5.3) fall out of the same checks.

use crate::linform::{defined_regs, LinEnv};
use crate::peel::peel_first_iteration;
use crate::unroll::{unroll_loop, UnrollLimits};
use bsched_ir::{Function, Inst, LocalityHint, MemAccess, Op, Reg};
use bsched_util::FastHashMap;

/// Cache-line size locality analysis assumes (Alpha 21164 L1: 32 bytes).
pub const LINE_BYTES: i64 = 32;

/// The reuse class of one load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseKind {
    /// Same address every iteration.
    Temporal,
    /// Address advances by `stride_bytes` (< line size) per iteration.
    Spatial {
        /// Byte stride per original loop iteration.
        stride_bytes: i64,
    },
}

/// One classified reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReuseRef {
    /// Index of the loop in `func.loops`.
    pub loop_idx: usize,
    /// Instruction index of the load within the (single) body block.
    pub inst_idx: usize,
    /// Reuse class.
    pub kind: ReuseKind,
    /// Whether the reference's line alignment at loop entry is provable
    /// (required for spatial hit/miss marking).
    pub aligned: bool,
}

/// Options controlling the transformation.
#[derive(Debug, Clone, Copy)]
pub struct LocalityOptions {
    /// Unroll factor for loops with spatial reuse. `None` derives the
    /// minimum factor from the line/stride ratio (4 for stride-8 doubles,
    /// footnote 4 of the paper); `Some(f)` uses the experiment's factor.
    pub factor: Option<u32>,
    /// Weight-cap-style limit on the unrolled body.
    pub max_body_insts: usize,
}

impl Default for LocalityOptions {
    fn default() -> Self {
        LocalityOptions {
            factor: None,
            max_body_insts: 128,
        }
    }
}

/// Transformation statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocalityStats {
    /// Indices of loops this pass transformed (the pipeline's later
    /// unrolling must skip them).
    pub loops_processed: Vec<usize>,
    /// Loops peeled for temporal reuse.
    pub peeled: u64,
    /// Loops unrolled for spatial reuse.
    pub unrolled: u64,
    /// Loads marked as compile-time hits.
    pub hits_marked: u64,
    /// Loads marked as compile-time misses.
    pub misses_marked: u64,
}

/// Classifies the loads of every innermost, single-block counted loop.
#[must_use]
pub fn analyze_locality(func: &Function) -> Vec<ReuseRef> {
    let mut refs = Vec::new();
    for loop_idx in func.innermost_loops() {
        let l = &func.loops[loop_idx];
        if l.body.len() != 1 || l.step <= 0 {
            continue;
        }
        let body = &func.block(l.body[0]).insts;
        let defined = defined_regs([
            body.as_slice(),
            func.block(l.latch).insts.as_slice(),
            func.block(l.header).insts.as_slice(),
        ]);
        let mut env = LinEnv::new(l.counter, defined);
        for (i, inst) in body.iter().enumerate() {
            if inst.op.is_load() {
                if let Some(form) = env.lookup(inst.mem_base()) {
                    let stride = form.a * l.step;
                    let kind = if stride == 0 {
                        Some(ReuseKind::Temporal)
                    } else if stride > 0 && stride < LINE_BYTES && LINE_BYTES % stride == 0 {
                        Some(ReuseKind::Spatial {
                            stride_bytes: stride,
                        })
                    } else {
                        None
                    };
                    if let Some(kind) = kind {
                        let aligned = match kind {
                            ReuseKind::Temporal => true,
                            ReuseKind::Spatial { .. } => {
                                entry_alignment(func, loop_idx, inst) == Some(0)
                            }
                        };
                        refs.push(ReuseRef {
                            loop_idx,
                            inst_idx: i,
                            kind,
                            aligned,
                        });
                    }
                }
            }
            env.step(inst);
        }
    }
    refs
}

/// Computes `(address + disp) mod LINE_BYTES` at loop entry, when
/// provable: region bases are line-aligned, the inner counter is
/// substituted by its initial value, and scaled outer-counter terms vanish
/// when the scale is a line multiple.
fn entry_alignment(func: &Function, loop_idx: usize, load: &Inst) -> Option<i64> {
    let l = &func.loops[loop_idx];
    // The counter's initial value: the last preheader def must be `li`.
    let init = func
        .block(l.preheader)
        .insts
        .iter()
        .rev()
        .find(|i| i.dst == Some(l.counter))
        .and_then(|i| if i.op == Op::Li { i.imm } else { None })?;
    let mut subst = FastHashMap::default();
    subst.insert(l.counter, init);
    let base_mod = mod_line(func, load.mem_base(), &subst, 0)?;
    Some((base_mod + load.mem_disp()).rem_euclid(LINE_BYTES))
}

/// Resolves `reg mod LINE_BYTES` by chasing unique defs.
fn mod_line(func: &Function, reg: Reg, subst: &FastHashMap<Reg, i64>, depth: usize) -> Option<i64> {
    if depth > 32 {
        return None;
    }
    if let Some(&v) = subst.get(&reg) {
        return Some(v.rem_euclid(LINE_BYTES));
    }
    // Find the unique def across the whole function.
    let mut def: Option<&Inst> = None;
    for (_, block) in func.iter_blocks() {
        for inst in &block.insts {
            if inst.dst == Some(reg) {
                if def.is_some() {
                    return None; // multiple defs
                }
                def = Some(inst);
            }
        }
    }
    let inst = def?;
    let rec = |r: Reg| mod_line(func, r, subst, depth + 1);
    let rhs = |k: usize| -> Option<i64> {
        match inst.imm {
            Some(v) => Some(v.rem_euclid(LINE_BYTES)),
            None => rec(inst.srcs()[k]),
        }
    };
    let m = match inst.op {
        Op::LdAddr => 0, // regions are line-aligned by layout
        Op::Li => inst.imm?.rem_euclid(LINE_BYTES),
        Op::Mov => rec(inst.srcs()[0])?,
        Op::Add => (rec(inst.srcs()[0])? + rhs(1)?).rem_euclid(LINE_BYTES),
        Op::Sub => (rec(inst.srcs()[0])? - rhs(1)?).rem_euclid(LINE_BYTES),
        Op::Shl => {
            let k = inst.imm?;
            if !(0..63).contains(&k) {
                return None;
            }
            if (1i64 << k).rem_euclid(LINE_BYTES) == 0 {
                0 // any operand value lands on a line multiple
            } else {
                (rec(inst.srcs()[0])? << k).rem_euclid(LINE_BYTES)
            }
        }
        Op::Mul => {
            let m = inst.imm?;
            if m.rem_euclid(LINE_BYTES) == 0 {
                0
            } else {
                (rec(inst.srcs()[0])?.wrapping_mul(m)).rem_euclid(LINE_BYTES)
            }
        }
        _ => return None,
    };
    Some(m)
}

/// Applies the locality transformations to every innermost single-block
/// counted loop that exhibits reuse. Returns the statistics (including
/// which loops were consumed, so the caller's generic unrolling can skip
/// them).
pub fn apply_locality(func: &mut Function, options: &LocalityOptions) -> LocalityStats {
    let mut stats = LocalityStats::default();
    let refs = analyze_locality(func);
    let mut by_loop: FastHashMap<usize, Vec<ReuseRef>> = FastHashMap::default();
    for r in refs {
        by_loop.entry(r.loop_idx).or_default().push(r);
    }
    let mut loops: Vec<usize> = by_loop.keys().copied().collect();
    loops.sort_unstable();

    let mut next_group: u32 = 0;
    for loop_idx in loops {
        let refs = &by_loop[&loop_idx];
        let temporal: Vec<ReuseRef> = refs
            .iter()
            .copied()
            .filter(|r| r.kind == ReuseKind::Temporal)
            .collect();
        let spatial: Vec<ReuseRef> = refs
            .iter()
            .copied()
            .filter(|r| matches!(r.kind, ReuseKind::Spatial { .. }) && r.aligned)
            .collect();
        if temporal.is_empty() && spatial.is_empty() {
            continue;
        }
        let body_id = func.loops[loop_idx].body[0];
        let mut processed = false;

        // --- Temporal: peel, mark the peeled copy a miss and the in-loop
        // instances hits (Figure 5). When the loop *also* has spatial
        // refs, peeling would advance the counter by one and break the
        // line alignment the spatial marking depends on, so we keep the
        // loop intact and simply mark the in-loop loads as hits — they
        // mispredict exactly the first iteration (see DESIGN.md).
        if !temporal.is_empty() {
            if spatial.is_empty() {
                if let Some(peel) = peel_first_iteration(func, loop_idx) {
                    stats.peeled += 1;
                    processed = true;
                    for r in &temporal {
                        let pi = peel.inst_map[r.inst_idx];
                        func.block_mut(peel.peeled_body).insts[pi].hint = LocalityHint::Miss;
                        func.block_mut(body_id).insts[r.inst_idx].hint = LocalityHint::Hit;
                        stats.misses_marked += 1;
                        stats.hits_marked += 1;
                    }
                }
            } else {
                for r in &temporal {
                    func.block_mut(body_id).insts[r.inst_idx].hint = LocalityHint::Hit;
                    stats.hits_marked += 1;
                }
                processed = true;
            }
        }

        // --- Spatial: unroll and mark line groups (Figure 4).
        if !spatial.is_empty() {
            let derived: u32 = spatial
                .iter()
                .map(|r| match r.kind {
                    ReuseKind::Spatial { stride_bytes } => (LINE_BYTES / stride_bytes) as u32,
                    ReuseKind::Temporal => 1,
                })
                .max()
                .unwrap_or(4);
            // Try the experiment's factor first, then the line-derived
            // minimum, then a plain factor-2 partial unroll (which cannot
            // mark whole-line groups but still shrinks overhead).
            let requested = options.factor.unwrap_or(derived).max(2);
            let mut tried = vec![requested];
            if !tried.contains(&derived) {
                tried.push(derived.max(2));
            }
            if !tried.contains(&2) {
                tried.push(2);
            }
            let mut outcome = None;
            let mut factor = requested;
            for f in tried {
                let limits = UnrollLimits {
                    factor: f,
                    max_body_insts: options.max_body_insts,
                };
                if let Some(u) = unroll_loop(func, loop_idx, &limits) {
                    outcome = Some(u);
                    factor = f;
                    break;
                }
            }
            if let Some(unrolled) = outcome {
                stats.unrolled += 1;
                processed = true;
                for r in &spatial {
                    let ReuseKind::Spatial { stride_bytes } = r.kind else {
                        continue;
                    };
                    let group_len = (LINE_BYTES / stride_bytes) as u32;
                    if !factor.is_multiple_of(group_len) {
                        continue; // cannot isolate whole-line groups
                    }
                    // Main copies: one miss per cache-line group, the rest
                    // hits, tied together by a line group so the hits
                    // cannot float above their miss.
                    for c in 0..factor {
                        let idx = unrolled.main_copy_map[c as usize][r.inst_idx];
                        let inst = &mut func.block_mut(unrolled.body).insts[idx];
                        debug_assert!(inst.op.is_load());
                        if c % group_len == 0 {
                            inst.hint = LocalityHint::Miss;
                            next_group += 1;
                            stats.misses_marked += 1;
                        } else {
                            inst.hint = LocalityHint::Hit;
                            stats.hits_marked += 1;
                        }
                        let mem = inst.mem.get_or_insert_with(MemAccess::default);
                        mem.line_group = Some(next_group);
                    }
                    // Postcondition copies continue the pattern: the main
                    // loop always leaves the counter group-aligned, so
                    // post copy k has in-group position k % group_len.
                    // Hints only — line groups do not span blocks.
                    for (k, (pb, idxs)) in unrolled.post_copies.iter().enumerate() {
                        let inst = &mut func.block_mut(*pb).insts[idxs[r.inst_idx]];
                        if (k as u32).is_multiple_of(group_len) {
                            inst.hint = LocalityHint::Miss;
                            stats.misses_marked += 1;
                        } else {
                            inst.hint = LocalityHint::Hit;
                            stats.hits_marked += 1;
                        }
                    }
                }
                // Temporal refs inside the unrolled body: every copy is a
                // hit (unrolling preserved the hint for main copies, but
                // postcondition copies were stripped).
                for r in &temporal {
                    for (pb, idxs) in &unrolled.post_copies {
                        func.block_mut(*pb).insts[idxs[r.inst_idx]].hint = LocalityHint::Hit;
                    }
                }
            }
        }

        if processed {
            stats.loops_processed.push(loop_idx);
        }
    }
    stats
}

/// Removes the line-group ordering arcs and hint marks from a function
/// (used by experiments that want plain balanced scheduling on
/// locality-transformed code).
pub fn strip_hints(func: &mut Function) {
    let n = func.blocks().len();
    for bi in 0..n {
        let id = bsched_ir::BlockId::new(bi);
        for inst in &mut func.block_mut(id).insts {
            inst.hint = LocalityHint::Unknown;
            if let Some(m) = &mut inst.mem {
                m.line_group = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::{Interp, Program};
    use bsched_workloads::lang::ast::{Expr, Index};
    use bsched_workloads::lang::{ArrayInit, Kernel};

    /// Figure 3: for i in 0..n { for j in 0..n { C[i][j] = A[i][j] + B[i*n] } }
    /// (B[i][0] modeled as a 1-D access invariant in j.)
    fn figure3(n: i64) -> Program {
        let mut k = Kernel::new("fig3");
        let a = k.array("A", (n * n) as u64, ArrayInit::Random(1));
        let b = k.array("B", (n * n) as u64, ArrayInit::Random(2));
        let c = k.array("C", (n * n) as u64, ArrayInit::Zero);
        let i = k.int_var("i");
        let j = k.int_var("j");
        let inner = vec![k.store(
            c,
            Index::two(i, n, j, 1, 0),
            Expr::load(a, Index::two(i, n, j, 1, 0)) + Expr::load(b, Index::two(i, n, i, 0, 0)),
        )];
        let outer = vec![k.for_loop(j, Expr::Int(0), Expr::Int(n), inner)];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(n), outer));
        k.lower()
    }

    #[test]
    fn classifies_spatial_and_temporal() {
        let p = figure3(8); // n=8: row pitch 64 bytes = 2 lines, aligned
        let refs = analyze_locality(p.main());
        assert_eq!(refs.len(), 2);
        let spatial: Vec<_> = refs
            .iter()
            .filter(|r| matches!(r.kind, ReuseKind::Spatial { stride_bytes: 8 }))
            .collect();
        let temporal: Vec<_> = refs
            .iter()
            .filter(|r| r.kind == ReuseKind::Temporal)
            .collect();
        assert_eq!(spatial.len(), 1, "A[i][j] is spatial: {refs:?}");
        assert_eq!(temporal.len(), 1, "B[i*n] is temporal: {refs:?}");
        assert!(spatial[0].aligned, "row pitch 64B keeps rows line-aligned");
    }

    #[test]
    fn misaligned_rows_fail_the_alignment_proof() {
        let p = figure3(6); // row pitch 48 bytes: rows not line-aligned
        let refs = analyze_locality(p.main());
        let spatial: Vec<_> = refs
            .iter()
            .filter(|r| matches!(r.kind, ReuseKind::Spatial { .. }))
            .collect();
        assert_eq!(spatial.len(), 1);
        assert!(
            !spatial[0].aligned,
            "48-byte pitch must not be provably aligned"
        );
    }

    #[test]
    fn apply_marks_hits_and_misses_and_preserves_semantics() {
        let mut p = figure3(8);
        let want = Interp::new(&p).run().unwrap().checksum;
        let stats = apply_locality(p.main_mut(), &LocalityOptions::default());
        assert!(bsched_ir::verify_program(&p).is_ok());
        assert_eq!(Interp::new(&p).run().unwrap().checksum, want);
        // Spatial refs in the same loop suppress the peel (alignment);
        // the temporal load is marked hit in place instead.
        assert_eq!(stats.peeled, 0);
        assert_eq!(stats.unrolled, 1);
        assert!(stats.hits_marked >= 3, "{stats:?}");
        assert!(stats.misses_marked >= 1);
        assert_eq!(stats.loops_processed.len(), 1);

        // In the unrolled body: 4 A-loads, one Miss + three Hits, in one
        // line group, with the miss preceding the hits.
        let body_id = p.main().loops[stats.loops_processed[0]].body[0];
        let body = &p.main().block(body_id).insts;
        let a_loads: Vec<&Inst> = body
            .iter()
            .filter(|i| {
                i.op.is_load() && i.mem.and_then(|m| m.region) == Some(bsched_ir::RegionId::new(0))
            })
            .collect();
        assert_eq!(a_loads.len(), 4);
        let misses = a_loads
            .iter()
            .filter(|i| i.hint == LocalityHint::Miss)
            .count();
        let hits = a_loads
            .iter()
            .filter(|i| i.hint == LocalityHint::Hit)
            .count();
        assert_eq!((misses, hits), (1, 3));
        let groups: std::collections::BTreeSet<_> = a_loads
            .iter()
            .filter_map(|i| i.mem.and_then(|m| m.line_group))
            .collect();
        assert_eq!(groups.len(), 1, "all four copies share one line group");
        // B-load: hit in the loop (temporal, after peeling).
        let b_loads: Vec<&Inst> = body
            .iter()
            .filter(|i| {
                i.op.is_load() && i.mem.and_then(|m| m.region) == Some(bsched_ir::RegionId::new(1))
            })
            .collect();
        assert!(b_loads.iter().all(|i| i.hint == LocalityHint::Hit));
    }

    #[test]
    fn factor8_marks_two_groups() {
        let mut p = figure3(16);
        let want = Interp::new(&p).run().unwrap().checksum;
        let stats = apply_locality(
            p.main_mut(),
            &LocalityOptions {
                factor: Some(8),
                max_body_insts: 256,
            },
        );
        assert_eq!(Interp::new(&p).run().unwrap().checksum, want);
        let body_id = p.main().loops[stats.loops_processed[0]].body[0];
        let body = &p.main().block(body_id).insts;
        let a_loads: Vec<&Inst> = body
            .iter()
            .filter(|i| {
                i.op.is_load() && i.mem.and_then(|m| m.region) == Some(bsched_ir::RegionId::new(0))
            })
            .collect();
        assert_eq!(a_loads.len(), 8);
        let misses = a_loads
            .iter()
            .filter(|i| i.hint == LocalityHint::Miss)
            .count();
        assert_eq!(misses, 2, "two cache lines per unrolled iteration");
        let groups: std::collections::BTreeSet<_> = a_loads
            .iter()
            .filter_map(|i| i.mem.and_then(|m| m.line_group))
            .collect();
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn dynamic_indices_are_not_classified() {
        let mut k = Kernel::new("dyn");
        let data = k.array("d", 32, ArrayInit::Random(3));
        let idx = k.array("ix", 32, ArrayInit::Zero);
        let out = k.array("o", 32, ArrayInit::Zero);
        let i = k.int_var("i");
        let body = vec![k.store(
            out,
            Index::of(i),
            Expr::load(
                data,
                Index::Dyn(Box::new(Expr::FloatToInt(Box::new(Expr::load(
                    idx,
                    Index::of(i),
                ))))),
            ),
        )];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(32), body));
        let p = k.lower();
        let refs = analyze_locality(p.main());
        // The idx[i] and out-load... only loads with affine addrs appear;
        // the gathered data load must NOT be classified.
        assert!(refs
            .iter()
            .all(|r| { matches!(r.kind, ReuseKind::Spatial { .. }) }));
    }

    #[test]
    fn strip_hints_removes_everything() {
        let mut p = figure3(8);
        apply_locality(p.main_mut(), &LocalityOptions::default());
        strip_hints(p.main_mut());
        for (_, b) in p.main().iter_blocks() {
            for i in &b.insts {
                assert_eq!(i.hint, LocalityHint::Unknown);
                assert_eq!(i.mem.and_then(|m| m.line_group), None);
            }
        }
    }

    #[test]
    fn pure_temporal_loop_is_peeled_only() {
        // s += B[0] each iteration.
        let mut k = Kernel::new("tmp");
        let b = k.array("B", 8, ArrayInit::Ramp(5.0, 0.0));
        let out = k.array("o", 8, ArrayInit::Zero);
        let i = k.int_var("i");
        let s = k.float_var("s");
        k.push(k.assign(s, Expr::Float(0.0)));
        let body = vec![k.assign(s, Expr::Var(s) + Expr::load(b, Index::constant(0)))];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(10), body));
        k.push(k.store(out, Index::constant(0), Expr::Var(s)));
        let mut p = k.lower();
        let want = Interp::new(&p).run().unwrap().checksum;
        let stats = apply_locality(p.main_mut(), &LocalityOptions::default());
        assert_eq!(stats.peeled, 1);
        assert_eq!(stats.unrolled, 0);
        assert_eq!(Interp::new(&p).run().unwrap().checksum, want);
    }
}
