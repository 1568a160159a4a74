//! Profile-guided trace scheduling (paper §3.2).
//!
//! **Formation** follows Fisher's mutual-most-likely heuristic: seed at
//! the hottest unvisited block, grow forward/backward along the most
//! frequent edges, never crossing loop back edges or loop boundaries, and
//! only when the neighbour's own hottest edge agrees.
//!
//! **Compaction** treats the trace as one scheduling region. Each interior
//! block boundary becomes a *control pseudo-node*:
//!
//! * a **split** (on-trace conditional branch) — instructions from below
//!   may move above it only when *speculation-safe* (not a store, and the
//!   destination is not live into the off-trace target); instructions from
//!   above may move below it, with compensation copies placed on the
//!   off-trace exit edge;
//! * a **join** (off-trace edges entering the trace) — instructions from
//!   above may never move below it, and instructions from below hoisted
//!   above it are copied onto every off-trace incoming edge.
//!
//! The region is then scheduled with the same list scheduler and load
//! weights as basic blocks (`bsched-core`), so balanced and traditional
//! scheduling both extend naturally beyond block boundaries, and the
//! schedule is re-emitted as blocks plus compensation blocks.
//!
//! Trace scheduling is the last structural pass: it dissolves the
//! canonical loop shapes, so the function's counted-loop metadata is
//! cleared afterwards.

use crate::profile::EdgeProfile;
use bsched_core::{compute_weights, schedule_region_with_pressure, WeightConfig, PRESSURE_LIMIT};
use bsched_ir::{
    Block, BlockId, Cfg, DagBuilder, DepKind, Dominators, Function, Inst, Liveness, LoopForest, Op,
    Terminator,
};
use bsched_util::FastHashSet;

/// Options for trace scheduling.
#[derive(Debug, Clone, Copy)]
pub struct TraceOptions {
    /// Weight policy used while compacting traces.
    pub weights: WeightConfig,
    /// Allow upward (speculative) motion across splits ("to gain maximum
    /// flexibility of code motion, we also permitted speculative code
    /// motion", §4.2).
    pub speculation: bool,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            weights: WeightConfig::default(),
            speculation: true,
        }
    }
}

/// Statistics from a trace-scheduling run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Traces with at least two blocks that were compacted.
    pub traces_compacted: u64,
    /// Total blocks covered by compacted traces.
    pub blocks_covered: u64,
    /// Compensation instructions inserted (splits + joins).
    pub compensation_insts: u64,
}

/// One interior boundary of a trace.
#[derive(Debug, Clone)]
enum Ctrl {
    /// The conditional branch ending a trace block; `on_is_taken` records
    /// which side continues the trace.
    Split {
        term: Terminator,
        on_is_taken: bool,
        off_target: BlockId,
    },
    /// Control merges into `block` from off-trace predecessors here.
    Join { block: BlockId },
}

#[derive(Debug)]
enum Item {
    Real(Inst),
    Ctrl(Ctrl),
}

/// Forms traces over the reachable blocks (every block lands in exactly
/// one trace; singletons included).
fn form_traces(
    _func: &Function,
    cfg: &Cfg,
    forest: &LoopForest,
    profile: &EdgeProfile,
) -> Vec<Vec<BlockId>> {
    let mut visited: FastHashSet<BlockId> = FastHashSet::default();
    let mut order: Vec<BlockId> = cfg.rpo().to_vec();
    // Hottest blocks seed first; stable tie-break on id.
    order.sort_by_key(|&b| (std::cmp::Reverse(profile.block(b)), b.index()));

    let mut traces = Vec::new();
    for seed in order {
        if visited.contains(&seed) {
            continue;
        }
        let mut trace = vec![seed];
        visited.insert(seed);
        // Grow forward.
        let mut cur = seed;
        while let Some(next) = profile.hottest_succ(cur, cfg.succs(cur)) {
            let mutual = profile.hottest_pred(next, cfg.preds(next)) == Some(cur);
            if visited.contains(&next)
                || !mutual
                || forest.is_back_edge(cur, next)
                || forest.innermost(cur) != forest.innermost(next)
            {
                break;
            }
            trace.push(next);
            visited.insert(next);
            cur = next;
        }
        // Grow backward.
        let mut cur = seed;
        while let Some(prev) = profile.hottest_pred(cur, cfg.preds(cur)) {
            let mutual = profile.hottest_succ(prev, cfg.succs(prev)) == Some(cur);
            if visited.contains(&prev)
                || !mutual
                || forest.is_back_edge(prev, cur)
                || forest.innermost(prev) != forest.innermost(cur)
            {
                break;
            }
            trace.insert(0, prev);
            visited.insert(prev);
            cur = prev;
        }
        traces.push(trace);
    }
    traces
}

/// Compacts one multi-block trace in place.
fn compact_trace(
    func: &mut Function,
    options: &TraceOptions,
    trace: &[BlockId],
    stats: &mut TraceStats,
) {
    let cfg = Cfg::new(func);
    let live = Liveness::new(func, &cfg);

    // --- Build the item list.
    let mut items: Vec<Item> = Vec::new();
    // Synthetic instruction view for DAG construction and weights:
    // a split becomes `mov fresh, cond` (occupies an issue slot, depends
    // on its condition); a join becomes `li fresh, 0`.
    let mut synth: Vec<Inst> = Vec::new();
    for (pos, &b) in trace.iter().enumerate() {
        for inst in &func.block(b).insts {
            items.push(Item::Real(inst.clone()));
            synth.push(inst.clone());
        }
        if pos + 1 == trace.len() {
            break;
        }
        let next = trace[pos + 1];
        match func.block(b).term.clone() {
            Terminator::Br {
                cond,
                when,
                taken,
                fall,
            } => {
                let on_is_taken = taken == next;
                assert!(on_is_taken || fall == next, "trace edge must exist");
                let off_target = if on_is_taken { fall } else { taken };
                items.push(Item::Ctrl(Ctrl::Split {
                    term: Terminator::Br {
                        cond,
                        when,
                        taken,
                        fall,
                    },
                    on_is_taken,
                    off_target,
                }));
                let flag = func.new_reg(bsched_ir::RegClass::Int);
                synth.push(Inst::op(Op::Mov, flag, &[cond]));
                // A join at the same boundary (other preds of `next`).
                if cfg.preds(next).len() > 1 {
                    items.push(Item::Ctrl(Ctrl::Join { block: next }));
                    let j = func.new_reg(bsched_ir::RegClass::Int);
                    synth.push(Inst::li(j, 0));
                }
            }
            Terminator::Jmp(t) => {
                assert_eq!(t, next, "trace edge must exist");
                if cfg.preds(next).len() > 1 {
                    items.push(Item::Ctrl(Ctrl::Join { block: next }));
                    let j = func.new_reg(bsched_ir::RegClass::Int);
                    synth.push(Inst::li(j, 0));
                }
                // Single-pred boundary: dissolves entirely.
            }
            Terminator::Ret => unreachable!("ret cannot be an interior trace terminator"),
        }
    }

    // --- Dependence edges (registers + memory) from the synthetic view,
    // then control constraints.
    let mut builder = DagBuilder::from_insts(&synth);
    let ctrl_positions: Vec<usize> = items
        .iter()
        .enumerate()
        .filter_map(|(i, it)| matches!(it, Item::Ctrl(_)).then_some(i))
        .collect();
    // Chain control nodes to preserve their relative order.
    for w in ctrl_positions.windows(2) {
        builder.add_edge(w[0], w[1], DepKind::Order);
    }
    for &c in &ctrl_positions {
        match &items[c] {
            Item::Ctrl(Ctrl::Split { off_target, .. }) => {
                let off_live = live.live_in(*off_target);
                for (x, item) in items.iter().enumerate().skip(c + 1) {
                    let Item::Real(inst) = item else { continue };
                    let unsafe_spec = !options.speculation
                        || inst.op.is_store()
                        || inst.dst.is_some_and(|d| off_live.contains(d));
                    if unsafe_spec {
                        builder.add_edge(c, x, DepKind::Order);
                    }
                }
            }
            Item::Ctrl(Ctrl::Join { .. }) => {
                // Nothing from above the join may sink below it.
                for (x, item) in items.iter().enumerate().take(c) {
                    if matches!(item, Item::Real(_)) {
                        builder.add_edge(x, c, DepKind::Order);
                    }
                }
            }
            Item::Real(_) => unreachable!(),
        }
    }
    let dag = builder.build();
    let weights = compute_weights(&synth, &dag, &options.weights);
    // Trace compaction decides *placement across blocks*; values it moves
    // over a boundary stay live through that boundary no matter how the
    // later per-block scheduling orders things, so compaction runs with a
    // tighter live-value ceiling to leave that pass headroom.
    let order = schedule_region_with_pressure(&synth, &dag, &weights, Some(PRESSURE_LIMIT / 2));

    let mut sched_pos = vec![0usize; items.len()];
    for (k, &i) in order.iter().enumerate() {
        sched_pos[i] = k;
    }

    // --- Split the schedule into segments at the control nodes.
    let mut segments: Vec<Vec<usize>> = vec![Vec::new()];
    let mut ctrls_in_order: Vec<usize> = Vec::new();
    for &i in &order {
        match items[i] {
            Item::Ctrl(_) => {
                ctrls_in_order.push(i);
                segments.push(Vec::new());
            }
            Item::Real(_) => segments.last_mut().expect("segments non-empty").push(i),
        }
    }
    debug_assert_eq!(
        ctrls_in_order, ctrl_positions,
        "control order must be preserved"
    );

    // --- Assign block ids to segments.
    let mut seg_blocks: Vec<BlockId> = Vec::with_capacity(segments.len());
    seg_blocks.push(trace[0]);
    for &c in &ctrl_positions {
        match &items[c] {
            Item::Ctrl(Ctrl::Join { block }) => seg_blocks.push(*block),
            Item::Ctrl(Ctrl::Split { .. }) => {
                seg_blocks.push(func.add_block(Block::new(Terminator::Ret)))
            }
            Item::Real(_) => unreachable!(),
        }
    }
    let final_term = func
        .block(*trace.last().expect("non-empty trace"))
        .term
        .clone();

    // --- Dissolve the old trace blocks (ids reused below).
    for &b in trace {
        let blk = func.block_mut(b);
        blk.insts.clear();
        blk.term = Terminator::Ret;
    }

    // --- Emit segments and terminators.
    for (k, seg) in segments.iter().enumerate() {
        let insts: Vec<Inst> = seg
            .iter()
            .map(|&i| match &items[i] {
                Item::Real(inst) => inst.clone(),
                Item::Ctrl(_) => unreachable!(),
            })
            .collect();
        let id = seg_blocks[k];
        func.block_mut(id).insts = insts;
        if k == segments.len() - 1 {
            func.block_mut(id).term = final_term.clone();
            break;
        }
        let c = ctrl_positions[k];
        match items[c] {
            Item::Ctrl(Ctrl::Split {
                ref term,
                on_is_taken,
                off_target,
            }) => {
                // Compensation for instructions that sank below the split.
                let comp: Vec<usize> = (0..c)
                    .filter(|&x| matches!(items[x], Item::Real(_)) && sched_pos[x] > sched_pos[c])
                    .collect();
                let off_dest = if comp.is_empty() {
                    off_target
                } else {
                    let e = func.add_block(Block::new(Terminator::Jmp(off_target)));
                    let copies: Vec<Inst> = comp
                        .iter()
                        .map(|&x| match &items[x] {
                            Item::Real(i) => i.clone(),
                            Item::Ctrl(_) => unreachable!(),
                        })
                        .collect();
                    stats.compensation_insts += copies.len() as u64;
                    func.block_mut(e).insts = copies;
                    e
                };
                let (cond, when) = match term {
                    Terminator::Br { cond, when, .. } => (*cond, *when),
                    _ => unreachable!(),
                };
                let on_dest = seg_blocks[k + 1];
                func.block_mut(id).term = if on_is_taken {
                    Terminator::Br {
                        cond,
                        when,
                        taken: on_dest,
                        fall: off_dest,
                    }
                } else {
                    Terminator::Br {
                        cond,
                        when,
                        taken: off_dest,
                        fall: on_dest,
                    }
                };
            }
            Item::Ctrl(Ctrl::Join { block }) => {
                func.block_mut(id).term = Terminator::Jmp(block);
                // Compensation for instructions hoisted above the join.
                let comp: Vec<usize> = (c + 1..items.len())
                    .filter(|&x| matches!(items[x], Item::Real(_)) && sched_pos[x] < sched_pos[c])
                    .collect();
                if !comp.is_empty() {
                    let e = func.add_block(Block::new(Terminator::Jmp(block)));
                    let copies: Vec<Inst> = comp
                        .iter()
                        .map(|&x| match &items[x] {
                            Item::Real(i) => i.clone(),
                            Item::Ctrl(_) => unreachable!(),
                        })
                        .collect();
                    stats.compensation_insts += copies.len() as u64;
                    func.block_mut(e).insts = copies;
                    // Every off-trace predecessor of the join enters via
                    // the compensation block.
                    let nblocks = func.blocks().len();
                    for bi in 0..nblocks {
                        let pid = BlockId::new(bi);
                        if pid == id || pid == e {
                            continue;
                        }
                        func.block_mut(pid).term.retarget(block, e);
                    }
                }
            }
            Item::Real(_) => unreachable!(),
        }
    }
}

/// Runs trace scheduling over the whole function. Returns statistics.
///
/// The function's counted-loop metadata is cleared: compaction dissolves
/// the canonical loop shapes, so later loop passes must run before this
/// one.
pub fn trace_schedule(
    func: &mut Function,
    profile: &EdgeProfile,
    options: &TraceOptions,
) -> TraceStats {
    let cfg = Cfg::new(func);
    let dom = Dominators::new(func, &cfg);
    let forest = LoopForest::new(&cfg, &dom);
    let traces = form_traces(func, &cfg, &forest, profile);

    let mut stats = TraceStats::default();
    for trace in &traces {
        if trace.len() < 2 {
            continue;
        }
        stats.traces_compacted += 1;
        stats.blocks_covered += trace.len() as u64;
        compact_trace(func, options, trace, &mut stats);
    }
    func.loops.clear();
    if bsched_trace::enabled() {
        bsched_trace::instant(
            bsched_trace::points::OPT_TRACE,
            func.name(),
            &[
                ("traces", stats.traces_compacted),
                ("blocks", stats.blocks_covered),
                ("compensation", stats.compensation_insts),
            ],
        );
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::{Interp, Program};
    use bsched_workloads::lang::ast::{CmpOp, Expr, Index, Stmt};
    use bsched_workloads::lang::{ArrayInit, Kernel};

    fn run(p: &Program) -> bsched_ir::Outcome {
        Interp::new(p).run().unwrap()
    }

    /// A loop with a hot/cold conditional that predication refuses
    /// (stores in the arms), leaving real trace-scheduling work.
    fn hot_cold_kernel(n: i64) -> Program {
        let mut k = Kernel::new("hotcold");
        let a = k.array("a", n as u64, ArrayInit::Random(11));
        let b = k.array("b", n as u64, ArrayInit::Zero);
        let i = k.int_var("i");
        let body = vec![Stmt::If {
            // a[i] < 0.95: hot arm ~95% of iterations.
            cond: Expr::cmp(CmpOp::Lt, Expr::load(a, Index::of(i)), Expr::Float(0.95)),
            then_: vec![k.store(
                b,
                Index::of(i),
                Expr::load(a, Index::of(i)) * Expr::Float(2.0) + Expr::Float(1.0),
            )],
            else_: vec![k.store(b, Index::of(i), Expr::Float(-1.0))],
        }];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(n), body));
        k.lower()
    }

    #[test]
    fn formation_follows_hot_path_and_stops_at_back_edges() {
        let p = hot_cold_kernel(64);
        let f = p.main();
        let profile = EdgeProfile::collect(&p).unwrap();
        let cfg = Cfg::new(f);
        let dom = Dominators::new(f, &cfg);
        let forest = LoopForest::new(&cfg, &dom);
        let traces = form_traces(f, &cfg, &forest, &profile);
        // The hottest trace must contain the body block plus the hot arm,
        // and no block may repeat across traces.
        let mut seen = FastHashSet::default();
        for t in &traces {
            for b in t {
                assert!(seen.insert(*b), "block {b} in two traces");
            }
        }
        let hot = &traces[0];
        assert!(hot.len() >= 2, "hot trace spans the conditional: {hot:?}");
        // No trace contains a back edge.
        for t in &traces {
            for w in t.windows(2) {
                assert!(!forest.is_back_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn trace_scheduling_preserves_semantics() {
        for n in [1, 7, 33, 64] {
            let mut p = hot_cold_kernel(n);
            let want = run(&p).checksum;
            let profile = EdgeProfile::collect(&p).unwrap();
            let stats = trace_schedule(p.main_mut(), &profile, &TraceOptions::default());
            assert!(stats.traces_compacted >= 1, "n={n}");
            assert!(bsched_ir::verify_program(&p).is_ok());
            assert_eq!(run(&p).checksum, want, "n={n}");
        }
    }

    #[test]
    fn trace_scheduling_preserves_semantics_without_speculation() {
        let mut p = hot_cold_kernel(40);
        let want = run(&p).checksum;
        let profile = EdgeProfile::collect(&p).unwrap();
        let opts = TraceOptions {
            speculation: false,
            ..TraceOptions::default()
        };
        trace_schedule(p.main_mut(), &profile, &opts);
        assert_eq!(run(&p).checksum, want);
    }

    #[test]
    fn whole_loop_trace_keeps_loop_semantics() {
        // Straight-line loop body: trace = header+body+latch.
        let mut k = Kernel::new("sum");
        let a = k.array("a", 32, ArrayInit::Ramp(1.0, 1.0));
        let out = k.array("out", 8, ArrayInit::Zero);
        let i = k.int_var("i");
        let s = k.float_var("s");
        k.push(k.assign(s, Expr::Float(0.0)));
        let body = vec![k.assign(s, Expr::Var(s) + Expr::load(a, Index::of(i)))];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(32), body));
        k.push(k.store(out, Index::constant(0), Expr::Var(s)));
        let mut p = k.lower();
        let want = run(&p).checksum;
        let profile = EdgeProfile::collect(&p).unwrap();
        trace_schedule(p.main_mut(), &profile, &TraceOptions::default());
        assert!(bsched_ir::verify_program(&p).is_ok());
        assert_eq!(run(&p).checksum, want);
        assert!(p.main().loops.is_empty(), "loop metadata is consumed");
    }

    #[test]
    fn compensation_appears_when_code_sinks_below_split() {
        // Run many seeds; at least the semantics hold, and when the
        // scheduler moves code across boundaries the compensation keeps
        // the cold path correct. We force motion by checking off-trace
        // results explicitly.
        let mut p = hot_cold_kernel(128);
        let want = run(&p);
        let profile = EdgeProfile::collect(&p).unwrap();
        let stats = trace_schedule(p.main_mut(), &profile, &TraceOptions::default());
        let got = run(&p);
        assert_eq!(got.checksum, want.checksum);
        // Dynamic instruction count may grow (speculation + compensation),
        // exactly as the paper observes for single-issue machines.
        assert!(stats.blocks_covered >= 2);
    }

    #[test]
    fn unroll_then_trace_compose() {
        use crate::unroll::{unroll_function, UnrollLimits};
        let mut p = hot_cold_kernel(53);
        let want = run(&p).checksum;
        crate::predicate::predicate_function(p.main_mut());
        unroll_function(p.main_mut(), &UnrollLimits::for_factor(4));
        crate::cleanup::copy_propagate(p.main_mut());
        crate::cleanup::dead_code_elim(p.main_mut());
        let profile = EdgeProfile::collect(&p).unwrap();
        trace_schedule(p.main_mut(), &profile, &TraceOptions::default());
        assert!(bsched_ir::verify_program(&p).is_ok());
        assert_eq!(run(&p).checksum, want);
    }
}
