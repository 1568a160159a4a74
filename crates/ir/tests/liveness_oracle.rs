//! The bitset [`Liveness`] against a naive `BTreeSet` fixpoint, on
//! seeded random CFGs and on every kernel after each grid
//! configuration's pre-schedule passes (the code trace scheduling, the
//! list scheduler and the register allocator compute liveness on).

use bsched_ir::{
    Block, BlockId, BrCond, Cfg, Function, Inst, Liveness, Op, Program, Reg, RegClass, Terminator,
};
use bsched_opt::{
    apply_locality, copy_propagate, dead_code_elim, local_cse, merge_straight_chains,
    predicate_function, trace_schedule, unroll_loop, EdgeProfile, LocalityOptions, TraceOptions,
    UnrollLimits,
};
use bsched_pipeline::{standard_grid, CompileOptions};
use bsched_util::Prng;
use std::collections::BTreeSet;

/// Round-robin fixpoint over plain sets, in block-index order, on the
/// blocks reachable from the entry (unreachable blocks stay empty, as in
/// [`Liveness`]).
fn naive_liveness(func: &Function) -> (Vec<BTreeSet<Reg>>, Vec<BTreeSet<Reg>>) {
    let n = func.blocks().len();
    let mut reachable = vec![false; n];
    let mut stack = vec![func.entry()];
    while let Some(b) = stack.pop() {
        if !std::mem::replace(&mut reachable[b.index()], true) {
            stack.extend(func.block(b).term.successors());
        }
    }
    let mut live_in = vec![BTreeSet::new(); n];
    let mut live_out = vec![BTreeSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for (id, block) in func.iter_blocks() {
            if !reachable[id.index()] {
                continue;
            }
            let out: BTreeSet<Reg> = block
                .term
                .successors()
                .into_iter()
                .flat_map(|s| live_in[s.index()].iter().copied().collect::<Vec<_>>())
                .collect();
            // Walk the block backwards from its live-out set.
            let mut live = out.clone();
            live.extend(block.term.cond_reg());
            for inst in block.insts.iter().rev() {
                if let Some(d) = inst.dst {
                    live.remove(&d);
                }
                live.extend(inst.srcs().iter().copied());
            }
            if out != live_out[id.index()] || live != live_in[id.index()] {
                live_out[id.index()] = out;
                live_in[id.index()] = live;
                changed = true;
            }
        }
    }
    (live_in, live_out)
}

fn assert_matches_oracle(func: &Function, what: &str) {
    let live = Liveness::new(func, &Cfg::new(func));
    let (want_in, want_out) = naive_liveness(func);
    for (id, _) in func.iter_blocks() {
        let got_in: BTreeSet<Reg> = live.live_in(id).iter().collect();
        let got_out: BTreeSet<Reg> = live.live_out(id).iter().collect();
        assert_eq!(got_in, want_in[id.index()], "{what}: live-in of {id}");
        assert_eq!(got_out, want_out[id.index()], "{what}: live-out of {id}");
        assert_eq!(live.live_in(id).len(), got_in.len(), "{what}: len of {id}");
        for r in &got_in {
            assert!(
                live.live_in(id).contains(*r),
                "{what}: contains {r} in {id}"
            );
        }
    }
}

/// A random function: `nblocks` blocks with random jumps, branches and
/// returns, and straight-line code over a small pool of registers of
/// both classes (so values flow across blocks and loops).
fn random_function(rng: &mut Prng) -> Function {
    let mut f = Function::new("rand");
    let ints: Vec<Reg> = (0..1 + rng.index(90))
        .map(|_| f.new_reg(RegClass::Int))
        .collect();
    let floats: Vec<Reg> = (0..1 + rng.index(90))
        .map(|_| f.new_reg(RegClass::Float))
        .collect();
    let nblocks = 1 + rng.index(12);
    for _ in 1..nblocks {
        f.add_block(Block::new(Terminator::Ret));
    }
    let pick = |rng: &mut Prng, pool: &[Reg]| pool[rng.index(pool.len())];
    for b in 0..nblocks {
        let id = BlockId::new(b);
        for _ in 0..rng.index(8) {
            let inst = match rng.index(4) {
                0 => Inst::li(pick(rng, &ints), rng.index(9) as i64),
                1 => Inst::op(
                    Op::Add,
                    pick(rng, &ints),
                    &[pick(rng, &ints), pick(rng, &ints)],
                ),
                2 => Inst::op(
                    Op::FMul,
                    pick(rng, &floats),
                    &[pick(rng, &floats), pick(rng, &floats)],
                ),
                _ => Inst::store(pick(rng, &floats), pick(rng, &ints), 0),
            };
            f.block_mut(id).insts.push(inst);
        }
        let target = |rng: &mut Prng| BlockId::new(rng.index(nblocks));
        f.block_mut(id).term = match rng.index(3) {
            0 => Terminator::Ret,
            1 => Terminator::Jmp(target(rng)),
            _ => Terminator::Br {
                cond: pick(rng, &ints),
                when: BrCond::NonZero,
                taken: target(rng),
                fall: target(rng),
            },
        };
    }
    f
}

#[test]
fn bitset_liveness_matches_naive_fixpoint_on_random_cfgs() {
    let mut rng = Prng::new(0x11FE_0001);
    for case in 0..300 {
        let f = random_function(&mut rng);
        assert_matches_oracle(&f, &format!("random case {case}"));
    }
}

/// The pipeline's pass order up to basic-block scheduling, checking
/// liveness after every pass that changes the code.
fn check_pre_schedule_passes(program: &Program, opts: &CompileOptions, what: &str) {
    let mut p = program.clone();
    let check =
        |p: &Program, pass: &str| assert_matches_oracle(p.main(), &format!("{what} {pass}"));
    check(&p, "source");
    if opts.predicate {
        predicate_function(p.main_mut());
        check(&p, "predicate");
    }
    local_cse(p.main_mut());
    copy_propagate(p.main_mut());
    dead_code_elim(p.main_mut());
    check(&p, "cleanup_pre");
    let mut consumed = Vec::new();
    if opts.locality {
        let lopts = LocalityOptions {
            factor: opts.unroll,
            max_body_insts: 128,
        };
        consumed = apply_locality(p.main_mut(), &lopts).loops_processed;
        check(&p, "locality");
    }
    if let Some(factor) = opts.unroll {
        let budget = opts
            .unroll_budget
            .unwrap_or(UnrollLimits::for_factor(factor).max_body_insts);
        for idx in p.main().innermost_loops() {
            if consumed.contains(&idx) {
                continue;
            }
            let mut f = factor;
            while f >= 2 {
                let limits = UnrollLimits {
                    factor: f,
                    max_body_insts: budget,
                };
                if unroll_loop(p.main_mut(), idx, &limits).is_some() {
                    break;
                }
                f /= 2;
            }
        }
        check(&p, "unroll");
    }
    local_cse(p.main_mut());
    copy_propagate(p.main_mut());
    dead_code_elim(p.main_mut());
    merge_straight_chains(p.main_mut());
    check(&p, "cleanup_post");
    if opts.trace {
        let profile = EdgeProfile::collect(&p).expect("profile");
        let topts = TraceOptions {
            weights: opts.weight_config(),
            speculation: true,
        };
        trace_schedule(p.main_mut(), &profile, &topts);
        dead_code_elim(p.main_mut());
        check(&p, "trace_schedule");
    }
}

#[test]
fn bitset_liveness_matches_naive_fixpoint_on_every_kernel_and_configuration() {
    let kernels = bsched_workloads::all_kernels();
    assert_eq!(kernels.len(), 17);
    let grid = standard_grid();
    for k in &kernels {
        let program = k.program();
        for config in &grid {
            let opts = config.options();
            check_pre_schedule_passes(&program, &opts, &format!("{} {}", k.name, opts.label()));
        }
    }
}
