//! Randomized property tests for register allocation: the interference
//! graph equals a pairwise oracle, colorings are proper, and the
//! rewritten code preserves semantics. Cases come from the workspace's
//! seeded [`Prng`].

use bsched_ir::{Cfg, FuncBuilder, Interp, Liveness, Op, Program, Reg, RegClass};
use bsched_regalloc::allocate;
use bsched_regalloc::coloring::{color, interference};
use bsched_util::Prng;
use std::collections::BTreeSet;

/// Builds a straight-line program with `n` chained float values and `w`
/// independent live webs (w controls pressure).
fn pressure_program(webs: usize, chain: usize) -> Program {
    let mut p = Program::new("prop");
    let r = p.add_region("out", (webs * 8) as u64 + 8);
    let mut b = FuncBuilder::new("main");
    let base = b.load_region_addr(r);
    let mut heads = Vec::new();
    for w in 0..webs {
        let mut v = b.fconst(w as f64 + 1.0);
        for _ in 0..chain {
            v = b.binop_imm_like(v);
        }
        heads.push(v);
    }
    for (w, v) in heads.iter().enumerate() {
        b.store(*v, base, (w * 8) as i64)
            .with_region(r)
            .emit(&mut b);
    }
    b.ret();
    p.set_main(b.finish());
    p
}

trait FMulSelf {
    fn binop_imm_like(&mut self, v: bsched_ir::Reg) -> bsched_ir::Reg;
}
impl FMulSelf for FuncBuilder {
    fn binop_imm_like(&mut self, v: bsched_ir::Reg) -> bsched_ir::Reg {
        self.binop(Op::FMul, v, v)
    }
}

#[test]
fn coloring_is_proper() {
    let mut rng = Prng::new(0xA110_0001);
    for case in 0..32 {
        let webs = 1 + rng.index(39);
        let chain = rng.index(4);
        let p = pressure_program(webs, chain);
        let g = interference(p.main());
        let (colors, spilled) = color(&g, 8);
        assert_eq!(colors.len(), g.nodes.len());
        for (i, &c) in colors.iter().enumerate() {
            if let Some(c) = c {
                assert!(c < 8, "case {case} (webs {webs}, chain {chain})");
                for j in g.neighbors(i) {
                    if let Some(cj) = colors[j] {
                        assert_ne!(
                            c, cj,
                            "case {case} (webs {webs}, chain {chain}): adjacent nodes share a color"
                        );
                    }
                }
            }
        }
        // Everything is either colored or spilled.
        for (i, &reg) in g.nodes.iter().enumerate() {
            assert!(
                colors[i].is_some() || spilled.contains(&reg),
                "case {case} (webs {webs}, chain {chain})"
            );
        }
    }
}

#[test]
fn allocation_preserves_semantics() {
    let mut rng = Prng::new(0xA110_0002);
    for case in 0..32 {
        let webs = 1 + rng.index(47);
        let chain = rng.index(3);
        let mut p = pressure_program(webs, chain);
        let want = Interp::new(&p).run().unwrap().checksum;
        let stats = allocate(&mut p);
        assert!(
            bsched_ir::verify_program(&p).is_ok(),
            "case {case} (webs {webs}, chain {chain})"
        );
        let got = Interp::new(&p).run().unwrap().checksum;
        assert_eq!(want, got, "case {case} (webs {webs}, chain {chain})");
        // High web counts must spill (28 allocatable floats).
        if webs > 35 && chain == 0 {
            assert!(
                stats.spilled > 0 || stats.assigned >= webs as u64,
                "case {case} (webs {webs}, chain {chain})"
            );
        }
        // No virtual registers survive.
        for (_, blk) in p.main().iter_blocks() {
            for inst in &blk.insts {
                for &s in inst.srcs() {
                    assert!(s.is_phys(), "case {case} (webs {webs}, chain {chain})");
                }
                if let Some(d) = inst.dst {
                    assert!(d.is_phys(), "case {case} (webs {webs}, chain {chain})");
                }
            }
        }
        let _ = RegClass::Int;
    }
}

/// Interference from first principles: the live set after every program
/// point (a backward walk from each block's live-out), and an edge
/// between a virtual definition and every other same-class virtual
/// register live just after it.
fn pairwise_oracle(func: &bsched_ir::Function) -> BTreeSet<(Reg, Reg)> {
    let live = Liveness::new(func, &Cfg::new(func));
    let mut edges = BTreeSet::new();
    for (id, block) in func.iter_blocks() {
        let mut live_after: Vec<BTreeSet<Reg>> = vec![BTreeSet::new(); block.insts.len()];
        let mut cur: BTreeSet<Reg> = live.live_out(id).iter().collect();
        cur.extend(block.term.cond_reg());
        for (k, inst) in block.insts.iter().enumerate().rev() {
            live_after[k] = cur.clone();
            if let Some(d) = inst.dst {
                cur.remove(&d);
            }
            cur.extend(inst.srcs().iter().copied());
        }
        for (inst, after) in block.insts.iter().zip(&live_after) {
            let Some(d) = inst.dst.filter(|d| !d.is_phys()) else {
                continue;
            };
            for &l in after {
                if l != d && !l.is_phys() && l.class() == d.class() {
                    edges.insert((d.min(l), d.max(l)));
                }
            }
        }
    }
    edges
}

fn assert_graph_matches_oracle(func: &bsched_ir::Function, what: &str) -> usize {
    let g = interference(func);
    let want = pairwise_oracle(func);
    let mut got = BTreeSet::new();
    for i in 0..g.nodes.len() {
        assert!(!g.interferes(i, i), "{what}: self-loop on {}", g.nodes[i]);
        for j in 0..g.nodes.len() {
            assert_eq!(g.interferes(i, j), g.interferes(j, i), "{what}: asymmetric");
            if g.interferes(i, j) {
                got.insert((g.nodes[i].min(g.nodes[j]), g.nodes[i].max(g.nodes[j])));
            }
        }
        let row: Vec<usize> = g.neighbors(i).collect();
        let scan: Vec<usize> = (0..g.nodes.len()).filter(|&j| g.interferes(i, j)).collect();
        assert_eq!(row, scan, "{what}: neighbors of {}", g.nodes[i]);
    }
    assert_eq!(got, want, "{what}: interference edges");
    g.nodes.len()
}

#[test]
fn interference_equals_pairwise_oracle() {
    use bsched_core::{schedule_function, SchedulerKind, WeightConfig};
    use bsched_opt::{copy_propagate, dead_code_elim, local_cse, unroll_loop, UnrollLimits};
    let mut rng = Prng::new(0xA110_0003);
    for case in 0..16 {
        let webs = 1 + rng.index(47);
        let chain = rng.index(4);
        let p = pressure_program(webs, chain);
        assert_graph_matches_oracle(p.main(), &format!("case {case}"));
    }
    // Every kernel unrolled by 8 and balanced-scheduled: the allocator's
    // real, high-pressure input.
    for k in bsched_workloads::all_kernels() {
        let mut p = k.program();
        assert_graph_matches_oracle(p.main(), k.name);
        for idx in p.main().innermost_loops() {
            unroll_loop(p.main_mut(), idx, &UnrollLimits::for_factor(8));
        }
        local_cse(p.main_mut());
        copy_propagate(p.main_mut());
        dead_code_elim(p.main_mut());
        schedule_function(p.main_mut(), &WeightConfig::new(SchedulerKind::Balanced));
        assert_graph_matches_oracle(p.main(), &format!("{} unrolled", k.name));
    }
}
