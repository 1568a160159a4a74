//! Exact-interference graph coloring.
//!
//! Min-max live intervals ignore lifetime holes, which over-constrains
//! tightly scheduled unrolled blocks (a pressure-gated schedule with ≤27
//! simultaneously-live floats can still show >31 *interval* overlap).
//! This allocator computes exact per-point interference from a backward
//! liveness walk and colors greedily; only registers that genuinely
//! exceed the register file spill.
//!
//! The graph is dense: adjacency is one bit row per node, so a graph of
//! `n` virtual registers costs `n²` bits.

use bsched_ir::{Cfg, Function, Liveness, Reg, RegClass, RegSet};

/// Exact interference graph over virtual registers.
#[derive(Debug, Default)]
pub struct Interference {
    /// Node list in first-appearance order (block layout order).
    pub nodes: Vec<Reg>,
    /// Static use counts (spill-cost proxy), indexed like `nodes`.
    pub uses: Vec<u32>,
    /// Node index of each register, by [`Reg::dense`] (`u32::MAX`: none).
    node_of: Vec<u32>,
    /// Words per adjacency row.
    words: usize,
    /// Adjacency bit rows: row `i` holds the neighbours of node `i`.
    adj: Vec<u64>,
}

impl Interference {
    /// The node index of `r`, if `r` is a virtual register of the graph.
    #[must_use]
    pub fn node(&self, r: Reg) -> Option<usize> {
        match self.node_of.get(r.dense()) {
            Some(&i) if i != u32::MAX => Some(i as usize),
            _ => None,
        }
    }

    /// `true` if nodes `i` and `j` interfere.
    #[must_use]
    pub fn interferes(&self, i: usize, j: usize) -> bool {
        self.adj[i * self.words + j / 64] >> (j % 64) & 1 == 1
    }

    /// The neighbours of node `i`, in increasing index order.
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[i * self.words..(i + 1) * self.words]
            .iter()
            .enumerate()
            .flat_map(|(k, &w)| {
                let mut rest = w;
                std::iter::from_fn(move || {
                    (rest != 0).then(|| {
                        let b = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        k * 64 + b
                    })
                })
            })
    }

    fn add_node(&mut self, r: Reg) -> usize {
        if r.dense() >= self.node_of.len() {
            self.node_of.resize(r.dense() + 1, u32::MAX);
        }
        if self.node_of[r.dense()] == u32::MAX {
            self.node_of[r.dense()] = self.nodes.len() as u32;
            self.nodes.push(r);
            self.uses.push(0);
        }
        self.node_of[r.dense()] as usize
    }
}

/// Builds the exact interference graph of `func`'s virtual registers.
#[must_use]
pub fn interference(func: &Function) -> Interference {
    let cfg = Cfg::new(func);
    let live_info = Liveness::new(func, &cfg);

    let mut g = Interference {
        node_of: vec![u32::MAX; RegSet::words_for(func) * 64],
        ..Interference::default()
    };
    // Deterministic node order: first textual appearance.
    for (_, block) in func.iter_blocks() {
        for inst in &block.insts {
            for &s in inst.srcs() {
                if !s.is_phys() {
                    let i = g.add_node(s);
                    g.uses[i] += 1;
                }
            }
            if let Some(d) = inst.dst {
                if !d.is_phys() {
                    g.add_node(d);
                }
            }
        }
        if let Some(c) = block.term.cond_reg() {
            if !c.is_phys() {
                let i = g.add_node(c);
                g.uses[i] += 1;
            }
        }
    }

    let n = g.nodes.len();
    let words = n.div_ceil(64);
    g.words = words;
    g.adj = vec![0; n * words];
    // Per-class node masks: only same-class registers interfere.
    let mut float_mask = vec![0u64; words];
    for (i, r) in g.nodes.iter().enumerate() {
        if r.class() == RegClass::Float {
            float_mask[i / 64] |= 1 << (i % 64);
        }
    }

    // Backward walk per block with the live set as a bitset over nodes.
    let mut live = vec![0u64; words];
    for (id, block) in func.iter_blocks() {
        live.fill(0);
        let live_out = live_info.live_out(id).iter();
        for r in live_out.chain(block.term.cond_reg()) {
            if let Some(i) = g.node(r) {
                live[i / 64] |= 1 << (i % 64);
            }
        }
        for inst in block.insts.iter().rev() {
            if let Some(di) = inst.dst.and_then(|d| g.node(d)) {
                live[di / 64] &= !(1 << (di % 64));
                let float = g.nodes[di].class() == RegClass::Float;
                for k in 0..words {
                    let mut m = live[k] & if float { float_mask[k] } else { !float_mask[k] };
                    g.adj[di * words + k] |= m;
                    while m != 0 {
                        let li = k * 64 + m.trailing_zeros() as usize;
                        m &= m - 1;
                        g.adj[li * words + di / 64] |= 1 << (di % 64);
                    }
                }
            }
            for &s in inst.srcs() {
                if let Some(si) = g.node(s) {
                    live[si / 64] |= 1 << (si % 64);
                }
            }
        }
    }
    g
}

/// Greedy coloring with `k` colors per class. Returns
/// `(color per node, spilled regs in spill order)`; the color vector is
/// indexed like [`Interference::nodes`].
///
/// Nodes are colored in decreasing static use count (hot registers claim
/// colors first), falling back to appearance order for determinism;
/// nodes that find no free color spill.
#[must_use]
pub fn color(g: &Interference, k: u32) -> (Vec<Option<u32>>, Vec<Reg>) {
    color_nodes(g, k, |_| true)
}

/// [`color`] restricted to one register class; other nodes stay `None`.
#[must_use]
pub fn color_class(g: &Interference, class: RegClass, k: u32) -> (Vec<Option<u32>>, Vec<Reg>) {
    color_nodes(g, k, |r| r.class() == class)
}

fn color_nodes(
    g: &Interference,
    k: u32,
    include: impl Fn(Reg) -> bool,
) -> (Vec<Option<u32>>, Vec<Reg>) {
    let mut colors: Vec<Option<u32>> = vec![None; g.nodes.len()];
    let mut spilled: Vec<Reg> = Vec::new();
    let mut order: Vec<usize> = (0..g.nodes.len())
        .filter(|&i| include(g.nodes[i]))
        .collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(g.uses[i]), i));
    let mut taken = vec![false; k as usize];
    for &i in &order {
        taken.fill(false);
        for j in g.neighbors(i) {
            if let Some(c) = colors[j] {
                taken[c as usize] = true;
            }
        }
        match taken.iter().position(|t| !t) {
            Some(c) => colors[i] = Some(c as u32),
            None => spilled.push(g.nodes[i]),
        }
    }
    (colors, spilled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::{FuncBuilder, Op};

    #[test]
    fn disjoint_lifetimes_share_colors() {
        // x dies before y is born: same color allowed.
        let mut b = FuncBuilder::new("t");
        let x = b.iconst(1);
        let x2 = b.binop_imm(Op::Add, x, 1); // last use of x
        let y = b.iconst(2);
        let _y2 = b.binop(Op::Add, y, x2);
        b.ret();
        let f = b.finish();
        let g = interference(&f);
        // Two colors suffice even though three values exist: x's hole
        // lets y reuse a register (interval min-max would need three).
        let (colors, spilled) = color(&g, 2);
        assert!(spilled.is_empty(), "{colors:?}");
        let distinct: std::collections::BTreeSet<u32> = colors.iter().flatten().copied().collect();
        assert!(distinct.len() <= 2);
        let _ = (x, y);
    }

    #[test]
    fn overlapping_lifetimes_conflict() {
        let mut b = FuncBuilder::new("t");
        let x = b.iconst(1);
        let y = b.iconst(2);
        let _z = b.binop(Op::Add, x, y); // both live here
        b.ret();
        let f = b.finish();
        let g = interference(&f);
        let (colors, spilled) = color(&g, 2);
        assert!(spilled.is_empty());
        let (xi, yi) = (g.node(x).unwrap(), g.node(y).unwrap());
        assert!(g.interferes(xi, yi) && g.interferes(yi, xi));
        assert!(colors[xi].is_some());
        assert_ne!(colors[xi], colors[yi]);
    }

    #[test]
    fn too_many_live_spills_least_used() {
        // Three mutually live ints, one color: the two hottest get the
        // color?? No — one gets the color, two spill; the hottest wins.
        let mut b = FuncBuilder::new("t");
        let x = b.iconst(1);
        let y = b.iconst(2);
        let z = b.iconst(3);
        let t1 = b.binop(Op::Add, x, y);
        let t2 = b.binop(Op::Add, t1, z);
        let t3 = b.binop(Op::Add, t2, x);
        let _t4 = b.binop(Op::Add, t3, x); // x is hottest (3 uses)
        b.ret();
        let f = b.finish();
        let g = interference(&f);
        let (colors, spilled) = color(&g, 1);
        assert!(
            colors[g.node(x).unwrap()].is_some(),
            "hottest register keeps the color"
        );
        assert!(spilled.contains(&y) || spilled.contains(&z));
    }

    #[test]
    fn classes_do_not_interfere() {
        let mut b = FuncBuilder::new("t");
        let x = b.iconst(1);
        let f1 = b.fconst(1.0);
        let f2 = b.binop(Op::FAdd, f1, f1);
        let _u = b.binop(Op::Add, x, x);
        let _v = b.binop(Op::FMul, f2, f1);
        b.ret();
        let f = b.finish();
        let g = interference(&f);
        let xi = g.node(x).unwrap();
        let fi = g.node(f1).unwrap();
        assert_eq!(g.nodes[xi], x);
        assert!(!g.interferes(xi, fi), "int and float never interfere");
        assert!(g.neighbors(xi).all(|j| g.nodes[j].class() == x.class()));
    }
}
