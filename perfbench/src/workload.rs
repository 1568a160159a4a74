//! The workloads' cell sets and the committed reference every cell is
//! checked against.
//!
//! The references are copies of the repository's committed results
//! (`results/all_experiments.csv`, `results/machines.csv`), compiled
//! into the benchmark so that the code under test never supplies its
//! own expected output.

use bsched_harness::ExperimentCell;
use bsched_pipeline::{standard_grid, CompileOptions, MachineSpec, SchedulerKind};
use bsched_serve::protocol::cell_from_json;
use bsched_sim::SimMetrics;
use bsched_util::{Json, Prng};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// `results/all_experiments.csv` as committed.
pub const GRID_REFERENCE: &str = include_str!("../reference/all_experiments.csv");
/// `results/machines.csv` as committed.
pub const ZOO_REFERENCE: &str = include_str!("../reference/machines.csv");
/// The `serving_default` request mix.
pub const SERVING_MIX: &str = include_str!("../reference/serving_default.json");

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The cold 255-cell paper grid.
    GridCold,
    /// The exact machine-zoo sweep.
    ZooExact,
    /// The warm serving mix.
    ServeMix,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [Workload::GridCold, Workload::ZooExact, Workload::ServeMix];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridCold => "grid_cold",
            Workload::ZooExact => "zoo_exact",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// Names no workload.
    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                format!("unknown workload {s:?}; valid: grid_cold, zoo_exact, serve_mix")
            })
    }

    /// Worker threads of the engine doing the work.
    #[must_use]
    pub fn jobs(self) -> usize {
        match self {
            Workload::ZooExact => 2,
            Workload::GridCold | Workload::ServeMix => 1,
        }
    }
}

/// What a cell's metrics must reproduce.
#[derive(Clone, Debug)]
pub enum Expect {
    /// The cell's full `all_experiments --csv` row, behind its
    /// `kernel,config,scheduler` prefix.
    Row {
        /// `kernel,config,scheduler`.
        prefix: String,
        /// The committed line.
        line: String,
    },
    /// The committed `machines --csv` cycle count.
    Cycles(u64),
    /// The metrics of a direct engine run of the same cell.
    Metrics(SimMetrics),
}

/// A cell plus how it is checked and paired.
#[derive(Clone, Debug)]
pub struct WorkItem {
    /// The cell.
    pub cell: ExperimentCell,
    /// `(pair key, balanced?)` for TS and BS cells; a key with both arms
    /// contributes one TS/BS ratio to `bs_speedup`.
    pub pair: Option<(String, bool)>,
    /// The expected result.
    pub expect: Expect,
}

impl WorkItem {
    /// Whether `m` reproduces the expected result.
    #[must_use]
    pub fn matches(&self, m: &SimMetrics) -> bool {
        match &self.expect {
            Expect::Row { prefix, line } => &csv_row(prefix, m) == line,
            Expect::Cycles(c) => m.cycles == *c,
            Expect::Metrics(want) => m == want,
        }
    }
}

/// The `all_experiments --csv` row of a cell's metrics.
#[must_use]
pub fn csv_row(prefix: &str, m: &SimMetrics) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{prefix},{},{},{},{},{},{},{},{},{},{},{},{:.4}",
        m.cycles,
        m.load_interlock,
        m.fixed_interlock,
        m.branch_penalty,
        m.fetch_stall,
        m.tlb_stall,
        m.insts.total(),
        m.insts.loads,
        m.insts.stores,
        m.insts.branches,
        m.insts.spills,
        m.mem.l1d_hit_rate(),
    );
    s
}

fn kernel_names(only: Option<&[&str]>) -> Vec<String> {
    bsched_workloads::all_kernels()
        .iter()
        .map(|k| k.name.to_string())
        .filter(|k| only.is_none_or(|o| o.contains(&k.as_str())))
        .collect()
}

fn pair_of(scheduler: SchedulerKind, key: String) -> Option<(String, bool)> {
    match scheduler {
        SchedulerKind::Traditional => Some((key, false)),
        SchedulerKind::Balanced => Some((key, true)),
        _ => None,
    }
}

/// The `all_experiments` grid: every kernel × the 15 standard
/// configurations on `alpha21164`, in table order. `only` restricts the
/// kernels (the benchmark's own tests use a subset).
///
/// # Errors
///
/// A cell with no committed reference row.
pub fn grid_items(only: Option<&[&str]>) -> Result<Vec<WorkItem>, String> {
    let rows: HashMap<&str, &str> = GRID_REFERENCE
        .lines()
        .skip(1)
        .filter_map(|l| {
            let cut = l.match_indices(',').nth(2)?.0;
            Some((&l[..cut], l))
        })
        .collect();
    let mut items = Vec::new();
    for kernel in kernel_names(only) {
        for cfg in standard_grid() {
            let config = cfg.kind.label().replace(' ', "");
            let prefix = format!("{kernel},{config},{}", cfg.scheduler.label());
            let line = rows
                .get(prefix.as_str())
                .ok_or_else(|| format!("no reference row for {prefix}"))?
                .to_string();
            items.push(WorkItem {
                cell: ExperimentCell::new(&kernel, cfg.options()),
                pair: pair_of(cfg.scheduler, format!("{kernel}/{config}")),
                expect: Expect::Row { prefix, line },
            });
        }
    }
    Ok(items)
}

/// The scheduler arms of the machine sweep, as in the `machines` binary.
pub const ZOO_ARMS: [SchedulerKind; 3] = [
    SchedulerKind::Traditional,
    SchedulerKind::Balanced,
    SchedulerKind::Exact,
];

/// The `machines` sweep: every registry machine × kernel × arm at LU4.
///
/// # Errors
///
/// A cell with no committed reference row.
pub fn zoo_items(only: Option<&[&str]>) -> Result<Vec<WorkItem>, String> {
    let mut cycles: HashMap<(String, String), [u64; 3]> = HashMap::new();
    for line in ZOO_REFERENCE.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        let num = |i: usize| -> Result<u64, String> {
            f.get(i)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad machines reference line {line:?}"))
        };
        cycles.insert(
            (f[0].to_string(), f[1].to_string()),
            [num(2)?, num(3)?, num(4)?],
        );
    }
    let mut items = Vec::new();
    for info in MachineSpec::registry() {
        let machine = MachineSpec::named(info.name)?;
        for kernel in kernel_names(only) {
            let want = cycles
                .get(&(machine.spec().to_string(), kernel.clone()))
                .ok_or_else(|| format!("no reference row for {}/{kernel}", machine.spec()))?;
            for (arm, want) in ZOO_ARMS.into_iter().zip(want) {
                let opts = CompileOptions::new(arm)
                    .with_unroll(4)
                    .with_sim(machine.config());
                items.push(WorkItem {
                    cell: ExperimentCell::new(&kernel, opts),
                    pair: pair_of(arm, format!("{}/{kernel}", machine.spec())),
                    expect: Expect::Cycles(*want),
                });
            }
        }
    }
    Ok(items)
}

/// One weighted entry of a request mix: a request submits all of
/// `cells` at once.
#[derive(Clone, Debug)]
pub struct MixEntry {
    /// Relative draw weight.
    pub weight: u64,
    /// The request's `verify` flag.
    pub verify: bool,
    /// The request's cells.
    pub cells: Vec<ExperimentCell>,
}

/// A request mix as recorded in `serving_default.json`.
#[derive(Clone, Debug)]
pub struct Mix {
    /// The entries.
    pub entries: Vec<MixEntry>,
    /// The distinct cells over all entries, each with its TS/BS pair key;
    /// the expectation is filled in by a direct engine run.
    pub distinct: Vec<WorkItem>,
}

impl Mix {
    /// The embedded `serving_default` mix (the `bsched-client loadgen`
    /// format).
    ///
    /// # Errors
    ///
    /// A malformed document or a cell the wire protocol rejects.
    pub fn serving_default() -> Result<Mix, String> {
        let doc = Json::parse(SERVING_MIX).map_err(|e| format!("mix: {e}"))?;
        let Some(Json::Arr(raw)) = doc.get("entries") else {
            return Err("mix: missing \"entries\" array".to_string());
        };
        let mut entries = Vec::new();
        let mut distinct: Vec<WorkItem> = Vec::new();
        for e in raw {
            let strings = |key: &str| -> Vec<String> {
                match e.get(key) {
                    Some(Json::Arr(v)) => v
                        .iter()
                        .filter_map(|s| s.as_str().map(str::to_string))
                        .collect(),
                    _ => Vec::new(),
                }
            };
            let mut cells = Vec::new();
            for k in strings("kernels") {
                for c in strings("configs") {
                    for s in strings("schedulers") {
                        let shorthand = Json::obj(vec![
                            ("kernel", Json::Str(k.clone())),
                            ("scheduler", Json::Str(s.clone())),
                            ("config", Json::Str(c.clone())),
                        ]);
                        let cell = cell_from_json(&shorthand).map_err(|e| format!("mix: {e}"))?;
                        if !distinct
                            .iter()
                            .any(|d| d.cell.canonical_key() == cell.canonical_key())
                        {
                            distinct.push(WorkItem {
                                cell: cell.clone(),
                                pair: pair_of(cell.options().scheduler, format!("{k}/{c}")),
                                expect: Expect::Metrics(SimMetrics::default()),
                            });
                        }
                        cells.push(cell);
                    }
                }
            }
            if cells.is_empty() {
                return Err("mix: an entry names no cells".to_string());
            }
            entries.push(MixEntry {
                weight: e.get("weight").and_then(Json::as_u64).unwrap_or(1).max(1),
                verify: e.get("verify").and_then(Json::as_bool).unwrap_or(false),
                cells,
            });
        }
        if entries.is_empty() {
            return Err("mix: no entries".to_string());
        }
        Ok(Mix { entries, distinct })
    }

    /// The entry indices of client `client`'s `n` requests under `seed`.
    #[must_use]
    pub fn stream(&self, seed: u64, client: u64, n: usize) -> Vec<usize> {
        let total: u64 = self.entries.iter().map(|e| e.weight).sum();
        let mut rng = Prng::new(seed ^ client.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        (0..n)
            .map(|_| {
                let mut ticket = rng.range_u64(0, total);
                self.entries
                    .iter()
                    .position(|e| {
                        let hit = ticket < e.weight;
                        ticket = ticket.saturating_sub(e.weight);
                        hit
                    })
                    .unwrap_or(self.entries.len() - 1)
            })
            .collect()
    }
}

/// `items` in a seeded order: the seed varies the order cells reach the
/// engine, never the cells themselves.
#[must_use]
pub fn shuffled(mut items: Vec<WorkItem>, seed: u64) -> Vec<WorkItem> {
    let mut rng = Prng::new(seed);
    for i in (1..items.len()).rev() {
        let j = rng.index(i + 1);
        items.swap(i, j);
    }
    items
}

/// Total simulated cycles of one pass.
#[must_use]
pub fn sim_cycles(metrics: &[&SimMetrics]) -> u64 {
    metrics.iter().map(|m| m.cycles).sum()
}

/// The geometric mean of TS cycles ÷ BS cycles over matched pairs, and
/// the number of pairs. `metrics[i]` belongs to `items[i]`. Pairs are
/// summed in key order, so the value is bit-identical across processes
/// and cell orders.
#[must_use]
pub fn bs_speedup(items: &[WorkItem], metrics: &[&SimMetrics]) -> (f64, usize) {
    let mut arms: BTreeMap<&str, [Option<u64>; 2]> = BTreeMap::new();
    for (item, m) in items.iter().zip(metrics) {
        if let Some((key, balanced)) = &item.pair {
            arms.entry(key.as_str()).or_default()[usize::from(*balanced)] = Some(m.cycles);
        }
    }
    let logs: Vec<f64> = arms
        .values()
        .filter_map(|a| match a {
            [Some(ts), Some(bs)] if *bs > 0 => Some((*ts as f64 / *bs as f64).ln()),
            _ => None,
        })
        .collect();
    if logs.is_empty() {
        return (0.0, 0);
    }
    (
        (logs.iter().sum::<f64>() / logs.len() as f64).exp(),
        logs.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_sets_have_the_paper_shape() {
        let grid = grid_items(None).unwrap();
        assert_eq!(grid.len(), 255);
        let zoo = zoo_items(None).unwrap();
        assert_eq!(zoo.len(), 306);
        let mix = Mix::serving_default().unwrap();
        assert_eq!(mix.entries.len(), 5);
        assert!(mix.distinct.len() < 20);
    }

    #[test]
    fn references_reproduce_the_committed_headlines() {
        let grid = grid_items(None).unwrap();
        let metrics: Vec<SimMetrics> = grid
            .iter()
            .map(|it| {
                let Expect::Row { line, .. } = &it.expect else {
                    unreachable!()
                };
                SimMetrics {
                    cycles: line.split(',').nth(3).unwrap().parse().unwrap(),
                    ..SimMetrics::default()
                }
            })
            .collect();
        let refs: Vec<&SimMetrics> = metrics.iter().collect();
        assert_eq!(sim_cycles(&refs), 35_477_468);
        let (s, pairs) = bs_speedup(&grid, &refs);
        assert_eq!(pairs, 85);
        assert!((s - 1.088).abs() < 0.0005, "{s}");

        let zoo = zoo_items(None).unwrap();
        let metrics: Vec<SimMetrics> = zoo
            .iter()
            .map(|it| {
                let Expect::Cycles(c) = it.expect else {
                    unreachable!()
                };
                SimMetrics {
                    cycles: c,
                    ..SimMetrics::default()
                }
            })
            .collect();
        let refs: Vec<&SimMetrics> = metrics.iter().collect();
        assert_eq!(sim_cycles(&refs), 42_298_110);
        let (s, pairs) = bs_speedup(&zoo, &refs);
        assert_eq!(pairs, 102);
        assert!((s - 1.075).abs() < 0.0005, "{s}");
    }

    #[test]
    fn shuffling_is_a_seeded_permutation() {
        let grid = grid_items(Some(&["TRFD"])).unwrap();
        let a = shuffled(grid.clone(), 7);
        let b = shuffled(grid.clone(), 7);
        let keys = |v: &[WorkItem]| {
            v.iter()
                .map(|i| i.cell.canonical_key().to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&a), keys(&b));
        let mut sorted_a = keys(&a);
        let mut sorted_g = keys(&grid);
        sorted_a.sort();
        sorted_g.sort();
        assert_eq!(sorted_a, sorted_g);
    }
}
