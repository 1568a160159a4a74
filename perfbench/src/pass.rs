//! One timed cold pass of `grid_cold` or `zoo_exact`.
//!
//! The process-wide DAG-analysis cache persists within a process, so a
//! second pass in the same process would measure a warm cache that no
//! `all_experiments` user gets. The orchestrator therefore runs every
//! pass in a fresh process (`perfbench pass`), which reports one
//! [`PassOutcome`] as a JSON line.

use crate::stats::{ms, peak_rss_mb};
use crate::workload::{bs_speedup, sim_cycles, WorkItem};
use bsched_harness::{Engine, EngineConfig, ExperimentCell};
use bsched_sim::{SimEngine, SimMode};
use bsched_util::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// What one cold pass measured.
#[derive(Clone, Debug, Default)]
pub struct PassOutcome {
    /// Seconds from the first cell issued to the last result.
    pub wall_s: f64,
    /// Cells attempted.
    pub cells: u64,
    /// Cells that errored or did not reproduce the reference.
    pub failed: u64,
    /// Total simulated cycles.
    pub sim_cycles: u64,
    /// Geometric-mean TS/BS cycle ratio over matched pairs.
    pub bs_speedup: f64,
    /// Per-cell execution times (ms).
    pub cell_ms: Vec<f64>,
    /// Execution time (ms) summed per cell label. A label can name
    /// several cells (the zoo's machines share one), so this is the
    /// finest grain on which every pass lines up, whatever the issue
    /// order or worker count.
    pub label_ms: BTreeMap<String, f64>,
    /// Peak resident memory of the pass process (MiB).
    pub peak_rss_mb: f64,
    /// DAG-analysis cache hits during the pass.
    pub dag_hits: u64,
    /// DAG-analysis cache lookups during the pass.
    pub dag_lookups: u64,
    /// Engine memory + disk hits over cells requested.
    pub hit_frac: f64,
    /// Pool busy time over workers × pool wall.
    pub pool_util: f64,
    /// Pool steals.
    pub steals: u64,
    /// Exact-search nodes expanded.
    pub exact_nodes: u64,
    /// Exact-search regions searched.
    pub exact_regions: u64,
    /// Exact-search regions proven optimal.
    pub exact_proven: u64,
}

/// The engine configuration of a cold pass: block engine, exact mode,
/// no verification, the disk cache at `cache_dir`.
#[must_use]
pub fn engine_config(jobs: usize, cache_dir: &Path) -> EngineConfig {
    EngineConfig::default()
        .with_jobs(jobs)
        .with_cache_dir(cache_dir.to_path_buf())
        .with_disk_cache(true)
        .with_verify(false)
        .with_sim_engine(SimEngine::BlockCompiled)
        .with_sim_mode(SimMode::Exact)
}

/// Runs `items` once on `engine` and checks every cell.
#[must_use]
pub fn run_pass(engine: &Engine, items: &[WorkItem]) -> PassOutcome {
    let cells: Vec<ExperimentCell> = items.iter().map(|i| i.cell.clone()).collect();
    let (h0, m0, _) = bsched_ir::analysis::cache_stats();
    let t0 = Instant::now();
    let ran = engine.run(&cells);
    let wall_s = t0.elapsed().as_secs_f64();
    let (h1, m1, _) = bsched_ir::analysis::cache_stats();
    if let Err(e) = &ran {
        eprintln!("perfbench: pass failed: {e}");
    }

    let results: Vec<Option<bsched_harness::CellResult>> =
        cells.iter().map(|c| engine.result(c)).collect();
    let failed = items
        .iter()
        .zip(&results)
        .filter(|(item, r)| {
            !r.as_ref()
                .is_some_and(|r| r.checksum_ok && item.matches(&r.metrics))
        })
        .count() as u64;
    let metrics: Vec<&bsched_sim::SimMetrics> =
        results.iter().flatten().map(|r| &r.metrics).collect();
    let complete = metrics.len() == items.len();
    let report = engine.report();
    let mut label_ms = BTreeMap::new();
    for t in &report.cell_timings {
        *label_ms.entry(t.cell.clone()).or_insert(0.0) += ms(t.wall);
    }
    PassOutcome {
        wall_s,
        cells: items.len() as u64,
        failed,
        sim_cycles: if complete { sim_cycles(&metrics) } else { 0 },
        bs_speedup: if complete {
            bs_speedup(items, &metrics).0
        } else {
            0.0
        },
        cell_ms: report.cell_timings.iter().map(|t| ms(t.wall)).collect(),
        label_ms,
        peak_rss_mb: peak_rss_mb(None),
        dag_hits: h1 - h0,
        dag_lookups: (h1 + m1) - (h0 + m0),
        hit_frac: report.hit_rate(),
        pool_util: report.utilization(),
        steals: report.steals,
        exact_nodes: report.exact.nodes,
        exact_regions: report.exact.regions,
        exact_proven: report.exact.proven,
    }
}

impl PassOutcome {
    /// The outcome as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("wall_s", Json::Num(self.wall_s)),
            ("cells", Json::u64(self.cells)),
            ("failed", Json::u64(self.failed)),
            ("sim_cycles", Json::u64(self.sim_cycles)),
            ("bs_speedup", Json::Num(self.bs_speedup)),
            (
                "cell_ms",
                Json::Arr(self.cell_ms.iter().map(|v| Json::Num(*v)).collect()),
            ),
            (
                "label_ms",
                Json::Obj(
                    self.label_ms
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("dag_hits", Json::u64(self.dag_hits)),
            ("dag_lookups", Json::u64(self.dag_lookups)),
            ("hit_frac", Json::Num(self.hit_frac)),
            ("pool_util", Json::Num(self.pool_util)),
            ("steals", Json::u64(self.steals)),
            ("exact_nodes", Json::u64(self.exact_nodes)),
            ("exact_regions", Json::u64(self.exact_regions)),
            ("exact_proven", Json::u64(self.exact_proven)),
        ])
    }

    /// Parses [`PassOutcome::to_json`] output.
    ///
    /// # Errors
    ///
    /// A field is missing or mistyped.
    pub fn from_json(doc: &Json) -> Result<PassOutcome, String> {
        let num = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("pass result lacks {k}"))
        };
        let int = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("pass result lacks {k}"))
        };
        let Some(Json::Arr(cell_ms)) = doc.get("cell_ms") else {
            return Err("pass result lacks cell_ms".to_string());
        };
        let Some(Json::Obj(label_ms)) = doc.get("label_ms") else {
            return Err("pass result lacks label_ms".to_string());
        };
        Ok(PassOutcome {
            wall_s: num("wall_s")?,
            cells: int("cells")?,
            failed: int("failed")?,
            sim_cycles: int("sim_cycles")?,
            bs_speedup: num("bs_speedup")?,
            cell_ms: cell_ms.iter().filter_map(Json::as_f64).collect(),
            label_ms: label_ms
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                .collect(),
            peak_rss_mb: num("peak_rss_mb")?,
            dag_hits: int("dag_hits")?,
            dag_lookups: int("dag_lookups")?,
            hit_frac: num("hit_frac")?,
            pool_util: num("pool_util")?,
            steals: int("steals")?,
            exact_nodes: int("exact_nodes")?,
            exact_regions: int("exact_regions")?,
            exact_proven: int("exact_proven")?,
        })
    }
}
