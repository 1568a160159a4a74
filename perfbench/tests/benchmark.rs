//! The benchmark's own checks: its metric names, that the traced run's
//! layer times add up to the cell time, and that counts do not depend on
//! tracing or on the worker count.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use bsched_harness::Engine;
use bsched_util::Json;
use perfbench::layers::{traced_pass, Layers, ProbeRequests};
use perfbench::metrics::{end_to_end, per_layer, valid_name, MetricDef};
use perfbench::pass::{engine_config, run_pass, PassOutcome};
use perfbench::stats::median;
use perfbench::workload::{grid_items, zoo_items, WorkItem, Workload};
use std::path::PathBuf;

const END_TO_END: [&str; 9] = [
    "setup_s",
    "wall_s",
    "cells_per_s",
    "req_per_s",
    "req_p50_ms",
    "req_p99_ms",
    "sim_cycles",
    "bs_speedup",
    "peak_rss_mb",
];

const PER_LAYER: [&str; 37] = [
    "workloads.lower_ms",
    "ir.verify_ms",
    "ir.reference_ms",
    "ir.check_ms",
    "ir.interp_minst_per_s",
    "opt.profile_ms",
    "core.schedule_ms",
    "core.dag_cache_hit_frac",
    "core.dag_cache_hits",
    "core.exact_ms",
    "core.exact_nodes",
    "core.exact_proven_frac",
    "regalloc.allocate_ms",
    "regalloc.spills",
    "pipeline.compile_ms",
    "pipeline.compile_self_ms",
    "pipeline.static_insts",
    "sim.run_ms",
    "sim.minst_per_s",
    "sim.load_interlock_frac.ts",
    "sim.load_interlock_frac.bs",
    "mem.l1d_hit_rate",
    "mem.prefetch_useful_frac",
    "harness.disk_store_ms",
    "harness.disk_load_us",
    "harness.codec_us",
    "harness.hit_frac",
    "harness.pool_util",
    "harness.steals",
    "util.frame_us",
    "serve.core_hit_us",
    "serve.rpc_hit_us",
    "serve.joined_frac",
    "serve.rejected_submits",
    "serve.failed_cells",
    "bench.attributed_frac",
    "bench.trace_overhead_frac",
];

const SUBSET: [&str; 2] = ["ARC2D", "TRFD"];

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn names(defs: &[MetricDef]) -> Vec<&str> {
    defs.iter().map(|d| d.name.as_str()).collect()
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, section: &str) -> Vec<MetricDef> {
    let Some(Json::Arr(items)) = doc.get(section) else {
        panic!("BENCHMARK.json lacks {section}");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            MetricDef {
                name: field("name"),
                unit: field("unit"),
                better: field("better"),
            }
        })
        .collect()
}

#[test]
fn metric_names_are_valid_and_match_the_declared_lists() {
    let e2e = end_to_end();
    let layers = per_layer();
    assert_eq!(names(&e2e), END_TO_END);
    assert_eq!(names(&layers), PER_LAYER);
    let mut all: Vec<&str> = names(&e2e);
    all.extend(names(&layers));
    for n in &all {
        assert!(valid_name(n), "invalid metric name {n:?}");
    }
    let mut unique = all.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "metric names repeat");
    for d in e2e.iter().chain(&layers) {
        assert!(
            matches!(d.better.as_str(), "lower" | "higher"),
            "{}: better = {:?}",
            d.name,
            d.better
        );
        assert!(
            !d.unit.is_empty() && d.unit.len() <= 16,
            "{}: unit {:?}",
            d.name,
            d.unit
        );
    }

    let bench = benchmark_json();
    assert_eq!(declared(&bench, "end_to_end"), e2e);
    assert_eq!(declared(&bench, "per_layer"), layers);
    let Some(Json::Arr(workloads)) = bench.get("workloads") else {
        panic!("BENCHMARK.json lacks workloads");
    };
    let declared_workloads: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    assert_eq!(declared_workloads, Workload::ALL.map(Workload::name));
}

#[test]
fn layer_times_add_up_to_the_cell_time() {
    let items = grid_items(Some(&SUBSET)).unwrap();
    let l = traced_pass(&items, 1, &ProbeRequests::EachCell, &scratch("attributed")).unwrap();
    assert_eq!(l.cells, 30);
    assert_eq!(l.failed, 0);
    assert_eq!(
        l.replay_mismatches, 0,
        "the step-by-step replay must reproduce Session::compile"
    );
    let frac = median(&l.attributed);
    assert!((0.95..=1.05).contains(&frac), "attributed_frac {frac}");
}

/// Every count the traced pass makes that cannot depend on timing.
fn counts(l: &Layers) -> Vec<u64> {
    vec![
        l.sim_cycles,
        l.bs_speedup.to_bits(),
        l.exact_nodes,
        l.exact_regions,
        l.exact_proven,
        l.spills,
        l.static_insts,
        l.interlock_ts[0],
        l.interlock_ts[1],
        l.interlock_bs[0],
        l.interlock_bs[1],
        l.l1d[0],
        l.l1d[1],
        l.prefetch[0],
        l.prefetch[1],
        l.cells,
        l.failed,
        l.reference.calls,
        l.check.calls,
        l.profile.calls,
        l.exact.calls,
    ]
}

fn untraced(items: &[WorkItem], jobs: usize, name: &str) -> PassOutcome {
    let engine = Engine::with_standard_kernels(engine_config(jobs, &scratch(name)));
    run_pass(&engine, items)
}

#[test]
fn counts_do_not_depend_on_tracing_or_workers() {
    let mut items = grid_items(Some(&SUBSET)).unwrap();
    items.extend(zoo_items(Some(&SUBSET)).unwrap());

    let one = traced_pass(&items, 1, &ProbeRequests::EachCell, &scratch("counts-1")).unwrap();
    let two = traced_pass(&items, 2, &ProbeRequests::EachCell, &scratch("counts-2")).unwrap();
    assert_eq!(one.failed, 0);
    assert_eq!(counts(&one), counts(&two));

    let u1 = untraced(&items, 1, "untraced-1");
    let u2 = untraced(&items, 2, "untraced-2");
    for u in [&u1, &u2] {
        assert_eq!(u.failed, 0);
        assert_eq!(u.sim_cycles, one.sim_cycles);
        assert_eq!(u.bs_speedup.to_bits(), one.bs_speedup.to_bits());
        assert_eq!(u.exact_nodes, one.exact_nodes);
        assert_eq!(u.exact_regions, one.exact_regions);
        assert_eq!(u.exact_proven, one.exact_proven);
    }
    // Passes line up per cell label whatever the worker count.
    assert!(u1.label_ms.keys().eq(u2.label_ms.keys()));
    assert_eq!(
        u1.label_ms.len(),
        items.iter().map(|i| i.cell.to_string()).collect::<std::collections::BTreeSet<_>>().len()
    );
}
