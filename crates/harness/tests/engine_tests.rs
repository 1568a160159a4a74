//! Integration tests for the experiment engine: determinism across
//! worker counts, disk-cache round trips, cache accounting, and one
//! compile per compile key with per-cell error attribution.

use bsched_harness::{Engine, EngineConfig, ExperimentCell, HarnessError};
use bsched_ir::{BlockId, Program, Terminator};
use bsched_pipeline::{standard_grid, CompileOptions, Experiment, MachineSpec, SchedulerKind};
use bsched_sim::SimConfig;
use bsched_util::Prng;
use bsched_workloads::lang::ast::{Expr, Index};
use bsched_workloads::lang::{ArrayInit, Kernel};
use std::path::PathBuf;

/// A small kernel so the whole grid runs in well under a second.
fn tiny_kernel(name: &str, n: i64, seed: u64) -> (String, Program) {
    let mut k = Kernel::new(name);
    let a = k.array("a", (n + 8) as u64, ArrayInit::Random(seed));
    let out = k.array("out", (n + 8) as u64, ArrayInit::Zero);
    let i = k.int_var("i");
    let body = vec![k.store(
        out,
        Index::of(i),
        Expr::load(a, Index::of(i)) * Expr::Float(1.5) + Expr::load(a, Index::of_plus(i, 1)),
    )];
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(n), body));
    (name.to_string(), k.lower())
}

fn kernels() -> Vec<(String, Program)> {
    vec![tiny_kernel("alpha", 48, 3), tiny_kernel("beta", 64, 11)]
}

fn cells() -> Vec<ExperimentCell> {
    let mut cells = Vec::new();
    for kernel in ["alpha", "beta"] {
        for opts in [
            CompileOptions::new(SchedulerKind::Balanced),
            CompileOptions::new(SchedulerKind::Traditional),
            CompileOptions::new(SchedulerKind::Balanced).with_unroll(4),
            // Same display label as plain balanced — only the canonical
            // key separates them.
            CompileOptions::new(SchedulerKind::Balanced).with_weight_cap(10),
        ] {
            cells.push(ExperimentCell::new(kernel, opts));
        }
    }
    cells
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsched-engine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Debug output covers every metric field, so equal strings mean equal
/// metrics.
fn fingerprint(engine: &Engine, cells: &[ExperimentCell]) -> Vec<String> {
    cells
        .iter()
        .map(|c| {
            let r = engine.result(c).expect("cell was run");
            assert!(r.checksum_ok);
            format!("{c}: {:?}", r.metrics)
        })
        .collect()
}

#[test]
fn results_are_identical_across_worker_counts() {
    let cells = cells();
    let mut baseline = None;
    for jobs in [1usize, 4] {
        let cfg = EngineConfig::default()
            .with_jobs(jobs)
            .with_disk_cache(false);
        let engine = Engine::new(kernels(), cfg);
        engine.run(&cells).expect("grid runs");
        let fp = fingerprint(&engine, &cells);
        let report = engine.report();
        assert_eq!(report.executed, cells.len() as u64, "{jobs} workers");
        assert_eq!(report.hits(), 0, "{jobs} workers");
        match &baseline {
            None => baseline = Some(fp),
            Some(b) => assert_eq!(b, &fp, "worker count changed the results"),
        }
    }
}

#[test]
fn each_kernel_is_interpreted_once_per_engine() {
    let cells: Vec<ExperimentCell> = standard_grid()
        .iter()
        .map(|c| ExperimentCell::new("alpha", c.options()))
        .collect();
    for jobs in [1usize, 2] {
        let cfg = EngineConfig::default()
            .with_jobs(jobs)
            .with_disk_cache(false);
        let engine = Engine::new(kernels(), cfg);
        assert_eq!(engine.report().reference_runs, 0, "nothing runs up front");
        engine.run(&cells).expect("grid runs");
        let report = engine.report();
        assert_eq!(report.executed, 15, "{jobs} workers");
        assert_eq!(report.reference_runs, 1, "{jobs} workers");
        assert!(report.render().contains(", 1 reference runs\n"), "{jobs} workers");
    }
}

#[test]
fn disk_cache_round_trips_and_counts_hits() {
    let dir = tmp_dir("roundtrip");
    let cells = cells();
    let cfg = || {
        EngineConfig::default()
            .with_jobs(2)
            .with_cache_dir(dir.clone())
    };

    // Cold run: everything executes, results land on disk.
    let cold = Engine::new(kernels(), cfg());
    cold.run(&cells).expect("cold run");
    let want = fingerprint(&cold, &cells);
    assert_eq!(cold.report().executed, cells.len() as u64);
    drop(cold);

    // Fresh engine, same directory: pure disk hits, nothing executes.
    let warm = Engine::new(kernels(), cfg());
    warm.run(&cells).expect("warm run");
    assert_eq!(warm.report().disk_hits, cells.len() as u64);
    assert_eq!(warm.report().executed, 0);
    assert_eq!(fingerprint(&warm, &cells), want);

    // Same engine again: now the memory layer answers.
    warm.run(&cells).expect("memory run");
    assert_eq!(warm.report().memory_hits, cells.len() as u64);

    // Dropping memory forces the disk layer again, with equal results.
    warm.clear_memory();
    warm.run(&cells).expect("post-clear run");
    assert_eq!(warm.report().disk_hits, 2 * cells.len() as u64);
    assert_eq!(warm.report().executed, 0);
    assert_eq!(fingerprint(&warm, &cells), want);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicates_within_a_batch_are_deduplicated() {
    let cfg = EngineConfig::default()
        .with_jobs(2)
        .with_disk_cache(false);
    let engine = Engine::new(kernels(), cfg);
    let one = ExperimentCell::new("alpha", CompileOptions::new(SchedulerKind::Balanced));
    let batch = vec![one.clone(), one.clone(), one.clone()];
    engine.run(&batch).expect("runs");
    let report = engine.report();
    assert_eq!(report.requested, 3);
    assert_eq!(report.deduplicated, 2);
    assert_eq!(report.executed, 1);
}

#[test]
fn same_label_different_options_are_distinct_cells() {
    let cfg = EngineConfig::default()
        .with_jobs(1)
        .with_disk_cache(false);
    let engine = Engine::new(kernels(), cfg);
    let plain = ExperimentCell::new("alpha", CompileOptions::new(SchedulerKind::Balanced));
    let capped = ExperimentCell::new(
        "alpha",
        CompileOptions::new(SchedulerKind::Balanced).with_weight_cap(4),
    );
    assert_eq!(plain.to_string(), capped.to_string(), "labels alias");
    engine.run(&[plain.clone(), capped.clone()]).expect("runs");
    assert_eq!(engine.report().executed, 2, "cells must not collapse");
}

#[test]
fn corrupt_cache_documents_recompute_without_panicking() {
    use bsched_harness::disk::DiskCache;
    let dir = tmp_dir("corruption");
    let cells = cells();
    let cfg = || {
        EngineConfig::default()
            .with_jobs(2)
            .with_cache_dir(dir.clone())
    };

    let cold = Engine::new(kernels(), cfg());
    cold.run(&cells).expect("cold run");
    let want = fingerprint(&cold, &cells);
    drop(cold);

    // Damage three documents three different ways: truncation (torn
    // write), garbage bytes, and a wrong schema stamp.
    let disk = DiskCache::new(&dir, true);
    let paths: Vec<PathBuf> = cells.iter().take(3).map(|c| disk.path_for(c)).collect();
    let full = std::fs::read_to_string(&paths[0]).unwrap();
    std::fs::write(&paths[0], &full[..full.len() / 2]).unwrap();
    std::fs::write(&paths[1], b"\x00\xffnot json at all").unwrap();
    std::fs::write(
        &paths[2],
        full.replacen("\"schema\":", "\"schema\":9999, \"x\":", 1),
    )
    .unwrap();

    // A fresh engine treats all three as misses — recomputed, counted
    // as executions, results unchanged.
    let warm = Engine::new(kernels(), cfg());
    warm.run(&cells).expect("corruption must not fail the run");
    let report = warm.report();
    assert_eq!(report.executed, 3, "each damaged document recomputes");
    assert_eq!(report.disk_hits, cells.len() as u64 - 3);
    assert_eq!(fingerprint(&warm, &cells), want);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verifying_run_proves_every_cell_and_reports_it() {
    let cells = cells();
    let cfg = EngineConfig::default()
        .with_jobs(2)
        .with_disk_cache(false)
        .with_verify(true);
    let engine = Engine::new(kernels(), cfg);
    engine.run(&cells).expect("grid verifies");
    let report = engine.report();
    assert_eq!(report.executed, cells.len() as u64);
    assert_eq!(report.verified, cells.len() as u64);
    assert_eq!(report.violations, 0);
    for c in &cells {
        assert!(engine.result(c).unwrap().verified, "{c} not verified");
    }
    assert!(report.render().contains("cells verified"));
}

#[test]
fn verifying_run_recomputes_unverified_cache_entries() {
    let dir = tmp_dir("verify-upgrade");
    let cells = cells();
    let cfg = |verify: bool| {
        EngineConfig::default()
            .with_jobs(2)
            .with_cache_dir(dir.clone())
            .with_verify(verify)
    };

    // Plain run: results cached with verified == false.
    let plain = Engine::new(kernels(), cfg(false));
    plain.run(&cells).expect("plain run");
    let want = fingerprint(&plain, &cells);
    drop(plain);

    // A verifying engine must not trust them: every cell re-executes
    // (now under the conformance suite) and the upgraded entries land
    // back on disk.
    let checking = Engine::new(kernels(), cfg(true));
    checking.run(&cells).expect("verifying run");
    assert_eq!(checking.report().disk_hits, 0, "unverified entries are misses");
    assert_eq!(checking.report().executed, cells.len() as u64);
    assert_eq!(fingerprint(&checking, &cells), want);
    drop(checking);

    // Once verified, both verifying and plain engines take the hits.
    for verify in [true, false] {
        let warm = Engine::new(kernels(), cfg(verify));
        warm.run(&cells).expect("warm run");
        assert_eq!(warm.report().disk_hits, cells.len() as u64, "verify={verify}");
        assert_eq!(warm.report().executed, 0, "verify={verify}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_iterations_reach_the_report() {
    let engine = Engine::new(kernels(), EngineConfig::default().with_disk_cache(false));
    engine.record_fuzz(1234);
    let report = engine.report();
    assert_eq!(report.fuzz_iterations, 1234);
    assert!(report.render().contains("1234 fuzz iterations"));
}

#[test]
fn unknown_kernels_are_rejected() {
    let cfg = EngineConfig::default().with_disk_cache(false);
    let engine = Engine::new(kernels(), cfg);
    let cell = ExperimentCell::new("nonesuch", CompileOptions::new(SchedulerKind::Balanced));
    match engine.run(std::slice::from_ref(&cell)) {
        Err(HarnessError::UnknownKernel(k)) => assert_eq!(k, "nonesuch"),
        other => panic!("expected UnknownKernel, got {other:?}"),
    }
}

/// The machine-zoo shape on one kernel: three arms at LU4, each on
/// every registry machine, requested machine-major as the `machines`
/// binary does.
fn zoo_cells(kernel: &str) -> Vec<ExperimentCell> {
    let mut cells = Vec::new();
    for info in MachineSpec::registry() {
        let machine = MachineSpec::named(info.name).unwrap();
        for arm in [
            SchedulerKind::Traditional,
            SchedulerKind::Balanced,
            SchedulerKind::Exact,
        ] {
            let opts = CompileOptions::new(arm)
                .with_unroll(4)
                .with_sim(machine.config());
            cells.push(ExperimentCell::new(kernel, opts));
        }
    }
    cells
}

#[test]
fn each_compile_key_compiles_once_and_every_machine_matches_a_standalone_run() {
    let cells = zoo_cells("alpha");
    let (_, program) = tiny_kernel("alpha", 48, 3);
    let standalone: Vec<_> = cells
        .iter()
        .map(|c| {
            Experiment::builder()
                .program("alpha", program.clone())
                .compile_options(*c.options())
                .build()
                .unwrap()
                .run()
                .unwrap()
                .metrics
        })
        .collect();
    for jobs in [1usize, 2] {
        let cfg = EngineConfig::default()
            .with_jobs(jobs)
            .with_disk_cache(false);
        let engine = Engine::new(kernels(), cfg);
        engine.run(&cells).expect("zoo runs");
        let report = engine.report();
        assert_eq!(report.executed, 18, "{jobs} workers");
        assert_eq!(report.fronts, 1, "{jobs} workers");
        assert_eq!(report.compiles, 3, "{jobs} workers");
        assert!(report.simulations <= 18, "{jobs} workers");
        let counts = format!(
            ", 1 fronts, 3 compiles, {} simulations, 1 reference runs\n",
            report.simulations
        );
        assert!(report.render().contains(&counts), "{jobs} workers");
        for (cell, want) in cells.iter().zip(&standalone) {
            let got = engine.result(cell).expect("cell was run");
            assert_eq!(
                &got.metrics,
                want,
                "{jobs} workers: {}",
                cell.canonical_key()
            );
        }
    }
}

#[test]
fn a_failing_machine_is_reported_as_itself_not_as_a_sibling() {
    let opts = CompileOptions::new(SchedulerKind::Balanced);
    let starved = SimConfig {
        fuel: 50,
        ..SimConfig::default()
    };
    let first = ExperimentCell::new("alpha", opts);
    let other = ExperimentCell::new("beta", opts);
    let failing = ExperimentCell::new("alpha", opts.with_sim(starved));
    assert_eq!(first.compile_key(), failing.compile_key());
    for jobs in [1usize, 2] {
        let cfg = EngineConfig::default()
            .with_jobs(jobs)
            .with_disk_cache(false);
        let engine = Engine::new(kernels(), cfg);
        let batch = [first.clone(), other.clone(), failing.clone()];
        match engine.run(&batch) {
            Err(HarnessError::Cell { cell, msg }) => {
                assert_eq!(cell, "alpha/BS");
                assert!(msg.contains("instruction budget of 50 exhausted"), "{msg}");
            }
            other => panic!("expected the starved cell to fail, got {other:?}"),
        }
        // The sibling that shares the failing cell's compile succeeded
        // and was stored; only the starved machine has no result.
        assert!(engine.result(&first).is_some(), "{jobs} workers");
        assert!(engine.result(&other).is_some(), "{jobs} workers");
        assert!(engine.result(&failing).is_none(), "{jobs} workers");
        assert_eq!(engine.report().compiles, 2, "{jobs} workers");
    }
}

#[test]
fn a_failed_compile_is_reported_at_its_groups_first_cell() {
    // A kernel the IR verifier rejects: its reference, and so every
    // compile of it, fails.
    let (_, mut broken) = tiny_kernel("broken", 16, 5);
    let entry = broken.main().entry();
    broken.main_mut().block_mut(entry).term = Terminator::Jmp(BlockId::new(999));
    let mut kernels = kernels();
    kernels.push(("broken".to_string(), broken));
    let wide = MachineSpec::named("wide4").unwrap().config();
    let bs = CompileOptions::new(SchedulerKind::Balanced);
    let ts = CompileOptions::new(SchedulerKind::Traditional);
    // Two failing groups; the one requested first must be reported,
    // whichever worker finishes first.
    let batch = [
        ExperimentCell::new("alpha", bs),
        ExperimentCell::new("broken", bs.with_sim(wide)),
        ExperimentCell::new("broken", ts),
        ExperimentCell::new("broken", bs),
    ];
    for jobs in [1usize, 2] {
        let cfg = EngineConfig::default()
            .with_jobs(jobs)
            .with_disk_cache(false);
        let engine = Engine::new(kernels.clone(), cfg);
        match engine.run(&batch) {
            Err(HarnessError::Cell { cell, msg }) => {
                assert_eq!(cell, "broken/BS", "{jobs} workers");
                assert!(msg.contains("out-of-range block"), "{msg}");
            }
            other => panic!("expected the broken kernel to fail, got {other:?}"),
        }
        assert!(engine.result(&batch[0]).is_some(), "{jobs} workers");
        let report = engine.report();
        assert_eq!(report.compiles, 3, "one attempt per compile key");
        // Timings stop at the reported cell, as results do.
        assert_eq!(report.cell_timings.len(), 2, "{jobs} workers");
    }
}

/// Within a kernel, the harness shares front ends and simulations: over
/// the 15 grid configurations on two machines, requested in shuffled
/// order, each distinct front end, compile key and (program, machine)
/// pair is computed exactly once at any worker count, and every cell
/// still equals a standalone `Session::run`.
#[test]
fn fronts_compiles_and_simulations_each_run_once_per_distinct_input() {
    let (_, program) = tiny_kernel("alpha", 48, 3);
    let machines = [MachineSpec::alpha21164(), MachineSpec::named("wide4").unwrap()];
    let mut cells = Vec::new();
    for machine in &machines {
        for cfg in standard_grid() {
            let opts = cfg.options().with_sim(machine.config());
            cells.push(ExperimentCell::new("alpha", opts));
        }
    }
    let mut rng = Prng::new(0x5EED_F00D);
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.index(i + 1));
    }
    let session = |cell: &ExperimentCell| {
        Experiment::builder()
            .program("alpha", program.clone())
            .compile_options(*cell.options())
            .build()
            .unwrap()
    };
    // The counts an exactly-once harness must report, found without it.
    let mut fronts = Vec::new();
    let mut programs: Vec<Program> = Vec::new();
    for cfg in standard_grid() {
        let cell = ExperimentCell::new("alpha", cfg.options());
        if !fronts.contains(&cell.options().front()) {
            fronts.push(cell.options().front());
        }
        let compiled = session(&cell).prepare().unwrap();
        if !programs.contains(compiled.program()) {
            programs.push(compiled.program().clone());
        }
    }
    let simulations = (programs.len() * machines.len()) as u64;
    assert_eq!(fronts.len(), 6);
    assert!(simulations < cells.len() as u64, "some programs repeat");
    let standalone: Vec<_> = cells.iter().map(|c| session(c).run().unwrap()).collect();

    let mut counts = Vec::new();
    for jobs in [1usize, 2] {
        let cfg = EngineConfig::default()
            .with_jobs(jobs)
            .with_disk_cache(false);
        let engine = Engine::new(kernels(), cfg);
        engine.run(&cells).expect("grid runs");
        let report = engine.report();
        assert_eq!(report.executed, 30, "{jobs} workers");
        assert_eq!(report.fronts, fronts.len() as u64, "{jobs} workers");
        assert_eq!(report.compiles, 15, "{jobs} workers");
        assert_eq!(report.simulations, simulations, "{jobs} workers");
        counts.push((report.fronts, report.compiles, report.simulations));
        for (cell, want) in cells.iter().zip(&standalone) {
            let got = engine.result(cell).expect("cell was run");
            assert!(got.checksum_ok);
            assert_eq!(got.metrics, want.metrics, "{jobs} workers: {cell}");
        }
    }
    assert_eq!(counts[0], counts[1]);
}
