//! The traced run: every layer's public entry points, called and timed
//! from outside the program.
//!
//! For each cell, in pipeline order: kernel lowering (once per kernel),
//! `verify_program`, the reference `Interp` run, the transformation
//! passes, `EdgeProfile::collect` (TrS cells), the scheduler,
//! `allocate`, the check `Interp` run on the compiled program,
//! `Session::compile`, `Simulator::for_machine(..).run()` on its
//! output, and finally `Session::run` of the same cell. The steps
//! before `Session::compile` re-execute what `compile` does inside, so
//! the table attributes its time without adding spans to the program.
//! Then each cell goes through the cache and wire layers: a disk store
//! and load, the metrics codec, one reply frame, and a warm submit to an
//! in-process `ServeCore` and over a socket to a server around it.

use crate::stats::{median, ms, ratio};
use crate::workload::{bs_speedup, MixEntry, WorkItem};
use bsched_harness::disk::DiskCache;
use bsched_harness::{decode_metrics, encode_metrics, CellResult, Engine, ExperimentCell};
use bsched_ir::{verify_program, Interp, Program};
use bsched_opt::{
    apply_locality, copy_propagate, dead_code_elim, local_cse, merge_straight_chains,
    predicate_function, trace_schedule, unroll_loop, EdgeProfile, LocalityOptions, TraceOptions,
    UnrollLimits,
};
use bsched_pipeline::{Experiment, MachineSpec, SchedulerKind};
use bsched_serve::protocol::Response;
use bsched_serve::{
    serve, Client, Endpoint, ServeConfig, ServeCore, ServerConfig, StatsSnapshot, SubmitReply,
};
use bsched_sim::{SimEngine, SimMetrics, Simulator};
use bsched_util::frame::{read_frame, write_frame, MAX_FRAME_LEN};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls and summed time of one entry point.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timer {
    /// Calls timed.
    pub calls: u64,
    /// Summed wall time.
    pub total: Duration,
}

impl Timer {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.total += t.elapsed();
        self.calls += 1;
        r
    }

    fn merge(&mut self, o: &Timer) {
        self.calls += o.calls;
        self.total += o.total;
    }

    fn ms(&self) -> f64 {
        ms(self.total)
    }
}

/// Everything one traced pass accumulates.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `KernelSpec::program` (lowering), once per kernel.
    pub lower: Timer,
    /// `verify_program`, every call the pipeline makes.
    pub verify: Timer,
    /// `Interp` on the source program.
    pub reference: Timer,
    /// The transformation passes (predication, cleanups, locality,
    /// unrolling, trace scheduling).
    pub transform: Timer,
    /// `EdgeProfile::collect`.
    pub profile: Timer,
    /// `schedule_function_stats`, every cell.
    pub schedule: Timer,
    /// `schedule_function_stats` on Exact-arm cells only.
    pub exact: Timer,
    /// `allocate`.
    pub allocate: Timer,
    /// `Interp` on the compiled program.
    pub check: Timer,
    /// `Session::compile`.
    pub compile: Timer,
    /// `Simulator::for_machine(..).run()`.
    pub sim: Timer,
    /// `Session::run`.
    pub run: Timer,
    /// `DiskCache::store`.
    pub disk_store: Timer,
    /// Per cell, (compile + reference + sim) ÷ `Session::run` time.
    pub attributed: Vec<f64>,
    /// Per-call `DiskCache::load` times (µs).
    pub disk_load_us: Vec<f64>,
    /// Per-call `encode_metrics` + `decode_metrics` times (µs).
    pub codec_us: Vec<f64>,
    /// Per-call `write_frame` + `read_frame` times of one reply (µs).
    pub frame_us: Vec<f64>,
    /// Per-request in-process `ServeCore::submit` + wait times (µs).
    pub core_hit_us: Vec<f64>,
    /// Per-request `Client::submit` times over the socket (µs).
    pub rpc_hit_us: Vec<f64>,
    /// Instructions the reference and check interpretations executed.
    pub interp_insts: u64,
    /// Instructions simulated.
    pub sim_insts: u64,
    /// DAG-analysis cache hits during scheduling.
    pub dag_hits: u64,
    /// DAG-analysis cache lookups during scheduling.
    pub dag_lookups: u64,
    /// Exact-search nodes expanded.
    pub exact_nodes: u64,
    /// Exact-search regions searched.
    pub exact_regions: u64,
    /// Exact-search regions proven optimal.
    pub exact_proven: u64,
    /// Virtual registers spilled.
    pub spills: u64,
    /// Static instructions after compilation.
    pub static_insts: u64,
    /// `[load interlock, cycles]` summed over TS cells.
    pub interlock_ts: [u64; 2],
    /// `[load interlock, cycles]` summed over BS cells.
    pub interlock_bs: [u64; 2],
    /// `[L1D hits, reads]`.
    pub l1d: [u64; 2],
    /// `[useful prefetches, prefetches]`.
    pub prefetch: [u64; 2],
    /// Total simulated cycles of `Session::run`.
    pub sim_cycles: u64,
    /// Geometric-mean TS/BS cycle ratio of `Session::run` over matched
    /// pairs (0 unless every cell passed).
    pub bs_speedup: f64,
    /// Cells traced.
    pub cells: u64,
    /// Cells or requests that failed a check.
    pub failed: u64,
    /// Cells whose step-by-step replay disagreed with `Session::compile`
    /// (static size, allocation or exact-search counts).
    pub replay_mismatches: u64,
    /// Server counters after the serving probe.
    pub serve_stats: Option<StatsSnapshot>,
    /// Engine pool utilization and steals of the serving probe.
    pub probe_pool: (f64, u64),
    /// Wall time of the whole traced pass.
    pub wall: Duration,
}

impl Layers {
    fn merge(&mut self, o: &Layers) {
        for (a, b) in [
            (&mut self.lower, &o.lower),
            (&mut self.verify, &o.verify),
            (&mut self.reference, &o.reference),
            (&mut self.transform, &o.transform),
            (&mut self.profile, &o.profile),
            (&mut self.schedule, &o.schedule),
            (&mut self.exact, &o.exact),
            (&mut self.allocate, &o.allocate),
            (&mut self.check, &o.check),
            (&mut self.compile, &o.compile),
            (&mut self.sim, &o.sim),
            (&mut self.run, &o.run),
            (&mut self.disk_store, &o.disk_store),
        ] {
            a.merge(b);
        }
        for (a, b) in [
            (&mut self.attributed, &o.attributed),
            (&mut self.disk_load_us, &o.disk_load_us),
            (&mut self.codec_us, &o.codec_us),
            (&mut self.frame_us, &o.frame_us),
        ] {
            a.extend_from_slice(b);
        }
        self.interp_insts += o.interp_insts;
        self.sim_insts += o.sim_insts;
        self.dag_hits += o.dag_hits;
        self.dag_lookups += o.dag_lookups;
        self.exact_nodes += o.exact_nodes;
        self.exact_regions += o.exact_regions;
        self.exact_proven += o.exact_proven;
        self.spills += o.spills;
        self.static_insts += o.static_insts;
        for (a, b) in [
            (&mut self.interlock_ts, &o.interlock_ts),
            (&mut self.interlock_bs, &o.interlock_bs),
            (&mut self.l1d, &o.l1d),
            (&mut self.prefetch, &o.prefetch),
        ] {
            a[0] += b[0];
            a[1] += b[1];
        }
        self.sim_cycles += o.sim_cycles;
        self.cells += o.cells;
        self.failed += o.failed;
        self.replay_mismatches += o.replay_mismatches;
    }
}

/// One cell's trip through the pipeline entry points. Returns the
/// `Session::run` metrics when every check passed.
fn trace_cell(
    source: &Program,
    item: &WorkItem,
    disk: &DiskCache,
    acc: &mut Layers,
) -> Option<SimMetrics> {
    let cell = &item.cell;
    let opts = *cell.options();
    acc.cells += 1;
    acc.verify.time(|| verify_program(source)).ok()?;
    let t = Instant::now();
    let reference = Interp::new(source).run().ok()?;
    let reference_took = t.elapsed();
    acc.reference.total += reference_took;
    acc.reference.calls += 1;
    acc.interp_insts += reference.inst_count;

    // The pipeline of `Session::compile`, one public entry point at a time.
    let mut p = source.clone();
    let mut consumed: HashSet<usize> = HashSet::new();
    acc.transform.time(|| {
        if opts.predicate {
            predicate_function(p.main_mut());
        }
        local_cse(p.main_mut());
        copy_propagate(p.main_mut());
        dead_code_elim(p.main_mut());
        if opts.locality {
            let lopts = LocalityOptions {
                factor: opts.unroll,
                max_body_insts: 128,
            };
            consumed.extend(apply_locality(p.main_mut(), &lopts).loops_processed);
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
        }
        local_cse(p.main_mut());
        copy_propagate(p.main_mut());
        dead_code_elim(p.main_mut());
        merge_straight_chains(p.main_mut());
    });
    acc.verify.time(|| verify_program(&p)).ok()?;
    if opts.trace {
        let profile = acc.profile.time(|| EdgeProfile::collect(&p)).ok()?;
        let topts = TraceOptions {
            weights: opts.weight_config(),
            speculation: true,
        };
        acc.transform.time(|| {
            trace_schedule(p.main_mut(), &profile, &topts);
            dead_code_elim(p.main_mut());
        });
        acc.verify.time(|| verify_program(&p)).ok()?;
    }
    let (h0, m0, _) = bsched_ir::analysis::cache_stats();
    let t = Instant::now();
    let exact =
        bsched_core::schedule_function_stats(p.main_mut(), &opts.weight_config(), opts.tie_break);
    let took = t.elapsed();
    let (h1, m1, _) = bsched_ir::analysis::cache_stats();
    acc.schedule.total += took;
    acc.schedule.calls += 1;
    if opts.scheduler == SchedulerKind::Exact {
        acc.exact.total += took;
        acc.exact.calls += 1;
    }
    acc.dag_hits += h1 - h0;
    acc.dag_lookups += (h1 + m1) - (h0 + m0);
    acc.exact_nodes += exact.nodes;
    acc.exact_regions += exact.regions;
    acc.exact_proven += exact.proven;
    let alloc = acc.allocate.time(|| bsched_regalloc::allocate(&mut p));
    acc.spills += alloc.spilled;
    acc.verify.time(|| verify_program(&p)).ok()?;
    let check = acc.check.time(|| Interp::new(&p).run()).ok()?;
    acc.interp_insts += check.inst_count;
    let static_insts = p.main().inst_count();
    acc.static_insts += static_insts as u64;

    let session = Experiment::builder()
        .program(cell.kernel(), source.clone())
        .compile_options(opts)
        .engine(SimEngine::BlockCompiled)
        .build()
        .ok()?;
    let t = Instant::now();
    let compiled = session.compile().ok()?;
    let compile_took = t.elapsed();
    acc.compile.total += compile_took;
    acc.compile.calls += 1;
    if compiled.stats.static_insts != static_insts
        || compiled.stats.alloc != alloc
        || compiled.stats.exact != exact
    {
        acc.replay_mismatches += 1;
    }
    let machine = MachineSpec::custom(opts.sim);
    let t = Instant::now();
    let sim = Simulator::for_machine(&compiled.program, &machine)
        .with_engine(SimEngine::BlockCompiled)
        .run()
        .ok()?;
    let sim_took = t.elapsed();
    acc.sim.total += sim_took;
    acc.sim.calls += 1;
    let m = &sim.metrics;
    acc.sim_insts += m.insts.total();
    let interlock = match opts.scheduler {
        SchedulerKind::Traditional => Some(&mut acc.interlock_ts),
        SchedulerKind::Balanced => Some(&mut acc.interlock_bs),
        _ => None,
    };
    if let Some(a) = interlock {
        a[0] += m.load_interlock;
        a[1] += m.cycles;
    }
    acc.l1d[0] += m.mem.l1d_hits;
    acc.l1d[1] += m.mem.total_reads();
    acc.prefetch[0] += m.mem.prefetch_useful;
    acc.prefetch[1] += m.mem.prefetches;

    let t = Instant::now();
    let run = session.run().ok()?;
    let run_took = t.elapsed();
    acc.run.total += run_took;
    acc.run.calls += 1;
    acc.attributed.push(ratio(
        (compile_took + reference_took + sim_took).as_secs_f64(),
        run_took.as_secs_f64(),
    ));
    acc.sim_cycles += run.metrics.cycles;
    let agrees = check.checksum == reference.checksum
        && sim.checksum == reference.checksum
        && run.checksum_ok
        && run.metrics == sim.metrics
        && item.matches(&run.metrics);

    // Cache and wire layers.
    let result = CellResult {
        metrics: run.metrics.clone(),
        checksum_ok: true,
        verified: false,
    };
    acc.disk_store.time(|| disk.store(cell, &result));
    let t = Instant::now();
    let loaded = disk.load(cell);
    acc.disk_load_us.push(t.elapsed().as_secs_f64() * 1e6);
    let t = Instant::now();
    let decoded = decode_metrics(&encode_metrics(&run.metrics));
    acc.codec_us.push(t.elapsed().as_secs_f64() * 1e6);
    let reply = Response::CellResult {
        id: 1,
        index: 0,
        cell: cell.to_string(),
        key: cell.canonical_key().to_string(),
        result: result.clone(),
    }
    .to_json();
    let mut buf = Vec::new();
    let t = Instant::now();
    let framed = write_frame(&mut buf, &reply).is_ok()
        && read_frame(&mut buf.as_slice(), MAX_FRAME_LEN)
            .ok()
            .flatten()
            .as_ref()
            == Some(&reply);
    acc.frame_us.push(t.elapsed().as_secs_f64() * 1e6);

    let wire_ok = framed
        && loaded.is_some_and(|l| l.metrics == run.metrics)
        && decoded.as_ref() == Some(&run.metrics);
    (agrees && wire_ok).then_some(run.metrics)
}

/// The requests the serving probe sends: for a grid or sweep, each
/// cell alone; for a mix, its request stream.
#[derive(Clone, Debug)]
pub enum ProbeRequests<'a> {
    /// One single-cell request per cell.
    EachCell,
    /// Mix requests, in order.
    Mix(Vec<&'a MixEntry>),
}

/// Runs the traced pass over `items` on `jobs` threads (the benchmark
/// uses one; the tests also use two to show the counts do not depend on
/// it), then the serving probe on one thread. `scratch` receives the
/// probe's disk cache and socket.
///
/// # Errors
///
/// The scratch directory cannot be created, or the probe server fails.
pub fn traced_pass(
    items: &[WorkItem],
    jobs: usize,
    probe: &ProbeRequests<'_>,
    scratch: &Path,
) -> Result<Layers, String> {
    let t0 = Instant::now();
    let mut acc = Layers::default();
    let wanted: HashSet<&str> = items.iter().map(|i| i.cell.kernel()).collect();
    let mut programs: HashMap<String, Program> = HashMap::new();
    for spec in bsched_workloads::all_kernels() {
        if wanted.contains(spec.name) {
            let p = acc.lower.time(|| spec.program());
            programs.insert(spec.name.to_string(), p);
        }
    }
    std::fs::create_dir_all(scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let disk = DiskCache::new(&scratch.join("cache"), true);
    let jobs = jobs.max(1);
    let results: Vec<(Layers, Vec<(usize, SimMetrics)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let (programs, disk) = (&programs, &disk);
                scope.spawn(move || {
                    let mut mine = Layers::default();
                    let mut done = Vec::new();
                    for (i, item) in items.iter().enumerate().skip(w).step_by(jobs) {
                        match trace_cell(&programs[item.cell.kernel()], item, disk, &mut mine) {
                            Some(m) => done.push((i, m)),
                            None => mine.failed += 1,
                        }
                    }
                    (mine, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    let mut metrics: Vec<Option<SimMetrics>> = vec![None; items.len()];
    for (layers, done) in results {
        acc.merge(&layers);
        for (i, m) in done {
            metrics[i] = Some(m);
        }
    }
    let all: Option<Vec<&SimMetrics>> = metrics.iter().map(Option::as_ref).collect();
    if let Some(all) = all {
        acc.bs_speedup = bs_speedup(items, &all).0;
    }
    serving_probe(items, &metrics, probe, scratch, &mut acc)?;
    acc.wall = t0.elapsed();
    Ok(acc)
}

/// Warm submits of `probe` requests to an in-process `ServeCore` and,
/// over a Unix socket, to a server around the same core.
fn serving_probe(
    items: &[WorkItem],
    metrics: &[Option<SimMetrics>],
    probe: &ProbeRequests<'_>,
    scratch: &Path,
    acc: &mut Layers,
) -> Result<(), String> {
    let engine = Engine::with_standard_kernels(
        crate::pass::engine_config(1, &scratch.join("probe-cache")).with_disk_cache(false),
    );
    let mut expected: HashMap<&str, &SimMetrics> = HashMap::new();
    for (item, m) in items.iter().zip(metrics) {
        if let Some(m) = m {
            let r = CellResult {
                metrics: m.clone(),
                checksum_ok: true,
                verified: false,
            };
            engine.store().insert(&item.cell, r);
            expected.insert(item.cell.canonical_key(), m);
        }
    }
    let requests: Vec<(Vec<ExperimentCell>, bool)> = match probe {
        ProbeRequests::EachCell => items
            .iter()
            .zip(metrics)
            .filter(|(_, m)| m.is_some())
            .map(|(i, _)| (vec![i.cell.clone()], false))
            .collect(),
        ProbeRequests::Mix(entries) => entries
            .iter()
            .map(|e| (e.cells.clone(), e.verify))
            .collect(),
    };
    let core = Arc::new(ServeCore::new(engine, ServeConfig::default()));
    let socket = scratch.join("probe.sock");
    let _ = std::fs::remove_file(&socket);
    let endpoint = Endpoint::Unix(socket);
    std::thread::scope(|scope| -> Result<(), String> {
        let dispatcher = {
            let core = Arc::clone(&core);
            scope.spawn(move || core.run_dispatcher())
        };
        let server = {
            let (core, endpoint) = (Arc::clone(&core), endpoint.clone());
            scope.spawn(move || serve(&core, &endpoint, &ServerConfig::default()))
        };
        let started = Instant::now();
        let mut client = loop {
            match Client::connect(&endpoint, Duration::from_secs(120)) {
                Ok(c) => break c,
                Err(e) if started.elapsed() > Duration::from_secs(30) => {
                    core.request_shutdown();
                    core.drain();
                    return Err(format!("probe server never came up: {e}"));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let ok = |cells: &[ExperimentCell], got: &[Option<SimMetrics>]| {
            cells.len() == got.len()
                && cells.iter().zip(got).all(|(c, m)| {
                    m.is_some() && expected.get(c.canonical_key()).copied() == m.as_ref()
                })
        };
        for (cells, verify) in &requests {
            let t = Instant::now();
            let got: Vec<Option<SimMetrics>> = match core.submit(cells, *verify) {
                Ok(outcome) => outcome
                    .jobs
                    .iter()
                    .map(|j| j.wait().0.ok().filter(|r| r.checksum_ok).map(|r| r.metrics))
                    .collect(),
                Err(_) => Vec::new(),
            };
            acc.core_hit_us.push(t.elapsed().as_secs_f64() * 1e6);
            if !ok(cells, &got) {
                acc.failed += 1;
            }
            let t = Instant::now();
            let reply = client.submit(cells, *verify, false);
            acc.rpc_hit_us.push(t.elapsed().as_secs_f64() * 1e6);
            let got: Vec<Option<SimMetrics>> = match reply {
                Ok(SubmitReply::Completed { cells, .. }) => cells
                    .into_iter()
                    .map(|rc| rc.outcome.ok().filter(|r| r.checksum_ok).map(|r| r.metrics))
                    .collect(),
                _ => Vec::new(),
            };
            if !ok(cells, &got) {
                acc.failed += 1;
            }
        }
        acc.serve_stats = client.stats().ok();
        let report = core.engine().report();
        acc.probe_pool = (report.utilization(), report.steals);
        let shut = client.shutdown();
        dispatcher
            .join()
            .map_err(|_| "probe dispatcher panicked".to_string())?;
        let served = server
            .join()
            .map_err(|_| "probe server panicked".to_string())?;
        shut.map_err(|e| format!("probe shutdown failed: {e}"))?;
        served.map_err(|e| format!("probe server failed: {e}"))
    })
}

/// Where the pass's time went: one row per entry point, with calls,
/// total and self time, and the share of `Session::run` time.
#[must_use]
pub fn table(workload: &str, l: &Layers) -> String {
    let cell_ms = l.run.ms();
    let compile_self = l.compile.ms() - l.reference.ms() - l.check.ms();
    let run_self = l.run.ms() - l.compile.ms() - l.reference.ms() - l.sim.ms();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "── layer table: {workload} ({} cells, traced pass {:.2} s)",
        l.cells,
        l.wall.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "{:<22} {:>7} {:>10} {:>10} {:>7}",
        "entry point", "calls", "total_ms", "self_ms", "share"
    );
    let mut row = |name: &str, t: &Timer, self_ms: f64| {
        let _ = writeln!(
            out,
            "{name:<22} {:>7} {:>10.1} {:>10.1} {:>6.1}%",
            t.calls,
            t.ms(),
            self_ms,
            100.0 * ratio(t.ms(), cell_ms)
        );
    };
    row("workloads.lower", &l.lower, l.lower.ms());
    row("ir.verify", &l.verify, l.verify.ms());
    row("ir.reference", &l.reference, l.reference.ms());
    row("opt.transform", &l.transform, l.transform.ms());
    row("opt.profile", &l.profile, l.profile.ms());
    row("core.schedule", &l.schedule, l.schedule.ms());
    row("  core.exact", &l.exact, l.exact.ms());
    row("regalloc.allocate", &l.allocate, l.allocate.ms());
    row("ir.check", &l.check, l.check.ms());
    row("pipeline.compile", &l.compile, compile_self);
    row("sim.run", &l.sim, l.sim.ms());
    row("Session::run", &l.run, run_self);
    row("harness.disk_store", &l.disk_store, l.disk_store.ms());
    let _ = writeln!(
        out,
        "Session::run = compile ({:.1}) + reference ({:.1}) + sim ({:.1}) + self ({run_self:.1}) ms; \
         compile holds a reference and a check interpretation, so the source is interpreted twice per cell",
        l.compile.ms(),
        l.reference.ms(),
        l.sim.ms()
    );
    let _ = writeln!(
        out,
        "per call (median µs): disk load {:.1}, codec {:.1}, frame {:.1}, core hit {:.1}, rpc hit {:.1}",
        median(&l.disk_load_us),
        median(&l.codec_us),
        median(&l.frame_us),
        median(&l.core_hit_us),
        median(&l.rpc_hit_us)
    );
    out
}
