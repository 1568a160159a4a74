//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench run --workload W --seed N --seconds S --trace 0|1 --server-bin PATH
//! perfbench pass --workload grid_cold|zoo_exact --seed N --cache-dir DIR [--setup-only]
//! perfbench layers --workload W --seed N --scratch DIR
//! ```
//!
//! `run` is the benchmark: it starts one fresh `pass` process per timed
//! pass of `grid_cold`/`zoo_exact`, or fresh `bsched-serve` processes for
//! `serve_mix`, and prints a human summary on stderr and the JSON result
//! line last on stdout. `--trace 1` instead runs one untraced pass and
//! one `layers` process (the traced run) and reports the per-layer
//! metrics. Scratch files go under `.perfbench_work/` in the current
//! directory and are removed at the end.

use bsched_util::Json;
use perfbench::layers::{self, Layers, ProbeRequests};
use perfbench::metrics::{self, result_line};
use perfbench::mix::{closed_loop, expect_direct, LoadOutcome, ServeDirs, ServerProc};
use perfbench::pass::{engine_config, run_pass, PassOutcome};
use perfbench::stats::{median, ms, per_item_medians, percentile, ratio, speed_factors};
use perfbench::workload::{
    bs_speedup, grid_items, shuffled, sim_cycles, zoo_items, Mix, WorkItem, Workload,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Start-ups timed after each timed pass, on top of the pass's own, so
/// that the run's set-up samples spread over its whole measuring time.
const SETUP_SAMPLES_PER_PASS: usize = 4;
/// Latency samples a run pools at least (≥10 beyond the 99th percentile).
const MIN_LATENCY_SAMPLES: usize = 1000;
/// Closed-loop connections of `serve_mix`.
const CLIENTS: u64 = 2;
/// Requests per connection in one `serve_mix` pass.
const REQUESTS_PER_CLIENT: usize = 1000;
/// Requests of the traced run's serving replay.
const PROBE_REQUESTS: usize = 500;

struct Args {
    cmd: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    scratch: Option<PathBuf>,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let cmd = raw
        .first()
        .cloned()
        .ok_or("missing command (run, pass or layers)")?;
    let mut a = Args {
        cmd,
        workload: Workload::GridCold,
        seed: 1,
        seconds: 10.0,
        trace: false,
        server_bin: None,
        cache_dir: None,
        scratch: None,
        setup_only: false,
    };
    let mut workload = None;
    let mut i = 1;
    while i < raw.len() {
        let flag = raw[i].as_str();
        if flag == "--setup-only" {
            a.setup_only = true;
            i += 1;
            continue;
        }
        let v = raw
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |what: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: expected {what}, got {v:?}"))
        };
        match flag {
            "--workload" => workload = Some(Workload::parse(v)?),
            "--seed" => a.seed = num("an integer")?,
            "--seconds" => a.seconds = num("whole seconds")?.max(1) as f64,
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
                }
            }
            "--server-bin" => a.server_bin = Some(PathBuf::from(v)),
            "--cache-dir" => a.cache_dir = Some(PathBuf::from(v)),
            "--scratch" => a.scratch = Some(PathBuf::from(v)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
        i += 2;
    }
    a.workload = workload.ok_or("--workload is required")?;
    Ok(a)
}

fn main() {
    let outcome = parse_args().and_then(|a| match a.cmd.as_str() {
        "run" => cmd_run(&a),
        "pass" => cmd_pass(&a),
        "layers" => cmd_layers(&a),
        other => Err(format!("unknown command {other:?} (run, pass or layers)")),
    });
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn items_for(w: Workload, seed: u64) -> Result<Vec<WorkItem>, String> {
    let items = match w {
        Workload::GridCold => grid_items(None)?,
        Workload::ZooExact => zoo_items(None)?,
        Workload::ServeMix => return Err("serve_mix has no cold pass".to_string()),
    };
    Ok(shuffled(items, seed))
}

// ------------------------------------------------------------ children

fn cmd_pass(a: &Args) -> Result<(), String> {
    let items = items_for(a.workload, a.seed)?;
    let cache_dir = a.cache_dir.clone().ok_or("pass needs --cache-dir")?;
    let engine =
        bsched_harness::Engine::with_standard_kernels(engine_config(a.workload.jobs(), &cache_dir));
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    if a.setup_only {
        return Ok(());
    }
    let outcome = run_pass(&engine, &items);
    writeln!(out, "{}", outcome.to_json().to_string_compact()).map_err(|e| e.to_string())
}

fn cmd_layers(a: &Args) -> Result<(), String> {
    let scratch = a.scratch.clone().ok_or("layers needs --scratch")?;
    let l = if a.workload == Workload::ServeMix {
        // The expectations come from a direct engine run in this process,
        // so the pipeline rows of this table see a warm DAG-analysis cache.
        let mix = expected_mix()?;
        let stream = mix.stream(a.seed, 0, PROBE_REQUESTS);
        let requests = ProbeRequests::Mix(stream.iter().map(|&e| &mix.entries[e]).collect());
        layers::traced_pass(&mix.distinct, 1, &requests, &scratch)?
    } else {
        let items = items_for(a.workload, a.seed)?;
        layers::traced_pass(&items, 1, &ProbeRequests::EachCell, &scratch)?
    };
    eprint!("{}", layers::table(a.workload.name(), &l));
    if l.replay_mismatches > 0 {
        eprintln!(
            "perfbench: warning: the step-by-step replay disagreed with Session::compile on {} cells; \
             the per-pass rows no longer describe compile",
            l.replay_mismatches
        );
    }
    let values = layer_values(&l);
    let doc = Json::obj(vec![
        ("wall_s", Json::Num(l.wall.as_secs_f64())),
        ("cells", Json::u64(l.cells + l.core_hit_us.len() as u64)),
        ("failed", Json::u64(l.failed)),
        ("sim_cycles", Json::u64(l.sim_cycles)),
        ("bs_speedup", Json::Num(l.bs_speedup)),
        (
            "metrics",
            Json::Obj(values.into_iter().map(|(k, v)| (k, Json::Num(v))).collect()),
        ),
    ]);
    println!("{}", doc.to_string_compact());
    Ok(())
}

/// The per-layer metrics a traced pass measured by itself.
fn layer_values(l: &Layers) -> BTreeMap<String, f64> {
    let stats = l.serve_stats.clone().unwrap_or_default();
    let interp_s = (l.reference.total + l.check.total).as_secs_f64();
    let values = [
        ("workloads.lower_ms", ms(l.lower.total)),
        ("ir.verify_ms", ms(l.verify.total)),
        ("ir.reference_ms", ms(l.reference.total)),
        ("ir.check_ms", ms(l.check.total)),
        (
            "ir.interp_minst_per_s",
            ratio(l.interp_insts as f64, interp_s) / 1e6,
        ),
        ("opt.profile_ms", ms(l.profile.total)),
        ("core.schedule_ms", ms(l.schedule.total)),
        (
            "core.dag_cache_hit_frac",
            ratio(l.dag_hits as f64, l.dag_lookups as f64),
        ),
        ("core.dag_cache_hits", l.dag_hits as f64),
        ("core.exact_ms", ms(l.exact.total)),
        ("core.exact_nodes", l.exact_nodes as f64),
        (
            "core.exact_proven_frac",
            ratio(l.exact_proven as f64, l.exact_regions as f64),
        ),
        ("regalloc.allocate_ms", ms(l.allocate.total)),
        ("regalloc.spills", l.spills as f64),
        ("pipeline.compile_ms", ms(l.compile.total)),
        (
            "pipeline.compile_self_ms",
            ms(l.compile.total) - ms(l.reference.total) - ms(l.check.total),
        ),
        ("pipeline.static_insts", l.static_insts as f64),
        ("sim.run_ms", ms(l.sim.total)),
        (
            "sim.minst_per_s",
            ratio(l.sim_insts as f64, l.sim.total.as_secs_f64()) / 1e6,
        ),
        (
            "sim.load_interlock_frac.ts",
            ratio(l.interlock_ts[0] as f64, l.interlock_ts[1] as f64),
        ),
        (
            "sim.load_interlock_frac.bs",
            ratio(l.interlock_bs[0] as f64, l.interlock_bs[1] as f64),
        ),
        ("mem.l1d_hit_rate", ratio(l.l1d[0] as f64, l.l1d[1] as f64)),
        (
            "mem.prefetch_useful_frac",
            ratio(l.prefetch[0] as f64, l.prefetch[1] as f64),
        ),
        ("harness.disk_store_ms", ms(l.disk_store.total)),
        ("harness.disk_load_us", median(&l.disk_load_us)),
        ("harness.codec_us", median(&l.codec_us)),
        (
            "harness.hit_frac",
            ratio(
                (stats.memory_hits + stats.disk_hits) as f64,
                stats.requested as f64,
            ),
        ),
        ("harness.pool_util", l.probe_pool.0),
        ("harness.steals", l.probe_pool.1 as f64),
        ("util.frame_us", median(&l.frame_us)),
        ("serve.core_hit_us", median(&l.core_hit_us)),
        ("serve.rpc_hit_us", median(&l.rpc_hit_us)),
        (
            "serve.joined_frac",
            ratio(stats.joined_inflight as f64, stats.submitted_cells as f64),
        ),
        ("serve.rejected_submits", stats.rejected_submits as f64),
        ("serve.failed_cells", stats.failed_cells as f64),
        ("bench.attributed_frac", median(&l.attributed)),
        ("bench.trace_overhead_frac", 0.0),
    ];
    values
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

// ------------------------------------------------------------ orchestrator

/// Scratch space of one run, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(w: Workload) -> Result<WorkDir, String> {
        let dir = Path::new(".perfbench_work").join(format!("{}-{}", w.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// Starts this binary with `args`, times spawn until its `ready` line,
/// and returns that time with the rest of its stdout.
fn spawn_child(args: &[String]) -> Result<(f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start a pass: {e}"))?;
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let first = lines.next().and_then(Result::ok);
    let setup = t0.elapsed().as_secs_f64();
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    let status = child.wait().map_err(|e| e.to_string())?;
    if first.as_deref() != Some("ready") || !status.success() {
        return Err(format!("{} {} failed ({status})", args[0], args[2]));
    }
    Ok((setup, rest.join("\n")))
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn last_json(out: &str) -> Result<Json, String> {
    let line = out.lines().last().ok_or("child printed no result")?;
    Json::parse(line).map_err(|e| format!("bad child result: {e}"))
}

fn cmd_run(a: &Args) -> Result<(), String> {
    let work = WorkDir::new(a.workload)?;
    let ((values, (attempted, failed)), defs) = match (a.workload, a.trace) {
        (Workload::ServeMix, false) => (serve_run(a, &work.0)?, metrics::end_to_end()),
        (Workload::ServeMix, true) => (serve_trace(a, &work.0)?, metrics::per_layer()),
        (_, false) => (cold_run(a, &work.0)?, metrics::end_to_end()),
        (_, true) => (cold_trace(a, &work.0)?, metrics::per_layer()),
    };
    let line = result_line(&defs, &values, attempted, failed)?;
    drop(work);
    println!("{line}");
    Ok(())
}

type Measured = (BTreeMap<String, f64>, (u64, u64));

fn pass_args(a: &Args, cache: &Path, setup_only: bool) -> Vec<String> {
    let mut v = vec![
        "pass".to_string(),
        "--workload".to_string(),
        a.workload.name().to_string(),
        "--seed".to_string(),
        a.seed.to_string(),
        "--cache-dir".to_string(),
        cache.display().to_string(),
    ];
    if setup_only {
        v.push("--setup-only".to_string());
    }
    v
}

fn timed_pass(a: &Args, dir: &Path, n: usize) -> Result<(f64, PassOutcome), String> {
    let pass_dir = dir.join(format!("pass-{n}"));
    let r = spawn_child(&pass_args(a, &pass_dir.join("cache"), false));
    let _ = std::fs::remove_dir_all(&pass_dir);
    let (setup, out) = r?;
    Ok((setup, PassOutcome::from_json(&last_json(&out)?)?))
}

fn cold_run(a: &Args, dir: &Path) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let t0 = Instant::now();
    let mut passes: Vec<PassOutcome> = Vec::new();
    loop {
        let (setup, p) = timed_pass(a, dir, passes.len())?;
        setups.push(setup);
        passes.push(p);
        for n in 0..SETUP_SAMPLES_PER_PASS {
            let cache = dir.join(format!("setup-{n}"));
            setups.push(spawn_child(&pass_args(a, &cache, true))?.0);
            let _ = std::fs::remove_dir_all(&cache);
        }
        let samples: usize = passes.iter().map(|p| p.cell_ms.len()).sum();
        let per_pass = t0.elapsed().as_secs_f64() / passes.len() as f64;
        if samples >= MIN_LATENCY_SAMPLES && t0.elapsed().as_secs_f64() + per_pass > a.seconds {
            break;
        }
    }
    let by_label: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| p.label_ms.values().copied().collect())
        .collect();
    let speed = speed_factors(&by_label);
    let raw_walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let walls: Vec<f64> = passes
        .iter()
        .zip(&speed)
        .map(|(p, f)| p.wall_s * f)
        .collect();
    let rates: Vec<f64> = passes
        .iter()
        .zip(&walls)
        .map(|(p, w)| ratio(p.cells as f64, *w))
        .collect();
    let lat: Vec<f64> = passes
        .iter()
        .zip(&speed)
        .flat_map(|(p, f)| p.cell_ms.iter().map(move |v| v * f))
        .collect();
    let attempted: u64 = passes.iter().map(|p| p.cells).sum();
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();
    let first = &passes[0];
    if passes.iter().any(|p| {
        p.sim_cycles != first.sim_cycles
            || p.bs_speedup != first.bs_speedup
            || !p.label_ms.keys().eq(first.label_ms.keys())
    }) {
        failed = failed.max(1);
    }
    eprintln!(
        "perfbench: {} on {} CPUs — {} passes, setup {:.1} ms, wall {:.3} s at the usual speed \
         (as measured: median {:.3}, min {:.3}, max {:.3}), {} cell samples, \
         {failed}/{attempted} failed (fail_frac {:.4}), dag-cache hits per pass {:?}",
        a.workload.name(),
        cpus(),
        passes.len(),
        median(&setups) * 1e3,
        median(&walls),
        median(&raw_walls),
        raw_walls.iter().copied().fold(f64::INFINITY, f64::min),
        raw_walls.iter().copied().fold(0.0, f64::max),
        lat.len(),
        ratio(failed as f64, attempted as f64),
        passes.iter().map(|p| p.dag_hits).collect::<Vec<_>>(),
    );
    let values = BTreeMap::from([
        ("setup_s".to_string(), median(&setups)),
        ("wall_s".to_string(), median(&walls)),
        ("cells_per_s".to_string(), median(&rates)),
        ("req_per_s".to_string(), median(&rates)),
        ("req_p50_ms".to_string(), percentile(&lat, 50.0)),
        ("req_p99_ms".to_string(), percentile(&lat, 99.0)),
        ("sim_cycles".to_string(), first.sim_cycles as f64),
        ("bs_speedup".to_string(), first.bs_speedup),
        (
            "peak_rss_mb".to_string(),
            median(&passes.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>()),
        ),
    ]);
    Ok((values, (attempted, failed)))
}

fn layers_child(a: &Args, dir: &Path) -> Result<Json, String> {
    let args = vec![
        "layers".to_string(),
        "--workload".to_string(),
        a.workload.name().to_string(),
        "--seed".to_string(),
        a.seed.to_string(),
        "--scratch".to_string(),
        dir.join("layers").display().to_string(),
    ];
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(&args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the traced run: {e}"))?;
    if !out.status.success() {
        return Err(format!("traced run failed ({})", out.status));
    }
    last_json(&String::from_utf8_lossy(&out.stdout))
}

fn layer_metrics(doc: &Json) -> Result<BTreeMap<String, f64>, String> {
    let Some(Json::Obj(m)) = doc.get("metrics") else {
        return Err("traced run printed no metrics".to_string());
    };
    Ok(m.iter()
        .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
        .collect())
}

fn counts(doc: &Json) -> (u64, u64) {
    let int = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
    (int("cells"), int("failed"))
}

fn cold_trace(a: &Args, dir: &Path) -> Result<Measured, String> {
    let (_, untraced) = timed_pass(a, dir, 0)?;
    let doc = layers_child(a, dir)?;
    let mut values = layer_metrics(&doc)?;
    let traced_wall = doc.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0);
    values.insert(
        "bench.trace_overhead_frac".to_string(),
        ratio(traced_wall, untraced.wall_s) - 1.0,
    );
    values.insert("harness.hit_frac".to_string(), untraced.hit_frac);
    values.insert("harness.pool_util".to_string(), untraced.pool_util);
    values.insert("harness.steals".to_string(), untraced.steals as f64);
    values.insert("core.dag_cache_hits".to_string(), untraced.dag_hits as f64);
    let (cells, mut failed) = counts(&doc);
    failed += untraced.failed;
    let traced_cycles = doc.get("sim_cycles").and_then(Json::as_u64).unwrap_or(0);
    let traced_speedup = doc.get("bs_speedup").and_then(Json::as_f64).unwrap_or(0.0);
    if traced_cycles != untraced.sim_cycles || traced_speedup != untraced.bs_speedup {
        eprintln!(
            "perfbench: traced pass gave {traced_cycles} cycles and speedup {traced_speedup}, untraced {} and {}",
            untraced.sim_cycles, untraced.bs_speedup
        );
        failed = failed.max(1);
    }
    Ok((values, (cells + untraced.cells, failed)))
}

/// The mix with every distinct cell's expectation filled in.
fn expected_mix() -> Result<Mix, String> {
    let mut mix = Mix::serving_default()?;
    expect_direct(&mut mix)?;
    Ok(mix)
}

/// Sum of cycles and TS/BS speedup over the mix's distinct cells as served.
fn served_totals(mix: &Mix, load: &LoadOutcome) -> Option<(u64, f64)> {
    let served: Option<Vec<&bsched_sim::SimMetrics>> = mix
        .distinct
        .iter()
        .map(|d| load.served.get(d.cell.canonical_key()))
        .collect();
    let served = served?;
    Some((sim_cycles(&served), bs_speedup(&mix.distinct, &served).0))
}

fn serve_pass(
    a: &Args,
    bin: &Path,
    dirs: &ServeDirs,
    mix: &Mix,
) -> Result<(f64, LoadOutcome, f64, bsched_serve::StatsSnapshot), String> {
    let (server, setup) = ServerProc::spawn(bin, &dirs.socket, &dirs.cache, &dirs.log)?;
    let load = closed_loop(server.endpoint(), mix, a.seed, CLIENTS, REQUESTS_PER_CLIENT);
    let rss = server.peak_rss_mb();
    let stats = server.stats()?;
    server.shutdown()?;
    Ok((setup, load, rss, stats))
}

fn serve_run(a: &Args, dir: &Path) -> Result<Measured, String> {
    let bin = a.server_bin.clone().ok_or("serve_mix needs --server-bin")?;
    let mix = expected_mix()?;
    let dirs = ServeDirs::under(dir);
    // Untimed warm-up: fills the disk cache, including the mix's verified
    // audits, so every timed pass starts from the same disk state.
    let (first_setup, warm, _, _) = serve_pass(a, &bin, &dirs, &mix)?;
    let mut setups = vec![first_setup];
    let t0 = Instant::now();
    let mut passes: Vec<(LoadOutcome, f64, bsched_serve::StatsSnapshot)> = Vec::new();
    loop {
        let (setup, load, rss, stats) = serve_pass(a, &bin, &dirs, &mix)?;
        setups.push(setup);
        passes.push((load, rss, stats));
        for _ in 0..SETUP_SAMPLES_PER_PASS {
            let (server, setup) = ServerProc::spawn(&bin, &dirs.socket, &dirs.cache, &dirs.log)?;
            setups.push(setup);
            server.shutdown()?;
        }
        let per_pass = t0.elapsed().as_secs_f64() / passes.len() as f64;
        if t0.elapsed().as_secs_f64() + per_pass > a.seconds {
            break;
        }
    }
    let by_request: Vec<Vec<f64>> = passes.iter().map(|p| p.0.latency_ms.clone()).collect();
    let speed = speed_factors(&by_request);
    let raw_walls: Vec<f64> = passes.iter().map(|p| p.0.wall_s).collect();
    let walls: Vec<f64> = passes
        .iter()
        .zip(&speed)
        .map(|(p, f)| p.0.wall_s * f)
        .collect();
    let req_rates: Vec<f64> = passes
        .iter()
        .zip(&walls)
        .map(|(p, w)| ratio(p.0.latency_ms.len() as f64, *w))
        .collect();
    let cell_rates: Vec<f64> = passes
        .iter()
        .zip(&walls)
        .map(|(p, w)| ratio(p.0.cells as f64, *w))
        .collect();
    // Each request's median over the passes: the same seed sends the
    // same requests in every pass, and a request's median is immune to
    // the host's short stalls, which otherwise own the pooled tail.
    let lat = per_item_medians(&by_request, &speed);
    let attempted = warm.requests + passes.iter().map(|p| p.0.requests).sum::<u64>();
    let mut failed = warm.failed + passes.iter().map(|p| p.0.failed).sum::<u64>();
    let totals: Vec<Option<(u64, f64)>> =
        passes.iter().map(|p| served_totals(&mix, &p.0)).collect();
    let (cycles, speedup) = totals[0].unwrap_or((0, 0.0));
    if totals.iter().any(|t| t.is_none() || *t != totals[0]) {
        failed = failed.max(1);
    }
    let rejected: u64 = passes.iter().map(|p| p.2.rejected_submits).sum();
    eprintln!(
        "perfbench: serve_mix on {} CPUs — {} passes of {} requests from {CLIENTS} clients, setup {:.1} ms, \
         wall {:.3} s at the usual speed (as measured: median {:.3}), {} requests' median latencies, \
         {failed}/{attempted} failed (fail_frac {:.4}), {rejected} rejected submits",
        cpus(),
        passes.len(),
        CLIENTS as usize * REQUESTS_PER_CLIENT,
        median(&setups) * 1e3,
        median(&walls),
        median(&raw_walls),
        lat.len(),
        ratio(failed as f64, attempted as f64),
    );
    let values = BTreeMap::from([
        ("setup_s".to_string(), median(&setups)),
        ("wall_s".to_string(), median(&walls)),
        ("cells_per_s".to_string(), median(&cell_rates)),
        ("req_per_s".to_string(), median(&req_rates)),
        ("req_p50_ms".to_string(), percentile(&lat, 50.0)),
        ("req_p99_ms".to_string(), percentile(&lat, 99.0)),
        ("sim_cycles".to_string(), cycles as f64),
        ("bs_speedup".to_string(), speedup),
        (
            "peak_rss_mb".to_string(),
            median(&passes.iter().map(|p| p.1).collect::<Vec<_>>()),
        ),
    ]);
    Ok((values, (attempted, failed)))
}

fn serve_trace(a: &Args, dir: &Path) -> Result<Measured, String> {
    let bin = a.server_bin.clone().ok_or("serve_mix needs --server-bin")?;
    let mix = expected_mix()?;
    let dirs = ServeDirs::under(dir);
    let (_, warm, _, _) = serve_pass(a, &bin, &dirs, &mix)?;
    let (_, load, _, stats) = serve_pass(a, &bin, &dirs, &mix)?;
    let doc = layers_child(a, dir)?;
    let mut values = layer_metrics(&doc)?;
    let traced_wall = doc.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0);
    values.insert(
        "bench.trace_overhead_frac".to_string(),
        ratio(traced_wall, load.wall_s) - 1.0,
    );
    values.insert(
        "harness.hit_frac".to_string(),
        ratio(
            (stats.memory_hits + stats.disk_hits) as f64,
            stats.requested as f64,
        ),
    );
    values.insert(
        "serve.joined_frac".to_string(),
        ratio(stats.joined_inflight as f64, stats.submitted_cells as f64),
    );
    values.insert(
        "serve.rejected_submits".to_string(),
        stats.rejected_submits as f64,
    );
    values.insert("serve.failed_cells".to_string(), stats.failed_cells as f64);
    let (cells, failed) = counts(&doc);
    let failed =
        failed + warm.failed + load.failed + u64::from(served_totals(&mix, &load).is_none());
    Ok((values, (cells + warm.requests + load.requests, failed)))
}
