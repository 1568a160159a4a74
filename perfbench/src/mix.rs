//! `serve_mix`: a `bsched-serve` process and a closed-loop replay of a
//! request mix against it.
//!
//! Each client connection sends its next request only after the reply
//! to the previous one is complete, as `bsched-client grid` does. A
//! request fails when the socket errors, when the server refuses it
//! (`overloaded`, even if a retry later succeeds), when a cell errors or
//! reports a checksum mismatch, or when a served metric differs from a
//! direct engine run of the same cell.

use crate::stats::peak_rss_mb;
use crate::workload::{Expect, Mix};
use bsched_serve::{Client, Endpoint, StatsSnapshot, SubmitReply};
use bsched_sim::SimMetrics;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(120);
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// Retries of a refused submit before the request is given up.
const MAX_RETRIES: usize = 1000;

/// A running `bsched-serve` process on a Unix socket.
#[derive(Debug)]
pub struct ServerProc {
    child: Option<Child>,
    endpoint: Endpoint,
}

impl ServerProc {
    /// Spawns `bin` with one worker on `socket` and the disk cache at
    /// `cache_dir`, and waits until a `ping` is answered. Returns the
    /// server and the seconds from spawn to the answered ping.
    ///
    /// # Errors
    ///
    /// The binary cannot start, exits early, or never answers.
    pub fn spawn(
        bin: &Path,
        socket: &Path,
        cache_dir: &Path,
        log: &Path,
    ) -> Result<(ServerProc, f64), String> {
        let _ = std::fs::remove_file(socket);
        let log = std::fs::File::create(log)
            .map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let t0 = Instant::now();
        let child = Command::new(bin)
            .arg("--unix")
            .arg(socket)
            .arg("--jobs")
            .arg("1")
            .arg("--cache-dir")
            .arg(cache_dir)
            .env_remove("BSCHED_NO_CACHE")
            .env_remove("BSCHED_VERIFY")
            .env_remove("BSCHED_SIM_ENGINE")
            .env_remove("BSCHED_SAMPLE")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = ServerProc {
            child: Some(child),
            endpoint: Endpoint::Unix(socket.to_path_buf()),
        };
        loop {
            if let Ok(mut c) = Client::connect(&server.endpoint, IO_TIMEOUT) {
                if c.ping().is_ok() {
                    return Ok((server, t0.elapsed().as_secs_f64()));
                }
            }
            if let Some(child) = server.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    server.child = None;
                    return Err(format!("bsched-serve exited during start-up ({status})"));
                }
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err("bsched-serve never answered a ping".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The server's endpoint.
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Peak resident memory of the server process so far (MiB).
    #[must_use]
    pub fn peak_rss_mb(&self) -> f64 {
        self.child
            .as_ref()
            .map_or(0.0, |c| peak_rss_mb(Some(c.id())))
    }

    /// The server's counters.
    ///
    /// # Errors
    ///
    /// Socket or protocol failure.
    pub fn stats(&self) -> Result<StatsSnapshot, String> {
        Client::connect(&self.endpoint, IO_TIMEOUT)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("stats failed: {e}"))
    }

    /// Asks the server to drain and exit, and waits for it.
    ///
    /// # Errors
    ///
    /// The shutdown request fails or the server exits unsuccessfully.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.endpoint, IO_TIMEOUT).and_then(|mut c| c.shutdown());
        let Some(mut child) = self.child.take() else {
            return Err("server already gone".to_string());
        };
        if let Err(e) = asked {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("shutdown failed: {e}"));
        }
        match child.wait() {
            Ok(s) if s.success() => Ok(()),
            Ok(s) => Err(format!("bsched-serve exited with {s}")),
            Err(e) => Err(format!("cannot wait for bsched-serve: {e}")),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// What one closed-loop replay measured.
#[derive(Clone, Debug, Default)]
pub struct LoadOutcome {
    /// Seconds from the first request sent to the last reply received.
    pub wall_s: f64,
    /// Requests attempted.
    pub requests: u64,
    /// Requests that failed (see the module docs).
    pub failed: u64,
    /// Cells in completed replies.
    pub cells: u64,
    /// Latency of each completed request, send to full reply (ms), in
    /// client order and each client's send order, so that the same
    /// seed lines up the same requests in every pass.
    pub latency_ms: Vec<f64>,
    /// The first served metrics of each distinct cell, by canonical key.
    pub served: HashMap<String, SimMetrics>,
}

/// Replays `per_client` requests of `mix` (stream `seed`) from `clients`
/// connections, checking each served cell against `mix.distinct`.
#[must_use]
pub fn closed_loop(
    endpoint: &Endpoint,
    mix: &Mix,
    seed: u64,
    clients: u64,
    per_client: usize,
) -> LoadOutcome {
    let expected: HashMap<&str, &SimMetrics> = mix
        .distinct
        .iter()
        .filter_map(|d| match &d.expect {
            Expect::Metrics(m) => Some((d.cell.canonical_key(), m)),
            _ => None,
        })
        .collect();
    let t0 = Instant::now();
    let outcomes: Vec<LoadOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let stream = mix.stream(seed, c, per_client);
                let expected = &expected;
                scope.spawn(move || {
                    let mut mine = LoadOutcome::default();
                    let mut client = Client::connect(endpoint, IO_TIMEOUT).ok();
                    for entry in stream.iter().map(|&e| &mix.entries[e]) {
                        mine.requests += 1;
                        let Some(conn) = client.as_mut() else {
                            mine.failed += 1;
                            continue;
                        };
                        let t = Instant::now();
                        let mut refused = false;
                        let mut reply = conn.submit(&entry.cells, entry.verify, false);
                        for _ in 0..MAX_RETRIES {
                            if !matches!(reply, Ok(SubmitReply::Overloaded { .. })) {
                                break;
                            }
                            refused = true;
                            std::thread::sleep(Duration::from_millis(5));
                            reply = conn.submit(&entry.cells, entry.verify, false);
                        }
                        let lat = crate::stats::ms(t.elapsed());
                        let Ok(SubmitReply::Completed { cells, .. }) = reply else {
                            mine.failed += 1;
                            client = None;
                            continue;
                        };
                        let mut ok = !refused && cells.len() == entry.cells.len();
                        for rc in &cells {
                            let cell = &entry.cells[usize::try_from(rc.index)
                                .unwrap_or(usize::MAX)
                                .min(entry.cells.len() - 1)];
                            match &rc.outcome {
                                Ok(r)
                                    if r.checksum_ok
                                        && expected.get(cell.canonical_key())
                                            == Some(&&r.metrics) =>
                                {
                                    mine.served
                                        .entry(cell.canonical_key().to_string())
                                        .or_insert_with(|| r.metrics.clone());
                                }
                                _ => ok = false,
                            }
                        }
                        if ok {
                            mine.latency_ms.push(lat);
                            mine.cells += cells.len() as u64;
                        } else {
                            mine.failed += 1;
                        }
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client"))
            .collect()
    });
    let mut out = LoadOutcome {
        wall_s: t0.elapsed().as_secs_f64(),
        ..LoadOutcome::default()
    };
    for mine in outcomes {
        out.requests += mine.requests;
        out.failed += mine.failed;
        out.cells += mine.cells;
        out.latency_ms.extend(mine.latency_ms);
        for (k, m) in mine.served {
            out.served.entry(k).or_insert(m);
        }
    }
    out
}

/// Fills each distinct mix cell's expectation from a direct engine run
/// (no disk cache, one worker).
///
/// # Errors
///
/// The engine fails a cell.
pub fn expect_direct(mix: &mut Mix) -> Result<(), String> {
    let engine = bsched_harness::Engine::with_standard_kernels(
        crate::pass::engine_config(1, Path::new(".")).with_disk_cache(false),
    );
    let cells: Vec<_> = mix.distinct.iter().map(|d| d.cell.clone()).collect();
    engine
        .run(&cells)
        .map_err(|e| format!("direct engine run failed: {e}"))?;
    for d in &mut mix.distinct {
        let r = engine
            .result(&d.cell)
            .ok_or("direct engine run lost a cell")?;
        d.expect = Expect::Metrics(r.metrics);
    }
    Ok(())
}

/// The socket, cache and log paths of one `serve_mix` run under `dir`.
#[derive(Clone, Debug)]
pub struct ServeDirs {
    /// The Unix socket (relative paths keep it under the length limit).
    pub socket: PathBuf,
    /// The disk cache root.
    pub cache: PathBuf,
    /// Server stderr log.
    pub log: PathBuf,
}

impl ServeDirs {
    /// Paths under `dir`.
    #[must_use]
    pub fn under(dir: &Path) -> ServeDirs {
        ServeDirs {
            socket: dir.join("s.sock"),
            cache: dir.join("cache"),
            log: dir.join("server.log"),
        }
    }
}
