//! The repository benchmark.
//!
//! Three workloads, each checked cell by cell against a committed
//! reference:
//!
//! * `grid_cold` — the 255-cell `all_experiments` grid, one worker,
//!   empty caches, one fresh process per pass;
//! * `zoo_exact` — the `machines` sweep (17 kernels × 6 machines ×
//!   {TS, BS, Exact}), two workers, one fresh process per pass;
//! * `serve_mix` — the `serving_default` mix replayed closed-loop from
//!   two connections against a `bsched-serve` process on a warm disk
//!   cache.
//!
//! [`pass`] runs one timed cold pass, [`mix`] drives the server, and
//! [`layers`] is the traced run: it calls each crate's public entry
//! points in pipeline order from outside the program and times them.
//! [`metrics`] holds the metric names every run reports.

#![forbid(unsafe_code)]

pub mod layers;
pub mod metrics;
pub mod mix;
pub mod pass;
pub mod stats;
pub mod workload;
