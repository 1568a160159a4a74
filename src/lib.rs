//! `balanced-scheduling` — umbrella crate for the reproduction of
//! Lo & Eggers, *Improving Balanced Scheduling with Compiler Optimizations
//! that Increase Instruction-Level Parallelism* (PLDI 1995).
//!
//! Re-exports every subsystem crate under one roof:
//!
//! * [`ir`] — the executable Alpha-like IR (instructions, CFG, code DAGs,
//!   reference interpreter).
//! * [`core`] — balanced / traditional / selective list scheduling (the
//!   paper's contribution).
//! * [`opt`] — loop unrolling, peeling, trace scheduling, locality
//!   analysis, predication, cleanup passes.
//! * [`regalloc`] — graph-coloring register allocation with spill insertion.
//! * [`mem`] — the Alpha 21164-like memory hierarchy (3-level caches,
//!   lockup-free L1 MSHRs, TLBs).
//! * [`sim`] — the execution-driven single-issue non-blocking timing
//!   simulator.
//! * [`workloads`] — the loop-language frontend and the 17 paper-shaped
//!   kernels.
//! * [`pipeline`] — the end-to-end compile+simulate driver and experiment
//!   grids.
//!
//! The single public entry point is the [`Experiment`] builder,
//! re-exported at the crate root:
//!
//! ```
//! use balanced_scheduling::{Experiment, MachineSpec, OptLevel, SchedulerKind};
//!
//! let run = Experiment::builder()
//!     .kernel("TRFD")
//!     .opts(OptLevel::Unroll8Trace)
//!     .scheduler(SchedulerKind::Balanced)
//!     .machine(MachineSpec::alpha21164())
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert!(run.checksum_ok);
//! ```
//!
//! See `README.md` for a tour (including the old-call → builder-call
//! migration table) and `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]

pub use bsched_core as core;
pub use bsched_ir as ir;
pub use bsched_mem as mem;
pub use bsched_opt as opt;
pub use bsched_pipeline as pipeline;
pub use bsched_regalloc as regalloc;
pub use bsched_sim as sim;
pub use bsched_trace as trace;
pub use bsched_workloads as workloads;

pub use bsched_pipeline::{
    resolve_kernel, CompileOptions, ConfigKind, Experiment, ExperimentBuilder, ExperimentError,
    OptLevel, RunResult, SchedulerKind, Session, SourceProgram, TieBreak,
};
pub use bsched_sim::{MachineSpec, SimConfig};
