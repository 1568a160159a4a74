//! `bsched-pipeline` — the end-to-end compile-and-simulate driver.
//!
//! Reproduces the paper's methodology (§4): a kernel program is run
//! through the Multiflow-style phase order —
//!
//! 1. predication of simple conditionals (cmov),
//! 2. locality analysis with its peeling/unrolling/marking (§3.3),
//! 3. loop unrolling of the remaining innermost loops (§3.1),
//! 4. cleanup (copy propagation, DCE, chain merging),
//! 5. profile-guided trace scheduling (§3.2),
//! 6. basic-block list scheduling with traditional or balanced weights,
//! 7. graph-coloring register allocation with spill insertion —
//!
//! and then executed on the Alpha 21164-like timing simulator. Steps
//! 1–4 are the front end ([`FrontEnd`]): they read no scheduler option,
//! so the compiles of one source with equal [`FrontOptions`] can share
//! one ([`Session::prepare_with`]). Steps 5–7 are the back end. Every
//! compiled configuration is cross-checked against the reference
//! interpreter: the observable memory checksum must match the unoptimized
//! program's. That reference is computed once per [`SourceProgram`] and
//! shared by every configuration compiled from it; a run compares the
//! simulator's checksum to it, a compile-only call interprets the
//! compiled program.
//!
//! ```
//! use bsched_pipeline::{Experiment, OptLevel, SchedulerKind};
//! use bsched_workloads::lang::ast::{Expr, Index};
//! use bsched_workloads::lang::{ArrayInit, Kernel};
//!
//! let mut k = Kernel::new("demo");
//! let a = k.array("a", 64, ArrayInit::Ramp(0.0, 1.0));
//! let i = k.int_var("i");
//! let body = vec![k.store(a, Index::of(i), Expr::load(a, Index::of(i)) * Expr::Float(2.0))];
//! k.push(k.for_loop(i, Expr::Int(0), Expr::Int(64), body));
//! let program = k.lower();
//!
//! let run = Experiment::builder()
//!     .program("demo", program)
//!     .opts(OptLevel::Unroll4)
//!     .scheduler(SchedulerKind::Balanced)
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert!(run.checksum_ok);
//! assert!(run.metrics.cycles > 0);
//! ```
//!
//! Suite kernels resolve by name: `Experiment::builder().kernel("TRFD")`.
//! The pre-0.3 free functions ([`compile`], [`compile_and_run`]) and the
//! [`Runner`] memoizer remain as deprecated shims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod experiment;
pub mod experiments;
pub mod options;
pub mod run;
pub mod source;
pub mod table;

pub use bsched_core::{SchedulerKind, TieBreak};
#[allow(deprecated)]
pub use compile::compile;
pub use compile::{CompileStats, Compiled, FrontEnd, PipelineError};
pub use experiment::{
    resolve_kernel, Experiment, ExperimentBuilder, ExperimentError, OptLevel, Session,
};
#[allow(deprecated)]
pub use experiments::Runner;
pub use experiments::{standard_grid, ConfigKind, ExperimentConfig};
pub use bsched_sim::{MachineInfo, MachineSpec, PredictorKind, SampleConfig, SampleStats, SimEngine, SimMode};
pub use options::{CompileOptions, FrontOptions};
#[allow(deprecated)]
pub use run::compile_and_run;
pub use run::{Prepared, RunResult, Simulation};
pub use source::SourceProgram;
pub use table::Table;
