//! The unified `Experiment` façade — the public entry point for
//! compiling and simulating one experimental configuration.
//!
//! Everything the table/figure binaries, the harness, and downstream
//! users need funnels through one typed builder:
//!
//! ```
//! use bsched_pipeline::{Experiment, OptLevel, SchedulerKind};
//! use bsched_sim::MachineSpec;
//!
//! let session = Experiment::builder()
//!     .kernel("TRFD")
//!     .opts(OptLevel::Unroll4)
//!     .scheduler(SchedulerKind::Balanced)
//!     .machine(MachineSpec::alpha21164())
//!     .build()
//!     .unwrap();
//! let run = session.run().unwrap();
//! assert!(run.checksum_ok);
//! ```
//!
//! The builder validates kernel names against the workload suite (an
//! unknown name errors with the list of valid choices), applies the
//! optimization level, and resolves the effective [`CompileOptions`].
//! [`Session`] is the frozen, validated configuration; [`Session::run`]
//! compiles, simulates, and cross-checks the simulator's result against
//! the reference interpreter's, and [`Session::compile`] stops after
//! code generation. [`Session::prepare`] compiles once and returns a
//! [`Prepared`] program that simulates, checked, on any machine.
//!
//! The pre-0.3 free functions (`compile`, `compile_and_run`) and the
//! `Runner` memoizer remain as `#[deprecated]` shims over the same
//! implementation.

use crate::compile::{compile_impl, Compiled, FrontEnd, PipelineError};
use crate::experiments::ConfigKind;
use crate::options::CompileOptions;
use crate::run::{Prepared, RunResult};
use crate::source::SourceProgram;
use bsched_core::{SchedulerKind, TieBreak};
use bsched_ir::Program;
use bsched_sim::{MachineSpec, SimConfig, SimEngine, SimMode};
use std::sync::Arc;

/// A named optimization level: the ILP-increasing transformation sets
/// evaluated in the paper, with the paper's unroll factors baked in.
///
/// This is the builder-facing face of [`ConfigKind`]; arbitrary factors
/// remain available through [`ExperimentBuilder::config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// No ILP-increasing optimization.
    #[default]
    None,
    /// Loop unrolling by 4.
    Unroll4,
    /// Loop unrolling by 8.
    Unroll8,
    /// Trace scheduling over 4-way unrolled loops.
    Unroll4Trace,
    /// Trace scheduling over 8-way unrolled loops.
    Unroll8Trace,
    /// Locality analysis alone.
    Locality,
    /// Locality analysis plus 4-way unrolling.
    LocalityUnroll4,
    /// Locality analysis plus 8-way unrolling.
    LocalityUnroll8,
    /// Locality analysis, trace scheduling, 4-way unrolling.
    LocalityUnroll4Trace,
    /// Locality analysis, trace scheduling, 8-way unrolling.
    LocalityUnroll8Trace,
}

impl OptLevel {
    /// Every level, in the paper's table order.
    pub const ALL: [OptLevel; 10] = [
        OptLevel::None,
        OptLevel::Unroll4,
        OptLevel::Unroll8,
        OptLevel::Unroll4Trace,
        OptLevel::Unroll8Trace,
        OptLevel::Locality,
        OptLevel::LocalityUnroll4,
        OptLevel::LocalityUnroll8,
        OptLevel::LocalityUnroll4Trace,
        OptLevel::LocalityUnroll8Trace,
    ];
}

impl From<OptLevel> for ConfigKind {
    fn from(level: OptLevel) -> ConfigKind {
        match level {
            OptLevel::None => ConfigKind::Base,
            OptLevel::Unroll4 => ConfigKind::Lu(4),
            OptLevel::Unroll8 => ConfigKind::Lu(8),
            OptLevel::Unroll4Trace => ConfigKind::TrsLu(4),
            OptLevel::Unroll8Trace => ConfigKind::TrsLu(8),
            OptLevel::Locality => ConfigKind::La,
            OptLevel::LocalityUnroll4 => ConfigKind::LaLu(4),
            OptLevel::LocalityUnroll8 => ConfigKind::LaLu(8),
            OptLevel::LocalityUnroll4Trace => ConfigKind::LaTrsLu(4),
            OptLevel::LocalityUnroll8Trace => ConfigKind::LaTrsLu(8),
        }
    }
}

/// Errors raised while building a [`Session`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// The kernel name does not exist in the workload suite. Carries the
    /// full list of valid names for the error message.
    UnknownKernel {
        /// The name that failed to resolve.
        name: String,
        /// Every valid kernel name, in the paper's Table 1 order.
        valid: Vec<&'static str>,
    },
    /// Neither [`ExperimentBuilder::kernel`] nor
    /// [`ExperimentBuilder::program`] was called.
    MissingProgram,
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::UnknownKernel { name, valid } => {
                write!(f, "unknown kernel '{name}'; valid kernels: {}", valid.join(", "))
            }
            ExperimentError::MissingProgram => {
                write!(f, "no program: call .kernel(name) or .program(name, program)")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Resolves a workload kernel name, or returns the
/// [`ExperimentError::UnknownKernel`] listing every valid choice.
///
/// The same validation backs `all_experiments --kernels`.
///
/// # Errors
///
/// Returns [`ExperimentError::UnknownKernel`] when the name is not in
/// the suite.
pub fn resolve_kernel(name: &str) -> Result<Program, ExperimentError> {
    match bsched_workloads::suite::kernel_by_name(name) {
        Some(spec) => Ok(spec.program()),
        None => Err(ExperimentError::UnknownKernel {
            name: name.to_string(),
            valid: bsched_workloads::suite::all_kernels()
                .iter()
                .map(|k| k.name)
                .collect(),
        }),
    }
}

/// The entry point of the experiment API: [`Experiment::builder`].
#[derive(Debug, Clone, Copy)]
pub struct Experiment;

impl Experiment {
    /// Starts building an experiment session.
    #[must_use]
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }
}

/// Typed builder for one experiment configuration. See the
/// [module docs](self) for the canonical usage.
#[derive(Debug, Clone, Default)]
pub struct ExperimentBuilder {
    kernel: Option<String>,
    program: Option<(String, SourceProgram)>,
    config: ConfigKind2,
    scheduler: SchedulerKind,
    sim: Option<SimConfig>,
    weight_cap: Option<u32>,
    tie_break: Option<TieBreak>,
    unroll_budget: Option<usize>,
    exact_budget: Option<u64>,
    predicate: Option<bool>,
    selective: Option<bool>,
    reference_weights: bool,
    options_override: Option<CompileOptions>,
    trace: bool,
    engine: SimEngine,
    sim_mode: SimMode,
}

/// `ConfigKind` with a `Default`, private to the builder.
#[derive(Debug, Clone, Copy)]
struct ConfigKind2(ConfigKind);

impl Default for ConfigKind2 {
    fn default() -> Self {
        ConfigKind2(ConfigKind::Base)
    }
}

impl ExperimentBuilder {
    /// Selects a workload-suite kernel by its paper name (validated at
    /// [`build`](Self::build) time).
    #[must_use]
    pub fn kernel(mut self, name: impl Into<String>) -> Self {
        self.kernel = Some(name.into());
        self
    }

    /// Supplies an explicit program (custom kernels, the harness):
    /// a [`Program`], or a [`SourceProgram`] handle whose memoized
    /// reference is then shared with every other session built from it.
    /// Overrides [`kernel`](Self::kernel).
    #[must_use]
    pub fn program(mut self, name: impl Into<String>, program: impl Into<SourceProgram>) -> Self {
        self.program = Some((name.into(), program.into()));
        self
    }

    /// Sets the optimization level.
    #[must_use]
    pub fn opts(mut self, level: OptLevel) -> Self {
        self.config = ConfigKind2(level.into());
        self
    }

    /// Sets an optimization configuration with an arbitrary unroll
    /// factor (the [`OptLevel`] levels cover the paper's 4 and 8).
    #[must_use]
    pub fn config(mut self, kind: ConfigKind) -> Self {
        self.config = ConfigKind2(kind);
        self
    }

    /// Sets the load-weight policy (default: balanced).
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the machine the experiment simulates (default:
    /// [`MachineSpec::alpha21164`], the paper's machine). Accepts any
    /// registry name or spec-grammar string via
    /// [`MachineSpec`]'s `FromStr`, or a programmatic
    /// [`MachineSpec::custom`].
    #[must_use]
    pub fn machine(mut self, machine: MachineSpec) -> Self {
        self.sim = Some(machine.config());
        self
    }

    /// Sets the simulator configuration from a raw knob struct,
    /// bypassing machine validation.
    #[deprecated(
        since = "0.5.0",
        note = "describe the machine: .machine(MachineSpec::custom(sim)) \
                — or name a registered one"
    )]
    #[must_use]
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.sim = Some(sim);
        self
    }

    /// Overrides the balanced weight cap (ablations).
    #[must_use]
    pub fn weight_cap(mut self, cap: u32) -> Self {
        self.weight_cap = Some(cap);
        self
    }

    /// Overrides the scheduler tie-break order (ablations).
    #[must_use]
    pub fn tie_break(mut self, tie_break: TieBreak) -> Self {
        self.tie_break = Some(tie_break);
        self
    }

    /// Overrides the unrolled-body instruction budget (ablations).
    #[must_use]
    pub fn unroll_budget(mut self, budget: usize) -> Self {
        self.unroll_budget = Some(budget);
        self
    }

    /// Overrides the exact-search node budget (the
    /// [`SchedulerKind::Exact`] arm only; a deterministic unit, part of
    /// harness cache keys).
    #[must_use]
    pub fn exact_budget(mut self, budget: u64) -> Self {
        self.exact_budget = Some(budget);
        self
    }

    /// Switches predication of simple conditionals (ablations).
    #[must_use]
    pub fn predicate(mut self, on: bool) -> Self {
        self.predicate = Some(on);
        self
    }

    /// Switches selective scheduling under locality analysis (ablations).
    #[must_use]
    pub fn selective(mut self, on: bool) -> Self {
        self.selective = Some(on);
        self
    }

    /// Routes balanced-weight computation through the retained naive
    /// reference implementation (identical results, pre-kernel cost) —
    /// the "before" arm of the perf-trajectory benches.
    #[must_use]
    pub fn reference_weights(mut self, on: bool) -> Self {
        self.reference_weights = on;
        self
    }

    /// Supplies fully-formed [`CompileOptions`], bypassing every other
    /// axis except the program. Escape hatch for the harness, whose
    /// cache keys are keyed on complete option sets.
    #[must_use]
    pub fn compile_options(mut self, options: CompileOptions) -> Self {
        self.options_override = Some(options);
        self
    }

    /// Enables `bsched-trace` observability for this session's
    /// [`run`](Session::run) / [`compile`](Session::compile) calls:
    /// per-pass spans, scheduler region stats, and per-load interlock
    /// attribution, collectible with `bsched_trace::drain`.
    ///
    /// Observability only — results are byte-identical either way, and
    /// the flag is deliberately *not* part of [`CompileOptions`], so
    /// harness cache keys are unaffected. (Trace *scheduling*, the
    /// compiler optimization, is selected through [`opts`](Self::opts)
    /// instead.)
    #[must_use]
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Selects the simulation engine for this session's
    /// [`run`](Session::run) calls (default:
    /// [`SimEngine::BlockCompiled`]).
    ///
    /// Both engines produce bit-identical metrics, trace attribution,
    /// and checksums — the choice is an execution detail like
    /// [`trace`](Self::trace), deliberately *not* part of
    /// [`CompileOptions`], so harness cache keys are unaffected and a
    /// cache warmed under one engine is 100% hits under the other.
    #[must_use]
    pub fn engine(mut self, engine: SimEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Selects exact or sampled simulation for this session's
    /// [`run`](Session::run) calls (default: [`SimMode::Exact`]).
    ///
    /// Like [`engine`](Self::engine) this is an execution axis,
    /// deliberately *not* part of [`CompileOptions`], so harness cache
    /// keys are unaffected — but unlike the engine axis it is **not**
    /// metrics-invariant: sampled runs estimate cycle-level metrics from
    /// representative intervals (instruction counts and the checksum
    /// stay exact), so the harness must never let sampled results into
    /// the exact-result cache.
    #[must_use]
    pub fn sim_mode(mut self, mode: SimMode) -> Self {
        self.sim_mode = mode;
        self
    }

    /// Validates the configuration and freezes it into a [`Session`].
    ///
    /// # Errors
    ///
    /// [`ExperimentError::UnknownKernel`] for a bad kernel name,
    /// [`ExperimentError::MissingProgram`] when no program was selected.
    pub fn build(self) -> Result<Session, ExperimentError> {
        let (name, program) = match (self.program, self.kernel) {
            (Some((name, program)), _) => (name, program),
            (None, Some(name)) => {
                let program = resolve_kernel(&name)?.into();
                (name, program)
            }
            (None, None) => return Err(ExperimentError::MissingProgram),
        };
        let options = if let Some(options) = self.options_override {
            options
        } else {
            let mut o = self.config.0.options(self.scheduler);
            if let Some(sim) = self.sim {
                o = o.with_sim(sim);
            }
            if let Some(cap) = self.weight_cap {
                o = o.with_weight_cap(cap);
            }
            if let Some(tb) = self.tie_break {
                o = o.with_tie_break(tb);
            }
            if let Some(b) = self.unroll_budget {
                o = o.with_unroll_budget(b);
            }
            if let Some(b) = self.exact_budget {
                o = o.with_exact_budget(b);
            }
            if self.predicate == Some(false) {
                o = o.without_predication();
            }
            if self.selective == Some(false) {
                o = o.without_selective();
            }
            if self.reference_weights {
                o = o.with_reference_weights();
            }
            o
        };
        Ok(Session {
            name,
            program,
            options,
            trace: self.trace,
            engine: self.engine,
            sim_mode: self.sim_mode,
        })
    }
}

/// A validated, frozen experiment: one program under one full option
/// set. Created by [`ExperimentBuilder::build`].
#[derive(Debug, Clone)]
pub struct Session {
    name: String,
    program: SourceProgram,
    options: CompileOptions,
    trace: bool,
    engine: SimEngine,
    sim_mode: SimMode,
}

impl Session {
    /// The experiment's program name (kernel name or custom).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The source program.
    #[must_use]
    pub fn source(&self) -> &Program {
        self.program.program()
    }

    /// The resolved compile options.
    #[must_use]
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// The table label (`BS+LU4+TrS`, …) for this configuration.
    #[must_use]
    pub fn label(&self) -> String {
        self.options.label()
    }

    /// Whether this session enables `bsched-trace` observability (see
    /// [`ExperimentBuilder::trace`]).
    #[must_use]
    pub fn traced(&self) -> bool {
        self.trace
    }

    /// The simulation engine this session runs on (see
    /// [`ExperimentBuilder::engine`]).
    #[must_use]
    pub fn engine(&self) -> SimEngine {
        self.engine
    }

    /// The simulation mode this session runs in (see
    /// [`ExperimentBuilder::sim_mode`]).
    #[must_use]
    pub fn sim_mode(&self) -> SimMode {
        self.sim_mode
    }

    /// An enable guard when this session is traced, `None` otherwise.
    fn trace_scope(&self) -> Option<bsched_trace::EnableGuard> {
        self.trace.then(bsched_trace::enable_scope)
    }

    /// Compiles once for every machine: the source's reference
    /// (interpreted once per [`SourceProgram`]), then the phase order
    /// without its post-compile interpreter check. Each
    /// [`Prepared::run`] simulates one machine and checks that run
    /// against the reference. Tracing, when on, covers both steps.
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineError`]s from the reference and from
    /// compilation.
    pub fn prepare(&self) -> Result<Prepared, PipelineError> {
        self.prepare_with(crate::compile::own_front)
    }

    /// [`Session::prepare`] with the front end supplied by `front`,
    /// called once with this session's source and options. `front`
    /// may compute it ([`FrontEnd::new`]) or return one it already
    /// holds for the same source and [`CompileOptions::front`]; the
    /// harness shares front ends between the compile keys of a kernel
    /// this way. The call happens inside the compile's
    /// `pipeline.compile` span.
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineError`]s from the reference, from `front`
    /// and from compilation.
    pub fn prepare_with(
        &self,
        front: impl FnOnce(&SourceProgram, &CompileOptions) -> Result<Arc<FrontEnd>, PipelineError>,
    ) -> Result<Prepared, PipelineError> {
        Prepared::new(
            &self.program,
            &self.options,
            front,
            self.engine,
            self.sim_mode,
            self.trace,
        )
    }

    /// [`Session::prepare`], then [`Prepared::run`] on this session's
    /// own machine.
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineError`]s from compilation and simulation,
    /// and [`PipelineError::ChecksumMismatch`] on a miscompile.
    pub fn run(&self) -> Result<RunResult, PipelineError> {
        self.prepare()?.run(&MachineSpec::custom(self.options.sim))
    }

    /// Compiles only (no simulation): the full phase order through
    /// register allocation, then the compiled program on the reference
    /// interpreter, whose checksum must equal the source's reference.
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineError`]s from compilation, and
    /// [`PipelineError::ChecksumMismatch`] on a miscompile.
    pub fn compile(&self) -> Result<Compiled, PipelineError> {
        let _trace = self.trace_scope();
        compile_impl(&self.program, &self.options)
    }

    /// [`Session::compile`] that also returns the basic-block scheduling
    /// audit — the pre-schedule region instructions, the weights the list
    /// scheduler saw, and the emitted orders. `bsched-verify` rebuilds
    /// each region's dependence DAG from this record and proves the
    /// schedule legal.
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineError`]s from compilation.
    pub fn compile_audited(&self) -> Result<(Compiled, bsched_core::ScheduleAudit), PipelineError> {
        let _trace = self.trace_scope();
        crate::compile::compile_audited_impl(&self.program, &self.options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_resolves_suite_kernels() {
        let s = Experiment::builder()
            .kernel("TRFD")
            .opts(OptLevel::Unroll4)
            .scheduler(SchedulerKind::Balanced)
            .build()
            .unwrap();
        assert_eq!(s.name(), "TRFD");
        assert_eq!(s.label(), "BS+LU4");
        assert!(s.options().unroll == Some(4) && !s.options().trace);
    }

    #[test]
    fn unknown_kernel_lists_valid_choices() {
        let err = Experiment::builder().kernel("nope").build().unwrap_err();
        let ExperimentError::UnknownKernel { name, valid } = &err else {
            panic!("wrong error: {err:?}");
        };
        assert_eq!(name, "nope");
        assert_eq!(valid.len(), 17);
        let msg = err.to_string();
        assert!(msg.contains("unknown kernel 'nope'"), "{msg}");
        assert!(msg.contains("tomcatv") && msg.contains("ARC2D"), "{msg}");
    }

    #[test]
    fn missing_program_errors() {
        assert_eq!(
            Experiment::builder().build().unwrap_err(),
            ExperimentError::MissingProgram
        );
    }

    #[test]
    fn opt_levels_map_onto_config_kinds() {
        assert_eq!(ConfigKind::from(OptLevel::None), ConfigKind::Base);
        assert_eq!(ConfigKind::from(OptLevel::Unroll8Trace), ConfigKind::TrsLu(8));
        assert_eq!(
            ConfigKind::from(OptLevel::LocalityUnroll4Trace),
            ConfigKind::LaTrsLu(4)
        );
        // Every level resolves to a distinct configuration.
        let kinds: bsched_util::FastHashSet<ConfigKind> =
            OptLevel::ALL.iter().map(|&l| l.into()).collect();
        assert_eq!(kinds.len(), OptLevel::ALL.len());
    }

    #[test]
    fn builder_matches_manual_options() {
        let s = Experiment::builder()
            .kernel("ora")
            .opts(OptLevel::LocalityUnroll8Trace)
            .scheduler(SchedulerKind::Balanced)
            .machine(MachineSpec::alpha21164())
            .build()
            .unwrap();
        let manual = ConfigKind::LaTrsLu(8).options(SchedulerKind::Balanced);
        assert_eq!(format!("{:?}", s.options()), format!("{manual:?}"));
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_sim_shim_matches_machine_builder() {
        // Satellite of the MachineSpec migration: the raw-config shim
        // and the machine builder resolve to identical sessions.
        let cfg = SimConfig::alpha21164().with_mshrs(2);
        let shim = Experiment::builder().kernel("TRFD").sim(cfg).build().unwrap();
        let machined = Experiment::builder()
            .kernel("TRFD")
            .machine(MachineSpec::custom(cfg))
            .build()
            .unwrap();
        assert_eq!(
            format!("{:?}", shim.options()),
            format!("{:?}", machined.options())
        );
    }

    #[test]
    fn machine_builder_threads_zoo_configs() {
        let wide: MachineSpec = "wide4".parse().unwrap();
        let s = Experiment::builder()
            .kernel("TRFD")
            .machine(wide.clone())
            .build()
            .unwrap();
        assert_eq!(s.options().sim, wide.config());
        assert_eq!(s.options().sim.issue_width, 4);
    }

    #[test]
    fn session_runs_end_to_end() {
        let s = Experiment::builder()
            .kernel("TRFD")
            .scheduler(SchedulerKind::Traditional)
            .build()
            .unwrap();
        let run = s.run().unwrap();
        assert!(run.checksum_ok);
        assert!(run.metrics.cycles > 0);
        let compiled = s.compile().unwrap();
        assert!(compiled.program.main().inst_count() > 0);
    }

    #[test]
    fn trace_axis_is_observability_only() {
        let traced = Experiment::builder().kernel("TRFD").trace(true).build().unwrap();
        assert!(traced.traced());
        let plain = Experiment::builder().kernel("TRFD").build().unwrap();
        assert!(!plain.traced());
        // Tracing is not a compile axis: the resolved options (and hence
        // every harness cache key) are identical either way.
        assert_eq!(
            format!("{:?}", traced.options()),
            format!("{:?}", plain.options())
        );
    }

    #[test]
    fn engine_axis_is_execution_only() {
        let interp = Experiment::builder()
            .kernel("TRFD")
            .engine(SimEngine::Interpret)
            .build()
            .unwrap();
        let block = Experiment::builder()
            .kernel("TRFD")
            .engine(SimEngine::BlockCompiled)
            .build()
            .unwrap();
        assert_eq!(interp.engine(), SimEngine::Interpret);
        assert_eq!(block.engine(), SimEngine::BlockCompiled);
        // Like tracing, the engine is not a compile axis: resolved
        // options (and hence every harness cache key) are identical,
        // and so are the results.
        assert_eq!(
            format!("{:?}", interp.options()),
            format!("{:?}", block.options())
        );
        let a = interp.run().unwrap();
        let b = block.run().unwrap();
        assert_eq!(a.metrics, b.metrics);
        assert!(a.checksum_ok && b.checksum_ok);
    }

    #[test]
    fn sim_mode_axis_is_execution_only() {
        use bsched_sim::SampleConfig;
        let exact = Experiment::builder().kernel("TRFD").build().unwrap();
        let sampled = Experiment::builder()
            .kernel("TRFD")
            .sim_mode(SimMode::Sampled(SampleConfig::default()))
            .build()
            .unwrap();
        assert_eq!(exact.sim_mode(), SimMode::Exact);
        assert!(sampled.sim_mode().is_sampled());
        // The mode is not a compile axis: resolved options (and hence
        // every harness cache key) are identical either way.
        assert_eq!(
            format!("{:?}", exact.options()),
            format!("{:?}", sampled.options())
        );
        // The functional outcome stays exact in sampled mode: counts and
        // checksum match, and the run records its sampling summary.
        let e = exact.run().unwrap();
        let s = sampled.run().unwrap();
        assert!(e.sample.is_none());
        let stats = s.sample.expect("sampled run reports stats");
        assert!(stats.clusters >= 1 && stats.clusters <= stats.intervals);
        assert!(stats.sampled_insts <= stats.total_insts);
        assert!(s.checksum_ok);
        assert_eq!(e.metrics.insts, s.metrics.insts);
        assert!(s.metrics.cycles > 0);
    }

    #[test]
    fn ablation_axes_apply() {
        let s = Experiment::builder()
            .kernel("ora")
            .weight_cap(10)
            .tie_break(TieBreak::ProgramOrder)
            .unroll_budget(32)
            .predicate(false)
            .selective(false)
            .reference_weights(true)
            .build()
            .unwrap();
        let o = s.options();
        assert_eq!(o.weight_cap, 10);
        assert_eq!(o.tie_break, TieBreak::ProgramOrder);
        assert_eq!(o.unroll_budget, Some(32));
        assert!(!o.predicate && !o.selective && o.reference_weights);
    }
}
