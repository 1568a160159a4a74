//! Compile-and-simulate entry point: one compile ([`Prepared`]) runs
//! checked on any number of machines.

use crate::compile::{compile_unchecked, CompileStats, Compiled, PipelineError};
use crate::options::CompileOptions;
use crate::source::SourceProgram;
use bsched_ir::{Interp, Program};
use bsched_sim::{MachineSpec, SampleStats, SimEngine, SimMetrics, SimMode, Simulator};

/// The result of one end-to-end run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Timing metrics from the 21164-like simulator (estimates under
    /// [`SimMode::Sampled`]; instruction counts are always exact).
    pub metrics: SimMetrics,
    /// Compilation statistics.
    pub compile: CompileStats,
    /// `true` when the simulator's final memory checksum matched the
    /// source's reference checksum. The simulator is the run's only
    /// executor of the compiled code; on a mismatch the reference
    /// interpreter replays the compiled program to tell the two causes
    /// apart: a miscompile fails the run with
    /// [`PipelineError::ChecksumMismatch`], so a `false` here means the
    /// compiled code is right and the simulator diverged (a simulator
    /// bug). Sampled runs derive their checksum from an exact
    /// functional pass, so the check holds there too.
    pub checksum_ok: bool,
    /// Sampling summary when the run was sampled; `None` for exact runs.
    pub sample: Option<SampleStats>,
}

/// Compiles `source` under `opts` and runs it on the timing simulator.
///
/// # Errors
///
/// Propagates [`PipelineError`]s from compilation and simulation.
#[deprecated(
    since = "0.3.0",
    note = "use `Experiment::builder()…build()?.run()` instead"
)]
pub fn compile_and_run(
    source: &Program,
    opts: &CompileOptions,
) -> Result<RunResult, PipelineError> {
    Prepared::new(
        &SourceProgram::new(source.clone()),
        opts,
        SimEngine::default(),
        SimMode::Exact,
        false,
    )?
    .run(&MachineSpec::custom(opts.sim))
}

/// A program compiled once, ready to simulate on any machine.
///
/// No compile pass reads the simulated machine ([`CompileOptions::sim`]),
/// so one compile serves every machine a configuration is measured on:
/// [`crate::Session::prepare`] compiles, and each [`Prepared::run`]
/// simulates one machine and checks that run's checksum against the
/// source's reference. The reference is obtained before the compile,
/// so a `Prepared` always holds it and no simulated run goes unchecked.
#[derive(Debug)]
pub struct Prepared {
    compiled: Compiled,
    reference: u64,
    engine: SimEngine,
    mode: SimMode,
    trace: bool,
}

impl Prepared {
    /// The source's memoized reference, then the phase order without
    /// its interpreter check: the simulator's checksum in each
    /// [`Prepared::run`] stands in for that check.
    pub(crate) fn new(
        source: &SourceProgram,
        opts: &CompileOptions,
        engine: SimEngine,
        mode: SimMode,
        trace: bool,
    ) -> Result<Prepared, PipelineError> {
        let _trace = trace.then(bsched_trace::enable_scope);
        let reference = source.reference()?;
        let compiled = compile_unchecked(source.program(), opts)?;
        Ok(Prepared {
            compiled,
            reference,
            engine,
            mode,
            trace,
        })
    }

    /// Simulates the compiled program on `machine`, comparing the
    /// simulator's memory checksum with the source's reference. The
    /// compiled program is interpreted only when the two differ, to
    /// tell a miscompile (an error) from a simulator divergence
    /// ([`RunResult::checksum_ok`] `== false`).
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineError`]s from simulation, and
    /// [`PipelineError::ChecksumMismatch`] on a miscompile.
    pub fn run(&self, machine: &MachineSpec) -> Result<RunResult, PipelineError> {
        let _trace = self.trace.then(bsched_trace::enable_scope);
        let program = &self.compiled.program;
        let sim = Simulator::for_machine(program, machine)
            .with_engine(self.engine)
            .with_mode(self.mode)
            .run()?;
        let checksum_ok = classify_checksum(sim.checksum, self.reference, || {
            Ok(Interp::new(program).run()?.checksum)
        })?;
        Ok(RunResult {
            metrics: sim.metrics,
            compile: self.compiled.stats.clone(),
            checksum_ok,
            sample: sim.sample,
        })
    }
}

/// Compares the simulator's checksum to the reference. Only on a
/// mismatch does it run `interpret` (the compiled program on the
/// reference interpreter) to classify the failure: the compiled code
/// disagreeing with the reference is a miscompile and an error;
/// otherwise the simulator diverged and the result is `Ok(false)`.
fn classify_checksum(
    sim: u64,
    reference: u64,
    interpret: impl FnOnce() -> Result<u64, PipelineError>,
) -> Result<bool, PipelineError> {
    if sim == reference {
        return Ok(true);
    }
    if interpret()? != reference {
        return Err(PipelineError::ChecksumMismatch {
            stage: "full pipeline",
        });
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use bsched_core::SchedulerKind;
    use bsched_workloads::lang::ast::{Expr, Index};
    use bsched_workloads::lang::{ArrayInit, Kernel};

    fn run_one(p: &Program, opts: CompileOptions) -> RunResult {
        Experiment::builder()
            .program("test", p.clone())
            .compile_options(opts)
            .build()
            .unwrap()
            .run()
            .unwrap()
    }

    fn stream_kernel(n: i64) -> Program {
        let mut k = Kernel::new("stream");
        let a = k.array("a", n as u64, ArrayInit::Random(1));
        let b = k.array("b", n as u64, ArrayInit::Random(2));
        let c = k.array("c", n as u64, ArrayInit::Zero);
        let i = k.int_var("i");
        let body = vec![k.store(
            c,
            Index::of(i),
            Expr::load(a, Index::of(i)) * Expr::Float(3.0) + Expr::load(b, Index::of(i)),
        )];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(n), body));
        k.lower()
    }

    #[test]
    fn balanced_beats_traditional_on_streaming_loads() {
        let p = stream_kernel(2048); // 16 KB arrays: spills out of L1
        let bs = run_one(&p, CompileOptions::new(SchedulerKind::Balanced));
        let ts = run_one(&p, CompileOptions::new(SchedulerKind::Traditional));
        assert!(bs.checksum_ok && ts.checksum_ok);
        assert!(
            bs.metrics.load_interlock <= ts.metrics.load_interlock,
            "balanced scheduling must not increase load interlocks: {} vs {}",
            bs.metrics.load_interlock,
            ts.metrics.load_interlock
        );
    }

    #[test]
    fn unrolling_reduces_cycles() {
        let p = stream_kernel(1024);
        let base = run_one(&p, CompileOptions::new(SchedulerKind::Balanced));
        let lu4 = run_one(&p, CompileOptions::new(SchedulerKind::Balanced).with_unroll(4));
        assert!(
            lu4.metrics.cycles < base.metrics.cycles,
            "LU4 must speed up a streaming loop: {} vs {}",
            lu4.metrics.cycles,
            base.metrics.cycles
        );
        assert!(lu4.metrics.insts.total() < base.metrics.insts.total());
    }

    #[test]
    fn locality_runs_and_stays_correct() {
        let p = stream_kernel(512);
        let la = run_one(&p, CompileOptions::new(SchedulerKind::Balanced).with_locality());
        assert!(la.checksum_ok);
        assert!(la.compile.locality.hits_marked > 0);
    }

    fn is_miscompile<T>(r: Result<T, PipelineError>) -> bool {
        matches!(r, Err(PipelineError::ChecksumMismatch { stage }) if stage == "full pipeline")
    }

    #[test]
    fn checksum_classification() {
        let never = || panic!("matching checksums need no replay");
        assert!(classify_checksum(7, 7, never).unwrap());
        // The compiled code reproduces the reference: the simulator diverged.
        assert!(!classify_checksum(8, 7, || Ok(7)).unwrap());
        // The compiled code does not: a miscompile.
        assert!(is_miscompile(classify_checksum(8, 7, || Ok(8))));
        // A replay that fails (runaway loop, wild store) is an error.
        let runaway = bsched_ir::ExecError::OutOfFuel { fuel: 1 };
        let failed = classify_checksum(8, 7, || Err(PipelineError::Exec(runaway)));
        assert!(matches!(failed, Err(PipelineError::Exec(_))));
    }

    /// One compile serves every machine only because no pass reads
    /// `opts.sim`: the compiled program and its statistics must not
    /// depend on the machine the options name.
    #[test]
    fn compilation_never_reads_the_machine() {
        let machines = ["alpha21164", "wide4", "blocking21164", "simple1993"];
        let arms = [
            SchedulerKind::Traditional,
            SchedulerKind::Balanced,
            SchedulerKind::Exact,
        ];
        for arm in arms {
            let compiled: Vec<(String, String)> = machines
                .iter()
                .map(|name| {
                    let c = Experiment::builder()
                        .kernel("TRFD")
                        .compile_options(
                            CompileOptions::new(arm)
                                .with_unroll(4)
                                .with_sim(name.parse::<MachineSpec>().unwrap().config()),
                        )
                        .build()
                        .unwrap()
                        .compile()
                        .unwrap();
                    (c.program.to_string(), format!("{:?}", c.stats))
                })
                .collect();
            for (name, c) in machines.iter().zip(&compiled).skip(1) {
                assert!(c.0 == compiled[0].0, "{arm:?}: {name} changed the program");
                assert_eq!(c.1, compiled[0].1, "{arm:?}: {name} changed the stats");
            }
        }
    }

    #[test]
    fn wrong_reference_is_a_miscompile_on_both_paths() {
        let p = stream_kernel(64);
        let truth = Interp::new(&p).run().unwrap().checksum;
        let session = |reference: u64| {
            Experiment::builder()
                .program("lying", SourceProgram::with_reference(p.clone(), reference))
                .scheduler(SchedulerKind::Balanced)
                .build()
                .unwrap()
        };
        let wrong = session(truth ^ 1);
        assert!(is_miscompile(wrong.run()));
        assert!(is_miscompile(wrong.compile()));
        let right = session(truth);
        assert!(right.run().unwrap().checksum_ok);
        assert!(right.compile().is_ok());
    }
}
