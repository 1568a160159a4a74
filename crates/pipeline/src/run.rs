//! Compile-and-simulate entry point.

use crate::compile::{compile_unchecked, CompileStats, PipelineError};
use crate::options::CompileOptions;
use crate::source::SourceProgram;
use bsched_ir::{Interp, Program};
use bsched_sim::{SampleStats, SimEngine, SimMetrics, SimMode, Simulator};

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
    run_impl(
        &SourceProgram::new(source.clone()),
        opts,
        SimEngine::default(),
        SimMode::Exact,
    )
}

/// The implementation behind [`compile_and_run`] and
/// [`crate::Session::run`]: the source's memoized reference, the phase
/// order without its interpreter check, then the simulator, whose
/// checksum stands in for that check.
pub(crate) fn run_impl(
    source: &SourceProgram,
    opts: &CompileOptions,
    engine: SimEngine,
    mode: SimMode,
) -> Result<RunResult, PipelineError> {
    let reference = source.reference()?;
    let compiled = compile_unchecked(source.program(), opts)?;
    let machine = bsched_sim::MachineSpec::custom(opts.sim);
    let sim = Simulator::for_machine(&compiled.program, &machine)
        .with_engine(engine)
        .with_mode(mode)
        .run()?;
    let checksum_ok = classify_checksum(sim.checksum, reference, || {
        Ok(Interp::new(&compiled.program).run()?.checksum)
    })?;
    Ok(RunResult {
        metrics: sim.metrics,
        compile: compiled.stats,
        checksum_ok,
        sample: sim.sample,
    })
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
