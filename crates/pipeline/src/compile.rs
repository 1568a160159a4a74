//! The compilation pipeline.

use crate::options::CompileOptions;
use crate::source::SourceProgram;
use bsched_core::{schedule_function_audited, schedule_function_stats, ExactStats, ScheduleAudit};
use bsched_ir::{ExecError, Interp, Program, VerifyError};
use bsched_opt::{
    apply_locality, copy_propagate, dead_code_elim, local_cse, merge_straight_chains,
    predicate_function, trace_schedule, unroll_loop, EdgeProfile, LocalityOptions, LocalityStats,
    TraceOptions, TraceStats, UnrollLimits,
};
use bsched_regalloc::{allocate, AllocStats};
use bsched_util::FastHashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Pipeline failures.
#[derive(Debug, Clone)]
pub enum PipelineError {
    /// The IR verifier rejected the program (before or after a pass).
    Verify(VerifyError),
    /// The reference interpreter or profiler failed.
    Exec(ExecError),
    /// The compiled program's observable memory differs from the
    /// reference — a miscompilation.
    ChecksumMismatch {
        /// Stage at which the divergence was detected.
        stage: &'static str,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Verify(e) => write!(f, "{e}"),
            PipelineError::Exec(e) => write!(f, "execution failed: {e}"),
            PipelineError::ChecksumMismatch { stage } => {
                write!(f, "miscompilation detected after {stage}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<VerifyError> for PipelineError {
    fn from(e: VerifyError) -> Self {
        PipelineError::Verify(e)
    }
}

impl From<ExecError> for PipelineError {
    fn from(e: ExecError) -> Self {
        PipelineError::Exec(e)
    }
}

/// Statistics from one compilation.
#[derive(Debug, Clone, Default)]
pub struct CompileStats {
    /// Branches removed by predication.
    pub predicated: usize,
    /// Loops unrolled by the generic unroller.
    pub unrolled_loops: usize,
    /// Locality-analysis statistics.
    pub locality: LocalityStats,
    /// Trace-scheduling statistics.
    pub trace: TraceStats,
    /// Register-allocation statistics.
    pub alloc: AllocStats,
    /// Instructions removed by dead-code elimination.
    pub dce_removed: usize,
    /// Static instruction count of the final code.
    pub static_insts: usize,
    /// Exact-search statistics (regions searched, optima proven, budget
    /// fallbacks, nodes explored). All zeros unless the exact scheduler
    /// arm ran.
    pub exact: ExactStats,
}

/// A compiled program plus its statistics.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The compiled program (physical registers, scheduled, allocated).
    pub program: Program,
    /// Compilation statistics.
    pub stats: CompileStats,
}

/// Runs the full phase order on (a clone of) `source`.
///
/// # Errors
///
/// Returns a [`PipelineError`] if verification fails at any point, the
/// profiler cannot execute the program, or — the strongest guarantee —
/// the compiled program's observable memory image differs from the
/// original program's.
#[deprecated(
    since = "0.3.0",
    note = "use `Experiment::builder()…build()?.compile()` instead"
)]
pub fn compile(source: &Program, opts: &CompileOptions) -> Result<Compiled, PipelineError> {
    compile_impl(&SourceProgram::new(source.clone()), opts)
}

/// The compile behind [`compile`] and [`crate::Session::compile`]: the
/// phase order on a front end of its own, then a run of the compiled
/// program on the reference interpreter, whose checksum must equal the
/// source's (memoized) reference. Compiling without simulating leaves
/// the interpreter as the only executor that can check the compiled
/// code; [`crate::Session::run`] uses the simulator's checksum instead.
pub(crate) fn compile_impl(
    source: &SourceProgram,
    opts: &CompileOptions,
) -> Result<Compiled, PipelineError> {
    Ok(compile_with(source, opts, own_front, true, false)?.0)
}

/// [`compile_impl`] that also returns the basic-block scheduling audit
/// (pre-schedule regions, weights, emitted orders) for the verifier.
pub(crate) fn compile_audited_impl(
    source: &SourceProgram,
    opts: &CompileOptions,
) -> Result<(Compiled, ScheduleAudit), PipelineError> {
    let (compiled, audit) = compile_with(source, opts, own_front, true, true)?;
    Ok((compiled, audit.expect("audited compile records an audit")))
}

/// A front end computed for one compile alone.
pub(crate) fn own_front(
    source: &SourceProgram,
    opts: &CompileOptions,
) -> Result<Arc<FrontEnd>, PipelineError> {
    FrontEnd::new(source, opts).map(Arc::new)
}

/// Runs one pass under a `pipeline.pass` span recording before/after
/// static instruction counts. With tracing off this is exactly a call
/// to `f` — no clock read, no counting, no allocation.
fn traced_pass<R>(
    name: &'static str,
    p: &mut Program,
    f: impl FnOnce(&mut Program) -> R,
) -> R {
    if !bsched_trace::enabled() {
        return f(p);
    }
    let before = p.main().inst_count() as u64;
    let span = bsched_trace::span(bsched_trace::points::PIPELINE_PASS)
        .label_with(|| name.to_string())
        .arg("before", before);
    let result = f(p);
    span.finish(&[("after", p.main().inst_count() as u64)]);
    result
}

/// The one phase order: the source's reference, then `front` (which
/// either runs [`FrontEnd::new`] or hands out a front end shared with
/// other compiles of the same source), then [`back_end`], all under one
/// `pipeline.compile` span. With `check` set, the compiled program is
/// run on the reference interpreter and must reproduce the reference;
/// with `audited` set, the scheduling audit is returned too.
pub(crate) fn compile_with(
    source: &SourceProgram,
    opts: &CompileOptions,
    front: impl FnOnce(&SourceProgram, &CompileOptions) -> Result<Arc<FrontEnd>, PipelineError>,
    check: bool,
    audited: bool,
) -> Result<(Compiled, Option<ScheduleAudit>), PipelineError> {
    let reference = source.reference()?;
    let program = source.program();
    let mut compile_span = bsched_trace::span(bsched_trace::points::PIPELINE_COMPILE)
        .label_with(|| program.name().to_string());
    if compile_span.is_live() {
        compile_span = compile_span.arg("before", program.main().inst_count() as u64);
    }
    let front = front(source, opts)?;
    let (compiled, audit) = back_end(&front, opts, audited)?;
    if check && Interp::new(&compiled.program).run()?.checksum != reference {
        return Err(PipelineError::ChecksumMismatch {
            stage: "full pipeline",
        });
    }
    compile_span.finish(&[("after", compiled.stats.static_insts as u64)]);
    Ok((compiled, audit))
}

/// The scheduler-independent front end of a compile: the source after
/// predication, cleanup, locality analysis, unrolling and cleanup
/// again, verified, with the statistics of those passes. It depends
/// only on the source and [`CompileOptions::front`], so every compile
/// of a source with equal front options can start from one front end
/// (the harness shares them within a batch). The edge profile that
/// trace scheduling reads is part of it too, collected by the first
/// compile that asks for it.
#[derive(Debug)]
pub struct FrontEnd {
    program: Program,
    stats: CompileStats,
    profile: OnceLock<Result<EdgeProfile, PipelineError>>,
}

impl FrontEnd {
    /// Runs the front-end passes on a copy of `source` under
    /// `opts.front()`; no other field of `opts` is read.
    ///
    /// # Errors
    ///
    /// The source's reference error when it fails to verify or to run,
    /// and [`PipelineError::Verify`] when the passes leave invalid IR.
    pub fn new(source: &SourceProgram, opts: &CompileOptions) -> Result<FrontEnd, PipelineError> {
        // The passes assume verified IR; the reference verifies the
        // source once per handle.
        source.reference()?;
        let front = opts.front();
        let mut p = source.program().clone();
        let mut stats = CompileStats::default();

        // 1. Predication.
        if front.predicate {
            stats.predicated =
                traced_pass("predicate", &mut p, |p| predicate_function(p.main_mut()));
        }

        // 1b. Local CSE before the loop transforms, so the unrolling size
        // limits judge bodies the way Multiflow's optimizer would have
        // left them (repeated address chains and loads deduplicated).
        traced_pass("cleanup_pre", &mut p, |p| {
            local_cse(p.main_mut());
            copy_propagate(p.main_mut());
            stats.dce_removed += dead_code_elim(p.main_mut());
        });

        // 2. Locality analysis (peels/unrolls/marks loops with reuse).
        let mut consumed: FastHashSet<usize> = FastHashSet::default();
        if front.locality {
            let lopts = LocalityOptions {
                factor: front.unroll,
                max_body_insts: 128,
            };
            stats.locality =
                traced_pass("locality", &mut p, |p| apply_locality(p.main_mut(), &lopts));
            consumed.extend(stats.locality.loops_processed.iter().copied());
        }

        // 3. Generic unrolling of the remaining innermost loops. When the
        // requested factor busts the size budget, fall back to smaller
        // factors under the same budget — the Multiflow behaviour behind
        // the paper's swm256 footnote ("the 64 instruction limit on
        // unrolling by 4 prevented swm256 from being fully unrolled; the
        // higher limit with an unrolling factor of 8 allowed more
        // unrolling").
        if let Some(factor) = front.unroll {
            let budget = front
                .unroll_budget
                .unwrap_or(UnrollLimits::for_factor(factor).max_body_insts);
            traced_pass("unroll", &mut p, |p| {
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
                            stats.unrolled_loops += 1;
                            break;
                        }
                        f /= 2;
                    }
                }
            });
        }

        // 4. Cleanup (unrolled copies re-expose common subexpressions).
        traced_pass("cleanup_post", &mut p, |p| {
            local_cse(p.main_mut());
            copy_propagate(p.main_mut());
            stats.dce_removed += dead_code_elim(p.main_mut());
            merge_straight_chains(p.main_mut());
        });
        bsched_ir::verify_program(&p)?;
        Ok(FrontEnd {
            program: p,
            stats,
            profile: OnceLock::new(),
        })
    }

    /// The program the back end starts from.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The front-end passes' statistics: predication, locality,
    /// unrolling and dead-code counts; every other field is zero.
    #[must_use]
    pub fn stats(&self) -> &CompileStats {
        &self.stats
    }

    /// The edge profile of [`FrontEnd::program`], collected on first use.
    fn profile(&self) -> Result<&EdgeProfile, PipelineError> {
        self.profile
            .get_or_init(|| Ok(EdgeProfile::collect(&self.program)?))
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// The back end on a copy of `front`: trace scheduling (when
/// `opts.trace`), basic-block scheduling, register allocation and a
/// final verification. With `audited` set, the scheduler records its
/// audit.
fn back_end(
    front: &FrontEnd,
    opts: &CompileOptions,
    audited: bool,
) -> Result<(Compiled, Option<ScheduleAudit>), PipelineError> {
    let mut p = front.program.clone();
    let mut stats = front.stats.clone();

    // 5. Trace scheduling, guided by a profile of the transformed code.
    if opts.trace {
        let profile = front.profile()?;
        let topts = TraceOptions {
            weights: opts.weight_config(),
            speculation: true,
        };
        traced_pass("trace_schedule", &mut p, |p| {
            stats.trace = trace_schedule(p.main_mut(), profile, &topts);
            stats.dce_removed += dead_code_elim(p.main_mut());
        });
        bsched_ir::verify_program(&p)?;
    }

    // 6. Basic-block scheduling.
    let mut audit = None;
    traced_pass("schedule", &mut p, |p| {
        if audited {
            let a = schedule_function_audited(p.main_mut(), &opts.weight_config(), opts.tie_break);
            stats.exact = a.exact;
            audit = Some(a);
        } else {
            stats.exact =
                schedule_function_stats(p.main_mut(), &opts.weight_config(), opts.tie_break);
        }
    });

    // 7. Register allocation.
    stats.alloc = traced_pass("regalloc", &mut p, allocate);
    bsched_ir::verify_program(&p)?;
    stats.static_insts = p.main().inst_count();
    Ok((Compiled { program: p, stats }, audit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::CompileOptions;
    use bsched_core::SchedulerKind;
    use bsched_workloads::lang::ast::{CmpOp, Expr, Index, Stmt};
    use bsched_workloads::lang::{ArrayInit, Kernel};

    fn sample() -> Program {
        let mut k = Kernel::new("sample");
        let a = k.array("a", 128, ArrayInit::Random(3));
        let b = k.array("b", 128, ArrayInit::Random(4));
        let c = k.array("c", 128, ArrayInit::Zero);
        let i = k.int_var("i");
        let s = k.float_var("s");
        let body = vec![
            k.store(
                c,
                Index::of(i),
                Expr::load(a, Index::of(i)) * Expr::load(b, Index::of(i))
                    + Expr::load(b, Index::constant(0)),
            ),
            Stmt::If {
                cond: Expr::cmp(CmpOp::Lt, Expr::load(a, Index::of(i)), Expr::Float(0.5)),
                then_: vec![k.assign(s, Expr::Var(s) + Expr::load(a, Index::of(i)))],
                else_: vec![k.assign(s, Expr::Var(s) - Expr::Float(1.0))],
            },
            k.store(c, Index::of(i), Expr::Var(s) + Expr::load(c, Index::of(i))),
        ];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(100), body));
        k.lower()
    }

    #[test]
    fn every_configuration_compiles_and_matches_reference() {
        let p = SourceProgram::from(sample());
        for scheduler in [SchedulerKind::Traditional, SchedulerKind::Balanced] {
            for unroll in [None, Some(4), Some(8)] {
                for trace in [false, true] {
                    for locality in [false, true] {
                        let mut o = CompileOptions::new(scheduler);
                        o.unroll = unroll;
                        o.trace = trace;
                        o.locality = locality;
                        let r = compile_impl(&p, &o);
                        assert!(
                            r.is_ok(),
                            "config {} failed: {:?}",
                            o.label(),
                            r.err().map(|e| e.to_string())
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn predication_reported_and_size_limit_respected() {
        let p = SourceProgram::from(sample());
        let o = CompileOptions::new(SchedulerKind::Balanced).with_unroll(4);
        let c = compile_impl(&p, &o).unwrap();
        assert!(c.stats.predicated >= 1, "the if is predicated");
        // The predicated body exceeds 64/4 instructions, so the full
        // factor is refused and the unroller falls back to factor 2 —
        // the paper's swm256 partial-unrolling behaviour (§5.1 fn. 2).
        assert_eq!(c.stats.unrolled_loops, 1);
        assert!(c.stats.dce_removed > 0);
    }

    #[test]
    fn unrolling_reports_work() {
        // A lean streaming loop unrolls at factor 4.
        let mut k = Kernel::new("lean");
        let a = k.array("a", 64, ArrayInit::Random(9));
        let i = k.int_var("i");
        let body = vec![k.store(
            a,
            Index::of(i),
            Expr::load(a, Index::of(i)) * Expr::Float(2.0),
        )];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(64), body));
        let p = SourceProgram::from(k.lower());
        let o = CompileOptions::new(SchedulerKind::Balanced).with_unroll(4);
        let c = compile_impl(&p, &o).unwrap();
        assert!(c.stats.unrolled_loops >= 1);
        assert!(c.stats.dce_removed > 0);
    }

    #[test]
    fn locality_consumes_loops_from_generic_unrolling() {
        let p = SourceProgram::from(sample());
        let o = CompileOptions::new(SchedulerKind::Balanced)
            .with_unroll(4)
            .with_locality();
        let c = compile_impl(&p, &o).unwrap();
        assert!(!c.stats.locality.loops_processed.is_empty());
        assert_eq!(
            c.stats.unrolled_loops, 0,
            "the only loop was consumed by locality analysis"
        );
        assert!(c.stats.locality.hits_marked > 0);
    }
}
