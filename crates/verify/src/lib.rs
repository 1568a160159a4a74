//! `bsched-verify` — the conformance subsystem: proofs that the numbers
//! in every table came from legal schedules and a sound machine.
//!
//! Four pillars, one per module:
//!
//! * [`legality`] — the schedule-legality validator. Rebuilds each
//!   region's dependence DAG from a [`bsched_core::ScheduleAudit`] and
//!   proves the emitted order is a permutation that respects every
//!   dependence edge and the issue-latency floor.
//! * [`differential`] — the differential oracle. Replays optimized code
//!   through the reference interpreter against the unoptimized baseline,
//!   recomputes scheduler weights with both the bitset kernel and
//!   the retained naive implementation, and simulates the compiled
//!   program under both engines (interpreting and block-compiled),
//!   which must agree bit for bit.
//! * [`metamorphic`] — invariants every simulated run must satisfy:
//!   cycle accounting, cache-stats conservation, and all-hit
//!   balanced/traditional closeness.
//! * [`fuzz`] — a seeded pipeline fuzzer that generates random
//!   loop-language kernels, drives them through the full stack under a
//!   fuel budget, and shrinks failures to minimal reproducers.
//!
//! When verification is requested (`--verify` / `BSCHED_VERIFY=1`),
//! the harness (`bsched-harness`) runs [`audit_compile`] once per
//! executed compile key and [`CompileAudit::verify_cell`] on each of
//! its cells; violations fail the run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod differential;
pub mod fuzz;
pub mod legality;
pub mod metamorphic;

pub use differential::{
    check_checksum, check_checksum_with_fuel, check_engines, check_sampling, check_weights,
    sampling_rel_err, sampling_violations, DiffViolation, SAMPLING_CPI_MEAN_TOL, SAMPLING_CPI_TOL,
    SAMPLING_FLOOR_FRAC, SAMPLING_MISS_TOL, SAMPLING_STALL_TOL,
};
pub use fuzz::{fuzz, FuzzConfig, FuzzFailure, FuzzReport};
pub use legality::{
    assign_issue_cycles, check_issue_cycles, min_edge_latency, validate_region,
    validate_region_schedule, Violation,
};
pub use metamorphic::{
    allhit_config, check_allhit_closeness, check_metrics, stall_sum, MetaViolation,
};

use bsched_ir::Program;
use bsched_pipeline::{CompileOptions, Experiment, SourceProgram};
use bsched_sim::{SampleConfig, SimConfig, SimMetrics};

/// The verdict on one grid cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellVerification {
    /// Scheduling regions whose legality was proven.
    pub regions: usize,
    /// Every violation found, rendered for the report. Empty means the
    /// cell is verified.
    pub violations: Vec<String>,
}

impl CellVerification {
    /// True when no check failed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The per-compile-key half of the conformance suite, shared by every
/// machine the key is simulated on.
#[derive(Debug)]
pub struct CompileAudit {
    /// The audited compile's program; `None` when it failed.
    program: Option<Program>,
    regions: usize,
    violations: Vec<String>,
}

/// Audits one compile key: recompiles it with a schedule audit, proves
/// every region's schedule legal, cross-checks the weights against both
/// reference implementations, and replays optimized vs unoptimized code
/// through the interpreter. The machine in `options` is not read.
///
/// The recompile is standalone: it shares no front end or program with
/// the run it checks, so the oracle stays independent of the sharing.
/// `source` is the kernel's shared handle, so it reuses the memoized
/// reference checksum; [`differential::check_checksum`] still
/// interprets both programs itself, as the independent oracle.
#[must_use]
pub fn audit_compile(source: &SourceProgram, options: &CompileOptions) -> CompileAudit {
    let mut violations = Vec::new();
    let session = Experiment::builder()
        .program("cell", source.clone())
        .compile_options(*options)
        .build()
        .expect("program is supplied directly");
    match session.compile_audited() {
        Ok((compiled, audit)) => {
            for (ri, region) in audit.regions.iter().enumerate() {
                for v in legality::validate_region_schedule(region) {
                    violations.push(format!("region {ri}: {v}"));
                }
            }
            for v in differential::check_weights(&audit) {
                violations.push(v.to_string());
            }
            match differential::check_checksum(session.source(), &compiled.program) {
                Ok(vs) => violations.extend(vs.iter().map(ToString::to_string)),
                Err(e) => violations.push(format!("interpreter error: {e}")),
            }
            CompileAudit {
                program: Some(compiled.program),
                regions: audit.regions.len(),
                violations,
            }
        }
        Err(e) => {
            violations.push(format!("audited recompile failed: {e}"));
            CompileAudit {
                program: None,
                regions: 0,
                violations,
            }
        }
    }
}

impl CompileAudit {
    /// The per-cell half of the suite on `machine`: the audited program
    /// simulated under both engines, which must agree bit for bit, and
    /// the metamorphic invariants on `metrics` (the simulated run the
    /// caller already has). The verdict carries the key's violations
    /// first.
    #[must_use]
    pub fn verify_cell(&self, machine: SimConfig, metrics: &SimMetrics) -> CellVerification {
        let mut violations = self.violations.clone();
        if let Some(program) = &self.program {
            match differential::check_engines(program, machine) {
                Ok(vs) => violations.extend(vs.iter().map(ToString::to_string)),
                Err(e) => violations.push(format!("simulator error: {e}")),
            }
        }
        violations.extend(
            metamorphic::check_metrics(metrics)
                .iter()
                .map(ToString::to_string),
        );
        self.verdict(violations)
    }

    /// The per-cell half in sampled mode: the engine-bit-identity diff
    /// is replaced by the sampling diff ([`check_sampling`]) —
    /// exact-by-construction observables must match bit for bit,
    /// estimates must land within the committed tolerances.
    ///
    /// The metamorphic metric checks are deliberately *skipped*: they
    /// are exact-accounting identities (cycle accounting, cache
    /// conservation) that independently-scaled cluster estimates need
    /// not satisfy.
    #[must_use]
    pub fn verify_cell_sampled(&self, machine: SimConfig, sample: SampleConfig) -> CellVerification {
        let mut violations = self.violations.clone();
        if let Some(program) = &self.program {
            match differential::check_sampling(program, machine, sample) {
                Ok(vs) => violations.extend(vs.iter().map(ToString::to_string)),
                Err(e) => violations.push(format!("simulator error: {e}")),
            }
        }
        self.verdict(violations)
    }

    /// The verdict on one cell. Violations carry trace context: one
    /// event per message, so a `--trace-json` export pairs every
    /// failure with the pass spans and load-site attribution recorded
    /// around it.
    fn verdict(&self, violations: Vec<String>) -> CellVerification {
        if bsched_trace::enabled() {
            for v in &violations {
                bsched_trace::instant(
                    bsched_trace::points::VERIFY_VIOLATION,
                    v,
                    &[("regions", self.regions as u64)],
                );
            }
        }
        CellVerification {
            regions: self.regions,
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_core::SchedulerKind;
    use bsched_pipeline::resolve_kernel;

    #[test]
    fn a_real_cell_verifies_clean() {
        let source = SourceProgram::from(resolve_kernel("TRFD").unwrap());
        let options = CompileOptions::new(SchedulerKind::Balanced);
        let session = Experiment::builder()
            .program("TRFD", source.clone())
            .compile_options(options)
            .build()
            .unwrap();
        let run = session.run().unwrap();
        let v = audit_compile(&source, &options).verify_cell(options.sim, &run.metrics);
        assert!(v.regions > 0);
        assert!(v.is_clean(), "violations: {:#?}", v.violations);
    }

    #[test]
    fn a_real_cell_verifies_clean_under_sampling() {
        let source = SourceProgram::from(resolve_kernel("TRFD").unwrap());
        let options = CompileOptions::new(SchedulerKind::Balanced);
        let v = audit_compile(&source, &options)
            .verify_cell_sampled(options.sim, SampleConfig::default());
        assert!(v.regions > 0);
        assert!(v.is_clean(), "violations: {:#?}", v.violations);
    }

    #[test]
    fn corrupted_metrics_fail_the_cell() {
        let source = SourceProgram::from(resolve_kernel("TRFD").unwrap());
        let options = CompileOptions::new(SchedulerKind::Balanced);
        let session = Experiment::builder()
            .program("TRFD", source.clone())
            .compile_options(options)
            .build()
            .unwrap();
        let mut metrics = session.run().unwrap().metrics;
        metrics.cycles = 1; // below any plausible accounting floor
        let v = audit_compile(&source, &options).verify_cell(options.sim, &metrics);
        assert!(!v.is_clean());
    }
}
