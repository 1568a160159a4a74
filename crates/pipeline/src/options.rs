//! Compilation options: the experiment axes of the paper.

use bsched_core::{SchedulerKind, TieBreak, WeightConfig};
use bsched_sim::SimConfig;

/// The fields of [`CompileOptions`] that the scheduler-independent
/// front end reads (predicate → cleanup → locality → unroll → cleanup):
/// compiles with equal front options of one source share a front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrontOptions {
    /// Predication of simple conditionals.
    pub predicate: bool,
    /// Locality analysis.
    pub locality: bool,
    /// Loop-unrolling factor.
    pub unroll: Option<u32>,
    /// Override for the unrolled-body instruction budget.
    pub unroll_budget: Option<usize>,
}

/// One point in the paper's experiment space.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Which load-weight policy schedules the code.
    pub scheduler: SchedulerKind,
    /// Loop-unrolling factor (`None` = no unrolling; the paper uses 4
    /// and 8).
    pub unroll: Option<u32>,
    /// Profile-guided trace scheduling.
    pub trace: bool,
    /// Locality analysis (peel/unroll/mark + selective scheduling).
    pub locality: bool,
    /// Predication of simple conditionals (the Multiflow compiler always
    /// does this; exposed for ablations).
    pub predicate: bool,
    /// Cap on balanced load weights (paper: 50).
    pub weight_cap: u32,
    /// Tie-break heuristic order (paper §4.2; ablations may change it).
    pub tie_break: TieBreak,
    /// Override for the unrolled-body instruction budget (`None` = the
    /// paper's 64-at-4 / 128-at-8 limits).
    pub unroll_budget: Option<usize>,
    /// Use *selective* balanced weights under locality analysis (paper
    /// §3.3). Disabling isolates the transformation benefit from the
    /// scheduling benefit (the `selective` ablation).
    pub selective: bool,
    /// Compute balanced weights with the retained naive reference
    /// implementation instead of the bitset DAG-analysis kernel. The
    /// results are identical; only the compile cost differs. Used by the
    /// perf-trajectory benches to measure before/after in one binary.
    pub reference_weights: bool,
    /// Per-region node budget for the [`SchedulerKind::Exact`]
    /// branch-and-bound search. Deterministic and metrics-relevant (a
    /// different budget can emit a different schedule), so it is part
    /// of the harness cache key; ignored by the heuristic policies.
    pub exact_budget: u64,
    /// Simulator configuration.
    pub sim: SimConfig,
}

impl CompileOptions {
    /// Baseline options for a scheduler: no ILP optimizations.
    #[must_use]
    pub fn new(scheduler: SchedulerKind) -> Self {
        CompileOptions {
            scheduler,
            unroll: None,
            trace: false,
            locality: false,
            predicate: true,
            weight_cap: bsched_ir::opcode::latency::MAX_LOAD,
            tie_break: TieBreak::Standard,
            unroll_budget: None,
            selective: true,
            reference_weights: false,
            exact_budget: bsched_core::DEFAULT_EXACT_BUDGET,
            sim: SimConfig::default(),
        }
    }

    /// Enables unrolling by `factor`.
    #[must_use]
    pub fn with_unroll(mut self, factor: u32) -> Self {
        self.unroll = Some(factor);
        self
    }

    /// Enables trace scheduling.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Enables locality analysis.
    #[must_use]
    pub fn with_locality(mut self) -> Self {
        self.locality = true;
        self
    }

    /// Disables predication (ablation only).
    #[must_use]
    pub fn without_predication(mut self) -> Self {
        self.predicate = false;
        self
    }

    /// Overrides the balanced weight cap (ablation only).
    #[must_use]
    pub fn with_weight_cap(mut self, cap: u32) -> Self {
        self.weight_cap = cap;
        self
    }

    /// Overrides the simulator configuration.
    #[must_use]
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Overrides the tie-break heuristic order (ablation only).
    #[must_use]
    pub fn with_tie_break(mut self, tie_break: TieBreak) -> Self {
        self.tie_break = tie_break;
        self
    }

    /// Overrides the unrolled-body instruction budget (ablation only).
    #[must_use]
    pub fn with_unroll_budget(mut self, budget: usize) -> Self {
        self.unroll_budget = Some(budget);
        self
    }

    /// Disables selective scheduling under locality analysis (ablation
    /// only): the locality transformations still run, but every load is
    /// balanced as if unclassified.
    #[must_use]
    pub fn without_selective(mut self) -> Self {
        self.selective = false;
        self
    }

    /// Routes balanced-weight computation through the naive reference
    /// implementation (benching only; identical results).
    #[must_use]
    pub fn with_reference_weights(mut self) -> Self {
        self.reference_weights = true;
        self
    }

    /// Overrides the exact-search node budget (exact scheduler only).
    #[must_use]
    pub fn with_exact_budget(mut self, budget: u64) -> Self {
        self.exact_budget = budget;
        self
    }

    /// The front-end part of these options: what decides the program
    /// the scheduler starts from.
    #[must_use]
    pub fn front(&self) -> FrontOptions {
        FrontOptions {
            predicate: self.predicate,
            locality: self.locality,
            unroll: self.unroll,
            unroll_budget: self.unroll_budget,
        }
    }

    /// The weight policy the scheduler actually runs with: under locality
    /// analysis, balanced scheduling becomes *selective* (hits keep the
    /// optimistic weight, §3.3). Traditional scheduling has no locality
    /// counterpart (§5.4 footnote 3) and stays traditional. The exact
    /// arm always searches under the plain balanced weight model — it
    /// is the optimality bound the heuristics are measured against.
    #[must_use]
    pub fn weight_config(&self) -> WeightConfig {
        let kind = match (self.scheduler, self.locality && self.selective) {
            (SchedulerKind::Balanced, true) => SchedulerKind::SelectiveBalanced,
            (k, _) => k,
        };
        WeightConfig::new(kind)
            .with_cap(self.weight_cap)
            .with_reference(self.reference_weights)
            .with_exact_budget(self.exact_budget)
    }

    /// A short label like `BS+LU4+TrS+LA` used in tables.
    #[must_use]
    pub fn label(&self) -> String {
        let mut s = String::from(match self.scheduler {
            SchedulerKind::Traditional => "TS",
            SchedulerKind::Exact => "EX",
            _ => "BS",
        });
        if let Some(f) = self.unroll {
            s.push_str(&format!("+LU{f}"));
        }
        if self.trace {
            s.push_str("+TrS");
        }
        if self.locality {
            s.push_str("+LA");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        let o = CompileOptions::new(SchedulerKind::Balanced);
        assert_eq!(o.label(), "BS");
        assert_eq!(
            o.with_unroll(4).with_trace().with_locality().label(),
            "BS+LU4+TrS+LA"
        );
        assert_eq!(
            CompileOptions::new(SchedulerKind::Traditional)
                .with_unroll(8)
                .label(),
            "TS+LU8"
        );
    }

    #[test]
    fn locality_promotes_balanced_to_selective() {
        let o = CompileOptions::new(SchedulerKind::Balanced).with_locality();
        assert_eq!(o.weight_config().kind, SchedulerKind::SelectiveBalanced);
        let t = CompileOptions::new(SchedulerKind::Traditional).with_locality();
        assert_eq!(t.weight_config().kind, SchedulerKind::Traditional);
        let plain = CompileOptions::new(SchedulerKind::Balanced);
        assert_eq!(plain.weight_config().kind, SchedulerKind::Balanced);
    }
}
