//! The front/back split of the phase order. A front end depends only on
//! the source and `CompileOptions::front`, so compiles may share one:
//! the front end must not read any scheduler axis, and a compile from a
//! shared front end must equal a standalone compile.

use bsched_pipeline::{
    resolve_kernel, standard_grid, CompileOptions, Experiment, FrontEnd, FrontOptions,
    SchedulerKind, SourceProgram, TieBreak,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Program text and statistics, as compared throughout.
fn text(program: &bsched_ir::Program, stats: &impl std::fmt::Debug) -> (String, String) {
    (program.to_string(), format!("{stats:?}"))
}

#[test]
fn front_end_never_reads_the_scheduler() {
    let fronts: Vec<CompileOptions> = standard_grid()
        .iter()
        .filter(|c| c.scheduler == SchedulerKind::Balanced)
        .map(|c| c.options())
        .collect();
    for kernel in ["TRFD", "ARC2D"] {
        let source = SourceProgram::from(resolve_kernel(kernel).unwrap());
        for front in &fronts {
            let want = FrontEnd::new(&source, front).unwrap();
            let want = text(want.program(), want.stats());
            for scheduler in [
                SchedulerKind::Traditional,
                SchedulerKind::Balanced,
                SchedulerKind::Exact,
            ] {
                for tie_break in [
                    TieBreak::Standard,
                    TieBreak::ExposedFirst,
                    TieBreak::ProgramOrder,
                ] {
                    for (cap, budget) in [(50, 100_000), (10, 1_000)] {
                        let mut opts = *front;
                        opts.scheduler = scheduler;
                        opts.tie_break = tie_break;
                        opts.weight_cap = cap;
                        opts.exact_budget = budget;
                        assert_eq!(opts.front(), front.front());
                        let got = FrontEnd::new(&source, &opts).unwrap();
                        assert!(
                            text(got.program(), got.stats()) == want,
                            "{kernel} {}: {scheduler:?}/{tie_break:?}/cap {cap}/budget {budget} \
                             changed the front end",
                            front.label()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn shared_front_compiles_equal_standalone_compiles() {
    for spec in bsched_workloads::all_kernels() {
        let source = SourceProgram::from(spec.program());
        let mut fronts: HashMap<FrontOptions, Arc<FrontEnd>> = HashMap::new();
        for cfg in standard_grid() {
            let session = Experiment::builder()
                .program(spec.name, source.clone())
                .compile_options(cfg.options())
                .build()
                .unwrap();
            let shared = session
                .prepare_with(|source, opts| {
                    let front = fronts.entry(opts.front()).or_insert_with(|| {
                        Arc::new(FrontEnd::new(source, opts).expect("front end"))
                    });
                    Ok(Arc::clone(front))
                })
                .unwrap();
            let standalone = session.prepare().unwrap();
            assert!(
                text(shared.program(), shared.stats())
                    == text(standalone.program(), standalone.stats()),
                "{}/{}: a shared front end changed the compile",
                spec.name,
                cfg.options().label()
            );
        }
        assert_eq!(fronts.len(), 6, "{}: the grid has 6 front ends", spec.name);
    }
}
