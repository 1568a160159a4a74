//! Shared source programs with a memoized reference result.

use crate::compile::PipelineError;
use bsched_ir::{Interp, Program};
use std::sync::{Arc, OnceLock};

/// A source program shared by every cell compiled from it, together
/// with its reference checksum.
///
/// The reference — the observable memory checksum of the unoptimized
/// program under the reference interpreter — depends only on the
/// program, not on the compile options or the machine, so it is
/// computed at most once per handle: lazily, by the first
/// [`reference`](Self::reference) call, and then shared by every clone.
/// Cloning is an `Arc` bump, so a grid hands one handle per kernel to
/// all of that kernel's cells.
#[derive(Debug, Clone)]
pub struct SourceProgram {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    program: Program,
    reference: OnceLock<Result<u64, PipelineError>>,
}

impl SourceProgram {
    /// Wraps a program; its reference is not computed yet.
    #[must_use]
    pub fn new(program: Program) -> Self {
        SourceProgram {
            inner: Arc::new(Inner {
                program,
                reference: OnceLock::new(),
            }),
        }
    }

    /// A handle whose reference is preset to `checksum` instead of
    /// interpreted — how the tests feign a miscompilation.
    #[cfg(test)]
    pub(crate) fn with_reference(program: Program, checksum: u64) -> Self {
        let source = SourceProgram::new(program);
        source
            .inner
            .reference
            .set(Ok(checksum))
            .expect("fresh handle");
        source
    }

    /// The source program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.inner.program
    }

    /// The reference checksum: the first call verifies the program and
    /// runs it on the reference interpreter; every later call, on any
    /// clone, returns the memoized outcome (errors included). Callers
    /// racing on the first call block until the one interpretation
    /// finishes.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Verify`] when the IR verifier rejects the
    /// program, [`PipelineError::Exec`] when the interpreter fails.
    pub fn reference(&self) -> Result<u64, PipelineError> {
        self.inner
            .reference
            .get_or_init(|| {
                bsched_ir::verify_program(&self.inner.program)?;
                Ok(Interp::new(&self.inner.program).run()?.checksum)
            })
            .clone()
    }

    /// Whether the reference interpretation has run (successfully or
    /// not). The harness counts these in its run report.
    #[must_use]
    pub fn reference_computed(&self) -> bool {
        self.inner.reference.get().is_some()
    }
}

impl From<Program> for SourceProgram {
    fn from(program: Program) -> Self {
        SourceProgram::new(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_workloads::lang::ast::{Expr, Index};
    use bsched_workloads::lang::{ArrayInit, Kernel};

    fn tiny() -> Program {
        let mut k = Kernel::new("tiny");
        let a = k.array("a", 16, ArrayInit::Ramp(0.0, 1.0));
        let i = k.int_var("i");
        let body = vec![k.store(
            a,
            Index::of(i),
            Expr::load(a, Index::of(i)) + Expr::Float(1.0),
        )];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(16), body));
        k.lower()
    }

    #[test]
    fn reference_is_lazy_and_shared_by_clones() {
        let p = tiny();
        let expected = Interp::new(&p).run().unwrap().checksum;
        let source = SourceProgram::from(p);
        let clone = source.clone();
        assert!(!source.reference_computed(), "nothing runs at construction");
        assert_eq!(clone.reference().unwrap(), expected);
        assert!(source.reference_computed(), "clones share the memo");
        assert_eq!(source.reference().unwrap(), expected);
    }
}
