//! A timing [`SatBackend`] around the CDCL [`Solver`].
//!
//! The obligation scheduler builds its backends with `B::default()` on
//! its own worker threads, so the wrapper cannot hand its timings back
//! through a value; it adds them to process-wide counters that the
//! benchmark reads with [`take`] after each traced call into the
//! scheduler. The wrapper forwards every trait method, the defaulted
//! ones included: a missed override would fall back to the trait default
//! and silently turn preprocessing, budgets or warm start off.

use aqed_sat::{ArmedBudget, Lit, SatBackend, SolveResult, Solver, SolverStats, StopReason, Var};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// Statistics only; nothing else is published through them, so relaxed
// ordering suffices. The scheduler's scope join orders the workers'
// updates before `take`.
static ADD_NS: AtomicU64 = AtomicU64::new(0);
static ADD_CALLS: AtomicU64 = AtomicU64::new(0);
static SOLVE_NS: AtomicU64 = AtomicU64::new(0);
static SOLVE_CALLS: AtomicU64 = AtomicU64::new(0);
static LEARNT_NS: AtomicU64 = AtomicU64::new(0);

/// Time spent inside the wrapped solver since the last [`take`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatTimes {
    /// Nanoseconds in `new_var`, `add_*` and `freeze_var`.
    pub add_ns: u64,
    /// Calls to `new_var`, `add_*` and `freeze_var`.
    pub add_calls: u64,
    /// Nanoseconds in `solve_under` (preprocessing included).
    pub solve_ns: u64,
    /// Calls to `solve_under`.
    pub solve_calls: u64,
    /// Nanoseconds exporting and importing warm-start learnt clauses.
    pub learnt_ns: u64,
}

impl SatTimes {
    /// Every nanosecond spent inside the wrapper's timed calls.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.add_ns + self.solve_ns + self.learnt_ns
    }
}

/// Returns the counters accumulated since the last call and resets them.
pub fn take() -> SatTimes {
    SatTimes {
        add_ns: ADD_NS.swap(0, Ordering::Relaxed),
        add_calls: ADD_CALLS.swap(0, Ordering::Relaxed),
        solve_ns: SOLVE_NS.swap(0, Ordering::Relaxed),
        solve_calls: SOLVE_CALLS.swap(0, Ordering::Relaxed),
        learnt_ns: LEARNT_NS.swap(0, Ordering::Relaxed),
    }
}

fn timed<R>(ns: &AtomicU64, calls: Option<&AtomicU64>, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    let spent = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    ns.fetch_add(spent, Ordering::Relaxed);
    if let Some(c) = calls {
        c.fetch_add(1, Ordering::Relaxed);
    }
    r
}

fn add<R>(f: impl FnOnce() -> R) -> R {
    timed(&ADD_NS, Some(&ADD_CALLS), f)
}

/// The CDCL solver with every clause-insertion and solve call timed.
#[derive(Debug, Default)]
pub struct TimedSolver {
    inner: Solver,
}

impl SatBackend for TimedSolver {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn new_var(&mut self) -> Var {
        add(|| self.inner.new_var())
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        add(|| SatBackend::add_clause(&mut self.inner, lits))
    }

    fn add_binary(&mut self, a: Lit, b: Lit) -> bool {
        add(|| SatBackend::add_binary(&mut self.inner, a, b))
    }

    fn add_ternary(&mut self, a: Lit, b: Lit, c: Lit) -> bool {
        add(|| SatBackend::add_ternary(&mut self.inner, a, b, c))
    }

    fn solve_under(&mut self, assumptions: &[Lit]) -> SolveResult {
        timed(&SOLVE_NS, Some(&SOLVE_CALLS), || {
            self.inner.solve_under(assumptions)
        })
    }

    fn value(&self, l: Lit) -> Option<bool> {
        SatBackend::value(&self.inner, l)
    }

    fn stats(&self) -> SolverStats {
        SatBackend::stats(&self.inner)
    }

    fn num_vars(&self) -> usize {
        SatBackend::num_vars(&self.inner)
    }

    fn num_clauses(&self) -> usize {
        SatBackend::num_clauses(&self.inner)
    }

    fn set_conflict_budget(&mut self, budget: Option<u64>) {
        SatBackend::set_conflict_budget(&mut self.inner, budget);
    }

    fn set_budget(&mut self, budget: ArmedBudget) {
        SatBackend::set_budget(&mut self.inner, budget);
    }

    fn stop_reason(&self) -> Option<StopReason> {
        SatBackend::stop_reason(&self.inner)
    }

    fn set_preprocessing(&mut self, enabled: bool) {
        SatBackend::set_preprocessing(&mut self.inner, enabled);
    }

    fn freeze_var(&mut self, v: Var) {
        add(|| SatBackend::freeze_var(&mut self.inner, v));
    }

    fn set_escalation_level(&mut self, level: u32) {
        SatBackend::set_escalation_level(&mut self.inner, level);
    }

    fn set_metrics_scope(&mut self, scope: &str) {
        SatBackend::set_metrics_scope(&mut self.inner, scope);
    }

    fn export_learnts(&self, max_len: usize, max_count: usize) -> Vec<Vec<Lit>> {
        timed(&LEARNT_NS, None, || {
            SatBackend::export_learnts(&self.inner, max_len, max_count)
        })
    }

    fn import_learnts(&mut self, clauses: &[Vec<Lit>]) {
        timed(&LEARNT_NS, None, || {
            SatBackend::import_learnts(&mut self.inner, clauses);
        });
    }
}
