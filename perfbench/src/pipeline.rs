//! One case verification, on the product path and traced layer by
//! layer, plus the checks every verification goes through.

use crate::expected::{Case, Verdict};
use crate::layers::LayerAcc;
use crate::stats::ms;
use crate::timed::{self, SatTimes, TimedSolver};
use aqed_bmc::{BmcOptions, BmcStats};
use aqed_core::{
    verify_obligations_governed, AqedHarness, ArtifactStore, Budget, CheckOutcome,
    ParallelVerifyReport, RunContext, ScheduleOptions,
};
use aqed_designs::BugCase;
use aqed_engine::{find_case, VerifyRequest};
use aqed_expr::ExprPool;
use aqed_hls::Lca;
use aqed_sat::SatBackend;
use aqed_tsys::TransitionSystem;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The catalog entry behind a table case.
///
/// # Panics
///
/// Panics when the table names a case the catalog lacks: the table is
/// out of date.
#[must_use]
pub fn catalog_case(case: &Case) -> BugCase {
    find_case(case.id).unwrap_or_else(|e| panic!("known-answer table: {e}"))
}

/// The engine request for `case`: one job, the CDCL backend, default
/// options otherwise.
#[must_use]
pub fn request(case: &Case) -> VerifyRequest {
    let mut req = VerifyRequest::new(case.id);
    req.healthy = case.healthy;
    req.bound = Some(case.bound);
    req.jobs = 1;
    req
}

/// Builds the design variant `case` names.
pub fn build(case: &Case, bug_case: &BugCase, pool: &mut ExprPool) -> Lca {
    if case.healthy {
        (bug_case.build_healthy)(pool)
    } else {
        (bug_case.build_buggy)(pool)
    }
}

/// Composes `lca` with the A-QED monitors `bug_case` configures, as the
/// engine does.
pub fn compose(bug_case: &BugCase, lca: &Lca, pool: &mut ExprPool) -> TransitionSystem {
    let mut harness = AqedHarness::new(lca);
    if let Some(fc) = &bug_case.fc {
        harness = harness.with_fc(fc.clone());
    }
    if let Some(rb) = &bug_case.rb {
        harness = harness.with_rb(*rb);
    }
    harness.build(pool).0
}

/// Runs the obligation scheduler on `composed` with the options the
/// engine derives from [`request`], against `store` when given.
pub fn run_obligations<B: SatBackend + Default>(
    composed: &TransitionSystem,
    pool: &ExprPool,
    bound: usize,
    store: Option<&Arc<ArtifactStore>>,
) -> ParallelVerifyReport {
    let options = BmcOptions::default()
        .with_max_bound(bound)
        .with_budget(Budget::unlimited())
        .with_preprocess(true)
        .with_coi(true);
    let sched = ScheduleOptions::default()
        .with_jobs(1)
        .with_fail_fast(false)
        .with_warm_start(true);
    let ctx = match store {
        Some(s) => RunContext::with_artifacts(Arc::clone(s)),
        None => RunContext::default(),
    };
    verify_obligations_governed::<B>(composed, pool, &options, &sched, &ctx)
}

/// Each obligation's name and definitive verdict, in bad order.
#[must_use]
pub fn verdicts(report: &ParallelVerifyReport) -> Vec<(String, Option<Verdict>)> {
    report
        .obligations
        .iter()
        .map(|r| (r.obligation.bad_name.clone(), Verdict::of(&r.outcome)))
        .collect()
}

/// Replays every obligation's bug witness on the simulator; true when
/// all of them fire their bad property at the reported depth.
#[must_use]
pub fn witnesses_replay(
    report: &ParallelVerifyReport,
    composed: &TransitionSystem,
    pool: &ExprPool,
) -> bool {
    report.obligations.iter().all(|r| match &r.outcome {
        CheckOutcome::Bug { counterexample, .. } => counterexample.replay(composed, pool),
        _ => true,
    })
}

/// Whether `report` matches the known-answer table for `case` and every
/// witness in it replays.
#[must_use]
pub fn check(
    case: &Case,
    report: &ParallelVerifyReport,
    composed: &TransitionSystem,
    pool: &ExprPool,
) -> bool {
    case.matches(&verdicts(report)) && witnesses_replay(report, composed, pool)
}

/// Whether two runs of one design agree on every verdict and on the
/// solver counters that fix the search path exactly.
#[must_use]
pub fn same_run(a: &ParallelVerifyReport, b: &ParallelVerifyReport) -> bool {
    verdicts(a) == verdicts(b)
        && a.aggregate.solver_calls == b.aggregate.solver_calls
        && a.aggregate.solver.conflicts == b.aggregate.solver.conflicts
        && a.aggregate.solver.propagations == b.aggregate.solver.propagations
        && a.aggregate.solver.decisions == b.aggregate.solver.decisions
}

/// Adds one scheduler call's solver and store layers to `acc`: the
/// wrapper's timings, the report's public statistics and the
/// scheduler's self time (`verify` minus the time inside the wrapper).
pub fn record_verify(acc: &mut LayerAcc, agg: &BmcStats, times: SatTimes, verify: Duration) {
    let s = &agg.solver;
    acc.add("sat.add_ms", times.add_ns as f64 / 1e6);
    acc.add("sat.add_calls", times.add_calls as f64);
    acc.add("sat.solve_ms", times.solve_ns as f64 / 1e6);
    acc.add("sat.solve_calls", times.solve_calls as f64);
    acc.add("sat.preprocess_ms", s.preprocess_micros as f64 / 1e3);
    acc.add("sat.eliminated_vars", s.eliminated_vars as f64);
    acc.add("sat.subsumed", s.subsumed as f64);
    acc.add("sat.conflicts", s.conflicts as f64);
    acc.add("sat.decisions", s.decisions as f64);
    acc.add("sat.propagations", s.propagations as f64);
    acc.add("sat.restarts", s.restarts as f64);
    acc.add("sat.learnts", s.learnts as f64);
    acc.add("sat.deleted", s.deleted as f64);
    acc.add("sat.gc_runs", s.gc_runs as f64);
    acc.peak("sat.arena_peak_bytes", s.arena_bytes as f64);
    acc.add("bmc.clauses", agg.clauses as f64);
    acc.add("bmc.vars", agg.variables as f64);
    acc.add("tsys.coi_latches_dropped", agg.coi_latches_dropped as f64);
    acc.add("artifact.verdicts_reused", agg.verdicts_reused as f64);
    acc.add("artifact.learnt_imported", s.learnt_imported as f64);
    let inside = Duration::from_nanos(times.total_ns());
    acc.add("core.verify_self_ms", ms(verify.saturating_sub(inside)));
}

/// [`run_obligations`] through the timing wrapper, with its layers added
/// to `acc`.
pub fn run_obligations_traced(
    acc: &mut LayerAcc,
    composed: &TransitionSystem,
    pool: &ExprPool,
    bound: usize,
    store: Option<&Arc<ArtifactStore>>,
) -> ParallelVerifyReport {
    timed::take();
    let t = Instant::now();
    let report = run_obligations::<TimedSolver>(composed, pool, bound, store);
    let verify = t.elapsed();
    record_verify(acc, &report.aggregate, timed::take(), verify);
    report
}

/// One traced, store-less verification of `case`: the engine's steps
/// made one by one, each timed from outside.
#[derive(Debug)]
pub struct TracedRun {
    /// The scheduler's report.
    pub report: ParallelVerifyReport,
    /// Wall time of the steps the engine takes (witness replay, a check
    /// of the benchmark's own, excluded).
    pub wall: Duration,
    /// Whether every bug witness replayed.
    pub replayed: bool,
}

/// Verifies `case` traced, adding one operation's layers to `acc`.
pub fn verify_traced(case: &Case, bug_case: &BugCase, acc: &mut LayerAcc) -> TracedRun {
    let start = Instant::now();
    let mut pool = ExprPool::new();
    let t = Instant::now();
    let lca = build(case, bug_case, &mut pool);
    acc.add("designs.build_ms", ms(t.elapsed()));
    let t = Instant::now();
    let composed = compose(bug_case, &lca, &mut pool);
    acc.add("core.compose_ms", ms(t.elapsed()));
    let report = run_obligations_traced(acc, &composed, &pool, case.bound, None);
    let wall = start.elapsed();
    let t = Instant::now();
    let replayed = witnesses_replay(&report, &composed, &pool);
    acc.add("tsys.replay_ms", ms(t.elapsed()));
    acc.end_op();
    TracedRun {
        report,
        wall,
        replayed,
    }
}
