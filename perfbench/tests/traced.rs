//! The traced run must measure the product path, not a different one:
//! the timing wrapper has to leave every verdict and solver counter
//! exactly as the untraced run has them.

use aqed_core::{ArtifactStore, ParallelVerifyReport};
use aqed_engine::Engine;
use aqed_expr::ExprPool;
use aqed_sat::Solver;
use perfbench::expected::{encode_cases, search_cases, Case};
use perfbench::layers::LayerAcc;
use perfbench::pipeline::{self, catalog_case};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The timing wrapper's counters are process-wide; tests that read them
/// take this lock so that parallel tests cannot reset them mid-run.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn layer(acc: &LayerAcc, name: &str) -> f64 {
    acc.finish()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| v)
}

fn assert_same(case: &Case, untraced: &ParallelVerifyReport, traced: &ParallelVerifyReport) {
    let (a, b) = (&untraced.aggregate, &traced.aggregate);
    assert!(
        pipeline::same_run(untraced, traced),
        "{}: runs differ",
        case.id
    );
    assert_eq!(
        a.solver.eliminated_vars, b.solver.eliminated_vars,
        "{}",
        case.id
    );
    assert_eq!(a.solver.subsumed, b.solver.subsumed, "{}", case.id);
    assert_eq!(a.solver.restarts, b.solver.restarts, "{}", case.id);
    assert_eq!(a.clauses, b.clauses, "{}", case.id);
}

fn check_case(case: &Case) {
    let _serial = serial();
    let untraced = Engine::new()
        .verify(&pipeline::request(case))
        .expect("catalogued");
    assert!(pipeline::check(
        case,
        &untraced.report,
        &untraced.composed,
        &untraced.pool
    ));
    let mut acc = LayerAcc::default();
    let traced = pipeline::verify_traced(case, &catalog_case(case), &mut acc);
    assert!(traced.replayed, "{}", case.id);
    assert!(
        case.matches(&pipeline::verdicts(&traced.report)),
        "{}",
        case.id
    );
    assert_same(case, &untraced.report, &traced.report);
    // Preprocessing stayed on, and the wrapper saw every solve call.
    assert!(
        traced.report.aggregate.solver.preprocess_micros > 0,
        "{}",
        case.id
    );
    assert_eq!(
        layer(&acc, "sat.solve_calls"),
        traced.report.aggregate.solver_calls as f64,
        "{}",
        case.id
    );
}

#[test]
fn traced_runs_reproduce_every_encode_case() {
    for case in &encode_cases() {
        check_case(case);
    }
}

#[test]
fn traced_run_reproduces_a_search_case() {
    let case = search_cases()
        .into_iter()
        .find(|c| c.id == "db_swap_without_drain_check")
        .expect("search case");
    check_case(&case);
}

/// Warm start through the wrapper: a store filled at a shallower bound
/// serves its clean prefix and learnt-clause pack to a deeper run, and
/// the wrapper imports exactly what the bare solver imports.
#[test]
fn traced_runs_keep_warm_start() {
    let _serial = serial();
    let case = encode_cases()[0];
    let bug_case = catalog_case(&case);
    let deeper = |traced: bool| {
        let store = Arc::new(ArtifactStore::new());
        let mut pool = ExprPool::new();
        let lca = pipeline::build(&case, &bug_case, &mut pool);
        let composed = pipeline::compose(&bug_case, &lca, &mut pool);
        let _ = pipeline::run_obligations::<Solver>(&composed, &pool, 8, Some(&store));
        if traced {
            let mut acc = LayerAcc::default();
            pipeline::run_obligations_traced(&mut acc, &composed, &pool, case.bound, Some(&store))
        } else {
            pipeline::run_obligations::<Solver>(&composed, &pool, case.bound, Some(&store))
        }
    };
    let (untraced, traced) = (deeper(false), deeper(true));
    assert_same(&case, &untraced, &traced);
    assert!(case.matches(&pipeline::verdicts(&traced)));
    assert!(
        untraced.aggregate.verdicts_reused > 0,
        "prefix reuse expected"
    );
    assert!(
        untraced.aggregate.solver.learnt_imported > 0,
        "pack import expected"
    );
    assert_eq!(
        untraced.aggregate.verdicts_reused,
        traced.aggregate.verdicts_reused
    );
    assert_eq!(
        untraced.aggregate.solver.learnt_imported,
        traced.aggregate.solver.learnt_imported
    );
}
