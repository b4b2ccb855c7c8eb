//! The `search` and `encode` workloads: cold, store-less verification
//! of each case in turn, one job per case, as `aqed verify` runs it.
//!
//! The seed sets the order in which the cases are visited. A run keeps
//! visiting them until `--seconds` have passed and every case has been
//! verified at least once. Each case's latency is the mean of its
//! samples; `wall_s` is one pass over the case list (the sum of those
//! means) and the percentiles are taken over the per-case means, so the
//! sample set is the same whatever the seed. The mean rather than the
//! median: the host's speed drifts between a fast and a slow state
//! within a run, and a median flips between the two where a mean moves
//! smoothly with the time spent in each.

use crate::expected::Case;
use crate::layers::LayerAcc;
use crate::pipeline::{self, catalog_case};
use crate::stats::{median, ms, peak_rss_mb, percentile, reset_peak_rss, Rng};
use crate::{RunConfig, RunResult};
use aqed_designs::BugCase;
use aqed_engine::Engine;
use aqed_expr::ExprPool;
use std::time::Instant;

/// Set-up is repeated this many times and its median reported.
const SETUP_REPEATS: usize = 101;

/// Set-up: look every case up in the catalog, build and compose its
/// design, and check that its bad properties are the table's
/// obligations. Returns the catalog entries and the set-up time.
fn set_up(cases: &[Case], res: &mut RunResult) -> Vec<BugCase> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut catalog = Vec::new();
    for round in 0..SETUP_REPEATS {
        let t = Instant::now();
        catalog = cases.iter().map(catalog_case).collect();
        for (case, bug_case) in cases.iter().zip(&catalog) {
            let mut pool = ExprPool::new();
            let lca = pipeline::build(case, bug_case, &mut pool);
            let composed = pipeline::compose(bug_case, &lca, &mut pool);
            if round == 0 {
                let names = composed.bads().iter().map(|(n, _)| n.as_str());
                res.tally(names.eq(case.expect.iter().map(|(n, _)| *n)));
            }
        }
        times.push(t.elapsed().as_secs_f64());
    }
    res.metrics.push(("setup_s", median(&times)));
    catalog
}

/// Runs the workload over `cases`.
#[must_use]
pub fn run(cases: &[Case], cfg: &RunConfig) -> RunResult {
    let mut res = RunResult::default();
    let catalog = set_up(cases, &mut res);
    let mut order: Vec<usize> = (0..cases.len()).collect();
    Rng::new(cfg.seed, 0).shuffle(&mut order);
    let engine = Engine::new();
    let mut latency: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut layers: Vec<LayerAcc> = vec![LayerAcc::default(); cases.len()];
    reset_peak_rss();
    let start = Instant::now();
    for (visit, &i) in order.iter().cycle().enumerate() {
        if start.elapsed() >= cfg.seconds && latency.iter().all(|l| !l.is_empty()) {
            break;
        }
        let case = &cases[i];
        // Traced runs pair each untraced verification with a traced one,
        // alternating which goes first.
        let traced_first = cfg.trace && visit % 2 == 1;
        let traced = |acc: &mut LayerAcc, res: &mut RunResult| {
            let run = pipeline::verify_traced(case, &catalog[i], acc);
            res.tally(case.matches(&pipeline::verdicts(&run.report)) && run.replayed);
            run
        };
        let early = traced_first.then(|| traced(&mut layers[i], &mut res));
        let t = Instant::now();
        let out = engine
            .verify(&pipeline::request(case))
            .expect("table cases are catalogued");
        let elapsed = t.elapsed();
        latency[i].push(ms(elapsed));
        res.tally(pipeline::check(case, &out.report, &out.composed, &out.pool));
        if cfg.trace {
            let run = early.unwrap_or_else(|| traced(&mut layers[i], &mut res));
            res.tally(pipeline::same_run(&out.report, &run.report));
            layers[i].overhead(ms(elapsed), ms(run.wall));
        }
    }
    res.metrics.push(("peak_rss_mb", peak_rss_mb()));
    let per_case: Vec<f64> = latency
        .iter()
        .map(|l| l.iter().sum::<f64>() / l.len() as f64)
        .collect();
    let ops: usize = latency.iter().map(Vec::len).sum();
    res.samples.push(("operations", ops as u64));
    res.samples
        .push(("percentile_samples", per_case.len() as u64));
    if cfg.trace {
        res.metrics.extend(LayerAcc::mean_of(&layers).finish());
    } else {
        res.metrics
            .push(("wall_s", per_case.iter().sum::<f64>() / 1e3));
        res.metrics.push(("op_p50_ms", median(&per_case)));
        res.metrics.push(("op_p90_ms", percentile(&per_case, 0.9)));
    }
    res
}
