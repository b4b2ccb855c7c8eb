//! The `reverify` workload: CI-mode re-verification of a design suite
//! after single-site edits, against a persistent artifact store.
//!
//! Set-up verifies the healthy suite cold into a fresh store, flushes
//! it and reopens it, which runs journal recovery. The timed phase runs
//! whole rounds over the edit pool: every single-site mutant of every
//! suite design from `aqed_tsys::enumerate_mutants`, once each, in an
//! order the seed sets. Each edit starts from a fresh copy of the set-up
//! store, opened (recovered) outside the timing, as every change in a CI
//! queue starts from the last full run, and composes its designs in a
//! fresh copy of the expression pool the mutants were built in: cone
//! keys depend on the pool's history, so a pool shared across edits
//! would make an edit's reuse depend on the edits before it. Applying
//! the edit, re-verifying the whole suite against the store with warm
//! start on, and flushing the store is one operation. Its cost is then
//! the same whatever the seed, the order or the number of rounds the
//! machine manages.
//!
//! Outside the timed loop, every edited design is verified again cold
//! and without a store, and each warm verdict must equal the cold one.

use crate::expected::{reverify_cases, Case, Verdict};
use crate::layers::LayerAcc;
use crate::pipeline::{self, catalog_case};
use crate::stats::{median, ms, peak_rss_mb, percentile, reset_peak_rss, Rng};
use crate::{RunConfig, RunResult};
use aqed_core::{ArtifactStore, JOURNAL_FILE, SNAPSHOT_FILE};
use aqed_designs::BugCase;
use aqed_expr::ExprPool;
use aqed_hls::Lca;
use aqed_obs::json::Json;
use aqed_sat::Solver;
use aqed_tsys::{enumerate_mutants, Mutator};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-up is repeated this many times and its median reported.
const SETUP_REPEATS: usize = 3;

/// One suite design with its candidate edits.
struct Member {
    case: Case,
    bug_case: BugCase,
    /// The pool the design and every mutant were built in; each
    /// composition runs in a fresh copy of it.
    pool: ExprPool,
    lca: Lca,
    mutants: Vec<Lca>,
}

/// An edit: which member, and which of its mutants.
type Edit = (usize, usize);

/// Each obligation's verdict, per suite member, after one edit.
type SuiteVerdicts = Vec<Vec<(String, Option<Verdict>)>>;

fn members() -> Vec<Member> {
    reverify_cases()
        .into_iter()
        .map(|case| {
            let bug_case = catalog_case(&case);
            let mut pool = ExprPool::new();
            let lca = pipeline::build(&case, &bug_case, &mut pool);
            let mut mutants = Vec::new();
            for mutator in [
                Mutator::OffByOneConstant,
                Mutator::OperandSwap,
                Mutator::DroppedLatchUpdate,
            ] {
                for m in enumerate_mutants(&lca.ts, &mut pool, mutator) {
                    mutants.push(Lca {
                        ts: m.ts,
                        ..lca.clone()
                    });
                }
            }
            Member {
                case,
                bug_case,
                pool,
                lca,
                mutants,
            }
        })
        .collect()
}

/// Footprint of the store on disk: journal plus snapshot bytes.
fn disk_bytes(store: &ArtifactStore) -> f64 {
    let stats = store.stats_json();
    let field = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    field("journal_bytes") + field("snapshot_bytes")
}

/// Copies the store files of `from` into a fresh `to`.
fn copy_store(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for f in [JOURNAL_FILE, SNAPSHOT_FILE] {
        if from.join(f).exists() {
            std::fs::copy(from.join(f), to.join(f))?;
        }
    }
    Ok(())
}

/// Set-up: verify the suite cold into a store at `dir`, flush, and
/// reopen it. Returns the reopened store.
fn set_up(members: &[Member], dir: &Path, res: &mut RunResult) -> Result<ArtifactStore, String> {
    let io = |e: std::io::Error| format!("artifact store at {}: {e}", dir.display());
    let _ = std::fs::remove_dir_all(dir);
    let store = Arc::new(ArtifactStore::open(dir).map_err(io)?);
    for m in members {
        let mut pool = m.pool.clone();
        let composed = pipeline::compose(&m.bug_case, &m.lca, &mut pool);
        let report =
            pipeline::run_obligations::<Solver>(&composed, &pool, m.case.bound, Some(&store));
        res.tally(pipeline::check(&m.case, &report, &composed, &pool));
    }
    store.flush().map_err(io)?;
    drop(store);
    ArtifactStore::open(dir).map_err(io)
}

/// Applies `edit` and re-verifies the whole suite against `store`,
/// traced into `acc` when given. Returns the latency, each member's
/// verdicts and whether every witness replayed.
fn apply(
    members: &[Member],
    edit: Edit,
    store: &Arc<ArtifactStore>,
    mut acc: Option<&mut LayerAcc>,
) -> (f64, SuiteVerdicts, bool) {
    let mut pools: Vec<ExprPool> = members.iter().map(|m| m.pool.clone()).collect();
    let start = Instant::now();
    let mut systems = Vec::with_capacity(members.len());
    for (i, (m, pool)) in members.iter().zip(&mut pools).enumerate() {
        let lca = if i == edit.0 {
            &m.mutants[edit.1]
        } else {
            &m.lca
        };
        let t = Instant::now();
        let composed = pipeline::compose(&m.bug_case, lca, pool);
        let report = match acc.as_deref_mut() {
            Some(acc) => {
                acc.add("core.compose_ms", ms(t.elapsed()));
                pipeline::run_obligations_traced(acc, &composed, pool, m.case.bound, Some(store))
            }
            None => pipeline::run_obligations::<Solver>(&composed, pool, m.case.bound, Some(store)),
        };
        systems.push((composed, report));
    }
    let t = Instant::now();
    let flushed = store.flush().is_ok();
    if let Some(acc) = acc.as_deref_mut() {
        acc.add("artifact.flush_ms", ms(t.elapsed()));
    }
    let latency = ms(start.elapsed());
    let t = Instant::now();
    let replayed = flushed
        && pools
            .iter()
            .zip(&systems)
            .all(|(pool, (composed, report))| pipeline::witnesses_replay(report, composed, pool));
    if let Some(acc) = acc {
        acc.add("tsys.replay_ms", ms(t.elapsed()));
        acc.end_op();
    }
    let verdicts = systems.iter().map(|(_, r)| pipeline::verdicts(r)).collect();
    (latency, verdicts, replayed)
}

/// The cold, store-less verdicts of `edit`'s edited design.
fn cold_verdicts(members: &[Member], edit: Edit) -> Vec<(String, Option<Verdict>)> {
    let m = &members[edit.0];
    let mut pool = m.pool.clone();
    let composed = pipeline::compose(&m.bug_case, &m.mutants[edit.1], &mut pool);
    let report = pipeline::run_obligations::<Solver>(&composed, &pool, m.case.bound, None);
    pipeline::verdicts(&report)
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when the store directory cannot be used.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let members = members();
    let edits: Vec<Edit> = members
        .iter()
        .enumerate()
        .flat_map(|(i, m)| (0..m.mutants.len()).map(move |j| (i, j)))
        .collect();
    let root: PathBuf = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(".perfbench_tmp")
        .join(format!("reverify-{}", std::process::id()));
    let result = run_in(&members, &edits, &root, cfg);
    let _ = std::fs::remove_dir_all(&root);
    if let Some(parent) = root.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    result
}

fn run_in(
    members: &[Member],
    edits: &[Edit],
    root: &Path,
    cfg: &RunConfig,
) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let base = root.join("base");
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        drop(set_up(members, &base, &mut res)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    res.metrics.push(("setup_s", median(&setup)));

    let mut rng = Rng::new(cfg.seed, 0);
    let mut acc = LayerAcc::default();
    let mut latencies = Vec::new();
    let mut per_edit: BTreeMap<Edit, Vec<f64>> = BTreeMap::new();
    let mut opens = Vec::new();
    let mut applied: BTreeMap<Edit, Vec<SuiteVerdicts>> = BTreeMap::new();
    let mut order: Vec<Edit> = Vec::new();
    let work = root.join("work");
    let io = |e: std::io::Error| format!("artifact store at {}: {e}", work.display());
    reset_peak_rss();
    let start = Instant::now();
    for round in 0.. {
        // Traced runs repeat each untraced round's edits traced, so the
        // two halves of a pair do the same work.
        let traced = cfg.trace && round % 2 == 1;
        if !traced {
            if start.elapsed() >= cfg.seconds {
                break;
            }
            order = edits.to_vec();
            rng.shuffle(&mut order);
        }
        for (k, &edit) in order.iter().enumerate() {
            copy_store(&base, &work).map_err(io)?;
            let t = Instant::now();
            let store = Arc::new(ArtifactStore::open(&work).map_err(io)?);
            opens.push(ms(t.elapsed()));
            let (hits0, misses0) = (store.outcome_hits(), store.outcome_misses());
            let (cones0, bytes0) = (store.cone_hits(), disk_bytes(&store));
            let (latency, verdicts, replayed) = if traced {
                apply(members, edit, &store, Some(&mut acc))
            } else {
                apply(members, edit, &store, None)
            };
            res.tally(replayed);
            if traced {
                let hits = store.outcome_hits() - hits0;
                acc.lookups(hits, hits + store.outcome_misses() - misses0);
                acc.add("artifact.cone_hits", (store.cone_hits() - cones0) as f64);
                acc.add("artifact.journal_bytes", disk_bytes(&store) - bytes0);
                acc.overhead(latencies[latencies.len() - order.len() + k], latency);
            } else {
                latencies.push(latency);
                per_edit.entry(edit).or_default().push(latency);
            }
            applied.entry(edit).or_default().push(verdicts);
        }
    }
    res.metrics.push(("peak_rss_mb", peak_rss_mb()));

    // The known answers: unedited members keep their table verdicts,
    // and each edited member's warm verdicts equal a cold, store-less
    // run of the same edited design.
    for (&edit, runs) in &applied {
        let cold = cold_verdicts(members, edit);
        for verdicts in runs {
            for (i, (m, got)) in members.iter().zip(verdicts).enumerate() {
                res.tally(if i == edit.0 {
                    *got == cold && got.iter().all(|(_, v)| v.is_some())
                } else {
                    m.case.matches(got)
                });
            }
        }
    }
    res.samples.push(("operations", latencies.len() as u64));
    res.samples
        .push(("percentile_samples", per_edit.len() as u64));
    if cfg.trace {
        res.metrics.extend(acc.finish());
        res.metrics.push(("artifact.open_ms", median(&opens)));
    } else {
        // Every round applies every edit once, so one round is the sum
        // of the per-edit means, and percentiles over those means have
        // the same 112 samples whatever the seed or the round count. The
        // median interpolates between the middle two: about half the
        // edits reuse every cone and the rest re-solve, so a nearest-rank
        // p50 would flip between the two groups.
        let means: Vec<f64> = per_edit
            .values()
            .map(|l| l.iter().sum::<f64>() / l.len() as f64)
            .collect();
        res.metrics
            .push(("wall_s", means.iter().sum::<f64>() / 1e3));
        res.metrics.push(("op_p50_ms", median(&means)));
        res.metrics.push(("op_p90_ms", percentile(&means, 0.9)));
    }
    Ok(res)
}
