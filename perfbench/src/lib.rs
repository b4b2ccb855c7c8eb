//! Pinned end-to-end and per-layer benchmark of the A-QED stack.
//!
//! Four workloads, each a different user of the stack:
//!
//! * `search` — cold `aqed verify` runs where CDCL search dominates;
//! * `encode` — cold runs of small HLS cases where design build, monitor
//!   composition, unrolling and preprocessing dominate;
//! * `serve-warm` — warm repeats against an in-process `aqed-serve`
//!   daemon, answered entirely from its artifact store;
//! * `reverify` — CI-mode re-verification of a design suite after
//!   single-site edits, against a persistent artifact store.
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics on the
//! product path. A traced run (`--trace 1`) times each layer from the
//! outside, through its public functions, and pairs every traced
//! operation with an untraced one to report the tracing overhead.
//! Every run checks its verdicts against a hand-written table
//! ([`expected`]) and replays every bug witness on the simulator.

pub mod expected;
pub mod layers;
pub mod pipeline;
pub mod reverify;
pub mod search;
pub mod serve;
pub mod stats;
pub mod timed;

use aqed_obs::json::Json;
use std::time::Duration;

/// The end-to-end metrics every untraced run reports, with their units.
/// The names and units match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
];

/// The per-layer metrics every traced run reports, with their units.
/// The names and units match `per_layer` in `BENCHMARK.json`. Times and
/// counts are means per operation (a case, a request or an edit); a
/// layer that a workload never enters reads 0. Peak RSS is here rather
/// than end to end because allocator arenas make it bimodal under the
/// threaded `serve-warm` load, too unsteady to gate on.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("designs.build_ms", "ms"),
    ("core.compose_ms", "ms"),
    ("core.verify_self_ms", "ms"),
    ("sat.add_ms", "ms"),
    ("sat.add_calls", "count"),
    ("sat.solve_ms", "ms"),
    ("sat.solve_calls", "count"),
    ("sat.preprocess_ms", "ms"),
    ("sat.eliminated_vars", "count"),
    ("sat.subsumed", "count"),
    ("sat.search_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.props_per_s", "1/s"),
    ("sat.conflicts_per_s", "1/s"),
    ("sat.restarts", "count"),
    ("sat.learnts", "count"),
    ("sat.deleted", "count"),
    ("sat.gc_runs", "count"),
    ("sat.arena_peak_bytes", "bytes"),
    ("bmc.clauses", "count"),
    ("bmc.vars", "count"),
    ("tsys.coi_latches_dropped", "count"),
    ("tsys.replay_ms", "ms"),
    ("artifact.hit_ratio", "ratio"),
    ("artifact.open_ms", "ms"),
    ("artifact.flush_ms", "ms"),
    ("artifact.journal_bytes", "bytes"),
    ("artifact.cone_hits", "count"),
    ("artifact.verdicts_reused", "count"),
    ("artifact.learnt_imported", "count"),
    ("serve.ping_p50_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.engine_p50_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("trace_overhead_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The workload names, as `--workload` takes them.
pub const WORKLOADS: &[&str] = &["search", "encode", "serve-warm", "reverify"];

/// What one run of one workload is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seeds every generated input (case order, request order, edits).
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// The result of one run: the operation tally and every metric of the
/// run's kind, plus how many samples stand behind each percentile.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations that failed: a wrong verdict, a non-replaying witness,
    /// an inconclusive result, a rejected request or a warm miss.
    pub failed: u64,
    /// Metric name to value; units come from [`END_TO_END`] and
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts behind the reported percentiles and means.
    pub samples: Vec<(&'static str, u64)>,
}

impl RunResult {
    /// Records one checked operation.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The final result line: `correct`, `attempted`, `failed` and every
    /// metric of the run's kind with its unit.
    #[must_use]
    pub fn to_json(&self, trace: bool) -> Json {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (
                    name,
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::from(unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            (
                "correct",
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::num(self.attempted)),
            ("failed", Json::num(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a message for an unknown workload name or a failure to set
/// the workload up (bind, store directory).
pub fn run(workload: &str, cfg: &RunConfig) -> Result<RunResult, String> {
    match workload {
        "search" => Ok(search::run(&expected::search_cases(), cfg)),
        "encode" => Ok(search::run(&expected::encode_cases(), cfg)),
        "serve-warm" => serve::run(cfg),
        "reverify" => reverify::run(cfg),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
