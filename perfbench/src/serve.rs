//! The `serve-warm` workload: warm repeats against an in-process
//! `aqed-serve` daemon.
//!
//! Set-up starts a server with two workers and an in-memory store and
//! primes it with one cold request per case of the request set. The
//! timed phase is a closed loop of two client threads, each sending its
//! next request when the previous one is answered; the seed sets which
//! case each request names. Every answer must come from the store.

use crate::expected::{serve_cases, Case, Verdict};
use crate::layers::LayerAcc;
use crate::pipeline::{self, catalog_case};
use crate::stats::{median, ms, peak_rss_mb, percentile, reset_peak_rss, Rng};
use crate::{RunConfig, RunResult};
use aqed_expr::ExprPool;
use aqed_obs::json::Json;
use aqed_serve::{ping, submit, submit_with, ServeOptions, Server, SubmitOutcome};
use std::net::SocketAddr;
use std::time::Instant;

/// Set-up is repeated this many times and its median reported.
const SETUP_REPEATS: usize = 3;
/// Client threads (one process, at most `nproc` = 2 connections).
const CLIENTS: u64 = 2;
/// Round trips behind `serve.ping_p50_ms`.
const PINGS: usize = 100;

/// Each obligation's verdict from a report in its JSON form.
fn json_verdicts(report: &Json) -> Vec<(String, Option<Verdict>)> {
    let obligations = report.get("obligations").and_then(Json::as_arr);
    obligations
        .unwrap_or_default()
        .iter()
        .map(|o| {
            let name = o.get("bad_name").and_then(Json::as_str).unwrap_or_default();
            let outcome = o.get("outcome");
            let field = |k: &str| {
                outcome
                    .and_then(|v| v.get(k))
                    .and_then(Json::as_u64)
                    .and_then(|n| usize::try_from(n).ok())
            };
            let verdict = match outcome
                .and_then(|v| v.get("verdict"))
                .and_then(Json::as_str)
            {
                Some("bug") => field("depth").map(Verdict::Bug),
                Some("clean") => field("bound").map(Verdict::Clean),
                _ => None,
            };
            (name.to_string(), verdict)
        })
        .collect()
}

/// Whether a daemon answer is the table's, and (for `warm`) came
/// entirely from the store.
fn answer_ok(case: &Case, out: &SubmitOutcome, warm: bool) -> bool {
    let Some(report) = &out.report else {
        return false;
    };
    let hits = report.get("cache_hits").and_then(Json::as_u64);
    !out.rejected
        && out.exit_code == case.exit_code()
        && case.matches(&json_verdicts(report))
        && (!warm || hits == Some(case.expect.len() as u64))
}

fn stop(server: Server) {
    server.begin_shutdown();
    server.join();
}

/// Starts and primes a server; each priming answer is checked.
fn start_primed(cases: &[Case], res: &mut RunResult) -> Result<Server, String> {
    let server = Server::start(&ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    })
    .map_err(|e| format!("cannot start the server: {e}"))?;
    for case in cases {
        let ok = submit(server.addr(), &pipeline::request(case))
            .is_ok_and(|out| answer_ok(case, &out, false));
        res.tally(ok);
    }
    Ok(server)
}

/// One answered request as a client saw it.
struct Sample {
    latency_ms: f64,
    ok: bool,
    /// `(untraced latency, queue wait, engine runtime)` of a traced
    /// request, which follows an untraced one for the same case.
    traced: Option<(f64, f64, f64)>,
}

fn client(addr: SocketAddr, cases: &[Case], cfg: &RunConfig, stream: u64) -> Vec<Sample> {
    let mut rng = Rng::new(cfg.seed, stream);
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < cfg.seconds {
        let case = &cases[rng.below(cases.len())];
        let req = pipeline::request(case);
        let t = Instant::now();
        let out = submit(addr, &req);
        let latency_ms = ms(t.elapsed());
        let ok = out.is_ok_and(|o| answer_ok(case, &o, true));
        if !cfg.trace {
            samples.push(Sample {
                latency_ms,
                ok,
                traced: None,
            });
            continue;
        }
        let mut queue_wait = None;
        let t = Instant::now();
        let traced = submit_with(addr, &req, None, |event| {
            let args = event.get("args");
            if let Some(w) = args
                .and_then(|a| a.get("attribution"))
                .and_then(|a| a.get("phases_ms"))
                .and_then(|p| p.get("queue_wait"))
                .and_then(Json::as_f64)
            {
                queue_wait = Some(w);
            }
        });
        let traced_ms = ms(t.elapsed());
        let runtime = traced.as_ref().ok().and_then(|o| {
            o.report
                .as_ref()
                .and_then(|r| r.get("runtime_ms"))
                .and_then(Json::as_f64)
        });
        let traced_ok = traced.is_ok_and(|o| answer_ok(case, &o, true));
        samples.push(Sample {
            latency_ms: traced_ms,
            ok: ok && traced_ok && queue_wait.is_some() && runtime.is_some(),
            traced: Some((
                latency_ms,
                queue_wait.unwrap_or(0.0),
                runtime.unwrap_or(0.0),
            )),
        });
    }
    samples
}

/// Per-layer metrics measured beside the request loop: ping round trips
/// and the design build and composition the server repeats for every
/// request, timed over the request mix in this process.
fn side_layers(addr: SocketAddr, cases: &[Case], res: &mut RunResult) {
    let pings: Vec<f64> = (0..PINGS)
        .map(|_| {
            let t = Instant::now();
            res.tally(ping(addr));
            ms(t.elapsed())
        })
        .collect();
    res.metrics.push(("serve.ping_p50_ms", median(&pings)));
    let mut acc = LayerAcc::default();
    for case in cases {
        let bug_case = catalog_case(case);
        let mut pool = ExprPool::new();
        let t = Instant::now();
        let lca = pipeline::build(case, &bug_case, &mut pool);
        acc.add("designs.build_ms", ms(t.elapsed()));
        let t = Instant::now();
        let _ = pipeline::compose(&bug_case, &lca, &mut pool);
        acc.add("core.compose_ms", ms(t.elapsed()));
        acc.end_op();
    }
    res.metrics.extend(acc.finish());
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when the server cannot be started.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let cases = serve_cases();
    let mut res = RunResult::default();
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = server.take() {
            stop(old);
        }
        let t = Instant::now();
        server = Some(start_primed(&cases, &mut res)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("set-up ran at least once");
    res.metrics.push(("setup_s", median(&setup)));
    let addr = server.addr();
    let store = server.artifacts();
    let (hits0, misses0) = (store.outcome_hits(), store.outcome_misses());

    reset_peak_rss();
    let start = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=CLIENTS)
            .map(|stream| {
                let cases = &cases;
                s.spawn(move || client(addr, cases, cfg, stream))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    res.metrics.push(("peak_rss_mb", peak_rss_mb()));
    for sample in &samples {
        res.tally(sample.ok);
    }
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    res.samples.push(("operations", samples.len() as u64));
    res.samples
        .push(("percentile_samples", samples.len() as u64));

    if cfg.trace {
        let hits = store.outcome_hits() - hits0;
        let lookups = hits + store.outcome_misses() - misses0;
        let mut acc = LayerAcc::default();
        acc.lookups(hits, lookups);
        let mut waits = Vec::new();
        let mut engine = Vec::new();
        let mut overhead = Vec::new();
        for s in &samples {
            let (untraced, wait, runtime) = s.traced.expect("traced run");
            acc.overhead(untraced, s.latency_ms);
            acc.end_op();
            waits.push(wait);
            engine.push(runtime);
            overhead.push(s.latency_ms - runtime);
        }
        res.metrics.extend(acc.finish());
        res.metrics
            .push(("serve.queue_wait_p50_ms", median(&waits)));
        res.metrics.push(("serve.engine_p50_ms", median(&engine)));
        res.metrics
            .push(("serve.overhead_p50_ms", median(&overhead)));
        side_layers(addr, &cases, &mut res);
    } else {
        // One pass over the request set, at the throughput the closed
        // loop sustained.
        let pass = elapsed.as_secs_f64() * cases.len() as f64 / samples.len().max(1) as f64;
        res.metrics.push(("wall_s", pass));
        res.metrics.push(("op_p50_ms", median(&latencies)));
        res.metrics.push(("op_p90_ms", percentile(&latencies, 0.9)));
    }
    stop(server);
    Ok(res)
}
