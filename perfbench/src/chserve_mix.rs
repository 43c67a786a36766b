//! `chserve_mix`: the characterization service under a closed loop.
//!
//! Each pass starts an in-process [`serve::CharacterizeService`] on
//! loopback with an empty memory cache and a fresh disk-cache
//! directory, and [`CLIENTS`] clients drive the run's
//! [`PASS_REQUESTS`]-request stream through it, each client sending its
//! next request only after the previous reply. The stream is seeded and
//! Zipf-skewed over `standard` / `proposed` / `nv_word_4` × 9 corners ×
//! 4 analysis kinds × a few overrides, plus a small share of `wer_tail`
//! requests. It names more distinct keys than the memory cache holds,
//! so hits (memory or disk), misses (simulation plus cache writes) and
//! LRU evictions served back from disk all occur in every pass.
//!
//! No recorded caller traffic exists in the repository, so the mix is
//! synthetic; `README.md` gives the reason for each of its parameters.
//!
//! An operation is one request. Every 200 body is checked against
//! `render_response` of a direct `NvWord::characterize` of the same
//! canonical request (or the direct tail estimate for `wer_tail`).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serve::{CharacterizeRequest, CharacterizeService, MetricsServer, ResultCache, ServiceOptions};

use crate::stats::{self, summarize};
use crate::{traced, Checks, Metrics, Outcome, JOBS};

/// Workload name.
pub const WORKLOAD: &str = "chserve_mix";

/// Per-layer name prefixes this workload does not measure. It runs no
/// paper table, no Monte-Carlo grid or surface, and no netlist flow.
/// The cells, sweep and per-width spice layers run only inside the
/// service, which exposes no timing of them. Its response body carries
/// four [`spice::SolverStats`] counters (Newton iterations,
/// factorizations, accepted and rejected steps), so the LTE
/// rejections, step halvings and source steps are not measured here.
pub const NOT_MEASURED: &[&str] = &[
    "table2_s",
    "table3_s",
    "family_s",
    "paper_max_rel_err",
    "mc_trials_per_s",
    "is_samples_per_s",
    "mtj.",
    "cells.",
    "sweep.",
    "netlist.",
    "place.",
    "merge.",
    "spice.lte_rejections",
    "spice.step_halvings",
    "spice.source_steps",
    "spice.host_us_per_newton.",
    "spice.unknowns.",
    "spice.csr_nnz.",
    "spice.lu_nnz.",
    "spice.fill_ratio.",
    "spice.session_build_s.",
    "spice.transient_s.",
];

/// Closed-loop clients.
pub const CLIENTS: usize = JOBS;

/// Requests per pass: every pass replays the run's whole stream.
pub const PASS_REQUESTS: usize = 1200;

/// In-memory cache entries of the service (smaller than the distinct
/// keys a pass touches).
pub const CACHE_CAPACITY: usize = 32;

/// Queue bound of the service; with [`CLIENTS`] requests in flight it
/// never sheds.
pub const QUEUE_CAPACITY: usize = 64;

/// Zipf exponent of the key popularity.
pub const ZIPF_S: f64 = 1.8;

/// Share of `wer_tail` requests in the stream.
pub const WER_TAIL_SHARE: f64 = 0.02;

/// Cell variants of the stream.
pub const VARIANTS: [&str; 3] = ["standard", "proposed", "nv_word_4"];

/// Analysis kinds of the stream (the circuit kinds; `wer_tail` rides
/// separately).
pub const ANALYSES: [&str; 4] = ["full", "read", "write", "leakage"];

/// Parameter overrides of the stream, as JSON object members.
pub const OVERRIDES: [&str; 4] = [
    "",
    r#""sizing.output_load_ff":8"#,
    r#""sizing.output_load_ff":12"#,
    r#""timing.write_pulse_ns":3"#,
];

/// Knob sets of the `wer_tail` requests.
pub const WER_TAIL_KNOBS: [&str; 3] = [
    r#"{"target_wer":1e-6,"samples":2000,"seed":1}"#,
    r#"{"target_wer":1e-9,"samples":2000,"seed":2}"#,
    r#"{"target_wer":1e-9,"samples":2000,"seed":3,"sigma_switching_current":0.06}"#,
];

/// Distinct circuit requests per variant: corners × override sets ×
/// analysis kinds.
pub const KEYS_PER_VARIANT: usize = 9 * OVERRIDES.len() * ANALYSES.len();

/// A uniform draw in `[0, 1)` from the counter-seeded stream
/// `(seed, salt, index)`.
fn uniform(seed: u64, salt: u64, index: usize) -> f64 {
    let bits = sweep::point_seed(seed ^ salt, index as u64) >> 11;
    bits as f64 / (1u64 << 53) as f64
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(seed: u64, salt: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (uniform(seed, salt, i) * (i + 1) as f64) as usize;
        order.swap(i, j.min(i));
    }
    order
}

/// The run's request stream: `len` bodies drawn from `seed`.
///
/// Key popularity follows a Zipf law over ranks. Ranks cycle through
/// [`VARIANTS`]; within a variant they walk the 9 corners, then the
/// override sets, then the analysis kinds, each in a seeded order. The
/// seed therefore changes which requests are popular but not how many
/// distinct circuits of each variant and corner sit at any popularity
/// level, which keeps the simulation cost of a stream steady across
/// seeds. [`WER_TAIL_SHARE`] of the requests are `wer_tail`, cycling
/// through [`WER_TAIL_KNOBS`].
#[must_use]
pub fn stream(seed: u64, len: usize) -> Vec<String> {
    let corners = cells::Corner::all();
    // Per variant: a seeded corner offset, override order and analysis
    // order. Local rank q walks the corners fastest, then the override
    // sets, then the analysis kinds, so the most popular keys of every
    // seed are distinct circuits in the same corner mix.
    let offsets: Vec<usize> = (0..VARIANTS.len())
        .map(|v| (uniform(seed, 0x4f46_4653, v) * corners.len() as f64) as usize)
        .collect();
    let override_orders: Vec<Vec<usize>> = (0..VARIANTS.len())
        .map(|v| permutation(seed, 0x4f56_5230 + v as u64, OVERRIDES.len()))
        .collect();
    let analysis_orders: Vec<Vec<usize>> = (0..VARIANTS.len())
        .map(|v| permutation(seed, 0x414e_4130 + v as u64, ANALYSES.len()))
        .collect();
    let key = |rank: usize| -> String {
        let v = rank % VARIANTS.len();
        let q = rank / VARIANTS.len();
        let corner = corners[(q + offsets[v]) % corners.len()];
        let q = q / corners.len();
        let overrides = OVERRIDES[override_orders[v][q % OVERRIDES.len()]];
        let analysis = ANALYSES[analysis_orders[v][q / OVERRIDES.len()]];
        format!(
            r#"{{"variant":"{}","corner":"{corner}","analysis":"{analysis}","overrides":{{{overrides}}}}}"#,
            VARIANTS[v]
        )
    };
    // Systematic sampling: rank r appears within one of its expected
    // count `circuit_requests · p(r)`, so every seed's stream names
    // the same number of distinct ranks; the seed then shuffles the
    // order.
    let keys = VARIANTS.len() * KEYS_PER_VARIANT;
    let weights: Vec<f64> = (1..=keys).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let tail_requests = (len as f64 * WER_TAIL_SHARE).round() as usize;
    let circuit_requests = len - tail_requests.min(len);
    let phase = uniform(seed, 0x5048_4153, 0);
    let mut bodies = Vec::with_capacity(len);
    let (mut cumulative, mut drawn) = (0.0, 0usize);
    for (rank, w) in weights.iter().enumerate() {
        cumulative += w;
        let upto = ((cumulative / total) * circuit_requests as f64 + phase) as usize;
        let upto = upto.min(circuit_requests);
        bodies.extend(std::iter::repeat_with(|| key(rank)).take(upto.saturating_sub(drawn)));
        drawn = drawn.max(upto);
    }
    while bodies.len() < circuit_requests {
        bodies.push(key(0));
    }
    for k in 0..len - bodies.len() {
        bodies.push(format!(
            r#"{{"variant":"proposed","analysis":"wer_tail","wer":{}}}"#,
            WER_TAIL_KNOBS[k % WER_TAIL_KNOBS.len()]
        ));
    }
    permutation(seed, 0x5348_5546, bodies.len())
        .into_iter()
        .map(|i| bodies[i].clone())
        .collect()
}

/// One reply as the client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Index into the stream.
    pub index: usize,
    /// HTTP status (0 when the exchange itself failed).
    pub status: u16,
    /// `X-NVFF-Cache` header value.
    pub cache: String,
    /// Fingerprint of the body.
    pub body_fingerprint: u128,
    /// Host seconds from connect to the last byte.
    pub latency_s: f64,
    /// The body of a `miss` reply (empty for every other reply), for
    /// the solver counters it reports.
    pub miss_body: String,
}

impl Reply {
    /// The solver counters a `miss` reply reports (`None` for other
    /// replies and for `wer_tail` bodies, which carry none).
    #[must_use]
    pub fn miss_solver(&self) -> Option<spice::SolverStats> {
        let doc = telemetry::JsonValue::parse(&self.miss_body).ok()?;
        let solver = doc.get("solver")?;
        let field = |name: &str| {
            solver
                .get(name)
                .and_then(telemetry::JsonValue::as_i64)
                .map(|v| v as u64)
        };
        Some(spice::SolverStats {
            newton_iterations: field("newton_iterations")?,
            lu_factorizations: field("lu_factorizations")?,
            accepted_steps: field("accepted_steps")?,
            rejected_steps: field("rejected_steps")?,
            ..spice::SolverStats::default()
        })
    }
}

/// One raw-socket POST to `/v1/characterize`.
fn post(addr: SocketAddr, body: &str) -> Result<(u16, String, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(120)));
    let _ = stream.set_nodelay(true);
    let request = format!(
        "POST /v1/characterize HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response: {response:?}"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line: {head:?}"))?;
    let cache = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("x-nvff-cache")
                .then(|| value.trim().to_owned())
        })
        .unwrap_or_default();
    Ok((status, cache, body.to_owned()))
}

/// What one pass measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Replies in completion order.
    pub replies: Vec<Reply>,
    /// Host seconds the clients ran.
    pub drive_s: f64,
}

/// Starts a fresh service on loopback: disk-cache directory `dir`,
/// [`JOBS`] workers, [`CACHE_CAPACITY`] memory entries.
///
/// # Errors
///
/// Directory or bind failures.
pub fn start_service(dir: &Path) -> Result<MetricsServer, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let options = ServiceOptions {
        workers: JOBS,
        queue_capacity: QUEUE_CAPACITY,
        cache_capacity: CACHE_CAPACITY,
        cache_dir: Some(dir.to_path_buf()),
        max_body_bytes: serve::http::DEFAULT_MAX_BODY_BYTES,
    };
    let service = Arc::new(CharacterizeService::new(&options));
    MetricsServer::bind_with("127.0.0.1:0", Some(service)).map_err(|e| format!("bind: {e}"))
}

/// Set-up time of one pass: start the service (directory, workers,
/// listener) and shut it down again, as a median over batches.
#[must_use]
pub fn setup_seconds() -> f64 {
    let dir = scratch_dir("setup");
    let mut failed = false;
    let seconds = stats::setup_seconds(|| match start_service(&dir) {
        Ok(mut server) => server.shutdown(),
        Err(_) => failed = true,
    });
    let _ = std::fs::remove_dir_all(&dir);
    if failed {
        0.0
    } else {
        seconds
    }
}

/// Runs one pass over `bodies` with a fresh service whose disk cache
/// lives in `dir` (created and removed here).
///
/// # Errors
///
/// Bind or directory failures.
pub fn run_pass(bodies: &[String], dir: &Path) -> Result<Pass, String> {
    let mut server = start_service(dir)?;
    let addr = server.local_addr();

    let cursor = AtomicUsize::new(0);
    let replies = Mutex::new(Vec::with_capacity(bodies.len()));
    let drive_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(body) = bodies.get(index) else { break };
                    let t0 = Instant::now();
                    let reply = post(addr, body);
                    let latency_s = t0.elapsed().as_secs_f64();
                    let (status, cache, text) = reply.unwrap_or_else(|e| (0, e, String::new()));
                    let body_fingerprint = sweep::fingerprint128(text.as_bytes());
                    let miss_body = if cache == "miss" { text } else { String::new() };
                    mine.push(Reply {
                        index,
                        status,
                        cache,
                        body_fingerprint,
                        latency_s,
                        miss_body,
                    });
                }
                replies
                    .lock()
                    .expect("no client panics while holding the reply list")
                    .extend(mine);
            });
        }
    });
    let drive_s = drive_start.elapsed().as_secs_f64();
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    Ok(Pass {
        replies: replies
            .into_inner()
            .expect("clients finished without panicking"),
        drive_s,
    })
}

/// The expected response body of `body`, computed directly: a fresh
/// harness characterized through `NvWord::characterize` and rendered
/// with `render_response`, or the `wer_tail` estimate rendered the way
/// the service renders it.
///
/// # Errors
///
/// Parse or simulation failures, as messages.
pub fn expected_body(body: &str) -> Result<String, String> {
    let request = CharacterizeRequest::parse(body)?;
    if let Some(knobs) = &request.wer {
        let params = mtj::MtjParams::date2018();
        let base = mtj::VariationModel::default();
        let variation = mtj::VariationModel::new(
            base.sigma_ra(),
            base.sigma_tmr(),
            knobs.sigma_switching_current,
        )
        .map_err(|e| e.to_string())?;
        let current = params.nominal_write_current();
        let env = mtj::rare::TailEnv::new(&params, variation, current);
        let pulse = mtj::wer::pulse_for_wer(&env.reference_model(), current, knobs.target_wer);
        let result = mtj::rare::estimate_tail(
            &env,
            pulse,
            &mtj::rare::TailOptions {
                samples: knobs.samples,
                seed: knobs.seed,
                jobs: 1,
                lanes: crate::LANES,
                ..mtj::rare::TailOptions::default()
            },
        );
        return Ok(serve::api::render_wer_tail_response(
            &request, knobs, &result,
        ));
    }
    let config = request.resolve_config()?;
    let metrics = request
        .variant
        .instantiate(config)
        .characterize()
        .map_err(|e| e.to_string())?;
    Ok(serve::render_response(&request, &metrics))
}

/// Expected body fingerprints for every distinct request in `bodies`,
/// computed on [`JOBS`] threads.
#[must_use]
pub fn oracle(bodies: &[String]) -> HashMap<String, Result<u128, String>> {
    let mut distinct: Vec<&String> = bodies.iter().collect();
    distinct.sort();
    distinct.dedup();
    let next = AtomicUsize::new(0);
    let results = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for _ in 0..JOBS {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(body) = distinct.get(k) else { break };
                let expected =
                    expected_body(body).map(|text| sweep::fingerprint128(text.as_bytes()));
                results
                    .lock()
                    .expect("no oracle thread panics while holding the map")
                    .insert((*body).clone(), expected);
            });
        }
    });
    results.into_inner().expect("oracle threads finished")
}

/// Checks every reply of a pass: 200, and the body equal to the
/// oracle's.
pub fn check_pass(
    pass: &Pass,
    bodies: &[String],
    oracle: &HashMap<String, Result<u128, String>>,
    checks: &mut Checks,
) {
    for reply in &pass.replies {
        let body = &bodies[reply.index];
        let mut problems = Vec::new();
        if reply.status != 200 {
            problems.push(format!("status {} ({})", reply.status, reply.cache));
        } else {
            match oracle.get(body) {
                Some(Ok(want)) if *want == reply.body_fingerprint => {}
                Some(Ok(_)) => {
                    problems.push("body differs from the direct characterization".into())
                }
                Some(Err(e)) => problems.push(format!("direct characterization failed: {e}")),
                None => problems.push("no direct characterization".into()),
            }
        }
        checks.record(
            &format!("{WORKLOAD}.request[{}] {body}", reply.index),
            problems,
        );
    }
}

/// A per-run scratch directory under the working directory's
/// `.bench_run/` (the benchmark writes nowhere else).
#[must_use]
pub fn scratch_dir(tag: &str) -> PathBuf {
    PathBuf::from(".bench_run").join(format!("chserve-{}-{tag}", std::process::id()))
}

fn remove_scratch_root() {
    // Only removes `.bench_run` when no other run is using it.
    let _ = std::fs::remove_dir(".bench_run");
}

/// Runs the workload for `seconds` (at least one pass) at `seed`.
#[must_use]
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let bodies = stream(seed, PASS_REQUESTS);
    let setup_s = if trace { 0.0 } else { setup_seconds() };
    let mut peak_rss_mb = 0.0;
    let mut passes = Vec::new();
    let mut traced_passes = Vec::new();
    let started = Instant::now();
    loop {
        match run_pass(&bodies, &scratch_dir(&passes.len().to_string())) {
            Ok(pass) => {
                if passes.is_empty() {
                    peak_rss_mb = crate::host::peak_rss_mb();
                }
                out.notes.push(format!(
                    "pass {}: {} requests in {:.3} s",
                    passes.len() + 1,
                    pass.replies.len(),
                    pass.drive_s,
                ));
                passes.push(pass);
            }
            Err(e) => {
                out.checks.fail(&format!("{WORKLOAD}.pass"), e);
                break;
            }
        }
        // The traced run splits its time between untraced and traced
        // passes.
        let budget = if trace { seconds / 2.0 } else { seconds };
        if started.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    let mut delta = None;
    if trace && !passes.is_empty() {
        let (result, d, _) = traced(|| {
            let mut done = Vec::new();
            for k in 0..passes.len() {
                done.push(run_pass(&bodies, &scratch_dir(&format!("traced{k}"))));
            }
            done
        });
        for pass in result {
            match pass {
                Ok(pass) => traced_passes.push(pass),
                Err(e) => out.checks.fail(&format!("{WORKLOAD}.traced_pass"), e),
            }
        }
        delta = Some(d);
    }
    remove_scratch_root();

    let oracle = oracle(&bodies);
    for pass in passes.iter().chain(&traced_passes) {
        check_pass(pass, &bodies, &oracle, &mut out.checks);
    }

    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.replies.iter().map(|r| r.latency_s))
        .collect();
    let drive: f64 = passes.iter().map(|p| p.drive_s).sum();
    let s = summarize(&latencies);
    out.notes.push(format!(
        "{} passes, {} requests: p50 {:.3} ms, tail p{:.0} {:.3} ms, {:.1} requests/s",
        passes.len(),
        s.n,
        s.median * 1e3,
        s.tail_level * 100.0,
        s.tail * 1e3,
        s.n as f64 / drive.max(1e-9),
    ));
    if !trace {
        let m = &mut out.metrics;
        m.set("setup_s", setup_s, "s");
        m.set("peak_rss_mb", peak_rss_mb, "MB");
        m.set("latency_p50_ms", s.median * 1e3, "ms");
        m.set("latency_tail_ms", s.tail * 1e3, "ms");
        m.set("throughput_ops_per_s", s.n as f64 / drive.max(1e-9), "1/s");
        return out;
    }

    let m = &mut out.metrics;
    set_cache_metrics(m, &passes, &bodies);
    let traced_drive: f64 = traced_passes.iter().map(|p| p.drive_s).sum();
    m.set("trace_overhead", traced_drive / drive.max(1e-9), "ratio");
    if let Some(delta) = &delta {
        delta.set_spice_metrics(m, traced_passes.len());
        delta.set_serve_metrics(m, traced_passes.len(), false);
    }
    set_solver_metrics(m, &passes);
    layer_probes(&bodies, m);
    out
}

/// The solver work the service reported, per untraced pass: the
/// counters of every `miss` reply's body summed (memory and disk hits
/// and coalesced replies did no simulation of their own). A worker
/// characterizes a circuit once and reuses the result for the
/// circuit's other analysis kinds, so such a miss repeats the first
/// one's counters; `serve.characterizations` counts the runs. Only the
/// counters the body carries are set.
fn set_solver_metrics(m: &mut Metrics, passes: &[Pass]) {
    let mut solver = spice::SolverStats::default();
    for reply in passes.iter().flat_map(|p| &p.replies) {
        if let Some(stats) = reply.miss_solver() {
            solver.accumulate(stats);
        }
    }
    let per_pass = passes.len().max(1) as f64;
    m.set(
        "spice.newton_iterations",
        solver.newton_iterations as f64 / per_pass,
        "count",
    );
    m.set(
        "spice.lu_factorizations",
        solver.lu_factorizations as f64 / per_pass,
        "count",
    );
    m.set(
        "spice.accepted_steps",
        solver.accepted_steps as f64 / per_pass,
        "count",
    );
    let attempted = solver.accepted_steps + solver.rejected_steps;
    m.set(
        "spice.step_accept_ratio",
        if attempted == 0 {
            0.0
        } else {
            solver.accepted_steps as f64 / attempted as f64
        },
        "ratio",
    );
}

/// Cache accounting of the untraced passes, from the `X-NVFF-Cache`
/// header, averaged per pass; latencies split by hit and miss; and the
/// shape of the stream (`wer_tail` replies per pass, distinct keys).
fn set_cache_metrics(m: &mut Metrics, passes: &[Pass], bodies: &[String]) {
    let replies: Vec<&Reply> = passes.iter().flat_map(|p| &p.replies).collect();
    let per_pass = passes.len().max(1) as f64;
    let requests: Vec<Option<CharacterizeRequest>> = bodies
        .iter()
        .map(|b| CharacterizeRequest::parse(b).ok())
        .collect();
    let wer_tail = replies
        .iter()
        .filter(|r| matches!(&requests[r.index], Some(q) if q.wer.is_some()))
        .count() as f64;
    m.set("serve.wer_tail_requests", wer_tail / per_pass, "count");
    let keys: std::collections::HashSet<u128> = requests
        .iter()
        .flatten()
        .map(CharacterizeRequest::fingerprint)
        .collect();
    m.set("serve.distinct_keys", keys.len() as f64, "count");
    let count = |status: &str| replies.iter().filter(|r| r.cache == status).count() as f64;
    let (hits, misses, coalesced) = (count("hit"), count("miss"), count("coalesced"));
    let shed = replies.iter().filter(|r| r.status == 429).count() as f64;
    m.set("serve.requests", replies.len() as f64 / per_pass, "count");
    m.set("serve.hits", hits / per_pass, "count");
    m.set("serve.misses", misses / per_pass, "count");
    m.set("serve.coalesced", coalesced / per_pass, "count");
    m.set("serve.shed", shed / per_pass, "count");
    m.set(
        "serve.hit_ratio",
        hits / (replies.len().max(1) as f64),
        "ratio",
    );
    let latencies = |status: &str| -> Vec<f64> {
        replies
            .iter()
            .filter(|r| r.cache == status)
            .map(|r| r.latency_s)
            .collect()
    };
    let hit = summarize(&latencies("hit"));
    let miss = summarize(&latencies("miss"));
    m.set("serve.hit_p50_ms", hit.median * 1e3, "ms");
    m.set("serve.miss_p50_ms", miss.median * 1e3, "ms");
    m.set("serve.miss_tail_ms", miss.tail * 1e3, "ms");
}

/// Per-call host costs of the service's layers, each a median over
/// repeated batches of the run's own stream.
fn layer_probes(bodies: &[String], m: &mut Metrics) {
    let parsed: Vec<CharacterizeRequest> = bodies
        .iter()
        .filter_map(|b| CharacterizeRequest::parse(b).ok())
        .collect();
    let n = bodies.len().max(1) as f64;
    let parse_s = stats::median_time(7, 0.02, || {
        for body in bodies {
            if let Ok(request) = CharacterizeRequest::parse(body) {
                std::hint::black_box((request.canonical(), request.fingerprint()));
            }
        }
    });
    m.set("serve.parse_us", parse_s * 1e6 / n, "us");

    // Cache probes at the service's capacity with the disk layer on:
    // the pass's keys inserted in stream order, then looked up again.
    let dir = scratch_dir("probe");
    let cache = ResultCache::with_disk(CACHE_CAPACITY, Some(dir.clone()));
    let keys: Vec<u128> = parsed
        .iter()
        .map(CharacterizeRequest::fingerprint)
        .collect();
    for (key, body) in keys.iter().zip(bodies) {
        cache.insert(*key, Arc::new(body.clone()));
    }
    let probe_s = stats::median_time(7, 0.02, || {
        for key in &keys {
            std::hint::black_box(cache.get(*key));
        }
    });
    m.set(
        "serve.cache_probe_us",
        probe_s * 1e6 / keys.len().max(1) as f64,
        "us",
    );
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
    remove_scratch_root();

    // Rendering, on one characterized cell.
    if let Some(request) = parsed.iter().find(|r| r.wer.is_none()) {
        if let Ok(metrics) = request
            .resolve_config()
            .map_err(|e| e.to_string())
            .and_then(|c| {
                request
                    .variant
                    .instantiate(c)
                    .characterize()
                    .map_err(|e| e.to_string())
            })
        {
            let per_call = stats::median_time(7, 0.02, || {
                std::hint::black_box(serve::render_response(request, &metrics));
            });
            m.set("serve.render_us", per_call * 1e6, "us");
        }
    }
}
