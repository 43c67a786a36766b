//! The repository benchmark: three workloads that drive every layer of
//! the reproduction through its public API, time them on the host, and
//! check that the simulated outputs are still correct.
//!
//! - [`paper_regen`] regenerates Table II, Table III and the NV-word
//!   family (spice, cells, sweep, netlist, place, merge);
//! - [`wer_mc`] runs the lane-batched WER grid and the
//!   importance-sampled tail surface (mtj, sweep only);
//! - [`chserve_mix`] drives the characterization service on loopback
//!   with a seeded, Zipf-skewed closed-loop request stream (serve on top
//!   of cells and spice, plus the `wer_tail` arm).
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints a human-readable report and, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set of [`catalog`], with
//! `--trace 1` the per-layer set. See `README.md` next to this crate
//! for what every workload and metric means.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod chserve_mix;
pub mod host;
pub mod paper_regen;
pub mod reference;
pub mod stats;
pub mod wer_mc;

use telemetry::JsonValue;

/// Worker threads used by every parallel layer (sweep pools, service
/// workers, closed-loop clients). Always passed explicitly: never the
/// "0 = auto" of the library defaults.
pub const JOBS: usize = 2;

/// SIMD lane count of the batched Monte-Carlo kernels, passed
/// explicitly so `NVFF_LANES` never decides it.
pub const LANES: usize = 64;

/// An ordered list of named metrics with units.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Sets `name` to `value` (replacing an earlier value of the same
    /// name).
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.entries.iter_mut().find(|(n, _, _)| *n == name) {
            Some(entry) => {
                entry.1 = value;
                entry.2 = unit;
            }
            None => self.entries.push((name, value, unit)),
        }
    }

    /// The value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// All entries in insertion order.
    #[must_use]
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    /// The `metrics` object of the result line.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.entries
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        JsonValue::object(vec![
                            ("value".into(), JsonValue::Float(*value)),
                            ("unit".into(), JsonValue::Str((*unit).into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Operation accounting and output checks of one benchmark run.
///
/// An operation is one call the workload makes into the program (a
/// table regeneration, one benchmark flow, one request, ...). It fails
/// when it returns an error, answers with a non-200 status, or
/// produces an output that does not match its reference.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one operation: `problems` empty means it succeeded.
    pub fn record(&mut self, op: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failures.push(format!("{op}: {}", problems.join("; ")));
        }
    }

    /// Records one operation that failed outright.
    pub fn fail(&mut self, op: &str, message: impl std::fmt::Display) {
        self.record(op, vec![message.to_string()]);
    }

    /// Failed operations.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed over attempted operations.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operation accounting and check failures.
    pub checks: Checks,
    /// The metrics to report.
    pub metrics: Metrics,
    /// Human-readable report lines printed before the result line.
    pub notes: Vec<String>,
}

/// Names of the three workloads.
pub const WORKLOADS: [&str; 3] = [
    paper_regen::WORKLOAD,
    wer_mc::WORKLOAD,
    chserve_mix::WORKLOAD,
];

/// Runs one workload for `seconds` at `seed`: with `trace` off it
/// reports the end-to-end metrics (telemetry stays off throughout),
/// with `trace` on the per-layer ones. Peak RSS is read right after the
/// measured passes, before the output checks' own computations.
///
/// # Panics
///
/// Panics on a workload name outside [`WORKLOADS`].
#[must_use]
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: &reference::Reference,
) -> Outcome {
    match workload {
        paper_regen::WORKLOAD => paper_regen::run(seconds, trace, reference),
        wer_mc::WORKLOAD => wer_mc::run(seed, seconds, trace, reference),
        chserve_mix::WORKLOAD => chserve_mix::run(seed, seconds, trace),
        other => panic!("unknown workload {other:?}"),
    }
}

/// Per-layer metric name prefixes `workload` declares it does not
/// measure: they print as 0 in its traced run (see
/// [`catalog::finalize`]). Every other per-layer metric must be set.
///
/// # Panics
///
/// Panics on a workload name outside [`WORKLOADS`].
#[must_use]
pub fn not_measured(workload: &str) -> &'static [&'static str] {
    match workload {
        paper_regen::WORKLOAD => paper_regen::NOT_MEASURED,
        wer_mc::WORKLOAD => wer_mc::NOT_MEASURED,
        chserve_mix::WORKLOAD => chserve_mix::NOT_MEASURED,
        other => panic!("unknown workload {other:?}"),
    }
}

/// Sets the end-to-end latency and throughput metrics of a batch
/// workload from its pass latencies in seconds.
pub fn set_latency_metrics(out: &mut Outcome, latencies: &[f64]) {
    let s = stats::summarize(latencies);
    let busy: f64 = latencies.iter().sum();
    out.metrics.set("latency_p50_ms", s.median * 1e3, "ms");
    out.metrics.set("latency_tail_ms", s.tail * 1e3, "ms");
    out.metrics.set(
        "throughput_ops_per_s",
        if busy > 0.0 { s.n as f64 / busy } else { 0.0 },
        "1/s",
    );
    out.notes.push(format!(
        "{} passes: p50 {:.3} ms, tail p{:.0} {:.3} ms",
        s.n,
        s.median * 1e3,
        s.tail_level * 100.0,
        s.tail * 1e3,
    ));
}

/// Renders the final result line.
#[must_use]
pub fn result_line(checks: &Checks, metrics: &Metrics) -> String {
    JsonValue::object(vec![
        (
            "correct".into(),
            JsonValue::Bool(checks.failures.is_empty()),
        ),
        ("attempted".into(), JsonValue::Int(checks.attempted as i64)),
        ("failed".into(), JsonValue::Int(checks.failed() as i64)),
        ("metrics".into(), metrics.to_json()),
    ])
    .to_json()
}

/// A named simulated output of one operation, compared against the
/// recorded reference (see [`reference`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tolerance {
    /// Must match bit for bit (counts, Monte-Carlo estimates).
    Exact,
    /// Must match within [`reference::APPROX_REL_TOL`] (simulated
    /// analog quantities).
    Approx,
}

/// The outputs one operation produced, in reference-key form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observed {
    /// `(key, tolerance, value)` triples.
    pub values: Vec<(String, Tolerance, f64)>,
}

impl Observed {
    /// Adds a bit-exact output.
    pub fn exact(&mut self, key: impl Into<String>, value: f64) {
        self.values.push((key.into(), Tolerance::Exact, value));
    }

    /// Adds a tolerance-compared output.
    pub fn approx(&mut self, key: impl Into<String>, value: f64) {
        self.values.push((key.into(), Tolerance::Approx, value));
    }

    /// Adds the solver counters of one characterization, exactly.
    pub fn solver(&mut self, prefix: &str, stats: &spice::SolverStats) {
        for (name, value) in solver_fields(stats) {
            self.exact(format!("{prefix}.solver.{name}"), value as f64);
        }
    }
}

/// The [`spice::SolverStats`] counters by name.
#[must_use]
pub fn solver_fields(stats: &spice::SolverStats) -> [(&'static str, u64); 8] {
    [
        ("newton_iterations", stats.newton_iterations),
        ("lu_factorizations", stats.lu_factorizations),
        ("accepted_steps", stats.accepted_steps),
        ("rejected_steps", stats.rejected_steps),
        ("step_halvings", stats.step_halvings),
        ("pattern_reuses", stats.pattern_reuses),
        ("lte_rejections", stats.lte_rejections),
        ("source_steps", stats.source_steps),
    ]
}

/// Sets the `spice.*` solver-counter metrics from a summed
/// [`spice::SolverStats`].
pub fn set_solver_metrics(metrics: &mut Metrics, stats: &spice::SolverStats) {
    metrics.set(
        "spice.newton_iterations",
        stats.newton_iterations as f64,
        "count",
    );
    metrics.set(
        "spice.lu_factorizations",
        stats.lu_factorizations as f64,
        "count",
    );
    metrics.set("spice.accepted_steps", stats.accepted_steps as f64, "count");
    metrics.set("spice.lte_rejections", stats.lte_rejections as f64, "count");
    metrics.set("spice.step_halvings", stats.step_halvings as f64, "count");
    metrics.set("spice.source_steps", stats.source_steps as f64, "count");
    let attempted = stats.accepted_steps + stats.rejected_steps;
    metrics.set(
        "spice.step_accept_ratio",
        if attempted == 0 {
            0.0
        } else {
            stats.accepted_steps as f64 / attempted as f64
        },
        "ratio",
    );
}

/// Sets the `sweep.*` metrics from the summaries of the sweep-pool runs
/// a pass made (summed: wall and busy time add up across runs).
pub fn set_sweep_metrics(metrics: &mut Metrics, summaries: &[sweep::RunSummary]) {
    let wall: f64 = summaries.iter().map(|s| s.wall_s).sum();
    let busy: f64 = summaries.iter().map(|s| s.busy_s).sum();
    let capacity: f64 = summaries.iter().map(|s| s.wall_s * s.workers as f64).sum();
    metrics.set("sweep.wall_s", wall, "s");
    metrics.set("sweep.busy_s", busy, "s");
    metrics.set(
        "sweep.speedup",
        if wall > 0.0 { busy / wall } else { 0.0 },
        "ratio",
    );
    metrics.set(
        "sweep.idle_share",
        if capacity > 0.0 {
            1.0 - busy / capacity
        } else {
            0.0
        },
        "ratio",
    );
}

/// Counter `name` in a telemetry snapshot (0 when absent).
#[must_use]
pub fn counter(snapshot: &telemetry::Snapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// `(count, sum)` of histogram `name` in a telemetry snapshot.
#[must_use]
pub fn histogram(snapshot: &telemetry::Snapshot, name: &str) -> (u64, f64) {
    snapshot
        .histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or((0, 0.0), |(_, h)| (h.count(), h.sum()))
}

/// Runs `f` with telemetry collecting in memory and returns its result
/// with the telemetry delta (counters and histograms) it caused and its
/// wall time. Telemetry is switched off again afterwards.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, TraceDelta, f64) {
    telemetry::init(telemetry::TraceMode::Collect);
    let before = telemetry::snapshot();
    let started = std::time::Instant::now();
    let value = f();
    let wall_s = started.elapsed().as_secs_f64();
    let after = telemetry::snapshot();
    telemetry::init(telemetry::TraceMode::Off);
    (value, TraceDelta { before, after }, wall_s)
}

/// Telemetry observed across one traced section.
#[derive(Debug, Clone)]
pub struct TraceDelta {
    before: telemetry::Snapshot,
    after: telemetry::Snapshot,
}

impl TraceDelta {
    /// Increase of counter `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        counter(&self.after, name) - counter(&self.before, name)
    }

    /// `(count, sum)` increase of histogram `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> (u64, f64) {
        let (c1, s1) = histogram(&self.after, name);
        let (c0, s0) = histogram(&self.before, name);
        (c1 - c0, s1 - s0)
    }

    /// Mean of the values histogram `name` received (0 when none).
    #[must_use]
    pub fn histogram_mean(&self, name: &str) -> f64 {
        let (count, sum) = self.histogram(name);
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Closures of span `name` (its own segment of the path), summed
    /// over every path it appears under.
    #[must_use]
    pub fn span_count(&self, name: &str) -> u64 {
        let total = |snap: &telemetry::Snapshot| -> u64 {
            snap.spans
                .iter()
                .filter(|s| s.path.rsplit('/').next() == Some(name))
                .map(|s| s.count)
                .sum()
        };
        total(&self.after) - total(&self.before)
    }

    /// Seconds inside the outermost spans whose name starts with
    /// `prefix` (nested spans of the same layer are not counted twice),
    /// summed over threads.
    #[must_use]
    pub fn layer_span_s(&self, prefix: &str) -> f64 {
        let total = |snap: &telemetry::Snapshot| -> f64 {
            snap.spans
                .iter()
                .filter(|s| {
                    let mut segments = s.path.split('/').rev();
                    let own = segments.next().unwrap_or_default();
                    own.starts_with(prefix) && !segments.any(|a| a.starts_with(prefix))
                })
                .map(|s| s.total_s)
                .sum()
        };
        total(&self.after) - total(&self.before)
    }

    /// Sets the telemetry-derived `spice.*` metrics, per pass over
    /// the `passes` traced passes: symbolic builds, re-pivots, gmin
    /// rounds, and the time inside Newton's linear step (the
    /// `spice.lu_solve_s` histogram, which times assembly, factor and
    /// solve together), also as a share of all time inside the
    /// simulator's analyses.
    pub fn set_spice_metrics(&self, metrics: &mut Metrics, passes: usize) {
        let per_pass = passes.max(1) as f64;
        for name in [
            "spice.symbolic_builds",
            "spice.repivots",
            "spice.gmin_rounds",
        ] {
            metrics.set(name, self.counter(name) as f64 / per_pass, "count");
        }
        let (_, linear_s) = self.histogram("spice.lu_solve_s");
        let simulator_s = self.layer_span_s("spice.");
        metrics.set("spice.newton_linear_s", linear_s / per_pass, "s");
        metrics.set(
            "spice.newton_linear_share",
            if simulator_s > 0.0 {
                linear_s / simulator_s
            } else {
                0.0
            },
            "ratio",
        );
    }

    /// Sets the telemetry-derived `serve.*` metrics, per pass over the
    /// `passes` traced passes: disk hits, evictions, characterizations
    /// the workers ran (closures of their `serve.characterize` span),
    /// and the means of the queue-depth and batch-size histograms. With
    /// `with_requests`
    /// it also sets the request, hit, miss, coalesced and shed counts
    /// from the service's own counters (a workload that reads them from
    /// response headers sets them itself).
    pub fn set_serve_metrics(&self, metrics: &mut Metrics, passes: usize, with_requests: bool) {
        let per_pass = passes.max(1) as f64;
        let mut counters = vec![
            ("serve.disk_hits", "serve.cache.disk_hits"),
            ("serve.evictions", "serve.cache.evictions"),
        ];
        if with_requests {
            counters.extend([
                ("serve.requests", "serve.requests"),
                ("serve.hits", "serve.cache.hits"),
                ("serve.misses", "serve.cache.misses"),
                ("serve.coalesced", "serve.coalesced"),
                ("serve.shed", "serve.shed"),
            ]);
        }
        for (metric, counter) in counters {
            metrics.set(metric, self.counter(counter) as f64 / per_pass, "count");
        }
        metrics.set(
            "serve.characterizations",
            self.span_count("serve.characterize") as f64 / per_pass,
            "count",
        );
        for name in ["serve.queue_depth", "serve.batch_size"] {
            metrics.set(name, self.histogram_mean(name), "count");
        }
    }
}

/// Times `f` once, returning its result and host seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = std::time::Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}
