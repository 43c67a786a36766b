//! `wer_mc`: the write-error-rate Monte-Carlo campaign. One pass runs
//!
//! 1. the brute-force lane-kernel grid (`mtj::wer::monte_carlo_wer_grid_with`)
//!    at the pulse widths of typical-die WER 1e-2 … 1e-5;
//! 2. the importance-sampled tail surface (`mtj::rare::tail_surface`)
//!    on the shmoo axes — 5 WER targets down to 1e-11 × 2 σ(Isw) × 2
//!    temperatures, adaptive tilt search included;
//! 3. the brute-force cross-check of the tilted sampler in the 1e-3
//!    regime.
//!
//! Only `mtj` and `sweep` run: no circuit is simulated and no service
//! is involved. The grid and the surface draw from the run's seed; the
//! cross-check uses a fixed seed, so its verdict is the same on every
//! run.

use std::time::Instant;

use mtj::rare::{
    self, Estimator, SurfaceAxes, TailEnv, TailOptions, TailSurface, Tilt, TiltSearch,
};
use mtj::wer::{self, WerEstimate, WerGridOptions};
use mtj::{MtjParams, SwitchingModel, ThermalModel, VariationModel};
use units::{Current, Temperature, Time};

use crate::reference::Reference;
use crate::stats;
use crate::{timed, traced, Checks, Observed, Outcome, JOBS, LANES};

/// Workload name.
pub const WORKLOAD: &str = "wer_mc";

/// Typical-die WER targets of the brute-force grid.
pub const GRID_TARGETS: [f64; 4] = [1e-2, 1e-3, 1e-4, 1e-5];

/// Brute-force trials per grid point.
pub const GRID_TRIALS: usize = 5_000_000;

/// Typical-die WER targets of the tail surface (deepest last).
pub const SURFACE_TARGETS: [f64; 5] = [1e-3, 1e-5, 1e-7, 1e-9, 1e-11];

/// σ(Isw) axis of the tail surface.
pub const SURFACE_SIGMAS: [f64; 2] = [0.04, 0.06];

/// Temperature axis of the tail surface, °C.
pub const SURFACE_TEMPERATURES_C: [f64; 2] = [27.0, 85.0];

/// Importance-sampled draws per surface point.
pub const SURFACE_SAMPLES: usize = 10_000;

/// Cross-entropy pilot rounds and samples per round of the tilt search.
pub const PILOT: (usize, usize) = (3, 512);

/// Brute-force trials and IS samples of the cross-check.
pub const CROSSCHECK: (usize, usize) = (30_000, 3000);

/// Seed of the cross-check arm (fixed: its verdict is a correctness
/// oracle, not a timed draw).
pub const CROSSCHECK_SEED: u64 = 2018;

/// Seed of the reference campaign every run re-checks bit for bit.
pub const REFERENCE_SEED: u64 = 2018;

/// How many standard errors a seeded estimate may sit from the
/// reference campaign's before the output check fails it.
pub const STAT_SIGMAS: f64 = 10.0;

/// Per-layer name prefixes this workload does not measure: it runs no
/// paper table, no circuit and no service. The traced passes'
/// telemetry still reports the spice and service counters it sees
/// (`spice.symbolic_builds`, `spice.newton_linear_s`, `serve.requests`,
/// ...) explicitly, so a `wer_mc` change that reached either layer
/// would show.
pub const NOT_MEASURED: &[&str] = &[
    "table2_s",
    "table3_s",
    "family_s",
    "paper_max_rel_err",
    "spice.",
    "cells.",
    "netlist.",
    "place.",
    "merge.",
    "serve.",
];

/// The inputs of a pass at one seed: grid points, surface axes, and
/// the tilt the surface's search must find at every point.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Nominal device.
    pub params: MtjParams,
    /// Nominal write current.
    pub current: Current,
    /// `(current, pulse)` points of the brute-force grid.
    pub grid: Vec<(Current, Time)>,
    /// Tail-surface axes.
    pub axes: SurfaceAxes,
    /// Per-point environments of the surface.
    pub envs: Vec<TailEnv>,
    /// Seed the tilts were searched at.
    pub seed: u64,
    /// Per surface point, the tilt `adaptive_tilt` finds on the
    /// point's counter seed: what every pass at [`Inputs::seed`] must
    /// reproduce bit for bit.
    pub tilts: Vec<Tilt>,
}

/// The tilt search `tail_surface` runs inside each point.
const SEARCH: TiltSearch = TiltSearch {
    rounds: PILOT.0,
    pilot_samples: PILOT.1,
};

/// Runs the tilt search of every surface point, serially, on the
/// point's counter seed under `seed` (as `tail_surface` seeds it).
#[must_use]
pub fn search_tilts(axes: &SurfaceAxes, envs: &[TailEnv], seed: u64) -> Vec<Tilt> {
    envs.iter()
        .zip(axes.points())
        .enumerate()
        .map(|(k, (env, point))| {
            rare::adaptive_tilt(
                env,
                point.pulse,
                &SEARCH,
                sweep::point_seed(seed, k as u64),
                LANES,
            )
            .tilt
        })
        .collect()
}

/// Set-up at `seed`: turns the WER targets into pulse widths on the
/// reference device, builds every surface point's environment, and
/// searches every point's tilt.
#[must_use]
pub fn prepare(seed: u64) -> Inputs {
    let params = MtjParams::date2018();
    let current = params.nominal_write_current();
    let model = SwitchingModel::new(&params);
    let grid = GRID_TARGETS
        .iter()
        .map(|&t| (current, wer::pulse_for_wer(&model, current, t)))
        .collect();
    let axes = SurfaceAxes {
        pulses: SURFACE_TARGETS
            .iter()
            .map(|&t| wer::pulse_for_wer(&model, current, t))
            .collect(),
        sigma_switching_currents: SURFACE_SIGMAS.to_vec(),
        temperatures: SURFACE_TEMPERATURES_C
            .iter()
            .map(|&c| Temperature::from_celsius(c))
            .collect(),
    };
    let base = VariationModel::default();
    let thermal = ThermalModel::default();
    let envs = axes
        .points()
        .iter()
        .map(|p| {
            let variation =
                VariationModel::new(base.sigma_ra(), base.sigma_tmr(), p.sigma_switching_current)
                    .expect("surface sigma in range");
            TailEnv::at_temperature(&params, variation, &thermal, p.temperature, current)
        })
        .collect::<Vec<_>>();
    let tilts = search_tilts(&axes, &envs, seed);
    Inputs {
        params,
        current,
        grid,
        axes,
        envs,
        seed,
        tilts,
    }
}

/// The cross-check verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossCheck {
    /// IS (Bernoulli) population-WER estimate.
    pub is_wer: f64,
    /// Its 99 % confidence interval.
    pub ci: (f64, f64),
    /// Brute-force failures over [`CROSSCHECK`]`.0` trials.
    pub brute_failures: usize,
    /// Brute force inside the IS interval.
    pub agrees: bool,
}

/// Everything one pass produced.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Brute-force grid estimates, in [`GRID_TARGETS`] order.
    pub grid: Vec<WerEstimate>,
    /// The grid's worker-pool summary.
    pub grid_summary: sweep::RunSummary,
    /// The tail surface.
    pub surface: TailSurface,
    /// The cross-check.
    pub crosscheck: CrossCheck,
    /// Host seconds of the grid.
    pub grid_s: f64,
    /// Host seconds of the tail surface.
    pub tail_s: f64,
    /// Host seconds of the cross-check.
    pub crosscheck_s: f64,
    /// Host seconds of the whole pass.
    pub wall_s: f64,
}

fn tail_options(seed: u64) -> TailOptions {
    TailOptions {
        samples: SURFACE_SAMPLES,
        seed,
        jobs: JOBS,
        lanes: LANES,
        pilot_rounds: PILOT.0,
        pilot_samples: PILOT.1,
        ..TailOptions::default()
    }
}

fn crosscheck(inputs: &Inputs) -> CrossCheck {
    let env = TailEnv::new(&inputs.params, VariationModel::default(), inputs.current);
    let pulse = wer::pulse_for_wer(&env.reference_model(), env.current(), 1e-3);
    let is = rare::estimate_tail(
        &env,
        pulse,
        &TailOptions {
            samples: CROSSCHECK.1,
            seed: CROSSCHECK_SEED ^ 0x5348_4d4f_4f58,
            jobs: JOBS,
            lanes: LANES,
            estimator: Estimator::Bernoulli,
            pilot_rounds: PILOT.0,
            pilot_samples: PILOT.1,
            ..TailOptions::default()
        },
    );
    let (bf, _) = rare::varied_wer_grid(
        &env,
        &[pulse],
        CROSSCHECK.0,
        CROSSCHECK_SEED ^ 0x42_5255_5445,
        JOBS,
    );
    CrossCheck {
        is_wer: is.estimate.wer,
        ci: (is.estimate.ci.lo, is.estimate.ci.hi),
        brute_failures: bf[0].failures,
        agrees: is.estimate.ci.contains(bf[0].wer()),
    }
}

/// Runs one pass at `seed`.
#[must_use]
pub fn run_pass(inputs: &Inputs, seed: u64) -> Pass {
    let started = Instant::now();
    let ((grid, grid_summary), grid_s) = timed(|| {
        wer::monte_carlo_wer_grid_with(
            &inputs.params,
            &inputs.grid,
            &WerGridOptions {
                trials: GRID_TRIALS,
                seed,
                jobs: JOBS,
                lanes: LANES,
            },
        )
    });
    let (surface, tail_s) = timed(|| {
        rare::tail_surface(
            &inputs.params,
            &VariationModel::default(),
            &ThermalModel::default(),
            inputs.current,
            &inputs.axes,
            &tail_options(seed),
            None,
        )
        .expect("an uncheckpointed surface cannot fail")
    });
    let (crosscheck, crosscheck_s) = timed(|| crosscheck(inputs));
    Pass {
        grid,
        grid_summary,
        surface,
        crosscheck,
        grid_s,
        tail_s,
        crosscheck_s,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

impl Pass {
    /// The pass's outputs in reference form: grid, surface and
    /// cross-check.
    #[must_use]
    pub fn observed(&self) -> [Observed; 3] {
        let mut grid = Observed::default();
        for (k, e) in self.grid.iter().enumerate() {
            grid.exact(format!("grid.p{k}.trials"), e.trials as f64);
            grid.exact(format!("grid.p{k}.failures"), e.failures as f64);
        }
        let mut surface = Observed::default();
        for (k, row) in self.surface.rows.iter().enumerate() {
            let e = &row.estimate;
            let key = format!("surface.p{k}");
            surface.exact(format!("{key}.samples"), e.samples as f64);
            surface.exact(format!("{key}.wer"), e.wer);
            surface.exact(format!("{key}.self_normalized"), e.self_normalized);
            surface.exact(format!("{key}.std_error"), e.std_error);
            surface.exact(format!("{key}.contribution_ess"), e.contribution_ess);
            for (j, mu) in row.tilt.mu.iter().enumerate() {
                surface.exact(format!("{key}.tilt{j}"), *mu);
            }
        }
        let c = &self.crosscheck;
        let mut cross = Observed::default();
        cross.exact("crosscheck.is_wer", c.is_wer);
        cross.exact("crosscheck.ci_lo", c.ci.0);
        cross.exact("crosscheck.ci_hi", c.ci.1);
        cross.exact("crosscheck.brute_failures", c.brute_failures as f64);
        cross.exact("crosscheck_agrees", f64::from(u8::from(c.agrees)));
        [grid, surface, cross]
    }

    /// Monte-Carlo trials of the brute-force grid.
    #[must_use]
    pub fn mc_trials(&self) -> usize {
        self.grid.iter().map(|e| e.trials).sum()
    }

    /// Importance-sampled draws of the surface's estimation rounds.
    #[must_use]
    pub fn is_samples(&self) -> u64 {
        self.surface.rows.iter().map(|r| r.estimate.samples).sum()
    }
}

/// Statistical check of a seeded pass against the reference campaign:
/// every grid failure count and surface estimate within
/// [`STAT_SIGMAS`] standard errors of the reference's, sample budgets
/// spent exactly, and the (fixed-seed) cross-check bit-identical.
#[must_use]
pub fn statistical_problems(pass: &Pass, reference: &Reference) -> Vec<String> {
    let mut problems = Vec::new();
    let want = |key: &str| reference.value(WORKLOAD, key);
    for (k, e) in pass.grid.iter().enumerate() {
        let Some(ref_failures) = want(&format!("grid.p{k}.failures")) else {
            problems.push(format!("grid.p{k}: no reference"));
            continue;
        };
        let got = e.failures as f64;
        let band = STAT_SIGMAS * (got + ref_failures + 1.0).sqrt();
        if e.trials != GRID_TRIALS || (got - ref_failures).abs() > band {
            problems.push(format!(
                "grid.p{k}: {got} failures in {} trials, reference {ref_failures}",
                e.trials
            ));
        }
    }
    for (k, row) in pass.surface.rows.iter().enumerate() {
        let e = &row.estimate;
        let key = format!("surface.p{k}");
        let (Some(ref_wer), Some(ref_se)) = (
            want(&format!("{key}.wer")),
            want(&format!("{key}.std_error")),
        ) else {
            problems.push(format!("{key}: no reference"));
            continue;
        };
        let band = STAT_SIGMAS * e.std_error.hypot(ref_se);
        if e.samples != SURFACE_SAMPLES as u64
            || !e.wer.is_finite()
            || e.wer <= 0.0
            || (e.wer - ref_wer).abs() > band
        {
            problems.push(format!(
                "{key}: wer {:e} ± {:e} over {} samples, reference {ref_wer:e} ± {ref_se:e}",
                e.wer, e.std_error, e.samples
            ));
        }
    }
    problems.extend(reference.compare(WORKLOAD, &pass.observed()[2]));
    problems
}

/// Collects every output of the reference campaign (the `--record`
/// path).
#[must_use]
pub fn record() -> Vec<Observed> {
    run_pass(&prepare(REFERENCE_SEED), REFERENCE_SEED)
        .observed()
        .to_vec()
}

/// Surface points whose tilt differs from the set-up's search at the
/// same seed.
#[must_use]
pub fn tilt_problems(pass: &Pass, inputs: &Inputs) -> Vec<String> {
    let rows = &pass.surface.rows;
    if rows.len() != inputs.tilts.len() {
        return vec![format!(
            "surface has {} points, set-up searched {}",
            rows.len(),
            inputs.tilts.len()
        )];
    }
    rows.iter()
        .zip(&inputs.tilts)
        .enumerate()
        .filter(|(_, (row, want))| row.tilt.mu != want.mu)
        .map(|(k, (row, want))| {
            format!(
                "surface.p{k}: tilt {:?}, the set-up's search found {:?}",
                row.tilt.mu, want.mu
            )
        })
        .collect()
}

/// Checks one pass at the inputs' seed: statistically against the
/// reference, its tilts against the set-up's, and bit for bit against
/// the run's first pass (same seed, same draws).
fn check_pass(
    pass: &Pass,
    inputs: &Inputs,
    first: Option<&Pass>,
    reference: &Reference,
    checks: &mut Checks,
) {
    let mut problems = statistical_problems(pass, reference);
    problems.extend(tilt_problems(pass, inputs));
    if let Some(first) = first {
        if pass.observed() != first.observed() {
            problems.push("a repeated pass at the same seed produced different estimates".into());
        }
    }
    checks.record(&format!("{WORKLOAD}.pass"), problems);
}

/// Re-runs the reference campaign and compares it bit for bit.
fn check_reference_campaign(inputs: &Inputs, reference: &Reference, checks: &mut Checks) {
    let pass = run_pass(inputs, REFERENCE_SEED);
    for obs in pass.observed() {
        checks.record(
            &format!("{WORKLOAD}.reference_campaign"),
            reference.compare(WORKLOAD, &obs),
        );
    }
}

/// Runs the workload for `seconds` (at least one pass) at `seed`.
#[must_use]
pub fn run(seed: u64, seconds: f64, trace: bool, reference: &Reference) -> Outcome {
    let mut out = Outcome::default();
    let setup_s = stats::setup_seconds(|| {
        std::hint::black_box(prepare(seed));
    });
    let inputs = prepare(seed);
    if trace {
        run_traced(&inputs, seconds, reference, &mut out);
    } else {
        out.metrics.set("setup_s", setup_s, "s");
        let started = Instant::now();
        let mut latencies = Vec::new();
        let mut first: Option<Pass> = None;
        loop {
            let pass = run_pass(&inputs, seed);
            latencies.push(pass.wall_s);
            if latencies.len() == 1 {
                out.metrics
                    .set("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
            }
            check_pass(&pass, &inputs, first.as_ref(), reference, &mut out.checks);
            out.notes.push(format!(
                "pass {}: {:.3} s (grid {:.3} s, tail {:.3} s, cross-check {:.3} s)",
                latencies.len(),
                pass.wall_s,
                pass.grid_s,
                pass.tail_s,
                pass.crosscheck_s
            ));
            first.get_or_insert(pass);
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        crate::set_latency_metrics(&mut out, &latencies);
    }
    check_reference_campaign(&inputs, reference, &mut out.checks);
    out
}

/// The traced run: untraced and traced passes alternate for `seconds`;
/// host times and rates are medians over the untraced passes,
/// `trace_overhead` is the ratio of the median pass walls, and the
/// spice and service counters of the last traced pass's telemetry are
/// reported as measured (they read 0: no circuit, no service). Then
/// the tilt-search probe.
fn run_traced(inputs: &Inputs, seconds: f64, reference: &Reference, out: &mut Outcome) {
    let seed = inputs.seed;
    let started = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut last_delta;
    loop {
        let pass = run_pass(inputs, seed);
        check_pass(&pass, inputs, plain.first(), reference, &mut out.checks);
        plain.push(pass);
        let (traced_pass, delta, wall) = traced(|| run_pass(inputs, seed));
        check_pass(
            &traced_pass,
            inputs,
            plain.first(),
            reference,
            &mut out.checks,
        );
        traced_walls.push(wall);
        last_delta = delta;
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let median_of = |f: fn(&Pass) -> f64| stats::median(&plain.iter().map(f).collect::<Vec<_>>());
    let (wall_s, grid_s, tail_s) = (
        median_of(|p| p.wall_s),
        median_of(|p| p.grid_s),
        median_of(|p| p.tail_s),
    );
    let pass = &plain[0];
    let m = &mut out.metrics;
    m.set(
        "trace_overhead",
        stats::median(&traced_walls) / wall_s,
        "ratio",
    );
    last_delta.set_spice_metrics(m, 1);
    last_delta.set_serve_metrics(m, 1, true);
    m.set("mtj.grid_s", grid_s, "s");
    m.set("mtj.mc_trials", pass.mc_trials() as f64, "count");
    m.set("mtj.tail_s", tail_s, "s");
    m.set("mc_trials_per_s", pass.mc_trials() as f64 / grid_s, "1/s");
    m.set("is_samples_per_s", pass.is_samples() as f64 / tail_s, "1/s");
    let rows = &pass.surface.rows;
    m.set(
        "mtj.ess_ratio",
        rows.iter()
            .map(|r| r.estimate.contribution_ess / r.estimate.samples.max(1) as f64)
            .sum::<f64>()
            / rows.len().max(1) as f64,
        "ratio",
    );
    crate::set_sweep_metrics(m, &[pass.grid_summary, pass.surface.summary]);

    // The tilt search alone over the 20 points, serial (as
    // tail_surface runs it inside each worker).
    let tilt_s = stats::median_time(7, 0.02, || {
        std::hint::black_box(search_tilts(&inputs.axes, &inputs.envs, seed));
    });
    m.set("mtj.tilt_search_s", tilt_s, "s");
}
