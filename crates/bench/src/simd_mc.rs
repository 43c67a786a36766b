//! Lane-batched Monte-Carlo benchmark: the WER grid timed under four
//! engine configurations, plus the bit-identity cross-check.
//!
//! The four configurations isolate where the throughput comes from:
//!
//! - **scalar serial** — reference kernel, one worker;
//! - **threads** — reference kernel fanned over the sweep pool
//!   (`--jobs` parallelism alone, the pre-lane baseline);
//! - **lanes serial** — the SIMD structure-of-arrays kernel
//!   ([`mtj::lanes`]), one worker;
//! - **combined** — lanes × workers, the shipping configuration.
//!
//! Every configuration must return the *same failure counts* — the
//! counter-seeded per-trial streams make results independent of both
//! lane width and worker count — and the report records that check as
//! `bit_identical`. The headline figure is `speedup_vs_threads`
//! (threads-alone wall over combined wall): the contract the committed
//! baseline asserts is ≥ 4×, which the lane kernel clears by hoisting
//! the per-step switch probability (two `exp` evaluations per step per
//! trial in the scalar path) out of the trial loop and stepping `LANES`
//! trials per RNG round.
//!
//! The [`SimdMcReport::section`] output lands in `BENCH_report.json` as
//! the `simd_mc` section; `ci.sh` additionally runs the differential
//! mode of the `simd_mc` binary (`--check`), which diffs the grid across
//! every supported lane width × worker count combination exactly.

use std::time::Instant;

use mtj::{wer, MtjParams, SwitchingModel};
use telemetry::Section;
use units::{Current, Time};

/// Knobs for one [`run`].
#[derive(Debug, Clone)]
pub struct SimdMcOptions {
    /// Stochastic write trials per grid point.
    pub trials: usize,
    /// Campaign base seed (per-point and per-trial seeds derive from it).
    pub seed: u64,
    /// Worker count for the threaded configurations (`0` = auto).
    pub jobs: usize,
    /// Lane width for the batched configurations (`0` = default; rounded
    /// to a supported width by [`mtj::lanes::resolve_lanes`]).
    pub lanes: usize,
    /// WER grid points (pulse widths at the nominal write current).
    pub points: usize,
    /// Timing repeats per configuration; the best run is reported.
    pub repeats: usize,
}

impl Default for SimdMcOptions {
    fn default() -> Self {
        Self {
            trials: 4000,
            seed: 2018,
            jobs: 0,
            lanes: 0,
            points: 6,
            repeats: 3,
        }
    }
}

impl SimdMcOptions {
    /// The CI / report configuration: finishes in seconds while keeping
    /// per-configuration wall times well above timer resolution.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            trials: 2000,
            points: 4,
            repeats: 2,
            ..Self::default()
        }
    }
}

/// Wall-clock and failure counts of one engine configuration.
#[derive(Debug, Clone)]
pub struct ConfigStats {
    /// Best wall-clock over the timing repeats, seconds.
    pub wall_s: f64,
    /// Per-point failure counts (the bit-identity payload).
    pub failures: Vec<u64>,
    /// Workers the sweep pool actually used.
    pub workers: usize,
}

/// The full benchmark result.
#[derive(Debug, Clone)]
pub struct SimdMcReport {
    /// Grid points timed.
    pub points: usize,
    /// Trials per point.
    pub trials: usize,
    /// Resolved lane width of the batched configurations.
    pub lanes: usize,
    /// Scalar kernel, one worker.
    pub scalar_serial: ConfigStats,
    /// Scalar kernel over the sweep pool — thread parallelism alone.
    pub threads: ConfigStats,
    /// Lane kernel, one worker.
    pub lanes_serial: ConfigStats,
    /// Lane kernel over the sweep pool.
    pub combined: ConfigStats,
    /// All four configurations returned identical failure counts.
    pub bit_identical: bool,
}

impl SimdMcReport {
    /// Combined wall over threads-alone wall — the headline the
    /// committed baseline holds at ≥ 4×.
    #[must_use]
    pub fn speedup_vs_threads(&self) -> f64 {
        self.threads.wall_s / self.combined.wall_s.max(1e-12)
    }

    /// Lane kernel speedup with parallelism factored out.
    #[must_use]
    pub fn lane_speedup_serial(&self) -> f64 {
        self.scalar_serial.wall_s / self.lanes_serial.wall_s.max(1e-12)
    }

    /// Trials per second in the combined configuration.
    #[must_use]
    pub fn combined_throughput(&self) -> f64 {
        (self.points * self.trials) as f64 / self.combined.wall_s.max(1e-12)
    }

    /// Markdown block for `REPORT.md`.
    #[must_use]
    pub fn markdown(&self) -> String {
        let row = |name: &str, c: &ConfigStats| {
            format!(
                "| {name} | {:.2} | {} | {:.0} |\n",
                c.wall_s * 1e3,
                c.workers,
                (self.points * self.trials) as f64 / c.wall_s.max(1e-12),
            )
        };
        let mut md = String::new();
        md.push_str(&format!(
            "{} points x {} trials, lane width {}\n\n",
            self.points, self.trials, self.lanes
        ));
        md.push_str("| configuration | wall (ms) | workers | trials/s |\n|---|--:|--:|--:|\n");
        md.push_str(&row("scalar serial", &self.scalar_serial));
        md.push_str(&row("threads only", &self.threads));
        md.push_str(&row("lanes serial", &self.lanes_serial));
        md.push_str(&row("lanes x threads", &self.combined));
        md.push_str(&format!(
            "\n* speedup over threads alone: {:.2}x (target >= 4x)\n\
             * lane speedup, parallelism factored out: {:.2}x\n\
             * failure counts identical across all configurations: {}\n",
            self.speedup_vs_threads(),
            self.lane_speedup_serial(),
            if self.bit_identical { "yes" } else { "NO" },
        ));
        md
    }

    /// The `simd_mc` section for `BENCH_report.json`.
    #[must_use]
    pub fn section(&self) -> Section {
        Section::new("simd_mc")
            .metric("points", self.points as u64)
            .metric("trials", self.trials as u64)
            .metric("lanes", self.lanes as u64)
            .metric("workers", self.combined.workers as u64)
            .metric("scalar_serial_s", self.scalar_serial.wall_s)
            .metric("threads_s", self.threads.wall_s)
            .metric("lanes_serial_s", self.lanes_serial.wall_s)
            .metric("combined_s", self.combined.wall_s)
            .metric("speedup_vs_threads", self.speedup_vs_threads())
            .metric("lane_speedup_serial", self.lane_speedup_serial())
            .metric("combined_trials_per_s", self.combined_throughput())
            .metric("bit_identical", u64::from(self.bit_identical))
    }
}

/// The benchmark grid: pulse widths from deep-failure to deep-success
/// regimes at the nominal write current, so trials retire at varied
/// step counts (the lane refill path earns its keep).
#[must_use]
pub fn grid(params: &MtjParams, points: usize) -> Vec<(Current, Time)> {
    let model = SwitchingModel::new(params);
    let drive = params.nominal_write_current();
    let tau = model.mean_switching_time(drive);
    (1..=points)
        .map(|k| (drive, tau * (0.6 * k as f64)))
        .collect()
}

/// Times one engine configuration, returning its best wall-clock and
/// the failure counts it produced.
fn time_config(
    params: &MtjParams,
    points: &[(Current, Time)],
    opts: &SimdMcOptions,
    jobs: usize,
    lanes: usize,
) -> ConfigStats {
    let grid_opts = wer::WerGridOptions {
        trials: opts.trials,
        seed: opts.seed,
        jobs,
        lanes,
    };
    let mut best = f64::INFINITY;
    let mut failures = Vec::new();
    let mut workers = 1;
    for _ in 0..opts.repeats.max(1) {
        let t0 = Instant::now();
        let (estimates, summary) = wer::monte_carlo_wer_grid_with(params, points, &grid_opts);
        let dt = t0.elapsed().as_secs_f64();
        if dt < best {
            best = dt;
        }
        failures = estimates.iter().map(|e| e.failures as u64).collect();
        workers = summary.workers;
    }
    ConfigStats {
        wall_s: best,
        failures,
        workers,
    }
}

/// Runs the four-configuration benchmark and the bit-identity check.
#[must_use]
pub fn run(opts: &SimdMcOptions) -> SimdMcReport {
    let params = MtjParams::date2018();
    let points = grid(&params, opts.points);
    let lanes = mtj::lanes::resolve_lanes(opts.lanes);

    let scalar_serial = time_config(&params, &points, opts, 1, 1);
    let threads = time_config(&params, &points, opts, opts.jobs, 1);
    let lanes_serial = time_config(&params, &points, opts, 1, lanes);
    let combined = time_config(&params, &points, opts, opts.jobs, lanes);

    let bit_identical = [&threads, &lanes_serial, &combined]
        .iter()
        .all(|c| c.failures == scalar_serial.failures);
    SimdMcReport {
        points: points.len(),
        trials: opts.trials,
        lanes,
        scalar_serial,
        threads,
        lanes_serial,
        combined,
        bit_identical,
    }
}

/// Differential check behind `simd_mc --check`: diffs the WER grid
/// failure counts for every supported lane width × a worker-count pair
/// against the scalar serial reference, returning the mismatches.
#[must_use]
pub fn check(trials: usize, seed: u64, points: usize) -> Vec<String> {
    let params = MtjParams::date2018();
    let grid = grid(&params, points);
    let reference = {
        let o = wer::WerGridOptions {
            trials,
            seed,
            jobs: 1,
            lanes: 1,
        };
        let (est, _) = wer::monte_carlo_wer_grid_with(&params, &grid, &o);
        est
    };
    let mut mismatches = Vec::new();
    for &lanes in &mtj::lanes::SUPPORTED_LANE_COUNTS {
        for jobs in [1usize, 4] {
            let o = wer::WerGridOptions {
                trials,
                seed,
                jobs,
                lanes,
            };
            let (est, _) = wer::monte_carlo_wer_grid_with(&params, &grid, &o);
            if est != reference {
                mismatches.push(format!(
                    "lanes={lanes} jobs={jobs}: failure counts diverge from scalar serial"
                ));
            }
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_run_is_bit_identical_and_well_formed() {
        let opts = SimdMcOptions {
            trials: 60,
            seed: 11,
            jobs: 2,
            lanes: 8,
            points: 2,
            repeats: 1,
        };
        let report = run(&opts);
        assert!(report.bit_identical);
        assert_eq!(report.points, 2);
        assert_eq!(report.lanes, 8);
        assert_eq!(report.scalar_serial.failures.len(), 2);
        assert!(report.combined.wall_s > 0.0);
        let md = report.markdown();
        assert!(md.contains("lanes x threads"));
    }

    #[test]
    fn the_differential_check_passes_on_the_real_kernels() {
        assert!(check(50, 3, 2).is_empty());
    }
}
