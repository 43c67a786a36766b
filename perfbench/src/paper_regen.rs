//! `paper_regen`: regenerates the paper in one pass — Table II (both
//! designs at all 9 corners, `LatchComparison::evaluate_with_jobs`),
//! Table III (replay plus the measured netlist → place → merge flow
//! over the 13 benchmarks) and the NV-word family at every width of
//! [`WIDTHS`] (typical corner) — with fresh harnesses every pass.
//!
//! An operation is one pass; its latency is the pass's host wall time.
//! The inputs are fixed (the paper's designs, corners and benchmarks),
//! so every seed regenerates the same tables.

use std::time::Instant;

use cells::{CellError, CellMetrics, Corner, LatchComparison, LatchConfig, NvWord, WordParams};
use merge::{MergeOptions, Strategy};
use netlist::benchmarks::Benchmark;
use nvff::paper;
use nvff::system::{self, BenchmarkResult, EvaluationMode, SystemCosts};
use place::PlacerOptions;

pub use crate::catalog::WIDTHS;
use crate::reference::Reference;
use crate::stats;
use crate::{timed, traced, Checks, Observed, Outcome, JOBS};

/// Workload name.
pub const WORKLOAD: &str = "paper_regen";

/// Combinational-gate cap of the synthetic Table III benchmarks (the
/// `table3` binary's default).
pub const TABLE3_MAX_GATES: usize = 40_000;

/// Per-layer name prefixes this workload does not measure: it runs no
/// Monte-Carlo campaign and no service (the traced pass's telemetry
/// still reports the service counters, as zeros).
pub const NOT_MEASURED: &[&str] = &["mc_trials_per_s", "is_samples_per_s", "mtj.", "serve."];

/// Structural facts of one family width, found at set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidthStructure {
    /// Word width.
    pub bits: usize,
    /// MNA unknowns of the generator's word circuit.
    pub unknowns: usize,
    /// Structural nonzeros of its MNA matrix.
    pub csr_nnz: usize,
}

/// Set-up: builds every family width's generator circuit and its MNA
/// pattern — the inputs a pass simulates, checked structurally before
/// any timing.
///
/// # Errors
///
/// Propagates circuit-construction failures.
pub fn prepare(config: &LatchConfig) -> Result<Vec<WidthStructure>, CellError> {
    WIDTHS
        .iter()
        .map(|&bits| {
            let params = WordParams::new(bits);
            let stim = cells::WordStimulus::idle(&params, config.vdd());
            let ckt = cells::generator::word_circuit(&params, config, &stim, &vec![false; bits])?;
            let pattern = spice::analysis::matrix_pattern(&ckt);
            Ok(WidthStructure {
                bits,
                unknowns: pattern.dim(),
                csr_nnz: pattern.nnz(),
            })
        })
        .collect()
}

/// The structural outputs, in reference form.
#[must_use]
pub fn structure_observed(structure: &[WidthStructure]) -> Observed {
    let mut obs = Observed::default();
    for s in structure {
        obs.exact(format!("n{}.unknowns", s.bits), s.unknowns as f64);
        obs.exact(format!("n{}.csr_nnz", s.bits), s.csr_nnz as f64);
    }
    obs
}

/// Table III rows of one pass.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Paper merge counts with the paper's cell costs.
    pub replay: Vec<BenchmarkResult>,
    /// This repository's place-and-merge flow with the paper's costs.
    pub measured: Vec<BenchmarkResult>,
}

/// One family width's characterization.
#[derive(Debug, Clone)]
pub struct FamilyPoint {
    /// Word width.
    pub bits: usize,
    /// Per-word metrics.
    pub metrics: CellMetrics,
    /// Host seconds of `NvWord::characterize` on a fresh harness.
    pub seconds: f64,
}

impl FamilyPoint {
    /// This width's outputs in reference form.
    #[must_use]
    pub fn observed(&self) -> Observed {
        let mut obs = Observed::default();
        metrics_observed(&mut obs, &format!("family.n{}", self.bits), &self.metrics);
        obs
    }
}

/// Everything one pass produced.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Table II.
    pub comparison: LatchComparison,
    /// Table III.
    pub table3: Table3,
    /// The family, in [`WIDTHS`] order.
    pub family: Vec<FamilyPoint>,
    /// Host seconds of Table II.
    pub table2_s: f64,
    /// Host seconds of Table III.
    pub table3_s: f64,
    /// Host seconds of the family.
    pub family_s: f64,
    /// Host seconds of the whole pass.
    pub wall_s: f64,
}

/// Regenerates Table II.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn table2(config: &LatchConfig) -> Result<LatchComparison, CellError> {
    LatchComparison::evaluate_with_jobs(config, &Corner::all(), JOBS)
}

/// Regenerates Table III (replay and measured, the paper's cell costs).
#[must_use]
pub fn table3() -> Table3 {
    let costs = SystemCosts::paper();
    Table3 {
        replay: system::table3(&costs, EvaluationMode::Replay),
        measured: system::table3(
            &costs,
            EvaluationMode::Measured {
                max_gates: TABLE3_MAX_GATES,
            },
        ),
    }
}

/// Characterizes one family width on a fresh harness.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn family_width(config: &LatchConfig, bits: usize) -> Result<FamilyPoint, CellError> {
    let word = NvWord::new(WordParams::new(bits), config.clone());
    let (metrics, seconds) = timed(|| word.characterize());
    Ok(FamilyPoint {
        bits,
        metrics: metrics?,
        seconds,
    })
}

/// Runs one pass. `before_width` / `after_width` run around each
/// family width (the traced run reads telemetry there).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_pass_with(
    config: &LatchConfig,
    mut around_width: impl FnMut(usize, bool),
) -> Result<Pass, CellError> {
    let started = Instant::now();
    let (comparison, table2_s) = timed(|| table2(config));
    let comparison = comparison?;
    let (table3, table3_s) = timed(table3);
    let family_start = Instant::now();
    let mut family = Vec::with_capacity(WIDTHS.len());
    for bits in WIDTHS {
        around_width(bits, true);
        family.push(family_width(config, bits)?);
        around_width(bits, false);
    }
    Ok(Pass {
        comparison,
        table3,
        family,
        table2_s,
        table3_s,
        family_s: family_start.elapsed().as_secs_f64(),
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Runs one pass.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_pass(config: &LatchConfig) -> Result<Pass, CellError> {
    run_pass_with(config, |_, _| {})
}

fn metrics_observed(obs: &mut Observed, prefix: &str, m: &CellMetrics) {
    obs.approx(format!("{prefix}.read_energy_j"), m.read_energy.joules());
    obs.approx(format!("{prefix}.read_delay_s"), m.read_delay.seconds());
    obs.approx(format!("{prefix}.leakage_w"), m.leakage.watts());
    obs.approx(format!("{prefix}.write_energy_j"), m.write_energy.joules());
    obs.approx(
        format!("{prefix}.write_latency_s"),
        m.write_latency.seconds(),
    );
    obs.exact(
        format!("{prefix}.read_transistors"),
        m.read_transistors as f64,
    );
    obs.solver(prefix, &m.solver);
}

fn rows_observed(obs: &mut Observed, prefix: &str, rows: &[BenchmarkResult]) {
    for row in rows {
        let key = format!("{prefix}.{}", row.name);
        obs.exact(format!("{key}.total_ffs"), row.total_ffs as f64);
        obs.exact(format!("{key}.merged_pairs"), row.merged_pairs as f64);
        obs.exact(
            format!("{key}.merged_area_um2"),
            row.merged_area.square_micro_meters(),
        );
        obs.exact(
            format!("{key}.merged_energy_fj"),
            row.merged_energy.femto_joules(),
        );
    }
}

impl Pass {
    /// The pass's outputs as `(operation, outputs)` in reference form.
    #[must_use]
    pub fn observed(&self) -> Vec<(String, Observed)> {
        let mut t2 = Observed::default();
        for (design, rows) in [
            ("standard", &self.comparison.standard),
            ("proposed", &self.comparison.proposed),
        ] {
            for (corner, m) in rows {
                metrics_observed(&mut t2, &format!("t2.{design}.{corner}"), m);
            }
        }
        let mut t3 = Observed::default();
        rows_observed(&mut t3, "t3.replay", &self.table3.replay);
        rows_observed(&mut t3, "t3.measured", &self.table3.measured);
        let mut out = vec![("table2".to_owned(), t2), ("table3".to_owned(), t3)];
        for p in &self.family {
            out.push((format!("family.n{}", p.bits), p.observed()));
        }
        out
    }

    /// Solver work summed over Table II and the family.
    #[must_use]
    pub fn solver_total(&self) -> spice::SolverStats {
        let mut total = spice::SolverStats::default();
        for (_, m) in self
            .comparison
            .standard
            .iter()
            .chain(&self.comparison.proposed)
        {
            total.accumulate(m.solver);
        }
        for p in &self.family {
            total.accumulate(p.metrics.solver);
        }
        total
    }

    /// Merged pairs found by the measured Table III flow.
    #[must_use]
    pub fn merged_pairs(&self) -> usize {
        self.table3.measured.iter().map(|r| r.merged_pairs).sum()
    }

    /// Largest relative error of the measured Table II envelopes and
    /// measured Table III rows against the published values in
    /// [`nvff::paper`].
    #[must_use]
    pub fn paper_max_rel_err(&self) -> f64 {
        let published = paper::table2();
        let c = &self.comparison;
        type Pick = fn(&CellMetrics) -> f64;
        let picks: [(Pick, paper::Table2Triple, paper::Table2Triple); 3] = [
            (
                |m| m.read_energy.femto_joules(),
                published.standard_read_energy_fj,
                published.proposed_read_energy_fj,
            ),
            (
                |m| m.read_delay.pico_seconds(),
                published.standard_read_delay_ps,
                published.proposed_read_delay_ps,
            ),
            (
                |m| m.leakage.pico_watts(),
                published.standard_leakage_pw,
                published.proposed_leakage_pw,
            ),
        ];
        let rel = |got: f64, want: f64| (got - want).abs() / want.abs();
        let mut worst = 0.0_f64;
        for (pick, std_paper, prop_paper) in picks {
            for (env, want) in [
                (c.standard_envelope(pick), std_paper),
                (c.proposed_envelope(pick), prop_paper),
            ] {
                worst = worst
                    .max(rel(env.worst, want.worst))
                    .max(rel(env.typical, want.typical))
                    .max(rel(env.best, want.best));
            }
        }
        for (row, want) in self.table3.measured.iter().zip(paper::table3()) {
            worst = worst
                .max(rel(
                    row.merged_area.square_micro_meters(),
                    want.merged_area_um2,
                ))
                .max(rel(row.merged_energy.femto_joules(), want.merged_energy_fj));
        }
        worst
    }
}

/// Compares a pass against the reference, one operation per table
/// and per family width.
pub fn check_pass(pass: &Pass, reference: &Reference, checks: &mut Checks) {
    for (op, obs) in pass.observed() {
        checks.record(
            &format!("{WORKLOAD}.{op}"),
            reference.compare(WORKLOAD, &obs),
        );
    }
}

/// Collects every output of the reference run (the `--record` path):
/// the set-up structure and one pass.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn record() -> Result<Vec<Observed>, CellError> {
    let config = LatchConfig::default();
    let mut out = vec![structure_observed(&prepare(&config)?)];
    out.extend(run_pass(&config)?.observed().into_iter().map(|(_, o)| o));
    Ok(out)
}

/// Runs the workload for `seconds` (at least one pass).
#[must_use]
pub fn run(seconds: f64, trace: bool, reference: &Reference) -> Outcome {
    let config = LatchConfig::default();
    let mut out = Outcome::default();
    match prepare(&config) {
        Ok(structure) => {
            let problems = reference.compare(WORKLOAD, &structure_observed(&structure));
            out.checks
                .record(&format!("{WORKLOAD}.structure"), problems);
            if trace {
                for w in &structure {
                    out.metrics.set(
                        format!("spice.unknowns.n{}", w.bits),
                        w.unknowns as f64,
                        "count",
                    );
                    out.metrics.set(
                        format!("spice.csr_nnz.n{}", w.bits),
                        w.csr_nnz as f64,
                        "count",
                    );
                }
            }
        }
        Err(e) => {
            out.checks.fail(&format!("{WORKLOAD}.structure"), e);
            return out;
        }
    }
    if trace {
        run_traced(&config, reference, &mut out);
        return out;
    }
    let setup_s = stats::setup_seconds(|| {
        std::hint::black_box(prepare(&config).ok());
    });
    out.metrics.set("setup_s", setup_s, "s");

    let started = Instant::now();
    let mut latencies = Vec::new();
    loop {
        match run_pass(&config) {
            Ok(pass) => {
                latencies.push(pass.wall_s);
                if latencies.len() == 1 {
                    out.metrics
                        .set("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
                }
                check_pass(&pass, reference, &mut out.checks);
                out.notes.push(format!(
                    "pass {}: {:.3} s (table2 {:.3} s, table3 {:.3} s, family {:.3} s), paper max rel err {:.4}",
                    latencies.len(),
                    pass.wall_s,
                    pass.table2_s,
                    pass.table3_s,
                    pass.family_s,
                    pass.paper_max_rel_err(),
                ));
            }
            Err(e) => {
                out.checks.fail(&format!("{WORKLOAD}.pass"), e);
                break;
            }
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    crate::set_latency_metrics(&mut out, &latencies);
    out
}

/// The traced run: one untraced pass for the host-time split, one
/// traced pass for the telemetry counters and `trace_overhead`, then
/// the per-layer probes.
fn run_traced(config: &LatchConfig, reference: &Reference, out: &mut Outcome) {
    let pass = match run_pass(config) {
        Ok(pass) => pass,
        Err(e) => return out.checks.fail(&format!("{WORKLOAD}.pass"), e),
    };
    check_pass(&pass, reference, &mut out.checks);
    let m = &mut out.metrics;
    m.set("table2_s", pass.table2_s, "s");
    m.set("table3_s", pass.table3_s, "s");
    m.set("family_s", pass.family_s, "s");
    m.set("paper_max_rel_err", pass.paper_max_rel_err(), "ratio");
    m.set("merge.merged_pairs", pass.merged_pairs() as f64, "count");
    crate::set_solver_metrics(m, &pass.solver_total());
    crate::set_sweep_metrics(m, &[pass.comparison.parallel]);
    for p in &pass.family {
        m.set(format!("cells.characterize_s.n{}", p.bits), p.seconds, "s");
        m.set(
            format!("spice.host_us_per_newton.n{}", p.bits),
            p.seconds * 1e6 / p.metrics.solver.newton_iterations.max(1) as f64,
            "us",
        );
    }

    // Traced pass: per-width L+U fill from the `spice.lu_nnz` histogram
    // (one sample per symbolic build or re-pivot of that width).
    let mut lu_nnz = Vec::new();
    let mut mark = (0, 0.0);
    let (traced_pass, delta, traced_wall) = traced(|| {
        run_pass_with(config, |bits, before| {
            let now = crate::histogram(&telemetry::snapshot(), "spice.lu_nnz");
            if before {
                mark = now;
            } else {
                let (count, sum) = (now.0 - mark.0, now.1 - mark.1);
                lu_nnz.push((bits, if count == 0 { 0.0 } else { sum / count as f64 }));
            }
        })
    });
    match traced_pass {
        Ok(traced_pass) => check_pass(&traced_pass, reference, &mut out.checks),
        Err(e) => out.checks.fail(&format!("{WORKLOAD}.traced_pass"), e),
    }
    let m = &mut out.metrics;
    m.set("trace_overhead", traced_wall / pass.wall_s, "ratio");
    delta.set_spice_metrics(m, 1);
    delta.set_serve_metrics(m, 1, true);
    for (bits, nnz) in lu_nnz {
        m.set(format!("spice.lu_nnz.n{bits}"), nnz, "count");
        let csr = m.get(&format!("spice.csr_nnz.n{bits}")).unwrap_or(0.0);
        m.set(
            format!("spice.fill_ratio.n{bits}"),
            if csr > 0.0 { nnz / csr } else { 0.0 },
            "ratio",
        );
    }

    if let Err(e) = layer_probes(config, out) {
        out.checks.fail(&format!("{WORKLOAD}.layer_probe"), e);
    }
}

/// Direct, untraced calls into each layer's public API.
fn layer_probes(config: &LatchConfig, out: &mut Outcome) -> Result<(), CellError> {
    let vdd = config.vdd();
    for bits in WIDTHS {
        // spice: a SimulationSession on the generator's word circuit,
        // driven through one store transient.
        let params = WordParams::new(bits);
        let controls = cells::control::store(&config.timing, vdd);
        let data = vec![true; bits];
        let initial = vec![false; bits];
        let stim = cells::WordStimulus::store(&params, &controls, vdd, &data);
        let ckt = cells::generator::word_circuit(&params, config, &stim, &initial)?;
        let (mut session, build_s) = timed(|| spice::SimulationSession::new(ckt));
        let options = config.transient_options(spice::analysis::StartCondition::OperatingPoint);
        let (result, transient_s) = timed(|| {
            session.transient_with_options(controls.total, config.time_step * 5.0, options)
        });
        result.map_err(CellError::from)?;
        out.metrics
            .set(format!("spice.session_build_s.n{bits}"), build_s, "s");
        out.metrics
            .set(format!("spice.transient_s.n{bits}"), transient_s, "s");

        // cells: the public phase calls on a fresh harness.
        let word = NvWord::new(params, config.clone());
        let (r, restore_s) = timed(|| word.simulate_restore(&data));
        r?;
        let (s, store_s) = timed(|| word.simulate_store(&data, &initial));
        s?;
        let (l, leakage_s) = timed(|| word.leakage());
        l?;
        out.metrics
            .set(format!("cells.restore_s.n{bits}"), restore_s, "s");
        out.metrics
            .set(format!("cells.store_s.n{bits}"), store_s, "s");
        out.metrics
            .set(format!("cells.leakage_s.n{bits}"), leakage_s, "s");
    }

    let mut standard = Vec::new();
    let mut proposed = Vec::new();
    for corner in Corner::all() {
        let cfg = config.at_corner(corner);
        let (r, s) = timed(|| cells::metrics::characterize_standard_pair(&cfg));
        r?;
        standard.push(s);
        let (r, s) = timed(|| cells::metrics::characterize_proposed(&cfg));
        r?;
        proposed.push(s);
    }
    out.metrics
        .set("cells.corner_s.standard", stats::median(&standard), "s");
    out.metrics
        .set("cells.corner_s.proposed", stats::median(&proposed), "s");

    // netlist → place → merge, the Table III flow split by layer.
    let (mut generate_s, mut place_s, mut plan_s) = (0.0, 0.0, 0.0);
    let library = netlist::CellLibrary::n40();
    let options = MergeOptions {
        threshold: layout::cells::merge_threshold(&layout::DesignRules::n40()),
        strategy: Strategy::GreedyClosest,
    };
    for spec in Benchmark::ALL {
        let (netlist, s) = timed(|| netlist::benchmarks::generate_scaled(spec, TABLE3_MAX_GATES));
        generate_s += s;
        let (placed, s) =
            timed(|| place::placer::place(&netlist, &library, &PlacerOptions::default()));
        place_s += s;
        let (plan, s) = timed(|| merge::plan(&placed, &options));
        plan_s += s;
        std::hint::black_box(plan);
    }
    out.metrics.set("netlist.generate_s", generate_s, "s");
    out.metrics.set("place.place_s", place_s, "s");
    out.metrics.set("merge.plan_s", plan_s, "s");
    Ok(())
}
