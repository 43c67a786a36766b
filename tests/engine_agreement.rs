//! Engine agreement on whole characterizations.
//!
//! The LU engine and the transient step policy are `LatchConfig` fields,
//! so the same Table II and NV-word characterizations run under each
//! engine side by side in one process. Every `CellMetrics` quantity
//! must agree:
//!
//! - dense vs sparse LU to `1e-6` relative — both solve the same
//!   Newton systems and differ only in rounding (the measured worst gap
//!   is ~2e-8);
//! - fixed vs adaptive stepping to 5 % on Table II — waveform-derived
//!   numbers (threshold-crossing delays, energy integrals, latencies
//!   quantized by the sample grid) legitimately move by a few percent
//!   between discretizations (measured worst ~4.1 %, the standard
//!   pair's write energy at the typical corner).
//!
//! Each test also checks from the solver counters that the engine it
//! asked for is the one that ran: only the sparse LU reuses a frozen
//! pattern, and the adaptive controller takes fewer steps than the
//! uniform grid.
//!
//! The n = 8 word is `#[ignore]`d because the dense engine takes tens of
//! seconds on it in a debug build; run it with
//!
//! ```text
//! cargo test --release --test engine_agreement -- --include-ignored
//! ```

use cells::{CellMetrics, Corner, LatchComparison, LatchConfig, NvWord, WordParams};
use spice::{SolverKind, SolverStats, StepControl};

/// Dense vs sparse LU bound, relative.
const SOLVER_REL_TOL: f64 = 1e-6;
/// Fixed vs adaptive stepping bound, relative.
const STEP_REL_TOL: f64 = 0.05;

fn config(solver: SolverKind, step_control: StepControl) -> LatchConfig {
    LatchConfig {
        solver,
        step_control,
        ..LatchConfig::default()
    }
}

/// Table II `--quick`: both designs at the three diagonal corners.
fn table2_quick(config: &LatchConfig) -> LatchComparison {
    let corners = [Corner::slow(), Corner::typical(), Corner::fast()];
    LatchComparison::evaluate_with_jobs(config, &corners, 2).expect("table2 quick")
}

/// The characterized quantities of one cell, by name.
fn quantities(m: &CellMetrics) -> [(&'static str, f64); 5] {
    [
        ("read_energy", m.read_energy.joules()),
        ("read_delay", m.read_delay.seconds()),
        ("leakage", m.leakage.watts()),
        ("write_energy", m.write_energy.joules()),
        ("write_latency", m.write_latency.seconds()),
    ]
}

fn assert_metrics_close(label: &str, want: &CellMetrics, got: &CellMetrics, rel_tol: f64) {
    assert_eq!(
        want.read_transistors, got.read_transistors,
        "{label}: read transistors"
    );
    for ((name, a), (_, b)) in quantities(want).into_iter().zip(quantities(got)) {
        let scale = a.abs().max(b.abs());
        assert!(
            (a - b).abs() <= rel_tol * scale,
            "{label}: {name} {a:e} vs {b:e} (relative gap {:e}, bound {rel_tol:e})",
            (a - b).abs() / scale
        );
    }
}

/// Solver work summed over both designs and every corner.
fn total_work(table: &LatchComparison) -> SolverStats {
    table
        .standard
        .iter()
        .chain(&table.proposed)
        .fold(SolverStats::default(), |acc, (_, m)| acc + m.solver)
}

/// Only the sparse engine counts pattern reuses.
fn assert_ran_on(dense: SolverStats, sparse: SolverStats) {
    assert_eq!(dense.pattern_reuses, 0, "dense run used the sparse LU");
    assert!(sparse.pattern_reuses > 0, "sparse run used the dense LU");
}

fn assert_tables_close(want: &LatchComparison, got: &LatchComparison, rel_tol: f64) {
    for (design, w, g) in [
        ("standard", &want.standard, &got.standard),
        ("proposed", &want.proposed, &got.proposed),
    ] {
        assert_eq!(w.len(), g.len(), "{design}: corner count");
        for ((wc, wm), (gc, gm)) in w.iter().zip(g) {
            assert_eq!(wc, gc, "{design}: corner order");
            assert_metrics_close(&format!("{design} @ {wc}"), wm, gm, rel_tol);
        }
    }
}

/// Characterizes the `bits`-wide NV word on both LU engines and
/// compares every quantity.
fn assert_word_engines_agree(bits: usize) {
    let characterize = |solver| {
        NvWord::new(
            WordParams::new(bits),
            config(solver, StepControl::default()),
        )
        .characterize()
        .expect("word characterization")
    };
    let dense = characterize(SolverKind::Dense);
    let sparse = characterize(SolverKind::Sparse);
    assert_ran_on(dense.solver, sparse.solver);
    assert_metrics_close(&format!("nv_word_{bits}"), &dense, &sparse, SOLVER_REL_TOL);
}

#[test]
fn table2_quick_sparse_matches_dense() {
    let dense = table2_quick(&config(SolverKind::Dense, StepControl::default()));
    let sparse = table2_quick(&config(SolverKind::Sparse, StepControl::default()));
    assert_ran_on(total_work(&dense), total_work(&sparse));
    assert_tables_close(&dense, &sparse, SOLVER_REL_TOL);
}

#[test]
fn table2_quick_adaptive_matches_fixed() {
    let fixed = table2_quick(&config(SolverKind::default(), StepControl::Fixed));
    let adaptive = table2_quick(&config(SolverKind::default(), StepControl::Adaptive));
    assert!(
        total_work(&adaptive).accepted_steps < total_work(&fixed).accepted_steps,
        "the adaptive run did not coarsen the uniform grid"
    );
    assert_tables_close(&fixed, &adaptive, STEP_REL_TOL);
}

#[test]
fn word_family_sparse_matches_dense() {
    for bits in [1, 2, 4] {
        assert_word_engines_agree(bits);
    }
}

#[test]
#[ignore = "dense LU on the 132-unknown word is slow in debug builds"]
fn wide_word_sparse_matches_dense() {
    assert_word_engines_agree(8);
}
