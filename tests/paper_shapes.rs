//! The numerical-shape contract from DESIGN.md: our substrate cannot
//! match a TSMC-40nm Spectre testbed in absolute numbers, but every
//! qualitative claim of the paper — who wins, by roughly what factor —
//! must hold. Each test is one numbered expectation.

use cells::metrics::{characterize_proposed, characterize_standard_pair};
use cells::{CellMetrics, LatchConfig};
use layout::DesignRules;
use netlist::benchmarks;
use nvff::system::{self, EvaluationMode, SystemCosts};
use units::Time;

fn typical() -> (CellMetrics, CellMetrics) {
    let config = LatchConfig::default();
    (
        characterize_standard_pair(&config).expect("standard"),
        characterize_proposed(&config).expect("proposed"),
    )
}

/// Expectation 1: proposed 2-bit read energy is 5–30 % below two
/// standard cells (paper: 18.8 % at typical).
#[test]
fn expectation_1_read_energy_saving() {
    let (std_m, prop_m) = typical();
    let saving = 1.0 - prop_m.read_energy / std_m.read_energy;
    assert!(
        (0.05..0.30).contains(&saving),
        "read energy saving = {:.1} %",
        saving * 100.0
    );
}

/// Expectation 2: proposed read delay ≈ 2× the standard's (sequential
/// read), and both complete far inside a nanosecond-class cycle.
#[test]
fn expectation_2_sequential_delay() {
    let (std_m, prop_m) = typical();
    let ratio = prop_m.read_delay / std_m.read_delay;
    assert!((1.5..2.8).contains(&ratio), "delay ratio = {ratio:.2}");
    assert!(prop_m.read_delay < Time::from_nano_seconds(1.0));
    // And far below the 120 ns system wake-up the paper cites.
    assert!(prop_m.read_delay.nano_seconds() < 120.0 / 10.0);
}

/// Expectation 3: leakage of the proposed cell is at or below the
/// standard pair's, and the corner spread is around an order of
/// magnitude (paper: 11.8×).
#[test]
fn expectation_3_leakage_ordering_and_spread() {
    let (std_m, prop_m) = typical();
    assert!(prop_m.leakage.watts() <= std_m.leakage.watts() * 1.02);

    let comparison = cells::LatchComparison::evaluate(
        &LatchConfig::default(),
        &[
            cells::Corner::slow(),
            cells::Corner::typical(),
            cells::Corner::fast(),
        ],
    )
    .expect("corner sweep");
    let envelope = comparison.standard_envelope(|m| m.leakage.watts());
    let spread = envelope.worst / envelope.best;
    assert!(
        (4.0..40.0).contains(&spread),
        "leakage spread = {spread:.1}×"
    );
    // Worst > typical > best ordering.
    assert!(envelope.worst > envelope.typical);
    assert!(envelope.typical > envelope.best);
}

/// Expectation 4: transistor counts are exact (22 vs 16) and the
/// proposed cell area is 15–50 % below two 1-bit cells (paper: 34 %).
#[test]
fn expectation_4_transistors_and_area() {
    let (std_m, prop_m) = typical();
    assert_eq!(std_m.read_transistors, 22);
    assert_eq!(prop_m.read_transistors, 16);

    let rules = DesignRules::n40();
    let pair = nvff::architecture::standard_pair_area(&rules);
    let prop = nvff::architecture::word_area(2, &rules);
    let saving = 1.0 - prop / pair;
    assert!((0.15..0.50).contains(&saving), "area saving = {saving:.3}");
}

/// Expectation 5: replay mode reproduces Table III to rounding, and the
/// measured flow's averages land within a few points of the paper's
/// 26 % / 14 % headline.
#[test]
fn expectation_5_system_level() {
    let costs = SystemCosts::paper();
    let replay = system::table3(&costs, EvaluationMode::Replay);
    let (replay_area, replay_energy) = system::average_improvements(&replay);
    assert!((replay_area - 0.2625).abs() < 0.005, "{replay_area}");
    assert!((replay_energy - 0.1436).abs() < 0.005, "{replay_energy}");

    // Measured mode on a representative subset (kept small for test
    // runtime; the table3 binary runs all 13).
    let mut rows = Vec::new();
    for name in ["s838", "s5378", "s13207", "b15"] {
        let spec = benchmarks::by_name(name).expect("spec");
        rows.push(system::evaluate_measured(spec, &costs, 20_000));
    }
    let (area, energy) = system::average_improvements(&rows);
    assert!((0.15..0.35).contains(&area), "measured area avg = {area}");
    assert!(
        (0.08..0.20).contains(&energy),
        "measured energy avg = {energy}"
    );
}

/// Expectation 6: write energy and latency are essentially identical
/// between the designs (shared methodology), latency ≈ 2 ns.
#[test]
fn expectation_6_write_parity() {
    let (std_m, prop_m) = typical();
    let energy_ratio = prop_m.write_energy / std_m.write_energy;
    assert!(
        (0.5..1.5).contains(&energy_ratio),
        "ratio = {energy_ratio:.2}"
    );
    let latency_ratio = prop_m.write_latency / std_m.write_latency;
    assert!(
        (0.7..1.4).contains(&latency_ratio),
        "ratio = {latency_ratio:.2}"
    );
    assert!((1.0..4.0).contains(&std_m.write_latency.nano_seconds()));
}
