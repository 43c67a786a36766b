//! Integration of the extension modules (beyond the paper's headline
//! experiments): thermal MTJ behaviour inside the latch, SPICE-deck
//! interchange, VCD export, LEF views, timing validation and
//! clustering statistics.

use cells::{LatchConfig, NvWord, WordParams};
use merge::{MergeOptions, TimingModel};
use mtj::ThermalModel;
use netlist::{benchmarks, CellLibrary};
use place::placer::{self, PlacerOptions};
use place::stats::FlipFlopStats;
use units::Temperature;

/// The proposed latch still stores and restores correctly with the MTJ
/// parameters re-evaluated at 85 °C (industrial hot corner) — reduced
/// TMR and critical current, but the margins hold.
#[test]
fn latch_works_at_85_celsius() {
    let hot_mtj = ThermalModel::default()
        .at_temperature(&mtj::MtjParams::date2018(), Temperature::from_celsius(85.0));
    let config = LatchConfig {
        mtj: hot_mtj,
        ..LatchConfig::default()
    };
    let latch = NvWord::new(WordParams::new(2), config);

    let store = latch
        .simulate_store(&[true, false], &[false, true])
        .expect("hot store");
    assert_eq!(store.stored, [true, false]);
    // Hot devices switch *faster* (lower Ic).
    assert!(store.latency.nano_seconds() < 2.5);

    let restore = latch.simulate_restore(&[true, false]).expect("hot restore");
    assert_eq!(restore.bits, [true, false]);
}

/// Merge coverage can never exceed the fraction of flip-flops that even
/// have a neighbour inside the threshold — the clustering statistic
/// upper-bounds the pairing result.
#[test]
fn clustering_statistics_bound_merge_coverage() {
    for name in ["s1423", "s5378"] {
        let n = benchmarks::generate(benchmarks::by_name(name).expect("benchmark"));
        let placed = placer::place(&n, &CellLibrary::n40(), &PlacerOptions::default());
        let stats = FlipFlopStats::of(&placed);
        let plan = merge::plan(&placed, &MergeOptions::default());
        let threshold_um = plan.threshold().micro_meters();
        assert!(
            plan.merge_fraction() <= stats.fraction_within(threshold_um) + 1e-12,
            "{name}: coverage {} vs clustering bound {}",
            plan.merge_fraction(),
            stats.fraction_within(threshold_um)
        );
    }
}

/// No pair produced at the paper's threshold violates the timing budget
/// — the quantitative form of "no timing penalties".
#[test]
fn merged_pairs_meet_timing_on_real_benchmarks() {
    let model = TimingModel::default();
    for name in ["s838", "s13207"] {
        let n = benchmarks::generate_scaled(benchmarks::by_name(name).expect("benchmark"), 10_000);
        let placed = placer::place(&n, &CellLibrary::n40(), &PlacerOptions::default());
        let plan = merge::plan(&placed, &MergeOptions::default());
        assert!(plan.merged_pairs() > 0);
        assert!(
            model.violations(&plan).is_empty(),
            "{name}: timing violations at the paper threshold"
        );
    }
}

/// A deck written from a circuit simulates identically after reparsing.
#[test]
fn deck_round_trip_preserves_simulation_results() {
    use spice::{analysis, deck, Circuit, SourceWaveform};
    use units::{Capacitance, Resistance, Time, Voltage};

    let build = || {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::pulse(
                Voltage::ZERO,
                Voltage::from_volts(1.1),
                Time::from_pico_seconds(100.0),
                Time::from_pico_seconds(20.0),
                Time::from_pico_seconds(20.0),
                Time::from_pico_seconds(400.0),
            ),
        )
        .expect("V1");
        ckt.add_resistor("R1", a, b, Resistance::from_kilo_ohms(2.0))
            .expect("R1");
        ckt.add_capacitor(
            "C1",
            b,
            Circuit::GROUND,
            Capacitance::from_femto_farads(500.0),
        )
        .expect("C1");
        ckt
    };
    let mut original = build();
    let text = deck::write(&original, "round trip");
    let mut reparsed = deck::parse(&text, &deck::DeckContext::default()).expect("parse");

    let stop = Time::from_nano_seconds(1.0);
    let step = Time::from_pico_seconds(5.0);
    let r1 = analysis::transient(&mut original, stop, step).expect("original");
    let r2 = analysis::transient(&mut reparsed, stop, step).expect("reparsed");
    let t1 = r1.node("b").expect("b");
    let t2 = r2.node("b").expect("b");
    for &t in &[0.2e-9, 0.4e-9, 0.8e-9] {
        assert!(
            (t1.value_at(t) - t2.value_at(t)).abs() < 1e-9,
            "divergence at {t}"
        );
    }
}

/// The latch restore exports to VCD with the output nodes present and a
/// plausible digitized twin.
#[test]
fn latch_restore_exports_to_vcd() {
    use spice::vcd;
    let latch = NvWord::new(WordParams::new(2), LatchConfig::default());
    let (result, _) = latch.restore_traces(&[true, false]).expect("traces");
    let text = vcd::export(
        &result,
        &vcd::VcdOptions {
            logic_threshold: Some(0.55),
            ..vcd::VcdOptions::default()
        },
    );
    assert!(text.contains("mtj_read $end"));
    assert!(text.contains("mtj_read_d $end"));
    assert!(text.contains("$enddefinitions $end"));
    // Sanity: the file carries one real sample per node per timestamp.
    assert!(text.lines().filter(|l| l.starts_with('r')).count() > 1000);
}

/// The LEF library describes cells whose sizes match the layouts the
/// placer-threshold calibration depends on.
#[test]
fn lef_library_matches_layout_geometry() {
    use nvff::architecture::{word_layout, write_nv_library};
    let rules = layout::DesignRules::n40();
    let text = write_nv_library(&rules);
    assert!(text.contains("SIZE 1.6750 BY 1.6800 ;")); // NVWORD1
    let w2 = word_layout(2, &rules).width().micro_meters();
    assert!(text.contains(&format!("SIZE {w2:.4} BY 1.6800 ;")));
}

/// Restores are read-disturb-free: the small sense currents must never
/// reverse an MTJ (the transient engine records every reversal, so an
/// empty event list is a strong statement).
#[test]
fn restores_never_disturb_the_stored_state() {
    let latch = NvWord::new(WordParams::new(2), LatchConfig::default());
    for pattern in [[true, false], [false, true]] {
        let (result, _) = latch.restore_traces(&pattern).expect("traces");
        assert!(
            result.mtj_events().is_empty(),
            "read disturb during restore of {pattern:?}: {:?}",
            result.mtj_events()
        );
    }
}

/// The default 5 ns store pulse leaves a deterministic-model margin of
/// more than 2× the worst-corner switching time, and the WER model
/// quantifies the stochastic margin.
#[test]
fn store_pulse_margins() {
    use cells::Corner;
    use mtj::{wer, SwitchingModel};

    // Deterministic: worst-corner store completes inside the pulse.
    let config = LatchConfig::default().at_corner(Corner::slow());
    let latch = NvWord::new(WordParams::new(2), config.clone());
    let out = latch
        .simulate_store(&[true, false], &[false, true])
        .expect("worst-corner store");
    assert!(out.latency < config.timing.write_pulse);

    // Stochastic: the analytic WER at the nominal drive and pulse.
    let nominal = mtj::MtjParams::date2018();
    let model = SwitchingModel::new(&nominal);
    // The actual series-path drive is ~63 µA (two MTJs + driver Ron).
    let drive = units::Current::from_micro_amps(63.0);
    let at_pulse = wer::write_error_rate(&model, drive, config.timing.write_pulse);
    let at_double = wer::write_error_rate(&model, drive, config.timing.write_pulse * 2.0);
    assert!(at_double < at_pulse);
    // And the pulse needed for a 1e-9 WER is still microseconds-free.
    let safe = wer::pulse_for_wer(&model, drive, 1e-9);
    assert!(safe.nano_seconds() < 100.0, "{safe}");
}
