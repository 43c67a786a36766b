//! The ablation studies DESIGN.md calls out — each probes one design
//! decision of the paper.
//!
//! 1. **Merge-threshold sweep** — how the 2-bit coverage and the
//!    system-level area saving respond to the closeness limit around
//!    the paper's 3.35 µm.
//! 2. **Pairing strategy** — greedy-closest (the paper's script) versus
//!    the degree-aware matcher.
//! 3. **Control scheme** — explicit Fig. 6 signals versus the Fig. 7
//!    single-PC controller (distinct nets and measured read energy).
//! 4. **Shared write path** — why the paper does *not* merge write
//!    circuitry: driving both complementary MTJ pairs in series halves
//!    the write current below the switching threshold and the store
//!    fails outright.
//!
//! Usage: `ablations [--jobs <N>]`. The control-scheme and sizing
//! studies are independent simulation points, so they fan out over a
//! sweep pool; stdout is rendered after ordered collection and is
//! byte-identical for every `--jobs` value.

use cells::{ControlScheme, LatchConfig, NvWord, WordParams};
use merge::{MergeOptions, Strategy};
use mtj::{Mtj, MtjParams, MtjState, WritePolarity};
use netlist::{benchmarks, CellLibrary};
use nvff::system::{roll_up, SystemCosts};
use place::placer::{self, PlacerOptions};
use spice::{analysis, Circuit, SourceWaveform};
use units::{Length, Time, Voltage};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let jobs = nvff_bench::jobs_from_args();
    threshold_sweep();
    pairing_strategies();
    control_schemes(jobs)?;
    shared_write_path()?;
    sizing_sweep(jobs)?;
    Ok(())
}

/// Ablation 1: merge coverage and area saving vs distance threshold.
fn threshold_sweep() {
    println!("ABLATION 1: MERGE-THRESHOLD SWEEP (s13207, paper limit = 3.35 µm)");
    let spec = benchmarks::by_name("s13207").expect("benchmark");
    let netlist = benchmarks::generate_scaled(spec, 20_000);
    let lib = CellLibrary::n40();
    let placed = placer::place(&netlist, &lib, &PlacerOptions::default());
    let costs = SystemCosts::paper();
    for threshold_um in [1.0, 2.0, 3.35, 5.0, 8.0, 12.0] {
        let plan = merge::plan(
            &placed,
            &MergeOptions {
                threshold: Length::from_micro_meters(threshold_um),
                strategy: Strategy::GreedyClosest,
            },
        );
        let row = roll_up(spec.name, spec.flip_flops, plan.merged_pairs(), &costs);
        println!(
            "  threshold {:>5.2} µm: pairs {:>4} coverage {:>5.1} %  area saving {:>5.2} %",
            threshold_um,
            plan.merged_pairs(),
            plan.merge_fraction() * 100.0,
            row.area_improvement() * 100.0,
        );
    }
    println!();
}

/// Ablation 2: pairing strategies on every benchmark.
fn pairing_strategies() {
    println!("ABLATION 2: PAIRING STRATEGY (greedy-closest vs degree-aware)");
    let lib = CellLibrary::n40();
    for spec in &benchmarks::Benchmark::ALL[..7] {
        let netlist = benchmarks::generate_scaled(*spec, 20_000);
        let placed = placer::place(&netlist, &lib, &PlacerOptions::default());
        let counts: Vec<usize> = [Strategy::GreedyClosest, Strategy::DegreeAware]
            .iter()
            .map(|&strategy| {
                merge::plan(
                    &placed,
                    &MergeOptions {
                        strategy,
                        ..MergeOptions::default()
                    },
                )
                .merged_pairs()
            })
            .collect();
        println!(
            "  {:<8} greedy {:>4}  degree-aware {:>4}  ({:+} pairs)",
            spec.name,
            counts[0],
            counts[1],
            counts[1] as i64 - counts[0] as i64,
        );
    }
    println!();
}

/// Ablation 3: explicit vs optimized control scheme. The two schemes
/// simulate as a two-point sweep grid.
fn control_schemes(jobs: usize) -> Result<(), cells::CellError> {
    println!("ABLATION 3: CONTROL SCHEME (Fig. 6 explicit vs Fig. 7 optimized)");
    let grid = sweep::Grid::new(vec![ControlScheme::Explicit, ControlScheme::Optimized]);
    let opts = sweep::SweepOptions {
        jobs,
        span_label: "ablations.scheme",
        ..sweep::SweepOptions::default()
    };
    let outcome = sweep::run(&grid, &opts, |_ctx, &scheme| {
        let latch = NvWord::new(WordParams::new(2), LatchConfig::default()).with_scheme(scheme);
        let out = latch.simulate_restore(&[true, false])?;
        Ok::<_, cells::CellError>(format!(
            "  {scheme:?}: bits {:?}, supply energy {}, total (with controls) {}, delay {}",
            out.bits, out.supply_energy, out.energy, out.read_delay,
        ))
    });
    for line in outcome.results {
        println!("{}", line?);
    }
    println!("  (the optimized scheme derives P4/N4 from one PC̄ net — fewer control nets)\n");
    Ok(())
}

/// Ablation 4: a hypothetical shared write path (both complementary
/// pairs in series behind one driver pair) — the write current falls
/// under the switching threshold and no MTJ reverses.
fn shared_write_path() -> Result<(), Box<dyn std::error::Error>> {
    println!("ABLATION 4: SHARED WRITE PATH (why write circuits stay per-bit)");
    let params = MtjParams::date2018();
    let vdd = Voltage::from_volts(1.1);

    // Dedicated path: one complementary pair (2 MTJs in series).
    let dedicated = drive_series_mtjs(&params, vdd, 2)?;
    // Shared path: both pairs in series (4 MTJs) behind the same driver.
    let shared = drive_series_mtjs(&params, vdd, 4)?;

    println!(
        "  dedicated (2 MTJs in series): {} reversals — store {}",
        dedicated,
        if dedicated == 2 { "succeeds" } else { "FAILS" },
    );
    println!(
        "  shared    (4 MTJs in series): {} reversals — store {}",
        shared,
        if shared == 4 { "succeeds" } else { "FAILS" },
    );
    println!(
        "  series resistance doubles, the write current halves below Ic = {}, and the\n  \
         shared store never completes — the quantitative case for the paper's choice.\n",
        params.critical_current(),
    );
    Ok(())
}

/// Ablation 5: sense-amplifier sizing — the cross-coupled NMOS width
/// trades read delay against energy; the paper's "custom design" claim
/// rests on picking a sane point of this curve. The four widths fan out
/// as one sweep grid; lines print in grid (width) order regardless of
/// which simulation finishes first.
fn sizing_sweep(jobs: usize) -> Result<(), cells::CellError> {
    println!("ABLATION 5: SENSE-AMP SIZING (cross-coupled NMOS width)");
    let grid = sweep::Grid::new(vec![240.0f64, 360.0, 480.0, 720.0]);
    let opts = sweep::SweepOptions {
        jobs,
        span_label: "ablations.sizing",
        ..sweep::SweepOptions::default()
    };
    let outcome = sweep::run(&grid, &opts, |_ctx, &nmos_nm| {
        let mut config = LatchConfig::default();
        config.sizing.cross_nmos = Length::from_nano_meters(nmos_nm);
        let latch = NvWord::new(WordParams::new(2), config);
        let out = latch.simulate_restore(&[true, false])?;
        Ok::<_, cells::CellError>(format!(
            "  W(N1/N2) = {:>4.0} nm: read delay {:>9}  supply energy {:>9}  \
             energy·delay {:>7.1} fJ·ns",
            nmos_nm,
            out.read_delay.to_string(),
            out.supply_energy.to_string(),
            out.supply_energy.femto_joules() * out.read_delay.nano_seconds(),
        ))
    });
    for line in outcome.results {
        println!("{}", line?);
    }
    println!("  (the default 360 nm sits at the energy·delay knee)\n");
    Ok(())
}

/// Drives `n_series` alternating-polarity MTJs (initially all holding
/// the value to overwrite) from a 1.1 V source for 10 ns; returns how
/// many reversed.
fn drive_series_mtjs(
    params: &MtjParams,
    vdd: Voltage,
    n_series: usize,
) -> Result<usize, Box<dyn std::error::Error>> {
    let mut ckt = Circuit::new();
    let top = ckt.node("top");
    ckt.add_voltage_source("VW", top, Circuit::GROUND, SourceWaveform::dc(vdd))?;
    let mut prev = top;
    for k in 0..n_series {
        let next = if k + 1 == n_series {
            Circuit::GROUND
        } else {
            ckt.node(&format!("m{k}"))
        };
        // Alternating polarity, as the complementary pairs are wired;
        // start opposite to the write target so every device must flip.
        let polarity = if k.is_multiple_of(2) {
            WritePolarity::PositiveSetsAntiParallel
        } else {
            WritePolarity::PositiveSetsParallel
        };
        let initial = match polarity {
            WritePolarity::PositiveSetsAntiParallel => MtjState::Parallel,
            WritePolarity::PositiveSetsParallel => MtjState::AntiParallel,
        };
        ckt.add_mtj(
            &format!("X{k}"),
            prev,
            next,
            Mtj::new(params.clone(), initial, polarity),
        )?;
        prev = next;
    }
    let result = analysis::transient(
        &mut ckt,
        Time::from_nano_seconds(10.0),
        Time::from_pico_seconds(50.0),
    )?;
    Ok(result.mtj_events().len())
}
