//! Regenerates **Table II** — the cell-level comparison of two standard
//! 1-bit latches against the proposed 2-bit latch, as worst/typical/best
//! envelopes over the 3 × 3 CMOS ⊗ MTJ corner grid.
//!
//! Usage: `table2 [--quick] [--jobs <N>] [--json <path>]
//! [--serve <addr>]` (`--quick` evaluates the three diagonal corners
//! only; `--jobs` sets the corner worker count, `0`/absent = one per
//! hardware thread, `1` = serial; `--json` additionally writes a
//! machine-readable run report with wall-clock, solver work, parallel
//! accounting and the telemetry span tree; `--serve` exposes the live
//! registry at `http://<addr>/metrics` for the duration of the run —
//! see `nvff_bench::serve_from_args` for the companion
//! `--serve-addr-file` / `--serve-linger` flags). The printed table is
//! byte-identical for every `--jobs` value.

use std::time::Instant;

use cells::{CellMetrics, Corner, LatchComparison, LatchConfig};
use layout::DesignRules;
use nvff::{architecture, paper};
use nvff_bench::{compare_line, push_parallel_summary, push_solver_stats};
use telemetry::Section;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    telemetry::init_from_env();
    let json_path = nvff_bench::json_path_from_args();
    if json_path.is_some() {
        telemetry::ensure_collecting();
    }
    let metrics_server = nvff_bench::serve_from_args();
    let root_span = telemetry::span("table2");
    let wall_start = Instant::now();

    let quick = std::env::args().any(|a| a == "--quick");
    let corners: Vec<Corner> = if quick {
        vec![Corner::slow(), Corner::typical(), Corner::fast()]
    } else {
        Corner::all()
    };
    let jobs = nvff_bench::jobs_from_args();
    eprintln!(
        "characterizing both designs over {} corners on {} workers (this runs {} transient analyses)...",
        corners.len(),
        sweep::SweepOptions::with_jobs(jobs).effective_workers(corners.len()),
        corners.len() * 16,
    );
    let comparison = LatchComparison::evaluate_with_jobs(&LatchConfig::default(), &corners, jobs)?;
    let published = paper::table2();

    println!("TABLE II: TWO STANDARD 1-BIT LATCHES vs PROPOSED 2-BIT LATCH");
    println!("(worst / typical / best envelopes over the corner grid)\n");

    let print_metric = |label: &str,
                        unit_scale: f64,
                        std_pick: &dyn Fn(&CellMetrics) -> f64,
                        paper_std: [f64; 3],
                        paper_prop: [f64; 3]| {
        let s = comparison.standard_envelope(std_pick);
        let p = comparison.proposed_envelope(std_pick);
        println!("{label}");
        println!(
            "  standard  measured {:>9.3} / {:>9.3} / {:>9.3}   paper {:>8.3} / {:>8.3} / {:>8.3}",
            s.worst * unit_scale,
            s.typical * unit_scale,
            s.best * unit_scale,
            paper_std[0],
            paper_std[1],
            paper_std[2]
        );
        println!(
            "  proposed  measured {:>9.3} / {:>9.3} / {:>9.3}   paper {:>8.3} / {:>8.3} / {:>8.3}",
            p.worst * unit_scale,
            p.typical * unit_scale,
            p.best * unit_scale,
            paper_prop[0],
            paper_prop[1],
            paper_prop[2]
        );
    };

    print_metric(
        "Read energy [fJ]",
        1e15,
        &|m| m.read_energy.joules(),
        [
            published.standard_read_energy_fj.worst,
            published.standard_read_energy_fj.typical,
            published.standard_read_energy_fj.best,
        ],
        [
            published.proposed_read_energy_fj.worst,
            published.proposed_read_energy_fj.typical,
            published.proposed_read_energy_fj.best,
        ],
    );
    print_metric(
        "Read delay [ps]",
        1e12,
        &|m| m.read_delay.seconds(),
        [
            published.standard_read_delay_ps.worst,
            published.standard_read_delay_ps.typical,
            published.standard_read_delay_ps.best,
        ],
        [
            published.proposed_read_delay_ps.worst,
            published.proposed_read_delay_ps.typical,
            published.proposed_read_delay_ps.best,
        ],
    );
    print_metric(
        "Leakage [pW]",
        1e12,
        &|m| m.leakage.watts(),
        [
            published.standard_leakage_pw.worst,
            published.standard_leakage_pw.typical,
            published.standard_leakage_pw.best,
        ],
        [
            published.proposed_leakage_pw.worst,
            published.proposed_leakage_pw.typical,
            published.proposed_leakage_pw.best,
        ],
    );

    // Transistors and area are corner-independent.
    let rules = DesignRules::n40();
    let std_area = architecture::standard_pair_area(&rules);
    let prop_area = architecture::word_area(2, &rules);
    let transistors = |m: &CellMetrics| m.read_transistors as f64;
    println!("\n# of transistors (read path)");
    println!(
        "{}",
        compare_line(
            "  standard pair",
            comparison.standard_envelope(transistors).typical,
            published.standard_transistors as f64
        )
    );
    println!(
        "{}",
        compare_line(
            "  proposed",
            comparison.proposed_envelope(transistors).typical,
            published.proposed_transistors as f64
        )
    );
    println!("\nArea [µm²]");
    println!(
        "{}",
        compare_line(
            "  standard pair",
            std_area.square_micro_meters(),
            published.standard_area_um2
        )
    );
    println!(
        "{}",
        compare_line(
            "  proposed",
            prop_area.square_micro_meters(),
            published.proposed_area_um2
        )
    );

    // Derived headline numbers.
    let energy_saving = comparison.read_energy_improvement();
    println!("\nHeadline (typical corner):");
    println!(
        "{}",
        compare_line("  read-energy improvement [%]", energy_saving * 100.0, 18.8)
    );
    let area_saving = (1.0 - prop_area / std_area) * 100.0;
    println!(
        "{}",
        compare_line("  cell-area saving [%]", area_saving, 34.4)
    );

    // Solver work: total characterization cost per design, summed over
    // the corner grid (each corner reuses one SimulationSession per
    // latch, so these counters also measure the workspace-reuse path).
    let sum_stats = |rows: &[(Corner, CellMetrics)]| {
        let mut total = spice::SolverStats::default();
        for (_, m) in rows {
            total.accumulate(m.solver);
        }
        total
    };
    let std_stats = sum_stats(&comparison.standard);
    let prop_stats = sum_stats(&comparison.proposed);
    println!("\nSolver work (all corners, per design):");
    for (label, st) in [("standard pair", std_stats), ("proposed", prop_stats)] {
        println!(
            "  {label:<14} {} Newton iterations, {} LU factorizations, \
             {} steps accepted, {} rejected ({} halvings)",
            st.newton_iterations,
            st.lu_factorizations,
            st.accepted_steps,
            st.rejected_steps,
            st.step_halvings
        );
    }

    // Write path (identical between designs by construction).
    let std_cfg = LatchConfig::default();
    let w =
        cells::NvWord::new(cells::WordParams::new(1), std_cfg).simulate_store(&[true], &[false])?;
    println!("\nWrite (store) — shared methodology, worst case published:");
    println!(
        "{}",
        compare_line(
            "  write energy to completion [fJ]",
            w.energy.femto_joules(),
            paper::write_energy().femto_joules()
        )
    );
    println!(
        "{}",
        compare_line(
            "  write latency [ns]",
            w.latency.nano_seconds(),
            paper::write_latency().nano_seconds()
        )
    );

    drop(root_span);
    let snap = telemetry::finish();
    if let Some(path) = json_path {
        let mut run = telemetry::RunReport::new("table2");
        let mut section = Section::new("table2")
            .metric("wall_s", wall_start.elapsed().as_secs_f64())
            .metric("corners", corners.len() as u64)
            .metric("read_energy_improvement", energy_saving);
        push_solver_stats(&mut section, "standard.", std_stats);
        push_solver_stats(&mut section, "proposed.", prop_stats);
        push_solver_stats(&mut section, "write.", w.solver);
        push_parallel_summary(&mut section, &comparison.parallel);
        run.add(section);
        run.write(&path, &snap)?;
        println!("run report written to {}", path.display());
    }
    if let Some(guard) = metrics_server {
        guard.finish();
    }
    Ok(())
}
