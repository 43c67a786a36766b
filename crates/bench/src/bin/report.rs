//! One-shot reproduction report: runs the headline experiments (Table II
//! at the diagonal corners, Table III in both modes, the cell areas and
//! the robustness spot checks) and writes `target/REPORT.md` with
//! paper-vs-measured columns.
//!
//! Usage: `report [--jobs <N>] [--json <path>] [--serve <addr>]`.
//! `--jobs` sets the corner worker count (`0`/absent = auto, `1` =
//! serial). With `--json`, additionally emits a machine-readable run
//! report (wall-clock, solver work, parallel accounting and the
//! telemetry span tree) — the format behind the repo's perf baseline
//! `BENCH_report.json`. `--serve` exposes the live registry at
//! `http://<addr>/metrics` while the report runs (companion flags:
//! `--serve-addr-file`, `--serve-linger`).

use std::fmt::Write as _;
use std::time::Instant;

use cells::{Corner, LatchComparison, LatchConfig};
use layout::DesignRules;
use netlist::benchmarks::Benchmark;
use nvff::paper;
use nvff::system::{self, EvaluationMode, SystemCosts};
use nvff_bench::{push_parallel_summary, push_solver_stats};
use telemetry::Section;

/// Times the proposed-latch restore transient under one solver engine:
/// median of a few warm runs through a snapshot-rewound session, so the
/// figure isolates assemble + factor + solve (no session construction).
fn time_restore(
    latch: &cells::NvWord,
    solver: spice::SolverKind,
    step_control: spice::StepControl,
) -> Result<(f64, spice::SolverStats), Box<dyn std::error::Error>> {
    let (ckt, controls) = latch.restore_circuit(&[true, false])?;
    let snap = ckt.snapshot();
    let mut session = spice::SimulationSession::with_solver(ckt, solver);
    let options = spice::analysis::TransientOptions {
        start: spice::analysis::StartCondition::Zero,
        step_control,
        ..spice::analysis::TransientOptions::default()
    };
    let mut runs = Vec::new();
    let mut stats = spice::SolverStats::default();
    for i in 0..5 {
        session.circuit_mut().restore(&snap);
        session.reset_stats();
        let t0 = Instant::now();
        let result =
            session.transient_with_options(controls.total(), latch.config().time_step, options)?;
        let dt = t0.elapsed().as_secs_f64();
        if i > 0 {
            // First run warms caches (and, for sparse, pays nothing
            // extra: the symbolic rebuild happens every analysis).
            runs.push(dt);
        }
        stats = result.solver_stats();
    }
    runs.sort_by(f64::total_cmp);
    Ok((runs[runs.len() / 2], stats))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    telemetry::init_from_env();
    let json_path = nvff_bench::json_path_from_args();
    if json_path.is_some() {
        // The run report embeds the span tree, so make sure spans are
        // aggregated even when NVFF_TRACE is unset.
        telemetry::ensure_collecting();
    }
    let metrics_server = nvff_bench::serve_from_args();
    let mut run = telemetry::RunReport::new("report");
    let root_span = telemetry::span("report");

    let mut md = String::new();
    let _ = writeln!(md, "# Reproduction report\n");
    let _ = writeln!(
        md,
        "Generated by `cargo run --release -p nvff-bench --bin report`.\n"
    );

    // ---- Table II (diagonal corners for speed) ----------------------
    let jobs = nvff_bench::jobs_from_args();
    eprintln!("characterizing cells (3 corners, parallel)...");
    let t2_span = telemetry::span("table2");
    let t2_start = Instant::now();
    let corners = [Corner::slow(), Corner::typical(), Corner::fast()];
    let comparison = LatchComparison::evaluate_with_jobs(&LatchConfig::default(), &corners, jobs)?;
    let published = paper::table2();
    let _ = writeln!(md, "## Table II (worst / typical / best)\n");
    let _ = writeln!(md, "| metric | design | measured | paper |");
    let _ = writeln!(md, "|---|---|---|---|");
    let triple = |e: &cells::CornerEnvelope, scale: f64| {
        format!(
            "{:.2} / {:.2} / {:.2}",
            e.worst * scale,
            e.typical * scale,
            e.best * scale
        )
    };
    let s_energy = comparison.standard_envelope(|m| m.read_energy.joules());
    let p_energy = comparison.proposed_envelope(|m| m.read_energy.joules());
    let _ = writeln!(
        md,
        "| read energy [fJ] | 2× standard | {} | {:.2} / {:.2} / {:.2} |",
        triple(&s_energy, 1e15),
        published.standard_read_energy_fj.worst,
        published.standard_read_energy_fj.typical,
        published.standard_read_energy_fj.best,
    );
    let _ = writeln!(
        md,
        "| | proposed | {} | {:.2} / {:.2} / {:.2} |",
        triple(&p_energy, 1e15),
        published.proposed_read_energy_fj.worst,
        published.proposed_read_energy_fj.typical,
        published.proposed_read_energy_fj.best,
    );
    let s_delay = comparison.standard_envelope(|m| m.read_delay.seconds());
    let p_delay = comparison.proposed_envelope(|m| m.read_delay.seconds());
    let _ = writeln!(
        md,
        "| read delay [ps] | 2× standard | {} | {:.0} / {:.0} / {:.0} |",
        triple(&s_delay, 1e12),
        published.standard_read_delay_ps.worst,
        published.standard_read_delay_ps.typical,
        published.standard_read_delay_ps.best,
    );
    let _ = writeln!(
        md,
        "| | proposed | {} | {:.0} / {:.0} / {:.0} |",
        triple(&p_delay, 1e12),
        published.proposed_read_delay_ps.worst,
        published.proposed_read_delay_ps.typical,
        published.proposed_read_delay_ps.best,
    );
    let rules = DesignRules::n40();
    let pair_area = layout::cells::standard_pair_layout_area(&rules);
    let prop_area = layout::cells::proposed_2bit_layout(&rules).area();
    let _ = writeln!(
        md,
        "| area [µm²] | 2× standard | {:.3} | {:.3} |",
        pair_area.square_micro_meters(),
        published.standard_area_um2,
    );
    let _ = writeln!(
        md,
        "| | proposed | {:.3} | {:.3} |",
        prop_area.square_micro_meters(),
        published.proposed_area_um2,
    );
    let _ = writeln!(
        md,
        "| transistors | standard / proposed | 22 / 16 | 22 / 16 |\n",
    );
    drop(t2_span);
    {
        // Per-design solver totals over the corner grid, folded with the
        // saturating accumulate.
        let mut std_stats = spice::SolverStats::default();
        for (_, m) in &comparison.standard {
            std_stats.accumulate(m.solver);
        }
        let mut prop_stats = spice::SolverStats::default();
        for (_, m) in &comparison.proposed {
            prop_stats.accumulate(m.solver);
        }
        let mut section = Section::new("table2").metric("wall_s", t2_start.elapsed().as_secs_f64());
        push_solver_stats(&mut section, "standard.", std_stats);
        push_solver_stats(&mut section, "proposed.", prop_stats);
        push_parallel_summary(&mut section, &comparison.parallel);
        section.push(
            "read_energy_improvement",
            comparison.read_energy_improvement(),
        );
        run.add(section);
    }

    // ---- Table III ---------------------------------------------------
    eprintln!("running table III (replay + measured)...");
    let t3_span = telemetry::span("table3");
    let t3_start = Instant::now();
    let costs = SystemCosts::paper();
    let replay = system::table3(&costs, EvaluationMode::Replay);
    let (ra, re) = system::average_improvements(&replay);
    let mut measured = Vec::new();
    for spec in Benchmark::ALL {
        measured.push(system::evaluate_measured(spec, &costs, 40_000));
    }
    let (ma, me) = system::average_improvements(&measured);
    let _ = writeln!(md, "## Table III averages\n");
    let _ = writeln!(md, "| mode | area improvement | energy improvement |");
    let _ = writeln!(md, "|---|---|---|");
    let _ = writeln!(md, "| paper | 26 % | 14 % |");
    let _ = writeln!(
        md,
        "| replay (paper merge counts) | {:.2} % | {:.2} % |",
        ra * 100.0,
        re * 100.0
    );
    let _ = writeln!(
        md,
        "| measured (own place+merge) | {:.2} % | {:.2} % |\n",
        ma * 100.0,
        me * 100.0
    );
    let _ = writeln!(md, "Per-benchmark rows (measured):\n```");
    for row in &measured {
        let _ = writeln!(md, "{row}");
    }
    let _ = writeln!(md, "```\n");
    drop(t3_span);
    run.add(
        Section::new("table3")
            .metric("wall_s", t3_start.elapsed().as_secs_f64())
            .metric("replay.area_improvement", ra)
            .metric("replay.energy_improvement", re)
            .metric("measured.area_improvement", ma)
            .metric("measured.energy_improvement", me)
            .metric("benchmarks", measured.len() as u64),
    );

    // ---- Robustness spot checks --------------------------------------
    eprintln!("robustness spot checks...");
    let rob_span = telemetry::span("robustness");
    let rob_start = Instant::now();
    let latch = cells::NvWord::new(cells::WordParams::new(2), LatchConfig::default());
    let margins = cells::margin::read_margins(&latch, [true, false])?;
    let (restore_result, _) = latch.restore_traces(&[true, false])?;
    let _ = writeln!(md, "## Robustness\n");
    let _ = writeln!(
        md,
        "* read margins (lower/upper): {:.1} % / {:.1} % of VDD",
        margins.lower * 100.0,
        margins.upper * 100.0
    );
    let _ = writeln!(
        md,
        "* read disturb events during restore: {}",
        restore_result.mtj_events().len()
    );
    let store = latch.simulate_store(&[true, false], &[false, true])?;
    let _ = writeln!(
        md,
        "* store: {} reversals, latency {}, energy to completion {} (paper: 2 ns, 104 fJ)",
        store.switch_count, store.latency, store.energy
    );

    drop(rob_span);
    {
        let mut section =
            Section::new("robustness").metric("wall_s", rob_start.elapsed().as_secs_f64());
        section.push("store_latency_s", store.latency.seconds());
        section.push("store_energy_j", store.energy.joules());
        section.push("read_margin_lower", margins.lower);
        section.push("read_margin_upper", margins.upper);
        let mut solver = restore_result.solver_stats();
        solver.accumulate(store.solver);
        push_solver_stats(&mut section, "solver.", solver);
        run.add(section);
    }

    // ---- Solver engines: sparse LU vs dense oracle -------------------
    eprintln!("timing sparse vs dense LU on the restore transient...");
    let lu_span = telemetry::span("sparse_lu");
    let lu_start = Instant::now();
    let fixed = spice::StepControl::Fixed;
    let (dense_s, dense_stats) = time_restore(&latch, spice::SolverKind::Dense, fixed)?;
    let (sparse_s, sparse_stats) = time_restore(&latch, spice::SolverKind::Sparse, fixed)?;
    let speedup = dense_s / sparse_s;
    let _ = writeln!(md, "\n## Solver engines (proposed-latch restore)\n");
    let _ = writeln!(
        md,
        "* dense LU: {:.2} ms/run ({} factorizations)",
        dense_s * 1e3,
        dense_stats.lu_factorizations
    );
    let _ = writeln!(
        md,
        "* sparse LU: {:.2} ms/run ({} factorizations, {} in-pattern reuses)",
        sparse_s * 1e3,
        sparse_stats.lu_factorizations,
        sparse_stats.pattern_reuses
    );
    let _ = writeln!(md, "* speedup (dense / sparse): {speedup:.2}×");
    drop(lu_span);
    {
        let mut section =
            Section::new("sparse_lu").metric("wall_s", lu_start.elapsed().as_secs_f64());
        section.push("dense_run_s", dense_s);
        section.push("sparse_run_s", sparse_s);
        section.push("speedup", speedup);
        push_solver_stats(&mut section, "dense.", dense_stats);
        push_solver_stats(&mut section, "sparse.", sparse_stats);
        run.add(section);
    }

    // ---- Step control: adaptive LTE vs fixed grid --------------------
    eprintln!("timing adaptive vs fixed stepping on the restore transient...");
    let at_span = telemetry::span("adaptive_transient");
    let at_start = Instant::now();
    let (fixed_s, fixed_stats) =
        time_restore(&latch, spice::SolverKind::Sparse, spice::StepControl::Fixed)?;
    let (adaptive_s, adaptive_stats) = time_restore(
        &latch,
        spice::SolverKind::Sparse,
        spice::StepControl::Adaptive,
    )?;
    let step_ratio =
        fixed_stats.accepted_steps as f64 / adaptive_stats.accepted_steps.max(1) as f64;
    let at_speedup = fixed_s / adaptive_s;
    let _ = writeln!(
        md,
        "\n## Step control (proposed-latch restore, sparse LU)\n"
    );
    let _ = writeln!(
        md,
        "* fixed dt: {:.2} ms/run ({} accepted steps)",
        fixed_s * 1e3,
        fixed_stats.accepted_steps
    );
    let _ = writeln!(
        md,
        "* adaptive LTE: {:.2} ms/run ({} accepted steps, {} LTE rejections)",
        adaptive_s * 1e3,
        adaptive_stats.accepted_steps,
        adaptive_stats.lte_rejections
    );
    let _ = writeln!(
        md,
        "* step reduction (fixed / adaptive): {step_ratio:.2}\u{d7}, wall speedup {at_speedup:.2}\u{d7}"
    );
    drop(at_span);
    {
        let mut section =
            Section::new("adaptive_transient").metric("wall_s", at_start.elapsed().as_secs_f64());
        section.push("fixed_run_s", fixed_s);
        section.push("adaptive_run_s", adaptive_s);
        section.push("step_ratio", step_ratio);
        section.push("speedup", at_speedup);
        push_solver_stats(&mut section, "fixed.", fixed_stats);
        push_solver_stats(&mut section, "adaptive.", adaptive_stats);
        run.add(section);
    }

    // ---- Cell family: n-bit word scaling -----------------------------
    eprintln!("characterizing the n-bit word family (n = 1, 2, 4, 8)...");
    let fam_span = telemetry::span("family");
    let fam_start = Instant::now();
    let _ = writeln!(md, "\n## NV word family scaling (generator cells)\n");
    let _ = writeln!(
        md,
        "| n | read energy (fJ) | read delay (ps) | leakage (pW) | \
         area (um^2) | area / (n x 1-bit) | read energy / (n x 1-bit) |"
    );
    let _ = writeln!(md, "|--:|--:|--:|--:|--:|--:|--:|");
    {
        let mut section = Section::new("family");
        let mut base: Option<(f64, f64)> = None;
        for bits in [1usize, 2, 4, 8] {
            let word = cells::NvWord::new(cells::WordParams::new(bits), LatchConfig::default());
            let metrics = word.characterize()?;
            // Flatten the word's subcircuit twice so the committed
            // baseline carries the shared-plan telemetry counters
            // (spice.subckt.plan_builds / plan_reuses / instances).
            let sub = word.subckt()?;
            let mut scratch = spice::Circuit::new();
            for inst in ["U0", "U1"] {
                let ports: Vec<spice::NodeId> = sub
                    .ports()
                    .iter()
                    .map(|p| scratch.node(&format!("{inst}_{p}")))
                    .collect();
                scratch.instantiate(inst, &sub, &ports)?;
            }
            let area = layout::cells::word_area(bits, &rules).square_micro_meters();
            let energy = metrics.read_energy.joules();
            let (base_area, base_energy) = *base.get_or_insert((area, energy));
            let n = bits as f64;
            let area_ratio = area / (n * base_area);
            let energy_ratio = energy / (n * base_energy);
            let _ = writeln!(
                md,
                "| {} | {:.2} | {:.1} | {:.1} | {:.2} | {:.3} | {:.3} |",
                bits,
                energy * 1e15,
                metrics.read_delay.seconds() * 1e12,
                metrics.leakage.watts() * 1e12,
                area,
                area_ratio,
                energy_ratio,
            );
            let prefix = format!("n{bits}.");
            section.push(&format!("{prefix}read_energy_fj"), energy * 1e15);
            section.push(
                &format!("{prefix}read_delay_ps"),
                metrics.read_delay.seconds() * 1e12,
            );
            section.push(
                &format!("{prefix}leakage_pw"),
                metrics.leakage.watts() * 1e12,
            );
            section.push(&format!("{prefix}area_um2"), area);
            section.push(
                &format!("{prefix}read_transistors"),
                metrics.read_transistors as f64,
            );
            section.push(&format!("{prefix}area_ratio_vs_1bit"), area_ratio);
            section.push(&format!("{prefix}read_energy_ratio_vs_1bit"), energy_ratio);
        }
        section.push("wall_s", fam_start.elapsed().as_secs_f64());
        run.add(section);
    }
    drop(fam_span);

    // ---- Lane-batched Monte-Carlo ------------------------------------
    eprintln!("timing the lane-batched Monte-Carlo WER engine...");
    let mc_span = telemetry::span("simd_mc");
    let mc_start = Instant::now();
    let simd = nvff_bench::simd_mc::run(&nvff_bench::simd_mc::SimdMcOptions {
        jobs,
        ..nvff_bench::simd_mc::SimdMcOptions::quick()
    });
    let _ = writeln!(md, "\n## Lane-batched Monte-Carlo (WER grid)\n");
    let _ = writeln!(md, "{}", simd.markdown());
    drop(mc_span);
    {
        let mut section = simd.section();
        section.push("wall_s", mc_start.elapsed().as_secs_f64());
        run.add(section);
    }

    // ---- Rare-event tail: importance-sampled WER shmoo ---------------
    eprintln!("running the rare-event WER shmoo (importance-sampled tails)...");
    let sh_span = telemetry::span("rare_event");
    let sh_start = Instant::now();
    let shmoo = nvff_bench::shmoo::run(&nvff_bench::shmoo::ShmooOptions {
        jobs,
        ..nvff_bench::shmoo::ShmooOptions::quick()
    });
    let _ = writeln!(md, "\n## Rare-event WER tails (importance sampling)\n");
    let _ = writeln!(md, "{}", shmoo.markdown());
    drop(sh_span);
    {
        let mut section = shmoo.section();
        section.push("wall_s", sh_start.elapsed().as_secs_f64());
        run.add(section);
    }

    // ---- Characterization service: cold / warm / coalesced -----------
    eprintln!("driving the characterization service over loopback...");
    let ch_span = telemetry::span("chserve");
    let ch_start = Instant::now();
    let chserve = nvff_bench::chserve::run(&nvff_bench::chserve::ChserveOptions::quick())?;
    let _ = writeln!(md, "\n## Characterization service (loopback)\n");
    let _ = writeln!(md, "{}", chserve.markdown());
    drop(ch_span);
    {
        let mut section = chserve.section();
        section.push("wall_s", ch_start.elapsed().as_secs_f64());
        run.add(section);
    }

    std::fs::create_dir_all("target")?;
    std::fs::write("target/REPORT.md", &md)?;
    println!("{md}");
    println!("written to target/REPORT.md");

    drop(root_span);
    let snap = telemetry::finish();
    if let Some(path) = json_path {
        run.write(&path, &snap)?;
        println!("run report written to {}", path.display());
    }
    if let Some(guard) = metrics_server {
        guard.finish();
    }
    Ok(())
}
