//! Regenerates **Fig. 6** (and Fig. 7's optimized variant) — the
//! working sequences of the proposed multi-bit latch: the store phase's
//! write-current pulse and the restore phase's pre-charge/evaluate
//! cadence, as ASCII waveforms plus CSV dumps in `target/figures/`.
//!
//! Usage: `fig6 [--explicit] [--jobs <N>]` (default uses the Fig. 7
//! optimized controller; `--explicit` the three-signal Fig. 6 scheme).
//! The restore and store transients are independent, so they run as a
//! two-point sweep grid — `--jobs 2` simulates them concurrently, each
//! worker owning its own latch. Output is rendered after ordered
//! collection and is byte-identical for every `--jobs` value.

use std::fmt::Write as _;

use cells::{ControlScheme, LatchConfig, NvWord, WordParams};
use nvff_bench::{ascii_waveform, traces_to_csv};

/// The two independent transients of the figure, as sweep grid points.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Restore,
    Store,
}

/// Renders the restore phase: stdout text plus the CSV body.
fn render_restore(latch: &NvWord) -> Result<(String, String), String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "FIG 6(b): RESTORE SEQUENCE — stored bits [1, 0], {:?} controller\n",
        latch.scheme()
    );
    let (result, controls) = latch
        .restore_traces(&[true, false])
        .map_err(|e| e.to_string())?;
    let times = result.times();
    let mut csv_traces = Vec::new();
    let mut keep = Vec::new();
    for node in ["pcv_b", "pcg", "ren", "sel_b", "mtj_read", "mtj_read_b"] {
        let trace = result.node(node).map_err(|e| e.to_string())?;
        keep.push((node, trace.values().to_vec()));
    }
    for (node, values) in &keep {
        let _ = writeln!(out, "{}", ascii_waveform(node, times, values, 96, 6));
        csv_traces.push((*node, values.as_slice()));
    }
    let csv = traces_to_csv(times, &csv_traces);
    let [lower, upper] = controls.evals() else {
        return Err("the 2-bit restore has two evaluations".into());
    };
    let _ = writeln!(
        out,
        "evaluation windows: lower pair {} → {}, upper pair {} → {}",
        lower.start, lower.end, upper.start, upper.end
    );
    Ok((out, csv))
}

/// Renders the store phase: stdout text plus the CSV body.
fn render_store(latch: &NvWord) -> Result<(String, String), String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "FIG 6(a): STORE SEQUENCE — writing [1, 0] over [0, 1]\n"
    );
    let (store_result, store_controls) = latch
        .store_traces(&[true, false], &[false, true])
        .map_err(|e| e.to_string())?;
    let times = store_result.times();
    let mut keep = Vec::new();
    for node in ["wen", "a3", "a4", "tl", "tr"] {
        let trace = store_result.node(node).map_err(|e| e.to_string())?;
        keep.push((node, trace.values().to_vec()));
    }
    for (node, values) in &keep {
        let _ = writeln!(out, "{}", ascii_waveform(node, times, values, 96, 6));
    }
    let _ = writeln!(out, "MTJ reversal events:");
    for ev in store_result.mtj_events() {
        let _ = writeln!(out, "  t = {:>8}  {} → {}", ev.time, ev.device, ev.state);
    }
    let csv = traces_to_csv(
        times,
        &keep
            .iter()
            .map(|(n, v)| (*n, v.as_slice()))
            .collect::<Vec<_>>(),
    );
    let _ = writeln!(
        out,
        "write window {} → {}",
        store_controls.write_start, store_controls.write_end
    );
    Ok((out, csv))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scheme = if std::env::args().any(|a| a == "--explicit") {
        ControlScheme::Explicit
    } else {
        ControlScheme::Optimized
    };
    let out_dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(out_dir)?;

    // Restore first: the printed figure leads with 6(b), so grid order
    // is [Restore, Store] and the collector restores print order even
    // when the store transient finishes first.
    let grid = sweep::Grid::new(vec![Phase::Restore, Phase::Store]);
    let opts = sweep::SweepOptions {
        jobs: nvff_bench::jobs_from_args(),
        span_label: "fig6.phase",
        ..sweep::SweepOptions::default()
    };
    let outcome = sweep::run_with_state(
        &grid,
        &opts,
        |_| NvWord::new(WordParams::new(2), LatchConfig::default()).with_scheme(scheme),
        |latch, _ctx, phase| match phase {
            Phase::Restore => render_restore(latch),
            Phase::Store => render_store(latch),
        },
        None,
    );
    let mut rendered = outcome.results.into_iter();
    let (restore_text, restore_csv) = rendered.next().expect("restore phase")?;
    let (store_text, store_csv) = rendered.next().expect("store phase")?;

    print!("{restore_text}");
    let restore_path = out_dir.join("fig6_restore.csv");
    std::fs::write(&restore_path, restore_csv)?;
    println!("csv: {}\n", restore_path.display());

    print!("{store_text}");
    let store_path = out_dir.join("fig6_store.csv");
    std::fs::write(&store_path, store_csv)?;
    println!("csv: {}", store_path.display());
    Ok(())
}
