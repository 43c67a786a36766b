//! Golden-waveform pinning of the paper's Fig. 6 operations.
//!
//! Each golden is a committed JSON file holding the proposed-latch
//! store/restore output waveforms (`q` = `mtj_read`, `qb` =
//! `mtj_read_b`) sampled at uniform times, plus the tolerance band the
//! comparison runs at. The band is derived from the step controller's
//! accept threshold (`trtol · reltol` of VDD), so the goldens hold
//! under both step policies and both LU engines — they pin the physics,
//! not one engine's discretization. Each workload is checked under all
//! four `(solver, step_control)` pairs of [`ENGINES`].
//!
//! Regenerate (from the default engine) after an intentional waveform
//! change with:
//!
//! ```text
//! NVFF_UPDATE_GOLDENS=1 cargo test --test goldens
//! ```

use cells::{LatchConfig, NvWord, WordParams};
use spice::{SolverKind, StepControl};
use telemetry::JsonValue;

/// Every engine pair the goldens must hold under.
const ENGINES: [(SolverKind, StepControl); 4] = [
    (SolverKind::Sparse, StepControl::Adaptive),
    (SolverKind::Sparse, StepControl::Fixed),
    (SolverKind::Dense, StepControl::Adaptive),
    (SolverKind::Dense, StepControl::Fixed),
];

/// Sample count per trace. Uniform in time over the control window.
const SAMPLES: usize = 81;

/// Waveform nodes pinned by the goldens: the read outputs of Fig. 6.
const NODES: [&str; 2] = ["mtj_read", "mtj_read_b"];

/// One workload's sampled waveforms.
struct Waveforms {
    stop: f64,
    /// `(node, samples)` in [`NODES`] order.
    traces: Vec<(String, Vec<f64>)>,
}

fn sample(result: &spice::TransientResult, stop: f64) -> Waveforms {
    let traces = NODES
        .iter()
        .map(|&name| {
            let trace = result.node(name).expect("output node exists");
            let samples = (0..SAMPLES)
                .map(|k| trace.value_at(stop * k as f64 / (SAMPLES - 1) as f64))
                .collect();
            (name.to_owned(), samples)
        })
        .collect();
    Waveforms { stop, traces }
}

/// Runs one Fig. 6 workload under `config` and returns its sampled
/// waveforms.
fn run_workload(name: &str, config: LatchConfig) -> Waveforms {
    let latch = NvWord::new(WordParams::new(2), config);
    match name {
        "proposed_restore_10" => {
            let (result, controls) = latch.restore_traces(&[true, false]).expect("restore");
            sample(&result, controls.total().seconds())
        }
        "proposed_store_01" => {
            let (result, controls) = latch
                .store_traces(&[false, true], &[true, false])
                .expect("store");
            sample(&result, controls.total.seconds())
        }
        other => panic!("unknown workload {other}"),
    }
}

/// Tolerance band: 10× the per-step error the controller may accept on
/// a full-swing node, i.e. `10 · trtol · reltol · vdd` plus the
/// absolute floor.
fn band() -> f64 {
    let vdd = LatchConfig::default().vdd();
    10.0 * (spice::analysis::LTE_TRTOL * spice::analysis::LTE_RELTOL * vdd
        + spice::analysis::LTE_ABSTOL)
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.json"))
}

fn to_golden(name: &str, w: &Waveforms) -> JsonValue {
    let nodes = w
        .traces
        .iter()
        .map(|(node, samples)| {
            (
                node.clone(),
                JsonValue::Array(samples.iter().map(|&v| JsonValue::Float(v)).collect()),
            )
        })
        .collect();
    JsonValue::object(vec![
        ("schema".into(), JsonValue::Int(1)),
        ("workload".into(), JsonValue::Str(name.into())),
        ("stop_s".into(), JsonValue::Float(w.stop)),
        ("samples".into(), JsonValue::Int(SAMPLES as i64)),
        ("band_v".into(), JsonValue::Float(band())),
        ("nodes".into(), JsonValue::Object(nodes)),
    ])
}

fn check_workload(name: &str) {
    let path = golden_path(name);

    if std::env::var("NVFF_UPDATE_GOLDENS").is_ok() {
        let got = run_workload(name, LatchConfig::default());
        let json = to_golden(name, &got).to_json();
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir goldens");
        std::fs::write(&path, json + "\n").expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with NVFF_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    let golden = JsonValue::parse(&text).expect("golden parses");
    assert_eq!(
        golden.get("schema").and_then(JsonValue::as_i64),
        Some(1),
        "golden schema"
    );
    let stop = golden
        .get("stop_s")
        .and_then(JsonValue::as_f64)
        .expect("stop_s");
    let tol = golden
        .get("band_v")
        .and_then(JsonValue::as_f64)
        .expect("band_v");
    let nodes = golden.get("nodes").expect("nodes object");
    for (solver, step_control) in ENGINES {
        let config = LatchConfig {
            solver,
            step_control,
            ..LatchConfig::default()
        };
        let got = run_workload(name, config);
        let engine = format!("{solver:?}/{step_control:?}");
        assert!(
            (stop - got.stop).abs() < 1e-15,
            "{engine}: control window changed: golden stop {stop}, got {}; regenerate if intentional",
            got.stop
        );
        for (node, samples) in &got.traces {
            let want = nodes
                .get(node)
                .and_then(JsonValue::as_array)
                .unwrap_or_else(|| panic!("golden lacks node {node}"));
            assert_eq!(want.len(), samples.len(), "sample count for {node}");
            for (k, (w, &g)) in want.iter().zip(samples).enumerate() {
                let w = w.as_f64().expect("sample is a number");
                let t = stop * k as f64 / (SAMPLES - 1) as f64;
                assert!(
                    (w - g).abs() <= tol,
                    "{name} ({engine}): node {node} off golden at t = {t:.3e}: golden {w}, got {g} (band {tol:.3e})"
                );
            }
        }
    }
}

#[test]
fn restore_waveforms_match_golden() {
    check_workload("proposed_restore_10");
}

#[test]
fn store_waveforms_match_golden() {
    check_workload("proposed_store_01");
}
