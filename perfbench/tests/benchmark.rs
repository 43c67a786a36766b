//! Tests of the benchmark itself: seeds move inputs but not the metric
//! set, the output check catches a one-digit change of the reference,
//! and every metric the benchmark prints is declared in
//! `BENCHMARK.json` with the same unit.

use std::collections::BTreeMap;

use perfbench::reference::{Reference, EMBEDDED};
use perfbench::{catalog, chserve_mix, paper_regen, wer_mc, Checks};
use telemetry::JsonValue;

/// Metric names a finished run reports, in order.
fn names(workload: &str, outcome: &perfbench::Outcome, trace: bool) -> Vec<String> {
    catalog::finalize(&outcome.metrics, trace, perfbench::not_measured(workload))
        .expect("the run measured a complete metric set")
        .entries()
        .iter()
        .map(|(name, _, _)| name.clone())
        .collect()
}

#[test]
fn a_new_seed_changes_the_request_stream_but_not_its_shape() {
    let a = chserve_mix::stream(1, chserve_mix::PASS_REQUESTS);
    let b = chserve_mix::stream(2, chserve_mix::PASS_REQUESTS);
    assert_eq!(a, chserve_mix::stream(1, chserve_mix::PASS_REQUESTS));
    assert_ne!(a, b);
    assert_eq!(a.len(), b.len());
    // Every drawn key is a valid request, and the stream both repeats
    // keys (hits) and names more keys than the memory cache holds.
    let mut distinct: Vec<&String> = a.iter().collect();
    distinct.sort();
    distinct.dedup();
    assert!(distinct.len() > chserve_mix::CACHE_CAPACITY);
    assert!(distinct.len() < a.len() / 2);
    for body in distinct {
        serve::CharacterizeRequest::parse(body).expect("stream bodies parse");
    }
}

#[test]
fn a_new_seed_changes_the_monte_carlo_draws_but_not_the_metric_set() {
    let inputs = wer_mc::prepare(1);
    let one = wer_mc::run_pass(&inputs, 1);
    let two = wer_mc::run_pass(&inputs, 2);
    assert_ne!(one.observed()[0], two.observed()[0], "grid draws");
    assert_ne!(one.observed()[1], two.observed()[1], "surface draws");
    // The set-up's tilt search predicts the surface's tilts at its own
    // seed, and a changed tilt is caught.
    assert!(wer_mc::tilt_problems(&one, &inputs).is_empty());
    assert_eq!(
        wer_mc::tilt_problems(&two, &wer_mc::prepare(2)),
        Vec::<String>::new()
    );
    let mut moved = inputs.clone();
    moved.tilts[3].mu[2] += 1e-12;
    assert_eq!(wer_mc::tilt_problems(&one, &moved).len(), 1);
    let reference = Reference::embedded();
    for pass in [&one, &two] {
        let problems = wer_mc::statistical_problems(pass, &reference);
        assert!(problems.is_empty(), "{problems:?}");
    }

    for trace in [false, true] {
        let a = perfbench::run(wer_mc::WORKLOAD, 1, 0.0, trace, &reference);
        let b = perfbench::run(wer_mc::WORKLOAD, 2, 0.0, trace, &reference);
        assert!(a.checks.failures.is_empty(), "{:?}", a.checks.failures);
        assert!(b.checks.failures.is_empty(), "{:?}", b.checks.failures);
        if trace {
            // The zero spice and service work is measured from the
            // traced telemetry, not filled in.
            for name in [
                "spice.symbolic_builds",
                "spice.newton_linear_s",
                "serve.requests",
                "serve.misses",
                "serve.disk_hits",
            ] {
                assert_eq!(a.metrics.get(name), Some(0.0), "{name}");
            }
        }
        assert_eq!(
            names(wer_mc::WORKLOAD, &a, trace),
            names(wer_mc::WORKLOAD, &b, trace)
        );
    }
    for trace in [false, true] {
        let a = perfbench::run(chserve_mix::WORKLOAD, 1, 0.0, trace, &reference);
        let b = perfbench::run(chserve_mix::WORKLOAD, 2, 0.0, trace, &reference);
        assert!(a.checks.failures.is_empty(), "{:?}", a.checks.failures);
        assert_eq!(
            names(chserve_mix::WORKLOAD, &a, trace),
            names(chserve_mix::WORKLOAD, &b, trace)
        );
    }
}

/// Changes the leading digit of the value recorded for `key`.
fn perturb_one_digit(text: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle).expect("key is recorded") + needle.len();
    let digit_at = at
        + text[at..]
            .find(|c: char| c.is_ascii_digit())
            .expect("a digit");
    let digit = text.as_bytes()[digit_at];
    let changed = if digit == b'9' {
        '1'
    } else {
        char::from(digit + 1)
    };
    let mut out = text.to_owned();
    out.replace_range(digit_at..=digit_at, &changed.to_string());
    out
}

#[test]
fn a_reference_perturbed_by_one_digit_fails_the_output_check() {
    let config = cells::LatchConfig::default();
    let point = paper_regen::family_width(&config, 1).expect("n = 1 characterizes");
    let observed = point.observed();
    let reference = Reference::embedded();
    assert!(reference
        .compare(paper_regen::WORKLOAD, &observed)
        .is_empty());

    for key in [
        "family.n1.solver.newton_iterations",
        "family.n1.read_energy_j",
    ] {
        let perturbed = Reference::parse(&perturb_one_digit(EMBEDDED, key)).expect("parses");
        let problems = perturbed.compare(paper_regen::WORKLOAD, &observed);
        assert_eq!(problems.len(), 1, "{key}: {problems:?}");
        assert!(problems[0].starts_with(key), "{problems:?}");
    }

    // A Monte-Carlo estimate, through the workload's own check.
    let perturbed =
        Reference::parse(&perturb_one_digit(EMBEDDED, "surface.p3.wer")).expect("parses");
    let pass = wer_mc::run_pass(
        &wer_mc::prepare(wer_mc::REFERENCE_SEED),
        wer_mc::REFERENCE_SEED,
    );
    let mut checks = Checks::default();
    for obs in pass.observed() {
        checks.record("reference", perturbed.compare(wer_mc::WORKLOAD, &obs));
    }
    assert_eq!(checks.failed(), 1, "{:?}", checks.failures);
}

#[test]
fn every_printed_metric_is_declared_in_benchmark_json_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let declared = |section: &str| -> BTreeMap<String, String> {
        doc.get(section)
            .and_then(JsonValue::as_array)
            .expect("metric section")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .expect("name")
                        .to_owned(),
                    m.get("unit")
                        .and_then(JsonValue::as_str)
                        .expect("unit")
                        .to_owned(),
                )
            })
            .collect()
    };
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let printed: BTreeMap<String, String> = catalog::names(trace)
            .into_iter()
            .map(|(name, unit)| (name, unit.to_owned()))
            .collect();
        assert_eq!(printed, declared(section), "{section}");
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, perfbench::WORKLOADS);
}
