//! The metric catalog: every name the benchmark may print, with its
//! unit. `BENCHMARK.json` lists the same names and units (a test holds
//! the two together); `README.md` documents each.

use crate::Metrics;

/// NV-word widths of the family sweep (the per-width metrics carry
/// `.n<w>` suffixes for these).
pub const WIDTHS: [usize; 5] = [1, 2, 4, 8, 16];

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_ops_per_s", "1/s"),
];

/// Per-layer metrics without a width suffix.
const PER_LAYER_FIXED: [(&str, &str); 53] = [
    ("table2_s", "s"),
    ("table3_s", "s"),
    ("family_s", "s"),
    ("paper_max_rel_err", "ratio"),
    ("mc_trials_per_s", "1/s"),
    ("is_samples_per_s", "1/s"),
    ("trace_overhead", "ratio"),
    ("spice.newton_iterations", "count"),
    ("spice.lu_factorizations", "count"),
    ("spice.accepted_steps", "count"),
    ("spice.lte_rejections", "count"),
    ("spice.step_halvings", "count"),
    ("spice.source_steps", "count"),
    ("spice.step_accept_ratio", "ratio"),
    ("spice.repivots", "count"),
    ("spice.symbolic_builds", "count"),
    ("spice.gmin_rounds", "count"),
    ("spice.newton_linear_s", "s"),
    ("spice.newton_linear_share", "ratio"),
    ("cells.corner_s.standard", "s"),
    ("cells.corner_s.proposed", "s"),
    ("sweep.wall_s", "s"),
    ("sweep.busy_s", "s"),
    ("sweep.speedup", "ratio"),
    ("sweep.idle_share", "ratio"),
    ("netlist.generate_s", "s"),
    ("place.place_s", "s"),
    ("merge.plan_s", "s"),
    ("merge.merged_pairs", "count"),
    ("mtj.grid_s", "s"),
    ("mtj.mc_trials", "count"),
    ("mtj.tilt_search_s", "s"),
    ("mtj.tail_s", "s"),
    ("mtj.ess_ratio", "ratio"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_tail_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.cache_probe_us", "us"),
    ("serve.render_us", "us"),
    ("serve.queue_depth", "count"),
    ("serve.batch_size", "count"),
    ("serve.requests", "count"),
    ("serve.disk_hits", "count"),
    ("serve.evictions", "count"),
    ("serve.wer_tail_requests", "count"),
    ("serve.distinct_keys", "count"),
    ("serve.characterizations", "count"),
];

/// Per-layer metrics measured once per family width.
const PER_LAYER_PER_WIDTH: [(&str, &str); 11] = [
    ("spice.host_us_per_newton", "us"),
    ("spice.unknowns", "count"),
    ("spice.csr_nnz", "count"),
    ("spice.lu_nnz", "count"),
    ("spice.fill_ratio", "ratio"),
    ("spice.session_build_s", "s"),
    ("spice.transient_s", "s"),
    ("cells.characterize_s", "s"),
    ("cells.restore_s", "s"),
    ("cells.store_s", "s"),
    ("cells.leakage_s", "s"),
];

/// Every per-layer metric, printed by every workload with `--trace 1`.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit))
        .collect();
    for (name, unit) in PER_LAYER_PER_WIDTH {
        for w in WIDTHS {
            out.push((format!("{name}.n{w}"), unit));
        }
    }
    out
}

/// Whether per-layer metric `name` falls under one of the name
/// prefixes a workload declares it does not measure.
#[must_use]
pub fn unmeasured(name: &str, not_measured: &[&str]) -> bool {
    not_measured.iter().any(|prefix| name.starts_with(prefix))
}

/// The metric list of one mode as `(name, unit)`.
#[must_use]
pub fn names(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_owned(), unit))
            .collect()
    }
}

/// Puts measured metrics into catalog order for the given mode.
///
/// A per-layer metric the run did not set reads 0 only when its name
/// falls under `not_measured`, the name prefixes the workload declares
/// it does not measure (a layer it bypasses, or a counter its layer
/// does not expose to it). Any other missing metric, a name outside
/// the catalog, a unit that differs from the catalog's, or a
/// non-finite value is an error.
///
/// # Errors
///
/// A message naming the offending metric.
pub fn finalize(measured: &Metrics, trace: bool, not_measured: &[&str]) -> Result<Metrics, String> {
    let catalog = names(trace);
    for (name, value, unit) in measured.entries() {
        match catalog.iter().find(|(n, _)| n == name) {
            None => return Err(format!("metric {name} is not in the catalog")),
            Some((_, want)) if want != unit => {
                return Err(format!(
                    "metric {name} has unit {unit}, catalog says {want}"
                ));
            }
            Some(_) if !value.is_finite() => {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            Some(_) => {}
        }
    }
    let mut out = Metrics::default();
    for (name, unit) in catalog {
        match measured.get(&name) {
            Some(value) => out.set(name, value, unit),
            None if trace && unmeasured(&name, not_measured) => out.set(name, 0.0, unit),
            None => return Err(format!("metric {name} was not measured")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all = names(false);
        all.extend(names(true));
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in &all {
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
        assert!(names(true).len() <= 128);
    }

    #[test]
    fn finalize_fills_only_declared_layers_and_rejects_strangers() {
        let mut m = Metrics::default();
        m.set("trace_overhead", 1.1, "ratio");
        let everything_else: Vec<String> = per_layer()
            .into_iter()
            .map(|(name, _)| name)
            .filter(|name| name != "trace_overhead")
            .collect();
        let declared: Vec<&str> = everything_else.iter().map(String::as_str).collect();
        let done = finalize(&m, true, &declared).expect("valid");
        assert_eq!(done.entries().len(), per_layer().len());
        assert_eq!(done.get("spice.lu_nnz.n16"), Some(0.0));
        assert_eq!(done.get("trace_overhead"), Some(1.1));
        let err = finalize(&m, true, &declared[1..]).expect_err("one layer undeclared");
        assert!(err.contains(declared[0]), "{err}");
        assert!(
            finalize(&m, false, &declared).is_err(),
            "end-to-end set is incomplete"
        );
        m.set("bogus", 1.0, "s");
        assert!(finalize(&m, true, &declared).is_err());
    }
}
