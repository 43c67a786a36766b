//! Recorded reference outputs and the comparison against them.
//!
//! `reference.json` (next to this crate's manifest, compiled into the
//! binary) holds, per workload, every simulated output the output check
//! compares: counts and Monte-Carlo estimates bit for bit, analog
//! quantities within [`APPROX_REL_TOL`]. It is written by
//! `perfbench --record <path>` on the code whose outputs are the
//! reference.

use std::collections::HashMap;

use telemetry::JsonValue;

use crate::{Observed, Tolerance};

/// Schema tag of the reference file.
pub const SCHEMA: &str = "perfbench-reference/1";

/// Relative tolerance of analog outputs: ten times the per-step error
/// the adaptive step controller accepts (`10 · LTE_TRTOL · LTE_RELTOL`),
/// the same band the repository's golden waveforms and its
/// adaptive-versus-fixed-step equivalence tests use.
pub const APPROX_REL_TOL: f64 = 10.0 * spice::analysis::LTE_TRTOL * spice::analysis::LTE_RELTOL;

/// The reference outputs compiled into the benchmark.
pub const EMBEDDED: &str = include_str!("../reference.json");

/// Reference values by workload and key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference {
    workloads: HashMap<String, HashMap<String, (Tolerance, f64)>>,
}

impl Reference {
    /// Parses a reference document.
    ///
    /// # Errors
    ///
    /// A message for malformed JSON, a wrong schema, or a non-numeric
    /// value.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("reference: {e}"))?;
        if doc.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
            return Err(format!("reference: schema is not {SCHEMA}"));
        }
        let Some(JsonValue::Object(workloads)) = doc.get("workloads") else {
            return Err("reference: missing workloads object".into());
        };
        let mut out = Self::default();
        for (workload, body) in workloads {
            let entries = out.workloads.entry(workload.clone()).or_default();
            for (class, tolerance) in [("exact", Tolerance::Exact), ("approx", Tolerance::Approx)] {
                let Some(JsonValue::Object(values)) = body.get(class) else {
                    continue;
                };
                for (key, value) in values {
                    let value = value
                        .as_f64()
                        .ok_or_else(|| format!("reference: {workload}.{key} is not a number"))?;
                    entries.insert(key.clone(), (tolerance, value));
                }
            }
        }
        Ok(out)
    }

    /// The reference compiled into the binary.
    ///
    /// # Panics
    ///
    /// Panics if the embedded file does not parse (a build defect).
    #[must_use]
    pub fn embedded() -> Self {
        Self::parse(EMBEDDED).expect("embedded reference.json parses")
    }

    /// The recorded value of `key` for `workload`.
    #[must_use]
    pub fn value(&self, workload: &str, key: &str) -> Option<f64> {
        self.workloads
            .get(workload)
            .and_then(|w| w.get(key))
            .map(|(_, v)| *v)
    }

    /// Compares one operation's outputs; returns one message per
    /// mismatch (empty when everything matches). A key without a
    /// reference value, or recorded under another tolerance, is a
    /// mismatch too: no output goes unchecked.
    #[must_use]
    pub fn compare(&self, workload: &str, observed: &Observed) -> Vec<String> {
        let empty = HashMap::new();
        let table = self.workloads.get(workload).unwrap_or(&empty);
        let mut problems = Vec::new();
        for (key, tolerance, got) in &observed.values {
            match table.get(key) {
                None => problems.push(format!("{key}: no reference value")),
                Some((recorded, _)) if recorded != tolerance => {
                    problems.push(format!(
                        "{key}: recorded as {recorded:?}, produced as {tolerance:?}"
                    ));
                }
                Some((_, want)) => {
                    if !matches(*tolerance, *want, *got) {
                        problems.push(format!("{key}: got {got:e}, reference {want:e}"));
                    }
                }
            }
        }
        problems
    }

    /// Replaces this reference's values for `workload` with `observed`
    /// (the `--record` path).
    pub fn replace(&mut self, workload: &str, observed: &[Observed]) {
        let entries = self.workloads.entry(workload.to_owned()).or_default();
        entries.clear();
        for op in observed {
            for (key, tolerance, value) in &op.values {
                entries.insert(key.clone(), (*tolerance, *value));
            }
        }
    }

    /// Renders the reference document (keys sorted, so re-recording
    /// unchanged outputs reproduces the file byte for byte).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut workloads: Vec<_> = self.workloads.iter().collect();
        workloads.sort_by(|a, b| a.0.cmp(b.0));
        let body = workloads
            .into_iter()
            .map(|(name, entries)| {
                let class = |want: Tolerance| {
                    let mut values: Vec<_> = entries
                        .iter()
                        .filter(|(_, (t, _))| *t == want)
                        .map(|(k, (_, v))| (k.clone(), JsonValue::Float(*v)))
                        .collect();
                    values.sort_by(|a, b| a.0.cmp(&b.0));
                    JsonValue::Object(values)
                };
                (
                    name.clone(),
                    JsonValue::object(vec![
                        ("exact".into(), class(Tolerance::Exact)),
                        ("approx".into(), class(Tolerance::Approx)),
                    ]),
                )
            })
            .collect();
        let doc = JsonValue::object(vec![
            ("schema".into(), JsonValue::Str(SCHEMA.into())),
            ("approx_rel_tol".into(), JsonValue::Float(APPROX_REL_TOL)),
            ("workloads".into(), JsonValue::Object(body)),
        ]);
        // One entry per line keeps diffs of the file readable.
        let mut text = doc.to_json().replace(",\"", ",\n\"");
        text.push('\n');
        text
    }
}

/// Whether `got` matches the reference `want` under `tolerance`.
#[must_use]
pub fn matches(tolerance: Tolerance, want: f64, got: f64) -> bool {
    match tolerance {
        Tolerance::Exact => want.to_bits() == got.to_bits(),
        Tolerance::Approx => {
            got.is_finite()
                && (got - want).abs() <= APPROX_REL_TOL * want.abs().max(f64::MIN_POSITIVE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_compares() {
        let mut obs = Observed::default();
        obs.exact("count", 42.0);
        obs.approx("energy", 4.587e-15);
        let mut reference = Reference::default();
        reference.replace("w", &[obs.clone()]);
        let back = Reference::parse(&reference.to_json()).expect("parses");
        assert_eq!(back, reference);
        assert!(back.compare("w", &obs).is_empty());

        let mut off = Observed::default();
        off.exact("count", 43.0);
        off.approx("energy", 4.587e-15 * 1.01);
        let problems = back.compare("w", &off);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("count"));

        let mut unknown = Observed::default();
        unknown.exact("other", 1.0);
        assert_eq!(back.compare("w", &unknown).len(), 1);
    }

    #[test]
    fn approx_band_is_relative() {
        assert!(matches(Tolerance::Approx, 100.0, 106.9));
        assert!(!matches(Tolerance::Approx, 100.0, 107.1));
        assert!(!matches(Tolerance::Approx, 1.0, f64::NAN));
        assert!(matches(Tolerance::Exact, 0.1 + 0.2, 0.1 + 0.2));
        assert!(!matches(Tolerance::Exact, 0.3, 0.1 + 0.2));
    }
}
