//! Host and build fingerprint, the pinned-engine guard, and process
//! memory.

use std::path::Path;

use telemetry::JsonValue;

/// Environment switches the benchmark refuses to run under. Each is
/// process-global and changes numerics or service sizing without
/// reaching any cache key, so a run under one would not measure the
/// configuration the reference and the baseline were taken on.
pub const FORBIDDEN_ENV: [&str; 5] = [
    "NVFF_SOLVER",
    "NVFF_TRANSIENT",
    "NVFF_LANES",
    "NVFF_TRACE",
    "NVFF_CACHE_DIR",
];

/// Prefix of the service-sizing switches (`NVFF_SERVE_WORKERS`, ...),
/// all refused.
pub const FORBIDDEN_ENV_PREFIX: &str = "NVFF_SERVE_";

/// The refused switches present in `vars`.
#[must_use]
pub fn forbidden_switches(vars: impl IntoIterator<Item = (String, String)>) -> Vec<String> {
    let mut found: Vec<String> = vars
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| {
            FORBIDDEN_ENV.contains(&name.as_str()) || name.starts_with(FORBIDDEN_ENV_PREFIX)
        })
        .collect();
    found.sort();
    found
}

/// Effective `RUSTFLAGS` of this build (from the workspace's
/// `.cargo/config.toml` or the environment), captured by `build.rs`.
pub const RUSTFLAGS: &str = env!("PERFBENCH_RUSTFLAGS");

/// `rustc -V` of the compiler that built this binary.
pub const RUSTC_VERSION: &str = env!("PERFBENCH_RUSTC_VERSION");

/// The host/build fingerprint recorded with every run.
#[must_use]
pub fn fingerprint(workload: &str, seed: u64, seconds: u64, trace: bool) -> JsonValue {
    let features: Vec<JsonValue> = [
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(name, _)| JsonValue::Str((*name).into()))
    .collect();
    JsonValue::object(vec![
        ("cpu_model".into(), JsonValue::Str(cpu_model())),
        (
            "nproc".into(),
            JsonValue::Int(sweep::available_parallelism() as i64),
        ),
        ("rustc".into(), JsonValue::Str(RUSTC_VERSION.into())),
        ("rustflags".into(), JsonValue::Str(RUSTFLAGS.into())),
        ("target_features".into(), JsonValue::Array(features)),
        ("git_rev".into(), JsonValue::Str(git_rev())),
        ("jobs".into(), JsonValue::Int(crate::JOBS as i64)),
        ("lanes".into(), JsonValue::Int(crate::LANES as i64)),
        ("workload".into(), JsonValue::Str(workload.into())),
        ("seed".into(), JsonValue::Int(seed as i64)),
        ("seconds".into(), JsonValue::Int(seconds as i64)),
        ("trace".into(), JsonValue::Bool(trace)),
    ])
}

/// CPU model name from `/proc/cpuinfo` (`"unknown"` elsewhere).
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Git revision of the checkout in the working directory, read from
/// `.git` without leaving it (`"unknown"` when there is none).
#[must_use]
pub fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(Path::new(".git").join(path)).ok();
    let resolved = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_owned()),
        Some(reference) => read(reference).map(|r| r.trim().to_owned()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        }),
    });
    resolved
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_switches_are_refused() {
        let vars = [
            ("PATH", "/bin"),
            ("NVFF_SERVE_WORKERS", "4"),
            ("NVFF_SOLVER", "dense"),
            ("NVFF_POSTMORTEM", "x"),
        ]
        .map(|(k, v)| (k.to_owned(), v.to_owned()));
        assert_eq!(
            forbidden_switches(vars),
            vec!["NVFF_SERVE_WORKERS".to_owned(), "NVFF_SOLVER".to_owned()]
        );
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
