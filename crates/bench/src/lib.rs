//! The `bench` binary's report format: [`BenchReport`], the schema-versioned
//! `BENCH_*.json` trajectory of timed kernels, and the baseline selection
//! behind `bench --check-latest`.
//!
//! The paper's tables and figures are not benchmarks: `ayb report RUN_ID`
//! renders them from one stored run.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::path::Path;

/// Report format version of `BENCH_*.json`; bump when the shape changes.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// One timed kernel of a `bench` run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelReport {
    /// Stable kernel name; the unit `--check` compares across reports.
    pub name: String,
    /// Outer (timed) iterations.
    pub iters: u64,
    /// Mean seconds per iteration.
    pub mean_seconds: f64,
    /// Best (minimum) seconds per iteration — what `--check` compares,
    /// being the least noise-sensitive statistic.
    pub min_seconds: f64,
}

/// A complete `bench` report — the unit committed as `BENCH_<date>.json`.
///
/// `Deserialize` is implemented by hand so baselines written before
/// `generated_unix` existed still load (the stamp defaults to `0`, which
/// sorts every legacy baseline before any stamped one).
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Report format version.
    pub schema_version: u64,
    /// `quick` or `full`.
    pub mode: String,
    /// When the report was generated, seconds since the Unix epoch
    /// (`0` on baselines predating the field).
    pub generated_unix: u64,
    /// Every timed kernel, in execution order.
    pub kernels: Vec<KernelReport>,
}

impl Deserialize for BenchReport {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let generated_unix = match value.get("generated_unix") {
            Some(field) => Deserialize::from_value(field)?,
            None => 0,
        };
        Ok(BenchReport {
            schema_version: Deserialize::from_value(serde::__field(value, "schema_version")?)?,
            mode: Deserialize::from_value(serde::__field(value, "mode")?)?,
            generated_unix,
            kernels: Deserialize::from_value(serde::__field(value, "kernels")?)?,
        })
    }
}

/// Picks the newest baseline among `(path, report)` candidates.
///
/// Newest means the greatest `generated_unix` *inside* the report — a
/// baseline's own stamp, not its filename, decides. Filenames only break
/// ties (lexicographically greatest wins), which keeps a directory of
/// legacy baselines — all stamped `0` — resolving exactly as the historical
/// `ls BENCH_*.json | sort | tail -1` did.
pub fn newest_baseline(candidates: &[(String, BenchReport)]) -> Option<&(String, BenchReport)> {
    candidates.iter().max_by(|a, b| {
        a.1.generated_unix
            .cmp(&b.1.generated_unix)
            .then_with(|| a.0.cmp(&b.0))
    })
}

/// Loads every `BENCH_*.json` in `dir` and returns the newest one (per
/// [`newest_baseline`]), or `None` when the directory has no baselines.
///
/// # Errors
///
/// Returns a message when the directory cannot be listed or any candidate
/// baseline fails to parse — a corrupt committed baseline should fail the
/// check loudly, not silently shrink the candidate set.
pub fn load_newest_baseline(dir: &Path) -> Result<Option<(String, BenchReport)>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot list {dir:?}: {e}"))?;
    let mut candidates = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {dir:?}: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let text = std::fs::read_to_string(entry.path())
            .map_err(|e| format!("cannot read {name}: {e}"))?;
        let report: BenchReport =
            serde_json::from_str(&text).map_err(|e| format!("cannot parse {name}: {e}"))?;
        candidates.push((name, report));
    }
    Ok(newest_baseline(&candidates).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(stamp: u64) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            mode: "quick".to_string(),
            generated_unix: stamp,
            kernels: Vec::new(),
        }
    }

    #[test]
    fn newest_baseline_selects_by_report_stamp_not_filename() {
        // A baseline named "earlier" but stamped later must win: the
        // report's own timestamp is authoritative, the filename is not.
        let candidates = vec![
            ("BENCH_2026-09-30.json".to_string(), report(100)),
            ("BENCH_2026-01-01.json".to_string(), report(500)),
            ("BENCH_2026-05-05.json".to_string(), report(300)),
        ];
        let (name, chosen) = newest_baseline(&candidates).unwrap();
        assert_eq!(name, "BENCH_2026-01-01.json");
        assert_eq!(chosen.generated_unix, 500);
    }

    #[test]
    fn newest_baseline_ties_break_by_filename_like_the_legacy_sort() {
        // Legacy baselines all deserialize with stamp 0; among them the
        // lexicographically greatest filename wins, exactly as the old
        // `ls BENCH_*.json | sort | tail -1` selection did.
        let candidates = vec![
            ("BENCH_2026-08-08.json".to_string(), report(0)),
            ("BENCH_2026-08-08b.json".to_string(), report(0)),
            ("BENCH_2026-07-01.json".to_string(), report(0)),
        ];
        let (name, _) = newest_baseline(&candidates).unwrap();
        assert_eq!(name, "BENCH_2026-08-08b.json");
        assert!(newest_baseline(&[]).is_none());
    }

    #[test]
    fn legacy_reports_without_a_stamp_still_deserialize() {
        let legacy = "{\"schema_version\": 1, \"mode\": \"quick\", \"kernels\": \
                      [{\"name\": \"k\", \"iters\": 3, \"mean_seconds\": 0.5, \
                        \"min_seconds\": 0.4}]}";
        let parsed: BenchReport = serde_json::from_str(legacy).expect("legacy parses");
        assert_eq!(parsed.generated_unix, 0);
        assert_eq!(parsed.kernels.len(), 1);
        assert_eq!(parsed.kernels[0].name, "k");

        // And the current shape round-trips with its stamp intact.
        let stamped = report(1_765_000_000);
        let text = serde_json::to_string(&stamped).unwrap();
        let back: BenchReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.generated_unix, 1_765_000_000);
    }
}
