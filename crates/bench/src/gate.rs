//! Shared helpers for bench `--check` CI gates.
//!
//! Every bench bin with a committed baseline writes its record and gates CI
//! through [`write_and_check`], so a failure always names the offending
//! metric, the baseline value, the observed value, and the percent delta —
//! a bare "regressed" error forces a local repro before anyone knows what
//! moved.

use crate::report::write_or_exit;
use gpu_sim::trace::{parse_json, Json};
use std::path::Path;

/// A committed baseline record, parsed once. Lookups name the file when a
/// key is missing or has the wrong type.
pub struct Baseline {
    path: String,
    doc: Json,
}

impl Baseline {
    fn parse(text: &str, path: &str) -> Result<Self, String> {
        let doc = parse_json(text).map_err(|e| format!("cannot parse baseline {path}: {e}"))?;
        Ok(Self {
            path: path.to_string(),
            doc,
        })
    }

    fn metric(&self, key: &str) -> Result<&Json, String> {
        self.doc
            .get(key)
            .ok_or_else(|| format!("no {key} in baseline {}", self.path))
    }

    /// A named number.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.metric(key)?
            .as_num()
            .ok_or_else(|| format!("{key} in baseline {} is not a number", self.path))
    }

    /// A named count.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.metric(key)?
            .as_u64()
            .ok_or_else(|| format!("{key} in baseline {} is not a count", self.path))
    }
}

/// Write `record` to `path` (pretty JSON), then, when the command line
/// holds `--check <baseline.json>`, run `check` against that baseline.
/// Exits 1 if the write or the check fails.
pub fn write_and_check(
    path: &str,
    record: &Json,
    check: impl FnOnce(&Baseline) -> Result<(), String>,
) {
    write_or_exit(Path::new(path), &record.pretty());
    let Some(baseline_path) = std::env::args().skip_while(|a| a != "--check").nth(1) else {
        return;
    };
    let result = std::fs::read_to_string(&baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))
        .and_then(|text| Baseline::parse(&text, &baseline_path))
        .and_then(|base| check(&base));
    match result {
        Ok(()) => println!("[--check passed vs {baseline_path}]"),
        Err(e) => {
            eprintln!("[--check FAILED: {e}]");
            std::process::exit(1);
        }
    }
}

/// Render the standard failure line: metric, baseline, observed, delta.
pub fn describe(metric: &str, baseline: f64, observed: f64, requirement: &str) -> String {
    let delta = if baseline != 0.0 {
        format!("{:+.1}%", (observed - baseline) / baseline * 100.0)
    } else if observed == 0.0 {
        "+0.0%".to_string()
    } else {
        "+inf%".to_string()
    };
    format!(
        "metric {metric}: baseline {baseline:.4}, observed {observed:.4}, \
         delta {delta} — {requirement}"
    )
}

/// Gate: `observed` may not exceed `baseline * headroom`.
pub fn require_not_above(
    metric: &str,
    baseline: f64,
    observed: f64,
    headroom: f64,
) -> Result<(), String> {
    if observed > baseline * headroom {
        return Err(describe(
            metric,
            baseline,
            observed,
            &format!("must stay <= {:.1}x the baseline", headroom),
        ));
    }
    Ok(())
}

/// Gate: `observed` may not fall below `baseline * floor_frac`.
pub fn require_not_below(
    metric: &str,
    baseline: f64,
    observed: f64,
    floor_frac: f64,
) -> Result<(), String> {
    if observed < baseline * floor_frac {
        return Err(describe(
            metric,
            baseline,
            observed,
            &format!("must stay >= {:.2}x the baseline", floor_frac),
        ));
    }
    Ok(())
}

/// Gate: `observed` must equal `baseline` exactly (deterministic counters).
pub fn require_exact(metric: &str, baseline: u64, observed: u64) -> Result<(), String> {
    if observed != baseline {
        return Err(describe(
            metric,
            baseline as f64,
            observed as f64,
            "must match the committed baseline exactly (regenerate it if this change is intended)",
        ));
    }
    Ok(())
}

/// Gate: `observed` must be nonzero (liveness counters, e.g. cache hits).
pub fn require_nonzero(metric: &str, observed: u64) -> Result<(), String> {
    if observed == 0 {
        return Err(describe(
            metric,
            1.0,
            0.0,
            "must stay nonzero (the mechanism it counts stopped firing)",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_names_metric_and_delta() {
        let err = require_not_above("allocs_per_launch", 10.0, 26.0, 1.25).unwrap_err();
        assert!(err.contains("allocs_per_launch"), "{err}");
        assert!(err.contains("10.0000"), "{err}");
        assert!(err.contains("26.0000"), "{err}");
        assert!(err.contains("+160.0%"), "{err}");
    }

    #[test]
    fn gates_pass_within_headroom() {
        assert!(require_not_above("m", 10.0, 12.0, 1.25).is_ok());
        assert!(require_not_below("m", 10.0, 6.0, 0.5).is_ok());
        assert!(require_exact("m", 5, 5).is_ok());
        assert!(require_nonzero("m", 1).is_ok());
    }

    #[test]
    fn exact_gate_reports_drift() {
        let err = require_exact("launches", 100, 101).unwrap_err();
        assert!(err.contains("launches"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn baseline_reads_flat_objects() {
        let text = "{\n  \"a\": 1.5,\n  \"b\": 7\n}\n";
        let base = Baseline::parse(text, "base.json").expect("parses");
        assert_eq!(base.f64("a").ok(), Some(1.5));
        assert_eq!(base.u64("b").ok(), Some(7));
        assert!(base.u64("a").is_err(), "1.5 is not a count");
        let err = base.f64("missing").unwrap_err();
        assert!(
            err.contains("missing") && err.contains("base.json"),
            "{err}"
        );
    }
}
