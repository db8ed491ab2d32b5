//! Shared helpers for bench `--check` CI gates.
//!
//! Every bench bin with a committed baseline (`simwall`, `trace_model`,
//! `funcwall`) gates CI through these functions so a failure always names
//! the offending metric, the baseline value, the observed value, and the
//! percent delta — a bare "regressed" error forces a local repro before
//! anyone knows what moved.
//!
//! The vendored serde stub cannot deserialize, so baselines are read with
//! the simulator's own JSON reader ([`gpu_sim::trace::parse_json`]).

use gpu_sim::trace::{parse_json, Json};
use std::io::Read as _;

/// Read a baseline JSON file into memory.
pub fn read_baseline(path: &str) -> Result<String, String> {
    let mut text = String::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text).map(|_| ()))
        .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    Ok(text)
}

/// A named number from the baseline, or an error naming the file.
fn metric(text: &str, key: &str, path: &str) -> Result<Json, String> {
    let doc = parse_json(text).map_err(|e| format!("cannot parse baseline {path}: {e}"))?;
    doc.get(key)
        .cloned()
        .ok_or_else(|| format!("no {key} in baseline {path}"))
}

/// A named metric parsed from the baseline, or an error naming the file.
pub fn metric_f64(text: &str, key: &str, path: &str) -> Result<f64, String> {
    metric(text, key, path)?
        .as_num()
        .ok_or_else(|| format!("{key} in baseline {path} is not a number"))
}

/// Integer variant of [`metric_f64`].
pub fn metric_u64(text: &str, key: &str, path: &str) -> Result<u64, String> {
    metric(text, key, path)?
        .as_u64()
        .ok_or_else(|| format!("{key} in baseline {path} is not a count"))
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
    fn json_scanner_reads_flat_objects() {
        let text = "{\n  \"a\": 1.5,\n  \"b\": 7\n}\n";
        assert_eq!(metric_f64(text, "a", "p").ok(), Some(1.5));
        assert_eq!(metric_u64(text, "b", "p").ok(), Some(7));
        assert!(metric_f64(text, "missing", "p").is_err());
    }
}
