//! `compare A/ B/`: judges two sets of result files against the bounds
//! `BENCHMARK.json` fixes, one row per (workload, end-to-end metric).

use crate::json::{self, Value};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::path::Path;

/// How one (workload, metric) pair compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Within the bound, but a side's own run-to-run spread exceeds the
    /// bound, so "unchanged" cannot be told from "changed".
    UnresolvedSpread,
}

impl Verdict {
    /// The word printed in the table.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::UnresolvedSpread => "unresolved-spread",
        }
    }
}

/// Judges B against A. `worse` is the relative change in the bad
/// direction (positive = B is worse).
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = if higher_is_better { (ma - mb) / ma.abs() } else { (mb - ma) / ma.abs() };
    let noisy = |xs: &[f64]| spread(xs).is_some_and(|s| s > bound);
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if noisy(a) || noisy(b) {
        Verdict::UnresolvedSpread
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// workload → metric → values, over every untraced `result-*.json` in `dir`.
type Results = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(dir: &Path) -> Result<Results, String> {
    let mut out = Results::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("result-") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read {name}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        if doc.get("trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let workload =
            doc.get("workload").and_then(Value::as_str).ok_or(format!("{name}: no workload"))?;
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or(format!("{name}: no metrics"))?;
        let by_metric = out.entry(workload.to_string()).or_default();
        for (metric, v) in metrics {
            let value = v
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("{name}: {metric} has no value"))?;
            by_metric.entry(metric.clone()).or_default().push(value);
        }
    }
    if out.is_empty() {
        return Err(format!("{} holds no untraced result-*.json", dir.display()));
    }
    Ok(out)
}

/// Prints the comparison table; `Ok(true)` when nothing regressed.
pub fn compare(a_dir: &Path, b_dir: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("read {}: {e}", benchmark_json.display()))?;
    let spec = json::parse(&text)?;
    let declared =
        spec.get("end_to_end").and_then(Value::as_arr).ok_or("BENCHMARK.json: no end_to_end")?;
    let (a, b) = (load(a_dir)?, load(b_dir)?);
    let mut clean = true;
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "iqr A", "iqr B", "bound"
    );
    for (workload, a_metrics) in &a {
        for e in declared {
            let name =
                e.get("name").and_then(Value::as_str).ok_or("end_to_end entry without name")?;
            let bound =
                e.get("bound").and_then(Value::as_f64).ok_or("end_to_end entry without bound")?;
            let higher = e.get("better").and_then(Value::as_str) == Some("higher");
            let (Some(xs), Some(ys)) =
                (a_metrics.get(name), b.get(workload).and_then(|m| m.get(name)))
            else {
                return Err(format!("{workload}/{name} is missing from one side"));
            };
            let (worse, verdict) = judge(xs, ys, higher, bound);
            clean &= verdict != Verdict::Regressed;
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{:<16} {:<12} {:>12.4} {:>12.4} {:>7.1}% {:>8} {:>8} {:>5.0}%  {}",
                workload,
                name,
                median(xs),
                median(ys),
                worse * 100.0,
                pct(spread(xs)),
                pct(spread(ys)),
                bound * 100.0,
                verdict.name()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(judge(&steady, &[10.5, 10.4, 10.6, 10.5, 10.5], false, 0.10).1, Verdict::Ok);
        assert_eq!(
            judge(&steady, &[11.5, 11.4, 11.6, 11.5, 11.5], false, 0.10).1,
            Verdict::Regressed
        );
        // Higher-is-better flips the direction.
        assert_eq!(judge(&steady, &[11.5, 11.4, 11.6, 11.5, 11.5], true, 0.10).1, Verdict::Ok);
        assert_eq!(judge(&steady, &[8.0, 8.1, 7.9, 8.0, 8.0], true, 0.10).1, Verdict::Regressed);
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(judge(&noisy, &steady, false, 0.10).1, Verdict::UnresolvedSpread);
        // One run a side has no spread to speak of.
        assert_eq!(judge(&[10.0], &[10.2], false, 0.10).1, Verdict::Ok);
    }
}
