//! `ledger diff <base.jsonl> <new.jsonl>`: one row per workload ×
//! end-to-end metric, judged against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Run-to-run spread wider than the bound: the runs cannot tell a
    /// regression of that size from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub base: f64,
    pub new: f64,
    /// Larger interquartile range of the two sides, as a share of that
    /// side's median; zero when a side has a single run.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judge one metric from each side's per-run values. The medians are
/// compared in the metric's direction; `bound` is the share of the base
/// median it may worsen by.
pub fn judge(base: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> Row {
    // medians and quartiles as Python's `statistics` module gives them,
    // since that is what the acceptance check is written in
    let median = |v: &[f64]| {
        if v.len() >= 2 {
            stats::quartiles(v)[1]
        } else {
            v[0]
        }
    };
    let (b, n) = (median(base), median(new));
    let side_spread = |v: &[f64]| if v.len() >= 2 { stats::spread(v) } else { 0.0 };
    let spread = side_spread(base).max(side_spread(new));
    let worsening = if higher_is_better {
        (b - n) / b
    } else {
        (n - b) / b
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Row {
        base: b,
        new: n,
        spread,
        verdict,
    }
}

/// `workload → metric → values`, one value per untraced run in the file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if rec.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let field = |k: &str| {
            rec.get(k)
                .ok_or_else(|| format!("{path}:{}: no {k:?}", i + 1))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        for (name, m) in field("metrics")?.as_obj().unwrap_or_default() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// Print the table; `Ok(true)` when some row regressed.
pub fn run(base_path: &str, new_path: &str, bench_path: &str) -> Result<bool, String> {
    let bench = std::fs::read_to_string(bench_path).map_err(|e| format!("{bench_path}: {e}"))?;
    let bench = Json::parse(&bench).map_err(|e| format!("{bench_path}: {e}"))?;
    let (base, new) = (read_runs(base_path)?, read_runs(new_path)?);
    let metrics = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end in the benchmark file")?;
    println!(
        "{:14} {:15} {:>12} {:>12} {:>16} {:>7} {:>6} {:>6}  verdict",
        "workload", "metric", "base", "new", "new/base", "spread", "bound", "runs"
    );
    let mut counts = [0usize; 3];
    for (workload, base_metrics) in &base {
        for m in metrics {
            let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default();
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("end_to_end metric without a bound")?;
            let (Some(b), Some(n)) = (
                base_metrics.get(text("name")),
                new.get(workload).and_then(|w| w.get(text("name"))),
            ) else {
                continue;
            };
            let row = judge(b, n, text("better") == "higher", bound);
            counts[row.verdict as usize] += 1;
            println!(
                "{:14} {:15} {:12.4} {:12.4} {:>16} {:6.1}% {:5.0}% {:>6}  {}",
                workload,
                text("name"),
                row.base,
                row.new,
                format!("{:.3} of {:.4}", row.new / row.base, row.base),
                100.0 * row.spread,
                100.0 * bound,
                format!("{}/{}", b.len(), n.len()),
                row.verdict.label(),
            );
        }
    }
    println!(
        "{} ok, {} regressed, {} unresolved",
        counts[0], counts[1], counts[2]
    );
    Ok(counts[Verdict::Regressed as usize] > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        // lower is better: +3% inside a 5% bound, +8% outside it
        assert_eq!(
            judge(&steady, &[10.3, 10.3, 10.3], false, 0.05).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[10.8, 10.8, 10.9], false, 0.05).verdict,
            Verdict::Regressed
        );
        // an improvement is never a regression, however large
        assert_eq!(
            judge(&steady, &[5.0, 5.0, 5.0], false, 0.05).verdict,
            Verdict::Ok
        );
        // higher is better: the same numbers judged the other way round
        assert_eq!(
            judge(&steady, &[10.8, 10.8, 10.9], true, 0.05).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[9.0, 9.1, 9.0], true, 0.05).verdict,
            Verdict::Regressed
        );
        // spread wider than the bound on either side: unresolved, even
        // though the medians are equal
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(
            judge(&steady, &noisy, false, 0.05).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &steady, false, 0.05).verdict,
            Verdict::Unresolved
        );
        // a single run per side has no spread to show
        let one = judge(&[10.0], &[10.2], false, 0.05);
        assert_eq!((one.verdict, one.spread), (Verdict::Ok, 0.0));
        let row = judge(&steady, &[10.8, 10.8, 10.9], false, 0.05);
        assert_eq!((row.base, row.new), (10.0, 10.8));
        // an even count takes the mean of the middle two, as Python does
        assert_eq!(judge(&[1.0, 2.0, 3.0, 4.0], &[2.5], false, 0.5).base, 2.5);
    }
}
