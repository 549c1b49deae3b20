//! `--compare A B`: applies the `BENCHMARK.json` bounds to every
//! (end-to-end metric, workload) pair of two sets of runs.
//!
//! A side is a results file or a directory of them; each may hold one
//! workload run or an all-workloads run. Per pair, with the change in the
//! worse direction taken as a share of A's median:
//!
//! * `unresolved` — either side's quartile spread (as a share of its
//!   median) exceeds the bound, unless every B run beats every A run;
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `improved` — B's median is better by more than either side's spread;
//! * `unchanged` — otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use smart_serve::json::Json;

use crate::stats::{median, spread};
use crate::MetricSpec;

/// `(workload, metric)` → the values of one side's runs.
type Side = BTreeMap<(String, String), Vec<f64>>;

fn collect(v: &Json, side: &mut Side) {
    if let Some(runs) = v.get("results").and_then(Json::as_array) {
        runs.iter().for_each(|r| collect(r, side));
        return;
    }
    let (Some(workload), Some(Json::Obj(metrics))) =
        (v.get("workload").and_then(Json::as_str), v.get("metrics"))
    else {
        return;
    };
    for (name, m) in metrics {
        if let Some(x) = m.get("value").and_then(Json::as_f64) {
            side.entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(x);
        }
    }
}

fn load(path: &Path) -> Result<Side, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let p = entry.map_err(|e| e.to_string())?.path();
            if p.extension().is_some_and(|e| e == "json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut side = Side::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let v = Json::parse(text.trim()).map_err(|e| format!("{}: {e}", f.display()))?;
        collect(&v, &mut side);
    }
    if side.is_empty() {
        return Err(format!("{}: no results found", path.display()));
    }
    Ok(side)
}

/// The verdict on one pair.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> &'static str {
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let (ma, mb) = (median(a), median(b));
    let worse = if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let noise = spread(a).max(spread(b));
    if noise > bound {
        if b.iter().all(|&y| a.iter().all(|&x| better(y, x))) {
            "improved"
        } else {
            "unresolved"
        }
    } else if worse > bound {
        "regressed"
    } else if -worse > noise {
        "improved"
    } else {
        "unchanged"
    }
}

/// Prints one row per pair; returns whether any pair regressed.
pub fn run(a: &Path, b: &Path, metrics: &[MetricSpec]) -> Result<bool, String> {
    let (sa, sb) = (load(a)?, load(b)?);
    let mut workloads: Vec<&String> = sa.keys().map(|(w, _)| w).collect();
    workloads.dedup();
    println!(
        "{:<10} {:<16} {:>4} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "runs", "median A", "median B", "change", "spread", "bound"
    );
    let mut regressed = false;
    for w in workloads {
        for m in metrics.iter().filter(|m| m.bound.is_some()) {
            let key = (w.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (sa.get(&key), sb.get(&key)) else {
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(va, vb, m.higher_is_better, bound);
            regressed |= v == "regressed";
            println!(
                "{w:<10} {:<16} {:>4} {:>12.5} {:>12.5} {:>+7.2}% {:>6.2}% {:>6.1}%  {v}",
                m.name,
                format!("{}/{}", va.len(), vb.len()),
                median(va),
                median(vb),
                100.0 * (median(vb) / median(va) - 1.0),
                100.0 * spread(va).max(spread(vb)),
                100.0 * bound,
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&a, &a, false, 0.1), "unchanged");
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slower, false, 0.1), "regressed");
        assert_eq!(verdict(&a, &slower, true, 0.1), "improved");
        let noisy = [50.0, 150.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&a, &noisy, false, 0.1), "unresolved");
        let far_better = [10.0, 30.0, 20.0, 15.0, 25.0];
        assert_eq!(verdict(&a, &far_better, false, 0.1), "improved");
    }
}
