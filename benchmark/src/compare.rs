//! `compare <a.jsonl> <b.jsonl>`: judges two sets of runs — a parent and a
//! change, or the same commit twice (A/A) — by the rule of the
//! `choosing-metrics` guide, section 6.5.
//!
//! Per workload and end-to-end metric, with the bound from
//! `BENCHMARK.json`:
//!
//! * `unchanged` — the second set's median is no worse than the first's by
//!   more than the bound (also when every run of the second set reads
//!   better than every run of the first);
//! * `unresolved (spread > bound)` — the run-to-run spread of either set
//!   (interquartile distance over median) is wider than the bound, so the
//!   medians cannot resolve a change of that size;
//! * `regressed` — resolved, and worse by more than the bound.
//!
//! Runs of one workload, seed, length and scale must agree on their
//! transcript digest and on every exact count, within and across the sets;
//! the explore workloads must agree on the digest of their common tape
//! prefix. Exits non-zero on `regressed` or on any such mismatch.

use crate::catalogue::{Better, Spec, END_TO_END};
use crate::stats;
use sdd_server::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// What [`compare_files`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The table and findings, ready to print.
    pub text: String,
    /// False on a regression or a determinism mismatch.
    pub passed: bool,
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound.
    Unchanged,
    /// Worse by more than the bound, and the spread resolves it.
    Regressed,
    /// The spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// The words printed.
    pub fn words(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved (spread > bound)",
        }
    }
}

/// One run, as read back from a results file.
#[derive(Debug, Clone)]
struct Run {
    workload: String,
    seed: String,
    seconds: usize,
    scale: String,
    traced: bool,
    correct: bool,
    digest: String,
    checkpoints: BTreeMap<usize, String>,
    metrics: BTreeMap<String, f64>,
    exact: BTreeMap<String, f64>,
}

fn parse_run(line: &str) -> Result<Run, String> {
    let j = Json::parse(line).map_err(|e| format!("not JSON: {e}"))?;
    let text = |k: &str| -> Result<String, String> {
        j.get(k)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing string {k:?}"))
    };
    let flag = |k: &str| {
        j.get(k)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("missing flag {k:?}"))
    };
    let numbers = |k: &str, inner: Option<&str>| -> Result<BTreeMap<String, f64>, String> {
        match j.get(k) {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(name, v)| {
                    inner
                        .map_or(Some(v), |field| v.get(field))
                        .and_then(Json::as_f64)
                        .map(|n| (name.clone(), n))
                        .ok_or_else(|| format!("{k}.{name} is not a number"))
                })
                .collect(),
            _ => Err(format!("missing object {k:?}")),
        }
    };
    let checkpoints = j
        .get("checkpoints")
        .and_then(Json::as_arr)
        .ok_or("missing array \"checkpoints\"")?
        .iter()
        .map(|c| {
            let pair = c
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or("bad checkpoint")?;
            Ok((
                pair[0].as_usize().ok_or("bad checkpoint position")?,
                pair[1].as_str().ok_or("bad checkpoint digest")?.to_owned(),
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(Run {
        workload: text("workload")?,
        seed: text("seed")?,
        seconds: j
            .get("seconds")
            .and_then(Json::as_usize)
            .ok_or("missing \"seconds\"")?,
        scale: text("scale")?,
        traced: flag("traced")?,
        correct: flag("correct")?,
        digest: text("transcript_digest")?,
        checkpoints,
        metrics: numbers("metrics", Some("value"))?,
        exact: numbers("exact", None)?,
    })
}

fn read_set(path: &Path) -> Result<Vec<Run>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let runs: Vec<Run> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| parse_run(l).map_err(|e| format!("{} line {}: {e}", path.display(), i + 1)))
        .collect::<Result<_, _>>()?;
    if runs.is_empty() {
        return Err(format!("{} holds no runs", path.display()));
    }
    Ok(runs)
}

/// The bounds of `BENCHMARK.json` (name → share of the median).
pub fn bounds_from(benchmark_json: &str) -> Result<BTreeMap<String, f64>, String> {
    let j = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    j.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok((
                m.get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_owned(),
                m.get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            ))
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worse_by(spec: &Spec, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match spec.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// The section 6.5 rule for one workload × metric.
pub fn judge(spec: &Spec, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let every_run_better = match spec.better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    if every_run_better {
        return Verdict::Unchanged;
    }
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    if worse_by(spec, stats::median_of_runs(a), stats::median_of_runs(b)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Interquartile distance over median; zero for a single run.
fn spread(v: &[f64]) -> f64 {
    if v.len() < 2 {
        0.0
    } else {
        stats::relative_iqr(v)
    }
}

/// Compares two result files with the bounds of the `BENCHMARK.json` at
/// `benchmark_json`.
pub fn compare_files(a: &Path, b: &Path, benchmark_json: &Path) -> Result<Report, String> {
    let bounds = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("read {}: {e}", benchmark_json.display()))?;
    compare_sets(&read_set(a)?, &read_set(b)?, &bounds_from(&bounds)?)
}

fn compare_sets(a: &[Run], b: &[Run], bounds: &BTreeMap<String, f64>) -> Result<Report, String> {
    let mut text = String::new();
    let mut passed = true;
    let all: Vec<&Run> = a.iter().chain(b).collect();

    let scales: Vec<&str> = {
        let mut s: Vec<&str> = all.iter().map(|r| r.scale.as_str()).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    if scales.len() != 1 {
        return Err(format!(
            "runs of different scales cannot be compared: {scales:?}"
        ));
    }
    if scales[0] != "full" {
        let _ = writeln!(
            text,
            "NOTE: {} scale — a plumbing check, not a measurement",
            scales[0]
        );
    }
    for r in all.iter().filter(|r| !r.correct) {
        passed = false;
        let _ = writeln!(text, "INCORRECT RUN: {} seed {}", r.workload, r.seed);
    }

    // Determinism: one digest and one set of exact counts per
    // (workload, seed, length, timed-or-traced).
    let mut by_tape: BTreeMap<(&str, &str, usize, bool), Vec<&Run>> = BTreeMap::new();
    for r in &all {
        by_tape
            .entry((&r.workload, &r.seed, r.seconds, r.traced))
            .or_default()
            .push(r);
    }
    for ((workload, seed, seconds, traced), runs) in &by_tape {
        let first = runs[0];
        for r in &runs[1..] {
            if r.digest != first.digest {
                passed = false;
                let _ = writeln!(
                    text,
                    "DIGEST MISMATCH: {workload} seed {seed} ({seconds} s, traced {traced}): {} vs {}",
                    first.digest, r.digest
                );
            }
            for (name, value) in &first.exact {
                if r.exact.get(name).map(|v| v.to_bits()) != Some(value.to_bits()) {
                    passed = false;
                    let _ = writeln!(
                        text,
                        "EXACT COUNT MISMATCH: {workload} seed {seed}: {name} = {value} vs {:?}",
                        r.exact.get(name)
                    );
                }
            }
        }
    }
    // The two explore workloads replay one tape: equal digests wherever
    // both kept a checkpoint.
    for ((workload, seed, _, traced), runs) in &by_tape {
        if *workload != "explore_spill" || *traced {
            continue;
        }
        let resident = all
            .iter()
            .find(|r| r.workload == "explore_resident" && r.seed == *seed && !r.traced);
        let Some(resident) = resident else { continue };
        let common = runs[0]
            .checkpoints
            .iter()
            .filter_map(|(n, d)| resident.checkpoints.get(n).map(|rd| (n, d, rd)))
            .next_back();
        match common {
            Some((n, spill, res)) if spill != res => {
                passed = false;
                let _ = writeln!(
                    text,
                    "PREFIX MISMATCH: seed {seed}: after {n} visits explore_spill {spill} vs explore_resident {res}"
                );
            }
            Some((n, _, _)) => {
                let _ = writeln!(
                    text,
                    "prefix ok: seed {seed}: explore_spill = explore_resident over {n} visits"
                );
            }
            None => {}
        }
    }

    let _ = writeln!(
        text,
        "{:<17} {:<21} {:>5} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "runs",
        "median A",
        "median B",
        "change",
        "spread A",
        "spread B",
        "bound"
    );
    let timed = |set: &[Run], workload: &str, metric: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| r.workload == workload && !r.traced)
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect()
    };
    let mut workloads: Vec<&str> = all
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    for workload in workloads {
        for spec in &END_TO_END {
            let (va, vb) = (timed(a, workload, spec.name), timed(b, workload, spec.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = *bounds
                .get(spec.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", spec.name))?;
            let verdict = judge(spec, bound, &va, &vb);
            passed &= verdict != Verdict::Regressed;
            let (ma, mb) = (stats::median_of_runs(&va), stats::median_of_runs(&vb));
            let _ = writeln!(
                text,
                "{:<17} {:<21} {:>2}+{:<2} {:>12.4} {:>12.4} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                workload,
                spec.name,
                va.len(),
                vb.len(),
                ma,
                mb,
                (mb - ma) / ma * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                bound * 100.0,
                verdict.words()
            );
        }
    }
    let _ = writeln!(text, "{}", if passed { "PASS" } else { "FAIL" });
    Ok(Report { text, passed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::END_TO_END;

    fn latency() -> &'static Spec {
        &END_TO_END[2] // expand_root_p50_ms, lower is better, bound 8 %
    }

    fn throughput() -> &'static Spec {
        &END_TO_END[1] // requests_per_s, higher is better
    }

    #[test]
    fn verdicts_follow_the_guide() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        // Within the bound.
        assert_eq!(
            judge(latency(), 0.08, &a, &[10.3, 10.4, 10.2, 10.35, 10.25]),
            Verdict::Unchanged
        );
        // Worse by 20 %, tight spreads.
        assert_eq!(
            judge(latency(), 0.08, &a, &[12.0, 12.1, 11.9, 12.05, 11.95]),
            Verdict::Regressed
        );
        // The same medians with one set spread over 30 %: cannot tell.
        assert_eq!(
            judge(latency(), 0.08, &a, &[9.0, 12.0, 15.0, 10.0, 14.0]),
            Verdict::Unresolved
        );
        // Wide spread, but every run of B beats every run of A.
        assert_eq!(
            judge(latency(), 0.08, &[10.0, 12.0, 14.0], &[5.0, 7.0, 9.0]),
            Verdict::Unchanged
        );
        // Direction: a throughput that drops 20 % regresses, one that rises does not.
        let t = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(throughput(), 0.08, &t, &[80.0, 81.0, 79.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(throughput(), 0.08, &t, &[120.0, 121.0, 119.0]),
            Verdict::Unchanged
        );
        assert!(worse_by(throughput(), 100.0, 80.0) > 0.19);
        assert!(worse_by(latency(), 10.0, 8.0) < 0.0);
    }

    fn run_line(workload: &str, seed: u64, root_ms: f64, digest: &str, finds: f64) -> String {
        format!(
            r#"{{"workload":"{workload}","scale":"full","seed":"{seed}","seconds":15,"traced":false,"correct":true,"transcript_digest":"{digest}","checkpoints":[[4,"aa"],[8,"bb"]],"metrics":{{"expand_root_p50_ms":{{"value":{root_ms},"unit":"ms"}}}},"exact":{{"sampling.find_ratio":{finds}}}}}"#
        )
    }

    fn set(lines: &[String]) -> Vec<Run> {
        lines.iter().map(|l| parse_run(l).unwrap()).collect()
    }

    fn bounds() -> BTreeMap<String, f64> {
        END_TO_END
            .iter()
            .map(|s| (s.name.to_owned(), s.bound.unwrap()))
            .collect()
    }

    #[test]
    fn sets_are_judged_and_determinism_is_enforced() {
        let a = set(&[
            run_line("explore_resident", 1, 10.0, "d1", 0.25),
            run_line("explore_resident", 2, 10.2, "d2", 0.30),
        ]);
        let same = set(&[
            run_line("explore_resident", 1, 10.1, "d1", 0.25),
            run_line("explore_resident", 2, 10.3, "d2", 0.30),
        ]);
        let report = compare_sets(&a, &same, &bounds()).unwrap();
        assert!(report.passed, "{}", report.text);
        assert!(report.text.contains("unchanged") && report.text.ends_with("PASS\n"));

        let slower = set(&[
            run_line("explore_resident", 1, 13.0, "d1", 0.25),
            run_line("explore_resident", 2, 13.2, "d2", 0.30),
        ]);
        let report = compare_sets(&a, &slower, &bounds()).unwrap();
        assert!(
            !report.passed && report.text.contains("regressed"),
            "{}",
            report.text
        );

        let other_bytes = set(&[run_line("explore_resident", 1, 10.0, "XX", 0.25)]);
        let report = compare_sets(&a, &other_bytes, &bounds()).unwrap();
        assert!(
            !report.passed && report.text.contains("DIGEST MISMATCH"),
            "{}",
            report.text
        );

        let other_count = set(&[run_line("explore_resident", 1, 10.0, "d1", 0.26)]);
        let report = compare_sets(&a, &other_count, &bounds()).unwrap();
        assert!(
            !report.passed && report.text.contains("EXACT COUNT MISMATCH"),
            "{}",
            report.text
        );

        // The spilling workload shares the resident one's checkpoints.
        let spill = set(&[run_line("explore_spill", 1, 20.0, "s1", 0.25)]);
        let report = compare_sets(&a, &spill, &bounds()).unwrap();
        assert!(report.text.contains("prefix ok"), "{}", report.text);
    }

    #[test]
    fn scales_never_mix() {
        let full = set(&[run_line("serve_hot", 1, 1.0, "d", 0.0)]);
        let smoke =
            set(&[run_line("serve_hot", 1, 1.0, "d", 0.0).replace("\"full\"", "\"smoke\"")]);
        assert!(compare_sets(&full, &smoke, &bounds()).is_err());
        let report = compare_sets(&smoke, &smoke, &bounds()).unwrap();
        assert!(report.text.contains("smoke scale"), "{}", report.text);
    }
}
