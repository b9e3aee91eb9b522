//! End-to-end pass of all four workloads at smoke scale, timed and traced,
//! and a round trip of their results through `compare`. Smoke scale exists
//! for this test only; its results say `"scale":"smoke"` and `compare`
//! refuses to set them beside a full run.

use sdd_benchmark::catalogue::{END_TO_END, PER_LAYER};
use sdd_benchmark::compare;
use sdd_benchmark::scale::Scale;
use sdd_benchmark::work::Workdir;
use sdd_benchmark::workloads::{run, RunArgs, Workload};
use std::io::Write;
use std::path::Path;

#[test]
fn every_workload_runs_timed_and_traced_and_round_trips_through_compare() {
    // The one test of this binary, so nothing else reads the environment
    // while it is written.
    std::env::set_var("SDD_THREADS", "1");
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&root);
    let work = Workdir::at(&root).expect("work directory");
    let results = root.join("results.jsonl");
    let mut file = std::fs::File::create(&results).expect("results file");

    for workload in Workload::ALL {
        for traced in [false, true] {
            let args = RunArgs {
                workload,
                seed: 42,
                seconds: 1,
                traced,
                scale: Scale::Smoke,
            };
            let outcome = run(args, &work)
                .unwrap_or_else(|e| panic!("{} (traced {traced}): {e}", workload.name()));
            assert!(
                outcome.correct(),
                "{} (traced {traced}): {:?}",
                workload.name(),
                outcome.checks.failures()
            );
            assert!(outcome.attempted > 0 && outcome.failed == 0);
            assert!(outcome.checks.passed() > 0, "no check ran");
            let expected: Vec<&str> = if traced {
                PER_LAYER.iter().map(|s| s.name).collect()
            } else {
                END_TO_END.iter().map(|s| s.name).collect()
            };
            let reported: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(reported, expected, "{}", workload.name());
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            let line = outcome.to_json().to_string();
            assert!(line.contains(r#""scale":"smoke""#) && !line.contains('\n'));
            assert!(outcome
                .contract_line()
                .starts_with(r#"{"correct":true,"attempted":"#));
            writeln!(file, "{line}").expect("write result");
        }
        assert!(root
            .join(format!("trace/{}.json", workload.name()))
            .is_file());
    }
    drop(file);

    // A set compared with itself: every digest and exact count agrees, no
    // metric can have moved, and the explore workloads share their prefix.
    let benchmark_json = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let report = compare::compare_files(&results, &results, Path::new(benchmark_json))
        .expect("results parse back");
    assert!(report.passed, "{}", report.text);
    assert!(report.text.contains("smoke scale"), "{}", report.text);
    assert!(report.text.contains("prefix ok"), "{}", report.text);
    for workload in Workload::ALL {
        for spec in &END_TO_END {
            assert!(
                report.text.lines().any(|l| l.starts_with(workload.name())
                    && l.contains(spec.name)
                    && l.ends_with("unchanged")),
                "{} {} not judged unchanged:\n{}",
                workload.name(),
                spec.name,
                report.text
            );
        }
    }
}
