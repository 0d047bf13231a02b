//! Every workload end to end on one kernel's two traces, one round each,
//! through the binary as `BENCHMARK.json`'s command invokes it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use cachedse_benchmark::compare::{compare, read_runs};
use cachedse_benchmark::report::{BenchmarkFile, Report, END_TO_END, PER_LAYER};
use cachedse_benchmark::workloads::Workload;
use cachedse_json::Value;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cdse-bench-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cdse-bench"))
        .current_dir(dir)
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn every_workload_reports_every_metric_traced_and_untraced() {
    let dir = scratch("run");
    for workload in Workload::ALL {
        for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let args = ["run", "--workload", workload.name(), "--seed", "7"];
            let out = bench(
                &dir,
                &[&args[..], &["--seconds", "1", "--trace", trace, "--smoke"]].concat(),
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{} --trace {trace}: {}",
                workload.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().unwrap();
            let report = Report::from_json(&Value::parse(last).unwrap()).unwrap();
            assert!(report.correct && report.failed == 0, "{stdout}");
            assert!(report.attempted > 0);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
            let expected: Vec<&str> = table.iter().map(|m| m.0).collect();
            assert_eq!(names, expected);
            for m in &report.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {m:?}",
                    workload.name()
                );
            }
        }
    }
    assert!(
        !dir.join(".bench_work").exists(),
        "work directories left behind"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn all_records_runs_that_compare_clean_against_themselves() {
    let dir = scratch("all");
    let out = bench(
        &dir,
        &["all", "--seconds", "1", "--smoke", "--out", "runs.jsonl"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for (name, unit, _) in END_TO_END {
        assert!(
            stdout.contains(name) && stdout.contains(unit),
            "{name} missing"
        );
    }
    let runs = read_runs(&std::fs::read_to_string(dir.join("runs.jsonl")).unwrap()).unwrap();
    assert_eq!(runs.len(), Workload::ALL.len());
    let benchmark_json = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let benchmark =
        BenchmarkFile::parse(&std::fs::read_to_string(benchmark_json).unwrap()).unwrap();
    let (table, regressed) = compare(&benchmark, &runs, &runs).unwrap();
    assert!(!regressed, "{table}");
    assert!(!table.contains("Gain"), "{table}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let dir = scratch("args");
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--workload", "explore_data", "--trace", "2"][..],
        &["run", "--bogus", "1"][..],
        &["run", "--workload", "explore_data", "stray"][..],
        &[
            "setup",
            "--workload",
            "explore_data",
            "--work",
            "no-such-run",
        ][..],
        &["compare", "only-one.jsonl"][..],
        &["frobnicate"][..],
    ] {
        let out = bench(&dir, args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
