//! `perf_report` — the workspace's machine-readable perf trajectory.
//!
//! Times five rows per benchmark kernel and writes `BENCH_dfs.json` at the
//! repo root — schema `cachedse-bench-dfs/v7`, documented in `DESIGN.md`
//! §11:
//!
//! - `strip`: `StrippedTrace::from_trace`;
//! - `streamed`: the streamed fold, `streamed::level_profiles`;
//! - `depth_first`: the §2.4 engine, `dfs::level_profiles`;
//! - `tree_table`: the paper's Algorithms 1–3 as the reference,
//!   `postlude::materialized_profiles` (BCAT, MRCT and the postlude);
//! - `end_to_end`: the default path from an in-memory trace — strip, the
//!   fold or the hybrid `Engine::Auto` picks, one frontier walk.
//!
//! ```text
//! perf_report [--quick] [--samples N] [--out FILE] [--gate]
//! perf_report --check FILE        # validate an existing report's schema
//! ```
//!
//! `--quick` restricts the run to two small kernels (the CI bench-smoke
//! job, 3 samples); the full mode covers all 12 kernels × data+instr (9
//! samples). A kernel's rows are timed interleaved, one batch of each per
//! round, and every row records the fastest, median and slowest of its
//! samples. Every emitted report is re-parsed with `cachedse-json` and
//! schema-checked before it is written, so a zero exit status guarantees a
//! well-formed file.
//!
//! When built with the `alloc-track` feature the binary installs the
//! counting global allocator from `cachedse_bench::alloc_track`, and every
//! row also records `peak_alloc_bytes`: how far the heap climbed above its
//! starting residency during one more run of the row, on the bench thread.
//! No builder keeps buffers between runs, so that run builds cold. The
//! top-level `peak_alloc_tracked` flag records whether the counters were
//! live.
//!
//! `--gate` reads the committed `BENCH_dfs.json` (the default `--out`
//! path) before anything is written, and fails the run on either rule:
//!
//! - **drift:** for every kernel and row found in both runs, the fresh
//!   median exceeds [`DRIFT_FACTOR`]× the committed one, or — peaks
//!   tracked on both sides — the fresh peak exceeds the larger of
//!   [`DRIFT_FACTOR`]× the committed peak and [`PEAK_FLOOR_BYTES`]. Rows
//!   absent from the capture are skipped; comparing none fails, and so
//!   does a capture of another schema;
//! - **engine choice:** a kernel's `end_to_end − strip` exceeds
//!   [`CHOICE_FACTOR`]× the faster of `streamed` and `depth_first` plus
//!   [`CHOICE_SLACK_NS`];
//! - **suite** (full reports only): summed over every kernel,
//!   `end_to_end − strip` is not below the faster of `streamed` and
//!   `depth_first`. The hybrid beats either engine alone on the data
//!   traces, so a default path that falls back to one engine per trace
//!   fails.

use std::hint::black_box;
use std::num::NonZeroUsize;
use std::process::ExitCode;

use cachedse_bench::crit::{measure, Timing};
use cachedse_bench::{all_traces, alloc_track, NamedTrace};
use cachedse_core::{dfs, postlude, streamed, DesignSpaceExplorer, MissBudget};
use cachedse_json::Value;
use cachedse_trace::strip::StrippedTrace;
use cachedse_trace::Trace;

#[cfg(feature = "alloc-track")]
#[global_allocator]
static ALLOC: alloc_track::CountingAlloc = alloc_track::CountingAlloc;

/// Schema tag of the emitted report.
const SCHEMA: &str = "cachedse-bench-dfs/v7";

/// The rows every kernel records, in report order.
const ROWS: [&str; 5] = [
    "strip",
    "streamed",
    "depth_first",
    "tree_table",
    "end_to_end",
];

/// `--gate` fails a row whose median, or whose peak above
/// [`PEAK_FLOOR_BYTES`], is more than this factor over the committed
/// capture's.
const DRIFT_FACTOR: f64 = 2.0;

/// Floor for the peak drift rule: below this, a row's peak is in
/// allocator-and-page noise and a ratio means nothing.
const PEAK_FLOOR_BYTES: u64 = 1 << 20;

/// `--gate` bound on the default path (`end_to_end − strip`) over the
/// faster pinned engine. On every kernel trace but ucbqsort.instr the
/// engines are further apart, so a drifted choice rule that flips any
/// other pick fails.
const CHOICE_FACTOR: f64 = 1.25;

/// Slack on top of [`CHOICE_FACTOR`] for the sub-millisecond quick kernels.
const CHOICE_SLACK_NS: f64 = 500_000.0;

/// The two small kernels `--quick` keeps (CI smoke coverage of one data and
/// one instruction trace without the multi-minute full sweep).
const QUICK_KERNELS: [&str; 2] = ["qurt.data", "blit.data"];

fn default_out_path() -> String {
    format!("{}/../../BENCH_dfs.json", env!("CARGO_MANIFEST_DIR"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut gate = false;
    let mut samples: Option<usize> = None;
    let mut out = default_out_path();
    let mut check: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--gate" => gate = true,
            "--samples" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 2 => samples = Some(n),
                _ => return usage("--samples expects an integer >= 2"),
            },
            "--out" => match iter.next() {
                Some(path) => out = path.clone(),
                None => return usage("--out expects a path"),
            },
            "--check" => match iter.next() {
                Some(path) => check = Some(path.clone()),
                None => return usage("--check expects a path"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    if let Some(path) = check {
        return match read_report(&path) {
            Ok(report) => {
                println!(
                    "{path}: valid {SCHEMA} report, {} kernel(s)",
                    labeled_kernels(&report).count()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perf_report: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // The committed capture is the drift baseline; read it before the run
    // can overwrite it.
    let committed = if gate {
        match read_report(&default_out_path()) {
            Ok(report) => Some(report),
            Err(e) => {
                eprintln!("perf_report: --gate needs the committed capture: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let samples = samples.unwrap_or(if quick { 3 } else { 9 });
    let report = run_report(quick, samples);
    let rendered = report.render();
    if let Err(e) = validate_report(&rendered) {
        eprintln!("perf_report: emitted report failed its own schema: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&out, rendered + "\n") {
        eprintln!("perf_report: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    if let Some(committed) = committed {
        let (compared, mut failures) = gate_drift(&report, &committed);
        failures.extend(gate_engine_choice(&report));
        if !quick {
            failures.extend(gate_suite(&report));
        }
        if !failures.is_empty() {
            eprintln!("perf_report: gate failed:");
            for f in failures {
                eprintln!("  {f}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!(
            "perf_report: {compared} row(s) within {DRIFT_FACTOR}x of the committed capture; \
             default path within {CHOICE_FACTOR}x of the faster engine{}",
            if quick {
                ""
            } else {
                "; suite below the faster engines' sum"
            }
        );
    }
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "perf_report: {problem}\n\
         usage: perf_report [--quick] [--samples N] [--out FILE] [--gate] | --check FILE"
    );
    ExitCode::FAILURE
}

/// Reads and validates the report at `path`.
fn read_report(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    validate_report(&text).map_err(|e| format!("{path}: {e}"))
}

/// The report's kernel objects with their labels; an unlabeled kernel
/// (which `--check` rejects) is skipped.
fn labeled_kernels(report: &Value) -> impl Iterator<Item = (&str, &Value)> {
    report
        .get("kernels")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|kernel| Some((kernel.get("label")?.as_str()?, kernel)))
}

fn peaks_tracked(report: &Value) -> bool {
    report.get("peak_alloc_tracked").and_then(Value::as_bool) == Some(true)
}

/// The drift rule: compares every row of `fresh` with the same kernel and
/// row of `committed`. Returns the number of rows compared and one failure
/// line per drifted row, plus one when no row was compared at all.
fn gate_drift(fresh: &Value, committed: &Value) -> (usize, Vec<String>) {
    let with_peaks = peaks_tracked(fresh) && peaks_tracked(committed);
    let mut compared = 0;
    let mut failures = Vec::new();
    for (label, kernel) in labeled_kernels(fresh) {
        let Some((_, old_kernel)) = labeled_kernels(committed).find(|&(l, _)| l == label) else {
            continue;
        };
        for row in ROWS {
            let (Some(new), Some(old)) = (kernel.get(row), old_kernel.get(row)) else {
                continue;
            };
            compared += 1;
            let median = |r: &Value| r.get("median_ns").and_then(Value::as_f64);
            if let (Some(new), Some(old)) = (median(new), median(old)) {
                if new > DRIFT_FACTOR * old {
                    failures.push(format!(
                        "{label}: {row} median {new:.0} ns exceeds {DRIFT_FACTOR}x the \
                         committed {old:.0} ns"
                    ));
                }
            }
            let peak = |r: &Value| r.get("peak_alloc_bytes").and_then(Value::as_u64);
            if let (true, Some(new), Some(old)) = (with_peaks, peak(new), peak(old)) {
                let bound = old.saturating_mul(2).max(PEAK_FLOOR_BYTES);
                if new > bound {
                    failures.push(format!(
                        "{label}: {row} peak {new} B exceeds max({DRIFT_FACTOR}x the committed \
                         {old} B, {PEAK_FLOOR_BYTES} B)"
                    ));
                }
            }
        }
    }
    if compared == 0 {
        failures.push("no kernel row of this run is in the committed capture".to_owned());
    }
    (compared, failures)
}

/// A kernel's default path minus its strip, and the faster of its two
/// pinned engines, from the row medians.
fn default_and_faster(kernel: &Value) -> Option<(f64, f64)> {
    let median = |row: &str| kernel.get(row)?.get("median_ns")?.as_f64();
    let default = median("end_to_end")? - median("strip")?;
    Some((default, median("streamed")?.min(median("depth_first")?)))
}

/// The engine-choice rule: `end_to_end` times the default path, so minus
/// the strip it is the engine `Engine::Auto` picked (plus its reuse pass
/// and one frontier walk). Returns one failure line per kernel where that
/// exceeds [`CHOICE_FACTOR`]× the faster pinned engine plus
/// [`CHOICE_SLACK_NS`].
fn gate_engine_choice(report: &Value) -> Vec<String> {
    let mut failures = Vec::new();
    for (label, kernel) in labeled_kernels(report) {
        let Some((default, faster)) = default_and_faster(kernel) else {
            continue;
        };
        if default > CHOICE_FACTOR * faster + CHOICE_SLACK_NS {
            failures.push(format!(
                "{label}: default path {default:.0} ns beyond its strip exceeds {CHOICE_FACTOR}x \
                 the faster engine ({faster:.0} ns) + {CHOICE_SLACK_NS:.0} ns: the engine choice \
                 picked the slower one"
            ));
        }
    }
    failures
}

/// The suite rule: summed over every kernel of a full report, the default
/// path beyond its strip must come in below the faster pinned engine per
/// kernel. Returns the one failure line, or none.
fn gate_suite(report: &Value) -> Option<String> {
    let (default, faster) = labeled_kernels(report)
        .filter_map(|(_, kernel)| default_and_faster(kernel))
        .fold((0.0, 0.0), |(d, f), (default, faster)| {
            (d + default, f + faster)
        });
    (default >= faster).then(|| {
        format!(
            "suite: default path {default:.0} ns beyond its strips is not below the faster \
             engine per kernel, {faster:.0} ns in sum ({:.3}x)",
            default / faster
        )
    })
}

fn run_report(quick: bool, samples: usize) -> Value {
    let mut traces = all_traces();
    if quick {
        traces.retain(|t| QUICK_KERNELS.contains(&t.label().as_str()));
    }
    let host = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let peak_tracked = alloc_track::enabled();
    eprintln!(
        "perf_report: {} trace(s), {samples} samples, host parallelism {host}, \
         peak alloc tracking {}",
        traces.len(),
        if peak_tracked { "on" } else { "off" }
    );
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>13} {:>12}",
        "kernel", "strip ns", "strm ns", "dfs ns", "tree ns", "e2e ns"
    );

    let kernels: Vec<Value> = traces
        .iter()
        .map(|named| measure_kernel(named, samples))
        .collect();

    Value::object([
        ("schema", Value::from(SCHEMA)),
        ("mode", Value::from(if quick { "quick" } else { "full" })),
        ("samples", Value::from(samples as u64)),
        ("host_parallelism", Value::from(host as u64)),
        ("peak_alloc_tracked", Value::from(peak_tracked)),
        ("kernels", Value::array(kernels)),
    ])
}

/// One row: the spread of its ns per iteration and, with `alloc-track`,
/// the delta peak heap of one more run.
fn row_json(timing: Timing, peak: Option<u64>) -> Value {
    let mut fields = vec![
        ("min_ns", Value::from(timing.min_ns)),
        ("median_ns", Value::from(timing.median_ns)),
        ("max_ns", Value::from(timing.max_ns)),
    ];
    if let Some(peak) = peak {
        fields.push(("peak_alloc_bytes", Value::from(peak)));
    }
    Value::object(fields)
}

/// Times the [`ROWS`] of one kernel, interleaved, so the engine-choice
/// rule compares rows that saw the same host.
fn measure_kernel(named: &NamedTrace, samples: usize) -> Value {
    let trace: &Trace = &named.trace;
    let stripped = StrippedTrace::from_trace(trace);
    let bits = trace.address_bits();
    // In `ROWS` order.
    let mut routines: [&mut dyn FnMut(); ROWS.len()] = [
        &mut || drop(black_box(StrippedTrace::from_trace(trace))),
        &mut || drop(black_box(streamed::level_profiles(&stripped, bits))),
        &mut || drop(black_box(dfs::level_profiles(&stripped, bits))),
        &mut || drop(black_box(postlude::materialized_profiles(&stripped, bits))),
        &mut || {
            let result = DesignSpaceExplorer::new(trace)
                .max_index_bits(bits)
                .explore(MissBudget::FractionOfMax(0.10));
            drop(black_box(result.expect("non-empty kernel trace")));
        },
    ];
    let timings = measure(samples, &mut routines);
    // The peak of one more run: the high-water mark outlives the output
    // each routine drops.
    let peaks = routines.map(|routine| {
        alloc_track::enabled().then(|| {
            let start = alloc_track::mark();
            routine();
            alloc_track::peak_since(start)
        })
    });
    let label = named.label();
    let [strip, streamed, depth_first, tree_table, end_to_end] = timings.map(|t| t.median_ns);
    println!(
        "{label:<16} {strip:>12.0} {streamed:>12.0} {depth_first:>12.0} {tree_table:>13.0} \
         {end_to_end:>12.0}"
    );

    let mut fields = vec![
        ("label", Value::from(label)),
        ("refs", Value::from(stripped.total_len() as u64)),
        ("unique", Value::from(stripped.unique_len() as u64)),
        ("address_bits", Value::from(bits)),
    ];
    let rows = timings
        .into_iter()
        .zip(peaks)
        .map(|(t, peak)| row_json(t, peak));
    fields.extend(ROWS.into_iter().zip(rows));
    Value::object(fields)
}

/// Parses `text` with `cachedse-json` and verifies every field the
/// [`SCHEMA`] version requires; a report of any other schema is refused by
/// its name. Returns the parsed report.
fn validate_report(text: &str) -> Result<Value, String> {
    let value = Value::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let schema = value
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != SCHEMA {
        return Err(format!("schema is {schema:?}, expected {SCHEMA:?}"));
    }
    match value.get("mode").and_then(Value::as_str) {
        Some("quick" | "full") => {}
        other => return Err(format!("bad \"mode\": {other:?}")),
    }
    for field in ["samples", "host_parallelism"] {
        value
            .get(field)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing numeric {field:?}"))?;
    }
    let peak_tracked = value
        .get("peak_alloc_tracked")
        .and_then(Value::as_bool)
        .ok_or("missing boolean \"peak_alloc_tracked\"")?;
    let kernels = value
        .get("kernels")
        .and_then(Value::as_array)
        .ok_or("missing \"kernels\" array")?;
    if kernels.is_empty() {
        return Err("empty \"kernels\" array".to_owned());
    }
    for kernel in kernels {
        let label = kernel
            .get("label")
            .and_then(Value::as_str)
            .ok_or("kernel missing \"label\"")?;
        let context = |field: &str| format!("kernel {label:?} missing numeric {field:?}");
        for field in ["refs", "unique", "address_bits"] {
            kernel
                .get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| context(field))?;
        }
        for row_name in ROWS {
            let row = kernel
                .get(row_name)
                .ok_or_else(|| format!("kernel {label:?} missing row {row_name:?}"))?;
            let [min, median, max] = ["min_ns", "median_ns", "max_ns"]
                .map(|field| positive(row.get(field), &context(&format!("{row_name}.{field}"))));
            let (min, median, max) = (min?, median?, max?);
            if !(min <= median && median <= max) {
                return Err(format!(
                    "kernel {label:?} row {row_name:?}: min {min} <= median {median} <= max \
                     {max} does not hold"
                ));
            }
            // A peak appears exactly when the report says the allocator
            // counters were live: a peak despite the flag (or vice versa)
            // means the emitter and the flag disagree.
            match (peak_tracked, row.get("peak_alloc_bytes")) {
                (true, peak) => {
                    peak.and_then(Value::as_u64)
                        .ok_or_else(|| context(&format!("{row_name}.peak_alloc_bytes")))?;
                }
                (false, None) => {}
                (false, Some(_)) => {
                    return Err(format!(
                        "kernel {label:?} row {row_name:?} carries \"peak_alloc_bytes\" \
                         although \"peak_alloc_tracked\" is false"
                    ));
                }
            }
        }
    }
    Ok(value)
}

fn positive(value: Option<&Value>, problem: &str) -> Result<f64, String> {
    match value.and_then(Value::as_f64) {
        Some(v) if v > 0.0 && v.is_finite() => Ok(v),
        _ => Err(problem.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    /// A one-row-set kernel whose every row has median `ns` and, when
    /// given, peak `peak`.
    fn kernel(label: &str, ns: f64, peak: Option<u64>) -> Value {
        let timing = Timing {
            min_ns: ns,
            median_ns: ns,
            max_ns: ns,
        };
        let mut fields = vec![
            ("label", Value::from(label)),
            ("refs", Value::from(10u64)),
            ("unique", Value::from(4u64)),
            ("address_bits", Value::from(8u32)),
        ];
        fields.extend(ROWS.map(|name| (name, row_json(timing, peak))));
        Value::object(fields)
    }

    fn report(kernels: Vec<Value>) -> Value {
        let tracked = kernels.iter().any(|k| {
            k.get("strip")
                .and_then(|r| r.get("peak_alloc_bytes"))
                .is_some()
        });
        Value::object([
            ("schema", Value::from(SCHEMA)),
            ("mode", Value::from("quick")),
            ("samples", Value::from(3u64)),
            ("host_parallelism", Value::from(2u64)),
            ("peak_alloc_tracked", Value::from(tracked)),
            ("kernels", Value::array(kernels)),
        ])
    }

    fn drift(fresh: Vec<Value>, committed: Vec<Value>) -> (usize, Vec<String>) {
        gate_drift(&report(fresh), &report(committed))
    }

    #[test]
    fn a_median_past_twice_the_capture_fails_and_under_passes() {
        let committed = || vec![kernel("a.data", 1000.0, None)];
        let (compared, failures) = drift(vec![kernel("a.data", 2100.0, None)], committed());
        assert_eq!(compared, ROWS.len());
        assert_eq!(failures.len(), ROWS.len(), "{failures:?}");
        assert!(
            failures[0].contains("a.data: strip median 2100"),
            "{failures:?}"
        );
        let (_, failures) = drift(vec![kernel("a.data", 1900.0, None)], committed());
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn a_peak_past_twice_the_capture_and_the_floor_fails() {
        let committed = || vec![kernel("a.data", 1000.0, Some(MIB))];
        let (_, failures) = drift(
            vec![kernel("a.data", 1000.0, Some(2 * MIB + 1))],
            committed(),
        );
        assert_eq!(failures.len(), ROWS.len(), "{failures:?}");
        assert!(failures[0].contains("peak"), "{failures:?}");
        let (_, failures) = drift(vec![kernel("a.data", 1000.0, Some(2 * MIB))], committed());
        assert!(failures.is_empty(), "{failures:?}");
        // Under the floor a tenfold climb is noise.
        let (_, failures) = drift(
            vec![kernel("a.data", 1000.0, Some(MIB))],
            vec![kernel("a.data", 1000.0, Some(MIB / 10))],
        );
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn peaks_are_compared_only_when_both_runs_tracked_them() {
        let (compared, failures) = drift(
            vec![kernel("a.data", 1000.0, Some(64 * MIB))],
            vec![kernel("a.data", 1000.0, None)],
        );
        assert_eq!(compared, ROWS.len());
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn kernels_and_rows_missing_from_the_capture_are_skipped() {
        let mut partial = kernel("a.data", 1000.0, None);
        if let Value::Object(fields) = &mut partial {
            fields.retain(|(name, _)| name != "tree_table");
        }
        let (compared, failures) = drift(
            vec![
                kernel("a.data", 1000.0, None),
                kernel("new.data", 1e12, None),
            ],
            vec![partial],
        );
        assert_eq!(compared, ROWS.len() - 1);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn comparing_no_row_fails() {
        let (compared, failures) = drift(
            vec![kernel("a.data", 1000.0, None)],
            vec![kernel("b.data", 1000.0, None)],
        );
        assert_eq!(compared, 0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("no kernel row"), "{failures:?}");
    }

    #[test]
    fn a_capture_of_another_schema_is_refused_by_name() {
        let v6 = r#"{"schema": "cachedse-bench-dfs/v6", "mode": "full", "kernels": []}"#;
        let err = validate_report(v6).unwrap_err();
        assert!(err.contains("\"cachedse-bench-dfs/v6\""), "{err}");
        assert!(err.contains(SCHEMA), "{err}");
    }

    #[test]
    fn emitted_reports_validate_and_a_disagreeing_peak_flag_does_not() {
        for peak in [None, Some(MIB)] {
            let text = report(vec![kernel("a.data", 1000.0, peak)]).render();
            validate_report(&text).unwrap();
        }
        let mut lying = report(vec![kernel("a.data", 1000.0, Some(MIB))]);
        if let Value::Object(fields) = &mut lying {
            for (name, value) in fields.iter_mut() {
                if name == "peak_alloc_tracked" {
                    *value = Value::from(false);
                }
            }
        }
        assert!(validate_report(&lying.render()).is_err());
    }

    /// A kernel whose rows have medians `strip`, `streamed`, `depth_first`
    /// and `end_to_end`, in that order.
    fn kernel_with(label: &str, [strip, streamed, depth_first, end_to_end]: [f64; 4]) -> Value {
        let timing = |ns: f64| Timing {
            min_ns: ns,
            median_ns: ns,
            max_ns: ns,
        };
        let mut fields = vec![
            ("label", Value::from(label)),
            ("refs", Value::from(10u64)),
            ("unique", Value::from(4u64)),
            ("address_bits", Value::from(8u32)),
        ];
        let medians = [strip, streamed, depth_first, 1e9, end_to_end];
        fields.extend(
            ROWS.into_iter()
                .zip(medians.map(|ns| row_json(timing(ns), None))),
        );
        Value::object(fields)
    }

    #[test]
    fn the_suite_rule_sums_the_default_path_against_the_faster_engines() {
        // 0.5 + 2.0 beyond the strips against 1.0 + 2.0: a slower kernel
        // is fine while the sum stays below.
        let fast = kernel_with("a.data", [1.0, 1.0, 4.0, 1.5]);
        let slow = kernel_with("b.instr", [1.0, 3.0, 2.0, 3.0]);
        assert_eq!(gate_suite(&report(vec![fast.clone(), slow.clone()])), None);
        let slower = kernel_with("b.instr", [1.0, 3.0, 2.0, 3.5]);
        let failure = gate_suite(&report(vec![fast, slower])).unwrap();
        assert!(failure.contains("(1.000x)"), "{failure}");
    }

    #[test]
    fn the_engine_choice_rule_reads_the_row_medians() {
        assert!(gate_engine_choice(&report(vec![kernel("a.data", 1e6, None)])).is_empty());
        let mut slow = kernel("a.data", 1e6, None);
        if let Value::Object(fields) = &mut slow {
            for (name, value) in fields.iter_mut() {
                if name == "end_to_end" {
                    *value = kernel("x", 3e6, None).get("strip").unwrap().clone();
                }
            }
        }
        let failures = gate_engine_choice(&report(vec![slow]));
        assert_eq!(failures.len(), 1, "{failures:?}");
    }

    /// The committed capture is the drift baseline, so it must be a full
    /// v7 run with peaks that passes its own engine-choice rule: a schema
    /// change or a stale capture fails here until it is re-captured.
    #[test]
    fn the_committed_capture_is_a_valid_report() {
        let path = default_out_path();
        let report = read_report(&path).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(report.get("mode").and_then(Value::as_str), Some("full"));
        assert!(
            peaks_tracked(&report),
            "{path} was captured without alloc-track"
        );
        // Both trace sides of every kernel.
        assert_eq!(
            labeled_kernels(&report).count(),
            2 * cachedse_workloads::all().len()
        );
        let failures = gate_engine_choice(&report);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(gate_suite(&report), None);
    }
}
