//! `perf_report` — the workspace's machine-readable perf trajectory.
//!
//! Times every prelude phase (`strip`, `bcat`, `mrct`, the fused
//! `streamed` MRCT→postlude replay), the §2.4 depth-first engine
//! (`depth_first`), the materialized reference
//! `postlude::materialized_profiles` (the `tree_table` row), and the
//! end-to-end exploration over the benchmark kernels (the default
//! path: strip, the engine `Engine::Auto` picks, one frontier), then writes
//! `BENCH_dfs.json` at the repo root — schema `cachedse-bench-dfs/v6`,
//! documented in `DESIGN.md` §11.
//!
//! ```text
//! perf_report [--quick] [--samples N] [--out FILE] [--gate]
//! perf_report --check FILE        # validate an existing report's schema
//! ```
//!
//! `--quick` restricts the run to two small kernels (the CI bench-smoke
//! job); the full mode covers all 12 kernels × data+instr. Every emitted
//! report is re-parsed with `cachedse-json` and schema-checked before it is
//! written, so a zero exit status guarantees a well-formed file.
//!
//! Each kernel row carries one drift **phase baseline** per gated phase
//! (MRCT, BCAT, streamed): the median recorded immediately after that
//! phase's own rewrite (the output-optimal MRCT arena, the radix
//! permutation-arena BCAT, and the streamed postlude fusion respectively)
//! and the measured median's ratio to it (`DESIGN.md` §11 keeps each
//! rewrite's before/after record). `--gate` turns the baselines into a
//! regression gate: the run fails if any measured kernel's MRCT, BCAT,
//! **or** streamed phase is more than [`GATE_FACTOR`]× its recorded
//! post-rewrite median, and it guards the automatic engine choice: a
//! kernel fails when its end-to-end time minus its strip exceeds
//! [`CHOICE_FACTOR`]× the faster pinned engine plus [`CHOICE_SLACK_NS`].
//!
//! When built with the `alloc-track` feature the binary installs the
//! counting global allocator from `cachedse_bench::alloc_track` and
//! records each phase's **delta peak heap** (`peak_alloc_bytes`, v4): the
//! phase is re-run once on a fresh shim thread — so the thread-local
//! arena pools start cold and the number reflects a cold build, not
//! whatever the pools happened to retain — bracketed by `mark`/
//! `peak_since`. The top-level `peak_alloc_tracked` flag records whether
//! the counters were live, and `--check` requires the per-kernel peak
//! objects exactly when it is `true`. Under `--gate` the tracked peaks
//! also gate the fusion's memory claim: the streamed phase must not
//! out-allocate the materialized MRCT build it replaces.
//!
//! Every engine runs serially, so the report has no worker-pool rows.
//! An older v6 report may still carry them, with their per-kernel
//! efficiency object and top-level flag; `--check` ignores those fields.

use std::num::NonZeroUsize;
use std::process::ExitCode;

use cachedse_bench::{all_traces, alloc_track, crit::measure, NamedTrace};
use cachedse_core::{dfs, postlude, streamed, Bcat, DesignSpaceExplorer, MissBudget, Mrct};
use cachedse_json::Value;
use cachedse_sync::thread;
use cachedse_trace::strip::StrippedTrace;
use cachedse_trace::Trace;

#[cfg(feature = "alloc-track")]
#[global_allocator]
static ALLOC: alloc_track::CountingAlloc = alloc_track::CountingAlloc;

/// Schema tag of the emitted report.
const SCHEMA: &str = "cachedse-bench-dfs/v6";

/// `--gate` fails when a measured MRCT, BCAT, or streamed phase exceeds
/// its recorded post-rewrite baseline by more than this factor.
const GATE_FACTOR: f64 = 2.0;

/// `--gate` bound on the default path (`end_to_end_ns − strip`) over the
/// faster pinned engine. On every kernel trace but ucbqsort.instr the
/// engines are further apart, so a drifted choice rule that flips any
/// other pick fails.
const CHOICE_FACTOR: f64 = 1.25;

/// Slack on top of [`CHOICE_FACTOR`] for the sub-millisecond quick kernels.
const CHOICE_SLACK_NS: f64 = 500_000.0;

/// Floor for the peak-allocation gate: below this, both phases are in
/// pool-and-page noise and the comparison means nothing.
const PEAK_GATE_FLOOR_BYTES: u64 = 1 << 20;

/// The two small kernels `--quick` keeps (CI smoke coverage of one data and
/// one instruction trace without the multi-minute full sweep).
const QUICK_KERNELS: [&str; 2] = ["qurt.data", "blit.data"];

/// Median `Mrct::build` ns/iter per kernel recorded immediately **after**
/// the output-optimal rewrite (Fenwick-sized CSR arena, tombstone recency
/// array, thread-local arena recycling — DESIGN.md §12). Re-baselined from
/// the v3 full run captured immediately before the streamed fusion landed:
/// the original post-rewrite capture had drifted up to ~1.6× above steady
/// state on the big data traces, which left the 2× gate headroom hollow.
/// The v5 capture re-baselined `pocsag.data` the same way (persistent
/// ~1.9–2.4× drift across clean idle runs — DESIGN.md §11's re-baseline
/// policy). Same capture parameters and host class. This is the `--gate`
/// reference.
const POST_REWRITE_MRCT_NS: &[(&str, f64)] = &[
    ("adpcm.data", 136_799_196.0),
    ("adpcm.instr", 30_351_307.0),
    ("bcnt.data", 39_630_485.0),
    ("bcnt.instr", 16_310_415.0),
    ("blit.data", 3_066_247.0),
    ("blit.instr", 3_565_874.0),
    ("compress.data", 258_724_766.0),
    ("compress.instr", 33_456_429.0),
    ("crc.data", 60_738_573.0),
    ("crc.instr", 13_141_813.0),
    ("des.data", 27_444_484.0),
    ("des.instr", 24_106_239.0),
    ("engine.data", 6_195_332.0),
    ("engine.instr", 13_418_859.0),
    ("fir.data", 95_665_809.0),
    ("fir.instr", 71_985_990.0),
    ("g3fax.data", 122_102_431.0),
    ("g3fax.instr", 26_190_064.0),
    ("pocsag.data", 2_451_236.0),
    ("pocsag.instr", 11_815_203.0),
    ("qurt.data", 1_089_046.0),
    ("qurt.instr", 11_089_533.0),
    ("ucbqsort.data", 78_525_473.0),
    ("ucbqsort.instr", 29_050_719.0),
];

/// Median `streamed::level_profiles` ns/iter per kernel recorded
/// immediately **after** the streamed postlude fusion landed (DESIGN.md
/// §16), same capture parameters and host class. This is the streamed
/// third of the `--gate` reference. Kernels absent here (none today) are
/// simply not gated. The v5 capture re-baselined `qurt.data` and
/// `ucbqsort.data` up (persistent ~1.5–1.7× drift across clean idle
/// runs) and `fir.instr` down (the inline tombstone-skip fold of
/// DESIGN.md §16 runs it ~1.6× faster; holding the old constant would
/// pad its gate) under DESIGN.md §11's re-baseline policy.
const POST_FUSION_STREAMED_NS: &[(&str, f64)] = &[
    ("adpcm.data", 437_036_678.0),
    ("adpcm.instr", 44_058_088.0),
    ("bcnt.data", 75_371_893.0),
    ("bcnt.instr", 11_218_289.0),
    ("blit.data", 6_832_538.0),
    ("blit.instr", 2_363_648.0),
    ("compress.data", 664_992_872.0),
    ("compress.instr", 34_270_620.0),
    ("crc.data", 131_239_493.0),
    ("crc.instr", 15_166_484.0),
    ("des.data", 45_924_019.0),
    ("des.instr", 23_906_786.0),
    ("engine.data", 9_021_497.0),
    ("engine.instr", 20_164_241.0),
    ("fir.data", 204_176_082.0),
    ("fir.instr", 47_913_977.0),
    ("g3fax.data", 323_280_689.0),
    ("g3fax.instr", 21_715_157.0),
    ("pocsag.data", 2_177_933.0),
    ("pocsag.instr", 7_728_191.0),
    ("qurt.data", 6_832_525.0),
    ("qurt.instr", 7_774_253.0),
    ("ucbqsort.data", 136_687_300.0),
    ("ucbqsort.instr", 33_384_343.0),
];

/// Median `Bcat::from_stripped` ns/iter per kernel recorded immediately
/// **after** the radix rewrite (single stable-partition permutation arena,
/// per-level CSR row offsets, thread-local arena recycling — DESIGN.md
/// §13), same capture parameters and host class. This is the BCAT half of
/// the `--gate` reference. The v5 capture re-baselined `g3fax.instr` and
/// `ucbqsort.instr` (persistent ~1.5–1.8× drift across clean idle runs —
/// the µs-scale instruction-side medians are the most timer-sensitive
/// numbers in the table) under DESIGN.md §11's re-baseline policy.
const POST_REWRITE_BCAT_NS: &[(&str, f64)] = &[
    ("adpcm.data", 714_479.0),
    ("adpcm.instr", 6_242.7),
    ("bcnt.data", 46_367.8),
    ("bcnt.instr", 5_792.3),
    ("blit.data", 35_320.6),
    ("blit.instr", 6_291.4),
    ("compress.data", 1_374_954.3),
    ("compress.instr", 6_749.7),
    ("crc.data", 106_910.2),
    ("crc.instr", 5_749.4),
    ("des.data", 47_271.2),
    ("des.instr", 9_302.5),
    ("engine.data", 8_614.5),
    ("engine.instr", 9_538.0),
    ("fir.data", 227_421.3),
    ("fir.instr", 5_638.1),
    ("g3fax.data", 1_379_907.0),
    ("g3fax.instr", 7_953.4),
    ("pocsag.data", 70_400.3),
    ("pocsag.instr", 5_826.7),
    ("qurt.data", 55_118.2),
    ("qurt.instr", 6_252.4),
    ("ucbqsort.data", 100_154.4),
    ("ucbqsort.instr", 7_610.3),
];

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
        return check_existing(&path);
    }

    let samples = samples.unwrap_or(if quick { 3 } else { 5 });
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
    if gate {
        let mut failures = Vec::new();
        for (phase, table) in GATED_PHASES {
            failures.extend(gate_phase(&report, phase, table));
        }
        failures.extend(gate_peaks(&report));
        failures.extend(gate_engine_choice(&report));
        if !failures.is_empty() {
            eprintln!("perf_report: phase regression gate failed:");
            for f in failures {
                eprintln!("  {f}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!(
            "perf_report: mrct, bcat, and streamed phases within {GATE_FACTOR}x of recorded \
             baselines; default path within {CHOICE_FACTOR}x of the faster engine"
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

/// The prelude phases `--gate` covers, with their post-rewrite reference
/// tables.
const GATED_PHASES: [(&str, &[(&str, f64)]); 3] = [
    ("mrct", POST_REWRITE_MRCT_NS),
    ("bcat", POST_REWRITE_BCAT_NS),
    ("streamed", POST_FUSION_STREAMED_NS),
];

/// Returns a failure line for every measured kernel whose `phase` median
/// exceeds its recorded post-rewrite baseline by more than [`GATE_FACTOR`].
/// Kernels without a recorded baseline are skipped (they cannot regress
/// against nothing).
fn gate_phase(report: &Value, phase: &str, table: &[(&str, f64)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (label, kernel) in labeled_kernels(report) {
        let Some(baseline) = lookup(table, label) else {
            continue;
        };
        let Some(measured) = kernel
            .get("phases_ns")
            .and_then(|p| p.get(phase))
            .and_then(Value::as_f64)
        else {
            continue;
        };
        if measured > GATE_FACTOR * baseline {
            failures.push(format!(
                "{label}: {phase} {measured:.0} ns/iter exceeds {GATE_FACTOR}x recorded \
                 post-rewrite baseline {baseline:.0} ns/iter"
            ));
        }
    }
    failures
}

/// The fusion's memory claim as a gate: whenever the allocator counters
/// were live, the streamed phase's cold-build peak must not exceed the
/// materialized `Mrct::build` peak it replaces (modulo the
/// [`PEAK_GATE_FLOOR_BYTES`] noise floor on tiny kernels). Returns one
/// failure line per violating kernel; empty when peaks were not tracked.
fn gate_peaks(report: &Value) -> Vec<String> {
    if report.get("peak_alloc_tracked").and_then(Value::as_bool) != Some(true) {
        return Vec::new();
    }
    let mut failures = Vec::new();
    for (label, kernel) in labeled_kernels(report) {
        let peak = |phase: &str| {
            kernel
                .get("peak_alloc_bytes")
                .and_then(|p| p.get(phase))
                .and_then(Value::as_u64)
        };
        let (Some(mrct), Some(streamed)) = (peak("mrct"), peak("streamed")) else {
            continue;
        };
        if streamed > mrct.max(PEAK_GATE_FLOOR_BYTES) {
            failures.push(format!(
                "{label}: streamed peak {streamed} B exceeds materialized mrct peak {mrct} B \
                 — the fusion is supposed to need strictly less memory"
            ));
        }
    }
    failures
}

/// The automatic engine choice as a gate: `end_to_end_ns` times the
/// default path, so minus the strip it is the engine `Engine::Auto`
/// picked (plus its reuse pass and one frontier walk). Returns one
/// failure line per kernel where that exceeds [`CHOICE_FACTOR`]× the
/// faster pinned engine plus [`CHOICE_SLACK_NS`].
fn gate_engine_choice(report: &Value) -> Vec<String> {
    let mut failures = Vec::new();
    for (label, kernel) in labeled_kernels(report) {
        let ns = |group: &str, field: &str| kernel.get(group)?.get(field)?.as_f64();
        let (Some(end_to_end), Some(strip), Some(streamed), Some(depth_first)) = (
            kernel.get("end_to_end_ns").and_then(Value::as_f64),
            ns("phases_ns", "strip"),
            ns("phases_ns", "streamed"),
            ns("engines_ns", "depth_first"),
        ) else {
            continue;
        };
        let faster = streamed.min(depth_first);
        if end_to_end - strip > CHOICE_FACTOR * faster + CHOICE_SLACK_NS {
            failures.push(format!(
                "{label}: default path {:.0} ns beyond its strip exceeds {CHOICE_FACTOR}x the \
                 faster engine ({faster:.0} ns) + {CHOICE_SLACK_NS:.0} ns: the engine choice \
                 picked the slower one",
                end_to_end - strip
            ));
        }
    }
    failures
}

fn check_existing(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf_report: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate_report(&text) {
        Ok(kernels) => {
            println!("{path}: valid {SCHEMA} report, {kernels} kernel(s)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perf_report: {path}: {e}");
            ExitCode::FAILURE
        }
    }
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
        "{:<16} {:>13} {:>13} {:>13} {:>13} {:>8}",
        "kernel", "mrct ns", "strm ns", "dfs ns", "tree ns", "vs-tree"
    );

    let kernels: Vec<Value> = traces
        .iter()
        .map(|named| {
            let row = measure_trace(named, samples);
            print_row(named, &row);
            row.to_json(named)
        })
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

/// All medians measured for one trace, in nanoseconds per iteration.
/// `peaks` is `None` without the `alloc-track` feature.
struct TraceRow {
    refs: u64,
    unique: u64,
    address_bits: u32,
    strip_ns: f64,
    bcat_ns: f64,
    mrct_ns: f64,
    streamed_ns: f64,
    depth_first_ns: f64,
    tree_table_ns: f64,
    end_to_end_ns: f64,
    peaks: Option<PhasePeaks>,
}

/// Cold-build delta-peak heap bytes per phase (see [`phase_peak`]).
struct PhasePeaks {
    strip: u64,
    bcat: u64,
    mrct: u64,
    streamed: u64,
}

/// Runs `f` once on a fresh shim thread and returns how far the heap
/// climbed above the thread's starting residency. The fresh thread is the
/// point: `Mrct`/`Bcat` recycle their arenas through thread-local pools,
/// so re-running a phase on the bench thread (whose pools are warm from
/// the timing loops) would measure pool top-up, not the build. A new
/// thread starts with empty pools and its thread-local destructors return
/// the memory on join.
fn phase_peak<T: Send>(f: impl FnOnce() -> T + Send) -> u64 {
    thread::scope(|s| {
        s.spawn(|| {
            let start = alloc_track::mark();
            let out = f();
            let peak = alloc_track::peak_since(start);
            drop(out);
            peak
        })
        .join()
        .expect("peak-measurement thread panicked")
    })
}

fn measure_peaks(trace: &Trace, stripped: &StrippedTrace, bits: u32) -> PhasePeaks {
    PhasePeaks {
        strip: phase_peak(|| StrippedTrace::from_trace(trace)),
        bcat: phase_peak(|| Bcat::from_stripped(stripped, bits)),
        mrct: phase_peak(|| Mrct::build(stripped)),
        streamed: phase_peak(|| streamed::level_profiles(stripped, bits)),
    }
}

fn measure_trace(named: &NamedTrace, samples: usize) -> TraceRow {
    let trace: &Trace = &named.trace;
    let stripped = StrippedTrace::from_trace(trace);
    let bits = trace.address_bits();

    let strip_ns = measure(samples, || StrippedTrace::from_trace(trace));
    let bcat_ns = measure(samples, || Bcat::from_stripped(&stripped, bits));
    let mrct_ns = measure(samples, || Mrct::build(&stripped));
    let streamed_ns = measure(samples, || streamed::level_profiles(&stripped, bits));
    let depth_first_ns = measure(samples, || dfs::level_profiles(&stripped, bits));
    let tree_table_ns = measure(samples, || postlude::materialized_profiles(&stripped, bits));
    let end_to_end_ns = measure(samples, || {
        DesignSpaceExplorer::new(trace)
            .max_index_bits(bits)
            .explore(MissBudget::FractionOfMax(0.10))
            .expect("non-empty kernel trace")
    });
    let peaks = alloc_track::enabled().then(|| measure_peaks(trace, &stripped, bits));

    TraceRow {
        refs: stripped.total_len() as u64,
        unique: stripped.unique_len() as u64,
        address_bits: bits,
        strip_ns,
        bcat_ns,
        mrct_ns,
        streamed_ns,
        depth_first_ns,
        tree_table_ns,
        end_to_end_ns,
        peaks,
    }
}

/// Finds `label` in a `(label, ns)` baseline table.
fn lookup(table: &[(&str, f64)], label: &str) -> Option<f64> {
    table
        .iter()
        .find(|(name, _)| *name == label)
        .map(|&(_, ns)| ns)
}

fn print_row(named: &NamedTrace, row: &TraceRow) {
    let label = named.label();
    let vs_tree = row.tree_table_ns / row.depth_first_ns;
    println!(
        "{label:<16} {:>13.0} {:>13.0} {:>13.0} {:>13.0} {vs_tree:>7.2}x",
        row.mrct_ns, row.streamed_ns, row.depth_first_ns, row.tree_table_ns,
    );
}

/// One phase's drift baseline entry: the recorded post-rewrite median and
/// the measured value's ratio to it. `Null` when the kernel has no
/// recorded baseline (e.g. future kernels).
fn phase_baseline_json(label: &str, measured: f64, post_table: &[(&str, f64)]) -> Value {
    let Some(post) = lookup(post_table, label) else {
        return Value::Null;
    };
    Value::object([
        ("post_rewrite_ns", Value::from(post)),
        ("regression_vs_post", Value::from(measured / post)),
    ])
}

impl TraceRow {
    fn to_json(&self, named: &NamedTrace) -> Value {
        let label = named.label();
        let engines = Value::object([
            ("depth_first", Value::from(self.depth_first_ns)),
            ("tree_table", Value::from(self.tree_table_ns)),
        ]);
        let mrct_baseline = phase_baseline_json(&label, self.mrct_ns, POST_REWRITE_MRCT_NS);
        let bcat_baseline = phase_baseline_json(&label, self.bcat_ns, POST_REWRITE_BCAT_NS);
        let streamed_baseline =
            phase_baseline_json(&label, self.streamed_ns, POST_FUSION_STREAMED_NS);
        let mut fields = vec![
            ("label", Value::from(label)),
            ("refs", Value::from(self.refs)),
            ("unique", Value::from(self.unique)),
            ("address_bits", Value::from(self.address_bits)),
            (
                "phases_ns",
                Value::object([
                    ("strip", Value::from(self.strip_ns)),
                    ("bcat", Value::from(self.bcat_ns)),
                    ("mrct", Value::from(self.mrct_ns)),
                    ("streamed", Value::from(self.streamed_ns)),
                ]),
            ),
            (
                "phase_baselines",
                Value::object([
                    ("mrct", mrct_baseline),
                    ("bcat", bcat_baseline),
                    ("streamed", streamed_baseline),
                ]),
            ),
            ("engines_ns", engines),
            ("end_to_end_ns", Value::from(self.end_to_end_ns)),
            (
                "speedup_vs_tree_table",
                Value::from(self.tree_table_ns / self.depth_first_ns),
            ),
            (
                "fused_speedup_vs_materialized",
                Value::from(self.tree_table_ns / self.streamed_ns),
            ),
        ];
        if let Some(peaks) = &self.peaks {
            fields.push((
                "peak_alloc_bytes",
                Value::object([
                    ("strip", Value::from(peaks.strip)),
                    ("bcat", Value::from(peaks.bcat)),
                    ("mrct", Value::from(peaks.mrct)),
                    ("streamed", Value::from(peaks.streamed)),
                ]),
            ));
        }
        Value::object(fields)
    }
}

/// Parses `text` with `cachedse-json` and verifies every field the
/// [`SCHEMA`] version requires. Returns the kernel count.
fn validate_report(text: &str) -> Result<usize, String> {
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
        for field in [
            "end_to_end_ns",
            "speedup_vs_tree_table",
            "fused_speedup_vs_materialized",
        ] {
            positive(kernel.get(field), &context(field))?;
        }
        let phases = kernel
            .get("phases_ns")
            .ok_or_else(|| format!("kernel {label:?} missing \"phases_ns\""))?;
        for field in ["strip", "bcat", "mrct", "streamed"] {
            positive(phases.get(field), &context(field))?;
        }
        // Peak objects appear exactly when the report says the allocator
        // counters were live: a peak object despite the flag (or vice
        // versa) means the emitter and the flag disagree.
        match (peak_tracked, kernel.get("peak_alloc_bytes")) {
            (true, Some(peaks)) => {
                for field in ["strip", "bcat", "mrct", "streamed"] {
                    peaks
                        .get(field)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| context(&format!("peak_alloc_bytes.{field}")))?;
                }
            }
            (false, None) => {}
            (true, None) => {
                return Err(format!("kernel {label:?} missing \"peak_alloc_bytes\""));
            }
            (false, Some(_)) => {
                return Err(format!(
                    "kernel {label:?} carries \"peak_alloc_bytes\" although \
                     \"peak_alloc_tracked\" is false"
                ));
            }
        }
        let engines = kernel
            .get("engines_ns")
            .ok_or_else(|| format!("kernel {label:?} missing \"engines_ns\""))?;
        for field in ["depth_first", "tree_table"] {
            positive(engines.get(field), &context(field))?;
        }
        let phase_baselines = kernel
            .get("phase_baselines")
            .ok_or_else(|| format!("kernel {label:?} missing \"phase_baselines\""))?;
        for phase in ["mrct", "bcat", "streamed"] {
            match phase_baselines.get(phase) {
                Some(Value::Null) => {}
                Some(entry) => {
                    for field in ["post_rewrite_ns", "regression_vs_post"] {
                        positive(entry.get(field), &context(&format!("{phase}.{field}")))?;
                    }
                }
                None => {
                    return Err(format!(
                        "kernel {label:?} missing \"phase_baselines.{phase}\""
                    ));
                }
            }
        }
    }
    Ok(kernels.len())
}

fn positive(value: Option<&Value>, problem: &str) -> Result<f64, String> {
    match value.and_then(Value::as_f64) {
        Some(v) if v > 0.0 && v.is_finite() => Ok(v),
        _ => Err(problem.to_owned()),
    }
}
