//! One run of one workload: generate the inputs in a child process, warm
//! up, measure rounds with set-ups between them, check every answer,
//! report.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use cachedse_json::Value;

use crate::inputs::{self, Inputs};
use crate::layers;
use crate::report::{Metric, Report, END_TO_END};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{Answer, Round, Runner, Workload};

/// Fewest set-ups in an untraced run; `setup_s` is their median.
pub const SETUP_MIN_REPS: usize = 3;

/// Set-ups take about a third of an untraced run: after each round, set-ups
/// run while all set-ups so far took less than this share of all rounds.
const SETUP_SHARE_OF_ROUNDS: f64 = 0.5;

/// Most set-ups after any one round, so that cheap set-ups spread over the
/// whole run instead of crowding its start.
const SETUPS_PER_ROUND: usize = 8;

/// The kernel a smoke run captures: its two traces are the smallest.
pub const SMOKE_KERNEL: &str = "qurt";

/// The directory, inside a run's work directory, holding its inputs.
const INPUTS_DIR: &str = "inputs";

/// How to run.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds of measured rounds (whole rounds, at least one).
    pub seconds: f64,
    /// A traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// One kernel, one set-up and one round after the warm-up: a check that
    /// everything runs.
    pub smoke: bool,
    /// Where a traced run writes its spans as JSON lines.
    pub spans: Option<PathBuf>,
}

/// A run's report and the human-readable lines that explain it.
#[derive(Debug)]
pub struct RunOutput {
    /// The result line.
    pub report: Report,
    /// Input properties, sample counts and untimed phases.
    pub notes: Vec<String>,
}

/// A private directory under `.bench_work/` in the working directory,
/// removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<Self, String> {
        let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
        let dir = cwd.join(".bench_work").join(std::process::id().to_string());
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = fs::remove_dir(parent);
        }
    }
}

/// Runs `cdse-bench gen` in a child process, so that generating and
/// checking the inputs never counts in this process's peak memory.
fn generate_in_child(seed: u64, dir: &Path, smoke: bool) -> Result<(Inputs, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating cdse-bench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["gen", "--seed", &seed.to_string(), "--out"])
        .arg(dir);
    if smoke {
        cmd.arg("--smoke");
    }
    let start = Instant::now();
    let out = cmd.output().map_err(|e| format!("starting gen: {e}"))?;
    let gen_s = start.elapsed().as_secs_f64();
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("gen failed ({})", out.status));
    }
    Ok((inputs::load(dir)?, gen_s))
}

/// Rounds until `seconds` have passed (at least one; exactly one when
/// `once`).
fn measure(
    runner: &mut Runner<'_>,
    rec: &mut Recorder,
    seconds: f64,
    once: bool,
) -> Result<Vec<Round>, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        rounds.push(runner.round(rec)?);
        if once || start.elapsed().as_secs_f64() >= seconds {
            return Ok(rounds);
        }
    }
}

/// Untraced rounds until `seconds` have passed, with set-ups between them
/// so that both sample the whole run: after each round, set-ups run while
/// all set-ups so far took less than [`SETUP_SHARE_OF_ROUNDS`] of all
/// rounds, at most [`SETUPS_PER_ROUND`] at a time. A smoke run makes one
/// round and one set-up; any other run at least [`SETUP_MIN_REPS`]
/// set-ups.
fn measure_with_setups(
    runner: &mut Runner<'_>,
    workload: Workload,
    work: &Path,
    seconds: f64,
    smoke: bool,
) -> Result<(Vec<Round>, Vec<Report>), String> {
    let start = Instant::now();
    let mut off = Recorder::new(false);
    let (mut rounds, mut setups) = (Vec::new(), Vec::new());
    let (mut round_s, mut setup_s) = (0.0, 0.0);
    loop {
        let round = runner.round(&mut off)?;
        round_s += round.wall_s;
        rounds.push(round);
        let done = smoke || start.elapsed().as_secs_f64() >= seconds;
        let min_reps = if smoke { 1 } else { SETUP_MIN_REPS };
        for _ in 0..SETUPS_PER_ROUND {
            let due = !smoke && setup_s < round_s * SETUP_SHARE_OF_ROUNDS;
            let short = done && setups.len() < min_reps;
            if !(due || short) {
                break;
            }
            let setup = setup_in_child(workload, work)?;
            setup_s += setup.value("setup_s").unwrap_or_default();
            setups.push(setup);
        }
        if done && setups.len() >= min_reps {
            return Ok((rounds, setups));
        }
    }
}

/// Runs one set-up in a fresh `cdse-bench setup` process over this run's
/// inputs, so that it starts from nothing as a new `cachedse` process
/// does: no warm heap, caches or service. Returns the child's report of
/// its set-up time and its checked answers.
fn setup_in_child(workload: Workload, work: &Path) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating cdse-bench: {e}"))?;
    let out = Command::new(exe)
        .args(["setup", "--workload", workload.name(), "--work"])
        .arg(work)
        .output()
        .map_err(|e| format!("starting setup: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("setup failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("setup printed no report")?;
    let report = Value::parse(last)
        .map_err(|e| e.to_string())
        .and_then(|v| Report::from_json(&v))?;
    report.value("setup_s").ok_or("setup reported no setup_s")?;
    Ok(report)
}

/// The body of `cdse-bench setup`: times one set-up of `workload` over the
/// inputs of the run working in `work`, and checks its answers.
///
/// # Errors
///
/// Missing inputs, or a store that cannot be opened. Wrong answers are
/// counted in the report.
pub fn setup_once(workload: Workload, work: &Path) -> Result<Report, String> {
    let inputs = inputs::load(&work.join(INPUTS_DIR))?;
    let mut runner = Runner::new(workload, &inputs, work);
    let round = runner.setup()?;
    let (attempted, failed, first) = check(&inputs, &round.answers);
    if let Some(problem) = first {
        eprintln!("setup FAILED: {failed} of {attempted} answers; first: {problem}");
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![Metric {
            name: "setup_s".to_owned(),
            value: round.wall_s,
            unit: "s".to_owned(),
        }],
    })
}

/// The median wall time of `rounds`.
fn median_wall(rounds: &[Round]) -> f64 {
    median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>())
}

/// Each request slot's median latency across `rounds`. Every round makes
/// the same requests in the same order, so slot `j` is one request repeated;
/// a round in which a request failed, and so left no latency, is skipped.
fn median_per_slot(rounds: &[Round]) -> Result<Vec<f64>, String> {
    let slots = rounds
        .iter()
        .map(|r| r.latencies_ms.len())
        .max()
        .unwrap_or(0);
    if slots == 0 {
        return Err("no request produced a reply".to_owned());
    }
    let full: Vec<&Round> = rounds
        .iter()
        .filter(|r| r.latencies_ms.len() == slots)
        .collect();
    Ok((0..slots)
        .map(|j| median(&full.iter().map(|r| r.latencies_ms[j]).collect::<Vec<_>>()))
        .collect())
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Checks every answer against its golden frontier: `(attempted, failed,
/// first failure)`.
fn check(inputs: &Inputs, answers: &[Answer]) -> (u64, u64, Option<String>) {
    let mut failed = 0;
    let mut first = None;
    for a in answers {
        let t = &inputs.traces[a.input];
        let problem = match &a.outcome {
            Err(e) => Some(format!("{} at budget {}: {e}", t.name, a.budget)),
            Ok(r) if !t.frontiers[a.budget].matches(r) => {
                Some(format!("{} at budget {}: wrong frontier", t.name, a.budget))
            }
            Ok(_) => None,
        };
        if let Some(problem) = problem {
            failed += 1;
            first.get_or_insert(problem);
        }
    }
    (answers.len() as u64, failed, first)
}

/// Runs `workload` once.
///
/// # Errors
///
/// Input generation failing, or a store directory that cannot be used.
/// Failed or wrong requests are not errors: they are counted in the
/// report.
pub fn run(workload: Workload, settings: &Settings) -> Result<RunOutput, String> {
    let work = WorkDir::create()?;
    let (inputs, gen_s) =
        generate_in_child(settings.seed, &work.0.join(INPUTS_DIR), settings.smoke)?;
    let mut notes = vec![format!(
        "workload {} seed {} gen_s {gen_s:.3} (not gated) oracle replays {} failures {}",
        workload.name(),
        settings.seed,
        inputs.oracle_checks,
        inputs.oracle_failures
    )];
    let mut totals = [0u64; 4];
    for &i in &workload.files(&inputs) {
        let t = &inputs.traces[i];
        notes.push(format!(
            "input {} refs {} unique {} address_bits {} bytes {} conflicts {}",
            t.name, t.refs, t.unique, t.address_bits, t.bytes, t.conflicts
        ));
        for (sum, v) in totals
            .iter_mut()
            .zip([t.refs, t.unique, t.bytes, t.conflicts])
        {
            *sum += v;
        }
    }
    notes.push(format!(
        "inputs total refs {} unique {} bytes {} conflicts {}",
        totals[0], totals[1], totals[2], totals[3]
    ));

    let mut runner = Runner::new(workload, &inputs, &work.0);
    let prepared = runner.prepare()?;
    if prepared.wall_s > 0.0 {
        notes.push(format!(
            "prepare_s {:.3} (fills the store, not gated)",
            prepared.wall_s
        ));
    }
    let mut answers = prepared.answers;
    // Warm-up, untimed: the first pass after generation pays for page
    // faults and caches that no later pass sees again.
    answers.extend(runner.setup()?.answers);
    let mut child_counts = (0, 0);

    let metrics = if settings.trace {
        let half = settings.seconds / 2.0;
        let untraced = measure(&mut runner, &mut Recorder::new(false), half, settings.smoke)?;
        let mut rec = Recorder::new(true);
        let traced = measure(&mut runner, &mut rec, half, settings.smoke)?;
        let overhead = median_wall(&traced) / median_wall(&untraced);
        let probe = layers::probe(&inputs, runner.files(), &work.0, &mut rec)?;
        let peak_rss = peak_rss_mib()?;
        let metrics = layers::metrics(&inputs, rec.spans(), &probe, overhead, peak_rss);
        notes.push(format!(
            "traced: {} untraced and {} traced rounds, {} spans",
            untraced.len(),
            traced.len(),
            rec.spans().len()
        ));
        if let Some(path) = &settings.spans {
            let file =
                fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
            rec.write_jsonl(std::io::BufWriter::new(file))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        answers.extend(untraced.into_iter().chain(traced).flat_map(|r| r.answers));
        answers.extend(probe.answers);
        metrics
    } else {
        let (rounds, setups) = measure_with_setups(
            &mut runner,
            workload,
            &work.0,
            settings.seconds,
            settings.smoke,
        )?;
        let setup_s: Vec<f64> = setups.iter().filter_map(|r| r.value("setup_s")).collect();
        for setup in &setups {
            child_counts.0 += setup.attempted;
            child_counts.1 += setup.failed;
        }
        // Every round makes the same requests.
        let jobs = rounds[0].answers.len();
        let refs: u64 = rounds[0]
            .answers
            .iter()
            .map(|a| inputs.traces[a.input].refs)
            .sum();
        let latencies = median_per_slot(&rounds)?;
        let walls: Vec<String> = rounds.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
        notes.push(format!(
            "setup_s: median of {} set-ups, each in a fresh process; jobs_per_s: over the \
             median of {} rounds, each {jobs} jobs over {refs} trace refs; latency_p50_ms: \
             median of {} samples, one per request slot, each its median over the rounds",
            setup_s.len(),
            rounds.len(),
            latencies.len()
        ));
        notes.push(format!("round_s {}", walls.join(" ")));
        let setup_walls: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
        notes.push(format!("setup_s {}", setup_walls.join(" ")));
        let slots: Vec<String> = latencies.iter().map(|ms| format!("{ms:.2}")).collect();
        notes.push(format!("slot_ms {}", slots.join(" ")));
        let values: [f64; END_TO_END.len()] = [
            median(&setup_s),
            jobs as f64 / median_wall(&rounds),
            median(&latencies),
        ];
        answers.extend(rounds.into_iter().flat_map(|r| r.answers));
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), value)| Metric {
                name: name.to_owned(),
                value,
                unit: unit.to_owned(),
            })
            .collect()
    };

    let (attempted, failed, first) = check(&inputs, &answers);
    let (attempted, failed) = (attempted + child_counts.0, failed + child_counts.1);
    if failed > 0 {
        let first = first.unwrap_or_else(|| "in a set-up process, see its errors".to_owned());
        notes.push(format!(
            "FAILED: {failed} of {attempted} answers; first: {first}"
        ));
    }
    Ok(RunOutput {
        report: Report {
            correct: failed == 0 && inputs.oracle_failures == 0,
            attempted,
            failed,
            metrics,
        },
        notes,
    })
}
