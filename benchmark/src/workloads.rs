//! The workloads and the request path each one drives.
//!
//! Every workload starts from the Dinero files on disk and ends at a
//! frontier, calling only the public functions of the program's crates.
//! Load is closed-loop from one client thread; the serve-tier workloads
//! run [`SERVE_WORKERS`] workers, so no process runs more than three
//! threads.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cachedse_core::{
    prepare_stripped, DesignSpaceExplorer, Engine, Exploration, ExplorationResult, MissBudget,
};
use cachedse_json::Value;
use cachedse_serve::{outcome_json, JobSpec, Service, ServiceConfig, StatsSnapshot};
use cachedse_store::{ArtifactStore, DiskStore};
use cachedse_trace::strip::StrippedTrace;
use cachedse_trace::Trace;

use crate::inputs::{read_trace, Inputs, BUDGETS, EXPLORE_BUDGET};
use crate::spans::{At, Recorder};

/// Worker threads of every serve-tier workload.
pub const SERVE_WORKERS: usize = 2;

/// Queue bound of every serve-tier workload: small enough that blocking
/// admission throttles the client, as a long `cachedse batch` input does.
pub const SERVE_QUEUE: usize = 4;

/// Warm restarts in one `store_restart` round, after its cold fill: enough
/// that the read path takes about as long as the write path.
pub const WARM_RESTARTS: usize = 40;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `cachedse explore` over the 12 data traces: many conflicts, analysis
    /// dominates.
    ExploreData,
    /// `cachedse explore` over the 12 instruction traces: long traces, few
    /// unique references, parsing and stripping weigh most.
    ExploreInstr,
    /// A `cachedse batch` K-sweep: 24 files × 8 budgets through the serve
    /// tier, 24 analyses and 168 cache hits per round.
    BatchSweep,
    /// A fresh disk store filled by 24 file jobs (analysis, encode, atomic
    /// write), then [`WARM_RESTARTS`] restarts over a filled store, each
    /// answering 24 digest-only jobs from it (open, decode, validation).
    StoreRestart,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Self; 4] = [
        Self::ExploreData,
        Self::ExploreInstr,
        Self::BatchSweep,
        Self::StoreRestart,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::ExploreData => "explore_data",
            Self::ExploreInstr => "explore_instr",
            Self::BatchSweep => "batch_sweep",
            Self::StoreRestart => "store_restart",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Indices of the trace files this workload reads.
    #[must_use]
    pub fn files(self, inputs: &Inputs) -> Vec<usize> {
        (0..inputs.traces.len())
            .filter(|&i| match self {
                Self::ExploreData => !inputs.traces[i].is_instr(),
                Self::ExploreInstr => inputs.traces[i].is_instr(),
                _ => true,
            })
            .collect()
    }
}

/// The service configuration of every serve-tier workload.
#[must_use]
pub fn serve_config(store: Option<Arc<dyn ArtifactStore>>) -> ServiceConfig {
    ServiceConfig {
        workers: SERVE_WORKERS,
        queue_depth: SERVE_QUEUE,
        store,
        ..ServiceConfig::default()
    }
}

/// The budget `cachedse explore` is run at.
#[must_use]
pub fn explore_budget() -> MissBudget {
    MissBudget::FractionOfMax(BUDGETS[EXPLORE_BUDGET])
}

/// One answer, checked against the golden frontier after timing ends.
#[derive(Debug)]
pub struct Answer {
    /// The trace file asked about.
    pub input: usize,
    /// Index into [`BUDGETS`].
    pub budget: usize,
    /// The frontier, or the error the program returned.
    pub outcome: Result<ExplorationResult, String>,
}

/// One round over a workload's inputs.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time of the round.
    pub wall_s: f64,
    /// Latency of each request answered, with a frontier or an error; a
    /// job the service never admitted has none.
    pub latencies_ms: Vec<f64>,
    /// Every answer, in request order.
    pub answers: Vec<Answer>,
    /// Per serve job: client-observed latency minus the reply's own
    /// `micros.total`.
    pub queue_wait_ms: Vec<f64>,
    /// The service's final stats, for serve-tier rounds.
    pub stats: Option<StatsSnapshot>,
}

impl Round {
    /// Appends `next`, a round run after this one, as its continuation.
    fn extend(&mut self, next: Self) {
        self.wall_s += next.wall_s;
        self.latencies_ms.extend(next.latencies_ms);
        self.answers.extend(next.answers);
        self.queue_wait_ms.extend(next.queue_wait_ms);
        self.stats = next.stats;
    }
}

/// One JSONL job line and what it asks.
#[derive(Clone, Debug)]
pub struct Job {
    input: usize,
    budget: usize,
    line: String,
}

impl Job {
    /// A job naming the trace file of `input`, at `BUDGETS[budget]`.
    #[must_use]
    pub fn file(inputs: &Inputs, input: usize, budget: usize) -> Self {
        let t = &inputs.traces[input];
        let source = Value::object([("file", Value::from(t.path.to_string_lossy().as_ref()))]);
        Self::new(t.name.as_str(), input, budget, source)
    }

    /// A job naming `input` by its digest alone, at the explore budget.
    #[must_use]
    pub fn digest(inputs: &Inputs, input: usize) -> Self {
        let t = &inputs.traces[input];
        let source = Value::object([("digest", Value::from(t.digest.as_str()))]);
        Self::new(t.name.as_str(), input, EXPLORE_BUDGET, source)
    }

    fn new(name: &str, input: usize, budget: usize, source: Value) -> Self {
        let fraction = BUDGETS[budget];
        let line = Value::object([
            ("id", Value::from(format!("{name}@{fraction}"))),
            ("trace", source),
            (
                "budget",
                Value::object([("fraction", Value::from(fraction))]),
            ),
        ])
        .render();
        Self {
            input,
            budget,
            line,
        }
    }
}

/// The intermediate results of one explore request taken apart.
#[derive(Debug)]
pub struct ExploreParts {
    /// The parsed trace.
    pub trace: Trace,
    /// The stripped trace.
    pub stripped: StrippedTrace,
    /// The budget-independent analysis.
    pub exploration: Exploration,
    /// The frontier at the explore budget.
    pub result: ExplorationResult,
}

/// The explore request exactly as `cachedse explore` makes it.
///
/// # Errors
///
/// The read or exploration error, as text.
pub fn explore(path: &Path) -> Result<ExplorationResult, String> {
    let trace = read_trace(path)?;
    DesignSpaceExplorer::new(&trace)
        .explore(explore_budget())
        .map_err(|e| e.to_string())
}

/// The same request taken apart into its layer calls — `read_din`, strip,
/// `prepare_stripped` with the default engine, `result` — each in a span
/// under one `explore` span.
///
/// # Errors
///
/// The read or exploration error, as text.
pub fn explore_traced(rec: &mut Recorder, at: At, path: &Path) -> Result<ExploreParts, String> {
    rec.span(at, "explore", |rec, id| {
        let child = At {
            parent: Some(id),
            ..at
        };
        let trace = rec.span(child, "trace.read_din", |_, _| read_trace(path))?;
        let stripped = rec.span(child, "trace.strip", |_, _| {
            StrippedTrace::from_trace(&trace)
        });
        let exploration = rec
            .span(child, "core.prepare", |_, _| {
                prepare_stripped(&stripped, None, Engine::default(), None)
            })
            .map_err(|e| e.to_string())?;
        let result = rec
            .span(child, "core.result", |_, _| {
                exploration.result(explore_budget())
            })
            .map_err(|e| e.to_string())?;
        Ok(ExploreParts {
            trace,
            stripped,
            exploration,
            result,
        })
    })
}

/// Runs `jobs` through `service` the way `cachedse batch` does: every line
/// parsed and submitted with blocking admission, then every outcome taken
/// and rendered in input order. Returns the latency of each job that was
/// admitted, from its submission returning to its reply being rendered.
fn run_jobs(service: &Service, jobs: &[Job], rec: &mut Recorder, round: &mut Round) -> Vec<f64> {
    let mut admitted = Vec::with_capacity(jobs.len());
    for job in jobs {
        let at = At {
            request: rec.request(),
            parent: None,
            input: Some(job.input),
        };
        let spec = rec.span(at, "json.spec_parse", |_, _| JobSpec::parse(&job.line));
        let slot = spec
            .map_err(|e| e.to_string())
            .and_then(|spec| service.submit_blocking(spec).map_err(|e| e.to_string()))
            .map(|id| (id, Instant::now()));
        admitted.push((at, slot));
    }
    let mut latencies = Vec::with_capacity(jobs.len());
    for (job, (at, slot)) in jobs.iter().zip(admitted) {
        let outcome = slot.and_then(|(id, submitted)| {
            let (label, outcome) = service.wait(id);
            rec.span(at, "json.outcome_render", |_, _| {
                black_box(outcome_json(&label, &outcome).render())
            });
            let done = Instant::now();
            rec.push(at, "serve.job", submitted, done);
            let latency_ms = (done - submitted).as_secs_f64() * 1e3;
            latencies.push(latency_ms);
            let output = outcome.map_err(|e| e.to_string())?;
            round
                .queue_wait_ms
                .push(latency_ms - output.total_micros as f64 / 1e3);
            Ok(output.result)
        });
        round.answers.push(Answer {
            input: job.input,
            budget: job.budget,
            outcome,
        });
    }
    latencies
}

/// One serve-tier round: open the store in `store_dir` (if any), start the
/// service, run `jobs`, shut down.
///
/// # Errors
///
/// A store that cannot be opened.
pub fn serve_round(
    jobs: &[Job],
    store_dir: Option<&Path>,
    rec: &mut Recorder,
) -> Result<Round, String> {
    let mut round = Round::default();
    let start = Instant::now();
    let store: Option<Arc<dyn ArtifactStore>> = match store_dir {
        Some(dir) => {
            let at = At {
                request: rec.request(),
                parent: None,
                input: None,
            };
            let store = rec
                .span(at, "store.disk.open", |_, _| DiskStore::open(dir))
                .map_err(|e| e.to_string())?;
            Some(Arc::new(store))
        }
        None => None,
    };
    let service = Service::start(serve_config(store));
    round.latencies_ms = run_jobs(&service, jobs, rec, &mut round);
    round.stats = Some(service.shutdown());
    round.wall_s = start.elapsed().as_secs_f64();
    Ok(round)
}

/// Drives one workload's rounds over a generated input set.
#[derive(Debug)]
pub struct Runner<'a> {
    workload: Workload,
    inputs: &'a Inputs,
    files: Vec<usize>,
    work: PathBuf,
    /// The jobs of one serve-tier round: the K-sweep of `batch_sweep`, or
    /// the digest-only jobs of one `store_restart` restart.
    jobs: Vec<Job>,
    /// Every file once at the explore budget: the set-up of `batch_sweep`,
    /// and the cold fill of a `store_restart` store.
    each_file: Vec<Job>,
    rounds: u64,
}

impl<'a> Runner<'a> {
    /// A runner keeping its stores under `work`.
    #[must_use]
    pub fn new(workload: Workload, inputs: &'a Inputs, work: &Path) -> Self {
        let files = workload.files(inputs);
        let each_file: Vec<Job> = files
            .iter()
            .map(|&i| Job::file(inputs, i, EXPLORE_BUDGET))
            .collect();
        let jobs = match workload {
            Workload::ExploreData | Workload::ExploreInstr => Vec::new(),
            Workload::BatchSweep => files
                .iter()
                .flat_map(|&i| (0..BUDGETS.len()).map(move |k| Job::file(inputs, i, k)))
                .collect(),
            Workload::StoreRestart => files.iter().map(|&i| Job::digest(inputs, i)).collect(),
        };
        Self {
            workload,
            inputs,
            files,
            work: work.to_owned(),
            jobs,
            each_file,
            rounds: 0,
        }
    }

    /// The trace files this runner reads.
    #[must_use]
    pub fn files(&self) -> &[usize] {
        &self.files
    }

    /// Brings the workload's own inputs into being before any set-up:
    /// `store_restart` restarts over a store that an earlier run filled.
    /// Other workloads need nothing and return an empty round.
    ///
    /// # Errors
    ///
    /// A store that cannot be opened.
    pub fn prepare(&mut self) -> Result<Round, String> {
        if self.workload != Workload::StoreRestart {
            return Ok(Round::default());
        }
        serve_round(
            &self.each_file,
            Some(&self.warm_dir()),
            &mut Recorder::new(false),
        )
    }

    /// One set-up: whatever the workload starts (service, store) up to its
    /// first answer for every input. For the explore workloads that is one
    /// pass over the files; for `batch_sweep`, a fresh service answering
    /// each file once; for `store_restart`, one restart over the filled
    /// store.
    ///
    /// # Errors
    ///
    /// A store that cannot be opened.
    pub fn setup(&mut self) -> Result<Round, String> {
        let mut off = Recorder::new(false);
        match self.workload {
            Workload::ExploreData | Workload::ExploreInstr => Ok(self.explore_round(&mut off)),
            Workload::BatchSweep => serve_round(&self.each_file, None, &mut off),
            Workload::StoreRestart => serve_round(&self.jobs, Some(&self.warm_dir()), &mut off),
        }
    }

    /// One measured round.
    ///
    /// # Errors
    ///
    /// A store that cannot be opened, or a store directory that cannot be
    /// removed after its round.
    pub fn round(&mut self, rec: &mut Recorder) -> Result<Round, String> {
        self.rounds += 1;
        match self.workload {
            Workload::ExploreData | Workload::ExploreInstr => Ok(self.explore_round(rec)),
            Workload::BatchSweep => serve_round(&self.jobs, None, rec),
            Workload::StoreRestart => {
                let dir = self.work.join(format!("store-{}", self.rounds));
                let mut round = serve_round(&self.each_file, Some(&dir), rec)?;
                std::fs::remove_dir_all(&dir)
                    .map_err(|e| format!("removing {}: {e}", dir.display()))?;
                for _ in 0..WARM_RESTARTS {
                    round.extend(serve_round(&self.jobs, Some(&self.warm_dir()), rec)?);
                }
                Ok(round)
            }
        }
    }

    fn warm_dir(&self) -> PathBuf {
        self.work.join("store-warm")
    }

    fn explore_round(&self, rec: &mut Recorder) -> Round {
        let mut round = Round::default();
        let start = Instant::now();
        for &input in &self.files {
            let path = &self.inputs.traces[input].path;
            let t0 = Instant::now();
            let outcome = if rec.enabled() {
                let at = At {
                    request: rec.request(),
                    parent: None,
                    input: Some(input),
                };
                explore_traced(rec, at, path).map(|parts| parts.result)
            } else {
                explore(path)
            };
            round.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            round.answers.push(Answer {
                input,
                budget: EXPLORE_BUDGET,
                outcome,
            });
        }
        round.wall_s = start.elapsed().as_secs_f64();
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::generate;

    /// The traced request takes `cachedse explore` apart without changing
    /// its answer, on both a data and an instruction trace.
    #[test]
    fn traced_explore_request_answers_exactly_as_explore() {
        let dir = std::env::temp_dir().join(format!("cdse-bench-explore-{}", std::process::id()));
        let inputs = generate(3, &dir, Some(&["crc".to_owned()])).unwrap();
        let mut rec = Recorder::new(true);
        for (i, t) in inputs.traces.iter().enumerate() {
            let at = At {
                request: rec.request(),
                parent: None,
                input: Some(i),
            };
            let parts = explore_traced(&mut rec, at, &t.path).unwrap();
            assert_eq!(parts.result, explore(&t.path).unwrap());
            assert_eq!(parts.trace, read_trace(&t.path).unwrap());
        }
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            &names[..5],
            [
                "trace.read_din",
                "trace.strip",
                "core.prepare",
                "core.result",
                "explore"
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn workloads_split_the_files_by_side() {
        let dir = std::env::temp_dir().join(format!("cdse-bench-files-{}", std::process::id()));
        let inputs = generate(3, &dir, Some(&["qurt".to_owned(), "crc".to_owned()])).unwrap();
        assert_eq!(Workload::ExploreData.files(&inputs), [0, 2]);
        assert_eq!(Workload::ExploreInstr.files(&inputs), [1, 3]);
        assert_eq!(Workload::BatchSweep.files(&inputs), [0, 1, 2, 3]);
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
