//! `cachedse check --model`: explore the concurrency of the serve pool and
//! the parallel engine under the `cachedse-sync` model scheduler.
//!
//! The binary must be built with `RUSTFLAGS="--cfg cachedse_model"` for the
//! scheduler to exist; a passthrough build answers with a structured error
//! so the CI gate cannot silently pass by running the wrong binary.
//!
//! Three closed scenarios are explored:
//!
//! - **serve-pool** — a two-worker service with an admission queue of depth
//!   one, fed three blocking submissions of a tiny trace, drained, and shut
//!   down. This walks every lock/condvar/atomic interaction of the worker
//!   pool (admission backpressure, work handoff, outcome delivery, drain).
//! - **dfs-split** — the depth-first engine on two worker threads,
//!   whose per-level profile must equal the serial engine's on every
//!   schedule (the cursor hand-off and scope join are the interactions
//!   under test).
//! - **streamed-split** — the chunked parallel streamed fold on two worker
//!   threads: snapshot-resumed chunk replays claimed through an atomic
//!   cursor, private histograms summed after the scope join, asserted equal
//!   to the serial fold on every schedule.
//!
//! Violations are folded into the ordinary [`CheckReport`] shape, so
//! `--format json` output is grep-compatible with the artifact checkers.

use cachedse_check::{model_report, CheckReport};
use cachedse_core::{prepare_stripped, Engine, MissBudget};
use cachedse_json::Value;
use cachedse_serve::{JobSpec, PatternSpec, Service, ServiceConfig, TraceSource};
use cachedse_sync::model::{explore, Mode, ModelConfig, Outcome};
use cachedse_trace::{generate, strip::StrippedTrace};

use crate::args::Args;

/// A named closed scenario for the explorer to run repeatedly.
type Scenario<'a> = (&'a str, Box<dyn Fn()>);

fn tiny_spec(id: &str, budget: u64) -> JobSpec {
    JobSpec {
        id: Some(id.to_owned()),
        trace: TraceSource::Pattern(PatternSpec::Loop {
            base: 0,
            len: 8,
            iterations: 2,
        }),
        budget: MissBudget::Absolute(budget),
        max_index_bits: None,
        line_bits: 0,
        timeout_ms: None,
    }
}

/// Two workers, queue depth one, three jobs over one shared trace: the
/// third blocking submission must ride the `space_ready` backpressure
/// path in some schedules, and the shared artifact cache must end at
/// exactly one build however the workers interleave.
fn scenario_serve_pool() {
    let service = Service::start(ServiceConfig {
        workers: 2,
        queue_depth: 1,
        cache_capacity: 4,
        ..ServiceConfig::default()
    });
    let ids: Vec<_> = (0u64..3)
        .map(|i| {
            service
                .submit_blocking(tiny_spec(&format!("j{i}"), i))
                .expect("blocking submission cannot be rejected before shutdown")
        })
        .collect();
    for id in ids {
        let (_, outcome) = service.wait(id);
        outcome.expect("tiny loop job succeeds");
    }
    let stats = service.shutdown();
    assert_eq!(stats.accepted, 3, "every submission admitted");
    assert_eq!(stats.completed, 3, "every job completed");
    assert_eq!(stats.cache_misses, 1, "one shared trace, one analysis");
    assert_eq!(stats.cache_hits, 2, "the other two jobs reuse it");
}

/// The depth-first engine on two threads must produce the same
/// exploration as on one, on every interleaving of the
/// work-stealing cursor. The trace is long enough (8192 references) that
/// the gather prefix actually parks several work items, so both scoped
/// workers claim from the shared cursor; the serial reference is computed
/// once outside the explored closure, which only re-runs the parallel
/// split per schedule.
fn scenario_dfs_split() -> impl Fn() {
    let trace = generate::working_set_phases(6, 8192, 96, 17);
    let stripped = StrippedTrace::from_trace(&trace);
    let serial = prepare_stripped(&stripped, None, Engine::DepthFirst, None)
        .expect("non-empty trace explores");
    move || {
        let threads = std::num::NonZeroUsize::new(2);
        let parallel = prepare_stripped(&stripped, None, Engine::DepthFirst, threads)
            .expect("non-empty trace explores");
        for budget in [MissBudget::Absolute(0), MissBudget::FractionOfMax(0.10)] {
            assert_eq!(
                parallel.result(budget).expect("valid budget"),
                serial.result(budget).expect("valid budget"),
                "parallel split must be schedule-independent"
            );
        }
    }
}

/// The chunked parallel streamed fold on two threads must produce the
/// same profiles as the serial fold on every interleaving of the chunk
/// cursor. The trace is dense enough that the weighted pre-scan cuts real
/// chunks for both workers to contend over; the serial reference is
/// computed once outside the explored closure.
fn scenario_streamed_split() -> impl Fn() {
    let trace = generate::working_set_phases(6, 8192, 96, 17);
    let stripped = StrippedTrace::from_trace(&trace);
    let serial = prepare_stripped(&stripped, None, Engine::Streamed, None)
        .expect("non-empty trace explores");
    move || {
        let threads = std::num::NonZeroUsize::new(2);
        let parallel = prepare_stripped(&stripped, None, Engine::Streamed, threads)
            .expect("non-empty trace explores");
        for budget in [MissBudget::Absolute(0), MissBudget::FractionOfMax(0.10)] {
            assert_eq!(
                parallel.result(budget).expect("valid budget"),
                serial.result(budget).expect("valid budget"),
                "chunked streamed fold must be schedule-independent"
            );
        }
    }
}

fn config_of(args: &Args) -> Result<ModelConfig, Box<dyn std::error::Error>> {
    let preemptions = args.opt::<u32>("preemptions")?;
    let mode = match args.opt::<u64>("walks")? {
        Some(count) => Mode::Walks {
            count,
            seed: args.opt_or("seed", 0x5eed)?,
        },
        None => {
            if args.opt::<u64>("seed")?.is_some() {
                return Err("--seed only applies to --walks N mode".into());
            }
            Mode::Exhaustive
        }
    };
    // Exhaustive exploration needs a preemption bound to terminate in
    // reasonable time; random walks are already bounded by their count, so
    // there an absent bound means unrestricted preemption.
    let preemption_bound = match mode {
        Mode::Exhaustive => Some(preemptions.unwrap_or(1)),
        Mode::Walks { .. } => preemptions,
    };
    Ok(ModelConfig {
        preemption_bound,
        max_executions: args.opt_or("max-executions", 500_000)?,
        mode,
    })
}

fn mode_json(config: &ModelConfig) -> Value {
    let bound = config
        .preemption_bound
        .map_or(Value::Null, |b| Value::from(u64::from(b)));
    match config.mode {
        Mode::Exhaustive => Value::object([
            ("mode", Value::from("exhaustive")),
            ("preemption_bound", bound),
        ]),
        Mode::Walks { count, seed } => Value::object([
            ("mode", Value::from("walks")),
            ("preemption_bound", bound),
            ("count", Value::from(count)),
            ("seed", Value::from(seed)),
        ]),
    }
}

/// Runs the model gate. Returns an error (nonzero exit) when the scheduler
/// is unavailable, any scenario surfaces a violation, or an exhaustive
/// exploration was truncated by the execution cap.
pub fn run(args: &Args, json: bool) -> Result<(), Box<dyn std::error::Error>> {
    if !cachedse_sync::model_enabled() {
        return Err(
            "this binary was built without the model scheduler; rebuild with \
             RUSTFLAGS=\"--cfg cachedse_model\" to run `check --model`"
                .into(),
        );
    }
    let config = config_of(args)?;
    let scenarios: Vec<Scenario> = vec![
        ("serve-pool", Box::new(scenario_serve_pool)),
        ("dfs-split", Box::new(scenario_dfs_split())),
        ("streamed-split", Box::new(scenario_streamed_split())),
    ];
    let mut outcomes: Vec<(&str, Outcome)> = Vec::new();
    for (name, scenario) in &scenarios {
        if !json {
            eprintln!("exploring {name} ...");
        }
        outcomes.push((name, explore(&config, scenario)?));
    }
    let truncated: Vec<&str> = outcomes
        .iter()
        .filter(|(_, o)| !o.complete && o.violation.is_none())
        .map(|(n, _)| *n)
        .collect();
    let report = CheckReport {
        model: model_report(outcomes.iter().map(|(n, o)| (*n, o))),
        ..CheckReport::default()
    };

    if json {
        let scenarios = Value::array(outcomes.iter().map(|(name, o)| {
            Value::object([
                ("name", Value::from(*name)),
                ("executions", Value::from(o.executions)),
                ("complete", Value::from(o.complete)),
                ("violation", Value::from(o.violation.is_some())),
            ])
        }));
        let combined = Value::object([
            ("config", mode_json(&config)),
            ("scenarios", scenarios),
            ("report", report.to_json()),
        ]);
        println!("{}", combined.render());
    } else {
        for (name, o) in &outcomes {
            println!(
                "model {name}: {} execution(s), complete={}, {}",
                o.executions,
                o.complete,
                o.violation
                    .as_ref()
                    .map_or_else(|| "clean".to_owned(), |v| v.kind.to_string())
            );
        }
        if !report.is_clean() && !args.flag("quiet") {
            print!("{report}");
        }
    }
    if !report.is_clean() {
        return Err(format!("{} concurrency violation(s) found", report.total()).into());
    }
    if !truncated.is_empty() {
        return Err(format!(
            "exploration truncated by --max-executions before completing: {}",
            truncated.join(", ")
        )
        .into());
    }
    Ok(())
}
