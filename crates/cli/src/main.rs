//! `cachedse` — analytical cache design space exploration from the command
//! line.
//!
//! ```text
//! cachedse gen --workload crc --out crc.din [--side data|instr]
//! cachedse gen --pattern loop --len 64 --iterations 100 --out loop.din
//! cachedse stats trace.din
//! cachedse simulate trace.din --depth 64 --assoc 2 [--policy lru] [--line-bits 0]
//! cachedse explore trace.din (--misses K | --fraction F) [--max-bits B]
//!                            [--threads N] [--verify] [--format json]
//! cachedse sweep trace.din [--max-bits B]        # the paper's K-grid table
//! cachedse check trace.din [--misses K | --fraction F] [--max-bits B]
//!                          [--inject-fault <kind>] [--quiet] [--format json]
//! cachedse batch [jobs.jsonl] [--workers N] [--queue N] [--cache N]
//!                [--threads N] [--timeout-ms MS] [--validate]
//!                [--store-dir DIR]               # JSONL jobs in, results out
//! cachedse serve [--bind HOST:PORT] [--workers N] [--queue N] [--cache N]
//!                [--threads N] [--timeout-ms MS] [--validate]
//!                [--store-dir DIR]               # persistent artifact store
//!                [--join HOST:PORT[,HOST:PORT…]] # enter a shard ring
//!                [--advertise HOST:PORT]         # address peers dial back
//! cachedse workloads                             # list the kernels
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;

use std::fs::File;
use std::io::{self, BufReader, BufWriter};
use std::process::ExitCode;

use cachedse_core::{verify, DesignSpaceExplorer, Engine, MissBudget};
use cachedse_json::Value;
use cachedse_sim::{simulate, CacheConfig, Replacement, WritePolicy};
use cachedse_trace::stats::TraceStats;
use cachedse_trace::{generate, io::read_din, io::write_din, Trace};

use args::Args;

const USAGE: &str = "\
usage: cachedse <command> [options]

commands:
  gen        generate a trace (--workload <name> | --pattern <kind>) --out <file>
  stats      print N, N', and max misses of a trace
  simulate   run a trace through one cache configuration
  explore    compute the optimal (depth, associativity) set analytically
  sweep      print the paper-style table for K in {5,10,15,20}%
  rank       order the budget-satisfying configurations by dynamic energy
  check      statically verify every pipeline invariant on a trace
  batch      run JSONL job specs through the shared-artifact worker pool
  serve      answer JSONL jobs over TCP until told to shut down
  workloads  list the embedded benchmark kernels

run `cachedse <command> --help` for details.";

fn main() -> ExitCode {
    // A downstream consumer closing the pipe (`cachedse explore ... | head`)
    // is normal Unix usage, not a crash: the std print macros panic on
    // EPIPE, so intercept that one panic and exit quietly.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        let broken_pipe = message.is_some_and(|s| s.contains("Broken pipe"));
        if broken_pipe {
            std::process::exit(0);
        }
        default_hook(info);
    }));

    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cachedse: {e}");
            return ExitCode::FAILURE;
        }
    };
    // `Args` ignores unknown options, and a silently ignored `--engine`
    // would mislead anyone timing one engine against the other.
    if args.opt_str("engine").is_some() {
        eprintln!(
            "cachedse: --engine is retired: the engine is now chosen per trace \
             (`explore --format json` reports which one ran)"
        );
        return ExitCode::FAILURE;
    }
    let result = match command.as_str() {
        "gen" => cmd_gen(&args),
        "stats" => cmd_stats(&args),
        "simulate" => cmd_simulate(&args),
        "explore" => cmd_explore(&args),
        "sweep" => cmd_sweep(&args),
        "rank" => cmd_rank(&args),
        "check" => cmd_check(&args),
        "batch" => cmd_batch(&args),
        "serve" => cmd_serve(&args),
        "workloads" => cmd_workloads(),
        "--help" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cachedse: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn load_trace(args: &Args) -> Result<Trace, Box<dyn std::error::Error>> {
    let path = args.positional(0, "trace-file")?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut trace = read_din(file).map_err(|e| format!("{path}: {e}"))?;
    let line_bits: u32 = args.opt_or("line-bits", 0)?;
    if line_bits > 0 {
        trace = trace.block_aligned(line_bits);
    }
    Ok(trace)
}

fn cmd_gen(args: &Args) -> CliResult {
    let trace = if let Some(name) = args.opt_str("workload") {
        let kernel = cachedse_workloads::by_name(name)
            .ok_or_else(|| format!("unknown workload {name:?}; see `cachedse workloads`"))?;
        let run = match args.opt::<u64>("seed")? {
            Some(seed) => kernel.capture_with_seed(seed),
            None => kernel.capture(),
        };
        match args.opt_str("side").unwrap_or("data") {
            "data" => run.data,
            "instr" => run.instr,
            other => return Err(format!("--side must be data or instr, got {other:?}").into()),
        }
    } else {
        match args.opt_str("pattern") {
            Some("loop") => generate::loop_pattern(
                args.opt_or("base", 0)?,
                args.required("len")?,
                args.opt_or("iterations", 100)?,
            ),
            Some("stride") => generate::strided(
                args.opt_or("base", 0)?,
                args.required("stride")?,
                args.required("count")?,
                args.opt_or("iterations", 100)?,
            ),
            Some("random") => generate::uniform_random(
                args.opt_or("len", 100_000)?,
                args.opt_or("space", 1 << 16)?,
                args.opt_or("seed", 1)?,
            ),
            Some("phases") => generate::working_set_phases(
                args.opt_or("phases", 8)?,
                args.opt_or("len", 10_000)?,
                args.opt_or("ws", 256)?,
                args.opt_or("seed", 1)?,
            ),
            Some(other) => {
                return Err(format!(
                    "unknown pattern {other:?}; expected loop|stride|random|phases"
                )
                .into())
            }
            None => return Err("gen needs --workload <name> or --pattern <kind>".into()),
        }
    };
    match args.opt_str("out") {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            write_din(BufWriter::new(file), &trace)?;
            eprintln!("wrote {} references to {path}", trace.len());
        }
        None => write_din(io::stdout().lock(), &trace)?,
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> CliResult {
    let trace = load_trace(args)?;
    let stats = TraceStats::of(&trace);
    println!("references (N):       {}", stats.total);
    println!("unique (N'):          {}", stats.unique);
    println!("max avoidable misses: {}", stats.max_misses);
    println!("address bits:         {}", trace.address_bits());
    Ok(())
}

fn cmd_simulate(args: &Args) -> CliResult {
    let trace = load_trace(args)?;
    let replacement = match args.opt_str("policy").unwrap_or("lru") {
        "lru" => Replacement::Lru,
        "fifo" => Replacement::Fifo,
        "random" => Replacement::Random,
        "plru" => Replacement::TreePlru,
        other => return Err(format!("unknown policy {other:?}").into()),
    };
    let write_policy = match args.opt_str("write-policy").unwrap_or("wb") {
        "wb" => WritePolicy::WriteBack,
        "wt" => WritePolicy::WriteThrough,
        "wtna" => WritePolicy::WriteThroughNoAllocate,
        other => return Err(format!("unknown write policy {other:?}").into()),
    };
    let config = CacheConfig::builder()
        .depth(args.required("depth")?)
        .associativity(args.opt_or("assoc", 1)?)
        .replacement(replacement)
        .write_policy(write_policy)
        .build()?;
    let stats = simulate(&trace, &config);
    println!("config:    {config}");
    println!("accesses:  {}", stats.accesses);
    println!("hits:      {}", stats.hits);
    println!(
        "misses:    {} (cold {}, avoidable {})",
        stats.misses,
        stats.cold_misses,
        stats.avoidable_misses()
    );
    println!("miss rate: {:.4}%", stats.miss_rate() * 100.0);
    println!(
        "evictions: {}  writebacks: {}  memory writes: {}",
        stats.evictions, stats.writebacks, stats.mem_writes
    );
    Ok(())
}

/// `--threads N` worker pin: N ≥ 2 runs the engine picked for the trace
/// on N workers; absent or 1 runs it serially.
fn threads_of(args: &Args) -> Result<Option<std::num::NonZeroUsize>, Box<dyn std::error::Error>> {
    match args.opt::<usize>("threads")? {
        None => Ok(None),
        Some(0) => Err("--threads must be at least 1".into()),
        Some(n) => Ok(std::num::NonZeroUsize::new(n)),
    }
}

fn cmd_explore(args: &Args) -> CliResult {
    let trace = load_trace(args)?;
    let budget = match (args.opt::<u64>("misses")?, args.opt::<f64>("fraction")?) {
        (Some(k), None) => MissBudget::Absolute(k),
        (None, Some(f)) => MissBudget::FractionOfMax(f),
        (None, None) => return Err("explore needs --misses K or --fraction F".into()),
        (Some(_), Some(_)) => return Err("--misses and --fraction are mutually exclusive".into()),
    };
    let mut explorer = DesignSpaceExplorer::new(&trace);
    if let Some(threads) = threads_of(args)? {
        explorer = explorer.threads(threads);
    }
    if let Some(bits) = args.opt::<u32>("max-bits")? {
        explorer = explorer.max_index_bits(bits);
    }
    let exploration = explorer.prepare()?;
    let result = exploration.result(budget)?;
    if args.flag("verify") {
        let checks = verify::check_result(&trace, &result)?;
        if !format_is_json(args)? {
            println!(
                "verified {} configurations against the LRU simulator",
                checks.len()
            );
        }
    }
    if format_is_json(args)? {
        println!("{}", explore_json(&result, exploration.engine()).render());
        return Ok(());
    }
    println!("trace: {}", result.stats());
    println!("budget K = {} avoidable misses", result.budget());
    print!("{}", result.table());
    if let Some(best) = result.smallest() {
        println!("smallest capacity: {best} = {} lines", best.size_lines());
    }
    Ok(())
}

fn format_is_json(args: &Args) -> Result<bool, Box<dyn std::error::Error>> {
    match args.opt_str("format") {
        None | Some("text") => Ok(false),
        Some("json") => Ok(true),
        Some(other) => Err(format!("unknown format {other:?}; expected text|json").into()),
    }
}

/// Renders an exploration result, and the engine that computed it, as one
/// JSON object (the `--format json` output of `explore`; the batch
/// service's result lines embed the same frontier shape).
fn explore_json(result: &cachedse_core::ExplorationResult, engine: Engine) -> Value {
    let stats = result.stats();
    let frontier = Value::array(result.pairs().iter().map(|p| {
        Value::object([
            ("depth", Value::from(p.depth)),
            ("assoc", Value::from(p.associativity)),
            ("lines", Value::from(p.size_lines())),
            (
                "misses",
                Value::from(result.misses_of(p.depth).unwrap_or(0)),
            ),
        ])
    }));
    let smallest = result.smallest().map_or(Value::Null, |best| {
        Value::object([
            ("depth", Value::from(best.depth)),
            ("assoc", Value::from(best.associativity)),
            ("lines", Value::from(best.size_lines())),
        ])
    });
    Value::object([
        (
            "trace",
            Value::object([
                ("refs", Value::from(stats.total)),
                ("unique", Value::from(stats.unique)),
                ("max_misses", Value::from(stats.max_misses)),
            ]),
        ),
        ("engine", Value::from(engine.to_string())),
        ("budget", Value::from(result.budget())),
        ("frontier", frontier),
        ("smallest", smallest),
    ])
}

fn cmd_sweep(args: &Args) -> CliResult {
    use cachedse_core::BudgetGrid;
    let trace = load_trace(args)?;
    let mut explorer = DesignSpaceExplorer::new(&trace);
    if let Some(bits) = args.opt::<u32>("max-bits")? {
        explorer = explorer.max_index_bits(bits);
    }
    let exploration = explorer.prepare()?;
    let grid = BudgetGrid::paper_budgets(&exploration)?;
    print!("{grid}");
    Ok(())
}

fn cmd_rank(args: &Args) -> CliResult {
    use cachedse_cost::{select, CostModel};
    let trace = load_trace(args)?;
    let budget = match (args.opt::<u64>("misses")?, args.opt::<f64>("fraction")?) {
        (Some(k), None) => MissBudget::Absolute(k),
        (None, Some(f)) => MissBudget::FractionOfMax(f),
        (None, None) => MissBudget::FractionOfMax(0.10),
        (Some(_), Some(_)) => return Err("--misses and --fraction are mutually exclusive".into()),
    };
    let mut explorer = DesignSpaceExplorer::new(&trace);
    if let Some(bits) = args.opt::<u32>("max-bits")? {
        explorer = explorer.max_index_bits(bits);
    }
    let exploration = explorer.prepare()?;
    let model = CostModel::default_180nm();
    let line_bits: u32 = args.opt_or("line-bits", 0)?;
    let ranked = select::rank_within_budget(&exploration, budget, line_bits, &model)?;
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "depth", "ways", "misses", "energy nJ", "cycles", "area um2", "ns"
    );
    for p in &ranked {
        println!(
            "{:>8} {:>6} {:>12} {:>12.1} {:>12} {:>12.0} {:>8.2}",
            p.point.depth,
            p.point.associativity,
            p.avoidable_misses,
            p.report.dynamic_nj,
            p.report.cycles,
            p.report.area_um2,
            p.report.access_ns
        );
    }
    Ok(())
}

fn cmd_check(args: &Args) -> CliResult {
    use cachedse_check::{check_pipeline, CheckOptions};
    // Refused by name even when a trace follows: running the artifact
    // check instead would let a stale script pass without exploring any
    // schedule.
    if args.flag("model") {
        return Err("check --model is retired: run the model scenarios with \
                    RUSTFLAGS=\"--cfg cachedse_model\" cargo test -p cachedse \
                    --test model_serve --test model_dfs --test model_store \
                    --test model_streamed"
            .into());
    }
    let trace = load_trace(args)?;
    let budgets = match (args.opt::<u64>("misses")?, args.opt::<f64>("fraction")?) {
        (Some(k), None) => vec![MissBudget::Absolute(k)],
        (None, Some(f)) => vec![MissBudget::FractionOfMax(f)],
        // Default: the paper's K grid (Section 4), which also exercises
        // budget monotonicity across four frontiers.
        (None, None) => [0.05, 0.10, 0.15, 0.20]
            .iter()
            .map(|&f| MissBudget::FractionOfMax(f))
            .collect(),
        (Some(_), Some(_)) => return Err("--misses and --fraction are mutually exclusive".into()),
    };
    let options = CheckOptions {
        max_index_bits: args.opt::<u32>("max-bits")?,
        inject_fault: args.opt_str("inject-fault").map(str::parse).transpose()?,
    };
    if let Some(kind) = options.inject_fault {
        eprintln!("injecting fault: {kind}");
    }
    let report = check_pipeline(&trace, &budgets, &options)?;
    if format_is_json(args)? {
        println!("{}", report.to_json().render());
        return if report.is_clean() {
            Ok(())
        } else {
            Err(format!("{} invariant violation(s) found", report.total()).into())
        };
    }
    if report.is_clean() {
        if !args.flag("quiet") {
            println!(
                "ok: zero/one sets, BCAT, MRCT, and {} frontier(s) verified \
                 ({} references, {} unique)",
                budgets.len(),
                trace.len(),
                cachedse_trace::strip::StrippedTrace::from_trace(&trace).unique_len()
            );
        }
        Ok(())
    } else {
        if !args.flag("quiet") {
            print!("{report}");
        }
        Err(format!("{} invariant violation(s) found", report.total()).into())
    }
}

fn service_config_of(
    args: &Args,
) -> Result<cachedse_serve::ServiceConfig, Box<dyn std::error::Error>> {
    let default_workers = std::thread::available_parallelism().map_or(2, std::num::NonZero::get);
    // `--store-dir DIR`: spill artifacts to a content-addressed disk store
    // so analyses survive restarts (a corrupt or truncated file is
    // quarantined and rebuilt, never served).
    let store: Option<std::sync::Arc<dyn cachedse_store::ArtifactStore>> =
        match args.opt_str("store-dir") {
            Some(dir) => Some(std::sync::Arc::new(
                cachedse_store::DiskStore::open(dir)
                    .map_err(|e| format!("cannot open store {dir}: {e}"))?,
            )),
            None => None,
        };
    Ok(cachedse_serve::ServiceConfig {
        workers: args.opt_or("workers", default_workers)?,
        queue_depth: args.opt_or("queue", 64)?,
        cache_capacity: args.opt_or("cache", 16)?,
        default_timeout_ms: args.opt::<u64>("timeout-ms")?,
        validate: args.flag("validate"),
        threads: threads_of(args)?,
        store,
    })
}

fn cmd_batch(args: &Args) -> CliResult {
    let config = service_config_of(args)?;
    let stdout = io::stdout().lock();
    let output = BufWriter::new(stdout);
    // Unlocked: workers report store load failures on stderr while this
    // thread waits for their jobs, so holding the lock here deadlocks.
    let status = io::stderr();
    let summary = match args.positional(0, "jobs-file") {
        Ok(path) if path != "-" => {
            let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            cachedse_serve::run_batch(config, BufReader::new(file), output, status)?
        }
        _ => cachedse_serve::run_batch(config, io::stdin().lock(), output, status)?,
    };
    if summary.all_ok() {
        Ok(())
    } else {
        Err(format!("{} of {} job(s) failed", summary.failed, summary.jobs).into())
    }
}

fn cmd_serve(args: &Args) -> CliResult {
    let config = service_config_of(args)?;
    let bind = args.opt_str("bind").unwrap_or("127.0.0.1:7333");
    let listener =
        std::net::TcpListener::bind(bind).map_err(|e| format!("cannot bind {bind}: {e}"))?;
    let local = listener.local_addr()?;
    // The resolved address matters when the caller asked for port 0.
    eprintln!("listening on {local}");
    // `--join` and/or `--advertise` turn the node into a ring member:
    // `--join` names existing members (comma-separated), `--advertise`
    // the address peers dial back (defaults to the bound address —
    // override it when binding a wildcard interface).
    let join: Vec<String> = args
        .opt_str("join")
        .into_iter()
        .flat_map(|list| list.split(','))
        .map(str::trim)
        .filter(|addr| !addr.is_empty())
        .map(str::to_owned)
        .collect();
    let advertise = args.opt_str("advertise").map(str::to_owned);
    let shard = (!join.is_empty() || advertise.is_some()).then(|| cachedse_serve::ShardOptions {
        advertise: advertise.unwrap_or_else(|| local.to_string()),
        join,
    });
    if let Some(shard) = &shard {
        eprintln!("shard member {} joining {:?}", shard.advertise, shard.join);
    }
    let stats = cachedse_serve::serve_with(listener, config, shard)?;
    eprintln!("{stats}");
    Ok(())
}

fn cmd_workloads() -> CliResult {
    for kernel in cachedse_workloads::all() {
        println!("{}", kernel.name());
    }
    Ok(())
}
