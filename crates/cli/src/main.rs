//! `cachedse` — analytical cache design space exploration from the command
//! line. [`USAGE`] lists every command with its options; a command refuses
//! any option not listed for it in [`COMMANDS`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;

use std::fs::File;
use std::io::{self, BufReader, BufWriter};
use std::process::ExitCode;

use cachedse_core::{verify, DesignSpaceExplorer, Engine, MissBudget};
use cachedse_json::Value;
use cachedse_serve::PatternSpec;
use cachedse_sim::{simulate, CacheConfig, Replacement, WritePolicy};
use cachedse_trace::stats::TraceStats;
use cachedse_trace::{io::read_din, io::write_din, Trace};

use args::Args;

const USAGE: &str = "\
usage: cachedse <command> [options]

  gen        generate a trace, to --out FILE or stdout
               --workload NAME [--side data|instr] [--seed S]
               --pattern loop|stride|random|phases [--len N] [--iterations N]
                 [--base A] [--stride S] [--count N] [--space N] [--phases N]
                 [--ws N] [--seed S]   (at most 2^22 references)
  stats      print N, N', and max misses of a TRACE
  simulate   run a TRACE through one cache configuration
               --depth D [--assoc A] [--policy lru|fifo|random|plru]
               [--write-policy wb|wt|wtna]
  explore    compute the optimal (depth, associativity) set of a TRACE
               (--misses K | --fraction F) [--max-bits B] [--verify]
               [--format text|json]
  sweep      print the paper-style table for K in {5,10,15,20}%
               [--max-bits B]
  rank       order the budget-satisfying configurations by dynamic energy
               [--misses K | --fraction F] [--max-bits B]
  check      statically verify every pipeline invariant on a TRACE
               [--misses K | --fraction F] [--max-bits B]
               [--inject-fault KIND] [--quiet] [--format text|json]
  batch      run JSONL job specs (a file, or stdin) through the
             shared-artifact worker pool
               [--workers N] [--queue N] [--cache N] [--timeout-ms MS]
               [--validate] [--store-dir DIR]
  serve      answer JSONL jobs over TCP until told to shut down
               [--bind HOST:PORT] and the options of batch
  workloads  list the embedded benchmark kernels

Every command that reads a TRACE also takes --line-bits B. `--help` after
any command prints this text.";

type Run = fn(&Args) -> CliResult;

/// Every command, the function that runs it, how many positional
/// arguments it takes (one TRACE, at most one jobs file, or none), and the
/// options it accepts; [`Args::parse`] refuses any other.
#[rustfmt::skip]
const COMMANDS: [(&str, Run, usize, &[&str]); 10] = [
    ("gen", cmd_gen, 0, &["workload", "side", "seed", "pattern", "base", "len", "iterations",
                          "stride", "count", "space", "phases", "ws", "out"]),
    ("stats", cmd_stats, 1, &["line-bits"]),
    ("simulate", cmd_simulate, 1, &["depth", "assoc", "policy", "write-policy", "line-bits"]),
    ("explore", cmd_explore, 1, &["misses", "fraction", "max-bits", "verify", "format",
                                  "line-bits"]),
    ("sweep", cmd_sweep, 1, &["max-bits", "line-bits"]),
    ("rank", cmd_rank, 1, &["misses", "fraction", "max-bits", "line-bits"]),
    ("check", cmd_check, 1, &["misses", "fraction", "max-bits", "inject-fault", "quiet",
                              "format", "line-bits"]),
    ("batch", cmd_batch, 1, &["workers", "queue", "cache", "timeout-ms", "validate",
                              "store-dir"]),
    ("serve", cmd_serve, 0, &["workers", "queue", "cache", "timeout-ms", "validate",
                              "store-dir", "bind"]),
    ("workloads", cmd_workloads, 0, &[]),
];

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

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if name == "help" || argv.iter().any(|arg| arg == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match COMMANDS.iter().find(|(command, ..)| command == name) {
        Some((_, run, positionals, options)) => {
            Args::parse(rest.iter().cloned(), options, *positionals)
                .map_err(Into::into)
                .and_then(|args| run(&args))
        }
        None => Err(format!("unknown command {name:?}\n{USAGE}").into()),
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
        let pattern = match args.opt_str("pattern") {
            Some("loop") => PatternSpec::Loop {
                base: args.opt_or("base", 0)?,
                len: args.required("len")?,
                iterations: args.opt_or("iterations", 100)?,
            },
            Some("stride") => PatternSpec::Stride {
                base: args.opt_or("base", 0)?,
                stride: args.required("stride")?,
                count: args.required("count")?,
                iterations: args.opt_or("iterations", 100)?,
            },
            Some("random") => PatternSpec::Random {
                len: args.opt_or("len", 100_000)?,
                space: args.opt_or("space", 1 << 16)?,
                seed: args.opt_or("seed", 1)?,
            },
            Some("phases") => PatternSpec::Phases {
                phases: args.opt_or("phases", 8)?,
                len: args.opt_or("len", 10_000)?,
                ws: args.opt_or("ws", 256)?,
                seed: args.opt_or("seed", 1)?,
            },
            Some(other) => {
                return Err(format!(
                    "unknown pattern {other:?}; expected loop|stride|random|phases"
                )
                .into())
            }
            None => return Err("gen needs --workload <name> or --pattern <kind>".into()),
        };
        // The job-spec rules: a pattern a job could not run, `gen` refuses.
        pattern
            .generate()
            .map_err(|e| format!("bad --pattern: {e}"))?
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

fn cmd_explore(args: &Args) -> CliResult {
    let trace = load_trace(args)?;
    let budget = match (args.opt::<u64>("misses")?, args.opt::<f64>("fraction")?) {
        (Some(k), None) => MissBudget::Absolute(k),
        (None, Some(f)) => MissBudget::FractionOfMax(f),
        (None, None) => return Err("explore needs --misses K or --fraction F".into()),
        (Some(_), Some(_)) => return Err("--misses and --fraction are mutually exclusive".into()),
    };
    let mut explorer = DesignSpaceExplorer::new(&trace);
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
    // The resolved address matters when the caller asked for port 0.
    eprintln!("listening on {}", listener.local_addr()?);
    let stats = cachedse_serve::serve(listener, config)?;
    eprintln!("{stats}");
    Ok(())
}

fn cmd_workloads(_: &Args) -> CliResult {
    for kernel in cachedse_workloads::all() {
        println!("{}", kernel.name());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{COMMANDS, USAGE};

    #[test]
    fn usage_names_every_accepted_option() {
        for (name, _, _, options) in COMMANDS {
            for option in options {
                let listed = |end| USAGE.contains(&format!("--{option}{end}"));
                assert!(listed(' ') || listed(']'), "{name} --{option}");
            }
        }
    }
}
