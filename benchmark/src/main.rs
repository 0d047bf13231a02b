//! `cdse-bench`: the command line of the end-to-end benchmark.
//!
//! ```text
//! cdse-bench run --workload W [--seed S] [--seconds T] [--trace 0|1] [--spans FILE] [--smoke]
//! cdse-bench all [--seed S] [--seconds T] [--smoke] [--out RUNS.jsonl]
//! cdse-bench gen --seed S --out DIR [--smoke]
//! cdse-bench setup --workload W --work DIR
//! cdse-bench pairs PARENT_BIN CHANGE_BIN --out DIR [--seed S] [--seconds T]
//! cdse-bench compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` prints explanatory lines and, last, one JSON result line; it
//! exits 0 whenever it printed a result. `all` runs every workload untraced,
//! each in its own process, and exits non-zero if a run failed or any
//! answer was wrong. `setup` is the fresh process in which `run` times one
//! set-up over the inputs in its work directory; it prints a result line
//! holding `setup_s` alone.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use cachedse_benchmark::compare::{compare, read_runs, record};
use cachedse_benchmark::inputs::{self, DEFAULT_SEED};
use cachedse_benchmark::report::{BenchmarkFile, Report};
use cachedse_benchmark::run::{run, setup_once, Settings, SMOKE_KERNEL};
use cachedse_benchmark::workloads::Workload;
use cachedse_json::Value;

/// Seconds of measured rounds when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Parent/change pairs `pairs` runs: the fewest a gain can be claimed on.
const PAIRS: usize = cachedse_benchmark::compare::MIN_PAIRS_FOR_GAIN;

struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    smoke: bool,
}

impl Args {
    /// Parses `tokens`, accepting only the options in `allowed` and exactly
    /// `positionals` positional arguments.
    fn parse(tokens: &[String], allowed: &[&str], positionals: usize) -> Result<Self, String> {
        let mut args = Self {
            positional: Vec::new(),
            options: Vec::new(),
            smoke: false,
        };
        let mut it = tokens.iter();
        while let Some(token) = it.next() {
            let Some(name) = token.strip_prefix("--") else {
                args.positional.push(token.clone());
                continue;
            };
            if name == "smoke" && allowed.contains(&"smoke") {
                args.smoke = true;
            } else if allowed.contains(&name) {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                args.options.push((name.to_owned(), value.clone()));
            } else {
                return Err(format!("unknown option --{name}"));
            }
        }
        if args.positional.len() != positionals {
            return Err(format!(
                "expected {positionals} positional arguments, got {:?}",
                args.positional
            ));
        }
        Ok(args)
    }

    fn opt(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn seed(&self) -> Result<u64, String> {
        self.opt("seed").map_or(Ok(DEFAULT_SEED), |s| {
            let parsed = match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
                None => s.parse(),
            };
            parsed.map_err(|_| format!("--seed {s} is not a whole number"))
        })
    }

    fn seconds(&self) -> Result<f64, String> {
        self.opt("seconds").map_or(Ok(DEFAULT_SECONDS), |s| {
            s.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| format!("--seconds {s} is not a positive number"))
        })
    }

    fn trace(&self) -> Result<bool, String> {
        match self.opt("trace").unwrap_or("0") {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("--trace must be 0 or 1, got {other}")),
        }
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.opt(name)
            .ok_or_else(|| format!("--{name} is required"))
    }
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let workload = workload(args)?;
    let settings = Settings {
        seed: args.seed()?,
        seconds: args.seconds()?,
        trace: args.trace()?,
        smoke: args.smoke,
        spans: args.opt("spans").map(PathBuf::from),
    };
    let output = run(workload, &settings)?;
    for note in &output.notes {
        println!("{note}");
    }
    println!("{}", output.report.to_json().render());
    Ok(ExitCode::SUCCESS)
}

fn workload(args: &Args) -> Result<Workload, String> {
    let name = args.required("workload")?;
    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))
}

fn cmd_setup(args: &Args) -> Result<ExitCode, String> {
    let report = setup_once(workload(args)?, Path::new(args.required("work")?))?;
    println!("{}", report.to_json().render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating cdse-bench: {e}"))?;
    let (seed, seconds) = (args.seed()?, args.seconds()?);
    let mut ok = true;
    for workload in Workload::ALL {
        let name = workload.name();
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .stderr(Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().map_err(|e| format!("starting {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for note in lines {
            println!("{name:<14} | {note}");
        }
        let report = Value::parse(last)
            .map_err(|e| e.to_string())
            .and_then(|v| Report::from_json(&v));
        let report = match (out.status.success(), report) {
            (true, Ok(report)) => report,
            (_, report) => {
                println!("{name:<14} run failed ({}): {:?}", out.status, report.err());
                ok = false;
                continue;
            }
        };
        for m in &report.metrics {
            println!("{name:<14} {:<44} {:>18.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "{name:<14} correct {} attempted {} failed {}",
            report.correct, report.attempted, report.failed
        );
        ok &= report.correct && report.failed == 0;
        if let Some(path) = args.opt("out") {
            append_line(Path::new(path), &record(name, seed, &report).render())?;
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("writing {}: {e}", path.display()))
}

fn cmd_gen(args: &Args) -> Result<ExitCode, String> {
    let dir = PathBuf::from(args.required("out")?);
    let smoke = [SMOKE_KERNEL.to_owned()];
    let kernels = args.smoke.then_some(&smoke[..]);
    let generated = inputs::generate(args.seed()?, &dir, kernels)?;
    eprintln!(
        "gen: {} traces (seed {}) in {}; {} simulator replays, {} disagreed",
        generated.traces.len(),
        generated.seed,
        dir.display(),
        generated.oracle_checks,
        generated.oracle_failures
    );
    Ok(ExitCode::SUCCESS)
}

/// Runs `all` on both binaries [`PAIRS`] times, alternating which runs
/// first, appending to `<out>/parent.jsonl` and `<out>/change.jsonl`.
/// Stops at the first `all` that fails, so that no run goes missing
/// unnoticed and shifts the pairing.
fn cmd_pairs(args: &Args) -> Result<ExitCode, String> {
    let (parent, change) = (&args.positional[0], &args.positional[1]);
    let dir = PathBuf::from(args.required("out")?);
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let (seed, seconds) = (args.seed()?.to_string(), args.seconds()?.to_string());
    for i in 0..PAIRS {
        let mut sides = [("parent", parent), ("change", change)];
        if i % 2 == 1 {
            sides.reverse();
        }
        for (side, bin) in sides {
            let runs = dir.join(format!("{side}.jsonl"));
            let status = Command::new(bin)
                .args(["all", "--seed", &seed, "--seconds", &seconds, "--out"])
                .arg(&runs)
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("starting {bin}: {e}"))?;
            eprintln!("pair {}/{PAIRS}: {side} {status}", i + 1);
            if !status.success() {
                return Err(format!("pair {}: {side} `all` failed ({status})", i + 1));
            }
        }
    }
    println!(
        "judge with: cdse-bench compare {} {}",
        dir.join("parent.jsonl").display(),
        dir.join("change.jsonl").display()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let (parent, change) = (&args.positional[0], &args.positional[1]);
    let read = |p: &str| fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let benchmark =
        BenchmarkFile::parse(&read(args.opt("benchmark").unwrap_or("BENCHMARK.json"))?)?;
    let parent = read_runs(&read(parent)?)?;
    let change = read_runs(&read(change)?)?;
    let (table, regressed) = compare(&benchmark, &parent, &change)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn dispatch(tokens: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = tokens
        .split_first()
        .ok_or("usage: cdse-bench run|all|gen|setup|pairs|compare …")?;
    match command.as_str() {
        "run" => cmd_run(&Args::parse(
            rest,
            &["workload", "seed", "seconds", "trace", "spans", "smoke"],
            0,
        )?),
        "all" => cmd_all(&Args::parse(rest, &["seed", "seconds", "smoke", "out"], 0)?),
        "gen" => cmd_gen(&Args::parse(rest, &["seed", "out", "smoke"], 0)?),
        "setup" => cmd_setup(&Args::parse(rest, &["workload", "work"], 0)?),
        "pairs" => cmd_pairs(&Args::parse(rest, &["out", "seed", "seconds"], 2)?),
        "compare" => cmd_compare(&Args::parse(rest, &["benchmark"], 2)?),
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&tokens).unwrap_or_else(|e| {
        eprintln!("cdse-bench: {e}");
        ExitCode::from(2)
    })
}
