//! Benchmark inputs: the 24 kernel traces as Dinero files, their golden
//! frontiers, and the properties that say how much work each one is.
//!
//! [`generate`] captures every kernel with `Kernel::capture_with_seed`,
//! writes the data and instruction traces as Dinero text, and records for
//! each file its golden frontier at every budget of [`BUDGETS`], computed
//! with the depth-first engine (not the default one, so the two engines
//! check each other). The 10% frontier is also replayed on the trace-driven
//! simulator for every point of associativity ≤ 16 and at most 2^16 lines;
//! a disagreement is an oracle failure, which makes every run on these
//! inputs incorrect. The program under test only ever sees the files.

use std::fs;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};

use cachedse_core::{DesignSpaceExplorer, Engine, ExplorationResult, MissBudget};
use cachedse_json::Value;
use cachedse_sim::stack::StackDistanceProfile;
use cachedse_sim::{simulate, CacheConfig};
use cachedse_trace::io::{read_din, write_din};
use cachedse_trace::Trace;

/// The default seed: the kernels' own seed, which gives the paper-table
/// traces.
pub const DEFAULT_SEED: u64 = 0xCEC5_2002;

/// The miss budgets, as fractions of each trace's maximum miss count: the
/// paper's 5/10/15/20% columns plus the points between them.
pub const BUDGETS: [f64; 8] = [0.01, 0.025, 0.05, 0.075, 0.10, 0.125, 0.15, 0.20];

/// Index in [`BUDGETS`] of the 10% budget `cachedse explore` runs at.
pub const EXPLORE_BUDGET: usize = 4;

/// Largest associativity replayed on the simulator.
const ORACLE_MAX_ASSOC: u32 = 16;

/// Largest cache, in lines, replayed on the simulator. The simulator
/// allocates every line up front, so the 2^21-row caches of the
/// instruction traces would take most of `gen`'s time for points whose
/// rows each hold at most a few references.
const ORACLE_MAX_LINES: u64 = 1 << 16;

/// Name of the golden-answer file inside an inputs directory.
const GOLDEN_FILE: &str = "golden.json";

/// One budget's golden answer: the resolved miss budget `K` and the
/// `(depth, associativity, misses)` of every frontier point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frontier {
    /// The absolute budget `K`.
    pub budget: u64,
    /// `(depth, associativity, predicted misses)` by increasing depth.
    pub points: Vec<(u32, u32, u64)>,
}

impl Frontier {
    fn of(result: &ExplorationResult) -> Self {
        Self {
            budget: result.budget(),
            points: result
                .pairs()
                .iter()
                .map(|p| {
                    (
                        p.depth,
                        p.associativity,
                        result.misses_of(p.depth).unwrap_or(u64::MAX),
                    )
                })
                .collect(),
        }
    }

    /// Whether `result` is exactly this frontier.
    #[must_use]
    pub fn matches(&self, result: &ExplorationResult) -> bool {
        *self == Self::of(result)
    }
}

/// One trace file with its properties and golden answers.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceInput {
    /// `<kernel>.<data|instr>`.
    pub name: String,
    /// The Dinero file.
    pub path: PathBuf,
    /// Trace size `N`.
    pub refs: u64,
    /// Unique references `N'`.
    pub unique: u64,
    /// Address width in bits.
    pub address_bits: u32,
    /// Size of the Dinero text.
    pub bytes: u64,
    /// Conflict elements `Σ d·h[d]` of the reuse-distance histogram: the
    /// total size of every conflict set, the streamed fold's work.
    pub conflicts: u64,
    /// FNV-1a digest of the trace, as the store keys it.
    pub digest: String,
    /// Golden frontier per entry of [`BUDGETS`].
    pub frontiers: Vec<Frontier>,
}

impl TraceInput {
    /// Whether this is an instruction trace.
    #[must_use]
    pub fn is_instr(&self) -> bool {
        self.name.ends_with(".instr")
    }
}

/// A generated input set.
#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    /// The seed the kernels were captured with.
    pub seed: u64,
    /// Data and instruction traces, kernel by kernel.
    pub traces: Vec<TraceInput>,
    /// Frontier points whose simulated miss count disagreed with the
    /// golden prediction.
    pub oracle_failures: u64,
    /// Simulator replays made.
    pub oracle_checks: u64,
}

/// Captures the kernels (all twelve, or those named in `kernels`) with
/// `seed`, writes their traces and `golden.json` into `dir`, and returns
/// the input set.
///
/// # Errors
///
/// An unknown kernel name, a failed write, or a failed golden exploration.
pub fn generate(seed: u64, dir: &Path, kernels: Option<&[String]>) -> Result<Inputs, String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let chosen: Vec<_> = cachedse_workloads::all()
        .into_iter()
        .filter(|k| kernels.is_none_or(|names| names.iter().any(|n| n == k.name())))
        .collect();
    if let Some(names) = kernels {
        if chosen.len() != names.len() {
            return Err(format!("unknown kernel among {names:?}"));
        }
    }
    let mut inputs = Inputs {
        seed,
        traces: Vec::new(),
        oracle_failures: 0,
        oracle_checks: 0,
    };
    for kernel in chosen {
        let run = kernel.capture_with_seed(seed);
        for (side, trace) in [("data", &run.data), ("instr", &run.instr)] {
            let name = format!("{}.{side}", run.name);
            let path = dir.join(format!("{name}.din"));
            let input = describe(&name, &path, trace, &mut inputs)?;
            inputs.traces.push(input);
        }
    }
    let golden = dir.join(GOLDEN_FILE);
    fs::write(&golden, to_json(&inputs).render())
        .map_err(|e| format!("writing {}: {e}", golden.display()))?;
    Ok(inputs)
}

fn describe(
    name: &str,
    path: &Path,
    trace: &Trace,
    inputs: &mut Inputs,
) -> Result<TraceInput, String> {
    let file = fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    write_din(&mut out, trace).map_err(|e| format!("writing {}: {e}", path.display()))?;
    std::io::Write::flush(&mut out).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let bytes = fs::metadata(path)
        .map_err(|e| format!("stat {}: {e}", path.display()))?
        .len();

    let exploration = DesignSpaceExplorer::new(trace)
        .engine(Engine::DepthFirst)
        .prepare()
        .map_err(|e| format!("{name}: golden exploration: {e}"))?;
    let frontiers = BUDGETS
        .iter()
        .map(|&f| exploration.result(MissBudget::FractionOfMax(f)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{name}: golden frontier: {e}"))?;
    for point in frontiers[EXPLORE_BUDGET].pairs() {
        if point.associativity > ORACLE_MAX_ASSOC || point.size_lines() > ORACLE_MAX_LINES {
            continue;
        }
        let config = CacheConfig::lru(point.depth, point.associativity)
            .map_err(|e| format!("{name}: oracle config: {e}"))?;
        inputs.oracle_checks += 1;
        let simulated = simulate(trace, &config).avoidable_misses();
        if Some(simulated) != frontiers[EXPLORE_BUDGET].misses_of(point.depth) {
            inputs.oracle_failures += 1;
        }
    }

    let profile = StackDistanceProfile::of_trace(trace);
    let conflicts = profile
        .histogram()
        .iter()
        .enumerate()
        .map(|(d, &h)| d as u64 * h)
        .sum();
    let stats = exploration.stats();
    Ok(TraceInput {
        name: name.to_owned(),
        path: path.to_owned(),
        refs: stats.total as u64,
        unique: stats.unique as u64,
        address_bits: trace.address_bits(),
        bytes,
        conflicts,
        digest: cachedse_trace::digest::TraceDigest::of_trace(trace).to_string(),
        frontiers: frontiers.iter().map(Frontier::of).collect(),
    })
}

/// Loads the input set `generate` wrote into `dir`.
///
/// # Errors
///
/// A missing or malformed `golden.json`.
pub fn load(dir: &Path) -> Result<Inputs, String> {
    let path = dir.join(GOLDEN_FILE);
    let text = fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let value = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    from_json(&value).ok_or_else(|| format!("{}: malformed golden file", path.display()))
}

fn to_json(inputs: &Inputs) -> Value {
    let traces = inputs.traces.iter().map(|t| {
        let frontiers = t.frontiers.iter().map(|f| {
            let points = f
                .points
                .iter()
                .map(|&(d, a, m)| Value::array([Value::from(d), Value::from(a), Value::from(m)]));
            Value::object([
                ("budget", Value::from(f.budget)),
                ("points", Value::array(points)),
            ])
        });
        Value::object([
            ("name", Value::from(t.name.as_str())),
            ("path", Value::from(t.path.to_string_lossy().as_ref())),
            ("refs", Value::from(t.refs)),
            ("unique", Value::from(t.unique)),
            ("address_bits", Value::from(t.address_bits)),
            ("bytes", Value::from(t.bytes)),
            ("conflicts", Value::from(t.conflicts)),
            ("digest", Value::from(t.digest.as_str())),
            ("frontiers", Value::array(frontiers)),
        ])
    });
    Value::object([
        ("seed", Value::from(inputs.seed)),
        ("oracle_failures", Value::from(inputs.oracle_failures)),
        ("oracle_checks", Value::from(inputs.oracle_checks)),
        ("traces", Value::array(traces)),
    ])
}

fn from_json(value: &Value) -> Option<Inputs> {
    let u64_of = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64);
    let traces = value
        .get("traces")?
        .as_array()?
        .iter()
        .map(|t| {
            let frontiers = t
                .get("frontiers")?
                .as_array()?
                .iter()
                .map(|f| {
                    let points = f
                        .get("points")?
                        .as_array()?
                        .iter()
                        .map(|p| match p.as_array()? {
                            [d, a, m] => Some((
                                u32::try_from(d.as_u64()?).ok()?,
                                u32::try_from(a.as_u64()?).ok()?,
                                m.as_u64()?,
                            )),
                            _ => None,
                        })
                        .collect::<Option<Vec<_>>>()?;
                    Some(Frontier {
                        budget: u64_of(f, "budget")?,
                        points,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            Some(TraceInput {
                name: t.get("name")?.as_str()?.to_owned(),
                path: PathBuf::from(t.get("path")?.as_str()?),
                refs: u64_of(t, "refs")?,
                unique: u64_of(t, "unique")?,
                address_bits: u32::try_from(u64_of(t, "address_bits")?).ok()?,
                bytes: u64_of(t, "bytes")?,
                conflicts: u64_of(t, "conflicts")?,
                digest: t.get("digest")?.as_str()?.to_owned(),
                frontiers,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Inputs {
        seed: u64_of(value, "seed")?,
        traces,
        oracle_failures: u64_of(value, "oracle_failures")?,
        oracle_checks: u64_of(value, "oracle_checks")?,
    })
}

/// Reads a Dinero file: the `read_din` call `cachedse explore` makes.
///
/// # Errors
///
/// The open or parse error, as text.
pub fn read_trace(path: &Path) -> Result<Trace, String> {
    let file = fs::File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    read_din(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_inputs_round_trip_through_the_golden_file() {
        let dir = std::env::temp_dir().join(format!("cdse-bench-inputs-{}", std::process::id()));
        let kernels = vec!["qurt".to_owned()];
        let inputs = generate(7, &dir, Some(&kernels)).unwrap();
        assert_eq!(inputs.traces.len(), 2);
        assert_eq!(inputs.oracle_failures, 0);
        assert!(inputs.oracle_checks > 0);
        let data = &inputs.traces[0];
        assert_eq!(data.name, "qurt.data");
        assert_eq!(data.frontiers.len(), BUDGETS.len());
        assert!(data.refs > data.unique && data.conflicts > 0);
        assert_eq!(load(&dir).unwrap(), inputs);

        // The default engine answers exactly the depth-first golden.
        let trace = read_trace(&data.path).unwrap();
        let result = DesignSpaceExplorer::new(&trace)
            .explore(MissBudget::FractionOfMax(BUDGETS[EXPLORE_BUDGET]))
            .unwrap();
        assert!(data.frontiers[EXPLORE_BUDGET].matches(&result));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_kernels_are_rejected() {
        let dir = std::env::temp_dir().join(format!("cdse-bench-bad-{}", std::process::id()));
        let err = generate(1, &dir, Some(&["doom".to_owned()])).unwrap_err();
        assert!(err.contains("unknown kernel"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
