//! The experiment implementations behind the `src/bin/` entry points.
//!
//! Each function regenerates one table or figure of the paper and returns it
//! as printable text, so `reproduce_all` can chain them and the integration
//! tests can smoke-check them on reduced inputs.

use std::fmt::Write as _;

use cachedse_core::{postlude, verify, DesignSpaceExplorer, MissBudget};
use cachedse_sim::explore::ExhaustiveExplorer;
use cachedse_trace::stats::TraceStats;
use cachedse_trace::strip::StrippedTrace;
use cachedse_trace::Trace;

use crate::{linear_fit, stats_row, timed, NamedTrace, BUDGET_FRACTIONS};

/// Cap on explored index bits: depths up to 2^16 rows, past any realistic
/// embedded cache (and past the point where every table column reads 1).
pub const MAX_INDEX_BITS: u32 = 16;

fn explored_bits(trace: &Trace) -> u32 {
    trace.address_bits().min(MAX_INDEX_BITS)
}

/// Tables 5 and 6: per-benchmark trace statistics (`N`, `N'`, max misses).
#[must_use]
pub fn tables_5_6(traces: &[NamedTrace]) -> String {
    let mut out = String::new();
    for (side, title) in [
        ("data", "Table 5: Data trace statistics"),
        ("instr", "Table 6: Instruction trace statistics"),
    ] {
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>10} {:>12}",
            "Benchmark", "Size N", "Unique N'", "Max Misses"
        );
        for nt in traces.iter().filter(|nt| nt.side == side) {
            let stats = TraceStats::of(&nt.trace);
            let _ = writeln!(out, "{}", stats_row(nt.name, &stats));
        }
        let _ = writeln!(out);
    }
    out
}

/// Tables 7–30: per-benchmark optimal cache instances. Each table's rows are
/// cache depths, its columns the K ∈ {5, 10, 15, 20}% budgets, and each cell
/// the minimum associativity — the paper's layout exactly.
#[must_use]
pub fn tables_7_30(traces: &[NamedTrace]) -> String {
    let mut out = String::new();
    let mut table_no = 7;
    for side in ["data", "instr"] {
        for nt in traces.iter().filter(|nt| nt.side == side) {
            let kind = if side == "data" {
                "data"
            } else {
                "instruction"
            };
            let _ = writeln!(
                out,
                "Table {table_no}: Optimal {kind} cache instances for {}.",
                nt.name
            );
            let exploration = DesignSpaceExplorer::new(&nt.trace)
                .max_index_bits(explored_bits(&nt.trace))
                .prepare()
                .expect("kernel traces are non-empty");
            let grid = cachedse_core::BudgetGrid::from_fractions(&exploration, &BUDGET_FRACTIONS)
                .expect("fractions are in range");
            let _ = write!(out, "{grid}");
            let _ = writeln!(out);
            table_no += 1;
        }
    }
    out
}

/// Tables 31 and 32: wall-clock time of the analytical algorithm per trace
/// (strip, the engine `Engine::Auto` picks for the trace, all four
/// budgets).
#[must_use]
pub fn tables_31_32(traces: &[NamedTrace]) -> String {
    let mut out = String::new();
    for (side, title) in [
        ("data", "Table 31: Algorithm run time: data traces"),
        ("instr", "Table 32: Algorithm run time: instruction traces"),
    ] {
        let _ = writeln!(out, "{title}");
        let _ = writeln!(out, "{:<10} {:>12}", "Benchmark", "Time (s)");
        for nt in traces.iter().filter(|nt| nt.side == side) {
            let (_, elapsed) = timed(|| {
                let exploration = DesignSpaceExplorer::new(&nt.trace)
                    .max_index_bits(explored_bits(&nt.trace))
                    .prepare()
                    .expect("kernel traces are non-empty");
                for &f in &BUDGET_FRACTIONS {
                    let _ = exploration.result(MissBudget::FractionOfMax(f));
                }
            });
            let _ = writeln!(out, "{:<10} {:>12.4}", nt.name, elapsed.as_secs_f64());
        }
        let _ = writeln!(out);
    }
    out
}

/// Size-reduced workload variants for the Figure 4 timing study: the
/// as-published tree+table algorithm materializes the full MRCT, whose
/// memory grows with the sum of reuse-window sizes, so the default-size
/// suite (chosen for the statistics and instance tables) is scaled down
/// here. The spread of `N` and `N'` across two decades is what the fit
/// needs, and that is preserved.
#[must_use]
pub fn figure_4_traces() -> Vec<NamedTrace> {
    use cachedse_workloads::{
        adpcm::Adpcm, bcnt::Bcnt, blit::Blit, compress::Compress, crc::Crc, des::Des,
        engine::Engine, fir::Fir, g3fax::G3fax, pocsag::Pocsag, qurt::Qurt, ucbqsort::Ucbqsort,
        Kernel,
    };
    let kernels: Vec<Box<dyn Kernel>> = vec![
        Box::new(Adpcm { samples: 768 }),
        Box::new(Bcnt {
            buffer_len: 512,
            passes: 3,
        }),
        Box::new(Blit {
            row_words: 8,
            rows: 32,
            ops: 12,
        }),
        Box::new(Compress { input_len: 3000 }),
        Box::new(Crc {
            message_len: 1024,
            passes: 2,
        }),
        Box::new(Des { blocks: 64 }),
        Box::new(Engine { ticks: 800 }),
        Box::new(Fir {
            taps: 16,
            samples: 1024,
        }),
        Box::new(G3fax { lines: 96 }),
        Box::new(Pocsag { batches: 48 }),
        Box::new(Qurt { equations: 200 }),
        Box::new(Ucbqsort { elements: 1024 }),
    ];
    kernels
        .iter()
        .flat_map(|k| {
            let run = k.capture();
            [
                NamedTrace {
                    name: run.name,
                    side: "data",
                    trace: run.data,
                },
                NamedTrace {
                    name: run.name,
                    side: "instr",
                    trace: run.instr,
                },
            ]
        })
        .collect()
}

/// Figure 4: execution time of the **as-published** algorithm (strip, then
/// BCAT, MRCT and Algorithm 3 — [`postlude::materialized_profiles`])
/// against `N · N'`, with a least-squares fit — the paper's claim is that
/// the relationship is "on the average linear". The depth-first engine of
/// §2.4 is timed alongside: its cost scales with `N log N` rather than
/// `N · N'`, so its fit against the product is expected to be poor
/// *because it is faster than the published bound*.
#[must_use]
pub fn figure_4(traces: &[NamedTrace]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 4: Execution efficiency (time vs N * N')");
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>14} {:>14} {:>14}",
        "trace", "N*N'", "tree-table s", "depth-first s", "tt s per 1e9"
    );
    let mut xs = Vec::new();
    let mut tree_times = Vec::new();
    let mut dfs_times = Vec::new();
    for nt in traces {
        let stats = TraceStats::of(&nt.trace);
        let product = stats.total as f64 * stats.unique as f64;
        let bits = explored_bits(&nt.trace);
        let (_, tree_elapsed) =
            timed(|| postlude::materialized_profiles(&StrippedTrace::from_trace(&nt.trace), bits));
        let (_, dfs_elapsed) = timed(|| {
            DesignSpaceExplorer::new(&nt.trace)
                .max_index_bits(bits)
                .engine(cachedse_core::Engine::DepthFirst)
                .prepare()
                .expect("kernel traces are non-empty")
        });
        let tree_secs = tree_elapsed.as_secs_f64();
        let _ = writeln!(
            out,
            "{:<16} {:>12.3e} {:>14.4} {:>14.4} {:>14.4}",
            nt.label(),
            product,
            tree_secs,
            dfs_elapsed.as_secs_f64(),
            tree_secs / product * 1e9
        );
        xs.push(product);
        tree_times.push(tree_secs);
        dfs_times.push(dfs_elapsed.as_secs_f64());
    }
    let (slope, intercept, r2) = linear_fit(&xs, &tree_times);
    let _ = writeln!(
        out,
        "tree-table fit:  time = {slope:.3e} * (N*N') + {intercept:.3e}   R^2 = {r2:.3}"
    );
    // Power-law fit: time ~ (N*N')^e. An exponent near 1 is the cleanest
    // statement of the paper's "on the average linear" claim, robust to the
    // per-workload scatter visible in the table above (and in the paper's
    // own Figure 4).
    let log_xs: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let log_ys: Vec<f64> = tree_times.iter().map(|y| y.ln()).collect();
    let (exponent, _, log_r2) = linear_fit(&log_xs, &log_ys);
    let _ = writeln!(
        out,
        "tree-table power law: time ~ (N*N')^{exponent:.2}   (log-log R^2 = {log_r2:.3})"
    );
    let (slope, intercept, r2) = linear_fit(&xs, &dfs_times);
    let _ = writeln!(
        out,
        "depth-first fit: time = {slope:.3e} * (N*N') + {intercept:.3e}   R^2 = {r2:.3}  (expected poor: the combined engine beats the N*N' bound)"
    );
    let points: Vec<(f64, f64)> = xs.iter().copied().zip(tree_times.iter().copied()).collect();
    let _ = writeln!(out, "\ntree-table time vs N*N' (log-log):");
    let _ = write!(out, "{}", crate::plot::scatter_loglog(&points, 60, 14));
    out
}

/// Figures 1–2: the traditional design–simulate–analyze loop, the one-pass
/// simulation refinement, and the proposed analytical flow, run on the same
/// task — same answers, very different costs.
#[must_use]
pub fn flow_comparison(trace: &Trace, fraction: f64) -> String {
    let mut out = String::new();
    let bits = explored_bits(trace);
    let stats = TraceStats::of(trace);
    let budget = stats.budget(fraction);
    let _ = writeln!(
        out,
        "Flow comparison ({} refs, K = {budget} misses = {:.0}% of max)",
        trace.len(),
        fraction * 100.0
    );

    let (exhaustive, t_exhaustive) = timed(|| ExhaustiveExplorer::new(bits).explore(trace, budget));
    let (onepass, t_onepass) =
        timed(|| ExhaustiveExplorer::new(bits).explore_one_pass(trace, budget));
    let (analytical, t_analytical) = timed(|| {
        DesignSpaceExplorer::new(trace)
            .max_index_bits(bits)
            .explore(MissBudget::Absolute(budget))
            .expect("non-empty trace")
    });

    assert_eq!(exhaustive, onepass, "one-pass must match exhaustive");
    assert_eq!(
        analytical.pairs(),
        exhaustive.as_slice(),
        "analytical must match simulation"
    );

    let secs = |d: std::time::Duration| d.as_secs_f64();
    let _ = writeln!(
        out,
        "  Figure 1a  exhaustive simulate-loop : {:>9.4} s",
        secs(t_exhaustive)
    );
    let _ = writeln!(
        out,
        "  [16][17]   one-pass per depth       : {:>9.4} s",
        secs(t_onepass)
    );
    let _ = writeln!(
        out,
        "  Figure 1b  analytical (this paper)  : {:>9.4} s",
        secs(t_analytical)
    );
    let _ = writeln!(
        out,
        "  speedup vs exhaustive: {:.1}x, vs one-pass: {:.1}x",
        secs(t_exhaustive) / secs(t_analytical),
        secs(t_onepass) / secs(t_analytical)
    );
    out
}

/// Replays every `(depth, associativity)` cell of Tables 7–30 (and its
/// one-way-cheaper neighbour) on the LRU cache simulator: the analytical
/// results must be within budget and minimal on every trace and budget.
#[must_use]
pub fn validate_exactness(traces: &[NamedTrace]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Exactness validation: analytical vs simulator");
    let mut cells = 0usize;
    for nt in traces {
        let exploration = DesignSpaceExplorer::new(&nt.trace)
            .max_index_bits(explored_bits(&nt.trace))
            .prepare()
            .expect("kernel traces are non-empty");
        for &f in &BUDGET_FRACTIONS {
            let result = exploration
                .result(MissBudget::FractionOfMax(f))
                .expect("fractions are in range");
            match verify::check_result(&nt.trace, &result) {
                Ok(checks) => {
                    cells += checks.len();
                    let _ = writeln!(
                        out,
                        "  {:<16} K={:>3.0}%  {} configurations verified",
                        nt.label(),
                        f * 100.0,
                        checks.len()
                    );
                }
                Err(e) => {
                    let _ = writeln!(
                        out,
                        "  {:<16} K={:>3.0}%  FAILED: {e}",
                        nt.label(),
                        f * 100.0
                    );
                }
            }
        }
    }
    let _ = writeln!(out, "total verified cells: {cells}");
    out
}

/// Default trace for the flow comparison: the FIR workload's data trace —
/// the paper's motivating DSP scenario.
#[must_use]
pub fn flow_comparison_trace() -> Trace {
    use cachedse_workloads::{fir::Fir, Kernel};
    Fir {
        taps: 24,
        samples: 1024,
    }
    .capture()
    .data
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_workloads::{crc::Crc, Kernel};

    fn small_traces() -> Vec<NamedTrace> {
        let run = Crc {
            message_len: 200,
            passes: 2,
        }
        .capture();
        vec![
            NamedTrace {
                name: "crc",
                side: "data",
                trace: run.data,
            },
            NamedTrace {
                name: "crc",
                side: "instr",
                trace: run.instr,
            },
        ]
    }

    #[test]
    fn tables_5_6_lists_both_sides() {
        let text = tables_5_6(&small_traces());
        assert!(text.contains("Table 5"));
        assert!(text.contains("Table 6"));
        assert_eq!(text.matches("crc").count(), 2);
    }

    #[test]
    fn tables_7_30_has_budget_columns() {
        let text = tables_7_30(&small_traces());
        assert!(text.contains("5%"));
        assert!(text.contains("20%"));
        assert!(text.contains("Optimal data cache instances for crc"));
        assert!(text.contains("Optimal instruction cache instances for crc"));
    }

    #[test]
    fn figure_4_reports_fit() {
        let text = figure_4(&small_traces());
        assert!(text.contains("R^2"));
    }

    #[test]
    fn flow_comparison_agrees_and_reports() {
        let trace = cachedse_trace::generate::loop_with_excursions(0, 48, 40, 7, 1 << 10, 3);
        let text = flow_comparison(&trace, 0.10);
        assert!(text.contains("speedup"));
    }

    #[test]
    fn validation_passes_on_small_traces() {
        let text = validate_exactness(&small_traces());
        assert!(!text.contains("FAILED"));
        assert!(text.contains("total verified cells"));
    }
}
