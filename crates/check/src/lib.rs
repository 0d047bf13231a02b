//! Static invariant verification for the analytical cache-exploration
//! pipeline.
//!
//! The method of Ghosh & Givargis (DATE 2003) is exact, which makes every
//! intermediate artifact of the pipeline *checkable*: the zero/one sets
//! must partition the unique references per address bit (Table 3), each
//! BCAT level must partition them onto cache rows (Algorithm 1, Figure 3),
//! the MRCT must hold exactly the reuse-window conflict sets (Algorithm 2,
//! Table 4), and the explored frontier must be simulator-exact, minimal,
//! and monotone. This crate verifies all four claim families *after the
//! fact*, from the outside — it recomputes ground truth independently
//! instead of trusting `cachedse-core`'s builders.
//!
//! Checkers consume plain-data **snapshots** ([`BcatSnapshot`],
//! [`MrctSnapshot`]) so that tests and the `cachedse check --inject-fault`
//! CLI can corrupt an artifact and prove the checker actually fires; the
//! [`fault`] module provides the deterministic corruptions.
//!
//! # Examples
//!
//! ```
//! use cachedse_check::{check_pipeline, CheckOptions};
//! use cachedse_core::MissBudget;
//! use cachedse_trace::paper_running_example;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = paper_running_example();
//! let budgets = [MissBudget::Absolute(0), MissBudget::Absolute(2)];
//! let report = check_pipeline(&trace, &budgets, &CheckOptions::default())?;
//! assert!(report.is_clean());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bcat;
pub mod engines;
pub mod fault;
pub mod frontier;
pub mod model;
pub mod mrct;
pub mod report;
pub mod zero_one;

use cachedse_core::{
    postlude, Bcat, DesignSpaceExplorer, ExplorationResult, ExploreError, MissBudget, Mrct,
    ZeroOneSets,
};
use cachedse_trace::strip::StrippedTrace;
use cachedse_trace::Trace;

pub use bcat::{check_bcat, check_bcat_live, BcatNodeSnapshot, BcatSnapshot};
pub use engines::check_engines;
pub use fault::{inject_bcat, inject_mrct, inject_profiles, FaultKind, FaultTarget};
pub use frontier::{check_budget_monotonicity, check_frontier};
pub use model::{model_report, violation_from_model};
pub use mrct::{check_mrct, check_mrct_live, MrctSnapshot};
pub use report::{CheckReport, Invariant, Location, Violation};
pub use zero_one::check_zero_one;

/// Knobs for [`check_pipeline`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckOptions {
    /// Cap on explored index bits (`None` = the trace's address width).
    pub max_index_bits: Option<u32>,
    /// A fault to inject into the BCAT/MRCT snapshot — or the streamed
    /// per-level profiles — before checking, for exercising the detection
    /// path end to end.
    pub inject_fault: Option<FaultKind>,
}

/// Runs the full pipeline on `trace` and verifies every artifact: zero/one
/// sets, BCAT, MRCT, engine agreement (the streamed fold, and depth-first
/// serial and parallel, vs the materialized reference), and the frontier
/// at each of `budgets` (plus budget monotonicity across them).
///
/// The reference — Algorithm 3 over the BCAT and MRCT built here for the
/// snapshots — is computed once and shared by every engine comparison.
/// Injected faults corrupt the snapshots (or the streamed profiles), never
/// these tables, so the reference stays the paper's answer.
///
/// # Errors
///
/// Propagates [`ExploreError`] from the underlying exploration (empty
/// trace, invalid budget fraction, oversized index width). Invariant
/// *violations* are not errors — they are collected in the returned
/// [`CheckReport`].
pub fn check_pipeline(
    trace: &Trace,
    budgets: &[MissBudget],
    options: &CheckOptions,
) -> Result<CheckReport, ExploreError> {
    let stripped = StrippedTrace::from_trace(trace);
    let max_bits = options
        .max_index_bits
        .unwrap_or_else(|| stripped.address_bits());

    let zo = ZeroOneSets::from_stripped(&stripped);
    let bcat = Bcat::build(&zo, max_bits);
    let mrct = Mrct::build(&stripped);
    let reference = postlude::level_profiles(&bcat, &mrct, &stripped, max_bits);

    let mut bcat_snapshot = BcatSnapshot::of(&bcat);
    let mut mrct_snapshot = MrctSnapshot::of(&mrct);
    let mut fused = cachedse_core::streamed::level_profiles(&stripped, max_bits);
    if let Some(kind) = options.inject_fault {
        match kind.target() {
            fault::FaultTarget::Bcat => inject_bcat(&mut bcat_snapshot, kind),
            fault::FaultTarget::Mrct => inject_mrct(&mut mrct_snapshot, kind),
            fault::FaultTarget::Profiles => inject_profiles(&mut fused, kind),
        };
    }
    let mut report = CheckReport {
        zero_one: check_zero_one(&zo, &stripped),
        bcat: check_bcat(&bcat_snapshot, &stripped),
        mrct: check_mrct(&mrct_snapshot, &stripped),
        frontier: Vec::new(),
        engine: check_engines(&stripped, max_bits, &reference),
        profiles: engines::diff_profiles(
            Invariant::ProfileDivergence,
            "candidate",
            &fused,
            &reference,
        ),
        model: Vec::new(),
    };

    let mut explorer = DesignSpaceExplorer::new(trace);
    if let Some(bits) = options.max_index_bits {
        explorer = explorer.max_index_bits(bits);
    }
    let exploration = explorer.prepare()?;
    let mut results: Vec<ExplorationResult> = Vec::with_capacity(budgets.len());
    for &budget in budgets {
        let result = exploration.result(budget)?;
        report.frontier.extend(check_frontier(trace, &result));
        results.push(result);
    }
    let result_refs: Vec<&ExplorationResult> = results.iter().collect();
    report
        .frontier
        .extend(check_budget_monotonicity(&result_refs));

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_trace::{generate, paper_running_example};

    #[test]
    fn paper_example_pipeline_is_clean() {
        let report = check_pipeline(
            &paper_running_example(),
            &[MissBudget::Absolute(0), MissBudget::Absolute(3)],
            &CheckOptions::default(),
        )
        .unwrap();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn workload_pipeline_is_clean() {
        let trace = generate::loop_with_excursions(0, 48, 25, 7, 1 << 10, 3);
        let budgets = [
            MissBudget::FractionOfMax(0.05),
            MissBudget::FractionOfMax(0.10),
            MissBudget::FractionOfMax(0.20),
        ];
        let report = check_pipeline(&trace, &budgets, &CheckOptions::default()).unwrap();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn empty_trace_propagates_explore_error() {
        let err = check_pipeline(
            &Trace::new(),
            &[MissBudget::Absolute(0)],
            &CheckOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, ExploreError::EmptyTrace);
    }

    #[test]
    fn injected_faults_surface_in_the_report() {
        for kind in FaultKind::ALL {
            let options = CheckOptions {
                inject_fault: Some(kind),
                ..CheckOptions::default()
            };
            let report = check_pipeline(
                &paper_running_example(),
                &[MissBudget::Absolute(0)],
                &options,
            )
            .unwrap();
            assert!(!report.is_clean(), "{kind} produced a clean report");
            match kind.target() {
                fault::FaultTarget::Bcat => {
                    assert!(!report.bcat.is_empty(), "{kind}: wrong family");
                }
                fault::FaultTarget::Mrct => {
                    assert!(!report.mrct.is_empty(), "{kind}: wrong family");
                }
                fault::FaultTarget::Profiles => {
                    assert!(!report.profiles.is_empty(), "{kind}: wrong family");
                }
            }
        }
    }
}
