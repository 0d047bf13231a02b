//! Verification of analytical results against the trace-driven simulator.
//!
//! The analytical model is exact for LRU caches, so every claim it makes is
//! mechanically checkable: each returned `(D, A)` must meet the budget when
//! the trace is actually simulated, and `(D, A − 1)` must violate it (the
//! result is *minimal*). This module performs that replay — it is the bridge
//! between the paper's Figure 1b output and the Figure 1a ground truth.

use std::error::Error;
use std::fmt;

use cachedse_sim::{simulate, CacheConfig, DesignPoint};
use cachedse_trace::Trace;

use crate::explorer::ExplorationResult;

/// The simulator evidence for one verified design point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PointCheck {
    /// The configuration checked.
    pub point: DesignPoint,
    /// Simulated avoidable misses at the configuration.
    pub misses: u64,
    /// Simulated avoidable misses with one way fewer (`None` for
    /// direct-mapped points).
    pub misses_one_way_less: Option<u64>,
}

/// A discrepancy between the analytical result and simulation.
///
/// Seeing this error means a bug in one of the two implementations — the
/// mathematics guarantees agreement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The returned configuration misses more than the budget allows.
    OverBudget {
        /// The offending configuration.
        point: DesignPoint,
        /// Simulated avoidable misses.
        misses: u64,
        /// The budget it was meant to satisfy.
        budget: u64,
    },
    /// A cheaper configuration (one way fewer) also satisfies the budget,
    /// so the returned associativity is not minimal.
    NotMinimal {
        /// The offending configuration.
        point: DesignPoint,
        /// Simulated avoidable misses at `associativity − 1`.
        misses_below: u64,
        /// The budget.
        budget: u64,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OverBudget {
                point,
                misses,
                budget,
            } => write!(
                f,
                "configuration {point} misses {misses} times, over the budget of {budget}"
            ),
            Self::NotMinimal {
                point,
                misses_below,
                budget,
            } => write!(
                f,
                "configuration {point} is not minimal: one way fewer misses {misses_below} times, within the budget of {budget}"
            ),
        }
    }
}

impl Error for VerifyError {}

/// Replays every design point of `result` (and its one-way-cheaper
/// neighbour) on the LRU simulator.
///
/// # Errors
///
/// [`VerifyError::OverBudget`] or [`VerifyError::NotMinimal`]: the first
/// disagreement [`check_result_exhaustive`] finds, in depth order.
///
/// # Examples
///
/// ```
/// use cachedse_core::{verify, DesignSpaceExplorer, MissBudget};
/// use cachedse_trace::paper_running_example;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = paper_running_example();
/// let result = DesignSpaceExplorer::new(&trace).explore(MissBudget::Absolute(1))?;
/// let checks = verify::check_result(&trace, &result)?;
/// assert_eq!(checks.len(), result.pairs().len());
/// # Ok(())
/// # }
/// ```
pub fn check_result(
    trace: &Trace,
    result: &ExplorationResult,
) -> Result<Vec<PointCheck>, VerifyError> {
    let (checks, errors) = check_result_exhaustive(trace, result);
    match errors.first() {
        Some(&first) => Err(first),
        None => Ok(checks),
    }
}

/// Replays *every* returned point and collects all discrepancies;
/// [`check_result`] reports only the first of them.
///
/// This is the entry point used by the `cachedse-check` static-verification
/// subsystem, which wants a complete violation report rather than a
/// fail-fast error. The returned `PointCheck` evidence covers every point,
/// including the offending ones.
#[must_use]
pub fn check_result_exhaustive(
    trace: &Trace,
    result: &ExplorationResult,
) -> (Vec<PointCheck>, Vec<VerifyError>) {
    let budget = result.budget();
    let mut checks = Vec::with_capacity(result.pairs().len());
    let mut errors = Vec::new();
    for &point in result.pairs() {
        let config = CacheConfig::lru(point.depth, point.associativity)
            .expect("explorer produces power-of-two depths and nonzero ways");
        let misses = simulate(trace, &config).avoidable_misses();
        if misses > budget {
            errors.push(VerifyError::OverBudget {
                point,
                misses,
                budget,
            });
        }
        let misses_one_way_less = if point.associativity > 1 {
            let below = CacheConfig::lru(point.depth, point.associativity - 1)
                .expect("associativity stays nonzero");
            let m = simulate(trace, &below).avoidable_misses();
            if m <= budget {
                errors.push(VerifyError::NotMinimal {
                    point,
                    misses_below: m,
                    budget,
                });
            }
            Some(m)
        } else {
            None
        };
        checks.push(PointCheck {
            point,
            misses,
            misses_one_way_less,
        });
    }
    (checks, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{DesignSpaceExplorer, Engine, MissBudget};
    use cachedse_trace::rng::SplitMix64;
    use cachedse_trace::{generate, paper_running_example};

    #[test]
    fn paper_example_verifies() {
        let trace = paper_running_example();
        for k in 0..=5 {
            let result = DesignSpaceExplorer::new(&trace)
                .explore(MissBudget::Absolute(k))
                .unwrap();
            let checks = check_result(&trace, &result).unwrap();
            assert_eq!(checks.len(), result.pairs().len());
            for check in checks {
                assert!(check.misses <= k);
                if let Some(below) = check.misses_one_way_less {
                    assert!(below > k);
                }
            }
        }
    }

    #[test]
    fn workloads_verify_under_fractional_budgets() {
        for trace in [
            generate::loop_pattern(0x100, 48, 30),
            generate::loop_with_excursions(0, 64, 40, 9, 1 << 11, 2),
            generate::working_set_phases(3, 250, 48, 8),
        ] {
            for fraction in [0.05, 0.10, 0.15, 0.20] {
                let result = DesignSpaceExplorer::new(&trace)
                    .explore(MissBudget::FractionOfMax(fraction))
                    .unwrap();
                check_result(&trace, &result).unwrap();
            }
        }
    }

    #[test]
    fn error_display() {
        let point = DesignPoint {
            depth: 4,
            associativity: 2,
        };
        let over = VerifyError::OverBudget {
            point,
            misses: 9,
            budget: 3,
        };
        assert_eq!(
            over.to_string(),
            "configuration (D=4, A=2) misses 9 times, over the budget of 3"
        );
        let not_min = VerifyError::NotMinimal {
            point,
            misses_below: 2,
            budget: 3,
        };
        assert!(not_min.to_string().contains("not minimal"));
    }

    /// Every exploration of a random trace verifies against the
    /// simulator under both engines.
    /// Deterministic randomized sweep (formerly a proptest property).
    #[test]
    fn random_traces_verify() {
        use cachedse_trace::{Address, Record, Trace};
        let mut rng = SplitMix64::seed_from_u64(0x5E81F);
        for _ in 0..32 {
            let len = rng.gen_range(1usize..200);
            let trace: Trace = (0..len)
                .map(|_| Record::read(Address::new(rng.gen_range(0u32..64))))
                .collect();
            let budget = rng.gen_range(0u64..30);
            for engine in [Engine::Streamed, Engine::DepthFirst] {
                let result = DesignSpaceExplorer::new(&trace)
                    .engine(engine)
                    .explore(MissBudget::Absolute(budget))
                    .unwrap();
                assert!(check_result(&trace, &result).is_ok());
            }
        }
    }
}
