//! Engine-agreement checking: every conflict-depth engine must agree.
//!
//! `cachedse-core` computes the per-level conflict-depth profiles of §2.4
//! two ways besides the streamed fold (which [`check_profiles`] covers):
//! the tree+table reference (`Bcat` + `Mrct` + postlude sweep) and the
//! scratch-arena depth-first engine, serial or on a worker pool. The whole
//! point of keeping them byte-identical is that callers (and the batch
//! service's engine-free cache key) may pick any of them freely. This
//! checker builds the reference once and runs `Engine::DepthFirst` through
//! the public [`prepare_stripped`] entry point both serially and with
//! `threads = 2`, reporting any level where either diverges.
//!
//! [`check_profiles`]: crate::check_profiles

use std::num::NonZeroUsize;

use cachedse_core::{prepare_stripped, Engine};
use cachedse_trace::strip::StrippedTrace;

use crate::profiles::{diff_profiles, golden_profiles};
use crate::report::{Invariant, Location, Violation};

/// Worker count pinned for the parallel schedule during checking. Two
/// workers is the smallest count that exercises the work-queue path; the
/// splitting threshold is thread-count independent, so any pinning is
/// representative.
const CHECK_WORKERS: usize = 2;

/// Recomputes the per-level profiles with the depth-first engine, serial
/// and parallel, and returns one violation per `(schedule, level)`
/// disagreement with the tree+table reference.
#[must_use]
pub fn check_engines(stripped: &StrippedTrace, max_index_bits: u32) -> Vec<Violation> {
    let golden = golden_profiles(stripped, max_index_bits);
    let schedules = [
        ("depth-first", None),
        ("depth-first, 2 threads", NonZeroUsize::new(CHECK_WORKERS)),
    ];
    let mut violations = Vec::new();
    for (label, threads) in schedules {
        match prepare_stripped(stripped, Some(max_index_bits), Engine::DepthFirst, threads) {
            Ok(exploration) => violations.extend(diff_profiles(
                Invariant::EngineDivergence,
                label,
                exploration.profiles(),
                &golden,
            )),
            Err(e) => violations.push(Violation::new(
                Invariant::EngineDivergence,
                Location::Global,
                format!("{label}: refused an input the reference analyzed: {e}"),
            )),
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_trace::{generate, paper_running_example};

    fn stripped(trace: &cachedse_trace::Trace) -> StrippedTrace {
        StrippedTrace::from_trace(trace)
    }

    #[test]
    fn paper_example_engines_agree() {
        let trace = paper_running_example();
        let s = stripped(&trace);
        assert!(check_engines(&s, s.address_bits()).is_empty());
    }

    #[test]
    fn workload_engines_agree() {
        let trace = generate::loop_with_excursions(7, 64, 31, 5, 1 << 11, 4);
        let s = stripped(&trace);
        assert!(check_engines(&s, s.address_bits()).is_empty());
    }
}
