//! Engine-agreement checking: every conflict-depth engine must agree.
//!
//! Besides the streamed fold (which [`check_profiles`] covers),
//! `cachedse-core` computes the per-level conflict-depth profiles of §2.4
//! with the scratch-arena depth-first engine, serial or on a worker pool.
//! The whole point of keeping both engines byte-identical to the paper's
//! materialized Algorithms 1–3 is that callers (and the batch service's
//! engine-free cache key) may pick either freely. This checker runs
//! `Engine::DepthFirst` through the public [`prepare_stripped`] entry point
//! both serially and with `threads = 2`, reporting any level where either
//! diverges from the reference its caller built.
//!
//! [`check_profiles`]: crate::check_profiles

use std::num::NonZeroUsize;

use cachedse_core::{prepare_stripped, Engine};
use cachedse_sim::onepass::DepthProfile;
use cachedse_trace::strip::StrippedTrace;

use crate::profiles::diff_profiles;
use crate::report::{Invariant, Location, Violation};

/// Worker count pinned for the parallel schedule during checking. Two
/// workers is the smallest count that exercises the work-queue path; the
/// splitting threshold is thread-count independent, so any pinning is
/// representative.
const CHECK_WORKERS: usize = 2;

/// Recomputes the per-level profiles with the depth-first engine, serial
/// and parallel, and returns one violation per `(schedule, level)`
/// disagreement with `reference` — the
/// [`postlude::materialized_profiles`](cachedse_core::postlude::materialized_profiles)
/// of `stripped` at `max_index_bits`.
#[must_use]
pub fn check_engines(
    stripped: &StrippedTrace,
    max_index_bits: u32,
    reference: &[DepthProfile],
) -> Vec<Violation> {
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
                reference,
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
    use cachedse_core::postlude;
    use cachedse_trace::{generate, paper_running_example};

    fn engines_agree(trace: &cachedse_trace::Trace) -> bool {
        let s = StrippedTrace::from_trace(trace);
        let bits = s.address_bits();
        check_engines(&s, bits, &postlude::materialized_profiles(&s, bits)).is_empty()
    }

    #[test]
    fn paper_example_engines_agree() {
        assert!(engines_agree(&paper_running_example()));
    }

    #[test]
    fn workload_engines_agree() {
        let trace = generate::loop_with_excursions(7, 64, 31, 5, 1 << 11, 4);
        assert!(engines_agree(&trace));
    }
}
