//! Streamed-vs-materialized postlude checking.
//!
//! The default `streamed` engine fuses the MRCT replay with the postlude
//! (DESIGN.md §16): conflict sets are folded into the per-level histograms
//! the moment the recency array produces them, and the CSR arena is never
//! built. Its soundness claim is *byte-identity* with the paper's published
//! pipeline, `postlude::materialized_profiles` (BCAT, MRCT, Algorithm 3).
//! [`check_profiles`] diffs a candidate against that reference and reports
//! every level where they disagree, so a fused-path regression — or a
//! cache entry serving skewed bytes — surfaces as a structured
//! [`Invariant::ProfileDivergence`] violation instead of a silently wrong
//! frontier.
//!
//! The level-by-level diff here is the one loop every profile-comparing
//! checker shares; [`check_engines`](crate::check_engines) runs it against
//! the same reference under its own invariant.

use cachedse_core::postlude;
use cachedse_sim::onepass::DepthProfile;
use cachedse_trace::strip::StrippedTrace;

use crate::report::{Invariant, Location, Violation};

/// Diffs `candidate` against `golden` level by level: one `invariant`
/// violation per differing level, or a single global one when the level
/// counts disagree. `label` names the candidate in each message.
pub(crate) fn diff_profiles(
    invariant: Invariant,
    label: &str,
    candidate: &[DepthProfile],
    golden: &[DepthProfile],
) -> Vec<Violation> {
    if candidate.len() != golden.len() {
        return vec![Violation::new(
            invariant,
            Location::Global,
            format!(
                "{label}: produced {} level profile(s), reference has {}",
                candidate.len(),
                golden.len()
            ),
        )];
    }
    candidate
        .iter()
        .zip(golden)
        .enumerate()
        .filter(|(_, (got, want))| got != want)
        .map(|(level, (got, want))| {
            let level = u32::try_from(level).expect("level fits u32");
            Violation::new(
                invariant,
                Location::Level(level),
                format!("{label}: profile {got:?} differs from reference {want:?}"),
            )
        })
        .collect()
}

/// Diffs `candidate` — the streamed fold's output, or the profiles a
/// cache entry serves — against a fresh
/// [`postlude::materialized_profiles`] run, level by level.
#[must_use]
pub fn check_profiles(
    candidate: &[DepthProfile],
    stripped: &StrippedTrace,
    max_index_bits: u32,
) -> Vec<Violation> {
    let reference = postlude::materialized_profiles(stripped, max_index_bits);
    diff_profiles(
        Invariant::ProfileDivergence,
        "candidate",
        candidate,
        &reference,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_core::streamed;
    use cachedse_trace::{generate, paper_running_example};

    #[test]
    fn paper_example_paths_agree() {
        let s = StrippedTrace::from_trace(&paper_running_example());
        let bits = s.address_bits();
        assert!(check_profiles(&streamed::level_profiles(&s, bits), &s, bits).is_empty());
    }

    #[test]
    fn workload_paths_agree() {
        let trace = generate::loop_with_excursions(3, 56, 27, 9, 1 << 11, 6);
        let s = StrippedTrace::from_trace(&trace);
        let bits = s.address_bits();
        assert!(check_profiles(&streamed::level_profiles(&s, bits), &s, bits).is_empty());
    }

    #[test]
    fn parallel_paths_agree() {
        let trace = generate::loop_with_excursions(3, 56, 27, 9, 1 << 11, 6);
        let s = StrippedTrace::from_trace(&trace);
        let bits = s.address_bits();
        for threads in [1usize, 2, 4, 8] {
            let threads = std::num::NonZeroUsize::new(threads).expect("nonzero");
            let fused = streamed::level_profiles_parallel(&s, bits, threads);
            assert!(
                check_profiles(&fused, &s, bits).is_empty(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn divergence_is_reported_per_level() {
        let s = StrippedTrace::from_trace(&paper_running_example());
        let bits = s.address_bits();
        let mut fused = streamed::level_profiles(&s, bits);
        let first = fused[0].clone();
        let last = fused.len() - 1;
        fused[last] = first;
        let violations = check_profiles(&fused, &s, bits);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, Invariant::ProfileDivergence);
        assert_eq!(
            violations[0].location,
            Location::Level(u32::try_from(last).unwrap())
        );
    }

    #[test]
    fn length_mismatch_is_a_single_global_violation() {
        let s = StrippedTrace::from_trace(&paper_running_example());
        let violations = check_profiles(&[], &s, s.address_bits());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].location, Location::Global);
    }
}
