//! Engine-agreement checking: every conflict-depth engine must agree.
//!
//! Every engine claims *byte-identity* with the paper's published
//! pipeline, `postlude::materialized_profiles` (BCAT, MRCT, Algorithm 3),
//! so callers (and the batch service's engine-free
//! cache key) may take either. `diff_profiles` is the one loop every
//! profile-comparing checker shares: it reports every level where a
//! candidate and the reference disagree, as a structured violation
//! instead of a silently wrong frontier. [`check_pipeline`] runs it on
//! the streamed fold under [`Invariant::ProfileDivergence`];
//! [`check_engines`] runs `Engine::DepthFirst` through the public
//! [`prepare_stripped`] entry point under [`Invariant::EngineDivergence`].
//!
//! [`check_pipeline`]: crate::check_pipeline

use cachedse_core::{prepare_stripped, Engine};
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

/// Recomputes the per-level profiles with the depth-first engine and
/// returns one violation per level that disagrees with `reference` — the
/// [`postlude::materialized_profiles`](cachedse_core::postlude::materialized_profiles)
/// of `stripped` at `max_index_bits`.
#[must_use]
pub fn check_engines(
    stripped: &StrippedTrace,
    max_index_bits: u32,
    reference: &[DepthProfile],
) -> Vec<Violation> {
    let label = "depth-first";
    match prepare_stripped(stripped, Some(max_index_bits), Engine::DepthFirst, None) {
        Ok(exploration) => diff_profiles(
            Invariant::EngineDivergence,
            label,
            exploration.profiles(),
            reference,
        ),
        Err(e) => vec![Violation::new(
            Invariant::EngineDivergence,
            Location::Global,
            format!("{label}: refused an input the reference analyzed: {e}"),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_core::{postlude, streamed};
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

    fn diff_against_reference(candidate: &[DepthProfile], s: &StrippedTrace) -> Vec<Violation> {
        let reference = postlude::materialized_profiles(s, s.address_bits());
        diff_profiles(
            Invariant::ProfileDivergence,
            "candidate",
            candidate,
            &reference,
        )
    }

    #[test]
    fn divergence_is_reported_per_level() {
        let s = StrippedTrace::from_trace(&paper_running_example());
        let mut fused = streamed::level_profiles(&s, s.address_bits());
        let first = fused[0].clone();
        let last = fused.len() - 1;
        fused[last] = first;
        let violations = diff_against_reference(&fused, &s);
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
        let violations = diff_against_reference(&[], &s);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].location, Location::Global);
    }
}
