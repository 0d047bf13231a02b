//! Deterministic fault injection for exercising the checkers' detection
//! paths.
//!
//! The checkers are only trustworthy if they demonstrably *fire*: a checker
//! that returns "clean" on a corrupted artifact is worse than none. Each
//! [`FaultKind`] corrupts a snapshot in one precisely-scoped way (always the
//! first eligible site, so runs are reproducible), and the test suites — and
//! the CLI's `cachedse check --inject-fault` — assert that the matching
//! invariant class reports it.

use std::fmt;
use std::str::FromStr;

use cachedse_sim::onepass::DepthProfile;

use crate::bcat::BcatSnapshot;
use crate::mrct::MrctSnapshot;

/// One way of corrupting a pipeline artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Remove one reference from every BCAT node carrying it (breaks level
    /// coverage).
    BcatDropRef,
    /// Add a reference to a sibling BCAT node (breaks disjointness and row
    /// selection).
    BcatDuplicateRef,
    /// Freeze a splittable BCAT node as a leaf (breaks the growth-stop
    /// rule).
    BcatPrematureLeaf,
    /// Swap one reference between two same-level BCAT nodes (breaks row
    /// selection in both nodes while preserving every cardinality — the
    /// signature of a botched stable-partition pass over the permutation
    /// arena).
    BcatPermutationSwap,
    /// Insert a reference into one of its own conflict sets.
    MrctSelfConflict,
    /// Drop the last conflict set of a recurring reference (breaks the
    /// one-set-per-non-first-occurrence count).
    MrctDropSet,
    /// Reverse a multi-element conflict set (breaks the canonical recency
    /// member order, so the set no longer equals its recomputed window).
    MrctUnsortedSet,
    /// Shift one count between adjacent buckets of a streamed per-level
    /// histogram. The histogram total — and with it every trace statistic —
    /// is preserved, so only the streamed-vs-materialized byte-identity
    /// check ([`Invariant::ProfileDivergence`]) can catch it: the signature
    /// of an off-by-one in the fused replay's suffix-sum walk.
    ///
    /// [`Invariant::ProfileDivergence`]: crate::report::Invariant::ProfileDivergence
    StreamedCountSkew,
}

/// Which pipeline artifact a [`FaultKind`] corrupts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// The BCAT snapshot.
    Bcat,
    /// The MRCT snapshot.
    Mrct,
    /// The streamed per-level profiles.
    Profiles,
}

impl FaultKind {
    /// Every fault kind, for exhaustive detection tests and CLI help.
    pub const ALL: [Self; 8] = [
        Self::BcatDropRef,
        Self::BcatDuplicateRef,
        Self::BcatPrematureLeaf,
        Self::BcatPermutationSwap,
        Self::MrctSelfConflict,
        Self::MrctDropSet,
        Self::MrctUnsortedSet,
        Self::StreamedCountSkew,
    ];

    /// Which artifact this fault corrupts.
    #[must_use]
    pub fn target(self) -> FaultTarget {
        match self {
            Self::BcatDropRef
            | Self::BcatDuplicateRef
            | Self::BcatPrematureLeaf
            | Self::BcatPermutationSwap => FaultTarget::Bcat,
            Self::MrctSelfConflict | Self::MrctDropSet | Self::MrctUnsortedSet => FaultTarget::Mrct,
            Self::StreamedCountSkew => FaultTarget::Profiles,
        }
    }

    /// `true` if the fault targets the BCAT.
    #[must_use]
    pub fn targets_bcat(self) -> bool {
        self.target() == FaultTarget::Bcat
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::BcatDropRef => "bcat-drop-ref",
            Self::BcatDuplicateRef => "bcat-duplicate-ref",
            Self::BcatPrematureLeaf => "bcat-premature-leaf",
            Self::BcatPermutationSwap => "bcat-permutation-swap",
            Self::MrctSelfConflict => "mrct-self-conflict",
            Self::MrctDropSet => "mrct-drop-set",
            Self::MrctUnsortedSet => "mrct-unsorted-set",
            Self::StreamedCountSkew => "streamed-count-skew",
        };
        f.write_str(name)
    }
}

impl FromStr for FaultKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultKind::ALL
            .into_iter()
            .find(|k| k.to_string() == s)
            .ok_or_else(|| {
                let names: Vec<String> = FaultKind::ALL.iter().map(ToString::to_string).collect();
                format!(
                    "unknown fault '{s}' (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

/// Applies a BCAT fault to the snapshot. Returns `false` when the snapshot
/// has no eligible site (e.g. a single-reference tree) or the fault targets
/// the MRCT.
pub fn inject_bcat(snapshot: &mut BcatSnapshot, kind: FaultKind) -> bool {
    match kind {
        FaultKind::BcatDropRef => {
            let Some(&victim) = snapshot.nodes.first().and_then(|n| n.refs.first()) else {
                return false;
            };
            for node in &mut snapshot.nodes {
                node.refs.retain(|&r| r != victim);
            }
            true
        }
        FaultKind::BcatDuplicateRef => {
            // Copy the first reference of some level-1 node into its sibling.
            let Some(&victim) = snapshot
                .nodes
                .iter()
                .find(|n| n.level == 1 && !n.refs.is_empty())
                .and_then(|n| n.refs.first())
            else {
                return false;
            };
            let Some(sibling) = snapshot
                .nodes
                .iter_mut()
                .find(|n| n.level == 1 && !n.refs.contains(&victim))
            else {
                return false;
            };
            sibling.refs.push(victim);
            sibling.refs.sort_unstable();
            true
        }
        FaultKind::BcatPrematureLeaf => {
            let levels = snapshot.levels;
            let Some(victim) = snapshot
                .nodes
                .iter()
                .position(|n| !n.is_leaf && n.refs.len() >= 2 && n.level + 1 < levels)
            else {
                return false;
            };
            let (level, row) = (snapshot.nodes[victim].level, snapshot.nodes[victim].row);
            snapshot.nodes[victim].is_leaf = true;
            // Drop the victim's whole subtree so the corruption is
            // structurally consistent (children gone, not orphaned).
            snapshot
                .nodes
                .retain(|n| n.level <= level || (n.row & ((1 << level) - 1)) != row);
            true
        }
        FaultKind::BcatPermutationSwap => {
            // Exchange the first members of the first two non-empty nodes
            // of some level ≥ 1. The two nodes describe different rows, so
            // each transplanted reference's low address bits contradict its
            // new row — while cardinalities, disjointness, and coverage all
            // stay intact. Only the row-selection invariant can catch it.
            for level in 1..snapshot.levels {
                let mut sites = snapshot
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| n.level == level && !n.refs.is_empty())
                    .map(|(i, _)| i);
                let (Some(a), Some(b)) = (sites.next(), sites.next()) else {
                    continue;
                };
                let (ra, rb) = (snapshot.nodes[a].refs[0], snapshot.nodes[b].refs[0]);
                snapshot.nodes[a].refs[0] = rb;
                snapshot.nodes[b].refs[0] = ra;
                // Restore the ascending member order the snapshot promises.
                snapshot.nodes[a].refs.sort_unstable();
                snapshot.nodes[b].refs.sort_unstable();
                return true;
            }
            false
        }
        _ => false,
    }
}

/// Applies an MRCT fault to the snapshot. Returns `false` when the snapshot
/// has no eligible site (e.g. no reference recurs) or the fault targets the
/// BCAT.
pub fn inject_mrct(snapshot: &mut MrctSnapshot, kind: FaultKind) -> bool {
    match kind {
        FaultKind::MrctSelfConflict => {
            for (id, sets) in snapshot.sets.iter_mut().enumerate() {
                if let Some(set) = sets.first_mut() {
                    // Front insertion keeps the other members' recency
                    // order intact, so only the self-conflict is injected.
                    set.insert(0, id as u32);
                    return true;
                }
            }
            false
        }
        FaultKind::MrctDropSet => {
            for sets in &mut snapshot.sets {
                if !sets.is_empty() {
                    sets.pop();
                    return true;
                }
            }
            false
        }
        FaultKind::MrctUnsortedSet => {
            for sets in &mut snapshot.sets {
                for set in sets.iter_mut() {
                    if set.len() >= 2 {
                        set.reverse();
                        return true;
                    }
                }
            }
            false
        }
        _ => false,
    }
}

/// Applies a profile fault to a streamed per-level profile vector. Returns
/// `false` when no profile has a recurrence to skew or the fault targets
/// another artifact.
pub fn inject_profiles(profiles: &mut [DepthProfile], kind: FaultKind) -> bool {
    if kind != FaultKind::StreamedCountSkew {
        return false;
    }
    for (i, profile) in profiles.iter().enumerate() {
        // Move one set from its true conflict depth `d` to `d + 1`: the
        // histogram total is untouched, so the skew survives every
        // statistics gate and only byte-identity can expose it.
        let Some(d) = profile.histogram().iter().position(|&c| c > 0) else {
            continue;
        };
        let mut histogram = profile.histogram().to_vec();
        histogram[d] -= 1;
        if histogram.len() <= d + 1 {
            histogram.resize(d + 2, 0);
        }
        histogram[d + 1] += 1;
        profiles[i] = DepthProfile::from_parts(
            profile.depth(),
            histogram,
            profile.cold(),
            profile.accesses(),
        );
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcat::check_bcat;
    use crate::mrct::check_mrct;
    use cachedse_core::{Bcat, Mrct};
    use cachedse_trace::paper_running_example;
    use cachedse_trace::strip::StrippedTrace;

    #[test]
    fn round_trips_through_names() {
        for kind in FaultKind::ALL {
            assert_eq!(kind.to_string().parse::<FaultKind>().unwrap(), kind);
        }
        assert!("no-such-fault".parse::<FaultKind>().is_err());
    }

    /// The detection contract: every fault kind, injected into the paper's
    /// running example, is caught by the matching checker.
    #[test]
    fn every_fault_is_detected() {
        let stripped = StrippedTrace::from_trace(&paper_running_example());
        for kind in FaultKind::ALL {
            match kind.target() {
                FaultTarget::Bcat => {
                    let bcat = Bcat::from_stripped(&stripped, 4);
                    let mut snap = BcatSnapshot::of(&bcat);
                    assert!(inject_bcat(&mut snap, kind), "{kind} found no site");
                    assert!(
                        !check_bcat(&snap, &stripped).is_empty(),
                        "{kind} went undetected"
                    );
                }
                FaultTarget::Mrct => {
                    let mrct = Mrct::build(&stripped);
                    let mut snap = MrctSnapshot::of(&mrct);
                    assert!(inject_mrct(&mut snap, kind), "{kind} found no site");
                    assert!(
                        !check_mrct(&snap, &stripped).is_empty(),
                        "{kind} went undetected"
                    );
                }
                FaultTarget::Profiles => {
                    let mut fused = cachedse_core::streamed::level_profiles(&stripped, 4);
                    assert!(inject_profiles(&mut fused, kind), "{kind} found no site");
                    let reference = cachedse_core::postlude::materialized_profiles(&stripped, 4);
                    assert!(
                        !crate::engines::diff_profiles(
                            crate::report::Invariant::ProfileDivergence,
                            "candidate",
                            &fused,
                            &reference,
                        )
                        .is_empty(),
                        "{kind} went undetected"
                    );
                }
            }
        }
    }

    /// The permutation swap corrupts nothing but row selection: every
    /// cardinality, the per-level coverage, and the leaf structure survive,
    /// so only the direct `addr & mask == row` check can fire — and it does,
    /// for both transplanted references.
    #[test]
    fn permutation_swap_is_a_pure_row_selection_fault() {
        use crate::report::Invariant;
        let stripped = StrippedTrace::from_trace(&paper_running_example());
        let bcat = Bcat::from_stripped(&stripped, 4);
        let clean = BcatSnapshot::of(&bcat);
        let mut snap = clean.clone();
        assert!(inject_bcat(&mut snap, FaultKind::BcatPermutationSwap));
        for (before, after) in clean.nodes.iter().zip(&snap.nodes) {
            assert_eq!(before.refs.len(), after.refs.len());
        }
        let violations = check_bcat(&snap, &stripped);
        assert!(violations.len() >= 2, "{violations:?}");
        assert!(violations
            .iter()
            .all(|v| v.invariant == Invariant::BcatRowSelection));
    }

    #[test]
    fn wrong_target_is_a_noop() {
        let stripped = StrippedTrace::from_trace(&paper_running_example());
        let mut bcat_snap = BcatSnapshot::of(&Bcat::from_stripped(&stripped, 4));
        let mut mrct_snap = MrctSnapshot::of(&Mrct::build(&stripped));
        let mut fused = cachedse_core::streamed::level_profiles(&stripped, 4);
        assert!(!inject_bcat(&mut bcat_snap, FaultKind::MrctDropSet));
        assert!(!inject_mrct(&mut mrct_snap, FaultKind::BcatDropRef));
        assert!(!inject_bcat(&mut bcat_snap, FaultKind::StreamedCountSkew));
        assert!(!inject_mrct(&mut mrct_snap, FaultKind::StreamedCountSkew));
        assert!(!inject_profiles(&mut fused, FaultKind::BcatDropRef));
    }

    /// The skew preserves the histogram total (and thus every trace
    /// statistic), so nothing but byte-identity can expose it.
    #[test]
    fn count_skew_preserves_histogram_totals() {
        let stripped = StrippedTrace::from_trace(&paper_running_example());
        let clean = cachedse_core::streamed::level_profiles(&stripped, 4);
        let mut skewed = clean.clone();
        assert!(inject_profiles(&mut skewed, FaultKind::StreamedCountSkew));
        assert_ne!(clean, skewed);
        for (c, s) in clean.iter().zip(&skewed) {
            assert_eq!(
                c.histogram().iter().sum::<u64>(),
                s.histogram().iter().sum::<u64>()
            );
        }
    }
}
