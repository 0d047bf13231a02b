//! The postlude phase (Algorithm 3 of the paper): combining the BCAT and the
//! MRCT into exact per-`(depth, associativity)` miss counts.
//!
//! For a cache of depth `2^l`, the rows are the BCAT nodes at level `l`. An
//! occurrence of reference `r` with conflict set `C` (from the MRCT), mapped
//! to a row with resident set `S`, misses at associativity `A` **iff**
//! `|S ∩ C| ≥ A`: the members of `S ∩ C` are exactly the distinct same-row
//! references touched since `r`'s previous occurrence, i.e. `r`'s LRU stack
//! depth within the row.
//!
//! Instead of the paper's per-associativity counters with early exit, this
//! implementation accumulates a *histogram* of `|S ∩ C|` per level: the miss
//! count at associativity `A` is the histogram's tail sum from `A`, which
//! yields every associativity at once (and is how the one-pass simulator in
//! `cachedse-sim` reports its results, making the two directly comparable —
//! they produce equal [`DepthProfile`]s).

use cachedse_sim::onepass::DepthProfile;
use cachedse_trace::strip::{RefId, StrippedTrace};

use crate::bcat::Bcat;
use crate::mrct::Mrct;

/// The paper's Algorithms 1–3 as published: builds the BCAT
/// ([`Bcat::from_stripped`]) and the MRCT ([`Mrct::build`]), then runs
/// [`level_profiles`] over them.
///
/// This is the **reference every engine is compared against**. The
/// streamed fold and the depth-first traversal must return exactly these
/// profiles, byte for byte: `tests/postlude_differential.rs`,
/// `tests/engine_differential.rs`, serve's `--validate` and
/// `cachedse check` all diff against this function. It is not an engine:
/// the MRCT holds every conflict set, up to hundreds of millions of
/// members on the conflict-heavy kernels.
///
/// # Examples
///
/// ```
/// use cachedse_core::{postlude, streamed};
/// use cachedse_trace::{paper_running_example, strip::StrippedTrace};
///
/// let stripped = StrippedTrace::from_trace(&paper_running_example());
/// let reference = postlude::materialized_profiles(&stripped, 4);
/// assert_eq!(streamed::level_profiles(&stripped, 4), reference);
/// // Section 2.3: a depth-2 cache needs associativity 3 for zero misses.
/// assert_eq!(reference[1].min_associativity(0), 3);
/// ```
#[must_use]
pub fn materialized_profiles(stripped: &StrippedTrace, max_index_bits: u32) -> Vec<DepthProfile> {
    let bcat = Bcat::from_stripped(stripped, max_index_bits);
    let mrct = Mrct::build(stripped);
    level_profiles(&bcat, &mrct, stripped, max_index_bits)
}

/// Computes the exact miss profile of every depth `1, 2, …, 2^max_index_bits`
/// from the prelude data structures.
///
/// Levels beyond the materialized BCAT (all rows hold at most one reference,
/// or the addresses have no more significant bits) contribute no avoidable
/// misses and come out as all-`d = 0` profiles.
///
/// # Examples
///
/// ```
/// use cachedse_core::{postlude, Bcat, Mrct, ZeroOneSets};
/// use cachedse_trace::{paper_running_example, strip::StrippedTrace};
///
/// let stripped = StrippedTrace::from_trace(&paper_running_example());
/// let bcat = Bcat::from_stripped(&stripped, 4);
/// let mrct = Mrct::build(&stripped);
/// let profiles = postlude::level_profiles(&bcat, &mrct, &stripped, 4);
///
/// // Section 2.3: a depth-2 cache needs associativity 3 for zero misses.
/// assert_eq!(profiles[1].min_associativity(0), 3);
/// ```
#[must_use]
pub fn level_profiles(
    bcat: &Bcat,
    mrct: &Mrct,
    stripped: &StrippedTrace,
    max_index_bits: u32,
) -> Vec<DepthProfile> {
    // Per-level row map: `rows[id] = addr & mask`. A materialized BCAT node
    // at level `l` holds *every* reference whose low `l` address bits equal
    // its row (frozen shallower leaves own rows no deeper node revisits),
    // so `other ∈ S` is exactly `rows[other] == s.row` — one array load per
    // conflict-set member, no set representation at all.
    let addrs = address_table(stripped);
    let mut rows: Vec<u32> = vec![0; addrs.len()];

    let hist = (0..=max_index_bits)
        .map(|level| {
            let mut histogram: Vec<u64> = Vec::new();
            // Levels beyond the materialized tree (or with only singleton
            // rows left) skip the row-map fill along with the sweep.
            if bcat.nodes_at(level).any(|n| n.refs().len() >= 2) {
                let mask = ((1u64 << level) - 1) as u32;
                for (row, &addr) in rows.iter_mut().zip(&addrs) {
                    *row = addr & mask;
                }
                for node in bcat.nodes_at(level) {
                    let s = node.refs_slice();
                    if s.len() < 2 {
                        // A lone reference never conflicts; its occurrences
                        // all land in the d = 0 bucket `finalize` fills.
                        continue;
                    }
                    let here = node.row();
                    for &id in s {
                        // Each reference's sets are contiguous ranges of
                        // the MRCT's flat arena: this walk streams one
                        // contiguous `u32` buffer per reference, one
                        // `rows` load per member. |S ∩ C| is
                        // order-insensitive, so the sets' recency member
                        // order costs nothing here.
                        let sets = mrct.conflict_sets(RefId::new(id));
                        if sets.is_empty() {
                            continue;
                        }
                        for conflict in sets {
                            let d = conflict
                                .iter()
                                .filter(|&&other| rows[other as usize] == here)
                                .count();
                            if d > 0 {
                                if histogram.len() <= d {
                                    histogram.resize(d + 1, 0);
                                }
                                histogram[d] += 1;
                            }
                        }
                    }
                }
            }
            histogram
        })
        .collect();
    finalize(hist, stripped)
}

/// Raw per-reference addresses, indexable by `RefId`: the one address
/// table the BCAT build, this postlude and both fast engines read.
pub(crate) fn address_table(stripped: &StrippedTrace) -> Vec<u32> {
    stripped
        .unique_addresses()
        .iter()
        .map(|a| a.raw())
        .collect()
}

/// Turns raw per-level counts `hist[l][d]` — sets with exactly `d > 0`
/// same-row members at level `l` — into [`DepthProfile`]s. Every
/// non-first occurrence falls in exactly one row per level, and those not
/// counted had zero same-row conflicts, so `d = 0` is "everything not
/// counted". Every engine ends here, so byte-identity between them reduces
/// to their raw counts matching.
pub(crate) fn finalize(hist: Vec<Vec<u64>>, stripped: &StrippedTrace) -> Vec<DepthProfile> {
    let total = stripped.total_len() as u64;
    let unique = stripped.unique_len() as u64;
    let non_cold = total - unique;
    hist.into_iter()
        .enumerate()
        .map(|(level, mut histogram)| {
            let tail: u64 = histogram.iter().sum();
            if histogram.is_empty() {
                histogram.push(non_cold - tail);
            } else {
                histogram[0] = non_cold - tail;
            }
            DepthProfile::from_parts(1 << level, histogram, unique, total)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_sim::onepass::profile_depths;
    use cachedse_trace::rng::SplitMix64;
    use cachedse_trace::{generate, paper_running_example, Address, Record, Trace};

    fn analytic_profiles(trace: &Trace, max_bits: u32) -> Vec<DepthProfile> {
        materialized_profiles(&StrippedTrace::from_trace(trace), max_bits)
    }

    #[test]
    fn paper_example_zero_miss_associativities() {
        let profiles = analytic_profiles(&paper_running_example(), 4);
        let zero_miss: Vec<(u32, u32)> = profiles
            .iter()
            .map(|p| (p.depth(), p.min_associativity(0)))
            .collect();
        // Depth 1 needs 5 ways (deepest reuse spans 4 conflicts); depth 2
        // needs 3 (Section 2.3); depths 4 and 8 need 2; depth 16 is fully
        // disambiguated.
        assert_eq!(zero_miss, vec![(1, 5), (2, 3), (4, 2), (8, 2), (16, 1)]);
    }

    #[test]
    fn paper_example_miss_counts_at_a1() {
        let profiles = analytic_profiles(&paper_running_example(), 4);
        // Worked in Section 2.3: at depth 4, row {1,4} (paper ids) sees two
        // misses from reference 1 and one from 4; row {2,5} adds two more
        // (2's and none of 5's... counted via the MRCT): direct mapped depth
        // 4 misses 2+1+1+... — just pin the exact values as regression
        // anchors, verified against the simulator below.
        let d4 = &profiles[2];
        assert_eq!(d4.misses_at(1), 4);
        assert_eq!(d4.misses_at(2), 0);
    }

    #[test]
    fn matches_one_pass_simulation_on_paper_example() {
        let trace = paper_running_example();
        assert_eq!(analytic_profiles(&trace, 4), profile_depths(&trace, 4));
    }

    #[test]
    fn matches_one_pass_simulation_on_workloads() {
        for trace in [
            generate::loop_pattern(0x40, 24, 20),
            generate::strided(0, 4, 64, 6),
            generate::uniform_random(800, 128, 11),
            generate::working_set_phases(4, 150, 24, 2),
            generate::loop_with_excursions(0, 48, 30, 11, 1 << 10, 5),
        ] {
            let bits = trace.address_bits();
            assert_eq!(
                analytic_profiles(&trace, bits),
                profile_depths(&trace, bits)
            );
        }
    }

    #[test]
    fn empty_level_beyond_addresses() {
        let trace: Trace = [1u32, 2, 1, 2]
            .into_iter()
            .map(|a| Record::read(Address::new(a)))
            .collect();
        // Addresses use 2 bits; ask for depths up to 2^5.
        let profiles = analytic_profiles(&trace, 5);
        assert_eq!(profiles.len(), 6);
        for p in &profiles[2..] {
            assert_eq!(p.misses_at(1), 0, "depth {}", p.depth());
        }
    }

    /// The analytical postlude equals one-pass simulation on arbitrary
    /// traces — the soundness core of the whole reproduction.
    /// Deterministic randomized sweep (formerly a proptest property).
    #[test]
    fn matches_one_pass_simulation() {
        let mut rng = SplitMix64::seed_from_u64(0x90571);
        for _ in 0..64 {
            let len = rng.gen_range(1usize..250);
            let trace: Trace = (0..len)
                .map(|_| Record::read(Address::new(rng.gen_range(0u32..96))))
                .collect();
            let max_bits = rng.gen_range(0u32..8);
            assert_eq!(
                analytic_profiles(&trace, max_bits),
                profile_depths(&trace, max_bits)
            );
        }
    }
}
