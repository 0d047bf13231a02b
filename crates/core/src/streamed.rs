//! Streamed MRCT→postlude fusion: per-depth miss profiles straight off the
//! recency-array replay, with no conflict-set materialization.
//!
//! [`Mrct::build`](crate::Mrct::build) exists to feed
//! [`postlude::level_profiles`](crate::postlude::level_profiles): the CSR
//! arena stores every conflict set only so the postlude can later count
//! `|S ∩ C|` per level. But `|S ∩ C|` is order-insensitive and decomposes
//! per member — reference `x` in `r`'s conflict set shares `r`'s row at
//! level `l` **iff** the low `l` address bits agree, i.e. iff
//! `trailing_zeros(addr_x ^ addr_r) ≥ l`. So each set can be folded into
//! the per-level histograms the moment the replay produces it, and never
//! stored: one `trailing_zeros` bucketing pass over the members, then a
//! suffix-sum walk down the levels.
//!
//! Memory drops from `O(output)` (the arena holds hundreds of millions of
//! members on conflict-heavy kernels) to `O(unique refs + levels)`; the
//! Fenwick sizing pass of `Mrct::build` disappears entirely (nothing needs
//! pre-reserved ranges), and each member is touched **once** instead of
//! once per active level. The materialized pair stays intact as the
//! differential oracle; byte-identity of the two paths is enforced by
//! `tests/postlude_differential.rs` and the `cachedse-check`
//! `profile-divergence` invariant.
//!
//! Why recency order is irrelevant: the postlude only ever computes the
//! *cardinality* `d = |S ∩ C|` of each set against each row — a sum of
//! per-member indicators — so the order in which the replay emits members
//! (and the order in which sets are produced) cannot change any histogram.
//!
//! Unlike `Mrct::build`'s emission pass, the fold keeps **no sorted index
//! of dead positions**: emission copies whole live spans with `memcpy`, so
//! it pays to know where the tombstones are, but the fold touches every
//! member individually anyway — a single well-predicted `x != ABSENT` test
//! per member (tombstones are bounded to `live/256 + 8` of the array by the
//! compaction trigger, so the branch is taken ≲0.4% of the time) replaces
//! both the binary search and the `O(dead)` ordered insert per recurrence.
//! Tombstoning becomes `O(1)` flat, which matters on adversarial traces
//! whose recurrences cluster between compactions (see `benches/streamed`).
//! Compaction itself is not: see `Recency::should_compact` for its cost.

use cachedse_sim::onepass::DepthProfile;
use cachedse_trace::strip::{RefId, StrippedTrace};

use crate::postlude::{address_table, finalize};

/// Tombstone marker for dead recency-array slots (and the "not on the
/// list" marker for `live_pos`). Any real identifier is `< N' < u32::MAX`.
const ABSENT: u32 = u32::MAX;

/// The tombstone-compacted recency array the fold replays: live references
/// in last-access order, dead entries tombstoned in place (`O(1)`
/// move-to-back), the whole array rewritten once tombstones pass a small
/// fraction of the live entries. `Mrct::build`'s emission pass runs the
/// same discipline inline against its own sorted dead-position index.
///
/// `seq` holds the recency list oldest to newest with dead slots marked
/// [`ABSENT`]; `live_pos[r]` is the index of `r`'s live entry (or
/// [`ABSENT`]); `live`/`dead` count the two entry kinds, driving the
/// compaction trigger.
#[derive(Debug)]
struct Recency {
    /// The recency array, oldest live entry first, tombstones in place.
    seq: Vec<u32>,
    /// Per-reference index into `seq`, [`ABSENT`] when never touched.
    live_pos: Vec<u32>,
    /// Number of live entries in `seq`.
    live: usize,
    /// Number of tombstoned entries in `seq`.
    dead: usize,
}

impl Recency {
    /// An empty replay state over `n_unique` references; `seq` is sized
    /// for the smaller of the unique count and the sequence length, the
    /// same pre-reservation `Mrct::build` uses.
    fn new(n_unique: usize, sequence_len: usize) -> Self {
        Self {
            seq: Vec::with_capacity(n_unique.min(sequence_len) + 1),
            live_pos: vec![ABSENT; n_unique],
            live: 0,
            dead: 0,
        }
    }

    /// `true` once tombstones exceed `live/256 + 8`, the same trigger as
    /// `Mrct::build`. It keeps the folded suffixes dense, but it is not
    /// `O(1)` amortized: each recurrence adds one tombstone, so the
    /// trigger fires every `live/256 + 9` recurrences, and each
    /// [`compact`](Self::compact) moves about `live` entries. That is
    /// about `min(256, live/8)` moves per recurrence. On an instruction
    /// trace with ~300 unique references it is ~30 moves per recurrence,
    /// as much as the fold's own ~13 members.
    #[inline]
    fn should_compact(&self) -> bool {
        self.dead > self.live / 256 + 8
    }

    /// Rewrites `seq` to live entries only and refreshes `live_pos`.
    /// Compaction is semantically transparent: it changes neither the set
    /// of live references nor their relative recency order, which is all
    /// the fold reads.
    fn compact(&mut self) {
        let mut w = 0;
        for j in 0..self.seq.len() {
            let x = self.seq[j];
            if x != ABSENT {
                self.live_pos[x as usize] = w as u32;
                self.seq[w] = x;
                w += 1;
            }
        }
        debug_assert_eq!(
            w, self.live,
            "compaction must retain exactly the live entries"
        );
        self.seq.truncate(w);
        self.dead = 0;
    }
}

/// Computes the exact miss profile of every depth `1, 2, …, 2^max_index_bits`
/// in one fused replay pass — byte-identical to
/// [`postlude::materialized_profiles`](crate::postlude::materialized_profiles),
/// without materializing the BCAT or the MRCT.
///
/// # Examples
///
/// ```
/// use cachedse_core::{postlude, streamed};
/// use cachedse_trace::{paper_running_example, strip::StrippedTrace};
///
/// let stripped = StrippedTrace::from_trace(&paper_running_example());
/// let fused = streamed::level_profiles(&stripped, 4);
/// assert_eq!(fused, postlude::materialized_profiles(&stripped, 4));
/// ```
#[must_use]
pub fn level_profiles(stripped: &StrippedTrace, max_index_bits: u32) -> Vec<DepthProfile> {
    let n_unique = stripped.unique_len();
    let sequence = stripped.id_sequence();
    debug_assert!(
        n_unique < ABSENT as usize,
        "id space leaves room for the tombstone marker"
    );

    let addrs = address_table(stripped);
    let max_level = max_index_bits as usize;
    let mut hist: Vec<Vec<u64>> = vec![Vec::new(); max_level + 1];
    let mut bucket: Vec<u64> = vec![0; max_level + 1];
    let mut replay = Recency::new(n_unique, sequence.len());
    fold_chunk(
        &mut replay,
        sequence,
        &addrs,
        max_level,
        &mut hist,
        &mut bucket,
    );
    finalize(hist, stripped)
}

/// Folds one contiguous run of the trace into `hist`, advancing `replay`
/// through it. `hist[l][d]` counts the conflict sets with exactly `d`
/// same-row members at level `l` (only `d > 0` is recorded, mirroring the
/// materialized postlude); `bucket[b]` holds, for the set currently being
/// folded, the members whose shared-row depth — clamped to `max_level` —
/// is exactly `b`, and the level walk drains it back to all-zeros before
/// the next set starts.
fn fold_chunk(
    replay: &mut Recency,
    chunk: &[RefId],
    addrs: &[u32],
    max_level: usize,
    hist: &mut [Vec<u64>],
    bucket: &mut [u64],
) {
    for &id in chunk {
        let i = id.index();
        let p = replay.live_pos[i];
        if p == ABSENT {
            replay.live += 1;
        } else {
            // The conflict set is the live suffix after p. Bucket every
            // member by its clamped shared-row depth against the owner:
            // distinct unique addresses make the xor nonzero, and the
            // `min` also absorbs the (unreachable) `trailing_zeros == 32`.
            // Tombstones are skipped inline — see the module docs for why
            // no dead-position index is kept.
            let owner = addrs[i];
            let mut d: u64 = 0;
            for &x in &replay.seq[p as usize + 1..] {
                if x != ABSENT {
                    let b = ((addrs[x as usize] ^ owner).trailing_zeros() as usize).min(max_level);
                    bucket[b] += 1;
                    d += 1;
                }
            }
            // Suffix-sum walk: at level l the set contributes `d_l` =
            // #{members with shared depth ≥ l}; `d_0 = |C|` and each step
            // retires bucket[l]. Every member's clamped depth is ≤
            // max_level, so `d` hits zero no later than one past it — and
            // `d == 0` means every remaining bucket is already zero, which
            // is what lets `take` leave the array clean for the next set.
            let mut l = 0;
            while d > 0 {
                let du = d as usize;
                let h = &mut hist[l];
                if h.len() <= du {
                    h.resize(du + 1, 0);
                }
                h[du] += 1;
                d -= std::mem::take(&mut bucket[l]);
                l += 1;
            }
            replay.seq[p as usize] = ABSENT;
            replay.dead += 1;
        }
        replay.live_pos[i] = u32::try_from(replay.seq.len()).expect("recency position fits u32");
        replay.seq.push(id.raw());
        // Compact once tombstones could fragment the folded suffixes (the
        // trigger's cost is on `should_compact`).
        if replay.should_compact() {
            replay.compact();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postlude;
    use cachedse_sim::onepass::profile_depths;
    use cachedse_trace::rng::SplitMix64;
    use cachedse_trace::{generate, paper_running_example, Address, Record, Trace};

    fn materialized(trace: &Trace, max_bits: u32) -> Vec<DepthProfile> {
        postlude::materialized_profiles(&StrippedTrace::from_trace(trace), max_bits)
    }

    fn fused(trace: &Trace, max_bits: u32) -> Vec<DepthProfile> {
        level_profiles(&StrippedTrace::from_trace(trace), max_bits)
    }

    #[test]
    fn paper_example_matches_materialized_and_simulation() {
        let trace = paper_running_example();
        let profiles = fused(&trace, 4);
        assert_eq!(profiles, materialized(&trace, 4));
        assert_eq!(profiles, profile_depths(&trace, 4));
        // Section 2.3: a depth-2 cache needs associativity 3 for zero misses.
        assert_eq!(profiles[1].min_associativity(0), 3);
    }

    #[test]
    fn matches_materialized_on_workloads() {
        for trace in [
            generate::loop_pattern(0x40, 24, 20),
            generate::strided(0, 4, 64, 6),
            generate::uniform_random(800, 128, 11),
            generate::working_set_phases(4, 150, 24, 2),
            generate::loop_with_excursions(0, 48, 30, 11, 1 << 10, 5),
        ] {
            let bits = trace.address_bits();
            assert_eq!(fused(&trace, bits), materialized(&trace, bits));
            assert_eq!(fused(&trace, bits), profile_depths(&trace, bits));
        }
    }

    #[test]
    fn levels_beyond_addresses_are_all_zero() {
        let trace: Trace = [1u32, 2, 1, 2]
            .into_iter()
            .map(|a| Record::read(Address::new(a)))
            .collect();
        let profiles = fused(&trace, 5);
        assert_eq!(profiles, materialized(&trace, 5));
        assert_eq!(profiles.len(), 6);
        for p in &profiles[2..] {
            assert_eq!(p.misses_at(1), 0, "depth {}", p.depth());
        }
    }

    /// Randomized byte-identity sweep, dense enough to exercise the
    /// tombstone compaction path (small address spaces force recurrences).
    #[test]
    fn matches_materialized_on_random_traces() {
        let mut rng = SplitMix64::seed_from_u64(0x5742_EA11);
        for _ in 0..64 {
            let len = rng.gen_range(1usize..250);
            let trace: Trace = (0..len)
                .map(|_| Record::read(Address::new(rng.gen_range(0u32..96))))
                .collect();
            let max_bits = rng.gen_range(0u32..8);
            assert_eq!(fused(&trace, max_bits), materialized(&trace, max_bits));
        }
    }

    /// An adversarial many-tombstones trace: a large cold sweep, then a
    /// burst of recurrences whose owners sit just below the compaction
    /// threshold, maximizing dead entries inside the folded suffixes.
    #[test]
    fn tombstone_heavy_trace_matches_materialized() {
        let n = 4096u32;
        let mut records: Vec<Record> = (0..n).map(|a| Record::read(Address::new(a))).collect();
        for round in 0..4 {
            for a in (0..16).map(|k| (round * 16 + k) % n) {
                records.push(Record::read(Address::new(a)));
            }
        }
        let trace: Trace = records.into_iter().collect();
        let bits = 6;
        assert_eq!(fused(&trace, bits), materialized(&trace, bits));
    }
}
