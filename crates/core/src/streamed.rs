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
//! member individually anyway. A tombstone is the id `N'`, one past every
//! real reference, so it needs no test of its own: it indexes an extra
//! slot of the address table like any member. During each scan that slot
//! holds the owner's own address, so a tombstone's xor is zero and its
//! trailing-zero count is 32, which no member reaches; the table that
//! clamps trailing-zero counts to the deepest level maps 32 to a sink
//! bucket past it. The member loop has no data-dependent branch, so it
//! costs the same however many tombstones the suffix holds, and the
//! sink's count after the scan is the number of tombstones skipped. The
//! same table replaces a `min` per member. Tombstoning is `O(1)` flat,
//! which matters on adversarial traces whose recurrences cluster between
//! compactions (see `benches/streamed`).
//!
//! Compaction is rent-or-buy. Every tombstone a scan steps over is rent
//! paid for not compacting, and one compaction costs `live + dead` moves
//! to buy; `Recency::waste` counts the rent since the last compaction,
//! and the fold compacts once it exceeds the price. A second bound,
//! `dead > live + 8`, keeps the array under about twice the live set
//! when no scan ever meets a tombstone (a cyclic loop leaves every
//! tombstone behind the suffixes it folds). So compaction moves at most
//! the tombstones skipped plus the memory bound's moves, about two per
//! recurrence: `O(1)` amortized against the fold's own work.
//!
//! The depth-first engine's hybrid (`dfs`) folds single BCAT nodes through
//! the same `fold_chunk`, from the node's level down, with one
//! `NodeFold` scratch per run.

use cachedse_sim::onepass::DepthProfile;
use cachedse_trace::strip::{RefId, StrippedTrace};

use crate::postlude::{address_table, finalize};

/// The "never seen" marker of `live_pos`. Recency positions stay below
/// `2·N' + 9`, so no real position collides with it.
const ABSENT: u32 = u32::MAX;

/// The tombstone-compacted recency array the fold replays: live references
/// in last-access order, dead entries tombstoned in place (`O(1)`
/// move-to-back), the whole array rewritten once the scans have stepped
/// over more tombstones than a rewrite moves, or once tombstones outnumber
/// the live entries by more than 8. `Mrct::build`'s emission pass keeps
/// its own, tighter trigger, `dead > live/256 + 8`, because it copies live
/// spans between tombstones.
///
/// `seq` holds the recency list oldest to newest with dead slots holding
/// `tomb` (the id `N'`); `live_pos[r]` is the index of `r`'s live entry
/// (or [`ABSENT`]); `live`/`dead` count the two entry kinds and `waste`
/// the tombstones scanned since the last compaction, driving the
/// compaction rule.
#[derive(Debug)]
struct Recency {
    /// The recency array, oldest live entry first, tombstones in place.
    seq: Vec<u32>,
    /// Per-reference index into `seq`, [`ABSENT`] when never touched.
    live_pos: Vec<u32>,
    /// The tombstone id, `N'`: one past every real reference.
    tomb: u32,
    /// Number of live entries in `seq`.
    live: usize,
    /// Number of tombstoned entries in `seq`.
    dead: usize,
    /// Tombstones the member scans have stepped over since the last
    /// compaction.
    waste: usize,
}

impl Recency {
    /// An empty replay state over `n_unique` references. `seq` is reserved
    /// for its largest length over a sequence of `sequence_len`: the
    /// compaction rule keeps it at most `2·live + 9` entries, and it never
    /// exceeds one entry per reference of the sequence, so folding that
    /// sequence never reallocates it.
    fn new(n_unique: usize, sequence_len: usize) -> Self {
        Self {
            seq: Vec::with_capacity((2 * n_unique + 9).min(sequence_len)),
            live_pos: vec![ABSENT; n_unique],
            tomb: u32::try_from(n_unique).expect("unique references fit u32 ids"),
            live: 0,
            dead: 0,
            waste: 0,
        }
    }

    /// Rewrites `seq` to live entries only and refreshes `live_pos`.
    /// Compaction is semantically transparent: it changes neither the set
    /// of live references nor their relative recency order, which is all
    /// the fold reads.
    fn compact(&mut self) {
        let mut w = 0;
        for j in 0..self.seq.len() {
            let x = self.seq[j];
            if x != self.tomb {
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
        self.waste = 0;
    }

    /// Empties the replay through its live entries, `O(seq)` rather than
    /// `O(N')`, so one replay can fold many subtraces in turn.
    fn reset(&mut self) {
        for &x in &self.seq {
            if x != self.tomb {
                self.live_pos[x as usize] = ABSENT;
            }
        }
        self.seq.clear();
        self.live = 0;
        self.dead = 0;
        self.waste = 0;
    }
}

/// The fold of one BCAT node's subtrace at a time, below the switch of
/// the depth-first engine's hybrid (`dfs`): one replay and one bucket
/// array, made once per run, serve every folded node, and each fold
/// leaves them as it found them.
#[derive(Debug)]
pub(crate) struct NodeFold {
    replay: Recency,
    bucket: Vec<u64>,
}

impl NodeFold {
    /// The scratch for folding subtraces of a trace over `n_unique`
    /// unique references, at index budgets up to `max_level`. `seq`
    /// starts empty and grows to the largest folded node's `2u + 9`
    /// entries, far below the whole trace's bound.
    pub(crate) fn new(n_unique: usize, max_level: u32) -> Self {
        Self {
            replay: Recency::new(n_unique, 0),
            bucket: vec![0; max_level as usize + 2],
        }
    }

    /// Folds `ids`, the subtrace of one node at `level`, into levels
    /// `level..=max_level` of `hist`, then resets the replay. Every member
    /// shares the node's low `level` address bits, so the fold starts its
    /// level walk there. `addrs` is the fold's address table, with the
    /// tombstone slot at `N'`.
    pub(crate) fn fold(
        &mut self,
        ids: &[RefId],
        addrs: &mut [u32],
        level: u32,
        hist: &mut [Vec<u64>],
    ) {
        let max_level = self.bucket.len() - 2;
        fold_chunk(
            &mut self.replay,
            ids,
            addrs,
            level as usize,
            max_level,
            hist,
            &mut self.bucket,
        );
        self.replay.reset();
    }

    /// Whether the scratch is as `new` made it: every bucket zero, every
    /// recency slot absent, the replay empty.
    #[cfg(test)]
    pub(crate) fn is_clean(&self) -> bool {
        let r = &self.replay;
        self.bucket.iter().all(|&b| b == 0)
            && r.live_pos.iter().all(|&p| p == ABSENT)
            && r.seq.is_empty()
            && (r.live, r.dead, r.waste) == (0, 0, 0)
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
    let sequence = stripped.id_sequence();
    let mut replay = Recency::new(stripped.unique_len(), sequence.len());
    let (mut addrs, mut hist, mut bucket) = fold_tables(stripped, max_index_bits);
    fold_chunk(
        &mut replay,
        sequence,
        &mut addrs,
        0,
        max_index_bits as usize,
        &mut hist,
        &mut bucket,
    );
    finalize(hist, stripped)
}

/// The fold's tables: the address of every reference plus a slot for the
/// tombstone id, the empty per-level histograms, and the per-set buckets —
/// one per clamped level `0..=max_level` plus the tombstone sink at
/// `max_level + 1`.
fn fold_tables(
    stripped: &StrippedTrace,
    max_index_bits: u32,
) -> (Vec<u32>, Vec<Vec<u64>>, Vec<u64>) {
    let mut addrs = address_table(stripped);
    addrs.push(0);
    let levels = max_index_bits as usize + 1;
    (addrs, vec![Vec::new(); levels], vec![0; levels + 1])
}

/// Folds one contiguous run of the trace into `hist`, advancing `replay`
/// through it. `hist[l][d]` counts the conflict sets with exactly `d`
/// same-row members at level `l` (only `d > 0` is recorded, mirroring the
/// materialized postlude), for `l` from `start_level`: the whole trace
/// starts at 0, and a BCAT node's subtrace at its own level, where all its
/// references share a row. `bucket[b]` holds, for the set currently being
/// folded, the members whose shared-row depth — clamped to `max_level` —
/// is exactly `b`, and `bucket[max_level + 1]` the tombstones its scan
/// stepped over. The scan empties the sink and the level walk drains the
/// rest back to all-zeros before the next set starts. `addrs[N']`, the
/// tombstone's slot, holds the current owner's address during its scan.
fn fold_chunk(
    replay: &mut Recency,
    chunk: &[RefId],
    addrs: &mut [u32],
    start_level: usize,
    max_level: usize,
    hist: &mut [Vec<u64>],
    bucket: &mut [u64],
) {
    let tomb = replay.tomb;
    let sink = max_level + 1;
    // The bucket of a slot whose address xor the owner's has `t` trailing
    // zeros: its shared-row depth `min(t, max_level)` for `t < 32`, and the
    // sink for `t = 32`, the zero xor only a tombstone's slot yields.
    let mut bucket_of = [sink; 33];
    for (t, b) in bucket_of[..32].iter_mut().enumerate() {
        *b = t.min(max_level);
    }
    for &id in chunk {
        let i = id.index();
        let p = replay.live_pos[i];
        if p == ABSENT {
            replay.live += 1;
        } else {
            // The conflict set is the live suffix after p. Bucket every
            // member by its clamped shared-row depth against the owner:
            // distinct unique addresses make a member's xor nonzero. The
            // tombstone slot holds the owner's address, so a tombstone's
            // xor is zero and it lands in the sink with no branch — see
            // the module docs.
            let owner = addrs[i];
            addrs[tomb as usize] = owner;
            let suffix = &replay.seq[p as usize + 1..];
            for &x in suffix {
                bucket[bucket_of[(addrs[x as usize] ^ owner).trailing_zeros() as usize]] += 1;
            }
            let skipped = std::mem::take(&mut bucket[sink]);
            replay.waste += skipped as usize;
            // Suffix-sum walk: at level l the set contributes `d_l` =
            // #{members with shared depth ≥ l}; every member shares the
            // start level's row, so `d_start = |C|`, and each step retires
            // bucket[l]. Every member's clamped depth is ≤ max_level, so
            // `d` hits zero no later than one past it — and `d == 0` means
            // every remaining bucket is already zero, which is what lets
            // `take` leave the array clean for the next set.
            let mut d = suffix.len() as u64 - skipped;
            let mut l = start_level;
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
            replay.seq[p as usize] = tomb;
            replay.dead += 1;
        }
        replay.live_pos[i] = u32::try_from(replay.seq.len()).expect("recency position fits u32");
        replay.seq.push(id.raw());
        // Rent or buy: compact once the scans have stepped over more
        // tombstones than one compaction moves, or once tombstones would
        // push the array past about twice the live set.
        if replay.waste > replay.live + replay.dead || replay.dead > replay.live + 8 {
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

    /// Folds `stripped` one reference at a time — the same replay
    /// `level_profiles` runs in one call — asserting the replay's bounds
    /// after every step and handing its state to `observe`.
    fn fold_stepwise(
        stripped: &StrippedTrace,
        max_bits: u32,
        mut observe: impl FnMut(&Recency),
    ) -> Vec<DepthProfile> {
        let sequence = stripped.id_sequence();
        let mut replay = Recency::new(stripped.unique_len(), sequence.len());
        let reserved = replay.seq.capacity();
        let (mut addrs, mut hist, mut bucket) = fold_tables(stripped, max_bits);
        for id in sequence {
            let step = std::slice::from_ref(id);
            fold_chunk(
                &mut replay,
                step,
                &mut addrs,
                0,
                max_bits as usize,
                &mut hist,
                &mut bucket,
            );
            assert_eq!(replay.seq.len(), replay.live + replay.dead);
            assert!(replay.dead <= replay.live + 8, "{replay:?}");
            assert!(replay.waste <= replay.live + replay.dead, "{replay:?}");
            assert_eq!(replay.seq.capacity(), reserved, "seq reallocated");
            assert!(bucket.iter().all(|&b| b == 0), "buckets left dirty");
            observe(&replay);
        }
        finalize(hist, stripped)
    }

    /// Counts the compactions a stepwise fold runs: the only way `dead`
    /// ever falls.
    fn compactions_of(stripped: &StrippedTrace, max_bits: u32) -> (Vec<DepthProfile>, usize) {
        let (mut count, mut prev_dead) = (0, 0);
        let profiles = fold_stepwise(stripped, max_bits, |replay| {
            count += usize::from(replay.dead < prev_dead);
            prev_dead = replay.dead;
        });
        (profiles, count)
    }

    #[test]
    fn stepwise_fold_keeps_its_bounds_and_matches_materialized() {
        let mut rng = SplitMix64::seed_from_u64(0xB0_0D5);
        let random = (0..32).map(|_| {
            let len = rng.gen_range(1usize..400);
            let space = rng.gen_range(1u32..160);
            (0..len)
                .map(|_| Record::read(Address::new(rng.gen_range(0..space))))
                .collect::<Trace>()
        });
        for trace in [
            paper_running_example(),
            generate::uniform_random(800, 128, 11),
            generate::working_set_phases(4, 150, 24, 2),
            generate::loop_with_excursions(0, 48, 30, 11, 1 << 10, 5),
        ]
        .into_iter()
        .chain(random)
        {
            let stripped = StrippedTrace::from_trace(&trace);
            let bits = trace.address_bits();
            let profiles = fold_stepwise(&stripped, bits, |_| {});
            assert_eq!(profiles, materialized(&trace, bits));
            assert_eq!(profiles, fused(&trace, bits));
        }
    }

    /// A cyclic loop re-touches the oldest live entry every time, so every
    /// tombstone lies behind the suffix being folded: no scan ever pays
    /// rent, and only the memory bound compacts, once per `live + 9`
    /// recurrences.
    #[test]
    fn cyclic_loop_compacts_only_for_memory() {
        let (len, iterations) = (24u32, 20u32);
        let trace = generate::loop_pattern(0x40, len, iterations);
        let stripped = StrippedTrace::from_trace(&trace);
        let bits = trace.address_bits();
        let profiles = fold_stepwise(&stripped, bits, |replay| assert_eq!(replay.waste, 0));
        assert_eq!(profiles, materialized(&trace, bits));
        let recurrences = (len * (iterations - 1)) as usize;
        let (_, compactions) = compactions_of(&stripped, bits);
        assert_eq!(compactions, recurrences / (len as usize + 9));
    }

    /// A cold sweep of `n` addresses, then `k` re-touches of the most
    /// recent ones, newest first. The `j`-th re-touch steps over the
    /// `j − 1` tombstones the earlier ones left, so after `j` of them
    /// `waste = j(j − 1)/2` against `live + dead = n + j`.
    fn descending_retouch(n: u32, k: u32) -> Trace {
        (0..n)
            .chain((n - k..n).rev())
            .map(|a| Record::read(Address::new(a)))
            .collect()
    }

    /// An adversarial many-tombstones trace: every recurrence's suffix
    /// holds all the tombstones made so far. With `n = 4096`, 92
    /// re-touches leave `waste` at 4186, just below `live + dead` = 4188,
    /// so nothing compacts; the 93rd takes it to 4278, just above 4189,
    /// and the rent buys one compaction.
    #[test]
    fn tombstone_heavy_trace_matches_materialized() {
        let bits = 6;
        let below = descending_retouch(4096, 92);
        let stripped = StrippedTrace::from_trace(&below);
        let mut last = (0, 0);
        let profiles = fold_stepwise(&stripped, bits, |replay| {
            last = (replay.waste, replay.live + replay.dead);
        });
        assert_eq!(last, (4186, 4188));
        assert_eq!(profiles, materialized(&below, bits));

        let above = descending_retouch(4096, 93);
        let stripped = StrippedTrace::from_trace(&above);
        let (profiles, compactions) = compactions_of(&stripped, bits);
        assert_eq!(compactions, 1);
        assert_eq!(profiles, materialized(&above, bits));
    }

    /// The sink bucket sits at `max_level + 1`: index 1 with no index bits,
    /// index 32 at the 31-bit cap.
    #[test]
    fn tombstone_sink_works_at_both_index_bit_extremes() {
        let trace = descending_retouch(4096, 93);
        let stripped = StrippedTrace::from_trace(&trace);
        for (bits, sink) in [(0u32, 1usize), (31, 32)] {
            assert_eq!(fold_tables(&stripped, bits).2.len(), sink + 1);
            assert_eq!(
                fused(&trace, bits),
                materialized(&trace, bits),
                "{bits} bits"
            );
        }
    }
}
