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
//!
//! The same order-insensitivity that lets sets fold eagerly also lets the
//! replay itself be **chunked across cores**: see
//! [`level_profiles_parallel`].

use std::num::NonZeroUsize;

use cachedse_sim::onepass::DepthProfile;
use cachedse_trace::strip::{RefId, StrippedTrace};

use crate::postlude::{address_table, finalize};
use crate::recency::{self, Recency, ABSENT};

/// Work items handed to the parallel pool per requested thread: mild
/// oversubscription so the greedy LPT pull can rebalance when the span
/// weights mispredict the true fold cost (they are exact up to tombstone
/// count, so 4× is plenty).
const CHUNKS_PER_THREAD: usize = 4;

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

/// Chunked multi-core variant of [`level_profiles`], byte-identical for
/// every thread count.
///
/// Two passes. Pass one is the recency replay **alone** — `O(N)`, no
/// member folding, which is the `O(total conflict elements)` cost that
/// dominates — run serially to (a) bucket each recurrence's span weight by
/// trace position and cut the trace into [`CHUNKS_PER_THREAD`]`×threads`
/// chunks of roughly equal fold work, then (b) capture a force-compacted
/// snapshot of the recency state (`seq`/`live_pos`, `O(unique)` each) at
/// every chunk boundary. Pass two replays each chunk from its snapshot in
/// parallel workers (through the `cachedse-sync` shim, so the model
/// checker can explore the fan-out/merge — see `tests/model_streamed.rs`),
/// folding conflict sets into private per-level histograms that merge
/// additively at the end.
///
/// **Why the merge is byte-identical to serial.** A chunk's snapshot holds
/// exactly the live set and last-access order the serial replay has at
/// that position — compaction is semantically transparent, so forcing it
/// at the boundary changes nothing a fold can observe. Each recurrence
/// therefore folds against exactly the members it would fold against
/// serially, contributing the same `(level, d)` increments; and since
/// histogram cells are sums of such increments, partitioning them across
/// workers and adding the partial histograms reproduces the serial counts
/// exactly — not approximately. The final [`DepthProfile`] construction is
/// shared with the serial path.
///
/// Degenerate inputs — one thread, a trace with fewer than two references,
/// or no recurrences at all (zero fold work) — fall back to the serial
/// fold.
///
/// # Examples
///
/// ```
/// use std::num::NonZeroUsize;
/// use cachedse_core::streamed;
/// use cachedse_trace::{generate, strip::StrippedTrace};
///
/// let trace = generate::uniform_random(5_000, 512, 3);
/// let stripped = StrippedTrace::from_trace(&trace);
/// let serial = streamed::level_profiles(&stripped, 9);
/// let parallel = streamed::level_profiles_parallel(
///     &stripped,
///     9,
///     NonZeroUsize::new(4).expect("nonzero"),
/// );
/// assert_eq!(serial, parallel);
/// ```
#[must_use]
pub fn level_profiles_parallel(
    stripped: &StrippedTrace,
    max_index_bits: u32,
    threads: NonZeroUsize,
) -> Vec<DepthProfile> {
    let sequence = stripped.id_sequence();
    let n_unique = stripped.unique_len();
    if threads.get() == 1 || sequence.len() < 2 {
        return level_profiles(stripped, max_index_bits);
    }

    // Pass one (a): recency-only pre-scan → equal-work chunk boundaries.
    let (bounds, weights) =
        recency::weighted_boundaries(sequence, n_unique, threads.get() * CHUNKS_PER_THREAD);
    let chunks = bounds.len() - 1;
    if chunks < 2 {
        return level_profiles(stripped, max_index_bits);
    }

    // Pass one (b): replay again, capturing a compacted snapshot at each
    // interior boundary. Chunk 0 needs none (it starts from the empty
    // state); chunk k ≥ 1 resumes from `snapshots[k - 1]`.
    let mut snapshots = Vec::with_capacity(chunks - 1);
    {
        let mut replay = Recency::new(n_unique, sequence.len());
        let mut next_cut = 1;
        for (t, &id) in sequence.iter().enumerate() {
            if next_cut < chunks && bounds[next_cut] == t {
                snapshots.push(replay.snapshot());
                next_cut += 1;
            }
            replay.advance(id);
        }
        debug_assert_eq!(snapshots.len(), chunks - 1);
    }

    let addrs = address_table(stripped);
    let max_level = max_index_bits as usize;

    // LPT: heaviest chunks first, so the greedy pull balances the pool.
    let mut order: Vec<usize> = (0..chunks).collect();
    order.sort_by_key(|&k| std::cmp::Reverse(weights[k]));
    let worker_count = threads.get().min(chunks);

    // Work-stealing cursor. `Relaxed` is sufficient: the cursor only needs
    // each `fetch_add` to be atomic (every chunk claimed exactly once);
    // the claimed inputs are read-only shared slices, and the per-worker
    // histograms are published by the scope join, which synchronizes-with
    // every worker exit.
    let next = cachedse_sync::atomic::AtomicUsize::new(0);
    let locals = cachedse_sync::thread::scope(|scope| {
        let handles: Vec<_> = (0..worker_count)
            .map(|_| {
                let next = &next;
                let order = &order;
                let bounds = &bounds;
                let snapshots = &snapshots;
                let addrs = &addrs;
                scope.spawn(move || {
                    let mut hist: Vec<Vec<u64>> = vec![Vec::new(); max_level + 1];
                    let mut bucket: Vec<u64> = vec![0; max_level + 1];
                    loop {
                        let i = next.fetch_add(1, cachedse_sync::atomic::Ordering::Relaxed);
                        let Some(&k) = order.get(i) else {
                            break;
                        };
                        let mut replay = if k == 0 {
                            Recency::new(n_unique, sequence.len())
                        } else {
                            snapshots[k - 1].restore()
                        };
                        fold_chunk(
                            &mut replay,
                            &sequence[bounds[k]..bounds[k + 1]],
                            addrs,
                            max_level,
                            &mut hist,
                            &mut bucket,
                        );
                    }
                    hist
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("streamed worker does not panic"))
            .collect::<Vec<_>>()
    });

    // Additive merge: histogram cells are sums of per-recurrence
    // increments, and the chunks partition the recurrences.
    let mut hist: Vec<Vec<u64>> = vec![Vec::new(); max_level + 1];
    for local in locals {
        for (level, partial) in local.into_iter().enumerate() {
            if hist[level].len() < partial.len() {
                hist[level].resize(partial.len(), 0);
            }
            for (slot, v) in hist[level].iter_mut().zip(partial) {
                *slot += v;
            }
        }
    }
    finalize(hist, stripped)
}

/// Folds one contiguous run of the trace into `hist`, advancing `replay`
/// through it. `hist[l][d]` counts the conflict sets with exactly `d`
/// same-row members at level `l` (only `d > 0` is recorded, mirroring the
/// materialized postlude); `bucket[b]` holds, for the set currently being
/// folded, the members whose shared-row depth — clamped to `max_level` —
/// is exactly `b`, and the level walk drains it back to all-zeros before
/// the next set starts. The serial path folds the whole sequence in one
/// call; the parallel path folds each chunk from its boundary snapshot.
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
        // Compact once tombstones could fragment the folded suffixes:
        // amortized O(1) per access, same threshold as `Mrct::build`.
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

    fn fused_parallel(trace: &Trace, max_bits: u32, threads: usize) -> Vec<DepthProfile> {
        level_profiles_parallel(
            &StrippedTrace::from_trace(trace),
            max_bits,
            NonZeroUsize::new(threads).expect("nonzero"),
        )
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
    fn parallel_matches_serial_on_workloads() {
        for trace in [
            generate::loop_pattern(0x40, 24, 20),
            generate::strided(0, 4, 64, 6),
            generate::uniform_random(800, 128, 11),
            generate::working_set_phases(4, 150, 24, 2),
            generate::loop_with_excursions(0, 48, 30, 11, 1 << 10, 5),
        ] {
            let bits = trace.address_bits();
            let serial = fused(&trace, bits);
            for threads in [1, 2, 4, 8] {
                assert_eq!(
                    serial,
                    fused_parallel(&trace, bits, threads),
                    "threads {threads}"
                );
            }
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
            let threads = rng.gen_range(2usize..9);
            assert_eq!(
                fused(&trace, max_bits),
                fused_parallel(&trace, max_bits, threads),
                "threads {threads}"
            );
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
        for threads in [2, 4, 8] {
            assert_eq!(fused(&trace, bits), fused_parallel(&trace, bits, threads));
        }
    }
}
