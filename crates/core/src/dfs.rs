//! The combined, linear-space engine sketched in Section 2.4 of the paper.
//!
//! "The implementation of Algorithm 1 and Algorithm 3 can be combined.
//! Specifically, the BCAT does not need to be calculated in its entirety.
//! Instead, a depth first traversal of the tree can be performed. This also
//! would reduce the space complexity of the algorithm from exponential down
//! to linear."
//!
//! This module realizes that sketch. Each BCAT node is represented not by a
//! reference set but by its *subtrace* — the original access order filtered
//! to the references mapping to that row. The per-occurrence conflict depth
//! `|S ∩ C|` is then simply the number of distinct references touched within
//! the subtrace since the previous occurrence, computed with a Fenwick tree
//! in `O(m log m)` for a subtrace of length `m`.
//!
//! ## Memory layout: the hot path is allocation-free
//!
//! The recursion threads a reusable [`Scratch`] arena through every node
//! (see `DESIGN.md` §10):
//!
//! * **Per-level partition buffers.** One `Vec<u32>` per tree level, sized
//!   on first use and never freed. A node at level `l` reads its subtrace
//!   from a slice of `levels[l]` and partitions it *in place* into
//!   `levels[l + 1]` with stable two-pointer writes (left side forward from
//!   the front, right side backward from the back, then the right segment
//!   is reversed to restore trace order). Because traversal is depth-first,
//!   the right sibling's slice in `levels[l + 1]` stays intact while the
//!   entire left subtree runs out of `levels[l + 2..]`.
//! * **Epoch-stamped scratch sets.** Seen-tracking and last-occurrence
//!   tracking use dense arrays indexed by `RefId` (`seen_epoch`,
//!   `last_pos`) with a generation counter bumped once per node — no
//!   clearing, no hashing. The counter survives wraparound: after 2^32
//!   sweeps the stamp array is cleared once and the cycle restarts.
//! * **One Fenwick tree for the whole traversal.** Each sweep leaves a `+1`
//!   only at the final occurrence of each distinct reference, so the tree
//!   is restored to all-zeroes in `O(unique · log m)` by undoing exactly
//!   the touched positions — never reallocated, never rebuilt.
//! * **Small-set fast path.** A node with at most [`SMALL_SET_MAX`]
//!   distinct references (the count is known exactly from its parent's
//!   sweep) skips the Fenwick entirely: the live final-occurrence
//!   positions fit a sorted L1-resident array, where a conflict depth is
//!   one binary search and the undo is `clear()`. Long traces over small
//!   working sets — instruction streams above all — take this path at
//!   every level.
//!
//! The accumulate and partition passes of the old engine are fused into a
//! single sweep per node: one read of the subtrace feeds the Fenwick
//! conflict-depth histogram *and* writes both children.
//!
//! Output is identical to the materialized reference
//! ([`crate::postlude::materialized_profiles`]); the test suite asserts
//! equality.

use cachedse_sim::fenwick::Fenwick;
use cachedse_sim::onepass::DepthProfile;
use cachedse_trace::strip::StrippedTrace;

use crate::postlude::{address_table, finalize};

/// Nodes with at most this many distinct references answer conflict-depth
/// queries from a sorted array of live positions instead of the Fenwick
/// tree. The array is at most 4 KiB — resident in L1 — so a binary search
/// plus a short `memmove` beats three logarithmic walks over a tree
/// spanning the whole subtrace (which for a long trace with few uniques,
/// e.g. an instruction fetch stream, misses cache on nearly every step).
const SMALL_SET_MAX: usize = 1_024;

/// Reusable scratch state for the depth-first traversal.
///
/// Created once per engine run and reused across every node, so the
/// steady-state inner loop performs zero heap allocation.
#[derive(Clone, Debug)]
struct Scratch {
    /// `levels[l]` holds the subtrace data of the node(s) currently being
    /// traversed at level `l`; children are partitioned into
    /// `levels[l + 1]`.
    levels: Vec<Vec<u32>>,
    /// `seen_epoch[id] == epoch` ⇔ `id` was already touched by the current
    /// node's sweep.
    seen_epoch: Vec<u32>,
    /// Position of `id`'s most recent occurrence within the current sweep
    /// (valid only when `seen_epoch[id] == epoch`).
    last_pos: Vec<u32>,
    /// Distinct ids touched by the current sweep, recorded for the
    /// `O(touched)` Fenwick undo.
    touched: Vec<u32>,
    /// Sorted final-occurrence positions of the current sweep's distinct
    /// references — the small-set alternative to the Fenwick tree, used
    /// when the node holds at most [`SMALL_SET_MAX`] uniques.
    live: Vec<u32>,
    /// Generation stamp of the current sweep.
    epoch: u32,
    /// The shared conflict-depth counter tree, undone after every sweep.
    /// Grown lazily: traces whose every node fits the small-set path never
    /// allocate it.
    fenwick: Fenwick,
}

impl Scratch {
    /// A scratch arena for traces with `ref_count` unique references.
    fn new(ref_count: usize) -> Self {
        Self {
            levels: Vec::new(),
            seen_epoch: vec![0; ref_count],
            last_pos: vec![0; ref_count],
            touched: Vec::with_capacity(ref_count),
            live: Vec::with_capacity(ref_count.min(SMALL_SET_MAX)),
            epoch: 0,
            fenwick: Fenwick::new(0),
        }
    }

    /// Makes sure buffers exist for levels `0..=max_level`. Only ever
    /// grows; in steady state this is a no-op. (The Fenwick tree grows
    /// lazily inside the sweep, so small-unique traces never allocate it.)
    fn ensure(&mut self, max_level: u32) {
        let want = max_level as usize + 1;
        if self.levels.len() < want {
            self.levels.resize_with(want, Vec::new);
        }
    }

    /// Starts a new sweep generation. On the (2^32)-th sweep the stamp
    /// wraps; one full clear of the stamp array makes stale stamps from the
    /// previous cycle impossible.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen_epoch.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// What one fused sweep learned about a node's children.
#[derive(Clone, Copy, Debug)]
struct SweepOutcome {
    /// Length of the left child's subtrace (`levels[l + 1][0..left_len]`).
    left_len: usize,
    /// Length of the right child's subtrace
    /// (`levels[l + 1][left_len..left_len + right_len]`).
    right_len: usize,
    /// Distinct references in the left child (the child's `unique` hint).
    left_unique: usize,
    /// Distinct references in the right child.
    right_unique: usize,
    /// The left child can still produce nonzero conflict depths.
    visit_left: bool,
    /// The right child can still produce nonzero conflict depths.
    visit_right: bool,
}

/// One fused pass over the node occupying `levels[level][start..start +
/// len]`: feeds the conflict-depth histogram for this level and (when
/// `PARTITION`) splits the subtrace on index bit `level` into
/// `levels[level + 1]`.
///
/// A child needs visiting only if it can produce a nonzero conflict depth:
/// some reference recurs in it AND it holds at least two distinct
/// references. Repeat-free or single-reference subtraces contribute only
/// `d = 0` entries, which the caller reconstructs globally. (Every
/// occurrence of a reference lands on the same side — the address bit is a
/// property of the reference — so per-child uniqueness is well defined.)
///
/// `unique` is the node's exact distinct-reference count (known from the
/// parent's sweep; the root uses the stripped trace's unique count). Nodes
/// at or under [`SMALL_SET_MAX`] answer depth queries from the sorted
/// `live` array; larger nodes use the Fenwick tree.
fn sweep<const PARTITION: bool>(
    scratch: &mut Scratch,
    level: u32,
    start: usize,
    len: usize,
    unique: usize,
    addrs: &[u32],
    histogram: &mut Vec<u64>,
) -> SweepOutcome {
    let epoch = scratch.next_epoch();
    let small = unique <= SMALL_SET_MAX;
    let Scratch {
        levels,
        seen_epoch,
        last_pos,
        touched,
        live,
        fenwick,
        ..
    } = scratch;
    touched.clear();
    live.clear();
    if !small && fenwick.len() < len {
        *fenwick = Fenwick::new(len);
    }

    let mut empty: [u32; 0] = [];
    let (src, dst): (&[u32], &mut [u32]) = if PARTITION {
        let (head, tail) = levels.split_at_mut(level as usize + 1);
        let dst = &mut tail[0];
        if dst.len() < len {
            dst.resize(len, 0);
        }
        (&head[level as usize][start..start + len], &mut dst[..len])
    } else {
        (&levels[level as usize][start..start + len], &mut empty)
    };

    let bit = 1u32 << level;
    let mut left_len = 0usize;
    let mut right_write = len;
    let mut left_reuse = false;
    let mut right_reuse = false;
    let mut left_unique = 0usize;
    let mut right_unique = 0usize;

    for (t, &id) in src.iter().enumerate() {
        let idx = id as usize;
        let repeated = seen_epoch[idx] == epoch;
        if repeated {
            let prev = last_pos[idx];
            let d = if small {
                // `live` holds one sorted position per distinct reference
                // seen so far (its most recent occurrence), all `< t`, so
                // the conflict depth is the count of entries after `prev` —
                // and moving this reference's position to `t` is one short
                // in-L1 shift plus a push.
                let at = live
                    .binary_search(&prev)
                    .expect("previous occurrence is live");
                let d = live.len() - at - 1;
                live.remove(at);
                d
            } else {
                let d = fenwick.range_sum(prev as usize + 1, t) as usize;
                fenwick.add(prev as usize, -1);
                d
            };
            if d > 0 {
                if histogram.len() <= d {
                    histogram.resize(d + 1, 0);
                }
                histogram[d] += 1;
            }
        } else {
            seen_epoch[idx] = epoch;
            if !small {
                touched.push(id);
            }
        }
        last_pos[idx] = t as u32;
        if small {
            live.push(t as u32);
        } else {
            fenwick.add(t, 1);
        }

        if PARTITION {
            if addrs[idx] & bit == 0 {
                dst[left_len] = id;
                left_len += 1;
                left_reuse |= repeated;
                left_unique += usize::from(!repeated);
            } else {
                right_write -= 1;
                dst[right_write] = id;
                right_reuse |= repeated;
                right_unique += usize::from(!repeated);
            }
        }
    }

    // Undo path. Small sets just clear the live array; for the Fenwick,
    // only the final occurrence of each distinct reference still carries a
    // +1, so O(touched) point updates restore all-zeroes.
    if small {
        debug_assert!(live.len() <= unique, "more live positions than uniques");
        live.clear();
    } else {
        for &id in touched.iter() {
            fenwick.add(last_pos[id as usize] as usize, -1);
        }
        debug_assert_eq!(
            fenwick.prefix_sum(len),
            0,
            "fenwick sweep was not fully undone"
        );
    }

    if PARTITION {
        debug_assert_eq!(right_write, left_len, "partition lost elements");
        // The right side was written back-to-front; reverse it to restore
        // trace order (stable partition).
        dst[left_len..].reverse();
    }

    SweepOutcome {
        left_len,
        right_len: len - left_len,
        left_unique,
        right_unique,
        visit_left: left_reuse && left_unique >= 2,
        visit_right: right_reuse && right_unique >= 2,
    }
}

/// One BCAT node as a window into the per-level buffers: its subtrace is
/// `levels[level][start..start + len]` and holds `unique` distinct
/// references (counted by the parent's sweep).
#[derive(Clone, Copy, Debug)]
struct Node {
    /// Tree level (partitioning address bit).
    level: u32,
    /// Window offset within `levels[level]`.
    start: usize,
    /// Window length (occurrence count).
    len: usize,
    /// Exact distinct-reference count of the window.
    unique: usize,
}

/// Processes `node`: one fused sweep (histogram + partition), then
/// depth-first recursion into the surviving children.
fn visit(
    scratch: &mut Scratch,
    node: Node,
    max_index_bits: u32,
    addrs: &[u32],
    histograms: &mut [Vec<u64>],
) {
    let Node {
        level,
        start,
        len,
        unique,
    } = node;
    if level == max_index_bits {
        let _ = sweep::<false>(
            scratch,
            level,
            start,
            len,
            unique,
            addrs,
            &mut histograms[level as usize],
        );
        return;
    }
    let outcome = sweep::<true>(
        scratch,
        level,
        start,
        len,
        unique,
        addrs,
        &mut histograms[level as usize],
    );
    if outcome.visit_left {
        visit(
            scratch,
            Node {
                level: level + 1,
                start: 0,
                len: outcome.left_len,
                unique: outcome.left_unique,
            },
            max_index_bits,
            addrs,
            histograms,
        );
    }
    if outcome.visit_right {
        visit(
            scratch,
            Node {
                level: level + 1,
                start: outcome.left_len,
                len: outcome.right_len,
                unique: outcome.right_unique,
            },
            max_index_bits,
            addrs,
            histograms,
        );
    }
}

/// Computes the same per-depth miss profiles as
/// [`postlude::materialized_profiles`](crate::postlude::materialized_profiles),
/// by depth-first subtrace partitioning with a reusable scratch arena.
///
/// # Panics
///
/// Panics if the trace holds `u32::MAX` or more references (sweep
/// positions are stored as `u32`).
///
/// # Examples
///
/// ```
/// use cachedse_core::dfs;
/// use cachedse_trace::{paper_running_example, strip::StrippedTrace};
///
/// let stripped = StrippedTrace::from_trace(&paper_running_example());
/// let profiles = dfs::level_profiles(&stripped, 4);
/// assert_eq!(profiles[1].min_associativity(0), 3); // Section 2.3
/// ```
#[must_use]
pub fn level_profiles(stripped: &StrippedTrace, max_index_bits: u32) -> Vec<DepthProfile> {
    let total = stripped.total_len();
    assert!(
        total < u32::MAX as usize,
        "trace too long for u32 sweep positions"
    );

    let mut histograms: Vec<Vec<u64>> = vec![Vec::new(); max_index_bits as usize + 1];
    let addrs = address_table(stripped);

    let mut scratch = Scratch::new(addrs.len());
    scratch.ensure(max_index_bits);
    {
        let root = &mut scratch.levels[0];
        root.clear();
        root.extend(stripped.id_sequence().iter().map(|id| id.raw()));
    }
    visit(
        &mut scratch,
        Node {
            level: 0,
            start: 0,
            len: total,
            unique: stripped.unique_len(),
        },
        max_index_bits,
        &addrs,
        &mut histograms,
    );

    finalize(histograms, stripped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postlude;
    use cachedse_sim::onepass::profile_depths;
    use cachedse_trace::rng::SplitMix64;
    use cachedse_trace::{generate, paper_running_example, Address, Record, Trace};

    fn materialized(trace: &Trace, bits: u32) -> Vec<DepthProfile> {
        postlude::materialized_profiles(&StrippedTrace::from_trace(trace), bits)
    }

    fn depth_first(trace: &Trace, bits: u32) -> Vec<DepthProfile> {
        level_profiles(&StrippedTrace::from_trace(trace), bits)
    }

    #[test]
    fn paper_example_equivalence() {
        let trace = paper_running_example();
        assert_eq!(depth_first(&trace, 4), materialized(&trace, 4));
        assert_eq!(depth_first(&trace, 4), profile_depths(&trace, 4));
    }

    #[test]
    fn workload_equivalence() {
        for trace in [
            generate::loop_pattern(0x80, 40, 25),
            generate::strided(16, 32, 48, 5),
            generate::uniform_random(1_500, 200, 23),
            generate::working_set_phases(5, 200, 30, 41),
        ] {
            let bits = trace.address_bits().min(9);
            assert_eq!(depth_first(&trace, bits), materialized(&trace, bits));
        }
    }

    /// A trace with more uniques than [`SMALL_SET_MAX`] drives the Fenwick
    /// path at the shallow levels and the small-set path once recursion
    /// thins the nodes out — both must agree with the materialized
    /// reference.
    #[test]
    fn large_unique_set_crosses_both_query_paths() {
        let trace = generate::uniform_random(20_000, 3_000, 11);
        let stripped = StrippedTrace::from_trace(&trace);
        assert!(
            stripped.unique_len() > SMALL_SET_MAX,
            "trace too small to exercise the Fenwick path"
        );
        let bits = trace.address_bits();
        assert_eq!(depth_first(&trace, bits), materialized(&trace, bits));
    }

    #[test]
    fn empty_trace() {
        let profiles = depth_first(&Trace::new(), 3);
        assert_eq!(profiles.len(), 4);
        for p in &profiles {
            assert_eq!(p.misses_at(1), 0);
            assert_eq!(p.accesses(), 0);
        }
    }

    #[test]
    fn requesting_more_bits_than_addresses_is_safe() {
        let trace: Trace = [1u32, 2, 1, 2]
            .into_iter()
            .map(|a| Record::read(Address::new(a)))
            .collect();
        let profiles = depth_first(&trace, 10);
        assert_eq!(profiles.len(), 11);
        assert_eq!(profiles[0].misses_at(1), 2);
        for p in &profiles[1..] {
            assert_eq!(p.misses_at(1), 0);
        }
    }

    /// The depth-first engine, the materialized reference, and one-pass
    /// simulation agree on arbitrary traces.
    /// Deterministic randomized sweep (formerly a proptest property).
    #[test]
    fn three_way_equivalence() {
        let mut rng = SplitMix64::seed_from_u64(0x3417);
        for _ in 0..48 {
            let len = rng.gen_range(1usize..250);
            let trace: Trace = (0..len)
                .map(|_| Record::read(Address::new(rng.gen_range(0u32..80))))
                .collect();
            let max_bits = rng.gen_range(0u32..8);
            let dfs = depth_first(&trace, max_bits);
            assert_eq!(&dfs, &materialized(&trace, max_bits));
            assert_eq!(&dfs, &profile_depths(&trace, max_bits));
        }
    }

    /// A scratch arena whose epoch counter is about to wrap must keep
    /// producing correct results through the wrap: the one-time stamp clear
    /// makes stale stamps from the previous generation cycle impossible.
    #[test]
    fn scratch_survives_epoch_wraparound() {
        let trace = generate::working_set_phases(3, 400, 24, 5);
        let stripped = StrippedTrace::from_trace(&trace);
        let bits = stripped.address_bits();
        let addrs = address_table(&stripped);
        let total = stripped.total_len();
        let expected = level_profiles(&stripped, bits);

        // Place the counter a handful of sweeps before the wrap, and
        // poison the stamp arrays with values a naive reset would confuse
        // with post-wrap epochs.
        let mut scratch = Scratch::new(addrs.len());
        scratch.epoch = u32::MAX - 4;
        scratch.seen_epoch.fill(2);
        scratch.last_pos.fill(7);
        scratch.ensure(bits);

        for round in 0..3 {
            let mut histograms: Vec<Vec<u64>> = vec![Vec::new(); bits as usize + 1];
            {
                let root = &mut scratch.levels[0];
                root.clear();
                root.extend(stripped.id_sequence().iter().map(|id| id.raw()));
            }
            visit(
                &mut scratch,
                Node {
                    level: 0,
                    start: 0,
                    len: total,
                    unique: stripped.unique_len(),
                },
                bits,
                &addrs,
                &mut histograms,
            );
            let got = finalize(histograms, &stripped);
            assert_eq!(got, expected, "round {round}");
        }
        // The full trace has far more than 5 nodes, so the wrap happened.
        assert!(scratch.epoch < u32::MAX - 4, "epoch never wrapped");
        assert!(scratch.epoch >= 1);
    }

    /// The wrap boundary itself: epoch `u32::MAX` is valid, the next sweep
    /// clears and restarts at 1.
    #[test]
    fn epoch_wrap_clears_stamps() {
        let mut scratch = Scratch::new(8);
        scratch.epoch = u32::MAX - 1;
        assert_eq!(scratch.next_epoch(), u32::MAX);
        scratch.seen_epoch.fill(u32::MAX);
        assert_eq!(scratch.next_epoch(), 1);
        assert!(scratch.seen_epoch.iter().all(|&e| e == 0));
        assert_eq!(scratch.next_epoch(), 2);
    }
}
