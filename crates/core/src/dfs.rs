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
//! the subtrace since the previous occurrence, counted with a bit per
//! position and a Fenwick tree over 64-position words, in `O(m log(m/64))`
//! for a subtrace of length `m`.
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
//! * **One live-position counter for every sweep.** Each sweep keeps a bit
//!   set at the final occurrence so far of each distinct reference, one bit
//!   per position of the node's subtrace, plus a Fenwick tree over the
//!   popcounts of the 64-position words it has completed. A conflict depth
//!   is one popcount in the previous occurrence's word, one in the current
//!   word, and, when the two differ, one walk of a tree 64 times shorter
//!   than the subtrace. The buffers grow once, to the root's length, and
//!   the undo is two `fill(0)`s over `len / 64 + 1` entries.
//!
//! The accumulate and partition passes of the old engine are fused into a
//! single sweep per node: one read of the subtrace feeds the
//! conflict-depth histogram *and* writes both children.
//!
//! ## The hybrid: the fold below the top of the tree
//!
//! A sweep pays about `len` per node per level, whatever the conflicts;
//! the streamed fold ([`crate::streamed`]) pays the LRU stack distance
//! instead, and a node's stack distances collapse once its members share
//! their low `l` address bits. So the default engine
//! ([`Engine::Auto`](crate::Engine::Auto), on traces it does not fold
//! whole) sweeps depth-first at the top of the BCAT and hands a node to
//! the fold once the fold is the cheaper way down: one pass over the
//! node's subtrace then covers every level from the node's to
//! `max_index_bits`. The parent's sweep already computes each
//! recurrence's exact conflict depth `d`, and a child's own depths are at
//! most its parent's, so the sum `Σd` over the recurrences that land in
//! the child bounds the child's whole fold. [`level_profiles`] stays the
//! pure depth-first engine.
//!
//! Output is identical to the materialized reference
//! ([`crate::postlude::materialized_profiles`]); the test suite asserts
//! equality.

use cachedse_sim::onepass::DepthProfile;
use cachedse_trace::strip::{RefId, StrippedTrace};

use crate::postlude::{address_table, finalize};
use crate::streamed::NodeFold;

/// The hybrid folds a node when its fold, `Σd + len` steps, is cheaper
/// than this many times the sweeps it replaces, `len · r` steps over the
/// `r` levels left: `r` is the smaller of the levels down to
/// `max_index_bits` and the bit length of the node's unique count, since
/// the traversal runs out of shared rows about that deep. Probed at 2,
/// 4 and 8, the 12 data traces' summed engine time read 0.83–0.89× of
/// the root-only choice, so the gain does not hang on the exact value;
/// at 16 it read 1.03–1.04×, folding nodes a sweep finishes sooner
/// (DESIGN.md §16, "Engine choice").
const FOLD_STEPS_PER_SWEEP_STEP: u64 = 8;

/// The live final-occurrence positions of one sweep: a bit per position of
/// the node's subtrace, and a Fenwick tree over the popcounts of the
/// 64-position words the sweep has completed.
///
/// A sweep calls [`recur`](Self::recur) at a position whose reference was
/// seen before, then [`push`](Self::push) at every position, in order, and
/// [`undo`](Self::undo) once at its end. One counter serves every node of a
/// traversal.
#[derive(Debug, Default)]
struct LiveCounter {
    /// Bit `t % 64` of `bits[t / 64]` is set ⇔ position `t` is the latest
    /// occurrence so far of its reference.
    bits: Vec<u64>,
    /// A 1-based Fenwick tree over the completed words' popcounts:
    /// `tree[w + 1]` covers word `w`. Entries `1..=words` serve the sweep.
    tree: Vec<u32>,
    /// The words of the current sweep: `len / 64 + 1`.
    words: usize,
    /// The popcounts of the completed words, summed.
    flushed: u32,
}

impl LiveCounter {
    /// Readies the counter for a sweep over `len` positions. The buffers
    /// only ever grow, so they grow once, to the root's length.
    fn begin(&mut self, len: usize) {
        self.words = len / 64 + 1;
        if self.bits.len() < self.words {
            self.bits.resize(self.words, 0);
            self.tree.resize(self.words + 1, 0);
        }
    }

    /// Marks position `t` live. Positions arrive in order, so the last
    /// position of a word completes it: its popcount enters the tree once.
    #[inline]
    fn push(&mut self, t: usize) {
        let w = t / 64;
        self.bits[w] |= 1 << (t % 64);
        if t % 64 == 63 {
            let count = self.bits[w].count_ones();
            self.flushed += count;
            self.add(w, count as i32);
        }
    }

    /// The live positions strictly between `prev` and `t` (the conflict
    /// depth of a recurrence at `t` of the reference last seen at `prev`),
    /// clearing `prev`, which is no longer its reference's latest
    /// occurrence. `prev` must be live and every position before `t`
    /// pushed.
    ///
    /// Always inlined: left a call of its own, it made pinned depth-first
    /// over the 24 kernel traces 1.07–1.17× slower.
    #[inline(always)]
    fn recur(&mut self, prev: usize, t: usize) -> usize {
        let (w, at) = (prev / 64, prev % 64);
        let word = self.bits[w];
        debug_assert!((word >> at) & 1 == 1, "previous occurrence is live");
        self.bits[w] = word & !(1 << at);
        let mut depth = (word >> at).count_ones() - 1;
        if w < t / 64 {
            // `prev`'s word is completed, and so is every word before
            // `t`'s: the tree counts the words between the two.
            depth += self.flushed - self.prefix(w + 1) + self.bits[t / 64].count_ones();
            self.flushed -= 1;
            self.add(w, -1);
        }
        depth as usize
    }

    /// Adds `delta` to completed word `w`'s popcount in the tree.
    #[inline]
    fn add(&mut self, w: usize, delta: i32) {
        let mut i = w + 1;
        while i <= self.words {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// The popcounts of words `0..end`, all completed, summed.
    #[inline]
    fn prefix(&self, end: usize) -> u32 {
        let (mut sum, mut i) = (0, end);
        while i > 0 {
            sum += self.tree[i];
            i &= i - 1;
        }
        sum
    }

    /// The live positions of the current sweep.
    fn count(&self) -> usize {
        self.bits[..self.words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Clears the current sweep's bits and tree entries.
    fn undo(&mut self) {
        self.bits[..self.words].fill(0);
        self.tree[1..=self.words].fill(0);
        self.flushed = 0;
    }

    /// Every bit and tree entry is zero.
    #[cfg(test)]
    fn is_clean(&self) -> bool {
        self.flushed == 0 && self.bits.iter().all(|&w| w == 0) && self.tree.iter().all(|&e| e == 0)
    }
}

/// Reusable scratch state for the depth-first traversal.
///
/// Created once per engine run and reused across every node, so the
/// steady-state inner loop performs zero heap allocation.
#[derive(Debug)]
struct Scratch {
    /// `levels[l]` holds the subtrace data of the node(s) currently being
    /// traversed at level `l`; children are partitioned into
    /// `levels[l + 1]`.
    levels: Vec<Vec<RefId>>,
    /// `seen_epoch[id] == epoch` ⇔ `id` was already touched by the current
    /// node's sweep.
    seen_epoch: Vec<u32>,
    /// Position of `id`'s most recent occurrence within the current sweep
    /// (valid only when `seen_epoch[id] == epoch`).
    last_pos: Vec<u32>,
    /// Generation stamp of the current sweep.
    epoch: u32,
    /// The conflict-depth counter, undone after every sweep.
    live: LiveCounter,
    /// The hybrid's switch and the fold scratch every node below it
    /// shares; `None` for the pure depth-first engine.
    fold: Option<(Switch, NodeFold)>,
}

impl Scratch {
    /// A scratch arena for traces with `ref_count` unique references.
    fn new(ref_count: usize) -> Self {
        Self {
            levels: Vec::new(),
            seen_epoch: vec![0; ref_count],
            last_pos: vec![0; ref_count],
            epoch: 0,
            live: LiveCounter::default(),
            fold: None,
        }
    }

    /// Makes sure buffers exist for levels `0..=max_level`. Only ever
    /// grows; in steady state this is a no-op.
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
    /// Sum of the conflict depths of the recurrences landing in the left
    /// child, at this node's level: a bound on the child's whole fold.
    left_span: u64,
    /// The same sum for the right child.
    right_span: u64,
    /// The left child can still produce nonzero conflict depths.
    visit_left: bool,
    /// The right child can still produce nonzero conflict depths.
    visit_right: bool,
}

/// One fused pass over the node occupying `levels[level][start..start +
/// len]`: feeds the conflict-depth histogram for this level and (when
/// `PARTITION`) splits the subtrace on index bit `level` into
/// `levels[level + 1]`, summing each side's conflict depths.
///
/// A child needs visiting only if it can produce a nonzero conflict depth:
/// some reference recurs in it AND it holds at least two distinct
/// references. Repeat-free or single-reference subtraces contribute only
/// `d = 0` entries, which the caller reconstructs globally. (Every
/// occurrence of a reference lands on the same side — the address bit is a
/// property of the reference — so per-child uniqueness is well defined.)
///
/// `unique` is the node's exact distinct-reference count (known from the
/// parent's sweep; the root uses the stripped trace's unique count): the
/// sweep ends with exactly that many live positions.
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
    let Scratch {
        levels,
        seen_epoch,
        last_pos,
        live,
        ..
    } = scratch;
    live.begin(len);

    let mut empty: [RefId; 0] = [];
    let (src, dst): (&[RefId], &mut [RefId]) = if PARTITION {
        let (head, tail) = levels.split_at_mut(level as usize + 1);
        let dst = &mut tail[0];
        if dst.len() < len {
            dst.resize(len, RefId::default());
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
    let mut left_span = 0u64;
    let mut right_span = 0u64;

    for (t, &id) in src.iter().enumerate() {
        let idx = id.index();
        let repeated = seen_epoch[idx] == epoch;
        let mut d = 0;
        if repeated {
            d = live.recur(last_pos[idx] as usize, t);
            if d > 0 {
                if histogram.len() <= d {
                    histogram.resize(d + 1, 0);
                }
                histogram[d] += 1;
            }
        } else {
            seen_epoch[idx] = epoch;
        }
        last_pos[idx] = t as u32;
        live.push(t);

        if PARTITION {
            if addrs[idx] & bit == 0 {
                dst[left_len] = id;
                left_len += 1;
                left_reuse |= repeated;
                left_unique += usize::from(!repeated);
                left_span += d as u64;
            } else {
                right_write -= 1;
                dst[right_write] = id;
                right_reuse |= repeated;
                right_unique += usize::from(!repeated);
                right_span += d as u64;
            }
        }
    }

    // Only the final occurrence of each distinct reference is still live.
    debug_assert_eq!(live.count(), unique, "live positions are not the uniques");
    live.undo();

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
        left_span,
        right_span,
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
    /// Sum of the window's conflict depths at the parent's level (0 at
    /// the root).
    span: u64,
}

/// Where the hybrid hands nodes to the fold.
#[derive(Clone, Copy, Debug)]
enum Switch {
    /// Below the root, wherever the fold is the cheaper way down (see
    /// [`FOLD_STEPS_PER_SWEEP_STEP`]).
    Rule,
    /// Every visited node at this level, whatever it costs.
    #[cfg(test)]
    At(u32),
}

impl Switch {
    /// Whether the hybrid folds `node` instead of sweeping it.
    fn folds(self, node: &Node, max_index_bits: u32) -> bool {
        match self {
            Self::Rule => {
                let len = node.len as u64;
                let levels = max_index_bits - node.level + 1;
                let bits = usize::BITS - node.unique.leading_zeros();
                let sweeps = len * u64::from(levels.min(bits));
                node.level > 0 && node.span + len < FOLD_STEPS_PER_SWEEP_STEP * sweeps
            }
            #[cfg(test)]
            Self::At(level) => node.level == level,
        }
    }
}

/// Processes `node`: one fused sweep (histogram + partition), then
/// depth-first recursion into the surviving children — or, where the
/// hybrid's switch says so, one fold of the node's subtrace covering every
/// level from its own down.
fn visit(
    scratch: &mut Scratch,
    node: Node,
    max_index_bits: u32,
    addrs: &mut [u32],
    histograms: &mut [Vec<u64>],
) {
    let Node {
        level,
        start,
        len,
        unique,
        ..
    } = node;
    if let Some((switch, fold)) = &mut scratch.fold {
        if switch.folds(&node, max_index_bits) {
            fold.fold(
                &scratch.levels[level as usize][start..start + len],
                addrs,
                level,
                histograms,
            );
            #[cfg(test)]
            assert!(fold.is_clean(), "a folded node left the fold scratch dirty");
            return;
        }
    }
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
        #[cfg(test)]
        assert!(scratch.live.is_clean(), "a sweep left the counter dirty");
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
    #[cfg(test)]
    assert!(scratch.live.is_clean(), "a sweep left the counter dirty");
    if outcome.visit_left {
        visit(
            scratch,
            Node {
                level: level + 1,
                start: 0,
                len: outcome.left_len,
                unique: outcome.left_unique,
                span: outcome.left_span,
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
                span: outcome.right_span,
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
    profiles(stripped, max_index_bits, None)
}

/// The hybrid: [`level_profiles`]' traversal, handing each node below the
/// root to the streamed fold where that is the cheaper way down (see the
/// module docs). The profiles are the same.
///
/// # Panics
///
/// As [`level_profiles`].
pub(crate) fn hybrid_profiles(stripped: &StrippedTrace, max_index_bits: u32) -> Vec<DepthProfile> {
    profiles(stripped, max_index_bits, Some(Switch::Rule))
}

/// One engine run: the hybrid where `switch` is given, pure depth-first
/// otherwise.
fn profiles(
    stripped: &StrippedTrace,
    max_index_bits: u32,
    switch: Option<Switch>,
) -> Vec<DepthProfile> {
    let total = stripped.total_len();
    assert!(
        total < u32::MAX as usize,
        "trace too long for u32 sweep positions"
    );
    let unique = stripped.unique_len();
    let mut scratch = Scratch::new(unique);
    scratch.fold = switch.map(|switch| (switch, NodeFold::new(unique, max_index_bits)));
    traverse(&mut scratch, stripped, max_index_bits)
}

/// One traversal of `stripped` from its root, over `scratch`.
fn traverse(
    scratch: &mut Scratch,
    stripped: &StrippedTrace,
    max_index_bits: u32,
) -> Vec<DepthProfile> {
    let mut histograms: Vec<Vec<u64>> = vec![Vec::new(); max_index_bits as usize + 1];
    // One address per reference, plus the fold's tombstone slot at `N'`.
    let mut addrs = address_table(stripped);
    addrs.push(0);
    scratch.ensure(max_index_bits);
    let root = &mut scratch.levels[0];
    root.clear();
    root.extend_from_slice(stripped.id_sequence());
    visit(
        scratch,
        Node {
            level: 0,
            start: 0,
            len: stripped.total_len(),
            unique: stripped.unique_len(),
            span: 0,
        },
        max_index_bits,
        &mut addrs,
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

    /// A root sweep over more than 64 words gives the counter's word tree
    /// several levels, so recurrences walk it across subtree boundaries;
    /// the profiles must agree with the materialized reference.
    #[test]
    fn a_root_sweep_over_many_words_walks_a_deep_word_tree() {
        let trace = generate::uniform_random(20_000, 3_000, 11);
        let stripped = StrippedTrace::from_trace(&trace);
        assert!(
            stripped.total_len() > 64 * 64,
            "trace too short for a word tree of several levels"
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

    /// Forces the switch at every level `s ∈ 0..=bits` (`s = 0` folds the
    /// whole trace, `s = bits` only the deepest rows) and runs the
    /// hybrid's own rule; every run must equal the materialized
    /// reference. `visit` asserts after each folded node that the fold
    /// scratch is clean again: buckets zero, every recency slot absent.
    fn assert_every_switch_level(trace: &Trace, bits: u32) {
        let stripped = StrippedTrace::from_trace(trace);
        let reference = postlude::materialized_profiles(&stripped, bits);
        for s in 0..=bits {
            let got = profiles(&stripped, bits, Some(Switch::At(s)));
            assert_eq!(got, reference, "switch at level {s} of {bits}");
        }
        assert_eq!(hybrid_profiles(&stripped, bits), reference, "rule");
    }

    #[test]
    fn every_switch_level_matches_materialized_on_workloads() {
        for trace in [
            paper_running_example(),
            generate::loop_pattern(0x80, 40, 25),
            generate::strided(16, 32, 48, 5),
            generate::uniform_random(1_500, 200, 23),
            generate::working_set_phases(5, 200, 30, 41),
            generate::loop_with_excursions(0, 48, 30, 11, 1 << 10, 5),
            // A 4,000-position root over about a thousand uniques: the
            // sweeps above the switch walk a word tree of several levels.
            generate::uniform_random(4_000, 1_500, 11),
        ] {
            let width = trace.address_bits();
            for bits in [width, width.min(9), width.saturating_sub(3)] {
                assert_every_switch_level(&trace, bits);
            }
        }
    }

    #[test]
    fn every_switch_level_matches_materialized_on_random_traces() {
        let mut rng = SplitMix64::seed_from_u64(0x4b1d);
        for _ in 0..48 {
            let len = rng.gen_range(1usize..300);
            let space = rng.gen_range(1u32..200);
            let trace: Trace = (0..len)
                .map(|_| Record::read(Address::new(rng.gen_range(0..space))))
                .collect();
            assert_every_switch_level(&trace, rng.gen_range(0u32..10));
        }
    }

    /// The rule: never at the root, and below it the fold wins exactly
    /// when `Σd + len < 8 · len · min(levels left, bit length of unique)`.
    #[test]
    fn the_rule_compares_the_fold_bound_with_the_sweeps_left() {
        let node = |level, len, unique, span| Node {
            level,
            start: 0,
            len,
            unique,
            span,
        };
        let folds = |n: Node| Switch::Rule.folds(&n, 10);
        assert!(!folds(node(0, 100, 4, 0)), "the root is Auto's pick");
        // 4 uniques have bit length 3: the sweeps cost 100 · 3 · 8.
        assert!(folds(node(5, 100, 4, 2_299)));
        assert!(!folds(node(5, 100, 4, 2_300)));
        // At level 10 one level is left: 100 · 1 · 8.
        assert!(folds(node(10, 100, 1 << 12, 699)));
        assert!(!folds(node(10, 100, 1 << 12, 700)));
    }

    /// Drives `counter` and a naive model, one flag per position, through
    /// one sweep-shaped sequence over `len` positions: a push at each `t`,
    /// and before most of them a recurrence of a live `prev` drawn from
    /// `t`'s own word, the word before it, a word at a power-of-two
    /// boundary of the word tree, or anywhere. Asserts every answer, then
    /// that the undo leaves every bit and tree entry zero. Returns the
    /// operations run.
    fn drive(counter: &mut LiveCounter, len: usize, rng: &mut SplitMix64) -> usize {
        counter.begin(len);
        let mut model = vec![false; len];
        let mut ops = 0;
        for t in 0..len {
            let word = t / 64;
            let (lo, hi) = match rng.gen_range(0u32..5) {
                0 => (word * 64, t),
                1 => (word.saturating_sub(1) * 64, word * 64),
                2 if word > 0 => {
                    let w = ((1usize << rng.gen_range(0..=word.ilog2())) - 1).min(word - 1);
                    (w * 64, w * 64 + 64)
                }
                3 => (0, t),
                _ => (0, 0),
            };
            if lo < hi {
                let from = rng.gen_range(lo..hi);
                if let Some(prev) = (from..hi).chain(lo..from).find(|&p| model[p]) {
                    let want = model[prev + 1..t].iter().filter(|&&live| live).count();
                    let got = counter.recur(prev, t);
                    assert_eq!(got, want, "len {len}, prev {prev}, t {t}");
                    model[prev] = false;
                    ops += 1;
                }
            }
            counter.push(t);
            model[t] = true;
            ops += 1;
        }
        let live = model.iter().filter(|&&live| live).count();
        assert_eq!(counter.count(), live, "len {len}");
        counter.undo();
        assert!(
            counter.is_clean(),
            "len {len}: the undo left the counter dirty"
        );
        ops
    }

    /// Lengths on both sides of word and word-tree boundaries, growing
    /// the buffers and then reusing them for shorter sweeps.
    #[test]
    fn the_live_counter_matches_a_naive_model() {
        let mut rng = SplitMix64::seed_from_u64(0x11fe);
        let mut counter = LiveCounter::default();
        let lens = [0, 1, 63, 64, 65, 127, 128, 129, 4096, 4097];
        for len in lens.into_iter().chain(lens.into_iter().rev()) {
            drive(&mut counter, len, &mut rng);
        }
    }

    #[test]
    #[ignore = "1M operations; run with --release --include-ignored"]
    fn the_live_counter_matches_a_naive_model_over_a_million_operations() {
        let mut rng = SplitMix64::seed_from_u64(0x5EED_11FE);
        let mut counter = LiveCounter::default();
        let mut ops = 0;
        while ops < 1_000_000 {
            let len = rng.gen_range(0usize..20_000);
            ops += drive(&mut counter, len, &mut rng);
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
        let expected = level_profiles(&stripped, bits);

        // Place the counter a handful of sweeps before the wrap, and
        // poison the stamp arrays with values a naive reset would confuse
        // with post-wrap epochs.
        let mut scratch = Scratch::new(stripped.unique_len());
        scratch.epoch = u32::MAX - 4;
        scratch.seen_epoch.fill(2);
        scratch.last_pos.fill(7);

        for round in 0..3 {
            let got = traverse(&mut scratch, &stripped, bits);
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
