//! The Memory Reference Conflict Table (Algorithm 2, Table 4 of the paper).
//!
//! For every unique reference, the MRCT stores one *conflict set* per
//! occurrence after the first: the set of distinct other references touched
//! since the previous occurrence. The first occurrence is excluded because it
//! "will always be a cold miss".
//!
//! Two builders are provided:
//!
//! * [`Mrct::build`] — the production path, two output-proportional passes
//!   (DESIGN.md §12). Pass one sizes every conflict set with the Fenwick
//!   stack-distance count the depth-first engine already uses, which fixes
//!   the whole arena layout up front; pass two replays the trace against a
//!   tombstone-compacted recency array and streams each set straight into
//!   its final arena range. Total cost is `O(N log N + output)` — never
//!   `O(N · N')`.
//! * [`Mrct::build_naive`] — the paper's Algorithm 2 verbatim: for every
//!   trace element, extend the pending conflict set of every other unique
//!   reference. `O(N · N')`; kept as executable documentation and as the
//!   oracle the fast builder is property-tested against.
//!
//! Storage is a CSR-style flat arena: one contiguous `u32` identifier
//! buffer, a set-boundary offset array, and a per-reference set-range
//! offset array. Three allocations per table regardless of how many
//! conflict sets it holds, and the postlude's `|S ∩ C|` sweeps walk one
//! contiguous buffer instead of chasing per-set `Box` pointers. Dropping a
//! table parks its buffers in a thread-local pool the next build reuses, so
//! steady-state rebuilds are allocation-free and skip the arena's
//! first-touch page faults — on conflict-heavy traces those faults cost
//! more than both construction passes combined.
//!
//! Conflict sets are stored in **recency order**: members appear by their
//! last access inside the reuse window, oldest first — exactly the order
//! the recency-list suffix produces them in. The postlude only ever needs
//! `|S ∩ C|` against a bitset `S`, which is order-insensitive, and keeping
//! the emission order avoids a per-set sort that would otherwise dominate
//! construction on conflict-heavy traces. Recency order is canonical: both
//! builders produce it, and `cachedse-check` recomputes it independently.

use std::cell::RefCell;
use std::ops::Index;

use cachedse_sim::fenwick::Fenwick;
use cachedse_trace::strip::{RefId, StrippedTrace};

/// "Not on the recency list" marker for `live_pos`, and the tombstone value
/// for dead recency-array slots. Any real identifier is `< N' < u32::MAX`.
const ABSENT: u32 = u32::MAX;

/// The three recyclable buffers of a dropped table: `(ids, set_bounds,
/// ref_sets)`, in the same order as the [`Mrct`] fields.
type PooledArena = (Vec<u32>, Vec<u32>, Vec<u32>);

thread_local! {
    /// Arena storage of the most recently dropped table on this thread,
    /// kept for the next build. Conflict-heavy traces make the identifier
    /// arena hundreds of megabytes, which lands in freshly mapped pages
    /// whose first-touch faults can cost more than writing the table
    /// itself; recycling the previous table's buffers makes steady-state
    /// rebuilds (the explorer loop, the batch service's workers, the
    /// benchmarks) allocation-free, in the same spirit as the depth-first
    /// engine's scratch arenas (DESIGN.md §10).
    static ARENA_POOL: RefCell<Option<PooledArena>> = const { RefCell::new(None) };
}

/// Takes the pooled arena buffers, or three fresh vectors.
fn pooled_buffers() -> PooledArena {
    ARENA_POOL
        .try_with(|pool| pool.borrow_mut().take())
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Resizes a recycled buffer to exactly `len` entries, all zero-free to
/// overwrite: shrinking just truncates, growing zero-fills only the region
/// beyond the buffer's previous length.
fn recycle(buf: &mut Vec<u32>, len: usize) {
    if len <= buf.len() {
        buf.truncate(len);
    } else {
        buf.resize(len, 0);
    }
}

/// The conflict table: per unique reference, the conflict sets of its
/// non-first occurrences in trace order, stored in one flat CSR arena.
///
/// # Examples
///
/// ```
/// use cachedse_core::Mrct;
/// use cachedse_trace::{paper_running_example, strip::{RefId, StrippedTrace}};
///
/// let stripped = StrippedTrace::from_trace(&paper_running_example());
/// let mrct = Mrct::build(&stripped);
///
/// // Table 4, reference 1 (our id 0): the sets {2,3,4} and {2,4,5} of the
/// // paper, held in recency order and 0-based.
/// let sets = mrct.conflict_sets(RefId::new(0));
/// assert_eq!(&sets[0], &[1, 2, 3]);
/// assert_eq!(&sets[1], &[4, 1, 3]);
/// // Reference 5 (our id 4) occurs once: no conflict sets.
/// assert!(mrct.conflict_sets(RefId::new(4)).is_empty());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mrct {
    /// All conflict-set members, grouped by owning reference (sets in trace
    /// order within a reference, each set in recency order).
    ids: Vec<u32>,
    /// Global set `k` occupies `ids[set_bounds[k] .. set_bounds[k + 1]]`.
    set_bounds: Vec<u32>,
    /// Reference `r` owns global sets `ref_sets[r] .. ref_sets[r + 1]`.
    ref_sets: Vec<u32>,
}

impl Drop for Mrct {
    /// Returns the table's buffers to the thread-local pool so the next
    /// build on this thread skips the arena's first-touch page faults. The
    /// pool keeps whichever arena is larger; `try_with` makes teardown-time
    /// drops (thread-local storage already destroyed) a plain deallocation.
    fn drop(&mut self) {
        let ids = std::mem::take(&mut self.ids);
        if ids.capacity() == 0 {
            return;
        }
        let set_bounds = std::mem::take(&mut self.set_bounds);
        let ref_sets = std::mem::take(&mut self.ref_sets);
        let _ = ARENA_POOL.try_with(|pool| {
            let slot = &mut *pool.borrow_mut();
            let replace = slot
                .as_ref()
                .is_none_or(|(pooled, _, _)| pooled.capacity() < ids.capacity());
            if replace {
                *slot = Some((ids, set_bounds, ref_sets));
            }
        });
    }
}

/// A borrowed view of one reference's conflict sets: contiguous ranges of
/// the table's flat arena, one per non-first occurrence, in trace order.
///
/// Indexing (`sets[k]`) and iteration yield plain `&[u32]` slices in
/// recency order (member with the oldest last access in the reuse window
/// first).
#[derive(Clone, Copy, Debug)]
pub struct ConflictSets<'a> {
    /// The table's whole identifier arena (bounds are absolute offsets).
    ids: &'a [u32],
    /// The reference's set boundaries: set `k` is `bounds[k]..bounds[k+1]`.
    /// Always at least one element.
    bounds: &'a [u32],
}

impl<'a> ConflictSets<'a> {
    /// Number of conflict sets (occurrences − 1 of the owning reference).
    #[must_use]
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// `true` if the owning reference occurs at most once.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bounds.len() == 1
    }

    /// The `k`-th conflict set, or `None` past the end.
    #[must_use]
    pub fn get(&self, k: usize) -> Option<&'a [u32]> {
        if k < self.len() {
            Some(&self.ids[self.bounds[k] as usize..self.bounds[k + 1] as usize])
        } else {
            None
        }
    }

    /// Iterates the conflict sets in trace order.
    #[must_use]
    pub fn iter(&self) -> ConflictSetsIter<'a> {
        ConflictSetsIter {
            ids: self.ids,
            bounds: self.bounds.windows(2),
        }
    }
}

impl Index<usize> for ConflictSets<'_> {
    type Output = [u32];

    fn index(&self, k: usize) -> &[u32] {
        &self.ids[self.bounds[k] as usize..self.bounds[k + 1] as usize]
    }
}

impl<'a> IntoIterator for ConflictSets<'a> {
    type Item = &'a [u32];
    type IntoIter = ConflictSetsIter<'a>;

    fn into_iter(self) -> ConflictSetsIter<'a> {
        self.iter()
    }
}

/// Iterator over a reference's conflict sets (see [`ConflictSets::iter`]).
#[derive(Clone, Debug)]
pub struct ConflictSetsIter<'a> {
    ids: &'a [u32],
    bounds: std::slice::Windows<'a, u32>,
}

impl<'a> Iterator for ConflictSetsIter<'a> {
    type Item = &'a [u32];

    fn next(&mut self) -> Option<&'a [u32]> {
        self.bounds
            .next()
            .map(|w| &self.ids[w[0] as usize..w[1] as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.bounds.size_hint()
    }
}

impl ExactSizeIterator for ConflictSetsIter<'_> {}

impl Mrct {
    /// Builds the table in two output-proportional passes.
    ///
    /// **Pass one** sizes every conflict set without materializing any: a
    /// Fenwick tree keeps a `+1` at each reference's most recent trace
    /// position, so the set size of a recurrence at `t` with previous
    /// occurrence `p` is the marker count strictly inside `(p, t)` — the
    /// same stack-distance query the depth-first engine uses, `O(log N)`
    /// per access. Prefix sums over the sizes fix `set_bounds` (and the
    /// exact arena length) before a single member is written.
    ///
    /// **Pass two** replays the trace against a compacted recency array:
    /// live entries in last-access order, dead entries tombstoned in place
    /// (`O(1)` move-to-back), the whole array rewritten whenever tombstones
    /// exceed a small fraction of the live entries (amortized `O(N)`
    /// total). When a reference recurs, the live suffix after its previous
    /// position *is* its conflict set; a sorted index of the (few) dead
    /// positions splits that suffix into clean spans, each emitted with one
    /// `memcpy` directly into the final arena range pass one reserved. No
    /// per-set allocation, no staging copy, no sort, no per-element branch.
    ///
    /// Total: `O(N log N + N' + output)`, where *output* is the total
    /// member count the table stores.
    #[must_use]
    pub fn build(stripped: &StrippedTrace) -> Self {
        let n_unique = stripped.unique_len();
        let sequence = stripped.id_sequence();
        debug_assert!(
            n_unique < ABSENT as usize,
            "id space leaves room for the tombstone marker"
        );

        // Recycle the previously dropped table's storage: on the traces
        // that matter the identifier arena is the size of the output
        // (hundreds of megabytes), and faulting it in fresh costs more than
        // every pass below combined.
        let (mut ids, mut set_bounds, mut ref_sets) = pooled_buffers();
        // Global set-slot ranges: reference `r` owns one slot per non-first
        // occurrence, so the ranges are prefix sums of `occurrences − 1`.
        ref_sets.clear();
        ref_sets.reserve(n_unique + 1);
        ref_sets.push(0);
        let mut total_sets: u32 = 0;
        for r in 0..n_unique {
            total_sets += stripped.occurrences(RefId::new(r as u32)).saturating_sub(1);
            ref_sets.push(total_sets);
        }
        let total_sets = total_sets as usize;

        // Pass one: per-slot set sizes via Fenwick stack-distance counting.
        // Every entry of `set_bounds` past index 0 is written by the loop
        // (one slot per recurrence), so recycled contents never leak through.
        recycle(&mut set_bounds, total_sets + 1);
        if let Some(first) = set_bounds.first_mut() {
            *first = 0;
        }
        let mut next_slot: Vec<u32> = ref_sets[..n_unique].to_vec();
        let mut fenwick = Fenwick::new(sequence.len());
        let mut last: Vec<u32> = vec![ABSENT; n_unique];
        for (t, &id) in sequence.iter().enumerate() {
            let i = id.index();
            let p = last[i];
            if p != ABSENT {
                let size = fenwick.range_sum(p as usize + 1, t);
                let slot = next_slot[i] as usize;
                next_slot[i] += 1;
                set_bounds[slot + 1] = size;
                fenwick.add(p as usize, -1);
            }
            fenwick.add(t, 1);
            last[i] = u32::try_from(t).expect("trace position fits u32");
        }

        // Prefix sums turn the per-slot sizes into arena offsets.
        let mut acc64: u64 = 0;
        for bound in set_bounds.iter_mut().skip(1) {
            acc64 += u64::from(*bound);
            *bound = u32::try_from(acc64).expect("arena offset fits u32");
        }
        let total_elements = acc64 as usize;

        // Pass two: tombstone recency array, direct emission. `seq` holds
        // the recency list oldest-to-newest with dead slots marked ABSENT;
        // `live_pos[r]` is the index of r's live entry; `dead` is the
        // ascending index of tombstoned positions, kept tiny by compaction.
        // The span copies below tile `ids[0..total_elements]` exactly (the
        // per-slot debug assertion pins each set to its reserved range), so
        // a recycled arena needs no zeroing.
        recycle(&mut ids, total_elements);
        let mut seq: Vec<u32> = Vec::with_capacity(n_unique.min(sequence.len()) + 1);
        let mut live_pos: Vec<u32> = vec![ABSENT; n_unique];
        let mut dead: Vec<u32> = Vec::new();
        let mut live: usize = 0;
        next_slot.copy_from_slice(&ref_sets[..n_unique]);
        for &id in sequence {
            let i = id.index();
            let p = live_pos[i];
            if p == ABSENT {
                live += 1;
            } else {
                // The conflict set is the live suffix after p, already in
                // recency order. The dead index splits it into tombstone-free
                // spans; each span is one bulk copy into the arena range
                // pass one reserved for this slot.
                let slot = next_slot[i] as usize;
                next_slot[i] += 1;
                let mut w = set_bounds[slot] as usize;
                let mut span = p as usize + 1;
                for &q in &dead[dead.partition_point(|&q| q <= p)..] {
                    let seg = &seq[span..q as usize];
                    ids[w..w + seg.len()].copy_from_slice(seg);
                    w += seg.len();
                    span = q as usize + 1;
                }
                let seg = &seq[span..];
                ids[w..w + seg.len()].copy_from_slice(seg);
                w += seg.len();
                debug_assert_eq!(
                    w,
                    set_bounds[slot + 1] as usize,
                    "pass-one set size and pass-two emission disagree"
                );
                seq[p as usize] = ABSENT;
                dead.insert(dead.partition_point(|&q| q < p), p);
            }
            live_pos[i] = u32::try_from(seq.len()).expect("recency position fits u32");
            seq.push(id.raw());
            // Compact once tombstones could fragment the bulk copies:
            // amortized O(1) per access, and every emission stays within a
            // few spans of the set it writes.
            if dead.len() > live / 256 + 8 {
                let mut w = 0;
                for j in 0..seq.len() {
                    let x = seq[j];
                    if x != ABSENT {
                        live_pos[x as usize] = w as u32;
                        seq[w] = x;
                        w += 1;
                    }
                }
                debug_assert_eq!(w, live, "compaction must retain exactly the live entries");
                seq.truncate(w);
                dead.clear();
            }
        }

        let table = Self {
            ids,
            set_bounds,
            ref_sets,
        };
        #[cfg(debug_assertions)]
        table.debug_self_check(stripped);
        table
    }

    /// Well-formedness self-check run after every debug-profile build (both
    /// builders): one set per non-first occurrence, each duplicate-free,
    /// self-free, and in range. The external `cachedse-check` crate
    /// re-verifies the same invariants (plus full window semantics) from
    /// outside.
    #[cfg(debug_assertions)]
    fn debug_self_check(&self, stripped: &StrippedTrace) {
        debug_assert_eq!(
            self.total_sets(),
            stripped.id_sequence().len() - stripped.unique_len(),
            "MRCT must hold one conflict set per non-first occurrence"
        );
        let n = self.unique_len() as u32;
        // Epoch-stamped membership: stamp[x] == current set number marks x
        // as already seen in this set. Initialized past any epoch in use.
        let mut stamp: Vec<u32> = vec![u32::MAX; self.unique_len()];
        let mut epoch: u32 = 0;
        for (id, sets) in self.iter() {
            let id = id.raw();
            for set in sets {
                for &x in set {
                    debug_assert!(
                        x != id,
                        "conflict set of ref {id} contains the reference itself"
                    );
                    debug_assert!(
                        x < n,
                        "conflict set of ref {id} contains an out-of-range id"
                    );
                    debug_assert!(
                        stamp[x as usize] != epoch,
                        "conflict set of ref {id} contains {x} twice"
                    );
                    stamp[x as usize] = epoch;
                }
                epoch += 1;
            }
        }
    }

    /// The paper's Algorithm 2, verbatim: quadratic, for testing and
    /// documentation.
    ///
    /// For each trace element `R_j`, every other unique reference's pending
    /// set `S_i` gains `R_j`'s identifier; when `R_j = U_i`, the pending set
    /// `S_i` is emitted (skipping the empty set of the first occurrence) and
    /// reset. Duplicates collapse onto their *last* occurrence, which is
    /// recency order — the canonical member order both builders share. The
    /// result is packed into the same CSR arena layout the fast builder
    /// produces, so table equality is plain `==`.
    #[must_use]
    pub fn build_naive(stripped: &StrippedTrace) -> Self {
        let n_unique = stripped.unique_len();
        let mut conflicts: Vec<Vec<Vec<u32>>> = vec![Vec::new(); n_unique];
        let mut pending: Vec<Vec<u32>> = vec![Vec::new(); n_unique];
        let mut seen = vec![false; n_unique];
        let mut in_set = vec![false; n_unique];
        for &id in stripped.id_sequence() {
            let j = id.index();
            if seen[j] {
                let raw = std::mem::take(&mut pending[j]);
                // Keep each member's last occurrence, preserving order: a
                // reversed scan takes first-seen, reversing back restores
                // oldest-last-access-first — recency order.
                let mut set: Vec<u32> = Vec::new();
                for &x in raw.iter().rev() {
                    if !in_set[x as usize] {
                        in_set[x as usize] = true;
                        set.push(x);
                    }
                }
                for &x in &set {
                    in_set[x as usize] = false;
                }
                set.reverse();
                conflicts[j].push(set);
            } else {
                seen[j] = true;
            }
            for (i, s) in pending.iter_mut().enumerate() {
                if i != j && seen[i] {
                    s.push(id.raw());
                }
            }
        }
        let table = Self::from_nested(&conflicts);
        #[cfg(debug_assertions)]
        table.debug_self_check(stripped);
        table
    }

    /// Packs per-reference nested conflict sets into the CSR arena layout.
    fn from_nested(conflicts: &[Vec<Vec<u32>>]) -> Self {
        let total_sets: usize = conflicts.iter().map(Vec::len).sum();
        let total_ids: usize = conflicts
            .iter()
            .flat_map(|sets| sets.iter())
            .map(Vec::len)
            .sum();
        let mut ref_sets: Vec<u32> = Vec::with_capacity(conflicts.len() + 1);
        let mut set_bounds: Vec<u32> = Vec::with_capacity(total_sets + 1);
        let mut ids: Vec<u32> = Vec::with_capacity(total_ids);
        ref_sets.push(0);
        set_bounds.push(0);
        for sets in conflicts {
            for set in sets {
                ids.extend_from_slice(set);
                set_bounds.push(u32::try_from(ids.len()).expect("arena offset fits u32"));
            }
            ref_sets.push((set_bounds.len() - 1) as u32);
        }
        Self {
            ids,
            set_bounds,
            ref_sets,
        }
    }

    /// Number of unique references covered.
    #[must_use]
    pub fn unique_len(&self) -> usize {
        self.ref_sets.len() - 1
    }

    /// The conflict sets of reference `id`, in trace order, each in recency
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn conflict_sets(&self, id: RefId) -> ConflictSets<'_> {
        let lo = self.ref_sets[id.index()] as usize;
        let hi = self.ref_sets[id.index() + 1] as usize;
        ConflictSets {
            ids: &self.ids,
            bounds: &self.set_bounds[lo..=hi],
        }
    }

    /// Total number of conflict sets — equals `N − N'`, one per non-first
    /// occurrence.
    #[must_use]
    pub fn total_sets(&self) -> usize {
        self.set_bounds.len() - 1
    }

    /// Total stored identifiers across all conflict sets (the table's memory
    /// footprint driver).
    #[must_use]
    pub fn total_elements(&self) -> usize {
        self.ids.len()
    }

    /// Iterates `(RefId, conflict sets)` pairs in identifier order.
    pub fn iter(&self) -> impl Iterator<Item = (RefId, ConflictSets<'_>)> {
        (0..self.unique_len()).map(|i| {
            let id = RefId::new(i as u32);
            (id, self.conflict_sets(id))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_trace::rng::SplitMix64;
    use cachedse_trace::{generate, paper_running_example, Address, Record, Trace};

    /// Deterministic random traces for the randomized sweeps below
    /// (formerly proptest properties).
    fn random_traces(seed: u64, cases: usize, addr_space: u32, max_len: usize) -> Vec<Trace> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..cases)
            .map(|_| {
                let len = rng.gen_range(0usize..max_len);
                (0..len)
                    .map(|_| Record::read(Address::new(rng.gen_range(0..addr_space))))
                    .collect()
            })
            .collect()
    }

    fn mrct_of(trace: &Trace) -> Mrct {
        Mrct::build(&StrippedTrace::from_trace(trace))
    }

    fn as_vecs(sets: ConflictSets<'_>) -> Vec<Vec<u32>> {
        sets.iter().map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn paper_table_4() {
        let mrct = mrct_of(&paper_running_example());
        // Table 4 shifted to 0-based ids, members in recency order (by last
        // access inside the reuse window, oldest first).
        assert_eq!(
            as_vecs(mrct.conflict_sets(RefId::new(0))),
            vec![vec![1, 2, 3], vec![4, 1, 3]]
        );
        assert_eq!(
            as_vecs(mrct.conflict_sets(RefId::new(1))),
            vec![vec![2, 3, 0, 4]]
        );
        assert_eq!(
            as_vecs(mrct.conflict_sets(RefId::new(2))),
            vec![vec![4, 1, 3, 0]]
        );
        assert_eq!(
            as_vecs(mrct.conflict_sets(RefId::new(3))),
            vec![vec![0, 4, 1]]
        );
        // 5 (our id 4): single occurrence, no sets.
        assert!(mrct.conflict_sets(RefId::new(4)).is_empty());
        assert_eq!(mrct.total_sets(), 5); // N - N' = 10 - 5
    }

    #[test]
    fn immediate_repeat_has_empty_conflict_set() {
        let trace: Trace = [7u32, 7]
            .into_iter()
            .map(|a| Record::read(Address::new(a)))
            .collect();
        let mrct = mrct_of(&trace);
        assert_eq!(as_vecs(mrct.conflict_sets(RefId::new(0))), vec![Vec::new()]);
    }

    #[test]
    fn empty_trace() {
        let mrct = mrct_of(&Trace::new());
        assert_eq!(mrct.unique_len(), 0);
        assert_eq!(mrct.total_sets(), 0);
        assert_eq!(mrct.total_elements(), 0);
    }

    #[test]
    fn duplicate_interveners_appear_once() {
        // a b b b a: the second a's conflict set is {b}, not {b,b,b}.
        let trace: Trace = [1u32, 2, 2, 2, 1]
            .into_iter()
            .map(|a| Record::read(Address::new(a)))
            .collect();
        let mrct = mrct_of(&trace);
        assert_eq!(as_vecs(mrct.conflict_sets(RefId::new(0))), vec![vec![1]]);
    }

    #[test]
    fn sets_are_in_recency_order() {
        // c b a c: c's reuse window touches b then a, so the set is [b, a]
        // ([1, 2] as ids) — last-access order, not ascending-id order.
        let trace: Trace = [30u32, 20, 10, 30]
            .into_iter()
            .map(|a| Record::read(Address::new(a)))
            .collect();
        let mrct = mrct_of(&trace);
        assert_eq!(as_vecs(mrct.conflict_sets(RefId::new(0))), vec![vec![1, 2]]);
    }

    #[test]
    fn view_accessors_agree() {
        let mrct = mrct_of(&paper_running_example());
        let sets = mrct.conflict_sets(RefId::new(0));
        assert_eq!(sets.len(), 2);
        assert!(!sets.is_empty());
        assert_eq!(sets.get(0), Some(&[1u32, 2, 3][..]));
        assert_eq!(sets.get(2), None);
        assert_eq!(&sets[1], &[4, 1, 3]);
        let collected: Vec<&[u32]> = sets.into_iter().collect();
        assert_eq!(collected, vec![&[1u32, 2, 3][..], &[4, 1, 3][..]]);
        assert_eq!(sets.iter().len(), 2);
    }

    #[test]
    fn naive_matches_fast_on_paper_example() {
        let stripped = StrippedTrace::from_trace(&paper_running_example());
        assert_eq!(Mrct::build(&stripped), Mrct::build_naive(&stripped));
    }

    #[test]
    fn naive_matches_fast_on_workload_shapes() {
        for trace in [
            generate::loop_pattern(0, 16, 10),
            generate::strided(0, 8, 32, 4),
            generate::uniform_random(500, 40, 3),
            generate::working_set_phases(3, 100, 12, 9),
        ] {
            let stripped = StrippedTrace::from_trace(&trace);
            assert_eq!(Mrct::build(&stripped), Mrct::build_naive(&stripped));
        }
    }

    #[test]
    fn naive_matches_fast() {
        for trace in random_traces(0x4AC7, 64, 30, 200) {
            let stripped = StrippedTrace::from_trace(&trace);
            assert_eq!(Mrct::build(&stripped), Mrct::build_naive(&stripped));
        }
    }

    /// Structural invariants: one set per non-first occurrence, distinct,
    /// self-free, and within id range.
    #[test]
    fn structural_invariants() {
        for trace in random_traces(0x57A7, 64, 30, 200) {
            let stripped = StrippedTrace::from_trace(&trace);
            let mrct = Mrct::build(&stripped);

            assert_eq!(
                mrct.total_sets(),
                stripped.total_len() - stripped.unique_len()
            );
            assert_eq!(
                mrct.total_elements(),
                mrct.iter()
                    .flat_map(|(_, sets)| sets.iter().map(<[u32]>::len))
                    .sum::<usize>()
            );
            for (id, sets) in mrct.iter() {
                assert_eq!(
                    sets.len() as u32,
                    stripped.occurrences(id).saturating_sub(1)
                );
                for set in sets {
                    let mut sorted = set.to_vec();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert_eq!(sorted.len(), set.len(), "members are distinct");
                    assert!(!set.contains(&id.raw()), "self-free");
                    assert!(set.iter().all(|&x| (x as usize) < mrct.unique_len()));
                }
            }
        }
    }

    /// Conflict sets really are "distinct refs in the reuse window", in
    /// recency order: check against a direct window scan that keeps each
    /// member's last occurrence.
    #[test]
    fn window_semantics() {
        for trace in random_traces(0x317D0, 64, 20, 120) {
            let stripped = StrippedTrace::from_trace(&trace);
            let mrct = Mrct::build(&stripped);
            let ids = stripped.id_sequence();

            let mut last = std::collections::HashMap::new();
            let mut occurrence_index = vec![0usize; stripped.unique_len()];
            for (t, &id) in ids.iter().enumerate() {
                if let Some(&prev) = last.get(&id) {
                    let mut window: Vec<u32> = Vec::new();
                    for r in ids[prev + 1..t].iter().rev() {
                        let x = r.raw();
                        if x != id.raw() && !window.contains(&x) {
                            window.push(x);
                        }
                    }
                    window.reverse();
                    let k = occurrence_index[id.index()];
                    assert_eq!(&mrct.conflict_sets(id)[k], window.as_slice());
                    occurrence_index[id.index()] += 1;
                }
                last.insert(id, t);
            }
        }
    }
}
