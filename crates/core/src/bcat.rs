//! The Binary Cache Allocation Tree (Algorithm 1, Figure 3 of the paper).
//!
//! Level `l` of the BCAT partitions the unique references onto the `2^l`
//! rows of a depth-`2^l` cache: a node's set is its parent's set split by
//! the next index bit, so the path from the root encodes the row index. The
//! tree stops growing below sets of cardinality < 2 — a reference alone in
//! its row can never conflict, so nothing below such a node affects miss
//! counts.
//!
//! The paper's Figure 3 makes the root the `(Z_0, O_0)` split (depth 2); this
//! implementation adds a level-0 root holding *all* references, which is the
//! degenerate depth-1 cache, so results start at depth 1.
//!
//! # Storage: one permutation arena
//!
//! The observation that makes the tree cheap: level `l`'s node sets are
//! nothing but a *stable partition* of the unique-reference ids by their low
//! `l` address bits, and each level's partition refines the previous one.
//! So the whole tree lives in one flat `Vec<u32>` — the **permutation
//! arena** — holding, level after level, the member ids of that level's
//! nodes, each node a `(offset, len)` range into it (DESIGN.md §13):
//!
//! ```text
//! arena:  [  level 0  |  level 1  |  level 2  | … ]
//!            all ids     ids of      ids of
//!            0..N'-1     splittable  splittable
//!                        parents,    parents,
//!                        bit-0       bit-1
//!                        partitioned partitioned
//! ```
//!
//! Each radix pass reads the previous level's segment and writes the next
//! one (the read/write halves of a `split_at_mut`, the same ping-pong
//! discipline as `dfs::Scratch`): per splittable parent, members with the
//! next index bit 0 stream forward from the range's front and members with
//! bit 1 backward from its back, then the back half is reversed to restore
//! stable (ascending-id) order. Frozen leaves (cardinality < 2) are simply
//! not copied forward, so every level's segment is *output-proportional* —
//! total build cost is `O(N' · bits)` with zero per-node allocation,
//! against `O(2^bits · N'/64)` bitset words for the intersecting builder
//! (kept verbatim as [`Bcat::build_naive`], the differential oracle).
//!
//! Node sets are served as [`SliceSet`] views into the arena: free to
//! create, ascending, and binary-searchable.

use cachedse_bitset::{DenseBitSet, SliceSet};
use cachedse_trace::strip::StrippedTrace;

use crate::postlude::address_table;
use crate::zero_one::ZeroOneSets;

/// "No child" sentinel in the node table; any real node index is smaller.
const NO_CHILD: u32 = u32::MAX;

/// Handle to a node of a [`Bcat`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// The packed per-node record: an arena range plus tree metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RawNode {
    /// Start of the member range in the arena.
    offset: u32,
    /// Member count.
    len: u32,
    /// Tree level.
    level: u32,
    /// Cache row: the low `level` address bits of every member.
    row: u32,
    /// Index of the bit-0 child, or [`NO_CHILD`].
    left: u32,
    /// Index of the bit-1 child, or [`NO_CHILD`].
    right: u32,
}

/// One node of a [`Bcat`]: the references mapping to one row of a
/// `2^level`-row cache, viewed in place in the permutation arena.
#[derive(Clone, Copy, Debug)]
pub struct BcatNode<'a> {
    tree: &'a Bcat,
    raw: &'a RawNode,
}

impl<'a> BcatNode<'a> {
    /// The unique-reference identifiers mapping to this row, as an
    /// ascending slice-backed set view into the permutation arena.
    #[must_use]
    pub fn refs(&self) -> SliceSet<'a> {
        SliceSet::new(self.refs_slice())
    }

    /// The member identifiers as a plain ascending slice.
    #[must_use]
    pub fn refs_slice(&self) -> &'a [u32] {
        let start = self.raw.offset as usize;
        &self.tree.arena[start..start + self.raw.len as usize]
    }

    /// Tree level; the node describes a row of a depth-`2^level` cache.
    #[must_use]
    pub fn level(&self) -> u32 {
        self.raw.level
    }

    /// The cache row this node describes: the low `level` bits of every
    /// member's address.
    #[must_use]
    pub fn row(&self) -> u32 {
        self.raw.row
    }

    /// Child holding members whose next index bit is 0.
    #[must_use]
    pub fn left(&self) -> Option<NodeId> {
        (self.raw.left != NO_CHILD).then_some(NodeId(self.raw.left as usize))
    }

    /// Child holding members whose next index bit is 1.
    #[must_use]
    pub fn right(&self) -> Option<NodeId> {
        (self.raw.right != NO_CHILD).then_some(NodeId(self.raw.right as usize))
    }

    /// `true` if the node was not split further (fewer than two members, or
    /// the index-bit limit was reached).
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        self.raw.left == NO_CHILD && self.raw.right == NO_CHILD
    }
}

/// The Binary Cache Allocation Tree.
///
/// # Examples
///
/// ```
/// use cachedse_core::{Bcat, ZeroOneSets};
/// use cachedse_trace::{paper_running_example, strip::StrippedTrace};
///
/// let stripped = StrippedTrace::from_trace(&paper_running_example());
/// let bcat = Bcat::build(&ZeroOneSets::from_stripped(&stripped), 4);
///
/// // Figure 3, first split (0-based ids): Z0 side {1,2,4}, O0 side {0,3}.
/// let level1: Vec<Vec<usize>> = bcat
///     .nodes_at(1)
///     .map(|n| n.refs().ones().collect())
///     .collect();
/// assert_eq!(level1, vec![vec![1, 2, 4], vec![0, 3]]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bcat {
    /// The permutation arena: per level, the member ids of that level's
    /// nodes, concatenated in node order; each node's range is ascending.
    arena: Vec<u32>,
    /// Every node, level by level (children in parent order, left before
    /// right — the same enumeration Algorithm 1 produces).
    nodes: Vec<RawNode>,
    /// CSR level offsets into `nodes`: level `l` owns
    /// `nodes[level_nodes[l] .. level_nodes[l + 1]]`.
    level_nodes: Vec<u32>,
    /// Number of unique references the tree partitions.
    unique_len: usize,
}

impl Bcat {
    /// Builds the tree, splitting by index bits `B_0 … B_{max_index_bits−1}`
    /// (or fewer if the addresses have fewer significant bits).
    ///
    /// The zero/one sets only enter as the source of each reference's
    /// address bits (recovered word-by-word from the `O_i` columns); the
    /// build itself is the radix partition of
    /// [`from_stripped`](Self::from_stripped), not Algorithm 1's
    /// cross-intersections — those live on in
    /// [`build_naive`](Self::build_naive).
    #[must_use]
    pub fn build(zo: &ZeroOneSets, max_index_bits: u32) -> Self {
        Self::build_from_addrs(&zo.reconstruct_addresses(), zo.bits(), max_index_bits)
    }

    /// Builds the tree straight from a stripped trace: the primary path,
    /// reading each reference's address with no intermediate sets at all.
    #[must_use]
    pub fn from_stripped(stripped: &StrippedTrace, max_index_bits: u32) -> Self {
        let addrs = address_table(stripped);
        Self::build_from_addrs(&addrs, stripped.address_bits(), max_index_bits)
    }

    /// The radix core: one stable LSD partition pass per index bit.
    ///
    /// `addrs[id]` is the address of unique reference `id`. Each pass reads
    /// the previous level's arena segment and writes the next through
    /// `split_at_mut` — the ping (`src`) and pong (`dst`) halves of the one
    /// arena — copying forward only members of splittable (≥ 2) parents.
    fn build_from_addrs(addrs: &[u32], address_bits: u32, max_index_bits: u32) -> Self {
        let bits = address_bits.min(max_index_bits);
        let n = addrs.len();
        // Level 0: the identity permutation — all references in one row.
        let mut arena: Vec<u32> = (0..n as u32).collect();
        let mut nodes = vec![RawNode {
            offset: 0,
            len: n as u32,
            level: 0,
            row: 0,
            left: NO_CHILD,
            right: NO_CHILD,
        }];
        let mut level_nodes: Vec<u32> = vec![0, 1];

        for l in 0..bits {
            let parents = level_nodes[l as usize] as usize..level_nodes[l as usize + 1] as usize;
            let next_len: usize = nodes[parents.clone()]
                .iter()
                .filter(|nd| nd.len >= 2)
                .map(|nd| nd.len as usize)
                .sum();
            if next_len == 0 {
                // No node of this level can split: every deeper level would
                // be all-singleton and contributes no misses.
                break;
            }
            let write_start = arena.len();
            arena.resize(write_start + next_len, 0);
            let (src, dst) = arena.split_at_mut(write_start);
            let mut cursor = 0usize;
            for idx in parents {
                let parent = nodes[idx];
                if parent.len < 2 {
                    continue;
                }
                let members = &src[parent.offset as usize..(parent.offset + parent.len) as usize];
                let chunk = &mut dst[cursor..cursor + parent.len as usize];
                // Stable partition by bit `l`: zeros forward from the
                // front, ones backward from the back, back half reversed
                // to restore ascending order (the `dfs::sweep` discipline).
                let mut lo = 0;
                let mut hi = chunk.len();
                for &id in members {
                    if (addrs[id as usize] >> l) & 1 == 0 {
                        chunk[lo] = id;
                        lo += 1;
                    } else {
                        hi -= 1;
                        chunk[hi] = id;
                    }
                }
                chunk[lo..].reverse();
                let base = (write_start + cursor) as u32;
                let left = nodes.len() as u32;
                nodes.push(RawNode {
                    offset: base,
                    len: lo as u32,
                    level: l + 1,
                    row: parent.row,
                    left: NO_CHILD,
                    right: NO_CHILD,
                });
                nodes.push(RawNode {
                    offset: base + lo as u32,
                    len: parent.len - lo as u32,
                    level: l + 1,
                    row: parent.row | (1 << l),
                    left: NO_CHILD,
                    right: NO_CHILD,
                });
                nodes[idx].left = left;
                nodes[idx].right = left + 1;
                cursor += parent.len as usize;
            }
            level_nodes.push(nodes.len() as u32);
        }

        let tree = Self {
            arena,
            nodes,
            level_nodes,
            unique_len: n,
        };
        #[cfg(debug_assertions)]
        tree.debug_self_check(addrs);
        tree
    }

    /// Algorithm 1 verbatim: per-node bitset cross-intersections against
    /// the zero/one sets, packed into the same arena representation.
    ///
    /// `O(2^bits · N'/64)` words — kept as executable documentation and as
    /// the oracle the radix builder is differentially tested against
    /// (`tests/bcat_differential.rs` asserts full `==`, i.e. identical
    /// level sets, node order, child links, and arena layout).
    #[must_use]
    pub fn build_naive(zo: &ZeroOneSets, max_index_bits: u32) -> Self {
        struct NaiveNode {
            refs: DenseBitSet,
            level: u32,
            row: u32,
            left: u32,
            right: u32,
        }
        let bits = zo.bits().min(max_index_bits);
        let root_refs: DenseBitSet = (0..zo.unique_len()).collect();
        let mut nodes = vec![NaiveNode {
            refs: root_refs,
            level: 0,
            row: 0,
            left: NO_CHILD,
            right: NO_CHILD,
        }];
        let mut levels = vec![vec![0usize]];
        for l in 0..bits {
            let mut next = Vec::new();
            for &idx in &levels[l as usize] {
                if nodes[idx].refs.len() < 2 {
                    continue;
                }
                let left_refs = nodes[idx].refs.intersection(zo.zero(l));
                let right_refs = nodes[idx].refs.intersection(zo.one(l));
                let row = nodes[idx].row;
                let left = nodes.len();
                nodes.push(NaiveNode {
                    refs: left_refs,
                    level: l + 1,
                    row,
                    left: NO_CHILD,
                    right: NO_CHILD,
                });
                nodes.push(NaiveNode {
                    refs: right_refs,
                    level: l + 1,
                    row: row | (1 << l),
                    left: NO_CHILD,
                    right: NO_CHILD,
                });
                nodes[idx].left = left as u32;
                nodes[idx].right = left as u32 + 1;
                next.push(left);
                next.push(left + 1);
            }
            if next.is_empty() {
                break;
            }
            levels.push(next);
        }

        // Pack into the arena form. Node creation order is level order, so
        // appending each node's ascending members reproduces the radix
        // arena byte for byte.
        let mut arena = Vec::with_capacity(nodes.iter().map(|nd| nd.refs.len()).sum());
        let mut packed = Vec::with_capacity(nodes.len());
        for node in &nodes {
            let offset = arena.len() as u32;
            arena.extend(node.refs.ones().map(|r| r as u32));
            packed.push(RawNode {
                offset,
                len: node.refs.len() as u32,
                level: node.level,
                row: node.row,
                left: node.left,
                right: node.right,
            });
        }
        let mut level_nodes = vec![0u32];
        for level in &levels {
            level_nodes.push(level_nodes.last().unwrap() + level.len() as u32);
        }
        Self {
            arena,
            nodes: packed,
            level_nodes,
            unique_len: zo.unique_len(),
        }
    }

    /// Structural self-check run after every debug-profile radix build:
    /// member order is ascending, every member's low address bits spell the
    /// node's row, splits are lossless with the Figure 3 child-row pattern,
    /// and growth stops exactly below cardinality 2. The external
    /// `cachedse-check` crate re-verifies the same invariants from outside.
    #[cfg(debug_assertions)]
    fn debug_self_check(&self, addrs: &[u32]) {
        debug_assert_eq!(*self.level_nodes.last().unwrap() as usize, self.nodes.len());
        for (idx, node) in self.nodes.iter().enumerate() {
            let members = &self.arena[node.offset as usize..(node.offset + node.len) as usize];
            debug_assert!(
                members.windows(2).all(|w| w[0] < w[1]),
                "BCAT node at level {} row {} is not ascending",
                node.level,
                node.row
            );
            let mask = (1u64 << node.level) - 1;
            for &id in members {
                debug_assert_eq!(
                    u64::from(addrs[id as usize]) & mask,
                    u64::from(node.row),
                    "BCAT member {id} does not index row {} at level {}",
                    node.row,
                    node.level
                );
            }
            match (node.left, node.right) {
                (NO_CHILD, NO_CHILD) => debug_assert!(
                    node.len < 2 || node.level + 1 == self.levels(),
                    "BCAT node at level {} row {} stopped growing with {} members",
                    node.level,
                    node.row,
                    node.len
                ),
                (left, right) if left != NO_CHILD && right != NO_CHILD => {
                    let (left, right) = (&self.nodes[left as usize], &self.nodes[right as usize]);
                    debug_assert_eq!(
                        left.len + right.len,
                        node.len,
                        "BCAT split of level {} row {} loses references",
                        node.level,
                        node.row
                    );
                    debug_assert_eq!(left.row, node.row);
                    debug_assert_eq!(right.row, node.row | (1 << node.level));
                }
                _ => debug_assert!(false, "BCAT node {idx} with exactly one child"),
            }
        }
    }

    /// The root node (level 0: the depth-1 cache, all references in one row).
    #[must_use]
    pub fn root(&self) -> BcatNode<'_> {
        BcatNode {
            tree: self,
            raw: &self.nodes[0],
        }
    }

    /// Number of levels materialized (level indices `0..levels()`).
    ///
    /// Levels where every node would be a singleton are not materialized;
    /// their miss counts are zero at any associativity.
    #[must_use]
    pub fn levels(&self) -> u32 {
        (self.level_nodes.len() - 1) as u32
    }

    /// Total number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of unique references the tree partitions.
    #[must_use]
    pub fn unique_len(&self) -> usize {
        self.unique_len
    }

    /// Total length of the permutation arena: the sum over materialized
    /// levels of the references still in splittable rows — the
    /// output-proportional size the build cost follows.
    #[must_use]
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Resolves a node handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    #[must_use]
    pub fn node(&self, id: NodeId) -> BcatNode<'_> {
        BcatNode {
            tree: self,
            raw: &self.nodes[id.0],
        }
    }

    /// Iterates over the nodes at `level`, in Algorithm 1's enumeration
    /// order (empty for levels beyond [`levels`](Self::levels)).
    pub fn nodes_at(&self, level: u32) -> impl Iterator<Item = BcatNode<'_>> {
        let range = match self.level_nodes.get(level as usize..level as usize + 2) {
            Some(&[start, end]) => start as usize..end as usize,
            _ => 0..0,
        };
        self.nodes[range]
            .iter()
            .map(|raw| BcatNode { tree: self, raw })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_trace::rng::SplitMix64;
    use cachedse_trace::{paper_running_example, Address, Record, Trace};

    fn bcat_of(trace: &Trace, bits: u32) -> (StrippedTrace, Bcat) {
        let stripped = StrippedTrace::from_trace(trace);
        let bcat = Bcat::from_stripped(&stripped, bits);
        (stripped, bcat)
    }

    fn sets_at(bcat: &Bcat, level: u32) -> Vec<Vec<usize>> {
        bcat.nodes_at(level)
            .map(|n| n.refs().ones().collect())
            .collect()
    }

    #[test]
    fn paper_figure_3() {
        let (_, bcat) = bcat_of(&paper_running_example(), 4);
        // Paper ids 1..=5 are our 0..=4.
        assert_eq!(sets_at(&bcat, 0), vec![vec![0, 1, 2, 3, 4]]);
        assert_eq!(sets_at(&bcat, 1), vec![vec![1, 2, 4], vec![0, 3]]);
        // Level 2 (Figure 3): {2,5},{3} under the zero side; {},{1,4} under
        // the one side -> 0-based {1,4},{2},{},{0,3}.
        assert_eq!(
            sets_at(&bcat, 2),
            vec![vec![1, 4], vec![2], vec![], vec![0, 3]]
        );
        // Level 3: only {1,4} and {0,3} split: {},{1,4} and {0,3},{}.
        assert_eq!(
            sets_at(&bcat, 3),
            vec![vec![], vec![1, 4], vec![0, 3], vec![]]
        );
        // Level 4 (Figure 3 leaves): {5},{2} and {4},{1} -> 0-based.
        assert_eq!(sets_at(&bcat, 4), vec![vec![4], vec![1], vec![3], vec![0]]);
        assert_eq!(bcat.levels(), 5);
    }

    #[test]
    fn rows_match_address_bits() {
        let (stripped, bcat) = bcat_of(&paper_running_example(), 4);
        for level in 0..bcat.levels() {
            let mask = (1u32 << level) - 1;
            for node in bcat.nodes_at(level) {
                for id in node.refs().ones() {
                    let addr = stripped.address_of(cachedse_trace::strip::RefId::new(id as u32));
                    assert_eq!(addr.raw() & mask, node.row(), "level {level}");
                }
            }
        }
    }

    #[test]
    fn navigation() {
        let (_, bcat) = bcat_of(&paper_running_example(), 4);
        let root = bcat.root();
        assert_eq!(root.level(), 0);
        assert!(!root.is_leaf());
        let left = bcat.node(root.left().unwrap());
        let right = bcat.node(root.right().unwrap());
        assert_eq!(left.refs().ones().collect::<Vec<_>>(), vec![1, 2, 4]);
        assert_eq!(right.refs().ones().collect::<Vec<_>>(), vec![0, 3]);
        // Singleton node {2} at level 2 is a leaf.
        let singleton = bcat.nodes_at(2).find(|n| n.refs().len() == 1).unwrap();
        assert!(singleton.is_leaf());
    }

    #[test]
    fn respects_max_index_bits() {
        let (_, bcat) = bcat_of(&paper_running_example(), 1);
        assert_eq!(bcat.levels(), 2);
        assert_eq!(sets_at(&bcat, 1), vec![vec![1, 2, 4], vec![0, 3]]);
        assert!(bcat.nodes_at(2).next().is_none());
    }

    #[test]
    fn empty_trace_tree() {
        let (_, bcat) = bcat_of(&Trace::new(), 8);
        assert_eq!(bcat.levels(), 1);
        assert!(bcat.root().refs().is_empty());
        assert!(bcat.root().is_leaf());
    }

    #[test]
    fn single_reference_tree() {
        let trace: Trace = [Record::read(Address::new(42))].into_iter().collect();
        let (_, bcat) = bcat_of(&trace, 8);
        assert_eq!(bcat.levels(), 1);
        assert_eq!(bcat.root().refs().len(), 1);
    }

    /// The zero/one-set entry point produces the same tree as the
    /// stripped-trace entry point (the address reconstruction round-trips).
    #[test]
    fn build_from_zero_one_sets_matches_from_stripped() {
        let mut rng = SplitMix64::seed_from_u64(0x20);
        for _ in 0..32 {
            let len = rng.gen_range(1usize..120);
            let trace: Trace = (0..len)
                .map(|_| Record::read(Address::new(rng.gen_range(0u32..777))))
                .collect();
            let stripped = StrippedTrace::from_trace(&trace);
            let zo = ZeroOneSets::from_stripped(&stripped);
            let bits = rng.gen_range(1u32..12);
            assert_eq!(Bcat::build(&zo, bits), Bcat::from_stripped(&stripped, bits));
        }
    }

    /// Nodes at each level are disjoint, rows are unique, children
    /// partition their parent, and every member's address matches the row.
    /// Deterministic randomized sweep (formerly a proptest property).
    #[test]
    fn structural_invariants() {
        let mut rng = SplitMix64::seed_from_u64(0xBCA7);
        for _ in 0..64 {
            let len = rng.gen_range(1usize..150);
            let addrs: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..512)).collect();
            let max_bits = rng.gen_range(1u32..10);
            let trace: Trace = addrs
                .iter()
                .map(|&a| Record::read(Address::new(a)))
                .collect();
            let (stripped, bcat) = bcat_of(&trace, max_bits);

            for level in 0..bcat.levels() {
                let mask = (1u64 << level) - 1;
                let mut seen_rows = std::collections::HashSet::new();
                let mut seen_refs = std::collections::HashSet::new();
                for node in bcat.nodes_at(level) {
                    assert!(seen_rows.insert(node.row()));
                    for id in node.refs().ones() {
                        assert!(seen_refs.insert(id), "ref in two rows");
                        let addr =
                            stripped.address_of(cachedse_trace::strip::RefId::new(id as u32));
                        assert_eq!(u64::from(addr.raw()) & mask, u64::from(node.row()));
                    }
                    if let (Some(l), Some(r)) = (node.left(), node.right()) {
                        let l = bcat.node(l);
                        let r = bcat.node(r);
                        assert!(l.refs().is_disjoint(&r.refs()));
                        let mut merged: Vec<u32> = l.refs_slice().to_vec();
                        merged.extend_from_slice(r.refs_slice());
                        merged.sort_unstable();
                        assert_eq!(merged, node.refs_slice());
                    } else {
                        // Leaves inside the bit range must be too small to split.
                        if node.level() < bcat.levels() - 1 {
                            assert!(node.refs().len() < 2);
                        }
                    }
                }
            }
        }
    }
}
