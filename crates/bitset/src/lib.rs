//! Dense bitsets tuned for the set algebra of analytical cache design space
//! exploration.
//!
//! The analytical cache-exploration algorithm of Ghosh & Givargis (DATE 2003)
//! is built almost entirely out of set operations over *unique memory
//! reference identifiers*: the zero/one sets of Table 3, the BCAT node sets of
//! Figure 3, and the conflict sets of the MRCT (Table 4) are all subsets of
//! `{0, 1, …, N'−1}` where `N'` is the number of unique references. Section
//! 2.4 of the paper notes that "the extensive use of sets in our technique is
//! due to the fact that sets are efficient to represent, store, and manipulate
//! on a computer system using bit vectors" — this crate is that bit-vector
//! representation.
//!
//! [`DenseBitSet`] stores membership in packed `u64` words and provides the
//! operations the algorithm is hot on:
//!
//! * [`intersection_count`](DenseBitSet::intersection_count) — `|S ∩ C|`
//!   without allocating, the inner loop of the paper's Algorithm 3;
//! * in-place and allocating intersection/union/difference — Algorithm 1's
//!   `Z ∩ Z_l` style cross intersections;
//! * ordered iteration over members ([`DenseBitSet::ones`]).
//!
//! # Examples
//!
//! ```
//! use cachedse_bitset::DenseBitSet;
//!
//! // The zero/one sets of the paper's running example (Table 3), bit B0:
//! // Z0 = {2, 3, 5}, O0 = {1, 4}  (reference identifiers).
//! let z0: DenseBitSet = [2, 3, 5].into_iter().collect();
//! let o0: DenseBitSet = [1, 4].into_iter().collect();
//!
//! assert_eq!(z0.len(), 3);
//! assert!(z0.is_disjoint(&o0));
//! assert_eq!(z0.intersection_count(&o0), 0);
//!
//! let all = z0.union(&o0);
//! assert_eq!(all.ones().collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::FromIterator;
use std::ops::{BitAnd, BitOr, Sub};

const WORD_BITS: usize = 64;

#[inline]
fn word_index(bit: usize) -> (usize, u32) {
    (bit / WORD_BITS, (bit % WORD_BITS) as u32)
}

/// A growable set of `usize` values stored as a dense bit vector.
///
/// Membership of value `v` costs one word load; intersection counting over two
/// sets costs one pass of `AND` + popcount over the shorter word array and
/// allocates nothing. Values are unbounded above: the set grows automatically
/// on [`insert`](Self::insert).
///
/// Two sets compare equal iff they contain the same values, regardless of
/// their internal capacities.
///
/// # Examples
///
/// ```
/// use cachedse_bitset::DenseBitSet;
///
/// let mut s = DenseBitSet::new();
/// assert!(s.insert(3));
/// assert!(!s.insert(3));
/// assert!(s.contains(3));
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Clone, Default)]
pub struct DenseBitSet {
    words: Vec<u64>,
    /// Cached number of set bits; maintained by every mutating operation.
    ones: usize,
}

impl DenseBitSet {
    /// Creates an empty set.
    ///
    /// # Examples
    ///
    /// ```
    /// let s = cachedse_bitset::DenseBitSet::new();
    /// assert!(s.is_empty());
    /// ```
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set with room for values `0..bits` without
    /// reallocation.
    ///
    /// # Examples
    ///
    /// ```
    /// let s = cachedse_bitset::DenseBitSet::with_capacity(1000);
    /// assert!(s.capacity() >= 1000);
    /// assert!(s.is_empty());
    /// ```
    #[must_use]
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: vec![0; bits.div_ceil(WORD_BITS)],
            ones: 0,
        }
    }

    /// Number of values the set can hold without growing.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.words.len() * WORD_BITS
    }

    /// Builds a set directly from packed words (bit `i` of word `w` encodes
    /// membership of value `w * 64 + i`). The member count is derived by one
    /// popcount pass; trailing zero words are permitted (capacity never
    /// affects comparisons).
    ///
    /// This is the word-parallel construction path: producers that already
    /// hold a whole membership column as machine words (the zero/one set
    /// transpose, complements against a validity mask) hand it over without
    /// `n` single-bit inserts.
    ///
    /// # Examples
    ///
    /// ```
    /// use cachedse_bitset::DenseBitSet;
    ///
    /// let s = DenseBitSet::from_words(vec![0b1001, 1]);
    /// assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 3, 64]);
    /// let t: DenseBitSet = [0, 3, 64].into_iter().collect();
    /// assert_eq!(s, t);
    /// ```
    #[must_use]
    pub fn from_words(words: Vec<u64>) -> Self {
        let ones = words.iter().map(|w| w.count_ones() as usize).sum();
        Self { words, ones }
    }

    /// Number of values in the set. O(1): the count is cached.
    ///
    /// # Examples
    ///
    /// ```
    /// let s: cachedse_bitset::DenseBitSet = [1, 4, 9].into_iter().collect();
    /// assert_eq!(s.len(), 3);
    /// ```
    #[must_use]
    pub fn len(&self) -> usize {
        self.ones
    }

    /// Returns `true` if the set contains no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// Removes all values, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.ones = 0;
    }

    /// Ensures the set can represent values `0..bits` without further
    /// allocation.
    pub fn grow(&mut self, bits: usize) {
        let needed = bits.div_ceil(WORD_BITS);
        if needed > self.words.len() {
            self.words.resize(needed, 0);
        }
    }

    /// Adds `value` to the set. Returns `true` if it was newly inserted.
    ///
    /// # Examples
    ///
    /// ```
    /// let mut s = cachedse_bitset::DenseBitSet::new();
    /// assert!(s.insert(7));
    /// assert!(!s.insert(7));
    /// ```
    pub fn insert(&mut self, value: usize) -> bool {
        let (w, b) = word_index(value);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        let newly = self.words[w] & mask == 0;
        self.words[w] |= mask;
        self.ones += usize::from(newly);
        newly
    }

    /// Removes `value` from the set. Returns `true` if it was present.
    pub fn remove(&mut self, value: usize) -> bool {
        let (w, b) = word_index(value);
        if w >= self.words.len() {
            return false;
        }
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        self.ones -= usize::from(present);
        present
    }

    /// Returns `true` if `value` is in the set.
    #[must_use]
    pub fn contains(&self, value: usize) -> bool {
        let (w, b) = word_index(value);
        self.words.get(w).is_some_and(|&word| word & (1 << b) != 0)
    }

    /// Number of values in `self ∩ other`, computed without allocation.
    ///
    /// This is the hot operation of the postlude phase (Algorithm 3 of the
    /// paper), which tests `|S ∩ C| ≥ A` once per conflict set per node.
    ///
    /// # Examples
    ///
    /// ```
    /// use cachedse_bitset::DenseBitSet;
    /// let s: DenseBitSet = [1, 4].into_iter().collect();
    /// let c: DenseBitSet = [2, 3, 4].into_iter().collect();
    /// assert_eq!(s.intersection_count(&c), 1);
    /// ```
    #[must_use]
    pub fn intersection_count(&self, other: &Self) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Returns `true` if the two sets share no values.
    #[must_use]
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Returns `true` if every value of `self` is in `other`.
    #[must_use]
    pub fn is_subset(&self, other: &Self) -> bool {
        self.words.iter().enumerate().all(|(i, &a)| {
            let b = other.words.get(i).copied().unwrap_or(0);
            a & !b == 0
        })
    }

    /// Replaces `self` with `self ∩ other`.
    pub fn intersect_with(&mut self, other: &Self) {
        for (i, word) in self.words.iter_mut().enumerate() {
            *word &= other.words.get(i).copied().unwrap_or(0);
        }
        self.recount();
    }

    /// Replaces `self` with `self ∪ other`.
    pub fn union_with(&mut self, other: &Self) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (word, &o) in self.words.iter_mut().zip(&other.words) {
            *word |= o;
        }
        self.recount();
    }

    /// Replaces `self` with `self ∖ other`.
    pub fn difference_with(&mut self, other: &Self) {
        for (word, &o) in self.words.iter_mut().zip(&other.words) {
            *word &= !o;
        }
        self.recount();
    }

    /// Returns `self ∩ other` as a new set.
    ///
    /// # Examples
    ///
    /// ```
    /// use cachedse_bitset::DenseBitSet;
    /// // Algorithm 1 of the paper: L00 = Z0 ∩ Z1 = {2, 5}.
    /// let z0: DenseBitSet = [2, 3, 5].into_iter().collect();
    /// let z1: DenseBitSet = [2, 5].into_iter().collect();
    /// let l00 = z0.intersection(&z1);
    /// assert_eq!(l00.ones().collect::<Vec<_>>(), vec![2, 5]);
    /// ```
    #[must_use]
    pub fn intersection(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Returns `self ∪ other` as a new set.
    #[must_use]
    pub fn union(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Returns `self ∖ other` as a new set.
    #[must_use]
    pub fn difference(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// Iterates over the values of the set in ascending order.
    ///
    /// # Examples
    ///
    /// ```
    /// let s: cachedse_bitset::DenseBitSet = [65, 0, 64].into_iter().collect();
    /// assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 64, 65]);
    /// ```
    #[must_use]
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word: self.words.first().copied().unwrap_or(0),
            index: 0,
        }
    }

    /// Smallest value in the set, or `None` if empty.
    #[must_use]
    pub fn first(&self) -> Option<usize> {
        self.ones().next()
    }

    /// Largest value in the set, or `None` if empty.
    #[must_use]
    pub fn last(&self) -> Option<usize> {
        self.words
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * WORD_BITS + (WORD_BITS - 1 - w.leading_zeros() as usize))
    }

    fn recount(&mut self) {
        self.ones = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// Words with trailing zero words trimmed; the canonical form used by
    /// `Eq`/`Ord`/`Hash` so that capacity does not affect comparisons.
    fn trimmed(&self) -> &[u64] {
        let mut end = self.words.len();
        while end > 0 && self.words[end - 1] == 0 {
            end -= 1;
        }
        &self.words[..end]
    }
}

impl PartialEq for DenseBitSet {
    fn eq(&self, other: &Self) -> bool {
        self.trimmed() == other.trimmed()
    }
}

impl Eq for DenseBitSet {}

impl PartialOrd for DenseBitSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DenseBitSet {
    /// Lexicographic order over the ascending member sequence.
    fn cmp(&self, other: &Self) -> Ordering {
        self.ones().cmp(other.ones())
    }
}

impl Hash for DenseBitSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.trimmed().hash(state);
    }
}

impl fmt::Debug for DenseBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.ones()).finish()
    }
}

impl fmt::Display for DenseBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.ones().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for DenseBitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = Self::new();
        set.extend(iter);
        set
    }
}

impl Extend<usize> for DenseBitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<'a> IntoIterator for &'a DenseBitSet {
    type Item = usize;
    type IntoIter = Ones<'a>;

    fn into_iter(self) -> Ones<'a> {
        self.ones()
    }
}

impl BitAnd for &DenseBitSet {
    type Output = DenseBitSet;

    fn bitand(self, rhs: &DenseBitSet) -> DenseBitSet {
        self.intersection(rhs)
    }
}

impl BitOr for &DenseBitSet {
    type Output = DenseBitSet;

    fn bitor(self, rhs: &DenseBitSet) -> DenseBitSet {
        self.union(rhs)
    }
}

impl Sub for &DenseBitSet {
    type Output = DenseBitSet;

    fn sub(self, rhs: &DenseBitSet) -> DenseBitSet {
        self.difference(rhs)
    }
}

/// Ascending iterator over the values of a [`DenseBitSet`], returned by
/// [`DenseBitSet::ones`].
#[derive(Clone, Debug)]
pub struct Ones<'a> {
    words: &'a [u64],
    word: u64,
    index: usize,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.index += 1;
            self.word = *self.words.get(self.index)?;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.index * WORD_BITS + bit)
    }
}

/// A borrowed set view over an ascending slice of `u32` identifiers.
///
/// This is the zero-copy counterpart of [`DenseBitSet`] for producers that
/// keep their sets as sorted ranges of a flat arena (the BCAT permutation
/// arena, CSR-style layouts): the view costs nothing to create, membership
/// is a binary search, and iteration walks the slice directly. The member
/// API deliberately mirrors `DenseBitSet` (`len`, `is_empty`, `contains`,
/// `ones`) so call sites can switch representations without rewriting.
///
/// # Examples
///
/// ```
/// use cachedse_bitset::SliceSet;
///
/// let arena = [0u32, 2, 3, 7, 9, 10];
/// let s = SliceSet::new(&arena[1..4]); // the range {2, 3, 7}
/// assert_eq!(s.len(), 3);
/// assert!(s.contains(3));
/// assert!(!s.contains(9));
/// assert_eq!(s.ones().collect::<Vec<_>>(), vec![2, 3, 7]);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceSet<'a> {
    ids: &'a [u32],
}

impl<'a> SliceSet<'a> {
    /// Wraps a strictly ascending slice of identifiers.
    ///
    /// The ordering is the caller's contract (checked in debug builds):
    /// `contains` relies on it for binary search.
    #[must_use]
    pub fn new(ids: &'a [u32]) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "SliceSet members must be strictly ascending"
        );
        Self { ids }
    }

    /// Number of values in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if the set holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether `value` is a member (binary search over the sorted slice).
    #[must_use]
    pub fn contains(&self, value: usize) -> bool {
        u32::try_from(value).is_ok_and(|v| self.ids.binary_search(&v).is_ok())
    }

    /// Iterates over the values in ascending order, as `usize` (mirrors
    /// [`DenseBitSet::ones`]).
    #[must_use]
    pub fn ones(&self) -> SliceOnes<'a> {
        SliceOnes {
            ids: self.ids.iter(),
        }
    }

    /// The underlying ascending identifier slice.
    #[must_use]
    pub fn as_slice(&self) -> &'a [u32] {
        self.ids
    }

    /// Whether the two views share no member (merge walk, no allocation).
    #[must_use]
    pub fn is_disjoint(&self, other: &SliceSet<'_>) -> bool {
        let (mut a, mut b) = (self.ids.iter().peekable(), other.ids.iter().peekable());
        while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
            match x.cmp(&y) {
                Ordering::Less => {
                    a.next();
                }
                Ordering::Greater => {
                    b.next();
                }
                Ordering::Equal => return false,
            }
        }
        true
    }

    /// Copies the view into an owned [`DenseBitSet`].
    #[must_use]
    pub fn to_dense(&self) -> DenseBitSet {
        self.ones().collect()
    }
}

impl<'a> IntoIterator for SliceSet<'a> {
    type Item = usize;
    type IntoIter = SliceOnes<'a>;

    fn into_iter(self) -> SliceOnes<'a> {
        self.ones()
    }
}

/// Ascending iterator over the values of a [`SliceSet`], returned by
/// [`SliceSet::ones`].
#[derive(Clone, Debug)]
pub struct SliceOnes<'a> {
    ids: std::slice::Iter<'a, u32>,
}

impl Iterator for SliceOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.ids.next().map(|&v| v as usize)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for SliceOnes<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Local SplitMix64 (this crate is dependency-free by design, so the
    /// shared `cachedse_trace::rng` is out of reach; same algorithm, same
    /// constants).
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: usize) -> usize {
            ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
        }

        fn coin(&mut self) -> bool {
            self.next_u64() & 1 == 1
        }

        fn random_set(&mut self, universe: usize, max_len: usize) -> BTreeSet<usize> {
            (0..self.below(max_len))
                .map(|_| self.below(universe))
                .collect()
        }
    }

    fn set_of(values: &[usize]) -> DenseBitSet {
        values.iter().copied().collect()
    }

    #[test]
    fn new_is_empty() {
        let s = DenseBitSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.ones().count(), 0);
        assert_eq!(s.first(), None);
        assert_eq!(s.last(), None);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = DenseBitSet::new();
        assert!(s.insert(100));
        assert!(!s.insert(100));
        assert!(s.contains(100));
        assert!(!s.contains(99));
        assert_eq!(s.len(), 1);
        assert!(s.remove(100));
        assert!(!s.remove(100));
        assert!(s.is_empty());
    }

    #[test]
    fn remove_beyond_capacity_is_noop() {
        let mut s = set_of(&[1]);
        assert!(!s.remove(10_000));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn word_boundaries() {
        let mut s = DenseBitSet::new();
        for v in [0, 63, 64, 127, 128] {
            assert!(s.insert(v));
        }
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128]);
        assert_eq!(s.first(), Some(0));
        assert_eq!(s.last(), Some(128));
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = DenseBitSet::with_capacity(1024);
        a.insert(3);
        let b = set_of(&[3]);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn paper_running_example_cross_intersections() {
        // Table 3 / Section 2.3: L00 = Z0 ∩ Z1 = {2,5}, L01 = Z0 ∩ O1 = {3},
        // L10 = O0 ∩ Z1 = {}, L11 = O0 ∩ O1 = {1,4}.
        let z0 = set_of(&[2, 3, 5]);
        let o0 = set_of(&[1, 4]);
        let z1 = set_of(&[2, 5]);
        let o1 = set_of(&[1, 3, 4]);
        assert_eq!(z0.intersection(&z1), set_of(&[2, 5]));
        assert_eq!(z0.intersection(&o1), set_of(&[3]));
        assert_eq!(o0.intersection(&z1), DenseBitSet::new());
        assert_eq!(o0.intersection(&o1), set_of(&[1, 4]));
    }

    #[test]
    fn intersection_count_matches_materialized() {
        let s = set_of(&[1, 4]);
        let c1 = set_of(&[2, 3, 4]);
        let c2 = set_of(&[2, 4, 5]);
        assert_eq!(s.intersection_count(&c1), 1);
        assert_eq!(s.intersection_count(&c2), 1);
        assert_eq!(s.intersection(&c1).len(), 1);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = set_of(&[1, 2]);
        let b = set_of(&[1, 2, 3]);
        let c = set_of(&[4, 5]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        assert!(DenseBitSet::new().is_subset(&a));
        assert!(DenseBitSet::new().is_disjoint(&DenseBitSet::new()));
    }

    #[test]
    fn subset_respects_values_beyond_other_capacity() {
        let a = set_of(&[100]);
        let b = set_of(&[1]);
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn operators() {
        let a = set_of(&[1, 2, 3]);
        let b = set_of(&[3, 4]);
        assert_eq!(&a & &b, set_of(&[3]));
        assert_eq!(&a | &b, set_of(&[1, 2, 3, 4]));
        assert_eq!(&a - &b, set_of(&[1, 2]));
    }

    #[test]
    fn display_and_debug() {
        let s = set_of(&[5, 2]);
        assert_eq!(s.to_string(), "{2,5}");
        assert_eq!(format!("{s:?}"), "{2, 5}");
        assert_eq!(DenseBitSet::new().to_string(), "{}");
    }

    #[test]
    fn ordering_is_lexicographic_on_members() {
        assert!(set_of(&[1]) < set_of(&[2]));
        assert!(set_of(&[1, 5]) < set_of(&[2]));
        assert!(set_of(&[1]) < set_of(&[1, 2]));
    }

    #[test]
    fn clear_keeps_working() {
        let mut s = set_of(&[1, 2, 3]);
        s.clear();
        assert!(s.is_empty());
        s.insert(9);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_with_grows() {
        let mut a = set_of(&[1]);
        let b = set_of(&[500]);
        a.union_with(&b);
        assert!(a.contains(500));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DenseBitSet>();
    }

    // The three sweeps below are deterministic randomized versions of what
    // were proptest properties, checked against std's BTreeSet as the model.

    #[test]
    fn model_insert_remove() {
        let mut rng = Rng(0x11537);
        for _ in 0..64 {
            let mut s = DenseBitSet::new();
            let mut model = BTreeSet::new();
            for _ in 0..rng.below(200) {
                let v = rng.below(500);
                if rng.coin() {
                    assert_eq!(s.insert(v), model.insert(v));
                } else {
                    assert_eq!(s.remove(v), model.remove(&v));
                }
                assert_eq!(s.len(), model.len());
            }
            assert_eq!(
                s.ones().collect::<Vec<_>>(),
                model.into_iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn model_set_ops() {
        let mut rng = Rng(0x5E7);
        for _ in 0..64 {
            let a = rng.random_set(300, 100);
            let b = rng.random_set(300, 100);
            let sa: DenseBitSet = a.iter().copied().collect();
            let sb: DenseBitSet = b.iter().copied().collect();

            let inter: BTreeSet<_> = a.intersection(&b).copied().collect();
            let uni: BTreeSet<_> = a.union(&b).copied().collect();
            let diff: BTreeSet<_> = a.difference(&b).copied().collect();

            assert_eq!(
                sa.intersection(&sb).ones().collect::<Vec<_>>(),
                inter.iter().copied().collect::<Vec<_>>()
            );
            assert_eq!(
                sa.union(&sb).ones().collect::<Vec<_>>(),
                uni.iter().copied().collect::<Vec<_>>()
            );
            assert_eq!(
                sa.difference(&sb).ones().collect::<Vec<_>>(),
                diff.iter().copied().collect::<Vec<_>>()
            );
            assert_eq!(sa.intersection_count(&sb), inter.len());
            assert_eq!(sa.is_disjoint(&sb), inter.is_empty());
            assert_eq!(sa.is_subset(&sb), a.is_subset(&b));
        }
    }

    #[test]
    fn roundtrip_from_iterator() {
        let mut rng = Rng(0x2007);
        for _ in 0..64 {
            let values = rng.random_set(2000, 300);
            let s: DenseBitSet = values.iter().copied().collect();
            assert_eq!(s.len(), values.len());
            assert_eq!(
                s.ones().collect::<Vec<_>>(),
                values.iter().copied().collect::<Vec<_>>()
            );
            assert_eq!(s.first(), values.iter().next().copied());
            assert_eq!(s.last(), values.iter().next_back().copied());
        }
    }

    /// `from_words` equals the insert-built set, including sets whose word
    /// array carries trailing zeros.
    #[test]
    fn from_words_matches_inserts() {
        let mut rng = Rng(0x0F00D);
        for _ in 0..64 {
            let values = rng.random_set(500, 120);
            let mut words = vec![0u64; 500usize.div_ceil(64)];
            for &v in &values {
                words[v / 64] |= 1 << (v % 64);
            }
            let by_words = DenseBitSet::from_words(words);
            let by_inserts: DenseBitSet = values.iter().copied().collect();
            assert_eq!(by_words, by_inserts);
            assert_eq!(by_words.len(), values.len());
        }
        assert!(DenseBitSet::from_words(Vec::new()).is_empty());
        assert!(DenseBitSet::from_words(vec![0, 0, 0]).is_empty());
    }

    /// The slice view agrees with a dense set built from the same members,
    /// on every operation the view offers.
    #[test]
    fn slice_set_matches_dense() {
        let mut rng = Rng(0xBEEF);
        for _ in 0..64 {
            let values = rng.random_set(800, 100);
            let ids: Vec<u32> = values.iter().map(|&v| v as u32).collect();
            let view = SliceSet::new(&ids);
            let dense: DenseBitSet = values.iter().copied().collect();
            assert_eq!(view.len(), dense.len());
            assert_eq!(view.is_empty(), dense.is_empty());
            assert_eq!(
                view.ones().collect::<Vec<_>>(),
                dense.ones().collect::<Vec<_>>()
            );
            for probe in 0..810 {
                assert_eq!(view.contains(probe), dense.contains(probe), "{probe}");
            }
            assert_eq!(view.to_dense(), dense);
            assert_eq!(view.as_slice(), &ids[..]);
        }
    }

    #[test]
    fn slice_set_disjointness() {
        let even: Vec<u32> = (0..50).map(|v| v * 2).collect();
        let odd: Vec<u32> = (0..50).map(|v| v * 2 + 1).collect();
        assert!(SliceSet::new(&even).is_disjoint(&SliceSet::new(&odd)));
        assert!(!SliceSet::new(&even).is_disjoint(&SliceSet::new(&even[10..])));
        assert!(SliceSet::new(&[]).is_disjoint(&SliceSet::new(&even)));
        assert!(!SliceSet::new(&even).contains(usize::MAX));
    }
}
