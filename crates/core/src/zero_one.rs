//! Zero/one sets: per-address-bit membership sets (Table 3 of the paper).
//!
//! For every address bit `B_i`, the set `Z_i` holds the identifiers of the
//! unique references whose bit `i` is 0, and `O_i` those whose bit `i` is 1.
//! Cross-intersecting these sets is how Algorithm 1 grows the
//! [BCAT](crate::Bcat): the references mapping to cache row `b_1 b_0` of a
//! depth-4 cache are exactly `(Z_0 or O_0) ∩ (Z_1 or O_1)` as selected by the
//! row bits.

use cachedse_bitset::DenseBitSet;
use cachedse_trace::strip::StrippedTrace;

/// The array of `(Z_i, O_i)` pairs for a stripped trace.
///
/// # Examples
///
/// ```
/// use cachedse_core::ZeroOneSets;
/// use cachedse_trace::{paper_running_example, strip::StrippedTrace};
///
/// let stripped = StrippedTrace::from_trace(&paper_running_example());
/// let zo = ZeroOneSets::from_stripped(&stripped);
///
/// // Table 3, bit B0: Z = {2,3,5}, O = {1,4} in the paper's 1-based ids,
/// // i.e. {1,2,4} and {0,3} with this crate's 0-based ids.
/// assert_eq!(zo.zero(0).ones().collect::<Vec<_>>(), vec![1, 2, 4]);
/// assert_eq!(zo.one(0).ones().collect::<Vec<_>>(), vec![0, 3]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZeroOneSets {
    zero: Vec<DenseBitSet>,
    one: Vec<DenseBitSet>,
    unique_len: usize,
}

impl ZeroOneSets {
    /// Builds the zero/one sets of every significant address bit.
    ///
    /// Word-parallel: each `O_i` column is assembled as packed `u64` words
    /// (one bit-scatter per *set* address bit, not one insert per
    /// `(reference, bit)` pair), and each `Z_i` is its word-wise complement
    /// under the `N'`-bit validity mask — the `(Z_i, O_i)` partition is a
    /// complement by definition, so it is never computed element by
    /// element.
    #[must_use]
    pub fn from_stripped(stripped: &StrippedTrace) -> Self {
        let bits = stripped.address_bits();
        let n = stripped.unique_len();
        let words = n.div_ceil(64);
        let mut one_words: Vec<Vec<u64>> = vec![vec![0u64; words]; bits as usize];
        for (id, addr) in stripped.iter() {
            let word = id.index() / 64;
            let member = 1u64 << (id.index() % 64);
            // Scatter the address's set bits; addresses have no bits at or
            // above `address_bits`, so every index lands in a column.
            let mut rest = addr.raw();
            while rest != 0 {
                one_words[rest.trailing_zeros() as usize][word] |= member;
                rest &= rest - 1;
            }
        }
        let tail_mask = match n % 64 {
            0 => u64::MAX,
            tail => (1u64 << tail) - 1,
        };
        let mut zero = Vec::with_capacity(one_words.len());
        let mut one = Vec::with_capacity(one_words.len());
        for column in one_words {
            let complement: Vec<u64> = column
                .iter()
                .enumerate()
                .map(|(w, &x)| {
                    let valid = if w + 1 == words { tail_mask } else { u64::MAX };
                    !x & valid
                })
                .collect();
            one.push(DenseBitSet::from_words(column));
            zero.push(DenseBitSet::from_words(complement));
        }
        Self {
            zero,
            one,
            unique_len: n,
        }
    }

    /// Recovers every unique reference's address from the `O_i` columns
    /// (bit `i` of `addrs[id]` is set iff `id ∈ O_i`): the bridge that lets
    /// [`Bcat::build`](crate::Bcat::build) run the radix partition without
    /// a [`StrippedTrace`] in hand. `O(|members|)` total, walking each
    /// column's set bits once.
    pub(crate) fn reconstruct_addresses(&self) -> Vec<u32> {
        let mut addrs = vec![0u32; self.unique_len];
        for (b, column) in self.one.iter().enumerate() {
            for id in column.ones() {
                addrs[id] |= 1 << b;
            }
        }
        addrs
    }

    /// Number of address bits covered.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.zero.len() as u32
    }

    /// Number of unique references the sets partition.
    #[must_use]
    pub fn unique_len(&self) -> usize {
        self.unique_len
    }

    /// The set `Z_i` of references with a 0 at bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.bits()`.
    #[must_use]
    pub fn zero(&self, i: u32) -> &DenseBitSet {
        &self.zero[i as usize]
    }

    /// The set `O_i` of references with a 1 at bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.bits()`.
    #[must_use]
    pub fn one(&self, i: u32) -> &DenseBitSet {
        &self.one[i as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_trace::rng::SplitMix64;
    use cachedse_trace::{paper_running_example, Address, Record, Trace};

    fn random_trace(rng: &mut SplitMix64, addr_space: u32, max_len: usize) -> Trace {
        let len = rng.gen_range(1usize..max_len);
        (0..len)
            .map(|_| Record::read(Address::new(rng.gen_range(0..addr_space))))
            .collect()
    }

    fn ids(set: &DenseBitSet) -> Vec<usize> {
        set.ones().collect()
    }

    #[test]
    fn paper_table_3() {
        let stripped = StrippedTrace::from_trace(&paper_running_example());
        let zo = ZeroOneSets::from_stripped(&stripped);
        assert_eq!(zo.bits(), 4);
        assert_eq!(zo.unique_len(), 5);
        // Paper Table 3 (ids shifted to 0-based):
        // B0: Z={2,3,5}->{1,2,4}, O={1,4}->{0,3}
        assert_eq!(ids(zo.zero(0)), vec![1, 2, 4]);
        assert_eq!(ids(zo.one(0)), vec![0, 3]);
        // B1: Z={2,5}->{1,4}, O={1,3,4}->{0,2,3}
        assert_eq!(ids(zo.zero(1)), vec![1, 4]);
        assert_eq!(ids(zo.one(1)), vec![0, 2, 3]);
        // B2: Z={1,4}->{0,3}, O={2,3,5}->{1,2,4}
        assert_eq!(ids(zo.zero(2)), vec![0, 3]);
        assert_eq!(ids(zo.one(2)), vec![1, 2, 4]);
        // B3: Z={3,4,5}->{2,3,4}, O={1,2}->{0,1}
        assert_eq!(ids(zo.zero(3)), vec![2, 3, 4]);
        assert_eq!(ids(zo.one(3)), vec![0, 1]);
    }

    #[test]
    fn empty_trace_has_one_bit() {
        let stripped = StrippedTrace::from_trace(&Trace::new());
        let zo = ZeroOneSets::from_stripped(&stripped);
        assert_eq!(zo.bits(), 1);
        assert!(zo.zero(0).is_empty());
        assert!(zo.one(0).is_empty());
    }

    /// Every bit's (Z, O) pair partitions the unique references.
    /// Deterministic randomized sweep (formerly a proptest property).
    #[test]
    fn each_bit_partitions() {
        let mut rng = SplitMix64::seed_from_u64(0x2E80);
        for _ in 0..64 {
            let trace = random_trace(&mut rng, 1024, 200);
            let stripped = StrippedTrace::from_trace(&trace);
            let zo = ZeroOneSets::from_stripped(&stripped);
            let all: DenseBitSet = (0..stripped.unique_len()).collect();
            for b in 0..zo.bits() {
                assert!(zo.zero(b).is_disjoint(zo.one(b)));
                assert_eq!(&zo.zero(b).union(zo.one(b)), &all);
            }
        }
    }

    /// Membership agrees with the address bits.
    #[test]
    fn membership_matches_bits() {
        let mut rng = SplitMix64::seed_from_u64(0x0B175);
        for _ in 0..64 {
            let trace = random_trace(&mut rng, 4096, 100);
            let stripped = StrippedTrace::from_trace(&trace);
            let zo = ZeroOneSets::from_stripped(&stripped);
            for (id, addr) in stripped.iter() {
                for b in 0..zo.bits() {
                    assert_eq!(zo.one(b).contains(id.index()), addr.bit(b));
                    assert_eq!(zo.zero(b).contains(id.index()), !addr.bit(b));
                }
            }
        }
    }
}
