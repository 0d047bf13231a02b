//! Trace stripping: reducing a trace of `N` references to its `N'` unique
//! references (the paper's Tables 1–2).
//!
//! The prelude phase of the analytical algorithm first assigns each distinct
//! address a numeric identifier in first-appearance order, then works on the
//! identifier sequence. Section 2.4 of the paper notes that a hash table
//! makes this linear; [`StrippedTrace::from_trace`] is that hash-based single
//! pass, over the vendored Fibonacci-hashed open-addressing map
//! ([`AddrMap`](crate::addrmap::AddrMap)) rather than `std`'s SipHash map.

use std::fmt;

use crate::addrmap::AddrMap;
use crate::{Address, Trace};

/// Identifier of a unique reference, assigned in first-appearance order
/// starting at 0.
///
/// The paper numbers references from 1 (Table 2); this crate numbers from 0,
/// so paper id *k* is `RefId::new(k - 1)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RefId(u32);

impl RefId {
    /// Creates a reference identifier.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// The identifier as an array index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The identifier as a `u32`.
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<RefId> for usize {
    fn from(id: RefId) -> Self {
        id.index()
    }
}

impl fmt::Display for RefId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// A stripped trace: the unique references of a [`Trace`] plus the original
/// access order expressed as identifiers.
///
/// This is the paper's Table 2 (unique references with identifiers) together
/// with the identifier-rewritten Table 1 order, which both the MRCT builder
/// and the cache simulator baselines consume.
///
/// # Examples
///
/// ```
/// use cachedse_trace::{paper_running_example, strip::StrippedTrace};
///
/// let s = StrippedTrace::from_trace(&paper_running_example());
/// assert_eq!(s.total_len(), 10);  // N
/// assert_eq!(s.unique_len(), 5);  // N'
/// // Reference 0 (paper id 1, address 1011) occurs three times.
/// assert_eq!(s.occurrences(cachedse_trace::strip::RefId::new(0)), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StrippedTrace {
    unique: Vec<Address>,
    ids: Vec<RefId>,
    counts: Vec<u32>,
    address_bits: u32,
    /// Positions whose identifier differs from the one before (the first
    /// included): the misses of a depth-1 direct-mapped cache, counted by
    /// whichever pass built the identifier sequence.
    direct_mapped_misses: u64,
}

impl StrippedTrace {
    /// Strips `trace`: one hash-map pass assigning identifiers in
    /// first-appearance order.
    ///
    /// Access kinds are ignored — the analytical model cares only about which
    /// addresses conflict, not whether they were read or written (the paper
    /// fixes a write-back policy out of scope).
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        let mut table = AddrMap::new();
        let mut unique = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut ids = Vec::with_capacity(trace.len());
        let mut direct_mapped_misses = 0u64;
        let mut prev = None;
        for addr in trace.addresses() {
            let next = unique.len() as u32;
            let id = RefId::new(table.get_or_insert(addr, next));
            if id.raw() == next {
                unique.push(addr);
                counts.push(0);
            }
            counts[id.index()] += 1;
            direct_mapped_misses += u64::from(prev != Some(id));
            prev = Some(id);
            ids.push(id);
        }
        // `trace.address_bits()` over the N' unique addresses, sparing a
        // second pass over all N records.
        let address_bits = unique.iter().map(|a| a.bits()).max().unwrap_or(1);
        Self {
            unique,
            ids,
            counts,
            address_bits,
            direct_mapped_misses,
        }
    }

    /// Reassembles a stripped trace from its flat parts: the unique
    /// addresses in identifier order and the identifier sequence — the two
    /// arrays the persistent artifact store spills to disk. The
    /// per-reference occurrence counts and the depth-1 miss count are
    /// recomputed in the same pass (they are derived data), so a
    /// reassembled trace is `==` to the original.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural violation: an
    /// identifier out of range, a unique address repeated or out of
    /// first-appearance order, or an `address_bits` that cannot hold the
    /// addresses. Loaded (untrusted) bytes must never panic downstream, so
    /// everything the other accessors assume is re-established here.
    pub fn from_parts(
        unique: Vec<Address>,
        ids: Vec<RefId>,
        address_bits: u32,
    ) -> Result<Self, String> {
        let n = unique.len();
        if u32::try_from(n).is_err() {
            return Err(format!("{n} unique references overflow u32 identifiers"));
        }
        let mut counts = vec![0u32; n];
        // First-appearance order: walking the id sequence must introduce
        // identifiers 0, 1, 2, … in order.
        let mut introduced = 0u32;
        let mut direct_mapped_misses = 0u64;
        let mut prev = None;
        for (pos, &id) in ids.iter().enumerate() {
            let raw = id.raw();
            if raw as usize >= n {
                return Err(format!(
                    "id sequence position {pos} names reference {raw} of {n}"
                ));
            }
            if raw > introduced {
                return Err(format!(
                    "id sequence position {pos} introduces reference {raw} before {introduced}"
                ));
            }
            if raw == introduced {
                introduced += 1;
            }
            counts[raw as usize] += 1;
            direct_mapped_misses += u64::from(prev != Some(id));
            prev = Some(id);
        }
        if (introduced as usize) < n {
            return Err(format!(
                "only {introduced} of {n} unique references appear in the id sequence"
            ));
        }
        let mut seen = crate::addrmap::AddrMap::new();
        for (i, &addr) in unique.iter().enumerate() {
            if seen.get_or_insert(addr, i as u32) != i as u32 {
                return Err(format!("unique address {addr} repeated at index {i}"));
            }
            let needed = 32 - addr.raw().leading_zeros();
            if needed > address_bits {
                return Err(format!(
                    "address {addr} needs {needed} bits but header claims {address_bits}"
                ));
            }
        }
        Ok(Self {
            unique,
            ids,
            counts,
            address_bits,
            direct_mapped_misses,
        })
    }

    /// Number of references in the original trace (the paper's `N`).
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.ids.len()
    }

    /// Number of unique references (the paper's `N'`).
    #[must_use]
    pub fn unique_len(&self) -> usize {
        self.unique.len()
    }

    /// Returns `true` if the original trace was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The unique addresses in identifier order.
    #[must_use]
    pub fn unique_addresses(&self) -> &[Address] {
        &self.unique
    }

    /// The original access order as identifiers.
    #[must_use]
    pub fn id_sequence(&self) -> &[RefId] {
        &self.ids
    }

    /// The address of a unique reference.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn address_of(&self, id: RefId) -> Address {
        self.unique[id.index()]
    }

    /// How many times reference `id` occurs in the original trace.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn occurrences(&self, id: RefId) -> u32 {
        self.counts[id.index()]
    }

    /// Misses of a depth-1 direct-mapped cache, cold ones included: the
    /// positions whose identifier differs from the one before.
    pub(crate) fn direct_mapped_misses(&self) -> u64 {
        self.direct_mapped_misses
    }

    /// Number of address bits needed by the unique references (at least 1).
    #[must_use]
    pub fn address_bits(&self) -> u32 {
        self.address_bits
    }

    /// Iterates over `(RefId, Address)` pairs in identifier order.
    pub fn iter(&self) -> impl Iterator<Item = (RefId, Address)> + '_ {
        self.unique
            .iter()
            .enumerate()
            .map(|(i, &a)| (RefId::new(i as u32), a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::{paper_running_example, Record};

    #[test]
    fn empty_trace() {
        let s = StrippedTrace::from_trace(&Trace::new());
        assert!(s.is_empty());
        assert_eq!(s.total_len(), 0);
        assert_eq!(s.unique_len(), 0);
        assert_eq!(s.address_bits(), 1);
    }

    #[test]
    fn paper_table_2() {
        let s = StrippedTrace::from_trace(&paper_running_example());
        let addrs: Vec<u32> = s.unique_addresses().iter().map(|a| a.raw()).collect();
        assert_eq!(addrs, vec![0b1011, 0b1100, 0b0110, 0b0011, 0b0100]);
        let ids: Vec<u32> = s.id_sequence().iter().map(|id| id.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 0, 4, 1, 3, 0, 2]);
        assert_eq!(s.occurrences(RefId::new(0)), 3);
        assert_eq!(s.occurrences(RefId::new(4)), 1);
        assert_eq!(s.address_bits(), 4);
    }

    #[test]
    fn kinds_are_ignored() {
        let a: Trace = [
            Record::read(Address::new(7)),
            Record::write(Address::new(7)),
        ]
        .into_iter()
        .collect();
        let s = StrippedTrace::from_trace(&a);
        assert_eq!(s.unique_len(), 1);
        assert_eq!(s.occurrences(RefId::new(0)), 2);
    }

    #[test]
    fn from_parts_round_trips_and_rejects_malformed() {
        let original = StrippedTrace::from_trace(&paper_running_example());
        let rebuilt = StrippedTrace::from_parts(
            original.unique_addresses().to_vec(),
            original.id_sequence().to_vec(),
            original.address_bits(),
        )
        .unwrap();
        assert_eq!(rebuilt, original);

        let unique = original.unique_addresses().to_vec();
        let ids = original.id_sequence().to_vec();
        let bits = original.address_bits();
        // Identifier out of range.
        let mut bad = ids.clone();
        bad[3] = RefId::new(99);
        assert!(StrippedTrace::from_parts(unique.clone(), bad, bits)
            .unwrap_err()
            .contains("names reference 99"));
        // First-appearance order broken (id 1 before id 0).
        let mut bad = ids.clone();
        bad.swap(0, 1);
        assert!(StrippedTrace::from_parts(unique.clone(), bad, bits)
            .unwrap_err()
            .contains("introduces reference"));
        // Repeated unique address.
        let mut bad_unique = unique.clone();
        bad_unique[1] = bad_unique[0];
        assert!(StrippedTrace::from_parts(bad_unique, ids.clone(), bits)
            .unwrap_err()
            .contains("repeated"));
        // Address wider than the claimed bit width.
        assert!(StrippedTrace::from_parts(unique, ids, 2)
            .unwrap_err()
            .contains("header claims 2"));
    }

    #[test]
    fn invariants() {
        // Deterministic randomized sweep (formerly a proptest property).
        let mut rng = SplitMix64::seed_from_u64(0x57121);
        for _ in 0..64 {
            let len = rng.gen_range(0usize..500);
            let addrs: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..200)).collect();
            let trace: Trace = addrs
                .iter()
                .map(|&a| Record::read(Address::new(a)))
                .collect();
            let s = StrippedTrace::from_trace(&trace);

            // N' <= N; id sequence has length N; counts sum to N.
            assert!(s.unique_len() <= s.total_len());
            assert_eq!(s.total_len(), addrs.len());
            let count_sum: u32 = (0..s.unique_len())
                .map(|i| s.occurrences(RefId::new(i as u32)))
                .sum();
            assert_eq!(count_sum as usize, addrs.len());

            // Rewriting ids back to addresses reproduces the original trace.
            let rebuilt: Vec<u32> = s
                .id_sequence()
                .iter()
                .map(|&id| s.address_of(id).raw())
                .collect();
            assert_eq!(rebuilt, addrs);
            assert_eq!(s.address_bits(), trace.address_bits());

            // Unique addresses are distinct and in first-appearance order.
            let mut seen = std::collections::HashSet::new();
            for &a in s.unique_addresses() {
                assert!(seen.insert(a));
            }
        }
    }
}
