//! A vendored address → identifier hash map for the strip hot path.
//!
//! [`StrippedTrace::from_trace`](crate::strip::StrippedTrace::from_trace)
//! performs one map lookup per trace record, so the map is on the critical
//! path of every engine, every `cachedse check` run, and every serve-cache
//! key computation. `std::collections::HashMap` pays for SipHash's
//! flooding resistance on every probe — protection a trusted 4-byte
//! address stream does not need. This map instead keys an open-addressing
//! table (power-of-two capacity, linear probing, ≤ 7/8 load) with
//! Fibonacci hashing: one multiply by 2^64/φ, keeping the product's top
//! `log2 capacity` bits. Those bits depend on every key bit, so strided
//! addresses (cache-line or page multiples) still spread over the table.
//!
//! The value domain is dense identifiers assigned by the caller, which is
//! all the stripper needs; `u32::MAX` is reserved as the vacancy marker
//! (no trace can hold that many *unique* references, since each occupies
//! at least one record and trace lengths are bounded by addressable
//! memory).

use crate::Address;

/// Vacant-slot marker in the value array.
const VACANT: u32 = u32::MAX;

/// Initial slot count (power of two).
const INITIAL_SLOTS: usize = 64;

/// 2^64 / φ, rounded to odd: the Fibonacci hashing multiplier.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// An open-addressing [`Address`] → `u32` map, Fibonacci hashed.
#[derive(Clone, Debug)]
pub struct AddrMap {
    /// Slot keys; meaningful only where `values[i] != VACANT`.
    keys: Vec<u32>,
    /// Slot values, `VACANT` when the slot is free.
    values: Vec<u32>,
    /// Occupied slot count.
    len: usize,
    /// `capacity - 1`, for wrapping probes (capacity is a power of two).
    mask: usize,
    /// `64 - log2(capacity)`: the shift that keeps a product's top bits.
    shift: u32,
}

impl AddrMap {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Self {
            keys: vec![0; INITIAL_SLOTS],
            values: vec![VACANT; INITIAL_SLOTS],
            len: 0,
            mask: INITIAL_SLOTS - 1,
            shift: 64 - INITIAL_SLOTS.trailing_zeros(),
        }
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Home slot of `key`: the top `log2 capacity` bits of
    /// `key · FIBONACCI`.
    fn home(&self, key: u32) -> usize {
        (u64::from(key).wrapping_mul(FIBONACCI) >> self.shift) as usize
    }

    /// The value stored for `key`, if any.
    #[must_use]
    pub fn get(&self, key: Address) -> Option<u32> {
        let key = key.raw();
        let mut slot = self.home(key);
        loop {
            match self.values[slot] {
                VACANT => return None,
                v if self.keys[slot] == key => return Some(v),
                _ => slot = (slot + 1) & self.mask,
            }
        }
    }

    /// Returns the value stored for `key`, inserting `value` first if the
    /// key is absent. (The stripper passes the next dense identifier; a
    /// hit means the address was seen before.)
    ///
    /// # Panics
    ///
    /// Panics if `value` is `u32::MAX` (reserved as the vacancy marker).
    pub fn get_or_insert(&mut self, key: Address, value: u32) -> u32 {
        assert_ne!(value, VACANT, "u32::MAX is reserved as the vacancy marker");
        let key = key.raw();
        let mut slot = self.home(key);
        loop {
            match self.values[slot] {
                VACANT => break,
                v if self.keys[slot] == key => return v,
                _ => slot = (slot + 1) & self.mask,
            }
        }
        self.keys[slot] = key;
        self.values[slot] = value;
        self.len += 1;
        // Grow at 7/8 load, before probe chains degrade.
        if self.len * 8 >= (self.mask + 1) * 7 {
            self.grow();
        }
        value
    }

    /// Doubles the table and rehashes every occupied slot.
    fn grow(&mut self) {
        let new_cap = (self.mask + 1) * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_values = std::mem::replace(&mut self.values, vec![VACANT; new_cap]);
        self.mask = new_cap - 1;
        self.shift -= 1;
        for (key, value) in old_keys.into_iter().zip(old_values) {
            if value == VACANT {
                continue;
            }
            let mut slot = self.home(key);
            while self.values[slot] != VACANT {
                slot = (slot + 1) & self.mask;
            }
            self.keys[slot] = key;
            self.values[slot] = value;
        }
    }
}

impl Default for AddrMap {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::collections::HashMap;

    #[test]
    fn empty_map() {
        let map = AddrMap::new();
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        assert_eq!(map.get(Address::new(0)), None);
        assert_eq!(map.get(Address::new(u32::MAX)), None);
    }

    #[test]
    fn insert_then_hit() {
        let mut map = AddrMap::new();
        assert_eq!(map.get_or_insert(Address::new(0xB), 0), 0);
        assert_eq!(map.get_or_insert(Address::new(0xB), 1), 0); // hit keeps 0
        assert_eq!(map.get_or_insert(Address::new(0xC), 1), 1);
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(Address::new(0xB)), Some(0));
        assert_eq!(map.get(Address::new(0xC)), Some(1));
    }

    #[test]
    fn extreme_keys_are_ordinary() {
        // Key u32::MAX is a valid *key*; only the value domain reserves it.
        let mut map = AddrMap::new();
        assert_eq!(map.get_or_insert(Address::new(u32::MAX), 7), 7);
        assert_eq!(map.get_or_insert(Address::new(0), 8), 8);
        assert_eq!(map.get(Address::new(u32::MAX)), Some(7));
        assert_eq!(map.get(Address::new(0)), Some(8));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn vacancy_marker_value_is_rejected() {
        AddrMap::new().get_or_insert(Address::new(1), u32::MAX);
    }

    /// Keys that differ only above bit 20, a power-of-two stride, all land
    /// in their own entries.
    #[test]
    fn power_of_two_stride_keys_stay_distinct() {
        let mut map = AddrMap::new();
        for i in 0..4096u32 {
            assert_eq!(map.get_or_insert(Address::new(i << 20), i), i);
        }
        assert_eq!(map.len(), 4096);
        for i in 0..4096u32 {
            assert_eq!(map.get(Address::new(i << 20)), Some(i));
        }
    }

    /// Growth + probing against `std::collections::HashMap` on a mixed
    /// key stream (random, sequential, and stride-aligned — the shapes
    /// real traces produce).
    #[test]
    fn matches_std_hashmap() {
        let mut rng = SplitMix64::seed_from_u64(0xADD2);
        let mut ours = AddrMap::new();
        let mut std_map: HashMap<u32, u32> = HashMap::new();
        for i in 0..20_000u32 {
            let key = match i % 3 {
                0 => rng.gen_range(0u32..5_000),
                1 => i,            // sequential
                _ => (i / 3) * 64, // stride-aligned (cache-line-like)
            };
            let next_id = std_map.len() as u32;
            let expected = *std_map.entry(key).or_insert(next_id);
            assert_eq!(ours.get_or_insert(Address::new(key), next_id), expected);
            assert_eq!(ours.len(), std_map.len());
        }
        for (&key, &value) in &std_map {
            assert_eq!(ours.get(Address::new(key)), Some(value));
        }
    }
}
