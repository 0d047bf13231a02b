//! A Fenwick (binary indexed) tree over trace positions.
//!
//! The one-pass profilers ([`crate::stack`], [`crate::onepass`]) and the
//! MRCT sizing pass in `cachedse-core` all answer the same query: *how many
//! distinct addresses were touched between two positions of a trace?*
//! Keeping a `1` at each address's most recent position and range-summing
//! turns that into two prefix sums. (`cachedse-core`'s depth-first engine
//! answers it with its own counter over 64-position words, so these
//! oracles share no counting code with the engine they check.)

/// A Fenwick tree of `u32` counters over `0..len` positions.
///
/// # Examples
///
/// ```
/// use cachedse_sim::fenwick::Fenwick;
///
/// let mut f = Fenwick::new(8);
/// f.add(2, 1);
/// f.add(5, 1);
/// assert_eq!(f.prefix_sum(5), 1);  // positions 0..5
/// assert_eq!(f.range_sum(2, 6), 2); // positions 2..6
/// ```
#[derive(Clone, Debug)]
pub struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    /// Creates a tree of `len` zeroed counters.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            tree: vec![0; len + 1],
        }
    }

    /// Number of positions covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Returns `true` if the tree covers no positions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `delta` to the counter at `pos`.
    ///
    /// Bounds and underflow are verified with debug assertions only: this
    /// is the innermost operation of the one-pass simulators' per-reference
    /// loop, and release builds keep it branch-lean. An out-of-range `pos`
    /// cannot touch memory outside the tree in any build — the update loop's
    /// own bound makes it a no-op in release.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `pos` is out of range or the counter
    /// underflows.
    pub fn add(&mut self, pos: usize, delta: i32) {
        debug_assert!(pos < self.len(), "fenwick position out of range");
        let mut i = pos + 1;
        while i < self.tree.len() {
            #[cfg(debug_assertions)]
            {
                self.tree[i] = self.tree[i]
                    .checked_add_signed(delta)
                    .expect("fenwick counter underflow");
            }
            #[cfg(not(debug_assertions))]
            {
                self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            }
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of counters at positions `0..end`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `end > len` (release builds panic on the
    /// slice index instead).
    #[must_use]
    pub fn prefix_sum(&self, end: usize) -> u32 {
        debug_assert!(end <= self.len(), "fenwick prefix out of range");
        let mut sum = 0;
        let mut i = end;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Sum of counters at positions `start..end`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `start > end` or `end > len`.
    #[must_use]
    pub fn range_sum(&self, start: usize, end: usize) -> u32 {
        debug_assert!(start <= end, "fenwick range reversed");
        self.prefix_sum(end) - self.prefix_sum(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_trace::rng::SplitMix64;

    #[test]
    fn empty_tree() {
        let f = Fenwick::new(0);
        assert!(f.is_empty());
        assert_eq!(f.prefix_sum(0), 0);
    }

    #[test]
    fn point_updates_and_sums() {
        let mut f = Fenwick::new(10);
        f.add(0, 3);
        f.add(9, 2);
        f.add(4, 1);
        assert_eq!(f.prefix_sum(0), 0);
        assert_eq!(f.prefix_sum(1), 3);
        assert_eq!(f.prefix_sum(5), 4);
        assert_eq!(f.prefix_sum(10), 6);
        assert_eq!(f.range_sum(1, 10), 3);
        f.add(4, -1);
        assert_eq!(f.range_sum(4, 5), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn add_out_of_range_panics() {
        Fenwick::new(3).add(3, 1);
    }

    /// In release builds an out-of-range add must stay memory-safe and
    /// leave the tree untouched.
    #[test]
    #[cfg(not(debug_assertions))]
    fn add_out_of_range_is_inert() {
        let mut f = Fenwick::new(3);
        f.add(3, 1);
        assert_eq!(f.prefix_sum(3), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        Fenwick::new(3).add(1, -1);
    }

    /// Release builds let a paired add/remove pass through wrapping
    /// arithmetic; the net result is still exact.
    #[test]
    fn paired_add_remove_round_trips() {
        let mut f = Fenwick::new(16);
        for pos in [3usize, 7, 3, 11] {
            f.add(pos, 1);
        }
        f.add(3, -1);
        f.add(3, -1);
        assert_eq!(f.range_sum(0, 16), 2);
        assert_eq!(f.range_sum(7, 8), 1);
        assert_eq!(f.range_sum(3, 4), 0);
    }

    /// Deterministic randomized sweep (formerly a proptest property).
    #[test]
    fn matches_naive_array() {
        let mut rng = SplitMix64::seed_from_u64(0xF31);
        for _ in 0..64 {
            let mut f = Fenwick::new(64);
            let mut model = [0u32; 64];
            for _ in 0..rng.gen_range(0usize..100) {
                let pos = rng.gen_range(0usize..64);
                let delta = rng.gen_range(1i32..5);
                f.add(pos, delta);
                model[pos] += delta as u32;
            }
            for _ in 0..rng.gen_range(0usize..50) {
                let a = rng.gen_range(0usize..64);
                let b = rng.gen_range(0usize..65);
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let expected: u32 = model[lo..hi].iter().sum();
                assert_eq!(f.range_sum(lo, hi), expected);
            }
        }
    }
}
