//! Trace statistics: the columns of the paper's Tables 5–6.
//!
//! For every benchmark trace the paper reports the trace size `N`, the number
//! of unique references `N'`, and the *maximum number of misses* — "obtained
//! by simulating the traces on a cache simulator configured to be direct
//! mapped with the cache depth set to one". The designer's miss budget `K` is
//! then chosen as a percentage of that maximum.

use std::fmt;

use crate::strip::StrippedTrace;
use crate::Trace;

/// Summary statistics of a trace.
///
/// # Examples
///
/// ```
/// use cachedse_trace::{paper_running_example, stats::TraceStats};
///
/// let stats = TraceStats::of(&paper_running_example());
/// assert_eq!(stats.total, 10);
/// assert_eq!(stats.unique, 5);
/// // Depth-1 cache: every access except the repeat-free first touches
/// // misses; of the 10 misses, 5 are cold, so 5 are avoidable.
/// assert_eq!(stats.max_misses, 5);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Trace size `N`.
    pub total: usize,
    /// Unique references `N'`.
    pub unique: usize,
    /// Non-cold misses of a depth-1 direct-mapped cache: the worst case any
    /// explored configuration can have, and the base for percentage budgets.
    pub max_misses: u64,
}

impl TraceStats {
    /// Computes the statistics of `trace`.
    ///
    /// The maximum miss count is computed directly rather than via the
    /// simulator crate: a depth-1 direct-mapped cache holds exactly the last
    /// address touched, so an access misses iff it differs from its
    /// predecessor; subtracting the `N'` unavoidable cold misses gives the
    /// avoidable maximum.
    #[must_use]
    pub fn of(trace: &Trace) -> Self {
        let stripped = StrippedTrace::from_trace(trace);
        Self::of_stripped(&stripped)
    }

    /// Computes the statistics from an already-stripped trace in `O(1)`:
    /// the pass that built its identifier sequence also counted the
    /// depth-1 misses.
    #[must_use]
    pub fn of_stripped(stripped: &StrippedTrace) -> Self {
        let unique = stripped.unique_len();
        Self {
            total: stripped.total_len(),
            unique,
            max_misses: stripped
                .direct_mapped_misses()
                .saturating_sub(unique as u64),
        }
    }

    /// A miss budget of `fraction` (for example `0.05` for the paper's "5%")
    /// of the maximum miss count, rounded down.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is negative or not finite.
    #[must_use]
    pub fn budget(&self, fraction: f64) -> u64 {
        assert!(
            fraction.is_finite() && fraction >= 0.0,
            "miss budget fraction must be finite and non-negative"
        );
        (self.max_misses as f64 * fraction).floor() as u64
    }
}

/// The working-set curve of a trace: the number of distinct addresses in
/// each consecutive window of `window` references (Denning's working set,
/// sampled at window granularity). The final partial window is included.
///
/// Useful for sizing caches by phase: the curve's peaks bound the capacity
/// needed for near-zero misses during the corresponding phases.
///
/// # Panics
///
/// Panics if `window` is zero.
///
/// # Examples
///
/// ```
/// use cachedse_trace::{generate, stats::working_set_curve};
///
/// // Two phases over disjoint 10-word sets.
/// let t = generate::working_set_phases(2, 100, 10, 1);
/// let curve = working_set_curve(&t, 100);
/// assert_eq!(curve.len(), 2);
/// assert!(curve.iter().all(|&w| w <= 10));
/// ```
#[must_use]
pub fn working_set_curve(trace: &Trace, window: usize) -> Vec<usize> {
    assert!(window > 0, "window must be non-empty");
    let mut curve = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (i, addr) in trace.addresses().enumerate() {
        if i > 0 && i % window == 0 {
            curve.push(seen.len());
            seen.clear();
        }
        seen.insert(addr);
    }
    if !seen.is_empty() {
        curve.push(seen.len());
    }
    curve
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N={} N'={} max_misses={}",
            self.total, self.unique, self.max_misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::{Address, Record};

    fn reads(addrs: &[u32]) -> Trace {
        addrs
            .iter()
            .map(|&a| Record::read(Address::new(a)))
            .collect()
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let s = TraceStats::of(&Trace::new());
        assert_eq!(s, TraceStats::default());
    }

    #[test]
    fn single_address_has_no_avoidable_misses() {
        let s = TraceStats::of(&reads(&[7, 7, 7, 7]));
        assert_eq!(s.total, 4);
        assert_eq!(s.unique, 1);
        assert_eq!(s.max_misses, 0);
    }

    #[test]
    fn alternating_addresses_all_avoidable() {
        // a b a b a b: 6 misses, 2 cold -> 4 avoidable.
        let s = TraceStats::of(&reads(&[1, 2, 1, 2, 1, 2]));
        assert_eq!(s.max_misses, 4);
    }

    #[test]
    fn consecutive_repeats_hit() {
        // a a b b a: misses at positions 0, 2, 4 -> 3 total, 2 cold -> 1.
        let s = TraceStats::of(&reads(&[1, 1, 2, 2, 1]));
        assert_eq!(s.max_misses, 1);
    }

    #[test]
    fn budget_fractions() {
        let s = TraceStats {
            total: 0,
            unique: 0,
            max_misses: 103,
        };
        assert_eq!(s.budget(0.05), 5);
        assert_eq!(s.budget(0.10), 10);
        assert_eq!(s.budget(0.20), 20);
        assert_eq!(s.budget(0.0), 0);
        assert_eq!(s.budget(1.0), 103);
    }

    #[test]
    #[should_panic(expected = "miss budget fraction")]
    fn budget_rejects_negative() {
        let _ = TraceStats::default().budget(-0.1);
    }

    #[test]
    fn display() {
        let s = TraceStats {
            total: 10,
            unique: 5,
            max_misses: 5,
        };
        assert_eq!(s.to_string(), "N=10 N'=5 max_misses=5");
    }

    #[test]
    fn working_set_curve_counts_distinct_per_window() {
        let t = reads(&[1, 1, 2, 3, 3, 3, 4, 5]);
        assert_eq!(working_set_curve(&t, 4), vec![3, 3]);
        assert_eq!(working_set_curve(&t, 3), vec![2, 1, 2]);
        assert_eq!(working_set_curve(&t, 100), vec![5]);
        assert!(working_set_curve(&Trace::new(), 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn working_set_curve_rejects_zero_window() {
        let _ = working_set_curve(&Trace::new(), 0);
    }

    /// `of_stripped` reads the count the stripping pass kept; this is the
    /// second pass over the identifiers it replaced.
    fn max_misses_by_walking(stripped: &StrippedTrace) -> u64 {
        let mut total_misses: u64 = 0;
        let mut prev = None;
        for &id in stripped.id_sequence() {
            if prev != Some(id) {
                total_misses += 1;
            }
            prev = Some(id);
        }
        total_misses.saturating_sub(stripped.unique_len() as u64)
    }

    #[test]
    fn stripping_counts_the_depth_one_misses() {
        let mut rng = SplitMix64::seed_from_u64(0x0F_5712);
        for case in 0..64 {
            let len = rng.gen_range(0usize..400);
            let space = rng.gen_range(1u32..40);
            let addrs: Vec<u32> = (0..len).map(|_| rng.gen_range(0..space)).collect();
            let stripped = StrippedTrace::from_trace(&reads(&addrs));
            let walked = max_misses_by_walking(&stripped);
            assert_eq!(
                TraceStats::of_stripped(&stripped).max_misses,
                walked,
                "case {case}"
            );
            let rebuilt = StrippedTrace::from_parts(
                stripped.unique_addresses().to_vec(),
                stripped.id_sequence().to_vec(),
                stripped.address_bits(),
            )
            .expect("a stripped trace's own parts");
            assert_eq!(
                TraceStats::of_stripped(&rebuilt).max_misses,
                walked,
                "case {case}"
            );
            assert_eq!(rebuilt, stripped);
        }
    }

    #[test]
    fn max_misses_bounds() {
        // Deterministic randomized sweep (formerly a proptest property).
        let mut rng = SplitMix64::seed_from_u64(0xB0B);
        for case in 0..64 {
            let len = rng.gen_range(1usize..300);
            let addrs: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..50)).collect();
            let s = TraceStats::of(&reads(&addrs));
            // Avoidable misses can never exceed N - N' (each of the N' refs'
            // first touch is cold, not avoidable).
            assert!(
                s.max_misses <= (s.total - s.unique) as u64,
                "case {case}: {s}"
            );
        }
    }
}
