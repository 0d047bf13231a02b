//! The tombstone-compacted recency array of the streamed profile fold.
//!
//! `streamed::level_profiles` and its chunked parallel variant replay the
//! same state machine: live references in last-access order, dead entries
//! tombstoned in place (`O(1)` move-to-back), the whole array rewritten
//! once tombstones exceed a small fraction of the live entries (amortized
//! `O(1)` per access). `Mrct::build`'s emission pass runs the same
//! discipline inline against its own sorted dead-position index. This
//! module holds the machine once, plus the two pieces the parallel fold
//! adds on top:
//!
//! * **snapshots** — a forced compaction followed by a clone of the live
//!   state (`O(unique)`), which lets a worker resume the replay from any
//!   trace position without re-running the prefix;
//! * **weighted chunk boundaries** — a cheap recency-only pre-scan that
//!   accumulates each recurrence's conflict-span length into coarse
//!   position buckets, so chunk cuts can equalize *fold work* (total
//!   conflict-set members) instead of trace positions. Conflict volume is
//!   far from uniform over a trace — working sets grow — and
//!   position-equal chunks would serialize the pool on the heavy tail.

use cachedse_trace::strip::RefId;

/// Tombstone marker for dead recency-array slots (and the "not on the
/// list" marker for `live_pos`). Any real identifier is `< N' < u32::MAX`.
pub(crate) const ABSENT: u32 = u32::MAX;

/// Coarse position-bucket count for the boundary pre-scan: fine enough
/// that a cut lands within 0.03% of the trace of its ideal position,
/// coarse enough that the bucket array stays cache-resident.
const WEIGHT_BUCKETS: usize = 4096;

/// The recency-array replay state. `seq` holds the recency list oldest to
/// newest with dead slots marked [`ABSENT`]; `live_pos[r]` is the index of
/// `r`'s live entry (or [`ABSENT`]); `live`/`dead` count the two entry
/// kinds, driving the compaction trigger.
#[derive(Clone, Debug)]
pub(crate) struct Recency {
    /// The recency array, oldest live entry first, tombstones in place.
    pub seq: Vec<u32>,
    /// Per-reference index into `seq`, [`ABSENT`] when never touched.
    pub live_pos: Vec<u32>,
    /// Number of live entries in `seq`.
    pub live: usize,
    /// Number of tombstoned entries in `seq`.
    pub dead: usize,
}

impl Recency {
    /// An empty replay state over `n_unique` references; `seq` is sized
    /// for the smaller of the unique count and the sequence length, the
    /// same pre-reservation `Mrct::build` uses.
    pub fn new(n_unique: usize, sequence_len: usize) -> Self {
        Self {
            seq: Vec::with_capacity(n_unique.min(sequence_len) + 1),
            live_pos: vec![ABSENT; n_unique],
            live: 0,
            dead: 0,
        }
    }

    /// `true` once tombstones could meaningfully fragment the live
    /// suffixes — the same `live/256 + 8` trigger as `Mrct::build`, kept
    /// identical so the serial and chunked replays stay interchangeable.
    #[inline]
    pub fn should_compact(&self) -> bool {
        self.dead > self.live / 256 + 8
    }

    /// Rewrites `seq` to live entries only and refreshes `live_pos`.
    /// Compaction is semantically transparent: it changes neither the set
    /// of live references nor their relative recency order, which is all
    /// any consumer reads — that is what makes snapshot resumption
    /// byte-identical to the serial replay regardless of where either
    /// side's triggers fire.
    pub fn compact(&mut self) {
        let mut w = 0;
        for j in 0..self.seq.len() {
            let x = self.seq[j];
            if x != ABSENT {
                self.live_pos[x as usize] = w as u32;
                self.seq[w] = x;
                w += 1;
            }
        }
        debug_assert_eq!(
            w, self.live,
            "compaction must retain exactly the live entries"
        );
        self.seq.truncate(w);
        self.dead = 0;
    }

    /// Recency-only advance (no member folding): tombstones the previous
    /// occurrence, appends the new one, and compacts **lazily** — only
    /// once tombstones outnumber the live entries. The fold's tight
    /// `live/256` trigger exists to keep the suffixes it scans dense; a
    /// replay that folds nothing would pay that trigger's `O(live)`
    /// rewrite every `~live/256` recurrences — hundreds of times the cost
    /// of the advance itself, enough to rival the fold it is supposed to
    /// be a cheap prelude to. The fold-free passes instead let the array
    /// carry up to `live` tombstones (still `O(unique)` memory) and
    /// compact amortized `O(1)`; snapshots force-compact where density
    /// matters.
    ///
    /// Returns the recurrence's *span length* — the live suffix plus
    /// whatever tombstones the lazy trigger has accumulated inside it (at
    /// most the live count, so under 2× in aggregate) — or `0` on a first
    /// touch. This is the pass-one currency of the parallel fold: `O(1)`
    /// to produce, and proportional to the work pass two will spend.
    #[inline]
    pub fn advance(&mut self, id: RefId) -> u64 {
        let i = id.index();
        let p = self.live_pos[i];
        let span = if p == ABSENT {
            self.live += 1;
            0
        } else {
            self.seq[p as usize] = ABSENT;
            self.dead += 1;
            (self.seq.len() - p as usize - 1) as u64
        };
        self.live_pos[i] = u32::try_from(self.seq.len()).expect("recency position fits u32");
        self.seq.push(id.raw());
        if self.dead > self.live + 8 {
            self.compact();
        }
        span
    }

    /// Force-compacts and clones the live state: `O(unique)` space, and a
    /// worker restoring it resumes the replay exactly where this state
    /// stands.
    pub fn snapshot(&mut self) -> Snapshot {
        self.compact();
        Snapshot {
            seq: self.seq.clone(),
            live_pos: self.live_pos.clone(),
        }
    }
}

/// A compacted, resumable copy of the replay state at one trace position:
/// every entry of `seq` is live, so `live = seq.len()` and `dead = 0`.
#[derive(Clone, Debug)]
pub(crate) struct Snapshot {
    /// The compacted recency array (live entries only).
    pub seq: Vec<u32>,
    /// Per-reference index into `seq`, [`ABSENT`] when never touched.
    pub live_pos: Vec<u32>,
}

impl Snapshot {
    /// Rehydrates the snapshot into a replay state a worker can advance.
    pub fn restore(&self) -> Recency {
        Recency {
            live: self.seq.len(),
            dead: 0,
            seq: self.seq.clone(),
            live_pos: self.live_pos.clone(),
        }
    }
}

/// Splits `sequence` into at most `items` contiguous chunks of roughly
/// equal *fold work*, returning the cut positions as a partition
/// `[0, b₁, …, len]` plus each chunk's accumulated span weight.
///
/// The pre-scan replays the recency machine once (no folding, `O(N)`),
/// bucketing every recurrence's span length by trace position; cuts are
/// then placed at bucket edges where the cumulative weight crosses each
/// `k/items` quantile. Degenerate inputs (no recurrences, tiny traces)
/// collapse to a single chunk, which callers treat as "run serial".
pub(crate) fn weighted_boundaries(
    sequence: &[RefId],
    n_unique: usize,
    items: usize,
) -> (Vec<usize>, Vec<u64>) {
    let n = sequence.len();
    if n == 0 || items <= 1 {
        return (vec![0, n], vec![0]);
    }
    let nb = WEIGHT_BUCKETS.min(n);
    let mut bucket_weight = vec![0u64; nb];
    let mut replay = Recency::new(n_unique, n);
    for (t, &id) in sequence.iter().enumerate() {
        let w = replay.advance(id);
        if w > 0 {
            bucket_weight[t * nb / n] += w;
        }
    }
    let total: u64 = bucket_weight.iter().sum();
    if total == 0 {
        return (vec![0, n], vec![0]);
    }

    let mut boundaries = vec![0usize];
    let mut weights = Vec::new();
    let mut acc: u64 = 0;
    let mut chunk_acc: u64 = 0;
    let mut next_target = total.div_ceil(items as u64);
    let step = next_target;
    for (b, &w) in bucket_weight.iter().enumerate() {
        acc += w;
        chunk_acc += w;
        if acc >= next_target && b + 1 < nb {
            // Cut at the end of this bucket: position (b+1)·n/nb.
            let pos = (b + 1) * n / nb;
            if pos > *boundaries.last().expect("non-empty partition") {
                boundaries.push(pos);
                weights.push(chunk_acc);
                chunk_acc = 0;
            }
            while next_target <= acc {
                next_target = next_target.saturating_add(step);
            }
        }
    }
    boundaries.push(n);
    weights.push(chunk_acc);
    debug_assert_eq!(boundaries.len(), weights.len() + 1);
    (boundaries, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_trace::strip::StrippedTrace;
    use cachedse_trace::{generate, Address, Record, Trace};

    fn ids(trace: &Trace) -> (Vec<RefId>, usize) {
        let stripped = StrippedTrace::from_trace(trace);
        (stripped.id_sequence().to_vec(), stripped.unique_len())
    }

    /// The recency-only advance must agree with a from-scratch set model:
    /// after any prefix, the live entries of `seq` are exactly the touched
    /// references in last-access order.
    #[test]
    fn advance_tracks_last_access_order() {
        let trace = generate::working_set_phases(3, 400, 24, 9);
        let (sequence, n_unique) = ids(&trace);
        let mut replay = Recency::new(n_unique, sequence.len());
        let mut order: Vec<u32> = Vec::new();
        for &id in &sequence {
            replay.advance(id);
            order.retain(|&x| x != id.raw());
            order.push(id.raw());
        }
        let live: Vec<u32> = replay
            .seq
            .iter()
            .copied()
            .filter(|&x| x != ABSENT)
            .collect();
        assert_eq!(live, order);
        assert_eq!(replay.live, order.len());
    }

    /// A snapshot resumes to the same state the serial replay reaches.
    #[test]
    fn snapshot_resume_matches_serial() {
        let trace = generate::uniform_random(600, 48, 3);
        let (sequence, n_unique) = ids(&trace);
        let cut = sequence.len() / 2;

        let mut serial = Recency::new(n_unique, sequence.len());
        for &id in &sequence {
            serial.advance(id);
        }
        serial.compact();

        let mut prefix = Recency::new(n_unique, sequence.len());
        for &id in &sequence[..cut] {
            prefix.advance(id);
        }
        let snap = prefix.snapshot();
        let mut resumed = snap.restore();
        for &id in &sequence[cut..] {
            resumed.advance(id);
        }
        resumed.compact();

        assert_eq!(resumed.seq, serial.seq);
        assert_eq!(resumed.live, serial.live);
    }

    /// Boundaries form a partition and the weights cover every recurrence.
    #[test]
    fn boundaries_partition_the_sequence() {
        let trace = generate::loop_with_excursions(0, 48, 30, 11, 1 << 10, 5);
        let (sequence, n_unique) = ids(&trace);
        let (bounds, weights) = weighted_boundaries(&sequence, n_unique, 8);
        assert_eq!(*bounds.first().unwrap(), 0);
        assert_eq!(*bounds.last().unwrap(), sequence.len());
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert!(bounds.len() - 1 <= 8);
        assert_eq!(bounds.len(), weights.len() + 1);

        let mut replay = Recency::new(n_unique, sequence.len());
        let total: u64 = sequence.iter().map(|&id| replay.advance(id)).sum();
        assert_eq!(weights.iter().sum::<u64>(), total);
    }

    /// No recurrences → one chunk, zero weight (the serial fallback).
    #[test]
    fn all_cold_trace_collapses_to_one_chunk() {
        let trace: Trace = (0..64u32).map(|a| Record::read(Address::new(a))).collect();
        let (sequence, n_unique) = ids(&trace);
        let (bounds, weights) = weighted_boundaries(&sequence, n_unique, 4);
        assert_eq!(bounds, vec![0, 64]);
        assert_eq!(weights, vec![0]);
    }
}
