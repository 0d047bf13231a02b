//! XXH64 with seed 0, in one shot or streamed.
//!
//! The codec's entry checksum hashes a whole buffer at once; the serve
//! tier's source fingerprints hash a file as it is read, in whatever
//! pieces the reads return. Both go through [`Xxh64`], so the two can
//! never disagree on a byte: [`update`](Xxh64::update) keeps a partial
//! 32-byte stripe between calls, and [`finish`](Xxh64::finish) ends
//! exactly as the one-shot form does on the same bytes.

use crate::codec::{le_u32, le_u64};

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes per stripe: four 8-byte lanes.
const STRIPE: usize = 32;

fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge(h: u64, acc: u64) -> u64 {
    (h ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4)
}

/// A streaming XXH64 (seed 0): four independent lanes over 32-byte
/// stripes, so the multiplies overlap instead of forming one dependent
/// chain per byte.
#[derive(Clone, Debug)]
pub struct Xxh64 {
    acc: [u64; 4],
    /// The start of a stripe that the last [`update`](Self::update) cut.
    pending: [u8; STRIPE],
    pending_len: usize,
    total: u64,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Xxh64 {
    /// A hasher that has seen no bytes.
    #[must_use]
    pub fn new() -> Self {
        Self {
            acc: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            pending: [0; STRIPE],
            pending_len: 0,
            total: 0,
        }
    }

    /// Hashes `bytes` after everything given before.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        if self.pending_len > 0 {
            let take = (STRIPE - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < STRIPE {
                return;
            }
            let stripe = self.pending;
            self.stripes(&stripe);
            self.pending_len = 0;
        }
        let whole = bytes.len() - bytes.len() % STRIPE;
        self.stripes(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// Folds whole stripes into the lanes.
    fn stripes(&mut self, bytes: &[u8]) {
        let mut acc = self.acc;
        for stripe in bytes.chunks_exact(STRIPE) {
            for (a, lane) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
                *a = round(*a, le_u64(lane));
            }
        }
        self.acc = acc;
    }

    /// The hash of every byte given so far; the hasher can keep going.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut h = if self.total >= STRIPE as u64 {
            let acc = self.acc;
            let mut h = acc[0]
                .rotate_left(1)
                .wrapping_add(acc[1].rotate_left(7))
                .wrapping_add(acc[2].rotate_left(12))
                .wrapping_add(acc[3].rotate_left(18));
            for a in acc {
                h = merge(h, a);
            }
            h
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let mut words = self.pending[..self.pending_len].chunks_exact(8);
        for word in &mut words {
            h = (h ^ round(0, le_u64(word)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
        }
        let mut tail = words.remainder();
        if tail.len() >= 4 {
            h = (h ^ u64::from(le_u32(&tail[..4])).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            tail = &tail[4..];
        }
        for &b in tail {
            h = (h ^ u64::from(b).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// XXH64 (seed 0) of `bytes` in one call.
pub(crate) fn xxh64(bytes: &[u8]) -> u64 {
    let mut hasher = Xxh64::new();
    hasher.update(bytes);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_trace::rng::SplitMix64;

    /// Any cut of the input into pieces, empty ones included, hashes as
    /// the whole: lengths across the 32-byte stripe and 8/4-byte tail
    /// boundaries, cut at SplitMix64-drawn points.
    #[test]
    fn streaming_equals_one_shot_at_drawn_split_points() {
        let mut rng = SplitMix64::seed_from_u64(0x5EED_C0DE);
        let data: Vec<u8> = (0..4096).map(|_| (rng.next_u64() >> 56) as u8).collect();
        let lengths = (0..=100).chain([127, 128, 129, 1000, 4095, 4096]);
        for len in lengths {
            let input = &data[..len];
            let expected = xxh64(input);
            for _ in 0..16 {
                let mut cuts: Vec<usize> = (0..rng.gen_range(0..8usize))
                    .map(|_| rng.gen_range(0..=len))
                    .collect();
                cuts.sort_unstable();
                let mut hasher = Xxh64::new();
                let mut at = 0;
                for cut in cuts.into_iter().chain([len]) {
                    hasher.update(&input[at..cut]);
                    at = cut;
                }
                assert_eq!(hasher.finish(), expected, "len {len}");
            }
        }
    }
}
