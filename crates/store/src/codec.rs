//! The versioned, checksummed on-disk artifact codec (format `CDSEART1`).
//!
//! An entry holds the stripped trace and its per-depth miss profiles —
//! everything a budget query reads — whichever engine built them.
//! Layout, all integers little-endian:
//!
//! ```text
//! magic            8 bytes   b"CDSEART1"
//! version          u32       2
//! digest           u64       FNV-1a trace digest (the key)
//! max_index_bits   u32       index-bit cap the profiles were built under
//! flags            u32       exactly 2 (bit 1, profiles-only); any other
//!                            value is rejected
//! address_bits     u32       width of the stripped trace's addresses
//! stats            3 × u64   total N, unique N', max_misses
//! engine           u32       the engine that ran: 0 depth-first or 3
//!                            streamed (never `auto`); any other tag is
//!                            rejected
//! unique           len + u32[]   unique addresses in identifier order
//! ids              len + u32[]   the access order as identifiers
//! profiles         len (= max_index_bits + 1), then per profile:
//!                    depth u32, cold u64, accesses u64, histogram len + u64[]
//! checksum         u64       XXH64 (seed 0) over every preceding byte
//! ```
//!
//! Version 1 had the same layout under a byte-wise FNV-1a checksum. It is
//! retired: the version word is read before the checksum, and a version-1
//! entry is [`StoreError::Corrupt`] (named `retired tree-bearing entry
//! format` when its flag bit 0 is set, `retired format version 1`
//! otherwise), so the disk store quarantines it and the next job rebuilds
//! it as version 2. The older flag values (0, and bit 0) and engine tags
//! (1 and 2) were written only under version 1, so a version-2 entry
//! carrying one is crafted and refused like any unknown value. The trace
//! digest and the hash ring keep FNV-1a: they are the content address
//! and the ring placement, not a checksum.
//!
//! Array lengths are `u64` counts prefixed to each array and are checked
//! against the bytes actually remaining **before** any allocation, so a
//! header that lies about a length is rejected instead of triggering a
//! huge reservation. The trailing checksum catches truncation and bit
//! rot; everything after it decodes through `StrippedTrace::from_parts`
//! and `Exploration::from_parts`, which re-establish every structural
//! invariant the in-memory accessors assume — untrusted bytes can surface
//! only as [`StoreError::Corrupt`], never as a panic.

use cachedse_core::{Engine, Exploration};
use cachedse_sim::onepass::DepthProfile;
use cachedse_trace::digest::TraceDigest;
use cachedse_trace::stats::TraceStats;
use cachedse_trace::strip::{RefId, StrippedTrace};
use cachedse_trace::Address;

use crate::{ArtifactKey, StoreError, TraceArtifacts};

/// The 8-byte format magic.
pub const MAGIC: [u8; 8] = *b"CDSEART1";
/// The current format version.
pub const VERSION: u32 = 2;
/// The retired version with the same layout under a byte-wise FNV-1a
/// checksum; its entries are rejected and rebuilt.
const RETIRED_VERSION: u32 = 1;
/// Flag bit 0 of a version-1 entry: a tree-bearing entry from an earlier
/// build, which appended the zero/one sets, BCAT and MRCT after the
/// profiles. It names the retired format in the version-1 refusal.
const RETIRED_TREE_BIT: u32 = 1;
/// Flag bit 1: a profiles-only entry — the stripped trace and the
/// per-depth profiles. Every version-2 entry carries exactly this flag.
const FLAG_PROFILES_ONLY: u32 = 1 << 1;
/// Byte offset of the `version` word, right after the magic.
const VERSION_AT: usize = MAGIC.len();
/// Byte offset of the `flags` word: magic, version, digest, max_index_bits.
const FLAGS_AT: usize = VERSION_AT + 4 + 8 + 4;
/// Smallest possible entry: magic + version + trailing checksum.
const MIN_LEN: usize = MAGIC.len() + 4 + 8;

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("an 8-byte chunk"))
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("a 4-byte chunk"))
}

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

fn xxh_merge(h: u64, acc: u64) -> u64 {
    (h ^ xxh_round(0, acc))
        .wrapping_mul(XXH_P1)
        .wrapping_add(XXH_P4)
}

/// XXH64 with seed 0: four independent lanes over 32-byte stripes, so the
/// multiplies overlap instead of forming one dependent chain per byte.
fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut acc = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for stripe in &mut stripes {
            for (a, lane) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
                *a = xxh_round(*a, le_u64(lane));
            }
        }
        let mut h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        for a in acc {
            h = xxh_merge(h, a);
        }
        h
    } else {
        XXH_P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ xxh_round(0, le_u64(word)))
            .rotate_left(27)
            .wrapping_mul(XXH_P1)
            .wrapping_add(XXH_P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        h = (h ^ u64::from(le_u32(&tail[..4])).wrapping_mul(XXH_P1))
            .rotate_left(23)
            .wrapping_mul(XXH_P2)
            .wrapping_add(XXH_P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(XXH_P5))
            .rotate_left(11)
            .wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Writes the length prefix, grows `buf` once, and fills the new tail.
fn put_u32_array(buf: &mut Vec<u8>, values: impl ExactSizeIterator<Item = u32>) {
    put_u64(buf, values.len() as u64);
    let start = buf.len();
    buf.resize(start + 4 * values.len(), 0);
    for (out, v) in buf[start..].chunks_exact_mut(4).zip(values) {
        out.copy_from_slice(&v.to_le_bytes());
    }
}

/// Writes the length prefix, grows `buf` once, and fills the new tail.
fn put_u64_array(buf: &mut Vec<u8>, values: &[u64]) {
    put_u64(buf, values.len() as u64);
    let start = buf.len();
    buf.resize(start + 8 * values.len(), 0);
    for (out, v) in buf[start..].chunks_exact_mut(8).zip(values) {
        out.copy_from_slice(&v.to_le_bytes());
    }
}

/// Encodes `artifacts` under `key` into a self-contained entry.
#[must_use]
pub fn encode(key: &ArtifactKey, artifacts: &TraceArtifacts) -> Vec<u8> {
    let stripped = &artifacts.stripped;
    let mut buf = Vec::with_capacity(256 + 4 * stripped.total_len());
    buf.extend_from_slice(&MAGIC);
    put_u32(&mut buf, VERSION);
    put_u64(&mut buf, key.digest.raw());
    put_u32(&mut buf, key.max_index_bits);
    put_u32(&mut buf, FLAG_PROFILES_ONLY);
    put_u32(&mut buf, stripped.address_bits());
    let stats = artifacts.exploration.stats();
    put_u64(&mut buf, stats.total as u64);
    put_u64(&mut buf, stats.unique as u64);
    put_u64(&mut buf, stats.max_misses);
    put_u32(&mut buf, engine_code(artifacts.exploration.engine()));
    put_u32_array(
        &mut buf,
        stripped.unique_addresses().iter().map(|a| a.raw()),
    );
    put_u32_array(&mut buf, stripped.id_sequence().iter().map(|id| id.raw()));
    put_u64(&mut buf, artifacts.exploration.profiles().len() as u64);
    for profile in artifacts.exploration.profiles() {
        put_u32(&mut buf, profile.depth());
        put_u64(&mut buf, profile.cold());
        put_u64(&mut buf, profile.accesses());
        put_u64_array(&mut buf, profile.histogram());
    }
    let checksum = xxh64(&buf);
    put_u64(&mut buf, checksum);
    buf
}

fn engine_code(engine: Engine) -> u32 {
    match engine {
        Engine::DepthFirst => 0,
        Engine::Streamed => 3,
        Engine::Auto => unreachable!("an exploration records the engine that ran"),
    }
}

fn engine_from_code(code: u32) -> Result<Engine, StoreError> {
    match code {
        0 => Ok(Engine::DepthFirst),
        3 => Ok(Engine::Streamed),
        other => Err(StoreError::Corrupt(format!("unknown engine code {other}"))),
    }
}

/// A bounds-checked little-endian reader over the checksummed payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Corrupt(format!(
                "truncated reading {what}: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        self.take(4, what).map(le_u32)
    }

    fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        self.take(8, what).map(le_u64)
    }

    /// A length prefix, verified to fit the remaining bytes at `width`
    /// bytes per element before anything is allocated.
    fn len_of(&mut self, width: usize, what: &str) -> Result<usize, StoreError> {
        let len = self.u64(what)?;
        let Ok(len) = usize::try_from(len) else {
            return Err(StoreError::Corrupt(format!(
                "{what} length {len} overflows"
            )));
        };
        if len.checked_mul(width).is_none_or(|b| b > self.remaining()) {
            return Err(StoreError::Corrupt(format!(
                "{what} claims {len} elements but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(len)
    }

    /// A length-prefixed array, taken in one bounds check and decoded
    /// straight into the result through `wrap`.
    fn u32_array<T>(&mut self, what: &str, wrap: impl Fn(u32) -> T) -> Result<Vec<T>, StoreError> {
        let len = self.len_of(4, what)?;
        Ok(self
            .take(4 * len, what)?
            .chunks_exact(4)
            .map(|b| wrap(le_u32(b)))
            .collect())
    }

    /// A length-prefixed array, taken in one bounds check and decoded
    /// straight into the result.
    fn u64_array(&mut self, what: &str) -> Result<Vec<u64>, StoreError> {
        let len = self.len_of(8, what)?;
        Ok(self
            .take(8 * len, what)?
            .chunks_exact(8)
            .map(le_u64)
            .collect())
    }
}

/// Decodes one entry, re-establishing every structural invariant.
///
/// # Errors
///
/// [`StoreError::Corrupt`] naming the first gate the bytes failed:
/// truncation, bad magic, a retired or unsupported version, checksum
/// mismatch, unknown flags or engine tag, a lying length prefix, a
/// profile count that disagrees with `max_index_bits`, trailing garbage,
/// or a flat-parts constructor rejection.
pub fn decode(bytes: &[u8]) -> Result<(ArtifactKey, TraceArtifacts), StoreError> {
    if bytes.len() < MIN_LEN {
        return Err(StoreError::Corrupt(format!(
            "entry is {} bytes; even an empty one needs {MIN_LEN}",
            bytes.len()
        )));
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::Corrupt(
            "bad magic (not a CDSEART1 entry)".into(),
        ));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    // The version decides which checksum the trailer holds, so it is read
    // first; only the current version's checksum is ever computed.
    let version = le_u32(&bytes[VERSION_AT..VERSION_AT + 4]);
    if version == RETIRED_VERSION {
        let tree = body
            .get(FLAGS_AT..FLAGS_AT + 4)
            .is_some_and(|f| le_u32(f) & RETIRED_TREE_BIT != 0);
        return Err(StoreError::Corrupt(if tree {
            "retired tree-bearing entry format (flag bit 0); rebuild it profiles-only".into()
        } else {
            format!("retired format version {RETIRED_VERSION}; rebuild it as version {VERSION}")
        }));
    }
    if version != VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported format version {version} (this build reads {VERSION})"
        )));
    }
    let stored = le_u64(tail);
    let computed = xxh64(body);
    if stored != computed {
        return Err(StoreError::Corrupt(format!(
            "checksum mismatch: stored {stored:016x}, computed {computed:016x}"
        )));
    }

    let mut c = Cursor::new(&body[VERSION_AT + 4..]);
    let digest = TraceDigest::from_raw(c.u64("digest")?);
    let max_index_bits = c.u32("max_index_bits")?;
    let flags = c.u32("flags")?;
    if flags != FLAG_PROFILES_ONLY {
        return Err(StoreError::Corrupt(format!("unknown flags {flags:#x}")));
    }
    let address_bits = c.u32("address_bits")?;
    let stats = TraceStats {
        total: usize::try_from(c.u64("stats.total")?)
            .map_err(|_| StoreError::Corrupt("stats.total overflows usize".into()))?,
        unique: usize::try_from(c.u64("stats.unique")?)
            .map_err(|_| StoreError::Corrupt("stats.unique overflows usize".into()))?,
        max_misses: c.u64("stats.max_misses")?,
    };
    let engine = engine_from_code(c.u32("engine")?)?;

    let unique = c.u32_array("unique addresses", Address::new)?;
    let ids = c.u32_array("id sequence", RefId::new)?;
    let stripped =
        StrippedTrace::from_parts(unique, ids, address_bits).map_err(StoreError::Corrupt)?;

    let profile_count = c.len_of(4 + 8 + 8 + 8, "profiles")?;
    // Every engine emits one profile per depth `2^0 ..= 2^max_index_bits`;
    // any other count would answer with a cut-short (or padded) frontier.
    let expected = u64::from(max_index_bits) + 1;
    if profile_count as u64 != expected {
        return Err(StoreError::Corrupt(format!(
            "{profile_count} profiles under max_index_bits {max_index_bits}, expected {expected}"
        )));
    }
    let mut profiles = Vec::with_capacity(profile_count);
    for i in 0..profile_count {
        let depth = c.u32("profile depth")?;
        let cold = c.u64("profile cold")?;
        let accesses = c.u64("profile accesses")?;
        let histogram = c.u64_array("profile histogram")?;
        if depth == 0 || !depth.is_power_of_two() {
            return Err(StoreError::Corrupt(format!(
                "profile {i} claims non-power-of-two depth {depth}"
            )));
        }
        profiles.push(DepthProfile::from_parts(depth, histogram, cold, accesses));
    }
    let exploration =
        Exploration::from_parts(profiles, stats, engine).map_err(StoreError::Corrupt)?;

    if c.remaining() != 0 {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after the last profile",
            c.remaining()
        )));
    }

    Ok((
        ArtifactKey {
            digest,
            max_index_bits,
        },
        TraceArtifacts {
            stripped,
            tree: None,
            exploration,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_trace::generate;

    fn sample(engine: Engine) -> (ArtifactKey, TraceArtifacts) {
        let trace = generate::working_set_phases(2, 150, 32, 9);
        let key = ArtifactKey::of(&trace, trace.address_bits());
        let artifacts = TraceArtifacts::build_with(&trace, key.max_index_bits, engine).unwrap();
        (key, artifacts)
    }

    fn reseal(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let sum = xxh64(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
    }

    /// The published XXH64 vectors for seed 0: the short-input path with
    /// 0, 1 and 3 tail bytes, and one 32-byte stripe plus a 7-byte tail.
    #[test]
    fn checksum_is_xxh64_with_seed_zero() {
        for (input, expected) in [
            (&b""[..], 0xEF46_DB37_51D8_E999),
            (b"a", 0xD24E_C4F1_A98C_6E5B),
            (b"abc", 0x44BC_2CF5_AD77_0999),
            (
                b"Nobody inspects the spammish repetition",
                0xFBCE_A83C_8A37_8BF1,
            ),
        ] {
            assert_eq!(
                xxh64(input),
                expected,
                "{:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn entries_carry_the_current_version_and_an_xxh64_trailer() {
        let (key, artifacts) = sample(Engine::default());
        let bytes = encode(&key, &artifacts);
        assert_eq!(le_u32(&bytes[VERSION_AT..VERSION_AT + 4]), VERSION);
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        assert_eq!(le_u64(tail), xxh64(body));
    }

    /// A version-1 entry is refused before its checksum is looked at, under
    /// the name of what it is, whatever its trailer holds.
    #[test]
    fn retired_version_one_is_rejected_by_name() {
        let (key, artifacts) = sample(Engine::default());
        let bytes = encode(&key, &artifacts);
        for (flags, named) in [
            (FLAG_PROFILES_ONLY, "retired format version 1"),
            (0, "retired format version 1"),
            (RETIRED_TREE_BIT, "retired tree-bearing"),
        ] {
            let mut old = bytes.clone();
            old[VERSION_AT..VERSION_AT + 4].copy_from_slice(&RETIRED_VERSION.to_le_bytes());
            old[FLAGS_AT..FLAGS_AT + 4].copy_from_slice(&flags.to_le_bytes());
            for sealed in [false, true] {
                if sealed {
                    reseal(&mut old);
                }
                let err = decode(&old).unwrap_err();
                assert!(
                    matches!(&err, StoreError::Corrupt(m) if m.contains(named)),
                    "flags {flags:#x}, resealed {sealed}: {err:?}"
                );
            }
        }
        // Too short to hold a flags word before the trailer: still named,
        // never an out-of-bounds read.
        for len in MIN_LEN..FLAGS_AT + 4 + 8 {
            let mut short = [&MAGIC[..], &RETIRED_VERSION.to_le_bytes()].concat();
            short.resize(len, 0);
            let err = decode(&short).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(m) if m.contains("retired format version 1")),
                "{len} bytes: {err:?}"
            );
        }
    }

    #[test]
    fn every_engine_round_trips_as_a_profiles_only_entry() {
        for engine in [Engine::Streamed, Engine::DepthFirst] {
            let (key, artifacts) = sample(engine);
            let bytes = encode(&key, &artifacts);
            let flags = u32::from_le_bytes(bytes[FLAGS_AT..FLAGS_AT + 4].try_into().unwrap());
            assert_eq!(flags, FLAG_PROFILES_ONLY, "{engine}");
            let (decoded_key, decoded) = decode(&bytes).unwrap();
            assert_eq!(decoded_key, key);
            assert_eq!(decoded, artifacts, "{engine}");
            assert_eq!(decoded.exploration.engine(), engine);
        }
    }

    /// Byte offset of the `engine` field: flags + address_bits + stats.
    const ENGINE_AT: usize = FLAGS_AT + 4 + 4 + 24;

    /// Tag 1 named the parallel depth-first schedule and tag 2 the
    /// tree-table engine; only version-1 builds wrote them. A version-2
    /// entry carrying one is refused like any unknown engine, so the disk
    /// store quarantines it and the next job rebuilds it.
    #[test]
    fn retired_engine_tags_are_rejected() {
        let (key, artifacts) = sample(Engine::DepthFirst);
        let bytes = encode(&key, &artifacts);
        assert_eq!(
            u32::from_le_bytes(bytes[ENGINE_AT..ENGINE_AT + 4].try_into().unwrap()),
            0,
            "depth-first writes tag 0"
        );
        for tag in [1u32, 2] {
            let mut bad = bytes.clone();
            bad[ENGINE_AT..ENGINE_AT + 4].copy_from_slice(&tag.to_le_bytes());
            reseal(&mut bad);
            let err = decode(&bad).unwrap_err();
            let named = format!("unknown engine code {tag}");
            assert!(
                matches!(&err, StoreError::Corrupt(m) if m.contains(&named)),
                "{err:?}"
            );
        }
    }

    #[test]
    fn retired_tree_bit_and_unknown_flags_are_rejected() {
        let (key, artifacts) = sample(Engine::default());
        let bytes = encode(&key, &artifacts);
        // Flags 0 and bit 0 were written only by version-1 builds.
        for (flags, named) in [
            (0, "unknown flags 0x0"),
            (RETIRED_TREE_BIT, "unknown flags 0x1"),
            (RETIRED_TREE_BIT | FLAG_PROFILES_ONLY, "unknown flags 0x3"),
            (1 << 2, "unknown flags 0x4"),
            (FLAG_PROFILES_ONLY | 1 << 2, "unknown flags 0x6"),
        ] {
            let mut bad = bytes.clone();
            bad[FLAGS_AT..FLAGS_AT + 4].copy_from_slice(&flags.to_le_bytes());
            reseal(&mut bad);
            let err = decode(&bad).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(m) if m.contains(named)),
                "flags {flags:#x}: {err:?}"
            );
        }
    }

    /// An entry whose profiles were cut short (or padded) under an intact
    /// checksum would otherwise answer with a frontier missing depths.
    #[test]
    fn profile_count_must_match_max_index_bits() {
        let (key, artifacts) = sample(Engine::default());
        let profiles = artifacts.exploration.profiles();
        assert_eq!(profiles.len(), key.max_index_bits as usize + 1);
        let mut padded = profiles.to_vec();
        let deepest = profiles.last().unwrap();
        padded.push(DepthProfile::from_parts(
            deepest.depth() * 2,
            deepest.histogram().to_vec(),
            deepest.cold(),
            deepest.accesses(),
        ));
        for wrong in [profiles[..2].to_vec(), padded] {
            let count = wrong.len();
            let exploration = Exploration::from_parts(
                wrong,
                artifacts.exploration.stats(),
                artifacts.exploration.engine(),
            )
            .unwrap();
            let bytes = encode(
                &key,
                &TraceArtifacts {
                    stripped: artifacts.stripped.clone(),
                    tree: None,
                    exploration,
                },
            );
            let err = decode(&bytes).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(m) if m.contains("profiles under max_index_bits")),
                "{count} profiles: {err:?}"
            );
            assert!(matches!(
                crate::decode_validated(&key, &bytes),
                Err(StoreError::Corrupt(_))
            ));
        }
    }

    /// A checksummed entry whose depth-1 histogram sums past `u64::MAX` to
    /// exactly `total − unique` must fail the stats gate, not wrap through
    /// it (release) or panic on the addition (debug).
    #[test]
    fn overflowing_histogram_fails_the_stats_gate() {
        let (key, artifacts) = sample(Engine::default());
        let stats = artifacts.exploration.stats();
        let mut profiles = artifacts.exploration.profiles().to_vec();
        let depth1 = &profiles[0];
        profiles[0] = DepthProfile::from_parts(
            1,
            vec![u64::MAX, (stats.total - stats.unique) as u64 + 1],
            depth1.cold(),
            depth1.accesses(),
        );
        let exploration =
            Exploration::from_parts(profiles, stats, artifacts.exploration.engine()).unwrap();
        let bytes = encode(
            &key,
            &TraceArtifacts {
                stripped: artifacts.stripped,
                tree: None,
                exploration,
            },
        );
        let err = crate::decode_validated(&key, &bytes).unwrap_err();
        assert!(
            matches!(&err, StoreError::Invalid(m) if m.contains("depth-1 ")),
            "{err:?}"
        );
    }

    #[test]
    fn every_truncation_is_rejected_structurally() {
        let (key, artifacts) = sample(Engine::default());
        let bytes = encode(&key, &artifacts);
        // Header, mid-array, and checksum-straddling truncations all
        // surface as Corrupt — never a panic, never a silent success.
        for cut in [0, 3, MIN_LEN - 1, MIN_LEN, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let (key, artifacts) = sample(Engine::default());
        let bytes = encode(&key, &artifacts);
        // Flip one byte at a spread of offsets, then every single bit of
        // the entry: the magic, version or checksum gate (or, for flips
        // inside the checksum itself, the recomputation) fires.
        let sampled = (0..bytes.len())
            .step_by(bytes.len() / 37 + 1)
            .map(|at| (at, 0x40));
        let every_bit = (0..bytes.len()).flat_map(|at| (0..8).map(move |bit| (at, 1u8 << bit)));
        let mut bad = bytes.clone();
        for (at, mask) in sampled.chain(every_bit) {
            bad[at] ^= mask;
            let err = decode(&bad).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "flip {mask:#04x} at {at}: {err:?}"
            );
            bad[at] ^= mask;
        }
        assert_eq!(bad, bytes);
    }

    #[test]
    fn bad_magic_and_version_are_named() {
        let (key, artifacts) = sample(Engine::default());
        let bytes = encode(&key, &artifacts);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decode(&bad).unwrap_err().to_string().contains("magic"));
        // A future version with a valid checksum is still refused.
        let mut future = bytes;
        future[8] = 0xFF;
        reseal(&mut future);
        assert!(decode(&future).unwrap_err().to_string().contains("version"));
    }

    #[test]
    fn lying_length_prefix_is_rejected_before_allocating() {
        let (key, artifacts) = sample(Engine::default());
        let mut bytes = encode(&key, &artifacts);
        // The unique-address array length sits right after the fixed
        // header; claim 2^60 elements and re-seal the checksum.
        let len_at = ENGINE_AT + 4;
        bytes[len_at..len_at + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        reseal(&mut bytes);
        let err = decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("elements"), "{err}");
    }
}
